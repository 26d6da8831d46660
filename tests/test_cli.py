import contextlib
import gc
import io
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import smx
from smx.cli import (
    _fmt, _write_scores, main, parse_selector, resolve_measure_name, split_measure_list,
)
from smx.errors import InfinityError
from smx.specificity import ESTIMATOR_KINDS, ESTIMATORS

from helpers import fuzz_tsv
from scale_smoke import synth_graph_lines

TOY = (
    "A\tsubClassOf\troot\nB\tsubClassOf\troot\nC\tsubClassOf\tA\n"
    "D\tsubClassOf\tA\nE\tsubClassOf\tC\nF\tsubClassOf\tB\n"
)


@pytest.fixture()
def toy_file(tmp_path):
    path = tmp_path / "toy.tsv"
    path.write_text(TOY)
    return str(path)


@pytest.fixture()
def pairs_file(tmp_path):
    path = tmp_path / "pairs.tsv"
    path.write_text("E\tD\nE\tF\n")
    return str(path)


class TestGrammar:
    def test_selector_with_params(self):
        name, params = parse_selector("li:alpha=0.2,beta=0.6")
        assert name == "li"
        assert params == {"alpha": "0.2", "beta": "0.6"}

    def test_measure_list_splitting(self):
        assert split_measure_list("lin:ic=seco,wupalmer,rada") == [
            "lin:ic=seco",
            "wupalmer",
            "rada",
        ]
        assert split_measure_list("li:alpha=0.2,beta=0.6,rada") == [
            "li:alpha=0.2,beta=0.6",
            "rada",
        ]

    def test_measure_list_with_parameters_on_every_measure(self):
        assert split_measure_list("lin:ic=seco,jiang_conrath:ic=seco") == [
            "lin:ic=seco",
            "jiang_conrath:ic=seco",
        ]
        assert split_measure_list("li:alpha=0.2,beta=0.6,lin:ic=zhou:k=0.5,rada") == [
            "li:alpha=0.2,beta=0.6",
            "lin:ic=zhou:k=0.5",
            "rada",
        ]

    def test_alias_resolution(self):
        assert resolve_measure_name("wupalmer") == "wu_palmer"
        assert resolve_measure_name("lin") == "lin"
        # catalog rows, form kinds and named forms, any case, underscores optional
        for name in (*smx.pairwise.MEASURES, *smx.unify.FORMS, "wu_palmer_tree", "sokal_sneath"):
            assert resolve_measure_name(name) == name
            assert resolve_measure_name(name.upper().replace("_", "")) == name
        assert resolve_measure_name("wupalmertree") == "wu_palmer_tree"
        assert resolve_measure_name("jiangconrathdist") == "jiang_conrath"
        assert resolve_measure_name("jc") == "jiang_conrath"
        assert resolve_measure_name("lc") == "leacock_chodorow"


class TestSim:
    def test_happy_path(self, toy_file, pairs_file, capsys):
        code = main(
            ["sim", "--measure", "lin", "--ic", "seco", "--graph", toy_file,
             "--pairs", pairs_file]
        )
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("E\tD\t")
        assert float(lines[0].split("\t")[2]) == pytest.approx(0.2876, abs=1e-3)
        assert float(lines[1].split("\t")[2]) == 0.0

    @pytest.mark.parametrize(
        "measure, pair",
        [(["leacock_chodorow"], "E\tF"), (["resnik", "--ic", "sanchez_refined"], "A\tF")],
    )
    def test_negative_zero_prints_as_zero(self, toy_file, tmp_path, capsys, measure, pair):
        pairs = tmp_path / "p.tsv"
        pairs.write_text(pair + "\n")
        code = main(["sim", "--measure", *measure, "--graph", toy_file, "--pairs", str(pairs)])
        assert code == 0
        assert capsys.readouterr().out == pair + "\t0\n"

    def test_unknown_measure_is_usage_error(self, toy_file, pairs_file, capsys):
        code = main(
            ["sim", "--measure", "nope", "--graph", toy_file, "--pairs", pairs_file]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert "valid measures" in err and "lin" in err

    def test_redundant_graph_is_data_error(self, tmp_path, pairs_file, capsys):
        graph = tmp_path / "g.tsv"
        graph.write_text(TOY + "E\tsubClassOf\troot\n")
        pairs = tmp_path / "p.tsv"
        pairs.write_text("E\tD\n")
        code = main(
            ["sim", "--measure", "rada", "--graph", str(graph), "--pairs", str(pairs)]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "redundant" in captured.err
        assert captured.out == ""

    def test_unknown_class_is_named_on_a_redundant_graph(self, tmp_path, capsys):
        # classes resolve before the measure scores, so a path measure on an
        # unreduced view names the unknown class of the first pair
        graph = tmp_path / "g.tsv"
        graph.write_text(TOY + "E\tsubClassOf\troot\n")
        pairs = tmp_path / "p.tsv"
        pairs.write_text("E\tghost\nE\tD\n")
        code = main(
            ["sim", "--measure", "rada", "--graph", str(graph), "--pairs", str(pairs)]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.count("\n") == 1 and "ghost" in captured.err
        assert "redundant" not in captured.err
        assert captured.out == ""

    def test_outputs_identical_across_runs(self, toy_file, pairs_file, tmp_path):
        outputs = []
        for i in range(2):
            out = tmp_path / f"scores{i}.tsv"
            assert main(
                ["sim", "--measure", "wu_palmer", "--graph", toy_file,
                 "--pairs", pairs_file, "--out", str(out)]
            ) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_missing_pairs_flag_is_usage_error(self, toy_file, capsys):
        assert main(["sim", "--measure", "lin", "--graph", toy_file]) == 1

    @pytest.mark.parametrize("missing", ["--graph", "--pairs"])
    def test_missing_file_is_data_error(self, toy_file, pairs_file, tmp_path, capsys, missing):
        files = {"--graph": toy_file, "--pairs": pairs_file}
        files[missing] = str(tmp_path / "missing.tsv")
        code = main(["sim", "--measure", "lin", *(x for kv in files.items() for x in kv)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.splitlines() == [
            f"error: cannot read {files[missing]}: No such file or directory"
        ]

    @pytest.mark.parametrize(
        "flag, content, message",
        [
            ("--graph", TOY.encode() + b"G\tsubClassOf\t\xff\n", "{path}: line 7: not valid UTF-8 text"),
            ("--pairs", "E\tD\nE\tF\u00e9\n".encode("latin-1"), "{path}: line 2: not valid UTF-8 text"),
            ("--out", None, "cannot write {path}: No such file or directory"),
        ],
        ids=["graph-not-utf8", "pairs-not-utf8", "out-in-missing-dir"],
    )
    def test_bad_file_is_one_error_line(
        self, toy_file, pairs_file, tmp_path, capsys, flag, content, message
    ):
        files = {"--graph": toy_file, "--pairs": pairs_file, "--out": "-"}
        path = tmp_path / "missing" / "file.tsv"
        if content is not None:
            path = tmp_path / "file.tsv"
            path.write_bytes(content)
        files[flag] = str(path)
        code = main(["sim", "--measure", "lin", *(x for kv in files.items() for x in kv)])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == ["error: " + message.format(path=path)]

    def test_parse_error_names_its_file(self, toy_file, tmp_path, capsys):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("E\tD\nlonely\n")
        code = main(["sim", "--measure", "lin", "--graph", toy_file, "--pairs", str(pairs)])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {pairs}: line 2: expected two tab-separated identifiers"
        ]

    def test_resnik_with_zero_usage_class(self, tmp_path, capsys):
        graph = tmp_path / "g.tsv"
        graph.write_text("A\tsubClassOf\troot\nB\tsubClassOf\troot\n")
        ann = tmp_path / "ann.tsv"
        ann.write_text("g1\tA\n")
        pairs = tmp_path / "p.tsv"
        pairs.write_text("A\tB\n")
        argv = ["sim", "--ic", "resnik", "--graph", str(graph),
                "--annotations", str(ann), "--pairs", str(pairs)]
        assert main([*argv, "--measure", "resnik"]) == 0
        assert capsys.readouterr().out == "A\tB\t0\n"
        assert main([*argv, "--measure", "lin"]) == 2
        assert "class B has zero usage" in capsys.readouterr().err


class TestIc:
    def test_dump_values(self, toy_file, capsys):
        code = main(["ic", "--estimator", "seco", "--graph", toy_file])
        out = capsys.readouterr().out
        assert code == 0
        table = dict(line.split("\t") for line in out.strip().splitlines())
        assert float(table["root"]) == 0.0
        assert float(table["E"]) == 1.0
        assert float(table["A"]) == pytest.approx(1 - math.log(4) / math.log(7))

    def test_negative_zero_prints_as_zero(self, toy_file, capsys):
        assert main(["ic", "--estimator", "sanchez_refined", "--graph", toy_file]) == 0
        assert "root\t0\n" in capsys.readouterr().out

    def test_estimator_params(self, toy_file, capsys):
        code = main(["ic", "--estimator", "zhou:k=0.6", "--graph", toy_file])
        assert code == 0

    def test_extrinsic_needs_annotations(self, toy_file, capsys):
        code = main(["ic", "--estimator", "resnik", "--graph", toy_file])
        assert code == 2

    @pytest.mark.parametrize("base", ["inf", "-inf", "nan", "1", "0", "-2"])
    @pytest.mark.parametrize("command", ["ic", "sim", "abstract"])
    def test_bad_log_base_is_one_error_line(
        self, toy_file, pairs_file, tmp_path, capsys, base, command
    ):
        out = tmp_path / "out.tsv"
        out.write_text("old results\n")
        seco = f"seco:base={base}"
        argv = {
            "ic": ["ic", "--estimator", seco],
            "sim": ["sim", "--measure", "lin", "--ic", seco, "--pairs", pairs_file],
            "abstract": ["abstract", "--form", "dice", "--ic", seco,
                         "--pairs", pairs_file],
        }[command]
        code = main([*argv, "--graph", toy_file, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("error: ") and "base must" in err
        assert out.read_text() == "old results\n"

    def test_base_and_smooth_equal_the_library_table(self, toy_file, tmp_path, capsys):
        ann = tmp_path / "ann.tsv"
        ann.write_text("g1\tE\ng2\tD\n")
        argv = ["ic", "--graph", toy_file, "--annotations", str(ann)]
        assert main([*argv, "--estimator", "resnik:smooth=1,base=2"]) == 0
        graph = smx.parse_graph(toy_file)
        t = smx.taxonomic_reduction(graph)
        usage = smx.class_usage(t, smx.parse_annotations(str(ann), graph))
        table = smx.resnik_extrinsic_ic(t, usage, smooth=True, base=2.0)
        assert capsys.readouterr().out == "".join(
            f"{t.label(c)}\t{table.raw(c):.12g}\n" for c in t.sorted_classes()
        )


class TestEstimatorParameters:
    @pytest.mark.parametrize("option", [["--log-base", "2"], ["--smooth"]])
    @pytest.mark.parametrize(
        "argv",
        [
            ["preprocess"],
            ["ic", "--estimator", "seco"],
            ["sim", "--measure", "lin", "--pairs", "p.tsv"],
            ["groupsim", "--measure", "simgic", "--annotations", "a.tsv", "--pairs", "p.tsv"],
            ["abstract", "--form", "dice", "--ic", "depth_raw", "--pairs", "p.tsv"],
            ["rel", "--method", "wsp", "--pairs", "p.tsv"],
            ["bench", "--mapping", "m.tsv", "--dataset", "d.tsv", "--measures", "lin"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_log_base_and_smooth_are_unrecognized(self, toy_file, capsys, option, argv):
        assert main([*argv, "--graph", toy_file, *option]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kind, key",
        [
            (kind, key)
            for kind in ESTIMATOR_KINDS
            for key in ("foo", "base", "smooth")
            if key not in ESTIMATORS[kind][1]
        ],
    )
    @pytest.mark.parametrize("command", ["ic", "sim"])
    def test_unknown_parameter_is_one_error_line(
        self, toy_file, pairs_file, tmp_path, capsys, kind, key, command
    ):
        ann = tmp_path / "ann.tsv"
        ann.write_text("g1\tE\n")
        out = tmp_path / "out.tsv"
        out.write_text("old results\n")
        selector = f"{kind}:{key}=1"
        argv = {
            "ic": ["ic", "--estimator", selector],
            "sim": ["sim", "--measure", "lin", "--ic", selector, "--pairs", pairs_file],
        }[command]
        code = main([*argv, "--graph", toy_file, "--annotations", str(ann), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"error: {kind}: unknown parameters ['{key}']\n"
        assert out.read_text() == "old results\n"

    def test_inline_ic_carries_one_parameter(self, toy_file, pairs_file, tmp_path, capsys):
        ann = tmp_path / "ann.tsv"
        ann.write_text("g1\tE\n")
        argv = ["sim", "--graph", toy_file, "--annotations", str(ann), "--pairs", pairs_file]
        assert main([*argv, "--measure", "lin:ic=resnik:smooth=1"]) == 0
        assert main([*argv, "--measure", "lin", "--ic", "resnik:smooth=1"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 4 and out[:2] == out[2:]
        assert main([*argv, "--measure", "lin:ic=resnik:smooth=1,base=2"]) == 2
        assert capsys.readouterr().err == "error: lin: unknown parameters ['base']\n"

    @pytest.mark.parametrize(
        "estimator, code",
        [
            ("zhou:k=0.3", 0),
            ("zhou:kk=0.3", 2),
            ("zhou:k=nan", 2),
            ("seco:k=5", 2),
            ("depth:foo=1", 2),
        ],
    )
    def test_only_zhou_takes_k(self, toy_file, pairs_file, capsys, estimator, code):
        assert main(["ic", "--estimator", estimator, "--graph", toy_file]) == code
        assert capsys.readouterr().err.count("error: ") == (code == 2)
        argv = ["sim", "--measure", f"lin:ic={estimator}", "--pairs", pairs_file]
        assert main([*argv, "--graph", toy_file]) == code
        assert capsys.readouterr().err.count("error: ") == (code == 2)


class TestPreprocess:
    def test_reduction_report(self, tmp_path, capsys):
        graph = tmp_path / "g.tsv"
        graph.write_text(TOY + "E\tsubClassOf\troot\ng1\tisA\tE\n")
        out = tmp_path / "reduced.tsv"
        report = tmp_path / "report.tsv"
        code = main(
            ["preprocess", "--graph", str(graph), "--out", str(out),
             "--report", str(report)]
        )
        assert code == 0
        assert "E\tsubClassOf\troot" in report.read_text()
        reduced = out.read_text()
        assert "E\tsubClassOf\troot" not in reduced
        assert "g1\tisA\tE" in reduced  # non-taxonomic edges survive

    def test_byte_order_mark_makes_no_phantom_class(self, tmp_path, capsys):
        graph = tmp_path / "g.tsv"
        graph.write_bytes(b"\xef\xbb\xbfA\tsubClassOf\troot\nA2\tsubClassOf\tA\n")
        report = tmp_path / "report.tsv"
        code = main(["preprocess", "--graph", str(graph), "--report", str(report)])
        assert code == 0
        assert capsys.readouterr().out == "A\tsubClassOf\troot\nA2\tsubClassOf\tA\n"
        assert report.read_text() == ""

    def test_cycle_is_data_error(self, tmp_path, capsys):
        graph = tmp_path / "g.tsv"
        graph.write_text("A\tsubClassOf\tB\nB\tsubClassOf\tA\n")
        assert main(["preprocess", "--graph", str(graph)]) == 2

    @pytest.mark.parametrize("bad", ["--out", "--report"])
    @pytest.mark.parametrize("existing", [None, "old results\n"])
    def test_unwritable_output_leaves_the_other(self, toy_file, tmp_path, capsys, bad, existing):
        paths = {"--out": tmp_path / "reduced.tsv", "--report": tmp_path / "r.tsv"}
        paths[bad] = tmp_path / "nodir" / "x.tsv"
        other = paths["--report" if bad == "--out" else "--out"]
        if existing is not None:
            other.write_text(existing)
        argv = ["preprocess", "--graph", toy_file]
        code = main(argv + [arg for flag, path in paths.items() for arg in (flag, str(path))])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        if existing is None:
            assert not other.exists()
        else:
            assert other.read_text() == existing


class TestGroupsim:
    def test_bma_lin(self, toy_file, tmp_path, capsys):
        ann = tmp_path / "ann.tsv"
        ann.write_text("g1\tC,D\ng2\tE\n")
        pairs = tmp_path / "ipairs.tsv"
        pairs.write_text("g1\tg2\n")
        code = main(
            ["groupsim", "--measure", "bma:lin", "--ic", "seco",
             "--graph", toy_file, "--annotations", str(ann), "--pairs", str(pairs)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert float(out.strip().split("\t")[2]) == pytest.approx(0.6594, abs=1e-3)

    def test_one_pair_scorer_per_run(self, toy_file, tmp_path, capsys, monkeypatch):
        built = []
        real = smx.groupwise.pair_scorer
        monkeypatch.setattr(
            smx.groupwise, "pair_scorer", lambda *args: built.append(args) or real(*args)
        )
        ann = tmp_path / "ann.tsv"
        ann.write_text("g1\tC,D\ng2\tE\ng3\tE,F\n")
        pairs = tmp_path / "ipairs.tsv"
        pairs.write_text("g1\tg2\ng2\tg3\ng1\tg3\ng3\tg3\n")
        code = main(
            ["groupsim", "--measure", "bma:lin", "--ic", "seco",
             "--graph", toy_file, "--annotations", str(ann), "--pairs", str(pairs)]
        )
        assert code == 0
        assert len(capsys.readouterr().out.splitlines()) == 4
        assert len(built) == 1

    @pytest.mark.parametrize("strategy", ["avg", "avgmax", "bmm", "bma"])
    def test_mean_of_near_max_cells_is_finite(self, toy_file, tmp_path, capsys, strategy):
        # the cells are 1.2e308, 8e307, 8e307 and 1.6e308; their float sum overflows
        ann = tmp_path / "ann.tsv"
        ann.write_text("g1\tD,E\ng2\tD,E\n")
        pairs = tmp_path / "ipairs.tsv"
        pairs.write_text("g1\tg2\n")
        code = main(
            ["groupsim", "--measure", f"{strategy}:tversky_contrast:gamma=4e307", "--ic", "seco",
             "--graph", toy_file, "--annotations", str(ann), "--pairs", str(pairs)]
        )
        assert code == 0
        value = float(capsys.readouterr().out.split("\t")[2])
        assert 8e307 <= value <= 1.6e308

    @pytest.mark.parametrize(
        "argv, usage_builds",
        [
            pytest.param(["groupsim", "--measure", "bma:lin", "--ic", "seco"], 0, id="seco-0"),
            pytest.param(["groupsim", "--measure", "bma:lin", "--ic", "resnik"], 1, id="resnik-1"),
            pytest.param(
                ["groupsim", "--measure", "avg:jaccard_ext", "--ic", "resnik"], 1,
                id="avg:jaccard_ext-resnik-1",
            ),
            pytest.param(
                ["bench", "--mapping", "map.tsv", "--dataset", "ratings.tsv",
                 "--measures", "lin:ic=resnik,jaccard_ext"], 1,
                id="bench-lin:ic=resnik,jaccard_ext-1",
            ),
        ],
    )
    def test_annotations_read_once(
        self, toy_file, tmp_path, capsys, monkeypatch, argv, usage_builds
    ):
        calls = {"parse": 0, "usage": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            smx.ingest, "parse_annotations", counted("parse", smx.ingest.parse_annotations)
        )
        monkeypatch.setattr(smx.cli, "class_usage", counted("usage", smx.cli.class_usage))
        monkeypatch.chdir(tmp_path)
        (tmp_path / "ann.tsv").write_text("g1\tC,D\ng2\tE\n")
        (tmp_path / "ipairs.tsv").write_text("g1\tg2\n")
        (tmp_path / "map.tsv").write_text("cat\tE\ndog\tD\nbird\tC\n")
        (tmp_path / "ratings.tsv").write_text("cat\tdog\t3.0\ncat\tbird\t1.0\ndog\tbird\t2.0\n")
        if argv[0] == "groupsim":
            argv = [*argv, "--pairs", "ipairs.tsv"]
        code = main([*argv, "--graph", toy_file, "--annotations", "ann.tsv"])
        assert code == 0
        assert calls == {"parse": 1, "usage": usage_builds}

    @pytest.mark.parametrize(
        "argv, measure",
        [
            (["groupsim", "--measure", "simgic", "--annotations", "ann.tsv"], "simgic"),
            (["groupsim", "--measure", "bma:lin", "--annotations", "ann.tsv"], "lin"),
            (["sim", "--measure", "jc"], "jiang_conrath"),
        ],
    )
    def test_seco_by_default_with_a_notice(
        self, toy_file, tmp_path, capsys, caplog, monkeypatch, argv, measure
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "ann.tsv").write_text("g1\tC,D\ng2\tE\n")
        (tmp_path / "p.tsv").write_text("g1\tg2\n" if argv[0] == "groupsim" else "E\tD\n")
        base = [*argv, "--graph", toy_file, "--pairs", "p.tsv"]
        with caplog.at_level("INFO", logger="smx"):
            assert main(base) == 0
        notice = f"measure {measure}: no estimator selected, defaulting to seco"
        assert caplog.messages == [notice]
        assert main([*base, "--ic", "seco"]) == 0
        default, explicit = capsys.readouterr().out.splitlines()
        assert default == explicit

    def test_direct_simui(self, toy_file, tmp_path, capsys):
        ann = tmp_path / "ann.tsv"
        ann.write_text("g1\tE\ng2\tD\n")
        pairs = tmp_path / "ipairs.tsv"
        pairs.write_text("g1\tg2\n")
        code = main(
            ["groupsim", "--measure", "simui", "--graph", toy_file,
             "--annotations", str(ann), "--pairs", str(pairs)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert float(out.strip().split("\t")[2]) == pytest.approx(0.4)


class TestAbstract:
    def test_dice_with_ic(self, toy_file, pairs_file, capsys):
        code = main(
            ["abstract", "--form", "dice", "--ic", "seco",
             "--graph", toy_file, "--pairs", pairs_file]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert float(out.splitlines()[0].split("\t")[2]) == pytest.approx(
            0.2876, abs=1e-3
        )

    def test_depth_theta_gives_wu_palmer(self, toy_file, pairs_file, capsys):
        code = main(
            ["abstract", "--form", "dice", "--ic", "depth_raw",
             "--graph", toy_file, "--pairs", pairs_file]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert float(out.splitlines()[0].split("\t")[2]) == pytest.approx(0.4)

    def test_nested_estimator_params(self, toy_file, pairs_file, capsys):
        code = main(
            ["abstract", "--form", "sigma_beta:beta=1", "--ic", "zhou:k=0.4",
             "--graph", toy_file, "--pairs", pairs_file]
        )
        assert code == 0
        assert capsys.readouterr().out.count("\n") == 2


class TestPairSelection:
    """One resolver for every pair selection: a catalog row, a unify.FORMS
    kind with its parameters or a named form, in that order, under sim,
    the groupsim aggregations, bench and abstract."""

    CLASSES = ["root", "A", "B", "C", "D", "E", "F"]

    @pytest.fixture()
    def all_pairs(self, tmp_path):
        path = tmp_path / "all.tsv"
        path.write_text("".join(f"{u}\t{v}\n" for u in self.CLASSES for v in self.CLASSES))
        return str(path)

    def run(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @pytest.mark.parametrize(
        "name", [*smx.unify.FORMS, *smx.pairwise._NAMED, "LIN", "Sigma_Beta", "sigmabeta", "jc"]
    )
    def test_sim_writes_what_abstract_writes(self, toy_file, all_pairs, capsys, name):
        common = ["--ic", "seco", "--graph", toy_file, "--pairs", all_pairs]
        sim = self.run(capsys, ["sim", "--measure", name, *common])
        abstract = self.run(capsys, ["abstract", "--form", name, *common])
        assert sim[0] == 0
        assert sim == abstract
        assert sim[1].count("\n") == len(self.CLASSES) ** 2

    @pytest.mark.parametrize("estimator", ["zhou:k=0.4", "resnik_intrinsic:base=0.5"])
    @pytest.mark.parametrize("name", ["lin", "faith", "jiang_conrath", "jc", "jiangconrathdist"])
    def test_named_forms_that_restate_a_row_score_as_the_row(
        self, toy_file, all_pairs, capsys, name, estimator
    ):
        # the catalog row answers them: same kernel, feature and values, and
        # like the row they take a theta that is not monotone (base 0.5)
        common = ["--ic", estimator, "--graph", toy_file, "--pairs", all_pairs]
        catalog = {"jc": "jiang_conrath", "jiangconrathdist": "jiang_conrath"}.get(name, name)
        abstract = self.run(capsys, ["abstract", "--form", name, *common])
        assert abstract[0] == 0
        assert abstract == self.run(capsys, ["sim", "--measure", catalog, *common])

    @pytest.mark.parametrize("name", ["dice", "general_dice", "sigma_beta:beta=1"])
    def test_other_forms_need_a_monotone_theta(self, toy_file, pairs_file, capsys, name):
        argv = ["--ic", "resnik_intrinsic:base=0.5", "--graph", toy_file, "--pairs", pairs_file]
        for command in (["abstract", "--form"], ["sim", "--measure"]):
            assert main([*command, name, *argv]) == 2
            assert capsys.readouterr().err == "error: bound specificity estimator is not monotone\n"

    def test_unknown_name_lists_every_canonical_name_once(
        self, toy_file, pairs_file, tmp_path, capsys
    ):
        (tmp_path / "ann.tsv").write_text("g1\tE\n")
        (tmp_path / "m.tsv").write_text("cat\tE\ndog\tD\n")
        (tmp_path / "d.tsv").write_text("cat\tdog\t1\n")
        pairs = ["--pairs", pairs_file]
        for argv in (
            ["abstract", "--form", "nope", "--ic", "seco", *pairs],
            ["sim", "--measure", "nope", *pairs],
            ["groupsim", "--measure", "avg:nope", "--annotations", str(tmp_path / "ann.tsv"),
             *pairs],
            ["bench", "--mapping", str(tmp_path / "m.tsv"), "--dataset", str(tmp_path / "d.tsv"),
             "--measures", "lin,nope"],
        ):
            code = main([*argv, "--graph", toy_file])
            err = capsys.readouterr().err
            assert code == 1, argv
            head, _, listed = err.partition("; valid measures: ")
            assert head == "usage error: unknown measure 'nope'", argv
            names = listed.rstrip("\n").split(", ")
            canonical = {
                *smx.pairwise.MEASURES, *smx.unify.FORMS,
                "wu_palmer_tree", "jaccard", "dice", "sokal_sneath", "simpson", "ochiai",
            }
            assert names == sorted(canonical), argv

    def test_named_form_takes_no_parameters(self, toy_file, pairs_file, capsys):
        argv = ["--ic", "seco", "--graph", toy_file, "--pairs", pairs_file]
        for command in (["abstract", "--form"], ["sim", "--measure"]):
            assert main([*command, "Dice:beta=2", *argv]) == 1
            assert capsys.readouterr().err == "usage error: named form 'Dice' takes no parameters\n"

    def test_inline_estimator_selects_a_forms_theta(self, toy_file, all_pairs, capsys, caplog):
        common = ["--graph", toy_file, "--pairs", all_pairs]
        inline = self.run(capsys, ["sim", "--measure", "dice:ic=depth_raw", *common])
        option = self.run(capsys, ["sim", "--measure", "dice", "--ic", "depth_raw", *common])
        assert inline[0] == 0 and inline == option
        with caplog.at_level("INFO", logger="smx"):
            defaulted = self.run(capsys, ["sim", "--measure", "sigma_beta:beta=2", *common])
        assert caplog.messages == ["measure sigma_beta: no estimator selected, defaulting to seco"]
        seco = self.run(capsys, ["sim", "--measure", "dice", "--ic", "seco", *common])
        assert defaulted[1] == seco[1]

    def test_groupsim_aggregates_a_form(self, toy_file, tmp_path, capsys, toy):
        ann = tmp_path / "ann.tsv"
        ann.write_text("g1\tC,D\ng2\tE\ng3\tE,F\n")
        pairs = tmp_path / "ipairs.tsv"
        pairs.write_text("g1\tg2\ng2\tg3\ng1\tg3\n")
        code = main(
            ["groupsim", "--measure", "avg:sigma_beta:beta=1", "--ic", "seco", "--graph",
             toy_file, "--annotations", str(ann), "--pairs", str(pairs)]
        )
        assert code == 0
        inner = smx.abstract_form("sigma_beta", smx.seco_ic(toy), beta=1.0)
        spec = smx.groupwise_measure("avg", inner=inner)
        groups = {"g1": ["C", "D"], "g2": ["E"], "g3": ["E", "F"]}
        score = lambda a, b: smx.eval_groupwise(
            spec, toy, map(toy.node, groups[a]), map(toy.node, groups[b])
        ).value
        listed = (("g1", "g2"), ("g2", "g3"), ("g1", "g3"))
        expected = "".join(f"{a}\t{b}\t{_fmt(score(a, b))}\n" for a, b in listed)
        assert capsys.readouterr().out == expected

    def test_bench_takes_forms(self, toy_file, tmp_path, capsys):
        mapping = tmp_path / "map.tsv"
        mapping.write_text("cat\tE\ndog\tD\nbird\tF\nowl\tC\n")
        dataset = tmp_path / "ratings.tsv"
        dataset.write_text("cat\tdog\t3.0\ncat\tbird\t1.0\ndog\tbird\t2.0\nowl\tcat\t4.0\n")
        common = ["bench", "--graph", toy_file, "--mapping", str(mapping),
                  "--dataset", str(dataset)]
        both = self.run(capsys, [*common, "--measures", "jaccard,lin:ic=seco"])
        lin = self.run(capsys, [*common, "--measures", "lin:ic=seco"])
        assert both[0] == lin[0] == 0
        rows = both[1].splitlines()
        assert [row.split(",")[0] for row in rows] == ["measure", "jaccard", "lin:ic=seco"]
        assert rows[1].split(",")[1:3] == ["4", "0"]
        assert rows[2] == lin[1].splitlines()[1]


class TestEstimatorKindCheck:
    """The kind of every given estimator selector is checked, even for a
    measure that reads no theta, but no estimator is built for it."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["sim", "--measure", "rada", "--ic", "nosuch"],
            ["sim", "--measure", "rada:ic=nosuch"],
            ["groupsim", "--measure", "simui", "--ic", "nosuch"],
            ["sim", "--measure", "lin:ic=seco", "--ic", "nosuch"],
            ["abstract", "--form", "dice:ic=seco", "--ic", "nosuch"],
            ["bench", "--mapping", "m.tsv", "--dataset", "d.tsv", "--measures", "rada:ic=nosuch"],
        ],
    )
    def test_unknown_kind_is_usage_error(self, toy_file, tmp_path, capsys, monkeypatch, argv):
        (tmp_path / "ann.tsv").write_text("g1\tE\n")
        (tmp_path / "pairs.tsv").write_text("E\tD\n")
        (tmp_path / "m.tsv").write_text("cat\tE\ndog\tD\n")
        (tmp_path / "d.tsv").write_text("cat\tdog\t1\n")
        monkeypatch.chdir(tmp_path)
        extra = ["--annotations", "ann.tsv"] if argv[0] == "groupsim" else []
        extra += [] if argv[0] == "bench" else ["--pairs", "pairs.tsv"]
        out = tmp_path / "out.tsv"
        code = main([*argv, *extra, "--graph", toy_file, "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        valid = ", ".join(ESTIMATOR_KINDS)
        assert captured.err == (
            f"usage error: unknown estimator 'nosuch'; valid estimators: {valid}\n"
        )
        assert not out.exists()

    def test_no_estimator_is_built_for_a_measure_that_reads_none(
        self, toy_file, pairs_file, capsys, monkeypatch
    ):
        built = []
        monkeypatch.setattr(smx.cli, "build_estimator", lambda *args, **kw: built.append(args))
        # resnik needs annotations, which are not given: binding it would fail
        for argv in (["--measure", "rada", "--ic", "resnik:smooth=1"],
                     ["--measure", "rada:ic=zhou"]):
            assert main(["sim", *argv, "--graph", toy_file, "--pairs", pairs_file]) == 0
        assert built == []

    @pytest.mark.parametrize(
        "argv, error",
        [
            # a given --ic is checked in the load step, before the measure resolves
            (["sim", "--measure", "nope", "--ic", "nosuch"], "unknown estimator 'nosuch'"),
            (["groupsim", "--measure", "max:rada", "--ic", "nosuch"], "unknown estimator 'nosuch'"),
            (["abstract", "--form", "nope", "--ic", "nosuch"], "unknown estimator 'nosuch'"),
            # the form resolves, and its parameters are read, before its theta is bound
            (["abstract", "--form", "nope", "--ic", "resnik"], "unknown measure 'nope'"),
            (["abstract", "--form", "dice:beta=2", "--ic", "seco:bad=1"],
             "named form 'dice' takes no parameters"),
        ],
    )
    def test_order_of_two_faults(self, toy_file, pairs_file, capsys, argv, error):
        extra = ["--annotations", pairs_file] if argv[0] == "groupsim" else []
        assert main([*argv, *extra, "--graph", toy_file, "--pairs", pairs_file]) == 1
        assert capsys.readouterr().err.startswith(f"usage error: {error}")


class TestNonFiniteParameters:
    @pytest.mark.parametrize(
        "argv",
        [
            ["sim", "--measure", "bulskov:alpha=nan"],
            ["sim", "--measure", "li:alpha=nan"],
            ["sim", "--measure", "zhong:k=nan"],
            ["sim", "--measure", "tversky_ratio:alpha=nan"],
            ["sim", "--measure", "tversky_contrast:gamma=inf"],
            ["sim", "--measure", "li:beta=-inf"],
            ["abstract", "--form", "ratio:alpha=nan", "--ic", "seco"],
            ["abstract", "--form", "sigma_alpha:alpha=nan", "--ic", "seco"],
            ["abstract", "--form", "contrast:gamma=inf", "--ic", "seco"],
        ],
    )
    def test_exit_two_and_no_out(self, toy_file, pairs_file, tmp_path, capsys, argv):
        out = tmp_path / "out.tsv"
        code = main(argv + ["--graph", toy_file, "--pairs", pairs_file, "--out", str(out)])
        assert code == 2
        assert "must not be" in capsys.readouterr().err
        assert not out.exists()

    def test_sigma_alpha_takes_the_infinite_orders(self, toy_file, pairs_file, capsys):
        code = main(
            ["abstract", "--form", "sigma_alpha:alpha=-inf", "--ic", "seco",
             "--graph", toy_file, "--pairs", pairs_file]
        )
        assert code == 0
        assert capsys.readouterr().out.count("\n") == 2


class TestNonFiniteValues:
    """A NaN or infinite score is a data error, and the output is left as it
    was. A form's value names the form and its features; any other score
    names the measure and the pair."""

    @pytest.mark.parametrize(
        "argv, value",
        [
            (["abstract", "--form", "sigma_beta:beta=1e308", "--ic", "depth_raw"], "nan"),
            (["abstract", "--form", "contrast:gamma=1e308", "--ic", "depth_raw"], "inf"),
            (["sim", "--measure", "tversky_contrast:gamma=1e308"], "inf"),
            (["groupsim", "--measure", "avg:tversky_contrast:gamma=1e308"], "inf"),
        ],
    )
    @pytest.mark.parametrize("existing", [None, "old results\n"])
    def test_exit_two_and_out_left_as_it_was(
        self, toy_file, tmp_path, capsys, argv, value, existing
    ):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("E\tE\n")
        if argv[0] == "groupsim":
            (tmp_path / "ann.tsv").write_text("E\tE\n")
            argv = argv + ["--annotations", str(tmp_path / "ann.tsv")]
        out = tmp_path / "out.tsv"
        if existing is not None:
            out.write_text(existing)
        code = main(argv + ["--graph", toy_file, "--pairs", str(pairs), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        form = {
            "sigma_beta:beta=1e308": "sigma_beta of (3.0, 3.0, 3.0)",
            "contrast:gamma=1e308": "contrast of (3.0, 3.0, 3.0)",
            "tversky_contrast:gamma=1e308": "contrast of (4, 4, 4)",
            "avg:tversky_contrast:gamma=1e308": "contrast of (4, 4, 4)",
        }[argv[2]]
        assert err == f"error: {form} is {value}, not a finite number\n"
        assert (out.read_text() if out.exists() else None) == existing

    @pytest.mark.parametrize("existing", [None, "old results\n"])
    def test_a_score_out_of_range_names_the_measure_and_pair(self, tmp_path, existing):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("E\tE\nE\tD\n")
        out = tmp_path / "out.tsv"
        if existing is not None:
            out.write_text(existing)
        score = lambda u, v: math.inf if (u, v) == ("E", "D") else 0.5
        with pytest.raises(InfinityError) as caught:
            _write_scores(str(out), str(pairs), str, score, "m")
        assert str(caught.value) == "m: the pair (E, D) scores inf, not a finite number"
        assert (out.read_text() if out.exists() else None) == existing

    @pytest.mark.parametrize("lam", ["-800", "-1e308"])
    def test_shenoy_overflow_is_one_error_line(self, toy_file, pairs_file, capsys, lam):
        argv = ["sim", "--measure", f"shenoy:lam={lam}", "--graph", toy_file, "--pairs", pairs_file]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: shenoy of E and D overflows\n"

    def test_parameter_grid_exits_zero_or_two(self, toy_file, tmp_path, capsys):
        # every usage-free catalog row and every form at extreme values of
        # each of its parameters, and every estimator kind at extreme bases,
        # over every pair of toy classes: a value or one error line, never
        # a traceback
        classes = ["root", "A", "B", "C", "D", "E", "F"]
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("".join(f"{u}\t{v}\n" for u in classes for v in classes))
        ann = tmp_path / "ann.tsv"
        ann.write_text("g1\tE\ng2\tD\ng3\tF\n")
        values = ["1e308", "-1e308", "800", "-800", "-1", "0", "1e-320", "0.5", "1",
                  "inf", "-inf", "nan"]

        def at_values(name, params):
            if not params:
                return [name]
            return [f"{name}:{key}={value}" for key in params for value in values]

        runs = [
            ["sim", "--measure", measure, "--ic", "seco"]
            for name, info in smx.pairwise.MEASURES.items() if not info.needs_usage
            for measure in at_values(name, info.params)
        ] + [
            ["abstract", "--form", form, "--ic", "seco"]
            for name, spec in smx.unify.FORMS.items()
            for form in at_values(name, spec.params)
        ] + [
            ["sim", "--measure", "lin", "--ic", kind + suffix, "--annotations", str(ann)]
            for kind in ESTIMATOR_KINDS
            for suffix in ("", ":base=2", ":base=1", ":base=-1", ":base=inf", ":k=2", ":smooth=1")
        ]
        assert len(runs) == 356
        bad = []
        for argv in runs:
            code = main([*argv, "--graph", toy_file, "--pairs", str(pairs)])
            err = capsys.readouterr().err
            one_error_line = err.startswith("error: ") and err.count("\n") == 1
            if code not in (0, 2) or (code == 2 and not one_error_line):
                bad.append((argv, code, err))
        assert bad == []

    def test_ic_still_prints_undefined_ic_as_inf(self, toy_file, tmp_path, capsys):
        ann = tmp_path / "ann.tsv"
        ann.write_text("g1\tE\n")
        code = main(["ic", "--estimator", "resnik", "--graph", toy_file, "--annotations", str(ann)])
        assert code == 0
        assert "F\tinf\n" in capsys.readouterr().out


class TestRel:
    def test_wsp_with_scheme(self, tmp_path, capsys):
        graph = tmp_path / "g.tsv"
        graph.write_text(
            "Cat\tsubClassOf\tAnimal\nMouse\tsubClassOf\tAnimal\nCat\thunts\tMouse\n"
        )
        scheme = tmp_path / "weights.tsv"
        scheme.write_text("hunts\t5\nsubClassOf\t1\n")
        pairs = tmp_path / "p.tsv"
        pairs.write_text("Cat\tMouse\n")
        code = main(
            ["rel", "--method", "wsp", "--graph", str(graph),
             "--weights", str(scheme), "--pairs", str(pairs)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out.strip() == "Cat\tMouse\t2"

    def test_wsp_on_the_preprocessed_graph_equals_the_original(self, tmp_path, capsys):
        graph = tmp_path / "g.tsv"
        graph.write_text(
            "A\tsubClassOf\troot\t12345678.9\nB\tsubClassOf\troot\t0.30000000000000004\n"
            "a\tlinks\tA\t0.123456789\nb\tlinks\tB\t5e-324\n"
        )
        pairs = tmp_path / "p.tsv"
        pairs.write_text("a\tb\nA\tB\na\tA\nb\tB\n")
        reduced = tmp_path / "reduced.tsv"
        assert main(["preprocess", "--graph", str(graph), "--out", str(reduced)]) == 0
        answers = []
        for source in (graph, reduced):
            argv = ["rel", "--method", "wsp", "--graph", str(source), "--pairs", str(pairs)]
            assert main(argv) == 0
            answers.append(capsys.readouterr().out)
        assert answers[0] == answers[1]
        assert "a\tA\t0.123456789\n" in answers[0]

    def test_wsp_unreachable_pair(self, tmp_path, capsys):
        graph = tmp_path / "g.tsv"
        graph.write_text("a\trel\tb\t4\nc\trel\td\n")
        pairs = tmp_path / "p.tsv"
        pairs.write_text("a\tc\na\tb\n")
        code = main(["rel", "--method", "wsp", "--graph", str(graph), "--pairs", str(pairs)])
        assert code == 0
        assert capsys.readouterr().out == "a\tc\tunreachable\na\tb\t4\n"

    @pytest.mark.parametrize("existing", [None, "old results\n"])
    def test_wsp_overflow_is_data_error(self, tmp_path, capsys, existing):
        graph = tmp_path / "g.tsv"
        graph.write_text("a\tlinks\tb\t1e308\nb\tlinks\tc\t1e308\n")
        pairs = tmp_path / "p.tsv"
        pairs.write_text("a\tb\na\tc\n")
        out = tmp_path / "out.tsv"
        if existing is not None:
            out.write_text(existing)
        code = main(["rel", "--method", "wsp", "--graph", str(graph),
                     "--pairs", str(pairs), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: every path between a and c costs more than the largest float\n"
        )
        assert (out.read_text() if out.exists() else None) == existing

    @pytest.mark.parametrize("weight", ["nan", "-1", "inf"])
    def test_bad_scheme_weight_is_line_numbered_data_error(self, tmp_path, capsys, weight):
        graph = tmp_path / "g.tsv"
        graph.write_text("a\tpartOf\tb\n")
        scheme = tmp_path / "weights.tsv"
        scheme.write_text(f"# costs\npartOf\t{weight}\n")
        pairs = tmp_path / "p.tsv"
        pairs.write_text("a\tb\n")
        code = main(
            ["rel", "--method", "wsp", "--graph", str(graph),
             "--weights", str(scheme), "--pairs", str(pairs)]
        )
        assert code == 2
        assert "line 2: weight must be finite and >= 0" in capsys.readouterr().err

    def test_simrank(self, tmp_path, capsys):
        graph = tmp_path / "g.tsv"
        graph.write_text("p\tfeeds\tx\np\tfeeds\ty\n")
        pairs = tmp_path / "p.tsv"
        pairs.write_text("x\ty\n")
        code = main(
            ["rel", "--method", "simrank", "--graph", str(graph),
             "--pairs", str(pairs)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert float(out.strip().split("\t")[2]) == pytest.approx(0.8)

    def test_unknown_method(self, tmp_path, capsys):
        graph = tmp_path / "g.tsv"
        graph.write_text("a\tr\tb\n")
        pairs = tmp_path / "p.tsv"
        pairs.write_text("a\tb\n")
        assert main(
            ["rel", "--method", "nope", "--graph", str(graph), "--pairs", str(pairs)]
        ) == 1

    def test_unknown_method_is_reported_before_inputs_are_read(self, tmp_path, capsys):
        missing = tmp_path / "missing.tsv"
        assert main(
            ["rel", "--method", "wps", "--graph", str(missing), "--pairs", str(missing)]
        ) == 1
        err = capsys.readouterr().err
        assert "unknown method 'wps'; valid: wsp, hitting, commute, simrank" in err
        assert "cannot read" not in err


class TestBench:
    def test_report(self, toy_file, tmp_path, capsys):
        mapping = tmp_path / "map.tsv"
        mapping.write_text("cat\tE\ndog\tD\nbird\tF\n")
        dataset = tmp_path / "ratings.tsv"
        dataset.write_text("cat\tdog\t3.0\ncat\tbird\t1.0\ncat\tghost\t2.0\n")
        out = tmp_path / "report.csv"
        code = main(
            ["bench", "--graph", toy_file, "--mapping", str(mapping),
             "--dataset", str(dataset),
             "--measures", "lin:ic=seco,wupalmer,rada",
             "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "measure,n_scored,n_skipped,pearson,spearman"
        assert len(lines) == 4
        for line in lines[1:]:
            cells = line.split(",")
            assert cells[1] == "2" and cells[2] == "1"

    def test_parameters_on_every_measure(self, toy_file, tmp_path, capsys):
        mapping = tmp_path / "map.tsv"
        mapping.write_text("cat\tE\ndog\tD\nbird\tF\n")
        dataset = tmp_path / "ratings.tsv"
        dataset.write_text("cat\tdog\t3.0\ncat\tbird\t1.0\ndog\tbird\t2.0\n")
        code = main(
            ["bench", "--graph", toy_file, "--mapping", str(mapping),
             "--dataset", str(dataset),
             "--measures", "lin:ic=seco,jiang_conrath:ic=seco"]
        )
        rows = capsys.readouterr().out.splitlines()
        assert code == 0
        assert [row.split(",")[0] for row in rows[1:]] == [
            "lin:ic=seco", "jiang_conrath:ic=seco"
        ]

    def test_one_estimator_per_distinct_selector(self, toy_file, tmp_path, capsys, monkeypatch):
        kinds = []

        def counted(kind, *args, **kwargs):
            kinds.append(kind)
            return smx.build_estimator(kind, *args, **kwargs)

        monkeypatch.setattr(smx.cli, "build_estimator", counted)
        mapping = tmp_path / "map.tsv"
        mapping.write_text("cat\tE\ndog\tD\nbird\tF\n")
        dataset = tmp_path / "ratings.tsv"
        dataset.write_text("cat\tdog\t3.0\ncat\tbird\t1.0\ndog\tbird\t2.0\n")
        code = main(
            ["bench", "--graph", toy_file, "--mapping", str(mapping),
             "--dataset", str(dataset),
             "--measures", "lin,jiang_conrath,resnik,lin:ic=zhou,faith:ic=zhou"]
        )
        assert code == 0
        assert kinds == ["seco", "zhou"]

    def test_all_pairs_skipped_on_a_redundant_graph(self, tmp_path, capsys):
        # no pair is scored, so a path measure on an unreduced view raises
        # nothing and the report counts every pair as skipped
        graph = tmp_path / "g.tsv"
        graph.write_text(TOY + "E\tsubClassOf\troot\n")
        mapping = tmp_path / "map.tsv"
        mapping.write_text("cat\tE\n")
        dataset = tmp_path / "ratings.tsv"
        dataset.write_text("owl\tdog\t3.0\nbird\tfish\t1.0\n")
        out = tmp_path / "report.csv"
        code = main(
            ["bench", "--graph", str(graph), "--mapping", str(mapping),
             "--dataset", str(dataset), "--measures", "rada,wu_palmer", "--out", str(out)]
        )
        assert code == 0
        assert out.read_text() == (
            "measure,n_scored,n_skipped,pearson,spearman\nrada,0,2,,\nwu_palmer,0,2,,\n"
        )

    def test_correlations_at_the_edges_of_float_range(self, tmp_path, capsys):
        # li:alpha=400 scores underflow their squared deviations unscaled;
        # gamma=1e300 scales alpha=0,beta=0 by 1e300, so pearson is equal
        mapping = tmp_path / "map.tsv"
        mapping.write_text("w_e\tE\nw_d\tD\nw_f\tF\nw_c\tC\nw_a\tA\n")
        dataset = tmp_path / "ratings.tsv"
        dataset.write_text(
            "w_e\tw_d\t1.0\nw_e\tw_c\t3.0\nw_e\tw_f\t0.5\nw_d\tw_c\t2.0\nw_a\tw_f\t0.2\n"
        )
        code = main(
            ["bench", "--graph", smx.toy_taxonomy_path(), "--mapping", str(mapping),
             "--dataset", str(dataset),
             "--measures", "li:alpha=400,tversky_contrast:gamma=1e300,"
             "tversky_contrast:alpha=0,beta=0"]
        )
        assert code == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        li, scaled, plain = (row.rsplit(",", 2) for row in rows)
        assert li == ["li:alpha=400,5,0", "0.805256", "0.707107"]
        assert scaled[1:] == plain[1:] == ["0.943829", "0.948683"]

    @pytest.mark.parametrize(
        "measures, lin_row, reasons",
        [
            ("lin:ic=seco,damato_ext", "lin:ic=seco,3,0,0.866025,0.866025",
             ["measure damato_ext: skipped 2 of 3 pairs (UsageError 2)"]),
            ("lin:ic=resnik,jaccard_ext", "lin:ic=resnik,1,2,,",
             ["measure lin:ic=resnik: skipped 2 of 3 pairs (InfiniteICError 2)",
              "measure jaccard_ext: skipped 2 of 3 pairs (UsageError 2)"]),
        ],
    )
    def test_undefined_sense_pair_is_skipped_and_counted(
        self, toy_file, tmp_path, capsys, caplog, measures, lin_row, reasons
    ):
        # D has no instances, so an extensional measure or an extrinsic
        # theta is undefined on every pair with dog, and only on those
        (tmp_path / "ann.tsv").write_text("i1\tE\ni3\tF\n")
        (tmp_path / "map.tsv").write_text("cat\tE\ndog\tD\nbird\tF\n")
        (tmp_path / "ratings.tsv").write_text("cat\tdog\t3.0\ncat\tbird\t1.0\ndog\tbird\t2.0\n")
        with caplog.at_level("INFO", logger="smx"):
            code = main(
                ["bench", "--graph", toy_file, "--mapping", str(tmp_path / "map.tsv"),
                 "--dataset", str(tmp_path / "ratings.tsv"),
                 "--annotations", str(tmp_path / "ann.tsv"), "--measures", measures]
            )
        assert code == 0
        rows = capsys.readouterr().out.splitlines()
        assert rows[1] == lin_row
        assert rows[2].endswith(",1,2,,")
        assert [m for m in caplog.messages if "skipped" in m] == reasons

    def test_fully_defined_run_is_unchanged(self, toy_file, tmp_path, capsys):
        # every sense pair is defined: the report is the one written before
        # undefined sense pairs were skipped
        (tmp_path / "ann.tsv").write_text("i1\tE\ni2\tD\ni3\tF\ni4\tD,E\n")
        (tmp_path / "map.tsv").write_text("cat\tE\ndog\tD\nbird\tF;E\n")
        (tmp_path / "ratings.tsv").write_text(
            "cat\tdog\t3.0\ncat\tbird\t1.0\ndog\tbird\t2.0\ncat\tghost\t2.5\n"
            "bird\tbird\t4.0\ndog\tcat\t0.5\n"
        )
        code = main(
            ["bench", "--graph", toy_file, "--mapping", str(tmp_path / "map.tsv"),
             "--dataset", str(tmp_path / "ratings.tsv"),
             "--annotations", str(tmp_path / "ann.tsv"),
             "--measures", "lin:ic=resnik,damato_ext,jaccard_ext,wupalmer"]
        )
        assert code == 0
        assert capsys.readouterr().out == (
            "measure,n_scored,n_skipped,pearson,spearman\n"
            "lin:ic=resnik,5,1,0.255031,0.288675\n"
            "damato_ext,5,1,-0.255031,-0.288675\n"
            "jaccard_ext,5,1,0.255031,0.288675\n"
            "wupalmer,5,1,0.255031,0.288675\n"
        )

    def test_contract_error_still_fails_the_run(self, tmp_path, capsys):
        graph = tmp_path / "g.tsv"
        graph.write_text(TOY + "E\tsubClassOf\troot\n")
        (tmp_path / "map.tsv").write_text("cat\tE\ndog\tD\n")
        (tmp_path / "ratings.tsv").write_text("cat\tdog\t3.0\n")
        code = main(
            ["bench", "--graph", str(graph), "--mapping", str(tmp_path / "map.tsv"),
             "--dataset", str(tmp_path / "ratings.tsv"), "--measures", "rada"]
        )
        assert code == 2
        assert "redundant" in capsys.readouterr().err

    def test_dataset_kind_validation(self, toy_file, tmp_path, capsys):
        mapping = tmp_path / "map.tsv"
        mapping.write_text("cat\tE\ndog\tD\n")
        dataset = tmp_path / "ratings.tsv"
        dataset.write_text("cat\tdog\t3.0\n")
        code = main(
            ["bench", "--graph", toy_file, "--mapping", str(mapping),
             "--dataset", str(dataset), "--dataset-kind", "mc30",
             "--measures", "rada"]
        )
        assert code == 2


class TestDeterminism:
    """Outputs are byte-identical whatever the interpreter's hash seed."""

    # two roots (a virtual root is inserted), one redundant edge, instances,
    # and weighted relations under three predicates
    GRAPH = (
        "mouse\tsubClassOf\trodent\nrodent\tsubClassOf\tmammal\nmouse\tsubClassOf\tmammal\n"
        "cat\tsubClassOf\tfelid\nfelid\tsubClassOf\tmammal\nlynx\tsubClassOf\tfelid\n"
        "mammal\tsubClassOf\tanimal\nfern\tsubClassOf\tplant\nmoss\tsubClassOf\tplant\n"
        "tom\tisA\tcat\njerry\tisA\tmouse\ncat\thunts\tmouse\t2.5\nlynx\thunts\trodent\t0.5\n"
        "mouse\teats\tfern\t1.5\nrodent\teats\tmoss\t1\ntom\tchases\tjerry\t3\n"
    )

    def run_all(self, tmp_path, seed):
        files = {
            "g.tsv": self.GRAPH,
            "pairs.tsv": "mouse\tcat\nlynx\trodent\nfern\tmouse\nplant\tanimal\n",
            "rel_pairs.tsv": "tom\tjerry\nfern\tlynx\nmoss\tcat\nplant\tmouse\n",
            "weights.tsv": "hunts\t2\neats\t0.5\nsubClassOf\t1.25\n",
            "ann.tsv": TestGroupsimHashSeed.ANNOTATIONS,
            "ipairs.tsv": TestGroupsimHashSeed.PAIRS,
            "map.tsv": "cat\tcat\nmouse\tmouse;rodent\nfern\tfern\nlynx\tlynx\n",
            "rated.tsv": "cat\tmouse\t3\nlynx\tcat\t9\nfern\tmouse\t1\nlynx\tfern\t0.5\n",
        }
        reduced = ["--graph", f"reduced{seed}.tsv"]
        groupsim = ["groupsim", *reduced, "--annotations", "ann.tsv", "--pairs", "ipairs.tsv"]
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        commands = [
            ["preprocess", "--graph", "g.tsv", "--out", f"reduced{seed}.tsv",
             "--report", f"report{seed}.tsv"],
            ["sim", "--graph", f"reduced{seed}.tsv", "--measure", "lin", "--ic", "seco",
             "--pairs", "pairs.tsv", "--out", f"sim{seed}.tsv"],
            ["rel", "--method", "wsp", "--graph", "g.tsv", "--weights", "weights.tsv",
             "--pairs", "rel_pairs.tsv", "--out", f"rel{seed}.tsv"],
            ["ic", *reduced, "--estimator", "resnik:smooth=1", "--annotations", "ann.tsv",
             "--out", f"ic{seed}.tsv"],
            [*groupsim, "--measure", "simgic", "--ic", "resnik", "--out", f"simgic{seed}.tsv"],
            [*groupsim, "--measure", "bma:lin", "--ic", "seco", "--out", f"bma{seed}.tsv"],
            ["abstract", *reduced, "--form", "dice", "--ic", "seco", "--pairs", "pairs.tsv",
             "--out", f"abstract{seed}.tsv"],
            ["bench", *reduced, "--mapping", "map.tsv", "--dataset", "rated.tsv",
             "--measures", "lin:ic=resnik,wupalmer,jaccard_ext", "--annotations", "ann.tsv",
             "--out", f"bench{seed}.csv"],
        ]
        src = Path(smx.__file__).resolve().parent.parent
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": str(seed)}
        for argv in commands:
            subprocess.run(
                [sys.executable, "-m", "smx.cli", *argv], cwd=tmp_path, env=env,
                capture_output=True, check=True,
            )
        names = ("reduced", "report", "sim", "rel", "ic", "simgic", "bma", "abstract", "bench")
        return {name: next(tmp_path.glob(f"{name}{seed}.*")).read_bytes() for name in names}

    def test_outputs_do_not_depend_on_hash_seed(self, tmp_path):
        first = self.run_all(tmp_path, 0)
        assert first == self.run_all(tmp_path, 1)
        assert b"mouse\tsubClassOf\tmammal" in first["report"]
        assert b"inserted_root\t__root__" in first["report"]
        assert first["sim"].count(b"\n") == first["rel"].count(b"\n") == 4
        assert first["simgic"].count(b"\n") == first["bma"].count(b"\n") == 6
        assert first["abstract"].count(b"\n") == 4 and first["bench"].count(b"\n") == 4


class TestGroupsimHashSeed:
    """Extensional groupwise output is byte-identical whatever the
    interpreter's hash seed, which orders sets of instance names."""

    ANNOTATIONS = (
        "g1\tmouse,cat\ng2\tlynx\ng3\trodent,fern\ng4\tcat\ng5\tmoss,mouse\n"
        "g6\tfelid,plant\ng7\tmouse\ng8\tlynx,fern\n"
    )
    PAIRS = "g1\tg2\ng1\tg5\ng3\tg8\ng4\tg6\ng2\tg8\ng7\tg1\n"

    def run(self, tmp_path, measure, seed):
        files = {"g.tsv": TestDeterminism.GRAPH, "ann.tsv": self.ANNOTATIONS,
                 "pairs.tsv": self.PAIRS}
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        src = Path(smx.__file__).resolve().parent.parent
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": str(seed)}
        return subprocess.run(
            [sys.executable, "-m", "smx.cli", "groupsim", "--measure", measure,
             "--graph", "g.tsv", "--annotations", "ann.tsv", "--pairs", "pairs.tsv"],
            cwd=tmp_path, env=env, capture_output=True, check=True,
        ).stdout

    @pytest.mark.parametrize("measure", ["avg:jaccard_ext", "max:damato_ext"])
    def test_output_does_not_depend_on_hash_seed(self, tmp_path, measure):
        first = self.run(tmp_path, measure, 0)
        assert first == self.run(tmp_path, measure, 1)
        values = [float(line.split(b"\t")[2]) for line in first.splitlines()]
        assert len(values) == 6 and any(0.0 < x < 1.0 for x in values)


class TestDispatch:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_closed_stdout_exits_quietly(self, tmp_path):
        """A reader that stops early (smx ... | head -1) ends the command
        with status 141, as SIGPIPE would, and no traceback."""
        graph = tmp_path / "g.tsv"
        graph.write_text(synth_graph_lines(10_000, random.Random(3)))
        src = Path(smx.__file__).resolve().parent.parent
        with subprocess.Popen(
            [sys.executable, "-m", "smx.cli", "ic", "--estimator", "seco", "--graph", str(graph)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(src)},
        ) as proc:
            assert proc.stdout.readline()
            proc.stdout.close()
            assert proc.wait(timeout=60) == 141
            err = proc.stderr.read().decode()
        assert "Traceback" not in err and "Exception ignored" not in err

    def test_no_diagnostics_on_stdout(self, tmp_path, capsys):
        graph = tmp_path / "g.tsv"
        graph.write_text("A\tsubClassOf\tB\nB\tsubClassOf\tA\n")
        code = main(["preprocess", "--graph", str(graph)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "cycle" in captured.err


def chain_inputs(directory, graph_text, size):
    """Write the inputs of a preprocess, sim, groupsim, bench and rel chain
    over one taxonomy, with size pairs, size instances and a relational ring
    of size nodes with chords; return the argv of each command, the later
    ones reading the preprocessed graph."""
    rng = random.Random(11)
    directory.mkdir()
    labels = sorted({x for line in graph_text.splitlines() for x in line.split("\t")[::2]})
    pairs = lambda names: "".join(
        f"{a}\t{b}\n" for a, b in (rng.sample(names, 2) for _ in range(size))
    )
    instances = [f"i{k}" for k in range(size)]
    files = {
        "graph.tsv": graph_text,
        "pairs.tsv": pairs(labels),
        "ann.tsv": "".join(f"{i}\t{','.join(rng.sample(labels, 2))}\n" for i in instances),
        "ipairs.tsv": pairs(instances),
        "mapping.tsv": "".join(f"w{k}\t{label}\n" for k, label in enumerate(labels[:size])),
        "rated.tsv": "".join(f"w{k}\tw{k + 1}\t{k}\n" for k in range(size - 1)),
        "relation.tsv": "".join(
            f"r{k}\tlinks\tr{(k + 1) % size}\nr{k}\tlinks\tr{(7 * k + 3) % size}\n"
            for k in range(size)
        ),
        "rpairs.tsv": pairs([f"r{k}" for k in range(size)]),
    }
    for name, text in files.items():
        (directory / name).write_text(text)
    path = lambda name: str(directory / name)
    reduced = ["--graph", path("reduced.tsv")]
    return {
        "preprocess": ["preprocess", "--graph", path("graph.tsv"), "--out", path("reduced.tsv"),
                       "--report", path("report.tsv")],
        "sim": ["sim", "--measure", "lin", "--ic", "seco", *reduced, "--pairs", path("pairs.tsv"),
                "--out", path("sim.tsv")],
        "groupsim": ["groupsim", "--measure", "bma:lin", *reduced, "--annotations",
                     path("ann.tsv"), "--pairs", path("ipairs.tsv"), "--out", path("groupsim.tsv")],
        "bench": ["bench", *reduced, "--mapping", path("mapping.tsv"), "--dataset",
                  path("rated.tsv"), "--measures", "lin:ic=seco,wupalmer,rada",
                  "--out", path("bench.csv")],
        "rel-commute": ["rel", "--method", "commute", "--graph", path("relation.tsv"),
                        "--pairs", path("rpairs.tsv"), "--out", path("commute.tsv")],
        "rel-simrank": ["rel", "--method", "simrank", "--graph", path("relation.tsv"),
                        "--pairs", path("rpairs.tsv"), "--out", path("simrank.tsv")],
    }


class TestCollectorPause:
    """main runs a command with the cyclic collector paused and gives an
    in-process caller its setting back."""

    @pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
    def collector(self, request):
        was = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was else gc.disable)()

    @pytest.mark.parametrize("code", [0, 1, 2])
    def test_state_restored_after_exit(
        self, collector, toy_file, pairs_file, tmp_path, monkeypatch, capsys, code
    ):
        seen = []
        parse = smx.ingest.parse_graph

        def spy(source):
            seen.append(gc.isenabled())
            return parse(source)

        monkeypatch.setattr(smx.ingest, "parse_graph", spy)
        graph = toy_file if code != 2 else str(tmp_path / "missing.tsv")
        measure = "lin" if code != 1 else "nosuch"
        argv = ["sim", "--measure", measure, "--graph", graph, "--pairs", pairs_file]
        assert main(argv) == code
        assert seen == [False]
        assert gc.isenabled() == collector

    @pytest.mark.parametrize(
        "command", ["preprocess", "sim", "groupsim", "bench", "rel-commute", "rel-simrank"]
    )
    def test_cyclic_garbage_does_not_grow_with_the_input(self, tmp_path, capsys, command):
        def garbage(argvs):
            gc.collect()
            was = gc.isenabled()
            gc.disable()
            try:
                assert main(argvs[command]) == 0, capsys.readouterr().err
                return gc.collect()
            finally:
                if was:
                    gc.enable()

        small = chain_inputs(tmp_path / "toy", TOY, 7)
        large = chain_inputs(tmp_path / "dag", synth_graph_lines(2_000, random.Random(7)), 300)
        for argvs in (small, large):
            if command != "preprocess":
                assert main(argvs["preprocess"]) == 0
        garbage(small)  # the first run fills import-time caches
        assert garbage(large) == garbage(small)


class TestFailedCommandOutput:
    """A command that fails on its second pair writes no --out file."""

    @pytest.fixture()
    def argvs(self, toy_file, tmp_path):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("E\tD\nE\tghost\n")
        ann = tmp_path / "ann.tsv"
        ann.write_text("E\tE\nD\tD\n")
        common = ["--graph", toy_file, "--pairs", str(pairs)]
        return {
            "sim": ["sim", "--measure", "lin", *common],
            "groupsim": ["groupsim", "--measure", "simui", "--annotations", str(ann), *common],
            "abstract": ["abstract", "--form", "dice", "--ic", "depth_raw", *common],
            "rel": ["rel", "--method", "wsp", *common],
        }

    @pytest.mark.parametrize("command", ["sim", "groupsim", "abstract", "rel"])
    @pytest.mark.parametrize("existing", [None, "old results\n"])
    def test_out_is_not_written(self, argvs, tmp_path, capsys, command, existing):
        out = tmp_path / "out.tsv"
        if existing is not None:
            out.write_text(existing)
        assert main([*argvs[command], "--out", str(out)]) == 2
        assert "ghost" in capsys.readouterr().err
        if existing is None:
            assert not out.exists()
        else:
            assert out.read_text() == existing


class TestUnknownPairIdentifier:
    """A --pairs line naming an unknown class, instance or node is one error
    line naming the file and line, status 2, and --out is left as it was."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["sim", "--measure", "lin", "--ic", "seco"], "unknown class identifier 'ghost'"),
            (["abstract", "--form", "dice", "--ic", "seco"], "unknown class identifier 'ghost'"),
            (["groupsim", "--measure", "bma:lin", "--ic", "seco", "--annotations", "ann.tsv"],
             "unknown instance 'ghost'"),
            (["rel", "--method", "wsp"], "unknown node identifier 'ghost'"),
        ],
        ids=["sim", "abstract", "groupsim", "rel"],
    )
    @pytest.mark.parametrize("existing", [None, "old results\n"], ids=["no-out", "old-out"])
    def test_error_names_file_and_line(
        self, toy_file, tmp_path, capsys, monkeypatch, argv, message, existing
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "ann.tsv").write_text("E\tE\nD\tD\n")
        # E and D are classes of the toy graph and instances of ann.tsv
        (tmp_path / "p2.tsv").write_text("E\tD\nE\tghost\n")
        out = tmp_path / "out.tsv"
        if existing is not None:
            out.write_text(existing)
        code = main([*argv, "--graph", toy_file, "--pairs", "p2.tsv", "--out", "out.tsv"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == f"error: p2.tsv: line 2: {message}\n"
        assert (out.read_text() if out.exists() else None) == existing

    def test_a_malformed_later_line_is_named_first(self, toy_file, tmp_path, capsys):
        pairs = tmp_path / "p.tsv"
        pairs.write_text("E\tD\nE\tghost\nlonely\n")
        code = main(["sim", "--measure", "lin", "--graph", toy_file, "--pairs", str(pairs)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {pairs}: line 3: expected two tab-separated identifiers\n"
        )


class TestBadAnnotations:
    """A given --annotations file is read even where no measure needs
    usage: a missing file or an unknown class is one error line, status 2,
    and --out is left as it was."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["sim", "--measure", "lin", "--pairs", "pairs.tsv"],
            ["ic", "--estimator", "seco"],
            ["abstract", "--form", "dice", "--ic", "seco", "--pairs", "pairs.tsv"],
            ["bench", "--mapping", "map.tsv", "--dataset", "ratings.tsv", "--measures", "lin"],
        ],
        ids=lambda argv: argv[0],
    )
    @pytest.mark.parametrize(
        "annotations, message",
        [
            ("missing.tsv", "error: cannot read missing.tsv: "),
            ("ghost.tsv", "error: ghost.tsv: line 2: unknown class identifier 'NOPE'"),
        ],
        ids=["missing-file", "unknown-class"],
    )
    @pytest.mark.parametrize("existing", [None, "old results\n"], ids=["no-out", "old-out"])
    def test_error_and_out_untouched(
        self, toy_file, tmp_path, capsys, monkeypatch, argv, annotations, message, existing
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "pairs.tsv").write_text("E\tD\n")
        (tmp_path / "ghost.tsv").write_text("g1\tC\ng2\tNOPE\n")
        (tmp_path / "map.tsv").write_text("cat\tE\ndog\tD\nbird\tF\n")
        (tmp_path / "ratings.tsv").write_text("cat\tdog\t3.0\ncat\tbird\t1.0\ndog\tbird\t2.0\n")
        out = tmp_path / "out.tsv"
        if existing is not None:
            out.write_text(existing)
        code = main([*argv, "--graph", toy_file, "--annotations", annotations, "--out", "out.tsv"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(message), lines
        if existing is None:
            assert not out.exists()
        else:
            assert out.read_text() == existing


class TestFuzzedInputs:
    """Through the CLI every bad input is exit 2 and one error line."""

    @settings(max_examples=60, deadline=None)
    @given(data=fuzz_tsv(), role=st.sampled_from(["graph", "pairs", "weights"]))
    # a carriage return inside a rejected weight token
    @example(data=b"A\tA\tA\t1e400\r \n", role="graph")
    def test_exit_zero_or_one_error_line(self, tmp_path_factory, data, role):
        tmp = tmp_path_factory.mktemp("cli-fuzz")
        files = {"graph": "A\tsubClassOf\troot\nB\tsubClassOf\troot\nA\tpartOf\tB\n",
                 "pairs": "A\tB\n", "weights": "partOf\t2\n"}
        paths = {}
        for name, text in files.items():
            paths[name] = tmp / f"{name}.tsv"
            paths[name].write_bytes(data if name == role else text.encode())
        inputs = ["--graph", str(paths["graph"]), "--pairs", str(paths["pairs"])]
        for argv in (
            ["preprocess", "--graph", str(paths["graph"])],
            ["sim", "--measure", "wang_dca", *inputs],
            ["rel", "--method", "wsp", "--weights", str(paths["weights"]), *inputs],
        ):
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
            assert code in (0, 2)
            if code == 2:
                lines = err.getvalue().splitlines()
                assert len(lines) == 1 and lines[0].startswith("error: "), lines
