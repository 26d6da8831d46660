import io
import random

import pytest
from hypothesis import example, given, settings, strategies as st

import smx
from smx.errors import ClassificationError, ParseError, ResolutionError, SmxError, UnknownNodeError

from helpers import fuzz_tsv, graph_from_pairs, random_taxonomy, record_graph, triple_tsv


def stream(text):
    return io.BytesIO(text.encode("utf-8"))


class TestParseGraph:
    def test_toy_counts(self, toy_graph):
        assert len(toy_graph.classes) == 7
        assert len(toy_graph.instances) == 0
        assert len(toy_graph.edges) == 6

    def test_empty_file_rejected(self):
        with pytest.raises(ParseError):
            smx.parse_graph(stream(""))

    def test_weighted_edge(self):
        g = smx.parse_graph(stream("E\tsubClassOf\tC\t0.5\nC\tsubClassOf\troot\n"))
        e, c = g.node("E"), g.node("C")
        assert (e, "subClassOf", c) in g.edges
        assert g.edge_weights[(e, "subClassOf", c)] == 0.5
        # unweighted lines default to 1.0 once any weight appears
        assert g.edge_weights[(c, "subClassOf", g.node("root"))] == 1.0

    def test_field_count_error_carries_line_number(self):
        with pytest.raises(ParseError, match="line 2"):
            smx.parse_graph(stream("A\tsubClassOf\troot\nB\tsubClassOf\n"))

    def test_class_instance_clash(self):
        text = "A\tsubClassOf\troot\ng1\tisA\tA\ng1\tsubClassOf\troot\n"
        with pytest.raises(ClassificationError, match="g1"):
            smx.parse_graph(stream(text))

    def test_reserved_identifier_rejected(self):
        with pytest.raises(ParseError):
            smx.parse_graph(stream("__root__\tsubClassOf\tA\n"))
        with pytest.raises(ParseError, match="reserved predicate"):
            smx.parse_graph(stream("a\t__rel__\tb\nA\tsubClassOf\troot\n"))

    def test_negative_weight_rejected(self):
        with pytest.raises(ParseError):
            smx.parse_graph(stream("A\tsubClassOf\troot\t-1\n"))

    def test_free_predicate_endpoints_become_instances(self):
        g = smx.parse_graph(
            stream("Cat\tsubClassOf\tAnimal\nCat\thunts\tmouse1\n")
        )
        assert g.node("mouse1") in g.instances
        assert g.node("Cat") in g.classes

    def test_isa_classification(self):
        g = smx.parse_graph(stream("A\tsubClassOf\troot\ng1\tisA\tA\n"))
        assert g.node("g1") in g.instances
        assert g.node("A") in g.classes

    def test_comments_and_blanks_ignored(self):
        g = smx.parse_graph(stream("# header\n\nA\tsubClassOf\troot\n"))
        assert len(g.edges) == 1

    def test_classification_independent_of_line_order(self):
        a = smx.parse_graph(stream("g1\tisA\tA\nA\tsubClassOf\troot\n"))
        b = smx.parse_graph(stream("A\tsubClassOf\troot\ng1\tisA\tA\n"))
        assert {a.label(i) for i in a.instances} == {b.label(i) for i in b.instances}
        assert {a.label(i) for i in a.classes} == {b.label(i) for i in b.classes}


def _graph_outcome(parse, source):
    """The error's class and message, or every field of the parsed graph."""
    try:
        g = parse(source)
    except SmxError as exc:
        return type(exc), str(exc)
    return g._labels, g.classes, g.instances, g.predicates, g.edges, g.edge_weights


class TestParseOracle:
    """parse_graph matches the record-based parser it replaced."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.one_of(fuzz_tsv(), triple_tsv()))
    @example(data=b"A\tsubClassOf\troot\t1\nA\tsubClassOf\troot\n")
    @example(data=b"A\tsubClassOf\troot\t1\nA\tsubClassOf\troot\t1.0\ni1\tisA\tA\t2\n")
    @example(data=b"A\tsubClassOf\troot\ni1\tisA\tA\nA\tisA\troot\n")
    @example(data=b"i1\thunts\ti2\nA\tsubClassOf\troot\ni2\tisA\tA\n")
    def test_same_error_or_same_graph(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("oracle") / "g.tsv"
        path.write_bytes(data)
        for source in (data, str(path)):
            assert _graph_outcome(smx.parse_graph, source) == _graph_outcome(record_graph, source)


class TestRoundTrip:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_serialize_then_parse_is_isomorphic(self, seed):
        _, pairs = random_taxonomy(random.Random(seed), max_nodes=30)
        g = graph_from_pairs(pairs)
        again = smx.parse_graph(stream(smx.serialize_graph(g)))
        as_labels = lambda graph: {
            (graph.label(s), p, graph.label(o)) for s, p, o in graph.edges
        }
        assert as_labels(again) == as_labels(g)
        assert {again.label(c) for c in again.classes} == {
            g.label(c) for c in g.classes
        }

    def test_weighted_round_trip(self):
        text = "A\tsubClassOf\troot\t2.5\nB\tsubClassOf\troot\t1\nC\tsubClassOf\troot\t0.001\n"
        g = smx.parse_graph(stream(text))
        # a weight whose short form parses back exactly is written in it
        assert smx.serialize_graph(g) == text
        again = smx.parse_graph(stream(smx.serialize_graph(g)))
        key = (again.node("A"), "subClassOf", again.node("root"))
        assert again.edge_weights[key] == 2.5

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, allow_infinity=False), min_size=1, max_size=8))
    @example([5e-324, 0.1 + 0.2, 1.7976931348623157e308, 12345678.9, 0.123456789])
    def test_every_weight_parses_back_to_the_same_float(self, weights):
        text = "".join(f"n{i}\tlinks\tn{i + 1}\t{w!r}\n" for i, w in enumerate(weights))
        g = smx.parse_graph(stream(text))
        assert smx.parse_graph(stream(smx.serialize_graph(g))).edge_weights == g.edge_weights


class TestAnnotations:
    def test_basic(self, toy_graph):
        ann = smx.parse_annotations(stream("g1\tE,C\n"), toy_graph)
        assert ann.assignments["g1"] == frozenset(
            (toy_graph.node("E"), toy_graph.node("C"))
        )

    def test_unknown_class_named_in_error(self, toy_graph):
        with pytest.raises(ResolutionError, match="ZZZ"):
            smx.parse_annotations(stream("g1\tZZZ\n"), toy_graph)

    def test_duplicate_instance_merges_with_warning(self, toy_graph):
        ann = smx.parse_annotations(stream("g1\tE\ng1\tF\n"), toy_graph)
        assert ann.assignments["g1"] == frozenset(
            (toy_graph.node("E"), toy_graph.node("F"))
        )
        assert ann.warnings == 1

    def test_empty_class_list_rejected(self, toy_graph):
        with pytest.raises(ParseError):
            smx.parse_annotations(stream("g1\t\n"), toy_graph)


class TestRatedPairs:
    def test_order_preserved(self):
        ds = smx.parse_rated_pairs(stream("a\tb\t3.5\nc\td\t1\n"))
        assert ds.pairs[0] == ("a", "b", 3.5)
        assert ds.pairs[1] == ("c", "d", 1.0)
        assert ds.scale == (1.0, 3.5)

    def test_non_numeric_rating(self):
        with pytest.raises(ParseError, match="line 2"):
            smx.parse_rated_pairs(stream("a\tb\t1\nc\td\thigh\n"))

    def test_empty_rejected(self):
        with pytest.raises(ParseError):
            smx.parse_rated_pairs(stream("# nothing\n"))


class TestWordMapping:
    def test_single_and_multi_sense(self, toy_graph):
        m = smx.parse_word_mapping(stream("car\tE\nmouse\tD;F\n"), toy_graph)
        assert m.words["car"] == frozenset((toy_graph.node("E"),))
        assert m.words["mouse"] == frozenset(
            (toy_graph.node("D"), toy_graph.node("F"))
        )

    def test_missing_tab(self, toy_graph):
        with pytest.raises(ParseError):
            smx.parse_word_mapping(stream("justaword\n"), toy_graph)

    def test_duplicate_word_unions_with_warning(self, toy_graph):
        m = smx.parse_word_mapping(stream("w\tE\nw\tF\n"), toy_graph)
        assert m.words["w"] == frozenset((toy_graph.node("E"), toy_graph.node("F")))
        assert m.warnings == 1

    def test_unresolvable_class(self, toy_graph):
        with pytest.raises(ResolutionError, match="Nope"):
            smx.parse_word_mapping(stream("w\tNope\n"), toy_graph)


class TestPairsAndWeights:
    def test_pairs_keep_two_columns_and_ignore_the_rest(self):
        pairs = smx.ingest.resolve_pairs(stream("# header\na\t b\textra\tcols\nc\td\n"), str)
        assert pairs == [("a", "b", "a", "b"), ("c", "d", "c", "d")]

    def test_pairs_need_two_columns(self):
        with pytest.raises(ParseError, match="line 1"):
            smx.ingest.resolve_pairs(stream("lonely\n"), str)

    @pytest.mark.parametrize("line", ["B\t", "\tB", " \tB\textra"])
    def test_pairs_reject_an_empty_identifier(self, line):
        with pytest.raises(ParseError, match="^line 2: empty element identifier$"):
            smx.ingest.resolve_pairs(stream(f"a\tb\n{line}\n"), str)

    def test_resolved_pairs_name_the_line_of_an_unknown_identifier(self, tmp_path):
        known = {"a": 1, "b": 2}

        def resolve(label):
            if label not in known:
                raise UnknownNodeError(f"unknown class identifier {label!r}")
            return known[label]

        assert smx.ingest.resolve_pairs(stream("a\tb\n#\nb\ta\n"), resolve) == [
            ("a", "b", 1, 2), ("b", "a", 2, 1)
        ]
        with pytest.raises(ResolutionError, match="^line 2: unknown class identifier 'ghost'$"):
            smx.ingest.resolve_pairs(stream("a\tb\nb\tghost\n"), resolve)
        path = tmp_path / "p.tsv"
        path.write_text("a\tb\nghost\tb\n")
        with pytest.raises(ResolutionError, match=f"^{path}: line 2: unknown class"):
            smx.ingest.resolve_pairs(str(path), resolve)
        # every line parses before the first identifier resolves
        with pytest.raises(ParseError, match="^line 3: expected two tab-separated"):
            smx.ingest.resolve_pairs(stream("a\tb\nghost\tb\nlonely\n"), resolve)

    def test_weight_scheme_with_default(self):
        scheme = smx.parse_weight_scheme(stream("hunts\t5\n*\t2\n"))
        assert scheme.cost("hunts") == 5.0
        assert scheme.cost("other") == 2.0

    def test_weight_scheme_rejects_non_numbers(self):
        with pytest.raises(ParseError, match="line 1: weight 'heavy' is not a number"):
            smx.parse_weight_scheme(stream("hunts\theavy\n"))


BOM_GRAPH = "\ufeffA\tsubClassOf\troot\nA2\tsubClassOf\tA\n"


class TestByteOrderMark:
    @pytest.mark.parametrize("kind", ["path", "bytes", "binary-stream", "text-stream"])
    def test_leading_bom_is_dropped(self, tmp_path, kind):
        path = tmp_path / "g.tsv"
        path.write_text(BOM_GRAPH, encoding="utf-8")
        source = {
            "path": str(path),
            "bytes": BOM_GRAPH.encode(),
            "binary-stream": stream(BOM_GRAPH),
            "text-stream": io.StringIO(BOM_GRAPH),
        }[kind]
        g = smx.parse_graph(source)
        assert sorted(g.label(i) for i in range(g.n_nodes)) == ["A", "A2", "root"]
        assert smx.taxonomic_reduction(g).inserted_root is None


def _read_outcome(source, path):
    """The triples read from source, or the ParseError's line and message
    without the path prefix."""
    try:
        return smx.ingest.read_triples(source)
    except ParseError as exc:
        return exc.line, str(exc).removeprefix(f"{path}: ")


class TestLineEnds:
    """LF ends a line for every source kind, one CR before it is dropped, and
    a lone CR is content."""

    SOURCES = ("path", "bytes", "binary-stream", "text-stream")

    def _outcomes(self, data, path):
        path.write_bytes(data)
        text = data.decode("utf-8", "surrogateescape")
        sources = (str(path), data, io.BytesIO(data), io.StringIO(text))
        return [_read_outcome(source, path) for source in sources]

    def test_lone_cr_does_not_end_a_line(self, tmp_path):
        data = b"A\tsubClassOf\troot\rB\tsubClassOf\troot\r\n"
        outcomes = self._outcomes(data, tmp_path / "g.tsv")
        assert outcomes == [(1, "line 1: expected 3 or 4 tab-separated fields, got 5")] * 4

    @settings(max_examples=100, deadline=None)
    @given(data=fuzz_tsv())
    def test_every_source_kind_reads_the_same(self, tmp_path_factory, data):
        outcomes = self._outcomes(data, tmp_path_factory.mktemp("ends") / "in.tsv")
        assert outcomes == [outcomes[0]] * 4, dict(zip(self.SOURCES, outcomes))


def _toy_parsers(toy_graph):
    """Every path-reading parser, each with one input whose line 2 is bad."""
    return [
        (smx.parse_graph, "A\tsubClassOf\troot\nB\tsubClassOf\n"),
        (lambda src: smx.ingest.resolve_pairs(src, str), "E\tD\nlonely\n"),
        (smx.parse_weight_scheme, "hunts\t5\nhunts\theavy\n"),
        (smx.parse_rated_pairs, "a\tb\t1\nc\td\thigh\n"),
        (lambda src: smx.parse_annotations(src, toy_graph), "g1\tE\ng2\n"),
        (lambda src: smx.parse_word_mapping(src, toy_graph), "w\tE\nv\n"),
    ]


class TestErrorsNameTheirFile:
    def test_line_numbered_errors_start_with_the_path(self, toy_graph, tmp_path):
        for i, (parse, text) in enumerate(_toy_parsers(toy_graph)):
            path = tmp_path / f"bad{i}.tsv"
            path.write_text(text)
            with pytest.raises(ParseError) as info:
                parse(str(path))
            assert str(info.value).startswith(f"{path}: line 2: ")
            with pytest.raises(ParseError) as info:
                parse(stream(text))
            assert str(info.value).startswith("line 2: ")

    @pytest.mark.parametrize("parse", [smx.parse_annotations, smx.parse_word_mapping])
    def test_an_unknown_class_names_its_file_and_line(self, toy_graph, tmp_path, parse):
        path = tmp_path / "ghost.tsv"
        path.write_text("g1\tC\ng2\tNOPE\n")
        with pytest.raises(ResolutionError) as info:
            parse(str(path), toy_graph)
        assert str(info.value) == f"{path}: line 2: unknown class identifier 'NOPE'"


class TestFuzz:
    @settings(max_examples=150, deadline=None)
    @given(data=fuzz_tsv())
    def test_every_failure_is_an_smx_error(self, toy_graph, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("fuzz") / "in.tsv"
        path.write_bytes(data)
        for parse, _ in _toy_parsers(toy_graph):
            for source in (data, str(path)):
                try:
                    parse(source)
                except SmxError:
                    pass
