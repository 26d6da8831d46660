"""The scripts that guard the project's values and measure its speed:
value_digest.py against its pinned block hashes, the pairing and summary
code of bench_record.py, driven by a fake runner, and bench_compare.py on
one paired record."""

import json

import pytest

import bench_compare
import bench_record
import value_digest


def test_value_digest_blocks_match_their_pinned_hashes():
    # the hashes are pinned to one CPython and libm (see value_digest.py);
    # a change that moves values on purpose reruns it with --record
    pinned = json.loads(value_digest.HASHES.read_text())
    got = value_digest.block_hashes(value_digest.blocks())
    blocks = pinned["blocks"]
    differ = [name for name in {**blocks, **got} if blocks.get(name) != got.get(name)]
    assert not differ, f"blocks that differ from those pinned on {pinned['pinned_to']}: {differ}"


def result(**values):
    """A perfbench result line holding the given end-to-end metric values."""
    return {"correct": True, "attempted": 10, "failed": 1,
            "metrics": {name: {"value": value, "unit": "u"} for name, value in values.items()}}


class FakeRunner:
    """Answers run(side, workload, trace) from a list of results per
    (side, workload, trace), in call order, and logs the calls."""

    def __init__(self, answers):
        self.answers = {key: list(values) for key, values in answers.items()}
        self.calls = []

    def __call__(self, side, workload, trace):
        self.calls.append((side, workload, trace))
        return self.answers[side, workload, trace].pop(0)


class TestBenchRecord:
    def test_the_parent_runs_first_in_odd_pairs(self):
        runner = FakeRunner({
            (side, w, trace): [result()] * 3
            for side in ("parent", "change") for w in ("a", "b") for trace in (0, 1)
        })
        runs = bench_record.pair_runs(runner, ["a", "b"], 3)
        pair = lambda first, second, w: [(first, w, 0), (second, w, 0), ("change", w, 1)]
        odd = pair("parent", "change", "a") + pair("parent", "change", "b")
        even = pair("change", "parent", "a") + pair("change", "parent", "b")
        assert runner.calls == odd + even + odd
        assert {key: len(results) for key, results in runs.items()} == {
            (w, side): 3 for w in ("a", "b") for side in ("parent", "change", "traced")
        }

    def test_medians_quartiles_and_wins_in_each_direction(self):
        # ops_per_s is better higher, op_p50_us lower; pair 2 ties on both
        parent = [result(ops_per_s=v, op_p50_us=v) for v in (10.0, 20.0, 30.0, 40.0, 50.0)]
        change = [result(ops_per_s=v, op_p50_us=v) for v in (11.0, 20.0, 31.0, 35.0, 60.0)]
        got = bench_record.summary(change, parent, {"ops_per_s": "higher", "op_p50_us": "lower"})
        assert got["correct"] and (got["attempted"], got["failed"]) == (50, 5)
        ops, p50 = got["metrics"]["ops_per_s"], got["metrics"]["op_p50_us"]
        # inclusive quartiles of 11, 20, 31, 35, 60
        assert (ops["value"], ops["q1"], ops["q3"]) == (31.0, 20.0, 35.0)
        assert ops["runs"] == [11.0, 20.0, 31.0, 35.0, 60.0] and ops["unit"] == "u"
        # higher wins pairs 1, 3 and 5, lower wins pair 4
        assert (ops["wins"], p50["wins"]) == (3, 1)
        assert "wins" not in bench_record.summary(parent)["metrics"]["ops_per_s"]
        even = bench_record.summary([result(ops_per_s=v) for v in (1.0, 2.0, 3.0, 4.0)])
        assert even["metrics"]["ops_per_s"] | {"runs": None} == {
            "value": 2.5, "q1": 1.75, "q3": 3.25, "runs": None, "unit": "u",
        }

    def test_a_rerun_replaces_only_the_workloads_it_ran(self, tmp_path):
        out = tmp_path / "BENCH_1.json"
        bench_record.write_record(out, {"number": 1, "machine": "m1"}, {"a": "a1", "b": "b1"})
        bench_record.write_record(out, {"number": 1, "machine": "m2"}, {"b": "b2"})
        record = json.loads(out.read_text())
        assert record == {"number": 1, "machine": "m2", "workloads": {"a": "a1", "b": "b2"}}


class TestBenchCompare:
    def test_one_paired_record_prints_parent_change_and_wins(self, tmp_path, capsys):
        side = lambda **values: {"metrics": {
            name: {"value": value, "wins": 4} for name, value in values.items()
        }}
        record = {"workloads": {
            "groups-skewed": {
                "pairs": 5,
                "parent_end_to_end": side(ops_per_s=100.0, peak_rss_mb=200.0),
                "end_to_end": side(ops_per_s=110.0, peak_rss_mb=203.0),
            },
            # a workload of an older record, without paired runs, is skipped
            "relate": {"end_to_end": side(ops_per_s=1.0)},
        }}
        path = tmp_path / "BENCH_1.json"
        path.write_text(json.dumps(record))
        assert bench_compare.main([str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == ["workload", "metric", "parent", "change", "change%", "wins"]
        # in BENCHMARK.json's metric order
        assert [line.split() for line in lines[1:]] == [
            ["groups-skewed", "ops_per_s", "100", "110", "+10.0%", "4/5"],
            ["groups-skewed", "peak_rss_mb", "200", "203", "+1.5%", "4/5"],
        ]

    def test_one_record_without_paired_runs_is_refused(self, tmp_path, capsys):
        path = tmp_path / "BENCH_1.json"
        path.write_text(json.dumps({"workloads": {"relate": {"end_to_end": {"metrics": {}}}}}))
        with pytest.raises(SystemExit) as caught:
            bench_compare.main([str(path)])
        assert caught.value.code == 2
        assert "paired runs" in capsys.readouterr().err
