import io
import math
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

import smx
from smx.errors import ParseError, UndefinedCorrelationError

def stream(text):
    return io.BytesIO(text.encode("utf-8"))


class TestCorrelations:
    def test_pearson_affine_invariance(self):
        xs = [1.0, 2.0, 5.0, 7.0]
        assert smx.pearson(xs, [2 * x + 1 for x in xs]) == pytest.approx(1.0)

    def test_pearson_negation(self):
        xs = [1.0, 2.0, 5.0]
        assert smx.pearson(xs, [-x for x in xs]) == pytest.approx(-1.0)

    def test_pearson_hand_value(self):
        assert smx.pearson([1, 2, 3], [1, 3, 2]) == pytest.approx(0.5)

    def test_pearson_symmetry(self):
        xs, ys = [1, 2, 3, 8], [4, 1, 5, 2]
        assert smx.pearson(xs, ys) == pytest.approx(smx.pearson(ys, xs))

    def test_spearman_monotone_transform(self):
        xs = [0.5, 1.5, 2.5, 9.0]
        assert smx.spearman(xs, [math.exp(x) for x in xs]) == pytest.approx(1.0)

    def test_spearman_reversal(self):
        xs = [1, 2, 3, 4]
        assert smx.spearman(xs, list(reversed(xs))) == pytest.approx(-1.0)

    def test_spearman_hand_value(self):
        assert smx.spearman([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8)

    def test_spearman_average_ranks_for_ties(self):
        assert smx.spearman([1, 1, 2], [1, 2, 3]) == pytest.approx(
            smx.pearson([1.5, 1.5, 3], [1, 2, 3])
        )

    def test_pearson_at_the_edges_of_float_range(self):
        # the sums of products would overflow or underflow unscaled
        assert smx.pearson([1e300, 2e300, 3e300], [1, 2, 3]) == pytest.approx(1.0)
        assert smx.pearson([1e200, -1e200, 0], [1, 2, 3]) == pytest.approx(-0.5)
        assert smx.pearson([1e-200, 2e-200, 3e-200], [1, 2, 3]) == pytest.approx(1.0)

    @settings(max_examples=200, deadline=None)
    @given(
        xs=st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=12),
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(-900, 900),
    )
    def test_pearson_invariant_under_power_of_two_scaling(self, xs, seed, k):
        rng = random.Random(seed)
        ys = [rng.uniform(-5, 5) for _ in xs]
        scaled = [math.ldexp(x, k) for x in xs]
        assume(all(x == 0 or abs(x) >= 2.0**-1022 for x in xs + scaled))
        assume(all(math.isfinite(x) for x in scaled))
        try:
            want = smx.pearson(xs, ys)
        except UndefinedCorrelationError:
            with pytest.raises(UndefinedCorrelationError):
                smx.pearson(scaled, ys)
        else:
            assert smx.pearson(scaled, ys) == want

    def test_constant_series_undefined(self):
        with pytest.raises(UndefinedCorrelationError):
            smx.pearson([1, 1, 1], [1, 2, 3])
        with pytest.raises(UndefinedCorrelationError):
            smx.pearson([1], [2])


class TestDatasetLoading:
    def test_known_cardinalities_validated(self):
        for kind, count in smx.KNOWN_DATASETS.items():
            text = "".join(f"w{i}a\tw{i}b\t{i % 7}\n" for i in range(count))
            ds = smx.load_rated_pairs(stream(text), kind=kind)
            assert len(ds) == count

    def test_wrong_cardinality_rejected(self):
        text = "a\tb\t1\nc\td\t2\n"
        with pytest.raises(ParseError, match="30"):
            smx.load_rated_pairs(stream(text), kind="mc30")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ParseError):
            smx.load_rated_pairs(stream("a\tb\t1\n"), kind="nope")


class TestScorePairs:
    def test_singleton_mapping_uses_plain_pairwise(self, toy, toy_graph, toy_seco):
        dataset = smx.parse_rated_pairs(stream("x\ty\t3\n"))
        mapping = smx.parse_word_mapping(stream("x\tE\ny\tD\n"), toy_graph).words
        spec = smx.pairwise_measure("lin", theta=toy_seco)
        scored = smx.score_pairs(dataset, mapping, spec, toy)
        direct = smx.eval_pairwise(spec, toy, toy.node("E"), toy.node("D")).value
        assert scored[0].score == pytest.approx(direct)

    def test_multi_sense_takes_best_score(self, toy, toy_graph, toy_seco):
        dataset = smx.parse_rated_pairs(stream("mouse\trat\t3\n"))
        mapping = smx.parse_word_mapping(
            stream("mouse\tD;F\nrat\tE\n"), toy_graph
        ).words
        spec = smx.pairwise_measure("lin", theta=toy_seco)
        scored = smx.score_pairs(dataset, mapping, spec, toy)
        candidates = [
            smx.eval_pairwise(spec, toy, toy.node(c), toy.node("E")).value
            for c in ("D", "F")
        ]
        assert scored[0].score == pytest.approx(max(candidates))

    def test_unmapped_word_is_skipped_not_zeroed(self, toy, toy_graph, toy_seco):
        dataset = smx.parse_rated_pairs(stream("x\ty\t3\nghost\ty\t1\n"))
        mapping = smx.parse_word_mapping(stream("x\tE\ny\tD\n"), toy_graph).words
        spec = smx.pairwise_measure("lin", theta=toy_seco)
        scored = smx.score_pairs(dataset, mapping, spec, toy)
        assert scored[0].score is not None
        assert scored[1].score is None

    def test_undefined_sense_pairs_drop_out_of_the_best(self, toy, toy_graph):
        # D has no instances: a sense pair at D is undefined, not a failure
        annotations = smx.parse_annotations(stream("i1\tE\ni3\tF\ni4\tC\n"), toy_graph)
        spec = smx.pairwise_measure("damato_ext", usage=smx.class_usage(toy, annotations))
        dataset = smx.parse_rated_pairs(stream("mouse\trat\t3\nmole\trat\t1\nghost\trat\t2\n"))
        mapping = smx.parse_word_mapping(
            stream("mouse\tD;F\nmole\tD\nrat\tC\n"), toy_graph
        ).words
        scored = smx.score_pairs(dataset, mapping, spec, toy)
        defined = smx.eval_pairwise(spec, toy, toy.node("F"), toy.node("C")).value
        assert [(p.score, p.skipped) for p in scored] == [
            (defined, None), (None, "UsageError"), (None, "unmapped")
        ]

    def test_distance_measure_converted_with_notice(self, toy, toy_graph, toy_seco, caplog):
        dataset = smx.parse_rated_pairs(stream("x\ty\t3\n"))
        mapping = smx.parse_word_mapping(stream("x\tE\ny\tD\n"), toy_graph).words
        spec = smx.pairwise_measure("jiang_conrath", theta=toy_seco)
        with caplog.at_level("WARNING", logger="smx"):
            scored = smx.score_pairs(dataset, mapping, spec, toy)
        assert "converted" in caplog.text
        direct = smx.eval_pairwise(spec, toy, toy.node("E"), toy.node("D")).value
        assert scored[0].score == pytest.approx(1.0 / (1.0 + direct))


class TestRunBenchmark:
    def _setup(self, toy, toy_graph, toy_seco, ratings_from_lin=True):
        words = [("w1", "E"), ("w2", "D"), ("w3", "F"), ("w4", "C"), ("w5", "B")]
        mapping = smx.parse_word_mapping(
            stream("".join(f"{w}\t{c}\n" for w, c in words)), toy_graph
        ).words
        spec = smx.pairwise_measure("lin", theta=toy_seco)
        rng = random.Random(7)
        lines = []
        pairs = [(a, b) for i, (a, _) in enumerate(words) for b, _ in words[i + 1:]]
        for a, b in pairs:
            u = toy.node(dict(words)[a])
            v = toy.node(dict(words)[b])
            value = smx.eval_pairwise(spec, toy, u, v).value
            rating = 2.0 * value + 1.0 if ratings_from_lin else rng.random()
            lines.append(f"{a}\t{b}\t{rating}\n")
        dataset = smx.parse_rated_pairs(stream("".join(lines)), name="synthetic")
        return dataset, mapping, spec

    def test_affine_lin_ratings_correlate_perfectly(self, toy, toy_graph, toy_seco):
        dataset, mapping, spec = self._setup(toy, toy_graph, toy_seco)
        run = smx.run_benchmark(dataset, mapping, [("lin", spec)], toy)
        row = run.rows[0]
        assert row.n_scored == len(dataset)
        assert row.n_skipped == 0
        assert row.pearson == pytest.approx(1.0, abs=1e-9)
        assert row.spearman == pytest.approx(1.0, abs=1e-9)

    def test_report_is_deterministic(self, toy, toy_graph, toy_seco):
        dataset, mapping, spec = self._setup(toy, toy_graph, toy_seco, ratings_from_lin=False)
        outputs = []
        for _ in range(2):
            run = smx.run_benchmark(
                dataset, mapping, [("lin", spec), ("cmatch", smx.pairwise_measure("cmatch"))], toy
            )
            buffer = io.StringIO()
            smx.write_report_csv(run, buffer)
            outputs.append(buffer.getvalue())
        assert outputs[0] == outputs[1]
        assert outputs[0].splitlines()[0] == "measure,n_scored,n_skipped,pearson,spearman"

    def test_mc30_sized_dataset_fully_scored(self, toy, toy_graph, toy_seco):
        names = ["E", "D", "F", "C", "B", "A"]
        mapping = smx.parse_word_mapping(
            stream("".join(f"w{i}\t{c}\n" for i, c in enumerate(names))), toy_graph
        ).words
        rng = random.Random(3)
        lines = [
            f"w{rng.randrange(6)}\tw{rng.randrange(6)}\t{rng.random():.3f}\n"
            for _ in range(30)
        ]
        dataset = smx.load_rated_pairs(stream("".join(lines)), kind="mc30")
        spec = smx.pairwise_measure("lin", theta=toy_seco)
        run = smx.run_benchmark(dataset, mapping, [("lin", spec)], toy)
        assert run.rows[0].n_scored == 30
        assert run.rows[0].n_skipped == 0

    def test_skips_reported(self, toy, toy_graph, toy_seco):
        mapping = smx.parse_word_mapping(stream("w1\tE\nw2\tD\n"), toy_graph).words
        dataset = smx.parse_rated_pairs(stream("w1\tw2\t2\nw1\tmissing\t1\n"))
        spec = smx.pairwise_measure("lin", theta=toy_seco)
        run = smx.run_benchmark(dataset, mapping, [("lin", spec)], toy)
        assert run.rows[0].n_scored == 1
        assert run.rows[0].n_skipped == 1
        assert run.rows[0].pearson is None  # single point, undefined
