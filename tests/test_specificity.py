import io
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import smx
from smx.errors import (
    ContractError,
    DegenerateTaxonomyError,
    InfiniteICError,
    InfinityError,
    SmxError,
    UnknownNodeError,
    UsageError,
)

from smx.specificity import ESTIMATOR_KINDS

from helpers import (
    brute_class_usage,
    brute_depth,
    brute_descendants,
    children_of,
    random_annotations,
    random_taxonomy,
    taxonomy_from_pairs,
)

LN = math.log


def stream(text):
    return io.BytesIO(text.encode("utf-8"))


def annotations(toy_graph, text):
    return smx.parse_annotations(stream(text), toy_graph)


class TestClassUsage:
    def test_propagated_counts(self, toy, toy_graph):
        usage = smx.class_usage(toy, annotations(toy_graph, "g1\tE\ng2\tD\ng3\tF\n"))
        assert usage.count(toy.node("A")) == 2
        assert usage.count(toy.node("root")) == 3
        assert usage.count(toy.node("B")) == 1
        assert usage.total == 3

    def test_root_only_instance(self, toy, toy_graph):
        usage = smx.class_usage(toy, annotations(toy_graph, "g1\troot\n"))
        assert usage.count(toy.node("root")) == 1
        assert all(
            usage.count(c) == 0 for c in toy.class_ids if c != toy.node("root")
        )

    def test_two_instances_same_leaf(self, toy, toy_graph):
        usage = smx.class_usage(toy, annotations(toy_graph, "g1\tE\ng2\tE\n"))
        for name in ("E", "C", "A", "root"):
            assert usage.count(toy.node(name)) == 2

    def test_empty_annotations_rejected(self, toy):
        with pytest.raises(UsageError):
            smx.class_usage(toy, smx.AnnotationSet(assignments={}))

    def test_counts_monotone_up(self, toy, toy_graph):
        usage = smx.class_usage(toy, annotations(toy_graph, "g1\tE\ng2\tD,F\n"))
        for child, parent in toy.edges:
            assert usage.count(child) <= usage.count(parent)


class TestEstimators:
    def test_seco_bounds(self, toy, toy_seco):
        assert toy_seco(toy.node("root")) == 0.0
        assert toy_seco(toy.node("E")) == 1.0
        assert toy_seco(toy.node("A")) == pytest.approx(1 - LN(4) / LN(7), abs=1e-12)

    def test_extrinsic_resnik_value(self, toy, toy_graph):
        usage = smx.class_usage(
            toy, annotations(toy_graph, "g1\tE\ng2\tD\ng3\tF\ng4\tB\n")
        )
        est = smx.resnik_extrinsic_ic(toy, usage)
        assert est(toy.node("E")) == pytest.approx(LN(4), abs=1e-12)
        assert est(toy.node("root")) == 0.0

    def test_extrinsic_matches_idf_exactly(self, toy, toy_graph):
        usage = smx.class_usage(toy, annotations(toy_graph, "g1\tE\ng2\tD\ng3\tF\n"))
        eic = smx.resnik_extrinsic_ic(toy, usage)
        idf = smx.idf_theta(toy, usage)
        for c in toy.class_ids:
            assert eic.raw(c) == idf.raw(c)

    def test_zero_usage_raises_until_smoothed(self, toy, toy_graph):
        usage = smx.class_usage(toy, annotations(toy_graph, "g1\tE\n"))
        est = smx.resnik_extrinsic_ic(toy, usage)
        with pytest.raises(InfiniteICError):
            est(toy.node("F"))
        smoothed = smx.resnik_extrinsic_ic(toy, usage, smooth=True)
        assert math.isfinite(smoothed(toy.node("F")))
        assert not smx.validate_monotonicity(smoothed)

    def test_log_base_flag(self, toy):
        nat = smx.seco_ic(toy)
        two = smx.seco_ic(toy, base=2.0)
        # ratios of logs cancel the base for seco
        assert two(toy.node("A")) == pytest.approx(nat(toy.node("A")), abs=1e-12)
        intrinsic2 = smx.resnik_intrinsic_ic(toy, base=2.0)
        assert intrinsic2(toy.node("E")) == pytest.approx(math.log2(7), abs=1e-12)

    def test_normalized_ranges(self, toy):
        for est in (smx.seco_ic(toy), smx.zhou_ic(toy), smx.depth_theta(toy)):
            for c in toy.class_ids:
                assert 0.0 <= est(c) <= 1.0
        assert smx.depth_theta(toy)(toy.node("root")) == 0.0

    def test_sanchez_root_and_leaf(self, toy):
        est = smx.sanchez_leaves_ic(toy)
        assert est(toy.node("root")) == 0.0
        assert est(toy.node("E")) == pytest.approx(LN(3), abs=1e-12)  # leaves D, E, F
        refined = smx.sanchez_refined_ic(toy)
        assert refined(toy.node("root")) == 0.0
        assert not smx.validate_monotonicity(refined)

    def test_zhou_k_range_checked(self, toy):
        with pytest.raises(UsageError):
            smx.zhou_ic(toy, k=1.5)

    def test_single_class_taxonomy_degenerate(self):
        g = smx.parse_graph(stream("g1\tisA\tOnly\n"))
        t = smx.taxonomic_reduction(g)
        with pytest.raises(DegenerateTaxonomyError):
            smx.seco_ic(t)
        with pytest.raises(DegenerateTaxonomyError):
            smx.zhou_ic(t)


class TestBaseAndTable:
    @pytest.mark.parametrize("base", [math.inf, -math.inf, math.nan, 1.0, 0.0, -2.0])
    def test_bad_log_base_is_rejected(self, toy, toy_graph, base):
        usage = smx.class_usage(toy, annotations(toy_graph, "g1\tE\n"))
        for kind in ESTIMATOR_KINDS:
            if kind.startswith("depth") and kind != "depth_nonlinear":
                continue  # depth takes no base
            with pytest.raises(ContractError, match="base must"):
                smx.build_estimator(kind, toy, usage=usage, base=base)

    @pytest.mark.parametrize("kind", ESTIMATOR_KINDS)
    def test_unknown_parameter_is_rejected(self, toy, toy_graph, kind):
        usage = smx.class_usage(toy, annotations(toy_graph, "g1\tE\n"))
        with pytest.raises(ContractError, match=rf"{kind}: unknown parameters \['foo'\]"):
            smx.build_estimator(kind, toy, usage=usage, foo=1.0)

    def test_zhou_k_is_its_one_parameter(self, toy):
        bound = smx.build_estimator("zhou", toy, k=0.3)
        assert bound._table == smx.zhou_ic(toy, k=0.3)._table
        with pytest.raises(ContractError, match="parameter k must not be nan"):
            smx.build_estimator("zhou", toy, k=math.nan)
        with pytest.raises(UsageError, match=r"must be in \[0, 1\]"):
            smx.build_estimator("zhou", toy, k=5.0)

    def test_nan_value_is_rejected_by_class(self, toy):
        table = {c: 1.0 for c in toy.class_ids}
        table[toy.node("C")] = math.nan
        with pytest.raises(ContractError, match="class C is NaN"):
            smx.ThetaEstimator.from_table(toy, table)
        with pytest.raises(ContractError, match="class C is NaN"):
            smx.ThetaEstimator("custom", toy, table)

    def test_ids_that_are_not_classes_are_refused(self, toy):
        table = {c: 1.0 for c in toy.class_ids}
        with pytest.raises(ContractError) as caught:
            smx.ThetaEstimator.from_table(toy, {**table, -1: 0.5, 99: 0.1})
        assert str(caught.value) == "table has 2 ids that are not classes"

    def test_infinite_values_stay_allowed(self, toy):
        table = {c: 1.0 for c in toy.class_ids}
        table[toy.node("C")], table[toy.node("D")] = math.inf, -math.inf
        theta = smx.ThetaEstimator.from_table(toy, table)
        assert theta.raw(toy.node("C")) == math.inf
        with pytest.raises(InfiniteICError):
            theta(toy.node("D"))


def _read(fill):
    """("ok", values) or (the SmxError subclass fill raised, its message)."""
    try:
        return "ok", fill()
    except SmxError as exc:
        return type(exc), str(exc)


class TestBulkRead:
    """values(classes) equals one theta(c) per class, and sum(classes) the
    math.fsum of those reads, or their exact sum where a partial sum
    overflows, in value or in the class and message of the error raised."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_equals_per_class_reads(self, seed):
        rng = random.Random(seed)
        t, _ = random_taxonomy(rng, max_nodes=15)
        classes = sorted(t.class_ids)
        values = (0.0, 0.5, 1.25, 3.0, math.inf, -math.inf)
        theta = smx.ThetaEstimator.from_table(
            t, {c: rng.choices(values, weights=(4, 4, 4, 4, 1, 1))[0] for c in classes}
        )
        pool = classes + [-1]
        for size in (0, 1, 2, 4, 8):
            picked = [rng.choice(pool) for _ in range(size)]
            for group in (picked, tuple(picked), frozenset(picked)):
                want = _read(lambda: [theta(c) for c in group])
                assert _read(lambda: theta.values(group)) == want
                want = _read(lambda: math.fsum([theta(c) for c in group]))
                assert _read(lambda: theta.sum(group)) == want

    def test_named_cases(self, toy):
        table = {c: 1.0 for c in toy.class_ids}
        table[toy.node("C")], table[toy.node("D")] = math.inf, -math.inf
        theta = smx.ThetaEstimator.from_table(toy, table)
        a, c, d = toy.node("A"), toy.node("C"), toy.node("D")
        assert theta.values(()) == []
        assert theta.values((a, a)) == [1.0, 1.0]
        for group, error, text in (
            ((a, c), InfiniteICError, "class C"),
            ((a, d, c), InfiniteICError, "class D"),
            ((a, -1, c), UnknownNodeError, "node -1"),
        ):
            with pytest.raises(error, match=text):
                theta.values(group)

    def test_sum_named_cases(self, toy):
        table = {c: 1.0 for c in toy.class_ids}
        table[toy.node("C")], table[toy.node("D")] = math.inf, -math.inf
        table[toy.node("E")] = table[toy.node("F")] = 1e308
        theta = smx.ThetaEstimator.from_table(toy, table)
        a, c, d, e, f = (toy.node(name) for name in "ACDEF")
        assert theta.sum(()) == 0.0
        assert theta.sum((a, a)) == 2.0
        for group, error, text in (
            ((a, c), InfiniteICError, "class C"),  # an infinite sum
            ((a, d), InfiniteICError, "class D"),
            ((a, d, c), InfiniteICError, "class D"),  # inf + -inf
            ((a, -1, c), UnknownNodeError, "node -1"),
            # every class is read before the sum, as by values
            ((e, f, -1), UnknownNodeError, "node -1"),
            ((e, f, c), InfiniteICError, "class C"),
        ):
            with pytest.raises(error, match=text):
                math.fsum(theta.values(group))
            with pytest.raises(error, match=text):
                theta.sum(group)
        # finite values whose sum leaves float range
        with pytest.raises(InfinityError, match="overflows"):
            theta.sum((e, f))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_sum_near_max_is_one_outcome_in_any_order(self, seed):
        # math.fsum raises when a partial sum overflows, even where the exact
        # sum is in range; sum gives the exact sum rounded once in every order
        rng = random.Random(seed)
        t, _ = random_taxonomy(rng, max_nodes=12)
        classes = sorted(t.class_ids)
        values = (0.0, 1.0, -1.0, 0.9e308, -0.9e308, 1.7e308, -1.7e308)
        table = {c: rng.choice(values) for c in classes}
        theta = smx.ThetaEstimator.from_table(t, table)
        for size in (2, 3, 5):
            group = [rng.choice(classes) for _ in range(size)]
            try:
                want = "ok", float(sum(Fraction(table[c]) for c in group))
            except OverflowError:
                want = (InfinityError, f"a sum of theta over {size} classes overflows")
            for order in itertools.permutations(group):
                assert _read(lambda: theta.sum(order)) == want

    def test_sum_near_max_named_case(self):
        t = taxonomy_from_pairs([("B", "A"), ("C", "A")])
        a, b, c = (t.node(name) for name in "ABC")
        theta = smx.ThetaEstimator.from_table(t, {a: -1.7e308, b: 1.7e308, c: 1.7e308})
        for order in itertools.permutations((a, b, c)):
            assert theta.sum(order) == 1.7e308
        with pytest.raises(InfinityError, match="over 2 classes overflows"):
            theta.sum((b, c))


class TestMonotonicity:
    def test_all_shipped_estimators_on_toy(self, toy):
        for est in (
            smx.depth_theta(toy),
            smx.depth_theta(toy, normalized=False),
            smx.nonlinear_depth_theta(toy),
            smx.seco_ic(toy),
            smx.zhou_ic(toy),
            smx.resnik_intrinsic_ic(toy),
            smx.sanchez_leaves_ic(toy),
            smx.sanchez_refined_ic(toy),
        ):
            assert smx.validate_monotonicity(est) == []

    def test_injected_violation_reported(self, toy):
        table = {c: 1.0 for c in toy.class_ids}
        table[toy.node("A")] = 5.0  # parent above its children E-side chain
        est = smx.ThetaEstimator.from_table(toy, table)
        bad = smx.validate_monotonicity(est)
        assert (toy.node("C"), toy.node("A")) in bad

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_zhou_monotone_on_random_dags(self, seed):
        t, _ = random_taxonomy(random.Random(seed), max_nodes=50)
        assert smx.validate_monotonicity(smx.zhou_ic(t, k=0.6)) == []

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_every_estimator_monotone_on_random_dags(self, seed):
        rng = random.Random(seed)
        t, _ = random_taxonomy(rng, max_nodes=50)
        estimators = [
            smx.depth_theta(t),
            smx.nonlinear_depth_theta(t),
            smx.seco_ic(t),
            smx.zhou_ic(t),
            smx.resnik_intrinsic_ic(t),
            smx.sanchez_leaves_ic(t),
            smx.sanchez_refined_ic(t),
        ]
        classes = sorted(t.class_ids)
        picks = {
            f"i{k}": frozenset({rng.choice(classes)})
            for k in range(rng.randint(1, 8))
        }
        usage = smx.class_usage(t, smx.AnnotationSet(assignments=picks))
        estimators.append(smx.resnik_extrinsic_ic(t, usage))
        estimators.append(smx.resnik_extrinsic_ic(t, usage, smooth=True))
        for est in estimators:
            assert smx.validate_monotonicity(est) == [], est.kind


class TestClassUsageOracle:
    """class_usage against the per-(instance, ancestor) oracle, on trees and
    on DAGs with multiple inheritance, before and after transitive
    reduction."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), tree=st.booleans())
    def test_matches_oracle(self, seed, tree):
        rng = random.Random(seed)
        t, _ = random_taxonomy(rng, max_nodes=30, tree=tree)
        ann = random_annotations(rng, t)
        for view in (t, smx.transitive_reduction(t)[0]):
            got = smx.class_usage(view, ann)
            want = brute_class_usage(view, ann)
            assert set(want) == view.class_ids
            assert got.total == len(ann.assignments)
            for c in view.class_ids:
                assert got.count(c) == len(want[c])
                for d in view.class_ids:
                    assert got.shared(c, d) == len(want[c] & want[d])

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_unknown_class_raises_as_oracle(self, seed):
        rng = random.Random(seed)
        t, _ = random_taxonomy(rng, max_nodes=30)
        ann = random_annotations(rng, t)
        outside = max(t.class_ids) + 1
        assignments = dict(ann.assignments)
        assignments["stray"] = frozenset({outside, min(t.class_ids)})
        bad = smx.AnnotationSet(assignments=assignments)
        with pytest.raises(UnknownNodeError) as want:
            brute_class_usage(t, bad)
        with pytest.raises(UnknownNodeError, match=f"annotation class {outside} is not in"):
            smx.class_usage(t, bad)
        assert str(want.value) == f"annotation class {outside} is not in the taxonomy"

    def test_misses_count_zero(self, toy, toy_graph):
        usage = smx.class_usage(toy, annotations(toy_graph, "g1\tE\n"))
        assert usage.count(-1) == 0
        assert usage.shared(-1, toy.node("E")) == 0


class TestEstimatorOracle:
    """Every descendant-count estimator table equals its published formula
    over brute-force descendant sets, on trees and DAGs, before and after
    transitive reduction; so does the view's count helper."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), tree=st.booleans(), base=st.sampled_from([None, 2.0]))
    def test_tables_match_formulas(self, seed, tree, base):
        rng = random.Random(seed)
        t, pairs = random_taxonomy(rng, max_nodes=40, tree=tree)
        ann = random_annotations(rng, t)

        def log(x):
            return LN(x) if base is None else LN(x, base)

        below = children_of(pairs)
        leaf_labels = {x for x, kids in below.items() if not kids}
        n = len(below)
        depth = {x: brute_depth(pairs, x) for x in below}
        max_depth = max(depth.values())
        for view in (t, smx.transitive_reduction(t)[0]):
            down = {c: brute_descendants(pairs, view.label(c)) for c in view.class_ids}
            n_desc = {c: len(d) for c, d in down.items()}
            n_leaves = {c: len(d & leaf_labels) for c, d in down.items()}
            assert view.descendant_counts() == n_desc
            assert view.descendant_counts(view.leaves) == n_leaves
            seco = {c: 1.0 - log(n_desc[c]) / log(n) for c in view.class_ids}
            depth_part = {
                c: log(depth[view.label(c)] + 1) / log(max_depth + 1) for c in view.class_ids
            }
            members = brute_class_usage(view, ann)
            smoothed_total = len(ann.assignments) + n
            want = {
                "seco": seco,
                "resnik_intrinsic": {c: log(n) - log(n_desc[c]) for c in view.class_ids},
                "sanchez": {
                    c: log(len(leaf_labels)) - log(n_leaves[c]) for c in view.class_ids
                },
                "sanchez_refined": {
                    c: -log(
                        (n_leaves[c] / len(view.ancestors(c)) + 1.0) / (len(leaf_labels) + 1.0)
                    )
                    for c in view.class_ids
                },
                "zhou": {
                    c: 0.6 * seco[c] + (1.0 - 0.6) * depth_part[c] for c in view.class_ids
                },
                "resnik": {
                    c: log(smoothed_total) - log(len(members[c]) + n_desc[c])
                    for c in view.class_ids
                },
            }
            got = {
                "seco": smx.seco_ic(view, base),
                "resnik_intrinsic": smx.resnik_intrinsic_ic(view, base),
                "sanchez": smx.sanchez_leaves_ic(view, base),
                "sanchez_refined": smx.sanchez_refined_ic(view, base),
                "zhou": smx.zhou_ic(view, k=0.6, base=base),
                "resnik": smx.resnik_extrinsic_ic(
                    view, smx.class_usage(view, ann), smooth=True, base=base
                ),
            }
            for kind, table in want.items():
                assert {c: got[kind].raw(c) for c in view.class_ids} == table, kind
