import functools
import io
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import smx
from smx.errors import (
    ContractError,
    InfiniteICError,
    InfinityError,
    RedundancyError,
    SmxError,
    UnknownNodeError,
    UsageError,
)
from smx.pairwise import MEASURES

from helpers import (
    brute_class_usage,
    brute_extensional,
    brute_jc_hybrid,
    brute_lin_grasm,
    brute_pekar_staab,
    brute_redundant_edges,
    brute_wang_dca,
    brute_wu_palmer,
    edge_set_jc_hybrid,
    form_row_oracle,
    random_annotations,
    random_taxonomy,
    relabelled,
    taxonomy_from_pairs,
)

SIM = smx.Polarity.SIMILARITY
DIST = smx.Polarity.DISTANCE
APPROX = lambda x: pytest.approx(x, abs=1e-9)
# catalog rows that are one abstract form applied to a feature triple
FORM_ROWS = (
    "lin", "sim_dic", "dice_anc", "jiang_conrath", "faith", "tversky_ratio",
    "rodriguez_egenhofer", "jac_anc", "cmatch", "psec", "tversky_contrast", "nunivers",
)


def ev(name, t, a, b, theta=None, usage=None, allow_unreduced=False, **params):
    spec = smx.pairwise_measure(name, theta=theta, usage=usage, **params)
    return smx.eval_pairwise(spec, t, t.node(a), t.node(b), allow_unreduced)


@pytest.fixture(scope="module")
def toy_usage(toy, toy_graph):
    ann = smx.parse_annotations(
        io.BytesIO(b"g1\tE\ng2\tD\ng3\tF\n"), toy_graph
    )
    return smx.class_usage(toy, ann)


class TestStructural:
    def test_rada_family(self, toy):
        assert ev("rada", toy, "E", "D").value == 3
        assert ev("rada_sim", toy, "E", "D").value == 0.25
        assert ev("rada", toy, "E", "E").value == 0
        assert ev("resnik_edge", toy, "E", "D").value == 3.0

    def test_leacock_chodorow(self, toy):
        got = ev("leacock_chodorow", toy, "E", "D").value
        assert got == APPROX(-math.log(4 / 6))
        # self similarity attains the measure maximum
        assert ev("leacock_chodorow", toy, "E", "E").value == APPROX(math.log(6))

    def test_wu_palmer(self, toy):
        assert ev("wu_palmer", toy, "E", "D").value == APPROX(0.4)
        assert ev("wu_palmer", toy, "E", "E").value == 1.0
        assert ev("wu_palmer", toy, "root", "root").degenerate

    def test_pekar_staab(self, toy):
        assert ev("pekar_staab", toy, "E", "D").value == APPROX(1 / 4)

    def test_zhong(self, toy):
        # milestones 0.5 * k^-depth with k = 2
        assert ev("zhong", toy, "E", "D", k=2.0).value == APPROX(
            2 * 0.25 - 0.0625 - 0.125
        )
        assert ev("zhong", toy, "E", "E", k=2.0).value == 0.0

    def test_li(self, toy):
        expected = math.exp(-0.2 * 3) * math.tanh(0.6 * 1)
        assert ev("li", toy, "E", "D").value == APPROX(expected)

    def test_slimani(self, toy):
        wp = ev("wu_palmer", toy, "E", "D").value
        assert ev("slimani", toy, "E", "D").value == APPROX(wp / 6)
        penalty = min(3, 2) - toy.max_depth
        assert ev("slimani", toy, "E", "D", lam=0.0).value == APPROX(wp * penalty)

    def test_shenoy(self, toy):
        # one upward leg, one downward leg, one direction reversal
        expected = 2 * 3 * math.exp(-1.0 * 4 / 3) / (3 + 2)
        assert ev("shenoy", toy, "E", "D").value == APPROX(expected)
        assert ev("shenoy", toy, "root", "root").degenerate

    @pytest.mark.parametrize("lam", [-800.0, -1e308])
    def test_shenoy_overflow_names_the_pair(self, toy, lam):
        # exp(800 * 4 / 3) overflows in math.exp; at -1e308 the exponent is inf
        with pytest.raises(InfinityError) as caught:
            ev("shenoy", toy, "E", "D", lam=lam)
        assert str(caught.value) == "shenoy of E and D overflows"


class TestInformationTheoretic:
    def test_resnik(self, toy, toy_seco):
        assert ev("resnik", toy, "E", "D", toy_seco).value == APPROX(0.2875856258)
        assert ev("resnik", toy, "E", "F", toy_seco).value == 0.0

    def test_resnik_reads_theta_at_the_mica_only(self):
        # B has zero usage, so its IC is undefined, but theta(root) = 0 is not
        t = taxonomy_from_pairs([("A", "root"), ("B", "root")])
        usage = smx.class_usage(t, smx.AnnotationSet(assignments={"g1": frozenset({t.node("A")})}))
        theta = smx.resnik_extrinsic_ic(t, usage)
        assert ev("resnik", t, "A", "B", theta).value == 0.0
        with pytest.raises(InfiniteICError):
            ev("lin", t, "A", "B", theta)

    def test_lin(self, toy, toy_seco):
        assert ev("lin", toy, "E", "D", toy_seco).value == APPROX(0.2875856258)
        assert ev("lin", toy, "E", "E", toy_seco).value == 1.0

    def test_zero_ic_root_pair_degenerates(self, toy, toy_seco):
        for name in ("lin", "nunivers", "faith", "rel_schlicker", "sim_dic", "jac_anc"):
            mv = ev(name, toy, "root", "root", toy_seco)
            assert mv.value == 0.0 and mv.degenerate, name

    def test_jiang_conrath(self, toy, toy_seco):
        assert ev("jiang_conrath", toy, "E", "D", toy_seco).value == APPROX(1.4248287484)
        assert ev("jiang_conrath", toy, "E", "E", toy_seco).value == 0.0

    def test_nunivers(self, toy, toy_seco):
        assert ev("nunivers", toy, "E", "D", toy_seco).value == APPROX(0.2875856258)

    def test_psec_reports_raw_negative_values(self, toy, toy_seco):
        got = ev("psec", toy, "E", "D", toy_seco).value
        assert got == APPROX(3 * 0.2875856258 - 2.0)
        assert got < 0

    def test_faith(self, toy, toy_seco):
        assert ev("faith", toy, "E", "D", toy_seco).value == APPROX(0.1679416093)

    def test_rel_schlicker_discounts_general_ancestors(self, toy, toy_seco):
        lin = ev("lin", toy, "E", "D", toy_seco).value
        got = ev("rel_schlicker", toy, "E", "D", toy_seco).value
        assert got == APPROX(lin * (1 - math.exp(-0.2875856258)))
        assert got < lin
        # identical leaves still do not reach 1
        assert ev("rel_schlicker", toy, "E", "E", toy_seco).value < 1.0

    def test_sim_dic_and_jac_anc(self, toy, toy_seco):
        theta = toy_seco
        mass = lambda nodes: sum(theta(c) for c in nodes)
        au, ad = toy.ancestors(toy.node("E")), toy.ancestors(toy.node("D"))
        assert ev("sim_dic", toy, "E", "D", theta).value == APPROX(
            2 * mass(au & ad) / (mass(au) + mass(ad))
        )
        assert ev("jac_anc", toy, "E", "D", theta).value == APPROX(
            mass(au & ad) / mass(au | ad)
        )

    def test_lin_grasm_single_dca_equals_lin(self, toy, toy_seco):
        assert ev("lin_grasm", toy, "E", "D", toy_seco).value == APPROX(
            ev("lin", toy, "E", "D", toy_seco).value
        )

    def test_lin_grasm_averages_over_dcas(self, diamond):
        theta = smx.seco_ic(diamond)
        z, w = diamond.node("Z"), diamond.node("W")
        omega = diamond.ncca(z, w)
        avg = sum(theta(c) for c in omega) / len(omega)
        spec = smx.pairwise_measure("lin_grasm", theta=theta)
        got = smx.eval_pairwise(spec, diamond, z, w).value
        assert got == APPROX(2 * avg / (theta(z) + theta(w)))

    def test_wang_dca(self, toy):
        # single DCA "A": mean root path lengths 3 (E) and 2 (D)
        assert ev("wang_dca", toy, "E", "D").value == APPROX(2 * 1 / (3 * 2))

    @pytest.mark.parametrize("depth", [19, 40])
    def test_wang_dca_on_a_width_two_lattice(self, depth):
        # a_i and b_i both sit below a_{i-1} and b_{i-1}: 2^depth root paths
        # of length depth, and the two DCAs of a_depth, b_depth at depth - 1
        pairs = [("a1", "root"), ("b1", "root")] + [
            (f"{c}{i}", f"{p}{i - 1}") for i in range(2, depth + 1) for c in "ab" for p in "ab"
        ]
        t = taxonomy_from_pairs(pairs)
        got = ev("wang_dca", t, f"a{depth}", f"b{depth}").value
        assert got == 2 * (depth - 1) ** 2 / depth**2


class TestFeatureBased:
    def test_cmatch(self, toy):
        assert ev("cmatch", toy, "E", "D").value == APPROX(0.4)

    def test_dice_ancestors(self, toy):
        assert ev("dice_anc", toy, "E", "D").value == APPROX(4 / 7)

    def test_bulskov(self, toy):
        assert ev("bulskov", toy, "E", "D").value == APPROX(0.5 * 2 / 4 + 0.5 * 2 / 3)
        asym = ev("bulskov", toy, "E", "D", alpha=1.0)
        assert asym.value == APPROX(2 / 4)

    def test_rodriguez_egenhofer(self, toy):
        assert ev("rodriguez_egenhofer", toy, "E", "D").value == APPROX(
            2 / (0.5 * 2 + 0.5 * 1 + 2)
        )

    def test_sanchez_distance(self, toy):
        assert ev("sanchez", toy, "E", "D").value == APPROX(math.log2(1 + 3 / 5))
        assert ev("sanchez", toy, "E", "E").value == 0.0

    def test_tversky_ratio_jaccard_case(self, toy):
        got = ev("tversky_ratio", toy, "E", "D").value
        assert got == APPROX(ev("cmatch", toy, "E", "D").value)
        dice = ev("tversky_ratio", toy, "E", "D", alpha=0.5, beta=0.5).value
        assert dice == APPROX(ev("dice_anc", toy, "E", "D").value)

    def test_tversky_contrast(self, toy):
        assert ev("tversky_contrast", toy, "E", "D").value == APPROX(2 - 2 - 1)

    def test_jaccard_extensional(self, toy, toy_usage):
        assert ev("jaccard_ext", toy, "C", "A", usage=toy_usage).value == APPROX(1 / 2)
        assert ev("jaccard_ext", toy, "E", "D", usage=toy_usage).value == 0.0
        assert ev("jaccard_ext", toy, "E", "E", usage=toy_usage).value == 1.0

    def test_jaccard_extensional_zero_usage_error(self, toy, toy_graph):
        ann = smx.parse_annotations(io.BytesIO(b"g1\tE\n"), toy_graph)
        usage = smx.class_usage(toy, ann)
        with pytest.raises(UsageError):
            ev("jaccard_ext", toy, "E", "F", usage=usage)

    def test_damato_extensional(self, toy, toy_usage):
        got = ev("damato_ext", toy, "E", "D", usage=toy_usage).value
        assert got == APPROX((1 / 2) * (1 - 2 / 3) * (1 - 1 / 2))
        # self similarity collapses to zero by construction
        assert ev("damato_ext", toy, "E", "E", usage=toy_usage).value == 0.0


class TestHybrid:
    def test_reduces_to_jiang_conrath(self, toy, toy_seco):
        got = ev("jc_hybrid", toy, "E", "D", toy_seco).value
        want = ev("jiang_conrath", toy, "E", "D", toy_seco).value
        assert got == APPROX(want)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_reduces_to_jiang_conrath_on_random_trees(self, seed):
        t, _ = random_taxonomy(random.Random(seed), max_nodes=30, tree=True)
        theta = smx.seco_ic(t)
        hybrid = smx.pairwise_measure("jc_hybrid", theta=theta)
        plain = smx.pairwise_measure("jiang_conrath", theta=theta)
        rng = random.Random(seed + 1)
        nodes = sorted(t.class_ids)
        for _ in range(10):
            u, v = rng.choice(nodes), rng.choice(nodes)
            assert smx.eval_pairwise(hybrid, t, u, v).value == pytest.approx(
                smx.eval_pairwise(plain, t, u, v).value, abs=1e-9
            )

    def test_density_and_depth_factors_change_value(self, toy, toy_seco):
        base = ev("jc_hybrid", toy, "E", "D", toy_seco).value
        weighted = ev("jc_hybrid", toy, "E", "D", toy_seco, alpha=1.0, beta=0.5).value
        assert weighted != pytest.approx(base, abs=1e-12)
        doubled = ev(
            "jc_hybrid", toy, "E", "D", toy_seco, predicate_weight=2.0
        ).value
        assert doubled == APPROX(2 * base)

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        multi=st.sampled_from([0.3, 0.8]),
        reduce=st.booleans(),
        tied_theta=st.booleans(),
        alpha=st.sampled_from([0.0, 1.0, 2.5]),
        # 0.3 is no power of two, so the rounding of (1 - beta) * density shows
        beta=st.sampled_from([0.0, 0.3, 0.5, 1.0]),
        weight=st.sampled_from([1.0, 0.5]),
    )
    def test_up_walk_equals_the_edge_set_reference(
        self, seed, multi, reduce, tied_theta, alpha, beta, weight
    ):
        # bit for bit, or the same error type and message, on reduced and
        # unreduced views under seco and under tied tables with undefined
        # entries, so that a failing read names the same class
        rng = random.Random(seed)
        t, _ = random_taxonomy(rng, max_nodes=30, multi=multi)
        if reduce:
            t, _ = smx.transitive_reduction(t)
        classes = sorted(t.class_ids)
        if tied_theta:
            values = (0.0, 1.0, 2.0, math.inf)
            theta = smx.ThetaEstimator.from_table(t, {c: rng.choice(values) for c in classes})
        else:
            theta = smx.seco_ic(t)
        spec = smx.pairwise_measure(
            "jc_hybrid", theta=theta, alpha=alpha, beta=beta, predicate_weight=weight
        )
        score = smx.pair_scorer(spec, t, allow_unreduced=True)
        for _ in range(30):
            u, v = rng.choice(classes), rng.choice(classes)
            want = _hexed(lambda: edge_set_jc_hybrid(spec, t, u, v))
            assert _hexed(lambda: smx.eval_pairwise(spec, t, u, v, True)) == want, (u, v)
            assert _hexed(lambda: score(u, v)) == want, (u, v)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), beta=st.sampled_from([0.5, 1.0]))
    def test_one_spec_reads_each_views_own_terms(self, seed, beta):
        # the unreduced view has more edges, so at beta < 1 every density
        # differs between the views, and its shortcuts change the paths
        rng = random.Random(seed)
        t, _ = random_taxonomy(rng, max_nodes=30, multi=0.8)
        reduced, _ = smx.transitive_reduction(t)
        classes = sorted(t.class_ids)
        pairs = [(rng.choice(classes), rng.choice(classes)) for _ in range(20)]
        for views in ((reduced, t), (t, reduced)):
            spec = smx.pairwise_measure("jc_hybrid", theta=smx.seco_ic(t), alpha=1.0, beta=beta)
            for view in views:
                for u, v in pairs:
                    want = _hexed(lambda: edge_set_jc_hybrid(spec, view, u, v))
                    got = _hexed(lambda: smx.eval_pairwise(spec, view, u, v, True))
                    assert got == want, (u, v)

    def test_a_failing_pair_fails_alike_again(self):
        # D has no instances, so unsmoothed resnik leaves theta(D) undefined
        t = taxonomy_from_pairs([("A", "R"), ("B", "R"), ("C", "A"), ("D", "A")])
        b, c, d = t.node("B"), t.node("C"), t.node("D")
        usage = smx.class_usage(t, smx.AnnotationSet({"i1": frozenset({c}), "i2": frozenset({b})}))
        spec = smx.pairwise_measure("jc_hybrid", theta=smx.resnik_extrinsic_ic(t, usage))
        first, again = (_hexed(lambda: smx.eval_pairwise(spec, t, d, c)) for _ in range(2))
        assert first[0] is InfiniteICError and "class D " in first[1]
        assert again == first
        finite = _hexed(lambda: smx.eval_pairwise(spec, t, c, b))
        assert finite == _hexed(lambda: edge_set_jc_hybrid(spec, t, c, b))
        assert math.isfinite(float.fromhex(finite[0]))


# A handmade view: T has two parents and tops the chain T < C1 < C2 < C3,
# which branches below C3 into L1 (with M below it) and L2; U has two
# parents, C3 and W, and tops its own chain U < K.
CHAIN_VIEW = [
    ("A", "R"), ("B", "R"), ("X", "R"), ("T", "A"), ("T", "B"), ("C1", "T"), ("C2", "C1"),
    ("C3", "C2"), ("L1", "C3"), ("L2", "C3"), ("M", "L1"), ("W", "X"), ("U", "C3"),
    ("U", "W"), ("K", "U"),
]
# theta falls from C2 to C3, so the MICA of L1 and L2 is C2, in the middle
# of T's chain and above C3, where their walks meet
CHAIN_THETA = {
    "R": 0.0, "A": 1.0, "B": 1.0, "X": 1.0, "T": 2.0, "C1": 3.0, "C2": 5.0, "C3": 4.0,
    "L1": 6.0, "L2": 6.0, "M": 7.0, "W": 2.0, "U": 6.0, "K": 8.0,
}


def _chain_spec(t, theta, **params):
    table = smx.ThetaEstimator.from_table(t, {t.node(k): value for k, value in theta.items()})
    return smx.pairwise_measure("jc_hybrid", theta=table, **params)


class TestChainSums:
    """jc_hybrid sums each walk as differences of per-class prefix sums
    along the chains of the view; every value equals the edge-set reference
    bit for bit."""

    @pytest.mark.parametrize("redundant", [False, True], ids=["reduced", "unreduced"])
    @pytest.mark.parametrize(
        "params",
        [{}, {"alpha": 1.0, "beta": 0.3, "predicate_weight": 0.5}],
        ids=["default", "weighted"],
    )
    def test_every_pair_of_a_handmade_view(self, redundant, params):
        # unreduced: L2 < C1 shortcuts L2 < C3 < C2 < C1 and makes L2 a top
        t = taxonomy_from_pairs(CHAIN_VIEW + [("L2", "C1")] * redundant)
        assert t.is_reduced is not redundant
        spec = _chain_spec(t, CHAIN_THETA, **params)
        node = t.node
        cases = {
            # walks meeting at C3, below the top T and below the MICA C2
            ("L1", "L2"): "C2", ("M", "L2"): "C2",
            # K's walk steps from the top U into T's chain at C3
            ("K", "L2"): "C2",
            # u an ancestor of v, u == v, and v on u's chain
            ("C3", "M"): "C2", ("C3", "C3"): "C2", ("M", "M"): "M", ("M", "L1"): "L1",
        }
        for (u, v), mica in cases.items():
            assert t.label(t.mica(spec.theta, node(u), node(v))) == mica, (u, v)
        score = smx.pair_scorer(spec, t, allow_unreduced=True)
        for u in sorted(t.class_ids):
            for v in sorted(t.class_ids):
                want = _hexed(lambda: edge_set_jc_hybrid(spec, t, u, v))
                assert _hexed(lambda: smx.eval_pairwise(spec, t, u, v, True)) == want, (u, v)
                assert _hexed(lambda: score(u, v)) == want, (u, v)

    def test_a_term_out_of_range_above_the_mica_leaves_the_walk_finite(self):
        # the term of C1 < T is 1e308 + 1.7e308, out of float range; it lies
        # in the prefix sums of every class below C1 but on no walk to C2
        theta = dict.fromkeys(CHAIN_THETA, 1.7e308)
        theta.update(R=0.0, A=0.0, B=0.0, X=0.0, W=0.0, T=-1.7e308, C1=1e308)
        t = taxonomy_from_pairs(CHAIN_VIEW)
        spec = _chain_spec(t, theta)
        for u, v in (("L1", "L2"), ("M", "L2"), ("K", "M")):
            u, v = t.node(u), t.node(v)
            assert t.label(t.mica(spec.theta, u, v)) == "C2"
            got = smx.eval_pairwise(spec, t, u, v)
            assert got == edge_set_jc_hybrid(spec, t, u, v) and got.value == 0.0
        with pytest.raises(InfinityError) as caught:
            smx.eval_pairwise(spec, t, t.node("L1"), t.node("A"))
        assert str(caught.value) == "jc_hybrid of L1 and A overflows"

    def test_an_exact_sum_that_rounds_out_of_range(self):
        # MAX + 2**970 is a tie between MAX and 2**1024, which rounds to even:
        # out of range; MAX + 2**969 rounds down to MAX
        fork = taxonomy_from_pairs([("B", "A"), ("C", "A")])
        big = sys.float_info.max
        b, c = fork.node("B"), fork.node("C")
        spec = _chain_spec(fork, {"A": 0.0, "B": big, "C": 2.0**969})
        got = smx.eval_pairwise(spec, fork, b, c)
        assert got == edge_set_jc_hybrid(spec, fork, b, c) and got.value == big
        spec = _chain_spec(fork, {"A": 0.0, "B": big, "C": 2.0**970})
        with pytest.raises(OverflowError):
            edge_set_jc_hybrid(spec, fork, b, c)
        scorers = functools.partial(smx.eval_pairwise, spec, fork), smx.pair_scorer(spec, fork)
        for score in scorers:
            with pytest.raises(InfinityError) as caught:
                score(b, c)
            assert str(caught.value) == "jc_hybrid of B and C overflows"

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        multi=st.sampled_from([0.0, 0.3, 0.8]),
        reduce=st.booleans(),
        alpha=st.sampled_from([0.0, 1.0, 2.5]),
        beta=st.sampled_from([0.0, 0.3, 1.0]),
        weight=st.sampled_from([1.0, 0.3]),
    )
    def test_all_pairs_equal_the_edge_set_reference(self, seed, multi, reduce, alpha, beta, weight):
        # tied values put MICAs above where walks meet; tiny and large ones
        # spread the terms' denominators; inf leaves a class undefined
        rng = random.Random(seed)
        t, _ = random_taxonomy(rng, max_nodes=16, multi=multi)
        if reduce:
            t, _ = smx.transitive_reduction(t)
        classes = sorted(t.class_ids)
        values = (0.0, 1.0, 1.0, 2.0, -1.5, 0.1, 1e-300, 3e-20, 1e20, math.inf)
        theta = smx.ThetaEstimator.from_table(t, {c: rng.choice(values) for c in classes})
        spec = smx.pairwise_measure(
            "jc_hybrid", theta=theta, alpha=alpha, beta=beta, predicate_weight=weight
        )
        for u in classes:
            for v in classes:
                want = _hexed(lambda: edge_set_jc_hybrid(spec, t, u, v))
                assert _hexed(lambda: smx.eval_pairwise(spec, t, u, v, True)) == want, (u, v)

    def test_built_once_per_spec_and_view_on_first_score(self, monkeypatch):
        builds = []
        build = smx.pairwise._jc_sums
        monkeypatch.setattr(
            smx.pairwise, "_jc_sums", lambda spec, t: builds.append((spec, t)) or build(spec, t)
        )
        t = taxonomy_from_pairs(CHAIN_VIEW + [("L2", "C1")])
        reduced, _ = smx.transitive_reduction(t)
        spec = _chain_spec(t, CHAIN_THETA)
        scorers = {view: smx.pair_scorer(spec, view, allow_unreduced=True) for view in (t, reduced)}
        assert builds == []
        pairs = [(u, v) for u in sorted(t.class_ids) for v in sorted(t.class_ids)]
        for view in (t, reduced, t):
            for u, v in pairs:
                scorers[view](u, v)
                smx.eval_pairwise(spec, view, u, v, True)
        assert builds == [(spec, t), (spec, reduced)]
        other = _chain_spec(t, CHAIN_THETA, alpha=1.0)
        smx.eval_pairwise(other, t, *pairs[1], True)
        assert builds == [(spec, t), (spec, reduced), (other, t)]


def _hexed(evaluate):
    """float.hex of the value and the flags of evaluate(), or the type and
    message of the SmxError it raised."""
    try:
        mv = evaluate()
    except SmxError as exc:
        return type(exc), str(exc)
    return mv.value.hex(), mv.polarity, mv.normalized, mv.degenerate


class TestPathKernelOracles:
    """jc_hybrid and wang_dca against path enumeration on random DAGs, with
    and without the transitive reduction, under a proper IC and under a
    tied table with undefined (infinite) entries, on parsed and on
    relabelled views."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        multi=st.sampled_from([0.3, 0.8]),
        reduce=st.booleans(),
        relabel=st.booleans(),
        tied_theta=st.booleans(),
        alpha=st.sampled_from([0.0, 1.0, 2.5]),
        beta=st.sampled_from([0.0, 0.5, 1.0]),
        weight=st.sampled_from([1.0, 0.5]),
    )
    def test_match_path_enumeration(
        self, seed, multi, reduce, relabel, tied_theta, alpha, beta, weight
    ):
        rng = random.Random(seed)
        t, pairs = random_taxonomy(rng, max_nodes=20, multi=multi)
        if reduce:
            t, _ = smx.transitive_reduction(t)
            redundant = brute_redundant_edges(pairs)
            pairs = [edge for edge in pairs if edge not in redundant]
        classes = sorted(t.class_ids)
        if relabel:
            t, pairs = relabelled(t, pairs, rng)
        if tied_theta:
            values = (0.0, 1.0, 2.0, math.inf)
            theta = smx.ThetaEstimator.from_table(t, {c: rng.choice(values) for c in classes})
        else:
            theta = smx.seco_ic(t)
        table = {t.label(c): theta.raw(c) for c in classes}
        hybrid = smx.pairwise_measure(
            "jc_hybrid", theta=theta, alpha=alpha, beta=beta, predicate_weight=weight
        )
        wang = smx.pairwise_measure("wang_dca")
        for _ in range(25):
            u, v = rng.choice(classes), rng.choice(classes)
            lu, lv = t.label(u), t.label(v)
            got, got_error = _outcome(lambda: smx.eval_pairwise(hybrid, t, u, v, True))
            want, want_error = _outcome(
                lambda: brute_jc_hybrid(pairs, table, lu, lv, alpha, beta, weight)
            )
            assert got_error is want_error, (lu, lv)
            if want_error is None:
                assert got.value == pytest.approx(want, rel=1e-9, abs=1e-12), (lu, lv)
                assert (got.polarity, got.degenerate) == (DIST, False)
            got = smx.eval_pairwise(wang, t, u, v, True)
            value, degenerate = brute_wang_dca(pairs, lu, lv)
            assert got.value == pytest.approx(float(value), rel=1e-12), (lu, lv)
            assert got.degenerate == degenerate, (lu, lv)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_jc_hybrid_names_the_first_undefined_class_read(self, seed):
        # theta is read edge by edge, child then parent, over the union of
        # the two paths, so the error names the first undefined class there
        rng = random.Random(seed)
        t, _ = random_taxonomy(rng, max_nodes=40)
        classes = sorted(t.class_ids)
        table = {c: rng.choice((1.0, 2.0, math.inf)) for c in classes}
        table[t.root] = 0.0
        theta = smx.ThetaEstimator.from_table(t, table)
        hybrid = smx.pairwise_measure("jc_hybrid", theta=theta)
        for u in classes:
            v = rng.choice(classes)
            try:
                a = t.mica(theta, u, v)
            except InfiniteICError:
                continue
            edges = set(t.shortest_up_path_edges(u, a)) | set(t.shortest_up_path_edges(v, a))
            read = [c for edge in edges for c in edge if math.isinf(table[c])]
            if not read:
                continue
            with pytest.raises(InfiniteICError, match=f"class {t.label(read[0])} "):
                smx.eval_pairwise(hybrid, t, u, v, True)


class TestDepthAndNccaOracles:
    """wu_palmer, pekar_staab and lin_grasm, form rows over the depth triple
    and the NCCA-mean feature, against path enumeration on random
    multi-parent DAGs, with and without the transitive reduction, on parsed
    and on relabelled views, root pairs included."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        multi=st.sampled_from([0.3, 0.8]),
        reduce=st.booleans(),
        relabel=st.booleans(),
    )
    def test_match_path_enumeration(self, seed, multi, reduce, relabel):
        rng = random.Random(seed)
        t, pairs = random_taxonomy(rng, max_nodes=20, multi=multi)
        if reduce:
            t, _ = smx.transitive_reduction(t)
            redundant = brute_redundant_edges(pairs)
            pairs = [edge for edge in pairs if edge not in redundant]
        if relabel:
            t, pairs = relabelled(t, pairs, rng)
        theta = smx.seco_ic(t)
        table = {t.label(c): theta(c) for c in t.class_ids}
        classes = sorted(t.class_ids)
        checks = [
            (smx.pairwise_measure("wu_palmer"), lambda lu, lv: brute_wu_palmer(pairs, lu, lv)),
            (smx.pairwise_measure("pekar_staab"), lambda lu, lv: brute_pekar_staab(pairs, lu, lv)),
            (
                smx.pairwise_measure("lin_grasm", theta=theta),
                lambda lu, lv: brute_lin_grasm(pairs, table, lu, lv),
            ),
        ]
        tested = [(rng.choice(classes), rng.choice(classes)) for _ in range(20)]
        tested += [(t.root, t.root), (t.root, classes[-1]), (classes[-1], t.root)]
        for spec, oracle in checks:
            for u, v in tested:
                got = smx.eval_pairwise(spec, t, u, v, allow_unreduced=True)
                value, degenerate = oracle(t.label(u), t.label(v))
                assert abs(got.value - value) <= 1e-12, (spec.name, u, v)
                assert got.degenerate == degenerate, (spec.name, u, v)


class TestConvert:
    def test_one_minus(self):
        out = smx.convert(
            smx.MeasureValue(1.0, SIM, True), DIST, smx.ConversionRule.ONE_MINUS
        )
        assert out.value == 0.0 and out.polarity is DIST

    def test_reciprocal(self):
        out = smx.convert(
            smx.MeasureValue(3.0, DIST, False), SIM, smx.ConversionRule.RECIPROCAL
        )
        assert out.value == 0.25 and out.normalized

    def test_neg_log(self):
        out = smx.convert(
            smx.MeasureValue(math.exp(-1), SIM, True), DIST, smx.ConversionRule.NEG_LOG
        )
        assert out.value == APPROX(1.0)

    def test_ratio(self):
        out = smx.convert(
            smx.MeasureValue(0.5, SIM, True), DIST, smx.ConversionRule.RATIO
        )
        assert out.value == 1.0

    def test_neg_log_of_zero(self):
        with pytest.raises(InfinityError):
            smx.convert(
                smx.MeasureValue(0.0, SIM, True), DIST, smx.ConversionRule.NEG_LOG
            )

    def test_polarity_mismatch(self):
        with pytest.raises(ContractError):
            smx.convert(
                smx.MeasureValue(2.0, DIST, False), DIST, smx.ConversionRule.ONE_MINUS
            )
        with pytest.raises(ContractError):
            smx.convert(
                smx.MeasureValue(0.9, SIM, True), SIM, smx.ConversionRule.RECIPROCAL
            )


class TestContracts:
    def test_unknown_measure(self):
        with pytest.raises(ContractError, match="unknown measure"):
            smx.pairwise_measure("nope")

    def test_parameter_validation(self, toy_seco):
        with pytest.raises(ContractError):
            smx.pairwise_measure("zhong", k=1.0)
        with pytest.raises(ContractError):
            smx.pairwise_measure("bulskov", alpha=2.0)
        with pytest.raises(ContractError):
            smx.pairwise_measure("slimani", lam=0.5)
        with pytest.raises(ContractError):
            smx.pairwise_measure("lin")  # missing estimator

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "name, key", [(name, key) for name in sorted(MEASURES) for key in MEASURES[name].params]
    )
    def test_non_finite_parameters_rejected(self, toy_seco, name, key, value):
        theta = toy_seco if MEASURES[name].needs_theta else None
        with pytest.raises(ContractError, match=f"parameter {key} must not be"):
            smx.pairwise_measure(name, theta=theta, **{key: value})

    @pytest.mark.parametrize(
        "name, big", [("sim_dic", 1e308), ("jac_anc", 1e308), ("jc_hybrid", 0.9e308)]
    )
    def test_overflowing_theta_sum_is_an_infinity_error(self, toy, name, big):
        # every value is finite, but a sum over them leaves float range
        table = {c: 0.0 if c == toy.root else big for c in toy.class_ids}
        spec = smx.pairwise_measure(name, theta=smx.ThetaEstimator.from_table(toy, table))
        e, f = toy.node("E"), toy.node("F")
        with pytest.raises(InfinityError, match="overflows"):
            smx.eval_pairwise(spec, toy, e, f)
        with pytest.raises(InfinityError, match="overflows"):
            smx.pair_scorer(spec, toy)(e, f)

    def test_jc_hybrid_term_out_of_float_range_is_an_infinity_error(self):
        # every theta read is finite, but a term or the exact sum is not
        fork = taxonomy_from_pairs([("B", "A"), ("C", "A")])
        chain = taxonomy_from_pairs([("B", "A"), ("C", "B")])
        for t, values, (u, v) in (
            (fork, (-1.7e308, 1.7e308, 1.7e308), "BA"),  # one infinite term
            (fork, (0.0, 1.7e308, 1.7e308), "BC"),  # an exact sum out of range
            (chain, (-1.7e308, 1.7e308, -1.7e308), "CA"),  # inf + -inf
        ):
            table = dict(zip(map(t.node, "ABC"), values))
            spec = smx.pairwise_measure("jc_hybrid", theta=smx.ThetaEstimator.from_table(t, table))
            for score in (functools.partial(smx.eval_pairwise, spec, t), smx.pair_scorer(spec, t)):
                with pytest.raises(InfinityError) as caught:
                    score(t.node(u), t.node(v))
                assert str(caught.value) == f"jc_hybrid of {u} and {v} overflows"

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_near_max_tables_give_one_outcome_in_any_order(self, seed):
        # jc_hybrid walks the path of its first class first, and jac_anc sums
        # theta over set iteration orders; partial sums of these tables
        # overflow in some orders only, so each must give the exact sum of
        # its terms rounded once, or InfinityError where that is out of range
        rng = random.Random(seed)
        t, _ = random_taxonomy(rng, max_nodes=15, multi=0.5)
        classes = sorted(t.class_ids)
        values = (0.0, 1.0, -1.0, 0.9e308, -0.9e308, 1.7e308, -1.7e308)
        theta = smx.ThetaEstimator.from_table(t, {c: rng.choice(values) for c in classes})
        hybrid = smx.pairwise_measure("jc_hybrid", theta=theta)
        jac_anc = smx.pairwise_measure("jac_anc", theta=theta)
        outcome = lambda spec, u, v: _hexed(lambda: smx.eval_pairwise(spec, t, u, v, True))[0]
        for _ in range(15):
            u, v = rng.choice(classes), rng.choice(classes)
            a = t.mica(theta, u, v)
            edges = set(t.shortest_up_path_edges(u, a)) | set(t.shortest_up_path_edges(v, a))
            # at the default parameters a term is theta(child) - theta(parent)
            terms = [theta(x) - theta(y) for x, y in edges]
            try:
                want = float(sum(map(Fraction, terms))).hex()
            except OverflowError:  # an infinite term, or an exact sum out of range
                want = InfinityError
            assert outcome(hybrid, u, v) == outcome(hybrid, v, u) == want, (u, v)
            assert outcome(jac_anc, u, v) == outcome(jac_anc, v, u), (u, v)

    def test_jc_hybrid_huge_alpha_is_an_infinity_error(self, toy, toy_seco):
        # ((d + 1) / d) ** alpha leaves float range
        with pytest.raises(InfinityError, match="overflows"):
            ev("jc_hybrid", toy, "E", "F", toy_seco, alpha=1e308)

    def test_jc_hybrid_names_an_infinite_read_before_an_overflow(self, toy):
        # E's terms overflow a partial sum of math.fsum, and F's read is infinite
        table = {c: 0.0 for c in toy.class_ids}
        table[toy.node("E")], table[toy.node("A")] = 0.9e308, -0.9e308
        table[toy.node("F")] = math.inf
        spec = smx.pairwise_measure("jc_hybrid", theta=smx.ThetaEstimator.from_table(toy, table))
        e, f = toy.node("E"), toy.node("F")
        with pytest.raises(InfiniteICError, match="class F "):
            smx.eval_pairwise(spec, toy, e, f)
        with pytest.raises(InfiniteICError, match="class F "):
            smx.pair_scorer(spec, toy)(e, f)

    def test_path_measures_refuse_redundant_taxonomy(self, chain_with_skip):
        spec = smx.pairwise_measure("rada")
        c0 = chain_with_skip.node("c0")
        c4 = chain_with_skip.node("c4")
        with pytest.raises(RedundancyError):
            smx.eval_pairwise(spec, chain_with_skip, c0, c4)
        assert (
            smx.eval_pairwise(spec, chain_with_skip, c0, c4, allow_unreduced=True).value
            == 1
        )

    def test_ic_measures_tolerate_redundant_taxonomy(self, chain_with_skip):
        theta = smx.seco_ic(chain_with_skip)
        spec = smx.pairwise_measure("lin", theta=theta)
        value = smx.eval_pairwise(
            spec, chain_with_skip, chain_with_skip.node("c0"), chain_with_skip.node("c2")
        )
        assert 0.0 <= value.value <= 1.0


class TestProperties:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_tree_depth_identities(self, seed):
        rng = random.Random(seed)
        t, _ = random_taxonomy(rng, max_nodes=30, tree=True)
        rada = smx.pairwise_measure("rada")
        wp = smx.pairwise_measure("wu_palmer")
        nodes = sorted(t.class_ids)
        for _ in range(10):
            u, v = rng.choice(nodes), rng.choice(nodes)
            lca = t.deepest_common_ancestor(u, v)
            expected = t.depth(u) + t.depth(v) - 2 * t.depth(lca)
            assert smx.eval_pairwise(rada, t, u, v).value == expected
            if t.depth(u) + t.depth(v) > 0:
                assert smx.eval_pairwise(wp, t, u, v).value == pytest.approx(
                    2 * t.depth(lca) / (t.depth(u) + t.depth(v)), abs=1e-12
                )

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_grasm_never_exceeds_lin(self, seed):
        rng = random.Random(seed)
        t, _ = random_taxonomy(rng, max_nodes=40, multi=0.5)
        theta = smx.seco_ic(t)
        lin = smx.pairwise_measure("lin", theta=theta)
        grasm = smx.pairwise_measure("lin_grasm", theta=theta)
        nodes = sorted(t.class_ids)
        for _ in range(20):
            u, v = rng.choice(nodes), rng.choice(nodes)
            assert (
                smx.eval_pairwise(grasm, t, u, v).value
                <= smx.eval_pairwise(lin, t, u, v).value + 1e-12
            )

    def test_fresh_leaves_leave_intentional_measures_unchanged(self, toy, toy_seco):
        base_pairs = [
            ("A", "root"), ("B", "root"), ("C", "A"),
            ("D", "A"), ("E", "C"), ("F", "B"),
        ]
        grown = taxonomy_from_pairs(base_pairs + [("newE", "E"), ("newD", "D")])
        frozen = {
            c: toy_seco(toy.node(grown.label(c)))
            for c in grown.class_ids
            if grown.label(c) in {"root", "A", "B", "C", "D", "E", "F"}
        }
        for name in ("newE", "newD"):
            node = grown.node(name)
            parent = next(iter(grown.parents(node)))
            frozen[node] = frozen[parent] + 1.0
        theta_old = toy_seco
        theta_new = smx.ThetaEstimator.from_table(grown, frozen)
        for name in ("cmatch", "dice_anc", "tversky_ratio", "rodriguez_egenhofer",
                     "bulskov", "sanchez"):
            before = ev(name, toy, "E", "D").value
            after = ev(name, grown, "E", "D").value
            assert before == pytest.approx(after, abs=1e-12), name
        for name in ("resnik", "lin", "jiang_conrath", "faith", "nunivers"):
            before = ev(name, toy, "E", "D", theta_old).value
            after = ev(name, grown, "E", "D", theta_new).value
            assert before == pytest.approx(after, abs=1e-12), name

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_symmetry_under_random_swaps(self, seed, toy_graph):
        rng = random.Random(seed)
        t, _ = random_taxonomy(rng, max_nodes=25)
        t, _ = smx.transitive_reduction(t)
        theta = smx.seco_ic(t)
        classes = sorted(t.class_ids)
        picks = {
            f"i{k}": frozenset({rng.choice(classes)}) for k in range(6)
        }
        usage = smx.class_usage(t, smx.AnnotationSet(assignments=picks))
        nodes = sorted(t.class_ids)
        for name, info in MEASURES.items():
            spec = smx.pairwise_measure(
                name,
                theta=theta if info.needs_theta else None,
                usage=usage if info.needs_usage else None,
            )
            if not smx.is_symmetric(spec):
                continue
            for _ in range(5):
                u, v = rng.choice(nodes), rng.choice(nodes)
                try:
                    a = smx.eval_pairwise(spec, t, u, v).value
                    b = smx.eval_pairwise(spec, t, v, u).value
                except UsageError:
                    continue
                assert a == pytest.approx(b, abs=1e-9), name


# parameter points of the rows whose symmetry depends on their parameters,
# symmetric non-default points among them
SYMMETRY_GRID = (
    [
        ("tversky_ratio", {"alpha": a, "beta": b})
        for a, b in (
            (1.0, 1.0), (2.0, 2.0), (0.0, 0.0), (0.3, 0.3), (2.0, 0.5), (0.0, 1.0), (1.0, 0.0)
        )
    ]
    + [
        ("tversky_contrast", {"gamma": g, "alpha": a, "beta": b})
        for g in (0.0, 1.0, 2.5)
        for a, b in ((1.0, 1.0), (2.0, 2.0), (0.0, 0.0), (2.0, 0.5), (0.0, 1.0))
    ]
    + [("rodriguez_egenhofer", {"gamma": g}) for g in (0.0, 0.1, 0.25, 0.5, 0.75, 1.0)]
    + [("bulskov", {"alpha": a}) for a in (0.0, 0.25, 0.5, 0.9, 1.0)]
)


class TestSymmetryFromForms:
    @pytest.mark.parametrize("name, params", SYMMETRY_GRID)
    def test_declared_exactly_when_no_swapped_pair_differs(self, name, params):
        spec = smx.pairwise_measure(name, **params)
        differs = False
        for seed in range(4):
            t, _ = random_taxonomy(random.Random(seed), max_nodes=30, multi=0.5)
            nodes = sorted(t.class_ids)
            differs = differs or any(
                abs(smx.eval_pairwise(spec, t, u, v).value - smx.eval_pairwise(spec, t, v, u).value)
                > 1e-9
                for u in nodes
                for v in nodes
            )
        assert smx.is_symmetric(spec) is not differs


class TestFormRowOracles:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        alpha=st.floats(0.0, 3.0),
        beta=st.floats(0.0, 3.0),
        gamma=st.floats(0.0, 1.0),
    )
    def test_form_rows_match_published_formulas(self, seed, alpha, beta, gamma):
        rng = random.Random(seed)
        t, _ = random_taxonomy(rng, max_nodes=40)
        theta = smx.seco_ic(t)
        nodes = sorted(t.class_ids)
        pairs = [(rng.choice(nodes), rng.choice(nodes)) for _ in range(12)]
        pairs += [(t.root, t.root), (pairs[0][0], pairs[0][0])]
        configs = [(name, {}) for name in FORM_ROWS] + [
            ("tversky_ratio", {"alpha": alpha, "beta": beta}),
            ("rodriguez_egenhofer", {"gamma": gamma}),
            ("tversky_contrast", {"gamma": gamma, "alpha": alpha, "beta": beta}),
        ]
        for name, params in configs:
            info = MEASURES[name]
            spec = smx.pairwise_measure(
                name, theta=theta if info.needs_theta else None, **params
            )
            for u, v in pairs:
                got = smx.eval_pairwise(spec, t, u, v)
                value, degenerate = form_row_oracle(
                    name, t, theta, u, v, dict(spec.params)
                )
                assert abs(got.value - value) <= 1e-12, (name, params)
                assert got.degenerate == degenerate, (name, params)


def _outcome(fill):
    """(result, None) or (None, the SmxError subclass fill raised)."""
    try:
        return fill(), None
    except SmxError as exc:
        return None, type(exc)


def _cell_fields(mv):
    value = "nan" if math.isnan(mv.value) else mv.value
    return value, mv.polarity, mv.normalized, mv.degenerate


def _scored(score, u, v):
    """The fields of score(u, v), or the type and message of the SmxError it
    raised."""
    try:
        return _cell_fields(score(u, v))
    except SmxError as exc:
        return type(exc), str(exc)


class TestPairScorer:
    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        reduce=st.booleans(),
        allow_unreduced=st.booleans(),
        tied_theta=st.booleans(),
        unknown=st.booleans(),
    )
    # classes 2 and 8 are row and column classes, so their theta reads are
    # reused across rows, and lin's first undefined MICA is at row 1, column 2
    @example(seed=47, reduce=False, allow_unreduced=False, tied_theta=True, unknown=False)
    def test_equals_eval_pairwise_over_a_grid(
        self, seed, reduce, allow_unreduced, tied_theta, unknown
    ):
        # one scorer per spec over every (u, v) of us x vs, row by row
        rng = random.Random(seed)
        t, _ = random_taxonomy(rng, max_nodes=30, multi=0.6)
        if reduce:
            t, _ = smx.transitive_reduction(t)
        classes = sorted(t.class_ids)
        # few instances on few classes: tied usage counts, unused classes
        assignments = {
            f"i{k}": frozenset(rng.sample(classes, rng.randint(1, 2)))
            for k in range(rng.randint(1, 4))
        }
        usage = smx.class_usage(t, smx.AnnotationSet(assignments))
        if tied_theta:
            values = (0.0, 1.0, 2.0, math.inf)
            theta = smx.ThetaEstimator.from_table(t, {c: rng.choice(values) for c in classes})
        else:
            theta = smx.resnik_extrinsic_ic(t, usage)
        pool = classes + [-1] if unknown else classes
        us = rng.sample(pool, rng.randint(1, min(6, len(pool))))
        vs = rng.sample(pool, rng.randint(1, min(6, len(pool))))
        configs = [(name, {}) for name in sorted(MEASURES)] + [("slimani", {"lam": 0.0})]
        for name, params in configs:
            info = MEASURES[name]
            spec = smx.pairwise_measure(
                name,
                theta=theta if info.needs_theta else None,
                usage=usage if info.needs_usage else None,
                **params,
            )
            score = smx.pair_scorer(spec, t, allow_unreduced)
            direct = lambda u, v: smx.eval_pairwise(spec, t, u, v, allow_unreduced)
            got = [[_scored(score, u, v) for v in vs] for u in us]
            assert got == [[_scored(direct, u, v) for v in vs] for u in us], name

    def test_infinite_theta_at_the_mica_fails_alike(self):
        # both paths read theta(u), theta(v) and then theta at the MICA ranked
        # by raw values, so a failing cell names the same class in each
        def failure(fill):
            try:
                fill()
            except SmxError as exc:
                return type(exc), str(exc)
            return None

        for seed in range(40):
            rng = random.Random(seed)
            t, _ = random_taxonomy(rng, max_nodes=20, multi=0.6)
            classes = sorted(t.class_ids)
            values = (0.5, 1.0, 2.0, math.inf)
            theta = smx.ThetaEstimator.from_table(t, {c: rng.choice(values) for c in classes})
            for name in sorted(MEASURES):
                if not MEASURES[name].needs_theta:
                    continue
                spec = smx.pairwise_measure(name, theta=theta)
                for u in classes:
                    for v in classes:
                        assert failure(lambda: smx.pair_scorer(spec, t)(u, v)) == failure(
                            lambda: smx.eval_pairwise(spec, t, u, v)
                        ), (seed, name, t.label(u), t.label(v))

    def test_tied_deepest_common_ancestors_break_by_label(self):
        # a1 and a2 are both deepest common ancestors of u and v, but u lies
        # two edges below a1 and one below a2: a1 gives 2/5, a2 would give 1/2
        t = taxonomy_from_pairs(
            [("a1", "root"), ("a2", "root"), ("x", "a1"), ("u", "x"), ("u", "a2"),
             ("v", "a1"), ("v", "a2")]
        )
        u, v = t.node("u"), t.node("v")
        wu_palmer = smx.pairwise_measure("wu_palmer")
        assert smx.eval_pairwise(wu_palmer, t, u, v).value == 0.4
        score = smx.pair_scorer(wu_palmer, t)
        assert [score(u, v), score(u, u)] == [
            smx.eval_pairwise(wu_palmer, t, u, v),
            smx.eval_pairwise(wu_palmer, t, u, u),
        ]

    def test_each_failure_kind_is_raised(self, chain_with_skip):
        t = chain_with_skip
        c0, c1, c4 = (t.node(n) for n in ("c0", "c1", "c4"))
        usage = smx.class_usage(t, smx.AnnotationSet({"i": frozenset({c1})}))
        wu_palmer = smx.pairwise_measure("wu_palmer")
        with pytest.raises(RedundancyError):
            smx.pair_scorer(wu_palmer, t)(c0, c1)
        assert smx.pair_scorer(wu_palmer, t, allow_unreduced=True)(c0, c1)
        with pytest.raises(UsageError):
            smx.pair_scorer(smx.pairwise_measure("jaccard_ext", usage=usage), t)(c1, c0)
        lin = smx.pairwise_measure("lin", theta=smx.resnik_extrinsic_ic(t, usage))
        score = smx.pair_scorer(lin, t)
        with pytest.raises(InfiniteICError):
            score(c4, c0)
        assert score(c1, c4)
        with pytest.raises(UnknownNodeError):
            score(c1, -1)

    def test_jaccard_ext_hand_values(self):
        t = taxonomy_from_pairs([("A", "root"), ("B", "root"), ("C", "root")])
        a, b, c = (t.node(n) for n in "ABC")
        # I(A) = {i1..i4} and I(B) = {i2..i5} share 3 of 5; I(C) = {i6}
        assignments = {"i1": {a}, "i2": {a, b}, "i3": {a, b}, "i4": {a, b}, "i5": {b}, "i6": {c}}
        usage = smx.class_usage(
            t, smx.AnnotationSet({k: frozenset(v) for k, v in assignments.items()})
        )
        spec = smx.pairwise_measure("jaccard_ext", usage=usage)
        want = {(a, b): 3 / 5, (a, c): 0.0, (a, a): 1.0, (c, c): 1.0}
        for (u, v), value in want.items():
            assert smx.eval_pairwise(spec, t, u, v).value == value
            assert smx.pair_scorer(spec, t)(u, v).value == value

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        reduce=st.booleans(),
        allow_unreduced=st.booleans(),
        tied_theta=st.booleans(),
        unknown=st.booleans(),
    )
    def test_equals_eval_pairwise_on_a_pair_list(
        self, seed, reduce, allow_unreduced, tied_theta, unknown
    ):
        # one scorer per spec over a list with repeated pairs, so each pair
        # after a failing one meets caches that earlier pairs filled
        rng = random.Random(seed)
        t, _ = random_taxonomy(rng, max_nodes=30, multi=0.6)
        if reduce:
            t, _ = smx.transitive_reduction(t)
        classes = sorted(t.class_ids)
        assignments = {
            f"i{k}": frozenset(rng.sample(classes, rng.randint(1, 2)))
            for k in range(rng.randint(1, 4))
        }
        usage = smx.class_usage(t, smx.AnnotationSet(assignments))
        if tied_theta:
            values = (0.0, 1.0, 2.0, math.inf)
            theta = smx.ThetaEstimator.from_table(t, {c: rng.choice(values) for c in classes})
        else:
            theta = smx.resnik_extrinsic_ic(t, usage)
        pool = classes + [-1] if unknown else classes
        pairs = [(rng.choice(pool), rng.choice(pool)) for _ in range(24)]
        configs = [(name, {}) for name in sorted(MEASURES)] + [("slimani", {"lam": 0.0})]
        for name, params in configs:
            info = MEASURES[name]
            spec = smx.pairwise_measure(
                name,
                theta=theta if info.needs_theta else None,
                usage=usage if info.needs_usage else None,
                **params,
            )
            score = smx.pair_scorer(spec, t, allow_unreduced)
            direct = lambda u, v: smx.eval_pairwise(spec, t, u, v, allow_unreduced)
            for u, v in pairs:
                assert _scored(score, u, v) == _scored(direct, u, v), (name, u, v)

    def test_blocked_spec_raises_when_called(self, chain_with_skip):
        t = chain_with_skip
        c0, c1 = t.node("c0"), t.node("c1")
        for name in sorted(MEASURES):
            if not MEASURES[name].path_based:
                continue
            spec = smx.pairwise_measure(name, theta=smx.seco_ic(t))
            score = smx.pair_scorer(spec, t)  # building raises nothing
            for u, v in ((c0, c1), (c0, -1), (-1, c1)):
                got = _scored(score, u, v)
                assert got[0] is RedundancyError, name
                assert got == _scored(lambda u, v: smx.eval_pairwise(spec, t, u, v), u, v)
            assert smx.pair_scorer(spec, t, allow_unreduced=True)(c0, c1)

    def test_unknown_class_is_named_as_eval_pairwise_names_it(self, toy, toy_seco):
        e = toy.node("E")
        for name in ("lin", "wu_palmer", "rada"):
            spec = smx.pairwise_measure(name, theta=toy_seco)
            score = smx.pair_scorer(spec, toy)
            direct = lambda u, v: smx.eval_pairwise(spec, toy, u, v)
            for u, v in ((e, -1), (-1, e), (-2, -1)):
                assert _scored(score, u, v) == _scored(direct, u, v)
                assert _scored(score, u, v)[0] is UnknownNodeError
            assert score(e, e) == smx.eval_pairwise(spec, toy, e, e)


def _plain_members(t, annotations):
    """{class: the instances with an annotated class at or below it}."""
    return {
        c: frozenset(
            i for i, classes in annotations.assignments.items()
            if any(c in t.ancestors(x) for x in classes)
        )
        for c in t.class_ids
    }


def _oracle_outcome(fill):
    """(result, None) or (None, the UsageError message fill raised)."""
    try:
        return fill(), None
    except UsageError as exc:
        return None, str(exc)


class TestExtensionalOracles:
    """jaccard_ext and damato_ext against plain instance sets, on random
    trees and DAGs whose sparse annotations leave many classes unused."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), tree=st.booleans(), reduce=st.booleans())
    def test_eval_and_scorer_match_oracle(self, seed, tree, reduce):
        rng = random.Random(seed)
        t, _ = random_taxonomy(rng, max_nodes=30, tree=tree)
        if reduce:
            t, _ = smx.transitive_reduction(t)
        ann = random_annotations(rng, t)
        members = _plain_members(t, ann)
        total = len(ann.assignments)
        usage = smx.class_usage(t, ann)
        classes = sorted(t.class_ids)
        us = rng.sample(classes, rng.randint(1, min(6, len(classes))))
        vs = rng.sample(classes, rng.randint(1, min(6, len(classes))))
        for name in ("jaccard_ext", "damato_ext"):
            spec = smx.pairwise_measure(name, usage=usage)
            for u in us:
                for v in vs:
                    want, want_error = _oracle_outcome(
                        lambda: brute_extensional(name, t, members, total, u, v)
                    )
                    got, got_error = _oracle_outcome(
                        lambda: smx.eval_pairwise(spec, t, u, v).value
                    )
                    assert got_error == want_error, name
                    if want_error is None:
                        assert abs(got - want) <= 1e-12, name
            want, want_error = _oracle_outcome(
                lambda: [[brute_extensional(name, t, members, total, u, v) for v in vs] for u in us]
            )
            score = smx.pair_scorer(spec, t)
            got, got_error = _oracle_outcome(lambda: [[score(u, v) for v in vs] for u in us])
            assert got_error == want_error, name
            if want_error is None:
                for got_row, want_row in zip(got, want):
                    assert all(abs(g.value - w) <= 1e-12 for g, w in zip(got_row, want_row)), name

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), tree=st.booleans())
    def test_bitsets_match_sets(self, seed, tree):
        rng = random.Random(seed)
        t, _ = random_taxonomy(rng, max_nodes=30, tree=tree)
        ann = random_annotations(rng, t)
        members = _plain_members(t, ann)
        # the two oracles agree, and the bitsets count as the sets do
        assert brute_class_usage(t, ann) == members
        usage = smx.class_usage(t, ann)
        assert usage.total == len(ann.assignments)
        for u in t.class_ids:
            assert usage.count(u) == len(members[u])
            for v in t.class_ids:
                assert usage.shared(u, v) == len(members[u] & members[v])
