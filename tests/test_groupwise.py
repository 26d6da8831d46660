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
    UnknownNodeError,
)
from smx.groupwise import STRATEGIES
from smx.unify import FEATURES

from helpers import brute_closure_map, brute_redundant_edges, random_taxonomy, view_of

APPROX = lambda x: pytest.approx(x, abs=1e-9)


def groups(t, *names_lists):
    return [frozenset(t.node(n) for n in names) for names in names_lists]


def ev(spec, t, u_names, v_names):
    U, V = groups(t, u_names, v_names)
    return smx.eval_groupwise(spec, t, U, V)


class TestDirect:
    def test_rows_name_the_group_feature_they_read(self):
        # simui and nto count the closures; simgic sums theta over them
        reads = {"simui": "closure_counts", "nto": "closure_counts", "simgic": "closure_theta"}
        for name, key in reads.items():
            form = smx.groupwise.DIRECT[name]
            assert form.feature == key and f"feature='{key}'" in repr(form)
            assert form.info.feature is FEATURES[key].function
            assert form.info.needs_theta is (key == "closure_theta")

    def test_simui(self, toy):
        spec = smx.groupwise_measure("simui")
        assert ev(spec, toy, ["E"], ["D"]).value == APPROX(0.4)
        assert ev(spec, toy, ["E"], ["E"]).value == 1.0

    def test_nto(self, toy):
        spec = smx.groupwise_measure("nto")
        assert ev(spec, toy, ["E"], ["D"]).value == APPROX(2 / 3)

    def test_simgic(self, toy, toy_seco):
        spec = smx.groupwise_measure("simgic", theta=toy_seco)
        shared = sum(toy_seco(c) for c in toy.ancestors(toy.node("E")) & toy.ancestors(toy.node("D")))
        union = sum(toy_seco(c) for c in toy.ancestors(toy.node("E")) | toy.ancestors(toy.node("D")))
        assert ev(spec, toy, ["E"], ["D"]).value == APPROX(shared / union)
        assert ev(spec, toy, ["E"], ["D"]).value == pytest.approx(0.0981, abs=1e-3)

    def test_direct_redundancy_insensitive(self, toy, toy_seco):
        # annotating E and its ancestor C adds nothing: closures coincide
        for name, theta in (("simui", None), ("nto", None), ("simgic", toy_seco)):
            spec = smx.groupwise_measure(name, theta=theta)
            assert (
                ev(spec, toy, ["E"], ["D"]).value
                == ev(spec, toy, ["E", "C"], ["D"]).value
            )

    def test_direct_bounds_and_identity(self, toy, toy_seco):
        for name, theta in (("simui", None), ("nto", None), ("simgic", toy_seco)):
            spec = smx.groupwise_measure(name, theta=theta)
            value = ev(spec, toy, ["E", "F"], ["D", "B"])
            assert 0.0 <= value.value <= 1.0
            assert ev(spec, toy, ["E", "F"], ["E", "F"]).value == 1.0


class TestIndirect:
    def test_bma_hand_value(self, toy, toy_seco):
        lin = smx.pairwise_measure("lin", theta=toy_seco)
        spec = smx.groupwise_measure("bma", inner=lin)
        # explicit matrix aggregation: forward averages the row maxima of
        # {C,D} x {E}, backward is E's best match among {C,D}
        cell = lambda a, b: smx.eval_pairwise(lin, toy, toy.node(a), toy.node(b)).value
        forward = (cell("C", "E") + cell("D", "E")) / 2
        backward = max(cell("E", "C"), cell("E", "D"))
        assert ev(spec, toy, ["C", "D"], ["E"]).value == APPROX(
            (forward + backward) / 2
        )
        assert ev(spec, toy, ["C", "D"], ["E"]).value == pytest.approx(0.6594, abs=1e-3)

    def test_singleton_sets_reduce_to_inner(self, toy, toy_seco):
        lin = smx.pairwise_measure("lin", theta=toy_seco)
        inner = smx.eval_pairwise(lin, toy, toy.node("E"), toy.node("D")).value
        for strategy in ("avg", "max", "min", "avgmax", "bmm", "bma"):
            spec = smx.groupwise_measure(strategy, inner=lin)
            assert ev(spec, toy, ["E"], ["D"]).value == APPROX(inner)

    def test_avg_of_matrix(self, toy, toy_seco):
        lin = smx.pairwise_measure("lin", theta=toy_seco)
        spec = smx.groupwise_measure("avg", inner=lin)
        cells = [
            smx.eval_pairwise(lin, toy, toy.node(a), toy.node(b)).value
            for a in ("C", "D")
            for b in ("E", "F")
        ]
        assert ev(spec, toy, ["C", "D"], ["E", "F"]).value == APPROX(
            sum(cells) / 4
        )

    def test_empty_set_rejected(self, toy, toy_seco):
        lin = smx.pairwise_measure("lin", theta=toy_seco)
        spec = smx.groupwise_measure("bma", inner=lin)
        with pytest.raises(ContractError):
            smx.eval_groupwise(spec, toy, frozenset(), {toy.node("E")})

    def test_distance_inner_rejected_for_best_match(self, toy, toy_seco):
        dist = smx.pairwise_measure("jiang_conrath", theta=toy_seco)
        for strategy in ("max", "min", "avgmax", "bmm", "bma"):
            with pytest.raises(ContractError):
                smx.groupwise_measure(strategy, inner=dist)
        smx.groupwise_measure("avg", inner=dist)  # plain average is fine

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_bma_bmm_symmetry_and_ordering(self, seed):
        rng = random.Random(seed)
        t, _ = random_taxonomy(rng, max_nodes=25)
        theta = smx.seco_ic(t)
        lin = smx.pairwise_measure("lin", theta=theta)
        classes = sorted(t.class_ids)
        U = frozenset(rng.sample(classes, rng.randint(1, min(4, len(classes)))))
        V = frozenset(rng.sample(classes, rng.randint(1, min(4, len(classes)))))
        value = {
            s: smx.eval_groupwise(smx.groupwise_measure(s, inner=lin), t, U, V).value
            for s in ("avgmax", "bmm", "bma")
        }
        swapped = {
            s: smx.eval_groupwise(smx.groupwise_measure(s, inner=lin), t, V, U).value
            for s in ("bmm", "bma")
        }
        assert value["bmm"] == APPROX(swapped["bmm"])
        assert value["bma"] == APPROX(swapped["bma"])
        backward = smx.eval_groupwise(
            smx.groupwise_measure("avgmax", inner=lin), t, V, U
        ).value
        assert value["bmm"] >= value["bma"] - 1e-12
        assert value["bma"] >= min(value["avgmax"], backward) - 1e-12


class TestDirectOracles:
    """simui, nto and simgic against ancestor closures built by independent
    DFS (brute_closure_map), on random multi-parent DAGs, in both argument
    orders, root-only groups included."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        multi=st.sampled_from([0.3, 0.8]),
        reduce=st.booleans(),
        tied_theta=st.booleans(),
    )
    def test_match_brute_closures(self, seed, multi, reduce, tied_theta):
        rng = random.Random(seed)
        t, pairs = random_taxonomy(rng, max_nodes=25, multi=multi)
        if reduce:
            t, _ = smx.transitive_reduction(t)
            redundant = brute_redundant_edges(pairs)
            pairs = [edge for edge in pairs if edge not in redundant]
        closure = brute_closure_map(pairs)
        labels = sorted(closure)
        if tied_theta:
            # zero mass away from the root too, so unions of zero mass occur
            table = {t.node(c): rng.choice((0.0, 0.0, 0.5, 2.0)) for c in labels}
            table[t.root] = 0.0
            theta = smx.ThetaEstimator.from_table(t, table)
        else:
            theta = smx.seco_ic(t)
        mass = {c: theta(t.node(c)) for c in labels}
        specs = {
            name: smx.groupwise_measure(name, theta=theta) for name in ("simui", "nto", "simgic")
        }
        root = t.label(t.root)
        groups = [rng.sample(labels, rng.randint(1, min(4, len(labels)))) for _ in range(8)]
        groups += [[root], [root]]
        for _ in range(12):
            a, b = rng.choice(groups), rng.choice(groups)
            for left, right in ((a, b), (b, a)):
                cu = set().union(*(closure[c] for c in left))
                cv = set().union(*(closure[c] for c in right))
                shared, union = cu & cv, cu | cv
                got = {
                    name: smx.eval_groupwise(
                        spec, t, {t.node(c) for c in left}, {t.node(c) for c in right}
                    )
                    for name, spec in specs.items()
                }
                assert got["simui"].value == len(shared) / len(union)
                assert got["nto"].value == len(shared) / min(len(cu), len(cv))
                assert not got["simui"].degenerate and not got["nto"].degenerate
                union_mass = math.fsum(mass[c] for c in union)
                simgic = got["simgic"]
                assert simgic.degenerate == (union_mass == 0), (left, right)
                want = 0.0 if union_mass == 0 else math.fsum(mass[c] for c in shared) / union_mass
                assert abs(simgic.value - want) <= 1e-12, (left, right)


def _orders(group):
    """The group as a set, a list and a reversed list."""
    return set(group), list(group), list(reversed(group))


class TestErrorNaming:
    """An unknown class or an undefined theta raises the error of the
    per-class reads in id order, whatever the order the groups come in."""

    def test_unknown_class_names_least_id_of_u_then_v(self, toy, toy_seco):
        lin = smx.pairwise_measure("lin", theta=toy_seco)
        specs = [
            smx.groupwise_measure("simui"),
            smx.groupwise_measure("nto"),
            smx.groupwise_measure("simgic", theta=toy_seco),
            smx.groupwise_measure("bma", inner=lin),
        ]
        e, d = toy.node("E"), toy.node("D")
        # 1016 and 1009 iterate out of id order in a small set, and -1 and
        # -2 share a hash, so only an id-ordered check names the least id
        for group_u, group_v, named in (
            ([e, 1016, 1009], [d], 1009),
            ([e], [d, 1016, 1009], 1009),
            ([e, -2, -1], [d], -2),
            ([e], [-1, d, -2], -2),
            ([e, -1], [d, -3], -1),
        ):
            for spec in specs:
                for us in _orders(group_u):
                    for vs in _orders(group_v):
                        with pytest.raises(UnknownNodeError, match=f"node {named} is not"):
                            smx.eval_groupwise(spec, toy, us, vs)

    def test_simgic_overflowing_theta_sum_is_an_infinity_error(self, toy):
        # every value is finite, but a sum over them leaves float range
        table = {c: 0.0 if c == toy.root else 1e308 for c in toy.class_ids}
        spec = smx.groupwise_measure("simgic", theta=smx.ThetaEstimator.from_table(toy, table))
        with pytest.raises(InfinityError, match="overflows"):
            ev(spec, toy, ["E"], ["F"])

    def test_simgic_names_the_class_the_per_class_reads_name(self):
        # 8 and 1 race for one slot of a small set, so the union of A(1)
        # and A(8) iterates in the order the two were merged, and a set of
        # the two iterates 8 first
        t = view_of({0: "r", 1: "x", 8: "y"}, (0, 1, 8), ((1, 0), (8, 0)))
        theta = smx.ThetaEstimator.from_table(t, {0: 0.0, 1: math.inf, 8: math.inf})
        spec = smx.groupwise_measure("simgic", theta=theta)
        closure = set().union(t.ancestors(1), t.ancestors(8))
        with pytest.raises(InfiniteICError) as want:
            math.fsum([theta(c) for c in closure])
        assert "class x" in str(want.value)
        for us in _orders([8, 1]):
            for vs in ([0], [1], [8, 0]):
                with pytest.raises(InfiniteICError) as got:
                    smx.eval_groupwise(spec, t, us, vs)
                assert str(got.value) == str(want.value)


class TestOneScorerPerSpecAndView:
    """An aggregated spec keeps one pair scorer per (view, allow_unreduced),
    and its values and errors are those of a fresh spec on every call."""

    @staticmethod
    def count_scorers(monkeypatch):
        built = []
        real = smx.groupwise.pair_scorer

        def counting(spec, taxonomy, allow_unreduced=False):
            built.append((taxonomy, allow_unreduced))
            return real(spec, taxonomy, allow_unreduced)

        monkeypatch.setattr(smx.groupwise, "pair_scorer", counting)
        return built

    def test_one_scorer_per_view_and_flag(self, toy, toy_graph, monkeypatch):
        built = self.count_scorers(monkeypatch)
        other = smx.taxonomic_reduction(toy_graph)  # a second view of the same classes
        lin = smx.pairwise_measure("lin", theta=smx.seco_ic(toy))
        spec = smx.groupwise_measure("bma", inner=lin)
        names = ["A", "B", "C", "D", "E", "F"]
        rng = random.Random(7)
        for _ in range(40):
            for view in (toy, other):
                for flag in (False, True):
                    u, v = (rng.sample(names, rng.randint(1, 3)) for _ in range(2))
                    smx.eval_groupwise(spec, view, *groups(view, u, v), allow_unreduced=flag)
        assert len(built) == 4
        assert set(built) == {(toy, False), (toy, True), (other, False), (other, True)}
        # the direct measures score no pairs
        smx.eval_groupwise(smx.groupwise_measure("simui"), toy, *groups(toy, ["E"], ["D"]))
        assert len(built) == 4

    @staticmethod
    def outcome(spec, t, us, vs, flag):
        try:
            return smx.eval_groupwise(spec, t, us, vs, allow_unreduced=flag)
        except smx.errors.SmxError as error:
            return type(error), str(error)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_repeated_calls_match_a_fresh_spec(self, seed):
        # random views keep their redundant edges, so wu_palmer may refuse
        rng = random.Random(seed)
        t, _ = random_taxonomy(rng, max_nodes=25)
        theta = smx.seco_ic(t)
        inners = [
            smx.pairwise_measure("lin", theta=theta),
            smx.pairwise_measure("wu_palmer"),
            smx.pairwise_measure("resnik", theta=theta),
        ]
        classes = sorted(t.class_ids)
        calls = [
            [frozenset(rng.sample(classes, rng.randint(1, min(4, len(classes))))) for _ in "uv"]
            + [rng.random() < 0.5]
            for _ in range(10)
        ]
        for inner in inners:
            for strategy in STRATEGIES:
                kept = smx.groupwise_measure(strategy, inner=inner)
                for us, vs, flag in calls * 2:
                    fresh = smx.groupwise_measure(strategy, inner=inner)
                    assert self.outcome(kept, t, us, vs, flag) == self.outcome(
                        fresh, t, us, vs, flag
                    )

    def test_zero_usage_class_raises_again(self, toy, toy_graph):
        # only E and D are annotated, so F has zero usage and an undefined IC
        ann = smx.parse_annotations(io.BytesIO(b"g1\tE\ng2\tD\n"), toy_graph)
        theta = smx.resnik_extrinsic_ic(toy, smx.class_usage(toy, ann))
        lin = smx.pairwise_measure("lin", theta=theta)
        spec = smx.groupwise_measure("bma", inner=lin)
        e, d, f = toy.node("E"), toy.node("D"), toy.node("F")
        fresh = lambda us, vs: self.outcome(smx.groupwise_measure("bma", inner=lin), toy, us, vs, False)
        want = fresh({e}, {d, f})
        assert want[0] is InfiniteICError and "class F" in want[1]
        assert isinstance(fresh({e}, {d}), smx.MeasureValue)
        for _ in range(3):
            assert self.outcome(spec, toy, {e}, {d, f}, False) == want
            assert self.outcome(spec, toy, {e}, {d}, False) == fresh({e}, {d})

    def test_unreduced_view_raises_again(self, chain_with_skip):
        t = chain_with_skip
        spec = smx.groupwise_measure("max", inner=smx.pairwise_measure("rada_sim"))
        c0, c1, c4 = t.node("c0"), t.node("c1"), t.node("c4")
        allowed = smx.eval_groupwise(spec, t, {c0}, {c1, c4}, allow_unreduced=True)
        for _ in range(3):
            with pytest.raises(RedundancyError):
                smx.eval_groupwise(spec, t, {c0}, {c1, c4})
            assert smx.eval_groupwise(spec, t, {c0}, {c1, c4}, allow_unreduced=True) == allowed


NEAR_MAX = st.floats(min_value=1e307, max_value=sys.float_info.max)


@st.composite
def near_max_matrices(draw):
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    cell = st.one_of(NEAR_MAX, NEAR_MAX.map(lambda x: x / 3), NEAR_MAX.map(lambda x: -x))
    return [[draw(cell) for _ in range(cols)] for _ in range(rows)]


def _exact_strategy(name, matrix):
    rows = [[Fraction(c) for c in row] for row in matrix]
    cols = [list(col) for col in zip(*rows)]
    mean = lambda xs: sum(xs) / len(xs)
    forward, backward = mean([max(r) for r in rows]), mean([max(c) for c in cols])
    return {
        "avg": mean([c for row in rows for c in row]),
        "max": max(map(max, rows)),
        "min": min(map(min, rows)),
        "avgmax": forward,
        "bmm": max(forward, backward),
        "bma": (forward + backward) / 2,
    }[name]


def _plain_strategy(name, m):
    """Each aggregation as a plain float sum, which may overflow, and
    whether each mean it takes lies within the range of the values it
    averages, which one rounding can leave by an ulp."""

    def mean(values, total):
        value = total / len(values)
        return value, min(values) <= value <= max(values)

    cells = [c for row in m for c in row]
    rows, cols = list(map(max, m)), list(map(max, zip(*m)))
    forward, forward_in = mean(rows, sum(rows))
    backward, backward_in = mean(cols, sum(cols))
    halfway, halfway_in = mean((forward, backward), forward + backward)
    return {
        "avg": mean(cells, sum(map(sum, m))),
        "max": (max(cells), True),
        "min": (min(cells), True),
        "avgmax": (forward, forward_in),
        "bmm": (max(forward, backward), forward_in and backward_in),
        "bma": (halfway, forward_in and backward_in and halfway_in),
    }[name]


class TestAggregationRange:
    """A mean of finite cells is finite, close to the exact mean and within
    the cells' range, also where the plain float sum overflows or rounds
    out of that range; where the plain sum is finite and each of its means
    lies within the range of what it averages, the value is that sum's, to
    the bit."""

    @pytest.mark.parametrize("name", list(STRATEGIES))
    @settings(max_examples=60, deadline=None)
    @given(matrix=near_max_matrices())
    # equal cells whose plain mean reads 0.10000000000000002 under avg, and
    # under avgmax and bmm on the column
    @example(matrix=[[0.1, 0.1, 0.1]])
    @example(matrix=[[0.1], [0.1], [0.1]])
    def test_near_max_cells(self, name, matrix):
        got = STRATEGIES[name](matrix)
        assert math.isfinite(got)
        cells = [c for row in matrix for c in row]
        scale = max(map(abs, cells))
        assert abs(Fraction(got) - _exact_strategy(name, matrix)) <= Fraction(1e-14) * Fraction(scale)
        plain, in_range = _plain_strategy(name, matrix)
        if math.isfinite(plain) and in_range:
            assert got == plain
        assert min(cells) <= got <= max(cells)

    @pytest.mark.parametrize("name", ["avg", "avgmax", "bmm", "bma"])
    def test_overflowing_sum_of_the_cli_cells(self, name):
        # the cells of avg:tversky_contrast:gamma=4e307 on {D, E} x {D, E}
        matrix = [[1.2e308, 8e307], [8e307, 1.6e308]]
        got = STRATEGIES[name](matrix)
        assert 8e307 <= got <= 1.6e308
        assert got == pytest.approx(float(_exact_strategy(name, matrix)), rel=1e-15)
