import io
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import smx
from smx.errors import ContractError, InfiniteICError, InfinityError, UnknownNodeError

from helpers import brute_closure_map, brute_redundant_edges, random_taxonomy

APPROX = lambda x: pytest.approx(x, abs=1e-9)


def groups(t, *names_lists):
    return [frozenset(t.node(n) for n in names) for names in names_lists]


def ev(spec, t, u_names, v_names):
    U, V = groups(t, u_names, v_names)
    return smx.eval_groupwise(spec, t, U, V)


class TestDirect:
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
        t = smx.TaxonomyView.build(None, (0, 1, 8), ((1, 0), (8, 0)), {0: "r", 1: "x", 8: "y"})
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
