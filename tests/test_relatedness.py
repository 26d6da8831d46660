import io
import math
import os
import random
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import smx
from smx.cli import main
from smx.errors import ContractError, DivergenceError, InfinityError, UnknownNodeError

from helpers import (
    brute_adjacency,
    brute_neighbours,
    brute_reachable,
    brute_unconstrained,
    dense_hitting_time,
    dense_simrank,
    graph_from_pairs,
    random_taxonomy,
    two_table_wsp,
    unidirectional_wsp,
)


def graph_of(text):
    return smx.parse_graph(io.BytesIO(text.encode("utf-8")))


def monte_carlo_hitting(model, u, v, rng, walks=20_000, cap=100_000):
    """Simulated average first-passage time, independent of the solver."""
    total_steps = 0
    for _ in range(walks):
        state = u
        steps = 0
        while state != v:
            transitions = model.transitions(state)
            pick = rng.random()
            acc = 0.0
            for target, p in transitions:
                acc += p
                if pick <= acc:
                    state = target
                    break
            else:
                state = transitions[-1][0]
            steps += 1
            if steps > cap:
                raise AssertionError("walk did not absorb")
        total_steps += steps
    return total_steps / walks


def random_strongly_connected(rng, max_nodes=15):
    """Hamiltonian cycle plus random chords keeps the digraph strongly
    connected by construction."""
    n = rng.randint(3, max_nodes)
    lines = []
    for i in range(n):
        lines.append(f"v{i}\tnext\tv{(i + 1) % n}")
    for _ in range(rng.randint(0, 2 * n)):
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            lines.append(f"v{a}\tlink\tv{b}")
    return graph_of("\n".join(sorted(set(lines))))


def random_walk_graph(rng, irreducible, max_nodes=9):
    """Weighted random digraph. A Hamiltonian cycle makes it strongly
    connected; otherwise the last node is a sink that some node steps to."""
    n = rng.randint(2, max_nodes)
    edges = {}
    if irreducible:
        for i in range(n):
            edges[i, (i + 1) % n] = "next"
    else:
        edges[rng.randrange(n - 1), n - 1] = "next"
    for _ in range(rng.randint(0, 2 * n)):
        a, b = rng.randrange(n - 1 + irreducible), rng.randrange(n)
        edges.setdefault((a, b), "link")
    lines = [f"v{a}\t{p}\tv{b}\t{rng.choice((0.5, 1, 2, 3))}" for (a, b), p in edges.items()]
    return graph_of("\n".join(sorted(lines)))


def random_simrank_graph(rng, max_nodes=12):
    """Two-predicate digraph that may hold self-loops, parallel edges,
    isolated nodes and nodes without in-edges."""
    n = rng.randint(1, max_nodes)
    edges = {
        (rng.randrange(n), rng.choice("pq"), rng.randrange(n))
        for _ in range(rng.randint(0, 3 * n))
    }
    return smx.SemanticGraph(
        labels=[f"v{i}" for i in range(n)], classes=(), instances=range(n),
        predicates="pq", edges=edges,
    )


def random_wsp_graph(rng, max_nodes=14, reciprocal=False):
    """Three-predicate graph for shortest paths. It may hold self-loops,
    parallel edges under two predicates, isolated nodes and two components,
    with no edge weights or with weights that include 0. With reciprocal,
    most edges also get their reverse under the same predicate and weight,
    as in a relational graph whose relations hold both ways."""
    n = rng.randint(2, max_nodes)
    split = rng.randint(1, n) if rng.random() < 0.5 else n
    isolated = set(rng.sample(range(n), rng.randint(0, 2)))
    edges = set()
    for _ in range(rng.randint(0, 3 * n)):
        a = rng.randrange(n)
        group = range(split) if a < split else range(split, n)
        b = a if rng.random() < 0.1 else rng.choice(group)
        if a in isolated or b in isolated:
            continue
        predicates = rng.sample("pqr", 2) if rng.random() < 0.2 else [rng.choice("pqr")]
        edges.update((a, p, b) for p in predicates)
    mirrored = set()
    if reciprocal:
        mirrored = {(b, p, a) for a, p, b in sorted(edges) if rng.random() < 0.7} - edges
        edges |= mirrored
    weights = None
    if rng.random() < 0.6:
        weights = {e: rng.choice((0.0, 0.1, 0.3, 1.0, 2.7, 7.0)) for e in edges}
        for b, p, a in mirrored:
            weights[b, p, a] = weights[a, p, b]
    return smx.SemanticGraph(
        labels=[f"v{i}" for i in range(n)], classes=(), instances=range(n),
        predicates="pqr", edges=edges, edge_weights=weights,
    )


def chorded_ring(rng, reciprocal=False):
    """A few hundred nodes on an undirected ring under one predicate, plus
    random chords under three, so most pairs lie far apart on the ring and
    the two frontiers of a search grow large before they meet. Weights
    include 0; with reciprocal, most chords also get their reverse under
    the same predicate and weight."""
    n = rng.randint(200, 400)
    weight = lambda: rng.choice((0.0, 0.1, 0.3, 1.0, 2.7, 7.0))
    weights = {(i, "p", (i + 1) % n): weight() for i in range(n)}
    for _ in range(rng.randint(n // 8, n)):
        a, b = rng.randrange(n), rng.randrange(n)
        edge = (a, rng.choice("pqr"), b)
        weights.setdefault(edge, weight())
        if reciprocal and rng.random() < 0.7:
            weights.setdefault((b, edge[1], a), weights[edge])
    return smx.SemanticGraph(
        labels=[f"v{i}" for i in range(n)], classes=(), instances=range(n),
        predicates="pqr", edges=weights, edge_weights=weights,
    )


def ring(n, closed=True):
    edges = [(i, "next", (i + 1) % n) for i in range(n if closed else n - 1)]
    return smx.SemanticGraph(
        labels=[f"v{i}" for i in range(n)], classes=(), instances=range(n),
        predicates=("next",), edges=edges,
    )


class TestWeightedShortestPath:
    def test_uniform_matches_taxonomy_distance(self, toy_graph, toy):
        wsp = smx.weighted_shortest_path(
            toy_graph, smx.PredicateWeightScheme(), toy_graph.node("E"), toy_graph.node("D")
        )
        assert wsp == 3.0

    def test_self_distance(self, toy_graph):
        e = toy_graph.node("E")
        assert smx.weighted_shortest_path(toy_graph, smx.PredicateWeightScheme(), e, e) == 0.0

    def test_predicate_weights_can_reroute(self):
        g = graph_of(
            "Cat\tsubClassOf\tAnimal\nMouse\tsubClassOf\tAnimal\nCat\thunts\tMouse\n"
        )
        scheme = smx.PredicateWeightScheme(weights={"subClassOf": 1.0, "hunts": 5.0})
        got = smx.weighted_shortest_path(g, scheme, g.node("Cat"), g.node("Mouse"))
        assert got == 2.0

    def test_explicit_edge_weights_multiply(self):
        g = graph_of("a\trel\tb\t4\nb\trel\tc\t1\n")
        scheme = smx.PredicateWeightScheme(weights={"rel": 0.5})
        assert smx.weighted_shortest_path(g, scheme, g.node("a"), g.node("c")) == 2.5

    def test_unreachable_returns_signal(self):
        g = graph_of("a\trel\tb\nc\trel\td\n")
        assert (
            smx.weighted_shortest_path(g, smx.PredicateWeightScheme(), g.node("a"), g.node("c"))
            is None
        )

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_symmetry_triangle_and_bfs_oracle(self, seed):
        rng = random.Random(seed)
        _, pairs = random_taxonomy(rng, max_nodes=30)
        g = graph_from_pairs(pairs)
        scheme = smx.PredicateWeightScheme()
        nodes = sorted(g.classes)
        chosen = [rng.choice(nodes) for _ in range(3)]
        a, b, c = chosen
        dab = smx.weighted_shortest_path(g, scheme, a, b)
        dba = smx.weighted_shortest_path(g, scheme, b, a)
        dac = smx.weighted_shortest_path(g, scheme, a, c)
        dcb = smx.weighted_shortest_path(g, scheme, c, b)
        assert dab == dba
        assert dab <= dac + dcb + 1e-9
        assert dab == brute_unconstrained(pairs, g.label(a), g.label(b))

    def test_reversed_endpoints_agree_bit_for_bit(self):
        # 0.7 + 0.6 + 0.2 rounds to 1.5 or to 1.4999999999999998 depending
        # on the node at which the two searches meet
        weights = {(2, "p", 0): 0.7, (1, "p", 2): 0.6, (1, "p", 3): 0.2, (3, "p", 1): 0.7}
        g = smx.SemanticGraph(
            labels=["v0", "v1", "v2", "v3"], classes=(), instances=range(4),
            predicates="p", edges=weights, edge_weights=weights,
        )
        scheme = smx.PredicateWeightScheme()
        there = smx.weighted_shortest_path(g, scheme, 0, 3)
        assert there == smx.weighted_shortest_path(g, scheme, 3, 0)
        assert math.isclose(there, 1.5, rel_tol=1e-15)

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_unidirectional_oracle_and_is_symmetric(self, seed):
        rng = random.Random(seed)
        g = random_wsp_graph(rng)
        scheme = smx.PredicateWeightScheme(
            weights={p: rng.choice((0.0, 0.25, 1.0, 1.3, 4.0)) for p in "pq"},
            default=rng.choice((0.0, 1.0, 0.7)),
        )
        for u in range(g.n_nodes):
            for v in range(g.n_nodes):
                got = smx.weighted_shortest_path(g, scheme, u, v)
                expected = unidirectional_wsp(g, scheme, u, v)
                assert (got is None) == (expected is None)
                if expected is not None:
                    assert math.isclose(got, expected, rel_tol=1e-12, abs_tol=0.0)
                back = smx.weighted_shortest_path(g, scheme, v, u)
                assert got == back

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), reciprocal=st.booleans())
    def test_bit_identical_to_two_table_search(self, seed, reciprocal):
        # the neighbour rows drop repeated triples and multiply by 1.0 on
        # unweighted graphs; neither may move a single bit of any cost
        rng = random.Random(seed)
        g = random_wsp_graph(rng, reciprocal=reciprocal)
        scheme = smx.PredicateWeightScheme(
            weights={p: rng.choice((0.0, 0.25, 1.0, 1.3, 4.0)) for p in "pq"},
            default=rng.choice((0.0, 1.0, 0.7)),
        )
        for u in range(g.n_nodes):
            for v in range(g.n_nodes):
                got = smx.weighted_shortest_path(g, scheme, u, v)
                expected = two_table_wsp(g, scheme, u, v)
                assert (got is None and expected is None) or got == expected

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), reciprocal=st.booleans())
    def test_bit_identical_to_two_table_search_on_a_large_graph(self, seed, reciprocal):
        # labels are dropped mostly once the two frontiers are far apart,
        # which takes a larger graph than the random ones above
        rng = random.Random(seed)
        g = chorded_ring(rng, reciprocal)
        scheme = smx.PredicateWeightScheme(
            weights={p: rng.choice((0.0, 0.25, 1.0, 1.3, 4.0)) for p in "pq"},
            default=rng.choice((0.0, 1.0, 0.7)),
        )
        for _ in range(25):
            u, v = rng.randrange(g.n_nodes), rng.randrange(g.n_nodes)
            got = smx.weighted_shortest_path(g, scheme, u, v)
            assert got == two_table_wsp(g, scheme, u, v)
            assert got == smx.weighted_shortest_path(g, scheme, v, u)


class TestOverflowingCost:
    """A pair joined only by paths whose float cost overflows is reported
    as InfinityError, not as unreachable."""

    scheme = smx.PredicateWeightScheme()

    def test_overflow_is_not_unreachable(self):
        g = graph_of("a\tlinks\tb\t1e308\nb\tlinks\tc\t1e308\n")
        a, b, c = map(g.node, "abc")
        assert smx.weighted_shortest_path(g, self.scheme, a, b) == 1e308
        for u, v in ((a, c), (c, a)):
            with pytest.raises(InfinityError, match=f"between {g.label(u)} and {g.label(v)} "):
                smx.weighted_shortest_path(g, self.scheme, u, v)

    def test_finite_path_beside_an_overflowing_one(self):
        g = graph_of(
            "a\tlinks\tb\t1e308\nb\tlinks\tc\t1e308\n"
            "a\tlinks\td\t1\nd\tlinks\tc\t2\nx\tlinks\ty\t1\n"
        )
        node = g.node
        assert smx.weighted_shortest_path(g, self.scheme, node("a"), node("c")) == 3.0
        assert smx.weighted_shortest_path(g, self.scheme, node("b"), node("d")) == 1e308 + 3.0
        assert smx.weighted_shortest_path(g, self.scheme, node("a"), node("x")) is None

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_two_table_oracle_with_overflowing_costs(self, seed):
        # the oracle reads an overflowing pair as unreachable (None), as the
        # search did before; the reachability closure tells the two apart
        rng = random.Random(seed)
        g = random_wsp_graph(rng)
        scheme = smx.PredicateWeightScheme(
            weights={p: rng.choice((1.0, 8e307, 1e308)) for p in "pq"},
            default=rng.choice((0.5, 1.7e308)),
        )
        undirected = {}
        for s, _, o in g.edges:
            undirected.setdefault(s, set()).add(o)
            undirected.setdefault(o, set()).add(s)
        for u in range(g.n_nodes):
            reached = brute_reachable(undirected, u)
            for v in range(g.n_nodes):
                expected = two_table_wsp(g, scheme, u, v)
                if expected is not None:
                    assert smx.weighted_shortest_path(g, scheme, u, v) == expected
                elif v in reached:
                    with pytest.raises(InfinityError):
                        smx.weighted_shortest_path(g, scheme, u, v)
                else:
                    assert smx.weighted_shortest_path(g, scheme, u, v) is None


class TestAdjacency:
    """The graph builds its out/in adjacency and its neighbour rows on the
    first relatedness read, in label-triple order; the taxonomic pipeline
    builds neither."""

    TEXT = (
        "A\tsubClassOf\troot\nB\tsubClassOf\troot\nC\tsubClassOf\tA\nD\tsubClassOf\tA\n"
        "E\tsubClassOf\tC\nE\tsubClassOf\troot\nF\tsubClassOf\tB\ng1\tisA\tE\n"
        "E\tpartOf\tF\n"
    )

    def test_taxonomic_pipeline_builds_none(self, tmp_path, monkeypatch):
        g = graph_of(self.TEXT)
        reduced, _ = smx.transitive_reduction(smx.taxonomic_reduction(g))
        seco = smx.seco_ic(reduced)
        specs = [smx.pairwise_measure("lin", theta=seco), smx.pairwise_measure("wu_palmer")]
        for spec in specs:
            for u in reduced.class_ids:
                for v in reduced.class_ids:
                    smx.eval_pairwise(spec, reduced, u, v)
        assert g._adjacency is None
        assert g._neighbour_rows is None

        serialized = []
        serialize = smx.ingest.serialize_graph
        monkeypatch.setattr(
            smx.ingest, "serialize_graph",
            lambda graph, **kw: serialized.append(graph) or serialize(graph, **kw),
        )
        path = tmp_path / "g.tsv"
        path.write_text(self.TEXT)
        assert main(["preprocess", "--graph", str(path), "--out", str(tmp_path / "r.tsv")]) == 0
        (cleaned,) = serialized
        assert cleaned._adjacency is None
        assert cleaned._neighbour_rows is None

    def test_built_once_on_first_query(self):
        g = graph_of(self.TEXT)
        scheme = smx.PredicateWeightScheme()
        assert g._adjacency is None
        assert g._neighbour_rows is None
        assert smx.weighted_shortest_path(g, scheme, g.node("E"), g.node("F")) == 1.0
        first, rows = g._adjacency, g._neighbour_rows
        assert first is not None and rows is not None
        smx.weighted_shortest_path(g, scheme, g.node("D"), g.node("g1"))
        # E reaches F over root and B at 0.5 a step, cheaper than partOf
        other = smx.PredicateWeightScheme(weights={"partOf": 3.0}, default=0.5)
        assert smx.weighted_shortest_path(g, other, g.node("E"), g.node("F")) == 1.5
        assert g._adjacency is first
        assert g._neighbour_rows is rows

    def test_unknown_node_is_rejected(self):
        g = graph_of(self.TEXT)
        for lookup in (g.label, g.out_edges, g.in_edges):
            for node in (-1, g.n_nodes):
                with pytest.raises(UnknownNodeError):
                    lookup(node)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), simrank_graph=st.booleans())
    def test_matches_label_order_oracle(self, seed, simrank_graph):
        # labels v0 ... v13 sort v10 before v2, so label order is not id order
        rng = random.Random(seed)
        g = random_simrank_graph(rng) if simrank_graph else random_wsp_graph(rng)
        out, inc = brute_adjacency(g)
        for node in range(g.n_nodes):
            assert g.out_edges(node) == tuple(out[node])
            assert g.in_edges(node) == tuple(inc[node])

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(("wsp", "reciprocal", "simrank")))
    def test_neighbour_rows_match_oracle(self, seed, kind):
        rng = random.Random(seed)
        if kind == "simrank":
            g = random_simrank_graph(rng)
        else:
            g = random_wsp_graph(rng, reciprocal=kind == "reciprocal")
        rows = brute_neighbours(g)
        assert g._neighbours() == tuple(map(tuple, rows))

    def test_first_use_from_four_threads(self):
        def graph():
            rng = random.Random(11)
            n = 3000
            edges = {(i, rng.choice("pqr"), rng.randrange(n)) for i in range(n) for _ in range(3)}
            return smx.SemanticGraph(
                labels=[f"v{i}" for i in range(n)], classes=(), instances=range(n),
                predicates="pqr", edges=edges,
                edge_weights={e: rng.choice((0.1, 0.3, 1.0, 2.7)) for e in sorted(edges)},
            )

        scheme = smx.PredicateWeightScheme(weights={"p": 0.5, "q": 1.3})
        rng = random.Random(5)
        pairs = [(rng.randrange(3000), rng.randrange(3000)) for _ in range(40)]
        single = graph()
        expected = [smx.weighted_shortest_path(single, scheme, u, v) for u, v in pairs]
        shared = graph()
        start = threading.Barrier(4, timeout=60)
        results = [None] * 4

        def work(k):
            start.wait()
            results[k] = [smx.weighted_shortest_path(shared, scheme, u, v) for u, v in pairs]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [expected] * 4
        assert shared._adjacency == single._adjacency
        assert shared._neighbour_rows == single._neighbour_rows


class TestDenseSizeGuards:
    """Each dense build computes its float64 footprint first and raises
    ContractError above DENSE_LIMIT_BYTES (2 GiB). numpy's constructors
    are replaced by ones that fail, so a guard that came too late fails
    the test instead of allocating tens of GiB."""

    N = 100_000

    @pytest.fixture(autouse=True)
    def refuse_tables(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a numpy array was allocated before the guard")

        for name in ("array", "empty", "eye", "full", "ones", "zeros"):
            monkeypatch.setattr(np, name, refuse)

    def test_limit_is_two_gib(self):
        assert smx.relatedness.DENSE_LIMIT_BYTES == 2 * 2**30

    def test_fundamental_matrix_of_large_ring(self):
        g = ring(self.N)
        match = r"fundamental matrix needs 4 float64 table\(s\) of 100000 x 100000, 298\.0 GiB"
        with pytest.raises(ContractError, match=match):
            smx.TransitionModel.from_graph(g)

    def test_simrank_of_large_ring_and_edgeless_graph(self):
        edgeless = smx.SemanticGraph(
            labels=[f"v{i}" for i in range(self.N)], classes=(), instances=range(self.N),
            predicates=(), edges=(),
        )
        match = r"simrank needs 3 float64 table\(s\) of 100000 x 100000, 223\.5 GiB"
        for g in (ring(self.N), edgeless):
            with pytest.raises(ContractError, match=match):
                smx.simrank(g)

    def test_reducible_solve_on_large_chain(self):
        g = ring(self.N, closed=False)
        model = smx.TransitionModel.from_graph(g)
        assert not model.irreducible
        match = r"hitting-time system needs 2 float64 table\(s\) of 99999 x 99999"
        with pytest.raises(ContractError, match=match):
            smx.hitting_time(model, 0, self.N - 1)

    def test_factorization_counts_its_peak_tables(self, monkeypatch):
        # 1000 x 1000 float64 is 8 MB a table: 2 tables fit, 4 do not
        monkeypatch.setattr(smx.relatedness, "DENSE_LIMIT_BYTES", 3 * 8 * 1000**2)
        with pytest.raises(ContractError, match=r"needs 4 float64 table\(s\) of 1000 x 1000"):
            smx.TransitionModel.from_graph(ring(1000))

    def test_reducible_solve_counts_its_peak_tables(self, monkeypatch):
        # an open chain of 1001 nodes solves over 1000 states: 1 table fits, 2 do not
        monkeypatch.setattr(smx.relatedness, "DENSE_LIMIT_BYTES", 3 * 8 * 1000**2 // 2)
        model = smx.TransitionModel.from_graph(ring(1001, closed=False))
        with pytest.raises(ContractError, match=r"needs 2 float64 table\(s\) of 1000 x 1000"):
            smx.hitting_time(model, 0, 1000)


def test_import_does_not_load_numpy():
    # fractions and decimal are imported lazily, by exact sums only
    src = Path(smx.__file__).resolve().parent.parent
    lazy = ("numpy", "fractions", "decimal")
    code = f"import sys, smx, smx.cli; print([m for m in {lazy!r} if m in sys.modules])"
    proc = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True,
    )
    assert proc.stdout.strip() == "[]"


class TestHittingTime:
    def test_two_node_swap(self):
        g = graph_of("a\tgoes\tb\nb\tgoes\ta\n")
        model = smx.TransitionModel.from_graph(g)
        assert smx.hitting_time(model, g.node("a"), g.node("b")) == pytest.approx(1.0)
        assert smx.commute_time(model, g.node("a"), g.node("b")) == pytest.approx(2.0)

    def test_branching_walk_solves_linear_system(self):
        # a steps to b or c evenly; c always returns to a
        g = graph_of("a\tgoes\tb\na\tgoes\tc\nc\tgoes\ta\n")
        model = smx.TransitionModel.from_graph(g)
        assert smx.hitting_time(model, g.node("a"), g.node("b")) == pytest.approx(3.0)

    def test_self_hitting_time_is_zero(self):
        g = graph_of("a\tgoes\tb\nb\tgoes\ta\n")
        model = smx.TransitionModel.from_graph(g)
        assert smx.hitting_time(model, g.node("a"), g.node("a")) == 0.0

    def test_unreachable_target_diverges(self):
        g = graph_of("a\tgoes\tb\nc\tgoes\ta\n")
        model = smx.TransitionModel.from_graph(g)
        with pytest.raises(DivergenceError):
            smx.hitting_time(model, g.node("a"), g.node("c"))

    def test_escape_into_sink_diverges(self):
        # from a the walk may fall into sink b and never reach c
        g = graph_of("a\tgoes\tb\na\tgoes\tc\nc\tgoes\ta\n")
        model = smx.TransitionModel.from_graph(g)
        with pytest.raises(DivergenceError):
            smx.hitting_time(model, g.node("a"), g.node("c"))

    def test_transition_rows_are_stochastic(self):
        g = graph_of("a\tgoes\tb\t3\na\tgoes\tc\t1\nb\tgoes\ta\nc\tgoes\ta\n")
        model = smx.TransitionModel.from_graph(g)
        probs = dict(model.transitions(g.node("a")))
        assert probs[g.node("b")] == pytest.approx(0.75)
        assert probs[g.node("c")] == pytest.approx(0.25)

    def test_zero_probability_step_is_not_taken(self):
        # the weight-0 edge into sink c is no step of the walk
        g = graph_of("a\tgoes\tb\t1\na\tgoes\tc\t0\nb\tgoes\ta\t1\n")
        model = smx.TransitionModel.from_graph(g)
        assert model.transitions(g.node("a")) == ((g.node("b"), 1.0),)
        assert smx.hitting_time(model, g.node("a"), g.node("b")) == pytest.approx(1.0)

    def test_a_row_whose_weights_overflow_keeps_its_steps(self):
        # cost 10 * weight 1e308 is inf as a float product
        g = graph_of("a\tgoes\tb\t1e308\nb\tgoes\ta\t1\n")
        model = smx.TransitionModel.from_graph(g, smx.PredicateWeightScheme({"goes": 10.0}))
        a, b = g.node("a"), g.node("b")
        assert model.transitions(a) == ((b, 1.0),)
        assert smx.hitting_time(model, a, b) == 1.0

    def test_a_row_whose_total_overflows_shares_it_exactly(self):
        # 1e308 + 1e308 is inf as a float sum
        g = graph_of(
            "a\tgoes\tb\t1e308\nb\tgoes\ta\t1\na\tgoes\tc\t1e308\nc\tgoes\ta\t1\n"
        )
        model = smx.TransitionModel.from_graph(g)
        assert model.transitions(g.node("a")) == ((g.node("b"), 0.5), (g.node("c"), 0.5))
        assert model.transitions(g.node("b")) == ((g.node("a"), 1.0),)

    def test_a_caller_cannot_change_a_row(self):
        # reducible, with sink b: hitting_time solves over the rows it reads
        g = graph_of("a\tgoes\tb\na\tgoes\tc\nc\tgoes\ta\n")
        model = smx.TransitionModel.from_graph(g)
        a, b, c = g.node("a"), g.node("b"), g.node("c")
        assert not model.irreducible
        with pytest.raises(AttributeError):
            model.transitions(a).append((a, 5.0))
        assert model.transitions(a) == ((b, 0.5), (c, 0.5))
        assert smx.hitting_time(model, a, b) == pytest.approx(3.0)

    @pytest.mark.parametrize("irreducible", [True, False])
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_dense_oracle(self, irreducible, seed):
        g = random_walk_graph(random.Random(seed), irreducible)
        model = smx.TransitionModel.from_graph(g)
        assert model.irreducible == irreducible
        n = g.n_nodes
        times = {(u, v): dense_hitting_time(model, u, v) for u in range(n) for v in range(n)}
        for (u, v), expected in times.items():
            round_trip = expected + times[v, u]
            if math.isinf(expected):
                with pytest.raises(DivergenceError):
                    smx.hitting_time(model, u, v)
            else:
                assert smx.hitting_time(model, u, v) == pytest.approx(expected, rel=1e-9)
            if math.isinf(round_trip):
                with pytest.raises(DivergenceError):
                    smx.commute_time(model, u, v)
            else:
                assert smx.commute_time(model, u, v) == pytest.approx(round_trip, rel=1e-9)

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_monte_carlo_within_five_percent(self, seed):
        rng = random.Random(seed)
        g = random_strongly_connected(rng, max_nodes=8)
        model = smx.TransitionModel.from_graph(g)
        nodes = list(range(g.n_nodes))
        u, v = rng.sample(nodes, 2)
        exact = smx.hitting_time(model, u, v)
        simulated = monte_carlo_hitting(model, u, v, rng, walks=6000)
        assert simulated == pytest.approx(exact, rel=0.05)


class TestUnknownEndpoints:
    @pytest.mark.parametrize("node", [-1, 2], ids=["negative", "n_nodes"])
    def test_every_query_names_the_endpoint(self, node):
        g = graph_of("a\tgoes\tb\nb\tgoes\ta\n")
        model = smx.TransitionModel.from_graph(g)
        scores = smx.simrank(g, iterations=5)
        queries = [
            model.transitions,
            lambda x: scores.score(x, 0),
            lambda x: scores.score(0, x),
            lambda x: smx.hitting_time(model, x, 0),
            lambda x: smx.weighted_shortest_path(g, smx.PredicateWeightScheme(), 0, x),
        ]
        for query in queries:
            with pytest.raises(UnknownNodeError) as caught:
                query(node)
            assert str(caught.value) == "endpoint is not a node of the graph"


class TestSimRank:
    def test_self_similarity(self, toy_graph):
        scores = smx.simrank(toy_graph, iterations=5)
        for node in range(toy_graph.n_nodes):
            assert scores.score(node, node) == 1.0

    def test_shared_parent_pair(self):
        g = graph_of("p\tfeeds\tx\np\tfeeds\ty\n")
        scores = smx.simrank(g, decay=0.8, iterations=20)
        assert scores.score(g.node("x"), g.node("y")) == pytest.approx(0.8)

    def test_no_in_edges_scores_zero(self):
        g = graph_of("a\trel\tb\nc\trel\td\n")
        scores = smx.simrank(g, iterations=10)
        assert scores.score(g.node("a"), g.node("c")) == 0.0

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        decay=st.sampled_from([0.3, 0.6, 0.8, 0.95]),
        iterations=st.integers(1, 25),
        tol=st.sampled_from([0.0, 1e-4]),
    )
    # the 4th delta is 1e-4 - 1.1e-17 in smx.simrank and 1e-4 + 1.7e-17 in the oracle
    @example(seed=1169439, decay=0.3, iterations=5, tol=1e-4)
    def test_matches_dense_oracle(self, seed, decay, iterations, tol):
        g = random_simrank_graph(random.Random(seed))
        scores = smx.simrank(g, decay=decay, iterations=iterations, tol=tol)
        expected, deltas = dense_simrank(g, decay, iterations, tol)
        if tol > 0 and scores.iterations != len(deltas):
            # rounding put one run's stopping delta on the other side of
            # tol, so that delta lies at tol; the oracle then runs for the
            # iterations smx ran
            stop = min(scores.iterations, len(deltas)) - 1
            assert abs(scores.deltas[stop] - tol) <= 1e-12
            assert abs(deltas[stop] - tol) <= 1e-12
            expected, deltas = dense_simrank(g, decay, scores.iterations, tol=-1.0)
        assert np.max(np.abs(scores.as_array() - expected)) <= 1e-12
        # at tol 0 the loop stops on an exactly unchanged table, and rounding
        # decides in which iteration a change of ~1e-17 becomes 0
        if tol > 0:
            assert scores.iterations == len(deltas)
        length = max(scores.iterations, len(deltas))
        padded = [np.pad(d, (0, length - len(d))) for d in (scores.deltas, deltas)]
        assert np.max(np.abs(padded[0] - padded[1])) <= 1e-12

    def test_decay_contract(self, toy_graph):
        with pytest.raises(ContractError):
            smx.simrank(toy_graph, decay=1.0)
        with pytest.raises(ContractError):
            smx.simrank(toy_graph, decay=0.0)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_iterates_monotone_and_bounded(self, seed):
        rng = random.Random(seed)
        g = random_strongly_connected(rng, max_nodes=10)
        previous = np.eye(g.n_nodes) * 0.0
        first = None
        for iterations in (1, 2, 4, 8):
            scores = smx.simrank(g, decay=0.8, iterations=iterations)
            table = scores.as_array()
            assert np.all(table >= -1e-12) and np.all(table <= 1.0 + 1e-12)
            if first is not None:
                assert np.all(table >= previous - 1e-12)
            previous = table
            first = True

    def test_deltas_shrink(self):
        g = graph_of("p\tfeeds\tx\np\tfeeds\ty\nx\tfeeds\tz\ny\tfeeds\tz\n")
        scores = smx.simrank(g, decay=0.8, iterations=40)
        deltas = scores.deltas
        assert all(b <= a + 1e-12 for a, b in zip(deltas, deltas[1:]))
        assert deltas[-1] < 1e-6
