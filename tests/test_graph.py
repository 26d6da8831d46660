import random

import pytest
from hypothesis import given, settings, strategies as st

import smx
from smx.cli import main
from smx.errors import ContractError, CycleError, UnknownNodeError
from smx.graph import SUBCLASS_OF, VIRTUAL_ROOT, SemanticGraph, TaxonomyView

from helpers import (
    brute_ancestors,
    brute_closure_map,
    brute_depth,
    brute_descendants,
    brute_ncca,
    brute_pekar_staab,
    brute_redundant_edges,
    brute_shortest_up_path,
    brute_up_distances,
    brute_up_path_stats,
    brute_up_paths,
    brute_via_lca,
    brute_wu_palmer,
    children_of,
    graph_from_pairs,
    parents_of,
    random_taxonomy,
    relabelled,
    taxonomy_from_pairs,
    view_of,
)

VIA = smx.AncestorConstraint.VIA_LCA


def labels(t, nodes):
    return {t.label(n) for n in nodes}


class TestToyQueries:
    def test_ancestors_inner_node(self, toy):
        assert labels(toy, toy.ancestors(toy.node("E"))) == {"E", "C", "A", "root"}

    def test_ancestors_root_is_trivial(self, toy):
        assert labels(toy, toy.ancestors(toy.node("root"))) == {"root"}

    def test_ancestors_d(self, toy):
        assert labels(toy, toy.ancestors(toy.node("D"))) == {"D", "A", "root"}

    def test_descendants(self, toy):
        assert labels(toy, toy.descendants(toy.node("A"))) == {"A", "C", "D", "E"}
        assert labels(toy, toy.descendants(toy.node("E"))) == {"E"}
        assert len(toy.descendants(toy.node("root"))) == 7

    def test_depth(self, toy):
        assert toy.depth(toy.node("E")) == 3
        assert toy.depth(toy.node("root")) == 0
        assert toy.max_depth == 3

    def test_depth_uses_longest_path(self):
        # an extra X < Y edge opens the longer path root-Y-X-Z
        t = taxonomy_from_pairs(
            [("X", "root"), ("Y", "root"), ("Z", "X"), ("Z", "Y"),
             ("Z2", "Z"), ("X", "Y")]
        )
        assert t.depth(t.node("Z")) == 3

    def test_unknown_node_lookup(self, toy):
        with pytest.raises(UnknownNodeError):
            toy.ancestors(999)
        with pytest.raises(UnknownNodeError):
            toy.node("nope")

    def test_ncca_toy(self, toy):
        assert labels(toy, toy.ncca(toy.node("E"), toy.node("D"))) == {"A"}

    def test_ncca_self(self, toy):
        e = toy.node("E")
        assert toy.ncca(e, e) == frozenset((e,))

    def test_ncca_diamond(self, diamond):
        z, w = diamond.node("Z"), diamond.node("W")
        assert labels(diamond, diamond.ncca(z, w)) == {"X", "Y"}

    def test_mica(self, toy, toy_seco):
        e, d, f = toy.node("E"), toy.node("D"), toy.node("F")
        assert toy.label(toy.mica(toy_seco, e, d)) == "A"
        assert toy.mica(toy_seco, e, e) == e
        assert toy.label(toy.mica(toy_seco, e, f)) == "root"

    def test_mica_tie_breaks_lexicographically(self, toy, toy_seco):
        # D and F are both leaves with theta 1; mica(x, x) trivially x, so
        # craft a tie through equal-theta ancestors instead
        t = taxonomy_from_pairs(
            [("M", "root"), ("N", "root"), ("u", "M"), ("u", "N"),
             ("v", "M"), ("v", "N")]
        )
        theta = smx.ThetaEstimator.from_table(
            t, {c: (0.0 if t.label(c) == "root" else 1.0) for c in t.class_ids}
        )
        picked = t.mica(theta, t.node("u"), t.node("v"))
        assert t.label(picked) == "M"

    def test_shortest_path_via_lca(self, toy):
        assert toy.shortest_path(toy.node("E"), toy.node("D"), VIA) == 3
        assert toy.shortest_path(toy.node("E"), toy.node("E"), VIA) == 0

    def test_shortest_path_side_edge(self):
        # W subsumes Z through a side edge, so the path has length 1
        t = taxonomy_from_pairs(
            [("X", "root"), ("Y", "root"), ("Z", "X"), ("W", "Y"), ("Z", "W")]
        )
        z, w = t.node("Z"), t.node("W")
        assert t.shortest_path(z, w, VIA) == 1

    @pytest.mark.parametrize("constraint", ["unconstrained", None])
    def test_shortest_path_refuses_a_constraint_other_than_via_lca(self, toy, constraint):
        with pytest.raises(ContractError, match=f"unknown path constraint {constraint!r}"):
            toy.shortest_path(toy.node("E"), toy.node("F"), constraint)


class TestInvariants:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_closures_match_brute_force(self, seed):
        t, pairs = random_taxonomy(random.Random(seed))
        for c in t.class_ids:
            assert labels(t, t.ancestors(c)) == brute_ancestors(pairs, t.label(c))
            assert labels(t, t.descendants(c)) == brute_descendants(pairs, t.label(c))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_adjacency_is_id_sorted_tuples(self, seed):
        t, _ = random_taxonomy(random.Random(seed))
        for view in (t, smx.transitive_reduction(t)[0]):
            for c in view.class_ids:
                assert view.parents(c) == tuple(sorted(p for x, p in view.edges if x == c))
                assert view.children(c) == tuple(sorted(x for x, p in view.edges if p == c))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), tree=st.booleans())
    def test_build_matches_brute_force(self, seed, tree):
        view, pairs = random_taxonomy(random.Random(seed), max_nodes=25, tree=tree)
        ids = lambda names: sorted(map(view.node, names))
        parents, children = parents_of(pairs), children_of(pairs)
        assert sorted(view._anc) == sorted(view._depth) == ids(parents)
        for name, ancestors in brute_closure_map(pairs).items():
            c = view.node(name)
            assert view._parents[c] == tuple(ids(parents[name]))
            assert view._children[c] == tuple(ids(children[name]))
            assert view._anc[c] == frozenset(ids(ancestors))
            assert view._depth[c] == brute_depth(pairs, name)
        redundant = {(view.label(u), view.label(p)) for u, p in view.redundant_edges}
        assert redundant == brute_redundant_edges(pairs)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), forest=st.booleans())
    def test_order_lists_every_class_once_parents_first(self, seed, forest):
        rng = random.Random(seed)
        _, pairs = random_taxonomy(rng, max_nodes=25)
        if forest:
            # a second tree makes two roots, so a virtual root is inserted
            _, more = random_taxonomy(rng, max_nodes=25)
            pairs += [("m" + c[1:], "m" + p[1:]) for c, p in more]
        t = taxonomy_from_pairs(pairs)
        assert (t.inserted_root is not None) == forest
        # parsed ids follow the labels, which follow the parents-first order
        # here; scattered ids do not
        classes = sorted(t.class_ids)
        ids = dict(zip(classes, rng.sample(range(10 * len(classes)), len(classes))))
        scattered = view_of(
            {ids[c]: t.label(c) for c in classes},
            ids.values(),
            [(ids[c], ids[p]) for c, p in t.edges],
        )
        for view in (t, scattered):
            for v in (view, smx.transitive_reduction(view)[0]):
                position = {c: i for i, c in enumerate(v._order)}
                assert len(position) == len(v._order) and position.keys() == v.class_ids
                assert all(position[p] < position[c] for c, p in v.edges)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_depth_and_paths_match_brute_force(self, seed):
        rng = random.Random(seed)
        t, pairs = random_taxonomy(rng, max_nodes=25)
        nodes = sorted(t.class_ids)
        for c in nodes:
            assert t.depth(c) == brute_depth(pairs, t.label(c))
        for _ in range(10):
            u, v = rng.choice(nodes), rng.choice(nodes)
            assert t.shortest_path(u, v, VIA) == brute_via_lca(
                pairs, t.label(u), t.label(v)
            )

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_ncca_matches_brute_force_and_is_antichain(self, seed):
        rng = random.Random(seed)
        t, pairs = random_taxonomy(rng, max_nodes=25)
        nodes = sorted(t.class_ids)
        for _ in range(10):
            u, v = rng.choice(nodes), rng.choice(nodes)
            omega = t.ncca(u, v)
            assert labels(t, omega) == brute_ncca(pairs, t.label(u), t.label(v))
            assert omega <= t.common_ancestors(u, v)
            for a in omega:
                for b in omega:
                    assert a == b or a not in t.ancestors(b)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_mica_monotone_and_in_ncca_when_strict(self, seed):
        rng = random.Random(seed)
        t, _ = random_taxonomy(rng, max_nodes=30)
        theta = smx.seco_ic(t)
        nodes = sorted(t.class_ids)
        for _ in range(15):
            u, v = rng.choice(nodes), rng.choice(nodes)
            a = t.mica(theta, u, v)
            assert theta(a) <= min(theta(u), theta(v)) + 1e-12
            omega = t.ncca(u, v)
            values = sorted((theta(c) for c in omega), reverse=True)
            strict = len(values) == 1 or values[0] > values[1] + 1e-12
            if strict:
                assert a in omega

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_shortest_path_symmetry(self, seed):
        rng = random.Random(seed)
        t, _ = random_taxonomy(rng, max_nodes=30)
        nodes = sorted(t.class_ids)
        for _ in range(10):
            u, v = rng.choice(nodes), rng.choice(nodes)
            assert t.shortest_path(u, v, VIA) == t.shortest_path(v, u, VIA)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_depth_strictly_decreases_toward_root(self, seed):
        t, _ = random_taxonomy(random.Random(seed), max_nodes=30)
        for u in t.class_ids:
            for v in t.ancestors(u):
                if v != u:
                    assert t.depth(v) < t.depth(u)

    def test_longest_up_distance_on_diamond(self):
        t = taxonomy_from_pairs(
            [("X", "root"), ("Y", "root"), ("Z", "X"), ("Z", "Y"),
             ("X", "Y")]
        )
        z = t.node("Z")
        assert t.longest_up_distance(z, t.node("root")) == 3
        assert t.longest_up_distance(z, z) == 0


class TestUpPathOracles:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), multi=st.sampled_from([0.3, 0.8]))
    def test_up_path_stats_match_enumeration(self, seed, multi):
        t, pairs = random_taxonomy(random.Random(seed), max_nodes=20, multi=multi)
        for u in t.class_ids:
            got = {t.label(a): stats for a, stats in t.up_path_stats(u).items()}
            assert got == brute_up_path_stats(pairs, t.label(u))
        # the reduction copies t with its count tables built, and the paths
        # over its redundant edges must leave the counts
        reduced, _ = smx.transitive_reduction(t)
        pairs = [(t.label(c), t.label(p)) for c, p in reduced.edges]
        for u in reduced.class_ids:
            got = {t.label(a): stats for a, stats in reduced.up_path_stats(u).items()}
            assert got == brute_up_path_stats(pairs, t.label(u))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), multi=st.sampled_from([0.3, 0.8]))
    def test_longest_and_shortest_up_paths_match_enumeration(self, seed, multi):
        t, pairs = random_taxonomy(random.Random(seed), max_nodes=20, multi=multi)
        for u in t.class_ids:
            for a in t.ancestors(u):
                paths = brute_up_paths(pairs, t.label(u), t.label(a))
                assert t.longest_up_distance(u, a) == max(map(len, paths)) - 1
                edges = [(t.label(x), t.label(y)) for x, y in t.shortest_up_path_edges(u, a)]
                assert edges == brute_shortest_up_path(pairs, t.label(u), t.label(a))

    def test_non_ancestor_is_rejected(self, toy):
        e, f = toy.node("E"), toy.node("F")
        for query in (toy.longest_up_distance, toy.shortest_up_path_edges):
            with pytest.raises(UnknownNodeError, match="not an ancestor"):
                query(e, f)


# public pair queries with the message each gives for an unknown second
# class; an unknown first class, or two unknown ones, gives NOT_A_CLASS
NOT_A_CLASS = "node {} is not a class of this taxonomy"
PAIR_QUERIES = {
    "mica": (lambda t, u, v: t.mica(smx.seco_ic(t), u, v), NOT_A_CLASS),
    "deepest_common_ancestor": (TaxonomyView.deepest_common_ancestor, NOT_A_CLASS),
    "ncca": (TaxonomyView.ncca, NOT_A_CLASS),
    "common_ancestors": (TaxonomyView.common_ancestors, NOT_A_CLASS),
    "shortest_path via_lca": (lambda t, u, v: t.shortest_path(u, v, VIA), NOT_A_CLASS),
    # the second class is an ancestor to find, so its label is looked up
    "shortest_up_path_edges": (TaxonomyView.shortest_up_path_edges, "unknown class id {}"),
    "longest_up_distance": (TaxonomyView.longest_up_distance, "unknown class id {}"),
}
CLASS_QUERIES = (
    TaxonomyView.up_distances, TaxonomyView.up_path_stats, TaxonomyView.ancestors,
    TaxonomyView.descendants, TaxonomyView.depth, TaxonomyView.parents, TaxonomyView.children,
)


class TestPublicChecks:
    """Every public query checks each class it takes, although the scoring
    entry points call the unchecked internal forms."""

    @pytest.mark.parametrize("name", sorted(PAIR_QUERIES))
    def test_pair_query_names_an_unknown_class_in_either_position(self, toy, name):
        query, second = PAIR_QUERIES[name]
        e = toy.node("E")
        for u, v, message in (
            (999, e, NOT_A_CLASS.format(999)),
            (e, 998, second.format(998)),
            (999, 998, NOT_A_CLASS.format(999)),
        ):
            with pytest.raises(UnknownNodeError) as caught:
                query(toy, u, v)
            assert str(caught.value) == message

    @pytest.mark.parametrize("query", CLASS_QUERIES, ids=lambda q: q.__name__)
    def test_class_query_names_an_unknown_class(self, toy, query):
        with pytest.raises(UnknownNodeError) as caught:
            query(toy, 999)
        assert str(caught.value) == NOT_A_CLASS.format(999)

    def test_descendant_counts_names_an_unknown_class(self, toy):
        e = toy.node("E")
        for among, unknown in (([-1], -1), ([e, 999], 999), ({e, toy.node("D"), -1}, -1)):
            with pytest.raises(UnknownNodeError) as caught:
                toy.descendant_counts(among)
            assert str(caught.value) == NOT_A_CLASS.format(unknown)
        assert toy.descendant_counts([e])[toy.root] == 1


class TestSharedLabels:
    """A parsed view keeps the graph's own label tuple and class set."""

    def test_single_root_view_shares_the_graph_tables(self, toy_graph, toy):
        assert toy.inserted_root is None
        assert toy._labels is toy_graph._labels
        assert toy.class_ids is toy_graph.classes

    def test_forest_view_extends_the_graph_labels_by_the_virtual_root(self):
        graph = smx.parse_graph(b"A\tsubClassOf\tr1\nB\tsubClassOf\tr2\n")
        t = smx.taxonomic_reduction(graph)
        assert t._labels == graph._labels + (VIRTUAL_ROOT,)
        assert t.class_ids == graph.classes | {graph.n_nodes}
        assert t.label(t.root) == VIRTUAL_ROOT
        assert t.node(VIRTUAL_ROOT) == t.root == graph.n_nodes

    def test_instance_and_negative_ids_are_not_classes(self):
        graph = smx.parse_graph(b"A\tsubClassOf\tr\ni\tisA\tA\n")
        t = smx.taxonomic_reduction(graph)
        instance = graph.node("i")
        assert instance in graph.instances and graph._labels[-1] == "r"
        for node in (instance, -1):
            with pytest.raises(UnknownNodeError) as caught:
                t.label(node)
            assert str(caught.value) == f"unknown class id {node}"
        with pytest.raises(UnknownNodeError) as caught:
            t.shortest_up_path_edges(graph.node("A"), instance)
        assert str(caught.value) == f"unknown class id {instance}"
        with pytest.raises(UnknownNodeError):
            t.node("i")


class TestBuild:
    """TaxonomyView.build finds the parentless classes of the graph once and
    inserts __root__ above them when there are several."""

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), trees=st.integers(2, 4))
    def test_forest_roots_are_the_children_of_the_virtual_root(self, seed, trees):
        rng = random.Random(seed)
        pairs = []
        for prefix in "nmpq"[:trees]:
            _, more = random_taxonomy(rng, max_nodes=10)
            pairs += [(prefix + c[1:], prefix + p[1:]) for c, p in more]
        graph = graph_from_pairs(pairs)
        t = TaxonomyView.build(graph)
        roots = sorted(graph.node(name) for name, ps in parents_of(pairs).items() if not ps)
        assert len(roots) == trees and t.root == t.inserted_root == graph.n_nodes
        assert t.children(t.root) == tuple(roots)
        for r in roots:
            assert t.parents(r) == (t.root,)
        up = {(graph.node(c), graph.node(p)) for c, p in pairs}
        assert t.edges == up | {(r, t.root) for r in roots}

    @pytest.mark.parametrize(
        "text, message",
        [
            ("A\tsubClassOf\tr1\nB\tsubClassOf\tr2\nC\tsubClassOf\tD\nD\tsubClassOf\tC\n",
             "subClassOf cycle: C < D < C"),
            ("A\tsubClassOf\tr1\nB\tsubClassOf\tr2\nD\tsubClassOf\tr1\nD\tsubClassOf\tC\n"
             "C\tsubClassOf\tX\nX\tsubClassOf\tC\n",
             "subClassOf cycle: C < X < C"),
        ],
    )
    def test_forest_with_a_cyclic_component_is_traced(self, text, message):
        # the roots of the forest are found, so __root__ is inserted and the
        # cycle is the set the parents-first walk never reaches
        with pytest.raises(CycleError) as caught:
            TaxonomyView.build(smx.parse_graph(text.encode()))
        assert str(caught.value) == message

    def test_a_forest_with_a_class_labelled_like_the_virtual_root_is_refused(self):
        graph = SemanticGraph(
            [VIRTUAL_ROOT, "a", "b"], [0, 1, 2], [], [SUBCLASS_OF], [(1, SUBCLASS_OF, 0)]
        )
        for build in (TaxonomyView.build, smx.taxonomic_reduction):
            with pytest.raises(ContractError) as caught:
                build(graph)
            assert str(caught.value) == "virtual root label __root__ already names a graph node"
        # one root needs no virtual root, so the label is the graph's own
        graph = SemanticGraph([VIRTUAL_ROOT, "a"], [0, 1], [], [SUBCLASS_OF], [(1, SUBCLASS_OF, 0)])
        t = TaxonomyView.build(graph)
        assert t.inserted_root is None and t.node(VIRTUAL_ROOT) == t.root == 0

    def test_graph_without_classes_is_refused(self):
        graph = smx.parse_graph(b"a\tpartOf\tb\n")
        assert not graph.classes and graph.instances
        for build in (TaxonomyView.build, smx.taxonomic_reduction):
            with pytest.raises(ContractError) as caught:
                build(graph)
            assert str(caught.value) == "graph contains no classes"


class TestLabelTieBreaks:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), multi=st.sampled_from([0.3, 0.8]))
    def test_ties_break_by_label_on_relabelled_views(self, seed, multi):
        rng = random.Random(seed)
        t, pairs = relabelled(*random_taxonomy(rng, max_nodes=20, multi=multi), rng)
        closure = brute_closure_map(pairs)
        # three theta values over about 20 classes: many tied candidates
        value = {t.label(c): rng.choice((0.0, 1.0, 2.0)) for c in sorted(t.class_ids)}
        theta = smx.ThetaEstimator.from_table(t, {c: value[t.label(c)] for c in t.class_ids})
        for u in t.class_ids:
            for a in t.ancestors(u):
                edges = [(t.label(x), t.label(y)) for x, y in t.shortest_up_path_edges(u, a)]
                assert edges == brute_shortest_up_path(pairs, t.label(u), t.label(a))
            v = rng.choice(sorted(t.class_ids))
            common = closure[t.label(u)] & closure[t.label(v)]
            depth = {label: brute_depth(pairs, label) for label in common}
            assert t.label(t.mica(theta, u, v)) == min(common, key=lambda c: (-value[c], c))
            assert t.label(t.deepest_common_ancestor(u, v)) == min(
                common, key=lambda c: (-depth[c], c)
            )


def check_path_queries(t, pairs):
    """Every path query of the view t over all its classes against the
    brute-force oracles on the (child, parent) label pairs."""
    name = t.label
    up = {c: brute_up_distances(pairs, name(c)) for c in t.class_ids}
    wu_palmer, pekar_staab = smx.pairwise_measure("wu_palmer"), smx.pairwise_measure("pekar_staab")
    for u in t.class_ids:
        assert {name(a): d for a, d in t.up_distances(u).items()} == up[u]
        for a in t.ancestors(u):
            paths = brute_up_paths(pairs, name(u), name(a))
            assert t.longest_up_distance(u, a) == max(map(len, paths)) - 1
            edges = [(name(x), name(y)) for x, y in t.shortest_up_path_edges(u, a)]
            assert edges == brute_shortest_up_path(pairs, name(u), name(a))
        for v in t.class_ids:
            assert t.shortest_path(u, v, VIA) == brute_via_lca(pairs, name(u), name(v))
            du, dv = up[u], up[v]
            # shenoy's walk: the turn at a common ancestor costs 1 unless it
            # is u or v
            assert t._via_ancestor(u, v, 1) == min(
                du[a] + dv[a] + (1 if du[a] and dv[a] else 0) for a in du.keys() & dv.keys()
            )
            for spec, oracle in ((wu_palmer, brute_wu_palmer), (pekar_staab, brute_pekar_staab)):
                got = smx.eval_pairwise(spec, t, u, v, allow_unreduced=True)
                value, degenerate = oracle(pairs, name(u), name(v))
                assert abs(got.value - value) <= 1e-12 and got.degenerate == degenerate


class TestPathTables:
    """Up distances are read from per-chain-top tables built on the first
    path query; every query built on them matches enumeration."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), tree=st.booleans(), multi=st.sampled_from([0.3, 0.8]))
    def test_path_queries_match_brute_force(self, seed, tree, multi):
        t, pairs = random_taxonomy(random.Random(seed), max_nodes=18, tree=tree, multi=multi)
        check_path_queries(t, pairs)
        # the reduced view must not read the tables the unreduced one built
        reduced, _ = smx.transitive_reduction(t)
        redundant = brute_redundant_edges(pairs)
        check_path_queries(reduced, [edge for edge in pairs if edge not in redundant])

    def test_shortcut_is_gone_after_the_reduction(self):
        # Z's shortcut to root makes it a chain top with sp(W, root) = 2; in
        # the reduced view Z has one parent and sp(W, root) = 4
        t = taxonomy_from_pairs(
            [("X", "root"), ("Y", "X"), ("Z", "Y"), ("Z", "root"), ("W", "Z")]
        )
        w, root = t.node("W"), t.node("root")
        assert t.shortest_path(w, root, VIA) == 2
        assert t.up_distances(w)[root] == 2
        reduced, _ = smx.transitive_reduction(t)
        assert reduced.shortest_path(w, root, VIA) == 4
        assert reduced.up_distances(w)[root] == 4
        assert reduced.longest_up_distance(w, root) == t.longest_up_distance(w, root) == 4
        assert t.shortest_path(w, root, VIA) == 2

    def test_information_content_builds_no_tables(self, tmp_path, monkeypatch):
        t = taxonomy_from_pairs(
            [("X", "root"), ("Y", "root"), ("Z", "X"), ("Z", "Y"), ("W", "Z")]
        )
        theta = smx.seco_ic(t)
        lin = smx.pairwise_measure("lin", theta=theta)
        for u in t.class_ids:
            for v in t.class_ids:
                smx.eval_pairwise(lin, t, u, v)
        assert t._paths is None and t._counts is None

        built, counted = [], []
        for name, log in (("_path_tables", built), ("_count_tables", counted)):
            build = getattr(TaxonomyView, name)
            monkeypatch.setattr(
                TaxonomyView, name, lambda view, build=build, log=log: log.append(view) or build(view)
            )
        graph, pairs = tmp_path / "g.tsv", tmp_path / "p.tsv"
        graph.write_text("X\tsubClassOf\troot\nY\tsubClassOf\troot\nZ\tsubClassOf\tX\n"
                         "Z\tsubClassOf\tY\nW\tsubClassOf\tZ\n")
        pairs.write_text("W\tY\nX\tZ\n")
        inputs = ["--graph", str(graph), "--pairs", str(pairs), "--out", str(tmp_path / "o.tsv")]
        assert main(["sim", "--measure", "lin", "--ic", "seco", *inputs]) == 0
        assert built == counted == []
        assert main(["sim", "--measure", "rada", *inputs]) == 0
        assert built and counted == []
        built.clear()
        assert main(["sim", "--measure", "wang_dca", *inputs]) == 0
        assert built and counted
