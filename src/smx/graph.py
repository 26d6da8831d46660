"""Semantic graph data model and the taxonomic query kernel.

A graph's fields and a view's derived tables (id-sorted parent and child
tuples, then one parents-first class order with the ancestor closures,
depths and redundant edges found along it) are computed once at
construction and never written after it, so every query below is a
read-only lookup, set operation or pass over an ancestor set or a
subgraph walk, and is safe to run concurrently. The exceptions are built on first use: the graph's
out/in adjacency and neighbour rows, which only relatedness reads (see
SemanticGraph), the view's up distance tables, which the path-based
measures read (see _path_tables, 3.8 MB by tracemalloc on the 50k-class
DAG), and its path count tables, which only up_path_stats and wang_dca
read (see _count_tables, 0.73 MB there). Each is a pure function of that
state, so racing threads build equal ones.
Descendant sets are not stored: the estimators need only their sizes,
which one pass over the ancestor sets gives. Path queries are exact for
any DAG: counts are Python ints, so no input is too large to count.

Every public query checks each class it takes and raises UnknownNodeError
for an id outside the view. The two scoring entry points,
pairwise.eval_pairwise (eval_abstract) and the calls of a
pairwise.pair_scorer, check both classes once per pair; the features and
evaluators they call read the view's tables (_anc, _depth, ...) and its
unchecked internal forms without checking again: _mica, _deepest and _ncca
of a common ancestor set, _via_ancestor, _up_path and _up_step.
"""

from __future__ import annotations

import enum
from collections import Counter
from itertools import chain
from typing import Callable, Collection, Iterable, Mapping

from .errors import ContractError, CycleError, UnknownNodeError

NodeId = int

SUBCLASS_OF = "subClassOf"
IS_A = "isA"
VIRTUAL_ROOT = "__root__"


class AncestorConstraint(enum.Enum):
    """The path rule of shortest_path: VIA_LCA, a path that goes up from
    both classes to a common ancestor, is the only one."""

    VIA_LCA = "via_lca"


class SemanticGraph:
    """Multi-relational directed graph over classes, instances and predicates.

    Nodes are dense integer handles resolvable back to their text
    identifiers. Classes and instances are disjoint, every edge endpoint is
    a declared node, and edge weights, when present, cover every edge.

    Every field is fixed at construction, where every check runs. Two
    relational tables are built on first use and then kept; the taxonomic
    pipeline reads neither. The out/in adjacency, each node's (predicate,
    neighbor) pairs in label order, comes from the first out_edges,
    in_edges or _adjacent call. The neighbour rows that shortest paths
    search, each node's distinct (neighbor, predicate, weight) triples over
    both edge directions, come from the first _neighbours call. Each is a
    pure function of the immutable edges, weights and labels, so threads
    racing on a first use build equal tables, and any of them may be the
    one kept.
    """

    __slots__ = (
        "_labels",
        "_index",
        "classes",
        "instances",
        "predicates",
        "edges",
        "edge_weights",
        "_adjacency",
        "_neighbour_rows",
    )

    def __init__(
        self,
        labels: Iterable[str],
        classes: Iterable[NodeId],
        instances: Iterable[NodeId],
        predicates: Iterable[str],
        edges: Iterable[tuple[NodeId, str, NodeId]],
        edge_weights: Mapping[tuple[NodeId, str, NodeId], float] | None = None,
    ):
        self._labels = tuple(labels)
        self._index = {label: i for i, label in enumerate(self._labels)}
        if len(self._index) != len(self._labels):
            raise ContractError("duplicate node identifiers")
        self.classes = frozenset(classes)
        self.instances = frozenset(instances)
        overlap = self.classes & self.instances
        if overlap:
            names = ", ".join(sorted(self._labels[i] for i in overlap))
            raise ContractError(f"nodes are both class and instance: {names}")
        self.predicates = frozenset(predicates)
        self.edges = frozenset(edges)
        n = len(self._labels)
        for s, p, o in self.edges:
            if not (0 <= s < n and 0 <= o < n):
                raise ContractError("edge endpoint is not a declared node")
            if p not in self.predicates:
                raise ContractError(f"edge uses undeclared predicate {p!r}")
        if edge_weights is not None:
            if set(edge_weights) != self.edges:
                raise ContractError("edge_weights must cover every edge exactly once")
            for w in edge_weights.values():
                if not (w >= 0.0) or w != w or w == float("inf"):
                    raise ContractError("edge weights must be finite and >= 0")
            edge_weights = dict(edge_weights)
        self.edge_weights = edge_weights
        self._adjacency = self._neighbour_rows = None

    def _adjacent(self) -> tuple[tuple, tuple]:
        """(out, in): node-indexed tuples of (predicate, neighbor) pairs,
        each in label-triple order, built on the first call."""
        adjacency = self._adjacency
        if adjacency is None:
            out = [[] for _ in self._labels]
            inc = [[] for _ in self._labels]
            for s, p, o in self._label_sorted_edges():
                out[s].append((p, o))
                inc[o].append((p, s))
            adjacency = self._adjacency = (tuple(map(tuple, out)), tuple(map(tuple, inc)))
        return adjacency

    def _neighbours(self) -> tuple:
        """Node-indexed tuples of (neighbor, predicate, weight) triples: the
        node's out edges, then its in edges, each in label-triple order,
        with every triple kept at its first occurrence, so a self-loop or a
        reciprocal pair under one predicate and weight appears once. The
        weight is 1.0 on an unweighted graph. Built on the first call."""
        rows = self._neighbour_rows
        if rows is None:
            weight = self.weight
            out, inc = self._adjacent()
            rows = self._neighbour_rows = tuple(
                tuple(dict.fromkeys(
                    [(o, p, weight((node, p, o))) for p, o in out[node]]
                    + [(s, p, weight((s, p, node))) for p, s in inc[node]]
                ))
                for node in range(len(self._labels))
            )
        return rows

    def _label_sorted_edges(self) -> list[tuple[NodeId, str, NodeId]]:
        """The edges in (subject label, predicate, object label) order.
        Labels are unique, so sorting by each label's rank, computed once,
        gives that order without building a label tuple per edge."""
        labels = self._labels
        rank = [0] * len(labels)
        for r, node in enumerate(sorted(range(len(labels)), key=labels.__getitem__)):
            rank[node] = r
        return sorted(self.edges, key=lambda e: (rank[e[0]], e[1], rank[e[2]]))

    @property
    def n_nodes(self) -> int:
        return len(self._labels)

    def node(self, label: str) -> NodeId:
        try:
            return self._index[label]
        except KeyError:
            raise UnknownNodeError(f"unknown node identifier {label!r}") from None

    def _known(self, node: NodeId) -> NodeId:
        if not 0 <= node < len(self._labels):
            raise UnknownNodeError(f"unknown node id {node}")
        return node

    def label(self, node: NodeId) -> str:
        return self._labels[self._known(node)]

    def out_edges(self, node: NodeId) -> tuple[tuple[str, NodeId], ...]:
        return self._adjacent()[0][self._known(node)]

    def in_edges(self, node: NodeId) -> tuple[tuple[str, NodeId], ...]:
        return self._adjacent()[1][self._known(node)]

    def weight(self, edge: tuple[NodeId, str, NodeId]) -> float:
        if self.edge_weights is None:
            return 1.0
        return self.edge_weights[edge]


class TaxonomyView:
    """Acyclic subClassOf view with precomputed ancestor closures, depths
    and leaves.

    Ancestor and descendant sets are inclusive: u belongs to both A(u) and
    D(u). A(u) is stored for every class; D(u) is walked on demand and
    descendant_counts gives |D(c) & S| for every class in one pass. Parents
    and children are tuples sorted by node id. Depth is the longest edge
    path from the root, which keeps depth monotone under multiple
    inheritance. The view's order (_order) lists every class once, after
    all of its parents; later tables are built along it. Its label tuple
    and class set are the graph's own, extended by __root__ in a forest.
    Construct through build (or preprocess.taxonomic_reduction).
    """

    __slots__ = (
        "class_ids",
        "edges",
        "root",
        "max_depth",
        "leaves",
        "inserted_root",
        "redundant_edges",
        "is_reduced",
        "_labels",
        "_by_label",
        "_parents",
        "_children",
        "_order",
        "_anc",
        "_depth",
        "_paths",
        "_counts",
    )

    def __init__(self):
        raise ContractError("use TaxonomyView.build or preprocess.taxonomic_reduction")

    @classmethod
    def build(cls, graph: SemanticGraph) -> "TaxonomyView":
        """The view of the graph's classes and subClassOf edges. Several
        parentless classes get one parent, a virtual root __root__ with id
        graph.n_nodes. Raises CycleError on a cyclic taxonomy and ContractError
        on a graph without classes or, with several roots, a __root__ node."""
        if not graph.classes:
            raise ContractError("graph contains no classes")
        t = object.__new__(cls)
        t.class_ids = graph.classes
        t._labels = graph._labels
        up_edges = [(s, o) for s, p, o in graph.edges if p == SUBCLASS_OF]
        # one pass in (child, parent) order appends each class's parents
        # and children already sorted by node id
        parents: dict[NodeId, list] = {c: [] for c in t.class_ids}
        children: dict[NodeId, list] = {c: [] for c in t.class_ids}
        for child, parent in sorted(up_edges):
            if child == parent:
                raise CycleError([t._labels[child], t._labels[child]])
            parents[child].append(parent)
            children[parent].append(child)
        roots = sorted(c for c, ps in parents.items() if not ps)
        if not roots:
            raise CycleError(t._trace_cycle(parents, set(t.class_ids)))
        t.inserted_root = None
        if len(roots) > 1:
            if VIRTUAL_ROOT in graph._index:
                raise ContractError(f"virtual root label {VIRTUAL_ROOT} already names a graph node")
            t.inserted_root = root = graph.n_nodes
            t._labels += (VIRTUAL_ROOT,)
            t.class_ids |= {root}
            up_edges += [(r, root) for r in roots]
            parents[root] = []
            children[root] = roots
            for r in roots:
                parents[r].append(root)
            roots = [root]
        t.root = roots[0]
        t.edges = frozenset(up_edges)
        t._by_label = {t._labels[c]: c for c in t.class_ids}
        t._parents = parents = {c: tuple(v) for c, v in parents.items()}
        t._children = children = {c: tuple(v) for c, v in children.items()}

        # Kahn order, walked as it grows: a class is reached with its last
        # parent, when every parent's closure and depth are final. An edge is redundant when
        # another parent of its child reaches the parent.
        indeg = {c: len(ps) for c, ps in parents.items()}
        anc = {t.root: frozenset((t.root,))}
        depth = {t.root: 0}
        order = [t.root]
        redundant = []
        for c in order:
            for ch in children[c]:
                indeg[ch] -= 1
                if indeg[ch]:
                    continue
                order.append(ch)
                ps = parents[ch]
                if len(ps) == 1:
                    anc[ch] = anc[c] | {ch}
                    depth[ch] = depth[c] + 1
                    continue
                acc = {ch}
                deepest = 0
                for p in ps:
                    acc |= anc[p]
                    if depth[p] > deepest:
                        deepest = depth[p]
                anc[ch] = frozenset(acc)
                depth[ch] = deepest + 1
                redundant += [(ch, p) for p in ps if any(q != p and p in anc[q] for q in ps)]
        if len(order) != len(t.class_ids):
            raise CycleError(t._trace_cycle(parents, t.class_ids - anc.keys()))

        t._order = tuple(order)
        t._anc = anc
        t._depth = depth
        t._paths = t._counts = None
        t.max_depth = max(depth.values())
        t.leaves = frozenset(c for c in t.class_ids if not children[c])
        t.redundant_edges = frozenset(redundant)
        t.is_reduced = not t.redundant_edges
        return t

    def _without_redundant_edges(self) -> "TaxonomyView":
        """This view minus its redundant edges, sharing the ancestor closures.

        Dropping an edge that a longer path implies keeps reachability and
        every longest root path, so A(u), D(u), depth, root and leaves are
        unchanged; only the edge set and the parent and child tuples at the
        endpoints of each dropped edge are filtered, which keeps them sorted.
        The order stays parents-first with fewer edges, and is the one a
        rebuild finds: a redundant parent is an ancestor of another parent,
        so it is never the last parent of its class to be reached.
        """
        t = object.__new__(TaxonomyView)
        for slot in TaxonomyView.__slots__:
            setattr(t, slot, getattr(self, slot))
        t._parents = parents = dict(self._parents)
        t._children = children = dict(self._children)
        for child, parent in self.redundant_edges:
            parents[child] = tuple(p for p in parents[child] if p != parent)
            children[parent] = tuple(c for c in children[parent] if c != child)
        t.edges = self.edges - self.redundant_edges
        t.redundant_edges = frozenset()
        t.is_reduced = True
        # chain tops, shortest distances and path counts change with the parents
        t._paths = t._counts = None
        return t

    def _trace_cycle(self, parents, leftover):
        start = min(leftover)
        seen: dict[NodeId, int] = {}
        walk: list[NodeId] = []
        node = start
        while node not in seen:
            seen[node] = len(walk)
            walk.append(node)
            node = min(p for p in parents[node] if p in leftover)
        cycle = walk[seen[node]:] + [node]
        return [self._labels[c] for c in cycle]

    # -- lookups ----------------------------------------------------------

    def label(self, node: NodeId) -> str:
        if node not in self.class_ids:
            raise UnknownNodeError(f"unknown class id {node}")
        return self._labels[node]

    def node(self, label: str) -> NodeId:
        try:
            return self._by_label[label]
        except KeyError:
            raise UnknownNodeError(f"unknown class identifier {label!r}") from None

    def _check(self, node: NodeId) -> None:
        if node not in self.class_ids:
            raise UnknownNodeError(f"node {node} is not a class of this taxonomy")

    def sorted_classes(self) -> list[NodeId]:
        return sorted(self.class_ids, key=self._labels.__getitem__)

    # -- closures and depth -------------------------------------------------

    def ancestors(self, node: NodeId) -> frozenset:
        """Inclusive ancestor set A(u)."""
        self._check(node)
        return self._anc[node]

    def descendants(self, node: NodeId) -> frozenset:
        """Inclusive descendant set D(u), walked down the child tuples in
        O(|D(u)|); no descendant set is stored."""
        self._check(node)
        children = self._children
        seen = {node}
        stack = [node]
        while stack:
            for ch in children[stack.pop()]:
                if ch not in seen:
                    seen.add(ch)
                    stack.append(ch)
        return frozenset(seen)

    def descendant_counts(self, among: Collection[NodeId] | None = None) -> Counter:
        """|D(c) & S| for every class c, S being `among` (default: all
        classes), in one pass over A(u) for u in S: c is counted once for
        each u in S that it subsumes. A class subsuming no member reads 0."""
        if among is None:
            among = self.class_ids
        elif not self.class_ids.issuperset(among):
            self._check(next(c for c in among if c not in self.class_ids))
        return Counter(chain.from_iterable(map(self._anc.__getitem__, among)))

    def depth(self, node: NodeId) -> int:
        """Longest subClassOf edge path from the root down to the class."""
        self._check(node)
        return self._depth[node]

    def parents(self, node: NodeId) -> tuple[NodeId, ...]:
        """Direct parents, sorted by node id."""
        self._check(node)
        return self._parents[node]

    def children(self, node: NodeId) -> tuple[NodeId, ...]:
        """Direct children, sorted by node id."""
        self._check(node)
        return self._children[node]

    def common_ancestors(self, u: NodeId, v: NodeId) -> frozenset:
        self._check(u)
        self._check(v)
        return self._anc[u] & self._anc[v]

    def ncca(self, u: NodeId, v: NodeId) -> frozenset:
        """Maximal antichain of common ancestors (the non-comparable ones).

        A common ancestor stays iff none of its strict descendants is also
        a common ancestor, so no member subsumes another member. The common
        set is upward closed, so a common class with a common strict
        descendant is a parent of some common class, and the members are
        the common classes that are nobody's parent there.
        """
        return self._ncca(self.common_ancestors(u, v))

    def _ncca(self, common: frozenset) -> frozenset:
        covered = set(chain.from_iterable(map(self._parents.__getitem__, common)))
        return frozenset(a for a in common if a not in covered)

    def mica(self, theta: Callable[[NodeId], float], u: NodeId, v: NodeId) -> NodeId:
        """Common ancestor maximizing theta; ties go to the smallest label."""
        return self._mica(theta, self.common_ancestors(u, v))

    def _mica(self, theta: Callable[[NodeId], float], common: frozenset) -> NodeId:
        labels = self._labels
        return min(common, key=lambda c: (-theta(c), labels[c]))

    def deepest_common_ancestor(self, u: NodeId, v: NodeId) -> NodeId:
        return self._deepest(self.common_ancestors(u, v))

    def _deepest(self, common: frozenset) -> NodeId:
        depth, labels = self._depth, self._labels
        return min(common, key=lambda c: (-depth[c], labels[c]))

    # -- paths --------------------------------------------------------------

    def _path_tables(self) -> dict:
        """{class: (top, shortest labels, longest labels)}, built on the
        first path query. top(u) is the first class at or above u without
        exactly one parent; every up path from u runs along that chain,
        where depth drops by 1 per edge, so the shortest and the longest
        distance from u up to a in A(u) are depth(u) minus a label: depth(a)
        on the chain, depth(top) - d(top, a) above it (a 2-hop distance
        labelling with the top as its only hub: Cohen, Halperin, Kaplan and
        Zwick, SODA 2002). A chain shares its top's tables, which omit each
        label equal to depth(a). Tops are built in the view's order from
        their parents' tables: d(top, a) is 1 plus the least or greatest
        d(p, a)."""
        tables = self._paths
        if tables is None:
            parents, depth, anc = self._parents, self._depth, self._anc
            tables = {}
            for c in self._order:
                ps = parents[c]
                if len(ps) == 1:
                    tables[c] = tables[ps[0]]
                    continue
                short, long = {}, {}
                for p in ps:
                    _, short_p, long_p = tables[p]
                    shift = depth[c] - depth[p] - 1
                    for a in anc[p]:
                        da = depth[a]
                        s = short_p.get(a, da) + shift
                        if s > short.get(a, da):
                            short[a] = s
                        s = long_p.get(a, da) + shift
                        if s < long.get(a, s + 1):
                            long[a] = s
                long = {a: s for a, s in long.items() if s != depth[a]}
                tables[c] = (c, short, long)
            self._paths = tables
        return tables

    def up_distances(self, node: NodeId) -> dict[NodeId, int]:
        """Shortest edge counts from the class up to each of its ancestors."""
        self._check(node)
        depth = self._depth
        labels = self._path_tables()[node][1]
        return {a: depth[node] - labels.get(a, depth[a]) for a in self._anc[node]}

    def _via_ancestor(self, u: NodeId, v: NodeId, turn: int) -> int:
        """min over common ancestors a of sp(u, a) + sp(v, a), plus `turn`
        where the path goes up from both sides and turns down at a; 0 when
        u == v."""
        depth, tables = self._depth, self._path_tables()
        su, sv = tables[u][1], tables[v][1]
        return depth[u] + depth[v] + min(
            (turn if a != u and a != v else 0) - su.get(a, depth[a]) - sv.get(a, depth[a])
            for a in self._anc[u] & self._anc[v]
        )

    def shortest_path(
        self,
        u: NodeId,
        v: NodeId,
        constraint: AncestorConstraint = AncestorConstraint.VIA_LCA,
    ) -> int:
        """Edge count of the shortest subClassOf path between two classes:
        the minimum of sp(u, a) + sp(v, a) over common ancestors a."""
        if constraint is not AncestorConstraint.VIA_LCA:
            raise ContractError(f"unknown path constraint {constraint!r}; the only one is VIA_LCA")
        self._check(u)
        self._check(v)
        return self._via_ancestor(u, v, 0)

    def _require_ancestor(self, u: NodeId, a: NodeId) -> None:
        self._check(u)
        if a not in self._anc[u]:
            raise UnknownNodeError(f"{self.label(a)} is not an ancestor of {self._labels[u]}")

    def longest_up_distance(self, u: NodeId, a: NodeId) -> int:
        """Longest subClassOf path length from u up to its ancestor a."""
        self._require_ancestor(u, a)
        return self._depth[u] - self._path_tables()[u][2].get(a, self._depth[a])

    def shortest_up_path_edges(self, u: NodeId, a: NodeId) -> list[tuple[NodeId, NodeId]]:
        """One shortest u-to-a edge chain, deterministic by label order.

        A class with one parent steps to it; a class x with several steps
        to the label-smallest parent below or at a that is one edge closer
        to a than x is."""
        self._require_ancestor(u, a)
        return list(self._up_path(u, a))

    def _up_path(self, u: NodeId, a: NodeId):
        """Yield the edges of shortest_up_path_edges(u, a), a in A(u), as they
        are walked."""
        parents = self._parents
        x = u
        while x != a:
            ps = parents[x]
            step = ps[0] if len(ps) == 1 else self._up_step(x, a)
            yield x, step
            x = step

    def _up_step(self, x: NodeId, a: NodeId) -> NodeId:
        """The parent that shortest_up_path_edges steps to from x, a class
        with several parents, towards a in A(x): the label-smallest parent
        below or at a that is one edge closer to a than x is."""
        depth, tables, anc = self._depth, self._path_tables(), self._anc
        da = depth[a]
        closer = depth[x] - tables[x][1].get(a, da) - 1
        return min(
            (
                p for p in self._parents[x]
                if a in anc[p] and depth[p] - tables[p][1].get(a, da) == closer
            ),
            key=self._labels.__getitem__,
        )

    def _count_tables(self) -> dict:
        """{top: (N, L, down)}, built on the first path-count query. N and
        L are the number and summed length of the paths from the chain top
        up to the root; down maps a class a of A(top) to N and L of the
        paths from the top up to a, kept only where N > 1: a single path is
        a shortest one, whose length the path tables hold. Tops are built
        in the view's order from their parents' tops: a path from the top runs
        one edge to a parent p, then along p's chain to p's top x, so it
        adds e + 1 edges to a path from x, e being that chain's edge count.
        Exact in Python ints."""
        counts = self._counts
        if counts is None:
            paths, parents, depth, anc = self._path_tables(), self._parents, self._depth, self._anc
            counts = {self.root: (1, 0, {})}
            for c in self._order:
                ps = parents[c]
                if len(ps) < 2:
                    continue
                n_root = l_root = 0
                acc: dict[NodeId, tuple[int, int]] = {}
                for p in ps:
                    x, short, _ = paths[p]
                    n, length, down = counts[x]
                    step = depth[p] - depth[x] + 1
                    n_root += n
                    l_root += length + step * n
                    for a in anc[p]:
                        m = down.get(a)
                        if m is None:
                            m = (1, depth[p] - short.get(a, depth[a]) + 1)
                        else:
                            m = (m[0], m[1] + step * m[0])
                        q = acc.get(a)
                        acc[a] = m if q is None else (q[0] + m[0], q[1] + m[1])
                counts[c] = (n_root, l_root, {a: m for a, m in acc.items() if m[0] > 1})
            self._counts = counts
        return counts

    def _root_path_stats(self, u: NodeId, among: Iterable[NodeId]) -> dict:
        """{a: (number of u-to-root paths through a, their summed length)}
        for the classes a of among, a subset of A(u).

        With N and L the number and summed length of the paths between two
        classes, a lies on N(u, a) N(a, root) root paths whose lengths sum
        to L(u, a) N(a, root) + N(u, a) L(a, root). Every up path from a
        class runs along its chain to its top x, so N(u, a) = N(x, a) and
        L(u, a) = L(x, a) + e N(x, a) for a in A(x), e being the chain's
        edge count, and a class on u's chain below x lies on every root
        path, as x does.
        """
        paths, counts, depth = self._path_tables(), self._count_tables(), self._depth
        x, short, _ = paths[u]
        n_x, l_x, down = counts[x]
        e = depth[u] - depth[x]
        stats = {}
        for a in among:
            if depth[a] > depth[x]:
                stats[a] = (n_x, l_x + e * n_x)
                continue
            m = down.get(a)
            m, k = (1, depth[u] - short.get(a, depth[a])) if m is None else (m[0], m[1] + e * m[0])
            y = paths[a][0]
            n, length, _ = counts[y]
            length += (depth[a] - depth[y]) * n
            stats[a] = (m * n, k * n + m * length)
        return stats

    def up_path_stats(self, u: NodeId) -> dict[NodeId, tuple[int, int]]:
        """Per ancestor a: (number of u-to-root paths through a, summed
        length), read from the count tables."""
        self._check(u)
        return self._root_path_stats(u, self._anc[u])
