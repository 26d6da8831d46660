"""Relatedness over the full, possibly cyclic multi-predicate graph:
predicate-weighted shortest paths, random-walk hitting and commute times,
and SimRank.

The transition model and the graph are immutable after construction (the
graph builds its relational tables on first use, see SemanticGraph); each
function here fetches the table it reads once per call: shortest paths
read the weighted neighbour rows, the walk model and SimRank the out/in
adjacency. The SimRank iteration double-buffers its score tables.

numpy is imported by the functions that build dense tables, not by the
module, so importing smx does not load it. Each dense build checks its
float64 footprint against DENSE_LIMIT_BYTES before it allocates.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Mapping

from .errors import ContractError, DivergenceError, InfinityError, UnknownNodeError
from .graph import NodeId, SemanticGraph


@dataclass(frozen=True)
class PredicateWeightScheme:
    """Per-predicate cost multipliers applied on top of edge weights."""

    weights: Mapping[str, float] = field(default_factory=dict)
    default: float = 1.0

    def __post_init__(self):
        for name, value in list(self.weights.items()) + [("default", self.default)]:
            if not math.isfinite(value) or value < 0:
                raise ContractError(f"weight for {name!r} must be finite and >= 0")

    def cost(self, predicate: str) -> float:
        return self.weights.get(predicate, self.default)


UNIFORM = PredicateWeightScheme()

DENSE_LIMIT_BYTES = 2 << 30  # largest float64 footprint of one dense build


def _check_dense(what: str, tables: int, side: int) -> None:
    """Raise ContractError when tables float64 side x side tables exceed
    DENSE_LIMIT_BYTES, before any of them is allocated."""
    size = 8 * tables * side * side
    if size > DENSE_LIMIT_BYTES:
        raise ContractError(
            f"{what} needs {tables} float64 table(s) of {side} x {side}, "
            f"{size / 2**30:.1f} GiB, above the {DENSE_LIMIT_BYTES / 2**30:g} GiB limit"
        )


def weighted_shortest_path(
    graph: SemanticGraph,
    scheme: PredicateWeightScheme,
    u: NodeId,
    v: NodeId,
) -> float | None:
    """Minimal predicate-weighted cost between two nodes, edges traversable
    in both directions (every relationship implies its inverse).

    Returns None when v is unreachable, which is distinct from any cost. A
    search that ends so although v is reachable found only paths costing
    more than the largest float, and raises InfinityError.
    Bidirectional Dijkstra: one search grows from each endpoint, always on
    the side whose heap top is smaller. mu, the least sum of a node's two
    labels over the nodes both sides have labelled, is updated whenever a
    label drops, and is final once the two heap tops sum to at least mu.
    Costs are >= 0, so that stop is exact. The searches usually meet long
    before either one reaches the other endpoint, but the worst case stays
    O(E log n) per query. The forward search starts from min(u, v), so
    wsp(u, v) and wsp(v, u) are the same computation, bit for bit.

    A relaxed label that lowers a node's label is first checked against
    the other side (the meeting check above), then dropped, neither stored
    nor pushed, when it plus the other side's heap top, as read at the start
    of the iteration, is at least mu. That drop is exact in floats: heap
    tops only rise, mu only falls and float addition is monotone, so the
    dropped entry would have met the stop test before it was popped, and
    any meeting sum through it is at least mu already. Labels are stored
    only when pushed, so a popped entry is stale exactly when it is above
    its node's label.

    A popped entry that is not stale relaxes its node's row of the graph's
    neighbour table (see SemanticGraph._neighbours), which lists each
    distinct (neighbor, predicate, weight) of its out and in edges once. A
    reciprocal edge pair under one predicate and weight is so relaxed once;
    its second copy could never lower the label the first one set.
    """
    if not (0 <= u < graph.n_nodes and 0 <= v < graph.n_nodes):
        raise UnknownNodeError("endpoint is not a node of the graph")
    if u == v:
        return 0.0
    costs = {p: scheme.cost(p) for p in graph.predicates}
    neighbours = graph._neighbours()
    heappop, heappush, inf = heapq.heappop, heapq.heappush, math.inf
    source, target = min(u, v), max(u, v)
    dist = ({source: 0.0}, {target: 0.0})
    heaps = ([(0.0, source)], [(0.0, target)])
    best = inf
    while True:
        # a stale top still bounds the live keys from below, so the stop
        # test stays exact without purging stale entries first
        top_f = heaps[0][0][0] if heaps[0] else inf
        top_b = heaps[1][0][0] if heaps[1] else inf
        if top_f + top_b >= best:
            if best == inf and target in _closure(source, neighbours):
                raise InfinityError(
                    f"every path between {graph.label(u)} and {graph.label(v)} "
                    "costs more than the largest float"
                )
            return None if best == inf else best
        if top_f <= top_b:
            heap, mine, theirs, their_top = heaps[0], dist[0], dist[1], top_b
        else:
            heap, mine, theirs, their_top = heaps[1], dist[1], dist[0], top_f
        d, node = heappop(heap)
        if d > mine[node]:
            continue
        for other, predicate, weight in neighbours[node]:
            nd = d + costs[predicate] * weight
            if nd < mine.get(other, inf):
                if other in theirs and nd + theirs[other] < best:
                    best = nd + theirs[other]
                if nd + their_top < best:
                    mine[other] = nd
                    heappush(heap, (nd, other))


class TransitionModel:
    """Row-stochastic random-walk transitions over the directed graph: a
    step's probability is its share of the source's out-edge products
    scheme.cost(predicate) * weight, exact where their float sum overflows.

    Zero-probability entries are dropped: they are not steps of the walk.
    Each node's steps are a tuple, so no caller can change the walk.
    Construction stores the reverse adjacency of the walk. When the walk is
    irreducible (at least two nodes, strongly connected) it also stores the
    stationary vector pi and a fundamental matrix (see _factorize): one
    O(n^3) inverse and n^2 floats, after which every hitting time is a
    lookup. The factorization holds four n x n tables at its peak (see
    _factorize); above DENSE_LIMIT_BYTES for those, construction raises
    ContractError instead.
    """

    __slots__ = ("graph", "_out_probs", "_sources", "_pi", "_fundamental")

    def __init__(self, graph: SemanticGraph, scheme: PredicateWeightScheme = UNIFORM):
        self.graph = graph
        n = graph.n_nodes
        out_edges = graph._adjacent()[0]
        self._out_probs = {}
        self._sources = {node: [] for node in range(n)}
        for node in range(n):
            weights: dict[NodeId, float] = {}
            for predicate, other in out_edges[node]:
                w = scheme.cost(predicate) * graph.weight((node, predicate, other))
                weights[other] = weights.get(other, 0.0) + w
            total = sum(weights.values())
            if not math.isfinite(total):
                shares = _exact_shares(graph, scheme, node, out_edges[node])
            else:
                shares = sorted((k, w / total) for k, w in weights.items()) if total else []
            steps = tuple((k, p) for k, p in shares if p > 0)
            self._out_probs[node] = steps
            for k, p in steps:
                self._sources[k].append((node, p))
        self._pi = self._fundamental = None
        if n >= 2 and all(
            len(_closure(0, adjacent)) == n for adjacent in (self._out_probs, self._sources)
        ):
            self._pi, self._fundamental = self._factorize()

    @classmethod
    def from_graph(
        cls, graph: SemanticGraph, scheme: PredicateWeightScheme = UNIFORM
    ) -> "TransitionModel":
        return cls(graph, scheme)

    def transitions(self, node: NodeId) -> tuple[tuple[NodeId, float], ...]:
        try:
            return self._out_probs[node]
        except KeyError:
            raise UnknownNodeError("endpoint is not a node of the graph") from None

    @property
    def irreducible(self) -> bool:
        """Whether every node reaches every other one, so that hitting
        times are read from the fundamental matrix."""
        return self._fundamental is not None

    def _factorize(self):
        """pi and G = (I - P + 1 w^T)^-1 for the uniform w, one inverse.

        For any w with sum(w) = 1, G is nonsingular when P is irreducible
        and pi^T = w^T G. With w = pi, G is the fundamental matrix Z of
        Kemeny and Snell; for other w it differs from Z by a rank-one term
        1 x^T (Sherman-Morrison), which cancels in G[v, v] - G[u, v], so
        H(u, v) = (G[v, v] - G[u, v]) / pi[v] holds for either.

        The peak holds four n x n tables: the matrix, the copy LAPACK
        factors, the identity right-hand side and the inverse.
        """
        n = self.graph.n_nodes
        _check_dense("the fundamental matrix", 4, n)
        import numpy as np

        matrix = np.full((n, n), 1.0 / n)
        matrix[np.diag_indices(n)] += 1.0
        for x, probs in self._out_probs.items():
            for k, p in probs:
                matrix[x, k] -= p
        fundamental = np.linalg.inv(matrix)
        return fundamental.mean(axis=0), fundamental


def _exact_shares(graph, scheme, node, edges) -> list[tuple[NodeId, float]]:
    """Sorted (k, share of k) over node's out edges, from the exact products
    cost * weight, each share rounded once."""
    from fractions import Fraction  # on this path only, as in ThetaEstimator.sum

    weights: dict[NodeId, Fraction] = {}
    for predicate, other in edges:
        w = Fraction(scheme.cost(predicate)) * Fraction(graph.weight((node, predicate, other)))
        weights[other] = weights.get(other, 0) + w
    total = sum(weights.values())
    return sorted((k, float(w / total)) for k, w in weights.items())


def _closure(start: NodeId, adjacent, stop: NodeId | None = None) -> set:
    """Nodes reachable from start over adjacent[x] = [(node, ...), ...],
    not leaving stop."""
    seen = {start}
    queue = deque((start,))
    while queue:
        x = queue.popleft()
        if x == stop:
            continue
        for step in adjacent[x]:
            k = step[0]
            if k not in seen:
                seen.add(k)
                queue.append(k)
    return seen


def hitting_time(model: TransitionModel, u: NodeId, v: NodeId) -> float:
    """Expected number of steps for a walker starting at u to first reach v.

    An irreducible walk reads H(u, v) = (G[v, v] - G[u, v]) / pi[v] from
    the model's fundamental matrix G. Otherwise H(x, v) = 1 + sum_k p(x, k)
    H(k, v) with H(v, v) = 0 is solved over the states the walk can visit
    from u, and DivergenceError is raised when absorption at v is not
    almost sure from u. ContractError is raised when that system, two
    tables at its peak (the matrix and the copy LAPACK factors), exceeds
    DENSE_LIMIT_BYTES.
    """
    graph = model.graph
    if not (0 <= u < graph.n_nodes and 0 <= v < graph.n_nodes):
        raise UnknownNodeError("endpoint is not a node of the graph")
    if u == v:
        return 0.0
    if model.irreducible:
        g = model._fundamental
        return float((g[v, v] - g[u, v]) / model._pi[v])

    reach = _closure(u, model._out_probs, stop=v)
    if v not in reach:
        raise DivergenceError(
            f"{graph.label(v)} is unreachable from {graph.label(u)}"
        )
    # every wanderable state must still be able to reach v, otherwise the
    # walk escapes into a closed region and the expectation diverges
    stuck = reach - _closure(v, model._sources)
    if stuck:
        name = graph.label(min(stuck))
        raise DivergenceError(
            f"walk from {graph.label(u)} can wander to {name} "
            f"which cannot reach {graph.label(v)}"
        )

    states = sorted(reach - {v})
    _check_dense("the hitting-time system", 2, len(states))
    import numpy as np

    index = {s: i for i, s in enumerate(states)}
    n = len(states)
    matrix = np.eye(n)
    for s in states:
        for k, p in model.transitions(s):
            if k in index:
                matrix[index[s], index[k]] -= p
    hitting = np.linalg.solve(matrix, np.ones(n))
    return float(hitting[index[u]])


def commute_time(model: TransitionModel, u: NodeId, v: NodeId) -> float:
    """Expected round-trip time: H(u, v) + H(v, u)."""
    return hitting_time(model, u, v) + hitting_time(model, v, u)


class SimRankScores:
    """Converged SimRank table with the per-iteration max deltas kept for
    convergence diagnostics."""

    __slots__ = ("_matrix", "deltas", "iterations")

    def __init__(self, matrix, deltas):
        self._matrix = matrix
        self.deltas = deltas
        self.iterations = len(deltas)

    def score(self, u: NodeId, v: NodeId) -> float:
        n = len(self._matrix)
        if not (0 <= u < n and 0 <= v < n):
            raise UnknownNodeError("endpoint is not a node of the graph")
        return float(self._matrix[u, v])

    def as_array(self) -> np.ndarray:
        return self._matrix.copy()


def simrank(
    graph: SemanticGraph,
    decay: float = 0.8,
    iterations: int = 100,
    tol: float = 0.0,
) -> SimRankScores:
    """Fixed-point SimRank over in-neighbor sets.

    s(u, u) = 1 and s(u, v) averages s over the in-neighbor pairs, scaled
    by the decay; nodes without in-neighbors score 0 against every other
    node. Iterates are non-decreasing and converge for decay in (0, 1).

    Each iteration averages rows over in-neighbors twice, with a transpose
    between: O(E n) time per iteration and three n x n tables, which
    must fit in DENSE_LIMIT_BYTES or ContractError is raised.
    """
    if not 0.0 < decay < 1.0:
        raise ContractError("simrank decay must lie strictly between 0 and 1")
    if iterations < 1:
        raise ContractError("simrank needs at least one iteration")
    if graph.n_nodes == 0:
        raise ContractError("simrank needs a non-empty graph")
    n = graph.n_nodes
    _check_dense("simrank", 3, n)
    import numpy as np

    sources = [sorted({s for _, s in edges}) for edges in graph._adjacent()[1]]
    # Tables are indexed by rank, nodes ordered by decreasing in-degree, so
    # the nodes with a k-th in-neighbor are a prefix of the rows: slot k
    # holds the ranks of those k-th in-neighbors.
    order = sorted(range(n), key=lambda x: len(sources[x]), reverse=True)
    rank = [0] * n
    for r, x in enumerate(order):
        rank[x] = r
    slots = [[] for _ in sources[order[0]]]
    for x in order:
        for slot, s in zip(slots, sources[x]):
            slot.append(rank[s])
    slots = [np.array(slot, dtype=np.intp) for slot in slots]
    degree = np.array([len(sources[x]) for x in order], dtype=float)
    scale = np.divide(1.0, degree, out=np.zeros(n), where=degree > 0)
    decayed = decay * scale
    spare = np.empty((max(1, min(n, _BLOCK // n)), n))

    scores = np.eye(n)
    averaged = np.empty((n, n))
    work = np.empty((n, n))
    deltas: list[float] = []
    for _ in range(iterations):
        # scores is symmetric, so W scores W^T = W (W scores)^T
        _average_in_neighbors(scores, slots, scale, averaged, spare)
        np.copyto(work, averaged.T)
        _average_in_neighbors(work, slots, decayed, averaged, spare)
        np.fill_diagonal(averaged, 1.0)
        np.subtract(averaged, scores, out=work)
        delta = float(np.max(np.abs(work, out=work)))
        deltas.append(delta)
        scores, averaged = averaged, scores
        if delta <= tol:
            break
    del averaged, work, spare  # freed before the reordered copy
    return SimRankScores(scores[np.ix_(rank, rank)], deltas)


_BLOCK = 1 << 18  # floats per gathered block of rows


def _average_in_neighbors(table, slots, scale, out, spare):
    """out[i] = scale[i] * sum of table[j] over the in-neighbors j of row i.

    The first slot, which covers every row with an in-neighbor, is gathered
    straight into out and the rows past it are zeroed; the later slots are
    added in blocks of spare's rows. Scores are >= 0, so starting from the
    first slot's rows instead of 0 + them moves no bit."""
    if not slots:
        out.fill(0.0)
        return
    first = slots[0]
    table.take(first, axis=0, out=out[: len(first)], mode="clip")
    out[len(first) :] = 0.0
    rows = len(spare)
    for slot in slots[1:]:
        for start in range(0, len(slot), rows):
            chunk = slot[start : start + rows]
            block = spare[: len(chunk)]
            table.take(chunk, axis=0, out=block, mode="clip")
            out[start : start + len(chunk)] += block
    out *= scale[:, None]
