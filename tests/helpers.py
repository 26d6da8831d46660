"""Shared test utilities: random taxonomy generators, a fuzz strategy for
the TSV parsers, and brute-force oracles kept deliberately independent of
the library's own algorithms."""

from __future__ import annotations

import heapq
import math
import random
from collections import deque
from fractions import Fraction

import numpy as np
from hypothesis import strategies as st

from smx import (
    AnnotationSet,
    MeasureValue,
    Polarity,
    ReductionReport,
    SemanticGraph,
    parse_graph,
    taxonomic_reduction,
)
from smx.errors import (
    ClassificationError,
    InfiniteICError,
    ParseError,
    UnknownNodeError,
    UsageError,
)
from smx.graph import IS_A, SUBCLASS_OF, TaxonomyView
from smx.ingest import read_triples


def graph_from_pairs(pairs):
    """The parsed graph of (child, parent) label pairs."""
    return parse_graph("\n".join(f"{c}\tsubClassOf\t{p}" for c, p in pairs).encode())


def taxonomy_from_pairs(pairs):
    """pairs of (child, parent) labels."""
    return taxonomic_reduction(graph_from_pairs(pairs))


def view_of(labels, class_ids, edges):
    """The view of a SemanticGraph whose classes are class_ids, class c
    labelled labels[c], with the subClassOf edges (child, parent). Every
    other id below the largest class id is an instance, so the class ids
    can be chosen freely, where a parsed graph numbers them in label order."""
    classes = set(class_ids)
    n = max(classes) + 1
    names = [labels[i] if i in classes else f"#{i}" for i in range(n)]
    graph = SemanticGraph(
        names,
        classes,
        set(range(n)) - classes,
        [SUBCLASS_OF],
        [(child, SUBCLASS_OF, parent) for child, parent in edges],
    )
    return TaxonomyView.build(graph)


def random_taxonomy(rng: random.Random, max_nodes=50, tree=False, multi=0.3):
    """Rooted random DAG (or tree); returns (taxonomy, raw edge pairs).

    Node i only attaches to earlier nodes, so the result is acyclic and
    singly rooted at n000. Redundant edges can occur, which is on purpose.
    """
    n = rng.randint(2, max_nodes)
    pairs = []
    for i in range(1, n):
        label = f"n{i:03d}"
        if tree:
            parents = {rng.randrange(i)}
        else:
            count = 1
            while count < min(i, 3) and rng.random() < multi:
                count += 1
            parents = set(rng.sample(range(i), count))
        for p in sorted(parents):
            pairs.append((label, f"n{p:03d}"))
    return taxonomy_from_pairs(pairs), pairs


def relabelled(t, pairs, rng: random.Random):
    """The view t and its (child, parent) label pairs with the labels
    shuffled over the classes. A parsed view numbers classes in label
    order, so only a relabelled one tells a tie broken by label from one
    broken by id."""
    classes = sorted(t.class_ids)
    names = [t.label(c) for c in classes]
    rename = dict(zip(names, rng.sample(names, len(names))))
    view = view_of({c: rename[t.label(c)] for c in classes}, classes, t.edges)
    return view, [(rename[child], rename[parent]) for child, parent in pairs]


def parents_of(pairs):
    table: dict[str, set] = {}
    for child, parent in pairs:
        table.setdefault(child, set()).add(parent)
        table.setdefault(parent, set())
    return table


def children_of(pairs):
    table: dict[str, set] = {}
    for child, parent in pairs:
        table.setdefault(parent, set()).add(child)
        table.setdefault(child, set())
    return table


# tokens that probe the parsers: reserved names, non-finite and huge
# numbers, empty and blank fields, separators, a stray byte-order mark
FUZZ_TOKENS = [
    "A", "B", "E", "root", "g1", "__root__", "__x__", "subClassOf", "isA", "partOf", "*",
    "nan", "NaN", "inf", "-inf", "-1", "0", "1e308", "1e400", "0.5", "", " ", "E,F", "E;F",
    "\u00e9", "\ufeff", "\x00", "#c",
]


@st.composite
def fuzz_tsv(draw):
    """TSV bytes of token lines with stray tabs, an optional leading BOM,
    each line ended by LF, CRLF or a lone CR, and sometimes a byte that is
    not UTF-8."""
    lines = draw(st.lists(st.lists(st.sampled_from(FUZZ_TOKENS), min_size=1, max_size=5), max_size=6))
    ends = st.sampled_from(["\n", "\r\n", "\r"])
    text = ("\ufeff" if draw(st.booleans()) else "") + "".join("\t".join(l) + draw(ends) for l in lines)
    data = text.encode()
    if draw(st.booleans()):
        data += b"x\xff\ty" + draw(ends).encode()
    return data


@st.composite
def triple_tsv(draw):
    """Triple lines over a few labels and predicates, isA included, each
    with or without a weight, so that duplicate triples, conflicting
    weights, equal weights written two ways and class-instance clashes all
    occur."""
    node = st.sampled_from(["A", "B", "C", "root", "i1", "i2"])
    predicate = st.sampled_from(["subClassOf", "subClassOf", "isA", "partOf", "hunts"])
    weight = st.sampled_from([None, "0", "1", "1.0", "2.5"])
    lines = draw(st.lists(st.tuples(node, predicate, node, weight), max_size=12))
    return "".join("\t".join(f for f in line if f is not None) + "\n" for line in lines).encode()


# -- brute-force oracles -------------------------------------------------


def record_graph(source):
    """parse_graph as it was built on TripleRecords: the reference for the
    tuple-based parser, which must raise the same errors and build the same
    graph."""
    records = read_triples(source)
    if not records:
        raise ParseError("empty graph: a graph must contain at least one class")
    class_labels: set[str] = set()
    instance_labels: set[str] = set()
    all_labels: set[str] = set()
    for rec in records:
        all_labels.update((rec.subject, rec.object))
        if rec.predicate == SUBCLASS_OF:
            class_labels.update((rec.subject, rec.object))
        elif rec.predicate == IS_A:
            instance_labels.add(rec.subject)
            class_labels.add(rec.object)
    clash = class_labels & instance_labels
    if clash:
        names = ", ".join(sorted(clash))
        raise ClassificationError(f"used as both class and instance: {names}")
    instance_labels |= all_labels - class_labels

    labels = sorted(all_labels)
    index = {label: i for i, label in enumerate(labels)}
    edges = {}
    for rec in records:
        edge = (index[rec.subject], rec.predicate, index[rec.object])
        if edge in edges and edges[edge] != rec.weight:
            raise ParseError(
                f"duplicate triple {rec.subject} {rec.predicate} {rec.object} "
                "with conflicting weights"
            )
        edges[edge] = rec.weight
    weighted = any(w is not None for w in edges.values())
    edge_weights = (
        {e: (1.0 if w is None else w) for e, w in edges.items()} if weighted else None
    )
    return SemanticGraph(
        labels=labels,
        classes={index[c] for c in class_labels},
        instances={index[i] for i in instance_labels},
        predicates={rec.predicate for rec in records},
        edges=set(edges),
        edge_weights=edge_weights,
    )




def brute_reachable(adjacent, start):
    """Inclusive reachability closure by stack DFS."""
    seen = {start}
    stack = [start]
    while stack:
        for nxt in adjacent.get(stack.pop(), ()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def brute_ancestors(pairs, node):
    return brute_reachable(parents_of(pairs), node)


def brute_descendants(pairs, node):
    return brute_reachable(children_of(pairs), node)


def brute_depth(pairs, node):
    """Longest edge path from the root, by exhaustive path enumeration."""
    parents = parents_of(pairs)

    def longest(x):
        if not parents[x]:
            return 0
        return 1 + max(longest(p) for p in parents[x])

    return longest(node)


def brute_closure_map(pairs):
    """Inclusive ancestor set of every node, each by independent DFS."""
    parents = parents_of(pairs)
    return {node: brute_reachable(parents, node) for node in parents}


def brute_ncca_from_map(closure, u, v):
    common = closure[u] & closure[v]
    keep = set()
    for a in common:
        if not any(b != a and a in closure[b] for b in common):
            keep.add(a)
    return keep


def brute_ncca(pairs, u, v):
    return brute_ncca_from_map(brute_closure_map(pairs), u, v)


def brute_up_distances(pairs, node):
    parents = parents_of(pairs)
    dist = {node: 0}
    queue = deque((node,))
    while queue:
        x = queue.popleft()
        for p in parents[x]:
            if p not in dist:
                dist[p] = dist[x] + 1
                queue.append(p)
    return dist


def brute_via_lca(pairs, u, v):
    du = brute_up_distances(pairs, u)
    dv = brute_up_distances(pairs, v)
    return min(du[a] + dv[a] for a in du.keys() & dv.keys())


def brute_unconstrained(pairs, u, v):
    neighbors: dict[str, set] = {}
    for child, parent in pairs:
        neighbors.setdefault(child, set()).add(parent)
        neighbors.setdefault(parent, set()).add(child)
    dist = {u: 0}
    queue = deque((u,))
    while queue:
        x = queue.popleft()
        if x == v:
            return dist[x]
        for nxt in neighbors[x]:
            if nxt not in dist:
                dist[nxt] = dist[x] + 1
                queue.append(nxt)
    raise AssertionError("disconnected taxonomy in oracle")


def brute_up_paths(pairs, node, top):
    """Every upward path from node to its ancestor top, as label tuples,
    by exhaustive enumeration."""
    parents = parents_of(pairs)
    paths = []
    stack = [(node,)]
    while stack:
        path = stack.pop()
        if path[-1] == top:
            paths.append(path)
        else:
            stack.extend(path + (p,) for p in parents[path[-1]])
    return paths


def brute_up_path_stats(pairs, node):
    """Per ancestor label: (number of node-to-root paths through it, summed
    length of those paths), from the enumeration of every root path."""
    (root,) = (c for c, ps in parents_of(pairs).items() if not ps)
    stats: dict[str, list[int]] = {}
    for path in brute_up_paths(pairs, node, root):
        for member in path:
            entry = stats.setdefault(member, [0, 0])
            entry[0] += 1
            entry[1] += len(path) - 1
    return {a: tuple(entry) for a, entry in stats.items()}


def brute_shortest_up_path(pairs, node, top):
    """The label-wise smallest of the shortest node-to-top paths, as edges."""
    path = min(brute_up_paths(pairs, node, top), key=lambda p: (len(p), p))
    return list(zip(path, path[1:]))


def brute_redundant_edges(pairs):
    """An edge is redundant iff its endpoints stay connected without it."""
    redundant = set()
    for edge in pairs:
        child, parent = edge
        remaining = [e for e in pairs if e != edge]
        if parent in brute_ancestors(remaining, child):
            redundant.add(edge)
    return redundant


# -- random annotations and the annotation oracles -----------------------


def random_annotations(rng: random.Random, taxonomy, max_instances=8):
    """Instance annotations over a taxonomy: single classes, a class with
    some of its ancestors, a class with the root, loose class sets, and
    instances that share classes with an earlier one."""
    classes = sorted(taxonomy.class_ids)
    assignments = {}
    for k in range(rng.randint(1, max_instances)):
        c = rng.choice(classes)
        kind = rng.randrange(4)
        if kind == 0:
            picks = {c}
        elif kind == 1:
            above = sorted(taxonomy.ancestors(c))
            picks = {c, *rng.sample(above, min(2, len(above)))}
        elif kind == 2:
            picks = {c, taxonomy.root}
        else:
            picks = set(rng.sample(classes, rng.randint(1, min(5, len(classes)))))
        if assignments and rng.random() < 0.3:
            picks |= rng.choice(sorted(assignments.values(), key=sorted))
        assignments[f"i{k}"] = frozenset(picks)
    return AnnotationSet(assignments=assignments)


def brute_class_usage(taxonomy, annotations):
    """{class: frozenset of instance names}: class usage by adding each
    instance to every ancestor of each of its classes."""
    if not annotations.assignments:
        raise UsageError("empty annotation set: extrinsic estimators are undefined")
    members = {c: set() for c in taxonomy.class_ids}
    for instance, classes in annotations.assignments.items():
        closure = set()
        for c in classes:
            if c not in taxonomy.class_ids:
                raise UnknownNodeError(f"annotation class {c} is not in the taxonomy")
            closure |= taxonomy.ancestors(c)
        for a in closure:
            members[a].add(instance)
    return {c: frozenset(s) for c, s in members.items()}


def brute_reduce_annotations(taxonomy, annotations):
    """Annotation reduction testing every class against the ancestor set
    of every other class of the instance."""
    reduced = {}
    removed = {}
    for instance, classes in annotations.assignments.items():
        for c in classes:
            if c not in taxonomy.class_ids:
                raise UnknownNodeError(f"annotation class {c} is not part of the taxonomy")
        keep = frozenset(
            c
            for c in classes
            if not any(other != c and c in taxonomy.ancestors(other) for other in classes)
        )
        reduced[instance] = keep
        dropped = classes - keep
        if dropped:
            removed[instance] = frozenset(taxonomy.label(c) for c in dropped)
    report = ReductionReport(removed_annotations=removed)
    return AnnotationSet(assignments=reduced, warnings=annotations.warnings), report


# -- published formulas of the catalog rows that are abstract forms ------


def form_row_oracle(name, t, theta, u, v, params):
    """(value, degenerate) of a form-backed catalog measure, computed
    straight from its published formula over the ancestor sets and theta.

    theta(MICA) is taken as the largest theta over the common ancestors; a
    vanishing denominator gives (0.0, True).
    """
    au, av = t.ancestors(u), t.ancestors(v)
    both, only_u, only_v = au & av, au - av, av - au
    mass = lambda nodes: sum(theta(c) for c in nodes)
    iu, iv, ia = theta(u), theta(v), max(theta(c) for c in both)
    n, nu, nv = len(both), len(only_u), len(only_v)
    alpha, beta, gamma = (params.get(k, 0.0) for k in ("alpha", "beta", "gamma"))
    ratios = {
        "lin": (2.0 * ia, iu + iv),
        "faith": (ia, iu + iv - ia),
        "nunivers": (ia, max(iu, iv)),
        "sim_dic": (2.0 * mass(both), mass(au) + mass(av)),
        "jac_anc": (mass(both), mass(au | av)),
        "cmatch": (n, len(au | av)),
        "dice_anc": (2.0 * n, len(au) + len(av)),
        "tversky_ratio": (n, alpha * nu + beta * nv + n),
        "rodriguez_egenhofer": (n, gamma * nu + (1.0 - gamma) * nv + n),
    }
    if name in ratios:
        num, den = ratios[name]
        return (0.0, True) if den == 0 else (num / den, False)
    differences = {
        "jiang_conrath": iu + iv - 2.0 * ia,
        "psec": 3.0 * ia - iu - iv,
        "tversky_contrast": gamma * n - alpha * nu - beta * nv,
    }
    return differences[name], False


def brute_extensional(name, t, members, total, u, v):
    """jaccard_ext or d'Amato's damato_ext from plain instance sets
    {class: frozenset}. A class without instances raises the UsageError
    the measure names it by, u before v before the anchor; the anchor is
    the common ancestor with the fewest instances, ties to the smallest
    label."""

    def used(c):
        if not members[c]:
            raise UsageError(f"class {t.label(c)} has no instances")
        return members[c]

    iu, iv = used(u), used(v)
    if name == "jaccard_ext":
        return len(iu & iv) / len(iu | iv)
    common = t.ancestors(u) & t.ancestors(v)
    ia = used(min(common, key=lambda c: (len(members[c]), t.label(c))))
    ratio = min(len(iu), len(iv)) / len(ia)
    return ratio * (1.0 - len(ia) / total) * (1.0 - ratio)


# -- path-weighted kernels: from path enumeration ------------------------


def brute_jc_hybrid(pairs, theta, u, v, alpha, beta, weight):
    """Jiang and Conrath's hybrid distance between labels u and v, theta a
    {label: value} table. The anchor is the common ancestor of largest
    theta, ties to the smallest label. Each edge of the union of the two
    label-smallest shortest paths up to it adds density x depth factor x
    (theta(child) - theta(parent)) x weight, where density is beta + (1 -
    beta) x (edges / classes) / (children of the parent) and the depth
    factor is ((d + 1) / d)^alpha with d the parent's depth plus one.
    Raises InfiniteICError when theta is infinite at a common ancestor or
    on a path edge, the classes whose theta the measure reads.
    """
    closure = brute_closure_map(pairs)
    common = closure[u] & closure[v]
    if any(math.isinf(theta[c]) for c in common):
        raise InfiniteICError("a common ancestor has undefined theta")
    a = min(common, key=lambda c: (-theta[c], c))
    edges = set(brute_shortest_up_path(pairs, u, a)) | set(brute_shortest_up_path(pairs, v, a))
    if any(math.isinf(theta[c]) for edge in edges for c in edge):
        raise InfiniteICError("a path class has undefined theta")
    children = children_of(pairs)
    mean_density = len(set(pairs)) / len(closure)
    total = 0.0
    for child, parent in edges:
        density = beta + (1.0 - beta) * mean_density / len(children[parent])
        d = brute_depth(pairs, parent) + 1
        total += density * ((d + 1.0) / d) ** alpha * (theta[child] - theta[parent]) * weight
    return total


def edge_set_jc_hybrid(spec, t, u, v):
    """jc_hybrid of classes u and v by the edge-set evaluation: the union of
    the two shortest_up_path_edges lists up to the MICA, theta read once
    per class in order of first use along that set, and one term per edge.
    The library's single up-walk must equal it bit for bit, errors
    included."""
    alpha, beta, predicate_weight = spec.args
    theta = spec.theta
    a = t.mica(theta, u, v)
    mean_density = len(t.edges) / len(t.class_ids)
    edges = set(t.shortest_up_path_edges(u, a)) | set(t.shortest_up_path_edges(v, a))
    classes = dict.fromkeys(c for edge in edges for c in edge)
    ic = dict(zip(classes, theta.values(classes)))
    terms = []
    for child, parent in edges:
        density = beta + (1.0 - beta) * mean_density / len(t.children(parent))
        d = t.depth(parent) + 1
        depth_factor = ((d + 1.0) / d) ** alpha
        terms.append(density * depth_factor * (ic[child] - ic[parent]) * predicate_weight)
    return MeasureValue(math.fsum(terms), Polarity.DISTANCE, False)


def _brute_deepest_common(pairs, u, v):
    """(a, depth(a), longest u-to-a path, longest v-to-a path) for a the
    deepest common ancestor of labels u and v, ties to the smallest label,
    every path enumerated."""
    closure = brute_closure_map(pairs)
    a = min(closure[u] & closure[v], key=lambda c: (-brute_depth(pairs, c), c))
    up = lambda x: max(len(path) for path in brute_up_paths(pairs, x, a)) - 1
    return a, brute_depth(pairs, a), up(u), up(v)


def brute_wu_palmer(pairs, u, v):
    """(value, degenerate) of Wu and Palmer's 2 d / (l_u + l_v + 2 d) between
    labels u and v: d the depth of their deepest common ancestor a, l_u and
    l_v the longest paths up to a; (0.0, True) when the denominator is 0."""
    _, d, lu, lv = _brute_deepest_common(pairs, u, v)
    den = lu + lv + 2 * d
    return (0.0, True) if den == 0 else (2 * d / den, False)


def brute_pekar_staab(pairs, u, v):
    """(value, degenerate) of Pekar and Staab's d / (l_u + l_v + d), with d,
    l_u and l_v as in brute_wu_palmer; (0.0, True) when the denominator is
    0."""
    _, d, lu, lv = _brute_deepest_common(pairs, u, v)
    den = lu + lv + d
    return (0.0, True) if den == 0 else (d / den, False)


def brute_lin_grasm(pairs, theta, u, v):
    """(value, degenerate) of Lin's measure between labels u and v with
    theta(MICA) replaced by the mean theta over their disjoint common
    ancestors (brute_ncca), theta a {label: value} table; (0.0, True) when
    theta(u) + theta(v) is 0."""
    dcas = brute_ncca(pairs, u, v)
    mean = sum(theta[a] for a in dcas) / len(dcas)
    den = theta[u] + theta[v]
    return (0.0, True) if den == 0 else (2.0 * mean / den, False)


def brute_wang_dca(pairs, u, v):
    """(value, degenerate) of Wang et al.'s measure between labels u and v,
    in exact rationals: the mean over the disjoint common ancestors a of
    2 depth(a)^2 / (mean length of the u-to-root paths through a x the same
    for v), each path enumerated; (0, True) when one of those means is 0.
    """
    stats_u, stats_v = brute_up_path_stats(pairs, u), brute_up_path_stats(pairs, v)
    dcas = brute_ncca(pairs, u, v)
    total = Fraction(0)
    for a in dcas:
        (nu, lu), (nv, lv) = stats_u[a], stats_v[a]
        if lu == 0 or lv == 0:
            return Fraction(0), True
        total += Fraction(2 * brute_depth(pairs, a) ** 2 * nu * nv, lu * lv)
    return total / len(dcas), False


# -- relatedness oracles -------------------------------------------------


def brute_adjacency(graph):
    """(out, in): per node, the list of (predicate, neighbor) pairs of its
    outgoing and incoming edges, in the order of the edges' label triples
    (subject label, predicate, object label), read from graph.edges."""
    labelled = sorted((graph.label(s), p, graph.label(o), s, o) for s, p, o in graph.edges)
    out = [[] for _ in range(graph.n_nodes)]
    inc = [[] for _ in range(graph.n_nodes)]
    for _, p, _, s, o in labelled:
        out[s].append((p, o))
        inc[o].append((p, s))
    return out, inc


def brute_neighbours(graph):
    """Per node, the list of (neighbor, predicate, weight) triples of its
    outgoing and then its incoming edges, in brute_adjacency order, each
    triple kept only where it first occurs; weight 1.0 when the graph has
    no edge weights."""
    out, inc = brute_adjacency(graph)
    weights = graph.edge_weights
    weight = (lambda edge: 1.0) if weights is None else weights.__getitem__
    rows = []
    for node in range(graph.n_nodes):
        row = []
        for triple in [(o, p, weight((node, p, o))) for p, o in out[node]] + [
            (s, p, weight((s, p, node))) for p, s in inc[node]
        ]:
            if triple not in row:
                row.append(triple)
        rows.append(row)
    return rows


def two_table_wsp(graph, scheme, u, v):
    """The bidirectional search of weighted_shortest_path as it ran over the
    out/in adjacency, looking each edge's weight up by its (s, p, o) key and
    relaxing every out edge, then every in edge, of a settled node. It is
    the bit-for-bit reference for the search over the neighbour rows."""
    if u == v:
        return 0.0
    costs = {p: scheme.cost(p) for p in graph.predicates}
    weights = graph.edge_weights
    source, target = min(u, v), max(u, v)
    dist = ({source: 0.0}, {target: 0.0})
    done = (set(), set())
    heaps = ([(0.0, source)], [(0.0, target)])
    best = math.inf
    while True:
        top_f = heaps[0][0][0] if heaps[0] else math.inf
        top_b = heaps[1][0][0] if heaps[1] else math.inf
        if top_f + top_b >= best:
            return None if best == math.inf else best
        side = 0 if top_f <= top_b else 1
        heap, mine, theirs, settled = heaps[side], dist[side], dist[1 - side], done[side]
        d, node = heapq.heappop(heap)
        if node in settled:
            continue
        settled.add(node)
        steps = [(other, p, (node, p, other)) for p, other in graph.out_edges(node)]
        steps += [(other, p, (other, p, node)) for p, other in graph.in_edges(node)]
        for other, predicate, edge in steps:
            cost = costs[predicate]
            nd = d + (cost if weights is None else cost * weights[edge])
            if nd < mine.get(other, math.inf):
                mine[other] = nd
                if other in theirs and nd + theirs[other] < best:
                    best = nd + theirs[other]
                heapq.heappush(heap, (nd, other))


def unidirectional_wsp(graph, scheme, u, v):
    """Predicate-weighted shortest path cost by one Dijkstra search grown
    from u until it settles v, edges traversed in both directions; None
    when v is unreachable."""
    if u == v:
        return 0.0
    costs = {p: scheme.cost(p) for p in graph.predicates}
    weights = graph.edge_weights
    dist = {u: 0.0}
    done = set()
    heap = [(0.0, u)]
    while heap:
        d, node = heapq.heappop(heap)
        if node == v:
            return d
        if node in done:
            continue
        done.add(node)
        for predicate, other in graph.out_edges(node):
            if other not in done:
                cost = costs[predicate]
                nd = d + (cost if weights is None else cost * weights[node, predicate, other])
                if nd < dist.get(other, math.inf):
                    dist[other] = nd
                    heapq.heappush(heap, (nd, other))
        for predicate, other in graph.in_edges(node):
            if other not in done:
                cost = costs[predicate]
                nd = d + (cost if weights is None else cost * weights[other, predicate, node])
                if nd < dist.get(other, math.inf):
                    dist[other] = nd
                    heapq.heappush(heap, (nd, other))
    return None


def dense_simrank(graph, decay, iterations, tol=0.0):
    """SimRank by dense products, S <- decay * W S W^T with the unit
    diagonal restored, W the row-normalized matrix of distinct in-neighbors.
    Returns the table and the largest change of each iteration; a
    negative tol runs every iteration."""
    n = graph.n_nodes
    norm_in = np.zeros((n, n))
    for node in range(n):
        sources = {s for _, s in graph.in_edges(node)}
        for s in sources:
            norm_in[node, s] = 1.0 / len(sources)
    scores = np.eye(n)
    deltas = []
    for _ in range(iterations):
        updated = decay * (norm_in @ scores @ norm_in.T)
        np.fill_diagonal(updated, 1.0)
        deltas.append(float(np.max(np.abs(updated - scores))))
        scores = updated
        if deltas[-1] <= tol:
            break
    return scores, deltas


def dense_hitting_time(model, u, v):
    """Expected first-passage time from u to v, or math.inf when the walk
    from u may miss v forever. Reachability comes from boolean matrix
    squaring with v absorbing, then h = 1 + P h is solved densely over the
    states the walk can visit from u before v."""
    if u == v:
        return 0.0
    n = model.graph.n_nodes
    p = np.zeros((n, n))
    for x in range(n):
        for y, prob in model.transitions(x):
            p[x, y] += prob
    step = p > 0
    step[v] = False
    reach = step | np.eye(n, dtype=bool)
    for _ in range(n.bit_length()):
        reach = (reach.astype(float) @ reach.astype(float)) > 0
    visited = np.flatnonzero(reach[u])
    if not reach[visited, v].all():
        return math.inf
    states = [s for s in visited if s != v]
    system = np.eye(len(states)) - p[np.ix_(states, states)]
    return float(np.linalg.solve(system, np.ones(len(states)))[states.index(u)])
