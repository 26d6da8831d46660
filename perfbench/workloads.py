"""The four benchmark workloads.

Each workload is a closed loop: one caller issues the next operation only
after the previous one returned. A workload function takes a `Ctx` and
returns an `Outcome` with per-operation latencies, set-up times, resource
use, per-layer metrics, a descriptor of its inputs and every correctness
mismatch found. The same function runs at full size for the measured
workload and at the small `MINI` size when a traced run of another
workload needs this workload's layers.

Reported times are scaled by the machine-speed factor of speed.py; the
raw figures go to `Outcome.extra`.
"""

from __future__ import annotations

import gc
import heapq
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from array import array
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import inputs
from speed import REFERENCE_S, SHARE, SpeedProbe, Stopwatch
from tracing import NO_SPAN, Tracer

from smx import (
    MEASURES,
    PredicateWeightScheme,
    TransitionModel,
    class_usage,
    commute_time,
    depth_theta,
    eval_abstract,
    eval_groupwise,
    eval_pairwise,
    groupwise_measure,
    ingest,
    instantiate,
    load_rated_pairs,
    pairwise_measure,
    parse_annotations,
    parse_graph,
    parse_word_mapping,
    reduce_annotations,
    resnik_extrinsic_ic,
    run_benchmark,
    score_pairs,
    seco_ic,
    serialize_graph,
    simrank,
    taxonomic_reduction,
    transitive_reduction,
    weighted_shortest_path,
)
from smx.errors import SmxError
from smx.graph import SemanticGraph

# catalog measures that need no annotations, those that do, the named forms
CATALOG = tuple(name for name in sorted(MEASURES) if not MEASURES[name].needs_usage)
USAGE_MEASURES = tuple(name for name in sorted(MEASURES) if MEASURES[name].needs_usage)
FORMS = (
    "lin", "wu_palmer_tree", "faith", "jiang_conrath", "jaccard",
    "dice", "sokal_sneath", "simpson", "ochiai",
)
# groupwise measure -> ops per block. The sizes even out the time per
# measure (avg:jaccard_ext is ~100x simui) while keeping p50 inside the
# simgic ops and p99 inside the avg:jaccard_ext ops, away from the edges
GROUP_MEASURES = {
    "simui": 16, "nto": 16, "simgic": 24, "bma:lin": 8,
    "bmm:wu_palmer": 4, "avg:jaccard_ext": 2, "max:damato_ext": 8,
}
BENCH_MEASURES = "lin:ic=seco,wupalmer,rada"
SIMRANK_DECAY = 0.8
SIMRANK_TOL = 1e-6  # relate: iterate until the largest change is this small
CLI_SIMRANK_ITERATIONS = 30  # cli-cold: `smx rel --method simrank --iterations`
TOL = 1e-9  # absolute and relative tolerance of every float comparison
CODE = 2**31  # an operation's argument pair (a, b) is logged as a * CODE + b

FULL = {
    "classes": 50_000, "instances": 20_000, "rel_nodes": 1_000, "class_pairs": 2_000,
    "instance_pairs": 200, "rated_pairs": 771, "commute_pairs": 10, "simrank_pairs": 200,
    "min_setups": 3, "min_setup_s": 1.0, "max_setups": 15, "startup_probes": 5,
}
MINI = {
    "classes": 2_000, "instances": 500, "rel_nodes": 150, "class_pairs": 200,
    "instance_pairs": 50, "rated_pairs": 771, "commute_pairs": 4, "simrank_pairs": 50,
    "min_setups": 1, "min_setup_s": 0.0, "max_setups": 1, "startup_probes": 2,
}

WHY = {
    "pairs-uniform": "uniform random class pairs under 29 catalog measures and 9 unified forms: "
    "pairwise, graph-query and unify kernels, pairs almost never repeat",
    "groups-skewed": "groupwise measures on Zipf-annotated instances: many cells per op and "
    "heavy class reuse, plus annotation parse, reduction and usage in set-up",
    "cli-cold": "fresh smx CLI processes for preprocess, sim, groupsim, bench and rel: "
    "start-up, parse and build dominate, kernels barely show",
    "relate": "weighted shortest path, commute time and SimRank on a 1k-node strongly "
    "connected relational graph, model and SimRank built inside the timed phase",
}


@dataclass
class Ctx:
    seed: int
    seconds: float
    tracer: Tracer
    scale: dict
    out_dir: Path
    src_dir: Path
    env: dict


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    latencies_us: array = field(default_factory=lambda: array("d"))
    setup_s: list = field(default_factory=list)
    work_s: float = 0.0  # query-phase time of the operations
    cpu_s: float = 0.0  # query-phase CPU time
    peak_rss_mb: float = 0.0
    # per-layer metric name -> (value, unit)
    layer: dict = field(default_factory=dict)
    info: dict = field(default_factory=dict)
    mismatches: list = field(default_factory=list)
    # figures printed beside the result: failed_ratio, cli.*, raw timings
    extra: dict = field(default_factory=dict)


# -- shared helpers ------------------------------------------------------------


def current_rss_mb() -> float:
    with open("/proc/self/statm", encoding="ascii") as handle:
        pages = int(handle.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return False
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= TOL * max(1.0, abs(a), abs(b))


def stream(seed: int, purpose: str) -> random.Random:
    return random.Random(f"{seed}/{purpose}")


def repeat_share(keys) -> float:
    """Share of keys already seen earlier in the sequence."""
    seen = set()
    total = 0
    for key in keys:
        total += 1
        seen.add(key)
    return (total - len(seen)) / total if total else 0.0


def repeat_setup(ctx: Ctx, out: Outcome, build):
    """Run build(stopwatch) several times from the same input bytes and
    return the last state. The previous state is dropped and garbage
    collected before each repeat; scaled times go to out.setup_s."""
    state = None
    raw = []
    while True:
        state = None
        gc.collect()
        watch = Stopwatch(ctx.tracer)
        state = build(watch)
        raw.append(watch.wall)
        out.setup_s.append(watch.scaled)
        done = len(raw) >= ctx.scale["min_setups"] and sum(raw) >= ctx.scale["min_setup_s"]
        if done or len(raw) >= ctx.scale["max_setups"]:
            out.extra["raw.setup_s"] = (statistics.median(raw), "s")
            return state


@dataclass
class Loop:
    """Operation log of one query phase."""

    values: array  # result per op, nan where it raised
    codes: array  # argument pair per op
    blocks: list  # kernel index per block, in order
    sizes: list  # ops per kernel block
    traced_rate: float
    plain_rate: float


def closed_loop(ctx: Ctx, out: Outcome, kernels, draw, spent=(0.0, 0.0)) -> Loop:
    """Run rounds of blocks, one block of `size` ops per kernel, until
    ctx.seconds have passed, and at least one round.

    kernels: (span name, size, op) with op(a, b) -> float.
    draw(size) -> list of (a, b) int pairs.
    spent: scaled (time, CPU) already spent inside the phase.
    A calibration sample of SHARE of the round's time follows each round
    and scales that round's times. In a traced run every other round runs
    without spans, for trace.overhead_ratio.
    """
    tr = ctx.tracer
    now = time.perf_counter_ns
    probe = SpeedProbe()
    lat = array("q")
    values = array("d")
    codes = array("q")
    rounds = []  # (first op, end op, work ns, cpu s, traced)
    failed = 0
    gc.collect()
    deadline = time.perf_counter() + ctx.seconds
    while not rounds or time.perf_counter() < deadline:
        traced = tr.enabled and len(rounds) % 2 == 0
        first = len(lat)
        work = 0
        cpu = time.process_time()
        for name, size, op in kernels:
            pairs = draw(size)
            start = now()
            with tr.span(name, ops=size) if traced else NO_SPAN:
                for a, b in pairs:
                    t0 = now()
                    try:
                        x = op(a, b)
                    except SmxError:
                        x = math.nan
                        failed += 1
                    lat.append(now() - t0)
                    values.append(x)
            work += now() - start
            codes.extend(a * CODE + b for a, b in pairs)
        rounds.append((first, len(lat), work, time.process_time() - cpu, traced))
        probe.sample(seconds=SHARE * work / 1e9)

    factors = probe.factors()
    rate = {True: [0, 0.0], False: [0, 0.0]}
    work_s, cpu_s = spent
    raw_work = 0.0
    scaled = out.latencies_us
    for index, ((first, end, work, cpu, traced), f) in enumerate(zip(rounds, factors)):
        scaled.extend(lat[i] * f / 1e3 for i in range(first, end))
        work_s += work * f / 1e9
        cpu_s += cpu * f
        raw_work += work / 1e9
        if index >= 2:  # the first two rounds pay one-off costs such as lazy checks
            rate[traced][0] += end - first
            rate[traced][1] += work * f / 1e9
    out.attempted = len(lat)
    out.failed = failed
    out.work_s = work_s
    out.cpu_s = cpu_s
    out.peak_rss_mb = peak_rss_mb()
    out.extra["failed_ratio"] = (failed / len(lat), "ratio")
    out.extra["raw.ops_per_s"] = ((len(lat) - failed) / raw_work, "1/s")
    out.extra["speed_factor"] = (statistics.median(factors), "ratio")
    rate_of = lambda key: rate[key][0] / rate[key][1] if rate[key][1] else math.nan
    sizes = [size for _, size, _ in kernels]
    return Loop(
        values, codes, list(range(len(kernels))) * len(rounds), sizes, rate_of(True), rate_of(False)
    )


def op_slices(loop: Loop):
    """(kernel index, first op, end op) for every block in order."""
    first = 0
    for k in loop.blocks:
        yield k, first, first + loop.sizes[k]
        first += loop.sizes[k]


def taxonomy_state(text: bytes, watch: Stopwatch, rss: dict):
    """Parse, reduce to the taxonomy and drop redundant edges. The RSS
    growth across the first taxonomic_reduction goes to rss["taxonomy"]."""
    graph = watch.run("ingest.parse_graph", parse_graph, text)
    before = current_rss_mb()
    taxonomy = watch.run("preprocess.taxonomic_reduction", taxonomic_reduction, graph)
    rss.setdefault("taxonomy", current_rss_mb() - before)
    reduced, report = watch.run("preprocess.transitive_reduction", transitive_reduction, taxonomy)
    return graph, reduced, report


# -- pairs-uniform -------------------------------------------------------------


def pair_kernels(reduced, seco, depth):
    """(span name, evaluator, spec) for every catalog measure and named form.
    Forms whose classic reading uses depth get raw depth, the rest seco."""
    kernels = []
    for name in CATALOG:
        info = MEASURES[name]
        spec = pairwise_measure(name, theta=seco if info.needs_theta else None)
        kernels.append((f"pairwise.{name}", eval_pairwise, spec))
    for name in FORMS:
        form = instantiate(name)
        form = form.with_theta(depth if form.theta_hint == "depth" else seco)
        kernels.append((f"unify.{name}", eval_abstract, form))
    return kernels


def pairs_setup(text: bytes, watch: Stopwatch, rss: dict):
    graph, reduced, report = taxonomy_state(text, watch, rss)
    seco = watch.run("specificity.seco_bind", seco_ic, reduced)
    depth = watch.run("specificity.depth_bind", depth_theta, reduced, False)
    kernels = watch.run("setup.kernels", pair_kernels, reduced, seco, depth)
    return graph, reduced, report, seco, kernels


def evaluate(fn, spec, taxonomy, u, v):
    """A kernel's value, or the name of the SmxError it raised."""
    try:
        return fn(spec, taxonomy, u, v).value
    except SmxError as exc:
        return f"error:{type(exc).__name__}"


def pairs_uniform(ctx: Ctx) -> Outcome:
    tr = ctx.tracer
    out = Outcome()
    text = inputs.taxonomy_text(ctx.scale["classes"], random.Random(ctx.seed))
    if tr.enabled:
        with tr.span("ingest.read_triples"):
            ingest.read_triples(text)
    rss = {}
    graph, reduced, report, seco, kernels = repeat_setup(
        ctx, out, lambda watch: pairs_setup(text, watch, rss)
    )
    classes = reduced.sorted_classes()
    choice = stream(ctx.seed, "pairs").choice
    block_size = 32
    loop = closed_loop(
        ctx,
        out,
        [
            (name, block_size, lambda u, v, fn=fn, spec=spec: fn(spec, reduced, u, v).value)
            for name, fn, spec in kernels
        ],
        lambda size: [(choice(classes), choice(classes)) for _ in range(size)],
    )

    # -- correctness: value ranges, determinism, unification identities
    values, codes = loop.values, loop.codes
    normalized = {}
    for k, first, end in op_slices(loop):
        name, fn, spec = kernels[k]
        if k not in normalized:
            u, v = divmod(codes[first], CODE)
            normalized[k] = fn(spec, reduced, u, v).normalized
        bad = [
            i for i in range(first, end)
            if not math.isnan(values[i])
            and (not math.isfinite(values[i]) or (normalized[k] and not -TOL <= values[i] <= 1 + TOL))
        ]
        if bad:
            u, v = divmod(codes[bad[0]], CODE)
            out.mismatches.append(f"{name}({reduced.label(u)}, {reduced.label(v)}) = {values[bad[0]]}")
            break
    sample = 2 * len(kernels) * block_size
    degenerate = 0
    for k, first, end in op_slices(loop):
        if first >= sample:
            break
        name, fn, spec = kernels[k]
        for i in range(first, end):
            u, v = divmod(codes[i], CODE)
            try:
                mv = fn(spec, reduced, u, v)
                again = mv.value
                degenerate += mv.degenerate
            except SmxError:
                again = math.nan
            if not (again == values[i] or (math.isnan(again) and math.isnan(values[i]))):
                out.mismatches.append(f"{name} gave {values[i]}, then {again} on op {i}")
                break
    by_name = {name: (fn, spec) for name, fn, spec in kernels}
    for i in range(min(256, len(codes))):
        u, v = divmod(codes[i], CODE)
        for measure in ("lin", "jiang_conrath", "faith"):
            a = evaluate(*by_name[f"pairwise.{measure}"], reduced, u, v)
            b = evaluate(*by_name[f"unify.{measure}"], reduced, u, v)
            if a != b and not (isinstance(a, float) and isinstance(b, float) and abs(a - b) <= 1e-12):
                out.mismatches.append(f"pairwise and unified {measure} differ on ({u}, {v}): {a}, {b}")

    out.info = {
        "classes": len(reduced.class_ids),
        "edges": len(reduced.edges),
        "kernels": len(kernels),
        "block_size": block_size,
        "repeat_pair_share": repeat_share(
            min(divmod(c, CODE)) * CODE + max(divmod(c, CODE)) for c in codes
        ),
    }
    if tr.enabled:
        graph_sweep(tr, reduced, seco, classes, stream(ctx.seed, "graph-sweep"))
        names = tr.by_name()
        layer = out.layer
        for span in ("ingest.read_triples", "ingest.parse_graph", "preprocess.taxonomic_reduction",
                     "preprocess.transitive_reduction", "specificity.seco_bind"):
            layer[f"{span}_s"] = (tr.median_s(span), "s")
        layer["graph.taxonomy_rss_mb"] = (rss["taxonomy"], "MB")
        for op in GRAPH_SWEEP:
            layer[f"graph.{op}_per_s"] = (tr.rate(f"graph.{op}"), "1/s")
        for name, _, _ in kernels:
            layer[f"{name}.evals_per_s"] = (tr.rate(name) if name in names else None, "1/s")
        layer["graph.classes"] = (len(reduced.class_ids), "count")
        layer["graph.closure_entries"] = (
            sum(len(reduced.ancestors(c)) + len(reduced.descendants(c)) for c in classes), "count"
        )
        layer["preprocess.redundant_edges"] = (len(report.removed_edges), "count")
        layer["pairwise.degenerate_ratio"] = (degenerate / min(sample, len(codes)), "ratio")
        layer["trace.overhead_ratio"] = (loop.traced_rate / loop.plain_rate, "ratio")
    return out


GRAPH_SWEEP = ("mica", "up_distances", "longest_up_distance", "shortest_up_path_edges", "up_path_stats")


def graph_sweep(tr: Tracer, t, theta, classes, rng, rounds=4, block=250):
    """Time the TaxonomyView queries the pairwise kernels are built on, on
    fresh uniform pairs, interleaved in blocks."""
    for _ in range(rounds):
        pairs = [(rng.choice(classes), rng.choice(classes)) for _ in range(block)]
        anchors = [(u, t.mica(theta, u, v)) for u, v in pairs]
        with tr.span("graph.mica", ops=block):
            for u, v in pairs:
                t.mica(theta, u, v)
        with tr.span("graph.up_distances", ops=block):
            for u, _ in pairs:
                t.up_distances(u)
        with tr.span("graph.longest_up_distance", ops=block):
            for u, a in anchors:
                t.longest_up_distance(u, a)
        with tr.span("graph.shortest_up_path_edges", ops=block):
            for u, a in anchors:
                t.shortest_up_path_edges(u, a)
        with tr.span("graph.up_path_stats", ops=block):
            for u, _ in pairs:
                t.up_path_stats(u)


# -- groups-skewed -------------------------------------------------------------


def group_specs(resnik, usage):
    specs = []
    for token in GROUP_MEASURES:
        name, _, inner = token.partition(":")
        if not inner:
            specs.append((token, groupwise_measure(name, theta=resnik if name == "simgic" else None)))
            continue
        info = MEASURES[inner]
        spec = pairwise_measure(
            inner,
            theta=resnik if info.needs_theta else None,
            usage=usage if info.needs_usage else None,
        )
        specs.append((token, groupwise_measure(name, inner=spec)))
    return specs


def groups_setup(graph_text: bytes, ann_text: bytes, watch: Stopwatch):
    graph, reduced, _ = taxonomy_state(graph_text, watch, {})
    annotations = watch.run("ingest.parse_annotations", parse_annotations, ann_text, graph)
    reduced_ann, _ = watch.run("preprocess.reduce_annotations", reduce_annotations, reduced, annotations)
    usage = watch.run("specificity.class_usage", class_usage, reduced, annotations)
    resnik = watch.run("specificity.resnik_bind", resnik_extrinsic_ic, reduced, usage)
    specs = watch.run("setup.specs", group_specs, resnik, usage)
    return reduced, reduced_ann, usage, resnik, specs


def group_inputs(seed: int, scale: dict):
    rng = random.Random(seed)
    graph_text = inputs.taxonomy_text(scale["classes"], rng)
    ann_text = inputs.annotations_text(inputs.leaves_first(graph_text, rng), scale["instances"], rng)
    return graph_text, ann_text


def groups_skewed(ctx: Ctx) -> Outcome:
    tr = ctx.tracer
    out = Outcome()
    graph_text, ann_text = group_inputs(ctx.seed, ctx.scale)
    reduced, reduced_ann, usage, resnik, specs = repeat_setup(
        ctx, out, lambda watch: groups_setup(graph_text, ann_text, watch)
    )
    names = sorted(reduced_ann.assignments)
    groups = [sorted(reduced_ann.assignments[n]) for n in names]
    sample = stream(ctx.seed, "instance-pairs").sample
    indices = range(len(names))
    loop = closed_loop(
        ctx,
        out,
        [
            (
                f"groupwise.{token}",
                GROUP_MEASURES[token],
                lambda a, b, spec=spec: eval_groupwise(spec, reduced, groups[a], groups[b]).value,
            )
            for token, spec in specs
        ],
        lambda size: [tuple(sample(indices, 2)) for _ in range(size)],
    )

    # -- correctness: ranges and an independent recomputation
    values, codes = loop.values, loop.codes
    cells = traced_cells = 0
    for block, (k, first, end) in enumerate(op_slices(loop)):
        token, spec = specs[k]
        traced_round = (block // len(specs)) % 2 == 0
        for i in range(first, end):
            a, b = divmod(codes[i], CODE)
            if spec.inner is not None:
                cells += len(groups[a]) * len(groups[b])
                traced_cells += traced_round * len(groups[a]) * len(groups[b])
            if not math.isnan(values[i]) and not -TOL <= values[i] <= 1 + TOL:
                out.mismatches.append(f"{token}({names[a]}, {names[b]}) = {values[i]} out of range")
            if block < 2 * len(specs):
                expected = group_oracle(token, spec, reduced, groups[a], groups[b])
                if not close(values[i], expected):
                    out.mismatches.append(f"{token}({names[a]}, {names[b]}) = {values[i]}, oracle {expected}")

    def cell_keys():
        for k, first, end in op_slices(loop):
            if specs[k][1].inner is None:
                continue
            for i in range(first, end):
                a, b = divmod(codes[i], CODE)
                for u in groups[a]:
                    for v in groups[b]:
                        yield (u, v) if u <= v else (v, u)

    out.info = {
        "classes": len(reduced.class_ids),
        "instances": len(names),
        "classes_per_instance": statistics.mean(len(g) for g in groups),
        "block_sizes": GROUP_MEASURES,
        "cells": cells,
        "repeat_pair_share": repeat_share(cell_keys()),
    }
    if tr.enabled:
        usage_sweep(tr, reduced, usage, groups, stream(ctx.seed, "usage-sweep"))
        layer = out.layer
        for span in ("ingest.parse_annotations", "preprocess.reduce_annotations",
                     "specificity.class_usage", "specificity.resnik_bind"):
            layer[f"{span}_s"] = (tr.median_s(span), "s")
        for name in USAGE_MEASURES:
            layer[f"pairwise.{name}.evals_per_s"] = (tr.rate(f"pairwise.{name}"), "1/s")
        for token, _ in specs:
            layer[f"groupwise.{token.replace(':', '-')}.evals_per_s"] = (tr.rate(f"groupwise.{token}"), "1/s")
        names_busy = tr.by_name()
        busy = sum(sum(names_busy[f"groupwise.{t}"][0]) for t, s in specs if s.inner is not None)
        layer["groupwise.cells_per_s"] = (traced_cells / busy, "1/s")
        layer["specificity.infinite_ic"] = (
            sum(1 for c in reduced.class_ids if not resnik.defined(c)), "count"
        )
        layer["trace.overhead_ratio"] = (loop.traced_rate / loop.plain_rate, "ratio")
    return out


def group_oracle(token, spec, t, group_u, group_v) -> float:
    """Groupwise value recomputed from ancestor sets and pairwise values,
    sharing no code with the groupwise module's aggregation."""
    name, _, _ = token.partition(":")
    if spec.inner is None:
        cu = set().union(*(t.ancestors(c) for c in group_u))
        cv = set().union(*(t.ancestors(c) for c in group_v))
        if name == "simui":
            return len(cu & cv) / len(cu | cv)
        if name == "nto":
            return len(cu & cv) / min(len(cu), len(cv))
        union = math.fsum(spec.theta(c) for c in cu | cv)
        return math.fsum(spec.theta(c) for c in cu & cv) / union if union else 0.0
    m = np.array([[eval_pairwise(spec.inner, t, u, v).value for v in group_v] for u in group_u])
    if name == "avg":
        return float(m.mean())
    if name == "max":
        return float(m.max())
    forward = float(m.max(axis=1).mean())
    backward = float(m.max(axis=0).mean())
    return max(forward, backward) if name == "bmm" else (forward + backward) / 2.0


def usage_sweep(tr: Tracer, t, usage, groups, rng, rounds=4, block=250):
    """Time the annotation-based pairwise measures on class pairs drawn
    from the annotated groups, so every class has instances."""
    specs = [(name, pairwise_measure(name, usage=usage)) for name in USAGE_MEASURES]
    for _ in range(rounds):
        pairs = [(rng.choice(rng.choice(groups)), rng.choice(rng.choice(groups))) for _ in range(block)]
        for name, spec in specs:
            with tr.span(f"pairwise.{name}", ops=block):
                for u, v in pairs:
                    eval_pairwise(spec, t, u, v)


# -- relate --------------------------------------------------------------------


def relation_scheme() -> PredicateWeightScheme:
    return PredicateWeightScheme(weights=dict(inputs.RELATION_WEIGHTS), default=inputs.RELATION_DEFAULT)


def relate(ctx: Ctx) -> Outcome:
    tr = ctx.tracer
    out = Outcome()
    text = inputs.relational_text(ctx.scale["rel_nodes"], random.Random(ctx.seed))

    def setup(watch):
        graph = watch.run("ingest.parse_graph", parse_graph, text)
        return graph, watch.run("setup.scheme", relation_scheme)

    graph, scheme = repeat_setup(ctx, out, setup)
    sample = stream(ctx.seed, "relate-pairs").sample
    nodes = range(graph.n_nodes)

    def scores_of():
        if tr.enabled:
            tracemalloc.start()
        scores = simrank(graph, decay=SIMRANK_DECAY, iterations=100, tol=SIMRANK_TOL)
        peak = tracemalloc.get_traced_memory()[1] / 2**20 if tr.enabled else None
        tracemalloc.stop()
        return scores, peak

    # both builds belong to the timed query phase
    gc.collect()
    watch = Stopwatch(tr)
    model = watch.run("relatedness.transition_model", TransitionModel.from_graph, graph, scheme)
    scores, simrank_peak = watch.run("relatedness.simrank", scores_of)

    def wsp(u, v):
        cost = weighted_shortest_path(graph, scheme, u, v)
        return math.nan if cost is None else cost

    methods = (
        ("relatedness.wsp", 16, wsp),
        ("relatedness.simrank_score", 2, scores.score),
        ("relatedness.commute", 1, lambda u, v: commute_time(model, u, v)),
    )
    loop = closed_loop(
        ctx, out, methods, lambda size: [tuple(sample(nodes, 2)) for _ in range(size)],
        spent=(watch.scaled, watch.scaled_cpu),
    )

    # -- correctness against independent oracles on the first queries
    values, codes = loop.values, loop.codes
    matrix = scores.as_array()
    if not (np.allclose(matrix, matrix.T, atol=TOL) and np.allclose(np.diag(matrix), 1.0)):
        out.mismatches.append("simrank table is not symmetric with unit diagonal")
    hitting = HittingOracle(model)
    checked = [0] * len(methods)
    for k, first, end in op_slices(loop):
        name = methods[k][0]
        for i in range(first, end):
            u, v = divmod(codes[i], CODE)
            x = values[i]
            if not math.isfinite(x) or x < 0:
                out.mismatches.append(f"{name}({graph.label(u)}, {graph.label(v)}) = {x}")
            if checked[k] >= 5:
                continue
            checked[k] += 1
            if k == 0:
                expected = dijkstra_oracle(graph, scheme, u, v)
            elif k == 1:
                expected = float(matrix[v, u])
            else:
                expected = hitting.time(u, v) + hitting.time(v, u)
            if not close(x, expected):
                out.mismatches.append(f"{name}({graph.label(u)}, {graph.label(v)}) = {x}, oracle {expected}")

    out.info = {
        "nodes": graph.n_nodes,
        "edges": len(graph.edges),
        "op_mix": {name: size for name, size, _ in methods},
        "simrank_iterations": scores.iterations,
        "repeat_pair_share": repeat_share(
            min(divmod(c, CODE)) * CODE + max(divmod(c, CODE)) for c in codes
        ),
    }
    if tr.enabled:
        layer = out.layer
        layer["relatedness.wsp.queries_per_s"] = (tr.rate("relatedness.wsp"), "1/s")
        layer["relatedness.commute.queries_per_s"] = (tr.rate("relatedness.commute"), "1/s")
        layer["relatedness.transition_model_s"] = (tr.median_s("relatedness.transition_model"), "s")
        layer["relatedness.simrank_s"] = (tr.median_s("relatedness.simrank"), "s")
        layer["relatedness.simrank_alloc_mb"] = (simrank_peak, "MB")
        layer["relatedness.simrank.iterations"] = (scores.iterations, "count")
        layer["trace.overhead_ratio"] = (loop.traced_rate / loop.plain_rate, "ratio")
    return out


def dijkstra_oracle(graph: SemanticGraph, scheme, u, v) -> float:
    """Plain Dijkstra over edges in both directions, written apart from
    relatedness.weighted_shortest_path."""
    adjacency: dict[int, list[tuple[int, float]]] = {}
    for s, p, o in graph.edges:
        cost = scheme.cost(p) * graph.weight((s, p, o))
        adjacency.setdefault(s, []).append((o, cost))
        adjacency.setdefault(o, []).append((s, cost))
    best = {u: 0.0}
    heap = [(0.0, u)]
    done = set()
    while heap:
        d, x = heapq.heappop(heap)
        if x in done:
            continue
        if x == v:
            return d
        done.add(x)
        for y, cost in adjacency.get(x, ()):
            if d + cost < best.get(y, math.inf):
                best[y] = d + cost
                heapq.heappush(heap, (d + cost, y))
    return math.nan


class HittingOracle:
    """Hitting times of an irreducible chain from its fundamental matrix,
    H(u, v) = (Z[v, v] - Z[u, v]) / pi[v] with Z = (I - P + 1 pi)^-1."""

    def __init__(self, model: TransitionModel):
        n = model.graph.n_nodes
        p = np.zeros((n, n))
        for x in range(n):
            for y, prob in model.transitions(x):
                p[x, y] += prob
        w, vecs = np.linalg.eig(p.T)
        pi = np.real(vecs[:, np.argmin(np.abs(w - 1.0))])
        self.pi = pi / pi.sum()
        self.z = np.linalg.inv(np.eye(n) - p + np.outer(np.ones(n), self.pi))

    def time(self, u, v) -> float:
        return float((self.z[v, v] - self.z[u, v]) / self.pi[v])


# -- cli-cold ------------------------------------------------------------------


@dataclass
class Spawned:
    code: int
    wall_s: float  # scaled, like cpu_s
    cpu_s: float
    rss_mb: float
    raw_wall_s: float


CHILD_DIR = Path(__file__).resolve().parent / "child"


def spawn(argv, ctx: Ctx, cwd: Path, log_name: str) -> Spawned:
    """Run one child to completion. Wall time runs from fork to reap, less
    the calibration the child runs on its own CPU (child/sitecustomize.py);
    CPU and peak RSS come from the child's rusage (os.wait4). The caller
    places the span."""
    calibration = cwd / f"{log_name}.calibration"
    env = dict(ctx.env, PERFBENCH_CALIBRATION=str(calibration))
    env["PYTHONPATH"] = os.pathsep.join((str(CHILD_DIR), ctx.env["PYTHONPATH"]))
    with open(cwd / f"{log_name}.stdout", "wb") as stdout, \
            open(cwd / f"{log_name}.stderr", "wb") as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=stdout, stderr=stderr)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    before, after, spent = map(float, calibration.read_text(encoding="ascii").split())
    calibration.unlink()
    factor = 2 * REFERENCE_S / (before + after)
    cpu = (usage.ru_utime + usage.ru_stime - spent) * factor
    wall -= spent
    return Spawned(proc.returncode, wall * factor, cpu, usage.ru_maxrss / 1024.0, wall)


def cli_files(ctx: Ctx, work: Path) -> dict:
    """Write every CLI input from the seed; return their sizes in bytes."""
    scale = ctx.scale
    rng = random.Random(ctx.seed)
    graph_text = inputs.taxonomy_text(scale["classes"], rng)
    labels = inputs.class_labels(scale["classes"])
    ann_text = inputs.annotations_text(inputs.leaves_first(graph_text, rng), scale["instances"], rng)
    rated, mapping = inputs.rated_pairs_texts(labels, scale["rated_pairs"], rng)
    rel_labels = [f"r{i}" for i in range(scale["rel_nodes"])]
    instances = [f"i{n}" for n in range(scale["instances"])]
    files = {
        "graph.tsv": graph_text,
        "annotations.tsv": ann_text,
        "class_pairs.tsv": inputs.pairs_text(inputs.node_pairs(labels, scale["class_pairs"], rng)),
        "instance_pairs.tsv": inputs.pairs_text(
            inputs.node_pairs(instances, scale["instance_pairs"], rng)
        ),
        "rated.tsv": rated,
        "mapping.tsv": mapping,
        "relation.tsv": inputs.relational_text(scale["rel_nodes"], rng),
        "scheme.tsv": inputs.scheme_text(),
        "commute_pairs.tsv": inputs.pairs_text(inputs.node_pairs(rel_labels, scale["commute_pairs"], rng)),
        "simrank_pairs.tsv": inputs.pairs_text(inputs.node_pairs(rel_labels, scale["simrank_pairs"], rng)),
    }
    for name, data in files.items():
        (work / name).write_bytes(data)
    return {name: len(data) for name, data in files.items()}


CLI_CHAIN = (
    ("preprocess", ["preprocess", "--graph", "graph.tsv", "--out", "reduced.tsv", "--report", "report.tsv"]),
    ("sim", ["sim", "--measure", "lin", "--ic", "seco", "--graph", "reduced.tsv",
             "--pairs", "class_pairs.tsv", "--out", "sim.tsv"]),
    ("groupsim", ["groupsim", "--measure", "bma:lin", "--ic", "seco", "--graph", "reduced.tsv",
                  "--annotations", "annotations.tsv", "--pairs", "instance_pairs.tsv", "--out", "groupsim.tsv"]),
    ("bench", ["bench", "--graph", "reduced.tsv", "--mapping", "mapping.tsv", "--dataset", "rated.tsv",
               "--dataset-kind", "mturk771", "--measures", BENCH_MEASURES, "--out", "bench.csv"]),
    ("rel", ["rel", "--method", "commute", "--graph", "relation.tsv", "--weights", "scheme.tsv",
             "--pairs", "commute_pairs.tsv", "--out", "commute.tsv"]),
    ("rel", ["rel", "--method", "simrank", "--graph", "relation.tsv", "--pairs", "simrank_pairs.tsv",
             "--iterations", str(CLI_SIMRANK_ITERATIONS), "--out", "simrank.tsv"]),
)
STARTUP_PROBE = "import sys, smx.cli; sys.stdout.write(smx.cli.__file__)"


def cli_cold(ctx: Ctx) -> Outcome:
    tr = ctx.tracer
    out = Outcome()
    work = ctx.out_dir / f"cli-{os.getpid()}-{ctx.scale['classes']}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return _cli_cold(ctx, tr, out, work)
    finally:
        for path in work.iterdir():
            path.unlink()
        work.rmdir()


def _cli_cold(ctx: Ctx, tr: Tracer, out: Outcome, work: Path) -> Outcome:
    sizes = cli_files(ctx, work)
    python = sys.executable
    expected_cli = str(ctx.src_dir / "smx" / "cli.py")
    raw_startup = []
    for _ in range(ctx.scale["startup_probes"]):
        with tr.span("cli.startup"):
            run = spawn([python, "-c", STARTUP_PROBE], ctx, work, "startup")
        out.setup_s.append(run.wall_s)
        raw_startup.append(run.raw_wall_s)
        resolved = (work / "startup.stdout").read_text()
        if run.code != 0 or resolved != expected_cli:
            out.mismatches.append(f"`import smx.cli` exited {run.code}, resolved to {resolved!r}")
    out.extra["raw.setup_s"] = (statistics.median(raw_startup), "s")

    per_step: dict[str, list[float]] = {}
    raw_work = 0.0
    deadline = time.perf_counter() + ctx.seconds
    while out.attempted == 0 or time.perf_counter() < deadline:
        rel_s = 0.0
        for index, (step, argv) in enumerate(CLI_CHAIN):
            log_name = f"step{index}"
            with tr.span(f"cli.{step}", ops=1):
                run = spawn([python, "-m", "smx.cli", *argv], ctx, work, log_name)
            out.attempted += 1
            out.latencies_us.append(run.wall_s * 1e6)
            out.work_s += run.wall_s
            raw_work += run.raw_wall_s
            out.cpu_s += run.cpu_s
            out.peak_rss_mb = max(out.peak_rss_mb, run.rss_mb)
            if run.code != 0:
                out.failed += 1
                err = (work / f"{log_name}.stderr").read_text(errors="replace").strip()
                out.mismatches.append(f"smx {' '.join(argv[:3])} exited {run.code}: {err[-300:]}")
            if step == "rel":
                rel_s += run.wall_s
            else:
                per_step.setdefault(step, []).append(run.wall_s)
        per_step.setdefault("rel", []).append(rel_s)

    skipped = None
    if out.failed == 0:
        bad, skipped = cli_reference_check(ctx, work)
        out.mismatches.extend(bad)
    out.info = {
        "files_bytes": sizes,
        "chains": len(per_step["rel"]),
        "invocations_per_chain": len(CLI_CHAIN),
        "repeat_pair_share": repeat_share(
            tuple(sorted(row[:2])) for row in read_rows(work / "class_pairs.tsv")
        ),
    }
    out.extra["failed_ratio"] = (out.failed / out.attempted, "ratio")
    out.extra["raw.ops_per_s"] = ((out.attempted - out.failed) / raw_work, "1/s")
    for step, walls in per_step.items():
        out.extra[f"cli.{step}_s"] = (statistics.median(walls), "s")
    if tr.enabled:
        layer = out.layer
        layer["cli.startup_s"] = (statistics.median(out.setup_s), "s")
        for step in ("preprocess", "sim", "groupsim", "bench", "rel"):
            layer[f"cli.{step}_s"] = out.extra[f"cli.{step}_s"]
        layer["ingest.serialize_graph_s"] = (tr.median_s("ingest.serialize_graph"), "s")
        layer["bench.run_benchmark_s"] = (tr.median_s("bench.run_benchmark"), "s")
        layer["bench.skipped_pairs"] = (skipped, "count")
        # a span costs one record per child; compare traced and plain start-ups
        walls = {True: [], False: []}
        for i in range(2 * ctx.scale["startup_probes"]):
            with tr.span("cli.startup_probe") if i % 2 == 0 else NO_SPAN:
                run = spawn([python, "-c", STARTUP_PROBE], ctx, work, "startup")
            walls[i % 2 == 0].append(run.wall_s)
        layer["trace.overhead_ratio"] = (sum(walls[False]) / sum(walls[True]), "ratio")
    return out


def read_rows(path: Path) -> list[list[str]]:
    return [line.split("\t") for line in path.read_text(encoding="utf-8").splitlines() if line]


def cli_reference_check(ctx: Ctx, work: Path) -> tuple[list[str], int | None]:
    """Recompute every CLI output in process from the same input files;
    return the mismatches and the benchmark's skipped-pair count."""
    tr = ctx.tracer
    bad = []
    graph = parse_graph(work / "graph.tsv")
    reduced, report = transitive_reduction(taxonomic_reduction(graph))
    removed = {(graph.node(r.subject), r.predicate, graph.node(r.object)) for r in report.removed_edges}
    cleaned = SemanticGraph(
        labels=[graph.label(i) for i in range(graph.n_nodes)],
        classes=graph.classes,
        instances=graph.instances,
        predicates=graph.predicates,
        edges=graph.edges - removed,
        edge_weights=None,
    )
    with tr.span("ingest.serialize_graph"):
        expected = serialize_graph(cleaned)
    if (work / "reduced.tsv").read_text(encoding="utf-8") != expected:
        bad.append("preprocess output differs from serialize_graph of the reduced graph")
    removed_rows = [tuple(row[1:]) for row in read_rows(work / "report.tsv") if row[0] == "removed"]
    if removed_rows != [(r.subject, r.predicate, r.object) for r in report.removed_edges]:
        bad.append("preprocess report differs from the in-process reduction report")

    lin = pairwise_measure("lin", theta=seco_ic(reduced))
    for a, b, value in read_rows(work / "sim.tsv"):
        ref = eval_pairwise(lin, reduced, reduced.node(a), reduced.node(b)).value
        if not close(float(value), ref):
            bad.append(f"sim lin({a}, {b}) = {value}, library {ref}")
            break

    annotations = parse_annotations(work / "annotations.tsv", graph)
    groups = reduce_annotations(reduced, annotations)[0].assignments
    bma = groupwise_measure("bma", inner=lin)
    for a, b, value in read_rows(work / "groupsim.tsv"):
        ref = eval_groupwise(bma, reduced, groups[a], groups[b]).value
        if not close(float(value), ref):
            bad.append(f"groupsim bma:lin({a}, {b}) = {value}, library {ref}")
            break

    mapping = parse_word_mapping(work / "mapping.tsv", graph)
    dataset = load_rated_pairs(work / "rated.tsv", kind="mturk771")
    measures = [
        ("lin:ic=seco", lin),
        ("wupalmer", pairwise_measure("wu_palmer")),
        ("rada", pairwise_measure("rada")),
    ]
    with tr.span("bench.run_benchmark"):
        run = run_benchmark(dataset, mapping.words, measures, reduced)
    rows = [line.split(",") for line in (work / "bench.csv").read_text().splitlines()[1:]]
    if len(rows) != len(run.rows):
        bad.append(f"bench report has {len(rows)} rows, library {len(run.rows)}")
    for row, ref, (_, spec) in zip(rows, run.rows, measures):
        scored = [p for p in score_pairs(dataset, mapping.words, spec, reduced) if p.score is not None]
        xs = [p.score for p in scored]
        ys = [p.rating for p in scored]
        r, rho = correlation(xs, ys), correlation(ranks(xs), ranks(ys))
        if row[:3] != [ref.measure, str(ref.n_scored), str(ref.n_skipped)] or len(scored) != ref.n_scored:
            bad.append(f"bench row {row} differs from library {ref}")
        elif not (close(ref.pearson, r) and close(ref.spearman, rho)):
            bad.append(f"bench {ref.measure}: library r={ref.pearson}, rho={ref.spearman}; oracle {r}, {rho}")
        elif abs(float(row[3]) - r) > 1e-6 or abs(float(row[4]) - rho) > 1e-6:
            bad.append(f"bench {ref.measure}: report r={row[3]}, rho={row[4]}; oracle {r}, {rho}")
    # which pairs are skipped depends on the mapping only, so every measure agrees
    skipped = {ref.n_skipped for ref in run.rows}
    if len(skipped) != 1:
        bad.append(f"bench skipped counts differ between measures: {sorted(skipped)}")

    rel_graph = parse_graph(work / "relation.tsv")
    model = TransitionModel.from_graph(rel_graph, relation_scheme())
    for a, b, value in read_rows(work / "commute.tsv"):
        ref = commute_time(model, rel_graph.node(a), rel_graph.node(b))
        if not close(float(value), ref):
            bad.append(f"rel commute({a}, {b}) = {value}, library {ref}")
            break
    scores = simrank(rel_graph, decay=SIMRANK_DECAY, iterations=CLI_SIMRANK_ITERATIONS, tol=1e-12)
    for a, b, value in read_rows(work / "simrank.tsv"):
        ref = scores.score(rel_graph.node(a), rel_graph.node(b))
        if not close(float(value), ref):
            bad.append(f"rel simrank({a}, {b}) = {value}, library {ref}")
            break
    return bad, min(skipped, default=None)


def correlation(xs, ys) -> float:
    x = np.asarray(xs, dtype=float) - np.mean(xs)
    y = np.asarray(ys, dtype=float) - np.mean(ys)
    return float((x @ y) / math.sqrt((x @ x) * (y @ y)))


def ranks(xs) -> list[float]:
    """Average ranks, ties sharing the mean of their positions."""
    order = sorted(range(len(xs)), key=xs.__getitem__)
    result = [0.0] * len(xs)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and xs[order[j + 1]] == xs[order[i]]:
            j += 1
        for k in range(i, j + 1):
            result[order[k]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return result


WORKLOADS = {
    "pairs-uniform": pairs_uniform,
    "groups-skewed": groups_skewed,
    "cli-cold": cli_cold,
    "relate": relate,
}
