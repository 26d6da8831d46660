#!/usr/bin/env python3
"""Performance floor check: build a 50k-class DAG (branching <= 8,
depth <= 15, occasional multi-inheritance) and time 100k Lin evaluations
after precomputation. Mirrors the scale criterion in the acceptance
suite but runnable standalone. Also prints the wall time of each build
stage (parse, taxonomic reduction, transitive reduction, seco bind, the
first path query, which builds the view's up distance tables, and the
first jc_hybrid call, which builds that spec's chain sums for the view)
and the peak resident set size of the process.

Usage: python scripts/scale_smoke.py [n_classes] [n_evals]
"""

import random
import resource
import sys
import time

from smx import (
    eval_pairwise,
    pairwise_measure,
    parse_graph,
    seco_ic,
    taxonomic_reduction,
    transitive_reduction,
)


def synth_graph_lines(n_classes, rng, max_children=8, max_depth=15):
    lines = []
    depth = {0: 0}
    # classes eligible to receive children
    open_slots = [0]
    child_count = {0: 0}
    for node in range(1, n_classes):
        while True:
            parent = rng.choice(open_slots)
            if depth[parent] < max_depth - 1 and child_count[parent] < max_children:
                break
            open_slots.remove(parent)
        depth[node] = depth[parent] + 1
        child_count[parent] = child_count[parent] + 1
        child_count[node] = 0
        open_slots.append(node)
        lines.append(f"c{node}\tsubClassOf\tc{parent}")
        # sparse multi-inheritance, second parent no deeper than the first
        if rng.random() < 0.05 and parent != 0:
            second = rng.randrange(parent)
            if (
                second != parent
                and depth[second] <= depth[parent]
                and child_count[second] < max_children
            ):
                child_count[second] += 1
                lines.append(f"c{node}\tsubClassOf\tc{second}")
    return "\n".join(lines) + "\n"


def main():
    n_classes = int(sys.argv[1]) if len(sys.argv) > 1 else 50_000
    n_evals = int(sys.argv[2]) if len(sys.argv) > 2 else 100_000
    rng = random.Random(20240210)

    text = synth_graph_lines(n_classes, rng).encode()
    stages = {}

    def stage(name, fn, *args):
        t0 = time.perf_counter()
        result = fn(*args)
        stages[name] = time.perf_counter() - t0
        return result

    graph = stage("parse", parse_graph, text)
    taxonomy = stage("taxonomic_reduction", taxonomic_reduction, graph)
    taxonomy, report = stage("transitive_reduction", transitive_reduction, taxonomy)
    theta = stage("seco_bind", seco_ic, taxonomy)
    stage("first_path_query", taxonomy.shortest_path, taxonomy.root, taxonomy.root)
    hybrid = pairwise_measure("jc_hybrid", theta=theta)
    stage("first_jc_hybrid", eval_pairwise, hybrid, taxonomy, taxonomy.root, taxonomy.root)
    spec = pairwise_measure("lin", theta=theta)
    print(f"built {len(taxonomy.class_ids)} classes, max depth {taxonomy.max_depth}, "
          f"{len(report.removed_edges)} redundant edges removed")
    for name, seconds in stages.items():
        print(f"  {name:<21} {seconds:6.2f}s")
    print(f"  {'total':<21} {sum(stages.values()):6.2f}s")

    classes = sorted(taxonomy.class_ids)
    pairs = [
        (rng.choice(classes), rng.choice(classes)) for _ in range(n_evals)
    ]
    t0 = time.perf_counter()
    total = 0.0
    for u, v in pairs:
        total += eval_pairwise(spec, taxonomy, u, v).value
    eval_s = time.perf_counter() - t0
    print(f"{n_evals} lin evaluations in {eval_s:.2f}s "
          f"({n_evals / eval_s:,.0f}/s), checksum {total:.3f}")
    # ru_maxrss is in KiB on Linux
    print(f"peak RSS {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.0f} MB")
    if eval_s >= 10.0:
        print("FAIL: expected under 10s")
        return 1
    print("PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
