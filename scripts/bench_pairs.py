#!/usr/bin/env python3
"""Measure a change against an earlier commit in alternating pairs of runs.

Exports the tree of <parent-rev> with `git archive` into a temporary
directory, then runs `perfbench/run.py --workload W --seed S --trace 0` N
times in each tree: the parent's tree against the working tree of this
checkout.
Pair i runs the parent first when i is odd and the change first when it
is even, so drift on the machine lands on both sides alike. Each tree runs
its own perfbench and its own src/, both compiled to bytecode before the
first pair: an exported tree has no __pycache__, and where bytecode is not
written on import (PYTHONDONTWRITEBYTECODE) its every child process would
compile smx again, which the checkout's children do not.

For every end-to-end metric it prints the median and the quartiles (Q1,
Q3) of the parent's runs and of the change's runs, the change of the
medians in percent, and in how many pairs the change did better, in the
metric's direction from BENCHMARK.json.

    python3 scripts/bench_pairs.py HEAD --workload pairs-uniform --pairs 6

--seed (default perfbench's, 20240210) sets the workload seed of both
trees, so a claim can be checked again on a seed not used while writing
the change.

Exits 1 when a run reports a wrong output and 2 when a run cannot complete.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from run import DEFAULT_SEED, NAMES  # noqa: E402


def export(rev: str, into: Path) -> None:
    """Write the tree of rev into the directory `into`."""
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, stdout=subprocess.PIPE, check=True)
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive.stdout, check=True)


def compile_tree(tree: Path) -> None:
    """Write the bytecode of tree's src/ and perfbench/."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
                   cwd=tree, stdout=subprocess.DEVNULL, check=True)


def run(tree: Path, workload: str, seed: int) -> tuple[int, dict]:
    """(exit status, end-to-end metrics) of one untraced run in tree."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        print(f"bench_pairs: {workload} in {tree} exited {proc.returncode}", file=sys.stderr)
        sys.exit(2)
    result = json.loads(lines[-1])
    return proc.returncode, {name: entry["value"] for name, entry in result["metrics"].items()}


def spread(values: list[float]) -> tuple[float, float, float]:
    """(median, Q1, Q3)."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", help="the git revision to compare the working tree against")
    parser.add_argument("--workload", choices=NAMES, required=True)
    parser.add_argument("--pairs", type=int, default=5, help="alternating parent/change pairs")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="workload seed of both trees")
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    better = {
        m["name"]: m["better"]
        for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    }
    # a terminated run still stops its child and removes the exported tree
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    status = 0
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {"parent": Path(tmp), "change": ROOT}
        export(args.parent, trees["parent"])
        for tree in trees.values():
            compile_tree(tree)
        for i in range(1, args.pairs + 1):
            order = ("parent", "change") if i % 2 else ("change", "parent")
            for side in order:
                code, metrics = run(trees[side], args.workload, args.seed)
                status = max(status, code)
                runs[side].append(metrics)
                print(f"pair {i} {side}: " + ", ".join(f"{k} {v:.4g}" for k, v in metrics.items()),
                      file=sys.stderr, flush=True)

    print(f"{args.workload}: {args.pairs} pairs, seed {args.seed}, "
          f"parent {args.parent} vs working tree")
    header = ("metric", "parent median", "[Q1, Q3]", "change median", "[Q1, Q3]", "change", "wins")
    print("{:<14} {:>13} {:>21} {:>13} {:>21} {:>8} {:>5}".format(*header))
    for metric, direction in better.items():
        if metric not in runs["parent"][0]:
            continue
        old = [r[metric] for r in runs["parent"]]
        new = [r[metric] for r in runs["change"]]
        (om, oq1, oq3), (nm, nq1, nq3) = spread(old), spread(new)
        wins = sum((n < o) if direction == "lower" else (n > o) for o, n in zip(old, new))
        change = (nm - om) / om if om else float("inf")
        print(f"{metric:<14} {om:>13.4g} {f'[{oq1:.4g}, {oq3:.4g}]':>21} {nm:>13.4g} "
              f"{f'[{nq1:.4g}, {nq3:.4g}]':>21} {change:>+8.1%} {wins:>2}/{args.pairs}")
    return status


if __name__ == "__main__":
    sys.exit(main())
