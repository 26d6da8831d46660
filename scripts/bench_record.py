#!/usr/bin/env python3
"""Record one point of the performance trajectory as BENCH_<n>.json.

Runs perfbench/run.py once per workload in its own process, as
`--workload all` does: untraced for the end-to-end metrics, then with
`--trace 1` for the per-layer ones. `--rounds N` (default 3) repeats this,
alternating the workloads round by round, so drift on the machine lands on
every workload alike rather than on the one run last. Each metric keeps its
median as "value", its quartiles "q1" and "q3" and the values of the
rounds as "runs". The record also keeps the `# machine:` line of the last
run, which carries the git SHA and the src/ line count, and notes whether
src/ differs from that commit.

    python3 scripts/bench_record.py 6      # writes BENCH_6.json at the repository root

Exits 1 when a run reports a wrong output (the record is still written, and
that workload reads "correct": false), and 2 when a run cannot complete.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
sys.path.insert(0, str(PERFBENCH))

from run import DEFAULT_SEED, NAMES  # noqa: E402

KINDS = ((0, "end_to_end"), (1, "per_layer"))


def run(workload: str, trace: int) -> tuple[int, dict, dict]:
    """(exit status, machine line, final JSON line) of one perfbench run."""
    argv = [sys.executable, str(PERFBENCH / "run.py"), "--workload", workload,
            "--seed", str(DEFAULT_SEED), "--trace", str(trace)]
    print("+", " ".join(argv[1:]), file=sys.stderr, flush=True)
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        print(f"bench_record: {workload} --trace {trace} exited {proc.returncode}", file=sys.stderr)
        sys.exit(2)
    machine = next(line for line in lines if line.startswith("# machine: "))
    return proc.returncode, json.loads(machine.removeprefix("# machine: ")), json.loads(lines[-1])


def summary(results: list[dict]) -> dict:
    """One workload's runs of one kind folded into median and quartiles."""
    metrics = {}
    for name, entry in results[0]["metrics"].items():
        runs = [r["metrics"][name]["value"] for r in results]
        q1, _, q3 = statistics.quantiles(runs, n=4, method="inclusive") if len(runs) > 1 else runs * 3
        metrics[name] = {"value": statistics.median(runs), "q1": q1, "q3": q3,
                         "runs": runs, "unit": entry["unit"]}
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("number", type=int, help="n in BENCH_<n>.json, one record per change")
    parser.add_argument("--rounds", type=int, default=3, help="runs of each workload and kind")
    args = parser.parse_args()
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    status, machine = 0, None
    results = {(name, key): [] for name in NAMES for _, key in KINDS}
    for _ in range(args.rounds):
        for name in NAMES:
            for trace, key in KINDS:
                code, machine, result = run(name, trace)
                results[name, key].append(result)
                status = max(status, code)
    out = ROOT / f"BENCH_{args.number}.json"
    out.write_text(json.dumps({
        "number": args.number,
        "git_sha": machine["git_sha"],
        # true when the measured src/ differs from the committed git_sha
        "src_uncommitted": subprocess.run(
            ["git", "diff", "--quiet", "HEAD", "--", "src"], cwd=ROOT
        ).returncode != 0,
        "src_lines": machine["src_lines"],
        "machine": machine,
        "seed": DEFAULT_SEED,
        "rounds": args.rounds,
        "workloads": {
            name: {key: summary(results[name, key]) for _, key in KINDS} for name in NAMES
        },
    }, indent=1) + "\n")
    print(f"wrote {out.relative_to(ROOT)}", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
