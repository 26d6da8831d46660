#!/usr/bin/env python3
"""Record one point of the performance trajectory as BENCH_<n>.json.

Runs perfbench/run.py once per workload in its own process, as
`--workload all` does: untraced for the end-to-end metrics, then with
`--trace 1` for the per-layer ones. It keeps each run's final JSON line and
the `# machine:` line, which carries the git SHA and the src/ line count,
and notes whether src/ differs from that commit.

    python3 scripts/bench_record.py 6      # writes BENCH_6.json at the repository root

Exits 1 when a run reports a wrong output (the record is still written, and
that run reads "correct": false), and 2 when a run cannot complete.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
sys.path.insert(0, str(PERFBENCH))

from run import DEFAULT_SEED, NAMES  # noqa: E402


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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("number", type=int, help="n in BENCH_<n>.json, one record per change")
    args = parser.parse_args()
    status, machine, workloads = 0, None, {}
    for name in NAMES:
        record = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, machine, record[key] = run(name, trace)
            status = max(status, code)
        workloads[name] = record
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
        "workloads": workloads,
    }, indent=1) + "\n")
    print(f"wrote {out.relative_to(ROOT)}", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
