#!/usr/bin/env python3
"""Record a change against its parent commit as BENCH_<n>.json in alternating pairs.

Exports the --parent tree with `git archive` and compiles src/ and perfbench/
of both trees first (without bytecode, and with PYTHONDONTWRITEBYTECODE set,
every child would compile smx again). Pair i runs each workload in turn,
`perfbench/run.py --workload W --seed S --trace 0` in the parent's tree and
in this working tree, the parent first when i is odd, then the change with
`--trace 1`, so drift on the machine lands on both sides and every workload.

A workload holds the change's "end_to_end" and "per_layer" metrics and the
parent's "parent_end_to_end", each metric as its median "value", quartiles
"q1" and "q3", "runs" and "unit"; a change end-to-end metric also counts its
"wins", the pairs it did better in its BENCHMARK.json direction (a tie counts
for neither side). A re-run replaces only the workloads it runs. The pairs
table goes to stdout.

    python3 scripts/bench_record.py 31 --parent HEAD
    python3 scripts/bench_record.py 31 --parent HEAD --workload relate --pairs 10

Exits 1 when a run reports a wrong output (the record is still written, and
that workload reads "correct": false), 2 when a run cannot complete.
"""

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


def perfbench(tree: Path, workload: str, seed: int, trace: int) -> dict:
    """The JSON result of one perfbench run in tree, its `# machine:` line as "machine"."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--trace", str(trace)]
    print(f"+ ({tree})", *argv[1:], file=sys.stderr, flush=True)
    proc = subprocess.run(argv, cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        print(f"bench_record: {argv[1:]} in {tree} exited {proc.returncode}", file=sys.stderr)
        sys.exit(2)
    machine = next(line for line in lines if line.startswith("# machine: "))
    return {**json.loads(lines[-1]), "machine": json.loads(machine.removeprefix("# machine: "))}


def pair_runs(run, workloads, pairs: int) -> dict[tuple[str, str], list[dict]]:
    """{(workload, side): results} of run(side, workload, trace) for the sides
    "parent" and "change", untraced, and "traced", the change traced."""
    runs = {(w, side): [] for w in workloads for side in ("parent", "change", "traced")}
    for i in range(1, pairs + 1):
        for w in workloads:
            for side in ("parent", "change") if i % 2 else ("change", "parent"):
                runs[w, side].append(run(side, w, 0))
            runs[w, "traced"].append(run("change", w, 1))
    return runs


def summary(results: list[dict], rivals: list[dict] | None = None, better=None) -> dict:
    """Runs of one side and kind folded into median and quartiles; against
    the rivals' runs of the same pairs, each metric also counts its wins in
    its direction better[name], "higher" or "lower"."""
    metrics = {}
    for name, entry in results[0]["metrics"].items():
        runs = [r["metrics"][name]["value"] for r in results]
        q1, _, q3 = statistics.quantiles(runs, n=4, method="inclusive")
        metrics[name] = {"value": statistics.median(runs), "q1": q1, "q3": q3,
                         "runs": runs, "unit": entry["unit"]}
        if rivals is not None:
            sign = 1 if better[name] == "higher" else -1
            olds = [r["metrics"][name]["value"] for r in rivals]
            metrics[name]["wins"] = sum(sign * (new - old) > 0 for new, old in zip(runs, olds))
    counts = {key: sum(r[key] for r in results) for key in ("attempted", "failed")}
    return {"correct": all(r["correct"] for r in results), **counts, "metrics": metrics}


def write_record(out: Path, top: dict, entries: dict) -> None:
    """Write top and entries into the record at out; the workloads not in entries stay."""
    record = json.loads(out.read_text()) if out.exists() else {}
    record.update(top)
    record["workloads"] = {**record.get("workloads", {}), **entries}
    out.write_text(json.dumps(record, indent=1) + "\n")


def print_table(workload: str, entry: dict) -> None:
    print(f"{workload}: {entry['pairs']} pairs, seed {entry['seed']}, parent {entry['parent_sha']}")
    header = ("metric", "parent median", "[Q1, Q3]", "change median", "[Q1, Q3]", "change", "wins")
    print("{:<14} {:>13} {:>21} {:>13} {:>21} {:>8} {:>5}".format(*header))
    iqr = lambda m: f"[{m['q1']:.4g}, {m['q3']:.4g}]"
    for metric, new in entry["end_to_end"]["metrics"].items():
        old = entry["parent_end_to_end"]["metrics"][metric]
        change = (new["value"] - old["value"]) / old["value"] if old["value"] else float("inf")
        print(f"{metric:<14} {old['value']:>13.4g} {iqr(old):>21} {new['value']:>13.4g} "
              f"{iqr(new):>21} {change:>+8.1%} {new['wins']:>2}/{entry['pairs']}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("number", type=int, help="n in BENCH_<n>.json, one record per change")
    parser.add_argument("--parent", required=True, help="git revision to measure against")
    parser.add_argument("--workload", choices=NAMES, action="append",
                        help="a workload to run, repeatable (default: all)")
    parser.add_argument("--pairs", type=int, default=3, help="alternating parent/change pairs")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="--seed of both trees")
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    workloads = [w for w in NAMES if w in (args.workload or NAMES)]
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    better = {m["name"]: m["better"] for m in metrics}
    git = lambda *argv: subprocess.run(["git", *argv], cwd=ROOT, capture_output=True)
    parent_sha = git("rev-parse", "--verify", args.parent + "^{commit}").stdout.decode().strip()
    if not parent_sha:
        parser.error(f"--parent {args.parent} is not a commit")
    # a terminated run still stops its child and removes the exported tree
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    with tempfile.TemporaryDirectory(prefix="bench-record-") as tmp:
        trees = {"parent": Path(tmp), "change": ROOT}
        archive = git("archive", parent_sha).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        for tree in trees.values():
            subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
                           cwd=tree, stdout=subprocess.DEVNULL, check=True)
        runs = pair_runs(lambda side, w, trace: perfbench(trees[side], w, args.seed, trace),
                         workloads, args.pairs)
    entries = {w: {"pairs": args.pairs, "seed": args.seed, "parent_sha": parent_sha,
                   "end_to_end": summary(runs[w, "change"], runs[w, "parent"], better),
                   "per_layer": summary(runs[w, "traced"]),
                   "parent_end_to_end": summary(runs[w, "parent"])} for w in workloads}
    for w, entry in entries.items():
        print_table(w, entry)
    out = ROOT / f"BENCH_{args.number}.json"
    # machine holds git_sha and src_lines; src_uncommitted: src/ differs from that commit
    changed = git("diff", "--quiet", "HEAD", "--", "src").returncode != 0
    machine = runs[workloads[-1], "change"][-1]["machine"]
    top = {"number": args.number, "machine": machine, "src_uncommitted": changed}
    write_record(out, top, entries)
    print(f"wrote {out.relative_to(ROOT)}", file=sys.stderr)
    return 0 if all(r["correct"] for results in runs.values() for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
