#!/usr/bin/env python3
"""Compare the end-to-end metrics of two BENCH_<n>.json records, or of one
record's paired runs.

For each workload and end-to-end metric present in both records, prints
the value in A, the value in B, the change in percent, and whether that
change lies outside the spread of that metric: the quartile spread
(Q3 - Q1) / median of ten runs, read from the table in
perfbench/README.md. "better" and "worse" follow the metric's direction in
BENCHMARK.json. The last column says whether the change also lies outside
either record's own interquartile range: "outside" when B's median lies
outside A's [q1, q3] and A's median outside B's, "within" otherwise, and
"-" when a record holds one run per metric (records before --rounds).
`--per-layer` compares the per-layer metrics instead, which have no
README spread, by that last column alone.

Given one record of paired runs (bench_record.py), prints for each
workload and end-to-end metric the parent's median against the change's,
the change in percent and the pairs the change won, "wins/pairs".

    python3 scripts/bench_compare.py BENCH_10.json BENCH_11.json
    python3 scripts/bench_compare.py --per-layer BENCH_11.json BENCH_12.json
    python3 scripts/bench_compare.py BENCH_32.json

A change inside the spread, or inside either IQR, is not evidence of a
change in the code.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spreads(readme: Path) -> dict[tuple[str, str], float]:
    """{(workload, metric): spread as a fraction} from the README table
    whose header row starts with `| workload | setup_s |`."""
    table: dict[tuple[str, str], float] = {}
    header = None
    for line in readme.read_text().splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if header is None:
            if cells[:2] == ["workload", "setup_s"]:
                header = cells
            continue
        if not line.startswith("|"):
            break
        if set(cells[0]) <= {"-", " "}:
            continue
        for metric, cell in zip(header[1:], cells[1:]):
            table[cells[0], metric] = float(cell.rstrip("%")) / 100.0
    if not table:
        raise SystemExit(f"bench_compare: no spread table in {readme}")
    return table


def metrics(record: dict, kind: str) -> dict[str, dict[str, dict]]:
    """{workload: {metric: entry}} of a record's runs of one kind."""
    return {name: runs[kind]["metrics"] for name, runs in record["workloads"].items()}


def iqr_verdict(old: dict, new: dict) -> str:
    if "q1" not in old or "q1" not in new:
        return "-"
    outside_a = not old["q1"] <= new["value"] <= old["q3"]
    outside_b = not new["q1"] <= old["value"] <= new["q3"]
    return "outside" if outside_a and outside_b else "within"


def change_of(old: float, new: float) -> float:
    return (new - old) / old if old else float("inf")


def print_paired(record: dict, better: dict[str, str]) -> None:
    """The parent against the change in each workload of one paired record."""
    header = ("workload", "metric", "parent", "change", "change%", "wins")
    print("{:<14} {:<14} {:>12} {:>12} {:>8} {:>6}".format(*header))
    for workload, entry in record["workloads"].items():
        if "parent_end_to_end" not in entry:
            continue
        old_metrics = entry["parent_end_to_end"]["metrics"]
        new_metrics = entry["end_to_end"]["metrics"]
        for metric in (m for m in better if m in old_metrics and m in new_metrics):
            old, new = old_metrics[metric]["value"], new_metrics[metric]["value"]
            wins = f"{new_metrics[metric]['wins']}/{entry['pairs']}"
            print(f"{workload:<14} {metric:<14} {old:>12.4g} {new:>12.4g} "
                  f"{change_of(old, new):>+8.1%} {wins:>6}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("a", type=Path, help="the earlier record, or one paired record")
    parser.add_argument("b", type=Path, nargs="?", help="the later record")
    parser.add_argument("--per-layer", action="store_true", help="compare per-layer metrics")
    args = parser.parse_args(argv)
    kind = "per_layer" if args.per_layer else "end_to_end"
    better = {
        m["name"]: m["better"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    }
    if args.b is None:
        record = json.loads(args.a.read_text())
        if args.per_layer or not any(
            "parent_end_to_end" in entry for entry in record["workloads"].values()
        ):
            parser.error("one record compares the end-to-end metrics of its paired runs")
        print_paired(record, better)
        return 0
    a, b = (metrics(json.loads(p.read_text()), kind) for p in (args.a, args.b))
    spread = {} if args.per_layer else spreads(ROOT / "perfbench" / "README.md")
    header = ("workload", "metric", "A", "B", "change", "spread", "verdict", "IQRs")
    print("{:<14} {:<34} {:>12} {:>12} {:>8} {:>7}  {:<16} {}".format(*header))
    for workload in (w for w in a if w in b):
        for metric in better:
            if metric not in a[workload] or metric not in b[workload]:
                continue
            old_entry, new_entry = a[workload][metric], b[workload][metric]
            old, new = old_entry["value"], new_entry["value"]
            change = change_of(old, new)
            width = spread.get((workload, metric))
            if width is None:
                verdict = "no spread"
            elif abs(change) <= width:
                verdict = "within"
            else:
                gained = (change < 0) == (better[metric] == "lower")
                verdict = "outside, " + ("better" if gained else "worse")
            width_text = "-" if width is None else f"{width:.1%}"
            print(
                f"{workload:<14} {metric:<34} {old:>12.4g} {new:>12.4g} "
                f"{change:>+8.1%} {width_text:>7}  {verdict:<16} {iqr_verdict(old_entry, new_entry)}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
