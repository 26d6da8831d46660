#!/usr/bin/env python3
"""Compare the end-to-end metrics of two BENCH_<n>.json records.

For each workload and end-to-end metric present in both records, prints
the value in A, the value in B, the change in percent, and whether that
change lies outside the spread of that metric: the quartile spread
(Q3 - Q1) / median of ten runs, read from the table in
perfbench/README.md. "better" and "worse" follow the metric's direction in
BENCHMARK.json.

    python3 scripts/bench_compare.py BENCH_10.json BENCH_11.json

A single record is one run per workload, so a change inside the spread is
not evidence of a change in the code.
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


def end_to_end(record: dict) -> dict[str, dict[str, float]]:
    """{workload: {metric: value}} of a record's untraced runs."""
    return {
        name: {m: entry["value"] for m, entry in runs["end_to_end"]["metrics"].items()}
        for name, runs in record["workloads"].items()
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("a", type=Path, help="the earlier record")
    parser.add_argument("b", type=Path, help="the later record")
    args = parser.parse_args()
    a, b = (end_to_end(json.loads(p.read_text())) for p in (args.a, args.b))
    spread = spreads(ROOT / "perfbench" / "README.md")
    better = {
        m["name"]: m["better"]
        for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    }
    header = ("workload", "metric", "A", "B", "change", "spread")
    print("{:<14} {:<14} {:>12} {:>12} {:>8} {:>7}  verdict".format(*header))
    for workload in (w for w in a if w in b):
        for metric in better:
            if metric not in a[workload] or metric not in b[workload]:
                continue
            old, new = a[workload][metric], b[workload][metric]
            change = (new - old) / old if old else float("inf")
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
                f"{workload:<14} {metric:<14} {old:>12.4g} {new:>12.4g} "
                f"{change:>+8.1%} {width_text:>7}  {verdict}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
