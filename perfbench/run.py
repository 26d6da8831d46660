#!/usr/bin/env python3
"""Benchmark for smx: four seeded closed-loop workloads, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pairs-uniform --seed 20240210 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one process each
    python3 perfbench/run.py --record-reference    # rewrite perfbench/reference.json

Workloads: pairs-uniform, groups-skewed, cli-cold, relate (see README.md).
`--trace 0` measures the end-to-end metrics; `--trace 1` runs the workload
with spans around the calls into each layer, plus small runs of the other
workloads for the layers this one does not exercise, and reports the
per-layer metrics. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. The command exits 1
when an output is wrong and 2 when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRIPTS = ROOT / "scripts"
OUT_DIR = ROOT / ".perfbench_out"
DEFAULT_SEED = 20240210
NAMES = ("pairs-uniform", "groups-skewed", "cli-cold", "relate")
MINI_SECONDS = 0.5
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def prepare_environment() -> dict:
    """Pin the process environment before numpy loads: BLAS threads at
    most nproc, SMX_THREADS unset, smx taken from this checkout's src/."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(min(max(wanted, 1), nproc))
    os.environ.pop("SMX_THREADS", None)
    sys.path[:0] = [str(SRC), str(SCRIPTS)]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def machine_info() -> dict:
    import numpy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    src_lines = sum(
        len(path.read_bytes().splitlines()) for path in sorted((SRC / "smx").glob("*.py"))
    )
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_sha": sha or "unknown",
        "src_lines": src_lines,
    }


def percentile(sorted_values, q: float) -> float:
    """Percentile of an ascending sequence, interpolating linearly between
    neighbouring ranks (numpy's default), so a six-sample p50 is the mean
    of the third and fourth values."""
    pos = q / 100.0 * (len(sorted_values) - 1)
    low = math.floor(pos)
    high = min(low + 1, len(sorted_values) - 1)
    return sorted_values[low] + (sorted_values[high] - sorted_values[low]) * (pos - low)


def end_to_end(out) -> dict:
    lat = sorted(out.latencies_us)
    return {
        "setup_s": (statistics.median(out.setup_s), "s"),
        "ops_per_s": ((out.attempted - out.failed) / out.work_s, "1/s"),
        "op_p50_us": (percentile(lat, 50), "us"),
        "op_p99_us": (percentile(lat, 99), "us"),
        "peak_rss_mb": (out.peak_rss_mb, "MB"),
        "cpu_per_op_us": (out.cpu_s / out.attempted * 1e6, "us"),
    }


def declared(kind: str) -> list[tuple[str, str]]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [(m["name"], m["unit"]) for m in doc[kind]]


def run_one(args, env) -> int:
    import smx

    location = Path(smx.__file__).resolve().parent
    if location != SRC / "smx":
        return fail(f"smx imports from {location}, not from {SRC / 'smx'}")
    import checks
    import workloads
    from tracing import Tracer, write_spans

    # the library logs a warning per distance measure it converts; results are checked instead
    logging.getLogger("smx").setLevel(logging.ERROR)
    info = machine_info()
    traced = args.trace == 1
    mismatches = checks.compare()

    def execute(name, scale, seconds, label):
        tracer = Tracer(traced, label)
        ctx = workloads.Ctx(args.seed, seconds, tracer, scale, OUT_DIR, SRC, env)
        return workloads.WORKLOADS[name](ctx), tracer

    tracers = []
    layer = {}
    if traced:
        # the layers of the other workloads, on their small inputs
        for name in NAMES:
            if name != args.workload:
                mini, tracer = execute(name, workloads.MINI, MINI_SECONDS, f"{name}@mini")
                tracers.append(tracer)
                mismatches += [f"{name}@mini: {m}" for m in mini.mismatches]
                layer.update({k: v for k, v in mini.layer.items() if k != "trace.overhead_ratio"})
    out, tracer = execute(args.workload, workloads.FULL, args.seconds, args.workload)
    tracers.append(tracer)
    mismatches += out.mismatches
    layer.update(out.layer)

    if traced:
        wanted = declared("per_layer")
        metrics = {name: layer.get(name, (None, unit)) for name, unit in wanted}
        missing = [name for name, (value, _) in metrics.items() if value is None]
        undeclared = sorted(set(layer) - set(metrics))
        if missing or undeclared:
            return fail(f"per-layer metrics not measured: {missing}; not declared: {undeclared}")
        path = OUT_DIR / f"trace-{args.workload}-{args.seed}.json"
        write_spans(path, tracers, {"workload": args.workload, "seed": args.seed, **info})
    else:
        metrics = end_to_end(out)
        if [(n, metrics[n][1]) for n in metrics] != declared("end_to_end"):
            return fail("end-to-end metrics differ from BENCHMARK.json")

    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print(f"# why: {workloads.WHY[args.workload]}")
    print(f"# machine: {json.dumps(info)}")
    print(f"# inputs: {json.dumps(out.info)}")
    print(f"# samples: {out.attempted} ops, {len(out.setup_s)} set-ups, {out.work_s:.3f} s of operations")
    for name, (value, unit) in {**out.extra, **metrics}.items():
        print(f"# {name} = {value:.6g} {unit}")
    for message in mismatches:
        print(f"MISMATCH {message}", file=sys.stderr)
    result = {
        "correct": not mismatches,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not mismatches else 1


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode not in (0, 1) or not lines:
            return fail(f"workload {name} exited {proc.returncode}")
        status = max(status, proc.returncode)
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(merged))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="recompute perfbench/reference.json from this checkout")
    args = parser.parse_args(argv)

    if not (SRC / "smx" / "__init__.py").is_file() or not (SCRIPTS / "scale_smoke.py").is_file():
        return fail(f"no smx sources under {ROOT}: run from a checkout of the repository")
    env = prepare_environment()
    if args.record_reference:
        import checks

        checks.record()
        return 0
    if args.workload == "all":
        return run_all(args)
    started = time.perf_counter()
    status = run_one(args, env)
    print(f"# wall {time.perf_counter() - started:.1f} s", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
