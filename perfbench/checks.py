"""Reference values for the correctness gate.

A fixed sample of pairwise, unified-form, groupwise and relatedness values
is evaluated on the small inputs of the reference seed and compared with
the values recorded in reference.json. Every run makes this comparison,
whatever its own seed, so a change in any kernel's output shows even when
the workload's own checks (ranges, determinism, oracles) still hold.
Failures are pinned too: an evaluation that raises is recorded as
`error:<ExceptionName>`.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import inputs
import workloads as w
from speed import Stopwatch
from tracing import Tracer

from smx import TransitionModel, commute_time, eval_groupwise, parse_graph, simrank, weighted_shortest_path
from smx.errors import SmxError

REFERENCE_SEED = 20240210
REFERENCE_PATH = Path(__file__).with_name("reference.json")


def _value(call):
    try:
        result = call()
    except SmxError as exc:
        return f"error:{type(exc).__name__}"
    return getattr(result, "value", result)


def pairs_sample() -> dict:
    text = inputs.taxonomy_text(w.MINI["classes"], random.Random(REFERENCE_SEED))
    _, reduced, _, _, kernels = w.pairs_setup(text, Stopwatch(Tracer(False)), {})
    classes = reduced.sorted_classes()
    rng = random.Random(f"{REFERENCE_SEED}/fixture")
    pairs = [(rng.choice(classes), rng.choice(classes)) for _ in range(12)]
    return {
        f"{name}|{reduced.label(u)}|{reduced.label(v)}": _value(lambda: fn(spec, reduced, u, v))
        for name, fn, spec in kernels
        for u, v in pairs
    }


def groups_sample() -> dict:
    graph_text, ann_text = w.group_inputs(REFERENCE_SEED, w.MINI)
    reduced, reduced_ann, _, _, specs = w.groups_setup(graph_text, ann_text, Stopwatch(Tracer(False)))
    names = sorted(reduced_ann.assignments)
    rng = random.Random(f"{REFERENCE_SEED}/fixture")
    picks = [rng.sample(names, 2) for _ in range(8)]
    return {
        f"groupwise.{token}|{a}|{b}": _value(
            lambda: eval_groupwise(spec, reduced, reduced_ann.assignments[a], reduced_ann.assignments[b])
        )
        for token, spec in specs
        for a, b in picks
    }


def relate_sample() -> dict:
    graph = parse_graph(inputs.relational_text(w.MINI["rel_nodes"], random.Random(REFERENCE_SEED)))
    scheme = w.relation_scheme()
    model = TransitionModel.from_graph(graph, scheme)
    scores = simrank(graph, decay=w.SIMRANK_DECAY, iterations=100, tol=w.SIMRANK_TOL)
    rng = random.Random(f"{REFERENCE_SEED}/fixture")
    pairs = [tuple(rng.sample(range(graph.n_nodes), 2)) for _ in range(6)]
    values = {}
    for u, v in pairs:
        key = f"{graph.label(u)}|{graph.label(v)}"
        values[f"wsp|{key}"] = _value(lambda: weighted_shortest_path(graph, scheme, u, v))
        values[f"commute|{key}"] = _value(lambda: commute_time(model, u, v))
        values[f"simrank|{key}"] = _value(lambda: scores.score(u, v))
    values["simrank.iterations"] = scores.iterations
    return values


SAMPLES = {"pairwise": pairs_sample, "groupwise": groups_sample, "relatedness": relate_sample}


def record() -> None:
    doc = {
        "seed": REFERENCE_SEED,
        "sizes": {k: w.MINI[k] for k in ("classes", "instances", "rel_nodes")},
        "tolerance": {"abs": w.TOL, "rel": w.TOL},
        **{kind: sample() for kind, sample in SAMPLES.items()},
    }
    REFERENCE_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def _same(expected, actual) -> bool:
    if isinstance(expected, str) or isinstance(actual, str) or expected is None or actual is None:
        return expected == actual
    if isinstance(expected, float) and math.isinf(expected):
        return expected == actual
    return w.close(float(actual), float(expected))


def compare() -> list[str]:
    """Mismatches between the recorded and the current reference sample."""
    doc = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
    bad = []
    for kind, sample in SAMPLES.items():
        expected = doc[kind]
        actual = sample()
        if expected.keys() != actual.keys():
            bad.append(f"reference {kind}: sample keys differ from the recorded ones")
            continue
        wrong = [k for k in expected if not _same(expected[k], actual[k])]
        for key in wrong[:5]:
            bad.append(f"reference {kind} {key}: recorded {expected[key]!r}, now {actual[key]!r}")
        if len(wrong) > 5:
            bad.append(f"reference {kind}: {len(wrong) - 5} more mismatches")
    return bad
