#!/usr/bin/env python3
"""Print every catalog, form and groupwise value on one fixed input, one
line per value, so that the outputs of two versions of the code can be
compared with diff.

The input is a 2,000-class DAG from scale_smoke.synth_graph_lines after
the transitive reduction, seco as theta (raw depth for the named forms
whose classic reading is depth), 400 instances annotated with one to three
classes each for the extensional measures, fixed-seed class pairs (root
pairs included) and fixed-seed class groups (root-only groups included).
It covers every MEASURES row at its default parameters, jc_hybrid also at
alpha=1, beta=0.5, predicate_weight=0.5 and under unsmoothed resnik on the
digest's usage (undefined for the unused classes), every named
instantiation, every form at its default parameters under both
commonalities, the direct groupwise measures and every aggregation over
lin. A line reads

    <measure> <u> <v>: <float.hex of the value> <polarity> <normalized> <degenerate>

or, when the evaluation raises, `<measure> <u> <v>: <SmxError class name>`,
which a jc_hybrid line follows with the error message, so that it also
shows the class that the error names.

Then come the tables of every estimator kind as build_estimator binds them,
in the natural log and, for the kinds that declare a base, in base 2 (the
extrinsic kinds on the digest's usage with smoothing off and on, zhou also
at k = 0.3), one line per class:

    estimator <kind> base=<e|2.0> smooth=<0|1> [k=<k>] <class>: <float.hex>

and is_symmetric of every catalog row at its default parameters and at
each point of a parameter grid of the rows whose symmetry depends on them:

    symmetric <measure> [<key>=<value> ...]: <0|1>

The last lines give the sha256 of the serializers' output, so that diffing
two digests also checks their edge order byte for byte: serialize_graph of
the DAG before and after the transitive reduction, the removed-edge report
as `smx preprocess` writes it, and the adjacency tables and serialization
of a weighted relational graph whose node labels are not in sorted order.

The relatedness section runs on its own fixed-seed weighted relational
graph: a directed ring with random chords under three predicates, most of
them stated both ways, edge weights that include 0, and a separate small
component. It prints the weighted shortest path of every pair under the
uniform scheme and under one that costs a predicate 0, the sha256 of the
SimRank table's bytes with its per-iteration deltas, and commute times on
fixed pairs, both of the whole graph (a reducible walk) and of the ring
alone (an irreducible one):

    wsp <scheme> <u> <v>: <float.hex | None | SmxError class name>
    simrank: sha256 <hex digest of the table> iterations=<k>
    simrank delta <i>: <float.hex>
    commute <graph> <u> <v>: <float.hex | SmxError class name>

The last block scores jc_hybrid, jac_anc and sim_dic on 100 of the class
pairs under a fixed-seed table theta whose values include finite ones of
both signs near the ends of float range, where a partial sum can overflow
although the exact sum does not, in the measure line format:

    <measure> theta=near-max <u> <v>: ...

The CLI block runs `python -m smx.cli`, from the smx package this script
imports, once per argv of a fixed list in a temporary directory. The inputs
are the DAG, its reduction by `smx preprocess`, the DAG with one edge
added from the root to a class below it (a cycle), the class pairs, the
instances' annotations, instance pairs, a word mapping and rated word
pairs, and bad inputs: a missing annotation file, an annotation file and
pair lists that name an unknown class or instance. It covers the success
path of every subcommand that loads a taxonomy, each of them on the cycle
and with both bad annotation files, and the errors of an unknown
estimator, an extrinsic estimator or a usage measure without
--annotations and an unknown class or instance in --pairs. A line gives
the exit status, the sha256 of the --out file (`absent` when the run
wrote none) and of standard output, and standard error with each newline
written as `\n`:

    cli <name>: exit=<n> out=<sha256> stdout=<sha256> stderr=<text>

The lines fall into blocks: one per catalog row, jc_hybrid variant, named
instantiation, form and groupwise measure, one per estimator table, and
the `symmetric`, `serializers`, `relatedness`, `near-max` and `cli`
blocks. tests/value_digest.json pins the sha256 of each block, and a
tier-1 test names every block whose lines no longer hash to it. A change
that moves values on purpose rewrites that file with --record. The digest
prints floats exactly (float.hex), so values from libm (exp, log, tanh)
may differ in the last bit on another platform: the hashes are pinned to
the CPython and libm of the machine that runs tier-1, named in the file.

Usage: PYTHONPATH=src python scripts/value_digest.py > digest.txt
       PYTHONPATH=src python scripts/value_digest.py --record
"""

import argparse
import hashlib
import json
import os
import platform
import random
import subprocess
import sys
import tempfile
from pathlib import Path

from scale_smoke import synth_graph_lines

import smx
from smx import (
    MEASURES,
    AnnotationSet,
    PredicateWeightScheme,
    SemanticGraph,
    ThetaEstimator,
    TransitionModel,
    abstract_form,
    build_estimator,
    class_usage,
    commute_time,
    depth_theta,
    eval_abstract,
    eval_groupwise,
    eval_pairwise,
    groupwise_measure,
    instantiate,
    is_symmetric,
    pairwise_measure,
    parse_graph,
    seco_ic,
    serialize_graph,
    simrank,
    taxonomic_reduction,
    transitive_reduction,
    weighted_shortest_path,
)
from smx.errors import SmxError
from smx.groupwise import STRATEGIES
from smx.specificity import ESTIMATORS
from smx.unify import FORMS

SEED = 20240210
HASHES = Path(__file__).resolve().parent.parent / "tests" / "value_digest.json"
NAMED = (
    "lin", "wu_palmer_tree", "faith", "jiang_conrath", "jaccard",
    "dice", "sokal_sneath", "simpson", "ochiai",
)
# parameter points of the rows whose symmetry depends on their parameters
SYMMETRY_GRID = (
    [
        ("tversky_ratio", {"alpha": a, "beta": b})
        for a, b in (
            (1.0, 1.0), (2.0, 2.0), (0.0, 0.0), (0.3, 0.3), (2.0, 0.5), (0.0, 1.0), (1.0, 0.0)
        )
    ]
    + [
        ("tversky_contrast", {"gamma": g, "alpha": a, "beta": b})
        for g in (0.0, 1.0, 2.5)
        for a, b in ((1.0, 1.0), (2.0, 2.0), (0.0, 0.0), (2.0, 0.5), (0.0, 1.0))
    ]
    + [("rodriguez_egenhofer", {"gamma": g}) for g in (0.0, 0.1, 0.25, 0.5, 0.75, 1.0)]
    + [("bulskov", {"alpha": a}) for a in (0.0, 0.25, 0.5, 0.9, 1.0)]
)


def line(name, left, right, evaluate):
    try:
        mv = evaluate()
    except SmxError as exc:
        message = f" {exc}" if name.startswith("jc_hybrid") else ""
        return f"{name} {left} {right}: {type(exc).__name__}{message}"
    return (
        f"{name} {left} {right}: {float(mv.value).hex()} {mv.polarity.value} "
        f"{int(mv.normalized)} {int(mv.degenerate)}"
    )


def digest(name, text):
    return f"{name}: sha256 {hashlib.sha256(text.encode()).hexdigest()}"


def estimator_blocks(t, usage):
    label, classes = t.label, t.sorted_classes()
    out = {}
    for kind, (_, specs) in ESTIMATORS.items():
        bases = [{}, {"base": 2.0}] if "base" in specs else [{}]
        smooths = [{}, {"smooth": 1}] if "smooth" in specs else [{}]
        extra = [{}, {"k": 0.3}] if kind == "zhou" else [{}]
        for base in bases:
            for smooth in smooths:
                for params in extra:
                    theta = build_estimator(kind, t, usage, **base, **smooth, **params)
                    name = f"estimator {kind} base={base.get('base', 'e')}"
                    name += f" smooth={smooth.get('smooth', 0)}"
                    name += "".join(f" {key}={value}" for key, value in params.items())
                    out[name] = [f"{name} {label(c)}: {float(theta.raw(c)).hex()}" for c in classes]
    return out


def symmetry_lines(theta, usage):
    configs = [(name, {}) for name in sorted(MEASURES)] + SYMMETRY_GRID
    out = []
    for name, params in configs:
        spec = pairwise_measure(name, theta=theta, usage=usage, **params)
        settings = "".join(f" {key}={value}" for key, value in params.items())
        out.append(f"symmetric {name}{settings}: {int(is_symmetric(spec))}")
    return out


def serializer_lines(graph, rng):
    _, report = transitive_reduction(taxonomic_reduction(graph))
    removed = {
        (graph.node(r.subject), r.predicate, graph.node(r.object)) for r in report.removed_edges
    }
    reduced = SemanticGraph(
        graph._labels, graph.classes, graph.instances, graph.predicates, graph.edges - removed
    )
    report_text = "".join(
        f"removed\t{r.subject}\t{r.predicate}\t{r.object}\n" for r in report.removed_edges
    )
    names = [f"n{k}" for k in range(300)]
    rng.shuffle(names)
    edges = sorted({
        (rng.randrange(300), rng.choice(("partOf", "hunts", "eats")), rng.randrange(300))
        for _ in range(1_200)
    })
    relational = SemanticGraph(
        names, (), range(300), ("partOf", "hunts", "eats"), edges,
        {e: rng.choice((0.0, 0.5, 1.0, 2.5, 1e-3)) for e in edges},
    )
    return [
        digest("serialize_graph dag", serialize_graph(graph)),
        digest("serialize_graph reduced dag", serialize_graph(reduced)),
        digest("removed-edge report", report_text),
        digest("_adjacent relational", repr(relational._adjacent())),
        digest("serialize_graph relational", serialize_graph(relational)),
    ]


def value_or_error(evaluate):
    try:
        value = evaluate()
    except SmxError as exc:
        return type(exc).__name__
    return "None" if value is None else value.hex()


def relatedness_lines():
    rng = random.Random(SEED + 1)
    ring, extra = 100, 8
    predicates = ("partOf", "hunts", "eats")
    weights = {(i, "partOf", (i + 1) % ring): rng.choice((0.5, 1.0, 2.5)) for i in range(ring)}
    for _ in range(2 * ring):
        a, b = rng.randrange(ring), rng.randrange(ring)
        edge = (a, rng.choice(predicates), b)
        weights.setdefault(edge, rng.choice((0.0, 0.5, 1.0, 2.5, 1e-3)))
        if rng.random() < 0.7:
            weights.setdefault((b, edge[1], a), weights[edge])
    ring_weights = dict(weights)
    for i in range(ring, ring + extra - 1):
        weights[i, "eats", i + 1] = rng.choice((0.0, 1.0, 2.5))
    names = [f"r{k}" for k in range(ring + extra)]
    graph_of = lambda table, n: SemanticGraph(
        names[:n], (), range(n), predicates, sorted(table), table
    )
    graph, ring_graph = graph_of(weights, ring + extra), graph_of(ring_weights, ring)

    uniform = PredicateWeightScheme()
    schemes = [
        ("uniform", uniform),
        ("free-partOf", PredicateWeightScheme({"partOf": 0.0, "hunts": 2.5}, default=0.75)),
    ]
    out = []
    for name, scheme in schemes:
        for u in range(graph.n_nodes):
            for v in range(u + 1, graph.n_nodes):
                cost = value_or_error(lambda: weighted_shortest_path(graph, scheme, u, v))
                out.append(f"wsp {name} {names[u]} {names[v]}: {cost}")
    scores = simrank(graph, iterations=40)
    table = hashlib.sha256(scores.as_array().tobytes()).hexdigest()
    out.append(f"simrank: sha256 {table} iterations={scores.iterations}")
    out += [f"simrank delta {i}: {delta.hex()}" for i, delta in enumerate(scores.deltas)]
    pairs = [(rng.randrange(ring), rng.randrange(ring + extra)) for _ in range(30)]
    for name, g in (("whole", graph), ("ring", ring_graph)):
        model = TransitionModel.from_graph(g, uniform)
        for u, v in pairs:
            if v < g.n_nodes:
                time = value_or_error(lambda: commute_time(model, u, v))
                out.append(f"commute {name} {names[u]} {names[v]}: {time}")
    return out


def near_max_lines(t, pairs):
    rng = random.Random(SEED + 2)
    values = (0.0, 0.5, -2.0, 0.9e308, -0.9e308, 1.7e308, -1.7e308)
    weights = (6, 3, 3, 1, 1, 1, 1)
    table = {c: rng.choices(values, weights)[0] for c in t.sorted_classes()}
    theta = ThetaEstimator.from_table(t, table)
    out = []
    for name in ("jc_hybrid", "jac_anc", "sim_dic"):
        spec = pairwise_measure(name, theta=theta)
        for u, v in pairs[:100]:
            evaluate = lambda: eval_pairwise(spec, t, u, v)
            out.append(line(f"{name} theta=near-max", t.label(u), t.label(v), evaluate))
    return out


def cli_run(directory, argv):
    """One `python -m smx.cli` line; argv writes to run.out unless it names
    its own --out."""
    if "--out" not in argv:
        argv = [*argv, "--out", "run.out"]
    out = directory / argv[argv.index("--out") + 1]
    if out.exists():
        out.unlink()
    src = Path(smx.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-m", "smx.cli", *argv], cwd=directory, capture_output=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    sha = lambda data: hashlib.sha256(data).hexdigest()
    written = sha(out.read_bytes()) if out.exists() else "absent"
    err = proc.stderr.decode().rstrip("\n").replace("\n", "\\n")
    return f"exit={proc.returncode} out={written} stdout={sha(proc.stdout)} stderr={err}"


def cli_lines(graph_text, t, annotations, pairs):
    label = t.label
    classes = [label(c) for c in t.sorted_classes()]
    used = sorted({label(c) for cs in annotations.assignments.values() for c in cs})
    words = [f"w{k}" for k in range(60)]
    files = {
        "graph.tsv": graph_text,
        "cycle.tsv": f"{graph_text}{label(t.root)}\tsubClassOf\t{classes[-1]}\n",
        "pairs.tsv": "".join(f"{label(u)}\t{label(v)}\n" for u, v in pairs),
        "used-pairs.tsv": "".join(
            f"{used[k]}\t{used[(7 * k + 3) % len(used)]}\n" for k in range(100)
        ),
        "ann.tsv": "".join(
            f"{name}\t{','.join(sorted(label(c) for c in cs))}\n"
            for name, cs in sorted(annotations.assignments.items())
        ),
        "ipairs.tsv": "".join(f"i{k}\ti{(7 * k + 3) % 400}\n" for k in range(100)),
        "map.tsv": "".join(
            f"{w}\t{classes[37 * k % len(classes)]};{classes[11 * k % len(classes)]}\n"
            for k, w in enumerate(words)
        ),
        "rated.tsv": "".join(
            f"{w}\t{words[(7 * k + 1) % 60]}\t{13 * k % 10}\n" for k, w in enumerate(words)
        ),
        "ghost-ann.tsv": "i0\tc1\ni1\tc2,ghost\n",
        "ghost-pairs.tsv": f"{classes[1]}\t{classes[2]}\n{classes[1]}\tghost\n",
        "ghost-ipairs.tsv": "i1\ti2\nghost\ti1\n",
    }
    reduced, ann = ["--graph", "reduced.tsv"], ["--annotations", "ann.tsv"]
    bases = {
        "ic": ["ic", "--estimator", "seco", *reduced],
        "sim": ["sim", "--measure", "lin", "--ic", "seco", *reduced, "--pairs", "pairs.tsv"],
        "groupsim": ["groupsim", "--measure", "bma:lin", "--ic", "seco", *reduced, *ann,
                     "--pairs", "ipairs.tsv"],
        "abstract": ["abstract", "--form", "dice", "--ic", "seco", *reduced,
                     "--pairs", "pairs.tsv"],
        "bench": ["bench", *reduced, "--mapping", "map.tsv", "--dataset", "rated.tsv",
                  "--measures", "lin:ic=seco,wupalmer,rada"],
    }
    ic, sim, group, abstract, bench = bases.values()
    # argparse keeps the last value of a repeated option, so a variant is
    # its base with options appended
    runs = [
        ("preprocess", ["preprocess", "--graph", "graph.tsv", "--out", "reduced.tsv"]),
        ("preprocess cycle", ["preprocess", "--graph", "cycle.tsv"]),
    ]
    for command, argv in bases.items():
        runs += [
            (command, argv),
            (f"{command} cycle", [*argv, "--graph", "cycle.tsv"]),
            (f"{command} missing annotations", [*argv, "--annotations", "missing.tsv"]),
            (f"{command} unknown annotation class", [*argv, "--annotations", "ghost-ann.tsv"]),
        ]
    runs += [
        ("ic resnik", [*ic, "--estimator", "resnik:smooth=1,base=2", *ann]),
        ("ic unknown estimator", [*ic, "--estimator", "nosuch"]),
        ("ic resnik without annotations", [*ic, "--estimator", "resnik"]),
        ("sim jaccard_ext", [*sim, "--measure", "jaccard_ext", *ann, "--pairs", "used-pairs.tsv"]),
        ("sim jaccard_ext unused class", [*sim, "--measure", "jaccard_ext", *ann]),
        ("sim jc resnik", [*sim, "--measure", "jc", "--ic", "resnik:smooth=1", *ann]),
        ("sim jc default theta", ["sim", "--measure", "jc", *reduced, "--pairs", "pairs.tsv"]),
        ("sim unknown estimator", [*sim, "--ic", "nosuch"]),
        ("sim resnik without annotations", [*sim, "--ic", "resnik"]),
        ("sim jaccard_ext without annotations", [*sim, "--measure", "jaccard_ext"]),
        ("sim unknown class", [*sim, "--pairs", "ghost-pairs.tsv"]),
        ("groupsim simgic resnik", [*group, "--measure", "simgic", "--ic", "resnik"]),
        ("groupsim avg:jaccard_ext", [*group, "--measure", "avg:jaccard_ext"]),
        ("groupsim unknown estimator", [*group, "--ic", "nosuch"]),
        ("groupsim unknown instance", [*group, "--pairs", "ghost-ipairs.tsv"]),
        ("abstract resnik", [*abstract, "--ic", "resnik:smooth=1", *ann]),
        ("abstract unknown estimator", [*abstract, "--ic", "nosuch"]),
        ("abstract resnik without annotations", [*abstract, "--ic", "resnik"]),
        ("abstract unknown class", [*abstract, "--pairs", "ghost-pairs.tsv"]),
        ("bench usage", [*bench, "--measures", "lin:ic=resnik:smooth=1,jaccard_ext", *ann]),
        ("bench unknown estimator", [*bench, "--measures", "lin:ic=nosuch"]),
        ("bench resnik without annotations", [*bench, "--measures", "lin:ic=resnik"]),
        ("bench jaccard_ext without annotations", [*bench, "--measures", "jaccard_ext"]),
    ]
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        for name, text in files.items():
            (directory / name).write_text(text)
        return [f"cli {name}: {cli_run(directory, argv)}" for name, argv in runs]


def blocks():
    """{block name: its lines}, in the order the digest prints them."""
    rng = random.Random(SEED)
    graph_text = synth_graph_lines(2_000, rng)
    graph = parse_graph(graph_text.encode())
    t, _ = transitive_reduction(taxonomic_reduction(graph))
    classes = t.sorted_classes()
    theta, depth = seco_ic(t), depth_theta(t, normalized=False)
    annotations = AnnotationSet(
        {f"i{k}": frozenset(rng.sample(classes, rng.randint(1, 3))) for k in range(400)}
    )
    usage = class_usage(t, annotations)
    pairs = [tuple(rng.sample(classes, 2)) for _ in range(300)]
    pairs += [(t.root, t.root), (t.root, classes[1]), (classes[1], classes[1])]
    groups = [frozenset(rng.sample(classes, rng.randint(1, 5))) for _ in range(60)]
    groups += [frozenset({t.root}), frozenset({t.root, classes[1]})]
    group_pairs = [tuple(rng.sample(range(len(groups)), 2)) for _ in range(150)]
    group_pairs += [(len(groups) - 2, len(groups) - 2), (len(groups) - 2, len(groups) - 1)]

    label = t.label
    out = {}
    for name in sorted(MEASURES):
        info = MEASURES[name]
        spec = pairwise_measure(
            name,
            theta=theta if info.needs_theta else None,
            usage=usage if info.needs_usage else None,
        )
        out[name] = [
            line(name, label(u), label(v), lambda: eval_pairwise(spec, t, u, v)) for u, v in pairs
        ]
    resnik = build_estimator("resnik", t, usage)
    hybrids = [
        (
            "jc_hybrid alpha=1.0 beta=0.5 predicate_weight=0.5",
            pairwise_measure(
                "jc_hybrid", theta=theta, alpha=1.0, beta=0.5, predicate_weight=0.5
            ),
        ),
        ("jc_hybrid theta=resnik", pairwise_measure("jc_hybrid", theta=resnik)),
    ]
    for name, spec in hybrids:
        out[name] = [
            line(name, label(u), label(v), lambda: eval_pairwise(spec, t, u, v)) for u, v in pairs
        ]
    forms = [(f"named:{name}", instantiate(name)) for name in NAMED]
    forms += [
        (f"form:{kind}:{feature}", abstract_form(kind, feature=feature))
        for kind in FORMS
        for feature in ("mica_theta", "shared_ancestor_salience")
    ]
    for name, form in forms:
        form = form.with_theta(depth if form.theta_hint == "depth" else theta)
        out[name] = [
            line(name, label(u), label(v), lambda: eval_abstract(form, t, u, v)) for u, v in pairs
        ]
    lin = pairwise_measure("lin", theta=theta)
    specs = [(name, groupwise_measure(name, theta=theta)) for name in ("simui", "nto", "simgic")]
    specs += [(f"{name}:lin", groupwise_measure(name, inner=lin)) for name in STRATEGIES]
    for name, spec in specs:
        out[name] = [
            line(name, f"g{a}", f"g{b}", lambda: eval_groupwise(spec, t, groups[a], groups[b]))
            for a, b in group_pairs
        ]
    out.update(estimator_blocks(t, usage))
    out["symmetric"] = symmetry_lines(theta, usage)
    out["serializers"] = serializer_lines(graph, rng)
    out["relatedness"] = relatedness_lines()
    out["near-max"] = near_max_lines(t, pairs)
    out["cli"] = cli_lines(graph_text, t, annotations, pairs)
    return out


def block_hashes(found):
    """{block name: sha256 of its lines joined by newlines}."""
    return {
        name: hashlib.sha256("\n".join(lines).encode()).hexdigest()
        for name, lines in found.items()
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--record", action="store_true",
        help=f"rewrite tests/{HASHES.name} with the block hashes instead of printing the lines",
    )
    record = parser.parse_args().record
    found = blocks()
    if not record:
        print("\n".join(line for lines in found.values() for line in lines))
        return
    pinned_to = f"CPython {platform.python_version()}, {' '.join(platform.libc_ver())}"
    hashes = {"pinned_to": pinned_to, "blocks": block_hashes(found)}
    HASHES.write_text(json.dumps(hashes, indent=1) + "\n")
    print(f"wrote {len(found)} block hashes to tests/{HASHES.name}", file=sys.stderr)


if __name__ == "__main__":
    main()
