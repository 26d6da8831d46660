"""Command line entry point.

Subcommands: preprocess, ic, sim, groupsim, abstract, rel, bench.

Every subcommand but rel loads its input in one order: the graph, its
taxonomy view and a given --annotations file, then class usage and each
theta only when a measure or estimator needs them. rel reads a relational
graph, which has no taxonomy.

Exit status is 0 on success, 1 on a usage error and 2 on a data or
contract error. Results go only to the output path (or standard output);
diagnostics go to standard error. Measure and estimator selections share
one grammar: name[:key=value,...], for example lin:ic=seco or
li:alpha=0.2,beta=0.6. An estimator's logarithm base and smoothing are
its parameters: --ic resnik:smooth=1,base=2. A pair measure (sim
--measure, an aggregation's inner measure, bench --measures, abstract
--form) is a catalog row, an abstract form or a named form, in that order.
"""

from __future__ import annotations

import argparse
import functools
import gc
import logging
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import replace

from . import bench as bench_mod
from . import ingest, preprocess, relatedness, unify
from .errors import InfinityError, SmxError, UsageError as DataUsageError
from .graph import SUBCLASS_OF
from .groupwise import DIRECT, STRATEGIES, eval_groupwise, groupwise_measure
from .pairwise import _NAMED, MEASURES, PairwiseMeasureSpec, instantiate, pair_scorer
from .specificity import ESTIMATORS, EXTRINSIC, build_estimator, class_usage, resolve_params

log = logging.getLogger("smx")


class CommandLineError(Exception):
    """Bad invocation; maps to exit status 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CommandLineError(f"{self.prog}: {message}")


# -- selection grammar -------------------------------------------------------

# a name without underscores -> the catalog row, form kind or named form, in that order
_MEASURE_ALIASES = dict(jc="jiang_conrath", jiangconrathdist="jiang_conrath", lc="leacock_chodorow")
for _name in (*MEASURES, *unify.FORMS, *_NAMED):
    _MEASURE_ALIASES.setdefault(_name.replace("_", ""), _name)


def resolve_measure_name(name: str) -> str:
    resolved = _MEASURE_ALIASES.get(name.lower().replace("_", ""))
    if resolved is None:
        valid = ", ".join(sorted(set(_MEASURE_ALIASES.values())))
        raise CommandLineError(f"unknown measure {name!r}; valid measures: {valid}")
    return resolved


def parse_selector(token: str) -> tuple[str, dict[str, str]]:
    """Split name[:key=value,...] into the name and its raw parameters."""
    name, _, rest = token.partition(":")
    name = name.strip()
    if not name:
        raise CommandLineError(f"empty selector in {token!r}")
    params: dict[str, str] = {}
    if rest:
        for piece in rest.split(","):
            key, eq, value = piece.partition("=")
            if not eq or not key.strip() or not value.strip():
                raise CommandLineError(f"bad parameter {piece!r} in {token!r}")
            params[key.strip()] = value.strip()
    return name, params


def split_measure_list(text: str) -> list[str]:
    """Split a comma-separated measure list, keeping key=value fragments
    attached to the measure they belong to. A fragment with a ':' before
    its '=' (lin:ic=seco) starts a measure of its own."""
    tokens: list[str] = []
    for fragment in text.split(","):
        key, eq, _ = fragment.partition("=")
        if eq and ":" not in key and tokens:
            tokens[-1] += "," + fragment
        else:
            tokens.append(fragment)
    return [t for t in (tok.strip() for tok in tokens) if t]


def _float_params(params: dict[str, str], context: str) -> dict[str, float]:
    out = {}
    for key, value in params.items():
        try:
            out[key] = float(value)
        except ValueError:
            raise CommandLineError(
                f"{context}: parameter {key}={value!r} is not a number"
            ) from None
    return out


# -- the load step ----------------------------------------------------------


def _load(args):
    """The load step of every taxonomic subcommand: parse --graph, build
    its taxonomy view and parse --annotations when the option is given.

    Returns (graph, view, annotations, usage, theta). annotations is None
    without the option. usage() builds class usage on its first call, and
    only then, and is None without annotations; theta(token) binds the
    estimator of a selector token once per distinct token, the one place
    the CLI binds a theta, and theta(token, bind=False) checks its kind."""
    graph = ingest.parse_graph(args.graph)
    taxonomy = preprocess.taxonomic_reduction(graph)
    path = getattr(args, "annotations", None)
    annotations = ingest.parse_annotations(path, graph) if path else None

    @functools.cache
    def usage():
        return None if annotations is None else class_usage(taxonomy, annotations)

    @functools.cache
    def theta(token, bind=True):
        kind, raw = parse_selector(token)
        if kind not in ESTIMATORS:
            raise CommandLineError(
                f"unknown estimator {kind!r}; valid estimators: {', '.join(ESTIMATORS)}"
            )
        if not bind:
            return None
        params = _float_params(raw, f"estimator {kind}")
        counts = usage() if kind in EXTRINSIC else None
        if kind in EXTRINSIC and counts is None:
            raise DataUsageError(f"estimator {kind!r} needs --annotations")
        # checked against the kind's table first, as a measure's parameters are
        params = resolve_params(kind, ESTIMATORS[kind][1], params)
        return build_estimator(kind, taxonomy, usage=counts, **params)

    if getattr(args, "ic", None) is not None:
        theta(args.ic, bind=False)
    return graph, taxonomy, annotations, usage, theta


def _bind(theta, token, needs_theta, measure):
    """The theta of a measure: its token's, or seco's if it reads theta and
    selects none; None if it reads no theta, after checking a given token."""
    if token is None and needs_theta:
        log.info("measure %s: no estimator selected, defaulting to seco", measure)
        token = "seco"
    return None if token is None else theta(token, bind=needs_theta)


def _pairwise_spec(args, token, theta, usage):
    """The spec of a pair selection token, bound to its theta and usage."""
    typed, raw = parse_selector(token)
    name = resolve_measure_name(typed)
    ic_token = raw.pop("ic", None) or getattr(args, "ic", None)
    if name in MEASURES or name in unify.FORMS:
        params = tuple(_float_params(raw, f"measure {name}").items())
        feature = None if name in MEASURES else "mica_theta"
        spec = PairwiseMeasureSpec(name, params, feature=feature)
    elif raw:
        raise CommandLineError(f"named form {typed!r} takes no parameters")
    else:
        spec = instantiate(name)
    info = spec.info
    counts = usage() if info.needs_usage else None
    if info.needs_usage and counts is None:
        raise DataUsageError(f"measure {name!r} needs --annotations")
    return replace(spec, theta=_bind(theta, ic_token, info.needs_theta, name), usage=counts)


def _open_file(path, mode):
    try:
        return open(path, mode, encoding="utf-8", newline="")
    except OSError as exc:
        raise SmxError(f"cannot write {path}: {exc.strerror}") from None


def _check_writable(path) -> None:
    """Raise what _open_out(path) would raise, leaving the file as it was."""
    if path not in (None, "-"):
        existed = os.path.exists(path)
        _open_file(path, "a").close()
        if not existed:
            os.remove(path)


@contextmanager
def _open_out(path):
    if path in (None, "-"):
        yield sys.stdout
    else:
        with _open_file(path, "w") as handle:
            yield handle


def _fmt(value: float) -> str:
    # adding 0.0 turns -0.0 into 0.0 and leaves every other value as it is
    return f"{value + 0.0:.12g}"


def _write_scores(path, pairs_path, resolve, score, measure) -> None:
    """Write idA, idB and score(resolve(idA), resolve(idB)) for each listed
    pair: a float, or None for "unreachable". Every identifier is resolved,
    an unknown one naming its file and line, and every pair scored before
    the output is opened, so a command that fails leaves no partial output
    and an existing file untouched. A NaN or infinite score is an
    InfinityError naming `measure` (the measure, form or method) and the
    pair."""
    rows = []
    for a, b, x, y in ingest.resolve_pairs(pairs_path, resolve):
        value = score(x, y)
        if value is None:
            value = "unreachable"
        elif math.isfinite(value):
            value = _fmt(value)
        else:
            raise InfinityError(
                f"{measure}: the pair ({a}, {b}) scores {value}, not a finite number"
            )
        rows.append(f"{a}\t{b}\t{value}\n")
    with _open_out(path) as out:
        out.writelines(rows)


# -- subcommands -------------------------------------------------------------


def _cmd_preprocess(args) -> int:
    """Write the loaded graph minus the subClassOf edges its view found
    redundant, and the report of the transitive reduction."""
    graph, taxonomy, *_ = _load(args)
    _, report = preprocess.transitive_reduction(taxonomy)
    redundant = {(u, SUBCLASS_OF, p) for u, p in taxonomy.redundant_edges}
    # --report is checked before --out is opened, so whichever output cannot
    # be written, the other is left as it was
    _check_writable(args.report)
    with _open_out(args.out) as out, _open_out(args.report) as report_out:
        out.write(ingest.serialize_graph(graph, without=redundant))
        for record in report.removed_edges:
            report_out.write(f"removed\t{record.subject}\t{record.predicate}\t{record.object}\n")
        if report.inserted_root:
            report_out.write(f"inserted_root\t{report.inserted_root}\n")
    log.info(
        "removed %d redundant edges%s",
        len(report.removed_edges),
        f", inserted {report.inserted_root}" if report.inserted_root else "",
    )
    return 0


def _cmd_ic(args) -> int:
    _, taxonomy, _, _, theta = _load(args)
    estimator = theta(args.estimator)
    with _open_out(args.out) as out:
        for c in taxonomy.sorted_classes():
            out.write(f"{taxonomy.label(c)}\t{_fmt(estimator.raw(c))}\n")
    return 0


def _cmd_sim(args) -> int:
    _, taxonomy, _, usage, theta = _load(args)
    spec = _pairwise_spec(args, args.measure, theta, usage)
    scorer = pair_scorer(spec, taxonomy, args.allow_unreduced)
    score = lambda u, v: scorer(u, v).value
    _write_scores(args.out, args.pairs, taxonomy.node, score, args.measure)
    return 0


def _cmd_groupsim(args) -> int:
    _, taxonomy, annotations, usage, theta = _load(args)
    reduced, _ = preprocess.reduce_annotations(taxonomy, annotations)

    # grammar: direct name, or strategy:inner[,key=value...]
    name, _, inner_token = args.measure.partition(":")
    name = name.strip().lower()
    if name in DIRECT:
        if inner_token:
            raise CommandLineError(f"direct measure {name!r} takes no inner measure")
        ic = _bind(theta, args.ic, DIRECT[name].info.needs_theta, name)
        spec = groupwise_measure(name, theta=ic)
    elif name in STRATEGIES:
        if not inner_token.strip():
            raise CommandLineError(
                f"aggregation {name!r} needs an inner measure, e.g. {name}:lin"
            )
        inner_spec = _pairwise_spec(args, inner_token, theta, usage)
        spec = groupwise_measure(name, inner=inner_spec)
    else:
        raise CommandLineError(
            f"unknown groupwise measure {name!r}; "
            f"valid: {', '.join((*DIRECT, *STRATEGIES))}"
        )

    def classes_of(instance):
        if instance not in reduced.assignments:
            raise ingest.ResolutionError(f"unknown instance {instance!r}")
        return reduced.assignments[instance]

    def score(a, b):
        return eval_groupwise(spec, taxonomy, a, b, allow_unreduced=args.allow_unreduced).value

    _write_scores(args.out, args.pairs, classes_of, score, args.measure)
    return 0


def _cmd_rel(args) -> int:
    method = args.method
    if method not in ("wsp", "hitting", "commute", "simrank"):
        raise CommandLineError(
            f"unknown method {method!r}; valid: wsp, hitting, commute, simrank"
        )
    graph = ingest.parse_graph(args.graph)
    scheme = relatedness.UNIFORM
    if args.weights is not None:
        scheme = ingest.parse_weight_scheme(args.weights)

    if method == "wsp":
        score = functools.partial(relatedness.weighted_shortest_path, graph, scheme)
    elif method in ("hitting", "commute"):
        model = relatedness.TransitionModel.from_graph(graph, scheme)
        walk = relatedness.hitting_time if method == "hitting" else relatedness.commute_time
        score = functools.partial(walk, model)
    else:
        scores = relatedness.simrank(
            graph, decay=args.decay, iterations=args.iterations, tol=1e-12
        )
        score = scores.score

    _write_scores(args.out, args.pairs, graph.node, score, method)
    return 0


def _cmd_bench(args) -> int:
    graph, taxonomy, _, usage, theta = _load(args)
    mapping = ingest.parse_word_mapping(args.mapping, graph)
    dataset = bench_mod.load_rated_pairs(args.dataset, kind=args.dataset_kind)
    measures = [
        (token, _pairwise_spec(args, token, theta, usage))
        for token in split_measure_list(args.measures)
    ]
    if not measures:
        raise CommandLineError("no measures selected")
    run = bench_mod.run_benchmark(
        dataset,
        mapping.words,
        measures,
        taxonomy,
        allow_unreduced=args.allow_unreduced,
    )
    with _open_out(args.out) as out:
        bench_mod.write_report_csv(run, out)
    return 0


# -- parser ------------------------------------------------------------------


def _add_common(sub, graph=True, out=True, unreduced=False, annotations=False):
    if graph:
        sub.add_argument("--graph", required=True, help="graph triple TSV")
    if annotations:
        sub.add_argument("--annotations", help="instance annotation TSV")
    if out:
        sub.add_argument("--out", default="-", help="output path, '-' for stdout")
    if unreduced:
        sub.add_argument(
            "--allow-unreduced",
            action="store_true",
            help="let path-based measures run on a non-reduced taxonomy",
        )


def build_parser() -> _Parser:
    parser = _Parser(prog="smx", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("preprocess", help="transitive reduction and cleaning report")
    _add_common(p)
    p.add_argument("--report", default="-", help="removed-triple report path")
    p.set_defaults(func=_cmd_preprocess)

    p = subs.add_parser("ic", help="dump per-class specificity values")
    _add_common(p, annotations=True)
    p.add_argument(
        "--estimator",
        required=True,
        help=f"one of {', '.join(ESTIMATORS)}, e.g. zhou:k=0.6 or seco:base=2",
    )
    p.set_defaults(func=_cmd_ic)

    p = subs.add_parser("sim", help="pairwise class similarity scores")
    _add_common(p, unreduced=True, annotations=True)
    p.add_argument("--measure", required=True, help="measure or form: lin, li:alpha=0.2, dice, ...")
    p.add_argument("--ic", help="estimator for IC-based measures, e.g. resnik:smooth=1,base=2")
    p.add_argument("--pairs", required=True, help="classA<TAB>classB pair list")
    p.set_defaults(func=_cmd_sim)

    p = subs.add_parser("groupsim", help="similarity between annotated instances")
    _add_common(p, unreduced=True)
    p.add_argument("--annotations", required=True, help="instance annotation TSV")
    p.add_argument("--measure", required=True, help="simui, nto, simgic, bma:lin, avg:dice, ...")
    p.add_argument("--ic", help="estimator for IC-based parts, e.g. seco")
    p.add_argument("--pairs", required=True, help="instanceA<TAB>instanceB pair list")
    p.set_defaults(func=_cmd_groupsim)

    p = subs.add_parser("abstract", help="evaluate unified abstract measure forms")
    _add_common(p, annotations=True)
    p.add_argument("--form", dest="measure", metavar="FORM", required=True,
                   help="dice, jaccard, simpson, sigma_beta:beta=1, ...")
    p.add_argument("--ic", required=True, help="theta estimator as for sim: seco, depth_raw, ...")
    p.add_argument("--pairs", required=True, help="classA<TAB>classB pair list")
    p.set_defaults(func=_cmd_sim, allow_unreduced=False)

    p = subs.add_parser("rel", help="graph relatedness (wsp, hitting, commute, simrank)")
    _add_common(p)
    p.add_argument("--method", required=True, help="wsp, hitting, commute or simrank")
    p.add_argument("--weights", help="predicate weight scheme TSV")
    p.add_argument("--pairs", required=True, help="nodeA<TAB>nodeB pair list")
    p.add_argument("--decay", type=float, default=0.8, help="simrank decay factor")
    p.add_argument("--iterations", type=int, default=100, help="simrank iteration cap")
    p.set_defaults(func=_cmd_rel)

    p = subs.add_parser("bench", help="correlate measures against rated word pairs")
    _add_common(p, unreduced=True, annotations=True)
    p.add_argument("--mapping", required=True, help="word to class mapping TSV")
    p.add_argument("--dataset", required=True, help="rated pair TSV")
    p.add_argument(
        "--dataset-kind",
        choices=sorted(bench_mod.KNOWN_DATASETS),
        help="validate the pair count of a known benchmark",
    )
    p.add_argument("--measures", required=True, help="e.g. lin:ic=seco,wupalmer,dice")
    p.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="smx: %(message)s")
    parser = build_parser()
    # A command builds large acyclic tables (tuples, frozensets, dicts of
    # ints) and then exits, so the cyclic collector's passes over them find
    # nothing. It is paused for the command and restored for in-process
    # callers.
    collecting = gc.isenabled()
    gc.disable()
    try:
        args = parser.parse_args(argv)
        status = args.func(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # the reader of standard output has gone: exit as SIGPIPE would, and
        # point stdout at the null device so the flush at exit cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE
    except CommandLineError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SmxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
