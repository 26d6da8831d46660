"""Pairwise class similarity and distance measures behind one entry point.

Each measure is declared in the MEASURES catalog together with the flags
(polarity, normalization, symmetry, identity of the indiscernibles) that
the axiom audit verifies. Fifteen rows are data: an abstract form of
unify.py applied to a unify.FEATURES entry (theta at the MICA, summed
theta over the ancestor sets, ancestor counts, the depth triple or the
NCCA mean), taking polarity, normalization and symmetry from the form
(ratio and contrast are symmetric exactly when alpha == beta at the bound
arguments) and needs_theta from the feature; a row without a bind takes
the form's parameters too. The sixteen rows no form fits name a bespoke
evaluator. A PairwiseMeasureSpec checks its name and parameters when
built, the latter by specificity.resolve_params, the one check that forms
and estimators share. Measures that count shortest paths refuse a taxonomy
with redundant edges because those shortcuts silently underestimate
distances; pass allow_unreduced=True to study that effect.
abstract_form assembles a form row from a form and a pair FEATURES key,
and instantiate names one: an abstract form, whose theta must be
monotone. eval_pairwise (eval_abstract) scores one pair; a batch goes
through one pair_scorer, which equals it on every pair and does per-class
work once per class. jc_hybrid sums the terms of its walks as differences
of exact per-class prefix sums along the view's chains, read from a table
that the spec holds for each view it scores on, built on its first
jc_hybrid call there: a term depends only on the edge, theta and the three
parameters.

Notes on the few places where published equations needed a decision:
  - slimani and wang_dca follow the equations as published even though
    they exceed the [0, 1] range sometimes claimed for them, so they are
    declared unnormalized here.
  - psec can go negative when IC(u) + IC(v) > 3 IC(MICA); raw values are
    reported, never clamped.
  - rel_schlicker recovers the MICA probability as exp(-theta), exact for
    log-probability ICs and a monotone proxy for the normalized ones.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field, replace
from itertools import chain
from typing import Callable, Mapping

from .errors import (
    ContractError,
    DegenerateTaxonomyError,
    InfinityError,
    RedundancyError,
    UsageError,
)
from .graph import NodeId, TaxonomyView
from .specificity import ClassUsage, ParamSpec, ThetaEstimator, resolve_params
from .unify import FEATURES, FORMS, MeasureValue, Polarity


class ConversionRule(enum.Enum):
    ONE_MINUS = "one_minus"
    RATIO = "ratio"
    NEG_LOG = "neg_log"
    RECIPROCAL = "reciprocal"


@dataclass(frozen=True)
class MeasureInfo:
    polarity: Polarity
    normalized: bool
    params: Mapping[str, ParamSpec] = field(default_factory=dict)
    needs_theta: bool = False
    needs_usage: bool = False
    path_based: bool = False
    ioi: bool = False
    # identity of the indiscernibles degenerates on zero-theta classes
    root_degenerate: bool = False
    # symmetric(*args): whether the values are symmetric in u and v at the
    # spec's args; a form row's is its form's
    symmetric: Callable[..., bool] = lambda *args: True
    # a form over a pair feature that reads theta: theta must be bound and monotone
    monotone: bool = False
    # a bespoke row: evaluate(spec, taxonomy, u, v)
    evaluate: Callable[..., MeasureValue] | None = None
    # a bespoke row whose per-pair reads a pair scorer batches (the depth
    # triple, the instance counts of u, v and a constraining ancestor, or
    # those of u and v alone): the pair function that evaluate calls for
    # them, and whose result evaluate also takes as a fifth argument to skip
    # that call
    anchor: Callable | None = None
    # a form row: feature(spec, taxonomy, u, v), a FEATURES function, gives
    # (f_u, f_v, f_shared); bind maps the measure's parameters to the form's
    feature: Callable | None = None
    form: str | None = None
    bind: Callable[[Mapping[str, float]], Mapping[str, float]] | None = None


@dataclass(frozen=True)
class PairwiseMeasureSpec:
    name: str
    params: tuple[tuple[str, float], ...] = ()
    theta: ThetaEstimator | None = None
    usage: ClassUsage | None = None
    # an abstract form: its FEATURES key, its name being its FORMS kind, and
    # the estimator family of its classic reading (see _NAMED)
    feature: str | None = None
    theta_hint: str | None = None
    # dispatch resolved once here, so evaluation looks nothing up: a form
    # row's kernel and its arguments, or a bespoke row's parameters in
    # catalog order
    info: MeasureInfo = field(init=False, repr=False, compare=False)
    kernel: Callable[..., MeasureValue] | None = field(init=False, repr=False, compare=False)
    args: tuple[float, ...] = field(init=False, repr=False, compare=False)
    # jc_hybrid's chain sums: {view: table}, one table for each view the
    # spec scores on, built on its first jc_hybrid call there
    terms: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.feature is None:
            info = MEASURES.get(self.name)
            if info is None:
                known = ", ".join(sorted(MEASURES))
                raise ContractError(f"unknown measure {self.name!r}; known measures: {known}")
        elif self.name not in FORMS:
            raise ContractError(f"unknown abstract form {self.name!r}; known: {', '.join(FORMS)}")
        elif self.feature not in FEATURES:
            raise ContractError(f"unknown feature {self.feature!r}; known: {', '.join(FEATURES)}")
        else:
            _, reads_theta, group = FEATURES[self.feature]
            info = _form_row(self.feature, self.name, monotone=reads_theta and not group)
        values = resolve_params(self.name, info.params, dict(self.params))
        if info.form is None:
            kernel, args = None, tuple(values.values())
        else:
            form = FORMS[info.form]
            bound = resolve_params(info.form, form.params, info.bind(values))
            kernel, args = form.kernel, tuple(bound.values())
        object.__setattr__(self, "params", tuple(sorted(values.items())))
        object.__setattr__(self, "info", info)
        object.__setattr__(self, "kernel", kernel)
        object.__setattr__(self, "args", args)

    def with_theta(self, theta: ThetaEstimator) -> "PairwiseMeasureSpec":
        return replace(self, theta=theta)


def pairwise_measure(
    name: str,
    theta: ThetaEstimator | None = None,
    usage: ClassUsage | None = None,
    **params: float,
) -> PairwiseMeasureSpec:
    """A catalog row's spec, which checks the name and parameters itself;
    here a row that reads theta or class usage must also be given it."""
    spec = PairwiseMeasureSpec(name, tuple(params.items()), theta, usage)
    if spec.info.needs_theta and theta is None:
        raise ContractError(f"measure {name!r} needs a specificity estimator")
    if spec.info.needs_usage and usage is None:
        raise ContractError(f"measure {name!r} needs class usage statistics")
    return spec


def is_symmetric(spec: PairwiseMeasureSpec) -> bool:
    """Whether the spec's values are symmetric in u and v: a form row's
    form decides on its bound arguments, a bespoke row on its parameters."""
    return spec.info.symmetric(*spec.args)


# -- evaluation helpers ------------------------------------------------------

SIM, DIST = Polarity.SIMILARITY, Polarity.DISTANCE


def _sim(value, normalized=True, degenerate=False):
    return MeasureValue(value, SIM, normalized, degenerate)


def _dist(value, normalized=False, degenerate=False):
    return MeasureValue(value, DIST, normalized, degenerate)


_general_dice = FORMS["general_dice"].kernel
_mica = FEATURES["mica_theta"].function
_salience = FEATURES["shared_ancestor_salience"].function
_ancestor_counts = FEATURES["ancestor_counts"].function
_depth_triple = FEATURES["depth_triple"].function


def _count(spec, t, c):
    """|I(c)|, which must not be 0."""
    n = spec.usage.count(c)
    if not n:
        raise UsageError(f"class {t.label(c)} has no instances")
    return n


# -- measure implementations -------------------------------------------------


def _eval_rada(spec, t, u, v):
    return _dist(float(t._via_ancestor(u, v, 0)))


def _eval_rada_sim(spec, t, u, v):
    return _sim(1.0 / (t._via_ancestor(u, v, 0) + 1.0))


def _eval_resnik_edge(spec, t, u, v):
    return _sim(2.0 * t.max_depth - t._via_ancestor(u, v, 0), normalized=False)


def _eval_leacock_chodorow(spec, t, u, v):
    if t.max_depth == 0:
        raise DegenerateTaxonomyError("leacock_chodorow needs max depth >= 1")
    # N counts the nodes on the joint path through the constraining ancestor
    n_nodes = t._via_ancestor(u, v, 0) + 1
    return _sim(-math.log(n_nodes / (2.0 * t.max_depth)), normalized=False)


def _eval_zhong(spec, t, u, v):
    (k,) = spec.args
    milestone = lambda c: 0.5 * k ** (-t._depth[c])
    a = t._deepest(t._anc[u] & t._anc[v])
    return _dist(2.0 * milestone(a) - milestone(u) - milestone(v), normalized=True)


def _eval_li(spec, t, u, v):
    alpha, beta = spec.args
    a = t._deepest(t._anc[u] & t._anc[v])
    sp = t._via_ancestor(u, v, 0)
    return _sim(math.exp(-alpha * sp) * math.tanh(beta * t._depth[a]))


def _eval_slimani(spec, t, u, v, triple=None):
    (lam,) = spec.args
    wp = _general_dice(*(triple or _depth_triple(spec, t, u, v)))
    du, dv = t._depth[u], t._depth[v]
    pf = (1.0 - lam) * (min(du, dv) - t.max_depth) + lam / (du + dv + 1.0)
    return _sim(wp.value * pf, normalized=False, degenerate=wp.degenerate)


def _eval_shenoy(spec, t, u, v):
    (lam,) = spec.args
    depth_sum = t._depth[u] + t._depth[v]
    if depth_sum == 0:
        return _sim(0.0, normalized=False, degenerate=True)
    walk = t._via_ancestor(u, v, 1)
    try:
        value = 2.0 * t.max_depth * math.exp(-lam * walk / t.max_depth) / depth_sum
    except OverflowError:
        value = math.inf
    if value == math.inf:
        raise InfinityError(f"shenoy of {t._labels[u]} and {t._labels[v]} overflows")
    return _sim(value, normalized=False)


def _eval_resnik(spec, t, u, v):
    # theta at the MICA only: u or v may have an undefined (zero-usage) IC
    return _sim(spec.theta(t._mica(spec.theta, t._anc[u] & t._anc[v])), normalized=False)


def _eval_rel_schlicker(spec, t, u, v):
    iu, iv, shared = _mica(spec, t, u, v)
    lin = _general_dice(iu, iv, shared)
    return _sim(lin.value * (1.0 - math.exp(-shared)), degenerate=lin.degenerate)


def _eval_wang_dca(spec, t, u, v):
    dcas = t._ncca(t._anc[u] & t._anc[v])
    stats_u = t._root_path_stats(u, dcas)
    stats_v = t._root_path_stats(v, dcas)
    depth = t._depth
    terms = []
    for a in dcas:
        nu, lu = stats_u[a]
        nv, lv = stats_v[a]
        if lu == 0 or lv == 0:
            return _sim(0.0, normalized=False, degenerate=True)
        mean_u = lu / nu
        mean_v = lv / nv
        terms.append(2.0 * depth[a] ** 2 / (mean_u * mean_v))
    return _sim(math.fsum(terms) / len(dcas), normalized=False)


def _eval_bulskov(spec, t, u, v):
    (alpha,) = spec.args
    nu, nv, common = _ancestor_counts(spec, t, u, v)
    return _sim(alpha * common / nu + (1.0 - alpha) * common / nv)


def _eval_sanchez_dist(spec, t, u, v):
    nu, nv, shared = _ancestor_counts(spec, t, u, v)
    distinct = nu + nv - 2 * shared
    # base-2 log is part of the published normalization, not the global flag
    return _dist(math.log2(1.0 + distinct / (distinct + shared)), normalized=True)


def _instance_counts(spec, t, u, v):
    """|I(u)| and |I(v)|, neither of them 0."""
    return _count(spec, t, u), _count(spec, t, v)


def _eval_jaccard_ext(spec, t, u, v, counts=None):
    nu, nv = counts or _instance_counts(spec, t, u, v)
    # |I(u) | I(v)| by inclusion-exclusion: no union is built
    shared = spec.usage.shared(u, v)
    return _sim(shared / (nu + nv - shared))


def _extension_counts(spec, t, u, v):
    """|I(u)|, |I(v)| and |I(a)|, none of them 0, for a the least-used
    (extensionally most informative) common ancestor of u and v."""
    a = min(t._anc[u] & t._anc[v], key=lambda c: (spec.usage.count(c), t._labels[c]))
    return _count(spec, t, u), _count(spec, t, v), _count(spec, t, a)


def _eval_damato_ext(spec, t, u, v, counts=None):
    nu, nv, na = counts or _extension_counts(spec, t, u, v)
    ratio = min(nu, nv) / na
    return _sim(ratio * (1.0 - na / spec.usage.total) * (1.0 - ratio))


def _jc_sums(spec, t):
    """jc_hybrid's table for view t, built along the view's order:
    (prefix, steps, step, scale). Every edge term is kept exactly, as
    an integer multiple of 1 / scale, scale being 2**K for K the largest
    denominator exponent among the view's terms. prefix[x] is the sum of
    the terms from x up to its chain top (0 at a top), so a walk from x up
    to a on x's chain sums prefix[x] - prefix[a]. A term that is not
    finite, or whose computation raises, counts as `fault`: any sum that
    holds one is out of float range once divided by scale, and a prefix
    difference cancels those above a. steps[x, a] is the step of the walk
    from x, a class with several parents, towards a and the term of that
    edge; step(x, a) fills it."""
    alpha, beta, weight = spec.args
    ic, depth, children, parents = spec.theta._table, t._depth, t._children, t._parents
    spread = (1.0 - beta) * (len(t.edges) / len(t.class_ids))  # times the mean density

    def term(x, p):
        """The term of the edge from x to its parent p: density times depth
        factor times IC difference, times the predicate weight; None where
        that is not finite or its computation raises."""
        density = beta + spread / len(children[p])
        # depth is taken one-based so the factor stays finite at the root
        d = depth[p] + 1
        try:
            value = density * ((d + 1.0) / d) ** alpha * (ic[x] - ic[p]) * weight
        except (KeyError, OverflowError):
            return None
        return value if math.isfinite(value) else None

    t._path_tables()  # the chain tops, which the walks read
    # the float term of each class with one parent, replaced by its prefix
    # below, and the bit length of the largest denominator of every term
    prefix, bits = {}, 1
    for x in t._order:
        ps = parents[x]
        for p in ps:
            value = term(x, p)
            if value is not None:
                bits = max(bits, value.as_integer_ratio()[1].bit_length())
        prefix[x] = value if len(ps) == 1 else 0
    scale = 1 << (bits - 1)
    # a sum of at most every edge's term, each below 2**1024 in magnitude,
    # stays under fault / 2**1025
    fault = scale << (1025 + len(t.edges).bit_length())

    def scaled(value):
        if value is None:
            return fault
        n, d = value.as_integer_ratio()
        return n << (bits - d.bit_length())

    for x, value in prefix.items():
        ps = parents[x]
        if len(ps) == 1:
            prefix[x] = prefix[ps[0]] + scaled(value)
    steps = {}

    def step(x, a):
        s = t._up_step(x, a)
        entry = steps[x, a] = s, scaled(term(x, s))
        return entry

    return prefix, steps, step, scale


def _eval_jc_hybrid(spec, t, u, v):
    theta, anc = spec.theta, t._anc
    a = t._mica(theta, anc[u] & anc[v])
    sums = spec.terms.get(t)
    if sums is None:
        sums = spec.terms[t] = _jc_sums(spec, t)
    prefix, steps, step, scale = sums
    tops = t._paths
    # u's walk: each chain it enters up to the chain's top and one step on,
    # until a's chain, where it stops at a. entered maps each chain top to
    # the class the walk entered its chain at.
    end = tops[a][0]
    entered = {}
    total = 0
    x = u
    while (top := tops[x][0]) != end:
        entered[top] = x
        s, term = steps.get((top, a)) or step(top, a)
        total += prefix[x] + term
        x = s
    entered[end] = x
    total += prefix[x] - prefix[a]
    # v's walk, the same until it enters a chain that u's walk entered at e.
    # There the two meet at m, the deepest class of A(x) & A(e), and u's sum
    # holds the rest, so the total is the sum over the union of the two edge
    # sets.
    x = v
    while (e := entered.get(top := tops[x][0])) is None:
        s, term = steps.get((top, a)) or step(top, a)
        total += prefix[x] + term
        x = s
    depth = t._depth
    m = e if e in anc[x] else x if x in anc[e] else max(anc[x] & anc[e], key=depth.__getitem__)
    total += prefix[x] - prefix[m]
    try:
        # one rounding of the exact sum, as math.fsum rounds it
        return _dist(total / scale)
    except OverflowError:
        pass
    # a term that is not finite, or an exact sum out of float range: the
    # reads of the edge set, once per class in order of first use, raise
    # naming an undefined class; past them, the sum overflows
    edges = set(t._up_path(u, a)) | set(t._up_path(v, a))
    theta.values(dict.fromkeys(chain.from_iterable(edges)))
    raise InfinityError(f"jc_hybrid of {t._labels[u]} and {t._labels[v]} overflows")


def _form_row(feature, form, bind=None, **flags) -> MeasureInfo:
    """A row that is the abstract form `form` applied to FEATURES[feature],
    taking polarity, normalization and symmetry from the form, needs_theta
    from the feature. bind maps the row's parameters to the form's; a row
    without it takes the form's parameters and passes them on."""
    function, needs_theta, _ = FEATURES[feature]
    shape = FORMS[form]
    if bind is None:
        bind, flags["params"] = (lambda p: p), shape.params
    return MeasureInfo(
        shape.polarity,
        shape.normalized,
        needs_theta=needs_theta,
        symmetric=shape.symmetric,
        feature=function,
        form=form,
        bind=bind,
        **flags,
    )


MEASURES: dict[str, MeasureInfo] = {
    # structural
    "rada": MeasureInfo(DIST, False, path_based=True, ioi=True, evaluate=_eval_rada),
    "rada_sim": MeasureInfo(SIM, True, path_based=True, ioi=True, evaluate=_eval_rada_sim),
    "resnik_edge": MeasureInfo(SIM, False, path_based=True, ioi=True, evaluate=_eval_resnik_edge),
    "leacock_chodorow": MeasureInfo(
        SIM, False, path_based=True, ioi=True, evaluate=_eval_leacock_chodorow
    ),
    "wu_palmer": _form_row(
        "depth_triple", "general_dice", path_based=True, ioi=True, root_degenerate=True
    ),
    "pekar_staab": _form_row(
        "depth_triple", "sigma_beta", lambda p: {"beta": 1.0},
        path_based=True, ioi=True, root_degenerate=True,
    ),
    "zhong": MeasureInfo(
        DIST, True, params={"k": ParamSpec(2.0, above=1.0)}, ioi=True, evaluate=_eval_zhong
    ),
    "li": MeasureInfo(
        SIM,
        True,
        params={"alpha": ParamSpec(0.2, lo=0.0), "beta": ParamSpec(0.6, above=0.0)},
        path_based=True,
        evaluate=_eval_li,
    ),
    "slimani": MeasureInfo(
        SIM,
        False,
        params={"lam": ParamSpec(1.0, choices=(0.0, 1.0))},
        path_based=True,
        root_degenerate=True,
        evaluate=_eval_slimani,
        anchor=_depth_triple,
    ),
    "shenoy": MeasureInfo(
        SIM,
        False,
        params={"lam": ParamSpec(1.0)},
        path_based=True,
        root_degenerate=True,
        evaluate=_eval_shenoy,
    ),
    # information theoretical
    "resnik": MeasureInfo(SIM, False, needs_theta=True, evaluate=_eval_resnik),
    "lin": _form_row("mica_theta", "general_dice", ioi=True, root_degenerate=True),
    "jiang_conrath": _form_row("mica_theta", "abstract_dist", ioi=True),
    "nunivers": _form_row(
        "mica_theta", "sigma_alpha", lambda p: {"alpha": math.inf}, ioi=True, root_degenerate=True
    ),
    "psec": _form_row(
        "mica_theta", "contrast", lambda p: {"gamma": 1.0, "alpha": 1.0, "beta": 1.0}
    ),
    "faith": _form_row(
        "mica_theta", "ratio", lambda p: {"alpha": 1.0, "beta": 1.0}, ioi=True, root_degenerate=True
    ),
    "rel_schlicker": MeasureInfo(SIM, True, needs_theta=True, evaluate=_eval_rel_schlicker),
    "sim_dic": _form_row(
        "shared_ancestor_salience", "general_dice", ioi=True, root_degenerate=True
    ),
    "jac_anc": _form_row(
        "shared_ancestor_salience", "sigma_beta", lambda p: {"beta": 1.0},
        ioi=True, root_degenerate=True,
    ),
    "lin_grasm": _form_row("ncca_mean", "general_dice", ioi=True, root_degenerate=True),
    "wang_dca": MeasureInfo(
        SIM, False, path_based=True, root_degenerate=True, evaluate=_eval_wang_dca
    ),
    # feature based
    "cmatch": _form_row("ancestor_counts", "sigma_beta", lambda p: {"beta": 1.0}, ioi=True),
    "dice_anc": _form_row("ancestor_counts", "general_dice", ioi=True),
    "bulskov": MeasureInfo(
        SIM,
        True,
        params={"alpha": ParamSpec(0.5, lo=0.0, hi=1.0)},
        ioi=True,
        symmetric=lambda alpha: alpha == 0.5,
        evaluate=_eval_bulskov,
    ),
    "rodriguez_egenhofer": _form_row(
        "ancestor_counts",
        "ratio",
        lambda p: {"alpha": p["gamma"], "beta": 1.0 - p["gamma"]},
        params={"gamma": ParamSpec(0.5, lo=0.0, hi=1.0)},
        ioi=True,
    ),
    "sanchez": MeasureInfo(DIST, True, ioi=True, evaluate=_eval_sanchez_dist),
    "tversky_ratio": _form_row("ancestor_counts", "ratio", ioi=True),
    "tversky_contrast": _form_row("ancestor_counts", "contrast"),
    "jaccard_ext": MeasureInfo(
        SIM, True, needs_usage=True, ioi=True, evaluate=_eval_jaccard_ext, anchor=_instance_counts
    ),
    "damato_ext": MeasureInfo(
        SIM, True, needs_usage=True, evaluate=_eval_damato_ext, anchor=_extension_counts
    ),
    # hybrid
    "jc_hybrid": MeasureInfo(
        DIST,
        False,
        params={
            "alpha": ParamSpec(0.0, lo=0.0),
            "beta": ParamSpec(1.0, lo=0.0, hi=1.0),
            "predicate_weight": ParamSpec(1.0, lo=0.0),
        },
        needs_theta=True,
        path_based=True,
        ioi=True,
        evaluate=_eval_jc_hybrid,
    ),
}


# -- abstract forms ----------------------------------------------------------


def abstract_form(
    kind: str,
    theta: ThetaEstimator | None = None,
    feature: str = "mica_theta",
    **params: float,
) -> PairwiseMeasureSpec:
    """FORMS[kind] applied to the pair feature FEATURES[feature], as a spec."""
    if feature not in FEATURES or FEATURES[feature].group:
        known = ", ".join(key for key, f in FEATURES.items() if not f.group)
        raise ContractError(f"{feature!r} is not a pair feature; known: {known}")
    return PairwiseMeasureSpec(kind, tuple(params.items()), theta, feature=feature)


def _named(kind: str, theta_hint: str | None = None, **params: float) -> PairwiseMeasureSpec:
    return replace(abstract_form(kind, **params), theta_hint=theta_hint)


# The theta_hint records the estimator family the classic reading uses: raw
# depth for the tree form of Wu and Palmer, an IC for Lin, Faith and the
# Jiang and Conrath distance.
_NAMED = {
    "lin": _named("general_dice", "ic"),
    "wu_palmer_tree": _named("general_dice", "depth"),
    "faith": _named("ratio", "ic", alpha=1.0, beta=1.0),
    "jiang_conrath": _named("abstract_dist", "ic"),
    "jaccard": _named("sigma_beta", beta=1.0),
    "dice": _named("sigma_beta", beta=2.0),
    "sokal_sneath": _named("sigma_beta", beta=0.5),
    "simpson": _named("sigma_alpha", alpha=-math.inf),
    "ochiai": _named("sigma_alpha", alpha=0.0),
}
# aliases share their canonical row, theta_hint included
_NAMED["wupalmertree"] = _NAMED["wu_palmer_tree"]
_NAMED["jiangconrathdist"] = _NAMED["jiang_conrath"]
_NAMED["sokalsneath"] = _NAMED["sokal_sneath"]


def instantiate(name: str) -> PairwiseMeasureSpec:
    """Named concrete bindings; the theta slot stays open for the caller."""
    form = _NAMED.get(name.lower())
    if form is None:
        raise ContractError(f"unknown instantiation {name!r}; known: {', '.join(sorted(_NAMED))}")
    return form


def check_theta(theta: ThetaEstimator | None) -> None:
    """Raise ContractError unless an abstract form's theta is bound and monotone."""
    if theta is None:
        raise ContractError("abstract form has no bound specificity estimator")
    if not theta.is_monotone:
        raise ContractError("bound specificity estimator is not monotone")


def _refuse_unreduced(spec, taxonomy, u=None, v=None):
    """Raise the RedundancyError of a path-based spec on a view with
    redundant edges; bound to the spec and view, it is a refused scorer."""
    offender = next(iter(taxonomy.redundant_edges))
    raise RedundancyError(
        f"taxonomy has redundant subClassOf edges "
        f"(e.g. {taxonomy.label(offender[0])} < {taxonomy.label(offender[1])}); "
        f"run the transitive reduction first, {spec.name} would "
        "underestimate distances"
    )


def eval_pairwise(
    spec: PairwiseMeasureSpec,
    taxonomy: TaxonomyView,
    u: NodeId,
    v: NodeId,
    allow_unreduced: bool = False,
) -> MeasureValue:
    """Evaluate one measure or abstract form on a pair of classes.

    An abstract form checks its theta first (check_theta). Path-based
    measures raise RedundancyError on a taxonomy that still carries
    redundant subClassOf edges unless allow_unreduced is set.
    """
    info = spec.info
    # check_theta's test inline: a call costs about 0.1 us a pair
    if info.monotone and (spec.theta is None or not spec.theta.is_monotone):
        check_theta(spec.theta)
    if info.path_based and not taxonomy.is_reduced and not allow_unreduced:
        _refuse_unreduced(spec, taxonomy)
    taxonomy._check(u)
    taxonomy._check(v)
    feature = info.feature
    if feature is None:
        return info.evaluate(spec, taxonomy, u, v)
    return spec.kernel(*feature(spec, taxonomy, u, v), *spec.args)


eval_abstract = eval_pairwise  # an abstract form is a spec: one entry point


# -- pair scorers ------------------------------------------------------------


# Each matrix feature takes a cell's anchor as min(A(u) & A(v), key=key),
# the key read once per class per call. Every key ends in the class label,
# so no two tie and the least does not depend on set order.


def _matrix_mica(spec, t):
    anc, labels = t._anc, t._labels
    # raw reads: an undefined IC ranks first, so theta(mica) raises wherever
    # t.mica does. The cache keeps values only, so a failing read fails again.
    raw, theta = spec.theta.raw, functools.cache(spec.theta.value)
    key = functools.cache(lambda c: (-raw(c), labels[c]))
    return lambda u, v: (theta(u), theta(v), theta(min(anc[u] & anc[v], key=key)))


def _matrix_salience(spec, t):
    anc, total = t._anc, spec.theta.sum
    # a sum cache keeps sums only, so a failing sum fails again
    closure_sum = functools.cache(lambda c: total(anc[c]))
    return lambda u, v: (closure_sum(u), closure_sum(v), total(anc[u] & anc[v]))


def _matrix_depth_triple(spec, t):
    anc, depth, labels, tables = t._anc, t._depth, t._labels, t._path_tables()
    key = functools.cache(lambda c: (-depth[c], labels[c]))

    def triple(u, v):
        a = min(anc[u] & anc[v], key=key)
        d = depth[a]
        return d + depth[u] - tables[u][2].get(a, d), d + depth[v] - tables[v][2].get(a, d), d

    return triple


def _matrix_instance_counts(spec, t):
    # a count cache keeps counts only, so a zero count raises on every call
    count = functools.cache(lambda c: _count(spec, t, c))
    return lambda u, v: (count(u), count(v))


def _matrix_extension_counts(spec, t):
    anc, usage_count, labels = t._anc, spec.usage.count, t._labels
    count = functools.cache(lambda c: _count(spec, t, c))
    key = functools.cache(lambda c: (usage_count(c), labels[c]))
    return lambda u, v: (count(u), count(v), count(min(anc[u] & anc[v], key=key)))


# a pair feature or anchor -> (spec, taxonomy) -> its (u, v) function for one
# pair scorer, equal to the scalar one on every pair
_BATCHED = {
    _mica: _matrix_mica,
    _salience: _matrix_salience,
    _depth_triple: _matrix_depth_triple,
    _instance_counts: _matrix_instance_counts,
    _extension_counts: _matrix_extension_counts,
}


def pair_scorer(
    spec: PairwiseMeasureSpec, taxonomy: TaxonomyView, allow_unreduced: bool = False
) -> Callable[[NodeId, NodeId], MeasureValue]:
    """(u, v) -> eval_pairwise(spec, taxonomy, u, v, allow_unreduced), errors
    included, except that an abstract form's theta is checked once, here.
    It keeps per-class work for its life: each class's anchor key (theta,
    depth or usage count, then label) is computed on first read and each
    theta read, summed theta over A(c) or instance count that succeeds is
    cached, at most one entry per class."""
    t, info = taxonomy, spec.info
    if info.monotone:
        check_theta(spec.theta)
    if info.path_based and not t.is_reduced and not allow_unreduced:
        return functools.partial(_refuse_unreduced, spec, t)
    feature = info.feature
    if feature is not None:
        batched, kernel, args = _BATCHED.get(feature), spec.kernel, spec.args
        feature = batched(spec, t) if batched else functools.partial(feature, spec, t)
        cell = lambda u, v: kernel(*feature(u, v), *args)
    elif info.anchor is not None:
        evaluate, anchor = info.evaluate, _BATCHED[info.anchor](spec, t)
        cell = lambda u, v: evaluate(spec, t, u, v, anchor(u, v))
    else:
        cell = functools.partial(info.evaluate, spec, t)
    classes = t.class_ids

    def score(u, v):
        if u in classes and v in classes:
            return cell(u, v)
        t._check(u)  # one of them is unknown: raise what eval_pairwise raises
        t._check(v)

    return score


def convert(mv: MeasureValue, target: Polarity, rule: ConversionRule) -> MeasureValue:
    """Distance/similarity conversions: 1-s, (1-s)/s, -ln s and 1/(d+1)."""
    if rule is ConversionRule.RECIPROCAL:
        if mv.polarity is not Polarity.DISTANCE or target is not Polarity.SIMILARITY:
            raise ContractError("reciprocal converts a distance to a similarity")
        return MeasureValue(1.0 / (mv.value + 1.0), Polarity.SIMILARITY, True, mv.degenerate)
    if mv.polarity is not Polarity.SIMILARITY or not mv.normalized:
        raise ContractError(f"{rule.value} needs a normalized similarity input")
    if target is not Polarity.DISTANCE:
        raise ContractError(f"{rule.value} produces a distance")
    if rule is ConversionRule.ONE_MINUS:
        return MeasureValue(1.0 - mv.value, Polarity.DISTANCE, True, mv.degenerate)
    if rule is ConversionRule.RATIO:
        if mv.value == 0:
            raise InfinityError("ratio conversion of zero similarity is infinite")
        return MeasureValue((1.0 - mv.value) / mv.value, Polarity.DISTANCE, False, mv.degenerate)
    if rule is ConversionRule.NEG_LOG:
        if mv.value == 0:
            raise InfinityError("neg-log of zero similarity is infinite")
        return MeasureValue(-math.log(mv.value), Polarity.DISTANCE, False, mv.degenerate)
    raise ContractError(f"unknown conversion rule {rule!r}")
