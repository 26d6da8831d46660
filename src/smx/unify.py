"""Abstract measure forms and the one table of features they apply to.

Each form is one kernel over a feature triple (f(U), f(V), f(U and V)).
FEATURES holds every feature, called as feature(spec, taxonomy, u, v),
over two classes (theta at the MICA or summed over shared ancestors;
ancestor counts; the depth triple; the NCCA mean) or over the ancestor
closures of two class sets. With theta = raw depth the forms collapse to
the classic structural measures on trees, with theta = IC to the
information theoretical ones. A pairwise form row, from the catalog or
assembled by pairwise.abstract_form, and the direct groupwise measures
evaluate by these kernels.
Each form declares its parameters as ParamSpecs, checked by the one
specificity.resolve_params that measures and estimators also use, and
when its values are symmetric: ratio and contrast exactly when alpha ==
beta, the others always. A form value that is not finite (out of float
range, or NaN) raises InfinityError naming the form and its features.
"""

from __future__ import annotations

import enum
import math
import sys
from math import isfinite
from dataclasses import dataclass, field
from typing import Callable, Mapping, NamedTuple

from .errors import ContractError, InfinityError
from .graph import NodeId, TaxonomyView
from .specificity import ParamSpec


class Polarity(enum.Enum):
    SIMILARITY = "similarity"
    DISTANCE = "distance"


class MeasureValue(NamedTuple):
    """One score and its flags. Immutable; being a tuple, it unpacks and
    compares equal to the plain 4-tuple of its fields."""

    value: float
    polarity: Polarity
    normalized: bool
    degenerate: bool = False


# -- features: (f_u, f_v, f_shared) of two classes or two class sets --------


def _mica(spec, t: TaxonomyView, u: NodeId, v: NodeId):
    """theta of both classes and of their most informative common ancestor.
    The MICA is ranked by raw values, where an undefined IC ranks first, so
    the reads fail at u, v or the MICA, in that order, as in a score matrix."""
    theta = spec.theta
    return theta.values((u, v, t._mica(theta.raw, t._anc[u] & t._anc[v])))


def _salience(spec, t: TaxonomyView, u: NodeId, v: NodeId):
    """Summed theta over A(u), A(v) and A(u) & A(v). math.fsum rounds each
    sum once, so it depends on the set alone, not on its iteration order."""
    total = spec.theta.sum
    au, av = t._anc[u], t._anc[v]
    return total(au), total(av), total(au & av)


def _ancestor_counts(spec, t: TaxonomyView, u: NodeId, v: NodeId):
    """|A(u)|, |A(v)| and |A(u) & A(v)|."""
    au, av = t._anc[u], t._anc[v]
    return len(au), len(av), len(au & av)


def _depth_triple(spec, t: TaxonomyView, u: NodeId, v: NodeId):
    """Longest root paths of u and v through their deepest common ancestor,
    and the depth of that ancestor."""
    a = t._deepest(t._anc[u] & t._anc[v])
    depth, tables = t._depth, t._path_tables()
    d = depth[a]
    return d + depth[u] - tables[u][2].get(a, d), d + depth[v] - tables[v][2].get(a, d), d


def _ncca_mean(spec, t: TaxonomyView, u: NodeId, v: NodeId):
    """theta of both classes and mean theta over their disjoint common ancestors."""
    theta = spec.theta
    dcas = t._ncca(t._anc[u] & t._anc[v])
    return theta(u), theta(v), theta.sum(dcas) / len(dcas)


def _closures(t: TaxonomyView, us, vs):
    """C(U) and C(V), C(U) the union of A(u) over U merged in id order, on
    which its iteration order, and so the class a failing theta read names,
    depends. An unknown class raises the UnknownNodeError of t.ancestors
    for the least such id of U, else of V."""
    us, vs = sorted(us), sorted(vs)
    known, anc = t.class_ids.issuperset, t._anc
    if not (known(us) and known(vs)):
        for c in us + vs:
            t._check(c)
    return set().union(*map(anc.__getitem__, us)), set().union(*map(anc.__getitem__, vs))


def _closure_counts(spec, t: TaxonomyView, us, vs):
    """|C(U)|, |C(V)| and |C(U) & C(V)|."""
    cu, cv = _closures(t, us, vs)
    return len(cu), len(cv), len(cu & cv)


def _closure_theta(spec, t: TaxonomyView, us, vs):
    """Summed theta over C(U), C(V) and C(U) & C(V), each by math.fsum."""
    total = spec.theta.sum
    cu, cv = _closures(t, us, vs)
    return total(cu), total(cv), total(cu & cv)


class Feature(NamedTuple):
    """A feature function, whether it reads spec.theta and whether it takes two class sets."""

    function: Callable
    needs_theta: bool
    group: bool = False


FEATURES: dict[str, Feature] = {
    # pair features
    "mica_theta": Feature(_mica, True),
    "shared_ancestor_salience": Feature(_salience, True),
    "ancestor_counts": Feature(_ancestor_counts, False),
    "depth_triple": Feature(_depth_triple, False),
    "ncca_mean": Feature(_ncca_mean, True),
    # group features over the ancestor closures of two class sets
    "closure_counts": Feature(_closure_counts, False, group=True),
    "closure_theta": Feature(_closure_theta, True, group=True),
}


# -- kernels: one per form ---------------------------------------------------

_SIM, _DIST = Polarity.SIMILARITY, Polarity.DISTANCE
_DEGENERATE = MeasureValue(0.0, _SIM, True, degenerate=True)


def _power_mean(a: float, b: float, alpha: float) -> float:
    """Power mean of order alpha; the alpha = 0 case is the geometric mean
    by continuity and the infinite orders are min and max. A finite order
    needs a and b >= 0.

    A finite order takes the mean as dominant * exp(e), with e =
    log1p(expm1(alpha * log(other / dominant)) / 2) / alpha (Higham,
    "Accuracy and Stability of Numerical Algorithms", 2002, sections 1.14
    and 3.4): no step leaves float range, and orders near 0 keep their
    precision.
    """
    if math.isinf(alpha):
        return min(a, b) if alpha < 0 else max(a, b)
    if alpha == 0.0:
        return math.sqrt(a * b)
    # the operand that dominates the mean: the smaller for alpha < 0
    other, dominant = sorted((a, b), reverse=alpha < 0)
    if dominant == 0.0:
        return 0.0
    # log(other / dominant), from the two logs where the ratio leaves the
    # normal range, and -inf at other == 0, so that alpha * log_ratio <= 0
    ratio = other / dominant
    if other == 0.0:
        log_ratio = -math.inf
    elif sys.float_info.min <= ratio < math.inf:
        log_ratio = math.log(ratio)
    else:
        log_ratio = math.log(other) - math.log(dominant)
    scaled = alpha * log_ratio
    # below 1e-16, e equals its limit log_ratio / 2 (the geometric mean) to
    # the last bit, while a subnormal alpha * log_ratio would lose bits
    if abs(scaled) < 1e-16:
        e = log_ratio / 2.0
    else:
        e = math.log1p(math.expm1(scaled) / 2.0) / alpha
    if abs(e) < 700.0:
        return dominant * math.exp(e)
    return math.exp(e + math.log(dominant))  # exp(e) alone leaves float range


def _not_finite(form, value, f_u, f_v, f_shared):
    return InfinityError(
        f"{form} of ({f_u!r}, {f_v!r}, {f_shared!r}) is {value}, not a finite number"
    )


def _abstract_dist(f_u, f_v, f_shared):
    value = f_u + f_v - 2.0 * f_shared
    if isfinite(value):
        return MeasureValue(value, _DIST, False)
    raise _not_finite("abstract_dist", value, f_u, f_v, f_shared)


def _general_dice(f_u, f_v, f_shared):
    if f_u + f_v == 0:
        return _DEGENERATE
    value = 2.0 * f_shared / (f_u + f_v)
    if isfinite(value):
        return MeasureValue(value, _SIM, True)
    raise _not_finite("general_dice", value, f_u, f_v, f_shared)


def _sigma_alpha(f_u, f_v, f_shared, alpha):
    if (f_u < 0 or f_v < 0) and not math.isinf(alpha):
        raise ContractError(
            f"sigma_alpha of order {alpha!r} is not defined on a negative operand: "
            f"({f_u!r}, {f_v!r}, {f_shared!r})"
        )
    den = _power_mean(f_u, f_v, alpha)
    if den == 0:
        return _DEGENERATE
    value = f_shared / den
    if isfinite(value):
        return MeasureValue(value, _SIM, True)
    raise _not_finite("sigma_alpha", value, f_u, f_v, f_shared)


def _sigma_beta(f_u, f_v, f_shared, beta):
    den = f_u + f_v + (beta - 2.0) * f_shared
    if den == 0:
        return _DEGENERATE
    value = beta * f_shared / den
    if isfinite(value):
        return MeasureValue(value, _SIM, True)
    raise _not_finite("sigma_beta", value, f_u, f_v, f_shared)


def _ratio(f_u, f_v, f_shared, alpha, beta):
    den = alpha * (f_u - f_shared) + beta * (f_v - f_shared) + f_shared
    if den == 0:
        return _DEGENERATE
    value = f_shared / den
    if isfinite(value):
        return MeasureValue(value, _SIM, True)
    raise _not_finite("ratio", value, f_u, f_v, f_shared)


def _contrast(f_u, f_v, f_shared, gamma, alpha, beta):
    value = gamma * f_shared - alpha * (f_u - f_shared) - beta * (f_v - f_shared)
    if isfinite(value):
        return MeasureValue(value, _SIM, False)
    raise _not_finite("contrast", value, f_u, f_v, f_shared)


@dataclass(frozen=True)
class Form:
    """A kernel, the flags of its values, its parameters in kernel argument
    order, and symmetric(*args): whether its values are symmetric in u and
    v at those arguments."""

    kernel: Callable[..., MeasureValue]
    polarity: Polarity
    normalized: bool
    params: Mapping[str, ParamSpec] = field(default_factory=dict)
    symmetric: Callable[..., bool] = lambda *args: True


_WEIGHT = ParamSpec(1.0, lo=0.0)

FORMS: dict[str, Form] = {
    "abstract_dist": Form(_abstract_dist, _DIST, False),
    "general_dice": Form(_general_dice, _SIM, True),
    # the infinite orders of sigma_alpha are min and max
    "sigma_alpha": Form(_sigma_alpha, _SIM, True, {"alpha": ParamSpec(0.0, infinite=True)}),
    "sigma_beta": Form(_sigma_beta, _SIM, True, {"beta": ParamSpec(2.0, above=0.0)}),
    # Tversky's models are symmetric exactly when alpha == beta
    "ratio": Form(
        _ratio, _SIM, True, {"alpha": _WEIGHT, "beta": _WEIGHT}, lambda alpha, beta: alpha == beta
    ),
    "contrast": Form(
        _contrast, _SIM, False, {"gamma": _WEIGHT, "alpha": _WEIGHT, "beta": _WEIGHT},
        lambda gamma, alpha, beta: alpha == beta,
    ),
}
