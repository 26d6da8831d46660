"""Abstract measure forms parameterized by a specificity function and a
commonality rule, with named instantiations.

Each form is one kernel over a feature triple (f(U), f(V), f(U and V)).
The shared-feature mass f(U and V) is either the theta of the ancestor
maximizing theta (mica rule) or the summed theta over all shared
ancestors (salience rule); differences follow as f(U) - f(U and V). With
theta = raw depth the forms collapse to the classic structural measures
on trees, with theta = IC to the information theoretical ones. The
pairwise catalog evaluates its form-backed measures through the same
kernels.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple

from .errors import ContractError
from .graph import NodeId, TaxonomyView
from .specificity import ThetaEstimator


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


class Commonality(enum.Enum):
    MICA_THETA = "mica_theta"
    SHARED_ANCESTOR_SALIENCE = "shared_ancestor_salience"


# -- features: (f_u, f_v, f_shared) of a class pair --------------------------


def mica_feature(theta, t: TaxonomyView, u: NodeId, v: NodeId):
    """theta of both classes and of their most informative common ancestor."""
    a = t.mica(theta, u, v)
    return theta(u), theta(v), theta(a)


def salience_feature(theta, t: TaxonomyView, u: NodeId, v: NodeId):
    """Summed theta over A(u), A(v) and A(u) & A(v). math.fsum rounds each
    sum once, so it depends on the set alone, not on its iteration order."""
    au, av = t.ancestors(u), t.ancestors(v)
    return math.fsum(map(theta, au)), math.fsum(map(theta, av)), math.fsum(map(theta, au & av))


_FEATURES = {
    Commonality.MICA_THETA: mica_feature,
    Commonality.SHARED_ANCESTOR_SALIENCE: salience_feature,
}


# -- kernels: one per form ---------------------------------------------------

_SIM, _DIST = Polarity.SIMILARITY, Polarity.DISTANCE
_DEGENERATE = MeasureValue(0.0, _SIM, True, degenerate=True)


def _power_mean(a: float, b: float, alpha: float) -> float:
    """Power mean of order alpha; the alpha = 0 case is the geometric mean
    by continuity and the infinite orders are min and max.

    Factoring out the dominant operand keeps extreme orders from
    overflowing float range.
    """
    if math.isinf(alpha):
        return min(a, b) if alpha < 0 else max(a, b)
    if alpha == 0.0:
        return math.sqrt(a * b)
    low, high = min(a, b), max(a, b)
    if alpha < 0:
        if low == 0.0:
            return 0.0
        ratio = (high / low) ** alpha  # in (0, 1]
        return low * ((1.0 + ratio) / 2.0) ** (1.0 / alpha)
    if high == 0.0:
        return 0.0
    ratio = (low / high) ** alpha  # in [0, 1]
    return high * ((1.0 + ratio) / 2.0) ** (1.0 / alpha)


def _abstract_dist(f_u, f_v, f_shared):
    return MeasureValue(f_u + f_v - 2.0 * f_shared, _DIST, False)


def _general_dice(f_u, f_v, f_shared):
    if f_u + f_v == 0:
        return _DEGENERATE
    return MeasureValue(2.0 * f_shared / (f_u + f_v), _SIM, True)


def _sigma_alpha(f_u, f_v, f_shared, alpha):
    den = _power_mean(f_u, f_v, alpha)
    if den == 0:
        return _DEGENERATE
    return MeasureValue(f_shared / den, _SIM, True)


def _sigma_beta(f_u, f_v, f_shared, beta):
    den = f_u + f_v + (beta - 2.0) * f_shared
    if den == 0:
        return _DEGENERATE
    return MeasureValue(beta * f_shared / den, _SIM, True)


def _ratio(f_u, f_v, f_shared, alpha, beta):
    den = alpha * (f_u - f_shared) + beta * (f_v - f_shared) + f_shared
    if den == 0:
        return _DEGENERATE
    return MeasureValue(f_shared / den, _SIM, True)


def _contrast(f_u, f_v, f_shared, gamma, alpha, beta):
    value = gamma * f_shared - alpha * (f_u - f_shared) - beta * (f_v - f_shared)
    return MeasureValue(value, _SIM, False)


@dataclass(frozen=True)
class Form:
    """A kernel, the flags of its values, its (name, default) parameters."""

    kernel: Callable[..., MeasureValue]
    polarity: Polarity
    normalized: bool
    params: tuple[tuple[str, float], ...] = ()


FORMS: dict[str, Form] = {
    "abstract_dist": Form(_abstract_dist, _DIST, False),
    "general_dice": Form(_general_dice, _SIM, True),
    "sigma_alpha": Form(_sigma_alpha, _SIM, True, (("alpha", 0.0),)),
    "sigma_beta": Form(_sigma_beta, _SIM, True, (("beta", 2.0),)),
    "ratio": Form(_ratio, _SIM, True, (("alpha", 1.0), ("beta", 1.0))),
    "contrast": Form(_contrast, _SIM, False, (("gamma", 1.0), ("alpha", 1.0), ("beta", 1.0))),
}


# -- abstract forms ----------------------------------------------------------


@dataclass(frozen=True)
class AbstractForm:
    kind: str
    params: tuple[tuple[str, float], ...] = ()
    theta: ThetaEstimator | None = None
    commonality: Commonality = Commonality.MICA_THETA
    theta_hint: str | None = None
    # dispatch resolved once here, so evaluation looks nothing up
    feature: Callable = field(init=False, repr=False, compare=False)
    kernel: Callable[..., MeasureValue] = field(init=False, repr=False, compare=False)
    args: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        form = FORMS[self.kind]
        values = dict(self.params)
        object.__setattr__(self, "feature", _FEATURES[self.commonality])
        object.__setattr__(self, "kernel", form.kernel)
        object.__setattr__(self, "args", tuple(values[name] for name, _ in form.params))

    def param(self, key: str) -> float:
        return dict(self.params)[key]

    def with_theta(self, theta: ThetaEstimator) -> "AbstractForm":
        return replace(self, theta=theta)


def abstract_form(
    kind: str,
    theta: ThetaEstimator | None = None,
    commonality: Commonality = Commonality.MICA_THETA,
    **params: float,
) -> AbstractForm:
    form = FORMS.get(kind)
    if form is None:
        raise ContractError(f"unknown abstract form {kind!r}; known: {', '.join(FORMS)}")
    values = {name: float(params.pop(name, default)) for name, default in form.params}
    if params:
        raise ContractError(f"{kind}: unknown parameters {sorted(params)}")
    if kind == "sigma_beta" and values["beta"] <= 0:
        raise ContractError("sigma_beta needs beta > 0")
    if kind in ("ratio", "contrast") and min(values.values()) < 0:
        raise ContractError(f"{kind} model needs {', '.join(values)} >= 0")
    return AbstractForm(kind, tuple(sorted(values.items())), theta, commonality)


def _named(kind: str, theta_hint: str | None = None, **params: float) -> AbstractForm:
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


def instantiate(name: str) -> AbstractForm:
    """Named concrete bindings; the theta slot stays open for the caller."""
    form = _NAMED.get(name.lower())
    if form is None:
        raise ContractError(f"unknown instantiation {name!r}; known: {', '.join(sorted(_NAMED))}")
    return form


def eval_abstract(form: AbstractForm, t: TaxonomyView, u: NodeId, v: NodeId) -> MeasureValue:
    """Evaluate an abstract form on a pair of classes."""
    theta = form.theta
    if theta is None:
        raise ContractError("abstract form has no bound specificity estimator")
    if not theta.is_monotone:
        raise ContractError("bound specificity estimator is not monotone")
    return form.kernel(*form.feature(theta, t, u, v), *form.args)
