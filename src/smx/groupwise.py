"""Similarity between two sets of classes.

DIRECT maps each direct measure to its form spec over a group feature of
unify.FEATURES: all three are set-overlap ratios over the ancestor
closures of the two sets (Pesquita et al. 2009), so reduced annotation
sets are fine. STRATEGIES maps each aggregation to its value on the
pairwise score matrix of the sets as given, which is why callers should
reduce annotation sets first. One pairwise.pair_scorer per spec and view
fills every matrix, so each class's anchor key is computed and each theta
read cached once per spec and view. The direct measures take any theta,
monotone or not, union the ancestor closures of each set, in id order,
and sum theta over a closure with one bulk read, ThetaEstimator.sum.
A GroupwiseMeasureSpec checks itself when built; groupwise_measure is
another name for it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable

from .errors import ContractError
from .graph import NodeId, TaxonomyView
from .pairwise import (
    MeasureValue,
    PairwiseMeasureSpec,
    Polarity,
    pair_scorer,
)
from .specificity import ThetaEstimator

# direct measure -> its form, with its parameters, over the group feature it reads
DIRECT = {
    "simui": PairwiseMeasureSpec("sigma_beta", (("beta", 1.0),), feature="closure_counts"),
    "nto": PairwiseMeasureSpec("sigma_alpha", (("alpha", -math.inf),), feature="closure_counts"),
    "simgic": PairwiseMeasureSpec("sigma_beta", (("beta", 1.0),), feature="closure_theta"),
}


def _mean(mean: float, cells: Iterable[float]) -> float:
    """mean, the float sum of cells over their count, clamped to the cells'
    range, which its rounding can leave by an ulp. Where that sum overflowed
    on finite cells, the mean is first taken again over the cells scaled by
    2**-k, 2**k >= twice their count, so that no partial sum leaves float
    range. A NaN or infinite mean of non-finite cells stays as it is."""
    cells = list(cells)
    if not math.isfinite(mean) and all(map(math.isfinite, cells)):
        k = len(cells).bit_length() + 1
        mean = sum(math.ldexp(c, -k) for c in cells) / len(cells) * 2.0**k
    return min(max(mean, min(cells)), max(cells))


def _row_max_mean(matrix) -> float:
    maxima = list(map(max, matrix))
    return _mean(sum(maxima) / len(maxima), maxima)


def _bma(matrix) -> float:
    forward, backward = _row_max_mean(matrix), _row_max_mean(list(zip(*matrix)))
    return _mean((forward + backward) / 2.0, (forward, backward))


# aggregation -> its value on the |U| x |V| score matrix; avgmax, bmm and
# bma take the mean best match of the rows (forward) and of the columns
STRATEGIES = {
    "avg": lambda m: _mean(sum(map(sum, m)) / (len(m) * len(m[0])), itertools.chain(*m)),
    "max": lambda m: max(map(max, m)),
    "min": lambda m: min(map(min, m)),
    "avgmax": _row_max_mean,
    "bmm": lambda m: max(_row_max_mean(m), _row_max_mean(list(zip(*m)))),
    "bma": _bma,
}
# strategies whose semantics invert on distances
_SIM_ONLY = ("max", "min", "avgmax", "bmm", "bma")


@dataclass(frozen=True)
class GroupwiseMeasureSpec:
    name: str
    inner: PairwiseMeasureSpec | None = None
    theta: ThetaEstimator | None = None
    # an aggregation's pair scorers: {(view, allow_unreduced): scorer},
    # each built on the spec's first call there
    scorers: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.name in DIRECT:
            if DIRECT[self.name].info.needs_theta and self.theta is None:
                raise ContractError(f"{self.name} needs a specificity estimator")
        elif self.name in STRATEGIES:
            if self.inner is None:
                raise ContractError(f"aggregation {self.name!r} needs an inner pairwise measure")
            if self.name in _SIM_ONLY and self.inner.info.polarity is not Polarity.SIMILARITY:
                raise ContractError(
                    f"aggregation {self.name!r} needs a similarity-polarity inner measure"
                )
        else:
            raise ContractError(
                f"unknown groupwise measure {self.name!r}; "
                f"known: {', '.join((*DIRECT, *STRATEGIES))}"
            )


groupwise_measure = GroupwiseMeasureSpec  # a spec checks itself: one constructor


def eval_groupwise(
    spec: GroupwiseMeasureSpec,
    taxonomy: TaxonomyView,
    group_u: Iterable[NodeId],
    group_v: Iterable[NodeId],
    allow_unreduced: bool = False,
) -> MeasureValue:
    """Evaluate a direct or aggregated groupwise measure on two class sets."""
    us, vs = set(group_u), set(group_v)
    if not us or not vs:
        raise ContractError("groupwise measures need non-empty class sets")

    form = DIRECT.get(spec.name)
    if form is not None:
        return form.kernel(*form.info.feature(spec, taxonomy, us, vs), *form.args)

    # in id order, as the direct features order their groups, so the sums
    # and the first failing cell do not depend on the order of the groups
    us, vs = sorted(us), sorted(vs)
    inner, key = spec.inner, (taxonomy, allow_unreduced)
    score = spec.scorers.get(key)
    if score is None:
        score = spec.scorers[key] = pair_scorer(inner, taxonomy, allow_unreduced)
    matrix = [[score(u, v).value for v in vs] for u in us]
    return MeasureValue(STRATEGIES[spec.name](matrix), inner.info.polarity, inner.info.normalized)
