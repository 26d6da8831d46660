"""Similarity between two sets of classes.

Direct measures work on the graphs induced by the ancestor closures of
the two sets, so passing reduced annotation sets is fine (the closure of
a set and of its true-path reduction coincide). Indirect measures
aggregate the pairwise score matrix of the sets as given, which is why
callers should reduce annotation sets first. The matrix is filled by one
pairwise.score_matrix call, which ranks each class's ancestors and builds
its longest-up table once per matrix rather than once per cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .errors import ContractError
from .graph import NodeId, TaxonomyView
from .pairwise import (
    MeasureValue,
    PairwiseMeasureSpec,
    Polarity,
    score_matrix,
)
from .specificity import ThetaEstimator

DIRECT = ("simui", "nto", "simgic")
STRATEGIES = ("avg", "max", "min", "avgmax", "bmm", "bma")
# strategies whose semantics invert on distances
_SIM_ONLY = ("max", "min", "avgmax", "bmm", "bma")


@dataclass(frozen=True)
class GroupwiseMeasureSpec:
    name: str
    inner: PairwiseMeasureSpec | None = None
    theta: ThetaEstimator | None = None


def groupwise_measure(
    name: str,
    inner: PairwiseMeasureSpec | None = None,
    theta: ThetaEstimator | None = None,
) -> GroupwiseMeasureSpec:
    if name in DIRECT:
        if name == "simgic" and theta is None:
            raise ContractError("simgic needs a specificity estimator")
        return GroupwiseMeasureSpec(name=name, theta=theta)
    if name in STRATEGIES:
        if inner is None:
            raise ContractError(f"aggregation {name!r} needs an inner pairwise measure")
        if name in _SIM_ONLY and inner.info.polarity is not Polarity.SIMILARITY:
            raise ContractError(
                f"aggregation {name!r} needs a similarity-polarity inner measure"
            )
        return GroupwiseMeasureSpec(name=name, inner=inner)
    raise ContractError(
        f"unknown groupwise measure {name!r}; "
        f"known: {', '.join(DIRECT + STRATEGIES)}"
    )


def _closure(taxonomy: TaxonomyView, classes: Iterable[NodeId]) -> frozenset:
    nodes: set[NodeId] = set()
    for c in classes:
        nodes |= taxonomy.ancestors(c)
    return frozenset(nodes)


def eval_groupwise(
    spec: GroupwiseMeasureSpec,
    taxonomy: TaxonomyView,
    group_u: Iterable[NodeId],
    group_v: Iterable[NodeId],
    allow_unreduced: bool = False,
) -> MeasureValue:
    """Evaluate a direct or aggregated groupwise measure on two class sets."""
    us = sorted(set(group_u))
    vs = sorted(set(group_v))
    if not us or not vs:
        raise ContractError("groupwise measures need non-empty class sets")

    if spec.name in DIRECT:
        cu = _closure(taxonomy, us)
        cv = _closure(taxonomy, vs)
        if spec.name == "simui":
            return MeasureValue(
                len(cu & cv) / len(cu | cv), Polarity.SIMILARITY, True
            )
        if spec.name == "nto":
            return MeasureValue(
                len(cu & cv) / min(len(cu), len(cv)), Polarity.SIMILARITY, True
            )
        # fsum: each mass depends on the set alone, not on its iteration order
        theta = spec.theta
        union_mass = math.fsum(map(theta, cu | cv))
        if union_mass == 0:
            return MeasureValue(0.0, Polarity.SIMILARITY, True, degenerate=True)
        shared_mass = math.fsum(map(theta, cu & cv))
        return MeasureValue(shared_mass / union_mass, Polarity.SIMILARITY, True)

    inner = spec.inner
    matrix = [
        [mv.value for mv in row] for row in score_matrix(inner, taxonomy, us, vs, allow_unreduced)
    ]
    normalized = inner.info.normalized
    polarity = inner.info.polarity

    if spec.name == "avg":
        total = sum(sum(row) for row in matrix)
        return MeasureValue(total / (len(us) * len(vs)), polarity, normalized)
    if spec.name == "max":
        return MeasureValue(max(max(row) for row in matrix), polarity, normalized)
    if spec.name == "min":
        return MeasureValue(min(min(row) for row in matrix), polarity, normalized)

    forward = sum(max(row) for row in matrix) / len(us)
    backward = sum(max(matrix[i][j] for i in range(len(us))) for j in range(len(vs))) / len(vs)
    if spec.name == "avgmax":
        return MeasureValue(forward, polarity, normalized)
    if spec.name == "bmm":
        return MeasureValue(max(forward, backward), polarity, normalized)
    return MeasureValue((forward + backward) / 2.0, polarity, normalized)
