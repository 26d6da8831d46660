"""Class specificity estimators (the theta family): depth variants and
information content, intrinsic and extrinsic.

Every estimator precomputes an immutable per-class table at bind time, so
evaluation is a lookup and concurrent reads are safe. `values` reads a
collection of classes in one pass over the table in C, and `sum` adds up
such a read, for the measures that sum theta over class sets; each falls
back to the per-class reads only to raise their error. A sum's outcome does
not depend on the order of its terms (see ThetaEstimator.sum). All shipped
estimators decrease monotonically from the leaves toward the root;
is_monotone checks a table on first use and keeps the answer, which a
racing first use computes equal.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Collection, Mapping

from .errors import (
    ContractError,
    DegenerateTaxonomyError,
    InfiniteICError,
    InfinityError,
    UnknownNodeError,
    UsageError,
)
from .graph import NodeId, TaxonomyView
from .ingest import AnnotationSet


@dataclass(frozen=True)
class ParamSpec:
    """A numeric parameter: its default and the values it admits."""

    default: float
    lo: float | None = None
    hi: float | None = None
    above: float | None = None  # an exclusive lower bound
    choices: tuple[float, ...] | None = None
    infinite: bool = False  # +inf and -inf admitted


def resolve_params(
    name: str, specs: Mapping[str, ParamSpec], given: Mapping[str, float]
) -> dict[str, float]:
    """{key: the given value or the default} over specs, in their order.
    The one parameter check of measures, forms and estimators: a value
    outside its spec or an unknown key is a ContractError naming `name`."""
    given = dict(given)
    resolved = {}
    for key, spec in specs.items():
        value = float(given.pop(key, spec.default))
        if value != value or (math.isinf(value) and not spec.infinite):
            raise ContractError(f"{name}: parameter {key} must not be {value}")
        if spec.choices is not None and value not in spec.choices:
            raise ContractError(f"{name}: parameter {key} must be one of {spec.choices}")
        if spec.lo is not None and value < spec.lo:
            raise ContractError(f"{name}: parameter {key} must be >= {spec.lo}")
        if spec.hi is not None and value > spec.hi:
            raise ContractError(f"{name}: parameter {key} must be <= {spec.hi}")
        if spec.above is not None and value <= spec.above:
            raise ContractError(f"{name}: parameter {key} must be > {spec.above}")
        resolved[key] = value
    if given:
        raise ContractError(f"{name}: unknown parameters {sorted(given)}")
    return resolved


def _to_bits(indices: list[int]) -> int:
    """The int whose set bits are indices, built in one pre-sized buffer."""
    buf = bytearray((max(indices) >> 3) + 1)
    for i in indices:
        buf[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(buf, "little")


class ClassUsage:
    """Per-class propagated instance sets: an instance counts for a class
    when one of its annotated classes is a descendant of it.

    Each I(c) is held as an int bitset, bit i standing for the i-th
    instance of the annotation set in its own order; the counts are taken
    once, at build time. `shared(u, v)` is one AND and a popcount.
    """

    __slots__ = ("total", "_bits", "_counts")

    def __init__(self, bits: dict[NodeId, int], total: int):
        self.total, self._bits = total, bits
        self._counts = {c: b.bit_count() for c, b in bits.items() if b}

    def count(self, c: NodeId) -> int:
        return self._counts.get(c, 0)

    def shared(self, u: NodeId, v: NodeId) -> int:
        """|I(u) & I(v)|."""
        bits = self._bits
        return (bits.get(u, 0) & bits.get(v, 0)).bit_count()


def class_usage(taxonomy: TaxonomyView, annotations: AnnotationSet) -> ClassUsage:
    """Propagate annotations through the taxonomy and count class usage.

    I(c) is the union of the instances annotated with c and I(x) over the
    children x of c, so a leaf holds its own instances only; bit i stands
    for the i-th instance of `annotations`, so nothing is sorted or named.
    Walking the inner classes in the view's order reversed puts every child
    before its parents, so each I(c) is built once from finished parts: one
    OR of bitsets per part rather than one insert per (instance, ancestor)
    pair. A class with one contributing part shares that part's int, and
    every zero-usage class holds 0.
    """
    assignments = annotations.assignments
    if not assignments:
        raise UsageError("empty annotation set: extrinsic estimators are undefined")
    class_ids = taxonomy.class_ids
    direct: dict[NodeId, list[int]] = {}
    for i, classes in enumerate(assignments.values()):
        if not class_ids.issuperset(classes):
            c = next(c for c in classes if c not in class_ids)
            raise UnknownNodeError(f"annotation class {c} is not in the taxonomy")
        for c in classes:
            direct.setdefault(c, []).append(i)
    bits = dict.fromkeys(class_ids, 0)
    for c, indices in direct.items():
        bits[c] = _to_bits(indices)
    children = taxonomy._children
    for c in reversed(taxonomy._order):
        if not children[c]:
            continue
        parts = [bits[x] for x in children[c] if bits[x]]
        if not parts:
            continue
        if bits[c]:
            parts.append(bits[c])
        bits[c] = functools.reduce(operator.or_, parts)
    return ClassUsage(bits, len(assignments))


class ThetaEstimator:
    """A named specificity function bound to one taxonomy.

    Values are precomputed; math.inf in the table marks classes whose
    extrinsic IC is undefined (zero usage) and raises at evaluation time.
    A NaN value is rejected: it has no place in the theta order that the
    MICA is taken in.
    """

    __slots__ = ("kind", "taxonomy", "_table", "_monotone")

    def __init__(self, kind, taxonomy, table):
        self.kind = kind
        self.taxonomy = taxonomy
        self._table = dict(table)
        self._monotone = None
        # the sum is NaN for a NaN value, or for +inf and -inf together
        total = sum(self._table.values())
        if total != total:
            for c, val in self._table.items():
                if val != val:
                    raise ContractError(f"theta of class {taxonomy.label(c)} is NaN")

    def value(self, c: NodeId) -> float:
        try:
            val = self._table[c]
        except KeyError:
            raise UnknownNodeError(f"node {c} is not a class of the bound taxonomy") from None
        if math.isinf(val):
            raise InfiniteICError(
                f"class {self.taxonomy.label(c)} has zero usage; "
                "select smooth=1 or exclude it"
            )
        return val

    # theta(c) is theta.value(c), with no extra frame per read
    __call__ = value

    def values(self, classes: Collection[NodeId]) -> list[float]:
        """[self(c) for c in classes], mapped over the table in C. A class
        missing from the table or an infinite value reruns the per-class
        reads, so the error raised names the class that they stop at."""
        try:
            vals = list(map(self._table.__getitem__, classes))
        except KeyError:
            vals = None
        if vals is None or math.inf in vals or -math.inf in vals:
            return list(map(self.value, classes))
        return vals

    def sum(self, classes: Collection[NodeId]) -> float:
        """math.fsum(self.values(classes)), summed over the table in C, so
        rounded once whatever the order of the terms. A missing class, an
        infinite value or an overflow reruns the per-class reads before
        summing, so the error raised is the one they raise. fsum raises
        OverflowError when a partial sum of finite values overflows, even
        where the exact sum is in range; then the same floats are summed
        exactly as fractions and rounded once. A sum that rounds out of
        float range raises InfinityError."""
        try:
            total = math.fsum(map(self._table.__getitem__, classes))
            if not math.isinf(total):
                return total
        except (KeyError, ValueError, OverflowError):
            pass
        vals = list(map(self.value, classes))
        try:
            return math.fsum(vals)
        except OverflowError:
            # imported on this path only: fractions and decimal take about 3 ms
            # of every CLI start-up
            from fractions import Fraction

            try:
                return float(sum(map(Fraction, vals)))
            except OverflowError:
                raise InfinityError(f"a sum of theta over {len(vals)} classes overflows") from None

    def raw(self, c: NodeId) -> float:
        """Table value without the infinite-IC guard."""
        return self._table[c]

    def defined(self, c: NodeId) -> bool:
        return c in self._table and not math.isinf(self._table[c])

    @property
    def is_monotone(self) -> bool:
        if self._monotone is None:
            self._monotone = not validate_monotonicity(self)
        return self._monotone

    @classmethod
    def from_table(cls, taxonomy, table, kind="custom"):
        missing = taxonomy.class_ids - set(table)
        if missing:
            raise UsageError(f"table misses {len(missing)} classes")
        extra = table.keys() - taxonomy.class_ids
        if extra:
            raise ContractError(f"table has {len(extra)} ids that are not classes")
        return cls(kind, taxonomy, table)


def _log(x: float, base: float | None) -> float:
    return math.log(x) if base is None else math.log(x, base)


def _check_base(base: float | None, kind: str) -> None:
    if base is not None and not (math.isfinite(base) and base > 0 and base != 1):
        raise ContractError(f"{kind}: log base must be finite, positive and not 1, got {base}")


def _require_nondegenerate(taxonomy: TaxonomyView, kind: str) -> None:
    if len(taxonomy.class_ids) < 2:
        raise DegenerateTaxonomyError(f"{kind} needs at least two classes")


def depth_theta(taxonomy: TaxonomyView, normalized: bool = True) -> ThetaEstimator:
    """Depth of the class; normalized divides by the taxonomy max depth."""
    maxd = taxonomy.max_depth
    if normalized:
        table = {c: (taxonomy.depth(c) / maxd if maxd else 0.0) for c in taxonomy.class_ids}
        return ThetaEstimator("depth", taxonomy, table)
    table = {c: float(taxonomy.depth(c)) for c in taxonomy.class_ids}
    return ThetaEstimator("depth_raw", taxonomy, table)


def nonlinear_depth_theta(taxonomy: TaxonomyView, base: float | None = None) -> ThetaEstimator:
    """Log-scaled depth; depth is shifted by one so the root stays finite."""
    _check_base(base, "depth_nonlinear")
    maxd = taxonomy.max_depth
    denom = _log(maxd + 1, base) if maxd else 1.0
    table = {
        c: (_log(taxonomy.depth(c) + 1, base) / denom if maxd else 0.0)
        for c in taxonomy.class_ids
    }
    return ThetaEstimator("depth_nonlinear", taxonomy, table)


def seco_ic(taxonomy: TaxonomyView, base: float | None = None) -> ThetaEstimator:
    """Intrinsic IC from the inclusive descendant count:
    1 - log|D(c)| / log|C|."""
    _check_base(base, "seco")
    _require_nondegenerate(taxonomy, "seco")
    log_n = _log(len(taxonomy.class_ids), base)
    counts = taxonomy.descendant_counts()
    table = {c: 1.0 - _log(counts[c], base) / log_n for c in taxonomy.class_ids}
    return ThetaEstimator("seco", taxonomy, table)


def zhou_ic(taxonomy: TaxonomyView, k: float = 0.6, base: float | None = None) -> ThetaEstimator:
    """Hybrid intrinsic IC mixing descendant count and nonlinear depth.

    The depth term is evaluated as log(depth+1)/log(max_depth+1): the bare
    log is undefined at the root and the shift preserves monotonicity.
    """
    if not 0.0 <= k <= 1.0:
        raise UsageError("zhou contribution factor k must be in [0, 1]")
    _check_base(base, "zhou")
    _require_nondegenerate(taxonomy, "zhou")
    seco = seco_ic(taxonomy, base)
    depth_part = nonlinear_depth_theta(taxonomy, base)
    table = {
        c: k * seco.raw(c) + (1.0 - k) * depth_part.raw(c) for c in taxonomy.class_ids
    }
    return ThetaEstimator("zhou", taxonomy, table)


def resnik_intrinsic_ic(taxonomy: TaxonomyView, base: float | None = None) -> ThetaEstimator:
    """Extrinsic Resnik IC under the convention that every class carries
    exactly one direct pseudo-instance, so p(c) = |D(c)| / |C|."""
    _check_base(base, "resnik_intrinsic")
    _require_nondegenerate(taxonomy, "resnik_intrinsic")
    n = len(taxonomy.class_ids)
    counts = taxonomy.descendant_counts()
    table = {c: _log(n, base) - _log(counts[c], base) for c in taxonomy.class_ids}
    return ThetaEstimator("resnik_intrinsic", taxonomy, table)


def sanchez_leaves_ic(taxonomy: TaxonomyView, base: float | None = None) -> ThetaEstimator:
    """Leaf-count IC: -log(|leaves subsumed by c| / |leaves|)."""
    _check_base(base, "sanchez")
    n_leaves = len(taxonomy.leaves)
    counts = taxonomy.descendant_counts(taxonomy.leaves)
    table = {c: _log(n_leaves, base) - _log(counts[c], base) for c in taxonomy.class_ids}
    return ThetaEstimator("sanchez", taxonomy, table)


def sanchez_refined_ic(taxonomy: TaxonomyView, base: float | None = None) -> ThetaEstimator:
    """Leaf-count IC corrected by the number of subsumers:
    -log((leaves(c)/|A(c)| + 1) / (|leaves| + 1))."""
    _check_base(base, "sanchez_refined")
    n_leaves = len(taxonomy.leaves)
    counts = taxonomy.descendant_counts(taxonomy.leaves)
    table = {}
    for c in taxonomy.class_ids:
        ratio = (counts[c] / len(taxonomy.ancestors(c)) + 1.0) / (n_leaves + 1.0)
        table[c] = -_log(ratio, base)
    return ThetaEstimator("sanchez_refined", taxonomy, table)


def _extrinsic(kind, taxonomy, usage, smooth, base):
    _check_base(base, kind)
    total = usage.total + (len(taxonomy.class_ids) if smooth else 0)
    # smoothing adds one pseudo-instance per class: |D(c)| more for c
    pseudo = taxonomy.descendant_counts() if smooth else None
    table = {}
    for c in taxonomy.class_ids:
        count = usage.count(c) + (pseudo[c] if smooth else 0)
        table[c] = math.inf if count == 0 else _log(total, base) - _log(count, base)
    return ThetaEstimator(kind, taxonomy, table)


def resnik_extrinsic_ic(
    taxonomy: TaxonomyView,
    usage: ClassUsage,
    smooth: bool = False,
    base: float | None = None,
) -> ThetaEstimator:
    """Corpus IC: -log(|I(c)| / |I|) over propagated instance counts.

    Smoothing adds one pseudo-instance per class before propagation, which
    keeps deep unused classes finite.
    """
    return _extrinsic("resnik", taxonomy, usage, smooth, base)


def idf_theta(
    taxonomy: TaxonomyView,
    usage: ClassUsage,
    smooth: bool = False,
    base: float | None = None,
) -> ThetaEstimator:
    """Inverse document frequency, log(|I| / |I(c)|); identical to the
    extrinsic Resnik IC and kept as its own kind for that assertion."""
    return _extrinsic("idf", taxonomy, usage, smooth, base)


def validate_monotonicity(estimator: ThetaEstimator) -> list[tuple[NodeId, NodeId]]:
    """Scan every taxonomy edge; return (child, parent) pairs where the
    child's value drops below the parent's."""
    bad = []
    for child, parent in estimator.taxonomy.edges:
        if estimator.raw(child) < estimator.raw(parent) - 1e-12:
            bad.append((child, parent))
    return sorted(bad)


# extrinsic kinds read class usage
EXTRINSIC = ("resnik", "idf")

# every kind that takes logs declares their base, which its builder checks by
# _check_base; the extrinsic kinds declare add-one smoothing, off (0) or on (1)
_LOG = {"base": ParamSpec(math.e)}
_SMOOTHED_LOG = {"smooth": ParamSpec(0.0, choices=(0.0, 1.0)), **_LOG}

# kind -> (build(taxonomy, usage, **params), its parameters)
ESTIMATORS: dict[str, tuple[Callable[..., ThetaEstimator], Mapping[str, ParamSpec]]] = {
    "depth": (lambda t, u: depth_theta(t, normalized=True), {}),
    "depth_raw": (lambda t, u: depth_theta(t, normalized=False), {}),
    "depth_nonlinear": (lambda t, u, base: nonlinear_depth_theta(t, base), _LOG),
    "seco": (lambda t, u, base: seco_ic(t, base), _LOG),
    "zhou": (lambda t, u, k, base: zhou_ic(t, k, base), {"k": ParamSpec(0.6), **_LOG}),
    "resnik": (
        lambda t, u, smooth, base: resnik_extrinsic_ic(t, u, bool(smooth), base), _SMOOTHED_LOG
    ),
    "resnik_intrinsic": (lambda t, u, base: resnik_intrinsic_ic(t, base), _LOG),
    "idf": (lambda t, u, smooth, base: idf_theta(t, u, bool(smooth), base), _SMOOTHED_LOG),
    "sanchez": (lambda t, u, base: sanchez_leaves_ic(t, base), _LOG),
    "sanchez_refined": (lambda t, u, base: sanchez_refined_ic(t, base), _LOG),
}
ESTIMATOR_KINDS = tuple(ESTIMATORS)


def build_estimator(
    kind: str, taxonomy: TaxonomyView, usage: ClassUsage | None = None, **params
) -> ThetaEstimator:
    """Estimator factory used by the CLI; extrinsic kinds need usage, and
    parameters are checked by resolve_params against the kind's: base, the
    logarithm base (natural by default), for every kind that takes logs,
    smooth (0 or 1) for the extrinsic kinds, and k for zhou."""
    if kind not in ESTIMATORS:
        raise UsageError(f"unknown estimator kind {kind!r}; known: {', '.join(ESTIMATOR_KINDS)}")
    if kind in EXTRINSIC and usage is None:
        raise UsageError(f"estimator {kind!r} needs annotations (class usage)")
    build, specs = ESTIMATORS[kind]
    return build(taxonomy, usage, **resolve_params(kind, specs, params))
