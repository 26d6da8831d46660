"""Accuracy-evaluation harness: map rated word pairs onto classes, score
them with configured measures, and report Pearson and Spearman
correlations against the human ratings.

Pairs with an unmappable word, or with no sense pair on which the measure
is defined, are skipped, never zero-filled; the report carries the skip
count so coverage differences stay visible, and the log gives it by reason.
"""

from __future__ import annotations

import csv
import logging
import math
from collections import Counter
from dataclasses import dataclass
from typing import IO, Mapping, Sequence

from .errors import InfiniteICError, ParseError, UndefinedCorrelationError, UsageError
from .graph import NodeId, TaxonomyView
from .ingest import RatedPairSet, parse_rated_pairs
from .pairwise import (
    ConversionRule,
    PairwiseMeasureSpec,
    Polarity,
    convert,
    pair_scorer,
)

log = logging.getLogger("smx")

# published cardinalities of the classic rated-pair benchmarks
KNOWN_DATASETS = {"rg65": 65, "mc30": 30, "wordsim353": 353, "mturk771": 771}


def load_rated_pairs(source, kind: str | None = None) -> RatedPairSet:
    """Parse a benchmark file; known kinds also validate the pair count."""
    dataset = parse_rated_pairs(source, name=kind or "rated-pairs")
    if kind is not None:
        expected = KNOWN_DATASETS.get(kind)
        if expected is None:
            raise ParseError(
                f"unknown dataset kind {kind!r}; known: {', '.join(sorted(KNOWN_DATASETS))}"
            )
        if len(dataset) != expected:
            raise ParseError(
                f"dataset kind {kind!r} must have {expected} pairs, got {len(dataset)}"
            )
    return dataset


@dataclass(frozen=True)
class ScoredPair:
    word_a: str
    word_b: str
    rating: float
    score: float | None  # None marks a skipped pair
    # why it was skipped: "unmapped", or the error that left every sense
    # pair undefined (the first one met)
    skipped: str | None = None


def score_pairs(
    dataset: RatedPairSet,
    mapping: Mapping[str, frozenset[NodeId]],
    spec: PairwiseMeasureSpec,
    taxonomy: TaxonomyView,
    allow_unreduced: bool = False,
) -> list[ScoredPair]:
    """Score every rated pair; the best class-pair score wins per word pair.

    A sense pair whose measure is undefined at one of its classes (a class
    without instances, or an infinite theta) takes no part in the best; a
    word pair left with no defined sense pair is skipped. Any other error
    fails the call. Distance-polarity measures are converted to
    similarities through the reciprocal rule first, otherwise the winning
    class pair and the correlation sign would both invert.
    """
    to_similarity = spec.info.polarity is Polarity.DISTANCE
    if to_similarity:
        log.warning(
            "measure %s has distance polarity; scores converted via 1/(d+1)",
            spec.name,
        )
    scorer = pair_scorer(spec, taxonomy, allow_unreduced)

    def score(ca: NodeId, cb: NodeId) -> float:
        mv = scorer(ca, cb)
        if to_similarity:
            mv = convert(mv, Polarity.SIMILARITY, ConversionRule.RECIPROCAL)
        return mv.value

    def scored(word_a: str, word_b: str, rating: float) -> ScoredPair:
        senses_a = mapping.get(word_a)
        senses_b = mapping.get(word_b)
        if not senses_a or not senses_b:
            return ScoredPair(word_a, word_b, rating, None, "unmapped")
        defined, undefined = [], None
        for ca in sorted(senses_a):
            for cb in sorted(senses_b):
                try:
                    defined.append(score(ca, cb))
                except (UsageError, InfiniteICError) as exc:
                    undefined = undefined or type(exc).__name__
        if not defined:
            return ScoredPair(word_a, word_b, rating, None, undefined)
        return ScoredPair(word_a, word_b, rating, max(defined))

    return [scored(a, b, rating) for a, b, rating in dataset.pairs]


def _scaled(xs: Sequence[float]) -> list[float]:
    """xs divided by the power of two just above its largest magnitude.
    The division is exact, and it keeps the correlation's sums of products
    from overflowing or underflowing wherever the inputs lie."""
    shift = math.frexp(max(map(abs, xs)))[1]
    return [math.ldexp(x, -shift) for x in xs]


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Sample Pearson correlation coefficient. Each series is scaled by a
    power of two first, which leaves the result of in-range series
    bit-identical and keeps it right at the edges of float range."""
    if len(xs) != len(ys):
        raise UndefinedCorrelationError("series lengths differ")
    n = len(xs)
    if n < 2:
        raise UndefinedCorrelationError("need at least two points")
    xs, ys = _scaled(xs), _scaled(ys)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    sxy = sxx = syy = 0.0
    for x, y in zip(xs, ys):
        dx, dy = x - mean_x, y - mean_y
        sxy += dx * dy
        sxx += dx * dx
        syy += dy * dy
    if sxx == 0.0 or syy == 0.0:
        raise UndefinedCorrelationError("constant series")
    return sxy / math.sqrt(sxx * syy)


def _ranks(xs: Sequence[float]) -> list[float]:
    """Ranks starting at 1; ties get the average of their rank run."""
    order = sorted(range(len(xs)), key=lambda i: xs[i])
    ranks = [0.0] * len(xs)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and xs[order[j + 1]] == xs[order[i]]:
            j += 1
        average = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = average
        i = j + 1
    return ranks


def spearman(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson correlation of the rank-transformed series."""
    if len(xs) != len(ys):
        raise UndefinedCorrelationError("series lengths differ")
    return pearson(_ranks(xs), _ranks(ys))


@dataclass(frozen=True)
class MeasureReport:
    measure: str
    n_scored: int
    n_skipped: int
    pearson: float | None
    spearman: float | None


@dataclass(frozen=True)
class BenchmarkRun:
    dataset: str
    size: int
    rows: tuple[MeasureReport, ...]


def run_benchmark(
    dataset: RatedPairSet,
    mapping: Mapping[str, frozenset[NodeId]],
    measures: Sequence[tuple[str, PairwiseMeasureSpec]],
    taxonomy: TaxonomyView,
    allow_unreduced: bool = False,
) -> BenchmarkRun:
    """Score the dataset under every configured measure and correlate.

    A measure that skips pairs logs one line with the counts by reason."""
    rows = []
    for label, spec in measures:
        scored = score_pairs(dataset, mapping, spec, taxonomy, allow_unreduced=allow_unreduced)
        kept = [(p.score, p.rating) for p in scored if p.score is not None]
        n_scored = len(kept)
        n_skipped = len(scored) - n_scored
        if n_skipped:
            reasons = Counter(p.skipped for p in scored if p.score is None)
            counts = ", ".join(f"{reason} {n}" for reason, n in sorted(reasons.items()))
            log.info(
                "measure %s: skipped %d of %d pairs (%s)", label, n_skipped, len(scored), counts
            )
        try:
            r = pearson([s for s, _ in kept], [r for _, r in kept])
            rho = spearman([s for s, _ in kept], [r for _, r in kept])
        except UndefinedCorrelationError:
            r = rho = None
        rows.append(MeasureReport(label, n_scored, n_skipped, r, rho))
    return BenchmarkRun(dataset=dataset.name, size=len(dataset), rows=tuple(rows))


def write_report_csv(run: BenchmarkRun, stream: IO[str]) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["measure", "n_scored", "n_skipped", "pearson", "spearman"])
    for row in run.rows:
        writer.writerow(
            [
                row.measure,
                row.n_scored,
                row.n_skipped,
                "" if row.pearson is None else f"{row.pearson:.6f}",
                "" if row.spearman is None else f"{row.spearman:.6f}",
            ]
        )
