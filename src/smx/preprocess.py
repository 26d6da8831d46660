"""Graph canonicalization: taxonomic reduction, transitive reduction and
annotation de-redundancy (the true path rule).

Everything here is a pure transformation producing new values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .errors import ContractError, UnknownNodeError
from .graph import NodeId, SUBCLASS_OF, SemanticGraph, TaxonomyView, VIRTUAL_ROOT
from .ingest import AnnotationSet, TripleRecord


@dataclass(frozen=True)
class ReductionReport:
    removed_edges: tuple[TripleRecord, ...] = ()
    removed_annotations: Mapping[str, frozenset[str]] = field(default_factory=dict)
    inserted_root: str | None = None


def taxonomic_reduction(graph: SemanticGraph) -> TaxonomyView:
    """Build the taxonomy view: classes plus subClassOf edges only.

    If the subClassOf subgraph has several roots, a virtual root named
    __root__ is inserted above them so the view is always singly rooted.
    The view shares the graph's label tuple and class set, or copies of
    them extended by that root. Raises CycleError on a cyclic taxonomy.
    """
    if not graph.classes:
        raise ContractError("graph contains no classes")
    up_edges = graph.edges_with(SUBCLASS_OF)
    labels, class_ids = graph._labels, graph.classes
    with_parent = {child for child, _ in up_edges}
    roots = sorted(class_ids - with_parent)
    inserted = None
    if len(roots) > 1:
        inserted = graph.n_nodes
        labels = labels + (VIRTUAL_ROOT,)
        class_ids = class_ids | {inserted}
        up_edges = up_edges + [(r, inserted) for r in roots]
    return TaxonomyView.build(graph, class_ids, up_edges, labels, inserted_root=inserted)


def transitive_reduction(taxonomy: TaxonomyView) -> tuple[TaxonomyView, ReductionReport]:
    """Drop every subClassOf edge that a length >= 2 path already implies.

    Reachability is unchanged and the result is idempotent; on a DAG the
    reduction is unique. The result shares the input's ancestor closure,
    depth and label tables and its parents-first class order, so no
    closure is computed again.
    """
    removed = sorted(
        taxonomy.redundant_edges,
        key=lambda e: (taxonomy.label(e[0]), taxonomy.label(e[1])),
    )
    report = ReductionReport(
        removed_edges=tuple(
            TripleRecord(taxonomy.label(u), SUBCLASS_OF, taxonomy.label(p))
            for u, p in removed
        ),
        inserted_root=(
            taxonomy.label(taxonomy.inserted_root)
            if taxonomy.inserted_root is not None
            else None
        ),
    )
    if not removed:
        return taxonomy, report
    return taxonomy._without_redundant_edges(), report


def reduce_annotations(
    taxonomy: TaxonomyView, annotations: AnnotationSet
) -> tuple[AnnotationSet, ReductionReport]:
    """Remove each annotated class that is a strict ancestor of another one.

    The surviving set per instance is an antichain, which is what the
    direct groupwise measures and usage statistics expect. A leaf is never
    a strict ancestor, so only an instance's inner classes are tested.
    """
    class_ids = taxonomy.class_ids
    leaves = taxonomy.leaves
    anc = taxonomy._anc
    reduced: dict[str, frozenset[NodeId]] = {}
    removed: dict[str, frozenset[str]] = {}
    for instance, classes in annotations.assignments.items():
        if not class_ids.issuperset(classes):
            c = next(c for c in classes if c not in class_ids)
            raise UnknownNodeError(f"annotation class {c} is not part of the taxonomy")
        dropped = [
            c
            for c in classes - leaves
            if any(other != c and c in anc[other] for other in classes)
        ]
        if dropped:
            reduced[instance] = frozenset(classes.difference(dropped))
            removed[instance] = frozenset(taxonomy.label(c) for c in dropped)
        else:
            reduced[instance] = frozenset(classes)
    report = ReductionReport(removed_annotations=removed)
    return AnnotationSet(assignments=reduced, warnings=annotations.warnings), report
