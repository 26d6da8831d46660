import io
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

import smx
from smx.errors import CycleError, UnknownNodeError

from helpers import (
    brute_ancestors,
    brute_reduce_annotations,
    brute_redundant_edges,
    random_annotations,
    random_taxonomy,
    taxonomy_from_pairs,
    view_of,
)


def stream(text):
    return io.BytesIO(text.encode("utf-8"))


class TestTaxonomicReduction:
    def test_isa_edges_dropped_from_view(self):
        text = (
            "A\tsubClassOf\troot\nB\tsubClassOf\troot\nC\tsubClassOf\tA\n"
            "D\tsubClassOf\tA\nE\tsubClassOf\tC\nF\tsubClassOf\tB\n"
            "g1\tisA\tE\n"
        )
        t = smx.taxonomic_reduction(smx.parse_graph(stream(text)))
        assert len(t.class_ids) == 7
        assert len(t.edges) == 6

    def test_virtual_root_insertion(self):
        t = taxonomy_from_pairs([("C", "A"), ("C", "B")])
        assert t.inserted_root is not None
        assert t.label(t.root) == smx.VIRTUAL_ROOT
        assert t.label(t.inserted_root) == smx.VIRTUAL_ROOT
        assert {t.label(p) for p in t.children(t.root)} == {"A", "B"}

    def test_single_root_untouched(self, toy):
        assert toy.inserted_root is None
        assert toy.label(toy.root) == "root"

    def test_cycle_detected(self):
        with pytest.raises(CycleError) as err:
            taxonomy_from_pairs([("A", "B"), ("B", "A")])
        assert set(err.value.cycle) >= {"A", "B"}

    @pytest.mark.parametrize(
        "pairs, message",
        [
            ([("A", "R"), ("B", "A"), ("A", "B")], "subClassOf cycle: A < B < A"),
            (
                [("A", "R"), ("B", "A"), ("C", "B"), ("D", "C"), ("B", "D"), ("E", "R"), ("E", "C")],
                "subClassOf cycle: B < D < C < B",
            ),
        ],
    )
    def test_cycle_below_the_root_is_traced(self, pairs, message):
        # the root is found, so the cycle is the set the parents-first
        # walk never reaches
        with pytest.raises(CycleError) as err:
            taxonomy_from_pairs(pairs)
        assert str(err.value) == message


class TestTransitiveReduction:
    def test_removes_shortcut(self):
        t = taxonomy_from_pairs([("E", "C"), ("C", "A"), ("E", "A")])
        reduced, report = smx.transitive_reduction(t)
        removed = {(r.subject, r.object) for r in report.removed_edges}
        assert removed == {("E", "A")}
        assert reduced.is_reduced

    def test_idempotent_on_reduced_input(self, toy):
        reduced, report = smx.transitive_reduction(toy)
        assert not report.removed_edges
        assert reduced is toy

    def test_fig9_shape_restores_distance(self, chain_with_skip):
        spec = smx.pairwise_measure("rada")
        c0, c4 = chain_with_skip.node("c0"), chain_with_skip.node("c4")
        before = smx.eval_pairwise(spec, chain_with_skip, c0, c4, allow_unreduced=True)
        assert before.value == 1
        reduced, report = smx.transitive_reduction(chain_with_skip)
        assert {(r.subject, r.object) for r in report.removed_edges} == {("c0", "c4")}
        after = smx.eval_pairwise(spec, reduced, c0, c4)
        assert after.value == 4

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_preserves_reachability_and_matches_oracle(self, seed):
        t, pairs = random_taxonomy(random.Random(seed), max_nodes=40)
        reduced, report = smx.transitive_reduction(t)
        removed = {(r.subject, r.object) for r in report.removed_edges}
        assert removed == brute_redundant_edges(pairs)
        kept = [e for e in pairs if e not in removed]
        for c in t.class_ids:
            assert brute_ancestors(kept, t.label(c)) == brute_ancestors(
                pairs, t.label(c)
            )
        again, second = smx.transitive_reduction(reduced)
        assert not second.removed_edges

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), forest=st.booleans())
    def test_derived_view_equals_rebuild(self, seed, forest):
        rng = random.Random(seed)
        _, pairs = random_taxonomy(rng, max_nodes=25)
        if forest:
            # a second tree makes two roots, so a virtual root is inserted
            _, more = random_taxonomy(rng, max_nodes=25)
            pairs += [("m" + c[1:], "m" + p[1:]) for c, p in more]
        for child in {c for c, _ in pairs}:
            implied = brute_ancestors(pairs, child) - {child} - {
                p for c, p in pairs if c == child
            }
            if implied and rng.random() < 0.3:
                pairs.append((child, rng.choice(sorted(implied))))
        t = taxonomy_from_pairs(pairs)
        assume(t.redundant_edges)
        classes = t.sorted_classes()
        sample = [(rng.choice(classes), rng.choice(classes)) for _ in range(10)]

        reduced, _ = smx.transitive_reduction(t)
        # the graph's classes and kept edges, so a forest gets its __root__ again
        rebuilt = view_of(
            t._labels,
            t.class_ids - {t.inserted_root},
            [(c, p) for c, p in t.edges - t.redundant_edges if p != t.inserted_root],
        )
        assert (t.inserted_root is not None) == forest
        for slot in smx.TaxonomyView.__slots__:
            assert getattr(reduced, slot) == getattr(rebuilt, slot), slot
        for c in classes:
            assert reduced.ancestors(c) is t.ancestors(c)
            assert reduced.descendants(c) == t.descendants(c)
        wang = smx.pairwise_measure("wang_dca")
        for u, v in sample:
            assert smx.eval_pairwise(wang, reduced, u, v) == smx.eval_pairwise(
                wang, rebuilt, u, v
            )


class TestAnnotationCleaning:
    def test_reduce_drops_ancestor(self, toy, toy_graph):
        ann = smx.parse_annotations(stream("g1\tE,C\n"), toy_graph)
        reduced, report = smx.reduce_annotations(toy, ann)
        assert reduced.assignments["g1"] == frozenset((toy.node("E"),))
        assert report.removed_annotations["g1"] == frozenset(("C",))

    def test_reduce_keeps_incomparable(self, toy, toy_graph):
        ann = smx.parse_annotations(stream("g1\tE,F\n"), toy_graph)
        reduced, _ = smx.reduce_annotations(toy, ann)
        assert reduced.assignments["g1"] == frozenset(
            (toy.node("E"), toy.node("F"))
        )

    def test_reduce_chain_to_most_specific(self, toy, toy_graph):
        ann = smx.parse_annotations(stream("g1\troot,A,E\n"), toy_graph)
        reduced, _ = smx.reduce_annotations(toy, ann)
        assert reduced.assignments["g1"] == frozenset((toy.node("E"),))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_reduce_expand_reduce_is_reduce(self, seed):
        rng = random.Random(seed)
        t, _ = random_taxonomy(rng, max_nodes=30)
        classes = sorted(t.class_ids)
        picks = {
            f"i{k}": frozenset(rng.sample(classes, rng.randint(1, min(4, len(classes)))))
            for k in range(5)
        }
        ann = smx.AnnotationSet(assignments=picks)
        reduced, _ = smx.reduce_annotations(t, ann)
        # each instance's classes expanded to their inclusive ancestor closure
        expanded = smx.AnnotationSet(
            assignments={
                i: frozenset().union(*map(t.ancestors, cs))
                for i, cs in reduced.assignments.items()
            }
        )
        again, _ = smx.reduce_annotations(t, expanded)
        assert again.assignments == reduced.assignments


class TestReduceAnnotationsOracle:
    """reduce_annotations against the all-pairs oracle, on trees and on
    DAGs with multiple inheritance, before and after transitive
    reduction."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), tree=st.booleans())
    def test_matches_oracle(self, seed, tree):
        rng = random.Random(seed)
        t, _ = random_taxonomy(rng, max_nodes=30, tree=tree)
        ann = random_annotations(rng, t)
        for view in (t, smx.transitive_reduction(t)[0]):
            got, got_report = smx.reduce_annotations(view, ann)
            want, want_report = brute_reduce_annotations(view, ann)
            assert got.assignments == want.assignments
            assert got.warnings == want.warnings
            assert got_report.removed_annotations == want_report.removed_annotations

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_unknown_class_raises_as_oracle(self, seed):
        rng = random.Random(seed)
        t, _ = random_taxonomy(rng, max_nodes=30)
        ann = random_annotations(rng, t)
        outside = max(t.class_ids) + 1
        assignments = dict(ann.assignments)
        assignments["stray"] = frozenset({outside, min(t.class_ids)})
        bad = smx.AnnotationSet(assignments=assignments)
        with pytest.raises(UnknownNodeError) as want:
            brute_reduce_annotations(t, bad)
        with pytest.raises(UnknownNodeError, match=f"annotation class {outside} is not part"):
            smx.reduce_annotations(t, bad)
        assert str(want.value) == f"annotation class {outside} is not part of the taxonomy"
