"""Seeded input generators for the benchmark workloads.

The taxonomy comes from `synth_graph_lines` in scripts/scale_smoke.py, the
generator the scale criterion already uses. Annotations, rated pairs, the
word mapping and the relational graph are generated here. Every function
takes a `random.Random`, so one seed gives the same bytes on every run.
"""

from __future__ import annotations

import itertools
import random

from scale_smoke import synth_graph_lines

RELATION_PREDICATES = ("partOf", "interactsWith", "regulates")
# predicate cost multipliers used by every relatedness query
RELATION_WEIGHTS = {"partOf": 1.0, "interactsWith": 2.0, "regulates": 1.5}
RELATION_DEFAULT = 1.0


def taxonomy_text(n_classes: int, rng: random.Random) -> bytes:
    """subClassOf triples of a DAG with branching <= 8 and depth <= 15."""
    return synth_graph_lines(n_classes, rng).encode()


def class_labels(n_classes: int) -> list[str]:
    """Labels `synth_graph_lines` gives its classes, c0 being the root."""
    return [f"c{i}" for i in range(n_classes)]


def leaves_first(text: bytes, rng: random.Random) -> list[str]:
    """Every class of a subClassOf TSV: the leaves in seeded random order,
    then the inner classes in seeded random order."""
    children, parents = set(), set()
    for line in text.decode().splitlines():
        child, _, parent = line.split("\t")
        children.add(child)
        parents.add(parent)
    leaves = sorted(children - parents)
    inner = sorted(parents)
    rng.shuffle(leaves)
    rng.shuffle(inner)
    return leaves + inner


class ZipfClasses:
    """Draws classes with probability proportional to 1 / rank**s, so a
    few classes carry most annotations. Pass the classes leaves first:
    annotations then favour specific classes, and the instance set of a
    popular class holds its own annotations only, so its size depends on
    its rank and not on where the seed's DAG put the popular classes."""

    def __init__(self, ranked: list[str], rng: random.Random, s: float = 1.1):
        self.ranked = ranked
        self.cum = list(itertools.accumulate(1.0 / (r + 1) ** s for r in range(len(ranked))))
        self.rng = rng

    def draw(self, k: int) -> list[str]:
        """k distinct classes."""
        chosen: dict[str, None] = {}
        while len(chosen) < k:
            chosen[self.rng.choices(self.ranked, cum_weights=self.cum)[0]] = None
        return list(chosen)


def annotations_text(
    ranked: list[str], n_instances: int, rng: random.Random, min_k=2, max_k=12, s=1.1
) -> bytes:
    """instance<TAB>class,... lines; each instance has min_k..max_k classes
    drawn Zipf-skewed with exponent s over the ranked classes."""
    zipf = ZipfClasses(ranked, rng, s)
    lines = [
        f"i{n}\t{','.join(zipf.draw(rng.randint(min_k, max_k)))}" for n in range(n_instances)
    ]
    return ("\n".join(lines) + "\n").encode()


def rated_pairs_texts(
    labels: list[str], n_pairs: int, rng: random.Random, n_words=400, unmapped=0.03
) -> tuple[bytes, bytes]:
    """(rated pair TSV, word mapping TSV).

    Each mapped word has 1-3 senses drawn uniformly from the classes. A
    share of the words has no mapping, so the harness skips their pairs.
    """
    words = [f"w{i}" for i in range(n_words)]
    mapping_lines = []
    for word in words:
        if rng.random() < unmapped:
            continue
        senses = rng.sample(labels, rng.randint(1, 3))
        mapping_lines.append(f"{word}\t{';'.join(senses)}")
    pair_lines = []
    for _ in range(n_pairs):
        a, b = rng.sample(words, 2)
        pair_lines.append(f"{a}\t{b}\t{rng.uniform(0.0, 10.0):.2f}")
    return ("\n".join(pair_lines) + "\n").encode(), ("\n".join(mapping_lines) + "\n").encode()


def relational_text(n_nodes: int, rng: random.Random, extra_per_node=2) -> bytes:
    """A strongly connected weighted graph: a directed interactsWith ring
    over every node plus random partOf, interactsWith and regulates edges,
    each added in both directions with one weight."""
    lines = []
    seen = set()
    for i in range(n_nodes):
        j = (i + 1) % n_nodes
        lines.append(f"r{i}\tinteractsWith\tr{j}\t1")
        seen.update(((i, j), (j, i)))
    added = 0
    while added < extra_per_node * n_nodes:
        a, b = rng.randrange(n_nodes), rng.randrange(n_nodes)
        if a == b or (a, b) in seen:
            continue
        seen.update(((a, b), (b, a)))
        predicate = rng.choice(RELATION_PREDICATES)
        weight = f"{rng.uniform(0.5, 3.0):.3f}"
        lines.append(f"r{a}\t{predicate}\tr{b}\t{weight}")
        lines.append(f"r{b}\t{predicate}\tr{a}\t{weight}")
        added += 1
    return ("\n".join(lines) + "\n").encode()


def scheme_text() -> bytes:
    """The predicate weight scheme as the CLI reads it."""
    rows = [f"{p}\t{w}" for p, w in RELATION_WEIGHTS.items()] + [f"*\t{RELATION_DEFAULT}"]
    return ("\n".join(rows) + "\n").encode()


def node_pairs(labels: list[str], n: int, rng: random.Random) -> list[tuple[str, str]]:
    """n pairs of distinct labels, uniform."""
    return [tuple(rng.sample(labels, 2)) for _ in range(n)]


def pairs_text(pairs) -> bytes:
    return ("".join(f"{a}\t{b}\n" for a, b in pairs)).encode()
