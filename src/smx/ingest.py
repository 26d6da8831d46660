"""Parsers and serializers for the toolkit's TSV exchange formats.

All formats are UTF-8, one record per line. A line ends at LF, and one CR
before the LF is dropped, whatever the source kind: a lone CR is content.
Lines starting with '#' are comments and blank lines are ignored, as is
one leading byte-order mark.
A line-numbered ParseError from a file read by path names that path.

  graph       subject <TAB> predicate <TAB> object [<TAB> weight]
  annotation  instance <TAB> class[,class...]
  benchmark   wordA <TAB> wordB <TAB> rating
  mapping     word <TAB> classId[;classId...]
  pairs       idA <TAB> idB [<TAB> ignored...]
  weights     predicate <TAB> weight  (predicate * sets the default)

subClassOf (class to class) and isA (instance to class) are the two
reserved predicates; every other predicate token is free-form relational
data. Identifiers wrapped in double underscores are reserved for the
toolkit (the virtual root is named __root__).
"""

from __future__ import annotations

import functools
import io
import math
import os
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping

from .errors import ClassificationError, ParseError, ResolutionError, UnknownNodeError
from .graph import IS_A, NodeId, SemanticGraph, SUBCLASS_OF
from .relatedness import PredicateWeightScheme


@dataclass(frozen=True)
class TripleRecord:
    subject: str
    predicate: str
    object: str
    weight: float | None = None


@dataclass(frozen=True)
class AnnotationSet:
    """Instance identifier to resolved class ids, plus merge-warning count."""

    assignments: Mapping[str, frozenset[NodeId]]
    warnings: int = 0


@dataclass(frozen=True)
class RatedPairSet:
    """Human-rated element pairs in input order."""

    name: str
    pairs: tuple[tuple[str, str, float], ...]
    scale: tuple[float, float]

    def __len__(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class WordMapping:
    words: Mapping[str, frozenset[NodeId]]
    warnings: int = 0


def _lines(source) -> Iterator[tuple[int, str]]:
    """Yield (line number, stripped content) skipping comments and blanks.

    Bytes are decoded as UTF-8; an invalid byte is a ParseError on its line.
    """
    # newline="\n" turns off universal newlines, so a path or a binary stream
    # splits lines as bytes (through StringIO) do
    decoding = {"encoding": "utf-8", "errors": "surrogateescape", "newline": "\n"}
    if isinstance(source, (str, os.PathLike)):
        try:
            handle = open(source, "r", **decoding)
        except OSError as exc:
            raise ParseError(f"cannot read {os.fsdecode(source)}: {exc.strerror}") from None
        with handle:
            yield from _lines(handle)
        return
    if isinstance(source, bytes):
        source = io.StringIO(source.decode("utf-8", "surrogateescape"))
    elif isinstance(source, io.IOBase) and not isinstance(source, io.TextIOBase):
        source = io.TextIOWrapper(source, **decoding)
    elif hasattr(source, "read") and isinstance(source.read(0), bytes):
        source = io.TextIOWrapper(source, **decoding)
    for lineno, raw in enumerate(source, start=1):
        line = raw.removesuffix("\n").removesuffix("\r")
        if lineno == 1:
            line = line.removeprefix("\ufeff")
        if not line.isascii():
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                raise ParseError("not valid UTF-8 text", lineno) from None
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        yield lineno, line


def _names_its_file(parse):
    """Prefix the path to the line-numbered ParseErrors of `parse` when its
    source is a path, so the message says which input is at fault."""

    @functools.wraps(parse)
    def parse_source(source, *args, **kwargs):
        try:
            return parse(source, *args, **kwargs)
        except ParseError as exc:
            if exc.line is not None and isinstance(source, (str, os.PathLike)):
                exc.args = (f"{os.fsdecode(source)}: {exc}",)
            raise

    return parse_source


def _is_reserved(token: str) -> bool:
    return len(token) > 4 and token.startswith("__") and token.endswith("__")


def _parse_weight(text: str, lineno: int) -> float:
    try:
        weight = float(text)
    except ValueError:
        raise ParseError(f"weight {text!r} is not a number", lineno) from None
    if not math.isfinite(weight) or weight < 0:
        raise ParseError(f"weight must be finite and >= 0, got {text!r}", lineno)
    return weight


def _triples(source) -> Iterator[tuple[str, str, str, float | None]]:
    """Yield (subject, predicate, object, weight) for each triple line."""
    for lineno, line in _lines(source):
        fields = line.split("\t")
        if len(fields) not in (3, 4):
            raise ParseError(
                f"expected 3 or 4 tab-separated fields, got {len(fields)}", lineno
            )
        subject, predicate, obj = map(str.strip, fields[:3])
        if not subject or not predicate or not obj:
            raise ParseError("empty field in triple", lineno)
        # a reserved name is a field of the line, so a line without "__" has none
        if "__" in line:
            for node in (subject, obj):
                if _is_reserved(node):
                    raise ParseError(f"identifier {node!r} uses a reserved name", lineno)
            if _is_reserved(predicate):
                raise ParseError(f"unknown reserved predicate {predicate!r}", lineno)
        weight = _parse_weight(fields[3], lineno) if len(fields) == 4 else None
        yield subject, predicate, obj, weight


@_names_its_file
def read_triples(source) -> list[TripleRecord]:
    return [TripleRecord(*triple) for triple in _triples(source)]


@_names_its_file
def parse_graph(source) -> SemanticGraph:
    """Load a triple TSV into a SemanticGraph.

    Node classification is independent of line order: subjects and objects
    of subClassOf are classes, objects of isA are classes, subjects of isA
    are instances, and anything left unclassified is an instance. A node
    claimed by both sides is a classification error.
    """
    triples = list(_triples(source))
    if not triples:
        raise ParseError("empty graph: a graph must contain at least one class")
    class_labels: set[str] = set()
    instance_labels: set[str] = set()
    other_labels: set[str] = set()
    predicates: set[str] = set()
    for subject, predicate, obj, _ in triples:
        predicates.add(predicate)
        if predicate == SUBCLASS_OF:
            class_labels.add(subject)
            class_labels.add(obj)
        elif predicate == IS_A:
            instance_labels.add(subject)
            class_labels.add(obj)
        else:
            other_labels.add(subject)
            other_labels.add(obj)
    clash = class_labels & instance_labels
    if clash:
        names = ", ".join(sorted(clash))
        raise ClassificationError(f"used as both class and instance: {names}")
    instance_labels |= other_labels - class_labels

    labels = sorted(class_labels | instance_labels)
    index = {label: i for i, label in enumerate(labels)}
    edges: dict[tuple[NodeId, str, NodeId], float | None] = {}
    for subject, predicate, obj, weight in triples:
        if edges.setdefault((index[subject], predicate, index[obj]), weight) != weight:
            raise ParseError(
                f"duplicate triple {subject} {predicate} {obj} with conflicting weights"
            )
    weighted = any(w is not None for w in edges.values())
    edge_weights = (
        {e: (1.0 if w is None else w) for e, w in edges.items()} if weighted else None
    )
    return SemanticGraph(
        labels=labels,
        classes=map(index.__getitem__, class_labels),
        instances=map(index.__getitem__, instance_labels),
        predicates=predicates,
        edges=edges,
        edge_weights=edge_weights,
    )


def serialize_graph(graph: SemanticGraph) -> str:
    """Write a graph back to triple TSV, sorted for byte-stable output.
    A weight is written in its short %g form when that parses back to the
    same float, else as its repr, so every weight round-trips exactly."""
    labels, weights = graph._labels, graph.edge_weights
    lines = []
    for s, p, o in graph._label_sorted_edges():
        row = f"{labels[s]}\t{p}\t{labels[o]}"
        if weights is not None:
            w = weights[(s, p, o)]
            text = f"{w:g}"
            row += "\t" + (text if float(text) == w else repr(w))
        lines.append(row)
    return "\n".join(lines) + ("\n" if lines else "")


@_names_its_file
def _class_lists(source, graph: SemanticGraph, key: str, sep: str):
    """Read key<TAB>class list lines, resolving every class against the
    graph; lines repeating a key merge by union and bump the warning count."""
    index, class_ids = graph._index, graph.classes
    table: dict[str, frozenset[NodeId]] = {}
    warnings = 0
    for lineno, line in _lines(source):
        fields = line.split("\t")
        if len(fields) != 2:
            raise ParseError(f"expected {key}<TAB>class[{sep}class...]", lineno)
        name, classes_text = fields[0].strip(), fields[1].strip()
        if not name or not classes_text:
            raise ParseError(f"empty {key} or class list", lineno)
        resolved = set()
        for token in classes_text.split(sep):
            token = token.strip()
            if not token:
                raise ParseError("empty class identifier", lineno)
            node = index.get(token)
            if node not in class_ids:
                raise ResolutionError(f"unknown class identifier {token!r}", lineno)
            resolved.add(node)
        if name in table:
            warnings += 1
            table[name] = table[name].union(resolved)
        else:
            table[name] = frozenset(resolved)
    return table, warnings


def parse_annotations(source, graph: SemanticGraph) -> AnnotationSet:
    """Load instance annotations, resolving every class against the graph.

    Duplicate lines for one instance merge by union and bump the warning
    count.
    """
    table, warnings = _class_lists(source, graph, "instance", ",")
    return AnnotationSet(assignments=table, warnings=warnings)


@_names_its_file
def parse_rated_pairs(source, name: str = "rated-pairs") -> RatedPairSet:
    pairs: list[tuple[str, str, float]] = []
    for lineno, line in _lines(source):
        fields = line.split("\t")
        if len(fields) != 3:
            raise ParseError("expected wordA<TAB>wordB<TAB>rating", lineno)
        a, b, rating_text = (f.strip() for f in fields)
        if not a or not b:
            raise ParseError("empty element identifier", lineno)
        try:
            rating = float(rating_text)
        except ValueError:
            raise ParseError(f"rating {rating_text!r} is not a number", lineno) from None
        if not math.isfinite(rating):
            raise ParseError("rating must be finite", lineno)
        pairs.append((a, b, rating))
    if not pairs:
        raise ParseError("rated pair set is empty")
    ratings = [r for _, _, r in pairs]
    return RatedPairSet(name=name, pairs=tuple(pairs), scale=(min(ratings), max(ratings)))


def parse_word_mapping(source, graph: SemanticGraph) -> WordMapping:
    """Load the word to class-set mapping used by the benchmark harness."""
    table, warnings = _class_lists(source, graph, "word", ";")
    return WordMapping(words=table, warnings=warnings)


def _pair_lines(source) -> Iterator[tuple[int, tuple[str, str]]]:
    for lineno, line in _lines(source):
        fields = line.split("\t")
        if len(fields) < 2:
            raise ParseError("expected two tab-separated identifiers", lineno)
        pair = fields[0].strip(), fields[1].strip()
        if "" in pair:
            raise ParseError("empty element identifier", lineno)
        yield lineno, pair


@_names_its_file
def resolve_pairs(source, resolve: Callable) -> list[tuple[str, str, object, object]]:
    """(idA, idB, resolve(idA), resolve(idB)) for each pair of the list,
    columns after the second ignored; every line is parsed before the
    first is resolved. An identifier that resolve rejects (UnknownNodeError
    or ResolutionError) is a ResolutionError on its line."""
    resolved = []
    for lineno, (a, b) in list(_pair_lines(source)):
        try:
            resolved.append((a, b, resolve(a), resolve(b)))
        except (UnknownNodeError, ResolutionError) as exc:
            raise ResolutionError(str(exc), lineno) from None
    return resolved


@_names_its_file
def parse_weight_scheme(source) -> PredicateWeightScheme:
    """Load per-predicate cost multipliers; the predicate * sets the default."""
    weights = {}
    default = 1.0
    for lineno, line in _lines(source):
        fields = line.split("\t")
        if len(fields) != 2:
            raise ParseError("expected predicate<TAB>weight", lineno)
        predicate = fields[0].strip()
        value = _parse_weight(fields[1], lineno)
        if predicate == "*":
            default = value
        else:
            weights[predicate] = value
    return PredicateWeightScheme(weights=weights, default=default)
