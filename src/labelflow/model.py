"""Core domain model: documents, byte-span regions, labels as directed maps,
and the graph those maps induce.

A label is a map between two nested regions of one document. The smaller
region is the mention, the broader region containing it is the entity. A
forward label maps mention to entity (small to large), a backward label maps
entity to mention. Nodes of the induced graph are regions; two annotations
that touch the same region share a node, which is what stitches separate
labels into chains.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, Iterator

from .errors import BadNesting, DuplicateLabelName, MapNotWellDefined, UnknownLabel


@dataclass(frozen=True)
class Document:
    """A text document. All region offsets are byte offsets into the UTF-8
    encoding of ``text``, half-open."""

    id: str
    text: str

    @cached_property
    def data(self) -> bytes:
        return self.text.encode("utf-8")

    @property
    def byte_length(self) -> int:
        return len(self.data)

    def surface(self, region: "Region") -> str:
        """Decoded text under a region. Offsets that split a code point are
        decoded leniently; bounds are the caller's responsibility."""
        return self.data[region.start:region.end].decode("utf-8", errors="replace")


@dataclass(frozen=True, order=True)
class Region:
    """Half-open byte span [start, end) on one document.

    Ordering is (doc_id, start, end), which is the canonical iteration
    order everywhere in this package.
    """

    doc_id: str
    start: int
    end: int

    @property
    def key(self) -> str:
        return f"{self.doc_id}:{self.start}-{self.end}"


def region_contains(outer: Region, inner: Region) -> bool:
    """True iff ``inner`` is strictly contained in ``outer``.

    Strict means the regions are on the same document, outer covers inner,
    and the two spans are not identical.
    """
    return (
        outer.doc_id == inner.doc_id
        and outer.start <= inner.start
        and inner.end <= outer.end
        and (outer.start, outer.end) != (inner.start, inner.end)
    )


class Direction(str, Enum):
    FORWARD = "forward"    # mention -> entity, small region to large
    BACKWARD = "backward"  # entity -> mention, large region to small


@dataclass(frozen=True)
class LabelDecl:
    """A named map together with its direction."""

    name: str
    direction: Direction


@dataclass(frozen=True)
class Annotation:
    """One instance of a label: a (mention, entity) region pair.

    The mention must be strictly inside the entity; that is checked when
    the annotation is added to a graph, not at construction, so invalid
    annotations can still be represented and reported as data.
    """

    label: str
    mention: Region
    entity: Region


@dataclass(frozen=True, order=True)
class Node:
    """A graph node. Identity is exactly region identity."""

    region: Region

    @property
    def key(self) -> str:
        return self.region.key


@dataclass(frozen=True, order=True)
class MapEdge:
    """A directed edge: one map instance from source node to target node."""

    label: str
    source: Node
    target: Node


def map_endpoints(decl: LabelDecl, ann: Annotation) -> tuple[Node, Node]:
    """(source, target) node pair an annotation induces under its label's
    direction."""
    mention, entity = Node(ann.mention), Node(ann.entity)
    if decl.direction is Direction.FORWARD:
        return mention, entity
    return entity, mention


class LabeledGraph:
    """Regions as nodes, map instances as edges.

    The graph stores one map, (label, source node) -> target node; its
    nodes and edges are views of that map. Per label the map stays a
    partial function on nodes: adding an edge whose source already points
    at a different target under the same label raises MapNotWellDefined.
    Construction is single-writer; a fully built graph is treated as
    immutable and is safe for concurrent reads.
    """

    def __init__(self, labels: Iterable[LabelDecl] = ()):
        self._labels: dict[str, LabelDecl] = {}
        self._target_of: dict[tuple[str, Node], Node] = {}
        for decl in labels:
            self.declare(decl)

    def declare(self, decl: LabelDecl) -> None:
        existing = self._labels.get(decl.name)
        if existing is not None and existing != decl:
            raise DuplicateLabelName(
                f"label {decl.name!r} already declared with direction "
                f"{existing.direction.value}"
            )
        self._labels[decl.name] = decl

    def add(self, ann: Annotation) -> None:
        """Add one annotation. Idempotent for an exact duplicate."""
        decl = self._labels.get(ann.label)
        if decl is None:
            raise UnknownLabel(f"label {ann.label!r} is not declared")
        if not region_contains(ann.entity, ann.mention):
            raise BadNesting(
                f"mention {ann.mention.key} is not strictly inside "
                f"entity {ann.entity.key}"
            )
        source, target = map_endpoints(decl, ann)
        current = self._bind(ann.label, source, target)
        if current is not None:
            raise MapNotWellDefined(
                f"label {ann.label!r} already maps {source.key} to "
                f"{current.key}, cannot also map it to {target.key}",
                label=ann.label,
                source=source.key,
                first_target=current.key,
                second_target=target.key,
            )

    def _bind(self, label: str, source: Node, target: Node) -> Node | None:
        """Map ``source`` to ``target`` under ``label``, unless the label
        already maps it elsewhere: then leave the map as it is and return
        that other target, so every label stays a function."""
        current = self._target_of.setdefault((label, source), target)
        return None if current == target else current

    # -- read side -----------------------------------------------------

    def _edges(self) -> Iterator[MapEdge]:
        return (MapEdge(label, source, target)
                for (label, source), target in self._target_of.items())

    @property
    def labels(self) -> dict[str, LabelDecl]:
        return dict(self._labels)

    @property
    def nodes(self) -> frozenset[Node]:
        return frozenset(s for _, s in self._target_of).union(
            self._target_of.values())

    @property
    def edges(self) -> frozenset[MapEdge]:
        return frozenset(self._edges())

    def label(self, name: str) -> LabelDecl:
        try:
            return self._labels[name]
        except KeyError:
            raise UnknownLabel(f"label {name!r} is not declared") from None

    def has_node(self, node: Node) -> bool:
        return node in self.nodes

    def target(self, label: str, node: Node) -> Node | None:
        """Image of ``node`` under ``label``, or None if outside the domain."""
        return self._target_of.get((label, node))

    def domain(self, label: str) -> tuple[Node, ...]:
        """Nodes with an outgoing edge for ``label``, sorted."""
        return tuple(sorted(s for (name, s) in self._target_of if name == label))

    def image(self, label: str) -> tuple[Node, ...]:
        """Distinct targets of ``label``, sorted."""
        return tuple(sorted({t for (name, _), t in self._target_of.items()
                             if name == label}))

    def sources(self, label: str, target: Node) -> tuple[Node, ...]:
        """Preimage of ``target`` under ``label``, sorted."""
        return tuple(sorted(s for (name, s), t in self._target_of.items()
                            if name == label and t == target))

    def out_edges(self, node: Node) -> tuple[MapEdge, ...]:
        return tuple(sorted(MapEdge(name, s, t)
                            for (name, s), t in self._target_of.items()
                            if s == node))

    def in_edges(self, node: Node) -> tuple[MapEdge, ...]:
        return tuple(sorted(MapEdge(name, s, t)
                            for (name, s), t in self._target_of.items()
                            if t == node))

    def sorted_nodes(self) -> Iterator[Node]:
        return iter(sorted(self.nodes))

    def sorted_edges(self) -> Iterator[MapEdge]:
        return iter(sorted(self._edges()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LabeledGraph):
            return NotImplemented
        return (self._labels == other._labels
                and self._target_of == other._target_of)

    def __repr__(self) -> str:
        return (f"LabeledGraph(labels={len(self._labels)}, "
                f"nodes={len(self.nodes)}, edges={len(self._target_of)})")
