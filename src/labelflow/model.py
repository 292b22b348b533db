"""Core domain model: documents, byte-span regions, labels as directed maps,
and the graph those maps induce.

A label is a map between two nested regions of one document. The smaller
region is the mention, the broader region containing it is the entity. A
forward label maps mention to entity (small to large), a backward label maps
entity to mention. Nodes of the induced graph are regions; two annotations
that touch the same region share a node, which is what stitches separate
labels into chains.

Regions, nodes, labels, annotations and edges are frozen dataclasses
with slots, as a dataset makes several of them per annotation. They
compare and hash by value. A parse shares one ``Region`` object per
distinct span, so most comparisons of two endpoints stop at identity;
identity is not part of any semantics, and a Region built anew equals
and hashes as the shared one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from operator import attrgetter
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

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


@dataclass(frozen=True, order=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class LabelDecl:
    """A named map together with its direction."""

    name: str
    direction: Direction


@dataclass(frozen=True, slots=True)
class Annotation:
    """One instance of a label: a (mention, entity) region pair.

    The mention must be strictly inside the entity; that is checked when
    the annotation is added to a graph, not at construction, so invalid
    annotations can still be represented and reported as data.
    """

    label: str
    mention: Region
    entity: Region


@dataclass(frozen=True, order=True, slots=True)
class Node:
    """A graph node. Identity is exactly region identity."""

    region: Region

    @property
    def key(self) -> str:
        region = self.region
        return f"{region.doc_id}:{region.start}-{region.end}"


@dataclass(frozen=True, order=True, slots=True)
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


# Sort key for nodes: the order of comparing the nodes themselves, with
# no Python-level comparison per pair.
node_order = attrgetter("region.doc_id", "region.start", "region.end")

_NO_EDGES: Mapping[Node, Node] = MappingProxyType({})


class LabeledGraph:
    """Regions as nodes, map instances as edges.

    The graph stores one map per declared label, source node -> target
    node; its nodes and edges are views of those maps. Per label the map
    stays a partial function on nodes: adding an edge whose source
    already points at a different target under the same label raises
    MapNotWellDefined. Maps only grow.

    Costs, for L labels, E edges and a label with n sources:
    ``target`` is O(1) on average, ``has_node`` and ``out_edges`` are
    O(L), ``domain`` is O(n log n) the first time after the label's map
    grew and O(1) after that (a cached sorted tuple), ``image`` and
    ``sources`` are O(n), and ``in_edges``, ``edges`` and the sorted
    listings are O(E) or O(E log E). The node set is cached like a
    domain and rebuilt in O(E) after the graph grew.

    Construction is single-writer; a fully built graph is treated as
    immutable and is safe for concurrent reads.
    """

    def __init__(self, labels: Iterable[LabelDecl] = ()):
        self._labels: dict[str, LabelDecl] = {}
        self._maps: dict[str, dict[Node, Node]] = {}
        self._domains: dict[str, tuple[Node, ...]] = {}
        # (edge count it was built at, node set)
        self._node_set: tuple[int, frozenset[Node]] = (0, frozenset())
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
        self._maps.setdefault(decl.name, {})

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
        """Map ``source`` to ``target`` under the declared ``label``,
        unless the label already maps it elsewhere: then leave the map as
        it is and return that other target, so every label stays a
        function."""
        current = self._maps[label].setdefault(source, target)
        return None if current is target or current == target else current

    # -- read side -----------------------------------------------------

    def _edges(self) -> Iterator[MapEdge]:
        return (MapEdge(label, source, target)
                for label, edges in self._maps.items()
                for source, target in edges.items())

    @property
    def labels(self) -> dict[str, LabelDecl]:
        return dict(self._labels)

    @property
    def nodes(self) -> frozenset[Node]:
        size = sum(map(len, self._maps.values()))
        if size != self._node_set[0]:  # the graph grew since
            self._node_set = (size, frozenset(itertools.chain.from_iterable(
                itertools.chain(edges, edges.values())
                for edges in self._maps.values())))
        return self._node_set[1]

    @property
    def edges(self) -> frozenset[MapEdge]:
        return frozenset(self._edges())

    def label(self, name: str) -> LabelDecl:
        try:
            return self._labels[name]
        except KeyError:
            raise UnknownLabel(f"label {name!r} is not declared") from None

    def label_map(self, label: str) -> Mapping[Node, Node]:
        """The label's map, source -> target; empty for an undeclared
        label. A live view: read it, never write it."""
        return self._maps.get(label, _NO_EDGES)

    def has_node(self, node: Node) -> bool:
        return node in self.nodes

    def target(self, label: str, node: Node) -> Node | None:
        """Image of ``node`` under ``label``, or None if outside the domain."""
        return self.label_map(label).get(node)

    def domain(self, label: str) -> tuple[Node, ...]:
        """Nodes with an outgoing edge for ``label``, sorted."""
        edges = self.label_map(label)
        cached = self._domains.get(label, ())
        if len(cached) != len(edges):  # the map grew since it was sorted
            cached = self._domains[label] = tuple(sorted(edges, key=node_order))
        return cached

    def image(self, label: str) -> tuple[Node, ...]:
        """Distinct targets of ``label``, sorted."""
        return tuple(sorted(set(self.label_map(label).values()),
                            key=node_order))

    def sources(self, label: str, target: Node) -> tuple[Node, ...]:
        """Preimage of ``target`` under ``label``, sorted."""
        edges = self.label_map(label)
        return tuple(s for s in self.domain(label) if edges[s] == target)

    def out_edges(self, node: Node) -> tuple[MapEdge, ...]:
        out = []
        for label in sorted(self._maps):
            target = self._maps[label].get(node)
            if target is not None:
                out.append(MapEdge(label, node, target))
        return tuple(out)

    def in_edges(self, node: Node) -> tuple[MapEdge, ...]:
        return tuple(sorted(MapEdge(label, s, t)
                            for label, edges in self._maps.items()
                            for s, t in edges.items() if t == node))

    def sorted_nodes(self) -> Iterator[Node]:
        return iter(sorted(self.nodes, key=node_order))

    def sorted_edges(self) -> Iterator[MapEdge]:
        return (MapEdge(label, source, self._maps[label][source])
                for label in sorted(self._maps)
                for source in self.domain(label))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LabeledGraph):
            return NotImplemented
        return self._labels == other._labels and self._maps == other._maps

    def __repr__(self) -> str:
        return (f"LabeledGraph(labels={len(self._labels)}, "
                f"nodes={len(self.nodes)}, "
                f"edges={sum(map(len, self._maps.values()))})")
