"""Partitions of node sets and the quotient structure of label maps.

Every label, restricted to a set of source nodes, partitions that set
into fibers: two nodes fall in the same class when the label (or a
composite of labels) sends them to the same final target.

A partition is stored as its universe, sorted and without repeats, plus
one class id per universe position. Ids are numbered in order of first
occurrence (a restricted growth string), so class 0 holds the first
node, class 1 the first node outside class 0, and so on. Two partitions
of the same universe are equal iff their id sequences are equal, and
the classes listed in id order are already in canonical order: each
class sorted, classes sorted by their first node. The classes and the
node -> class index are derived from the ids on first use.

Costs, for a universe of n nodes and a label path of length m:
``fibers`` is O(n), plus a sort when an explicit universe is not
already sorted; ``meet`` of k partitions is O(kn);
``directed_intersection_count`` and ``refines`` are O(n);
``common_domain`` is O(n) plus a sort of the excluded nodes;
``composite_domain`` and ``composite_partition`` are O(mn). Each O(n)
step hashes every node once, through the label maps of the graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from operator import lt
from typing import Hashable, Iterable, Mapping, Sequence

from .errors import DomainGap, UniverseMismatch
from .model import LabeledGraph, Node, node_order


def _sorted_unique(nodes: Iterable[Node]) -> tuple[Node, ...]:
    """nodes sorted and without repeats; one pass when they already
    are."""
    nodes = tuple(nodes)
    keys = list(map(node_order, nodes))
    if all(map(lt, keys, keys[1:])):
        return nodes
    return tuple(sorted(set(nodes), key=node_order))


@dataclass(frozen=True)
class Partition:
    """A partition of a finite node universe into nonempty classes:
    ``ids[i]`` is the class of ``universe[i]``. Equal iff the universes
    are equal and induce the same equivalence relation."""

    universe: tuple[Node, ...]
    ids: tuple[int, ...]
    class_count: int = field(compare=False)

    def __init__(self, universe: Iterable[Node],
                 classes: Iterable[Iterable[Node]]):
        universe = _sorted_unique(universe)
        members = [set(cls) for cls in classes]
        if not all(members):
            raise UniverseMismatch("partition classes must be nonempty")
        covered = set().union(*members)
        if sum(map(len, members)) != len(covered):
            raise UniverseMismatch("partition classes overlap")
        if covered != set(universe):
            raise UniverseMismatch(
                "partition classes do not cover exactly the universe")
        class_of = {node: c for c, cls in enumerate(members) for node in cls}
        self._assign(universe, [class_of[node] for node in universe])

    @classmethod
    def _build(cls, universe: tuple[Node, ...],
               keys: Iterable[Hashable]) -> "Partition":
        """The partition of a sorted, repeat-free universe in which two
        positions share a class iff their keys are equal; checks
        nothing and skips ``__init__``."""
        p = object.__new__(cls)
        p._assign(universe, keys)
        return p

    def _assign(self, universe: tuple[Node, ...],
                keys: Iterable[Hashable]) -> None:
        first: dict[Hashable, int] = {}
        ids = tuple([first.setdefault(key, len(first)) for key in keys])
        object.__setattr__(self, "universe", universe)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "class_count", len(first))

    @cached_property
    def classes(self) -> tuple[tuple[Node, ...], ...]:
        members: list[list[Node]] = [[] for _ in range(self.class_count)]
        for node, c in zip(self.universe, self.ids):
            members[c].append(node)
        return tuple(map(tuple, members))

    @cached_property
    def _index(self) -> dict[Node, int]:
        return dict(zip(self.universe, self.ids))

    def class_of(self, node: Node) -> tuple[Node, ...]:
        return self.classes[self._index[node]]

    def same_class(self, a: Node, b: Node) -> bool:
        return self._index[a] == self._index[b]

    def refines(self, other: "Partition") -> bool:
        """True when every class here lies inside one class of other.

        Both partitions must be over the same universe.
        """
        if self.universe != other.universe:
            raise UniverseMismatch("refines needs a shared universe")
        return _whole_classes(self, other) == self.class_count

    def to_json_dict(self) -> dict:
        return {
            "universe_size": len(self.universe),
            "classes": [[node.key for node in cls] for cls in self.classes],
        }


def partition_from_map(universe: Iterable[Node], mapping) -> Partition:
    """Partition of universe into fibers of mapping (node -> anything
    hashable)."""
    universe = _sorted_unique(universe)
    return Partition._build(universe, map(mapping, universe))


def fibers(graph: LabeledGraph, label: str,
           universe: Sequence[Node] | None = None) -> Partition:
    """Quotient of the label's domain (or of universe) by the label map.

    With an explicit universe, every node in it must carry the label.
    """
    edges = graph.label_map(label)
    if universe is None:
        nodes = graph.domain(label)
        targets = list(map(edges.__getitem__, nodes))
    else:
        nodes = _sorted_unique(universe)
        targets = list(map(edges.get, nodes))
        if not all(targets):  # a None among them: nodes are always truthy
            missing = [n for n in universe if n not in edges]
            raise DomainGap(
                f"label {label!r} is undefined on "
                f"{', '.join(n.key for n in missing)}",
                label=label, nodes=tuple(missing))
    # equal targets are often distinct Node objects; their sort keys
    # hash and compare without a Python-level call
    return Partition._build(nodes, map(node_order, targets))


def _label_maps(graph: LabeledGraph,
                labels: Sequence[str]) -> list[Mapping[Node, Node]]:
    if not labels:
        raise DomainGap("a label path needs at least one label")
    for name in labels:
        graph.label(name)
    return [graph.label_map(name) for name in labels]


def _walk(maps: Sequence[Mapping[Node, Node]], node: Node) -> tuple[int, Node]:
    """Follow the label path from node as far as it is defined: the
    number of steps taken and the node reached."""
    for step, edges in enumerate(maps):
        nxt = edges.get(node)
        if nxt is None:
            return step, node
        node = nxt
    return len(maps), node


def composite_domain(graph: LabeledGraph,
                     labels: Sequence[str]) -> tuple[list[Node], list[Node]]:
    """Largest subset of the first label's domain on which the whole
    label path is defined, plus the nodes of that domain it drops.

    Returns (kept, excluded), both sorted.
    """
    maps = _label_maps(graph, labels)
    kept: list[Node] = []
    excluded: list[Node] = []
    for node in graph.domain(labels[0]):
        step, _ = _walk(maps, node)
        (kept if step == len(maps) else excluded).append(node)
    return kept, excluded


def composite_partition(graph: LabeledGraph, labels: Sequence[str],
                        universe: Sequence[Node]) -> Partition:
    """Fibers of the composite map along a label path, over universe.

    Every node of universe must complete the whole path; a node that
    cannot raises DomainGap naming the failing step.
    """
    maps = _label_maps(graph, labels)
    targets: dict[Node, Node] = {}
    for node in universe:
        step, reached = _walk(maps, node)
        if step < len(maps):
            name = labels[step]
            raise DomainGap(
                f"label {name!r} (step {step + 1} of the path) is "
                f"undefined at {reached.key}, reached from {node.key}",
                label=name, nodes=(node,), step=step)
        targets[node] = reached
    return partition_from_map(universe, targets.__getitem__)


def common_domain(graph: LabeledGraph,
                  labels: Sequence[str]) -> tuple[list[Node], list[Node]]:
    """Nodes carrying every one of the labels, and the nodes excluded
    from the union of their domains.

    Returns (kept, excluded), both sorted.
    """
    for name in labels:
        graph.label(name)
    if not labels:
        return [], []
    # a set built from a dict reuses the hashes the dict stored
    domains = [set(graph.label_map(name)) for name in labels]
    shared = set.intersection(*domains)
    excluded = set.union(*domains) - shared
    return ([n for n in graph.domain(labels[0]) if n in shared],
            sorted(excluded, key=node_order))


def meet(*partitions: Partition) -> Partition:
    """Product partition: coarsest partition refining all of them.

    Two nodes share a class iff they share a class in every argument.
    """
    if not partitions:
        raise UniverseMismatch("meet needs at least one partition")
    first = partitions[0]
    for p in partitions[1:]:
        if p.universe != first.universe:
            raise UniverseMismatch("meet needs a shared universe")
    return Partition._build(first.universe, zip(*(p.ids for p in partitions)))


def _whole_classes(fine: Partition, coarse: Partition) -> int:
    """Number of classes of fine lying inside one class of coarse, in
    one pass over the two id sequences."""
    coarse_of: dict[int, int] = {}
    split: set[int] = set()
    for f, c in zip(fine.ids, coarse.ids):
        if coarse_of.setdefault(f, c) != c:
            split.add(f)
    return fine.class_count - len(split)


def directed_intersection_count(fine: Partition, coarse: Partition) -> int:
    """Number of classes of fine wholly contained in some class of
    coarse. Asymmetric: swapping the arguments changes the answer."""
    if fine.universe != coarse.universe:
        raise UniverseMismatch(
            "directed intersection needs a shared universe")
    return _whole_classes(fine, coarse)
