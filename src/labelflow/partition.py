"""Partitions of node sets and the quotient structure of label maps.

Every label, restricted to a set of source nodes, partitions that set
into fibers: two nodes fall in the same class when the label (or a
composite of labels) sends them to the same final target. All
partitions here are concrete: classes are tuples of Node, canonically
ordered so equal partitions compare and hash equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .errors import DomainGap, UniverseMismatch
from .model import LabeledGraph, Node


def _canon_classes(classes: Iterable[Iterable[Node]]) -> tuple[tuple[Node, ...], ...]:
    ordered = [tuple(sorted(set(cls))) for cls in classes]
    return tuple(sorted(ordered))


@dataclass(frozen=True)
class Partition:
    """A partition of a finite node universe into nonempty classes.

    Classes are sorted internally and between each other, so two
    partitions of the same universe are equal iff they induce the same
    equivalence relation.
    """

    universe: tuple[Node, ...]
    classes: tuple[tuple[Node, ...], ...]

    def __init__(self, universe: Iterable[Node],
                 classes: Iterable[Iterable[Node]]):
        object.__setattr__(self, "universe", tuple(sorted(set(universe))))
        object.__setattr__(self, "classes", _canon_classes(classes))
        covered: set[Node] = set()
        total = 0
        for cls in self.classes:
            if not cls:
                raise UniverseMismatch("partition classes must be nonempty")
            covered.update(cls)
            total += len(cls)
        if total != len(covered):
            raise UniverseMismatch("partition classes overlap")
        if covered != set(self.universe):
            raise UniverseMismatch(
                "partition classes do not cover exactly the universe")

    @cached_property
    def _index(self) -> dict[Node, int]:
        return {node: i for i, cls in enumerate(self.classes) for node in cls}

    @property
    def class_count(self) -> int:
        return len(self.classes)

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
        return all(
            len({other._index[node] for node in cls}) == 1
            for cls in self.classes
        )

    def to_json_dict(self) -> dict:
        return {
            "universe_size": len(self.universe),
            "classes": [[node.key for node in cls] for cls in self.classes],
        }


def partition_from_map(universe: Iterable[Node], mapping) -> Partition:
    """Partition of universe into fibers of mapping (node -> anything
    hashable)."""
    groups: dict[object, list[Node]] = {}
    for node in universe:
        groups.setdefault(mapping(node), []).append(node)
    return Partition(universe, groups.values())


def fibers(graph: LabeledGraph, label: str,
           universe: Sequence[Node] | None = None) -> Partition:
    """Quotient of the label's domain (or of universe) by the label map.

    With an explicit universe, every node in it must carry the label.
    """
    domain = graph.domain(label)
    if universe is None:
        universe = domain
    else:
        missing = [n for n in universe if n not in set(domain)]
        if missing:
            raise DomainGap(
                f"label {label!r} is undefined on "
                f"{', '.join(n.key for n in missing)}",
                label=label, nodes=tuple(missing))
    return partition_from_map(universe, lambda n: graph.target(label, n))


def _check_path(graph: LabeledGraph, labels: Sequence[str]) -> None:
    if not labels:
        raise DomainGap("a label path needs at least one label")
    for name in labels:
        graph.label(name)


def _walk(graph: LabeledGraph, labels: Sequence[str],
          node: Node) -> tuple[int, Node]:
    """Follow the label path from node as far as it is defined: the
    number of steps taken and the node reached."""
    for step, name in enumerate(labels):
        nxt = graph.target(name, node)
        if nxt is None:
            return step, node
        node = nxt
    return len(labels), node


def composite_domain(graph: LabeledGraph,
                     labels: Sequence[str]) -> tuple[list[Node], list[Node]]:
    """Largest subset of the first label's domain on which the whole
    label path is defined, plus the nodes of that domain it drops.

    Returns (kept, excluded), both sorted.
    """
    _check_path(graph, labels)
    kept: list[Node] = []
    excluded: list[Node] = []
    for node in graph.domain(labels[0]):
        step, _ = _walk(graph, labels, node)
        (kept if step == len(labels) else excluded).append(node)
    return kept, excluded


def composite_partition(graph: LabeledGraph, labels: Sequence[str],
                        universe: Sequence[Node]) -> Partition:
    """Fibers of the composite map along a label path, over universe.

    Every node of universe must complete the whole path; a node that
    cannot raises DomainGap naming the failing step.
    """
    _check_path(graph, labels)
    targets: dict[Node, Node] = {}
    for node in universe:
        step, reached = _walk(graph, labels, node)
        if step < len(labels):
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
    domains = [set(graph.domain(name)) for name in labels]
    if not domains:
        return [], []
    shared = set.intersection(*domains)
    union = set.union(*domains)
    return sorted(shared), sorted(union - shared)


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
    return partition_from_map(
        first.universe,
        lambda n: tuple(p._index[n] for p in partitions))


def directed_intersection_count(fine: Partition, coarse: Partition) -> int:
    """Number of classes of fine wholly contained in some class of
    coarse. Asymmetric: swapping the arguments changes the answer."""
    if fine.universe != coarse.universe:
        raise UniverseMismatch(
            "directed intersection needs a shared universe")
    return sum(
        1 for cls in fine.classes
        if len({coarse._index[node] for node in cls}) == 1
    )
