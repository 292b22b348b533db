"""Entropy and information-flow measures over label-map partitions.

A map that collapses k distinctions out of n destroys ln(n) - ln(k)
nats. Everything here is counting-based: entropy of a partition is the
log of its class count, loss compares it against the universe size, and
the propagation probability exp(-loss) is exactly the surviving
fraction of classes. Dependency between two labels is measured through
the directed intersection of their quotients, and path_distance turns
accumulated loss into a distance between two nodes of the graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

from .errors import DomainGap, EmptyUniverse, UnknownNode
from .model import LabeledGraph, Node
from .partition import (
    Partition,
    common_domain,
    composite_domain,
    composite_partition,
    directed_intersection_count,
    fibers,
    meet,
)

INF = float("inf")


def _json_num(x: float) -> Union[float, str]:
    if x == INF:
        return "inf"
    if x == -INF:
        return "-inf"
    return float(f"{x:.12g}")


def entropy(p: Partition) -> float:
    """ln(class count), in nats."""
    if p.class_count == 0:
        raise EmptyUniverse("entropy of an empty partition")
    return math.log(p.class_count)


def entropy_loss(p: Partition) -> float:
    """ln(universe size) - ln(class count); always >= 0."""
    if not p.universe:
        raise EmptyUniverse("entropy loss over an empty universe")
    return math.log(len(p.universe)) - math.log(p.class_count)


def propagation_probability(loss: float) -> float:
    """exp(-loss): the fraction of distinctions that survive. Equals
    class_count/universe_size when loss came from entropy_loss."""
    return math.exp(-loss)


def dependency_loss(p_from: Partition, p_to: Partition) -> float:
    """ln|from classes| - ln(directed intersection count).

    Infinite when no class of p_from sits inside a class of p_to: the
    first property then carries no information about the second.
    """
    if not p_from.universe:
        raise EmptyUniverse("dependency loss over an empty universe")
    count = directed_intersection_count(p_from, p_to)
    if count == 0:
        return INF
    return math.log(p_from.class_count) - math.log(count)


def relevancy_score(count: int) -> float | None:
    """(1/count) ln(count); None when count is 0 (undefined, not an
    error)."""
    if count < 0:
        raise ValueError("relevancy_score needs a non-negative count")
    if count == 0:
        return None
    return math.log(count) / count


def composite_loss(graph: LabeledGraph, labels: Sequence[str],
                   universe: Sequence[Node]) -> float:
    """Entropy loss of the composite map along a label path, pulled
    back to universe."""
    return entropy_loss(composite_partition(graph, labels, universe))


# -- reports -----------------------------------------------------------


@dataclass(frozen=True)
class InfoReport:
    """Entropy summary of one quotient: a label's fibers or a label
    path's composite fibers."""

    query: dict
    universe_size: int
    class_count: int
    entropy: float
    entropy_loss: float
    propagation: float
    relevancy: float | None
    excluded_nodes: int = 0

    def to_json_dict(self) -> dict:
        return {
            "query": self.query,
            "universe_size": self.universe_size,
            "class_count": self.class_count,
            "entropy_nats": _json_num(self.entropy),
            "entropy_loss_nats": _json_num(self.entropy_loss),
            "propagation": _json_num(self.propagation),
            "relevancy_nats": ("undefined" if self.relevancy is None
                               else _json_num(self.relevancy)),
            "excluded_nodes": self.excluded_nodes,
        }


def _report(query: dict, p: Partition, excluded: int) -> InfoReport:
    loss = entropy_loss(p)
    return InfoReport(
        query=query,
        universe_size=len(p.universe),
        class_count=p.class_count,
        entropy=entropy(p),
        entropy_loss=loss,
        propagation=propagation_probability(loss),
        relevancy=relevancy_score(p.class_count),
        excluded_nodes=excluded,
    )


def label_report(graph: LabeledGraph, label: str) -> InfoReport:
    """Entropy report for one label over its full domain.

    An undeclared label is an UnknownLabel; a declared one with no
    annotation, an EmptyUniverse."""
    graph.label(label)
    domain = graph.domain(label)
    if not domain:
        raise EmptyUniverse(f"label {label!r} has an empty domain")
    return _report({"kind": "label", "label": label},
                   fibers(graph, label, domain), excluded=0)


def path_report(graph: LabeledGraph, labels: Sequence[str]) -> InfoReport:
    """Entropy report for a label path over the largest part of the
    first label's domain that completes the whole path.

    Nodes of the first domain that cannot complete the path are counted
    in excluded_nodes. An empty composite domain is a DomainGap.
    """
    kept, excluded = composite_domain(graph, labels)
    if not kept:
        raise DomainGap(
            f"no node completes the path {', '.join(labels)}",
            label=labels[0], nodes=tuple(excluded))
    return _report({"kind": "path", "labels": list(labels)},
                   composite_partition(graph, labels, kept),
                   excluded=len(excluded))


@dataclass(frozen=True)
class DependencyReport:
    """How far one set of properties determines another, over their
    common domain."""

    query: dict
    universe_size: int
    from_class_count: int
    to_class_count: int
    intersection_count: int
    dependency_loss: float
    propagation: float
    relevancy: float | None
    terminated: bool
    excluded_nodes: int

    def to_json_dict(self) -> dict:
        entropy_raw = (-INF if self.intersection_count == 0
                       else math.log(self.intersection_count))
        return {
            "query": self.query,
            "universe_size": self.universe_size,
            "from_class_count": self.from_class_count,
            "to_class_count": self.to_class_count,
            "intersection_count": self.intersection_count,
            "intersection_entropy_nats": _json_num(entropy_raw),
            "dependency_loss_nats": _json_num(self.dependency_loss),
            "propagation": _json_num(self.propagation),
            "relevancy_nats": ("undefined" if self.relevancy is None
                               else _json_num(self.relevancy)),
            "terminated": self.terminated,
            "excluded_nodes": self.excluded_nodes,
        }


def dependency(graph: LabeledGraph, from_labels: Sequence[str],
               to_label: str) -> DependencyReport:
    """Dependency of to_label on the from_labels combination.

    The analysis universe is the common domain of all labels involved;
    nodes carrying only some of them are excluded and counted. With
    several from_labels their fibers are combined with meet.
    """
    if not from_labels:
        raise EmptyUniverse("dependency needs at least one source label")
    shared, excluded = common_domain(graph, [*from_labels, to_label])
    if not shared:
        raise EmptyUniverse(
            "the labels share no domain nodes; nothing to compare")
    p_from = meet(*(fibers(graph, name, shared) for name in from_labels))
    p_to = fibers(graph, to_label, shared)
    count = directed_intersection_count(p_from, p_to)
    loss = dependency_loss(p_from, p_to)
    return DependencyReport(
        query={"kind": "dependency", "from": list(from_labels),
               "to": to_label},
        universe_size=len(shared),
        from_class_count=p_from.class_count,
        to_class_count=p_to.class_count,
        intersection_count=count,
        dependency_loss=loss,
        propagation=propagation_probability(loss),
        relevancy=relevancy_score(count),
        terminated=count == 0,
        excluded_nodes=len(excluded),
    )


# -- path distance -----------------------------------------------------


@dataclass(frozen=True)
class ChainMove:
    """A maximal run of map edges followed source to target.

    Costed as one unit: the composite loss of its label path over the
    largest domain completing that path, so consecutive hops share one
    base universe and the per-hop losses telescope.
    """

    labels: tuple[str, ...]
    nodes: tuple[Node, ...]
    cost: float

    @property
    def target(self) -> Node:
        return self.nodes[-1]

    def to_json_dict(self) -> dict:
        return {
            "move": "chain",
            "labels": list(self.labels),
            "nodes": [n.key for n in self.nodes],
            "cost_nats": _json_num(self.cost),
        }


@dataclass(frozen=True)
class JunctionMove:
    """A hop from an image node of one label to an image node of
    another through their shared source set: x <-f- z -g-> y.

    Costed as the dependency loss of f toward g over their common
    domain.
    """

    from_label: str
    to_label: str
    source: Node
    target: Node
    cost: float

    def to_json_dict(self) -> dict:
        return {
            "move": "junction",
            "labels": [self.from_label, self.to_label],
            "from": self.source.key,
            "to": self.target.key,
            "cost_nats": _json_num(self.cost),
        }


Move = Union[ChainMove, JunctionMove]


@dataclass(frozen=True)
class DistanceResult:
    source: Node
    target: Node
    distance: float
    moves: tuple[Move, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "query": {"kind": "distance", "from": self.source.key,
                      "to": self.target.key},
            "distance_nats": _json_num(self.distance),
            "path": [m.to_json_dict() for m in self.moves],
        }


def _chain_cost(graph: LabeledGraph, labels: Sequence[str]) -> float:
    kept, _ = composite_domain(graph, labels)
    # nonempty whenever the chain was actually walked: its start node
    # completes the path by construction
    return composite_loss(graph, labels, kept)


def path_distance(graph: LabeledGraph, source: Node,
                  target: Node) -> DistanceResult:
    """Minimum accumulated information loss over simple paths from
    source to target.

    A path alternates two kinds of moves. A chain move follows map
    edges in their own direction; its cost is the composite loss of the
    traversed label sequence over the largest domain completing it, so
    a longer chain is costed as one composite map rather than a sum of
    unrelated per-edge terms. A junction move crosses from an image
    node of label f to an image node of label g through their shared
    source set, at the dependency loss of f toward g; a junction whose
    dependency terminates (infinite loss) is never taken. Among
    minimum-cost paths the one with the lexicographically smallest
    label sequence (then node-key sequence) is reported.

    Returns distance infinity with no moves when the nodes are not
    connected by any finite-cost path.

    A junction's cost and targets belong to its label pair, not to the
    node the walk stands on, so one table of the finite junctions is
    built per query, in O(L^2 * |domain|) for L labels, and each
    visited node only scans that table. The search itself is still
    exhaustive over simple paths: a chain is re-costed from its start at
    every hop, and the walker recurses once per hop, so a chain of about
    a thousand nodes is out of reach.
    """
    for node in (source, target):
        if not graph.has_node(node):
            raise UnknownNode(f"node {node.key} is not in the graph")
    if source == target:
        return DistanceResult(source, target, 0.0)

    # (f, g, cost, {f(z): sorted g(z)}) for every finite junction
    junctions = []
    labels = sorted(graph.labels)
    for f in labels:
        for g in labels:
            shared, _ = common_domain(graph, [f, g])
            if not shared:
                continue
            cost = dependency_loss(fibers(graph, f, shared),
                                   fibers(graph, g, shared))
            if cost == INF:
                continue
            f_map, g_map = graph.label_map(f), graph.label_map(g)
            targets: dict[Node, set[Node]] = {}
            for z in shared:
                targets.setdefault(f_map[z], set()).add(g_map[z])
            junctions.append((f, g, cost, {x: sorted(ys)
                                           for x, ys in targets.items()}))

    # the best (cost, label sequence, node-key sequence, moves) so far,
    # compared on its first three fields
    best: list[tuple | None] = [None]

    def consider(cand: tuple) -> None:
        if cand[0] == INF:
            return
        if best[0] is None or cand[:3] < best[0][:3]:
            best[0] = cand

    def walk(at: Node, visited: frozenset[Node], done_cost: float,
             done_moves: tuple[Move, ...], chain: tuple[str, ...],
             chain_nodes: tuple[Node, ...], label_seq: tuple[str, ...],
             key_seq: tuple[str, ...]) -> None:
        # close the open chain, if any, into a finished move list
        if chain:
            closed_moves = done_moves + (
                ChainMove(chain, chain_nodes, _chain_cost(graph, chain)),)
            closed_cost = done_cost + closed_moves[-1].cost
        else:
            closed_moves = done_moves
            closed_cost = done_cost
        if at == target:
            consider((closed_cost, label_seq, key_seq, closed_moves))
            return

        # extend the open chain by one edge
        for edge in graph.out_edges(at):
            nxt = edge.target
            if nxt in visited:
                continue
            walk(nxt, visited | {nxt}, done_cost, done_moves,
                 chain + (edge.label,),
                 (chain_nodes or (at,)) + (nxt,),
                 label_seq + (edge.label,), key_seq + (nxt.key,))

        # or close it and jump across a junction
        for f, g, cost, targets in junctions:
            for nxt in targets.get(at, ()):
                if nxt in visited:
                    continue
                move = JunctionMove(f, g, at, nxt, cost)
                walk(nxt, visited | {nxt}, closed_cost + cost,
                     closed_moves + (move,), (), (),
                     label_seq + (f, g), key_seq + (nxt.key,))

    walk(source, frozenset([source]), 0.0, (), (), (),
         (), (source.key,))

    if best[0] is None:
        return DistanceResult(source, target, INF)
    cost, _, _, moves = best[0]
    return DistanceResult(source, target, cost, moves)
