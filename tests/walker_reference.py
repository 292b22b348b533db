"""Test-only reference: ``path_distance`` as it was before the junction
table, kept verbatim.

It recomputes each junction's cost and targets at every visited node, so
it is slow, but it is the walker the table-driven one must agree with,
move for move and tie-break for tie-break. ``tests/test_differential.py``
compares the two on random small graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from labelflow.errors import UnknownNode
from labelflow.info import (
    INF,
    ChainMove,
    DistanceResult,
    JunctionMove,
    Move,
    composite_loss,
    dependency_loss,
)
from labelflow.model import LabeledGraph, Node
from labelflow.partition import common_domain, composite_domain, fibers


def _chain_cost(graph: LabeledGraph, labels: Sequence[str]) -> float:
    kept, _ = composite_domain(graph, labels)
    # nonempty whenever the chain was actually walked: its start node
    # completes the path by construction
    return composite_loss(graph, labels, kept)


def _junction_targets(graph: LabeledGraph, f: str, g: str,
                      x: Node) -> list[Node]:
    shared, _ = common_domain(graph, [f, g])
    out = {graph.target(g, z) for z in shared if graph.target(f, z) == x}
    return sorted(out)


def _junction_cost(graph: LabeledGraph, f: str, g: str) -> float:
    shared, _ = common_domain(graph, [f, g])
    if not shared:
        return INF
    return dependency_loss(fibers(graph, f, shared),
                           fibers(graph, g, shared))


@dataclass
class _Candidate:
    cost: float
    labels: tuple[str, ...]
    node_keys: tuple[str, ...]
    moves: tuple[Move, ...]

    def key(self):
        return (self.cost, self.labels, self.node_keys)


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
    """
    for node in (source, target):
        if not graph.has_node(node):
            raise UnknownNode(f"node {node.key} is not in the graph")
    if source == target:
        return DistanceResult(source, target, 0.0)

    labels = sorted(graph.labels)
    best: list[_Candidate | None] = [None]

    def consider(cand: _Candidate) -> None:
        if cand.cost == INF:
            return
        if best[0] is None or cand.key() < best[0].key():
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
            consider(_Candidate(closed_cost, label_seq, key_seq,
                                closed_moves))
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
        for f in labels:
            for g in labels:
                cost = _junction_cost(graph, f, g)
                if cost == INF:
                    continue
                for nxt in _junction_targets(graph, f, g, at):
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
    found = best[0]
    return DistanceResult(source, target, found.cost, found.moves)
