import math

import pytest
from hypothesis import given, strategies as st

from labelflow import (
    EmptyUniverse,
    Node,
    Partition,
    Region,
    UnknownLabel,
    UnknownNode,
    build_graph,
    composite_loss,
    composite_partition,
    dependency,
    dependency_loss,
    entropy,
    entropy_loss,
    fibers,
    label_report,
    path_distance,
    path_report,
    propagation_probability,
    relevancy_score,
    rulespec_from_json,
    generate_universe,
    universe_layout,
)
from labelflow.partition import partition_from_map
from conftest import (
    EXAMPLE1_RULES,
    abstract_nodes,
    chain_graph,
    eq12_dataset,
    fig2_dataset,
    fig2_spans,
    graph_of,
)

INF = float("inf")


def from_lists(universe, classes):
    return Partition(universe, classes)


class TestEntropy:
    def test_one_class_is_zero(self):
        nodes = abstract_nodes(4)
        assert entropy(from_lists(nodes, [nodes])) == 0.0

    def test_singletons(self):
        nodes = abstract_nodes(5)
        p = from_lists(nodes, [[n] for n in nodes])
        assert entropy(p) == pytest.approx(math.log(5), abs=1e-12)
        assert entropy_loss(p) == 0.0

    def test_three_of_six(self):
        nodes = abstract_nodes(6)
        p = from_lists(nodes, [nodes[0:2], nodes[2:4], nodes[4:6]])
        assert entropy(p) == pytest.approx(math.log(3), abs=1e-12)
        assert entropy_loss(p) == pytest.approx(math.log(2), abs=1e-12)
        assert propagation_probability(entropy_loss(p)) == \
            pytest.approx(0.5, abs=1e-12)

    def test_constant_map_loses_everything(self):
        nodes = abstract_nodes(7)
        p = from_lists(nodes, [nodes])
        assert entropy_loss(p) == pytest.approx(math.log(7), abs=1e-12)

    def test_empty_partition(self):
        with pytest.raises(EmptyUniverse):
            entropy(Partition([], []))
        with pytest.raises(EmptyUniverse):
            entropy_loss(Partition([], []))


class TestPropagation:
    def test_zero_loss(self):
        assert propagation_probability(0.0) == 1.0

    def test_infinite_loss(self):
        assert propagation_probability(INF) == 0.0

    @given(st.integers(1, 64), st.integers(0, 10 ** 6))
    def test_matches_class_ratio(self, n, seed):
        import random
        rng = random.Random(seed)
        nodes = abstract_nodes(n)
        targets = [rng.randint(0, n - 1) for _ in range(n)]
        index = {x: i for i, x in enumerate(nodes)}
        p = partition_from_map(nodes, lambda x: targets[index[x]])
        assert propagation_probability(entropy_loss(p)) == pytest.approx(
            p.class_count / n, abs=1e-12)


class TestDependencyLoss:
    def test_identical_partitions(self):
        nodes = abstract_nodes(4)
        p = from_lists(nodes, [nodes[:2], nodes[2:]])
        assert dependency_loss(p, p) == 0.0

    def test_refinement_means_full_determination(self):
        nodes = abstract_nodes(4)
        fine = from_lists(nodes, [[n] for n in nodes])
        coarse = from_lists(nodes, [nodes[:2], nodes[2:]])
        # every singleton sits inside a pair, so nothing is lost
        assert dependency_loss(fine, coarse) == 0.0
        assert propagation_probability(0.0) == 1.0
        assert dependency_loss(coarse, coarse) == 0.0

    def test_partial_determination(self):
        a, b, c, d = abstract_nodes(4)
        fine = from_lists([a, b, c, d], [[a], [b], [c, d]])
        coarse = from_lists([a, b, c, d], [[a, c], [b, d]])
        # {a} and {b} land inside coarse classes, {c, d} straddles
        assert dependency_loss(fine, coarse) == \
            pytest.approx(math.log(3) - math.log(2), abs=1e-12)
        assert propagation_probability(dependency_loss(fine, coarse)) == \
            pytest.approx(2 / 3, abs=1e-12)

    def test_termination(self):
        a, b, c, d = abstract_nodes(4)
        rows = from_lists([a, b, c, d], [[a, b], [c, d]])
        cols = from_lists([a, b, c, d], [[a, c], [b, d]])
        assert dependency_loss(rows, cols) == INF
        assert propagation_probability(dependency_loss(rows, cols)) == 0.0


class TestRelevancy:
    def test_zero_is_undefined(self):
        assert relevancy_score(0) is None

    def test_one_is_zero(self):
        assert relevancy_score(1) == 0.0

    def test_published_values(self):
        assert relevancy_score(2) == pytest.approx(0.346573590279973,
                                                   abs=1e-9)
        assert relevancy_score(6) == pytest.approx(0.2986265782046758,
                                                   abs=1e-9)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            relevancy_score(-1)


class TestReports:
    def test_label_report_fields(self):
        g = graph_of(eq12_dataset())
        report = label_report(g, "class").to_json_dict()
        assert report["universe_size"] == 5
        assert report["class_count"] == 3
        assert report["entropy_nats"] == pytest.approx(math.log(3),
                                                       abs=1e-9)
        assert report["excluded_nodes"] == 0

    def test_label_report_undeclared_label_is_unknown(self):
        obj = eq12_dataset()
        obj["labels"].append({"name": "unused", "direction": "forward"})
        g = graph_of(obj)
        with pytest.raises(UnknownLabel,
                           match="^label 'nope' is not declared$"):
            label_report(g, "nope")
        # declared but never annotated: an empty domain
        with pytest.raises(EmptyUniverse,
                           match="^label 'unused' has an empty domain$"):
            label_report(g, "unused")

    def test_path_report_uses_largest_completing_domain(self):
        g = graph_of(eq12_dataset())
        report = path_report(g, ["class", "class"]).to_json_dict()
        assert report["universe_size"] == 3
        assert report["class_count"] == 1
        assert report["entropy_loss_nats"] == pytest.approx(math.log(3),
                                                            abs=1e-9)
        assert report["excluded_nodes"] == 2

    def test_terminated_dependency_encoding(self):
        g = graph_of(
            _example1_dataset())
        report = dependency(g, ["color"], "price").to_json_dict()
        assert report["dependency_loss_nats"] == "inf"
        assert report["intersection_entropy_nats"] == "-inf"
        assert report["propagation"] == 0
        assert report["relevancy_nats"] == "undefined"
        assert report["terminated"] is True

    def test_meet_dependency(self):
        g = graph_of(_example1_dataset())
        report = dependency(g, ["color", "size"], "price")
        assert report.from_class_count == 6
        assert report.intersection_count == 6
        assert report.dependency_loss == 0.0
        assert report.propagation == 1.0


def _example1_dataset():
    import json
    from labelflow import serialize_dataset
    spec = rulespec_from_json(EXAMPLE1_RULES)
    return json.loads(serialize_dataset(generate_universe(spec)))


class TestCompositeLoss:
    def test_two_step_chain(self):
        graph, leaves, _, _, _ = chain_graph(
            [0, 0, 1, 1, 2, 2], [0, 0, 1])
        total = composite_loss(graph, ["f", "g"], leaves)
        p1 = fibers(graph, "f", leaves)
        pc = composite_partition(graph, ["f", "g"], leaves)
        step1 = entropy_loss(p1)
        step2 = math.log(p1.class_count) - math.log(pc.class_count)
        assert total == pytest.approx(step1 + step2, abs=1e-12)
        assert step1 >= 0 and step2 >= 0


# -- path distance -----------------------------------------------------


def _independent_chain_cost(graph, labels):
    """Recompute a chain's cost with plain dict grouping."""
    def follow(n):
        for name in labels:
            n = graph.target(name, n)
            if n is None:
                return None
        return n

    domain = [n for n in graph.domain(labels[0]) if follow(n) is not None]
    ends = {follow(n) for n in domain}
    return math.log(len(domain)) - math.log(len(ends))


def _independent_junction_cost(graph, f, g):
    shared = sorted(set(graph.domain(f)) & set(graph.domain(g)))
    if not shared:
        return INF
    f_classes = {}
    g_classes = {}
    for z in shared:
        f_classes.setdefault(graph.target(f, z), set()).add(z)
        g_classes.setdefault(graph.target(g, z), set()).add(z)
    inside = sum(1 for a in f_classes.values()
                 if any(a <= b for b in g_classes.values()))
    if inside == 0:
        return INF
    return math.log(len(f_classes)) - math.log(inside)


def brute_force_distance(graph, source, target, max_moves=4):
    """Minimum cost over all move sequences of bounded length,
    enumerated outright: maximal edge chains (a chain is never followed
    by another chain) and junction hops, visiting each node at most
    once."""
    best = [INF]
    label_names = sorted(graph.labels)

    def chains_from(at, visited):
        found = []

        def go(node, labels, vis):
            if labels:
                found.append((node, labels, vis))
            for edge in graph.out_edges(node):
                if edge.target in vis:
                    continue
                go(edge.target, labels + (edge.label,),
                   vis | {edge.target})

        go(at, (), visited)
        return found

    def junctions_from(at, visited):
        for f in label_names:
            for g in label_names:
                cost = _independent_junction_cost(graph, f, g)
                if cost == INF:
                    continue
                shared = set(graph.domain(f)) & set(graph.domain(g))
                targets = {graph.target(g, z) for z in shared
                           if graph.target(f, z) == at}
                for t in sorted(targets):
                    if t not in visited:
                        yield t, cost

    def search(at, visited, cost, moves, after_chain):
        if at == target:
            best[0] = min(best[0], cost)
            return
        if moves >= max_moves:
            return
        if not after_chain:
            for nxt, labels, vis in chains_from(at, visited):
                step = _independent_chain_cost(graph, labels)
                search(nxt, vis, cost + step, moves + 1, True)
        for nxt, step in junctions_from(at, visited):
            search(nxt, visited | {nxt}, cost + step, moves + 1, False)

    search(source, frozenset([source]), 0.0, 0, False)
    return best[0]


class TestPathDistance:
    def test_same_node(self):
        g = graph_of(fig2_dataset())
        spans = fig2_spans()
        black = Node(Region("d", *spans["black"]))
        result = path_distance(g, black, black)
        assert result.distance == 0.0
        assert result.moves == ()

    def test_unknown_node(self):
        g = graph_of(fig2_dataset())
        with pytest.raises(UnknownNode):
            path_distance(g, Node(Region("d", 1, 2)),
                          Node(Region("d", 0, 5)))

    def test_disconnected(self):
        g = graph_of(fig2_dataset())
        spans = fig2_spans()
        black = Node(Region("d", *spans["black"]))
        woman = Node(Region("d", *spans["woman"]))
        result = path_distance(g, black, woman)
        assert result.distance == INF
        assert result.moves == ()

    def test_owner_to_color_chain(self):
        g = graph_of(fig2_dataset())
        spans = fig2_spans()
        woman = Node(Region("d", *spans["woman"]))
        black = Node(Region("d", *spans["black"]))
        result = path_distance(g, woman, black)
        assert result.distance == pytest.approx(math.log(2), abs=1e-12)
        assert len(result.moves) == 1
        assert result.moves[0].labels == ("owning", "color")

    def test_junction_crossing(self):
        spec = rulespec_from_json(EXAMPLE1_RULES)
        g = build_graph(generate_universe(spec))
        layout = universe_layout(spec)
        small = Node(layout.mention_regions[("size", "small")])
        cheap = Node(layout.mention_regions[("price", "inexpensive")])
        red = Node(layout.mention_regions[("color", "red")])
        result = path_distance(g, small, cheap)
        assert result.distance == 0.0
        move = result.moves[0]
        assert (move.from_label, move.to_label) == ("size", "price")
        assert path_distance(g, red, cheap).distance == INF

    def test_matches_brute_force(self):
        cases = []
        g1 = graph_of(fig2_dataset())
        cases.extend((g1, a, b) for a in g1.nodes for b in g1.nodes)
        spec = rulespec_from_json(EXAMPLE1_RULES)
        g2 = build_graph(generate_universe(spec))
        layout = universe_layout(spec)
        mentions = [Node(r) for r in layout.mention_regions.values()]
        cases.extend((g2, a, b) for a in mentions for b in mentions)
        for graph, a, b in cases:
            got = path_distance(graph, a, b).distance
            want = brute_force_distance(graph, a, b)
            if want == INF:
                assert got == INF, (a.key, b.key)
            else:
                assert got == pytest.approx(want, abs=1e-12), (a.key, b.key)

    def test_result_distance_is_sum_of_move_costs(self):
        g = graph_of(fig2_dataset())
        spans = fig2_spans()
        woman = Node(Region("d", *spans["woman"]))
        black = Node(Region("d", *spans["black"]))
        result = path_distance(g, woman, black)
        assert result.distance == pytest.approx(
            sum(m.cost for m in result.moves), abs=1e-12)
