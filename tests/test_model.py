import pytest
from hypothesis import given, strategies as st

from labelflow import (
    Annotation,
    BadNesting,
    Direction,
    Document,
    DuplicateLabelName,
    LabelDecl,
    LabeledGraph,
    MapEdge,
    MapNotWellDefined,
    Node,
    Region,
    UnknownLabel,
    map_endpoints,
    region_contains,
)


def region(start, end, doc="d"):
    return Region(doc, start, end)


class TestRegionContains:
    def test_nested(self):
        assert region_contains(region(0, 100), region(10, 20))

    def test_identical_is_not_contained(self):
        assert not region_contains(region(10, 20), region(10, 20))

    def test_cross_document(self):
        assert not region_contains(region(0, 100, "d1"), region(5, 9, "d2"))

    def test_shared_boundary_still_counts(self):
        assert region_contains(region(0, 20), region(0, 5))
        assert region_contains(region(0, 20), region(15, 20))

    def test_overlap_without_inclusion(self):
        assert not region_contains(region(0, 15), region(10, 20))


class TestDocument:
    def test_byte_offsets_on_multibyte_text(self):
        doc = Document("d", "aéb")
        assert doc.byte_length == 4
        assert doc.surface(region(1, 3)) == "é"

    def test_node_key_format(self):
        assert Node(region(3, 9, "doc1")).key == "doc1:3-9"


def forward_graph():
    return LabeledGraph([LabelDecl("class", Direction.FORWARD)])


class TestAddAnnotation:
    def test_forward_edge_orientation(self):
        g = forward_graph()
        ann = Annotation("class", mention=region(17, 20), entity=region(9, 27))
        g.add(ann)
        assert MapEdge("class", Node(region(17, 20)), Node(region(9, 27))) in g.edges

    def test_backward_edge_orientation(self):
        g = LabeledGraph([LabelDecl("color", Direction.BACKWARD)])
        g.add(Annotation("color", mention=region(0, 5), entity=region(0, 30)))
        assert MapEdge("color", Node(region(0, 30)), Node(region(0, 5))) in g.edges

    def test_shared_target_is_fine(self):
        g = LabeledGraph([LabelDecl("color", Direction.BACKWARD)])
        g.add(Annotation("color", mention=region(0, 5), entity=region(0, 30)))
        g.add(Annotation("color", mention=region(0, 5), entity=region(0, 60)))
        assert len(g.edges) == 2
        assert g.sources("color", Node(region(0, 5))) == (
            Node(region(0, 30)), Node(region(0, 60)))

    def test_conflicting_targets_rejected(self):
        g = forward_graph()
        g.add(Annotation("class", mention=region(0, 3), entity=region(0, 10)))
        with pytest.raises(MapNotWellDefined) as err:
            g.add(Annotation("class", mention=region(0, 3),
                             entity=region(0, 20)))
        assert err.value.source == "d:0-3"
        assert err.value.first_target == "d:0-10"
        assert err.value.second_target == "d:0-20"

    def test_same_source_different_labels_ok(self):
        g = LabeledGraph([LabelDecl("a", Direction.FORWARD),
                          LabelDecl("b", Direction.FORWARD)])
        g.add(Annotation("a", mention=region(0, 3), entity=region(0, 10)))
        g.add(Annotation("b", mention=region(0, 3), entity=region(0, 20)))
        assert len(g.edges) == 2

    def test_undeclared_label(self):
        with pytest.raises(UnknownLabel):
            forward_graph().add(
                Annotation("nope", mention=region(0, 3), entity=region(0, 10)))

    def test_bad_nesting(self):
        with pytest.raises(BadNesting):
            forward_graph().add(
                Annotation("class", mention=region(5, 30),
                           entity=region(10, 40)))

    def test_equal_regions_rejected(self):
        with pytest.raises(BadNesting):
            forward_graph().add(
                Annotation("class", mention=region(0, 10),
                           entity=region(0, 10)))

    def test_duplicate_is_idempotent(self):
        g = forward_graph()
        ann = Annotation("class", mention=region(0, 3), entity=region(0, 10))
        g.add(ann)
        g.add(ann)
        assert len(g.edges) == 1
        assert len(g.nodes) == 2

    def test_redeclare_with_other_direction(self):
        g = forward_graph()
        g.declare(LabelDecl("class", Direction.FORWARD))
        with pytest.raises(DuplicateLabelName):
            g.declare(LabelDecl("class", Direction.BACKWARD))


class TestMapEndpoints:
    def test_forward(self):
        ann = Annotation("f", mention=region(1, 2), entity=region(0, 9))
        source, target = map_endpoints(LabelDecl("f", Direction.FORWARD), ann)
        assert (source.region, target.region) == (region(1, 2), region(0, 9))

    def test_backward(self):
        ann = Annotation("f", mention=region(1, 2), entity=region(0, 9))
        source, target = map_endpoints(LabelDecl("f", Direction.BACKWARD), ann)
        assert (source.region, target.region) == (region(0, 9), region(1, 2))


@st.composite
def annotation_batches(draw):
    """Batches of structurally valid annotations over a fixed small
    region pool, so conflicts and duplicates actually happen."""
    mentions = [region(i * 10, i * 10 + 3) for i in range(4)]
    entities = [region(0, 100), region(0, 200), region(0, 300)]
    labels = ["f", "g"]
    count = draw(st.integers(0, 12))
    anns = [
        Annotation(draw(st.sampled_from(labels)),
                   mention=draw(st.sampled_from(mentions)),
                   entity=draw(st.sampled_from(entities)))
        for _ in range(count)
    ]
    return anns


@given(annotation_batches())
def test_each_label_stays_a_partial_function(batch):
    g = LabeledGraph([LabelDecl("f", Direction.FORWARD),
                      LabelDecl("g", Direction.FORWARD)])
    accepted = []
    for ann in batch:
        try:
            g.add(ann)
        except MapNotWellDefined:
            continue
        accepted.append(ann)
    for name in ("f", "g"):
        sources = [e.source for e in g.edges if e.label == name]
        assert len(sources) == len(set(sources))
    assert len(g.nodes) <= 2 * len(accepted) or not accepted
    before = (g.nodes, g.edges)
    for ann in accepted:
        g.add(ann)
    assert (g.nodes, g.edges) == before


@given(annotation_batches())
def test_every_edge_respects_containment_direction(batch):
    g = LabeledGraph([LabelDecl("f", Direction.FORWARD),
                      LabelDecl("g", Direction.BACKWARD)])
    for ann in batch:
        try:
            g.add(ann)
        except MapNotWellDefined:
            pass
    for edge in g.edges:
        if g.label(edge.label).direction is Direction.FORWARD:
            assert region_contains(edge.target.region, edge.source.region)
        else:
            assert region_contains(edge.source.region, edge.target.region)
