"""Differential tests of the graph index and the class-id partitions.

Random small graphs are built through ``LabeledGraph.add``; alongside,
the test keeps its own plain ``label -> {source: target}`` dicts with
the same first-binding-wins rule. Every read of the graph and every
partition function is compared against an answer computed from those
dicts with sets, sorting by the nodes' own ordering and grouping by
target, sharing no code with the library.

``path_distance`` is compared on the same graphs against
``walker_reference``, the walker as it was before its junction table.

``structural_parse`` is compared on mutated datasets against
``parse_reference``, the parser as it was before its key table.

A parse shares one ``Region`` per span; every result on it is compared
with the result on a copy whose regions are all built anew, so no code
depends on that identity. The ``graph`` command's listings, JSON and
DOT, are compared with the graph's own sorted reads.
"""

import contextlib
import io
import json
import re

import pytest
from hypothesis import given, settings, strategies as st

import labelflow.info
import parse_reference
import walker_reference
from labelflow import (
    Annotation,
    AnnotationSet,
    Direction,
    DomainGap,
    LabelDecl,
    LabeledGraph,
    MalformedInput,
    MapEdge,
    MapNotWellDefined,
    Node,
    Partition,
    Region,
    UnknownNode,
    EmptyUniverse,
    build_graph,
    common_domain,
    composite_domain,
    composite_partition,
    dependency,
    directed_intersection_count,
    fibers,
    label_report,
    meet,
    parse_dataset,
    path_distance,
)
from labelflow.cli import main
from labelflow.dataset import structural_parse, validate
from conftest import DATA, mutated_datasets, valid_datasets

LABELS = ("f", "g", "h")
EMPTY = "z"  # declared, never annotated
SPANS = [(s, e) for s in range(5) for e in range(s + 1, 6)]
# (inner, outer) span pairs with inner strictly inside outer
NESTED = [(i, o) for i in SPANS for o in SPANS
          if i != o and o[0] <= i[0] and i[1] <= o[1]]
# fewer spans in one document, so that labels share sources and
# junctions are finite often enough for the walker to take them
FEW_NESTED = [(i, o) for i, o in NESTED if o[1] <= 3]


@st.composite
def graphs(draw, max_annotations=40, docs=("u", "v"), nested=NESTED):
    """(graph, reference maps) built from random annotations, labels
    declared in a random order. Reads between the adds fill the graph's
    caches early, so later adds must refresh them."""
    order = draw(st.permutations(LABELS + (EMPTY,)))
    directions = {n: draw(st.sampled_from(list(Direction))) for n in order}
    graph = LabeledGraph(LabelDecl(n, directions[n]) for n in order)
    ref = {n: {} for n in order}
    raw = draw(st.lists(st.tuples(st.sampled_from(LABELS),
                                  st.sampled_from(docs),
                                  st.sampled_from(nested)),
                        max_size=max_annotations))
    for label, doc, (inner, outer) in raw:
        ann = Annotation(label, mention=Region(doc, *inner),
                         entity=Region(doc, *outer))
        mention, entity = Node(ann.mention), Node(ann.entity)
        if directions[label] is Direction.FORWARD:
            source, target = mention, entity
        else:
            source, target = entity, mention
        try:
            graph.add(ann)
        except MapNotWellDefined:
            assert ref[label][source] != target
            continue
        ref[label].setdefault(source, target)
        if draw(st.booleans()):
            assert graph.domain(label) == tuple(sorted(ref[label]))
            assert graph.has_node(target)
    return graph, ref


def ref_classes(universe, key):
    """Classes of universe grouped by key, in canonical order."""
    groups = {}
    for node in universe:
        groups.setdefault(key(node), set()).add(node)
    return tuple(sorted(tuple(sorted(g)) for g in groups.values()))


def ref_whole(fine, coarse):
    return sum(1 for cls in fine if any(set(cls) <= set(c) for c in coarse))


def assert_partition(p, universe, classes):
    assert p.universe == tuple(sorted(set(universe)))
    assert p.classes == classes
    assert p.class_count == len(classes)


@given(graphs())
def test_graph_reads_match_reference(built):
    graph, ref = built
    nodes = {n for m in ref.values() for pair in m.items() for n in pair}
    assert graph.nodes == nodes
    assert list(graph.sorted_nodes()) == sorted(nodes)
    edges = sorted(MapEdge(l, s, t) for l, m in ref.items()
                   for s, t in m.items())
    assert list(graph.sorted_edges()) == edges
    assert graph.edges == set(edges)
    for label, m in ref.items():
        assert graph.domain(label) == tuple(sorted(m))
        assert graph.image(label) == tuple(sorted(set(m.values())))
        for t in nodes:
            assert graph.sources(label, t) == tuple(
                sorted(s for s, v in m.items() if v == t))
    outside = Node(Region("u", 0, 99))
    for node in nodes | {outside}:
        assert graph.has_node(node) == (node in nodes)
        assert graph.out_edges(node) == tuple(
            e for e in edges if e.source == node)
        assert graph.in_edges(node) == tuple(
            e for e in edges if e.target == node)
        for label, m in ref.items():
            assert graph.target(label, node) == m.get(node)


@given(graphs(), st.randoms(use_true_random=False))
def test_fibers_match_reference(built, rng):
    graph, ref = built
    for label, m in ref.items():
        p = fibers(graph, label)
        assert_partition(p, m, ref_classes(m, m.get))
        # the public constructor gives an equal partition, equal hash
        q = Partition(list(reversed(p.universe)),
                      [list(reversed(c)) for c in reversed(p.classes)])
        assert q == p and hash(q) == hash(p)
        if p.universe:
            one = Partition(p.universe, [p.universe])
            singles = Partition(p.universe, [[n] for n in p.universe])
            for other in (one, singles):
                for fine, coarse in ((p, other), (other, p)):
                    assert directed_intersection_count(fine, coarse) == \
                        ref_whole(fine.classes, coarse.classes)
        # an explicit universe, unsorted and with repeats
        subset = [n for n in m if rng.random() < 0.6]
        given_universe = subset + rng.sample(subset, len(subset) // 2)
        rng.shuffle(given_universe)
        assert_partition(fibers(graph, label, given_universe), subset,
                         ref_classes(subset, m.get))
        stranger = Node(Region("v", 0, 99))
        try:
            fibers(graph, label, given_universe + [stranger, stranger])
        except DomainGap as exc:
            assert exc.nodes == (stranger, stranger)
        else:
            raise AssertionError("fibers accepted a node outside the domain")


@given(graphs(), st.lists(st.sampled_from(LABELS + (EMPTY,)),
                          min_size=1, max_size=3))
def test_partition_functions_match_reference(built, names):
    graph, ref = built
    domains = [set(ref[n]) for n in names]
    shared = set.intersection(*domains)
    excluded = set.union(*domains) - shared
    assert common_domain(graph, names) == (sorted(shared), sorted(excluded))

    parts = [fibers(graph, n, sorted(shared)) for n in names]
    key = lambda node: tuple(ref[n][node] for n in names)
    met = meet(*parts)
    assert_partition(met, shared, ref_classes(shared, key))
    for fine in parts + [met]:
        for coarse in parts + [met]:
            whole = ref_whole(fine.classes, coarse.classes)
            assert directed_intersection_count(fine, coarse) == whole
            assert fine.refines(coarse) == (whole == fine.class_count)

    def walk(node):
        for n in names:
            if node not in ref[n]:
                return None
            node = ref[n][node]
        return node

    first = sorted(ref[names[0]])
    kept = [n for n in first if walk(n) is not None]
    assert composite_domain(graph, names) == (
        kept, [n for n in first if walk(n) is None])
    shuffled = kept[::-1] + kept[:1]
    assert_partition(composite_partition(graph, names, shuffled), kept,
                     ref_classes(kept, walk))


def test_domain_reflects_a_later_add():
    graph = LabeledGraph([LabelDecl("f", Direction.FORWARD)])
    assert graph.domain("f") == ()
    graph.add(Annotation("f", mention=Region("d", 3, 4),
                         entity=Region("d", 0, 9)))
    assert graph.domain("f") == (Node(Region("d", 3, 4)),)
    assert graph.has_node(Node(Region("d", 0, 9)))
    graph.add(Annotation("f", mention=Region("d", 1, 2),
                         entity=Region("d", 0, 9)))
    assert graph.domain("f") == (Node(Region("d", 1, 2)),
                                 Node(Region("d", 3, 4)))
    assert fibers(graph, "f").classes == (graph.domain("f"),)


# -- path distance -----------------------------------------------------


def distance_or_error(walker, graph, source, target):
    try:
        return walker(graph, source, target).to_json_dict()
    except UnknownNode as exc:
        return ("unknown-node", str(exc))


@given(graphs(max_annotations=12, docs=("u",), nested=FEW_NESTED),
       st.data())
def test_path_distance_matches_reference(built, data):
    graph, _ = built
    # every node, plus one outside the graph
    candidates = sorted(graph.nodes) + [Node(Region("v", 0, 99))]
    for _ in range(3):
        source = data.draw(st.sampled_from(candidates))
        target = data.draw(st.sampled_from(candidates))
        assert distance_or_error(path_distance, graph, source, target) == \
            distance_or_error(walker_reference.path_distance, graph,
                              source, target)


def test_path_distance_calls_common_domain_once_per_label_pair(monkeypatch):
    """One query costs each (f, g) junction once, however many nodes the
    walk visits; the reference walker recosts them at every node."""
    graph = build_graph(parse_dataset((DATA / "example1.json").read_bytes()))
    pairs = len(graph.labels) ** 2
    source = Node(Region("synthetic", 0, 155))
    target = Node(Region("synthetic", 104, 109))
    calls = {"info": 0, "reference": 0}

    def counted(module, name):
        real = module.common_domain

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(module, "common_domain", wrapper)

    counted(labelflow.info, "info")
    counted(walker_reference, "reference")
    result = path_distance(graph, source, target)
    assert result.moves and calls["info"] <= pairs
    assert walker_reference.path_distance(graph, source, target) == result
    assert calls["reference"] > pairs


# -- structural parse --------------------------------------------------


def parse_or_error(parse, data):
    """The parsed lists, each in input order, or the error's type and
    message. ``AnnotationSet.__eq__`` is not used: it sorts and drops
    exact duplicates."""
    try:
        annset = parse(data)
    except MalformedInput as exc:
        return type(exc), str(exc)
    return annset.documents, annset.labels, annset.annotations


@settings(max_examples=300)
@given(mutated_datasets(), st.sampled_from(["str", "ascii", "utf-8"]))
def test_structural_parse_matches_reference(obj, form):
    if form == "str":
        data = json.dumps(obj)
    else:  # lone surrogates make the UTF-8 form invalid
        data = json.dumps(obj, ensure_ascii=form == "ascii").encode(
            "utf-8", "surrogatepass")
    assert parse_or_error(structural_parse, data) == \
        parse_or_error(parse_reference.structural_parse, data)


# -- one Region per span -----------------------------------------------


def fresh(region):
    """An equal region that is a new object."""
    return Region(region.doc_id, region.start, region.end)


def recreated(annset):
    """A copy of ``annset`` whose every region is a new object."""
    return AnnotationSet(
        list(annset.documents), list(annset.labels),
        [Annotation(a.label, fresh(a.mention), fresh(a.entity))
         for a in annset.annotations])


def outcome(fn, *args):
    """The payload of a result, or the type and message of its error."""
    try:
        return fn(*args).to_json_dict()
    except (EmptyUniverse, UnknownNode) as exc:
        return type(exc), str(exc)


@given(st.one_of(valid_datasets(), mutated_datasets()))
def test_parse_shares_one_region_per_span(obj):
    try:
        annset = structural_parse(json.dumps(obj))
    except MalformedInput:
        return
    shared = {}
    for ann in annset.annotations:
        for region in (ann.mention, ann.entity):
            key = (region.doc_id, region.start, region.end)
            assert shared.setdefault(key, region) is region


@given(mutated_datasets())
def test_findings_do_not_depend_on_shared_regions(obj):
    try:
        annset = structural_parse(json.dumps(obj))
    except MalformedInput:
        return
    assert validate(annset) == validate(recreated(annset))


@given(valid_datasets(), st.data())
def test_results_do_not_depend_on_shared_regions(obj, data):
    annset = structural_parse(json.dumps(obj))
    copy = recreated(annset)
    graph, other = build_graph(annset), build_graph(copy)
    assert validate(annset) == validate(copy) == []
    assert graph == other
    assert list(graph.sorted_nodes()) == list(other.sorted_nodes())
    assert list(graph.sorted_edges()) == list(other.sorted_edges())
    labels = sorted(graph.labels)
    for label in labels:
        assert outcome(label_report, graph, label) == \
            outcome(label_report, other, label)
    from_labels = data.draw(st.lists(st.sampled_from(labels),
                                     min_size=1, max_size=2))
    to_label = data.draw(st.sampled_from(labels))
    assert outcome(dependency, graph, from_labels, to_label) == \
        outcome(dependency, other, from_labels, to_label)
    nodes = sorted(graph.nodes) + [Node(Region("u", 0, 99))]
    for _ in range(2):
        source = data.draw(st.sampled_from(nodes))
        target = data.draw(st.sampled_from(nodes))
        assert outcome(path_distance, graph, source, target) == outcome(
            path_distance, other, Node(fresh(source.region)),
            Node(fresh(target.region)))


@given(st.text(max_size=4), st.integers(0, 10 ** 20),
       st.integers(0, 10 ** 20))
def test_node_key_is_region_key(doc_id, start, end):
    region = Region(doc_id, start, end)
    assert Node(region).key == region.key == f"{doc_id}:{start}-{end}"


# -- the graph listing -------------------------------------------------

DOT_TEXT = r'"((?:[^"\\]|\\.)*)"'
DOT_NODE = re.compile(rf"  {DOT_TEXT} \[label={DOT_TEXT}\];")
DOT_EDGE = re.compile(rf"  {DOT_TEXT} -> {DOT_TEXT} \[label={DOT_TEXT}\];")


def dot_unescape(text):
    return re.sub(r"\\(.)", r"\1", text)


@pytest.fixture(scope="module")
def listing_path(tmp_path_factory):
    return tmp_path_factory.mktemp("listing") / "dataset.json"


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


@given(valid_datasets())
def test_graph_listing_matches_sorted_reads(listing_path, obj):
    listing_path.write_text(json.dumps(obj), encoding="utf-8")
    graph = build_graph(structural_parse(listing_path.read_bytes()))
    nodes = [n.key for n in graph.sorted_nodes()]
    edges = [(e.label, e.source.key, e.target.key)
             for e in graph.sorted_edges()]
    directions = {name: decl.direction.value
                  for name, decl in graph.labels.items()}

    payload = json.loads(run_cli(["graph", str(listing_path)]))
    assert [n["key"] for n in payload["nodes"]] == nodes
    assert [(e["label"], e["source"], e["target"])
            for e in payload["edges"]] == edges
    assert [e["direction"] for e in payload["edges"]] == \
        [directions[label] for label, _, _ in edges]

    lines = run_cli(["graph", str(listing_path), "--format", "dot"]
                    ).splitlines()
    assert lines[0] == "digraph labelflow {" and lines[-1] == "}"
    dot_nodes = [DOT_NODE.fullmatch(line) for line in lines[1:1 + len(nodes)]]
    dot_edges = [DOT_EDGE.fullmatch(line) for line in lines[1 + len(nodes):-1]]
    assert all(dot_nodes) and all(dot_edges)
    assert [dot_unescape(m[1]) for m in dot_nodes] == nodes
    assert [dot_unescape(m[3]) for m in dot_edges] == \
        [f"{label} ({directions[label]})" for label, _, _ in edges]
    assert [(dot_unescape(m[1]), dot_unescape(m[2])) for m in dot_edges] == \
        [(source, target) for _, source, target in edges]
