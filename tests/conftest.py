import json
import random
from pathlib import Path

from hypothesis import settings, strategies as st

from labelflow import (
    AnnotationSet,
    Annotation,
    Direction,
    Document,
    LabelDecl,
    LabeledGraph,
    Node,
    Region,
    RuleSpec,
    build_graph,
    parse_dataset,
)
from labelflow.synth import DerivedAttribute, FreeAttribute, IsValue, NotValue, \
    AllOf, Rule

settings.register_profile("local", deadline=None)
settings.load_profile("local")

DATA = Path(__file__).parent / "data"


def node(start, end, doc="u"):
    return Node(Region(doc, start, end))


def abstract_nodes(n, doc="u"):
    """n distinct nodes on a synthetic byte line."""
    return [node(i, i + 1, doc) for i in range(n)]


def chain_graph(map1, map2, labels=("f", "g")):
    """Two-level forward chain realized as nested spans.

    map1[i] is the level-1 parent of leaf i, map2[j] the level-2 parent
    of level-1 node j. Leaves are unit spans; each upper node is a
    prefix span wide enough to contain everything below it, so any
    assignment is realizable. Returns (graph, leaves, level1, level2).
    """
    n = len(map1)
    k1 = len(map2)
    k2 = max(map2) + 1 if map2 else 0
    assert all(0 <= p < k1 for p in map1)
    total = n + k1 + k2 + 1
    text = "x" * total
    doc = Document("chain", text)
    leaves = [Node(Region("chain", i, i + 1)) for i in range(n)]
    level1 = [Node(Region("chain", 0, n + j + 1)) for j in range(k1)]
    level2 = [Node(Region("chain", 0, n + k1 + m + 1)) for m in range(k2)]
    graph = LabeledGraph([LabelDecl(labels[0], Direction.FORWARD),
                          LabelDecl(labels[1], Direction.FORWARD)])
    for i, p in enumerate(map1):
        graph.add(Annotation(labels[0], mention=leaves[i].region,
                             entity=level1[p].region))
    for j, p in enumerate(map2):
        graph.add(Annotation(labels[1], mention=level1[j].region,
                             entity=level2[p].region))
    return graph, leaves, level1, level2, doc


EQ12_TEXT = "animals.\nmammal: dog, cat.\nbird: crow.\n"


def _span_of(text, sub, occurrence=0):
    data = text.encode("utf-8")
    needle = sub.encode("utf-8")
    at = -1
    for _ in range(occurrence + 1):
        at = data.index(needle, at + 1)
    return [at, at + len(needle)]


def eq12_dataset():
    """Two-level category chain: dog and cat under one heading line,
    crow under another, both headings under the whole document."""
    text = EQ12_TEXT
    mammal_line = _span_of(text, "mammal: dog, cat.\n")
    bird_line = _span_of(text, "bird: crow.\n")
    whole = [0, len(text.encode("utf-8"))]
    return {
        "documents": [{"id": "d", "text": text}],
        "labels": [{"name": "class", "direction": "forward"}],
        "annotations": [
            {"doc": "d", "label": "class",
             "mention": _span_of(text, "dog"), "entity": mammal_line},
            {"doc": "d", "label": "class",
             "mention": _span_of(text, "cat"), "entity": mammal_line},
            {"doc": "d", "label": "class",
             "mention": _span_of(text, "crow"), "entity": bird_line},
            {"doc": "d", "label": "class",
             "mention": mammal_line, "entity": whole},
            {"doc": "d", "label": "class",
             "mention": bird_line, "entity": whole},
        ],
    }


FIG2_TEXT = "black bags: bag1, bag2.\nbag2 owners: woman, man.\n"


def fig2_spans():
    text = FIG2_TEXT
    man = _span_of(text, " man")
    return {
        "black": _span_of(text, "black"),
        "woman": _span_of(text, "woman"),
        "man": [man[0] + 1, man[1]],
        "bag1": [0, len("black bags: bag1, bag2.\n")],
        "bag2": [0, len(text.encode("utf-8"))],
    }


def fig2_dataset():
    """Two bags sharing a color mention; the second bag owned by two
    people. bag1 is the first line, bag2 the whole document."""
    spans = fig2_spans()
    return {
        "documents": [{"id": "d", "text": FIG2_TEXT}],
        "labels": [
            {"name": "color", "direction": "backward"},
            {"name": "owning", "direction": "forward"},
        ],
        "annotations": [
            {"doc": "d", "label": "color",
             "mention": spans["black"], "entity": spans["bag1"]},
            {"doc": "d", "label": "color",
             "mention": spans["black"], "entity": spans["bag2"]},
            {"doc": "d", "label": "owning",
             "mention": spans["woman"], "entity": spans["bag2"]},
            {"doc": "d", "label": "owning",
             "mention": spans["man"], "entity": spans["bag2"]},
        ],
    }


def graph_of(dataset_obj):
    return build_graph(parse_dataset(json.dumps(dataset_obj)))


def all_partitions(items):
    """Every set partition of items, as lists of lists."""
    items = list(items)
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for smaller in all_partitions(rest):
        for i in range(len(smaller)):
            yield smaller[:i] + [[head] + smaller[i]] + smaller[i + 1:]
        yield [[head]] + smaller


EXAMPLE1_RULES = {
    "free": [
        {"name": "color", "values": ["red", "black", "blue"]},
        {"name": "size", "values": ["small", "large"]},
    ],
    "derived": [
        {"name": "price", "rules": [
            {"when": {"is": ["size", "small"]}, "then": "inexpensive"},
            {"when": {"is": ["size", "large"]}, "then": "expensive"},
        ]},
    ],
}

EXAMPLE2_RULES = {
    "free": [
        {"name": "color", "values": ["red", "black", "blue"]},
        {"name": "size", "values": ["small", "large"]},
    ],
    "derived": [
        {"name": "price", "rules": [
            {"when": {"all": [{"is": ["size", "small"]},
                              {"not": ["color", "red"]}]},
             "then": "inexpensive"},
            {"when": {"any": [{"is": ["size", "large"]},
                              {"is": ["color", "red"]}]},
             "then": "expensive"},
        ]},
    ],
}


def random_rulespec(rng: random.Random) -> RuleSpec:
    """A random valid spec: 1-3 free attributes (cross product capped at
    24 rows) and 0-2 derived attributes whose rules enumerate the
    combinations, so totality and consistency hold by construction."""
    n_free = rng.randint(1, 3)
    while True:
        sizes = [rng.randint(2, 4) for _ in range(n_free)]
        product = 1
        for s in sizes:
            product *= s
        if product <= 24:
            break
    free = tuple(
        FreeAttribute(f"a{i}", tuple(f"v{i}{j}" for j in range(size)))
        for i, size in enumerate(sizes)
    )
    n_derived = rng.randint(0, min(2, 4 - n_free))
    derived = []
    for d in range(n_derived):
        pool = [f"w{d}{j}" for j in range(rng.randint(1, 4))]
        rules = []
        combos = [[]]
        for attr in free:
            combos = [c + [(attr.name, v)] for c in combos
                      for v in attr.values]
        for combo in combos:
            atoms = []
            for attr_name, value in combo:
                attr = next(a for a in free if a.name == attr_name)
                if len(attr.values) == 2 and rng.random() < 0.3:
                    other = next(v for v in attr.values if v != value)
                    atoms.append(NotValue(attr_name, other))
                else:
                    atoms.append(IsValue(attr_name, value))
            rule = Rule(AllOf(tuple(atoms)), rng.choice(pool))
            rules.append(rule)
            if rng.random() < 0.2:
                rules.append(rule)  # agreeing overlap is allowed
        rng.shuffle(rules)
        derived.append(DerivedAttribute(f"d{d}", tuple(rules)))
    return RuleSpec(free, tuple(derived))


# -- mutated datasets --------------------------------------------------

# valid: two documents (one with a non-ASCII text), two labels, four
# annotations that build a graph
BASE_DATASET = {
    "documents": [{"id": "d", "text": "red bag, blue hat.\n"},
                  {"id": "e", "text": "café noir.\n"}],
    "labels": [{"name": "color", "direction": "backward"},
               {"name": "in", "direction": "forward"}],
    "annotations": [
        {"doc": "d", "label": "color", "mention": [0, 3], "entity": [0, 8]},
        {"doc": "d", "label": "color", "mention": [9, 13],
         "entity": [9, 17]},
        {"doc": "d", "label": "in", "mention": [4, 7], "entity": [0, 19]},
        {"doc": "e", "label": "in", "mention": [0, 5], "entity": [0, 12]},
    ],
}
STRING_FIELDS = {"documents": ("id", "text"), "labels": ("name", "direction"),
                 "annotations": ("doc", "label")}
SPAN_FIELDS = ("mention", "entity")
ODD_STRINGS = ["d", "e", "color", "in", "forward", "backward", "Forward",
               "sideways", "", "é", "日本", "x\ud800", "\udfff", "d\ud83d"]
NOT_STRINGS = [1, -1.5, True, False, None, [], {}, ["d"]]
ODD_SPANS = [[True, 3], [0, False], [0.0, 3], [0, 9.5], [0], [0, 3, 9], [],
             "0-3", None, {}, 4, [0, 10 ** 30], [-10 ** 30, 3], [3, 0]]
NOT_RECORDS = [["d", "color", [0, 3], [0, 8]], "d:0-3", None, 7, 1.5, True,
               []]
NOT_ARRAYS = [1, "x", {}, None, True, 2.5]
NOT_OBJECTS = [[], 1, "x", None, ["documents", "labels", "annotations"]]


def _record(draw, obj):
    """(section, index, record) of a drawn record, or None."""
    section = draw(st.sampled_from(sorted(STRING_FIELDS)))
    records = obj.get(section)
    if type(records) is not list or not records:
        return None
    i = draw(st.integers(0, len(records) - 1))
    return section, i, records[i]


@st.composite
def mutated_datasets(draw, max_mutations=4):
    """BASE_DATASET after up to ``max_mutations`` random edits: some
    fields of a record given an odd string, a non-string or an odd span;
    a record replaced by a non-object, or given a missing or an extra
    key; a record repeated at the end of its section; one section made a
    non-array; a top-level key dropped or added; the whole replaced by a
    non-object. At most one section is ever a non-array."""
    obj = json.loads(json.dumps(BASE_DATASET))
    for _ in range(draw(st.integers(0, max_mutations))):
        kind = draw(st.sampled_from(
            ["field"] * 10 + ["record", "key", "repeat"] * 2
            + ["section", "top-key", "whole"]))
        if kind == "section":
            if all(type(obj.get(s)) is list for s in STRING_FIELDS):
                section = draw(st.sampled_from(sorted(STRING_FIELDS)))
                obj[section] = draw(st.sampled_from(NOT_ARRAYS))
            continue
        if kind == "top-key":
            if draw(st.booleans()):
                obj.pop(draw(st.sampled_from(sorted(STRING_FIELDS))), None)
            else:
                obj["extra"] = []
            continue
        if kind == "whole":
            return draw(st.sampled_from(NOT_OBJECTS))
        picked = _record(draw, obj)
        if picked is None:
            continue
        section, i, record = picked
        if kind == "record":
            obj[section][i] = draw(st.sampled_from(NOT_RECORDS))
        elif kind == "repeat":
            obj[section].append(json.loads(json.dumps(record)))
        elif type(record) is not dict:
            continue
        elif kind == "key":
            if draw(st.booleans()) and record:
                del record[draw(st.sampled_from(sorted(record)))]
            else:
                record["note"] = "x"
        else:  # one or more fields, so that check order shows
            spans = SPAN_FIELDS if section == "annotations" else ()
            for key in draw(st.lists(
                    st.sampled_from(STRING_FIELDS[section] + spans),
                    min_size=1, max_size=3, unique=True)):
                record[key] = draw(
                    st.one_of(st.sampled_from(ODD_SPANS),
                              st.lists(st.integers(-2, 24), max_size=3))
                    if key in spans else
                    st.one_of(st.sampled_from(ODD_STRINGS + NOT_STRINGS),
                              st.text(max_size=3)))
    return obj


# -- valid datasets ----------------------------------------------------

# Six-byte texts, one with a two-byte character, so that a span may
# split a code point; ids and names with the characters a node key or a
# DOT listing has to carry: ':', '"' and '\'.
VALID_DOCS = {"u": "abcdef", "v:w": "café!", 'q"\\': "x\ny\nz."}
VALID_LABELS = ("f", "g", 'h"\\')
VALID_SPANS = [(s, e) for s in range(6) for e in range(s + 1, 7)]
# (inner, outer) span pairs with inner strictly inside outer
VALID_NESTED = [(i, o) for i in VALID_SPANS for o in VALID_SPANS
                if i != o and o[0] <= i[0] and i[1] <= o[1]]


@st.composite
def valid_datasets(draw, max_annotations=12):
    """A dataset object that validates: some of VALID_DOCS, the labels
    of VALID_LABELS with random directions (some may stay unannotated),
    and annotations on nested spans in random order, exact repeats
    included. An annotation that would give a source a second target
    under its label is left out."""
    doc_ids = draw(st.lists(st.sampled_from(sorted(VALID_DOCS)),
                            min_size=1, max_size=3, unique=True))
    directions = {name: draw(st.sampled_from(["forward", "backward"]))
                  for name in VALID_LABELS}
    annotations, bound = [], {}
    for label, doc, (inner, outer) in draw(st.lists(
            st.tuples(st.sampled_from(VALID_LABELS),
                      st.sampled_from(doc_ids),
                      st.sampled_from(VALID_NESTED)),
            max_size=max_annotations)):
        source, target = ((inner, outer) if directions[label] == "forward"
                          else (outer, inner))
        if bound.setdefault((label, doc, source), target) != target:
            continue
        annotations.append({"doc": doc, "label": label,
                            "mention": list(inner), "entity": list(outer)})
    return {
        "documents": [{"id": d, "text": VALID_DOCS[d]} for d in doc_ids],
        "labels": [{"name": n, "direction": directions[n]}
                   for n in draw(st.permutations(VALID_LABELS))],
        "annotations": annotations,
    }
