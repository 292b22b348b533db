import json
import random

import pytest
from hypothesis import given, strategies as st

from labelflow import (
    Annotation,
    BadNesting,
    Direction,
    Document,
    DuplicateDocId,
    DuplicateLabelName,
    LabelDecl,
    MalformedInput,
    MapNotWellDefined,
    Region,
    SpanOutOfBounds,
    UnknownDocument,
    UnknownLabel,
    LabeledGraph,
    build_graph,
    generate_universe,
    parse_dataset,
    region_contains,
    serialize_dataset,
    validate,
)
from labelflow.dataset import _ingest, structural_parse
from conftest import eq12_dataset, fig2_dataset, graph_of, random_rulespec

MINIMAL = {
    "documents": [{"id": "d", "text": "red bag.\n"}],
    "labels": [{"name": "color", "direction": "backward"}],
    "annotations": [
        {"doc": "d", "label": "color", "mention": [0, 3], "entity": [0, 9]},
    ],
}


def as_json(obj) -> str:
    return json.dumps(obj)


def variant(**changes):
    obj = json.loads(json.dumps(MINIMAL))
    obj.update(changes)
    return obj


class TestParse:
    def test_minimal(self):
        annset = parse_dataset(as_json(MINIMAL))
        assert len(annset.documents) == 1
        assert len(annset.annotations) == 1
        assert annset.labels[0].name == "color"

    def test_not_json(self):
        with pytest.raises(MalformedInput):
            parse_dataset(b"{nope")

    def test_not_utf8(self):
        with pytest.raises(MalformedInput):
            parse_dataset(b"\xff\xfe{}")

    def test_missing_key(self):
        with pytest.raises(MalformedInput):
            parse_dataset(as_json({"documents": [], "labels": []}))

    def test_extra_key(self):
        with pytest.raises(MalformedInput):
            parse_dataset(as_json(dict(MINIMAL, extra=1)))

    def test_float_offset(self):
        bad = variant(annotations=[{"doc": "d", "label": "color",
                                    "mention": [0.0, 3], "entity": [0, 9]}])
        with pytest.raises(MalformedInput):
            parse_dataset(as_json(bad))

    def test_bool_offset_rejected(self):
        bad = variant(annotations=[{"doc": "d", "label": "color",
                                    "mention": [True, 3], "entity": [0, 9]}])
        with pytest.raises(MalformedInput):
            parse_dataset(as_json(bad))

    def test_bad_direction(self):
        bad = variant(labels=[{"name": "color", "direction": "sideways"}])
        with pytest.raises(MalformedInput):
            parse_dataset(as_json(bad))

    def test_bad_nesting(self):
        bad = variant(annotations=[{"doc": "d", "label": "color",
                                    "mention": [5, 30], "entity": [10, 40]}])
        with pytest.raises(BadNesting):
            parse_dataset(
                as_json(variant(
                    documents=[{"id": "d", "text": "x" * 40}],
                    annotations=bad["annotations"])))

    def test_span_out_of_bounds(self):
        bad = variant(annotations=[{"doc": "d", "label": "color",
                                    "mention": [0, 3], "entity": [0, 99]}])
        with pytest.raises(SpanOutOfBounds):
            parse_dataset(as_json(bad))

    def test_empty_span(self):
        bad = variant(annotations=[{"doc": "d", "label": "color",
                                    "mention": [3, 3], "entity": [0, 9]}])
        with pytest.raises(SpanOutOfBounds):
            parse_dataset(as_json(bad))

    def test_unknown_label(self):
        bad = variant(annotations=[{"doc": "d", "label": "nope",
                                    "mention": [0, 3], "entity": [0, 9]}])
        with pytest.raises(UnknownLabel):
            parse_dataset(as_json(bad))

    def test_unknown_document(self):
        bad = variant(annotations=[{"doc": "other", "label": "color",
                                    "mention": [0, 3], "entity": [0, 9]}])
        with pytest.raises(UnknownDocument):
            parse_dataset(as_json(bad))

    def test_duplicate_doc_id(self):
        bad = variant(documents=MINIMAL["documents"] * 2)
        with pytest.raises(DuplicateDocId):
            parse_dataset(as_json(bad))

    def test_duplicate_label(self):
        bad = variant(labels=MINIMAL["labels"] * 2)
        with pytest.raises(DuplicateLabelName):
            parse_dataset(as_json(bad))

    def test_empty_label_name_is_malformed(self):
        bad = variant(labels=[{"name": "", "direction": "forward"}],
                      annotations=[])
        with pytest.raises(MalformedInput):
            parse_dataset(as_json(bad))

    @pytest.mark.parametrize("field", ["id", "text", "name", "doc", "label"])
    def test_lone_surrogate_is_malformed(self, field):
        obj = variant()
        where = {"id": obj["documents"][0], "text": obj["documents"][0],
                 "name": obj["labels"][0], "doc": obj["annotations"][0],
                 "label": obj["annotations"][0]}[field]
        where[field] += "\ud800"
        with pytest.raises(MalformedInput, match="surrogate"):
            structural_parse(as_json(obj))

    def test_exact_duplicates_dropped(self):
        doubled = variant(annotations=MINIMAL["annotations"] * 3)
        assert len(parse_dataset(as_json(doubled)).annotations) == 1


class TestParseFastPath:
    """The exact message for each malformed annotation record.

    The records here are the second annotation, so a message naming
    ``annotations[1]`` also shows that the well-formed first record
    leaves the index undisturbed."""

    NOT_AN_ANNOTATION = ("annotations[1] must be an object with keys doc, "
                         "label, mention, entity")

    @staticmethod
    def parse_error(record) -> str:
        obj = variant(annotations=MINIMAL["annotations"] + [record])
        with pytest.raises(MalformedInput) as caught:
            structural_parse(as_json(obj))
        return str(caught.value)

    @staticmethod
    def record(**changes):
        return dict(MINIMAL["annotations"][0], **changes)

    @pytest.mark.parametrize("field, span", [
        ("mention", [True, 3]), ("entity", [0, False]),
        ("mention", [0.0, 3]), ("entity", [0, 9.5]),
        ("mention", [0]), ("entity", [0, 3, 9]),
        ("mention", []), ("entity", "0-9"), ("mention", None),
    ])
    def test_bad_span(self, field, span):
        assert self.parse_error(self.record(**{field: span})) == \
            f"annotations[1]: field {field!r} must be a two-integer array"

    def test_missing_key(self):
        record = self.record()
        del record["entity"]
        assert self.parse_error(record) == self.NOT_AN_ANNOTATION

    def test_extra_key(self):
        assert self.parse_error(self.record(note="x")) == \
            self.NOT_AN_ANNOTATION

    @pytest.mark.parametrize("record", [["d", "color", [0, 3], [0, 9]],
                                        "d:0-3", None, 7])
    def test_not_an_object(self, record):
        assert self.parse_error(record) == self.NOT_AN_ANNOTATION

    @pytest.mark.parametrize("field", ["doc", "label"])
    def test_not_a_string(self, field):
        assert self.parse_error(self.record(**{field: 1})) == \
            f"annotations[1]: field {field!r} must be a string"

    @pytest.mark.parametrize("field", ["doc", "label"])
    def test_lone_surrogate(self, field):
        record = self.record()
        record[field] += "\ud800"
        assert self.parse_error(record) == (
            f"annotations[1]: field {field!r} is not encodable as UTF-8 "
            f"(lone surrogate)")

    def test_non_ascii_names_parse_as_before(self):
        obj = {
            "documents": [{"id": "dé", "text": "red bag.\n"},
                          {"id": "d", "text": "red bag.\n"}],
            "labels": [{"name": "cölor", "direction": "backward"},
                       {"name": "color", "direction": "backward"}],
            "annotations": [
                {"doc": "d", "label": "color", "mention": [0, 3],
                 "entity": [0, 9]},
                {"doc": "dé", "label": "cölor", "mention": [0, 3],
                 "entity": [0, 9]},
                {"doc": "dé", "label": "color", "mention": [4, 7],
                 "entity": [0, 9]},
                {"doc": "d", "label": "cölor", "mention": [4, 7],
                 "entity": [0, 9]},
            ],
        }
        annset = structural_parse(as_json(obj))
        assert annset.annotations == [
            Annotation(a["label"], Region(a["doc"], *a["mention"]),
                       Region(a["doc"], *a["entity"]))
            for a in obj["annotations"]]
        assert annset.documents == [Document(d["id"], d["text"])
                                    for d in obj["documents"]]
        assert annset.labels == [LabelDecl(l["name"], Direction.BACKWARD)
                                 for l in obj["labels"]]
        assert validate(annset) == []


NOT_A_DOCUMENT = "documents[1] must be an object with keys id, text"
NOT_A_LABEL = "labels[1] must be an object with keys name, direction"
DOCUMENT = {"id": "e", "text": "x"}
LABEL = {"name": "size", "direction": "forward"}
SURROGATE = "is not encodable as UTF-8 (lone surrogate)"


class TestRecordMessages:
    """The exact message for each malformed document and label record,
    and for a malformed top level, as the parser has always given it.
    Each bad record is the second in its section."""

    @pytest.mark.parametrize("section, record, message", [
        ("documents", ["e", "x"], NOT_A_DOCUMENT),
        ("documents", "e", NOT_A_DOCUMENT),
        ("documents", None, NOT_A_DOCUMENT),
        ("documents", {"text": "x"}, NOT_A_DOCUMENT),
        ("documents", {"id": "e"}, NOT_A_DOCUMENT),
        ("documents", dict(DOCUMENT, note="x"), NOT_A_DOCUMENT),
        ("documents", dict(DOCUMENT, id=1),
         "documents[1]: field 'id' must be a string"),
        ("documents", dict(DOCUMENT, text=None),
         "documents[1]: field 'text' must be a string"),
        ("documents", dict(DOCUMENT, id="e\ud800"),
         f"documents[1]: field 'id' {SURROGATE}"),
        ("documents", dict(DOCUMENT, text="x\udfff"),
         f"documents[1]: field 'text' {SURROGATE}"),
        ("labels", ["size", "forward"], NOT_A_LABEL),
        ("labels", 7, NOT_A_LABEL),
        ("labels", {"direction": "forward"}, NOT_A_LABEL),
        ("labels", {"name": "size"}, NOT_A_LABEL),
        ("labels", dict(LABEL, note="x"), NOT_A_LABEL),
        ("labels", dict(LABEL, name=1),
         "labels[1]: field 'name' must be a string"),
        ("labels", dict(LABEL, direction=True),
         "labels[1]: field 'direction' must be a string"),
        ("labels", dict(LABEL, name="size\ud800"),
         f"labels[1]: field 'name' {SURROGATE}"),
        ("labels", dict(LABEL, direction="forward\ud800"),
         f"labels[1]: field 'direction' {SURROGATE}"),
        ("labels", dict(LABEL, direction="sideways"),
         'labels[1]: direction must be "forward" or "backward"'),
        ("labels", dict(LABEL, direction="Forward"),
         'labels[1]: direction must be "forward" or "backward"'),
    ])
    def test_record_message(self, section, record, message):
        obj = variant(**{section: MINIMAL[section] + [record]})
        with pytest.raises(MalformedInput) as caught:
            structural_parse(as_json(obj))
        assert str(caught.value) == message

    @pytest.mark.parametrize("obj, message", [
        ([MINIMAL], "top level must be a JSON object"),
        ({"documents": [], "labels": []},
         "top level must have exactly the keys documents, labels, "
         "annotations"),
        (dict(MINIMAL, extra=[]),
         "top level must have exactly the keys documents, labels, "
         "annotations"),
        (variant(labels={}), "field 'labels' must be an array"),
        (variant(annotations=None), "field 'annotations' must be an array"),
    ])
    def test_top_level_message(self, obj, message):
        with pytest.raises(MalformedInput) as caught:
            structural_parse(as_json(obj))
        assert str(caught.value) == message

    @pytest.mark.parametrize("section, changes, message", [
        ("documents", {"id": 1, "text": None},
         "documents[1]: field 'id' must be a string"),
        ("labels", {"name": "s\ud800", "direction": 2},
         f"labels[1]: field 'name' {SURROGATE}"),
        ("labels", {"name": "size", "direction": "up\ud800"},
         f"labels[1]: field 'direction' {SURROGATE}"),
        ("annotations", {"label": 1, "mention": [0.0, 3]},
         "annotations[1]: field 'label' must be a string"),
        ("annotations", {"doc": "d\ud800", "label": 1, "entity": None},
         f"annotations[1]: field 'doc' {SURROGATE}"),
        ("annotations", {"mention": [0], "entity": [True, 9]},
         "annotations[1]: field 'mention' must be a two-integer array"),
    ])
    def test_fields_checked_in_key_order(self, section, changes, message):
        obj = variant(**{section: MINIMAL[section] + [
            dict(MINIMAL[section][0], **changes)]})
        with pytest.raises(MalformedInput) as caught:
            structural_parse(as_json(obj))
        assert str(caught.value) == message

    def test_key_set_before_fields_and_records_in_order(self):
        obj = variant(documents=[{"id": 1}, {"id": "e", "text": 2}],
                      labels=[{"name": 1, "direction": "sideways"}])
        with pytest.raises(MalformedInput, match=r"^documents\[0\] must"):
            structural_parse(as_json(obj))
        obj["documents"] = [DOCUMENT]
        with pytest.raises(MalformedInput,
                           match=r"^labels\[0\]: field 'name' must"):
            structural_parse(as_json(obj))


class TestValidate:
    def test_valid_set_has_no_findings(self):
        assert validate(parse_dataset(as_json(eq12_dataset()))) == []

    def test_two_bad_spans_two_findings(self):
        bad = variant(annotations=[
            {"doc": "d", "label": "color", "mention": [50, 60],
             "entity": [0, 99]},
        ])
        findings = validate(structural_parse(as_json(bad)))
        assert [f.kind for f in findings] == ["span-out-of-bounds"] * 2

    def test_conflict_names_both_annotations(self):
        obj = variant(
            documents=[{"id": "d", "text": "x" * 50}],
            annotations=[
                {"doc": "d", "label": "color", "mention": [0, 3],
                 "entity": [0, 30]},
                {"doc": "d", "label": "color", "mention": [4, 8],
                 "entity": [0, 30]},
                {"doc": "d", "label": "color", "mention": [0, 3],
                 "entity": [0, 40]},
            ])
        findings = validate(structural_parse(as_json(obj)))
        # backward label: entity [0,30) is the source; annotations 0
        # and 1 give it two different targets
        assert [f.kind for f in findings] == ["map-conflict"]
        assert findings[0].annotations == (0, 1)

    def test_finding_order_is_input_order(self):
        obj = variant(annotations=[
            {"doc": "ghost", "label": "color", "mention": [0, 3],
             "entity": [0, 9]},
            {"doc": "d", "label": "nope", "mention": [0, 3],
             "entity": [0, 9]},
        ])
        findings = validate(structural_parse(as_json(obj)))
        assert [f.kind for f in findings] == ["unknown-document",
                                              "unknown-label"]
        assert findings[0].annotations == (0,)
        assert findings[1].annotations == (1,)

    def test_entity_on_another_document_is_bad_nesting(self):
        # a parse gives both spans the record's document; a set built in
        # code can put them on two, each in bounds of the mention's
        annset = structural_parse(as_json(variant(
            documents=[{"id": "d", "text": "red bag.\n"},
                       {"id": "e", "text": "red bag.\n"}])))
        annset.annotations.append(Annotation(
            "color", mention=Region("d", 0, 3), entity=Region("e", 0, 9)))
        findings = validate(annset)
        assert [(f.kind, f.annotations) for f in findings] == [
            ("bad-nesting", (1,))]
        with pytest.raises(BadNesting):
            build_graph(annset)

    @given(st.lists(st.integers(-1, 10), min_size=4, max_size=4))
    def test_ingest_nests_as_region_contains(self, offsets):
        """``_ingest`` inlines its own bounds-and-nesting test; it must
        accept a pair of spans exactly when both are in bounds and
        ``region_contains`` holds."""
        annset = structural_parse(as_json(MINIMAL))  # 9 bytes of text
        mention = Region("d", offsets[0], offsets[1])
        entity = Region("d", offsets[2], offsets[3])
        annset.annotations[:] = [Annotation("color", mention, entity)]
        findings, _ = _ingest(annset)
        in_bounds = all(0 <= r.start < r.end <= 9 for r in (mention, entity))
        flagged = {f.kind for f in findings} & {"bad-nesting",
                                                 "span-out-of-bounds"}
        assert (not flagged) == (in_bounds
                                 and region_contains(entity, mention))


class TestRoundTrip:
    def test_minimal(self):
        annset = parse_dataset(as_json(MINIMAL))
        assert parse_dataset(serialize_dataset(annset)) == annset

    def test_serialization_is_canonical(self):
        annset = parse_dataset(as_json(fig2_dataset()))
        shuffled = json.loads(json.dumps(fig2_dataset()))
        rng = random.Random(7)
        rng.shuffle(shuffled["annotations"])
        rng.shuffle(shuffled["labels"])
        other = parse_dataset(as_json(shuffled))
        assert serialize_dataset(annset) == serialize_dataset(other)
        assert annset == other

    @given(st.integers(0, 10 ** 6))
    def test_generated_universes_round_trip(self, seed):
        spec = random_rulespec(random.Random(seed))
        annset = generate_universe(spec)
        assert parse_dataset(serialize_dataset(annset)) == annset

    def test_non_ascii_text_survives(self):
        obj = {
            "documents": [{"id": "d", "text": "café noir.\n"}],
            "labels": [{"name": "color", "direction": "backward"}],
            "annotations": [
                {"doc": "d", "label": "color", "mention": [6, 10],
                 "entity": [0, 12]},
            ],
        }
        annset = parse_dataset(as_json(obj))
        again = parse_dataset(serialize_dataset(annset))
        assert again.documents[0].text == "café noir.\n"
        assert again == annset


class TestBuildGraph:
    def test_eq12_chain_exists(self):
        g = graph_of(eq12_dataset())
        dog = next(n for n in g.nodes if n.region.start == 17)
        mid = g.target("class", dog)
        top = g.target("class", mid)
        assert mid is not None and top is not None
        assert top.region.start == 0

    def test_fig2_counts(self):
        g = graph_of(fig2_dataset())
        assert len(g.nodes) == 5
        assert len(g.edges) == 4
        bag2 = next(n for n in g.nodes
                    if n.region.start == 0 and n.region.end == 49)
        assert len(g.in_edges(bag2)) == 2
        assert len(g.out_edges(bag2)) == 1

    def test_empty_set(self):
        g = graph_of({"documents": [], "labels": [], "annotations": []})
        assert not g.nodes and not g.edges

    def test_conflict_carries_indices(self):
        annset = parse_dataset(as_json(variant(
            documents=[{"id": "d", "text": "x" * 50}],
            annotations=[
                {"doc": "d", "label": "color", "mention": [0, 3],
                 "entity": [0, 30]},
                {"doc": "d", "label": "color", "mention": [4, 8],
                 "entity": [0, 30]},
            ])))
        with pytest.raises(MapNotWellDefined) as err:
            build_graph(annset)
        assert (err.value.first_index, err.value.second_index) == (0, 1)

    def test_out_of_bounds_span_is_refused(self):
        bad = variant(annotations=[{"doc": "d", "label": "color",
                                    "mention": [0, 3], "entity": [0, 99]}])
        with pytest.raises(SpanOutOfBounds):
            build_graph(structural_parse(as_json(bad)))

    def test_order_insensitive(self):
        base = eq12_dataset()
        g1 = graph_of(base)
        rng = random.Random(3)
        for _ in range(5):
            shuffled = json.loads(json.dumps(base))
            rng.shuffle(shuffled["annotations"])
            assert graph_of(shuffled) == g1


# -- validate and build_graph agree ------------------------------------

FINDING_ERRORS = {
    "duplicate-doc-id": DuplicateDocId,
    "duplicate-label-name": DuplicateLabelName,
    "empty-label-name": MalformedInput,
    "unknown-document": UnknownDocument,
    "unknown-label": UnknownLabel,
    "span-out-of-bounds": SpanOutOfBounds,
    "bad-nesting": BadNesting,
    "map-conflict": MapNotWellDefined,
}

_spans = st.lists(st.integers(0, 12), min_size=2, max_size=2)
small_datasets = st.fixed_dictionaries({
    "documents": st.lists(st.fixed_dictionaries({
        "id": st.sampled_from(["d", "e"]),
        "text": st.sampled_from(["red bag.\n", "café noir", "x" * 12]),
    }), max_size=3),
    "labels": st.lists(st.fixed_dictionaries({
        "name": st.sampled_from(["", "a", "b"]),
        "direction": st.sampled_from(["forward", "backward"]),
    }), max_size=3),
    "annotations": st.lists(st.fixed_dictionaries({
        "doc": st.sampled_from(["d", "e", "ghost"]),
        "label": st.sampled_from(["a", "b", "nope"]),
        "mention": _spans,
        "entity": _spans,
    }), max_size=8),
})


class TestValidateAgreesWithBuild:
    @given(small_datasets)
    def test_no_findings_iff_build_succeeds(self, obj):
        annset = structural_parse(as_json(obj))
        findings = validate(annset)
        if not findings:
            build_graph(annset)
            return
        with pytest.raises(FINDING_ERRORS[findings[0].kind]) as err:
            build_graph(annset)
        assert type(err.value) is FINDING_ERRORS[findings[0].kind]
        if findings[0].kind == "map-conflict":
            assert (err.value.first_index, err.value.second_index) == \
                findings[0].annotations

    @given(small_datasets)
    def test_graph_equals_one_add_per_annotation(self, obj):
        annset = structural_parse(as_json(obj))
        if validate(annset):
            return
        expected = LabeledGraph(annset.labels)
        for ann in annset.annotations:
            expected.add(ann)
        assert build_graph(annset) == expected
