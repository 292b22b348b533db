"""Dataset ingest: parse, validate, serialize, and build the map graph.

A dataset is one JSON object::

    {
      "documents":   [ { "id": str, "text": str } ],
      "labels":      [ { "name": str, "direction": "forward" | "backward" } ],
      "annotations": [ { "doc": str, "label": str,
                         "mention": [start, end],
                         "entity":  [start, end] } ]
    }

All three keys are required and no others are allowed. Offsets are byte
offsets into the UTF-8 encoding of the document text, half-open. Canonical
serialization sorts documents by id, labels by name, and annotations by
(doc, mention.start, mention.end, label), with the entity span as a final
tiebreak, and drops exact duplicate annotations.

Parsing is one pass driven by one table, ``_SECTIONS``: the sections,
the keys of their records, and the order of every check. A parse
interns its spans: every annotation endpoint with the same
``(doc, start, end)`` is one ``Region`` object, found through a
per-parse dict keyed by the plain tuple, whose hash is computed in C.
Regions compare by value, so this saves construction and lets a
comparison of two endpoints stop at identity; no result depends on it.

Ingest is one pass, ``_ingest``: it records every violation as a Finding
and fills the graph's map as it goes. ``validate`` returns all findings,
``build_graph`` the graph or the first finding as a typed error.

``to_json_text`` is the package's one JSON writer: ``serialize_dataset``
and every CLI payload go through it. The stdlib's C encoder does not
indent, so ``json.dumps(..., indent=2)`` falls back to a pure-Python
encoder that yields every token through nested generators; this writer
gives the same text with one join per container and the C string
escaper, and writes a str value or item inline, with no call per leaf.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring
from typing import Union

from .errors import (
    BadNesting,
    DuplicateDocId,
    DuplicateLabelName,
    LabelFlowError,
    MalformedInput,
    MapNotWellDefined,
    SpanOutOfBounds,
    UnknownDocument,
    UnknownLabel,
)
from .model import (
    Annotation,
    Direction,
    Document,
    LabelDecl,
    LabeledGraph,
    Node,
    Region,
    map_endpoints,
)


@dataclass(frozen=True)
class Finding:
    """One validation violation, as data.

    ``annotations`` holds the zero-based indices of the annotations
    involved (empty for document- or label-level findings).
    """

    kind: str
    message: str
    annotations: tuple[int, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "message": self.message,
            "annotations": list(self.annotations),
        }


def _dedup(annotations: list[Annotation]) -> list[Annotation]:
    """Annotations without exact repeats, first occurrences in order."""
    return list(dict.fromkeys(annotations))


def _ann_sort_key(ann: Annotation):
    return (ann.mention.doc_id, ann.mention.start, ann.mention.end, ann.label,
            ann.entity.start, ann.entity.end)


@dataclass
class AnnotationSet:
    """Documents, label declarations, and annotations, in input order.

    Equality is order-insensitive (canonical forms are compared), so a
    parse of a canonical serialization compares equal to the original.
    """

    documents: list[Document] = field(default_factory=list)
    labels: list[LabelDecl] = field(default_factory=list)
    annotations: list[Annotation] = field(default_factory=list)

    def document(self, doc_id: str) -> Document:
        for doc in self.documents:
            if doc.id == doc_id:
                return doc
        raise UnknownDocument(f"document {doc_id!r} is not declared")

    def canonical(self) -> "AnnotationSet":
        """Sorted, deduplicated copy in the serialization order."""
        return AnnotationSet(
            documents=sorted(self.documents, key=lambda d: d.id),
            labels=sorted(self.labels, key=lambda l: l.name),
            annotations=_dedup(sorted(self.annotations, key=_ann_sort_key)),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AnnotationSet):
            return NotImplemented
        a, b = self.canonical(), other.canonical()
        return (a.documents == b.documents and a.labels == b.labels
                and a.annotations == b.annotations)


# -- parsing -----------------------------------------------------------


def _string(raw: dict, key: str, section: str, i: int) -> str:
    value = raw[key]
    if type(value) is not str:
        raise MalformedInput(f"{section}[{i}]: field {key!r} must be a string")
    if not value.isascii():
        # JSON admits lone surrogate escapes, which have no UTF-8 form
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:
            raise MalformedInput(
                f"{section}[{i}]: field {key!r} is not encodable as UTF-8 "
                f"(lone surrogate)") from None
    return value


def _span(raw: dict, key: str, section: str, i: int) -> list[int]:
    value = raw[key]
    if (type(value) is not list or len(value) != 2
            or type(value[0]) is not int or type(value[1]) is not int):
        raise MalformedInput(f"{section}[{i}]: field {key!r} must be a "
                             f"two-integer array")
    return value


def _document(raw: dict, i: int, regions: dict) -> Document:
    return Document(_string(raw, "id", "documents", i),
                    _string(raw, "text", "documents", i))


def _label(raw: dict, i: int, regions: dict) -> LabelDecl:
    name = _string(raw, "name", "labels", i)
    direction = _string(raw, "direction", "labels", i)
    if direction not in ("forward", "backward"):
        raise MalformedInput(f"labels[{i}]: direction must be "
                             f"\"forward\" or \"backward\"")
    return LabelDecl(name, Direction(direction))


def _annotation(raw: dict, i: int, regions: dict) -> Annotation:
    doc_id = _string(raw, "doc", "annotations", i)
    label = _string(raw, "label", "annotations", i)
    ms, me = _span(raw, "mention", "annotations", i)
    es, ee = _span(raw, "entity", "annotations", i)
    mention = regions.get((doc_id, ms, me))
    if mention is None:
        mention = regions[doc_id, ms, me] = Region(doc_id, ms, me)
    entity = regions.get((doc_id, es, ee))
    if entity is None:
        entity = regions[doc_id, es, ee] = Region(doc_id, es, ee)
    return Annotation(label, mention, entity)


# Each section (and the AnnotationSet field it fills), the keys of its
# records, and the function that checks a record's fields and builds
# it from them and the parse's interned regions, (doc, start, end) ->
# Region; checks run in this order.
_SECTIONS = {
    "documents": (("id", "text"), _document),
    "labels": (("name", "direction"), _label),
    "annotations": (("doc", "label", "mention", "entity"), _annotation),
}


def structural_parse(data: Union[bytes, str]) -> AnnotationSet:
    """Parse the JSON shape only; the result may violate semantic
    invariants. Raises MalformedInput for the first part not matching
    the schema: sections in ``_SECTIONS`` order, records in input order,
    a record's key set before its fields."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedInput(f"input is not UTF-8: {exc}") from None
    try:
        obj = json.loads(data)
    except json.JSONDecodeError as exc:
        raise MalformedInput(f"input is not valid JSON: {exc}") from None
    except (RecursionError, ValueError) as exc:
        # nesting deeper than the recursion limit, or an integer with
        # more digits than the interpreter converts
        raise MalformedInput(f"input is beyond the JSON parser's limits: "
                             f"{exc}") from None

    if type(obj) is not dict:
        raise MalformedInput("top level must be a JSON object")
    if obj.keys() != _SECTIONS.keys():
        raise MalformedInput(f"top level must have exactly the keys "
                             f"{', '.join(_SECTIONS)}")
    for section in _SECTIONS:
        if type(obj[section]) is not list:
            raise MalformedInput(f"field {section!r} must be an array")

    parsed, regions = {}, {}
    for section, (keys, build) in _SECTIONS.items():
        keyset = frozenset(keys)
        records = parsed[section] = []
        append = records.append
        for i, raw in enumerate(obj[section]):
            if type(raw) is not dict or raw.keys() != keyset:
                raise MalformedInput(f"{section}[{i}] must be an object "
                                     f"with keys {', '.join(keys)}")
            append(build(raw, i, regions))
    return AnnotationSet(**parsed)


# -- validation and graph construction -------------------------------

_FINDING_ERRORS = {
    "duplicate-doc-id": DuplicateDocId,
    "duplicate-label-name": DuplicateLabelName,
    "empty-label-name": MalformedInput,
    "unknown-document": UnknownDocument,
    "unknown-label": UnknownLabel,
    "span-out-of-bounds": SpanOutOfBounds,
    "bad-nesting": BadNesting,
}


def _span_finding(region: Region, byte_length: int, index: int,
                  role: str) -> Finding | None:
    if not (0 <= region.start < region.end <= byte_length):
        return Finding(
            "span-out-of-bounds",
            f"annotation {index}: {role} span [{region.start}, {region.end}) "
            f"is outside document {region.doc_id!r} of {byte_length} bytes",
            (index,),
        )
    return None


def _ingest(annset: AnnotationSet) -> tuple[list[Finding], LabeledGraph]:
    """Every finding, in validate's order, and the graph of the
    annotations without a per-annotation finding. An annotation that
    would give a source a second target is a map conflict, reported
    once however often it is repeated."""
    findings: list[Finding] = []

    doc_lengths: dict[str, int] = {}
    for doc in annset.documents:
        if doc.id in doc_lengths:
            findings.append(Finding("duplicate-doc-id",
                                    f"document id {doc.id!r} declared twice"))
        else:
            doc_lengths[doc.id] = doc.byte_length

    decls: dict[str, LabelDecl] = {}
    for decl in annset.labels:
        if not decl.name:
            findings.append(Finding("empty-label-name",
                                    "label with empty name"))
        elif decl.name in decls:
            findings.append(Finding("duplicate-label-name",
                                    f"label {decl.name!r} declared twice"))
        else:
            decls[decl.name] = decl

    graph = LabeledGraph(decls.values())
    first: dict[tuple[str, Node], int] = {}
    conflicts: list[Finding] = []
    reported: set[Annotation] = set()
    for i, ann in enumerate(annset.annotations):
        decl = decls.get(ann.label)
        if decl is None:
            findings.append(Finding("unknown-label",
                                    f"annotation {i}: label {ann.label!r} "
                                    f"is not declared", (i,)))
        length = doc_lengths.get(ann.mention.doc_id)
        if length is None:
            findings.append(Finding("unknown-document",
                                    f"annotation {i}: document "
                                    f"{ann.mention.doc_id!r} is not declared",
                                    (i,)))
            continue
        mention, entity = ann.mention, ann.entity
        # both spans inside the document and the mention strictly
        # inside the entity, in one test; the findings only if not
        if not (0 <= entity.start <= mention.start < mention.end
                <= entity.end <= length
                and (entity.start < mention.start or mention.end < entity.end)
                and entity.doc_id == mention.doc_id):
            bad = [f for f in (_span_finding(mention, length, i, "mention"),
                               _span_finding(entity, length, i, "entity"))
                   if f is not None]
            findings.extend(bad or [Finding(
                "bad-nesting",
                f"annotation {i}: mention [{mention.start}, {mention.end}) "
                f"is not strictly inside entity "
                f"[{entity.start}, {entity.end})", (i,))])
            continue
        if decl is None:
            continue
        source, target = map_endpoints(decl, ann)
        current = graph._bind(ann.label, source, target)
        if current is None:
            first.setdefault((ann.label, source), i)
        elif ann not in reported:
            reported.add(ann)
            j = first[(ann.label, source)]
            conflicts.append(Finding(
                "map-conflict",
                f"annotations {j} and {i}: label {ann.label!r} maps "
                f"{source.key} to both {current.key} and {target.key}",
                (j, i)))

    return findings + conflicts, graph


def _error(annset: AnnotationSet, finding: Finding) -> LabelFlowError:
    """The typed error for a finding; a map conflict names the label,
    the source, both targets and both annotation indices."""
    if finding.kind != "map-conflict":
        return _FINDING_ERRORS[finding.kind](finding.message)
    j, i = finding.annotations
    label = annset.annotations[j].label
    decl = next(d for d in annset.labels if d.name == label)
    (source, first), (_, second) = (
        map_endpoints(decl, annset.annotations[k]) for k in (j, i))
    return MapNotWellDefined(
        finding.message, label=label, source=source.key,
        first_target=first.key, second_target=second.key,
        first_index=j, second_index=i)


def validate(annset: AnnotationSet) -> list[Finding]:
    """All violations in a deterministic order: document findings, label
    findings, per-annotation findings in input order, then per-label
    map conflicts in input order.

    The list is empty iff build_graph would succeed: both come from the
    same single pass over the set.
    """
    return _ingest(annset)[0]


def build_graph(annset: AnnotationSet) -> LabeledGraph:
    """The LabeledGraph of all annotations; order-insensitive.

    Raises the typed error of the first finding validate would report.
    A map conflict raises MapNotWellDefined naming both annotation
    indices.
    """
    findings, graph = _ingest(annset)
    if findings:
        raise _error(annset, findings[0])
    return graph


def parse_dataset(data: Union[bytes, str]) -> AnnotationSet:
    """Parse and fully validate a dataset.

    Exact duplicate annotations are dropped silently. Raises the typed
    error for the first finding other than a map conflict; conflicts are
    left to build_graph, which reports them with both annotations
    identified.
    """
    annset = structural_parse(data)
    findings = validate(annset)
    if findings and findings[0].kind != "map-conflict":
        raise _error(annset, findings[0])
    annset.annotations = _dedup(annset.annotations)
    return annset


# -- serialization -----------------------------------------------------


def to_json_obj(annset: AnnotationSet) -> dict:
    """Canonical plain-JSON form of a dataset."""
    canon = annset.canonical()
    return {
        "documents": [{"id": d.id, "text": d.text} for d in canon.documents],
        "labels": [{"name": l.name, "direction": l.direction.value}
                   for l in canon.labels],
        "annotations": [
            {
                "doc": a.mention.doc_id,
                "label": a.label,
                "mention": [a.mention.start, a.mention.end],
                "entity": [a.entity.start, a.entity.end],
            }
            for a in canon.annotations
        ],
    }


_INF = float("inf")


def _json_text(obj, newline: str) -> str:
    """``obj`` as indent-2 JSON; ``newline`` is a newline followed by the
    indent of the line ``obj`` starts on."""
    if isinstance(obj, str):
        return encode_basestring(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = newline + "  "
        # encode_basestring raises TypeError for a key that is not a str;
        # a value of exact type str is written here, not by a call
        return ("{" + inner + ("," + inner).join([
            f"{encode_basestring(key)}: {encode_basestring(value)}"
            if type(value) is str
            else f"{encode_basestring(key)}: {_json_text(value, inner)}"
            for key, value in obj.items()]) + newline + "}")
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = newline + "  "
        return ("[" + inner + ("," + inner).join([
            encode_basestring(value) if type(value) is str
            else _json_text(value, inner)
            for value in obj]) + newline + "]")
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        if obj != obj:
            return "NaN"
        if obj in (_INF, -_INF):
            return "Infinity" if obj > 0 else "-Infinity"
        return float.__repr__(obj)
    raise TypeError(f"Object of type {type(obj).__name__} "
                    f"is not JSON serializable")


def to_json_text(obj) -> str:
    """``json.dumps(obj, indent=2, ensure_ascii=False)``, character for
    character, for dicts with str keys, lists, tuples, str, int, float,
    bool and None (subclasses included, as json treats them); any other
    type, a dict key included, raises TypeError. Circular containers are
    not detected: they raise RecursionError, where json raises
    ValueError."""
    return _json_text(obj, "\n")


def serialize_dataset(annset: AnnotationSet) -> bytes:
    """Canonical UTF-8 JSON bytes. parse_dataset(serialize_dataset(x)) == x
    for every valid set."""
    return (to_json_text(to_json_obj(annset)) + "\n").encode("utf-8")
