"""Test-only reference: ``structural_parse`` as it was before the parse
was driven by one key table, kept verbatim with its helpers.

It checks annotations on two paths, a fast path for well-formed records
with ASCII names and a checked path for every other record, and it
checks the top-level sections in set order, so with two or more
non-array sections the one it reports varies with string hashing.
``tests/test_differential.py`` compares it with the table-driven parser
on mutated datasets.
"""

from __future__ import annotations

import json
from typing import Union

from labelflow.dataset import AnnotationSet
from labelflow.errors import MalformedInput
from labelflow.model import Annotation, Direction, Document, LabelDecl, Region


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise MalformedInput(message)


def _as_str(obj: dict, key: str, where: str) -> str:
    value = obj.get(key)
    _require(isinstance(value, str), f"{where}: field {key!r} must be a string")
    if not value.isascii():
        # JSON admits lone surrogate escapes, which have no UTF-8 form
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:
            raise MalformedInput(f"{where}: field {key!r} is not encodable "
                                 f"as UTF-8 (lone surrogate)") from None
    return value


def _as_span(obj: dict, key: str, where: str) -> tuple[int, int]:
    value = obj.get(key)
    _require(
        isinstance(value, list) and len(value) == 2
        and all(type(v) is int for v in value),
        f"{where}: field {key!r} must be a two-integer array",
    )
    return value[0], value[1]


_ANNOTATION_KEYS = frozenset(("doc", "label", "mention", "entity"))


def structural_parse(data: Union[bytes, str]) -> AnnotationSet:
    """Parse the JSON shape only; the result may violate semantic
    invariants. Raises MalformedInput for anything not matching the
    schema."""
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

    _require(isinstance(obj, dict), "top level must be a JSON object")
    expected = {"documents", "labels", "annotations"}
    _require(
        set(obj) == expected,
        "top level must have exactly the keys documents, labels, annotations",
    )
    for key in expected:
        _require(isinstance(obj[key], list), f"field {key!r} must be an array")

    documents = []
    for i, raw in enumerate(obj["documents"]):
        where = f"documents[{i}]"
        _require(isinstance(raw, dict) and set(raw) == {"id", "text"},
                 f"{where} must be an object with keys id, text")
        documents.append(Document(_as_str(raw, "id", where),
                                  _as_str(raw, "text", where)))

    labels = []
    for i, raw in enumerate(obj["labels"]):
        where = f"labels[{i}]"
        _require(isinstance(raw, dict) and set(raw) == {"name", "direction"},
                 f"{where} must be an object with keys name, direction")
        name = _as_str(raw, "name", where)
        direction = _as_str(raw, "direction", where)
        _require(direction in ("forward", "backward"),
                 f"{where}: direction must be \"forward\" or \"backward\"")
        labels.append(LabelDecl(name, Direction(direction)))

    annotations = []
    for i, raw in enumerate(obj["annotations"]):
        # A well-formed record with ASCII names needs no per-field check;
        # anything else takes the checks below and gets their message.
        if type(raw) is dict and raw.keys() == _ANNOTATION_KEYS:
            doc_id, label = raw["doc"], raw["label"]
            mention, entity = raw["mention"], raw["entity"]
            if (type(doc_id) is str and doc_id.isascii()
                    and type(label) is str and label.isascii()
                    and type(mention) is list and len(mention) == 2
                    and type(entity) is list and len(entity) == 2):
                (ms, me), (es, ee) = mention, entity
                if type(ms) is type(me) is type(es) is type(ee) is int:
                    annotations.append(Annotation(
                        label, mention=Region(doc_id, ms, me),
                        entity=Region(doc_id, es, ee)))
                    continue
        where = f"annotations[{i}]"
        _require(
            isinstance(raw, dict)
            and set(raw) == {"doc", "label", "mention", "entity"},
            f"{where} must be an object with keys doc, label, mention, entity",
        )
        doc_id = _as_str(raw, "doc", where)
        label = _as_str(raw, "label", where)
        ms, me = _as_span(raw, "mention", where)
        es, ee = _as_span(raw, "entity", where)
        annotations.append(Annotation(label,
                                      mention=Region(doc_id, ms, me),
                                      entity=Region(doc_id, es, ee)))

    return AnnotationSet(documents, labels, annotations)
