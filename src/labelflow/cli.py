"""Command-line interface.

Every command reads input from file paths, writes a single JSON payload
to stdout, and reports problems on stderr. Exit codes: 0 success, 1 the
input failed validation (payload describes why), 2 usage error
(unreadable file, unknown label or node, bad flags), 3 internal error.
Identical inputs always produce byte-identical payloads, and payloads
are UTF-8 bytes whatever the locale: they are written to the byte
buffer under ``sys.stdout`` (a stdout with none, such as an in-process
``io.StringIO``, gets the text).

``ERRORS`` is the one place where a typed library error meets its exit
code and payload: a command lets such an error escape, and ``main``
handles it once. Any other exception, a ``LabelFlowError`` type the
table does not list included, is an internal error. ``_Failure``
carries the CLI's own failures: an unreadable or unwritable file, a bad
node key, and the findings of a dataset that fails validation.

Only ``dataset``, ``errors`` and ``model`` are imported here; a command
that needs ``info`` or ``synth`` imports it inside its function, so
``validate`` and ``graph`` never load the query or generator modules.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .dataset import AnnotationSet, _ingest, serialize_dataset, \
    structural_parse, to_json_text
from .errors import (
    ContradictoryRules,
    DomainGap,
    EmptyUniverse,
    IncompleteRules,
    InvalidRuleSpec,
    MalformedInput,
    UnknownLabel,
    UnknownNode,
)
from .model import Document, LabeledGraph, Node, Region

NODE_KEY = re.compile(r"(.*):([0-9]+)-([0-9]+)", re.DOTALL)


def _error(kind: str, exc: Exception, **fields) -> dict:
    return {"error": kind, "message": str(exc), **fields}


# exact error type -> (exit code, payload builder); an exit-2 entry has
# no builder and prints the message on stderr
ERRORS = {
    MalformedInput: (1, lambda exc: [{"kind": "malformed-input",
                                      "message": str(exc),
                                      "annotations": []}]),
    DomainGap: (1, lambda exc: _error(
        "domain-gap", exc, label=exc.label,
        nodes=[n.key for n in exc.nodes], step=exc.step)),
    EmptyUniverse: (1, lambda exc: _error("empty-universe", exc)),
    InvalidRuleSpec: (1, lambda exc: _error("invalid-rule-spec", exc)),
    IncompleteRules: (1, lambda exc: _error(
        "incomplete-rules", exc, combination=list(exc.combination))),
    ContradictoryRules: (1, lambda exc: _error(
        "contradictory-rules", exc, combination=list(exc.combination),
        values=list(exc.values))),
    UnknownLabel: (2, None),
    UnknownNode: (2, None),
}


class _Failure(Exception):
    def __init__(self, code: int, payload=None, message: str | None = None):
        super().__init__(message or "")
        self.code = code
        self.payload = payload
        self.message = message


def _as_failure(exc: Exception) -> _Failure:
    """What ``main`` reports for an exception a command let escape."""
    if isinstance(exc, _Failure):
        return exc
    if type(exc) not in ERRORS:
        return _Failure(3, message=f"internal error: {exc}")
    code, build = ERRORS[type(exc)]
    if build is None:
        return _Failure(code, message=str(exc))
    return _Failure(code, payload=build(exc))


def _write(text: str) -> None:
    buffer = getattr(sys.stdout, "buffer", None)
    if buffer is None:
        sys.stdout.write(text)
    else:
        sys.stdout.flush()  # keep the order of any text written before
        buffer.write(text.encode("utf-8"))


def _emit(payload) -> None:
    _write(to_json_text(payload) + "\n")


def _read_bytes(path: str) -> bytes:
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except OSError as exc:
        raise _Failure(2, message=f"cannot read {path}: {exc}") from None


def _load_dataset(path: str) -> tuple[AnnotationSet, LabeledGraph]:
    annset = structural_parse(_read_bytes(path))
    findings, graph = _ingest(annset)
    if findings:
        raise _Failure(1, payload=[f.to_json_dict() for f in findings])
    return annset, graph


def _parse_node_key(key: str) -> Region:
    match = NODE_KEY.fullmatch(key)
    try:
        if match:
            return Region(match.group(1), int(match.group(2)),
                          int(match.group(3)))
    except ValueError:  # more digits than the interpreter converts
        pass
    raise _Failure(2, message=f"bad node key {key!r}; "
                              f"expected doc:start-end")


# -- commands ----------------------------------------------------------


def cmd_validate(args) -> list:
    _load_dataset(args.dataset)
    return []


def _surface_label(docs: dict[str, Document], node: Node) -> str:
    surface = docs[node.region.doc_id].surface(node.region).split("\n", 1)[0]
    if len(surface) > 40:
        surface = surface[:40] + "…"
    return surface


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _edge_listing(graph: LabeledGraph):
    """(label, direction, source key, target key) of every edge, in
    ``sorted_edges`` order, read off each label's sorted domain and map:
    no edge object per edge."""
    for name, decl in sorted(graph.labels.items()):
        direction, targets = decl.direction.value, graph.label_map(name)
        for source in graph.domain(name):
            yield name, direction, source.key, targets[source].key


def cmd_graph(args):
    annset, graph = _load_dataset(args.dataset)
    docs = {doc.id: doc for doc in annset.documents}
    nodes = ((node.key, _surface_label(docs, node))
             for node in graph.sorted_nodes())
    edges = _edge_listing(graph)
    if args.format == "json":
        return {
            "nodes": [{"key": key, "surface": surface}
                      for key, surface in nodes],
            "edges": [{"label": label, "direction": direction,
                       "source": source, "target": target}
                      for label, direction, source, target in edges],
        }
    lines = ["digraph labelflow {"]
    for key, surface in nodes:
        lines.append(f'  "{_dot_escape(key)}" '
                     f'[label="{_dot_escape(surface)}"];')
    for label, direction, source, target in edges:
        lines.append(f'  "{_dot_escape(source)}" -> "{_dot_escape(target)}" '
                     f'[label="{_dot_escape(label)} ({direction})"];')
    lines.append("}")
    _write("\n".join(lines) + "\n")
    return None


def cmd_entropy(args):
    from .info import label_report, path_report

    _, graph = _load_dataset(args.dataset)
    if args.label is not None:
        return label_report(graph, args.label).to_json_dict()
    return path_report(graph, args.path.split(",")).to_json_dict()


def cmd_depend(args):
    from .info import dependency

    _, graph = _load_dataset(args.dataset)
    return dependency(graph, args.from_labels.split(","),
                      args.to_label).to_json_dict()


def cmd_distance(args):
    from .info import path_distance

    _, graph = _load_dataset(args.dataset)
    source = Node(_parse_node_key(args.source))
    target = Node(_parse_node_key(args.target))
    return path_distance(graph, source, target).to_json_dict()


def cmd_synth(args):
    from .synth import generate_universe, rulespec_from_json

    data = _read_bytes(args.rulespec)
    try:
        obj = json.loads(data)
    except (RecursionError, ValueError) as exc:
        # also nesting past the recursion limit and integers with more
        # digits than the interpreter converts
        raise InvalidRuleSpec(f"rule spec is not valid JSON: {exc}") from None
    try:
        annset = generate_universe(rulespec_from_json(obj))
    except RecursionError as exc:  # a condition nested too deep
        raise InvalidRuleSpec(str(exc)) from None
    payload = serialize_dataset(annset)
    try:
        with open(args.out, "wb") as handle:
            handle.write(payload)
    except OSError as exc:
        raise _Failure(2, message=f"cannot write {args.out}: {exc}") from None
    return {
        "out": args.out,
        "documents": len(annset.documents),
        "labels": len(annset.labels),
        "annotations": len(annset.annotations),
    }


# -- wiring ------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="labelflow",
        description="Inspect information flow over label-map graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a dataset file")
    p.add_argument("dataset")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("graph", help="export the induced graph")
    p.add_argument("dataset")
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("entropy", help="entropy of a label or label path")
    p.add_argument("dataset")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--label")
    group.add_argument("--path", help="comma-separated label names")
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser("depend",
                       help="how far one property determines another")
    p.add_argument("dataset")
    p.add_argument("--from", dest="from_labels", required=True,
                   help="comma-separated source labels")
    p.add_argument("--to", dest="to_label", required=True)
    p.set_defaults(func=cmd_depend)

    p = sub.add_parser("distance",
                       help="accumulated-loss distance between two nodes")
    p.add_argument("dataset")
    p.add_argument("--from", dest="source", required=True,
                   help="node key doc:start-end")
    p.add_argument("--to", dest="target", required=True,
                   help="node key doc:start-end")
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("synth",
                       help="generate a dataset from a rule spec")
    p.add_argument("rulespec")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        payload = args.func(args)
    except Exception as exc:  # noqa: BLE001 - last-resort boundary
        failure = _as_failure(exc)
        if failure.message:
            print(failure.message, file=sys.stderr)
        if failure.payload is not None:
            _emit(failure.payload)
        return failure.code
    if payload is not None:
        _emit(payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
