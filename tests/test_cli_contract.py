"""The CLI contract, fuzzed.

``validate`` and ``graph`` (JSON and DOT) run in-process on arbitrary
bytes, on mutated datasets, and on mutated datasets with one byte
edited; ``entropy``, ``depend`` and ``distance`` run on mutated and on
valid datasets with label names and node keys drawn from the dataset,
and unknown ones. Whatever the input, each command exits 0, 1 or 2,
writes nothing or one payload to stdout (a DOT listing for ``graph
--format dot`` on success, JSON otherwise), never a traceback or an
internal error to stderr, and gives the same bytes when run twice.
A dataset that validates round-trips through the canonical
serialization byte for byte, and every node key ``graph`` lists is
accepted by ``distance``.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from labelflow.cli import main
from labelflow.dataset import parse_dataset, serialize_dataset
from conftest import mutated_datasets, valid_datasets

INGEST = (["validate"], ["graph"], ["graph", "--format", "dot"])
UNKNOWN_LABELS = ["nope", "", "f,nope", "-x", "é"]
ODD_DOC_IDS = ["", "a\nb", "a:b", ":0-1", "0-1\n:"]
UNKNOWN_KEYS = ["d:0-99", "nope:0-1", "d:3-0", "d:-1-3", "d0-3", "",
                "d:0-" + "9" * 5000]


@pytest.fixture(scope="module")
def dataset_path(tmp_path_factory):
    return tmp_path_factory.mktemp("contract") / "dataset.json"


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_command(argv):
    """Run ``argv`` twice and check the contract on what it gave."""
    first = run(argv)
    assert run(argv) == first
    code, out, err = first
    assert code in (0, 1, 2), err
    assert "Traceback" not in err and "internal error" not in err
    if code == 0 and "dot" in argv:
        assert out.startswith("digraph labelflow {\n") and \
            out.endswith("}\n")
    elif out:
        json.loads(out)
    return code


def assert_contract(path, data: bytes):
    path.write_bytes(data)
    for command in INGEST:
        assert_command([*command, str(path)])


def encoded(obj, ensure_ascii: bool) -> bytes:
    # with ensure_ascii off, a lone surrogate makes the bytes invalid UTF-8
    return json.dumps(obj, ensure_ascii=ensure_ascii).encode(
        "utf-8", "surrogatepass")


@settings(max_examples=60)
@given(st.binary(max_size=64))
def test_arbitrary_bytes(dataset_path, data):
    assert_contract(dataset_path, data)


@settings(max_examples=120)
@given(mutated_datasets(), st.booleans())
def test_mutated_datasets(dataset_path, obj, ensure_ascii):
    assert_contract(dataset_path, encoded(obj, ensure_ascii))


@settings(max_examples=60)
@given(mutated_datasets(max_mutations=2), st.booleans(), st.data())
def test_mutated_bytes(dataset_path, obj, ensure_ascii, data):
    raw = encoded(obj, ensure_ascii)
    at = data.draw(st.integers(0, len(raw)))
    edit = data.draw(st.sampled_from(["cut", "drop", "insert"]))
    if edit == "cut":
        raw = raw[:at]
    elif edit == "drop":
        raw = raw[:at] + raw[at + 1:]
    else:
        raw = raw[:at] + bytes([data.draw(st.integers(0, 255))]) + raw[at:]
    assert_contract(dataset_path, raw)


def names_and_keys(obj):
    """Label names and node keys the dataset object declares or
    annotates, however malformed the rest of it."""
    def records(section):
        found = obj.get(section) if type(obj) is dict else None
        return [r for r in found if type(r) is dict] \
            if type(found) is list else []
    names = [r["name"] for r in records("labels")
             if type(r.get("name")) is str]
    keys = [f"{r['doc']}:{span[0]}-{span[1]}"
            for r in records("annotations") if type(r.get("doc")) is str
            for span in (r.get("mention"), r.get("entity"))
            if type(span) is list and len(span) == 2]
    return names, keys


@settings(max_examples=60)
@given(st.one_of(mutated_datasets(max_mutations=2), valid_datasets()),
       st.data())
def test_query_commands(dataset_path, obj, data):
    dataset_path.write_bytes(encoded(obj, ensure_ascii=False))
    names, keys = names_and_keys(obj)
    label = st.sampled_from(names + UNKNOWN_LABELS)
    labels = st.lists(label, min_size=1, max_size=3).map(",".join)
    key = st.sampled_from(keys + UNKNOWN_KEYS)
    path = str(dataset_path)
    argv = data.draw(st.one_of(
        st.tuples(st.just(["entropy", path, "--label"]), label),
        st.tuples(st.just(["entropy", path, "--path"]), labels),
        st.tuples(st.just(["depend", path, "--from"]), labels,
                  st.just("--to"), label),
        st.tuples(st.just(["distance", path, "--from"]), key,
                  st.just("--to"), key),
    ).map(lambda parts: [*parts[0], *parts[1:]]))
    assert_command(argv)


@settings(max_examples=40)
@given(st.one_of(mutated_datasets(max_mutations=2), valid_datasets()),
       st.booleans())
def test_valid_datasets_round_trip(dataset_path, obj, ensure_ascii):
    raw = encoded(obj, ensure_ascii)
    dataset_path.write_bytes(raw)
    if assert_command(["validate", str(dataset_path)]) != 0:
        return
    annset = parse_dataset(raw)
    once = serialize_dataset(annset)
    again = parse_dataset(once)
    assert again == annset
    assert serialize_dataset(again) == once


@settings(max_examples=30)
@given(valid_datasets(), st.data())
def test_graph_keys_round_trip(dataset_path, obj, data):
    """Every key ``graph`` lists is accepted by ``distance --from`` and
    names that node, whatever the document id."""
    ids = [doc["id"] for doc in obj["documents"]]
    rename = dict(zip(ids, data.draw(st.permutations(ids + ODD_DOC_IDS))))
    for doc in obj["documents"]:
        doc["id"] = rename[doc["id"]]
    for ann in obj["annotations"]:
        ann["doc"] = rename[ann["doc"]]
    dataset_path.write_bytes(encoded(obj, ensure_ascii=False))
    path = str(dataset_path)
    code, out, err = run(["graph", path])
    assert code == 0, err
    for node in json.loads(out)["nodes"]:
        code, out, err = run(["distance", path, "--from", node["key"],
                              "--to", node["key"]])
        assert code == 0, err
        assert json.loads(out)["query"]["from"] == node["key"]
