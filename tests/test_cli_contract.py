"""The CLI contract of the ingest commands, fuzzed.

``validate`` and ``graph`` run in-process on arbitrary bytes, on mutated
datasets, and on mutated datasets with one byte edited. Whatever the
input, each command exits 0, 1 or 2, writes nothing or one JSON payload
to stdout, never a traceback or an internal error to stderr, and gives
the same bytes when run twice.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from labelflow.cli import main
from conftest import mutated_datasets


@pytest.fixture(scope="module")
def dataset_path(tmp_path_factory):
    return tmp_path_factory.mktemp("contract") / "dataset.json"


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_contract(path, data: bytes):
    path.write_bytes(data)
    for command in ("validate", "graph"):
        first = run([command, str(path)])
        assert run([command, str(path)]) == first
        code, out, err = first
        assert code in (0, 1, 2), err
        if out:
            json.loads(out)
        assert "Traceback" not in err and "internal error" not in err


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
