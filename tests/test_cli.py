import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import labelflow.info
from labelflow import (
    LabelFlowError,
    UniverseMismatch,
    parse_dataset,
    serialize_dataset,
)
from labelflow.cli import main
from conftest import (
    EXAMPLE1_RULES,
    EXAMPLE2_RULES,
    eq12_dataset,
    fig2_dataset,
    fig2_spans,
)

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def run(capsys):
    def invoke(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


@pytest.fixture
def eq12_path(tmp_path):
    path = tmp_path / "eq12.json"
    path.write_text(json.dumps(eq12_dataset()))
    return str(path)


@pytest.fixture
def fig2_path(tmp_path):
    path = tmp_path / "fig2.json"
    path.write_text(json.dumps(fig2_dataset()))
    return str(path)


@pytest.fixture
def example1_paths(tmp_path):
    rules = tmp_path / "rules1.json"
    rules.write_text(json.dumps(EXAMPLE1_RULES))
    out = tmp_path / "example1.json"
    return str(rules), str(out)


class TestValidate:
    def test_valid(self, run, eq12_path):
        code, out, err = run("validate", eq12_path)
        assert code == 0
        assert json.loads(out) == []

    def test_nesting_violation(self, run, tmp_path):
        bad = dict(eq12_dataset())
        bad["annotations"] = bad["annotations"] + [
            {"doc": "d", "label": "class", "mention": [5, 30],
             "entity": [10, 39]},
        ]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        code, out, err = run("validate", str(path))
        assert code == 1
        findings = json.loads(out)
        assert len(findings) == 1
        assert findings[0]["kind"] == "bad-nesting"

    def test_missing_file(self, run, tmp_path):
        code, out, err = run("validate", str(tmp_path / "absent.json"))
        assert code == 2
        assert "absent.json" in err

    def test_malformed_json(self, run, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{oops")
        code, out, err = run("validate", str(path))
        assert code == 1
        assert json.loads(out)[0]["kind"] == "malformed-input"


class TestGraph:
    def test_fig2_json_counts(self, run, fig2_path):
        code, out, err = run("graph", fig2_path)
        assert code == 0
        payload = json.loads(out)
        assert len(payload["nodes"]) == 5
        assert len(payload["edges"]) == 4
        directions = {e["direction"] for e in payload["edges"]}
        assert directions == {"forward", "backward"}

    def test_empty_dataset(self, run, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(
            {"documents": [], "labels": [], "annotations": []}))
        code, out, err = run("graph", str(path))
        assert code == 0
        assert json.loads(out) == {"nodes": [], "edges": []}

    def test_eq12_dot_chain(self, run, eq12_path):
        code, out, err = run("graph", eq12_path, "--format", "dot")
        assert code == 0
        assert out.startswith("digraph")
        assert '[label="dog"]' in out
        assert '[label="mammal: dog, cat."]' in out
        assert '"d:17-20" -> "d:9-27"' in out
        assert '"d:9-27" -> "d:0-39"' in out


class TestEntropy:
    def test_label_report(self, run, example1_paths):
        rules, out_path = example1_paths
        run("synth", rules, "--out", out_path)
        code, out, err = run("entropy", out_path, "--label", "color")
        assert code == 0
        payload = json.loads(out)
        assert payload["class_count"] == 3
        assert payload["entropy_loss_nats"] == pytest.approx(
            math.log(2), abs=1e-9)
        assert payload["propagation"] == 0.5

    def test_path_report(self, run, eq12_path):
        code, out, err = run("entropy", eq12_path, "--path", "class,class")
        assert code == 0
        payload = json.loads(out)
        assert payload["entropy_loss_nats"] == pytest.approx(
            math.log(3), abs=1e-9)
        assert payload["excluded_nodes"] == 2

    def test_unknown_label(self, run, eq12_path):
        code, out, err = run("entropy", eq12_path, "--label", "nope")
        assert code == 2

    def test_domain_gap(self, run, fig2_path):
        code, out, err = run("entropy", fig2_path, "--path",
                             "owning,owning")
        assert code == 1
        assert json.loads(out)["error"] == "domain-gap"

    def test_injective_label(self, run, tmp_path):
        obj = {
            "documents": [{"id": "d", "text": "ab cd.\n"}],
            "labels": [{"name": "part", "direction": "forward"}],
            "annotations": [
                {"doc": "d", "label": "part", "mention": [0, 2],
                 "entity": [0, 7]},
                {"doc": "d", "label": "part", "mention": [3, 5],
                 "entity": [0, 6]},
            ],
        }
        path = tmp_path / "inj.json"
        path.write_text(json.dumps(obj))
        code, out, err = run("entropy", str(path), "--label", "part")
        assert code == 0
        payload = json.loads(out)
        assert payload["entropy_loss_nats"] == 0
        assert payload["propagation"] == 1.0


class TestDepend:
    def test_full_determination(self, run, example1_paths):
        rules, out_path = example1_paths
        run("synth", rules, "--out", out_path)
        code, out, err = run("depend", out_path, "--from", "size",
                             "--to", "price")
        assert code == 0
        payload = json.loads(out)
        assert payload["intersection_count"] == 2
        assert payload["dependency_loss_nats"] == 0
        assert payload["propagation"] == 1.0
        assert payload["relevancy_nats"] == pytest.approx(
            0.346573590279973, abs=1e-9)

    def test_termination(self, run, example1_paths):
        rules, out_path = example1_paths
        run("synth", rules, "--out", out_path)
        code, out, err = run("depend", out_path, "--from", "color",
                             "--to", "price")
        assert code == 0
        payload = json.loads(out)
        assert payload["intersection_count"] == 0
        assert payload["dependency_loss_nats"] == "inf"
        assert payload["propagation"] == 0
        assert payload["terminated"] is True

    def test_combined_from(self, run, tmp_path):
        rules = tmp_path / "rules2.json"
        rules.write_text(json.dumps(EXAMPLE2_RULES))
        out_path = tmp_path / "example2.json"
        run("synth", str(rules), "--out", str(out_path))
        code, out, err = run("depend", str(out_path), "--from",
                             "color,size", "--to", "price")
        assert code == 0
        payload = json.loads(out)
        assert payload["from_class_count"] == 6
        assert payload["intersection_count"] == 6
        assert payload["propagation"] == 1.0
        assert payload["relevancy_nats"] == pytest.approx(
            0.2986265782046758, abs=1e-9)

    def test_disjoint_domains(self, run, fig2_path):
        code, out, err = run("depend", fig2_path, "--from", "color",
                             "--to", "owning")
        assert code == 1
        assert json.loads(out)["error"] == "empty-universe"


class TestDistance:
    def test_same_node(self, run, fig2_path):
        spans = fig2_spans()
        key = "d:{}-{}".format(*spans["black"])
        code, out, err = run("distance", fig2_path, "--from", key,
                             "--to", key)
        assert code == 0
        payload = json.loads(out)
        assert payload["distance_nats"] == 0
        assert payload["path"] == []

    def test_chain(self, run, fig2_path):
        spans = fig2_spans()
        woman = "d:{}-{}".format(*spans["woman"])
        black = "d:{}-{}".format(*spans["black"])
        code, out, err = run("distance", fig2_path, "--from", woman,
                             "--to", black)
        assert code == 0
        payload = json.loads(out)
        assert payload["distance_nats"] == pytest.approx(math.log(2),
                                                         abs=1e-9)
        assert payload["path"][0]["labels"] == ["owning", "color"]

    def test_disconnected(self, run, fig2_path):
        spans = fig2_spans()
        black = "d:{}-{}".format(*spans["black"])
        woman = "d:{}-{}".format(*spans["woman"])
        code, out, err = run("distance", fig2_path, "--from", black,
                             "--to", woman)
        assert code == 0
        assert json.loads(out)["distance_nats"] == "inf"

    def test_bad_key(self, run, fig2_path):
        code, out, err = run("distance", fig2_path, "--from", "junk",
                             "--to", "d:0-5")
        assert code == 2

    def test_unknown_node(self, run, fig2_path):
        code, out, err = run("distance", fig2_path, "--from", "d:1-3",
                             "--to", "d:0-5")
        assert code == 2

    # a trailing newline and non-ASCII digits used to parse as d:0-5
    @pytest.mark.parametrize("key", ["d:0-5\n", "d:\u0660-\u0665"])
    def test_key_is_ascii_digits_to_its_end(self, run, fig2_path, key):
        code, out, err = run("distance", fig2_path, "--from", key,
                             "--to", "d:0-5")
        assert code == 2
        assert out == ""
        assert "bad node key" in err

    @staticmethod
    def assert_doc_id_round_trips(run, tmp_path, doc_id):
        """The keys ``graph`` lists for ``doc_id`` are keys ``distance``
        accepts, and its payload names the same nodes."""
        data = fig2_dataset()
        data["documents"][0]["id"] = doc_id
        for ann in data["annotations"]:
            ann["doc"] = doc_id
        path = tmp_path / "ids.json"
        path.write_text(json.dumps(data))
        spans = fig2_spans()
        woman = "{}:{}-{}".format(doc_id, *spans["woman"])
        black = "{}:{}-{}".format(doc_id, *spans["black"])
        code, out, err = run("graph", str(path))
        assert {woman, black} <= {n["key"] for n in json.loads(out)["nodes"]}
        code, out, err = run("distance", str(path), "--from", woman,
                             "--to", black)
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["query"] == {"kind": "distance", "from": woman,
                                    "to": black}
        assert payload["path"][0]["nodes"][-1] == black

    def test_doc_id_with_colons(self, run, tmp_path):
        self.assert_doc_id_round_trips(run, tmp_path, "a:b")

    @pytest.mark.parametrize("doc_id", ["", "a\nb"])
    def test_every_listed_key_is_accepted(self, run, tmp_path, doc_id):
        self.assert_doc_id_round_trips(run, tmp_path, doc_id)


class TestSynth:
    def test_writes_canonical_dataset(self, run, example1_paths):
        rules, out_path = example1_paths
        code, out, err = run("synth", rules, "--out", out_path)
        assert code == 0
        payload = json.loads(out)
        assert payload["labels"] == 3
        assert payload["annotations"] == 18
        written = Path(out_path).read_bytes()
        annset = parse_dataset(written)
        assert serialize_dataset(annset) == written
        code, out, err = run("validate", out_path)
        assert code == 0

    def test_contradictory_spec(self, run, tmp_path):
        spec = {
            "free": [{"name": "size", "values": ["small", "large"]}],
            "derived": [{"name": "price", "rules": [
                {"when": {"is": ["size", "small"]}, "then": "low"},
                {"when": {"not": ["size", "large"]}, "then": "high"},
                {"when": {"is": ["size", "large"]}, "then": "high"},
            ]}],
        }
        path = tmp_path / "contradiction.json"
        path.write_text(json.dumps(spec))
        code, out, err = run("synth", str(path), "--out",
                             str(tmp_path / "x.json"))
        assert code == 1
        payload = json.loads(out)
        assert payload["error"] == "contradictory-rules"
        assert payload["combination"] == [["size", "small"]]

    def test_incomplete_spec(self, run, tmp_path):
        spec = {
            "free": [{"name": "size", "values": ["small", "large"]}],
            "derived": [{"name": "price", "rules": [
                {"when": {"is": ["size", "small"]}, "then": "low"},
            ]}],
        }
        path = tmp_path / "incomplete.json"
        path.write_text(json.dumps(spec))
        code, out, err = run("synth", str(path), "--out",
                             str(tmp_path / "x.json"))
        assert code == 1
        assert json.loads(out)["error"] == "incomplete-rules"

    def test_usage_error_without_out(self, run, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text(json.dumps(EXAMPLE1_RULES))
        code, out, err = run("synth", str(path))
        assert code == 2


class TestErrorBoundary:
    """Exit 2 prints nothing on stdout and one exact line on stderr; a
    failure outside the error table is exit 3, an internal error."""

    @pytest.mark.parametrize("argv, message", [
        (["entropy", "--label", "nope"], "label 'nope' is not declared"),
        (["entropy", "--path", "color,nope,zz"],
         "label 'nope' is not declared"),
        (["depend", "--from", "color,nope", "--to", "zz"],
         "label 'nope' is not declared"),
        (["depend", "--from", "color", "--to", "nope"],
         "label 'nope' is not declared"),
        (["distance", "--from", "d:1-3", "--to", "d:0-5"],
         "node d:1-3 is not in the graph"),
        (["distance", "--from", "junk", "--to", "d:0-5"],
         "bad node key 'junk'; expected doc:start-end"),
    ])
    def test_usage_error_stderr(self, run, fig2_path, argv, message):
        command, *flags = argv
        assert run(command, fig2_path, *flags) == (2, "", message + "\n")

    def test_missing_dataset_stderr(self, run, tmp_path):
        path = str(tmp_path / "absent.json")
        with pytest.raises(OSError) as exc:
            open(path, "rb")
        assert run("validate", path) == (
            2, "", f"cannot read {path}: {exc.value}\n")

    def test_unwritable_out_stderr(self, run, example1_paths, tmp_path):
        rules, _ = example1_paths
        out = str(tmp_path / "no" / "dir" / "x.json")
        with pytest.raises(OSError) as exc:
            open(out, "wb")
        assert run("synth", rules, "--out", out) == (
            2, "", f"cannot write {out}: {exc.value}\n")

    @pytest.mark.parametrize("error", [UniverseMismatch, LabelFlowError])
    def test_error_outside_table_is_internal(self, run, eq12_path,
                                             monkeypatch, error):
        def fail(graph, label):
            raise error("boom")

        monkeypatch.setattr(labelflow.info, "label_report", fail)
        assert run("entropy", eq12_path, "--label", "class") == (
            3, "", "internal error: boom\n")


class TestDeterminism:
    def test_byte_identical_payloads(self, run, fig2_path, eq12_path):
        spans = fig2_spans()
        woman = "d:{}-{}".format(*spans["woman"])
        black = "d:{}-{}".format(*spans["black"])
        commands = [
            ("validate", eq12_path),
            ("graph", fig2_path),
            ("graph", eq12_path, "--format", "dot"),
            ("entropy", eq12_path, "--label", "class"),
            ("entropy", eq12_path, "--path", "class,class"),
            ("depend", fig2_path, "--from", "color", "--to", "color"),
            ("distance", fig2_path, "--from", woman, "--to", black),
        ]
        for argv in commands:
            first = run(*argv)
            second = run(*argv)
            assert first == second
            assert first[0] == 0

    def test_malformed_sections_same_under_every_hash_seed(self, tmp_path):
        """With every section a non-array, the report names the first in
        schema order, not the first in a hash-ordered set."""
        path = tmp_path / "sections.json"
        path.write_text('{"documents": 1, "labels": 2, "annotations": 3}')
        procs = [subprocess.Popen(
            [sys.executable, "-m", "labelflow.cli", "validate", str(path)],
            env=dict(os.environ, PYTHONHASHSEED=str(seed),
                     PYTHONPATH=str(SRC)),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
            for seed in range(8)]
        runs = set()
        for proc in procs:
            out, err = proc.communicate(timeout=60)
            runs.add((proc.returncode, out, err))
        assert len(runs) == 1
        [(code, out, err)] = runs
        assert code == 1 and err == b""
        assert json.loads(out) == [{
            "kind": "malformed-input",
            "message": "field 'documents' must be an array",
            "annotations": []}]


class TestLoneSurrogates:
    """A JSON \\ud800 escape decodes to a string with no UTF-8 form; the
    CLI reports it as malformed input instead of failing on output."""

    @pytest.mark.parametrize("command", ["validate", "graph"])
    @pytest.mark.parametrize("field", ["text", "id", "name"])
    def test_rejected_as_malformed(self, run, tmp_path, command, field):
        obj = eq12_dataset()
        if field == "text":
            obj["documents"][0]["text"] += "\ud800"
        elif field == "id":
            obj["documents"][0]["id"] += "\ud800"
            for ann in obj["annotations"]:
                ann["doc"] += "\ud800"
        else:
            obj["labels"][0]["name"] += "\ud800"
            for ann in obj["annotations"]:
                ann["label"] += "\ud800"
        path = tmp_path / "surrogate.json"
        path.write_text(json.dumps(obj))
        code, out, err = run(command, str(path))
        assert code == 1
        assert [f["kind"] for f in json.loads(out)] == ["malformed-input"]
        assert "Traceback" not in err and "internal error" not in err


class TestParserLimits:
    """Input past the JSON parser's or the integer converter's limits is
    a validation or usage error, never an internal error."""

    HUGE = "9" * 5000

    @staticmethod
    def assert_clean(code, out, err, expected):
        assert code == expected
        assert out == "" or json.loads(out) is not None
        assert "Traceback" not in err and "internal error" not in err

    @pytest.mark.parametrize("text", ["[" * 100_000, '{"a": [0, %s]}' % HUGE],
                             ids=["deep", "huge-int"])
    def test_dataset_beyond_limits_is_malformed(self, run, tmp_path, text):
        path = tmp_path / "hostile.json"
        path.write_text(text)
        for command in ("validate", "graph"):
            code, out, err = run(command, str(path))
            self.assert_clean(code, out, err, 1)
            assert [f["kind"] for f in json.loads(out)] == ["malformed-input"]

    def test_huge_span_offset_is_malformed(self, run, tmp_path):
        obj = eq12_dataset()
        text = json.dumps(obj).replace(
            json.dumps(obj["annotations"][0]["mention"]), f"[0, {self.HUGE}]")
        path = tmp_path / "huge.json"
        path.write_text(text)
        code, out, err = run("validate", str(path))
        self.assert_clean(code, out, err, 1)
        assert [f["kind"] for f in json.loads(out)] == ["malformed-input"]

    @pytest.mark.parametrize("depth", [100_000, 480],
                             ids=["deep-json", "deep-condition"])
    def test_deep_rule_spec_is_invalid(self, run, tmp_path, depth):
        if depth == 100_000:
            text = "[" * depth
        else:  # parses as JSON, but its condition nests past the limit
            cond = ('{"all": [' * depth + '{"is": ["size", "small"]}'
                    + "]}" * depth)
            text = ('{"free": [{"name": "size", "values": ["small", "large"]}],'
                    ' "derived": [{"name": "price", "rules": ['
                    '{"when": %s, "then": "low"},'
                    ' {"when": {"is": ["size", "large"]}, "then": "high"}]}]}'
                    % cond)
        path = tmp_path / "deep-rules.json"
        path.write_text(text)
        code, out, err = run("synth", str(path), "--out",
                             str(tmp_path / "x.json"))
        self.assert_clean(code, out, err, 1)
        assert json.loads(out)["error"] == "invalid-rule-spec"

    def test_huge_node_key_is_usage_error(self, run, fig2_path):
        code, out, err = run("distance", fig2_path, "--from",
                             f"d:{self.HUGE}-1", "--to", "d:0-5")
        self.assert_clean(code, out, err, 2)
        assert out == ""
        assert "bad node key" in err


class TestStdoutEncoding:
    """Payloads are the same UTF-8 bytes whatever encoding the locale
    gives stdout, and an in-process stdout without a byte buffer still
    receives the text."""

    # "café über 日本." is 19 bytes; the document adds a newline
    DATASET = {
        "documents": [{"id": "dé", "text": "café über 日本.\n"}],
        "labels": [{"name": "cölor", "direction": "backward"},
                   {"name": "in", "direction": "forward"}],
        "annotations": [
            {"doc": "dé", "label": "cölor", "mention": [0, 5],
             "entity": [0, 20]},
            {"doc": "dé", "label": "in", "mention": [6, 11],
             "entity": [0, 19]},
        ],
    }

    def stdout_under(self, encoding: str, argv: list[str]) -> bytes:
        env = dict(os.environ, PYTHONIOENCODING=encoding,
                   PYTHONPATH=str(SRC))
        proc = subprocess.run([sys.executable, "-m", "labelflow.cli", *argv],
                              env=env, capture_output=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert b"Traceback" not in proc.stderr
        assert b"internal error" not in proc.stderr
        return proc.stdout

    @pytest.mark.parametrize("fmt", ["json", "dot"])
    def test_ascii_stdout_gets_utf8_bytes(self, run, tmp_path, fmt):
        path = tmp_path / "non-ascii.json"
        path.write_text(json.dumps(self.DATASET), encoding="utf-8")
        argv = ["graph", str(path), "--format", fmt]
        ascii_out = self.stdout_under("ascii", argv)
        assert ascii_out == self.stdout_under("utf-8", argv)
        assert "café über".encode("utf-8") in ascii_out
        code, out, _ = run(*argv)
        assert code == 0
        assert out.encode("utf-8") == ascii_out
