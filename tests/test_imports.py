"""The package's import boundary: what ``import labelflow`` and each
command load, the lazily resolved exports, and the console script."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import labelflow

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
FIG2 = str(DATA / "fig2.json")

# ``labelflow.__all__`` before the exports became lazy
EXPORTS = [
    "Annotation", "AnnotationSet", "BadNesting", "ContradictoryRules",
    "DependencyReport", "Direction", "DistanceResult", "Document",
    "DomainGap", "DuplicateDocId", "DuplicateLabelName", "EmptyUniverse",
    "Finding", "IncompleteRules", "InfoReport", "InvalidRuleSpec",
    "LabelDecl", "LabelFlowError", "LabeledGraph", "MalformedInput",
    "MapEdge", "MapNotWellDefined", "Node", "Partition", "Region",
    "RuleSpec", "SpanOutOfBounds", "UniverseMismatch", "UnknownAttribute",
    "UnknownDocument", "UnknownLabel", "UnknownNode", "build_graph",
    "common_domain", "composite_domain", "composite_loss",
    "composite_partition", "dependency", "dependency_loss",
    "directed_intersection_count", "entropy", "entropy_loss", "fibers",
    "generate_universe", "label_report", "map_endpoints", "meet",
    "oracle_counts", "parse_dataset", "path_distance", "path_report",
    "propagation_probability", "region_contains", "relevancy_score",
    "rulespec_from_json", "serialize_dataset", "universe_layout",
    "validate",
]


def fresh(code: str) -> str:
    """The last line ``code`` prints in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def loaded_after(code: str) -> set[str]:
    """The ``labelflow.*`` submodules a fresh interpreter holds after
    running ``code``."""
    report = ("\nimport json, sys\nprint(json.dumps(sorted(m for m in "
              "sys.modules if m.startswith('labelflow.'))))")
    return {m.removeprefix("labelflow.")
            for m in json.loads(fresh(code + report))}


def command(*argv: str) -> str:
    return f"from labelflow import cli\ncli.main({list(argv)!r})"


class TestImportBoundary:
    def test_package_import_loads_no_submodule(self):
        assert loaded_after("import labelflow") == set()

    @pytest.mark.parametrize("argv", [
        ("validate", FIG2),
        ("graph", FIG2),
    ])
    def test_ingest_commands_skip_queries_and_generator(self, argv):
        assert loaded_after(command(*argv)) == {
            "cli", "dataset", "errors", "model"}

    def test_query_command_skips_generator(self):
        assert loaded_after(command("entropy", FIG2, "--label", "color")) \
            == {"cli", "dataset", "errors", "info", "model", "partition"}

    def test_synth_skips_queries(self, tmp_path):
        argv = ("synth", str(DATA / "example1.rules.json"),
                "--out", str(tmp_path / "out.json"))
        assert loaded_after(command(*argv)) == {
            "cli", "dataset", "errors", "model", "synth"}


class TestLazyExports:
    def test_all_is_unchanged(self):
        assert labelflow.__all__ == EXPORTS

    def test_each_name_is_the_object_of_its_home_module(self):
        for name in EXPORTS:
            value = getattr(labelflow, name)
            assert value.__module__.startswith("labelflow."), name
            assert getattr(sys.modules[value.__module__], name) is value, name
            assert vars(labelflow)[name] is value, name  # read once, kept

    def test_dir_lists_every_export(self):
        # in a fresh interpreter, before any name has been read
        assert fresh("import labelflow\nprint(set(labelflow.__all__) "
                     "<= set(dir(labelflow)))") == "True"

    def test_star_import_binds_exactly_all(self):
        namespace = {}
        exec("from labelflow import *", namespace)
        del namespace["__builtins__"]
        assert set(namespace) == set(labelflow.__all__)

    def test_unknown_name(self):
        with pytest.raises(AttributeError,
                           match="module 'labelflow' has no attribute "
                                 "'no_such_name'"):
            labelflow.no_such_name
        assert not hasattr(labelflow, "no_such_name")

    def test_submodules_still_import(self):
        from labelflow import cli, dataset

        assert cli is sys.modules["labelflow.cli"]
        assert dataset is sys.modules["labelflow.dataset"]

    def test_version(self):
        assert labelflow.__version__ == "0.1.0"


def test_console_script_entry_point(capsys):
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as handle:
        scripts = tomllib.load(handle)["project"]["scripts"]
    module, _, attr = scripts["labelflow"].partition(":")
    main = getattr(importlib.import_module(module), attr)
    assert main(["validate", FIG2]) == 0
    assert capsys.readouterr().out == "[]\n"
