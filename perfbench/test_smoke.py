"""Smoke test of the benchmark itself: a tiny run of every workload.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that each run prints every metric BENCHMARK.json declares, with
its unit, that no operation fails, that one seed generates byte-identical
inputs twice, and that the benchmark refuses to run without the
labelflow sources.
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
WORK = HERE / "_work" / "smoke"


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "7", "--seconds", "1",
                  "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    assert result["failed"] == 0 and result["correct"] is True
    assert result["attempted"] >= 1
    assert "fail_ratio = 0 " in proc.stdout


def test_benchmark_json_matches_the_code():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    import tracing
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == tracing.METRICS
    assert set(WORKLOADS) == set(run.WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_seed_generates_identical_inputs(workload):
    module = importlib.import_module(run.WORKLOADS[workload])
    trees = []
    for copy in ("a", "b", "c"):
        workdir = WORK / workload / copy
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        module.Workload(3 if copy != "c" else 4, workdir)
        trees.append({p.name: p.read_bytes() for p in workdir.iterdir()})
    shutil.rmtree(WORK / workload)
    assert trees[0] == trees[1]
    assert trees[0] != trees[2]


def test_refuses_to_run_without_sources():
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = _bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
