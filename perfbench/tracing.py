"""Per-layer tracing from outside labelflow.

``Tracer.install`` replaces selected labelflow functions and methods with
wrappers, at every place a calling module looks them up: the module
attribute of each labelflow module that holds the original function,
and the class attribute for methods. ``uninstall`` puts the originals
back. Untraced runs never call ``install``.

A span is (name, start, end, parent, operation id). Spans live in
in-memory arrays until ``write`` dumps them as JSON lines. A span's self
time is its duration minus the durations of its direct children; one
thread runs everything, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from array import array
from collections import Counter, defaultdict

import labelflow
from labelflow import cli, dataset, info, model, partition, synth

MODULES = {"cli": cli, "dataset": dataset, "model": model,
           "partition": partition, "info": info}
_LOOKUP_SITES = (labelflow, cli, dataset, info, model, partition, synth)

# (layer, attribute path) of every function that gets a span
SPANS = (
    ("cli", "main"),
    ("dataset", "structural_parse"),
    ("dataset", "validate"),
    ("dataset", "build_graph"),
    ("dataset", "AnnotationSet.document"),
    ("model", "LabeledGraph.add"),
    ("model", "LabeledGraph.domain"),
    ("model", "LabeledGraph.out_edges"),
    ("model", "LabeledGraph.sorted_nodes"),
    ("model", "LabeledGraph.sorted_edges"),
    ("partition", "fibers"),
    ("partition", "meet"),
    ("partition", "directed_intersection_count"),
    ("partition", "common_domain"),
    ("partition", "composite_domain"),
    ("partition", "composite_partition"),
    ("info", "label_report"),
    ("info", "path_report"),
    ("info", "dependency"),
    ("info", "path_distance"),
)
# called too often for a span each: counted only, under the metric name
COUNTS = (
    ("model", "LabeledGraph.target", "model.LabeledGraph.target.calls"),
    ("partition", "Partition.__init__", "partition.Partition.constructed"),
)

# per-layer metrics reported by a traced run, with their units
METRICS = {
    "cli.main.self_ms": "ms",
    "dataset.structural_parse.self_ms": "ms",
    "dataset.validate.self_ms": "ms",
    "dataset.build_graph.self_ms": "ms",
    "dataset.AnnotationSet.document.calls": "count",
    "dataset.AnnotationSet.document.self_ms": "ms",
    "model.LabeledGraph.add.calls": "count",
    "model.LabeledGraph.add.self_ms": "ms",
    "model.LabeledGraph.domain.calls": "count",
    "model.LabeledGraph.domain.self_ms": "ms",
    "model.LabeledGraph.target.calls": "count",
    "model.LabeledGraph.out_edges.calls": "count",
    "model.LabeledGraph.out_edges.self_ms": "ms",
    "model.LabeledGraph.sorted_nodes.self_ms": "ms",
    "model.LabeledGraph.sorted_edges.self_ms": "ms",
    "partition.fibers.calls": "count",
    "partition.fibers.self_ms": "ms",
    "partition.fibers.universe_nodes": "count",
    "partition.meet.self_ms": "ms",
    "partition.directed_intersection_count.self_ms": "ms",
    "partition.Partition.constructed": "count",
    "partition.common_domain.calls": "count",
    "partition.common_domain.self_ms": "ms",
    "partition.composite_domain.self_ms": "ms",
    "partition.composite_partition.self_ms": "ms",
    "info.label_report.self_ms": "ms",
    "info.dependency.self_ms": "ms",
    "info.path_report.self_ms": "ms",
    "info.path_distance.self_ms": "ms",
    "info.path_distance.useful_ratio": "ratio",
    "trace.overhead": "ratio",
}


def _resolve(layer: str, path: str):
    owner = MODULES[layer]
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.operation = 0
        self.counts: Counter = Counter()
        self.domain_labels: dict[int, list] = defaultdict(list)
        self._open: list[int] = []
        self._patches: list[tuple] = []

    # -- wrappers ------------------------------------------------------

    def _span(self, name: str, fn, after=None):
        nid = len(self.names)
        self.names.append(name)
        open_, clock = self._open, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name_of.append(nid)
            self.parent.append(open_[-1] if open_ else -1)
            self.op.append(self.operation)
            self.end.append(0)
            open_.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                open_.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _count(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _after_fibers(self, args, result):
        self.counts["partition.fibers.universe_nodes"] += len(result.universe)

    def _after_common_domain(self, args, result):
        self.domain_labels[self.operation].append(tuple(args[1]))

    def install(self) -> None:
        after = {"partition.fibers": self._after_fibers,
                 "partition.common_domain": self._after_common_domain}
        for layer, path in SPANS:
            name = f"{layer}.{path}"
            self._patch(layer, path, lambda fn, name=name: self._span(
                name, fn, after.get(name)))
        for layer, path, name in COUNTS:
            self._patch(layer, path, lambda fn, name=name: self._count(name, fn))

    def _patch(self, layer, path, make):
        owner, attr = _resolve(layer, path)
        original = getattr(owner, attr)
        wrapper = make(original)
        if isinstance(owner, type):
            sites = [owner]
        else:
            sites = [m for m in _LOOKUP_SITES
                     if getattr(m, attr, None) is original]
        for site in sites:
            self._patches.append((site, attr, original))
            setattr(site, attr, wrapper)

    def uninstall(self) -> None:
        for site, attr, original in reversed(self._patches):
            setattr(site, attr, original)
        self._patches.clear()

    # -- results -------------------------------------------------------

    def metrics(self, scale) -> dict[str, float]:
        """Totals over everything traced: self milliseconds and calls per
        span name, plus the counters. The self time of a span of
        operation ``i`` is multiplied by ``scale[i]``."""
        n = len(self.start)
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        self_ns, calls = Counter(), Counter()
        for i in range(n):
            name = self.names[self.name_of[i]]
            self_ns[name] += (self.end[i] - self.start[i] - child[i]) \
                * scale[self.op[i]]
            calls[name] += 1
        out: dict[str, float] = {}
        for layer, path in SPANS:
            name = f"{layer}.{path}"
            out[f"{name}.self_ms"] = self_ns[name] / 1e6
            out[f"{name}.calls"] = calls[name]
        out.update(self.counts)
        out["info.path_distance.useful_ratio"] = self._useful_ratio()
        return out

    def _useful_ratio(self) -> float:
        """Median over path_distance operations of distinct label pairs
        handed to common_domain per common_domain call; 0 when the
        workload makes no path_distance call."""
        distance = self.names.index("info.path_distance")
        ops = {self.op[i] for i in range(len(self.start))
               if self.name_of[i] == distance}
        ratios = [len(set(self.domain_labels[o])) / len(self.domain_labels[o])
                  for o in sorted(ops) if self.domain_labels[o]]
        return statistics.median(ratios) if ratios else 0.0

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for i in range(len(self.start)):
                handle.write(json.dumps(
                    [self.names[self.name_of[i]], self.start[i], self.end[i],
                     self.parent[i], self.op[i]]) + "\n")
