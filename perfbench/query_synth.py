"""query-synth: ``label_report`` and ``dependency`` on one synth universe.

The universe follows the size ladder of ROADMAP.md: free attributes
``a``, ``b``, ``c`` with K values each and a derived attribute ``p`` given
by ``a`` mod 2, so K**3 entities and 4 K**3 annotations. It is generated
with ``labelflow.synth`` and written to a file before anything is timed;
set-up reads, parses, validates and builds it. The seed orders the
annotations in the file and the query stream.

The stream draws from every distinct query with repeats. A pass holds
each ``label_report`` seven times and each one- and two-label
``dependency`` once. The four reports cost the same and make up more
than half of a pass, so the median latency is theirs and does not jump
between unlike queries; the 90th percentile falls among the two-label
dependencies.

The oracle is ``synth.oracle_counts``: class and intersection counts
straight from the rule table. The nats values are derived from those
counts here.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from pathlib import Path

from labelflow import dataset, info, synth

K = 7
ATTRS = ("a", "b", "c", "p")
SIZE = f"k={K}: {K ** 3} entities, {4 * K ** 3} annotations"
REPORT_REPEAT = 7
_TOL = dict(rel_tol=1e-9, abs_tol=1e-12)


def ladder_spec(k: int) -> synth.RuleSpec:
    return synth.rulespec_from_json({
        "free": [{"name": n, "values": [f"{n}{i}" for i in range(k)]}
                 for n in "abc"],
        "derived": [{"name": "p", "rules": [
            {"when": {"is": ["a", f"a{i}"]}, "then": f"p{i % 2}"}
            for i in range(k)]}],
    })


def _write_universe(spec: synth.RuleSpec, path: Path, rng) -> None:
    """The universe as dataset JSON, annotations in a seeded order."""
    annset = synth.generate_universe(spec)
    annotations = [{"doc": a.mention.doc_id, "label": a.label,
                    "mention": [a.mention.start, a.mention.end],
                    "entity": [a.entity.start, a.entity.end]}
                   for a in annset.annotations]
    rng.shuffle(annotations)
    path.write_text(json.dumps({
        "documents": [{"id": d.id, "text": d.text} for d in annset.documents],
        "labels": [{"name": l.name, "direction": l.direction.value}
                   for l in annset.labels],
        "annotations": annotations}, indent=1), encoding="utf-8")


class Workload:
    name = "query-synth"
    size = SIZE

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(f"query-synth:{seed}")
        spec = ladder_spec(K)
        self.path = workdir / "universe.json"
        _write_universe(spec, self.path, rng)
        self.cold_path = workdir / "universe-small.json"
        _write_universe(ladder_spec(3), self.cold_path, rng)
        self.entities = K ** 3
        self.classes = {x: synth.oracle_counts(spec, [x], x)[0] for x in ATTRS}
        self.expected = {}
        pool = []
        for x in ATTRS:
            pool += [("report", x)] * REPORT_REPEAT
        for size in (1, 2):
            for sources in itertools.combinations(ATTRS, size):
                for to in ATTRS:
                    if to not in sources:
                        op = ("dependency", sources, to)
                        self.expected[op] = synth.oracle_counts(spec, sources, to)
                        pool.append(op)
        self.pool = pool

    def setup(self, step):
        return step(self._ingest)

    def _ingest(self):
        annset = dataset.structural_parse(self.path.read_bytes())
        findings = dataset.validate(annset)
        if findings:
            raise RuntimeError(f"generated universe is invalid: {findings[0]}")
        return dataset.build_graph(annset)

    def run(self, graph, op):
        if op[0] == "report":
            return info.label_report(graph, op[1])
        return info.dependency(graph, list(op[1]), op[2])

    def check(self, op, result):
        n = self.entities
        if op[0] == "report":
            k = self.classes[op[1]]
            loss = math.log(n) - math.log(k)
            want = {"universe_size": n, "class_count": k, "excluded_nodes": 0,
                    "entropy": math.log(k), "entropy_loss": loss,
                    "propagation": k / n, "relevancy": math.log(k) / k}
        else:
            fc, count = self.expected[op]
            loss = math.inf if count == 0 else math.log(fc) - math.log(count)
            want = {"universe_size": n, "from_class_count": fc,
                    "to_class_count": self.classes[op[2]],
                    "intersection_count": count, "excluded_nodes": 0,
                    "terminated": count == 0, "dependency_loss": loss,
                    "propagation": math.exp(-loss),
                    "relevancy": None if count == 0 else math.log(count) / count}
        for name, value in want.items():
            got = getattr(result, name)
            if isinstance(value, float) and value != math.inf:
                ok = got is not None and math.isclose(got, value, **_TOL)
            else:
                ok = got == value
            if not ok:
                return f"{op}: {name} {got!r} != {value!r}"
        return None
