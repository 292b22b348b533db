"""paths-forest: ``path_distance`` and ``path_report`` over a seeded
forest of nested spans.

Layout. A tree document holds one line per node, in preorder, then a
legend line. A node's region runs from the start of its line to the end
of the document, so it strictly contains every node laid out after it
and every legend mention. A parent precedes its children, so every
child->parent annotation nests.

Shape. Each tree is a spine of SPINE nodes. Spine node i hangs from node
i-1 under the forward label ``part`` when i is a multiple of 3 and under
``in`` otherwise, so walks up the spine are chains that mix both
labels; every spine node but the last also has one side leaf under
``in``. The backward label ``kind`` maps every ``in``-child to one of
three value mentions in the legend. Siblings get different values and
every value lies under several parents, so the junction ``kind -> in``
terminates (infinite loss) while ``in -> kind`` is finite: the search
takes junction moves into the legend, where it meets dead ends. The
walker thus visits a fixed number of nodes per spine level. Without
that, it would enumerate exponentially many simple paths.

One more document is a plain chain of CHAIN nodes under the forward
label ``next``. A forward walk along it has distance 0 in one chain
move, and the reverse walk has distance infinity: those are known
answers.

The shape and the query positions are the same for every seed, so every
seed costs the same work; the seed picks the words, the kind values,
the order of siblings in the text, the order of annotations in the file
and the tree each query runs on.

The oracle works on the generator's own edge table with dicts and sets;
it shares no code with ``labelflow.info`` or ``labelflow.partition``.
"""

from __future__ import annotations

import json
import math
import random
from collections import defaultdict
from pathlib import Path

from labelflow import dataset, info
from labelflow.model import Node, Region

TREES = 2
SPINE = 12
CHAIN = 20
KINDS = ("K0", "K1", "K2")
WORDS = ("alpha", "beta", "gamma", "café", "naïve", "über", "smörgås",
         "delta", "日本", "omega")
SIZE = (f"{TREES} trees of a {SPINE}-node spine with side leaves, "
        f"one {CHAIN}-node chain")

# One pass of the stream: (kind, source position, target position).
# Tree positions are ("s", i) for spine node i and ("l", i) for the side
# leaf of spine node i; ("kind", i) is the kind mention of that leaf.
# Chain positions are indices along the chain. The walker's work grows
# with the spine levels a query climbs. The nine climbs of exactly three
# levels cost the same, since the label pattern repeats every three
# levels; they sit in the middle of the cost order, so the median
# latency is theirs and does not jump between unlike queries.
QUERIES = (
    [("up", ("s", j), ("s", j - 3)) for j in range(3, SPINE)]
    + [("up", ("s", j), ("s", j - d)) for j, d in ((5, 1), (8, 2), (8, 6),
                                                    (11, 9), (11, 11))]
    + [("up", ("l", j), ("s", j - d)) for j, d in ((3, 1), (10, 7))]
    + [("junction", ("s", j), ("kind", j)) for j in (0, 1, 2, 6, 8, 10)]
    + [("down", ("s", a), ("s", a + 2)) for a in (1, 2, 5, 7, 9)]
    + [("cross", ("s", j), ("s", 5)) for j in (1, 2, 6, 8, 11)]
    + [("chain-forward", i, j) for i, j in ((0, 4), (15, 19), (0, 19))]
    + [("chain-reverse", j, j - 3) for j in (4, 16)]
)
REPORTS = (("in",), ("part",), ("in", "in"), ("in", "part"), ("part", "in"),
           ("in", "kind"), ("in", "in", "kind"), ("next",) * 4, ("next",) * 12)

INF = float("inf")
_TOL = dict(rel_tol=1e-9, abs_tol=1e-12)


class _Layout:
    """Text of one document, built line by line, with byte offsets."""

    def __init__(self, doc_id: str):
        self.doc_id = doc_id
        self.lines: list[str] = []
        self.starts: list[int] = []
        self.size = 0

    def add_line(self, text: str) -> int:
        self.starts.append(self.size)
        self.lines.append(text)
        self.size += len(text.encode("utf-8")) + 1
        return len(self.lines) - 1

    def line_region(self, line: int) -> tuple:
        return (self.doc_id, self.starts[line], self.size)

    def text(self) -> str:
        return "".join(line + "\n" for line in self.lines)


class Workload:
    name = "paths-forest"
    size = SIZE

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(f"paths-forest:{seed}")
        self.maps: dict[str, dict[tuple, tuple]] = defaultdict(dict)
        documents, annotations, trees = [], [], []
        for t in range(TREES):
            doc, positions = self._tree(rng, f"t{t}", annotations)
            documents.append(doc)
            trees.append(positions)
        doc, chain = self._chain(rng, "c0", annotations)
        documents.append(doc)
        rng.shuffle(annotations)
        labels = [{"name": n, "direction": "forward"}
                  for n in ("in", "part", "next")]
        labels.append({"name": "kind", "direction": "backward"})
        self.path = workdir / "forest.json"
        self.path.write_text(json.dumps(
            {"documents": documents, "labels": labels,
             "annotations": annotations}, ensure_ascii=False, indent=1),
            encoding="utf-8")
        self.cold_path = workdir / "forest-small.json"
        self.cold_path.write_text(json.dumps(
            {"documents": [documents[-1]], "labels": labels,
             "annotations": [a for a in annotations if a["doc"] == "c0"]},
            ensure_ascii=False), encoding="utf-8")
        self._chain_cache: dict[tuple, float] = {}
        self._junction_cache: dict[tuple, float] = {}
        if (self.junction_cost("kind", "in") != INF
                or self.junction_cost("in", "kind") == INF):
            raise AssertionError("forest lost its junction structure")
        self.pool = self._queries(rng, trees, chain)

    # -- generation ----------------------------------------------------

    def _edge(self, annotations, label, mention, entity, backward=False):
        source, target = (entity, mention) if backward else (mention, entity)
        self.maps[label][source] = target
        annotations.append({"doc": mention[0], "label": label,
                            "mention": [mention[1], mention[2]],
                            "entity": [entity[1], entity[2]]})

    def _tree(self, rng, doc_id, annotations):
        # parent and label of every position; spine i hangs from spine i-1
        up = {("s", i): (("s", i - 1), "part" if i % 3 == 0 else "in")
              for i in range(1, SPINE)}
        up.update({("l", i): (("s", i), "in") for i in range(SPINE - 1)})
        kids = defaultdict(list)
        for child, (parent, _) in sorted(up.items()):
            kids[parent].append(child)
        layout = _Layout(doc_id)
        line_of, stack = {}, [("s", 0)]
        while stack:  # preorder: a parent's line precedes its children's
            v = stack.pop()
            line_of[v] = layout.add_line(
                f"{doc_id}.{v[0]}{v[1]} {rng.choice(WORDS)} {rng.choice(WORDS)}")
            order = kids[v][:]
            rng.shuffle(order)
            stack.extend(order)
        values = rng.sample(KINDS, len(KINDS))
        legend = " ".join(f"kind={v}" for v in KINDS)
        cursor = layout.starts[layout.add_line(legend)]
        mention = {}
        for i, value in enumerate(KINDS):
            cursor += (1 if i else 0) + len("kind=")
            mention[value] = (doc_id, cursor, cursor + len(value))
            cursor += len(value)
        region = {v: layout.line_region(line_of[v]) for v in line_of}
        for child, (parent, label) in sorted(up.items()):
            self._edge(annotations, label, region[child], region[parent])
        # ordered by parent, so siblings are consecutive and differ in value
        in_children = sorted((c for c, (_, label) in up.items()
                              if label == "in"), key=lambda c: (up[c][0], c))
        for n, child in enumerate(in_children):
            self._edge(annotations, "kind", mention[values[n % len(values)]],
                       region[child], backward=True)
        return {"id": doc_id, "text": layout.text()}, region

    def _chain(self, rng, doc_id, annotations):
        layout = _Layout(doc_id)
        for i in range(CHAIN):
            layout.add_line(f"{doc_id}.c{CHAIN - 1 - i} {rng.choice(WORDS)}")
        # node i is line CHAIN-1-i, so node i+1 strictly contains node i
        chain = [layout.line_region(CHAIN - 1 - i) for i in range(CHAIN)]
        for i in range(CHAIN - 1):
            self._edge(annotations, "next", chain[i], chain[i + 1])
        return {"id": doc_id, "text": layout.text()}, chain

    def _queries(self, rng, trees, chain):
        def node(r):
            return Node(Region(*r))

        pool = []
        for kind, s, t in QUERIES:
            if kind.startswith("chain"):
                pool.append(("distance", kind, node(chain[s]), node(chain[t])))
                continue
            a, b = rng.sample(range(TREES), 2)
            source = trees[a][s]
            if kind == "junction":
                # the kind of the side leaf, which hangs from source by in
                target = self.maps["kind"][trees[a][("l", s[1])]]
            else:
                target = trees[b if kind == "cross" else a][t]
            pool.append(("distance", kind, node(source), node(target)))
        pool += [("report", "report", labels) for labels in REPORTS]
        return pool

    # -- timed side ----------------------------------------------------

    def setup(self, step):
        return step(self._ingest)

    def _ingest(self):
        annset = dataset.structural_parse(self.path.read_bytes())
        findings = dataset.validate(annset)
        if findings:
            raise RuntimeError(f"generated forest is invalid: {findings[0]}")
        return dataset.build_graph(annset)

    def run(self, graph, op):
        if op[0] == "report":
            return info.path_report(graph, op[2])
        return info.path_distance(graph, op[2], op[3])

    # -- oracle --------------------------------------------------------

    def _path_classes(self, labels):
        """(kept, excluded, class count) of the composite map."""
        finals = {}
        domain = self.maps[labels[0]]
        for start in domain:
            node = start
            for label in labels:
                node = self.maps[label].get(node)
                if node is None:
                    break
            else:
                finals[start] = node
        return len(finals), len(domain) - len(finals), len(set(finals.values()))

    def chain_cost(self, labels):
        if labels not in self._chain_cache:
            kept, _, classes = self._path_classes(labels)
            self._chain_cache[labels] = math.log(kept) - math.log(classes)
        return self._chain_cache[labels]

    def junction_cost(self, f, g):
        if (f, g) not in self._junction_cache:
            shared = self.maps[f].keys() & self.maps[g].keys()
            groups = defaultdict(set)
            for z in shared:
                groups[self.maps[f][z]].add(self.maps[g][z])
            count = sum(1 for images in groups.values() if len(images) == 1)
            self._junction_cache[f, g] = (
                INF if count == 0
                else math.log(len(groups)) - math.log(count))
        return self._junction_cache[f, g]

    def _walk_error(self, source, target, result):
        """None when result.moves is a valid simple walk whose costs match
        the counts, else a description."""
        def key(n):
            return (n.region.doc_id, n.region.start, n.region.end)

        at, seen, total, last = key(source), {key(source)}, 0.0, None
        for move in result.moves:
            if hasattr(move, "nodes"):
                if last == "chain":
                    return "two chain moves in a row"
                nodes = [key(n) for n in move.nodes]
                if nodes[0] != at or len(nodes) != len(move.labels) + 1:
                    return "chain move does not start at the walk's node"
                for label, a, b in zip(move.labels, nodes, nodes[1:]):
                    if self.maps[label].get(a) != b:
                        return f"no {label} edge {a} -> {b}"
                expect, steps = self.chain_cost(tuple(move.labels)), nodes[1:]
                last = "chain"
            else:
                a, b = key(move.source), key(move.target)
                f, g = move.from_label, move.to_label
                if a != at or not any(
                        self.maps[f][z] == a and self.maps[g][z] == b
                        for z in self.maps[f].keys() & self.maps[g].keys()):
                    return f"no junction {f}->{g} from {a} to {b}"
                expect, steps = self.junction_cost(f, g), [b]
                last = "junction"
            if not math.isclose(move.cost, expect, **_TOL):
                return f"move cost {move.cost} != oracle {expect}"
            for n in steps:
                if n in seen:
                    return "walk revisits a node"
                seen.add(n)
            total += expect
            at = steps[-1]
        if at != key(target):
            return "walk does not end at the target"
        if not math.isclose(result.distance, total, **_TOL):
            return f"distance {result.distance} != summed moves {total}"
        return None

    def check(self, op, result):
        if op[0] == "report":
            return self._check_report(op[2], result)
        _, kind, source, target = op
        if (result.source, result.target) != (source, target):
            return "result names other endpoints"
        if kind in ("down", "cross", "chain-reverse"):
            if result.distance == INF and not result.moves:
                return None
            return f"{kind}: expected infinity, got {result.distance}"
        if result.distance == INF or not result.moves:
            return f"{kind}: expected a finite path"
        error = self._walk_error(source, target, result)
        if error:
            return f"{kind}: {error}"
        if kind in ("up", "chain-forward"):
            # the only path is the single chain of forward edges
            move = result.moves[0]
            if len(result.moves) != 1 or not hasattr(move, "nodes"):
                return f"{kind}: expected one chain move"
            if kind == "chain-forward" and move.cost != 0.0:
                return "chain-forward: expected distance 0"
        elif result.distance > self.junction_cost("in", "kind") * (1 + 1e-9):
            return "junction: longer than the direct junction move"
        return None

    def _check_report(self, labels, report):
        kept, excluded, classes = self._path_classes(labels)
        loss = math.log(kept) - math.log(classes)
        exact = {"universe_size": kept, "class_count": classes,
                 "excluded_nodes": excluded}
        for name, want in exact.items():
            if getattr(report, name) != want:
                return f"report {labels}: {name} {getattr(report, name)} != {want}"
        approx = {"entropy": math.log(classes), "entropy_loss": loss,
                  "propagation": classes / kept,
                  "relevancy": math.log(classes) / classes}
        for name, want in approx.items():
            got = getattr(report, name)
            if got is None or not math.isclose(got, want, **_TOL):
                return f"report {labels}: {name} {got} != {want}"
        return None
