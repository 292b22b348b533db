"""ingest-multidoc: in-process ``labelflow graph`` and ``labelflow
validate`` over a seeded corpus of multi-document files.

A document is two sentences on separate lines, each two or three
words, some of them outside ASCII, so byte and character offsets differ.
Its regions nest: word < sentence < document. Labels: ``in`` (word ->
sentence) and ``of`` (sentence -> document) are forward; ``head``
(sentence -> its first word) and ``topic`` (document -> one of its
words) are backward. About one annotation in thirty is repeated
exactly, which labelflow drops silently.

Clean files have the document counts in CLEAN_DOCS, the same for every
seed. Dirty files validate fastest, and the latency of a clean file grows
with its size. Five files of 200 documents hold the median latency and
six of 300 the 90th percentile, so neither quantile jumps between files
of different sizes from run to run. Dirty files get injected findings
appended: map conflicts, bad nesting, an out-of-bounds span. Every
operation parses and builds from scratch, so no cache across operations
can help.

The oracle is the generator's own record: for a clean file, a digest of
the graph payload (nodes with their surfaces, edges) built from the
generator's lists; for a dirty file, the finding kinds and annotation
indices in the order labelflow reports them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from pathlib import Path

from labelflow import cli, dataset

CLEAN_DOCS = (100, 120, 140, 160, 180, 200, 200, 200, 200, 200,
              220, 240, 260, 280, 300, 300, 300, 300, 300, 300)
DIRTY_FILES = 4
DIRTY_DOCS = 200
COLD_DOCS = 20
SIZE = (f"{len(CLEAN_DOCS)} clean files of {min(CLEAN_DOCS)}-{max(CLEAN_DOCS)} "
        f"documents, {DIRTY_FILES} dirty files of {DIRTY_DOCS}")

WORDS = ("river", "stone", "lamp", "garden", "café", "naïve", "über",
         "smörgås", "north", "window", "日本", "paper", "cloud", "piano")
DIRECTION = {"in": "forward", "of": "forward",
             "head": "backward", "topic": "backward"}


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _surface(text: str) -> str:
    first = text.split("\n", 1)[0]
    return first[:40] + "…" if len(first) > 40 else first


class _Corpus:
    """One file's documents and annotations, with the generator's record
    of every region's text and every edge."""

    def __init__(self, rng, ndocs: int):
        self.documents, self.annotations = [], []
        self.surface: dict[tuple, str] = {}
        self.edges: list[tuple] = []  # (label, source, target)
        self.words: list[tuple] = []  # (document region, sentence, words)
        for d in range(ndocs):
            self._document(rng, f"d{d:04d}")
        for _ in range(len(self.annotations) // 30):
            self.annotations.append(dict(rng.choice(self.annotations)))
        rng.shuffle(self.annotations)

    def _region(self, doc_id, start, text):
        region = (doc_id, start, start + len(text.encode("utf-8")))
        self.surface[region] = _surface(text)
        return region

    def _annotate(self, label, mention, entity):
        self.annotations.append({"doc": mention[0], "label": label,
                                 "mention": list(mention[1:]),
                                 "entity": list(entity[1:])})
        if DIRECTION[label] == "forward":
            self.edges.append((label, mention, entity))
        else:
            self.edges.append((label, entity, mention))

    def _document(self, rng, doc_id):
        sentences = [[rng.choice(WORDS) for _ in range(rng.randint(2, 3))]
                     for _ in range(2)]
        lines = [" ".join(words) + "." for words in sentences]
        text = "\n".join(lines)
        self.documents.append({"id": doc_id, "text": text})
        doc = self._region(doc_id, 0, text)
        offset, all_words = 0, []
        for words, line in zip(sentences, lines):
            sentence = self._region(doc_id, offset, line)
            cursor, regions = offset, []
            for word in words:
                regions.append(self._region(doc_id, cursor, word))
                cursor += len(word.encode("utf-8")) + 1
            for region in regions:
                self._annotate("in", region, sentence)
            self._annotate("of", sentence, doc)
            self._annotate("head", regions[0], sentence)
            all_words += regions
            self.words.append((doc, sentence, regions))
            offset += len(line.encode("utf-8")) + 1
        self._annotate("topic", rng.choice(all_words), doc)

    def graph_payload(self):
        key = lambda r: f"{r[0]}:{r[1]}-{r[2]}"
        return {
            "nodes": [{"key": key(r), "surface": self.surface[r]}
                      for r in sorted(self.surface)],
            "edges": [{"label": label, "direction": DIRECTION[label],
                       "source": key(s), "target": key(t)}
                      for label, s, t in sorted(set(self.edges))],
        }

    def inject(self, rng):
        """Append each kind of finding once, and up to three more, in
        distinct sentences; return the expected (kind, annotation indices)
        list in labelflow's report order."""
        per_annotation, conflicts = [], []
        index = {}
        for i, ann in enumerate(self.annotations):
            index.setdefault(json.dumps(ann, sort_keys=True), i)
        kinds = ["conflict", "nesting", "bounds"]
        kinds += rng.choices(kinds, k=rng.randint(0, 3))
        rng.shuffle(kinds)
        for kind, (doc, sentence, words) in zip(
                kinds, rng.sample(self.words, len(kinds))):
            i = len(self.annotations)
            if kind == "conflict":
                # a second target for a source that already has one
                if rng.random() < 0.5:
                    first = {"doc": doc[0], "label": "head",
                             "mention": list(words[0][1:]),
                             "entity": list(sentence[1:])}
                    extra = dict(first, mention=list(words[1][1:]))
                else:
                    first = {"doc": doc[0], "label": "in",
                             "mention": list(words[0][1:]),
                             "entity": list(sentence[1:])}
                    extra = dict(first, entity=list(doc[1:]))
                conflicts.append(("map-conflict",
                                  [index[json.dumps(first, sort_keys=True)], i]))
            elif kind == "nesting":
                extra = {"doc": doc[0], "label": "in",
                         "mention": list(sentence[1:]),
                         "entity": list(words[0][1:])}
                per_annotation.append(("bad-nesting", [i]))
            else:
                end = doc[2]
                extra = {"doc": doc[0], "label": "topic",
                         "mention": [end - 1, end + 4],
                         "entity": list(doc[1:])}
                per_annotation.append(("span-out-of-bounds", [i]))
            self.annotations.append(extra)
        return per_annotation + conflicts

    def write(self, path: Path) -> None:
        labels = [{"name": n, "direction": d} for n, d in DIRECTION.items()]
        path.write_text(json.dumps(
            {"documents": self.documents, "labels": labels,
             "annotations": self.annotations},
            ensure_ascii=False, indent=1), encoding="utf-8")


class Workload:
    name = "ingest-multidoc"
    size = SIZE

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(f"ingest-multidoc:{seed}")
        self.pool, self.expected = [], {}
        for f, ndocs in enumerate(CLEAN_DOCS):
            corpus = _Corpus(rng, ndocs)
            path = workdir / f"clean-{f:02d}.json"
            corpus.write(path)
            self.expected[str(path)] = _digest(corpus.graph_payload())
            self.pool.append(("graph", str(path)))
        for f in range(DIRTY_FILES):
            corpus = _Corpus(rng, DIRTY_DOCS)
            findings = corpus.inject(rng)
            path = workdir / f"dirty-{f:02d}.json"
            corpus.write(path)
            self.expected[str(path)] = findings
            self.pool.append(("validate", str(path)))
        self.cold_path = workdir / "cold.json"
        _Corpus(rng, COLD_DOCS).write(self.cold_path)

    def setup(self, step):
        """One warm-up ingest of every file, through the same library
        calls the CLI makes, one step per file; it also brings the files
        into the page cache."""
        for _, path in self.pool:
            step(self._ingest, path)

    @staticmethod
    def _ingest(path):
        annset = dataset.structural_parse(Path(path).read_bytes())
        if not dataset.validate(annset):
            dataset.build_graph(annset)

    def run(self, state, op):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(op))
        return code, out.getvalue()

    def check(self, op, result):
        code, stdout = result
        command, path = op
        want_code = 0 if command == "graph" else 1
        if code != want_code:
            return f"{command} {path}: exit {code}, expected {want_code}"
        payload = json.loads(stdout)
        if command == "graph":
            if _digest(payload) != self.expected[path]:
                return f"graph {path}: payload differs from the generator's"
            return None
        got = [(f["kind"], f["annotations"]) for f in payload]
        if got != self.expected[path]:
            return f"validate {path}: findings {got} != {self.expected[path]}"
        return None
