"""Golden CLI output: the sha256 of (exit code, stdout) of in-process
``cli.main`` for a fixed command set, pinned in ``golden_cli.json``.

The commands run over every file in tests/data (rule specs included,
which fail as malformed datasets) and over a dirty copy of example1
carrying one finding of each kind. Per file they are ``validate``,
``graph`` as json and as dot, ``entropy --label`` for every label,
``entropy --path`` and ``depend`` for every ordered label pair, and
``distance`` from the first to the last node in sorted order. Labels and
nodes are read from the raw JSON, so the command set does not depend on
the code under test.

The digests were recorded from the three-scan ingest (validate, then
build_graph, then LabeledGraph.add) that the single ingest pass
replaced; any change to them is a change to the CLI contract.

``golden_ladder.json`` pins the same digest for ``entropy --label`` of
every attribute and ``depend`` from every one and every two attributes
to each other attribute, on the size-ladder universe at k=4 (free
attributes a, b, c with four values each, p given by a mod 2), generated
here with ``labelflow.synth``. Those digests were recorded from the
edge-scanning graph and the sorted-class partitions that the per-label
index and the class-id partitions replaced. The ladder's ``validate``
and ``graph`` (json and dot) digests, the largest payloads pinned here,
were recorded from the ``json.dumps`` output and the per-annotation
parse checks that ``to_json_text`` and the well-formed-record fast path
replaced.
"""

import contextlib
import hashlib
import io
import itertools
import json
from pathlib import Path

from labelflow import generate_universe, rulespec_from_json, \
    serialize_dataset
from labelflow.cli import main

HERE = Path(__file__).parent
GOLDEN = json.loads((HERE / "golden_cli.json").read_text(encoding="utf-8"))
GOLDEN_LADDER = json.loads(
    (HERE / "golden_ladder.json").read_text(encoding="utf-8"))
LADDER_K = 4
LADDER_ATTRS = ("a", "b", "c", "p")


def dirty_example1() -> dict:
    """example1 plus one finding of each kind, an exact duplicate of a
    clean annotation, and a repeated conflicting annotation (reported
    once)."""
    obj = json.loads((HERE / "data" / "example1.json").read_text("utf-8"))
    obj["documents"].append({"id": "synthetic", "text": "again"})
    obj["labels"] += [{"name": "color", "direction": "forward"},
                      {"name": "", "direction": "forward"}]
    conflict = {"doc": "synthetic", "label": "color", "mention": [82, 87],
                "entity": [0, 155]}
    obj["annotations"] += [
        dict(obj["annotations"][0]),
        {"doc": "ghost", "label": "color", "mention": [0, 3],
         "entity": [0, 9]},
        {"doc": "synthetic", "label": "nope", "mention": [72, 75],
         "entity": [0, 155]},
        {"doc": "synthetic", "label": "size", "mention": [150, 400],
         "entity": [0, 500]},
        {"doc": "synthetic", "label": "size", "mention": [0, 155],
         "entity": [72, 75]},
        conflict,
        dict(conflict),
    ]
    return obj


def _commands(obj) -> list[tuple[str, list[str]]]:
    runs = [("validate", []), ("graph", []), ("graph", ["--format", "dot"])]
    if not isinstance(obj, dict):
        return runs
    labels = sorted({l["name"] for l in obj.get("labels", [])})
    runs += [("entropy", ["--label", l]) for l in labels]
    for a, b in itertools.permutations(labels, 2):
        runs += [("entropy", ["--path", f"{a},{b}"]),
                 ("depend", ["--from", a, "--to", b])]
    regions = sorted({(a["doc"], *a[role]) for a in obj.get("annotations", [])
                      for role in ("mention", "entity")})
    if regions:
        first, last = (f"{d}:{s}-{e}" for d, s, e in (regions[0], regions[-1]))
        runs.append(("distance", ["--from", first, "--to", last]))
    return runs


def cases(tmp_dir: Path) -> list[tuple[str, list[str]]]:
    """(golden key, argv) for every pinned command; writes the dirty
    dataset into tmp_dir."""
    files = {p.name: p for p in sorted((HERE / "data").glob("*.json"))}
    files["dirty-example1.json"] = tmp_dir / "dirty-example1.json"
    files["dirty-example1.json"].write_text(json.dumps(dirty_example1()),
                                            encoding="utf-8")
    out = []
    for name, path in files.items():
        obj = json.loads(path.read_text(encoding="utf-8"))
        for command, rest in _commands(obj):
            out.append((" ".join([command, name, *rest]),
                        [command, str(path), *rest]))
    return out


def ladder_cases(tmp_dir: Path) -> list[tuple[str, list[str]]]:
    """(golden key, argv) for every pinned ladder query; writes the
    universe into tmp_dir."""
    k = LADDER_K
    spec = rulespec_from_json({
        "free": [{"name": n, "values": [f"{n}{i}" for i in range(k)]}
                 for n in "abc"],
        "derived": [{"name": "p", "rules": [
            {"when": {"is": ["a", f"a{i}"]}, "then": f"p{i % 2}"}
            for i in range(k)]}],
    })
    path = tmp_dir / f"ladder-k{k}.json"
    path.write_bytes(serialize_dataset(generate_universe(spec)))
    runs = [["validate"], ["graph"], ["graph", "--format", "dot"]]
    runs += [["entropy", "--label", x] for x in LADDER_ATTRS]
    for size in (1, 2):
        for sources in itertools.combinations(LADDER_ATTRS, size):
            runs += [["depend", "--from", ",".join(sources), "--to", to]
                     for to in LADDER_ATTRS if to not in sources]
    return [(" ".join(rest), [rest[0], str(path), *rest[1:]])
            for rest in runs]


def digest(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return hashlib.sha256(f"{code}\n{out.getvalue()}".encode()).hexdigest()


def test_command_set_is_pinned(tmp_path):
    assert sorted(key for key, _ in cases(tmp_path)) == sorted(GOLDEN)


def test_output_matches_golden(tmp_path):
    mismatched = [key for key, argv in cases(tmp_path)
                  if digest(argv) != GOLDEN.get(key)]
    assert mismatched == []


def test_ladder_query_set_is_pinned(tmp_path):
    assert sorted(key for key, _ in ladder_cases(tmp_path)) == \
        sorted(GOLDEN_LADDER)


def test_ladder_output_matches_golden(tmp_path):
    mismatched = [key for key, argv in ladder_cases(tmp_path)
                  if digest(argv) != GOLDEN_LADDER.get(key)]
    assert mismatched == []
