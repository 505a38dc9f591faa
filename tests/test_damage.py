"""Seeded damage to every input of ``predict`` (each method), ``train``, ``eval``,
``wiki-coverage``, ``build-dataset`` and ``report``, a ``--config`` file among them:
whatever the damage, the command exits 0 or 2, never 1, prints no traceback, and on exit 2
names the damaged file and leaves no output or temporary file. A taxonomy also gets a
self-loop and a cycle. Damage to a taxonomy or vector sidecar (its header, its payload, a
taxonomy's lemma index in it, one of another layout too, or one array of a vector sidecar's
search layout) changes no output of the release diff or of ``predict`` and gives at most one
warning.

Each case copies one input, damages the copy in its own directory (where any sidecar it
gets is its own) and runs the command in-process with the other inputs clean. The damage
is placed by a generator seeded with the case's name, so a failing case reruns the same.
"""

import json
import logging
import marshal
import random
import re
import shutil
from pathlib import Path

import pytest

from taxoenrich import cli

from conftest import (build_planted_fixture, taxonomy_sidecar_parts, vector_sidecar_parts,
                      with_lemma_index)

COMMANDS = {
    "predict-baseline": ["predict", "--method", "baseline"],
    "predict-ranking": ["predict", "--method", "ranking"],
    "predict-ranking-wiki": ["predict", "--method", "ranking-wiki"],
    "train": ["train", "--pos", "noun"],
    "eval": ["eval"],
    "wiki-coverage": ["wiki-coverage"],
    "build-dataset": ["build-dataset", "--pos", "both"],
    "report": ["report"],
}
# the inputs each command reads, by option
READS = {
    "predict-baseline": ["old-taxonomy", "embeddings", "dataset"],
    "predict-ranking": ["old-taxonomy", "embeddings", "dataset"],
    "predict-ranking-wiki": ["old-taxonomy", "embeddings", "dataset", "model", "wiktionary"],
    "train": ["old-taxonomy", "embeddings", "wiktionary", "config"],
    "eval": ["old-taxonomy", "dataset", "predictions"],
    "wiki-coverage": ["old-taxonomy", "dataset", "wiktionary"],
    "build-dataset": ["old-taxonomy", "new-taxonomy", "config"],
    "report": ["old-taxonomy", "new-taxonomy"],
}
# the option of each command's output
WRITES = {"predict": "predictions", "train": "model", "eval": "out", "wiki-coverage": "out",
          "build-dataset": "dataset", "report": "out"}
NUMBER = re.compile(rb"\d+(\.\d+)?(e[-+]?\d+)?")


def _insert(data: bytes, rng: random.Random, extra: bytes) -> bytes:
    at = rng.randrange(len(data) + 1)
    return data[:at] + extra + data[at:]


def _lines(data: bytes) -> list[bytes]:
    return data.splitlines(keepends=True)


def _delete_line(data: bytes, rng: random.Random) -> bytes:
    lines = _lines(data)
    del lines[rng.randrange(len(lines))]
    return b"".join(lines)


def _repeat_line(data: bytes, rng: random.Random) -> bytes:
    lines = _lines(data)
    at = rng.randrange(len(lines))
    return b"".join(lines[:at + 1] + lines[at:])


def _flip(data: bytes, rng: random.Random) -> bytes:
    at = rng.randrange(len(data))
    return data[:at] + bytes([data[at] ^ 1 << rng.randrange(8)]) + data[at + 1:]


def _huge(data: bytes, rng: random.Random) -> bytes:
    """A number, or a run of digits in a name, replaced by ``1e999`` (which reads as inf)."""
    found = rng.choice(list(NUMBER.finditer(data)))
    return data[:found.start()] + b"1e999" + data[found.end():]


DAMAGE = {
    "truncate": lambda data, rng: data[:rng.randrange(1, len(data))],
    "flip": _flip,
    "nul": lambda data, rng: _insert(data, rng, b"\x00"),
    "delete-line": _delete_line,
    "repeat-line": _repeat_line,
    "bom": lambda data, rng: b"\xef\xbb\xbf" + data,
    "crlf": lambda data, rng: data.replace(b"\n", b"\r\n"),
    "invalid-utf8": lambda data, rng: _insert(data, rng, b"\xff"),
    "1e999": _huge,
    "empty": lambda data, rng: b"",
}


def _records(data: bytes) -> list[dict]:
    return [json.loads(line) for line in data.splitlines()]


def _self_loop(data: bytes, rng: random.Random) -> bytes:
    records = _records(data)
    record = rng.choice(records)
    record["hypernyms"] = [*record["hypernyms"], record["id"]]
    return "".join(json.dumps(r) + "\n" for r in records).encode()


def _cycle(data: bytes, rng: random.Random) -> bytes:
    """A synset's hypernym made its hyponym too."""
    records = _records(data)
    child = rng.choice([r for r in records if r["hypernyms"]])
    parent = next(r for r in records if r["id"] == child["hypernyms"][0])
    parent["hypernyms"] = [*parent["hypernyms"], child["id"]]
    return "".join(json.dumps(r) + "\n" for r in records).encode()


# damage only a taxonomy can take: a graph that is no DAG
GRAPH_DAMAGE = {"self-loop": _self_loop, "cycle": _cycle}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Clean inputs for every command: a planted taxonomy and vectors, their dataset, a
    Wiktionary extract, and the model and predictions the commands write from them."""
    root = tmp_path_factory.mktemp("clean")
    taxonomy, embeddings, rows = build_planted_fixture(
        root, n_clusters=3, leaves_per_cluster=4, orphans_per_cluster=2, dim=4)
    dataset = root / "dataset.tsv"
    dataset.write_text("".join(f"{w}\tn\t{','.join(sorted(gold))}\n" for w, gold in sorted(rows)))
    wiki = root / "wiki.jsonl"
    wiki.write_text("".join(json.dumps(
        {"word": word, "hypernyms": [f"parent{c}"], "synonyms": [f"w{c}_0"],
         "definition": f"a granny{c} thing"}) + "\n"
        for c, word in enumerate(sorted(w for w, _gold in rows)[::2])))
    # the next release: each orphan added under its parent, the larger of its two gold ids
    new = root / "new_taxonomy.jsonl"
    new.write_text(taxonomy.read_text() + "".join(json.dumps(
        {"id": f"O.{word}", "pos": "n", "lemmas": [word], "hypernyms": [max(gold)]}) + "\n"
        for word, gold in sorted(rows)))
    # settings of both commands that read it; each ignores the other's keys
    config = root / "run.cfg"
    config.write_text("# run settings\nmin_length = 3\nrestricted = no\nk = 5\nseed = 3\n"
                      "l2_lambda = 0.0001\n")
    paths = {"old-taxonomy": taxonomy, "new-taxonomy": new, "embeddings": embeddings,
             "dataset": dataset, "wiktionary": wiki, "model": root / "model.txt",
             "predictions": root / "predictions.tsv", "config": config}
    assert cli.main(argv("train", paths, paths["model"])) == 0
    assert cli.main(argv("predict-ranking", paths, paths["predictions"])) == 0
    return paths


def argv(command: str, paths: dict, out) -> list[str]:
    """``command`` reading ``paths`` and writing ``out``."""
    args = [*COMMANDS[command], f"--{WRITES[COMMANDS[command][0]]}", str(out)]
    for option in READS[command]:
        args += [f"--{option}", str(paths[option])]
    return args


CASES = [(command, option, damage) for command, options in READS.items()
         for option in options
         for damage in [*DAMAGE, *(GRAPH_DAMAGE if option.endswith("taxonomy") else ())]]


@pytest.mark.parametrize("command, option, damage", CASES)
def test_damaged_input_exits_0_or_2_naming_it(inputs, tmp_path, capsys, command, option,
                                              damage):
    clean = inputs[option]
    rng = random.Random(f"{command} {option} {damage}")
    bad = tmp_path / clean.name
    bad.write_bytes({**DAMAGE, **GRAPH_DAMAGE}[damage](clean.read_bytes(), rng))
    try:
        code = cli.main(argv(command, {**inputs, option: bad}, tmp_path / "out"))
    except SystemExit as exc:  # argparse's usage error, for a config value at its line
        code = exc.code
    err = capsys.readouterr().err
    assert code in (0, 2), err
    assert "Traceback" not in err
    if code == 2:
        assert str(bad) in err
        assert not [p.name for p in tmp_path.iterdir() if p.name.startswith("out")
                    or p.name.endswith(".tmp")]


def _sidecar_parts(blob: bytes) -> tuple[int, int]:
    """Where a sidecar's header and payload end."""
    head = blob.index(b"\n") + 1
    return head, head + json.loads(blob[:head])["payload_size"]


def _flip_in(blob: bytes, rng: random.Random, start: int, end: int) -> bytes:
    at = rng.randrange(start, end)
    return blob[:at] + bytes([blob[at] ^ 1 << rng.randrange(8)]) + blob[at + 1:]


def _other_index_layout(blob: bytes, rng: random.Random) -> bytes:
    """The lemma index rewritten as one {part of speech: index} map, under a payload size and
    CRC-32 that check."""
    index = marshal.loads(blob[taxonomy_sidecar_parts(blob)[1]:])
    return with_lemma_index(blob, marshal.dumps(dict(zip("nv", index))))


# damage to any sidecar, then damage to a taxonomy sidecar's lemma index (the end of its
# payload), which reads back from the checked payload on the index's first read
SIDECAR_DAMAGE = {
    "truncate": lambda blob, rng: blob[:rng.randrange(1, len(blob))],
    "flip-header": lambda blob, rng: _flip_in(blob, rng, 0, _sidecar_parts(blob)[0]),
    "flip-payload": lambda blob, rng: _flip_in(blob, rng, *_sidecar_parts(blob)),
    "other-format": lambda blob, rng: re.sub(  # an older one, as an upgrade finds it
        rb'"format": (\d+)', lambda m: b'"format": %d' % (int(m[1]) - 1), blob, count=1),
}
INDEX_DAMAGE = {
    "flip-index": lambda blob, rng: _flip_in(blob, rng, *taxonomy_sidecar_parts(blob)[1:]),
    "truncate-index": lambda blob, rng: blob[:rng.randrange(*taxonomy_sidecar_parts(blob)[1:])],
    "other-index-layout": _other_index_layout,
}
# damage inside one array of a vector sidecar's search layout, which a load maps as it is:
# the payload check must catch it
VECTOR_DAMAGE = {f"flip-{part}": lambda blob, rng, part=part: _flip_in(
    blob, rng, *vector_sidecar_parts(blob)[part]) for part in ("rows32", "norms", "rank")}
SIDECAR_CASES = [(command, option, damage)
                 for command, options in [("build-dataset", ["old-taxonomy", "new-taxonomy"]),
                                          ("report", ["old-taxonomy", "new-taxonomy"]),
                                          ("predict-ranking", ["old-taxonomy", "embeddings"])]
                 for option in options
                 for damage in [*SIDECAR_DAMAGE,
                                *(VECTOR_DAMAGE if option == "embeddings" else INDEX_DAMAGE)]]


@pytest.mark.parametrize("command, option, damage", SIDECAR_CASES)
def test_a_damaged_sidecar_changes_no_output(inputs, tmp_path, caplog, capsys, command,
                                             option, damage):
    """A clean run writes the sidecar of each taxonomy and vector file it reads, every
    taxonomy's with its lemma index; after damage to one sidecar the command writes the
    same bytes, with at most one warning, and the run after that gives none. An index of
    another layout under a payload check that holds is served and never rewritten: each
    run that reads it warns once and builds the index."""
    paths = dict(inputs)
    for name in READS[command]:
        paths[name] = Path(shutil.copy(inputs[name], tmp_path))
    out = tmp_path / "out"

    def run() -> tuple[list[bytes], list[str]]:
        caplog.clear()
        with caplog.at_level(logging.WARNING):
            assert cli.main(argv(command, paths, out)) == 0
        written = sorted(tmp_path.glob("out*"))
        return ([capsys.readouterr().out.encode(), *map(Path.read_bytes, written)],
                [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING])

    clean, warnings = run()
    cache = paths[option].with_name(paths[option].name + ".cache")
    blob = cache.read_bytes()
    if option != "embeddings":  # the index is there, after the maps
        head, maps, end = taxonomy_sidecar_parts(blob)
        assert head < maps < end == len(blob)
    assert not warnings and run() == (clean, [])
    damaged = {**SIDECAR_DAMAGE, **INDEX_DAMAGE, **VECTOR_DAMAGE}[damage](
        blob, random.Random(f"{command} {option} {damage}"))
    assert damaged != blob
    cache.write_bytes(damaged)
    outputs, warnings = run()
    assert outputs == clean and len(warnings) <= 1
    if damage in VECTOR_DAMAGE:  # rebuilt, never served
        assert warnings == [f"{cache}: rebuilding the vector cache: truncated or damaged"]
    if damage == "other-index-layout":
        assert len(warnings) == 1 and run() == (clean, warnings)
        assert cache.read_bytes() == damaged
    else:
        assert run() == (clean, []) and cache.read_bytes() == blob
