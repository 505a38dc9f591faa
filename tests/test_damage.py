"""Seeded damage to every input of ``predict`` (each method), ``train``, ``eval`` and
``wiki-coverage``: whatever the damage, the command exits 0 or 2, never 1, prints no
traceback, and on exit 2 names the damaged file.

Each case copies one input, damages the copy in its own directory (where any sidecar it
gets is its own) and runs the command in-process with the other inputs clean. The damage
is placed by a generator seeded with the case's name, so a failing case reruns the same.
"""

import json
import random
import re

import pytest

from taxoenrich import cli

from conftest import build_planted_fixture

COMMANDS = {
    "predict-baseline": ["predict", "--method", "baseline"],
    "predict-ranking": ["predict", "--method", "ranking"],
    "predict-ranking-wiki": ["predict", "--method", "ranking-wiki"],
    "train": ["train", "--pos", "noun"],
    "eval": ["eval"],
    "wiki-coverage": ["wiki-coverage"],
}
# the inputs each command reads, by option
READS = {
    "predict-baseline": ["old-taxonomy", "embeddings", "dataset"],
    "predict-ranking": ["old-taxonomy", "embeddings", "dataset"],
    "predict-ranking-wiki": ["old-taxonomy", "embeddings", "dataset", "model", "wiktionary"],
    "train": ["old-taxonomy", "embeddings", "wiktionary"],
    "eval": ["old-taxonomy", "dataset", "predictions"],
    "wiki-coverage": ["old-taxonomy", "dataset", "wiktionary"],
}
# the option of each command's output
WRITES = {"predict": "predictions", "train": "model", "eval": "out", "wiki-coverage": "out"}
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
    paths = {"old-taxonomy": taxonomy, "embeddings": embeddings, "dataset": dataset,
             "wiktionary": wiki, "model": root / "model.txt",
             "predictions": root / "predictions.tsv"}
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
         for option in options for damage in DAMAGE]


@pytest.mark.parametrize("command, option, damage", CASES)
def test_damaged_input_exits_0_or_2_naming_it(inputs, tmp_path, capsys, command, option,
                                              damage):
    clean = inputs[option]
    rng = random.Random(f"{command} {option} {damage}")
    bad = tmp_path / clean.name
    bad.write_bytes(DAMAGE[damage](clean.read_bytes(), rng))
    code = cli.main(argv(command, {**inputs, option: bad}, tmp_path / "out"))
    err = capsys.readouterr().err
    assert code in (0, 2), err
    assert "Traceback" not in err
    if code == 2:
        assert str(bad) in err
