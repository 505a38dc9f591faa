"""The line-record readers: invalid UTF-8 in any input is an input error naming its exact
line, and a JSONL line decodes as ``json.loads`` decodes it."""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from taxoenrich import cli
from taxoenrich.cli import read_config
from taxoenrich.diachronic import read_dataset, read_predictions
from taxoenrich.embeddings import load_embeddings
from taxoenrich.fileio import InputError, atomic_write, decode_json, read_lines
from taxoenrich.ranking import load_model
from taxoenrich.taxonomy import load_taxonomy
from taxoenrich.wiktionary import load_wiktionary

BAD = b"\xff"


def taxonomy_line(i):
    return json.dumps({"id": f"s{i}", "pos": "n", "lemmas": [f"w{i}"]})


# reader, the text of good line i (from 1), and lines before the records begin
READERS = {
    "taxonomy": (load_taxonomy, taxonomy_line, []),
    "wiktionary": (load_wiktionary, lambda i: json.dumps({"word": f"w{i}"}), []),
    "dataset": (read_dataset, lambda i: f"w{i}\tn\ts{i}", []),
    "predictions": (read_predictions, lambda i: f"w{i}\t1\ts{i}\t0.5", []),
    "vectors": (load_embeddings, lambda i: f"w{i} 0.5 0.25", ["3000 2"]),
    "config": (read_config, lambda i: f"w{i} = {i}", []),
}


@pytest.mark.parametrize("name", READERS)
@pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"])
def test_invalid_utf8_past_the_first_8_kib_names_its_line(tmp_path, name, end):
    read, line, head = READERS[name]
    lines = [h.encode() for h in head]
    lines += [line(i).encode() for i in range(len(lines) + 1, 3001)]
    lines[2500] = lines[2500].replace(b"w", BAD, 1)  # line 2501
    path = tmp_path / "input"
    path.write_bytes(end.join(lines) + end)
    assert sum(map(len, lines[:2500])) > 3 * 8192
    with pytest.raises(InputError) as err:
        read(path)
    assert str(err.value) == f"{path}:2501: invalid UTF-8"


def test_invalid_utf8_in_a_model_file_names_its_line(tmp_path):
    path = tmp_path / "model.txt"
    path.write_bytes(b"lr-model v1\n0.0\n0 0 0 0 1 0\xff\n0 0 0 0 0\n1 1 1 1 1\n")
    with pytest.raises(InputError, match=rf"^{path}:3: invalid UTF-8$"):
        load_model(path)


def test_a_sequence_cut_by_a_line_end_is_invalid_on_its_own_line(tmp_path):
    path = tmp_path / "in.tsv"
    path.write_bytes(b"a\n\xe2\x82\nb\n")
    with pytest.raises(InputError, match=r":2: invalid UTF-8$"):
        list(read_lines(path))


def test_invalid_utf8_exits_2_naming_the_line(tmp_path, capsys):
    dataset = tmp_path / "dataset.tsv"
    dataset.write_bytes(b"duck\tn\tA\ng\xffose\tn\tA\n")
    taxonomy = tmp_path / "t.jsonl"
    taxonomy.write_text(taxonomy_line(1) + "\n")
    assert cli.main(["eval", "--old-taxonomy", str(taxonomy), "--dataset", str(dataset),
                     "--predictions", str(dataset)]) == 2
    assert capsys.readouterr().err == f"error: {dataset}:2: invalid UTF-8\n"


def decoded(decode, line):
    """What ``decode(line)`` gives: a value (as its JSON text, so NaN equals NaN and 1 is
    not 1.0 or true), or its error's type and message."""
    try:
        return json.dumps(decode(line))
    except (json.JSONDecodeError, RecursionError) as exc:
        return type(exc), str(exc)


_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=8)
_documents = _values.map(json.dumps)
_lines = st.one_of(
    st.text(max_size=20),
    st.text(st.sampled_from('[]{}",:-+.0123456789eEINaftnrulsy\\ \ufeff'), max_size=20),
    _documents,
    st.tuples(_documents, st.sampled_from(["", " ", ",", "\t", "\ufeff"]), _documents)
    .map("".join),                                         # two documents: extra data
    st.tuples(_documents, st.integers(0, 30)).map(lambda d: d[0][:d[1]]),  # truncated
).map(str.strip)


@given(_lines)
@settings(max_examples=400, deadline=None)
@example("\ufeff{}")                                     # a BOM
@example('{"a": 1}{"b": 2}')                               # extra data
@example("[1] x")
@example("NaN")
@example("-Infinity")
@example('{"x": [NaN, Infinity, -Infinity]}')
@example('"\\ud800"')                                     # a lone surrogate escape
@example("[" * 100 + "]" * 100)                            # nested deep, and deeper than
@example("[" * 100_000 + "]" * 100_000)                    # the recursion limit
@example("")
def test_decode_json_is_json_loads(line):
    """The same value, or both raising the same ``JSONDecodeError``, for any stripped line."""
    assert decoded(decode_json, line) == decoded(json.loads, line)


def test_a_write_into_no_directory_names_the_output_not_its_temporary(tmp_path):
    out = tmp_path / "missing" / "stats.json"
    with pytest.raises(FileNotFoundError) as err:
        atomic_write(out, "{}")
    assert err.value.filename == str(out) and ".tmp" not in str(err.value)
    assert not (tmp_path / "missing").exists()
