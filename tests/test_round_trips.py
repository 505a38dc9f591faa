"""Write-then-read properties of the taxonomy, model and predictions files."""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from taxoenrich.diachronic import read_predictions, write_predictions
from taxoenrich.fileio import InputError
from taxoenrich.ranking import LRModel, N_FEATURES, ScoredCandidate, load_model, save_model
from taxoenrich.taxonomy import PartOfSpeech, load_taxonomy

from conftest import make_taxonomy, save_taxonomy

_text = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=8)


@st.composite
def taxonomies(draw):
    """Any DAG: each synset's hypernyms come from the synsets drawn before it."""
    ids = draw(st.lists(_text, min_size=1, max_size=8, unique=True))
    return make_taxonomy({
        sid: (draw(st.sampled_from(PartOfSpeech)), draw(st.lists(_text, min_size=1, max_size=3)),
              draw(st.lists(st.sampled_from(ids[:i]), max_size=3)) if i else [])
        for i, sid in enumerate(ids)})


@given(taxonomies())
@settings(max_examples=80, deadline=None)
def test_taxonomy_file_round_trip(taxonomy):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "taxonomy.jsonl"
        save_taxonomy(taxonomy, path)
        loaded = load_taxonomy(path)
    assert loaded.lemmas == taxonomy.lemmas  # ids, lemmas in order
    assert loaded.ids == taxonomy.ids  # parts of speech
    assert loaded.hypernym_edges == taxonomy.hypernym_edges
    assert loaded.lemma_index == taxonomy.lemma_index


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


_finite = st.floats(allow_nan=False, allow_infinity=False)
_vector = st.lists(_finite, min_size=N_FEATURES, max_size=N_FEATURES)


@given(_vector, _finite, _finite, _vector,
       st.lists(st.floats(min_value=0.0, allow_infinity=False),
                min_size=N_FEATURES, max_size=N_FEATURES))
@settings(max_examples=80, deadline=None)
def test_model_file_round_trip(weights, bias, l2_lambda, means, stds):
    model = LRModel(weights=np.array(weights), bias=bias, l2_lambda=l2_lambda,
                    feature_means=np.array(means), feature_stds=np.array(stds))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.txt"
        save_model(model, path)
        loaded = load_model(path)
    assert _bits(loaded.weights) == _bits(weights)
    assert _bits([loaded.bias, loaded.l2_lambda]) == _bits([bias, l2_lambda])
    assert _bits(loaded.feature_means) == _bits(means)
    assert _bits(loaded.feature_stds) == _bits(stds)
    assert np.all(loaded.feature_stds >= 0)


_field = st.text(st.characters(blacklist_characters="\t\n\r", blacklist_categories=("Cs",)),
                 max_size=8)
_ranked = st.lists(st.tuples(_field, st.floats(allow_nan=False)), min_size=1, max_size=4)


_entry = st.tuples(_field, st.sampled_from(PartOfSpeech))


def refuses_infinite_scores(ranked: dict, path: Path) -> bool:
    """Whether ``ranked`` holds an infinite score or its first word is led by U+FEFF (a
    byte-order mark), after checking that ``read_predictions`` refuses the file ``path``
    that holds them."""
    if next(iter(ranked), "").startswith("\ufeff"):
        match = ":1: starts with a byte-order mark"
    elif all(math.isfinite(score) for rows in ranked.values() for _sid, score in rows):
        return False
    else:
        match = ": expected word, "
    with pytest.raises(InputError, match=match):
        read_predictions(path)
    return True


@given(st.dictionaries(_entry, _ranked, max_size=5), st.booleans())
@example({("\ufeffduck", PartOfSpeech.NOUN): [("A", 0.5)]}, False)
@settings(max_examples=80, deadline=None)
def test_predictions_file_round_trip(ranked, explain):
    """Each (word, pos) entry reads back with its synsets and scores in rank order, a word
    that is a noun and a verb as two entries; an infinite score or a first word led by
    U+FEFF, which no file could carry, is refused by the writer, which then writes
    nothing."""
    predictions = {entry: [ScoredCandidate(synset=sid, score=score, provenance=["n", "v"])
                           for sid, score in rows] for entry, rows in ranked.items()}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "predictions.tsv"
        if not all(math.isfinite(score) for rows in ranked.values() for _sid, score in rows):
            refusal = ": a score is not finite$"
        elif ranked and min(ranked)[0].startswith("\ufeff"):
            refusal = ": would start the file with a byte-order mark$"
        else:
            refusal = None
        if refusal:
            with pytest.raises(InputError, match=refusal):
                write_predictions(predictions, path, explain=explain)
            assert not path.exists()
            return
        write_predictions(predictions, path, explain=explain)
        loaded = read_predictions(path)
    assert {e: [(sid, repr(s)) for sid, s in rows] for e, rows in loaded.items()} == \
        {e: [(sid, repr(s)) for sid, s in rows] for e, rows in ranked.items()}


@given(st.dictionaries(_field, _ranked, max_size=5), st.booleans())
@example({"\ufeffduck": [("A", 0.5)]}, False)
@settings(max_examples=80, deadline=None)
def test_an_older_file_without_a_pos_column_reads_keyed_by_word(ranked, explain):
    """word, rank, synset, score[, provenance]: the form written before entries had a
    part of speech; a file holding an infinite score, or led by a byte-order mark, is
    refused."""
    lines = [f"{word}\t{rank}\t{sid}\t{score!r}" + ("\tn,v" if explain else "") + "\n"
             for word, rows in ranked.items() for rank, (sid, score) in enumerate(rows, 1)]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "predictions.tsv"
        path.write_text("".join(lines), encoding="utf-8")
        if refuses_infinite_scores(ranked, path):
            return
        loaded = read_predictions(path)
    assert {w: [(sid, repr(s)) for sid, s in rows] for w, rows in loaded.items()} == \
        {w: [(sid, repr(s)) for sid, s in rows] for w, rows in ranked.items()}


@pytest.mark.parametrize("bad", ["duck\t1\tA", "   ", "duck\t1\tA\tnope", "duck\t1\tA\t"])
def test_malformed_predictions_line_message(tmp_path, bad):
    path = tmp_path / "predictions.tsv"
    path.write_text(f"\nduck\t1\tA\t0.5\n{bad}\n", encoding="utf-8")
    with pytest.raises(InputError) as err:
        read_predictions(path)
    assert str(err.value) == f"{path}:3: expected word, rank, synset, score"


@pytest.mark.parametrize("bad", ["duck\tn\t1\tA", "duck\tv\t1\tA\tnope", "duck\tn",
                                 "duck\tn\t1\tA\t"])
def test_malformed_line_with_a_pos_column_message(tmp_path, bad):
    path = tmp_path / "predictions.tsv"
    path.write_text(f"duck\tn\t1\tA\t0.5\n{bad}\n", encoding="utf-8")
    with pytest.raises(InputError) as err:
        read_predictions(path)
    assert str(err.value) == f"{path}:2: expected word, pos, rank, synset, score"
