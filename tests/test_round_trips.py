"""Write-then-read properties of the taxonomy, model and predictions files."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taxoenrich.diachronic import read_predictions, write_predictions
from taxoenrich.fileio import InputError
from taxoenrich.ranking import LRModel, N_FEATURES, ScoredCandidate, load_model, save_model
from taxoenrich.taxonomy import PartOfSpeech, Synset, Taxonomy, load_taxonomy, save_taxonomy

_text = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=8)


@st.composite
def taxonomies(draw):
    """Any DAG: each synset's hypernyms come from the synsets drawn before it."""
    ids = draw(st.lists(_text, min_size=1, max_size=8, unique=True))
    synsets, edges = {}, {}
    for i, sid in enumerate(ids):
        synsets[sid] = Synset(sid, draw(st.sampled_from(PartOfSpeech)),
                              tuple(draw(st.lists(_text, min_size=1, max_size=3))))
        edges[sid] = set(draw(st.lists(st.sampled_from(ids[:i]), max_size=3))) if i else set()
    return Taxonomy(synsets, edges)


@given(taxonomies())
@settings(max_examples=80, deadline=None)
def test_taxonomy_file_round_trip(taxonomy):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "taxonomy.jsonl"
        save_taxonomy(taxonomy, path)
        loaded = load_taxonomy(path)
    assert loaded.synsets == taxonomy.synsets  # ids, parts of speech, lemmas in order
    assert loaded.hypernym_edges == taxonomy.hypernym_edges


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


@given(st.dictionaries(_field, _ranked, max_size=5))
@settings(max_examples=80, deadline=None)
def test_predictions_file_round_trip(ranked):
    predictions = {word: [ScoredCandidate(synset=sid, score=score) for sid, score in rows]
                   for word, rows in ranked.items()}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "predictions.tsv"
        write_predictions(predictions, path)
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
