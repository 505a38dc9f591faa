"""The candidate-scoring path: pool scores and training features equal the
one-candidate functions exactly, and each synset centroid is computed once."""

import json
from collections import Counter

import numpy as np
import pytest

from taxoenrich import cli, embeddings, ranking
from taxoenrich.diachronic import read_training_pairs
from taxoenrich.embeddings import load_embeddings, synset_vector
from taxoenrich.ranking import (LRModel, assemble_features, candidates_extended,
                                predict_lr, rank_with_model, save_model)
from taxoenrich.taxonomy import PartOfSpeech, load_taxonomy
from taxoenrich.wiktionary import load_wiktionary

from conftest import write_embeddings_file, write_taxonomy_file

NOUN = PartOfSpeech.NOUN


def seeded_corpus(tmp_path, seed=5):
    """Files for a three-level noun hierarchy whose middle and leaf synsets
    share polysemous lemmas, 40 orphans near the middle level, a few lemmas
    without vectors and Wiktionary entries for about 90% of the words."""
    rng = np.random.default_rng(seed)
    dim = 16
    spec, vectors = {}, {}
    roots, mids, leaves = [], [], []
    poly = [f"poly{i}" for i in range(12)]
    for lemma in poly:
        vectors[lemma] = rng.normal(size=dim)
    for i in range(4):
        root = rng.normal(size=dim)
        spec[f"R{i}"] = ("n", [f"root{i}"], [])
        vectors[f"root{i}"] = root
        roots.append(f"root{i}")
        for j in range(5):
            mid = root + 0.5 * rng.normal(size=dim)
            sid = f"M{i}_{j}"
            lemmas = ([f"mid{i}_{j}"] + ([f"ghost{i}_{j}"] if j == 0 else [])
                      + ([str(rng.choice(poly))] if rng.random() < 0.7 else []))
            spec[sid] = ("n", lemmas, [f"R{i}"])
            vectors[f"mid{i}_{j}"] = mid
            mids.append(f"mid{i}_{j}")
            for m in range(8):
                lemma = f"leaf{i}_{j}_{m}"
                lemmas = [lemma] + ([str(rng.choice(poly))] if rng.random() < 0.4 else [])
                spec[f"L{i}_{j}_{m}"] = ("n", lemmas, [sid])
                vectors[lemma] = mid + 0.3 * rng.normal(size=dim)
                leaves.append(lemma)
    spec["X"] = ("n", ["nowhere"], ["R0"])  # no lemma has a vector
    spec["L0_0_8"] = ("n", ["stray"], ["X"])
    vectors["stray"] = vectors["mid0_0"] + 0.1 * rng.normal(size=dim)
    orphans = []
    dataset = []
    for n in range(40):
        i, j = int(rng.integers(4)), int(rng.integers(5))
        word = f"orphan{n:02d}"
        vectors[word] = vectors[f"mid{i}_{j}"] + 0.3 * rng.normal(size=dim)
        orphans.append(word)
        dataset.append(f"{word}\tn\tM{i}_{j},R{i}\n")
    wiki = []
    for word in orphans + leaves:
        if rng.random() < 0.9:
            hypernyms = [str(w) for w in rng.choice(mids + roots, size=rng.integers(1, 4))]
            if rng.random() < 0.2:
                hypernyms.append("zzzunknown")
            wiki.append({"word": word, "hypernyms": hypernyms,
                         "synonyms": [str(w) for w in rng.choice(leaves + poly, size=2)],
                         "definition": "a " + " ".join(rng.choice(mids + poly, size=3)) + " thing"})
    model = LRModel(weights=np.array([1.3, -0.7, 0.9, 2.1, 3.4]), bias=-0.4,
                    l2_lambda=0.0, feature_means=np.array([0.2, 0.1, 0.0, 0.3, 0.5]),
                    feature_stds=np.array([0.4, 0.3, 0.0, 0.25, 0.8]))
    paths = {"taxonomy": write_taxonomy_file(tmp_path / "t.jsonl", spec),
             "embeddings": write_embeddings_file(tmp_path / "v.vec",
                                                 sorted((t, list(v)) for t, v in vectors.items())),
             "wiki": tmp_path / "wiki.jsonl", "dataset": tmp_path / "dataset.tsv",
             "model": tmp_path / "model.txt"}
    paths["wiki"].write_text("".join(json.dumps(e) + "\n" for e in wiki))
    paths["dataset"].write_text("".join(dataset))
    save_model(model, paths["model"])
    return paths, orphans, model


@pytest.fixture
def corpus(tmp_path):
    return seeded_corpus(tmp_path)


def test_pool_scores_equal_single_candidate_scores(corpus):
    """A pool is scored from one feature matrix, but every probability must be
    bit-identical to scoring its candidate alone."""
    paths, orphans, model = corpus
    taxonomy = load_taxonomy(paths["taxonomy"])
    store = load_embeddings(paths["embeddings"])
    wiki = load_wiktionary(paths["wiki"])
    assert sum(word in wiki for word in orphans) > 0.8 * len(orphans)
    compared, with_wiki, pool_total = 0, 0, 0
    for word in orphans:
        pool = candidates_extended(word, taxonomy, store, NOUN, k=10)
        pool_total += len(pool)
        for cand in rank_with_model(word, model, taxonomy, store, wiki, NOUN, k=10):
            features = assemble_features(word, cand.synset, pool, taxonomy, store, wiki)
            assert cand.score == predict_lr(model, features), (word, cand.synset)
            compared += 1
            with_wiki += bool(features[:4].any())
    assert pool_total >= 200 and compared >= 200
    assert with_wiki > compared // 4


def test_train_features_equal_per_pair_features(corpus, monkeypatch):
    paths, _orphans, _model = corpus
    seen = {}
    train_lr = ranking.train_lr

    def capturing_train_lr(X, y, **kwargs):
        seen["X"], seen["y"] = X, y
        return train_lr(X, y, **kwargs)

    monkeypatch.setattr(ranking, "train_lr", capturing_train_lr)
    pairs_out = paths["model"].parent / "pairs.tsv"
    assert cli.main(["train", "--old-taxonomy", str(paths["taxonomy"]),
                     "--embeddings", str(paths["embeddings"]),
                     "--wiktionary", str(paths["wiki"]), "--pos", "noun", "--k", "10",
                     "--model", str(paths["model"]), "--pairs-out", str(pairs_out)]) == 0
    taxonomy = load_taxonomy(paths["taxonomy"])
    store = load_embeddings(paths["embeddings"])
    wiki = load_wiktionary(paths["wiki"])
    pairs = read_training_pairs(pairs_out)
    assert len(pairs) == len(seen["X"]) >= 200
    pools = {}
    out_of_pool = 0
    for row, pair in zip(seen["X"], pairs):
        if pair.word not in pools:
            pools[pair.word] = candidates_extended(pair.word, taxonomy, store, NOUN, k=10)
        expected = assemble_features(pair.word, pair.candidate, pools[pair.word],
                                     taxonomy, store, wiki, strict=False)
        assert np.array_equal(row, expected), (pair.word, pair.candidate)
        out_of_pool += pair.candidate not in pools[pair.word]
    assert out_of_pool > 0
    assert list(seen["y"]) == [p.label for p in pairs]


def test_predict_computes_each_centroid_once(corpus, monkeypatch):
    paths, _orphans, _model = corpus
    computed = Counter()

    def counting_synset_vector(store, syn):
        computed[syn.id] += 1
        return synset_vector(store, syn)

    monkeypatch.setattr(embeddings, "synset_vector", counting_synset_vector)
    assert cli.main(["predict", "--method", "ranking-wiki", "--k", "10",
                     "--old-taxonomy", str(paths["taxonomy"]),
                     "--embeddings", str(paths["embeddings"]),
                     "--wiktionary", str(paths["wiki"]), "--model", str(paths["model"]),
                     "--dataset", str(paths["dataset"]),
                     "--predictions", str(paths["model"].parent / "preds.tsv")]) == 0
    assert len(computed) >= 50
    assert max(computed.values()) == 1


def test_centroid_cache_is_read_only_and_equal_to_synset_vector(corpus):
    paths, _orphans, _model = corpus
    taxonomy = load_taxonomy(paths["taxonomy"])
    store = load_embeddings(paths["embeddings"])
    for sid in ("M0_0", "L1_2_3", "X"):
        syn = taxonomy.synset(sid)
        cached = store.centroid(syn)
        assert cached is store.centroid(syn)
        fresh = synset_vector(store, syn)
        if fresh is None:
            assert cached is None
        else:
            assert np.array_equal(cached, fresh)
            with pytest.raises(ValueError):
                cached[0] = 1.0
