"""The candidate-scoring path: pool scores and training features equal a
one-candidate ``pair_features`` and the one-pair ``pair_cosines`` exactly, and what depends on a
synset only (its centroid, the centroid's norm, its lemma keys) is computed once."""

import json
from collections import Counter
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taxoenrich import cli, embeddings, ranking, wiktionary
from taxoenrich.embeddings import centroid_table, load_embeddings, word_vector
from taxoenrich.ranking import LRModel, predict_lr, rank_words, save_model
from taxoenrich.taxonomy import PartOfSpeech, load_taxonomy
from taxoenrich.textnorm import normalize
from taxoenrich.wiktionary import load_wiktionary

from conftest import (cosine, cosines, extended_pool, lemmas_vector, make_store, naive_sum,
                      pool_features, write_embeddings_file, write_taxonomy_file)

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
        pool = extended_pool(word, taxonomy, store, NOUN, k=10)
        pool_total += len(pool)
        for cand in rank_words([word], [NOUN], taxonomy, store, 10, model=model,
                               wiktionary=wiki)[0]:
            features = pool_features(word, [cand.synset], pool, taxonomy, store, wiki)
            assert cand.score == predict_lr(model, features)[0], (word, cand.synset)
            compared += 1
            with_wiki += bool(features[0, :4].any())
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
    assert cli.main(["train", "--old-taxonomy", str(paths["taxonomy"]),
                     "--embeddings", str(paths["embeddings"]),
                     "--wiktionary", str(paths["wiki"]), "--pos", "noun", "--k", "10",
                     "--model", str(paths["model"])]) == 0
    taxonomy = load_taxonomy(paths["taxonomy"])
    store = load_embeddings(paths["embeddings"])
    wiki = load_wiktionary(paths["wiki"])
    pairs = ranking.build_training_pairs(taxonomy, store, NOUN, k=10)[0]
    assert len(pairs) == len(seen["X"]) >= 200
    pools = {}
    out_of_pool = 0
    for row, pair in zip(seen["X"], pairs):
        if pair.word not in pools:
            pools[pair.word] = extended_pool(pair.word, taxonomy, store, NOUN, k=10)
        expected = pool_features(pair.word, [pair.candidate], pools[pair.word],
                                 taxonomy, store, wiki)[0]
        assert np.array_equal(row, expected), (pair.word, pair.candidate)
        out_of_pool += pair.candidate not in pools[pair.word]
    assert out_of_pool > 0
    assert list(seen["y"]) == [p.label for p in pairs]


def test_predict_resolves_each_centroid_lemma_once(corpus, monkeypatch):
    """The centroid table of a pass resolves each distinct lemma of its synsets once, a
    lemma shared between synsets too."""
    paths, _orphans, _model = corpus
    resolved = Counter()
    resolve = embeddings.word_vector

    def counting_word_vector(store, word):
        resolved[word] += 1
        return resolve(store, word)

    monkeypatch.setattr(embeddings, "word_vector", counting_word_vector)
    assert cli.main(["predict", "--method", "ranking-wiki", "--k", "10",
                     "--old-taxonomy", str(paths["taxonomy"]),
                     "--embeddings", str(paths["embeddings"]),
                     "--wiktionary", str(paths["wiki"]), "--model", str(paths["model"]),
                     "--dataset", str(paths["dataset"]),
                     "--predictions", str(paths["model"].parent / "preds.tsv")]) == 0
    assert len(resolved) >= 50 and any(word.startswith("poly") for word in resolved)
    assert max(resolved.values()) == 1


@pytest.mark.parametrize("n", [1, 300])
@pytest.mark.parametrize("method", ["baseline", "ranking", "ranking-wiki"])
def test_rank_words_featurizes_and_scores_in_one_pass(corpus, monkeypatch, method, n):
    """However many words, ``rank_words`` builds one feature matrix for all their pools
    and, with a model, scores it in one ``predict_lr`` call."""
    paths, _orphans, model = corpus
    taxonomy = load_taxonomy(paths["taxonomy"])
    store = load_embeddings(paths["embeddings"])
    calls = Counter()

    def counted(name):
        fn = getattr(ranking, name)

        def counting(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counting

    for name in ("pair_features", "predict_lr"):
        monkeypatch.setattr(ranking, name, counted(name))
    words = (sorted(store.index) * 2)[:n]
    ranked = rank_words(words, [NOUN] * n, taxonomy, store, 10, method == "baseline",
                        model if method == "ranking-wiki" else None,
                        load_wiktionary(paths["wiki"]))
    assert len(ranked) == n and all(ranked)
    assert [calls["pair_features"], calls["predict_lr"]] == [1, int(method == "ranking-wiki")]


def test_pool_cosines_equal_one_pair_cosine(corpus):
    """Norms are computed once per vector and each pair is one dot product, but
    every similarity and cosine feature must equal ``pair_cosines`` of its pair alone."""
    paths, orphans, _model = corpus
    taxonomy = load_taxonomy(paths["taxonomy"])
    store = load_embeddings(paths["embeddings"])
    wiki = load_wiktionary(paths["wiki"])
    compared, with_hypernyms = 0, 0
    for word in orphans:
        orphan = word_vector(store, word)
        pool = extended_pool(word, taxonomy, store, NOUN, k=10)
        centroids = [lemmas_vector(store, taxonomy.lemmas[c]) for c in pool]
        expected = [0.0 if c is None else cosine(orphan, c) for c in centroids]
        assert cosines(word, list(pool), taxonomy, store) == expected, word
        X = pool_features(word, list(pool), pool, taxonomy, store, wiki)
        assert list(X[:, 4]) == [n * e for n, e in zip(pool.values(), expected)]
        entry = wiki.get(word)
        hypernyms = [v for v in (word_vector(store, h) for h in entry.hypernyms)
                     if v is not None] if entry else []
        if hypernyms:
            with_hypernyms += 1
            assert list(X[:, 3]) == [0.0 if c is None else
                                     naive_sum(cosine(c, h) for h in hypernyms) / len(hypernyms)
                                     for c in centroids], word
        compared += len(pool)
    assert compared >= 200 and with_hypernyms >= 20


def test_predict_normalizes_each_synset_lemma_once(corpus, monkeypatch):
    """Lemmas that no Wiktionary field or orphan shares are normalized in the
    wiktionary layer only to key their synsets: at most once per lemma tuple."""
    paths, orphans, _model = corpus
    taxonomy = load_taxonomy(paths["taxonomy"])
    entries = load_wiktionary(paths["wiki"]).entries.values()
    shared = {normalize(s) for e in entries for s in [e.word, *e.hypernyms, *e.synonyms]}
    shared |= {normalize(w) for w in orphans}
    tuples = Counter(lemma for lemmas in set(taxonomy.lemmas.values())
                     for lemma in set(lemmas))
    calls = Counter()

    def counting_normalize(text):
        calls[text] += 1
        return normalize(text)

    monkeypatch.setattr(wiktionary, "normalize", counting_normalize)
    assert cli.main(["predict", "--method", "ranking-wiki", "--k", "10",
                     "--old-taxonomy", str(paths["taxonomy"]),
                     "--embeddings", str(paths["embeddings"]),
                     "--wiktionary", str(paths["wiki"]), "--model", str(paths["model"]),
                     "--dataset", str(paths["dataset"]),
                     "--predictions", str(paths["model"].parent / "preds.tsv")]) == 0
    keyed = {lemma: n for lemma, n in calls.items()
             if lemma in tuples and normalize(lemma) not in shared}
    assert len(keyed) >= 5
    assert {lemma: n for lemma, n in keyed.items() if n > tuples[lemma]} == {}


@given(dim=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1), chunk=st.integers(1, 9),
       synsets=st.lists(st.lists(st.sampled_from(
           ["a", "b", "c", "d", "zero", "a_b", "c-none", "a_b_c_d", "none", "b_none"]),
           max_size=11).map(tuple), max_size=12))
@settings(max_examples=150, deadline=None)
def test_centroid_table_rows_and_norms_equal_the_oracle(dim, seed, chunk, synsets):
    """Each row of ``centroid_table`` is the oracle's mean of the synset's resolvable lemma
    vectors, each resolved alone, and each norm that vector's ``np.linalg.norm``, bit for
    bit: over the subtoken fallback, one-lemma synsets, synsets with no vector, lemmas shared
    between synsets and up to 11 lemmas (past ``np.add``'s 8-wide pairwise blocks), on either
    side of a gather chunk. A synset with no vector is a zero row of norm 0."""
    rng = np.random.default_rng(seed)
    values = [0.0, -0.0, 1.0, -2.5, 1e-3, 3e5, 0.1, -7.0]
    store = make_store(dim, {**{t: rng.choice(values, size=dim) * rng.normal(size=dim)
                                for t in "abcd"}, "zero": np.zeros(dim)})
    with patch.object(embeddings, "_PAIR_CHUNK", chunk):
        rows, norms = centroid_table(store, synsets)
    assert rows.shape == (len(synsets), dim) and norms.shape == (len(synsets),)
    for lemmas, row, norm in zip(synsets, rows, norms.tolist()):
        vec = lemmas_vector(store, lemmas)
        if vec is None:
            assert norm == 0.0 and row.tobytes() == np.zeros(dim).tobytes()
        else:
            assert row.tobytes() == vec.tobytes(), lemmas
            assert norm == np.linalg.norm(vec), lemmas
