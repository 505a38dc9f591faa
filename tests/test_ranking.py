from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from taxoenrich import ranking
from taxoenrich.embeddings import batch_nearest_neighbors, load_embeddings, word_vector
from taxoenrich.fileio import InputError
from taxoenrich.ranking import (
    LRModel,
    load_model,
    lr_loss_and_gradient,
    pair_features,
    predict_lr,
    rank_pools,
    rank_words,
    save_model,
    train_lr,
    word_neighbors,
)
from taxoenrich.taxonomy import PartOfSpeech
from taxoenrich.textnorm import normalize
from taxoenrich.wiktionary import WiktionaryEntry, WiktionaryStore

from conftest import (cosine, cosines, extended_pool, make_store, make_taxonomy, naive_sum,
                      neumaier_sum, pool_features, random_dag_spec, write_embeddings_file)

NOUN = PartOfSpeech.NOUN

# Toy from the candidate-generation hand trace: neighbors [w1, w2];
# w1 in S1 with S1 -> H1; w2 in S2 with S2 -> {H1, H2}; H1 -> G.
TOY_SPEC = {
    "G": ("n", ["g"], []),
    "H1": ("n", ["h1"], ["G"]),
    "H2": ("n", ["h2"], []),
    "S1": ("n", ["w1"], ["H1"]),
    "S2": ("n", ["w2"], ["H1", "H2"]),
}


def toy_store():
    return make_store(2, {
        "q": np.array([1.0, 0.0]),
        "w1": np.array([0.95, 0.1]),
        "w2": np.array([0.8, 0.3]),
        "h1": np.array([0.7, 0.7]),
        "h2": np.array([0.1, 0.9]),
        "g": np.array([0.0, 1.0]),
    })


def candidates_baseline(word, taxonomy, embeddings, pos, k=10):
    """The baseline ranker's top k for one word, with provenance."""
    return rank_words([word], [pos], taxonomy, embeddings, k, baseline=True, explain=True)[0]


class TestCandidatesBaseline:
    def test_hand_trace(self):
        t = make_taxonomy(TOY_SPEC)
        result = candidates_baseline("q", t, toy_store(), NOUN, k=2)
        assert [c.synset for c in result] == ["H1", "H2"]
        assert result[0].provenance == ["w1", "w2"]
        assert result[1].provenance == ["w2"]

    def test_no_in_taxonomy_neighbors(self):
        t = make_taxonomy({"X": ("n", ["unrelated"], [])})
        store = make_store(2, {"q": np.array([1.0, 0.0]),
                               "zzz": np.array([0.9, 0.1])})
        assert candidates_baseline("q", t, store, NOUN, k=5) == []

    def test_k1_truncation(self):
        t = make_taxonomy(TOY_SPEC)
        result = candidates_baseline("q", t, toy_store(), NOUN, k=1)
        assert len(result) <= 1
        assert result[0].synset == "H1"

    def test_oov_orphan_raises(self):
        """A word with no vector has no ranking, and no pool to rank."""
        t = make_taxonomy(TOY_SPEC)
        assert candidates_baseline("unknownword", t, toy_store(), NOUN) is None
        assert rank_words(["unknownword"], [NOUN], t, toy_store()) == [None]

    def test_word_without_vector_has_zero_cosines(self):
        """``pair_features`` reads a word with no vector as a zero row: cosine 0, no error."""
        t = make_taxonomy(TOY_SPEC)
        X = pair_features(["unknownword", "q"], np.arange(2), ["H1"], np.zeros(2, np.intp), [1, 1],
                          t, toy_store())
        assert X[0, 4] == 0.0 and X[1, 4] > 0.0

    def test_baseline_subset_of_extended_pool(self):
        t = make_taxonomy(TOY_SPEC)
        base = candidates_baseline("q", t, toy_store(), NOUN, k=2)
        pool = extended_pool("q", t, toy_store(), NOUN, k=2)
        assert {c.synset for c in base} <= set(pool)


class TestCandidatesExtended:
    def test_hand_trace_multiplicities(self):
        t = make_taxonomy(TOY_SPEC)
        pool = extended_pool("q", t, toy_store(), NOUN, k=2)
        assert set(pool) == {"H1", "H2", "G"}
        assert pool["H1"] == 2   # reached from both w1 and w2
        assert pool["H2"] == 1
        assert pool["G"] == 1    # second-order via H1

    def test_neighbor_without_synsets_contributes_nothing(self):
        t = make_taxonomy(TOY_SPEC)
        base = toy_store()
        store = make_store(2, {**dict(zip(base.index, base.matrix)),
                               "stray": np.array([0.99, 0.01])})
        pool = extended_pool("q", t, store, NOUN, k=3)
        assert set(pool) == {"H1", "H2", "G"}


class TestRankByScore:
    def test_score_formula(self):
        t = make_taxonomy(TOY_SPEC)
        pool = extended_pool("q", t, toy_store(), NOUN, k=2)
        ranked = rank_pools(["q"], [pool], t, toy_store(), k=10)[0]
        sims = cosines("q", [c.synset for c in ranked], t, toy_store())
        for cand, sim in zip(ranked, sims):
            assert cand.score == pytest.approx(pool[cand.synset] * sim)

    def test_multiplicity_beats_similarity(self):
        # (n=2, sim=0.5) outranks (n=1, sim=0.9)
        t = make_taxonomy({"X": ("n", ["x"], []), "Y": ("n", ["y"], [])})
        store = make_store(2, {"q": np.array([1.0, 0.0]),
                               "x": np.array([0.5, np.sqrt(0.75)]),
                               "y": np.array([0.9, np.sqrt(1 - 0.81)])})
        pool = Counter({"X": 2, "Y": 1})
        ranked = rank_pools(["q"], [pool], t, store, k=2)[0]
        assert [c.synset for c in ranked] == ["X", "Y"]
        assert ranked[0].score == pytest.approx(1.0, abs=1e-9)
        assert ranked[1].score == pytest.approx(0.9, abs=1e-9)

    def test_equal_sims_order_by_occurrences(self):
        t = make_taxonomy({"X": ("n", ["x"], []), "Y": ("n", ["y"], [])})
        store = make_store(2, {"q": np.array([1.0, 0.0]),
                               "x": np.array([2.0, 0.0]),
                               "y": np.array([3.0, 0.0])})
        pool = Counter({"X": 1, "Y": 3})
        ranked = rank_pools(["q"], [pool], t, store, k=2)[0]
        assert [c.synset for c in ranked] == ["Y", "X"]

    def test_unresolvable_synset_scored_zero(self):
        t = make_taxonomy({"X": ("n", ["oovlemma"], [])})
        store = make_store(2, {"q": np.array([1.0, 0.0])})
        pool = Counter({"X": 3})
        ranked = rank_pools(["q"], [pool], t, store, k=1)[0]
        assert ranked[0].score == 0.0

    def test_input_order_invariance(self):
        t = make_taxonomy(TOY_SPEC)
        pool = extended_pool("q", t, toy_store(), NOUN, k=2)
        reversed_pool = Counter(dict(reversed(list(pool.items()))))
        a = [c.synset for c in rank_pools(["q"], [pool], t, toy_store(), k=10)[0]]
        b = [c.synset for c in rank_pools(["q"], [reversed_pool], t, toy_store(), k=10)[0]]
        assert a == b

    def test_common_vector_scaling_preserves_order(self):
        t = make_taxonomy(TOY_SPEC)
        store = toy_store()
        scaled = make_store(2, {tok: 3.7 * vec for tok, vec in zip(store.index, store.matrix)})
        pool_a = extended_pool("q", t, store, NOUN, k=2)
        pool_b = extended_pool("q", t, scaled, NOUN, k=2)
        a = [c.synset for c in rank_pools(["q"], [pool_a], t, store, k=10)[0]]
        b = [c.synset for c in rank_pools(["q"], [pool_b], t, scaled, k=10)[0]]
        assert a == b


# lemma vectors for the synsets of the top-k property. Against q = [1, 0]: the first gives a
# cosine of -0.0 (a dot of -5e-324 over a norm of 1e10), the second +0.0, the next two tie at
# 0.6 and 1, and None is a synset with no vector (cosine 0)
TIED_VECTORS = [[-5e-324, 1e10], [0.0, 1.0], [0.6, 0.8], [1.2, 1.6], [1.0, 0.0], [3.0, 0.0],
                [-1.0, 0.0], None]
# a model whose probability saturates: every score from about 0.95 up is clipped to the same
# 1 - 1e-12, and all scores of 0 (or -0.0) tie too
SATURATED = LRModel(weights=np.array([0.0, 0.0, 0.0, 0.0, 40.0]), bias=-10.0, l2_lambda=0.0,
                    feature_means=np.zeros(5), feature_stds=np.array([0.0, 0.0, 0.0, 0.0, 1.0]))


@given(choices=st.lists(st.integers(0, len(TIED_VECTORS) - 1), min_size=1, max_size=10),
       pools=st.lists(st.tuples(st.sampled_from(["q", "r"]), st.dictionaries(
           st.integers(0, 9), st.integers(1, 3), max_size=10)), max_size=5),
       k=st.integers(1, 12), with_model=st.booleans())
@example(choices=[0, 1, 7, 2, 3, 4, 5, 2, 7, 0], pools=[
    ("q", {i: 1 for i in range(10)}), ("r", {}), ("q", {8: 2, 2: 1, 7: 3, 0: 2})],
    k=7, with_model=False)  # k cuts the five-way tie at 0 (-0.0, +0.0, no vector)
@example(choices=[0, 1, 7, 2, 3, 4, 5, 2, 7, 0], pools=[
    ("q", {i: 1 + i % 3 for i in range(10)}), ("q", {8: 2, 2: 1, 7: 3})], k=12, with_model=True)
@settings(max_examples=150, deadline=None)
def test_one_sort_top_k_equals_a_sort_of_each_pool(choices, pools, k, with_model):
    """``rank_pools``' one sort of all pools keeps, per pool, the first k of Python's sorted
    (-score, synset id) tuples of that pool featurized alone, scores bit for bit: over ties
    of equal probabilities, of -0.0 and +0.0 scores and of synsets with no vector, k past a
    pool's size, empty pools and a word with two pools."""
    t = make_taxonomy({f"S{i}": ("n", [f"l{i}"], []) for i in range(len(choices))})
    store = make_store(2, {"q": np.array([1.0, 0.0]), "r": np.array([0.0, 1.0]), **{
        f"l{i}": np.array(TIED_VECTORS[c]) for i, c in enumerate(choices) if TIED_VECTORS[c]}})
    pools = [(word, Counter({f"S{i % len(choices)}": n for i, n in pool.items()}))
             for word, pool in pools]
    model, wiki = (SATURATED, WiktionaryStore()) if with_model else (None, None)
    ranked = rank_pools([word for word, _ in pools], [pool for _, pool in pools], t, store, k,
                        model, wiki)
    for (word, pool), top in zip(pools, ranked, strict=True):
        X = pool_features(word, list(pool), pool, t, store, wiki)
        scores = (X[:, 4] if model is None else predict_lr(model, X)).tolist()
        want = sorted(zip([-score for score in scores], pool))[:k]
        assert [(c.synset, c.score.hex()) for c in top] == \
            [(cand, (-negated).hex()) for negated, cand in want]


class TestFeatures:
    def test_empty_wiktionary_gives_score_only(self):
        t = make_taxonomy(TOY_SPEC)
        pool = extended_pool("q", t, toy_store(), NOUN, k=2)
        f = pool_features("q", ["H1"], pool, t, toy_store(), WiktionaryStore())[0]
        assert list(f[:4]) == [0.0, 0.0, 0.0, 0.0]
        assert f[4] != 0.0

    def test_wiki_hypernym_hit(self):
        t = make_taxonomy(TOY_SPEC)
        pool = extended_pool("q", t, toy_store(), NOUN, k=2)
        wiki = WiktionaryStore({"q": WiktionaryEntry("q", hypernyms=["h1"])})
        f = pool_features("q", ["H1"], pool, t, toy_store(), wiki)[0]
        assert f[0] == 1.0

    def test_purity(self):
        t = make_taxonomy(TOY_SPEC)
        pool = extended_pool("q", t, toy_store(), NOUN, k=2)
        a = pool_features("q", ["G"], pool, t, toy_store(), WiktionaryStore())[0]
        b = pool_features("q", ["G"], pool, t, toy_store(), WiktionaryStore())[0]
        assert np.array_equal(a, b)


# The pool extraction as it was first written: the baseline and the extended
# pool each walk the extraction paths with their own bookkeeping. Kept as an
# oracle, with ``word_vector`` in place of the private OOV check and plain
# tuples in place of ScoredCandidate: (synset, provenance, score) of the baseline's
# top k, (synset, occurrences, provenance, 0.0) of each extended pool entry.
def oracle_first_order_paths(word, taxonomy, embeddings, pos, k, neighbors):
    """Yield (neighbor_rank, neighbor_token, candidate_synset) extraction paths."""
    if neighbors is None:
        vec = word_vector(embeddings, word)
        neighbors = batch_nearest_neighbors(embeddings, vec[None, :], k, [{normalize(word)}])[0]
    for rank, (token, _sim) in enumerate(neighbors):
        for sid in sorted(taxonomy.synsets_of_lemma(token, pos)):
            for hyp in sorted(taxonomy.direct_hypernyms(sid)):
                for cand in taxonomy.associated_synsets(hyp, pos):
                    yield rank, token, cand


def oracle_baseline(word, taxonomy, embeddings, pos, k, neighbors=None):
    earliest = {}
    provenance = {}
    for rank, token, cand in oracle_first_order_paths(word, taxonomy, embeddings, pos, k,
                                                      neighbors):
        earliest.setdefault(cand, rank)
        prov = provenance.setdefault(cand, [])
        if token not in prov:
            prov.append(token)
    sims = dict(zip(earliest, cosines(word, list(earliest), taxonomy, embeddings)))
    ordered = sorted(earliest, key=lambda c: (earliest[c], -sims[c], c))
    return [(c, provenance[c], sims[c]) for c in ordered[:k]]


def oracle_extended(word, taxonomy, embeddings, pos, k, neighbors=None):
    pool = {}

    def add(cand, token):
        entry = pool.get(cand)
        if entry is None:
            pool[cand] = [cand, 1, [token], 0.0]
        else:
            entry[1] += 1
            if token not in entry[2]:
                entry[2].append(token)

    for _rank, token, cand in oracle_first_order_paths(word, taxonomy, embeddings, pos, k,
                                                       neighbors):
        add(cand, token)
    for cand, entry in list(pool.items()):
        for hyp in sorted(taxonomy.direct_hypernyms(cand)):
            for second in taxonomy.associated_synsets(hyp, pos):
                add(second, entry[2][0])
    return [tuple(entry) for entry in pool.values()]


def as_tuples(candidates):
    return [(c.synset, c.provenance, c.score) for c in candidates]


def random_pool_problem(seed):
    """A random DAG of nouns and verbs whose synsets share lemmas, and a store holding
    every lemma, some tokens outside the taxonomy and the query words."""
    rng = np.random.default_rng(seed)
    spec = random_dag_spec(rng, int(rng.integers(5, 40)), edge_prob=0.2)
    shared = [f"shared{j}" for j in range(5)]
    for sid, (_pos, lemmas, parents) in spec.items():
        extra = [str(rng.choice(shared))] if rng.random() < 0.4 else []
        spec[sid] = ("v" if rng.random() < 0.2 else "n", lemmas + extra, parents)
    tokens = sorted({lemma for _pos, lemmas, _p in spec.values() for lemma in lemmas})
    tokens += [f"stray{j}" for j in range(4)] + ["q0", "q1", "q2"]
    dim = int(rng.integers(2, 6))
    store = make_store(dim, {tok: rng.normal(size=dim) for tok in tokens})
    return make_taxonomy(spec), store


@pytest.mark.parametrize("seed", range(40))
@pytest.mark.parametrize("k", [1, 3, 10])
def test_pools_equal_the_two_pass_oracle(seed, k):
    t, store = random_pool_problem(seed)
    words = ["q0", "q1", "q2"]
    for pos in (NOUN, PartOfSpeech.VERB):
        baseline = rank_words(words, [pos] * len(words), t, store, k, baseline=True,
                              explain=True)
        for word, neighbors, ranked in zip(words, word_neighbors(words, store, k), baseline):
            # the oracles search for each word alone, or take its neighbors from the batch
            for given in (None, neighbors):
                assert as_tuples(ranked) == oracle_baseline(word, t, store, pos, k, given)
                pool = extended_pool(word, t, store, pos, k)
                provenance = ranking._provenance(t, pos, neighbors, extended=True)
                assert list(provenance) == list(pool)
                assert [(c, n, provenance[c], 0.0) for c, n in pool.items()] == \
                    oracle_extended(word, t, store, pos, k, given)


# strings whose normalized form normalizes again to something else (tests/test_textnorm.py)
NOT_IDEMPOTENT = ["\u0130\u20d3", "\u1ff3\u0304"]


def loaded_store(tmp_path, rows):
    """The store ``load_embeddings`` makes of a vector file of ``rows``, each token
    normalized once by the loader."""
    return load_embeddings(write_embeddings_file(tmp_path / "vectors.vec", rows))


@pytest.mark.parametrize("lemma", NOT_IDEMPOTENT)
def test_a_store_token_reaches_its_own_synsets(tmp_path, lemma):
    """A neighbor's store token is looked up in the lemma index as it is stored: a lemma
    whose normalized form changes under a second ``normalize`` still credits its
    synset's hypernym, in the baseline, the extended pool and its provenance."""
    t = make_taxonomy({"R": ("n", ["root"], []), "X": ("n", [lemma], ["R"]),
                       "Y": ("n", ["plain"], ["R"])})
    store = loaded_store(tmp_path, [("q", [1.0, 0.0]), (lemma, [0.9, 0.3]),
                                    ("plain", [0.9, -0.3]), ("root", [0.0, 1.0])])
    token = normalize(lemma)
    assert token in store.index and normalize(token) != token
    both = {token, "plain"}
    baseline = rank_words(["q"], [NOUN], t, store, k=2, baseline=True, explain=True)[0]
    assert [(c.synset, set(c.provenance)) for c in baseline] == [("R", both)]
    assert extended_pool("q", t, store, NOUN, k=2) == {"R": 2}
    ranked = rank_words(["q"], [NOUN], t, store, k=2, explain=True)[0]
    assert [(c.synset, set(c.provenance)) for c in ranked] == [("R", both)]


@pytest.mark.parametrize("lemma", NOT_IDEMPOTENT)
def test_a_word_is_never_its_own_neighbor(tmp_path, lemma):
    """The search excludes the word's own store token, also where a second ``normalize``
    would change that token."""
    store = loaded_store(tmp_path, [(lemma, [1.0, 0.0]), ("a", [0.9, 0.3]),
                                    ("b", [0.0, 1.0])])
    found = word_neighbors([lemma], store, len(store))[0]
    assert [token for token, _sim in found] == ["a", "b"]


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("method", ["baseline", "ranking", "ranking-wiki"])
def test_explain_sets_provenance_and_nothing_else(seed, method):
    """``explain`` only fills in each candidate's producing neighbors: the synsets and
    the score bits are those of the plain ranking."""
    t, store = random_pool_problem(seed)
    rng = np.random.default_rng(seed)
    words = ["q0", "q1", "q2"]
    lemmas = sorted({lemma for lemmas in t.lemmas.values() for lemma in lemmas})
    wiki = WiktionaryStore({w: WiktionaryEntry(w, hypernyms=list(rng.choice(lemmas, 2)),
                                               synonyms=[str(rng.choice(lemmas))],
                                               definition=" ".join(rng.choice(lemmas, 3)))
                            for w in words[:2]})
    model = LRModel(weights=rng.normal(size=5), bias=0.5, l2_lambda=0.0,
                    feature_means=np.zeros(5), feature_stds=np.ones(5))
    for pos in (NOUN, PartOfSpeech.VERB):
        args = (words, [pos] * len(words), t, store, 3, method == "baseline",
                model if method == "ranking-wiki" else None, wiki)
        plain, explained = rank_words(*args), rank_words(*args, explain=True)
        assert [[(c.synset, c.score.hex()) for c in top] for top in explained] == \
            [[(c.synset, c.score.hex()) for c in top] for top in plain]
        assert all(c.provenance == [] for top in plain for c in top)
        assert all(c.provenance for top in explained for c in top)


def random_problem(rng, n=60, d=5):
    X = rng.normal(size=(n, d))
    y = (rng.random(n) < 0.5).astype(float)
    if y.sum() == 0:
        y[0] = 1.0
    if y.sum() == n:
        y[0] = 0.0
    return X, y


class TestLogisticRegression:
    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(11)
        X, y = random_problem(rng)
        lam = 0.05
        h = 1e-5
        worst = 0.0
        for _ in range(100):
            w = rng.normal(size=5)
            b = float(rng.normal())
            _, grad_w, grad_b = lr_loss_and_gradient(w, b, X, y, lam)
            numeric = np.zeros(6)
            for j in range(5):
                e = np.zeros(5)
                e[j] = h
                lp, _, _ = lr_loss_and_gradient(w + e, b, X, y, lam)
                lm, _, _ = lr_loss_and_gradient(w - e, b, X, y, lam)
                numeric[j] = (lp - lm) / (2 * h)
            lp, _, _ = lr_loss_and_gradient(w, b + h, X, y, lam)
            lm, _, _ = lr_loss_and_gradient(w, b - h, X, y, lam)
            numeric[5] = (lp - lm) / (2 * h)
            analytic = np.append(grad_w, grad_b)
            rel = np.abs(analytic - numeric) / np.maximum(np.abs(numeric), 1e-8)
            worst = max(worst, float(rel.max()))
        assert worst < 1e-6

    def test_two_point_separable_vs_grid_search_oracle(self):
        # one active feature (the score column), symmetric +-1 points
        X = np.zeros((2, 5))
        X[0, 4] = -1.0
        X[1, 4] = 1.0
        y = np.array([0.0, 1.0])
        lam = 0.01
        model = train_lr(X, y, l2_lambda=lam, max_iters=5000, tol=1e-10)
        preds = predict_lr(model, X)
        assert (preds[0] < 0.5) and (preds[1] > 0.5)  # training accuracy 1.0
        # data-term log loss of the trained model
        p = np.array(preds)
        data_loss = float(np.mean(-(y * np.log(p) + (1 - y) * np.log(1 - p))))
        assert data_loss < 0.1
        # independent coarse grid-search oracle over (w5, b)
        best = np.inf
        for w5 in np.linspace(-10, 10, 401):
            for b in np.linspace(-5, 5, 101):
                w = np.zeros(5)
                w[4] = w5
                loss, _, _ = lr_loss_and_gradient(w, b, X / np.where(X.std(0) > 0, X.std(0), 1), y, lam)
                best = min(best, loss)
        assert model.final_loss <= best + 1e-4

    def test_huge_l2_shrinks_weights(self):
        rng = np.random.default_rng(2)
        X, y = random_problem(rng)
        model = train_lr(X, y, l2_lambda=1e6, max_iters=500, tol=1e-12)
        assert np.linalg.norm(model.weights) < 1e-2

    def test_loss_non_increasing(self):
        # re-run the optimizer loop manually and check monotonicity via the
        # recorded final loss against a fresh evaluation of each iterate
        rng = np.random.default_rng(4)
        X, y = random_problem(rng)
        model_short = train_lr(X, y, l2_lambda=0.01, max_iters=3, tol=0)
        model_long = train_lr(X, y, l2_lambda=0.01, max_iters=50, tol=0)
        assert model_long.final_loss <= model_short.final_loss + 1e-12

    def test_separable_reaches_full_accuracy_without_penalty(self):
        rng = np.random.default_rng(6)
        w_true = rng.normal(size=5)
        X = rng.normal(size=(80, 5))
        margin = X @ w_true
        keep = np.abs(margin) > 0.5
        X, y = X[keep], (margin[keep] > 0).astype(float)
        model = train_lr(X, y, l2_lambda=0.0, max_iters=2000, tol=1e-12)
        preds = predict_lr(model, X)
        assert np.all((preds > 0.5) == (y == 1))

    def test_single_class_rejected(self):
        X = np.zeros((3, 5))
        with pytest.raises(ValueError):
            train_lr(X, np.ones(3), l2_lambda=0.1)

    def test_degenerate_feature_weight_frozen(self):
        rng = np.random.default_rng(8)
        X, y = random_problem(rng)
        X[:, 2] = 7.0  # constant feature
        model = train_lr(X, y, l2_lambda=0.01, max_iters=200)
        assert model.weights[2] == 0.0


def standardized_oracle_loss(X, y, l2_lambda):
    """The least training objective an independent optimizer finds: L-BFGS-B with a
    tight tolerance on the same standardized data and objective as ``train_lr``."""
    optimize = pytest.importorskip("scipy.optimize")
    means, stds = X.mean(axis=0), X.std(axis=0)
    Z = (X - means) / np.where(stds > 0, stds, 1.0)
    Z[:, stds == 0] = 0.0

    def objective(params):
        loss, grad_w, grad_b = lr_loss_and_gradient(params[:-1], params[-1], Z, y, l2_lambda)
        return loss, np.append(grad_w, grad_b)

    found = optimize.minimize(objective, np.zeros(X.shape[1] + 1), jac=True,
                              method="L-BFGS-B",
                              options={"gtol": 1e-14, "ftol": 0.0, "maxiter": 20000})
    return float(found.fun)


@st.composite
def lr_problems(draw):
    """(X, y, l2_lambda): scaled random features, some constant, labels that are
    random, imbalanced or linearly separable."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(4, 80))
    X = rng.normal(size=(n, 5)) * 10.0 ** rng.integers(-3, 4, size=5)
    for j in draw(st.sets(st.integers(0, 4), max_size=5)):
        X[:, j] = draw(st.sampled_from([0.0, 7.0, -1e3]))
    labels = draw(st.sampled_from(["random", "imbalanced", "separable"]))
    if labels == "separable":
        y = (X @ rng.normal(size=5) > 0).astype(float)
    else:
        share = 0.5 if labels == "random" else draw(st.sampled_from([0.02, 0.1, 0.9]))
        y = (rng.random(n) < share).astype(float)
    y[0], y[-1] = 1.0, 0.0  # both classes present
    return X, y, draw(st.sampled_from([0.0, 1e-4, 1e-2, 1e6]))


@given(lr_problems())
@settings(max_examples=100, deadline=None)
def test_fit_reaches_the_independent_optimizer_loss(problem):
    X, y, l2_lambda = problem
    model = train_lr(X, y, l2_lambda=l2_lambda, max_iters=100, tol=0.0)
    assert model.final_loss <= standardized_oracle_loss(X, y, l2_lambda) + 1e-12
    assert all(b <= a for a, b in zip(model.loss_history, model.loss_history[1:]))
    assert model.n_iters == len(model.loss_history) - 1


class TestNewtonSteps:
    def test_separable_without_penalty_keeps_descending(self):
        # p(1-p) shrinks toward underflow as the margins grow: H is near singular
        X = np.array([[-2.0, 0, 0, 0, 1], [-1.0, 0, 0, 0, 1], [1.0, 0, 0, 0, 1],
                      [2.0, 0, 0, 0, 1]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        model = train_lr(X, y, l2_lambda=0.0, max_iters=2000, tol=0.0)
        assert all(b <= a for a, b in zip(model.loss_history, model.loss_history[1:]))
        assert model.final_loss < 1e-12
        assert np.all(model.weights[1:] == 0.0)

    @pytest.mark.parametrize("solve", ["raises", "not finite", "ascent"])
    def test_unusable_newton_direction_gives_the_gradient_step(self, monkeypatch, solve):
        X, y = random_problem(np.random.default_rng(3))
        Z = (X - X.mean(axis=0)) / X.std(axis=0)
        _, grad_w, grad_b = lr_loss_and_gradient(np.zeros(5), 0.0, Z, y, 0.01)
        g = np.append(grad_w, grad_b)

        def lstsq(H, rhs, *args, **kwargs):
            if solve == "raises":
                raise np.linalg.LinAlgError("singular matrix")
            return (np.full_like(rhs, np.nan) if solve == "not finite" else -rhs), None, 0, None

        monkeypatch.setattr(np.linalg, "lstsq", lstsq)
        model = train_lr(X, y, l2_lambda=0.01, max_iters=1, tol=0.0)
        step = np.append(model.weights, model.bias)
        assert model.n_iters == 1 and model.loss_history[1] < model.loss_history[0]
        np.testing.assert_allclose(step / np.linalg.norm(step), -g / np.linalg.norm(g),
                                   rtol=1e-12)

    def test_well_conditioned_problem_converges_in_few_iterations(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(4000, 5)) * [1.0, 0.1, 10.0, 3.0, 0.5]
        y = (rng.random(4000) < 1.0 / (1.0 + np.exp(-X @ [0.5, -4.0, 0.05, 0.2, 1.0]))
             ).astype(float)
        model = train_lr(X, y, l2_lambda=1e-4, max_iters=1000, tol=1e-8)
        assert model.final_grad_norm < 1e-8
        assert model.n_iters <= 25


    def test_stops_when_no_step_lowers_the_loss(self):
        # every feature constant: only the bias moves, and near its optimum the
        # Armijo term falls below an ulp of the loss, so equal losses used to pass
        X = np.ones((15, 5))
        y = np.zeros(15)
        y[0] = 1.0
        model = train_lr(X, y, l2_lambda=1e-4, max_iters=1000, tol=1e-13)
        assert model.n_iters <= 20
        assert all(b < a for a, b in zip(model.loss_history, model.loss_history[1:]))
        assert model.final_loss <= 0.24493002679463524  # the 1000-iteration fit's
        # the fit ends on an iteration whose line search accepts no step, which
        # is not counted (7 steps taken, not 8)
        assert model.n_iters == len(model.loss_history) - 1

class TestPredict:
    def unit_model(self, weights=(0, 0, 0, 0, 0), bias=0.0):
        return LRModel(weights=np.array(weights, dtype=float), bias=bias,
                       l2_lambda=0.0, feature_means=np.zeros(5),
                       feature_stds=np.ones(5))

    def test_zero_model_gives_half(self):
        assert predict_lr(self.unit_model(), np.zeros((1, 5))).tolist() == [0.5]

    def test_monotone_in_positive_weight(self):
        model = self.unit_model(weights=(0, 0, 0, 0, 1.0))
        lo, hi = predict_lr(model, np.array([[0, 0, 0, 0, 0.2], [0, 0, 0, 0, 0.9]]))
        assert hi > lo

    def test_open_interval(self):
        model = self.unit_model(weights=(5, -5, 5, -5, 5), bias=3.0)
        for p in predict_lr(model, np.outer([0.0, 1.0, 50.0], np.ones(5))):
            assert 0.0 < p < 1.0

    def test_a_row_scores_the_same_alone_or_in_a_matrix(self):
        rng = np.random.default_rng(3)
        model = self.unit_model(weights=tuple(rng.normal(size=5)), bias=0.3)
        X = rng.normal(size=(40, 5)) * 10.0 ** rng.integers(-3, 4, size=(40, 5))
        together = predict_lr(model, X)
        assert together.shape == (40,)
        assert together.tolist() == [predict_lr(model, X[i:i + 1])[0] for i in range(40)]

    def test_no_rows_give_an_empty_array(self):
        preds = predict_lr(self.unit_model(), np.zeros((0, 5)))
        assert isinstance(preds, np.ndarray) and preds.shape == (0,)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, value):
        X = np.zeros((3, 5))
        X[1, 2] = value
        with pytest.raises(ValueError, match="non-finite"):
            predict_lr(self.unit_model(), X)


class TestRankWithModel:
    def score_only_model(self):
        return LRModel(weights=np.array([0.0, 0.0, 0.0, 0.0, 1.0]), bias=0.0,
                       l2_lambda=0.0, feature_means=np.zeros(5),
                       feature_stds=np.ones(5))

    def test_score_weight_only_matches_rank_by_score(self):
        t = make_taxonomy(TOY_SPEC)
        store = toy_store()
        pool = extended_pool("q", t, store, NOUN, k=2)
        by_score = [c.synset for c in rank_pools(["q"], [pool], t, store, k=10)[0]]
        by_model = [c.synset for c in rank_words(["q"], [NOUN], t, store, 10,
                                                 model=self.score_only_model(),
                                                 wiktionary=WiktionaryStore())[0]]
        assert by_model[:len(by_score)] == by_score

    def test_planted_wiki_feature_dominates(self):
        # only in_hypernyms separates gold from non-gold; a model with all its
        # weight on that feature must put the gold candidate first
        t = make_taxonomy(TOY_SPEC)
        store = toy_store()
        wiki = WiktionaryStore({"q": WiktionaryEntry("q", hypernyms=["g"])})
        model = LRModel(weights=np.array([10.0, 0.0, 0.0, 0.0, 0.0]), bias=0.0,
                        l2_lambda=0.0, feature_means=np.zeros(5),
                        feature_stds=np.ones(5))
        ranked = rank_words(["q"], [NOUN], t, store, 10, model=model, wiktionary=wiki)[0]
        assert ranked[0].synset == "G"
        pool = extended_pool("q", t, store, NOUN, k=2)
        f = pool_features("q", ["G"], pool, t, store, wiki)
        assert ranked[0].score == pytest.approx(predict_lr(model, f)[0])


class TestModelFile:
    def test_roundtrip(self, tmp_path):
        model = LRModel(weights=np.array([0.1, -0.2, 0.3, 0.0, 1.5]), bias=-0.7,
                        l2_lambda=0.01,
                        feature_means=np.array([0.0, 0.1, 0.2, 0.3, 0.4]),
                        feature_stds=np.array([1.0, 1.0, 0.0, 2.0, 3.0]))
        path = tmp_path / "model.txt"
        save_model(model, path)
        loaded = load_model(path)
        assert np.array_equal(loaded.weights, model.weights)
        assert loaded.bias == model.bias
        assert loaded.l2_lambda == model.l2_lambda
        assert np.array_equal(loaded.feature_means, model.feature_means)
        assert np.array_equal(loaded.feature_stds, model.feature_stds)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("something else\n1\n2\n3\n4\n")
        with pytest.raises(ValueError):
            load_model(path)


class TestModelValidation:
    VALID = ["lr-model v1", "0.01", "0.1 -0.2 0.3 0.0 1.5 -0.7",
             "0.0 0.1 0.2 0.3 0.4", "1.0 1.0 0.0 2.0 3.0"]

    @pytest.mark.parametrize("line, column, value", [
        (2, 0, "nan"),    # weight
        (2, 5, "inf"),    # bias
        (3, 1, "nan"),    # mean
        (4, 3, "-inf"),   # deviation
        (4, 4, "-1.0"),   # negative deviation
    ])
    def test_non_finite_or_negative_values_rejected(self, tmp_path, line, column, value):
        lines = list(self.VALID)
        fields = lines[line].split()
        fields[column] = value
        lines[line] = " ".join(fields)
        path = tmp_path / "model.txt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="model.txt"):
            load_model(path)

    @pytest.mark.parametrize("extra", ["\n".join(VALID), "", "0.5"],
                             ids=["second model", "blank line", "one value"])
    def test_a_sixth_line_is_an_input_error_naming_it(self, tmp_path, extra):
        """A model file is exactly five lines: a second model appended after the first,
        or any other line, is not read past."""
        path = tmp_path / "model.txt"
        path.write_text("\n".join(self.VALID) + "\n" + extra + "\n")
        with pytest.raises(InputError, match=r"model\.txt:6: "):
            load_model(path)

    def test_valid_model_loads(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("\n".join(self.VALID) + "\n")
        assert load_model(path).bias == -0.7

    def test_five_lines_without_a_final_newline_load(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("\n".join(self.VALID))
        assert load_model(path).bias == -0.7

    def test_fewer_than_five_lines_is_not_a_model_file(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("\n".join(self.VALID[:4]) + "\n")
        with pytest.raises(InputError, match=r"model\.txt: not a 'lr-model v1' file$"):
            load_model(path)


# ---------------------------------------------------------------------------
# One scoring pass per command: what predict and train write equals the
# per-word public functions, pair for pair
# ---------------------------------------------------------------------------

def predict_argv(paths, method, out, *extra):
    argv = ["predict", "--method", method, "--k", "10", "--old-taxonomy", str(paths["taxonomy"]),
            "--embeddings", str(paths["embeddings"]), "--dataset", str(paths["dataset"]),
            "--predictions", str(out), *extra]
    if method == "ranking-wiki":
        argv += ["--model", str(paths["model"]), "--wiktionary", str(paths["wiki"])]
    return argv


@pytest.mark.parametrize("method", ["baseline", "ranking", "ranking-wiki"])
def test_predict_writes_what_the_per_word_functions_give(tmp_path, method):
    """Every pool is scored in one pass; the file must equal scoring each word alone, its
    neighbors searched for alone. A word with no vector ranks as None and an entry with an
    empty pool as []: both go to the sidecar."""
    from taxoenrich import cli, diachronic
    from taxoenrich.diachronic import read_dataset
    from taxoenrich.embeddings import load_embeddings
    from taxoenrich.taxonomy import load_taxonomy
    from taxoenrich.wiktionary import load_wiktionary
    from test_scoring import seeded_corpus
    paths, orphans, model = seeded_corpus(tmp_path)
    # the corpus has no verb synsets: a verb entry of a noun orphan has an empty pool
    paths["dataset"].write_text(paths["dataset"].read_text() + "zzzunknown\tn\tR0\n"
                                + f"{orphans[3]}\tv\tR0\n")
    out = tmp_path / "preds.tsv"
    assert cli.main(predict_argv(paths, method, out, "--explain")) == 0

    taxonomy, store = load_taxonomy(paths["taxonomy"]), load_embeddings(paths["embeddings"])
    wiki = load_wiktionary(paths["wiki"])
    dataset = read_dataset(paths["dataset"])
    ranked = rank_words([e.word for e in dataset], [e.pos for e in dataset], taxonomy, store,
                        10, method == "baseline", model if method == "ranking-wiki" else None,
                        wiki)
    assert [e.word for e, top in zip(dataset, ranked) if top is None] == ["zzzunknown"]
    assert [(e.word, e.pos) for e, top in zip(dataset, ranked) if top == []] == \
        [(orphans[3], PartOfSpeech.VERB)]
    expected = tmp_path / "expected.tsv"
    diachronic.write_predictions(
        {(w, NOUN): rank_words([w], [NOUN], taxonomy, store, 10, method == "baseline",
                               model if method == "ranking-wiki" else None, wiki,
                               explain=True)[0]
         for w in orphans}, expected, explain=True)
    assert out.read_bytes() == expected.read_bytes()
    assert len(out.read_text().splitlines()) > 5 * len(orphans)
    assert (tmp_path / "preds.tsv.oov.txt").read_text() == f"{orphans[3]}\nzzzunknown\n"


@pytest.mark.parametrize("method", ["baseline", "ranking", "ranking-wiki"])
def test_explain_appends_provenance_to_the_plain_predictions(tmp_path, method):
    """``predict --explain`` writes the rows of plain ``predict``, each with a sixth
    column: the producing neighbors."""
    from taxoenrich import cli
    from test_scoring import seeded_corpus
    paths, _orphans, _model = seeded_corpus(tmp_path)
    plain, explained = tmp_path / "plain.tsv", tmp_path / "explained.tsv"
    assert cli.main(predict_argv(paths, method, plain)) == 0
    assert cli.main(predict_argv(paths, method, explained, "--explain")) == 0
    rows = [line.split("\t") for line in explained.read_text().splitlines()]
    assert rows and all(len(row) == 6 and row[5] for row in rows)
    assert "".join("\t".join(row[:5]) + "\n" for row in rows) == plain.read_text()


def test_train_matrix_equals_per_pair_features_with_both_parts_of_speech(tmp_path, monkeypatch):
    """Pairs of both parts of speech, some words a noun and a verb at once, go into one
    matrix in one pass; each row equals ``pair_features`` of its pair alone, from the
    pool of its word and part of speech."""
    import json
    from taxoenrich import cli, ranking
    from taxoenrich.embeddings import load_embeddings
    from taxoenrich.taxonomy import load_taxonomy
    from taxoenrich.wiktionary import load_wiktionary
    from test_scoring import seeded_corpus
    paths, _orphans, _model = seeded_corpus(tmp_path)
    verbs = [{"id": f"VR{i}", "pos": "v", "lemmas": [f"root{i}", f"poly{i}"], "hypernyms": []}
             for i in range(4)]
    verbs += [{"id": f"VL{i}_{m}", "pos": "v", "lemmas": [f"leaf{i}_{m}_0"],
               "hypernyms": [f"VR{i}"]} for i in range(4) for m in range(3)]
    with open(paths["taxonomy"], "a") as fh:
        fh.writelines(json.dumps(v) + "\n" for v in verbs)
    seen = {}
    train_lr = ranking.train_lr

    def capturing_train_lr(X, y, **kwargs):
        seen["X"] = X
        return train_lr(X, y, **kwargs)

    monkeypatch.setattr(ranking, "train_lr", capturing_train_lr)
    assert cli.main(["train", "--old-taxonomy", str(paths["taxonomy"]),
                     "--embeddings", str(paths["embeddings"]), "--wiktionary", str(paths["wiki"]),
                     "--pos", "both", "--k", "10", "--model", str(tmp_path / "m.txt")]) == 0
    taxonomy, store = load_taxonomy(paths["taxonomy"]), load_embeddings(paths["embeddings"])
    wiki = load_wiktionary(paths["wiki"])
    pairs, pos_of = [], []
    for pos in (NOUN, PartOfSpeech.VERB):
        pairs += ranking.build_training_pairs(taxonomy, store, pos, k=10)[0]
        pos_of += [pos] * (len(pairs) - len(pos_of))
    assert len(pairs) == len(pos_of) == len(seen["X"])
    assert PartOfSpeech.VERB in pos_of
    both = {p.word for p, pos in zip(pairs, pos_of) if pos == NOUN} & \
        {p.word for p, pos in zip(pairs, pos_of) if pos != NOUN}
    assert both
    for row, pair, pos in zip(seen["X"], pairs, pos_of):
        pool = extended_pool(pair.word, taxonomy, store, pos, k=10)
        expected = pool_features(pair.word, [pair.candidate], pool, taxonomy, store, wiki)[0]
        assert np.array_equal(row, expected), (pair.word, pair.candidate, pos)


def test_average_hypernym_cosine_sums_left_to_right_from_0():
    """The average cosine of a pair is its cosines' sum, left to right from 0 in the
    entry's hypernym order, over their count, taken place by place across all pairs at
    once; the same on every interpreter, where the built-in ``sum`` is not."""
    from taxoenrich.embeddings import distinct_rows, vector_table
    from taxoenrich.wiktionary import wiki_feature_rows
    from conftest import lemmas_vector
    rng = np.random.default_rng(9)
    tokens = {f"h{i}": rng.normal(size=3) * 10.0 ** rng.integers(-3, 4) for i in range(12)}
    tokens.update(near=tokens["h0"] * -1.0000001, far=rng.normal(size=3))
    store = make_store(3, tokens)
    entries = {f"w{j}": WiktionaryEntry(f"w{j}", [str(h) for h in rng.choice(
        list(tokens), size=int(rng.integers(0, 9)))] + ["unknown"]) for j in range(30)}
    wiki = WiktionaryStore(entries)
    synsets = [(t,) for t in tokens] + [("nothing",)]
    centroids = vector_table([lemmas_vector(store, s) for s in synsets], 3)
    words = [f"w{j}" for j in rng.integers(0, 32, size=400)]  # w30, w31: no entry
    rows = rng.integers(0, len(synsets), size=400)
    got = wiki_feature_rows(wiki, store, *distinct_rows(words), synsets, centroids, rows)[:, 3]
    differs = 0
    for value, word, row in zip(got, words, rows):
        vec = lemmas_vector(store, synsets[row])
        hyps = [store.matrix[store.index[h]] for h in (entries[word].hypernyms
                                                       if word in entries else [])
                if h in store.index]
        cosines = [0.0 if vec is None else cosine(vec, h) for h in hyps]
        assert value == naive_sum(cosines) / (len(cosines) or 1), (word, row)
        differs += naive_sum(cosines) != neumaier_sum(cosines)
    assert differs > 0  # the two sums are told apart here


def test_predict_and_train_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    import os
    import subprocess
    import sys
    from pathlib import Path

    import taxoenrich
    from test_scoring import seeded_corpus
    paths, _orphans, _model = seeded_corpus(tmp_path)
    src = str(Path(taxoenrich.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        model, preds = tmp_path / f"model{threads}.txt", tmp_path / f"preds{threads}.tsv"
        for argv in (["train", "--old-taxonomy", str(paths["taxonomy"]), "--embeddings",
                      str(paths["embeddings"]), "--wiktionary", str(paths["wiki"]),
                      "--model", str(model)],
                     predict_argv({**paths, "model": model}, "ranking-wiki", preds)):
            subprocess.run([sys.executable, "-m", "taxoenrich.cli", *argv], env=env, check=True,
                           capture_output=True)
        outputs.append((model.read_bytes(), preds.read_bytes()))
    assert outputs[0] == outputs[1]
