import numpy as np
import pytest

from taxoenrich.embeddings import EmbeddingStore
from taxoenrich.ranking import (
    LRModel,
    OovWordError,
    assemble_features,
    candidates_baseline,
    candidates_extended,
    load_model,
    lr_loss_and_gradient,
    predict_lr,
    rank_by_score,
    rank_with_model,
    save_model,
    train_lr,
)
from taxoenrich.taxonomy import PartOfSpeech
from taxoenrich.wiktionary import WiktionaryEntry, WiktionaryStore

from conftest import make_taxonomy

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
    return EmbeddingStore(2, {
        "q": np.array([1.0, 0.0]),
        "w1": np.array([0.95, 0.1]),
        "w2": np.array([0.8, 0.3]),
        "h1": np.array([0.7, 0.7]),
        "h2": np.array([0.1, 0.9]),
        "g": np.array([0.0, 1.0]),
    })


class TestCandidatesBaseline:
    def test_hand_trace(self):
        t = make_taxonomy(TOY_SPEC)
        result = candidates_baseline("q", t, toy_store(), NOUN, k=2)
        assert [c.synset for c in result] == ["H1", "H2"]
        assert result[0].provenance == ["w1", "w2"]
        assert result[1].provenance == ["w2"]

    def test_no_in_taxonomy_neighbors(self):
        t = make_taxonomy({"X": ("n", ["unrelated"], [])})
        store = EmbeddingStore(2, {"q": np.array([1.0, 0.0]),
                                   "zzz": np.array([0.9, 0.1])})
        assert candidates_baseline("q", t, store, NOUN, k=5) == []

    def test_k1_truncation(self):
        t = make_taxonomy(TOY_SPEC)
        result = candidates_baseline("q", t, toy_store(), NOUN, k=1)
        assert len(result) <= 1
        assert result[0].synset == "H1"

    def test_oov_orphan_raises(self):
        t = make_taxonomy(TOY_SPEC)
        with pytest.raises(OovWordError):
            candidates_baseline("unknownword", t, toy_store(), NOUN)

    def test_baseline_subset_of_extended_pool(self):
        t = make_taxonomy(TOY_SPEC)
        base = candidates_baseline("q", t, toy_store(), NOUN, k=2)
        pool = candidates_extended("q", t, toy_store(), NOUN, k=2)
        assert {c.synset for c in base} <= set(pool)


class TestCandidatesExtended:
    def test_hand_trace_multiplicities(self):
        t = make_taxonomy(TOY_SPEC)
        pool = candidates_extended("q", t, toy_store(), NOUN, k=2)
        assert set(pool) == {"H1", "H2", "G"}
        assert pool["H1"].occurrences == 2   # reached from both w1 and w2
        assert pool["H2"].occurrences == 1
        assert pool["G"].occurrences == 1    # second-order via H1

    def test_neighbor_without_synsets_contributes_nothing(self):
        t = make_taxonomy(TOY_SPEC)
        base = toy_store()
        store = EmbeddingStore(2, {**dict(zip(base.index, base.matrix)),
                                   "stray": np.array([0.99, 0.01])})
        pool = candidates_extended("q", t, store, NOUN, k=3)
        assert set(pool) == {"H1", "H2", "G"}


class TestRankByScore:
    def test_score_formula(self):
        t = make_taxonomy(TOY_SPEC)
        pool = candidates_extended("q", t, toy_store(), NOUN, k=2)
        ranked = rank_by_score("q", pool, t, toy_store(), k=10)
        for cand in ranked:
            assert cand.score == pytest.approx(cand.occurrences * cand.similarity)

    def test_multiplicity_beats_similarity(self):
        # (n=2, sim=0.5) outranks (n=1, sim=0.9)
        t = make_taxonomy({"X": ("n", ["x"], []), "Y": ("n", ["y"], [])})
        store = EmbeddingStore(2, {"q": np.array([1.0, 0.0]),
                                   "x": np.array([0.5, np.sqrt(0.75)]),
                                   "y": np.array([0.9, np.sqrt(1 - 0.81)])})
        from taxoenrich.ranking import ScoredCandidate
        pool = {"X": ScoredCandidate(synset="X", occurrences=2),
                "Y": ScoredCandidate(synset="Y", occurrences=1)}
        ranked = rank_by_score("q", pool, t, store, k=2)
        assert [c.synset for c in ranked] == ["X", "Y"]
        assert ranked[0].score == pytest.approx(1.0, abs=1e-9)
        assert ranked[1].score == pytest.approx(0.9, abs=1e-9)

    def test_equal_sims_order_by_occurrences(self):
        t = make_taxonomy({"X": ("n", ["x"], []), "Y": ("n", ["y"], [])})
        store = EmbeddingStore(2, {"q": np.array([1.0, 0.0]),
                                   "x": np.array([2.0, 0.0]),
                                   "y": np.array([3.0, 0.0])})
        from taxoenrich.ranking import ScoredCandidate
        pool = {"X": ScoredCandidate(synset="X", occurrences=1),
                "Y": ScoredCandidate(synset="Y", occurrences=3)}
        ranked = rank_by_score("q", pool, t, store, k=2)
        assert [c.synset for c in ranked] == ["Y", "X"]

    def test_unresolvable_synset_scored_zero(self):
        t = make_taxonomy({"X": ("n", ["oovlemma"], [])})
        store = EmbeddingStore(2, {"q": np.array([1.0, 0.0])})
        from taxoenrich.ranking import ScoredCandidate
        pool = {"X": ScoredCandidate(synset="X", occurrences=3)}
        ranked = rank_by_score("q", pool, t, store, k=1)
        assert ranked[0].score == 0.0

    def test_input_order_invariance(self):
        t = make_taxonomy(TOY_SPEC)
        pool = candidates_extended("q", t, toy_store(), NOUN, k=2)
        reversed_pool = dict(reversed(list(pool.items())))
        a = [c.synset for c in rank_by_score("q", pool, t, toy_store(), k=10)]
        b = [c.synset for c in rank_by_score("q", reversed_pool, t, toy_store(), k=10)]
        assert a == b

    def test_common_vector_scaling_preserves_order(self):
        t = make_taxonomy(TOY_SPEC)
        store = toy_store()
        scaled = EmbeddingStore(2, {tok: 3.7 * vec for tok, vec in zip(store.index, store.matrix)})
        pool_a = candidates_extended("q", t, store, NOUN, k=2)
        pool_b = candidates_extended("q", t, scaled, NOUN, k=2)
        a = [c.synset for c in rank_by_score("q", pool_a, t, store, k=10)]
        b = [c.synset for c in rank_by_score("q", pool_b, t, scaled, k=10)]
        assert a == b


class TestFeatures:
    def test_empty_wiktionary_gives_score_only(self):
        t = make_taxonomy(TOY_SPEC)
        pool = candidates_extended("q", t, toy_store(), NOUN, k=2)
        f = assemble_features("q", "H1", pool, t, toy_store(), WiktionaryStore())
        assert list(f[:4]) == [0.0, 0.0, 0.0, 0.0]
        assert f[4] != 0.0

    def test_wiki_hypernym_hit(self):
        t = make_taxonomy(TOY_SPEC)
        pool = candidates_extended("q", t, toy_store(), NOUN, k=2)
        wiki = WiktionaryStore({"q": WiktionaryEntry("q", hypernyms=["h1"])})
        f = assemble_features("q", "H1", pool, t, toy_store(), wiki)
        assert f[0] == 1.0

    def test_candidate_must_be_in_pool(self):
        t = make_taxonomy(TOY_SPEC)
        pool = candidates_extended("q", t, toy_store(), NOUN, k=2)
        with pytest.raises(ValueError):
            assemble_features("q", "S1", pool, t, toy_store(), WiktionaryStore())

    def test_purity(self):
        t = make_taxonomy(TOY_SPEC)
        pool = candidates_extended("q", t, toy_store(), NOUN, k=2)
        a = assemble_features("q", "G", pool, t, toy_store(), WiktionaryStore())
        b = assemble_features("q", "G", pool, t, toy_store(), WiktionaryStore())
        assert np.array_equal(a, b)


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
        preds = [predict_lr(model, x) for x in X]
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
        preds = np.array([predict_lr(model, x) for x in X])
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


class TestPredict:
    def unit_model(self, weights=(0, 0, 0, 0, 0), bias=0.0):
        return LRModel(weights=np.array(weights, dtype=float), bias=bias,
                       l2_lambda=0.0, feature_means=np.zeros(5),
                       feature_stds=np.ones(5))

    def test_zero_model_gives_half(self):
        assert predict_lr(self.unit_model(), np.zeros(5)) == 0.5

    def test_monotone_in_positive_weight(self):
        model = self.unit_model(weights=(0, 0, 0, 0, 1.0))
        lo = predict_lr(model, np.array([0, 0, 0, 0, 0.2]))
        hi = predict_lr(model, np.array([0, 0, 0, 0, 0.9]))
        assert hi > lo

    def test_open_interval(self):
        model = self.unit_model(weights=(5, -5, 5, -5, 5), bias=3.0)
        for scale in (0.0, 1.0, 50.0):
            p = predict_lr(model, scale * np.ones(5))
            assert 0.0 < p < 1.0


class TestRankWithModel:
    def score_only_model(self):
        return LRModel(weights=np.array([0.0, 0.0, 0.0, 0.0, 1.0]), bias=0.0,
                       l2_lambda=0.0, feature_means=np.zeros(5),
                       feature_stds=np.ones(5))

    def test_score_weight_only_matches_rank_by_score(self):
        t = make_taxonomy(TOY_SPEC)
        store = toy_store()
        pool = candidates_extended("q", t, store, NOUN, k=2)
        by_score = [c.synset for c in rank_by_score("q", pool, t, store, k=10)]
        by_model = [c.synset for c in
                    rank_with_model("q", self.score_only_model(), t, store,
                                    WiktionaryStore(), NOUN, k=10)]
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
        ranked = rank_with_model("q", model, t, store, wiki, NOUN, k=10)
        assert ranked[0].synset == "G"
        pool = candidates_extended("q", t, store, NOUN, k=2)
        f = assemble_features("q", "G", pool, t, store, wiki)
        assert ranked[0].score == pytest.approx(predict_lr(model, f))


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

    def test_valid_model_loads(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("\n".join(self.VALID) + "\n")
        assert load_model(path).bias == -0.7
