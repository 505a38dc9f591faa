"""Hypernym candidate generation and ranking.

Three rankers over an orphan word:

* baseline: hypernym synsets of the word's embedding nearest neighbors,
  ordered by the rank of the earliest neighbor that produced them;
* weighted similarity: the candidate pool extended with second-order
  hypernyms, each candidate scored occurrences * cosine(orphan, synset);
* model: a logistic regression with L2 regularization over five features
  (four Wiktionary features plus the weighted-similarity score), trained
  from scratch by damped Newton steps with backtracking line search, on
  labeled pairs sampled from each leaf lemma's candidate pool.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, islice
from pathlib import Path
from typing import Optional

import numpy as np

# perfbench/run.py reads predictions as ranking.read_predictions, so it stays importable here
from .diachronic import TrainingPair, read_predictions  # noqa: F401
from .embeddings import (EmbeddingStore, batch_nearest_neighbors, centroid_table, distinct_rows,
                         pair_cosines, vector_table, word_vector)
from .fileio import InputError, atomic_write, numbered_lines
from .taxonomy import PartOfSpeech, Taxonomy
from .textnorm import normalize
from .wiktionary import WiktionaryStore, wiki_feature_rows

N_FEATURES = 5


@dataclass
class ScoredCandidate:
    synset: str
    score: float = 0.0
    provenance: list[str] = field(default_factory=list)


Neighbors = list[tuple[str, float]]


def word_neighbors(words: list[str], embeddings: EmbeddingStore,
                   k: int) -> list[Optional[Neighbors]]:
    """Each word's k nearest neighbors (its own store token excluded), found in one batched
    search that queries each distinct word once; None for a word with no embedding vector.
    Entries of one word share its list."""
    vectors = {word: word_vector(embeddings, word) for word in words}
    known = [word for word, vec in vectors.items() if vec is not None]
    queries = np.array([vectors[word] for word in known]).reshape(len(known), embeddings.dim)
    found = dict(zip(known, batch_nearest_neighbors(embeddings, queries, k,
                                                    [{normalize(word)} for word in known])))
    return [found.get(word) for word in words]


def _pool(taxonomy: Taxonomy, pos: PartOfSpeech, neighbors: Neighbors) -> Counter[str]:
    """A word's extended pool, candidate -> occurrences in order of first appearance: one
    per path neighbor -> its ``pos`` synset (the neighbor's store token read in
    ``Taxonomy.lemma_index`` as it is) -> a ``Taxonomy.hypernym_runs`` entry, then one per
    path through the run of each distinct first-order candidate."""
    senses, runs = taxonomy.lemma_index[pos], taxonomy.hypernym_runs[pos]
    pool = Counter(chain.from_iterable(runs[sid] for token, _sim in neighbors
                                       for sid in senses.get(token, ())))
    pool.update(chain.from_iterable(map(runs.__getitem__, list(pool))))
    return pool


def _provenance(taxonomy: Taxonomy, pos: PartOfSpeech, neighbors: Neighbors,
                extended: bool) -> dict[str, list[str]]:
    """Each candidate of a word's pool (first-order only unless ``extended``), in ``_pool``'s
    order, -> its producing neighbors in order; an extension path is credited to its
    first-order candidate's first producing neighbor."""
    senses, runs, provenance = taxonomy.lemma_index[pos], taxonomy.hypernym_runs[pos], {}

    def credit(run, token):
        for cand in run:
            tokens = provenance.setdefault(cand, [])
            if token not in tokens:
                tokens.append(token)
    for token, _sim in neighbors:
        for sid in senses.get(token, ()):
            credit(runs[sid], token)
    for cand, tokens in list(provenance.items()) if extended else ():
        credit(runs[cand], tokens[0])
    return provenance


def rank_words(words: list[str], parts_of_speech: list[PartOfSpeech], taxonomy: Taxonomy,
               embeddings: EmbeddingStore, k: int = 10, baseline: bool = False,
               model: Optional[LRModel] = None, wiktionary: Optional[WiktionaryStore] = None,
               explain: bool = False) -> list[Optional[list[ScoredCandidate]]]:
    """Each word's top k, aligned with ``words``: None for a word with no vector. All
    neighbors come from one batched search. With ``baseline`` the first-order pool is
    ordered by the rank of the earliest producing neighbor, cosine(orphan, synset vector)
    descending, then synset id; else the extended pool is ranked by ``rank_pools``. All
    pools are built and then scored in one pass. With ``explain`` each candidate's
    ``provenance`` is set, else it is left empty."""
    found = word_neighbors(words, embeddings, k)
    known = [entry for entry in zip(words, parts_of_speech, found) if entry[2] is not None]
    if baseline:
        ranked = _rank_baseline(known, taxonomy, embeddings, k, explain)
    else:
        ranked = rank_pools([word for word, _, _ in known],
                            [_pool(taxonomy, pos, neighbors) for _, pos, neighbors in known],
                            taxonomy, embeddings, k, model, wiktionary)
        for (_, pos, neighbors), top in zip(known, ranked) if explain else ():
            provenance = _provenance(taxonomy, pos, neighbors, extended=True)
            for cand in top:
                cand.provenance = provenance[cand.synset]
    tops = iter(ranked)
    return [None if neighbors is None else next(tops) for neighbors in found]


def _rank_baseline(entries: list[tuple[str, PartOfSpeech, Neighbors]], taxonomy: Taxonomy,
                   embeddings: EmbeddingStore, k: int,
                   explain: bool) -> list[list[ScoredCandidate]]:
    """The baseline order of each entry's first-order pool, all cosines in one pass."""
    pools = [_provenance(taxonomy, pos, neighbors, extended=False)
             for _, pos, neighbors in entries]
    flat = [(word, cand) for (word, _, _), pool in zip(entries, pools) for cand in pool]
    sims = iter(pair_features(*distinct_rows([word for word, _ in flat]),
                              *distinct_rows([cand for _, cand in flat]), np.ones(len(flat)),
                              taxonomy, embeddings)[:, 4].tolist())
    ranked = []
    for (_, _, found), pool in zip(entries, pools):
        rank = {token: i for i, (token, _sim) in enumerate(found)}  # distinct tokens
        sim = {cand: next(sims) for cand in pool}
        ordered = sorted(pool, key=lambda c: (rank[pool[c][0]], -sim[c], c))
        ranked.append([ScoredCandidate(c, sim[c], pool[c] if explain else []) for c in ordered[:k]])
    return ranked


def rank_pools(words: list[str], pools: list[Counter[str]], taxonomy: Taxonomy,
               embeddings: EmbeddingStore, k: int = 10, model: Optional[LRModel] = None,
               wiktionary: Optional[WiktionaryStore] = None) -> list[list[ScoredCandidate]]:
    """Each word's pool (candidate -> occurrences) ranked and its top k kept, ties broken
    by synset id: by occurrences * cosine(orphan, synset vector), or by ``model``'s
    probability over the five features (with ``wiktionary``). All pools are featurized
    and scored in one pass. One sort of the int64 (pool, rank of -score, rank of id),
    below 2^63 up to 10^5 pools of 10^7 pairs over 10^5 synsets, then gives each pool the
    order of Python's sorted (-score, id) tuples, a dense rank in which -0.0 and 0.0 tie."""
    sizes = np.fromiter(map(len, pools), np.intp, len(pools))
    words, word_rows = distinct_rows(words)
    candidates, rows = distinct_rows(list(chain.from_iterable(pools)))
    occurrences = np.fromiter(chain.from_iterable(map(Counter.values, pools)), float, len(rows))
    X = pair_features(words, np.repeat(word_rows, sizes), candidates, rows, occurrences,
                      taxonomy, embeddings, None if model is None else wiktionary)
    negated = -(X[:, 4] if model is None else predict_lr(model, X))
    ranked, score_rank = negated[by_score := np.argsort(negated)], np.empty(len(rows), np.int64)
    score_rank[by_score] = np.cumsum(np.diff(ranked, prepend=ranked[:1]) != 0)
    id_rank = np.argsort(sorted(range(len(candidates)), key=candidates.__getitem__))
    key = (np.repeat(np.arange(len(pools)), sizes) * (len(rows) + 1) + score_rank) * len(candidates)
    order = np.argsort(key + id_rank[rows])  # distinct keys: any sort gives their one order
    kept = order[np.arange(len(rows)) - np.repeat(np.cumsum(sizes) - sizes, sizes) < k]
    found = map(ScoredCandidate, map(candidates.__getitem__, rows[kept].tolist()),
                (-negated[kept]).tolist())
    return [list(islice(found, n)) for n in np.minimum(sizes, k).tolist()]


def pair_features(words: list[str], word_rows, candidates: list[str], candidate_rows,
                  occurrences, taxonomy: Taxonomy, embeddings: EmbeddingStore,
                  wiktionary: Optional[WiktionaryStore] = None) -> np.ndarray:
    """The (n, 5) features of the n (``words[word_rows[t]]``, ``candidates[candidate_rows[t]]``)
    pairs, both row arrays ``np.intp``, in one pass: the four Wiktionary features (0 without
    ``wiktionary``), then the pair's ``occurrences`` in its pool (0 outside it) times
    cosine(orphan, synset vector). Each of the distinct ``candidates``' centroids
    (``centroid_table``) and each of the distinct ``words``' vectors go once into a table
    that every pair's cosine reads; one with no vector is a zero row, of cosine 0 (the
    commands pass only words with a vector)."""
    synsets = [taxonomy.lemmas[cand] for cand in candidates]
    centroids = centroid_table(embeddings, synsets)
    X = np.zeros((len(candidate_rows), N_FEATURES))
    if wiktionary is not None:
        X[:, :4] = wiki_feature_rows(wiktionary, embeddings, words, word_rows, synsets, centroids,
                                     candidate_rows)
    occurrences = np.asarray(occurrences, dtype=np.float64)
    scored = np.flatnonzero(occurrences)
    vectors = vector_table([word_vector(embeddings, word) for word in words], embeddings.dim)
    X[scored, 4] = occurrences[scored] * pair_cosines(vectors, centroids, word_rows[scored],
                                                      candidate_rows[scored])
    return X


def build_training_pairs(old: Taxonomy, store: EmbeddingStore, pos: PartOfSpeech,
                         negatives_per_positive: int = 1, seed: int = 0, k: int = 10,
                         ) -> tuple[list[TrainingPair], list[int], dict]:
    """Labeled word-candidate pairs from the leaf synsets of one taxonomy, each pair's
    occurrences in its word's extended pool (0 outside it), and a summary.

    Positives pair each leaf-synset lemma with its direct and second-order
    hypernym synsets. Negatives are drawn (seeded) from the lemma's own
    generated candidate pool minus its gold set, falling back to uniform
    random non-gold synsets of the same pos. Lemmas with no embedding vector
    are skipped and tallied in the summary. The neighbors of all words come
    from one batched search; each word's pool is dropped once its pairs are drawn.
    """
    if negatives_per_positive < 1:
        raise ValueError("negatives_per_positive must be >= 1")
    rng = random.Random(seed)

    # First pass: collect all positives per word, in order of first sight, so negatives
    # never collide.
    gold_by_word: dict[str, dict[str, None]] = {}
    skipped_oov = 0
    for sid in sorted(old.leaf_synsets(pos)):
        gold = set(old.direct_hypernyms(sid)) | set(old.second_order_hypernyms(sid))
        if not gold:
            continue
        for word in old.lemmas[sid]:
            if word_vector(store, word) is None:
                skipped_oov += 1
                continue
            gold_by_word.setdefault(word, {}).update(dict.fromkeys(sorted(gold)))

    all_pos_synsets = sorted(old.ids[pos])
    pairs: list[TrainingPair] = []
    occurrences: list[int] = []
    words = sorted(gold_by_word)
    for word, neighbors in zip(words, word_neighbors(words, store, k)):
        gold = gold_by_word[word]
        pool = _pool(old, pos, neighbors)
        candidates = sorted(pool.keys() - gold)  # drawn from without replacement
        fallback = True  # the uniform non-gold synsets of pos are not yet drawn from
        for h in gold:
            pairs.append(TrainingPair(word=word, candidate=h, label=1))
            occurrences.append(pool[h])
            for _ in range(negatives_per_positive):
                if not candidates and fallback:
                    candidates = [s for s in all_pos_synsets if s not in gold and s not in pool]
                    fallback = False
                if not candidates:
                    break
                # randrange(n) is one _randbelow(n), the draw rng.choice makes
                neg = candidates.pop(rng.randrange(len(candidates)))
                pairs.append(TrainingPair(word=word, candidate=neg, label=0))
                occurrences.append(pool[neg])
    n_pos = sum(pair.label for pair in pairs)
    return pairs, occurrences, {"positives": n_pos, "negatives": len(pairs) - n_pos,
                                "skipped_oov_lemmas": skipped_oov}


# ---------------------------------------------------------------------------
# Logistic regression with L2 regularization, trained from scratch
# ---------------------------------------------------------------------------

@dataclass
class LRModel:
    weights: np.ndarray          # shape (5,)
    bias: float
    l2_lambda: float
    feature_means: np.ndarray    # shape (5,)
    feature_stds: np.ndarray     # shape (5,); 0 marks a degenerate feature
    final_loss: float = 0.0
    final_grad_norm: float = 0.0
    n_iters: int = 0             # accepted steps
    loss_history: list = field(default_factory=list)  # initial loss, then after each accepted step


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def lr_loss_and_gradient(weights: np.ndarray, bias: float, X: np.ndarray,
                         y: np.ndarray, l2_lambda: float):
    """Mean log-loss plus l2_lambda * ||weights||^2 (bias unpenalized),
    with its analytic gradient."""
    z = X @ weights + bias
    # log(1 + e^z) - y*z, computed stably
    loss = float(np.mean(np.logaddexp(0.0, z) - y * z)) + l2_lambda * float(weights @ weights)
    p = _sigmoid(z)
    residual = p - y
    grad_w = X.T @ residual / len(y) + 2.0 * l2_lambda * weights
    grad_b = float(np.mean(residual))
    return loss, grad_w, grad_b


def _standardize(X: np.ndarray, means: np.ndarray, stds: np.ndarray) -> np.ndarray:
    """Rows of X standardized; a feature with deviation 0 becomes 0."""
    Z = (X - means) / np.where(stds > 0, stds, 1.0)
    Z[:, stds == 0] = 0.0
    return Z


def train_lr(X, y, l2_lambda: float = 1e-4, max_iters: int = 1000,
             tol: float = 1e-8) -> LRModel:
    """Damped Newton steps with backtracking (Armijo) line search.

    Each iteration solves ``H d = g`` over the live coordinates: the features
    with nonzero deviation, plus the bias. Here
    ``H = A^T diag(p(1-p)) A / n + diag(2 l2_lambda, ..., 2 l2_lambda, 0)`` and
    ``A = [Z | 1]`` is the standardized data with a bias column. The solve is
    least squares, so a singular ``H`` (collinear features, fewer pairs than
    coordinates) gives the minimum-norm step. The gradient is the direction
    instead where the solve fails or ``d`` is not a finite descent direction
    (with ``l2_lambda`` 0 on separable data ``p(1-p)`` underflows). Stops when
    the gradient inf-norm falls below ``tol``, after ``max_iters`` iterations,
    or when no step descends.

    Features are standardized with train-time statistics stored in the model;
    degenerate (constant) features keep weight 0. Deterministic: zero
    initialization, no stochastic steps.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or len(X) != len(y):
        raise ValueError("X must be (n, d) with matching labels")
    if not np.all(np.isfinite(X)):
        raise ValueError("non-finite feature values")
    if not (np.any(y == 1) and np.any(y == 0)):
        raise ValueError("training data must contain both classes")
    means, stds = X.mean(axis=0), X.std(axis=0)
    Z = _standardize(X, means, stds)
    live = np.flatnonzero(stds > 0)
    A = np.column_stack((Z[:, live], np.ones(len(y))))
    penalty = np.diag(np.append(np.full(len(live), 2.0 * l2_lambda), 0.0))
    w = np.zeros(X.shape[1])
    b = 0.0
    loss, grad_w, grad_b = lr_loss_and_gradient(w, b, Z, y, l2_lambda)
    history = [loss]
    for _ in range(max_iters):
        grad_norm = max(float(np.max(np.abs(grad_w))), abs(grad_b))
        if grad_norm < tol:
            break
        g = np.append(grad_w[live], grad_b)
        z = Z @ w + b
        curvature = _sigmoid(z) * _sigmoid(-z)
        try:
            d = np.linalg.lstsq(A.T @ (A * curvature[:, None]) / len(y) + penalty, g)[0]
        except np.linalg.LinAlgError:
            d = g
        if not (np.all(np.isfinite(d)) and g @ d > 0):
            d = g
        slope, step = float(g @ d), 1.0
        dw = np.zeros_like(w)
        dw[live], db = d[:-1], float(d[-1])
        accepted = False
        while step > 1e-15:
            w_new = w - step * dw
            b_new = b - step * db
            loss_new, gw_new, gb_new = lr_loss_and_gradient(w_new, b_new, Z, y, l2_lambda)
            # strictly lower, too: near the optimum the Armijo term falls below an ulp
            # of the loss, and an equal loss is no descent (nor is a NaN one)
            if loss_new < loss and loss_new <= loss - 1e-4 * step * slope:
                w, b, loss, grad_w, grad_b = w_new, b_new, loss_new, gw_new, gb_new
                history.append(loss)
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
    return LRModel(weights=w, bias=b, l2_lambda=l2_lambda,
                   feature_means=means, feature_stds=stds,
                   final_loss=loss,
                   final_grad_norm=max(float(np.max(np.abs(grad_w))), abs(grad_b)),
                   n_iters=len(history) - 1, loss_history=history)


def predict_lr(model: LRModel, features: np.ndarray) -> np.ndarray:
    """Each row's probability that its candidate is a true hypernym, in (0, 1), for an
    (n, 5) matrix. The logits are a row-wise ``einsum``, whose sum order does not depend
    on the other rows, so a row scores the same alone or in any matrix; ``Z @ weights``
    could sum in another order."""
    X = np.asarray(features, dtype=np.float64)
    if not np.all(np.isfinite(X)):
        raise ValueError("non-finite feature values")
    logits = np.einsum("ij,j->i", _standardize(X, model.feature_means, model.feature_stds),
                       model.weights) + model.bias
    # keep the probability in the open interval even when sigmoid saturates
    return np.clip(_sigmoid(logits), 1e-12, 1.0 - 1e-12)


# ---------------------------------------------------------------------------
# Model file format
# ---------------------------------------------------------------------------

MODEL_MAGIC = "lr-model v1"


def save_model(model: LRModel, path: str | Path) -> None:
    path = Path(path)
    lines = [
        MODEL_MAGIC,
        repr(float(model.l2_lambda)),
        " ".join(repr(float(x)) for x in [*model.weights, model.bias]),
        " ".join(repr(float(x)) for x in model.feature_means),
        " ".join(repr(float(x)) for x in model.feature_stds),
    ]
    atomic_write(path, "\n".join(lines) + "\n")


def load_model(path: str | Path) -> LRModel:
    """Read a model file of exactly five lines; a sixth line, a non-finite value or a
    negative deviation is an ``InputError``."""
    path = Path(path)
    lines = [line.rstrip("\n") for _, line in numbered_lines(path)]
    if len(lines) < 5 or lines[0] != MODEL_MAGIC:
        raise InputError(f"{path}: not a {MODEL_MAGIC!r} file")
    if len(lines) > 5:
        raise InputError(f"{path}:6: a model file ends after its fifth line")
    try:
        l2_lambda = float(lines[1])
        params, means, stds = (np.array([float(x) for x in line.split()]) for line in lines[2:5])
    except ValueError:
        raise InputError(f"{path}: non-numeric model value") from None
    if params.shape != (N_FEATURES + 1,) or not means.shape == stds.shape == (N_FEATURES,):
        raise InputError(f"{path}: expected {N_FEATURES} weights plus bias, means and deviations")
    if not np.all(np.isfinite([l2_lambda, *params, *means, *stds])) or np.any(stds < 0):
        raise InputError(f"{path}: model values must be finite and deviations >= 0")
    return LRModel(weights=params[:N_FEATURES], bias=float(params[N_FEATURES]),
                   l2_lambda=l2_lambda, feature_means=means, feature_stds=stds)
