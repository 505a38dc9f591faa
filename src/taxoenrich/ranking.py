"""Hypernym candidate generation and ranking.

Three rankers over an orphan word:

* baseline: hypernym synsets of the word's embedding nearest neighbors,
  ordered by the rank of the earliest neighbor that produced them;
* weighted similarity: the candidate pool extended with second-order
  hypernyms, each candidate scored occurrences * cosine(orphan, synset);
* model: a logistic regression with L2 regularization over five features
  (four Wiktionary features plus the weighted-similarity score), trained
  from scratch by damped Newton steps with backtracking line search.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .embeddings import (EmbeddingStore, _cos, batch_nearest_neighbors, nearest_neighbors,
                         word_vector)
from .fileio import InputError, atomic_write, numbered_lines, read_lines
from .taxonomy import PartOfSpeech, Taxonomy
from .textnorm import normalize
from .wiktionary import WiktionaryStore, wiki_feature_rows

N_FEATURES = 5


class OovWordError(ValueError):
    """Raised when an orphan word has no embedding vector after all fallbacks."""


@dataclass
class ScoredCandidate:
    synset: str
    score: float = 0.0
    occurrences: int = 1
    provenance: list[str] = field(default_factory=list)


def _orphan_vector(embeddings: EmbeddingStore, word: str) -> tuple[np.ndarray, float]:
    """The orphan word's vector and its norm."""
    vec = word_vector(embeddings, word)
    if vec is None:
        raise OovWordError(f"no embedding vector for {word!r}")
    return vec, float(np.linalg.norm(vec))


def similarities(word: str, candidates: list[str], taxonomy: Taxonomy,
                 embeddings: EmbeddingStore) -> list[float]:
    """cosine(orphan vector, synset centroid) per candidate; 0.0 without a centroid."""
    vec, norm = _orphan_vector(embeddings, word)
    return [_cos(vec, norm, *embeddings.centroid_and_norm(taxonomy.synset(cand)))
            for cand in candidates]


Neighbors = list[tuple[str, float]]


def word_neighbors(words: list[str], embeddings: EmbeddingStore,
                   k: int) -> list[Optional[Neighbors]]:
    """Each word's k nearest neighbors (the word itself excluded), found in
    one batched search; None for a word with no embedding vector."""
    vectors = [word_vector(embeddings, word) for word in words]
    known = [i for i, vec in enumerate(vectors) if vec is not None]
    queries = np.array([vectors[i] for i in known]).reshape(len(known), embeddings.dim)
    found = batch_nearest_neighbors(embeddings, queries, k,
                                    [{normalize(words[i])} for i in known])
    out: list[Optional[Neighbors]] = [None] * len(words)
    for i, neighbors in zip(known, found):
        out[i] = neighbors
    return out


def _first_order_pool(word: str, taxonomy: Taxonomy, embeddings: EmbeddingStore,
                      pos: PartOfSpeech, k: int, neighbors: Optional[Neighbors]):
    """(pool, neighbors): one occurrence per path neighbor -> its ``pos`` synset -> hypernym
    -> the hypernym's ``pos`` lemma-mates, provenance the producing neighbors in order; the
    neighbors are searched for here if not given."""
    if neighbors is None:
        vec = _orphan_vector(embeddings, word)[0]
        neighbors = nearest_neighbors(embeddings, vec, k, exclude={normalize(word)})
    pool: dict[str, ScoredCandidate] = {}
    for token, _sim in neighbors:
        for sid in sorted(taxonomy.synsets_of_lemma(token, pos)):
            for hyp in sorted(taxonomy.direct_hypernyms(sid)):
                for cand in taxonomy.associated_synsets(hyp, pos):
                    _add(pool, cand, token)
    return pool, neighbors


def _add(pool: dict[str, ScoredCandidate], cand: str, token: str) -> None:
    entry = pool.get(cand)
    if entry is None:
        pool[cand] = ScoredCandidate(synset=cand, provenance=[token])
    else:
        entry.occurrences += 1
        if token not in entry.provenance:
            entry.provenance.append(token)


def candidates_baseline(word: str, taxonomy: Taxonomy, embeddings: EmbeddingStore,
                        pos: PartOfSpeech, k: int = 10,
                        neighbors: Optional[Neighbors] = None) -> list[ScoredCandidate]:
    """Candidates from direct hypernyms of the k nearest neighbors.

    Ordered by the rank of the earliest producing neighbor, ties broken by
    cosine(orphan, synset vector) descending, then synset id; truncated to k.
    ``neighbors``, if given, are the word's k nearest neighbors from
    ``word_neighbors``; otherwise they are searched for here.
    """
    pool, neighbors = _first_order_pool(word, taxonomy, embeddings, pos, k, neighbors)
    rank = {token: i for i, (token, _sim) in enumerate(neighbors)}  # distinct tokens
    sims = dict(zip(pool, similarities(word, list(pool), taxonomy, embeddings)))
    ordered = sorted(pool, key=lambda c: (rank[pool[c].provenance[0]], -sims[c], c))
    return [ScoredCandidate(synset=c, score=sims[c], provenance=pool[c].provenance)
            for c in ordered[:k]]


def candidates_extended(word: str, taxonomy: Taxonomy, embeddings: EmbeddingStore,
                        pos: PartOfSpeech, k: int = 10,
                        neighbors: Optional[Neighbors] = None) -> dict[str, ScoredCandidate]:
    """Merged candidate multiset: first-order pool plus second-order hypernyms.

    ``occurrences`` is the total multiplicity in the merged list: one per
    first-order extraction path, plus one per second-order path expanded once
    for each distinct first-order candidate. ``neighbors`` as in
    ``candidates_baseline``.
    """
    pool = _first_order_pool(word, taxonomy, embeddings, pos, k, neighbors)[0]
    # each distinct first-order candidate, expanded with its first producing token
    for cand, entry in list(pool.items()):
        for hyp in sorted(taxonomy.direct_hypernyms(cand)):
            for second in taxonomy.associated_synsets(hyp, pos):
                _add(pool, second, entry.provenance[0])
    return pool


def rank_by_score(word: str, pool: dict[str, ScoredCandidate], taxonomy: Taxonomy,
                  embeddings: EmbeddingStore, k: int = 10) -> list[ScoredCandidate]:
    """Rank a candidate pool by occurrences * cosine(orphan, synset vector)."""
    cands = list(pool.values())
    sims = similarities(word, [c.synset for c in cands], taxonomy, embeddings)
    for cand, sim in zip(cands, sims):
        cand.score = cand.occurrences * sim
    ordered = sorted(cands, key=lambda c: (-c.score, c.synset))
    return ordered[:k]


def feature_matrix(word: str, candidates: list[str], pool: dict[str, ScoredCandidate],
                   taxonomy: Taxonomy, embeddings: EmbeddingStore,
                   wiktionary: WiktionaryStore) -> np.ndarray:
    """One word's (n, 5) feature matrix: per candidate the four Wiktionary features,
    then occurrences * cosine(orphan, synset vector), 0 for a candidate outside ``pool``.
    Each candidate's synset and centroid are looked up once, for both kinds of feature."""
    synsets = [taxonomy.synset(c) for c in candidates]
    centroids = [embeddings.centroid_and_norm(syn) for syn in synsets]
    X = np.zeros((len(synsets), N_FEATURES))
    X[:, :4] = wiki_feature_rows(wiktionary, embeddings, word, synsets, centroids)
    scored = [i for i, c in enumerate(candidates) if c in pool]
    if scored:
        vec, norm = _orphan_vector(embeddings, word)
        X[scored, 4] = [pool[candidates[i]].occurrences * _cos(vec, norm, *centroids[i])
                        for i in scored]
    return X


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


def predict_lr(model: LRModel, features: np.ndarray) -> float | np.ndarray:
    """Probability that a candidate is a true hypernym, in (0, 1): a float for a
    feature vector, an array for an (n, 5) matrix. Each row's 5-term dot product
    is taken alone, so a row scores the same in a matrix; ``Z @ weights`` sums in
    another order and can change a probability's last bit."""
    X = np.asarray(features, dtype=np.float64)
    if not np.all(np.isfinite(X)):
        raise ValueError("non-finite feature values")
    Z = _standardize(np.atleast_2d(X), model.feature_means, model.feature_stds)
    logits = np.array([z @ model.weights for z in Z]) + model.bias
    # keep the probability in the open interval even when sigmoid saturates
    p = np.clip(_sigmoid(logits), 1e-12, 1.0 - 1e-12)
    return p if X.ndim == 2 else float(p[0])


def rank_with_model(word: str, model: LRModel, taxonomy: Taxonomy,
                    embeddings: EmbeddingStore, wiktionary: WiktionaryStore,
                    pos: PartOfSpeech, k: int = 10,
                    neighbors: Optional[Neighbors] = None) -> list[ScoredCandidate]:
    """Rank the extended candidate pool by the trained model's probability,
    scoring the pool's feature matrix at once; ``neighbors`` as in ``candidates_baseline``."""
    pool = candidates_extended(word, taxonomy, embeddings, pos, k=k, neighbors=neighbors)
    X = feature_matrix(word, list(pool), pool, taxonomy, embeddings, wiktionary)
    for cand, p in zip(pool.values(), predict_lr(model, X)):
        cand.score = float(p)
    ordered = sorted(pool.values(), key=lambda c: (-c.score, c.synset))
    return ordered[:k]


# ---------------------------------------------------------------------------
# Model and prediction file formats
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
    """Read a model file; a non-finite value or negative deviation is an ``InputError``."""
    path = Path(path)
    lines = [line.rstrip("\n") for _, line in numbered_lines(path)]
    if len(lines) < 5 or lines[0] != MODEL_MAGIC:
        raise InputError(f"{path}: not a {MODEL_MAGIC!r} file")
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


def write_predictions(predictions: dict[str, list[ScoredCandidate]],
                      path: str | Path, explain: bool = False) -> None:
    """Write a predictions TSV: word, 1-based rank, synset id, score
    (plus provenance with ``explain``)."""
    lines = []
    for word in sorted(predictions):
        for rank, cand in enumerate(predictions[word], start=1):
            row = [word, str(rank), cand.synset, repr(cand.score)]
            if explain:
                row.append(",".join(cand.provenance))
            lines.append("\t".join(row) + "\n")
    atomic_write(path, "".join(lines))


def read_predictions(path: str | Path) -> dict[str, list[tuple[str, float]]]:
    """Read a predictions TSV back as word -> [(synset id, score)] in rank order."""
    path = Path(path)
    out: dict[str, list[tuple[str, float]]] = {}
    for lineno, line in read_lines(path):
        try:
            word, _rank, synset, score = line.split("\t")[:4]
            value = float(score)
        except ValueError:
            raise InputError(f"{path}:{lineno}: expected word, rank, synset, score") from None
        out.setdefault(word, []).append((synset, value))
    return out
