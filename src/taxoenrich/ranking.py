"""Hypernym candidate generation and ranking.

Three rankers over an orphan word:

* baseline: hypernym synsets of the word's embedding nearest neighbors,
  ordered by the rank of the earliest neighbor that produced them;
* weighted similarity: the candidate pool extended with second-order
  hypernyms, each candidate scored occurrences * cosine(orphan, synset);
* model: a logistic regression with L2 regularization over five features
  (four Wiktionary features plus the weighted-similarity score), trained
  from scratch by full-batch gradient descent with backtracking line search.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .embeddings import (EmbeddingStore, _cos, batch_nearest_neighbors, nearest_neighbors,
                         word_vector)
from .fileio import InputError, atomic_write_text
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
    similarity: float = 0.0    # cosine(orphan, synset centroid); set by the similarity rankers
    provenance: list[str] = field(default_factory=list)


def _orphan_vector(embeddings: EmbeddingStore, word: str) -> np.ndarray:
    vec = word_vector(embeddings, word)
    if vec is None:
        raise OovWordError(f"no embedding vector for {word!r}")
    return vec


def similarities(word: str, candidates: list[str], taxonomy: Taxonomy,
                 embeddings: EmbeddingStore) -> list[float]:
    """cosine(orphan vector, synset centroid) per candidate; 0.0 without a centroid."""
    vec = _orphan_vector(embeddings, word)
    norm = float(np.linalg.norm(vec))
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


def _first_order_paths(word: str, taxonomy: Taxonomy, embeddings: EmbeddingStore,
                       pos: PartOfSpeech, k: int, neighbors: Optional[Neighbors]):
    """Yield (neighbor_rank, neighbor_token, candidate_synset) extraction paths."""
    if neighbors is None:
        vec = _orphan_vector(embeddings, word)
        neighbors = nearest_neighbors(embeddings, vec, k, exclude={normalize(word)})
    for rank, (token, _sim) in enumerate(neighbors):
        for sid in sorted(taxonomy.synsets_of_lemma(token, pos)):
            for hyp in sorted(taxonomy.direct_hypernyms(sid)):
                for cand in taxonomy.associated_synsets(hyp, pos):
                    yield rank, token, cand


def candidates_baseline(word: str, taxonomy: Taxonomy, embeddings: EmbeddingStore,
                        pos: PartOfSpeech, k: int = 10,
                        neighbors: Optional[Neighbors] = None) -> list[ScoredCandidate]:
    """Candidates from direct hypernyms of the k nearest neighbors.

    Ordered by the rank of the earliest producing neighbor, ties broken by
    cosine(orphan, synset vector) descending, then synset id; truncated to k.
    ``neighbors``, if given, are the word's k nearest neighbors from
    ``word_neighbors``; otherwise they are searched for here.
    """
    earliest: dict[str, int] = {}
    provenance: dict[str, list[str]] = {}
    for rank, token, cand in _first_order_paths(word, taxonomy, embeddings, pos, k,
                                                neighbors):
        earliest.setdefault(cand, rank)
        prov = provenance.setdefault(cand, [])
        if token not in prov:
            prov.append(token)
    sims = dict(zip(earliest, similarities(word, list(earliest), taxonomy, embeddings)))
    ordered = sorted(earliest, key=lambda c: (earliest[c], -sims[c], c))
    return [ScoredCandidate(synset=c, score=sims[c], occurrences=1,
                            similarity=sims[c], provenance=provenance[c])
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
    pool: dict[str, ScoredCandidate] = {}

    def add(cand: str, token: str):
        entry = pool.get(cand)
        if entry is None:
            pool[cand] = ScoredCandidate(synset=cand, occurrences=1, provenance=[token])
        else:
            entry.occurrences += 1
            if token not in entry.provenance:
                entry.provenance.append(token)

    for _rank, token, cand in _first_order_paths(word, taxonomy, embeddings, pos, k,
                                                 neighbors):
        add(cand, token)
    # each distinct first-order candidate, expanded with its first producing token
    for cand, entry in list(pool.items()):
        for hyp in sorted(taxonomy.direct_hypernyms(cand)):
            for second in taxonomy.associated_synsets(hyp, pos):
                add(second, entry.provenance[0])
    return pool


def rank_by_score(word: str, pool: dict[str, ScoredCandidate], taxonomy: Taxonomy,
                  embeddings: EmbeddingStore, k: int = 10) -> list[ScoredCandidate]:
    """Rank a candidate pool by occurrences * cosine(orphan, synset vector)."""
    cands = list(pool.values())
    sims = similarities(word, [c.synset for c in cands], taxonomy, embeddings)
    for cand, sim in zip(cands, sims):
        cand.similarity = sim
        cand.score = cand.occurrences * sim
    ordered = sorted(cands, key=lambda c: (-c.score, c.synset))
    return ordered[:k]


def feature_matrix(word: str, candidates: list[str], pool: dict[str, ScoredCandidate],
                   taxonomy: Taxonomy, embeddings: EmbeddingStore,
                   wiktionary: WiktionaryStore) -> np.ndarray:
    """One word's (n, 5) feature matrix: per candidate the four Wiktionary features,
    then occurrences * cosine(orphan, synset vector), 0 for a candidate outside ``pool``."""
    synsets = [taxonomy.synset(c) for c in candidates]
    X = np.zeros((len(synsets), N_FEATURES))
    X[:, :4] = wiki_feature_rows(wiktionary, embeddings, word, synsets)
    scored = [i for i, c in enumerate(candidates) if c in pool]
    if scored:
        sims = similarities(word, [candidates[i] for i in scored], taxonomy, embeddings)
        X[scored, 4] = [pool[candidates[i]].occurrences * sim for i, sim in zip(scored, sims)]
    return X


def assemble_features(word: str, candidate: str, pool: dict[str, ScoredCandidate],
                      taxonomy: Taxonomy, embeddings: EmbeddingStore,
                      wiktionary: WiktionaryStore, strict: bool = True) -> np.ndarray:
    """``feature_matrix`` of one candidate, as a vector.

    With ``strict=False`` a candidate outside the pool gets occurrence count 0
    (score feature 0); training pairs use this, since gold hypernyms are not
    always reachable from the generated pool.
    """
    if candidate not in pool and strict:
        raise ValueError(f"candidate {candidate!r} not in pool for {word!r}")
    return feature_matrix(word, [candidate], pool, taxonomy, embeddings, wiktionary)[0]


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
    n_iters: int = 0
    loss_history: list = field(default_factory=list)  # loss after each accepted step


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
    """Full-batch gradient descent with backtracking (Armijo) line search.

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
    w = np.zeros(X.shape[1])
    b = 0.0
    loss, grad_w, grad_b = lr_loss_and_gradient(w, b, Z, y, l2_lambda)
    history = [loss]
    iters = 0
    for iters in range(1, max_iters + 1):
        grad_norm = max(float(np.max(np.abs(grad_w))), abs(grad_b))
        if grad_norm < tol:
            iters -= 1
            break
        gsq = float(grad_w @ grad_w) + grad_b * grad_b
        step = 1.0
        accepted = False
        while step > 1e-15:
            w_new = w - step * grad_w
            b_new = b - step * grad_b
            loss_new, gw_new, gb_new = lr_loss_and_gradient(w_new, b_new, Z, y, l2_lambda)
            if np.isfinite(loss_new) and loss_new <= loss - 1e-4 * step * gsq:
                w, b, loss, grad_w, grad_b = w_new, b_new, loss_new, gw_new, gb_new
                history.append(loss)
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
    if not np.isfinite(loss):
        raise ValueError("non-finite training loss")
    return LRModel(weights=w, bias=b, l2_lambda=l2_lambda,
                   feature_means=means, feature_stds=stds,
                   final_loss=loss,
                   final_grad_norm=max(float(np.max(np.abs(grad_w))), abs(grad_b)),
                   n_iters=iters, loss_history=history)


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
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_model(path: str | Path) -> LRModel:
    """Read a model file; a non-finite value or negative deviation is an ``InputError``."""
    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
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
    atomic_write_text(path, "".join(lines))


def read_predictions(path: str | Path) -> dict[str, list[tuple[str, float]]]:
    """Read a predictions TSV back as word -> [(synset id, score)] in rank order."""
    path = Path(path)
    out: dict[str, list[tuple[str, float]]] = {}
    with path.open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            try:
                word, _rank, synset, score = line.split("\t")[:4]
                value = float(score)
            except ValueError:
                raise InputError(f"{path}:{lineno}: expected word, rank, synset, score") from None
            out.setdefault(word, []).append((synset, value))
    return out
