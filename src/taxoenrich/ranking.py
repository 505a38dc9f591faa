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

from .embeddings import (EmbeddingStore, batch_nearest_neighbors, cosine, nearest_neighbors,
                         synset_vector, word_vector)
from .taxonomy import PartOfSpeech, Taxonomy
from .textnorm import normalize
from .wiktionary import WiktionaryStore, wiki_features

N_FEATURES = 5


class OovWordError(ValueError):
    """Raised when an orphan word has no embedding vector after all fallbacks."""


@dataclass
class ScoredCandidate:
    synset: str
    score: float = 0.0
    occurrences: int = 1
    similarity: float = 0.0
    provenance: list[str] = field(default_factory=list)
    features: Optional[np.ndarray] = None


def _orphan_vector(embeddings: EmbeddingStore, word: str) -> np.ndarray:
    vec = word_vector(embeddings, word)
    if vec is None:
        raise OovWordError(f"no embedding vector for {word!r}")
    return vec


def _associated_synsets(taxonomy: Taxonomy, hypernym_id: str,
                        pos: PartOfSpeech) -> list[str]:
    """The hypernym synset plus all synsets sharing a lemma with it (same pos)."""
    out = {hypernym_id}
    for lemma in taxonomy.synset(hypernym_id).lemmas:
        out |= taxonomy.synsets_of_lemma(lemma, pos)
    return sorted(out)


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
                for cand in _associated_synsets(taxonomy, hyp, pos):
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
    vec = _orphan_vector(embeddings, word)
    earliest: dict[str, int] = {}
    provenance: dict[str, list[str]] = {}
    for rank, token, cand in _first_order_paths(word, taxonomy, embeddings, pos, k,
                                                neighbors):
        earliest.setdefault(cand, rank)
        prov = provenance.setdefault(cand, [])
        if token not in prov:
            prov.append(token)
    sims = {}
    for cand in earliest:
        svec = synset_vector(embeddings, taxonomy.synset(cand))
        sims[cand] = cosine(vec, svec) if svec is not None else 0.0
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

    first_order: list[tuple[str, str]] = []  # (candidate, producing token), distinct
    seen_first: set[str] = set()
    for _rank, token, cand in _first_order_paths(word, taxonomy, embeddings, pos, k,
                                                 neighbors):
        add(cand, token)
        if cand not in seen_first:
            seen_first.add(cand)
            first_order.append((cand, token))
    for cand, token in first_order:
        for hyp in sorted(taxonomy.direct_hypernyms(cand)):
            for second in _associated_synsets(taxonomy, hyp, pos):
                add(second, token)
    return pool


def rank_by_score(word: str, pool: dict[str, ScoredCandidate], taxonomy: Taxonomy,
                  embeddings: EmbeddingStore, k: int = 10) -> list[ScoredCandidate]:
    """Rank a candidate pool by occurrences * cosine(orphan, synset vector)."""
    vec = _orphan_vector(embeddings, word)
    for cand in pool.values():
        svec = synset_vector(embeddings, taxonomy.synset(cand.synset))
        cand.similarity = cosine(vec, svec) if svec is not None else 0.0
        cand.score = cand.occurrences * cand.similarity
    ordered = sorted(pool.values(), key=lambda c: (-c.score, c.synset))
    return ordered[:k]


def assemble_features(word: str, candidate: str, pool: dict[str, ScoredCandidate],
                      taxonomy: Taxonomy, embeddings: EmbeddingStore,
                      wiktionary: WiktionaryStore, strict: bool = True) -> np.ndarray:
    """Fixed-order feature vector: the four Wiktionary features, then the
    weighted-similarity score.

    With ``strict=False`` a candidate outside the pool gets occurrence count 0
    (score feature 0); training pairs use this, since gold hypernyms are not
    always reachable from the generated pool.
    """
    if candidate not in pool and strict:
        raise ValueError(f"candidate {candidate!r} not in pool for {word!r}")
    syn = taxonomy.synset(candidate)
    wiki = wiki_features(wiktionary, embeddings, word, syn)
    occurrences = pool[candidate].occurrences if candidate in pool else 0
    score = 0.0
    if occurrences:
        vec = _orphan_vector(embeddings, word)
        svec = synset_vector(embeddings, syn)
        sim = cosine(vec, svec) if svec is not None else 0.0
        score = occurrences * sim
    return np.array([*wiki.as_tuple(), score], dtype=np.float64)


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


def _standardize(X: np.ndarray):
    means = X.mean(axis=0)
    stds = X.std(axis=0)
    scale = np.where(stds > 0, stds, 1.0)
    Z = (X - means) / scale
    Z[:, stds == 0] = 0.0
    return Z, means, stds


def train_lr(X, y, l2_lambda: float = 1e-4, max_iters: int = 1000,
             tol: float = 1e-8, seed: int = 0) -> LRModel:
    """Full-batch gradient descent with backtracking (Armijo) line search.

    Features are standardized with train-time statistics stored in the model;
    degenerate (constant) features keep weight 0. Deterministic: zero
    initialization, no stochastic steps (``seed`` is accepted for interface
    uniformity).
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or len(X) != len(y):
        raise ValueError("X must be (n, d) with matching labels")
    if not np.all(np.isfinite(X)):
        raise ValueError("non-finite feature values")
    if not (np.any(y == 1) and np.any(y == 0)):
        raise ValueError("training data must contain both classes")
    Z, means, stds = _standardize(X)
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


def predict_lr(model: LRModel, features: np.ndarray) -> float:
    """Probability that a candidate is a true hypernym, in (0, 1)."""
    f = np.asarray(features, dtype=np.float64)
    if not np.all(np.isfinite(f)):
        raise ValueError("non-finite feature values")
    scale = np.where(model.feature_stds > 0, model.feature_stds, 1.0)
    z = (f - model.feature_means) / scale
    z[model.feature_stds == 0] = 0.0
    p = float(_sigmoid(np.array([z @ model.weights + model.bias]))[0])
    # keep the probability in the open interval even when sigmoid saturates
    return min(max(p, 1e-12), 1.0 - 1e-12)


def rank_with_model(word: str, model: LRModel, taxonomy: Taxonomy,
                    embeddings: EmbeddingStore, wiktionary: WiktionaryStore,
                    pos: PartOfSpeech, k: int = 10,
                    neighbors: Optional[Neighbors] = None) -> list[ScoredCandidate]:
    """Rank the extended candidate pool by the trained model's probability.
    ``neighbors`` as in ``candidates_baseline``."""
    pool = candidates_extended(word, taxonomy, embeddings, pos, k=k, neighbors=neighbors)
    for cand in pool.values():
        cand.features = assemble_features(word, cand.synset, pool,
                                          taxonomy, embeddings, wiktionary)
        cand.similarity = float(cand.features[4]) / cand.occurrences
        cand.score = predict_lr(model, cand.features)
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
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_model(path: str | Path) -> LRModel:
    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    if len(lines) < 5 or lines[0] != MODEL_MAGIC:
        raise ValueError(f"{path}: not a {MODEL_MAGIC!r} file")
    l2_lambda = float(lines[1])
    params = [float(x) for x in lines[2].split()]
    if len(params) != N_FEATURES + 1:
        raise ValueError(f"{path}: expected {N_FEATURES} weights plus bias")
    means = np.array([float(x) for x in lines[3].split()])
    stds = np.array([float(x) for x in lines[4].split()])
    if means.shape != (N_FEATURES,) or stds.shape != (N_FEATURES,):
        raise ValueError(f"{path}: bad standardization lines")
    return LRModel(weights=np.array(params[:N_FEATURES]), bias=params[N_FEATURES],
                   l2_lambda=l2_lambda, feature_means=means, feature_stds=stds)


def write_predictions(predictions: dict[str, list[ScoredCandidate]],
                      path: str | Path, explain: bool = False) -> None:
    """Write a predictions TSV: word, 1-based rank, synset id, score
    (plus provenance with ``explain``)."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for word in sorted(predictions):
            for rank, cand in enumerate(predictions[word], start=1):
                row = [word, str(rank), cand.synset, repr(cand.score)]
                if explain:
                    row.append(",".join(cand.provenance))
                fh.write("\t".join(row) + "\n")


def read_predictions(path: str | Path) -> dict[str, list[tuple[str, float]]]:
    """Read a predictions TSV back as word -> [(synset id, score)] in rank order."""
    path = Path(path)
    out: dict[str, list[tuple[str, float]]] = {}
    with path.open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) < 4:
                raise ValueError(f"{path}:{lineno}: expected at least 4 columns")
            word, _rank, synset, score = parts[:4]
            out.setdefault(word, []).append((synset, float(score)))
    return out
