"""Static word embeddings: text-format loading, vectorization and exact k-NN.

The vector file is the usual text format: a header line ``<count> <dim>``
followed by ``<token> <f1> ... <fdim>`` lines, single-space separated.
Nearest-neighbor search is brute force by cosine over the raw vectors, batched
into matrix products, so results are exact and reproducible; ties are broken
lexicographically.
"""

from __future__ import annotations

import logging
from pathlib import Path
from typing import Optional

import numpy as np

from .fileio import InputError
from .taxonomy import Synset
from .textnorm import normalize, subtokens

log = logging.getLogger(__name__)


class EmbeddingFormatError(InputError):
    """Raised for malformed vector files."""


class EmbeddingStore:
    """Immutable token -> vector map: ``matrix`` holds the raw (n, dim) float64
    rows in insertion (file) order, ``index`` maps a token to its row and
    ``norms`` holds the row norms. Zero-norm rows are never neighbors;
    ``rank``, each row's place in lexicographic token order, breaks ties.
    """

    def __init__(self, dim: int, vectors: dict[str, np.ndarray]):
        if dim <= 0:
            raise EmbeddingFormatError(f"dimension must be positive, got {dim}")
        matrix = np.empty((len(vectors), dim))
        for row, (token, vec) in enumerate(vectors.items()):
            if np.shape(vec) != (dim,):
                raise EmbeddingFormatError(
                    f"token {token!r}: expected {dim} values, got {np.shape(vec)}")
            matrix[row] = vec
        self._adopt(dict(zip(vectors, range(len(matrix)))), matrix)

    def _adopt(self, index: dict[str, int], matrix: np.ndarray) -> EmbeddingStore:
        """Take ``matrix``, whose rows are in ``index`` order, as the layout."""
        tokens = list(index)
        bad = np.flatnonzero(~np.isfinite(matrix).all(axis=1))
        if len(bad):
            raise EmbeddingFormatError(f"token {tokens[bad[0]]!r}: non-finite vector entries")
        matrix.flags.writeable = False
        self.dim, self.matrix, self.index = matrix.shape[1], matrix, index
        self.norms = np.linalg.norm(matrix, axis=1)
        self.rank = np.argsort(sorted(range(len(tokens)), key=tokens.__getitem__))
        self._centroids: dict[tuple[str, ...], tuple[Optional[np.ndarray], float]] = {}
        return self

    def __contains__(self, token: str) -> bool:
        return token in self.index

    def __len__(self) -> int:
        return len(self.index)

    def centroid(self, syn: Synset) -> Optional[np.ndarray]:
        """``synset_vector(self, syn)``, shared read-only with every caller."""
        return self.centroid_and_norm(syn)[0]

    def centroid_and_norm(self, syn: Synset) -> tuple[Optional[np.ndarray], float]:
        """Memoized (centroid, own norm) or (None, 0.0); ``norms`` may differ in the last bit."""
        memo = self._centroids.get(syn.lemmas)
        if memo is None:
            vec = synset_vector(self, syn)
            if vec is not None:
                vec.flags.writeable = False
            memo = self._centroids[syn.lemmas] = (
                vec, 0.0 if vec is None else float(np.linalg.norm(vec)))
        return memo


def load_embeddings(path: str | Path, limit: Optional[int] = None) -> EmbeddingStore:
    """Load a text-format vector file; at most ``limit`` tokens, in file order.

    Trailing whitespace is ignored, as fastText writes it. The file holds at most the
    header's count of vector lines, exactly that many without ``limit``; a repeated
    token keeps its first vector.
    """
    path = Path(path)
    with path.open(encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise EmbeddingFormatError(f"{path}:1: expected '<count> <dim>' header")
        try:
            count, dim = int(header[0]), int(header[1])
        except ValueError:
            raise EmbeddingFormatError(f"{path}:1: non-numeric header") from None
        if dim <= 0:
            raise EmbeddingFormatError(f"{path}:1: dimension must be positive")
        # a vector line takes 2 * dim + 2 bytes or more: a corrupt count allocates no more
        matrix = np.empty((max(0, min(count, path.stat().st_size // (2 * dim + 2),
                                      count if limit is None else limit)), dim))
        index: dict[str, int] = {}
        duplicates: list[int] = []
        for lineno, line in enumerate(fh, start=2):
            if limit is not None and len(index) >= limit:
                break
            if len(index) == len(matrix):
                raise EmbeddingFormatError(f"{path}: header says {count} vectors, file has more")
            parts = line.rstrip().split(" ")
            if len(parts) != dim + 1:
                raise EmbeddingFormatError(
                    f"{path}:{lineno}: expected {dim} values, got {len(parts) - 1}")
            try:
                matrix[len(index)] = parts[1:]
            except ValueError:
                raise EmbeddingFormatError(f"{path}:{lineno}: non-numeric vector entry") from None
            token = normalize(parts[0])
            if token in index:
                duplicates.append(lineno)
            index.setdefault(token, len(index))
    if duplicates:
        log.warning("%s: %d duplicate tokens, each first occurrence kept (first repeat on line %d)",
                    path, len(duplicates), duplicates[0])
    if limit is None and len(index) + len(duplicates) != count:
        raise EmbeddingFormatError(
            f"{path}: header says {count} vectors, file has {len(index) + len(duplicates)}")
    if not index:
        raise EmbeddingFormatError(f"{path}: no vectors loaded")
    return EmbeddingStore.__new__(EmbeddingStore)._adopt(index, matrix[:len(index)])


def word_vector(store: EmbeddingStore, word: str) -> Optional[np.ndarray]:
    """Vector for a word, with a subtoken-mean fallback for multiword input.

    Lookup order: exact normalized token, then the mean of the vectors of the
    known subtokens (split on underscore/hyphen), then None.
    """
    token = normalize(word)
    if token in store.index:
        return store.matrix[store.index[token]]
    parts = subtokens(token)
    if len(parts) > 1:
        known = [store.matrix[store.index[p]] for p in parts if p in store.index]
        if known:
            return np.mean(known, axis=0)
    return None


def synset_vector(store: EmbeddingStore, syn: Synset) -> Optional[np.ndarray]:
    """Mean of the resolvable lemma vectors of a synset; None if none resolve."""
    resolved = [v for v in (word_vector(store, lemma) for lemma in syn.lemmas)
                if v is not None]
    if not resolved:
        return None
    return np.mean(resolved, axis=0)


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity; 0.0 if either vector has zero norm."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    return _cos(u, np.linalg.norm(u), v, np.linalg.norm(v))


def _cos(u: np.ndarray, nu: float, v: np.ndarray, nv: float) -> float:
    """Unchecked ``cosine`` from norms the caller computes once; 0.0 if a norm is 0."""
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(np.dot(u, v) / (nu * nv))


# Score blocks are kept at or under this size: (queries per tile) x
# (vocabulary rows) float64 scores. A vocabulary of more than 512Ki rows gets
# one query per tile, whatever this says.
_TILE_BYTES = 4 << 20

# GEMM scores only pick candidates; the reported scores and the order come
# from a row-wise rescoring of unit rows whose result does not depend on a
# row's position in the matrix. The scaled GEMM score of a raw row and the
# rescored one differ by at most 2 * (dim + 3) * 2^-53 (about 7e-14 at dim
# 300). Every row within this margin of the k-th GEMM score is rescored, so
# no row of the true top k is missed; 1e-9 stays above that bound up to dim
# ~10^6.
_SCORE_MARGIN = 1e-9


def nearest_neighbors(store: EmbeddingStore, query: np.ndarray, k: int,
                      exclude: set[str] = frozenset()) -> list[tuple[str, float]]:
    """Top-k vocabulary tokens by cosine to ``query``, descending.

    Excluded tokens and zero-norm vectors never appear. Ties are broken by
    lexicographic token order. Returns fewer than k if the vocabulary is small.
    """
    query = np.asarray(query, dtype=np.float64)
    if query.shape != (store.dim,):
        raise ValueError(f"query dimension {query.shape} != store dim {store.dim}")
    return batch_nearest_neighbors(store, query[None, :], k, [exclude])[0]


def batch_nearest_neighbors(store: EmbeddingStore, queries: np.ndarray, k: int,
                            excludes: list[set[str]]) -> list[list[tuple[str, float]]]:
    """``nearest_neighbors`` for each row of an (n, dim) query block.

    ``excludes`` holds one token set per query.
    Each query tile is scored against the raw matrix with one matrix product,
    scaled in place by the reciprocal row norms (-inf for zero-norm rows);
    ``argpartition`` finds each query's k-th score, and the rows within
    ``_SCORE_MARGIN`` of it are rescored as unit rows, ordered by (-score, rank).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim != 2 or queries.shape[1] != store.dim:
        raise ValueError(f"query block shape {queries.shape} != (n, {store.dim})")
    if len(excludes) != len(queries):
        raise ValueError(f"{len(excludes)} exclude sets for {len(queries)} queries")
    matrix, index, norms, n = store.matrix, store.index, store.norms, len(store)
    tokens, dead = list(index), np.flatnonzero(norms == 0.0)
    scale = np.divide(1.0, norms, out=np.zeros(n), where=norms > 0.0)
    qnorms = np.linalg.norm(queries, axis=1)
    # a zero-norm query stays zero: every row scores 0 and ties by token
    unit = queries / np.where(qnorms > 0.0, qnorms, 1.0)[:, None]
    tile = max(1, _TILE_BYTES // (8 * max(1, n)))
    results: list[list[tuple[str, float]]] = []
    for start in range(0, len(queries), tile):
        scores = unit[start:start + tile] @ matrix.T
        scores *= scale
        scores[:, dead] = -np.inf
        for i, block_row in enumerate(scores):
            excluded = list({index[t] for t in map(normalize, excludes[start + i]) if t in index})
            block_row[excluded] = -np.inf
            kk = min(k, n - len(dead) - np.count_nonzero(norms[excluded]))
            if kk <= 0:
                results.append([])
                continue
            kth = block_row[np.argpartition(block_row, n - kk)[n - kk]]
            near = np.flatnonzero(block_row >= kth - _SCORE_MARGIN)
            exact = np.einsum("ij,j->i", matrix[near] / norms[near, None], unit[start + i])
            order = np.lexsort((store.rank[near], -exact))[:kk]
            results.append([(tokens[near[j]], float(exact[j])) for j in order])
    return results
