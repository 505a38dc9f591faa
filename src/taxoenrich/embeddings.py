"""Static word embeddings: text-format loading, vectorization and exact k-NN.

The vector file is the usual text format: a header line ``<count> <dim>``
followed by ``<token> <f1> ... <fdim>`` lines, single-space separated.
Nearest-neighbor search is brute force over unit-normalized vectors, batched
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
    """Immutable token -> vector map with a unit-normalized search view.

    Zero-norm vectors are kept in ``vectors`` but excluded from neighbor
    search. Search rows are sorted lexicographically by token so that a
    stable sort on similarity yields the deterministic tie-break.
    """

    def __init__(self, dim: int, vectors: dict[str, np.ndarray]):
        if dim <= 0:
            raise EmbeddingFormatError(f"dimension must be positive, got {dim}")
        self.dim = dim
        self.vectors: dict[str, np.ndarray] = {}
        for token, vec in vectors.items():
            arr = np.asarray(vec, dtype=np.float64)
            if arr.shape != (dim,):
                raise EmbeddingFormatError(
                    f"token {token!r}: expected {dim} values, got {arr.shape}")
            if not np.all(np.isfinite(arr)):
                raise EmbeddingFormatError(f"token {token!r}: non-finite vector entries")
            self.vectors[token] = arr
        searchable = sorted(t for t, v in self.vectors.items() if np.linalg.norm(v) > 0.0)
        self._search_tokens: list[str] = searchable
        self._search_rows: dict[str, int] = {t: i for i, t in enumerate(searchable)}
        if searchable:
            matrix = np.stack([self.vectors[t] for t in searchable])
            self._search_matrix = matrix / np.linalg.norm(matrix, axis=1, keepdims=True)
        else:
            self._search_matrix = np.zeros((0, dim))
        self._centroids: dict[tuple[str, ...], Optional[np.ndarray]] = {}

    def __contains__(self, token: str) -> bool:
        return token in self.vectors

    def __len__(self) -> int:
        return len(self.vectors)

    def centroid(self, syn: Synset) -> Optional[np.ndarray]:
        """``synset_vector(self, syn)``, memoized per lemma tuple (a pure cache) and
        shared read-only with every caller."""
        if syn.lemmas not in self._centroids:
            vec = synset_vector(self, syn)
            if vec is not None:
                vec.flags.writeable = False
            self._centroids[syn.lemmas] = vec
        return self._centroids[syn.lemmas]


def load_embeddings(path: str | Path, limit: Optional[int] = None) -> EmbeddingStore:
    """Load a text-format vector file; at most ``limit`` tokens, in file order.

    Trailing whitespace on a line is ignored, as fastText writes it. Without
    ``limit``, the file must hold exactly the header's count of vector lines.
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
        vectors: dict[str, np.ndarray] = {}
        n_lines = 0
        for lineno, line in enumerate(fh, start=2):
            if limit is not None and len(vectors) >= limit:
                break
            n_lines += 1
            parts = line.rstrip().split(" ")
            if len(parts) != dim + 1:
                raise EmbeddingFormatError(
                    f"{path}:{lineno}: expected {dim} values, got {len(parts) - 1}")
            token = normalize(parts[0])
            try:
                values = np.array([float(x) for x in parts[1:]], dtype=np.float64)
            except ValueError:
                raise EmbeddingFormatError(f"{path}:{lineno}: non-numeric vector entry") from None
            if token in vectors:
                log.warning("%s:%d: duplicate token %r, keeping first occurrence",
                            path, lineno, token)
                continue
            vectors[token] = values
    if limit is None and n_lines != count:
        raise EmbeddingFormatError(
            f"{path}: header says {count} vectors, file has {n_lines}")
    if not vectors:
        raise EmbeddingFormatError(f"{path}: no vectors loaded")
    return EmbeddingStore(dim, vectors)


def word_vector(store: EmbeddingStore, word: str) -> Optional[np.ndarray]:
    """Vector for a word, with a subtoken-mean fallback for multiword input.

    Lookup order: exact normalized token, then the mean of the vectors of the
    known subtokens (split on underscore/hyphen), then None.
    """
    token = normalize(word)
    vec = store.vectors.get(token)
    if vec is not None:
        return vec
    parts = subtokens(token)
    if len(parts) > 1:
        known = [store.vectors[p] for p in parts if p in store.vectors]
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
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(np.dot(u, v) / (nu * nv))


# Score blocks are kept at or under this size: (queries per tile) x
# (search rows) float64 scores. A vocabulary of more than 512Ki rows gets
# one query per tile, whatever this says.
_TILE_BYTES = 4 << 20

# GEMM scores only pick candidates; the reported scores and the order come
# from a row-wise rescoring whose result does not depend on a row's position
# in the matrix. Both compute the same dot product of unit vectors in a
# different summation order, so they differ by at most 2 * dim * 2^-53
# (about 7e-14 at dim 300). Every row within this margin of the k-th GEMM
# score is rescored, so no row of the true top k is missed; 1e-9 stays
# above that bound up to dim ~10^7.
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
    Each tile of queries is scored against the whole search matrix with one
    matrix product; ``argpartition`` then finds each query's k-th score, and
    only the rows within ``_SCORE_MARGIN`` of it are rescored and ordered by
    (-score, row), rows being in lexicographic token order.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim != 2 or queries.shape[1] != store.dim:
        raise ValueError(f"query block shape {queries.shape} != (n, {store.dim})")
    if len(excludes) != len(queries):
        raise ValueError(f"{len(excludes)} exclude sets for {len(queries)} queries")
    matrix, tokens, rows = store._search_matrix, store._search_tokens, store._search_rows
    norms = np.linalg.norm(queries, axis=1)
    # a zero-norm query stays zero: every row scores 0 and ties by token
    unit = queries / np.where(norms > 0.0, norms, 1.0)[:, None]
    tile = max(1, _TILE_BYTES // (8 * max(1, len(tokens))))
    results: list[list[tuple[str, float]]] = []
    for start in range(0, len(queries), tile):
        scores = unit[start:start + tile] @ matrix.T
        for i, block_row in enumerate(scores):
            query = unit[start + i]
            excluded = list({rows[t] for t in map(normalize, excludes[start + i])
                             if t in rows})
            block_row[excluded] = -np.inf
            kk = min(k, len(tokens) - len(excluded))
            if kk <= 0:
                results.append([])
                continue
            kth = block_row[np.argpartition(block_row, len(tokens) - kk)[len(tokens) - kk]]
            near = np.flatnonzero(block_row >= kth - _SCORE_MARGIN)
            exact = np.einsum("ij,j->i", matrix[near], query)
            order = np.lexsort((near, -exact))[:kk]
            results.append([(tokens[near[j]], float(exact[j])) for j in order])
    return results
