"""Static word embeddings: text-format loading, vectorization and exact k-NN.

The vector file is the usual text format: a header line ``<count> <dim>``
followed by ``<token> <f1> ... <fdim>`` lines, single-space separated. A whole
file, once parsed, is kept in a sidecar ``<file>.cache`` that later loads map.
Nearest-neighbor search is exact and reproducible, ties broken lexicographically:
the float32 unit rows (n * dim * 4 bytes, built by the parse and kept in the
sidecar) are screened in 256-query x 8192-row blocks, and only the rows within a
proven rounding-error margin of a query's k-th score are scored again in float64.
"""

from __future__ import annotations

import os
import stat
from contextlib import closing
from itertools import chain, count
from pathlib import Path
from typing import Optional

import numpy as np

from .fileio import InputError, load_cached, numbered_lines
from .textnorm import normalize, subtokens

# Changed whenever the parse, ``normalize`` or the payload's layout changes, so that no
# older sidecar is served.
_CACHE_FORMAT = 3
_DUPLICATES = "%s: %d duplicate tokens, each first occurrence kept (first repeat on line %d)"


class EmbeddingFormatError(InputError):
    """Raised for malformed vector files."""


class EmbeddingStore:
    """Immutable token -> vector map: ``matrix`` holds the raw (n, dim) float64
    rows in insertion (file) order, ``index`` maps a token to its row and
    ``norms`` holds the row norms. Zero-norm rows are never neighbors;
    ``rank``, each row's place in lexicographic token order, breaks ties.
    ``unit_rows32`` is ``matrix / norms`` in float32 (zero rows stay zero) and its top norm.
    """

    def __init__(self, index: dict[str, int], matrix: np.ndarray,
                 norms: Optional[np.ndarray] = None, rank: Optional[np.ndarray] = None,
                 unit_rows32: Optional[tuple[np.ndarray, float]] = None):
        """Take ``matrix``, whose rows are in ``index`` order and of norms a search can take
        (``_parse`` checks them), as the layout (read-only from here on), and a sidecar's
        ``norms``, ``rank`` and ``unit_rows32`` as given; any not given is built here."""
        norms = _row_norms(matrix) if norms is None else norms
        if rank is None:
            rank = np.argsort(sorted(range(len(index)), key=list(index).__getitem__))
        if unit_rows32 is None:
            rows, top = np.empty(matrix.shape, np.float32), 0.0
            for i in range(0, len(rows), 8192):
                at, chunk = slice(i, i + 8192), norms[i:i + 8192, None]
                rows[at] = matrix[at] / np.where(chunk > 0.0, chunk, 1.0)
                top = max(top, np.einsum("ij,ij->i", rows[at], rows[at], dtype=np.float64).max())
            rows.flags.writeable = False
            unit_rows32 = rows, float(np.sqrt(top))
        matrix.flags.writeable = False
        self.dim, self.matrix, self.index, self.norms = matrix.shape[1], matrix, index, norms
        self.rank, self.unit_rows32 = rank, unit_rows32

    def __len__(self) -> int:
        return len(self.index)


def _row_norms(matrix: np.ndarray) -> np.ndarray:
    """Each row's norm (inf on overflow), 8192 rows a call: one call's bits, no full-size copy."""
    with np.errstate(over="ignore"):
        return np.concatenate([np.linalg.norm(matrix[i:i + 8192], axis=1)
                               for i in range(0, len(matrix), 8192)] or [np.empty(0)])


def load_embeddings(path: str | Path) -> EmbeddingStore:
    """Load a text-format vector file, tokens in file order.

    Trailing whitespace is ignored, as fastText writes it. The file holds exactly the
    header's count of vector lines; a repeated token keeps its first vector, and each load
    warns of the repeats. The store is kept in the sidecar ``<path>.cache``
    (``fileio.load_cached``), whose matrix later loads map read-only. A source that is not
    a regular file (a pipe) is an ``EmbeddingFormatError`` before any of it is read, as the
    sidecar key and the parse each read the whole file."""
    store, repeats, first = load_cached(path, "vector", {"format": _CACHE_FORMAT},
                                        _parse, _dump, _load)
    if repeats:  # logging takes about 4 ms to import, which only a warning pays
        import logging
        logging.getLogger(__name__).warning(_DUPLICATES, path, repeats, first)
    return store


def _parse(path: Path) -> tuple[EmbeddingStore, int, int]:
    """The store of a text-format file, with the count of repeated tokens and the line of
    the first (0 for none)."""
    if not stat.S_ISREG(os.stat(path).st_mode):
        raise EmbeddingFormatError(f"{path}: not a regular file; save the vectors to one first")
    with closing(numbered_lines(path)) as lines:
        header = next(lines, (1, ""))[1].split()
        if len(header) != 2:
            raise EmbeddingFormatError(f"{path}:1: expected '<count> <dim>' header")
        try:
            count, dim = int(header[0]), int(header[1])
        except ValueError:
            raise EmbeddingFormatError(f"{path}:1: non-numeric header") from None
        if dim <= 0:
            raise EmbeddingFormatError(f"{path}:1: dimension must be positive")
        # a vector line takes 2 * dim + 2 bytes or more: a corrupt count allocates no more
        matrix = np.empty((max(0, min(count, path.stat().st_size // (2 * dim + 2))), dim))
        index: dict[str, int] = {}
        duplicates: list[int] = []
        for lineno, line in lines:
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
    if len(index) + len(duplicates) != count:
        raise EmbeddingFormatError(
            f"{path}: header says {count} vectors, file has {len(index) + len(duplicates)}")
    if not index:
        raise EmbeddingFormatError(f"{path}: no vectors loaded")
    matrix = matrix[:len(index)]
    # a norm overflows exactly when it exceeds sqrt(float max), so rejecting those keeps every
    # dot product of two accepted vectors finite; below 2^-511 the squares leave the normal
    # range and the norm is inexact or 0.0, so a nonzero row there is rejected too
    bad = np.flatnonzero(~np.isfinite(norms := _row_norms(matrix)) | (norms < 2.0 ** -511))
    bad = bad[matrix[bad].any(axis=1)]
    if len(bad):
        raise EmbeddingFormatError(f"{path}: token {list(index)[bad[0]]!r}: non-finite entry,"
                                   f" or norm overflow or below 2^-511")
    return EmbeddingStore(index, matrix, norms), len(duplicates), min(duplicates, default=0)


def _dump(parsed: tuple[EmbeddingStore, int, int]) -> tuple[dict, list]:
    """A ``_parse``'s sidecar fields and payload: the float64 matrix, its float64 row norms, the
    int64 token rank and the float32 unit rows, each little-endian, then the tokens, each
    ending in ``\\n`` (which ``normalize`` removes); the largest float32 row norm is a field."""
    store, repeats, first = parsed
    (rows32, top), arrays = store.unit_rows32, (store.matrix, store.norms, store.rank)
    return ({"rows": len(store), "dim": store.dim, "duplicates": repeats, "first_repeat": first,
             "top_norm": top},
            [*(memoryview(a.astype(dtype, copy=False)).cast("B")
               for a, dtype in zip((*arrays, rows32), ("<f8", "<f8", "<i8", "<f4"))),
             "".join(t + "\n" for t in store.index).encode("utf-8")])


def _load(payload, fields: dict, cache: Path) -> tuple[EmbeddingStore, int, int]:
    """What ``_parse`` gave, from a sidecar's fields and checked payload (its arrays mapped)."""
    rows, dim = fields["rows"], fields["dim"]
    matrix = np.frombuffer(payload, "<f8", rows * dim).reshape(rows, dim)
    norms = np.frombuffer(payload, "<f8", rows, matrix.nbytes)
    rank = np.frombuffer(payload, "<i8", rows, matrix.nbytes + norms.nbytes)
    rows32 = np.frombuffer(payload, "<f4", rows * dim, at := matrix.nbytes + 2 * norms.nbytes)
    tokens = str(payload[at + rows32.nbytes:], "utf-8").split("\n")[:-1]
    return (EmbeddingStore(dict(zip(tokens, range(rows))), matrix, norms, rank,
                           (rows32.reshape(rows, dim), fields["top_norm"])),
            fields["duplicates"], fields["first_repeat"])


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


def distinct_rows(items: list) -> tuple[list, np.ndarray]:
    """The distinct ``items`` in order of first appearance, and each item's row among them."""
    row_of = dict(zip(dict.fromkeys(items), count()))
    return list(row_of), np.fromiter(map(row_of.__getitem__, items), np.intp, len(items))


def vector_table(vectors: list[Optional[np.ndarray]], dim: int) -> tuple[np.ndarray, np.ndarray]:
    """(rows, norms) of ``vectors`` as ``pair_cosines`` reads them, each norm the
    ``np.linalg.norm`` of its vector alone (the store's row ``norms`` may differ in the last
    bit); a None vector is a zero row of norm 0."""
    zero = np.zeros(dim)
    return (np.array([zero if vec is None else vec for vec in vectors]).reshape(-1, dim),
            np.array([0.0 if vec is None else np.linalg.norm(vec) for vec in vectors],
                     dtype=np.float64))


def centroid_table(store: EmbeddingStore,
                   synsets: list[tuple[str, ...]]) -> tuple[np.ndarray, np.ndarray]:
    """The ``vector_table`` of the synsets' centroids, each the mean of its lemmas' resolvable
    ``word_vector``s (each distinct lemma resolved once), or a zero row of norm 0. The synsets
    of m resolvable lemmas are gathered ``_PAIR_CHUNK // m`` at a time as an (n, m, dim)
    block, summed over m and divided by m: the bits of ``np.mean`` of the m vectors, which
    ``np.add.reduceat`` would sum in another order. A norm is ``np.sqrt(c.dot(c))``, the bits
    of ``np.linalg.norm(c)``."""
    resolved = {lemma: vec for lemma in dict.fromkeys(chain.from_iterable(synsets))
                if (vec := word_vector(store, lemma)) is not None}
    row_of, groups, out = dict(zip(resolved, count())), {}, np.zeros((len(synsets), store.dim))
    for at, lemmas in enumerate(synsets):
        if rows := [row_of[lemma] for lemma in lemmas if lemma in row_of]:
            groups.setdefault(len(rows), []).append((at, rows))
    table = np.array(list(resolved.values())).reshape(-1, store.dim)
    for m, group in groups.items():
        for i in range(0, len(group), step := _PAIR_CHUNK // m or 1):
            members, gather = zip(*group[i:i + step])
            out[list(members)] = table[np.array(gather)].sum(axis=1) / m
    return out, np.sqrt([c.dot(c) for c in out])


# Pairs per chunk of ``pair_cosines``: each of its two gathered blocks is at most
# 1024 x dim x 8 bytes, 2.4 MB at 300 dimensions.
_PAIR_CHUNK = 1024


def pair_cosines(left: tuple[np.ndarray, np.ndarray], right: tuple[np.ndarray, np.ndarray],
                 left_rows, right_rows) -> np.ndarray:
    """cosine(left row ``left_rows[t]``, right row ``right_rows[t]``) for each t, where
    ``left`` and ``right`` are ``vector_table``s: the row-wise ``einsum`` dot product of the
    two rows over the product of their norms, 0.0 where either norm is 0.

    Pairs are gathered ``_PAIR_CHUNK`` at a time. A row's sum order depends on the
    dimension only, never on the other rows, so a pair has the same bits alone, in any
    batch and on either side of a chunk boundary."""
    (a, a_norms), (b, b_norms) = left, right
    left_rows, right_rows = np.asarray(left_rows, np.intp), np.asarray(right_rows, np.intp)
    out = np.zeros(len(left_rows))
    for start in range(0, len(out), _PAIR_CHUNK):
        i, j = left_rows[start:start + _PAIR_CHUNK], right_rows[start:start + _PAIR_CHUNK]
        ni, nj = a_norms[i], b_norms[j]
        np.divide(np.einsum("ij,ij->i", a[i], b[j]), ni * nj,
                  out=out[start:start + len(i)], where=(ni != 0.0) & (nj != 0.0))
    return out


# Queries per tile and vocabulary rows per block: one float32 score block is
# 256 x 8192 x 4 bytes = 8 MiB at any vocabulary size.
_QUERY_TILE, _ROW_BLOCK = 256, 8192


def _floor(kth: np.ndarray, margin: np.ndarray) -> np.ndarray:
    """``kth - margin`` rounded down to float32, and above -inf so that no masked row passes."""
    floor = np.nextafter((kth - margin).astype(np.float32), -np.inf)
    return np.maximum(floor, np.finfo(np.float32).min)


def _screen(scores: np.ndarray, top: np.ndarray, margin: np.ndarray):
    """(query, column, score) of each score of a tile's float32 block at or above its query's
    floor, merged into ``top`` (each query's k best scores so far, descending, -inf where fewer)
    by one sort. The floor is ``margin`` below the larger of ``top``'s k-th and the k-th largest
    maximum of max(256, k) strided column groups (or columns) of the block: no partition."""
    (nq, width), k, g = scores.shape, top.shape[1], max(256, top.shape[1])
    groups = scores[:, :width // g * g].reshape(nq, -1, g).max(axis=1) if width >= g else scores
    bound = np.sort(groups, axis=1)[:, -k] if groups.shape[1] >= k else np.float32(-np.inf)
    flat = np.flatnonzero(scores >= _floor(np.maximum(top[:, -1], bound), margin)[:, None])
    qi, col = np.divmod(flat, width)
    merged = np.concatenate((top.ravel(), found := scores.ravel()[flat]))
    order = np.lexsort((-merged, q := np.concatenate((np.repeat(np.arange(nq), k), qi))))
    top[:] = merged[order[np.searchsorted(q[order], np.arange(nq))[:, None] + np.arange(k)]]
    return qi, col, found


def batch_nearest_neighbors(store: EmbeddingStore, queries: np.ndarray, k: int,
                            excludes: list[set[str]]) -> list[list[tuple[str, float]]]:
    """The top-k vocabulary tokens by cosine to each row of an (n, dim) query block,
    descending; fewer than k if the vocabulary is small.

    ``excludes`` holds one set of store tokens per query, each looked up as given (a
    second ``normalize`` may change a token); excluded tokens and zero-norm vectors
    never appear, and ties are broken by lexicographic token order. Each tile of
    ``_QUERY_TILE`` unit queries is screened in float32 against ``unit_rows32`` in
    blocks of ``_ROW_BLOCK`` rows, excluded and zero-norm rows at -inf; the finite
    scores within the margin of a query's k-th are rescored from the float64 rows and
    ordered by (-score, rank).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim != 2 or queries.shape[1] != store.dim:
        raise ValueError(f"query block shape {queries.shape} != (n, {store.dim})")
    if len(excludes) != len(queries):
        raise ValueError(f"{len(excludes)} exclude sets for {len(queries)} queries")
    index, norms, n = store.index, store.norms, len(store)
    if n == 0:
        return [[] for _ in queries]
    tokens, dead = list(index), np.flatnonzero(norms == 0.0)
    rows32, row_norm = store.unit_rows32
    qnorms = np.linalg.norm(queries, axis=1)
    # a zero-norm query stays zero: every row scores 0 and ties by token
    unit = queries / np.where(qnorms > 0.0, qnorms, 1.0)[:, None]
    # |float32 score - rescored score| <= gamma_{dim+2} |q32| |r32| in any summation
    # order, u = 2^-24: the rounding of both inputs and a dim-term dot product; its
    # second-order slack covers the float64 arithmetic. A row of the true top k
    # trails the k-th float32 score by at most the errors of two rows, hence the 2.
    u = (store.dim + 2) * 2.0 ** -24
    bound = 2.0 * u / (1.0 - u) * row_norm
    results: list[list[tuple[str, float]]] = []
    for start in range(0, len(queries), _QUERY_TILE):
        tile = unit[start:start + _QUERY_TILE]
        q32 = tile.astype(np.float32)
        margin = bound * np.linalg.norm(q32.astype(np.float64), axis=1)
        ex_q, ex_row = np.array(
            [(i, index[t]) for i, ex in enumerate(excludes[start:start + len(tile)])
             for t in ex if t in index], dtype=np.intp).reshape(-1, 2).T
        top, kept = np.full((len(tile), min(k, n)), -np.inf, np.float32), []
        for b in range(0, n, _ROW_BLOCK):
            scores = q32 @ rows32[b:b + _ROW_BLOCK].T
            scores[:, dead[(dead >= b) & (dead < b + _ROW_BLOCK)] - b] = -np.inf
            here = (ex_row >= b) & (ex_row < b + _ROW_BLOCK)
            scores[ex_q[here], ex_row[here] - b] = -np.inf
            qi, col, screened = _screen(scores, top, margin)
            kept.append((qi, col + b, screened))
        # the running k-th score only rises: keep what is within the final margin
        qi, near, screened = map(np.concatenate, zip(*kept))
        final = screened >= _floor(top[:, -1], margin)[qi]
        qi, near = qi[final], near[final]
        # each survivor rescored as one row: a zero query stays 0.0 against all of them
        exact, live = np.zeros(len(near)), np.flatnonzero(tile.any(axis=1)[qi])
        for i in range(0, len(live), _PAIR_CHUNK):
            at = live[i:i + _PAIR_CHUNK]
            rows = near[at]
            exact[at] = np.einsum("ij,ij->i", store.matrix[rows] / norms[rows, None], tile[qi[at]])
        order = np.lexsort((store.rank[near], -exact, qi))
        qi, near, exact = qi[order], near[order], exact[order]
        top = np.arange(len(qi)) - np.searchsorted(qi, qi) < k  # each query's first k rows
        found = [(tokens[r], s) for r, s in zip(near[top].tolist(), exact[top].tolist())]
        ends = np.cumsum(np.bincount(qi[top], minlength=len(tile))).tolist()
        results.extend(found[a:b] for a, b in zip([0, *ends], ends))
    return results
