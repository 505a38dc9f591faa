import logging
import math
import os
import re
import tempfile
import tracemalloc
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taxoenrich import embeddings, fileio
from taxoenrich.embeddings import (
    EmbeddingFormatError,
    batch_nearest_neighbors,
    centroid_table,
    load_embeddings,
    pair_cosines,
    vector_table,
    word_vector,
)
from taxoenrich.textnorm import normalize

from conftest import cosine, make_store, write_embeddings_file


def simple_store():
    return make_store(2, {"a": np.array([1.0, 0.0]),
                          "b": np.array([0.9, 0.1]),
                          "c": np.array([0.0, 1.0])})


class TestLoad:
    def test_basic_file(self, tmp_path):
        path = write_embeddings_file(tmp_path / "v.txt",
                                     [("a", [1, 0]), ("b", [0, 1]), ("c", [1, 1])])
        store = load_embeddings(path)
        assert store.dim == 2
        assert len(store) == 3
        assert np.array_equal(word_vector(store, "c"), [1.0, 1.0])

    def test_dimension_mismatch_reports_line(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("2 2\na 1 0\nb 1 0 0\n")
        with pytest.raises(EmbeddingFormatError, match=":3"):
            load_embeddings(path)

    def test_non_numeric_entry(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("1 2\na 1 oops\n")
        with pytest.raises(EmbeddingFormatError, match="non-numeric"):
            load_embeddings(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("0 2\n")
        with pytest.raises(EmbeddingFormatError):
            load_embeddings(path)

    def test_duplicate_token_first_wins(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("2 2\na 1 0\na 0 1\n")
        store = load_embeddings(path)
        assert np.array_equal(word_vector(store, "a"), [1.0, 0.0])


class TestWordVector:
    def test_known_token(self):
        store = simple_store()
        assert np.array_equal(word_vector(store, "a"), [1.0, 0.0])

    def test_case_normalized(self):
        store = simple_store()
        assert np.array_equal(word_vector(store, "A"), [1.0, 0.0])

    def test_multiword_mean_fallback(self):
        store = simple_store()
        vec = word_vector(store, "a_c")
        assert np.allclose(vec, [0.5, 0.5])

    def test_hyphen_fallback_partial(self):
        store = simple_store()
        assert np.array_equal(word_vector(store, "a-zzz"), [1.0, 0.0])

    def test_unknown_token(self):
        assert word_vector(simple_store(), "zzz") is None


class TestSynsetVector:
    def test_mean_of_lemmas(self):
        assert np.allclose(centroid_table(simple_store(), [("a", "c")])[0][0], [0.5, 0.5])

    def test_single_lemma_identity(self):
        assert np.array_equal(centroid_table(simple_store(), [("a",)])[0][0], [1.0, 0.0])

    def test_all_oov_is_a_zero_row_of_norm_0(self):
        rows, norms = centroid_table(simple_store(), [("xx", "yy")])
        assert not rows[0].any() and norms[0] == 0.0

    def test_shared_vector_exact(self):
        store = make_store(2, {"x": np.array([0.3, 0.4]), "y": np.array([0.3, 0.4])})
        assert np.array_equal(centroid_table(store, [("x", "y")])[0][0], [0.3, 0.4])


class TestCosine:
    """``pair_cosines`` on one pair, through conftest's ``cosine``."""

    def test_self_similarity(self):
        u = np.array([0.2, -1.3, 4.0])
        assert cosine(u, u) == pytest.approx(1.0, abs=1e-9)

    def test_orthogonal(self):
        assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_closed_form(self):
        assert cosine(np.array([1.0, 1.0]), np.array([1.0, 0.0])) == pytest.approx(
            math.sqrt(2) / 2, abs=1e-9)

    def test_zero_norm_is_zero(self):
        assert cosine(np.zeros(3), np.array([1.0, 2.0, 3.0])) == 0.0

    def test_scale_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            u = rng.normal(size=5)
            v = rng.normal(size=5)
            alpha = float(rng.uniform(0.01, 100))
            assert cosine(alpha * u, v) == pytest.approx(cosine(u, v), abs=1e-9)


def search_one(store, query, k, exclude=frozenset()):
    """One query's neighbors: a one-row ``batch_nearest_neighbors`` block."""
    return batch_nearest_neighbors(store, np.asarray(query, dtype=np.float64)[None, :], k,
                                   [exclude])[0]


class TestNearestNeighbors:
    def test_derived_three_token_example(self):
        # hand-computed: cos(query, a)=1.0, cos(query, b)=0.9/sqrt(0.82)~0.9939,
        # cos(query, c)=0.0
        store = simple_store()
        query = np.array([1.0, 0.0])
        result = search_one(store, query, 2, exclude={"a"})
        assert [tok for tok, _ in result] == ["b", "c"]
        assert result[0][1] == pytest.approx(0.9 / math.sqrt(0.82), abs=1e-9)
        assert result[1][1] == pytest.approx(0.0, abs=1e-12)

    def test_exclude_all(self):
        store = simple_store()
        assert search_one(store, np.array([1.0, 0.0]), 3, exclude={"a", "b", "c"}) == []

    def test_query_token_excluded(self):
        store = simple_store()
        result = search_one(store, word_vector(store, "a"), 3, exclude={"a"})
        assert "a" not in [tok for tok, _ in result]

    def test_zero_vector_excluded_from_search(self):
        store = make_store(2, {"a": np.array([1.0, 0.0]),
                               "z": np.array([0.0, 0.0])})
        result = search_one(store, np.array([1.0, 0.0]), 5)
        assert [tok for tok, _ in result] == ["a"]

    def test_result_invariants_random(self):
        rng = np.random.default_rng(42)
        for trial in range(30):
            n = int(rng.integers(1, 60))
            store = make_store(4, {f"t{i}": rng.normal(size=4) for i in range(n)})
            query = rng.normal(size=4)
            k = int(rng.integers(1, 15))
            exclude = {f"t{i}" for i in range(n) if rng.random() < 0.2}
            result = search_one(store, query, k, exclude=exclude)
            sims = [s for _, s in result]
            assert sims == sorted(sims, reverse=True)
            assert not ({tok for tok, _ in result} & exclude)
            assert len(result) == min(k, n - len(exclude))

    def test_matches_naive_full_sort_oracle(self):
        rng = np.random.default_rng(7)
        for trial in range(40):
            n = int(rng.integers(2, 200))
            vectors = {f"t{i:03d}": rng.normal(size=3) for i in range(n)}
            # inject exact duplicates to force ties
            if n > 4:
                vectors["t000"] = vectors["t001"].copy()
            store = make_store(3, vectors)
            query = rng.normal(size=3)
            k = int(rng.integers(1, 12))
            naive = sorted(((tok, cosine(query, vec)) for tok, vec in vectors.items()),
                           key=lambda item: (-item[1], item[0]))[:k]
            result = search_one(store, query, k)
            assert [tok for tok, _ in result] == [tok for tok, _ in naive]
            for (_, got), (_, want) in zip(result, naive):
                assert got == pytest.approx(want, abs=1e-12)


class TestLoadFastTextStyle:
    def test_trailing_space_accepted(self, tmp_path):
        path = tmp_path / "v.vec"
        path.write_text("2 2\na 1 0 \nb 0.5 1 \n")
        store = load_embeddings(path)
        assert np.array_equal(word_vector(store, "b"), [0.5, 1.0])

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "v.vec"
        path.write_text("3 2\na 1 0\nb 0 1\n")
        with pytest.raises(EmbeddingFormatError, match="header says 3"):
            load_embeddings(path)

    def test_more_lines_than_header_rejected(self, tmp_path):
        path = tmp_path / "v.vec"
        path.write_text("1 2\na 1 0\nb 0 1\n")
        with pytest.raises(EmbeddingFormatError, match="header says 1"):
            load_embeddings(path)


def naive_neighbors(vectors, query, k, exclude):
    """Full sort of every searchable, non-excluded token by cosine."""
    scored = [(tok, cosine(query, vec)) for tok, vec in vectors.items()
              if tok not in exclude and np.linalg.norm(vec) > 0.0]
    return sorted(scored, key=lambda item: (-item[1], item[0]))[:k]


def assert_same_neighbors(result, naive):
    assert [tok for tok, _ in result] == [tok for tok, _ in naive]
    for (_, got), (_, want) in zip(result, naive):
        assert got == pytest.approx(want, abs=1e-12)


class TestBatchedSearch:
    @pytest.mark.parametrize("seed", range(6))
    def test_small_blocks_match_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        vectors = {f"t{i:02d}": rng.normal(size=3) for i in range(n)}
        tokens = sorted(vectors)
        for i in range(0, n - 1, 3):  # exact duplicates tie on score
            vectors[tokens[i + 1]] = vectors[tokens[i]].copy()
        vectors["zero"] = np.zeros(3)
        store = make_store(3, vectors)
        queries = [rng.normal(size=3) for _ in range(5)]
        queries += [np.zeros(3), vectors[tokens[0]].copy()]
        for k in (1, 3, n + 5):
            excludes = []
            for q in queries:
                top = [tok for tok, _ in naive_neighbors(vectors, q, k, set())]
                excludes.append(set(top) | {tokens[int(rng.integers(n))]})
            results = batch_nearest_neighbors(store, np.array(queries), k, excludes)
            for q, exclude, result in zip(queries, excludes, results):
                assert_same_neighbors(result, naive_neighbors(vectors, q, k, exclude))
                assert result == search_one(store, q, k, exclude)

    def test_many_tiles_match_oracle(self):
        # tiles of 256 queries: 400 queries span two, the second one partial
        rng = np.random.default_rng(11)
        base = {f"t{i:04d}": rng.normal(size=4) for i in range(3000)}
        vectors = dict(base)
        for i in range(0, 3000, 7):
            vectors[f"t{i:04d}"] = base[f"t{(i + 1) % 3000:04d}"].copy()
        store = make_store(4, vectors)
        tokens = sorted(vectors)
        queries = rng.normal(size=(400, 4))
        queries[::50] = 0.0
        queries[1::50] = vectors["t0001"]
        excludes = [{tokens[j] for j in rng.integers(0, 3000, size=int(rng.integers(0, 4)))}
                    for _ in range(400)]
        results = batch_nearest_neighbors(store, queries, 8, excludes)
        assert len(results) == 400
        # the same full sort as naive_neighbors, with numpy cosines: a row-wise
        # reduction gives exact duplicates bitwise-equal scores
        matrix = np.array([vectors[t] for t in tokens])
        norms = np.linalg.norm(matrix, axis=1)
        for q, exclude, result in zip(queries, excludes, results):
            qnorm = np.linalg.norm(q)
            sims = (np.einsum("ij,j->i", matrix, q) / (norms * qnorm) if qnorm > 0.0
                    else np.zeros(len(tokens)))
            order = [i for i in np.lexsort((np.arange(len(tokens)), -sims))
                     if tokens[i] not in exclude][:8]
            assert_same_neighbors(result, [(tokens[i], float(sims[i])) for i in order])

    def test_near_ties_resolve_like_full_rescoring(self):
        # twins a few ulps apart: matrix-product and row-wise scores can order
        # a twin pair differently, and the row-wise order must win
        rng = np.random.default_rng(3)
        vectors = {}
        for i, vec in enumerate(rng.normal(size=(100, 300))):
            twin = vec.copy()
            at = rng.integers(0, 300, size=3)
            twin[at] = np.nextafter(twin[at], np.inf)
            vectors[f"t{2 * i:03d}"], vectors[f"t{2 * i + 1:03d}"] = vec, twin
        tokens = sorted(vectors)
        matrix = np.stack([vectors[t] for t in tokens])
        matrix = matrix / np.linalg.norm(matrix, axis=1, keepdims=True)
        queries = matrix + 1e-3 * rng.normal(size=matrix.shape)
        results = batch_nearest_neighbors(make_store(300, vectors), queries, 1,
                                          [set()] * len(queries))
        units = queries / np.linalg.norm(queries, axis=1, keepdims=True)
        for q, result in zip(units, results):
            sims = np.einsum("ij,j->i", matrix, q)
            best = np.lexsort((np.arange(len(tokens)), -sims))[0]
            assert result == [(tokens[best], float(sims[best]))]

    def test_real_row_block_boundary_matches_oracle(self):
        # 8192 + 2000 rows: the second row block holds near-twins of the first
        # 2000 rows, a few float32 ulps apart, whose float32 order is noise
        rng = np.random.default_rng(5)
        matrix = rng.normal(size=(8192 + 2000, 4))
        matrix[8192:] = matrix[:2000] * (1.0 + 1e-6 * rng.normal(size=(2000, 4)))
        matrix[100::1000] = 0.0
        tokens = [f"t{i:05d}" for i in reversed(range(len(matrix)))]
        store = make_store(4, dict(zip(tokens, matrix)))
        near = rng.integers(0, 2000, size=300)
        queries = matrix[near] + 1e-3 * rng.normal(size=(300, 4))
        queries[::60] = 0.0
        excludes = [{tokens[j]} if i % 3 else set() for i, j in enumerate(near)]
        for k in (1, 5):
            results = batch_nearest_neighbors(store, queries, k, excludes)
            for q, exclude, result in zip(queries, excludes, results):
                assert result == rescored_oracle(store, q, k, exclude)

    def test_only_rows_within_the_final_margin_are_rescored(self, monkeypatch):
        # every 5-row block holds rows nearer the query than the block before, so
        # each block raises the k-th score past what the earlier blocks kept
        angles = np.linspace(1.5, 0.0, 40)
        store = make_store(2, {f"t{i:02d}": np.array([np.cos(a), np.sin(a)])
                               for i, a in enumerate(angles)})
        monkeypatch.setattr(embeddings, "_QUERY_TILE", 3)
        monkeypatch.setattr(embeddings, "_ROW_BLOCK", 5)
        rescored, einsum = [], np.einsum

        def counting_einsum(spec, rows, *operands, **kwargs):
            rescored.append(len(rows))
            return einsum(spec, rows, *operands, **kwargs)
        store.unit_rows32  # built before counting starts
        monkeypatch.setattr(np, "einsum", counting_einsum)
        results = batch_nearest_neighbors(store, np.array([[1.0, 0.0]] * 4), 2, [set()] * 4)
        assert results == [[("t39", 1.0), ("t38", pytest.approx(np.cos(angles[38])))]] * 4
        # one rescoring per tile (3 queries, then 1), of 2 survivors per query
        assert rescored == [6, 2]

    def test_screen_errors_up_to_the_bound_still_give_the_exact_top(self):
        # the margin's contract, whatever the BLAS: a float32 copy whose scores
        # err by up to gamma_{dim+2} |q32| |r32| per row still gives the exact
        # top k. Here each row's copy is scaled by 1 -/+ 0.7 gamma, down for the
        # first of each pair of duplicates and up for the second, so near the
        # query they err by about 0.7 of the bound in opposite directions; with a
        # margin of one bound instead of two, the first would be lost.
        rng = np.random.default_rng(8)
        dim, base = 50, rng.normal(size=(20, 50))
        tokens = [f"t{i:02d}" for i in range(40)]
        store = make_store(dim, dict(zip(tokens, np.repeat(base, 2, axis=0))))
        u = (dim + 2) * 2.0 ** -24
        rows32 = store.unit_rows32[0].astype(np.float64)
        rows32 *= 1.0 + np.tile([-0.7, 0.7], 20)[:, None] * u / (1.0 - u)
        rows32 = rows32.astype(np.float32)
        store.unit_rows32 = rows32, np.linalg.norm(rows32.astype(np.float64), axis=1).max()
        queries = base + 1e-3 * rng.normal(size=base.shape)
        units = queries / np.linalg.norm(queries, axis=1)[:, None]
        q32 = units.astype(np.float32)
        errors = (q32 @ rows32.T).astype(np.float64) - np.stack(
            [np.einsum("ij,j->i", store.matrix / store.norms[:, None], q) for q in units])
        bounds = u / (1.0 - u) * np.outer(np.linalg.norm(q32.astype(np.float64), axis=1),
                                          np.linalg.norm(rows32.astype(np.float64), axis=1))
        assert (np.abs(errors) <= bounds).all()
        for k in (1, 2, 3):
            results = batch_nearest_neighbors(store, queries, k, [set()] * 20)
            for q, result in zip(queries, results):
                assert result == rescored_oracle(store, q, k, set())

    def test_no_queries(self):
        assert batch_nearest_neighbors(simple_store(), np.zeros((0, 2)), 3, []) == []

    def test_bad_shapes_rejected(self):
        with pytest.raises(ValueError):
            batch_nearest_neighbors(simple_store(), np.zeros(2), 1, [set()])
        with pytest.raises(ValueError):
            batch_nearest_neighbors(simple_store(), np.zeros((2, 2)), 1, [set()])
        with pytest.raises(ValueError):
            batch_nearest_neighbors(simple_store(), np.zeros((1, 2)), 0, [set()])


def rescored_oracle(store, query, k, exclude):
    """The full float64 sort by (-score, token) of every searchable row not in
    ``exclude``, each scored as the search rescores its survivors."""
    qnorm = np.linalg.norm(query[None, :], axis=1)[0]
    unit = query / qnorm if qnorm > 0.0 else query
    tokens = np.array(list(store.index))
    live = np.flatnonzero((store.norms > 0.0) & ~np.isin(tokens, list(exclude)))
    sims = np.einsum("ij,j->i", store.matrix[live] / store.norms[live, None], unit)
    order = np.lexsort((tokens[live], -sims))[:k]
    return [(str(tokens[live[i]]), float(sims[i])) for i in order]


class TestZeroNormQuery:
    """A zero-norm query scores 0.0 against every row: its answer is the first k
    live, non-excluded rows in token order, found without rescoring any row."""

    def test_same_answer_as_full_rescoring(self):
        rng = np.random.default_rng(5)
        names = [f"t{i:02d}" for i in rng.permutation(30)]  # file order is not token order
        vectors = {name: -np.abs(rng.normal(size=4)) for name in names}
        for name in names[::4]:
            vectors[name] = np.zeros(4)
        store = make_store(4, vectors)
        queries = np.array([[0.0, -0.0, 0.0, -0.0], np.zeros(4), -np.zeros(4)])
        for k in (1, 5, 40):
            excludes = [set(), {"t00", "t01", "t05"}, set(names[:20])]
            results = batch_nearest_neighbors(store, queries, k, excludes)
            for q, exclude, result in zip(queries, excludes, results):
                want = rescored_oracle(store, q, k, exclude)
                assert [(t, repr(x)) for t, x in result] == [(t, repr(x)) for t, x in want]

    def test_search_peak_stays_below_one_copy_of_the_matrix(self):
        rng = np.random.default_rng(6)
        store = make_store(64, {f"w{i}": rng.normal(size=64) for i in range(20000)})
        store.unit_rows32  # the float32 copy is built once per store, not per query
        tracemalloc.start()
        try:
            result, = batch_nearest_neighbors(store, np.zeros((1, 64)), 10, [{"w1"}])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result == [(t, 0.0) for t in sorted(set(store.index) - {"w1"})[:10]]
        assert peak < store.matrix.nbytes


@st.composite
def search_cases(draw):
    """(vectors in file order, queries, excludes, k) with the cases a float32 screen
    can get wrong: twins a few float64 ulps or about a float32 ulp apart, positive
    and negative multiples of a row, zero rows and queries, excluded rows, and k
    above the number of searchable rows."""
    dim = draw(st.integers(1, 4))
    value = st.floats(-8.0, 8.0).map(lambda x: x if abs(x) > 1e-30 else 0.0)
    rows = draw(st.lists(st.lists(value, min_size=dim, max_size=dim).map(np.array),
                         min_size=1, max_size=10))
    for src in draw(st.lists(st.integers(0, len(rows) - 1), max_size=8)):
        kind, vec = draw(st.sampled_from(["twin", "multiple", "zero"])), rows[src].copy()
        if kind == "twin":  # a zero entry stays zero, so that no row underflows
            at = draw(st.integers(0, dim - 1))
            if vec[at]:
                vec[at] += draw(st.sampled_from([1, 3, 1 << 20, 1 << 29])) * np.spacing(vec[at])
        elif kind == "multiple":
            vec *= draw(st.sampled_from([2.0, 0.5, 3.0, -1.0, -0.25]))
        else:
            vec[:] = 0.0
        rows.append(vec)
    names = [f"t{i:02d}" for i in draw(st.permutations(range(len(rows))))]
    vectors = dict(zip(names, rows))
    pick = st.sampled_from(rows)
    queries = draw(st.lists(st.one_of(pick, pick.map(np.negative), st.just(np.zeros(dim)),
                                      st.lists(value, min_size=dim, max_size=dim).map(np.array)),
                            min_size=1, max_size=8))
    excludes = draw(st.lists(st.sets(st.sampled_from(names), max_size=3),
                             min_size=len(queries), max_size=len(queries)))
    return vectors, np.array(queries), excludes, draw(st.integers(1, len(rows) + 2))


@given(search_cases())
@settings(max_examples=300, deadline=None)
def test_small_tiles_and_blocks_match_full_rescoring(case):
    vectors, queries, excludes, k = case
    store = make_store(queries.shape[1], vectors)
    with patch.multiple(embeddings, _QUERY_TILE=3, _ROW_BLOCK=5):
        results = batch_nearest_neighbors(store, queries, k, excludes)
    for q, exclude, result in zip(queries, excludes, results):
        assert result == rescored_oracle(store, q, k, exclude)


@st.composite
def screen_blocks(draw):
    """(k, margin, score blocks) of one tile for ``_screen``: scores of a few levels (ties
    within a block, across its column groups and across blocks, and runs of the top level
    that a block boundary cuts), or normal; columns at -inf for every query (zero-norm rows)
    and single scores at -inf (excluded rows); k from 1 to past 256 (where the groups are k
    wide), past the columns too, and blocks narrower and wider than the groups."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    queries, k = draw(st.integers(1, 3)), draw(st.sampled_from([1, 2, 3, 10, 257, 300]))
    levels = draw(st.sampled_from([None, [0.0, 0.25, 0.5], [-1.0, 0.0, 0.5, 0.75, 1.0]]))
    blocks = []
    for width in draw(st.lists(st.sampled_from([1, 3, 40, 255, 256, 257, 600]),
                               min_size=1, max_size=4)):
        scores = (rng.normal(size=(queries, width)) if levels is None
                  else rng.choice(levels, size=(queries, width)))
        if draw(st.booleans()):  # a run of the top level across the boundary before it
            scores[:, :3] = 2.0
            if blocks:
                blocks[-1][:, -3:] = 2.0
        scores[:, rng.random(width) < draw(st.sampled_from([0.0, 0.2, 1.0]))] = -np.inf
        scores[rng.random((queries, width)) < draw(st.sampled_from([0.0, 0.2]))] = -np.inf
        blocks.append(scores.astype(np.float32))
    margin = draw(st.sampled_from([0.0, 1e-6, 0.3, 1.0])) * rng.random(queries)
    return k, margin, blocks


@given(screen_blocks())
@settings(max_examples=300, deadline=None)
def test_the_screen_keeps_the_top_k_and_every_score_within_the_margin(case):
    """After every block, ``top`` is each query's k best scores of a full sort so far, and the
    survivors hold every finite score at or above the floor of the true k-th score (the final
    filter's), each once, with its own value."""
    k, margin, blocks = case
    top, kept, seen = np.full((len(margin), k), -np.inf, np.float32), set(), []
    for scores in blocks:
        qi, col, found = embeddings._screen(scores.copy(), top, margin)
        assert np.isfinite(found).all() and (found == scores[qi, col]).all()
        cols = sum(block.shape[1] for block in seen)
        kept.update(zip(qi.tolist(), (col + cols).tolist()))
        assert len(set(zip(qi.tolist(), col.tolist()))) == len(qi)
        seen.append(scores)
        full = np.concatenate(seen, axis=1)
        want = np.full((len(margin), k), -np.inf, np.float32)
        want[:, :min(k, full.shape[1])] = -np.sort(-full, axis=1)[:, :k]
        assert top.tobytes() == want.tobytes()
        floor = embeddings._floor(want[:, -1], margin)
        assert {(q, c) for q, c in kept if full[q, c] >= floor[q]} == \
            set(zip(*(a.tolist() for a in np.nonzero(full >= floor[:, None]))))


@st.composite
def wide_search_cases(draw):
    """(vectors, queries, excludes, k) of any width from 1 to 301: random rows with
    exact duplicates (score ties), zero rows and zero queries, and k up to above the
    number of searchable rows."""
    dim, n = draw(st.integers(1, 301)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rows = rng.normal(size=(n, dim)) * rng.choice([1e-3, 1.0, 1e3], size=(n, 1))
    for src, dst in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                  max_size=4)):
        rows[dst] = rows[src]
    rows[sorted(draw(st.sets(st.integers(0, n - 1), max_size=2)))] = 0.0
    names = [f"t{i:02d}" for i in draw(st.permutations(range(n)))]
    queries = rng.normal(size=(draw(st.integers(1, 8)), dim))
    for i in draw(st.sets(st.integers(0, len(queries) - 1), max_size=3)):
        queries[i] = draw(st.sampled_from([0.0, -1.0, 2.0])) * rows[int(rng.integers(n))]
    excludes = [set(rng.choice(names, size=int(rng.integers(0, 3)))) for _ in queries]
    return dict(zip(names, rows)), queries, excludes, draw(st.integers(1, n + 3))


@given(wide_search_cases(), st.integers(1, 7))
@settings(max_examples=120, deadline=None)
def test_batched_rescoring_has_the_bits_of_the_per_query_form(case, chunk):
    """A tile's survivors are rescored in one row-wise einsum, in chunks, and ordered by
    one lexsort: every score must have the bits of the per-query ``einsum("ij,j->i")``."""
    vectors, queries, excludes, k = case
    store = make_store(queries.shape[1], vectors)
    with patch.multiple(embeddings, _QUERY_TILE=3, _ROW_BLOCK=5, _PAIR_CHUNK=chunk):
        results = batch_nearest_neighbors(store, queries, k, excludes)
    for q, exclude, result in zip(queries, excludes, results):
        assert result == rescored_oracle(store, q, k, exclude)


def cosine_tables(rng, dim, n):
    """A ``vector_table`` of n rows of mixed scale, row 0 all zero, and its rows."""
    rows = rng.normal(size=(n, dim)) * rng.choice([1e-3, 1.0, 1e3], size=(n, 1))
    rows[0] = 0.0
    return vector_table(list(rows), dim), rows


class TestPairCosines:
    @given(dim=st.integers(1, 301), seed=st.integers(0, 2 ** 32 - 1), chunk=st.integers(1, 9))
    @settings(max_examples=80, deadline=None)
    def test_same_bits_alone_in_a_batch_and_across_chunks(self, dim, seed, chunk):
        rng = np.random.default_rng(seed)
        (left, a), (right, b) = cosine_tables(rng, dim, 6), cosine_tables(rng, dim, 5)
        li, ri = rng.integers(0, 6, size=3 * chunk + 2), rng.integers(0, 5, size=3 * chunk + 2)
        with patch.object(embeddings, "_PAIR_CHUNK", chunk):
            batch = pair_cosines(left, right, li, ri).tolist()
        alone = [pair_cosines(left, right, [i], [j])[0] for i, j in zip(li, ri)]
        assert batch == alone == [cosine(a[i], b[j]) for i, j in zip(li, ri)]
        assert [x for x, i, j in zip(batch, li, ri) if i == 0 or j == 0] == \
            [0.0] * int(np.sum((li == 0) | (ri == 0)))

    def test_more_pairs_than_one_chunk(self):
        rng = np.random.default_rng(4)
        (left, a), (right, b) = cosine_tables(rng, 300, 40), cosine_tables(rng, 300, 30)
        n = 2 * embeddings._PAIR_CHUNK + 5
        li, ri = rng.integers(0, 40, size=n), rng.integers(0, 30, size=n)
        batch = pair_cosines(left, right, li, ri)
        for t in (0, embeddings._PAIR_CHUNK - 1, embeddings._PAIR_CHUNK, n - 1, *range(0, n, 97)):
            assert batch[t] == pair_cosines(left, right, li[t:t + 1], ri[t:t + 1])[0]
            assert batch[t] == cosine(a[li[t]], b[ri[t]])
        reordered = pair_cosines(right, left, ri[::-1], li[::-1])[::-1]
        assert np.array_equal(batch, reordered)  # the product is commutative, bit for bit

    def test_zero_norm_on_either_side_is_zero(self):
        table = cosine_tables(np.random.default_rng(2), 3, 4)[0]
        got = pair_cosines(table, table, [0, 1, 0, 2], [1, 0, 0, 2])
        assert got[:3].tolist() == [0.0, 0.0, 0.0] and got[3] == pytest.approx(1.0)
        none = vector_table([None, np.array([1.0, 2.0, 3.0])], 3)
        assert pair_cosines(none, none, [0, 1], [1, 0]).tolist() == [0.0, 0.0]

    @given(dim=st.integers(1, 301), seed=st.integers(0, 2 ** 32 - 1),
           missing=st.lists(st.booleans(), max_size=12))
    @settings(max_examples=80, deadline=None)
    def test_table_norms_are_each_vectors_own_norm(self, dim, seed, missing):
        """A table's norm is ``np.linalg.norm`` of its vector alone, bit for bit (the
        store's row-wise ``norms`` may differ in the last bit), and None is a zero row of
        norm 0.0."""
        rng = np.random.default_rng(seed)
        vectors = [None if gone else rng.normal(size=dim) * 10.0 ** rng.integers(-150, 150)
                   for gone in missing]
        rows, norms = vector_table(vectors, dim)
        assert rows.shape == (len(vectors), dim) and norms.dtype == np.float64
        for vec, row, norm in zip(vectors, rows, norms.tolist()):
            if vec is None:
                assert norm == 0.0 and not row.any()
            else:
                assert norm == np.linalg.norm(vec) and np.array_equal(row, vec)

    def test_no_pairs(self):
        table = vector_table([], 4)
        assert table[0].shape == (0, 4)
        assert pair_cosines(table, table, [], []).shape == (0,)


class TestOneMatrixLayout:
    def test_rows_in_file_order_ties_in_token_order(self, tmp_path):
        # file order is the reverse of token order; the twins must still come
        # back token-first
        names = ["delta", "charlie", "bravo", "alpha"]
        path = write_embeddings_file(tmp_path / "v.vec",
                                     [(t, [0.6, 0.8]) for t in names] + [("zulu", [1.0, 0.0])])
        store = load_embeddings(path)
        assert list(store.index) == names + ["zulu"]
        query = np.array([0.6, 0.8])
        assert [t for t, _ in search_one(store, query, 3)] == ["alpha", "bravo", "charlie"]
        assert [t for t, _ in search_one(store, query, 3, exclude={"alpha"})] == \
            ["bravo", "charlie", "delta"]

    def test_zero_norm_rows_never_outscore_negative_cosines(self):
        store = make_store(2, {"y": np.zeros(2), "z": np.zeros(2),
                               "a": np.array([1.0, 0.0]), "b": np.array([0.0, 1.0])})
        for k in (1, 2, 4):
            result = search_one(store, np.array([-1.0, -1.0]), k)
            assert [t for t, _ in result] == ["a", "b"][:k]
            assert [s for _, s in result] == pytest.approx([-math.sqrt(0.5)] * min(k, 2),
                                                           abs=1e-12)

    def test_store_is_read_only(self):
        store = simple_store()
        with pytest.raises(ValueError):
            word_vector(store, "a")[0] = 5.0

    def test_duplicates_give_one_warning_per_file(self, tmp_path, caplog):
        path = tmp_path / "v.vec"
        path.write_text("6 2\na 1 0\nb 0 1\na 0 1\nc 1 1\nb 1 0\na 1 1\n")
        with caplog.at_level(logging.WARNING, logger="taxoenrich.embeddings"):
            store = load_embeddings(path)
        assert len(caplog.records) == 1
        message = caplog.records[0].getMessage()
        assert "3 duplicate" in message and "line 4" in message
        assert np.array_equal(word_vector(store, "b"), [0.0, 1.0])

    def test_norms_are_taken_in_chunks_bit_equal_to_one_call(self):
        rng = np.random.default_rng(3)
        vectors = {f"t{i}": rng.normal(size=5) * 10.0 ** rng.integers(-150, 150)
                   for i in range(2 * 8192 + 1)}
        store = make_store(5, vectors)
        assert store.norms.tobytes() == np.linalg.norm(store.matrix, axis=1).tobytes()


class TestNormOverflow:
    """A finite row whose norm overflows float64 would score 0.0 against every
    query, so it is rejected as a malformed input, naming the token."""

    def test_store_rejects_row_whose_norm_overflows(self, tmp_path):
        path = write_embeddings_file(tmp_path / "v.vec", [("a", [1.0, 1.0]),
                                                          ("big", [1e200, 1e200])])
        with pytest.raises(EmbeddingFormatError, match=f"^{re.escape(str(path))}: token 'big'"):
            load_embeddings(path)

    def test_vec_file_with_such_a_row_is_rejected(self, tmp_path):
        path = write_embeddings_file(tmp_path / "v.vec", [("a", [1.0, 1.0]),
                                                          ("big", [1e200, 1e200])])
        with pytest.raises(EmbeddingFormatError, match="'big'"):
            load_embeddings(path)
        assert not (tmp_path / "v.vec.cache").exists()

    def test_largest_accepted_norm_keeps_cosines_finite(self):
        edge = np.sqrt(np.finfo(np.float64).max) / np.sqrt(2.0) * (1 - 1e-15)
        store = make_store(2, {"a": np.array([1.0, 1.0]), "edge": np.array([edge, edge])})
        assert search_one(store, np.array([edge, edge]), 2)[0][1] == pytest.approx(1.0)


class TestNormUnderflow:
    """A nonzero row whose squared entries fall below the normal float64 range
    gets an inaccurate norm, or 0.0, and so wrong cosines; it is rejected as a
    malformed input, naming the token. All-zero rows stay valid."""

    def test_store_rejects_row_whose_norm_underflows(self, tmp_path):
        for tiny in ([3e-162, 0.0], [1e-161, 1e-161], [5e-324, 0.0]):
            path = write_embeddings_file(tmp_path / "v.vec", [("a", [1.0, 0.0]),
                                                              ("tiny", tiny)])
            with pytest.raises(EmbeddingFormatError,
                               match=f"^{re.escape(str(path))}: token 'tiny'"):
                load_embeddings(path)

    def test_vec_file_with_such_a_row_is_rejected(self, tmp_path):
        path = write_embeddings_file(tmp_path / "v.vec", [("a", [1.0, 1.0]),
                                                          ("tiny", [3e-162, 0.0])])
        with pytest.raises(EmbeddingFormatError, match="'tiny'"):
            load_embeddings(path)
        assert not (tmp_path / "v.vec.cache").exists()

    def test_smallest_accepted_norm_keeps_cosines_exact(self):
        edge = 2.0 ** -511
        store = make_store(2, {"edge": np.array([edge, 0.0]), "zero": np.zeros(2),
                               "b": np.array([1.0, 1.0])})
        assert search_one(store, np.array([1.0, 0.0]), 3) == \
            [("edge", 1.0), ("b", pytest.approx(math.sqrt(0.5), abs=1e-15))]


# tokens that normalize to themselves and hold no separator
vec_tokens = st.text(st.characters(categories=("Ll", "Lo", "Nd")), min_size=1,
                     max_size=6).filter(lambda t: normalize(t) == t)
finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def vec_files(draw, dim):
    """(first-occurrence tokens, their rows, file lines with repeats inserted)."""
    row = st.lists(finite, min_size=dim, max_size=dim)
    tokens = draw(st.lists(vec_tokens, min_size=1, max_size=10, unique=True))
    values = draw(st.lists(row, min_size=len(tokens), max_size=len(tokens)))
    lines = list(zip(tokens, values))
    for first, other in draw(st.lists(st.tuples(st.integers(0, len(tokens) - 1), row),
                                      max_size=4)):
        at = draw(st.integers(lines.index((tokens[first], values[first])) + 1, len(lines)))
        lines.insert(at, (tokens[first], other))
    return tokens, values, lines


def norm_rejected(vec) -> bool:
    """The norm overflows, or a nonzero row's norm falls below 2^-511."""
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(vec)
    return not np.isfinite(norm) or (norm < 2.0 ** -511 and any(vec))


@given(dim=st.integers(1, 4), data=st.data())
@settings(max_examples=80, deadline=None)
def test_vec_round_trip_is_bit_exact(dim, data):
    tokens, values, lines = data.draw(vec_files(dim))
    with tempfile.TemporaryDirectory() as tmp:
        path = write_embeddings_file(Path(tmp) / "v.vec", lines)
        if any(norm_rejected(vec) for vec in values):
            with pytest.raises(EmbeddingFormatError, match="norm"):
                load_embeddings(path)
            return
        store = load_embeddings(path)
    assert list(store.index) == tokens
    for token, vec in zip(tokens, values):
        assert word_vector(store, token).tobytes() == np.array(vec, dtype=np.float64).tobytes()


@given(dim=st.integers(1, 4), data=st.data())
@settings(max_examples=80, deadline=None)
def test_second_load_is_served_from_the_sidecar_with_the_same_bits(dim, data):
    tokens, values, lines = data.draw(vec_files(dim))
    with tempfile.TemporaryDirectory() as tmp:
        path = write_embeddings_file(Path(tmp) / "v.vec", lines)
        if any(norm_rejected(vec) for vec in values):
            for _ in range(2):
                with pytest.raises(EmbeddingFormatError):
                    load_embeddings(path)
            assert not Path(tmp, "v.vec.cache").exists()
            return
        parsed, served = load_embeddings(path), load_embeddings(path)
    assert not served.matrix.flags.owndata and type(served.matrix) is np.ndarray
    assert not served.matrix.flags.writeable
    assert served.matrix.tobytes() == parsed.matrix.tobytes()
    assert list(served.index.items()) == list(parsed.index.items())
    assert served.norms.tobytes() == parsed.norms.tobytes()
    assert np.array_equal(served.rank, parsed.rank)
    assert_same_layout(served, parsed)


def assert_same_layout(served, parsed):
    """The search layout of a sidecar's store is the parse's, mapped and not built."""
    (rows32, top), (want, want_top) = served.unit_rows32, parsed.unit_rows32
    assert rows32.dtype == want.dtype == np.float32 and rows32.shape == want.shape
    assert rows32.tobytes() == want.tobytes() and top.hex() == want_top.hex()
    for mapped in (served.norms, served.rank, rows32):
        assert not mapped.flags.owndata and not mapped.flags.writeable


class TestSidecar:
    """A whole-file load keeps the parsed store in ``<file>.cache``; later loads
    map it while it matches the source, and rebuild it, with one warning, when not."""

    ROWS = [("a", [1.0, 0.0]), ("b", [0.0, 1.0]), ("c", [0.5, 0.25])]

    @staticmethod
    def warnings(caplog):
        return [r for r in caplog.records if r.levelno >= logging.WARNING]

    def load_twice(self, path, caplog):
        load_embeddings(path)
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="taxoenrich.embeddings"):
            return load_embeddings(path)

    def test_odd_tokens_survive_the_sidecar(self, tmp_path):
        path = tmp_path / "v.vec"
        path.write_text("4 2\n 1 0\nb\x00 0 1\n\u00fc\u2028x 1 1\nz\x0bz 2 2\n", encoding="utf-8")
        parsed, served = load_embeddings(path), load_embeddings(path)
        assert not served.matrix.flags.owndata and not served.matrix.flags.writeable
        assert list(served.index) == list(parsed.index) == ["", "b\x00", "\u00fc_x", "z_z"]

    def test_the_layout_is_served_with_the_bits_of_the_parse(self, tmp_path):
        # past one 8192-row chunk of the norms and the float32 rows, zero rows among them
        rng = np.random.default_rng(4)
        matrix = rng.normal(size=(8192 + 300, 3)) * 10.0 ** rng.integers(-100, 100, (8492, 1))
        matrix[::1000] = 0.0
        names = [f"t{i}" for i in rng.permutation(len(matrix))]  # file order is not token order
        path = write_embeddings_file(tmp_path / "v.vec", list(zip(names, matrix)))
        parsed, served = load_embeddings(path), load_embeddings(path)
        assert served.norms.tobytes() == parsed.norms.tobytes()
        assert served.rank.tobytes() == parsed.rank.astype("<i8").tobytes()
        assert_same_layout(served, parsed)
        assert search_one(served, matrix[1], 5) == search_one(parsed, matrix[1], 5)

    def test_a_format_2_sidecar_is_rebuilt_with_one_warning(self, tmp_path, caplog):
        """A sidecar of the format before the search layout joined it (the matrix, then the
        tokens), as an upgrade finds it."""
        def dump_format_2(parsed):
            store, repeats, first = parsed
            return ({"rows": len(store), "dim": store.dim, "duplicates": repeats,
                     "first_repeat": first},
                    [store.matrix.tobytes(), "".join(t + "\n" for t in store.index).encode()])

        path = write_embeddings_file(tmp_path / "v.vec", self.ROWS)
        fileio.load_cached(path, "vector", {"format": 2}, embeddings._parse, dump_format_2,
                           embeddings._load)
        cache = tmp_path / "v.vec.cache"
        assert b'"format": 2,' in cache.read_bytes()
        with caplog.at_level(logging.WARNING):
            store = load_embeddings(path)
        assert [r.getMessage() for r in self.warnings(caplog)] == [
            f"{cache}: rebuilding the vector cache: built from other bytes or by another version"]
        assert b'"format": 3,' in cache.read_bytes()
        served = self.load_twice(path, caplog)
        assert not self.warnings(caplog)
        assert_same_layout(served, store)

    def test_stale_source_of_the_same_size_is_rebuilt(self, tmp_path, caplog):
        path = write_embeddings_file(tmp_path / "v.vec", self.ROWS)
        load_embeddings(path)
        stat = path.stat()
        path.write_text(path.read_text().replace("0.25", "0.75"))
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert path.stat().st_size == stat.st_size
        with caplog.at_level(logging.WARNING, logger="taxoenrich.embeddings"):
            store = load_embeddings(path)
        assert len(self.warnings(caplog)) == 1
        assert np.array_equal(word_vector(store, "c"), [0.5, 0.75])
        caplog.clear()
        assert np.array_equal(word_vector(self.load_twice(path, caplog), "c"), [0.5, 0.75])
        assert not self.warnings(caplog)

    @pytest.mark.parametrize("damage", ["truncate", "format", "nan", "tokens", "flip",
                                        "duplicates"])
    def test_damaged_sidecar_is_rebuilt_with_one_warning(self, tmp_path, caplog, damage):
        path = write_embeddings_file(tmp_path / "v.vec", self.ROWS)
        want = load_embeddings(path).matrix.copy()
        cache = tmp_path / "v.vec.cache"
        blob = cache.read_bytes()
        head = blob[:blob.index(b"\n") + 1]
        if damage == "truncate":
            blob = blob[:-8]
        elif damage == "format":
            blob = blob.replace(b'"format": ', b'"format": 9', 1)
        elif damage == "nan":  # the last value of the matrix, ahead of the tokens
            at = blob.rindex(np.array([0.25], "<f8").tobytes())
            blob = blob[:at] + np.array([np.nan], "<f8").tobytes() + blob[at + 8:]
        elif damage == "tokens":
            blob = head + blob[len(head):].replace(b"b\n", b"a\n", 1)
        elif damage == "flip":  # the last byte of the last value: 0.25 becomes another float
            at = blob.rindex(np.array([0.25], "<f8").tobytes()) + 7
            blob = blob[:at] + bytes([blob[at] ^ 0x01]) + blob[at + 1:]
        else:  # a header field of the loader's own, outside the key
            blob = blob.replace(b'"duplicates": 0', b'"duplicates": 7', 1)
        cache.write_bytes(blob)
        with caplog.at_level(logging.WARNING, logger="taxoenrich.embeddings"):
            store = load_embeddings(path)
        assert len(self.warnings(caplog)) == 1
        assert store.matrix.tobytes() == want.tobytes()
        assert cache.read_bytes()[:len(head)] == head and cache.read_bytes() != blob
        caplog.clear()
        served = self.load_twice(path, caplog).matrix
        assert not served.flags.owndata and not served.flags.writeable
        assert not self.warnings(caplog)

    def test_unwritable_sidecar_still_returns_the_store(self, tmp_path, caplog, monkeypatch):
        from taxoenrich import fileio

        def refuse(path, data):
            raise PermissionError(13, "Permission denied", str(path))

        monkeypatch.setattr(fileio, "atomic_write", refuse)
        path = write_embeddings_file(tmp_path / "v.vec", self.ROWS)
        with caplog.at_level(logging.WARNING, logger="taxoenrich.embeddings"):
            store = load_embeddings(path)
        assert len(self.warnings(caplog)) == 1 and list(store.index) == ["a", "b", "c"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["v.vec"]

    def test_failed_write_leaves_no_temporary(self, tmp_path, caplog, monkeypatch):
        def full_disk(*args):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "replace", full_disk)
        path = write_embeddings_file(tmp_path / "v.vec", self.ROWS)
        with caplog.at_level(logging.WARNING, logger="taxoenrich.embeddings"):
            assert len(load_embeddings(path)) == 3
        assert len(self.warnings(caplog)) == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["v.vec"]

    def test_duplicate_warning_repeats_on_a_hit(self, tmp_path, caplog):
        path = tmp_path / "v.vec"
        path.write_text("6 2\na 1 0\nb 0 1\na 0 1\nc 1 1\nb 1 0\na 1 1\n")
        store = self.load_twice(path, caplog)
        assert not store.matrix.flags.owndata and not store.matrix.flags.writeable
        assert [r.getMessage() for r in self.warnings(caplog)] == [
            f"{path}: 3 duplicate tokens, each first occurrence kept (first repeat on line 4)"]
