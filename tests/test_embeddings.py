import logging
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taxoenrich.embeddings import (
    EmbeddingFormatError,
    EmbeddingStore,
    batch_nearest_neighbors,
    cosine,
    load_embeddings,
    nearest_neighbors,
    synset_vector,
    word_vector,
)
from taxoenrich.taxonomy import PartOfSpeech, Synset
from taxoenrich.textnorm import normalize

from conftest import write_embeddings_file


def simple_store():
    return EmbeddingStore(2, {"a": np.array([1.0, 0.0]),
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

    def test_limit_prefix(self, tmp_path):
        path = write_embeddings_file(tmp_path / "v.txt",
                                     [("a", [1, 0]), ("b", [0, 1]), ("c", [1, 1])])
        store = load_embeddings(path, limit=2)
        assert set(store.index) == {"a", "b"}

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
        store = simple_store()
        syn = Synset("S", PartOfSpeech.NOUN, ("a", "c"))
        assert np.allclose(synset_vector(store, syn), [0.5, 0.5])

    def test_single_lemma_identity(self):
        store = simple_store()
        syn = Synset("S", PartOfSpeech.NOUN, ("a",))
        assert np.array_equal(synset_vector(store, syn), [1.0, 0.0])

    def test_all_oov_is_none(self):
        syn = Synset("S", PartOfSpeech.NOUN, ("xx", "yy"))
        assert synset_vector(simple_store(), syn) is None

    def test_shared_vector_exact(self):
        store = EmbeddingStore(2, {"x": np.array([0.3, 0.4]), "y": np.array([0.3, 0.4])})
        syn = Synset("S", PartOfSpeech.NOUN, ("x", "y"))
        assert np.array_equal(synset_vector(store, syn), [0.3, 0.4])


class TestCosine:
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

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            cosine(np.zeros(2), np.zeros(3))

    def test_scale_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            u = rng.normal(size=5)
            v = rng.normal(size=5)
            alpha = float(rng.uniform(0.01, 100))
            assert cosine(alpha * u, v) == pytest.approx(cosine(u, v), abs=1e-9)


class TestNearestNeighbors:
    def test_derived_three_token_example(self):
        # hand-computed: cos(query, a)=1.0, cos(query, b)=0.9/sqrt(0.82)~0.9939,
        # cos(query, c)=0.0
        store = simple_store()
        query = np.array([1.0, 0.0])
        result = nearest_neighbors(store, query, 2, exclude={"a"})
        assert [tok for tok, _ in result] == ["b", "c"]
        assert result[0][1] == pytest.approx(0.9 / math.sqrt(0.82), abs=1e-9)
        assert result[1][1] == pytest.approx(0.0, abs=1e-12)

    def test_exclude_all(self):
        store = simple_store()
        assert nearest_neighbors(store, np.array([1.0, 0.0]), 3,
                                 exclude={"a", "b", "c"}) == []

    def test_query_token_excluded(self):
        store = simple_store()
        result = nearest_neighbors(store, word_vector(store, "a"), 3, exclude={"a"})
        assert "a" not in [tok for tok, _ in result]

    def test_zero_vector_excluded_from_search(self):
        store = EmbeddingStore(2, {"a": np.array([1.0, 0.0]),
                                   "z": np.array([0.0, 0.0])})
        result = nearest_neighbors(store, np.array([1.0, 0.0]), 5)
        assert [tok for tok, _ in result] == ["a"]

    def test_result_invariants_random(self):
        rng = np.random.default_rng(42)
        for trial in range(30):
            n = int(rng.integers(1, 60))
            store = EmbeddingStore(4, {f"t{i}": rng.normal(size=4) for i in range(n)})
            query = rng.normal(size=4)
            k = int(rng.integers(1, 15))
            exclude = {f"t{i}" for i in range(n) if rng.random() < 0.2}
            result = nearest_neighbors(store, query, k, exclude=exclude)
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
            store = EmbeddingStore(3, vectors)
            query = rng.normal(size=3)
            k = int(rng.integers(1, 12))
            naive = sorted(((tok, cosine(query, vec)) for tok, vec in vectors.items()),
                           key=lambda item: (-item[1], item[0]))[:k]
            result = nearest_neighbors(store, query, k)
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

    def test_limit_skips_count_check(self, tmp_path):
        path = tmp_path / "v.vec"
        path.write_text("3 2\na 1 0\nb 0 1\n")
        assert set(load_embeddings(path, limit=1).index) == {"a"}


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
        store = EmbeddingStore(3, vectors)
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
                assert result == nearest_neighbors(store, q, k, exclude)

    def test_many_tiles_match_oracle(self):
        # 3000 search rows give tiles of 174 queries, so 400 queries span three
        rng = np.random.default_rng(11)
        base = {f"t{i:04d}": rng.normal(size=4) for i in range(3000)}
        vectors = dict(base)
        for i in range(0, 3000, 7):
            vectors[f"t{i:04d}"] = base[f"t{(i + 1) % 3000:04d}"].copy()
        store = EmbeddingStore(4, vectors)
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
        results = batch_nearest_neighbors(EmbeddingStore(300, vectors), queries, 1,
                                          [set()] * len(queries))
        units = queries / np.linalg.norm(queries, axis=1, keepdims=True)
        for q, result in zip(units, results):
            sims = np.einsum("ij,j->i", matrix, q)
            best = np.lexsort((np.arange(len(tokens)), -sims))[0]
            assert result == [(tokens[best], float(sims[best]))]

    def test_no_queries(self):
        assert batch_nearest_neighbors(simple_store(), np.zeros((0, 2)), 3, []) == []

    def test_bad_shapes_rejected(self):
        with pytest.raises(ValueError):
            batch_nearest_neighbors(simple_store(), np.zeros(2), 1, [set()])
        with pytest.raises(ValueError):
            batch_nearest_neighbors(simple_store(), np.zeros((2, 2)), 1, [set()])
        with pytest.raises(ValueError):
            batch_nearest_neighbors(simple_store(), np.zeros((1, 2)), 0, [set()])


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
        assert [t for t, _ in nearest_neighbors(store, query, 3)] == ["alpha", "bravo", "charlie"]
        assert [t for t, _ in nearest_neighbors(store, query, 3, exclude={"alpha"})] == \
            ["bravo", "charlie", "delta"]

    def test_zero_norm_rows_never_outscore_negative_cosines(self):
        store = EmbeddingStore(2, {"y": np.zeros(2), "z": np.zeros(2),
                                   "a": np.array([1.0, 0.0]), "b": np.array([0.0, 1.0])})
        for k in (1, 2, 4):
            result = nearest_neighbors(store, np.array([-1.0, -1.0]), k)
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


# tokens that normalize to themselves and hold no separator
vec_tokens = st.text(st.characters(categories=("Ll", "Lo", "Nd")), min_size=1,
                     max_size=6).filter(lambda t: normalize(t) == t)
finite = st.floats(allow_nan=False, allow_infinity=False)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@given(dim=st.integers(1, 4), data=st.data())
@settings(max_examples=80, deadline=None)
def test_vec_round_trip_is_bit_exact(dim, data):
    row = st.lists(finite, min_size=dim, max_size=dim)
    tokens = data.draw(st.lists(vec_tokens, min_size=1, max_size=10, unique=True))
    values = data.draw(st.lists(row, min_size=len(tokens), max_size=len(tokens)))
    lines = list(zip(tokens, values))
    for first, other in data.draw(st.lists(st.tuples(st.integers(0, len(tokens) - 1), row),
                                           max_size=4)):
        at = data.draw(st.integers(lines.index((tokens[first], values[first])) + 1, len(lines)))
        lines.insert(at, (tokens[first], other))
    limit = data.draw(st.none() | st.integers(1, len(tokens) + 1))
    with tempfile.TemporaryDirectory() as tmp:
        store = load_embeddings(write_embeddings_file(Path(tmp) / "v.vec", lines), limit)
    kept = tokens if limit is None else tokens[:limit]
    assert list(store.index) == kept
    for token, vec in zip(kept, values):
        assert word_vector(store, token).tobytes() == np.array(vec, dtype=np.float64).tobytes()
