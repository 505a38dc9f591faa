"""Shared fixture builders: toy taxonomies, embedding files, planted clusters."""

import json
import zlib
from pathlib import Path

import numpy as np
import pytest

from taxoenrich import ranking
from taxoenrich.embeddings import (EmbeddingStore, distinct_rows, pair_cosines, vector_table,
                                   word_vector)
from taxoenrich.ranking import pair_features
from taxoenrich.taxonomy import PartOfSpeech, Taxonomy


def make_taxonomy(spec: dict) -> Taxonomy:
    """Build a taxonomy from {id: (pos, [lemmas], [hypernyms])}, its maps as
    ``load_taxonomy`` makes them from the same records."""
    ids = {pos: set() for pos in PartOfSpeech}
    for sid, (pos, _lemmas, _hypernyms) in spec.items():
        ids[PartOfSpeech.parse(pos)].add(sid)
    return Taxonomy({sid: tuple(lemmas) for sid, (_pos, lemmas, _hyps) in spec.items()},
                    {pos: frozenset(members) for pos, members in ids.items()},
                    {sid: frozenset(hyps) for sid, (_pos, _lemmas, hyps) in spec.items()})


def save_taxonomy(taxonomy: Taxonomy, path: Path) -> None:
    """Write ``taxonomy`` back to the JSONL interchange format, sorted by id, its text as
    UTF-8 rather than JSON escapes."""
    pos_of = {sid: pos for pos, ids in taxonomy.ids.items() for sid in ids}
    path.write_text("".join(json.dumps({
        "id": sid,
        "pos": pos_of[sid].value,
        "lemmas": list(lemmas),
        "hypernyms": sorted(taxonomy.hypernym_edges[sid]),
    }, ensure_ascii=False) + "\n" for sid, lemmas in sorted(taxonomy.lemmas.items())),
        encoding="utf-8")


def make_store(dim: int, vectors: dict) -> EmbeddingStore:
    """The store of {token: vector}, rows in the dict's order, as a loader builds it."""
    matrix = np.array(list(vectors.values()), dtype=np.float64).reshape(len(vectors), dim)
    return EmbeddingStore(dict(zip(vectors, range(len(vectors)))), matrix)


def cosine(u, v) -> float:
    """``pair_cosines`` of the one pair (u, v); 0.0 if either vector has zero norm."""
    table = vector_table([np.asarray(u, dtype=np.float64), np.asarray(v, dtype=np.float64)],
                         len(u))
    return float(pair_cosines(table, table, [0], [1])[0])


def extended_pool(word, taxonomy, store, pos, k=10):
    """``word``'s extended candidate pool from its k nearest neighbors, searched for alone;
    ``word`` must have a vector."""
    return ranking._pool(taxonomy, pos, ranking.word_neighbors([word], store, k)[0])


def lemmas_vector(store, lemmas):
    """Oracle of a synset's centroid: the mean of its lemmas' resolvable vectors, each
    resolved alone; None if none resolve."""
    resolved = [v for v in (word_vector(store, lemma) for lemma in lemmas) if v is not None]
    return np.mean(resolved, axis=0) if resolved else None


def pool_features(word, candidates, pool, taxonomy, store, wiktionary=None):
    """``pair_features`` of ``word`` with each candidate alone, its occurrences taken from
    ``pool`` (0 outside it)."""
    return pair_features([word], np.zeros(len(candidates), np.intp), *distinct_rows(candidates),
                         [pool[c] for c in candidates],
                         taxonomy, store, wiktionary)


def cosines(word, candidates, taxonomy, store) -> list[float]:
    """cosine(word vector, synset centroid) per candidate; 0.0 without a centroid."""
    return pair_features([word], np.zeros(len(candidates), np.intp), *distinct_rows(candidates),
                         np.ones(len(candidates)), taxonomy, store)[:, 4].tolist()


def naive_sum(values):
    """Floats summed left to right from 0 (the built-in ``sum`` before Python 3.12)."""
    total = 0.0
    for x in values:
        total += x
    return total


def neumaier_sum(values):
    """The built-in ``sum`` of floats from Python 3.12 on, transcribed."""
    total, c = 0.0, 0.0
    for x in values:
        t = total + x
        c += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + c if c and np.isfinite(c) else total


def write_taxonomy_file(path: Path, spec: dict) -> Path:
    lines = []
    for sid, (pos, lemmas, hypernyms) in spec.items():
        lines.append(json.dumps({"id": sid, "pos": pos, "lemmas": list(lemmas),
                                 "hypernyms": list(hypernyms)}))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def taxonomy_sidecar_parts(blob: bytes) -> tuple[int, int, int]:
    """Where a taxonomy sidecar's header, its payload's maps and its lemma index end."""
    head = blob.index(b"\n") + 1
    meta = json.loads(blob[:head])
    return head, head + meta["index_offset"], head + meta["payload_size"]


def vector_sidecar_parts(blob: bytes) -> dict[str, tuple[int, int]]:
    """Where each section of a vector sidecar's payload starts and ends: the float64 matrix,
    the float64 row norms, the int64 token rank, the float32 unit rows and the tokens."""
    head = blob.index(b"\n") + 1
    meta = json.loads(blob[:head])
    rows, dim = meta["rows"], meta["dim"]
    parts, at = {}, head
    for name, size in [("matrix", 8 * rows * dim), ("norms", 8 * rows), ("rank", 8 * rows),
                       ("rows32", 4 * rows * dim), ("tokens", None)]:
        parts[name] = at, at + size if size is not None else head + meta["payload_size"]
        at = parts[name][1]
    return parts


def with_lemma_index(blob: bytes, data: bytes) -> bytes:
    """A taxonomy sidecar with its lemma index's bytes replaced by ``data``, under a header
    whose payload size and CRC-32 check, as the loader takes them."""
    head, maps, _end = taxonomy_sidecar_parts(blob)
    meta = json.loads(blob[:head])
    payload = blob[head:maps] + data
    seed = zlib.crc32(json.dumps({"index_offset": meta["index_offset"]}).encode())
    meta.update(payload_size=len(payload), payload_crc32=zlib.crc32(payload, seed))
    line = json.dumps(meta)
    return (line + " " * (-(len(line) + 1) % 64) + "\n").encode() + payload


def write_embeddings_file(path: Path, rows: list[tuple[str, list[float]]]) -> Path:
    dim = len(rows[0][1])
    lines = [f"{len(rows)} {dim}"]
    for token, values in rows:
        lines.append(token + " " + " ".join(repr(float(v)) for v in values))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


CHAIN = {
    "A": ("n", ["a"], []),
    "B": ("n", ["b"], ["A"]),
    "C": ("n", ["c"], ["B"]),
}


GOOD_RECORD = {"id": "b.n.01", "pos": "n", "lemmas": ["b"], "hypernyms": []}
# taxonomy records of the wrong shape, each with the input error that names its line; a
# record failing several checks reports the first of: id, pos, lemmas and hypernyms
# types, then the part of speech, an empty id, an empty lemma
WRONGLY_TYPED = [
    ({"id": "A", "pos": "n", "lemmas": "dog"},                # a string, not a list
     "'lemmas' must be a list of strings, got 'dog'"),
    ({"id": "A", "pos": "n", "lemmas": [5]}, "'lemmas' must be a list of strings, got [5]"),
    ({"id": "A", "pos": "n", "lemmas": []}, "synset A: lemmas must be non-empty"),
    ({"id": "A", "pos": "n", "lemmas": ["a", ""]}, "synset A: lemmas must be non-empty"),
    ({"id": "A", "pos": "n", "lemmas": ["a"], "hypernyms": "b.n.01"},
     "'hypernyms' must be a list of strings, got 'b.n.01'"),
    ({"id": "A", "pos": "n", "lemmas": ["a"], "hypernyms": [7]},
     "'hypernyms' must be a list of strings, got [7]"),
    ({"id": "A", "pos": "n", "lemmas": ["a"], "hypernyms": None},
     "'hypernyms' must be a list of strings, got None"),
    ({"id": 7, "pos": "n", "lemmas": ["a"]}, "'id' must be a string, got 7"),
    ({"id": "", "pos": "n", "lemmas": ["a"]}, "synset id must be non-empty"),
    ({"pos": "n", "lemmas": ["a"]}, "'id' must be a string, got None"),
    ({"id": "A", "pos": 1, "lemmas": ["a"]}, "'pos' must be a string, got 1"),
    ({"id": "A", "pos": "a", "lemmas": ["fast"]},            # unsupported part of speech
     "unsupported part of speech: 'a'"),
    (["A", "n", ["a"]], "expected a JSON object"),          # not an object
    # two or more failed checks: the first one is reported
    ({"id": 7, "pos": 1, "lemmas": []}, "'id' must be a string, got 7"),
    ({"id": "A", "pos": None, "lemmas": 5}, "'pos' must be a string, got None"),
    ({"id": "A", "pos": "x", "lemmas": 5, "hypernyms": 3},
     "'lemmas' must be a list of strings, got 5"),
    ({"id": "", "pos": "x", "lemmas": [""], "hypernyms": [None]},
     "'hypernyms' must be a list of strings, got [None]"),
    ({"id": "", "pos": "x", "lemmas": [""]}, "unsupported part of speech: 'x'"),
    ({"id": "", "pos": "n", "lemmas": [""]}, "synset id must be non-empty"),
    ({"id": "A", "pos": "Verb", "lemmas": [""], "hypernyms": ["A"]},
     "synset A: lemmas must be non-empty"),
]


@pytest.fixture
def chain_taxonomy():
    return make_taxonomy(CHAIN)


def random_dag_spec(rng: np.random.Generator, n_nodes: int, edge_prob: float = 0.25):
    """Random DAG: edges only from higher-numbered to lower-numbered nodes."""
    spec = {}
    for i in range(n_nodes):
        parents = [f"n{j}" for j in range(i) if rng.random() < edge_prob]
        spec[f"n{i}"] = ("n", [f"lemma{i}"], parents)
    return spec


def build_planted_fixture(tmp_dir: Path, n_clusters: int = 5,
                          leaves_per_cluster: int = 10,
                          orphans_per_cluster: int = 4,
                          dim: int = 16, seed: int = 7):
    """Synthetic taxonomy + embeddings in which each orphan's true cluster
    co-hyponyms are guaranteed to dominate its nearest neighbors.

    Returns (taxonomy_path, embeddings_path, dataset_rows) where dataset_rows
    is [(orphan word, gold synset ids)].
    """
    rng = np.random.default_rng(seed)
    spec = {}
    rows = []
    dataset_rows = []
    for c in range(n_clusters):
        base = np.zeros(dim)
        base[c] = 1.0
        gid, pid = f"G{c}", f"P{c}"
        spec[gid] = ("n", [f"granny{c}"], [])
        spec[pid] = ("n", [f"parent{c}"], [gid])
        rows.append((f"granny{c}", list(base + 0.01 * rng.normal(size=dim))))
        rows.append((f"parent{c}", list(base + 0.01 * rng.normal(size=dim))))
        member_vecs = []
        for j in range(leaves_per_cluster):
            vec = base + 0.02 * rng.normal(size=dim)
            member_vecs.append(vec)
            spec[f"L{c}_{j}"] = ("n", [f"w{c}_{j}"], [pid])
            rows.append((f"w{c}_{j}", list(vec)))
        centroid = np.mean(member_vecs, axis=0)
        for i in range(orphans_per_cluster):
            orphan = f"orph{c}_{i}"
            rows.append((orphan, list(centroid + 0.01 * rng.normal(size=dim))))
            dataset_rows.append((orphan, {pid, gid}))
    taxonomy_path = write_taxonomy_file(tmp_dir / "planted_taxonomy.jsonl", spec)
    embeddings_path = write_embeddings_file(tmp_dir / "planted_vectors.txt", rows)
    return taxonomy_path, embeddings_path, dataset_rows
