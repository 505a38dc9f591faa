"""Preprocessed Wiktionary entries and the four features drawn from the dictionary.

Input is JSONL with one entry per line:

    {"word": "duck", "hypernyms": ["bird"], "synonyms": [], "definition": "a waterfowl"}

For an (orphan word, candidate synset) pair the features are: candidate lemma
present in the entry's hypernym list, in its synonym list, in its definition
text (whole-token match), and the average cosine between the candidate synset
vector and the entry's hypernym word vectors.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path

import numpy as np

from .embeddings import EmbeddingStore, distinct_rows, pair_cosines, vector_table, word_vector
from .fileio import InputError, decode_json, gc_paused, read_lines
from .taxonomy import Taxonomy
from .textnorm import normalize, subtokens, text_tokens


class WiktionaryFormatError(InputError):
    """Raised for malformed Wiktionary JSONL input."""


@dataclass
class WiktionaryEntry:
    word: str
    hypernyms: list[str] = field(default_factory=list)
    synonyms: list[str] = field(default_factory=list)
    definition: str = ""


class WiktionaryStore:
    """Immutable map of normalized word -> merged WiktionaryEntry."""

    def __init__(self, entries: dict[str, WiktionaryEntry] | None = None):
        self.entries: dict[str, WiktionaryEntry] = dict(entries or {})

    def get(self, word: str) -> WiktionaryEntry | None:
        return self.entries.get(normalize(word))

    def __contains__(self, word: str) -> bool:
        return normalize(word) in self.entries


def load_wiktionary(path: str | Path) -> WiktionaryStore:
    """Load a JSONL Wiktionary extract, with the cyclic garbage collector paused
    (``fileio.gc_paused``). A word's hypernyms and synonyms are each the union, in order
    of first appearance, over all its lines; its definitions are joined by spaces."""
    path = Path(path)
    entries: dict[str, WiktionaryEntry] = {}
    with gc_paused():
        for lineno, line in read_lines(path, str.strip):
            try:
                obj = decode_json(line)
                word = obj["word"]
                hypernyms = list(raw_hypernyms := obj.get("hypernyms", []))
                synonyms = list(raw_synonyms := obj.get("synonyms", []))
                definition = obj.get("definition", "") or ""
                _check_types(word, raw_hypernyms, raw_synonyms, obj.get("definition"))
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise WiktionaryFormatError(f"{path}:{lineno}: malformed entry: {exc}") from None
            except RecursionError as exc:  # nested past the limit
                raise WiktionaryFormatError(f"{path}:{lineno}: malformed JSON: {exc}") from None
            key = normalize(word)
            if not key:
                raise WiktionaryFormatError(f"{path}:{lineno}: empty word")
            if key in entries:
                entry = entries[key]
                entry.hypernyms += hypernyms
                entry.synonyms += synonyms
                if definition:
                    entry.definition = (entry.definition + " " + definition).strip()
            else:
                entries[key] = entry = WiktionaryEntry(word, hypernyms, synonyms, definition)
            entry.hypernyms = list(dict.fromkeys(entry.hypernyms))
            entry.synonyms = list(dict.fromkeys(entry.synonyms))
    return WiktionaryStore(entries)


def _check_types(word, hypernyms, synonyms, definition) -> None:
    """TypeError for an entry's first wrongly typed field; a null definition is empty."""
    if type(word) is not str:
        raise TypeError(f"'word' must be a string, got {word!r}")
    for name, value in (("hypernyms", hypernyms), ("synonyms", synonyms)):
        if type(value) is not list or not all(map(isinstance, value, repeat(str))):
            raise TypeError(f"'{name}' must be a list of strings, got {value!r}")
    if definition is not None and type(definition) is not str:
        raise TypeError(f"'definition' must be a string, got {definition!r}")


def lemma_match_columns(entries: list[WiktionaryEntry], synsets: list[tuple[str, ...]],
                        pairs: np.ndarray) -> np.ndarray:
    """Three lemma matches of each pair ``pairs[t] = e * len(synsets) + s`` as an (n, 3) bool
    array: a normalized lemma of ``synsets[s]`` is one of ``entries[e]``'s normalized
    hypernyms; one of its normalized synonyms; a lemma's subtokens are a run of its
    definition tokens. The synsets are indexed once (normalized lemma -> rows, first subtoken
    -> subtoken run -> rows) and each entry is matched once against the index, giving the
    codes of its hits, so an entry's cost follows its own keys and tokens. Each column is
    then one ``np.searchsorted`` of the pairs in its sorted hit codes."""
    hits: tuple[list[int], ...] = ([], [], [])
    by_key: dict[str, list[int]] = {}
    by_first: dict[str, dict[tuple[str, ...], list[int]]] = {}
    for row, lemmas in enumerate(synsets if entries else ()):
        for key in dict.fromkeys(map(normalize, lemmas)):
            by_key.setdefault(key, []).append(row)
            if run := tuple(subtokens(key)):
                by_first.setdefault(run[0], {}).setdefault(run, []).append(row)
    for e, entry in enumerate(entries):
        base = e * len(synsets)
        for found, names in zip(hits, (entry.hypernyms, entry.synonyms)):
            for key in {normalize(name) for name in names}:
                found += [base + row for row in by_key.get(key, ())]
        tokens = text_tokens(entry.definition)
        runs = {run: rows for at, token in enumerate(tokens) if token in by_first
                for run, rows in by_first[token].items()
                if tuple(tokens[at:at + len(run)]) == run}
        hits[2].extend(base + row for rows in runs.values() for row in rows)
    out = np.empty((len(pairs), 3), dtype=bool)
    for column, found in enumerate(hits):
        codes = np.sort(np.array(found, dtype=np.int64))
        # a pair past the last code reads the appended -1, which no code equals
        out[:, column] = np.append(codes, -1)[np.searchsorted(codes, pairs)] == pairs
    return out


def wiki_feature_rows(store: WiktionaryStore, embeddings: EmbeddingStore, words: list[str],
                      word_rows: np.ndarray, synsets: list[tuple[str, ...]],
                      centroids: tuple[np.ndarray, np.ndarray], rows: np.ndarray) -> np.ndarray:
    """The four Wiktionary features of each (``words[word_rows[t]]``, ``synsets[rows[t]]``)
    pair, each synset given by its lemmas, as an (n, 4) array: the three
    ``lemma_match_columns`` (1/0), and the average cosine between the candidate's synset
    vector (a row of ``centroids``, the synsets' ``centroid_table``) and the entry's hypernym
    word vectors: their sum, left to right from 0 in the entry's order, over their count. A
    word without an entry gets all-zero rows, and an entry whose hypernyms have no vectors a
    zero cosine. Each of the distinct ``words``' entries is prepared once."""
    hypernyms, per_word = [], []
    # a word without an entry gets an empty one, which matches nothing
    entries = [entry if (entry := store.get(word)) is not None else WiktionaryEntry(word)
               for word in words]
    for entry in entries:
        vectors = [v for v in (word_vector(embeddings, h) for h in entry.hypernyms)
                   if v is not None]
        per_word.append((len(hypernyms), len(vectors)))  # first hypernym row, count
        hypernyms += vectors
    starts, counts = np.array(per_word, dtype=np.intp).reshape(len(words), 2)[word_rows].T
    out = np.zeros((len(word_rows), 4))
    out[:, :3] = lemma_match_columns(entries, synsets, word_rows * len(synsets) + rows)
    hypernyms = vector_table(hypernyms, embeddings.dim)
    # each pair's cosines summed left to right from 0, place by place over all pairs
    total = np.zeros(len(word_rows))
    for place in range(counts.max(initial=0)):
        at = np.flatnonzero(counts > place)
        total[at] += pair_cosines(centroids, hypernyms, rows[at], starts[at] + place)
    out[:, 3] = total / np.maximum(counts, 1)
    return out


def coverage_report(store: WiktionaryStore, dataset, taxonomy: Taxonomy) -> dict:
    """Coverage percentages of a Wiktionary store over an orphan dataset whose gold ids
    ``taxonomy`` holds: the share of orphans present in the store and the share whose entry
    carries at least one gold-hypernym lemma in the hypernyms list, the synonyms list, and
    the definition text."""
    total = len(dataset)
    present = [(position, entry) for position, entry in enumerate(dataset) if entry.word in store]
    # (position, word, gold id) of each present entry's gold ids: a lemma of any one counts
    pairs = [(position, entry.word, sid) for position, entry in present for sid in entry.gold]
    words, word_rows = distinct_rows([word for _, word, _ in pairs])
    synsets, rows = distinct_rows([sid for _, _, sid in pairs])
    matched = lemma_match_columns([store.get(word) for word in words],
                                  [taxonomy.lemmas[sid] for sid in synsets],
                                  word_rows * len(synsets) + rows)
    owners = np.array([position for position, _, _ in pairs], dtype=np.intp)
    # gold lemma in hypernyms, synonyms, definition: the dataset positions with a matched pair
    hits = [len(set(owners[column].tolist())) for column in matched.T]

    def pct(n):
        return 100.0 * n / total if total else 0.0

    return {
        "orphans": total,
        "present_pct": pct(len(present)),
        "gold_in_hypernyms_pct": pct(hits[0]),
        "gold_in_synonyms_pct": pct(hits[1]),
        "gold_in_definition_pct": pct(hits[2]),
    }
