"""Preprocessed Wiktionary entries and the four dictionary-derived features.

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

from .embeddings import EmbeddingStore, pair_cosines, vector_table, word_vector
from .fileio import InputError, decode_json, gc_paused, read_lines
from .taxonomy import Taxonomy, TaxonomyError
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

    def __len__(self) -> int:
        return len(self.entries)


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


def _contains_sublist(haystack: list[str], needle: list[str]) -> bool:
    if not needle or len(needle) > len(haystack):
        return False
    for i in range(len(haystack) - len(needle) + 1):
        if haystack[i:i + len(needle)] == needle:
            return True
    return False


def lemma_keys(lemmas: tuple[str, ...]) -> tuple[dict[str, list[str]], frozenset[str]]:
    """A synset's normalized ``lemmas`` -> their subtokens, and the set of first subtokens."""
    keys = {k: subtokens(k) for k in map(normalize, lemmas)}
    return keys, frozenset(p[0] for p in keys.values() if p)


def _lemma_matcher(entry: WiktionaryEntry):
    """(keys, firsts) of ``lemma_keys`` -> whether a lemma is in the entry's
    hypernyms, synonyms, definition (scanned only if a first subtoken is one of its tokens)."""
    hypernyms = {normalize(h) for h in entry.hypernyms}
    synonyms = {normalize(s) for s in entry.synonyms}
    def_tokens = text_tokens(entry.definition)
    def_set = set(def_tokens)
    return lambda keys, firsts: (not hypernyms.isdisjoint(keys), not synonyms.isdisjoint(keys),
                                 not def_set.isdisjoint(firsts)
                                 and any(_contains_sublist(def_tokens, p) for p in keys.values()))


def wiki_feature_rows(store: WiktionaryStore, embeddings: EmbeddingStore, words: list[str],
                      synsets: list[tuple[str, ...]], centroids: tuple[np.ndarray, np.ndarray],
                      rows: np.ndarray) -> np.ndarray:
    """The four Wiktionary features of each (``words[t]``, ``synsets[rows[t]]``) pair, each
    synset given by its lemmas, as an (n, 4) array: a candidate lemma is in the entry's hypernym list (1/0), in its
    synonym list (1/0), in its definition text as a whole-token run (1/0), and the average
    cosine between the candidate's synset vector (a row of ``centroids``, the synsets'
    ``vector_table``) and the entry's hypernym word vectors: their sum, left to right from
    0 in the entry's order, over their count. A word without an entry gets all-zero rows,
    and an entry whose hypernyms have no vectors a zero cosine. Each word's entry is
    prepared once."""
    prepared, hypernyms = {}, []  # word -> (lemma matcher, first hypernym row, count)
    for word in dict.fromkeys(words):
        if (entry := store.get(word)) is not None:
            vectors = [v for v in (word_vector(embeddings, h) for h in entry.hypernyms)
                       if v is not None]
            prepared[word] = _lemma_matcher(entry), len(hypernyms), len(vectors)
            hypernyms += vectors
    per_pair = [prepared.get(word, (None, 0, 0)) for word in words]
    keys = [lemma_keys(lemmas) for lemmas in synsets] if prepared else []
    out = np.zeros((len(words), 4))
    out[:, :3] = np.array([match(*keys[row]) if match else (0, 0, 0)
                           for (match, _, _), row in zip(per_pair, rows.tolist())],
                          dtype=float).reshape(len(words), 3)
    starts = np.array([start for _, start, _ in per_pair], dtype=np.intp)
    counts = np.array([count for _, _, count in per_pair], dtype=np.intp)
    hypernyms = vector_table(hypernyms, embeddings.dim)
    # each pair's cosines summed left to right from 0, place by place over all pairs
    total = np.zeros(len(words))
    for place in range(counts.max(initial=0)):
        at = np.flatnonzero(counts > place)
        total[at] += pair_cosines(centroids, hypernyms, rows[at], starts[at] + place)
    out[:, 3] = total / np.maximum(counts, 1)
    return out


def coverage_report(store: WiktionaryStore, dataset, taxonomy: Taxonomy) -> dict:
    """Coverage percentages of a Wiktionary store over an orphan dataset.

    Reports the share of orphans present in the store and the share whose
    entry carries at least one gold-hypernym lemma in the hypernyms list,
    the synonyms list, and the definition text.
    """
    total = len(dataset)
    present, hits = 0, [0, 0, 0]  # gold lemma in hypernyms, synonyms, definition
    for entry_word in dataset:
        entry = store.get(entry_word.word)
        if entry is None:
            continue
        present += 1
        match = _lemma_matcher(entry)  # a lemma of any gold synset counts
        for sid in entry_word.gold:
            if sid not in taxonomy:
                raise TaxonomyError(f"unknown synset id: {sid!r}")
        found = [match(*lemma_keys(taxonomy.lemmas[sid])) for sid in entry_word.gold]
        hits = [n + any(hit) for n, hit in zip(hits, zip(*found))]

    def pct(n):
        return 100.0 * n / total if total else 0.0

    return {
        "orphans": total,
        "present_pct": pct(present),
        "gold_in_hypernyms_pct": pct(hits[0]),
        "gold_in_synonyms_pct": pct(hits[1]),
        "gold_in_definition_pct": pct(hits[2]),
    }
