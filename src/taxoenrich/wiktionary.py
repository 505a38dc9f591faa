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
from typing import Optional

import numpy as np

from .embeddings import EmbeddingStore, _cos, word_vector
from .fileio import InputError, decode_json, gc_paused, read_lines
from .taxonomy import Synset, Taxonomy
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
        self._lemma_keys: dict[tuple[str, ...], tuple[dict[str, list[str]], frozenset[str]]] = {}

    def lemma_keys(self, syn: Synset) -> tuple[dict[str, list[str]], frozenset[str]]:
        """``syn``'s normalized lemmas -> their subtokens, and the set of first subtokens;
        memoized per lemma tuple (a pure cache)."""
        if syn.lemmas not in self._lemma_keys:
            keys = {k: subtokens(k) for k in map(normalize, syn.lemmas)}
            self._lemma_keys[syn.lemmas] = keys, frozenset(p[0] for p in keys.values() if p)
        return self._lemma_keys[syn.lemmas]

    def get(self, word: str) -> WiktionaryEntry | None:
        return self.entries.get(normalize(word))

    def __contains__(self, word: str) -> bool:
        return normalize(word) in self.entries

    def __len__(self) -> int:
        return len(self.entries)


def load_wiktionary(path: str | Path) -> WiktionaryStore:
    """Load a JSONL Wiktionary extract, with the cyclic garbage collector paused
    (``fileio.gc_paused``); duplicate words merge their lists."""
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
                existing = entries[key]
                for have, more in ((existing.hypernyms, hypernyms), (existing.synonyms, synonyms)):
                    for item in more:
                        if item not in have:
                            have.append(item)
                if definition:
                    existing.definition = (existing.definition + " " + definition).strip()
            else:
                entries[key] = WiktionaryEntry(word, hypernyms, synonyms, definition)
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


def _lemma_matcher(entry: WiktionaryEntry):
    """(keys, firsts) of ``WiktionaryStore.lemma_keys`` -> whether a lemma is in the entry's
    hypernyms, synonyms, definition (scanned only if a first subtoken is one of its tokens)."""
    hypernyms = {normalize(h) for h in entry.hypernyms}
    synonyms = {normalize(s) for s in entry.synonyms}
    def_tokens = text_tokens(entry.definition)
    def_set = set(def_tokens)
    return lambda keys, firsts: (not hypernyms.isdisjoint(keys), not synonyms.isdisjoint(keys),
                                 not def_set.isdisjoint(firsts)
                                 and any(_contains_sublist(def_tokens, p) for p in keys.values()))


def wiki_feature_rows(store: WiktionaryStore, embeddings: EmbeddingStore, word: str,
                      candidates: list[Synset],
                      centroids: list[tuple[Optional[np.ndarray], float]]) -> np.ndarray:
    """The four Wiktionary features of (``word``, candidate) for each candidate, as an
    (n, 4) array: a candidate lemma is in the entry's hypernym list (1/0), in its synonym
    list (1/0), in its definition text as a whole-token run (1/0), and the average cosine
    between the candidate's synset vector and the entry's hypernym word vectors.
    ``centroids`` holds each candidate's ``embeddings.centroid_and_norm``.

    A word without an entry gets all-zero rows, and an entry whose hypernyms have no
    vectors a zero cosine. The entry's lemma sets, definition tokens, hypernym vectors
    and norms are prepared once."""
    entry = store.get(word)
    if entry is None:
        return np.zeros((len(candidates), 4))
    matches = _lemma_matcher(entry)
    hypernyms = [(v, float(np.linalg.norm(v))) for v in
                 (word_vector(embeddings, h) for h in entry.hypernyms) if v is not None]
    rows = []  # built as tuples: assigning into numpy rows one at a time costs more
    for candidate, (vec, norm) in zip(candidates, centroids):
        cosines = [_cos(vec, norm, v, n) for v, n in hypernyms]
        rows.append((*matches(*store.lemma_keys(candidate)), sum(cosines) / (len(cosines) or 1)))
    return np.array(rows, dtype=float).reshape(len(candidates), 4)


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
        found = [match(*store.lemma_keys(taxonomy.synset(sid))) for sid in entry_word.gold]
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
