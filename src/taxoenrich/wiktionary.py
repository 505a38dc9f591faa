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
from pathlib import Path

import numpy as np

from .embeddings import EmbeddingStore, cosine, word_vector
from .fileio import InputError
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


@dataclass(frozen=True)
class WikiFeatures:
    in_hypernyms: int
    in_synonyms: int
    in_definition: int
    avg_cos_to_wiki_hypernyms: float

    ZERO = None  # set below


WikiFeatures.ZERO = WikiFeatures(0, 0, 0, 0.0)


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
    """Load a JSONL Wiktionary extract; duplicate words merge their lists."""
    path = Path(path)
    entries: dict[str, WiktionaryEntry] = {}
    with path.open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                word = obj["word"]
                hypernyms = list(obj.get("hypernyms", []))
                synonyms = list(obj.get("synonyms", []))
                definition = obj.get("definition", "") or ""
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise WiktionaryFormatError(f"{path}:{lineno}: malformed entry: {exc}") from None
            key = normalize(word)
            if not key:
                raise WiktionaryFormatError(f"{path}:{lineno}: empty word")
            if key in entries:
                existing = entries[key]
                for h in hypernyms:
                    if h not in existing.hypernyms:
                        existing.hypernyms.append(h)
                for s in synonyms:
                    if s not in existing.synonyms:
                        existing.synonyms.append(s)
                if definition:
                    existing.definition = (existing.definition + " " + definition).strip()
            else:
                entries[key] = WiktionaryEntry(word, hypernyms, synonyms, definition)
    return WiktionaryStore(entries)


def _contains_sublist(haystack: list[str], needle: list[str]) -> bool:
    if not needle or len(needle) > len(haystack):
        return False
    for i in range(len(haystack) - len(needle) + 1):
        if haystack[i:i + len(needle)] == needle:
            return True
    return False


def _lemma_matcher(entry: WiktionaryEntry):
    """lemma set -> whether one is in the entry's hypernyms, synonyms, definition."""
    hypernyms = {normalize(h) for h in entry.hypernyms}
    synonyms = {normalize(s) for s in entry.synonyms}
    def_tokens = text_tokens(entry.definition)
    return lambda lemmas: (bool(lemmas & hypernyms), bool(lemmas & synonyms),
                           any(_contains_sublist(def_tokens, subtokens(l)) for l in lemmas))


def wiki_features(store: WiktionaryStore, embeddings: EmbeddingStore,
                  word: str, candidate: Synset) -> WikiFeatures:
    """The four Wiktionary features for an (orphan word, candidate synset) pair.

    A missing entry, or an entry whose hypernyms all fail to resolve to
    vectors, yields the all-zero default.
    """
    in_hyp, in_syn, in_def, avg_cos = wiki_feature_rows(store, embeddings, word, [candidate])[0]
    return WikiFeatures(int(in_hyp), int(in_syn), int(in_def), float(avg_cos))


def wiki_feature_rows(store: WiktionaryStore, embeddings: EmbeddingStore,
                      word: str, candidates: list[Synset]) -> np.ndarray:
    """``wiki_features`` of one word for each candidate, as an (n, 4) array. The
    entry's lemma sets, definition tokens and hypernym vectors are prepared once."""
    rows = np.zeros((len(candidates), 4))
    entry = store.get(word)
    if entry is None:
        return rows
    matches = _lemma_matcher(entry)
    hypernym_vectors = [v for v in (word_vector(embeddings, h) for h in entry.hypernyms)
                        if v is not None]
    for row, candidate in zip(rows, candidates):
        row[:3] = matches({normalize(l) for l in candidate.lemmas})
        cand_vec = embeddings.centroid(candidate) if hypernym_vectors else None
        if cand_vec is not None:
            row[3] = sum(cosine(cand_vec, v) for v in hypernym_vectors) / len(hypernym_vectors)
    return rows


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
        gold_lemmas = {normalize(l)
                       for sid in entry_word.gold
                       for l in taxonomy.synset(sid).lemmas}
        hits = [n + hit for n, hit in zip(hits, _lemma_matcher(entry)(gold_lemmas))]

    def pct(n):
        return 100.0 * n / total if total else 0.0

    return {
        "orphans": total,
        "present_pct": pct(present),
        "gold_in_hypernyms_pct": pct(hits[0]),
        "gold_in_synonyms_pct": pct(hits[1]),
        "gold_in_definition_pct": pct(hits[2]),
    }
