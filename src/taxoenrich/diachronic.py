"""Diachronic dataset construction by diffing two taxonomy versions.

An orphan entry is a lemma present in the newer taxonomy but absent from the
older one, whose direct hypernym synsets all exist in the older version. Its
gold set is the union of direct and second-order hypernyms, restricted to
synsets of the older version. The same machinery builds labeled word-candidate
training pairs from the leaf synsets of a single (older) taxonomy.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from . import ranking
from .embeddings import EmbeddingStore, word_vector
from .fileio import InputError, atomic_write_text
from .taxonomy import PartOfSpeech, Taxonomy
from .textnorm import normalize, surface_tokens


@dataclass(frozen=True)
class OrphanEntry:
    word: str                  # original surface form
    pos: PartOfSpeech
    gold: frozenset[str]       # direct + second-order hypernyms in the old taxonomy


@dataclass(frozen=True)
class DatasetRestrictions:
    min_length: int = 4
    exclude_named_entities: bool = False
    exclude_multiword: bool = False

    def __post_init__(self):
        if self.min_length < 0:
            raise ValueError("min_length must be >= 0")

    def accepts(self, word: str) -> bool:
        if len(word.replace(" ", "")) < self.min_length:
            return False
        if self.exclude_named_entities and is_named_entity(word):
            return False
        if self.exclude_multiword and len(surface_tokens(word)) > 1:
            return False
        return True


def is_named_entity(word: str) -> bool:
    """Capitalization heuristic: any token of the surface form starts uppercase."""
    return any(t[0].isupper() for t in surface_tokens(word))


@dataclass
class TrainingPair:
    word: str
    candidate: str
    label: int                 # 1 positive, 0 negative


def build_dataset(old: Taxonomy, new: Taxonomy, pos: PartOfSpeech,
                  restrictions: DatasetRestrictions = DatasetRestrictions(min_length=0),
                  ) -> list[OrphanEntry]:
    """Orphan entries for lemmas of ``pos`` present in ``new`` but not ``old``.

    An entry is kept only if every direct hypernym synset (in the new
    taxonomy) exists in the old one; second-order hypernyms missing from the
    old version are dropped from the gold set. Output is sorted by word.
    """
    entries: list[OrphanEntry] = []
    for (norm_lemma, key_pos), new_synsets in new.lemma_index.items():
        if key_pos != pos or (norm_lemma, pos) in old.lemma_index:
            continue
        direct: set[str] = set()
        second: set[str] = set()
        surfaces: set[str] = set()
        for sid in new_synsets:
            syn = new.synset(sid)
            surfaces.update(l for l in syn.lemmas if normalize(l) == norm_lemma)
            direct |= new.direct_hypernyms(sid)
            second |= new.second_order_hypernyms(sid)
        if not direct or not all(h in old for h in direct):
            continue
        gold = frozenset(h for h in direct | second if h in old)
        if not gold:
            continue
        word = min(surfaces)
        if restrictions.accepts(word):
            entries.append(OrphanEntry(word=word, pos=pos, gold=gold))
    entries.sort(key=lambda e: e.word)
    return entries


def dataset_statistics(old: Taxonomy, new: Taxonomy) -> dict:
    """Synset/lemma counts per pos for both versions plus new-word counts."""

    def counts(t: Taxonomy) -> dict:
        out = {"synsets": {}, "lemmas": {}}
        for pos in PartOfSpeech:
            out["synsets"][pos.value] = sum(1 for s in t.synsets.values() if s.pos == pos)
            out["lemmas"][pos.value] = len({k for k, p in t.lemma_index if p == pos})
        return out

    new_words = {pos.value: len(build_dataset(old, new, pos)) for pos in PartOfSpeech}
    return {"old": counts(old), "new": counts(new), "new_words": new_words}


def build_training_pairs(old: Taxonomy, store: EmbeddingStore, pos: PartOfSpeech,
                         negatives_per_positive: int = 1, seed: int = 0, k: int = 10,
                         pools: Optional[dict] = None) -> tuple[list[TrainingPair], dict]:
    """Labeled word-candidate pairs from the leaf synsets of one taxonomy.

    Positives pair each leaf-synset lemma with its direct and second-order
    hypernym synsets. Negatives are drawn (seeded) from the lemma's own
    generated candidate pool minus its gold set, falling back to uniform
    random non-gold synsets of the same pos. Lemmas with no embedding vector
    are skipped and tallied in the summary. If ``pools`` is a dict, each
    training word's candidate pool is stored in it under (word, pos), so a
    caller can reuse the pools instead of building them again.
    """
    if negatives_per_positive < 1:
        raise ValueError("negatives_per_positive must be >= 1")
    rng = random.Random(seed)

    # First pass: collect all positives per word so negatives never collide.
    positives_by_word: dict[str, list[str]] = {}
    gold_by_word: dict[str, set[str]] = {}
    skipped_oov = 0
    for sid in sorted(old.leaf_synsets(pos)):
        syn = old.synset(sid)
        gold = set(old.direct_hypernyms(sid)) | set(old.second_order_hypernyms(sid))
        if not gold:
            continue
        for lemma in syn.lemmas:
            if word_vector(store, lemma) is None:
                skipped_oov += 1
                continue
            word = lemma
            seen = positives_by_word.setdefault(word, [])
            for h in sorted(gold):
                if h not in seen:
                    seen.append(h)
            gold_by_word.setdefault(word, set()).update(gold)

    all_pos_synsets = sorted(s for s, syn in old.synsets.items() if syn.pos == pos)
    pairs: list[TrainingPair] = []
    n_pos = n_neg = 0
    words = sorted(positives_by_word)
    for word, neighbors in zip(words, ranking.word_neighbors(words, store, k)):
        gold = gold_by_word[word]
        pool = ranking.candidates_extended(word, old, store, pos, k=k, neighbors=neighbors)
        if pools is not None:
            pools[(word, pos)] = pool
        hard_pool = sorted(set(pool) - gold)
        uniform_pool = [s for s in all_pos_synsets if s not in gold]
        used: set[str] = set(gold)
        for h in positives_by_word[word]:
            pairs.append(TrainingPair(word=word, candidate=h, label=1))
            n_pos += 1
            for _ in range(negatives_per_positive):
                candidates = [c for c in hard_pool if c not in used]
                if not candidates:
                    candidates = [c for c in uniform_pool if c not in used]
                if not candidates:
                    break
                neg = rng.choice(candidates)
                used.add(neg)
                pairs.append(TrainingPair(word=word, candidate=neg, label=0))
                n_neg += 1
    summary = {"positives": n_pos, "negatives": n_neg, "skipped_oov_lemmas": skipped_oov}
    return pairs, summary


# ---------------------------------------------------------------------------
# Dataset and training-pair files (TSV)
# ---------------------------------------------------------------------------

def write_dataset(entries: list[OrphanEntry], path: str | Path) -> None:
    """TSV: word, pos, comma-separated gold synset ids; sorted by word."""
    atomic_write_text(path, "".join(f"{e.word}\t{e.pos.value}\t{','.join(sorted(e.gold))}\n"
                                    for e in sorted(entries, key=lambda e: e.word)))


def read_dataset(path: str | Path) -> list[OrphanEntry]:
    path = Path(path)
    entries = []
    with path.open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise InputError(f"{path}:{lineno}: expected 3 columns")
            word, pos, gold = parts
            entries.append(OrphanEntry(word=word, pos=PartOfSpeech.parse(pos),
                                       gold=frozenset(gold.split(","))))
    return entries


def write_training_pairs(pairs: list[TrainingPair], path: str | Path) -> None:
    """TSV: word, candidate synset id, label (0|1)."""
    atomic_write_text(path, "".join(f"{p.word}\t{p.candidate}\t{p.label}\n" for p in pairs))


def read_training_pairs(path: str | Path) -> list[TrainingPair]:
    path = Path(path)
    pairs = []
    with path.open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3 or parts[2] not in ("0", "1"):
                raise InputError(f"{path}:{lineno}: expected 'word<TAB>candidate<TAB>0|1'")
            pairs.append(TrainingPair(word=parts[0], candidate=parts[1], label=int(parts[2])))
    return pairs
