"""Diachronic dataset construction by diffing two taxonomy versions, and the
TSV record files (datasets, training pairs, predictions).

An orphan entry is a lemma present in the newer taxonomy but absent from the
older one, whose direct hypernym synsets all exist in the older version. Its
gold set is the union of direct and second-order hypernyms, restricted to
synsets of the older version. The module needs no vectors: it imports only
``taxonomy``, ``textnorm`` and ``fileio``, so the release-diff commands
(``build-dataset``, ``report``, ``eval``) never load numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .fileio import InputError, atomic_write, read_lines
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


# ---------------------------------------------------------------------------
# Dataset, training-pair and prediction files (TSV)
# ---------------------------------------------------------------------------

def write_dataset(entries: list[OrphanEntry], path: str | Path) -> None:
    """TSV: word, pos, comma-separated gold synset ids; sorted by word."""
    atomic_write(path, "".join(f"{e.word}\t{e.pos.value}\t{','.join(sorted(e.gold))}\n"
                               for e in sorted(entries, key=lambda e: e.word)))


def read_dataset(path: str | Path) -> list[OrphanEntry]:
    path = Path(path)
    entries = []
    for lineno, line in read_lines(path):
        parts = line.split("\t")
        if len(parts) != 3:
            raise InputError(f"{path}:{lineno}: expected 3 columns")
        word, pos, gold = parts
        if "" in gold.split(","):
            raise InputError(f"{path}:{lineno}: empty gold synset id")
        try:
            pos = PartOfSpeech.parse(pos)
        except InputError as exc:
            raise InputError(f"{path}:{lineno}: {exc}") from None
        entries.append(OrphanEntry(word=word, pos=pos, gold=frozenset(gold.split(","))))
    return entries


def write_training_pairs(pairs: list[TrainingPair], path: str | Path) -> None:
    """TSV: word, candidate synset id, label (0|1)."""
    atomic_write(path, "".join(f"{p.word}\t{p.candidate}\t{p.label}\n" for p in pairs))


def read_training_pairs(path: str | Path) -> list[TrainingPair]:
    path = Path(path)
    pairs = []
    for lineno, line in read_lines(path):
        parts = line.split("\t")
        if len(parts) != 3 or parts[2] not in ("0", "1"):
            raise InputError(f"{path}:{lineno}: expected 'word<TAB>candidate<TAB>0|1'")
        pairs.append(TrainingPair(word=parts[0], candidate=parts[1], label=int(parts[2])))
    return pairs


def write_predictions(predictions: dict[str, list], path: str | Path,
                      explain: bool = False) -> None:
    """TSV of ranked ``ScoredCandidate``s: word, 1-based rank, synset id, score[, provenance]."""
    lines = []
    for word in sorted(predictions):
        for rank, cand in enumerate(predictions[word], start=1):
            row = [word, str(rank), cand.synset, repr(cand.score)]
            if explain:
                row.append(",".join(cand.provenance))
            lines.append("\t".join(row) + "\n")
    atomic_write(path, "".join(lines))


def read_predictions(path: str | Path) -> dict[str, list[tuple[str, float]]]:
    """Read a predictions TSV back as word -> [(synset id, score)] in rank order."""
    path = Path(path)
    out: dict[str, list[tuple[str, float]]] = {}
    for lineno, line in read_lines(path):
        try:
            word, _rank, synset, score = line.split("\t")[:4]
            value = float(score)
        except ValueError:
            raise InputError(f"{path}:{lineno}: expected word, rank, synset, score") from None
        out.setdefault(word, []).append((synset, value))
    return out
