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
from math import isfinite
from pathlib import Path
from typing import Callable, Iterable, Iterator

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
    """Which orphan words a dataset keeps; the defaults keep all of them."""
    min_length: int = 0
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


def build_dataset(old: Taxonomy, new: Taxonomy, pos: PartOfSpeech) -> list[OrphanEntry]:
    """Orphan entries for lemmas of ``pos`` present in ``new`` but not ``old``.

    An entry is kept only if every direct hypernym synset (in the new
    taxonomy) exists in the old one; second-order hypernyms missing from the
    old version are dropped from the gold set. ``DatasetRestrictions.accepts`` tests
    an entry's final word only, so a restricted dataset is this list filtered by it.
    Output is sorted by word.
    """
    entries: list[OrphanEntry] = []
    old_lemmas = old.lemma_index[pos]
    for norm_lemma, new_synsets in new.lemma_index[pos].items():
        if norm_lemma in old_lemmas:
            continue
        direct: set[str] = set()
        second: set[str] = set()
        surfaces: set[str] = set()
        for sid in new_synsets:
            surfaces.update(l for l in new.lemmas[sid] if normalize(l) == norm_lemma)
            direct |= new.direct_hypernyms(sid)
            second |= new.second_order_hypernyms(sid)
        if not direct or not all(h in old for h in direct):
            continue
        gold = frozenset(h for h in direct | second if h in old)
        if not gold:
            continue
        entries.append(OrphanEntry(word=min(surfaces), pos=pos, gold=gold))
    entries.sort(key=lambda e: e.word)
    return entries


def dataset_statistics(old: Taxonomy, new: Taxonomy,
                       orphans: dict[PartOfSpeech, list[OrphanEntry]]) -> dict:
    """The synset and lemma counts per pos of both versions, and new-word counts, these
    from ``orphans``: each part of speech's unrestricted ``build_dataset`` entries."""

    def counts(t: Taxonomy) -> dict:
        out = {"synsets": {}, "lemmas": {}}
        for pos in PartOfSpeech:
            out["synsets"][pos.value] = len(t.ids[pos])
            out["lemmas"][pos.value] = len(t.lemma_index[pos])
        return out

    new_words = {pos.value: len(orphans[pos]) for pos in PartOfSpeech}
    return {"old": counts(old), "new": counts(new), "new_words": new_words}


# ---------------------------------------------------------------------------
# Dataset, training-pair and prediction files (TSV)
# ---------------------------------------------------------------------------

def _write_tsv(path: str | Path, width: int, rows: Callable[[], Iterable[list[str]]]) -> None:
    """Write the rows ``rows()`` yields, each of ``width`` fields, as TSV lines. A field with
    a tab or a line break would read back as other columns or lines, and a leading U+FEFF as
    a byte-order mark: an ``InputError`` naming ``path`` and the row's first field, the word.
    The separators are counted; ``rows()`` runs a second time only to find that word."""
    lines = list(map("\t".join, rows()))
    text = "\n".join(lines) + "\n" if lines else ""
    if text.count("\t") != len(lines) * (width - 1) or text.count("\n") != len(lines) \
            or "\r" in text:
        word = next(row[0] for row in rows() if any(c in "".join(row) for c in "\t\n\r"))
        raise InputError(f"{path}: {word!r}: a field holds a tab or a line break")
    if text.startswith("\ufeff"):
        word = lines[0].split("\t", 1)[0]
        raise InputError(f"{path}: {word!r}: would start the file with a byte-order mark")
    atomic_write(path, text)


def write_dataset(entries: list[OrphanEntry], path: str | Path) -> None:
    """TSV: word, pos, comma-separated gold synset ids; sorted by word. A gold id holding a
    comma would read back as two ids, so it is an ``InputError`` naming ``path`` and the
    word, as ``_write_tsv`` refuses a tab."""
    entries = sorted(entries, key=lambda e: e.word)
    for e in entries:
        if any("," in sid for sid in e.gold):
            raise InputError(f"{path}: {e.word!r}: a gold synset id holds a comma")
    _write_tsv(path, 3, lambda: ([e.word, e.pos.value, ",".join(sorted(e.gold))]
                                 for e in entries))


def _tsv_rows(path: Path) -> Iterator[tuple[int, list[str]]]:
    """(line number, fields) of each non-empty line of ``path``."""
    for lineno, line in read_lines(path):
        yield lineno, line.split("\t")


def read_dataset(path: str | Path) -> list[OrphanEntry]:
    path = Path(path)
    entries = []
    for lineno, parts in _tsv_rows(path):
        if len(parts) != 3:
            raise InputError(f"{path}:{lineno}: expected 3 columns")
        word, pos, gold = parts
        if not word:
            raise InputError(f"{path}:{lineno}: empty word")
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
    _write_tsv(path, 3, lambda: ([p.word, p.candidate, str(p.label)] for p in pairs))


def write_predictions(predictions: dict[tuple[str, PartOfSpeech], list], path: str | Path,
                      explain: bool = False) -> None:
    """TSV of each dataset entry's ranked ``ScoredCandidate``s, keyed by (word, pos): word,
    pos, 1-based rank, synset id, score[, provenance]; a non-finite score is refused too."""
    def rows():
        for word, pos in sorted(predictions):
            for rank, cand in enumerate(predictions[word, pos], start=1):
                if not isfinite(cand.score):
                    raise InputError(f"{path}: {word!r}: a score is not finite")
                row = [word, pos.value, str(rank), cand.synset, repr(cand.score)]
                if explain:
                    row.append(",".join(cand.provenance))
                yield row
    _write_tsv(path, 6 if explain else 5, rows)


_POS_COLUMN = {pos.value: pos for pos in PartOfSpeech}


def read_predictions(path: str | Path) -> dict:
    """Read a predictions TSV of lines word, pos, rank, synset, score[, provenance] back as
    (word, pos) -> [(synset id, score)] in file order, each rank ASCII digits of a value >= 1
    and each score finite. A line whose second column is a rank, not a part of speech, is of
    the older form (word, rank, synset, score[, provenance]) and is keyed by its word alone."""
    path = Path(path)
    out: dict = {}
    for lineno, parts in _tsv_rows(path):
        pos = _POS_COLUMN.get(parts[1]) if len(parts) > 1 else None
        key, columns = (parts[0], 4) if pos is None else ((parts[0], pos), 5)
        try:
            rank = parts[columns - 3]  # ASCII digits only: int() also takes " 1_0" and "١"
            row = parts[columns - 2], float(parts[columns - 1])  # 1e999 reads as inf
            if not (rank.isascii() and rank.isdigit()) or int(rank) < 1 \
                    or len(parts) > columns + 1 or not isfinite(row[1]):
                raise ValueError
        except (IndexError, ValueError):
            raise InputError(f"{path}:{lineno}: expected word, {'' if pos is None else 'pos, '}"
                             f"rank, synset, score") from None
        out.setdefault(key, []).append(row)
    return out
