"""Wordnet-style taxonomy graph: loading, validation, indexing and queries.

The interchange format is JSONL (UTF-8), one synset per line:

    {"id": "dancer.n.01", "pos": "n", "lemmas": ["dancer", "professional dancer"],
     "hypernyms": ["performer.n.01"]}

Only nouns and verbs are supported. The hypernym graph must be a DAG; cycles,
dangling edges and duplicate ids are load errors.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from enum import Enum
from itertools import repeat
from pathlib import Path

from .fileio import InputError, atomic_write, decode_json, gc_paused, read_lines
from .textnorm import normalize


class TaxonomyError(InputError):
    """Raised for malformed or inconsistent taxonomy input."""


class PartOfSpeech(str, Enum):
    NOUN = "n"
    VERB = "v"

    @classmethod
    def parse(cls, value: str) -> "PartOfSpeech":
        try:
            return _POS_ALIASES[value.lower()]
        except KeyError:
            raise TaxonomyError(f"unsupported part of speech: {value!r}") from None


_POS_ALIASES = {"n": PartOfSpeech.NOUN, "noun": PartOfSpeech.NOUN,
                "v": PartOfSpeech.VERB, "verb": PartOfSpeech.VERB}


@dataclass(frozen=True, slots=True)
class Synset:
    id: str
    pos: PartOfSpeech
    lemmas: tuple[str, ...]  # original surface forms, order preserved

    def __post_init__(self):
        if not self.id:
            raise TaxonomyError("synset id must be non-empty")
        if not self.lemmas or "" in self.lemmas:
            raise TaxonomyError(f"synset {self.id}: lemmas must be non-empty")


@dataclass(frozen=True)
class GoldComponents:
    """A gold hypernym set partitioned into taxonomy-connected components."""

    components: tuple[frozenset[str], ...]

    def __len__(self) -> int:
        return len(self.components)


class Taxonomy:
    """Immutable synset graph with a lemma index.

    ``hypernym_edges`` maps each synset id to the set of ids of its direct
    hypernyms (child -> parents). Safe for concurrent readers after
    construction: the one memo it fills later is a pure cache.
    """

    def __init__(self, synsets: dict[str, Synset], hypernym_edges: dict[str, set[str]]):
        self.synsets: dict[str, Synset] = dict(synsets)
        self.hypernym_edges: dict[str, frozenset[str]] = {
            sid: frozenset(hypernym_edges.get(sid, ())) for sid in self.synsets
        }
        self._validate_edges()
        self._check_acyclic()
        self.lemma_index: dict[tuple[str, PartOfSpeech], frozenset[str]] = self._build_lemma_index()
        # ids that are some synset's direct hypernym, i.e. have hyponyms
        self._has_hyponyms: frozenset[str] = frozenset(
            h for targets in self.hypernym_edges.values() for h in targets
        )
        self._associated: dict[tuple[str, PartOfSpeech], tuple[str, ...]] = {}

    def _validate_edges(self):
        for sid, targets in self.hypernym_edges.items():
            for h in targets:
                if h == sid:
                    raise TaxonomyError(f"self-loop edge on synset {sid!r}")
                if h not in self.synsets:
                    raise TaxonomyError(f"dangling hypernym edge {sid!r} -> {h!r}")

    def _check_acyclic(self):
        # Kahn's algorithm over child -> hypernym edges
        indegree = {sid: 0 for sid in self.synsets}
        for targets in self.hypernym_edges.values():
            for h in targets:
                indegree[h] += 1
        queue = deque(sid for sid, d in indegree.items() if d == 0)
        seen = 0
        while queue:
            sid = queue.popleft()
            seen += 1
            for h in self.hypernym_edges[sid]:
                indegree[h] -= 1
                if indegree[h] == 0:
                    queue.append(h)
        if seen != len(self.synsets):
            cyclic = sorted(sid for sid, d in indegree.items() if d > 0)
            raise TaxonomyError(f"hypernym graph contains a cycle involving: {cyclic[:5]}")

    def _build_lemma_index(self):
        index: dict[tuple[str, PartOfSpeech], set[str]] = {}
        for sid, syn in self.synsets.items():
            for lemma in syn.lemmas:
                index.setdefault((normalize(lemma), syn.pos), set()).add(sid)
        return {key: frozenset(ids) for key, ids in index.items()}

    def __contains__(self, sid: str) -> bool:
        return sid in self.synsets

    def __len__(self) -> int:
        return len(self.synsets)

    def synset(self, sid: str) -> Synset:
        try:
            return self.synsets[sid]
        except KeyError:
            raise TaxonomyError(f"unknown synset id: {sid!r}") from None

    def direct_hypernyms(self, sid: str) -> frozenset[str]:
        if sid not in self.synsets:
            raise TaxonomyError(f"unknown synset id: {sid!r}")
        return self.hypernym_edges[sid]

    def second_order_hypernyms(self, sid: str) -> frozenset[str]:
        """Hypernyms of each direct hypernym (grandparents)."""
        out: set[str] = set()
        for h in self.direct_hypernyms(sid):
            out |= self.hypernym_edges[h]
        return frozenset(out)

    def synsets_of_lemma(self, word: str, pos: PartOfSpeech) -> frozenset[str]:
        return self.lemma_index.get((normalize(word), pos), frozenset())

    def associated_synsets(self, sid: str, pos: PartOfSpeech) -> tuple[str, ...]:
        """``sid`` and each synset of ``pos`` sharing a lemma with it, sorted; memoized."""
        if (sid, pos) not in self._associated:
            self._associated[sid, pos] = tuple(sorted({sid}.union(
                *(self.synsets_of_lemma(lemma, pos) for lemma in self.synset(sid).lemmas))))
        return self._associated[sid, pos]

    def leaf_synsets(self, pos: PartOfSpeech) -> frozenset[str]:
        """Synsets of the given pos with no hyponyms."""
        return frozenset(
            sid for sid, syn in self.synsets.items()
            if syn.pos == pos and sid not in self._has_hyponyms
        )

    def connected_components(self, gold: set[str]) -> GoldComponents:
        """Partition ``gold`` into components connected by direct hypernym links.

        Edges are the direct hypernym relations of the taxonomy restricted to
        gold x gold (undirected). Components are ordered by smallest member id.
        """
        gold = set(gold)
        for sid in gold:
            if sid not in self.synsets:
                raise TaxonomyError(f"unknown synset id in gold set: {sid!r}")
        adjacency: dict[str, set[str]] = {sid: set() for sid in gold}
        for sid in gold:
            for h in self.hypernym_edges[sid]:
                if h in gold:
                    adjacency[sid].add(h)
                    adjacency[h].add(sid)
        components: list[frozenset[str]] = []
        unvisited = set(gold)
        while unvisited:
            start = next(iter(unvisited))
            queue = deque([start])
            comp = {start}
            unvisited.discard(start)
            while queue:
                node = queue.popleft()
                for nb in adjacency[node]:
                    if nb in unvisited:
                        unvisited.discard(nb)
                        comp.add(nb)
                        queue.append(nb)
            components.append(frozenset(comp))
        components.sort(key=min)
        return GoldComponents(tuple(components))


def _record(obj) -> tuple[Synset, list[str]]:
    """One JSONL record's synset and hypernym ids, each field type-checked."""
    if type(obj) is not dict:
        raise TaxonomyError("expected a JSON object")
    sid, pos, lemmas = obj.get("id"), obj.get("pos"), obj.get("lemmas")
    hypernyms = obj.get("hypernyms", [])
    if type(sid) is not str:
        raise TaxonomyError(f"'id' must be a string, got {sid!r}")
    if type(pos) is not str:
        raise TaxonomyError(f"'pos' must be a string, got {pos!r}")
    if type(lemmas) is not list or not all(map(isinstance, lemmas, repeat(str))):
        raise TaxonomyError(f"'lemmas' must be a list of strings, got {lemmas!r}")
    if type(hypernyms) is not list or not all(map(isinstance, hypernyms, repeat(str))):
        raise TaxonomyError(f"'hypernyms' must be a list of strings, got {hypernyms!r}")
    return Synset(id=sid, pos=PartOfSpeech.parse(pos), lemmas=tuple(lemmas)), hypernyms


def load_taxonomy(path: str | Path) -> Taxonomy:
    """Load and validate a taxonomy from the JSONL interchange format; the cyclic
    garbage collector stays paused (``fileio.gc_paused``) for the graph build too."""
    path = Path(path)
    synsets: dict[str, Synset] = {}
    edges: dict[str, frozenset[str]] = {}
    with gc_paused():
        for lineno, line in read_lines(path, str.strip):
            try:
                obj = decode_json(line)
            except json.JSONDecodeError as exc:
                raise TaxonomyError(f"{path}:{lineno}: malformed JSON: {exc}") from None
            try:
                syn, hypernyms = _record(obj)
            except TaxonomyError as exc:
                raise TaxonomyError(f"{path}:{lineno}: {exc}") from None
            if syn.id in synsets:
                raise TaxonomyError(f"{path}:{lineno}: duplicate synset id {syn.id!r}")
            synsets[syn.id] = syn
            edges[syn.id] = frozenset(hypernyms)  # adopted by Taxonomy, not copied
        if not synsets:
            raise TaxonomyError(f"{path}: taxonomy file is empty")
        return Taxonomy(synsets, edges)


def save_taxonomy(taxonomy: Taxonomy, path: str | Path) -> None:
    """Write a taxonomy back to the JSONL interchange format (sorted by id)."""
    atomic_write(path, "".join(json.dumps({
        "id": syn.id,
        "pos": syn.pos.value,
        "lemmas": list(syn.lemmas),
        "hypernyms": sorted(taxonomy.hypernym_edges[sid]),
    }, ensure_ascii=False) + "\n" for sid, syn in sorted(taxonomy.synsets.items())))
