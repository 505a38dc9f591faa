"""Wordnet-style taxonomy graph: loading, validation, indexing and queries.

The interchange format is JSONL (UTF-8), one synset per line:

    {"id": "dancer.n.01", "pos": "n", "lemmas": ["dancer", "professional dancer"],
     "hypernyms": ["performer.n.01"]}

Only nouns and verbs are supported. The hypernym graph must be a DAG; cycles,
dangling edges and duplicate ids are load errors. A regular file's parse is kept in
the sidecar ``<file>.cache`` (see ``load_taxonomy``).
"""

from __future__ import annotations

import json
import marshal
import sys
import weakref
from collections import Counter, deque
from enum import Enum
from functools import cached_property
from itertools import chain, repeat
from pathlib import Path

from .fileio import (CACHE_ERRORS, InputError, decode_json, gc_paused, load_cached,
                     read_lines, rebuilding)
from .textnorm import normalize

# Changed whenever the parse, its checks or the layout of the payload (the maps, then the
# lemma index) change, so that no older sidecar is served.
_CACHE_FORMAT = 4


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


class Taxonomy:
    """Immutable synset graph with a lemma index, held as plain maps.

    ``lemmas`` maps each synset id to its lemmas (original surface forms, in file order),
    ``ids`` each part of speech to the ids of its synsets, and ``hypernym_edges`` each id
    to the ids of its direct hypernyms (child -> parents). ``lemma_index`` maps a part of
    speech to {normalized lemma: its synsets' sorted ids}, written into the sidecar with the
    maps and read back from a served load's copy of those bytes; a token normalized once (a
    store's) is read there as stored. Safe for concurrent readers: the lemma index, the
    hyponym set and ``hypernym_runs`` are made on first read, and a concurrent fill stores
    an equal value.
    """

    def __init__(self, lemmas: dict[str, tuple[str, ...]],
                 ids: dict[PartOfSpeech, frozenset[str]],
                 hypernym_edges: dict[str, frozenset[str]]):
        """Take the maps as ``load_taxonomy`` builds them: ``ids`` has a key per part of speech,
        its sets and ``hypernym_edges`` cover ``lemmas``, and the graph passed ``_check_graph``."""
        self.lemmas, self.ids, self.hypernym_edges = lemmas, ids, hypernym_edges
        self._stored_index = None  # (its sidecar, the index's bytes) if served from one
        self.hypernym_runs = {pos: _HypernymRuns(self, pos) for pos in PartOfSpeech}

    @cached_property
    def lemma_index(self) -> dict[PartOfSpeech, dict[str, tuple[str, ...]]]:
        if self._stored_index is not None:
            cache, data = self._stored_index
            try:
                return _index_of(data)
            except CACHE_ERRORS as exc:
                rebuilding(cache, "lemma index of the taxonomy", exc)
        return self._build_lemma_index()

    def _build_lemma_index(self) -> dict[PartOfSpeech, dict[str, tuple[str, ...]]]:
        index = {}
        for pos, ids in self.ids.items():
            part: dict[str, set[str]] = {}
            for sid, lemmas in self.lemmas.items():
                if sid in ids:
                    for lemma in lemmas:
                        part.setdefault(normalize(lemma), set()).add(sid)
            index[pos] = {key: tuple(sorted(found)) for key, found in part.items()}
        return index

    @cached_property
    def _has_hyponyms(self) -> frozenset[str]:
        """The ids that are some synset's direct hypernym."""
        return frozenset(chain.from_iterable(self.hypernym_edges.values()))

    def __contains__(self, sid: str) -> bool:
        return sid in self.lemmas

    def direct_hypernyms(self, sid: str) -> frozenset[str]:
        if sid not in self.lemmas:
            raise TaxonomyError(f"unknown synset id: {sid!r}")
        return self.hypernym_edges[sid]

    def second_order_hypernyms(self, sid: str) -> frozenset[str]:
        """Hypernyms of each direct hypernym (grandparents)."""
        out: set[str] = set()
        for h in self.direct_hypernyms(sid):
            out |= self.hypernym_edges[h]
        return frozenset(out)

    def synsets_of_lemma(self, word: str, pos: PartOfSpeech) -> tuple[str, ...]:
        """The sorted synsets of ``pos`` that hold raw input ``word`` as a lemma."""
        return self.lemma_index[pos].get(normalize(word), ())

    def associated_synsets(self, sid: str, pos: PartOfSpeech) -> tuple[str, ...]:
        """``sid`` and each synset of ``pos`` sharing a lemma with it, sorted."""
        return tuple(sorted({sid}.union(
            *(self.synsets_of_lemma(lemma, pos) for lemma in self.lemmas[sid]))))

    def leaf_synsets(self, pos: PartOfSpeech) -> frozenset[str]:
        """Synsets of the given pos with no hyponyms."""
        return self.ids[pos] - self._has_hyponyms

    def connected_components(self, gold: set[str]) -> tuple[frozenset[str], ...]:
        """Partition ``gold`` into components connected by direct hypernym links.

        Edges are the direct hypernym relations of the taxonomy restricted to
        gold x gold (undirected). Components are ordered by smallest member id.
        """
        gold = set(gold)
        for sid in gold:
            if sid not in self.lemmas:
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
        return tuple(components)


class _HypernymRuns(dict):
    """A synset id -> the ``associated_synsets`` (of one part of speech) of its sorted direct
    hypernyms, concatenated with repeats kept; filled on lookup, each hypernym's associated
    synsets built once (``associated``). Keyed by plain ids, as hashing an (id, pos) key
    costs a Python-level call; the taxonomy is held by a weak proxy, as a reference cycle
    would leave a dropped taxonomy to the cyclic collector."""

    def __init__(self, taxonomy: Taxonomy, pos: PartOfSpeech):
        self.taxonomy, self.pos = weakref.proxy(taxonomy), pos
        self.associated: dict[str, tuple[str, ...]] = {}

    def __missing__(self, sid: str) -> tuple[str, ...]:
        self[sid] = run = tuple(chain.from_iterable(map(
            self._associated, sorted(self.taxonomy.direct_hypernyms(sid)))))
        return run

    def _associated(self, hyp: str) -> tuple[str, ...]:
        if (found := self.associated.get(hyp)) is None:
            self.associated[hyp] = found = self.taxonomy.associated_synsets(hyp, self.pos)
        return found


def _check_graph(path: Path, lemmas: dict, edges: dict[str, frozenset[str]]) -> None:
    """A ``TaxonomyError`` naming ``path`` for the first self-loop, dangling edge or cycle."""
    for sid, targets in edges.items():
        for h in targets:
            if h == sid:
                raise TaxonomyError(f"{path}: self-loop edge on synset {sid!r}")
            if h not in lemmas:
                raise TaxonomyError(f"{path}: dangling hypernym edge {sid!r} -> {h!r}")
    # Kahn's algorithm over child -> hypernym edges; a synset no edge enters has no
    # count. A synset is appended once all its hyponyms are, and the loop visits what
    # it appends, so ``order`` misses exactly the synsets on or above a cycle.
    indegree = Counter(chain.from_iterable(edges.values()))
    order = [sid for sid in edges if sid not in indegree]
    for sid in order:
        for h in edges[sid]:
            indegree[h] -= 1
            if not indegree[h]:
                order.append(h)
    if len(order) != len(lemmas):
        cyclic = sorted(sid for sid, d in indegree.items() if d > 0)
        raise TaxonomyError(f"{path}: hypernym graph contains a cycle involving: {cyclic[:5]}")


def _record(obj) -> tuple[str, PartOfSpeech, list[str], list[str]]:
    """One JSONL record's id, part of speech (its case folded), lemmas and hypernym ids,
    or a ``TaxonomyError`` for its first failed check."""
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
    part = _POS_ALIASES.get(pos)  # exact first; ``parse`` folds the case and words the error
    if part is None:
        part = PartOfSpeech.parse(pos)
    if not sid:
        raise TaxonomyError("synset id must be non-empty")
    if not lemmas or "" in lemmas:
        raise TaxonomyError(f"synset {sid}: lemmas must be non-empty")
    return sid, part, lemmas, hypernyms


def load_taxonomy(path: str | Path) -> Taxonomy:
    """Load and check a taxonomy from the JSONL interchange format, with the cyclic garbage
    collector paused (``fileio.gc_paused``) throughout.

    A regular file's parse is kept in the sidecar ``<path>.cache`` (``fileio.load_cached``,
    keyed also on the ``marshal`` format and the interpreter version that reads it back):
    the three maps written by ``marshal``, taken back with no check of their own, as they
    passed every check on the same bytes, then the lemma index, built to be written there.
    A pipe is parsed in one pass, with no sidecar and no index until one is read."""
    key = {"format": _CACHE_FORMAT, "marshal": marshal.version,
           "python": "%d.%d" % sys.version_info[:2]}
    with gc_paused():
        return load_cached(path, "taxonomy", key, _parse, _dump, _load)


def _dump(taxonomy: Taxonomy) -> tuple[dict, list]:
    """The sidecar fields and payload of ``taxonomy``, as ``_load`` reads them back."""
    # ids as tuples: marshal sorts a set's members (3.11 on), 0.13 s for WordNet's nouns;
    # edges naming each id's own string object, which marshal writes once and then refers
    # to, so a load makes a sixth less data and about 100k fewer strings at WordNet size
    ids = {pos.value: tuple(members) for pos, members in taxonomy.ids.items()}
    same = dict(zip(taxonomy.lemmas, taxonomy.lemmas))
    edges = {sid: frozenset(map(same.__getitem__, targets))
             for sid, targets in taxonomy.hypernym_edges.items()}
    maps = marshal.dumps((taxonomy.lemmas, ids, edges))
    # then the lemma index, in the parts of speech's order, as ``ids`` has them
    index = marshal.dumps([taxonomy.lemma_index[pos] for pos in PartOfSpeech])
    return {"index_offset": len(maps)}, [maps, index]


def _load(payload, fields: dict, cache: Path) -> Taxonomy:
    """The taxonomy kept in a sidecar's checked payload: the maps (``marshal`` reads no
    further), and a copy of the index's bytes for its first read, as a view would hold the
    mapping open."""
    lemmas, ids, edges = marshal.loads(payload)
    taxonomy = Taxonomy(lemmas, {pos: frozenset(ids[pos.value]) for pos in PartOfSpeech}, edges)
    taxonomy._stored_index = cache, bytes(payload[fields["index_offset"]:])
    return taxonomy


def _index_of(data) -> dict[PartOfSpeech, dict[str, tuple[str, ...]]]:
    """The lemma index in checked bytes; a ``ValueError`` unless it is one {str: tuple} map
    per part of speech (``in`` on another value, a str say, answers with no error)."""
    parts = marshal.loads(data)
    if type(parts) is not list or len(parts) != len(PartOfSpeech) or not all(
            type(part) is dict and all(map(str.__instancecheck__, part))
            and all(map(tuple.__instancecheck__, part.values())) for part in parts):
        raise ValueError("not one {lemma: ids} map per part of speech")
    return dict(zip(PartOfSpeech, parts))


def _parse(path: Path) -> Taxonomy:
    """The taxonomy of a JSONL file, read in one pass that checks each record with
    ``_record``, then its graph with ``_check_graph``."""
    lemmas: dict[str, tuple[str, ...]] = {}
    edges: dict[str, frozenset[str]] = {}
    members: dict[PartOfSpeech, list[str]] = {pos: [] for pos in PartOfSpeech}
    for lineno, line in read_lines(path, str.strip):
        try:
            obj = decode_json(line)
        except (json.JSONDecodeError, RecursionError) as exc:  # nested past the limit
            raise TaxonomyError(f"{path}:{lineno}: malformed JSON: {exc}") from None
        try:
            sid, part, names, hypernyms = _record(obj)
        except TaxonomyError as exc:
            raise TaxonomyError(f"{path}:{lineno}: {exc}") from None
        if sid in lemmas:
            raise TaxonomyError(f"{path}:{lineno}: duplicate synset id {sid!r}")
        lemmas[sid] = tuple(names)
        edges[sid] = frozenset(hypernyms)
        members[part].append(sid)
    if not lemmas:
        raise TaxonomyError(f"{path}: taxonomy file is empty")
    _check_graph(path, lemmas, edges)
    return Taxonomy(lemmas, {pos: frozenset(ids) for pos, ids in members.items()}, edges)
