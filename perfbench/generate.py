"""Seeded synthetic inputs for the taxoenrich benchmark.

Every workload is generated from one integer seed, with no taxoenrich code,
so a change to the package cannot change its own inputs. The structure is
planted: each synset has a centre vector that is its parent's centre plus
noise, each lemma vector sits near the centres of its synsets, and each
orphan is a new child of an existing synset, so its nearest neighbours are
its future siblings and `map` lands well inside (0, 1).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

CONSONANTS = "bdfgklmnprstvz"
VOWELS = "aeiou"
SYLLABLES = [c + v for c in CONSONANTS for v in VOWELS]

# A child centre is normalize(parent + SPREAD * g) with g ~ N(0, I/dim), so
# siblings are closer to each other than to cousins.
SPREAD = 0.8
LEMMA_NOISE = 1.2
ORPHAN_NOISE = 1.2
# filler tokens planted around each stray orphan, more than any workload's k
STRAY_FILLERS = 30


@dataclass(frozen=True)
class Spec:
    """Size and shape of one workload's inputs."""

    nouns: int                    # noun synsets in the old taxonomy
    verbs: int                    # verb synsets in the old taxonomy
    dim: int                      # embedding dimension
    vocab: int                    # total tokens in the .vec file
    orphans: int                  # orphan words (noun and verb) in the dataset
    homograph_share: float = 0.0  # orphans that are both a noun and a verb
    polysemy: float = 0.0         # synsets that carry a second, shared lemma
    wiki_coverage: float = 0.0    # words with a Wiktionary entry (0: no file)
    model: bool = False           # write an `lr-model v1` file
    new_taxonomy: bool = False    # write the new release (taxonomy-diff)
    predictions: bool = False     # write a predictions file for the dataset
    embeddings: bool = True


@dataclass
class Synset:
    id: str
    pos: str
    lemmas: list[str]
    parents: list[int]
    children: list[int] = field(default_factory=list)


def token(i: int) -> str:
    """The i-th pseudo-word: bijective base-70 syllables, at least two."""
    n = i + len(SYLLABLES)
    out = []
    while n:
        n, r = divmod(n, len(SYLLABLES))
        out.append(SYLLABLES[r])
    return "".join(reversed(out))


def unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


class Generator:
    def __init__(self, spec: Spec, seed: int):
        self.spec = spec
        self.rng = np.random.default_rng(seed)
        n_words = 4 * (spec.nouns + spec.verbs + spec.orphans) + spec.vocab
        self.words = [token(int(i)) for i in self.rng.permutation(n_words)]
        self.next_word = 0
        self.synsets: list[Synset] = []
        self.centres: list[np.ndarray] = []
        self.sense_counts: dict[tuple[str, str], int] = {}

    def fresh_word(self) -> str:
        w = self.words[self.next_word]
        self.next_word += 1
        return w

    def noise(self, n: int | None = None) -> np.ndarray:
        shape = (self.spec.dim,) if n is None else (n, self.spec.dim)
        return self.rng.standard_normal(shape) / np.sqrt(self.spec.dim)

    def add_synset(self, pos: str, lemma: str, parents: list[int]) -> int:
        n = self.sense_counts.get((lemma, pos), 0) + 1
        self.sense_counts[(lemma, pos)] = n
        idx = len(self.synsets)
        self.synsets.append(Synset(f"{lemma}.{pos}.{n:02d}", pos, [lemma], parents))
        for p in parents:
            self.synsets[p].children.append(idx)
        base = self.centres[parents[0]] if parents else np.zeros(self.spec.dim)
        self.centres.append(unit(base + (SPREAD if parents else 1.0) * self.noise()))
        return idx

    def grow_tree(self, pos: str, size: int, roots: int) -> list[int]:
        """Breadth-first tree of ``size`` synsets; 3% get a second parent
        that was created earlier, so the graph stays acyclic."""
        members = [self.add_synset(pos, self.fresh_word(), []) for _ in range(roots)]
        frontier = list(members)
        while len(members) < size:
            parent = frontier.pop(0)
            n_children = int(self.rng.integers(2, 9))
            for _ in range(min(n_children, size - len(members))):
                parents = [parent]
                if self.rng.random() < 0.03:
                    extra = members[int(self.rng.integers(0, len(members)))]
                    if extra != parent:
                        parents.append(extra)
                child = self.add_synset(pos, self.fresh_word(), parents)
                members.append(child)
                frontier.append(child)
        return members

    def build_old(self) -> None:
        spec = self.spec
        nouns = self.grow_tree("n", spec.nouns, 1)
        verbs = self.grow_tree("v", spec.verbs, max(1, spec.verbs // 60)) if spec.verbs else []
        self.n_old = len(self.synsets)
        # polysemy: a synset borrows the primary lemma of another synset of its pos
        for members in (nouns, verbs):
            if not members:
                continue
            for idx in members:
                if self.rng.random() < spec.polysemy:
                    other = members[int(self.rng.integers(0, len(members)))]
                    lemma = self.synsets[other].lemmas[0]
                    if other != idx and lemma not in self.synsets[idx].lemmas:
                        self.synsets[idx].lemmas.append(lemma)
        self.nouns, self.verbs = nouns, verbs

    def internal(self, members: list[int]) -> list[int]:
        return [i for i in members if self.synsets[i].children]

    def build_orphans(self) -> None:
        """Orphans of three kinds, as in a real release diff: a new leaf under
        an old synset (most), a new lemma on an old synset, and a new
        two-synset chain whose lower word is not an orphan (its hypernym is
        new). Homographs get a noun and a verb leaf with one word. Most
        orphan vectors sit near their synset; 2% have no vector, 3% are
        multiword with vectors for the parts only, 2% are stray."""
        spec = self.spec
        self.orphan_vectors: dict[str, np.ndarray] = {}
        self.stray_centres: list[np.ndarray] = []
        self.added_lemmas: dict[int, list[str]] = {}
        noun_parents = self.internal(self.nouns)
        verb_parents = self.internal(self.verbs)
        leaves = {"n": [i for i in self.nouns if not self.synsets[i].children],
                  "v": [i for i in self.verbs if not self.synsets[i].children]}
        n_verbs = round(spec.orphans * spec.verbs / max(1, spec.nouns + spec.verbs))
        n_homographs = round(spec.orphans * spec.homograph_share / 2)
        plan = (["homograph"] * n_homographs
                + ["v"] * max(0, n_verbs - n_homographs)
                + ["n"] * max(0, spec.orphans - n_verbs - n_homographs))
        for kind in plan:
            word = self.fresh_word()
            roll = self.rng.random()
            if kind == "homograph":
                n_leaf = self.add_synset("n", word, [self.pick(noun_parents)])
                v_leaf = self.add_synset("v", word, [self.pick(verb_parents)])
                vec = self.centres[n_leaf] + self.centres[v_leaf]
            elif roll < 0.08:
                # new lemma on an old leaf synset: the word is a new synonym
                target = self.pick(leaves[kind])
                self.added_lemmas.setdefault(target, []).append(word)
                vec = self.centres[target]
            elif roll < 0.12:
                parent = self.pick(noun_parents if kind == "n" else verb_parents)
                upper = self.add_synset(kind, word, [parent])
                self.add_synset(kind, self.fresh_word(), [upper])
                vec = self.centres[upper]
            else:
                parent = self.pick(noun_parents if kind == "n" else verb_parents)
                leaf = self.add_synset(kind, word, [parent])
                vec = self.centres[leaf]
            if roll > 0.98:
                continue  # no vector at all: the word goes to the OOV sidecar
            if roll > 0.95:
                # multiword surface whose parts, not the whole, have vectors
                parts = (self.fresh_word(), self.fresh_word())
                self.rename(word, " ".join(parts))
                for part in parts:
                    self.orphan_vectors[part] = vec + ORPHAN_NOISE * 2 * self.noise()
                continue
            if roll > 0.93:
                # a stray word: every near neighbour is outside the taxonomy,
                # so no candidate can be found for it
                vec = unit(self.noise())
                self.stray_centres.append(vec)
            self.orphan_vectors[word] = vec + ORPHAN_NOISE * self.noise()

    def pick(self, pool: list[int]) -> int:
        return pool[int(self.rng.integers(0, len(pool)))]

    def rename(self, old: str, new: str) -> None:
        for s in self.synsets[self.n_old:]:
            s.lemmas = [new if l == old else l for l in s.lemmas]
        for lemmas in self.added_lemmas.values():
            lemmas[:] = [new if l == old else l for l in lemmas]

    # -- files ------------------------------------------------------------

    def taxonomy_lines(self, new: bool) -> list[str]:
        count = len(self.synsets) if new else self.n_old
        lines = []
        for i in range(count):
            s = self.synsets[i]
            lemmas = s.lemmas + (self.added_lemmas.get(i, []) if new else [])
            lines.append(json.dumps({"id": s.id, "pos": s.pos, "lemmas": lemmas,
                                     "hypernyms": sorted(self.synsets[p].id for p in s.parents)}))
        return lines

    def expected_dataset(self) -> list[tuple[str, str, list[str]]]:
        """The orphan dataset the release diff defines, computed from the
        generator's own structure: a lemma new in its pos, all of whose
        direct hypernyms are old; gold is direct plus second-order
        hypernyms that are old."""
        def key(lemma: str) -> str:
            return "_".join(lemma.lower().split())

        old_keys = {(key(l), s.pos) for s in self.synsets[:self.n_old] for l in s.lemmas}
        by_key: dict[tuple[str, str], list[tuple[int, str]]] = {}
        for i, s in enumerate(self.synsets):
            lemmas = s.lemmas + self.added_lemmas.get(i, [])
            for l in lemmas:
                if (key(l), s.pos) not in old_keys:
                    by_key.setdefault((key(l), s.pos), []).append((i, l))
        rows = []
        for (_k, pos), members in by_key.items():
            direct = {p for i, _ in members for p in self.synsets[i].parents}
            if not direct or any(p >= self.n_old for p in direct):
                continue
            second = {g for p in direct for g in self.synsets[p].parents}
            gold = sorted(self.synsets[g].id for g in direct | second if g < self.n_old)
            rows.append((min(l for _, l in members), pos, gold))
        rows.sort(key=lambda r: (r[0], r[1]))
        return rows

    def vocabulary(self) -> tuple[list[str], np.ndarray]:
        """Taxonomy lemmas near their synset centres, orphan vectors, then
        filler tokens: a cluster around each stray orphan, 30% of the rest
        near a random synset, the others anywhere."""
        spec = self.spec
        lemma_centres: dict[str, list[int]] = {}
        for i in range(self.n_old):
            for l in self.synsets[i].lemmas:
                lemma_centres.setdefault(l, []).append(i)
        tokens = list(lemma_centres)
        vecs = [np.mean([self.centres[i] for i in lemma_centres[t]], axis=0) for t in tokens]
        vecs = list(np.asarray(vecs) + LEMMA_NOISE * self.noise(len(tokens)))
        for w, v in self.orphan_vectors.items():
            tokens.append(w)
            vecs.append(v)
        n_fill = spec.vocab - len(tokens)
        if n_fill < 0:
            raise ValueError(f"vocab {spec.vocab} smaller than {len(tokens)} needed tokens")
        fill = self.noise(n_fill)
        near = self.rng.random(n_fill) < 0.3
        anchors = self.rng.integers(0, self.n_old, n_fill)
        fill[near] = np.asarray(self.centres)[anchors[near]] + 2 * LEMMA_NOISE * fill[near]
        for i, centre in enumerate(self.stray_centres):
            block = slice(STRAY_FILLERS * i, STRAY_FILLERS * (i + 1))
            fill[block] = centre + ORPHAN_NOISE * self.noise(STRAY_FILLERS)
        tokens.extend(self.fresh_word() for _ in range(n_fill))
        matrix = np.concatenate([np.asarray(vecs), fill]) if vecs else fill
        order = self.rng.permutation(len(tokens))
        return [tokens[i] for i in order], matrix[order]

    def wiktionary_lines(self, words: list[str]) -> list[str]:
        """Entries for a ``wiki_coverage`` share of the words: a hypernym
        that is right half of the time, a synonym and a definition naming
        the parent's lemma."""
        lemma_synsets: dict[str, list[int]] = {}
        for i, s in enumerate(self.synsets):
            for l in s.lemmas + self.added_lemmas.get(i, []):
                lemma_synsets.setdefault(l, []).append(i)
        lines = []
        for w in words:
            if self.rng.random() >= self.spec.wiki_coverage:
                continue
            syn = lemma_synsets[w][0]
            parents = self.synsets[syn].parents
            parent = self.synsets[parents[0]].lemmas[0] if parents else w
            other = self.synsets[int(self.rng.integers(0, self.n_old))].lemmas[0]
            hyper = parent if self.rng.random() < 0.5 else other
            sibling = self.synsets[self.pick(self.synsets[parents[0]].children)].lemmas[0] \
                if parents else other
            definition = f"a kind of {parent if self.rng.random() < 0.6 else other} " \
                         f"that is like {sibling}"
            lines.append(json.dumps({"word": w, "hypernyms": [hyper], "synonyms": [sibling],
                                     "definition": definition}))
        return lines

    def predictions_lines(self, dataset) -> list[str]:
        """Ten ranked guesses per dataset word: the first gold synset at
        rank 1, 2 or 3 or nowhere, other slots random old synsets."""
        lines = []
        for word, _pos, gold in dataset:
            hit = int(self.rng.integers(0, 4))
            for rank in range(1, 11):
                sid = gold[0] if rank == hit else \
                    self.synsets[int(self.rng.integers(0, self.n_old))].id
                lines.append(f"{word}\t{rank}\t{sid}\t{1.0 / rank!r}")
        return lines


def write_vec(path: Path, tokens: list[str], matrix: np.ndarray) -> None:
    fmt = " ".join(["%.5f"] * matrix.shape[1])
    with path.open("w", encoding="utf-8") as fh:
        fh.write(f"{len(tokens)} {matrix.shape[1]}\n")
        for t, row in zip(tokens, matrix.tolist()):
            fh.write(t + " " + fmt % tuple(row) + "\n")


def write_lines(path: Path, lines: list[str]) -> None:
    path.write_text("".join(l + "\n" for l in lines), encoding="utf-8")


# Weights of the shape `train` fits on these inputs, with the similarity
# score weighted up so the ranking stays close to the planted structure.
MODEL_TEXT = """lr-model v1
0.0001
0.6 0.0 1.0 0.4 1.5 -1.0
0.09 0.0003 0.1 0.18 0.16
0.29 0.016 0.31 0.27 0.23
"""


def generate(spec: Spec, seed: int, out: Path) -> dict:
    """Write one workload's inputs into ``out``; return facts the benchmark
    checks against: file sha256, dataset size and training-word count."""
    out.mkdir(parents=True, exist_ok=True)
    g = Generator(spec, seed)
    g.build_old()
    g.build_orphans()
    dataset = g.expected_dataset()
    write_lines(out / "old.jsonl", g.taxonomy_lines(new=False))
    if spec.new_taxonomy:
        write_lines(out / "new.jsonl", g.taxonomy_lines(new=True))
        write_lines(out / "expected_dataset.tsv",
                    [f"{w}\t{p}\t{','.join(gold)}" for w, p, gold in dataset])
    else:
        write_lines(out / "dataset.tsv",
                    [f"{w}\t{p}\t{','.join(gold)}" for w, p, gold in dataset])
    vocab: set[str] = set()
    if spec.embeddings:
        tokens, matrix = g.vocabulary()
        write_vec(out / "vectors.vec", tokens, matrix)
        vocab = set(tokens)
    if spec.wiki_coverage:
        words = sorted({l for s in g.synsets for l in s.lemmas}
                       | {w for ls in g.added_lemmas.values() for w in ls})
        write_lines(out / "wiki.jsonl", g.wiktionary_lines(words))
    if spec.model:
        (out / "model.txt").write_text(MODEL_TEXT, encoding="utf-8")
    if spec.predictions:
        write_lines(out / "predictions.tsv", g.predictions_lines(dataset))

    def has_vector(lemma: str) -> bool:
        t = "_".join(lemma.lower().split())
        return t in vocab or any(p in vocab for p in t.replace("-", "_").split("_") if p)

    leaf_nouns = [s for s in g.synsets[:g.n_old]
                  if s.pos == "n" and s.parents and not any(c < g.n_old for c in s.children)]
    training_words = {l for s in leaf_nouns for l in s.lemmas if has_vector(l)}
    return {
        "inputs": {p.name: sha256(p) for p in sorted(out.iterdir()) if p.is_file()},
        "dataset_entries": len(dataset),
        "noun_training_words": len(training_words),
        "old_synsets": g.n_old,
        "new_synsets": len(g.synsets),
        "vocab": spec.vocab if spec.embeddings else 0,
    }


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()
