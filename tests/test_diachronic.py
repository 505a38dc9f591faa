import random
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taxoenrich.diachronic import (
    DatasetRestrictions,
    OrphanEntry,
    build_dataset,
    dataset_statistics,
    is_named_entity,
    read_dataset,
    read_training_pairs,
    write_dataset,
    write_training_pairs,
)
from taxoenrich.embeddings import EmbeddingStore, word_vector
from taxoenrich.fileio import InputError
from taxoenrich.ranking import build_training_pairs
from taxoenrich.taxonomy import PartOfSpeech

from conftest import make_taxonomy, random_dag_spec

NOUN = PartOfSpeech.NOUN

OLD_SPEC = {"animal": ("n", ["animal"], []),
            "bird": ("n", ["bird"], ["animal"])}
NEW_SPEC = {**OLD_SPEC, "duck": ("n", ["duck"], ["bird"])}


class TestBuildDataset:
    def test_toy_hand_trace(self):
        # duck is new; its direct hypernym (bird) exists in old, so the entry
        # is kept with gold = direct {bird} + second-order {animal}
        old, new = make_taxonomy(OLD_SPEC), make_taxonomy(NEW_SPEC)
        entries = build_dataset(old, new, NOUN)
        assert len(entries) == 1
        assert entries[0].word == "duck"
        assert entries[0].gold == {"bird", "animal"}

    def test_new_hypernym_excludes_entry(self):
        # gull's only direct hypernym (seabird) is itself new
        new = make_taxonomy({**NEW_SPEC,
                             "seabird": ("n", ["seabird"], ["bird"]),
                             "gull": ("n", ["gull"], ["seabird"])})
        entries = build_dataset(make_taxonomy(OLD_SPEC), new, NOUN)
        assert "gull" not in [e.word for e in entries]
        assert [e.word for e in entries] == ["duck", "seabird"]

    def test_missing_second_order_dropped_not_disqualifying(self):
        old = make_taxonomy({"bird": ("n", ["bird"], [])})
        new = make_taxonomy({"animal": ("n", ["animal"], []),
                             "bird": ("n", ["bird"], ["animal"]),
                             "duck": ("n", ["duck"], ["bird"])})
        entries = build_dataset(old, new, NOUN)
        assert len(entries) == 1
        assert entries[0].gold == {"bird"}

    def test_min_length_restriction(self):
        new = make_taxonomy({**OLD_SPEC, "ooh": ("n", ["ooh"], ["bird"])})
        old = make_taxonomy(OLD_SPEC)
        strict = build_dataset(old, new, NOUN, DatasetRestrictions(min_length=4))
        loose = build_dataset(old, new, NOUN, DatasetRestrictions(min_length=0))
        assert [e.word for e in strict] == []
        assert [e.word for e in loose] == ["ooh"]

    def test_named_entity_restriction(self):
        new = make_taxonomy({**OLD_SPEC, "mc": ("n", ["Massif Central"], ["bird"])})
        old = make_taxonomy(OLD_SPEC)
        kept = build_dataset(old, new, NOUN, DatasetRestrictions(min_length=0))
        dropped = build_dataset(old, new, NOUN,
                                DatasetRestrictions(min_length=0,
                                                    exclude_named_entities=True))
        assert [e.word for e in kept] == ["Massif Central"]
        assert dropped == []

    def test_multiword_restriction(self):
        new = make_taxonomy({**OLD_SPEC, "dm": ("n", ["dancing master"], ["bird"])})
        old = make_taxonomy(OLD_SPEC)
        dropped = build_dataset(old, new, NOUN,
                                DatasetRestrictions(min_length=0, exclude_multiword=True))
        assert dropped == []

    def test_identity_diff_empty(self):
        old = make_taxonomy(NEW_SPEC)
        assert build_dataset(old, old, NOUN) == []

    def test_gold_members_exist_in_old(self):
        old, new = make_taxonomy(OLD_SPEC), make_taxonomy(NEW_SPEC)
        for entry in build_dataset(old, new, NOUN):
            assert all(sid in old for sid in entry.gold)
            assert not old.synsets_of_lemma(entry.word, entry.pos)

    def test_restriction_monotonicity_random(self):
        rng = np.random.default_rng(3)
        surfaces = ["ab", "Abcd", "abcde", "ab cd", "Xy", "foo-bar", "ooh",
                    "Quack Quack", "waterbird", "tiny"]
        for _ in range(200):
            n = int(rng.integers(3, 12))
            old_spec = random_dag_spec(rng, n)
            new_spec = dict(old_spec)
            for j in range(int(rng.integers(1, 5))):
                word = surfaces[int(rng.integers(len(surfaces)))] + str(j)
                attach = f"n{int(rng.integers(n))}"
                new_spec[f"new{j}"] = ("n", [word], [attach])
            old, new = make_taxonomy(old_spec), make_taxonomy(new_spec)
            loose = DatasetRestrictions(
                min_length=int(rng.integers(0, 4)),
                exclude_named_entities=bool(rng.random() < 0.3),
                exclude_multiword=False)
            tight = DatasetRestrictions(
                min_length=loose.min_length + int(rng.integers(0, 4)),
                exclude_named_entities=loose.exclude_named_entities or rng.random() < 0.5,
                exclude_multiword=bool(rng.random() < 0.5))
            loose_words = {e.word for e in build_dataset(old, new, NOUN, loose)}
            tight_words = {e.word for e in build_dataset(old, new, NOUN, tight)}
            assert tight_words <= loose_words


class TestStatistics:
    def test_toy_counts(self):
        stats = dataset_statistics(make_taxonomy(OLD_SPEC), make_taxonomy(NEW_SPEC))
        assert stats["old"]["synsets"]["n"] == 2
        assert stats["new"]["synsets"]["n"] == 3
        assert stats["new_words"] == {"n": 1, "v": 0}

    def test_identity_diff_zero_new_words(self):
        t = make_taxonomy(NEW_SPEC)
        stats = dataset_statistics(t, t)
        assert stats["new_words"] == {"n": 0, "v": 0}


class TestNamedEntity:
    @pytest.mark.parametrize("word,expected", [
        ("Massif Central", True),
        ("duck", False),
        ("dancing-master", False),
        ("McDonald", True),
        ("iphone Pro", True),
    ])
    def test_heuristic(self, word, expected):
        assert is_named_entity(word) is expected


def pair_store():
    return EmbeddingStore(2, {"a": np.array([1.0, 0.0]),
                              "b": np.array([0.9, 0.1]),
                              "c": np.array([0.5, 0.5])})


class TestTrainingPairs:
    def test_chain_positives(self, chain_taxonomy):
        pairs, summary = build_training_pairs(chain_taxonomy, pair_store(), NOUN, seed=1)
        positives = {(p.word, p.candidate) for p in pairs if p.label == 1}
        assert positives == {("c", "B"), ("c", "A")}
        assert summary["positives"] == 2

    def test_balanced_counts(self, chain_taxonomy):
        pairs, summary = build_training_pairs(chain_taxonomy, pair_store(), NOUN,
                                              negatives_per_positive=1, seed=1)
        n_pos = sum(1 for p in pairs if p.label == 1)
        n_neg = sum(1 for p in pairs if p.label == 0)
        assert n_neg <= n_pos  # equal unless non-gold synsets run out

    def test_determinism(self, chain_taxonomy):
        a, _ = build_training_pairs(chain_taxonomy, pair_store(), NOUN, seed=42)
        b, _ = build_training_pairs(chain_taxonomy, pair_store(), NOUN, seed=42)
        assert [(p.word, p.candidate, p.label) for p in a] == \
               [(p.word, p.candidate, p.label) for p in b]

    def test_no_label_collisions(self):
        rng = np.random.default_rng(9)
        t = make_taxonomy(random_dag_spec(rng, 15, edge_prob=0.3))
        store = EmbeddingStore(3, {f"lemma{i}": rng.normal(size=3) for i in range(15)})
        pairs, _ = build_training_pairs(t, store, NOUN, negatives_per_positive=2, seed=5)
        seen = {}
        for p in pairs:
            key = (p.word, p.candidate)
            assert key not in seen, f"duplicate pair {key}"
            seen[key] = p.label

    def test_oov_lemmas_tallied(self, chain_taxonomy):
        store = EmbeddingStore(2, {"zzz": np.array([1.0, 0.0])})
        pairs, summary = build_training_pairs(chain_taxonomy, store, NOUN, seed=0)
        assert pairs == []
        assert summary["skipped_oov_lemmas"] == 1


def eager_negatives_oracle(old, store, pos, negatives_per_positive, seed, pools):
    """The pairs as first written, with each word's uniform fallback pool (every
    non-gold synset of ``pos``) built up front whether or not it is drawn from."""
    rng = random.Random(seed)
    positives, golds = {}, {}
    for sid in sorted(old.leaf_synsets(pos)):
        gold = set(old.direct_hypernyms(sid)) | set(old.second_order_hypernyms(sid))
        if not gold:
            continue
        for lemma in old.synset(sid).lemmas:
            if word_vector(store, lemma) is None:
                continue
            seen = positives.setdefault(lemma, [])
            seen += [h for h in sorted(gold) if h not in seen]
            golds.setdefault(lemma, set()).update(gold)
    all_pos = sorted(s for s, syn in old.synsets.items() if syn.pos == pos)
    out = []
    for word in sorted(positives):
        gold = golds[word]
        hard = sorted(set(pools[(word, pos)]) - gold)
        uniform = [s for s in all_pos if s not in gold]
        used = set(gold)
        for h in positives[word]:
            out.append((word, h, 1))
            for _ in range(negatives_per_positive):
                candidates = [c for c in hard if c not in used] or \
                             [c for c in uniform if c not in used]
                if not candidates:
                    break
                used.add(neg := rng.choice(candidates))
                out.append((word, neg, 0))
    return out


class TestLazyUniformPool:
    @pytest.mark.parametrize("seed", range(4))
    def test_pairs_equal_eager_construction_when_hard_pools_run_out(self, seed):
        rng = np.random.default_rng(seed)
        t = make_taxonomy(random_dag_spec(rng, 25, edge_prob=0.3))
        store = EmbeddingStore(3, {f"lemma{i}": rng.normal(size=3) for i in range(25)})
        pools = {}
        pairs, _ = build_training_pairs(t, store, NOUN, negatives_per_positive=3,
                                        seed=seed, k=2, pools=pools)
        got = [(p.word, p.candidate, p.label) for p in pairs]
        assert got == eager_negatives_oracle(t, store, NOUN, 3, seed, pools)
        # the fixture reaches the fallback: some negative lies outside its word's pool
        assert any(label == 0 and cand not in pools[(word, NOUN)]
                   for word, cand, label in got)


class TestFiles:
    def test_dataset_roundtrip(self, tmp_path):
        old, new = make_taxonomy(OLD_SPEC), make_taxonomy(NEW_SPEC)
        entries = build_dataset(old, new, NOUN)
        path = tmp_path / "dataset.tsv"
        write_dataset(entries, path)
        assert read_dataset(path) == entries

    @pytest.mark.parametrize("gold", ["", "A,,B", "A,"])
    def test_empty_gold_id_rejected_with_line(self, tmp_path, gold):
        path = tmp_path / "dataset.tsv"
        path.write_text(f"duck\tn\tA\nfoo\tn\t{gold}\n")
        with pytest.raises(InputError, match=r"dataset\.tsv:2: "):
            read_dataset(path)

    @pytest.mark.parametrize("read, good, bad, problem", [
        (read_dataset, "duck\tn\tA", "duck\tn", "expected 3 columns"),
        (read_dataset, "duck\tn\tA", "duck\tn\tA\tB", "expected 3 columns"),
        (read_dataset, "duck\tn\tA", "   ", "expected 3 columns"),
        (read_dataset, "duck\tn\tA", "foo\tn\tA,", "empty gold synset id"),
        (read_dataset, "duck\tn\tA", "duck\tx\tA", "unsupported part of speech: 'x'"),
        (read_training_pairs, "duck\tA\t1", "duck\tA", "expected 'word<TAB>candidate<TAB>0|1'"),
        (read_training_pairs, "duck\tA\t1", " \t", "expected 'word<TAB>candidate<TAB>0|1'"),
        (read_training_pairs, "duck\tA\t1", "duck\tB\t2",
         "expected 'word<TAB>candidate<TAB>0|1'"),
        (read_training_pairs, "duck\tA\t1", "duck\tB\t 1",
         "expected 'word<TAB>candidate<TAB>0|1'"),
    ])
    def test_malformed_line_message(self, tmp_path, read, good, bad, problem):
        path = tmp_path / "in.tsv"
        path.write_text(f"\n{good}\n{bad}\n", encoding="utf-8")
        with pytest.raises(InputError) as err:
            read(path)
        assert str(err.value) == f"{path}:3: {problem}"

    def test_only_empty_lines_are_skipped(self, tmp_path):
        path = tmp_path / "in.tsv"
        path.write_text("\nduck\tn\tA\n\n\ngoose\tv\tB,C")
        assert read_dataset(path) == [OrphanEntry("duck", NOUN, frozenset({"A"})),
                                      OrphanEntry("goose", PartOfSpeech.VERB,
                                                  frozenset({"B", "C"}))]

    def test_pairs_roundtrip(self, tmp_path, chain_taxonomy):
        pairs, _ = build_training_pairs(chain_taxonomy, pair_store(), NOUN, seed=1)
        path = tmp_path / "pairs.tsv"
        write_training_pairs(pairs, path)
        loaded = read_training_pairs(path)
        assert [(p.word, p.candidate, p.label) for p in loaded] == \
               [(p.word, p.candidate, p.label) for p in pairs]


_field = st.characters(blacklist_characters="\t\n\r", blacklist_categories=("Cs",))
_gold_id = st.text(st.characters(blacklist_characters="\t\n\r,", blacklist_categories=("Cs",)),
                   min_size=1, max_size=6)
_entries = st.lists(st.builds(OrphanEntry, word=st.text(_field, min_size=1, max_size=8),
                              pos=st.sampled_from(PartOfSpeech),
                              gold=st.frozensets(_gold_id, min_size=1, max_size=4)),
                    max_size=8)


@given(_entries)
@settings(max_examples=80, deadline=None)
def test_dataset_file_round_trip(entries):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "dataset.tsv"
        write_dataset(entries, path)
        assert read_dataset(path) == sorted(entries, key=lambda e: e.word)
