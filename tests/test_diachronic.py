import random
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from taxoenrich.diachronic import (
    DatasetRestrictions,
    OrphanEntry,
    build_dataset,
    dataset_statistics,
    is_named_entity,
    read_dataset,
    read_predictions,
    write_dataset,
    write_predictions,
    write_training_pairs,
)
from taxoenrich.embeddings import word_vector
from taxoenrich.fileio import InputError
from taxoenrich.ranking import ScoredCandidate, build_training_pairs
from taxoenrich.taxonomy import PartOfSpeech

from conftest import extended_pool, make_store, make_taxonomy, random_dag_spec

NOUN = PartOfSpeech.NOUN

OLD_SPEC = {"animal": ("n", ["animal"], []),
            "bird": ("n", ["bird"], ["animal"])}
NEW_SPEC = {**OLD_SPEC, "duck": ("n", ["duck"], ["bird"])}


def restricted(old, new, restrictions):
    """The noun dataset as ``build-dataset`` restricts it: the unrestricted list filtered."""
    return [e for e in build_dataset(old, new, NOUN) if restrictions.accepts(e.word)]


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
        strict = restricted(old, new, DatasetRestrictions(min_length=4))
        loose = restricted(old, new, DatasetRestrictions(min_length=0))
        assert [e.word for e in strict] == []
        assert [e.word for e in loose] == ["ooh"]

    def test_named_entity_restriction(self):
        new = make_taxonomy({**OLD_SPEC, "mc": ("n", ["Massif Central"], ["bird"])})
        old = make_taxonomy(OLD_SPEC)
        kept = restricted(old, new, DatasetRestrictions(min_length=0))
        dropped = restricted(old, new,
                             DatasetRestrictions(min_length=0, exclude_named_entities=True))
        assert [e.word for e in kept] == ["Massif Central"]
        assert dropped == []

    def test_multiword_restriction(self):
        new = make_taxonomy({**OLD_SPEC, "dm": ("n", ["dancing master"], ["bird"])})
        old = make_taxonomy(OLD_SPEC)
        dropped = restricted(old, new, DatasetRestrictions(min_length=0, exclude_multiword=True))
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
            loose_words = {e.word for e in restricted(old, new, loose)}
            tight_words = {e.word for e in restricted(old, new, tight)}
            assert tight_words <= loose_words


class TestStatistics:
    @staticmethod
    def statistics(old, new):
        return dataset_statistics(old, new, {pos: build_dataset(old, new, pos)
                                             for pos in PartOfSpeech})

    def test_toy_counts(self):
        stats = self.statistics(make_taxonomy(OLD_SPEC), make_taxonomy(NEW_SPEC))
        assert stats["old"]["synsets"]["n"] == 2
        assert stats["new"]["synsets"]["n"] == 3
        assert stats["new_words"] == {"n": 1, "v": 0}

    def test_identity_diff_zero_new_words(self):
        t = make_taxonomy(NEW_SPEC)
        stats = self.statistics(t, t)
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
    return make_store(2, {"a": np.array([1.0, 0.0]),
                          "b": np.array([0.9, 0.1]),
                          "c": np.array([0.5, 0.5])})


class TestTrainingPairs:
    def test_chain_positives(self, chain_taxonomy):
        pairs, _, summary = build_training_pairs(chain_taxonomy, pair_store(), NOUN, seed=1)
        positives = {(p.word, p.candidate) for p in pairs if p.label == 1}
        assert positives == {("c", "B"), ("c", "A")}
        assert summary["positives"] == 2

    def test_balanced_counts(self, chain_taxonomy):
        pairs, _, summary = build_training_pairs(chain_taxonomy, pair_store(), NOUN,
                                                 negatives_per_positive=1, seed=1)
        n_pos = sum(1 for p in pairs if p.label == 1)
        n_neg = sum(1 for p in pairs if p.label == 0)
        assert n_neg <= n_pos  # equal unless non-gold synsets run out

    def test_determinism(self, chain_taxonomy):
        a = build_training_pairs(chain_taxonomy, pair_store(), NOUN, seed=42)[0]
        b = build_training_pairs(chain_taxonomy, pair_store(), NOUN, seed=42)[0]
        assert [(p.word, p.candidate, p.label) for p in a] == \
               [(p.word, p.candidate, p.label) for p in b]

    def test_no_label_collisions(self):
        rng = np.random.default_rng(9)
        t = make_taxonomy(random_dag_spec(rng, 15, edge_prob=0.3))
        store = make_store(3, {f"lemma{i}": rng.normal(size=3) for i in range(15)})
        pairs = build_training_pairs(t, store, NOUN, negatives_per_positive=2, seed=5)[0]
        seen = {}
        for p in pairs:
            key = (p.word, p.candidate)
            assert key not in seen, f"duplicate pair {key}"
            seen[key] = p.label

    def test_oov_lemmas_tallied(self, chain_taxonomy):
        store = make_store(2, {"zzz": np.array([1.0, 0.0])})
        pairs, _, summary = build_training_pairs(chain_taxonomy, store, NOUN, seed=0)
        assert pairs == []
        assert summary["skipped_oov_lemmas"] == 1


def eager_negatives_oracle(old, store, pos, negatives_per_positive, seed, k):
    """The pairs as first written, with each word's uniform fallback pool (every
    non-gold synset of ``pos``) built up front whether or not it is drawn from."""
    rng = random.Random(seed)
    positives, golds = {}, {}
    for sid in sorted(old.leaf_synsets(pos)):
        gold = set(old.direct_hypernyms(sid)) | set(old.second_order_hypernyms(sid))
        if not gold:
            continue
        for lemma in old.lemmas[sid]:
            if word_vector(store, lemma) is None:
                continue
            seen = positives.setdefault(lemma, [])
            seen += [h for h in sorted(gold) if h not in seen]
            golds.setdefault(lemma, set()).update(gold)
    all_pos = sorted(old.ids[pos])
    out = []
    for word in sorted(positives):
        gold = golds[word]
        hard = sorted(set(extended_pool(word, old, store, pos, k)) - gold)
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
        store = make_store(3, {f"lemma{i}": rng.normal(size=3) for i in range(25)})
        pairs, occurrences, _ = build_training_pairs(t, store, NOUN, negatives_per_positive=3,
                                                     seed=seed, k=2)
        got = [(p.word, p.candidate, p.label) for p in pairs]
        assert got == eager_negatives_oracle(t, store, NOUN, 3, seed, k=2)
        # the fixture reaches the fallback: some negative lies outside its word's pool
        pools = {word: extended_pool(word, t, store, NOUN, k=2) for word, _, _ in got}
        assert any(label == 0 and cand not in pools[word] for word, cand, label in got)
        # each pair's occurrences are its count in its word's pool, 0 outside it
        assert occurrences == [pools[word][cand] for word, cand, _ in got]

    @pytest.mark.parametrize("seed", range(3))
    def test_several_words_draw_from_the_uniform_fallback(self, seed):
        """One neighbor and eight negatives per positive drain most pools: each such
        word draws the rest from the non-gold synsets outside its pool, as first written."""
        rng = np.random.default_rng(100 + seed)
        t = make_taxonomy(random_dag_spec(rng, 60, edge_prob=0.1))
        store = make_store(3, {f"lemma{i}": rng.normal(size=3) for i in range(60)})
        pairs, _, _ = build_training_pairs(t, store, NOUN, negatives_per_positive=8,
                                           seed=seed, k=1)
        got = [(p.word, p.candidate, p.label) for p in pairs]
        assert got == eager_negatives_oracle(t, store, NOUN, 8, seed, k=1)
        pools = {word: extended_pool(word, t, store, NOUN, k=1) for word, _, _ in got}
        fallen_back = {word for word, cand, label in got if label == 0 and cand not in pools[word]}
        assert len(fallen_back) >= 5


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

    @pytest.mark.parametrize("read, line", [(read_dataset, "duck\tn\tA"),
                                            (read_predictions, "duck\tn\t1\tA\t0.5")])
    def test_a_leading_byte_order_mark_is_refused_naming_line_1(self, tmp_path, read, line):
        """It would join the first word: an entry no taxonomy or prediction holds."""
        path = tmp_path / "in.tsv"
        path.write_text(f"\ufeff{line}\n{line}\n", encoding="utf-8")
        with pytest.raises(InputError) as err:
            read(path)
        assert str(err.value) == f"{path}:1: starts with a byte-order mark (U+FEFF)"

    def test_a_first_word_led_by_u_feff_is_not_written(self, tmp_path):
        """As the first line's word it would read back as a byte-order mark; on a later
        line it is a word like any other."""
        path = tmp_path / "dataset.tsv"
        entries = [OrphanEntry("\ufeffduck", NOUN, frozenset({"A"}))]
        with pytest.raises(InputError) as err:
            write_dataset(entries, path)
        assert str(err.value) == (f"{path}: '\\ufeffduck': would start the file with a"
                                  " byte-order mark")
        assert not path.exists()
        entries.insert(0, OrphanEntry("goose", NOUN, frozenset({"A"})))
        write_dataset(entries, path)
        assert read_dataset(path) == entries

    @pytest.mark.parametrize("score", [float("inf"), float("-inf"), float("nan")])
    def test_a_non_finite_score_is_not_written(self, tmp_path, score):
        """Its reader refuses it, so nothing is written and an older file stays."""
        path = tmp_path / "predictions.tsv"
        path.write_text("old\n")
        ranked = {("duck", NOUN): [ScoredCandidate("A", 0.5)],
                  ("goose", NOUN): [ScoredCandidate("A", 0.5), ScoredCandidate("B", score)]}
        with pytest.raises(InputError) as err:
            write_predictions(ranked, path)
        assert str(err.value) == f"{path}: 'goose': a score is not finite"
        assert path.read_text() == "old\n"

    def test_pairs_file_has_one_line_per_pair(self, tmp_path, chain_taxonomy):
        pairs = build_training_pairs(chain_taxonomy, pair_store(), NOUN, seed=1)[0]
        path = tmp_path / "pairs.tsv"
        write_training_pairs(pairs, path)
        assert [tuple(line.split("\t")) for line in path.read_text().splitlines()] == \
               [(p.word, p.candidate, str(p.label)) for p in pairs]


_field = st.characters(blacklist_characters="\t\n\r", blacklist_categories=("Cs",))
_gold_id = st.text(st.characters(blacklist_characters="\t\n\r,", blacklist_categories=("Cs",)),
                   min_size=1, max_size=6)
_entries = st.lists(st.builds(OrphanEntry, word=st.text(_field, min_size=1, max_size=8),
                              pos=st.sampled_from(PartOfSpeech),
                              gold=st.frozensets(_gold_id, min_size=1, max_size=4)),
                    max_size=8)


@given(_entries)
@example([OrphanEntry("\ufeffduck", NOUN, frozenset({"A"}))])
@settings(max_examples=80, deadline=None)
def test_dataset_file_round_trip(entries):
    """Entries read back sorted by word; a first word led by U+FEFF, which would read back
    as a byte-order mark, is refused by the writer, which then writes nothing."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "dataset.tsv"
        if entries and min(e.word for e in entries).startswith("\ufeff"):
            with pytest.raises(InputError, match=": would start the file with a byte-order"):
                write_dataset(entries, path)
            assert not path.exists()
            return
        write_dataset(entries, path)
        assert read_dataset(path) == sorted(entries, key=lambda e: e.word)
