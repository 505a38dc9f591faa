import numpy as np
import pytest

from taxoenrich.diachronic import OrphanEntry
from taxoenrich.evaluation import (
    WordResult,
    average_precision,
    classify_word,
    evaluate_predictions,
    group_breakdown,
    map_score,
    sense_distribution,
)
from taxoenrich.taxonomy import PartOfSpeech

from conftest import make_taxonomy, naive_sum, neumaier_sum, random_dag_spec

NOUN = PartOfSpeech.NOUN


def components(*sets):
    return tuple(frozenset(s) for s in sets)


def naive_average_precision(predictions, gold, limit=10):
    """Independent oracle: explicit prefix-precision summation per rank."""
    comp_of = {}
    for idx, comp in enumerate(gold):
        for sid in comp:
            comp_of[sid] = idx
    deduped = list(dict.fromkeys(predictions))[:limit]
    hit_flags = []
    seen_components = set()
    for sid in deduped:
        idx = comp_of.get(sid)
        if idx is not None and idx not in seen_components:
            seen_components.add(idx)
            hit_flags.append(1)
        else:
            hit_flags.append(0)
    total = 0.0
    for i in range(len(deduped)):
        if hit_flags[i]:
            prefix_precision = sum(hit_flags[: i + 1]) / (i + 1)
            total += prefix_precision
    return total / len(gold)


class TestAveragePrecision:
    def test_perfect_single(self):
        assert average_precision(["A"], components({"A"})) == 1.0

    def test_derived_two_components(self):
        # hits at ranks 1 and 3: (1/2) * (1/1 + 2/3)
        ap = average_precision(["A", "X", "C"], components({"A"}, {"C"}))
        assert ap == pytest.approx(5 / 6, abs=1e-9)

    def test_duplicate_component_hit_is_miss(self):
        ap = average_precision(["B", "A"], components({"A", "B"}))
        assert ap == 1.0

    def test_limit_cuts_scan(self):
        preds = ["x1", "x2", "x3", "A"]
        assert average_precision(preds, components({"A"}), limit=3) == 0.0
        assert average_precision(preds, components({"A"}), limit=4) == pytest.approx(0.25)

    def test_empty_components_rejected(self):
        with pytest.raises(ValueError):
            average_precision(["A"], ())

    def test_upper_bound_with_many_components(self):
        comps = components(*[{f"c{i}"} for i in range(6)])
        preds = [f"c{i}" for i in range(6)]
        ap = average_precision(preds, comps, limit=3)
        assert ap <= min(3, 6) / 6 + 1e-12

    def test_matches_naive_oracle_random(self):
        rng = np.random.default_rng(123)
        universe = [f"s{i}" for i in range(20)]
        for _ in range(1000)[:200]:
            n_comp = int(rng.integers(1, 7))
            pool = list(rng.permutation(universe))
            comps = []
            at = 0
            for _ in range(n_comp):
                size = int(rng.integers(1, 4))
                comps.append(set(pool[at:at + size]))
                at += size
            gold = components(*comps)
            preds = list(rng.choice(universe, size=int(rng.integers(0, 11)),
                                    replace=True))
            assert average_precision(preds, gold) == pytest.approx(
                naive_average_precision(preds, gold), abs=1e-12)

    def test_moving_a_hit_earlier_never_decreases(self):
        gold = components({"A"}, {"B"})
        late = average_precision(["x", "x2", "A", "B"], gold)
        early = average_precision(["A", "x", "x2", "B"], gold)
        assert early >= late


class TestMapScore:
    def result(self, word, ap):
        return WordResult(word=word, gold_components=components({"A"}), ap=ap)

    def test_mean(self):
        assert map_score([self.result("a", 1.0), self.result("b", 0.0)]) == 0.5

    def test_all_perfect(self):
        assert map_score([self.result(w, 1.0) for w in "abc"]) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            map_score([])

    def test_aps_sum_left_to_right_from_0(self):
        """The same MAP on every interpreter: the built-in ``sum`` compensates from
        Python 3.12 on, and these APs tell the two rules apart."""
        rng = np.random.default_rng(5)
        aps = [hits / rank / m for hits, rank, m in
               rng.integers(1, [4, 11, 4], size=(500, 3)).tolist() if hits <= m]
        results = [self.result(f"w{i}", ap) for i, ap in enumerate(aps)]
        assert naive_sum(aps) != neumaier_sum(aps)
        assert map_score(results) == naive_sum(aps) / len(aps)

    def test_concatenation_weighted_mean(self):
        part1 = [self.result("a", 0.25), self.result("b", 0.75)]
        part2 = [self.result("c", 1.0)]
        combined = map_score(part1 + part2)
        weighted = (2 * map_score(part1) + 1 * map_score(part2)) / 3
        assert combined == pytest.approx(weighted)


class TestClassifyWord:
    @pytest.mark.parametrize("word,label", [
        ("ooh", "short"),
        ("Massif Central", "named_entity"),
        ("dancing-master", "other"),
        ("Ab", "short"),        # short precedes named entity
        ("a b c", "short"),     # letters counted, not characters
        ("selfie", "other"),
    ])
    def test_labels(self, word, label):
        assert classify_word(word) == label

    def test_partition_is_total(self):
        words = ["ooh", "Paris", "thing", "", "x-y", "To Kill"]
        assert all(classify_word(w) in ("short", "named_entity", "other") for w in words)


class TestGroupBreakdown:
    def result(self, word, ap):
        return WordResult(word=word, gold_components=components({"A"}), ap=ap)

    def test_singleton_groups(self):
        results = [self.result("Paris", 1.0), self.result("abc", 0.0),
                   self.result("normalword", 0.5)]
        breakdown = group_breakdown(results)
        assert breakdown["named_entity"]["map"] == 1.0
        assert breakdown["short"]["map"] == 0.0
        assert breakdown["other"]["map"] == 0.5
        assert sum(g["share_pct"] for g in breakdown.values()) == pytest.approx(100.0)

    def test_single_group_equals_overall(self):
        results = [self.result("longword", 0.2), self.result("another", 0.8)]
        breakdown = group_breakdown(results)
        assert set(breakdown) == {"other"}
        assert breakdown["other"]["map"] == pytest.approx(map_score(results))

    def test_empty_group_absent(self):
        results = [self.result("longword", 0.4)]
        breakdown = group_breakdown(results)
        assert "short" not in breakdown
        assert "named_entity" not in breakdown


class TestSenseDistribution:
    def taxonomy(self):
        return make_taxonomy({"A": ("n", ["a"], []), "B": ("n", ["b"], ["A"]),
                              "C": ("n", ["c"], [])})

    def test_connected_gold_single_bucket(self):
        dataset = [OrphanEntry("w1", NOUN, frozenset({"A", "B"}))]
        hist = sense_distribution(evaluate_predictions(dataset, self.taxonomy(), {}))
        assert hist == {1: {"words": 1, "predicted": 0}}

    def test_disconnected_gold_two_senses(self):
        dataset = [OrphanEntry("w1", NOUN, frozenset({"A", "C"}))]
        hist = sense_distribution(evaluate_predictions(dataset, self.taxonomy(), {}))
        assert hist == {2: {"words": 1, "predicted": 0}}

    def test_totals_partition_dataset(self):
        dataset = [OrphanEntry("w1", NOUN, frozenset({"A", "B"})),
                   OrphanEntry("w2", NOUN, frozenset({"A", "C"})),
                   OrphanEntry("w3", NOUN, frozenset({"C"}))]
        hist = sense_distribution(evaluate_predictions(dataset, self.taxonomy(), {}))
        assert sum(b["words"] for b in hist.values()) == len(dataset)

    def test_predicted_counts_with_results(self):
        # two entries of one word, as a noun/verb homograph has: only the entry whose
        # gold holds the shared prediction counts, whatever the other entry scored
        dataset = [OrphanEntry("w1", NOUN, frozenset({"A", "B"})),
                   OrphanEntry("w1", NOUN, frozenset({"A", "C"}))]
        results = evaluate_predictions(dataset, self.taxonomy(), {"w1": ["B"]})
        hist = sense_distribution(results)
        assert hist == {1: {"words": 1, "predicted": 1}, 2: {"words": 1, "predicted": 0}}


class TestEvaluatePredictions:
    def test_missing_word_scores_zero(self):
        t = make_taxonomy({"A": ("n", ["a"], [])})
        dataset = [OrphanEntry("w1", NOUN, frozenset({"A"}))]
        results = evaluate_predictions(dataset, t, {})
        assert results[0].ap == 0.0

    def test_duplicates_removed(self):
        t = make_taxonomy({"A": ("n", ["a"], []), "B": ("n", ["b"], [])})
        dataset = [OrphanEntry("w1", NOUN, frozenset({"A"}))]
        results = evaluate_predictions(dataset, t, {"w1": ["B", "B", "A"]})
        assert results[0].ap == pytest.approx(0.5)  # the repeated B takes no rank


def test_ap_oracle_on_random_taxonomy_components():
    # components derived from real random DAGs rather than hand-made partitions
    rng = np.random.default_rng(77)
    for _ in range(100):
        t = make_taxonomy(random_dag_spec(rng, int(rng.integers(3, 20))))
        ids = sorted(t.lemmas)
        gold = {sid for sid in ids if rng.random() < 0.4} or {ids[0]}
        comps = t.connected_components(gold)
        preds = list(rng.choice(ids, size=int(rng.integers(0, 11)), replace=True))
        assert average_precision(preds, comps) == pytest.approx(
            naive_average_precision(preds, comps), abs=1e-12)
