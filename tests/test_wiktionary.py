import gc
import json

import numpy as np
import pytest

from taxoenrich import wiktionary
from taxoenrich.diachronic import OrphanEntry
from taxoenrich.embeddings import EmbeddingStore, cosine, word_vector
from taxoenrich.taxonomy import PartOfSpeech, Synset
from taxoenrich.wiktionary import (
    WiktionaryFormatError,
    WiktionaryStore,
    coverage_report,
    load_wiktionary,
    wiki_feature_rows,
)

from conftest import make_taxonomy

NOUN = PartOfSpeech.NOUN


def store_of(*entries):
    import json
    lines = "\n".join(json.dumps(e) for e in entries)
    return lines


class TestLoad:
    def test_single_entry(self, tmp_path):
        path = tmp_path / "w.jsonl"
        path.write_text('{"word":"duck","hypernyms":["bird"],"synonyms":[],'
                        '"definition":"a waterfowl"}\n')
        store = load_wiktionary(path)
        assert len(store) == 1
        assert store.get("duck").hypernyms == ["bird"]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "w.jsonl"
        path.write_text("")
        assert len(load_wiktionary(path)) == 0

    def test_duplicate_words_merge(self, tmp_path):
        path = tmp_path / "w.jsonl"
        path.write_text(
            '{"word":"duck","hypernyms":["bird"],"synonyms":["quacker"],"definition":"a bird"}\n'
            '{"word":"Duck","hypernyms":["bird","waterfowl"],"synonyms":[],"definition":"fowl"}\n')
        store = load_wiktionary(path)
        assert len(store) == 1
        entry = store.get("duck")
        assert entry.hypernyms == ["bird", "waterfowl"]
        assert entry.synonyms == ["quacker"]
        assert entry.definition == "a bird fowl"

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "w.jsonl"
        path.write_text('{"word":"a"}\n{"nope": 1}\n')
        with pytest.raises(WiktionaryFormatError, match=":2"):
            load_wiktionary(path)

    @pytest.mark.parametrize("bad", [
        "not json",
        '{"a":1}{"b":2}',                                            # extra data
        '{"word": "duck", "hypernyms": ["bird"],}',                  # trailing comma
        '\ufeff{"word": "duck"}',                                   # a BOM
        "[",
    ])
    def test_malformed_json_message_is_json_loads_error(self, tmp_path, bad):
        path = tmp_path / "w.jsonl"
        path.write_text('{"word": "goose"}\n' + bad + "\n", encoding="utf-8")
        with pytest.raises(json.JSONDecodeError) as expected:
            json.loads(bad)
        with pytest.raises(WiktionaryFormatError) as err:
            load_wiktionary(path)
        assert str(err.value) == f"{path}:2: malformed entry: {expected.value}"

    @pytest.mark.parametrize("record, problem", [
        ({"word": 5}, "'word' must be a string, got 5"),
        ({"word": None}, "'word' must be a string, got None"),
        ({"word": "duck", "hypernyms": [1]}, "'hypernyms' must be a list of strings, got [1]"),
        ({"word": "duck", "hypernyms": "bird"},
         "'hypernyms' must be a list of strings, got 'bird'"),
        ({"word": "duck", "synonyms": {"a": 1}},
         "'synonyms' must be a list of strings, got {'a': 1}"),
        ({"word": "duck", "definition": 5}, "'definition' must be a string, got 5"),
        ({"word": "duck", "definition": False}, "'definition' must be a string, got False"),
        # rejected before the type checks, with the message they always had
        ({"word": "duck", "hypernyms": None}, "'NoneType' object is not iterable"),
        ({"hypernyms": ["bird"]}, "'word'"),
        ([1, 2], "list indices must be integers or slices, not str"),
    ])
    def test_wrongly_typed_field_rejected_with_line(self, tmp_path, record, problem):
        path = tmp_path / "w.jsonl"
        path.write_text('{"word": "goose"}\n' + json.dumps(record) + "\n")
        with pytest.raises(WiktionaryFormatError) as err:
            load_wiktionary(path)
        assert str(err.value) == f"{path}:2: malformed entry: {problem}"

    @pytest.mark.parametrize("record", [{"word": "duck", "definition": None}, {"word": "duck"}])
    def test_null_or_missing_definition_is_empty(self, tmp_path, record):
        path = tmp_path / "w.jsonl"
        path.write_text(json.dumps(record) + "\n")
        assert load_wiktionary(path).get("duck").definition == ""

    def test_whitespace_only_lines_are_skipped(self, tmp_path):
        path = tmp_path / "w.jsonl"
        path.write_text('\n  \t\n{"word": "duck"}\n\u00a0\n')
        assert list(load_wiktionary(path).entries) == ["duck"]

    def test_parses_with_the_cyclic_gc_paused(self, tmp_path, monkeypatch):
        seen = []
        normalize = wiktionary.normalize
        monkeypatch.setattr(wiktionary, "normalize",
                            lambda text: seen.append(gc.isenabled()) or normalize(text))
        path = tmp_path / "w.jsonl"
        path.write_text('{"word": "duck"}\n{"word": "goose"}\n')
        was = gc.isenabled()
        gc.enable()
        try:
            load_wiktionary(path)
            assert gc.isenabled()
        finally:
            (gc.enable if was else gc.disable)()
        assert seen == [False, False]

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("valid", [True, False])
    def test_gc_state_is_restored(self, tmp_path, enabled, valid):
        path = tmp_path / "w.jsonl"
        path.write_text('{"word": "duck"}\n' + ("" if valid else '{"nope": 1}\n'))
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            if valid:
                load_wiktionary(path)
            else:
                with pytest.raises(WiktionaryFormatError, match=":2: malformed entry: 'word'"):
                    load_wiktionary(path)
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()


def embedding_store():
    return EmbeddingStore(2, {"bird": np.array([1.0, 0.0]),
                              "waterfowl": np.array([0.8, 0.6]),
                              "animal": np.array([0.0, 1.0])})


def feature_row(store, embeddings, word, candidate):
    """(in hypernyms, in synonyms, in definition, average cosine) of one candidate."""
    return tuple(wiki_feature_rows(store, embeddings, word, [candidate],
                                   [embeddings.centroid_and_norm(candidate)])[0])


def wiki_store(**kwargs):
    from taxoenrich.wiktionary import WiktionaryEntry
    entry = WiktionaryEntry("duck", kwargs.get("hypernyms", []),
                            kwargs.get("synonyms", []), kwargs.get("definition", ""))
    return WiktionaryStore({"duck": entry})


class TestFeatures:
    def test_candidate_lemma_in_hypernyms(self):
        store = wiki_store(hypernyms=["bird"])
        cand = Synset("B", NOUN, ("bird",))
        f = feature_row(store, embedding_store(), "duck", cand)
        assert f[0] == 1
        assert f[1] == 0

    def test_missing_entry_all_zero(self):
        cand = Synset("B", NOUN, ("bird",))
        f = feature_row(WiktionaryStore(), embedding_store(), "duck", cand)
        assert f == (0.0, 0.0, 0.0, 0.0)

    def test_definition_whole_token_match(self):
        store = wiki_store(definition="a waterfowl of the family Anatidae")
        cand = Synset("W", NOUN, ("waterfowl",))
        f = feature_row(store, embedding_store(), "duck", cand)
        assert f[2] == 1

    def test_definition_no_substring_match(self):
        # "cat" must not match inside "category"
        store = wiki_store(definition="a category of things")
        cand = Synset("C", NOUN, ("cat",))
        f = feature_row(store, embedding_store(), "duck", cand)
        assert f[2] == 0

    def test_definition_multiword_candidate(self):
        store = wiki_store(definition="a mythical person from tales")
        cand = Synset("M", NOUN, ("mythical person",))
        f = feature_row(store, embedding_store(), "duck", cand)
        assert f[2] == 1

    def test_definition_case_and_punctuation_invariant(self):
        store = wiki_store(definition="A Waterfowl, of the family!")
        cand = Synset("W", NOUN, ("waterfowl",))
        f = feature_row(store, embedding_store(), "duck", cand)
        assert f[2] == 1

    def test_avg_cosine_to_wiki_hypernyms(self):
        emb = embedding_store()
        store = wiki_store(hypernyms=["bird", "animal"])
        cand = Synset("W", NOUN, ("waterfowl",))
        f = feature_row(store, emb, "duck", cand)
        expected = (cosine(word_vector(emb, "waterfowl"), word_vector(emb, "bird"))
                    + cosine(word_vector(emb, "waterfowl"), word_vector(emb, "animal"))) / 2
        assert f[3] == pytest.approx(expected, abs=1e-12)

    def test_unresolvable_hypernyms_skipped(self):
        emb = embedding_store()
        store = wiki_store(hypernyms=["zzz", "bird"])
        cand = Synset("W", NOUN, ("waterfowl",))
        f = feature_row(store, emb, "duck", cand)
        expected = cosine(word_vector(emb, "waterfowl"), word_vector(emb, "bird"))
        assert f[3] == pytest.approx(expected, abs=1e-12)

    def test_purity(self):
        store = wiki_store(hypernyms=["bird"], definition="a bird")
        cand = Synset("B", NOUN, ("bird",))
        emb = embedding_store()
        assert feature_row(store, emb, "duck", cand) == feature_row(store, emb, "duck", cand)


class TestCoverage:
    def taxonomy(self):
        return make_taxonomy({"B": ("n", ["bird"], []),
                              "A": ("n", ["animal"], []),
                              "F": ("n", ["fish"], [])})

    def test_presence_ratio(self, tmp_path):
        path = tmp_path / "w.jsonl"
        path.write_text('{"word":"duck","hypernyms":[],"synonyms":[],"definition":""}\n')
        store = load_wiktionary(path)
        dataset = [OrphanEntry("duck", NOUN, frozenset({"B"})),
                   OrphanEntry("goose", NOUN, frozenset({"B"}))]
        report = coverage_report(store, dataset, self.taxonomy())
        assert report["present_pct"] == pytest.approx(50.0)

    def test_empty_store_all_zero(self):
        dataset = [OrphanEntry("duck", NOUN, frozenset({"B"}))]
        report = coverage_report(WiktionaryStore(), dataset, self.taxonomy())
        assert report["present_pct"] == 0.0
        assert report["gold_in_hypernyms_pct"] == 0.0

    def test_hypernym_field_ratio(self, tmp_path):
        path = tmp_path / "w.jsonl"
        entries = [
            '{"word":"w1","hypernyms":["bird"],"synonyms":[],"definition":""}',
            '{"word":"w2","hypernyms":[],"synonyms":[],"definition":""}',
            '{"word":"w3","hypernyms":[],"synonyms":[],"definition":""}',
            '{"word":"w4","hypernyms":[],"synonyms":[],"definition":""}',
        ]
        path.write_text("\n".join(entries) + "\n")
        store = load_wiktionary(path)
        dataset = [OrphanEntry(f"w{i}", NOUN, frozenset({"B"})) for i in range(1, 5)]
        report = coverage_report(store, dataset, self.taxonomy())
        assert report["gold_in_hypernyms_pct"] == pytest.approx(25.0)


@pytest.mark.parametrize("definition,expected", [
    ("a person who is mythical", 0),        # every subtoken, out of order
    ("a mythical creature and a person", 0),  # first subtoken only, then a gap
    ("mythical mythical person", 1),        # the run starts at the second hit
])
def test_definition_multiword_needs_the_whole_run(definition, expected):
    store = wiki_store(definition=definition)
    cand = Synset("M", NOUN, ("Mythical person", "mythical-person"))
    assert feature_row(store, embedding_store(), "duck", cand)[2] == expected
    dataset = [OrphanEntry("duck", NOUN, frozenset({"M"}))]
    taxonomy = make_taxonomy({"M": ("n", ["Mythical person"], [])})
    assert coverage_report(store, dataset, taxonomy)["gold_in_definition_pct"] == 100 * expected


def test_coverage_counts_a_lemma_of_any_gold_synset():
    from taxoenrich.wiktionary import WiktionaryEntry
    taxonomy = TestCoverage().taxonomy()
    store = WiktionaryStore({"duck": WiktionaryEntry("duck", ["fish"], ["Animal"], "a bird")})
    dataset = [OrphanEntry("duck", NOUN, frozenset({"B", "F"})),
               OrphanEntry("duck", NOUN, frozenset({"A"}))]
    report = coverage_report(store, dataset, taxonomy)
    assert (report["gold_in_hypernyms_pct"], report["gold_in_synonyms_pct"],
            report["gold_in_definition_pct"]) == (50.0, 50.0, 50.0)
