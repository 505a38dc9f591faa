import dataclasses
import gc
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taxoenrich.taxonomy import (
    PartOfSpeech,
    Synset,
    TaxonomyError,
    load_taxonomy,
    save_taxonomy,
)

from conftest import (CHAIN, GOOD_RECORD, WRONGLY_TYPED, make_taxonomy, random_dag_spec,
                      write_taxonomy_file)


NOUN = PartOfSpeech.NOUN


class TestLoad:
    def test_chain_file(self, tmp_path):
        path = write_taxonomy_file(tmp_path / "t.jsonl", CHAIN)
        t = load_taxonomy(path)
        assert len(t) == 3
        assert sum(len(e) for e in t.hypernym_edges.values()) == 2

    def test_dangling_edge_names_target(self, tmp_path):
        spec = {"A": ("n", ["a"], ["X"])}
        path = write_taxonomy_file(tmp_path / "t.jsonl", spec)
        with pytest.raises(TaxonomyError, match="X"):
            load_taxonomy(path)

    def test_cycle_rejected(self, tmp_path):
        spec = {"A": ("n", ["a"], ["B"]), "B": ("n", ["b"], ["A"])}
        path = write_taxonomy_file(tmp_path / "t.jsonl", spec)
        with pytest.raises(TaxonomyError, match="cycle"):
            load_taxonomy(path)

    def test_duplicate_id(self, tmp_path):
        line = json.dumps({"id": "A", "pos": "n", "lemmas": ["a"], "hypernyms": []})
        path = tmp_path / "t.jsonl"
        path.write_text(line + "\n" + line + "\n")
        with pytest.raises(TaxonomyError, match="duplicate"):
            load_taxonomy(path)

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"id": "A", "pos": "n", "lemmas": ["a"]}\nnot json\n')
        with pytest.raises(TaxonomyError, match=":2"):
            load_taxonomy(path)

    def test_adjective_rejected(self, tmp_path):
        spec = {"A": ("a", ["fast"], [])}
        path = write_taxonomy_file(tmp_path / "t.jsonl", spec)
        with pytest.raises(TaxonomyError, match="part of speech"):
            load_taxonomy(path)

    @pytest.mark.parametrize("record", WRONGLY_TYPED)
    def test_wrongly_typed_field_rejected_with_line(self, tmp_path, record):
        path = tmp_path / "t.jsonl"
        path.write_text(json.dumps(GOOD_RECORD) + "\n" + json.dumps(record) + "\n")
        with pytest.raises(TaxonomyError, match=r"t\.jsonl:2: "):
            load_taxonomy(path)

    @pytest.mark.parametrize("bad", [
        "not json",
        '{"a":1}{"b":2}',                                            # extra data
        '{"id": "A", "pos": "n", "lemmas": ["a"],}',                 # trailing comma
        '\ufeff{"id": "A", "pos": "n", "lemmas": ["a"]}',            # a BOM
        "[",
    ])
    def test_malformed_json_message_is_json_loads_error(self, tmp_path, bad):
        path = tmp_path / "t.jsonl"
        path.write_text(json.dumps(GOOD_RECORD) + "\n" + bad + "\n", encoding="utf-8")
        with pytest.raises(json.JSONDecodeError) as expected:
            json.loads(bad)
        with pytest.raises(TaxonomyError) as err:
            load_taxonomy(path)
        assert str(err.value) == f"{path}:2: malformed JSON: {expected.value}"

    @pytest.mark.parametrize("line", [
        '\u00a0{"id": "A", "pos": "n", "lemmas": ["a"]}\u00a0',      # NBSP padding
        '{"id": "A", "pos": "n", "lemmas": ["a"], "note": NaN}',      # ignored field
    ])
    def test_line_json_loads_accepts_after_strip_loads(self, tmp_path, line):
        path = tmp_path / "t.jsonl"
        path.write_text(line + "\n", encoding="utf-8")
        assert load_taxonomy(path).synset("A").lemmas == ("a",)

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("valid", [True, False])
    def test_gc_state_is_restored(self, tmp_path, enabled, valid):
        spec = {"A": ("n", ["a"], [] if valid else ["A"])}
        path = write_taxonomy_file(tmp_path / "t.jsonl", spec)
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            if valid:
                load_taxonomy(path)
            else:
                with pytest.raises(TaxonomyError, match="self-loop"):
                    load_taxonomy(path)
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()

    def test_missing_hypernyms_field_means_none(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(json.dumps({"id": "A", "pos": "noun", "lemmas": ["a"]}) + "\n")
        assert load_taxonomy(path).hypernym_edges == {"A": frozenset()}

    def test_self_loop_rejected(self, tmp_path):
        spec = {"A": ("n", ["a"], ["A"])}
        path = write_taxonomy_file(tmp_path / "t.jsonl", spec)
        with pytest.raises(TaxonomyError, match="self-loop"):
            load_taxonomy(path)

    def test_roundtrip_identity(self, tmp_path):
        spec = {"A": ("n", ["a", "A two words"], []),
                "B": ("v", ["run"], []),
                "C": ("n", ["c"], ["A"])}
        t = make_taxonomy(spec)
        out = tmp_path / "rt.jsonl"
        save_taxonomy(t, out)
        t2 = load_taxonomy(out)
        assert t2.synsets == t.synsets
        assert t2.hypernym_edges == t.hypernym_edges
        assert t2.lemma_index == t.lemma_index


class TestSynset:
    def test_frozen(self):
        syn = Synset(id="A", pos=PartOfSpeech.NOUN, lemmas=("a",))
        with pytest.raises(dataclasses.FrozenInstanceError):
            syn.id = "B"

    def test_equal_synsets_hash_equal(self):
        a = Synset(id="A", pos=PartOfSpeech.NOUN, lemmas=("a", "b"))
        b = Synset(id="A", pos=PartOfSpeech.NOUN, lemmas=("a", "b"))
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1


class TestQueries:
    def test_direct_hypernyms_chain(self, chain_taxonomy):
        assert chain_taxonomy.direct_hypernyms("C") == {"B"}
        assert chain_taxonomy.direct_hypernyms("A") == frozenset()

    def test_direct_hypernyms_diamond(self):
        t = make_taxonomy({"G": ("n", ["g"], []), "P1": ("n", ["p1"], ["G"]),
                           "P2": ("n", ["p2"], ["G"]), "D": ("n", ["d"], ["P1", "P2"])})
        assert t.direct_hypernyms("D") == {"P1", "P2"}
        assert t.second_order_hypernyms("D") == {"G"}

    def test_second_order_chain(self, chain_taxonomy):
        assert chain_taxonomy.second_order_hypernyms("C") == {"A"}
        assert chain_taxonomy.second_order_hypernyms("A") == frozenset()

    def test_unknown_id(self, chain_taxonomy):
        with pytest.raises(TaxonomyError):
            chain_taxonomy.direct_hypernyms("nope")

    def test_lemma_lookup_multiple_synsets(self):
        t = make_taxonomy({"S1": ("n", ["duck"], []), "S2": ("n", ["duck", "other"], [])})
        assert t.synsets_of_lemma("duck", NOUN) == {"S1", "S2"}
        assert t.synsets_of_lemma("unknown", NOUN) == frozenset()

    def test_lemma_lookup_case_insensitive(self):
        t = make_taxonomy({"S1": ("n", ["Duck"], [])})
        assert t.synsets_of_lemma("duck", NOUN) == {"S1"}
        assert t.synsets_of_lemma("DUCK", NOUN) == {"S1"}

    def test_lemma_lookup_pos_filtered(self):
        t = make_taxonomy({"S1": ("n", ["run"], []), "S2": ("v", ["run"], [])})
        assert t.synsets_of_lemma("run", NOUN) == {"S1"}
        assert t.synsets_of_lemma("run", PartOfSpeech.VERB) == {"S2"}

    def test_multiword_lemma_normalization(self):
        t = make_taxonomy({"S1": ("n", ["Massif  Central"], [])})
        assert t.synsets_of_lemma("massif central", NOUN) == {"S1"}

    def test_leaves_chain(self, chain_taxonomy):
        assert chain_taxonomy.leaf_synsets(NOUN) == {"C"}

    def test_leaves_isolated_nodes(self):
        t = make_taxonomy({"A": ("n", ["a"], []), "B": ("n", ["b"], [])})
        assert t.leaf_synsets(NOUN) == {"A", "B"}

    def test_leaves_diamond(self):
        t = make_taxonomy({"G": ("n", ["g"], []), "P1": ("n", ["p1"], ["G"]),
                           "P2": ("n", ["p2"], ["G"]), "D": ("n", ["d"], ["P1", "P2"])})
        assert t.leaf_synsets(NOUN) == {"D"}


class TestConnectedComponents:
    def test_direct_edge_joins(self, chain_taxonomy):
        comps = chain_taxonomy.connected_components({"B", "A"})
        assert comps.components == (frozenset({"A", "B"}),)

    def test_no_edge_separates(self, chain_taxonomy):
        comps = chain_taxonomy.connected_components({"A", "C"})
        assert comps.components == (frozenset({"A"}), frozenset({"C"}))

    def test_join_through_shared_grandparent(self):
        t = make_taxonomy({"G": ("n", ["g"], []), "P1": ("n", ["p1"], ["G"]),
                           "P2": ("n", ["p2"], ["G"])})
        comps = t.connected_components({"P1", "P2", "G"})
        assert comps.components == (frozenset({"G", "P1", "P2"}),)

    def test_unknown_gold_member(self, chain_taxonomy):
        with pytest.raises(TaxonomyError):
            chain_taxonomy.connected_components({"A", "missing"})


def flood_fill_components(taxonomy, gold):
    """Independent oracle: repeated whole-edge-set scans from each seed."""
    gold = set(gold)
    remaining = set(gold)
    comps = []
    while remaining:
        comp = {remaining.pop()}
        changed = True
        while changed:
            changed = False
            for child, parents in taxonomy.hypernym_edges.items():
                for parent in parents:
                    if child in gold and parent in gold:
                        if child in comp and parent not in comp:
                            comp.add(parent)
                            changed = True
                        elif parent in comp and child not in comp:
                            comp.add(child)
                            changed = True
        remaining -= comp
        comps.append(frozenset(comp))
    return sorted(comps, key=min)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_components_match_flood_fill(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 25))
    t = make_taxonomy(random_dag_spec(rng, n))
    ids = sorted(t.synsets)
    gold = {sid for sid in ids if rng.random() < 0.4}
    if not gold:
        gold = {ids[0]}
    comps = t.connected_components(gold)
    assert list(comps.components) == flood_fill_components(t, gold)
    # partition invariants
    assert frozenset().union(*comps.components) == frozenset(gold)
    assert sum(len(c) for c in comps.components) == len(gold)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_second_order_definitional_oracle(seed):
    rng = np.random.default_rng(seed)
    t = make_taxonomy(random_dag_spec(rng, int(rng.integers(2, 25))))
    for sid in t.synsets:
        expected = set()
        for h in t.direct_hypernyms(sid):
            expected |= t.direct_hypernyms(h)
        assert t.second_order_hypernyms(sid) == expected


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_leaves_have_no_hyponyms(seed):
    rng = np.random.default_rng(seed)
    t = make_taxonomy(random_dag_spec(rng, int(rng.integers(2, 25))))
    hypernym_of_something = {h for parents in t.hypernym_edges.values() for h in parents}
    assert not (t.leaf_synsets(NOUN) & hypernym_of_something)
