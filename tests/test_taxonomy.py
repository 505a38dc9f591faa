import gc
import json
import logging
import marshal
import os
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taxoenrich import fileio, taxonomy
from taxoenrich.diachronic import dataset_statistics
from taxoenrich.taxonomy import PartOfSpeech, Taxonomy, TaxonomyError, load_taxonomy
from taxoenrich.textnorm import normalize

from conftest import (CHAIN, GOOD_RECORD, WRONGLY_TYPED, make_taxonomy, random_dag_spec,
                      save_taxonomy, taxonomy_sidecar_parts, with_lemma_index,
                      write_taxonomy_file)


NOUN = PartOfSpeech.NOUN


class TestLoad:
    def test_chain_file(self, tmp_path):
        path = write_taxonomy_file(tmp_path / "t.jsonl", CHAIN)
        t = load_taxonomy(path)
        assert len(t.lemmas) == 3
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

    @pytest.mark.parametrize("pos, expected", [("Noun", NOUN), ("N", NOUN), ("NOUN", NOUN),
                                               ("VERB", PartOfSpeech.VERB),
                                               ("Verb", PartOfSpeech.VERB),
                                               ("v", PartOfSpeech.VERB)])
    def test_pos_spelling_in_any_case_is_read(self, tmp_path, pos, expected):
        """Behind the exact lookup of ``n``, ``v``, ``noun`` and ``verb``, any case of
        them still parses."""
        path = tmp_path / "t.jsonl"
        path.write_text(json.dumps({"id": "A", "pos": pos, "lemmas": ["a"]}) + "\n")
        other = (set(PartOfSpeech) - {expected}).pop()
        assert load_taxonomy(path).ids == {expected: {"A"}, other: frozenset()}

    def test_unsupported_pos_names_its_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(json.dumps(GOOD_RECORD) + "\n"
                        + json.dumps({"id": "A", "pos": "a", "lemmas": ["fast"]}) + "\n")
        with pytest.raises(TaxonomyError) as err:
            load_taxonomy(path)
        assert str(err.value) == f"{path}:2: unsupported part of speech: 'a'"

    @pytest.mark.parametrize("record, message", WRONGLY_TYPED,
                             ids=[f"record{i}" for i in range(len(WRONGLY_TYPED))])
    def test_wrongly_typed_field_rejected_with_line(self, tmp_path, record, message):
        path = tmp_path / "t.jsonl"
        path.write_text(json.dumps(GOOD_RECORD) + "\n" + json.dumps(record) + "\n")
        with pytest.raises(TaxonomyError) as err:
            load_taxonomy(path)
        assert str(err.value) == f"{path}:2: {message}"

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

    def test_each_line_is_decoded_on_its_own(self, tmp_path):
        """A line of two records is an error even where the next line, half a record,
        would make a list of the two lines joined by a comma valid."""
        lines = ['{"id": "A", "pos": "n", "lemmas": ["a"]}, {"id": "B", "pos": "n"',
                 '"lemmas": ["b"]}']
        assert len(json.loads("[" + ",".join(lines) + "]")) == 2
        path = tmp_path / "t.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(json.JSONDecodeError) as expected:
            json.loads(lines[0])
        with pytest.raises(TaxonomyError) as err:
            load_taxonomy(path)
        assert str(err.value) == f"{path}:1: malformed JSON: {expected.value}"

    @pytest.mark.parametrize("line", [
        '\u00a0{"id": "A", "pos": "n", "lemmas": ["a"]}\u00a0',      # NBSP padding
        '{"id": "A", "pos": "n", "lemmas": ["a"], "note": NaN}',      # ignored field
    ])
    def test_line_json_loads_accepts_after_strip_loads(self, tmp_path, line):
        path = tmp_path / "t.jsonl"
        path.write_text(line + "\n", encoding="utf-8")
        assert load_taxonomy(path).lemmas == {"A": ("a",)}

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
        assert t2.lemmas == t.lemmas
        assert t2.ids == t.ids
        assert t2.hypernym_edges == t.hypernym_edges
        assert t2.lemma_index == t.lemma_index

    def test_maps_of_a_mixed_file(self, tmp_path):
        """Lemmas keep their file order and repeats; each part of speech has an id set,
        empty or not, in ``PartOfSpeech`` order."""
        spec = {"B": ("v", ["run", "Run", "run"], []), "A": ("Noun", ["a"], []),
                "C": ("n", ["c"], ["A"])}
        t = load_taxonomy(write_taxonomy_file(tmp_path / "t.jsonl", spec))
        assert t.lemmas == {"B": ("run", "Run", "run"), "A": ("a",), "C": ("c",)}
        assert list(t.ids.items()) == [(NOUN, {"A", "C"}), (PartOfSpeech.VERB, {"B"})]
        assert all(type(ids) is frozenset for ids in t.ids.values())
        assert t.hypernym_edges == {"B": frozenset(), "A": frozenset(), "C": {"A"}}
        verbs_only = load_taxonomy(write_taxonomy_file(tmp_path / "v.jsonl",
                                                       {"B": ("v", ["run"], [])}))
        assert verbs_only.ids == {NOUN: frozenset(), PartOfSpeech.VERB: {"B"}}


class TestLemmaIndexOnFirstRead:
    @pytest.mark.parametrize("source", ["served", "pipe"])
    def test_loading_builds_no_index(self, tmp_path, monkeypatch, source):
        """A load served from a sidecar, or of a pipe (which gets none), builds and reads no
        index; only a cold load of a regular file builds one, to write it."""
        path = write_taxonomy_file(tmp_path / "t.jsonl", CHAIN)
        load_taxonomy(path)

        def refuse(*args):
            raise AssertionError("lemma index built or read")
        monkeypatch.setattr(Taxonomy, "_build_lemma_index", refuse)
        monkeypatch.setattr(taxonomy, "_index_of", refuse)
        if source == "served":
            t = load_taxonomy(path)
        else:  # the whole file fits in the pipe's buffer
            read, write = os.pipe()
            os.write(write, path.read_bytes())
            os.close(write)
            try:
                t = load_taxonomy(f"/dev/fd/{read}")
            finally:
                os.close(read)
        assert "lemma_index" not in vars(t)
        assert t.leaf_synsets(NOUN) == {"C"}  # no query but a lemma lookup reads it
        assert t.connected_components({"A", "B"}) == (frozenset({"A", "B"}),)

    def test_index_is_built_once(self, monkeypatch):
        builds = []
        build = Taxonomy._build_lemma_index
        monkeypatch.setattr(Taxonomy, "_build_lemma_index",
                            lambda self: builds.append(self) or build(self))
        t = make_taxonomy(CHAIN)
        assert t.synsets_of_lemma("b", NOUN) == ("B",)
        assert t.lemma_index[NOUN] == {"a": ("A",), "b": ("B",), "c": ("C",)}
        assert t.hypernym_runs[NOUN]["C"] == ("B",)
        assert builds == [t]

    @given(st.dictionaries(st.sampled_from("ABCDEFGH"),
                           st.tuples(st.sampled_from("nv"),
                                     st.lists(st.sampled_from(["a", "A", "b", "B ", "c"]),
                                              min_size=1, max_size=4)),
                           min_size=1))
    @settings(max_examples=60, deadline=None)
    def test_index_matches_a_set_per_key(self, records):
        """Each key's ids are those of the synsets of its part of speech that hold it
        (after normalizing), sorted, each once."""
        t = make_taxonomy({sid: (pos, lemmas, []) for sid, (pos, lemmas) in records.items()})
        for pos in PartOfSpeech:
            expected = {}
            for sid in t.ids[pos]:
                for lemma in t.lemmas[sid]:
                    expected.setdefault(normalize(lemma), set()).add(sid)
            assert t.lemma_index[pos] == {key: tuple(sorted(ids))
                                          for key, ids in expected.items()}


class TestSidecar:
    """A regular file's parse is kept in ``<file>.cache``; later loads read it while it
    matches the source, and rebuild it, with one warning, when not."""

    SPEC = {"B": ("v", ["run", "Run", "run"], []), "A": ("Noun", ["a", "A two words"], []),
            "D": ("n", ["d", "c"], ["C", "A"]), "C": ("n", ["c"], ["A"])}

    @staticmethod
    def warnings(caplog):
        return [r for r in caplog.records if r.levelno >= logging.WARNING]

    @staticmethod
    def load(path, caplog):
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="taxoenrich.taxonomy"):
            return load_taxonomy(path)

    @staticmethod
    def assert_same(got, want):
        """Equal maps in the same dict order, and equal lemma indexes once read."""
        for name in ("lemmas", "ids", "hypernym_edges"):
            assert list(getattr(got, name).items()) == list(getattr(want, name).items())
        assert list(got.lemma_index.items()) == list(want.lemma_index.items())

    def test_a_cached_load_equals_a_parsed_one_and_runs_no_check(self, tmp_path, caplog,
                                                                 monkeypatch):
        path = write_taxonomy_file(tmp_path / "t.jsonl", self.SPEC)
        parsed = load_taxonomy(path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.jsonl", "t.jsonl.cache"]

        def refuse(*args):
            raise AssertionError("parsed or checked again")
        monkeypatch.setattr(Taxonomy, "_build_lemma_index", refuse)
        for name in ("_check_graph", "decode_json", "_record"):
            monkeypatch.setattr(taxonomy, name, refuse)
        cached = self.load(path, caplog)
        assert not self.warnings(caplog)
        assert "lemma_index" not in vars(cached)
        monkeypatch.undo()
        self.assert_same(cached, parsed)

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 30))
    @settings(max_examples=25, deadline=None)
    def test_a_cached_random_dag_equals_its_parse(self, tmp_path_factory, seed, n_nodes):
        spec = random_dag_spec(np.random.default_rng(seed), n_nodes)
        path = write_taxonomy_file(tmp_path_factory.mktemp("dag") / "t.jsonl", spec)
        parsed = load_taxonomy(path)
        self.assert_same(load_taxonomy(path), parsed)

    def test_stale_source_of_the_same_size_is_rebuilt(self, tmp_path, caplog):
        path = write_taxonomy_file(tmp_path / "t.jsonl", self.SPEC)
        load_taxonomy(path)
        stat = path.stat()
        path.write_text(path.read_text().replace('"d"', '"e"'))
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert path.stat().st_size == stat.st_size
        rebuilt = self.load(path, caplog)
        assert len(self.warnings(caplog)) == 1
        assert rebuilt.lemmas["D"] == ("e", "c")
        again = self.load(path, caplog)
        assert not self.warnings(caplog)
        self.assert_same(again, rebuilt)

    @pytest.mark.parametrize("damage", ["truncate", "flip", "format", "python"])
    def test_damaged_sidecar_is_rebuilt_with_one_warning(self, tmp_path, caplog, damage):
        path = write_taxonomy_file(tmp_path / "t.jsonl", self.SPEC)
        want = load_taxonomy(path)
        cache = tmp_path / "t.jsonl.cache"
        blob = cache.read_bytes()
        head = blob[:blob.index(b"\n") + 1]
        meta = json.loads(head)
        if damage == "truncate":
            blob = blob[:-8]
        elif damage == "flip":  # inside a lemma, so that the payload still unmarshals
            at = blob.index(b"A two words", len(head)) + 3
            blob = blob[:at] + bytes([blob[at] ^ 0x01]) + blob[at + 1:]
        elif damage == "format":
            blob = blob.replace(b'"format": ', b'"format": 9', 1)
        else:
            major, minor = meta["python"].split(".")
            other = f'"python": "{major}.{int(minor) + 1}"'.encode()
            blob = blob.replace(f'"python": "{meta["python"]}"'.encode(), other, 1)
        assert blob != cache.read_bytes()
        cache.write_bytes(blob)
        rebuilt = self.load(path, caplog)
        assert len(self.warnings(caplog)) == 1
        self.assert_same(rebuilt, want)
        assert cache.read_bytes()[:len(head)] == head and cache.read_bytes() != blob
        self.assert_same(self.load(path, caplog), want)
        assert not self.warnings(caplog)

    @pytest.mark.parametrize("failure", ["refused", "full disk"])
    def test_failed_write_warns_once_and_leaves_no_temporary(self, tmp_path, caplog,
                                                            monkeypatch, failure):
        if failure == "refused":
            def refuse(path, data):
                raise PermissionError(13, "Permission denied", str(path))
            monkeypatch.setattr(fileio, "atomic_write", refuse)
        else:
            def full_disk(*args):
                raise OSError(28, "No space left on device")
            monkeypatch.setattr(os, "replace", full_disk)
        path = write_taxonomy_file(tmp_path / "t.jsonl", self.SPEC)
        got = self.load(path, caplog)
        assert len(self.warnings(caplog)) == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.jsonl"]
        monkeypatch.undo()
        self.assert_same(got, load_taxonomy(path))

    @pytest.mark.parametrize("text, message", [
        ('{"id": "A", "pos": "n", "lemmas": ["a"]}\nnot json\n',
         "{path}:2: malformed JSON: Expecting value: line 1 column 1 (char 0)"),
        ('{"id": "A", "pos": "n", "lemmas": ["a"], "hypernyms": ["A"]}\n',
         "{path}: self-loop edge on synset 'A'"),
        ("", "{path}: taxonomy file is empty")])
    def test_malformed_source_writes_no_sidecar(self, tmp_path, text, message):
        """The same error on every load, and no sidecar."""
        path = tmp_path / "t.jsonl"
        path.write_text(text)
        for _ in range(2):
            with pytest.raises(TaxonomyError) as err:
                load_taxonomy(path)
            assert str(err.value) == message.format(path=path)
            assert sorted(p.name for p in tmp_path.iterdir()) == ["t.jsonl"]


class TestStoredLemmaIndex:
    """A cold load of a regular file builds the lemma index to write it into the sidecar's
    payload after the maps; a served load keeps a copy of those bytes, checked by the
    payload's CRC-32, and reads it on the first read of the index. The sidecar is written
    once and never rewritten."""

    SPEC = TestSidecar.SPEC
    load, warnings = staticmethod(TestSidecar.load), staticmethod(TestSidecar.warnings)
    assert_same = staticmethod(TestSidecar.assert_same)

    @staticmethod
    def refuse_builds(monkeypatch):
        def refuse(self):
            raise AssertionError("lemma index built")
        monkeypatch.setattr(Taxonomy, "_build_lemma_index", refuse)

    @pytest.fixture
    def sidecar(self, tmp_path):
        """The source, its sidecar as the cold load wrote it, and that load's taxonomy."""
        path = write_taxonomy_file(tmp_path / "t.jsonl", self.SPEC)
        t = load_taxonomy(path)
        return path, tmp_path / "t.jsonl.cache", t

    def test_the_cold_load_writes_the_maps_then_the_index_it_built(self, sidecar):
        path, cache, parsed = sidecar
        assert "lemma_index" in vars(parsed)  # built once, for the sidecar, and kept
        blob = cache.read_bytes()
        head, maps, end = taxonomy_sidecar_parts(blob)
        assert head < maps < end == len(blob)
        lemmas, ids, edges = marshal.loads(blob[head:maps])
        assert lemmas == parsed.lemmas and edges == parsed.hypernym_edges
        assert marshal.loads(blob[maps:]) == [parsed._build_lemma_index()[pos]
                                              for pos in PartOfSpeech]

    @pytest.mark.parametrize("extra", [b"", b"bytes after the payload"])
    def test_a_later_load_reads_the_index_back_and_builds_nothing(self, sidecar, caplog,
                                                                  monkeypatch, extra):
        path, cache, parsed = sidecar
        cache.write_bytes(blob := cache.read_bytes() + extra)
        self.refuse_builds(monkeypatch)
        t = self.load(path, caplog)
        index = t.lemma_index
        assert not self.warnings(caplog) and cache.read_bytes() == blob
        monkeypatch.undo()
        assert list(index.items()) == list(t._build_lemma_index().items())

    def test_a_load_that_reads_no_index_unmarshals_none(self, sidecar, caplog, monkeypatch):
        path, cache, parsed = sidecar
        blob = cache.read_bytes()

        def refuse(data):
            raise AssertionError("lemma index read")
        monkeypatch.setattr(taxonomy, "_index_of", refuse)
        self.refuse_builds(monkeypatch)
        t = self.load(path, caplog)
        assert t.leaf_synsets(NOUN) == {"D"} and t.connected_components({"A", "C"})
        assert not self.warnings(caplog) and cache.read_bytes() == blob

    @pytest.mark.parametrize("damage", ["flip", "truncate", "offset"])
    def test_a_damaged_index_fails_the_payload_check(self, sidecar, caplog, monkeypatch,
                                                     damage):
        """A flipped or cut index byte, or another offset of the index, fails the payload's
        CRC-32: the whole sidecar is rebuilt, with the one warning of a damaged payload."""
        path, cache, parsed = sidecar
        full = cache.read_bytes()
        head, maps, end = taxonomy_sidecar_parts(full)
        at = (maps + end) // 2
        cache.write_bytes({
            "flip": full[:at] + bytes([full[at] ^ 0x04]) + full[at + 1:],
            "truncate": full[:at],
            "offset": full.replace(b'"index_offset": %d' % (maps - head),
                                   b'"index_offset": %d' % (maps - head - 1), 1)}[damage])
        assert cache.read_bytes() != full
        t = self.load(path, caplog)
        [warning] = self.warnings(caplog)
        assert warning.getMessage() == f"{cache}: rebuilding the taxonomy cache: truncated or damaged"
        assert cache.read_bytes() == full
        self.assert_same(t, parsed)
        self.refuse_builds(monkeypatch)
        assert list(self.load(path, caplog).lemma_index.items()) == list(t.lemma_index.items())
        assert not self.warnings(caplog)

    @pytest.mark.parametrize("layout", ["by-pos-value", "one-map", "short", "tuple",
                                        "str-values", "list-values", "int-keys", "not-marshal",
                                        "cut-marshal", "empty"])
    def test_an_index_of_another_layout_warns_once_and_is_built(self, sidecar, caplog, layout):
        """Index bytes under a payload CRC-32 that checks, but that hold no {str: tuple} map
        per part of speech in a list (or no marshal data), give one warning at the first
        read of the index, which is built; a str read as an index would answer ``in`` by
        substring. The sidecar is not rewritten, and its maps are served."""
        path, cache, parsed = sidecar
        parts = marshal.loads(cache.read_bytes()[taxonomy_sidecar_parts(
            cache.read_bytes())[1]:])
        data = {"not-marshal": b"not marshal data", "empty": b"",
                "cut-marshal": marshal.dumps(parts)[:-1]}.get(layout)
        if data is None:
            data = marshal.dumps({
                "by-pos-value": {pos.value: part for pos, part in zip(PartOfSpeech, parts)},
                "one-map": parts[0], "short": parts[:1], "tuple": tuple(parts),
                "str-values": [{k: " ".join(v) for k, v in part.items()} for part in parts],
                "list-values": [{k: list(v) for k, v in part.items()} for part in parts],
                "int-keys": [dict(enumerate(part.values())) for part in parts]}[layout])
        cache.write_bytes(blob := with_lemma_index(cache.read_bytes(), data))
        t = self.load(path, caplog)
        assert not self.warnings(caplog)
        assert list(t.lemma_index.items()) == list(t._build_lemma_index().items())
        [warning] = self.warnings(caplog)
        assert warning.getMessage().startswith(
            f"{cache}: rebuilding the lemma index of the taxonomy cache: ")
        assert cache.read_bytes() == blob
        self.assert_same(t, parsed)

    def test_a_taxonomy_reads_the_index_it_was_served_with(self, sidecar, caplog):
        """Another process (here a second load) rebuilt the sidecar for an edited source
        before the first taxonomy read its index: each reads its own."""
        path, cache, parsed = sidecar
        first = self.load(path, caplog)
        path.write_text(path.read_text().replace('"d"', '"e"'))
        second = self.load(path, caplog)
        rebuilt = cache.read_bytes()
        assert len(self.warnings(caplog)) == 1
        caplog.clear()
        assert first.lemma_index[NOUN]["d"] == ("D",)
        assert second.lemma_index[NOUN]["e"] == ("D",) and "d" not in second.lemma_index[NOUN]
        assert not self.warnings(caplog) and cache.read_bytes() == rebuilt

    def test_a_served_taxonomy_holds_no_mapping_and_is_freed_without_the_cyclic_collector(
            self, sidecar):
        """It holds a copy of its index's bytes, with no open file, mapping or reference
        back."""
        path, cache, parsed = sidecar
        t = load_taxonomy(path)
        maps = Path("/proc/self/maps")
        if maps.exists():
            assert str(cache) not in maps.read_text()
        assert t.lemma_index and t.hypernym_runs[NOUN]["D"]
        dropped, was = weakref.ref(t), gc.isenabled()
        gc.disable()
        try:
            del t
            assert dropped() is None
        finally:
            (gc.enable if was else gc.disable)()

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 30))
    @settings(max_examples=25, deadline=None)
    def test_a_random_dag_is_the_same_parsed_and_served(self, tmp_path_factory, seed, n_nodes):
        """Parsed, then served twice: each load gives the same maps and index as a taxonomy
        built from the maps, and no load changes the sidecar."""
        spec = random_dag_spec(np.random.default_rng(seed), n_nodes)
        path = write_taxonomy_file(tmp_path_factory.mktemp("dag") / "t.jsonl", spec)
        parsed = load_taxonomy(path)
        cache = path.with_name("t.jsonl.cache")
        blob = cache.read_bytes()
        want = Taxonomy(parsed.lemmas, parsed.ids, parsed.hypernym_edges)
        self.assert_same(load_taxonomy(path), want)
        self.assert_same(load_taxonomy(path), want)
        self.assert_same(parsed, want)
        assert cache.read_bytes() == blob


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
        t = make_taxonomy({"S2": ("n", ["duck", "other", "dog"], []), "S1": ("n", ["duck"], []),
                           "S3": ("n", ["dog"], []), "S0": ("n", ["Dog", "dog"], []),
                           "V1": ("v", ["dog"], [])})
        assert t.synsets_of_lemma("duck", NOUN) == ("S1", "S2")
        assert t.synsets_of_lemma("unknown", NOUN) == ()
        # a synset holding a lemma twice (after normalizing) is listed once, in id order
        assert t.lemma_index[NOUN]["dog"] == ("S0", "S2", "S3")
        assert t.lemma_index[PartOfSpeech.VERB] == {"dog": ("V1",)}
        counts = dataset_statistics(t, t, {pos: [] for pos in PartOfSpeech})["old"]
        assert counts == {"synsets": {"n": 4, "v": 1}, "lemmas": {"n": 3, "v": 1}}

    def test_lemma_lookup_case_insensitive(self):
        t = make_taxonomy({"S1": ("n", ["Duck"], [])})
        assert t.synsets_of_lemma("duck", NOUN) == ("S1",)
        assert t.synsets_of_lemma("DUCK", NOUN) == ("S1",)

    def test_lemma_lookup_pos_filtered(self):
        t = make_taxonomy({"S1": ("n", ["run"], []), "S2": ("v", ["run"], [])})
        assert t.synsets_of_lemma("run", NOUN) == ("S1",)
        assert t.synsets_of_lemma("run", PartOfSpeech.VERB) == ("S2",)

    def test_multiword_lemma_normalization(self):
        t = make_taxonomy({"S1": ("n", ["Massif  Central"], [])})
        assert t.synsets_of_lemma("massif central", NOUN) == ("S1",)

    def test_leaves_chain(self, chain_taxonomy):
        assert chain_taxonomy.leaf_synsets(NOUN) == {"C"}

    def test_leaves_isolated_nodes(self):
        t = make_taxonomy({"A": ("n", ["a"], []), "B": ("n", ["b"], [])})
        assert t.leaf_synsets(NOUN) == {"A", "B"}

    def test_leaves_diamond(self):
        t = make_taxonomy({"G": ("n", ["g"], []), "P1": ("n", ["p1"], ["G"]),
                           "P2": ("n", ["p2"], ["G"]), "D": ("n", ["d"], ["P1", "P2"])})
        assert t.leaf_synsets(NOUN) == {"D"}

    def test_hypernym_runs_concatenate_each_hypernym_lemma_mates(self):
        t = make_taxonomy({"G": ("n", ["g"], []), "P1": ("n", ["p1", "run"], ["G"]),
                           "P2": ("n", ["p2"], ["G"]), "R": ("n", ["run"], []),
                           "V": ("v", ["run"], []), "D": ("n", ["d"], ["P2", "P1"])})
        runs = t.hypernym_runs[NOUN]
        assert runs["D"] == ("P1", "R", "P2")  # sorted hypernyms, each with its mates
        assert runs["P1"] == runs["P2"] == ("G",)
        assert t.hypernym_runs[PartOfSpeech.VERB]["D"] == ("P1", "V", "P2")
        assert runs["G"] == ()

    def test_a_dropped_taxonomy_is_freed_without_the_cyclic_collector(self):
        """Its filled memos hold no reference back to it."""
        t = make_taxonomy({"G": ("n", ["g"], []), "P": ("n", ["p"], ["G"])})
        assert t.hypernym_runs[NOUN]["P"] == ("G",)
        dropped, was = weakref.ref(t), gc.isenabled()
        gc.disable()
        try:
            del t
            assert dropped() is None
        finally:
            (gc.enable if was else gc.disable)()


class TestConnectedComponents:
    def test_direct_edge_joins(self, chain_taxonomy):
        comps = chain_taxonomy.connected_components({"B", "A"})
        assert comps == (frozenset({"A", "B"}),)

    def test_no_edge_separates(self, chain_taxonomy):
        comps = chain_taxonomy.connected_components({"A", "C"})
        assert comps == (frozenset({"A"}), frozenset({"C"}))

    def test_join_through_shared_grandparent(self):
        t = make_taxonomy({"G": ("n", ["g"], []), "P1": ("n", ["p1"], ["G"]),
                           "P2": ("n", ["p2"], ["G"])})
        comps = t.connected_components({"P1", "P2", "G"})
        assert comps == (frozenset({"G", "P1", "P2"}),)

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
    ids = sorted(t.lemmas)
    gold = {sid for sid in ids if rng.random() < 0.4}
    if not gold:
        gold = {ids[0]}
    comps = t.connected_components(gold)
    assert list(comps) == flood_fill_components(t, gold)
    # partition invariants
    assert frozenset().union(*comps) == frozenset(gold)
    assert sum(len(c) for c in comps) == len(gold)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_second_order_definitional_oracle(seed):
    rng = np.random.default_rng(seed)
    t = make_taxonomy(random_dag_spec(rng, int(rng.integers(2, 25))))
    for sid in t.lemmas:
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
