import errno
import json
import os
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from taxoenrich import cli

from conftest import WRONGLY_TYPED, build_planted_fixture, pool_features, write_taxonomy_file

OLD_SPEC = {"animal": ("n", ["animal"], []),
            "bird": ("n", ["bird"], ["animal"])}
NEW_SPEC = {**OLD_SPEC,
            "duck": ("n", ["duck"], ["bird"]),
            "ooh": ("n", ["ooh"], ["bird"])}


@pytest.fixture
def toy_files(tmp_path):
    old = write_taxonomy_file(tmp_path / "old.jsonl", OLD_SPEC)
    new = write_taxonomy_file(tmp_path / "new.jsonl", NEW_SPEC)
    return old, new


@pytest.fixture
def planted(tmp_path):
    taxonomy_path, embeddings_path, dataset_rows = build_planted_fixture(tmp_path)
    dataset = tmp_path / "dataset.tsv"
    dataset.write_text("".join(f"{w}\tn\t{','.join(sorted(gold))}\n"
                               for w, gold in sorted(dataset_rows)))
    wiki = tmp_path / "wiki.jsonl"
    wiki.write_text(json.dumps({"word": "orph0_0", "hypernyms": ["parent0"],
                                "synonyms": [], "definition": "a parent0 thing"}) + "\n")
    return {"taxonomy": taxonomy_path, "embeddings": embeddings_path,
            "dataset": dataset, "wiki": wiki, "dir": tmp_path}


class TestBuildDataset:
    def test_toy_fixture(self, toy_files, tmp_path, capsys):
        old, new = toy_files
        out = tmp_path / "ds.tsv"
        rc = cli.main(["build-dataset", "--old-taxonomy", str(old),
                       "--new-taxonomy", str(new), "--dataset", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines == ["duck\tn\tanimal,bird", "ooh\tn\tanimal,bird"]
        stats = json.loads((tmp_path / "ds.tsv.stats.json").read_text())
        assert stats["new_words"]["n"] == 2

    def test_restricted_removes_short_words(self, toy_files, tmp_path):
        old, new = toy_files
        out = tmp_path / "ds.tsv"
        rc = cli.main(["build-dataset", "--old-taxonomy", str(old),
                       "--new-taxonomy", str(new), "--dataset", str(out),
                       "--restricted"])
        assert rc == 0
        assert [l.split("\t")[0] for l in out.read_text().splitlines()] == ["duck"]

    def test_missing_input_exits_2_no_partial_output(self, tmp_path):
        out = tmp_path / "ds.tsv"
        rc = cli.main(["build-dataset", "--old-taxonomy", str(tmp_path / "nope.jsonl"),
                       "--new-taxonomy", str(tmp_path / "nope2.jsonl"),
                       "--dataset", str(out)])
        assert rc == 2
        assert not out.exists()


class TestTrainPredictEval:
    def train(self, planted, model_path, extra=()):
        return cli.main(["train", "--old-taxonomy", str(planted["taxonomy"]),
                         "--embeddings", str(planted["embeddings"]),
                         "--wiktionary", str(planted["wiki"]),
                         "--pos", "noun", "--model", str(model_path),
                         "--seed", "3", *extra])

    def test_train_writes_parseable_model(self, planted):
        model_path = planted["dir"] / "model.txt"
        assert self.train(planted, model_path) == 0
        from taxoenrich.ranking import load_model
        model = load_model(model_path)
        assert model.weights.shape == (5,)

    def test_train_balanced_counts_reported(self, planted, capsys):
        model_path = planted["dir"] / "model.txt"
        assert self.train(planted, model_path) == 0
        out = capsys.readouterr().out
        assert "positive" in out and "negative" in out

    def test_unconverged_fit_warns_on_stderr_only(self, planted, capsys):
        model_path = planted["dir"] / "model.txt"
        assert self.train(planted, model_path) == 0
        converged = capsys.readouterr()
        assert converged.err == ""
        assert self.train(planted, model_path, ["--max-iters", "1"]) == 0
        capped = capsys.readouterr()
        warnings = capped.err.splitlines()
        assert len(warnings) == 1 and warnings[0].startswith("warning: ")
        assert "after 1 iterations" in warnings[0]
        assert "warning" not in capped.out
        assert len(capped.out.splitlines()) == len(converged.out.splitlines())

    def test_predict_ranking_and_eval_map(self, planted, capsys):
        preds = planted["dir"] / "preds.tsv"
        rc = cli.main(["predict", "--method", "ranking",
                       "--old-taxonomy", str(planted["taxonomy"]),
                       "--embeddings", str(planted["embeddings"]),
                       "--dataset", str(planted["dataset"]),
                       "--predictions", str(preds)])
        assert rc == 0
        report = planted["dir"] / "report.json"
        rc = cli.main(["eval", "--old-taxonomy", str(planted["taxonomy"]),
                       "--dataset", str(planted["dataset"]),
                       "--predictions", str(preds), "--out", str(report),
                       "--groups"])
        assert rc == 0
        data = json.loads(report.read_text())
        assert data["map"] == pytest.approx(1.0)
        assert set(data) == {"map", "per_group", "histogram", "per_entry_ap"}

    def test_predict_k_limits_rows(self, planted):
        preds = planted["dir"] / "preds.tsv"
        rc = cli.main(["predict", "--method", "baseline",
                       "--old-taxonomy", str(planted["taxonomy"]),
                       "--embeddings", str(planted["embeddings"]),
                       "--dataset", str(planted["dataset"]),
                       "--predictions", str(preds), "--k", "10"])
        assert rc == 0
        rows_per_word = {}
        for line in preds.read_text().splitlines():
            word = line.split("\t")[0]
            rows_per_word[word] = rows_per_word.get(word, 0) + 1
        assert all(n <= 10 for n in rows_per_word.values())

    def test_ranking_wiki_with_score_only_model_matches_ranking(self, planted):
        # model with all weight on the score feature + empty wiktionary file
        from taxoenrich.ranking import LRModel, save_model
        import numpy as np
        model_path = planted["dir"] / "model.txt"
        save_model(LRModel(weights=np.array([0., 0., 0., 0., 1.]), bias=0.0,
                           l2_lambda=0.0, feature_means=np.zeros(5),
                           feature_stds=np.ones(5)), model_path)
        empty_wiki = planted["dir"] / "empty_wiki.jsonl"
        empty_wiki.write_text("")
        a = planted["dir"] / "a.tsv"
        b = planted["dir"] / "b.tsv"
        cli.main(["predict", "--method", "ranking",
                  "--old-taxonomy", str(planted["taxonomy"]),
                  "--embeddings", str(planted["embeddings"]),
                  "--dataset", str(planted["dataset"]), "--predictions", str(a)])
        cli.main(["predict", "--method", "ranking-wiki",
                  "--old-taxonomy", str(planted["taxonomy"]),
                  "--embeddings", str(planted["embeddings"]),
                  "--wiktionary", str(empty_wiki), "--model", str(model_path),
                  "--dataset", str(planted["dataset"]), "--predictions", str(b)])
        order_a = [l.split("\t")[:3] for l in a.read_text().splitlines()]
        order_b = [l.split("\t")[:3] for l in b.read_text().splitlines()]
        assert order_a == order_b

    def test_oov_words_reported_not_fatal(self, planted):
        dataset = planted["dir"] / "with_oov.tsv"
        dataset.write_text(planted["dataset"].read_text()
                           + "zzzunknown\tn\tP0\n")
        preds = planted["dir"] / "preds.tsv"
        rc = cli.main(["predict", "--method", "ranking",
                       "--old-taxonomy", str(planted["taxonomy"]),
                       "--embeddings", str(planted["embeddings"]),
                       "--dataset", str(dataset), "--predictions", str(preds)])
        assert rc == 0
        sidecar = Path(str(preds) + ".oov.txt")
        assert sidecar.read_text().splitlines() == ["zzzunknown"]


class TestEveryEntryAccounted:
    """Each dataset entry gets rows of its own, keyed by (word, pos), or a sidecar line."""

    SPEC = {"NR": ("n", ["thing"], []), "NP": ("n", ["motion"], ["NR"]),
            "NS": ("n", ["sprint"], ["NP"]),
            "VR": ("v", ["act"], []), "VP": ("v", ["move"], ["VR"]),
            "VS": ("v", ["jog"], ["VP"])}
    ROWS = [("thing", [0, 0, 1.0]), ("motion", [0.2, 0, 1.0]), ("sprint", [1.0, 0.2, 0]),
            ("act", [0, 0, 1.0]), ("move", [0, 0.2, 1.0]), ("jog", [0.2, 1.0, 0]),
            ("run", [1.0, 1.0, 0]), ("lone", [-1.0, -1.0, -1.0])]

    def predict(self, tmp_path, dataset: str, capsys) -> tuple[list[list[str]], str, str]:
        from conftest import write_embeddings_file
        taxonomy = write_taxonomy_file(tmp_path / "t.jsonl", self.SPEC)
        vectors = write_embeddings_file(tmp_path / "v.vec", self.ROWS)
        (tmp_path / "ds.tsv").write_text(dataset)
        preds = tmp_path / "preds.tsv"
        assert cli.main(["predict", "--method", "ranking", "--k", "2",
                         "--old-taxonomy", str(taxonomy), "--embeddings", str(vectors),
                         "--dataset", str(tmp_path / "ds.tsv"), "--predictions", str(preds)]) == 0
        out = capsys.readouterr().out
        assert cli.main(["eval", "--k", "2", "--old-taxonomy", str(taxonomy),
                         "--dataset", str(tmp_path / "ds.tsv"), "--predictions", str(preds)]) == 0
        rows = [line.split("\t") for line in preds.read_text().splitlines()]
        return rows, Path(str(preds) + ".oov.txt").read_text(), out + capsys.readouterr().out

    def test_a_noun_verb_homograph_gets_a_ranking_per_entry(self, tmp_path, capsys):
        rows, sidecar, out = self.predict(tmp_path, "run\tn\tNP\nrun\tv\tVP\n", capsys)
        assert {(word, pos, synset) for word, pos, rank, synset, _score in rows
                if rank == "1"} == {("run", "n", "NP"), ("run", "v", "VP")}
        assert all(synset[0] == pos.upper() for _word, pos, _rank, synset, _score in rows)
        assert sidecar == ""
        assert "predicted 2 entries (0 OOV, 0 with an empty pool" in out
        assert "MAP: 1.0000 over 2 words" in out

    def test_report_gives_each_entry_its_own_ap_in_dataset_order(self, tmp_path, capsys):
        self.predict(tmp_path, "run\tv\tNS\nrun\tn\tNP\n", capsys)
        report = tmp_path / "report.json"
        assert cli.main(["eval", "--k", "2", "--old-taxonomy", str(tmp_path / "t.jsonl"),
                         "--dataset", str(tmp_path / "ds.tsv"),
                         "--predictions", str(tmp_path / "preds.tsv"), "--out", str(report)]) == 0
        assert json.loads(report.read_text())["per_entry_ap"] == [
            {"word": "run", "pos": "v", "ap": 0.0}, {"word": "run", "pos": "n", "ap": 1.0}]

    def test_an_entry_with_an_empty_pool_is_listed_in_the_sidecar(self, tmp_path, capsys):
        dataset = "lone\tn\tNP\nrun\tn\tNP\nzzz\tn\tNP\n"
        rows, sidecar, out = self.predict(tmp_path, dataset, capsys)
        assert {row[0] for row in rows} == {"run"}
        assert sidecar == "lone\nzzz\n"
        assert "predicted 1 entries (1 OOV, 1 with an empty pool" in out


@pytest.mark.parametrize("argv", [
    ["build-dataset", "--pos", "both"], ["build-dataset", "--pos", "noun", "--restricted"],
    ["report"]])
def test_release_diff_builds_each_part_of_speechs_orphans_once(toy_files, tmp_path,
                                                                monkeypatch, argv):
    """The dataset and the statistics' new-word counts come from one ``build_dataset``
    per part of speech, whatever ``--pos`` and the restrictions say."""
    from taxoenrich import diachronic
    from taxoenrich.taxonomy import PartOfSpeech
    build_dataset, calls = diachronic.build_dataset, []

    def counting_build_dataset(old, new, pos, *args):
        calls.append(pos)
        return build_dataset(old, new, pos, *args)

    monkeypatch.setattr(diachronic, "build_dataset", counting_build_dataset)
    old, new = toy_files
    assert cli.main([*argv, "--old-taxonomy", str(old), "--new-taxonomy", str(new),
                     "--dataset" if argv[0] == "build-dataset" else "--out",
                     str(tmp_path / "out")]) == 0
    assert sorted(calls) == sorted(PartOfSpeech)


@pytest.mark.parametrize("argv", [["build-dataset", "--pos", "both"], ["report"]])
def test_release_diff_builds_each_releases_lemma_index_once(toy_files, tmp_path,
                                                            monkeypatch, argv):
    from taxoenrich.taxonomy import Taxonomy
    build, built = Taxonomy._build_lemma_index, []
    monkeypatch.setattr(Taxonomy, "_build_lemma_index",
                        lambda self: built.append(self) or build(self))
    old, new = toy_files
    assert cli.main([*argv, "--old-taxonomy", str(old), "--new-taxonomy", str(new),
                     "--dataset" if argv[0] == "build-dataset" else "--out",
                     str(tmp_path / "out")]) == 0
    assert len(built) == len({id(t) for t in built}) == 2


@pytest.mark.parametrize("source", ["served", "pipe"])
def test_eval_reads_no_lemma_index(toy_files, tmp_path, monkeypatch, capsys, source):
    """``eval`` neither builds nor reads the index of a taxonomy served from its sidecar or
    read through a pipe."""
    from taxoenrich import taxonomy
    from taxoenrich.taxonomy import Taxonomy
    argv = eval_argv(toy_files, tmp_path, "duck\t1\tbird\t0.5\n")
    assert cli.main(argv) == 0  # the cold load writes the sidecar
    capsys.readouterr()

    def refuse(*args):
        raise RuntimeError("lemma index built or read")
    monkeypatch.setattr(Taxonomy, "_build_lemma_index", refuse)
    monkeypatch.setattr(taxonomy, "_index_of", refuse)
    if source == "served":
        assert cli.main(argv) == 0
    else:
        at = argv.index("--old-taxonomy") + 1
        with fed_fifos(tmp_path, [argv[at]]) as (fifo,):
            assert cli.main([*argv[:at], str(fifo), *argv[at + 1:]]) == 0
    assert capsys.readouterr().out.startswith("MAP: 1.0000 over 1 words\n")


def test_every_written_taxonomy_sidecar_holds_the_lemma_index(toy_files, tmp_path,
                                                              monkeypatch):
    """A cold ``eval`` of each release, which reads no index, still writes each index into
    the sidecar, so a later ``build-dataset`` builds none."""
    from taxoenrich.taxonomy import Taxonomy
    old, new = toy_files
    for release in (old, new):
        argv = eval_argv(toy_files, tmp_path, "duck\t1\tbird\t0.5\n")
        argv[argv.index("--old-taxonomy") + 1] = str(release)
        assert cli.main(argv) == 0

    def refuse(self):
        raise RuntimeError("lemma index built")
    monkeypatch.setattr(Taxonomy, "_build_lemma_index", refuse)
    assert cli.main(["build-dataset", "--old-taxonomy", str(old), "--new-taxonomy", str(new),
                     "--dataset", str(tmp_path / "ds.tsv")]) == 0


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("failure, code", [(None, 0), ("input", 2), ("runtime", 1)])
def test_a_command_runs_with_the_cyclic_collector_paused(toy_files, tmp_path, monkeypatch,
                                                         enabled, failure, code):
    """``main`` holds one collector pause for the whole command: what the command does
    after a load runs with the collector off, and ``main`` returns with the caller's
    collector state whatever the exit code."""
    import gc
    from taxoenrich import diachronic
    load_taxonomy, build_dataset, seen = cli.load_taxonomy, diachronic.build_dataset, []

    def probed_load_taxonomy(path):
        taxonomy = load_taxonomy(path)
        seen.append(gc.isenabled())
        return taxonomy

    def probed_build_dataset(*args):
        seen.append(gc.isenabled())
        if failure == "runtime":
            raise RuntimeError("probe")
        return build_dataset(*args)

    monkeypatch.setattr(cli, "load_taxonomy", probed_load_taxonomy)
    monkeypatch.setattr(diachronic, "build_dataset", probed_build_dataset)
    old, new = toy_files
    if failure == "input":
        new = write_taxonomy_file(tmp_path / "looped.jsonl", {"A": ("n", ["a"], ["A"])})
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        rc = cli.main(["build-dataset", "--old-taxonomy", str(old), "--new-taxonomy", str(new),
                       "--dataset", str(tmp_path / "ds.tsv")])
        after = gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    assert rc == code
    assert after is enabled
    assert len(seen) == {0: 4, 2: 1, 1: 3}[code] and not any(seen)


@pytest.mark.parametrize("method", ["baseline", "ranking", "ranking-wiki"])
def test_gold_never_steers_predict(planted, method):
    """Permuting the gold column of a dataset leaves predict's rows and sidecar
    byte-identical: the gold answers are read for eval alone."""
    from taxoenrich.ranking import LRModel, save_model
    import numpy as np
    model_path = planted["dir"] / "model.txt"
    save_model(LRModel(weights=np.array([0.3, -0.2, 0.5, 0.1, 1.0]), bias=-0.1,
                       l2_lambda=0.0, feature_means=np.zeros(5), feature_stds=np.ones(5)),
               model_path)
    rows = [line.split("\t") for line in planted["dataset"].read_text().splitlines()]
    rows.append(["zzzunknown", "n", "P0"])
    golds = [gold for _, _, gold in rows]
    outputs = []
    for name, permuted in (("a", golds), ("b", golds[1:] + golds[:1]),
                           ("c", golds[::-1])):
        dataset, preds = planted["dir"] / f"{name}.tsv", planted["dir"] / f"{name}.preds.tsv"
        dataset.write_text("".join(f"{word}\t{pos}\t{gold}\n"
                                   for (word, pos, _), gold in zip(rows, permuted)))
        assert cli.main(["predict", "--method", method, "--explain",
                         "--old-taxonomy", str(planted["taxonomy"]),
                         "--embeddings", str(planted["embeddings"]),
                         "--wiktionary", str(planted["wiki"]), "--model", str(model_path),
                         "--dataset", str(dataset), "--predictions", str(preds)]) == 0
        outputs.append((preds.read_bytes(), Path(str(preds) + ".oov.txt").read_bytes()))
    assert len(set(golds)) > 1 and outputs[0][0] and outputs[0][1] == b"zzzunknown\n"
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


class TestOtherCommands:
    def test_report(self, toy_files, tmp_path):
        old, new = toy_files
        out = tmp_path / "stats.json"
        rc = cli.main(["report", "--old-taxonomy", str(old),
                       "--new-taxonomy", str(new), "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["new_words"]["n"] == 2

    def test_wiki_coverage(self, planted):
        out = planted["dir"] / "coverage.json"
        rc = cli.main(["wiki-coverage", "--old-taxonomy", str(planted["taxonomy"]),
                       "--dataset", str(planted["dataset"]),
                       "--wiktionary", str(planted["wiki"]), "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["orphans"] == 20
        assert report["present_pct"] == pytest.approx(5.0)
        assert report["gold_in_hypernyms_pct"] == pytest.approx(5.0)

    def test_wiki_coverage_wrongly_typed_word_exits_2(self, planted, capsys):
        planted["wiki"].write_text('{"word": 5}\n')
        rc = cli.main(["wiki-coverage", "--old-taxonomy", str(planted["taxonomy"]),
                       "--dataset", str(planted["dataset"]),
                       "--wiktionary", str(planted["wiki"])])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {planted['wiki']}:1: malformed entry: 'word' must be a string, got 5\n")

    def test_wiki_coverage_unknown_gold_synset_exits_2(self, planted, capsys):
        planted["dataset"].write_text("orph0_0\tn\tP0,NOPE.n.01\n")
        rc = cli.main(["wiki-coverage", "--old-taxonomy", str(planted["taxonomy"]),
                       "--dataset", str(planted["dataset"]),
                       "--wiktionary", str(planted["wiki"])])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {planted['dataset']}: 'orph0_0' (n): unknown gold synset id 'NOPE.n.01'\n")

    def test_config_file_with_flag_override(self, toy_files, tmp_path):
        old, new = toy_files
        config = tmp_path / "run.conf"
        config.write_text(f"old_taxonomy = {old}\nnew_taxonomy = {new}\n"
                          f"min_length = 4\n")
        out = tmp_path / "ds.tsv"
        rc = cli.main(["build-dataset", "--config", str(config),
                       "--dataset", str(out), "--min-length", "0"])
        assert rc == 0
        # flag min_length=0 overrides the config's 4, so "ooh" stays
        assert "ooh" in out.read_text()

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["predict", "--help"])
        assert exc.value.code == 0
        assert "--method" in capsys.readouterr().out

    def test_unknown_flag_is_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["eval", "--no-such-flag"])
        assert exc.value.code == 2


class TestDeterminism:
    def test_same_seed_identical_outputs(self, planted, toy_files, tmp_path):
        old, new = toy_files

        def run_all(out_dir: Path):
            out_dir.mkdir(exist_ok=True)
            ds = out_dir / "ds.tsv"
            assert cli.main(["build-dataset", "--old-taxonomy", str(old),
                             "--new-taxonomy", str(new), "--dataset", str(ds)]) == 0
            model = out_dir / "model.txt"
            assert cli.main(["train", "--old-taxonomy", str(planted["taxonomy"]),
                             "--embeddings", str(planted["embeddings"]),
                             "--wiktionary", str(planted["wiki"]),
                             "--pos", "noun", "--model", str(model),
                             "--pairs-out", str(out_dir / "pairs.tsv"),
                             "--seed", "11"]) == 0
            preds = out_dir / "preds.tsv"
            assert cli.main(["predict", "--method", "ranking-wiki",
                             "--old-taxonomy", str(planted["taxonomy"]),
                             "--embeddings", str(planted["embeddings"]),
                             "--wiktionary", str(planted["wiki"]),
                             "--model", str(model),
                             "--dataset", str(planted["dataset"]),
                             "--predictions", str(preds)]) == 0
            report = out_dir / "report.json"
            assert cli.main(["eval", "--old-taxonomy", str(planted["taxonomy"]),
                             "--dataset", str(planted["dataset"]),
                             "--predictions", str(preds),
                             "--out", str(report)]) == 0
            return [ds, out_dir / "ds.tsv.stats.json", model,
                    out_dir / "pairs.tsv", preds, report]

        files_a = run_all(tmp_path / "run_a")
        files_b = run_all(tmp_path / "run_b")
        for fa, fb in zip(files_a, files_b):
            assert fa.read_bytes() == fb.read_bytes(), fa.name


def test_predict_twice_gives_the_same_predictions_and_sidecar(planted):
    """The first run parses the vector file and writes its sidecar; the second
    is served from the sidecar, leaves it as it is and predicts the same bytes."""
    cache = Path(str(planted["embeddings"]) + ".cache")
    outputs = []
    for run in range(2):
        preds = planted["dir"] / f"preds{run}.tsv"
        assert cli.main(["predict", "--method", "ranking",
                         "--old-taxonomy", str(planted["taxonomy"]),
                         "--embeddings", str(planted["embeddings"]),
                         "--dataset", str(planted["dataset"]),
                         "--predictions", str(preds)]) == 0
        stat = cache.stat()
        outputs.append((preds.read_bytes(), cache.read_bytes(), stat.st_ino, stat.st_mtime_ns))
    assert outputs[0] == outputs[1]


def save_unit_model(path):
    """A model file that ranks by the weighted-similarity score alone."""
    from taxoenrich.ranking import LRModel, save_model
    import numpy as np
    save_model(LRModel(weights=np.array([0., 0., 0., 0., 1.]), bias=0.0, l2_lambda=0.0,
                       feature_means=np.zeros(5), feature_stds=np.ones(5)), path)


class TestSearchOncePerRun:
    """Each ``rank_words`` and ``build_training_pairs`` call, and so each command, finds
    its neighbors in one batched search and builds each known word's pool once: the
    baseline's pool is its first-order provenance, the other rankers' the extended
    occurrence counts."""

    @pytest.fixture
    def counted(self, monkeypatch):
        from taxoenrich import ranking
        calls = {"batch": 0, "queries": 0, "pools": []}
        batch, word_neighbors, pool, provenance = (
            ranking.batch_nearest_neighbors, ranking.word_neighbors, ranking._pool,
            ranking._provenance)
        owner = {}  # id of a neighbor list -> the word it was searched for

        def counting_batch(store, queries, k, excludes):
            calls["batch"] += 1
            calls["queries"] += len(queries)
            return batch(store, queries, k, excludes)

        def owning_word_neighbors(words, embeddings, k):
            found = word_neighbors(words, embeddings, k)
            owner.update((id(neighbors), word) for word, neighbors in zip(words, found))
            return found

        def counting_pool(taxonomy, pos, neighbors):
            calls["pools"].append((owner[id(neighbors)], pos))
            return pool(taxonomy, pos, neighbors)

        def counting_provenance(taxonomy, pos, neighbors, extended):
            if not extended:
                calls["pools"].append((owner[id(neighbors)], pos))
            return provenance(taxonomy, pos, neighbors, extended)

        monkeypatch.setattr(ranking, "batch_nearest_neighbors", counting_batch)
        monkeypatch.setattr(ranking, "word_neighbors", owning_word_neighbors)
        monkeypatch.setattr(ranking, "_pool", counting_pool)
        monkeypatch.setattr(ranking, "_provenance", counting_provenance)
        return calls

    @pytest.mark.parametrize("method", ["baseline", "ranking", "ranking-wiki"])
    def test_rank_words_searches_once_and_builds_each_known_pool_once(self, planted, counted,
                                                                      method):
        from taxoenrich import ranking
        from taxoenrich.diachronic import read_dataset
        from taxoenrich.embeddings import load_embeddings
        from taxoenrich.taxonomy import PartOfSpeech, load_taxonomy
        from taxoenrich.wiktionary import load_wiktionary
        import numpy as np
        taxonomy, store = load_taxonomy(planted["taxonomy"]), load_embeddings(planted["embeddings"])
        known = [(e.word, e.pos) for e in read_dataset(planted["dataset"])]
        words = [word for word, _ in known] + ["zzzunknown", known[0][0]]
        parts_of_speech = [pos for _, pos in known] + [PartOfSpeech.NOUN, PartOfSpeech.VERB]
        model = ranking.LRModel(weights=np.ones(5), bias=0.0, l2_lambda=0.0,
                                feature_means=np.zeros(5), feature_stds=np.ones(5))
        ranked = ranking.rank_words(words, parts_of_speech, taxonomy, store, 10,
                                    method == "baseline", model if method == "ranking-wiki"
                                    else None, load_wiktionary(planted["wiki"]))
        assert counted["batch"] == 1
        assert counted["queries"] == len({word for word, _ in known})  # the homograph's once
        assert counted["pools"] == [*known, (known[0][0], PartOfSpeech.VERB)]
        assert len(ranked) == len(words) and ranked[-2] is None and ranked[-1] == []

    def test_entries_of_one_word_read_its_one_search(self, planted, counted):
        """Each distinct word is one query; every entry of it gets the neighbors the word
        gets searched for alone."""
        from taxoenrich import ranking
        from taxoenrich.diachronic import read_dataset
        from taxoenrich.embeddings import load_embeddings
        store = load_embeddings(planted["embeddings"])
        known = [e.word for e in read_dataset(planted["dataset"])]
        words = known + known[::-2] + ["zzzunknown"] * 2
        found = ranking.word_neighbors(words, store, 10)
        assert (counted["batch"], counted["queries"]) == (1, len(known))
        alone = {word: ranking.word_neighbors([word], store, 10)[0] for word in words}
        assert found == [alone[word] for word in words]
        assert alone["zzzunknown"] is None

    @pytest.mark.parametrize("method", ["baseline", "ranking", "ranking-wiki"])
    def test_predict_queries_a_homograph_once(self, planted, counted, method):
        model = planted["dir"] / "model.txt"
        save_unit_model(model)
        dataset = planted["dir"] / "homographs.tsv"
        dataset.write_text("".join(line + "\n" + line.replace("\tn\t", "\tv\t", 1) + "\n"
                                   for line in planted["dataset"].read_text().splitlines()))
        assert cli.main(["predict", "--method", method,
                         "--old-taxonomy", str(planted["taxonomy"]),
                         "--embeddings", str(planted["embeddings"]),
                         "--wiktionary", str(planted["wiki"]), "--model", str(model),
                         "--dataset", str(dataset),
                         "--predictions", str(planted["dir"] / "preds.tsv")]) == 0
        n_words = len(planted["dataset"].read_text().splitlines())
        assert (counted["batch"], counted["queries"]) == (1, n_words)
        assert len(counted["pools"]) == 2 * n_words

    @pytest.mark.parametrize("command", ["predict", "train"])
    def test_each_hypernyms_associated_synsets_are_built_once_per_pos(self, planted,
                                                                     monkeypatch, command):
        from taxoenrich.taxonomy import Taxonomy
        built = []
        associated = Taxonomy.associated_synsets

        def counting(taxonomy, sid, pos):
            built.append((sid, pos))
            return associated(taxonomy, sid, pos)

        monkeypatch.setattr(Taxonomy, "associated_synsets", counting)
        model = planted["dir"] / "model.txt"
        inputs = ["--old-taxonomy", str(planted["taxonomy"]),
                  "--embeddings", str(planted["embeddings"]), "--model", str(model)]
        if command == "predict":
            save_unit_model(model)
            argv = ["predict", "--method", "ranking", *inputs, "--dataset",
                    str(planted["dataset"]), "--predictions", str(planted["dir"] / "p.tsv")]
        else:
            argv = ["train", "--pos", "noun", *inputs]
        assert cli.main(argv) == 0
        assert built and len(built) == len(set(built))

    def test_build_training_pairs_searches_once_and_builds_each_pool_once(self, planted,
                                                                          counted):
        from taxoenrich import ranking
        from taxoenrich.embeddings import load_embeddings
        from taxoenrich.taxonomy import PartOfSpeech, load_taxonomy
        taxonomy, store = load_taxonomy(planted["taxonomy"]), load_embeddings(planted["embeddings"])
        pairs = ranking.build_training_pairs(taxonomy, store, PartOfSpeech.NOUN)[0]
        assert counted["batch"] == 1
        words = sorted({pair.word for pair in pairs})
        assert counted["pools"] == [(word, PartOfSpeech.NOUN) for word in words]

    def test_train_builds_each_pool_once(self, planted, counted):
        rc = cli.main(["train", "--old-taxonomy", str(planted["taxonomy"]),
                       "--embeddings", str(planted["embeddings"]),
                       "--wiktionary", str(planted["wiki"]), "--pos", "noun",
                       "--model", str(planted["dir"] / "model.txt")])
        assert rc == 0
        assert counted["batch"] == 1
        assert counted["pools"]
        assert len(counted["pools"]) == len(set(counted["pools"]))

    def test_train_scores_a_cross_pos_hypernym_from_the_word_pool(self, tmp_path, counted,
                                                                   monkeypatch):
        """A noun whose hypernym is a verb is featurized from its own noun pool, as
        predict would score it, not from a verb pool searched for once per word."""
        from taxoenrich import ranking
        from taxoenrich.embeddings import load_embeddings
        from taxoenrich.taxonomy import PartOfSpeech, load_taxonomy
        from taxoenrich.wiktionary import WiktionaryStore
        from conftest import extended_pool, write_embeddings_file
        spec = {"R": ("n", ["root"], []), "P": ("n", ["parent"], ["R"]),
                "V": ("v", ["act"], []),
                "LX": ("n", ["wx"], ["P", "V"]), "LY": ("n", ["wy"], ["V"]),
                **{f"L{i}": ("n", [f"w{i}"], ["P"]) for i in range(4)}}
        rows = [("root", [1, 0, 0, 0]), ("parent", [0.9, 0.1, 0, 0]), ("act", [0, 0, 1, 0]),
                ("wx", [0.5, 0.5, 0.1, 0]), ("wy", [0.5, 0.5, 0.12, 0.01]),
                *((f"w{i}", [0.8, 0.2 + 0.01 * i, 0, 0.02]) for i in range(4))]
        taxonomy_path = write_taxonomy_file(tmp_path / "t.jsonl", spec)
        vectors = write_embeddings_file(tmp_path / "v.vec", rows)
        seen = {}
        train_lr = ranking.train_lr

        def capturing_train_lr(X, y, **kwargs):
            seen["X"] = X
            return train_lr(X, y, **kwargs)

        monkeypatch.setattr(ranking, "train_lr", capturing_train_lr)
        assert cli.main(["train", "--old-taxonomy", str(taxonomy_path),
                         "--embeddings", str(vectors), "--pos", "noun",
                         "--model", str(tmp_path / "model.txt")]) == 0
        assert counted["batch"] == 1
        taxonomy, store = load_taxonomy(taxonomy_path), load_embeddings(vectors)
        pairs = ranking.build_training_pairs(taxonomy, store, PartOfSpeech.NOUN)[0]
        row = [(p.word, p.candidate) for p in pairs].index(("wx", "V"))
        pool = extended_pool("wx", taxonomy, store, PartOfSpeech.NOUN)
        expected = pool_features("wx", ["V"], pool, taxonomy, store, WiktionaryStore())
        assert seen["X"][row, 4] == expected[0, 4] > 0.0

    @pytest.mark.parametrize("method", ["baseline", "ranking", "ranking-wiki"])
    def test_predict_searches_once(self, planted, counted, method):
        from taxoenrich.ranking import LRModel, save_model
        import numpy as np
        model_path = planted["dir"] / "model.txt"
        save_model(LRModel(weights=np.array([0., 0., 0., 0., 1.]), bias=0.0,
                           l2_lambda=0.0, feature_means=np.zeros(5),
                           feature_stds=np.ones(5)), model_path)
        dataset = planted["dir"] / "with_oov.tsv"
        dataset.write_text(planted["dataset"].read_text() + "zzzunknown\tn\tP0\n")
        rc = cli.main(["predict", "--method", method,
                       "--old-taxonomy", str(planted["taxonomy"]),
                       "--embeddings", str(planted["embeddings"]),
                       "--wiktionary", str(planted["wiki"]), "--model", str(model_path),
                       "--dataset", str(dataset),
                       "--predictions", str(planted["dir"] / "preds.tsv")])
        assert rc == 0
        assert counted["batch"] == 1


class TestFailedWriteKeepsPreviousOutput:
    """An output write that fails part-way (here: the file-size limit is hit)
    leaves the previous output intact and no temporary file behind."""

    @staticmethod
    def run_limited(argv, limit_bytes):
        import os
        import resource
        import signal
        import subprocess
        import sys

        def limit():
            signal.signal(signal.SIGXFSZ, signal.SIG_IGN)  # EFBIG instead of a kill
            resource.setrlimit(resource.RLIMIT_FSIZE, (limit_bytes, limit_bytes))

        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]),
                   PYTHONDONTWRITEBYTECODE="1")
        return subprocess.run([sys.executable, "-m", "taxoenrich.cli", *argv],
                              preexec_fn=limit, env=env, capture_output=True,
                              text=True, timeout=120)

    @pytest.mark.parametrize("command", ["train", "predict"])
    def test_failed_write_leaves_previous_output(self, planted, command):
        out_dir = planted["dir"] / "out"
        out_dir.mkdir()
        out = out_dir / ("model.txt" if command == "train" else "preds.tsv")
        if command == "train":
            argv = ["train", "--old-taxonomy", str(planted["taxonomy"]),
                    "--embeddings", str(planted["embeddings"]), "--pos", "noun",
                    "--model", str(out)]
        else:
            argv = ["predict", "--method", "ranking",
                    "--old-taxonomy", str(planted["taxonomy"]),
                    "--embeddings", str(planted["embeddings"]),
                    "--dataset", str(planted["dataset"]), "--predictions", str(out)]
        assert cli.main(argv) == 0
        previous = out.read_bytes()
        files = sorted(p.name for p in out_dir.iterdir())
        assert len(previous) > 64
        result = self.run_limited(argv, 64)
        assert result.returncode == 1, result.stderr
        assert "File too large" in result.stderr
        assert out.read_bytes() == previous
        assert sorted(p.name for p in out_dir.iterdir()) == files


class TestMalformedInputExitCodes:
    """Malformed input files exit 2; runtime failures stay at 1."""

    def predict(self, planted, **paths):
        from taxoenrich.ranking import LRModel, save_model
        import numpy as np
        model = planted["dir"] / "model.txt"
        save_model(LRModel(weights=np.array([0., 0., 0., 0., 1.]), bias=0.0,
                           l2_lambda=0.0, feature_means=np.zeros(5),
                           feature_stds=np.ones(5)), model)
        inputs = {"old-taxonomy": planted["taxonomy"], "embeddings": planted["embeddings"],
                  "wiktionary": planted["wiki"], "model": model,
                  "dataset": planted["dataset"]}
        for name, text in paths.items():
            inputs[name.replace("_", "-")] = planted["dir"] / f"bad_{name}"
            inputs[name.replace("_", "-")].write_text(text)
        argv = ["predict", "--method", "ranking-wiki",
                "--predictions", str(planted["dir"] / "preds.tsv")]
        for name, path in inputs.items():
            argv += [f"--{name}", str(path)]
        return cli.main(argv)

    def test_vec_with_fewer_lines_than_header_exits_2(self, planted, capsys):
        assert self.predict(planted, embeddings="3 2\nbird 1 0\nduck 0 1\n") == 2
        assert "header says 3 vectors" in capsys.readouterr().err

    def test_vec_row_whose_norm_overflows_exits_2(self, planted, capsys):
        vectors = planted["embeddings"].read_text()
        count, dim = map(int, vectors.split("\n", 1)[0].split())
        bad = f"{count + 1} {dim}\n" + vectors.split("\n", 1)[1] + \
            "big " + " ".join(["1e200"] * dim) + "\n"
        assert self.predict(planted, embeddings=bad) == 2
        assert "'big'" in capsys.readouterr().err

    def test_vec_row_whose_norm_underflows_exits_2(self, planted, capsys):
        vectors = planted["embeddings"].read_text()
        count, dim = map(int, vectors.split("\n", 1)[0].split())
        bad = f"{count + 1} {dim}\n" + vectors.split("\n", 1)[1] + \
            "tiny 3e-162" + " 0" * (dim - 1) + "\n"
        assert self.predict(planted, embeddings=bad) == 2
        assert "'tiny'" in capsys.readouterr().err

    @pytest.mark.parametrize("name, text", [
        ("old_taxonomy", "{not json\n"),
        ("wiktionary", '{"nope": 1}\n'),
        ("dataset", "orph0_0\tn\n"),
        ("dataset", "orph0_0\tx\tP0\n"),
        ("model", "lr-model v1\n0.0\n0 0 0 0 1\n0 0 0 0 0\n1 1 1 1 1\n"),
        ("model", "lr-model v1\n0.0\nnan 0 0 0 1 0\n0 0 0 0 0\n1 1 1 1 1\n"),
        ("model", "lr-model v1\n0.0\n0 0 0 0 1 0\n0 0 0 0 0\n1 1 -1 1 1\n"),
        ("model", "lr-model v1\n0.0\n0 0 0 0 one 0\n0 0 0 0 0\n1 1 1 1 1\n"),
        ("model", "lr-model v1\n0.0\n0 0 0 0 1 0\n0 0 0 0 0\n1 1 1 1 1\n" * 2),
    ])
    def test_malformed_input_exits_2(self, planted, name, text):
        assert self.predict(planted, **{name: text}) == 2

    @pytest.mark.parametrize("command", ["predict", "eval", "wiki-coverage"])
    def test_empty_gold_id_exits_2_naming_the_line(self, planted, command, capsys):
        bad = planted["dir"] / "bad_dataset.tsv"
        bad.write_text("orph0_0\tn\tP0\norph0_1\tn\t\n")
        preds = planted["dir"] / "preds.tsv"
        preds.write_text("orph0_0\t1\tP0\t0.5\n")
        common = ["--old-taxonomy", str(planted["taxonomy"]), "--dataset", str(bad)]
        argv = {"predict": ["predict", "--method", "ranking", *common,
                            "--embeddings", str(planted["embeddings"]),
                            "--predictions", str(planted["dir"] / "out.tsv")],
                "eval": ["eval", *common, "--predictions", str(preds)],
                "wiki-coverage": ["wiki-coverage", *common,
                                  "--wiktionary", str(planted["wiki"])]}[command]
        assert cli.main(argv) == 2
        assert "bad_dataset.tsv:2:" in capsys.readouterr().err

    def test_corrupt_header_count_exits_2(self, planted, capsys):
        # without a bound on the preallocation this header asks for ~240 TB
        assert self.predict(planted, embeddings="99999999999 300\nbird" + " 0.5" * 300 + "\n") == 2
        assert "header says 99999999999 vectors" in capsys.readouterr().err

    def test_malformed_predictions_exit_2(self, planted):
        bad = planted["dir"] / "bad_preds.tsv"
        bad.write_text("orph0_0\t1\tP0\n")
        assert cli.main(["eval", "--old-taxonomy", str(planted["taxonomy"]),
                         "--dataset", str(planted["dataset"]),
                         "--predictions", str(bad)]) == 2

    @pytest.mark.parametrize("record", [record for record, _message in WRONGLY_TYPED])
    def test_wrongly_typed_taxonomy_field_exits_2_naming_the_line(self, toy_files, record,
                                                                  capsys):
        old, new = toy_files
        with old.open("a") as fh:
            fh.write(json.dumps(record) + "\n")
        assert cli.main(["report", "--old-taxonomy", str(old), "--new-taxonomy", str(new)]) == 2
        assert f"old.jsonl:{len(OLD_SPEC) + 1}: " in capsys.readouterr().err

    # 100,000 nested arrays: deeper than the interpreter's recursion limit
    NESTED = "[" * 100_000 + "]" * 100_000

    def test_taxonomy_record_nested_past_the_recursion_limit_exits_2(self, toy_files, capsys):
        old, new = toy_files
        with old.open("a") as fh:
            fh.write('{"id": "deep", "pos": "n", "lemmas": ["deep"], "note": %s}\n'
                     % self.NESTED)
        assert cli.main(["report", "--old-taxonomy", str(old), "--new-taxonomy", str(new)]) == 2
        assert f"{old}:{len(OLD_SPEC) + 1}: malformed JSON: " in capsys.readouterr().err

    def test_wiktionary_entry_nested_past_the_recursion_limit_exits_2(self, planted, capsys):
        wiki = planted["dir"] / "deep.jsonl"
        wiki.write_text(planted["wiki"].read_text() + '{"word": "deep", "note": %s}\n'
                        % self.NESTED)
        assert cli.main(["wiki-coverage", "--old-taxonomy", str(planted["taxonomy"]),
                         "--dataset", str(planted["dataset"]), "--wiktionary", str(wiki)]) == 2
        assert f"{wiki}:2: malformed JSON: " in capsys.readouterr().err

    def test_vector_sidecar_header_nested_past_the_recursion_limit_is_rebuilt(self, planted,
                                                                            caplog):
        vectors = planted["embeddings"]
        cache = vectors.with_name(vectors.name + ".cache")
        argv = ["predict", "--method", "ranking", "--old-taxonomy", str(planted["taxonomy"]),
                "--embeddings", str(vectors), "--dataset", str(planted["dataset"])]
        assert cli.main([*argv, "--predictions", str(planted["dir"] / "p1.tsv")]) == 0
        built = cache.read_bytes()
        cache.write_bytes(self.NESTED.encode() + b"\n" + built)
        assert cli.main([*argv, "--predictions", str(planted["dir"] / "p2.tsv")]) == 0
        assert "rebuilding the vector cache" in caplog.text
        assert cache.read_bytes() == built
        assert (planted["dir"] / "p1.tsv").read_bytes() == (planted["dir"] / "p2.tsv").read_bytes()

    def test_no_training_pairs_exits_1(self, tmp_path):
        from conftest import write_embeddings_file
        taxonomy = write_taxonomy_file(tmp_path / "t.jsonl",
                                       {"A": ("n", ["a"], []), "B": ("n", ["b"], ["A"])})
        vectors = write_embeddings_file(tmp_path / "v.vec", [("zzz", [1.0, 0.0])])
        assert cli.main(["train", "--old-taxonomy", str(taxonomy),
                         "--embeddings", str(vectors), "--pos", "noun",
                         "--model", str(tmp_path / "model.txt")]) == 1


@pytest.mark.parametrize("argv", [
    ["build-dataset", "--k", "5"], ["build-dataset", "--seed", "9"],
    ["report", "--k", "5"], ["wiki-coverage", "--seed", "9"], ["eval", "--seed", "9"],
])
def test_flags_a_command_does_not_read_are_usage_errors(argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2


def test_config_setting_k_and_seed_still_loads(toy_files, tmp_path):
    old, new = toy_files
    config = tmp_path / "run.cfg"
    config.write_text("k = 5\nseed = 9\n")
    assert cli.main(["build-dataset", "--config", str(config), "--old-taxonomy", str(old),
                     "--new-taxonomy", str(new), "--dataset", str(tmp_path / "ds.tsv")]) == 0


@pytest.mark.parametrize("led", ["config", "old-taxonomy", "new-taxonomy"])
def test_a_config_or_jsonl_input_led_by_a_byte_order_mark_exits_2_naming_line_1(
        toy_files, tmp_path, capsys, led):
    """As for a TSV input: in a config the mark would join the first key, which then names
    no option, and the setting would be dropped with exit 0."""
    old, new = toy_files
    config, out = tmp_path / "run.cfg", tmp_path / "ds.tsv"
    config.write_text("min_length = 7\n")
    bad = {"config": config, "old-taxonomy": old, "new-taxonomy": new}[led]
    bad.write_bytes(b"\xef\xbb\xbf" + bad.read_bytes())
    assert cli.main(["build-dataset", "--config", str(config), "--old-taxonomy", str(old),
                     "--new-taxonomy", str(new), "--dataset", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {bad}:1: starts with a byte-order mark (U+FEFF)\n"
    assert not out.exists()


def eval_argv(toy_files, tmp_path, predictions: str, *extra: str) -> list[str]:
    """``eval`` of the toy dataset {duck: bird} against ``predictions``."""
    old, _new = toy_files
    dataset, preds = tmp_path / "ds.tsv", tmp_path / "preds.tsv"
    dataset.write_text("duck\tn\tbird\n")
    preds.write_text(predictions)
    return ["eval", "--old-taxonomy", str(old), "--dataset", str(dataset),
            "--predictions", str(preds), *extra]


def test_eval_scores_an_unknown_predicted_id_as_a_miss_at_its_rank(toy_files, tmp_path,
                                                                   capsys):
    argv = eval_argv(toy_files, tmp_path, "duck\t1\tNOPE.n.01\t0.9\nduck\t2\tbird\t0.5\n")
    assert cli.main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("MAP: 0.5000 over 1 words\n")
    assert captured.err == "warning: duck: unknown synset NOPE.n.01 scored as miss\n"


@pytest.mark.parametrize("lemma", ["duck\tdown", "duck\ndown", "duck\rdown"])
def test_build_dataset_refuses_a_word_no_reader_could_split_back(toy_files, tmp_path, lemma,
                                                                 capsys):
    """A JSON escape lets a lemma hold a tab or a line break, which no dataset line can
    carry: the command exits 2 naming the output and the word, and writes nothing."""
    old, _new = toy_files
    new = write_taxonomy_file(tmp_path / "tabbed.jsonl",
                              {**OLD_SPEC, "dd": ("n", [lemma], ["bird"])})
    out = tmp_path / "ds.tsv"
    assert cli.main(["build-dataset", "--old-taxonomy", str(old), "--new-taxonomy", str(new),
                     "--dataset", str(out)]) == 2
    assert f"{out}: {lemma!r}: a field holds a tab or a line break" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "new.jsonl", "old.jsonl", "old.jsonl.cache", "tabbed.jsonl", "tabbed.jsonl.cache"]


def test_build_dataset_refuses_a_gold_id_holding_a_tab(tmp_path, capsys):
    spec = {"animal": ("n", ["animal"], []), "bi\trd": ("n", ["bird"], ["animal"])}
    old = write_taxonomy_file(tmp_path / "old.jsonl", spec)
    new = write_taxonomy_file(tmp_path / "new.jsonl",
                              {**spec, "duck": ("n", ["duck"], ["bi\trd"])})
    out = tmp_path / "ds.tsv"
    assert cli.main(["build-dataset", "--old-taxonomy", str(old), "--new-taxonomy", str(new),
                     "--dataset", str(out)]) == 2
    assert f"{out}: 'duck': a field holds" in capsys.readouterr().err
    assert not out.exists()


def test_build_dataset_refuses_a_gold_id_holding_a_comma(tmp_path, capsys):
    """``read_dataset`` splits the gold column on commas, so an id holding one would read
    back as two ids: the command exits 2 naming the output and the word, and writes
    nothing."""
    spec = {"animal": ("n", ["animal"], []), "bird,x": ("n", ["bird"], ["animal"])}
    old = write_taxonomy_file(tmp_path / "old.jsonl", spec)
    new = write_taxonomy_file(tmp_path / "new.jsonl",
                              {**spec, "duck": ("n", ["duck"], ["bird,x"])})
    out = tmp_path / "ds.tsv"
    assert cli.main(["build-dataset", "--old-taxonomy", str(old), "--new-taxonomy", str(new),
                     "--dataset", str(out)]) == 2
    assert f"{out}: 'duck': a gold synset id holds a comma" in capsys.readouterr().err
    assert not out.exists() and not Path(f"{out}.stats.json").exists()


def test_train_refuses_pairs_no_reader_could_split_back(tmp_path, capsys):
    """``--pairs-out`` writes raw leaf lemmas: one holding a tab exits 2, and neither the
    pairs nor the model are written."""
    from conftest import write_embeddings_file
    taxonomy = write_taxonomy_file(tmp_path / "t.jsonl", {
        "A": ("n", ["animal"], []), "B": ("n", ["bird"], ["A"]),
        "L": ("n", ["duck\tdown"], ["B"])})
    vectors = write_embeddings_file(tmp_path / "v.vec", [
        ("animal", [1.0, 0.0]), ("bird", [0.9, 0.1]), ("duck_down", [0.8, 0.3])])
    model, pairs = tmp_path / "model.txt", tmp_path / "pairs.tsv"
    assert cli.main(["train", "--old-taxonomy", str(taxonomy), "--embeddings", str(vectors),
                     "--pos", "noun", "--model", str(model), "--pairs-out", str(pairs)]) == 2
    assert f"{pairs}: 'duck\\tdown': a field holds" in capsys.readouterr().err
    assert not model.exists() and not pairs.exists()


def test_predict_refuses_a_candidate_id_holding_a_tab(tmp_path, capsys):
    """A synset id reaches the predictions rows as it is: one holding a tab exits 2, and
    neither the predictions nor the sidecar are written."""
    from conftest import write_embeddings_file
    taxonomy = write_taxonomy_file(tmp_path / "t.jsonl", {
        "A": ("n", ["animal"], []), "bi\trd": ("n", ["bird"], ["A"]),
        "L": ("n", ["sparrow"], ["bi\trd"])})
    vectors = write_embeddings_file(tmp_path / "v.vec", [
        ("animal", [1.0, 0.0]), ("bird", [0.9, 0.1]), ("sparrow", [0.8, 0.3]),
        ("duck", [0.8, 0.31])])
    dataset = tmp_path / "ds.tsv"
    dataset.write_text("duck\tn\tA\n")
    out = tmp_path / "preds.tsv"
    assert cli.main(["predict", "--old-taxonomy", str(taxonomy), "--embeddings", str(vectors),
                     "--dataset", str(dataset), "--predictions", str(out)]) == 2
    assert f"{out}: 'duck': a field holds" in capsys.readouterr().err
    assert not out.exists() and not Path(f"{out}.oov.txt").exists()


@pytest.mark.parametrize("predictions", [
    "duck\tn\tzz\tbird\t0.5\n", "duck\tn\t0\tbird\t0.5\n", "duck\tn\t-1\tbird\t0.5\n",
    "duck\tn\t1.0\tbird\t0.5\n", "duck\tzz\tbird\t0.5\n", "duck\t0\tbird\t0.5\n",
    "duck\tn\t1\tbird\t0.5\nduck\tn\t\tbird\t0.4\n", "duck\tn\t 1_0\tbird\t0.5\n",
    "duck\tn\t1_0\tbird\t0.5\n", "duck\tn\t+1\tbird\t0.5\n", "duck\tn\t\u0661\tbird\t0.5\n"])
def test_eval_refuses_a_predictions_rank_that_is_not_an_integer_of_at_least_1(
        toy_files, tmp_path, predictions, capsys):
    assert cli.main(eval_argv(toy_files, tmp_path, predictions)) == 2
    line = predictions.count("\n")
    assert f"preds.tsv:{line}: expected word, " in capsys.readouterr().err


@pytest.mark.parametrize("predictions", [
    "duck\tn\t1\tbird\t0.5\textra\tmore\n", "duck\t1\tbird\t0.5\textra\tmore\n",
    "duck\tn\t1\tbird\t1e999\n", "duck\t1\tbird\t-1e999\n", "duck\tn\t1\tbird\tnan\n"])
def test_eval_refuses_a_predictions_line_of_extra_columns_or_a_non_finite_score(
        toy_files, tmp_path, predictions, capsys):
    assert cli.main(eval_argv(toy_files, tmp_path, predictions)) == 2
    assert "preds.tsv:1: expected word, " in capsys.readouterr().err


def test_eval_of_a_dataset_with_no_entries_exits_2_naming_it(toy_files, tmp_path, capsys):
    argv = eval_argv(toy_files, tmp_path, "duck\tn\t1\tbird\t0.5\n")
    (tmp_path / "ds.tsv").write_text("")
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"error: {tmp_path / 'ds.tsv'}: no entries to score\n"


@pytest.mark.parametrize("command", ["eval", "wiki-coverage"])
def test_an_unknown_gold_id_exits_2_naming_the_dataset_and_entry(planted, command, capsys):
    """Checked for every entry, also one that Wiktionary does not hold."""
    bad = planted["dir"] / "bad_dataset.tsv"
    bad.write_text("orph0_0\tn\tP0\ndog\tn\tZ,P1\n")
    preds = planted["dir"] / "preds.tsv"
    preds.write_text("orph0_0\tn\t1\tP0\t0.5\n")
    common = ["--old-taxonomy", str(planted["taxonomy"]), "--dataset", str(bad)]
    argv = {"eval": ["eval", *common, "--predictions", str(preds)],
            "wiki-coverage": ["wiki-coverage", *common, "--wiktionary", str(planted["wiki"])]}
    assert cli.main(argv[command]) == 2
    assert capsys.readouterr().err == f"error: {bad}: 'dog' (n): unknown gold synset id 'Z'\n"


def test_wiki_coverage_of_a_dataset_with_no_entries_exits_2_naming_it(planted, capsys):
    planted["dataset"].write_text("\n")
    out = planted["dir"] / "coverage.json"
    assert cli.main(["wiki-coverage", "--old-taxonomy", str(planted["taxonomy"]),
                     "--dataset", str(planted["dataset"]), "--wiktionary", str(planted["wiki"]),
                     "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {planted['dataset']}: no entries to score\n"
    assert not out.exists()


@pytest.mark.parametrize("command, led", [("predict", "dataset"), ("eval", "dataset"),
                                          ("eval", "predictions")])
def test_a_tsv_input_led_by_a_byte_order_mark_exits_2_naming_line_1(planted, command, led,
                                                                 capsys):
    """It would join the first word, which then names no entry: not a silent miss."""
    preds = planted["dir"] / "preds.tsv"
    preds.write_text("orph0_0\tn\t1\tP0\t0.5\n")
    bad = {"dataset": planted["dataset"], "predictions": preds}[led]
    bad.write_bytes(b"\xef\xbb\xbf" + bad.read_bytes())
    common = ["--old-taxonomy", str(planted["taxonomy"]), "--dataset", str(planted["dataset"])]
    out = planted["dir"] / "out"
    argv = {"predict": ["predict", "--method", "ranking", *common,
                        "--embeddings", str(planted["embeddings"]), "--predictions", str(out)],
            "eval": ["eval", *common, "--predictions", str(preds), "--out", str(out)]}
    assert cli.main(argv[command]) == 2
    assert capsys.readouterr().err == f"error: {bad}:1: starts with a byte-order mark (U+FEFF)\n"
    assert not out.exists()


def test_eval_reads_predictions_in_file_order_not_by_rank(toy_files, tmp_path, capsys):
    argv = eval_argv(toy_files, tmp_path, "duck\tn\t2\tanimal\t0.9\nduck\tn\t1\tbird\t0.5\n")
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.startswith("MAP: 0.5000 over 1 words\n")


@pytest.mark.parametrize("command", ["predict", "eval", "wiki-coverage"])
def test_an_empty_dataset_word_exits_2_naming_the_line(planted, command, capsys):
    bad = planted["dir"] / "bad_dataset.tsv"
    bad.write_text("orph0_0\tn\tP0\n\tn\tP0\n")
    preds = planted["dir"] / "preds.tsv"
    preds.write_text("orph0_0\tn\t1\tP0\t0.5\n")
    common = ["--old-taxonomy", str(planted["taxonomy"]), "--dataset", str(bad)]
    out = planted["dir"] / "out.tsv"
    argv = {"predict": ["predict", "--method", "ranking", *common,
                        "--embeddings", str(planted["embeddings"]), "--predictions", str(out)],
            "eval": ["eval", *common, "--predictions", str(preds)],
            "wiki-coverage": ["wiki-coverage", *common, "--wiktionary", str(planted["wiki"])]}
    assert cli.main(argv[command]) == 2
    assert "bad_dataset.tsv:2: empty word" in capsys.readouterr().err
    assert not out.exists() and not Path(f"{out}.oov.txt").exists()


@pytest.mark.parametrize("argv", [
    ["predict", "--k", "0"], ["eval", "--k", "0"], ["train", "--k", "-1"],
    ["train", "--negatives-per-positive", "0"], ["eval", "--k", "abc"],
])
def test_counts_below_1_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert f"argument {argv[1]}: " in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["build-dataset", "--min-length", "-1"], ["train", "--l2-lambda", "nan"],
    ["train", "--l2-lambda", "-1"], ["train", "--l2-lambda", "inf"], ["train", "--tol", "nan"],
    ["train", "--tol", "-1e-9"], ["train", "--max-iters", "-3"], ["train", "--max-iters", "0"],
])
def test_out_of_range_numbers_are_usage_errors(argv, tmp_path, capsys):
    """Each is rejected before any input is read, on the command line and in a config."""
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert f"argument {argv[1]}: " in capsys.readouterr().err
    config = tmp_path / "run.cfg"
    config.write_text(f"{argv[1][2:]} = {argv[2]}\n")
    with pytest.raises(SystemExit) as exc:
        cli.main([argv[0], "--config", str(config)])
    assert exc.value.code == 2
    assert f"error: {config}:1: argument {argv[1]}: " in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["build-dataset", "--min-length", "0"],
                                  ["train", "--l2-lambda", "0"], ["train", "--tol", "0"],
                                  ["train", "--max-iters", "1"]])
def test_numbers_at_their_bound_are_accepted(argv):
    parser, _ = cli.build_parser()
    assert parser.parse_args(argv) is not None


@pytest.mark.parametrize("setting", ["k = abc", "k = 0", "k = 2.5", "seed = x",
                                     "negatives_per_positive = 0", "l2_lambda = big"])
def test_malformed_config_value_exits_2_like_its_flag(toy_files, tmp_path, setting, capsys):
    config = tmp_path / "run.cfg"
    config.write_text(setting + "\n")
    command = "predict" if setting.startswith("seed") else "train"
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--config", str(config)])
    assert exc.value.code == 2
    assert f"argument --{setting.split()[0].replace('_', '-')}: " in capsys.readouterr().err


def test_config_value_is_converted_and_a_flag_still_wins(toy_files, tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("k = 1\ngroups = yes\n")
    argv = eval_argv(toy_files, tmp_path, "duck\t1\tanimal\t0.9\nduck\t2\tbird\t0.5\n",
                     "--config", str(config))
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert out.startswith("MAP: 0.0000 over 1 words\n")  # k = 1 scans only "animal"
    assert "share" in out  # groups = yes prints the breakdown
    assert cli.main([*argv, "--k", "2"]) == 0
    assert capsys.readouterr().out.startswith("MAP: 0.5000 over 1 words\n")


def test_config_reaches_store_true_and_output_options(toy_files, tmp_path):
    old, new = toy_files
    config = tmp_path / "run.cfg"
    stats = tmp_path / "stats.json"
    config.write_text(f"old_taxonomy = {old}\nnew_taxonomy = {new}\nrestricted = TRUE\n"
                      f"stats_out = {stats}\ndataset = {tmp_path / 'ds.tsv'}\n")
    assert cli.main(["build-dataset", "--config", str(config)]) == 0
    assert (tmp_path / "ds.tsv").read_text() == "duck\tn\tanimal,bird\n"
    assert json.loads(stats.read_text())["dataset"] == {"entries": 1, "restricted": True}
    config.write_text(f"old_taxonomy = {old}\nnew_taxonomy = {new}\nrestricted = no\n")
    assert cli.main(["build-dataset", "--config", str(config),
                     "--dataset", str(tmp_path / "all.tsv")]) == 0
    assert len((tmp_path / "all.tsv").read_text().splitlines()) == 2


def test_config_pos_and_method_are_checked_like_their_flags(toy_files, tmp_path, capsys):
    """A config value outside its flag's choices is a usage error at its config line,
    reported as argparse reports the flag, before any input is read."""
    old, new = toy_files
    config = tmp_path / "run.cfg"
    config.write_text("# choices\npos = adjective\nmethod = magic\n")
    for argv, line, flag, value in (
            (["build-dataset", "--old-taxonomy", str(old), "--new-taxonomy", str(new),
              "--dataset", str(tmp_path / "ds.tsv")], 2, "--pos", "adjective"),
            (["predict"], 3, "--method", "magic")):
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--config", str(config)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"error: {config}:{line}: argument {flag}: invalid choice: '{value}'" in err
    assert not (tmp_path / "ds.tsv").exists()


@pytest.mark.parametrize("value", ["on", "off", "", "2", "y"])
def test_config_switch_must_be_a_known_boolean(toy_files, tmp_path, value, capsys):
    old, new = toy_files
    config = tmp_path / "run.cfg"
    config.write_text(f"old_taxonomy = {old}\nnew_taxonomy = {new}\nrestricted = {value}\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["build-dataset", "--config", str(config), "--dataset", str(tmp_path / "ds.tsv")])
    assert exc.value.code == 2
    assert f"error: {config}:3: argument --restricted: " in capsys.readouterr().err
    assert not (tmp_path / "ds.tsv").exists()


@pytest.mark.parametrize("value, restricted", [("1", True), ("True", True), ("YES", True),
                                               ("0", False), ("False", False), ("nO", False)])
def test_config_switch_spellings(toy_files, tmp_path, value, restricted):
    old, new = toy_files
    config = tmp_path / "run.cfg"
    stats = tmp_path / "stats.json"
    config.write_text(f"old_taxonomy = {old}\nnew_taxonomy = {new}\nrestricted = {value}\n"
                      f"stats_out = {stats}\n")
    assert cli.main(["build-dataset", "--config", str(config),
                     "--dataset", str(tmp_path / "ds.tsv")]) == 0
    assert json.loads(stats.read_text())["dataset"]["restricted"] is restricted


@pytest.mark.parametrize("given", ["flag", "config", "directory"])
def test_an_empty_or_directory_input_path_exits_2(toy_files, tmp_path, given, capsys):
    """An empty path names no input (not the current directory), and a directory
    is no input file: both are input errors, from a flag or from a config."""
    _old, new = toy_files
    config = tmp_path / "run.cfg"
    config.write_text("old_taxonomy =\n")
    argv = {"flag": ["--old-taxonomy", ""], "config": ["--config", str(config)],
            "directory": ["--old-taxonomy", str(tmp_path)]}[given]
    assert cli.main(["report", "--new-taxonomy", str(new), *argv]) == 2
    assert capsys.readouterr().err == (f"error: old taxonomy is a directory: {tmp_path}\n"
                                       if given == "directory" else
                                       "error: missing required input: old taxonomy\n")


def test_a_rejected_config_value_names_its_file_and_line(tmp_path, capsys):
    config = tmp_path / "k.cfg"
    config.write_text("# scoring\n\nk = abc\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["eval", "--config", str(config)])
    assert exc.value.code == 2
    assert f"error: {config}:3: argument --k: invalid count value: 'abc'\n" in \
        capsys.readouterr().err


# ---------------------------------------------------------------------------
# The release-diff commands never load the vector side (numpy and the modules on it)
# ---------------------------------------------------------------------------

VECTOR_SIDE = ("numpy", "taxoenrich.embeddings", "taxoenrich.ranking", "taxoenrich.wiktionary")
LOADED = f"sorted(m for m in {VECTOR_SIDE!r} if m in sys.modules)"


def fresh_python(code: str, *args: str) -> str:
    """Standard output of ``code`` run with ``args`` in a new interpreter."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code, *args], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_importing_the_cli_loads_no_vector_module():
    assert fresh_python(f"import sys, taxoenrich.cli; print({LOADED})") == "[]\n"


@pytest.mark.parametrize("command", ["build-dataset", "report", "eval"])
def test_release_diff_commands_load_no_vector_module(toy_files, tmp_path, command):
    old, new = toy_files
    releases = ["--old-taxonomy", str(old), "--new-taxonomy", str(new)]
    argv = {"build-dataset": ["build-dataset", *releases, "--dataset", str(tmp_path / "out.tsv")],
            "report": ["report", *releases],
            "eval": eval_argv(toy_files, tmp_path, "duck\t1\tbird\t0.5\n")}[command]
    out = fresh_python(f"import sys; from taxoenrich import cli; rc = cli.main(sys.argv[1:]);"
                       f" print(rc, {LOADED})", *argv)
    assert out.splitlines()[-1] == "0 []"


NUMPY_SUBMODULES = "sorted(m for m in sys.modules if m.startswith('numpy.'))"


def test_train_and_predict_load_no_numpy_submodule_beyond_import_numpy(planted, tmp_path):
    """A command imports only what ``import numpy`` does (``np.unique``, say, would import
    ``numpy.ma`` on its first call, a cost that lands inside the command)."""
    loaded = fresh_python(f"import sys, numpy; print({NUMPY_SUBMODULES})").strip()
    model = tmp_path / "model.txt"
    inputs = ["--old-taxonomy", str(planted["taxonomy"]), "--embeddings",
              str(planted["embeddings"]), "--wiktionary", str(planted["wiki"]),
              "--model", str(model)]
    run = f"import sys; from taxoenrich import cli; rc = cli.main(sys.argv[1:]); " \
          f"print(rc, {NUMPY_SUBMODULES})"
    for argv in (["train", "--pos", "noun", *inputs],
                 ["predict", "--method", "ranking-wiki", *inputs, "--dataset",
                  str(planted["dataset"]), "--predictions", str(tmp_path / "preds.tsv")]):
        assert fresh_python(run, *argv).splitlines()[-1] == f"0 {loaded}", argv[0]


def test_train_and_predict_in_a_fresh_interpreter_write_the_library_outputs(planted, tmp_path):
    """train and predict load the vector side themselves, and write what the library's
    functions (pair sampling in ranking, the TSV writers in diachronic) produce."""
    from taxoenrich import diachronic, ranking
    from taxoenrich.embeddings import load_embeddings
    from taxoenrich.taxonomy import PartOfSpeech, load_taxonomy
    from taxoenrich.wiktionary import load_wiktionary
    model, pairs, preds = tmp_path / "model.txt", tmp_path / "pairs.tsv", tmp_path / "preds.tsv"
    inputs = ["--old-taxonomy", str(planted["taxonomy"]), "--embeddings",
              str(planted["embeddings"]), "--wiktionary", str(planted["wiki"])]
    run = "import sys; from taxoenrich import cli; sys.exit(cli.main(sys.argv[1:]))"
    fresh_python(run, "train", *inputs, "--pos", "noun", "--model", str(model),
                 "--pairs-out", str(pairs))
    fresh_python(run, "predict", "--method", "ranking-wiki", *inputs, "--model", str(model),
                 "--dataset", str(planted["dataset"]), "--predictions", str(preds))

    taxonomy, store = load_taxonomy(planted["taxonomy"]), load_embeddings(planted["embeddings"])
    wiki, lr = load_wiktionary(planted["wiki"]), ranking.load_model(model)
    diachronic.write_training_pairs(
        ranking.build_training_pairs(taxonomy, store, PartOfSpeech.NOUN)[0],
        tmp_path / "expected_pairs.tsv")
    diachronic.write_predictions(
        {(e.word, e.pos): ranking.rank_words([e.word], [e.pos], taxonomy, store, model=lr,
                                             wiktionary=wiki)[0]
         for e in diachronic.read_dataset(planted["dataset"])}, tmp_path / "expected_preds.tsv")
    assert pairs.read_bytes() == (tmp_path / "expected_pairs.tsv").read_bytes()
    assert preds.read_bytes() == (tmp_path / "expected_preds.tsv").read_bytes()


@contextmanager
def fed_fifos(tmp_path, sources):
    """A FIFO per source file, into which a thread writes the file's bytes once a reader
    opens it, as a shell's ``<(cat file)`` does; a writer no reader opened stops when the
    block ends."""
    stop = threading.Event()

    def feed(fifo, data):
        while not stop.is_set():
            try:
                fd = os.open(fifo, os.O_WRONLY | os.O_NONBLOCK)
            except OSError as exc:
                if exc.errno != errno.ENXIO:  # ENXIO: no reader yet
                    raise
                time.sleep(0.005)
                continue
            os.set_blocking(fd, True)
            with open(fd, "wb") as fh:
                fh.write(data)
            return

    fifos = [tmp_path / f"fifo{i}" for i in range(len(sources))]
    threads = []
    for fifo, source in zip(fifos, sources):
        os.mkfifo(fifo)
        threads.append(threading.Thread(target=feed, args=(fifo, Path(source).read_bytes()),
                                        daemon=True))
        threads[-1].start()
    try:
        yield fifos
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()


def test_predict_refuses_embeddings_that_are_not_a_regular_file(planted, tmp_path, capsys):
    """The vector loader reads its source twice (the sidecar key, then the parse), so a
    pipe is an input error naming it, before any of it is read."""
    out = tmp_path / "preds.tsv"
    with fed_fifos(tmp_path, [planted["embeddings"]]) as (fifo,):
        assert cli.main(["predict", "--method", "ranking",
                         "--old-taxonomy", str(planted["taxonomy"]), "--embeddings", str(fifo),
                         "--dataset", str(planted["dataset"]), "--predictions", str(out)]) == 2
    assert f"error: {fifo}: not a regular file" in capsys.readouterr().err
    assert not out.exists() and not list(tmp_path.glob("fifo*.cache"))


def test_report_reads_both_taxonomies_through_pipes_and_keeps_no_sidecar(toy_files, tmp_path):
    """A source that is not a regular file is parsed in one pass, as it reads only once."""
    old, new = toy_files
    want, got = tmp_path / "want.json", tmp_path / "got.json"
    with fed_fifos(tmp_path, [old, new]) as (old_fifo, new_fifo):
        assert cli.main(["report", "--old-taxonomy", str(old_fifo),
                         "--new-taxonomy", str(new_fifo), "--out", str(got)]) == 0
    assert not list(tmp_path.glob("fifo*.cache"))
    assert cli.main(["report", "--old-taxonomy", str(old), "--new-taxonomy", str(new),
                     "--out", str(want)]) == 0
    assert got.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("bad_edge, message", [
    ({"ooh": ("n", ["ooh"], ["ooh"])}, "self-loop edge on synset 'ooh'"),
    ({"ooh": ("n", ["ooh"], ["owl"])}, "dangling hypernym edge 'ooh' -> 'owl'"),
    ({"animal": ("n", ["animal"], ["duck"])}, "hypernym graph contains a cycle involving: "
                                              "['animal', 'bird', 'duck']")])
def test_report_names_the_release_that_holds_a_graph_error(toy_files, tmp_path, capsys,
                                                           bad_edge, message):
    old, _ = toy_files
    new = write_taxonomy_file(tmp_path / "bad.jsonl", {**NEW_SPEC, **bad_edge})
    assert cli.main(["report", "--old-taxonomy", str(old), "--new-taxonomy", str(new)]) == 2
    assert capsys.readouterr().err == f"error: {new}: {message}\n"


@pytest.mark.parametrize("filler", [0, 400])  # 400 records: past the first 8 KiB read
def test_invalid_utf8_read_through_a_pipe_exits_2_naming_the_last_line_read(toy_files, tmp_path,
                                                                          capsys, filler):
    """A pipe cannot be read again to find the line that holds the bytes: the error names
    the last line read before them."""
    old, new = toy_files
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(old.read_bytes() + b"".join(
        b'{"id": "F%d", "pos": "n", "lemmas": ["f"]}\r\n' % i for i in range(filler))
        + b'{"id": "Z", "pos": "n", "lemmas": ["a\xff"]}\n')
    out = tmp_path / "stats.json"
    with fed_fifos(tmp_path, [bad, new]) as (bad_fifo, new_fifo):
        assert cli.main(["report", "--old-taxonomy", str(bad_fifo),
                         "--new-taxonomy", str(new_fifo), "--out", str(out)]) == 2
    lines = len(bad.read_bytes().splitlines()) - 1
    assert capsys.readouterr().err == f"error: {bad_fifo}: invalid UTF-8 after line {lines}\n"
    assert not out.exists() and not list(tmp_path.glob("*.cache"))


@pytest.mark.parametrize("command", ["build-dataset", "eval"])
def test_a_config_key_of_no_command_is_a_usage_error_at_its_line(toy_files, tmp_path,
                                                                 capsys, command):
    """A misspelt key would leave its option's default in force with exit 0; keys of
    other commands (``seed`` here, which neither reads) are still allowed."""
    old, new = toy_files
    config = tmp_path / "run.cfg"
    config.write_text("# settings\nseed = 3\nmin_lenght = 7\n")
    argv = {"build-dataset": ["build-dataset", "--old-taxonomy", str(old),
                              "--new-taxonomy", str(new), "--dataset", str(tmp_path / "ds.tsv")],
            "eval": eval_argv(toy_files, tmp_path, "duck\t1\tbird\t0.5\n")}[command]
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--config", str(config)])
    assert exc.value.code == 2
    assert f"error: {config}:3: unknown key 'min_lenght'\n" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.cache"))  # refused before any input is read
    config.write_text("seed = 3\nmin_length = 7\n")
    assert cli.main([*argv, "--config", str(config)]) == 0


# each command with each of its outputs in a directory that does not exist, by option
OUTPUTS = [("build-dataset", "--dataset"), ("build-dataset", "--stats-out"),
           ("train", "--model"), ("train", "--pairs-out"), ("predict", "--predictions"),
           ("eval", "--out"), ("report", "--out"), ("wiki-coverage", "--out")]


def output_argv(planted, tmp_path, command) -> list[str]:
    """``command`` reading the planted inputs, and writing its required outputs into
    ``tmp_path``."""
    taxonomy, dataset = str(planted["taxonomy"]), str(planted["dataset"])
    preds = tmp_path / "preds.tsv"
    preds.write_text("")
    reads = {"build-dataset": ["--old-taxonomy", taxonomy, "--new-taxonomy", taxonomy],
             "train": ["--old-taxonomy", taxonomy, "--embeddings", str(planted["embeddings"]),
                       "--pos", "noun"],
             "predict": ["--old-taxonomy", taxonomy, "--embeddings", str(planted["embeddings"]),
                         "--dataset", dataset],
             "eval": ["--old-taxonomy", taxonomy, "--dataset", dataset,
                      "--predictions", str(preds)],
             "report": ["--old-taxonomy", taxonomy, "--new-taxonomy", taxonomy],
             "wiki-coverage": ["--old-taxonomy", taxonomy, "--dataset", dataset,
                               "--wiktionary", str(planted["wiki"])]}[command]
    writes = {"build-dataset": ["--dataset", str(tmp_path / "ds.tsv")],
              "train": ["--model", str(tmp_path / "model.txt")],
              "predict": ["--predictions", str(tmp_path / "out.tsv")]}.get(command, [])
    return [command, *reads, *writes]


@pytest.mark.parametrize("command, option", OUTPUTS)
def test_an_output_with_no_directory_exits_2_before_any_input_is_read(planted, tmp_path,
                                                                      capsys, command, option):
    """The error names the output, and nothing is written: no other output, temporary file
    or input sidecar."""
    bad, argv = tmp_path / "missing" / "out.json", output_argv(planted, tmp_path, command)
    before = sorted(tmp_path.iterdir())
    assert cli.main([*argv, option, str(bad)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: cannot write {option} {bad}: no directory {bad.parent}\n"
    assert sorted(tmp_path.iterdir()) == before


# each command with an output whose path is a directory: (command, further options, the
# option named, the directory). A default stats file and the predictions' sidecar are named
# from the dataset and the predictions; train would write --pairs-out first.
DIRECTORY_OUTPUTS = [
    ("build-dataset", ["--stats-out", "adir"], "--stats-out", "adir"),
    ("build-dataset", [], "--stats-out", "ds.tsv.stats.json"),
    ("train", ["--model", "adir", "--pairs-out", "pairs.tsv"], "--model", "adir"),
    ("predict", [], "--predictions", "out.tsv.oov.txt"),
    ("predict", ["--predictions", "adir"], "--predictions", "adir"),
]


@pytest.mark.parametrize("command, options, option, directory", DIRECTORY_OUTPUTS)
def test_an_output_that_is_a_directory_exits_2_before_any_input_is_read(
        planted, tmp_path, capsys, command, options, option, directory):
    """Refused with the option named, as for a missing directory, and nothing is written: no
    other output, temporary file or input sidecar."""
    argv = output_argv(planted, tmp_path, command)
    argv += [str(tmp_path / value) if value in ("adir", "pairs.tsv") else value
             for value in options]
    (tmp_path / directory).mkdir()
    before = sorted(tmp_path.iterdir())
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == \
        f"error: cannot write {option} {tmp_path / directory}: it is a directory\n"
    assert sorted(tmp_path.iterdir()) == before and not any((tmp_path / directory).iterdir())
