import json
from pathlib import Path

import pytest

from taxoenrich import cli

from conftest import build_planted_fixture, write_taxonomy_file

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
        assert set(data) == {"map", "per_group", "histogram", "per_word_ap"}

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


class TestSearchOncePerRun:
    """Neighbors come from one batched search per command, and training
    builds each word's candidate pool once."""

    @pytest.fixture
    def counted(self, monkeypatch):
        from taxoenrich import ranking
        calls = {"batch": 0, "pools": []}
        batch, extended = ranking.batch_nearest_neighbors, ranking.candidates_extended

        def counting_batch(*args, **kwargs):
            calls["batch"] += 1
            return batch(*args, **kwargs)

        def counting_extended(word, taxonomy, embeddings, pos, *args, **kwargs):
            calls["pools"].append((word, pos))
            return extended(word, taxonomy, embeddings, pos, *args, **kwargs)

        def no_single_search(*args, **kwargs):
            raise AssertionError("per-word neighbor search")

        monkeypatch.setattr(ranking, "batch_nearest_neighbors", counting_batch)
        monkeypatch.setattr(ranking, "candidates_extended", counting_extended)
        monkeypatch.setattr(ranking, "nearest_neighbors", no_single_search)
        return calls

    def test_train_builds_each_pool_once(self, planted, counted):
        rc = cli.main(["train", "--old-taxonomy", str(planted["taxonomy"]),
                       "--embeddings", str(planted["embeddings"]),
                       "--wiktionary", str(planted["wiki"]), "--pos", "noun",
                       "--model", str(planted["dir"] / "model.txt")])
        assert rc == 0
        assert counted["batch"] == 1
        assert counted["pools"]
        assert len(counted["pools"]) == len(set(counted["pools"]))

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

    @pytest.mark.parametrize("name, text", [
        ("old_taxonomy", "{not json\n"),
        ("wiktionary", '{"nope": 1}\n'),
        ("dataset", "orph0_0\tn\n"),
        ("dataset", "orph0_0\tx\tP0\n"),
        ("model", "lr-model v1\n0.0\n0 0 0 0 1\n0 0 0 0 0\n1 1 1 1 1\n"),
        ("model", "lr-model v1\n0.0\nnan 0 0 0 1 0\n0 0 0 0 0\n1 1 1 1 1\n"),
        ("model", "lr-model v1\n0.0\n0 0 0 0 1 0\n0 0 0 0 0\n1 1 -1 1 1\n"),
        ("model", "lr-model v1\n0.0\n0 0 0 0 one 0\n0 0 0 0 0\n1 1 1 1 1\n"),
    ])
    def test_malformed_input_exits_2(self, planted, name, text):
        assert self.predict(planted, **{name: text}) == 2

    def test_malformed_predictions_exit_2(self, planted):
        bad = planted["dir"] / "bad_preds.tsv"
        bad.write_text("orph0_0\t1\tP0\n")
        assert cli.main(["eval", "--old-taxonomy", str(planted["taxonomy"]),
                         "--dataset", str(planted["dataset"]),
                         "--predictions", str(bad)]) == 2

    def test_no_training_pairs_exits_1(self, tmp_path):
        from conftest import write_embeddings_file
        taxonomy = write_taxonomy_file(tmp_path / "t.jsonl",
                                       {"A": ("n", ["a"], []), "B": ("n", ["b"], ["A"])})
        vectors = write_embeddings_file(tmp_path / "v.vec", [("zzz", [1.0, 0.0])])
        assert cli.main(["train", "--old-taxonomy", str(taxonomy),
                         "--embeddings", str(vectors), "--pos", "noun",
                         "--model", str(tmp_path / "model.txt")]) == 1
