import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from taxoenrich import cli

from conftest import WRONGLY_TYPED, build_planted_fixture, write_taxonomy_file

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

    def test_wiki_coverage_wrongly_typed_word_exits_2(self, planted, capsys):
        planted["wiki"].write_text('{"word": 5}\n')
        rc = cli.main(["wiki-coverage", "--old-taxonomy", str(planted["taxonomy"]),
                       "--dataset", str(planted["dataset"]),
                       "--wiktionary", str(planted["wiki"])])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {planted['wiki']}:1: malformed entry: 'word' must be a string, got 5\n")

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

    def test_train_scores_a_cross_pos_hypernym_from_the_word_pool(self, tmp_path, counted,
                                                                   monkeypatch):
        """A noun whose hypernym is a verb is featurized from its own noun pool, as
        predict would score it, not from a verb pool searched for once per word."""
        from taxoenrich import ranking
        from taxoenrich.diachronic import read_training_pairs
        from taxoenrich.embeddings import load_embeddings
        from taxoenrich.taxonomy import PartOfSpeech, load_taxonomy
        from taxoenrich.wiktionary import WiktionaryStore
        from conftest import write_embeddings_file
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
        pairs_out = tmp_path / "pairs.tsv"
        assert cli.main(["train", "--old-taxonomy", str(taxonomy_path),
                         "--embeddings", str(vectors), "--pos", "noun",
                         "--model", str(tmp_path / "model.txt"),
                         "--pairs-out", str(pairs_out)]) == 0
        assert counted["batch"] == 1
        row = [(p.word, p.candidate) for p in read_training_pairs(pairs_out)].index(("wx", "V"))
        taxonomy, store = load_taxonomy(taxonomy_path), load_embeddings(vectors)
        neighbors = ranking.word_neighbors(["wx"], store, 10)[0]
        pool = ranking.candidates_extended("wx", taxonomy, store, PartOfSpeech.NOUN,
                                           neighbors=neighbors)
        expected = ranking.feature_matrix("wx", ["V"], pool, taxonomy, store, WiktionaryStore())
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

    @pytest.mark.parametrize("record", WRONGLY_TYPED)
    def test_wrongly_typed_taxonomy_field_exits_2_naming_the_line(self, toy_files, record,
                                                                  capsys):
        old, new = toy_files
        with old.open("a") as fh:
            fh.write(json.dumps(record) + "\n")
        assert cli.main(["report", "--old-taxonomy", str(old), "--new-taxonomy", str(new)]) == 2
        assert f"old.jsonl:{len(OLD_SPEC) + 1}: " in capsys.readouterr().err

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


@pytest.mark.parametrize("argv", [
    ["predict", "--k", "0"], ["eval", "--k", "0"], ["train", "--k", "-1"],
    ["train", "--negatives-per-positive", "0"], ["eval", "--k", "abc"],
])
def test_counts_below_1_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert f"argument {argv[1]}: " in capsys.readouterr().err


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
    old, new = toy_files
    config = tmp_path / "run.cfg"
    config.write_text("pos = adjective\nmethod = magic\n")
    assert cli.main(["build-dataset", "--config", str(config), "--old-taxonomy", str(old),
                     "--new-taxonomy", str(new), "--dataset", str(tmp_path / "ds.tsv")]) == 2
    assert cli.main(["predict", "--config", str(config)]) == 2
    assert capsys.readouterr().err == ("error: unsupported part of speech: 'adjective'\n"
                                       "error: unknown method: magic\n")


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
        {e.word: ranking.rank_with_model(e.word, lr, taxonomy, store, wiki, e.pos)
         for e in diachronic.read_dataset(planted["dataset"])}, tmp_path / "expected_preds.tsv")
    assert pairs.read_bytes() == (tmp_path / "expected_pairs.tsv").read_bytes()
    assert preds.read_bytes() == (tmp_path / "expected_preds.tsv").read_bytes()
