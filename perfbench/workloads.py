"""The benchmark's workloads: input shape, command sequence and what each
command loads before it handles its first word.

Paths in commands and loads are templates: ``{in}`` is the generated-input
directory and ``{out}`` the directory the commands write to.
"""

from __future__ import annotations

from dataclasses import dataclass

from generate import Spec


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    spec: Spec
    commands: tuple[tuple[str, ...], ...]
    # per command, the (loader, path) calls it makes before its first word,
    # in the order the command makes them
    loads: tuple[tuple[tuple[str, str], ...], ...]
    main: int                 # index of the command `words_per_s` is taken from
    words: str                # "dataset" entries or noun "training" words
    # whether the main command's loads are set-up, not the per-word work:
    # false for a release diff, whose work is reading the two releases
    rate_excludes_loads: bool
    map_floor: float          # lowest `map` (from {out}/report.json) the planted structure allows
    predictions: str | None   # predictions file whose entries are checked
    outputs: tuple[str, ...]  # files whose sha256 must repeat across rounds


OLD = ("load_taxonomy", "{in}/old.jsonl")
NEW = ("load_taxonomy", "{in}/new.jsonl")
VEC = ("load_embeddings", "{in}/vectors.vec")
DATASET = ("read_dataset", "{in}/dataset.tsv")
WIKI = ("load_wiktionary", "{in}/wiki.jsonl")


def predict(method: str, k: int, model: str = "") -> tuple[str, ...]:
    args = ("predict", "--method", method, "--k", str(k),
            "--old-taxonomy", "{in}/old.jsonl", "--embeddings", "{in}/vectors.vec",
            "--dataset", "{in}/dataset.tsv", "--predictions", "{out}/predictions.tsv")
    if model:
        args += ("--model", model, "--wiktionary", "{in}/wiki.jsonl")
    return args


def evaluate(k: int, dataset: str = "{in}/dataset.tsv",
             predictions: str = "{out}/predictions.tsv") -> tuple[str, ...]:
    return ("eval", "--k", str(k), "--old-taxonomy", "{in}/old.jsonl",
            "--dataset", dataset, "--predictions", predictions,
            "--out", "{out}/report.json")


PREDICT_OUTPUTS = ("predictions.tsv", "predictions.tsv.oov.txt", "report.json")

WORKLOADS = {w.name: w for w in (
    Workload(
        name="predict-bigvocab",
        why="embedding load and exact kNN over a 300-d search matrix far beyond "
            "L2; mixed noun/verb orphans with homographs",
        spec=Spec(nouns=3800, verbs=1200, dim=300, vocab=9000, orphans=1000,
                  homograph_share=0.1),
        commands=(predict("ranking", 10), evaluate(10)),
        loads=((OLD, VEC, DATASET), (OLD, DATASET)),
        main=0, words="dataset", rate_excludes_loads=True, map_floor=0.5,
        predictions="predictions.tsv", outputs=PREDICT_OUTPUTS),
    Workload(
        name="rank-wiki-polysemous",
        why="per-candidate features and LR scoring; polysemous lemmas widen "
            "pools, Wiktionary for 90% of words, kNN matrix near L2 size",
        spec=Spec(nouns=3000, verbs=0, dim=100, vocab=5000, orphans=500,
                  polysemy=0.4, wiki_coverage=0.9, model=True),
        commands=(predict("ranking-wiki", 20, "{in}/model.txt"), evaluate(20)),
        loads=((OLD, VEC, DATASET, ("load_model", "{in}/model.txt"), WIKI),
               (OLD, DATASET)),
        main=0, words="dataset", rate_excludes_loads=True, map_floor=0.4,
        predictions="predictions.tsv", outputs=PREDICT_OUTPUTS),
    Workload(
        name="train-leaves",
        why="the write side: pools and features for every noun leaf lemma, "
            "out-of-pool features and the LR fit, then a held-out predict",
        spec=Spec(nouns=1000, verbs=0, dim=100, vocab=6000, orphans=400,
                  polysemy=0.2, wiki_coverage=0.9),
        commands=(("train", "--pos", "noun", "--k", "20", "--old-taxonomy", "{in}/old.jsonl",
                   "--embeddings", "{in}/vectors.vec", "--wiktionary", "{in}/wiki.jsonl",
                   "--model", "{out}/model.txt"),
                  predict("ranking-wiki", 20, "{out}/model.txt"), evaluate(20)),
        loads=((OLD, VEC, WIKI),
               (OLD, VEC, DATASET, ("load_model", "{out}/model.txt"), WIKI),
               (OLD, DATASET)),
        main=0, words="training", rate_excludes_loads=True, map_floor=0.4,
        predictions="predictions.tsv", outputs=("model.txt",) + PREDICT_OUTPUTS),
    Workload(
        name="taxonomy-diff",
        why="release diff with no embeddings: taxonomy load, orphan "
            "extraction, statistics and eval; embedding changes must not move it",
        spec=Spec(nouns=16000, verbs=3000, dim=8, vocab=0, orphans=3000,
                  homograph_share=0.1, new_taxonomy=True, predictions=True,
                  embeddings=False),
        commands=(("build-dataset", "--pos", "both", "--old-taxonomy", "{in}/old.jsonl",
                   "--new-taxonomy", "{in}/new.jsonl", "--dataset", "{out}/dataset.tsv"),
                  ("report", "--old-taxonomy", "{in}/old.jsonl",
                   "--new-taxonomy", "{in}/new.jsonl", "--out", "{out}/stats.json"),
                  evaluate(10, dataset="{out}/dataset.tsv",
                           predictions="{in}/predictions.tsv")),
        loads=((OLD, NEW), (OLD, NEW), (OLD, ("read_dataset", "{out}/dataset.tsv"))),
        main=0, words="dataset", rate_excludes_loads=False, map_floor=0.3,
        predictions=None,
        outputs=("dataset.tsv", "dataset.tsv.stats.json", "stats.json", "report.json")),
)}
