"""Command-line interface.

Subcommands: build-dataset, train, predict, eval, report, wiki-coverage.
Values come from flags, then a key=value config file (--config), then
defaults. Outputs are written atomically (temp file + rename). Exit codes:
0 success, 1 runtime failure, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import diachronic, evaluation, ranking, wiktionary
from .diachronic import DatasetRestrictions
from .embeddings import load_embeddings
from .fileio import InputError, atomic_write_text
from .taxonomy import PartOfSpeech, load_taxonomy

DEFAULTS = {
    "k": 10,
    "seed": 0,
    "l2_lambda": 1e-4,
    "max_iters": 1000,
    "tol": 1e-8,
    "negatives_per_positive": 1,
    "min_length": 0,
    "pos": "both",
    "method": "ranking",
}


def read_config(path: str) -> dict:
    """Parse a key=value config file; '#' starts a comment."""
    config = {}
    p = Path(path)
    if not p.exists():
        raise InputError(f"config file not found: {path}")
    for lineno, line in enumerate(p.read_text(encoding="utf-8").splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (s.strip() for s in line.split("=", 1))
        config[key.replace("-", "_")] = value
    return config


def resolve(args: argparse.Namespace, key: str, cast=None):
    """Option precedence: command-line flag > config file > default."""
    value = getattr(args, key, None)
    if value is None:
        value = getattr(args, "_config", {}).get(key)
        if value is None:
            value = DEFAULTS.get(key)
        elif cast in (int, float):
            value = cast(value)
        elif cast is bool:
            value = value.lower() in ("1", "true", "yes")
    return value


def require_path(value, what: str) -> Path:
    if value is None:
        raise InputError(f"missing required input: {what}")
    path = Path(value)
    if not path.exists():
        raise InputError(f"{what} not found: {path}")
    return path


def atomic_write_json(path: str | Path, obj) -> None:
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False) + "\n")


def parse_pos_list(value: str) -> list[PartOfSpeech]:
    if value == "both":
        return [PartOfSpeech.NOUN, PartOfSpeech.VERB]
    return [PartOfSpeech.parse(value)]


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_build_dataset(args) -> int:
    old = load_taxonomy(require_path(resolve(args, "old_taxonomy"), "old taxonomy"))
    new = load_taxonomy(require_path(resolve(args, "new_taxonomy"), "new taxonomy"))
    min_length = resolve(args, "min_length", int)
    exclude_ne = bool(resolve(args, "exclude_named_entities", bool))
    exclude_mw = bool(resolve(args, "exclude_multiword", bool))
    if args.restricted:
        min_length = max(min_length, 4)
        exclude_ne = True
    restrictions = DatasetRestrictions(min_length=min_length,
                                       exclude_named_entities=exclude_ne,
                                       exclude_multiword=exclude_mw)
    entries = []
    for pos in parse_pos_list(resolve(args, "pos")):
        entries.extend(diachronic.build_dataset(old, new, pos, restrictions))
    out = Path(resolve(args, "dataset") or "dataset.tsv")
    diachronic.write_dataset(entries, out)

    stats = diachronic.dataset_statistics(old, new)
    stats["dataset"] = {"entries": len(entries), "restricted": args.restricted}
    stats_out = args.stats_out or str(out) + ".stats.json"
    atomic_write_json(stats_out, stats)
    print(f"{'':10s}{'synsets(n)':>11s}{'synsets(v)':>11s}{'lemmas(n)':>10s}{'lemmas(v)':>10s}")
    for name in ("old", "new"):
        c = stats[name]
        print(f"{name:10s}{c['synsets']['n']:>11d}{c['synsets']['v']:>11d}"
              f"{c['lemmas']['n']:>10d}{c['lemmas']['v']:>10d}")
    print(f"new words: nouns={stats['new_words']['n']} verbs={stats['new_words']['v']}")
    print(f"wrote {len(entries)} entries to {out}")
    return 0


def _load_wiktionary_or_empty(args):
    path = resolve(args, "wiktionary")
    if path is None:
        return wiktionary.WiktionaryStore()
    return wiktionary.load_wiktionary(require_path(path, "wiktionary"))


def cmd_train(args) -> int:
    old = load_taxonomy(require_path(resolve(args, "old_taxonomy"), "old taxonomy"))
    store = load_embeddings(require_path(resolve(args, "embeddings"), "embeddings"))
    wiki = _load_wiktionary_or_empty(args)
    k = resolve(args, "k", int)
    pairs = []
    summary_total = {"positives": 0, "negatives": 0, "skipped_oov_lemmas": 0}
    pools: dict[tuple[str, PartOfSpeech], dict] = {}
    for pos in parse_pos_list(resolve(args, "pos")):
        pos_pairs, summary = diachronic.build_training_pairs(
            old, store, pos,
            negatives_per_positive=resolve(args, "negatives_per_positive", int),
            seed=resolve(args, "seed", int), k=k, pools=pools)
        pairs.extend(pos_pairs)
        for key in summary_total:
            summary_total[key] += summary[key]
    if not pairs:
        print("error: no training pairs could be built", file=sys.stderr)
        return 1

    groups: dict[tuple[str, PartOfSpeech], list[int]] = {}
    for i, pair in enumerate(pairs):
        groups.setdefault((pair.word, old.synset(pair.candidate).pos), []).append(i)
    X = np.zeros((len(pairs), ranking.N_FEATURES))
    for key, rows in groups.items():
        if key not in pools:  # a hypernym of another part of speech than the word's
            pools[key] = ranking.candidates_extended(key[0], old, store, key[1], k=k)
        X[rows] = ranking.feature_matrix(key[0], [pairs[i].candidate for i in rows],
                                         pools[key], old, store, wiki)
    y = np.array([pair.label for pair in pairs], dtype=np.float64)

    model = ranking.train_lr(X, y,
                             l2_lambda=resolve(args, "l2_lambda", float),
                             max_iters=resolve(args, "max_iters", int),
                             tol=resolve(args, "tol", float))
    out = Path(resolve(args, "model") or "model.txt")
    ranking.save_model(model, out)
    if args.pairs_out:
        diachronic.write_training_pairs(pairs, args.pairs_out)
    print(f"pairs: {summary_total['positives']} positive, {summary_total['negatives']} negative"
          f" (skipped {summary_total['skipped_oov_lemmas']} OOV lemmas)")
    print(f"final loss {model.final_loss:.6f}, gradient inf-norm {model.final_grad_norm:.3e},"
          f" {model.n_iters} iterations")
    print(f"wrote model to {out}")
    return 0


def cmd_predict(args) -> int:
    method = resolve(args, "method")
    if method not in ("baseline", "ranking", "ranking-wiki"):
        raise InputError(f"unknown method: {method}")
    taxonomy = load_taxonomy(require_path(resolve(args, "old_taxonomy"), "taxonomy"))
    store = load_embeddings(require_path(resolve(args, "embeddings"), "embeddings"))
    dataset = diachronic.read_dataset(require_path(resolve(args, "dataset"), "dataset"))
    k = resolve(args, "k", int)
    model = None
    wiki = wiktionary.WiktionaryStore()
    if method == "ranking-wiki":
        model = ranking.load_model(require_path(resolve(args, "model"), "model"))
        wiki = _load_wiktionary_or_empty(args)
    predictions: dict[str, list[ranking.ScoredCandidate]] = {}
    oov: list[str] = []
    all_neighbors = ranking.word_neighbors([entry.word for entry in dataset], store, k)
    for entry, neighbors in zip(dataset, all_neighbors):
        if neighbors is None:
            oov.append(entry.word)
            continue
        if method == "baseline":
            ranked = ranking.candidates_baseline(entry.word, taxonomy, store,
                                                 entry.pos, k=k, neighbors=neighbors)
        elif method == "ranking":
            pool = ranking.candidates_extended(entry.word, taxonomy, store,
                                               entry.pos, k=k, neighbors=neighbors)
            ranked = ranking.rank_by_score(entry.word, pool, taxonomy, store, k=k)
        else:
            ranked = ranking.rank_with_model(entry.word, model, taxonomy, store,
                                             wiki, entry.pos, k=k, neighbors=neighbors)
        predictions[entry.word] = ranked
    out = Path(resolve(args, "predictions") or "predictions.tsv")
    ranking.write_predictions(predictions, out, explain=args.explain)
    sidecar = Path(str(out) + ".oov.txt")
    atomic_write_text(sidecar, "".join(w + "\n" for w in sorted(oov)))
    print(f"predicted {len(predictions)} words ({len(oov)} OOV, listed in {sidecar})")
    return 0


def cmd_eval(args) -> int:
    taxonomy = load_taxonomy(require_path(resolve(args, "old_taxonomy"), "taxonomy"))
    dataset = diachronic.read_dataset(require_path(resolve(args, "dataset"), "dataset"))
    preds_path = require_path(resolve(args, "predictions"), "predictions")
    raw = ranking.read_predictions(preds_path)
    predictions = {}
    for word, ranked in raw.items():
        kept = []
        for sid, _score in ranked:
            if sid in taxonomy:
                kept.append(sid)
            else:
                print(f"warning: {word}: unknown synset {sid} scored as miss",
                      file=sys.stderr)
        predictions[word] = kept
    k = resolve(args, "k", int)
    results = evaluation.evaluate_predictions(dataset, taxonomy, predictions, limit=k)
    report = {
        "map": evaluation.map_score(results),
        "per_group": evaluation.group_breakdown(results),
        "histogram": {str(n): bucket for n, bucket in
                      evaluation.sense_distribution(dataset, taxonomy, results).items()},
        "per_word_ap": {r.word: r.ap for r in results},
    }
    if args.out:
        atomic_write_json(args.out, report)
    print(f"MAP: {report['map']:.4f} over {len(results)} words")
    if args.groups:
        print(f"{'group':15s}{'MAP':>8s}{'share':>8s}")
        for label in ("named_entity", "short", "other"):
            if label in report["per_group"]:
                g = report["per_group"][label]
                print(f"{label:15s}{g['map']:>8.4f}{g['share_pct']:>7.1f}%")
    return 0


def cmd_report(args) -> int:
    old = load_taxonomy(require_path(resolve(args, "old_taxonomy"), "old taxonomy"))
    new = load_taxonomy(require_path(resolve(args, "new_taxonomy"), "new taxonomy"))
    stats = diachronic.dataset_statistics(old, new)
    if args.out:
        atomic_write_json(args.out, stats)
    print(json.dumps(stats, indent=2, sort_keys=True))
    return 0


def cmd_wiki_coverage(args) -> int:
    taxonomy = load_taxonomy(require_path(resolve(args, "old_taxonomy"), "taxonomy"))
    dataset = diachronic.read_dataset(require_path(resolve(args, "dataset"), "dataset"))
    store = wiktionary.load_wiktionary(require_path(resolve(args, "wiktionary"),
                                                    "wiktionary"))
    report = wiktionary.coverage_report(store, dataset, taxonomy)
    if args.out:
        atomic_write_json(args.out, report)
    print(f"orphans: {report['orphans']}")
    print(f"present in Wiktionary: {report['present_pct']:.1f}%")
    print(f"gold lemma in hypernyms: {report['gold_in_hypernyms_pct']:.1f}%")
    print(f"gold lemma in synonyms: {report['gold_in_synonyms_pct']:.1f}%")
    print(f"gold lemma in definition: {report['gold_in_definition_pct']:.1f}%")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key=value config file; flags override it")
    common.add_argument("--seed", type=int, help="random seed (default 0)")
    common.add_argument("--k", type=int, help="number of neighbors/candidates (default 10)")

    parser = argparse.ArgumentParser(prog="taxoenrich",
                                     description="Taxonomy enrichment toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-dataset", parents=[common],
                       help="diff two taxonomy versions into an orphan dataset")
    p.add_argument("--old-taxonomy", help="older taxonomy JSONL")
    p.add_argument("--new-taxonomy", help="newer taxonomy JSONL")
    p.add_argument("--pos", choices=["noun", "verb", "both"], default=None)
    p.add_argument("--dataset", help="output dataset TSV")
    p.add_argument("--stats-out", help="statistics JSON (default <dataset>.stats.json)")
    p.add_argument("--restricted", action="store_true",
                   help="drop short words (<4 chars) and named entities")
    p.add_argument("--min-length", type=int, help="minimum word length in characters")
    p.add_argument("--exclude-named-entities", action="store_const", const=True)
    p.add_argument("--exclude-multiword", action="store_const", const=True)
    p.set_defaults(func=cmd_build_dataset)

    p = sub.add_parser("train", parents=[common],
                       help="train the logistic-regression ranker")
    p.add_argument("--old-taxonomy")
    p.add_argument("--embeddings")
    p.add_argument("--wiktionary")
    p.add_argument("--pos", choices=["noun", "verb", "both"], default=None)
    p.add_argument("--model", help="output model file")
    p.add_argument("--pairs-out", help="also write the training pairs TSV")
    p.add_argument("--l2-lambda", type=float)
    p.add_argument("--max-iters", type=int)
    p.add_argument("--tol", type=float)
    p.add_argument("--negatives-per-positive", type=int)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", parents=[common],
                       help="predict hypernym synsets for an orphan dataset")
    p.add_argument("--method", choices=["baseline", "ranking", "ranking-wiki"])
    p.add_argument("--old-taxonomy")
    p.add_argument("--embeddings")
    p.add_argument("--wiktionary")
    p.add_argument("--model")
    p.add_argument("--dataset")
    p.add_argument("--predictions", help="output predictions TSV")
    p.add_argument("--explain", action="store_true",
                   help="append neighbor provenance to each prediction row")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval", parents=[common],
                       help="score predictions with connected-component MAP")
    p.add_argument("--old-taxonomy")
    p.add_argument("--dataset")
    p.add_argument("--predictions")
    p.add_argument("--out", help="report JSON")
    p.add_argument("--groups", action="store_true",
                   help="print the named-entity/short/other breakdown")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("report", parents=[common],
                       help="taxonomy version statistics")
    p.add_argument("--old-taxonomy")
    p.add_argument("--new-taxonomy")
    p.add_argument("--out", help="statistics JSON")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("wiki-coverage", parents=[common],
                       help="Wiktionary coverage of an orphan dataset")
    p.add_argument("--old-taxonomy")
    p.add_argument("--dataset")
    p.add_argument("--wiktionary")
    p.add_argument("--out", help="coverage JSON")
    p.set_defaults(func=cmd_wiki_coverage)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args._config = read_config(args.config) if args.config else {}
        return args.func(args)
    except (InputError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
