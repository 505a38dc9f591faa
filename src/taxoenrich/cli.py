"""Command-line interface.

Subcommands: build-dataset, train, predict, eval, report, wiki-coverage.
Values come from flags, then a key=value config file (--config), then the
defaults in ``build_parser``; argparse converts a config value as it does the
flag's. Outputs are written atomically (temp file + rename). Exit codes:
0 success, 1 runtime failure, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path

# numpy and the vector modules take ~0.1 s to import; train, predict, wiki-coverage load them
from . import diachronic, evaluation
from .diachronic import DatasetRestrictions
from .fileio import InputError, atomic_write, gc_paused, read_lines
from .taxonomy import PartOfSpeech, load_taxonomy


def read_config(path: str) -> dict[str, tuple[str, int]]:
    """Parse a key=value config file into key -> (value, line number); '#' starts a comment."""
    config = {}
    for lineno, line in read_lines(require_path(path, "config file"),
                                   lambda line: line.split("#", 1)[0].strip()):
        if "=" not in line:
            raise InputError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (s.strip() for s in line.split("=", 1))
        config[key.replace("-", "_")] = value, lineno
    return config


def count(value: str) -> int:
    """argparse type of a count: an integer of at least 1."""
    n = int(value)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def length(value: str) -> int:
    """argparse type of a length: an integer of at least 0."""
    n = int(value)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {n}")
    return n


def magnitude(value: str) -> float:
    """argparse type of a penalty or tolerance: a finite number of at least 0."""
    x = float(value)
    if not 0.0 <= x < float("inf"):  # NaN fails too
        raise argparse.ArgumentTypeError(f"must be finite and at least 0, got {value}")
    return x


def require_path(value, what: str) -> Path:
    """The input file ``value`` names; ``InputError`` if unset or empty, a directory or missing."""
    if not value:
        raise InputError(f"missing required input: {what}")
    path = Path(value)
    if path.is_dir():
        raise InputError(f"{what} is a directory: {path}")
    if not path.exists():
        raise InputError(f"{what} not found: {path}")
    return path


def read_scored_dataset(value, taxonomy) -> list[diachronic.OrphanEntry]:
    """The entries (at least one) of the dataset ``value``, whose gold ids ``taxonomy`` holds."""
    path = require_path(value, "dataset")
    dataset = diachronic.read_dataset(path)
    if not dataset:
        raise InputError(f"{path}: no entries to score")
    for entry in dataset:  # difference() looks each id up in the dict; issubset() copies it
        if unknown := entry.gold.difference(taxonomy.lemmas):
            raise InputError(f"{path}: {entry.word!r} ({entry.pos.value}): unknown gold synset"
                             f" id {min(unknown)!r}")
    return dataset


def atomic_write_json(path: str | Path, obj) -> None:
    atomic_write(path, json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False) + "\n")


def parse_pos_list(value: str) -> list[PartOfSpeech]:
    if value == "both":
        return [PartOfSpeech.NOUN, PartOfSpeech.VERB]
    return [PartOfSpeech.parse(value)]


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def diff_releases(args) -> tuple[dict, dict]:
    """Each part of speech's orphans from the old release to the new, and their statistics."""
    old = load_taxonomy(require_path(args.old_taxonomy, "old taxonomy"))
    new = load_taxonomy(require_path(args.new_taxonomy, "new taxonomy"))
    orphans = {pos: diachronic.build_dataset(old, new, pos) for pos in PartOfSpeech}
    return orphans, diachronic.dataset_statistics(old, new, orphans)


def cmd_build_dataset(args) -> int:
    orphans, stats = diff_releases(args)
    restrictions = DatasetRestrictions(
        min_length=max(args.min_length, 4) if args.restricted else args.min_length,
        exclude_named_entities=args.exclude_named_entities or args.restricted,
        exclude_multiword=args.exclude_multiword)
    entries = [e for pos in parse_pos_list(args.pos) for e in orphans[pos]
               if restrictions.accepts(e.word)]
    (_, out), (_, stats_out) = args.outputs(args)
    diachronic.write_dataset(entries, out)
    stats["dataset"] = {"entries": len(entries), "restricted": args.restricted}
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
    from . import wiktionary
    if args.wiktionary is None:
        return wiktionary.WiktionaryStore()
    return wiktionary.load_wiktionary(require_path(args.wiktionary, "wiktionary"))


def cmd_train(args) -> int:
    import numpy as np
    from . import embeddings, ranking
    old = load_taxonomy(require_path(args.old_taxonomy, "old taxonomy"))
    store = embeddings.load_embeddings(require_path(args.embeddings, "embeddings"))
    wiki = _load_wiktionary_or_empty(args)
    pairs, occurrences = [], []
    summary_total = Counter()
    for pos in parse_pos_list(args.pos):
        # each pair is featurized from the pool that made it, as predict scores a
        # candidate of any part of speech from the entry's own pool
        pos_pairs, pos_occurrences, summary = ranking.build_training_pairs(
            old, store, pos, negatives_per_positive=args.negatives_per_positive,
            seed=args.seed, k=args.k)
        pairs += pos_pairs
        occurrences += pos_occurrences
        summary_total.update(summary)
    if not pairs:
        print("error: no training pairs could be built", file=sys.stderr)
        return 1
    X = ranking.pair_features(*embeddings.distinct_rows([pair.word for pair in pairs]),
                              *embeddings.distinct_rows([pair.candidate for pair in pairs]),
                              occurrences, old, store, wiki)
    y = np.array([pair.label for pair in pairs], dtype=np.float64)

    model = ranking.train_lr(X, y, l2_lambda=args.l2_lambda, max_iters=args.max_iters,
                             tol=args.tol)
    if not model.final_grad_norm < args.tol:
        print(f"warning: the fit stopped unconverged after {model.n_iters} iterations:"
              f" gradient inf-norm {model.final_grad_norm:.3e} is not below tol {args.tol:g}",
              file=sys.stderr)
    if args.pairs_out:  # first: pairs no reader could split leave no model either
        diachronic.write_training_pairs(pairs, args.pairs_out)
    out = Path(args.model)
    ranking.save_model(model, out)
    print(f"pairs: {summary_total['positives']} positive, {summary_total['negatives']} negative"
          f" (skipped {summary_total['skipped_oov_lemmas']} OOV lemmas)")
    print(f"final loss {model.final_loss:.6f}, gradient inf-norm {model.final_grad_norm:.3e},"
          f" {model.n_iters} iterations")
    print(f"wrote model to {out}")
    return 0


def cmd_predict(args) -> int:
    from . import embeddings, ranking
    method, k = args.method, args.k
    taxonomy = load_taxonomy(require_path(args.old_taxonomy, "taxonomy"))
    store = embeddings.load_embeddings(require_path(args.embeddings, "embeddings"))
    dataset = diachronic.read_dataset(require_path(args.dataset, "dataset"))
    model = wiki = None
    if method == "ranking-wiki":
        model = ranking.load_model(require_path(args.model, "model"))
        wiki = _load_wiktionary_or_empty(args)
    ranked = ranking.rank_words([entry.word for entry in dataset], [entry.pos for entry in dataset],
                                taxonomy, store, k, method == "baseline", model, wiki, args.explain)
    # an entry is answered by its rows, or else listed in the sidecar: no vector or no candidate
    predictions = {(entry.word, entry.pos): top for entry, top in zip(dataset, ranked) if top}
    unanswered = sorted(entry.word for entry, top in zip(dataset, ranked) if not top)
    (_, out), (_, sidecar) = args.outputs(args)
    diachronic.write_predictions(predictions, out, explain=args.explain)
    atomic_write(sidecar, "".join(w + "\n" for w in unanswered))
    print(f"predicted {len(predictions)} entries ({ranked.count(None)} OOV,"
          f" {ranked.count([])} with an empty pool, listed in {sidecar})")
    return 0


def cmd_eval(args) -> int:
    taxonomy = load_taxonomy(require_path(args.old_taxonomy, "taxonomy"))
    dataset = read_scored_dataset(args.dataset, taxonomy)
    preds_path = require_path(args.predictions, "predictions")
    predictions = {key: [sid for sid, _score in ranked]
                   for key, ranked in diachronic.read_predictions(preds_path).items()}
    for key, sids in predictions.items():
        word = key[0] if isinstance(key, tuple) else key  # an older file is keyed by word
        for sid in sids:
            if sid not in taxonomy:
                print(f"warning: {word}: unknown synset {sid} scored as miss", file=sys.stderr)
    results = evaluation.evaluate_predictions(dataset, taxonomy, predictions, limit=args.k)
    report = {
        "map": evaluation.map_score(results),
        "per_group": evaluation.group_breakdown(results),
        "histogram": {str(n): bucket for n, bucket in
                      evaluation.sense_distribution(results).items()},
        "per_entry_ap": [{"word": entry.word, "pos": entry.pos.value, "ap": r.ap}
                         for entry, r in zip(dataset, results)],
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
    stats = diff_releases(args)[1]
    if args.out:
        atomic_write_json(args.out, stats)
    print(json.dumps(stats, indent=2, sort_keys=True))
    return 0


def cmd_wiki_coverage(args) -> int:
    from . import wiktionary
    taxonomy = load_taxonomy(require_path(args.old_taxonomy, "taxonomy"))
    dataset = read_scored_dataset(args.dataset, taxonomy)
    store = wiktionary.load_wiktionary(require_path(args.wiktionary, "wiktionary"))
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

def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parser, and each command's subparser by name; every option's type and default."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key=value config file; flags override it")
    with_k = argparse.ArgumentParser(add_help=False, parents=[common])
    with_k.add_argument("--k", type=count, default=10,
                        help="number of neighbors/candidates (default %(default)s)")
    with_seed = argparse.ArgumentParser(add_help=False, parents=[with_k])
    with_seed.add_argument("--seed", type=int, default=0,
                           help="train's seed (default %(default)s); predict ignores it")
    pos = {"choices": ["noun", "verb", "both"], "default": "both"}

    parser = argparse.ArgumentParser(prog="taxoenrich",
                                     description="Taxonomy enrichment toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-dataset", parents=[common],
                       help="diff two taxonomy versions into an orphan dataset")
    p.add_argument("--old-taxonomy", help="older taxonomy JSONL")
    p.add_argument("--new-taxonomy", help="newer taxonomy JSONL")
    p.add_argument("--pos", **pos)
    p.add_argument("--dataset", default="dataset.tsv", help="output dataset TSV")
    p.add_argument("--stats-out", help="statistics JSON (default <dataset>.stats.json)")
    p.add_argument("--restricted", action="store_true",
                   help="drop short words (<4 chars) and named entities")
    p.add_argument("--min-length", type=length, default=0,
                   help="minimum word length in characters")
    p.add_argument("--exclude-named-entities", action="store_true")
    p.add_argument("--exclude-multiword", action="store_true")
    p.set_defaults(func=cmd_build_dataset, outputs=lambda a: [  # stats beside the dataset
        ("dataset", out := Path(a.dataset)), ("stats-out", a.stats_out or f"{out}.stats.json")])

    p = sub.add_parser("train", parents=[with_seed],
                       help="train the logistic-regression ranker")
    p.add_argument("--old-taxonomy")
    p.add_argument("--embeddings")
    p.add_argument("--wiktionary")
    p.add_argument("--pos", **pos)
    p.add_argument("--model", default="model.txt", help="output model file")
    p.add_argument("--pairs-out", help="also write the training pairs TSV")
    p.add_argument("--l2-lambda", type=magnitude, default=1e-4)
    p.add_argument("--max-iters", type=count, default=1000)
    p.add_argument("--tol", type=magnitude, default=1e-8)
    p.add_argument("--negatives-per-positive", type=count, default=1)
    p.set_defaults(func=cmd_train,
                   outputs=lambda a: [("model", a.model), ("pairs-out", a.pairs_out)])

    p = sub.add_parser("predict", parents=[with_seed],
                       help="predict hypernym synsets for an orphan dataset")
    p.add_argument("--method", choices=["baseline", "ranking", "ranking-wiki"],
                   default="ranking")
    p.add_argument("--old-taxonomy")
    p.add_argument("--embeddings")
    p.add_argument("--wiktionary")
    p.add_argument("--model")
    p.add_argument("--dataset")
    p.add_argument("--predictions", default="predictions.tsv", help="output predictions TSV")
    p.add_argument("--explain", action="store_true",
                   help="append neighbor provenance to each prediction row")
    p.set_defaults(func=cmd_predict, outputs=lambda a: [  # and the sidecar of the unanswered
        ("predictions", out := Path(a.predictions)), ("predictions", Path(f"{out}.oov.txt"))])

    p = sub.add_parser("eval", parents=[with_k],
                       help="score predictions with connected-component MAP")
    p.add_argument("--old-taxonomy")
    p.add_argument("--dataset")
    p.add_argument("--predictions")
    p.add_argument("--out", help="report JSON")
    p.add_argument("--groups", action="store_true",
                   help="print the named-entity/short/other breakdown")
    p.set_defaults(func=cmd_eval, outputs=lambda a: [("out", a.out)])

    p = sub.add_parser("report", parents=[common],
                       help="taxonomy version statistics")
    p.add_argument("--old-taxonomy")
    p.add_argument("--new-taxonomy")
    p.add_argument("--out", help="statistics JSON")
    p.set_defaults(func=cmd_report, outputs=lambda a: [("out", a.out)])

    p = sub.add_parser("wiki-coverage", parents=[common],
                       help="Wiktionary coverage of an orphan dataset")
    p.add_argument("--old-taxonomy")
    p.add_argument("--dataset")
    p.add_argument("--wiktionary")
    p.add_argument("--out", help="coverage JSON")
    p.set_defaults(func=cmd_wiki_coverage, outputs=lambda a: [("out", a.out)])

    return parser, sub.choices


# a switch's config values, in any case
SWITCHES = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def main(argv: list[str] | None = None) -> int:
    parser, commands = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            # the config's keys become the command's defaults, converted by argparse's own
            # converter for each flag's type, so a rejected value is reported as its flag
            # would be, at its config line; a flag on the command line still wins. A key of
            # another command is left to it; one of none is misspelt, and a usage error.
            command = commands[args.command]
            options = vars(args).keys() - {"func", "command", "config", "outputs"}
            known = {action.dest for p in commands.values() for action in p._actions}
            actions = {action.dest: action for action in command._actions}
            defaults = {}
            for key, (value, lineno) in read_config(args.config).items():
                if key not in options:
                    if key not in known:
                        command.error(f"{args.config}:{lineno}: unknown key {key!r}")
                    continue
                action = actions[key]
                try:
                    if isinstance(action.default, bool):  # a switch: --restricted and the like
                        if value.lower() not in SWITCHES:
                            raise argparse.ArgumentError(action, f"invalid switch value: {value!r}"
                                                         f" (choose from {', '.join(SWITCHES)})")
                        defaults[key] = SWITCHES[value.lower()]
                    else:
                        defaults[key] = command._get_value(action, value)
                        command._check_value(action, defaults[key])  # its choices
                except argparse.ArgumentError as exc:
                    command.error(f"{args.config}:{lineno}: {exc}")
            command.set_defaults(**defaults)
            args = parser.parse_args(argv)
        # each output (option, path; its command writes that path) has its directory and no
        # directory in its place, before any input is read
        for option, value in args.outputs(args):
            if value and not (parent := Path(value).parent).is_dir():
                raise InputError(f"cannot write --{option} {value}: no directory {parent}")
            if value and Path(value).is_dir():
                raise InputError(f"cannot write --{option} {value}: it is a directory")
        # one pause for the whole command, so the cyclic collector never traverses what
        # it loads; the caller's collector state comes back on return and on error
        with gc_paused():
            return args.func(args)
    except (InputError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
