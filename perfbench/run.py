"""Seeded benchmark of the taxoenrich command-line tool.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from src/.
The workload's inputs are generated from the seed (cached under .bench_work/),
then rounds repeat for about S seconds. With --trace 0 a round runs the
workload's command sequence, each command a fresh untraced process, then a
fresh set-up probe that makes the same loads; the end-to-end metrics are the
medians over rounds. With --trace 1 untraced and traced rounds alternate and
the per-layer metrics come from the spans of the traced ones. Every round's
outputs are checked. The last line of standard output is one JSON object:
correct, attempted, failed and metrics.

Any seed works, so a claim tuned on some seeds can be re-checked on others
(the seeds used to tune this benchmark are listed in baseline.json).
"""

from __future__ import annotations

import os

# Fixed before numpy loads here or in any child: one BLAS thread, so both
# commits of a comparison run the same single-threaded kernels on a 2-CPU box.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
sys.path[:0] = [str(HERE), str(SRC)]

from generate import generate, sha256  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

# The host this was built on switches each core between a fast and a slow
# pace, up to 1.5x apart, every second or so (other tenants share the
# cores), which would swamp any regression bound. So while a child runs, a
# thread of this process, pinned to the same core, times a fixed loop every
# PACE_EVERY_S; the time metrics of --trace 0 are the child's seconds scaled
# by PACE_REF_S / (median loop time). Raw seconds stay in the run record and
# are printed next to each metric.
PACE_LOOP = 20000
PACE_EVERY_S = 0.05
PACE_REF_S = 0.0007

# Rounds a run makes at least, whatever --seconds says: three untraced rounds
# give a median; with tracing one untraced and one traced round.
MIN_ROUNDS = 3
# A run stops starting rounds after this long and kills a command that is
# still running after KILL_AFTER, so a run ends within 180 s.
STOP_AFTER = 120.0
KILL_AFTER = 165.0

LAYERS = ("taxonomy", "embeddings", "wiktionary", "diachronic", "ranking", "evaluation")

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "words_per_s": "words/s",
    "peak_rss_mb": "MB",
    "map": "ratio",
}

PER_LAYER = {
    "embeddings.load_embeddings.s": "s",
    "embeddings.nearest_neighbors.calls": "count",
    "embeddings.nearest_neighbors.s": "s",
    "embeddings.nearest_neighbors.self_s": "s",
    "embeddings.nearest_neighbors.calls_per_word": "ratio",
    "embeddings.nearest_neighbors.bytes_scanned": "bytes",
    "embeddings.synset_vector.calls": "count",
    "embeddings.synset_vector.s": "s",
    "embeddings.synset_vector.calls_per_synset": "ratio",
    "wiktionary.wiki_features.calls": "count",
    "wiktionary.wiki_features.self_s": "s",
    "wiktionary.load_wiktionary.s": "s",
    "ranking.assemble_features.calls": "count",
    "ranking.assemble_features.self_s": "s",
    "ranking.predict_lr.calls": "count",
    "ranking.predict_lr.s": "s",
    "ranking.rank_with_model.self_s": "s",
    "ranking.candidates_extended.calls": "count",
    "ranking.candidates_extended.self_s": "s",
    "ranking.candidates_extended.calls_per_word": "ratio",
    "ranking.pool_size.p50": "count",
    "ranking.pool_size.p95": "count",
    "ranking.pool_size.max": "count",
    "ranking.rank_by_score.self_s": "s",
    "ranking.write_predictions.s": "s",
    "ranking.train_lr.s": "s",
    "ranking.train_lr.iters": "count",
    "diachronic.read_dataset.s": "s",
    "diachronic.build_training_pairs.self_s": "s",
    "diachronic.build_dataset.calls": "count",
    "diachronic.build_dataset.s": "s",
    "diachronic.dataset_statistics.s": "s",
    "taxonomy.load_taxonomy.s": "s",
    "taxonomy.connected_components.calls": "count",
    "taxonomy.connected_components.s": "s",
    "evaluation.evaluate_predictions.s": "s",
    "evaluation.sense_distribution.s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "cli.self_s": "s",
    "traced_wall_s": "s",
    "trace_overhead_pct": "%",
}


# -- processes -------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def pace_sample() -> float:
    """Seconds this core takes for a fixed loop right now."""
    start = time.perf_counter()
    total = 0
    for i in range(PACE_LOOP):
        total += i
    return time.perf_counter() - start


class Pacer(threading.Thread):
    def __init__(self):
        super().__init__(daemon=True)
        self.done = threading.Event()
        self.samples: list[float] = []

    def run(self) -> None:
        while not self.done.wait(PACE_EVERY_S):
            self.samples.append(pace_sample())


def run_process(argv: list[str], log: Path, deadline: float) -> dict:
    """Run one process to completion. Returns its exit code, wall seconds,
    peak RSS in KiB (from wait4 on that child alone) and the median pace
    sample taken while it ran."""
    pacer = Pacer()
    with log.open("wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT,
                                env=child_env(), cwd=ROOT)
        killer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
        killer.start()
        pacer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            pacer.done.set()
        wall = time.perf_counter() - start
    pacer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"exit": proc.returncode, "wall_s": wall, "peak_rss_kb": usage.ru_maxrss,
            "pace_s": statistics.median(pacer.samples or [pace_sample()])}


# -- inputs ----------------------------------------------------------------

def prepare_inputs(wl: Workload, seed: int) -> tuple[Path, dict]:
    """Generate the inputs, or reuse the last ones made for this workload if
    seed, shape and generator are unchanged and every file hash matches."""
    in_dir = WORK / "inputs" / wl.name
    key = {"seed": seed, "spec": repr(wl.spec),
           "generator": sha256(HERE / "generate.py")}
    facts_path = in_dir / "facts.json"
    if facts_path.exists():
        facts = json.loads(facts_path.read_text())
        if facts.get("key") == key and all(
                (in_dir / name).is_file() and sha256(in_dir / name) == digest
                for name, digest in facts["inputs"].items()):
            return in_dir, facts
    shutil.rmtree(in_dir, ignore_errors=True)
    facts = generate(wl.spec, seed, in_dir)
    facts["key"] = key
    facts_path.write_text(json.dumps(facts, indent=2))
    return in_dir, facts


# -- checks ----------------------------------------------------------------

def check_entries(wl: Workload, in_dir: Path, out_dir: Path) -> tuple[int, int, list[str]]:
    """Dataset entries attempted and failed this round, with problems found.

    Predict workloads: an entry fails when it has neither prediction rows
    nor a line in the OOV sidecar. taxonomy-diff: an entry fails when
    build-dataset did not produce it as the generator defines it."""
    # the package's own readers, so an output format change needs no edit here
    from taxoenrich import diachronic, ranking
    problems: list[str] = []
    if wl.predictions is None:
        expected = {(e.word, e.pos, e.gold) for e in diachronic.read_dataset(in_dir / "expected_dataset.tsv")}
        path = out_dir / "dataset.tsv"
        got = {(e.word, e.pos, e.gold) for e in diachronic.read_dataset(path)} if path.exists() else set()
        if got - expected:
            problems.append(f"build-dataset produced {len(got - expected)} unexpected entries")
        return len(expected), len(expected - got), problems
    entries = diachronic.read_dataset(in_dir / "dataset.tsv")
    path = out_dir / wl.predictions
    predicted = ranking.read_predictions(path) if path.exists() else {}
    sidecar = Path(str(path) + ".oov.txt")
    oov = set(sidecar.read_text(encoding="utf-8").split("\n")) if sidecar.exists() else set()
    # A key answers one entry: with predictions keyed by word alone, the
    # second entry of a noun/verb homograph has no rows of its own.
    claimed: set = set()
    failed = 0
    for e in entries:
        if e.word in oov or (e.word, e.pos) in predicted or (e.word, e.pos.value) in predicted:
            continue
        if e.word in predicted and e.word not in claimed:
            claimed.add(e.word)
            continue
        failed += 1
    return len(entries), failed, problems


def read_map(out_dir: Path) -> float | None:
    try:
        return float(json.loads((out_dir / "report.json").read_text())["map"])
    except (OSError, ValueError, KeyError, TypeError):
        return None


# -- rounds ----------------------------------------------------------------

def fill(template: str, in_dir: Path, out_dir: Path) -> str:
    return template.replace("{in}", str(in_dir)).replace("{out}", str(out_dir))


def run_round(wl: Workload, in_dir: Path, out_dir: Path, index: int,
              traced: bool, probe: bool, deadline: float) -> dict:
    for old in out_dir.iterdir():
        old.unlink()
    record: dict = {"index": index, "traced": traced, "commands": []}
    for i, template in enumerate(wl.commands):
        argv = [fill(a, in_dir, out_dir) for a in template]
        if traced:
            spans = out_dir / f"spans{i}.json"
            argv = [sys.executable, str(HERE / "child.py"), "trace", str(spans),
                    f"{wl.name}/r{index}/c{i}", *argv]
        else:
            argv = [sys.executable, "-m", "taxoenrich.cli", *argv]
        cmd = {"command": template[0], **run_process(argv, out_dir / f"cmd{i}.log", deadline)}
        if traced and cmd["exit"] == 0:
            cmd["spans"] = json.loads(spans.read_text())["spans"]
            cmd["wall_s"] -= json.loads(Path(str(spans) + ".meta").read_text())["write_s"]
        record["commands"].append(cmd)
    record["map"] = read_map(out_dir)
    record["entries"], record["failed_entries"], record["problems"] = \
        check_entries(wl, in_dir, out_dir)
    record["outputs"] = {name: sha256(out_dir / name) if (out_dir / name).exists() else None
                         for name in wl.outputs}
    if probe:
        loads = [[[loader, fill(path, in_dir, out_dir)] for loader, path in command]
                 for command in wl.loads]
        argv = [sys.executable, str(HERE / "child.py"), "setup", json.dumps(loads)]
        log = out_dir / "setup.log"
        record["setup"] = run_process(argv, log, deadline)
        if record["setup"]["exit"] == 0:
            record["setup"].update(json.loads(log.read_text().splitlines()[-1]))
    return record


# -- metrics ---------------------------------------------------------------

def words(wl: Workload, facts: dict) -> int:
    return facts["dataset_entries"] if wl.words == "dataset" else facts["noun_training_words"]


def end_to_end(wl: Workload, facts: dict, rounds: list[dict], paced: bool) -> dict:
    walls, setups, rates, rss = [], [], [], []

    def seconds(process: dict, value: float) -> float:
        return value * PACE_REF_S / process["pace_s"] if paced else value

    # what the main command pays before its first word: interpreter start
    # and import (probe wall minus all loads) plus its own loads; the median
    # over rounds, so one probe's noise does not enter every rate
    share = statistics.median(
        seconds(r["setup"], r["setup"]["wall_s"] - sum(r["setup"]["commands_s"])
                + r["setup"]["commands_s"][wl.main]) for r in rounds)
    for r in rounds:
        cmd_walls = [seconds(c, c["wall_s"]) for c in r["commands"]]
        walls.append(sum(cmd_walls))
        rss.append(max(c["peak_rss_kb"] for c in r["commands"]) / 1024)
        setups.append(seconds(r["setup"], r["setup"]["wall_s"]))
        work_s = cmd_walls[wl.main] - share if wl.rate_excludes_loads else cmd_walls[wl.main]
        rates.append(words(wl, facts) / work_s)
    return {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "words_per_s": statistics.median(rates),
        "peak_rss_mb": statistics.median(rss),
        "map": rounds[0]["map"],
    }


def percentile(values: list[int], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return float(ordered[min(len(ordered) - 1, int(q * len(ordered)))])


def per_layer(wl: Workload, facts: dict, traced_round: dict) -> tuple[dict, dict]:
    """Per-layer metrics of one traced round, and every wrapped function's
    calls, total and self seconds for the run record."""
    functions: dict[str, dict] = {}
    attrs: dict[str, list] = {}
    module_self = {layer: 0.0 for layer in LAYERS}
    main_calls: dict[str, int] = {}
    wall = roots = 0.0
    for i, cmd in enumerate(traced_round["commands"]):
        spans = cmd["spans"]
        wall += cmd["wall_s"]
        covered = [0.0] * len(spans)
        for name, start, end, parent, _attr in spans:
            if parent >= 0:
                covered[parent] += end - start
            else:
                roots += end - start
        for (name, start, end, _parent, attr), child_s in zip(spans, covered):
            f = functions.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            f["calls"] += 1
            if i == wl.main:
                main_calls[name] = main_calls.get(name, 0) + 1
            f["s"] += end - start
            f["self_s"] += end - start - child_s
            module_self[name.split(".")[0]] += end - start - child_s
            if attr is not None:
                attrs.setdefault(name, []).append(attr)

    def stat(name: str, key: str) -> float:
        return functions.get(name, {}).get(key, 0)

    # per-word ratios count the main command's calls only
    n_words = words(wl, facts)
    sv_ids = attrs.get("embeddings.synset_vector", [])
    pools = [size for _word, size in attrs.get("ranking.candidates_extended", [])]
    metrics = {
        "embeddings.nearest_neighbors.calls_per_word":
            main_calls.get("embeddings.nearest_neighbors", 0) / n_words,
        "embeddings.nearest_neighbors.bytes_scanned":
            8 * sum(attrs.get("embeddings.nearest_neighbors", [])),
        "embeddings.synset_vector.calls_per_synset": len(sv_ids) / len(set(sv_ids)) if sv_ids else 0.0,
        "ranking.candidates_extended.calls_per_word":
            main_calls.get("ranking.candidates_extended", 0) / n_words,
        "ranking.pool_size.p50": percentile(pools, 0.50),
        "ranking.pool_size.p95": percentile(pools, 0.95),
        "ranking.pool_size.max": float(max(pools, default=0)),
        "ranking.train_lr.iters": float(sum(attrs.get("ranking.train_lr", []))),
        **{f"{layer}.self_s": module_self[layer] for layer in LAYERS},
        "cli.self_s": wall - roots,
        "traced_wall_s": wall,
    }
    for name in PER_LAYER:
        if name not in metrics and name != "trace_overhead_pct":
            fn, key = name.rsplit(".", 1)
            metrics[name] = float(stat(fn, key))
    return metrics, functions


# -- run -------------------------------------------------------------------

def environment(rounds: list[dict]) -> dict:
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    probes = [r["setup"].get("blas_threads") for r in rounds if "setup" in r]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": BLAS_THREADS,
        "blas_threads_reported": probes[0] if probes else None,
        "driving_processes": 1,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description="taxoenrich benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "taxoenrich" / "cli.py").is_file():
        print(f"error: no taxoenrich sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    # One CPU for this process and every child, so the pace thread times the
    # core the commands run on (the cores' speeds vary independently of each
    # other on the host this was built on).
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    started = time.monotonic()
    in_dir, facts = prepare_inputs(wl, args.seed)
    out_dir = WORK / "out" / wl.name
    out_dir.mkdir(parents=True, exist_ok=True)

    measure_start = time.monotonic()
    kill_at = started + KILL_AFTER
    rounds: list[dict] = []
    durations: dict[bool, float] = {}
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        t = time.monotonic()
        rounds.append(run_round(wl, in_dir, out_dir, len(rounds), traced,
                                probe=not args.trace, deadline=kill_at))
        durations[traced] = time.monotonic() - t
        if any(c["exit"] != 0 for c in rounds[-1]["commands"]):
            break
        done = len(rounds) >= (2 if args.trace else MIN_ROUNDS)
        nxt = bool(args.trace) and len(rounds) % 2 == 1
        now = time.monotonic()
        if done and (now + durations.get(nxt, 0.0) > measure_start + args.seconds
                     or now > started + STOP_AFTER):
            break

    checks: dict[str, bool] = {}
    checks["exit_codes_zero"] = all(c["exit"] == 0 for r in rounds for c in r["commands"])
    maps = [r["map"] for r in rounds]
    checks["map_above_floor"] = all(m is not None and wl.map_floor <= m <= 1.0 for m in maps)
    checks["outputs_repeat"] = all(r["outputs"] == rounds[0]["outputs"] for r in rounds) \
        and None not in rounds[0]["outputs"].values()
    checks["no_unexpected_entries"] = not any(r["problems"] for r in rounds)
    untraced = [r for r in rounds if not r["traced"]]
    traced_rounds = [r for r in rounds if r["traced"]]
    if args.trace:
        checks["spans_recorded"] = bool(traced_rounds) and checks["exit_codes_zero"]
    else:
        checks["setup_probe_ok"] = all(r["setup"]["exit"] == 0 for r in untraced)

    metrics: dict[str, float] = {}
    raw: dict[str, float] = {}
    functions: dict = {}
    if all(checks.values()):
        if args.trace:
            layered = [per_layer(wl, facts, r) for r in traced_rounds]
            # the traced round of median wall, whole, so its self times
            # still add up to its wall
            layered.sort(key=lambda pair: pair[0]["traced_wall_s"])
            metrics, functions = layered[(len(layered) - 1) // 2]
            plain = statistics.median(sum(c["wall_s"] for c in r["commands"]) for r in untraced)
            metrics["trace_overhead_pct"] = 100.0 * (metrics["traced_wall_s"] / plain - 1.0)
            checks["self_times_sum_to_wall"] = all(
                abs(sum(m[f"{layer}.self_s"] for layer in LAYERS) + m["cli.self_s"]
                    - m["traced_wall_s"]) < 1e-6 for m, _ in layered)
            metrics_units = PER_LAYER
        else:
            metrics = end_to_end(wl, facts, untraced, paced=True)
            raw = end_to_end(wl, facts, untraced, paced=False)
            metrics_units = END_TO_END

    # Each command and entry counts once per run, not once per round: how
    # many rounds fit in --seconds depends on the host's pace, and the counts
    # must not. A command fails if it exits non-zero in any round; an entry
    # fails if it has no answer in any round (outputs_repeat makes the rounds
    # agree when the program is deterministic).
    attempted = len(wl.commands) + max(r["entries"] for r in rounds)
    failed = sum(any(r["commands"][i]["exit"] != 0 for r in rounds)
                 for i in range(len(wl.commands))) + max(r["failed_entries"] for r in rounds)
    correct = all(checks.values())

    record = {
        "workload": wl.name, "why": wl.why, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "environment": environment(rounds),
        "inputs": facts, "checks": checks, "attempted": attempted, "failed": failed,
        "map": maps[0], "output_sha256": rounds[0]["outputs"], "metrics": metrics,
        "raw_metrics": raw, "pace_ref_s": PACE_REF_S,
        "functions": functions,
        "rounds": [{k: v for k, v in r.items() if k != "commands"}
                   | {"commands": [{k: v for k, v in c.items() if k != "spans"}
                                   for c in r["commands"]]} for r in rounds],
    }
    records = WORK / "records"
    records.mkdir(parents=True, exist_ok=True)
    record_path = records / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=2))

    print(f"workload {wl.name}  seed {args.seed}  rounds {len(rounds)}  "
          f"map {maps[0]}  record {record_path.relative_to(ROOT)}")
    for name, ok in checks.items():
        print(f"  check {name:28s} {'ok' if ok else 'FAILED'}")
    print(f"  entries/commands failed {failed} of {attempted}")
    result_metrics = {}
    if correct:
        for name, unit in metrics_units.items():
            unpaced = f"  (raw {raw[name]:.6f})" if raw.get(name, metrics[name]) != metrics[name] else ""
            print(f"  {name:48s} {metrics[name]:>16.6f} {unit}{unpaced}")
            result_metrics[name] = {"value": metrics[name], "unit": unit}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result_metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
