"""Processes the benchmark starts next to the taxoenrich commands.

    python3 child.py setup LOADS_JSON
        Import taxoenrich as a command does, then make each command's loads
        (a JSON list, per command, of [loader, path] pairs) in order. Prints
        one JSON line: import seconds, load seconds per command, and the
        BLAS thread count numpy runs with.

    python3 child.py trace SPANS_OUT RUN_ID CLI_ARGS...
        Run one taxoenrich command in this process with the public functions
        of every package module wrapped in a span, then write the spans to
        SPANS_OUT as JSON and exit with the command's exit code.

Spans are kept in memory as [name, start, end, parent index, attributes]
and written once at the end, so tracing adds no I/O while the command runs.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import importlib
import inspect
import json
import os
import sys
import time

LAYERS = ("taxonomy", "embeddings", "wiktionary", "diachronic", "ranking", "evaluation")


def blas_threads() -> int | None:
    """Threads the OpenBLAS bundled with numpy will use, if it can be asked."""
    import numpy
    libs = os.path.join(os.path.dirname(numpy.__file__), "..", "numpy.libs")
    for lib in glob.glob(os.path.join(libs, "libscipy_openblas*.so")):
        try:
            fn = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        return int(fn())
    return None


def setup(loads_json: str) -> None:
    start = time.perf_counter()
    from taxoenrich import cli, diachronic, embeddings, ranking, taxonomy, wiktionary  # noqa: F401
    loaders = {
        "load_taxonomy": taxonomy.load_taxonomy,
        "load_embeddings": embeddings.load_embeddings,
        "load_wiktionary": wiktionary.load_wiktionary,
        "read_dataset": diachronic.read_dataset,
        "load_model": ranking.load_model,
    }
    import_s = time.perf_counter() - start
    per_command = []
    for command in json.loads(loads_json):
        t = time.perf_counter()
        held = [loaders[name](path) for name, path in command]
        per_command.append(time.perf_counter() - t)
        del held  # each command is its own process, so nothing carries over
    print(json.dumps({"import_s": import_s, "commands_s": per_command,
                      "blas_threads": blas_threads()}))


# Attributes recorded per call, for the count metrics; computed after the
# span has ended, from the call's arguments and result.
def _store_cells(args, kwargs, result):
    store = args[0] if args else kwargs["store"]
    return len(store) * store.dim


def _synset_id(args, kwargs, result):
    return (args[1] if len(args) > 1 else kwargs["syn"]).id


def _pool(args, kwargs, result):
    return [args[0] if args else kwargs["word"], len(result)]


def _iters(args, kwargs, result):
    return result.n_iters


ATTRIBUTES = {
    "embeddings.nearest_neighbors": _store_cells,
    "embeddings.synset_vector": _synset_id,
    "ranking.candidates_extended": _pool,
    "ranking.train_lr": _iters,
}
# Methods are wrapped only where a metric needs them.
METHODS = {"taxonomy": ("Taxonomy.connected_components",)}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        attributes = ATTRIBUTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if attributes is not None:
                span[4] = attributes(args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        """Wrap each public function once and rebind it on every package
        module that holds it, since modules import functions by name."""
        modules = {layer: importlib.import_module(f"taxoenrich.{layer}") for layer in LAYERS}
        modules["cli"] = importlib.import_module("taxoenrich.cli")
        replacement: dict[int, object] = {}
        for layer in LAYERS:
            mod = modules[layer]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    replacement[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
            for dotted in METHODS.get(layer, ()):
                cls_name, method = dotted.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, method, self.wrap(f"{layer}.{method}", getattr(cls, method)))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in replacement:
                    setattr(mod, attr, replacement[id(obj)])


def trace(spans_out: str, run_id: str, argv: list[str]) -> int:
    tracer = Tracer()
    tracer.install()
    from taxoenrich import cli
    code = cli.main(argv)
    start = time.perf_counter()
    with open(spans_out, "w", encoding="utf-8") as fh:
        json.dump({"run_id": run_id, "spans": tracer.spans}, fh)
    # the parent subtracts the write from this process's wall time
    with open(spans_out + ".meta", "w", encoding="utf-8") as fh:
        json.dump({"write_s": time.perf_counter() - start}, fh)
    return code


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup(sys.argv[2])
    elif sys.argv[1] == "trace":
        sys.exit(trace(sys.argv[2], sys.argv[3], sys.argv[4:]))
    else:
        sys.exit(f"unknown mode {sys.argv[1]!r}")
