"""Input errors, line-record input files and atomic output files for every module."""

from __future__ import annotations

import gc
import json
import os
from operator import methodcaller
from pathlib import Path
from typing import Iterator


class InputError(ValueError):
    """A missing or malformed input; the command line exits 2 for it."""


def read_lines(path: str | Path,
               strip=methodcaller("rstrip", "\n")) -> Iterator[tuple[int, str]]:
    """(line number from 1, ``strip(line)``) for each line of the UTF-8 file ``path`` that
    ``strip`` leaves non-empty. The default drops only the ``\\n``, so a line of whitespace
    still counts (TSV); JSONL readers pass ``str.strip`` to skip it."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = strip(line)
            if line:
                yield lineno, line


_raw_decode = json.JSONDecoder().raw_decode


def decode_json(line: str):
    """``json.loads(line)`` for a stripped line, by the cheaper ``raw_decode``
    where that parses the whole line; ``json.loads`` itself decides, and words
    the error, where it does not (extra data, a BOM)."""
    try:
        obj, end = _raw_decode(line)
        if end == len(line):
            return obj
    except json.JSONDecodeError:
        pass
    return json.loads(line)


class gc_paused:
    """Pause the cyclic garbage collector, which would rescan every container a loader
    allocates as the heap grows, and restore its prior state on return or error; the
    state is process-wide, so other threads run without cyclic collection meanwhile. Not
    a ``contextlib`` generator, whose exit allocates after re-enabling and so runs the
    collection the loaded objects are due inside the loader instead of after it."""

    def __enter__(self) -> None:
        self.enabled = gc.isenabled()
        gc.disable()

    def __exit__(self, *exc) -> None:
        if self.enabled:
            gc.enable()


def atomic_write(path: str | Path, data: str | list[bytes | memoryview]) -> None:
    """Write ``data`` (text as UTF-8, or byte chunks in turn) to ``path`` through a uniquely
    named temporary file renamed over it once complete; a failed write leaves the old file
    and no temporary. Unlike ``mkstemp`` (0600), the file gets the umask's permissions."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in [data.encode("utf-8")] if isinstance(data, str) else data:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
