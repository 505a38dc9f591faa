"""Input errors, line-record input files, sidecar keys and atomic output files for every
module."""

from __future__ import annotations

import gc
import json
import os
import stat
import zlib
from operator import methodcaller
from pathlib import Path
from typing import Iterator


class InputError(ValueError):
    """A missing or malformed input; the command line exits 2 for it."""


def numbered_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """(line number from 1, line with its end) for every line of the UTF-8 file ``path``;
    ``\\n``, ``\\r\\n`` and ``\\r`` end a line. Invalid UTF-8 is an ``InputError`` naming
    the line that holds it."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield from enumerate(fh, start=1)
        except UnicodeDecodeError:
            # text mode decodes 8 KiB ahead of the line it returns: find the line in bytes
            for lineno, raw in enumerate(Path(path).read_bytes().splitlines(), start=1):
                try:
                    raw.decode("utf-8")
                except UnicodeDecodeError:
                    raise InputError(f"{path}:{lineno}: invalid UTF-8") from None
            raise


def read_lines(path: str | Path,
               strip=methodcaller("rstrip", "\n")) -> Iterator[tuple[int, str]]:
    """(line number from 1, ``strip(line)``) for each line of the UTF-8 file ``path`` that
    ``strip`` leaves non-empty. The default drops only the ``\\n``, so a line of whitespace
    still counts (TSV); JSONL readers pass ``str.strip`` to skip it."""
    for lineno, line in numbered_lines(path):
        line = strip(line)
        if line:
            yield lineno, line


_scan_once = json.JSONDecoder().scan_once


def decode_json(line: str):
    """``json.loads(line)`` for a stripped line, by one call of the decoder's scanner (the
    C one where it is built) where that parses the whole line; ``json.loads`` itself
    decides, and words the error, where it does not (extra data, a BOM)."""
    try:
        obj, end = _scan_once(line, 0)
        if end == len(line):
            return obj
    except (StopIteration, json.JSONDecodeError):
        pass
    return json.loads(line)


def source_key(path: str | Path) -> dict | None:
    """The byte size and CRC-32 over every byte of the regular file ``path``, which a sidecar
    built from it must hold (an edit that keeps the modification time still shows), or None
    for a source that is not a regular file (a pipe, a device), which is not read here: it
    may be readable only once."""
    if not stat.S_ISREG(os.stat(path).st_mode):
        return None
    crc, buf = 0, memoryview(bytearray(1 << 16))
    with open(path, "rb", buffering=0) as fh:
        while n := fh.readinto(buf):
            crc = zlib.crc32(buf[:n], crc)
        return {"size": fh.tell(), "crc32": crc}


class gc_paused:
    """Pause the cyclic garbage collector, which would rescan every container a loader
    allocates as the heap grows, and restore its prior state on return or error; the
    state is process-wide, so other threads run without cyclic collection meanwhile. Not
    a ``contextlib`` generator, whose exit allocates after re-enabling and so runs the
    collection the loaded objects are due inside the loader instead of after it.

    A loader's pause alone only defers that collection to the first allocation after
    the loader returns, which then traverses everything it loaded; ``cli.main`` holds
    one pause for a command's whole run, so nothing a command loads is traversed."""

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
