"""Input errors, line-record input files, the sidecar cache and atomic output files for
every module."""

from __future__ import annotations

import gc
import json
import mmap
import os
import stat
import zlib
from itertools import count
from operator import methodcaller
from pathlib import Path
from typing import Iterator

from . import __version__


class InputError(ValueError):
    """A missing or malformed input; the command line exits 2 for it."""


def numbered_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """(line number from 1, line with its end) for every line of the UTF-8 file ``path``;
    ``\\n``, ``\\r\\n`` and ``\\r`` end a line. Invalid UTF-8 is an ``InputError`` naming
    the line that holds it, or in a source that is not a regular file (a pipe, which cannot
    be read again), the last line read before it (a line end split across two reads can
    make that one line early)."""
    with open(path, encoding="utf-8") as fh:
        numbers = count(1)
        try:
            yield from zip(numbers, fh)
        except UnicodeDecodeError as exc:
            if not stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                # the lines returned (the failed step drew a number too), then those that
                # end ahead of the bad bytes in the chunk that failed to decode
                n = next(numbers) - 3 + len((exc.object[:exc.start] + b".").splitlines())
                raise InputError(f"{path}: invalid UTF-8 after line {n}") from None
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
    still counts (TSV); JSONL readers pass ``str.strip`` to skip it. A file led by a
    byte-order mark, which would join its first word, key or record, is an ``InputError``."""
    for lineno, line in numbered_lines(path):
        if lineno == 1 and line.startswith("\ufeff"):
            raise InputError(f"{path}:1: starts with a byte-order mark (U+FEFF)")
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


def load_cached(path: str | Path, kind: str, key: dict, parse, dump, load):
    """``parse(path)``, kept in the sidecar ``<path>.cache`` for later calls to read back.

    The sidecar is a JSON header line, padded with spaces to a multiple of 64 bytes (the
    payload after it starts aligned in a mapping). The header holds the key (``key``, the
    package version, and the size and CRC-32 of every byte of ``path``: an edit that keeps
    the modification time still shows), the fields of ``dump(value)``, and the size and
    CRC-32 (over the fields' JSON, then the payload) of its payload byte chunks. Only a
    sidecar of the key whose payload, mapped read-only, has that size and CRC-32 reaches
    ``load(payload, fields, cache)``, which returns the value from the fields and the mapped
    payload (``cache``, the sidecar's path, names it in a warning of ``rebuilding``); any
    other is rebuilt with that one warning naming the ``kind`` of cache, and one that cannot
    be written leaves one warning; bytes after the payload are not read. A source that is
    not a regular file (a pipe: it may be readable only once) is parsed with no sidecar."""
    path = Path(path)
    if not stat.S_ISREG(os.stat(path).st_mode):
        return parse(path)
    crc, buf = 0, memoryview(bytearray(1 << 16))
    with open(path, "rb", buffering=0) as fh:
        while n := fh.readinto(buf):
            crc = zlib.crc32(buf[:n], crc)
        key = dict(key, version=__version__, size=fh.tell(), crc32=crc)
    cache = path.with_name(path.name + ".cache")
    if cache.exists():
        try:
            with cache.open("rb") as fh:
                meta = json.loads(head := fh.readline(1 << 16))
                if not isinstance(meta, dict) or {k: meta.get(k) for k in key} != key:
                    raise ValueError("built from other bytes or by another version")
                size, crc = meta.pop("payload_size", None), meta.pop("payload_crc32", None)
                payload = memoryview(mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ))
                payload = payload[len(head):][:size]  # TypeError: a size that is no number
            fields = {k: v for k, v in meta.items() if k not in key}
            seed = zlib.crc32(json.dumps(fields).encode())
            if (len(payload), zlib.crc32(payload, seed)) != (size, crc):
                raise ValueError("truncated or damaged")
        except CACHE_ERRORS as exc:
            rebuilding(cache, kind, exc)
        else:
            return load(payload, fields, cache)
    fields, chunks = dump(value := parse(path))
    crc = zlib.crc32(json.dumps(fields).encode())
    for chunk in chunks:
        crc = zlib.crc32(chunk, crc)
    head = json.dumps(dict(key, **fields, payload_size=sum(map(len, chunks)), payload_crc32=crc))
    head = (head + " " * (-(len(head) + 1) % 64) + "\n").encode()
    try:
        atomic_write(cache, [head, *chunks])
    except OSError as exc:
        _warn("%s: %s cache not written: %s", cache, kind, exc)
    return value


# The errors of sidecar bytes not to be trusted: of opening or mapping the file (OSError), of
# its header's JSON, key and payload check (ValueError; TypeError, a size that is no number;
# RecursionError, JSON nested past the limit) and of ``marshal`` data (ValueError, EOFError).
CACHE_ERRORS = (OSError, ValueError, TypeError, RecursionError, EOFError)


def rebuilding(cache: Path, kind: str, exc: Exception) -> None:
    """The one warning that the sidecar ``cache`` held no ``kind`` cache to trust (``exc``),
    which is built again."""
    _warn("%s: rebuilding the %s cache: %s", cache, kind, exc)


def _warn(message: str, *args) -> None:
    # logging takes about 4 ms to import, which a release-diff command pays only to warn
    import logging
    logging.getLogger(__name__).warning(message, *args)


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
    and no temporary. Unlike ``mkstemp`` (0600), the file gets the umask's permissions; a
    temporary that cannot be made is an ``OSError`` naming ``path``."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:  # of its errno's subclass: FileNotFoundError for no directory
        raise OSError(exc.errno, exc.strerror, str(path)) from None
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in [data.encode("utf-8")] if isinstance(data, str) else data:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
