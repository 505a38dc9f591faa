"""Input errors and atomic output files, shared by every module with file I/O."""

from __future__ import annotations

import os
from pathlib import Path


class InputError(ValueError):
    """A missing or malformed input; the command line exits 2 for it."""


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
