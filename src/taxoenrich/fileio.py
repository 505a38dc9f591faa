"""Input errors and atomic output files, shared by every module with file I/O."""

from __future__ import annotations

import os
from pathlib import Path


class InputError(ValueError):
    """A missing or malformed input; the command line exits 2 for it."""


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` (UTF-8) through a uniquely named temporary file
    renamed over it once complete; a failed write leaves the old file and no temporary.
    Unlike ``mkstemp`` (0600), the file gets the umask's permissions, as with ``open``."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
