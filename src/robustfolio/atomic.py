"""Crash-safe file writes: write beside the target, then move into place."""

from __future__ import annotations

import contextlib
import os


@contextlib.contextmanager
def atomic_write(path, mode: str = "w"):
    """Open ``<path>.tmp`` for writing and ``os.replace`` it onto ``path``
    when the block completes.  A crash part-way leaves the previous file
    (or none) in place; a block that raises removes the temporary file."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
