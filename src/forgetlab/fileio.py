"""Atomic file output: write beside the target, then rename over it."""

from __future__ import annotations

import contextlib
import os


@contextlib.contextmanager
def atomic_write(path: str, mode: str = "w", **open_kwargs):
    """Yield a file object whose contents replace ``path`` when the block ends.

    Output goes to a temporary file in the same directory, which is
    flushed to disk and then renamed over ``path`` with :func:`os.replace`.
    If the block raises, the temporary file is removed and any earlier
    ``path`` is left as it was, so no reader ever sees a partial file.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        fh = open(tmp, mode, **open_kwargs)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc
    try:
        with fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
