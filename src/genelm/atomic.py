"""Atomic file writes: every output file of the package is written here."""

import contextlib
import os


@contextlib.contextmanager
def atomic_write(path: str | os.PathLike, mode: str = "w"):
    """Yield a file opened for writing ("w": ASCII text, "wb": bytes) next to
    `path`; on a clean exit fsync it and rename it over `path`, on a failure
    remove it, so `path` holds its previous or its complete new contents."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "ascii") as f:
            yield f
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
