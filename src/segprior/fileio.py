"""Whole-file writes that leave either the old file or the new one."""

import contextlib
import os


@contextlib.contextmanager
def atomic_open(path, mode="w", **kwargs):
    """Open a temporary file beside ``path`` and move it over ``path`` on success.

    The temporary file lives in the same directory, so ``os.replace`` is an
    atomic rename.  If the block raises, the temporary file is removed and
    any previous file at ``path`` is left as it was.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
