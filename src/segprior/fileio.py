"""Whole-file writes that leave either the old file or the new one."""

import contextlib
import json
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


def write_json(path, obj):
    """Write obj to path as JSON indented by one space, with a final newline,
    through ``atomic_open``.  A NaN or infinite float raises ValueError and
    leaves path as it was.  Returns path."""
    with atomic_open(path, encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1, allow_nan=False)
        fh.write("\n")
    return path
