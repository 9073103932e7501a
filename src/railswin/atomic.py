"""All-or-nothing artifact writes."""

from __future__ import annotations

import contextlib
import os


@contextlib.contextmanager
def atomic_open(path, mode="w"):
    """Open ``path.tmp`` for writing and ``os.replace`` it onto ``path`` on success.

    If the block raises, ``path`` keeps its previous content (or stays
    absent) and the temporary file is removed.
    """
    tmp = f"{path}.tmp"
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
