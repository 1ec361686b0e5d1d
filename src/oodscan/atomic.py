"""Crash-safe artifact writes.

Every artifact except the OVF tensors is written in full to ``<name>.tmp``
and then renamed over ``<name>`` with ``os.replace``, so a stage that dies
mid-write leaves the previous file or none, never a torn one. Text
artifacts are UTF-8 whatever the locale.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_open(path, newline: str | None = None):
    """Open ``<path>.tmp`` for UTF-8 text writing; replace ``path`` with it
    once the block ends without error, and delete it otherwise."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", newline=newline, encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_text_atomic(path, text: str) -> None:
    with atomic_open(path) as fh:
        fh.write(text)
