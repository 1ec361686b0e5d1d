"""Crash-safe artifact writes.

Every artifact except the OVF tensors is written in full to ``<name>.tmp``
and then renamed over ``<name>`` with ``os.replace``, so a stage that dies
mid-write leaves the previous file or none, never a torn one. Text
artifacts are UTF-8 whatever the locale.

OVF tensors are rewritten in place: a rename per tensor made ``gen`` plus
``encode`` 25.6 % slower on the ``sep`` benchmark (``BENCH_13.json``). A
torn tensor is caught: ``run_stage`` deletes a stage's stamp before running
it, so the next ``pipeline`` re-runs it, and a stage run by hand fails on
the exact payload-length check of ``ovf.read_ovf``. Nothing is fsynced:
this covers a process that dies, not a power loss.
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
