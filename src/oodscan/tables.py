"""CSV artifacts: feature tables, score tables, per-seed and summary reports.

Floats are written with ``repr`` (shortest round-trip form) so identical
computations always serialize to identical bytes.
"""

from __future__ import annotations

import csv
import math
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .atomic import atomic_open
from .errors import DataError


def format_float(v: float) -> str:
    """Shortest round-trip form, so equal floats give equal bytes."""
    return repr(float(v))


@contextmanager
def csv_writer(path):
    """A ``csv.writer`` with "\n" line ends whose file replaces ``path``
    only once it is complete."""
    with atomic_open(path, newline="") as fh:
        yield csv.writer(fh, lineterminator="\n")


def finite_float(text: str) -> float:
    """``float(text)`` that also rejects nan and infinities with ValueError."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


@dataclass(frozen=True)
class FeatureTable:
    kind: str
    names: tuple[str, ...]
    # one row per (scan, crop); radiomics rows use crop_index 0
    scan_ids: tuple[str, ...]
    labels: tuple[str, ...]
    crop_indices: tuple[int, ...]
    values: np.ndarray  # (rows, features), all finite

    def __post_init__(self):
        finite = np.isfinite(self.values).all(axis=1)
        if not finite.all():
            raise ValueError(f"non-finite {self.kind} features in a row of scan "
                             f"{self.scan_ids[int(finite.argmin())]!r}")

    def select_columns(self, keep: list[int]) -> "FeatureTable":
        return replace(self, names=tuple(self.names[i] for i in keep),
                       values=self.values[:, keep])


def write_feature_table(table: FeatureTable, path) -> None:
    """The bytes of one ``csv.writer`` row per table row, written faster:
    only the three ids go through ``csv.writer``, and the floats follow as
    one joined string, since the ``repr`` of a float never needs quoting."""
    with atomic_open(path, newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(
            ["scan_id", "cohort_label", "crop_index", *table.names])
        # csv.writer quotes a field that holds a character of its line end, so
        # the ids keep the "\n" end, which is cut off before the floats
        head: list[str] = []
        ids = csv.writer(SimpleNamespace(write=head.append), lineterminator="\n")
        sep = "," if table.names else ""
        # repr of a Python float is format_float of the numpy one; a row at a
        # time, as the whole table as Python floats took 6 MB on 1,440 x 129
        for sid, label, crop, row in zip(table.scan_ids, table.labels,
                                         table.crop_indices, table.values):
            ids.writerow((sid, label, crop))
            fh.write(head.pop()[:-1] + sep + ",".join(map(repr, row.tolist())) + "\n")


def read_feature_table(path, kind: str) -> FeatureTable:
    """Cells are parsed into one float64 buffer: per-row lists of Python
    floats would take 5.5 times the matrix on a 1,440 x 129 table.

    Every scan must have one row for each crop index 0..k-1, with the same k
    for all scans.
    """
    path = Path(path)
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or header[:3] != ["scan_id", "cohort_label", "crop_index"]:
                raise DataError(f"{path}: not a feature table")
            names = tuple(header[3:])
            scan_ids, labels, crops, values = [], [], [], array("d")
            scan_crops: dict[str, tuple[int, set[int]]] = {}  # first line, crops
            for line in reader:
                if len(line) != len(header):
                    raise DataError(f"{path}: line {reader.line_num} has "
                                    f"{len(line)} fields, the header {len(header)}")
                crop = int(line[2])
                seen = scan_crops.setdefault(line[0], (reader.line_num, set()))[1]
                if crop in seen:
                    raise DataError(f"{path}: line {reader.line_num} repeats crop "
                                    f"{crop} of scan {line[0]!r}")
                seen.add(crop)
                scan_ids.append(line[0])
                labels.append(line[1])
                crops.append(crop)
                values.extend(map(float, line[3:]))
        if not scan_ids:
            raise DataError(f"{path}: empty feature table")
        k = len(scan_crops[scan_ids[0]][1])
        for sid, (line_num, seen) in scan_crops.items():
            if seen != set(range(k)):
                raise DataError(f"{path}: line {line_num}: scan {sid!r} has crop indices "
                                f"{sorted(seen)}, not 0..{k - 1} (the first scan has "
                                f"{k} rows)")
        return FeatureTable(kind=kind, names=names, scan_ids=tuple(scan_ids),
                            labels=tuple(labels), crop_indices=tuple(crops),
                            values=np.frombuffer(values, dtype=np.float64)
                            .reshape(len(scan_ids), len(names)))
    except OSError as exc:
        raise DataError(f"cannot read feature table {path}: {exc}") from exc
    except ValueError as exc:
        raise DataError(f"{path}: malformed feature table: {exc}") from exc


def write_scores_csv(rows: list, path) -> None:
    """rows: (scan_id, cohort_label, method, value, fallback_used)."""
    with csv_writer(path) as writer:
        writer.writerow(["scan_id", "cohort_label", "method", "value", "fallback_used"])
        for sid, label, method, value, fb in rows:
            writer.writerow([sid, label, method, format_float(value), int(fb)])


def read_scores_csv(path) -> dict[str, dict[str, float]]:
    """method -> scan_id -> value."""
    out: dict[str, dict[str, float]] = {}
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or header[0] != "scan_id":
                raise DataError(f"{path}: not a score table")
            for sid, _label, method, value, _fb in reader:
                scans = out.setdefault(method, {})
                if sid in scans:
                    raise DataError(f"{path}: line {reader.line_num} repeats the "
                                    f"{method} score of scan {sid!r}")
                scans[sid] = finite_float(value)
    except OSError as exc:
        raise DataError(f"cannot read scores {path}: {exc}") from exc
    except ValueError as exc:
        raise DataError(f"{path}: malformed score table: {exc}") from exc
    return out
