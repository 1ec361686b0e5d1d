"""CSV artifacts: feature tables, score tables, per-seed and summary reports.

Floats are written with ``repr`` (shortest round-trip form) so identical
computations always serialize to identical bytes.
"""

from __future__ import annotations

import csv
import math
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

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
    with csv_writer(path) as writer:
        writer.writerow(["scan_id", "cohort_label", "crop_index", *table.names])
        for sid, label, crop, row in zip(table.scan_ids, table.labels,
                                         table.crop_indices, table.values):
            writer.writerow([sid, label, crop, *(format_float(v) for v in row)])


def read_feature_table(path, kind: str) -> FeatureTable:
    path = Path(path)
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or header[:3] != ["scan_id", "cohort_label", "crop_index"]:
                raise DataError(f"{path}: not a feature table")
            names = tuple(header[3:])
            scan_ids, labels, crops, values = [], [], [], []
            for line in reader:
                if len(line) != len(header):
                    raise DataError(f"{path}: line {reader.line_num} has "
                                    f"{len(line)} fields, the header {len(header)}")
                scan_ids.append(line[0])
                labels.append(line[1])
                crops.append(int(line[2]))
                values.append([float(v) for v in line[3:]])
        if not scan_ids:
            raise DataError(f"{path}: empty feature table")
        return FeatureTable(kind=kind, names=names, scan_ids=tuple(scan_ids),
                            labels=tuple(labels), crop_indices=tuple(crops),
                            values=np.array(values, dtype=np.float64))
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
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or header[0] != "scan_id":
                raise DataError(f"{path}: not a score table")
            for sid, _label, method, value, _fb in reader:
                out.setdefault(method, {})[sid] = finite_float(value)
    except OSError as exc:
        raise DataError(f"cannot read scores {path}: {exc}") from exc
    except ValueError as exc:
        raise DataError(f"{path}: malformed score table: {exc}") from exc
    return out
