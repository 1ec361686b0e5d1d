"""CSV artifacts: feature tables, score tables, per-seed and summary reports.

Floats are written with ``repr`` (shortest round-trip form) so identical
computations always serialize to identical bytes.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError
from .regions import FeatureVector


def _fmt(v: float) -> str:
    return repr(float(v))


@dataclass(frozen=True)
class FeatureTable:
    kind: str
    names: tuple[str, ...]
    # one row per (scan, crop); radiomics rows use crop_index 0
    scan_ids: tuple[str, ...]
    labels: tuple[str, ...]
    crop_indices: tuple[int, ...]
    values: np.ndarray  # (rows, features)

    def select_columns(self, keep: list[int]) -> "FeatureTable":
        return FeatureTable(
            kind=self.kind,
            names=tuple(self.names[i] for i in keep),
            scan_ids=self.scan_ids,
            labels=self.labels,
            crop_indices=self.crop_indices,
            values=self.values[:, keep],
        )


def table_from_vectors(kind: str, vectors: list[FeatureVector],
                       labels_by_scan: dict[str, str]) -> FeatureTable:
    if not vectors:
        raise DataError("no feature vectors to tabulate")
    names = vectors[0].names
    for v in vectors:
        if v.names != names:
            raise DataError("inconsistent feature names across scans")
    return FeatureTable(
        kind=kind,
        names=names,
        scan_ids=tuple(v.scan_id for v in vectors),
        labels=tuple(labels_by_scan[v.scan_id] for v in vectors),
        crop_indices=tuple(v.crop_index for v in vectors),
        values=np.stack([v.values for v in vectors]),
    )


def write_feature_table(table: FeatureTable, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["scan_id", "cohort_label", "crop_index", *table.names])
        for sid, label, crop, row in zip(table.scan_ids, table.labels,
                                         table.crop_indices, table.values):
            writer.writerow([sid, label, crop, *(_fmt(v) for v in row)])


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
                scan_ids.append(line[0])
                labels.append(line[1])
                crops.append(int(line[2]))
                values.append([float(v) for v in line[3:]])
    except OSError as exc:
        raise DataError(f"cannot read feature table {path}: {exc}") from exc
    except (ValueError, IndexError) as exc:
        raise DataError(f"{path}: malformed feature table: {exc}") from exc
    if not scan_ids:
        raise DataError(f"{path}: empty feature table")
    return FeatureTable(kind=kind, names=names, scan_ids=tuple(scan_ids),
                        labels=tuple(labels), crop_indices=tuple(crops),
                        values=np.array(values, dtype=np.float64))


def write_scores_csv(rows: list, path) -> None:
    """rows: (scan_id, cohort_label, method, value, fallback_used)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["scan_id", "cohort_label", "method", "value", "fallback_used"])
        for sid, label, method, value, fb in rows:
            writer.writerow([sid, label, method, _fmt(value), int(fb)])


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
                out.setdefault(method, {})[sid] = float(value)
    except OSError as exc:
        raise DataError(f"cannot read scores {path}: {exc}") from exc
    except ValueError as exc:
        raise DataError(f"{path}: malformed score table: {exc}") from exc
    return out
