"""CSV artifacts: feature tables, score tables, per-seed and summary reports.

Floats are written with ``repr`` (shortest round-trip form) so identical
computations always serialize to identical bytes. Every table is read
through ``read_rows``, which holds the one rule for header, field count,
repeated rows and the error that names the failing file and line.
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


FEATURE_ID_COLUMNS = ["scan_id", "cohort_label", "crop_index"]
SCORE_COLUMNS = ["scan_id", "cohort_label", "method", "value", "fallback_used"]


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
    """Scan after scan, crops ``0..k-1`` of each, one ``k`` (``crops``) for the
    table: row ``i * k + c`` of ``values`` is crop ``c`` of scan ``i``."""
    kind: str
    names: tuple[str, ...]
    scan_ids: tuple[str, ...]  # one per scan
    labels: tuple[str, ...]  # one per scan
    values: np.ndarray  # (scans * k, features), all finite

    def __post_init__(self):
        scans, rows = len(self.scan_ids), len(self.values)
        if len(self.labels) != scans or not 0 < scans <= rows or rows % scans:
            raise ValueError(f"{self.kind} table of {rows} rows, {scans} scans and "
                             f"{len(self.labels)} labels")
        finite = np.isfinite(self.values).all(axis=1)
        if not finite.all():
            raise ValueError(f"non-finite {self.kind} features in a row of scan "
                             f"{self.scan_ids[int(finite.argmin()) // self.crops]!r}")

    @property
    def crops(self) -> int:
        return len(self.values) // len(self.scan_ids)

    def select_columns(self, keep: list[int]) -> "FeatureTable":
        return replace(self, names=tuple(self.names[i] for i in keep),
                       values=self.values[:, keep])


def write_feature_table(table: FeatureTable, path) -> None:
    """The bytes of one ``csv.writer`` row per table row, written faster:
    only the three ids go through ``csv.writer``, and the floats follow as
    one joined string, since the ``repr`` of a float never needs quoting."""
    with atomic_open(path, newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow([*FEATURE_ID_COLUMNS, *table.names])
        # csv.writer quotes a field that holds a character of its line end, so
        # the ids keep the "\n" end, which is cut off before the floats
        head: list[str] = []
        ids = csv.writer(SimpleNamespace(write=head.append), lineterminator="\n")
        sep = "," if table.names else ""
        k = table.crops
        # repr of a Python float is format_float of the numpy one; a row at a
        # time, as the whole table as Python floats took 6 MB on 1,440 x 129
        for i, row in enumerate(table.values):
            ids.writerow((table.scan_ids[i // k], table.labels[i // k], i % k))
            fh.write(head.pop()[:-1] + sep + ",".join(map(repr, row.tolist())) + "\n")


def read_rows(path, what: str, header: list[str], parse, key) -> tuple[list[str], list]:
    """The header of the CSV table ``path`` (``what`` in errors) and, in file
    order, ``(line, parse(fields))`` for each row, under the one rule for
    every table the package reads:
    - the header starts with the writer's fixed columns ``header``;
    - every row has the header's field count;
    - ``parse(fields)`` is the only place a row is converted;
    - a second row with the same ``key(parse(fields))``, a text naming the
      row, is refused, and so is a table with a header and no rows;
    - every OSError, ValueError (a byte that is not UTF-8 is one) or
      ``csv.Error`` is a DataError naming the file and, past the header, the
      line; each line is decoded on its own, so a bad byte names its line.
    """
    path = Path(path)
    columns, rows = None, {}
    try:
        with open(path, "rb") as fh:
            reader = csv.reader(line.decode("utf-8") for line in fh)
            columns = next(reader, None)
            if columns is None or columns[:len(header)] != header:
                raise DataError(f"{path}: not a {what}")
            for fields in reader:
                if len(fields) != len(columns):
                    raise ValueError(f"{len(fields)} fields, the header {len(columns)}")
                row = parse(fields)
                if (name := key(row)) in rows:
                    raise ValueError(f"repeats {name}")
                rows[name] = (reader.line_num, row)
    except (OSError, ValueError, csv.Error) as exc:
        # the reader has not counted a line that failed to decode
        where = "" if columns is None else \
            f"line {reader.line_num + isinstance(exc, UnicodeDecodeError)}: "
        raise DataError(f"{path}: {where}cannot read {what}: {exc}") from exc
    if not rows:
        raise DataError(f"{path}: empty {what}")
    return columns, list(rows.values())


def read_feature_table(path, kind: str) -> FeatureTable:
    """The ``FeatureTable`` layout, enforced: the first scan's rows set k, and
    row i must be crop ``i % k`` of row ``i - i % k``'s scan, with its label.
    Cells go into one float64 buffer: per-row lists of Python floats would
    take 5.5 times the matrix on a 1,440 x 129 table."""
    values = array("d")

    def parse(fields):
        crop = int(fields[2])
        values.extend(map(float, fields[3:]))
        return fields[0], fields[1], crop

    header, rows = read_rows(path, "feature table", FEATURE_ID_COLUMNS, parse,
                             lambda row: f"crop {row[2]} of scan {row[0]!r}")
    k = next((i for i, (_, row) in enumerate(rows) if row[0] != rows[0][1][0]), len(rows))
    for i, (line_num, (sid, label, crop)) in enumerate(rows):
        owner, owner_label, _ = rows[i - i % k][1]
        if (sid, label, crop) != (owner, owner_label, i % k):
            raise DataError(f"{path}: line {line_num}: crop {crop} of scan {sid!r}, labelled "
                            f"{label!r}, where the layout puts crop {i % k} of scan "
                            f"{owner!r}, labelled {owner_label!r}: scan after scan, each "
                            f"with one label and crops 0..{k - 1} in order")
    if len(rows) % k:
        line_num, (sid, _, _) = rows[len(rows) - len(rows) % k]
        raise DataError(f"{path}: line {line_num}: scan {sid!r} has {len(rows) % k} "
                        f"rows, the first scan {k}")
    names = tuple(header[3:])
    try:
        return FeatureTable(kind=kind, names=names,
                            scan_ids=tuple(row[0] for _, row in rows[::k]),
                            labels=tuple(row[1] for _, row in rows[::k]),
                            values=np.frombuffer(values, dtype=np.float64)
                            .reshape(len(rows), len(names)))
    except ValueError as exc:  # a cell that is not finite
        raise DataError(f"{path}: cannot read feature table: {exc}") from exc


def write_scores_csv(rows: list, path) -> None:
    """rows: (scan_id, cohort_label, method, value, fallback_used)."""
    with csv_writer(path) as writer:
        writer.writerow(SCORE_COLUMNS)
        for sid, label, method, value, fb in rows:
            writer.writerow([sid, label, method, format_float(value), int(fb)])


def read_scores_csv(path) -> dict[str, dict[str, float]]:
    """method -> scan_id -> value."""
    def parse(fields):
        sid, _label, method, value, _fb = fields
        return sid, method, finite_float(value)

    out: dict[str, dict[str, float]] = {}
    for _, (sid, method, value) in read_rows(
            path, "score table", SCORE_COLUMNS, parse,
            lambda row: f"the {row[1]!r} score of scan {row[0]!r}")[1]:
        out.setdefault(method, {})[sid] = value
    return out
