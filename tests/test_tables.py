import csv
import io
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from oodscan.errors import DataError
from oodscan.report import read_per_seed_csv
from oodscan.tables import (FeatureTable, read_feature_table, read_scores_csv,
                            write_feature_table, write_scores_csv)


def feature_table(values: np.ndarray, k: int = 8) -> FeatureTable:
    """The rows of ``values`` as scans of ``k`` crops each."""
    scans, cols = len(values) // k, values.shape[1]
    return FeatureTable(kind="deep", names=("ünï", *(f"c{j}" for j in range(1, cols)))[:cols],
                        scan_ids=tuple(f"s{i:04d}" for i in range(scans)),
                        labels=tuple("OOD" if i % 3 else "ID" for i in range(scans)),
                        values=values)


# the extremes of float64 and the points where repr switches notation
EDGES = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
         1e16, 9999999999999998.0, 1e-05, 9.999999999999999e-06, 0.1]


@st.composite
def matrices(draw, k):
    rows, cols = draw(st.integers(1, 3)) * k, draw(st.integers(0, 5))
    cell = st.sampled_from(EDGES) | st.floats(allow_nan=False, allow_infinity=False)
    cells = draw(st.lists(cell, min_size=rows * cols, max_size=rows * cols))
    return np.array(cells, dtype=np.float64).reshape(rows, cols)


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_read_gives_back_the_written_bits(tmp_path, data):
    for k in (1, 3, 8):
        values = data.draw(matrices(k))
        table = feature_table(values, k)
        path = tmp_path / "features.csv"
        write_feature_table(table, path)
        back = read_feature_table(path, "deep")
        assert back.values.dtype == np.float64 and back.values.shape == values.shape
        assert back.values.tobytes() == values.tobytes()
        assert (back.names, back.scan_ids, back.labels, back.crops) == \
            (table.names, table.scan_ids, table.labels, k)


def csv_writer_bytes(table: FeatureTable) -> bytes:
    """The table as one ``csv.writer`` row per line, every float its repr."""
    out = io.StringIO(newline="")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["scan_id", "cohort_label", "crop_index", *table.names])
    k = table.crops
    for i, row in enumerate(table.values):
        writer.writerow([table.scan_ids[i // k], table.labels[i // k], i % k,
                         *map(repr, row.tolist())])
    return out.getvalue().encode("utf-8")


@pytest.mark.parametrize("cols", [0, 1, 3])
def test_rows_are_the_bytes_of_csv_writer_for_ids_that_need_quoting(tmp_path, cols):
    ids = ("plain", "a,b", 'say "hi"', "two\nlines", " ", "ünï")
    values = np.random.default_rng(cols).normal(size=(len(ids), cols)) * 1e5
    table = FeatureTable(kind="deep", names=tuple(f"n,{j}" for j in range(cols)),
                         scan_ids=ids, labels=tuple(reversed(ids)), values=values)
    path = tmp_path / "features.csv"
    write_feature_table(table, path)
    assert path.read_bytes() == csv_writer_bytes(table)
    back = read_feature_table(path, "deep")
    assert (back.scan_ids, back.labels, back.names) == (table.scan_ids, table.labels,
                                                        table.names)
    assert back.values.tobytes() == values.tobytes()


def rewrite_lines(path, edit):
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(edit(lines)), encoding="utf-8")


# the table's lines: the header, then scan s0000 (ID) on lines 2-9 and scan
# s0001 (OOD) on lines 10-17, crops 0..7 in order
@pytest.mark.parametrize("edit, line, what", [
    pytest.param(lambda lines: lines + [lines[3]], 18,
                 "cannot read feature table: repeats crop 2 of scan 's0000'", id="repeated-row"),
    pytest.param(lambda lines: lines[:-1], 10, "scan 's0001' has 7 rows, the first scan 8",
                 id="scan-short-a-crop"),
    pytest.param(lambda lines: lines[:9] + [lines[9].replace(",0,", ",8,", 1)] + lines[10:],
                 10, "crop 8 of scan 's0001', labelled 'OOD', where the layout puts crop 0 "
                 "of scan 's0001', labelled 'OOD'", id="crop-index-out-of-range"),
    pytest.param(lambda lines: lines[:1] + [ln for pair in zip(lines[1:9], lines[9:])
                                            for ln in pair],
                 4, "crop 1 of scan 's0000', labelled 'ID', where the layout puts crop 0 "
                 "of scan 's0000', labelled 'ID': scan after scan, each with one label and "
                 "crops 0..0 in order",
                 id="scans-interleaved"),
    pytest.param(lambda lines: lines[:10] + [lines[11], lines[10]] + lines[12:],
                 11, "crop 2 of scan 's0001', labelled 'OOD', where the layout puts crop 1 "
                 "of scan 's0001', labelled 'OOD'", id="crops-out-of-order"),
    pytest.param(lambda lines: lines[:12] + [lines[12].replace(",OOD,", ",ID,", 1)]
                 + lines[13:], 13, "crop 3 of scan 's0001', labelled 'ID', where the layout "
                 "puts crop 3 of scan 's0001', labelled 'OOD'", id="two-labels-in-a-scan"),
])
def test_rows_off_one_row_per_crop_are_a_data_error_naming_the_line(tmp_path, edit, line,
                                                                    what):
    path = tmp_path / "features.csv"
    write_feature_table(feature_table(np.ones((16, 2))), path)
    rewrite_lines(path, edit)
    with pytest.raises(DataError, match=re.escape(f"{path}: line {line}: {what}")):
        read_feature_table(path, "deep")


@pytest.mark.parametrize("scans, labels, rows", [(2, 2, 3), (2, 1, 4), (3, 3, 0)])
def test_rows_that_do_not_split_into_the_scans_are_refused(scans, labels, rows):
    with pytest.raises(ValueError, match=f"deep table of {rows} rows, {scans} scans and "
                                         f"{labels} labels"):
        FeatureTable(kind="deep", names=("c0",), scan_ids=tuple(f"s{i}" for i in range(scans)),
                     labels=("ID",) * labels, values=np.ones((rows, 1)))


def test_text_is_utf8(tmp_path):
    path = tmp_path / "features.csv"
    write_feature_table(feature_table(np.ones((2, 2)), k=1), path)
    assert path.read_bytes().startswith("scan_id,cohort_label,crop_index,ünï,".encode())
    assert read_feature_table(path, "deep").names == ("ünï", "c1")


def test_non_numeric_cell_is_a_data_error_naming_the_file(tmp_path):
    path = tmp_path / "features.csv"
    write_feature_table(feature_table(np.ones((3, 2)), k=3), path)
    text = path.read_text(encoding="utf-8").splitlines(keepends=True)
    text[2] = text[2].replace(",1.0\n", ",abc\n")
    path.write_text("".join(text), encoding="utf-8")
    with pytest.raises(DataError, match=re.escape(str(path)) + ".*'abc'"):
        read_feature_table(path, "deep")


def test_read_peaks_below_twice_the_matrix(tmp_path):
    # sep's deep table: 180 scans x 8 crops, 129 columns. Lists of Python
    # floats peaked at 5.5 times the matrix, one float64 buffer at 1.3 times
    values = np.random.default_rng(5).normal(size=(1440, 129))
    path = tmp_path / "features.csv"
    write_feature_table(feature_table(values), path)
    tracemalloc.start()
    try:
        table = read_feature_table(path, "deep")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.values.tobytes() == values.tobytes()
    assert peak < 2 * values.nbytes, f"{peak / values.nbytes:.2f} x the matrix"


def write_per_seed(path):
    path.write_text("seed,method,cohort,auroc,fpr95\n" + "".join(
        f"{seed},RF-Deep,kidney,50.0,10.0\n" for seed in range(3)), encoding="utf-8")


# name -> (write a well-formed table, read it); every table has its header on
# line 1, its first row on line 2 and a number in field 3 of each row
READERS = {
    "features": (lambda path: write_feature_table(feature_table(np.ones((8, 2))), path),
                 lambda path: read_feature_table(path, "deep")),
    "scores": (lambda path: write_scores_csv(
        [(f"s{i}", "ID", "energy", float(i), False) for i in range(3)], path),
               read_scores_csv),
    "per-seed": (write_per_seed, read_per_seed_csv),
}


def set_field(lines, field, value, line=2):
    fields = lines[line - 1].rstrip(b"\n").split(b",")
    fields[field] = value
    return [*lines[:line - 1], b",".join(fields) + b"\n", *lines[line:]]


# (edit of the file's lines, the line the error names or None); a nan in a
# feature table is refused by FeatureTable, which names the scan instead
FAULTS = {
    "header-only": (lambda lines: lines[:1], None),
    "short-row": (lambda lines: [lines[0], lines[1].rsplit(b",", 1)[0] + b"\n", *lines[2:]],
                  2),
    "extra-field": (lambda lines: [lines[0], lines[1][:-1] + b",1\n", *lines[2:]], 2),
    "repeated-key": (lambda lines: lines + [lines[1]], "last"),
    "non-number": (lambda lines: set_field(lines, 3, b"abc"), 2),
    "nan": (lambda lines: set_field(lines, 3, b"nan"), 2),
    "not-utf8": (lambda lines: set_field(lines, 1, b"\xff"), 2),
    # past the first 8 KB, which a text-mode reader decodes as one chunk
    "not-utf8-past-8k": (lambda lines: set_field(set_field(lines, 3, b"0." + b"0" * 9000),
                                                 1, b"\xff", line=3), 3),
    # past csv's default field size limit of 131,072 characters
    "huge-field": (lambda lines: set_field(lines, 3, b"1" * 200_000), 2),
}


@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("reader", READERS)
def test_every_reader_refuses_a_malformed_table_naming_the_file(tmp_path, reader, fault):
    write, read = READERS[reader]
    edit, line = FAULTS[fault]
    path = tmp_path / "table.csv"
    write(path)
    lines = edit(path.read_bytes().splitlines(keepends=True))
    path.write_bytes(b"".join(lines))
    if line == "last":
        line = len(lines)
    where = re.escape(str(path)) + (f": line {line}: " if line else "")
    if (reader, fault) == ("features", "nan"):
        where = re.escape(str(path)) + ".*scan 's0000'"
    with pytest.raises(DataError, match=where):
        read(path)


@pytest.mark.parametrize("reader", ["scores", "per-seed"])
def test_a_column_past_the_writers_is_refused(tmp_path, reader):
    write, read = READERS[reader]
    path = tmp_path / "table.csv"
    write(path)
    path.write_bytes(b"".join(ln[:-1] + b",x\n"
                              for ln in path.read_bytes().splitlines(keepends=True)))
    with pytest.raises(DataError, match=re.escape(f"{path}: line 2: ")):
        read(path)
