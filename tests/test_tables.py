import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from oodscan.errors import DataError
from oodscan.tables import FeatureTable, read_feature_table, write_feature_table


def feature_table(values: np.ndarray) -> FeatureTable:
    rows, cols = values.shape
    return FeatureTable(kind="deep", names=("ünï", *(f"c{j}" for j in range(1, cols)))[:cols],
                        scan_ids=tuple(f"s{i // 8:04d}" for i in range(rows)),
                        labels=tuple("OOD" if i % 3 else "ID" for i in range(rows)),
                        crop_indices=tuple(i % 8 for i in range(rows)), values=values)


# the extremes of float64 and the points where repr switches notation
EDGES = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
         1e16, 9999999999999998.0, 1e-05, 9.999999999999999e-06, 0.1]


@st.composite
def matrices(draw):
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(0, 5))
    cell = st.sampled_from(EDGES) | st.floats(allow_nan=False, allow_infinity=False)
    cells = draw(st.lists(cell, min_size=rows * cols, max_size=rows * cols))
    return np.array(cells, dtype=np.float64).reshape(rows, cols)


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(matrices())
def test_read_gives_back_the_written_bits(tmp_path, values):
    table = feature_table(values)
    path = tmp_path / "features.csv"
    write_feature_table(table, path)
    back = read_feature_table(path, "deep")
    assert back.values.dtype == np.float64 and back.values.shape == values.shape
    assert back.values.tobytes() == values.tobytes()
    assert (back.names, back.scan_ids, back.labels, back.crop_indices) == \
        (table.names, table.scan_ids, table.labels, table.crop_indices)


def test_text_is_utf8(tmp_path):
    path = tmp_path / "features.csv"
    write_feature_table(feature_table(np.ones((2, 2))), path)
    assert path.read_bytes().startswith("scan_id,cohort_label,crop_index,ünï,".encode())
    assert read_feature_table(path, "deep").names == ("ünï", "c1")


def test_non_numeric_cell_is_a_data_error_naming_the_file(tmp_path):
    path = tmp_path / "features.csv"
    write_feature_table(feature_table(np.ones((3, 2))), path)
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
