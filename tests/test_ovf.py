import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from oodscan.errors import DataError
from oodscan.manifest import ScanRecord, load_logits, load_pyramid
from oodscan.ovf import DTYPE_F32, MAGIC, read_ovf, write_ovf
from oodscan.volumes import Grid


def small_volume(values, spacing=(1.0, 1.0, 1.0)):
    data = np.asarray(values, dtype=np.float32)
    return Grid(data, spacing)


def test_single_voxel_file_size_matches_layout(tmp_path):
    # layout arithmetic: magic 8 + dtype 1 + ndim 1 + reserved 4
    #                  + ndim*4 dim words + 3*4 spacing + payload
    expected = 8 + 1 + 1 + 4 + 3 * 4 + 3 * 4 + 1 * 4
    p = tmp_path / "one.ovf"
    write_ovf(small_volume([[[0.0]]]), p)
    assert p.stat().st_size == expected == 42


def test_round_trip_volume(tmp_path):
    vol = small_volume(np.arange(24).reshape(2, 3, 4), spacing=(0.5, 1.0, 2.0))
    p = tmp_path / "v.ovf"
    write_ovf(vol, p)
    back = read_ovf(p)
    assert back.data.dtype == np.float32
    assert back.dims == vol.dims
    assert back.spacing == pytest.approx(vol.spacing)
    assert np.array_equal(back.data, vol.data)


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5)),
    st.integers(0, 2**32 - 1),
)
def test_round_trip_random_tensors(tmp_path, dims, seed):
    rng = np.random.default_rng(seed)
    vol = Grid(rng.normal(size=dims).astype(np.float32))
    mask = Grid(rng.integers(0, 2, size=dims).astype(np.uint8))
    logits = Grid(rng.normal(size=(2,) + dims).astype(np.float32))
    for i, tensor in enumerate((vol, mask, logits)):
        p = tmp_path / f"t{i}.ovf"
        write_ovf(tensor, p)
        back = read_ovf(p)
        assert np.array_equal(np.asarray(back.data), np.asarray(tensor.data))


def test_non_finite_payload_rejected(tmp_path):
    data = np.zeros((1, 1, 1), dtype=np.float32)
    vol = small_volume(data)
    object.__setattr__(vol, "data", np.array([[[np.nan]]], dtype=np.float32))
    with pytest.raises(DataError, match="non-finite payload"):
        write_ovf(vol, tmp_path / "bad.ovf")


def test_bad_magic(tmp_path):
    p = tmp_path / "x.ovf"
    write_ovf(small_volume([[[1.0]]]), p)
    raw = bytearray(p.read_bytes())
    raw[0] ^= 0xFF
    p.write_bytes(bytes(raw))
    with pytest.raises(DataError, match="bad magic"):
        read_ovf(p)


def test_unknown_dtype_code(tmp_path):
    p = tmp_path / "x.ovf"
    write_ovf(small_volume([[[1.0]]]), p)
    raw = bytearray(p.read_bytes())
    raw[8] = 9
    p.write_bytes(bytes(raw))
    with pytest.raises(DataError, match="unknown dtype"):
        read_ovf(p)


def test_payload_length_mismatch(tmp_path):
    # header declares 2x2x2 f32 but carries 7 values
    import struct
    p = tmp_path / "short.ovf"
    header = MAGIC + struct.pack("<BB4x", DTYPE_F32, 3) + struct.pack("<3I", 2, 2, 2)
    header += struct.pack("<3f", 1.0, 1.0, 1.0)
    p.write_bytes(header + np.zeros(7, dtype=np.float32).tobytes())
    with pytest.raises(DataError, match="payload length mismatch"):
        read_ovf(p)


def test_trailing_bytes_rejected(tmp_path):
    p = tmp_path / "long.ovf"
    write_ovf(small_volume([[[1.0]]]), p)
    p.write_bytes(p.read_bytes() + b"\x00")
    with pytest.raises(DataError, match="payload length mismatch"):
        read_ovf(p)


def write_stage_files(tmp_path, base_spacing, rng):
    """Five stage files of a 32^3 pyramid and a record that lists them."""
    factors = (2, 4, 8, 16, 32)
    widths = (8, 8, 16, 32, 64)
    stages, paths = [], []
    for i, (f, w) in enumerate(zip(factors, widths)):
        d = (32 // f,) * 3
        stages.append(Grid(rng.normal(size=(w,) + d).astype(np.float32),
                           tuple(s * f for s in base_spacing)))
        paths.append(tmp_path / f"s_p{i}.ovf")
        write_ovf(stages[-1], paths[-1])
    rec = ScanRecord(scan_id="s", cohort_label="ID", cohort_name="c",
                     volume=None, mask=None, logits=None, pyramid=tuple(paths))
    return rec, stages, factors


def test_pyramid_stage_round_trip_preserves_factors(tmp_path):
    rec, stages, factors = write_stage_files(tmp_path, (1.0, 1.0, 1.0),
                                             np.random.default_rng(0))
    back = load_pyramid(rec, Grid(np.zeros((32, 32, 32), dtype=np.float32)))
    assert back.factors == factors
    assert back.volume_dims == (32, 32, 32)
    for a, b in zip(back.stages, stages):
        assert np.array_equal(a.data, b.data)


def test_factor_recovery_with_anisotropic_spacing(tmp_path):
    base = (0.7, 1.3, 2.1)
    rec, _, factors = write_stage_files(tmp_path, base, np.random.default_rng(1))
    volume = Grid(np.zeros((32, 32, 32), dtype=np.float32), base)
    assert load_pyramid(rec, volume).factors == factors


def test_logit_channel_check(tmp_path):
    p = tmp_path / "l.ovf"
    write_ovf(Grid(np.zeros((3, 1, 1, 1), dtype=np.float32)), p)
    rec = ScanRecord(scan_id="s", cohort_label="ID", cohort_name="c",
                     volume=None, mask=None, logits=p)
    with pytest.raises(DataError, match="2-channel"):
        load_logits(rec)


@pytest.mark.parametrize("data, spacing", [
    (np.zeros((2, 2, 2, 2), dtype=np.uint8), (1.0, 1.0, 1.0)),  # 4-D mask
    (np.full((2, 2, 2), 2, dtype=np.uint8), (1.0, 1.0, 1.0)),  # mask value > 1
    (np.array([[[np.nan]]]), (1.0, 1.0, 1.0)),
    (np.full((2, 1, 1, 1), np.inf, dtype=np.float32), (1.0, 1.0, 1.0)),
    (np.zeros((2, 0, 2), dtype=np.float32), (1.0, 1.0, 1.0)),  # zero-length axis
    (np.zeros((0, 2, 2), dtype=np.uint8), (1.0, 1.0, 1.0)),
    (np.zeros((2, 2), dtype=np.float32), (1.0, 1.0, 1.0)),  # not 3-D or 4-D
    (np.zeros((1, 1, 1, 1, 1), dtype=np.float32), (1.0, 1.0, 1.0)),
    (np.zeros((1, 1, 1), dtype=np.float32), (1.0, 0.0, 1.0)),
    (np.zeros((1, 1, 1), dtype=np.float32), (1.0, -2.0, 1.0)),
    (np.zeros((1, 1, 1), dtype=np.float32), (1.0, 1.0, np.inf)),
    (np.zeros((1, 1, 1), dtype=np.float32), (1.0, np.nan, 1.0)),
    (np.zeros((1, 1, 1), dtype=np.float32), (1.0, 1.0)),
])
def test_grid_rejects_invalid_input(data, spacing):
    with pytest.raises(ValueError):
        Grid(data, spacing)


def test_grid_derives_dims_and_channels():
    stage = Grid(np.zeros((5, 2, 3, 4)))
    assert (stage.dims, stage.channels, stage.data.dtype) == ((2, 3, 4), 5, np.float32)
    mask = Grid(np.ones((2, 3, 4), dtype=bool))
    assert (mask.dims, mask.channels, mask.data.dtype) == ((2, 3, 4), 1, np.uint8)
    data = np.zeros((2, 2, 2), dtype=np.float32)
    assert Grid(data).data is data  # no copy when the dtype already matches
