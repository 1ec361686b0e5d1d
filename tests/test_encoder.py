import numpy as np
import pytest
from hypothesis import given, strategies as st

from oodscan.encoder import ToyEncoderConfig, avg_pool3, toy_encode
from oodscan.errors import ConfigError
from oodscan.volumes import Grid


def volume(dims, fill=None, seed=0):
    if fill is None:
        rng = np.random.default_rng(seed)
        data = rng.random(dims).astype(np.float32)
    else:
        data = np.full(dims, fill, dtype=np.float32)
    return Grid(data, (1.0, 1.0, 1.0))


def test_stage_grid_ladder():
    pyr = toy_encode(volume((32, 32, 32)), ToyEncoderConfig())
    assert [s.dims for s in pyr.stages] == [(16,) * 3, (8,) * 3, (4,) * 3, (2,) * 3, (1,) * 3]
    assert pyr.factors == (2, 4, 8, 16, 32)
    assert [s.channels for s in pyr.stages] == [8, 8, 16, 32, 64]


def test_constant_volume_gives_constant_stages():
    pyr = toy_encode(volume((8, 8, 8), fill=0.0), ToyEncoderConfig())
    pe = pyr.stages[0]
    flat = pe.data.reshape(pe.channels, -1)
    # every grid cell sees the same pooled value, so each channel is constant
    assert np.allclose(flat, flat[:, :1])


def test_seed_changes_output_same_seed_reproduces():
    vol = volume((8, 8, 8), seed=3)
    a = toy_encode(vol, ToyEncoderConfig(seed=1))
    b = toy_encode(vol, ToyEncoderConfig(seed=1))
    c = toy_encode(vol, ToyEncoderConfig(seed=2))
    for sa, sb in zip(a.stages, b.stages):
        assert np.array_equal(sa.data, sb.data)
    assert any(not np.array_equal(sa.data, sc.data)
               for sa, sc in zip(a.stages, c.stages))


def test_indivisible_dims_rejected():
    with pytest.raises(ValueError, match="divide"):
        toy_encode(volume((7, 8, 8)), ToyEncoderConfig(patch_size=2))


def test_width_monotonicity_enforced():
    with pytest.raises(ConfigError, match="non-decreasing"):
        ToyEncoderConfig(widths=(8, 16, 8, 32, 64))


@given(st.integers(1, 6).map(lambda k: 2 * k), st.integers(0, 1000))
def test_grid_dims_invariant(dim, seed):
    dims = (dim, dim, dim)
    pyr = toy_encode(volume(dims, seed=seed), ToyEncoderConfig())
    for stage, factor in zip(pyr.stages, pyr.factors):
        expect = tuple(-(-d // factor) for d in dims)
        assert stage.dims == expect


def test_avg_pool_partial_window():
    arr = np.array([1.0, 2.0, 3.0, 4.0, 5.0]).reshape(5, 1, 1)
    pooled = avg_pool3(arr, 2)
    assert pooled.shape == (3, 1, 1)
    assert pooled[:, 0, 0] == pytest.approx([1.5, 3.5, 5.0])


def test_pyramid_values_bounded_by_tanh():
    pyr = toy_encode(volume((16, 16, 16), seed=7), ToyEncoderConfig())
    for stage in pyr.stages:
        assert np.abs(stage.data).max() <= 1.0
