import math
from decimal import Decimal, getcontext

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oodscan.scores import (
    FALLBACK_TOP_VOXELS,
    ScoreConfig,
    _softmax_pair,
    _voxel_scores,
    scan_score,
)
from oodscan.volumes import Grid

getcontext().prec = 60


def energy_decimal(l0: float, l1: float, t: float = 1.0) -> float:
    """High-precision oracle: -T * ln(exp(l0/T) + exp(l1/T))."""
    T = Decimal(repr(t))
    total = (Decimal(repr(l0)) / T).exp() + (Decimal(repr(l1)) / T).exp()
    return float(-T * total.ln())


def voxel_softmax(l0: float, l1: float) -> tuple[float, float]:
    """``_softmax_pair`` of one voxel's logits."""
    p0, p1 = _softmax_pair(np.array([l0]), np.array([l1]))
    return float(p0[0]), float(p1[0])


def voxel_scores(logits: tuple[float, float], cfg: ScoreConfig) -> float:
    """``_voxel_scores`` of one voxel's logits."""
    return float(_voxel_scores(np.array([logits[0]]), np.array([logits[1]]), cfg)[0])


def logit_volume(l0, l1, dims=(2, 2, 2)):
    data = np.stack([np.full(dims, l0), np.full(dims, l1)]).astype(np.float32)
    return Grid(data)


def full_mask(dims=(2, 2, 2)):
    return Grid(np.ones(dims, dtype=np.uint8))


# --- per-voxel scores -------------------------------------------------------

def test_softmax_symmetric():
    assert voxel_softmax(0.0, 0.0) == (0.5, 0.5)


def test_softmax_extreme_no_overflow():
    p = voxel_softmax(1000.0, 0.0)
    assert p[0] == pytest.approx(1.0, abs=1e-300)
    assert p[1] == pytest.approx(0.0, abs=1e-300)


def test_softmax_ln3():
    p = voxel_softmax(math.log(3.0), 0.0)
    assert p[0] == pytest.approx(0.75)
    assert p[1] == pytest.approx(0.25)


def test_voxel_scores_symmetric_pair():
    assert voxel_scores((0.0, 0.0), ScoreConfig("maxsoftmax")) == pytest.approx(0.5)
    assert voxel_scores((0.0, 0.0), ScoreConfig("maxlogit")) == 0.0
    assert voxel_scores((0.0, 0.0), ScoreConfig("energy")) == pytest.approx(-math.log(2.0))
    assert voxel_scores((0.0, 0.0), ScoreConfig("entropy")) == pytest.approx(math.log(2.0))


def test_energy_shifted_logsumexp():
    got = voxel_scores((10.0, -10.0), ScoreConfig("energy"))
    assert got == pytest.approx(-10.0 - math.log(1.0 + math.exp(-20.0)), abs=1e-15)


def test_entropy_one_hot_is_zero():
    assert voxel_scores((1000.0, 0.0), ScoreConfig("entropy")) == 0.0


@given(st.floats(-1e4, 1e4), st.floats(-1e4, 1e4))
def test_softmax_sums_to_one(l0, l1):
    p0, p1 = voxel_softmax(l0, l1)
    assert abs(p0 + p1 - 1.0) <= 1e-12
    assert math.isfinite(p0) and math.isfinite(p1)


@given(st.floats(-1e4, 1e4), st.floats(-1e4, 1e4))
def test_all_methods_finite_at_extremes(l0, l1):
    for method in ("maxsoftmax", "maxlogit", "energy", "entropy"):
        assert math.isfinite(voxel_scores((l0, l1), ScoreConfig(method)))


@given(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3))
def test_energy_matches_decimal_oracle(l0, l1):
    got = voxel_scores((l0, l1), ScoreConfig("energy"))
    assert abs(got - energy_decimal(l0, l1)) <= 1e-12


def test_channel_swap_symmetry():
    for method in ("maxsoftmax", "maxlogit", "energy", "entropy"):
        cfg = ScoreConfig(method)
        assert voxel_scores((1.7, -0.3), cfg) == pytest.approx(
            voxel_scores((-0.3, 1.7), cfg), abs=1e-15)


# --- scan aggregation -------------------------------------------------------

def test_constant_field_scan_values():
    logits, mask = logit_volume(0.0, 0.0), full_mask()
    assert scan_score(logits, mask, ScoreConfig("maxsoftmax")).value == pytest.approx(0.5)
    assert scan_score(logits, mask, ScoreConfig("entropy")).value == pytest.approx(math.log(2.0))


def test_confident_tumor_scores_most_id():
    logits, mask = logit_volume(-10.0, 10.0), full_mask()
    got = scan_score(logits, mask, ScoreConfig("maxsoftmax")).value
    sigma20 = 1.0 / (1.0 + math.exp(-20.0))
    assert got == pytest.approx(1.0 - sigma20, abs=1e-12)


def test_constant_field_independent_of_mask_shape():
    logits = logit_volume(1.0, 0.5, dims=(4, 4, 4))
    shapes = []
    for voxels in ([(0, 0, 0)], [(1, 2, 3), (0, 0, 0)], None):
        data = np.ones((4, 4, 4), dtype=np.uint8) if voxels is None else None
        if data is None:
            data = np.zeros((4, 4, 4), dtype=np.uint8)
            for v in voxels:
                data[v] = 1
        mask = Grid(data)
        shapes.append(scan_score(logits, mask, ScoreConfig("energy")).value)
    assert shapes[0] == pytest.approx(shapes[1], abs=1e-12)
    assert shapes[0] == pytest.approx(shapes[2], abs=1e-12)


def test_empty_mask_fallback_top_voxels():
    rng = np.random.default_rng(0)
    dims = (8, 8, 8)
    data = rng.normal(size=(2,) + dims).astype(np.float32)
    logits = Grid(data)
    empty = Grid(np.zeros(dims, dtype=np.uint8))
    got = scan_score(logits, empty, ScoreConfig("maxlogit"), scan_id="x")
    assert got.fallback_used
    assert math.isfinite(got.value)
    # oracle: mean of per-voxel max over the top-100 tumor-logit voxels
    l0 = data[0].reshape(-1).astype(np.float64)
    l1 = data[1].reshape(-1).astype(np.float64)
    top = np.argsort(-l1, kind="stable")[:FALLBACK_TOP_VOXELS]
    assert got.value == pytest.approx(-np.maximum(l0[top], l1[top]).mean(), abs=1e-12)


def test_monotonicity_of_maxsoftmax():
    dims = (2, 2, 2)
    mask = full_mask(dims)
    prev = None
    for tumor in (1.0, 2.0, 4.0, 8.0):
        logits = logit_volume(0.0, tumor, dims)
        val = scan_score(logits, mask, ScoreConfig("maxsoftmax")).value
        if prev is not None:
            assert val < prev
        prev = val


def test_energy_temperature_config():
    got = voxel_scores((2.0, -1.0), ScoreConfig("energy", temperature=2.0))
    assert got == pytest.approx(energy_decimal(2.0, -1.0, 2.0), abs=1e-12)
    with pytest.raises(Exception):
        ScoreConfig("energy", temperature=0.0)
