import numpy as np
import pytest

from oodscan.forest import RFParams
from oodscan.rng import SplitMix64
from oodscan.selection import rfe


def decisive_dataset(n=120, d=10, seed=5):
    """Feature 0 alone determines y; the rest are seeded noise."""
    rng = SplitMix64(seed)
    X = rng.normal_block(n * d).reshape(n, d)
    y = (X[:, 0] > 0.0).astype(int)
    return X, y


PARAMS = RFParams(n_trees=15, max_depth=6)


def test_rfe_identity_when_target_is_d():
    X, y = decisive_dataset(d=6)
    got = rfe(X, y, PARAMS, target_count=6, step=2, seed=1)
    assert list(got) == list(range(6))


def test_rfe_keeps_decisive_feature():
    X, y = decisive_dataset(d=10)
    got = rfe(X, y, PARAMS, target_count=2, step=2, seed=1)
    assert 0 in got
    assert len(got) == 2


def test_rfe_step_clamps_to_target():
    X, y = decisive_dataset(d=7)
    got = rfe(X, y, PARAMS, target_count=5, step=100, seed=2)
    assert len(got) == 5
    assert 0 in got


def test_rfe_deterministic():
    X, y = decisive_dataset(d=8)
    a = rfe(X, y, PARAMS, target_count=3, step=1, seed=9)
    b = rfe(X, y, PARAMS, target_count=3, step=1, seed=9)
    assert np.array_equal(a, b)


def test_rfe_rejects_bad_target():
    X, y = decisive_dataset(d=4)
    with pytest.raises(ValueError):
        rfe(X, y, PARAMS, target_count=5, step=1, seed=0)
    with pytest.raises(ValueError):
        rfe(X, y, PARAMS, target_count=0, step=1, seed=0)
