import numpy as np
import pytest
from hypothesis import given, strategies as st

from oodscan.metrics import auroc, fpr_at_tpr

from oracles import exhaustive_fpr_at_tpr, pairwise_auroc


def labeled(ood_scores, id_scores):
    labels = np.array([1] * len(ood_scores) + [0] * len(id_scores))
    scores = np.array(list(ood_scores) + list(id_scores), dtype=np.float64)
    return labels, scores


# --- auroc -------------------------------------------------------------------

def test_perfect_separation():
    assert auroc(*labeled([0.9, 0.8], [0.2, 0.1])) == 1.0


def test_all_ties_half():
    assert auroc(*labeled([0.5, 0.5], [0.5, 0.5, 0.5])) == 0.5


def test_mixed_ties_pairwise_count():
    # pairs: (3>2) win, (3>1) win, (1<2) loss, (1=1) tie -> (1+1+0+0.5)/4
    labels, scores = labeled([3.0, 1.0], [2.0, 1.0])
    assert auroc(labels, scores) == 0.625
    assert auroc(labels, scores) == pairwise_auroc(labels, scores)


def test_single_class_rejected():
    with pytest.raises(ValueError):
        auroc(np.array([1, 1]), np.array([0.1, 0.2]))


@given(st.integers(0, 100_000))
def test_auroc_equals_pairwise_oracle(seed):
    rng = np.random.default_rng(seed)
    n = rng.integers(2, 60)
    labels = np.zeros(n, dtype=int)
    labels[rng.integers(1, n)] = 0
    labels[: rng.integers(1, n)] = 1
    rng.shuffle(labels)
    if labels.min() == labels.max():
        labels[0] = 1 - labels[0]
    # quantized scores force plenty of ties
    scores = np.round(rng.normal(size=n), 1)
    assert auroc(labels, scores) == pairwise_auroc(labels, scores)


@given(st.integers(0, 100_000))
def test_auroc_invariant_under_increasing_transform(seed):
    rng = np.random.default_rng(seed)
    labels = np.array([1] * 5 + [0] * 7)
    scores = np.round(rng.normal(size=12), 1)
    transformed = np.exp(scores / 2.0) + 3.0
    assert auroc(labels, scores) == pytest.approx(auroc(labels, transformed), abs=1e-12)


@given(st.integers(0, 100_000))
def test_auroc_negation_symmetry(seed):
    rng = np.random.default_rng(seed)
    labels = np.array([1] * 4 + [0] * 6)
    scores = np.round(rng.normal(size=10), 1)
    assert auroc(labels, scores) == pytest.approx(
        auroc(1 - labels, -scores), abs=1e-12)


# --- fpr at tpr ----------------------------------------------------------------

def test_fpr_perfect_separation_zero():
    assert fpr_at_tpr(*labeled([0.9, 0.8, 0.7], [0.2, 0.1])) == 0.0


def test_fpr_all_ties_one():
    assert fpr_at_tpr(*labeled([0.4] * 4, [0.4] * 5)) == 1.0


def test_fpr_crafted_set_matches_scan():
    ood = [0.9, 0.8, 0.7, 0.6, 0.5] * 4
    ids = [0.55, 0.4, 0.35, 0.3, 0.52, 0.1, 0.05, 0.51, 0.2, 0.15]
    labels, scores = labeled(ood, ids)
    assert fpr_at_tpr(labels, scores) == exhaustive_fpr_at_tpr(labels, scores)


@given(st.integers(0, 100_000))
def test_fpr_equals_exhaustive_oracle(seed):
    rng = np.random.default_rng(seed)
    n_pos, n_neg = rng.integers(1, 30), rng.integers(1, 30)
    labels, scores = labeled(
        np.round(rng.normal(size=n_pos), 1),
        np.round(rng.normal(size=n_neg), 1),
    )
    for target in (0.5, 0.8, 0.95, 1.0):
        assert fpr_at_tpr(labels, scores, target) == \
            exhaustive_fpr_at_tpr(labels, scores, target)


def test_fpr_zero_when_qualifying_ood_above_all_id():
    # min OOD score above the 5th-percentile cutoff exceeds max ID
    ood = [0.3] + [0.8, 0.85, 0.9, 0.95] * 5  # one straggler below 5% mass
    ids = [0.5, 0.6, 0.7]
    labels, scores = labeled(ood, ids)
    assert fpr_at_tpr(labels, scores, 0.95) == 0.0
