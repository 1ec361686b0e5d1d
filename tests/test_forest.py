import numpy as np
import pytest

from oodscan.forest import (
    Forest,
    RFParams,
    TreeNode,
    balanced_weights,
    fit_forest,
    fit_tree,
    load_model,
    mdi_importance,
    predict_proba,
    predict_proba_batch,
    predict_scan,
    sample_weight_vector,
    _impurity,
    save_model,
)
from oodscan.rng import SplitMix64, derive


def gaussian_blobs(n=200, separation=6.0, seed=3, d=2):
    rng = SplitMix64(seed)
    half = n // 2
    X = rng.normal_block(n * d).reshape(n, d)
    X[half:] += separation
    y = np.array([0] * half + [1] * (n - half))
    return X, y


# --- weights and impurity ---------------------------------------------------

def test_balanced_weights_imbalanced():
    w0, w1 = balanced_weights([0] * 8 + [1] * 2)
    assert w0 == 10 / 16 == 0.625
    assert w1 == 10 / 4 == 2.5


def test_balanced_weights_equal_classes():
    assert balanced_weights([0] * 5 + [1] * 5) == (1.0, 1.0)


def test_balanced_weights_single_class_error():
    with pytest.raises(ValueError):
        balanced_weights([0, 0, 0])


def test_weighted_gini_values():
    # _impurity is the cover-weighted Gini: (w0 + w1) * gini
    assert _impurity(4.0, 0.0) == 0.0
    assert _impurity(2.0, 2.0) == 4.0 * 0.5
    assert _impurity(3.0, 1.0) == pytest.approx(4.0 * (1.0 - (9 / 16 + 1 / 16)))
    assert _impurity(3.0, 1.0) == pytest.approx(4.0 * 0.375)


# --- single trees -------------------------------------------------------------

def test_separable_1d_split_at_midpoint():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0, 0, 1, 1])
    tree = fit_tree(X, y, np.ones(4), RFParams(max_features=1), SplitMix64(0))
    assert tree.feature == 0
    assert tree.threshold == 1.5
    assert tree.left.is_leaf() and tree.left.dist == (1.0, 0.0)
    assert tree.right.is_leaf() and tree.right.dist == (0.0, 1.0)


def test_identical_rows_mixed_labels_single_leaf():
    X = np.ones((6, 3))
    y = np.array([0, 1, 0, 1, 1, 1])
    w = sample_weight_vector(y)
    tree = fit_tree(X, y, w, RFParams(), SplitMix64(1))
    assert tree.is_leaf()
    assert tree.dist[0] == pytest.approx(0.5)  # balanced prior
    assert tree.dist[1] == pytest.approx(0.5)


def test_xor_exact_at_depth_two():
    X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    y = np.array([0, 1, 1, 0])
    tree = fit_tree(X, y, np.ones(4), RFParams(max_depth=2, max_features=2),
                    SplitMix64(5))
    forest = Forest(trees=[tree], n_features=2, feature_names=("a", "b"),
                    seed=0, params=RFParams(n_trees=1))
    pred = predict_proba_batch(forest, X)[:, 1]
    assert np.array_equal(pred > 0.5, y.astype(bool))
    assert np.allclose(np.abs(pred - 0.5), 0.5)  # pure leaves


def test_zero_weight_class_becomes_leaf():
    X = np.array([[0.0], [1.0]])
    y = np.array([1, 1])
    tree = fit_tree(X, y, np.ones(2), RFParams(), SplitMix64(2))
    assert tree.is_leaf() and tree.dist == (0.0, 1.0)


# --- forests ------------------------------------------------------------------

def test_single_tree_forest_reduces_to_bootstrap_tree():
    X, y = gaussian_blobs(n=40)
    params = RFParams(n_trees=1, max_depth=6)
    forest = fit_forest(X, y, params, seed=9)

    rng = SplitMix64(derive(9, "tree", 0))
    bidx = np.array([rng.randrange(len(X)) for _ in range(len(X))])
    w = sample_weight_vector(y)
    tree = fit_tree(X[bidx], y[bidx], w[bidx], params, rng)
    manual = Forest(trees=[tree], n_features=2, feature_names=("f0", "f1"),
                    seed=9, params=params)
    probe = gaussian_blobs(n=30, seed=8)[0]
    assert np.array_equal(predict_proba_batch(forest, probe),
                          predict_proba_batch(manual, probe))


def test_same_seed_identical_forests():
    X, y = gaussian_blobs()
    params = RFParams(n_trees=10, max_depth=8)
    probe = gaussian_blobs(seed=17)[0]
    p1 = predict_proba_batch(fit_forest(X, y, params, seed=4), probe)
    p2 = predict_proba_batch(fit_forest(X, y, params, seed=4), probe)
    p3 = predict_proba_batch(fit_forest(X, y, params, seed=5), probe)
    assert np.array_equal(p1, p2)
    assert not np.array_equal(p1, p3)


def test_separable_blobs_high_accuracy():
    X, y = gaussian_blobs(n=200, separation=6.0, seed=3)
    forest = fit_forest(X, y, RFParams(n_trees=25, max_depth=12), seed=1)
    acc = ((predict_proba_batch(forest, X)[:, 1] > 0.5).astype(int) == y).mean()
    assert acc >= 0.99


def test_single_class_forest_rejected():
    X = np.zeros((4, 2))
    with pytest.raises(ValueError):
        fit_forest(X, np.zeros(4, dtype=int), RFParams(n_trees=1), seed=0)


# --- prediction ----------------------------------------------------------------

def leaf_forest(dists):
    trees = [TreeNode(dist=d, cover=1.0) for d in dists]
    return Forest(trees=trees, n_features=1, feature_names=("f0",),
                  seed=0, params=RFParams(n_trees=len(dists)))


def test_identical_leaf_trees():
    forest = leaf_forest([(0.3, 0.7)] * 5)
    assert predict_proba(forest, np.array([0.0])) == pytest.approx((0.3, 0.7))


def test_two_opposing_trees_average():
    forest = leaf_forest([(1.0, 0.0), (0.0, 1.0)])
    assert predict_proba(forest, np.array([0.0])) == (0.5, 0.5)


def test_probabilities_always_valid():
    X, y = gaussian_blobs(n=60, separation=1.0)
    forest = fit_forest(X, y, RFParams(n_trees=15, max_depth=6), seed=2)
    probs = predict_proba_batch(forest, gaussian_blobs(n=100, seed=6)[0])
    assert np.all(probs >= 0) and np.all(probs <= 1)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)


def test_predict_scan_averages_crops():
    split = TreeNode(feature=0, threshold=0.5, cover=2.0, dist=(0.6, 0.4),
                     left=TreeNode(dist=(0.8, 0.2), cover=1.0),
                     right=TreeNode(dist=(0.4, 0.6), cover=1.0))
    forest = Forest(trees=[split], n_features=1, feature_names=("f0",),
                    seed=0, params=RFParams(n_trees=1))
    crops = np.array([[0.0], [1.0]])
    assert predict_scan(forest, crops) == pytest.approx(0.4)  # mean of .2, .6
    assert predict_scan(forest, crops[::-1]) == pytest.approx(0.4)  # order-free
    assert predict_scan(forest, np.array([[0.0], [0.0]])) == pytest.approx(0.2)


# --- monotone transform invariance --------------------------------------------

def transforms_for(seed):
    choices = [
        lambda c: 3.0 * c + 2.0,
        lambda c: c ** 3,
        lambda c: np.exp(c / 4.0),
        lambda c: c,
    ]
    rng = SplitMix64(seed)
    return lambda j: choices[rng.randrange(len(choices))]


def tree_fingerprint(node, out):
    if node.is_leaf():
        out.append(("leaf", node.dist))
        return
    out.append(("split", node.feature))
    tree_fingerprint(node.left, out)
    tree_fingerprint(node.right, out)


def test_monotone_transform_invariance():
    # Thresholds move but decisions on the fitted data do not. Points a tree
    # never saw can land inside a threshold gap, where midpoints are not
    # equivariant, so the prediction check uses trees fit on the full data.
    for seed in range(10):
        X, y = gaussian_blobs(n=50, separation=1.5, seed=100 + seed, d=4)
        params = RFParams(n_trees=5, max_depth=6)
        base = fit_forest(X, y, params, seed=seed)

        pick = transforms_for(seed)
        Xt = X.copy()
        for j in range(X.shape[1]):
            Xt[:, j] = pick(j)(X[:, j])
        trans = fit_forest(Xt, y, params, seed=seed)

        fp_a, fp_b = [], []
        for ta, tb in zip(base.trees, trans.trees):
            tree_fingerprint(ta, fp_a)
            tree_fingerprint(tb, fp_b)
        assert fp_a == fp_b  # identical structure and leaf distributions
        assert np.array_equal(np.argsort(mdi_importance(base)),
                              np.argsort(mdi_importance(trans)))

        w = sample_weight_vector(y)
        tree_a = fit_tree(X, y, w, params, SplitMix64(seed))
        tree_b = fit_tree(Xt, y, w, params, SplitMix64(seed))
        one_a = Forest(trees=[tree_a], n_features=4,
                       feature_names=("a", "b", "c", "d"), seed=0, params=params)
        one_b = Forest(trees=[tree_b], n_features=4,
                       feature_names=("a", "b", "c", "d"), seed=0, params=params)
        assert np.array_equal(predict_proba_batch(one_a, X),
                              predict_proba_batch(one_b, Xt))


# --- balanced vs unweighted recall ---------------------------------------------

def test_balanced_weights_help_minority_recall():
    recalls_balanced, recalls_flat = [], []
    params = RFParams(n_trees=20, max_depth=8)
    for seed in range(20):
        rng = SplitMix64(derive(1000, "imbalance", seed))
        n_major, n_minor = 90, 10
        X = rng.normal_block(2 * (n_major + n_minor)).reshape(-1, 2)
        X[n_major:] += 1.5  # heavy overlap
        y = np.array([0] * n_major + [1] * n_minor)

        balanced = fit_forest(X, y, params, seed=seed)
        pred_b = predict_proba_batch(balanced, X)[:, 1] > 0.5

        flat_trees = []
        for t in range(params.n_trees):
            trng = SplitMix64(derive(seed, "tree", t))
            bidx = np.array([trng.randrange(len(X)) for _ in range(len(X))])
            flat_trees.append(fit_tree(X[bidx], y[bidx], np.ones(len(X))[bidx],
                                       params, trng))
        flat = Forest(trees=flat_trees, n_features=2, feature_names=("a", "b"),
                      seed=seed, params=params)
        pred_f = predict_proba_batch(flat, X)[:, 1] > 0.5

        recalls_balanced.append(pred_b[y == 1].mean())
        recalls_flat.append(pred_f[y == 1].mean())
    assert np.mean(recalls_balanced) >= np.mean(recalls_flat)


def test_depth_never_exceeds_max():
    def depth_of(node):
        if node.is_leaf():
            return 0
        return 1 + max(depth_of(node.left), depth_of(node.right))

    X, y = gaussian_blobs(n=120, separation=0.3)  # heavy overlap forces deep trees
    for max_depth in (1, 3, 5):
        forest = fit_forest(X, y, RFParams(n_trees=4, max_depth=max_depth), seed=7)
        assert all(depth_of(t) <= max_depth for t in forest.trees)


# --- importances ------------------------------------------------------------

def test_mdi_single_feature_is_one():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0, 0, 1, 1])
    forest = fit_forest(X, y, RFParams(n_trees=5, max_features=1), seed=3)
    assert mdi_importance(forest) == pytest.approx([1.0])


def test_mdi_all_leaf_forest_stays_zero():
    forest = leaf_forest([(0.5, 0.5)] * 3)
    assert np.array_equal(mdi_importance(forest), np.zeros(1))


def test_mdi_unused_feature_zero_and_sums_to_one():
    X, y = gaussian_blobs(n=80, d=3)
    X[:, 2] = 0.0  # constant: can never split
    forest = fit_forest(X, y, RFParams(n_trees=10), seed=4)
    imp = mdi_importance(forest)
    assert imp[2] == 0.0
    assert imp.sum() == pytest.approx(1.0, abs=1e-12)


# --- persistence ------------------------------------------------------------

def test_model_round_trip_bit_exact(tmp_path):
    X, y = gaussian_blobs(n=60, separation=2.0)
    forest = fit_forest(X, y, RFParams(n_trees=8, max_depth=6), seed=6)
    p = tmp_path / "model.json"
    save_model(forest, p)
    back = load_model(p)
    probe = gaussian_blobs(n=200, seed=7)[0]
    assert np.array_equal(predict_proba_batch(forest, probe),
                          predict_proba_batch(back, probe))
    assert back.feature_names == forest.feature_names
    assert back.params == forest.params
