import json
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oodscan.forest import (
    MODEL_FORMAT,
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
    class_sums,
    rank_keys,
    save_model,
    _PAIR_BLOCK,
    _best_split,
    _impurity,
)
from oodscan.rng import SplitMix64, derive

from oracles import (
    argsort_best_split,
    float_key_best_split,
    float_key_tree,
    per_feature_best_split,
    per_tree_predict_proba,
    post_order_mdi,
    tree_nodes,
)


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


# --- split search ------------------------------------------------------------

CLASS_WEIGHTS = st.sampled_from([0.625, 2.5, 1.0]) | st.floats(0.01, 10)


@st.composite
def split_nodes(draw):
    """A node's rows, labels, class weights and candidate features:
    tie-heavy integer columns, continuous, constant and two-valued (one
    boundary) columns, copied columns that tie across features, and
    duplicated rows. Every row carries its class's weight, as in a forest."""
    n = draw(st.integers(2, 64))
    d = draw(st.integers(1, 6))
    columns = []
    for _ in range(d):
        kind = draw(st.sampled_from(["ints", "floats", "constant", "two", "copy"]))
        if kind == "copy" and columns:
            col = columns[draw(st.integers(0, len(columns) - 1))]
        elif kind == "floats":
            col = draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n))
        elif kind == "constant":
            col = [draw(st.floats(-5, 5))] * n
        elif kind == "two":
            col = [0.0] * n
            col[draw(st.integers(0, n - 1))] = 1.0
        else:
            col = draw(st.lists(st.integers(0, 3).map(float), min_size=n, max_size=n))
        columns.append(col)
    X = np.array(columns).T
    if draw(st.booleans()):  # a bootstrap-style sample repeats rows
        X = X[draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))]
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    weights = (draw(CLASS_WEIGHTS), draw(CLASS_WEIGHTS))
    feat_ids = draw(st.lists(st.integers(0, d - 1), min_size=1, max_size=d, unique=True))
    return X, y, weights, feat_ids


def class_rows(y, weights):
    """Each row's class-0 and class-1 weight: w_c or 0.0."""
    w = np.where(y == 1, weights[1], weights[0])
    return w * (y == 0), w * (y == 1)


def count_split(X, y, weights, cols, ranks=None):
    """The forest's split search over the columns ``cols`` (ascending) of
    the rows of ``X``, as (decrease, index into cols, lower, upper): the
    values of the cut's two ranks. ``ranks`` are the keys and value tables
    to search, by default ``rank_keys(X, y)``."""
    K, values = rank_keys(X, y) if ranks is None else ranks
    w0n, w1n = class_rows(y, weights)
    W = np.array([np.add.reduce(w0n), np.add.reduce(w1n)])
    split = _best_split(K[cols], class_sums(weights, len(y)), W, _impurity(*W.tolist()))
    if split is None:
        return None
    dec, c, a, b = split
    return dec, c, float(values[cols[c]][a]), float(values[cols[c]][b])


def _bits(split):
    if split is None:
        return None
    dec, feature, thr = split
    return dec.hex(), feature, thr.hex()


@given(split_nodes())
def test_2d_split_search_is_bit_equal_to_per_feature_search(node):
    X, y, weights, feat_ids = node
    w0n, w1n = class_rows(y, weights)
    parent = _impurity(float(w0n.sum()), float(w1n.sum()))
    cols = sorted(feat_ids)
    got = count_split(X, y, weights, cols)
    if got is not None:
        dec, c, lower, upper = got
        got = (dec, cols[c], (lower + upper) / 2.0)
    assert _bits(got) == _bits(per_feature_best_split(X, w0n, w1n, feat_ids, parent))


def test_split_ties_go_to_lowest_feature_then_lowest_threshold():
    # columns 0 and 2 are equal; on each the cuts after row 1 and row 3 tie
    X = np.array([[0.0, 5.0, 0.0], [1.0, 5.0, 1.0], [2.0, 5.0, 2.0], [3.0, 5.0, 3.0],
                  [4.0, 5.0, 4.0], [5.0, 5.0, 5.0]])
    y = np.array([0, 0, 1, 1, 0, 0])
    _, col, lower, upper = count_split(X, y, (1.0, 1.0), [0, 1, 2])
    assert (col, (lower + upper) / 2.0) == (0, 1.5)
    assert count_split(X, y, (1.0, 1.0), [1]) is None


@st.composite
def rank_key_nodes(draw):
    """A float matrix whose columns stress rank keys and cuts (ties across
    distinct rows, +-0.0, runs of adjacent floats, values whose sums
    overflow, all-equal columns, distinct values that make one-row tie
    groups), labels of its rows, class weights, and bootstrap rows of it
    that repeat some rows."""
    n = draw(st.integers(2, 48))
    columns = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["floats", "ties", "zeros", "adjacent", "huge",
                                     "equal"]))
        if kind == "floats":
            values = st.floats(-1e3, 1e3)
        elif kind == "ties":
            values = st.sampled_from([-1.5, 0.25, 3.0])
        elif kind == "huge":
            values = st.sampled_from([-1.7e308, -1.5e308, 1.5e308, 1.7e308])
        elif kind == "zeros":
            values = st.sampled_from([0.0, -0.0, 1.0, -1.0])
        elif kind == "adjacent":
            ladder = [draw(st.floats(-1e3, 1e3))]
            for _ in range(3):
                ladder.append(float(np.nextafter(ladder[-1], np.inf)))
            values = st.sampled_from(ladder)
        else:
            values = st.just(draw(st.floats(-5, 5)))
        columns.append(draw(st.lists(values, min_size=n, max_size=n)))
    X = np.array(columns, dtype=np.float64).T
    bidx = np.array(draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)))
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    return X, bidx, y, (draw(CLASS_WEIGHTS), draw(CLASS_WEIGHTS))


def _cut(split, values):
    """(decrease bits, column, lower rank, upper rank) of a split that
    names its cut by two values of the column: ``values`` is the column's
    sorted distinct values, in which -0.0 finds the rank of 0.0."""
    if split is None:
        return None
    dec, c, lower, upper = split
    return (dec.hex(), c, int(np.searchsorted(values[c], lower)),
            int(np.searchsorted(values[c], upper)))


@given(rank_key_nodes())
def test_rank_key_search_is_bit_equal_to_float_key_search(node):
    X, bidx, y, weights = node
    V, yV = X[bidx], y[bidx]
    w0n, w1n = class_rows(yV, weights)
    parent = _impurity(float(w0n.sum()), float(w1n.sum()))
    want = float_key_best_split(V, w0n, w1n, w0n.sum(), w1n.sum(), parent)
    values = rank_keys(V, yV)[1]
    # keys of the whole matrix taken at the bootstrap rows, as fit_forest
    # passes them, and keys of the sample itself, as fit_tree computes them
    K, full_values = rank_keys(X, y)
    cols = list(range(X.shape[1]))
    for ranks in ((K[:, bidx], full_values), None):
        got = count_split(V, yV, weights, cols, ranks)
        assert _cut(got, values) == _cut(want, values)


@given(rank_key_nodes(), st.sampled_from(["one", "all"]), st.data())
def test_count_search_is_bit_equal_to_argsort_and_float_key_search(node, m, data):
    X, bidx, y, weights = node
    V, yV = X[bidx], y[bidx]
    d = X.shape[1]
    cols = ([data.draw(st.integers(0, d - 1))] if m == "one" else list(range(d)))
    w0n, w1n = class_rows(yV, weights)
    W0, W1 = np.add.reduce(w0n), np.add.reduce(w1n)
    parent = _impurity(float(W0), float(W1))
    K, values = rank_keys(V, yV)
    ranks = (K >> 1).T  # dense ranks, (n, d)
    got = _cut(count_split(V, yV, weights, cols), [values[j] for j in cols])
    by_argsort = argsort_best_split(ranks[:, cols], w0n, w1n, W0, W1, parent)
    if by_argsort is not None:
        dec, c, a, b = by_argsort
        by_argsort = (dec.hex(), c, int(ranks[a, cols[c]]), int(ranks[b, cols[c]]))
    by_value = float_key_best_split(V[:, cols], w0n, w1n, W0, W1, parent)
    assert got == by_argsort == _cut(by_value, [values[j] for j in cols])


def test_rank_keys_tag_ranks_with_labels_and_keep_the_values():
    X = np.array([[2.0, -0.0], [-1.0, 0.0], [2.0, 5.0]])
    K, values = rank_keys(X, np.array([1, 0, 0]))
    assert K.tolist() == [[3, 0, 2], [1, 0, 2]]
    assert [v.tolist() for v in values] == [[-1.0, 2.0], [0.0, 5.0]]
    for y in (np.array([0, 1, 2]), np.array([0, 1])):
        with pytest.raises(ValueError):
            rank_keys(X, y)


def test_class_sums_add_each_weight_one_after_another():
    T = class_sums((0.1, 2.5), 9)
    for c, w in enumerate((0.1, 2.5)):
        run = [0.0]
        for _ in range(9):
            run.append(run[-1] + w)
        assert T[c].tolist() == run
        assert T[c].tolist() == [0.0, *np.cumsum(np.full(9, w)).tolist()]


def _tree_tuple(node):
    if node.is_leaf():
        return ("leaf", node.dist, node.cover)
    return ("split", node.feature, node.threshold, node.dist, node.cover,
            _tree_tuple(node.left), _tree_tuple(node.right))


def assert_cuts_where_scored(tree, V, y, w, idx):
    """Every split of a tuple tree sends left exactly the node's rows at or
    below the lower value of the best cut a search of its column alone
    scores, and the rest right; so neither child is empty."""
    if tree[0] == "leaf":
        return
    _, f, thr, _, _, left, right = tree
    w0n, w1n = w[idx] * (y[idx] == 0), w[idx] * (y[idx] == 1)
    W0, W1 = w0n.sum(), w1n.sum()
    _, _, lower, upper = float_key_best_split(V[idx][:, [f]], w0n, w1n, W0, W1,
                                              _impurity(float(W0), float(W1)))
    assert lower <= thr < upper
    go_left = V[idx, f] <= thr
    assert np.array_equal(go_left, V[idx, f] <= lower)
    assert_cuts_where_scored(left, V, y, w, idx[go_left])
    assert_cuts_where_scored(right, V, y, w, idx[~go_left])


@given(rank_key_nodes(), st.data())
def test_rank_key_tree_is_bit_equal_to_float_key_tree(node, data):
    X, bidx, y, weights = node
    V, yV = X[bidx], y[bidx]
    w = np.where(yV == 1, weights[1], weights[0])
    seed = data.draw(st.integers(0, 2**32))
    m = data.draw(st.integers(1, X.shape[1]))
    params = RFParams(max_depth=data.draw(st.integers(1, 8)), max_features=m)
    want = float_key_tree(V, yV, w, params.max_depth, 2, m, SplitMix64(seed))
    assert_cuts_where_scored(want, V, yV, w, np.arange(len(bidx)))
    # repr tells -0.0 from 0.0 and prints every float exactly; the tree on
    # the bootstrap rows of X is the one fit_forest grows
    for got in (fit_tree(V, yV, weights, params, SplitMix64(seed)),
                fit_tree(X, y, weights, params, SplitMix64(seed),
                         ranks=rank_keys(X, y), sums=class_sums(weights, len(bidx)),
                         rows=bidx)):
        assert repr(_tree_tuple(got)) == repr(want)


@given(rank_key_nodes(), st.integers(0, 2**32))
def test_tree_on_shared_rows_is_bit_equal_to_tree_on_their_copy(node, seed):
    X, bidx, y, weights = node
    params = RFParams(max_depth=6, max_features=1)
    want = fit_tree(X[bidx], y[bidx], weights, params, SplitMix64(seed))
    got = fit_tree(X, y, weights, params, SplitMix64(seed), ranks=rank_keys(X, y), rows=bidx)
    assert repr(_tree_tuple(got)) == repr(_tree_tuple(want))


@pytest.mark.parametrize("lower, upper", [
    (1 + 2**-52, 1 + 2**-51),  # the midpoint rounds onto the upper value
    (1.5e308, 1.7e308),  # the sum overflows to inf
    (-1.7e308, -1.5e308),  # ... and to -inf
])
def test_cut_whose_midpoint_is_not_below_the_upper_value_is_at_the_lower(lower, upper):
    tree = fit_tree(np.array([[lower], [upper]]), np.array([0, 1]), (1.0, 1.0),
                    RFParams(max_features=1), SplitMix64(0))
    assert tree.threshold == lower
    assert tree.left.dist == (1.0, 0.0) and tree.right.dist == (0.0, 1.0)


def test_fit_tree_rejects_ranks_of_another_shape():
    X = np.array([[0.0, 1.0], [1.0, 0.0]])
    y = np.array([0, 1])
    with pytest.raises(ValueError):
        fit_tree(X, y, (1.0, 1.0), RFParams(), SplitMix64(0), ranks=rank_keys(X[:, :1], y))


@pytest.mark.parametrize("sums", [class_sums((1.0, 2.0), 2), class_sums((2.0, 1.0), 2),
                                  class_sums((1.0, 1.0), 1)],
                         ids=["other-w1", "other-w0", "too-short"])
def test_fit_tree_rejects_sums_of_other_weights_or_fewer_rows(sums):
    X = np.array([[0.0], [1.0]])
    y = np.array([0, 1])
    with pytest.raises(ValueError, match="sums"):
        fit_tree(X, y, (1.0, 1.0), RFParams(), SplitMix64(0), sums=sums)


@pytest.mark.parametrize("weights", [(1.0,), (1.0, 0.0), (-1.0, 1.0), (1.0, np.inf),
                                     (np.nan, 1.0), np.ones(3)])
def test_fit_tree_rejects_class_weights_that_are_not_two_positive_numbers(weights):
    X = np.array([[0.0], [1.0]])
    with pytest.raises(ValueError):
        fit_tree(X, np.array([0, 1]), weights, RFParams(), SplitMix64(0))


# --- single trees -------------------------------------------------------------

def test_separable_1d_split_at_midpoint():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0, 0, 1, 1])
    tree = fit_tree(X, y, (1.0, 1.0), RFParams(max_features=1), SplitMix64(0))
    assert tree.feature == 0
    assert tree.threshold == 1.5
    assert tree.left.is_leaf() and tree.left.dist == (1.0, 0.0)
    assert tree.right.is_leaf() and tree.right.dist == (0.0, 1.0)


def test_identical_rows_mixed_labels_single_leaf():
    X = np.ones((6, 3))
    y = np.array([0, 1, 0, 1, 1, 1])
    tree = fit_tree(X, y, balanced_weights(y), RFParams(), SplitMix64(1))
    assert tree.is_leaf()
    assert tree.dist[0] == pytest.approx(0.5)  # balanced prior
    assert tree.dist[1] == pytest.approx(0.5)


def test_xor_exact_at_depth_two():
    X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    y = np.array([0, 1, 1, 0])
    tree = fit_tree(X, y, (1.0, 1.0), RFParams(max_depth=2, max_features=2),
                    SplitMix64(5))
    forest = Forest(trees=[tree], n_features=2, feature_names=("a", "b"),
                    seed=0, params=RFParams(n_trees=1))
    pred = predict_proba_batch(forest, X)[:, 1]
    assert np.array_equal(pred > 0.5, y.astype(bool))
    assert np.allclose(np.abs(pred - 0.5), 0.5)  # pure leaves


def test_zero_weight_class_becomes_leaf():
    X = np.array([[0.0], [1.0]])
    y = np.array([1, 1])
    tree = fit_tree(X, y, (1.0, 1.0), RFParams(), SplitMix64(2))
    assert tree.is_leaf() and tree.dist == (0.0, 1.0)


# --- forests ------------------------------------------------------------------

def test_single_tree_forest_reduces_to_bootstrap_tree():
    X, y = gaussian_blobs(n=40)
    params = RFParams(n_trees=1, max_depth=6)
    forest = fit_forest(X, y, params, seed=9)

    rng = SplitMix64(derive(9, "tree", 0))
    bidx = np.array([rng.randrange(len(X)) for _ in range(len(X))])
    tree = fit_tree(X[bidx], y[bidx], balanced_weights(y), params, rng)
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


@st.composite
def forests_and_rows(draw):
    """Hand-built forests (single-leaf trees among them, thresholds that rows
    hit exactly, +-0.0) and one or many rows to predict."""
    n_features = draw(st.integers(1, 5))
    thresholds = st.sampled_from([-0.0, 0.0, 0.5, 1.0]) | st.floats(-2.0, 2.0)

    def build(depth):
        if depth >= 8 or draw(st.integers(0, 2)) == 0:
            p1 = draw(st.floats(0.0, 1.0))
            return TreeNode(dist=(1.0 - p1, p1), cover=1.0)
        return TreeNode(feature=draw(st.integers(0, n_features - 1)),
                        threshold=draw(thresholds), cover=2.0, dist=(0.5, 0.5),
                        left=build(depth + 1), right=build(depth + 1))

    trees = [build(0) for _ in range(draw(st.integers(1, 6)))]
    forest = Forest(trees=trees, n_features=n_features,
                    feature_names=tuple(f"f{j}" for j in range(n_features)),
                    seed=0, params=RFParams(n_trees=len(trees)))
    n = draw(st.sampled_from([1, draw(st.integers(2, 40))]))
    values = st.lists(thresholds, min_size=n * n_features, max_size=n * n_features)
    return forest, np.array(draw(values)).reshape(n, n_features)


@st.composite
def tree_lists(draw):
    """Hand-built trees of any finite values: single leaves among them and
    thresholds of +-0.0."""
    number = st.floats(allow_nan=False, allow_infinity=False)

    def build(depth):
        dist, cover = (draw(number), draw(number)), draw(number)
        if depth >= 6 or draw(st.booleans()):
            return TreeNode(dist=dist, cover=cover)
        return TreeNode(feature=draw(st.integers(0, 3)),
                        threshold=draw(st.sampled_from([-0.0, 0.0]) | number),
                        dist=dist, cover=cover, left=build(depth + 1), right=build(depth + 1))

    return [build(0) for _ in range(draw(st.integers(1, 5)))]


@given(tree_lists())
def test_node_table_holds_the_trees_in_preorder(trees):
    def size(node):
        return 1 if node.is_leaf() else 1 + size(node.left) + size(node.right)

    forest = Forest(trees=trees, n_features=4, feature_names=("a", "b", "c", "d"),
                    seed=0, params=RFParams(n_trees=len(trees)))
    assert [repr(t) for t in tree_nodes(forest)] == [repr(t) for t in trees]
    sizes = [size(t) for t in trees]
    assert forest.roots.tolist() == np.cumsum([0] + sizes[:-1]).tolist()
    assert forest.feature.size == sum(sizes)
    split = np.flatnonzero(forest.feature >= 0)
    assert np.all(forest.left[split] > split) and np.all(forest.right[split] > split)


@given(forests_and_rows())
def test_stacked_prediction_is_bit_equal_to_per_tree_prediction(forest_rows):
    forest, X = forest_rows
    want = per_tree_predict_proba(forest, X)
    assert predict_proba_batch(forest, X).tobytes() == want.tobytes()
    assert predict_proba(forest, X[0]) == tuple(want[0])


@pytest.mark.parametrize("rows", [500, 5000])  # several trees a block; one tree a block
def test_prediction_over_several_blocks_is_bit_equal_to_per_tree_prediction(rows):
    X, y = gaussian_blobs(n=120, separation=1.0, d=3)
    forest = fit_forest(X, y, RFParams(n_trees=40, max_depth=3), seed=3)  # impure leaves
    probe = gaussian_blobs(n=rows, separation=1.0, seed=11, d=3)[0]
    assert 40 * rows > 2 * _PAIR_BLOCK
    assert predict_proba_batch(forest, probe).tobytes() == \
        per_tree_predict_proba(forest, probe).tobytes()
    # one row of 40 trees: a sum over trees that went pairwise would differ
    assert predict_proba(forest, probe[0]) == tuple(per_tree_predict_proba(forest, probe[:1])[0])


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
        for ta, tb in zip(tree_nodes(base), tree_nodes(trans)):
            tree_fingerprint(ta, fp_a)
            tree_fingerprint(tb, fp_b)
        assert fp_a == fp_b  # identical structure and leaf distributions
        assert np.array_equal(np.argsort(mdi_importance(base)),
                              np.argsort(mdi_importance(trans)))

        w = balanced_weights(y)
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
            flat_trees.append(fit_tree(X[bidx], y[bidx], (1.0, 1.0), params, trng))
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
        assert all(depth_of(t) <= max_depth for t in tree_nodes(forest))


# --- importances ------------------------------------------------------------

def test_mdi_single_feature_is_one():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0, 0, 1, 1])
    forest = fit_forest(X, y, RFParams(n_trees=5, max_features=1), seed=3)
    assert mdi_importance(forest) == pytest.approx([1.0])


def test_mdi_all_leaf_forest_stays_zero():
    forest = leaf_forest([(0.5, 0.5)] * 3)
    assert np.array_equal(mdi_importance(forest), np.zeros(1))


@pytest.mark.parametrize("seed", range(4))
def test_mdi_is_bit_equal_to_post_order_recursion(seed):
    X, y = gaussian_blobs(n=160, separation=0.5, seed=seed, d=12)  # deep trees
    forest = fit_forest(X, y, RFParams(n_trees=10), seed=seed)
    assert mdi_importance(forest).tobytes() == post_order_mdi(forest).tobytes()


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


def _node_document(node):
    if node.is_leaf():
        return {"leaf": list(node.dist), "cover": node.cover}
    return {"feature": node.feature, "threshold": node.threshold, "cover": node.cover,
            "dist": list(node.dist), "left": _node_document(node.left),
            "right": _node_document(node.right)}


def _whole_model_document(forest):
    return {
        "format": MODEL_FORMAT,
        "params": asdict(forest.params),
        "n_features": forest.n_features,
        "feature_names": list(forest.feature_names),
        "seed": forest.seed,
        "trees": [_node_document(t) for t in tree_nodes(forest)],
    }


@pytest.mark.parametrize("make", [
    pytest.param(lambda: fit_forest(*gaussian_blobs(n=60, separation=1.0, d=3),
                                    RFParams(n_trees=7, max_depth=5), seed=2), id="fitted"),
    pytest.param(lambda: leaf_forest([(0.25, 0.75)]), id="one-leaf"),
    pytest.param(lambda: Forest(
        trees=[TreeNode(feature=1, threshold=-0.0, cover=3.0, dist=(0.5, 0.5),
                        left=TreeNode(dist=(1.0, 0.0), cover=1.0),
                        right=TreeNode(dist=(1 / 3, 2 / 3), cover=2.0)),
               TreeNode(dist=(0.1, 0.9), cover=4.0)],
        n_features=2, feature_names=('quote"d', "ünï"), seed=2**64 - 1,
        params=RFParams(n_trees=2, max_features=1)), id="hand-built"),
])
def test_streamed_model_bytes_equal_whole_document_dump(tmp_path, make):
    forest = make()
    p = tmp_path / "model.json"
    save_model(forest, p)
    assert p.read_text() == json.dumps(_whole_model_document(forest)) + "\n"
