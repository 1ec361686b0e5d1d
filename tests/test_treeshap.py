import numpy as np
import pytest
from hypothesis import given, strategies as st

from oodscan.forest import Forest, RFParams, TreeNode, fit_forest, predict_proba
from oodscan.rng import SplitMix64
from oodscan.treeshap import tree_shap

from oracles import brute_force_shapley, per_row_tree_shap, tree_nodes, tree_value


def leaf(value, cover):
    return TreeNode(dist=(1.0 - value, value), cover=cover)


def split(feature, threshold, left, right):
    return TreeNode(feature=feature, threshold=threshold, left=left, right=right,
                    cover=left.cover + right.cover)


def one_tree_forest(root, n_features):
    return Forest(trees=[root], n_features=n_features,
                  feature_names=tuple(f"f{j}" for j in range(n_features)),
                  seed=0, params=RFParams(n_trees=1))


def random_tree(rng: SplitMix64, n_features: int, max_leaves: int = 12) -> TreeNode:
    budget = [rng.randint(2, max_leaves)]

    def build(depth):
        if depth >= 4 or budget[0] < 2 or rng.random() < 0.25:
            budget[0] -= 1
            return leaf(rng.random(), rng.uniform(0.5, 4.0))
        budget[0] -= 1  # the split consumes one pending leaf, adds two
        budget[0] += 0
        left = build(depth + 1)
        right = build(depth + 1)
        return split(rng.randrange(n_features), rng.uniform(0.1, 0.9), left, right)

    root = build(0)
    return root


def test_depth_one_tree_single_player():
    root = split(0, 0.5, leaf(0.2, 3.0), leaf(0.9, 1.0))
    forest = one_tree_forest(root, 3)
    x = np.array([0.1, 0.0, 0.0])
    exp = tree_shap(forest, x)
    base = (3.0 * 0.2 + 1.0 * 0.9) / 4.0
    assert exp.base_value == pytest.approx(base, abs=1e-12)
    assert exp.contributions[0] == pytest.approx(0.2 - base, abs=1e-12)
    assert exp.contributions[1] == 0.0 and exp.contributions[2] == 0.0
    assert exp.prediction == pytest.approx(0.2)


def test_depth_two_matches_brute_force():
    root = split(
        0, 0.5,
        split(1, 0.5, leaf(0.1, 2.0), leaf(0.7, 1.0)),
        split(1, 0.3, leaf(0.4, 3.0), leaf(0.95, 2.0)),
    )
    forest = one_tree_forest(root, 2)
    for x in ([0.2, 0.2], [0.2, 0.8], [0.8, 0.1], [0.8, 0.9]):
        x = np.array(x)
        exp = tree_shap(forest, x)
        oracle = brute_force_shapley(root, x, 2)
        assert np.allclose(exp.contributions, oracle, atol=1e-9)
        assert exp.base_value == pytest.approx(tree_value(root, x, set()), abs=1e-12)


def test_equal_leaves_give_zero_attribution():
    root = split(0, 0.5, split(1, 0.5, leaf(0.6, 1.0), leaf(0.6, 2.0)),
                 leaf(0.6, 3.0))
    forest = one_tree_forest(root, 2)
    exp = tree_shap(forest, np.array([0.7, 0.2]))
    assert np.allclose(exp.contributions, 0.0, atol=1e-12)
    assert exp.base_value == pytest.approx(0.6)
    assert exp.prediction == pytest.approx(0.6)


def test_repeated_feature_along_path():
    # same feature twice on one path exercises the unwind bookkeeping
    inner = split(0, 0.25, leaf(0.15, 1.0), leaf(0.55, 1.0))
    root = split(0, 0.5, inner, leaf(0.85, 2.0))
    forest = one_tree_forest(root, 2)
    for x in ([0.1, 0.0], [0.3, 0.0], [0.9, 0.0]):
        x = np.array(x)
        exp = tree_shap(forest, x)
        oracle = brute_force_shapley(root, x, 2)
        assert np.allclose(exp.contributions, oracle, atol=1e-9)


def test_random_trees_match_brute_force():
    rng = SplitMix64(2024)
    for case in range(60):
        d = rng.randint(1, 4)
        root = random_tree(rng, d)
        forest = one_tree_forest(root, d)
        x = np.array([rng.random() for _ in range(d)])
        exp = tree_shap(forest, x)
        oracle = brute_force_shapley(root, x, d)
        assert np.allclose(exp.contributions, oracle, atol=1e-9), f"case {case}"
        assert abs(exp.base_value + exp.contributions.sum() - exp.prediction) <= 1e-9


def test_fitted_forest_efficiency():
    rng = SplitMix64(7)
    X = rng.normal_block(80 * 5).reshape(80, 5)
    y = (X[:, 0] + 0.3 * X[:, 3] > 0).astype(int)
    forest = fit_forest(X, y, RFParams(n_trees=12, max_depth=6), seed=5)
    for i in range(10):
        exp = tree_shap(forest, X[i])
        assert abs(exp.base_value + exp.contributions.sum() - exp.prediction) <= 1e-9
        assert exp.prediction == pytest.approx(predict_proba(forest, X[i])[1])


def test_dimension_mismatch_rejected():
    forest = one_tree_forest(leaf(0.5, 1.0), 2)
    with pytest.raises(ValueError):
        tree_shap(forest, np.zeros(3))


# --- the forest-at-once TreeSHAP against the per-row recursion ------------

@st.composite
def hand_built_forests(draw):
    """Up to 5 random trees over few or many features: repeated features on a
    path, single-leaf trees, and thin trees with paths deeper than 12."""
    n_features = draw(st.integers(1, 16))
    budget = [draw(st.integers(1, 40))]  # splits left across the forest
    values = st.floats(0.0, 1.0)
    covers = st.floats(0.5, 8.0)

    def build(depth):
        if budget[0] == 0 or depth >= 18 or draw(st.integers(0, 3)) == 0:
            return leaf(draw(values), draw(covers))
        budget[0] -= 1
        feature = draw(st.integers(0, n_features - 1))
        threshold = draw(st.sampled_from([0.25, 0.5, 0.75]))
        return split(feature, threshold, build(depth + 1), build(depth + 1))

    trees = [build(0) for _ in range(draw(st.integers(1, 5)))]
    return Forest(trees=trees, n_features=n_features,
                  feature_names=tuple(f"f{j}" for j in range(n_features)),
                  seed=0, params=RFParams(n_trees=len(trees)))


@st.composite
def fitted_forests(draw):
    """Forests as ``train`` fits them: many features and deep trees, as on
    the deep table, or two features reused down every path, as on the
    radiomics table."""
    n_features = draw(st.sampled_from([2, 24]))
    n = draw(st.integers(12, 60))
    rng = SplitMix64(draw(st.integers(0, 2**32)))
    X = rng.normal_block(n * n_features).reshape(n, n_features).round(1)
    y = np.array([i % 2 for i in range(n)])
    params = RFParams(n_trees=draw(st.integers(1, 8)), max_depth=draw(st.integers(1, 20)))
    return fit_forest(X, y, params, seed=draw(st.integers(0, 99)))


def rows_for(draw, forest):
    """Feature rows that sit exactly on the forest's thresholds, or off them."""
    thresholds = [0.0]
    stack = tree_nodes(forest)
    while stack:
        node = stack.pop()
        if not node.is_leaf():
            thresholds.append(node.threshold)
            stack += (node.left, node.right)
    value = st.one_of(st.sampled_from(thresholds), st.floats(-3.0, 3.0))
    return [np.array(draw(st.lists(value, min_size=forest.n_features,
                                   max_size=forest.n_features)))
            for _ in range(3)]


def assert_bit_equal_to_per_row(forest, x):
    exp = tree_shap(forest, x)
    base, phi, prediction = per_row_tree_shap(forest, x)
    assert np.array_equal(exp.contributions, phi)
    assert exp.base_value == base
    assert exp.prediction == prediction


@given(st.one_of(hand_built_forests(), fitted_forests()), st.data())
def test_forest_at_once_is_bit_equal_to_per_row_recursion(forest, data):
    for x in rows_for(data.draw, forest):
        assert_bit_equal_to_per_row(forest, x)


def test_all_leaf_forest_attributes_nothing():
    trees = [leaf(0.2, 3.0), leaf(0.9, 1.0), leaf(0.4, 2.0)]
    forest = Forest(trees=trees, n_features=2, feature_names=("f0", "f1"),
                    seed=0, params=RFParams(n_trees=3))
    x = np.array([0.3, 0.7])
    assert_bit_equal_to_per_row(forest, x)
    assert np.array_equal(tree_shap(forest, x).contributions, np.zeros(2))


def test_path_deeper_than_twelve_with_repeats():
    # a 16-split spine over 14 features: two features come back near the leaf
    features = list(range(14)) + [3, 9]
    node = leaf(0.7, 1.0)
    for depth, f in reversed(list(enumerate(features))):
        node = split(f, 0.5, node, leaf(depth / 16, 1.5)) if depth % 2 \
            else split(f, 0.5, leaf(depth / 16, 1.5), node)
    forest = one_tree_forest(node, 14)
    for x in (np.full(14, 0.5), np.linspace(0.0, 1.0, 14), np.full(14, 0.75)):
        assert_bit_equal_to_per_row(forest, x)
