"""From-scratch balanced random forest for binary ID/OOD classification.

CART with the weighted Gini criterion and midpoint thresholds. Determinism
is a hard contract: every tree owns a stream seeded by derive(seed, "tree",
t) from which it draws its bootstrap and then its per-node feature subsets,
so parallel and sequential fits produce identical forests. Ties in the
split search break deterministically toward the lower feature index, then
the lower threshold.

Zero-gain splits are allowed whenever a node is impure and a valid boundary
exists (depth-2 XOR requires this); impurity-based importances simply gain
nothing from them. Some toolkits prune such splits, so forests here can
differ from theirs on degenerate data.

Class balancing follows w_c = n / (2 n_c) computed on the full training
set; bootstrap draws then carry their class weight (weights are not
recomputed per bootstrap). Since every row weighs its class's w_c, the split
search needs no float prefix sums: it sorts label-tagged rank keys and
counts each class left of a cut (see ``_best_split``).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .atomic import atomic_open
from .errors import DataError
from .rng import IndexSubsets, SplitMix64, derive

MODEL_FORMAT = "oodscan-forest-v1"


@dataclass(frozen=True)
class RFParams:
    n_trees: int = 1000
    max_depth: int = 20
    max_features: int | str = "sqrt"  # "sqrt" -> floor(sqrt(d)), or explicit count
    min_samples_split: int = 2

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        if self.max_depth < 0:
            raise ValueError("max_depth must be >= 0")
        if self.min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        if self.max_features != "sqrt" and int(self.max_features) < 1:
            raise ValueError("max_features must be 'sqrt' or a positive count")

    def resolve_max_features(self, d: int) -> int:
        if self.max_features == "sqrt":
            return max(1, int(math.isqrt(d)))
        m = int(self.max_features)
        if not 1 <= m <= d:
            raise ValueError(f"max_features {m} out of range for {d} features")
        return m


@dataclass
class TreeNode:
    # internal: feature >= 0, threshold set, children set
    # leaf: feature == -1, dist / cover set
    feature: int = -1
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    dist: tuple[float, float] = (0.0, 0.0)
    cover: float = 0.0

    def is_leaf(self) -> bool:
        return self.feature < 0


def _add_preorder(node: TreeNode, cols: tuple[list, ...]) -> int:
    """Append the subtree of ``node`` to the columns ``cols`` in preorder."""
    feature, threshold, left, right, dist, cover = cols
    i = len(feature)
    feature.append(node.feature)
    threshold.append(node.threshold)
    left.append(0)
    right.append(0)
    dist += node.dist
    cover.append(node.cover)
    if node.feature >= 0:
        left[i] = _add_preorder(node.left, cols)
        right[i] = _add_preorder(node.right, cols)
    return i


class Forest:
    """A forest as one node table: each tree in preorder after the one
    before, so a node's children come after it, and ``left``, ``right`` and
    ``roots`` index the whole table. ``feature`` is -1 at a leaf; every node
    keeps the class distribution ``dist`` (n, 2) and the training weight
    ``cover`` of its rows. Built from the ``TreeNode``s ``trees``, which are
    not kept.
    """

    def __init__(self, trees: list[TreeNode], n_features: int,
                 feature_names: tuple[str, ...], seed: int, params: RFParams):
        if not trees:
            raise ValueError("a forest needs at least one tree")
        self.n_features = n_features
        self.feature_names = feature_names
        self.seed = seed
        self.params = params
        cols: tuple[list, ...] = ([], [], [], [], [], [])
        self.roots = np.array([_add_preorder(tree, cols) for tree in trees], dtype=np.int64)
        feature, threshold, left, right, dist, cover = cols
        self.feature, self.left, self.right = (np.array(a, dtype=np.int64)
                                               for a in (feature, left, right))
        self.threshold, self.cover = (np.array(a, dtype=np.float64) for a in (threshold, cover))
        self.dist = np.array(dist, dtype=np.float64).reshape(-1, 2)
        self._shap_plan = None


def balanced_weights(labels: np.ndarray) -> tuple[float, float]:
    """Per-class weights w_c = n / (2 n_c); both classes must be present."""
    labels = np.asarray(labels)
    n = labels.size
    n1 = int(labels.sum())
    n0 = n - n1
    if n0 == 0 or n1 == 0:
        raise ValueError("balanced_weights needs both classes present")
    return n / (2.0 * n0), n / (2.0 * n1)


def _impurity(w0: float, w1: float) -> float:
    # cover-weighted Gini: W * gini = W - (w0^2 + w1^2) / W
    total = w0 + w1
    return total - (w0 * w0 + w1 * w1) / total


def rank_keys(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Label-tagged rank keys ``K[j, i] = (r << 1) | y[i]`` of ``X``, (d, n),
    ``uint16`` up to 32,768 rows; ``r`` is the dense rank of ``X[i, j]`` in
    its column (equal values share one, ``-0.0 == 0.0`` too), and
    ``values[j][r]`` is that value (a zero of either sign)."""
    n, d = X.shape
    if np.shape(y) != (n,) or not np.isin(y, (0, 1)).all():
        raise ValueError("rank_keys needs one label, 0 or 1, per row")
    K = np.empty((d, n), dtype=np.uint16 if n <= 1 << 15 else np.uint32)
    values = []
    for j in range(d):  # a column at a time keeps the sort temporaries small
        v, K[j] = np.unique(X[:, j], return_inverse=True)
        values.append(v)
    K <<= 1
    K |= np.asarray(y, dtype=K.dtype)
    return K, values


def class_sums(class_weights: tuple[float, float], n: int) -> np.ndarray:
    """(2, n + 1): row c holds 0 and the running sums of ``n`` copies of w_c."""
    w = np.asarray(class_weights, dtype=np.float64)[:, None]
    return ((np.arange(n + 1) > 0) * w).cumsum(axis=1)


def _best_split(K, sums, W, parent_impurity):
    """Best (decrease, column, rank_a, rank_b) over the rows of ``K``, or None.

    ``K`` (m, n), sorted here in place, holds the node's tagged rank keys of
    the candidate features in ascending order; ``sums`` are ``class_sums``
    and ``W`` the node's (2,) class weights. The cut falls between ranks
    ``rank_a`` and ``rank_b``, consecutive in a sorted row.

    Each row weighs its class's w_c, so a prefix sum of class-c weights
    over the rows, in any order, adds w_c or an exact +0.0 at each row: a
    cut with c0 and c1 rows of each class to its left has the left class
    weights ``sums[0, c0]`` and ``sums[1, c1]``, whatever the order within
    its tie groups. So any sort of the keys serves, and the decrease, the
    same operations on the same operands as over a stable sort of the
    values and its ``cumsum``, is taken at the cuts only, in row-major
    order: one argmax takes the lowest column, then the lowest cut.
    """
    K.sort(axis=1)  # equal tagged keys cannot be told apart: any algorithm serves
    lo = K[:, :-1]
    cut = np.flatnonzero((lo | 1) < K[:, 1:])
    if not cut.size:
        return None
    width = lo.shape[1]
    c1 = (lo & 1).cumsum(axis=1, dtype=np.intp).take(cut)
    left = np.array((sums[0].take(cut % width + 1 - c1), sums[1].take(c1)))
    A = np.array((left, W[:, None] - left))  # [left, right][class 0, class 1]
    # each side's impurity is w - (w0*w0 + w1*w1) / w with w = w0 + w1
    total = np.add.reduce(A, axis=1)
    total -= np.add.reduce(A * A, axis=1) / total
    dec = parent_impurity - total[0] - total[1]
    best = int(dec.argmax())
    c, k = divmod(int(cut[best]), width)
    return float(dec[best]), c, int(K[c, k]) >> 1, int(K[c, k + 1]) >> 1


def fit_tree(X: np.ndarray, y: np.ndarray, class_weights: tuple[float, float],
             params: RFParams, rng: SplitMix64, *,
             ranks: tuple[np.ndarray, list[np.ndarray]] | None = None,
             sums: np.ndarray | None = None,
             rows: np.ndarray | None = None) -> TreeNode:
    """Grow one CART tree; feature subsets come from ``rng`` depth-first,
    left child first. Each row weighs ``class_weights[y]``.

    ``ranks`` are ``rank_keys(X, y)`` and ``sums`` ``class_sums`` of
    ``class_weights`` over at least the tree's row count, by default
    computed here. ``rows`` grows the tree on the rows ``X[rows]`` (with
    repeats, in that order) without copying them; the caller has then
    checked that ``X`` is finite, as ``fit_forest`` does. A node's class
    weights are ``np.add.reduce`` of its rows' weights: a pairwise sum,
    which depends on where each row sits.

    A threshold is the midpoint of the cut's two values, or the lower one
    when the midpoint is not below the upper. The value table keeps one
    zero per column, of either sign, and that sign never reaches a
    threshold: with a zero below, the sum is the upper value exactly and
    its half stands; with a zero above, half the lower value stands if it
    is negative, and else the lower value itself, nonzero, is taken.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    weights = np.array(class_weights, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("fit_tree needs a non-empty 2-D matrix")
    if rows is None:
        if not np.all(np.isfinite(X)):
            raise ValueError("fit_tree features must be finite")
        rows = np.arange(X.shape[0])
    rows = np.asarray(rows, dtype=np.intp)
    if y.shape != X.shape[:1]:
        raise ValueError("labels must match the row count")
    if weights.shape != (2,) or not all(0.0 < w < math.inf for w in weights.tolist()):
        raise ValueError("class_weights must be two positive finite numbers")
    K, values = rank_keys(X, y) if ranks is None else ranks
    if K.shape != X.shape[::-1]:
        raise ValueError("ranks must be the rank keys of X")
    sums = class_sums(weights, rows.size) if sums is None else sums
    if sums.shape[1] <= rows.size or sums[:, 1].tolist() != weights.tolist():
        raise ValueError("sums must be the class_sums of class_weights over the rows")
    d = X.shape[1]
    subsets = IndexSubsets(rng, d, params.resolve_max_features(d))
    row_weights = (y == np.arange(2)[:, None]) * weights[:, None]  # (2, N): w_c or 0.0

    def grow(idx: np.ndarray, depth: int) -> TreeNode:
        W = np.add.reduce(row_weights.take(idx, axis=1), axis=1)  # row by row, as 1-D
        W0, W1 = W.tolist()
        total = W0 + W1
        node = TreeNode(dist=(W0 / total, W1 / total), cover=total)
        if (depth >= params.max_depth or idx.size < params.min_samples_split
                or W0 == 0.0 or W1 == 0.0):
            return node
        cols = sorted(subsets.draw())
        split = _best_split(K.take(cols, axis=0).take(idx, axis=1), sums, W,
                            _impurity(W0, W1))
        if split is None:
            return node
        _, c, a, b = split
        j = cols[c]
        lower, upper = float(values[j][a]), float(values[j][b])
        thr = (lower + upper) / 2.0
        if not lower <= thr < upper:
            # the midpoint of adjacent floats can round onto the upper value,
            # and the sum can overflow: cut at the lower value, as scikit-learn
            # does, so that the rows go where the search scored them
            thr = lower
        go_left = K[j].take(idx) <= (a << 1) | 1
        node.feature, node.threshold = j, thr
        node.left = grow(idx.compress(go_left), depth + 1)
        node.right = grow(idx.compress(~go_left), depth + 1)
        return node

    try:
        return grow(rows, 0)
    finally:
        # grow's closure holds grow itself: emptying that cell ends the cycle,
        # so X and the weights are freed now, not at the next cyclic collection
        del grow


def fit_forest(X: np.ndarray, y: np.ndarray, params: RFParams, seed: int,
               feature_names: tuple[str, ...] | None = None) -> Forest:
    """Bootstrap + balanced-weight ensemble, deterministic in ``seed``.

    Finiteness is checked and the rank keys, value tables and class sums
    are computed once here; each tree indexes them at its bootstrap rows.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    n, d = X.shape
    if not np.all(np.isfinite(X)):
        raise ValueError("fit_forest features must be finite")
    weights = balanced_weights(y)  # raises on single-class input
    if feature_names is None:
        feature_names = tuple(f"f{j}" for j in range(d))
    if len(feature_names) != d:
        raise ValueError("feature_names length must match feature count")

    ranks, sums = rank_keys(X, y), class_sums(weights, n)
    trees = []
    for t in range(params.n_trees):
        rng = SplitMix64(derive(seed, "tree", t))
        bidx = rng.randrange_block(n, n)
        trees.append(fit_tree(X, y, weights, params, rng, ranks=ranks, sums=sums, rows=bidx))
    return Forest(trees=trees, n_features=d, feature_names=tuple(feature_names),
                  seed=seed, params=params)


# (tree, row) pairs walked at once. It bounds the temporaries: on 864 rows of a
# 200-tree forest 1 << 12 peaked at 0.24 MB and 1 << 14 at 1.02 MB, in equal time.
_PAIR_BLOCK = 1 << 12


def predict_proba_batch(forest: Forest, X: np.ndarray) -> np.ndarray:
    """(n, 2) class probabilities: the unweighted mean of leaf distributions.

    Every (tree, row) pair of a block of whole trees descends at once, one
    step per level; a block holds at most ``_PAIR_BLOCK`` pairs, or one tree
    when its rows alone exceed that. Leaf values are added to ``p1`` tree
    by tree, in tree order, as one loop over trees would add them.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != forest.n_features:
        raise ValueError(f"expected (n, {forest.n_features}) matrix, got {X.shape}")
    feats, thrs, lefts, rights = forest.feature, forest.threshold, forest.left, forest.right
    node_p1, roots = forest.dist[:, 1], forest.roots
    n = X.shape[0]
    block = max(1, _PAIR_BLOCK // max(n, 1))
    p1 = np.zeros(n)
    for t in range(0, roots.size, block):
        tree_roots = roots[t:t + block]
        node = np.repeat(tree_roots, n)
        row = np.tile(np.arange(n), tree_roots.size)
        live = np.flatnonzero(feats[node] >= 0)
        while live.size:
            cur = node[live]
            cur = np.where(X[row[live], feats[cur]] <= thrs[cur], lefts[cur], rights[cur])
            node[live] = cur
            live = live[feats[cur] >= 0]
        # an explicit loop: a reduction over axis 0 may sum pairwise
        for tree_p1 in node_p1[node].reshape(tree_roots.size, n):
            p1 += tree_p1
    p1 /= roots.size
    return np.stack([1.0 - p1, p1], axis=1)


def predict_proba(forest: Forest, x: np.ndarray) -> tuple[float, float]:
    p = predict_proba_batch(forest, np.asarray(x, dtype=np.float64)[None, :])[0]
    return float(p[0]), float(p[1])


def predict_scan(forest: Forest, crop_vectors: np.ndarray) -> float:
    """Scan-level OOD probability: classifier output averaged across crops."""
    crop_vectors = np.asarray(crop_vectors, dtype=np.float64)
    if crop_vectors.ndim != 2 or crop_vectors.shape[0] == 0:
        raise ValueError("predict_scan needs a non-empty (crops, features) matrix")
    return float(predict_proba_batch(forest, crop_vectors)[:, 1].mean())


def _class_weights(cols: tuple[list, ...], i: int, totals: list) -> tuple[float, float]:
    """Class-weight sums of node ``i``; adds the impurity decrease of each
    split under it to ``totals``, in post-order (left, right, node)."""
    feature, left, right, leaf_w0, leaf_w1 = cols
    if feature[i] < 0:
        return leaf_w0[i], leaf_w1[i]
    l0, l1 = _class_weights(cols, left[i], totals)
    r0, r1 = _class_weights(cols, right[i], totals)
    w0, w1 = l0 + r0, l1 + r1
    totals[feature[i]] += _impurity(w0, w1) - _impurity(l0, l1) - _impurity(r0, r1)
    return w0, w1


def mdi_importance(forest: Forest) -> np.ndarray:
    """Mean decrease in impurity per feature, normalized to sum 1.

    Node class-weight sums are reconstructed bottom-up from leaf
    distributions and covers, so importances survive model round trips.
    """
    sums = [0.0] * forest.n_features
    leaf_w = forest.dist * forest.cover[:, None]
    cols = (forest.feature.tolist(), forest.left.tolist(), forest.right.tolist(),
            leaf_w[:, 0].tolist(), leaf_w[:, 1].tolist())
    for root in forest.roots.tolist():
        _class_weights(cols, root, sums)
    totals = np.array(sums) / forest.roots.size
    s = totals.sum()
    if s > 0:
        totals /= s
    return totals


def _node_to_doc(cols: tuple[list, ...], i: int) -> dict:
    feature, threshold, left, right, dist, cover = cols
    if feature[i] < 0:
        return {"leaf": dist[i], "cover": cover[i]}
    return {"feature": feature[i], "threshold": threshold[i], "cover": cover[i], "dist": dist[i],
            "left": _node_to_doc(cols, left[i]), "right": _node_to_doc(cols, right[i])}


def _finite(value, positive: bool = False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not math.isfinite(value) or positive and not value > 0:
        raise ValueError(f"{value!r} is not a finite{' positive' * positive} number")
    return float(value)


def _pair(value) -> tuple[float, float]:
    if not isinstance(value, list) or len(value) != 2:
        raise ValueError(f"{value!r} is not a pair of numbers")
    return _finite(value[0]), _finite(value[1])


def _node_from_doc(doc: dict, n_features: int) -> TreeNode:
    if "leaf" in doc:
        return TreeNode(dist=_pair(doc["leaf"]), cover=_finite(doc["cover"], positive=True))
    feature = doc["feature"]
    if type(feature) is not int or not 0 <= feature < n_features:
        raise ValueError(f"feature {feature!r} is not in [0, {n_features})")
    return TreeNode(
        feature=feature,
        threshold=_finite(doc["threshold"]),
        cover=_finite(doc["cover"], positive=True),
        dist=_pair(doc.get("dist", [0.0, 0.0])),
        left=_node_from_doc(doc["left"], n_features),
        right=_node_from_doc(doc["right"], n_features),
    )


def save_model(forest: Forest, path) -> None:
    """Write ``json.dumps(doc) + "\\n"`` of the model document, one tree's
    document at a time, without building the whole document."""
    head = json.dumps({
        "format": MODEL_FORMAT,
        "params": asdict(forest.params),
        "n_features": forest.n_features,
        "feature_names": list(forest.feature_names),
        "seed": forest.seed,
    })
    with atomic_open(path) as fh:
        fh.write(head[:-1] + ', "trees": [')
        cols = tuple(a.tolist() for a in (forest.feature, forest.threshold, forest.left,
                                           forest.right, forest.dist, forest.cover))
        for t, root in enumerate(forest.roots.tolist()):
            fh.write((", " if t else "") + json.dumps(_node_to_doc(cols, root)))
        fh.write("]}\n")


def load_model(path) -> Forest:
    """Read a model written by ``save_model``. Every feature index must lie in
    [0, n_features), every threshold and class weight be a finite number,
    every node carry a positive finite cover, and there must be one name per
    feature and at least one tree."""
    try:
        doc = json.loads(Path(path).read_bytes())
    except OSError as exc:
        raise DataError(f"cannot read model {path}: {exc}") from exc
    except ValueError as exc:  # not UTF-8, or not JSON
        raise DataError(f"model {path} is not valid JSON: {exc}") from exc
    try:
        if doc.get("format") != MODEL_FORMAT:
            raise DataError(f"model {path}: unknown format {doc.get('format')!r}")
        params = RFParams(**doc["params"])
        n_features = doc["n_features"]
        if type(n_features) is not int or n_features < 1:
            raise ValueError(f"n_features {n_features!r} is not a positive count")
        names = doc["feature_names"]
        if not isinstance(names, list) or len(names) != n_features \
                or not all(isinstance(name, str) for name in names):
            raise ValueError(f"feature_names is not {n_features} names")
        if not isinstance(doc["trees"], list) or not doc["trees"]:
            raise ValueError("the model has no trees")
        trees = [_node_from_doc(t, n_features) for t in doc["trees"]]
        return Forest(trees=trees, n_features=n_features, feature_names=tuple(names),
                      seed=doc["seed"], params=params)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"model {path} is malformed: "
                        f"{type(exc).__name__}: {exc}") from exc
