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
recomputed per bootstrap).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .atomic import atomic_open
from .errors import DataError
from .rng import SplitMix64, derive

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


def sample_weight_vector(labels: np.ndarray) -> np.ndarray:
    w0, w1 = balanced_weights(labels)
    return np.where(np.asarray(labels) == 1, w1, w0)


def _impurity(w0: float, w1: float) -> float:
    # cover-weighted Gini: W * gini = W - (w0^2 + w1^2) / W
    total = w0 + w1
    return total - (w0 * w0 + w1 * w1) / total


def rank_keys(X: np.ndarray) -> np.ndarray:
    """Dense per-column ranks of ``X``: a smaller value has a smaller rank and
    equal values share one (``-0.0 == 0.0`` too). ``uint16`` up to 65,536
    rows, which numpy sorts by radix, and ``uint32`` beyond."""
    n, d = X.shape
    R = np.empty((n, d), dtype=np.uint16 if n <= 1 << 16 else np.uint32)
    for j in range(d):  # a column at a time keeps the sort temporaries small
        R[:, j] = np.unique(X[:, j], return_inverse=True)[1]
    return R


def _best_split(K, w0n, w1n, W0, W1, parent_impurity):
    """Best (decrease, column, row_a, row_b) over the columns of ``K``, or None.

    ``K`` holds the node's rank keys (``rank_keys``) of the candidate
    features in ascending feature order; ``W0``/``W1`` are
    ``w0n.sum()``/``w1n.sum()`` and the weights are positive. Candidate cuts
    lie between consecutive distinct sorted keys; the best one falls between
    node rows ``row_a`` and ``row_b``, and its threshold is the midpoint of
    their values, which the caller reads from the float matrix.

    Ranks order rows as their values do and tie exactly where the values
    tie, so the stable sort of the keys is the stable sort of the values:
    the unique permutation that orders them and keeps ties in row order.
    Every ``cumsum``, decrease and chosen row pair is therefore the one a
    search on the float values finds. All columns are searched at once, and
    each column's numbers equal a one-column search: ``cumsum`` along axis 0
    adds each column's weights one row after the other, in the same order
    and precision as a 1-D ``cumsum``, and the decrease is elementwise
    arithmetic. Positions that are not boundaries are masked to -inf. Ties
    go to the lowest threshold (the first argmax in a column), then to the
    lowest column (the first argmax across the column maxima).
    """
    order = K.argsort(axis=0, kind="stable")
    columns = np.arange(K.shape[1])
    ks = K[order, columns]
    boundary = ks[:-1] < ks[1:]
    if not boundary.any():
        return None
    l0 = w0n[order].cumsum(axis=0)[:-1]
    l1 = w1n[order].cumsum(axis=0)[:-1]
    # dec = parent - (wl - (l0*l0 + l1*l1) / wl) - (wr - (r0*r0 + r1*r1) / wr)
    # with r = W - l, wl = l0 + l1 and wr = r0 + r1: the same operations on
    # the same operands, in place, so that at most five such arrays are alive
    # (the root's search is the peak of a tree's memory)
    r0, r1 = W0 - l0, W1 - l1
    right = r0 + r1
    r0 *= r0
    r1 *= r1
    r0 += r1
    r0 /= right
    np.subtract(right, r0, out=right)
    del r0, r1
    dec = l0 + l1
    l0 *= l0
    l1 *= l1
    l0 += l1
    l0 /= dec
    np.subtract(dec, l0, out=dec)
    np.subtract(parent_impurity, dec, out=dec)
    dec -= right
    dec[~boundary] = -np.inf
    rows = dec.argmax(axis=0)
    col_best = dec[rows, columns]
    c = int(col_best.argmax())
    k = int(rows[c])
    return float(col_best[c]), c, int(order[k, c]), int(order[k + 1, c])


def fit_tree(X: np.ndarray, y: np.ndarray, sample_weight: np.ndarray,
             params: RFParams, rng: SplitMix64, *,
             ranks: np.ndarray | None = None,
             rows: np.ndarray | None = None) -> TreeNode:
    """Grow one CART tree; feature subsets come from ``rng`` depth-first,
    left child first.

    ``ranks`` are rank keys of ``X`` (``rank_keys`` of ``X`` or of any
    matrix whose rows ``X`` repeats); by default they are computed here.
    ``rows`` grows the tree on the rows ``X[rows]`` (with repeats, in that
    order) without copying them; the caller has then checked that ``X`` is
    finite, as ``fit_forest`` does once for all its trees.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    w = np.asarray(sample_weight, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("fit_tree needs a non-empty 2-D matrix")
    if rows is None:
        if not np.all(np.isfinite(X)):
            raise ValueError("fit_tree features must be finite")
        rows = np.arange(X.shape[0])
    if y.shape[0] != X.shape[0] or w.shape[0] != X.shape[0]:
        raise ValueError("labels/weights must match the row count")
    if ranks is None:
        ranks = rank_keys(X)
    elif ranks.shape != X.shape:
        raise ValueError("ranks must have the shape of X")
    d = X.shape[1]
    m = params.resolve_max_features(d)
    w0_all = w * (y == 0)
    w1_all = w * (y == 1)

    def grow(idx: np.ndarray, depth: int) -> TreeNode:
        w0n = w0_all[idx]
        w1n = w1_all[idx]
        W0 = np.add.reduce(w0n)  # what ndarray.sum calls, without its wrappers
        W1 = np.add.reduce(w1n)
        total = float(W0 + W1)
        leaf = TreeNode(dist=(float(W0) / total, float(W1) / total), cover=total)
        if (
            depth >= params.max_depth
            or idx.size < params.min_samples_split
            or W0 == 0.0
            or W1 == 0.0
        ):
            return leaf
        cols = sorted(rng.sample_indices(d, m))
        split = _best_split(ranks[idx[:, None], cols], w0n, w1n, W0, W1,
                            _impurity(float(W0), float(W1)))
        if split is None:
            return leaf
        _, c, a, b = split
        j = cols[c]
        lower, upper = float(X[idx[a], j]), float(X[idx[b], j])
        thr = (lower + upper) / 2.0
        if not lower <= thr < upper:
            # the midpoint of adjacent floats can round onto the upper value,
            # and the sum can overflow: cut at the lower value, as scikit-learn
            # does, so that the rows go where the search scored them
            thr = lower
        go_left = X[idx, j] <= thr
        node = TreeNode(feature=j, threshold=thr)
        node.left = grow(idx[go_left], depth + 1)
        node.right = grow(idx[~go_left], depth + 1)
        node.dist = leaf.dist
        node.cover = total
        return node

    try:
        return grow(np.asarray(rows, dtype=np.intp), 0)
    finally:
        # grow's closure holds grow itself: emptying that cell ends the cycle,
        # so X and the weights are freed now, not at the next cyclic collection
        del grow


def fit_forest(X: np.ndarray, y: np.ndarray, params: RFParams, seed: int,
               feature_names: tuple[str, ...] | None = None) -> Forest:
    """Bootstrap + balanced-weight ensemble, deterministic in ``seed``.

    Finiteness is checked and rank keys are computed once here; each tree
    indexes the shared matrices at its bootstrap rows.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    n, d = X.shape
    if not np.all(np.isfinite(X)):
        raise ValueError("fit_forest features must be finite")
    weights = sample_weight_vector(y)  # raises on single-class input
    if feature_names is None:
        feature_names = tuple(f"f{j}" for j in range(d))
    if len(feature_names) != d:
        raise ValueError("feature_names length must match feature count")

    R = rank_keys(X)
    trees = []
    for t in range(params.n_trees):
        rng = SplitMix64(derive(seed, "tree", t))
        bidx = rng.randrange_block(n, n)
        trees.append(fit_tree(X, y, weights, params, rng, ranks=R, rows=bidx))
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
