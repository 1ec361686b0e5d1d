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
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .atomic import write_text_atomic
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


@dataclass
class Forest:
    trees: list[TreeNode]
    n_features: int
    feature_names: tuple[str, ...]
    seed: int
    params: RFParams
    _flat: list | None = field(default=None, repr=False, compare=False)


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


def _best_split(V, w0n, w1n, W0, W1, parent_impurity):
    """Best (decrease, column, threshold) over the columns of ``V``, or None.

    ``V`` holds the node's rows of the candidate features in ascending
    feature order; ``W0``/``W1`` are ``w0n.sum()``/``w1n.sum()``. Candidate
    thresholds are midpoints between consecutive distinct sorted values.

    All columns are searched at once, and each column's numbers equal a
    one-column search: a stable sort is the unique permutation that orders
    the values and keeps equal values in row order, whatever the axis;
    ``cumsum`` along axis 0 adds each column's weights one row after the
    other, in the same order and precision as a 1-D ``cumsum``; and the
    decrease is elementwise arithmetic. Positions that are not boundaries
    are masked to -inf. Ties go to the lowest threshold (the first argmax
    in a column), then to the lowest column (a strict ``>`` across them).
    """
    order = np.argsort(V, axis=0, kind="stable")
    vs = V[order, np.arange(V.shape[1])]
    boundary = vs[:-1] < vs[1:]
    has_boundary = boundary.any(axis=0)
    if not has_boundary.any():
        return None
    l0 = np.cumsum(w0n[order], axis=0)[:-1]
    l1 = np.cumsum(w1n[order], axis=0)[:-1]
    r0, r1 = W0 - l0, W1 - l1
    wl, wr = l0 + l1, r0 + r1
    dec = parent_impurity - (wl - (l0 * l0 + l1 * l1) / wl) - (wr - (r0 * r0 + r1 * r1) / wr)
    dec[~boundary] = -np.inf
    rows = np.argmax(dec, axis=0)
    best = None
    for c in np.flatnonzero(has_boundary).tolist():
        k = int(rows[c])
        if best is None or dec[k, c] > best[0]:
            best = (float(dec[k, c]), c, float((vs[k, c] + vs[k + 1, c]) / 2.0))
    return best


def fit_tree(X: np.ndarray, y: np.ndarray, sample_weight: np.ndarray,
             params: RFParams, rng: SplitMix64) -> TreeNode:
    """Grow one CART tree; feature subsets come from ``rng`` depth-first,
    left child first."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    w = np.asarray(sample_weight, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("fit_tree needs a non-empty 2-D matrix")
    if not np.all(np.isfinite(X)):
        raise ValueError("fit_tree features must be finite")
    if y.shape[0] != X.shape[0] or w.shape[0] != X.shape[0]:
        raise ValueError("labels/weights must match the row count")
    d = X.shape[1]
    m = params.resolve_max_features(d)
    w0_all = w * (y == 0)
    w1_all = w * (y == 1)

    def grow(idx: np.ndarray, depth: int) -> TreeNode:
        w0n = w0_all[idx]
        w1n = w1_all[idx]
        W0 = w0n.sum()
        W1 = w1n.sum()
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
        split = _best_split(X[idx[:, None], cols], w0n, w1n, W0, W1,
                            _impurity(float(W0), float(W1)))
        if split is None:
            return leaf
        _, c, thr = split
        j = cols[c]
        go_left = X[idx, j] <= thr
        node = TreeNode(feature=j, threshold=thr)
        node.left = grow(idx[go_left], depth + 1)
        node.right = grow(idx[~go_left], depth + 1)
        node.dist = leaf.dist
        node.cover = total
        return node

    try:
        return grow(np.arange(X.shape[0]), 0)
    finally:
        # grow's closure holds grow itself: emptying that cell ends the cycle,
        # so X and the weights are freed now, not at the next cyclic collection
        del grow


def fit_forest(X: np.ndarray, y: np.ndarray, params: RFParams, seed: int,
               feature_names: tuple[str, ...] | None = None) -> Forest:
    """Bootstrap + balanced-weight ensemble, deterministic in ``seed``."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    n, d = X.shape
    weights = sample_weight_vector(y)  # raises on single-class input
    if feature_names is None:
        feature_names = tuple(f"f{j}" for j in range(d))
    if len(feature_names) != d:
        raise ValueError("feature_names length must match feature count")

    trees = []
    for t in range(params.n_trees):
        rng = SplitMix64(derive(seed, "tree", t))
        bidx = rng.randrange_block(n, n)
        trees.append(fit_tree(X[bidx], y[bidx], weights[bidx], params, rng))
    return Forest(trees=trees, n_features=d, feature_names=tuple(feature_names),
                  seed=seed, params=params)


def _flatten(tree: TreeNode):
    feats, thrs, lefts, rights, p1s = [], [], [], [], []

    def add(node: TreeNode) -> int:
        i = len(feats)
        feats.append(node.feature)
        thrs.append(node.threshold)
        lefts.append(0)
        rights.append(0)
        p1s.append(node.dist[1])
        if not node.is_leaf():
            lefts[i] = add(node.left)
            rights[i] = add(node.right)
        return i

    add(tree)
    return (np.array(feats), np.array(thrs), np.array(lefts),
            np.array(rights), np.array(p1s))


def _flat_trees(forest: Forest) -> list:
    if forest._flat is None:
        forest._flat = [_flatten(t) for t in forest.trees]
    return forest._flat


def predict_proba_batch(forest: Forest, X: np.ndarray) -> np.ndarray:
    """(n, 2) class probabilities: the unweighted mean of leaf distributions."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != forest.n_features:
        raise ValueError(f"expected (n, {forest.n_features}) matrix, got {X.shape}")
    n = X.shape[0]
    p1 = np.zeros(n)
    rows = np.arange(n)
    for feats, thrs, lefts, rights, leaf_p1 in _flat_trees(forest):
        node = np.zeros(n, dtype=np.int64)
        active = feats[node] >= 0
        while active.any():
            cur = node[active]
            take_left = X[rows[active], feats[cur]] <= thrs[cur]
            node[active] = np.where(take_left, lefts[cur], rights[cur])
            active = feats[node] >= 0
        p1 += leaf_p1[node]
    p1 /= len(forest.trees)
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


def mdi_importance(forest: Forest) -> np.ndarray:
    """Mean decrease in impurity per feature, normalized to sum 1.

    Node class-weight sums are reconstructed bottom-up from leaf
    distributions and covers, so importances survive model round trips.
    """
    totals = np.zeros(forest.n_features)

    def walk(node: TreeNode) -> tuple[float, float]:
        if node.is_leaf():
            return node.dist[0] * node.cover, node.dist[1] * node.cover
        l0, l1 = walk(node.left)
        r0, r1 = walk(node.right)
        w0, w1 = l0 + r0, l1 + r1
        dec = _impurity(w0, w1) - _impurity(l0, l1) - _impurity(r0, r1)
        totals[node.feature] += dec
        return w0, w1

    for tree in forest.trees:
        walk(tree)
    totals /= len(forest.trees)
    s = totals.sum()
    if s > 0:
        totals /= s
    return totals


def _node_to_doc(node: TreeNode) -> dict:
    if node.is_leaf():
        return {"leaf": [node.dist[0], node.dist[1]], "cover": node.cover}
    return {
        "feature": node.feature,
        "threshold": node.threshold,
        "cover": node.cover,
        "dist": [node.dist[0], node.dist[1]],
        "left": _node_to_doc(node.left),
        "right": _node_to_doc(node.right),
    }


def _node_from_doc(doc: dict) -> TreeNode:
    if "leaf" in doc:
        return TreeNode(dist=tuple(doc["leaf"]), cover=doc["cover"])
    return TreeNode(
        feature=doc["feature"],
        threshold=doc["threshold"],
        cover=doc.get("cover", 0.0),
        dist=tuple(doc.get("dist", (0.0, 0.0))),
        left=_node_from_doc(doc["left"]),
        right=_node_from_doc(doc["right"]),
    )


def save_model(forest: Forest, path) -> None:
    doc = {
        "format": MODEL_FORMAT,
        "params": asdict(forest.params),
        "n_features": forest.n_features,
        "feature_names": list(forest.feature_names),
        "seed": forest.seed,
        "trees": [_node_to_doc(t) for t in forest.trees],
    }
    write_text_atomic(path, json.dumps(doc) + "\n")


def load_model(path) -> Forest:
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise DataError(f"cannot read model {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"model {path} is not valid JSON: {exc}") from exc
    try:
        if doc.get("format") != MODEL_FORMAT:
            raise DataError(f"model {path}: unknown format {doc.get('format')!r}")
        params = RFParams(**doc["params"])
        trees = [_node_from_doc(t) for t in doc["trees"]]
        return Forest(trees=trees, n_features=doc["n_features"],
                      feature_names=tuple(doc["feature_names"]),
                      seed=doc["seed"], params=params)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"model {path} is malformed: "
                        f"{type(exc).__name__}: {exc}") from exc
