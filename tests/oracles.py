"""Independent reference implementations the tests check the package against.

Everything here is deliberately brute force and shares no code with the
implementations under test, but for ``union_find_components``: it sorts the
package's own union-find labels into the full component list the pipeline
no longer builds, so the labels can be checked against a flood fill.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass

import numpy as np


def pairwise_auroc(labels, scores) -> float:
    """AUROC by counting all (positive, negative) pairs."""
    pos = [s for l, s in zip(labels, scores) if l == 1]
    neg = [s for l, s in zip(labels, scores) if l == 0]
    p = np.asarray(pos, dtype=np.float64)
    n = np.asarray(neg, dtype=np.float64)
    wins = float((p[:, None] > n[None, :]).sum())
    ties = float((p[:, None] == n[None, :]).sum())
    return (wins + 0.5 * ties) / float(len(pos) * len(neg))


def exhaustive_fpr_at_tpr(labels, scores, target=0.95) -> float:
    """Scan every observed score as a threshold (rule: score >= t -> OOD)."""
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=np.float64)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    best = None
    for t in np.unique(scores):
        call_ood = scores >= t
        tpr = float((call_ood & (labels == 1)).sum()) / n_pos
        fpr = float((call_ood & (labels == 0)).sum()) / n_neg
        if tpr >= target and (best is None or fpr < best):
            best = fpr
    return best if best is not None else 1.0


def digital_ellipsoid_count(radii) -> int:
    """Lattice points p with ||p / r||_2 <= 1 (center at the origin)."""
    rz, ry, rx = radii
    count = 0
    for z in range(-math.ceil(rz), math.ceil(rz) + 1):
        for y in range(-math.ceil(ry), math.ceil(ry) + 1):
            for x in range(-math.ceil(rx), math.ceil(rx) + 1):
                if (z / rz) ** 2 + (y / ry) ** 2 + (x / rx) ** 2 <= 1.0:
                    count += 1
    return count


def splitmix64_reference(seed: int, count: int) -> list[int]:
    """Straight transcription of the reference SplitMix64 algorithm."""
    mask = (1 << 64) - 1
    state = seed & mask
    out = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


# --- path-dependent tree games -------------------------------------------

def tree_value(node, x, coalition) -> float:
    """Conditional expectation of the leaf OOD probability: follow splits on
    coalition features, average absent splits by child cover fractions."""
    if node.is_leaf():
        return node.dist[1]
    if node.feature in coalition:
        child = node.left if x[node.feature] <= node.threshold else node.right
        return tree_value(child, x, coalition)
    lf = node.left.cover / node.cover
    rf = node.right.cover / node.cover
    return lf * tree_value(node.left, x, coalition) + rf * tree_value(node.right, x, coalition)


def brute_force_shapley(node, x, n_features: int) -> np.ndarray:
    """Exact Shapley values by enumerating all feature subsets."""
    phi = np.zeros(n_features)
    players = list(range(n_features))
    fact = math.factorial
    for i in players:
        rest = [j for j in players if j != i]
        for size in range(len(rest) + 1):
            for subset in itertools.combinations(rest, size):
                weight = fact(size) * fact(n_features - size - 1) / fact(n_features)
                gain = tree_value(node, x, set(subset) | {i}) - tree_value(node, x, set(subset))
                phi[i] += weight * gain
    return phi



@dataclass
class _PathElement:
    feature: int
    zero_fraction: float  # proportion of paths flowing through when absent
    one_fraction: float  # 1 if the input follows this split, else 0
    pweight: float


def _extend(path, zero_fraction, one_fraction, feature):
    path = [
        _PathElement(p.feature, p.zero_fraction, p.one_fraction, p.pweight)
        for p in path
    ]
    depth = len(path)
    path.append(_PathElement(feature, zero_fraction, one_fraction,
                             1.0 if depth == 0 else 0.0))
    for i in range(depth - 1, -1, -1):
        path[i + 1].pweight += one_fraction * path[i].pweight * (i + 1) / (depth + 1)
        path[i].pweight = zero_fraction * path[i].pweight * (depth - i) / (depth + 1)
    return path


def _unwind(path, index):
    depth = len(path) - 1
    one = path[index].one_fraction
    zero = path[index].zero_fraction
    out = [_PathElement(p.feature, p.zero_fraction, p.one_fraction, p.pweight)
           for p in path]
    next_one = out[depth].pweight
    for i in range(depth - 1, -1, -1):
        if one != 0.0:
            tmp = out[i].pweight
            out[i].pweight = next_one * (depth + 1) / ((i + 1) * one)
            next_one = tmp - out[i].pweight * zero * (depth - i) / (depth + 1)
        else:
            out[i].pweight = out[i].pweight * (depth + 1) / (zero * (depth - i))
    for i in range(index, depth):
        out[i].feature = out[i + 1].feature
        out[i].zero_fraction = out[i + 1].zero_fraction
        out[i].one_fraction = out[i + 1].one_fraction
    return out[:-1]


def _unwound_sum(path, index):
    depth = len(path) - 1
    one = path[index].one_fraction
    zero = path[index].zero_fraction
    total = 0.0
    if one != 0.0:
        next_one = path[depth].pweight
        for i in range(depth - 1, -1, -1):
            tmp = next_one * (depth + 1) / ((i + 1) * one)
            total += tmp
            next_one = path[i].pweight - tmp * zero * (depth - i) / (depth + 1)
    else:
        for i in range(depth - 1, -1, -1):
            total += path[i].pweight * (depth + 1) / (zero * (depth - i))
    return total


def _tree_shap(node, x, phi, path, parent_zero, parent_one, parent_feature):
    path = _extend(path, parent_zero, parent_one, parent_feature)
    if node.is_leaf():
        for i in range(1, len(path)):
            w = _unwound_sum(path, i)
            el = path[i]
            phi[el.feature] += w * (el.one_fraction - el.zero_fraction) * node.dist[1]
        return

    hot, cold = (node.left, node.right) if x[node.feature] <= node.threshold \
        else (node.right, node.left)
    incoming_zero = 1.0
    incoming_one = 1.0
    for k in range(1, len(path)):  # index 0 is the dummy root element
        if path[k].feature == node.feature:
            incoming_zero = path[k].zero_fraction
            incoming_one = path[k].one_fraction
            path = _unwind(path, k)
            break
    hot_frac = hot.cover / node.cover
    cold_frac = cold.cover / node.cover
    _tree_shap(hot, x, phi, path, incoming_zero * hot_frac, incoming_one, node.feature)
    _tree_shap(cold, x, phi, path, incoming_zero * cold_frac, 0.0, node.feature)


def _expectation(node) -> float:
    if node.is_leaf():
        return node.dist[1]
    lf = node.left.cover / node.cover
    rf = node.right.cover / node.cover
    return lf * _expectation(node.left) + rf * _expectation(node.right)


def _leaf_p1(node, x) -> float:
    while not node.is_leaf():
        node = node.left if x[node.feature] <= node.threshold else node.right
    return node.dist[1]


def per_row_tree_shap(forest, x):
    """(base value, contributions, prediction) of path-dependent TreeSHAP,
    one tree, one leaf and one path element at a time: the package's
    TreeSHAP before it ran every leaf of the forest at once.

    Recursion as in Lundberg et al. 2018, Alg. 2, with leaves visited hot
    child first. Per-tree values are summed over trees in order and divided
    by the tree count; so is the prediction (each tree's leaf P(OOD)).
    """
    x = np.asarray(x, dtype=np.float64)
    phi = np.zeros(forest.n_features)
    base = prediction = 0.0
    trees = tree_nodes(forest)
    for tree in trees:
        _tree_shap(tree, x, phi, [], 1.0, 1.0, -1)
        base += _expectation(tree)
        prediction += _leaf_p1(tree, x)
    phi /= len(trees)
    return base / len(trees), phi, prediction / len(trees)


# --- connected components ---------------------------------------------------

def bfs_components(mask) -> list[np.ndarray]:
    """26-connected components of the nonzero voxels by breadth-first flood
    fill, started from each unvisited voxel in C order. Each component is an
    (n_i, 3) array of its voxels in C order; components come by size
    descending, then by their smallest voxel."""
    fg = np.asarray(mask) != 0
    seen = np.zeros(fg.shape, dtype=bool)
    steps = [d for d in itertools.product((-1, 0, 1), repeat=3) if d != (0, 0, 0)]
    comps = []
    for start in np.argwhere(fg).tolist():
        start = tuple(start)
        if seen[start]:
            continue
        seen[start] = True
        queue, members = deque([start]), []
        while queue:
            v = queue.popleft()
            members.append(v)
            for d in steps:
                u = tuple(a + b for a, b in zip(v, d))
                if all(0 <= c < n for c, n in zip(u, fg.shape)) and fg[u] and not seen[u]:
                    seen[u] = True
                    queue.append(u)
        comps.append(np.array(sorted(members), dtype=np.intp))
    comps.sort(key=lambda c: (-len(c), tuple(c[0])))
    return comps


def union_find_components(mask) -> list[np.ndarray]:
    """``regions.component_roots`` split into ``bfs_components``' form:
    (n_i, 3) voxel arrays in C order, by size descending, then by their
    first voxel."""
    from oodscan.regions import component_roots

    zyx, root = component_roots(mask)
    if root.size == 0:
        return []
    vox = np.column_stack(zyx)
    roots, sizes = np.unique(root, return_counts=True)
    groups = np.split(vox[np.argsort(root, kind="stable")], np.cumsum(sizes)[:-1])
    return [groups[i] for i in np.lexsort((roots, -sizes))]


# --- masked multi-scale features ------------------------------------------

def masked_mean(stage_data: np.ndarray, stage_mask: np.ndarray) -> tuple[np.ndarray, bool]:
    """Per-channel mean of (C, ...) data over mask cells; an empty mask falls
    back to the mean over the whole grid and reports it."""
    flat = stage_data.reshape(stage_data.shape[0], -1).astype(np.float64)
    sel = stage_mask.reshape(-1).astype(bool)
    if sel.any():
        return flat[:, sel].mean(axis=1), False
    return flat.mean(axis=1), True


def full_volume_crop_features(stages, factors, mask, crops) -> np.ndarray:
    """Deep feature rows the direct way, one crop at a time: zero the mask
    outside the crop, max-pool the whole volume onto each stage grid, then
    take the stage cells [floor(o/f), ceil((o+s)/f)) and their masked
    per-channel means (the whole window's means when no cell is masked).

    ``stages`` are (C, z, y, x) arrays, ``crops`` (origin, size) pairs.
    """
    rows = []
    for origin, size in crops:
        box = tuple(slice(o, o + s) for o, s in zip(origin, size))
        cropped = np.zeros(mask.shape, dtype=bool)
        cropped[box] = mask[box] > 0
        row, fallback = [], False
        for data, f in zip(stages, factors):
            grid = data.shape[1:]
            padded = np.zeros([g * f for g in grid], dtype=bool)
            padded[tuple(slice(0, d) for d in mask.shape)] = cropped
            pooled = padded.reshape(grid[0], f, grid[1], f, grid[2], f).any(axis=(1, 3, 5))
            cells = tuple(slice(o // f, min(-(-(o + s) // f), g))
                          for o, s, g in zip(origin, size, grid))
            window = data[(slice(None),) + cells].astype(np.float64)
            sel = pooled[cells]
            if sel.any():
                row.extend(window[:, sel].mean(axis=1))
            else:
                fallback = True
                row.extend(window.reshape(len(window), -1).mean(axis=1))
        row.append(1.0 if fallback else 0.0)
        rows.append(row)
    return np.array(rows, dtype=np.float64)


def downsample_mask_to_stage(mask: np.ndarray, factor: int) -> np.ndarray:
    """Any-coverage (max-pool) reduction of a 3-D 0/1 array onto a
    ceil(dims/factor) grid whose cells start at multiples of ``factor``."""
    if factor < 1:
        raise ValueError("factor must be >= 1")
    out = mask.astype(bool)
    for axis in range(3):
        starts = np.arange(0, out.shape[axis], factor)
        out = np.maximum.reduceat(out, starts, axis=axis)
    return out


def padded_window_crop_features(stages, factors, mask, crops) -> np.ndarray:
    """Deep feature rows by max-pooling each crop's own window: the crop's
    mask zero-padded to the voxels [lo*f, hi*f) of the stage cells it
    touches (cut at the volume edge), reduced by ``downsample_mask_to_stage``.
    The package's pooling before it marked cells from voxel coordinates.

    ``stages`` are (C, z, y, x) arrays, ``crops`` (origin, size) pairs.
    """
    rows = []
    for origin, size in crops:
        crop_mask = mask[tuple(slice(o, o + s) for o, s in zip(origin, size))]
        row, fallback = [], False
        for data, f in zip(stages, factors):
            lo = [o // f for o in origin]
            hi = [min(-(-(o + s) // f), g) for o, s, g in zip(origin, size, data.shape[1:])]
            pad = [(o - a * f, min(b * f, d) - o - s)
                   for o, s, a, b, d in zip(origin, size, lo, hi, mask.shape)]
            sel = downsample_mask_to_stage(np.pad(crop_mask, pad), f)
            window = data[(slice(None),) + tuple(slice(a, b) for a, b in zip(lo, hi))]
            flat = window.reshape(len(window), -1).astype(np.float64)
            if sel.any():
                row.extend(flat[:, sel.reshape(-1)].mean(axis=1))
            else:
                fallback = True
                row.extend(flat.mean(axis=1))
        row.append(1.0 if fallback else 0.0)
        rows.append(row)
    return np.array(rows, dtype=np.float64)


# --- radiomics shape -------------------------------------------------------

def padded_diff_surface_area(mask: np.ndarray, spacing) -> float:
    """Exposed faces per orientation from the absolute differences along the
    axis of the mask padded with background, times the matching face area."""
    face_area = (spacing[1] * spacing[2], spacing[0] * spacing[2], spacing[0] * spacing[1])
    total = 0.0
    m = mask.astype(bool)
    for axis, area in enumerate(face_area):
        padded = np.pad(m, [(1, 1) if a == axis else (0, 0) for a in range(3)])
        exposed = np.abs(np.diff(padded.astype(np.int8), axis=axis)).sum()
        total += float(exposed) * area
    return total


# --- split search -----------------------------------------------------------

def per_feature_best_split(Xn, w0n, w1n, feat_ids, parent_impurity):
    """Best (decrease, feature, threshold) over ``feat_ids``, one feature at
    a time, or None: the random forest's split search before it searched all
    candidate columns in one 2-D pass.

    Candidate thresholds are midpoints between consecutive distinct sorted
    values; the first argmax picks the lowest threshold within a feature and
    an explicit comparison keeps the lowest feature index across features.
    """
    best = None
    W0 = w0n.sum()
    W1 = w1n.sum()
    for j in sorted(feat_ids):
        v = Xn[:, j]
        order = np.argsort(v, kind="stable")
        vs = v[order]
        boundaries = np.flatnonzero(vs[:-1] < vs[1:])
        if boundaries.size == 0:
            continue
        c0 = np.cumsum(w0n[order])
        c1 = np.cumsum(w1n[order])
        l0, l1 = c0[boundaries], c1[boundaries]
        r0, r1 = W0 - l0, W1 - l1
        wl, wr = l0 + l1, r0 + r1
        dec = parent_impurity - (wl - (l0 * l0 + l1 * l1) / wl) - (wr - (r0 * r0 + r1 * r1) / wr)
        k = int(np.argmax(dec))
        thr = (vs[boundaries[k]] + vs[boundaries[k] + 1]) / 2.0
        cand = (float(dec[k]), j, float(thr))
        if best is None or cand[0] > best[0]:
            best = cand
    return best


def argsort_best_split(K, w0n, w1n, W0, W1, parent_impurity):
    """Best (decrease, column, row_a, row_b) over the columns of ``K``, or
    None: the random forest's split search before it counted classes over
    label-tagged keys. ``K`` (n, m) holds the node's dense ranks of the
    candidate features; ``w0n``/``w1n`` are its rows' class weights and
    ``W0``/``W1`` their ``np.add.reduce``. The stable argsort of the ranks
    and two float prefix sums give each cut's left weights; the cut falls
    between node rows ``row_a`` and ``row_b``.
    """
    order = K.argsort(axis=0, kind="stable")
    columns = np.arange(K.shape[1])
    ks = K[order, columns]
    boundary = ks[:-1] < ks[1:]
    if not boundary.any():
        return None
    l0 = w0n[order].cumsum(axis=0)[:-1]
    l1 = w1n[order].cumsum(axis=0)[:-1]
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


def float_key_best_split(V, w0n, w1n, W0, W1, parent_impurity):
    """Best (decrease, column, lower, upper) over the columns of ``V``, or
    None: the random forest's 2-D split search before it sorted rank keys,
    with the stable sort and boundaries on the float values. The cut lies
    between the sorted values ``lower`` and ``upper``.

    ``V`` holds the node's rows of the candidate features in ascending
    feature order; ties go to the lowest threshold, then the lowest column.
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
            best = (float(dec[k, c]), c, float(vs[k, c]), float(vs[k + 1, c]))
    return best


def float_key_tree(X, y, w, max_depth, min_samples_split, m, rng):
    """One CART tree grown on ``float_key_best_split`` with the feature
    subsets drawn from ``rng`` depth-first, left child first: the forest's
    tree fitting before it searched rank keys. Nested tuples: ``("leaf",
    dist, cover)`` and ``("split", feature, threshold, dist, cover, left,
    right)``."""
    d = X.shape[1]
    w0_all, w1_all = w * (y == 0), w * (y == 1)

    def grow(idx, depth):
        w0n, w1n = w0_all[idx], w1_all[idx]
        W0, W1 = w0n.sum(), w1n.sum()
        total = float(W0 + W1)
        dist = (float(W0) / total, float(W1) / total)
        if depth >= max_depth or idx.size < min_samples_split or W0 == 0.0 or W1 == 0.0:
            return ("leaf", dist, total)
        cols = sorted(scalar_sample_indices(rng, d, m))
        a, b = float(W0), float(W1)
        parent = (a + b) - (a * a + b * b) / (a + b)
        split = float_key_best_split(X[idx[:, None], cols], w0n, w1n, W0, W1, parent)
        if split is None:
            return ("leaf", dist, total)
        _, c, lower, upper = split
        thr = (lower + upper) / 2.0  # Python floats: an overflow gives inf, no warning
        if thr == upper or math.isinf(thr):
            thr = lower  # scikit-learn's rule: the upper value must go right
        go_left = X[idx, cols[c]] <= thr
        return ("split", cols[c], thr, dist, total,
                grow(idx[go_left], depth + 1), grow(idx[~go_left], depth + 1))

    return grow(np.arange(X.shape[0]), 0)


def scalar_sample_indices(rng, n: int, k: int) -> list[int]:
    """Partial Fisher-Yates with one scalar ``randrange`` per step."""
    pool = list(range(n))
    for i in range(k):
        j = i + rng.randrange(n - i)
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:k]


class ScalarSubsets:
    """``fit_tree``'s feature subsets drawn with ``scalar_sample_indices``."""

    def __init__(self, rng, n: int, k: int):
        self.rng, self.n, self.k = rng, n, k

    def draw(self) -> list[int]:
        return scalar_sample_indices(self.rng, self.n, self.k)


def seed_whose_draw_is(word: int, draw: int) -> int:
    """The SplitMix64 seed whose ``draw``-th output (0-based) is ``word``:
    inverts the output mix, then steps the state back ``draw + 1`` times."""
    mask = (1 << 64) - 1

    def unxorshift(z, k):
        out, shift = z, k
        while shift < 64:
            out ^= z >> shift
            shift += k
        return out

    z = unxorshift(word, 31)
    z = unxorshift((z * pow(0x94D049BB133111EB, -1, 1 << 64)) & mask, 27)
    z = unxorshift((z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64)) & mask, 30)
    return (z - (draw + 1) * 0x9E3779B97F4A7C15) & mask


# --- trees ----------------------------------------------------------------------

def tree_nodes(forest):
    """The forest's trees as ``TreeNode``s, rebuilt from its node table by
    following the child indices from each root."""
    from oodscan.forest import TreeNode

    def build(i):
        node = TreeNode(feature=int(forest.feature[i]),
                        threshold=float(forest.threshold[i]),
                        dist=(float(forest.dist[i, 0]), float(forest.dist[i, 1])),
                        cover=float(forest.cover[i]))
        if not node.is_leaf():
            node.left = build(forest.left[i])
            node.right = build(forest.right[i])
        return node

    return [build(root) for root in forest.roots]


def post_order_mdi(forest) -> np.ndarray:
    """Mean decrease in impurity per feature, normalized to sum 1: a
    recursion over each tree's ``TreeNode``s that adds a split's decrease
    after those under its left child, then under its right child."""
    def impurity(w0, w1):
        return (w0 + w1) - (w0 * w0 + w1 * w1) / (w0 + w1)

    def walk(node):
        if node.is_leaf():
            return node.dist[0] * node.cover, node.dist[1] * node.cover
        (l0, l1), (r0, r1) = walk(node.left), walk(node.right)
        totals[node.feature] += (impurity(l0 + r0, l1 + r1) - impurity(l0, l1)
                                 - impurity(r0, r1))
        return l0 + r0, l1 + r1

    totals = np.zeros(forest.n_features)
    trees = tree_nodes(forest)
    for tree in trees:
        walk(tree)
    totals /= len(trees)
    if totals.sum() > 0:
        totals /= totals.sum()
    return totals


# --- prediction ---------------------------------------------------------------

def _flatten_one(tree):
    feats, thrs, lefts, rights, p1s = [], [], [], [], []

    def add(node) -> int:
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


def per_tree_predict_proba(forest, X):
    """(n, 2) class probabilities one tree at a time, each tree walked by all
    rows level by level: the forest's batch prediction before it walked
    every tree at once."""
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    p1 = np.zeros(n)
    rows = np.arange(n)
    trees = tree_nodes(forest)
    for tree in trees:
        feats, thrs, lefts, rights, leaf_p1 = _flatten_one(tree)
        node = np.zeros(n, dtype=np.int64)
        active = feats[node] >= 0
        while active.any():
            cur = node[active]
            take_left = X[rows[active], feats[cur]] <= thrs[cur]
            node[active] = np.where(take_left, lefts[cur], rights[cur])
            active = feats[node] >= 0
        p1 += leaf_p1[node]
    p1 /= len(trees)
    return np.stack([1.0 - p1, p1], axis=1)
