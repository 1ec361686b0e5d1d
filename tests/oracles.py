"""Independent reference implementations the tests check the package against.

Everything here is deliberately brute force and shares no code with the
implementations under test.
"""

from __future__ import annotations

import itertools
import math

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


# --- masked multi-scale features ------------------------------------------

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


def scalar_sample_indices(rng, n: int, k: int) -> list[int]:
    """Partial Fisher-Yates with one scalar ``randrange`` per step."""
    pool = list(range(n))
    for i in range(k):
        j = i + rng.randrange(n - i)
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:k]


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
