"""Exact Shapley attributions for the forest's OOD probability.

Path-dependent formulation: the value of a feature coalition S is the
expectation of a tree's leaf value when split decisions on features in S
follow the input and decisions on absent features average the children by
their cover fractions (cover_child / cover_parent). Shapley values of this
game are computed exactly in polynomial time by carrying, along each
root-to-leaf path, the weighted proportions of all subset sizes (the
extend/unwind recursion over unique path features; Lundberg et al. 2018,
Alg. 2). Per-forest attributions are the per-tree attributions summed over
trees in order and divided by their count; the base value is the
empty-coalition expectation summed and divided the same way. Efficiency
(base + sum(phi) = P(OOD)) is checked on every call.

One call explains one row with every leaf of every tree at once. The
recursion is run level by level over ``(nodes, path)`` arrays, and its
results equal, bit for bit, those of the recursion written one path element
and one leaf at a time:

- What does not depend on the row is planned once per forest and cached on
  it: the path features, their zero fractions (products of cover fractions,
  multiplied in path order), the position a repeated feature is unwound
  from, and the base value.
- The row only decides which child is hot at each split. That gives the
  one-fractions and the order in which leaves are visited. One-fractions
  are exactly 0 or 1, so they are kept as booleans: a product with one
  converts it to 0.0 or 1.0 first, and a division by ``(i + 1) * one``
  where ``one`` is 1 is a division by ``i + 1``.
- Every pweight is computed by the same IEEE operations on the same
  operands, in the same order, as in the scalar recursion. In extend each
  new pweight depends only on old ones, so all positions update at once.
  Unwind and the unwound sum keep their loop over positions and compute
  both ``one != 0`` branches, keeping the one the row selects.
- ``phi`` receives the same terms in the same order: one ``np.add.at``
  (which adds element by element, in index order) over the terms of each
  block of trees, sorted by tree, then by the leaf's rank in the row's
  hot-first depth-first walk, then by path position. A leaf's rank is the
  number of leaves under the hot siblings of the cold branches on its path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InternalError
from .forest import Forest, predict_proba

_EFFICIENCY_GUARD = 1e-6
_BLOCK_LEAVES = 1024  # leaves explained together; bounds the per-row arrays


@dataclass(frozen=True)
class ShapExplanation:
    base_value: float
    contributions: np.ndarray  # one value per feature
    prediction: float  # P(OOD) for the explained input


@dataclass(frozen=True)
class _Level:
    """The nodes at one depth of a block's trees, internal nodes first.

    Below the roots, a node extends its parent's path with the element of
    the parent's split: the parent's feature and ``zero``, appended at
    position ``depth``. An internal node whose feature is already on its
    path (rows ``unwind``) removes that element, at ``unwind_at``, first.
    """
    parent: np.ndarray  # index among the previous level's internal nodes
    left: np.ndarray  # the node is its parent's left child
    sibling_leaves: np.ndarray  # leaves under the parent's other child
    zero: np.ndarray
    depth: np.ndarray
    feature: np.ndarray  # one per internal node
    threshold: np.ndarray
    unwind: np.ndarray
    unwind_at: np.ndarray
    unwind_zero: np.ndarray
    leaves: slice  # this level's leaves in the block's leaf arrays


@dataclass(frozen=True)
class _Block:
    """Consecutive trees explained together; leaves in level order."""
    levels: tuple[_Level, ...]
    n_roots: int
    width: int  # longest path, the root's dummy element included
    leaf_value: np.ndarray
    leaf_last: np.ndarray  # index of the last element of the leaf's path
    leaf_feature: np.ndarray  # (leaves, width - 1): path positions 1, 2, ...
    leaf_zero: np.ndarray  # (leaves, width - 1)
    leaf_first: np.ndarray  # walk position of the first leaf of its tree


@dataclass(frozen=True)
class _Plan:
    blocks: tuple[_Block, ...]
    base_value: float


def _node_sums(forest: Forest) -> tuple[list[float], list[int]]:
    """Every node's empty-coalition value (the cover-weighted mean leaf
    P(OOD) under it) and leaf count, in one reverse sweep over the node
    table: children come after their parent."""
    feature, left, right = forest.feature.tolist(), forest.left.tolist(), forest.right.tolist()
    cover = forest.cover.tolist()
    value = forest.dist[:, 1].tolist()
    leaves = [1] * len(feature)
    for i in range(len(feature) - 1, -1, -1):
        if feature[i] >= 0:
            l, r = left[i], right[i]
            value[i] = cover[l] / cover[i] * value[l] + cover[r] / cover[i] * value[r]
            leaves[i] = leaves[l] + leaves[r]
    return value, leaves


def _pad(a: np.ndarray, width: int, fill) -> np.ndarray:
    out = np.full((a.shape[0], width), fill, dtype=a.dtype)
    out[:, :a.shape[1]] = a
    return out


def _plan_block(forest: Forest, roots: np.ndarray, leaves: np.ndarray) -> _Block:
    """The plan of the trees at ``roots``; ``leaves`` counts the leaves under
    each node of the table."""
    n = roots.size
    nodes, tree = roots, np.arange(n, dtype=np.int32)
    # each node's path after its extend: features and zero fractions by position
    feat = np.full((n, 1), -1, dtype=np.int32)
    zero = np.ones((n, 1))
    length = np.ones(n, dtype=np.int32)
    parent = depth = sibling_leaves = np.zeros(0, dtype=np.int32)
    left = np.zeros(0, dtype=bool)
    new_zero = np.zeros(0)
    levels, leaf_parts = [], []
    n_leaves = 0
    while nodes.size:
        internal = forest.feature[nodes] >= 0
        order = np.argsort(~internal, kind="stable")
        nodes, tree, feat, zero, length = (a[order] for a in (nodes, tree, feat, zero, length))
        if levels:
            parent, left, new_zero, depth, sibling_leaves = (
                a[order] for a in (parent, left, new_zero, depth, sibling_leaves))
        k = int(internal.sum())
        level_leaves = slice(n_leaves, n_leaves + nodes.size - k)
        n_leaves = level_leaves.stop
        leaf_parts.append((forest.dist[nodes[k:], 1], length[k:] - 1, feat[k:, 1:],
                           zero[k:, 1:], tree[k:]))
        inner = nodes[:k]
        f = forest.feature[inner].astype(np.int32)
        feat, zero, length = feat[:k], zero[:k], length[:k]
        # a path holds each feature once; the dummy at position 0 never matches
        match = feat[:, 1:] == f[:, None]
        unwind = np.flatnonzero(match.any(axis=1)).astype(np.int32)
        at = (np.flatnonzero(match[unwind]) % match.shape[1] + 1).astype(np.int32)
        unwind_zero = zero[unwind, at]
        levels.append(_Level(parent=parent, left=left, sibling_leaves=sibling_leaves,
                             zero=new_zero, depth=depth, feature=f,
                             threshold=forest.threshold[inner], unwind=unwind,
                             unwind_at=at, unwind_zero=unwind_zero, leaves=level_leaves))
        incoming_zero = np.ones(k)
        incoming_zero[unwind] = unwind_zero
        cols = np.arange(feat.shape[1])
        src = np.minimum(cols + (cols >= at[:, None]), feat.shape[1] - 1)
        feat[unwind] = np.take_along_axis(feat[unwind], src, axis=1)
        zero[unwind] = np.take_along_axis(zero[unwind], src, axis=1)
        length[unwind] -= 1
        feat[cols >= length[:, None]] = -1

        children = np.stack([forest.left[inner], forest.right[inner]], axis=1)
        nodes = children.ravel()
        sibling_leaves = leaves[children[:, ::-1].ravel()]
        parent = np.repeat(np.arange(k, dtype=np.int32), 2)
        left = np.tile([True, False], k)
        new_zero = incoming_zero[parent] * (forest.cover[nodes] / forest.cover[inner][parent])
        depth = length[parent]
        width = max(feat.shape[1], int(depth.max(initial=0)) + 1)
        rows = np.arange(2 * k)
        feat = _pad(feat[parent], width, -1)
        feat[rows, depth] = f[parent]
        zero = _pad(zero[parent], width, 0.0)
        zero[rows, depth] = new_zero
        length = depth + 1
        tree = tree[parent]

    width = max(p[2].shape[1] for p in leaf_parts) + 1
    value, last, lfeat, lzero, ltree = (np.concatenate(x) for x in zip(*(
        (v, m, _pad(f, width - 1, -1), _pad(z, width - 1, 0.0), t)
        for v, m, f, z, t in leaf_parts)))
    per_tree = np.bincount(ltree, minlength=n)
    first = (np.cumsum(per_tree) - per_tree).astype(np.int32)
    return _Block(levels=tuple(levels), n_roots=n, width=width,
                  leaf_value=value, leaf_last=last, leaf_feature=lfeat,
                  leaf_zero=lzero, leaf_first=first[ltree])


def _plan(forest: Forest) -> _Plan:
    if forest._shap_plan is None:
        value, leaves = _node_sums(forest)
        counts = np.array(leaves, dtype=np.int32)
        roots = forest.roots.tolist()
        blocks, start, count = [], 0, 0
        for t, root in enumerate(roots):
            count += leaves[root]
            if count >= _BLOCK_LEAVES or t == len(roots) - 1:
                blocks.append(_plan_block(forest, forest.roots[start:t + 1], counts))
                start, count = t + 1, 0
        base = 0.0
        for root in roots:
            base += value[root]
        forest._shap_plan = _Plan(tuple(blocks), base / len(roots))
    return forest._shap_plan


def _extend(pw: np.ndarray, zero: np.ndarray, one: np.ndarray,
            depth: np.ndarray) -> np.ndarray:
    """Append (zero, one) to paths of length ``depth``, in place in ``pw``;
    ``one`` is True where the one-fraction is 1.

    Slots past a path's end hold +0.0, so slot ``depth`` becomes 0.0 plus
    its share of the last old weight, as in the scalar recursion.
    """
    d = depth[:, None].astype(np.float64)
    i = np.arange(pw.shape[1], dtype=np.float64)
    grown = pw[:, :-1] * one[:, None]
    grown *= i[1:]
    grown /= d + 1.0
    pw *= zero[:, None]
    pw *= d - i
    pw /= d + 1.0
    pw[:, 1:] += grown
    return pw


def _unwind(pw: np.ndarray, one: np.ndarray, zero: np.ndarray,
            last: np.ndarray) -> np.ndarray:
    """Undo the extend by (zero, one) of paths ending at ``last``, in place;
    ``one`` is True where the one-fraction is 1."""
    rows = np.arange(last.size)
    m = last.astype(np.float64)
    next_one = pw[rows, last]
    for i in range(int(last.max()) - 1, -1, -1):
        act = i < last
        col = pw[:, i]
        up = next_one * (m + 1) / (i + 1)
        down = col * (m + 1) / (zero * (m - i))
        np.copyto(next_one, col - up * zero * (m - i) / (m + 1), where=act & one)
        np.copyto(col, np.where(one, up, down), where=act)
    pw[rows, last] = 0.0
    return pw


def _unwound_sums(pw: np.ndarray, one: np.ndarray, zero: np.ndarray,
                  last: np.ndarray) -> np.ndarray:
    """Weight of every path element 1.. of every leaf, unwound from its path."""
    m = last.astype(np.float64)[:, None]
    next_one = np.repeat(pw[np.arange(last.size), last][:, None], one.shape[1], axis=1)
    total = np.zeros(one.shape)
    for i in range(int(last.max(initial=0)) - 1, -1, -1):
        act = (i < last)[:, None]
        col = pw[:, i:i + 1]
        tmp = next_one * (m + 1) / (i + 1)
        down = col * (m + 1) / (zero * (m - i))
        np.add(total, np.where(one, tmp, down), out=total, where=act)
        np.copyto(next_one, col - tmp * zero * (m - i) / (m + 1), where=act & one)
    return total


def _block_phi(block: _Block, x: np.ndarray, phi: np.ndarray) -> None:
    """Add one block's terms to ``phi`` in the scalar recursion's order."""
    n_leaves = block.leaf_value.size
    leaf_pw = np.empty((n_leaves, block.width))
    leaf_one = np.empty((n_leaves, block.width), dtype=bool)
    leaf_rank = np.empty(n_leaves, dtype=np.intp)
    pw = np.zeros((block.n_roots, block.width))
    pw[:, 0] = 1.0  # the dummy root element: zero and one fraction 1
    one = np.zeros(pw.shape, dtype=bool)
    one[:, 0] = True
    rank = np.zeros(block.n_roots, dtype=np.intp)
    go_left = incoming_one = None
    for lv in block.levels:
        if lv.parent.size:
            hot = go_left[lv.parent] == lv.left
            o = hot & incoming_one[lv.parent]
            pw = _extend(pw[lv.parent], lv.zero, o, lv.depth)
            one = one[lv.parent]
            one[np.arange(o.size), lv.depth] = o
            rank = rank[lv.parent] + np.where(hot, 0, lv.sibling_leaves)
        k = lv.feature.size
        leaf_pw[lv.leaves] = pw[k:]
        leaf_one[lv.leaves] = one[k:]
        leaf_rank[lv.leaves] = rank[k:]
        pw, one, rank = pw[:k], one[:k], rank[:k]
        go_left = x[lv.feature] <= lv.threshold
        incoming_one = np.ones(k, dtype=bool)
        if lv.unwind.size:
            u, at = lv.unwind, lv.unwind_at
            moved = one[u]
            incoming_one[u] = unwound_one = moved[np.arange(u.size), at]
            pw[u] = _unwind(pw[u], unwound_one, lv.unwind_zero, lv.depth[u])
            cols = np.arange(block.width)
            src = np.minimum(cols + (cols >= at[:, None]), block.width - 1)
            one[u] = np.take_along_axis(moved, src, axis=1)

    one = leaf_one[:, 1:]
    terms = _unwound_sums(leaf_pw, one, block.leaf_zero, block.leaf_last)
    terms *= one - block.leaf_zero
    terms *= block.leaf_value[:, None]
    order = np.empty(n_leaves, dtype=np.intp)
    order[block.leaf_first + leaf_rank] = np.arange(n_leaves)
    on_path = np.arange(1, block.width) <= block.leaf_last[order, None]
    np.add.at(phi, block.leaf_feature[order][on_path], terms[order][on_path])


def tree_shap(forest: Forest, x: np.ndarray) -> ShapExplanation:
    """Exact per-feature Shapley attribution of the forest's P(OOD) at x."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (forest.n_features,):
        raise ValueError(f"expected {forest.n_features} feature values, got {x.shape}")
    plan = _plan(forest)
    phi = np.zeros(forest.n_features)
    with np.errstate(divide="ignore", invalid="ignore"):
        for block in plan.blocks:
            _block_phi(block, x, phi)
    phi /= forest.roots.size
    base = plan.base_value
    prediction = predict_proba(forest, x)[1]
    if not abs(base + phi.sum() - prediction) <= _EFFICIENCY_GUARD:
        raise InternalError(
            f"shap efficiency violated: base {base} + sum(phi) {phi.sum()} "
            f"!= prediction {prediction}"
        )
    return ShapExplanation(base_value=base, contributions=phi, prediction=prediction)
