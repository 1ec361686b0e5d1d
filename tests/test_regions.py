import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import ndimage

import oodscan
from oodscan.regions import (
    EMPTY_MASK_FEATURE,
    CropBox,
    deep_feature_names,
    deep_feature_vector,
    largest_component_centroid,
    tumor_crops,
)
from oodscan.rng import SplitMix64, derive
from oodscan.encoder import ToyEncoderConfig, toy_encode
from oodscan.volumes import FeaturePyramid, Grid
from oracles import (
    bfs_components,
    downsample_mask_to_stage,
    full_volume_crop_features,
    masked_mean,
    padded_window_crop_features,
    union_find_components,
)


def mask_from(dims, voxels):
    data = np.zeros(dims, dtype=np.uint8)
    for v in voxels:
        data[v] = 1
    return Grid(data)


# --- connected components -------------------------------------------------

def test_two_isolated_voxels():
    comps = union_find_components(mask_from((5, 5, 5), [(0, 0, 0), (4, 4, 4)]))
    assert [len(c) for c in comps] == [1, 1]
    assert tuple(comps[0][0]) == (0, 0, 0)  # tie broken by smallest seed voxel


def test_full_grid_single_component():
    m = Grid(np.ones((3, 4, 5), dtype=np.uint8))
    comps = union_find_components(m)
    assert len(comps) == 1 and len(comps[0]) == 60


def test_face_and_corner_adjacency_join_under_26():
    face = union_find_components(mask_from((3, 3, 3), [(0, 0, 0), (0, 0, 1)]))
    corner = union_find_components(mask_from((3, 3, 3), [(0, 0, 0), (1, 1, 1)]))
    assert len(face) == 1
    assert len(corner) == 1


def test_sorted_by_size_descending():
    big = [(2, y, x) for y in range(3) for x in range(3)]
    comps = union_find_components(mask_from((5, 5, 5), [(0, 0, 0)] + big))
    assert [len(c) for c in comps] == [9, 1]


@st.composite
def component_masks(draw):
    dims = tuple(draw(st.integers(1, 10), label="dim") for _ in range(3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    kind = draw(st.sampled_from(["density", "corner chains", "equal components"]))
    if kind == "density":
        density = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0), label="density")
        return rng.random(dims) < density
    data = np.zeros(dims, dtype=bool)
    if kind == "corner chains":
        # every step moves along all three axes, so consecutive voxels of a
        # chain share a corner and nothing else
        for _ in range(rng.integers(1, 5)):
            v, step = rng.integers(0, dims), rng.choice([-1, 1], size=3)
            while all(0 <= c < n for c, n in zip(v, dims)) and rng.random() < 0.9:
                data[tuple(v)] = True
                v = v + step
    else:
        # one shape inside a 2x2x2 block (whose voxels all touch) copied onto a
        # stride-3 lattice: the copies are equal and never touch, but for the
        # ones cut at the volume edge
        shape = rng.random((2, 2, 2)) < 0.5
        shape[0, 0, 0] = True
        for z, y, x in itertools.product(*(range(0, n, 3) for n in dims)):
            block = data[z:z + 2, y:y + 2, x:x + 2]
            block |= shape[:block.shape[0], :block.shape[1], :block.shape[2]]
    return data


def scipy_components(data):
    labels, n = ndimage.label(data, structure=np.ones((3, 3, 3), dtype=bool))
    comps = [np.argwhere(labels == lbl) for lbl in range(1, n + 1)]
    comps.sort(key=lambda c: (-len(c), tuple(c[0])))
    return comps


@given(component_masks())
def test_components_equal_flood_fill_and_scipy_label(data):
    got = union_find_components(Grid(data.astype(np.uint8)))
    for want in (bfs_components(data), scipy_components(data)):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            assert np.array_equal(g, w)


@given(component_masks())
def test_largest_component_centroid_is_the_first_flood_fill_components_mean(data):
    comps = bfs_components(data)
    got = largest_component_centroid(Grid(data.astype(np.uint8)))
    if not comps:
        assert got is None
    else:
        assert got == tuple(comps[0].mean(axis=0))


def test_largest_component_tie_goes_to_the_smaller_first_voxel():
    # two components of 2 voxels; the one starting at (0, 5, 5) comes first in C order
    mask = mask_from((6, 6, 6), [(4, 0, 0), (4, 0, 1), (0, 5, 5), (1, 5, 5)])
    assert largest_component_centroid(mask) == (0.5, 5.0, 5.0)
    assert largest_component_centroid(mask_from((6, 6, 6), [])) is None


def test_importing_the_cli_loads_no_scipy():
    env = dict(os.environ)
    src = str(Path(oodscan.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, oodscan.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


# --- crops ------------------------------------------------------------------

def test_single_crop_centered_on_centroid():
    m = mask_from((32, 32, 32), [(16, 16, 16)])
    crops = tumor_crops(m, k=1, crop_size=(8, 8, 8), jitter_radius=3, seed=1)
    assert crops == [CropBox(origin=(12, 12, 12), size=(8, 8, 8))]


def test_boundary_crops_clamped_inside():
    m = mask_from((16, 16, 16), [(0, 0, 15)])
    for crop in tumor_crops(m, k=8, crop_size=(8, 8, 8), jitter_radius=4, seed=3):
        assert all(0 <= o and o + s <= 16 for o, s in zip(crop.origin, crop.size))


def test_jitters_match_documented_stream():
    seed, j = 77, 2
    m = mask_from((32, 32, 32), [(16, 16, 16)])
    crops = tumor_crops(m, k=8, crop_size=(8, 8, 8), jitter_radius=j, seed=seed)
    r = SplitMix64(derive(seed, "crops"))
    expected = [(0, 0, 0)]
    for _ in range(7):
        expected.append(tuple(r.randint(-j, j) for _ in range(3)))
    got = [tuple(o - (16 - 4) for o in c.origin) for c in crops]  # no clamping here
    assert got == expected


def test_empty_mask_uses_volume_center():
    m = mask_from((32, 32, 32), [])
    crops = tumor_crops(m, k=1, crop_size=(8, 8, 8), jitter_radius=0, seed=0)
    assert crops[0].origin == (12, 12, 12)


# --- stage mask reduction ---------------------------------------------------

def test_single_voxel_survives_any_factor():
    m = mask_from((16, 16, 16), [(9, 3, 14)])
    stage = downsample_mask_to_stage(m.data, 8)
    assert stage.shape == (2, 2, 2)
    assert stage.sum() == 1
    assert stage[1, 0, 1]


def test_factor_one_is_identity():
    m = mask_from((4, 4, 4), [(1, 2, 3)])
    assert np.array_equal(downsample_mask_to_stage(m.data, 1), m.data.astype(bool))


def test_full_block_reduces_to_one():
    m = Grid(np.ones((2, 2, 2), dtype=np.uint8))
    stage = downsample_mask_to_stage(m.data, 2)
    assert stage.shape == (1, 1, 1) and stage[0, 0, 0]


@given(st.integers(0, 10_000))
def test_nonempty_mask_stays_nonempty_at_every_factor(seed):
    rng = np.random.default_rng(seed)
    data = (rng.random((8, 8, 8)) < 0.05).astype(np.uint8)
    if data.sum() == 0:
        data[tuple(rng.integers(0, 8, 3))] = 1
    for factor in (2, 4, 8):
        assert downsample_mask_to_stage(data, factor).any()


# --- masked means -----------------------------------------------------------

def test_constant_map_any_mask():
    data = np.full((3, 4, 4, 4), 2.5)
    sel = np.zeros((4, 4, 4), dtype=bool)
    sel[1, 2, 3] = True
    values, fb = masked_mean(data, sel)
    assert not fb
    assert values == pytest.approx([2.5, 2.5, 2.5])


def test_two_cell_mean():
    data = np.zeros((1, 1, 1, 2))
    data[0, 0, 0, 0] = 1.0
    data[0, 0, 0, 1] = 3.0
    values, _ = masked_mean(data, np.ones((1, 1, 2), dtype=bool))
    assert values[0] == 2.0


def test_empty_mask_falls_back_to_global_mean():
    rng = np.random.default_rng(0)
    data = rng.random((2, 3, 3, 3))
    values, fb = masked_mean(data, np.zeros((3, 3, 3), dtype=bool))
    assert fb
    assert values == pytest.approx(data.reshape(2, -1).mean(axis=1))


@given(st.integers(0, 10_000))
def test_full_mask_equals_global_mean(seed):
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(4, 2, 3, 2))
    values, fb = masked_mean(data, np.ones((2, 3, 2), dtype=bool))
    assert not fb
    assert values == pytest.approx(data.reshape(4, -1).mean(axis=1))


# --- deep feature rows ------------------------------------------------------

@pytest.fixture(scope="module")
def scan():
    rng = np.random.default_rng(12)
    dims = (32, 32, 32)
    vol = Grid(rng.random(dims).astype(np.float32), (1, 1, 1))
    data = np.zeros(dims, dtype=np.uint8)
    data[14:19, 15:20, 13:17] = 1
    mask = Grid(data)
    pyramid = toy_encode(vol, ToyEncoderConfig(seed=5))
    return vol, mask, pyramid


def test_vector_length_and_slices(scan):
    _, mask, pyramid = scan
    crops = tumor_crops(mask, k=2, crop_size=(16, 16, 16), jitter_radius=2, seed=4)
    rows = deep_feature_vector(pyramid, mask, crops)
    names = deep_feature_names(pyramid)
    assert rows.shape[0] == 2
    assert rows.dtype == np.float64
    widths_total = sum(1 for n in names if n != EMPTY_MASK_FEATURE)
    assert widths_total == 8 + 8 + 16 + 32 + 64 == 128
    assert len(names) == rows.shape[1] == 129  # stage features + empty_mask flag
    assert names[-1] == "empty_mask"
    assert rows[0, -1] == 0.0
    assert names[8 + 8 + 16 + 32] == "SB4_000"


def test_constant_pyramid_gives_constant_features(scan):
    _, mask, pyramid = scan
    const_stages = tuple(Grid(np.full_like(s.data, 0.625), s.spacing)
                         for s in pyramid.stages)
    const_pyr = type(pyramid)(volume_dims=pyramid.volume_dims,
                              stages=const_stages, factors=pyramid.factors)
    crops = tumor_crops(mask, k=3, crop_size=(16, 16, 16), jitter_radius=2, seed=9)
    for row in deep_feature_vector(const_pyr, mask, crops):
        assert np.allclose(row[:-1], 0.625)


def test_full_volume_crop_equals_whole_scan_means(scan):
    _, mask, pyramid = scan
    crop = CropBox(origin=(0, 0, 0), size=(32, 32, 32))
    row = deep_feature_vector(pyramid, mask, [crop])[0]
    expect = []
    for stage, factor in zip(pyramid.stages, pyramid.factors):
        stage_mask = downsample_mask_to_stage(mask.data, factor)
        values, _ = masked_mean(stage.data, stage_mask)
        expect.append(values)
    assert np.allclose(row[:-1], np.concatenate(expect))


def test_invariant_to_mask_outside_crop(scan):
    _, mask, pyramid = scan
    crops = [CropBox(origin=(8, 8, 8), size=(16, 16, 16))]
    base = deep_feature_vector(pyramid, mask, crops)[0]
    mutated = mask.data.copy()
    mutated[0:4, 0:4, 0:4] = 1  # far away from the crop
    far = Grid(mutated)
    out = deep_feature_vector(pyramid, far, crops)[0]
    assert np.array_equal(base, out)


def test_empty_crop_sets_flag_and_stays_finite(scan):
    _, _, pyramid = scan
    empty = Grid(np.zeros((32, 32, 32), dtype=np.uint8))
    crops = [CropBox(origin=(0, 0, 0), size=(8, 8, 8))]
    row = deep_feature_vector(pyramid, empty, crops)[0]
    assert row[-1] == 1.0
    assert np.all(np.isfinite(row))


def draw_pyramid(data, dims):
    """A random mask of ``dims`` and a pyramid of random stages on five
    distinct factors, each stage ceil(dims / f) cells per axis."""
    factors = sorted(data.draw(st.sets(st.integers(1, 9), min_size=5, max_size=5),
                               label="factors"))
    density = data.draw(st.sampled_from([0.0, 0.01, 0.1, 0.5, 1.0]), label="density")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    mask = Grid((rng.random(dims) < density).astype(np.uint8))
    stages = tuple(
        Grid(rng.normal(size=(c, *(-(-d // f) for d in dims))).astype(np.float32))
        for c, f in zip((1, 2, 2, 3, 5), factors)
    )
    return mask, FeaturePyramid(volume_dims=dims, stages=stages, factors=factors)


def oracle_rows(oracle, pyramid, mask, crops):
    return oracle([s.data for s in pyramid.stages], pyramid.factors, mask.data,
                  [(c.origin, c.size) for c in crops])


@given(st.data())
def test_rows_equal_full_volume_oracle_bit_for_bit(data):
    # dims mostly not divisible by the factors; crops at random places,
    # clamped at the volume edge by tumor_crops, and in the far corner
    dims = tuple(data.draw(st.integers(3, 19), label="dim") for _ in range(3))
    mask, pyramid = draw_pyramid(data, dims)
    size = tuple(data.draw(st.integers(1, d), label="size") for d in dims)
    crops = [CropBox(origin=tuple(data.draw(st.integers(0, d - s), label="origin")
                                  for d, s in zip(dims, size)), size=size),
             CropBox(origin=tuple(d - s for d, s in zip(dims, size)), size=size)]
    crops += tumor_crops(mask, k=3, crop_size=size, jitter_radius=3,
                         seed=data.draw(st.integers(0, 99), label="crop seed"))

    rows = deep_feature_vector(pyramid, mask, crops)
    expect = oracle_rows(full_volume_crop_features, pyramid, mask, crops)
    assert rows.dtype == np.float64
    assert rows.tobytes() == expect.tobytes()


@given(st.data())
def test_rows_equal_padded_window_oracle_bit_for_bit(data):
    # a prime first axis: at least three of the five factors leave a last
    # stage cell that reaches past the volume (hi * f > dims)
    dims = (data.draw(st.sampled_from([5, 7, 11, 13, 17, 19]), label="prime dim"),
            *(data.draw(st.integers(3, 19), label="dim") for _ in range(2)))
    mask, pyramid = draw_pyramid(data, dims)
    size = tuple(data.draw(st.integers(1, d), label="size") for d in dims)
    inner = CropBox(origin=tuple(data.draw(st.integers(0, d - s), label="origin")
                                 for d, s in zip(dims, size)), size=size)
    edges = [CropBox(origin=(0, 0, 0), size=size),
             CropBox(origin=tuple(d - s for d, s in zip(dims, size)), size=size)]
    hollow = mask.data.copy()
    hollow[inner.slices()] = 0  # the mask is empty inside this crop alone
    for m, crops in ((mask, [inner] + edges), (Grid(hollow), [inner])):
        rows = deep_feature_vector(pyramid, m, crops)
        expect = oracle_rows(padded_window_crop_features, pyramid, m, crops)
        assert rows.tobytes() == expect.tobytes()
    assert rows[0, -1] == 1.0
