import numpy as np
import pytest
from hypothesis import given, strategies as st

from oodscan.radiomics import RADIOMICS_NAMES, _surface_area, radiomics_lite
from oodscan.volumes import Grid
from oracles import padded_diff_surface_area


def build(intensities_at, dims=(6, 6, 6), spacing=(1.0, 1.0, 1.0), fill=0.0):
    data = np.full(dims, fill, dtype=np.float32)
    mask = np.zeros(dims, dtype=np.uint8)
    for voxel, value in intensities_at.items():
        data[voxel] = value
        mask[voxel] = 1
    return Grid(data, spacing), Grid(mask, spacing)


def feats(row):
    assert row.shape == (len(RADIOMICS_NAMES),)
    return dict(zip(RADIOMICS_NAMES, row))


def test_single_voxel_shape_features():
    vol, mask = build({(3, 3, 3): 0.5})
    f = feats(radiomics_lite(vol, mask))
    assert f["sh_voxel_count"] == 1.0
    assert f["sh_volume_mm3"] == pytest.approx(1.0)
    assert f["sh_surface_mm2"] == pytest.approx(6.0)
    # one cube: (36 pi V^2)^(1/3) / A evaluated directly
    assert f["sh_sphericity"] == pytest.approx((36.0 * np.pi) ** (1.0 / 3.0) / 6.0)
    assert f["sh_sphericity"] == pytest.approx(0.8060, abs=1e-4)
    assert f["sh_bbox_diag"] == pytest.approx(np.sqrt(3.0))


def test_symmetric_sample_has_zero_skewness():
    # values exactly representable in the float32 payload: exact symmetry
    vol, mask = build({(0, 0, 0): 0.25, (0, 0, 2): 0.5, (0, 0, 4): 0.75})
    f = feats(radiomics_lite(vol, mask))
    assert f["fo_skewness"] == pytest.approx(0.0, abs=1e-12)
    assert f["fo_mean"] == pytest.approx(0.5)
    assert f["fo_median"] == pytest.approx(0.5)
    # {0.2, 0.5, 0.8} is symmetric only up to float32 storage error
    vol, mask = build({(0, 0, 0): 0.2, (0, 0, 2): 0.5, (0, 0, 4): 0.8})
    f = feats(radiomics_lite(vol, mask))
    assert f["fo_skewness"] == pytest.approx(0.0, abs=1e-6)


def test_constant_region():
    voxels = {(1, y, x): 0.5 for y in range(3) for x in range(3)}
    vol, mask = build(voxels)
    f = feats(radiomics_lite(vol, mask))
    assert f["fo_variance"] == 0.0
    assert f["fo_skewness"] == 0.0
    assert f["fo_kurtosis"] == 0.0
    assert f["fo_entropy"] == 0.0
    assert f["fo_uniformity"] == 1.0
    assert f["fo_iqr"] == 0.0


def test_empty_mask_all_zero_with_flag():
    vol, mask = build({})
    v = radiomics_lite(vol, mask)
    f = feats(v)
    assert f["empty_mask"] == 1.0
    assert np.array_equal(v[:-1], np.zeros(len(RADIOMICS_NAMES) - 1))


def test_spacing_scales_physical_shape():
    vol, mask = build({(2, 2, 2): 0.3}, spacing=(2.0, 1.0, 0.5))
    f = feats(radiomics_lite(vol, mask))
    assert f["sh_volume_mm3"] == pytest.approx(1.0)  # 2 * 1 * 0.5
    # two faces per orientation: 2*(1*0.5) + 2*(2*0.5) + 2*(2*1)
    assert f["sh_surface_mm2"] == pytest.approx(1.0 + 2.0 + 4.0)


@given(st.integers(0, 10_000))
def test_first_order_invariant_under_voxel_permutation(seed):
    rng = np.random.default_rng(seed)
    voxels = [(z, y, x) for z in range(2) for y in range(3) for x in range(2)]
    values = rng.random(len(voxels))
    vol_a, mask = build(dict(zip(voxels, values)))
    vol_b, _ = build(dict(zip(voxels, rng.permutation(values))))
    fa = feats(radiomics_lite(vol_a, mask))
    fb = feats(radiomics_lite(vol_b, mask))
    for name in fa:
        if name.startswith("fo_"):
            assert fa[name] == pytest.approx(fb[name], abs=1e-12), name


@given(st.integers(0, 10_000))
def test_shape_invariant_under_intensity_change(seed):
    rng = np.random.default_rng(seed)
    voxels = {(z, y, x): rng.random()
              for z in range(1, 4) for y in range(2, 5) for x in range(3, 5)}
    vol_a, mask = build(voxels)
    vol_b, _ = build({v: rng.random() for v in voxels})
    fa = feats(radiomics_lite(vol_a, mask))
    fb = feats(radiomics_lite(vol_b, mask))
    for name in fa:
        if name.startswith("sh_"):
            assert fa[name] == fb[name], name


def test_all_values_finite_on_random_masks():
    rng = np.random.default_rng(5)
    for _ in range(20):
        dims = (8, 8, 8)
        data = rng.random(dims).astype(np.float32)
        mask = (rng.random(dims) < 0.1).astype(np.uint8)
        v = radiomics_lite(
            Grid(data, (1, 1, 1)),
            Grid(mask),
        )
        assert np.all(np.isfinite(v))


def test_entropy_of_two_value_split():
    # 4 voxels in bin 0 and 4 voxels in bin 63: entropy ln 2, uniformity 0.5
    voxels = {(0, 0, x): 0.001 for x in range(4)}
    voxels.update({(1, 0, x): 0.999 for x in range(4)})
    vol, mask = build(voxels)
    f = feats(radiomics_lite(vol, mask))
    assert f["fo_entropy"] == pytest.approx(np.log(2.0))
    assert f["fo_uniformity"] == pytest.approx(0.5)


@given(st.tuples(*(st.integers(1, 7) for _ in range(3))), st.integers(0, 2**32 - 1),
       st.sampled_from([0.0, 0.3, 0.7, 1.0]),
       st.tuples(*(st.sampled_from([0.5, 1.0, 2.5]) for _ in range(3))))
def test_surface_area_equals_padded_diff_on_masks_touching_every_face(dims, seed, density,
                                                                       spacing):
    rng = np.random.default_rng(seed)
    mask = rng.random(dims) < density
    for axis in range(3):
        for side in (0, -1):
            face = np.moveaxis(mask, axis, 0)[side]
            face[tuple(rng.integers(0, n) for n in face.shape)] = True
    data = mask.astype(np.uint8)
    assert _surface_area(data, spacing) == padded_diff_surface_area(data, spacing)
