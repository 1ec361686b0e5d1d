import importlib
import re
from pathlib import Path

import numpy as np
import pytest

from oodscan.cohorts import CohortSpec, generate_scan, make_cohort
from oodscan.errors import ConfigError

from oracles import digital_ellipsoid_count
from test_acceptance import ABLATION_CONFIG, SEPARABILITY_CONFIG


def spec(**overrides) -> CohortSpec:
    base = dict(cohort_name="c", cohort_label="ID", n_scans=2, seed=11)
    base.update(overrides)
    return CohortSpec(**base)


# --- scan generation ------------------------------------------------------

def test_digital_ellipsoid_voxel_count():
    s = spec(blob_count=(1, 1), blob_radius=(4.0, 4.0),
             texture_std=0.0, background_std=0.0)
    _, mask, _ = generate_scan(s, 0)
    assert mask.data.sum() == digital_ellipsoid_count((4.0, 4.0, 4.0))


def test_determinism_bit_identical():
    s = spec()
    a = generate_scan(s, 1)
    b = generate_scan(s, 1)
    for x, y in zip(a, b):
        assert np.array_equal(x.data, y.data)
    c = generate_scan(s, 2)
    assert not np.array_equal(a[0].data, c[0].data)


def test_no_blobs_background_only():
    s = spec(blob_count=(0, 0), texture_std=0.0, background_std=0.0)
    vol, mask, _ = generate_scan(s, 0)
    assert mask.data.sum() == 0
    assert np.allclose(vol.data, s.background_mean)


def test_blobs_are_additive_over_background():
    s = spec(texture_std=0.0, background_std=0.0)
    vol, mask, _ = generate_scan(s, 3)
    inside = vol.data[mask.data.astype(bool)]
    assert (inside >= s.background_mean).all()


def test_miscalibration_raises_tumor_logits():
    plain = spec(cohort_label="OOD")
    hot = spec(cohort_label="OOD", logit_miscalibration=3.0)
    _, mask_p, logits_p = generate_scan(plain, 0)
    _, mask_h, logits_h = generate_scan(hot, 0)
    assert np.array_equal(mask_p.data, mask_h.data)  # same geometry stream
    sel = mask_p.data.astype(bool)
    delta = logits_h.data[1][sel] - logits_p.data[1][sel]
    assert np.allclose(delta, 3.0, atol=1e-5)


def test_spec_validation():
    with pytest.raises(ConfigError, match="empty cohort"):
        spec(n_scans=0)
    with pytest.raises(ConfigError, match="label"):
        spec(cohort_label="NEITHER")
    with pytest.raises(ConfigError, match="fit inside"):
        spec(blob_radius=(20.0, 20.0))



@pytest.mark.parametrize("name", ["../outside", "sub/dir", "back\\slash", "nul\0", ".hidden",
                                  "..", ""])
def test_cohort_name_must_be_a_plain_file_stem(name):
    with pytest.raises(ConfigError, match=re.escape(f"cohort {name!r}: a cohort_name must")):
        spec(cohort_name=name)


def test_shipped_cohort_names_are_file_stems(monkeypatch):
    # the acceptance suite's and the benchmark's configurations, and the README's
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
    docs = [c for cfg in (SEPARABILITY_CONFIG, ABLATION_CONFIG) for c in cfg["cohorts"]]
    docs += [c for w in workloads.WORKLOADS.values() for c in w.config(0)["cohorts"]]
    names = {CohortSpec(**c).cohort_name for c in docs}
    names.add(spec(cohort_name="demo").cohort_name)
    assert {"id_lung", "far_abdomen", "near_pe", "near_subtle", "sparse", "crowded",
            "a", "b", "demo"} == names


# --- cohort writing -------------------------------------------------------

def test_make_cohort_layout_and_rerun_identical(tmp_path):
    specs = [
        spec(cohort_name="alpha", n_scans=10, seed=1),
        spec(cohort_name="beta", cohort_label="OOD", n_scans=10, seed=2),
    ]
    m = make_cohort(specs, tmp_path / "run")
    assert len(m.records) == 20
    ids = [r.scan_id for r in m.records]
    assert len(set(ids)) == 20
    assert ids[0] == "alpha_0000" and ids[10] == "beta_0000"
    assert m.provenance and "specs" in m.provenance

    before = {p.name: p.read_bytes() for p in (tmp_path / "run").iterdir()}
    make_cohort(specs, tmp_path / "run")
    after = {p.name: p.read_bytes() for p in (tmp_path / "run").iterdir()}
    assert before == after
