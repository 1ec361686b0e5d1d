"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s``. Thresholds for the
end-to-end criteria (06, 07, 10) are properties of the shipped synthetic
generator, verified at these exact settings before being frozen here.
"""

import csv
import json
import math
import time
from decimal import Decimal, getcontext

import numpy as np
import pytest

from oodscan.cli import main as cli_main
from oodscan.forest import (
    Forest,
    RFParams,
    balanced_weights,
    fit_forest,
    fit_tree,
    load_model,
    predict_proba_batch,
    save_model,
)
from oodscan.metrics import auroc, fpr_at_tpr
from oodscan.ovf import read_ovf, write_ovf
from oodscan.rng import SplitMix64, derive
from oodscan.scores import ScoreConfig, voxel_scores, voxel_softmax
from oodscan.treeshap import tree_shap
from oodscan.volumes import Grid

from oracles import (
    brute_force_shapley,
    exhaustive_fpr_at_tpr,
    pairwise_auroc,
    tree_value,
)


def verdict(criterion: int, ok: bool, detail: str) -> None:
    line = f"[ACCEPTANCE] criterion {criterion:02d}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


# --- 01: metric oracles -----------------------------------------------------

def test_criterion_01_metric_oracles():
    start = time.time()
    rng = np.random.default_rng(20240101)
    exact_auroc = exact_fpr = True
    for _ in range(1000):
        n = int(rng.integers(2, 501))
        labels = np.zeros(n, dtype=int)
        labels[: int(rng.integers(1, n))] = 1
        rng.shuffle(labels)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        scores = np.round(rng.normal(size=n), 1)  # quantized: forced ties
        exact_auroc &= auroc(labels, scores) == pairwise_auroc(labels, scores)
        exact_fpr &= fpr_at_tpr(labels, scores) == exhaustive_fpr_at_tpr(labels, scores)
    elapsed = time.time() - start
    verdict(1, exact_auroc and exact_fpr and elapsed < 30.0,
            f"1000 sets exact auroc={exact_auroc} fpr={exact_fpr} in {elapsed:.1f}s")


# --- 02: SHAP oracle ----------------------------------------------------------

def _random_tree(rng: SplitMix64, n_features: int, max_leaves: int = 12):
    from oodscan.forest import TreeNode

    budget = [rng.randint(2, max_leaves)]

    def build(depth):
        if depth >= 4 or budget[0] < 2 or rng.random() < 0.25:
            budget[0] -= 1
            v = rng.random()
            return TreeNode(dist=(1.0 - v, v), cover=rng.uniform(0.5, 4.0))
        budget[0] -= 1
        left = build(depth + 1)
        right = build(depth + 1)
        node = TreeNode(feature=rng.randrange(n_features),
                        threshold=rng.uniform(0.1, 0.9), left=left, right=right)
        node.cover = left.cover + right.cover
        return node

    return build(0)


def test_criterion_02_shap_oracle():
    rng = SplitMix64(777)
    max_err = 0.0
    max_eff = 0.0
    for _ in range(200):
        d = rng.randint(1, 4)
        root = _random_tree(rng, d)
        forest = Forest(trees=[root], n_features=d,
                        feature_names=tuple(f"f{j}" for j in range(d)),
                        seed=0, params=RFParams(n_trees=1))
        x = np.array([rng.random() for _ in range(d)])
        exp = tree_shap(forest, x)
        oracle = brute_force_shapley(root, x, d)
        max_err = max(max_err, float(np.abs(exp.contributions - oracle).max()))
        max_err = max(max_err, abs(exp.base_value - tree_value(root, x, set())))
        max_eff = max(max_eff,
                      abs(exp.base_value + exp.contributions.sum() - exp.prediction))
    # efficiency on fitted multi-tree forests as well
    srng = SplitMix64(778)
    X = srng.normal_block(60 * 4).reshape(60, 4)
    y = (X[:, 0] > 0).astype(int)
    forest = fit_forest(X, y, RFParams(n_trees=10, max_depth=5), seed=9)
    for i in range(20):
        exp = tree_shap(forest, X[i])
        max_eff = max(max_eff,
                      abs(exp.base_value + exp.contributions.sum() - exp.prediction))
    verdict(2, max_err <= 1e-9 and max_eff <= 1e-9,
            f"200 trees max|phi-oracle|={max_err:.2e} max efficiency gap={max_eff:.2e}")


# --- 03: RF sanity -------------------------------------------------------------

def test_criterion_03_rf_sanity():
    rng = SplitMix64(3)
    X = rng.normal_block(200 * 2).reshape(200, 2)
    X[100:] += 6.0
    y = np.array([0] * 100 + [1] * 100)
    forest = fit_forest(X, y, RFParams(n_trees=50, max_depth=12), seed=1)
    acc = float(((predict_proba_batch(forest, X)[:, 1] > 0.5).astype(int) == y).mean())

    X_xor = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    y_xor = np.array([0, 1, 1, 0])
    tree = fit_tree(X_xor, y_xor, (1.0, 1.0),
                    RFParams(max_depth=2, max_features=2), SplitMix64(5))
    xor_forest = Forest(trees=[tree], n_features=2, feature_names=("a", "b"),
                        seed=0, params=RFParams(n_trees=1))
    xor_pred = predict_proba_batch(xor_forest, X_xor)[:, 1]
    xor_exact = bool(np.array_equal(xor_pred > 0.5, y_xor.astype(bool))
                     and np.allclose(np.abs(xor_pred - 0.5), 0.5))

    transforms = [lambda c: 3.0 * c + 2.0, lambda c: c ** 3,
                  lambda c: np.exp(c / 4.0), lambda c: c]
    invariant = True
    for seed in range(50):
        drng = SplitMix64(derive(40_000, "mono", seed))
        Xd = drng.normal_block(40 * 4).reshape(40, 4)
        yd = (Xd[:, 0] + 0.5 * Xd[:, 2] > 0).astype(int)
        if yd.min() == yd.max():
            continue
        Xt = Xd.copy()
        for j in range(4):
            Xt[:, j] = transforms[drng.randrange(4)](Xd[:, j])
        w = balanced_weights(yd)
        params = RFParams(max_depth=6)
        ta = fit_tree(Xd, yd, w, params, SplitMix64(seed))
        tb = fit_tree(Xt, yd, w, params, SplitMix64(seed))
        fa = Forest(trees=[ta], n_features=4, feature_names=("a", "b", "c", "d"),
                    seed=0, params=params)
        fb = Forest(trees=[tb], n_features=4, feature_names=("a", "b", "c", "d"),
                    seed=0, params=params)
        invariant &= bool(np.array_equal(predict_proba_batch(fa, Xd),
                                         predict_proba_batch(fb, Xt)))
    verdict(3, acc >= 0.99 and xor_exact and invariant,
            f"blob acc={acc:.3f} xor exact={xor_exact} monotone invariant={invariant}")


# --- 04: balanced weights -------------------------------------------------------

def test_criterion_04_balanced_weights():
    params = RFParams(n_trees=20, max_depth=8)
    rb, rf = [], []
    for seed in range(20):
        rng = SplitMix64(derive(1000, "imbalance", seed))
        X = rng.normal_block(100 * 2).reshape(100, 2)
        X[90:] += 1.5
        y = np.array([0] * 90 + [1] * 10)
        balanced = fit_forest(X, y, params, seed=seed)
        rb.append(float((predict_proba_batch(balanced, X)[:, 1] > 0.5)[y == 1].mean()))

        flat_trees = []
        for t in range(params.n_trees):
            trng = SplitMix64(derive(seed, "tree", t))
            bidx = np.array([trng.randrange(100) for _ in range(100)])
            flat_trees.append(fit_tree(X[bidx], y[bidx], (1.0, 1.0), params, trng))
        flat = Forest(trees=flat_trees, n_features=2, feature_names=("a", "b"),
                      seed=seed, params=params)
        rf.append(float((predict_proba_batch(flat, X)[:, 1] > 0.5)[y == 1].mean()))
    mean_b, mean_f = float(np.mean(rb)), float(np.mean(rf))
    verdict(4, mean_b >= mean_f,
            f"minority recall balanced={mean_b:.3f} >= unweighted={mean_f:.3f}")


# --- 05: numerical robustness -----------------------------------------------------

def test_criterion_05_numerical_robustness():
    getcontext().prec = 60
    rng = np.random.default_rng(55)
    all_finite = True
    sums_ok = True
    energy_ok = True
    worst = 0.0
    methods = [ScoreConfig(m) for m in ("maxsoftmax", "maxlogit", "energy", "entropy")]
    corners = [(-1e4, -1e4), (-1e4, 1e4), (1e4, -1e4), (1e4, 1e4), (0.0, 1e4)]
    for l0, l1 in corners:
        for cfg in methods:
            all_finite &= math.isfinite(voxel_scores((l0, l1), cfg))
    for _ in range(10_000):
        l0, l1 = (float(v) for v in rng.uniform(-1e4, 1e4, 2))
        p0, p1 = voxel_softmax(l0, l1)
        sums_ok &= abs(p0 + p1 - 1.0) <= 1e-12
        for cfg in methods:
            all_finite &= math.isfinite(voxel_scores((l0, l1), cfg))
        got = voxel_scores((l0, l1), ScoreConfig("energy"))
        want = float(-(((Decimal(repr(l0)).exp()) + Decimal(repr(l1)).exp()).ln()))
        worst = max(worst, abs(got - want))
        energy_ok &= abs(got - want) <= 1e-12
    verdict(5, all_finite and sums_ok and energy_ok,
            f"finite={all_finite} softmax sums={sums_ok} "
            f"energy max err={worst:.2e}")


# --- 06 + 07: end-to-end separability and miscalibration ordering ------------------

SEPARABILITY_CONFIG = {
    "work_dir": "work",
    "cohorts": [
        {"cohort_name": "id_lung", "cohort_label": "ID", "n_scans": 60, "seed": 101,
         "blob_count": [1, 3], "blob_radius": [3.0, 6.0],
         "texture_mean": 0.25, "texture_std": 0.05,
         "background_mean": 0.30, "background_std": 0.05},
        # far OOD: different blob-count/size regime and background statistics,
        # plus confidently-wrong tumor logits (criterion 07)
        {"cohort_name": "far_abdomen", "cohort_label": "OOD", "n_scans": 60,
         "seed": 202, "blob_count": [4, 8], "blob_radius": [2.0, 4.0],
         "texture_mean": 0.15, "texture_std": 0.08,
         "background_mean": 0.45, "background_std": 0.08,
         "logit_miscalibration": 3.0},
        # near OOD: identical geometry, texture mean shifted by +0.15
        {"cohort_name": "near_pe", "cohort_label": "OOD", "n_scans": 60,
         "seed": 303, "blob_count": [1, 3], "blob_radius": [3.0, 6.0],
         "texture_mean": 0.40, "texture_std": 0.05,
         "background_mean": 0.30, "background_std": 0.05},
    ],
    "forest": {"n_trees": 200, "max_depth": 20},
    "protocol": {"train_frac": 0.4, "n_seeds": 10, "base_seed": 4242},
}


@pytest.fixture(scope="module")
def separability_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("sep")
    cfg = tmp / "config.json"
    cfg.write_text(json.dumps(SEPARABILITY_CONFIG))
    start = time.time()
    code = cli_main(["pipeline", "--config", str(cfg), "--threads", "4"])
    elapsed = time.time() - start
    assert code == 0
    summary = {}
    with open(tmp / "work" / "summary.csv", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        for row in reader:
            summary[row[0]] = dict(zip(header[1:], (float(v) for v in row[1:])))
    return summary, elapsed


def test_criterion_06_end_to_end_separability(separability_run):
    summary, elapsed = separability_run
    deep = summary["RF-Deep"]
    far_auroc = deep["far_abdomen_auroc_mean"]
    far_fpr = deep["far_abdomen_fpr95_mean"]
    near_auroc = deep["near_pe_auroc_mean"]
    ok = (far_auroc >= 95.0 and far_fpr <= 10.0 and near_auroc >= 80.0
          and elapsed <= 600.0)
    verdict(6, ok, f"far AUROC={far_auroc:.2f} FPR95={far_fpr:.2f} "
                   f"near AUROC={near_auroc:.2f} elapsed={elapsed:.0f}s")


def test_criterion_07_miscalibration_ordering(separability_run):
    summary, _ = separability_run
    rf_deep = summary["RF-Deep"]["far_abdomen_auroc_mean"]
    maxsoftmax = summary["MaxSoftmax"]["far_abdomen_auroc_mean"]
    verdict(7, rf_deep > maxsoftmax,
            f"RF-Deep AUROC={rf_deep:.2f} > MaxSoftmax AUROC={maxsoftmax:.2f} "
            "on confidently-wrong OOD logits")


# --- 08: thread-count determinism ---------------------------------------------------

def test_criterion_08_thread_determinism(tmp_path):
    doc = {
        "work_dir": "unused",
        "cohorts": [
            {"cohort_name": "a", "cohort_label": "ID", "n_scans": 8, "seed": 1,
             "dims": [16, 16, 16], "blob_radius": [2.0, 3.0]},
            {"cohort_name": "b", "cohort_label": "OOD", "n_scans": 8, "seed": 2,
             "dims": [16, 16, 16], "blob_radius": [2.0, 3.0],
             "background_mean": 0.45},
        ],
        "encoder": {"patch_size": 2, "widths": [4, 4, 8, 8, 8], "seed": 5},
        "crops": {"count": 4, "size": [8, 8, 8], "jitter_radius": 1},
        "forest": {"n_trees": 25, "max_depth": 8},
        "protocol": {"train_frac": 0.4, "n_seeds": 3, "base_seed": 31},
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    outputs = {}
    for threads in (1, 8):
        work = tmp_path / f"run_t{threads}"
        code = cli_main(["pipeline", "--config", str(cfg),
                         "--threads", str(threads), "--workdir", str(work)])
        assert code == 0
        outputs[threads] = (
            (work / "summary.csv").read_bytes(),
            (work / "per_seed.csv").read_bytes(),
        )
    identical = outputs[1] == outputs[8]
    verdict(8, identical, "threads 1 vs 8 summary and per-seed CSVs byte-identical")


# --- 09: format round trips -----------------------------------------------------------

def test_criterion_09_round_trips(tmp_path):
    rng = np.random.default_rng(909)
    payload_ok = True
    for case in range(100):
        dims = tuple(int(v) for v in rng.integers(1, 7, 3))
        kind = case % 4
        if kind == 0:
            # spacing is drawn before data, as the rng order requires
            t = Grid(spacing=tuple(rng.uniform(0.3, 3.0, 3)),
                     data=rng.normal(size=dims).astype(np.float32))
        elif kind == 1:
            t = Grid(rng.integers(0, 2, dims).astype(np.uint8))
        elif kind == 2:
            t = Grid(rng.normal(size=(2,) + dims).astype(np.float32))
        else:
            c = int(rng.integers(1, 9))
            t = Grid(rng.normal(size=(c,) + dims).astype(np.float32), (8.0, 8.0, 8.0))
        p = tmp_path / f"t{case}.ovf"
        write_ovf(t, p)
        back = read_ovf(p)
        payload_ok &= bool(np.array_equal(np.asarray(back.data), np.asarray(t.data)))

    model_ok = True
    srng = SplitMix64(910)
    for case in range(100):
        X = srng.normal_block(40 * 3).reshape(40, 3)
        y = (X[:, case % 3] > 0).astype(int)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        forest = fit_forest(X, y, RFParams(n_trees=3, max_depth=5), seed=case)
        p = tmp_path / f"m{case}.json"
        save_model(forest, p)
        probe = srng.normal_block(20 * 3).reshape(20, 3)
        model_ok &= bool(np.array_equal(predict_proba_batch(forest, probe),
                                        predict_proba_batch(load_model(p), probe)))
    verdict(9, payload_ok and model_ok,
            f"100 tensor payloads exact={payload_ok}, "
            f"100 model prediction round-trips exact={model_ok}")


# --- 10: ablation harness ---------------------------------------------------------------

ABLATION_CONFIG = {
    "work_dir": "work",
    # identical blob size and voxel texture; only the number of blobs (the
    # global layout) differs, so early stages see nothing and coarse stages do
    "cohorts": [
        {"cohort_name": "sparse", "cohort_label": "ID", "n_scans": 40, "seed": 11,
         "blob_count": [1, 2], "blob_radius": [4.0, 4.0],
         "texture_mean": 0.25, "texture_std": 0.05,
         "background_mean": 0.30, "background_std": 0.05},
        {"cohort_name": "crowded", "cohort_label": "OOD", "n_scans": 40, "seed": 12,
         "blob_count": [6, 8], "blob_radius": [4.0, 4.0],
         "texture_mean": 0.25, "texture_std": 0.05,
         "background_mean": 0.30, "background_std": 0.05},
    ],
    "forest": {"n_trees": 100, "max_depth": 20},
    "protocol": {"train_frac": 0.4, "n_seeds": 5, "base_seed": 999},
}


def test_criterion_10_ablation(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(ABLATION_CONFIG))
    assert cli_main(["pipeline", "--config", str(cfg), "--threads", "4"]) == 0
    assert cli_main(["ablate", "--config", str(cfg), "--threads", "4"]) == 0
    with open(tmp_path / "work" / "ablation.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    stages = [r[0] for r in rows[1:]]
    auroc_by_stage = {r[0]: float(r[1]) for r in rows[1:]}
    five_rows = stages == ["PE", "SB1", "SB2", "SB3", "SB4"]
    ordering = auroc_by_stage["SB4"] > auroc_by_stage["PE"]
    verdict(10, five_rows and ordering,
            f"stages={stages} SB4 AUROC={auroc_by_stage.get('SB4'):.2f} > "
            f"PE AUROC={auroc_by_stage.get('PE'):.2f}")
