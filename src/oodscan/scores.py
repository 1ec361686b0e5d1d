"""Training-free confidence baselines over the predicted tumor region.

Four per-voxel scores (max softmax probability, max logit, energy, entropy)
are averaged over masked voxels and mapped to a uniform "higher = more OOD"
orientation so AUROC is computed identically for every method:

    maxsoftmax -> 1 - mean      maxlogit -> -mean
    energy     -> +mean         entropy  -> +mean

Scans whose predicted mask is empty still get a score: the mean is taken
over the 100 voxels with the highest tumor-channel logit (ties broken by
flat index), with ``fallback_used`` reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .volumes import Grid

METHODS = ("maxsoftmax", "maxlogit", "energy", "entropy")
FALLBACK_TOP_VOXELS = 100


@dataclass(frozen=True)
class ScoreConfig:
    method: str
    temperature: float = 1.0  # energy only

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(f"unknown score method {self.method!r}")
        if not self.temperature > 0:
            raise ConfigError("temperature must be > 0")


@dataclass(frozen=True)
class OodScore:
    scan_id: str
    method: str
    value: float  # higher = more OOD
    fallback_used: bool = False

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ValueError("score value must be finite")


def _softmax_pair(l0: np.ndarray, l1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Overflow-safe two-class softmax via max subtraction."""
    m = np.maximum(l0, l1)
    e0 = np.exp(l0 - m)
    e1 = np.exp(l1 - m)
    z = e0 + e1
    return e0 / z, e1 / z


def _voxel_scores(l0: np.ndarray, l1: np.ndarray, cfg: ScoreConfig) -> np.ndarray:
    if cfg.method == "maxlogit":
        return np.maximum(l0, l1)
    if cfg.method == "energy":
        t = cfg.temperature
        s0, s1 = l0 / t, l1 / t
        hi = np.maximum(s0, s1)
        lo = np.minimum(s0, s1)
        return -t * (hi + np.log1p(np.exp(lo - hi)))
    p0, p1 = _softmax_pair(l0, l1)
    if cfg.method == "maxsoftmax":
        return np.maximum(p0, p1)
    # entropy with 0 * log 0 := 0
    out = np.zeros_like(p0)
    for p in (p0, p1):
        nz = p > 0
        out[nz] -= p[nz] * np.log(p[nz])
    return out


def scan_score(logits: Grid, mask: Grid, cfg: ScoreConfig,
               scan_id: str = "") -> OodScore:
    """Region-aggregated OOD score for one scan.

    The mean over masked voxels uses exact (fsum) summation so that any
    chunked or parallel evaluation order yields the identical value.
    """
    if logits.data.shape != (2,) + mask.dims:
        raise ValueError(f"logit shape {logits.data.shape} != (2,)+mask dims {mask.dims}")
    l0 = logits.data[0].reshape(-1).astype(np.float64)
    l1 = logits.data[1].reshape(-1).astype(np.float64)
    sel = mask.data.reshape(-1).astype(bool)

    fallback = not sel.any()
    if fallback:
        take = min(FALLBACK_TOP_VOXELS, l1.size)
        order = np.lexsort((np.arange(l1.size), -l1))  # by -tumor logit, then index
        idx = order[:take]
    else:
        idx = np.flatnonzero(sel)

    per_voxel = _voxel_scores(l0[idx], l1[idx], cfg)
    mean = math.fsum(per_voxel.tolist()) / len(per_voxel)

    if cfg.method == "maxsoftmax":
        value = 1.0 - mean
    elif cfg.method == "maxlogit":
        value = -mean
    else:  # energy, entropy: already oriented higher = more OOD
        value = mean
    return OodScore(scan_id=scan_id, method=cfg.method, value=value,
                    fallback_used=fallback)
