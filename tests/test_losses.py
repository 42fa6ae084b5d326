import math

import numpy as np
import pytest

from curriseg import (
    GaussianKernel,
    LossConfig,
    Mask,
    ProbMap,
    Rng,
    ShapeMismatch,
    loss_bce,
    loss_grad,
    loss_iou,
    loss_smoothed,
    loss_total,
)
from curriseg.losses import EPS_DIV, EPS_LOG

from conftest import rand_mask, rand_probs
from test_geometry import _smooth_oracle

CFG = LossConfig()


# ------------------------------------------------------------ naive oracles


def _iou_oracle(pa, ta, cfg):
    inter = tsum = psum = 0.0
    h, w = pa.shape
    for i in range(h):
        for j in range(w):
            inter += ta[i, j] * pa[i, j]
            tsum += ta[i, j]
            psum += pa[i, j]
    return 1.0 - inter / (tsum + psum - inter + EPS_DIV)


def _bce_oracle(pa, ta, cfg):
    acc = 0.0
    h, w = pa.shape
    for i in range(h):
        for j in range(w):
            pc = min(max(pa[i, j], EPS_LOG), 1.0 - EPS_LOG)
            acc -= ta[i, j] * math.log(pc) + (1.0 - ta[i, j]) * math.log(1.0 - pc)
    return acc


def _smoothed_oracle(pa, ta, cfg):
    th = _smooth_oracle(ta.astype(float), cfg.kernel)
    ph = _smooth_oracle(pa, cfg.kernel)
    acc = 0.0
    h, w = pa.shape
    for i in range(h):
        for j in range(w):
            acc += (2.0 * th[i, j] * ph[i, j] + EPS_DIV) / (
                th[i, j] ** 2 + ph[i, j] ** 2 + EPS_DIV
            )
    return 1.0 - acc / (h * w)


# -------------------------------------------------------------- hand values


def test_iou_hand_values():
    t = Mask(np.array([[1, 0], [0, 0]]))
    assert abs(loss_iou(ProbMap(np.array([[0.5, 0.0], [0.0, 0.0]])), t, CFG) - 0.5) < 1e-6
    assert loss_iou(ProbMap(t.labels.astype(float)), t, CFG) < 1e-6
    assert abs(loss_iou(ProbMap(np.zeros((2, 2))), t, CFG) - 1.0) < 1e-6


def test_bce_hand_values():
    t = Mask(np.array([[1]]))
    assert loss_bce(ProbMap(np.array([[1.0]])), t, CFG) < 2e-7  # clamped near-zero
    assert abs(loss_bce(ProbMap(np.array([[0.5]])), t, CFG) - math.log(2)) < 1e-9


def test_smoothed_hand_cases():
    m = np.zeros((12, 12), dtype=np.uint8)
    m[5:8, 5:8] = 1
    t = Mask(m)
    assert loss_smoothed(ProbMap(m.astype(float)), t, CFG) < 1e-6
    zero = Mask(np.zeros((6, 6), dtype=np.uint8))
    assert loss_smoothed(ProbMap(np.zeros((6, 6))), zero, CFG) < 1e-9


def test_smoothed_disjoint_blobs():
    # a 1-pixel target far from a 1-pixel prediction: agreement term vanishes
    # at every pixel where either smoothed map has support, and equals 1
    # where both are zero
    cfg = LossConfig(kernel=GaussianKernel(sigma=1.0, radius=2))
    h = w = 24
    t = np.zeros((h, w), dtype=np.uint8)
    p = np.zeros((h, w))
    t[5, 5] = 1
    p[5 + 7, 5 + 7] = 1.0  # shifted by 3*radius+1 in both axes
    got = loss_smoothed(ProbMap(p), Mask(t), cfg)
    k = 2 * (2 * cfg.kernel.radius + 1) ** 2  # pixels with smoothed support
    # the idealized count ignores eps/(t_hat^2+eps) at faint kernel tails,
    # which contributes ~1e-2 per corner pixel of the support square
    assert abs(got - k / (h * w)) < 1e-3


def test_total_is_sum_of_parts():
    for seed in range(5):
        p, t = rand_probs(seed, 4, 4), rand_mask(seed + 50, 4, 4)
        bd = loss_total(p, t, CFG)
        assert abs(bd.l_total - (bd.l_iou + bd.l_bce + bd.l_s)) < 1e-9


def test_shape_mismatch_raised():
    p = ProbMap(np.full((3, 3), 0.5))
    t = Mask(np.zeros((3, 4), dtype=np.uint8))
    for fn in (loss_iou, loss_bce, loss_smoothed, loss_total, loss_grad):
        with pytest.raises(ShapeMismatch):
            fn(p, t, CFG)


# ----------------------------------------------------- oracle equivalences


def test_losses_match_naive_loops():
    cfg = LossConfig(kernel=GaussianKernel(sigma=1.0, radius=2))
    for seed in range(50):
        r = Rng(seed)
        h, w = 2 + r.below(7), 2 + r.below(7)  # up to 8x8
        p = rand_probs(seed + 1000, h, w)
        t = rand_mask(seed + 2000, h, w)
        pa, ta = p.probs, t.labels.astype(float)
        for got, want in [
            (loss_iou(p, t, cfg), _iou_oracle(pa, ta, cfg)),
            (loss_bce(p, t, cfg), _bce_oracle(pa, ta, cfg)),
            (loss_smoothed(p, t, cfg), _smoothed_oracle(pa, ta, cfg)),
        ]:
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


# ----------------------------------------------------------------- gradient


def fd_loss_grad(p: ProbMap, t: Mask, cfg: LossConfig, h: float = 1e-5) -> np.ndarray:
    out = np.zeros(p.shape)
    base = p.probs
    for i in range(p.shape[0]):
        for j in range(p.shape[1]):
            up = base.copy()
            dn = base.copy()
            up[i, j] += h
            dn[i, j] -= h
            lp = loss_total(ProbMap(up), t, cfg).l_total
            lm = loss_total(ProbMap(dn), t, cfg).l_total
            out[i, j] = (lp - lm) / (2 * h)
    return out


def max_rel_err(g: np.ndarray, fd: np.ndarray) -> float:
    # tiny entries compared absolutely, everything else relatively
    err = np.abs(g - fd)
    scale = np.maximum(np.abs(g), np.abs(fd))
    rel = np.where(scale < 1e-6, err, err / np.maximum(scale, 1e-12))
    return float(rel.max())


def test_grad_matches_finite_differences():
    cfg = LossConfig(kernel=GaussianKernel(sigma=1.0, radius=2))
    for seed in range(20):
        p = rand_probs(seed + 3000, 6, 6)
        t = rand_mask(seed + 4000, 6, 6)
        g = loss_grad(p, t, cfg)
        assert max_rel_err(g, fd_loss_grad(p, t, cfg)) < 1e-4


def test_grad_bce_pixel_value():
    # at t=1, p=0.5 the cross-entropy contribution is -1/0.5 = -2; isolate it
    # by comparing against the analytic gradient of the other two terms
    t = Mask(np.array([[1]]))
    p = ProbMap(np.array([[0.5]]))
    g = loss_grad(p, t, CFG)
    fd = fd_loss_grad(p, t, CFG)
    assert max_rel_err(g, fd) < 1e-4
    # the BCE part alone:
    g_other = g - (-1.0 / 0.5)
    # removing -2 must leave the IoU + smoothed parts, both finite and small
    assert abs(g_other[0, 0]) < 2.5


def test_grad_constant_case_is_spatially_constant():
    t = Mask(np.zeros((10, 10), dtype=np.uint8))
    p = ProbMap(np.full((10, 10), 0.5))
    g = loss_grad(p, t, CFG)
    interior = g[3:-3, 3:-3]
    assert np.max(np.abs(interior - interior[0, 0])) < 1e-8


# ----------------------------------------------------------------- properties


def test_value_ranges():
    for seed in range(20):
        p, t = rand_probs(seed, 5, 5), rand_mask(seed + 7, 5, 5)
        assert 0.0 <= loss_iou(p, t, CFG) <= 1.0
        assert 0.0 <= loss_smoothed(p, t, CFG) <= 1.0
        assert loss_bce(p, t, CFG) >= 0.0


def test_permutation_equivariance_iou_bce():
    # pixel order can only move these losses by summation round-off
    p, t = rand_probs(5, 6, 6), rand_mask(6, 6, 6)
    perm = list(range(36))
    Rng(9).shuffle(perm)
    pp = ProbMap(p.probs.ravel()[perm].reshape(6, 6))
    tp = Mask(t.labels.ravel()[perm].reshape(6, 6))
    assert math.isclose(loss_iou(pp, tp, CFG), loss_iou(p, t, CFG), rel_tol=1e-12)
    assert math.isclose(loss_bce(pp, tp, CFG), loss_bce(p, t, CFG), rel_tol=1e-12)


def test_bce_monotone_toward_target():
    p, t = rand_probs(11, 6, 6), rand_mask(12, 6, 6)
    ta = t.labels.astype(float)
    before = loss_bce(p, t, CFG)
    closer = ProbMap(p.probs + 0.25 * (ta - p.probs))  # move each p toward t
    assert loss_bce(closer, t, CFG) <= before


def test_iou_zero_iff_perfect():
    t = rand_mask(13, 6, 6)
    assert loss_iou(ProbMap(t.labels.astype(float)), t, CFG) < 1e-6
    off = ProbMap(np.clip(t.labels.astype(float) * 0.9 + 0.05, 0, 1))
    assert loss_iou(off, t, CFG) > 1e-3
