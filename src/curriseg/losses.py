"""Supervision losses and their exact analytic gradients.

Three terms, each a function of the prediction P = [p_ij] and the binary
ground truth T = [t_ij]:

  overlap (IoU):      1 - sum(t*p) / (sum(t) + sum(p) - sum(t*p) + eps)
  cross-entropy:      -sum(t ln p + (1-t) ln(1-p)),   p clamped away from 0/1
  smoothed overlap:   1 - (1/N) * sum (2*th*ph + eps) / (th^2 + ph^2 + eps)

where th, ph are Gaussian-smoothed copies of t and p, and N is the pixel
count. The total is the plain sum of the three. Note the cross-entropy and
IoU terms are sums over pixels, not means; only the smoothed term carries
1/N.

Gradients are with respect to the prediction; the smoothed term's gradient
flows back through the convolution via its exact adjoint, so analytic values
match finite differences of the implemented losses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeMismatch
from .geometry import GaussianKernel, gaussian_smooth, gaussian_smooth_adjoint
from .types import LossBreakdown, Mask, ProbMap


# Numerical guards: the cross-entropy clamps p to [EPS_LOG, 1 - EPS_LOG],
# and EPS_DIV keeps every ratio's denominator away from zero.
EPS_LOG = 1e-7
EPS_DIV = 1e-7


@dataclass(frozen=True, eq=False)
class LossConfig:
    """The smoothing kernel shared by all losses."""

    kernel: GaussianKernel = field(default_factory=GaussianKernel)


def _check_shapes(p: ProbMap, t: Mask) -> tuple[np.ndarray, np.ndarray]:
    if p.shape != t.shape:
        raise ShapeMismatch(f"prediction shape {p.shape} != target shape {t.shape}")
    return p.probs, t.labels.astype(np.float64)


def loss_iou(p: ProbMap, t: Mask, cfg: LossConfig) -> float:
    pa, ta = _check_shapes(p, t)
    inter = float((ta * pa).sum())
    union = float(ta.sum() + pa.sum()) - inter
    return 1.0 - inter / (union + EPS_DIV)


def loss_bce(p: ProbMap, t: Mask, cfg: LossConfig) -> float:
    pa, ta = _check_shapes(p, t)
    pc = np.clip(pa, EPS_LOG, 1.0 - EPS_LOG)
    return -float((ta * np.log(pc) + (1.0 - ta) * np.log1p(-pc)).sum())


def _smoothed_terms(pa: np.ndarray, ta: np.ndarray, cfg: LossConfig):
    th = gaussian_smooth(ta, cfg.kernel)
    ph = gaussian_smooth(pa, cfg.kernel)
    denom = th * th + ph * ph + EPS_DIV
    term = (2.0 * th * ph + EPS_DIV) / denom
    return th, ph, denom, term


def loss_smoothed(p: ProbMap, t: Mask, cfg: LossConfig) -> float:
    pa, ta = _check_shapes(p, t)
    _, _, _, term = _smoothed_terms(pa, ta, cfg)
    return 1.0 - float(term.mean())


def loss_total(p: ProbMap, t: Mask, cfg: LossConfig) -> LossBreakdown:
    l_iou = loss_iou(p, t, cfg)
    l_bce = loss_bce(p, t, cfg)
    l_s = loss_smoothed(p, t, cfg)
    return LossBreakdown(l_iou=l_iou, l_bce=l_bce, l_s=l_s, l_total=l_iou + l_bce + l_s)


def loss_grad(p: ProbMap, t: Mask, cfg: LossConfig) -> np.ndarray:
    """d(total loss)/dp at every pixel, analytic."""
    pa, ta = _check_shapes(p, t)

    # overlap term: L = 1 - I/D with I = sum(t p), D = sum(t)+sum(p)-I+eps
    inter = float((ta * pa).sum())
    denom = float(ta.sum() + pa.sum()) - inter + EPS_DIV
    g_iou = -(ta * denom - inter * (1.0 - ta)) / (denom * denom)

    # cross-entropy: flat outside the clamp interval
    pc = np.clip(pa, EPS_LOG, 1.0 - EPS_LOG)
    inside = (pa > EPS_LOG) & (pa < 1.0 - EPS_LOG)
    g_bce = np.where(inside, -ta / pc + (1.0 - ta) / (1.0 - pc), 0.0)

    # smoothed overlap: chain through the convolution adjoint
    th, ph, denom_s, term = _smoothed_terms(pa, ta, cfg)
    num = 2.0 * th * ph + EPS_DIV
    dterm_dph = (2.0 * th * denom_s - num * 2.0 * ph) / (denom_s * denom_s)
    g_s = gaussian_smooth_adjoint(-dterm_dph / pa.size, cfg.kernel)

    return g_iou + g_bce + g_s
