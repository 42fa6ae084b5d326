"""Crop/paste geometry, thresholding and Gaussian smoothing.

All functions are pure and operate on the immutable value types, so they are
freely parallelizable. The smoothing operator and its exact adjoint live
here because the smoothed-overlap loss needs gradients that flow back
through the convolution.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeMismatch, ValueOutOfRange
from .types import BBox, CropRecord, Mask, ProbMap


@dataclass(frozen=True, eq=False)
class GaussianKernel:
    """Normalized (2*radius+1)^2 Gaussian grid, separable and symmetric."""

    sigma: float = 1.0
    radius: int = 3
    weights: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueOutOfRange(f"sigma must be > 0, got {self.sigma}")
        if self.radius < 1:
            raise ValueOutOfRange(f"radius must be >= 1, got {self.radius}")
        d = np.arange(-self.radius, self.radius + 1, dtype=np.float64)
        g = np.exp(-(d * d) / (2.0 * self.sigma * self.sigma))
        w = np.outer(g, g)
        w /= w.sum()
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    @property
    def size(self) -> int:
        return 2 * self.radius + 1


def threshold(p: ProbMap, t: float) -> Mask:
    """Binarize a probability map: 1 where p > t, strictly."""
    if not (0.0 < t < 1.0):
        raise ValueOutOfRange(f"threshold must lie in (0, 1), got {t}")
    return Mask((p.probs > t).astype(np.uint8))


def bbox_from_mask(m: Mask) -> BBox | None:
    """Tightest box containing every 1-pixel, or None for an empty mask."""
    rows = np.any(m.labels, axis=1)
    if not rows.any():
        return None
    cols = np.any(m.labels, axis=0)
    r = np.where(rows)[0]
    c = np.where(cols)[0]
    return BBox(int(r[0]), int(r[-1]), int(c[0]), int(c[-1]))


def _pad_to_multiple(n: int, align: int) -> int:
    return (-n) % align


def make_crop_record(
    source_shape: tuple[int, int], box: BBox, margin: int, align: int
) -> CropRecord:
    """Expand `box` by `margin`, clip to bounds, pad bottom/right to `align`."""
    if margin < 0:
        raise ValueOutOfRange(f"margin must be >= 0, got {margin}")
    if align < 1:
        raise ValueOutOfRange(f"align must be >= 1, got {align}")
    box.check_within(source_shape)
    h, w = source_shape
    r0 = max(box.row_min - margin, 0)
    r1 = min(box.row_max + margin, h - 1)
    c0 = max(box.col_min - margin, 0)
    c1 = min(box.col_max + margin, w - 1)
    clipped = BBox(r0, r1, c0, c1)
    pad = (0, _pad_to_multiple(clipped.height, align), 0, _pad_to_multiple(clipped.width, align))
    return CropRecord(source_shape=(h, w), box=clipped, pad=pad)


def crop_like(arr: np.ndarray, rec: CropRecord) -> np.ndarray:
    """Cut + zero-pad a raw 2D array exactly as `rec` prescribes."""
    if arr.shape != rec.source_shape:
        raise ShapeMismatch(f"array shape {arr.shape} != record source {rec.source_shape}")
    b = rec.box
    core = arr[b.row_min : b.row_max + 1, b.col_min : b.col_max + 1]
    pt, pb, pl, pr = rec.pad
    return np.pad(core, ((pt, pb), (pl, pr)))


def paste_back(p: ProbMap, rec: CropRecord) -> ProbMap:
    """Place a cropped probability map back onto a full-size canvas.

    The unpadded region of `p` lands at `rec.box`; everywhere else is 0.
    """
    if p.shape != rec.out_shape:
        raise ShapeMismatch(f"prob map shape {p.shape} != crop output shape {rec.out_shape}")
    canvas = np.zeros(rec.source_shape, dtype=np.float64)
    b = rec.box
    pt, _, pl, _ = rec.pad
    core = p.probs[pt : pt + b.height, pl : pl + b.width]
    canvas[b.row_min : b.row_max + 1, b.col_min : b.col_max + 1] = core
    return ProbMap(canvas)


def gaussian_smooth(m: np.ndarray, k: GaussianKernel) -> np.ndarray:
    """2D convolution with `k`, reflecting at the borders; same shape out.

    The border is NumPy's reflect padding: mirrored without repeating the
    edge sample, folded again where the radius exceeds the axis.

    Accumulates one kernel tap at a time in fixed row-major order, so the
    floating-point result is reproducible.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeMismatch(f"expected 2D array, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueOutOfRange("smoothing input contains non-finite values")
    h, w = m.shape
    r = k.radius
    mp = np.pad(m, r, mode="reflect")
    out = np.zeros((h, w), dtype=np.float64)
    for u in range(k.size):
        for v in range(k.size):
            out += k.weights[u, v] * mp[u : u + h, v : v + w]
    return out


def gaussian_smooth_adjoint(g: np.ndarray, k: GaussianKernel) -> np.ndarray:
    """Transpose of `gaussian_smooth` for the same shape: maps output-space
    gradients to input-space gradients, folding the reflected border mass
    back onto its source pixels."""
    g = np.asarray(g, dtype=np.float64)
    if g.ndim != 2:
        raise ShapeMismatch(f"expected 2D array, got shape {g.shape}")
    h, w = g.shape
    r = k.radius
    gp = np.zeros((h + 2 * r, w + 2 * r), dtype=np.float64)
    for u in range(k.size):
        for v in range(k.size):
            gp[u : u + h, v : v + w] += k.weights[u, v] * g
    # the source pixel of each padded position, padded exactly as the input
    src = np.pad(np.arange(h * w).reshape(h, w), r, mode="reflect")
    folded = np.bincount(src.ravel(), weights=gp.ravel(), minlength=h * w)
    return folded.reshape(h, w)
