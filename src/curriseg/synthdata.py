"""Procedural dataset of small bright speckled blobs on cluttered ground.

Every image carries a textured background plus two families of decoys:
type-A blobs are bright but smooth, type-B blobs are speckled but dark.
The real foreground is both bright and speckled, so neither brightness
nor texture alone separates it — a model has to learn the conjunction.

Foreground shapes are star-convex radial blobs (a base radius modulated
by a few low-order angular harmonics, their amplitude scaled by
``BLOB_IRREGULARITY``), redrawn until the realized foreground ratio
lands inside ``FG_RATIO_RANGE`` and the rasterized mask is a single
4-connected component clear of the border.

Item ``i`` is generated from its own derived stream, so a dataset is a
pure function of the config: same config, same bytes, and item content
does not depend on how many other items are requested. Pixel values are
quantized to k/255 so that 8-bit storage is lossless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValueOutOfRange
from .geometry import GaussianKernel, gaussian_smooth
from .rng import Rng, derive_seed
from .types import DatasetItem, DatasetPhase, Image, Mask

_SMOOTH = GaussianKernel(sigma=1.0, radius=3)
# Each image gets between these many decoys of each type, inclusive.
DISTRACTORS_PER_TYPE = (3, 5)
# Share of the image a non-empty item's foreground covers.
FG_RATIO_RANGE = (0.008, 0.02)
# Angular-harmonic amplitude of the foreground blob, in [0, 1].
BLOB_IRREGULARITY = 0.5
# Foreground draws tried per item before FG_RATIO_RANGE is given up on.
MAX_ATTEMPTS = 200


@dataclass(frozen=True)
class GenConfig:
    count: int
    height: int = 64
    width: int = 64
    empty_slice_fraction: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.count < 1:
            raise ValueOutOfRange(f"count must be >= 1, got {self.count}")
        if self.height < 16 or self.width < 16:
            raise ValueOutOfRange(f"images must be at least 16x16, got {self.height}x{self.width}")
        if not (0.0 <= self.empty_slice_fraction < 1.0):
            raise ValueOutOfRange(
                f"empty_slice_fraction must lie in [0, 1), got {self.empty_slice_fraction}"
            )


def _blob_mask(h: int, w: int, cy: float, cx: float, r0: float, amps, phases) -> np.ndarray:
    dy = np.arange(h)[:, None] - cy
    dx = np.arange(w)[None, :] - cx
    rr = np.hypot(dy, dx)
    th = np.arctan2(dy, dx)
    rad = np.full((h, w), r0)
    for k, (a, ph) in enumerate(zip(amps, phases), start=2):
        rad += r0 * a * np.cos(k * th + ph)
    return rr <= rad


def _single_component(m: np.ndarray) -> bool:
    """True when the foreground is one 4-connected component."""
    ys, xs = np.nonzero(m)
    if ys.size == 0:
        return False
    seen = np.zeros(m.shape, dtype=bool)
    stack = [(int(ys[0]), int(xs[0]))]
    seen[ys[0], xs[0]] = True
    reached = 0
    h, w = m.shape
    while stack:
        y, x = stack.pop()
        reached += 1
        for yy, xx in ((y - 1, x), (y + 1, x), (y, x - 1), (y, x + 1)):
            if 0 <= yy < h and 0 <= xx < w and m[yy, xx] and not seen[yy, xx]:
                seen[yy, xx] = True
                stack.append((yy, xx))
    return reached == ys.size


def _draw_blob(rng: Rng, h: int, w: int, r0: float, irregularity: float) -> np.ndarray | None:
    margin = int(math.ceil(1.5 * r0)) + 2
    if 2 * margin >= h or 2 * margin >= w:
        return None
    cy = margin + rng.uniform() * (h - 2 * margin)
    cx = margin + rng.uniform() * (w - 2 * margin)
    amps = [(2.0 * rng.uniform() - 1.0) * 0.6 * irregularity / k for k in range(2, 6)]
    phases = [2.0 * math.pi * rng.uniform() for _ in range(4)]
    return _blob_mask(h, w, cy, cx, r0, amps, phases)


def _draw_foreground(rng: Rng, cfg: GenConfig) -> np.ndarray:
    h, w = cfg.height, cfg.width
    lo, hi = FG_RATIO_RANGE
    for _ in range(MAX_ATTEMPTS):
        target = lo + rng.uniform() * (hi - lo)
        r0 = math.sqrt(target * h * w / math.pi)
        m = _draw_blob(rng, h, w, r0, BLOB_IRREGULARITY)
        if m is None:
            raise ValueOutOfRange(f"FG_RATIO_RANGE {FG_RATIO_RANGE} needs blobs too large for {h}x{w} images")
        ratio = m.sum() / m.size
        border_clear = not (m[0].any() or m[-1].any() or m[:, 0].any() or m[:, -1].any())
        if lo <= ratio <= hi and border_clear and _single_component(m):
            return m
    raise ValueOutOfRange(f"no foreground matching FG_RATIO_RANGE {FG_RATIO_RANGE} in {MAX_ATTEMPTS} attempts")


def _render_item(cfg: GenConfig, rng: Rng, empty: bool) -> tuple[np.ndarray, np.ndarray]:
    h, w = cfg.height, cfg.width

    # background: low-frequency blotches plus fine grain
    gh, gw = (h + 7) // 8, (w + 7) // 8
    coarse = rng.normals(gh * gw).reshape(gh, gw)
    low = gaussian_smooth(np.kron(coarse, np.ones((8, 8)))[:h, :w], _SMOOTH)
    grain = rng.uniforms(h * w).reshape(h, w) - 0.5
    # texture summed first: another grouping rounds differently
    img = 0.35 + (0.06 * low + 0.08 * grain)

    speckle = rng.uniforms(h * w).reshape(h, w)
    d_lo, d_hi = DISTRACTORS_PER_TYPE
    span = d_hi - d_lo + 1

    # type A: as bright as the foreground but smooth
    for _ in range(d_lo + rng.below(span)):
        m = _draw_blob(rng, h, w, 2.0 + 2.5 * rng.uniform(), 0.5)
        if m is not None:
            img[m] = 0.52 + 0.10 * rng.uniform() + 0.05 * grain[m]

    # type B: as speckled as the foreground but dark
    for _ in range(d_lo + rng.below(span)):
        m = _draw_blob(rng, h, w, 2.0 + 2.5 * rng.uniform(), 0.5)
        if m is not None:
            img[m] = 0.24 + 0.06 * rng.uniform() + 0.24 * speckle[m]

    if empty:
        fg = np.zeros((h, w), dtype=bool)
    else:
        fg = _draw_foreground(rng, cfg)
        fg_speckle = rng.uniforms(h * w).reshape(h, w)
        img[fg] = 0.44 + 0.24 * fg_speckle[fg]

    img = np.round(np.clip(img, 0.0, 1.0) * 255.0) / 255.0
    return img, fg.astype(np.uint8)


def generate(cfg: GenConfig) -> DatasetPhase:
    """Render the whole dataset in memory as a raw (full-image) phase."""
    n_empty = int(round(cfg.count * cfg.empty_slice_fraction))
    order = list(range(cfg.count))
    Rng(derive_seed(cfg.seed, cfg.count)).shuffle(order)
    empty_ids = set(order[:n_empty])

    items = []
    for i in range(cfg.count):
        rng = Rng(derive_seed(cfg.seed, i))
        pixels, mask = _render_item(cfg, rng, empty=i in empty_ids)
        items.append(DatasetItem(Image(pixels), Mask(mask), None, f"img_{i:05d}"))
    return DatasetPhase("D3", tuple(items))
