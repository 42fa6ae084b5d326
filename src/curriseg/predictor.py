"""Two-stage prediction: detect, crop, segment, paste back, threshold.

The detection cache scores the full image; its thresholded output picks
a crop window (whole image when nothing fires). The segmentation cache
then scores only that window, the result is pasted back onto a blank
canvas, and the final threshold produces the mask.

With ``d_t`` set, the crop window is re-derived from the previous pasted
segmentation and the loop repeats until consecutive masks overlap more
than ``d_t`` (or are bit-identical), or ``max_iters`` passes have run.
Each pass is logged in the returned trace.
"""

from __future__ import annotations

from dataclasses import dataclass

from .backbone import BackboneSpec, forward
from .ema import CacheModel
from .errors import ValueOutOfRange
from .evaluation import dsc
from .geometry import bbox_from_mask, crop_like, make_crop_record, paste_back, threshold
from .types import BBox, Image, Mask, ProbMap, masks_equal


@dataclass(frozen=True)
class PredictConfig:
    crop_threshold: float = 0.5
    final_threshold: float = 0.5
    margin: int = 12
    d_t: float | None = None
    max_iters: int = 10

    def __post_init__(self):
        for name in ("crop_threshold", "final_threshold"):
            v = getattr(self, name)
            if not (0.0 < v < 1.0):
                raise ValueOutOfRange(f"{name} must lie in (0, 1), got {v}")
        if self.margin < 0:
            raise ValueOutOfRange(f"margin must be >= 0, got {self.margin}")
        if self.d_t is not None and not (0.0 < self.d_t <= 1.0):
            raise ValueOutOfRange(f"d_t must lie in (0, 1], got {self.d_t}")
        if self.max_iters < 1:
            raise ValueOutOfRange(f"max_iters must be >= 1, got {self.max_iters}")


@dataclass(frozen=True)
class IterationRecord:
    """One detect-crop-segment pass."""

    index: int
    box: BBox | None  # crop window; None means whole-image fallback
    fallback: bool
    dsc_prev: float | None  # overlap with the previous pass's mask

    def as_dict(self) -> dict:
        b = self.box
        return {
            "index": self.index,
            "box": None if b is None else [b.row_min, b.col_min, b.row_max, b.col_max],
            "fallback": self.fallback,
            "dsc_prev": self.dsc_prev,
        }


@dataclass(frozen=True)
class PredictTrace:
    iterations: tuple[IterationRecord, ...]
    converged: bool

    @property
    def n_iters(self) -> int:
        return len(self.iterations)

    def as_dict(self) -> dict:
        return {
            "iterations": [r.as_dict() for r in self.iterations],
            "converged": self.converged,
            "n_iters": self.n_iters,
        }


def predict(
    x: Image,
    det: CacheModel,
    seg: CacheModel,
    spec: BackboneSpec,
    cfg: PredictConfig = PredictConfig(),
) -> tuple[Mask, ProbMap, PredictTrace]:
    """Run the full pipeline on one aligned image; read-only on both caches.

    Returns the final mask, the pasted-back segmentation scores (zero
    outside the final crop window), and the per-pass trace.
    """
    h, w = x.shape
    whole = BBox(0, h - 1, 0, w - 1)
    crop_source: ProbMap = forward(spec, det.params, x)

    passes = cfg.max_iters if cfg.d_t is not None else 1
    records: list[IterationRecord] = []
    converged = cfg.d_t is None
    prev_mask: Mask | None = None
    pasted: ProbMap | None = None
    mask: Mask | None = None

    for k in range(passes):
        box = bbox_from_mask(threshold(crop_source, cfg.crop_threshold))
        fallback = box is None
        rec = make_crop_record((h, w), whole if fallback else box, cfg.margin, spec.input_align)
        patch = Image(crop_like(x.pixels, rec))
        p_seg = forward(spec, seg.params, patch)
        pasted = paste_back(p_seg, rec)
        mask = threshold(pasted, cfg.final_threshold)

        d = dsc(mask, prev_mask) if prev_mask is not None else None
        records.append(IterationRecord(k, None if fallback else box, fallback, d))
        if prev_mask is not None and (masks_equal(mask, prev_mask) or d > cfg.d_t):
            converged = True
            break
        prev_mask = mask
        crop_source = pasted

    return mask, pasted, PredictTrace(tuple(records), converged)
