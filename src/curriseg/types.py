"""Shared value types.

Everything here is an immutable value: arrays are defensively copied at
construction, validated, and marked read-only. No operation in the library
mutates a received Image/Mask/ProbMap in place, so instances are safe to
share between concurrent workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeMismatch, ValueOutOfRange

PHASE_IDS = ("D1", "D2", "D3")


def _first_bad_index(bad: np.ndarray) -> tuple[int, ...]:
    return tuple(int(v) for v in np.argwhere(bad)[0])


def check_image_array(pixels) -> np.ndarray:
    """Validate and return a float64 copy of a [0,1] intensity array."""
    arr = np.array(pixels, dtype=np.float64, copy=True)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ShapeMismatch(f"image must be 2D and non-empty, got shape {arr.shape}")
    bad = ~(np.isfinite(arr) & (arr >= 0.0) & (arr <= 1.0))
    if bad.any():
        ij = _first_bad_index(bad)
        raise ValueOutOfRange(f"image pixel {ij} = {arr[ij]!r} outside [0, 1]")
    return arr


def check_mask_array(labels) -> np.ndarray:
    """Validate and return a uint8 copy of a strictly {0,1} label array."""
    arr = np.asarray(labels)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ShapeMismatch(f"mask must be 2D and non-empty, got shape {arr.shape}")
    bad = ~((arr == 0) | (arr == 1))
    if bad.any():
        ij = _first_bad_index(bad)
        raise ValueOutOfRange(f"mask label {ij} = {arr[ij]!r} not in {{0, 1}}")
    return arr.astype(np.uint8)


def check_prob_array(probs) -> np.ndarray:
    """Validate and return a float64 copy of a [0,1] probability array."""
    arr = np.array(probs, dtype=np.float64, copy=True)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ShapeMismatch(f"prob map must be 2D and non-empty, got shape {arr.shape}")
    bad = ~(np.isfinite(arr) & (arr >= 0.0) & (arr <= 1.0))
    if bad.any():
        ij = _first_bad_index(bad)
        raise ValueOutOfRange(f"probability {ij} = {arr[ij]!r} outside [0, 1]")
    return arr


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class Image:
    """2D grayscale slice with intensities normalized to [0, 1]."""

    pixels: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "pixels", _freeze(check_image_array(self.pixels)))

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.pixels.shape


@dataclass(frozen=True, eq=False)
class Mask:
    """Binary ground-truth labels; values are exactly 0 or 1."""

    labels: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "labels", _freeze(check_mask_array(self.labels)))

    @property
    def shape(self) -> tuple[int, int]:
        return self.labels.shape

    def foreground_count(self) -> int:
        return int(self.labels.sum())

    def is_empty(self) -> bool:
        return not self.labels.any()


@dataclass(frozen=True, eq=False)
class ProbMap:
    """Per-pixel foreground probabilities in [0, 1]."""

    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "probs", _freeze(check_prob_array(self.probs)))

    @property
    def shape(self) -> tuple[int, int]:
        return self.probs.shape


def masks_equal(a: Mask, b: Mask) -> bool:
    return a.shape == b.shape and bool(np.array_equal(a.labels, b.labels))


@dataclass(frozen=True)
class BBox:
    """Inclusive rectangular pixel region."""

    row_min: int
    row_max: int
    col_min: int
    col_max: int

    def __post_init__(self):
        if not (0 <= self.row_min <= self.row_max and 0 <= self.col_min <= self.col_max):
            raise ValueOutOfRange(f"degenerate bbox {self}")

    @property
    def height(self) -> int:
        return self.row_max - self.row_min + 1

    @property
    def width(self) -> int:
        return self.col_max - self.col_min + 1

    def check_within(self, shape: tuple[int, int]) -> None:
        if self.row_max >= shape[0] or self.col_max >= shape[1]:
            raise ValueOutOfRange(f"bbox {self} exceeds image shape {shape}")


@dataclass(frozen=True)
class CropRecord:
    """Provenance of a crop: where it was cut from and how it was padded.

    `box` is the clipped region actually cut out of the source; `pad` is the
    (top, bottom, left, right) zero padding appended afterwards. Together
    they make paste-back lossless for the in-box region.
    """

    source_shape: tuple[int, int]
    box: BBox
    pad: tuple[int, int, int, int] = (0, 0, 0, 0)

    def __post_init__(self):
        self.box.check_within(self.source_shape)
        if any(p < 0 for p in self.pad):
            raise ValueOutOfRange(f"negative padding {self.pad}")

    @property
    def out_shape(self) -> tuple[int, int]:
        pt, pb, pl, pr = self.pad
        return (self.box.height + pt + pb, self.box.width + pl + pr)


@dataclass(frozen=True, eq=False)
class ParamVector:
    """Flat, ordered snapshot of model parameters.

    `layout_id` names the architecture that produced the vector; two vectors
    are combinable only when their layout ids match.
    """

    values: np.ndarray
    layout_id: str

    def __post_init__(self):
        arr = np.array(self.values, dtype=np.float64, copy=True)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueOutOfRange("parameter vector must be 1D and non-empty")
        if not np.isfinite(arr).all():
            raise ValueOutOfRange("parameter vector contains non-finite values")
        object.__setattr__(self, "values", _freeze(arr))

    def __len__(self) -> int:
        return self.values.size


@dataclass(frozen=True, eq=False)
class DatasetItem:
    """One training example plus optional crop provenance."""

    image: Image
    mask: Mask
    crop: CropRecord | None = None
    item_id: str | None = None

    def __post_init__(self):
        if self.image.shape != self.mask.shape:
            raise ShapeMismatch(f"image shape {self.image.shape} != mask shape {self.mask.shape}")
        if self.crop is not None and self.crop.out_shape != self.image.shape:
            raise ShapeMismatch(
                f"crop record implies {self.crop.out_shape}, image is {self.image.shape}"
            )


@dataclass(frozen=True, eq=False)
class DatasetPhase:
    """A materialized training set for one curriculum difficulty level."""

    phase_id: str
    items: tuple[DatasetItem, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.phase_id not in PHASE_IDS:
            raise ValueOutOfRange(f"phase_id must be one of {PHASE_IDS}, got {self.phase_id!r}")
        object.__setattr__(self, "items", tuple(self.items))
        if self.phase_id == "D3":
            for i, item in enumerate(self.items):
                if item.crop is not None:
                    raise ValueOutOfRange(f"raw-phase item {i} must not carry a crop record")

    def __len__(self) -> int:
        return len(self.items)


@dataclass(frozen=True)
class LossBreakdown:
    """The three supervision terms and their sum."""

    l_iou: float
    l_bce: float
    l_s: float
    l_total: float

    _TOL = 1e-6

    def __post_init__(self):
        slack = 1e-9
        if not (-slack <= self.l_iou <= 1.0 + slack):
            raise ValueOutOfRange(f"l_iou = {self.l_iou} outside [0, 1]")
        if not (-slack <= self.l_s <= 1.0 + slack):
            raise ValueOutOfRange(f"l_s = {self.l_s} outside [0, 1]")
        if self.l_bce < -slack:
            raise ValueOutOfRange(f"l_bce = {self.l_bce} negative")
        expect = self.l_iou + self.l_bce + self.l_s
        if abs(self.l_total - expect) > self._TOL * max(1.0, abs(expect)):
            raise ValueOutOfRange(f"l_total = {self.l_total} != sum of parts {expect}")

    def all_finite(self) -> bool:
        return all(
            np.isfinite(v) for v in (self.l_iou, self.l_bce, self.l_s, self.l_total)
        )


def mean_breakdown(parts: list[LossBreakdown]) -> LossBreakdown:
    """Element-wise mean of loss breakdowns (mean of sums = sum of means)."""
    if not parts:
        raise ValueOutOfRange("cannot average an empty list of losses")
    n = len(parts)
    return LossBreakdown(
        l_iou=sum(p.l_iou for p in parts) / n,
        l_bce=sum(p.l_bce for p in parts) / n,
        l_s=sum(p.l_s for p in parts) / n,
        l_total=sum(p.l_total for p in parts) / n,
    )
