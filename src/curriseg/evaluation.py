"""Dice overlap scoring and per-item evaluation reports."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyDataset, LengthMismatch, ShapeMismatch
from .types import Mask


def dsc(a: Mask, b: Mask) -> float:
    """Dice coefficient 2|A∩B| / (|A| + |B|); two empty masks score 1.0."""
    if a.shape != b.shape:
        raise ShapeMismatch(f"mask shapes differ: {a.shape} vs {b.shape}")
    inter = int(np.sum((a.labels == 1) & (b.labels == 1)))
    size = int(a.labels.sum()) + int(b.labels.sum())
    if size == 0:
        return 1.0
    return 2.0 * inter / size


@dataclass(frozen=True)
class EvalReport:
    """Per-item Dice scores with aggregate statistics.

    ``std`` is the population standard deviation. ``per_item`` pairs each
    score with its item id so reports stay joinable after serialization.
    """

    per_item: tuple[tuple[str, float], ...]
    mean: float
    std: float
    max: float
    min: float
    count: int

    @property
    def scores(self) -> tuple[float, ...]:
        return tuple(s for _, s in self.per_item)

    def as_dict(self) -> dict:
        return {
            "per_item": [{"id": i, "dsc": s} for i, s in self.per_item],
            "mean": self.mean,
            "std": self.std,
            "max": self.max,
            "min": self.min,
            "count": self.count,
        }


def evaluate_set(
    preds: list[Mask],
    refs: list[Mask],
    ids: list[str] | None = None,
) -> EvalReport:
    """Score predictions against references item by item.

    ``ids`` defaults to zero-based decimal indices when the caller has no
    natural identifiers.
    """
    if len(preds) != len(refs):
        raise LengthMismatch(f"{len(preds)} predictions vs {len(refs)} references")
    if not preds:
        raise EmptyDataset("evaluate_set needs at least one pair")
    if ids is None:
        ids = [str(i) for i in range(len(preds))]
    if len(ids) != len(preds):
        raise LengthMismatch(f"{len(ids)} ids vs {len(preds)} predictions")
    scores = [dsc(p, r) for p, r in zip(preds, refs)]
    arr = np.asarray(scores)
    return EvalReport(
        per_item=tuple(zip(ids, scores)),
        mean=float(arr.mean()),
        std=float(arr.std()),
        max=float(arr.max()),
        min=float(arr.min()),
        count=len(scores),
    )
