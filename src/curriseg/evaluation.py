"""Overlap scoring and deterministic cross-validation splits."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadFoldCount, EmptyDataset, LengthMismatch, ShapeMismatch
from .rng import Rng
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


def foreground_ratio(masks) -> float:
    """Foreground pixels over total pixels, pooled across all masks."""
    fg = 0
    total = 0
    for m in masks:
        fg += int(m.labels.sum())
        total += m.labels.size
    if total == 0:
        raise EmptyDataset("foreground_ratio needs at least one mask")
    return fg / total


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

    @classmethod
    def from_dict(cls, doc: dict) -> "EvalReport":
        return cls(
            per_item=tuple((e["id"], e["dsc"]) for e in doc["per_item"]),
            mean=doc["mean"],
            std=doc["std"],
            max=doc["max"],
            min=doc["min"],
            count=doc["count"],
        )


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


def split_folds(n_items: int, n_folds: int, seed: int) -> list[tuple[list[int], list[int]]]:
    """Shuffle 0..n_items-1 and cut into (train, test) index pairs.

    Every index lands in exactly one test fold and test-fold sizes differ
    by at most one (the first n_items % n_folds folds get the extra
    element). Each train list is the complement in shuffled order.
    """
    if n_items < 1:
        raise EmptyDataset(f"cannot split {n_items} items")
    if n_folds < 2 or n_folds > n_items:
        raise BadFoldCount(f"n_folds must lie in [2, {n_items}], got {n_folds}")
    order = list(range(n_items))
    Rng(seed).shuffle(order)
    base, extra = divmod(n_items, n_folds)
    folds = []
    at = 0
    for i in range(n_folds):
        size = base + (1 if i < extra else 0)
        test = order[at : at + size]
        train = order[:at] + order[at + size :]
        folds.append((train, test))
        at += size
    return folds
