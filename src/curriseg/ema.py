"""Slow-moving weight caches.

A cache shadows a training model's flat parameter vector. Each update
blends the live weights in with a convex combination,

    cached = alpha * cached + (1 - alpha) * live,

so after k updates the cache is an exponentially-weighted average whose
coefficients sum to one: alpha^k on the initial value and
(1 - alpha) * alpha^(k - j) on the j-th live snapshot. With alpha = 0
the cache tracks the live weights exactly.

Caches are what the rest of the system consumes: cropping decisions and
final predictions are made with cached weights, never the live ones.
The callers run `backbone.forward` on `cache.params`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import AlphaOutOfRange, LayoutMismatch, ValueOutOfRange
from .types import ParamVector


@dataclass(frozen=True, eq=False)
class CacheModel:
    """Immutable cache snapshot; cache_update returns a new one."""

    params: ParamVector
    alpha: float
    updates: int

    def __post_init__(self):
        if not (0.0 <= self.alpha <= 1.0):
            raise AlphaOutOfRange(f"alpha must lie in [0, 1], got {self.alpha}")
        if self.updates < 0:
            raise ValueOutOfRange(f"updates must be >= 0, got {self.updates}")


DEFAULT_ALPHA = 0.99


def cache_init(theta: ParamVector, alpha: float = DEFAULT_ALPHA) -> CacheModel:
    """Start a cache as an exact copy of the live weights."""
    return CacheModel(theta, alpha, 0)


def cache_update(cache: CacheModel, theta: ParamVector) -> CacheModel:
    """Fold one live snapshot into the cache (call once per optimizer step)."""
    if theta.layout_id != cache.params.layout_id:
        raise LayoutMismatch(
            f"live layout {theta.layout_id!r} != cache layout {cache.params.layout_id!r}"
        )
    a = cache.alpha
    merged = a * cache.params.values + (1.0 - a) * theta.values
    return CacheModel(ParamVector(merged, cache.params.layout_id), a, cache.updates + 1)
