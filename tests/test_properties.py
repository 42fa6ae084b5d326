"""Randomized invariants over the pure helpers, driven by hypothesis."""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from curriseg import (
    BBox,
    GaussianKernel,
    Mask,
    ProbMap,
    Rng,
    cache_init,
    cache_update,
    crop_like,
    dsc,
    gaussian_smooth,
    loss_iou,
    loss_smoothed,
    loss_total,
    make_crop_record,
    paste_back,
    threshold,
)
from curriseg.losses import LossConfig
from curriseg.rng import derive_seed
from curriseg.types import ParamVector

CFG = LossConfig(kernel=GaussianKernel(sigma=1.0, radius=2))

seeds = st.integers(min_value=0, max_value=2**63 - 1)
sizes = st.integers(min_value=1, max_value=9)


def arr(seed, n):
    return Rng(seed).uniforms(n)


@settings(deadline=None, max_examples=60)
@given(seeds, st.integers(min_value=1, max_value=1000))
def test_rng_below_in_range(seed, n):
    r = Rng(seed)
    assert all(0 <= r.below(n) < n for _ in range(20))


@settings(deadline=None, max_examples=60)
@given(seeds, st.integers(min_value=0, max_value=40))
def test_rng_shuffle_is_permutation(seed, n):
    items = list(range(n))
    Rng(seed).shuffle(items)
    assert sorted(items) == list(range(n))


@settings(deadline=None, max_examples=60)
@given(seeds, st.integers(min_value=0, max_value=1000))
def test_derive_seed_distinct_streams(seed, i):
    a = Rng(derive_seed(seed, i)).uniforms(4)
    b = Rng(derive_seed(seed, i + 1)).uniforms(4)
    assert not np.array_equal(a, b)


@settings(deadline=None, max_examples=40)
@given(seeds, sizes, sizes)
def test_losses_bounded(seed, h, w):
    p = ProbMap(0.02 + 0.96 * arr(seed, h * w).reshape(h, w))
    t = Mask((arr(seed ^ 0x5A5A, h * w).reshape(h, w) < 0.5).astype(np.uint8))
    li = loss_iou(p, t, CFG)
    ls = loss_smoothed(p, t, CFG)
    assert 0.0 <= li <= 1.0
    assert 0.0 <= ls <= 1.0
    lb = loss_total(p, t, CFG)
    assert math.isclose(lb.l_total, lb.l_iou + lb.l_bce + lb.l_s, rel_tol=1e-12)


@settings(deadline=None, max_examples=40)
@given(seeds, sizes, sizes)
def test_dsc_symmetric_and_bounded(seed, h, w):
    a = Mask((arr(seed, h * w).reshape(h, w) < 0.4).astype(np.uint8))
    b = Mask((arr(seed ^ 0xFF, h * w).reshape(h, w) < 0.4).astype(np.uint8))
    d = dsc(a, b)
    assert 0.0 <= d <= 1.0
    assert d == dsc(b, a)
    assert dsc(a, a) == 1.0


@settings(deadline=None, max_examples=40)
@given(
    seeds,
    st.integers(min_value=4, max_value=24),
    st.integers(min_value=4, max_value=24),
    st.integers(min_value=0, max_value=6),
    st.sampled_from([1, 2, 4]),
)
def test_crop_record_covers_box_and_aligns(seed, h, w, margin, align):
    r = Rng(seed)
    r0, c0 = r.below(h), r.below(w)
    r1, c1 = r0 + r.below(h - r0), c0 + r.below(w - c0)
    box = BBox(r0, r1, c0, c1)
    rec = make_crop_record((h, w), box, margin, align)
    oh, ow = rec.out_shape
    assert oh % align == 0 and ow % align == 0
    assert rec.box.row_min <= r0 and rec.box.row_max >= r1
    assert rec.box.col_min <= c0 and rec.box.col_max >= c1
    # crop/paste round trip restores the clipped window, zero elsewhere
    x = arr(seed ^ 0x99, h * w).reshape(h, w)
    back = paste_back(ProbMap(np.clip(crop_like(x, rec), 1e-9, 1 - 1e-9)), rec)
    rm, rM = rec.box.row_min, rec.box.row_max
    cm, cM = rec.box.col_min, rec.box.col_max
    np.testing.assert_allclose(
        back.probs[rm : rM + 1, cm : cM + 1], np.clip(x, 1e-9, 1 - 1e-9)[rm : rM + 1, cm : cM + 1]
    )


@settings(deadline=None, max_examples=40)
@given(seeds, st.floats(min_value=0.05, max_value=0.95))
def test_threshold_counts_strict_exceedances(seed, t):
    p = ProbMap(arr(seed, 36).reshape(6, 6) * 0.999 + 5e-4)
    m = threshold(p, t)
    assert m.labels.sum() == (p.probs > t).sum()


@settings(deadline=None, max_examples=30)
@given(seeds, st.floats(min_value=0.0, max_value=1.0), st.integers(min_value=1, max_value=12))
def test_cache_update_stays_in_hull(seed, alpha, n_updates):
    layout = "prop-p6"
    cache = cache_init(ParamVector(arr(seed, 6), layout), alpha)
    lo = hi = cache.params.values
    for k in range(n_updates):
        live = ParamVector(2.0 * arr(derive_seed(seed, k), 6) - 0.5, layout)
        lo, hi = np.minimum(lo, live.values), np.maximum(hi, live.values)
        cache = cache_update(cache, live)
    assert (cache.params.values >= lo - 1e-12).all()
    assert (cache.params.values <= hi + 1e-12).all()
    assert cache.updates == n_updates


@settings(deadline=None, max_examples=30)
@given(seeds, st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=8))
def test_gaussian_smooth_preserves_mass_of_constant(seed, h, w):
    k = GaussianKernel(sigma=0.8, radius=2)
    x = np.full((h, w), 0.37)
    np.testing.assert_allclose(gaussian_smooth(x, k), x, atol=1e-12)
