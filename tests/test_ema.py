import numpy as np
import pytest

from curriseg import (
    AlphaOutOfRange,
    BackboneSpec,
    CacheModel,
    Image,
    LayoutMismatch,
    ParamVector,
    Rng,
    cache_init,
    cache_update,
    forward,
    init_params,
)
from curriseg.ema import DEFAULT_ALPHA


def vec(values, layout="toy"):
    return ParamVector(np.asarray(values, dtype=float), layout)


def test_init_copies_and_counts_zero():
    theta = vec([1.0, 2.0, 3.0])
    c = cache_init(theta, alpha=0.9)
    assert np.array_equal(c.params.values, theta.values)
    assert c.updates == 0 and c.alpha == 0.9


def test_default_alpha():
    assert DEFAULT_ALPHA == 0.99
    assert cache_init(vec([1.0])).alpha == 0.99


def test_alpha_bounds_inclusive():
    theta = vec([1.0])
    cache_init(theta, alpha=0.0)
    cache_init(theta, alpha=1.0)
    for bad in (1.2, -0.1):
        with pytest.raises(AlphaOutOfRange):
            cache_init(theta, alpha=bad)


def test_hand_update():
    c = cache_init(vec([0.0, 0.0]), alpha=0.9)
    c = cache_update(c, vec([1.0, 1.0]))
    np.testing.assert_allclose(c.params.values, [0.1, 0.1], rtol=1e-12)
    assert c.updates == 1


def test_degenerate_alphas():
    init = vec([5.0, -3.0])
    frozen = cache_update(cache_init(init, alpha=1.0), vec([100.0, 100.0]))
    assert np.array_equal(frozen.params.values, init.values)  # alpha=1: inert

    tracking = cache_update(cache_init(init, alpha=0.0), vec([7.0, 8.0]))
    assert np.array_equal(tracking.params.values, [7.0, 8.0])  # alpha=0: copy


def test_zero_alpha_tracks_last_exactly():
    c = cache_init(vec([0.0, 0.0]), alpha=0.0)
    last = None
    r = Rng(3)
    for _ in range(10):
        last = vec(r.normals(2))
        c = cache_update(c, last)
    assert np.array_equal(c.params.values, last.values)
    assert c.updates == 10


def test_layout_mismatch_rejected():
    c = cache_init(vec([1.0], layout="a"))
    with pytest.raises(LayoutMismatch):
        cache_update(c, vec([2.0], layout="b"))


def test_update_does_not_mutate_input():
    c0 = cache_init(vec([1.0, 2.0]), alpha=0.5)
    c1 = cache_update(c0, vec([9.0, 9.0]))
    assert np.array_equal(c0.params.values, [1.0, 2.0])
    assert not np.array_equal(c1.params.values, c0.params.values)


def closed_form(theta0, thetas, alpha):
    # theta_mu = a^k theta0 + (1-a) * sum a^(k-i) theta_i  (i = 1..k)
    k = len(thetas)
    acc = alpha**k * theta0
    for i, th in enumerate(thetas, start=1):
        acc = acc + (1 - alpha) * alpha ** (k - i) * th
    return acc


@pytest.mark.parametrize("alpha", [0.0, 0.3, 0.9, 0.99, 1.0])
def test_closed_form_convex_combination(alpha):
    r = Rng(17)
    theta0 = r.normals(8)
    c = cache_init(vec(theta0), alpha=alpha)
    snaps = []
    for k in range(50):
        th = r.normals(8)
        snaps.append(th)
        c = cache_update(c, vec(th))
        want = closed_form(theta0, snaps, alpha)
        err = np.abs(c.params.values - want)
        assert err.max() <= 1e-6 * max(1.0, np.abs(want).max())
    assert c.updates == 50


def test_coefficients_sum_to_one():
    # feeding the all-ones vector through any update sequence must return
    # all-ones exactly if and only if the weights form a convex combination
    for alpha in (0.0, 0.25, 0.99, 1.0):
        ones = vec(np.ones(5))
        c = cache_init(ones, alpha=alpha)
        for _ in range(25):
            c = cache_update(c, ones)
            np.testing.assert_allclose(c.params.values, 1.0, rtol=1e-7)


def test_constant_inputs_fixed_point():
    const = vec(np.full(6, 2.5))
    c = cache_init(const, alpha=0.9)
    for _ in range(30):
        c = cache_update(c, const)
    np.testing.assert_allclose(c.params.values, 2.5, rtol=1e-7)


def test_cache_forward_differs_after_distinct_updates():
    spec = BackboneSpec(depth=1, base_channels=2)
    t0 = init_params(spec, 5)
    t1 = init_params(spec, 6)
    img = Image(Rng(7).uniforms(64).reshape(8, 8))
    c = cache_update(cache_init(t0, alpha=0.5), t1)
    blended = forward(spec, c.params, img).probs
    assert not np.array_equal(blended, forward(spec, t0, img).probs)
    assert not np.array_equal(blended, forward(spec, t1, img).probs)
