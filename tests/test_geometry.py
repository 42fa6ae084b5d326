import numpy as np
import pytest

from curriseg import (
    BBox,
    GaussianKernel,
    Image,
    Mask,
    ProbMap,
    Rng,
    ShapeMismatch,
    ValueOutOfRange,
    bbox_from_mask,
    crop_like,
    gaussian_smooth,
    gaussian_smooth_adjoint,
    make_crop_record,
    paste_back,
    threshold,
)

from conftest import rand_mask, rand_probs

# ---------------------------------------------------------------- threshold


def test_threshold_is_strict():
    p = ProbMap(np.full((3, 3), 0.5))
    assert threshold(p, 0.5).labels.sum() == 0
    assert np.array_equal(threshold(ProbMap(np.array([[0.6, 0.4]])), 0.5).labels, [[1, 0]])


def test_threshold_matches_pixel_loop():
    p = rand_probs(100, 8, 8)
    out = threshold(p, 0.5).labels
    for i in range(8):
        for j in range(8):
            assert out[i, j] == (1 if p.probs[i, j] > 0.5 else 0)


def test_threshold_monotone_in_t():
    p = rand_probs(101, 8, 8)
    lo = threshold(p, 0.3).labels
    hi = threshold(p, 0.7).labels
    assert np.all(hi <= lo)  # raising t never turns a 0 into a 1


def test_threshold_rejects_degenerate_t():
    p = ProbMap(np.full((2, 2), 0.5))
    for t in (0.0, 1.0, -0.1):
        with pytest.raises(ValueOutOfRange):
            threshold(p, t)


# ------------------------------------------------------------ bbox_from_mask


def test_bbox_hand_cases():
    m = np.zeros((6, 7), dtype=np.uint8)
    m[1, 2] = 1
    m[3, 5] = 1
    assert bbox_from_mask(Mask(m)) == BBox(1, 3, 2, 5)
    assert bbox_from_mask(Mask(np.zeros((4, 4), dtype=np.uint8))) is None
    assert bbox_from_mask(Mask(np.ones((4, 4), dtype=np.uint8))) == BBox(0, 3, 0, 3)


def test_bbox_matches_brute_force_scan():
    for seed in range(100):
        m = rand_mask(seed, 9, 11, density=0.08)
        box = bbox_from_mask(m)
        ones = [(i, j) for i in range(9) for j in range(11) if m.labels[i, j]]
        if not ones:
            assert box is None
            continue
        rows = [i for i, _ in ones]
        cols = [j for _, j in ones]
        assert (box.row_min, box.row_max) == (min(rows), max(rows))
        assert (box.col_min, box.col_max) == (min(cols), max(cols))
        # tightness: every boundary row/col holds at least one 1-pixel
        assert m.labels[box.row_min].any() and m.labels[box.row_max].any()
        assert m.labels[:, box.col_min].any() and m.labels[:, box.col_max].any()


# ------------------------------------------------------------------- crop


def test_crop_direct_slice():
    img = Image(Rng(1).uniforms(64).reshape(8, 8))
    rec = make_crop_record(img.shape, BBox(2, 5, 2, 5), margin=0, align=1)
    out = crop_like(img.pixels, rec)
    assert out.shape == (4, 4)
    np.testing.assert_array_equal(out, img.pixels[2:6, 2:6])
    assert rec.box == BBox(2, 5, 2, 5) and rec.pad == (0, 0, 0, 0)


def test_crop_clips_margin_at_border():
    img = Image(np.full((8, 8), 0.5))
    rec = make_crop_record(img.shape, BBox(0, 3, 0, 3), margin=2, align=1)
    assert crop_like(img.pixels, rec).shape == (6, 6)
    assert rec.box == BBox(0, 5, 0, 5)


def test_crop_pads_to_alignment():
    img = Image(Rng(2).uniforms(64).reshape(8, 8))
    rec = make_crop_record(img.shape, BBox(2, 4, 2, 4), margin=0, align=4)
    out = crop_like(img.pixels, rec)
    assert out.shape == (4, 4)
    assert rec.pad == (0, 1, 0, 1)  # 3x3 core, one zero row and col appended
    assert np.all(out[3, :] == 0.0) and np.all(out[:, 3] == 0.0)
    np.testing.assert_array_equal(out[:3, :3], img.pixels[2:5, 2:5])


def test_crop_record_composition_case():
    # mask spanning rows 10..20, cols 5..25 of a 64x64 image, margin 4:
    # expanded to rows 6..24 (19 rows -> pad 1) and cols 1..29 (29 -> pad 3)
    rec = make_crop_record((64, 64), BBox(10, 20, 5, 25), margin=4, align=4)
    assert rec.box == BBox(6, 24, 1, 29)
    assert rec.pad == (0, 1, 0, 3)
    assert rec.out_shape == (20, 32)


def test_make_crop_record_validates_args():
    with pytest.raises(ValueOutOfRange):
        make_crop_record((8, 8), BBox(0, 3, 0, 3), margin=-1, align=1)
    with pytest.raises(ValueOutOfRange):
        make_crop_record((8, 8), BBox(0, 3, 0, 3), margin=0, align=0)
    with pytest.raises(ValueOutOfRange):
        make_crop_record((8, 8), BBox(0, 9, 0, 3), margin=0, align=1)


# --------------------------------------------------------------- paste_back


def test_paste_back_construction():
    rec = make_crop_record((8, 8), BBox(2, 5, 3, 6), margin=0, align=1)
    pasted = paste_back(ProbMap(np.ones(rec.out_shape)), rec)
    expect = np.zeros((8, 8))
    expect[2:6, 3:7] = 1.0
    np.testing.assert_array_equal(pasted.probs, expect)


def test_crop_paste_round_trip_random():
    for seed in range(100):
        r = Rng(seed)
        h, w = 6 + r.below(8), 6 + r.below(8)
        p = rand_probs(seed + 5000, h, w)
        r0 = r.below(h)
        r1 = r0 + r.below(h - r0)
        c0 = r.below(w)
        c1 = c0 + r.below(w - c0)
        rec = make_crop_record((h, w), BBox(r0, r1, c0, c1), margin=r.below(3), align=1 + r.below(4))
        cut = crop_like(p.probs, rec)
        pasted = paste_back(ProbMap(cut), rec)
        b = rec.box
        np.testing.assert_array_equal(
            pasted.probs[b.row_min : b.row_max + 1, b.col_min : b.col_max + 1],
            p.probs[b.row_min : b.row_max + 1, b.col_min : b.col_max + 1],
        )
        outside = np.ones((h, w), dtype=bool)
        outside[b.row_min : b.row_max + 1, b.col_min : b.col_max + 1] = False
        assert np.all(pasted.probs[outside] == 0.0)


def test_paste_back_shape_mismatch():
    rec = make_crop_record((8, 8), BBox(2, 5, 2, 5), margin=0, align=1)  # implies 4x4
    with pytest.raises(ShapeMismatch):
        paste_back(ProbMap(np.ones((3, 3))), rec)


# ----------------------------------------------------------------- kernel


def test_kernel_normalized_and_symmetric():
    for sigma, radius in [(1.0, 3), (0.5, 1), (2.0, 4)]:
        k = GaussianKernel(sigma, radius)
        assert abs(k.weights.sum() - 1.0) < 1e-6
        np.testing.assert_array_equal(k.weights, np.rot90(k.weights))
        np.testing.assert_array_equal(k.weights, np.flipud(k.weights))
        np.testing.assert_array_equal(k.weights, k.weights.T)
    with pytest.raises(ValueOutOfRange):
        GaussianKernel(sigma=0.0)
    with pytest.raises(ValueOutOfRange):
        GaussianKernel(radius=0)


# ----------------------------------------------------------------- smoothing


def _reflect(q: int, n: int) -> int:
    # mirror without edge repeat; independent of the library helper
    if n == 1:
        return 0
    period = 2 * n - 2
    q %= period
    return q if q <= n - 1 else period - q


def _smooth_oracle(m: np.ndarray, k: GaussianKernel) -> np.ndarray:
    h, w = m.shape
    out = np.zeros((h, w))
    for i in range(h):
        for j in range(w):
            acc = 0.0
            for u in range(-k.radius, k.radius + 1):
                for v in range(-k.radius, k.radius + 1):
                    acc += k.weights[u + k.radius, v + k.radius] * m[
                        _reflect(i + u, h), _reflect(j + v, w)
                    ]
            out[i, j] = acc
    return out


def test_smooth_constant_is_identity():
    k = GaussianKernel()
    out = gaussian_smooth(np.full((9, 9), 0.37), k)
    np.testing.assert_allclose(out, 0.37, rtol=1e-12)


def test_smooth_impulse_center_weight():
    k = GaussianKernel(sigma=1.0, radius=3)
    m = np.zeros((9, 9))
    m[4, 4] = 1.0
    out = gaussian_smooth(m, k)
    assert abs(out[4, 4] - k.weights[3, 3]) < 1e-12


# axes shorter than radius 3, where the border reflects more than once
SHORT_AXES = [(1, 1), (1, 5), (2, 3), (3, 7)]


def test_smooth_matches_quadruple_loop():
    k = GaussianKernel(sigma=1.0, radius=2)
    for seed in range(10):
        m = Rng(seed).uniforms(64).reshape(8, 8)
        np.testing.assert_allclose(gaussian_smooth(m, k), _smooth_oracle(m, k), atol=1e-12)
    k = GaussianKernel(sigma=1.0, radius=3)
    for seed, (h, w) in enumerate(SHORT_AXES):
        m = Rng(seed).uniforms(h * w).reshape(h, w)
        np.testing.assert_allclose(gaussian_smooth(m, k), _smooth_oracle(m, k), atol=1e-12)


def test_smooth_preserves_interior_mass():
    k = GaussianKernel(sigma=1.0, radius=3)
    m = np.zeros((32, 32))
    m[12:20, 12:20] = Rng(77).uniforms(64).reshape(8, 8)  # >= 3*radius from border
    out = gaussian_smooth(m, k)
    assert abs(out.sum() - m.sum()) <= 1e-4 * m.sum()


def test_smooth_range_preserved():
    k = GaussianKernel()
    m = Rng(13).uniforms(100).reshape(10, 10)
    out = gaussian_smooth(m, k)
    assert out.min() >= 0.0 and out.max() <= 1.0 + 1e-12


def test_adjoint_inner_product_identity():
    # <S x, y> == <x, S^T y> for random pairs: the adjoint really is the
    # transpose of the smoothing operator, border folding included
    cases = [(GaussianKernel(sigma=1.3, radius=2), seed, (6, 8)) for seed in range(10)]
    cases += [(GaussianKernel(sigma=1.0, radius=3), seed, hw) for seed, hw in enumerate(SHORT_AXES)]
    for k, seed, (h, w) in cases:
        x = Rng(seed).uniforms(h * w).reshape(h, w)
        y = Rng(seed + 999).uniforms(h * w).reshape(h, w)
        lhs = float(np.sum(gaussian_smooth(x, k) * y))
        rhs = float(np.sum(x * gaussian_smooth_adjoint(y, k)))
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


