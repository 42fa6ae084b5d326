from collections import deque

import numpy as np
import pytest

from curriseg import GenConfig, ValueOutOfRange, generate
from curriseg.synthdata import FG_RATIO_RANGE, _single_component


def four_connected_components(labels: np.ndarray) -> int:
    # BFS flood fill, the textbook way, independent of the generator's check
    seen = np.zeros_like(labels, dtype=bool)
    h, w = labels.shape
    n = 0
    for si in range(h):
        for sj in range(w):
            if labels[si, sj] and not seen[si, sj]:
                n += 1
                q = deque([(si, sj)])
                seen[si, sj] = True
                while q:
                    i, j = q.popleft()
                    for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                        a, b = i + di, j + dj
                        if 0 <= a < h and 0 <= b < w and labels[a, b] and not seen[a, b]:
                            seen[a, b] = True
                            q.append((a, b))
    return n


def test_config_validation():
    with pytest.raises(ValueOutOfRange):
        GenConfig(count=0)
    with pytest.raises(ValueOutOfRange):
        GenConfig(count=1, empty_slice_fraction=1.0)


def test_deterministic_bitwise():
    cfg = GenConfig(count=6, seed=7)
    a = generate(cfg)
    b = generate(cfg)
    assert a.phase_id == "D3"
    for x, y in zip(a.items, b.items):
        assert np.array_equal(x.image.pixels, y.image.pixels)
        assert np.array_equal(x.mask.labels, y.mask.labels)
        assert x.item_id == y.item_id


def test_seed_changes_content():
    a = generate(GenConfig(count=3, seed=1))
    b = generate(GenConfig(count=3, seed=2))
    assert not np.array_equal(a.items[0].image.pixels, b.items[0].image.pixels)


def test_item_streams_independent_of_count():
    # item i is a pure function of (seed, i): prefix stability
    big = generate(GenConfig(count=8, seed=11))
    small = generate(GenConfig(count=3, seed=11))
    for i in range(3):
        assert np.array_equal(big.items[i].image.pixels, small.items[i].image.pixels)
        assert np.array_equal(big.items[i].mask.labels, small.items[i].mask.labels)


def test_foreground_ratio_in_range():
    cfg = GenConfig(count=30, seed=5)
    lo, hi = FG_RATIO_RANGE
    phase = generate(cfg)
    for item in phase.items:
        ratio = item.mask.labels.sum() / (cfg.height * cfg.width)
        assert lo <= ratio <= hi


def test_empty_fraction_exact_count():
    cfg = GenConfig(count=20, empty_slice_fraction=0.1, seed=3)
    phase = generate(cfg)
    empties = sum(1 for it in phase.items if it.mask.is_empty())
    assert empties == 2
    for it in phase.items:
        if it.mask.is_empty():
            # an empty slice still has background and decoys, not a blank
            assert it.image.pixels.std() > 0.01


def test_blob_is_single_4connected_component():
    phase = generate(GenConfig(count=15, seed=9))
    for item in phase.items:
        assert four_connected_components(item.mask.labels) == 1


def test_single_component_rejects_split_and_corner_touching_masks():
    two_blobs = np.zeros((8, 8), dtype=bool)
    two_blobs[1:3, 1:3] = True
    two_blobs[5:7, 4:7] = True
    assert not _single_component(two_blobs)
    corners = np.zeros((8, 8), dtype=bool)
    corners[2, 2] = corners[3, 3] = corners[4, 2] = True
    assert not _single_component(corners)
    corners[3, 2] = True  # now 4-connected through (3, 2)
    assert _single_component(corners)


def test_blob_clear_of_border():
    phase = generate(GenConfig(count=15, seed=13))
    for item in phase.items:
        m = item.mask.labels
        assert not m[0].any() and not m[-1].any()
        assert not m[:, 0].any() and not m[:, -1].any()


def test_pixels_quantized_to_8bit():
    phase = generate(GenConfig(count=4, seed=21))
    for item in phase.items:
        scaled = item.image.pixels * 255.0
        np.testing.assert_allclose(scaled, np.round(scaled), atol=1e-9)


def test_images_have_texture_and_contrast():
    phase = generate(GenConfig(count=10, seed=2))
    for item in phase.items:
        px = item.image.pixels
        assert 0.0 <= px.min() and px.max() <= 1.0
        assert px.std() > 0.02  # background texture present
        if not item.mask.is_empty():
            fg = px[item.mask.labels == 1].mean()
            bg = px[item.mask.labels == 0].mean()
            assert fg > bg  # foreground is the bright family


def test_custom_size_and_ids():
    phase = generate(GenConfig(count=3, height=32, width=48, seed=4))
    assert all(it.image.shape == (32, 48) for it in phase.items)
    ids = [it.item_id for it in phase.items]
    assert len(set(ids)) == 3 and all(ids)
