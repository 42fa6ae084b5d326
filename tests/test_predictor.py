import json

import numpy as np
import pytest

from curriseg import (
    AlignmentError,
    BackboneSpec,
    GenConfig,
    PredictConfig,
    ValueOutOfRange,
    cache_init,
    forward,
    generate,
    init_params,
    make_crop_record,
    masks_equal,
    predict,
)

TINY = BackboneSpec(depth=1, base_channels=2)

# thresholds no untrained sigmoid output can cross, in either direction
NEVER = 0.999999
ALWAYS = 1e-6


@pytest.fixture(scope="module")
def caches():
    det = cache_init(init_params(TINY, 31), 0.99)
    seg = cache_init(init_params(TINY, 32), 0.99)
    return det, seg


@pytest.fixture(scope="module")
def image():
    return generate(GenConfig(count=1, height=24, width=24, seed=17)).items[0].image


def test_single_pass_when_no_refinement(caches, image):
    det, seg = caches
    mask, pasted, trace = predict(image, det, seg, TINY, PredictConfig())
    assert mask.shape == image.shape and pasted.shape == image.shape
    assert trace.n_iters == 1 and trace.converged
    assert trace.iterations[0].index == 0
    assert trace.iterations[0].dsc_prev is None


def test_whole_image_crop_when_everything_fires(caches, image):
    det, seg = caches
    mask, pasted, trace = predict(
        image, det, seg, TINY, PredictConfig(crop_threshold=ALWAYS)
    )
    rec = trace.iterations[0]
    assert not rec.fallback
    assert (rec.box.row_min, rec.box.row_max) == (0, 23)
    assert (rec.box.col_min, rec.box.col_max) == (0, 23)


def test_fallback_when_detection_is_empty(caches, image):
    det, seg = caches
    mask, pasted, trace = predict(
        image, det, seg, TINY, PredictConfig(crop_threshold=NEVER)
    )
    rec = trace.iterations[0]
    assert rec.fallback and rec.box is None
    # the fallback crop still scores the full frame
    assert (pasted.probs > 0).all()


def test_mask_and_scores_zero_outside_window(caches, image):
    det, seg = caches
    # place the crop threshold at a high quantile of the detection scores so
    # the crop window is real and strictly smaller than the frame
    scores = forward(TINY, det.params, image).probs
    t = float(np.quantile(scores, 0.97))
    if t >= scores.max():
        t = float(0.5 * (scores.min() + scores.max()))
    cfg = PredictConfig(margin=2, crop_threshold=t)
    mask, pasted, trace = predict(image, det, seg, TINY, cfg)
    box = trace.iterations[-1].box
    assert box is not None
    rec = make_crop_record(image.shape, box, cfg.margin, TINY.input_align)
    outside = np.ones(image.shape, dtype=bool)
    r0, c0 = rec.box.row_min, rec.box.col_min
    outside[r0 : r0 + rec.out_shape[0], c0 : c0 + rec.out_shape[1]] = False
    assert (pasted.probs[outside] == 0.0).all()
    assert (mask.labels[outside] == 0).all()


def test_refinement_reaches_fixed_point(caches, image):
    det, seg = caches
    # whole-frame crops make the second pass repeat the first exactly
    cfg = PredictConfig(crop_threshold=ALWAYS, d_t=0.9, max_iters=7)
    mask, _, trace = predict(image, det, seg, TINY, cfg)
    assert trace.converged
    assert trace.n_iters == 2
    assert trace.iterations[1].dsc_prev == 1.0


def test_strict_refinement_runs_out_or_stabilizes(caches, image):
    det, seg = caches
    cfg = PredictConfig(d_t=1.0, max_iters=4)
    _, _, trace = predict(image, det, seg, TINY, cfg)
    assert trace.n_iters <= cfg.max_iters
    assert trace.converged or trace.n_iters == cfg.max_iters
    if trace.converged:
        assert trace.iterations[-1].dsc_prev == 1.0


def test_refinement_trace_records_every_pass(caches, image):
    det, seg = caches
    cfg = PredictConfig(crop_threshold=NEVER, d_t=1.0, max_iters=3)
    _, _, trace = predict(image, det, seg, TINY, cfg)
    assert [r.index for r in trace.iterations] == list(range(trace.n_iters))
    assert trace.iterations[0].dsc_prev is None
    for r in trace.iterations[1:]:
        assert 0.0 <= r.dsc_prev <= 1.0


def test_predict_deterministic_and_read_only(caches, image):
    det, seg = caches
    det_before = det.params.values.copy()
    a_mask, a_probs, a_trace = predict(image, det, seg, TINY, PredictConfig())
    b_mask, b_probs, b_trace = predict(image, det, seg, TINY, PredictConfig())
    assert masks_equal(a_mask, b_mask)
    np.testing.assert_array_equal(a_probs.probs, b_probs.probs)
    assert a_trace == b_trace
    np.testing.assert_array_equal(det.params.values, det_before)
    assert det.updates == 0


def test_trace_serializes_to_json(caches, image):
    det, seg = caches
    cfg = PredictConfig(crop_threshold=ALWAYS, d_t=0.9, max_iters=3)
    _, _, trace = predict(image, det, seg, TINY, cfg)
    doc = json.loads(json.dumps(trace.as_dict()))
    assert doc["converged"] is True
    assert doc["n_iters"] == len(doc["iterations"])
    first = doc["iterations"][0]
    assert first["box"] == [0, 0, 23, 23]  # row_min, col_min, row_max, col_max
    assert first["fallback"] is False


def test_misaligned_input_rejected(caches):
    det, seg = caches
    spec = BackboneSpec(depth=2, base_channels=2)
    bad = generate(GenConfig(count=1, height=18, width=18, seed=3)).items[0].image
    det2 = cache_init(init_params(spec, 5), 0.99)
    with pytest.raises(AlignmentError):
        predict(bad, det2, det2, spec, PredictConfig())


@pytest.mark.parametrize(
    "kw",
    [
        dict(crop_threshold=0.0),
        dict(crop_threshold=1.0),
        dict(final_threshold=1.2),
        dict(margin=-1),
        dict(d_t=0.0),
        dict(d_t=1.5),
        dict(max_iters=0),
    ],
)
def test_predict_config_validation(kw):
    with pytest.raises(ValueOutOfRange):
        PredictConfig(**kw)
