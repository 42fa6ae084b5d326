import json

import numpy as np
import pytest

from curriseg import (
    AlignmentError,
    BackboneSpec,
    CacheModel,
    CorruptManifest,
    DatasetItem,
    DatasetPhase,
    EmptyDataset,
    GenConfig,
    Image,
    Mask,
    NonFiniteLoss,
    OptimizerConfig,
    ParamVector,
    PhaseConfig,
    ValueOutOfRange,
    bbox_from_mask,
    build_d1,
    build_d2,
    cache_forward,
    cache_init,
    crop_like,
    detection_dsc,
    generate,
    init_params,
    load_checkpoint,
    load_phase,
    make_crop_record,
    run_full,
    run_phase,
    save_checkpoint,
    threshold,
)
from curriseg.rng import derive_seed
from curriseg.trainer import (
    history_from_json,
    history_to_json,
    load_cache,
)

TINY = BackboneSpec(depth=1, base_channels=2)


def raw_phase(count=6, seed=3, size=24):
    return generate(GenConfig(count=count, height=size, width=size, seed=seed))


def tiny_cfg(**kw):
    steps = dict(
        phase1=OptimizerConfig(epochs=1, batch_size=2, seed=11),
        phase2=OptimizerConfig(epochs=1, batch_size=2, seed=12),
        phase3=OptimizerConfig(epochs=1, batch_size=2, seed=13),
        segmentation=OptimizerConfig(epochs=1, batch_size=2, seed=14),
        crop_margin=3,
        seed=5,
    )
    steps.update(kw)
    return PhaseConfig(**steps)


def zero_epochs(**kw):
    return tiny_cfg(
        phase1=OptimizerConfig(epochs=0, seed=11),
        phase2=OptimizerConfig(epochs=0, seed=12),
        phase3=OptimizerConfig(epochs=0, seed=13),
        segmentation=OptimizerConfig(epochs=0, seed=14),
        **kw,
    )


def start(cfg):
    """Phase-I starting weights and detection cache, as run_full makes them."""
    theta = init_params(TINY, derive_seed(cfg.seed, 1))
    return theta, cache_init(theta, cfg.alpha)


def trained_phase1(raw, cfg):
    """(D1, phase-I weights, detection cache after phase I)."""
    d1, _ = build_d1(raw, cfg.crop_margin, TINY.input_align)
    theta, cache, _ = run_phase("phase1", d1.items, *start(cfg), cfg, TINY)
    return d1, theta, cache


def with_empty_mask(phase, index=0):
    items = list(phase.items)
    it = items[index]
    items[index] = DatasetItem(
        it.image, Mask(np.zeros(it.mask.shape, dtype=np.uint8)), None, it.item_id
    )
    return DatasetPhase("D3", tuple(items))


# ------------------------------------------------------- dataset building


def test_build_d1_crop_geometry():
    raw = raw_phase()
    d1, skipped = build_d1(raw, margin=3, align=TINY.input_align)
    assert skipped == 0 and d1.phase_id == "D1"
    assert len(d1.items) == len(raw.items)
    for src, out in zip(raw.items, d1.items):
        rec = make_crop_record(src.image.shape, bbox_from_mask(src.mask), 3, TINY.input_align)
        assert out.crop == rec
        assert out.item_id == src.item_id
        np.testing.assert_array_equal(out.image.pixels, crop_like(src.image.pixels, rec))
        np.testing.assert_array_equal(out.mask.labels, crop_like(src.mask.labels, rec))


def test_build_d1_is_foreground_denser():
    raw = raw_phase(count=10, seed=4, size=32)
    d1, _ = build_d1(raw, margin=3, align=4)
    before = np.mean([it.mask.labels.mean() for it in raw.items])
    after = np.mean([it.mask.labels.mean() for it in d1.items])
    assert after > 2 * before


def test_build_d1_skips_empty_masks():
    raw = with_empty_mask(raw_phase())
    d1, skipped = build_d1(raw, margin=2, align=2)
    assert skipped == 1
    assert len(d1.items) == len(raw.items) - 1
    assert raw.items[0].item_id not in {it.item_id for it in d1.items}


def test_build_d1_all_empty_fatal():
    h = w = 16
    items = tuple(
        DatasetItem(Image(np.full((h, w), 0.5)), Mask(np.zeros((h, w), np.uint8)), None, f"i{k}")
        for k in range(3)
    )
    with pytest.raises(EmptyDataset):
        build_d1(DatasetPhase("D3", items), margin=2, align=2)


def test_build_d2_crops_follow_cache_predictions():
    raw = raw_phase()
    cache = cache_init(init_params(TINY, 21), 0.9)
    d2, fallbacks, skipped = build_d2(raw, cache, TINY, margin=3, align=TINY.input_align)
    assert skipped == 0 and d2.phase_id == "D2"
    assert len(d2.items) == len(raw.items)
    for src, out in zip(raw.items, d2.items):
        box = bbox_from_mask(threshold(cache_forward(TINY, cache, src.image), 0.5))
        if box is None:
            h, w = src.image.shape
            from curriseg import BBox

            box = BBox(0, h - 1, 0, w - 1)
        rec = make_crop_record(src.image.shape, box, 3, TINY.input_align)
        assert out.crop == rec
        np.testing.assert_array_equal(out.image.pixels, crop_like(src.image.pixels, rec))


def test_build_d2_fallback_counts_whole_image():
    raw = raw_phase()
    cache = cache_init(init_params(TINY, 21), 0.9)
    # a threshold no sigmoid output of an untrained net can clear
    d2, fallbacks, skipped = build_d2(
        raw, cache, TINY, margin=3, align=TINY.input_align, threshold_value=0.999999
    )
    assert fallbacks == len(raw.items)
    for src, out in zip(raw.items, d2.items):
        assert out.image.shape == src.image.shape  # 24 is already aligned


def test_build_d2_skips_empty_masks():
    raw = with_empty_mask(raw_phase())
    cache = cache_init(init_params(TINY, 21), 0.9)
    d2, _, skipped = build_d2(raw, cache, TINY, margin=3, align=2)
    assert skipped == 1
    assert len(d2.items) == len(raw.items) - 1


# ----------------------------------------------------------- stage runs


def test_phase1_zero_epochs_returns_fresh_init():
    raw = raw_phase()
    cfg = zero_epochs()
    rs = run_full(raw, None, cfg, TINY)
    np.testing.assert_array_equal(rs.theta_1.values, init_params(TINY, derive_seed(cfg.seed, 1)).values)
    assert rs.detection_cache.updates == 0
    assert rs.history == ()


def test_phase_inheritance_passthrough():
    raw = raw_phase()
    cfg = zero_epochs()
    d1, theta1, cache = trained_phase1(raw, cfg)
    d2, _, _ = build_d2(raw, cache, TINY, cfg.crop_margin, TINY.input_align)
    theta2, cache, _ = run_phase("phase2", d2.items, theta1, cache, cfg, TINY)
    theta3, cache, _ = run_phase("phase3", raw.items, theta2, cache, cfg, TINY)
    assert theta2 is theta1 and theta3 is theta2


def test_phase2_requires_items():
    cfg = tiny_cfg()
    with pytest.raises(EmptyDataset):
        run_phase("phase2", (), *start(cfg), cfg, TINY)


def test_unknown_stage_rejected():
    cfg = tiny_cfg()
    with pytest.raises(ValueOutOfRange):
        run_phase("phase4", raw_phase().items, *start(cfg), cfg, TINY)


def test_stage_counts_and_history_labels():
    raw = raw_phase()
    val = raw_phase(count=3, seed=9)
    cfg = tiny_cfg(
        phase1=OptimizerConfig(epochs=2, batch_size=2, seed=11),
        segmentation=OptimizerConfig(epochs=3, batch_size=2, seed=14),
    )
    rs = run_full(raw, val, cfg, TINY)
    labels = [r.phase for r in rs.history]
    assert labels == ["I"] * 2 + ["II"] + ["III"] + ["seg"] * 3
    assert [r.epoch for r in rs.history] == [0, 1, 0, 0, 0, 1, 2]
    for r in rs.history:
        assert r.val_dsc is not None and 0.0 <= r.val_dsc <= 1.0
        assert np.isfinite(r.loss.l_total)


def test_val_dsc_none_without_validation_set():
    raw = raw_phase()
    rs = run_full(raw, None, tiny_cfg(), TINY)
    assert all(r.val_dsc is None for r in rs.history)


def test_detection_cache_counts_every_step():
    raw = raw_phase(count=6)
    val = None
    cfg = tiny_cfg(
        phase1=OptimizerConfig(epochs=2, batch_size=4, seed=11),
        phase2=OptimizerConfig(epochs=1, batch_size=2, seed=12),
        phase3=OptimizerConfig(epochs=1, batch_size=6, seed=13),
        segmentation=OptimizerConfig(epochs=2, batch_size=3, seed=14),
    )
    rs = run_full(raw, val, cfg, TINY)
    # 6 items: phase I 2 epochs of ceil(6/4)=2, II 1x3, III 1x1; seg pools 12 items
    assert rs.detection_cache.updates == 2 * 2 + 3 + 1
    assert rs.segmentation_cache.updates == 2 * 4


def test_segmentation_leaves_detection_cache_alone():
    raw = raw_phase()
    cfg = tiny_cfg()
    d1, _, cache = trained_phase1(raw, cfg)
    d2, _, _ = build_d2(raw, cache, TINY, cfg.crop_margin, TINY.input_align)
    items = d1.items + d2.items
    before = (cache.params.values.copy(), cache.updates)
    _, seg_cache, _ = run_phase("segmentation", items, cache.params, cache, cfg, TINY)
    np.testing.assert_array_equal(cache.params.values, before[0])
    assert cache.updates == before[1] and seg_cache.updates > 0
    # the segmentation cache starts as a fresh copy of the starting weights
    theta = init_params(TINY, 4)
    _, fresh, _ = run_phase("segmentation", items, theta, cache, zero_epochs(), TINY)
    np.testing.assert_array_equal(fresh.params.values, theta.values)
    assert fresh.updates == 0


def test_inheritance_chain_weights_flow():
    raw = raw_phase()
    cfg = tiny_cfg()
    rs = run_full(raw, None, cfg, TINY)
    np.testing.assert_array_equal(
        rs.inits["phase1"].values, init_params(TINY, derive_seed(cfg.seed, 1)).values
    )
    np.testing.assert_array_equal(rs.inits["phase2"].values, rs.theta_1.values)
    np.testing.assert_array_equal(rs.inits["phase3"].values, rs.theta_2.values)
    np.testing.assert_array_equal(rs.inits["segmentation"].values, rs.detection_cache.params.values)
    assert not np.array_equal(rs.theta_1.values, rs.theta_2.values)


def test_skipped_phases_pass_weights_through():
    raw = raw_phase()
    rs = run_full(raw, None, tiny_cfg(), TINY, phases=["1"])
    assert rs.theta_2 is rs.theta_1 and rs.theta_3 is rs.theta_2
    assert {r.phase for r in rs.history} == {"I", "seg"}

    rs3 = run_full(raw, None, tiny_cfg(), TINY, phases=["3"])
    np.testing.assert_array_equal(rs3.inits["phase3"].values, rs3.inits["phase1"].values)
    assert {r.phase for r in rs3.history} == {"III", "seg"}


def test_unknown_phase_rejected():
    raw = raw_phase()
    with pytest.raises(ValueOutOfRange):
        run_full(raw, None, tiny_cfg(), TINY, phases=["4"])


def test_unaligned_input_fails_before_anything_is_written(tmp_path):
    spec = BackboneSpec()  # input_align 4
    good, bad = raw_phase(size=24), raw_phase(size=66)
    for train, val in ((bad, good), (good, bad)):
        out = tmp_path / "run"
        with pytest.raises(AlignmentError):
            run_full(train, val, tiny_cfg(), spec, out_dir=out)
        assert not out.exists()


def test_run_full_deterministic():
    raw = raw_phase()
    val = raw_phase(count=3, seed=9)
    a = run_full(raw, val, tiny_cfg(), TINY)
    b = run_full(raw, val, tiny_cfg(), TINY)
    np.testing.assert_array_equal(a.theta_seg.values, b.theta_seg.values)
    np.testing.assert_array_equal(a.detection_cache.params.values, b.detection_cache.params.values)
    assert a.history == b.history


def test_seed_changes_results():
    raw = raw_phase()
    a = run_full(raw, None, tiny_cfg(seed=5), TINY)
    b = run_full(raw, None, tiny_cfg(seed=6), TINY)
    assert not np.array_equal(a.theta_seg.values, b.theta_seg.values)


def test_nonfinite_loss_names_stage_and_epoch():
    raw = raw_phase()
    cfg = tiny_cfg()
    _, theta1, cache = trained_phase1(raw, cfg)
    d2, _, _ = build_d2(raw, cache, TINY, cfg.crop_margin, TINY.input_align)
    blown = ParamVector(theta1.values * 1e160, theta1.layout_id)
    with np.errstate(all="ignore"):
        with pytest.raises(NonFiniteLoss) as exc:
            run_phase("phase2", d2.items, blown, cache, cfg, TINY)
    assert "stage II" in str(exc.value)


def test_detection_dsc_bounds_and_empty():
    raw = raw_phase(count=3)
    cache = cache_init(init_params(TINY, 8), 0.99)
    v = detection_dsc(TINY, cache, raw.items)
    assert 0.0 <= v <= 1.0
    with pytest.raises(EmptyDataset):
        detection_dsc(TINY, cache, [])


# ----------------------------------------------------- persistence/resume


def expected_run_files(run_dir):
    names = [
        "phase1.ckpt",
        "phase2.ckpt",
        "phase3.ckpt",
        "segmentation.ckpt",
        "detection_cache.ckpt",
        "segmentation_cache.ckpt",
        "status.json",
        "history.json",
    ]
    return [run_dir / n for n in names]


def test_run_full_persists_stage_artifacts(tmp_path):
    raw = raw_phase()
    out = tmp_path / "run"
    rs = run_full(raw, None, tiny_cfg(), TINY, out_dir=out)
    for f in expected_run_files(out):
        assert f.exists(), f
    assert (out / "d2" / "manifest.json").exists()
    assert json.loads((out / "status.json").read_text())["completed"] == [
        "phase1",
        "phase2",
        "phase3",
        "segmentation",
    ]
    theta3, meta = load_checkpoint(out / "phase3.ckpt")
    np.testing.assert_array_equal(theta3.values, rs.theta_3.values.astype(np.float32))
    assert meta["stage"] == "phase3"

    det = load_cache(out / "detection_cache.ckpt")
    assert det.updates == rs.detection_cache.updates
    assert det.alpha == rs.detection_cache.alpha
    _, meta = load_checkpoint(out / "detection_cache.ckpt")
    assert meta == {"stage": "phase3", "alpha": det.alpha, "updates": det.updates}

    hist = history_from_json(json.loads((out / "history.json").read_text()))
    assert [r.phase for r in hist] == [r.phase for r in rs.history]


def test_resume_completed_run_reloads_everything(tmp_path):
    raw = raw_phase()
    out = tmp_path / "run"
    first = run_full(raw, None, tiny_cfg(), TINY, out_dir=out)
    second = run_full(raw, None, tiny_cfg(), TINY, out_dir=out, resume=True)
    # resumed stages come back at checkpoint (binary32) precision
    np.testing.assert_array_equal(
        second.theta_seg.values, first.theta_seg.values.astype(np.float32).astype(np.float64)
    )
    assert [r.phase for r in second.history] == [r.phase for r in first.history]
    assert second.stats["d2_fallbacks"] == first.stats["d2_fallbacks"]


def test_resume_reruns_unfinished_suffix(tmp_path):
    raw = raw_phase()
    out = tmp_path / "run"
    run_full(raw, None, tiny_cfg(), TINY, out_dir=out)
    status = out / "status.json"
    status.write_text(json.dumps({"completed": ["phase1"]}, indent=2) + "\n")
    rs = run_full(raw, None, tiny_cfg(), TINY, out_dir=out, resume=True)
    assert [r.phase for r in rs.history] == ["I", "II", "III", "seg"]
    assert json.loads(status.read_text())["completed"][-1] == "segmentation"


def test_resume_after_phase2_continues_from_checkpoints(tmp_path):
    raw = raw_phase()
    cfg = tiny_cfg()
    out = tmp_path / "run"
    # a run stopped after phase II: its files are those of a run without
    # phase III, whose detection cache ends at phase II
    run_full(raw, None, cfg, TINY, out_dir=out, phases=["1", "2"])
    (out / "status.json").write_text(json.dumps({"completed": ["phase1", "phase2"]}) + "\n")
    theta2, _ = load_checkpoint(out / "phase2.ckpt")
    det = load_cache(out / "detection_cache.ckpt")
    d1, _ = build_d1(raw, cfg.crop_margin, TINY.input_align)
    d2, _ = load_phase(out / "d2")
    prior = history_from_json(json.loads((out / "history.json").read_text()))

    rs = run_full(raw, None, cfg, TINY, out_dir=out, resume=True)

    # phases I and II come back from disk; III and seg continue from there
    theta3, det, recs3 = run_phase("phase3", raw.items, theta2, det, cfg, TINY)
    theta_seg, seg, recs_seg = run_phase("segmentation", d1.items + d2.items, det.params, det, cfg, TINY)
    np.testing.assert_array_equal(rs.theta_3.values, theta3.values)
    np.testing.assert_array_equal(rs.detection_cache.params.values, det.params.values)
    np.testing.assert_array_equal(rs.theta_seg.values, theta_seg.values)
    np.testing.assert_array_equal(rs.segmentation_cache.params.values, seg.params.values)
    assert rs.detection_cache.updates == det.updates
    assert rs.history == tuple(r for r in prior if r.phase in ("I", "II")) + tuple(recs3 + recs_seg)
    assert json.loads((out / "status.json").read_text())["completed"] == [
        "phase1",
        "phase2",
        "phase3",
        "segmentation",
    ]


def test_fresh_run_ignores_stale_status(tmp_path):
    raw = raw_phase()
    out = tmp_path / "run"
    run_full(raw, None, tiny_cfg(), TINY, out_dir=out)
    rs = run_full(raw, None, tiny_cfg(), TINY, out_dir=out, resume=False)
    assert [r.phase for r in rs.history] == ["I", "II", "III", "seg"]


def test_load_cache_requires_cache_sidecar(tmp_path):
    theta = init_params(TINY, 3)
    save_checkpoint(tmp_path / "w.ckpt", theta, {"stage": "x"})  # no alpha/updates
    with pytest.raises(CorruptManifest):
        load_cache(tmp_path / "w.ckpt")


def test_load_cache_accepts_only_momentum_mode(tmp_path):
    theta = init_params(TINY, 3)
    meta = {"stage": "phase3", "alpha": 0.9, "updates": 7}
    save_checkpoint(tmp_path / "old.ckpt", theta, {**meta, "mode": "momentum"})
    cache = load_cache(tmp_path / "old.ckpt")
    assert (cache.alpha, cache.updates) == (0.9, 7)
    save_checkpoint(tmp_path / "copy.ckpt", theta, {**meta, "mode": "copy"})
    with pytest.raises(CorruptManifest):
        load_cache(tmp_path / "copy.ckpt")


# ------------------------------------------------------------- history IO


def test_history_json_round_trip():
    raw = raw_phase()
    rs = run_full(raw, None, tiny_cfg(), TINY)
    doc = history_to_json(rs.history)
    back = history_from_json(json.loads(json.dumps(doc)))
    assert tuple(back) == rs.history


@pytest.mark.parametrize(
    "doc",
    [
        {"version": 1},
        {"version": 2, "entries": []},
        {"version": 1, "entries": [{"phase": "I"}]},
        [],
    ],
)
def test_history_rejects_malformed(doc):
    with pytest.raises(CorruptManifest):
        history_from_json(doc)


def test_phase_config_validation():
    with pytest.raises(ValueOutOfRange):
        PhaseConfig(crop_margin=-1)


def test_phase_config_derives_unset_stage_seeds():
    cfg = PhaseConfig(seed=7, phase2=OptimizerConfig(seed=42))
    assert cfg.phase1.seed == derive_seed(7, 101)
    assert cfg.phase2.seed == 42
    assert cfg.phase3.seed == derive_seed(7, 103)
    assert cfg.segmentation.seed == derive_seed(7, 104)
