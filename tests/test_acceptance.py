"""End-to-end acceptance gates for the whole package.

Each test prints one `[PASS]/[FAIL]` line with the measured numbers
(visible under `pytest -s`). The curriculum-versus-ablation criteria
share one module-scoped fixture that trains three seeds of each, so this
file dominates the suite's runtime. The six trainings are independent and
run in parallel worker processes, one per CPU (at most three).
"""

import functools
import json
import multiprocessing
import os
import statistics
import struct
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from curriseg import (
    BackboneSpec,
    BBox,
    BadMagic,
    CountMismatch,
    GaussianKernel,
    GenConfig,
    Image,
    Mask,
    MissingFile,
    ParamVector,
    PhaseConfig,
    PredictConfig,
    ProbMap,
    Rng,
    bbox_from_mask,
    build_d1,
    build_d2,
    cache_init,
    cache_update,
    crop_like,
    detection_dsc,
    end_to_end_dsc,
    generate,
    init_params,
    load_checkpoint,
    load_phase,
    loss_and_grad,
    loss_bce,
    loss_grad,
    loss_iou,
    loss_smoothed,
    make_crop_record,
    paste_back,
    run_phase,
    save_checkpoint,
    save_phase,
    gaussian_smooth,
)
from curriseg.cli import entry
from curriseg.losses import LossConfig
from curriseg.rng import derive_seed

from conftest import rand_mask, rand_probs
from test_backbone import _fd_param_grad, _jittered, _max_rel_err, small_pair
from test_ema import closed_form, vec
from test_geometry import _smooth_oracle
from test_losses import _bce_oracle, _iou_oracle, _smoothed_oracle, fd_loss_grad, max_rel_err


def check(ok: bool, label: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}", flush=True)
    assert ok, label


# --------------------------------------------------------------------------
# criterion 1: losses match naive loops
# --------------------------------------------------------------------------


def test_criterion_1_losses_match_naive_oracles():
    cfg = LossConfig()
    r = Rng(1001)
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(50):
        h, w = 1 + r.below(8), 1 + r.below(8)
        p = rand_probs(2000 + i, h, w)
        t = rand_mask(3000 + i, h, w)
        pa, ta = p.probs, t.labels.astype(float)
        for got, want in (
            (loss_iou(p, t, cfg), _iou_oracle(pa, ta, cfg)),
            (loss_bce(p, t, cfg), _bce_oracle(pa, ta, cfg)),
            (loss_smoothed(p, t, cfg), _smoothed_oracle(pa, ta, cfg)),
        ):
            worst = max(worst, abs(got - want) / max(abs(want), 1e-300))
    elapsed = time.perf_counter() - t0
    check(
        worst < 1e-9 and elapsed < 5.0,
        f"criterion 1: 50 loss instances vs naive oracles, max rel err {worst:.2e} "
        f"(< 1e-9) in {elapsed:.2f}s (< 5s)",
    )


# --------------------------------------------------------------------------
# criterion 2: analytic gradients match finite differences
# --------------------------------------------------------------------------


def test_criterion_2_gradients_match_finite_differences():
    cfg = LossConfig(kernel=GaussianKernel(sigma=1.0, radius=2))
    worst_pixel = 0.0
    for i in range(20):
        p = rand_probs(4000 + i, 6, 6)
        t = rand_mask(5000 + i, 6, 6)
        g = loss_grad(p, t, cfg)
        fd = fd_loss_grad(p, t, cfg, h=1e-5)
        worst_pixel = max(worst_pixel, max_rel_err(g, fd))

    spec = BackboneSpec(depth=1, base_channels=2)
    worst_param = 0.0
    for s in (3, 4):
        img, msk = small_pair(10 * s)
        theta = _jittered(spec, 10 * s + 1, 10 * s + 2)
        _, g = loss_and_grad(spec, theta, [(img, msk)], cfg)
        fd = _fd_param_grad(spec, theta, [(img, msk)], cfg, h=1e-5)
        worst_param = max(worst_param, _max_rel_err(g, fd))

    check(
        worst_pixel < 1e-4 and worst_param < 1e-4,
        f"criterion 2: gradient vs central differences, pixel max rel err "
        f"{worst_pixel:.2e}, backbone param max rel err {worst_param:.2e} (< 1e-4)",
    )


# --------------------------------------------------------------------------
# criterion 3: EMA closed form
# --------------------------------------------------------------------------


def test_criterion_3_ema_closed_form():
    r = Rng(77)
    worst = 0.0
    for alpha in (0.0, 0.25, 0.5, 0.9, 0.99, 1.0, r.uniform(), r.uniform()):
        theta0 = r.normals(16)
        cache = cache_init(vec(theta0, "acc-p16"), alpha=alpha)
        snaps = []
        for _ in range(1 + r.below(50)):
            th = r.normals(16)
            snaps.append(th)
            cache = cache_update(cache, vec(th, "acc-p16"))
        want = closed_form(theta0, snaps, alpha)
        err = np.abs(cache.params.values - want).max() / max(1.0, np.abs(want).max())
        worst = max(worst, err)
        if alpha == 1.0:
            assert np.array_equal(cache.params.values, theta0)  # inert, bit-exact
        if alpha == 0.0:
            assert np.array_equal(cache.params.values, snaps[-1])  # copies, bit-exact

    ones = vec(np.ones(16), "acc-p16")
    cache = cache_init(ones, alpha=0.875)
    for _ in range(50):
        cache = cache_update(cache, ones)
    coeff_exact = np.array_equal(cache.params.values, np.ones(16))

    check(
        worst <= 1e-6 and coeff_exact,
        f"criterion 3: EMA vs closed form over <=50 updates, max rel err {worst:.2e} "
        f"(<= 1e-6); coefficients sum to 1 exactly; alpha in {{0,1}} bit-exact",
    )


# --------------------------------------------------------------------------
# criterion 4: geometry vs brute force
# --------------------------------------------------------------------------


def _bbox_brute(labels: np.ndarray):
    rows = [i for i in range(labels.shape[0]) if labels[i].any()]
    cols = [j for j in range(labels.shape[1]) if labels[:, j].any()]
    if not rows:
        return None
    return BBox(rows[0], rows[-1], cols[0], cols[-1])


def test_criterion_4_geometry_matches_brute_force():
    r = Rng(4242)
    kernel = GaussianKernel(sigma=1.0, radius=2)
    bbox_ok = crop_ok = paste_ok = True
    smooth_err = 0.0
    for i in range(100):
        h, w = 3 + r.below(10), 3 + r.below(10)
        m = rand_mask(6000 + i, h, w, density=0.25)
        box = bbox_from_mask(m)
        bbox_ok &= box == _bbox_brute(m.labels)
        if box is None:
            continue

        margin = r.below(4)
        rec = make_crop_record((h, w), box, margin, align=1)
        x = Rng(7000 + i).uniforms(h * w).reshape(h, w)
        got = crop_like(x, rec)
        b = rec.box
        want = x[b.row_min : b.row_max + 1, b.col_min : b.col_max + 1]
        crop_ok &= np.array_equal(got, want)

        probs = ProbMap(np.clip(got, 1e-6, 1 - 1e-6))
        back = paste_back(probs, rec)
        paste_ok &= np.array_equal(
            back.probs[b.row_min : b.row_max + 1, b.col_min : b.col_max + 1], probs.probs
        )

        smooth_err = max(
            smooth_err, np.abs(gaussian_smooth(x, kernel) - _smooth_oracle(x, kernel)).max()
        )
    check(
        bbox_ok and crop_ok and paste_ok and smooth_err < 1e-6,
        f"criterion 4: 100 random geometry cases — bbox/crop/paste exact, "
        f"smoothing max abs err {smooth_err:.2e} (< 1e-6)",
    )


# --------------------------------------------------------------------------
# criteria 5-8: the expensive trend runs
# --------------------------------------------------------------------------

SPEC = BackboneSpec()
SEEDS = (1, 2, 3)
RUN_BUDGET_S = 900.0


def _start(cfg: PhaseConfig):
    """Phase-I starting weights and detection cache, as run_full makes them."""
    theta0 = init_params(SPEC, derive_seed(cfg.seed, 1))
    return theta0, cache_init(theta0, cfg.alpha)


@functools.lru_cache(maxsize=1)
def _trend_data():
    return generate(GenConfig(count=200, seed=7)), generate(GenConfig(count=50, seed=8))


def _fg_ratio(phase) -> float:
    return float(np.mean([it.mask.labels.mean() for it in phase.items]))


def _curriculum_run(seed: int) -> dict:
    """The reference experiment at `seed`: phases I-III, then segmentation."""
    train, val = _trend_data()
    t0 = time.perf_counter()
    cfg = PhaseConfig(seed=seed)
    d1, _ = build_d1(train, cfg.crop_margin, SPEC.input_align)

    theta1, cache, _ = run_phase("phase1", d1.items, *_start(cfg), cfg, SPEC)
    dsc_1 = detection_dsc(SPEC, cache, val.items)
    d2, fallbacks, _ = build_d2(train, cache, SPEC, cfg.crop_margin, SPEC.input_align)
    theta2, cache, _ = run_phase("phase2", d2.items, theta1, cache, cfg, SPEC)
    dsc_2 = detection_dsc(SPEC, cache, val.items)
    theta3, cache, _ = run_phase("phase3", train.items, theta2, cache, cfg, SPEC)
    dsc_3 = detection_dsc(SPEC, cache, val.items)

    _, seg_cache, _ = run_phase("segmentation", d1.items + d2.items, cache.params, cache, cfg, SPEC)
    e2e = end_to_end_dsc(SPEC, cache, seg_cache, val.items, PredictConfig(margin=cfg.crop_margin))
    return {
        "seed": seed,
        "dsc": (dsc_1, dsc_2, dsc_3),
        "e2e": e2e,
        "r1": _fg_ratio(d1),
        "r2": _fg_ratio(d2),
        "fallbacks": fallbacks,
        "seconds": time.perf_counter() - t0,
    }


def _ablation_run(seed: int) -> float:
    """Phase III alone, for the epochs of all three detection phases."""
    train, val = _trend_data()
    cfg = PhaseConfig(seed=seed)
    budget = cfg.phase1.epochs + cfg.phase2.epochs + cfg.phase3.epochs
    abl = replace(cfg, phase3=replace(cfg.phase3, epochs=budget))
    _, abl_cache, _ = run_phase("phase3", train.items, *_start(abl), abl, SPEC)
    return detection_dsc(SPEC, abl_cache, val.items)


_MAX_WORKERS = 3
_ONE_BLAS_THREAD = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _map_runs(jobs: list[tuple]) -> list:
    """Results of `fn(arg)` for each `(fn, arg)` job, in job order.

    The runs are independent and deterministic, so they go to up to
    `_MAX_WORKERS` fresh processes with one BLAS thread each; the results
    are bit-identical to running them here one after another.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(_MAX_WORKERS, len(jobs), cpus or 1)
    if workers < 2:
        return [fn(arg) for fn, arg in jobs]
    saved = {k: os.environ.get(k) for k in _ONE_BLAS_THREAD}
    os.environ.update({k: "1" for k in _ONE_BLAS_THREAD})  # read by numpy at import
    try:
        ctx = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
            futures = [pool.submit(fn, arg) for fn, arg in jobs]
            return [f.result() for f in futures]
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v


@pytest.fixture(scope="module")
def trend_runs():
    train, _ = _trend_data()
    # curricula first: they are the longest jobs
    jobs = [(_curriculum_run, seed) for seed in SEEDS] + [(_ablation_run, seed) for seed in SEEDS]
    results = _map_runs(jobs)
    runs, ablations = results[: len(SEEDS)], results[len(SEEDS) :]
    for run in runs:
        dsc_1, dsc_2, dsc_3 = run["dsc"]
        print(
            f"  [trend seed {run['seed']}] detection I/II/III = {dsc_1:.3f}/{dsc_2:.3f}/{dsc_3:.3f}, "
            f"end-to-end {run['e2e']:.3f}, {run['seconds']:.0f}s",
            flush=True,
        )
    for seed, abl_dsc in zip(SEEDS, ablations):
        print(f"  [ablation seed {seed}] detection {abl_dsc:.3f}", flush=True)
    return {"r3": _fg_ratio(train), "r1": runs[-1]["r1"], "runs": runs, "ablations": ablations}


def test_criterion_5_difficulty_ordering(trend_runs):
    r1, r3 = trend_runs["r1"], trend_runs["r3"]
    r2s = [run["r2"] for run in trend_runs["runs"]]
    ordered = all(r1 >= r2 >= r3 for r2 in r2s)
    check(
        ordered and r1 >= 2 * r3,
        f"criterion 5: foreground ratios D1 {r1:.4f} >= D2 {min(r2s):.4f}..{max(r2s):.4f} "
        f">= D3 {r3:.4f}, and D1 >= 2*D3 ({r1 / r3:.1f}x)",
    )


def test_criterion_6_curriculum_trend(trend_runs):
    med = [
        statistics.median(run["dsc"][k] for run in trend_runs["runs"]) for k in range(3)
    ]
    check(
        med[0] < med[1] < med[2],
        f"criterion 6: median detection DSC strictly increases across phases "
        f"{med[0]:.3f} -> {med[1]:.3f} -> {med[2]:.3f}",
    )


def test_criterion_7_curriculum_beats_ablation(trend_runs):
    cur = statistics.median(run["dsc"][2] for run in trend_runs["runs"])
    abl = statistics.median(trend_runs["ablations"])
    slow = max(run["seconds"] for run in trend_runs["runs"])
    check(
        cur - abl >= 0.02 and slow <= RUN_BUDGET_S,
        f"criterion 7: curriculum {cur:.3f} vs equal-budget phase-III-only {abl:.3f} "
        f"(+{cur - abl:.3f} >= 0.02); slowest full run {slow:.0f}s (<= {RUN_BUDGET_S:.0f}s)",
    )


def test_criterion_8_end_to_end_floor(trend_runs):
    med = statistics.median(run["e2e"] for run in trend_runs["runs"])
    check(
        med >= 0.75,
        f"criterion 8: median end-to-end DSC {med:.3f} >= 0.75",
    )


# --------------------------------------------------------------------------
# criterion 9: training is bit-deterministic
# --------------------------------------------------------------------------


def test_criterion_9_training_determinism(tmp_path):
    assert entry(["gen", "--out", str(tmp_path / "d"), "--count", "10", "--size", "32x32", "--seed", "3"]) == 0
    assert entry(["gen", "--out", str(tmp_path / "v"), "--count", "4", "--size", "32x32", "--seed", "4"]) == 0
    cfg = {
        "run": {
            "seed": 11,
            "crop_margin": 6,
            "phase1": {"epochs": 1, "batch_size": 4},
            "phase2": {"epochs": 1, "batch_size": 4},
            "phase3": {"epochs": 1, "batch_size": 4},
            "segmentation": {"epochs": 1, "batch_size": 4},
        }
    }
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    args = [
        "train",
        "--data", str(tmp_path / "d"),
        "--val", str(tmp_path / "v"),
        "--config", str(tmp_path / "cfg.json"),
    ]
    assert entry(args + ["--out", str(tmp_path / "r1")]) == 0
    assert entry(args + ["--out", str(tmp_path / "r2")]) == 0

    names = [
        "phase1.ckpt",
        "phase2.ckpt",
        "phase3.ckpt",
        "segmentation.ckpt",
        "detection_cache.ckpt",
        "segmentation_cache.ckpt",
        "history.json",
    ]
    same = all(
        (tmp_path / "r1" / n).read_bytes() == (tmp_path / "r2" / n).read_bytes() for n in names
    )
    check(
        same,
        "criterion 9: two identical train invocations produce bit-identical "
        "checkpoints and history",
    )


# --------------------------------------------------------------------------
# criterion 10: persistence round trips and corruption errors
# --------------------------------------------------------------------------


def test_criterion_10_persistence(tmp_path):
    values = Rng(99).normals(10_000).astype(np.float32).astype(np.float64)
    theta = ParamVector(values, "acc-p10000")
    save_checkpoint(tmp_path / "w.ckpt", theta, {"k": 1})
    back, meta = load_checkpoint(tmp_path / "w.ckpt")
    ckpt_ok = np.array_equal(back.values, values) and meta == {"k": 1}

    phase = generate(GenConfig(count=4, height=24, width=24, seed=5))
    save_phase(tmp_path / "a", phase)
    back, _ = load_phase(tmp_path / "a")
    save_phase(tmp_path / "b", back)
    tree = lambda root: {
        p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()
    }
    data_ok = tree(tmp_path / "a") == tree(tmp_path / "b")

    blob = (tmp_path / "w.ckpt").read_bytes()
    (tmp_path / "bad_magic.ckpt").write_bytes(b"XXXX" + blob[4:])
    (tmp_path / "short.ckpt").write_bytes(blob[:-3])
    (tmp_path / "short.ckpt.json").write_text((tmp_path / "w.ckpt.json").read_text())
    errors_ok = True
    for path, exc in (
        ("bad_magic.ckpt", BadMagic),
        ("short.ckpt", CountMismatch),
        ("absent.ckpt", MissingFile),
    ):
        try:
            load_checkpoint(tmp_path / path)
            errors_ok = False
        except exc:
            pass

    check(
        ckpt_ok and data_ok and errors_ok,
        "criterion 10: checkpoint and dataset round trips bit-exact; "
        "BadMagic/CountMismatch/MissingFile raised on corruption",
    )
