"""Tests of the benchmark itself.

    python3 -m pytest -q bench/tests

Quick mode runs each workload to its end in a process of its own; every
correctness check is shown to pass on good output and to fail on a
planted wrong one.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
from checks import CheckFailed  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E = {m["name"] for m in SPEC["end_to_end"]}
LAYER = {m["name"] for m in SPEC["per_layer"]}
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(root: Path, *args: str, timeout: float = 170):
    return subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=timeout,
    )


def _result(done) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def _doc(workload: str, seed: int, trace: int) -> dict:
    return json.loads((BENCH / "out" / "results" / f"{workload}-seed{seed}-trace{trace}.json").read_text())


# ---------------------------------------------------------- quick runs


@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_run_is_correct_and_reports_every_metric(workload):
    res = _result(_run(ROOT, "--workload", workload, "--seed", "5", "--seconds", "1", "--trace", "0", "--quick"))
    assert res["correct"] is True
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert set(res["metrics"]) == E2E
    assert all(m["value"] > 0 for m in res["metrics"].values())
    # the only failures are the 66x66 images of predict_refine
    want_failed = 2 if workload == "predict_refine" else 0
    assert res["failed"] == want_failed and res["attempted"] > want_failed


def test_quick_traced_run_reports_every_layer_metric():
    res = _result(_run(ROOT, "--workload", "curriculum", "--seed", "5", "--seconds", "1", "--trace", "1", "--quick"))
    assert res["correct"] is True
    assert set(res["metrics"]) == LAYER
    m = {k: v["value"] for k, v in res["metrics"].items()}
    assert m["geometry.gaussian_smooth.calls_per_sample"] == 4
    assert m["backbone.loss_and_grad.samples"] > 0
    assert 0.5 < m["trace.train_step_coverage"] < 2.0
    doc = _doc("curriculum", 5, 1)
    env = doc["environment"]
    assert env["blas_threads"] == "1" and env["numpy"] and env["python"]


def test_same_seed_gives_identical_run_directory():
    digests = []
    for _ in range(2):
        _result(_run(ROOT, "--workload", "curriculum", "--seed", "6", "--seconds", "1", "--quick"))
        digests.append(_doc("curriculum", 6, 0)["digest"])
    assert digests[0] == digests[1]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run(tmp_path, "--workload", "curriculum", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout.strip() == ""


# ------------------------------------------------------ planted faults


def _masks(seed: int, n: int = 4, shape=(16, 16)):
    rng = np.random.default_rng(seed)
    return [(rng.random(shape) < 0.3).astype(np.uint8) for _ in range(n)]


def test_dice_check_catches_a_flipped_pixel():
    preds, refs = _masks(1), _masks(2)
    scores = [checks.dice(p, r) for p, r in zip(preds, refs)]
    checks.check_dice(preds, refs, float(np.mean(scores)), scores)
    bad = [p.copy() for p in preds]
    bad[0][3, 3] ^= 1
    with pytest.raises(CheckFailed):
        checks.check_dice(bad, refs, float(np.mean(scores)), scores)


def test_dice_of_two_empty_masks_is_one():
    z = np.zeros((4, 4), np.uint8)
    assert checks.dice(z, z) == 1.0


def test_own_pgm_reader_matches_the_program_and_rejects_truncation(tmp_path):
    from curriseg import write_pgm

    data = (np.arange(12 * 7) % 256).astype(np.uint8).reshape(12, 7)
    write_pgm(tmp_path / "a.pgm", data)
    assert np.array_equal(checks.read_pgm(tmp_path / "a.pgm"), data)
    raw = (tmp_path / "a.pgm").read_bytes()
    (tmp_path / "b.pgm").write_bytes(raw[:-1])
    with pytest.raises(CheckFailed):
        checks.read_pgm(tmp_path / "b.pgm")
    write_pgm(tmp_path / "m.pgm", np.full((3, 3), 7, np.uint8))
    with pytest.raises(CheckFailed):
        checks.read_mask_pgm(tmp_path / "m.pgm")


def _entry(l_iou=0.5, l_bce=12.25, l_s=0.75):
    return {"phase": "I", "epoch": 0, "l_iou": l_iou, "l_bce": l_bce, "l_s": l_s, "l_total": l_iou + l_bce + l_s}


def test_history_check_catches_a_wrong_total_and_a_nan():
    checks.check_history([_entry(), _entry(0.25)])
    skewed = _entry()
    skewed["l_total"] += 1e-3
    with pytest.raises(CheckFailed):
        checks.check_history([_entry(), skewed])
    with pytest.raises(CheckFailed):
        checks.check_history([_entry(l_bce=math.nan)])


def test_update_count_check_catches_a_skew():
    want = checks.optimizer_steps(10, 2, 8) + checks.optimizer_steps(12, 1, 8)
    assert want == 2 * 2 + 2
    checks.check_updates("detection_cache", want, want)
    with pytest.raises(CheckFailed):
        checks.check_updates("detection_cache", want + 1, want)


def test_d1_check_catches_a_lost_pixel_wrong_sides_and_a_sparse_d1():
    raw = np.zeros((16, 16), np.uint8)
    raw[6:9, 6:9] = 1
    # box rows/cols 6..8, margin 2 -> 4..10 (7 sides), padded to 8
    assert checks.d1_crop_shape(raw, 2) == (8, 8)
    crop = raw[4:12, 4:12].copy()
    checks.check_d1([(raw, crop)], [raw], 2)
    cut = crop.copy()
    cut[2, 2] = 0
    with pytest.raises(CheckFailed):
        checks.check_d1([(raw, cut)], [raw], 2)
    with pytest.raises(CheckFailed):
        checks.check_d1([(raw, raw[3:12, 4:12])], [raw], 2)
    dense = np.ones((16, 16), np.uint8)
    with pytest.raises(CheckFailed):
        checks.check_d1([(raw, crop)], [dense], 2)


def test_d2_check_catches_a_box_outside_and_unaligned_sides():
    good = {"source_shape": [64, 64], "box": [10, 12, 30, 40], "pad": [0, 3, 0, 3]}
    checks.check_d2_records([(good, (24, 32))])
    outside = dict(good, box=[10, 12, 64, 40])
    with pytest.raises(CheckFailed):
        checks.check_d2_records([(outside, (58, 32))])
    unaligned = dict(good, pad=[0, 2, 0, 3])
    with pytest.raises(CheckFailed):
        checks.check_d2_records([(unaligned, (23, 32))])
    with pytest.raises(CheckFailed):
        checks.check_d2_records([(good, (24, 28))])


def test_d2_summary_counts_full_frames():
    full = {"source_shape": [64, 64], "box": [0, 0, 63, 63], "pad": [0, 0, 0, 0]}
    part = {"source_shape": [64, 64], "box": [10, 12, 30, 40], "pad": [0, 3, 0, 3]}
    kpx, n_full = checks.d2_summary([(full, (64, 64)), (part, (24, 32))])
    assert n_full == 1 and kpx == pytest.approx((4.096 + 0.768) / 2)


def test_prediction_check_catches_flips_spills_and_extra_passes():
    pasted = np.zeros((16, 16))
    pasted[4:10, 4:10] = 0.3
    pasted[5:8, 5:8] = 0.9
    mask = (pasted > 0.5).astype(np.uint8)
    window = checks.crop_window((5, 7, 5, 7), 2, (16, 16))
    assert window == (3, 9, 3, 9)
    checks.check_prediction(mask, pasted, window, 0.5, 2, 5)
    flipped = mask.copy()
    flipped[6, 6] = 0
    with pytest.raises(CheckFailed):
        checks.check_prediction(flipped, pasted, window, 0.5, 2, 5)
    spill = mask.copy()
    spill[15, 15] = 1
    with pytest.raises(CheckFailed):
        checks.check_prediction(spill, None, window, 0.5, 1, 1)
    with pytest.raises(CheckFailed):
        checks.check_prediction(mask, pasted, window, 0.5, 6, 5)


def test_crop_window_clips_and_whole_image_fallback():
    assert checks.crop_window((1, 2, 60, 62), 12, (64, 64)) == (0, 14, 48, 63)
    assert checks.crop_window(None, 12, (66, 66)) == (0, 65, 0, 65)


def test_floor_check():
    checks.check_floor("dsc", 0.8, 0.75)
    with pytest.raises(CheckFailed):
        checks.check_floor("dsc", 0.74, 0.75)
    with pytest.raises(CheckFailed):
        checks.check_floor("dsc", math.nan, 0.75)


def test_digest_catches_a_changed_checkpoint_byte(tmp_path):
    (tmp_path / "a.ckpt").write_bytes(b"CKSM\x01\x02")
    (tmp_path / "a.ckpt.json").write_text("{}")
    (tmp_path / "history.json").write_text("{}")
    first = checks.digest_run_dir(tmp_path)
    checks.check_same("run", first, checks.digest_run_dir(tmp_path))
    (tmp_path / "a.ckpt").write_bytes(b"CKSM\x01\x03")
    with pytest.raises(CheckFailed):
        checks.check_same("run", first, checks.digest_run_dir(tmp_path))
