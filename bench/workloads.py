"""The three benchmark workloads.

Each workload has a `setup()` (dataset generation and cache loading,
timed as `setup_s`), a `round()` (the timed part, repeated whole for the
length of a run) and a `check()` (correctness of one round's outputs,
untimed). Inputs come from the run seed alone; the program receives only
the generated inputs.

The benchmark drives only the public `curriseg` API and the CLI entry.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks

# Program functions are called as `cs.<name>` (looked up at call time), so
# that a traced run sees the wrappers tracer.py puts on the package.
import curriseg as cs
from curriseg import (
    AlignmentError,
    BackboneSpec,
    GenConfig,
    LossConfig,
    OptimizerConfig,
    PhaseConfig,
    PredictConfig,
    derive_seed,
)
from curriseg import cli

BENCH = Path(__file__).resolve().parent
CACHE_DIR = BENCH / "caches"

# Reference settings: PhaseConfig with the CLI DEFAULT_CONFIG values
# (margin 12, learning rates 3e-3 / 2e-3, batch 8). Only the epoch counts
# shrink, so that one run fits in a few seconds.
MARGIN = 12
BATCH = 8
LR = {"phase1": 3e-3, "phase2": 2e-3, "phase3": 2e-3, "segmentation": 2e-3}
DSC_FLOOR = 0.75
PREDICT_THRESHOLD = 0.5
# The training seed is the CLI default, as the per-stage seeds derived from
# it are; `--seed` drives the data. With the training seed following
# `--seed`, the phase-I cache flips from seed to seed between firing almost
# everywhere (all D2 crops are full frames) and firing on a few stray pixels
# (tiny D2 crops), and `run_s` moves by a quarter with it.
TRAIN_SEED = 0


@dataclass(frozen=True)
class Size:
    train: int
    val: int
    empty: int  # empty-mask items in the training set
    epochs: tuple[int, int, int, int]  # phase1, phase2, phase3, segmentation
    images: int = 0  # predict_refine: aligned 64x64 images
    empty_images: int = 0  # predict_refine: of those, with empty masks
    unaligned: int = 0  # predict_refine: 66x66 images


SIZES = {
    "curriculum": {
        "full": Size(train=24, val=20, empty=4, epochs=(2, 1, 1, 1)),
        "quick": Size(train=5, val=3, empty=1, epochs=(1, 1, 1, 1)),
    },
    "predict_refine": {
        "full": Size(train=0, val=0, empty=0, epochs=(0, 0, 0, 0), images=180, empty_images=18, unaligned=12),
        "quick": Size(train=0, val=0, empty=0, epochs=(0, 0, 0, 0), images=10, empty_images=1, unaligned=2),
    },
    "raw_large_cli": {
        "full": Size(train=8, val=16, empty=0, epochs=(1, 1, 1, 1)),
        "quick": Size(train=3, val=2, empty=0, epochs=(1, 1, 1, 1)),
    },
}


def _phase_config(size: Size) -> PhaseConfig:
    opts = {
        stage: OptimizerConfig(
            learning_rate=LR[stage], batch_size=BATCH, epochs=e, seed=derive_seed(TRAIN_SEED, 100 + i)
        )
        for i, (stage, e) in enumerate(zip(LR, size.epochs), start=1)
    }
    return PhaseConfig(crop_margin=MARGIN, seed=TRAIN_SEED, **opts)


def _stage_steps(n_d1: int, n_d2: int, n_d3: int, size: Size, phases=("1", "2", "3")) -> tuple[int, int]:
    """Detection and segmentation cache updates the schedule implies."""
    e1, e2, e3, es = size.epochs
    det = 0
    if "1" in phases:
        det += checks.optimizer_steps(n_d1, e1, BATCH)
    if "2" in phases:
        det += checks.optimizer_steps(n_d2, e2, BATCH)
    if "3" in phases:
        det += checks.optimizer_steps(n_d3, e3, BATCH)
    return det, checks.optimizer_steps(n_d1 + n_d2, es, BATCH)


def _d2_records(run_dir: Path) -> list:
    """(crop record, stored image shape) for every D2 item in a run dir."""
    d2 = run_dir / "d2"
    manifest = json.loads((d2 / "manifest.json").read_text())
    return [(e["crop"], checks.read_pgm(d2 / e["image"]).shape) for e in manifest["items"]]


def _window_of(box, shape) -> tuple[int, int, int, int]:
    if box is None:
        return checks.crop_window(None, MARGIN, shape)
    return checks.crop_window((box.row_min, box.row_max, box.col_min, box.col_max), MARGIN, shape)


@dataclass
class RoundResult:
    wall_s: float
    attempted: int
    failed: int
    n_predicted: int
    predict_s: float
    latencies_ms: list
    train_s: float = 0.0
    outputs: object = None


class Workload:
    name = ""

    def __init__(self, seed: int, size: Size, out_dir: Path):
        self.seed = seed
        self.size = size
        self.out_dir = out_dir
        self.first_digest: str | None = None
        self.train_kpx = 0.0
        self.dsc = float("nan")
        self.d2 = (0.0, 0)

    def _digest(self, digest: str) -> None:
        if self.first_digest is None:
            self.first_digest = digest
        checks.check_same(self.name, self.first_digest, digest)


class Curriculum(Workload):
    """run_full over I -> II -> III -> seg, then refined predict and eval."""

    name = "curriculum"

    def setup(self) -> None:
        s = self.size
        self.train = cs.generate(
            GenConfig(count=s.train, empty_slice_fraction=s.empty / s.train, seed=derive_seed(self.seed, 1))
        )
        self.val = cs.generate(GenConfig(count=s.val, seed=derive_seed(self.seed, 2)))
        self.spec = BackboneSpec(depth=2, base_channels=8)
        self.cfg = _phase_config(s)
        self.pcfg = PredictConfig(margin=MARGIN, d_t=0.9, max_iters=5)
        self.run_dir = self.out_dir / "run"

    def round(self) -> RoundResult:
        shutil.rmtree(self.run_dir, ignore_errors=True)
        t0 = time.perf_counter()
        state = cs.run_full(self.train, self.val, self.cfg, self.spec, LossConfig(), out_dir=self.run_dir)
        t1 = time.perf_counter()
        preds, lat = [], []
        for it in self.val.items:
            a = time.perf_counter()
            preds.append(cs.predict(it.image, state.detection_cache, state.segmentation_cache, self.spec, self.pcfg))
            lat.append((time.perf_counter() - a) * 1e3)
        t2 = time.perf_counter()
        report = cs.evaluate_set([p[0] for p in preds], [it.mask for it in self.val.items])
        t3 = time.perf_counter()
        n = len(preds)
        return RoundResult(t3 - t0, 2 + n, 0, n, t2 - t1, lat, t1 - t0, (state, preds, report))

    def check(self, r: RoundResult) -> None:
        state, preds, report = r.outputs
        checks.check_dice(
            [p[0].labels for p in preds], [it.mask.labels for it in self.val.items], report.mean, list(report.scores)
        )
        checks.check_history(json.loads((self.run_dir / "history.json").read_text())["entries"])

        raw = {it.item_id: it.mask.labels for it in self.train.items}
        d1, _ = cs.build_d1(self.train, MARGIN, checks.ALIGN)
        checks.check_d1([(raw[it.item_id], it.mask.labels) for it in d1.items], list(raw.values()), MARGIN)
        records = _d2_records(self.run_dir)
        checks.check_d2_records(records)

        n_fg = sum(1 for m in raw.values() if m.any())
        det, seg = _stage_steps(n_fg, n_fg, len(raw), self.size)
        checks.check_updates("detection_cache", state.detection_cache.updates, det)
        checks.check_updates("segmentation_cache", state.segmentation_cache.updates, seg)

        for it, (mask, pasted, trace) in zip(self.val.items, preds):
            window = _window_of(trace.iterations[-1].box, it.image.shape)
            checks.check_prediction(
                mask.labels, pasted.probs, window, PREDICT_THRESHOLD, trace.n_iters, self.pcfg.max_iters
            )
        self._digest(checks.digest_run_dir(self.run_dir))

        e1, e2, e3, es = self.size.epochs
        d1_px = sum(it.image.pixels.size for it in d1.items)
        d2_px = sum(s[0] * s[1] for _, s in records)
        d3_px = sum(it.image.pixels.size for it in self.train.items)
        self.train_kpx = (e1 * d1_px + e2 * d2_px + e3 * d3_px + es * (d1_px + d2_px)) / 1000.0
        self.dsc = report.mean
        self.d2 = checks.d2_summary(records)


class PredictRefine(Workload):
    """Refined prediction with frozen caches over a few hundred images."""

    name = "predict_refine"

    def setup(self) -> None:
        s = self.size
        aligned = cs.generate(
            GenConfig(count=s.images, empty_slice_fraction=s.empty_images / s.images, seed=derive_seed(self.seed, 11))
        )
        odd = cs.generate(GenConfig(count=s.unaligned, height=66, width=66, seed=derive_seed(self.seed, 12)))
        # spread the 66x66 images evenly through the stream
        self.items = list(aligned.items)
        step = max(1, len(self.items) // max(1, s.unaligned))
        for k, it in enumerate(odd.items):
            self.items.insert(k * (step + 1), it)
        self.det = cs.load_cache(CACHE_DIR / "detection_cache.ckpt")
        self.seg = cs.load_cache(CACHE_DIR / "segmentation_cache.ckpt")
        self.spec = BackboneSpec(depth=2, base_channels=8)
        self.pcfg = PredictConfig(margin=MARGIN, d_t=0.9, max_iters=5)

    def round(self) -> RoundResult:
        t0 = time.perf_counter()
        outs, lat, failed = [], [], 0
        for it in self.items:
            a = time.perf_counter()
            try:
                out = cs.predict(it.image, self.det, self.seg, self.spec, self.pcfg)
            except AlignmentError:
                if it.image.height % checks.ALIGN == 0 and it.image.width % checks.ALIGN == 0:
                    raise
                failed += 1
                outs.append(None)
                continue
            lat.append((time.perf_counter() - a) * 1e3)
            outs.append(out)
        t1 = time.perf_counter()
        pairs = [(o[0], it.mask) for o, it in zip(outs, self.items) if o is not None and it.image.shape == (64, 64)]
        report = cs.evaluate_set([p for p, _ in pairs], [m for _, m in pairs])
        t2 = time.perf_counter()
        return RoundResult(t2 - t0, len(self.items) + 1, failed, len(lat), t1 - t0, lat, 0.0, (outs, pairs, report))

    def check(self, r: RoundResult) -> None:
        outs, pairs, report = r.outputs
        checks.check_dice([p.labels for p, _ in pairs], [m.labels for _, m in pairs], report.mean, list(report.scores))
        checks.check_floor("predict_refine dsc", report.mean, DSC_FLOOR)
        masks = []
        for it, out in zip(self.items, outs):
            if out is None:
                continue
            mask, pasted, trace = out
            window = _window_of(trace.iterations[-1].box, it.image.shape)
            checks.check_prediction(
                mask.labels, pasted.probs, window, PREDICT_THRESHOLD, trace.n_iters, self.pcfg.max_iters
            )
            masks.append(mask.labels)
        self._digest(checks.digest_arrays(masks))
        self.dsc = report.mean


class RawLargeCli(Workload):
    """README walkthrough through the CLI on 128x128 frames, phases I-II ablated."""

    name = "raw_large_cli"
    PHASES = ("3",)

    def _cli(self, *argv: str) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.entry([str(a) for a in argv])
        if code != 0:
            raise RuntimeError(f"curriseg {' '.join(map(str, argv))} exited with {code}")

    def setup(self) -> None:
        s = self.size
        data = self.out_dir / "data"
        shutil.rmtree(data, ignore_errors=True)
        self.train_dir, self.val_dir = data / "train", data / "val"
        for d, n, k in ((self.train_dir, s.train, 21), (self.val_dir, s.val, 22)):
            self._cli("gen", "--out", d, "--count", n, "--size", "128x128", "--seed", derive_seed(self.seed, k))
        e1, e2, e3, es = s.epochs
        stage = lambda name, e: {"learning_rate": LR[name], "batch_size": BATCH, "epochs": e}  # noqa: E731
        config = {
            "backbone": {"depth": 2, "base_channels": 8},
            "run": {
                "seed": TRAIN_SEED,
                "crop_margin": MARGIN,
                "phase1": stage("phase1", e1),
                "phase2": stage("phase2", e2),
                "phase3": stage("phase3", e3),
                "segmentation": stage("segmentation", es),
            },
            "predict": {"margin": MARGIN},
        }
        self.config = data / "config.json"
        self.config.write_text(json.dumps(config, indent=2) + "\n")
        self.run_dir = self.out_dir / "run"

    def round(self) -> RoundResult:
        run, preds = self.run_dir, self.run_dir / "preds"
        shutil.rmtree(run, ignore_errors=True)
        t0 = time.perf_counter()
        self._cli(
            "train", "--data", self.train_dir, "--val", self.val_dir, "--out", run,
            "--config", self.config, "--ablate-phases", "1,2",
        )
        t1 = time.perf_counter()
        self._cli("predict", "--run", run, "--input", self.val_dir, "--out", preds)
        t2 = time.perf_counter()
        self._cli("eval", "--pred", preds, "--truth", self.val_dir, "--report", run / "report.json")
        t3 = time.perf_counter()
        return RoundResult(t3 - t0, 3, 0, self.size.val, t2 - t1, [], t1 - t0, None)

    def check(self, r: RoundResult) -> None:
        run = self.run_dir
        truth = json.loads((self.val_dir / "manifest.json").read_text())["items"]
        ids = sorted(e["id"] for e in truth)
        refs = {e["id"]: checks.read_mask_pgm(self.val_dir / e["mask"]) for e in truth}
        preds = {i: checks.read_mask_pgm(run / "preds" / f"{i}.pgm") for i in ids}
        report = json.loads((run / "report.json").read_text())
        if [e["id"] for e in report["per_item"]] != ids:
            raise checks.CheckFailed("eval report ids differ from the validation set")
        checks.check_dice(
            [preds[i] for i in ids], [refs[i] for i in ids], report["mean"], [e["dsc"] for e in report["per_item"]]
        )
        checks.check_history(json.loads((run / "history.json").read_text())["entries"])

        records = _d2_records(run)
        checks.check_d2_records(records)
        train = json.loads((self.train_dir / "manifest.json").read_text())["items"]
        train_masks = [checks.read_mask_pgm(self.train_dir / e["mask"]) for e in train]
        n_fg = sum(1 for m in train_masks if m.any())
        det, seg = _stage_steps(n_fg, n_fg, len(train_masks), self.size, self.PHASES)
        for name, want in (("detection_cache", det), ("segmentation_cache", seg)):
            side = json.loads((run / f"{name}.ckpt.json").read_text())
            checks.check_updates(name, side["meta"]["updates"], want)

        for i in ids:
            trace = json.loads((run / "preds" / f"{i}.trace.json").read_text())
            box = trace["iterations"][-1]["box"]
            window = checks.crop_window(None if box is None else (box[0], box[2], box[1], box[3]), MARGIN, refs[i].shape)
            # CLI predict runs one pass unless refinement is asked for
            checks.check_prediction(preds[i], None, window, PREDICT_THRESHOLD, trace["n_iters"], 1)
        self._digest(checks.digest_run_dir(run))

        _, _, e3, es = self.size.epochs
        d1_px = sum(np.prod(checks.d1_crop_shape(m, MARGIN)) for m in train_masks if m.any())
        d2_px = sum(s[0] * s[1] for _, s in records)
        d3_px = sum(m.size for m in train_masks)
        self.train_kpx = float(e3 * d3_px + es * (d1_px + d2_px)) / 1000.0
        self.dsc = report["mean"]
        self.d2 = checks.d2_summary(records)


WORKLOADS = {w.name: w for w in (Curriculum, PredictRefine, RawLargeCli)}
