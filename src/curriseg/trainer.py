"""Curriculum orchestration: three detection phases of increasing
difficulty, then a segmentation stage on the pooled cropped data.

Dataset difficulty is controlled by how much background each item keeps:

  D1  ground-truth crops   (foreground-dense, easiest)
  D2  crops chosen by the detection cache's own predictions
  D3  raw full images      (foreground-sparse, hardest)

Weights are inherited along the chain: phase II starts from phase I's
final weights, phase III from phase II's. One detection cache is created
at phase-I start and folded forward through every optimizer step of all
three phases; the segmentation stage warm-starts from that cache and
maintains its own cache, leaving the detection cache untouched.

Every stage trains through `run_phase`; `run_full` chains the four
stages and persists each one. Each stage is deterministic in (data,
config): item order per epoch is drawn from a stream derived from the
stage's optimizer seed and the stage ordinal.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

from .backbone import BackboneSpec, OptimizerConfig, init_params, train_step
from .ema import DEFAULT_ALPHA, CacheModel, cache_forward, cache_init, cache_update
from .errors import AlignmentError, CorruptManifest, EmptyDataset, NonFiniteLoss, ValueOutOfRange
from .evaluation import dsc
from .geometry import bbox_from_mask, crop_like, make_crop_record, threshold
from .losses import LossConfig
from .predictor import PredictConfig, predict
from .rng import Rng, derive_seed
from .storage import load_checkpoint, load_phase, save_checkpoint, save_phase
from .types import (
    BBox,
    DatasetItem,
    DatasetPhase,
    Image,
    LossBreakdown,
    Mask,
    ParamVector,
    mean_breakdown,
)

DETECTION_PHASES = ("1", "2", "3")

# Stage name (its PhaseConfig field and its checkpoint and log file stem)
# -> (history label, seed ordinal).
STAGES = {
    "phase1": ("I", 1),
    "phase2": ("II", 2),
    "phase3": ("III", 3),
    "segmentation": ("seg", 4),
}


@dataclass(frozen=True)
class PhaseConfig:
    """Schedules and knobs for the whole curriculum run.

    The defaults are the reference experiment. A stage whose optimizer
    seed is None gets `derive_seed(seed, 100 + ordinal)`, so the run seed
    moves every stage.
    """

    phase1: OptimizerConfig = OptimizerConfig(learning_rate=3e-3, epochs=4)
    phase2: OptimizerConfig = OptimizerConfig(learning_rate=2e-3, epochs=3)
    phase3: OptimizerConfig = OptimizerConfig(learning_rate=2e-3, epochs=17)
    segmentation: OptimizerConfig = OptimizerConfig(learning_rate=2e-3, epochs=10)
    alpha: float = DEFAULT_ALPHA
    crop_margin: int = 12
    seed: int = 0

    def __post_init__(self):
        if self.crop_margin < 0:
            raise ValueOutOfRange(f"crop_margin must be >= 0, got {self.crop_margin}")
        # alpha gets its real validation from CacheModel
        for name, (_, ordinal) in STAGES.items():
            opt = getattr(self, name)
            if opt.seed is None:
                object.__setattr__(self, name, replace(opt, seed=derive_seed(self.seed, 100 + ordinal)))


@dataclass(frozen=True)
class EpochRecord:
    phase: str  # "I", "II", "III", or "seg"
    epoch: int
    loss: LossBreakdown
    val_dsc: float | None

    def as_dict(self) -> dict:
        lb = self.loss
        return {
            "phase": self.phase,
            "epoch": self.epoch,
            "l_iou": lb.l_iou,
            "l_bce": lb.l_bce,
            "l_s": lb.l_s,
            "l_total": lb.l_total,
            "val_dsc": self.val_dsc,
        }


def _record_from_dict(d: dict) -> EpochRecord:
    try:
        lb = LossBreakdown(d["l_iou"], d["l_bce"], d["l_s"], d["l_total"])
        return EpochRecord(d["phase"], int(d["epoch"]), lb, d.get("val_dsc"))
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptManifest(f"bad history entry {d!r}: {exc}") from None


def history_to_json(history) -> dict:
    return {"version": 1, "entries": [r.as_dict() for r in history]}


def history_from_json(doc: dict) -> list[EpochRecord]:
    if not isinstance(doc, dict) or not isinstance(doc.get("entries"), list):
        raise CorruptManifest("history document must hold an 'entries' list")
    if doc.get("version") != 1:
        raise CorruptManifest(f"unsupported history version {doc.get('version')!r}")
    return [_record_from_dict(e) for e in doc["entries"]]


@dataclass(frozen=True, eq=False)
class RunState:
    """Everything a finished run produced."""

    spec: BackboneSpec
    theta_1: ParamVector
    theta_2: ParamVector
    theta_3: ParamVector
    detection_cache: CacheModel
    theta_seg: ParamVector
    segmentation_cache: CacheModel
    history: tuple[EpochRecord, ...]
    inits: dict[str, ParamVector] = field(default_factory=dict)
    stats: dict[str, int] = field(default_factory=dict)


# ------------------------------------------------------- dataset building


def build_d1(raw: DatasetPhase, margin: int, align: int) -> tuple[DatasetPhase, int]:
    """Crop every item around its ground-truth mask.

    Items with empty masks have no box to crop and are skipped; the count
    of skipped items is returned alongside the phase.
    """
    items = []
    skipped = 0
    for it in raw.items:
        box = bbox_from_mask(it.mask)
        if box is None:
            skipped += 1
            continue
        rec = make_crop_record(it.image.shape, box, margin, align)
        items.append(
            DatasetItem(
                Image(crop_like(it.image.pixels, rec)),
                Mask(crop_like(it.mask.labels, rec)),
                rec,
                it.item_id,
            )
        )
    if not items:
        raise EmptyDataset("every mask in the raw dataset is empty; cannot build ground-truth crops")
    return DatasetPhase("D1", tuple(items)), skipped


def build_d2(
    raw: DatasetPhase,
    detection_cache: CacheModel,
    spec: BackboneSpec,
    margin: int,
    align: int,
    threshold_value: float = 0.5,
) -> tuple[DatasetPhase, int, int]:
    """Crop every item around the detection cache's own prediction.

    Items whose thresholded prediction is empty fall back to the whole
    image (counted, never fatal); items with empty ground-truth masks are
    skipped as in build_d1. Returns (phase, fallback count, skip count).
    The result is a frozen snapshot — it is not regenerated during training.
    """
    items = []
    fallbacks = 0
    skipped = 0
    for it in raw.items:
        if it.mask.is_empty():
            skipped += 1
            continue
        p = cache_forward(spec, detection_cache, it.image)
        box = bbox_from_mask(threshold(p, threshold_value))
        if box is None:
            fallbacks += 1
            h, w = it.image.shape
            box = BBox(0, h - 1, 0, w - 1)
        rec = make_crop_record(it.image.shape, box, margin, align)
        items.append(
            DatasetItem(
                Image(crop_like(it.image.pixels, rec)),
                Mask(crop_like(it.mask.labels, rec)),
                rec,
                it.item_id,
            )
        )
    return DatasetPhase("D2", tuple(items)), fallbacks, skipped


# ------------------------------------------------------------ evaluation


def detection_dsc(
    spec: BackboneSpec, cache: CacheModel, items, threshold_value: float = 0.5
) -> float:
    """Mean Dice of the cache's thresholded output over full images."""
    items = list(items)
    if not items:
        raise EmptyDataset("detection_dsc needs at least one item")
    total = 0.0
    for it in items:
        pred = threshold(cache_forward(spec, cache, it.image), threshold_value)
        total += dsc(pred, it.mask)
    return total / len(items)


def end_to_end_dsc(
    spec: BackboneSpec,
    det: CacheModel,
    seg: CacheModel,
    items,
    cfg: PredictConfig = PredictConfig(),
) -> float:
    """Mean Dice of the full detect-crop-segment pipeline."""
    items = list(items)
    if not items:
        raise EmptyDataset("end_to_end_dsc needs at least one item")
    total = 0.0
    for it in items:
        mask, _, _ = predict(it.image, det, seg, spec, cfg)
        total += dsc(mask, it.mask)
    return total / len(items)


# ---------------------------------------------------------- stage runner


def run_phase(
    stage: str,
    data,
    theta: ParamVector,
    cache: CacheModel,
    cfg: PhaseConfig,
    spec: BackboneSpec = BackboneSpec(),
    loss_cfg: LossConfig = LossConfig(),
    val: DatasetPhase | None = None,
) -> tuple[ParamVector, CacheModel, list[EpochRecord]]:
    """Train one curriculum stage on the items `data`, starting from `theta`.

    A detection stage ("phase1", "phase2", "phase3") folds every optimizer
    step into `cache`, the detection cache, and scores it on `val` after
    each epoch. The "segmentation" stage only reads `cache`: it starts its
    own cache from `theta` and scores the whole detect-crop-segment
    pipeline with `cache` as the detector. Returns the final weights, the
    cache the stage updated and one record per epoch.
    """
    if stage not in STAGES:
        raise ValueOutOfRange(f"unknown stage {stage!r}; valid: {tuple(STAGES)}")
    label, ordinal = STAGES[stage]
    opt = getattr(cfg, stage)
    pairs = [(it.image, it.mask) for it in data]
    if opt.epochs and not pairs:
        raise EmptyDataset(f"stage {label} has no training items")
    eval_fn = None
    if stage == "segmentation":
        det, cache = cache, cache_init(theta, cfg.alpha)
        pcfg = PredictConfig(margin=cfg.crop_margin)
        if val is not None and val.items:

            def eval_fn(seg):
                return end_to_end_dsc(spec, det, seg, val.items, pcfg)

    elif val is not None and val.items:

        def eval_fn(det):
            return detection_dsc(spec, det, val.items)

    state = None
    shuffle_base = derive_seed(opt.seed, ordinal)
    records = []
    for epoch in range(opt.epochs):
        order = list(range(len(pairs)))
        Rng(derive_seed(shuffle_base, epoch)).shuffle(order)
        epoch_losses = []
        for at in range(0, len(order), opt.batch_size):
            batch = [pairs[j] for j in order[at : at + opt.batch_size]]
            try:
                theta, state, lb = train_step(spec, theta, batch, opt, loss_cfg, state)
            except NonFiniteLoss as exc:
                raise NonFiniteLoss(f"stage {label}, epoch {epoch}: {exc}") from None
            cache = cache_update(cache, theta)
            epoch_losses.append(lb)
        val_dsc = eval_fn(cache) if eval_fn is not None else None
        records.append(EpochRecord(label, epoch, mean_breakdown(epoch_losses), val_dsc))
    return theta, cache, records


# ------------------------------------------------------------- full run


def load_cache(path) -> CacheModel:
    """Rebuild a cache from a checkpoint written by run_full.

    Older sidecars name the cache mode; "momentum" is the only one this
    version can rebuild.
    """
    params, meta = load_checkpoint(path)
    if meta.get("mode", "momentum") != "momentum":
        raise CorruptManifest(f"{path}: unsupported cache mode {meta['mode']!r}")
    try:
        return CacheModel(params, float(meta["alpha"]), int(meta["updates"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptManifest(f"{path}: sidecar is not a cache checkpoint: {exc}") from None


class _RunDir:
    """Stage-granular persistence and resume bookkeeping for run_full."""

    def __init__(self, out: Path | None, runnable: list[str], resume: bool, seed: int):
        self.out = out
        self.runnable = runnable
        self.seed = seed
        self.completed: list[str] = []
        self.prior: list[EpochRecord] = []
        if out is None:
            return
        out.mkdir(parents=True, exist_ok=True)
        status = out / "status.json"
        if resume and status.exists():
            done = json.loads(status.read_text()).get("completed", [])
            # only a prefix of this run's stage sequence is trustworthy
            for name in runnable:
                if name in done:
                    self.completed.append(name)
                else:
                    break
            if (out / "history.json").exists():
                self.prior = history_from_json(json.loads((out / "history.json").read_text()))
        else:
            status.write_text(json.dumps({"completed": []}, indent=2) + "\n")

    def resumable(self, name: str) -> bool:
        return name in self.completed

    def load(self, name: str, cache_file: str) -> tuple[ParamVector, CacheModel]:
        theta, _ = load_checkpoint(self.out / f"{name}.ckpt")
        return theta, load_cache(self.out / f"{cache_file}.ckpt")

    def mark_done(self, name: str, theta: ParamVector, cache: CacheModel, cache_file: str, history):
        if self.out is None:
            return
        save_checkpoint(self.out / f"{name}.ckpt", theta, {"stage": name, "seed": self.seed})
        save_checkpoint(
            self.out / f"{cache_file}.ckpt",
            cache.params,
            {"stage": name, "alpha": cache.alpha, "updates": cache.updates},
        )
        self.completed = self.runnable[: self.runnable.index(name) + 1]
        (self.out / "status.json").write_text(
            json.dumps({"completed": self.completed}, indent=2) + "\n"
        )
        (self.out / "history.json").write_text(
            json.dumps(history_to_json(history), indent=2) + "\n"
        )


def run_full(
    raw_train: DatasetPhase,
    raw_val: DatasetPhase | None,
    cfg: PhaseConfig,
    spec: BackboneSpec = BackboneSpec(),
    loss_cfg: LossConfig = LossConfig(),
    out_dir=None,
    phases=None,
    resume: bool = False,
) -> RunState:
    """Run the whole curriculum: phases I, II, III, then segmentation.

    `phases` limits which detection phases actually train (the
    segmentation stage always runs); a skipped phase passes its input
    weights straight through, preserving the inheritance chain. With
    `out_dir` set, stage checkpoints, the cache-cropped dataset, and the
    history log are persisted after every stage; `resume=True` picks a
    previous run back up at stage granularity (same config expected).
    Every image must have sides that are multiples of
    `spec.input_align`; this is checked before anything is trained or
    written.
    """
    active = set(DETECTION_PHASES) if phases is None else {str(p) for p in phases}
    unknown = active - set(DETECTION_PHASES)
    if unknown:
        raise ValueOutOfRange(f"unknown phases {sorted(unknown)}; valid: {DETECTION_PHASES}")
    a = spec.input_align
    for name, phase in (("training", raw_train), ("validation", raw_val)):
        for i, it in enumerate(phase.items if phase is not None else ()):
            if it.image.height % a or it.image.width % a:
                raise AlignmentError(
                    f"{name} item {it.item_id or i} has shape {it.image.shape}, "
                    f"not a multiple of alignment {a}"
                )

    runnable = [f"phase{s}" for s in DETECTION_PHASES if s in active] + ["segmentation"]
    rd = _RunDir(Path(out_dir) if out_dir is not None else None, runnable, resume, cfg.seed)
    history: list[EpochRecord] = []
    stats: dict[str, int] = {}

    d1, stats["d1_skipped"] = build_d1(raw_train, cfg.crop_margin, spec.input_align)
    data = {"1": d1, "3": raw_train}

    def materialize_d2(det: CacheModel) -> DatasetPhase:
        if rd.out is not None and resume and (rd.out / "d2" / "manifest.json").exists():
            phase, meta = load_phase(rd.out / "d2")
            for key in ("fallbacks", "skipped"):
                if key in meta:
                    stats[f"d2_{key}"] = int(meta[key])
            return phase
        phase, fb, sk = build_d2(raw_train, det, spec, cfg.crop_margin, spec.input_align)
        stats["d2_fallbacks"] = fb
        stats["d2_skipped"] = sk
        if rd.out is not None:
            save_phase(rd.out / "d2", phase, {"fallbacks": fb, "skipped": sk})
        return phase

    def train(stage: str, items, theta: ParamVector, cache: CacheModel):
        """Run one stage and persist it, or reload it when it is resumable."""
        cache_file = "segmentation_cache" if stage == "segmentation" else "detection_cache"
        if rd.resumable(stage):
            history.extend(r for r in rd.prior if r.phase == STAGES[stage][0])
            return rd.load(stage, cache_file)
        theta, cache, recs = run_phase(stage, items, theta, cache, cfg, spec, loss_cfg, raw_val)
        history.extend(recs)
        rd.mark_done(stage, theta, cache, cache_file, history)
        return theta, cache

    theta = init_params(spec, derive_seed(cfg.seed, 1))
    det = cache_init(theta, cfg.alpha)
    inits: dict[str, ParamVector] = {}
    finals: dict[str, ParamVector] = {}
    for p in DETECTION_PHASES:
        stage = f"phase{p}"
        inits[stage] = theta
        if p in active:
            if p == "2":
                data["2"] = materialize_d2(det)
                if len(data["2"].items) == 0:
                    raise EmptyDataset("cache-cropped dataset is empty; cannot run phase II")
            theta, det = train(stage, data[p].items, theta, det)
        finals[stage] = theta

    # with phase II skipped, D2 is cut by the cache phase III left behind
    if "2" not in data:
        data["2"] = materialize_d2(det)
    inits["segmentation"] = det.params
    theta_seg, seg_cache = train("segmentation", d1.items + data["2"].items, det.params, det)

    return RunState(
        spec=spec,
        theta_1=finals["phase1"],
        theta_2=finals["phase2"],
        theta_3=finals["phase3"],
        detection_cache=det,
        theta_seg=theta_seg,
        segmentation_cache=seg_cache,
        history=tuple(history),
        inits=inits,
        stats=stats,
    )
