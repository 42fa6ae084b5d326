"""Command-line front end: dataset generation, curriculum training,
prediction, evaluation, and SVG reports.

Exit codes: 0 success, 1 runtime failure (bad data, missing files,
diverged training), 2 usage errors (unknown flags, malformed values).

Training is driven by a JSON config file whose keys mirror the library
dataclasses; every key is optional and unknown keys are rejected. The
fully-resolved config is echoed into the run directory so later
`predict`/`report` calls see the exact settings that trained the run.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import MISSING, fields, is_dataclass, replace
from pathlib import Path

from .backbone import BackboneSpec
from .errors import CorruptManifest, CurrisegError, LengthMismatch
from .evaluation import evaluate_set
from .losses import LossConfig
from .predictor import PredictConfig, predict
from .storage import load_mask, load_phase, read_json, save_mask, save_phase, write_json
from .svg import line_chart
from .synthdata import GenConfig, generate
from .trainer import STAGES, PhaseConfig, history_from_json, load_cache, run_full
from .types import Mask
from . import trainer

# config section -> the dataclass it builds; the dataclass defaults are the
# config defaults
SECTIONS = {"backbone": BackboneSpec, "loss": LossConfig, "run": PhaseConfig, "predict": PredictConfig}


def _default(f):
    return f.default_factory() if f.default is MISSING else f.default


def _tree(obj) -> dict:
    """Constructor fields of a config dataclass as a nested dict; given a
    class rather than an instance, its field defaults."""
    out = {}
    for f in fields(obj):
        if f.init:
            v = _default(f) if isinstance(obj, type) else getattr(obj, f.name)
            out[f.name] = _tree(v) if is_dataclass(v) else v
    return out


def _overlay(base, user, key: str):
    """Build a config from `base`, a config class or a field's default
    instance, with the keys that `user`, the document at config key `key`,
    gives. A nested config overlays its own default instance."""
    if not isinstance(user, dict):
        raise CorruptManifest(f"config key {key!r} must be an object")
    known = {f.name: f for f in fields(base) if f.init}
    kwargs = {}
    for name, value in user.items():
        sub = f"{key}.{name}"
        if name not in known:
            raise CorruptManifest(f"unknown config key {sub!r}")
        nested = _default(known[name]) if isinstance(base, type) else getattr(base, name)
        kwargs[name] = _overlay(nested, value, sub) if is_dataclass(nested) else value
    return base(**kwargs) if isinstance(base, type) else replace(base, **kwargs)


def load_config(path: str | None) -> dict:
    """Read and resolve a config file; None means all defaults.

    Returns the fully resolved document, per-stage seeds included.
    """
    user = {} if path is None else read_json(path)
    if not isinstance(user, dict):
        raise CorruptManifest(f"{path}: config must be a JSON object")
    for name in user:
        if name not in SECTIONS:
            raise CorruptManifest(f"unknown config key {name!r}")
    return {name: _tree(_overlay(cls, user.get(name, {}), name)) for name, cls in SECTIONS.items()}


# ------------------------------------------------------------- commands


def cmd_gen(args) -> int:
    h, w = args.size
    cfg = GenConfig(
        count=args.count, height=h, width=w, empty_slice_fraction=args.empty_frac, seed=args.seed
    )
    phase = generate(cfg)
    save_phase(args.out, phase, _tree(cfg))
    print(f"wrote {len(phase.items)} items to {args.out}")
    return 0


def _by_stage(history) -> list[tuple[str, str, list]]:
    """(stage name, history label, its records) for every stage that has
    records, in curriculum order."""
    out = []
    for name, (label, _, _) in STAGES.items():
        recs = [r for r in history if r.phase == label]
        if recs:
            out.append((name, label, recs))
    return out


def _write_stage_logs(run_dir: Path, history) -> None:
    logs = run_dir / "logs"
    logs.mkdir(exist_ok=True)
    for name, _, recs in _by_stage(history):
        lines = []
        for r in recs:
            val = "" if r.val_dsc is None else f"  val_dsc={r.val_dsc:.4f}"
            lines.append(
                f"epoch {r.epoch:3d}  l_iou={r.loss.l_iou:.6f}  l_bce={r.loss.l_bce:.6f}  "
                f"l_s={r.loss.l_s:.6f}  l_total={r.loss.l_total:.6f}{val}"
            )
        (logs / f"{name}.log").write_text("\n".join(lines) + "\n")


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    spec, loss_cfg, phase_cfg = (_overlay(SECTIONS[k], cfg[k], k) for k in ("backbone", "loss", "run"))

    raw_train, _ = load_phase(args.data)
    raw_val, _ = load_phase(args.val)

    phases = set(trainer.DETECTION_PHASES)
    ablated: list[str] = []
    if args.ablate_phases:
        ablated = [p.strip() for p in args.ablate_phases.split(",") if p.strip()]
        for p in ablated:
            if p not in trainer.DETECTION_PHASES:
                raise CorruptManifest(f"--ablate-phases: unknown phase {p!r}")
        phases -= set(ablated)

    run_dir = Path(args.out)
    state = run_full(
        raw_train,
        raw_val,
        phase_cfg,
        spec=spec,
        loss_cfg=loss_cfg,
        out_dir=run_dir,
        phases=phases,
        resume=args.resume,
    )
    # written only once run_full has checked the data and made the directory
    write_json(run_dir / "run_config.json", {**cfg, "ablate_phases": ablated})
    _write_stage_logs(run_dir, state.history)

    for _, label, recs in _by_stage(state.history):
        last = recs[-1]
        val = "n/a" if last.val_dsc is None else f"{last.val_dsc:.4f}"
        print(
            f"stage {label}: {len(recs)} epochs, final l_total={last.loss.l_total:.6f}, "
            f"val_dsc={val}"
        )
    print(f"run artifacts in {run_dir}")
    return 0


def cmd_predict(args) -> int:
    run_dir = Path(args.run)
    cfg_path = run_dir / "run_config.json"
    base = read_json(cfg_path) if cfg_path.exists() else {}
    if not isinstance(base, dict):
        raise CorruptManifest(f"{cfg_path}: config must be a JSON object")
    # prediction needs only these sections; the training ones may come
    # from another version of the config schema
    spec, pcfg = (_overlay(SECTIONS[k], base.get(k, {}), k) for k in ("backbone", "predict"))
    overrides = {"d_t": args.dt, "max_iters": args.max_iters}
    pcfg = replace(pcfg, **{k: v for k, v in overrides.items() if v is not None})

    det = load_cache(run_dir / "detection_cache.ckpt")
    seg = load_cache(run_dir / "segmentation_cache.ckpt")

    phase, _ = load_phase(args.input)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for i, item in enumerate(phase.items):
        item_id = item.item_id or f"img_{i:05d}"
        mask, _, trace = predict(item.image, det, seg, spec, pcfg)
        save_mask(out / f"{item_id}.pgm", mask)
        write_json(out / f"{item_id}.trace.json", trace.as_dict())
    print(f"wrote {len(phase.items)} masks to {out}")
    return 0


def _masks(dir_path: Path) -> dict[str, Mask]:
    """Masks by id: a dataset directory's items, or every *.pgm file."""
    if (dir_path / "manifest.json").exists():
        phase, _ = load_phase(dir_path)
        return {item.item_id or f"img_{i:05d}": item.mask for i, item in enumerate(phase.items)}
    return {p.stem: load_mask(p) for p in sorted(dir_path.glob("*.pgm"))}


def cmd_eval(args) -> int:
    pred_masks = _masks(Path(args.pred))
    truth_masks = _masks(Path(args.truth))
    if len(pred_masks) != len(truth_masks):
        raise LengthMismatch(
            f"{len(pred_masks)} predictions in {args.pred} vs {len(truth_masks)} references in {args.truth}"
        )
    if set(pred_masks) != set(truth_masks):
        missing = sorted(set(truth_masks) - set(pred_masks))[:5]
        raise LengthMismatch(f"prediction ids do not match references (e.g. missing {missing})")

    ids = sorted(pred_masks)
    preds = [pred_masks[i] for i in ids]
    refs = [truth_masks[i] for i in ids]
    report = evaluate_set(preds, refs, ids=ids)
    write_json(args.report, {"version": 1, **report.as_dict()})
    print(f"mean_dsc={report.mean:.4f} std={report.std:.4f} count={report.count}")
    return 0


def cmd_report(args) -> int:
    run_dir = Path(args.run)
    history = history_from_json(read_json(run_dir / "history.json"))
    plots = Path(args.plots)
    plots.mkdir(parents=True, exist_ok=True)

    stages = _by_stage(history)
    written = []
    for name, label, recs in stages:
        xs = [float(r.epoch) for r in recs]
        series = [
            ("l_total", xs, [r.loss.l_total for r in recs]),
            ("l_iou", xs, [r.loss.l_iou for r in recs]),
            ("l_bce", xs, [r.loss.l_bce for r in recs]),
            ("l_s", xs, [r.loss.l_s for r in recs]),
        ]
        line_chart(
            plots / f"loss_{name}.svg",
            series,
            title=f"training loss, stage {label}",
            x_label="epoch",
            y_label="loss",
        )
        written.append(f"loss_{name}.svg")

    dsc_series = []
    offset = 0
    for _, label, recs in stages:
        pts = [(offset + i, r.val_dsc) for i, r in enumerate(recs) if r.val_dsc is not None]
        offset += len(recs)
        if pts:
            dsc_series.append(
                (f"stage {label}", [float(x) for x, _ in pts], [y for _, y in pts])
            )
    if dsc_series:
        line_chart(
            plots / "dsc_progression.svg",
            dsc_series,
            title="validation DSC across the curriculum",
            x_label="cumulative epoch",
            y_label="DSC",
        )
        written.append("dsc_progression.svg")

    print(f"wrote {len(written)} plots to {plots}: {', '.join(written)}")
    return 0


# --------------------------------------------------------------- parser


def _size(text: str) -> tuple[int, int]:
    try:
        h, w = text.lower().split("x")
        return int(h), int(w)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected HxW, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curriseg",
        description="curriculum-trained small-object segmentation on synthetic data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = GenConfig(count=1)  # the field defaults; --count itself is required
    p = sub.add_parser("gen", help="generate a synthetic dataset")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--count", type=int, required=True, help="number of items")
    p.add_argument("--size", type=_size, default=(g.height, g.width), help=f"image size HxW (default {g.height}x{g.width})")
    p.add_argument("--empty-frac", type=float, default=g.empty_slice_fraction, help="fraction of empty-mask items")
    p.add_argument("--seed", type=int, default=g.seed)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="run the full curriculum")
    p.add_argument("--data", required=True, help="training dataset directory")
    p.add_argument("--val", required=True, help="validation dataset directory")
    p.add_argument("--out", required=True, help="run directory for checkpoints/history")
    p.add_argument("--config", default=None, help="JSON config file (defaults apply)")
    p.add_argument(
        "--ablate-phases",
        default="",
        help='comma list of detection phases to skip, e.g. "1,2"',
    )
    p.add_argument("--resume", action="store_true", help="resume an interrupted run")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="predict masks with a trained run")
    p.add_argument("--run", required=True, help="run directory from `train`")
    p.add_argument("--input", required=True, help="input dataset directory")
    p.add_argument("--out", required=True, help="output directory for masks + traces")
    p.add_argument("--dt", type=float, default=None, help="refinement overlap threshold in (0,1]")
    p.add_argument("--max-iters", type=int, default=None, help="max refinement passes")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval", help="score predicted masks against references")
    p.add_argument("--pred", required=True, help="directory of predicted masks")
    p.add_argument("--truth", required=True, help="dataset directory or directory of masks")
    p.add_argument("--report", required=True, help="output JSON report file")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("report", help="render training curves as SVG")
    p.add_argument("--run", required=True, help="run directory from `train`")
    p.add_argument("--plots", required=True, help="output directory for SVG files")
    p.set_defaults(func=cmd_report)

    return parser


def entry(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CurrisegError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(entry())
