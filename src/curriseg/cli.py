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
import json
import sys
from dataclasses import MISSING, fields, is_dataclass, replace
from pathlib import Path

from .backbone import BackboneSpec
from .errors import CorruptManifest, CurrisegError, LengthMismatch
from .evaluation import evaluate_set
from .losses import LossConfig
from .predictor import PredictConfig, predict
from .storage import load_phase, save_mask, save_phase
from .svg import line_chart
from .synthdata import GenConfig, generate
from .trainer import STAGES, PhaseConfig, history_from_json, load_cache, run_full
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


def _build(cls, tree: dict):
    """Inverse of `_tree`: construct `cls` from a complete nested dict."""
    kwargs = {}
    for f in fields(cls):
        if f.init:
            nested = _default(f)
            v = tree[f.name]
            kwargs[f.name] = _build(type(nested), v) if is_dataclass(nested) else v
    return cls(**kwargs)


def _merge_config(defaults: dict, user: dict, prefix: str = "") -> dict:
    """Overlay a user document onto the defaults, rejecting unknown keys."""
    for key in user:
        if key not in defaults:
            raise CorruptManifest(f"unknown config key {prefix + key!r}")
    merged = {}
    for key, dval in defaults.items():
        if isinstance(dval, dict):
            uval = user.get(key, {})
            if not isinstance(uval, dict):
                raise CorruptManifest(f"config key {prefix + key!r} must be an object")
            merged[key] = _merge_config(dval, uval, prefix=f"{prefix}{key}.")
        else:
            merged[key] = user.get(key, dval)
    return merged


def _resolve(user: dict, sections: dict) -> dict:
    """Overlay `user` onto the section defaults and build every section;
    returns the built objects by section name."""
    merged = _merge_config({name: _tree(cls) for name, cls in sections.items()}, user)
    return {name: _build(cls, merged[name]) for name, cls in sections.items()}


def load_config(path: str | None) -> dict:
    """Read and resolve a config file; None means all defaults.

    Returns the fully resolved document, per-stage seeds included.
    """
    user: dict = {}
    if path is not None:
        text = Path(path).read_text()
        try:
            user = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CorruptManifest(f"{path}: invalid JSON: {exc}") from None
        if not isinstance(user, dict):
            raise CorruptManifest(f"{path}: config must be a JSON object")
    return {name: _tree(obj) for name, obj in _resolve(user, SECTIONS).items()}


# ------------------------------------------------------------- commands


def cmd_gen(args) -> int:
    h, w = args.size
    cfg = GenConfig(
        count=args.count,
        height=h,
        width=w,
        fg_ratio_range=(args.fg_lo, args.fg_hi),
        blob_irregularity=args.irregularity,
        noise_sigma=args.noise_sigma,
        empty_slice_fraction=args.empty_frac,
        seed=args.seed,
    )
    phase = generate(cfg)
    meta = {
        "count": cfg.count,
        "height": cfg.height,
        "width": cfg.width,
        "fg_ratio_range": list(cfg.fg_ratio_range),
        "blob_irregularity": cfg.blob_irregularity,
        "noise_sigma": cfg.noise_sigma,
        "empty_slice_fraction": cfg.empty_slice_fraction,
        "seed": cfg.seed,
    }
    save_phase(args.out, phase, meta)
    print(f"wrote {len(phase.items)} items to {args.out}")
    return 0


def _write_stage_logs(run_dir: Path, history) -> None:
    logs = run_dir / "logs"
    logs.mkdir(exist_ok=True)
    for name, (label, _) in STAGES.items():
        recs = [r for r in history if r.phase == label]
        if not recs:
            continue
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
    spec, loss_cfg, phase_cfg = (_build(SECTIONS[k], cfg[k]) for k in ("backbone", "loss", "run"))

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
    run_dir.mkdir(parents=True, exist_ok=True)
    echo = dict(cfg)
    echo["ablate_phases"] = ablated
    (run_dir / "run_config.json").write_text(json.dumps(echo, indent=2) + "\n")

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
    _write_stage_logs(run_dir, state.history)

    for label, _ in STAGES.values():
        recs = [r for r in state.history if r.phase == label]
        if recs:
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
    # prediction needs only these sections; the training ones may come
    # from another version of the config schema
    sections = {k: SECTIONS[k] for k in ("backbone", "predict")}
    cfg_path = run_dir / "run_config.json"
    base = json.loads(cfg_path.read_text()) if cfg_path.exists() else {}
    cfg = _resolve({k: base[k] for k in sections if k in base}, sections)
    spec, pcfg = cfg["backbone"], cfg["predict"]
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
        (out / f"{item_id}.trace.json").write_text(json.dumps(trace.as_dict(), indent=2) + "\n")
    print(f"wrote {len(phase.items)} masks to {out}")
    return 0


def _mask_files(dir_path: Path) -> dict[str, Path]:
    if (dir_path / "manifest.json").exists():
        phase, _ = load_phase(dir_path)
        root = dir_path
        out = {}
        for i, item in enumerate(phase.items):
            item_id = item.item_id or f"img_{i:05d}"
            out[item_id] = root / "masks" / f"{item_id}.pgm"
        return out
    return {p.stem: p for p in sorted(dir_path.glob("*.pgm"))}


def cmd_eval(args) -> int:
    from .storage import load_mask

    pred_files = _mask_files(Path(args.pred))
    truth_files = _mask_files(Path(args.truth))
    if len(pred_files) != len(truth_files):
        raise LengthMismatch(
            f"{len(pred_files)} predictions in {args.pred} vs {len(truth_files)} references in {args.truth}"
        )
    if set(pred_files) != set(truth_files):
        missing = sorted(set(truth_files) - set(pred_files))[:5]
        raise LengthMismatch(f"prediction ids do not match references (e.g. missing {missing})")

    ids = sorted(pred_files)
    preds = [load_mask(pred_files[i]) for i in ids]
    refs = [load_mask(truth_files[i]) for i in ids]
    report = evaluate_set(preds, refs, ids=ids)
    doc = {"version": 1}
    doc.update(report.as_dict())
    Path(args.report).write_text(json.dumps(doc, indent=2) + "\n")
    print(f"mean_dsc={report.mean:.4f} std={report.std:.4f} count={report.count}")
    return 0


def cmd_report(args) -> int:
    run_dir = Path(args.run)
    hist_path = run_dir / "history.json"
    if not hist_path.exists():
        raise CorruptManifest(f"no history.json in {run_dir}")
    history = history_from_json(json.loads(hist_path.read_text()))
    plots = Path(args.plots)
    plots.mkdir(parents=True, exist_ok=True)

    written = []
    for name, (label, _) in STAGES.items():
        recs = [r for r in history if r.phase == label]
        if not recs:
            continue
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
    for label, _ in STAGES.values():
        recs = [r for r in history if r.phase == label]
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
    p.add_argument("--fg-lo", type=float, default=g.fg_ratio_range[0], help="min foreground ratio")
    p.add_argument("--fg-hi", type=float, default=g.fg_ratio_range[1], help="max foreground ratio")
    p.add_argument("--empty-frac", type=float, default=g.empty_slice_fraction, help="fraction of empty-mask items")
    p.add_argument("--irregularity", type=float, default=g.blob_irregularity, help="blob shape irregularity in [0,1]")
    p.add_argument("--noise-sigma", type=float, default=g.noise_sigma, help="background noise scale")
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
