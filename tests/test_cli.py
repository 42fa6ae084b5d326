import json
import re
import shutil
import xml.etree.ElementTree as ET
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from curriseg import GenConfig, OptimizerConfig, PhaseConfig, PredictConfig, derive_seed, generate, read_pgm
from curriseg import cli
from curriseg.cli import entry, load_config

README = Path(__file__).resolve().parents[1] / "README.md"

TINY_CONFIG = {
    "backbone": {"depth": 1, "base_channels": 2},
    "run": {
        "seed": 3,
        "crop_margin": 3,
        "phase1": {"epochs": 1, "batch_size": 2, "learning_rate": 2e-3},
        "phase2": {"epochs": 1, "batch_size": 2, "learning_rate": 2e-3},
        "phase3": {"epochs": 1, "batch_size": 2, "learning_rate": 2e-3},
        "segmentation": {"epochs": 2, "batch_size": 2, "learning_rate": 2e-3},
    },
}


def gen(out: Path, count=8, seed=5, size="24x24"):
    rc = entry(
        ["gen", "--out", str(out), "--count", str(count), "--size", size, "--seed", str(seed)]
    )
    assert rc == 0


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    ws = tmp_path_factory.mktemp("cli")
    gen(ws / "train", count=8, seed=5)
    gen(ws / "val", count=4, seed=6)
    (ws / "config.json").write_text(json.dumps(TINY_CONFIG))
    rc = entry(
        [
            "train",
            "--data", str(ws / "train"),
            "--val", str(ws / "val"),
            "--out", str(ws / "run"),
            "--config", str(ws / "config.json"),
        ]
    )
    assert rc == 0
    return ws


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


# ------------------------------------------------------------------- gen


def test_gen_writes_loadable_dataset(tmp_path):
    gen(tmp_path / "d", count=3, seed=1, size="32x48")
    manifest = json.loads((tmp_path / "d" / "manifest.json").read_text())
    assert len(manifest["items"]) == 3
    assert manifest["meta"]["height"] == 32 and manifest["meta"]["width"] == 48
    img = read_pgm(tmp_path / "d" / manifest["items"][0]["image"])
    assert img.shape == (32, 48)


def test_gen_defaults_are_genconfig_defaults(tmp_path, monkeypatch):
    built = []

    def spy(cfg):
        built.append(cfg)
        return generate(cfg)

    monkeypatch.setattr(cli, "generate", spy)
    assert entry(["gen", "--out", str(tmp_path / "d"), "--count", "1"]) == 0
    assert built == [GenConfig(count=1)]


def test_gen_deterministic_bytes(tmp_path):
    gen(tmp_path / "a", count=4, seed=9)
    gen(tmp_path / "b", count=4, seed=9)
    assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")
    gen(tmp_path / "c", count=4, seed=10)
    assert tree_bytes(tmp_path / "a") != tree_bytes(tmp_path / "c")


# ----------------------------------------------------------------- train


def test_train_produces_run_artifacts(workspace):
    run = workspace / "run"
    for name in (
        "phase1.ckpt",
        "phase2.ckpt",
        "phase3.ckpt",
        "segmentation.ckpt",
        "detection_cache.ckpt",
        "segmentation_cache.ckpt",
        "history.json",
        "status.json",
        "run_config.json",
        "d2/manifest.json",
    ):
        assert (run / name).exists(), name
    history = json.loads((run / "history.json").read_text())
    assert [e["phase"] for e in history["entries"]] == ["I", "II", "III", "seg", "seg"]
    assert all(e["val_dsc"] is not None for e in history["entries"])
    logs = {p.name for p in (run / "logs").glob("*.log")}
    assert logs == {"phase1.log", "phase2.log", "phase3.log", "segmentation.log"}


def test_train_echoes_resolved_config(workspace):
    echo = json.loads((workspace / "run" / "run_config.json").read_text())
    assert echo["backbone"] == {"depth": 1, "base_channels": 2}
    assert echo["run"]["phase1"]["epochs"] == 1
    assert isinstance(echo["run"]["phase2"]["seed"], int)  # resolved, not null
    assert echo["ablate_phases"] == []


def test_train_deterministic_checkpoints(workspace, tmp_path):
    args = [
        "train",
        "--data", str(workspace / "train"),
        "--val", str(workspace / "val"),
        "--config", str(workspace / "config.json"),
    ]
    assert entry(args + ["--out", str(tmp_path / "r1")]) == 0
    assert entry(args + ["--out", str(tmp_path / "r2")]) == 0
    for name in ("phase3.ckpt", "segmentation_cache.ckpt", "history.json"):
        assert (tmp_path / "r1" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes()


def test_train_ablate_phases(workspace, tmp_path):
    rc = entry(
        [
            "train",
            "--data", str(workspace / "train"),
            "--val", str(workspace / "val"),
            "--out", str(tmp_path / "abl"),
            "--config", str(workspace / "config.json"),
            "--ablate-phases", "1,2",
        ]
    )
    assert rc == 0
    assert not (tmp_path / "abl" / "phase1.ckpt").exists()
    assert not (tmp_path / "abl" / "phase2.ckpt").exists()
    assert (tmp_path / "abl" / "phase3.ckpt").exists()
    history = json.loads((tmp_path / "abl" / "history.json").read_text())
    assert {e["phase"] for e in history["entries"]} == {"III", "seg"}


def test_train_rejects_unknown_phase(workspace, tmp_path, capsys):
    rc = entry(
        [
            "train",
            "--data", str(workspace / "train"),
            "--val", str(workspace / "val"),
            "--out", str(tmp_path / "x"),
            "--ablate-phases", "7",
        ]
    )
    assert rc == 1
    assert "unknown phase" in capsys.readouterr().err


def test_train_resume_completes_quickly(workspace, tmp_path):
    run = tmp_path / "res"
    args = [
        "train",
        "--data", str(workspace / "train"),
        "--val", str(workspace / "val"),
        "--out", str(run),
        "--config", str(workspace / "config.json"),
    ]
    assert entry(args) == 0
    status = run / "status.json"
    status.write_text(json.dumps({"completed": ["phase1", "phase2"]}) + "\n")
    assert entry(args + ["--resume"]) == 0
    assert json.loads(status.read_text())["completed"] == [
        "phase1",
        "phase2",
        "phase3",
        "segmentation",
    ]
    history = json.loads((run / "history.json").read_text())
    assert [e["phase"] for e in history["entries"]] == ["I", "II", "III", "seg", "seg"]


# ----------------------------------------------------------------- config


def test_unknown_config_key_rejected(workspace, tmp_path, capsys):
    cases = [
        ({"trainer": {}}, "trainer"),
        # the optimizer "algorithm" key of older configs
        ({"run": {"phase1": {"algorithm": "adam"}}}, "run.phase1.algorithm"),
    ]
    for doc, key in cases:
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        rc = entry(
            [
                "train",
                "--data", str(workspace / "train"),
                "--val", str(workspace / "val"),
                "--out", str(tmp_path / "x"),
                "--config", str(bad),
            ]
        )
        assert rc == 1
        assert f"unknown config key {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()


def test_config_defaults_and_seed_derivation(tmp_path):
    cfg = load_config(None)
    assert cfg["backbone"] == {"depth": 2, "base_channels": 8}
    stage_seeds = [cfg["run"][s]["seed"] for s in ("phase1", "phase2", "phase3", "segmentation")]
    assert all(isinstance(s, int) for s in stage_seeds)
    assert len(set(stage_seeds)) == 4

    p = tmp_path / "c.json"
    p.write_text(json.dumps({"run": {"seed": 1}}))
    q = tmp_path / "d.json"
    q.write_text(json.dumps({"run": {"seed": 2}}))
    assert load_config(p)["run"]["phase1"]["seed"] != load_config(q)["run"]["phase1"]["seed"]


def test_reference_experiment_defaults():
    # PhaseConfig() and PredictConfig() are the reference experiment ...
    def stage(lr, epochs, ordinal):
        return OptimizerConfig(lr, 8, epochs, derive_seed(0, 100 + ordinal))

    reference = PhaseConfig(
        phase1=stage(3e-3, 4, 1),
        phase2=stage(2e-3, 3, 2),
        phase3=stage(2e-3, 17, 3),
        segmentation=stage(2e-3, 10, 4),
        alpha=0.99,
        crop_margin=12,
        seed=0,
    )
    assert PhaseConfig() == reference
    assert PredictConfig() == PredictConfig(
        crop_threshold=0.5, final_threshold=0.5, margin=12, d_t=None, max_iters=10
    )
    # ... and the CLI defaults are exactly the dataclass defaults
    stages = ("phase1", "phase2", "phase3", "segmentation")
    assert load_config(None) == {
        "backbone": {"depth": 2, "base_channels": 8},
        "loss": {"eps_log": 1e-7, "eps_div": 1e-7, "kernel": {"sigma": 1.0, "radius": 3}},
        "run": {
            **{s: asdict(getattr(reference, s)) for s in stages},
            "alpha": 0.99,
            "crop_margin": 12,
            "seed": 0,
        },
        "predict": asdict(PredictConfig()),
    }


def test_readme_config_example_loads(tmp_path):
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    path = tmp_path / "readme.json"
    path.write_text(blocks[0])
    # the example spells out the reference experiment at run seed 1
    seed1 = tmp_path / "seed1.json"
    seed1.write_text(json.dumps({"run": {"seed": 1}}))
    assert load_config(path) == load_config(seed1)


def test_config_invalid_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    rc = entry(
        ["train", "--data", "x", "--val", "y", "--out", str(tmp_path / "o"), "--config", str(bad)]
    )
    assert rc == 1
    assert "invalid JSON" in capsys.readouterr().err


# ---------------------------------------------------------------- predict


@pytest.fixture(scope="module")
def predictions(workspace):
    out = workspace / "preds"
    rc = entry(
        [
            "predict",
            "--run", str(workspace / "run"),
            "--input", str(workspace / "val"),
            "--out", str(out),
        ]
    )
    assert rc == 0
    return out


def test_predict_writes_mask_per_item(workspace, predictions):
    manifest = json.loads((workspace / "val" / "manifest.json").read_text())
    ids = [e["id"] for e in manifest["items"]]
    for item_id in ids:
        assert (predictions / f"{item_id}.pgm").exists()
        assert (predictions / f"{item_id}.trace.json").exists()
        values = set(np.unique(read_pgm(predictions / f"{item_id}.pgm")))
        assert values <= {0, 255}


def test_predict_refinement_traces(workspace, tmp_path):
    out = tmp_path / "preds_dt"
    rc = entry(
        [
            "predict",
            "--run", str(workspace / "run"),
            "--input", str(workspace / "val"),
            "--out", str(out),
            "--dt", "0.95",
            "--max-iters", "4",
        ]
    )
    assert rc == 0
    trace = json.loads(next(iter(sorted(out.glob("*.trace.json")))).read_text())
    assert 1 <= trace["n_iters"] <= 4
    assert len(trace["iterations"]) == trace["n_iters"]
    assert "dsc_prev" in trace["iterations"][0]


def test_predict_reads_older_run_directories(workspace, predictions, tmp_path):
    # run_config.json and cache sidecars as written before the cache mode,
    # d2_fallback, normalize_bce and the optimizer algorithm were removed
    # and the kernel was nested
    run = tmp_path / "old_run"
    shutil.copytree(workspace / "run", run)
    old_stage = {"algorithm": "adam", "learning_rate": 2e-3, "batch_size": 2, "seed": None}
    old_config = {
        "backbone": TINY_CONFIG["backbone"],
        "loss": {
            "eps_log": 1e-7,
            "eps_div": 1e-7,
            "normalize_bce": False,
            "kernel_sigma": 1.0,
            "kernel_radius": 3,
        },
        "run": {
            "alpha": 0.99,
            "switch_mode": "momentum",
            "crop_margin": 3,
            "d2_fallback": "whole_image",
            "seed": 3,
            **{s: {**old_stage, "epochs": 1} for s in ("phase1", "phase2", "phase3")},
            "segmentation": {**old_stage, "epochs": 2},
        },
        "predict": {"crop_threshold": 0.5, "final_threshold": 0.5, "margin": 12, "d_t": None, "max_iters": 10},
        "ablate_phases": [],
    }
    (run / "run_config.json").write_text(json.dumps(old_config, indent=2) + "\n")
    for name in ("detection_cache", "segmentation_cache"):
        side = run / f"{name}.ckpt.json"
        doc = json.loads(side.read_text())
        doc["meta"]["mode"] = "momentum"
        side.write_text(json.dumps(doc, indent=2) + "\n")

    out = tmp_path / "preds"
    rc = entry(["predict", "--run", str(run), "--input", str(workspace / "val"), "--out", str(out)])
    assert rc == 0
    assert tree_bytes(out) == tree_bytes(predictions)


def test_predict_missing_checkpoints(workspace, tmp_path, capsys):
    rc = entry(
        [
            "predict",
            "--run", str(tmp_path / "norun"),
            "--input", str(workspace / "val"),
            "--out", str(tmp_path / "o"),
        ]
    )
    assert rc == 1


# ------------------------------------------------------------------- eval


def test_eval_perfect_predictions(workspace, tmp_path, capsys):
    report = tmp_path / "report.json"
    rc = entry(
        [
            "eval",
            "--pred", str(workspace / "val"),
            "--truth", str(workspace / "val"),
            "--report", str(report),
        ]
    )
    assert rc == 0
    doc = json.loads(report.read_text())
    assert doc["mean"] == 1.0 and doc["count"] == 4
    assert "mean_dsc=1.0000" in capsys.readouterr().out


def test_eval_scores_predictions(workspace, predictions, tmp_path):
    report = tmp_path / "report.json"
    rc = entry(
        [
            "eval",
            "--pred", str(predictions),
            "--truth", str(workspace / "val"),
            "--report", str(report),
        ]
    )
    assert rc == 0
    doc = json.loads(report.read_text())
    assert doc["count"] == 4
    assert 0.0 <= doc["mean"] <= 1.0
    assert len(doc["per_item"]) == 4


def test_eval_count_mismatch_names_counts(workspace, predictions, tmp_path, capsys):
    partial = tmp_path / "partial"
    partial.mkdir()
    files = sorted(predictions.glob("*.pgm"))
    for f in files[:-1]:
        (partial / f.name).write_bytes(f.read_bytes())
    rc = entry(
        [
            "eval",
            "--pred", str(partial),
            "--truth", str(workspace / "val"),
            "--report", str(tmp_path / "r.json"),
        ]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert "3" in err and "4" in err


# ----------------------------------------------------------------- report


def test_report_renders_svg_curves(workspace, tmp_path):
    plots = tmp_path / "plots"
    rc = entry(["report", "--run", str(workspace / "run"), "--plots", str(plots)])
    assert rc == 0
    names = {p.name for p in plots.glob("*.svg")}
    assert {
        "loss_phase1.svg",
        "loss_phase2.svg",
        "loss_phase3.svg",
        "loss_segmentation.svg",
        "dsc_progression.svg",
    } <= names
    for p in plots.glob("*.svg"):
        root = ET.parse(p).getroot()
        assert root.tag.endswith("svg")


def test_report_requires_history(tmp_path, capsys):
    rc = entry(["report", "--run", str(tmp_path), "--plots", str(tmp_path / "p")])
    assert rc == 1
    assert "history.json" in capsys.readouterr().err


# ------------------------------------------------------------------ usage


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        entry(["gen"])  # missing required flags
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        entry(["frobnicate"])
    assert exc.value.code == 2


def test_bad_size_argument_exits_2():
    with pytest.raises(SystemExit) as exc:
        entry(["gen", "--out", "x", "--count", "1", "--size", "64by64"])
    assert exc.value.code == 2
