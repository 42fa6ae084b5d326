"""Regenerate the frozen caches that the `predict_refine` workload loads.

    python3 bench/make_caches.py

Runs the README walkthrough through the `curriseg` CLI with the default
(reference) configuration: a 200-item training set (seed 7), a 50-item
validation set (seed 8), then a bare `curriseg train`, which resolves to
`PhaseConfig` plus the CLI `DEFAULT_CONFIG` values. The two EMA caches of
that run, with their sidecars, are copied into `bench/caches/`. The work
directory `bench/out/cache_run/` is left behind for inspection. The run
takes about five minutes on one core and is bit-reproducible.
"""

from __future__ import annotations

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

from curriseg.cli import entry  # noqa: E402

CACHE_FILES = ("detection_cache.ckpt", "segmentation_cache.ckpt")


def main() -> int:
    work = BENCH / "out" / "cache_run"
    if work.exists():
        shutil.rmtree(work)
    steps = [
        ["gen", "--out", str(work / "train"), "--count", "200", "--seed", "7"],
        ["gen", "--out", str(work / "val"), "--count", "50", "--seed", "8"],
        ["train", "--data", str(work / "train"), "--val", str(work / "val"), "--out", str(work / "run")],
    ]
    for argv in steps:
        code = entry(argv)
        if code != 0:
            print(f"curriseg {' '.join(argv)} exited with {code}", file=sys.stderr)
            return code
    dest = BENCH / "caches"
    dest.mkdir(exist_ok=True)
    for name in CACHE_FILES:
        for suffix in ("", ".json"):
            shutil.copyfile(work / "run" / (name + suffix), dest / (name + suffix))
    print(f"caches written to {dest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
