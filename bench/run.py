"""curriseg benchmark: one workload per process, tracing off or on.

    python3 bench/run.py --workload curriculum --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

`--workload all` runs every workload, each in a process of its own, and
prints a table of every metric with its unit. With one workload the last
line of standard output is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics with `--trace 0` and the per-layer
metrics with `--trace 1`. A run repeats whole rounds of its workload
until `--seconds` have passed and reports medians over rounds. Result
files (the same object plus extra end-to-end figures, an environment
fingerprint, and with tracing the per-layer table and the spans) go to
`bench/out/results/`. See bench/README.md.
"""

from __future__ import annotations

import os

# BLAS must be pinned before NumPy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
NAMES = ("curriculum", "predict_refine", "raw_large_cli")
SETUPS = 3  # set-up repeats per run; setup_s is their median


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true", help="tiny inputs, one set-up and one round")
    return p.parse_args(argv)


def _fail(msg: str) -> int:
    print(f"bench: {msg}", file=sys.stderr)
    return 2


def _percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in (0, 100])."""
    s = sorted(values)
    k = max(0, min(len(s) - 1, -(-len(s) * q // 100) - 1))
    return float(s[int(k)])


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None if done.returncode == 0 else None


def _src_digest() -> str:
    h = hashlib.sha256()
    for f in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(f.relative_to(ROOT)).encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
    }


def run_one(args) -> int:
    if not (ROOT / "src" / "curriseg" / "__init__.py").is_file():
        return _fail(f"no curriseg sources under {ROOT / 'src'}")
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import checks
    import tracer as tr
    from workloads import CACHE_DIR, SIZES, WORKLOADS

    if args.workload == "predict_refine" and not (CACHE_DIR / "detection_cache.ckpt").is_file():
        return _fail(f"frozen caches missing from {CACHE_DIR}; run bench/make_caches.py")

    mode = "quick" if args.quick else "full"
    work_dir = OUT / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    wl = WORKLOADS[args.workload](args.seed, SIZES[args.workload][mode], work_dir)
    full = tr.Tracer() if args.trace else None
    probe = tr.Tracer(only={tr.TRAIN_STEP}) if args.trace else None

    setup_times = []
    if full:
        full.install()
    for _ in range(1 if args.quick else SETUPS):
        t0 = time.perf_counter()
        wl.setup()
        setup_times.append(time.perf_counter() - t0)
    if full:
        full.uninstall()
        full.tag = "round"

    done, traced, probed = [], [], []
    correct, error = True, None
    start = time.perf_counter()
    try:
        while True:
            # with tracing, rounds alternate: train-step probe, then fully traced
            active = None
            if args.trace:
                active = probe if len(probed) <= len(traced) else full
                active.install()
            try:
                r = wl.round()
            finally:
                if active is not None:
                    active.uninstall()
            if active is not None:
                (traced if active is full else probed).append(r.wall_s)
            done.append(r)
            wl.check(r)
            r.outputs = None
            enough = args.quick or time.perf_counter() - start >= args.seconds
            if enough and (not args.trace or traced):
                break
    except checks.CheckFailed as exc:
        correct, error = False, str(exc)
        print(f"bench: check failed: {exc}", file=sys.stderr)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = sum(r.attempted for r in done)
    failed = sum(r.failed for r in done)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    lat = [x for r in done for x in r.latencies_ms]
    distinct = len(done[0].latencies_ms) if done else 0  # rounds repeat the same images
    extra = {
        "train_kpx_per_s": (statistics.median(wl.train_kpx / r.train_s for r in done) if wl.train_kpx and done else None, "kpx/s"),
        "predict_ms_p50": (_percentile(lat, 50) if lat else None, "ms"),
        "predict_ms_p90": (_percentile(lat, 90) if distinct >= 100 else None, "ms"),
        "dsc": (wl.dsc, "Dice"),
        "latency_samples": (len(lat), "count"),
        "rounds": (len(done), "count"),
    }
    if args.trace:
        d2_kpx, d2_full = wl.d2
        probe_rounds = max(len(probed), 1)
        layer_extra = {
            "d2_mean_crop_kpx": d2_kpx,
            "d2_full_frame_items": d2_full,
            "overhead": statistics.median(traced) / statistics.median(probed) if probed and traced else 0.0,
            "probe_train_step_s": sum(s.dur for s in probe.spans) / probe_rounds,
        }
        raw = tr.per_layer_metrics(full.spans, len(traced), sum(traced), layer_extra)
        metrics = {k: {"value": float(v), "unit": u} for k, (v, u) in raw.items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "run_s": {"value": statistics.median(r.wall_s for r in done), "unit": "s"},
            "predict_images_per_s": {
                "value": statistics.median(r.n_predicted / r.predict_s for r in done),
                "unit": "images/s",
            },
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}

    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "mode": mode,
        "result": result,
        "error": error,
        "extra_end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
        "setup_s": setup_times,
        "round_s": [r.wall_s for r in done],
        "digest": wl.first_digest,
        "environment": environment(),
    }
    if args.trace:
        doc["traced_round_s"] = traced
        doc["probe_round_s"] = probed
        doc["layer_table"] = tr.layer_table(full.spans, len(traced))
        doc["train_step_rows_ms"] = tr.train_step_rows(full.spans, len(traced))
    res_dir = OUT / "results"
    res_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (res_dir / f"{stem}.json").write_text(json.dumps(doc, indent=2) + "\n")
    if args.trace:
        with open(res_dir / f"{stem}-spans.jsonl", "w") as fh:
            for s in full.spans:
                fh.write(json.dumps([s.sid, s.parent, s.name, s.t0, s.t1, s.tag]) + "\n")

    for k, v in extra.items():
        if v[0] is not None:
            print(f"# {args.workload} {k} = {v[0]:.6g} {v[1]}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in a process of its own; prints a metric table."""
    width = 0
    rows = []
    for name in NAMES:
        argv = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.quick:
            argv.append("--quick")
        done = subprocess.run(argv, capture_output=True, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            return done.returncode
        lines = done.stdout.strip().splitlines()
        res = json.loads(lines[-1])
        rows.append((name, "correct", str(res["correct"]), ""))
        rows.append((name, "failed/attempted", f"{res['failed']}/{res['attempted']}", ""))
        for k, m in res["metrics"].items():
            rows.append((name, k, f"{m['value']:.6g}", m["unit"]))
        for line in lines[:-1]:
            if line.startswith("# "):
                _, _, k, _, v, unit = line.split(" ", 5)
                rows.append((name, k, v, unit))
        width = max(width, max(len(r[1]) for r in rows))
    for name, k, v, unit in rows:
        print(f"{name:16s} {k:{width}s} {v:>14} {unit}")
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
