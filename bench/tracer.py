"""Span tracing of the `curriseg` layers, installed from outside.

`Tracer.install()` replaces every public function of the layer modules
with a wrapper that records one span per call: its name, parent span,
start, end, the pixels it was handed and, for a few functions, a detail
of its result. The replacement is made in every `curriseg` module that
holds a reference to the function, so calls made through
`from .x import f` names are traced too. `uninstall()` restores the
originals. No file of the program changes.

Spans stay in memory; `layer_table()` and `per_layer_metrics()` reduce
them when the run ends.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict
from pathlib import Path

LAYER_MODULES = (
    "backbone",
    "losses",
    "geometry",
    "ema",
    "trainer",
    "predictor",
    "storage",
    "evaluation",
    "synthdata",
)
STAGES = ("phase1", "phase2", "phase3", "segmentation")
TRAIN_STEP = "backbone.train_step"


def _px(obj) -> int:
    """Pixels of an Image/Mask/ProbMap/2D array, else 0."""
    shape = getattr(obj, "shape", None)
    if shape is not None and len(shape) == 2:
        return int(shape[0]) * int(shape[1])
    return 0


def _batch_px(batch) -> int:
    return sum(_px(img) for img, _ in batch)


# Pixels each traced function is handed, keyed by "<module>.<function>".
WORK = {
    "backbone.forward": lambda a: _px(a[2]),
    "backbone.loss_and_grad": lambda a: _batch_px(a[2]),
    "backbone.train_step": lambda a: _batch_px(a[2]),
    "ema.cache_forward": lambda a: _px(a[2]),
    "losses.loss_total": lambda a: _px(a[0]),
    "losses.loss_grad": lambda a: _px(a[0]),
    "geometry.gaussian_smooth": lambda a: _px(a[0]),
    "geometry.gaussian_smooth_adjoint": lambda a: _px(a[0]),
    "predictor.predict": lambda a: _px(a[0]),
}

# Samples in a batch, for the functions that take one.
SAMPLES = {
    "backbone.loss_and_grad": lambda a: len(a[2]),
    "backbone.train_step": lambda a: len(a[2]),
}


def _predict_info(result):
    trace = result[2]
    return (trace.n_iters, any(r.fallback for r in trace.iterations))


# A detail of the call kept on the span.
INFO = {
    "predictor.predict": lambda a, r: _predict_info(r),
    "storage.save_checkpoint": lambda a, r: Path(a[0]).stem,
    "synthdata.generate": lambda a, r: len(r.items),
}


def _safe(fn, *args):
    """Apply an extractor; a call shaped differently yields None."""
    try:
        return fn(*args)
    except (IndexError, AttributeError, TypeError, ValueError):
        return None


class Span:
    __slots__ = ("sid", "parent", "name", "t0", "t1", "px", "samples", "info", "tag")

    def __init__(self, sid, parent, name, t0, px, samples, tag):
        self.sid = sid
        self.parent = parent
        self.name = name
        self.t0 = t0
        self.t1 = t0
        self.px = px
        self.samples = samples
        self.info = None
        self.tag = tag

    @property
    def dur(self) -> float:
        return self.t1 - self.t0


def layer_functions() -> dict:
    """{"<module>.<function>": function} for every public function the
    layer modules define."""
    out = {}
    for short in LAYER_MODULES:
        mod = importlib.import_module(f"curriseg.{short}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ == mod.__name__:
                out[f"{short}.{name}"] = obj
    return out


class Tracer:
    """Records spans of the layer functions while installed.

    `only`, when given, limits the wrapping to those names; the benchmark
    uses it to time the train step alone, as the reference that the
    fully traced rows are held against.
    """

    def __init__(self, only=None):
        funcs = layer_functions()
        if only is not None:
            funcs = {k: v for k, v in funcs.items() if k in only}
        self.funcs = funcs
        self.spans: list[Span] = []
        self.tag = "setup"
        self._stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        work, samples, info = WORK.get(name), SAMPLES.get(name), INFO.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1].sid if stack else -1
            span = Span(
                len(spans),
                parent,
                name,
                0.0,
                (_safe(work, args) or 0) if work else 0,
                (_safe(samples, args) or 0) if samples else 0,
                self.tag,
            )
            spans.append(span)
            stack.append(span)
            span.t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.t1 = clock()
                stack.pop()
            if info is not None:
                span.info = _safe(info, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def install(self) -> None:
        if self._patched:
            return
        by_id = {id(fn): (name, fn) for name, fn in self.funcs.items()}
        wrappers = {name: self._wrap(name, fn) for name, fn in self.funcs.items()}
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "curriseg" or mod_name.startswith("curriseg.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = by_id.get(id(value))
                if hit is not None and hit[1] is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrappers[hit[0]])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()


# ------------------------------------------------------------- reduction


def _self_times(spans) -> dict[int, float]:
    child = defaultdict(float)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.dur
    return {s.sid: s.dur - child[s.sid] for s in spans}


def _under(spans, name) -> set[int]:
    """Ids of the spans that are `name` or run inside one."""
    inside: set[int] = set()
    for s in spans:  # parents precede children in the list
        if s.name == name or s.parent in inside:
            inside.add(s.sid)
    return inside


def _stage_of_train_spans(spans) -> dict[int, str]:
    """Assign each train step and cache update to the stage whose
    checkpoint is saved next; run_full saves one after every stage."""
    out: dict[int, str] = {}
    pending: list[int] = []
    for s in sorted(spans, key=lambda s: s.t0):
        if s.name in (TRAIN_STEP, "ema.cache_update"):
            pending.append(s.sid)
        elif s.name == "storage.save_checkpoint" and s.info in STAGES:
            for sid in pending:
                out[sid] = s.info
            pending = []
    return out


def layer_table(spans, rounds: int) -> dict:
    """Per function: calls, total and self milliseconds and kpx, per
    traced round (setup spans are reported under their own key)."""
    self_t = _self_times(spans)
    table: dict = {}
    for tag in ("setup", "round"):
        rows: dict = defaultdict(lambda: {"calls": 0, "total_ms": 0.0, "self_ms": 0.0, "kpx": 0.0})
        for s in spans:
            if s.tag != tag:
                continue
            r = rows[s.name]
            r["calls"] += 1
            r["total_ms"] += s.dur * 1e3
            r["self_ms"] += self_t[s.sid] * 1e3
            r["kpx"] += s.px / 1000.0
        div = max(rounds, 1) if tag == "round" else 1
        table[tag] = {
            name: {k: v / div for k, v in r.items()} for name, r in sorted(rows.items())
        }
    return table


def train_step_rows(spans, rounds: int) -> dict:
    """Self milliseconds per round of every layer row inside train steps."""
    self_t = _self_times(spans)
    inside = _under([s for s in spans if s.tag == "round"], TRAIN_STEP)
    rows: dict = defaultdict(float)
    for s in spans:
        if s.sid in inside:
            rows[s.name] += self_t[s.sid] * 1e3 / max(rounds, 1)
    return dict(sorted(rows.items()))


def per_layer_metrics(spans, rounds: int, traced_wall_s: float, extra: dict) -> dict:
    """The per-layer metrics named in BENCHMARK.json, as {name: (value, unit)}.

    A layer that did no work in this workload reads 0. `extra` carries
    figures the workload measured itself (D2 crop sizes, the probe
    train-step time, the untraced round time).
    """
    self_t = _self_times(spans)
    rs = [s for s in spans if s.tag == "round"]
    n = max(rounds, 1)
    by = defaultdict(list)
    for s in rs:
        by[s.name].append(s)
    every = defaultdict(list)
    for s in spans:
        every[s.name].append(s)

    def tot(name, spans_=None):
        return sum(s.dur for s in (by[name] if spans_ is None else spans_))

    def kpx(name):
        return sum(s.px for s in by[name]) / 1000.0

    def per_kpx(ms, k):
        return ms / k if k else 0.0

    def mean_ms(name):
        ss = every[name]
        return 1e3 * tot(name, ss) / len(ss) if ss else 0.0

    def self_ms(name):
        ss = by[name]
        return 1e3 * sum(self_t[s.sid] for s in ss) / len(ss) if ss else 0.0

    train_inside = _under(rs, TRAIN_STEP)
    samples = sum(s.samples for s in by[TRAIN_STEP])
    smooth_in_train = sum(1 for s in by["geometry.gaussian_smooth"] if s.sid in train_inside)

    m = {}
    lg = by["backbone.loss_and_grad"]
    m["backbone.loss_and_grad.self_ms_per_kpx"] = (
        per_kpx(1e3 * sum(self_t[s.sid] for s in lg), kpx("backbone.loss_and_grad")),
        "ms/kpx",
    )
    m["backbone.loss_and_grad.samples"] = (sum(s.samples for s in lg) / n, "count")
    m["backbone.forward.ms_per_kpx"] = (per_kpx(1e3 * tot("backbone.forward"), kpx("backbone.forward")), "ms/kpx")
    m["backbone.forward.calls"] = (len(by["backbone.forward"]) / n, "count")
    m["backbone.train_step.self_ms"] = (self_ms(TRAIN_STEP), "ms")
    cu = by["ema.cache_update"]
    m["ema.cache_update.us_per_call"] = (1e6 * tot("ema.cache_update") / len(cu) if cu else 0.0, "us")
    m["ema.cache_update.calls"] = (len(cu) / n, "count")
    for name in ("losses.loss_total", "losses.loss_grad", "geometry.gaussian_smooth"):
        m[f"{name}.ms_per_kpx"] = (per_kpx(1e3 * tot(name), kpx(name)), "ms/kpx")
    m["geometry.gaussian_smooth.calls_per_sample"] = (smooth_in_train / samples if samples else 0.0, "count")
    m["trainer.build_d2.s"] = (tot("trainer.build_d2") / n, "s")
    m["trainer.d2.mean_crop_kpx"] = (extra.get("d2_mean_crop_kpx", 0.0), "kpx")
    m["trainer.d2.full_frame_items"] = (extra.get("d2_full_frame_items", 0), "count")
    stage_of = _stage_of_train_spans(rs)
    for stage in STAGES:
        mine = [s for s in rs if stage_of.get(s.sid) == stage]
        m[f"trainer.{stage}.train_s"] = (sum(s.dur for s in mine) / n, "s")
        m[f"trainer.{stage}.kpx"] = (sum(s.px for s in mine if s.name == TRAIN_STEP) / 1000.0 / n, "kpx")
    m["trainer.detection_dsc.s"] = (tot("trainer.detection_dsc") / n, "s")
    m["trainer.end_to_end_dsc.s"] = (tot("trainer.end_to_end_dsc") / n, "s")
    pr = [s for s in by["predictor.predict"] if s.info is not None]
    m["predictor.predict.self_ms"] = (self_ms("predictor.predict"), "ms")
    m["predictor.predict.iters_per_image"] = (sum(s.info[0] for s in pr) / len(pr) if pr else 0.0, "count")
    m["predictor.predict.fallback_images"] = (sum(1 for s in pr if s.info[1]) / n, "count")
    m["geometry.crop_like.calls"] = (len(by["geometry.crop_like"]) / n, "count")
    m["geometry.paste_back.ms"] = (mean_ms("geometry.paste_back"), "ms")
    for name in (
        "storage.save_checkpoint",
        "storage.load_checkpoint",
        "storage.save_phase",
        "storage.load_phase",
        "storage.save_mask",
        "evaluation.evaluate_set",
    ):
        m[f"{name}.ms"] = (mean_ms(name), "ms")
    gen = every["synthdata.generate"]
    items = sum(s.info for s in gen if s.info)
    m["synthdata.generate.ms_per_item"] = (1e3 * tot("synthdata.generate", gen) / items if items else 0.0, "ms")
    top = sum(s.dur for s in rs if s.parent < 0)
    m["trace.coverage"] = (top / traced_wall_s if traced_wall_s else 0.0, "ratio")
    m["trace.overhead"] = (extra.get("overhead", 0.0), "ratio")
    probe = extra.get("probe_train_step_s", 0.0)
    rows = sum(self_t[s.sid] for s in rs if s.sid in train_inside) / n
    m["trace.train_step_coverage"] = (rows / probe if probe else 0.0, "ratio")
    return m
