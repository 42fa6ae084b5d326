"""Correctness checks for the benchmark workloads.

Every check here is computed apart from the program under test: its own
Dice, its own P5 reader, its own crop-window arithmetic and its own count
of optimizer steps. The rest are properties the method must have (finite
losses that sum, masks that match their probabilities). None compares
against a stored copy of earlier output. Each check raises `CheckFailed`
with a message naming what went wrong.

This module imports NumPy but nothing from `curriseg`.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np

ALIGN = 4  # BackboneSpec(depth=2).input_align, restated on purpose


class CheckFailed(AssertionError):
    """A workload output broke a correctness check."""


def _fail(msg: str) -> None:
    raise CheckFailed(msg)


# ------------------------------------------------------------------ Dice


def dice(a: np.ndarray, b: np.ndarray) -> float:
    """2|A∩B| / (|A| + |B|) on two binary arrays; two empty masks give 1."""
    a = np.asarray(a) != 0
    b = np.asarray(b) != 0
    if a.shape != b.shape:
        _fail(f"dice on shapes {a.shape} and {b.shape}")
    size = int(a.sum()) + int(b.sum())
    if size == 0:
        return 1.0
    return 2.0 * int(np.logical_and(a, b).sum()) / size


def check_dice(preds, refs, reported_mean: float, reported_items=None, tol: float = 1e-12) -> float:
    """Recompute the mean Dice and compare it with the program's figure.

    `reported_items`, when given, is the program's per-item list in the
    same order and is compared item by item.
    """
    if len(preds) != len(refs) or not preds:
        _fail(f"{len(preds)} predictions vs {len(refs)} references")
    scores = [dice(p, r) for p, r in zip(preds, refs)]
    if reported_items is not None:
        if len(reported_items) != len(scores):
            _fail(f"report has {len(reported_items)} items, expected {len(scores)}")
        for i, (got, want) in enumerate(zip(reported_items, scores)):
            if abs(got - want) > tol:
                _fail(f"item {i}: reported Dice {got!r} != recomputed {want!r}")
    mean = float(np.mean(scores))
    if not abs(reported_mean - mean) <= tol:
        _fail(f"reported mean Dice {reported_mean!r} != recomputed {mean!r}")
    return mean


def check_floor(name: str, value: float, floor: float) -> None:
    if not value >= floor:
        _fail(f"{name} = {value:.4f} is below its floor {floor}")


# ------------------------------------------------------------------- PGM


def read_pgm(path) -> np.ndarray:
    """Minimal binary PGM (P5, maxval 255) reader."""
    raw = Path(path).read_bytes()
    if raw[:2] != b"P5":
        _fail(f"{path}: not a P5 file")
    fields: list[int] = []
    pos = 2
    while len(fields) < 3:
        while pos < len(raw) and raw[pos] in b" \t\r\n":
            pos += 1
        if pos < len(raw) and raw[pos] == ord("#"):
            pos = raw.index(b"\n", pos)
            continue
        end = pos
        while end < len(raw) and raw[end] not in b" \t\r\n":
            end += 1
        if end == pos:
            _fail(f"{path}: truncated header")
        fields.append(int(raw[pos:end]))
        pos = end
    width, height, maxval = fields
    if maxval != 255:
        _fail(f"{path}: maxval {maxval}")
    body = raw[pos + 1 :]
    if len(body) != width * height:
        _fail(f"{path}: {len(body)} pixel bytes for {width}x{height}")
    return np.frombuffer(body, dtype=np.uint8).reshape(height, width)


def read_mask_pgm(path) -> np.ndarray:
    """A stored mask as a {0, 1} array; any byte but 0 and 255 fails."""
    data = read_pgm(path)
    if not np.isin(data, (0, 255)).all():
        _fail(f"{path}: mask bytes outside {{0, 255}}")
    return (data == 255).astype(np.uint8)


# ---------------------------------------------------------------- losses


def check_history(entries) -> None:
    """Every history loss is finite and l_total is the sum of its parts."""
    if not entries:
        _fail("empty training history")
    for e in entries:
        parts = (e["l_iou"], e["l_bce"], e["l_s"], e["l_total"])
        if not all(isinstance(v, float) and math.isfinite(v) for v in parts):
            _fail(f"non-finite loss in history entry {e}")
        expect = e["l_iou"] + e["l_bce"] + e["l_s"]
        if abs(e["l_total"] - expect) > 1e-9 * max(1.0, abs(expect)):
            _fail(f"l_total {e['l_total']!r} != l_iou + l_bce + l_s = {expect!r} in {e}")


# --------------------------------------------------------- cache updates


def optimizer_steps(n_items: int, epochs: int, batch_size: int) -> int:
    """Steps one stage takes: one per batch, the last batch may be short."""
    return epochs * (-(-n_items // batch_size))


def check_updates(name: str, got: int, want: int) -> None:
    if got != want:
        _fail(f"{name}.updates = {got}, expected {want} optimizer steps")


# ------------------------------------------------------------------ crops


def crop_window(box, margin: int, shape) -> tuple[int, int, int, int]:
    """(r0, r1, c0, c1), inclusive: `box` grown by `margin`, clipped.

    `box` is (r0, r1, c0, c1) or None for the whole image.
    """
    h, w = shape
    if box is None:
        return 0, h - 1, 0, w - 1
    r0, r1, c0, c1 = box
    return max(r0 - margin, 0), min(r1 + margin, h - 1), max(c0 - margin, 0), min(c1 + margin, w - 1)


def d1_crop_shape(mask: np.ndarray, margin: int) -> tuple[int, int]:
    """Sides of the ground-truth crop of a non-empty mask: its bounding box
    grown by `margin`, clipped to the frame, padded up to ALIGN."""
    rows, cols = np.nonzero(mask)
    r0, r1, c0, c1 = crop_window((rows.min(), rows.max(), cols.min(), cols.max()), margin, mask.shape)
    return -(-(r1 - r0 + 1) // ALIGN) * ALIGN, -(-(c1 - c0 + 1) // ALIGN) * ALIGN


def check_d1(pairs, d3_masks, margin: int) -> tuple[float, float]:
    """D1 crops have the sides the margin implies, keep every foreground
    pixel, and are denser than D3.

    `pairs` holds (raw mask, crop mask) for every D1 item. Returns the
    foreground ratios of D1 and D3.
    """
    if not pairs:
        _fail("D1 is empty")
    for i, (raw, crop) in enumerate(pairs):
        if crop.shape != d1_crop_shape(raw, margin):
            _fail(f"D1 item {i}: crop sides {crop.shape}, expected {d1_crop_shape(raw, margin)}")
        if int(np.count_nonzero(crop)) != int(np.count_nonzero(raw)):
            _fail(
                f"D1 item {i}: crop keeps {np.count_nonzero(crop)} of "
                f"{np.count_nonzero(raw)} foreground pixels"
            )
    r1 = sum(int(np.count_nonzero(c)) for _, c in pairs) / sum(c.size for _, c in pairs)
    r3 = sum(int(np.count_nonzero(m)) for m in d3_masks) / sum(m.size for m in d3_masks)
    if not r1 >= r3:
        _fail(f"D1 foreground ratio {r1:.4f} < D3 foreground ratio {r3:.4f}")
    return r1, r3


def check_d2_records(records) -> None:
    """Each D2 record, as stored in the manifest, lies inside its source
    and yields aligned sides. `records` holds (crop dict, image shape)."""
    if not records:
        _fail("D2 is empty")
    for i, (rec, image_shape) in enumerate(records):
        h, w = rec["source_shape"]
        r0, c0, r1, c1 = rec["box"]
        pt, pb, pl, pr = rec["pad"]
        if not (0 <= r0 <= r1 < h and 0 <= c0 <= c1 < w):
            _fail(f"D2 item {i}: box {rec['box']} outside source {h}x{w}")
        out = (r1 - r0 + 1 + pt + pb, c1 - c0 + 1 + pl + pr)
        if out[0] % ALIGN or out[1] % ALIGN:
            _fail(f"D2 item {i}: crop sides {out} not multiples of {ALIGN}")
        if tuple(image_shape) != out:
            _fail(f"D2 item {i}: stored image {tuple(image_shape)} != record sides {out}")


def d2_summary(records) -> tuple[float, int]:
    """Mean crop size in kpx and the count of crops that span the whole
    source frame."""
    kpx = [s[0] * s[1] / 1000.0 for _, s in records]
    full = 0
    for rec, _ in records:
        h, w = rec["source_shape"]
        r0, c0, r1, c1 = rec["box"]
        full += (r0, c0, r1, c1) == (0, 0, h - 1, w - 1)
    return float(np.mean(kpx)), full


# ------------------------------------------------------------ prediction


def check_prediction(mask, pasted, window, final_threshold: float, n_iters: int, max_iters: int) -> None:
    """The final mask is its pasted probabilities thresholded, both are
    zero outside the last crop window, and the loop kept its budget."""
    mask = np.asarray(mask)
    if not 1 <= n_iters <= max_iters:
        _fail(f"trace has {n_iters} passes, budget is {max_iters}")
    if pasted is not None:
        pasted = np.asarray(pasted)
        if not np.array_equal(mask != 0, pasted > final_threshold):
            _fail("final mask differs from its pasted probabilities thresholded")
    check_outside(mask, window, "mask")
    if pasted is not None:
        check_outside(pasted, window, "pasted probabilities")


def check_outside(arr: np.ndarray, window, what: str) -> None:
    r0, r1, c0, c1 = window
    inside = np.zeros(arr.shape, dtype=bool)
    inside[r0 : r1 + 1, c0 : c1 + 1] = True
    if np.any(arr[~inside] != 0):
        _fail(f"{what} non-zero outside the last crop window {window}")


# ----------------------------------------------------------- determinism


def digest_run_dir(run_dir) -> str:
    """sha256 over the names and bytes of a run directory's checkpoints
    (with their sidecars) and history.json."""
    root = Path(run_dir)
    files = sorted(root.glob("*.ckpt")) + sorted(root.glob("*.ckpt.json")) + [root / "history.json"]
    h = hashlib.sha256()
    for f in files:
        h.update(f.name.encode() + b"\0")
        h.update(f.read_bytes())
    return h.hexdigest()


def digest_arrays(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def check_same(name: str, first: str, now: str) -> None:
    if first != now:
        _fail(f"{name} digest changed between rounds of one run: {first[:12]} -> {now[:12]}")
