"""On-disk formats: 8-bit PGM rasters, JSON artifacts and flat float64
weight checkpoints.

JSON artifacts go through `write_json` (two-space indent, final newline) and
`read_json`. They and checkpoints go to ``.<name>.tmp`` and are renamed onto
the target, so a process dying mid-write leaves the previous file whole.

Raster files are binary PGM (magic ``P5``) with maxval 255. Images map
[0, 1] <-> 0..255 by rounding; masks map {0, 1} <-> {0, 255} exactly.

A dataset directory holds ``images/<id>.pgm``, ``masks/<id>.pgm`` and a
``manifest.json``::

    {"meta": {...}, "items": [{"id": ..., "image": ..., "mask": ...,
                               "crop": {...}?}, ...]}

with file paths relative to the directory and an optional crop record
(``source_shape``, ``box`` as [r0, c0, r1, c1], ``pad`` as [top, bottom,
left, right]) when the item was cut out of a larger source. An id is a
plain file name, unique within its manifest, and no path leaves the
directory.

A checkpoint is ``b"CKSM"`` + u32 version (little-endian) + u64 value
count (little-endian) + that many little-endian float64 values (version
2), plus a ``<name>.json`` sidecar holding the layout id and caller
metadata. Version 1 files, whose values are float32, are still read.
"""

from __future__ import annotations

import json
import os
import re
import struct
from pathlib import Path

import numpy as np

from .errors import (
    BadImageDepth,
    BadMagic,
    CorruptManifest,
    CountMismatch,
    MissingFile,
    ValueOutOfRange,
    VersionUnsupported,
)
from .types import PHASE_IDS, BBox, CropRecord, DatasetItem, DatasetPhase, Image, Mask, ParamVector

CHECKPOINT_MAGIC = b"CKSM"
CHECKPOINT_VERSION = 2
# value dtype of each checkpoint version this code reads
_CHECKPOINT_DTYPES = {1: "<f4", 2: "<f8"}


# --------------------------------------------------------------- JSON


def _replace(path: Path, data: str | bytes) -> None:
    tmp = path.with_name(f".{path.name}.tmp")
    (tmp.write_bytes if isinstance(data, bytes) else tmp.write_text)(data)
    os.replace(tmp, path)


def write_json(path, doc) -> None:
    _replace(Path(path), json.dumps(doc, indent=2) + "\n")


def read_json(path):
    """Any JSON value; `MissingFile` if absent, `CorruptManifest` if not JSON."""
    path = Path(path)
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        raise MissingFile(f"no such file: {path}") from None
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorruptManifest(f"{path}: invalid JSON: {exc}") from None


# ---------------------------------------------------------------- PGM


def write_pgm(path, data: np.ndarray) -> None:
    data = np.asarray(data)
    if data.ndim != 2 or data.dtype != np.uint8:
        raise ValueOutOfRange(f"PGM payload must be 2D uint8, got {data.dtype} {data.shape}")
    h, w = data.shape
    Path(path).write_bytes(b"P5\n%d %d\n255\n" % (w, h) + data.tobytes())


def read_pgm(path) -> np.ndarray:
    try:
        raw = Path(path).read_bytes()
    except FileNotFoundError:
        raise MissingFile(f"no such file: {path}") from None
    if not raw.startswith(b"P5"):
        raise BadMagic(f"{path}: not a binary PGM (expected magic P5)")

    pos = 2
    tokens = []
    while len(tokens) < 3:
        while pos < len(raw) and raw[pos : pos + 1].isspace():
            pos += 1
        if pos < len(raw) and raw[pos : pos + 1] == b"#":
            while pos < len(raw) and raw[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise CountMismatch(f"{path}: truncated PGM header")
        tokens.append(raw[start:pos])
    try:
        w, h, maxval = (int(t) for t in tokens)
    except ValueError:
        raise BadMagic(f"{path}: malformed PGM header") from None
    if maxval != 255:
        raise BadImageDepth(f"{path}: only maxval 255 is supported, got {maxval}")
    pos += 1  # single whitespace byte after maxval
    body = raw[pos:]
    if len(body) != h * w:
        raise CountMismatch(f"{path}: expected {h * w} pixel bytes, found {len(body)}")
    return np.frombuffer(body, dtype=np.uint8).reshape(h, w).copy()


def save_image(path, img: Image) -> None:
    write_pgm(path, np.round(img.pixels * 255.0).astype(np.uint8))


def load_image(path) -> Image:
    return Image(read_pgm(path).astype(np.float64) / 255.0)


def save_mask(path, mask: Mask) -> None:
    write_pgm(path, mask.labels * np.uint8(255))


def load_mask(path) -> Mask:
    data = read_pgm(path)
    bad = (data != 0) & (data != 255)
    if bad.any():
        y, x = np.argwhere(bad)[0]
        raise BadImageDepth(
            f"{path}: mask pixels must be 0 or 255, found {data[y, x]} at ({y}, {x})"
        )
    return Mask((data == 255).astype(np.uint8))


# ------------------------------------------------------------ dataset


def crop_to_dict(rec: CropRecord) -> dict:
    b = rec.box
    return {
        "source_shape": list(rec.source_shape),
        "box": [b.row_min, b.col_min, b.row_max, b.col_max],
        "pad": list(rec.pad),
    }


def crop_from_dict(d: dict) -> CropRecord:
    try:
        r0, c0, r1, c1 = (int(v) for v in d["box"])
        return CropRecord(
            tuple(int(v) for v in d["source_shape"]),
            BBox(r0, r1, c0, c1),
            tuple(int(v) for v in d["pad"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptManifest(f"bad crop record {d!r}: {exc}") from None


def save_phase(out_dir, phase: DatasetPhase, meta: dict | None = None) -> Path:
    """Write rasters plus manifest.json; returns the manifest path.

    The phase id rides along in the manifest meta. The manifest is the
    directory's commit record: an older one is removed before the first
    raster is written, and the new one is written last.
    """
    out = Path(out_dir)
    path = out / "manifest.json"
    path.unlink(missing_ok=True)
    (out / "images").mkdir(parents=True, exist_ok=True)
    (out / "masks").mkdir(parents=True, exist_ok=True)
    entries = []
    for i, item in enumerate(phase.items):
        item_id = item.item_id or f"img_{i:05d}"
        img_rel = f"images/{item_id}.pgm"
        msk_rel = f"masks/{item_id}.pgm"
        save_image(out / img_rel, item.image)
        save_mask(out / msk_rel, item.mask)
        entry = {"id": item_id, "image": img_rel, "mask": msk_rel}
        if item.crop is not None:
            entry["crop"] = crop_to_dict(item.crop)
        entries.append(entry)
    manifest = {"meta": {**(meta or {}), "phase_id": phase.phase_id}, "items": entries}
    write_json(path, manifest)
    return path


def load_phase(in_dir) -> tuple[DatasetPhase, dict]:
    """Read a dataset directory; a manifest without a phase id is raw (D3)."""
    root = Path(in_dir)
    path = root / "manifest.json"
    manifest = read_json(path)
    if not isinstance(manifest, dict) or not isinstance(manifest.get("items"), list):
        raise CorruptManifest(f"{path}: expected an object with an 'items' list")

    items = []
    seen = set()
    for i, entry in enumerate(manifest["items"]):
        if not isinstance(entry, dict) or not all(isinstance(entry.get(k), str) for k in ("image", "mask")):
            raise CorruptManifest(f"{path}: bad item entry {entry!r}")
        for key in ("image", "mask"):
            rel = entry[key]
            if os.path.isabs(rel) or os.path.normpath(rel).split(os.sep)[0] == "..":
                raise CorruptManifest(f"{path}: {key} path {rel!r} leaves {root}")
        # the name save_phase and predict give the item's files
        name = entry.get("id") or f"img_{i:05d}"
        if not isinstance(name, str):
            raise CorruptManifest(f"{path}: item id {name!r} is not a string")
        if name in seen:
            raise CorruptManifest(f"{path}: duplicate item id {name!r}")
        seen.add(name)
        img = load_image(root / entry["image"])
        msk = load_mask(root / entry["mask"])
        crop = crop_from_dict(entry["crop"]) if "crop" in entry else None
        items.append(DatasetItem(img, msk, crop, entry.get("id")))
    meta = manifest.get("meta", {})
    meta = meta if isinstance(meta, dict) else {}
    phase_id = meta.get("phase_id", "D3")
    if phase_id not in PHASE_IDS:
        raise CorruptManifest(f"{in_dir}: unknown phase_id {phase_id!r}")
    return DatasetPhase(phase_id, tuple(items)), meta


# --------------------------------------------------------- checkpoints


def save_checkpoint(path, params: ParamVector, meta: dict | None = None) -> None:
    """Write weights as float64 plus a JSON sidecar next to the file."""
    path = Path(path)
    vals = params.values.astype(_CHECKPOINT_DTYPES[CHECKPOINT_VERSION])
    blob = CHECKPOINT_MAGIC + struct.pack("<I", CHECKPOINT_VERSION)
    blob += struct.pack("<Q", vals.size) + vals.tobytes()
    # sidecar first: a crash between the two leaves it naming the newer writer
    sidecar = {"layout_id": params.layout_id, "meta": meta or {}}
    write_json(path.with_suffix(path.suffix + ".json"), sidecar)
    _replace(path, blob)


def load_checkpoint(path) -> tuple[ParamVector, dict]:
    path = Path(path)
    try:
        raw = path.read_bytes()
    except FileNotFoundError:
        raise MissingFile(f"no such checkpoint: {path}") from None
    if raw[:4] != CHECKPOINT_MAGIC:
        raise BadMagic(f"{path}: bad checkpoint magic {raw[:4]!r}")
    if len(raw) < 16:
        raise CountMismatch(f"{path}: truncated checkpoint header")
    (version,) = struct.unpack("<I", raw[4:8])
    if version not in _CHECKPOINT_DTYPES:
        raise VersionUnsupported(f"{path}: version {version} (supported: {sorted(_CHECKPOINT_DTYPES)})")
    dtype = np.dtype(_CHECKPOINT_DTYPES[version])
    (count,) = struct.unpack("<Q", raw[8:16])
    body = raw[16:]
    if len(body) != dtype.itemsize * count:
        raise CountMismatch(f"{path}: expected {dtype.itemsize * count} value bytes, found {len(body)}")
    values = np.frombuffer(body, dtype=dtype).astype(np.float64)

    side_path = path.with_suffix(path.suffix + ".json")
    side = read_json(side_path)
    if not isinstance(side, dict) or not isinstance(side.get("layout_id"), str):
        raise CorruptManifest(f"{side_path}: expected an object with a 'layout_id' string")
    layout_id = side["layout_id"]
    declared = re.search(r"-p(\d+)$", layout_id)
    if declared and int(declared.group(1)) != count:
        raise CountMismatch(
            f"{path}: stores {count} values but layout {layout_id!r} declares {declared.group(1)}"
        )
    meta = side.get("meta", {})
    return ParamVector(values, layout_id), meta if isinstance(meta, dict) else {}
