import json
import struct

import numpy as np
import pytest

from curriseg import (
    BadImageDepth,
    BadMagic,
    BBox,
    CorruptManifest,
    CountMismatch,
    CropRecord,
    DatasetItem,
    DatasetPhase,
    Image,
    Mask,
    MissingFile,
    ParamVector,
    Rng,
    ValueOutOfRange,
    VersionUnsupported,
    generate,
    GenConfig,
    init_params,
    BackboneSpec,
    load_checkpoint,
    load_image,
    load_mask,
    load_phase,
    read_pgm,
    save_checkpoint,
    save_image,
    save_mask,
    save_phase,
    write_pgm,
)
from curriseg import storage
from curriseg.storage import read_json, write_json

# -------------------------------------------------------------------- PGM


def test_pgm_round_trip(tmp_path):
    data = (Rng(1).uniforms(35 * 17) * 255).astype(np.uint8).reshape(35, 17)
    p = tmp_path / "x.pgm"
    write_pgm(p, data)
    np.testing.assert_array_equal(read_pgm(p), data)


def test_pgm_header_with_comments(tmp_path):
    p = tmp_path / "c.pgm"
    p.write_bytes(b"P5\n# a comment\n2 3\n# another\n255\n" + bytes(6))
    assert read_pgm(p).shape == (3, 2)


def test_pgm_errors(tmp_path):
    with pytest.raises(MissingFile):
        read_pgm(tmp_path / "absent.pgm")

    bad_magic = tmp_path / "m.pgm"
    bad_magic.write_bytes(b"P6\n2 2\n255\n" + bytes(12))
    with pytest.raises(BadMagic):
        read_pgm(bad_magic)

    bad_depth = tmp_path / "d.pgm"
    bad_depth.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
    with pytest.raises(BadImageDepth):
        read_pgm(bad_depth)

    short = tmp_path / "s.pgm"
    short.write_bytes(b"P5\n4 4\n255\n" + bytes(7))
    with pytest.raises(CountMismatch):
        read_pgm(short)


def test_image_round_trip_8bit_lossless(tmp_path):
    # quantized intensities (k/255) survive the byte round trip exactly
    arr = (Rng(2).uniforms(64) * 255).round().reshape(8, 8) / 255.0
    p = tmp_path / "i.pgm"
    save_image(p, Image(arr))
    np.testing.assert_array_equal(load_image(p).pixels, arr)


def test_mask_round_trip_and_strictness(tmp_path):
    m = Mask((Rng(3).uniforms(64).reshape(8, 8) < 0.3).astype(np.uint8))
    p = tmp_path / "m.pgm"
    save_mask(p, m)
    assert set(np.unique(read_pgm(p))) <= {0, 255}
    np.testing.assert_array_equal(load_mask(p).labels, m.labels)

    gray = tmp_path / "gray.pgm"
    write_pgm(gray, np.full((2, 2), 128, dtype=np.uint8))
    with pytest.raises(BadImageDepth):
        load_mask(gray)


# ------------------------------------------------------------------ dataset


def test_dataset_round_trip(tmp_path):
    phase = generate(GenConfig(count=5, height=32, width=32, seed=6))
    save_phase(tmp_path / "d", phase)
    back, meta = load_phase(tmp_path / "d")
    assert len(back.items) == 5
    for a, b in zip(back.items, phase.items):
        np.testing.assert_array_equal(a.image.pixels, b.image.pixels)
        np.testing.assert_array_equal(a.mask.labels, b.mask.labels)
        assert a.item_id == b.item_id


def test_dataset_preserves_crop_records(tmp_path):
    img = Image(np.full((6, 8), 0.5))
    msk = Mask(np.zeros((6, 8), dtype=np.uint8))
    rec = CropRecord((16, 16), BBox(2, 6, 3, 9), pad=(0, 1, 0, 1))
    save_phase(tmp_path / "d", DatasetPhase("D1", (DatasetItem(img, msk, crop=rec, item_id="a"),)))
    back, _ = load_phase(tmp_path / "d")
    assert back.items[0].crop == rec


def test_phase_round_trip(tmp_path):
    phase = generate(GenConfig(count=3, height=32, width=32, seed=8))
    save_phase(tmp_path / "p", phase, meta={"note": "x"})
    back, meta = load_phase(tmp_path / "p")
    assert back.phase_id == "D3"
    assert meta["phase_id"] == "D3" and meta["note"] == "x"


def test_interrupted_save_phase_leaves_no_manifest(tmp_path, monkeypatch):
    # the manifest is the commit record: an older one must not survive a
    # rewrite that stops among the rasters
    save_phase(tmp_path / "p", generate(GenConfig(count=3, height=16, width=16, seed=1)))
    save_image = storage.save_image
    written = []

    def crash_on_second_image(path, img):
        written.append(path)
        if len(written) == 2:
            raise KeyboardInterrupt("crashed while writing the rasters")
        return save_image(path, img)

    monkeypatch.setattr(storage, "save_image", crash_on_second_image)
    with pytest.raises(KeyboardInterrupt):
        save_phase(tmp_path / "p", generate(GenConfig(count=3, height=16, width=16, seed=2)))
    monkeypatch.undo()
    with pytest.raises(MissingFile):
        load_phase(tmp_path / "p")


def test_manifest_errors(tmp_path):
    with pytest.raises(MissingFile):
        load_phase(tmp_path / "nothing")

    d = tmp_path / "bad"
    d.mkdir()
    (d / "manifest.json").write_text("{not json")
    with pytest.raises(CorruptManifest):
        load_phase(d)

    (d / "manifest.json").write_text(json.dumps({"items": "nope"}))
    with pytest.raises(CorruptManifest):
        load_phase(d)


def test_manifest_missing_raster_named(tmp_path):
    d = tmp_path / "d"
    d.mkdir()
    manifest = {"meta": {}, "items": [{"id": "a", "image": "images/a.pgm", "mask": "masks/a.pgm"}]}
    (d / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(MissingFile) as exc:
        load_phase(d)
    assert "a.pgm" in str(exc.value)


def test_phase_rejects_unknown_id(tmp_path):
    d = tmp_path / "p"
    d.mkdir()
    (d / "manifest.json").write_text(json.dumps({"meta": {"phase_id": "D7"}, "items": []}))
    with pytest.raises(CorruptManifest):
        load_phase(d)


def files_under(root):
    return sorted(str(p.relative_to(root)) for p in root.rglob("*"))


def edited_dataset(tmp_path, edit):
    """A saved three-item dataset whose manifest items went through `edit`."""
    d = tmp_path / "in" / "d"
    save_phase(d, generate(GenConfig(count=3, height=16, width=16, seed=1)))
    manifest = json.loads((d / "manifest.json").read_text())
    edit(manifest["items"])
    (d / "manifest.json").write_text(json.dumps(manifest))
    return d


def test_item_id_that_leaves_the_directory_is_refused(tmp_path):
    def escape(items):
        items[1]["id"] = "../../escaped"

    d = edited_dataset(tmp_path, escape)
    before = files_under(tmp_path)
    with pytest.raises(ValueOutOfRange, match="'../../escaped'"):
        phase, _ = load_phase(d)
        save_phase(tmp_path / "out" / "d", phase)
    assert files_under(tmp_path) == before


@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(lambda items: items[2].update(id=items[0]["id"]), id="duplicate_id"),
        # an item without an id is named by its index, as save_phase names it
        pytest.param(lambda items: (items[0].pop("id"), items[1].update(id="img_00000")), id="duplicate_default_id"),
        pytest.param(lambda items: items[1].update(image="/outside/img_00001.pgm"), id="absolute_image"),
        pytest.param(lambda items: items[1].update(mask="../masks/img_00001.pgm"), id="parent_mask"),
        pytest.param(lambda items: items[1].update(image="images/../../d/images/img_00001.pgm"), id="dotdot_image"),
        pytest.param(lambda items: items[1].update(id=["img"]), id="list_id"),
    ],
)
def test_manifest_with_clashing_or_escaping_entries_is_refused(tmp_path, edit):
    d = edited_dataset(tmp_path, edit)
    before = files_under(tmp_path)
    with pytest.raises(CorruptManifest):
        phase, _ = load_phase(d)
        save_phase(tmp_path / "out" / "d", phase)
    assert files_under(tmp_path) == before


def test_manifest_paths_inside_the_directory_are_read(tmp_path):
    d = edited_dataset(tmp_path, lambda items: items[1].update(image="masks/../images/img_00001.pgm"))
    phase, _ = load_phase(d)
    assert [it.item_id for it in phase.items] == ["img_00000", "img_00001", "img_00002"]


def test_json_artifact_round_trip_and_errors(tmp_path):
    doc = {"b": [1, 2.5, None], "a": "x"}
    p = tmp_path / "doc.json"
    write_json(p, doc)
    assert p.read_text() == json.dumps(doc, indent=2) + "\n"
    assert read_json(p) == doc
    assert [f.name for f in tmp_path.iterdir()] == ["doc.json"]  # no temp file left

    with pytest.raises(MissingFile):
        read_json(tmp_path / "none.json")
    for bad in (b'{"a": [1,', b"\xff\xfe{"):
        p.write_bytes(bad)
        with pytest.raises(CorruptManifest):
            read_json(p)


# --------------------------------------------------------------- checkpoints


def vec(seed, n, layout="toy"):
    return ParamVector(Rng(seed).normals(n), layout)


def test_checkpoint_round_trip_bit_exact(tmp_path):
    theta = vec(4, 10_000)
    p = tmp_path / "w.ckpt"
    save_checkpoint(p, theta, meta={"stage": "t", "alpha": 0.99})
    back, meta = load_checkpoint(p)
    assert np.array_equal(back.values, theta.values)
    assert back.layout_id == "toy"
    assert meta == {"stage": "t", "alpha": 0.99}


def test_checkpoint_save_load_save_stable(tmp_path):
    theta = init_params(BackboneSpec(depth=1, base_channels=2), 9)
    a = tmp_path / "a.ckpt"
    b = tmp_path / "b.ckpt"
    save_checkpoint(a, theta)
    back, _ = load_checkpoint(a)
    save_checkpoint(b, back)
    assert a.read_bytes() == b.read_bytes()  # storage fixed point


def test_checkpoint_wire_format(tmp_path):
    theta = vec(5, 3)
    p = tmp_path / "w.ckpt"
    save_checkpoint(p, theta)
    raw = p.read_bytes()
    assert raw[:4] == b"CKSM"
    assert struct.unpack("<I", raw[4:8])[0] == 2
    assert struct.unpack("<Q", raw[8:16])[0] == 3
    assert len(raw) == 16 + 8 * 3
    np.testing.assert_array_equal(np.frombuffer(raw[16:], dtype="<f8"), theta.values)


def test_checkpoint_reads_version_1(tmp_path):
    # version 1 stored float32 values; such files must still load
    values = np.array([0.5, -1.25, 3.1], dtype="<f4")
    head = b"CKSM" + struct.pack("<I", 1) + struct.pack("<Q", 3)
    p = tmp_path / "old.ckpt"
    p.write_bytes(head + values.tobytes())
    write_json(tmp_path / "old.ckpt.json", {"layout_id": "toy", "meta": {"stage": "phase3"}})
    back, meta = load_checkpoint(p)
    assert back.values.dtype == np.float64
    np.testing.assert_array_equal(back.values, values.astype(np.float64))
    assert (back.layout_id, meta) == ("toy", {"stage": "phase3"})
    # a version-1 body is counted in 4-byte values
    p.write_bytes(head + values.astype("<f8").tobytes())
    with pytest.raises(CountMismatch):
        load_checkpoint(p)


def test_checkpoint_errors(tmp_path):
    theta = vec(6, 8)
    good = tmp_path / "g.ckpt"
    save_checkpoint(good, theta)
    blob = good.read_bytes()

    with pytest.raises(MissingFile):
        load_checkpoint(tmp_path / "none.ckpt")

    bad_magic = tmp_path / "m.ckpt"
    bad_magic.write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(BadMagic):
        load_checkpoint(bad_magic)

    bad_version = tmp_path / "v.ckpt"
    bad_version.write_bytes(blob[:4] + struct.pack("<I", 9) + blob[8:])
    (tmp_path / "v.ckpt.json").write_text((tmp_path / "g.ckpt.json").read_text())
    with pytest.raises(VersionUnsupported):
        load_checkpoint(bad_version)

    truncated = tmp_path / "t.ckpt"
    truncated.write_bytes(blob[:-5])
    (tmp_path / "t.ckpt.json").write_text((tmp_path / "g.ckpt.json").read_text())
    with pytest.raises(CountMismatch):
        load_checkpoint(truncated)

    orphan = tmp_path / "o.ckpt"
    orphan.write_bytes(blob)
    with pytest.raises(MissingFile):
        load_checkpoint(orphan)  # sidecar absent

    garbled = tmp_path / "s.ckpt"
    garbled.write_bytes(blob)
    (tmp_path / "s.ckpt.json").write_text("{oops")
    with pytest.raises(CorruptManifest):
        load_checkpoint(garbled)


def test_checkpoint_count_cross_checked_against_layout(tmp_path):
    # layout ids carry their parameter count; a mismatch must be fatal
    spec = BackboneSpec(depth=1, base_channels=2)
    theta = init_params(spec, 2)
    p = tmp_path / "w.ckpt"
    save_checkpoint(p, theta)
    side = json.loads((tmp_path / "w.ckpt.json").read_text())
    side["layout_id"] = side["layout_id"].rsplit("-p", 1)[0] + "-p999"
    (tmp_path / "w.ckpt.json").write_text(json.dumps(side))
    with pytest.raises(CountMismatch):
        load_checkpoint(p)
