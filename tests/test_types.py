import numpy as np
import pytest

from curriseg import (
    BBox,
    CropRecord,
    DatasetItem,
    DatasetPhase,
    Image,
    LossBreakdown,
    Mask,
    ParamVector,
    ProbMap,
    ShapeMismatch,
    ValueOutOfRange,
    masks_equal,
)


def test_image_rejects_out_of_range_and_nonfinite():
    with pytest.raises(ValueOutOfRange):
        Image(np.array([[0.5, 1.5]]))
    with pytest.raises(ValueOutOfRange):
        Image(np.array([[0.5, np.nan]]))


def test_mask_rejects_value_two():
    with pytest.raises(ValueOutOfRange):
        Mask(np.array([[0, 1], [2, 0]]))


def test_validate_pair_rejects_bad_mask_value():
    # An image/mask pair is validated when its DatasetItem is built.
    with pytest.raises(ValueOutOfRange) as exc:
        DatasetItem(Image(np.full((2, 2), 0.5)), Mask(np.array([[0, 2], [0, 1]])))
    assert "(0, 1)" in str(exc.value)  # offending index reported


def test_probmap_range_checked():
    ProbMap(np.array([[0.0, 1.0]]))  # inclusive endpoints fine
    with pytest.raises(ValueOutOfRange):
        ProbMap(np.array([[-0.1, 0.5]]))


def test_arrays_are_immutable_copies():
    src = np.full((2, 2), 0.25)
    img = Image(src)
    src[0, 0] = 0.9  # caller-side mutation must not leak in
    assert img.pixels[0, 0] == 0.25
    with pytest.raises(ValueError):
        img.pixels[0, 0] = 0.1


def test_bbox_invariants():
    b = BBox(1, 3, 2, 5)
    assert (b.height, b.width) == (3, 4)
    with pytest.raises(ValueOutOfRange):
        BBox(3, 1, 0, 0)
    with pytest.raises(ValueOutOfRange):
        BBox(-1, 1, 0, 0)
    with pytest.raises(ValueOutOfRange):
        BBox(0, 8, 0, 3).check_within((8, 8))


def test_crop_record_out_shape():
    rec = CropRecord((8, 8), BBox(2, 5, 1, 4), pad=(0, 1, 0, 2))
    assert rec.out_shape == (5, 6)
    with pytest.raises(ValueOutOfRange):
        CropRecord((8, 8), BBox(2, 5, 1, 4), pad=(0, -1, 0, 0))


def test_param_vector_checks():
    v = ParamVector(np.arange(3, dtype=float), "net-a")
    assert len(v) == 3
    with pytest.raises(ValueOutOfRange):
        ParamVector(np.array([]), "net-a")
    with pytest.raises(ValueOutOfRange):
        ParamVector(np.array([1.0, np.inf]), "net-a")


def test_dataset_item_shape_consistency():
    img = Image(np.full((4, 4), 0.5))
    with pytest.raises(ShapeMismatch):
        DatasetItem(img, Mask(np.zeros((4, 6), dtype=np.uint8)))
    rec = CropRecord((8, 8), BBox(0, 2, 0, 2), pad=(0, 1, 0, 1))
    DatasetItem(img, Mask(np.zeros((4, 4), dtype=np.uint8)), crop=rec)
    bad = CropRecord((8, 8), BBox(0, 2, 0, 2))  # implies 3x3, image is 4x4
    with pytest.raises(ShapeMismatch):
        DatasetItem(img, Mask(np.zeros((4, 4), dtype=np.uint8)), crop=bad)


@pytest.mark.parametrize("item_id", ["", ".", "..", "../../escaped", "a/b", "a\\b", "nul\0", 7])
def test_dataset_item_id_must_be_plain_file_name(item_id):
    img = Image(np.full((4, 4), 0.5))
    msk = Mask(np.zeros((4, 4), dtype=np.uint8))
    with pytest.raises(ValueOutOfRange, match="item id"):
        DatasetItem(img, msk, None, item_id)
    for fine in (None, "img_00001", "a.b", "..a"):
        assert DatasetItem(img, msk, None, fine).item_id == fine


def test_raw_phase_forbids_crop_records():
    img = Image(np.full((4, 4), 0.5))
    msk = Mask(np.zeros((4, 4), dtype=np.uint8))
    rec = CropRecord((8, 8), BBox(0, 3, 0, 3))
    item = DatasetItem(img, msk, crop=rec)
    DatasetPhase("D1", (item,))
    with pytest.raises(ValueOutOfRange):
        DatasetPhase("D3", (item,))
    with pytest.raises(ValueOutOfRange):
        DatasetPhase("D9", ())


def test_loss_breakdown_sum_invariant():
    LossBreakdown(0.5, 2.0, 0.25, 2.75)
    with pytest.raises(ValueOutOfRange):
        LossBreakdown(0.5, 2.0, 0.25, 3.5)
    with pytest.raises(ValueOutOfRange):
        LossBreakdown(1.5, 0.0, 0.0, 1.5)  # l_iou beyond [0,1]


def test_masks_equal():
    a = Mask(np.eye(3, dtype=np.uint8))
    b = Mask(np.eye(3, dtype=np.uint8))
    c = Mask(np.zeros((3, 3), dtype=np.uint8))
    assert masks_equal(a, b)
    assert not masks_equal(a, c)
    assert not masks_equal(a, Mask(np.zeros((2, 3), dtype=np.uint8)))
