import json

import numpy as np
import pytest

from curriseg import (
    EmptyDataset,
    LengthMismatch,
    Mask,
    ShapeMismatch,
    dsc,
    evaluate_set,
)

from conftest import rand_mask


def mk(bits):
    return Mask(np.asarray(bits, dtype=np.uint8))


def test_dsc_hand_values():
    a = mk([[1, 1], [0, 0]])
    assert dsc(a, mk([[1, 1], [0, 0]])) == 1.0
    assert dsc(a, mk([[0, 0], [1, 1]])) == 0.0
    # |A|=4, |B|=4, overlap 2 -> 2*2/8
    big_a = mk([[1, 1, 1, 1], [0, 0, 0, 0]])
    big_b = mk([[0, 0, 1, 1], [1, 1, 0, 0]])
    assert dsc(big_a, big_b) == 0.5


def test_dsc_both_empty_is_one():
    z = mk(np.zeros((3, 3)))
    assert dsc(z, z) == 1.0
    assert dsc(z, mk([[1, 0, 0], [0, 0, 0], [0, 0, 0]])) == 0.0


def test_dsc_symmetric_and_bounded():
    for seed in range(25):
        a = rand_mask(seed, 7, 7, density=0.3)
        b = rand_mask(seed + 100, 7, 7, density=0.3)
        d = dsc(a, b)
        assert d == dsc(b, a)
        assert 0.0 <= d <= 1.0


def test_dsc_one_iff_equal():
    a = rand_mask(3, 6, 6, density=0.4)
    assert dsc(a, a) == 1.0
    flipped = a.labels.copy()
    flipped[0, 0] ^= 1
    assert dsc(a, mk(flipped)) < 1.0


def test_dsc_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        dsc(mk(np.zeros((2, 2))), mk(np.zeros((2, 3))))


def test_evaluate_set_statistics():
    ones = mk(np.ones((2, 2)))
    zeros = mk(np.zeros((2, 2)))
    three = mk([[1, 1], [1, 0]])
    one_hit = mk([[1, 0], [0, 0]])
    # dsc values: 1.0 and 2*1/(1+3) = 0.5
    rep = evaluate_set([ones, one_hit], [ones, three])
    assert rep.mean == 0.75 and rep.std == 0.25
    assert rep.max == 1.0 and rep.min == 0.5
    assert rep.count == 2
    assert rep.scores == (1.0, 0.5)

    perfect = evaluate_set([ones, zeros], [ones, zeros])
    assert perfect.mean == perfect.max == perfect.min == 1.0
    assert perfect.std == 0.0


def test_evaluate_set_aggregate_recomputable():
    preds = [rand_mask(s, 5, 5) for s in range(10)]
    refs = [rand_mask(s + 40, 5, 5) for s in range(10)]
    rep = evaluate_set(preds, refs)
    scores = np.array([dsc(p, r) for p, r in zip(preds, refs)])
    assert abs(rep.mean - scores.mean()) < 1e-12
    assert abs(rep.std - scores.std()) < 1e-12  # population convention
    assert rep.max == scores.max() and rep.min == scores.min()


def test_evaluate_set_errors():
    m = mk(np.zeros((2, 2)))
    with pytest.raises(LengthMismatch):
        evaluate_set([m], [m, m])
    with pytest.raises(EmptyDataset):
        evaluate_set([], [])
    with pytest.raises(LengthMismatch):
        evaluate_set([m], [m], ids=["a", "b"])


def test_report_json_round_trip():
    rep = evaluate_set(
        [mk([[1, 0]]), mk([[0, 1]])],
        [mk([[1, 0]]), mk([[1, 0]])],
        ids=["x", "y"],
    )
    doc = json.loads(json.dumps(rep.as_dict()))
    assert doc == {
        "per_item": [{"id": "x", "dsc": 1.0}, {"id": "y", "dsc": 0.0}],
        "mean": 0.5,
        "std": 0.5,
        "max": 1.0,
        "min": 0.0,
        "count": 2,
    }
