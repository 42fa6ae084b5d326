import math

import numpy as np
import pytest

from curriseg import Rng, derive_seed
from curriseg.rng import GOLDEN, mix64


def test_mix64_reference_values():
    # hand-computed with arbitrary-precision integers straight from the
    # three-constant recipe in the module docstring
    def oracle(z):
        mask = (1 << 64) - 1
        z &= mask
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        return z ^ (z >> 31)

    for z in [0, 1, 42, 2**63, (1 << 64) - 1, 0xDEADBEEF]:
        assert mix64(z) == oracle(z)


def test_stream_matches_counter_form():
    # draw k from seed s must equal mix64(s + k*GOLDEN): the stream is a
    # pure counter and block draws may never diverge from scalar draws
    rng = Rng(123)
    seq = [rng.next_u64() for _ in range(8)]
    mask = (1 << 64) - 1
    expect = [mix64((123 + k * GOLDEN) & mask) for k in range(1, 9)]
    assert seq == expect


def test_block_and_scalar_draws_agree():
    a = Rng(9)
    b = Rng(9)
    block = a.u64_block(16)
    scalars = [b.next_u64() for _ in range(16)]
    assert [int(x) for x in block] == scalars


def test_derive_seed_is_substream_output():
    s = 777
    assert derive_seed(s, 0) == Rng(s).next_u64()
    r = Rng(s)
    r.next_u64()
    assert derive_seed(s, 1) == r.next_u64()
    assert derive_seed(s, 0) != derive_seed(s, 1)


def test_uniforms_range_and_mantissa():
    u = Rng(5).uniforms(1000)
    assert u.min() >= 0.0 and u.max() < 1.0
    # 53-bit mantissa: scaling back must give integers
    back = u * 2.0**53
    assert np.array_equal(back, np.floor(back))


def test_normals_box_muller_oracle():
    u = Rng(31).uniforms(4)
    r0 = math.sqrt(-2.0 * math.log(1.0 - u[0]))
    r1 = math.sqrt(-2.0 * math.log(1.0 - u[2]))
    expect = [
        r0 * math.cos(2 * math.pi * u[1]),
        r0 * math.sin(2 * math.pi * u[1]),
        r1 * math.cos(2 * math.pi * u[3]),
    ]
    got = Rng(31).normals(3)
    np.testing.assert_allclose(got, expect, rtol=1e-12)


def test_normals_moments_sane():
    z = Rng(8).normals(20000)
    assert abs(z.mean()) < 0.03
    assert abs(z.std() - 1.0) < 0.03


def test_below_matches_modulo():
    a, b = Rng(2), Rng(2)
    for n in [1, 2, 7, 100]:
        assert a.below(n) == b.next_u64() % n
    with pytest.raises(ValueError):
        Rng(0).below(0)


def test_shuffle_is_backward_fisher_yates():
    items = list("abcdef")
    Rng(17).shuffle(items)
    # oracle: replay the j-draws independently
    r = Rng(17)
    expect = list("abcdef")
    for i in range(5, 0, -1):
        j = r.next_u64() % (i + 1)
        expect[i], expect[j] = expect[j], expect[i]
    assert items == expect


def test_permutation_properties():
    p = Rng(4).permutation(50)
    assert sorted(p) == list(range(50))
    assert p == Rng(4).permutation(50)
    assert p != Rng(5).permutation(50)
