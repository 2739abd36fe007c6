"""Unit and property tests for RNS bases and CRT conversions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hecore.rns import RnsBase, centered_mod, scale_and_round

MODULI = [1073741789, 1073741783, 1073741741]


@pytest.fixture(scope="module")
def base():
    return RnsBase(MODULI)


def test_modulus_product(base):
    expected = MODULI[0] * MODULI[1] * MODULI[2]
    assert base.modulus == expected
    assert base.bit_size == expected.bit_length()


def test_rejects_duplicates():
    with pytest.raises(ValueError):
        RnsBase([17, 17])


def test_rejects_empty():
    with pytest.raises(ValueError):
        RnsBase([])


def test_decompose_compose_roundtrip(base):
    values = [0, 1, base.modulus - 1, 123456789012345678901234567890 % base.modulus]
    residues = base.decompose(values)
    assert residues.shape == (3, 4)
    assert base.compose(residues) == values


@given(st.lists(st.integers(min_value=-(10**40), max_value=10**40), min_size=1, max_size=8))
@settings(max_examples=50)
def test_compose_decompose_property(values):
    base = RnsBase(MODULI)
    recovered = base.compose(base.decompose(values))
    assert recovered == [v % base.modulus for v in values]


def test_compose_centered(base):
    q = base.modulus
    values = [q - 1, 1, q // 2, q // 2 + 1]
    centered = base.compose_centered(base.decompose(values))
    assert centered == [-1, 1, q // 2, q // 2 + 1 - q]


def test_drop_last(base):
    smaller = base.drop_last()
    assert smaller.moduli == tuple(MODULI[:2])
    with pytest.raises(ValueError):
        RnsBase([17]).drop_last()


def test_scale_and_round_exact():
    # round(v * 3 / 7) for a few hand values, half rounds away from zero.
    assert scale_and_round([7], 3, 7) == [3]
    assert scale_and_round([1], 1, 2) == [1]       # 0.5 -> 1
    assert scale_and_round([-1], 1, 2) == [-1]     # -0.5 -> -1
    assert scale_and_round([10**30], 1, 10**30) == [1]


@given(st.integers(min_value=-(10**30), max_value=10**30),
       st.integers(min_value=1, max_value=10**15))
@settings(max_examples=100)
def test_scale_and_round_property(v, d):
    got = scale_and_round([v], 7, d)[0]
    assert abs(got * d - 7 * v) <= (d + 1) // 2 + (d % 2 == 0)


def test_centered_mod():
    assert centered_mod(10, 7) == 3
    assert centered_mod(-3, 7) == -3
    assert centered_mod(4, 7) == -3
    assert centered_mod(7, 7) == 0
