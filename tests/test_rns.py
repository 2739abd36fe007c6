"""Unit and property tests for RNS bases and CRT conversions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hecore.modmath import mod_reduce
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


# ------------------------------------------ scalar-residue row arithmetic

#: The extended bases ``q_0..q_{L-1}, P`` a key switch divides by ``P``:
#: the e2e CKKS set (30-bit data primes and P) and set B (24-bit data
#: primes, 30-bit P).
def _ext_bases():
    from repro.hecore.params import (PARAMETER_SET_B, SchemeType,
                                     small_test_parameters)

    sets = {"e2e-ckks": small_test_parameters(SchemeType.CKKS, 4096,
                                              data_bits=(30, 30, 30)),
            "set-b": PARAMETER_SET_B}
    return {name: RnsBase(p.data_base.moduli + (p.special_prime,))
            for name, p in sets.items()}


EXT_BASES = _ext_bases()


def _edge_columns(ext: RnsBase) -> np.ndarray:
    """``(k, 6)`` columns with the dropped row at the centring boundaries
    0, P-1, P//2 and P//2+1, and every row at 0 and p-1."""
    big_p = ext.moduli[-1]
    cols = []
    for x_p in (0, big_p - 1, big_p // 2, big_p // 2 + 1):
        col = [(7 * i + 3) % p for i, p in enumerate(ext.moduli)]
        col[-1] = x_p
        cols.append(col)
    for v in (0, -1):
        cols.append([v % p for p in ext.moduli])
    return np.array(cols, dtype=np.int64).T


@pytest.mark.parametrize("name", sorted(EXT_BASES))
@given(shape=st.lists(st.integers(1, 3), max_size=3),
       seed=st.integers(0, 2**32 - 1), edges=st.booleans())
@settings(max_examples=30)
def test_row_residues_match_the_column_mod(name, shape, seed, edges):
    """``divide_and_round_by_last``, ``scale`` and ``mod_reduce`` reduce
    row by row against each modulus as a scalar: on random blocks of any
    leading shape (with the edge columns spliced in) they equal the
    ``np.mod``-against-the-column forms bit for bit."""
    ext = EXT_BASES[name]
    col = ext.moduli_col
    rng = np.random.default_rng(seed)
    block = np.mod(rng.integers(0, 2**62, (*shape, len(ext), 32)), col)
    if edges:
        block[..., :6] = _edge_columns(ext)
    last = ext.moduli[-1]
    target = ext.drop_last()
    tcol = target.moduli_col
    centered = np.where(block[..., -1:, :] > last // 2,
                        block[..., -1:, :] - last, block[..., -1:, :])
    inv = np.array([pow(last, -1, p) for p in target.moduli],
                   dtype=np.int64).reshape(-1, 1)
    want = np.mod(np.mod(block[..., :-1, :] - centered, tcol) * inv, tcol)
    got_base, got = ext.divide_and_round_by_last(block)
    assert got_base == target and np.array_equal(got, want)
    scalar = 2**61 + 12345
    assert np.array_equal(ext.scale(block, scalar), np.mod(
        block * np.array([scalar % p for p in ext.moduli],
                         dtype=np.int64).reshape(-1, 1), col))
    wide = rng.integers(-2**40, 2**40, block.shape)
    assert np.array_equal(mod_reduce(wide.copy(), ext.moduli), np.mod(wide, col))
