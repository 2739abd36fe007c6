"""Unit tests for vectorized modular arithmetic."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hecore import modmath
from repro.hecore.params import PARAMETER_SET_B
from repro.hecore.primes import generate_ntt_primes

PRIME = (1 << 30) - 35  # 30-bit prime 1073741789


def test_mod_add_wraps():
    a = np.array([PRIME - 1, 5], dtype=np.int64)
    b = np.array([2, 7], dtype=np.int64)
    assert list(modmath.mod_add(a, b, PRIME)) == [1, 12]


def test_mod_sub_wraps():
    a = np.array([0, 10], dtype=np.int64)
    b = np.array([1, 3], dtype=np.int64)
    assert list(modmath.mod_sub(a, b, PRIME)) == [PRIME - 1, 7]


def test_mod_mul_matches_python():
    rng = np.random.default_rng(0)
    a = rng.integers(0, PRIME, 1000, dtype=np.int64)
    b = rng.integers(0, PRIME, 1000, dtype=np.int64)
    out = modmath.mod_mul(a, b, PRIME)
    for x, y, z in zip(a[:50], b[:50], out[:50]):
        assert int(z) == (int(x) * int(y)) % PRIME


def test_mod_neg():
    a = np.array([0, 1, PRIME - 1], dtype=np.int64)
    assert list(modmath.mod_neg(a, PRIME)) == [0, PRIME - 1, 1]


@given(st.integers(min_value=1, max_value=PRIME - 1))
@settings(max_examples=50)
def test_mod_inv_property(a):
    inv = modmath.mod_inv(a, PRIME)
    assert (a * inv) % PRIME == 1


def test_mod_inv_zero_raises():
    with pytest.raises(ZeroDivisionError):
        modmath.mod_inv(0, PRIME)


def test_center_roundtrip():
    a = np.array([0, 1, PRIME // 2, PRIME // 2 + 1, PRIME - 1], dtype=np.int64)
    centered = modmath.center(a, PRIME)
    assert centered[3] < 0 and centered[4] == -1
    assert list(modmath.uncenter(centered, PRIME)) == list(a)


@given(st.integers(min_value=0, max_value=PRIME - 1))
@settings(max_examples=50)
def test_center_bounds(x):
    c = int(modmath.center(np.array([x], dtype=np.int64), PRIME)[0])
    assert -PRIME // 2 <= c <= PRIME // 2
    assert c % PRIME == x


def test_check_modulus_rejects_wide():
    with pytest.raises(ValueError):
        modmath.check_modulus(1 << 32)
    with pytest.raises(ValueError, match=r"2\*\*30"):
        modmath.check_modulus(1 << modmath.MAX_MODULUS_BITS)
    assert modmath.check_modulus(PRIME) == PRIME


#: The largest NTT-friendly primes below the limb width at N = 4096.
EDGE_PRIMES = generate_ntt_primes(modmath.MAX_MODULUS_BITS, 3, 4096)

#: Set B's 24-bit data rows, and half its 30-bit special prime ``P``.
SET_B_ROWS = list(PARAMETER_SET_B.data_base.moduli)
HALF_P = PARAMETER_SET_B.special_prime // 2

#: Signed values every reduction must take: ``P/2``, ``P/2 + 1`` and
#: int64 values down to ``-2**62``.
SIGNED_EDGES = [0, 1, -1, HALF_P, HALF_P + 1, -HALF_P, -HALF_P - 1,
                2**62, -2**62, -2**62 + 1, 2**62 - 1]


@pytest.mark.parametrize("p", [PRIME] + EDGE_PRIMES)
def test_mod_reduce_matches_python_ints(p):
    """The one reducer, against one modulus and as the row of a block:
    edge residues, products of edge residues and int64 extremes."""
    rng = np.random.default_rng(p)
    x = np.concatenate([[0, 1, p - 1], rng.integers(0, p, 500)])
    c = np.concatenate([[p - 1, p - 1, p - 1], rng.integers(0, p, 500)])
    got = modmath.mod_mul(x, c, p)
    assert got.tolist() == [int(a) * int(b) % p for a, b in zip(x, c)]
    wide = np.concatenate([[p - 1, p, (p - 1) ** 2] + SIGNED_EDGES,
                           rng.integers(-2**62, 2**62, 500)])
    want = [int(v) % p for v in wide]
    owned = wide.copy()
    assert modmath.mod_reduce(owned, p) is owned
    assert owned.tolist() == want
    block = np.stack([wide, wide[::-1]])[None]          # (1, 2, n) rows
    assert modmath.mod_reduce(block, (p, PRIME)).tolist() == [[
        want, [int(v) % PRIME for v in wide[::-1]]]]


def test_mod_reduce_refuses_a_row_count_mismatch():
    with pytest.raises(ValueError, match="2 moduli for 3 rows"):
        modmath.mod_reduce(np.zeros((3, 4), dtype=np.int64), (97, 193))


@pytest.mark.parametrize("p", EDGE_PRIMES + SET_B_ROWS)
def test_elementwise_ops_match_python_ints(p):
    """Every pair of edge residues through the routed elementwise ops."""
    edges = [0, 1, p - 1, p // 2, p // 2 + 1, HALF_P % p, (HALF_P + 1) % p]
    a, b = np.array(list(itertools.product(edges, repeat=2)), dtype=np.int64).T
    x, y = a.tolist(), b.tolist()
    assert modmath.mod_add(a, b, p).tolist() == [(u + v) % p for u, v in zip(x, y)]
    assert modmath.mod_sub(a, b, p).tolist() == [(u - v) % p for u, v in zip(x, y)]
    assert modmath.mod_mul(a, b, p).tolist() == [u * v % p for u, v in zip(x, y)]
    assert modmath.mod_neg(a, p).tolist() == [-u % p for u in x]
    assert modmath.center(a, p).tolist() == [u - p if u > p // 2 else u for u in x]
    signed = np.array(SIGNED_EDGES, dtype=np.int64)
    assert modmath.uncenter(signed, p).tolist() == [v % p for v in SIGNED_EDGES]
    assert signed.tolist() == SIGNED_EDGES          # inputs are not reduced


def test_next_power_of_two():
    assert [modmath.next_power_of_two(n) for n in (0, 1, 2, 3, 4, 5, 1025)] \
        == [1, 1, 2, 4, 4, 8, 2048]


def test_is_power_of_two():
    assert modmath.is_power_of_two(1024)
    assert not modmath.is_power_of_two(0)
    assert not modmath.is_power_of_two(1000)
