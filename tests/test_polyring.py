"""Unit and property tests for RNS polynomial rings."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hecore.modmath import MAX_MODULUS_BITS
from repro.hecore.polyring import RnsPoly
from repro.hecore.primes import generate_ntt_primes
from repro.hecore.rns import RnsBase
from tests.oracles import divide_and_round_by_last, exact_negacyclic_multiply

N = 64


@pytest.fixture(scope="module")
def base():
    return RnsBase(generate_ntt_primes(28, 3, N))


def rand_poly(base, seed, small=False):
    rng = np.random.default_rng(seed)
    if small:
        return RnsPoly.from_signed_array(base, rng.integers(-5, 6, N, dtype=np.int64))
    coeffs = [int(v) for v in rng.integers(0, 2**60, N)]
    return RnsPoly.from_int_coeffs(base, [c % base.modulus for c in coeffs], N)


def test_zero_and_shape(base):
    z = RnsPoly.zero(base, N)
    assert z.data.shape == (3, N)
    assert z.infinity_norm() == 0


def test_add_sub_roundtrip(base):
    a, b = rand_poly(base, 1), rand_poly(base, 2)
    assert np.array_equal(((a + b) - b).data, a.data)


def test_neg(base):
    a = rand_poly(base, 3)
    assert (a + (-a)).infinity_norm() == 0


def test_ntt_roundtrip(base):
    a = rand_poly(base, 4)
    assert np.array_equal(a.to_ntt().from_ntt().data, a.data)


def test_mul_consistent_between_forms(base):
    a, b = rand_poly(base, 5), rand_poly(base, 6)
    coeff_product = a * b
    ntt_product = (a.to_ntt() * b.to_ntt()).from_ntt()
    assert np.array_equal(coeff_product.data, ntt_product.data)


def test_mul_matches_bigint_crt(base):
    a, b = rand_poly(base, 7, small=True), rand_poly(base, 8, small=True)
    product = (a * b).to_int_coeffs(centered=True)
    expected = exact_negacyclic_multiply(
        a.to_int_coeffs(centered=True), b.to_int_coeffs(centered=True), N, 40
    )
    assert product == expected


def test_scalar_multiply_big_scalar(base):
    a = rand_poly(base, 9)
    scalar = base.modulus // 3
    got = a.scalar_multiply(scalar).to_int_coeffs(centered=False)
    expected = [(v * scalar) % base.modulus for v in a.to_int_coeffs(centered=False)]
    assert got == expected


def test_automorphism_identity(base):
    a = rand_poly(base, 10)
    assert np.array_equal(a.apply_automorphism(1).data, a.data)


def test_automorphism_composition(base):
    # sigma_g1 . sigma_g2 = sigma_(g1*g2 mod 2N)
    a = rand_poly(base, 11)
    g1, g2 = 3, 5
    lhs = a.apply_automorphism(g2).apply_automorphism(g1)
    rhs = a.apply_automorphism((g1 * g2) % (2 * N))
    assert np.array_equal(lhs.data, rhs.data)


def test_automorphism_on_monomial(base):
    # sigma_3(x) = x^3; sigma_3(x^(N-1)) = x^(3N-3) = -x^(N-3) for odd wraps.
    mono = np.zeros(N, dtype=np.int64)
    mono[1] = 1
    p = RnsPoly.from_signed_array(base, mono).apply_automorphism(3)
    ints = p.to_int_coeffs(centered=True)
    assert ints[3] == 1 and sum(abs(v) for v in ints) == 1


def test_automorphism_rejects_even(base):
    with pytest.raises(ValueError):
        rand_poly(base, 12).apply_automorphism(4)


def test_divide_and_round_by_last(base):
    # A value exactly divisible by the last prime divides cleanly.
    last = base.moduli[-1]
    values = [last * k for k in range(N)]
    poly = RnsPoly.from_int_coeffs(base, values, N)
    reduced = divide_and_round_by_last(poly)
    assert reduced.base.moduli == base.moduli[:-1]
    assert reduced.to_int_coeffs(centered=False) == list(range(N))


def test_divide_and_round_error_bounded(base):
    rng = np.random.default_rng(13)
    last = base.moduli[-1]
    values = [int(v) for v in rng.integers(0, 2**50, N)]
    poly = RnsPoly.from_int_coeffs(base, values, N)
    reduced = divide_and_round_by_last(poly).to_int_coeffs(centered=True)
    for v, r in zip(values, reduced):
        assert abs(r - round(v / last)) <= 1


def test_switch_base_small_values(base):
    small = RnsPoly.from_signed_array(base, np.arange(-10, N - 10, dtype=np.int64))
    other = RnsBase(generate_ntt_primes(27, 2, N))
    moved = small.switch_base(other)
    assert moved.to_int_coeffs(centered=True) == list(range(-10, N - 10))


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=25)
def test_exact_negacyclic_multiply_vs_schoolbook(seed):
    rng = np.random.default_rng(seed)
    n = 16
    a = [int(v) for v in rng.integers(-1000, 1000, n)]
    b = [int(v) for v in rng.integers(-1000, 1000, n)]
    got = exact_negacyclic_multiply(a, b, n, 30)
    expected = [0] * n
    for i in range(n):
        for j in range(n):
            k, sign = (i + j, 1) if i + j < n else (i + j - n, -1)
            expected[k] += sign * a[i] * b[j]
    assert got == expected


# --------------------------------------------------------------------------
# RnsBase's residue arithmetic — the one body RnsPoly (rank 2) and the batch
# engines (rank 3) both call — against an oracle that shares no code with it:
# Python integers, reduced with ``%``.
# --------------------------------------------------------------------------

LEADS = [(), (3,), (2, 3)]      # rank 2 (one polynomial), rank 3, rank 4


@pytest.fixture(scope="module", params=[MAX_MODULUS_BITS], ids=["30-bit"])
def wide_base(request):
    """The widest base the limb-width contract admits: the three largest
    NTT primes below ``2**MAX_MODULUS_BITS``."""
    return RnsBase(generate_ntt_primes(request.param, 3, N))


def _int_block(base, lead, seed, bound=None):
    """Random integers in ``[0, bound)`` (default: the whole modulus) of shape
    ``lead + (N,)`` as an object array, with their residue block."""
    rng = np.random.default_rng(seed)
    bound = base.modulus if bound is None else bound
    ints = np.empty(lead + (N,), dtype=object)
    for idx in np.ndindex(ints.shape):
        ints[idx] = int(rng.integers(0, 2**62)) * int(rng.integers(0, 2**62)) % bound
    return ints, _residues(base.moduli, ints)


def _residues(moduli, ints):
    """``(..., n)`` Python integers → ``(..., k, n)`` int64 residues."""
    rows = [np.array([v % p for v in ints.ravel()], dtype=np.int64)
            .reshape(ints.shape) for p in moduli]
    return np.stack(rows, axis=-2)


@pytest.mark.parametrize("lead", LEADS, ids=lambda lead: f"rank{len(lead) + 2}")
def test_residue_add_sub_neg_scale_match_bigint(wide_base, lead):
    base, q = wide_base, wide_base.modulus
    x, bx = _int_block(base, lead, 21)
    y, by = _int_block(base, lead, 22)
    scalar = q // 3 + 1
    for got, want in [
        (base.add(bx, by), (x + y) % q),
        (base.sub(bx, by), (x - y) % q),
        (base.sub(0, bx), (-x) % q),
        (base.scale(bx, scalar), (x * scalar) % q),
        (base.scale(bx, -7), (x * -7) % q),
    ]:
        assert got.dtype == np.int64
        assert np.array_equal(got, _residues(base.moduli, want))


@pytest.mark.parametrize("lead", LEADS, ids=lambda lead: f"rank{len(lead) + 2}")
def test_residue_lift_signed_matches_bigint(wide_base, lead):
    rng = np.random.default_rng(23)
    values = rng.integers(-2**40, 2**40, lead + (N,))
    want = _residues(wide_base.moduli, values.astype(object))
    assert np.array_equal(wide_base.lift_signed(values), want)


@pytest.mark.parametrize("lead", LEADS, ids=lambda lead: f"rank{len(lead) + 2}")
def test_residue_divide_and_round_exact_and_error_bound(wide_base, lead):
    base = wide_base
    last = base.moduli[-1]
    x, bx = _int_block(base, lead, 24)
    dropped, got = base.divide_and_round_by_last(bx)
    assert dropped.moduli == base.moduli[:-1]
    # Exact: (x - c) / P with c the centered remainder of x modulo P.
    want = np.empty(x.shape, dtype=object)
    for idx in np.ndindex(x.shape):
        c = x[idx] % last
        c -= last if c > last // 2 else 0
        assert (x[idx] - c) % last == 0
        want[idx] = (x[idx] - c) // last
        # Inside SEAL's ±1 slack of x / P (here: the nearest integer).
        assert 2 * abs(want[idx] * last - x[idx]) <= last
    assert np.array_equal(got, _residues(dropped.moduli, want))
    # Multiples of P divide cleanly.
    multiples, bm = _int_block(base, lead, 25, bound=dropped.modulus)
    _, clean = base.divide_and_round_by_last(_residues(base.moduli,
                                                       multiples * last))
    assert np.array_equal(clean, bm[..., :-1, :])


@given(seed=st.integers(min_value=0, max_value=10**6),
       m=st.integers(min_value=1, max_value=4))
@settings(max_examples=20)
def test_residue_ops_act_per_leading_index(wide_base, seed, m):
    """``f(base, block)[i] == f(base, block[i])``: a batch is its rows."""
    base = wide_base
    rng = np.random.default_rng(seed)
    a, b = (np.stack([rng.integers(0, p, (m, N)) for p in base.moduli], axis=1)
            for _ in range(2))
    signed = rng.integers(-5, 6, (m, N))
    scalar = int(rng.integers(1, 2**62))
    for i in range(m):
        assert np.array_equal(base.add(a, b)[i], base.add(a[i], b[i]))
        assert np.array_equal(base.sub(a, b)[i], base.sub(a[i], b[i]))
        assert np.array_equal(base.scale(a, scalar)[i],
                              base.scale(a[i], scalar))
        assert np.array_equal(base.lift_signed(signed)[i],
                              base.lift_signed(signed[i]))
        assert np.array_equal(base.divide_and_round_by_last(a)[1][i],
                              base.divide_and_round_by_last(a[i])[1])


@pytest.mark.parametrize("is_ntt", [False, True], ids=["coeff", "ntt"])
def test_automorphism_is_the_definition(base, is_ntt):
    """``a(x^g) mod (x^n + 1)`` computed on Python integers: coefficient
    ``i`` moves to ``i*g mod 2n``, negated past the ``x^n = -1`` wrap."""
    rng = np.random.default_rng(26)
    coeffs = [int(v) for v in rng.integers(-2**40, 2**40, N)]
    poly = RnsPoly.from_int_coeffs(base, coeffs, N)
    if is_ntt:
        poly = poly.to_ntt()
    for g in range(1, 2 * N, 2):
        want = [0] * N
        for i, c in enumerate(coeffs):
            e = (i * g) % (2 * N)
            want[e % N] = c if e < N else -c
        got = poly.apply_automorphism(g)
        assert got.is_ntt == is_ntt
        assert got.to_int_coeffs(centered=True) == want
