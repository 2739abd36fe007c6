"""Integration tests for the CKKS scheme."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hecore.ckks import CkksContext, scales_close
from repro.hecore.params import SchemeType, small_test_parameters
from repro.hecore.polyring import RnsPoly
from repro.hecore.rns import RnsBase

TOL = 1e-2


def values(ckks, scale=1.0, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(-scale, scale, ckks.params.poly_degree // 2)


def test_encode_decode_roundtrip(ckks):
    v = values(ckks)
    out = np.real(ckks.decode(ckks.encode(v)))
    assert np.allclose(out, v, atol=1e-5)


def test_encode_rejects_oversize(ckks):
    with pytest.raises(ValueError):
        ckks.encode(np.zeros(ckks.params.poly_degree))


def test_encrypt_decrypt_roundtrip(ckks):
    v = values(ckks)
    out = np.real(ckks.decrypt(ckks.encrypt(v)))
    assert np.allclose(out, v, atol=TOL)


def test_add(ckks):
    a, b = values(ckks, seed=1), values(ckks, seed=2)
    out = np.real(ckks.decrypt(ckks.add(ckks.encrypt(a), ckks.encrypt(b))))
    assert np.allclose(out, a + b, atol=TOL)


def test_sub(ckks):
    a, b = values(ckks, seed=3), values(ckks, seed=4)
    out = np.real(ckks.decrypt(ckks.sub(ckks.encrypt(a), ckks.encrypt(b))))
    assert np.allclose(out, a - b, atol=TOL)


def test_add_plain(ckks):
    a, b = values(ckks, seed=5), values(ckks, seed=6)
    out = np.real(ckks.decrypt(ckks.add_plain(ckks.encrypt(a), ckks.encode(b))))
    assert np.allclose(out, a + b, atol=TOL)


def test_multiply_plain_and_rescale(ckks):
    a, b = values(ckks, seed=7), values(ckks, seed=8)
    ct = ckks.multiply_plain(ckks.encrypt(a), ckks.encode(b))
    assert ct.scale == pytest.approx(ckks.params.scale ** 2)
    ct = ckks.rescale(ct)
    out = np.real(ckks.decrypt(ct))
    assert np.allclose(out, a * b, atol=TOL)


def test_ciphertext_multiply(ckks):
    a, b = values(ckks, seed=9), values(ckks, seed=10)
    ct = ckks.multiply(ckks.encrypt(a), ckks.encrypt(b))
    out = np.real(ckks.decrypt(ckks.rescale(ct)))
    assert np.allclose(out, a * b, atol=TOL)


def test_square(ckks):
    a = values(ckks, seed=11)
    out = np.real(ckks.decrypt(ckks.rescale(ckks.square(ckks.encrypt(a)))))
    assert np.allclose(out, a * a, atol=TOL)


def test_squared_distance_kernel(ckks):
    # The modified Euclidean kernel of Section 5.1: sum of squared diffs.
    a, b = values(ckks, seed=12), values(ckks, seed=13)
    diff = ckks.sub(ckks.encrypt(a), ckks.encrypt(b))
    sq = ckks.rescale(ckks.square(diff))
    out = np.real(ckks.decrypt(sq))
    assert np.allclose(out, (a - b) ** 2, atol=TOL)


def test_rescale_reduces_level(ckks):
    ct = ckks.encrypt(values(ckks))
    levels_before = len(ct.level_base)
    ct2 = ckks.rescale(ckks.square(ct))
    assert len(ct2.level_base) == levels_before - 1


def test_drop_modulus_preserves_value(ckks):
    v = values(ckks, seed=14)
    ct = ckks.drop_modulus(ckks.encrypt(v))
    out = np.real(ckks.decrypt(ct))
    assert np.allclose(out, v, atol=TOL)


def test_align_levels(ckks):
    a = ckks.encrypt(values(ckks, seed=15))
    b = ckks.drop_modulus(ckks.encrypt(values(ckks, seed=16)))
    a2, b2 = ckks.align(a, b)
    assert a2.level_base == b2.level_base


def test_rotate(ckks):
    ckks.make_galois_keys([1, 4])
    v = values(ckks, seed=17)
    out = np.real(ckks.decrypt(ckks.rotate(ckks.encrypt(v), 4)))
    assert np.allclose(out, np.roll(v, -4), atol=TOL)


def test_conjugate(ckks):
    ckks.make_galois_keys([], include_conjugation=True)
    v = values(ckks, seed=18)
    out = ckks.decrypt(ckks.conjugate(ckks.encrypt(v)))
    assert np.allclose(np.real(out), v, atol=TOL)
    assert np.allclose(np.imag(out), 0, atol=TOL)


def test_rotate_then_accumulate_dot_product(ckks):
    # log-rotation accumulation: the core of encrypted dot products.
    n = 8
    ckks.make_galois_keys([1, 2, 4])
    v = np.zeros(ckks.params.poly_degree // 2)
    v[:n] = np.arange(1, n + 1)
    ct = ckks.encrypt(v)
    for step in (4, 2, 1):
        ct = ckks.add(ct, ckks.rotate(ct, step))
    out = np.real(ckks.decrypt(ct))
    assert out[0] == pytest.approx(v[:n].sum(), abs=TOL)


def test_scale_mismatch_rejected(ckks):
    a = ckks.encrypt(values(ckks, seed=19))
    b = ckks.multiply_plain(ckks.encrypt(values(ckks, seed=20)), ckks.encode([1.0]))
    with pytest.raises(ValueError):
        ckks.add(a, b)


_SCALES = [0.0, -0.0, 1e-8, 2e-8, 1.0, 1.0 + 1e-9, 1.0 + 3e-9, 2.0 ** 28,
           2.0 ** 28 * (1 + 5e-10), 2.0 ** 28 * (1 + 2e-9), 2.0 ** 56, 1e300,
           -1.0, float("inf"), float("-inf"), float("nan")]


@pytest.mark.parametrize("a", _SCALES)
def test_scale_check_accepts_and_refuses_what_isclose_does(a):
    """The float predicate behind every CKKS add/sub is ``np.isclose(a, b,
    rtol=1e-9)`` on Python floats: same answer on every pair, including
    equal and opposite infinities, NaN, and pairs either side of the
    tolerance."""
    for b in _SCALES:
        assert scales_close(a, b) == bool(np.isclose(a, b, rtol=1e-9)), (a, b)


# ------------------------------------------- vectorised encode == exact encode

def _encode_reference(encoder, values, scale, base):
    """The per-coefficient Python-integer encoder every ``encode`` used to
    run, kept here as the oracle: round each scaled coefficient on its own,
    then decompose the (arbitrarily large) integers."""
    n = encoder.params.poly_degree
    slots = np.zeros(n // 2, dtype=np.complex128)
    slots[: len(values)] = np.asarray(values, dtype=np.complex128)
    evals = np.zeros(n, dtype=np.complex128)
    evals[encoder._positions] = slots
    evals[encoder._conj_positions] = np.conj(slots)
    coeffs = np.real(np.fft.fft(evals) / n * np.conj(encoder._psi_powers))
    scaled = [int(round(c * scale)) for c in coeffs]
    return RnsPoly.from_int_coeffs(base, scaled, n).data


def _level_base(ckks, limbs):
    return RnsBase(ckks.params.data_base.moduli[:limbs])


@settings(max_examples=40)
@given(rows=st.lists(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=24),
                     min_size=1, max_size=3),
       scale_bits=st.integers(10, 70), limbs=st.integers(1, 3))
def test_vectorised_encode_matches_exact_rounding(ckks, rows, scale_bits, limbs):
    """``encode`` / ``encode_many`` == the per-coefficient oracle bit for
    bit, on either side of the 2**62 switch to Python integers and over
    every level base."""
    scale, base = float(2 ** scale_bits), _level_base(ckks, limbs)
    want = [_encode_reference(ckks.encoder, row, scale, base) for row in rows]
    many = ckks.encoder.encode_many(rows, scale=scale, base=base)
    for row, expected, batched in zip(rows, want, many):
        single = ckks.encoder.encode(row, scale=scale, base=base)
        assert np.array_equal(single.poly.data, expected)
        assert np.array_equal(batched.poly.data, expected)
        assert single.scale == batched.scale == scale
        assert single.poly.base == base and not single.poly.is_ntt


def test_encode_is_exact_across_the_int64_switch(ckks):
    """One row whose coefficients straddle 2**62 (so the whole row takes the
    Python-integer path), and a batch mixing a small row with it."""
    from repro.hecore.ckks import _INT64_EXACT

    encoder, base = ckks.encoder, ckks.params.data_base
    big, small = values(ckks, seed=21), values(ckks, scale=1e-6, seed=22)
    scale = float(2 ** 67)
    magnitudes = np.abs(encoder._scaled_coefficients([big], scale))
    assert (magnitudes < _INT64_EXACT).any() and (magnitudes >= _INT64_EXACT).any()
    assert np.abs(encoder._scaled_coefficients([small], scale)).max() < _INT64_EXACT
    for row, pt in zip((small, big), encoder.encode_many([small, big], scale=scale)):
        want = _encode_reference(encoder, row, scale, base)
        assert np.array_equal(pt.poly.data, want)
        assert np.array_equal(encoder.encode(row, scale=scale).poly.data, want)
    assert encoder.encode_many([]) == []


def test_batch_entry_points_encode_raw_vectors_in_one_pass(ckks, monkeypatch):
    """``encrypt_many`` / ``encrypt_symmetric_many`` send the raw entries of
    a mixed batch through one ``encode_many`` and pass plaintexts through."""
    v = [values(ckks, seed=s) for s in (23, 24, 25)]
    mixed = [v[0], ckks.encode(v[1]), v[2]]
    calls = []
    encode_many = ckks.encoder.encode_many
    monkeypatch.setattr(ckks.encoder, "encode_many",
                        lambda raw: calls.append(len(raw)) or encode_many(raw))
    for cts in (ckks.encrypt_many(mixed), ckks.encrypt_symmetric_many(mixed)):
        for ct, want in zip(cts, v):
            assert np.allclose(np.real(ckks.decrypt(ct)), want, atol=TOL)
    assert calls == [2, 2]
