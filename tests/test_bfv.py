"""Integration tests for the BFV scheme (Table 1's operation set)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hecore.bfv import BatchEncoder, BfvContext
from repro.hecore.keys import MissingEvaluationKey
from repro.hecore.params import SchemeType, small_test_parameters


def slots(bfv, n=None):
    n = n or bfv.params.poly_degree
    rng = np.random.default_rng(42)
    return rng.integers(0, bfv.params.plain_modulus, n, dtype=np.int64)


def test_encode_decode_roundtrip(bfv):
    values = slots(bfv)
    assert np.array_equal(bfv.decode(bfv.encode(values)), values)


def test_encode_partial_vector_pads_zero(bfv):
    out = bfv.decode(bfv.encode([1, 2, 3]))
    assert list(out[:3]) == [1, 2, 3]
    assert np.all(out[3:] == 0)


def test_encode_rejects_oversize(bfv):
    with pytest.raises(ValueError):
        bfv.encode(list(range(bfv.params.poly_degree + 1)))


def test_encrypt_decrypt_roundtrip(bfv):
    values = slots(bfv)
    assert np.array_equal(bfv.decrypt(bfv.encrypt(values)), values)


def test_fresh_noise_budget_positive(bfv):
    ct = bfv.encrypt(slots(bfv))
    budget = bfv.noise_budget(ct)
    q_bits = bfv.params.data_base.bit_size
    t_bits = bfv.params.plain_modulus.bit_length()
    # SEAL-style fresh budget: roughly q - 2t - constant.
    assert budget > q_bits - 2 * t_bits - 15
    assert budget < q_bits - t_bits


def test_add(bfv):
    t = bfv.params.plain_modulus
    a, b = slots(bfv), np.roll(slots(bfv), 7)
    out = bfv.decrypt(bfv.add(bfv.encrypt(a), bfv.encrypt(b)))
    assert np.array_equal(out, (a + b) % t)


def test_sub(bfv):
    t = bfv.params.plain_modulus
    a, b = slots(bfv), np.roll(slots(bfv), 3)
    out = bfv.decrypt(bfv.sub(bfv.encrypt(a), bfv.encrypt(b)))
    assert np.array_equal(out, (a - b) % t)


def test_negate(bfv):
    t = bfv.params.plain_modulus
    a = slots(bfv)
    out = bfv.decrypt(bfv.negate(bfv.encrypt(a)))
    assert np.array_equal(out, (-a) % t)


def test_add_plain(bfv):
    t = bfv.params.plain_modulus
    a, b = slots(bfv), np.roll(slots(bfv), 1)
    out = bfv.decrypt(bfv.add_plain(bfv.encrypt(a), bfv.encode(b)))
    assert np.array_equal(out, (a + b) % t)


def test_multiply_plain(bfv):
    t = bfv.params.plain_modulus
    a, b = slots(bfv), np.roll(slots(bfv), 11)
    out = bfv.decrypt(bfv.multiply_plain(bfv.encrypt(a), bfv.encode(b)))
    assert np.array_equal(out, (a.astype(object) * b.astype(object)) % t)


def test_multiply_plain_consumes_noise(bfv):
    ct = bfv.encrypt(slots(bfv))
    before = bfv.noise_budget(ct)
    after = bfv.noise_budget(bfv.multiply_plain(ct, bfv.encode(slots(bfv))))
    assert after < before


def test_ciphertext_multiply(bfv):
    t = bfv.params.plain_modulus
    a, b = slots(bfv), np.roll(slots(bfv), 5)
    out = bfv.decrypt(bfv.multiply(bfv.encrypt(a), bfv.encrypt(b)))
    assert np.array_equal(out, (a.astype(object) * b.astype(object)) % t)


def test_square(bfv):
    t = bfv.params.plain_modulus
    a = slots(bfv)
    out = bfv.decrypt(bfv.square(bfv.encrypt(a)))
    assert np.array_equal(out, (a.astype(object) ** 2) % t)


def test_multiply_without_relin_has_three_components(bfv):
    ct = bfv.multiply(bfv.encrypt([1, 2]), bfv.encrypt([3, 4]), relinearize=False)
    assert len(ct) == 3
    relin = bfv.relinearize(ct)
    assert len(relin) == 2
    out = bfv.decrypt(relin)
    assert list(out[:2]) == [3, 8]


def test_rotate_rows(bfv):
    n = bfv.params.poly_degree
    bfv.make_galois_keys([1, 2])
    values = slots(bfv)
    out = bfv.decrypt(bfv.rotate_rows(bfv.encrypt(values), 2))
    half = n // 2
    expected = np.concatenate([np.roll(values[:half], -2), np.roll(values[half:], -2)])
    assert np.array_equal(out, expected)


def test_rotate_by_zero_is_identity(bfv):
    values = slots(bfv)
    bfv.make_galois_keys([1])
    out = bfv.decrypt(bfv.rotate_rows(bfv.encrypt(values), 0))
    assert np.array_equal(out, values)


def test_rotate_columns(bfv):
    n = bfv.params.poly_degree
    bfv.make_galois_keys([], include_conjugation=True)
    values = slots(bfv)
    out = bfv.decrypt(bfv.rotate_columns(bfv.encrypt(values)))
    half = n // 2
    assert np.array_equal(out, np.concatenate([values[half:], values[:half]]))


def test_rotation_consumes_little_noise(bfv):
    bfv.make_galois_keys([1])
    ct = bfv.encrypt(slots(bfv))
    before = bfv.noise_budget(ct)
    after = bfv.noise_budget(bfv.rotate_rows(ct, 1))
    assert before - after <= 6


def test_rotation_missing_key_raises(bfv):
    ct = bfv.encrypt([1])
    keys = bfv.make_galois_keys([1])
    with pytest.raises(MissingEvaluationKey):
        bfv._apply_galois(ct, 3**200 % (2 * bfv.params.poly_degree), keys)


def test_mod_switch_down_preserves_plaintext(bfv):
    values = slots(bfv)
    ct = bfv.mod_switch_down(bfv.encrypt(values))
    assert len(ct.level_base) == len(bfv.params.data_base) - 1
    assert np.array_equal(bfv.decrypt(ct), values)


def test_mod_switch_down_shrinks_wire_size(bfv):
    ct = bfv.encrypt(slots(bfv))
    smaller = bfv.mod_switch_down(ct)
    assert smaller.size_bytes() < ct.size_bytes()


def test_mod_switch_down_lowers_ceiling_not_correctness(bfv):
    ct = bfv.encrypt(slots(bfv))
    before = bfv.noise_budget(ct)
    after = bfv.noise_budget(bfv.mod_switch_down(ct))
    # The ceiling falls with the modulus; the remaining budget is set by the
    # switch's rounding noise (~t * ||s||-amplified epsilon): roughly
    # q'_bits - t_bits - c.
    q_prime_bits = sum(p.bit_length() for p in bfv.params.data_base.moduli[:-1])
    t_bits = bfv.params.plain_modulus.bit_length()
    assert after < before
    assert q_prime_bits - t_bits - 14 <= after <= q_prime_bits - t_bits
    assert after > 0


def test_mod_switch_down_exhausts_eventually(bfv):
    ct = bfv.encrypt(slots(bfv))
    ct = bfv.mod_switch_down(ct)
    ct = bfv.mod_switch_down(ct)
    with pytest.raises(ValueError):
        bfv.mod_switch_down(ct)   # one residue left: cannot drop


def test_operation_counter(bfv_params):
    ctx = BfvContext(bfv_params, seed=7)
    ctx.make_galois_keys([1])
    ct = ctx.encrypt([1, 2, 3])
    ct = ctx.add(ct, ct)
    ct = ctx.rotate_rows(ct, 1)
    ctx.decrypt(ct)
    assert ctx.counts["encrypt"] == 1
    assert ctx.counts["add"] == 1
    assert ctx.counts["rotate"] == 1
    assert ctx.counts["decrypt"] == 1


def test_deterministic_with_seed(bfv_params):
    a = BfvContext(bfv_params, seed=99)
    b = BfvContext(bfv_params, seed=99)
    ct_a = a.encrypt([5, 6, 7])
    ct_b = b.encrypt([5, 6, 7])
    assert np.array_equal(ct_a.components[0].data, ct_b.components[0].data)


@given(st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=16))
@settings(max_examples=10)
def test_homomorphic_add_property(values):
    params = small_test_parameters(SchemeType.BFV, poly_degree=256, plain_bits=14,
                                   data_bits=(28, 28))
    ctx = BfvContext(params, seed=1)
    out = ctx.decrypt(ctx.add(ctx.encrypt(values), ctx.encrypt(values)))
    t = params.plain_modulus
    assert list(out[: len(values)]) == [(2 * v) % t for v in values]
