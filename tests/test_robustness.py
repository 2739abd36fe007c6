"""Failure injection and adversarial-condition tests for the HE substrate.

HE's security story depends on mundane engineering properties too: a
ciphertext must be useless without the right key, corruption must not
silently produce plausible plaintexts of the original, and operations on
mismatched objects must fail loudly rather than compute garbage.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hecore.bfv import BfvContext
from repro.hecore.ckks import CkksContext
from repro.hecore.params import SchemeType, small_test_parameters


@pytest.fixture(scope="module")
def params():
    return small_test_parameters(SchemeType.BFV, poly_degree=512,
                                 plain_bits=16, data_bits=(29, 29))


def test_wrong_key_decrypts_garbage(params):
    alice = BfvContext(params, seed=1)
    eve = BfvContext(params, seed=2)
    secret = np.arange(100, dtype=np.int64)
    ct = alice.encrypt(secret)
    stolen = eve.decrypt(ct)
    # Eve's decryption shares essentially nothing with the plaintext.
    assert np.count_nonzero(stolen[:100] == secret) < 5


def test_ciphertext_looks_uniform(params):
    """Encryptions of identical plaintexts are unrelated ciphertexts."""
    ctx = BfvContext(params, seed=3)
    a = ctx.encrypt([1, 2, 3])
    b = ctx.encrypt([1, 2, 3])
    assert not np.array_equal(a.components[0].data, b.components[0].data)
    # Residues cover the modulus range, not clustered near the plaintext.
    spread = np.std(a.components[0].data[0].astype(float))
    assert spread > params.data_base.moduli[0] / 10


def test_corrupted_ciphertext_decrypts_wrong(params):
    ctx = BfvContext(params, seed=4)
    values = np.arange(64, dtype=np.int64)
    ct = ctx.encrypt(values)
    ct.components[0].data[0, 7] ^= 0x5A5A5A
    out = ctx.decrypt(ct)
    assert not np.array_equal(out[:64], values)


def test_cross_context_operations_fail(params):
    """Ciphertexts from different parameter sets cannot be combined."""
    other = small_test_parameters(SchemeType.BFV, poly_degree=1024,
                                  plain_bits=16, data_bits=(29, 29))
    a = BfvContext(params, seed=5)
    b = BfvContext(other, seed=6)
    with pytest.raises(ValueError):
        a.add(a.encrypt([1]), b.encrypt([2]))


def test_rotation_without_keys_fails(params):
    ctx = BfvContext(params, seed=7)
    ct = ctx.encrypt([1, 2, 3])
    with pytest.raises(ValueError):
        ctx.rotate_rows(ct, 1, None)


def test_relinearize_rejects_wrong_size(params):
    ctx = BfvContext(params, seed=8)
    ct = ctx.encrypt([1])
    four = ct.components + ct.components + ct.components[:2]
    from repro.hecore.ciphertext import Ciphertext
    with pytest.raises(ValueError):
        ctx.relinearize(Ciphertext(params, four[:4]))


@given(st.data())
@settings(max_examples=10)
def test_random_op_sequences_match_oracle(data):
    """Property: arbitrary add/sub/mul-plain/rotate sequences agree with a
    plaintext oracle (the homomorphism property, Eq. 1, composed)."""
    params = small_test_parameters(SchemeType.BFV, poly_degree=256,
                                   plain_bits=18, data_bits=(30, 30, 30))
    ctx = BfvContext(params, seed=99)
    ctx.make_galois_keys([1, 2])
    t = params.plain_modulus
    n = params.poly_degree
    half = n // 2

    state = np.array(data.draw(st.lists(
        st.integers(min_value=0, max_value=50), min_size=n, max_size=n)),
        dtype=np.int64)
    ct = ctx.encrypt(state)
    ops = data.draw(st.lists(st.sampled_from(
        ["add_plain", "mul_plain", "add_self", "rotate1", "rotate2"]),
        min_size=1, max_size=4))
    # Each full-entropy plaintext multiply burns ~log2(t)+6 bits; more than
    # two would exhaust these parameters' budget (correctly!), turning the
    # oracle comparison into a budget test.  Bound the depth instead.
    while ops.count("mul_plain") > 2:
        ops.remove("mul_plain")
    for op in ops:
        if op == "add_plain":
            other = np.arange(n, dtype=np.int64) % 17
            ct = ctx.add_plain(ct, ctx.encode(other))
            state = (state + other) % t
        elif op == "mul_plain":
            other = (np.arange(n, dtype=np.int64) % 5) + 1
            ct = ctx.multiply_plain(ct, ctx.encode(other))
            state = (state * other) % t
        elif op == "add_self":
            ct = ctx.add(ct, ct)
            state = (2 * state) % t
        elif op in ("rotate1", "rotate2"):
            steps = 1 if op == "rotate1" else 2
            ct = ctx.rotate_rows(ct, steps)
            state = np.concatenate([np.roll(state[:half], -steps),
                                    np.roll(state[half:], -steps)])
    assert np.array_equal(ctx.decrypt(ct), state)


@given(st.lists(st.floats(min_value=-1, max_value=1,
                          allow_nan=False, allow_infinity=False),
                min_size=1, max_size=16))
@settings(max_examples=10)
def test_ckks_add_mul_property(values):
    params = small_test_parameters(SchemeType.CKKS, poly_degree=512,
                                   data_bits=(30, 24, 24))
    ctx = CkksContext(params, seed=5)
    v = np.array(values)
    ct = ctx.encrypt(v)
    out = np.real(ctx.decrypt(ctx.rescale(ctx.multiply(ctx.add(ct, ct), ct))))
    assert np.allclose(out[: len(v)], 2 * v * v, atol=0.05)
