"""Direct tests for key generation and key switching internals."""

import numpy as np
import pytest

from repro.core.ir import ensure_galois_keys
from repro.hecore.bfv import BfvContext
from repro.hecore.ckks import CkksContext
from repro.hecore.keys import (
    KeyGenerator,
    MissingEvaluationKey,
    decompose_for_keyswitch,
    expand_uniform_poly,
    galois_element_for_conjugation,
    galois_element_for_step,
    keyswitch_ext_base,
    keyswitch_inner_product,
    switch_key,
)
from repro.hecore.modmath import MAX_MODULUS_BITS
from repro.hecore.params import (
    PARAMETER_SET_B,
    SchemeType,
    small_test_parameters,
)
from repro.hecore.polyring import RnsPoly
from repro.hecore.primes import generate_ntt_primes
from repro.hecore.random import BlakePrng
from repro.hecore.rns import RnsBase
from tests.value_digest import value_digest


@pytest.fixture(scope="module")
def params():
    return small_test_parameters(SchemeType.BFV, poly_degree=256,
                                 plain_bits=14, data_bits=(29, 29))


@pytest.fixture(scope="module")
def keygen(params):
    return KeyGenerator(params, seed=4321)


def test_secret_key_is_ternary(keygen):
    ints = keygen.secret_key().poly.to_int_coeffs(centered=True)
    assert set(ints) <= {-1, 0, 1}


def test_public_key_decrypts_to_small_error(params, keygen):
    """p0 + p1*s must be a small error polynomial (an encryption of zero)."""
    pk = keygen.public_key()
    s = keygen.secret_key().poly_ntt
    zero_enc = (pk.p0 + pk.p1 * s).from_ntt()
    assert zero_enc.infinity_norm() < 64 * 20


def test_galois_elements():
    n = 256
    assert galois_element_for_step(0, n) == 1
    assert galois_element_for_step(1, n) == 3
    assert galois_element_for_step(-1, n) == pow(3, n // 2 - 1, 2 * n)
    assert galois_element_for_conjugation(n) == 2 * n - 1
    # The generator has order N/2: a full cycle returns to the identity.
    assert galois_element_for_step(n // 2, n) == 1


def test_switch_key_preserves_relation(params, keygen):
    """switch_key(d, ksk) yields u0 + u1*s ≈ d*s_src with small noise."""
    n = params.poly_degree
    s = keygen.secret_key()
    s_sq = s.poly_ntt * s.poly_ntt
    ksk = keygen.relin_keys()

    rng = np.random.default_rng(0)
    d = RnsPoly.from_signed_array(params.data_base,
                                  rng.integers(-100, 100, n))
    u0, u1 = switch_key(d, ksk, params)

    s_data = s.restricted_ntt(params.data_base, params.full_base)
    s_sq_data = (s_data * s_data)
    lhs = (u0.to_ntt() + u1.to_ntt() * s_data).from_ntt()
    rhs = (d.to_ntt() * s_sq_data).from_ntt()
    noise = (lhs - rhs).infinity_norm()
    # Key-switch noise divided by the two special primes is tiny relative
    # to the data modulus.
    assert noise < params.data_base.modulus >> 20


#: The served parameter sets: the e2e CKKS set and set B.
SERVED_SETS = {
    "e2e-ckks": small_test_parameters(SchemeType.CKKS, 4096,
                                      data_bits=(30, 30, 30)),
    "set-b": PARAMETER_SET_B,
}


@pytest.mark.parametrize("name", sorted(SERVED_SETS))
@pytest.mark.parametrize("lead", [(), (2,), (3, 2)])
def test_decompose_reuses_each_digits_own_row(name, lead):
    """Given the polynomials' evaluation rows, the decompose copies digit
    i's row on q_i from row i and transforms only the cross rows: the
    block equals the all-rows decompose bit for bit, at every level."""
    params = SERVED_SETS[name]
    rng = np.random.default_rng(len(lead))
    for limbs in range(1, len(params.data_base) + 1):
        base = RnsBase.of(params.data_base.moduli[:limbs])
        ext = keyswitch_ext_base(base, params)
        block = np.mod(rng.integers(0, 2**62, (*lead, limbs,
                                                params.poly_degree)),
                       base.moduli_col)
        evaluated = np.stack([
            RnsPoly(base, params.poly_degree, poly).to_ntt().data
            for poly in block.reshape(-1, limbs, params.poly_degree)
        ]).reshape(block.shape)
        want = decompose_for_keyswitch(block, base, ext)
        got = decompose_for_keyswitch(block, base, ext, evaluated)
        assert got.shape == (*lead, limbs, limbs + 1, params.poly_degree)
        assert np.array_equal(got, want), limbs


@pytest.mark.parametrize("name", sorted(SERVED_SETS))
def test_switch_key_gives_the_same_bytes_in_either_form(name):
    """switch_key gives the same bytes for a coefficient- or
    evaluation-form target (the latter lends each digit its own row), and
    an evaluation-form fold returns ``x + u``."""
    params = SERVED_SETS[name]
    n = params.poly_degree
    ksk = KeyGenerator(params, seed=b"switch-tail").relin_keys()
    rng = np.random.default_rng(3)

    def poly():
        return RnsPoly(params.data_base, n, np.mod(
            rng.integers(0, 2**62, (len(params.data_base), n)),
            params.data_base.moduli_col))

    target, x0, x1 = poly(), poly(), poly()
    u = switch_key(target, ksk, params)
    summed = [x0 + u[0], x1 + u[1]]
    for form in (target, target.to_ntt()):
        assert all(np.array_equal(a.data, b.data) for a, b in zip(
            u, switch_key(form, ksk, params)))
        got = switch_key(form, ksk, params, fold=(x0.to_ntt(), x1.to_ntt()))
        assert all(np.array_equal(a.data, b.data)
                   for a, b in zip(got, summed))


@pytest.mark.parametrize("n_digits", [8, 9, 17])
def test_keyswitch_inner_product_matches_python_ints(n_digits):
    """The lazy digit sum at the edge of the limb width — the largest NTT
    primes below ``2**MAX_MODULUS_BITS`` at N = 4096, every residue ``p - 1``
    in the first column — across the 8-digit chunk it sums in int64."""
    base = RnsBase(generate_ntt_primes(MAX_MODULUS_BITS, 3, 4096))
    k, n = len(base), 16
    rng = np.random.default_rng(n_digits)
    pcol = base.moduli_col
    digits = rng.integers(0, 1 << 62, (n_digits, k, n)) % pcol
    keys = rng.integers(0, 1 << 62, (n_digits, 2, k, n)) % pcol
    digits[..., 0] = pcol[:, 0] - 1
    keys[..., 0] = pcol[:, 0] - 1
    got = keyswitch_inner_product(digits, keys, base)
    products = digits.astype(object)[:, None] * keys.astype(object)
    want = products.sum(axis=0) % pcol.astype(object)
    assert got.dtype == np.int64
    assert np.array_equal(got, want.astype(np.int64))


def test_galois_keys_cover_requested_steps(keygen, params):
    keys = keygen.galois_keys([1, 2, 5], include_conjugation=True)
    n = params.poly_degree
    for step in (1, 2, 5):
        assert galois_element_for_step(step, n) in keys
    assert galois_element_for_conjugation(n) in keys
    with pytest.raises(MissingEvaluationKey):
        keys.key_for(999999)


def test_galois_keys_extend_existing_without_regenerating(keygen, params):
    """Already-generated elements keep the SAME KeySwitchKey objects."""
    n = params.poly_degree
    first = keygen.galois_keys([1, 2])
    g1 = galois_element_for_step(1, n)
    g2 = galois_element_for_step(2, n)
    key_before = first.key_for(g1)
    extended = keygen.galois_keys([1, 2, 4], existing=first)
    assert extended is first
    assert extended.key_for(g1) is key_before
    assert extended.key_for(g2) is first.key_for(g2)
    assert galois_element_for_step(4, n) in extended


def test_context_galois_key_cache_survives_regeneration():
    """make_galois_keys only generates missing elements (satellite check)."""
    from repro.hecore.bfv import BfvContext

    ctx = BfvContext(small_test_parameters(
        SchemeType.BFV, poly_degree=256, plain_bits=14, data_bits=(29, 29)),
        seed=5)
    n = ctx.params.poly_degree
    gk1 = ctx.make_galois_keys([1, 2])
    g1 = galois_element_for_step(1, n)
    key_obj = gk1.key_for(g1)
    gk2 = ctx.make_galois_keys([1, 4])
    assert gk2 is gk1
    assert gk2.key_for(g1) is key_obj
    assert galois_element_for_step(4, n) in gk2


def test_key_sizes_scale_with_parameters(params, keygen):
    ksk = keygen.relin_keys()
    size = ksk.size_bytes(params)
    digits = len(params.data_base)
    k = params.logical_residue_count
    # k0 of every digit plus the 32-byte seed the uniform halves expand from.
    assert size == digits * k * params.poly_degree * 8 + 32


def test_expand_uniform_poly_deterministic(params):
    seed = b"\x01" * 32
    a = expand_uniform_poly(seed, params.data_base, params.poly_degree)
    b = expand_uniform_poly(seed, params.data_base, params.poly_degree)
    c = expand_uniform_poly(b"\x02" * 32, params.data_base, params.poly_degree)
    assert np.array_equal(a.data, b.data)
    assert not np.array_equal(a.data, c.data)


def test_one_seed_expansion_serves_ciphertexts_and_keys(params):
    """``expand_uniform_poly`` is the one-digit case of
    ``expand_keyswitch_uniform`` — evaluation form, and the same
    ``BlakePrng(seed)`` stream (one ``sample_uniform`` row per modulus, in
    base order) ciphertext seeds have always expanded with."""
    from repro.hecore.keys import expand_keyswitch_uniform
    from repro.hecore.random import BlakePrng

    seed, base, n = b"\x03" * 32, params.data_base, params.poly_degree
    a = expand_uniform_poly(seed, base, n)
    assert a.is_ntt and a.base == base
    assert np.array_equal(a.data, expand_keyswitch_uniform(seed, base, n, 1)[0])
    prng = BlakePrng(seed)
    assert np.array_equal(
        a.data, np.stack([prng.sample_uniform(n, p) for p in base.moduli]))
    # A key's first digit over the same base is the same block.
    assert np.array_equal(a.data, expand_keyswitch_uniform(seed, base, n, 2)[0])


def test_keygen_deterministic_with_seed(params):
    a = KeyGenerator(params, seed=7).secret_key().poly.data
    b = KeyGenerator(params, seed=7).secret_key().poly.data
    c = KeyGenerator(params, seed=8).secret_key().poly.data
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


#: Rotation steps of the served e2e key sets: the set-B DNN's conv and fc,
#: and the CKKS ``collapsed`` 64x16 KNN kernel.
DNN_CONV_STEPS = (-768, -512, -256, -13, -12, -11, -1, 1, 11, 12, 13)
DNN_FC_STEPS = (1, 2, 3, 4, 8, 12, 16, 32)
COLLAPSED_STEPS = tuple(range(1, 16)) + tuple(range(30, 121, 15)) + tuple(
    range(240, 841, 120))


def _dnn_session():
    ctx = BfvContext(PARAMETER_SET_B, seed=b"e2e-1-dnn-1")
    relin = ctx.relin_keys()
    return relin, ensure_galois_keys(ctx, DNN_CONV_STEPS, DNN_FC_STEPS)


def _ckks_collapsed_session():
    params = small_test_parameters(SchemeType.CKKS, 4096, data_bits=(30, 30, 30))
    ctx = CkksContext(params, seed=b"e2e-1-0")
    relin = ctx.relin_keys()
    return relin, ensure_galois_keys(ctx, COLLAPSED_STEPS)


def _extended_in_two_calls():
    ctx = BfvContext(PARAMETER_SET_B, seed=b"bench-client-crypto")
    relin = ctx.relin_keys()
    ctx.make_galois_keys([1])
    return relin, ctx.make_galois_keys(range(2, 10))


@pytest.mark.parametrize("make, n_galois, digest", [
    (_dnn_session, 17,
     "ca0529d750f7920e7bbcaf83010100f094be3c9eb46b6c2209383d882d0cc247"),
    (_ckks_collapsed_session, 28,
     "8b02322602e976134456f637c779ca1c04a4f9eb3a5576cecd2174555989af2d"),
    (_extended_in_two_calls, 9,
     "1e3128f6577c510f1881b2e8a06abc4f968639a62b554c89c300041905264c78"),
], ids=["dnn-set-B", "ckks-collapsed", "two-call-extension"])
def test_served_key_sets_are_byte_identical(make, n_galois, digest):
    """The relin + Galois keys a served session uploads, pinned by
    ``value_digest`` (seeds and ``k0`` rows, not the wire bytes) as the
    per-key, per-digit generator made them: same seeds, same draws, same
    residues, whatever the kernels that produce them."""
    relin, galois = make()
    assert len(galois.keys) == n_galois
    assert value_digest(relin, galois) == digest
