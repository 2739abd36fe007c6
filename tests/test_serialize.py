"""Tests for ciphertext/key serialization and seed compression."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.distance import KERNEL_VARIANTS
from repro.hecore.hoisting import HoistedRotator, keyswitch_sum
from repro.hecore.serialize import (
    deserialize_ciphertext,
    deserialize_galois_keys,
    deserialize_public_key,
    deserialize_relin_key,
    serialize_ciphertext,
    serialize_galois_keys,
    serialize_public_key,
    serialize_relin_key,
    serialized_size,
)
from tests.test_blob_corpus import _widths
from tests.test_rlwe import GOLDEN, _golden_run

#: Bytes per residue on the wire at the ``bfv`` fixture's 30-bit limbs:
#: each row travels at its modulus' byte width (version 5).  Stated here,
#: not imported, so the size tests pin the contract.
WORD_BYTES = 4


def test_roundtrip_public_ciphertext(bfv):
    values = np.arange(50, dtype=np.int64)
    ct = bfv.encrypt(values)
    blob = serialize_ciphertext(ct)
    assert len(blob) == serialized_size(ct)
    restored = deserialize_ciphertext(blob, bfv.params)
    assert np.array_equal(bfv.decrypt(restored)[:50], values)


def test_roundtrip_symmetric_seeded(bfv):
    values = np.arange(30, dtype=np.int64)
    ct = bfv.encrypt_symmetric(values)
    assert ct.seed is not None
    blob = serialize_ciphertext(ct)
    restored = deserialize_ciphertext(blob, bfv.params)
    assert np.array_equal(restored.components[1].data, ct.components[1].data)
    assert np.array_equal(bfv.decrypt(restored)[:30], values)


def test_seed_compression_halves_size(bfv):
    values = [1, 2, 3]
    public = serialize_ciphertext(bfv.encrypt(values))
    seeded = serialize_ciphertext(bfv.encrypt_symmetric(values))
    # One stored component instead of two, plus a 32-byte seed.
    assert len(seeded) < len(public) * 0.55
    uncompressed = serialize_ciphertext(bfv.encrypt_symmetric(values),
                                        compress_seed=False)
    assert len(uncompressed) == len(public)


# ------------------------------------------- seeded => evaluation form (v3)

@pytest.mark.parametrize("scheme", ["bfv", "ckks"])
def test_fresh_upload_is_seeded_evaluation_form_and_one_component_wide(scheme):
    """At the served shape (N = 4096, three 30-bit logical limbs) a fresh
    upload is exactly header 21 + moduli 24 + seed 32 + one component at
    its rows' byte widths: 49,229 B for BFV's three 30-bit rows, 45,133 B
    for the e2e CKKS set's 30 / 24 / 25-bit rows (4 + 3 + 4 bytes a
    coefficient), single-shot or batched: nothing on the client path may
    ship ``c1``."""
    from repro.hecore import context_for
    from repro.hecore.params import SchemeType, small_test_parameters

    kind = SchemeType.BFV if scheme == "bfv" else SchemeType.CKKS
    params = small_test_parameters(kind, poly_degree=4096, plain_bits=16,
                                   data_bits=(30, 30, 30))
    ctx = context_for(params, seed=b"wire")
    for ct in [ctx.encrypt_symmetric([1, 2])] + ctx.encrypt_symmetric_many(
            [[3], [4]]):
        assert ct.is_ntt and all(c.is_ntt for c in ct.components)
        blob = serialize_ciphertext(ct)
        assert len(blob) == serialized_size(ct) == {"bfv": 49_229,
                                                    "ckks": 45_133}[scheme]
        assert blob[6] == 3                      # SEEDED | NTT
        restored = deserialize_ciphertext(blob, params)
        assert restored.seed == ct.seed and restored.is_ntt
        for got, want in zip(restored.components, ct.components):
            assert got.is_ntt and np.array_equal(got.data, want.data)
        assert serialize_ciphertext(restored) == blob


def test_seeded_blob_without_the_ntt_flag_is_refused_by_name(bfv):
    blob = bytearray(serialize_ciphertext(bfv.encrypt_symmetric([5])))
    assert blob[6] == 3
    blob[6] = 1                                   # SEEDED, NTT cleared
    with pytest.raises(ValueError, match="_FLAG_NTT"):
        deserialize_ciphertext(bytes(blob), bfv.params)


def test_seed_survives_copy_only(bfv):
    """The seed names the evaluation-form ``c1`` it expands to, so every
    form change drops it (the blob then ships both components) and a
    hand-built coefficient-form ciphertext cannot claim one."""
    from repro.hecore.ciphertext import Ciphertext

    ct = bfv.encrypt_symmetric([5, 6])
    assert ct.copy().seed == ct.seed
    assert ct.to_ntt().seed is None and ct.from_ntt().seed is None
    full = serialize_ciphertext(ct.from_ntt())
    assert len(full) == len(serialize_ciphertext(bfv.encrypt([5, 6])))
    assert np.array_equal(
        bfv.decrypt(deserialize_ciphertext(full, bfv.params))[:2], [5, 6])
    forged = Ciphertext(ct.params, [c.from_ntt() for c in ct.components],
                        seed=ct.seed)
    with pytest.raises(ValueError, match="evaluation form"):
        serialize_ciphertext(forged)


def test_symmetric_decrypts_and_operates(bfv):
    t = bfv.params.plain_modulus
    a = np.arange(20, dtype=np.int64)
    ct = bfv.encrypt_symmetric(a)
    assert np.array_equal(bfv.decrypt(ct)[:20], a)
    doubled = bfv.add(ct, ct)
    assert doubled.seed is None          # derived ciphertexts lose the seed
    assert np.array_equal(bfv.decrypt(doubled)[:20], (2 * a) % t)


def test_symmetric_deterministic_seed(bfv):
    seed = bytes(range(32))
    ct1 = bfv.encrypt_symmetric([7, 8], seed=seed)
    ct2 = bfv.encrypt_symmetric([7, 8], seed=seed)
    # Same seed -> identical uniform component (error terms still differ).
    assert np.array_equal(ct1.components[1].data, ct2.components[1].data)


def test_symmetric_fresh_noise_not_worse(bfv):
    public = bfv.noise_budget(bfv.encrypt([1, 2, 3]))
    symmetric = bfv.noise_budget(bfv.encrypt_symmetric([1, 2, 3]))
    assert symmetric >= public - 1


def test_ckks_symmetric_roundtrip(ckks):
    v = np.linspace(-1, 1, 16)
    ct = ckks.encrypt_symmetric(v)
    blob = serialize_ciphertext(ct)
    restored = deserialize_ciphertext(blob, ckks.params)
    assert np.allclose(np.real(ckks.decrypt(restored))[:16], v, atol=1e-2)


def test_ckks_reduced_level_roundtrip(ckks):
    v = np.linspace(0, 1, 8)
    ct = ckks.rescale(ckks.square(ckks.encrypt(v)))
    restored = deserialize_ciphertext(serialize_ciphertext(ct), ckks.params)
    assert restored.level_base == ct.level_base
    assert restored.scale == ct.scale
    assert np.allclose(np.real(ckks.decrypt(restored))[:8], v * v, atol=1e-2)


def test_rejects_garbage(bfv):
    with pytest.raises(ValueError):
        deserialize_ciphertext(b"nope" + b"\0" * 64, bfv.params)


def test_rejects_wrong_params(bfv, ckks):
    blob = serialize_ciphertext(bfv.encrypt([1]))
    with pytest.raises(ValueError):
        deserialize_ciphertext(blob, ckks.params)


def test_rejects_truncated(bfv):
    blob = serialize_ciphertext(bfv.encrypt([1]))
    with pytest.raises(ValueError):
        deserialize_ciphertext(blob + b"\0", bfv.params)


def test_public_key_roundtrip(bfv):
    pk = bfv.keygen.public_key()
    restored = deserialize_public_key(serialize_public_key(pk))
    assert np.array_equal(restored.p0.data, pk.p0.data)
    assert np.array_equal(restored.p1.data, pk.p1.data)
    assert restored.p0.is_ntt


@given(st.integers(min_value=0, max_value=2**32), st.integers(0, 255))
@settings(max_examples=25)
def test_deserializer_survives_fuzzing(bfv_fuzz_blob, position, flip):
    """Corrupted blobs either raise ValueError or decode to *something* —
    never crash with unguarded low-level errors."""
    blob = bytearray(bfv_fuzz_blob[0])
    ctx, params = bfv_fuzz_blob[1], bfv_fuzz_blob[2]
    blob[position % len(blob)] ^= flip or 1
    try:
        deserialize_ciphertext(bytes(blob), params)
    except (ValueError, KeyError, OverflowError):
        pass    # rejected cleanly


@pytest.fixture(scope="module")
def bfv_fuzz_blob():
    from repro.hecore.bfv import BfvContext
    from repro.hecore.params import SchemeType, small_test_parameters

    params = small_test_parameters(SchemeType.BFV, poly_degree=256,
                                   plain_bits=16, data_bits=(28, 28))
    ctx = BfvContext(params, seed=7)
    return serialize_ciphertext(ctx.encrypt([1, 2, 3])), ctx, params


# ---------------------------------------------------------------------------
# Strict validation: every malformed blob is a clean ValueError
# ---------------------------------------------------------------------------

def test_rejects_wrong_version(bfv):
    blob = bytearray(serialize_ciphertext(bfv.encrypt([1])))
    blob[4] = 99                     # the version byte follows the magic
    with pytest.raises(ValueError, match="version"):
        deserialize_ciphertext(bytes(blob), bfv.params)


def test_version_1_blobs_are_refused_by_name(bfv):
    """No negotiation: a v1 blob (full evaluation keys), a v2 blob
    (coefficient-form ciphertext seeds), a v3 blob (8-byte residue words)
    or a v4 blob (4-byte residue words) of any kind is refused, and the
    error names the version."""
    blobs = {
        deserialize_ciphertext: serialize_ciphertext(bfv.encrypt([1])),
        deserialize_relin_key: serialize_relin_key(bfv.relin_keys()),
        deserialize_galois_keys:
            serialize_galois_keys(bfv.make_galois_keys([1])),
        deserialize_public_key:
            serialize_public_key(bfv.keygen.public_key()),
    }
    for reader, blob in blobs.items():
        assert blob[4] == 5
        for old in (1, 2, 3, 4):
            stale = blob[:4] + bytes([old]) + blob[5:]
            with pytest.raises(ValueError, match=f"unsupported version {old}"):
                reader(stale, bfv.params)


def test_rejects_corrupted_magic(bfv):
    blob = bytearray(serialize_ciphertext(bfv.encrypt([1])))
    blob[0:4] = b"HCOC"
    with pytest.raises(ValueError, match="not a CHOCO"):
        deserialize_ciphertext(bytes(blob), bfv.params)


@pytest.mark.parametrize("cut", [0, 3, 10, 19, 40, -1])
def test_rejects_truncation_everywhere(bfv, cut):
    """Cutting the blob at any point raises ValueError, never a numpy or
    struct crash."""
    blob = serialize_ciphertext(bfv.encrypt_symmetric([5, 6]))
    with pytest.raises(ValueError):
        deserialize_ciphertext(blob[:cut], bfv.params)


def test_ntt_flag_roundtrips(ckks):
    from repro.hecore.ciphertext import Ciphertext

    plain = ckks.encrypt([0.5, 0.25])        # fresh: coefficient form
    assert not plain.is_ntt
    restored = deserialize_ciphertext(serialize_ciphertext(plain),
                                      ckks.params)
    assert restored.is_ntt == plain.is_ntt

    ntt = Ciphertext(plain.params, [c.to_ntt() for c in plain.components],
                     scale=plain.scale)
    assert ntt.is_ntt
    restored = deserialize_ciphertext(serialize_ciphertext(ntt), ckks.params)
    assert restored.is_ntt
    assert all(c.is_ntt for c in restored.components)
    # Same plaintext through either representation.
    v = np.real(ckks.decrypt(restored))[:2]
    assert np.allclose(v, [0.5, 0.25], atol=1e-2)


@pytest.mark.parametrize("scale", [float("nan"), float("inf"), 0.0, -1.0])
@pytest.mark.parametrize("scheme", ["bfv", "ckks"])
def test_non_finite_or_non_positive_scale_is_refused_by_name(request, scheme,
                                                            scale):
    """Decryption divides by a ciphertext's scale, so a blob whose ``f64``
    scale (offset 12, after magic, version, scheme, flags, component count
    and degree) is NaN, infinite, zero or negative is refused — in both
    schemes, though BFV never reads it."""
    import struct as _struct

    ctx = request.getfixturevalue(scheme)
    ct = ctx.encrypt_symmetric([1, 2])
    blob = bytearray(serialize_ciphertext(ct))
    assert _struct.unpack_from("<d", blob, 12)[0] == ct.scale > 0
    _struct.pack_into("<d", blob, 12, scale)
    with pytest.raises(ValueError, match=f"scale {scale} is not a finite"):
        deserialize_ciphertext(bytes(blob), ctx.params)


def test_ckks_scale_preserved_exactly(ckks):
    v = np.linspace(0.1, 0.9, 8)
    ct = ckks.rescale(ckks.square(ckks.encrypt(v)))
    assert ct.scale != ckks.params.scale     # rescale leaves an odd scale
    restored = deserialize_ciphertext(serialize_ciphertext(ct), ckks.params)
    assert restored.scale == ct.scale        # f64 round-trip is exact


# ---------------------------------------------------------------------------
# Evaluation keys on the wire
# ---------------------------------------------------------------------------

def _full_keys(ctx, steps, include_conjugation=False):
    """Full-level keys for exactly *steps*: a shared context also holds the
    keys other tests' kernels made, at their own levels."""
    from repro.hecore.keys import (
        GaloisKeys,
        galois_element_for_conjugation,
        galois_element_for_step,
    )

    n = ctx.params.poly_degree
    held = ctx.make_galois_keys(steps, include_conjugation).keys
    elts = {galois_element_for_step(s, n) for s in steps}
    if include_conjugation:
        elts.add(galois_element_for_conjugation(n))
    return GaloisKeys({g: held[g] for g in elts})


def _ksk_equal(a, b) -> bool:
    return len(a.digits) == len(b.digits) and all(
        np.array_equal(x0.data, y0.data) and np.array_equal(x1.data, y1.data)
        for (x0, x1), (y0, y1) in zip(a.digits, b.digits)
    )


def _assert_same_key(restored, generated, params):
    """Equality by construction: the deserialized key's stacked block — k0
    off the wire, k1 regenerated from the seed — is bit-equal to the
    generator's, and it re-serialises to the identical bytes."""
    assert _ksk_equal(generated, restored)
    assert restored.seed == generated.seed
    assert all(k0.is_ntt and k1.is_ntt for k0, k1 in restored.digits)
    count = len(params.data_base)
    assert np.array_equal(restored.stacked_digits(count),
                          generated.stacked_digits(count))


def test_relin_key_roundtrip(bfv, ckks):
    for ctx in (bfv, ckks):
        rk = ctx.relin_keys()
        blob = serialize_relin_key(rk)
        restored = deserialize_relin_key(blob, ctx.params)
        _assert_same_key(restored, rk, ctx.params)
        assert serialize_relin_key(restored) == blob


def test_galois_keys_roundtrip(bfv, ckks):
    for ctx in (bfv, ckks):
        gk = _full_keys(ctx, [1, 2, 4], include_conjugation=True)
        blob = serialize_galois_keys(gk)
        restored = deserialize_galois_keys(blob, ctx.params)
        assert set(restored.keys) == set(gk.keys)
        for elt in gk.keys:
            _assert_same_key(restored.keys[elt], gk.keys[elt], ctx.params)
        assert serialize_galois_keys(restored) == blob


def test_key_wire_size_is_k0_plus_seed(bfv):
    """A uniform key polynomial never crosses the wire: each key is its
    digit count, one 32-byte seed and k0 of every digit."""
    params = bfv.params
    per_key = (1 + 32 + len(params.data_base) * len(params.full_base)
               * params.poly_degree * WORD_BYTES)
    header = 11 + 8 * len(params.full_base)
    assert len(serialize_relin_key(bfv.relin_keys())) == header + per_key
    gk = _full_keys(bfv, [1, 2, 4])
    assert (len(serialize_galois_keys(gk))
            == header + 2 + len(gk.keys) * (4 + per_key))


def test_logical_key_accounting_reconciles_with_the_wire():
    """``size_bytes`` (what the plans and the CostLedger charge) reconciles
    with the physical blob whenever the logical and physical residue counts
    agree: its 8-byte logical words are twice the blob's 4-byte physical
    words, byte for byte, and the seed and framing are the same on both
    sides.  (Every set key-switches with one 30-bit special prime standing
    in for the logical key prime; the counts differ only where a logical
    data prime is split into several 30-bit limbs.)"""
    from repro.hecore.bfv import BfvContext
    from repro.hecore.ckks import CkksContext
    from repro.hecore.params import EncryptionParameters, SchemeType

    for scheme, cls in ((SchemeType.BFV, BfvContext),
                        (SchemeType.CKKS, CkksContext)):
        params = EncryptionParameters.create(
            scheme, 256, (28, 24, 30), plain_bits=14, scale_bits=24,
            enforce_security=False)
        assert params.logical_residue_count == len(params.full_base)
        ctx = cls(params, seed=23)
        header = 11 + 8 * len(params.full_base)
        rk = ctx.relin_keys()
        physical = len(serialize_relin_key(rk)) - header - 1 - 32
        assert rk.size_bytes(params) - 32 == 2 * physical
        gk = _full_keys(ctx, [1, 2, 4])
        framing = header + 2 + len(gk.keys) * (4 + 1)
        seeds = 32 * len(gk.keys)
        physical = len(serialize_galois_keys(gk)) - framing - seeds
        assert gk.size_bytes(params) - seeds == 2 * physical


def test_keygen_and_deserialization_share_one_expansion(bfv_params,
                                                        monkeypatch):
    """There is one definition of a key's uniform half: patching it once
    changes what the generator produces AND what a deserializer rebuilds."""
    from repro.hecore import keys
    from repro.hecore.bfv import BfvContext

    blob = serialize_relin_key(BfvContext(bfv_params, seed=3).relin_keys())

    def all_sevens(seed, full_base, degree, n_digits):
        return np.full((n_digits, len(full_base), degree), 7, dtype=np.int64)

    monkeypatch.setattr(keys, "expand_keyswitch_uniform", all_sevens)
    generated = BfvContext(bfv_params, seed=3).relin_keys()
    restored = deserialize_relin_key(blob, bfv_params)
    for key in (generated, restored):
        assert all(np.all(k1.data == 7) for _k0, k1 in key.digits)


def test_key_without_a_seed_cannot_be_serialized(bfv):
    from repro.hecore.keys import GaloisKeys, KeySwitchKey, RelinKeys

    digits = bfv.relin_keys().digits
    with pytest.raises(ValueError, match="no seed"):
        serialize_relin_key(RelinKeys(digits))
    with pytest.raises(ValueError, match="no seed"):
        serialize_galois_keys(GaloisKeys({3: KeySwitchKey(digits)}))


def test_deserialized_galois_keys_prestack_without_copy(bfv):
    """Key blobs deserialize straight into the stacked hoisting layout.

    The unpacked contiguous store doubles as the full-level stacked-digit
    cache entry, so the first hoisted rotation after a key upload performs
    no re-layout copy: the per-digit RnsPoly views and the stacked block
    share memory.
    """
    gk = bfv.make_galois_keys([1, 2])
    restored = deserialize_galois_keys(serialize_galois_keys(gk), bfv.params)
    for ksk in restored.keys.values():
        k_full = ksk.digits[0][0].data.shape[0]
        n_digits = len(ksk.digits)
        block = ksk.stacked_digits(n_digits)
        assert block.shape == (n_digits, 2, k_full, bfv.params.poly_degree)
        # Same storage, not a stacking copy.
        assert np.shares_memory(block, ksk.digits[0][0].data)
        assert np.shares_memory(block, ksk.digits[-1][1].data)
        # Cache hit returns the identical array.
        assert ksk.stacked_digits(n_digits) is block
        for d, (k0, k1) in enumerate(ksk.digits):
            assert np.array_equal(block[d, 0], k0.data)
            assert np.array_equal(block[d, 1], k1.data)


def test_stacked_digits_partial_rows(bfv):
    """Reduced-level requests (subset of rows / digits) stack correctly."""
    gk = bfv.make_galois_keys([4])
    restored = deserialize_galois_keys(serialize_galois_keys(gk), bfv.params)
    ksk = next(iter(restored.keys.values()))
    k_full = ksk.digits[0][0].data.shape[0]
    rows = [0, k_full - 1]
    block = ksk.stacked_digits(1)
    assert block.shape == (1, 2, 2, bfv.params.poly_degree)
    assert np.array_equal(block[0, 0], ksk.digits[0][0].data[rows])
    assert ksk.stacked_digits(1) is block


def test_deserialized_galois_keys_bitexact_rotation(bfv):
    """Rotating with a deserialized key matches the in-memory key exactly."""
    gk = bfv.make_galois_keys([3])
    restored = deserialize_galois_keys(serialize_galois_keys(gk), bfv.params)
    ct = bfv.encrypt(bfv.encode(np.arange(128, dtype=np.int64)))
    a = serialize_ciphertext(bfv.rotate_rows(ct, 3, gk))
    b = serialize_ciphertext(bfv.rotate_rows(ct, 3, restored))
    c = serialize_ciphertext(keyswitch_sum(
        bfv, [HoistedRotator(bfv, ct, restored)], [(3, 0)]))
    assert a == b == c


def test_key_kind_confusion_rejected(bfv):
    pk_blob = serialize_public_key(bfv.keygen.public_key())
    with pytest.raises(ValueError, match="kind"):
        deserialize_relin_key(pk_blob, bfv.params)
    rk_blob = serialize_relin_key(bfv.relin_keys())
    with pytest.raises(ValueError, match="kind"):
        deserialize_galois_keys(rk_blob, bfv.params)


def test_key_blob_trailing_bytes_rejected(bfv):
    blob = serialize_relin_key(bfv.relin_keys())
    with pytest.raises(ValueError, match="trailing"):
        deserialize_relin_key(blob + b"\0", bfv.params)
    gblob = serialize_galois_keys(bfv.make_galois_keys([2]))
    with pytest.raises(ValueError, match="trailing"):
        deserialize_galois_keys(gblob + b"\0", bfv.params)


def _galois_layout(params):
    """Offsets into a Galois blob: (first element id, per-key stride)."""
    first = 11 + 8 * len(params.full_base) + 2
    stride = 4 + 1 + 32 + (len(params.data_base) * len(params.full_base)
                           * params.poly_degree * WORD_BYTES)
    return first, stride


@pytest.fixture
def no_expansion(monkeypatch):
    """Fails the test if a key's uniform half is expanded: malformed blobs
    must be refused before any seed is expanded or key store allocated."""
    from repro.hecore import keys

    def refuse(*_args):
        raise AssertionError("expanded a seed from a malformed key blob")

    monkeypatch.setattr(keys, "expand_keyswitch_uniform", refuse)


def test_key_blob_truncation_rejected(bfv, no_expansion):
    """Cuts in the header, the key count, an element id, inside the seed,
    inside k0 of the first and of the last key, and one byte short."""
    blob = serialize_galois_keys(_full_keys(bfv, [1, 2]))
    first, stride = _galois_layout(bfv.params)
    cuts = (3, first - 1, first + 2, first + 4 + 1 + 16, first + stride // 2,
            first + stride + stride // 2, len(blob) - 1)
    for cut in cuts:
        with pytest.raises(ValueError):
            deserialize_galois_keys(blob[:cut], bfv.params)
    rblob = serialize_relin_key(bfv.relin_keys())
    for cut in (3, len(rblob) - stride + 4 + 10, len(rblob) // 2,
                len(rblob) - 1):
        with pytest.raises(ValueError):
            deserialize_relin_key(rblob[:cut], bfv.params)


def test_key_blob_length_is_checked_before_anything_is_built(
        bfv, no_expansion, monkeypatch):
    """The exact-length check comes first: a one-byte-short (or long) blob
    — at full scale, 24 MB of it — costs the server neither an expansion
    nor a key-store allocation."""
    from repro.hecore import serialize

    def refuse(*_args, **_kwargs):
        raise AssertionError("allocated a key store for a malformed blob")

    monkeypatch.setattr(serialize, "_unpack_ksk", refuse)
    gblob = serialize_galois_keys(_full_keys(bfv, [1, 2, 4]))
    rblob = serialize_relin_key(bfv.relin_keys())
    for bad in (gblob[:-1], gblob + b"\0"):
        with pytest.raises(ValueError, match="truncated or trailing"):
            deserialize_galois_keys(bad, bfv.params)
    for bad in (rblob[:-1], rblob + b"\0"):
        with pytest.raises(ValueError, match="truncated or trailing"):
            deserialize_relin_key(bad, bfv.params)


def test_key_blob_digit_count_must_match_parameters(bfv, no_expansion):
    """A digit count that disagrees with the parameter set is refused in
    any key of the set — the last one too — before the first is built."""
    gk = _full_keys(bfv, [1, 2])
    first, stride = _galois_layout(bfv.params)
    for index in range(len(gk.keys)):
        blob = bytearray(serialize_galois_keys(gk))
        blob[first + index * stride + 4] -= 1
        with pytest.raises(ValueError, match="digits"):
            deserialize_galois_keys(bytes(blob), bfv.params)
    rblob = bytearray(serialize_relin_key(bfv.relin_keys()))
    rblob[first - 2] += 1
    with pytest.raises(ValueError, match="digits"):
        deserialize_relin_key(bytes(rblob), bfv.params)


@pytest.fixture(scope="module")
def trimmed_galois(bfv_params):
    """A Galois blob whose keys sit at 1, 2 and 3 (all) of the 3 limbs,
    and each entry's offset: ``(blob, [(offset, n_digits), ...])``."""
    from repro.hecore.keys import KeyGenerator, RotationSteps

    keys = KeyGenerator(bfv_params, seed=41).galois_keys(
        RotationSteps({1: 1, 2: 2, 4: None}))
    blob = serialize_galois_keys(keys)
    at, entries = 11 + 8 * len(bfv_params.full_base) + 2, []
    for elt in sorted(keys.keys):
        digits = keys.keys[elt].limbs
        entries.append((at, digits))
        at += 4 + 1 + 32 + (digits * (digits + 1) * bfv_params.poly_degree
                            * WORD_BYTES)
    assert at == len(blob) and [d for _, d in entries] == [1, 2, 3]
    return blob, entries


@pytest.fixture
def no_key_built(monkeypatch, no_expansion):
    """Fails the test if a key is built from a malformed blob."""
    from repro.hecore import serialize

    def refuse(*_args, **_kwargs):
        raise AssertionError("built a key from a malformed blob")

    monkeypatch.setattr(serialize, "_unpack_ksk", refuse)


def test_trimmed_galois_blob_round_trips(bfv_params, trimmed_galois):
    blob, entries = trimmed_galois
    keys = deserialize_galois_keys(blob, bfv_params)
    assert sorted(k.limbs for k in keys.keys.values()) == [1, 2, 3]
    assert serialize_galois_keys(keys) == blob


@pytest.mark.parametrize("digits", [0, 4, 0xFF])
def test_galois_key_digit_count_outside_one_to_k_is_refused(
        bfv_params, trimmed_galois, no_key_built, digits):
    blob, entries = trimmed_galois
    for at, _ in entries:
        bad = bytearray(blob)
        bad[at + 4] = digits
        with pytest.raises(ValueError, match=f"has {digits} digits, "
                                             f"parameters require 1..3"):
            deserialize_galois_keys(bytes(bad), bfv_params)


def test_galois_digit_counts_that_disagree_with_the_length_are_refused(
        bfv_params, trimmed_galois, no_key_built):
    """Every in-range lie about any key's digit count moves the offsets of
    what follows or the blob's length: refused, whatever it lands on."""
    blob, entries = trimmed_galois
    for at, digits in entries:
        for lie in {1, 2, 3} - {digits}:
            bad = bytearray(blob)
            bad[at + 4] = lie
            with pytest.raises(ValueError):
                deserialize_galois_keys(bytes(bad), bfv_params)
    # The last key's lie leaves nothing to misread: the length tells.
    at, _ = entries[-1]
    bad = bytearray(blob)
    bad[at + 4] = 2
    with pytest.raises(ValueError, match="keys' digits make .*truncated"):
        deserialize_galois_keys(bytes(bad), bfv_params)


def test_galois_blob_truncated_inside_a_trimmed_key_is_refused(
        bfv_params, trimmed_galois, no_key_built):
    blob, entries = trimmed_galois
    for (at, _), end in zip(entries, [e for e, _ in entries[1:]] + [len(blob)]):
        for cut in (at + 4 + 1 + 16, at + 37 + 1, (at + end) // 2, end - 1):
            with pytest.raises(ValueError):
                deserialize_galois_keys(blob[:cut], bfv_params)


def test_galois_blob_with_one_element_at_two_levels_is_refused(
        bfv_params, trimmed_galois, no_key_built):
    """The 1-digit key's entry twice, once relabelled as the 2-digit key's
    element: one element at two levels."""
    blob, entries = trimmed_galois
    (one, _), (two, _), (three, _) = entries
    head = bytearray(blob[:one])
    head[-2:] = (2).to_bytes(2, "little")
    twice = bytes(head) + blob[one:two] + blob[two:three]
    twice = twice[:two] + blob[one:one + 4] + twice[two + 4:]
    with pytest.raises(ValueError, match="duplicate Galois element"):
        deserialize_galois_keys(twice, bfv_params)


def test_galois_blob_duplicate_element_rejected(bfv, no_expansion):
    gk = _full_keys(bfv, [1, 2])
    blob = bytearray(serialize_galois_keys(gk))
    first, stride = _galois_layout(bfv.params)
    blob[first + stride: first + stride + 4] = blob[first: first + 4]
    with pytest.raises(ValueError, match="duplicate Galois element"):
        deserialize_galois_keys(bytes(blob), bfv.params)


def test_galois_blob_invalid_element_rejected(bfv):
    import struct as _struct

    gk = bfv.make_galois_keys([1])
    blob = bytearray(serialize_galois_keys(gk))
    # The first element id sits right after the key header, moduli and count.
    offset = 11 + 8 * len(bfv.params.full_base) + 2
    _struct.pack_into("<I", blob, offset, 6)     # even => not a valid element
    with pytest.raises(ValueError, match="Galois element"):
        deserialize_galois_keys(bytes(blob), bfv.params)


def test_empty_galois_set_rejected():
    from repro.hecore.keys import GaloisKeys

    with pytest.raises(ValueError, match="empty"):
        serialize_galois_keys(GaloisKeys({}))


# ---------------------------------------------------------------------------
# Hostile residues: a word at or above its modulus never reaches arithmetic
# ---------------------------------------------------------------------------

def _hostile_site(kind, ctx):
    """(reader, blob, byte offset of one residue word, its modulus, how the
    error names it) for one blob of *kind*: coefficient 7 of the last
    residue row of the last component or digit (of the second Galois key)."""
    params = ctx.params
    n, full = params.poly_degree, params.full_base.moduli
    row = WORD_BYTES * n
    word = 7 * WORD_BYTES
    key_header = 11 + 8 * len(full)
    if kind == "ciphertext":
        data = params.data_base.moduli
        blob = serialize_ciphertext(ctx.encrypt([1, 2]))
        at = 21 + 8 * len(data) + (2 * len(data) - 1) * row + word
        return (deserialize_ciphertext, blob, at, data[-1],
                f"ciphertext component 1 residue {len(data) - 1}")
    if kind == "public":
        blob = serialize_public_key(ctx.keygen.public_key())
        at = key_header + (2 * len(full) - 1) * row + word
        return (deserialize_public_key, blob, at, full[-1],
                f"public-key component 1 residue {len(full) - 1}")
    digits = len(params.data_base)
    last = (digits * len(full) - 1) * row + word
    where = f"digit {digits - 1} residue {len(full) - 1}"
    if kind == "relin":
        blob = serialize_relin_key(ctx.relin_keys())
        return (deserialize_relin_key, blob, key_header + 33 + last,
                full[-1], where)
    gk = _full_keys(ctx, [1, 2])
    first, stride = _galois_layout(params)
    return (deserialize_galois_keys, serialize_galois_keys(gk),
            first + stride + 4 + 33 + last, full[-1],
            f"element {sorted(gk.keys)[1]} {where}")


@pytest.mark.parametrize("word", ["modulus", 0xFFFFFFFF])
@pytest.mark.parametrize("kind", ["ciphertext", "public", "relin", "galois"])
def test_residue_at_or_above_its_modulus_is_refused_by_name(
        bfv, no_expansion, kind, word):
    """The 4-byte word carries values up to 2**32 - 1 where a residue is
    below a 30-bit modulus: every reader checks each row against its
    modulus before widening, and names the residue it refuses — before any
    key seed is expanded."""
    import struct as _struct

    reader, blob, at, modulus, where = _hostile_site(kind, bfv)
    value = modulus if word == "modulus" else word
    hostile = bytearray(blob)
    _struct.pack_into("<I", hostile, at, value)
    with pytest.raises(ValueError, match=f"{where}: word {value} is not "
                                         f"below its modulus {modulus}"):
        reader(bytes(hostile), bfv.params)


@pytest.mark.parametrize("kind", ["ciphertext", "public"])
def test_largest_residue_is_accepted(bfv, kind):
    import struct as _struct

    reader, blob, at, modulus, _where = _hostile_site(kind, bfv)
    edge = bytearray(blob)
    _struct.pack_into("<I", edge, at, modulus - 1)
    restored = reader(bytes(edge), bfv.params)
    poly = restored.components[1] if kind == "ciphertext" else restored.p1
    assert poly.data[-1, 7] == modulus - 1


# ---------------------------------------------------------------------------
# Three-byte rows: a residue is a u16 low plane plus a u8 high plane
# ---------------------------------------------------------------------------

def _three_byte_site(kind, ctx):
    """(reader, blob, offsets of the low plane's ``u16`` and the high
    plane's ``u8`` of coefficient 7 of residue row 1 of the last component
    or digit (of the second Galois key), its modulus, how the error names
    it) at the ``ckks`` fixture, whose row 1 is a 24-bit limb: 3 bytes a
    residue.  Offsets follow from the moduli widths alone."""
    params = ctx.params
    n, full, data = (params.poly_degree, params.full_base.moduli,
                     params.data_base.moduli)
    assert _widths(full)[1] == 3

    def row_1(moduli, blocks_before):
        widths = _widths(moduli)
        return (blocks_before * sum(widths) + widths[0]) * n

    key_header = 11 + 8 * len(full)
    digits = len(data)
    where = f"digit {digits - 1} residue 1"
    if kind == "ciphertext":
        blob = serialize_ciphertext(ctx.encrypt([1, 2]))
        at = 21 + 8 * len(data) + row_1(data, 1)
        reader, where = deserialize_ciphertext, "ciphertext component 1 residue 1"
    elif kind == "public":
        blob = serialize_public_key(ctx.keygen.public_key())
        at = key_header + row_1(full, 1)
        reader, where = deserialize_public_key, "public-key component 1 residue 1"
    elif kind == "relin":
        blob = serialize_relin_key(ctx.relin_keys())
        at = key_header + 1 + 32 + row_1(full, digits - 1)
        reader = deserialize_relin_key
    else:
        gk = _full_keys(ctx, [1, 2])
        blob = serialize_galois_keys(gk)
        key = 4 + 1 + 32 + digits * sum(_widths(full)) * n
        at = key_header + 2 + key + 4 + 1 + 32 + row_1(full, digits - 1)
        reader, where = (deserialize_galois_keys,
                         f"element {sorted(gk.keys)[1]} {where}")
    return reader, blob, at + 2 * 7, at + 2 * n + 7, full[1], where


@pytest.mark.parametrize("kind", ["ciphertext", "public", "relin", "galois"])
def test_a_high_plane_byte_that_lifts_a_residue_to_its_modulus_is_refused(
        ckks, no_expansion, kind):
    """Three bytes carry values up to ``2**24 - 1``, above a 24-bit modulus
    ``q``.  Raising only the high byte of ``q - 2**16`` makes ``q``: every
    reader refuses it (and the largest 3-byte value) by name, before any
    key seed is expanded."""
    import struct as _struct

    reader, blob, lo, hi, q, where = _three_byte_site(kind, ckks)
    hostile = bytearray(blob)
    _struct.pack_into("<H", hostile, lo, q & 0xFFFF)
    hostile[hi] = (q >> 16) - 1
    hostile[hi] += 1
    with pytest.raises(ValueError, match=f"{where}: word {q} is not below "
                                         f"its modulus {q}"):
        reader(bytes(hostile), ckks.params)
    hostile[lo:lo + 2], hostile[hi] = b"\xff\xff", 0xFF
    with pytest.raises(ValueError, match=f"{where}: word {2 ** 24 - 1} is "
                                         f"not below its modulus {q}"):
        reader(bytes(hostile), ckks.params)


@pytest.mark.parametrize("kind", ["ciphertext", "public"])
def test_a_three_byte_residue_is_its_low_plane_plus_its_high_plane(ckks,
                                                                   kind):
    """The largest residue ``q - 1`` and ``q - 2**16``, written plane by
    plane, read back as those values."""
    import struct as _struct

    reader, blob, lo, hi, q, _where = _three_byte_site(kind, ckks)
    for value in (q - 1, q - (1 << 16)):
        edge = bytearray(blob)
        _struct.pack_into("<H", edge, lo, value & 0xFFFF)
        edge[hi] = value >> 16
        restored = reader(bytes(edge), ckks.params)
        poly = restored.components[1] if kind == "ciphertext" else restored.p1
        assert poly.data[1, 7] == value


#: Physical (wire) over logical (``size_bytes``: the paper's 8-byte words
#: over its logical residues) bytes, per blob kind, at set B (three 24-bit
#: data rows standing for two logical primes, a 30-bit special prime) and
#: at the e2e CKKS set (30 / 24 / 25-bit rows, a 30-bit special prime).
#: While every residue travelled as a 4-byte word, set B's full ciphertext
#: read 0.7503.
WIRE_RATIOS = {
    ("B", "seeded upload"): 0.5634,
    ("B", "full ciphertext"): 0.5628,
    ("B", "relin key"): 0.5419,
    ("B", "one Galois key"): 0.5419,
    ("e2e CKKS", "seeded upload"): 0.4590,
    ("e2e CKKS", "full ciphertext"): 0.4586,
    ("e2e CKKS", "relin key"): 0.4689,
    ("e2e CKKS", "one Galois key"): 0.4689,
}


def test_physical_to_logical_ratio_per_blob_kind():
    """Each blob's wire size equals its layout computed from the moduli
    widths alone (header, ``u64`` moduli, seed, rows at ``ceil(bits / 8)``
    bytes), and its ratio to the logical ``size_bytes`` is the stated one:
    the CostLedger keeps the paper's unit while the wire moves."""
    from repro.hecore import context_for
    from repro.hecore.keys import GaloisKeys
    from repro.hecore.params import (PARAMETER_SET_B, SchemeType,
                                     small_test_parameters)

    sets = {"B": PARAMETER_SET_B,
            "e2e CKKS": small_test_parameters(SchemeType.CKKS, 4096,
                                              data_bits=(30, 30, 30))}
    for label, params in sets.items():
        n, k = params.poly_degree, len(params.data_base)
        data = sum(_widths(params.data_base.moduli)) * n
        key = 1 + 32 + k * sum(_widths(params.full_base.moduli)) * n
        ct_header, key_header = 21 + 8 * k, 11 + 8 * (k + 1)
        ctx = context_for(params, seed=b"wire-ratio")
        seeded, full = ctx.encrypt_symmetric([1]), ctx.encrypt([1])
        relin = ctx.relin_keys()
        (elt, galois), = _full_keys(ctx, [1]).keys.items()
        rows = {
            "seeded upload": (serialize_ciphertext(seeded),
                              ct_header + 32 + data, seeded.size_bytes()),
            "full ciphertext": (serialize_ciphertext(full),
                                ct_header + 2 * data, full.size_bytes()),
            "relin key": (serialize_relin_key(relin), key_header + key,
                          relin.size_bytes(params)),
            "one Galois key": (
                serialize_galois_keys(GaloisKeys({elt: galois})),
                key_header + 2 + 4 + key, galois.size_bytes(params)),
        }
        for kind, (blob, physical, logical) in rows.items():
            assert len(blob) == physical, (label, kind)
            assert round(physical / logical, 4) == WIRE_RATIOS[label, kind], \
                (label, kind, physical / logical)


# ---------------------------------------------------------------------------
# Parameter validation (the bugfix): keys must match the supplied params
# ---------------------------------------------------------------------------

def test_public_key_validates_params(bfv, bfv_params):
    from repro.hecore.bfv import BfvContext
    from repro.hecore.params import SchemeType, small_test_parameters

    pk = bfv.keygen.public_key()
    assert deserialize_public_key(serialize_public_key(pk), bfv_params)

    other_degree = small_test_parameters(SchemeType.BFV, poly_degree=256,
                                         plain_bits=16, data_bits=(28, 28))
    blob = serialize_public_key(BfvContext(other_degree, seed=3)
                                .keygen.public_key())
    with pytest.raises(ValueError, match="degree"):
        deserialize_public_key(blob, bfv_params)

    other_moduli = small_test_parameters(SchemeType.BFV, poly_degree=1024,
                                         plain_bits=16, data_bits=(28, 28))
    blob = serialize_public_key(BfvContext(other_moduli, seed=3)
                                .keygen.public_key())
    with pytest.raises(ValueError, match="moduli"):
        deserialize_public_key(blob, bfv_params)


def test_eval_keys_validate_params(bfv, bfv_params):
    from repro.hecore.bfv import BfvContext
    from repro.hecore.params import SchemeType, small_test_parameters

    other = small_test_parameters(SchemeType.BFV, poly_degree=1024,
                                  plain_bits=16, data_bits=(28, 28))
    ctx = BfvContext(other, seed=9)
    with pytest.raises(ValueError, match="moduli"):
        deserialize_relin_key(serialize_relin_key(ctx.relin_keys()),
                              bfv_params)
    with pytest.raises(ValueError, match="moduli"):
        deserialize_galois_keys(
            serialize_galois_keys(ctx.make_galois_keys([2])), bfv_params)


@given(st.integers(min_value=0, max_value=2**32), st.integers(0, 255))
@settings(max_examples=25)
def test_key_deserializer_survives_fuzzing(bfv_key_blob, position, flip):
    blob = bytearray(bfv_key_blob[0])
    params = bfv_key_blob[1]
    blob[position % len(blob)] ^= flip or 1
    try:
        deserialize_relin_key(bytes(blob), params)
    except (ValueError, KeyError, OverflowError):
        pass    # rejected cleanly


@pytest.fixture(scope="module")
def bfv_key_blob():
    from repro.hecore.bfv import BfvContext
    from repro.hecore.params import SchemeType, small_test_parameters

    params = small_test_parameters(SchemeType.BFV, poly_degree=256,
                                   plain_bits=16, data_bits=(28, 28))
    ctx = BfvContext(params, seed=17)
    return (serialize_relin_key(ctx.relin_keys()), params,
            serialize_galois_keys(ctx.make_galois_keys([1, 2])))


@given(st.integers(min_value=0, max_value=2**32), st.integers(1, 255),
       st.integers(-3, 3))
@settings(max_examples=40)
def test_galois_deserializer_rejects_before_expanding(bfv_key_blob, position,
                                                      flip, resize):
    """Structure bytes of the seeded layout (headers, key count, element
    ids, digit counts) flipped and the blob resized: whenever the blob is
    refused, it is refused before a single seed was expanded."""
    from repro.hecore import keys

    _relin, params, galois = bfv_key_blob
    first, stride = _galois_layout(params)
    structure = (list(range(first))
                 + [first + k * stride + b for k in range(2) for b in range(5)])
    blob = bytearray(galois)
    blob[structure[position % len(structure)]] ^= flip
    blob = bytes(blob[:resize]) if resize < 0 else bytes(blob) + b"\0" * resize

    expansions = []
    real = keys.expand_keyswitch_uniform

    def counting(*args):
        expansions.append(args)
        return real(*args)

    keys.expand_keyswitch_uniform = counting
    try:
        restored = deserialize_galois_keys(blob, params)
    except ValueError:
        assert not expansions
    else:
        assert len(expansions) == len(restored.keys) == 2
    finally:
        keys.expand_keyswitch_uniform = real


@given(st.lists(st.integers(min_value=0, max_value=1 << 15), min_size=1,
                max_size=32))
@settings(max_examples=10)
def test_roundtrip_property(values):
    from repro.hecore.bfv import BfvContext
    from repro.hecore.params import SchemeType, small_test_parameters

    params = small_test_parameters(SchemeType.BFV, poly_degree=256,
                                   plain_bits=16, data_bits=(28, 28))
    ctx = BfvContext(params, seed=123)
    ct = ctx.encrypt_symmetric(values)
    restored = deserialize_ciphertext(serialize_ciphertext(ct), params)
    t = params.plain_modulus
    assert list(ctx.decrypt(restored)[: len(values)]) == [v % t for v in values]


# ---------------------------------------------------------------------------
# Round-trip exactness: every value the library produces survives the wire
# ---------------------------------------------------------------------------

def _assert_exact_roundtrip(blob, params, want):
    """*blob* deserializes to *want*'s residues, form, level and scale, and
    re-serializes to the identical bytes — a non-canonical residue from any
    kernel fails here rather than on a client."""
    restored = deserialize_ciphertext(blob, params)
    assert len(restored.components) == len(want.components)
    assert restored.is_ntt == want.is_ntt and restored.scale == want.scale
    for got, expect in zip(restored.components, want.components):
        assert np.array_equal(got.data, expect.data)
    assert serialize_ciphertext(restored) == blob


@functools.lru_cache(maxsize=None)
def _golden_ciphertexts(scheme):
    rows, ctx, _product, _factors = _golden_run(scheme)
    return ctx.params, {row: cts if isinstance(cts, (list, tuple)) else [cts]
                        for row, cts in rows.items()}


@pytest.mark.parametrize("scheme,row", [
    (scheme, row) for scheme in sorted(GOLDEN) for row in GOLDEN[scheme]])
def test_every_golden_ciphertext_roundtrips_exactly(scheme, row):
    """Both schemes' golden run — fresh, seeded, rotated, the 3-component
    product, the mod-switched and the aligned values — in either
    representation the wire offers."""
    params, rows = _golden_ciphertexts(scheme)
    for ct in rows[row]:
        for compress in (True, False):
            blob = serialize_ciphertext(ct, compress_seed=compress)
            assert len(blob) == serialized_size(ct, compress_seed=compress)
            _assert_exact_roundtrip(blob, params, ct)


@pytest.mark.parametrize("variant", sorted(KERNEL_VARIANTS))
def test_served_knn_results_roundtrip_exactly(ckks_params, ckks, monkeypatch,
                                              variant):
    """One served query per KNN packing: the RESULT blobs as they came off
    the wire hold the in-process kernel's residues exactly and re-serialize
    to the same bytes."""
    import asyncio

    from repro.apps.knn import KnnOffloadService
    from repro.core.distance import DistanceProblem
    from repro.runtime import OffloadClient, OffloadServer
    from repro.runtime import client as client_module

    rng = np.random.default_rng(19)
    points, query = rng.normal(size=(10, 4)), rng.normal(size=4)
    kernel = KERNEL_VARIANTS[variant](
        ckks, DistanceProblem(n_points=len(points), dims=4))
    galois = ckks.make_galois_keys(kernel.required_rotation_steps() or [1])
    point_cts = [ckks.encrypt(v) for v in kernel.pack_points(points)]
    query_cts = [ckks.encrypt(v) for v in kernel.pack_query(query)]
    local = kernel.compute(point_cts, query_cts)

    received = []

    def recording(blob, params):
        received.append(blob)
        return deserialize_ciphertext(blob, params)

    monkeypatch.setattr(client_module, "deserialize_ciphertext", recording)

    async def main():
        server = OffloadServer(ckks_params)
        KnnOffloadService.install(server)
        host, port = await server.start()
        try:
            async with OffloadClient(ckks_params, host, port) as client:
                await client.upload_keys(relin=ckks.relin_keys(),
                                         galois=galois)
                _, meta = await client.request(
                    "knn/store", point_cts,
                    {"n_points": len(points), "dims": 4, "variant": variant},
                    account=False)
                received.clear()
                await client.request("knn/query", query_cts,
                                     {"batch": meta["batch"]})
        finally:
            await server.stop()

    asyncio.run(main())
    assert len(received) == len(local) >= 1
    for blob, want in zip(received, local):
        _assert_exact_roundtrip(blob, ckks_params, want)
