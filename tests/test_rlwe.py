"""The surface BFV and CKKS share (:class:`repro.hecore.rlwe.RlweContext`).

Two kinds of test pin the base-class refactor:

* **golden digests** — SHA-256 of every ciphertext's values for a fixed,
  seeded operation sequence per scheme, hashed in the layout
  ``serialize_ciphertext`` had when they were first recorded (version-1
  header, ``int64`` residues: :func:`_digest`).  The digests were recorded at the
  commit *before* the contexts were merged (``python tests/test_rlwe.py``
  prints them), so a changed PRNG draw order, fork label or rounding step
  in any shared method fails here, by name.  The five rows that evaluate
  through a key-switching key (``rotate``, ``rotate_many``, ``conjugate``,
  ``rotate_and_sum``, ``relinearize``) were re-recorded once, when those
  keys began drawing their uniform halves from a per-key public seed
  (``expand_keyswitch_uniform``) instead of the key generator's main
  stream.  The four ``encrypt_symmetric*`` rows were re-recorded once, when
  a ciphertext seed began expanding to an evaluation-form ``c1`` and the
  fresh ciphertext to ship in that form (same PRNG draws, same plaintext:
  only the representation moved).  Up to then every public-key
  ``encrypt*``, ``multiply``, ``plain_ops``, ``mod_switch_down``,
  ``add_sub_negate`` and ``align`` row was byte-identical to the original
  recording.  All 30 rows were re-recorded once more when key switching
  moved to ONE special prime derived above every data prime: the moduli
  themselves moved (the special prime takes the largest 30-bit NTT prime,
  so the BFV data limbs and the CKKS base prime step down one), so every
  residue of every ciphertext did, with the PRNG streams untouched.  The
  CKKS ``multiply`` row was re-recorded once since, when an unrelinearized
  CKKS product began to stay in evaluation form (same residues, other
  form; its coefficient form still hashes to the former row).  When the
  wire narrowed every residue to a 4-byte word (serialize version 4),
  :func:`_digest` stopped hashing ``serialize_ciphertext`` output and began
  encoding the same values itself, in the recorded layout: no row moved.
  The ``rotate_many`` row names the hoisted batch it was recorded from
  (three rotations and the conjugation of one ciphertext); that batch was
  deleted, and the row is now made by sequential ``rotate`` calls and the
  conjugation, which give the same bytes: no row moved.
  ``test_only_the_symmetric_rows_were_rerecorded`` pins the table itself;
* **contract** — both contexts are ``RlweContext`` instances exposing the
  shared methods with identical signatures, and the shared validation
  (component counts) holds for both.
"""

import hashlib
import inspect
import json
import struct

import numpy as np
import pytest

from repro.hecore.bfv import BfvContext
from repro.hecore.ckks import CkksContext
from repro.hecore.hoisting import rotate_and_sum_steps
from repro.hecore.params import SchemeType, small_test_parameters
from repro.hecore.polyring import RnsPoly
from repro.hecore.rns import RnsBase
from repro.hecore.serialize import serialize_ciphertext

SCHEMES = {
    "bfv": (BfvContext, SchemeType.BFV, (30, 30, 30)),
    "ckks": (CkksContext, SchemeType.CKKS, (30, 24, 24)),
}


def _context(scheme: str):
    cls, kind, data_bits = SCHEMES[scheme]
    params = small_test_parameters(kind, poly_degree=1024, plain_bits=16,
                                   data_bits=data_bits)
    return cls(params, seed=b"golden-" + scheme.encode())


def _vectors(scheme: str):
    rows = np.random.default_rng(7).integers(-40, 40, size=(3, 16))
    if scheme == "ckks":
        return [row / 8.0 for row in rows]
    return [row for row in rows]


#: The digests pin PRNG streams and arithmetic, not the wire format: they
#: hash each ciphertext in the layout ``serialize_ciphertext`` wrote when
#: they were first recorded — the version byte at this value, u64 moduli,
#: the seed, ``int64`` residues — so no format change moves a digest.
_RECORDED_VERSION = 1
_RECORDED_HEADER = struct.Struct("<4sBBBBIdB")
_RECORDED_SCHEME = {SchemeType.BFV: 0, SchemeType.CKKS: 1}


def _recorded_encoding(ct) -> bytes:
    seeded = ct.seed is not None and len(ct.components) == 2
    moduli = ct.level_base.moduli
    parts = [_RECORDED_HEADER.pack(
        b"CHOC", _RECORDED_VERSION, _RECORDED_SCHEME[ct.params.scheme],
        (1 if seeded else 0) | (2 if ct.is_ntt else 0), len(ct.components),
        ct.params.poly_degree, float(ct.scale), len(moduli)),
        struct.pack(f"<{len(moduli)}Q", *moduli)]
    if seeded:
        parts.append(ct.seed)
    stored = ct.components[:1] if seeded else ct.components
    parts.extend(c.data.astype("<i8").tobytes() for c in stored)
    return b"".join(parts)


def _digest(cts) -> str:
    if not isinstance(cts, (list, tuple)):
        cts = [cts]
    h = hashlib.sha256()
    for ct in cts:
        h.update(_recorded_encoding(ct))
    return h.hexdigest()


def golden_digests(scheme: str) -> dict:
    """One seeded context driven through every shared entry point, in a
    fixed order (the context PRNG stream carries from step to step)."""
    return {row: _digest(cts) for row, cts in _golden_run(scheme)[0].items()}


def _golden_run(scheme: str):
    """:func:`golden_digests`' run: (each row's ciphertexts, context, the
    unrelinearized product and its two factors)."""
    ctx = _context(scheme)
    v0, v1, v2 = _vectors(scheme)
    out = {}
    ct = ctx.encrypt(v0)
    out["encrypt"] = ct
    batch = ctx.encrypt_many([v0, ctx.encode(v1), v2])
    out["encrypt_many"] = batch
    out["encrypt_symmetric"] = ctx.encrypt_symmetric(v1)
    out["encrypt_symmetric_many"] = ctx.encrypt_symmetric_many(
        [ctx.encode(v0), v1, v2])
    out["encrypt_after_batches"] = ctx.encrypt(v2)

    ctx.make_galois_keys([1, 3, -2], include_conjugation=True)
    out["rotate"] = ctx.rotate(ct, 3)
    conj = ctx.rotate_columns if scheme == "bfv" else ctx.conjugate
    out["rotate_many"] = [ctx.rotate(ct, s) for s in (1, 3, -2)] + [conj(ct)]
    out["conjugate"] = conj(ct)
    ctx.make_galois_keys(sorted(rotate_and_sum_steps(8)))
    out["rotate_and_sum"] = ctx.rotate_and_sum(ct, 8)

    out["add_sub_negate"] = [ctx.add(ct, batch[0]), ctx.sub(ct, batch[1]),
                             ctx.negate(batch[2])]
    out["plain_ops"] = [ctx.add_plain(ct, ctx.encode(v1)),
                        ctx.multiply_plain(ct, ctx.encode(v2))]
    product = ctx.multiply(ct, batch[1], relinearize=False)
    out["multiply"] = product
    out["relinearize"] = ctx.relinearize(product)
    dropped = ctx.mod_switch_down(ct)
    out["mod_switch_down"] = dropped
    out["align"] = list(ctx.align(dropped, batch[2]))
    return out, ctx, product, (ct, batch[1])


#: First recorded at commit 20906ae (PR 13), before ``hecore/rlwe.py``
#: existed; the five key-switch rows re-recorded with seed-expanded
#: key-switching keys, the four ``encrypt_symmetric*`` rows with
#: evaluation-form uploads, every row with the one derived special prime,
#: and the CKKS ``multiply`` row with the evaluation-form tensor product.
GOLDEN = {
    "bfv": {
        "encrypt": "8d67a3cc205169c7fb9a29d9b3a7f799af008bd5eb8d69c225203acf9438bdd0",
        "encrypt_many": "b956320c174a64aeb6e060d7981fe2881eb42a72c7d4fc83f8e33673b856a273",
        "encrypt_symmetric": "cfcfb72499bb59ef755f001145ed92709e1be085a51577d477a842bc99b15756",
        "encrypt_symmetric_many": "baea1460b5707a5cc068e593b4fa1f4032138dc1f7efce77ed70c71ce3ff7ff9",
        "encrypt_after_batches": "3f8d790c34d465684e95e15360ab733cb44f97b7f39997181edfa8ed58868253",
        "rotate": "e2ab5fbc85690a13587c47ce6ca16cdd98bcfacfa83d27591cd931ad749c2e51",
        "rotate_many": "5ba1f2069bdcfbc7de036ea05b52c2d456b70a26e8d7f7e8f4776af49d47a12f",
        "conjugate": "2b28771eb1d1872cc8362d33bde3fdff862cd41ba25281b54a1dd98c35ff68e2",
        "rotate_and_sum": "8bf573dd61a40ac8da1ffc6f3cf1f28be824684528870977dbb3fbd941fa17bd",
        "add_sub_negate": "9b07873c363b8c3a3159eebdedbbc34a88c23696d27129cbc2560cfe368fc6f3",
        "plain_ops": "eb45eb68c61194ef115ea26efdc10ace21090b36a1a6aa6ae43876e276a1ce3b",
        "multiply": "16fe2b8e8b4c0f0014260fe0d3d78b89ef7e18f8422670b5fb92a8c9a1b7bef6",
        "relinearize": "89d4d38e80b983b10186d99a78cb2822f45b0072a057337b578f7a87e8f0c158",
        "mod_switch_down": "fd54752ed65974cd4e3b34ea279c39f4769a2355b47eefdb9d21c9313ba35cfe",
        "align": "9b3b5fcba39c56aade837d8a445c6ea99574a069a4189e39aa57f588a8bfe1e6"
    },
    "ckks": {
        "encrypt": "bfd1e3d41d6041a4b76f7fa2b6c59933cfb5123dd53ecd44521e30088dc449ec",
        "encrypt_many": "19a74552ac2b8638dfb599f61e4ded2d1369a1989511274bbcf032fae6d08ebd",
        "encrypt_symmetric": "b4b0dd596340250727143bfda7f015f77322666ab13f5ca4609ac9d4b9e7db7e",
        "encrypt_symmetric_many": "97c67d8e7392b452bd62703459725e490a587f67d997f30f7655170c8375ad8d",
        "encrypt_after_batches": "77d103b4cb81040f3fd5b200ac886e5ff672b1ee22091931f411ac1397fdf30a",
        "rotate": "51fe91eb605f0268853d1cf52e953ecd188dc7ce92f6cb63864e8b1f10123aaf",
        "rotate_many": "a50ab4d2ff09f3e742e34f97ebc37a02be1ca082cf7f7b19a6d6d96d999c13e8",
        "conjugate": "b12489dfb8633d85184489829e9eabc0567037baf87ec1ec51f284f9dd3430c3",
        "rotate_and_sum": "70066d1f8367b120f044b0a0174f657b333de17b1d64ece5c0283c3ad82edcc6",
        "add_sub_negate": "3fcb1c0cca745a2e1efa711a29d095ffccf82922daaeb98eaed43dd4889da58e",
        "plain_ops": "ee746c0d395f27f5171397b688472cccb1bd6bc7714f74bad1641c7490531f41",
        "multiply": "c8e07f4821682e22c7ea9f3376119e070acbcfe48498129105da37eb6c351c9f",
        "relinearize": "06167481ae2596f8ba8ac3987d88020ef7ab0cccde8e80f70e65459b3c78acb4",
        "mod_switch_down": "13d1344ee82886d29aff9bce224890eb46fcee22e2ac6e3354a2d602e6b29dca",
        "align": "d5306f72ada79bc29916099f444977a6cd890322b01735b1ffa1973da0204424"
    }
}


#: SHA-256 of the non-``encrypt_symmetric*`` rows above (sorted JSON), taken
#: from the table as re-recorded for the one derived special prime (it was
#: ``181d66e1…b3ec68744d`` from c9604c3 until then), with the CKKS
#: ``multiply`` row at :data:`FORMER_CKKS_MULTIPLY`.
_KEPT_ROWS_DIGEST = ("02020742a8640e0412bdba5bac051714736b4ab8332a91cf5bdbc8de4a"
                     "060bf0")

#: The CKKS ``multiply`` row until an unrelinearized CKKS product began to
#: stay in evaluation form; the product's coefficient form still serialises
#: to it (:func:`test_unrelinearized_ckks_product_stays_in_evaluation_form`).
FORMER_CKKS_MULTIPLY = ("a7302f5c4b0f37a6474d78a4cb4c7ff23bf8521528dff4a001fec15"
                        "4ea65cd29")


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_golden_digests_unchanged(scheme):
    got = golden_digests(scheme)
    changed = sorted(k for k in GOLDEN[scheme] if got.get(k) != GOLDEN[scheme][k])
    assert not changed and got.keys() == GOLDEN[scheme].keys(), changed


def test_only_the_symmetric_rows_were_rerecorded():
    """The 26 rows that do not go through ``encrypt_symmetric*`` hash to
    what they were re-recorded as for the one derived special prime: the
    evaluation-form symmetric encrypt moved no other row, and a later
    change cannot re-record one without editing this digest too.  The one
    row re-recorded since, the CKKS ``multiply`` (same residues, now in
    evaluation form), enters at its former value."""
    kept = {scheme: {k: v for k, v in rows.items()
                     if not k.startswith("encrypt_symmetric")}
            for scheme, rows in GOLDEN.items()}
    assert sum(map(len, kept.values())) == 26
    kept["ckks"]["multiply"] = FORMER_CKKS_MULTIPLY
    assert hashlib.sha256(json.dumps(kept, sort_keys=True).encode()
                          ).hexdigest() == _KEPT_ROWS_DIGEST


def test_unrelinearized_ckks_product_stays_in_evaluation_form():
    """The golden run's CKKS product skips its three inverse transforms: it
    is the former coefficient-form product in evaluation form, so it
    decrypts and relinearizes to exactly what that one does, and a
    relinearizing multiply is this product relinearized."""
    _, ctx, product, (a, b) = _golden_run("ckks")
    assert len(product) == 3 and all(c.is_ntt for c in product.components)
    coeff = product.from_ntt()
    assert _digest(coeff) == FORMER_CKKS_MULTIPLY
    assert np.array_equal(ctx.decrypt(product), ctx.decrypt(coeff))
    relinearized = _digest(ctx.relinearize(product))
    assert relinearized == _digest(ctx.relinearize(coeff))
    assert relinearized == GOLDEN["ckks"]["relinearize"]
    assert _digest(ctx.multiply(a, b)) == relinearized


@pytest.mark.parametrize("limbs", [1, 2, 3])
def test_evaluation_form_relinearisation_folds_into_its_key_switch(
        limbs, monkeypatch):
    """An evaluation-form ``(c0, c1)`` joins the relinearisation's key
    switch as ``P·(c0, c1)`` before the mod-down (``P·x`` vanishes mod
    ``P``): no inverse transform of its own, and the result is, byte for
    byte, the coefficient-form relinearisation's."""
    ctx = _context("ckks")
    base = RnsBase.of(ctx.params.data_base.moduli[:limbs])
    rng = np.random.default_rng(limbs)
    a, b = ctx.encrypt_symmetric_many(ctx.encoder.encode_many(
        [rng.uniform(-0.5, 0.5, 512) for _ in range(2)], base=base))
    product = ctx.multiply(a, b, relinearize=False)
    assert len(product) == 3 and all(c.is_ntt for c in product.components)
    want = serialize_ciphertext(ctx.relinearize(product.from_ntt()))

    inverse = []
    from_ntt = RnsPoly.from_ntt
    monkeypatch.setattr(RnsPoly, "from_ntt", lambda poly: (
        inverse.append(poly), from_ntt(poly))[1])
    got = serialize_ciphertext(ctx.relinearize(product))
    assert inverse == [product.components[2]], \
        "only c2 leaves evaluation form (to be decomposed)"
    assert got == want


# ---------------------------------------------------------------------------
# The shared surface is one type
# ---------------------------------------------------------------------------

SHARED_SURFACE = (
    "relin_keys", "make_galois_keys", "encode", "decode",
    "encrypt", "encrypt_many", "encrypt_symmetric", "encrypt_symmetric_many",
    "decrypt", "decrypt_many", "_raw_decrypt_poly", "_decrypt_bigint",
    "add", "sub", "negate", "add_plain", "multiply_plain", "multiply",
    "square", "relinearize", "mod_switch_down", "align",
    "rotate", "_apply_galois", "rotate_and_sum",
)


def _parameter_shape(fn):
    return [(p.name, p.kind, p.default)
            for p in inspect.signature(fn).parameters.values()]


def test_contexts_share_one_surface():
    from repro.hecore import RlweContext, context_for

    bfv, ckks = _context("bfv"), _context("ckks")
    for ctx in (bfv, ckks):
        assert isinstance(ctx, RlweContext)
        assert type(context_for(ctx.params, seed=1)) is type(ctx)
        assert isinstance(ctx.counts, dict) and ctx.keygen and ctx.encoder
        assert ctx.__dict__                # no __slots__: methods rebind per instance
    assert bfv.rotate_rows.__func__ is bfv.rotate.__func__
    for name in SHARED_SURFACE:
        assert _parameter_shape(getattr(bfv, name)) == \
            _parameter_shape(getattr(ckks, name)), name
    for name in ("encode", "decode", "decode_rows"):   # BFV defaults scales
        assert list(inspect.signature(getattr(bfv.encoder, name)).parameters) \
            == list(inspect.signature(getattr(ckks.encoder, name)).parameters)
    with pytest.raises(ValueError, match="requires CKKS parameters"):
        CkksContext(bfv.params)
    with pytest.raises(ValueError, match="requires BFV parameters"):
        BfvContext(ckks.params)


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_unrelinearized_product_is_rejected_not_truncated(scheme):
    """``sub``/``add``/``rotate`` of a 3-component product used to ``zip``
    away ``c2`` (CKKS, and BFV ``sub``) and decrypt wrong."""
    ctx = _context(scheme)
    v0, v1, _ = _vectors(scheme)
    a, b = ctx.encrypt(v0), ctx.encrypt(v1)
    ctx.make_galois_keys([1])
    product = ctx.multiply(a, b, relinearize=False)
    assert len(product) == 3
    for combine in (ctx.add, ctx.sub):
        with pytest.raises(ValueError, match="relinearize"):
            combine(product, a)
        with pytest.raises(ValueError, match="relinearize"):
            combine(a, product)
    with pytest.raises(ValueError, match="relinearize"):
        ctx.rotate(product, 1)
    # Two un-relinearized products still combine (decrypt handles c2).
    expected = 2 * ctx.decrypt(product)[:16]
    if scheme == "bfv":
        expected %= ctx.params.plain_modulus
    assert np.allclose(ctx.decrypt(ctx.add(product, product))[:16], expected,
                       atol=1e-2)


# ---------------------------------------------------------------------------
# Operands arrive in either form
# ---------------------------------------------------------------------------

def _evaluator_ops(ctx, scheme, v2):
    """name -> (arity, fn) for every public evaluator op; a fresh plaintext
    per call, since plaintexts are coefficient-form by contract."""
    ops = {
        "add": (2, ctx.add),
        "sub": (2, ctx.sub),
        "negate": (1, ctx.negate),
        "add_plain": (1, lambda a: ctx.add_plain(a, ctx.encode(v2))),
        "multiply_plain": (1, lambda a: ctx.multiply_plain(a, ctx.encode(v2))),
        "multiply": (2, ctx.multiply),
        "multiply_unrelinearized":
            (2, lambda a, b: ctx.multiply(a, b, relinearize=False)),
        "square": (1, ctx.square),
        "relinearize": (1, lambda a: ctx.relinearize(
            ctx.multiply(a, a, relinearize=False).to_ntt())),
        "rotate": (1, lambda a: ctx.rotate(a, 3)),
        "rotate_and_sum": (1, lambda a: ctx.rotate_and_sum(a, 8)),
        "mod_switch_down": (1, ctx.mod_switch_down),
        "align": (2, lambda a, b: list(ctx.align(ctx.mod_switch_down(a), b))),
    }
    if scheme == "ckks":
        ops["rescale"] = (1, lambda a: ctx.rescale(ctx.square(a)))
    return ops


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_every_evaluator_op_takes_operands_in_either_form(scheme):
    """Coefficient-form, evaluation-form and mixed operands decrypt to the
    same values through every evaluator op (BFV bit for bit, CKKS within
    1e-6): the form a ciphertext arrives in is never the caller's problem."""
    ctx = _context(scheme)
    v0, v1, v2 = _vectors(scheme)
    ctx.make_galois_keys(sorted({1, 3, -2} | rotate_and_sum_steps(8)),
                         include_conjugation=True)
    a, b = ctx.encrypt(v0), ctx.encrypt(v1)
    assert not a.is_ntt and a.to_ntt().is_ntt

    def decrypted(result):
        results = result if isinstance(result, list) else [result]
        return np.stack(ctx.decrypt_many(results))

    def same(got, want):
        if scheme == "bfv":
            return np.array_equal(got, want)
        return np.allclose(got, want, rtol=0, atol=1e-6)

    for name, (arity, fn) in _evaluator_ops(ctx, scheme, v2).items():
        if arity == 1:
            want = decrypted(fn(a))
            assert same(decrypted(fn(a.to_ntt())), want), name
            continue
        want = decrypted(fn(a, b))
        for x, y in ((a.to_ntt(), b.to_ntt()), (a.to_ntt(), b), (a, b.to_ntt())):
            assert same(decrypted(fn(x, y)), want), name


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_decrypt_uses_components_in_the_form_they_arrive(scheme):
    """``decrypt`` / ``decrypt_many`` of coefficient-form, evaluation-form
    and mixed-form (per component) ciphertexts agree bit for bit, batched
    or one at a time."""
    from repro.hecore.ciphertext import Ciphertext

    ctx = _context(scheme)
    v0, v1, _ = _vectors(scheme)
    fresh = ctx.encrypt_symmetric_many([v0, v1])
    assert all(ct.is_ntt and ct.seed for ct in fresh)
    coeff = [ct.from_ntt() for ct in fresh]
    mixed = [Ciphertext(ct.params, [ct.components[0].from_ntt(),
                                    ct.components[1]], scale=ct.scale)
             for ct in fresh]
    product = ctx.multiply(coeff[0], coeff[1], relinearize=False)
    batch = fresh + coeff + mixed + [product, product.to_ntt()]
    looped = [ctx.decrypt(ct) for ct in batch]
    for got, want in zip(ctx.decrypt_many(batch), looped):
        assert np.array_equal(got, want)
    for i in (0, 1):
        assert np.array_equal(looped[i], looped[i + 2])
        assert np.array_equal(looped[i], looped[i + 4])
    assert np.array_equal(looped[6], looped[7])


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_secret_key_is_reached_through_one_accessor(scheme):
    """Every secret-key operation goes through ``_secret_ntt`` — what
    ``build_restricted_context`` forbids; public-key work does not."""
    ctx = _context(scheme)
    v0, v1, _ = _vectors(scheme)
    ct = ctx.encrypt(v0)
    product = ctx.multiply(ct, ct, relinearize=False)

    def forbidden(_base):
        raise PermissionError("secret key")

    ctx._secret_ntt = forbidden
    secret_ops = [
        lambda: ctx.decrypt(ct), lambda: ctx.decrypt_many([ct, product]),
        lambda: ctx._decrypt_bigint(ct), lambda: ctx._raw_decrypt_poly(ct),
        lambda: ctx.encrypt_symmetric(v1),
        lambda: ctx.encrypt_symmetric_many([v0, v1]),
    ]
    if scheme == "bfv":
        secret_ops += [lambda: ctx.noise_budget(ct),
                       lambda: ctx._raw_decrypt_ints(ct)]
    for op in secret_ops:
        with pytest.raises(PermissionError):
            op()
    assert len(ctx.encrypt_many([v0, v1])) == 2
    assert len(ctx.relinearize(product)) == 2


if __name__ == "__main__":
    print(json.dumps({s: golden_digests(s) for s in sorted(SCHEMES)}, indent=4))
