"""The surface BFV and CKKS share (:class:`repro.hecore.rlwe.RlweContext`).

Two kinds of test pin the base-class refactor:

* **golden digests** — SHA-256 of ``serialize_ciphertext`` for a fixed,
  seeded operation sequence per scheme.  The digests were recorded at the
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
  only the representation moved).  Every public-key ``encrypt*``,
  ``multiply``, ``plain_ops``, ``mod_switch_down``, ``add_sub_negate`` and
  ``align`` row is byte-identical to the original recording — the
  secret-key, public-key and encryptor streams were not touched — and
  ``test_only_the_symmetric_rows_were_rerecorded`` pins the table itself;
* **contract** — both contexts are ``RlweContext`` instances exposing the
  shared methods with identical signatures, and the shared validation
  (component counts) holds for both.
"""

import hashlib
import inspect
import json

import numpy as np
import pytest

from repro.hecore.bfv import BfvContext
from repro.hecore.ckks import CkksContext
from repro.hecore.hoisting import rotate_and_sum_steps
from repro.hecore.params import SchemeType, small_test_parameters
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


#: The digests pin PRNG streams and arithmetic, not the wire-format number:
#: the version byte (offset 4, after the magic) is hashed as the value it had
#: when they were first recorded, so a format bump that leaves ciphertext
#: bodies alone leaves every digest alone.
_RECORDED_VERSION = 1


def _digest(cts) -> str:
    if not isinstance(cts, (list, tuple)):
        cts = [cts]
    h = hashlib.sha256()
    for ct in cts:
        blob = bytearray(serialize_ciphertext(ct))
        blob[4] = _RECORDED_VERSION
        h.update(blob)
    return h.hexdigest()


def golden_digests(scheme: str) -> dict:
    """One seeded context driven through every shared entry point, in a
    fixed order (the context PRNG stream carries from step to step)."""
    ctx = _context(scheme)
    v0, v1, v2 = _vectors(scheme)
    out = {}
    ct = ctx.encrypt(v0)
    out["encrypt"] = _digest(ct)
    batch = ctx.encrypt_many([v0, ctx.encode(v1), v2])
    out["encrypt_many"] = _digest(batch)
    out["encrypt_symmetric"] = _digest(ctx.encrypt_symmetric(v1))
    out["encrypt_symmetric_many"] = _digest(
        ctx.encrypt_symmetric_many([ctx.encode(v0), v1, v2]))
    out["encrypt_after_batches"] = _digest(ctx.encrypt(v2))

    ctx.make_galois_keys([1, 3, -2], include_conjugation=True)
    out["rotate"] = _digest(ctx.rotate(ct, 3))
    out["rotate_many"] = _digest(
        ctx.rotate_many(ct, [1, 3, -2], include_conjugation=True))
    conj = ctx.rotate_columns if scheme == "bfv" else ctx.conjugate
    out["conjugate"] = _digest(conj(ct))
    ctx.make_galois_keys(sorted(rotate_and_sum_steps(8)))
    out["rotate_and_sum"] = _digest(ctx.rotate_and_sum(ct, 8))

    out["add_sub_negate"] = _digest(
        [ctx.add(ct, batch[0]), ctx.sub(ct, batch[1]), ctx.negate(batch[2])])
    out["plain_ops"] = _digest(
        [ctx.add_plain(ct, ctx.encode(v1)),
         ctx.multiply_plain(ct, ctx.encode(v2))])
    product = ctx.multiply(ct, batch[1], relinearize=False)
    out["multiply"] = _digest(product)
    out["relinearize"] = _digest(ctx.relinearize(product))
    dropped = ctx.mod_switch_down(ct)
    out["mod_switch_down"] = _digest(dropped)
    out["align"] = _digest(list(ctx.align(dropped, batch[2])))
    return out


#: Recorded at commit 20906ae (PR 13), before ``hecore/rlwe.py`` existed;
#: the five key-switch rows re-recorded with seed-expanded key-switching
#: keys, the four ``encrypt_symmetric*`` rows with evaluation-form uploads.
GOLDEN = {
    "bfv": {
        "encrypt": "d6c919bd9763f243be67008e19288cc19c3ff65dd0b3a71edb135cc462ed7840",
        "encrypt_many": "76380157ce25e15ad4cd4bb30c450d11cf4b5513a02c6365499e5b70724c9678",
        "encrypt_symmetric": "317e32db71c6ebe37b757640ddb2bcd9dadfdc966954646ae26efad210f7325f",
        "encrypt_symmetric_many": "aff17ced3ca7f9b462ad04bb88b4edcf138529358b17bf196ce561cda03b0d87",
        "encrypt_after_batches": "215ca9c00fd24b43def1f19d6555294f10a4cc260a2e0132dfe62bb6dc814f35",
        "rotate": "0fb4a4c0fe3fd1d74e8e2ba8c54d8133de592742709a9aaf85373028cde697b7",
        "rotate_many": "f313b931cae67116a5551e20fb82c19f7e83cc1c5db0dfe3badebbfc596112d4",
        "conjugate": "c37769d041c613900c2af6d5a3c0919853f1fa12ff7a14eb36e69140f292478d",
        "rotate_and_sum": "682f90c6c75b009c3136ee6fb7132ec995fd95c8f090021f74d65b2b2967e373",
        "add_sub_negate": "fb7bd8a31121231bda2d8b83fbf03192e0d7cfef5c6bc7fce23ab0019ea44809",
        "plain_ops": "c8ead30b69d085d462291d7be7f3608938f6806659200dc65ecf628d676451b9",
        "multiply": "314ff603844f72e62f0c7c3e148b23f8172ed111a23aa4ea2ae5b72c798cbd11",
        "relinearize": "9d433a8fd9b493e21d7080571f3738cde5527d1eb32e841c66fb37beb3974ffa",
        "mod_switch_down": "dc3ffee305ffe03b9a3db567a4e96ad04c1975fdd3eb8b3a00f097a8d1fa8c6b",
        "align": "336c56452ec28bd86e9987b188a5051c5dc7f3473c6b611c6d12a79b6dc14553"
    },
    "ckks": {
        "encrypt": "180fe35cc7051864c70eba975c80ac7e61c8ba7022a67515a9f36690beda100b",
        "encrypt_many": "3e4664c3987135230e6bbcf03af1407e879794ba1904e9bf1c8f8d3cb6b838d4",
        "encrypt_symmetric": "e2b7fdbdff4955d2af34db0b346071d55b6ceb9f54549f328d5b72df3a7e2d3a",
        "encrypt_symmetric_many": "7d6f059b6561a77c184e97db8e10907cb23eba1a8ca818fff10a7cb6ea9c22d5",
        "encrypt_after_batches": "23415133a70bd2b94c94e4060a6fa65a33a5caab1bac73d13f3b297a0677d034",
        "rotate": "b9fa75bfcd215984f23065f885393661fad2e14201d8ef0736856b8a40a6a721",
        "rotate_many": "0b4bd049b9a920972bc4318f5e76efa87ee518f6255b731d18267279d677cfe8",
        "conjugate": "6069fe9329b9bd59d7785bbbc7e9bd496c79f93cfe84bd43ce8a60cd2ed909fe",
        "rotate_and_sum": "0cf8a6e5cf78bdb125f3be83f99af8af986c0bbde12a1cfe51627fafdb2c555e",
        "add_sub_negate": "efb83699dbad9f1bbec8857990bf5a51c473eec7dda90f4247f10855ce55332d",
        "plain_ops": "4f9b3489f75e99a9dbf9e845392217bfc968bf768c53bad2ad8cd3f59a00e47a",
        "multiply": "c196c5eaf77ed92738329f5553d1e1455489f1eb95c785d9066a8b5d1edfba63",
        "relinearize": "bb01eb1d1c5ae66c886b88477a8c08afcc7a89fbe63b254057e574d872174316",
        "mod_switch_down": "0a9d34695132c939b8c83b6a8607f53c5da9a22f5d7184a5a35c9a0794576380",
        "align": "7158f3f8dcc03f27e2d74bd3477012719e1da3db773859d9644e31f9609e6da9"
    }
}


#: SHA-256 of the non-``encrypt_symmetric*`` rows above (sorted JSON), taken
#: from the table as committed at c9604c3.
_KEPT_ROWS_DIGEST = ("181d66e11504b765dc275fae31666dbfba717a0d1659f3a987e773b3ec"
                     "68744d")


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_golden_digests_unchanged(scheme):
    got = golden_digests(scheme)
    changed = sorted(k for k in GOLDEN[scheme] if got.get(k) != GOLDEN[scheme][k])
    assert not changed and got.keys() == GOLDEN[scheme].keys(), changed


def test_only_the_symmetric_rows_were_rerecorded():
    """The 26 rows that do not go through ``encrypt_symmetric*`` hash to
    what they did at commit c9604c3, the parent of the evaluation-form
    symmetric encrypt."""
    kept = {scheme: {k: v for k, v in rows.items()
                     if not k.startswith("encrypt_symmetric")}
            for scheme, rows in GOLDEN.items()}
    assert sum(map(len, kept.values())) == 26
    assert hashlib.sha256(json.dumps(kept, sort_keys=True).encode()
                          ).hexdigest() == _KEPT_ROWS_DIGEST


# ---------------------------------------------------------------------------
# The shared surface is one type
# ---------------------------------------------------------------------------

SHARED_SURFACE = (
    "relin_keys", "make_galois_keys", "encode", "decode",
    "encrypt", "encrypt_many", "encrypt_symmetric", "encrypt_symmetric_many",
    "decrypt", "decrypt_many", "_raw_decrypt_poly", "_decrypt_bigint",
    "add", "sub", "negate", "add_plain", "multiply_plain", "multiply",
    "square", "relinearize", "mod_switch_down", "align",
    "rotate", "_apply_galois", "rotate_many", "rotate_and_sum",
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
        "rotate_many": (1, lambda a: ctx.rotate_many(
            a, [1, 3, -2], include_conjugation=True)),
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
