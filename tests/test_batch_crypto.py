"""Batched client-crypto engine: equivalence and accounting properties.

The batch APIs must be *drop-in* replacements for looped single-shot calls
(the per-ciphertext ``RnsPoly`` compositions in ``tests/oracles.py``):

* ``encrypt_many`` / ``encrypt_symmetric_many`` produce ciphertexts
  bit-identical to looped ``encrypt`` / ``encrypt_symmetric`` under the
  documented per-index PRNG fork schedule (``batch-encrypt`` → ``u`` /
  ``e1`` / ``e2`` forks for asymmetric, ``batch-encrypt-symmetric`` →
  ``seed`` / ``e`` for symmetric; row ``i`` of each ``(M, N)`` block equals
  the ``i``-th sequential draw from the same fork);
* ``decrypt_many`` returns exactly what looped ``decrypt`` returns;
* the bigint-free RNS decrypt matches the exact big-integer path
  bit-for-bit, including when every coefficient is forced through the
  fallback.
"""

import numpy as np
import pytest

from repro.core.protocol import ClientAidedSession, ClientCostModel, CostLedger
from repro.hecore.bfv import BfvContext
from repro.hecore.ckks import CkksContext
from repro.hecore.params import SchemeType, small_test_parameters
from repro.hecore.random import BlakePrng
from repro.hecore.rns import RnsBase, scale_and_round
from tests import oracles

N = 1024


class AsymmetricForkShim:
    """Replays ``encrypt_many``'s PRNG schedule one ciphertext at a time.

    ``encrypt`` draws ternary once then error twice per ciphertext; the
    batch engine draws each of those streams from its own labeled fork.
    Routing the looped draws through identically-labeled forks of an
    identically-seeded root makes looped ``encrypt(..., rng=shim)``
    reproduce the batch bit-for-bit.
    """

    def __init__(self, root: BlakePrng):
        self._u = root.fork("u")
        self._e1 = root.fork("e1")
        self._e2 = root.fork("e2")
        self._errors = 0

    def sample_ternary(self, n):
        return self._u.sample_ternary(n)

    def sample_error(self, n):
        self._errors += 1
        fork = self._e1 if self._errors % 2 == 1 else self._e2
        return fork.sample_error(n)


class SymmetricForkShim:
    """Replays ``encrypt_symmetric_many``'s schedule (seed then error)."""

    def __init__(self, root: BlakePrng):
        self._seed = root.fork("seed")
        self._e = root.fork("e")

    def random_bytes(self, n):
        return self._seed.random_bytes(n)

    def sample_error(self, n):
        return self._e.sample_error(n)


@pytest.fixture(scope="module")
def bfv():
    params = small_test_parameters(SchemeType.BFV, poly_degree=N,
                                   plain_bits=16, data_bits=(30, 30))
    return BfvContext(params, seed=b"batch-crypto-bfv")


@pytest.fixture(scope="module")
def ckks():
    params = small_test_parameters(SchemeType.CKKS, poly_degree=N,
                                   data_bits=(30, 30, 30))
    return CkksContext(params, seed=b"batch-crypto-ckks")


def _bfv_vectors(count, seed=11):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, 500, size=N) for _ in range(count)]


def _ckks_vectors(count, seed=12):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=N // 2) * 8 for _ in range(count)]


def _assert_ct_equal(a, b):
    assert len(a.components) == len(b.components)
    for ca, cb in zip(a.components, b.components):
        assert ca.is_ntt == cb.is_ntt
        assert np.array_equal(ca.data, cb.data)
    assert a.seed == b.seed


# ------------------------------------------------------------ PRNG satellite
def test_prng_tuple_size_matches_sequential_rows():
    """(m, n) draws consume the stream like m sequential (n,) draws — the
    foundation of the batch fork schedule."""
    for sampler, args in [("sample_uniform", (97,)), ("sample_ternary", ()),
                          ("sample_error", ())]:
        block = getattr(BlakePrng(b"rows"), sampler)((5, 64), *args) \
            if sampler == "sample_uniform" else \
            getattr(BlakePrng(b"rows"), sampler)((5, 64))
        seq = BlakePrng(b"rows")
        for i in range(5):
            row = getattr(seq, sampler)(64, *args) \
                if sampler == "sample_uniform" else getattr(seq, sampler)(64)
            assert np.array_equal(block[i], row), sampler


# ----------------------------------------------------- encrypt equivalence
def test_bfv_encrypt_many_matches_looped(bfv):
    vals = _bfv_vectors(6)
    batch = bfv.encrypt_many(vals, rng=BlakePrng(b"pin-asym"))
    shim = AsymmetricForkShim(BlakePrng(b"pin-asym"))
    looped = [oracles.encrypt(bfv, v, rng=shim) for v in vals]
    for a, b in zip(batch, looped):
        _assert_ct_equal(a, b)


def test_bfv_encrypt_symmetric_many_matches_looped(bfv):
    vals = _bfv_vectors(5, seed=21)
    batch = bfv.encrypt_symmetric_many(vals, rng=BlakePrng(b"pin-sym"))
    shim = SymmetricForkShim(BlakePrng(b"pin-sym"))
    looped = [oracles.encrypt_symmetric(bfv, v, rng=shim) for v in vals]
    for a, b in zip(batch, looped):
        assert a.seed is not None and len(a.seed) == 32
        _assert_ct_equal(a, b)


def test_ckks_encrypt_many_matches_looped(ckks):
    vals = _ckks_vectors(4)
    batch = ckks.encrypt_many(vals, rng=BlakePrng(b"pin-casym"))
    shim = AsymmetricForkShim(BlakePrng(b"pin-casym"))
    looped = [oracles.encrypt(ckks, v, rng=shim) for v in vals]
    for a, b in zip(batch, looped):
        _assert_ct_equal(a, b)
        assert a.scale == b.scale


def test_ckks_encrypt_symmetric_many_matches_looped(ckks):
    vals = _ckks_vectors(4, seed=22)
    batch = ckks.encrypt_symmetric_many(vals, rng=BlakePrng(b"pin-csym"))
    shim = SymmetricForkShim(BlakePrng(b"pin-csym"))
    looped = [oracles.encrypt_symmetric(ckks, v, rng=shim) for v in vals]
    for a, b in zip(batch, looped):
        _assert_ct_equal(a, b)


def test_encrypt_many_accepts_plaintexts_and_empty(bfv):
    assert bfv.encrypt_many([]) == []
    vals = _bfv_vectors(3, seed=31)
    mixed = [vals[0], bfv.encode(vals[1]), vals[2]]
    cts = bfv.encrypt_many(mixed)
    for v, ct in zip(vals, cts):
        assert np.array_equal(bfv.decrypt(ct),
                              np.mod(v, bfv.params.plain_modulus))


# ----------------------------------------------------- decrypt equivalence
def test_bfv_decrypt_many_matches_looped_across_levels(bfv):
    vals = _bfv_vectors(6, seed=41)
    cts = bfv.encrypt_many(vals)
    # Mix levels and shapes: two mod-switched down, one 3-component.
    cts[1] = bfv.mod_switch_down(cts[1])
    cts[4] = bfv.mod_switch_down(cts[4])
    cts[2] = bfv.multiply(cts[2], cts[3], relinearize=False)
    looped = [oracles.decrypt(bfv, ct) for ct in cts]
    batch = bfv.decrypt_many(cts)
    for a, b in zip(looped, batch):
        assert np.array_equal(a, b)


def test_ckks_decrypt_many_matches_looped_across_levels(ckks):
    vals = _ckks_vectors(5, seed=42)
    cts = ckks.encrypt_many(vals)
    cts[1] = ckks.rescale(ckks.multiply(cts[1], cts[2]))
    cts[3] = ckks.drop_modulus(cts[3])
    looped = [oracles.decrypt(ckks, ct) for ct in cts]
    batch = ckks.decrypt_many(cts)
    for a, b in zip(looped, batch):
        assert np.array_equal(a, b)


def test_bfv_rns_decrypt_matches_bigint_across_levels(bfv):
    """The vectorized RNS scaling is bit-for-bit the exact bigint path."""
    vals = _bfv_vectors(2, seed=51)
    ct = bfv.encrypt(vals[0])
    other = bfv.encrypt(vals[1])
    stages = [ct, bfv.multiply(ct, other), bfv.mod_switch_down(ct)]
    for stage in stages:
        assert np.array_equal(bfv.decrypt(stage), bfv._decrypt_bigint(stage))


def test_ckks_rns_decrypt_matches_bigint_across_levels(ckks):
    vals = _ckks_vectors(2, seed=52)
    ct = ckks.encrypt(vals[0])
    other = ckks.encrypt(vals[1])
    prod = ckks.multiply(ct, other)
    stages = [ct, prod, ckks.rescale(prod)]
    for stage in stages:
        assert np.array_equal(ckks.decrypt(stage), ckks._decrypt_bigint(stage))


def test_scale_and_round_mod_matches_exact_and_forced_fallback():
    """Kernel-level pin: safe entries equal the exact big-integer scaling,
    and guard=1.0 flags everything (the all-fallback regime)."""
    base = RnsBase([1073741789, 1073741783, 1073741741])
    t = 65537
    rng = np.random.default_rng(7)
    ints = [int(v) for v in rng.integers(0, 2**60, size=256)] + [0, 1, base.modulus - 1]
    block = base.decompose(ints)
    out, unsafe = base.scale_and_round_mod(block, t)
    exact = np.array([v % t for v in scale_and_round(ints, t, base.modulus)])
    assert not unsafe.any()
    assert np.array_equal(out, exact)
    _, all_unsafe = base.scale_and_round_mod(block, t, guard=1.0)
    assert all_unsafe.all()


def test_compose_centered_small_matches_exact():
    base = RnsBase([1073741789, 1073741783, 1073741741])
    rng = np.random.default_rng(8)
    small = [int(v) for v in rng.integers(-2**40, 2**40, size=128)]
    big = [base.modulus // 2 - 3, -(base.modulus // 2 - 7)]
    block = base.decompose(small + big)
    vals, unsafe = base.compose_centered_small(block)
    exact = base.compose_centered(block)
    assert not unsafe[: len(small)].any()
    assert np.array_equal(vals[: len(small)], np.array(exact[: len(small)]))
    # The near-q/2 values exceed the sub-base bound and must be flagged.
    assert unsafe[len(small):].all()


def test_noise_budget_matches_exact_composition(bfv):
    """Vectorized candidate-selection budget equals the full bigint max."""
    from repro.hecore.rns import centered_mod

    vals = _bfv_vectors(2, seed=61)
    ct = bfv.encrypt(vals[0])
    other = bfv.encrypt(vals[1])
    for stage in [ct, bfv.add(ct, other), bfv.multiply(ct, other),
                  bfv.mod_switch_down(ct)]:
        q = stage.level_base.modulus
        t = bfv.params.plain_modulus
        x = bfv._raw_decrypt_ints(stage)
        worst = max(abs(centered_mod(t * v, q)) for v in x)
        expected = q.bit_length() - 1 if worst == 0 else \
            max(0, q.bit_length() - 1 - worst.bit_length())
        assert bfv.noise_budget(stage) == expected


# ------------------------------------------------------- encoder batching
def test_bfv_encode_decode_batching_bit_exact(bfv):
    vals = _bfv_vectors(4, seed=71)
    batch_pts = bfv.encoder.encode_many(vals)
    for v, pt in zip(vals, batch_pts):
        assert pt == bfv.encode(v)
    coeff_rows = np.stack([pt.coeffs for pt in batch_pts])
    rows = bfv.encoder.decode_rows(coeff_rows)
    for pt, row in zip(batch_pts, rows):
        assert np.array_equal(bfv.decode(pt), row)


def test_secret_key_restriction_is_cached(bfv):
    sk = bfv.keygen.secret_key()
    base = bfv.params.data_base
    full = bfv.params.full_base
    assert sk.restricted_ntt(base, full) is sk.restricted_ntt(base, full)


# ------------------------------------------------------- cost accounting
def test_ledger_batch_counters_and_session_batching(bfv):
    model = ClientCostModel("fake", encrypt_s=2.0, decrypt_s=3.0,
                            encrypt_j=0.2, decrypt_j=0.3,
                            encrypt_batch_overhead_s=0.5,
                            decrypt_batch_overhead_s=0.25,
                            encrypt_batch_overhead_j=0.05,
                            decrypt_batch_overhead_j=0.025)
    session = ClientAidedSession(bfv, cost_model=model)
    vals = _bfv_vectors(4, seed=81)
    cts = session.client_encrypt_many(vals)
    outs = session.client_decrypt_many(cts)
    assert len(outs) == 4
    led = session.ledger
    assert led.client_encrypt_ops == 4 and led.client_encrypt_batches == 1
    assert led.client_decrypt_ops == 4 and led.client_decrypt_batches == 1
    # m*per_op - (m-1)*overhead for each direction.
    assert led.client_compute_s == pytest.approx(
        (4 * 2.0 - 3 * 0.5) + (4 * 3.0 - 3 * 0.25))
    assert led.client_energy_j == pytest.approx(
        (4 * 0.2 - 3 * 0.05) + (4 * 0.3 - 3 * 0.025))
    other = CostLedger(client_encrypt_batches=2, client_decrypt_batches=5)
    led.merge(other)
    assert led.client_encrypt_batches == 3
    assert led.client_decrypt_batches == 6


def test_cost_model_batch_amortization_edges():
    model = ClientCostModel("edge", 1.0, 1.0, 1.0, 1.0,
                            encrypt_batch_overhead_s=0.25)
    assert model.encrypt_many_s(0) == 0.0
    assert model.encrypt_many_s(1) == pytest.approx(1.0)
    assert model.encrypt_many_s(8) == pytest.approx(8 * 1.0 - 7 * 0.25)
    # Software model (zero overhead) stays exactly linear.
    soft = ClientCostModel("soft", 1.0, 1.0, 1.0, 1.0)
    assert soft.decrypt_many_s(16) == pytest.approx(16.0)


def test_accelerator_batch_cost_amortizes_fixed_overhead():
    from repro.accel.design import CLOCK_HZ, AcceleratorModel

    hw = AcceleratorModel().at_parameters(4096, 4)
    one = hw.encrypt_cost()
    batch = hw.encrypt_many_cost(16)
    saved = 15 * hw.batch_overhead_cycles()
    assert batch.cycles == pytest.approx(16 * one.cycles - saved)
    assert batch.energy_j == pytest.approx(
        16 * one.energy_j - hw.leakage_w * saved / CLOCK_HZ)
    assert hw.decrypt_many_cost(0).cycles == 0.0
    assert hw.decrypt_many_cost(1).cycles == pytest.approx(
        hw.decrypt_cost().cycles)


@pytest.mark.parametrize("scheme", ["bfv", "ckks"])
def test_decrypt_counts_its_exact_fallback(bfv, ckks, monkeypatch, scheme):
    """Coefficients the int64 path flags are recomputed through big
    integers, counted in ``decrypt_exact_coeffs``, and the decrypt still
    equals ``_decrypt_bigint``: every third coefficient is forced onto the
    exact path with a wrong fast value."""
    ctx = bfv if scheme == "bfv" else ckks
    name = ("scale_and_round_mod" if scheme == "bfv"
            else "compose_centered_small")
    fast = getattr(RnsBase, name)
    forced = []

    def flagging(self, residues, *args, **kwargs):
        values, unsafe = fast(self, residues, *args, **kwargs)
        unsafe = unsafe.copy()
        unsafe[..., ::3] = True
        values = np.where(unsafe, 0, values)
        forced.append(int(unsafe.sum()))
        return values, unsafe

    vals = (_bfv_vectors(2, seed=53) if scheme == "bfv"
            else _ckks_vectors(2, seed=53))
    cts = ctx.encrypt_many(vals)
    want = [ctx._decrypt_bigint(ct) for ct in cts]
    monkeypatch.setattr(RnsBase, name, flagging)
    before = ctx.counts["decrypt_exact_coeffs"]
    got = [ctx.decrypt(cts[0]), *ctx.decrypt_many(cts)]
    assert ctx.counts["decrypt_exact_coeffs"] - before == sum(forced)
    # Three ciphertexts decrypted, each with every third coefficient forced.
    assert sum(forced) >= 3 * len(range(0, ctx.params.poly_degree, 3))
    for a, b in zip(got, [want[0], *want]):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("scheme", ["bfv", "ckks"])
def test_decrypt_many_mixed_batch_matches_looped_reference(bfv, ckks, scheme):
    """One ``decrypt_many`` call over every group shape a client meets —
    two-component ciphertexts in coefficient and in evaluation form, a
    three-component product, a mixed-form ciphertext, two level bases —
    equals the looped reference bit for bit, one count per ciphertext."""
    from repro.hecore.ciphertext import Ciphertext

    ctx = bfv if scheme == "bfv" else ckks
    vals = (_bfv_vectors(3, seed=61) if scheme == "bfv"
            else _ckks_vectors(3, seed=61))
    coeff = ctx.encrypt_many(vals)
    evaluation = ctx.encrypt_symmetric_many(vals)
    three = ctx.multiply(coeff[0], coeff[1], relinearize=False)
    c0, c1 = coeff[1].components
    mixed = Ciphertext(ctx.params, [c0.to_ntt(), c1.from_ntt()],
                       scale=coeff[1].scale)
    lower = (ctx.mod_switch_down(coeff[2]) if scheme == "bfv"
             else ctx.rescale(ctx.multiply(coeff[1], coeff[2])))
    batch = [coeff[0], three, evaluation[0], mixed, lower, coeff[1],
             evaluation[1], ctx.mod_switch_down(evaluation[2])]
    assert {ct.is_ntt for ct in batch} == {True, False}
    assert len({ct.level_base for ct in batch}) == 2
    assert {len(ct) for ct in batch} == {2, 3}
    before = ctx.counts["decrypt"]
    got = ctx.decrypt_many(batch)
    assert ctx.counts["decrypt"] - before == len(batch)
    for values, ct in zip(got, batch):
        assert np.array_equal(values, oracles.decrypt(ctx, ct))
