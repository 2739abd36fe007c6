"""Hoisted rotations: bit-exactness, fused kernels, counters, and noise."""

import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.ir import compile_ir, trace_program
from repro.core.linalg import EncryptedMatVec, _window_sum
from repro.hecore import hoisting
from repro.hecore.bfv import BfvContext
from repro.hecore.ckks import CkksContext
from repro.hecore.hoisting import (
    FLAT_SUM_LIMIT,
    HoistedRotator,
    ntt_permutation,
    rotate_and_sum_steps,
)
from repro.hecore.keys import MissingEvaluationKey, keyswitch_ext_base
from repro.hecore.noise import NoiseEstimator
from repro.hecore.params import SchemeType, small_test_parameters
from repro.hecore.serialize import serialize_ciphertext
from tests.value_digest import value_digest


def _fresh_bfv(seed=1234):
    params = small_test_parameters(SchemeType.BFV, poly_degree=1024,
                                   plain_bits=16, data_bits=(30, 30, 30))
    return BfvContext(params, seed=seed)


def _fresh_ckks(seed=5678):
    params = small_test_parameters(SchemeType.CKKS, poly_degree=1024,
                                   data_bits=(30, 24, 24))
    return CkksContext(params, seed=seed)


def _rotate(ctx, ct, step, rotator=None):
    """One hoisted rotation: a one-term unweighted key-switch sum."""
    return hoisting.keyswitch_sum(ctx, [rotator or HoistedRotator(ctx, ct)],
                                  [(step, 0)])


# ------------------------------------------------------------ bit-exactness
def _assert_hoisted_equals_sequential(ctx, ct, steps):
    """Over one rotator (one decompose): each one-term sum is the naive
    rotation byte for byte (step 0 the source itself), a sum of the source
    and one rotation is the naive add byte for byte, and the multi-term
    window-shaped sum ``x + Σ rotate(x, s)`` decrypts to the naive chain —
    its one mod-down of the summed accumulator rounds differently from a
    mod-down per rotation, so its bytes move and BFV's plaintext does
    not."""
    rotator = HoistedRotator(ctx, ct)
    for s in steps:
        assert (serialize_ciphertext(_rotate(ctx, ct, s, rotator))
                == serialize_ciphertext(ctx.rotate(ct, s))), \
            f"hoisted rotation by {s} is not bit-exact"
    s = steps[-1]
    assert (serialize_ciphertext(hoisting.keyswitch_sum(
                ctx, [rotator], [(0, 0), (s, 0)]))
            == serialize_ciphertext(ctx.add(ct, ctx.rotate(ct, s))))
    chain = ct
    for s in steps:
        chain = ctx.add(chain, ctx.rotate(ct, s))
    return (hoisting.keyswitch_sum(ctx, [rotator],
                                   [(0, 0)] + [(s, 0) for s in steps]),
            chain)


def test_rotate_many_bitexact_with_sequential_bfv(bfv):
    """Many rotations of one source over one decompose, as one-term and
    multi-term key-switch sums."""
    steps = (1, 2, 3, 5, 8, -1)
    bfv.make_galois_keys(steps)
    ct = bfv.encrypt(bfv.encode(np.arange(512, dtype=np.int64) % 97))
    fused, chain = _assert_hoisted_equals_sequential(bfv, ct, steps)
    assert np.array_equal(bfv.decrypt(fused), bfv.decrypt(chain))


def test_rotate_many_bitexact_with_sequential_ckks(ckks):
    steps = (1, 4, 7)
    ckks.make_galois_keys(steps)
    ct = ckks.encrypt(ckks.encode(np.linspace(-1.0, 1.0, 512)))
    fused, chain = _assert_hoisted_equals_sequential(ckks, ct, steps)
    assert np.allclose(np.real(ckks.decrypt(fused)),
                       np.real(ckks.decrypt(chain)), atol=1e-3)


def test_rotate_many_identity_step(bfv):
    """Step 0 over a shared rotator is the source itself, byte for byte,
    next to a real rotation from the same decompose."""
    bfv.make_galois_keys([1])
    ct = bfv.encrypt(bfv.encode(np.arange(64, dtype=np.int64)))
    rotator = HoistedRotator(bfv, ct)
    assert (serialize_ciphertext(_rotate(bfv, ct, 0, rotator))
            == serialize_ciphertext(ct))
    assert (serialize_ciphertext(_rotate(bfv, ct, 1, rotator))
            == serialize_ciphertext(bfv.rotate_rows(ct, 1)))


def test_hoisted_rotator_rejects_three_component(bfv):
    from repro.hecore.ciphertext import Ciphertext

    ct = bfv.encrypt(bfv.encode(np.arange(8, dtype=np.int64)))
    big = Ciphertext(bfv.params, list(ct.components) + [ct.components[0]])
    with pytest.raises(ValueError, match="relinearize"):
        HoistedRotator(bfv, big)


def test_rotation_requires_galois_keys():
    ctx = _fresh_bfv(seed=3)
    ct = ctx.encrypt(ctx.encode(np.arange(8, dtype=np.int64)))
    with pytest.raises(ValueError, match="Galois keys"):
        _rotate(ctx, ct, 1)


def test_ntt_permutation_is_cached_and_involutive():
    n = 1024
    perm = ntt_permutation(n, 3)
    assert ntt_permutation(n, 3) is perm          # cache hit
    assert sorted(perm) == list(range(n))         # a true permutation


# ----------------------------------------------------------- property tests
@given(step=st.integers(min_value=-8, max_value=8))
def test_rotation_distributes_over_addition(bfv, step):
    """rotate(a + b) == rotate(a) + rotate(b), hoisted path."""
    bfv.make_galois_keys([step])
    a = bfv.encrypt(bfv.encode(np.arange(32, dtype=np.int64)))
    b = bfv.encrypt(bfv.encode(np.arange(32, dtype=np.int64)[::-1] * 3))
    lhs = _rotate(bfv, bfv.add(a, b), step)
    rhs = bfv.add(_rotate(bfv, a, step), _rotate(bfv, b, step))
    assert np.array_equal(bfv.decrypt(lhs), bfv.decrypt(rhs))


@given(width_log2=st.integers(min_value=1, max_value=6))
def test_rotate_and_sum_matches_log_tree_bfv(width_log2):
    width = 1 << width_log2
    ctx = _fresh_bfv(seed=width)
    ctx.make_galois_keys(rotate_and_sum_steps(width))
    msg = np.arange(512, dtype=np.int64) % 53
    ct = ctx.encrypt(ctx.encode(msg))
    fused = ctx.rotate_and_sum(ct, width)
    # Log tree, built naively so the reference is independent of hoisting.
    tree = ct
    step = width // 2
    while step >= 1:
        tree = ctx.add(tree, ctx.rotate_rows(tree, step))
        step //= 2
    assert np.array_equal(ctx.decrypt(fused), ctx.decrypt(tree))


@given(width_log2=st.integers(min_value=1, max_value=11))
def test_rotate_and_sum_steps_contain_the_log_tree_ladder(width_log2):
    """The hoisted step set holds every power of two below the width, so
    a log-tree reference works on the keys a window sum uploads."""
    width = 1 << width_log2
    assert {width >> k for k in range(1, width_log2 + 1)} \
        <= rotate_and_sum_steps(width)


def test_rotate_and_sum_matches_log_tree_ckks():
    width = 8
    ctx = _fresh_ckks(seed=8)
    ctx.make_galois_keys(rotate_and_sum_steps(width))
    vals = np.linspace(0.0, 1.0, 512)
    ct = ctx.encrypt(ctx.encode(vals))
    fused = np.real(ctx.decrypt(ctx.rotate_and_sum(ct, width)))
    tree = ct
    step = width // 2
    while step >= 1:
        tree = ctx.add(tree, ctx.rotate(tree, step))
        step //= 2
    assert np.allclose(fused, np.real(ctx.decrypt(tree)), atol=1e-2)


def test_rotate_and_sum_wide_span_uses_bsgs():
    width = 2 * FLAT_SUM_LIMIT
    ctx = _fresh_bfv(seed=64)
    ctx.make_galois_keys(rotate_and_sum_steps(width))
    msg = np.arange(512, dtype=np.int64) % 31
    ct = ctx.encrypt(ctx.encode(msg))
    before = ctx.counts["hoisted_decompose"]
    out = ctx.rotate_and_sum(ct, width)
    # Two hoisted phases: baby span then giant span.
    assert ctx.counts["hoisted_decompose"] - before == 2
    window = np.asarray(ctx.decrypt(out))[:width]
    assert window[0] == msg[:width].sum() % ctx.params.plain_modulus


def test_rotate_and_sum_refuses_without_hoisted_keys():
    """Only the power-of-two ladder uploaded: the window sum has no other
    path, so it names the missing key instead of falling back."""
    width = 8
    ctx = _fresh_bfv(seed=11)
    ctx.make_galois_keys([width >> k for k in range(1, width.bit_length())])
    ct = ctx.encrypt(ctx.encode(np.arange(256, dtype=np.int64)))
    with pytest.raises(MissingEvaluationKey, match="no Galois key"):
        ctx.rotate_and_sum(ct, width)


def test_a_refused_sum_charges_no_counter():
    """Every Galois key a sum reads is resolved before its decompose and
    its ``rotate`` / ``multiply_plain`` charges: a window sum short of a
    phase step's key, or a weighted sum short of one term's, raises with
    every counter where it was."""
    ctx = _fresh_bfv(seed=11)
    ctx.make_galois_keys([1, 2, 4])
    ct = ctx.encrypt(ctx.encode(np.arange(256, dtype=np.int64)))
    ext = keyswitch_ext_base(ct.level_base, ctx.params)
    mask = ext.lift_signed(ctx.encode(np.ones(8, dtype=np.int64)).coeffs)
    table = hoisting.weight_table(ctx, ct.level_base,
                                  [(1, 0, mask), (3, 0, mask)])
    refused = [lambda: ctx.rotate_and_sum(ct, 8),
               lambda: hoisting.keyswitch_sum(
                   ctx, [HoistedRotator(ctx, ct)], weights=table)]
    for call in refused:
        before = dict(ctx.counts)
        with pytest.raises(MissingEvaluationKey, match="no Galois key"):
            call()
        assert dict(ctx.counts) == before


def test_rotate_weighted_sum_matches_naive_chain():
    ctx = _fresh_bfv(seed=21)
    dim = 8
    rng = np.random.default_rng(2)
    mat = rng.integers(0, 7, size=(dim, dim))
    mv = EncryptedMatVec(ctx, mat)
    ctx.make_galois_keys(mv.required_rotation_steps())
    vec = rng.integers(0, 40, size=dim)
    ct = ctx.encrypt(ctx.encode(mv.pack_input(vec).astype(np.int64)))
    # Naive rotate -> multiply_plain -> add chain.
    naive = None
    terms = []
    for j, mask in mv._diagonal_masks():
        encoded = ctx.encode(mask.astype(np.int64))
        terms.append((j, encoded.coeffs))
        shifted = ctx.rotate_rows(ct, j) if j else ct
        term = ctx.multiply_plain(shifted, encoded)
        naive = term if naive is None else ctx.add(naive, term)
    ext = keyswitch_ext_base(ct.level_base, ctx.params)
    table = hoisting.weight_table(ctx, ct.level_base, [
        (j, 0, ext.lift_signed(coeffs)) for j, coeffs in terms])
    fused = hoisting.keyswitch_sum(ctx, [HoistedRotator(ctx, ct)],
                                   weights=table)
    assert np.array_equal(ctx.decrypt(fused), ctx.decrypt(naive))
    assert np.array_equal(mv.unpack_output(ctx.decrypt(fused)),
                          mv.reference(vec))


def test_encrypted_matvec_uses_fused_kernel():
    ctx = _fresh_bfv(seed=31)
    dim = 8
    mat = np.eye(dim, dtype=np.int64) + 1
    mv = EncryptedMatVec(ctx, mat)
    ctx.make_galois_keys(mv.required_rotation_steps())
    vec = np.arange(dim)
    ct = ctx.encrypt(ctx.encode(mv.pack_input(vec).astype(np.int64)))
    before = ctx.counts["hoisted_decompose"]
    out = mv(ct)
    assert ctx.counts["hoisted_decompose"] == before + 1
    assert np.array_equal(mv.unpack_output(ctx.decrypt(out)),
                          mv.reference(vec))


#: ``value_digest`` of the ``rotate_and_sum`` results of
#: ``bench_hoisting``'s context (BFV, N = 4096, two limbs) at its width 8
#: and at width 64 (a baby-step/giant-step span).  First recorded, as the
#: SHA-256 of the serialized results, before the span sums ran through one
#: fused key-switch sum; re-recorded unmoved as values, so a wire change
#: moves no digest.
BENCH_HOISTING_SUM_DIGESTS = {
    8: "b835447f4d7f5efe0811a22838e5b570874635f6288bf2579080d52d75fbd55d",
    64: "9baabba7ed2a4eec0fea0b4dd37ec19d49cd90a719f816ad81ff09b663a540fa",
}


def test_bench_hoisting_rotate_and_sum_bytes_did_not_move():
    sys.path.insert(0, str(Path(__file__).parent.parent / "benchmarks"))
    import bench_hoisting

    ctx = bench_hoisting._make_context()
    msg = np.arange(ctx.params.poly_degree // 2, dtype=np.int64) % 251
    for width, digest in BENCH_HOISTING_SUM_DIGESTS.items():
        ctx.make_galois_keys(rotate_and_sum_steps(width))
        ct = ctx.encrypt(ctx.encode(msg))
        out = ctx.rotate_and_sum(ct, width)
        assert value_digest(out) == digest, width


# ------------------------------------------------------------------ counters
def test_rotation_counters(bfv):
    steps = (1, 2, 4)
    bfv.make_galois_keys(steps)
    ct = bfv.encrypt(bfv.encode(np.arange(16, dtype=np.int64)))
    before = dict(bfv.counts)
    hoisting.keyswitch_sum(bfv, [HoistedRotator(bfv, ct)],
                           [(s, 0) for s in steps])
    assert bfv.counts["rotate"] - before.get("rotate", 0) == len(steps)
    assert bfv.counts["hoisted_decompose"] - before.get("hoisted_decompose",
                                                        0) == 1
    bfv.rotate_rows(ct, 1)
    assert bfv.counts["naive_decompose"] - before.get("naive_decompose",
                                                      0) == 1


# ----------------------------------------------------------------- noise
def test_hoisted_noise_matches_naive_rotation():
    """A hoisted rotation spends the same budget as the naive key switch."""
    ctx = _fresh_bfv(seed=41)
    ctx.make_galois_keys([1])
    ct = ctx.encrypt(ctx.encode(np.arange(16, dtype=np.int64)))
    naive = ctx.noise_budget(ctx.rotate_rows(ct, 1))
    hoisted = ctx.noise_budget(_rotate(ctx, ct, 1))
    assert hoisted == naive


def test_hoisted_span_noise_within_modeled_bound():
    """A traced width-8 BFV window compiles to one unweighted key-switch
    sum; the budget its run spends stays within that node's price in the
    one noise table, which is what the level planner charges it."""
    width = 8
    params = small_test_parameters(SchemeType.BFV, poly_degree=2048,
                                   plain_bits=16, data_bits=(30, 30, 30))
    ctx = BfvContext(params, seed=17)
    ctx.make_galois_keys(rotate_and_sum_steps(width))
    sched = compile_ir(trace_program(
        params, lambda tr, x: _window_sum(tr, x, width), ["x"]),
        SchemeType.BFV)
    (node,) = [sched.program.nodes[nid]
               for nid in sched.program.live_set()
               if sched.program.nodes[nid].kind == "keyswitch_sum"]
    assert len(node.terms) == width
    price = NoiseEstimator(params).node_cost_bits(node, sched.program.nodes)
    ct = ctx.encrypt(ctx.encode(np.arange(32, dtype=np.int64)))
    measured_drop = (ctx.noise_budget(ct)
                     - ctx.noise_budget(sched.run(ctx, {"x": ct})["out0"]))
    assert 0 < measured_drop <= price


def test_sibling_sums_share_one_accumulator_block():
    """Two weighted sums over one rotator and one element tuple read one
    stacked block, built once, each element's key switch charged once; a
    sum over another tuple stacks its own block, charging only its new
    element, and the blocks are the rotator's only copies."""
    ctx = _fresh_bfv(seed=92)
    ctx.make_galois_keys([1, 2, 3])
    ct = ctx.encrypt(np.arange(16))
    ext = keyswitch_ext_base(ct.level_base, ctx.params)
    mask = ext.lift_signed(ctx.encode(np.ones(16, dtype=np.int64)).coeffs)
    sibling = [hoisting.weight_table(ctx, ct.level_base, [
        (0, 0, mask * w), (1, 0, mask), (2, 0, mask)]) for w in (1, 2)]
    other = hoisting.weight_table(ctx, ct.level_base,
                                  [(1, 0, mask), (3, 0, mask)])
    rotator = HoistedRotator(ctx, ct)
    before = ctx.counts["rotate"]
    sums = [hoisting.keyswitch_sum(ctx, [rotator], weights=t)
            for t in sibling]
    assert ctx.counts["rotate"] - before == 2
    assert len(rotator._blocks) == 1
    (block,) = rotator._blocks.values()
    assert rotator.accumulators([g for _, g in sibling[0].pairs]) is block
    hoisting.keyswitch_sum(ctx, [rotator], weights=other)
    assert ctx.counts["rotate"] - before == 3
    assert len(rotator._blocks) == 2
    blocks = list(rotator._blocks.values())
    assert all(any(np.shares_memory(row, b) for b in blocks)
               for row in rotator._rows.values())
    # The shared block gives what a fresh rotator gives each sum.
    for table, got in zip(sibling, sums):
        fresh = hoisting.keyswitch_sum(ctx, [HoistedRotator(ctx, ct)],
                                       weights=table)
        assert serialize_ciphertext(got) == serialize_ciphertext(fresh)
