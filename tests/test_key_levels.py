"""Level-trimmed Galois keys: each key carries only the digits and rows of
the highest level its program rotates it at.

A compiled schedule maps every rotation step to the most live limbs it is
rotated at (``ScheduledProgram.rotation_steps()`` -> ``RotationSteps``);
``KeyGenerator.galois_keys`` makes that element's key for that many limbs
as the full key cut to digits ``0..L-1`` and rows ``q_0..q_{L-1}, P``,
from the full key's own seed and errors.  So a trimmed key is a byte
slice of the full key, every key switch reads the same numbers, and a
served result does not move.
"""

import pickle
from collections import Counter

import numpy as np
import pytest

from repro.core.distance import KERNEL_VARIANTS, DistanceProblem
from repro.core.ir import compile_ir, ensure_galois_keys, trace_program
from repro.hecore.bfv import BfvContext
from repro.hecore.ckks import CkksContext
from repro.hecore.hoisting import rotate_and_sum
from repro.hecore.keys import (
    GaloisKeys,
    KeyGenerator,
    MissingEvaluationKey,
    RotationSteps,
    galois_element_for_step,
    key_rows,
)
from repro.hecore.params import PARAMETER_SET_B, SchemeType, small_test_parameters
from repro.hecore.serialize import (
    deserialize_galois_keys,
    serialize_ciphertext,
    serialize_galois_keys,
    serialize_relin_key,
)
from tests.test_rotation_bases import _e2e_layers

#: The e2e benchmark's CKKS set: three 30-bit limbs at N = 4096.
E2E_CKKS = small_test_parameters(SchemeType.CKKS, 4096, data_bits=(30, 30, 30))


def _limb_counts(keys: GaloisKeys) -> Counter:
    return Counter(key.limbs for key in keys.keys.values())


# ---------------------------------------------------------------------------
# RotationSteps
# ---------------------------------------------------------------------------

def test_rotation_steps_are_a_frozenset_with_levels():
    steps = RotationSteps({1: 2, 4: None, -3: 1})
    assert steps == {1, 4, -3} and steps == frozenset({1, 4, -3})
    assert sorted(steps) == [-3, 1, 4]
    assert hash(steps) == hash(frozenset({1, 4, -3}))
    assert (steps.limbs(1), steps.limbs(4), steps.limbs(-3)) == (2, None, 1)
    assert RotationSteps([5, 6]).limbs(5) is None


def test_a_union_keeps_the_higher_level_and_a_plain_set_means_the_top():
    a, b = RotationSteps({1: 1, 2: 3}), RotationSteps({1: 2, 5: 1})
    for merged in (a | b, a.union(b), RotationSteps().union(a, b)):
        assert isinstance(merged, RotationSteps)
        assert {s: merged.limbs(s) for s in merged} == {1: 2, 2: 3, 5: 1}
    # A plain set's steps are at the top level, on either side of ``|``.
    for merged in (a | {1, 7}, frozenset({1, 7}) | a):
        assert isinstance(merged, RotationSteps)
        assert (merged.limbs(1), merged.limbs(7), merged.limbs(2)) == (
            None, None, 3)
    # Whatever loses the type asks for full keys: a plain set.
    assert type({1} | a) is set and type(a - {1}) is frozenset


def test_rotation_steps_pickle_with_their_levels():
    steps = RotationSteps({1: 2, 3: None})
    back = pickle.loads(pickle.dumps(steps))
    assert back == steps and (back.limbs(1), back.limbs(3)) == (2, None)


# ---------------------------------------------------------------------------
# Levels read off the compiled schedules of the served programs
# ---------------------------------------------------------------------------

def test_served_programs_rotate_below_the_top():
    """The e2e DNN slice uses 7 of its 17 keys at 2 of 3 limbs;
    ``collapsed`` 21 at 2 and 7 at 1; ``stacked-point`` all 15 at 1."""
    ctx = BfvContext(PARAMETER_SET_B, seed=b"key-levels")
    conv, fc, _rng = _e2e_layers(ctx, 0)
    steps = conv.required_rotation_steps() | fc.required_rotation_steps()
    assert {s: steps.limbs(s) for s in steps if steps.limbs(s) < 3} == {
        -768: 2, -512: 2, -256: 2, 4: 2, 8: 2, 16: 2, 32: 2}
    assert _limb_counts(ensure_galois_keys(ctx, steps)) == {3: 10, 2: 7}
    want = {"collapsed": {2: 21, 1: 7}, "stacked-point": {1: 15}}
    for variant, counts in want.items():
        cctx = CkksContext(E2E_CKKS, seed=b"key-levels")
        kernel = KERNEL_VARIANTS[variant](cctx, DistanceProblem(64, 16))
        keys = ensure_galois_keys(cctx, kernel.required_rotation_steps())
        assert _limb_counts(keys) == counts, variant


def test_an_unplanned_schedule_asks_for_full_keys(bfv_params):
    def body(tr, x):
        return tr.add(tr.rotate(x, 2), x)

    program = trace_program(bfv_params, body, ["x"])
    planned = compile_ir(program, SchemeType.BFV, params=bfv_params)
    unplanned = compile_ir(program, SchemeType.BFV)
    assert planned.rotation_steps().limbs(2) == 2
    assert unplanned.rotation_steps().limbs(2) is None
    assert program.rotation_steps().limbs(2) is None


# ---------------------------------------------------------------------------
# Keygen: a trimmed key is a byte slice of the full key of the same seed
# ---------------------------------------------------------------------------

LEVELS = {1: 1, 2: 2, 3: 3, 5: None}


def test_a_trimmed_key_is_the_full_key_cut_to_its_digits_and_rows(bfv_params):
    """In both k0 and the expanded uniform half, generated and after a
    serialize -> deserialize round trip (the receiver expands the seed
    through the key's own digits only)."""
    n = bfv_params.poly_degree
    full = KeyGenerator(bfv_params, seed=9).galois_keys(set(LEVELS))
    trimmed = KeyGenerator(bfv_params, seed=9).galois_keys(
        RotationSteps(LEVELS))
    restored = deserialize_galois_keys(serialize_galois_keys(trimmed),
                                       bfv_params)
    assert set(full.keys) == set(trimmed.keys) == set(restored.keys)
    for step, level in LEVELS.items():
        g = galois_element_for_step(step, n)
        limbs = level or len(bfv_params.data_base)
        rows = key_rows(bfv_params, limbs)
        assert trimmed.keys[g].limbs == restored.keys[g].limbs == limbs
        assert trimmed.keys[g].seed == full.keys[g].seed
        for keys in (trimmed, restored):
            for (k0, a), (f0, fa) in zip(keys.keys[g].digits,
                                         full.keys[g].digits[:limbs]):
                assert np.array_equal(k0.data, f0.data[rows])
                assert np.array_equal(a.data, fa.data[rows])


def test_trimming_draws_what_full_keys_draw(bfv_params):
    """Keys made afterwards and every ciphertext encrypted afterwards are
    the same bytes whichever levels the Galois keys were made for."""
    contexts = [BfvContext(bfv_params, seed=31) for _ in range(2)]
    contexts[0].make_galois_keys(RotationSteps(LEVELS))
    contexts[1].make_galois_keys(set(LEVELS))
    blobs = [(serialize_relin_key(ctx.relin_keys()),
              serialize_ciphertext(ctx.encrypt([1, 2, 3])),
              serialize_ciphertext(ctx.encrypt_symmetric([4, 5, 6])),
              serialize_ciphertext(ctx.encrypt_symmetric_many([[7], [8]])[1]))
             for ctx in contexts]
    assert blobs[0] == blobs[1]


def test_logical_key_size_follows_the_level():
    """``size_bytes`` (what the cost model charges) reconciles with the
    wire at every level where logical and physical residues agree: twice
    the blob's 4-byte words, plus the seed."""
    from repro.hecore.params import EncryptionParameters

    params = EncryptionParameters.create(
        SchemeType.BFV, 256, (28, 24, 24, 30), plain_bits=14,
        enforce_security=False)
    assert params.logical_residue_count == len(params.full_base)
    header = 11 + 8 * len(params.full_base) + 2
    for level in (1, 2, 3):
        keys = KeyGenerator(params, seed=5).galois_keys(
            RotationSteps({1: level}))
        physical = len(serialize_galois_keys(keys)) - header - 4 - 1 - 32
        assert keys.size_bytes(params) - 32 == 2 * physical, level


def test_a_held_key_rises_once_and_never_falls(bfv_params):
    ctx = BfvContext(bfv_params, seed=32)
    g = galois_element_for_step(2, bfv_params.poly_degree)
    low = ctx.make_galois_keys(RotationSteps({2: 1})).keys[g]
    assert low.limbs == 1
    # Asked lower or as low: the held key serves.
    assert ctx.make_galois_keys(RotationSteps({2: 1})).keys[g] is low
    high = ctx.make_galois_keys(RotationSteps({2: 2})).keys[g]
    assert high.limbs == 2 and high is not low
    assert ctx.make_galois_keys(RotationSteps({2: 1})).keys[g] is high
    # A plain step asks for the top.
    assert ctx.make_galois_keys([2]).keys[g].limbs == len(bfv_params.data_base)


# ---------------------------------------------------------------------------
# Served programs run on exactly their trimmed keys
# ---------------------------------------------------------------------------

def _keys_after_the_wire(params, seed, steps):
    """(trimmed keys after a serialize -> deserialize round trip, full keys)
    of the context seeded *seed*."""
    trimmed = KeyGenerator(params, seed=seed).galois_keys(steps)
    full = KeyGenerator(params, seed=seed).galois_keys(set(steps))
    return (deserialize_galois_keys(serialize_galois_keys(trimmed), params),
            full)


def _assert_same_on_both(kernel, groups, trimmed, full):
    ctx = kernel.ctx
    before = Counter(ctx.counts)
    on_trimmed = kernel.run(groups, trimmed)
    assert (ctx.counts - before)["key_drops"] == 0
    on_full = kernel.run(groups, full)
    assert [serialize_ciphertext(ct) for ct in on_trimmed] == [
        serialize_ciphertext(ct) for ct in on_full]
    return on_trimmed


@pytest.mark.parametrize("variant", sorted(KERNEL_VARIANTS))
def test_every_distance_kernel_runs_on_its_trimmed_keys(variant):
    seed = b"trimmed-" + variant.encode()
    ctx = CkksContext(E2E_CKKS, seed=seed)
    kernel = KERNEL_VARIANTS[variant](ctx, DistanceProblem(64, 16))
    steps = kernel.required_rotation_steps()
    if not steps:
        assert variant == "dimension-major"
        return
    ctx.relin_keys()
    trimmed, full = _keys_after_the_wire(E2E_CKKS, seed, steps)
    assert set(trimmed.keys) == {galois_element_for_step(s, 4096)
                                 for s in steps}
    rng = np.random.default_rng(3)
    points = rng.uniform(-0.5, 0.5, (64, 16))
    query = rng.uniform(-0.5, 0.5, 16)
    groups = (kernel.encrypt_points(points), kernel.encrypt_query(query))
    outs = _assert_same_on_both(kernel, groups, trimmed, full)
    got = kernel.decode([np.real(v) for v in ctx.decrypt_many(outs)])
    assert np.max(np.abs(got - kernel.reference(points, query))) < 1e-2


def test_the_e2e_conv_and_fc_run_on_their_trimmed_keys():
    seed = b"trimmed-dnn"
    ctx = BfvContext(PARAMETER_SET_B, seed=seed)
    conv, fc, rng = _e2e_layers(ctx, 1)
    steps = conv.required_rotation_steps() | fc.required_rotation_steps()
    trimmed, full = _keys_after_the_wire(PARAMETER_SET_B, seed, steps)
    assert _limb_counts(trimmed) == {3: 10, 2: 7}
    image, vec = rng.integers(0, 16, (1, 12, 12)), rng.integers(0, 8, 64)
    conv_in = ctx.encrypt_symmetric_many(
        [v.astype(np.int64) for v in conv.pack_input(image)])
    (acts,) = _assert_same_on_both(conv, (conv_in,), trimmed, full)
    t = PARAMETER_SET_B.plain_modulus
    got = conv.unpack_outputs([ctx.decrypt(acts)])
    assert np.array_equal(np.mod(got, t), np.mod(conv.reference(image), t))
    fc_in = ctx.encrypt_symmetric_many([fc.pack_input(vec).astype(np.int64)])
    (logits,) = _assert_same_on_both(fc, (fc_in,), trimmed, full)
    got = fc.unpack_output(ctx.decrypt(logits))
    assert np.array_equal(np.mod(got, t), np.mod(fc.reference(vec), t))


# ---------------------------------------------------------------------------
# A key below a rotation's level
# ---------------------------------------------------------------------------

def _rotation_at_the_top(params, with_sum):
    """A program whose rotations run on every limb: the two multiplies
    after them need the headroom.  One ``rotate`` node, or one
    ``keyswitch_sum`` of two rotations and the source."""
    weights = np.arange(params.poly_degree) % 7 + 1

    def body(tr, x):
        if with_sum:
            total = tr.add(tr.add(tr.rotate(x, 3), tr.rotate(x, 4)), x)
            return tr.multiply(total, total)
        w = tr.encode(weights)
        return tr.multiply_plain(tr.multiply_plain(tr.rotate(x, 3), w), w)

    return compile_ir(trace_program(params, body, ["x"]),
                      params.scheme, params=params)


@pytest.mark.parametrize("with_sum", [False, True],
                         ids=["rotate", "keyswitch_sum"])
def test_a_planned_run_refuses_a_key_below_its_level(bfv_params, with_sum):
    """The plan fixed every level: a key made lower is missing, refused
    before anything is charged, not dropped to."""
    ctx = BfvContext(bfv_params, seed=33)
    sched = _rotation_at_the_top(bfv_params, with_sum)
    kinds = {n.kind for n in sched.program.nodes}
    assert ("keyswitch_sum" in kinds) is with_sum
    levels = sched.rotation_steps()
    assert all(levels.limbs(s) == 3 for s in levels)
    low = ctx.make_galois_keys(RotationSteps(dict.fromkeys(levels, 2)))
    ct = ctx.encrypt(list(range(16)))
    before = Counter(ctx.counts)
    with pytest.raises(MissingEvaluationKey, match="made for 2 limb"):
        sched.run(ctx, {"x": ct}, low)
    assert ctx.counts == before


def test_a_weighted_sum_refuses_a_key_below_its_level():
    """The e2e conv's weighted giant-step sums: refused before their weight
    tables are built."""
    ctx = BfvContext(PARAMETER_SET_B, seed=b"low-conv")
    conv, _fc, rng = _e2e_layers(ctx, 2)
    levels = conv.required_rotation_steps()
    low = ctx.make_galois_keys(RotationSteps(
        {s: levels.limbs(s) - 1 for s in levels}))
    cts = ctx.encrypt_symmetric_many(
        [v.astype(np.int64) for v in conv.pack_input(
            rng.integers(0, 16, (1, 12, 12)))])
    before = Counter(ctx.counts)
    with pytest.raises(MissingEvaluationKey, match="limb"):
        conv.run((cts,), low)
    assert ctx.counts == before


def test_a_hoisted_window_sum_refuses_a_key_below_its_level(bfv_params):
    ctx = BfvContext(bfv_params, seed=35)
    low = ctx.make_galois_keys(RotationSteps({1: 2, 2: 2, 3: 2}))
    ct = ctx.encrypt(list(range(16)))
    before = Counter(ctx.counts)
    with pytest.raises(MissingEvaluationKey, match="made for 2 limb"):
        rotate_and_sum(ctx, ct, 4, low)
    assert ctx.counts == before


def test_an_ad_hoc_rotation_drops_to_its_key(bfv_params, ckks_params):
    """Outside a plan (the oracle, a probe) a ciphertext above its key's
    level is taken down to it first, charged as ``key_drops``."""
    for ctx in (BfvContext(bfv_params, seed=34),
                CkksContext(ckks_params, seed=34)):
        keys = ctx.make_galois_keys(RotationSteps({1: 1}))
        values = (np.arange(8) if ctx.params.scheme is SchemeType.BFV
                  else np.arange(8) / 8)
        ct = ctx.encrypt(ctx.encode(values))
        before = ctx.counts["key_drops"]
        out = ctx.rotate(ct, 1, keys)
        assert len(out.level_base) == 1
        assert ctx.counts["key_drops"] - before == len(ct.level_base) - 1
        got = np.real(ctx.decrypt(out))[:7]
        assert np.allclose(got, values[1:8], atol=1e-3)


def test_the_oracle_runs_on_trimmed_keys():
    """``run_reference`` runs the traced program at its unplanned levels:
    the e2e conv's giant steps rotate on all 3 limbs there, and on the
    planned keys (2 limbs) each first drops to its key."""
    ctx = BfvContext(PARAMETER_SET_B, seed=b"trimmed-oracle")
    conv, _fc, rng = _e2e_layers(ctx, 3)
    keys = ensure_galois_keys(ctx, conv.required_rotation_steps())
    assert _limb_counts(keys) == {3: 8, 2: 3}
    image = rng.integers(0, 16, (1, 12, 12))
    cts = ctx.encrypt_symmetric_many(
        [v.astype(np.int64) for v in conv.pack_input(image)])
    sched = conv.scheduled(conv.input_shape)
    before = ctx.counts["key_drops"]
    out = sched.run_reference(ctx, {"in0": cts[0]})
    assert ctx.counts["key_drops"] > before
    t = PARAMETER_SET_B.plain_modulus
    got = conv.unpack_outputs([ctx.decrypt(out["out0"])])
    assert np.array_equal(np.mod(got, t), np.mod(conv.reference(image), t))
