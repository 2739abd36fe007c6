"""The linear layers' rotation bases: taps x shifts conv, hybrid-diagonal fc.

A kernel's Galois-key bill is read off its traced body, so these tests pin
the factorings from both sides: every answer stays exact (against the
plaintext ``reference()`` and the naive oracle over the same trace), and the
key sets are sums of baby and giant steps, never products.
"""

import itertools
import math
import types
from dataclasses import replace

import numpy as np
import pytest

from repro.core.distance import KERNEL_VARIANTS, DistanceProblem
from repro.core.ir import IrProgram, _program_digest, ensure_galois_keys
from repro.core.linalg import BsgsMatVec, Conv2dSpec
from repro.core.tiling import TiledEncryptedConv2d
from repro.hecore.bfv import BfvContext
from repro.hecore.keys import galois_element_for_step
from repro.hecore.noise import NoiseEstimator
from repro.hecore.params import (
    PARAMETER_SET_B,
    SchemeType,
    small_test_parameters,
)
from repro.hecore.primes import generate_ntt_primes
from tests.test_ir import _named


def _conv_weights(rng, spec, zeroed, draw):
    weights = draw(rng, (spec.out_channels, spec.in_channels,
                         spec.kernel_size, spec.kernel_size))
    if zeroed:
        weights[:, :, 0, 1] = 0         # a whole tap: one baby step fewer
        weights[0, -1] = 0              # a whole (output, input) channel pair
        weights[-1, 0, 2, 2] = 0
    return weights


def _tiled_conv(ctx, spec, weights, image):
    conv = TiledEncryptedConv2d(ctx, spec, weights)
    return conv, conv.pack_input(image), conv.unpack_outputs


def _single_ct_conv(ctx, spec, weights, image):
    """The one-tile case, held to the single-ciphertext plan: one rotation
    per tap offset and one per channel shift ``j * span`` that carries a
    weight, ``j = (c_in - c_out) mod`` the spans a row holds — a shift and
    its wrap-around are one rotation of the row."""
    conv, packed, unpack = _tiled_conv(ctx, spec, weights, image)
    assert conv.input_shape == (1,) and conv.out_layout.ciphertexts == 1
    n, span = ctx.params.poly_degree, conv.packing.layout.span
    spans = n // 2 // span
    p = spec.pad
    taps = {spec.tap_offset(dy, dx) for dy, dx in spec.taps
            if np.any(weights[:, :, dy + p, dx + p])}
    shifts = {int(c - o) % spans * span
              for o, c in zip(*np.nonzero(np.any(weights, axis=(2, 3))))}
    program = conv.program(conv.input_shape)
    assert (sum(node.kind == "rotate" for node in program.nodes)
            == len((taps | shifts) - {0}))
    assert ({galois_element_for_step(s, n) for s in program.rotation_steps()}
            == {galois_element_for_step(s, n) for s in (taps | shifts) - {0}})
    return conv, packed, unpack


def _assert_taps_plus_shifts(conv, spec):
    """Every key is a tap offset or a span-aligned channel shift."""
    span = conv.packing.layout.span
    steps = conv.required_rotation_steps()
    taps = {s for s in steps if abs(s) <= spec.max_tap_offset}
    assert all(s % span == 0 for s in steps - taps)
    assert len(taps) <= spec.kernel_size ** 2 - 1


# 5x5: span 64, eight channels a ciphertext.  12x12: span 256, two a
# ciphertext — up to two input and three output tiles.  The 5x5 layers are
# one tile, so ``_single_ct_conv`` holds them to the single-ciphertext plan
# too.
CONV_CASES = [
    (build, size, cin, cout, zeroed)
    for build, sizes in ((_single_ct_conv, (5,)), (_tiled_conv, (5, 12)))
    for size, cin, cout, zeroed in itertools.product(
        sizes, (1, 2, 3), (1, 4, 5), (False, True))
]


@pytest.mark.parametrize(
    "build,size,cin,cout,zeroed", CONV_CASES,
    ids=[f"{b.__name__.strip('_')}-{s}x{s}-{i}to{o}{'-zeroed' if z else ''}"
         for b, s, i, o, z in CONV_CASES])
def test_bfv_conv_is_bit_exact(bfv, build, size, cin, cout, zeroed):
    spec = Conv2dSpec(cin, cout, size, size, 3)
    rng = np.random.default_rng([size, cin, cout, zeroed])
    weights = _conv_weights(rng, spec, zeroed,
                            lambda r, shape: r.integers(-2, 3, shape))
    weights[0, 0, 1, 1] = weights[-1, -1, 1, 1] = 1    # no all-zero tile
    image = rng.integers(0, 4, (cin, size, size))
    conv, packed, unpack = build(bfv, spec, weights, image)
    assert len(packed) == conv.input_shape[0]
    _assert_taps_plus_shifts(conv, spec)
    ensure_galois_keys(bfv, conv.required_rotation_steps())
    cts = bfv.encrypt_many([v.astype(np.int64) for v in packed])
    outs = conv.run((cts,))
    naive = conv.scheduled(conv.input_shape).run_reference(bfv, _named(cts))
    t = bfv.params.plain_modulus
    want = np.mod(conv.reference(image), t)
    assert np.array_equal(np.mod(unpack(bfv.decrypt_many(outs)), t), want)
    assert np.array_equal(
        np.mod(unpack(bfv.decrypt_many(list(naive.values()))), t), want)


@pytest.mark.parametrize("build", [_single_ct_conv, _tiled_conv])
@pytest.mark.parametrize("cin,cout,zeroed", [(1, 4, False), (3, 5, True),
                                             (2, 1, True)])
def test_ckks_conv_within_tolerance(ckks, build, cin, cout, zeroed):
    spec = Conv2dSpec(cin, cout, 5, 5, 3)
    rng = np.random.default_rng([cin, cout, zeroed])
    weights = _conv_weights(rng, spec, zeroed,
                            lambda r, shape: r.uniform(-1, 1, shape))
    image = rng.uniform(0, 1, (cin, 5, 5))
    conv, packed, unpack = build(ckks, spec, weights, image)
    _assert_taps_plus_shifts(conv, spec)
    ensure_galois_keys(ckks, conv.required_rotation_steps())
    cts = ckks.encrypt_many(packed)
    got = unpack([np.real(v) for v in ckks.decrypt_many(conv.run((cts,)))])
    assert np.allclose(got, conv.reference(image), atol=0.05)


# (parameters, channels in = out, image side) -> rotate nodes: the 8 taps
# per input tile plus, per output tile, one giant step per non-zero channel
# shift mod the row.  8 -> 8 at 12x12, set B (8 spans of 256 in a 2048-slot
# row) is one tile whose 15 shift values are 8 rotations of the row: 8 + 7.
# 12 -> 12 there, and 10 -> 10 at 5x5 on the N = 1024 fixture (8 spans of
# 64), are two tiles each way: 2 * 8 + 2 * 7.
GIANT_ROTATION_CASES = [("B", 8, 12, 15), ("B", 12, 12, 30),
                        ("fixture", 10, 5, 30)]


@pytest.mark.parametrize("params,channels,size,rotations",
                         GIANT_ROTATION_CASES)
def test_conv_pays_one_giant_rotation_per_galois_element(
        bfv_params, params, channels, size, rotations):
    params = PARAMETER_SET_B if params == "B" else bfv_params
    spec = Conv2dSpec(channels, channels, size, size, 3)
    conv = TiledEncryptedConv2d(types.SimpleNamespace(params=params), spec,
                                np.ones((channels, channels, 3, 3), int))
    program = conv.program(conv.input_shape)
    assert sum(node.kind == "rotate" for node in program.nodes) == rotations
    n = params.poly_degree
    elements = {galois_element_for_step(s, n) for s in program.rotation_steps()}
    assert len(elements) == len(program.rotation_steps())


# (n_out, n_in) -> extended diagonals r: 2^ceil(log2 n_out) when d / r is a
# power of two, the square form r = d otherwise.
FC_CASES = {(1, 64): 1, (10, 64): 16, (16, 64): 16, (10, 48): 48,
            (64, 10): 64, (64, 64): 64}


@pytest.mark.parametrize("shape", sorted(FC_CASES))
def test_hybrid_fc_is_bit_exact_with_a_summed_key_bill(bfv, shape):
    rng = np.random.default_rng(shape)
    kernel = BsgsMatVec(bfv, rng.integers(1, 4, shape)
                        * rng.choice((-1, 1), shape))
    d, r = max(shape), FC_CASES[shape]
    b, g = kernel.baby_count, kernel.giant_count
    assert (kernel.dim, kernel.diagonals) == (d, r)
    assert b * g >= r > b * (g - 1) and abs(b - g) <= 2
    steps = kernel.required_rotation_steps()
    assert len(steps) == (b - 1) + (g - 1) + int(math.log2(d // r))
    assert kernel.program((1,)).rotation_steps() == steps
    ensure_galois_keys(bfv, steps)
    vec = rng.integers(0, 8, shape[1])
    ct = bfv.encrypt(kernel.pack_input(vec).astype(np.int64))
    naive = kernel.scheduled((1,)).run_reference(bfv, _named([ct]))["out0"]
    t = bfv.params.plain_modulus
    want = np.mod(kernel.reference(vec), t)
    for out in (kernel(ct), naive):
        assert np.array_equal(
            np.mod(kernel.unpack_output(bfv.decrypt(out)), t), want)


#: The e2e DNN slice (``dnn_cold_sessions``): conv 1 -> 4 at 12x12, fc 10x64.
E2E_CONV = Conv2dSpec(in_channels=1, out_channels=4, height=12, width=12,
                      kernel_size=3)


def _e2e_layers(ctx, seed):
    """The e2e conv and fc under draw *seed* of the e2e benchmark's weight
    range, and the generator the draw leaves behind."""
    rng = np.random.default_rng([seed, 0xD77])

    def draw(shape):
        return rng.integers(1, 4, shape) * rng.choice((-1, 1), shape)

    return (TiledEncryptedConv2d(ctx, E2E_CONV, draw((4, 1, 3, 3))),
            BsgsMatVec(ctx, draw((10, 64))), rng)


def test_e2e_layers_keep_a_noise_floor_at_set_b():
    """Rotating after the weight multiplies (3 giant steps in the conv, 3 +
    2 fold steps in the fc) spends budget the one-rotation-per-term bodies
    kept: 6-7 bits left after the e2e conv (was 8-9) and 4-5 after the fc
    (was 6), over 20 draws of the e2e benchmark's weight range, each run
    as served: planned, its result on 2 limbs.  The estimator, reading the
    program that runs, stays on the safe side of every measurement."""
    ctx = BfvContext(PARAMETER_SET_B, seed=b"rotation-bases")
    estimator = NoiseEstimator(PARAMETER_SET_B)
    for seed in range(20):
        conv, fc, rng = _e2e_layers(ctx, seed)
        ensure_galois_keys(ctx, conv.required_rotation_steps(),
                           fc.required_rotation_steps())
        image, vec = rng.integers(0, 16, (1, 12, 12)), rng.integers(0, 8, 64)
        conv_cts = ctx.encrypt_symmetric_many(
            [v.astype(np.int64) for v in conv.pack_input(image)])
        fc_cts = ctx.encrypt_symmetric_many(
            [fc.pack_input(vec).astype(np.int64)])
        for kernel, cts, floor in ((conv, conv_cts, 5), (fc, fc_cts, 4)):
            (out,) = kernel.run((cts,))
            measured = ctx.noise_budget(out)
            assert measured >= floor, (seed, type(kernel).__name__, measured)
            predicted = estimator.budget_after(
                kernel.scheduled(kernel.input_shape).program
            )["out0"].budget_bits
            assert predicted <= measured


# The e2e DNN layers' programs under draw 0 of ``_e2e_layers`` at set B,
# ``_program_digest(kernel.program(kernel.input_shape), params, True).hex()``
# recorded before the single-ciphertext conv became the one-tile case of
# the tiled kernel: the conv's shifts of -256 / -512 / -768 already lie in
# ``(-row/2, row/2]``, so its program did not move.  Re-recorded when
# ``IrNode`` lost its ``width`` field (the ``rotate_sum`` kind's): the
# digest hashes every node field, so every digest moved with no node.
DNN_DIGESTS = {
    "conv": "bb7f044614c8a845e3abe5776e8c0cf10b4771e6bd2dd8a1fa8d2008709f13d7",
    "fc": "db07446fa24ba894345fae0fb109f1c0f7500276f69ca76a7a03be69ef46d519",
}


@pytest.mark.parametrize("layer", sorted(DNN_DIGESTS))
def test_dnn_workload_programs_did_not_move(layer):
    conv, fc, _ = _e2e_layers(types.SimpleNamespace(params=PARAMETER_SET_B), 0)
    kernel = {"conv": conv, "fc": fc}[layer]
    program = kernel.program(kernel.input_shape)
    assert (_program_digest(program, PARAMETER_SET_B, True).hex()
            == DNN_DIGESTS[layer])


# ``_program_digest(kernel.program(kernel.input_shape), params, True).hex()``,
# re-recorded when every ct x ct ``mul`` began to trace as ``mul`` + ``relin``
# (each square gained a node; nothing else moved).  UNSPLIT_KNN_DIGESTS are
# the same programs with their ``relin`` nodes deleted and re-indexed: the
# digests recorded when key switching moved to one derived special prime
# (the parameter fingerprint moved).  FORMER_KNN_DIGESTS were recorded at
# the parent of the taps x shifts / hybrid-diagonal change, under the former
# fingerprint: base prime the largest 30-bit NTT prime, two special primes
# below it.  All three tables were re-recorded when ``IrNode`` lost its
# ``width`` field (every node's hashed fields moved) and the window sums of
# collapsed and stacked-point began to trace as plain rotations and adds;
# UNSPLIT and FORMER still pin the same two transformations (``relin``
# nodes deleted, the former fingerprint) of today's programs.
KNN_DIGESTS = {
    "collapsed":
        "16ca17148362dac456b7a277e782477d2d6ae07672c97407c3be2cad4b2957d1",
    "dimension-major":
        "b4f1e6f8a932f9dc87ecbdb96ebb4fafe04461855a41fbbfc4cb1e340770d93c",
    "stacked-point":
        "572fb124eba2cf9a1fe9db2a0119737a9b009b25d7049abdf971a5876dc243ee",
}
UNSPLIT_KNN_DIGESTS = {
    "collapsed":
        "b075b9003c2944408beb9a842585781393c9c3a981a994c36c98ef979e4771b1",
    "dimension-major":
        "9b4d5f07dbf03589c70c7b104e0aa9f359c58a34a59bb097e37b323e2ba8848c",
    "stacked-point":
        "b96edc6be1ac5359c319a621313cd215d51766f22a71be3e818efcbd4d05acfc",
}
FORMER_KNN_DIGESTS = {
    "collapsed":
        "cd6d16c629ee8abb69af32c8a369ee7c21b43630bf65b499358c7129a2e178f5",
    "dimension-major":
        "6c038deeb015bfed15b55133d3f0a13c94c31af12dfb1016536ae3d18c12eacf",
    "stacked-point":
        "a7a7ce6e84bbad2bd35681952df6551847bc2febf5bf752a8ed55b0a4ba35bd2",
}


def _without_relins(program: IrProgram) -> IrProgram:
    """*program* with every ``relin`` node deleted and its consumers
    pointed at the product it relinearised, node ids re-indexed."""
    new_id, out = {}, IrProgram(slots=program.slots)
    for nid, node in enumerate(program.nodes):
        if node.kind == "relin":
            new_id[nid] = new_id[node.args[0]]
            continue
        out.nodes.append(replace(
            node, args=tuple(new_id[a] for a in node.args),
            terms=tuple((s, new_id[c]) for s, c in node.terms)))
        new_id[nid] = len(out.nodes) - 1
    out.outputs = {name: new_id[nid] for name, nid in program.outputs.items()}
    return out


@pytest.mark.parametrize("variant", sorted(KNN_DIGESTS))
def test_knn_workload_programs_did_not_move(variant):
    """The e2e KNN workloads (64 x 16, CKKS N = 4096, 3 x 30 bits) trace the
    programs they traced before the shared baby/giant helper existed: the
    collapse round keeps its own body, so their schedules, key sets and
    cache keys are the parent's.  With the ``relin`` nodes of the split
    multiply deleted they hash to what they hashed before the split, and
    under the former parameter fingerprint to the former digests: only the
    ``relin`` nodes and the parameter half moved."""
    params = small_test_parameters(SchemeType.CKKS, 4096,
                                   data_bits=(30, 30, 30))
    kernel = KERNEL_VARIANTS[variant](
        types.SimpleNamespace(params=params),
        DistanceProblem(n_points=64, dims=16))
    program = kernel.program(kernel.input_shape)
    assert _program_digest(program, params, True).hex() == KNN_DIGESTS[variant]
    unsplit = _without_relins(program)
    assert sum(n.kind == "relin" for n in program.nodes) == (
        len(program.nodes) - len(unsplit.nodes)) > 0
    assert (_program_digest(unsplit, params, True).hex()
            == UNSPLIT_KNN_DIGESTS[variant])

    top = generate_ntt_primes(30, 3, 4096)
    scheme, n, t, scale_bits, data, _special = params.fingerprint()
    former = types.SimpleNamespace(fingerprint=lambda: (
        scheme, n, t, scale_bits, (top[0],) + data[1:], tuple(top[1:])))
    assert (_program_digest(unsplit, former, True).hex()
            == FORMER_KNN_DIGESTS[variant])
