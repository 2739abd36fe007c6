"""Tests for multi-ciphertext (tiled) encrypted convolution."""

import numpy as np
import pytest

from repro.core.linalg import Conv2dSpec
from repro.core.tiling import TiledEncryptedConv2d, TiledLayout
from repro.hecore.bfv import BfvContext
from repro.hecore.params import PARAMETER_SET_B


def test_layout_positions():
    layout = TiledLayout(span=64, spans_per_ct=4, channels=10)
    assert layout.ciphertexts == 3
    assert layout.position(0) == (0, 0)
    assert layout.position(5) == (1, 1)
    assert layout.position(9) == (2, 1)
    with pytest.raises(IndexError):
        layout.position(10)


def _run(bfv, spec, seed):
    rng = np.random.default_rng(seed)
    weights = rng.integers(-2, 3, (spec.out_channels, spec.in_channels,
                                   spec.kernel_size, spec.kernel_size))
    image = rng.integers(0, 4, (spec.in_channels, spec.height, spec.width))
    conv = TiledEncryptedConv2d(bfv, spec, weights)
    bfv.make_galois_keys(conv.required_rotation_steps())
    cts = conv.encrypt_input(image)
    out_cts = conv(cts)
    slots = [bfv.decrypt(ct) for ct in out_cts]
    got = conv.unpack_outputs(slots)
    want = conv.reference(image)
    t = bfv.params.plain_modulus
    assert np.array_equal(np.mod(got, t), np.mod(want, t))
    return conv, cts, out_cts


def test_tiled_single_ct_matches_simple(bfv):
    """When everything fits one ciphertext, tiling degenerates cleanly."""
    conv, cts, outs = _run(bfv, Conv2dSpec(2, 2, 5, 5, 3), seed=1)
    assert len(cts) == 1 and len(outs) == 1


def test_tiled_multi_input_cts(bfv):
    # N=1024: row=512; 5x5 image, 3x3 kernel -> span 64 -> 8 spans/ct.
    # 12 input channels need 2 ciphertexts.
    conv, cts, outs = _run(bfv, Conv2dSpec(12, 2, 5, 5, 3), seed=2)
    assert len(cts) == 2 and len(outs) == 1


def test_tiled_multi_output_cts(bfv):
    conv, cts, outs = _run(bfv, Conv2dSpec(2, 12, 5, 5, 3), seed=3)
    assert len(cts) == 1 and len(outs) == 2


def test_tiled_both_directions(bfv):
    conv, cts, outs = _run(bfv, Conv2dSpec(10, 10, 5, 5, 3), seed=4)
    assert len(cts) == 2 and len(outs) == 2


def test_tiled_one_by_one_kernel(bfv):
    conv, cts, outs = _run(bfv, Conv2dSpec(9, 3, 4, 4, 1), seed=5)
    # 1x1 kernels: no redundancy, span = pow2(window) = 16 -> 32 spans/ct.
    assert conv.in_layout.span == 16


from hypothesis import given, settings
from hypothesis import strategies as st


@given(
    in_ch=st.integers(min_value=1, max_value=10),
    out_ch=st.integers(min_value=1, max_value=10),
    size=st.sampled_from([4, 5, 6]),
    kernel=st.sampled_from([1, 3]),
    seed=st.integers(min_value=0, max_value=10**6),
)
@settings(max_examples=8)
def test_tiled_conv_property(bfv, in_ch, out_ch, size, kernel, seed):
    """Property: tiled encrypted conv == plaintext conv for random shapes."""
    if kernel >= size:
        return
    spec = Conv2dSpec(in_ch, out_ch, size, size, kernel)
    rng = np.random.default_rng(seed)
    weights = rng.integers(-1, 2, (out_ch, in_ch, kernel, kernel))
    if not np.any(weights):
        weights[0, 0, 0, 0] = 1
    image = rng.integers(0, 3, (in_ch, size, size))
    conv = TiledEncryptedConv2d(bfv, spec, weights)
    bfv.make_galois_keys(conv.required_rotation_steps())
    out_cts = conv(conv.encrypt_input(image))
    got = conv.unpack_outputs([bfv.decrypt(ct) for ct in out_cts])
    t = bfv.params.plain_modulus
    assert np.array_equal(np.mod(got, t), np.mod(conv.reference(image), t))


def test_tiled_rejects_wrong_ct_count(bfv):
    spec = Conv2dSpec(12, 2, 5, 5, 3)
    conv = TiledEncryptedConv2d(bfv, spec, np.ones((2, 12, 3, 3)))
    with pytest.raises(ValueError):
        conv([bfv.encrypt([1])])


def test_tiled_rejects_oversized_window(bfv):
    # 32x32 window with redundancy cannot fit a 512-slot row at N=1024.
    spec = Conv2dSpec(1, 1, 32, 32, 3)
    with pytest.raises(ValueError):
        TiledEncryptedConv2d(bfv, spec, np.ones((1, 1, 3, 3)))


def test_tiled_no_masking_permutations(bfv):
    """Alignment stays single-rotation even across tiles."""
    spec = Conv2dSpec(10, 4, 5, 5, 3)
    rng = np.random.default_rng(6)
    weights = rng.integers(1, 3, (4, 10, 3, 3))
    conv = TiledEncryptedConv2d(bfv, spec, weights)
    bfv.make_galois_keys(conv.required_rotation_steps())
    cts = conv.encrypt_input(rng.integers(0, 3, (10, 5, 5)))
    r0, m0 = bfv.counts["rotate"], bfv.counts["multiply_plain"]
    conv(cts)
    rotations = bfv.counts["rotate"] - r0
    mults = bfv.counts["multiply_plain"] - m0
    # One weight multiply per (input-ct, rotation) term per output tile;
    # rotations are cached across output tiles.
    assert mults >= rotations
    # The 8 taps of each of the 2 input ciphertexts, plus one giant step per
    # channel shift mod the 8-span row: the tile-position differences -3..7
    # fold onto 7 non-zero rotations — never a masking permutation.
    assert rotations == 2 * 8 + 7


def test_multi_tile_giant_steps_are_weighted_keyswitch_sums():
    """The set-B 12 -> 12 conv at 12x12 (span 256: two input and two
    output tiles).  Each giant step, a masked sum over the tap rotations
    of every input tile it reads, is one weighted ``keyswitch_sum``; a warm
    run decomposes each input tile once; BFV decrypts bit-exact against
    the scheduler-off oracle and the plaintext conv."""
    ctx = BfvContext(PARAMETER_SET_B, seed=b"multi-tile")
    spec = Conv2dSpec(12, 12, 12, 12, 3)
    rng = np.random.default_rng(12)
    shape = (12, 12, 3, 3)
    conv = TiledEncryptedConv2d(
        ctx, spec, rng.integers(1, 4, shape) * rng.choice((-1, 1), shape))
    ctx.make_galois_keys(conv.required_rotation_steps())
    sched = conv.scheduled(conv.input_shape)
    program = sched.program
    live = [program.nodes[nid] for nid in sorted(program.live_set())]
    weighted = [n for n in live if n.kind == "keyswitch_sum" and n.weights()]
    giants = sum(len({shift for _, _, shift, _ in terms})
                 for terms in conv._plan)
    assert len(weighted) == giants == sched.report.weighted_sum_spans
    assert max(len(n.args) for n in weighted) == conv.input_shape[0] == 2
    assert not [n for n in live if n.kind in ("mul", "add")]

    image = rng.integers(0, 16, (12, 12, 12))
    cts = ctx.encrypt_symmetric_many(
        [v.astype(np.int64) for v in conv.pack_input(image)])
    inputs = {f"in{i}": ct for i, ct in enumerate(cts)}
    sched.run(ctx, inputs)                      # fill the weight tables
    before = ctx.counts.copy()
    got = sched.run(ctx, inputs)
    assert ctx.counts["hoisted_decompose"] - before["hoisted_decompose"] \
        == len(cts)
    # Each sum charges the adds of the tree it replaces: the oracle's.
    adds = ctx.counts["add"] - before["add"]
    before = ctx.counts.copy()
    want = sched.run_reference(ctx, inputs)
    assert adds == ctx.counts["add"] - before["add"] == 277
    for name in want:
        assert np.array_equal(ctx.decrypt(got[name]), ctx.decrypt(want[name]))
    t = ctx.params.plain_modulus
    slots = [ctx.decrypt(got[f"out{i}"]) for i in range(len(got))]
    assert np.array_equal(np.mod(conv.unpack_outputs(slots), t),
                          np.mod(conv.reference(image), t))
