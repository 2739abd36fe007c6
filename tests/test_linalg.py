"""Tests for encrypted convolution and matrix-vector products.

The conv tests here are one-ciphertext layers: the one-tile case of
:class:`repro.core.tiling.TiledEncryptedConv2d` (``tests/test_tiling.py``
covers layers of several tiles)."""

import numpy as np
import pytest

from repro.core.ir import ScheduleError, TracedKernel, _program_digest
from repro.core.linalg import (
    BsgsMatVec,
    Conv2dSpec,
    EncryptedMatVec,
    _window_sum,
)
from repro.core.tiling import TiledEncryptedConv2d
from repro.hecore.keys import MissingEvaluationKey


def test_conv_spec_properties():
    spec = Conv2dSpec(in_channels=2, out_channels=3, height=6, width=6, kernel_size=3)
    assert spec.pad == 1
    assert spec.out_height == spec.out_width == 4
    assert len(spec.taps) == 9
    assert spec.max_tap_offset == 7
    assert spec.macs == 4 * 4 * 3 * 2 * 9


def test_conv_spec_rejects_even_kernel():
    with pytest.raises(ValueError):
        Conv2dSpec(1, 1, 4, 4, 2)


def _run_conv(bfv, spec, seed=0):
    rng = np.random.default_rng(seed)
    weights = rng.integers(-2, 3, (spec.out_channels, spec.in_channels,
                                   spec.kernel_size, spec.kernel_size))
    image = rng.integers(0, 4, (spec.in_channels, spec.height, spec.width))
    conv = TiledEncryptedConv2d(bfv, spec, weights)
    bfv.make_galois_keys(conv.required_rotation_steps())
    (packed,) = conv.pack_input(image)
    ct = bfv.encrypt(packed.astype(np.int64))
    (out_ct,) = conv([ct])
    got = conv.unpack_outputs([bfv.decrypt(out_ct)])
    want = conv.reference(image)
    t = bfv.params.plain_modulus
    assert np.array_equal(np.mod(got, t), np.mod(want, t))


def test_encrypted_conv_single_channel(bfv):
    _run_conv(bfv, Conv2dSpec(1, 1, 6, 6, 3), seed=1)


def test_encrypted_conv_multi_in_channel(bfv):
    _run_conv(bfv, Conv2dSpec(3, 1, 5, 5, 3), seed=2)


def test_encrypted_conv_multi_out_channel(bfv):
    _run_conv(bfv, Conv2dSpec(1, 3, 5, 5, 3), seed=3)


def test_encrypted_conv_general(bfv):
    _run_conv(bfv, Conv2dSpec(2, 2, 5, 5, 3), seed=4)


def test_conv_uses_no_masking_multiplies(bfv):
    """Rotational redundancy: one multiply per (shift, tap), zero masks."""
    spec = Conv2dSpec(1, 1, 5, 5, 3)
    weights = np.ones((1, 1, 3, 3), dtype=np.int64)
    conv = TiledEncryptedConv2d(bfv, spec, weights)
    bfv.make_galois_keys(conv.required_rotation_steps())
    ct = bfv.encrypt(conv.packing.pack([np.arange(25)]).astype(np.int64))
    r0, m0 = bfv.counts["rotate"], bfv.counts["multiply_plain"]
    conv([ct])
    assert bfv.counts["multiply_plain"] - m0 == 9       # one per tap
    assert bfv.counts["rotate"] - r0 == 8               # all taps but delta=0


def test_conv_rejects_bad_weight_shape(bfv):
    spec = Conv2dSpec(1, 1, 5, 5, 3)
    with pytest.raises(ValueError):
        TiledEncryptedConv2d(bfv, spec, np.ones((1, 2, 3, 3)))


def test_matvec_square(bfv):
    rng = np.random.default_rng(5)
    matrix = rng.integers(-3, 4, (8, 8))
    vector = rng.integers(0, 5, 8)
    mv = EncryptedMatVec(bfv, matrix)
    bfv.make_galois_keys(mv.required_rotation_steps())
    ct = bfv.encrypt(mv.pack_input(vector).astype(np.int64))
    got = mv.unpack_output(bfv.decrypt(mv(ct)))
    t = bfv.params.plain_modulus
    assert np.array_equal(np.mod(got, t), np.mod(mv.reference(vector), t))


def test_matvec_rectangular(bfv):
    rng = np.random.default_rng(6)
    matrix = rng.integers(-2, 3, (3, 7))
    vector = rng.integers(0, 4, 7)
    mv = EncryptedMatVec(bfv, matrix)
    bfv.make_galois_keys(mv.required_rotation_steps())
    ct = bfv.encrypt(mv.pack_input(vector).astype(np.int64))
    got = mv.unpack_output(bfv.decrypt(mv(ct)))
    t = bfv.params.plain_modulus
    assert np.array_equal(np.mod(got, t), np.mod(mv.reference(vector), t))


def test_bsgs_matvec_matches_plain_diagonal(bfv):
    rng = np.random.default_rng(8)
    matrix = rng.integers(-3, 4, (8, 8))
    vector = rng.integers(0, 5, 8)
    plain = EncryptedMatVec(bfv, matrix)
    bsgs = BsgsMatVec(bfv, matrix)
    bfv.make_galois_keys(plain.required_rotation_steps()
                         | bsgs.required_rotation_steps())
    ct = bfv.encrypt(bsgs.pack_input(vector).astype(np.int64))
    t = bfv.params.plain_modulus
    got = bsgs.unpack_output(bfv.decrypt(bsgs(ct)))
    want = plain.unpack_output(bfv.decrypt(plain(ct)))
    assert np.array_equal(np.mod(got, t), np.mod(want, t))
    assert np.array_equal(np.mod(got, t), np.mod(bsgs.reference(vector), t))


def test_bsgs_matvec_rectangular(bfv):
    rng = np.random.default_rng(9)
    matrix = rng.integers(-2, 3, (5, 9))
    vector = rng.integers(0, 4, 9)
    mv = BsgsMatVec(bfv, matrix)
    bfv.make_galois_keys(mv.required_rotation_steps())
    ct = bfv.encrypt(mv.pack_input(vector).astype(np.int64))
    t = bfv.params.plain_modulus
    got = mv.unpack_output(bfv.decrypt(mv(ct)))
    assert np.array_equal(np.mod(got, t), np.mod(mv.reference(vector), t))


def test_bsgs_needs_fewer_rotation_keys(bfv):
    matrix = np.ones((16, 16))
    plain = EncryptedMatVec(bfv, matrix)
    bsgs = BsgsMatVec(bfv, matrix)
    assert len(bsgs.required_rotation_steps()) < len(plain.required_rotation_steps())
    # ~2 sqrt(d) vs d - 1.
    assert len(bsgs.required_rotation_steps()) <= 2 * 4
    assert len(plain.required_rotation_steps()) == 15


def test_bsgs_fewer_online_rotations(bfv):
    rng = np.random.default_rng(10)
    matrix = rng.integers(1, 3, (16, 16))
    vector = rng.integers(0, 3, 16)
    plain = EncryptedMatVec(bfv, matrix)
    bsgs = BsgsMatVec(bfv, matrix)
    bfv.make_galois_keys(plain.required_rotation_steps()
                         | bsgs.required_rotation_steps())
    ct = bfv.encrypt(bsgs.pack_input(vector).astype(np.int64))

    r0 = bfv.counts["rotate"]
    plain(ct)
    plain_rotations = bfv.counts["rotate"] - r0
    r0 = bfv.counts["rotate"]
    bsgs(ct)
    bsgs_rotations = bfv.counts["rotate"] - r0
    assert bsgs_rotations < plain_rotations
    t = bfv.params.plain_modulus
    got = bsgs.unpack_output(bfv.decrypt(bsgs(ct)))
    assert np.array_equal(np.mod(got, t), np.mod(bsgs.reference(vector), t))


def test_matvec_rejects_zero_matrix(bfv):
    mv = EncryptedMatVec(bfv, np.zeros((4, 4)))
    ct = bfv.encrypt(mv.pack_input(np.arange(4)).astype(np.int64))
    with pytest.raises(ValueError):
        mv(ct)


class _LoopMasks:
    """The per-element diagonal builder the vectorised one replaced.

    Re-recorded with the hybrid-diagonal fc: a 10 x 64 ``BsgsMatVec`` is
    covered by ``diagonals = 16`` extended diagonals, so the row index is
    ``i mod diagonals`` (``diagonals == dim`` for ``EncryptedMatVec``), and
    the giant pre-roll is the shared helper's ``np.roll``, no longer a mask
    builder of the kernel's.
    """

    def _diagonal(self, j):
        d, r = self.dim, self.diagonals
        return np.array([self._square[i % r, (i + j) % d] for i in range(d)])


@pytest.mark.parametrize("cls", [EncryptedMatVec, BsgsMatVec])
def test_vectorised_masks_leave_the_program_digest_alone(bfv, cls):
    """Bit-identical masks: every cache key and golden plan stays put."""
    matrix = np.random.default_rng(9).integers(-3, 4, (10, 64))
    loops = type("Loops", (_LoopMasks, cls), {})
    fast, slow = (kernel(bfv, matrix).program((1,)) for kernel in (cls, loops))
    assert (_program_digest(fast, bfv.params, False)
            == _program_digest(slow, bfv.params, False))


class _WindowSum(TracedKernel):
    """The smallest kernel there is: one window sum."""

    def __init__(self, ctx, width):
        super().__init__(ctx)
        self.width = width

    def _body(self, ev, cts):
        return _window_sum(ev, cts[0], self.width)


def test_rotate_and_accumulate(bfv):
    """A traced window sum needs the key of every step it rotates by, read
    off the trace: the power-of-two ladder alone is refused by name, not
    summed some other way."""
    width = 8
    kernel = _WindowSum(bfv, width)
    assert kernel.required_rotation_steps() == set(range(1, width))
    values = np.zeros(bfv.params.poly_degree, dtype=np.int64)
    values[:width] = np.arange(1, width + 1)
    values[width: 2 * width] = 10
    groups = ([bfv.encrypt(values)],)
    ladder = bfv.keygen.galois_keys([1, 2, 4])
    with pytest.raises(MissingEvaluationKey):
        kernel.run(groups, galois_keys=ladder)
    bfv.make_galois_keys(kernel.required_rotation_steps())
    (ct,) = kernel.run(groups)
    out = bfv.decrypt(ct)
    assert out[0] == np.arange(1, width + 1).sum()
    assert out[width] == 10 * width


def test_rotate_and_accumulate_rejects_non_pow2(bfv):
    """Refused when the body is traced, not at execution."""
    with pytest.raises(ScheduleError):
        _WindowSum(bfv, 6).required_rotation_steps()


def test_ckks_conv(ckks):
    """The same convolution machinery runs under CKKS."""
    spec = Conv2dSpec(1, 1, 5, 5, 3)
    rng = np.random.default_rng(7)
    weights = rng.uniform(-1, 1, (1, 1, 3, 3))
    image = rng.uniform(0, 1, (1, 5, 5))
    conv = TiledEncryptedConv2d(ckks, spec, weights)
    ckks.make_galois_keys(conv.required_rotation_steps())
    ct = ckks.encrypt(conv.pack_input(image)[0])
    (out_ct,) = conv([ct])
    got = conv.unpack_outputs([np.real(ckks.decrypt(out_ct))])
    assert np.allclose(got, conv.reference(image), atol=0.05)
