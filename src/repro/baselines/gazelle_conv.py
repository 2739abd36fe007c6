"""A functional Gazelle-style convolution (the server-optimized baseline).

Gazelle [36] packs inputs *without* rotational redundancy — channels occupy
tight power-of-two spans with no margins — so aligning a filter tap is an
arbitrary windowed permutation: two full rotations plus two masking
multiplies per tap (Figure 4A).  The computation is correct but burns
roughly ``log2(t)`` bits of noise budget per tap instead of ~2, which is
why this baseline needs SEAL's larger default parameters (§5.5's "standard
permutations and default parameter selections").

Implemented for single-channel-group convolutions; used by the ablation
benchmarks to measure the *real* noise gap between the two algorithms on an
identical layer.
"""

from __future__ import annotations

from typing import Set

import numpy as np

from repro.core.linalg import Conv2dSpec, _encode_vector, row_slot_count
from repro.core.permute import required_rotation_steps, windowed_rotation_masked
from repro.core.tiling import TiledEncryptedConv2d
from repro.hecore.modmath import next_power_of_two


class GazelleStyleConv2d:
    """Encrypted convolution via masked permutations (no redundancy).

    Single input channel, multiple output channels in one ciphertext; the
    window is the tight ``pow2(H*W)`` span.  Each tap's alignment uses the
    Figure 4A masked windowed rotation.
    """

    def __init__(self, ctx, spec: Conv2dSpec, weights: np.ndarray):
        if spec.in_channels != 1:
            raise ValueError("the baseline demo covers one input channel")
        weights = np.asarray(weights)
        if weights.shape != (spec.out_channels, 1,
                             spec.kernel_size, spec.kernel_size):
            raise ValueError(f"bad weight shape {weights.shape}")
        self.ctx = ctx
        self.spec = spec
        self.weights = weights
        self.window = spec.height * spec.width
        self.span = next_power_of_two(self.window)       # NO redundancy margins
        row = row_slot_count(ctx)
        if spec.out_channels * self.span > row:
            raise ValueError("layer does not fit one rotating row")

    def pack_input(self, image: np.ndarray) -> np.ndarray:
        row = row_slot_count(self.ctx)
        out = np.zeros(row)
        out[: self.window] = image[0].ravel()
        return out

    def required_rotation_steps(self) -> Set[int]:
        steps = set()
        for dy, dx in self.spec.taps:
            delta = self.spec.tap_offset(dy, dx) % self.window
            steps.update(required_rotation_steps(delta, self.window))
        # Output-channel placement rotations.
        for o in range(1, self.spec.out_channels):
            steps.add(-(o * self.span))
        return {s for s in steps if s}

    def __call__(self, ct, galois_keys=None):
        """Evaluate; every tap alignment is an arbitrary masked permutation."""
        ctx = self.ctx
        spec = self.spec
        acc = None
        for o in range(spec.out_channels):
            channel_acc = None
            for dy, dx in spec.taps:
                w = self.weights[o, 0, dy + spec.pad, dx + spec.pad]
                if not w:
                    continue
                delta = spec.tap_offset(dy, dx) % self.window
                aligned = windowed_rotation_masked(
                    ctx, ct, delta, 0, self.window, galois_keys)
                mask = np.zeros(row_slot_count(ctx))
                mask[: self.window] = w
                term = ctx.multiply_plain(
                    aligned, _encode_vector(ctx, mask, aligned))
                channel_acc = term if channel_acc is None else ctx.add(channel_acc, term)
            if channel_acc is None:
                continue
            if o:
                channel_acc = ctx.rotate(channel_acc, -(o * self.span),
                                         galois_keys)
            acc = channel_acc if acc is None else ctx.add(acc, channel_acc)
        if acc is None:
            raise ValueError("convolution has no non-zero weights")
        return acc

    def unpack_outputs(self, slots: np.ndarray) -> np.ndarray:
        spec = self.spec
        p = spec.pad
        out = np.zeros((spec.out_channels, spec.out_height, spec.out_width),
                       dtype=np.asarray(slots).dtype)
        for o in range(spec.out_channels):
            grid = np.asarray(
                slots[o * self.span: o * self.span + self.window]
            ).reshape(spec.height, spec.width)
            out[o] = grid[p: spec.height - p, p: spec.width - p]
        return out

    reference = TiledEncryptedConv2d.reference
