"""Encrypted convolution over channel-tiled ciphertexts (§3.3).

Input channels are packed redundantly into power-of-two spans, as many a
ciphertext as one rotating row holds, so every filter tap is a **single**
ciphertext rotation by ``delta`` and every channel alignment a single
rotation by a whole number of spans, with one plaintext weight multiply
per (shift, tap) pair between them — no masking multiplies, no arbitrary
permutations.  That is the paper's "convolution with optimal
multiplication efficiency"; factoring the alignment as taps (baby steps)
x shifts (giant steps) keeps the client's Galois-key bill at taps + shifts.

Layout: input channels are packed ``spans_per_ct`` at a time into a list of
ciphertexts; output channels likewise.  For an output tile position ``p_out``
receiving input channel at tile position ``p_in`` of input ciphertext ``i``,
the server rotates ciphertext ``i`` by the tap offset ``delta``,
weight-multiplies, and rotates the per-shift sum by ``(p_in - p_out) * span``
taken mod the row, in ``(-row/2, row/2]``; cross-tile channel reductions are
plain ciphertext adds.  A layer that fits one ciphertext is the one-tile
case: one input and one output ciphertext.

Boundary semantics are client-aided: rotations are circular within each
redundant window, so the server computes *valid* convolution outputs at
interior positions; the client discards everything else when unpacking and
re-pads when packing the next layer's input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.ir import TracedKernel
from repro.core.linalg import Conv2dSpec, _baby_giant_sums, row_slot_count
from repro.core.packing import RedundantPacking


@dataclass(frozen=True)
class TiledLayout:
    """How a channel list maps onto a list of ciphertexts."""

    span: int
    spans_per_ct: int
    channels: int

    @property
    def ciphertexts(self) -> int:
        return math.ceil(self.channels / self.spans_per_ct)

    def position(self, channel: int) -> Tuple[int, int]:
        """(ciphertext index, tile position) of *channel*."""
        if not 0 <= channel < self.channels:
            raise IndexError(f"channel {channel} out of range")
        return divmod(channel, self.spans_per_ct)


class TiledEncryptedConv2d(TracedKernel):
    """Encrypted convolution over channel-tiled ciphertext lists."""

    #: Every convolution goes back to the client for the nonlinearity.
    terminal_outputs = True

    def __init__(self, ctx, spec: Conv2dSpec, weights: np.ndarray):
        weights = np.asarray(weights)
        if weights.shape != (spec.out_channels, spec.in_channels,
                             spec.kernel_size, spec.kernel_size):
            raise ValueError(f"bad weight shape {weights.shape}")
        super().__init__(ctx)
        self.spec = spec
        self.weights = weights
        row = row_slot_count(ctx)
        window = spec.height * spec.width
        redundancy = spec.max_tap_offset
        span = 1 << max(0, (window + 2 * redundancy - 1)).bit_length()
        if span > row:
            raise ValueError(f"one channel needs {span} slots; row has {row}")
        spans_per_ct = row // span
        self.packing = RedundantPacking(window=window, redundancy=redundancy,
                                        count=spans_per_ct)
        self.in_layout = TiledLayout(span, spans_per_ct, spec.in_channels)
        self.out_layout = TiledLayout(span, spans_per_ct, spec.out_channels)
        self.input_shape = (self.in_layout.ciphertexts,)
        self._plan = self._build_plan()

    # ------------------------------------------------------------- packing
    def pack_input(self, image: np.ndarray) -> List[np.ndarray]:
        """(C_in, H, W) image -> one redundant slot vector per ciphertext."""
        if image.shape != (self.spec.in_channels, self.spec.height,
                           self.spec.width):
            raise ValueError(f"bad image shape {image.shape}")
        vectors = []
        per = self.in_layout.spans_per_ct
        for lo in range(0, self.spec.in_channels, per):
            hi = min(lo + per, self.spec.in_channels)
            channels = [image[c].ravel() for c in range(lo, hi)]
            vectors.append(self.packing.pack(channels))
        return vectors

    def encrypt_input(self, image: np.ndarray):
        return self.ctx.encrypt_many(
            [v.astype(self._dtype()) for v in self.pack_input(image)])

    def _dtype(self):
        from repro.hecore.params import SchemeType

        return np.int64 if self.ctx.params.scheme is SchemeType.BFV else np.float64

    # ------------------------------------------------------------ planning
    def _build_plan(self) -> List[List[Tuple[int, int, int, np.ndarray]]]:
        """Per output ciphertext, its (in-ct index, tap, shift, weight mask)
        terms: the taps are the baby steps, the shifts the giants.  A shift
        and its wrap-around are one rotation of the row (one Galois
        element), so each is kept as its representative in
        ``(-row/2, row/2]``: ``p_in - p_out`` and ``p_in - p_out ± spans``
        share one giant step."""
        spec = self.spec
        span = self.in_layout.span
        row = row_slot_count(self.ctx)
        plan = []
        for out_ct in range(self.out_layout.ciphertexts):
            terms: Dict[Tuple[int, int, int], np.ndarray] = {}
            for o in range(spec.out_channels):
                ct_o, p_out = self.out_layout.position(o)
                if ct_o != out_ct:
                    continue
                for c in range(spec.in_channels):
                    ct_i, p_in = self.in_layout.position(c)
                    shift = (p_in - p_out) * span % row
                    if shift > row // 2:
                        shift -= row
                    for dy, dx in spec.taps:
                        w = self.weights[o, c, dy + spec.pad, dx + spec.pad]
                        if not w:
                            continue
                        key = (ct_i, spec.tap_offset(dy, dx), shift)
                        mask = terms.get(key)
                        if mask is None:
                            mask = terms[key] = np.zeros(row)
                        start = p_out * span
                        mask[start: start + span] = w
            plan.append([(*key, mask) for key, mask in sorted(terms.items())])
        return plan

    # ------------------------------------------------------------ execution
    def _body(self, ev, input_cts):
        # Tap rotations are shared across shifts and output tiles.
        outputs = _baby_giant_sums(ev, input_cts, self._plan)
        for out_ct, acc in enumerate(outputs):
            if acc is None:
                raise ValueError(f"output tile {out_ct} has no non-zero weights")
        return outputs

    def __call__(self, input_cts, galois_keys=None) -> List:
        """Evaluate; returns one output ciphertext per output tile."""
        if len(input_cts) != self.in_layout.ciphertexts:
            raise ValueError(
                f"expected {self.in_layout.ciphertexts} input ciphertexts, "
                f"got {len(input_cts)}"
            )
        return self.run((input_cts,), galois_keys)

    # ----------------------------------------------------------- unpacking
    def unpack_outputs(self, slot_vectors: Sequence[np.ndarray]) -> np.ndarray:
        """Decrypted tile vectors -> (C_out, out_h, out_w) valid outputs."""
        spec = self.spec
        p = spec.pad
        out = np.zeros((spec.out_channels, spec.out_height, spec.out_width),
                       dtype=np.asarray(slot_vectors[0]).dtype)
        for o in range(spec.out_channels):
            ct_o, p_out = self.out_layout.position(o)
            channels = self.packing.unpack(slot_vectors[ct_o])
            grid = np.asarray(channels[p_out]).reshape(spec.height, spec.width)
            out[o] = grid[p: spec.height - p, p: spec.width - p]
        return out

    def reference(self, image: np.ndarray) -> np.ndarray:
        """Plaintext oracle: valid cross-correlation of (C_in, H, W) input."""
        spec = self.spec
        out = np.zeros((spec.out_channels, spec.out_height, spec.out_width),
                       dtype=np.result_type(image, self.weights))
        for o in range(spec.out_channels):
            for y in range(spec.out_height):
                for x in range(spec.out_width):
                    patch = image[:, y: y + spec.kernel_size, x: x + spec.kernel_size]
                    out[o, y, x] = np.sum(patch * self.weights[o])
        return out
