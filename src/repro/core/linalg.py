"""Encrypted linear algebra built on rotational redundancy (§3.3).

The workhorse is :class:`EncryptedConv2d`: input channels are packed
redundantly into power-of-two spans (one per channel), and every
(input-channel, filter-tap) pair becomes a **single** ciphertext rotation by
``j * span + delta`` followed by one plaintext weight multiply — no masking
multiplies, no arbitrary permutations.  That is the paper's "convolution with
optimal multiplication efficiency".

Boundary semantics are client-aided: rotations are circular within each
redundant window, so the server computes *valid* convolution outputs at
interior positions; the client discards everything else when unpacking and
re-pads when packing the next layer's input.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.core.ir import TracedKernel
from repro.core.packing import ChannelLayout, RedundantPacking


def _encode_vector(ctx, values: np.ndarray, ct=None):
    """Encode a plaintext vector, level-matched to *ct* (BFV plaintexts are
    level-free; a traced *ct* has no level yet and defers the match)."""
    return ctx.encode(values, base=None if ct is None else ct.level_base)


def _masked_sum(ev, terms):
    """``sum(mask (*) ct)`` over (ciphertext, mask) *terms*; None if empty."""
    acc = None
    for ct, mask in terms:
        term = ev.multiply_plain(ct, _encode_vector(ev, mask, ct))
        acc = term if acc is None else ev.add(acc, term)
    return acc


def row_slot_count(ctx) -> int:
    """Slots that rotate together: N/2 for BFV rows and for CKKS."""
    return ctx.params.poly_degree // 2


@dataclass(frozen=True)
class Conv2dSpec:
    """Shape of one convolutional layer (stride 1, odd kernel)."""

    in_channels: int
    out_channels: int
    height: int
    width: int
    kernel_size: int

    def __post_init__(self):
        if self.kernel_size % 2 == 0:
            raise ValueError("kernel size must be odd")

    @property
    def pad(self) -> int:
        return self.kernel_size // 2

    @property
    def out_height(self) -> int:
        return self.height - 2 * self.pad

    @property
    def out_width(self) -> int:
        return self.width - 2 * self.pad

    @property
    def taps(self) -> List[Tuple[int, int]]:
        p = self.pad
        return list(itertools.product(range(-p, p + 1), repeat=2))

    def tap_offset(self, dy: int, dx: int) -> int:
        """Slot offset of tap (dy, dx) in the row-major flattened window."""
        return dy * self.width + dx

    @property
    def max_tap_offset(self) -> int:
        return self.pad * (self.width + 1)

    @property
    def macs(self) -> int:
        """Multiply-accumulates for one plaintext evaluation of this layer."""
        return (self.out_height * self.out_width * self.out_channels
                * self.in_channels * self.kernel_size ** 2)


def conv_input_packing(ctx, spec: Conv2dSpec) -> RedundantPacking:
    """The redundant channel packing a :class:`Conv2dSpec` needs.

    Spans are sized so that the whole rotating row is an exact multiple of
    the span, which makes channel-aligned rotations wrap cleanly.
    """
    row = row_slot_count(ctx)
    window = spec.height * spec.width
    packing = RedundantPacking(window=window, redundancy=spec.max_tap_offset,
                               count=max(spec.in_channels, spec.out_channels))
    if packing.layout.total_slots > row:
        raise ValueError(
            f"conv needs {packing.layout.total_slots} slots, row has {row}"
        )
    return packing


class EncryptedConv2d(TracedKernel):
    """Server-side encrypted convolution over a redundantly packed input."""

    def __init__(self, ctx, spec: Conv2dSpec, weights: np.ndarray,
                 packing: RedundantPacking | None = None):
        weights = np.asarray(weights)
        if weights.shape != (spec.out_channels, spec.in_channels,
                             spec.kernel_size, spec.kernel_size):
            raise ValueError(f"bad weight shape {weights.shape}")
        super().__init__(ctx)
        self.spec = spec
        self.packing = packing or conv_input_packing(ctx, spec)
        layout = self.packing.layout
        self._row_spans = row_slot_count(ctx) // layout.span
        self.weights = weights
        self._plan = self._build_plan()

    # ------------------------------------------------------------- planning
    def _build_plan(self) -> List[Tuple[int, np.ndarray]]:
        """One (rotation, weight-vector) pair per non-zero (shift, tap)."""
        spec, layout = self.spec, self.packing.layout
        row = row_slot_count(self.ctx)
        spans = self._row_spans
        plan = []
        for j in range(spans):
            # Does any output span o see an input channel under shift j?
            touched = [
                o for o in range(spec.out_channels)
                if (o + j) % spans < spec.in_channels
            ]
            if not touched:
                continue
            for dy, dx in spec.taps:
                delta = spec.tap_offset(dy, dx)
                mask = np.zeros(row)
                for o in touched:
                    c = (o + j) % spans
                    w = self.weights[o, c, dy + spec.pad, dx + spec.pad]
                    if w:
                        start = o * layout.span
                        mask[start: start + layout.span] = w
                if np.any(mask):
                    plan.append((j * layout.span + delta, mask))
        return plan

    # ------------------------------------------------------------ execution
    def _body(self, ev, cts):
        """One rotation and one weight multiply per plan entry, summed.

        All taps rotate the *same* packed input, so the scheduler shares
        one hoisted key-switch decompose across them (and under BFV fuses
        the whole plan into a single rotate-multiply-accumulate span).
        """
        (ct,) = cts
        acc = _masked_sum(ev, ((ev.rotate(ct, rotation), mask)
                               for rotation, mask in self._plan))
        if acc is None:
            raise ValueError("convolution has no non-zero weights")
        return acc

    def __call__(self, ct, galois_keys=None):
        """Evaluate the convolution on an encrypted, packed input."""
        return self.run(([ct],), galois_keys)[0]

    # ----------------------------------------------------------- unpacking
    def unpack_outputs(self, slots: np.ndarray) -> np.ndarray:
        """Extract the valid (out_channels, out_h, out_w) outputs."""
        spec = self.spec
        channels = self.packing.unpack(slots)
        p = spec.pad
        out = np.zeros((spec.out_channels, spec.out_height, spec.out_width),
                       dtype=np.asarray(slots).dtype)
        for o in range(spec.out_channels):
            grid = np.asarray(channels[o]).reshape(spec.height, spec.width)
            out[o] = grid[p: spec.height - p, p: spec.width - p]
        return out

    def reference(self, image: np.ndarray) -> np.ndarray:
        """Plaintext oracle: valid cross-correlation of (C_in, H, W) input."""
        spec = self.spec
        p = spec.pad
        out = np.zeros((spec.out_channels, spec.out_height, spec.out_width),
                       dtype=np.result_type(image, self.weights))
        for o in range(spec.out_channels):
            for y in range(spec.out_height):
                for x in range(spec.out_width):
                    patch = image[:, y: y + spec.kernel_size, x: x + spec.kernel_size]
                    out[o, y, x] = np.sum(patch * self.weights[o])
        return out


class EncryptedMatVec(TracedKernel):
    """Encrypted matrix-vector product via the windowed diagonal method.

    Packs the input vector in one fully-redundant window (redundancy =
    dimension − 1), so every Halevi-Shoup diagonal rotation is a single
    cheap ciphertext rotation.  Used for fully-connected layers.
    """

    def __init__(self, ctx, matrix: np.ndarray):
        matrix = np.asarray(matrix)
        if matrix.ndim != 2:
            raise ValueError("matrix must be 2-D")
        super().__init__(ctx)
        self.matrix = matrix
        self.n_out, self.n_in = matrix.shape
        self.dim = max(self.n_out, self.n_in)
        self.packing = RedundantPacking(window=self.dim, redundancy=self.dim - 1,
                                        count=1, slot_limit=row_slot_count(ctx))
        # Square the matrix up to dim x dim with zeros.
        self._square = np.zeros((self.dim, self.dim), dtype=matrix.dtype)
        self._square[: self.n_out, : self.n_in] = matrix

    def pack_input(self, vector: np.ndarray) -> np.ndarray:
        padded = np.zeros(self.dim, dtype=np.asarray(vector).dtype)
        padded[: self.n_in] = vector
        return self.packing.pack([padded])

    def _diagonal(self, j: int) -> np.ndarray:
        rows = np.arange(self.dim)
        return self._square[rows, (rows + j) % self.dim]

    def _diagonal_masks(self) -> List[Tuple[int, np.ndarray]]:
        """(rotation, full-row mask) for every non-zero diagonal."""
        row = row_slot_count(self.ctx)
        offset = self.packing.layout.window_offset(0)
        masks = []
        for j in range(self.dim):
            diag = self._diagonal(j)
            if not np.any(diag):
                continue
            mask = np.zeros(row)
            mask[offset: offset + self.dim] = diag
            masks.append((j, mask))
        return masks

    def _body(self, ev, cts):
        # Every diagonal rotates the same input ciphertext: the scheduler
        # serves all of them from one hoisted decompose.
        (ct,) = cts
        acc = _masked_sum(ev, ((ev.rotate(ct, j), mask)
                               for j, mask in self._diagonal_masks()))
        if acc is None:
            raise ValueError("matrix is all zeros")
        return acc

    def __call__(self, ct, galois_keys=None):
        """Evaluate the product on an encrypted, packed input vector."""
        return self.run(([ct],), galois_keys)[0]

    def unpack_output(self, slots: np.ndarray) -> np.ndarray:
        return self.packing.unpack(slots)[0][: self.n_out]

    def reference(self, vector: np.ndarray) -> np.ndarray:
        return self.matrix @ np.asarray(vector)


class BsgsMatVec(EncryptedMatVec):
    """Baby-step/giant-step diagonal matrix-vector product.

    The plain diagonal method needs ``d − 1`` distinct rotations (and as
    many Galois keys).  Writing each diagonal index as ``j = g·b_count + b``
    and hoisting the giant rotations outside the weight multiplies gives

        y = Σ_g rotate( Σ_b diag'_{g,b} ⊙ rotate(x, b),  g·b_count )

    with only ``b_count + g_count ≈ 2·√d`` rotations/keys — the standard
    Halevi-Shoup/Gazelle optimization.  The inner diagonals are pre-rotated
    by ``−g·b_count`` in plaintext so the algebra works out.
    """

    def __init__(self, ctx, matrix: np.ndarray, baby_steps: int = 0):
        super().__init__(ctx, matrix)
        d = self.dim
        self.baby_count = baby_steps or max(1, int(math.isqrt(d)))
        self.giant_count = math.ceil(d / self.baby_count)

    def _body(self, ev, cts):
        (ct,) = cts
        row = row_slot_count(ev)
        offset = self.packing.layout.window_offset(0)
        # Hoist the baby rotations: computed once, reused by every giant
        # step (the scheduler groups them onto one key-switch decompose).
        babies = [ev.rotate(ct, b) for b in range(self.baby_count)]
        acc = None
        for g in range(self.giant_count):
            shift = g * self.baby_count
            inner = _masked_sum(ev, (
                (babies[j - shift], self._bsgs_mask(j, shift, offset, row))
                for j in range(shift, min(shift + self.baby_count, self.dim))
                if np.any(self._diagonal(j))))
            if inner is None:
                continue
            inner = ev.rotate(inner, shift)
            acc = inner if acc is None else ev.add(acc, inner)
        if acc is None:
            raise ValueError("matrix is all zeros")
        return acc

    def _bsgs_mask(self, j: int, shift: int, offset: int, row: int) -> np.ndarray:
        """Mask applied before the giant rotation for diagonal *j*.

        Output slot ``i`` (after rotating left by *shift*) reads pre-rotation
        slot ``i + shift``; it must contain ``diag_j[i] * x[(i + j) mod d]``.
        The baby-rotated input at pre-rotation slot ``i + shift`` holds
        ``x_circ[(i + shift) + b] = x[(i + j) mod d]`` (redundant window), so
        the mask simply places ``diag_j[i]`` at slot ``offset + i + shift``.
        """
        mask = np.zeros(row)
        start = offset + shift      # shift < d, so the 3d - 2 slot span holds it
        mask[start: start + self.dim] = self._diagonal(j)
        return mask

