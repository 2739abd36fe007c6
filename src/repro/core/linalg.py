"""Encrypted linear algebra built on rotational redundancy (§3.3).

The workhorse is :class:`EncryptedConv2d`: input channels are packed
redundantly into power-of-two spans (one per channel), so every filter tap
is a **single** ciphertext rotation by ``delta`` and every channel alignment
a single rotation by ``j * span``, with one plaintext weight multiply per
(shift, tap) pair between them — no masking multiplies, no arbitrary
permutations.  That is the paper's "convolution with optimal multiplication
efficiency"; factoring the alignment as taps (baby steps) x shifts (giant
steps) keeps the client's Galois-key bill at taps + shifts.

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
from repro.hecore.modmath import next_power_of_two


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


def _baby_giant_sums(ev, cts, plans):
    """Per plan ``sum_giant rotate(sum_baby roll(mask, giant) (*)
    rotate(cts[i], baby), giant)`` over its ``(i, baby, giant, mask)``
    terms; None where a plan is empty.

    Each baby rotation is made once and shared by every giant step and
    plan (the scheduler serves them from one hoisted decompose per input);
    each giant rotation is paid once, after the multiplies, and brings the
    pre-rolled masks home — the rotation (and Galois key) count is
    babies + giants, not their product.
    """
    babies = {}

    def baby(i, step):
        if (i, step) not in babies:
            babies[i, step] = ev.rotate(cts[i], step)
        return babies[i, step]

    def giant_of(term):
        return term[2]

    sums = []
    for terms in plans:
        acc = None
        for giant, group in itertools.groupby(sorted(terms, key=giant_of),
                                              key=giant_of):
            inner = ev.rotate(_masked_sum(ev, (
                (baby(i, step), np.roll(mask, giant))
                for i, step, _, mask in group)), giant)
            acc = inner if acc is None else ev.add(acc, inner)
        sums.append(acc)
    return sums


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
    def _build_plan(self) -> List[Tuple[int, int, int, np.ndarray]]:
        """One (input, tap, shift, weight-vector) term per non-zero
        (shift, tap): the taps are the baby steps, the shifts the giants."""
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
                    plan.append((0, delta, j * layout.span, mask))
        return plan

    # ------------------------------------------------------------ execution
    def _body(self, ev, cts):
        """One weight multiply per plan entry; one rotation per tap (all of
        the *same* packed input, so the scheduler shares one hoisted
        key-switch decompose across them) and one per channel shift."""
        (acc,) = _baby_giant_sums(ev, cts, [self._plan])
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
        self.diagonals = self.dim

    def pack_input(self, vector: np.ndarray) -> np.ndarray:
        padded = np.zeros(self.dim, dtype=np.asarray(vector).dtype)
        padded[: self.n_in] = vector
        return self.packing.pack([padded])

    def _diagonal(self, j: int) -> np.ndarray:
        """Extended diagonal *j*: ``M[i mod diagonals, (i + j) mod dim]``."""
        rows = np.arange(self.dim)
        return self._square[rows % self.diagonals, (rows + j) % self.dim]

    def _diagonal_masks(self) -> List[Tuple[int, np.ndarray]]:
        """(rotation, full-row mask) for every non-zero diagonal."""
        row = row_slot_count(self.ctx)
        offset = self.packing.layout.window_offset(0)
        masks = []
        for j in range(self.diagonals):
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
    """Hybrid-diagonal, baby-step/giant-step matrix-vector product.

    The plain diagonal method needs ``d - 1`` distinct rotations (and as
    many Galois keys) however few rows the matrix has.  A short matrix is
    covered by ``r = 2^ceil(log2 n_out)`` *extended* diagonals
    ``diag_j[i] = M[i mod r, (i + j) mod d]`` instead of ``d`` (Gazelle's
    hybrid layout): their sum leaves the partial products of output row
    ``i`` at slots ``i, i + r, i + 2r, ...``, which a ``log2(d / r)`` fold
    ``acc += rotate(acc, d/2), ..., rotate(acc, r)`` adds up.  When
    ``d / r`` is not a power of two the kernel keeps the square form,
    ``r = d``.  Writing each diagonal index as ``j = g * b_count + b`` and
    hoisting the giant rotations outside the weight multiplies gives

        y = fold( sum_g rotate( sum_b diag'_{g,b} (*) rotate(x, b), g * b_count ) )

    with ``(b_count - 1) + (g_count - 1) + log2(d / r)`` rotations and keys,
    ``b_count ~ g_count ~ sqrt(r)`` — the standard Halevi-Shoup/Gazelle
    optimization.  ``diag'`` is the diagonal pre-rotated by ``-g * b_count``
    in plaintext: output slot ``i`` (after the giant rotation) reads slot
    ``i + g * b_count`` of a baby-rotated input that holds
    ``x[(i + j) mod d]`` there (redundant window of ``3d - 2`` slots).
    """

    def __init__(self, ctx, matrix: np.ndarray):
        super().__init__(ctx, matrix)
        rows = next_power_of_two(self.n_out)
        fold, rest = divmod(self.dim, rows)
        if not rest and not fold & (fold - 1):
            self.diagonals = rows
        self.baby_count = max(1, math.isqrt(self.diagonals))
        self.giant_count = math.ceil(self.diagonals / self.baby_count)

    def _body(self, ev, cts):
        b = self.baby_count
        (acc,) = _baby_giant_sums(ev, cts, [[
            (0, j % b, j - j % b, mask)
            for j, mask in self._diagonal_masks()]])
        if acc is None:
            raise ValueError("matrix is all zeros")
        step = self.dim // 2
        while step >= self.diagonals:
            acc = ev.add(acc, ev.rotate(acc, step))
            step //= 2
        return acc
