"""Encrypted linear algebra built on rotational redundancy (§3.3).

The matrix-vector kernels (:class:`EncryptedMatVec`, :class:`BsgsMatVec`)
pack the input vector in one fully redundant window, so every diagonal
rotation is a single ciphertext rotation.  :class:`Conv2dSpec` describes a
convolutional layer; its kernel is
:class:`repro.core.tiling.TiledEncryptedConv2d`, for layers of one
ciphertext or many.  The baby-step/giant-step loop both layer kinds share
is :func:`_baby_giant_sums`; the distance kernels' dimension reduction is
:func:`_window_sum`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.core.ir import ScheduleError, TracedKernel
from repro.core.packing import RedundantPacking
from repro.hecore.hoisting import window_phases
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


def _window_sum(ev, ct, width: int):
    """``sum_{i < width} rotate(ct, i)`` for a power-of-two *width*, as
    plain rotations and adds: per phase of
    :func:`repro.hecore.hoisting.window_phases`, a left-to-right chain of
    the phase's input and its rotations (each phase compiles to one
    unweighted key-switch sum).  Any other width is refused at tracing."""
    try:
        phases = window_phases(width)
    except ValueError as exc:
        raise ScheduleError(str(exc)) from None
    for phase in phases:
        acc = ct
        for step in phase:
            acc = ev.add(acc, ev.rotate(ct, step))
        ct = acc
    return ct


def _baby_giant_sums(ev, cts, plans):
    """Per plan ``sum_giant rotate(sum_baby roll(mask, giant) (*)
    rotate(cts[i], baby), giant)`` over its ``(i, baby, giant, mask)``
    terms; None where a plan is empty.

    Each baby rotation is made once and shared by every giant step and
    plan (the scheduler serves them from one hoisted decompose per input);
    each giant rotation is paid once, after the multiplies, and brings the
    pre-rolled masks home — the rotation (and Galois key) count is
    babies + giants, not their product.  A giant step's masks (one row
    length) are rolled by one shared gather index, not an ``np.roll`` each.
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
            group = list(group)
            # np.roll(mask, giant) for every mask: slot j reads j - giant.
            slots = len(group[0][3])
            index = (np.arange(slots) - giant) % slots
            inner = ev.rotate(_masked_sum(ev, (
                (baby(i, step), mask.take(index))
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


class EncryptedMatVec(TracedKernel):
    """Encrypted matrix-vector product via the windowed diagonal method.

    Packs the input vector in one fully-redundant window (redundancy =
    dimension − 1), so every Halevi-Shoup diagonal rotation is a single
    cheap ciphertext rotation.  Used for fully-connected layers.
    """

    #: Every product goes back to the client; a chaining caller says so.
    terminal_outputs = True

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
