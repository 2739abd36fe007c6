"""Negacyclic Number Theoretic Transform.

The NTT is the workhorse of RLWE cryptography — it is also the computation
that prior hardware (HEAX, BFV FPGA designs) accelerates and that the
CHOCO-TACO polynomial-multiplication module implements with an iterative
butterfly dataflow.  This module provides the software implementation used by
the functional HE schemes (docs/KERNELS.md has the full story).

:class:`NttStackPlan` transforms all ``k`` residue rows of a ``(k, N)`` RNS
matrix at once (the per-residue parallelism CHOCO-TACO exploits in hardware)
as a four-step (Bailey) factorisation ``N = n1 * n2``: per modulus, each row
viewed as an ``(n2, n1)`` matrix is multiplied by a constant matrix,
twiddled elementwise and multiplied by a second constant matrix, with the
negacyclic psi-twist and the inverse's ``1/N`` folded into the constants.
Every matmul is float64 BLAS, exact in any summation order because every
partial sum stays below ``2**52``.  Each modulus has a width class, set by
``(N, p)`` alone (:func:`is_narrow`):

- *narrow* when ``n2 * (p//2 + 1) * (p//2) < 2**52`` (primes below
  ``2**24`` at ``N = 4096``): a matmul step is one matmul of a centred input
  against the full-width centred constant, and the twiddle is one float
  multiply and one reduction;
- *wide* otherwise: a step is two matmuls against the constant's signed
  15-bit digits (inputs below ``2**MAX_MODULUS_BITS``, digits at most
  ``2**14``, at most :data:`MAX_SUM_TERMS` terms), and the twiddle takes
  its remainder in int64.

A plan runs each class's rows as one stacked kernel.  Plan construction
refuses a modulus or a degree outside the wide envelope.  Its bit-exact
reference, the scalar butterfly plan, is test code (``tests/oracles.py``).
"""

from __future__ import annotations

import functools
import math
import threading
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.hecore.modmath import (
    MAX_MODULUS_BITS, check_modulus, mod_inv, mod_mul, mod_reduce,
)
from repro.hecore.primes import primitive_root_of_unity


#: Capacity of each plan memo (:func:`get_stack_plan` and the per-modulus
#: tables it stacks, :func:`_modulus_steps`).  Degree and moduli arrive from
#: clients, so this is what bounds a worker's tables; an evicted plan is
#: rebuilt on use.
PLAN_MEMO_SIZE = 64


def _power_table(base: int, count: int, p: int) -> np.ndarray:
    """``base ** j mod p`` for ``j < count``, doubling the known prefix each
    pass (``table[m:2m] = table[:m] * base**m``): ``log2(count)`` vectorized
    multiplies, every product below ``2**60``."""
    result = np.empty(count, dtype=np.int64)
    result[0] = 1
    step = base % p
    known = 1
    while known < count:
        grow = min(known, count - known)
        result[known:known + grow] = mod_mul(result[:grow], step, p)
        step = step * step % p
        known += grow
    return result


#: Wide constants are split into signed digits of this many bits: a centred
#: residue ``c = hi * 2**15 + lo`` with ``|hi|, |lo| <= 2**14``.
_DIGIT_BITS = 15
_RADIX = float(1 << _DIGIT_BITS)

#: float64 holds every integer below ``2**53``; the kernels keep every matmul
#: partial sum below ``2**_EXACT_BITS``, so BLAS may add in any order.
_EXACT_BITS = 52

#: Longest exact wide sum: ``2**8`` products of an input below
#: ``2**MAX_MODULUS_BITS`` and a digit of at most ``2**14`` stay below
#: ``2**52``.  A four-step sum runs over ``n2 = 2**ceil(log2(N) / 2)`` terms,
#: so degrees up to ``2**16`` fit.
MAX_SUM_TERMS = 1 << (_EXACT_BITS - MAX_MODULUS_BITS - (_DIGIT_BITS - 1))

#: Target payload per group of the batch kernels.  Every elementwise pass
#: streams the group's float64 work buffers, so batches are processed in
#: groups of about this many bytes of int64 rows (measured at n=4096 on a
#: 2-vCPU host: the per-row cost is flat from 8 to 16 rows and rises ~10 %
#: by 32, ~25 % at 4 or fewer).
_BATCH_CHUNK_BYTES = 3 << 17


def _split(n: int) -> Tuple[int, int]:
    """The four-step split ``N = n1 * n2``, ``n2 = n1`` or ``2 * n1``."""
    n1 = 1 << ((n.bit_length() - 1) // 2)
    return n1, n // n1


def is_narrow(n: int, p: int) -> bool:
    """Whether *p* is in the narrow width class at degree *n*: ``n2``
    products of a centred value (``|x| <= p//2 + 1``, what every reduction
    leaves) and a centred constant (``|c| <= p//2``) sum below ``2**52``,
    so a matmul step is one float64 matmul against the full-width constant
    and a twiddle product (one such product) is exact in float64.  Every
    other modulus is wide."""
    return _split(n)[1] * (p // 2 + 1) * (p // 2) < 1 << _EXACT_BITS


def _centred(table: np.ndarray, p: int) -> np.ndarray:
    """A residue table moved to ``|c| <= p // 2``."""
    return np.where(table > p // 2, table - p, table)


def _digits(centred: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """float64 ``(hi, lo)`` with ``centred = hi * 2**15 + lo`` and
    ``|hi|, |lo| <= 2**14``."""
    half = 1 << (_DIGIT_BITS - 1)
    lo = ((centred + half) & (2 * half - 1)) - half
    return ((centred - lo) >> _DIGIT_BITS).astype(np.float64), lo.astype(np.float64)


#: Multiply-adds per BLAS call.  A BLAS library splits a larger gemm across
#: threads; at these sizes the split saves nothing, and on a loaded host a
#: thread handoff can stall one call for milliseconds.  So every call stays
#: at or below 64**3, where OpenBLAS runs it on the calling thread.
_GEMM_MAX_MACS = 1 << 18


#: Where a kernel's rows sit in its plan: ``(plan rows, kernel rows)``
#: slice pairs, one per run of consecutive plan rows of one width class.
Runs = Tuple[Tuple[slice, slice], ...]


class _MatmulStep(NamedTuple):
    """One modular matmul, ``W @ x`` (*left*) or ``x @ W``, for a per-modulus
    constant ``W`` kept as its *digits*: the full-width centred ``W`` alone
    (one BLAS matmul) or its signed 15-bit ``(hi, lo)`` (two).  Each runs as
    row blocks of at most ``_GEMM_MAX_MACS``: a left ``W`` is stored ``(k,
    1, blocks, m / blocks, m)`` against ``x`` viewed ``(k, g, 1, m, c)``, a
    right one ``(k, 1, 1, m, m)`` against ``x`` viewed ``(k, g, blocks, rows
    / blocks, m)``.  Either way the product lands in ``x``'s own layout.

    *fix*, when set, is added to the product before its reduction: the
    step's input arrives offset by ``-(p//2)``, and ``fix = (p//2) · (W @
    1)`` (``(k, 1, m, 1)``: row sums; ``(k, 1, 1, m)`` for a right ``W``:
    column sums), centred, puts the offset back."""

    digits: Tuple[np.ndarray, ...]
    left: bool
    blocks: int
    fix: Optional[np.ndarray] = None

    @classmethod
    def of(cls, digits: Sequence[np.ndarray], left: bool, rows: int,
           cols: int, fix: Optional[np.ndarray] = None) -> "_MatmulStep":
        k, _, m, _ = digits[0].shape
        blocks = max(1, rows * m * cols // _GEMM_MAX_MACS)
        shape = (k, 1, blocks, -1, m) if left else (k, 1, 1, m, m)
        return cls(tuple(d.reshape(shape) for d in digits), left, blocks, fix)


class _FourStep:
    """Per-modulus tables and the kernel of the four-step negacyclic NTT,
    over rows of one width class (:func:`is_narrow`, :attr:`narrow`).

    With ``i = i1 + n1*i2`` and ``j = j2 + n2*j1`` the forward transform is

        X[j2 + n2*j1] = sum_i1 W1[i1, j1] * T[j2, i1]
                              * sum_i2 W2[j2, i2] * a[i1 + n1*i2]

    with ``W2[j2, i2] = psi**(n1*i2*(2*j2 + 1))``,
    ``T[j2, i1] = psi**(i1*(2*j2 + 1))`` and ``W1[i1, j1] = psi**(2*n2*i1*j1)``
    — the row as an ``(n2, n1)`` matrix ``D`` goes to ``(W2 @ D) * T @ W1``,
    an ``(n2, n1)`` matrix indexed ``[j2, j1]`` whose transpose is the natural
    evaluation order.  The inverse transposes its input back to that layout
    and runs the same factorisation backwards with negated exponents,
    ``1/N`` folded into its ``W2``.
    """

    def __init__(self, n: int, p: int, psi: int):
        self.k, self.psis = 1, (psi,)
        self.n1, self.n2 = n1, n2 = _split(n)
        self.narrow = narrow = is_narrow(n, p)
        # Work arrays are modulus-major, (k, g, n2, n1) for a group of g
        # stacks, so every table broadcasts over the group axis.
        pcol = np.full((1, 1, 1, 1), p, dtype=np.int64)
        psi_pow = _power_table(psi, 2 * n, p)[None, None]
        odd = 2 * np.arange(n2)[:, None] + 1                # 2*j2 + 1
        cols = np.arange(n1)
        w2 = (n1 * np.arange(n2)[None, :] * odd) % (2 * n)  # [j2, i2]
        tw = (cols[None, :] * odd) % (2 * n)                # [j2, i1]
        w1 = (2 * n2 * cols[:, None] * cols[None, :]) % (2 * n)  # [i1, j1]

        def matmul(exponents, left, scale=1, first=False, full=narrow):
            table = mod_mul(psi_pow[..., exponents], scale, p)
            centred = _centred(table, p)
            digits = (centred.astype(np.float64),) if full else _digits(centred)
            fix = None
            if first and narrow:
                sums = mod_reduce(table.sum(axis=-1 if left else -2,
                                            keepdims=True), p)
                fix = _centred(mod_mul(sums, p // 2, p), p).astype(np.float64)
            return _MatmulStep.of(digits, left, n2, n1, fix)

        def twiddle(exponents):
            centred = _centred(psi_pow[..., exponents], p)
            if narrow:
                return (centred.astype(np.float64),)
            return centred / float(p), centred

        def negated(exponents):
            return (2 * n - exponents) % (2 * n)

        self._forward = (matmul(w2, True, first=True), twiddle(tw),
                         matmul(w1, False))
        self._inverse = (matmul(negated(w1), False, first=True),
                         twiddle(negated(tw)),
                         matmul(negated(w2).T, True, mod_inv(n, p)))
        # The small-input first stage: one matmul against the full-width
        # W2, with no offset (its input is signed already).
        self._small = self._forward[0]._replace(fix=None) if narrow \
            else matmul(w2, True, full=True)
        self._pcol = pcol
        self._p = pcol.astype(np.float64)
        self._p_inv = 1.0 / self._p
        self._p_u = pcol.reshape(1, 1).astype(np.uint64)
        self._half = self._p // 2
        self._local = threading.local()

    @classmethod
    def stacked(cls, parts: Sequence["_FourStep"]) -> "_FourStep":
        """The kernel over every row of *parts*, in order, all of one width
        class: each table is its parts' tables stacked along the modulus
        axis, nothing derived again (one part is returned as it is).
        Read-only, like the parts."""
        if len(parts) == 1:
            return parts[0]
        self = cls.__new__(cls)
        self.k = sum(part.k for part in parts)
        self.n1, self.n2 = parts[0].n1, parts[0].n2
        (self.narrow,) = {part.narrow for part in parts}
        self.psis = sum((part.psis for part in parts), ())

        def stack(arrays):
            return _read_only(np.concatenate(arrays))

        def matmul(column):
            fix = column[0].fix
            return column[0]._replace(
                digits=tuple(map(stack, zip(*(step.digits for step in column)))),
                fix=None if fix is None else stack([step.fix for step in column]))

        def direction(name):
            first, table, second = zip(*(getattr(part, name) for part in parts))
            return matmul(first), tuple(map(stack, zip(*table))), matmul(second)

        self._forward, self._inverse = direction("_forward"), direction("_inverse")
        self._small = matmul([part._small for part in parts])
        for name in ("_pcol", "_p", "_p_inv", "_p_u", "_half"):
            setattr(self, name, stack([getattr(part, name) for part in parts]))
        self._local = threading.local()
        return self

    def _scratch(self, shape: Tuple[int, ...]) -> List[np.ndarray]:
        """Four float64 work buffers of *shape*, carved from one per-thread
        buffer that grows to the largest group seen.  Plans are shared by
        every context of the process and numpy drops the GIL inside BLAS
        and the ufuncs, so two threads never share a buffer."""
        views = getattr(self._local, "views", None)
        if views is None or views[0].shape != shape:
            size = math.prod(shape)
            buf = getattr(self._local, "buf", None)
            if buf is None or buf.size < 4 * size:
                buf = self._local.buf = np.empty(4 * size)
            views = self._local.views = [
                buf[i * size:(i + 1) * size].reshape(shape) for i in range(4)]
        return views

    def _reduce(self, x: np.ndarray, tmp: np.ndarray) -> None:
        """``x -= rint(x / p) * p`` in place: exact for integers
        ``|x| < 2**52``, leaving ``|x| <= p/2 + 1``."""
        np.multiply(x, self._p_inv, out=tmp)
        np.rint(tmp, out=tmp)
        tmp *= self._p
        x -= tmp

    def _check_reduced(self, x: np.ndarray, what: str) -> None:
        assert bool((np.abs(x) < self._p).all()), f"{what} value outside (-p, p)"

    @staticmethod
    def _gemm(pair: Tuple[np.ndarray, np.ndarray], out: np.ndarray,
              check: bool) -> None:
        """``out = pair[0] @ pair[1]``, every partial sum below ``2**52``."""
        np.matmul(*pair, out=out)
        if check:
            # Every partial sum, in any order, is bounded by the same
            # product of absolute values.
            bound = np.matmul(*(np.abs(a) for a in pair))
            assert bound.max() < 2.0 ** _EXACT_BITS, \
                "a matmul partial sum left the 2**52 exact envelope"

    def _matmul(self, step: _MatmulStep, x: np.ndarray, out: np.ndarray,
                lo: np.ndarray, tmp: np.ndarray, check: bool) -> np.ndarray:
        """``step`` applied to ``x``, reduced into *out*.  Two digits take
        ``|x| < 2**30``; one full-width digit takes ``|x| <= p//2 + 1`` on a
        narrow row (:func:`is_narrow`) or ``|x| <`` ``small_bound``.  A
        leading axis of 1 on *x* broadcasts it over every modulus."""
        blocked = out.shape[:2] + (step.blocks, -1, out.shape[-1])
        xv = x[:, :, None] if step.left else x.reshape(blocked)
        for w, dst in zip(step.digits, (out, lo)):
            self._gemm((w, xv) if step.left else (xv, w), dst.reshape(blocked),
                       check)
        if len(step.digits) == 2:
            self._reduce(out, tmp)      # |hi| <= p/2 + 1, so hi * 2**15 + lo
            out *= _RADIX               # stays below 2**52 + 2**44
            out += lo
        elif step.fix is not None:
            # |x| <= p//2 (canonical input offset by -(p//2)), so the sum
            # plus |fix| <= p//2 stays below n2·(p//2 + 1)·(p//2) < 2**52.
            out += step.fix
        self._reduce(out, tmp)
        if check:
            self._check_reduced(out, "reduced")
        return out

    def _twiddle(self, table: Tuple[np.ndarray, ...], y: np.ndarray,
                 q: np.ndarray, a: np.ndarray, b: np.ndarray, check: bool) -> None:
        """``y = y * T mod p`` in place, for ``|y| <= p/2 + 1``, into
        ``(-p, p)``.  Narrow: the product in float64 (below ``(p//2 + 1)
        · (p//2) < 2**52``, :func:`is_narrow`), then one reduction.  Wide:
        the quotient ``q = rint(y * T / p)`` from the float ratio, then
        ``y*T - q*p`` in int64 (both products below ``2**59``)."""
        if self.narrow:
            (centred,) = table
            y *= centred
            if check:
                assert np.abs(y).max() < 2.0 ** _EXACT_BITS, \
                    "a twiddle product left the 2**52 exact envelope"
            self._reduce(y, q)
        else:
            ratio, centred = table
            np.multiply(y, ratio, out=q)
            np.rint(q, out=q)
            a, b = a.view(np.int64), b.view(np.int64)
            np.copyto(a, y, casting="unsafe")
            np.copyto(b, q, casting="unsafe")
            a *= centred
            b *= self._pcol
            a -= b
            np.copyto(y, a, casting="unsafe")
        if check:
            self._check_reduced(y, "twiddled")

    def run(self, block: np.ndarray, runs: Runs, inverse: bool, check: bool,
            out: np.ndarray) -> None:
        """Transform this kernel's rows of a canonical ``(g, K, n)`` int64
        block into the same rows of *out* (*runs* maps them)."""
        g = len(block)
        n1, n2 = self.n1, self.n2
        x, s, t, u = self._scratch((self.k, g, n2, n1))
        for rows, mine in runs:
            src = block[:, rows]
            src = (src.reshape(g, -1, n1, n2).transpose(1, 0, 3, 2) if inverse
                   else src.reshape(g, -1, n2, n1).swapaxes(0, 1))
            if self.narrow:
                # Centred by a constant offset in the cast: [0, p) becomes
                # [-(p//2), p//2]; the first step's fix puts it back.
                np.subtract(src, self._half[mine], out=x[mine], casting="unsafe")
            else:
                np.copyto(x[mine], src, casting="unsafe")
        first, table, second = self._inverse if inverse else self._forward
        y = self._matmul(first, x, s, t, u, check)
        self._finish(table, second, y, (x, t, u), not inverse, check, runs, out)

    def run_small(self, values: np.ndarray, runs: Runs, check: bool,
                  out: np.ndarray) -> None:
        """Forward-transform ``(g, n)`` signed rows below
        :attr:`NttStackPlan.small_bound` into this kernel's rows of a
        natural-order ``(g, K, n)`` block *out*.  The rows are the same
        under every modulus, so the first stage is one matmul of each row
        against every modulus's full-width centred ``W2``: no lift, no
        offset, no digit split."""
        g = len(values)
        x, s, t, u = self._scratch((self.k, g, self.n2, self.n1))
        d = u[0]
        np.copyto(d, values.reshape(d.shape), casting="unsafe")
        y = self._matmul(self._small, d[None], s, t, x, check)
        self._finish(self._forward[1], self._forward[2], y, (x, t, u), True,
                     check, runs, out)

    def _finish(self, table: Tuple[np.ndarray, ...], second: _MatmulStep,
                y: np.ndarray, scratch: Tuple[np.ndarray, ...], transpose: bool,
                check: bool, runs: Runs, out: np.ndarray) -> None:
        """The twiddle and the second matmul of a reduced first stage *y*,
        stored into *out*'s rows (*runs*) in ``[0, p)``: transposed when
        *transpose* (the forward's natural evaluation order), else in *y*'s
        own layout."""
        x, t, u = scratch
        g = y.shape[1]
        n1, n2 = self.n1, self.n2
        self._twiddle(table, y, x, t, u, check)
        z = self._matmul(second, y, x, t, u, check)
        spare = t.view(np.uint64).reshape(-1)
        for rows, mine in runs:
            dst = out[:, rows]
            if transpose:
                np.copyto(dst.reshape(g, -1, n1, n2), z[mine].transpose(1, 0, 3, 2),
                          casting="unsafe")
            else:
                np.copyto(dst.reshape(g, -1, n2, n1), z[mine].swapaxes(0, 1),
                          casting="unsafe")
            # (-p, p) -> [0, p): a negative value wraps above 2**63 as
            # uint64, so min(v, v + p) picks v + p exactly for those.
            du = dst.view(np.uint64)
            tu = spare[:du.size].reshape(du.shape)
            np.add(du, self._p_u[mine], out=tu)
            np.minimum(du, tu, out=du)


def _runs(rows: Sequence[int]) -> Runs:
    """The runs of consecutive plan *rows*, each paired with its slice of
    the kernel that stacks exactly those rows in order."""
    runs, start = [], 0
    for i in range(1, len(rows) + 1):
        if i == len(rows) or rows[i] != rows[i - 1] + 1:
            runs.append((slice(rows[start], rows[i - 1] + 1), slice(start, i)))
            start = i
    return tuple(runs)


def _width_groups(parts: Sequence[_FourStep]) -> Tuple[Tuple[_FourStep, Runs], ...]:
    """A plan's rows grouped by width class: one stacked :class:`_FourStep`
    per class present (narrow first) with the :data:`Runs` that place its
    rows.  Set B's full base is its three narrow data rows, then the wide
    special prime."""
    groups = []
    for narrow in (True, False):
        rows = [r for r, part in enumerate(parts) if part.narrow == narrow]
        if rows:
            groups.append((_FourStep.stacked([parts[r] for r in rows]),
                           _runs(rows)))
    return tuple(groups)


class NttStackPlan:
    """Stacked negacyclic NTT/INTT over a whole RNS base at once.

    Operates on ``(k, N)`` residue matrices — one row per modulus — and on
    ``(B, k, N)`` batches of them, as the four-step factorisation of
    :class:`_FourStep`: two exact float64 modular matmul steps per modulus
    and an elementwise twiddle between them, every table broadcast over the
    batch, the rows of each width class stacked into one kernel.

    Outputs are bit-exact with a per-row scalar butterfly plan (same
    primitive roots, same natural evaluation ordering: position ``j`` of row
    ``r`` holds the evaluation at ``psi_r ** (2j + 1)``).
    """

    def __init__(self, n: int, moduli: Sequence[int]):
        if n & (n - 1) or n < 2:
            raise ValueError(f"transform size {n} must be a power of two >= 2")
        n2 = _split(n)[1]
        if n2 > MAX_SUM_TERMS:
            raise ValueError(
                f"transform size {n} sums {n2} terms; the float64 "
                f"envelope (every partial sum below 2**{_EXACT_BITS}) allows "
                f"{MAX_SUM_TERMS}")
        self.moduli: Tuple[int, ...] = tuple(int(p) for p in moduli)
        if not self.moduli:
            raise ValueError("stack plan needs at least one modulus")
        for p in self.moduli:
            check_modulus(p)
            if (p - 1) % (2 * n) != 0:
                raise ValueError(f"prime {p} is not NTT-friendly for degree {n}")
        self.n = n
        self._p_row = _read_only(np.array(self.moduli, dtype=np.uint64))
        # Each modulus' tables are derived once per process and stacked here
        # by width class, so a sub-base (the special prime alone, a lower
        # level's extended base) of a plan already built derives nothing.
        parts = [_modulus_steps(n, p) for p in self.moduli]
        self._groups = _width_groups(parts)
        self.psis: Tuple[int, ...] = sum((part.psis for part in parts), ())
        #: :meth:`forward_small` takes inputs below this magnitude: ``n2``
        #: products with a centred ``W2`` entry (below ``2**29``) then sum
        #: below ``2**52`` (``2**17`` at ``N = 4096``, ``2**15`` at ``2**16``).
        self.small_bound = 1 << (_EXACT_BITS - (MAX_MODULUS_BITS - 1)
                                 - (n2.bit_length() - 1))

    def __len__(self) -> int:
        return len(self.moduli)

    def _checked(self, stacks: np.ndarray, batch: bool) -> np.ndarray:
        """*stacks* as int64, refused unless ``(k, n)`` (``(B, k, n)`` for a
        *batch*)."""
        stacks = np.asarray(stacks, dtype=np.int64)
        want = (len(self.moduli), self.n)
        if stacks.ndim != 2 + batch or stacks.shape[batch:] != want:
            raise ValueError(f"shape {stacks.shape} != {('B',) * batch + want}")
        return stacks

    def _canonical(self, work: np.ndarray) -> np.ndarray:
        """``(..., k, n)`` rows reduced to ``[0, p)``; skips the division for
        canonical input.  The test is one row-maximum pass: viewed as
        uint64, negative int64 values wrap above ``2**63 > p``."""
        if bool((work.view(np.uint64).max(axis=-1) < self._p_row).all()):
            return work
        return mod_reduce(work.copy(), self.moduli)

    def _batch_group(self, b: int) -> int:
        """Stacks per kernel call out of *b* (a stack being one run of the
        distinct moduli): the full batch only while the float64 work buffers
        stay cache-resident (``_BATCH_CHUNK_BYTES``)."""
        return max(1, min(b, _BATCH_CHUNK_BYTES // (8 * self.n * len(self.moduli))))

    def _transform(self, stacks: np.ndarray, inverse: bool,
                   check_bounds: bool) -> np.ndarray:
        """Transform a ``(k, n)`` stack or a ``(B, k, n)`` batch, in
        cache-sized groups of stacks."""
        work = self._canonical(stacks)
        out = np.empty(work.shape, dtype=np.int64)
        blocks = work.reshape(-1, len(self.moduli), self.n)
        results = out.reshape(blocks.shape)
        group = self._batch_group(len(blocks))
        for rows in (slice(i, i + group) for i in range(0, len(blocks), group)):
            for steps, runs in self._groups:
                steps.run(blocks[rows], runs, inverse, check_bounds,
                          results[rows])
        return out

    def forward(self, stack: np.ndarray,
                check_bounds: bool = False) -> np.ndarray:
        """Negacyclic forward NTT of every row of a ``(k, n)`` matrix.

        With ``check_bounds=True`` the kernel asserts the exactness envelope
        at every step: every matmul partial sum below ``2**52`` and every
        reduced value in ``(-p, p)`` (used by the property tests; costs extra
        matmuls, so production callers leave it off).
        """
        return self._transform(self._checked(stack, False), False, check_bounds)

    def inverse(self, stack: np.ndarray,
                check_bounds: bool = False) -> np.ndarray:
        """Inverse of :meth:`forward` (``1/N`` folded into the last matmul)."""
        return self._transform(self._checked(stack, False), True, check_bounds)

    # --------------------------------------------------------- batch axis
    def forward_batch(self, stacks: np.ndarray,
                      check_bounds: bool = False) -> np.ndarray:
        """Forward NTT of a ``(B, k, n)`` batch of residue stacks.

        Bit-exact with ``B`` separate :meth:`forward` calls, but the batch
        runs as cache-sized groups of stacks through one set of matmul
        calls each — the stacked kernel hoisted rotations use to transform
        every key-switch digit (and every rotation's accumulator) at once.
        """
        return self._transform(self._checked(stacks, True), False, check_bounds)

    def forward_small(self, values: np.ndarray,
                      check_bounds: bool = False) -> np.ndarray:
        """Forward NTT of ``(B, n)`` small signed rows (error and ternary
        samples) under every modulus: a ``(B, k, n)`` natural-order block,
        bit-identical to ``forward_batch(base.lift_signed(values))``.

        A row is the same integers under every modulus, so the first stage
        is one exact float64 matmul against each modulus's full-width
        centred ``W2`` (the narrow rows' own first step, without its
        offset), instead of the lift and a full first step.
        That is exact only below :attr:`small_bound`; larger input is
        refused with ``ValueError``.  ``check_bounds`` asserts the envelope
        as :meth:`forward` does.
        """
        values = np.asarray(values, dtype=np.int64)
        if values.ndim != 2 or values.shape[1] != self.n:
            raise ValueError(f"shape {values.shape} != ('B', {self.n})")
        # |INT64_MIN| wraps to itself; viewed as uint64 it is 2**63.
        peak = int(np.abs(values).view(np.uint64).max()) if values.size else 0
        if peak >= self.small_bound:
            raise ValueError(f"small-input transform needs |v| < "
                             f"{self.small_bound}, got {peak}")
        out = np.empty((len(values), len(self.moduli), self.n), dtype=np.int64)
        group = self._batch_group(len(values))
        for rows in (slice(i, i + group) for i in range(0, len(values), group)):
            for steps, runs in self._groups:
                steps.run_small(values[rows], runs, check_bounds, out[rows])
        return out

    def inverse_batch(self, stacks: np.ndarray,
                      check_bounds: bool = False) -> np.ndarray:
        """Inverse of :meth:`forward_batch` (same cache-sized groups)."""
        return self._transform(self._checked(stacks, True), True, check_bounds)

    def dyadic_multiply(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Point-wise product of two stacked evaluation matrices."""
        return mod_mul(a, b, self.moduli)

    def negacyclic_multiply(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Row-wise product in ``Z_{p_r}[x]/(x^n + 1)`` for every residue row."""
        return self.inverse(self.dyadic_multiply(self.forward(a), self.forward(b)))


def _read_only(table: np.ndarray) -> np.ndarray:
    """*table*, no longer writable: plans are shared by every context of
    the process, so a stray in-place write must raise, not corrupt every
    later transform."""
    table.setflags(write=False)
    return table


@functools.lru_cache(maxsize=PLAN_MEMO_SIZE)
def _modulus_steps(n: int, p: int) -> _FourStep:
    """The four-step tables of one modulus at degree *n*, of its width
    class (:func:`is_narrow`), which every stack plan over it shares
    (read-only).  The root is found by the same
    deterministic search as the scalar test oracle's, so every row is
    bit-identical to it."""
    steps = _FourStep(n, p, primitive_root_of_unity(2 * n, p))
    tables = list(vars(steps).values())
    while tables:
        table = tables.pop()
        if isinstance(table, np.ndarray):
            _read_only(table)
        elif isinstance(table, tuple):
            tables.extend(table)
    return steps


_memoised_stack_plan = functools.lru_cache(maxsize=PLAN_MEMO_SIZE)(NttStackPlan)


def get_stack_plan(n: int, moduli: Sequence[int]) -> NttStackPlan:
    """Return (and memoise) the :class:`NttStackPlan` for ``(n, moduli)``."""
    return _memoised_stack_plan(n, tuple(int(p) for p in moduli))
