"""Iterative negacyclic Number Theoretic Transform.

The NTT is the workhorse of RLWE cryptography — it is also the computation
that prior hardware (HEAX, BFV FPGA designs) accelerates and that the
CHOCO-TACO polynomial-multiplication module implements with an iterative
butterfly dataflow.  This module provides the software implementation used by
the functional HE schemes.

Two implementations coexist (docs/KERNELS.md has the full story):

* :class:`NttPlan` — the original scalar plan for a single residue row.
  Multiplication in ``Z_p[x]/(x^N + 1)`` (negacyclic convolution) uses the
  standard psi-twist: scale coefficient *i* by ``psi**i`` (psi a primitive
  ``2N``-th root of unity), apply a cyclic NTT with ``omega = psi**2``,
  multiply point-wise, invert, and unscale.  It is retained as the bit-exact
  reference oracle for the stacked kernels.
* :class:`NttStackPlan` — the production kernel.  It transforms all ``k``
  residue rows of a ``(k, N)`` RNS matrix in one set of 2-D butterfly passes
  (the per-residue parallelism CHOCO-TACO exploits in hardware), merges the
  negacyclic psi-twist into the per-stage twiddle tables (Longa–Naehrig
  style, eliminating the separate twist multiply), and replaces per-stage
  division-based ``np.mod`` with lazy conditional-subtract reduction and
  Shoup multiplies.  It has one kernel pair, division-free, because every
  modulus is below ``2**MAX_MODULUS_BITS`` — checked when the plan is built.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.hecore.modmath import check_modulus, mod_inv, mod_mul, mod_pow
from repro.hecore.primes import primitive_root_of_unity


def _bit_reverse_permutation(n: int) -> np.ndarray:
    """Index permutation that reorders an array into bit-reversed order."""
    bits = n.bit_length() - 1
    indices = np.arange(n, dtype=np.int64)
    reversed_indices = np.zeros(n, dtype=np.int64)
    for bit in range(bits):
        reversed_indices |= ((indices >> bit) & 1) << (bits - 1 - bit)
    return reversed_indices


@dataclass(frozen=True)
class _StageTwiddles:
    """Per-stage twiddle factors for the iterative butterfly network."""

    length: int
    factors: np.ndarray  # shape (length // 2,)


class NttPlan:
    """Precomputed tables for negacyclic NTT/INTT over one prime.

    Plans are cached per ``(n, p)`` via :func:`get_plan`; creating one costs a
    primitive-root search plus table generation, after which every transform
    is a sequence of ``log2(n)`` vectorized butterfly passes.
    """

    def __init__(self, n: int, p: int):
        if n & (n - 1) or n < 2:
            raise ValueError(f"transform size {n} must be a power of two >= 2")
        if (p - 1) % (2 * n) != 0:
            raise ValueError(f"prime {p} is not NTT-friendly for degree {n}")
        self.n = n
        self.p = p
        self.psi = primitive_root_of_unity(2 * n, p)
        self.omega = mod_pow(self.psi, 2, p)
        self._bitrev = _bit_reverse_permutation(n)
        self._psi_powers = self._power_table(self.psi, n)
        psi_inv = mod_inv(self.psi, p)
        n_inv = mod_inv(n, p)
        # Fold the 1/N scaling of the inverse transform into the psi unscale.
        self._psi_inv_scaled = mod_mul(self._power_table(psi_inv, n), np.int64(n_inv), p)
        self._fwd_stages = self._stage_tables(self.omega)
        self._inv_stages = self._stage_tables(mod_inv(self.omega, p))

    def _power_table(self, base: int, count: int) -> np.ndarray:
        table = np.empty(count, dtype=np.int64)
        acc = 1
        for i in range(count):
            table[i] = acc
            acc = (acc * base) % self.p
        return table

    def _stage_tables(self, omega: int) -> List[_StageTwiddles]:
        stages = []
        length = 2
        while length <= self.n:
            step_root = mod_pow(omega, self.n // length, self.p)
            stages.append(
                _StageTwiddles(length=length, factors=self._power_table(step_root, length // 2))
            )
            length *= 2
        return stages

    def _butterflies(self, values: np.ndarray, stages: List[_StageTwiddles]) -> np.ndarray:
        p = self.p
        work = values[self._bitrev].astype(np.int64)
        for stage in stages:
            half = stage.length // 2
            blocks = work.reshape(-1, stage.length)
            even = blocks[:, :half].copy()
            odd = mod_mul(blocks[:, half:], stage.factors, p)
            blocks[:, :half] = np.mod(even + odd, p)
            blocks[:, half:] = np.mod(even - odd, p)
            work = blocks.reshape(-1)
        return work

    def forward(self, coefficients: np.ndarray) -> np.ndarray:
        """Negacyclic forward NTT of a length-``n`` coefficient vector."""
        twisted = mod_mul(coefficients.astype(np.int64), self._psi_powers, self.p)
        return self._butterflies(twisted, self._fwd_stages)

    def inverse(self, evaluations: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`forward`."""
        untwisted = self._butterflies(evaluations.astype(np.int64), self._inv_stages)
        return mod_mul(untwisted, self._psi_inv_scaled, self.p)

    def negacyclic_multiply(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Product of two polynomials in ``Z_p[x]/(x^n + 1)``."""
        return self.inverse(mod_mul(self.forward(a), self.forward(b), self.p))


#: Capacity of each plan memo (:func:`get_plan`, :func:`get_stack_plan`).
#: Degree and moduli arrive from clients, so this is what bounds a worker's
#: tables; a level needs one plan per batch-group row count
#: (:meth:`NttStackPlan.batch_plan`), and an evicted plan is rebuilt on use.
PLAN_MEMO_SIZE = 64


@functools.lru_cache(maxsize=PLAN_MEMO_SIZE)
def get_plan(n: int, p: int) -> NttPlan:
    """Return (and memoise) the :class:`NttPlan` for transform size *n* mod *p*."""
    return NttPlan(n, p)


def _power_table_stack(bases: Sequence[int], count: int, pcol: np.ndarray) -> np.ndarray:
    """``(k, count)`` table of ``bases[r] ** j mod p_r`` via binary exponentiation.

    ``count`` vectorized squarings/multiplies replace the per-element Python
    loop of :meth:`NttPlan._power_table`; all products stay below ``2**62``.
    """
    p = pcol.reshape(-1)
    result = np.ones((len(p), count), dtype=np.int64)
    square = np.mod(np.asarray(bases, dtype=np.int64), p)
    exponents = np.arange(count, dtype=np.int64)
    for bit in range(max(count - 1, 1).bit_length()):
        mask = ((exponents >> bit) & 1).astype(bool)
        if mask.any():
            result[:, mask] = (result[:, mask] * square[:, None]) % p[:, None]
        square = (square * square) % p
    return result


_U32 = np.uint64(32)

#: Target payload per butterfly pass of the batch kernels.  Each stage
#: streams the whole ``(rows, n)`` int64 ping-pong buffers, so batches are
#: processed in row groups of roughly this many bytes to stay L2-resident
#: (measured: per-row cost rises ~1.5x once the pass outgrows the cache;
#: ~12 rows at n=4096 is the sweet spot on the reference machine).
_BATCH_CHUNK_BYTES = 3 << 17


class NttStackPlan:
    """Stacked negacyclic NTT/INTT over a whole RNS base at once.

    Operates on ``(k, N)`` residue matrices — one row per modulus — pushing
    all rows through each butterfly stage in a single 2-D numpy pass with
    per-row broadcast twiddles.  The psi-twist of the negacyclic transform is
    fused into the stage twiddle tables (the factor-tree / Longa–Naehrig
    formulation), and reduction is lazy: values live in ``[0, 4p)`` between
    stages, renormalized with conditional subtracts instead of division, and
    twiddle products are reduced with Shoup's precomputed-quotient trick
    (``q = x * floor(W * 2**32 / p) >> 32``; ``x*W - q*p < 2p``) so the
    butterfly network contains no division at all.  Moduli below
    ``2**MAX_MODULUS_BITS`` keep ``4p`` inside a 32-bit word, so every
    uint64 product of an intermediate and a twiddle or quotient is exact.

    Outputs are bit-exact with the per-row scalar :class:`NttPlan` (same
    primitive roots, same natural evaluation ordering: position ``j`` of row
    ``r`` holds the evaluation at ``psi_r ** (2j + 1)``).
    """

    def __init__(self, n: int, moduli: Sequence[int]):
        if n & (n - 1) or n < 2:
            raise ValueError(f"transform size {n} must be a power of two >= 2")
        self.moduli: Tuple[int, ...] = tuple(int(p) for p in moduli)
        if not self.moduli:
            raise ValueError("stack plan needs at least one modulus")
        for p in self.moduli:
            check_modulus(p)
            if (p - 1) % (2 * n) != 0:
                raise ValueError(f"prime {p} is not NTT-friendly for degree {n}")
        self.n = n
        k = len(self.moduli)
        self._pcol = np.array(self.moduli, dtype=np.int64).reshape(k, 1)
        # Same deterministic primitive-root search as NttPlan => same psi per
        # row => bit-identical outputs.
        self.psis: Tuple[int, ...] = tuple(
            primitive_root_of_unity(2 * n, p) for p in self.moduli
        )
        psi_pow = _power_table_stack(self.psis, 2 * n, self._pcol)

        # Stage twiddle exponents from the factor tree of x^n + 1: a block
        # with modulus (x^L - psi^r) splits into (x^{L/2} -+ psi^{r/2}), so
        # the butterfly twiddle is psi^{r/2} and the children carry exponents
        # r/2 and r/2 + n.  Leaves end up at the odd exponents 2j+1 in
        # bit-reversed order; the permutations below restore natural order.
        stage_exponents: List[np.ndarray] = []
        exponents = np.array([n], dtype=np.int64)
        while exponents.size < n:
            half = exponents >> 1
            stage_exponents.append(half)
            exponents = np.stack([half, half + n], axis=1).reshape(-1)
        leaf_slots = (exponents - 1) >> 1
        self._scramble = leaf_slots
        unscramble = np.empty(n, dtype=np.int64)
        unscramble[leaf_slots] = np.arange(n, dtype=np.int64)
        self._unscramble = unscramble
        fwd_twiddles = [psi_pow[:, e] for e in stage_exponents]
        inv_twiddles = [psi_pow[:, 2 * n - e] for e in stage_exponents]
        n_inv = np.array([mod_inv(n, p) for p in self.moduli], dtype=np.int64)
        n_inv_col = n_inv.reshape(k, 1)

        self._scratch_local = threading.local()
        self._p_u = self._pcol.astype(np.uint64)
        self._two_p_u = self._p_u * np.uint64(2)
        self._p_u3 = self._p_u[:, :, None]
        # Constant-geometry twiddle vectors: at stage s, butterfly pair i
        # uses the stage-s group twiddle with group index i mod 2**s, so
        # the (k, 2**s) stage table tiles into a periodic vector.  Tiling
        # up to a 256-wide chunk keeps the broadcast inner loops long even
        # in the early stages where the pattern period is tiny.
        chunk = min(256, max(n // 2, 1))
        self._fwd_tw_u, self._fwd_tw_q = zip(
            *(self._cg_tables(t, chunk) for t in fwd_twiddles)
        )
        self._inv_tw_u, self._inv_tw_q = zip(
            *(self._cg_tables(t, chunk) for t in inv_twiddles)
        )
        self._n_inv_u = n_inv_col.astype(np.uint64)
        self._n_inv_q = ((n_inv_col << 32) // self._pcol).astype(np.uint64)

    def _cg_tables(self, table: np.ndarray, chunk: int) -> Tuple[np.ndarray, np.ndarray]:
        """Tiled twiddles and Shoup quotients for one constant-geometry stage.

        Returns ``(W, floor(W * 2**32 / p))`` as ``(k, 1, T)`` uint64 arrays
        with ``T = max(pattern, chunk)`` so they broadcast over the stage work
        array viewed as ``(k, (n/2) / T, T)``.  ``W < p < 2**MAX_MODULUS_BITS``
        keeps the shifted quotient computation int64-exact.
        """
        reps = max(chunk // table.shape[1], 1)
        tiled = np.tile(table, (1, reps))
        quotients = (tiled << 32) // self._pcol
        return (
            tiled[:, None, :].astype(np.uint64),
            quotients[:, None, :].astype(np.uint64),
        )

    def __len__(self) -> int:
        return len(self.moduli)

    def _check_shape(self, stack: np.ndarray) -> np.ndarray:
        stack = np.asarray(stack, dtype=np.int64)
        if stack.ndim != 2 or stack.shape != (len(self.moduli), self.n):
            raise ValueError(
                f"stack shape {stack.shape} != ({len(self.moduli)}, {self.n})"
            )
        return stack

    def _canonical(self, stack: np.ndarray) -> np.ndarray:
        """Rows reduced to ``[0, p)``; skips the division for canonical input.

        The canonicity test is a single unsigned comparison pass: viewed as
        uint64, negative int64 values wrap above ``2**63 > p``, so
        ``0 <= x < p`` collapses to ``x_u < p_u``.
        """
        work = self._check_shape(stack)
        if work.flags.c_contiguous:
            if bool((work.view(np.uint64) < self._pcol.view(np.uint64)).all()):
                return work
        elif bool((work >= 0).all()) and bool((work < self._pcol).all()):
            return work
        return np.mod(work, self._pcol)

    @property
    def scramble_order(self) -> np.ndarray:
        """Permutation taking standard evaluation order to the raw order the
        butterfly network produces (see :meth:`forward`'s ``unscramble``)."""
        return self._scramble

    def forward(self, stack: np.ndarray, check_bounds: bool = False,
                unscramble: bool = True,
                out: np.ndarray = None) -> np.ndarray:
        """Negacyclic forward NTT of every row of a ``(k, n)`` matrix.

        With ``check_bounds=True`` the kernel asserts the lazy-reduction
        invariants at every stage (used by the property tests; costs extra
        comparisons, so production callers leave it off).

        With ``unscramble=False`` the final gather into standard evaluation
        order is skipped: the rows come back permuted by
        :attr:`scramble_order`.  A pointwise product in that order fed to
        :meth:`inverse` with ``prescrambled=True`` cancels both permutation
        passes — the forward → dyadic → inverse sandwich of the batch
        encrypt/decrypt pipelines.
        """
        return self._forward_shoup(self._canonical(stack), check_bounds,
                                   unscramble, out)

    def inverse(self, stack: np.ndarray, check_bounds: bool = False,
                prescrambled: bool = False,
                out: np.ndarray = None) -> np.ndarray:
        """Inverse of :meth:`forward` (Gentleman–Sande, fused 1/N scaling).

        ``prescrambled=True`` declares the input already permuted by
        :attr:`scramble_order` (i.e. produced by ``forward(...,
        unscramble=False)`` plus pointwise ops), skipping the entry gather.
        """
        return self._inverse_shoup(self._canonical(stack), check_bounds,
                                   prescrambled, out)

    # ------------------------------------------------- Shoup (division-free)
    # The Shoup kernels run the butterfly network in constant-geometry (Pease)
    # dataflow: every stage reads the pair (i, i + n/2) and writes it to
    # (2i, 2i + 1).  For the factor-tree network this pairing is exact at every
    # stage (pair i uses the stage-s group twiddle indexed i mod 2**s, and the
    # final layout is the identity), so each pass touches two contiguous
    # half-length blocks instead of the (k, m, L) group slices — whose inner
    # axis collapses to a handful of elements in the late stages and leaves
    # numpy's per-loop overhead dominating.

    def _scratch(self, k: int) -> Tuple[np.ndarray, ...]:
        """Reusable uint64 work buffers: two ping-pong arrays plus three
        half-width temporaries.  Owned by the (cached) plan so the butterfly
        loop allocates nothing per stage — one set per thread: numpy drops
        the GIL inside the butterfly ufuncs, and plans are shared by every
        context of the process, so two served sessions evaluating at once
        would otherwise transform in each other's buffers."""
        bufs = getattr(self._scratch_local, "bufs", None)
        if bufs is None or bufs[0].shape[0] != k:
            hn = max(self.n // 2, 1)
            bufs = self._scratch_local.bufs = (
                np.empty((k, self.n), dtype=np.uint64),
                np.empty((k, self.n), dtype=np.uint64),
                np.empty((k, hn), dtype=np.uint64),
                np.empty((k, hn), dtype=np.uint64),
                np.empty((k, hn), dtype=np.uint64),
            )
        return bufs

    def _forward_shoup(self, work: np.ndarray, check_bounds: bool,
                       unscramble: bool = True,
                       out: np.ndarray = None) -> np.ndarray:
        k = work.shape[0]
        hn = self.n // 2
        zin, zout, xb, qb, tb = self._scratch(k)
        np.copyto(zin, work, casting="unsafe")
        two_p = self._two_p_u
        four_p = two_p * np.uint64(2)
        for s, (w, wq) in enumerate(zip(self._fwd_tw_u, self._fwd_tw_q)):
            chunk = w.shape[2]
            if check_bounds:
                assert bool((zin < four_p).all()), \
                    "stage input exceeded the [0, 4p) lazy envelope"
            u = zin[:, :hn]
            v3 = zin.reshape(k, 2, hn // chunk, chunk)[:, 1]
            q3 = qb.reshape(k, hn // chunk, chunk)
            t3 = tb.reshape(k, hn // chunk, chunk)
            if s == 0:
                # Stage 0 input is canonical (< p), already inside [0, 2p).
                x = u
            else:
                np.subtract(u, two_p, out=xb)
                np.minimum(u, xb, out=xb)                  # [0, 2p)
                x = xb
            np.multiply(v3, wq, out=q3)
            q3 >>= _U32
            q3 *= self._p_u3
            np.multiply(v3, w, out=t3)
            t3 -= q3                                       # [0, 2p)
            if check_bounds:
                assert bool((x < two_p).all()) and bool((tb < two_p).all())
            zo = zout.reshape(k, hn, 2)
            np.add(x, tb, out=zo[:, :, 0])                 # < 4p
            np.add(x, two_p, out=xb)
            np.subtract(xb, tb, out=zo[:, :, 1])           # < 4p
            zin, zout = zout, zin
        # Epilogue: two in-place conditional subtracts (4p -> 2p -> p), then a
        # single np.take gather into the int64 result.  The take reads the
        # scratch buffer reinterpreted as int64 -- values are < p < 2**63, so
        # the bit patterns coincide and no separate astype pass is needed.
        np.subtract(zin, two_p, out=zout)
        np.minimum(zin, zout, out=zin)
        np.subtract(zin, self._p_u, out=zout)
        np.minimum(zin, zout, out=zin)
        result = out if out is not None else np.empty((k, self.n), dtype=np.int64)
        if unscramble:
            np.take(zin.view(np.int64), self._unscramble, axis=1, out=result)
        else:
            # Raw butterfly order: a contiguous copy out of the scratch buffer
            # replaces the gather (the caller holds :attr:`scramble_order`).
            np.copyto(result, zin.view(np.int64))
        return result

    def _inverse_shoup(self, work: np.ndarray, check_bounds: bool,
                       prescrambled: bool = False,
                       out: np.ndarray = None) -> np.ndarray:
        k = work.shape[0]
        hn = self.n // 2
        zin, zout, xb, qb, db = self._scratch(k)
        # Gather straight into the uint64 work buffer viewed as int64 (the
        # canonical inputs are < p < 2**63, so the bit patterns coincide);
        # np.take with ``out=`` avoids the fancy-indexing temporary.  Input
        # already in raw butterfly order skips the gather entirely.
        if prescrambled:
            np.copyto(zin.view(np.int64), work)
        else:
            np.take(work, self._scramble, axis=1, out=zin.view(np.int64))
        two_p = self._two_p_u
        for w, wq in zip(reversed(self._inv_tw_u), reversed(self._inv_tw_q)):
            chunk = w.shape[2]
            if check_bounds:
                assert bool((zin < two_p).all()), \
                    "stage input exceeded the [0, 2p) lazy envelope"
            zi = zin.reshape(k, hn, 2)
            a = zi[:, :, 0]
            b = zi[:, :, 1]
            zob = zout.reshape(k, 2, hn // chunk, chunk)
            d3 = db.reshape(k, hn // chunk, chunk)
            q3 = qb.reshape(k, hn // chunk, chunk)
            np.add(a, b, out=xb)                           # < 4p
            np.add(a, two_p, out=db)
            db -= b                                        # (0, 4p) < 2**32
            np.subtract(xb, two_p, out=zout[:, :hn])
            np.minimum(xb, zout[:, :hn], out=zout[:, :hn])  # [0, 2p)
            np.multiply(d3, wq, out=q3)
            q3 >>= _U32
            q3 *= self._p_u3
            d3 *= w
            np.subtract(d3, q3, out=zob[:, 1])             # [0, 2p)
            if check_bounds:
                assert bool((zout < two_p).all())
            zin, zout = zout, zin
        # Fused 1/N scaling: inputs < 2p < 2**32, Shoup result < 2p.
        np.multiply(zin, self._n_inv_q, out=zout)
        zout >>= _U32
        zout *= self._p_u
        zin *= self._n_inv_u
        zin -= zout                                        # [0, 2p)
        np.subtract(zin, self._p_u, out=zout)
        np.minimum(zin, zout, out=zin)
        if out is None:
            return zin.astype(np.int64)
        np.copyto(out, zin.view(np.int64))
        return out

    # --------------------------------------------------------- batch axis
    def batch_plan(self, batch: int) -> "NttStackPlan":
        """Plan over *batch* tiled copies of this plan's residue stack.

        Every kernel above is purely row-wise (tables broadcast along the
        ``k`` axis), so transforming ``batch`` stacks at once is exactly the
        plan whose moduli sequence is this one's repeated ``batch`` times.
        The tiled plan shares :func:`get_stack_plan`'s memo, so its twiddle
        tables and scratch buffers are built once per ``(n, moduli, batch)``.
        """
        if batch < 1:
            raise ValueError(f"batch size {batch} must be >= 1")
        if batch == 1:
            return self
        return get_stack_plan(self.n, self.moduli * batch)

    def _check_batch_shape(self, stacks: np.ndarray) -> np.ndarray:
        stacks = np.asarray(stacks, dtype=np.int64)
        if stacks.ndim != 3 or stacks.shape[1:] != (len(self.moduli), self.n):
            raise ValueError(
                f"batch shape {stacks.shape} != (B, {len(self.moduli)}, {self.n})"
            )
        return stacks

    def _batch_group(self, b: int) -> int:
        """Stacks per butterfly pass: the full batch only while the working
        set stays cache-resident.

        Every stage of the row-wise kernels streams the whole ``(rows, n)``
        ping-pong buffers, so once ``rows * n`` outgrows L2 the per-row cost
        climbs ~1.5x.  Large batches are therefore processed in groups whose
        row count stays near ``_BATCH_CHUNK_BYTES`` of payload; each group
        size maps to one cached tiled plan, so scratch buffers and twiddle
        tables are reused across calls regardless of the caller's batch size.
        """
        k = len(self.moduli)
        target_rows = max(k, _BATCH_CHUNK_BYTES // (8 * self.n))
        return max(1, min(b, target_rows // k))

    def _transform_batch(self, stacks: np.ndarray, inverse: bool,
                         check_bounds: bool, raw: bool = False) -> np.ndarray:
        stacks = self._check_batch_shape(stacks)
        b, k, n = stacks.shape
        kwargs = ({"prescrambled": raw} if inverse else {"unscramble": not raw})
        group = self._batch_group(b)
        if group >= b:
            plan = self.batch_plan(b)
            kernel = plan.inverse if inverse else plan.forward
            return kernel(stacks.reshape(b * k, n), check_bounds,
                          **kwargs).reshape(b, k, n)
        out = np.empty((b, k, n), dtype=np.int64)
        for start in range(0, b, group):
            stop = min(start + group, b)
            rows = stop - start
            plan = self.batch_plan(rows)
            kernel = plan.inverse if inverse else plan.forward
            # Writing the kernel epilogue straight into the output slice
            # (contiguous view) saves one full-block copy per group.
            kernel(stacks[start:stop].reshape(rows * k, n), check_bounds,
                   out=out[start:stop].reshape(rows * k, n), **kwargs)
        return out

    def forward_batch(self, stacks: np.ndarray, check_bounds: bool = False,
                      unscramble: bool = True) -> np.ndarray:
        """Forward NTT of a ``(B, k, n)`` batch of residue stacks.

        Bit-exact with ``B`` separate :meth:`forward` calls, but the batch
        runs as cache-blocked ``(rows, n)`` passes through the butterfly
        network — the stacked kernel hoisted rotations use to transform every
        key-switch digit (and every rotation's accumulator) at once.
        ``unscramble=False`` keeps rows in raw butterfly order (see
        :meth:`forward`); the permutation is identical for every group
        because :attr:`scramble_order` depends only on ``n``.
        """
        return self._transform_batch(stacks, inverse=False,
                                     check_bounds=check_bounds,
                                     raw=not unscramble)

    def inverse_batch(self, stacks: np.ndarray, check_bounds: bool = False,
                      prescrambled: bool = False) -> np.ndarray:
        """Inverse of :meth:`forward_batch` (same cache-blocked passes)."""
        return self._transform_batch(stacks, inverse=True,
                                     check_bounds=check_bounds,
                                     raw=prescrambled)

    def dyadic_multiply(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Point-wise product of two stacked evaluation matrices."""
        return mod_mul(a, b, self._pcol)

    def negacyclic_multiply(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Row-wise product in ``Z_{p_r}[x]/(x^n + 1)`` for every residue row."""
        return self.inverse(self.dyadic_multiply(self.forward(a), self.forward(b)))


_memoised_stack_plan = functools.lru_cache(maxsize=PLAN_MEMO_SIZE)(NttStackPlan)


def get_stack_plan(n: int, moduli: Sequence[int]) -> NttStackPlan:
    """Return (and memoise) the :class:`NttStackPlan` for ``(n, moduli)``."""
    return _memoised_stack_plan(n, tuple(int(p) for p in moduli))


def negacyclic_multiply_naive(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """O(n^2) schoolbook negacyclic product, used as a test oracle."""
    n = len(a)
    result = np.zeros(n, dtype=np.int64)
    a = a.astype(np.int64) % p
    b = b.astype(np.int64) % p
    for i in range(n):
        if a[i] == 0:
            continue
        for j in range(n):
            k = i + j
            term = int(a[i]) * int(b[j])
            if k < n:
                result[k] = (result[k] + term) % p
            else:
                result[k - n] = (result[k - n] - term) % p
    return np.mod(result, p)
