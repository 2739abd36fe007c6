"""Residue Number System (RNS) bases and exact CRT conversions.

RLWE coefficient moduli are hundreds of bits wide; HE libraries represent
each coefficient as residues modulo a base of word-sized coprime moduli
(Table 2 of the paper: parameters ``k`` and ``{k}``).  Arithmetic stays in
vectorized int64 residue-land; only decryption, noise measurement, and exact
BFV multiplication compose back to Python big integers.
"""

from __future__ import annotations

import functools
import math
from typing import List, Sequence, Tuple

import numpy as np

from repro.hecore.modmath import check_modulus, mod_inv, mod_mul, mod_reduce

#: Distance from the rounding boundary below which the floating-point
#: correction of :meth:`RnsBase.scale_and_round_mod` is not trusted and the
#: affected coefficients fall back to the exact big-integer path.  The float
#: error of the correction sum is bounded by ``~k^2 * 2**-53`` (a handful of
#: additions of values in [0, 1)), i.e. well under 1e-12 for any base this
#: repo uses; 1e-9 leaves three orders of magnitude of slack while making a
#: spurious fallback astronomically unlikely.
SCALE_ROUND_GUARD = 1e-9

#: Capacity of :meth:`RnsBase.of`'s intern table: a parameter set needs its
#: chain's prefixes plus one key-switch extension per level (2k bases).
BASE_MEMO_SIZE = 64


class RnsBase:
    """An ordered base of pairwise-coprime word-sized moduli, and the one
    home of residue arithmetic: :meth:`lift_signed`, :meth:`add`,
    :meth:`sub`, :meth:`scale` and :meth:`divide_and_round_by_last` have
    their only body here, over canonical (rows in ``[0, p)``) int64 blocks
    ``(..., k, n)`` — a polynomial is rank 2, a ciphertext or rotation batch
    rank 3."""

    def __init__(self, moduli: Sequence[int]):
        moduli = [int(m) for m in moduli]
        if not moduli:
            raise ValueError("RNS base must contain at least one modulus")
        if len(set(moduli)) != len(moduli):
            raise ValueError("RNS moduli must be distinct")
        for m in moduli:
            check_modulus(m)
        for i, a in enumerate(moduli):
            for b in moduli[i + 1:]:
                if math.gcd(a, b) != 1:
                    raise ValueError(f"moduli {a} and {b} are not coprime")
        self.moduli: Tuple[int, ...] = tuple(moduli)
        self.modulus: int = functools.reduce(lambda a, b: a * b, moduli, 1)
        #: ``(k, 1)`` int64 column of the moduli, broadcast against ``(k, n)``
        #: residue matrices by the vectorized fast paths.  Read-only: interned
        #: bases are shared by every context of the process.
        self.moduli_col: np.ndarray = np.array(self.moduli, dtype=np.int64).reshape(-1, 1)
        self.moduli_col.setflags(write=False)
        # Punctured products q_i = q / p_i and their inverses mod p_i,
        # needed for CRT composition and base conversion.
        self._punctured = [self.modulus // p for p in moduli]
        self._punctured_inv = [mod_inv(q_i % p, p) for q_i, p in zip(self._punctured, moduli)]
        self._punctured_inv_col = np.array(self._punctured_inv, dtype=np.int64).reshape(-1, 1)
        #: Float reciprocals of the moduli: the fractional estimators multiply
        #: by these instead of dividing (same ~ulp accuracy, ~3x the speed).
        self._recip_moduli_col = 1.0 / self.moduli_col.astype(np.float64)

    def __len__(self) -> int:
        return len(self.moduli)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RnsBase) and self.moduli == other.moduli

    def __hash__(self) -> int:
        return hash(self.moduli)

    def __repr__(self) -> str:
        return f"RnsBase({list(self.moduli)})"

    @property
    def bit_size(self) -> int:
        """Total bit width of the composed modulus."""
        return self.modulus.bit_length()

    @staticmethod
    @functools.lru_cache(maxsize=BASE_MEMO_SIZE)
    def of(moduli: Tuple[int, ...]) -> "RnsBase":
        """The process's shared base over *moduli* (a tuple), validated on
        first use: level and key-switch bases are prefixes and extensions of
        one chain, resolved here instead of rebuilt per operation.  Moduli
        from outside the program are checked against the chain *before*
        this lookup."""
        return RnsBase(moduli)

    @functools.cached_property
    def _switch_down(self) -> Tuple["RnsBase", np.ndarray]:
        """What dropping the last prime ``P`` needs, derived once per base:
        the base without it and the ``(k-1, 1)`` column of ``P^-1 mod p``."""
        if len(self.moduli) < 2:
            raise ValueError("cannot drop the only modulus in a base")
        target = RnsBase.of(self.moduli[:-1])
        last = self.moduli[-1]
        inv_last = [mod_inv(last % p, p) for p in target.moduli]
        return target, np.array(inv_last, dtype=np.int64).reshape(-1, 1)

    def drop_last(self) -> "RnsBase":
        """The base with its final modulus removed (modulus switching)."""
        return self._switch_down[0]

    # ---------------------------------------------------- residue arithmetic
    def lift_signed(self, values: np.ndarray) -> np.ndarray:
        """Small signed integers ``(..., n)`` (error and ternary samples,
        plaintext coefficients) → canonical residues ``(..., k, n)``."""
        values = np.asarray(values, dtype=np.int64)[..., None, :]
        return mod_reduce(np.repeat(values, len(self.moduli), axis=-2),
                          self.moduli)

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise modular sum of canonical blocks.

        One conditional subtract, as an unsigned minimum: viewed as uint64,
        ``total - p`` wraps above ``2**63`` whenever ``total < p``, so the
        in-place elementwise minimum selects the reduced representative
        without a boolean mask or a second temporary.
        """
        total = a + b
        tu = total.view(np.uint64)
        np.minimum(tu, tu - self.moduli_col.view(np.uint64), out=tu)
        return total

    def sub(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise modular difference of canonical blocks (negation is
        ``sub(0, a)``): a negative ``a - b`` wraps above ``2**63`` as uint64,
        so the same minimum picks ``a - b + p`` exactly when it went
        negative."""
        diff = a - b
        du = diff.view(np.uint64)
        np.minimum(du, du + self.moduli_col.view(np.uint64), out=du)
        return diff

    def scale(self, block: np.ndarray, scalar: int) -> np.ndarray:
        """Multiply every coefficient of a canonical ``(..., k, n)`` block
        by a (possibly big) integer scalar: one product per row against
        the scalar's residue, then one reduction."""
        scalar = int(scalar)
        factors = np.array([scalar % p for p in self.moduli], dtype=np.int64)
        return mod_mul(block, factors[:, None], self.moduli)

    def divide_and_round_by_last(
        self, block: np.ndarray
    ) -> Tuple["RnsBase", np.ndarray]:
        """Exact modulus switch of a coefficient-form block: drop the last
        prime ``P``, scaling by ``1/P``.

        Computes ``round(x / P)`` (up to ±1 rounding slack, as in SEAL) using
        only word arithmetic: subtract the centered residue ``c`` mod ``P``,
        then multiply by ``P^-1`` modulo each remaining prime, with one
        reduction per row: ``|x_i - c| < p + P/2 < 2**31`` and ``P^-1 < p <
        2**30``, so the product stays below ``2**61``.  This is the "Mod
        Switching" module of the CHOCO-TACO pipeline (Figure 5) and the only
        step that couples RNS residues.  Returns ``(dropped_base,
        (..., k-1, n) block)``.
        """
        target, inv_col = self._switch_down
        last = self.moduli[-1]
        c = block[..., -1:, :]
        c = np.where(c > last // 2, c - last, c)
        out = block[..., :-1, :] - c
        out *= inv_col
        return target, mod_reduce(out, target.moduli)

    def decompose(self, values: Sequence[int]) -> np.ndarray:
        """Integer vector → residue matrix of shape ``(k, len(values))``.

        Accepts arbitrarily large (and negative) Python integers.  Values
        already fitting int64 are :meth:`lift_signed`; wider values take a
        pair-folded big-integer path (one Python-level reduction per *pair*
        of moduli, then one word-sized reduction of both rows).
        """
        try:
            arr = np.asarray(values, dtype=np.int64)
        except (OverflowError, TypeError):
            arr = None
        if arr is not None:
            return self.lift_signed(arr)
        big = [int(v) for v in values]
        k = len(self.moduli)
        out = np.empty((k, len(big)), dtype=np.int64)
        for i in range(0, k - 1, 2):
            pair = self.moduli[i] * self.moduli[i + 1]
            out[i] = out[i + 1] = [v % pair for v in big]
            mod_reduce(out[i:i + 2], self.moduli[i:i + 2])
        if k % 2:
            p = self.moduli[-1]
            out[-1] = np.array([v % p for v in big], dtype=np.int64)
        return out

    def compose(self, residues: np.ndarray) -> List[int]:
        """Residue matrix ``(k, n)`` → canonical integers in ``[0, q)``.

        When the composed modulus fits the int64-exactness envelope the whole
        CRT sum runs vectorized (:meth:`_compose_array62`).  Wider bases
        pair-fold:
        ``scaled_i*q_i + scaled_j*q_j = Q_g * (scaled_i*p_j + scaled_j*p_i)``
        with ``Q_g = q/(p_i p_j)``, so the inner combination is one int64
        vector op and only one big-integer multiply per element per *pair*.
        """
        if residues.shape[0] != len(self.moduli):
            raise ValueError(
                f"residue matrix has {residues.shape[0]} rows, base has {len(self.moduli)}"
            )
        residues = residues.astype(np.int64)
        if self.bit_size <= 62:
            return self._compose_array62(residues).tolist()
        q = self.modulus
        n = residues.shape[1]
        scaled = self._y_residues(residues)
        k = len(self.moduli)
        acc = [0] * n
        for i in range(0, k - 1, 2):
            p_i, p_j = self.moduli[i], self.moduli[i + 1]
            group = q // (p_i * p_j)
            inner = scaled[i] * np.int64(p_j) + scaled[i + 1] * np.int64(p_i)
            for j in range(n):
                acc[j] += group * int(inner[j])
        if k % 2:
            q_last = self._punctured[-1]
            last = scaled[-1]
            for j in range(n):
                acc[j] += q_last * int(last[j])
        return [v % q for v in acc]

    def compose_centered(self, residues: np.ndarray) -> List[int]:
        """Like :meth:`compose` but mapped to the centered range (−q/2, q/2]."""
        q = self.modulus
        half = q // 2
        return [v - q if v > half else v for v in self.compose(residues)]

    def fractional_positions(self, residues: np.ndarray) -> np.ndarray:
        """Floating-point estimate of ``x/q`` in ``[0, 1)`` per coefficient.

        For residues of shape ``(..., k, n)`` returns ``(..., n)`` floats.
        CRT gives ``x = sum_i [x_i * (q/p_i)^{-1} mod p_i] * q/p_i  (mod q)``,
        so ``x/q = frac(sum_i y_i / p_i)`` with ``y_i`` the bracketed terms.
        Each float division and the sum are accurate to ``~k * 2**-53``, good
        enough to locate a coefficient within the modulus up to a vanishing
        boundary band (callers guard that band and fall back to exact CRT).
        """
        y = self._y_residues(residues)
        f = (y * self._recip_moduli_col).sum(axis=-2)
        return f - np.floor(f)

    def _y_residues(self, residues: np.ndarray) -> np.ndarray:
        """``y_i = x_i * (q/p_i)^{-1} mod p_i`` for canonical residues
        (``[0, p)`` rows, the :class:`RnsPoly` invariant), in a fresh array.

        The CRT reconstruction coefficients shared by the float estimators,
        the RNS decrypt scaling and the CRT compositions.
        """
        return mod_mul(residues, self._punctured_inv_col, self.moduli)

    def scale_and_round_mod(
        self,
        residues: np.ndarray,
        t: int,
        guard: float = SCALE_ROUND_GUARD,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized ``round(t * x / q) mod t`` without big integers.

        The SEAL-style RNS decrypt scaling: with ``y_i = x_i * (q/p_i)^{-1}
        mod p_i`` the exact identity ``t*x/q = sum_i t*y_i/p_i - t*v`` holds
        for some integer ``v`` (the CRT overflow), and ``t*v ≡ 0 (mod t)``
        drops out of the result.  Splitting ``t*y_i = quot_i*p_i + rem_i``
        keeps every product inside int64 (``y_i < p_i < 2**30`` and
        ``t < 2**31``), leaving only the fractional correction
        ``floor(sum_i rem_i/p_i + 1/2)`` to float arithmetic.

        Rounding is half-up, which on canonical (non-negative) ``x`` matches
        :func:`scale_and_round`'s half-away-from-zero.  Since ``q`` is odd
        (product of odd NTT primes), ``t*x/q`` is never exactly half-integral,
        so the rounded value is well defined; *guard* flags coefficients whose
        correction sum lands within the float-error band of a rounding
        boundary.

        Returns ``(out, unsafe)`` where ``out`` has shape ``(..., n)`` for
        ``(..., k, n)`` input and ``unsafe`` marks coefficients the caller
        must recompute via the exact big-integer path.  If ``t`` is too wide
        for the int64 envelope the whole call is flagged unsafe.
        """
        t = int(t)
        shape = residues.shape[:-2] + residues.shape[-1:]
        if t.bit_length() + max(self.moduli).bit_length() > 62:
            return (np.zeros(shape, dtype=np.int64),
                    np.ones(shape, dtype=bool))
        # _y_residues returns a fresh array, so the scaling below runs in
        # place on it — w = t*y is int64-exact inside the 62-bit envelope.
        w = self._y_residues(residues)
        w *= np.int64(t)
        if t.bit_length() + max(self.moduli).bit_length() <= 52:
            # w is float64-exact, so one reciprocal multiply estimates the
            # quotient to within ±1 and an exact int64 remainder check pins
            # it — an order of magnitude cheaper than int64 floor-division.
            # The ±1 fixups are masked in-place ops (no bool-arithmetic
            # temporaries); values are identical to exact floor division.
            quot = (w * self._recip_moduli_col).astype(np.int64)
            rem = w
            rem -= quot * self.moduli_col
            pcol = np.broadcast_to(self.moduli_col, rem.shape)
            over = rem >= pcol
            np.add(quot, 1, out=quot, where=over)
            np.subtract(rem, pcol, out=rem, where=over)
            np.less(rem, 0, out=over)
            np.subtract(quot, 1, out=quot, where=over)
            np.add(rem, pcol, out=rem, where=over)
        else:
            quot = w // self.moduli_col
            rem = w - quot * self.moduli_col
        int_part = mod_reduce(quot.sum(axis=-2), t)
        shifted = (rem * self._recip_moduli_col).sum(axis=-2) + 0.5
        out = mod_reduce(int_part + np.floor(shifted).astype(np.int64), t)
        unsafe = np.abs(shifted - np.round(shifted)) < guard
        return out, unsafe

    @functools.cached_property
    def _small_prefix(self) -> "RnsBase":
        """Largest prefix sub-base whose product fits the int64 envelope;
        used by :meth:`compose_centered_small` to recover small centered
        values exactly without big integers."""
        product, count = 1, 0
        for p in self.moduli:
            if (product * p).bit_length() > 62:
                break
            product *= p
            count += 1
        return self if count == len(self.moduli) else RnsBase.of(self.moduli[:count])

    def _compose_array62(self, residues: np.ndarray) -> np.ndarray:
        """Vectorized canonical CRT for bases with ``bit_size <= 62``.

        ``(..., k, n)`` residues → ``(..., n)`` int64 values in ``[0, q)``.
        Each term ``scaled_i * (q/p_i) < q < 2**62`` and partial sums stay
        below ``2q < 2**63``, so the accumulation is int64-exact.
        """
        if self.bit_size > 62:
            raise ValueError("base too wide for the vectorized int64 compose")
        scaled = self._y_residues(residues)
        acc = np.zeros(residues.shape[:-2] + residues.shape[-1:], dtype=np.int64)
        for row, q_i in enumerate(self._punctured):
            acc += scaled[..., row, :] * np.int64(q_i)
            mod_reduce(acc, self.modulus)
        return acc

    def compose_centered_small(
        self, residues: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Exact centered CRT values for coefficients known to be small.

        A centered value ``x`` with ``|x| < P/2`` for ``P`` the product of a
        prefix sub-base is fully determined by its residues modulo that
        prefix, so it composes exactly in vectorized int64 arithmetic.  A
        float estimate of ``|x|`` (via :meth:`fractional_positions`) selects
        which coefficients qualify, with a 2x safety margin that dwarfs the
        estimate's error.

        Returns ``(values, unsafe)`` of shapes ``(..., n)``; ``values`` is
        int64 and only valid where ``unsafe`` is False — the caller resolves
        flagged coefficients via the exact big-integer path.
        """
        sub = self._small_prefix
        vals = sub._compose_array62(residues[..., :len(sub), :])
        half = sub.modulus >> 1
        vals = np.where(vals > half, vals - np.int64(sub.modulus), vals)
        if sub is self:
            return vals, np.zeros(vals.shape, dtype=bool)
        f = self.fractional_positions(residues)
        magnitude = np.minimum(f, 1.0 - f) * float(self.modulus)
        unsafe = magnitude >= float(sub.modulus) / 4.0
        return vals, unsafe


def scale_and_round(values: Sequence[int], numerator: int, denominator: int) -> List[int]:
    """Exact ``round(v * numerator / denominator)`` for big integers.

    Rounds half away from zero, matching SEAL's BFV scaling convention.
    """
    out = []
    for v in values:
        num = int(v) * numerator
        if num >= 0:
            out.append((2 * num + denominator) // (2 * denominator))
        else:
            out.append(-((-2 * num + denominator) // (2 * denominator)))
    return out


def centered_mod(value: int, modulus: int) -> int:
    """``value mod modulus`` mapped to (−modulus/2, modulus/2]."""
    r = int(value) % modulus
    return r - modulus if r > modulus // 2 else r
