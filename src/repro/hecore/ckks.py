"""The CKKS approximate-arithmetic scheme (Cheon/Kim/Kim/Song).

CKKS packs N/2 complex (here: real) values via the canonical embedding and
supports fixed-point arithmetic with per-level rescaling.  CHOCO uses CKKS
for the distance-based algorithms (KNN, K-Means) and PageRank (§5.1), where
values are not integers.

The surface shared with BFV lives in :class:`repro.hecore.rlwe.RlweContext`;
this module holds CKKS's own: the canonical-embedding encoder, the message
added as encoded and recovered by a centered CRT at the ciphertext's scale,
the scale-tracking multiplies, and rescaling.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

import numpy as np

from repro.hecore.ciphertext import Ciphertext
from repro.hecore.params import EncryptionParameters, SchemeType
from repro.hecore.plaintext import CkksPlaintext
from repro.hecore.polyring import RnsPoly
from repro.hecore.rlwe import RlweContext
from repro.hecore.rns import RnsBase


#: Below this magnitude a rounded float is exact in int64, so a whole block
#: rounds and reduces in numpy; at or above it the rounding runs on Python
#: integers (the same values wherever both apply).
_INT64_EXACT = float(2 ** 62)


def _round_exact(base: RnsBase, scaled: np.ndarray) -> np.ndarray:
    """Round ``(m, n)`` scaled float coefficients to the nearest integers
    (ties to even) as Python integers of any size and reduce them:
    ``(m, k, n)`` canonical residues."""
    return np.stack([base.decompose([int(round(c)) for c in row])
                     for row in scaled])


def _round_to_residues(base: RnsBase, scaled: np.ndarray) -> np.ndarray:
    """:func:`_round_exact`'s residues, computed in int64 when every rounded
    coefficient fits."""
    if np.abs(scaled).max() < _INT64_EXACT:
        return base.lift_signed(np.rint(scaled).astype(np.int64))
    return _round_exact(base, scaled)


def scales_close(a: float, b: float) -> bool:
    """``np.isclose(a, b, rtol=1e-9)`` on Python floats — the check every
    CKKS add/sub makes, without numpy's per-call overhead.  Equal
    infinities match; NaN, or an infinity against anything else, does not."""
    a, b = float(a), float(b)
    return a == b or abs(a - b) <= 1e-8 + 1e-9 * abs(b) < math.inf


class CkksEncoder:
    """Canonical-embedding encoder: N/2 slots ↔ a scaled integer polynomial."""

    def __init__(self, params: EncryptionParameters):
        if params.scheme is not SchemeType.CKKS:
            raise ValueError("CkksEncoder is CKKS-only")
        self.params = params
        n = params.poly_degree
        m = 2 * n
        # psi = exp(i*pi/N): primitive 2N-th complex root of unity.
        self._psi_powers = np.exp(1j * np.pi * np.arange(n) / n)
        # Slot i evaluates at psi^(3^i); position j holds psi^(2j+1).
        positions = np.empty(n // 2, dtype=np.int64)
        power = 1
        for i in range(n // 2):
            positions[i] = (power - 1) // 2
            power = (power * 3) % m
        self._positions = positions
        self._conj_positions = n - 1 - positions

    @property
    def slot_count(self) -> int:
        return self.params.poly_degree // 2

    def encode(self, values: Sequence[float], scale: Optional[float] = None,
               base: Optional[RnsBase] = None) -> CkksPlaintext:
        """Encode up to N/2 values at the given *scale* over *base*."""
        return self.encode_many([values], scale=scale, base=base)[0]

    def encode_many(self, values_list: Sequence[Sequence[float]],
                    scale: Optional[float] = None,
                    base: Optional[RnsBase] = None) -> List[CkksPlaintext]:
        """Encode M slot vectors with one stacked ``(m, n)`` FFT; row ``i``
        is bit-identical to ``encode(values_list[i])``."""
        if len(values_list) == 0:
            return []
        params = self.params
        scale = params.scale if scale is None else float(scale)
        base = params.data_base if base is None else base
        blocks = _round_to_residues(
            base, self._scaled_coefficients(values_list, scale))
        return [CkksPlaintext(RnsPoly(base, params.poly_degree, block), scale)
                for block in blocks]

    def _scaled_coefficients(self, values_list: Sequence[Sequence[float]],
                             scale: float) -> np.ndarray:
        """The ``(m, n)`` real coefficient rows whose canonical embedding
        holds the slot vectors, times *scale*, before rounding."""
        n = self.params.poly_degree
        evals = np.zeros((len(values_list), n), dtype=np.complex128)
        for row, values in zip(evals, values_list):
            if len(values) > n // 2:
                raise ValueError(
                    f"too many values ({len(values)}) for {n // 2} slots")
            slots = np.asarray(values, dtype=np.complex128)
            row[self._positions[: len(slots)]] = slots
            row[self._conj_positions[: len(slots)]] = np.conj(slots)
        x = np.fft.fft(evals, axis=-1) / n
        return np.real(x * np.conj(self._psi_powers)) * scale

    def decode(self, plaintext: CkksPlaintext) -> np.ndarray:
        """Decode back to N/2 (complex) slot values."""
        ints = plaintext.poly.to_int_coeffs(centered=True)
        coeffs = np.array([float(v) for v in ints])
        return self.decode_rows(coeffs[None, :], plaintext.scale)[0]

    def decode_rows(self, coeff_rows: np.ndarray, scales) -> np.ndarray:
        """Decode M centered-coefficient rows ``(m, n)`` → slot rows
        ``(m, n/2)``; *scales* is a scalar or per-row array."""
        n = self.params.poly_degree
        scales = np.asarray(scales, dtype=np.float64).reshape(-1, 1)
        coeffs = coeff_rows / scales
        evals = n * np.fft.ifft(coeffs * self._psi_powers[None, :], axis=-1)
        return evals[:, self._positions]


class CkksContext(RlweContext):
    """Keys, encoder and evaluator for one CKKS parameter set (the shared
    surface is :class:`RlweContext`'s)."""

    scheme = SchemeType.CKKS
    plaintext_type = CkksPlaintext
    encoder_class = CkksEncoder

    # ------------------------------------------------------------ encoding
    def _level_base(self, plaintext: CkksPlaintext) -> RnsBase:
        """A plaintext encrypts over the chain it was encoded on, which
        must be a prefix of the data chain."""
        base = plaintext.poly.base
        if base.moduli != self.params.data_base.moduli[:len(base)]:
            raise ValueError("plaintext is not encoded on a prefix of the "
                             "data chain")
        return base

    def _message_block(self, base: RnsBase, plaintexts: Sequence[CkksPlaintext]
                       ) -> np.ndarray:
        """The encoded polynomials as they are; they must live over *base*."""
        for pt in plaintexts:
            if pt.poly.base != base or pt.poly.is_ntt:
                raise ValueError("plaintext is not in coefficient form over "
                                 "the ciphertext's level base")
        return np.stack([pt.poly.data for pt in plaintexts])

    # -------------------------------------------------------------- decrypt
    def _plain_rows(self, base: RnsBase, block: np.ndarray) -> np.ndarray:
        """Centered message coefficients of an ``(m, k, n)`` block as floats.

        Uses the exact int64 sub-base CRT (:meth:`RnsBase.
        compose_centered_small`) — CKKS message coefficients are tiny
        relative to ``q``, so almost every coefficient is recovered without
        big integers; flagged ones take the exact path, with identical
        results, and are counted (``decrypt_exact_coeffs``).
        """
        values, unsafe = base.compose_centered_small(block)
        out = values.astype(np.float64)
        if unsafe.any():
            self.counts["decrypt_exact_coeffs"] += int(unsafe.sum())
            for mi, col in zip(*np.nonzero(unsafe)):
                out[mi, col] = float(
                    base.compose_centered(block[mi][:, [col]])[0])
        return out

    def _decrypt_bigint(self, ct: Ciphertext) -> np.ndarray:
        """Exact big-integer reference decrypt (pre-RNS-scaling code path).

        The correctness oracle for the vectorized path and the looped
        baseline of ``bench_client_crypto``; not ``counts``-charged.
        """
        acc = self._raw_decrypt_poly(ct)
        ints = acc.base.compose_centered(acc.data)
        coeffs = np.array([float(v) for v in ints])
        return self.encoder.decode_rows(coeffs[None, :], ct.scale)[0]

    # ------------------------------------------------------------ evaluator
    def _check_aligned(self, a: Ciphertext, b: Ciphertext) -> None:
        super()._check_aligned(a, b)
        if not scales_close(a.scale, b.scale):
            raise ValueError(f"scale mismatch: {a.scale} vs {b.scale}")

    def multiply_plain(self, ct: Ciphertext, plaintext: CkksPlaintext) -> Ciphertext:
        self.counts["multiply_plain"] += 1
        m_ntt = plaintext.poly.to_ntt()
        comps = [(c.to_ntt() * m_ntt).from_ntt() for c in ct.components]
        return Ciphertext(self.params, comps, scale=ct.scale * plaintext.scale)

    def multiply(self, a: Ciphertext, b: Ciphertext,
                 relinearize: bool = True) -> Ciphertext:
        """Ciphertext-ciphertext multiply; scales multiply, rescale after.

        The tensor product is dyadic, so an unrelinearized product stays in
        evaluation form: sums of products accumulate there, and
        :meth:`relinearize` (which takes either form) pays the inverse
        transforms once per sum instead of three per product."""
        self.counts["multiply"] += 1
        if a.level_base != b.level_base:
            raise ValueError("align ciphertext levels before multiplying")
        a0, a1 = (c.to_ntt() for c in a.components)
        b0, b1 = (c.to_ntt() for c in b.components)
        out = Ciphertext(self.params, [a0 * b0, a0 * b1 + a1 * b0, a1 * b1],
                         scale=a.scale * b.scale)
        return self.relinearize(out) if relinearize else out

    def rescale(self, ct: Ciphertext) -> Ciphertext:
        """Drop the last prime, dividing the scale by it (CKKS rescaling)."""
        self.counts["rescale"] += 1
        dropped = ct.level_base.moduli[-1]
        comps = self._mod_down(ct)
        return Ciphertext(self.params, comps, scale=ct.scale / dropped)

    def drop_modulus(self, ct: Ciphertext) -> Ciphertext:
        """Drop the last prime *without* changing the scale (level
        alignment): a row slice, valid in either form since residue rows
        are independent."""
        comps = [RnsPoly(c.base.drop_last(), c.degree, c.data[:-1],
                         is_ntt=c.is_ntt) for c in ct.components]
        return Ciphertext(self.params, comps, scale=ct.scale)

    def mod_switch_down(self, ct: Ciphertext) -> Ciphertext:
        """Counted scale-preserving limb drop (the planner's drop primitive).

        CKKS sheds a residue with :meth:`drop_modulus` — the scale is
        untouched, so decoded values are identical; only noise headroom and
        per-limb compute/bytes shrink.
        """
        if len(ct.level_base) < 2:
            raise ValueError("cannot drop the only remaining residue")
        self.counts["mod_switch"] += 1
        return self.drop_modulus(ct)

    def _align_down(self, ct: Ciphertext) -> Ciphertext:
        return self.drop_modulus(ct)

    #: Complex-conjugate every slot.
    conjugate = RlweContext._rotate_conjugation
