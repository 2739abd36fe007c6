"""The BFV somewhat-homomorphic scheme (Brakerski / Fan-Vercauteren).

Implements the full operation set of Table 1 — encrypt, decrypt, plaintext
and ciphertext add, plaintext and ciphertext multiply, and rotation — plus
SEAL-style invariant-noise-budget measurement, which Table 4 of the paper is
built on.

Everything BFV shares with CKKS — keys, the Figure 5 encrypt pipeline,
decryption, add/sub, relinearization, rotation — lives in
:class:`repro.hecore.rlwe.RlweContext`; this module holds what is BFV's
own: the batching encoder, the Δ-scaled message embedding ``Δm`` and its
``round(t/q ⋅ x)`` recovery, the exact tensor multiply, the noise budget.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.hecore import ntt
from repro.hecore.ciphertext import Ciphertext
from repro.hecore.params import EncryptionParameters, SchemeType
from repro.hecore.plaintext import Plaintext
from repro.hecore.polyring import RnsPoly, aux_base_for
from repro.hecore.rlwe import RlweContext
from repro.hecore.rns import RnsBase, scale_and_round


class BatchEncoder:
    """SIMD batching: N plaintext slots ↔ one polynomial modulo ``t``.

    Slots form a 2 × (N/2) matrix; rotation moves values within each row and
    conjugation swaps the rows, matching SEAL's ``BatchEncoder`` semantics.
    """

    def __init__(self, params: EncryptionParameters):
        if params.scheme is not SchemeType.BFV:
            raise ValueError("BatchEncoder is BFV-only")
        self.params = params
        self.modulus = params.plain_modulus
        n = params.poly_degree
        self._plan = ntt.get_stack_plan(n, (self.modulus,))
        # Slot i of row 0 evaluates the plaintext at psi^(3^i); row 1 at
        # psi^(-3^i).  The forward NTT yields m(psi^(2j+1)) at position j.
        m = 2 * n
        positions = np.empty(n, dtype=np.int64)
        power = 1
        for i in range(n // 2):
            positions[i] = (power - 1) // 2
            positions[n // 2 + i] = (m - power - 1) // 2
            power = (power * 3) % m
        self._positions = positions

    @property
    def slot_count(self) -> int:
        return self.params.poly_degree

    def encode(self, values: Sequence[int], scale: Optional[float] = None,
               base: Optional[RnsBase] = None) -> Plaintext:
        """Pack up to N integers (reduced mod t) into a plaintext.  BFV
        plaintexts are exact and level-free, so *scale* and *base* (the
        signature both encoders share) are ignored."""
        return self.encode_many([values])[0]

    def encode_many(self, values_list: Sequence[Sequence[int]]) -> List[Plaintext]:
        """Encode M slot vectors with one stacked inverse NTT; row ``i`` is
        ``encode(values_list[i])``."""
        n = self.params.poly_degree
        m = len(values_list)
        if m == 0:
            return []
        evals = np.zeros((m, 1, n), dtype=np.int64)
        for i, values in enumerate(values_list):
            if len(values) > n:
                raise ValueError(f"too many values ({len(values)}) for {n} slots")
            evals[i, 0, self._positions[: len(values)]] = np.mod(
                np.asarray(values, dtype=np.int64), self.modulus
            )
        coeffs = self._plan.inverse_batch(evals)[:, 0, :]
        return [Plaintext(row, self.modulus) for row in coeffs]

    def decode(self, plaintext: Plaintext) -> np.ndarray:
        """Unpack a plaintext back into its N slot values."""
        return self.decode_rows(plaintext.coeffs[None, :])[0]

    def decode_rows(self, coeff_rows: np.ndarray, scales=None) -> np.ndarray:
        """Decode M coefficient rows ``(m, n)`` → slot rows ``(m, n)`` with
        one stacked forward NTT; row ``i`` is ``decode`` of row ``i``.
        BFV slots are exact, so *scales* (the signature both encoders share)
        is ignored."""
        evals = self._plan.forward_batch(coeff_rows[:, None, :])[:, 0, :]
        return evals[:, self._positions]


class BfvContext(RlweContext):
    """Keys, encoder and evaluator for one BFV parameter set (the shared
    surface is :class:`RlweContext`'s)."""

    scheme = SchemeType.BFV
    plaintext_type = Plaintext
    encoder_class = BatchEncoder

    # ------------------------------------------------------------ encoding
    def _message_block(self, base: RnsBase, plaintexts: Sequence[Plaintext]
                       ) -> np.ndarray:
        """``Δ·m`` with ``Δ = floor(q/t)`` for the *base* modulus ``q``."""
        delta = base.modulus // self.params.plain_modulus
        msg = base.lift_signed(np.stack([pt.coeffs for pt in plaintexts]))
        return base.scale(msg, delta)

    # -------------------------------------------------------------- decrypt
    def _raw_decrypt_ints(self, ct: Ciphertext) -> List[int]:
        """CRT-composed ``[c0 + c1 s (+ c2 s^2)]_q`` as canonical integers."""
        acc = self._raw_decrypt_poly(ct)
        return acc.base.compose(acc.data)

    def _plain_rows(self, base: RnsBase, block: np.ndarray) -> np.ndarray:
        """``round(t/q · x) mod t`` over an ``(m, k, n)`` residue block.

        The bigint-free RNS scaling (:meth:`RnsBase.scale_and_round_mod`);
        coefficients whose float correction lands inside the guard band are
        recomputed exactly — identical results either way, pinned by tests
        — and counted (``decrypt_exact_coeffs``).
        """
        t = self.params.plain_modulus
        values, unsafe = base.scale_and_round_mod(block, t)
        if unsafe.any():
            self.counts["decrypt_exact_coeffs"] += int(unsafe.sum())
            q = base.modulus
            for mi, col in zip(*np.nonzero(unsafe)):
                x = base.compose(block[mi][:, [col]])
                values[mi, col] = scale_and_round(x, t, q)[0] % t
        return values

    def _decrypt_bigint(self, ct: Ciphertext) -> np.ndarray:
        """Exact big-integer reference decrypt (pre-RNS-scaling code path).

        Kept as the correctness oracle for the vectorized path and as the
        looped baseline of ``bench_client_crypto``; not ``counts``-charged.
        """
        params = self.params
        q = ct.level_base.modulus
        t = params.plain_modulus
        x = self._raw_decrypt_ints(ct)
        coeffs = np.array([v % t for v in scale_and_round(x, t, q)], dtype=np.int64)
        return self.decode(Plaintext(coeffs, t))

    def noise_budget(self, ct: Ciphertext) -> int:
        """Invariant noise budget in bits (SEAL's ``invariant_noise_budget``).

        Exhausting the budget (0 bits) renders the ciphertext undecryptable —
        the constraint Table 4 and rotational redundancy are about.

        Vectorized: a float CRT estimate of ``|t·x mod q| / q`` ranks the
        coefficients, and only the near-maximal candidates are composed to
        exact big integers for the bit-length — the estimate's error
        (``~k²·2⁻⁵³``) is orders of magnitude below the selection tolerance,
        so the returned budget is exact.
        """
        base = ct.level_base
        q = base.modulus
        t = self.params.plain_modulus
        acc = self._raw_decrypt_poly(ct)
        tz = base.scale(acc.data, t)
        frac = base.fractional_positions(tz)
        dist = np.minimum(frac, 1.0 - frac)
        candidates = np.nonzero(dist >= dist.max() - 2.0 ** -40)[0]
        worst = max(abs(v) for v in base.compose_centered(tz[:, candidates]))
        if worst == 0:
            return q.bit_length() - 1
        budget = q.bit_length() - 1 - worst.bit_length()
        return max(0, budget)

    # ------------------------------------------------------------ evaluator
    def multiply_plain(self, ct: Ciphertext, plaintext: Plaintext) -> Ciphertext:
        self.counts["multiply_plain"] += 1
        m_ntt = RnsPoly.from_signed_array(ct.level_base, plaintext.coeffs).to_ntt()
        comps = [(c.to_ntt() * m_ntt).from_ntt() for c in ct.components]
        return Ciphertext(self.params, comps)

    def multiply(self, a: Ciphertext, b: Ciphertext,
                 relinearize: bool = True) -> Ciphertext:
        """Ciphertext-ciphertext multiply (exact big-integer tensor + scale).

        The tensor product is computed exactly over Z via an auxiliary CRT
        base, scaled by t/q with correct rounding, and (by default)
        relinearized back to two components.
        """
        self.counts["multiply"] += 1
        if len(a) != 2 or len(b) != 2:
            raise ValueError("multiply expects 2-component ciphertexts")
        params = self.params
        base = a.level_base
        n = params.poly_degree
        q = base.modulus
        t = params.plain_modulus
        # One extra bit over the tensor-term bound covers the d1a + d1b sum.
        bound_bits = 2 * (q.bit_length() + 1) + n.bit_length() + 3

        ints = [c.to_int_coeffs(centered=True) for c in a.components]
        ints += [c.to_int_coeffs(centered=True) for c in b.components]
        # Lift each component into the auxiliary CRT base and transform it
        # once; the three tensor products then share the four forward NTTs
        # and combine dyadically (d1 sums in evaluation form, saving a
        # big-integer addition pass).
        aux = aux_base_for(n, bound_bits + 1)
        fa0, fa1, fb0, fb1 = (
            RnsPoly.from_int_coeffs(aux, v, n).to_ntt() for v in ints
        )
        d0 = (fa0 * fb0).to_int_coeffs(centered=True)
        d1 = (fa0 * fb1 + fa1 * fb0).to_int_coeffs(centered=True)
        d2 = (fa1 * fb1).to_int_coeffs(centered=True)

        comps = []
        for d in (d0, d1, d2):
            scaled = scale_and_round(d, t, q)
            comps.append(RnsPoly.from_int_coeffs(base, scaled, n))
        out = Ciphertext(params, comps)
        if relinearize:
            out = self.relinearize(out)
        return out

    def mod_switch_down(self, ct: Ciphertext) -> Ciphertext:
        """Drop the last data residue, rescaling the ciphertext by 1/p.

        The invariant noise is (approximately) preserved — ``t·x/q`` is
        unchanged when both ``x`` and ``q`` divide by the dropped prime —
        at the cost of headroom: the budget ceiling falls by ~log2(p).
        A server can use this to shrink result ciphertexts before
        downloading them to the client (the ciphertext is about to be
        decrypted anyway, so the lost headroom is free).
        """
        if len(ct.level_base) < 2:
            raise ValueError("cannot drop the only remaining residue")
        self.counts["mod_switch"] += 1
        comps = self._mod_down(ct)
        return Ciphertext(self.params, comps)

    def _align_down(self, ct: Ciphertext) -> Ciphertext:
        return self.mod_switch_down(ct)

    #: SEAL's names for the row rotation and the row swap.
    rotate_rows = RlweContext.rotate
    rotate_columns = RlweContext._rotate_conjugation
