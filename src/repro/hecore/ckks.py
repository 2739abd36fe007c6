"""The CKKS approximate-arithmetic scheme (Cheon/Kim/Kim/Song).

CKKS packs N/2 complex (here: real) values via the canonical embedding and
supports fixed-point arithmetic with per-level rescaling.  CHOCO uses CKKS
for the distance-based algorithms (KNN, K-Means) and PageRank (§5.1), where
values are not integers.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Optional, Sequence

import numpy as np

from repro.hecore import batchcrypt, hoisting
from repro.hecore.ciphertext import Ciphertext
from repro.hecore.keys import (
    GaloisKeys,
    KeyGenerator,
    MissingEvaluationKey,
    RelinKeys,
    expand_uniform_poly,
    galois_element_for_conjugation,
    galois_element_for_step,
    switch_key,
)
from repro.hecore.params import EncryptionParameters, SchemeType
from repro.hecore.plaintext import CkksPlaintext
from repro.hecore.polyring import RnsPoly
from repro.hecore.random import BlakePrng
from repro.hecore.rns import RnsBase


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
        params = self.params
        scale = params.scale if scale is None else float(scale)
        base = params.data_base if base is None else base
        n = params.poly_degree
        if len(values) > n // 2:
            raise ValueError(f"too many values ({len(values)}) for {n // 2} slots")
        slots = np.zeros(n // 2, dtype=np.complex128)
        slots[: len(values)] = np.asarray(values, dtype=np.complex128)
        evals = np.zeros(n, dtype=np.complex128)
        evals[self._positions] = slots
        evals[self._conj_positions] = np.conj(slots)
        x = np.fft.fft(evals) / n
        coeffs = np.real(x * np.conj(self._psi_powers))
        scaled = [int(round(c * scale)) for c in coeffs]
        return CkksPlaintext(RnsPoly.from_int_coeffs(base, scaled, n), scale)

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


class CkksContext:
    """Keys, encoder and evaluator for one CKKS parameter set."""

    def __init__(self, params: EncryptionParameters, seed: Optional[object] = None):
        if params.scheme is not SchemeType.CKKS:
            raise ValueError("CkksContext requires CKKS parameters")
        self.params = params
        self.keygen = KeyGenerator(params, seed)
        self.encoder = CkksEncoder(params)
        self._prng = BlakePrng(seed).fork("ckks-encryptor") if seed is not None else BlakePrng()
        self._relin: Optional[RelinKeys] = None
        self._galois: Optional[GaloisKeys] = None
        self.counts: Counter = Counter()

    # --------------------------------------------------------------- keys
    def relin_keys(self) -> RelinKeys:
        if self._relin is None:
            self._relin = self.keygen.relin_keys()
        return self._relin

    def make_galois_keys(self, steps: Iterable[int], include_conjugation: bool = False):
        """Generate (or extend) rotation keys; cached elements are reused."""
        self._galois = self.keygen.galois_keys(
            steps, include_conjugation=include_conjugation,
            existing=self._galois)
        return self._galois

    # ------------------------------------------------------------ encoding
    def encode(self, values: Sequence[float], scale: Optional[float] = None,
               base: Optional[RnsBase] = None) -> CkksPlaintext:
        return self.encoder.encode(values, scale=scale, base=base)

    def decode(self, plaintext: CkksPlaintext) -> np.ndarray:
        return self.encoder.decode(plaintext)

    # ------------------------------------------------------- encrypt/decrypt
    def encrypt(self, values, rng: Optional[BlakePrng] = None) -> Ciphertext:
        """Encrypt a value vector (or a pre-encoded :class:`CkksPlaintext`).

        *rng* overrides the context PRNG (used by the batch-equivalence
        property tests to replay :meth:`encrypt_many`'s fork schedule).
        """
        plaintext = values if isinstance(values, CkksPlaintext) else self.encode(values)
        self.counts["encrypt"] += 1
        params = self.params
        n = params.poly_degree
        full = params.full_base
        pk = self.keygen.public_key()
        rng = self._prng if rng is None else rng

        u = RnsPoly.from_signed_array(full, rng.sample_ternary(n)).to_ntt()
        e1 = RnsPoly.from_signed_array(full, rng.sample_error(n))
        e2 = RnsPoly.from_signed_array(full, rng.sample_error(n))
        c0 = (pk.p0 * u).from_ntt() + e1
        c1 = (pk.p1 * u).from_ntt() + e2
        for _ in params.special_primes:
            c0 = c0.divide_and_round_by_last()
            c1 = c1.divide_and_round_by_last()
        c0 = c0 + plaintext.poly
        return Ciphertext(params, [c0, c1], scale=plaintext.scale)

    def encrypt_many(self, values_list: Sequence,
                     rng: Optional[BlakePrng] = None) -> list:
        """Encrypt M value vectors (or plaintexts) as one stacked batch.

        Same structure and PRNG fork schedule as
        :meth:`BfvContext.encrypt_many` (``batch-encrypt`` → ``u`` / ``e1`` /
        ``e2`` forks, one ``(2M·k, N)`` stacked NTT pair, vectorized
        mod-switch); the encoded message is added directly instead of
        Δ-scaled.  Bit-identical to looped :meth:`encrypt` under the fork
        schedule.
        """
        plaintexts = [v if isinstance(v, CkksPlaintext) else self.encode(v)
                      for v in values_list]
        m = len(plaintexts)
        if m == 0:
            return []
        self.counts["encrypt"] += m
        params = self.params
        n = params.poly_degree
        full = params.full_base
        pk = self.keygen.public_key()
        rng = self._prng.fork("batch-encrypt") if rng is None else rng

        u_all = rng.fork("u").sample_ternary((m, n))
        e1_all = rng.fork("e1").sample_error((m, n))
        e2_all = rng.fork("e2").sample_error((m, n))
        msg_all = np.stack([pt.poly.data for pt in plaintexts])
        out: list = []
        # One (M, N) draw per stream above; cache-sized ciphertext tiles
        # below (see batchcrypt.tile_size).
        tile = batchcrypt.tile_size(full, n, parts=2)
        for start in range(0, m, tile):
            stop = min(start + tile, m)
            g = stop - start
            u = batchcrypt.signed_block(full, u_all[start:stop])
            e1 = batchcrypt.signed_block(full, e1_all[start:stop])
            e2 = batchcrypt.signed_block(full, e2_all[start:stop])
            # Raw butterfly-order sandwich (see bfv.encrypt_many): the
            # forward unscramble and inverse scramble gathers cancel, and the
            # dyadic runs in Shoup form against the pre-permuted public key.
            u_ntt = batchcrypt.forward_block(full, n, u, raw=True)
            prod = np.concatenate([
                batchcrypt.dyadic_block_raw(full, u_ntt, pk.p0),
                batchcrypt.dyadic_block_raw(full, u_ntt, pk.p1),
            ])
            block = batchcrypt.inverse_block(full, n, prod, raw=True)
            block = batchcrypt.add_blocks(full, block,
                                          np.concatenate([e1, e2]))
            base = full
            for _ in params.special_primes:
                base, block = batchcrypt.divide_and_round_by_last_block(
                    base, block)
            c0 = batchcrypt.add_blocks(base, block[:g], msg_all[start:stop])
            c0_polys = batchcrypt.split_polys(base, n, c0)
            c1_polys = batchcrypt.split_polys(base, n, block[g:])
            out.extend(
                Ciphertext(params, [p0, p1], scale=pt.scale)
                for p0, p1, pt in zip(c0_polys, c1_polys,
                                      plaintexts[start:stop]))
        return out

    def encrypt_symmetric(self, values, seed: Optional[bytes] = None,
                          rng: Optional[BlakePrng] = None) -> Ciphertext:
        """Symmetric (secret-key) encryption with a seed-expanded ``c1``.

        See :meth:`BfvContext.encrypt_symmetric`; the CKKS variant adds the
        scaled message directly (no Δ scaling).
        """
        plaintext = values if isinstance(values, CkksPlaintext) else self.encode(values)
        self.counts["encrypt"] += 1
        params = self.params
        n = params.poly_degree
        base = params.data_base
        rng = self._prng if rng is None else rng
        if seed is None:
            seed = rng.random_bytes(32)
        a = expand_uniform_poly(seed, base, n)
        e = RnsPoly.from_signed_array(base, rng.sample_error(n))
        s_ntt = self.keygen.secret_key().restricted_ntt(base, params.full_base)
        c0 = -(a.to_ntt() * s_ntt).from_ntt() + e + plaintext.poly
        return Ciphertext(params, [c0, a], scale=plaintext.scale, seed=bytes(seed))

    def encrypt_symmetric_many(self, values_list: Sequence,
                               rng: Optional[BlakePrng] = None) -> list:
        """Seed-compressed symmetric encryption of M vectors as one batch.

        PRNG schedule matches :meth:`BfvContext.encrypt_symmetric_many`
        (``batch-encrypt-symmetric`` → ``seed`` / ``e`` forks).
        """
        plaintexts = [v if isinstance(v, CkksPlaintext) else self.encode(v)
                      for v in values_list]
        m = len(plaintexts)
        if m == 0:
            return []
        self.counts["encrypt"] += m
        params = self.params
        n = params.poly_degree
        base = params.data_base
        rng = (self._prng.fork("batch-encrypt-symmetric")
               if rng is None else rng)
        seed_rng = rng.fork("seed")
        seeds = [seed_rng.random_bytes(32) for _ in range(m)]
        e_all = rng.fork("e").sample_error((m, n))
        s_ntt = self.keygen.secret_key().restricted_ntt(base, params.full_base)
        msg_all = np.stack([pt.poly.data for pt in plaintexts])
        out: list = []
        tile = batchcrypt.tile_size(base, n, parts=2)
        for start in range(0, m, tile):
            stop = min(start + tile, m)
            e = batchcrypt.signed_block(base, e_all[start:stop])
            a_block = np.stack([expand_uniform_poly(seed, base, n).data
                                for seed in seeds[start:stop]])
            a_ntt = batchcrypt.forward_block(base, n, a_block, raw=True)
            prod = batchcrypt.inverse_block(
                base, n, batchcrypt.dyadic_block_raw(base, a_ntt, s_ntt),
                raw=True)
            c0 = batchcrypt.add_blocks(
                base, batchcrypt.negate_block(base, prod), e)
            c0 = batchcrypt.add_blocks(base, c0, msg_all[start:stop])
            c0_polys = batchcrypt.split_polys(base, n, c0)
            a_polys = batchcrypt.split_polys(base, n, a_block)
            out.extend(
                Ciphertext(params, [p0, a], scale=pt.scale, seed=bytes(seed))
                for p0, a, pt, seed in zip(c0_polys, a_polys,
                                           plaintexts[start:stop],
                                           seeds[start:stop]))
        return out

    def _raw_decrypt_poly(self, ct: Ciphertext) -> RnsPoly:
        """``[c0 + c1 s (+ c2 s^2)]_q`` in coefficient form over the level base."""
        base = ct.level_base
        s_ntt = self.keygen.secret_key().restricted_ntt(base, self.params.full_base)
        acc = ct.components[0].from_ntt()
        s_power = s_ntt
        for comp in ct.components[1:]:
            acc = acc + (comp.to_ntt() * s_power).from_ntt()
            s_power = s_power * s_ntt
        return acc.from_ntt()

    def _plain_coeffs(self, base, block: np.ndarray) -> np.ndarray:
        """Centered message coefficients of an ``(m, k, n)`` block as floats.

        Uses the exact int64 sub-base CRT (:meth:`RnsBase.
        compose_centered_small`) — CKKS message coefficients are tiny
        relative to ``q``, so almost every coefficient is recovered without
        big integers; flagged ones take the exact path, with identical
        results.
        """
        values, unsafe = base.compose_centered_small(block)
        out = values.astype(np.float64)
        if unsafe.any():
            for mi, col in zip(*np.nonzero(unsafe)):
                out[mi, col] = float(
                    base.compose_centered(block[mi][:, [col]])[0])
        return out

    def decrypt(self, ct: Ciphertext) -> np.ndarray:
        """Decrypt to the (approximate) slot vector.

        Bigint-free: the centered coefficients come from the vectorized
        sub-base CRT rather than per-coefficient Python integers.
        """
        self.counts["decrypt"] += 1
        acc = self._raw_decrypt_poly(ct)
        coeffs = self._plain_coeffs(acc.base, acc.data[None])[0]
        return self.encoder.decode_rows(coeffs[None, :], ct.scale)[0]

    def _decrypt_bigint(self, ct: Ciphertext) -> np.ndarray:
        """Exact big-integer reference decrypt (pre-RNS-scaling code path).

        The correctness oracle for the vectorized path and the looped
        baseline of ``bench_client_crypto``; not ``counts``-charged.
        """
        acc = self._raw_decrypt_poly(ct)
        ints = acc.base.compose_centered(acc.data)
        coeffs = np.array([float(v) for v in ints])
        return self.encoder.decode_rows(coeffs[None, :], ct.scale)[0]

    def decrypt_many(self, cts: Sequence[Ciphertext]) -> list:
        """Decrypt M ciphertexts as stacked batches.

        Groups 2-component ciphertexts by level base into ``(M, k, n)``
        blocks (one stacked NTT pair, one vectorized CRT, one batched
        decode); odd ciphertexts fall back to :meth:`decrypt`.  Bit-identical
        to looped :meth:`decrypt` calls.
        """
        results: list = [None] * len(cts)
        groups = {}
        for i, ct in enumerate(cts):
            if len(ct) == 2:
                groups.setdefault(ct.level_base.moduli, []).append(i)
            else:
                results[i] = self.decrypt(ct)
        params = self.params
        n = params.poly_degree
        for indices in groups.values():
            base = cts[indices[0]].level_base
            s_ntt = self.keygen.secret_key().restricted_ntt(base, params.full_base)
            coeff_rows = []
            tile = batchcrypt.tile_size(base, n, parts=2)
            for start in range(0, len(indices), tile):
                chunk = indices[start:start + tile]
                c0 = batchcrypt.stack_components(
                    [cts[i].components[0] for i in chunk])
                c1 = batchcrypt.stack_components(
                    [cts[i].components[1] for i in chunk])
                prod = batchcrypt.inverse_block(
                    base, n,
                    batchcrypt.dyadic_block_raw(
                        base, batchcrypt.forward_block(base, n, c1, raw=True),
                        s_ntt),
                    raw=True)
                acc = batchcrypt.add_blocks(base, c0, prod)
                coeff_rows.append(self._plain_coeffs(base, acc))
            coeffs = np.concatenate(coeff_rows)
            scales = np.array([cts[i].scale for i in indices])
            slots = self.encoder.decode_rows(coeffs, scales)
            for row, i in enumerate(indices):
                results[i] = slots[row]
            self.counts["decrypt"] += len(indices)
        return results

    # ------------------------------------------------------------ evaluator
    def _check_aligned(self, a: Ciphertext, b: Ciphertext) -> None:
        if a.level_base != b.level_base:
            raise ValueError("align ciphertext levels before combining them")
        if not np.isclose(a.scale, b.scale, rtol=1e-9):
            raise ValueError(f"scale mismatch: {a.scale} vs {b.scale}")

    def add(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        self.counts["add"] += 1
        self._check_aligned(a, b)
        comps = [x + y for x, y in zip(a.components, b.components)]
        return Ciphertext(self.params, comps, scale=a.scale)

    def sub(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        self.counts["add"] += 1
        self._check_aligned(a, b)
        comps = [x - y for x, y in zip(a.components, b.components)]
        return Ciphertext(self.params, comps, scale=a.scale)

    def negate(self, a: Ciphertext) -> Ciphertext:
        return Ciphertext(self.params, [-c for c in a.components], scale=a.scale)

    def add_plain(self, ct: Ciphertext, plaintext: CkksPlaintext) -> Ciphertext:
        self.counts["add_plain"] += 1
        comps = [c.copy() for c in ct.components]
        comps[0] = comps[0] + plaintext.poly
        return Ciphertext(self.params, comps, scale=ct.scale)

    def multiply_plain(self, ct: Ciphertext, plaintext: CkksPlaintext) -> Ciphertext:
        self.counts["multiply_plain"] += 1
        m_ntt = plaintext.poly.to_ntt()
        comps = [(c.to_ntt() * m_ntt).from_ntt() for c in ct.components]
        return Ciphertext(self.params, comps, scale=ct.scale * plaintext.scale)

    def multiply(self, a: Ciphertext, b: Ciphertext,
                 relinearize: bool = True) -> Ciphertext:
        """Ciphertext-ciphertext multiply; scales multiply, rescale after."""
        self.counts["multiply"] += 1
        if a.level_base != b.level_base:
            raise ValueError("align ciphertext levels before multiplying")
        a0, a1 = (c.to_ntt() for c in a.components)
        b0, b1 = (c.to_ntt() for c in b.components)
        d0 = a0 * b0
        d1 = a0 * b1 + a1 * b0
        d2 = a1 * b1
        out = Ciphertext(self.params, [d0.from_ntt(), d1.from_ntt(), d2.from_ntt()],
                         scale=a.scale * b.scale)
        if relinearize:
            out = self.relinearize(out)
        return out

    def square(self, a: Ciphertext, relinearize: bool = True) -> Ciphertext:
        return self.multiply(a, a, relinearize=relinearize)

    def relinearize(self, ct: Ciphertext) -> Ciphertext:
        if len(ct) == 2:
            return ct
        if len(ct) != 3:
            raise ValueError("relinearize expects a 3-component ciphertext")
        self.counts["relinearize"] += 1
        u0, u1 = switch_key(ct.components[2].from_ntt(), self.relin_keys(), self.params)
        return Ciphertext(
            self.params,
            [ct.components[0].from_ntt() + u0, ct.components[1].from_ntt() + u1],
            scale=ct.scale,
        )

    def rescale(self, ct: Ciphertext) -> Ciphertext:
        """Drop the last prime, dividing the scale by it (CKKS rescaling)."""
        self.counts["rescale"] += 1
        dropped = ct.level_base.moduli[-1]
        comps = [c.from_ntt().divide_and_round_by_last() for c in ct.components]
        return Ciphertext(self.params, comps, scale=ct.scale / dropped)

    def drop_modulus(self, ct: Ciphertext) -> Ciphertext:
        """Drop the last prime *without* changing the scale (level alignment)."""
        comps = []
        for c in ct.components:
            c = c.from_ntt()
            comps.append(RnsPoly(c.base.drop_last(), c.degree, c.data[:-1], is_ntt=False))
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

    def align(self, a: Ciphertext, b: Ciphertext):
        """Bring two ciphertexts to a common level for add/multiply."""
        while len(a.level_base) > len(b.level_base):
            a = self.drop_modulus(a)
        while len(b.level_base) > len(a.level_base):
            b = self.drop_modulus(b)
        return a, b

    def rotate(self, ct: Ciphertext, steps: int,
               galois_keys: Optional[GaloisKeys] = None) -> Ciphertext:
        """Rotate the slot vector left by *steps*."""
        self.counts["rotate"] += 1
        g = galois_element_for_step(steps, self.params.poly_degree)
        return self._apply_galois(ct, g, galois_keys)

    def conjugate(self, ct: Ciphertext,
                  galois_keys: Optional[GaloisKeys] = None) -> Ciphertext:
        self.counts["rotate"] += 1
        g = galois_element_for_conjugation(self.params.poly_degree)
        return self._apply_galois(ct, g, galois_keys)

    def _apply_galois(self, ct: Ciphertext, galois_elt: int,
                      galois_keys: Optional[GaloisKeys]) -> Ciphertext:
        if galois_elt == 1:
            return ct.copy()
        keys = galois_keys or self._galois
        if keys is None:
            raise MissingEvaluationKey("rotation requires Galois keys")
        self.counts["naive_decompose"] += 1
        # apply_automorphism is form-agnostic (NTT form permutes evaluations
        # in place); switch_key converts to coefficient form itself.
        c0 = ct.components[0].apply_automorphism(galois_elt).from_ntt()
        c1 = ct.components[1].apply_automorphism(galois_elt)
        u0, u1 = switch_key(c1, keys.key_for(galois_elt), self.params)
        return Ciphertext(self.params, [c0 + u0, u1], scale=ct.scale)

    # ------------------------------------------------- hoisted rotations
    def rotate_many(self, ct: Ciphertext, steps: Sequence[int],
                    galois_keys: Optional[GaloisKeys] = None,
                    include_conjugation: bool = False):
        """Rotate *ct* by every step in *steps*, sharing one hoisted
        key-switch decomposition; bit-exact with sequential :meth:`rotate`
        calls (see :mod:`repro.hecore.hoisting`).  With
        *include_conjugation* the conjugated ciphertext is appended."""
        return hoisting.rotate_many(self, ct, steps, galois_keys,
                                    include_conjugation=include_conjugation)

    def rotate_and_sum(self, ct: Ciphertext, width: int,
                       galois_keys: Optional[GaloisKeys] = None) -> Ciphertext:
        """Fused sum of the first *width* rotations of *ct* (power of two)."""
        return hoisting.rotate_and_sum(self, ct, width, galois_keys)
