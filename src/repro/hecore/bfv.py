"""The BFV somewhat-homomorphic scheme (Brakerski / Fan-Vercauteren).

Implements the full operation set of Table 1 — encrypt, decrypt, plaintext
and ciphertext add, plaintext and ciphertext multiply, and rotation — plus
SEAL-style invariant-noise-budget measurement, which Table 4 of the paper is
built on.

Encryption follows the paper's Figure 5 pipeline: sample ``u`` (ternary) and
``e1, e2`` (error), multiply with the public keys over the full RNS base,
modulus-switch away the key primes, and only then add the scaled message
``Δm`` over the remaining ``k − 1`` residues.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, List, Optional, Sequence

import numpy as np

from repro.hecore import batchcrypt, hoisting, ntt
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
from repro.hecore.plaintext import Plaintext
from repro.hecore.polyring import RnsPoly, aux_base_for
from repro.hecore.random import BlakePrng
from repro.hecore.rns import centered_mod, scale_and_round


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

    def encode(self, values: Sequence[int]) -> Plaintext:
        """Pack up to N integers (reduced mod t) into a plaintext."""
        n = self.params.poly_degree
        if len(values) > n:
            raise ValueError(f"too many values ({len(values)}) for {n} slots")
        slots = np.zeros(n, dtype=np.int64)
        slots[: len(values)] = np.mod(np.asarray(values, dtype=np.int64), self.modulus)
        evals = np.zeros(n, dtype=np.int64)
        evals[self._positions] = slots
        return Plaintext(self._plan.inverse(evals[None, :])[0], self.modulus)

    def encode_many(self, values_list: Sequence[Sequence[int]]) -> List[Plaintext]:
        """Encode M slot vectors with one stacked inverse NTT.

        Bit-identical to M :meth:`encode` calls (the stacked transform is
        bit-exact with the per-row one).
        """
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
        evals = self._plan.forward(plaintext.coeffs[None, :])[0]
        return evals[self._positions]

    def decode_rows(self, coeff_rows: np.ndarray) -> np.ndarray:
        """Decode M coefficient rows ``(m, n)`` → slot rows ``(m, n)`` with
        one stacked forward NTT; bit-identical to M :meth:`decode` calls."""
        evals = self._plan.forward_batch(coeff_rows[:, None, :])[:, 0, :]
        return evals[:, self._positions]


class BfvContext:
    """Keys, encoder and evaluator for one BFV parameter set.

    The ``counts`` attribute tallies every HE operation executed, which the
    client-aided protocol layer multiplies by per-operation platform costs —
    the paper's own §5.2 methodology.
    """

    def __init__(self, params: EncryptionParameters, seed: Optional[object] = None):
        if params.scheme is not SchemeType.BFV:
            raise ValueError("BfvContext requires BFV parameters")
        self.params = params
        self.keygen = KeyGenerator(params, seed)
        self.encoder = BatchEncoder(params)
        self._prng = BlakePrng(seed).fork("bfv-encryptor") if seed is not None else BlakePrng()
        self._relin: Optional[RelinKeys] = None
        self._galois: Optional[GaloisKeys] = None
        self.counts: Counter = Counter()

    # --------------------------------------------------------------- keys
    def relin_keys(self) -> RelinKeys:
        if self._relin is None:
            self._relin = self.keygen.relin_keys()
        return self._relin

    def make_galois_keys(self, steps: Iterable[int], include_conjugation: bool = False):
        """Generate (or extend) rotation keys for the given step set.

        Elements already generated are reused as-is (same key objects, so
        their pre-stacked digit caches survive); only missing elements cost
        keygen work.
        """
        self._galois = self.keygen.galois_keys(
            steps, include_conjugation=include_conjugation,
            existing=self._galois)
        return self._galois

    # ------------------------------------------------------------ encoding
    def encode(self, values: Sequence[int]) -> Plaintext:
        return self.encoder.encode(values)

    def decode(self, plaintext: Plaintext) -> np.ndarray:
        return self.encoder.decode(plaintext)

    def _as_plaintexts(self, values_list: Sequence) -> List[Plaintext]:
        """Encode the raw entries of a mixed values/plaintexts batch with one
        stacked inverse NTT, passing pre-encoded plaintexts through."""
        plaintexts = [v if isinstance(v, Plaintext) else None
                      for v in values_list]
        raw = [v for v, pt in zip(values_list, plaintexts) if pt is None]
        if raw:
            encoded = iter(self.encoder.encode_many(raw))
            plaintexts = [pt if pt is not None else next(encoded)
                          for pt in plaintexts]
        return plaintexts

    # ------------------------------------------------------- encrypt/decrypt
    def encrypt(self, values, rng: Optional[BlakePrng] = None) -> Ciphertext:
        """Encrypt a slot vector (or a pre-encoded :class:`Plaintext`).

        *rng* overrides the context PRNG (used by the batch-equivalence
        property tests to replay :meth:`encrypt_many`'s fork schedule); the
        default draws from the context stream exactly as before.
        """
        plaintext = values if isinstance(values, Plaintext) else self.encode(values)
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
        # Modulus-switch away the key primes (Figure 5's Mod Switching stage).
        for _ in params.special_primes:
            c0 = c0.divide_and_round_by_last()
            c1 = c1.divide_and_round_by_last()
        # Scale the encoded message by Δ = floor(q/t) and add over k−1 residues.
        delta = params.data_base.modulus // params.plain_modulus
        m_poly = RnsPoly.from_signed_array(params.data_base, plaintext.coeffs)
        c0 = c0 + m_poly.scalar_multiply(delta)
        return Ciphertext(params, [c0, c1])

    def encrypt_many(self, values_list: Sequence,
                     rng: Optional[BlakePrng] = None) -> List[Ciphertext]:
        """Encrypt M slot vectors (or plaintexts) as one stacked batch.

        All randomness for the batch is drawn as ``(M, N)`` blocks from
        labeled forks of the context PRNG (``batch-encrypt`` → ``u`` /
        ``e1`` / ``e2``), so row ``i`` of each block equals the ``i``-th
        sequential draw from the same fork — the schedule the equivalence
        tests replay.  Both public-key products run through a single
        ``(2M·k, N)`` stacked NTT pair, and the mod-switch and Δ-scaling are
        one vectorized pass over the whole block.
        """
        plaintexts = self._as_plaintexts(values_list)
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
        msg_all = np.stack([pt.coeffs for pt in plaintexts])
        delta = params.data_base.modulus // params.plain_modulus
        out: List[Ciphertext] = []
        # Sampling above is one (M, N) draw per stream; the kernel pipeline
        # below runs over cache-sized ciphertext tiles so each tile's blocks
        # stay resident from the NTT through the Δ-scaling.
        tile = batchcrypt.tile_size(full, n, parts=2)
        for start in range(0, m, tile):
            stop = min(start + tile, m)
            g = stop - start
            u = batchcrypt.signed_block(full, u_all[start:stop])
            e1 = batchcrypt.signed_block(full, e1_all[start:stop])
            e2 = batchcrypt.signed_block(full, e2_all[start:stop])
            # Raw butterfly-order sandwich: forward without the unscramble
            # gather, Shoup dyadic against the pre-permuted public key, and a
            # prescrambled inverse — the two permutation passes cancel.
            u_ntt = batchcrypt.forward_block(full, n, u, raw=True)
            # c0 and c1 products stacked into one (2g, k, n) block: a single
            # inverse transform covers both components of every ciphertext.
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
            msg = batchcrypt.signed_block(base, msg_all[start:stop])
            c0 = batchcrypt.add_blocks(
                base, block[:g],
                batchcrypt.scalar_multiply_block(base, msg, delta))
            c0_polys = batchcrypt.split_polys(base, n, c0)
            c1_polys = batchcrypt.split_polys(base, n, block[g:])
            out.extend(Ciphertext(params, [p0, p1])
                       for p0, p1 in zip(c0_polys, c1_polys))
        return out

    def encrypt_symmetric(self, values, seed: Optional[bytes] = None,
                          rng: Optional[BlakePrng] = None) -> Ciphertext:
        """Symmetric (secret-key) encryption with a seed-expanded ``c1``.

        Fresh client uploads don't need public-key encryption: the client
        owns the secret key, and deriving the uniform component from a seed
        lets the wire format carry only ``c0`` plus 32 bytes (the
        seed-compression extension; see Ciphertext.size_bytes).
        """
        plaintext = values if isinstance(values, Plaintext) else self.encode(values)
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
        c0 = -(a.to_ntt() * s_ntt).from_ntt() + e
        delta = base.modulus // params.plain_modulus
        m_poly = RnsPoly.from_signed_array(base, plaintext.coeffs)
        c0 = c0 + m_poly.scalar_multiply(delta)
        return Ciphertext(params, [c0, a], seed=bytes(seed))

    def encrypt_symmetric_many(self, values_list: Sequence,
                               rng: Optional[BlakePrng] = None
                               ) -> List[Ciphertext]:
        """Seed-compressed symmetric encryption of M vectors as one batch.

        PRNG schedule: the 32-byte seeds come sequentially from the ``seed``
        fork of a ``batch-encrypt-symmetric`` fork, the error block as one
        ``(M, N)`` draw from its ``e`` fork.  The ``a·s`` products share one
        stacked forward/inverse NTT pair across the batch.
        """
        plaintexts = self._as_plaintexts(values_list)
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
        delta = base.modulus // params.plain_modulus
        msg_all = np.stack([pt.coeffs for pt in plaintexts])
        out: List[Ciphertext] = []
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
            msg = batchcrypt.signed_block(base, msg_all[start:stop])
            c0 = batchcrypt.add_blocks(
                base, c0, batchcrypt.scalar_multiply_block(base, msg, delta))
            c0_polys = batchcrypt.split_polys(base, n, c0)
            a_polys = batchcrypt.split_polys(base, n, a_block)
            out.extend(
                Ciphertext(params, [p0, a], seed=bytes(seed))
                for p0, a, seed in zip(c0_polys, a_polys, seeds[start:stop]))
        return out

    def _raw_decrypt_poly(self, ct: Ciphertext) -> RnsPoly:
        """``[c0 + c1 s (+ c2 s^2)]_q`` in coefficient form over the level base."""
        params = self.params
        base = ct.level_base
        s_ntt = self.keygen.secret_key().restricted_ntt(base, params.full_base)
        acc = ct.components[0].from_ntt()
        s_power = s_ntt
        for comp in ct.components[1:]:
            acc = acc + (comp.to_ntt() * s_power).from_ntt()
            s_power = s_power * s_ntt
        return acc.from_ntt()

    def _raw_decrypt_ints(self, ct: Ciphertext) -> List[int]:
        """CRT-composed ``[c0 + c1 s (+ c2 s^2)]_q`` as canonical integers."""
        acc = self._raw_decrypt_poly(ct)
        return acc.base.compose(acc.data)

    def _scale_to_plain(self, base, block: np.ndarray) -> np.ndarray:
        """``round(t/q · x) mod t`` over an ``(m, k, n)`` residue block.

        The bigint-free RNS scaling (:meth:`RnsBase.scale_and_round_mod`);
        coefficients whose float correction lands inside the guard band are
        recomputed exactly — identical results either way, pinned by tests.
        """
        t = self.params.plain_modulus
        values, unsafe = base.scale_and_round_mod(block, t)
        if unsafe.any():
            q = base.modulus
            for mi, col in zip(*np.nonzero(unsafe)):
                x = base.compose(block[mi][:, [col]])
                values[mi, col] = scale_and_round(x, t, q)[0] % t
        return values

    def decrypt(self, ct: Ciphertext) -> np.ndarray:
        """Decrypt to the slot vector (Eq. 3: round(t/q ⋅ [c0 + c1 s]_q) mod t).

        Runs entirely in vectorized RNS arithmetic — no big-integer CRT
        composition; see :meth:`RnsBase.scale_and_round_mod`.
        """
        self.counts["decrypt"] += 1
        acc = self._raw_decrypt_poly(ct)
        coeffs = self._scale_to_plain(acc.base, acc.data[None])[0]
        return self.decode(Plaintext(coeffs, self.params.plain_modulus))

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

    def decrypt_many(self, cts: Sequence[Ciphertext]) -> List[np.ndarray]:
        """Decrypt M ciphertexts as stacked batches.

        Two-component ciphertexts sharing a level base form one ``(M, k, n)``
        block: a single stacked NTT pair for the ``c1·s`` products, one
        vectorized RNS scaling, and one stacked decode.  Odd ciphertexts
        (3-component, lone bases) fall back to :meth:`decrypt` individually.
        Results are bit-identical to looped :meth:`decrypt` calls.
        """
        results: List[Optional[np.ndarray]] = [None] * len(cts)
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
            # Cache-sized ciphertext tiles: each tile's block stays resident
            # from the c1 forward transform through the RNS scaling.
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
                coeff_rows.append(self._scale_to_plain(base, acc))
            slots = self.encoder.decode_rows(np.concatenate(coeff_rows))
            for row, i in enumerate(indices):
                results[i] = slots[row]
            self.counts["decrypt"] += len(indices)
        return results

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
        tcol = np.array([t % p for p in base.moduli], dtype=np.int64).reshape(-1, 1)
        tz = np.mod(acc.data * tcol, base.moduli_col)
        frac = base.fractional_positions(tz)
        dist = np.minimum(frac, 1.0 - frac)
        candidates = np.nonzero(dist >= dist.max() - 2.0 ** -40)[0]
        worst = max(abs(v) for v in base.compose_centered(tz[:, candidates]))
        if worst == 0:
            return q.bit_length() - 1
        budget = q.bit_length() - 1 - worst.bit_length()
        return max(0, budget)

    # ------------------------------------------------------------ evaluator
    def add(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        self.counts["add"] += 1
        if len(a) != len(b):
            raise ValueError("cannot add ciphertexts of different sizes")
        comps = [x + y for x, y in zip(a.components, b.components)]
        return Ciphertext(self.params, comps)

    def sub(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        self.counts["add"] += 1
        comps = [x - y for x, y in zip(a.components, b.components)]
        return Ciphertext(self.params, comps)

    def negate(self, a: Ciphertext) -> Ciphertext:
        return Ciphertext(self.params, [-c for c in a.components])

    def add_plain(self, ct: Ciphertext, plaintext: Plaintext) -> Ciphertext:
        self.counts["add_plain"] += 1
        delta = ct.level_base.modulus // self.params.plain_modulus
        m_poly = RnsPoly.from_signed_array(ct.level_base, plaintext.coeffs)
        comps = [c.copy() for c in ct.components]
        comps[0] = comps[0] + m_poly.scalar_multiply(delta)
        return Ciphertext(self.params, comps)

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

    def square(self, a: Ciphertext, relinearize: bool = True) -> Ciphertext:
        return self.multiply(a, a, relinearize=relinearize)

    def relinearize(self, ct: Ciphertext) -> Ciphertext:
        """Reduce a 3-component ciphertext back to 2 via the relin keys."""
        if len(ct) == 2:
            return ct
        if len(ct) != 3:
            raise ValueError("relinearize expects a 3-component ciphertext")
        self.counts["relinearize"] += 1
        u0, u1 = switch_key(ct.components[2].from_ntt(), self.relin_keys(), self.params)
        return Ciphertext(
            self.params,
            [ct.components[0] + u0, ct.components[1] + u1],
        )

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
        comps = [c.from_ntt().divide_and_round_by_last() for c in ct.components]
        return Ciphertext(self.params, comps)

    def align(self, a: Ciphertext, b: Ciphertext):
        """Bring two ciphertexts to a common chain for add/multiply.

        The deeper-chained operand is switched down; decrypted values are
        unchanged (the level planner uses this as its alignment primitive).
        """
        while len(a.level_base) > len(b.level_base):
            a = self.mod_switch_down(a)
        while len(b.level_base) > len(a.level_base):
            b = self.mod_switch_down(b)
        return a, b

    def rotate(self, ct: Ciphertext, steps: int,
               galois_keys: Optional[GaloisKeys] = None) -> Ciphertext:
        """Rotate each slot row left by *steps* (Table 1's Ciphertext Rotate)."""
        self.counts["rotate"] += 1
        g = galois_element_for_step(steps, self.params.poly_degree)
        return self._apply_galois(ct, g, galois_keys)

    #: SEAL's name for the row rotation.
    rotate_rows = rotate

    def rotate_columns(self, ct: Ciphertext,
                       galois_keys: Optional[GaloisKeys] = None) -> Ciphertext:
        """Swap the two slot rows."""
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
        if len(ct) != 2:
            raise ValueError("relinearize before rotating")
        self.counts["naive_decompose"] += 1
        # apply_automorphism is form-agnostic (NTT form permutes evaluations
        # in place); switch_key converts to coefficient form itself.
        c0 = ct.components[0].apply_automorphism(galois_elt).from_ntt()
        c1 = ct.components[1].apply_automorphism(galois_elt)
        u0, u1 = switch_key(c1, keys.key_for(galois_elt), self.params)
        return Ciphertext(self.params, [c0 + u0, u1])

    # ------------------------------------------------- hoisted rotations
    def rotate_many(self, ct: Ciphertext, steps: Sequence[int],
                    galois_keys: Optional[GaloisKeys] = None,
                    include_conjugation: bool = False) -> List[Ciphertext]:
        """Rotate *ct* by every step in *steps*, sharing one hoisted
        key-switch decomposition; bit-exact with sequential
        :meth:`rotate_rows` calls (see :mod:`repro.hecore.hoisting`)."""
        return hoisting.rotate_many(self, ct, steps, galois_keys,
                                    include_conjugation=include_conjugation)

    def rotate_and_sum(self, ct: Ciphertext, width: int,
                       galois_keys: Optional[GaloisKeys] = None) -> Ciphertext:
        """Fused sum of the first *width* rotations of *ct* (power of two)."""
        return hoisting.rotate_and_sum(self, ct, width, galois_keys)

    def rotate_weighted_sum(self, ct: Ciphertext, terms,
                            galois_keys: Optional[GaloisKeys] = None
                            ) -> Ciphertext:
        """Fused diagonal matvec: ``sum(m (*) rotate(ct, s))`` over
        ``(step, Plaintext)`` *terms*, one hoisted decompose + one rescale."""
        coeff_terms = [(step, pt.coeffs) for step, pt in terms]
        return hoisting.rotate_weighted_sum(self, ct, coeff_terms, galois_keys)
