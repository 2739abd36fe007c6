"""What BFV and CKKS share: one RLWE context.

Both schemes run the paper's Figure 5 client pipeline — sample ``u``
(ternary) and ``e1, e2`` (error), multiply with the public keys over the
plaintext's chain plus the special prime, modulus-switch the special prime
away, and only then add the message over the remaining residues — the
one-transform symmetric pipeline served uploads use (seed →
evaluation-form ``a``; ``c0 = NTT(e + m) − a ⊙ s``, evaluation form out),
and the same server-side key-switch primitives.  Evaluator entry points
take ciphertexts in either form.  The schemes disagree only on how a
message is embedded and recovered, so :class:`RlweContext` owns keys, the
four encrypt entry points, decryption, add/sub/negate, relinearization,
level alignment and rotation; a scheme sets three class attributes and
defines the methods that raise ``NotImplementedError`` here (plus its own
multiplies).

The one-shot entry points are not ``*_many([v])[0]``: they draw from the
context PRNG stream directly, the batch ones from labeled forks of it, so
seeded outputs differ by design (the equivalence tests replay the fork
schedule through the *rng* arguments).
"""

from __future__ import annotations

import functools
from collections import Counter
from typing import Iterable, List, Optional, Sequence

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
from repro.hecore.polyring import RnsPoly
from repro.hecore.random import BlakePrng
from repro.hecore.rns import RnsBase


class RlweContext:
    """Keys, encoder and evaluator for one parameter set of one scheme.

    The ``counts`` attribute tallies every HE operation executed, which the
    client-aided protocol layer multiplies by per-operation platform costs —
    the paper's own §5.2 methodology.
    """

    #: Set by each scheme: its tag (also the PRNG fork label), the plaintext
    #: class ``encrypt*`` pass through un-encoded, and the slot encoder.
    scheme: SchemeType
    plaintext_type: type
    encoder_class: type

    def __init__(self, params: EncryptionParameters, seed: Optional[object] = None):
        if params.scheme is not self.scheme:
            raise ValueError(f"{type(self).__name__} requires "
                             f"{self.scheme.name} parameters")
        self.params = params
        self._seed = seed
        self.encoder = self.encoder_class(params)
        self._prng = (BlakePrng(seed).fork(f"{self.scheme.value}-encryptor")
                      if seed is not None else BlakePrng())
        self._relin: Optional[RelinKeys] = None
        self._galois: Optional[GaloisKeys] = None
        self.counts: Counter = Counter()

    # --------------------------------------------------------------- keys
    @functools.cached_property
    def keygen(self) -> KeyGenerator:
        """This context's key pair, generated on first use (from its own
        ``BlakePrng(seed)``, so when changes nothing): a context that only
        evaluates on uploaded keys never makes, or holds, a secret key."""
        return KeyGenerator(self.params, self._seed)

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

    def held_galois_keys(self) -> Optional[GaloisKeys]:
        """The rotation keys this context holds, or ``None`` — the one place
        they are found (a session's eval context answers from its keystore)."""
        return self._galois

    def _resolve_galois(self, galois_keys: Optional[GaloisKeys]) -> GaloisKeys:
        keys = galois_keys or self.held_galois_keys()
        if keys is None:
            raise MissingEvaluationKey("rotation requires Galois keys")
        return keys

    def _secret_ntt(self, base: RnsBase) -> RnsPoly:
        """The secret key in NTT form over *base* — the only place a context
        touches it, so forbidding this accessor forbids every secret-key
        operation (see ``runtime.server.build_restricted_context``)."""
        return self.keygen.secret_key().restricted_ntt(base, self.params.full_base)

    # ------------------------------------------------------------ encoding
    def encode(self, values, scale: Optional[float] = None,
               base: Optional[RnsBase] = None):
        """Slot values → plaintext, at *scale* over *base* (CKKS; BFV
        plaintexts are exact and level-free, so its encoder ignores both)."""
        return self.encoder.encode(values, scale=scale, base=base)

    def decode(self, plaintext) -> np.ndarray:
        return self.encoder.decode(plaintext)

    def _as_plaintext(self, values):
        return values if isinstance(values, self.plaintext_type) else self.encode(values)

    def _as_plaintexts(self, values_list: Sequence) -> list:
        """Encode the raw entries of a mixed values/plaintexts batch in one
        stacked ``encode_many`` pass, passing plaintexts through."""
        plaintexts = [v if isinstance(v, self.plaintext_type) else None
                      for v in values_list]
        raw = [v for v, pt in zip(values_list, plaintexts) if pt is None]
        if raw:
            encoded = iter(self.encoder.encode_many(raw))
            plaintexts = [pt if pt is not None else next(encoded)
                          for pt in plaintexts]
        return plaintexts

    def _message_block(self, base: RnsBase, plaintexts: Sequence) -> np.ndarray:
        """The ``(m, k, n)`` residues M plaintexts add to ``c0`` over *base*
        (BFV: Δ-scaled; CKKS: as encoded).  A fresh ciphertext takes its
        plaintext's ``scale``."""
        raise NotImplementedError

    def _level_base(self, plaintext) -> RnsBase:
        """The data chain *plaintext* encrypts over: the whole chain here
        (a BFV plaintext is level-free); CKKS plaintexts carry their own."""
        return self.params.data_base

    def _batch_base(self, plaintexts: Sequence) -> RnsBase:
        """The one chain a batch encrypts over: its first plaintext's.  A
        batch whose plaintexts sit on different chains is refused."""
        base = self._level_base(plaintexts[0])
        if any(self._level_base(pt) != base for pt in plaintexts[1:]):
            raise ValueError("a batch encrypts over one chain; these "
                             "plaintexts sit on several")
        return base

    def _key_base(self, chain: RnsBase) -> RnsBase:
        """*chain* plus the special prime: the base public-key encryption
        samples over before switching the special prime away."""
        return RnsBase.of(chain.moduli + (self.params.special_prime,))

    def _message_poly(self, base: RnsBase, plaintext) -> RnsPoly:
        return RnsPoly(base, self.params.poly_degree,
                       self._message_block(base, [plaintext])[0], is_ntt=False)

    # ------------------------------------------------------- encrypt/decrypt
    def encrypt(self, values, rng: Optional[BlakePrng] = None) -> Ciphertext:
        """Encrypt a slot vector (or a pre-encoded plaintext) over the
        plaintext's chain (:meth:`_level_base`): a CKKS plaintext encoded on
        a prefix of the data chain gives a ciphertext on that prefix, equal
        to the full-chain ciphertext of the same draws with its trailing
        rows cut.

        *rng* overrides the context PRNG (used by the batch-equivalence
        property tests to replay :meth:`encrypt_many`'s fork schedule); the
        default draws from the context stream exactly as before.
        """
        plaintext = self._as_plaintext(values)
        self.counts["encrypt"] += 1
        params = self.params
        n = params.poly_degree
        full = self._key_base(self._level_base(plaintext))
        p0, p1 = self.keygen.public_key().restricted(full)
        rng = self._prng if rng is None else rng

        u = RnsPoly.from_signed_array(full, rng.sample_ternary(n)).to_ntt()
        e1 = RnsPoly.from_signed_array(full, rng.sample_error(n))
        e2 = RnsPoly.from_signed_array(full, rng.sample_error(n))
        c0 = (p0 * u).from_ntt() + e1
        c1 = (p1 * u).from_ntt() + e2
        # Modulus-switch away the special prime (Figure 5's Mod Switching stage).
        c0 = c0.divide_and_round_by_last()
        c1 = c1.divide_and_round_by_last()
        c0 = c0 + self._message_poly(c0.base, plaintext)
        return Ciphertext(params, [c0, c1], scale=plaintext.scale)

    def encrypt_many(self, values_list: Sequence,
                     rng: Optional[BlakePrng] = None) -> List[Ciphertext]:
        """Encrypt M slot vectors (or plaintexts) as one stacked batch.

        All randomness for the batch is drawn as ``(M, N)`` blocks from
        labeled forks of the context PRNG (``batch-encrypt`` → ``u`` /
        ``e1`` / ``e2``), so row ``i`` of each block equals the ``i``-th
        sequential draw from the same fork — the schedule the equivalence
        tests replay.  Both public-key products run through a single
        ``(2M·k, N)`` stacked NTT pair, and the mod-switch and message
        embedding are one vectorized pass over the whole block, over the
        batch's one chain (:meth:`_batch_base`).
        """
        plaintexts = self._as_plaintexts(values_list)
        m = len(plaintexts)
        if m == 0:
            return []
        full = self._key_base(self._batch_base(plaintexts))
        self.counts["encrypt"] += m
        params = self.params
        n = params.poly_degree
        p0, p1 = self.keygen.public_key().restricted(full)
        rng = self._prng.fork("batch-encrypt") if rng is None else rng

        u_all = rng.fork("u").sample_ternary((m, n))
        e1_all = rng.fork("e1").sample_error((m, n))
        e2_all = rng.fork("e2").sample_error((m, n))
        out: List[Ciphertext] = []
        # Sampling above is one (M, N) draw per stream; the kernel pipeline
        # below runs over cache-sized ciphertext tiles so each tile's blocks
        # stay resident from the NTT through the message embedding.
        tile = batchcrypt.tile_size(full, n, parts=2)
        for start in range(0, m, tile):
            stop = min(start + tile, m)
            g = stop - start
            u = full.lift_signed(u_all[start:stop])
            errors = full.lift_signed(np.concatenate(
                [e1_all[start:stop], e2_all[start:stop]]))
            # Raw-order sandwich: forward without the final transpose, the
            # dyadic against the pre-permuted public key, and a prescrambled
            # inverse — the two permutation passes cancel.
            u_ntt = batchcrypt.forward_block(full, n, u, raw=True)
            # c0 and c1 products stacked into one (2g, k, n) block: a single
            # inverse transform covers both components of every ciphertext.
            prod = np.concatenate([
                batchcrypt.dyadic_block_raw(full, u_ntt, p0),
                batchcrypt.dyadic_block_raw(full, u_ntt, p1),
            ])
            block = batchcrypt.inverse_block(full, n, prod, raw=True)
            block = full.add(block, errors)
            base, block = full.divide_and_round_by_last(block)
            tile_pts = plaintexts[start:stop]
            c0 = base.add(block[:g], self._message_block(base, tile_pts))
            c0_polys = batchcrypt.split_polys(base, n, c0)
            c1_polys = batchcrypt.split_polys(base, n, block[g:])
            out.extend(Ciphertext(params, [a, b], scale=pt.scale)
                       for a, b, pt in zip(c0_polys, c1_polys, tile_pts))
        return out

    def encrypt_symmetric(self, values, seed: Optional[bytes] = None,
                          rng: Optional[BlakePrng] = None) -> Ciphertext:
        """Symmetric (secret-key) encryption with a seed-expanded ``c1``.

        Fresh client uploads don't need public-key encryption: the client
        owns the secret key, and deriving the uniform component from a seed
        lets the wire format carry only ``c0`` plus 32 bytes (the
        seed-compression extension; see Ciphertext.size_bytes).

        The seed expands to ``a`` directly in evaluation form, so
        ``c0 = NTT(e + m) − a ⊙ s`` costs one forward transform and the
        ciphertext is returned in evaluation form; the error ``e`` is still
        sampled small in the coefficient domain.  It lives on the
        plaintext's chain; the seed expands row by row, so a prefix chain
        gives the full-chain ciphertext's leading rows.
        """
        plaintext = self._as_plaintext(values)
        self.counts["encrypt"] += 1
        params = self.params
        n = params.poly_degree
        base = self._level_base(plaintext)
        rng = self._prng if rng is None else rng
        if seed is None:
            seed = rng.random_bytes(32)
        a = expand_uniform_poly(seed, base, n)
        e = RnsPoly.from_signed_array(base, rng.sample_error(n))
        c0 = ((e + self._message_poly(base, plaintext)).to_ntt()
              - a * self._secret_ntt(base))
        return Ciphertext(params, [c0, a], scale=plaintext.scale,
                          seed=bytes(seed))

    def encrypt_symmetric_many(self, values_list: Sequence,
                               rng: Optional[BlakePrng] = None
                               ) -> List[Ciphertext]:
        """Seed-compressed symmetric encryption of M vectors as one batch.

        PRNG schedule: the 32-byte seeds come sequentially from the ``seed``
        fork of a ``batch-encrypt-symmetric`` fork, the error block as one
        ``(M, N)`` draw from its ``e`` fork.  The ``e + m`` sums share one
        stacked forward NTT across the batch — the only transform, since
        every ``a`` is drawn in evaluation form.
        """
        plaintexts = self._as_plaintexts(values_list)
        m = len(plaintexts)
        if m == 0:
            return []
        base = self._batch_base(plaintexts)
        self.counts["encrypt"] += m
        params = self.params
        n = params.poly_degree
        rng = (self._prng.fork("batch-encrypt-symmetric")
               if rng is None else rng)
        seed_rng = rng.fork("seed")
        seeds = [seed_rng.random_bytes(32) for _ in range(m)]
        e_all = rng.fork("e").sample_error((m, n))
        s_ntt = self._secret_ntt(base)
        out: List[Ciphertext] = []
        tile = batchcrypt.tile_size(base, n, parts=2)
        for start in range(0, m, tile):
            stop = min(start + tile, m)
            tile_pts = plaintexts[start:stop]
            noisy = base.add(base.lift_signed(e_all[start:stop]),
                             self._message_block(base, tile_pts))
            a_polys = [expand_uniform_poly(seed, base, n)
                       for seed in seeds[start:stop]]
            c0 = base.sub(
                batchcrypt.forward_block(base, n, noisy),
                batchcrypt.dyadic_block(
                    base, np.stack([a.data for a in a_polys]), s_ntt))
            c0_polys = batchcrypt.split_polys(base, n, c0, is_ntt=True)
            out.extend(
                Ciphertext(params, [p0, a], scale=pt.scale, seed=bytes(seed))
                for p0, a, pt, seed in zip(c0_polys, a_polys, tile_pts,
                                           seeds[start:stop]))
        return out

    def _raw_decrypt_poly(self, ct: Ciphertext) -> RnsPoly:
        """``[c0 + c1 s (+ c2 s^2)]_q`` in coefficient form over the level
        base.  Components are used in the form they arrive in: the products
        accumulate in evaluation form and an evaluation-form ``c0`` joins
        them before the single inverse transform."""
        s_ntt = self._secret_ntt(ct.level_base)
        c0 = ct.components[0]
        acc = None
        s_power = s_ntt
        for comp in ct.components[1:]:
            term = comp.to_ntt() * s_power
            acc = term if acc is None else acc + term
            s_power = s_power * s_ntt
        if acc is None:
            return c0.from_ntt()
        if c0.is_ntt:
            return (c0 + acc).from_ntt()
        return c0 + acc.from_ntt()

    def _plain_rows(self, base: RnsBase, block: np.ndarray) -> np.ndarray:
        """Message coefficients ``(m, n)`` of an ``(m, k, n)`` block of raw
        decryptions ``[c0 + c1 s]_q``, bigint-free (BFV: RNS scale-and-round
        by ``t/q``; CKKS: centered CRT), ready for the encoder's stacked
        ``decode_rows(rows, scales)``."""
        raise NotImplementedError

    def decrypt(self, ct: Ciphertext) -> np.ndarray:
        """Decrypt to the slot vector (BFV: Eq. 3, ``round(t/q ⋅ [c0 + c1 s]_q)
        mod t``, exact; CKKS: the approximate values at the ciphertext's scale).

        Runs entirely in vectorized RNS arithmetic — no big-integer CRT
        composition; see :meth:`_plain_rows`.
        """
        self.counts["decrypt"] += 1
        acc = self._raw_decrypt_poly(ct)
        rows = self._plain_rows(acc.base, acc.data[None])
        return self.encoder.decode_rows(rows, np.array([ct.scale]))[0]

    def decrypt_many(self, cts: Sequence[Ciphertext]) -> List[np.ndarray]:
        """Decrypt M ciphertexts as stacked batches.

        Two-component ciphertexts sharing a level base and a form make one
        ``(M, k, n)`` block: the ``c1·s`` products run stacked (a forward /
        inverse NTT pair for coefficient-form ciphertexts, the inverse alone
        for evaluation-form ones), then one vectorized message recovery and
        one stacked decode.  Odd ciphertexts (3-component, mixed-form) fall
        back to :meth:`decrypt` individually, each charged to
        ``counts["decrypt_fallback"]``.  Results are bit-identical to looped
        :meth:`decrypt` calls.
        """
        results: List[Optional[np.ndarray]] = [None] * len(cts)
        groups = {}
        for i, ct in enumerate(cts):
            forms = {c.is_ntt for c in ct.components}
            if len(ct) == 2 and len(forms) == 1:
                key = (ct.level_base.moduli, forms.pop())
                groups.setdefault(key, []).append(i)
            else:
                self.counts["decrypt_fallback"] += 1
                results[i] = self.decrypt(ct)
        n = self.params.poly_degree
        for (_, is_ntt), indices in groups.items():
            base = cts[indices[0]].level_base
            s_ntt = self._secret_ntt(base)
            coeff_rows = []
            # Cache-sized ciphertext tiles: each tile's block stays resident
            # from the c1 forward transform through the message recovery.
            tile = batchcrypt.tile_size(base, n, parts=2)
            for start in range(0, len(indices), tile):
                chunk = indices[start:start + tile]
                c0, c1 = (np.stack([cts[i].components[part].data
                                    for i in chunk]) for part in (0, 1))
                if is_ntt:
                    acc = batchcrypt.inverse_block(
                        base, n,
                        base.add(c0, batchcrypt.dyadic_block(base, c1, s_ntt)))
                else:
                    prod = batchcrypt.inverse_block(
                        base, n,
                        batchcrypt.dyadic_block_raw(
                            base,
                            batchcrypt.forward_block(base, n, c1, raw=True),
                            s_ntt),
                        raw=True)
                    acc = base.add(c0, prod)
                coeff_rows.append(self._plain_rows(base, acc))
            scales = np.array([cts[i].scale for i in indices])
            slots = self.encoder.decode_rows(np.concatenate(coeff_rows), scales)
            for row, i in enumerate(indices):
                results[i] = slots[row]
            self.counts["decrypt"] += len(indices)
        return results

    # ------------------------------------------------------------ evaluator
    def _check_aligned(self, a: Ciphertext, b: Ciphertext) -> None:
        """Raise unless *a* and *b* can be combined component by component
        (CKKS also requires equal scales)."""
        if len(a) != len(b):
            raise ValueError("cannot combine ciphertexts of different sizes; "
                             "relinearize first")
        if a.level_base != b.level_base:
            raise ValueError("align ciphertext levels before combining them")

    @staticmethod
    def _same_form(x: RnsPoly, y: RnsPoly):
        """Two polys as they are when their forms agree, else both in
        coefficient form (the NTT is linear, so either form adds exactly)."""
        return (x, y) if x.is_ntt == y.is_ntt else (x.from_ntt(), y.from_ntt())

    def add(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        self.counts["add"] += 1
        self._check_aligned(a, b)
        comps = [x + y for x, y in map(self._same_form, a.components,
                                       b.components)]
        return Ciphertext(self.params, comps, scale=a.scale)

    def sub(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        self.counts["add"] += 1
        self._check_aligned(a, b)
        comps = [x - y for x, y in map(self._same_form, a.components,
                                       b.components)]
        return Ciphertext(self.params, comps, scale=a.scale)

    def negate(self, a: Ciphertext) -> Ciphertext:
        return Ciphertext(self.params, [-c for c in a.components], scale=a.scale)

    def add_plain(self, ct: Ciphertext, plaintext) -> Ciphertext:
        """Add a (coefficient-form) plaintext; an evaluation-form *ct* is
        brought to coefficient form to meet it."""
        self.counts["add_plain"] += 1
        comps = [c.from_ntt() if c.is_ntt else c.copy() for c in ct.components]
        comps[0] = comps[0] + self._message_poly(ct.level_base, plaintext)
        return Ciphertext(self.params, comps, scale=ct.scale)

    def square(self, a: Ciphertext, relinearize: bool = True) -> Ciphertext:
        return self.multiply(a, a, relinearize=relinearize)

    def relinearize(self, ct: Ciphertext) -> Ciphertext:
        """Reduce a 3-component ciphertext back to 2 via the relin keys."""
        if len(ct) == 2:
            return ct
        if len(ct) != 3:
            raise ValueError("relinearize expects a 3-component ciphertext")
        self.counts["relinearize"] += 1
        c0, c1, c2 = ct.components
        if c2.is_ntt:       # switch_key decomposes it in coefficient form
            self.counts["ntt_inverse"] += len(c2.base)
        if c0.is_ntt and c1.is_ntt:
            # An evaluation-form pair joins the key switch before its
            # mod-down, so c0 and c1 pay no inverse transform of their own.
            parts = switch_key(c2, self.relin_keys(), self.params,
                               fold=(c0, c1))
        else:
            u0, u1 = switch_key(c2, self.relin_keys(), self.params)
            parts = [c0.from_ntt() + u0, c1.from_ntt() + u1]
        return Ciphertext(self.params, list(parts), scale=ct.scale)

    def _align_down(self, ct: Ciphertext) -> Ciphertext:
        """One :meth:`align` step: shed the last residue of *ct*, decrypted
        value unchanged (BFV: the counted divide-and-round ``mod_switch_down``;
        CKKS: the free ``drop_modulus`` truncation)."""
        raise NotImplementedError

    def align(self, a: Ciphertext, b: Ciphertext):
        """Bring two ciphertexts to a common chain for add/multiply.

        The deeper-chained operand is switched down; decrypted values are
        unchanged (the level planner uses this as its alignment primitive).
        """
        while len(a.level_base) > len(b.level_base):
            a = self._align_down(a)
        while len(b.level_base) > len(a.level_base):
            b = self._align_down(b)
        return a, b

    def rotate(self, ct: Ciphertext, steps: int,
               galois_keys: Optional[GaloisKeys] = None) -> Ciphertext:
        """Rotate the slots left by *steps* (Table 1's Ciphertext Rotate);
        BFV rotates each of its two slot rows."""
        self.counts["rotate"] += 1
        g = galois_element_for_step(steps, self.params.poly_degree)
        return self._apply_galois(ct, g, galois_keys)

    def _rotate_conjugation(self, ct: Ciphertext,
                            galois_keys: Optional[GaloisKeys] = None) -> Ciphertext:
        """Apply ``x -> x^(2N-1)``: BFV swaps the two slot rows, CKKS
        conjugates every slot."""
        self.counts["rotate"] += 1
        g = galois_element_for_conjugation(self.params.poly_degree)
        return self._apply_galois(ct, g, galois_keys)

    def _apply_galois(self, ct: Ciphertext, galois_elt: int,
                      galois_keys: Optional[GaloisKeys]) -> Ciphertext:
        if galois_elt == 1:
            return ct.copy()
        keys = self._resolve_galois(galois_keys)
        if len(ct) != 2:
            raise ValueError("relinearize before rotating")
        key = keys.key_for(galois_elt)
        # A key made for fewer limbs than *ct* carries: take *ct* down to
        # it first (the unplanned oracle and ad-hoc rotations; a planned
        # run refuses such a key before it gets here).
        while len(ct.level_base) > key.limbs:
            ct = self._align_down(ct)
            self.counts["key_drops"] += 1
        self.counts["naive_decompose"] += 1
        # apply_automorphism is form-agnostic (NTT form permutes evaluations
        # in place); switch_key converts to coefficient form itself.
        c0 = ct.components[0].apply_automorphism(galois_elt).from_ntt()
        c1 = ct.components[1].apply_automorphism(galois_elt)
        u0, u1 = switch_key(c1, key, self.params)
        return Ciphertext(self.params, [c0 + u0, u1], scale=ct.scale)

    # ------------------------------------------------- hoisted rotations
    def rotate_and_sum(self, ct: Ciphertext, width: int,
                       galois_keys: Optional[GaloisKeys] = None) -> Ciphertext:
        """The sum of the first *width* rotations of *ct* (a power of two),
        as :func:`repro.hecore.hoisting.rotate_and_sum`'s hoisted phases."""
        return hoisting.rotate_and_sum(self, ct, width, galois_keys)
