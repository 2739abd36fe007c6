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

Each client operation is one block kernel over a tile of ciphertexts
(:meth:`RlweContext._encrypt_block`, :meth:`~RlweContext._encrypt_symmetric_block`,
:meth:`~RlweContext._raw_decrypt_block`), and a one-shot entry point is its
one-row case with its own draw order: ``encrypt`` and ``encrypt_symmetric``
draw from the context PRNG stream directly, the batch entry points from
labeled forks of it, so seeded outputs differ by design (the equivalence
tests replay the fork schedule through the *rng* arguments);
``decrypt(ct)`` is ``decrypt_many([ct])[0]``.
"""

from __future__ import annotations

import functools
from collections import Counter
from typing import Iterable, Iterator, List, Optional, Sequence

import numpy as np

from repro.hecore import hoisting, ntt
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
    tile_size,
)
from repro.hecore.modmath import mod_mul
from repro.hecore.params import EncryptionParameters, SchemeType
from repro.hecore.polyring import RnsPoly
from repro.hecore.random import BlakePrng
from repro.hecore.rns import RnsBase


def _tiles(count: int, tile: int) -> Iterator[slice]:
    """Consecutive slices of at most *tile* items covering ``range(count)``."""
    return (slice(start, start + tile) for start in range(0, count, tile))


def _split_polys(base: RnsBase, block: np.ndarray,
                 is_ntt: bool = False) -> List[RnsPoly]:
    """``(m, k, n)`` block → m :class:`RnsPoly`, one per row."""
    return [RnsPoly(base, block.shape[-1], row, is_ntt=is_ntt) for row in block]


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
    def _encrypt_block(self, full: RnsBase, plaintexts: Sequence,
                       u: np.ndarray, e1: np.ndarray,
                       e2: np.ndarray) -> List[Ciphertext]:
        """Public-key encryption of a tile of plaintexts on one chain, from
        their drawn ``(g, n)`` ternary ``u`` and error ``e1`` / ``e2`` rows,
        over *full* (the chain plus the special prime): one stacked forward
        transform of ``u``, the two public-key products stacked into one
        ``(2g, k, n)`` block so a single inverse transform covers both
        components of every ciphertext, the errors, one modulus switch of
        the special prime away (Figure 5's Mod Switching stage) and the
        message embedding."""
        g = len(plaintexts)
        plan = ntt.get_stack_plan(self.params.poly_degree, full.moduli)
        p0, p1 = self.keygen.public_key().restricted(full)
        u_ntt = plan.forward_small(u)
        prod = np.concatenate([mod_mul(u_ntt, p0.data, full.moduli),
                               mod_mul(u_ntt, p1.data, full.moduli)])
        block = full.add(plan.inverse_batch(prod),
                         full.lift_signed(np.concatenate([e1, e2])))
        base, block = full.divide_and_round_by_last(block)
        c0 = base.add(block[:g], self._message_block(base, plaintexts))
        return [Ciphertext(self.params, [a, b], scale=pt.scale)
                for a, b, pt in zip(_split_polys(base, c0),
                                    _split_polys(base, block[g:]), plaintexts)]

    def encrypt(self, values, rng: Optional[BlakePrng] = None) -> Ciphertext:
        """Encrypt a slot vector (or a pre-encoded plaintext) over the
        plaintext's chain (:meth:`_level_base`): a CKKS plaintext encoded on
        a prefix of the data chain gives a ciphertext on that prefix, equal
        to the full-chain ciphertext of the same draws with its trailing
        rows cut.

        :meth:`_encrypt_block`'s one-row case, drawing ``u``, ``e1``, ``e2``
        in that order from *rng*, by default the context stream (the
        batch-equivalence tests pass one that replays :meth:`encrypt_many`'s
        fork schedule).
        """
        plaintext = self._as_plaintext(values)
        self.counts["encrypt"] += 1
        full = self._key_base(self._level_base(plaintext))
        n = self.params.poly_degree
        rng = self._prng if rng is None else rng
        u = rng.sample_ternary(n)
        e1 = rng.sample_error(n)
        e2 = rng.sample_error(n)
        return self._encrypt_block(full, [plaintext], u[None], e1[None],
                                   e2[None])[0]

    def encrypt_many(self, values_list: Sequence,
                     rng: Optional[BlakePrng] = None) -> List[Ciphertext]:
        """Encrypt M slot vectors (or plaintexts) as one stacked batch.

        All randomness for the batch is drawn as ``(M, N)`` blocks from
        labeled forks of the context PRNG (``batch-encrypt`` → ``u`` /
        ``e1`` / ``e2``), so row ``i`` of each block equals the ``i``-th
        sequential draw from the same fork — the schedule the equivalence
        tests replay.  :meth:`_encrypt_block` then runs over cache-sized
        tiles (:func:`~repro.hecore.keys.tile_size`), over the batch's one
        chain (:meth:`_batch_base`).
        """
        plaintexts = self._as_plaintexts(values_list)
        m = len(plaintexts)
        if m == 0:
            return []
        full = self._key_base(self._batch_base(plaintexts))
        self.counts["encrypt"] += m
        n = self.params.poly_degree
        rng = self._prng.fork("batch-encrypt") if rng is None else rng
        u = rng.fork("u").sample_ternary((m, n))
        e1 = rng.fork("e1").sample_error((m, n))
        e2 = rng.fork("e2").sample_error((m, n))
        out: List[Ciphertext] = []
        for rows in _tiles(m, tile_size(full, n, parts=2)):
            out += self._encrypt_block(full, plaintexts[rows], u[rows],
                                       e1[rows], e2[rows])
        return out

    def _encrypt_symmetric_block(self, base: RnsBase, plaintexts: Sequence,
                                 seeds: Sequence[bytes],
                                 e: np.ndarray) -> List[Ciphertext]:
        """Symmetric encryption of a tile of plaintexts over *base*, from
        their 32-byte seeds and drawn ``(g, n)`` error rows: each seed
        expands to ``a`` in evaluation form, and the ``e + m`` sums share
        one stacked forward transform, the only one."""
        n = self.params.poly_degree
        noisy = base.add(base.lift_signed(e), self._message_block(base, plaintexts))
        a_polys = [expand_uniform_poly(seed, base, n) for seed in seeds]
        c0 = base.sub(
            ntt.get_stack_plan(n, base.moduli).forward_batch(noisy),
            mod_mul(np.stack([a.data for a in a_polys]),
                    self._secret_ntt(base).data, base.moduli))
        return [Ciphertext(self.params, [c, a], scale=pt.scale, seed=bytes(seed))
                for c, a, pt, seed in zip(_split_polys(base, c0, is_ntt=True),
                                          a_polys, plaintexts, seeds)]

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

        :meth:`_encrypt_symmetric_block`'s one-row case: the seed (unless
        given) then ``e`` are drawn from *rng*, by default the context
        stream.
        """
        plaintext = self._as_plaintext(values)
        self.counts["encrypt"] += 1
        base = self._level_base(plaintext)
        rng = self._prng if rng is None else rng
        if seed is None:
            seed = rng.random_bytes(32)
        e = rng.sample_error(self.params.poly_degree)
        return self._encrypt_symmetric_block(base, [plaintext], [seed],
                                             e[None])[0]

    def encrypt_symmetric_many(self, values_list: Sequence,
                               rng: Optional[BlakePrng] = None
                               ) -> List[Ciphertext]:
        """Seed-compressed symmetric encryption of M vectors as one batch.

        PRNG schedule: the 32-byte seeds come sequentially from the ``seed``
        fork of a ``batch-encrypt-symmetric`` fork, the error block as one
        ``(M, N)`` draw from its ``e`` fork; :meth:`_encrypt_symmetric_block`
        then runs over cache-sized tiles.
        """
        plaintexts = self._as_plaintexts(values_list)
        m = len(plaintexts)
        if m == 0:
            return []
        base = self._batch_base(plaintexts)
        self.counts["encrypt"] += m
        n = self.params.poly_degree
        rng = (self._prng.fork("batch-encrypt-symmetric")
               if rng is None else rng)
        seed_rng = rng.fork("seed")
        seeds = [seed_rng.random_bytes(32) for _ in range(m)]
        e = rng.fork("e").sample_error((m, n))
        out: List[Ciphertext] = []
        for rows in _tiles(m, tile_size(base, n, parts=2)):
            out += self._encrypt_symmetric_block(base, plaintexts[rows],
                                                 seeds[rows], e[rows])
        return out

    def _raw_decrypt_block(self, cts: Sequence[Ciphertext]) -> np.ndarray:
        """``[c0 + Σ_{i≥1} c_i·s^i]_q`` in coefficient form, an ``(m, k, n)``
        block over the level base, for ciphertexts that share a level base,
        a component count and their component forms.  Components are used
        in the form they arrive in: the products accumulate in evaluation
        form, an evaluation-form ``c0`` joins them before the one inverse
        transform and a coefficient-form one after it."""
        first = cts[0]
        base = first.level_base
        plan = ntt.get_stack_plan(self.params.poly_degree, base.moduli)
        s = power = self._secret_ntt(base).data
        acc = None
        for i, comp in enumerate(first.components[1:], start=1):
            term = np.stack([ct.components[i].data for ct in cts])
            if not comp.is_ntt:
                term = plan.forward_batch(term)
            if i > 1:
                power = mod_mul(power, s, base.moduli)
            term = mod_mul(term, power, base.moduli)
            acc = term if acc is None else base.add(acc, term)
        # Stacked last, so c0's block is not live through the transforms.
        c0 = np.stack([ct.components[0].data for ct in cts])
        if first.components[0].is_ntt:
            return plan.inverse_batch(c0 if acc is None else base.add(c0, acc))
        return c0 if acc is None else base.add(c0, plan.inverse_batch(acc))

    def _raw_decrypt_poly(self, ct: Ciphertext) -> RnsPoly:
        """:meth:`_raw_decrypt_block`'s one-row case, as a coefficient-form
        poly over the level base."""
        return RnsPoly(ct.level_base, self.params.poly_degree,
                       self._raw_decrypt_block([ct])[0])

    def _plain_rows(self, base: RnsBase, block: np.ndarray) -> np.ndarray:
        """Message coefficients ``(m, n)`` of an ``(m, k, n)`` block of raw
        decryptions ``[c0 + c1 s]_q``, bigint-free (BFV: RNS scale-and-round
        by ``t/q``; CKKS: centered CRT), ready for the encoder's stacked
        ``decode_rows(rows, scales)``."""
        raise NotImplementedError

    def decrypt(self, ct: Ciphertext) -> np.ndarray:
        """Decrypt to the slot vector (BFV: Eq. 3, ``round(t/q ⋅ [c0 + c1 s]_q)
        mod t``, exact; CKKS: the approximate values at the ciphertext's
        scale): ``decrypt_many([ct])[0]``."""
        return self.decrypt_many([ct])[0]

    def decrypt_many(self, cts: Sequence[Ciphertext]) -> List[np.ndarray]:
        """Decrypt M ciphertexts as stacked batches.

        Ciphertexts sharing a level base, a component count and their
        component forms make one group: :meth:`_raw_decrypt_block` over
        cache-sized tiles of it, then one vectorized message recovery per
        tile (:meth:`_plain_rows`, no big-integer CRT composition) and one
        stacked decode per group.  Results come back in input order.
        """
        results: List[Optional[np.ndarray]] = [None] * len(cts)
        groups = {}
        for i, ct in enumerate(cts):
            key = (ct.level_base.moduli, tuple(c.is_ntt for c in ct.components))
            groups.setdefault(key, []).append(i)
        n = self.params.poly_degree
        for indices in groups.values():
            group = [cts[i] for i in indices]
            base = group[0].level_base
            tile = tile_size(base, n, parts=len(group[0]))
            rows = [self._plain_rows(base, self._raw_decrypt_block(group[part]))
                    for part in _tiles(len(group), tile)]
            slots = self.encoder.decode_rows(
                np.concatenate(rows), np.array([ct.scale for ct in group]))
            for i, values in zip(indices, slots):
                results[i] = values
            self.counts["decrypt"] += len(indices)
        return results

    def _mod_down(self, ct: Ciphertext) -> List[RnsPoly]:
        """*ct*'s components switched down by the last prime of its level
        (scaled by ``1/p``), in coefficient form: one ``(c, k, n)`` block,
        one inverse transform of its evaluation-form rows and one
        :meth:`RnsBase.divide_and_round_by_last`."""
        base = ct.level_base
        block = np.stack([c.data for c in ct.components])
        rows = [i for i, c in enumerate(ct.components) if c.is_ntt]
        if rows:
            block[rows] = ntt.get_stack_plan(
                self.params.poly_degree, base.moduli).inverse_batch(block[rows])
        target, block = base.divide_and_round_by_last(block)
        return _split_polys(target, block)

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
