"""Key generation and special-prime key switching.

Implements the full SEAL-style key hierarchy: ternary secret keys, RLWE
public keys (the ``P0, P1`` of the paper's Eq. 2), relinearization keys (for
ciphertext multiplication) and Galois keys (for slot rotation — Table 1's
"Ciphertext Rotate").

Key switching uses RNS digit decomposition with one special prime ``P``
above every data prime (SEAL's hybrid method): each digit of the target
polynomial multiplies a key that encrypts ``P · s_src`` concentrated on that
digit's residue, and the accumulated result is scaled down by ``1/P``,
keeping the added noise small.

A key switches ciphertexts of at most as many data limbs as it has digits.
A Galois key made for ``L`` limbs is the full key cut to digits
``0..L-1`` and rows ``q_0..q_{L-1}, P``: its program rotates that element
at ``L`` limbs or fewer (:class:`RotationSteps`), so nothing above is ever
read.  Relinearization keys are always full.
"""

from __future__ import annotations

from collections.abc import Mapping, Set as AbstractSet
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.hecore import ntt
from repro.hecore.modmath import mod_add, mod_mac, mod_mul, mod_reduce
from repro.hecore.params import EncryptionParameters
from repro.hecore.polyring import RnsPoly
from repro.hecore.random import BlakePrng
from repro.hecore.rns import RnsBase


#: Length of the public seed a key-switching key's uniform halves expand from.
SEED_BYTES = 32

#: Target bytes of residue payload per pipeline tile.  A stacked pipeline
#: (keygen here, the batch encrypt/decrypt in :mod:`repro.hecore.rlwe`) draws
#: its randomness up front, then runs its kernels over tiles of about this
#: many bytes, so consecutive steps reuse cache-warm blocks instead of
#: streaming multi-MB intermediates through every step.
_TILE_BYTES = 3 << 18


def tile_size(base: RnsBase, degree: int, parts: int = 1) -> int:
    """Items per pipeline tile for blocks of ``parts`` ``(k, n)`` stacks."""
    per_item = parts * len(base.moduli) * degree * 8
    return max(1, _TILE_BYTES // per_item)


class SecretKey:
    """A ternary RLWE secret key over the full (data + special) base."""

    def __init__(self, poly: RnsPoly, poly_ntt: RnsPoly):
        self.poly = poly                      # coefficient form
        self.poly_ntt = poly_ntt
        self._restricted: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], RnsPoly] = {}

    def restricted_ntt(self, base: RnsBase, full_base: RnsBase) -> RnsPoly:
        """The secret key in NTT form over a sub-base of the full base.

        Cached per ``(base, full_base)`` — decrypt calls this on every
        ciphertext, and rebuilding the row-sliced poly dominated small
        decrypts before the cache.
        """
        key = (base.moduli, full_base.moduli)
        cached = self._restricted.get(key)
        if cached is None:
            rows = [full_base.moduli.index(p) for p in base.moduli]
            cached = RnsPoly(base, self.poly.degree, self.poly_ntt.data[rows],
                             is_ntt=True)
            self._restricted[key] = cached
        return cached


class PublicKey:
    """The encryption key pair ``(P0, P1) = (-(a s + e), a)`` in NTT form."""

    def __init__(self, p0: RnsPoly, p1: RnsPoly):
        self.p0 = p0
        self.p1 = p1
        self._restricted: Dict[Tuple[int, ...], Tuple[RnsPoly, RnsPoly]] = {}

    def restricted(self, base: RnsBase) -> Tuple[RnsPoly, RnsPoly]:
        """``(P0, P1)`` over a sub-base of the full base (a data-chain
        prefix plus the special prime), cached per base, so each level's
        rows are gathered once."""
        if base == self.p0.base:
            return self.p0, self.p1
        cached = self._restricted.get(base.moduli)
        if cached is None:
            rows = [self.p0.base.moduli.index(p) for p in base.moduli]
            cached = tuple(RnsPoly(base, p.degree, p.data[rows], is_ntt=True)
                           for p in (self.p0, self.p1))
            self._restricted[base.moduli] = cached
        return cached


class KeySwitchKey:
    """One key-switching key: a pair of NTT polys per data-residue digit.

    A key for ``L`` limbs has digits ``0..L-1``, each over the base
    ``q_0..q_{L-1}, P`` (:func:`key_base`); a full key has every digit over
    the full base.  Every digit's uniform half ``k1 = a_i`` is the
    expansion of the key's one public 32-byte *seed*
    (:func:`expand_keyswitch_uniform`), cut to those rows, so the wire
    format ships ``k0`` and the seed and the receiver regenerates the
    rest.  A key assembled by hand from digits has no seed and cannot be
    serialized.
    """

    def __init__(self, digits: List[Tuple[RnsPoly, RnsPoly]],
                 seed: Optional[bytes] = None,
                 full_base: Optional[RnsBase] = None):
        self.digits = digits
        self.seed = seed
        #: The parameter set's full base the key was cut from (its own
        #: base when it is full): what its seed expands over.
        self.full_base = digits[0][0].base if full_base is None else full_base
        #: Per-level stacked views of the digit polys, filled lazily by
        #: :meth:`stacked_digits` (and pre-seeded by deserialization, which
        #: lays key blobs out contiguously so the key's own level is free).
        self._stacked: Dict[int, np.ndarray] = {}

    @property
    def limbs(self) -> int:
        """The most data limbs a ciphertext this key switches may have."""
        return len(self.digits)

    def stacked_digits(self, limbs: int) -> np.ndarray:
        """The key restricted to a *limbs*-limb ciphertext, as one block.

        Returns a ``(limbs, 2, limbs + 1, n)`` int64 array (NTT form): axis
        0 is the digit, axis 1 the key component, axis 2 the residue row of
        ``q_0..q_{limbs-1}, P``.  The restriction is cached on the key, so
        every key switch at one modulus level — naive or hoisted — shares a
        single re-layout instead of re-gathering ``2 * limbs`` row subsets
        per call.  A key made for fewer limbs raises
        :class:`MissingEvaluationKey`.
        """
        block = self._stacked.get(limbs)
        if block is None:
            if limbs > self.limbs:
                raise MissingEvaluationKey(
                    f"key made for {self.limbs} limb(s) cannot switch a "
                    f"{limbs}-limb ciphertext")
            # The key's special-prime row is its last, after its own limbs.
            rows = list(range(limbs)) + [self.limbs]
            block = np.stack([
                np.stack([k0.data[rows], k1.data[rows]])
                for k0, k1 in self.digits[:limbs]
            ])
            self._stacked[limbs] = block
        return block

    def size_bytes(self, params: EncryptionParameters) -> int:
        """Serialized size under logical accounting (k residues, 8 B words):
        every digit's ``k0`` plus the seed the uniform halves expand from.
        A key made for fewer limbs lacks one residue per data limb above
        its own."""
        k = params.logical_residue_count - (len(params.data_base)
                                            - self.limbs)
        return self.limbs * k * params.poly_degree * 8 + SEED_BYTES


class RelinKeys(KeySwitchKey):
    """Key-switching key from ``s^2`` back to ``s``."""


class MissingEvaluationKey(ValueError):
    """An operation needed an evaluation key that was never provided."""


class RotationSteps(frozenset):
    """Rotation steps, each with the most live limbs it is rotated at.

    A ``frozenset`` of steps, so equality, hashing and iteration are the
    set's.  :meth:`limbs` maps a step to the live-limb count of the
    highest level a program rotates it at, ``None`` for the top level.  A
    union (``|`` or :meth:`union`) keeps the higher level per step, and a
    plain set's steps are at the top level: whatever loses the type asks
    for full keys, never for a key too low.
    """

    def __new__(cls, levels=()):
        """From a step -> limbs mapping (``None``: the top level), or
        from plain steps, all at the top level."""
        if not isinstance(levels, Mapping):
            levels = dict.fromkeys(levels)
        self = super().__new__(cls, levels)
        self._limbs = dict(levels)
        return self

    def limbs(self, step: int) -> Optional[int]:
        """The most live limbs *step* is rotated at; ``None``: the top."""
        return self._limbs[step]

    def union(self, *others: Iterable[int]) -> "RotationSteps":
        merged = dict(self._limbs)
        for other in others:
            levels = (other._limbs if isinstance(other, RotationSteps)
                      else dict.fromkeys(other))
            for step, limbs in levels.items():
                have = merged.get(step, 0)
                merged[step] = (None if have is None or limbs is None
                                else max(have, limbs))
        return RotationSteps(merged)

    def __or__(self, other):
        if not isinstance(other, AbstractSet):
            return NotImplemented
        return self.union(other)

    __ror__ = __or__

    def __repr__(self) -> str:
        return f"RotationSteps({dict(sorted(self._limbs.items()))!r})"


class GaloisKeys:
    """Key-switching keys for a set of Galois automorphisms (rotations),
    each made for the most limbs its element is rotated at."""

    def __init__(self, keys: Dict[int, KeySwitchKey]):
        self.keys = keys
        #: Multi-element key blocks for hoisted batches, filled lazily by
        #: :meth:`stacked_block` and keyed by (elements, limbs).
        self._stacked_blocks: Dict[Tuple, np.ndarray] = {}

    def __contains__(self, galois_elt: int) -> bool:
        return galois_elt in self.keys

    def key_for(self, galois_elt: int, limbs: int = 0) -> KeySwitchKey:
        """The key of *galois_elt*; :class:`MissingEvaluationKey` when there
        is none, or when it was made for fewer than *limbs* limbs."""
        key = self.keys.get(galois_elt)
        if key is None:
            raise MissingEvaluationKey(
                f"no Galois key for element {galois_elt}; generate it with "
                f"KeyGenerator.galois_keys")
        if key.limbs < limbs:
            raise MissingEvaluationKey(
                f"the Galois key for element {galois_elt} was made for "
                f"{key.limbs} limb(s); this rotation reads {limbs}")
        return key

    def update(self, keys: Dict[int, KeySwitchKey]) -> None:
        """Add *keys*, replacing any element held already (one regenerated
        at a higher level): the stacked blocks of a replaced key go."""
        if any(g in self.keys for g in keys):
            self._stacked_blocks.clear()
        self.keys.update(keys)

    def stacked_block(self, galois_elts: Sequence[int],
                      limbs: int) -> np.ndarray:
        """``(len(galois_elts), limbs, 2, limbs + 1, n)`` stacked key block.

        The hoisted batch kernels inner-product one decomposed ciphertext
        against EVERY requested element's key in a single numpy pass; this
        pre-stacks (and caches, per modulus level) the keys in that layout so
        repeated hoisted batches pay no per-rotation gathering.
        """
        key = (tuple(int(g) for g in galois_elts), int(limbs))
        block = self._stacked_blocks.get(key)
        if block is None:
            block = np.stack([
                self.key_for(g, limbs).stacked_digits(limbs)
                for g in key[0]
            ])
            self._stacked_blocks[key] = block
        return block

    def size_bytes(self, params: EncryptionParameters) -> int:
        return sum(k.size_bytes(params) for k in self.keys.values())


def key_base(params: EncryptionParameters, limbs: int) -> RnsBase:
    """The rows of a key made for *limbs* limbs: ``q_0..q_{limbs-1}, P``
    (the full base at every limb; the extended base of a key switch at
    that level)."""
    return RnsBase.of(params.data_base.moduli[:limbs] + (params.special_prime,))


def key_rows(params: EncryptionParameters, limbs: int) -> List[int]:
    """Full-base row indices of :func:`key_base`'s residues."""
    return list(range(limbs)) + [len(params.full_base) - 1]


def expand_keyswitch_uniform(seed: bytes, full_base: RnsBase, degree: int,
                             n_digits: int) -> np.ndarray:
    """The uniform halves ``a_0 .. a_{L-1}`` of one key-switching key.

    Returns an ``(n_digits, len(full_base), degree)`` int64 block *defined
    in evaluation (NTT) form* — uniform is uniform in either form, so the
    key generator and the deserializer both use the block as drawn.  One
    stream per seed, digit-major / residue-row-minor.  This is the only
    definition of a seed's expansion: keygen, :mod:`repro.hecore.serialize`
    and (as its one-digit case) :func:`expand_uniform_poly` all call it.
    """
    prng = BlakePrng(bytes(seed))
    block = np.empty((n_digits, len(full_base), degree), dtype=np.int64)
    for digit in block:
        for row, p in zip(digit, full_base.moduli):
            row[:] = prng.sample_uniform(degree, p)
    return block


def expand_uniform_poly(seed: bytes, base: RnsBase, degree: int) -> RnsPoly:
    """The uniform component ``c1 = a`` of a seed-compressed symmetric
    ciphertext: the sender ships the 32-byte seed and the receiver
    regenerates ``a``, halving fresh-upload sizes.  It is the one-digit case
    of :func:`expand_keyswitch_uniform`, so it too is *defined in
    evaluation form*: the encryptor multiplies it by the secret key and the
    receiver stores it, both as drawn.
    """
    block = expand_keyswitch_uniform(seed, base, degree, 1)
    return RnsPoly(base, degree, block[0], is_ntt=True)


def galois_element_for_step(step: int, poly_degree: int) -> int:
    """Galois element implementing a rotation by *step* slots.

    Positive steps rotate the slot vector left (matching SEAL's
    ``rotate_rows``).  The generator 3 has order N/2 modulo 2N.
    """
    m = 2 * poly_degree
    order = poly_degree // 2
    step = step % order
    return pow(3, step, m)


def galois_element_for_conjugation(poly_degree: int) -> int:
    """Galois element swapping the two slot rows (BFV) / conjugating (CKKS)."""
    return 2 * poly_degree - 1


class KeyGenerator:
    """Deterministic key generation from a seed (for reproducible tests).

    PRNG schedule: the secret key, then the public key's uniform rows and
    error, all from one stream; every key-switching key's public seed comes
    from a ``keyswitch-seed`` fork of it, and every key-switching error from
    the main stream, key-major and digit-minor.  Every error and ternary
    polynomial goes to evaluation form through
    :meth:`~repro.hecore.ntt.NttStackPlan.forward_small`.
    """

    def __init__(self, params: EncryptionParameters, seed: Optional[object] = None):
        self.params = params
        self._prng = BlakePrng(seed)
        n = params.poly_degree
        full = params.full_base
        self._plan = ntt.get_stack_plan(n, full.moduli)
        ternary = self._prng.sample_ternary((1, n))
        self._secret = SecretKey(
            RnsPoly.from_signed_array(full, ternary[0]),
            RnsPoly(full, n, self._plan.forward_small(ternary)[0], is_ntt=True))
        self._public = self._make_public_key()
        # Key-switching keys ship their seed in the clear, so it comes from
        # a stream that yields nothing else: no byte of the secret/error
        # stream is ever published.
        self._seed_prng = self._prng.fork("keyswitch-seed")

    def _minus_as_plus_e(self, a: np.ndarray, errors: np.ndarray,
                          base: Optional[RnsBase] = None) -> np.ndarray:
        """``-(a·s + e)`` in evaluation form for a block of uniform ``a``
        (``(..., k, n)`` over *base*, default the full base) and the
        matching ``(m, n)`` signed error rows, as ``NTT(-e) - a·s``: the
        transform is linear, so negating the small rows saves a pass over
        the block.  Every row is its own modulus's, so a sub-base gives
        exactly those rows of the full-base result."""
        full = self.params.full_base
        base = full if base is None else base
        plan = ntt.get_stack_plan(self.params.poly_degree, base.moduli)
        minus_e = plan.forward_small(-errors).reshape(a.shape)
        return base.sub(minus_e, mod_mul(
            a, self._secret.restricted_ntt(base, full).data, base.moduli))

    def _make_public_key(self) -> PublicKey:
        full = self.params.full_base
        n = self.params.poly_degree
        a = np.stack([self._prng.sample_uniform(n, p) for p in full.moduli])
        p0 = self._minus_as_plus_e(a, self._prng.sample_error((1, n)))
        return PublicKey(RnsPoly(full, n, p0, is_ntt=True),
                         RnsPoly(full, n, a, is_ntt=True))

    # ------------------------------------------------------------- key API
    def secret_key(self) -> SecretKey:
        return self._secret

    def public_key(self) -> PublicKey:
        return self._public

    def _make_keyswitch_keys(self, source: RnsPoly, galois_elts: Sequence[int],
                             limbs: Optional[Sequence[int]] = None,
                             ) -> List[KeySwitchKey]:
        """Key-switching keys to s from each image ``source(x^g)`` of
        *source* (NTT form, over the full base), one per element of
        *galois_elts*, in order (``g = 1`` is *source* itself), each made
        for its entry of *limbs* (default: every data limb).

        Every seed is drawn first, then every error as one ``(keys ×
        digits, n)`` draw — the stream a per-key, per-digit loop consumes,
        whatever the keys' levels: a key for ``L`` limbs computes only
        digits ``0..L-1`` over ``q_0..q_{L-1}, P`` from the full key's own
        seed and errors, so it is a byte slice of the full key.  The
        kernels then run over cache-sized tiles of one level's keys
        (:func:`tile_size`): one stacked small-input transform
        of the tile's errors, one dyadic product, and ``P · s_src`` added
        to digit ``i``'s own residue row ``i`` (NTT form is per-row linear,
        so a row-local addition is valid).  Each tile permutes only its own
        sources (the NTT-form automorphism is a column permutation): a
        source per key made up front would leave one freed hole per key
        between the long-lived key blocks, and later allocations slow down.
        """
        params = self.params
        full = params.full_base
        n = params.poly_degree
        digits = len(params.data_base)
        levels = [digits] * len(galois_elts) if limbs is None else list(limbs)
        seeds = [self._seed_prng.random_bytes(SEED_BYTES) for _ in galois_elts]
        errors = self._prng.sample_error(
            (len(galois_elts) * digits, n)).reshape(len(galois_elts), digits, n)
        keys: List[Optional[KeySwitchKey]] = [None] * len(galois_elts)
        for level in sorted(set(levels)):
            at = [i for i, lv in enumerate(levels) if lv == level]
            base = key_base(params, level)
            rows = None if level == digits else key_rows(params, level)
            moduli = base.moduli[:level]
            factors = np.array([params.special_prime % p for p in moduli],
                               dtype=np.int64)[:, None]
            diag = np.arange(level)
            tile = tile_size(base, n, parts=level)
            for start in range(0, len(at), tile):
                chunk = at[start:start + tile]
                uniform = np.stack([
                    expand_keyswitch_uniform(seeds[i], full, n, level)
                    for i in chunk])
                if rows is not None:
                    uniform = uniform[:, :, rows]
                k0 = self._minus_as_plus_e(
                    uniform, errors[chunk, :level].reshape(-1, n), base)
                src = np.stack([source.apply_automorphism(
                    galois_elts[i]).data[:level] for i in chunk])
                k0[:, diag, diag] = mod_add(k0[:, diag, diag],
                                            mod_mul(src, factors, moduli), moduli)
                for i, key_k0, key_a in zip(chunk, k0, uniform):
                    keys[i] = KeySwitchKey(
                        [(RnsPoly(base, n, k0_i, is_ntt=True),
                          RnsPoly(base, n, a_i, is_ntt=True))
                         for k0_i, a_i in zip(key_k0, key_a)], seeds[i], full)
        return keys

    def relin_keys(self) -> RelinKeys:
        s_sq = self._secret.poly_ntt * self._secret.poly_ntt
        (key,) = self._make_keyswitch_keys(s_sq, [1])
        return RelinKeys(key.digits, key.seed)

    def galois_keys(self, steps: Iterable[int] = (), galois_elts: Iterable[int] = (),
                    include_conjugation: bool = False,
                    existing: Optional[GaloisKeys] = None) -> GaloisKeys:
        """Galois keys for the given rotation *steps* and/or raw elements.

        A :class:`RotationSteps` step's key is made for the limbs it is
        rotated at (elements several steps share: the most of them); a
        plain step, a raw element and conjugation get full keys.  With
        *existing*, elements already present at a high enough level keep
        their generated keys (same :class:`KeySwitchKey` objects, so stacked
        caches survive) and only the missing ones, and those held below
        the level now asked for, are generated, in one sorted batch; the
        extended *existing* object is returned.
        """
        n = self.params.poly_degree
        top = len(self.params.data_base)
        wanted: Dict[int, int] = {}

        def want(elt: int, limbs: Optional[int]) -> None:
            limbs = top if limbs is None else min(limbs, top)
            wanted[elt] = max(wanted.get(elt, 0), limbs)

        for step in steps:
            want(galois_element_for_step(step, n),
                 steps.limbs(step) if isinstance(steps, RotationSteps)
                 else None)
        for elt in galois_elts:
            want(elt, None)
        if include_conjugation:
            want(galois_element_for_conjugation(n), None)
        # The identity automorphism never needs a key-switch key (rotations
        # by step 0 are handled without key switching).
        wanted.pop(1, None)
        held = {} if existing is None else existing.keys
        missing = sorted(g for g, limbs in wanted.items()
                         if g not in held or held[g].limbs < limbs)
        made = dict(zip(missing, self._make_keyswitch_keys(
            self._secret.poly_ntt, missing, [wanted[g] for g in missing])))
        if existing is None:
            return GaloisKeys(made)
        existing.update(made)
        return existing


def keyswitch_ext_base(current: RnsBase, params: EncryptionParameters) -> RnsBase:
    """The extended base (current data moduli + the special prime) of a
    switch: the rows of a key made for that level (:func:`key_base`)."""
    return key_base(params, len(current))


def decompose_for_keyswitch(block: np.ndarray, base: RnsBase,
                            ext_base: RnsBase,
                            evaluated: Optional[np.ndarray] = None
                            ) -> np.ndarray:
    """Digit decomposition of a ``(..., k, n)`` coefficient-form *block*
    over *base*, lifted to *ext_base* and NTT'd.

    This is the expensive first half of every key switch — and the half
    Halevi–Shoup hoisting shares across rotations.  Returns an
    ``(..., L, k_ext, n)`` int64 block (digit ``i`` of each polynomial in
    slab ``i``, NTT form, ``L = k``) produced by one batched forward
    transform, however many polynomials *block* stacks.

    The lift is CENTERED: digit residues ``v in [0, p_i)`` are mapped to
    ``(-p_i/2, p_i/2]`` before reduction mod each extended modulus.  Negation
    commutes exactly with the centered lift (``c(p - v) = -c(v)``), so a
    Galois automorphism applied before or after decomposition yields
    bit-identical digits — the invariant that makes hoisted rotations
    byte-equal to the naive per-rotation path.  (It also shaves a little
    key-switch noise: centered digits are half the magnitude.)

    Digit ``i`` reduced mod ``p_i`` is row ``i`` itself, so its row there
    is the polynomial's own evaluation row ``i``.  *evaluated*, the same
    polynomials in evaluation form (``(..., k, n)``), supplies those rows,
    and only the ``L·L`` others are transformed instead of ``L·(L+1)``,
    with a bit-identical result: the data rows as ``L - 1`` stacks over
    the level's own base, stack ``s`` holding digit ``(j + s) mod L`` in
    row ``j`` (every digit once per row but its own), and every digit's
    special-prime row as one batch over ``P`` alone.
    """
    pcol = base.moduli_col
    n = block.shape[-1]
    centered = np.where(block > pcol >> 1, block - pcol, block)
    if evaluated is None:
        lifted = ext_base.lift_signed(centered)
        plan = ntt.get_stack_plan(n, ext_base.moduli)
        return plan.forward_batch(
            lifted.reshape(-1, *lifted.shape[-2:])).reshape(lifted.shape)
    k = len(base)
    out = np.empty(block.shape[:-2] + (k, k + 1, n), dtype=np.int64)
    rows = np.arange(k)
    out[..., rows, rows, :] = evaluated
    if k > 1:
        digits = (rows + np.arange(1, k)[:, None]) % k        # (k-1, k)
        stacks = mod_reduce(centered[..., digits, :], base.moduli)  # (.., k-1, k, n)
        out[..., digits, rows, :] = ntt.get_stack_plan(
            n, base.moduli).forward_batch(
                stacks.reshape(-1, k, n)).reshape(stacks.shape)
    special = ext_base.moduli[-1]
    top = mod_reduce(centered, special)
    out[..., k, :] = ntt.get_stack_plan(n, (special,)).forward_batch(
        top.reshape(-1, 1, n)).reshape(top.shape)
    return out


def keyswitch_inner_product(digits_ntt: np.ndarray,
                            key_block: np.ndarray,
                            ext_base: RnsBase) -> np.ndarray:
    """Dyadic inner product of decomposed digits with key digit blocks.

    ``digits_ntt`` is ``(..., L, k_ext, n)`` (from
    :func:`decompose_for_keyswitch`, possibly gathered through Galois
    permutations), ``key_block`` the matching ``(..., L, 2, k_ext, n)`` from
    :meth:`KeySwitchKey.stacked_digits` (one key) or
    :meth:`GaloisKeys.stacked_block` (a leading axis of R keys, or flattened
    into ``R·L`` digits for a span sum).  Returns the ``(..., 2, k_ext, n)``
    NTT-form accumulators.

    The sum over digits is :func:`repro.hecore.modmath.mod_mac`'s lazily
    reduced multiply-accumulate: one reduction per chunk of digits.
    """
    return mod_mac('...lkn,...lckn->...ckn', digits_ntt, key_block,
                   ext_base.moduli)


def keyswitch_finish(accs: np.ndarray, ext_base: RnsBase) -> np.ndarray:
    """The tail every key switch ends with: inverse-transform a
    ``(B, k_ext, n)`` block of NTT-form accumulators in one stacked pass,
    then divide the whole block by the special prime.  Returns the
    ``(B, k_ext - 1, n)`` coefficient-form block."""
    plan = ntt.get_stack_plan(accs.shape[-1], ext_base.moduli)
    return ext_base.divide_and_round_by_last(plan.inverse_batch(accs))[1]


def switch_key(
    target: RnsPoly, ksk: KeySwitchKey, params: EncryptionParameters,
    fold: Optional[Tuple[RnsPoly, RnsPoly]] = None,
) -> Tuple[RnsPoly, RnsPoly]:
    """Key-switch *target* (either form, over the current data base).

    Returns ``(u0, u1)`` over the same base such that
    ``u0 + u1 * s ≈ target * s_src`` with small added noise.  With *fold*,
    two evaluation-form polys ``(x0, x1)`` over that base, it returns
    ``(x0 + u0, x1 + u1)`` with no inverse transform of its own:
    ``P·(x0, x1)`` joins the accumulator's data rows before the mod-down,
    and ``P·x`` vanishes mod ``P``, so the divide-and-round by ``P`` returns
    ``x`` plus exactly the ``u`` it would have returned.
    """
    # An evaluation-form target lends each digit its own row.
    evaluated = target.data if target.is_ntt else None
    target = target.from_ntt()
    current = target.base
    n = params.poly_degree
    ext_base = keyswitch_ext_base(current, params)

    digits_ntt = decompose_for_keyswitch(target.data, current, ext_base,
                                         evaluated)
    key_block = ksk.stacked_digits(len(current))
    acc = keyswitch_inner_product(digits_ntt, key_block, ext_base)
    if fold is not None:
        p_fold = current.scale(np.stack([f.data for f in fold]),
                               params.special_prime)
        acc[:, :len(current)] = current.add(acc[:, :len(current)], p_fold)
    u0, u1 = keyswitch_finish(acc, ext_base)
    return (RnsPoly(current, n, u0, is_ntt=False),
            RnsPoly(current, n, u1, is_ntt=False))
