"""Halevi–Shoup hoisted rotations and fused multi-rotation kernels.

A naive slot rotation pays a full key switch: decompose the ciphertext's
second component into RNS digits, lift each digit to the extended
(current + special) base, forward-NTT every lifted digit, inner-product with
the Galois key, inverse-NTT, and rescale away the special prime.  When many
rotations apply to the *same* ciphertext — the diagonal matvec, the
rotate-and-sum distance reductions, PageRank's packing refresh — everything
up to the inner product is identical across rotations except for the Galois
automorphism.

Hoisting (Halevi–Shoup, "Faster Homomorphic Linear Transformations in
HElib") reorders the pipeline so the expensive half runs once:

* the digit decomposition uses a CENTERED lift (see
  :func:`~repro.hecore.keys.decompose_for_keyswitch`), which commutes
  exactly with the automorphism's sign flips, so decomposing first and
  permuting later is bit-identical to permuting first;
* in NTT form the automorphism is a pure column permutation, so each
  rotation costs one gather + one dyadic inner product over the
  pre-transformed digit block;
* the per-rotation inner products run as one stacked numpy kernel over all
  (rotation x residue) pairs, and the inverse transforms of a whole batch of
  rotations run as one :meth:`NttStackPlan.inverse_batch` pass.

On top of :class:`HoistedRotator` this module provides the fused
primitives consumed across the eval hot path:

* :func:`rotate_many` — any set of rotations of one ciphertext, bit-exact
  with sequential ``rotate_rows`` calls;
* :func:`rotation_sum` — a sum of rotations of any ciphertexts (the giant
  steps of a baby-step/giant-step sum): one decompose per source, every
  key switch accumulated over the extended base, and one inverse
  transform + one special-prime rescale for the whole sum;
* :func:`rotate_and_sum` — the all-prefix rotation sum used by the distance
  kernels, each phase a one-source :func:`rotation_sum`, with a
  baby-step/giant-step split for wide spans;
* :class:`WeightedSumSpan` — the masked rotation sum behind every
  diagonal matvec, conv and baby-step/giant-step collapse: plaintext
  multipliers weight the rotations' key-switch accumulators in the NTT
  domain over the extended base, and the whole sum pays a single inverse
  transform + mod-down.  Spans over one ciphertext share its
  :class:`HoistedRotator` and so its accumulators (double hoisting).

Everything is server-local: ciphertext and key wire formats are unchanged.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.hecore import ntt
from repro.hecore.ciphertext import Ciphertext
from repro.hecore.keys import (
    GaloisKeys,
    decompose_for_keyswitch,
    galois_element_for_conjugation,
    galois_element_for_step,
    keyswitch_ext_base,
    keyswitch_finish,
    keyswitch_inner_product,
    keyswitch_rows,
)
from repro.hecore.polyring import (
    RnsPoly,
    coeff_automorphism_perm,
    ntt_permutation,
)
from repro.hecore.rns import RnsBase

#: rotate_and_sum spans up to this width run flat (one hoisted decompose,
#: width-1 cheap rotations); wider spans split baby-step/giant-step so the
#: cheap-rotation count stays ~2*sqrt(width) at the cost of one extra
#: decompose.
FLAT_SUM_LIMIT = 32


def _steps_available(keys: Optional[GaloisKeys], steps, n: int) -> bool:
    if keys is None:
        return False
    return all(
        g == 1 or g in keys
        for g in (galois_element_for_step(s, n) for s in steps)
    )


def _gather(blocks: np.ndarray, owners: Sequence[int],
            columns: Sequence[np.ndarray]) -> np.ndarray:
    """``(R, ..., n)`` gather of ``(S, ..., n)`` blocks: entry ``r`` is
    block ``owners[r]`` with its last axis read through ``columns[r]`` (a
    Galois element's cached permutation), written contiguous, one
    ``np.take`` per entry (a broadcast fancy index over every axis is
    slower)."""
    out = np.empty((len(owners),) + blocks.shape[1:], blocks.dtype)
    for r, (owner, cols) in enumerate(zip(owners, columns)):
        np.take(blocks[owner], cols, axis=-1, out=out[r])
    return out


class HoistedRotator:
    """Shares one key-switch digit decomposition across every rotation of a
    single ciphertext.

    Construction runs the hoisted (expensive) half — centered digit
    decomposition, lift to the extended base, one batched forward NTT —
    and each subsequent Galois element costs a cached column permutation
    plus one stacked dyadic inner product with the pre-stacked key digits.
    Results are bit-exact with the naive per-rotation path.
    """

    def __init__(self, ctx, ct: Ciphertext,
                 galois_keys: Optional[GaloisKeys] = None):
        if len(ct) != 2:
            raise ValueError("relinearize before rotating")
        self.ctx = ctx
        self.ct = ct
        self.keys = ctx._resolve_galois(galois_keys)
        self.params = ctx.params
        self.n = self.params.poly_degree
        self.current = ct.level_base
        self.ext_base = keyswitch_ext_base(self.current, self.params)
        self.rows = keyswitch_rows(self.current, self.params)
        self.plan = ntt.get_stack_plan(self.n, self.ext_base.moduli)
        # The hoisted half, paid once per ciphertext.
        self.digits_ntt = decompose_for_keyswitch(
            ct.components[1].from_ntt().data, self.current, self.ext_base)
        ctx.counts["hoisted_decompose"] += 1
        self._accs: dict = {}

    # ------------------------------------------------------------ kernels
    def _gathered_digits(self, galois_elts: Sequence[int]) -> np.ndarray:
        """``(R, L, k_ext, n)`` gather of the decomposed digits through
        every element's cached NTT permutation."""
        return _gather(self.digits_ntt[None], [0] * len(galois_elts),
                       [ntt_permutation(self.n, g) for g in galois_elts])

    def inner_product_many(self, galois_elts: Sequence[int]) -> np.ndarray:
        """``(R, 2, k_ext, n)`` key-switch accumulators, one numpy pass.

        Permuting the pre-transformed digits equals decomposing the
        automorphed ciphertext (the centered lift commutes with the
        automorphism), so the gathered digits against the pre-stacked
        multi-key block (:meth:`GaloisKeys.stacked_block`) are the R-key
        case of the one key-switch inner product.
        """
        keys = self.keys.stacked_block(galois_elts, self.rows,
                                       len(self.current))
        return keyswitch_inner_product(self._gathered_digits(galois_elts),
                                       keys, self.ext_base)

    def accumulators(self, galois_elts: Sequence[int]) -> np.ndarray:
        """``(R, 2, k_ext, n)`` NTT-form accumulators of every element's
        rotation *before* its mod-down: ``P·(c0∘g, 0)`` plus the key-switch
        inner product (``P·(c0, c1)`` for the identity).  ``P·x`` vanishes
        mod ``P``, so finishing one returns exactly the rotated ciphertext,
        and a plaintext-weighted sum of them finishes to the weighted sum
        of rotations with one mod-down.  Each element's block is built once
        per rotator (the missing ones in one batch), and each non-identity
        one is charged as one ``rotate``: every span over this ciphertext
        shares them (double hoisting)."""
        missing = [g for g in dict.fromkeys(galois_elts) if g not in self._accs]
        if missing:
            k = len(self.current)
            c_ntt = np.stack([c.to_ntt().data for c in self.ct.components])
            p_c = self.current.scale(c_ntt, self.params.special_prime)
            live = [g for g in missing if g != 1]
            if live:
                self.ctx.counts["rotate"] += len(live)
                blocks = self.inner_product_many(live)
                moved = _gather(p_c[0][None], [0] * len(live),  # (R, k, n)
                                [ntt_permutation(self.n, g) for g in live])
                blocks[:, 0, :k] = self.current.add(blocks[:, 0, :k], moved)
                self._accs.update(zip(live, blocks))
            if 1 in missing:
                block = np.zeros((2, len(self.ext_base), self.n), np.int64)
                block[:, :k] = p_c
                self._accs[1] = block
        return np.stack([self._accs[g] for g in galois_elts])

    def finish_batch(self, accs: np.ndarray) -> List[Tuple[RnsPoly, RnsPoly]]:
        """Inverse-transform + special-prime rescale of ``(R, 2, k_ext, n)``
        accumulators: the whole rotation batch goes through the key-switch
        tail (:func:`~repro.hecore.keys.keyswitch_finish`) as one
        ``(2R, k_ext, n)`` block."""
        r = accs.shape[0]
        rescaled = keyswitch_finish(
            accs.reshape(r * 2, len(self.ext_base), self.n), self.ext_base)
        return [
            (RnsPoly(self.current, self.n, rescaled[2 * i], is_ntt=False),
             RnsPoly(self.current, self.n, rescaled[2 * i + 1], is_ntt=False))
            for i in range(r)
        ]

    # --------------------------------------------------------- public API
    def apply_many(self, galois_elts: Sequence[int]) -> List[Ciphertext]:
        """One ciphertext per Galois element, sharing the hoisted decompose."""
        out: List[Optional[Ciphertext]] = [None] * len(galois_elts)
        live: List[Tuple[int, int]] = []
        for i, g in enumerate(galois_elts):
            if g == 1:
                out[i] = self.ct.copy()
            else:
                live.append((i, g))
        if live:
            accs = self.inner_product_many([g for _, g in live])
            for (i, g), (u0, u1) in zip(live, self.finish_batch(accs)):
                c0 = self.ct.components[0].apply_automorphism(g).from_ntt()
                out[i] = Ciphertext(self.params, [c0 + u0, u1],
                                    scale=self.ct.scale)
        return out


def rotate_many(ctx, ct: Ciphertext, steps: Sequence[int],
                galois_keys: Optional[GaloisKeys] = None,
                include_conjugation: bool = False) -> List[Ciphertext]:
    """Rotate *ct* by every step in *steps* with one hoisted decompose.

    Bit-exact with sequential ``rotate_rows``/``rotate`` calls.  With
    *include_conjugation* an extra conjugated (rows-swapped) ciphertext is
    appended after the rotations.
    """
    rotator = HoistedRotator(ctx, ct, galois_keys)
    elements = [galois_element_for_step(s, rotator.n) for s in steps]
    if include_conjugation:
        elements.append(galois_element_for_conjugation(rotator.n))
    ctx.counts["rotate"] += len(elements)
    return rotator.apply_many(elements)


# ---------------------------------------------------------------------------
# Fused rotate-and-sum
# ---------------------------------------------------------------------------

def _sum_span_steps(width: int) -> Tuple[List[int], List[int]]:
    """Step sets for the (up to two) hoisted phases of a width-sum."""
    if width <= FLAT_SUM_LIMIT:
        return list(range(1, width)), []
    baby = 1 << ((width.bit_length() - 1 + 1) // 2)
    return (list(range(1, baby)),
            [j * baby for j in range(1, width // baby)])


def rotate_and_sum_steps(width: int) -> Set[int]:
    """Galois-key steps :func:`rotate_and_sum` wants for a power-of-two
    *width*: the hoisted step set (baby steps plus giant multiples for wide
    spans).  The power-of-two ladder of the log-tree fallback is always
    inside it — powers below the baby count are baby steps, the rest are
    giant multiples — so one key upload serves either path.
    """
    width = int(width)
    if width <= 1:
        return set()
    phase1, phase2 = _sum_span_steps(width)
    return {*phase1, *phase2}


def rotation_sum(ctx, terms: Sequence[Tuple[Ciphertext, int]],
                 galois_keys: Optional[GaloisKeys] = None) -> Ciphertext:
    """``sum(rotate(ct, step) for ct, step in terms)``, a step of 0 being
    the unrotated ciphertext: every key switch of the sum shares one
    inverse transform and one mod-down.

    Each distinct source (by identity) is decomposed once, every source in
    one batched forward transform.  Each rotated term gathers its source's
    digits through its element's NTT permutation, and all ``(term, digit)``
    pairs meet the flattened key block (:meth:`GaloisKeys.stacked_block`)
    in ONE inner product, accumulated over the extended base.  The sum is
    then finished once (:func:`~repro.hecore.keys.keyswitch_finish`): a sum
    of mod-downs becomes the mod-down of a sum, so the result moves by
    rounding only (BFV decrypts bit-identically; its noise can only lose
    rounding terms).  The ``c0`` parts stay in the coefficient domain:
    every rotation is a cached signed gather
    (:func:`coeff_automorphism_perm`), summed lazily in int64 with the
    unrotated terms' components and reduced once.

    Charges one ``rotate`` per rotated term and one decompose per source
    it rotates: ``hoisted_decompose`` when that decompose serves two or
    more rotations, ``naive_decompose`` when it serves one.  Every term
    must sit on one level base; a missing key raises
    :class:`~repro.hecore.keys.MissingEvaluationKey`.
    """
    if not terms:
        raise ValueError("rotation_sum needs at least one term")
    params = ctx.params
    n = params.poly_degree
    current = terms[0][0].level_base
    slot: dict = {}                     # id(source) -> source index
    sources: List[Ciphertext] = []
    for ct, _ in terms:
        if len(ct) != 2:
            raise ValueError("relinearize before rotating")
        if ct.level_base != current:
            raise ValueError("rotation_sum terms must share one level base")
        if id(ct) not in slot:
            slot[id(ct)] = len(sources)
            sources.append(ct)
    coeffs = np.stack([[c.from_ntt().data for c in ct.components]
                       for ct in sources])                  # (S, 2, k, n)
    owner = np.array([slot[id(ct)] for ct, _ in terms])
    elements = np.array([galois_element_for_step(s, n) for _, s in terms])
    rotated = elements != 1
    # Canonical residues are < 2**30; a sum has far fewer than 2**33
    # terms, so the whole accumulation is exact in int64 with one final mod.
    acc = coeffs[owner[~rotated]].sum(axis=0)               # (2, k, n)
    if rotated.any():
        keys = ctx._resolve_galois(galois_keys)
        live, live_owner = elements[rotated].tolist(), owner[rotated]
        decomposed, local = np.unique(live_owner, return_inverse=True)
        shared = np.bincount(local) > 1
        ctx.counts["rotate"] += len(live)
        ctx.counts["hoisted_decompose"] += int(shared.sum())
        ctx.counts["naive_decompose"] += int((~shared).sum())
        gathers = [coeff_automorphism_perm(n, g) for g in live]
        acc[0] += np.einsum(
            'tkn,tn->kn',
            _gather(coeffs[:, 0], live_owner, [src for src, _ in gathers]),
            np.stack([sign for _, sign in gathers]))
        ext_base = keyswitch_ext_base(current, params)
        digits = decompose_for_keyswitch(coeffs[decomposed, 1], current,
                                         ext_base)
        gathered = _gather(digits, local,                   # (T, L, k, n)
                           [ntt_permutation(n, g) for g in live])
        key_block = keys.stacked_block(
            live, keyswitch_rows(current, params), len(current))
        acc += keyswitch_finish(keyswitch_inner_product(
            gathered.reshape(-1, *gathered.shape[2:]),
            key_block.reshape(-1, *key_block.shape[2:]), ext_base), ext_base)
    return Ciphertext(params, [RnsPoly(current, n, part, is_ntt=False)
                               for part in np.mod(acc, current.moduli_col)],
                      scale=terms[0][0].scale)


def rotate_and_sum(ctx, ct: Ciphertext, width: int,
                   galois_keys: Optional[GaloisKeys] = None) -> Ciphertext:
    """Sum of ``rotate(ct, i)`` for ``i in range(width)`` (power-of-two span).

    Every width-aligned window of slots ends up holding the window total in
    each of its positions.  A log2(width) rotate/add tree remains the
    fallback when the session only holds the power-of-two key ladder.  With
    the hoisted step set available (see :func:`rotate_and_sum_steps`) the
    span runs as one or two hoisted phases: flat up to ``FLAT_SUM_LIMIT``,
    baby-step/giant-step beyond it (two decomposes + ~2*sqrt(width) cheap
    rotations, versus log2(width) full key switches for the tree).
    """
    width = int(width)
    if width <= 1:
        return ct
    if width & (width - 1):
        raise ValueError(f"rotate_and_sum width {width} must be a power of two")
    keys = galois_keys or ctx.held_galois_keys()
    n = ctx.params.poly_degree
    phase1, phase2 = _sum_span_steps(width)
    if _steps_available(keys, phase1 + phase2, n):
        out = rotation_sum(ctx, [(ct, s) for s in [0, *phase1]], keys)
        if phase2:
            out = rotation_sum(ctx, [(out, s) for s in [0, *phase2]], keys)
        return out
    # Log-tree fallback: rotates the updated accumulator each level, so no
    # decompose can be shared — but it only needs the power-of-two keys.
    step = width // 2
    while step >= 1:
        ct = ctx.add(ct, ctx.rotate(ct, step, keys))
        step //= 2
    return ct


# ---------------------------------------------------------------------------
# Fused weighted rotation sums (double-hoisted: weight, accumulate, one
# mod-down — all in NTT form over the extended base)
# ---------------------------------------------------------------------------

class WeightedSumSpan:
    """A reusable ``sum(m_j (*) rotate(ct, s_j))`` over one modulus chain.

    The plaintext side of a weighted rotation span is static: the Galois
    elements, their NTT permutations and the forward transforms of every
    multiplier over the extended (current + special) base depend only on
    the terms and the chain, not on the ciphertext.  A span builds them
    once, at construction (charging ``ctx.counts['ntt_forward']``, units:
    residue-row transforms; terms on one Galois element share one row
    set); the IR scheduler keeps one span per fused ``weighted_sum`` node
    and chain, so steady-state calls pay no plaintext transform.

    Evaluation is double-hoisted (Bossuat et al., Eurocrypt 2021): the
    rotations come from the source's :class:`HoistedRotator` as
    extended-base accumulators, not yet mod-downed
    (:meth:`HoistedRotator.accumulators`), so every span over one
    ciphertext shares its one decompose and one inner product per Galois
    element.  A span is then one inner product of its multipliers with
    those accumulators, one inverse transform and one mod-down.  BFV
    results are bit-identical to the rotate → multiply → add chain's
    plaintext; CKKS ones differ by mod-down rounding only.
    """

    def __init__(self, ctx, current: RnsBase,
                 terms: Sequence[Tuple[int, np.ndarray]], scale: float = 1.0):
        """*terms* are ``(step, residues)``: each multiplier as a
        ``(k_ext, n)`` coefficient-form residue block over
        ``keyswitch_ext_base(current)``.  *scale* is the multipliers'
        CKKS scale (the product carries ``ct.scale * scale``)."""
        if not terms:
            raise ValueError("WeightedSumSpan needs at least one term")
        params = ctx.params
        n = params.poly_degree
        ext = keyswitch_ext_base(current, params)
        self.scale = float(scale)
        self.term_count = len(terms)
        by_element: dict = {}
        for step, residues in terms:
            g = galois_element_for_step(step, n)
            by_element[g] = np.mod(by_element.get(g, 0) + residues,
                                   ext.moduli_col)
        self.elements = sorted(by_element)
        self.m_ntt = ntt.get_stack_plan(n, ext.moduli).forward_batch(
            np.stack([by_element[g] for g in self.elements]))
        self.rows = len(self.elements) * len(ext)
        ctx.counts["ntt_forward"] += self.rows

    @classmethod
    def of_coeffs(cls, ctx, current: RnsBase,
                  terms: Sequence[Tuple[int, np.ndarray]]) -> "WeightedSumSpan":
        """A span over *current* from ``(step, coeffs)`` terms whose
        multipliers are small signed integer polynomials (BFV plaintext
        coefficients)."""
        ext = keyswitch_ext_base(current, ctx.params)
        return cls(ctx, current, [(step, ext.lift_signed(coeffs))
                                  for step, coeffs in terms])

    def __call__(self, ctx, ct: Ciphertext,
                 galois_keys: Optional[GaloisKeys] = None) -> Ciphertext:
        """One span over *ct* with its own hoisted decompose."""
        return self.apply(HoistedRotator(ctx, ct, galois_keys))

    def apply(self, rotator: HoistedRotator) -> Ciphertext:
        """The span over *rotator*'s ciphertext, sharing its decompose and
        rotation accumulators with every other span over it: one inner
        product of the multipliers with those accumulators, one inverse
        transform, one mod-down."""
        rotator.ctx.counts["multiply_plain"] += self.term_count
        acc = keyswitch_inner_product(
            self.m_ntt, rotator.accumulators(self.elements), rotator.ext_base)
        ((u0, u1),) = rotator.finish_batch(acc[None])
        return Ciphertext(rotator.params, [u0, u1],
                          scale=rotator.ct.scale * self.scale)
