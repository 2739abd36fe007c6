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
* :func:`rotate_and_sum` — the all-prefix rotation sum used by the distance
  kernels, with NTT-domain accumulation (one inverse transform + one
  special-prime rescale for the whole span) and a baby-step/giant-step
  split for wide spans;
* :class:`WeightedSumSpan` — the diagonal-matvec kernel: plaintext
  diagonals multiply each rotation in the NTT domain and the whole sum pays
  a single inverse transform + rescale.

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
            ct.components[1].from_ntt(), self.ext_base)
        ctx.counts["hoisted_decompose"] += 1

    # ------------------------------------------------------------ kernels
    def _gathered_digits(self, galois_elts: Sequence[int]) -> np.ndarray:
        """``(R, L, k_ext, n)`` contiguous gather of the decomposed digits
        through every element's cached NTT permutation."""
        n_digits, k_ext, _ = self.digits_ntt.shape
        perms = np.stack([ntt_permutation(self.n, g) for g in galois_elts])
        # Broadcast fancy index writes the gather R-major and contiguous in
        # one pass (a plain axis gather would land (L, k, R, n) and need a
        # copy to flatten).
        return self.digits_ntt[
            np.arange(n_digits)[None, :, None, None],
            np.arange(k_ext)[None, None, :, None],
            perms[:, None, None, :],
        ]

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

    def inner_product_sum(self, galois_elts: Sequence[int]) -> np.ndarray:
        """``(2, k_ext, n)`` sum of every element's key-switch accumulator.

        The span-sum kernel: summing over rotations and digits alike, the
        ``R·L`` gathered digits against the flattened key block are ONE
        inner product with ``R·L`` digits — no per-rotation result is
        materialized, and the result is bit-exact with summing
        :meth:`inner_product_many` over the batch.
        """
        gathered = self._gathered_digits(galois_elts)   # (R, L, k, n)
        keys = self.keys.stacked_block(
            galois_elts, self.rows, len(self.current))
        return keyswitch_inner_product(
            gathered.reshape(-1, *gathered.shape[2:]),
            keys.reshape(-1, *keys.shape[2:]), self.ext_base)

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


def _hoisted_span_sum(ctx, ct: Ciphertext, steps: Sequence[int],
                      keys: GaloisKeys) -> Ciphertext:
    """``ct + sum(rotate(ct, s) for s in steps)`` with one hoisted decompose.

    All rotations' key-switch products accumulate over the extended base in
    the NTT domain, so the whole span pays ONE inverse transform pair and
    ONE special-prime rescale.  The ``c0`` parts stay in the coefficient
    domain: every rotation is a cached signed gather
    (:func:`coeff_automorphism_perm`), the gathered columns sum lazily in
    int64, and one final mod recovers the canonical sum — no NTT round
    trip at all.
    """
    rotator = HoistedRotator(ctx, ct, keys)
    n = rotator.n
    elements = [galois_element_for_step(s, n) for s in steps]
    live = [g for g in elements if g != 1]
    identity_extra = len(elements) - len(live)
    ctx.counts["rotate"] += len(live)

    current = ct.level_base
    cur_pcol = current.moduli_col
    c0 = ct.components[0].from_ntt()
    c1 = ct.components[1].from_ntt()
    c1_sum = c1
    for _ in range(identity_extra):
        c1_sum = c1_sum + c1
    # Canonical residues are < 2**30; a span sums far fewer than 2**33
    # terms, so the whole accumulation is exact in int64 with one final mod.
    acc0 = (1 + identity_extra) * c0.data
    if live:
        gathers = [coeff_automorphism_perm(n, g) for g in live]
        sources = np.stack([src for src, _ in gathers])
        signs = np.stack([sign for _, sign in gathers])
        acc0 = acc0 + np.einsum('krn,rn->kn', c0.data[:, sources], signs)
    c0_sum = RnsPoly(current, n, np.mod(acc0, cur_pcol), is_ntt=False)
    if not live:
        return Ciphertext(rotator.params, [c0_sum, c1_sum], scale=ct.scale)

    acc = rotator.inner_product_sum(live)           # (2, k_ext, n)
    ((u0, u1),) = rotator.finish_batch(acc[None])
    return Ciphertext(rotator.params, [c0_sum + u0, c1_sum + u1],
                      scale=ct.scale)


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
        out = _hoisted_span_sum(ctx, ct, phase1, keys)
        if phase2:
            out = _hoisted_span_sum(ctx, out, phase2, keys)
        return out
    # Log-tree fallback: rotates the updated accumulator each level, so no
    # decompose can be shared — but it only needs the power-of-two keys.
    step = width // 2
    while step >= 1:
        ct = ctx.add(ct, ctx.rotate(ct, step, keys))
        step //= 2
    return ct


# ---------------------------------------------------------------------------
# Fused diagonal matvec (rotate, plain-multiply, accumulate — all in NTT form)
# ---------------------------------------------------------------------------

class WeightedSumSpan:
    """A reusable ``sum(m_j (*) rotate(ct, s_j))`` span with cached tables.

    The plaintext side of a weighted rotation span is static: the Galois
    elements, the coefficient automorphism permutations, and — crucially —
    the forward-NTT transforms of every diagonal over both the current and
    the extended RNS base depend only on the terms and the ciphertext's
    modulus chain, not on the ciphertext.  A span instance computes them
    once per modulus chain and replays them on every call; the IR
    scheduler keeps one span per fused ``weighted_sum`` node, so steady-
    state matvecs pay zero plaintext transform work.

    Cache misses charge ``ctx.counts['ntt_forward']`` and hits charge
    ``ntt_elided`` (units: residue-row transforms), making the residency
    telemetry visible to the cost ledger and the benches.
    """

    def __init__(self, terms: Sequence[Tuple[int, np.ndarray]]):
        if not terms:
            raise ValueError("WeightedSumSpan needs at least one term")
        self.terms = [(int(step), np.asarray(coeffs, dtype=np.int64))
                      for step, coeffs in terms]
        self._tables: dict = {}

    def steps(self) -> set:
        return {step for step, _ in self.terms if step}

    def _resolved(self, ctx, rotator, current):
        key = tuple(int(p) for p in current.moduli)
        table = self._tables.get(key)
        if table is not None:
            ctx.counts["ntt_elided"] += table["rows"]
            return table
        n = rotator.n
        plan_cur = ntt.get_stack_plan(n, current.moduli)
        resolved = [(galois_element_for_step(step, n), coeffs)
                    for step, coeffs in self.terms]
        live = [(g, coeffs) for g, coeffs in resolved if g != 1]
        identity = [coeffs for g, coeffs in resolved if g == 1]
        table = {"elements": [g for g, _ in live],
                 "n_identity": len(identity),
                 "m_id": None, "m_cur": None, "m_ext": None, "perms": None,
                 "rows": 0}
        if identity:
            table["m_id"] = plan_cur.forward_batch(
                current.lift_signed(np.stack(identity)))
            table["rows"] += len(identity) * len(current)
        if live:
            coeff_stack = np.stack([coeffs for _, coeffs in live])
            # Batched plaintext transforms: every diagonal over the current
            # base and the extended base in two stacked passes.
            table["m_cur"] = plan_cur.forward_batch(
                current.lift_signed(coeff_stack))
            table["m_ext"] = rotator.plan.forward_batch(
                rotator.ext_base.lift_signed(coeff_stack))
            table["perms"] = np.stack(
                [ntt_permutation(n, g) for g in table["elements"]])
            table["rows"] += len(live) * (len(current)
                                          + len(rotator.ext_base))
        ctx.counts["ntt_forward"] += table["rows"]
        self._tables[key] = table
        return table

    def __call__(self, ctx, ct: Ciphertext,
                 galois_keys: Optional[GaloisKeys] = None) -> Ciphertext:
        rotator = HoistedRotator(ctx, ct, galois_keys)
        n = rotator.n
        current = ct.level_base
        ext_pcol = rotator.ext_base.moduli_col
        cur_pcol = current.moduli_col
        plan_cur = ntt.get_stack_plan(n, current.moduli)
        table = self._resolved(ctx, rotator, current)
        elements = table["elements"]
        ctx.counts["multiply_plain"] += len(self.terms)
        ctx.counts["rotate"] += len(elements)

        c0_ntt = ct.components[0].to_ntt().data
        acc_cur0 = np.zeros((len(current), n), dtype=np.int64)
        acc_cur1 = None
        if table["n_identity"]:
            c1_ntt = ct.components[1].to_ntt().data
            acc_cur1 = np.zeros_like(acc_cur0)
            for m_cur_ntt in table["m_id"]:
                acc_cur0 += np.mod(m_cur_ntt * c0_ntt, cur_pcol)
                acc_cur1 += np.mod(m_cur_ntt * c1_ntt, cur_pcol)
        if elements:
            # (R, 2, k_ext, n) key-switch accumulators, weighted per-diagonal
            # and reduced across the batch in one pass.
            ks = rotator.inner_product_many(elements)
            acc_ext = np.mod(
                np.mod(ks * table["m_ext"][:, None], ext_pcol).sum(axis=0),
                ext_pcol)
            c0_perm = np.moveaxis(c0_ntt[:, table["perms"]], 1, 0)  # (R, k, n)
            acc_cur0 += np.mod(c0_perm * table["m_cur"], cur_pcol).sum(axis=0)

        c0_out = RnsPoly(current, n,
                         plan_cur.inverse(np.mod(acc_cur0, cur_pcol)),
                         is_ntt=False)
        c1_out = None
        if acc_cur1 is not None:
            c1_out = RnsPoly(current, n,
                             plan_cur.inverse(np.mod(acc_cur1, cur_pcol)),
                             is_ntt=False)
        if elements:
            ((u0, u1),) = rotator.finish_batch(acc_ext[None])
            c0_out = c0_out + u0
            c1_out = u1 if c1_out is None else c1_out + u1
        if c1_out is None:
            c1_out = RnsPoly.zero(current, n, is_ntt=False)
        return Ciphertext(rotator.params, [c0_out, c1_out], scale=ct.scale)
