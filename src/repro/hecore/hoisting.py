"""Halevi–Shoup hoisted rotations and the one fused key-switch sum.

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

On top of :class:`HoistedRotator` this module provides:

* :func:`keyswitch_sum` — ``Σ_j w_j ⊙ rotate(x_j, s_j)`` over any sources,
  plaintext-weighted or not, finished once.  Its cost split is *HEAAN
  Demystified*'s: one decompose per source (kept on the source's
  :class:`HoistedRotator`, so sums over one ciphertext share it and its
  per-element key-switch blocks — double hoisting, Bossuat et al.,
  Eurocrypt 2021), one key-switch inner product per distinct (source,
  Galois element), one inner product of the weights with those
  extended-base blocks, and one inverse transform and one mod-down for the
  whole sum.  It runs every ``keyswitch_sum`` IR node: the masked spans of
  the diagonal matvec, conv and baby-step/giant-step collapse, and the
  giant-step sums after them;
* :func:`window_phases` — the one step policy of a window sum
  ``Σ_{i<w} rotate(x, i)`` (the distance kernels' dimension reduction):
  flat up to ``FLAT_SUM_LIMIT``, babies then giants beyond.  A traced
  body emits each phase as plain rotations and adds
  (:func:`repro.core.linalg._window_sum`), which the scheduler compiles
  to one unweighted ``keyswitch_sum`` per phase;
* :func:`rotate_and_sum` — the same phases run directly as one-source
  :func:`keyswitch_sum` calls, for callers outside a traced kernel.

Everything is server-local: ciphertext and key wire formats are unchanged.
"""

from __future__ import annotations

from itertools import groupby
from typing import List, NamedTuple, Optional, Sequence, Set, Tuple

import numpy as np

from repro.hecore import ntt
from repro.hecore.ciphertext import Ciphertext
from repro.hecore.keys import (
    GaloisKeys,
    decompose_for_keyswitch,
    galois_element_for_step,
    keyswitch_ext_base,
    keyswitch_finish,
    keyswitch_inner_product,
)
from repro.hecore.modmath import mod_reduce
from repro.hecore.polyring import (
    RnsPoly,
    coeff_automorphism_perm,
    ntt_permutation,
)
from repro.hecore.rns import RnsBase

#: Window sums up to this width run as one phase (one hoisted decompose,
#: width-1 cheap rotations); wider ones split baby-step/giant-step so the
#: cheap-rotation count stays ~2*sqrt(width) at the cost of one extra
#: decompose (:func:`window_phases`).
FLAT_SUM_LIMIT = 32


def _gather(blocks, owners: Sequence[int],
            columns: Sequence[np.ndarray]) -> np.ndarray:
    """``(R, ..., n)`` gather of equally shaped blocks (an array or a list
    indexed by owner): entry ``r`` is block ``owners[r]`` with its last
    axis read through ``columns[r]`` (a Galois element's cached
    permutation), written contiguous, one ``np.take`` per entry (a
    broadcast fancy index over every axis is slower)."""
    first = blocks[owners[0]]
    out = np.empty((len(owners),) + first.shape, first.dtype)
    for r, (owner, cols) in enumerate(zip(owners, columns)):
        np.take(blocks[owner], cols, axis=-1, out=out[r])
    return out


class HoistedRotator:
    """One ciphertext's share of every key switch that rotates it.

    The hoisted (expensive) half — centered digit decomposition, lift to
    the extended base, one batched forward NTT — is made once, on the first
    rotation (:func:`_decompose`), and each Galois element then costs a
    cached column permutation plus one stacked dyadic inner product with
    the pre-stacked key digits.  Results are bit-exact with the naive
    per-rotation path.
    """

    def __init__(self, ctx, ct: Ciphertext,
                 galois_keys: Optional[GaloisKeys] = None):
        if len(ct) != 2:
            raise ValueError("relinearize before rotating")
        self.ctx = ctx
        self.ct = ct
        self.galois_keys = galois_keys
        self.params = ctx.params
        self.n = self.params.poly_degree
        self.current = ct.level_base
        self.ext_base = keyswitch_ext_base(self.current, self.params)
        #: ``(L, k_ext, n)`` NTT-form digits of ``c1``; ``None`` until the
        #: first rotation decomposes it.
        self.digits_ntt: Optional[np.ndarray] = None
        #: Element tuple -> the stacked block :meth:`accumulators` returns,
        #: and Galois element -> its ``(2, k_ext, n)`` row, a view into the
        #: first block that holds it (the blocks are the only copies).
        self._blocks: dict = {}
        self._rows: dict = {}

    @property
    def keys(self) -> GaloisKeys:
        return self.ctx._resolve_galois(self.galois_keys)

    # ------------------------------------------------------------ kernels
    def inner_product_many(self, galois_elts: Sequence[int]) -> np.ndarray:
        """``(R, 2, k_ext, n)`` key-switch accumulators, one numpy pass.

        Permuting the pre-transformed digits equals decomposing the
        automorphed ciphertext (the centered lift commutes with the
        automorphism), so the gathered digits against the pre-stacked
        multi-key block (:meth:`GaloisKeys.stacked_block`) are the R-key
        case of the one key-switch inner product.
        """
        keys = self.keys.stacked_block(galois_elts, len(self.current))
        digits = _gather([self.digits_ntt], [0] * len(galois_elts),
                         [ntt_permutation(self.n, g) for g in galois_elts])
        return keyswitch_inner_product(digits, keys, self.ext_base)

    def accumulators(self, galois_elts: Sequence[int]) -> np.ndarray:
        """``(E, 2, k_ext, n)`` NTT-form accumulators of every element's
        rotation *before* its mod-down, one block per element tuple:
        ``P·(c0∘g, 0)`` plus the key-switch inner product (``P·(c0, c1)``
        for the identity).  ``P·x`` vanishes mod ``P``, so finishing one
        returns exactly the rotated ciphertext, and a plaintext-weighted
        sum of them finishes to the weighted sum of rotations with one
        mod-down.  Each element's accumulator is built once per rotator
        (the missing ones in one batch, after the decompose) and charged as
        one ``rotate`` when it is not the identity; each tuple's block is
        stacked once and kept, so the sibling sums over this ciphertext
        read one block (double hoisting), and a later tuple copies the
        rows it shares with an earlier block out of that block."""
        key = tuple(galois_elts)
        block = self._blocks.get(key)
        if block is not None:
            return block
        built = {}
        missing = [g for g in dict.fromkeys(key) if g not in self._rows]
        k = len(self.current)
        if missing:
            c_ntt = np.stack([c.to_ntt().data for c in self.ct.components])
            p_c = self.current.scale(c_ntt, self.params.special_prime)
            live = [g for g in missing if g != 1]
            if live:
                self.ctx.counts["rotate"] += len(live)
                fresh = self.inner_product_many(live)
                moved = _gather(p_c[0][None], [0] * len(live),  # (R, k, n)
                                [ntt_permutation(self.n, g) for g in live])
                fresh[:, 0, :k] = self.current.add(fresh[:, 0, :k], moved)
                built.update(zip(live, fresh))
            if 1 in missing:
                identity = np.zeros((2, len(self.ext_base), self.n), np.int64)
                identity[:, :k] = p_c
                built[1] = identity
        block = self._blocks[key] = np.stack(
            [built[g] if g in built else self._rows[g] for g in key])
        for g, row in zip(key, block):
            self._rows.setdefault(g, row)
        return block

def _decompose(ctx, rotators: Sequence[HoistedRotator],
               reads: Sequence[int]) -> None:
    """The hoisted half of every one of *rotators* (each not yet
    decomposed, all on one level base) in one batched forward transform,
    which skips each digit's own row when every ``c1`` is in evaluation
    form (:func:`~repro.hecore.keys.decompose_for_keyswitch`).  A
    decompose is charged ``hoisted_decompose`` when it serves two or
    more rotations (its entry in *reads*), ``naive_decompose`` when it
    serves one."""
    first = rotators[0]
    c1s = [r.ct.components[1] for r in rotators]
    # Evaluation-form c1s (seeded uploads) lend each digit its own row.
    evaluated = (np.stack([c.data for c in c1s])
                 if all(c.is_ntt for c in c1s) else None)
    digits = decompose_for_keyswitch(
        np.stack([c.from_ntt().data for c in c1s]),
        first.current, first.ext_base, evaluated)
    for rotator, block in zip(rotators, digits):
        rotator.digits_ntt = block
    shared = sum(count > 1 for count in reads)
    ctx.counts["hoisted_decompose"] += shared
    ctx.counts["naive_decompose"] += len(reads) - shared


# ---------------------------------------------------------------------------
# The key-switch sum
# ---------------------------------------------------------------------------

class WeightTable(NamedTuple):
    """The static plaintext side of a weighted :func:`keyswitch_sum`: it
    depends on the terms and the modulus chain only, never on a
    ciphertext, so a caller builds it once (:func:`weight_table`) and keeps
    it across calls."""

    #: Distinct ``(source, Galois element)`` pairs, sorted.
    pairs: Tuple[Tuple[int, int], ...]
    #: ``(len(pairs), k_ext, n)`` NTT-form weights, each pair's summed.
    m_ntt: np.ndarray
    #: The weights' CKKS scale (the sum carries ``source scale * scale``).
    scale: float
    #: Weighted terms the table folds (charged one ``multiply_plain`` each).
    terms: int

    @property
    def rows(self) -> int:
        """Residue rows the build forward-transformed."""
        return self.m_ntt.shape[0] * self.m_ntt.shape[1]


def weight_table(ctx, current: RnsBase,
                 terms: Sequence[Tuple[int, int, np.ndarray]],
                 scale: float = 1.0) -> WeightTable:
    """The :class:`WeightTable` of ``(step, source, weight)`` terms, every
    weight a ``(k_ext, n)`` coefficient-form residue block over
    ``keyswitch_ext_base(current)`` or every one an ``(n,)`` row of integer
    coefficients (lifted to that base by :meth:`RnsBase.lift_signed`).  Terms on one (source, Galois
    element) share one row set: their weights are summed in int64, then
    lifted or reduced once per pair, which is the per-term reduction bit
    for bit (it is a ring homomorphism).  The forward transforms are
    charged to ``ctx.counts['ntt_forward']`` (units: residue rows)."""
    if not terms:
        raise ValueError("a weight table needs at least one term")
    n = ctx.params.poly_degree
    ext = keyswitch_ext_base(current, ctx.params)
    by_pair: dict = {}
    for step, source, weight in terms:
        pair = (source, galois_element_for_step(step, n))
        total = by_pair.get(pair)
        if total is None:
            by_pair[pair] = np.array(weight, dtype=np.int64)
        else:
            total += weight
    pairs = tuple(sorted(by_pair))
    totals = np.stack([by_pair[pair] for pair in pairs])
    blocks = (ext.lift_signed(totals) if totals.ndim == 2
              else mod_reduce(totals, ext.moduli))
    m_ntt = ntt.get_stack_plan(n, ext.moduli).forward_batch(blocks)
    table = WeightTable(pairs, m_ntt, float(scale), len(terms))
    ctx.counts["ntt_forward"] += table.rows
    return table


def keyswitch_sum(ctx, sources: Sequence[HoistedRotator],
                  terms: Sequence[Tuple[int, int]] = (),
                  weights: Optional[WeightTable] = None) -> Ciphertext:
    """``Σ w_j ⊙ rotate(x_j, s_j)`` with one inverse transform and one
    mod-down for the whole sum.

    *sources* are the ciphertexts' rotators, all on one level base and at
    one scale; *terms* the unweighted ``(step, source index)`` terms, a
    step of 0 being the unrotated source; *weights* the weighted terms'
    table.  The steps, and no others:

    * one decompose per source a rotation reads, unless its rotator holds
      one already (every missing one in one batched forward transform);
    * one key-switch inner product per distinct (source, Galois element)
      of a weighted term, kept on the rotator as its extended-base block
      (:meth:`HoistedRotator.accumulators`), and one for every unweighted
      rotated term, all in one inner product with the flattened key block;
    * one inner product of the weights with their blocks;
    * one inverse transform and one mod-down of the summed accumulator
      (:func:`~repro.hecore.keys.keyswitch_finish`): a sum of mod-downs
      becomes the mod-down of a sum, so a result moves by rounding only
      (BFV decrypts bit-identically; its noise can only lose rounding
      terms).

    Unweighted terms' ``c0`` parts stay in the coefficient domain: every
    rotation is a cached signed gather (:func:`coeff_automorphism_perm`),
    summed lazily in int64 with the unrotated terms' components and
    reduced once.  Charges one ``rotate`` per unweighted rotated term and
    per new weighted block, one ``multiply_plain`` per weighted term, and
    one decompose per source it decomposes (:func:`_decompose`).  A
    missing key, or one made for fewer limbs than the sources carry,
    raises :class:`~repro.hecore.keys.MissingEvaluationKey` before any of
    that work, so a refused sum charges no counter: the level plan fixed
    the sum's level, so a key below it is never dropped to.
    """
    if not terms and weights is None:
        raise ValueError("keyswitch_sum needs at least one term")
    params = ctx.params
    n = params.poly_degree
    first = sources[0]
    current, ext = first.current, first.ext_base
    elements = [galois_element_for_step(step, n) for step, _ in terms]
    rotated = [(i, g) for g, (_, i) in zip(elements, terms) if g != 1]
    reads: dict = {}                    # source index -> elements it serves
    for i, g in [*rotated, *(weights.pairs if weights else ())]:
        if g != 1:
            reads.setdefault(i, set()).add(g)
    for i, needed in reads.items():     # a refused sum charges nothing
        for g in needed:
            sources[i].keys.key_for(g, len(current))
    fresh = [i for i in reads if sources[i].digits_ntt is None]
    if fresh:
        _decompose(ctx, [sources[i] for i in fresh],
                   [len(reads[i]) for i in fresh])
    acc = None                          # (2, k_ext, n), NTT form
    if weights is not None:
        ctx.counts["multiply_plain"] += weights.terms
        start = 0
        for i, pairs in groupby(weights.pairs, key=lambda p: p[0]):
            block = sources[i].accumulators([g for _, g in pairs])
            part = keyswitch_inner_product(
                weights.m_ntt[start:start + len(block)], block, ext)
            start += len(block)
            acc = part if acc is None else ext.add(acc, part)
    if rotated:
        ctx.counts["rotate"] += len(rotated)
        live = [g for _, g in rotated]
        digits = _gather([r.digits_ntt for r in sources],   # (T, L, k, n)
                         [i for i, _ in rotated],
                         [ntt_permutation(n, g) for g in live])
        key_block = sources[rotated[0][0]].keys.stacked_block(
            live, len(current))
        unweighted = keyswitch_inner_product(
            digits.reshape(-1, *digits.shape[2:]),
            key_block.reshape(-1, *key_block.shape[2:]), ext)
        acc = unweighted if acc is None else ext.add(acc, unweighted)
    out = None if acc is None else keyswitch_finish(acc, ext)  # (2, k, n)
    if terms:
        coeffs = np.stack([[c.from_ntt().data for c in r.ct.components]
                           for r in sources])               # (S, 2, k, n)
        owner = np.array([i for _, i in terms])
        turned = np.array(elements) != 1
        # Canonical residues are < 2**30; a sum has far fewer than 2**33
        # terms, so the accumulation is exact in int64 with one final mod.
        total = coeffs[owner[~turned]].sum(axis=0)          # (2, k, n)
        if rotated:
            gathers = [coeff_automorphism_perm(n, g) for g in live]
            total[0] += np.einsum(
                'tkn,tn->kn',
                _gather(coeffs[:, 0], owner[turned],
                        [src for src, _ in gathers]),
                np.stack([sign for _, sign in gathers]))
        if out is not None:
            total += out
        out = mod_reduce(total, current.moduli)
    scale = first.ct.scale * (1.0 if weights is None else weights.scale)
    return Ciphertext(params, [RnsPoly(current, n, part, is_ntt=False)
                               for part in out], scale=scale)


# ---------------------------------------------------------------------------
# Window sums
# ---------------------------------------------------------------------------

def window_phases(width: int) -> List[List[int]]:
    """The steps of each phase of the window sum ``Σ_{i<width} rotate(x,
    i)`` for a power-of-two *width*: a phase replaces its input ``y`` by
    ``y + Σ_s rotate(y, s)`` over its steps.  One flat phase ``1 ..
    width-1`` up to ``FLAT_SUM_LIMIT``; beyond it the babies ``1 .. b-1``
    then the giants ``b, 2b, ..`` (``b = 2**ceil(log2(width) / 2)``), so
    ~2*sqrt(width) rotations over two sources.  Every
    width-aligned window of slots ends up holding its total in each of its
    positions.  No phases for a width up to one."""
    width = int(width)
    if width <= 1:
        return []
    if width & (width - 1):
        raise ValueError(f"window width {width} must be a power of two")
    if width <= FLAT_SUM_LIMIT:
        return [list(range(1, width))]
    baby = 1 << (width.bit_length() // 2)
    return [list(range(1, baby)), list(range(baby, width, baby))]


def rotate_and_sum_steps(width: int) -> Set[int]:
    """The Galois-key steps of a *width* window sum (every phase's)."""
    return {step for phase in window_phases(width) for step in phase}


def rotate_and_sum(ctx, ct: Ciphertext, width: int,
                   galois_keys: Optional[GaloisKeys] = None) -> Ciphertext:
    """The *width* window sum of *ct*, each of its :func:`window_phases` one
    one-source unweighted :func:`keyswitch_sum` — what a traced window sum
    compiles to, for a caller outside a traced kernel.  A session without
    every step's key gets
    :class:`~repro.hecore.keys.MissingEvaluationKey`."""
    for phase in window_phases(width):
        ct = keyswitch_sum(ctx, [HoistedRotator(ctx, ct, galois_keys)],
                           [(s, 0) for s in [0, *phase]])
    return ct
