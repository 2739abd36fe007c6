"""Reference oracles for the hecore kernels.

The arithmetic oracles are independent of the production arithmetic on
purpose: every reduction in them is a plain ``%`` (never
:func:`repro.hecore.modmath.mod_reduce`), so a stacked kernel or the shared
reducer compared against these cannot agree with them by sharing a bug.

* :class:`NttPlan` — the scalar negacyclic NTT for one residue row.
  Multiplication in ``Z_p[x]/(x^N + 1)`` (negacyclic convolution) uses the
  standard psi-twist: scale coefficient *i* by ``psi**i`` (psi a primitive
  ``2N``-th root of unity, found by the same deterministic search as
  :class:`~repro.hecore.ntt.NttStackPlan`), apply a cyclic butterfly NTT
  with ``omega = psi**2``, multiply point-wise, invert, and unscale.
* :func:`negacyclic_multiply_naive` — the ``O(n**2)`` schoolbook product.
* :func:`exact_negacyclic_multiply` — an exact product over ``Z``: one
  :class:`NttPlan` product per prime of an auxiliary base, composed by the
  CRT in Python integers.

The looped client references (last section) are not arithmetic oracles:
:func:`encrypt`, :func:`encrypt_symmetric`, :func:`raw_decrypt` and
:func:`decrypt` compose one ciphertext at a time from the production
:class:`~repro.hecore.polyring.RnsPoly` operations.  Compared with a
context's block kernels they check the block composition — tiling,
stacking, the batch fork schedule — not the residue arithmetic both share.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.hecore.ciphertext import Ciphertext
from repro.hecore.keys import expand_uniform_poly
from repro.hecore.modmath import mod_inv, mod_pow
from repro.hecore.ntt import PLAN_MEMO_SIZE
from repro.hecore.polyring import RnsPoly, aux_base_for
from repro.hecore.primes import primitive_root_of_unity


def _bit_reverse_permutation(n: int) -> np.ndarray:
    """Index permutation that reorders an array into bit-reversed order."""
    bits = n.bit_length() - 1
    indices = np.arange(n, dtype=np.int64)
    reversed_indices = np.zeros(n, dtype=np.int64)
    for bit in range(bits):
        reversed_indices |= ((indices >> bit) & 1) << (bits - 1 - bit)
    return reversed_indices


@dataclass(frozen=True)
class _StageTwiddles:
    """Per-stage twiddle factors for the iterative butterfly network."""

    length: int
    factors: np.ndarray  # shape (length // 2,)


class NttPlan:
    """Precomputed tables for negacyclic NTT/INTT over one prime.

    Plans are cached per ``(n, p)`` via :func:`get_plan`; creating one costs a
    primitive-root search plus table generation, after which every transform
    is a sequence of ``log2(n)`` vectorized butterfly passes.
    """

    def __init__(self, n: int, p: int):
        if n & (n - 1) or n < 2:
            raise ValueError(f"transform size {n} must be a power of two >= 2")
        if (p - 1) % (2 * n) != 0:
            raise ValueError(f"prime {p} is not NTT-friendly for degree {n}")
        self.n = n
        self.p = p
        self.psi = primitive_root_of_unity(2 * n, p)
        self.omega = mod_pow(self.psi, 2, p)
        self._bitrev = _bit_reverse_permutation(n)
        self._psi_powers = self._power_table(self.psi, n)
        psi_inv = mod_inv(self.psi, p)
        n_inv = mod_inv(n, p)
        # Fold the 1/N scaling of the inverse transform into the psi unscale.
        self._psi_inv_scaled = self._power_table(psi_inv, n) * n_inv % p
        self._fwd_stages = self._stage_tables(self.omega)
        self._inv_stages = self._stage_tables(mod_inv(self.omega, p))

    def _power_table(self, base: int, count: int) -> np.ndarray:
        table = np.empty(count, dtype=np.int64)
        acc = 1
        for i in range(count):
            table[i] = acc
            acc = (acc * base) % self.p
        return table

    def _stage_tables(self, omega: int) -> List[_StageTwiddles]:
        stages = []
        length = 2
        while length <= self.n:
            step_root = mod_pow(omega, self.n // length, self.p)
            stages.append(
                _StageTwiddles(length=length, factors=self._power_table(step_root, length // 2))
            )
            length *= 2
        return stages

    def _butterflies(self, values: np.ndarray, stages: List[_StageTwiddles]) -> np.ndarray:
        p = self.p
        work = values[self._bitrev].astype(np.int64)
        for stage in stages:
            half = stage.length // 2
            blocks = work.reshape(-1, stage.length)
            even = blocks[:, :half].copy()
            odd = blocks[:, half:] * stage.factors % p
            blocks[:, :half] = (even + odd) % p
            blocks[:, half:] = (even - odd) % p
            work = blocks.reshape(-1)
        return work

    def forward(self, coefficients: np.ndarray) -> np.ndarray:
        """Negacyclic forward NTT of a length-``n`` coefficient vector."""
        twisted = coefficients.astype(np.int64) * self._psi_powers % self.p
        return self._butterflies(twisted, self._fwd_stages)

    def inverse(self, evaluations: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`forward`."""
        untwisted = self._butterflies(evaluations.astype(np.int64), self._inv_stages)
        return untwisted * self._psi_inv_scaled % self.p

    def negacyclic_multiply(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Product of two polynomials in ``Z_p[x]/(x^n + 1)``."""
        return self.inverse(self.forward(a) * self.forward(b) % self.p)


@functools.lru_cache(maxsize=PLAN_MEMO_SIZE)
def get_plan(n: int, p: int) -> NttPlan:
    """Return (and memoise) the :class:`NttPlan` for transform size *n* mod *p*."""
    return NttPlan(n, p)


def negacyclic_multiply_naive(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """O(n^2) schoolbook negacyclic product."""
    n = len(a)
    result = np.zeros(n, dtype=np.int64)
    a = a.astype(np.int64) % p
    b = b.astype(np.int64) % p
    for i in range(n):
        if a[i] == 0:
            continue
        for j in range(n):
            k = i + j
            term = int(a[i]) * int(b[j])
            if k < n:
                result[k] = (result[k] + term) % p
            else:
                result[k - n] = (result[k - n] - term) % p
    return result % p


def exact_negacyclic_multiply(
    a: Sequence[int], b: Sequence[int], degree: int, coeff_bound_bits: int
) -> List[int]:
    """Exact product of integer polynomials in ``Z[x]/(x^N + 1)``.

    *coeff_bound_bits* bounds ``log2`` of the largest absolute result
    coefficient; the product is taken modulo each prime of an auxiliary
    base whose product exceeds twice that bound (:class:`NttPlan`, plain
    ``%``) and composed by the CRT in Python integers.
    """
    moduli = aux_base_for(degree, coeff_bound_bits + 1).moduli
    q = math.prod(moduli)
    acc = [0] * degree
    for p in moduli:
        rows = get_plan(degree, p).negacyclic_multiply(
            np.array([int(v) % p for v in a], dtype=np.int64),
            np.array([int(v) % p for v in b], dtype=np.int64))
        lift = (q // p) * pow(q // p, -1, p)
        acc = [s + int(r) * lift for s, r in zip(acc, rows)]
    return [v - q if v > q // 2 else v for v in (s % q for s in acc)]


# --------------------------------------------------------------------------
# Looped client references: one ciphertext at a time, production RnsPoly
# arithmetic (see the module docstring).
# --------------------------------------------------------------------------

def divide_and_round_by_last(poly: RnsPoly) -> RnsPoly:
    """Exact modulus switch of one coefficient-form polynomial:
    :meth:`RnsBase.divide_and_round_by_last` on its rows."""
    target, rows = poly.base.divide_and_round_by_last(poly.data)
    return RnsPoly(target, poly.degree, rows, is_ntt=False)


def encrypt(ctx, values, rng=None) -> Ciphertext:
    """Public-key encryption of one slot vector or plaintext, as the Figure 5
    pipeline composed poly by poly: ``u``, ``e1``, ``e2`` drawn in that
    order from *rng* (default the context stream), both public-key
    products, the errors, the special prime switched away per component,
    then the message."""
    plaintext = ctx._as_plaintext(values)
    n = ctx.params.poly_degree
    full = ctx._key_base(ctx._level_base(plaintext))
    p0, p1 = ctx.keygen.public_key().restricted(full)
    rng = ctx._prng if rng is None else rng
    u = RnsPoly.from_signed_array(full, rng.sample_ternary(n)).to_ntt()
    e1 = RnsPoly.from_signed_array(full, rng.sample_error(n))
    e2 = RnsPoly.from_signed_array(full, rng.sample_error(n))
    c0 = divide_and_round_by_last((p0 * u).from_ntt() + e1)
    c1 = divide_and_round_by_last((p1 * u).from_ntt() + e2)
    c0 = c0 + ctx._message_poly(c0.base, plaintext)
    return Ciphertext(ctx.params, [c0, c1], scale=plaintext.scale)


def encrypt_symmetric(ctx, values, seed=None, rng=None) -> Ciphertext:
    """Seed-compressed symmetric encryption of one slot vector or plaintext:
    the seed (unless given) then ``e`` drawn from *rng*, and
    ``c0 = NTT(e + m) − a ⊙ s`` in evaluation form."""
    plaintext = ctx._as_plaintext(values)
    n = ctx.params.poly_degree
    base = ctx._level_base(plaintext)
    rng = ctx._prng if rng is None else rng
    if seed is None:
        seed = rng.random_bytes(32)
    a = expand_uniform_poly(seed, base, n)
    e = RnsPoly.from_signed_array(base, rng.sample_error(n))
    c0 = ((e + ctx._message_poly(base, plaintext)).to_ntt()
          - a * ctx._secret_ntt(base))
    return Ciphertext(ctx.params, [c0, a], scale=plaintext.scale,
                      seed=bytes(seed))


def raw_decrypt(ctx, ct: Ciphertext) -> RnsPoly:
    """``[c0 + c1 s (+ c2 s^2 ...)]_q`` in coefficient form over the level
    base, one component at a time: the products accumulate in evaluation
    form, an evaluation-form ``c0`` joins them before the inverse
    transform and a coefficient-form one after it."""
    s_ntt = ctx._secret_ntt(ct.level_base)
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


def decrypt(ctx, ct: Ciphertext) -> np.ndarray:
    """One ciphertext's slot vector: :func:`raw_decrypt`, the context's
    message recovery and a one-row decode."""
    acc = raw_decrypt(ctx, ct)
    rows = ctx._plain_rows(acc.base, acc.data[None])
    return ctx.encoder.decode_rows(rows, np.array([ct.scale]))[0]
