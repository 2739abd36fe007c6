"""Polynomials in ``R_q = Z_q[x]/(x^N + 1)`` in RNS representation.

An :class:`RnsPoly` stores one residue row per modulus of its base, each row
holding the ``N`` coefficients (or NTT evaluations) modulo that prime.  This
is the object every HE operation in Table 1 of the paper manipulates, and the
memory layout (``k`` independent residue "layers") is exactly the parallelism
the CHOCO-TACO accelerator exploits.
"""

from __future__ import annotations

import functools
from typing import List, Sequence, Tuple

import numpy as np

from repro.hecore import ntt
from repro.hecore.modmath import center
from repro.hecore.primes import generate_ntt_primes
from repro.hecore.rns import RnsBase

#: Capacity of each Galois index-table memo (:func:`ntt_permutation`,
#: :func:`coeff_automorphism_perm`).  Elements are client-chosen, so this is
#: what bounds a worker's tables; the shipped kernels need 28 (``collapsed``
#: 64×16) to 48 (the e2e DNN), and an evicted table is one index computation.
GALOIS_MEMO_SIZE = 256

#: Capacity of :func:`aux_base_for`'s memo.
AUX_BASE_MEMO_SIZE = 16


@functools.lru_cache(maxsize=GALOIS_MEMO_SIZE)
def ntt_permutation(n: int, galois_elt: int) -> np.ndarray:
    """Column permutation implementing x -> x^g on NTT-form evaluations.

    Position ``j`` holds the evaluation at ``psi^(2j+1)``, and ``a(x^g)``
    evaluated there equals ``a`` at ``psi^((2j+1)g)`` — another odd power —
    so ``auto(a)[:, j] == a[:, perm[j]]`` with no INTT/NTT round trip.
    Memoised per ``(n, g)``; the shared table is read-only.
    """
    sources = ((2 * np.arange(n, dtype=np.int64) + 1) * galois_elt) % (2 * n)
    perm = (sources - 1) >> 1
    perm.setflags(write=False)
    return perm


@functools.lru_cache(maxsize=GALOIS_MEMO_SIZE)
def coeff_automorphism_perm(n: int, galois_elt: int) -> Tuple[np.ndarray,
                                                              np.ndarray]:
    """Gather form of x -> x^g on coefficient vectors: ``(source, sign)``.

    ``auto(a)[j] == sign[j] * a[source[j]]`` modulo each prime: coefficient
    ``i`` lands at ``i*g mod 2n``, negated when that wraps past ``x^n = -1``.
    Gather form lets hoisted span sums accumulate every rotation's first
    component with one fancy index + signed sum.  Memoised per ``(n, g)``;
    the shared tables are read-only.
    """
    indices = (np.arange(n, dtype=np.int64) * galois_elt) % (2 * n)
    negate = indices >= n
    targets = np.where(negate, indices - n, indices)
    source = np.empty(n, dtype=np.int64)
    source[targets] = np.arange(n, dtype=np.int64)
    sign = np.empty(n, dtype=np.int64)
    sign[targets] = np.where(negate, -1, 1)
    source.setflags(write=False)
    sign.setflags(write=False)
    return source, sign


class RnsPoly:
    """A polynomial over an RNS base, optionally in NTT form."""

    __slots__ = ("base", "degree", "data", "is_ntt")

    def __init__(self, base: RnsBase, degree: int, data: np.ndarray, is_ntt: bool = False):
        if data.shape != (len(base), degree):
            raise ValueError(f"data shape {data.shape} != ({len(base)}, {degree})")
        self.base = base
        self.degree = degree
        self.data = data.astype(np.int64, copy=False)
        self.is_ntt = is_ntt

    # ------------------------------------------------------------------ ctor
    @classmethod
    def zero(cls, base: RnsBase, degree: int, is_ntt: bool = False) -> "RnsPoly":
        return cls(base, degree, np.zeros((len(base), degree), dtype=np.int64), is_ntt)

    @classmethod
    def from_int_coeffs(cls, base: RnsBase, coeffs: Sequence[int], degree: int) -> "RnsPoly":
        """Build from (possibly big, possibly negative) integer coefficients."""
        if len(coeffs) != degree:
            raise ValueError(f"expected {degree} coefficients, got {len(coeffs)}")
        return cls(base, degree, base.decompose(coeffs), is_ntt=False)

    @classmethod
    def from_signed_array(cls, base: RnsBase, values: np.ndarray) -> "RnsPoly":
        """Build from a small signed int64 vector (e.g. error polynomials)."""
        return cls(base, len(values), base.lift_signed(values), is_ntt=False)

    def copy(self) -> "RnsPoly":
        return RnsPoly(self.base, self.degree, self.data.copy(), self.is_ntt)

    def _stack_plan(self) -> ntt.NttStackPlan:
        return ntt.get_stack_plan(self.degree, self.base.moduli)

    # ------------------------------------------------------------- arithmetic
    def _check_compatible(self, other: "RnsPoly") -> None:
        if self.base != other.base or self.degree != other.degree:
            raise ValueError("polynomials live in different rings")
        if self.is_ntt != other.is_ntt:
            raise ValueError("polynomials are in different representations")

    def __add__(self, other: "RnsPoly") -> "RnsPoly":
        self._check_compatible(other)
        return RnsPoly(self.base, self.degree,
                       self.base.add(self.data, other.data), self.is_ntt)

    def __sub__(self, other: "RnsPoly") -> "RnsPoly":
        self._check_compatible(other)
        return RnsPoly(self.base, self.degree,
                       self.base.sub(self.data, other.data), self.is_ntt)

    def __neg__(self) -> "RnsPoly":
        return RnsPoly(self.base, self.degree,
                       self.base.sub(0, self.data), self.is_ntt)

    def __mul__(self, other: "RnsPoly") -> "RnsPoly":
        """Ring product.  Uses dyadic products in NTT form, else NTT round-trips."""
        self._check_compatible(other)
        plan = self._stack_plan()
        if self.is_ntt:
            out = plan.dyadic_multiply(self.data, other.data)
            return RnsPoly(self.base, self.degree, out, is_ntt=True)
        out = plan.negacyclic_multiply(self.data, other.data)
        return RnsPoly(self.base, self.degree, out, is_ntt=False)

    def scalar_multiply(self, scalar: int) -> "RnsPoly":
        """Multiply every coefficient by a (possibly big) integer scalar."""
        return RnsPoly(self.base, self.degree,
                       self.base.scale(self.data, scalar), self.is_ntt)

    # ---------------------------------------------------------- representation
    def to_ntt(self) -> "RnsPoly":
        if self.is_ntt:
            return self
        out = self._stack_plan().forward(self.data)
        return RnsPoly(self.base, self.degree, out, is_ntt=True)

    def from_ntt(self) -> "RnsPoly":
        if not self.is_ntt:
            return self
        out = self._stack_plan().inverse(self.data)
        return RnsPoly(self.base, self.degree, out, is_ntt=False)

    # ------------------------------------------------------------- structure
    def apply_automorphism(self, galois_elt: int) -> "RnsPoly":
        """Apply ``x -> x^g`` for odd *g*, in either representation.

        This is the Galois automorphism behind HE slot rotation (Table 1's
        "Ciphertext Rotate" uses it followed by key switching).  In NTT
        (evaluation) form it is a pure column permutation
        (:func:`ntt_permutation`); in coefficient form a gather with a sign
        fixup for the ``x^n = -1`` wraparound
        (:func:`coeff_automorphism_perm`).
        """
        n = self.degree
        g = galois_elt % (2 * n)
        if g % 2 == 0:
            raise ValueError(f"Galois element {galois_elt} must be odd")
        if self.is_ntt:
            out = np.take(self.data, ntt_permutation(n, g), axis=1)
        else:
            source, sign = coeff_automorphism_perm(n, g)
            moved = np.take(self.data, source, axis=1)
            out = np.where(sign < 0, self.base.sub(0, moved), moved)
        return RnsPoly(self.base, n, out, self.is_ntt)

    def switch_base(self, target: RnsBase) -> "RnsPoly":
        """Re-express this polynomial's rows over *target* without scaling.

        Only valid when the coefficient values are small enough (or when an
        approximate lift is acceptable, as in key-switch digit extension).
        """
        ints = self.base.compose_centered(self.data)
        return RnsPoly.from_int_coeffs(target, ints, self.degree)

    def to_int_coeffs(self, centered: bool = True) -> List[int]:
        """CRT-compose the residues back to Python integers."""
        poly = self.from_ntt()
        if centered:
            return poly.base.compose_centered(poly.data)
        return poly.base.compose(poly.data)

    def infinity_norm(self) -> int:
        """Max absolute centered coefficient (used for noise measurement).

        For a single-modulus base the residues *are* the coefficients, so the
        centered maximum comes straight off the int64 row with no CRT
        composition.
        """
        poly = self.from_ntt()
        if len(poly.base) == 1:
            centered = center(poly.data[0], poly.base.moduli[0])
            return int(np.abs(centered).max(initial=0))
        return max((abs(c) for c in poly.base.compose_centered(poly.data)), default=0)


# --------------------------------------------------------------------------
# Exact integer negacyclic multiplication via auxiliary CRT bases.
# Used by BFV ciphertext-ciphertext multiplication, where the tensor product
# must be computed over Z before scaling by t/q.
# --------------------------------------------------------------------------

@functools.lru_cache(maxsize=AUX_BASE_MEMO_SIZE)
def aux_base_for(degree: int, bound_bits: int) -> RnsBase:
    """An RNS base of NTT-friendly primes whose product exceeds 2**bound_bits."""
    return RnsBase(generate_ntt_primes(29, bound_bits // 28 + 2, degree))
