"""Vectorized modular arithmetic over word-sized primes.

Every computational modulus in this library is below ``2**MAX_MODULUS_BITS``
(``2**30``), so a product of two residues fits exactly in a signed 64-bit
integer and eight such products still sum exactly.  This mirrors SEAL's
word-sized RNS limbs (SEAL uses up to 60-bit limbs on native 128-bit
arithmetic, which numpy lacks); DESIGN.md documents the substitution.
The *total* modulus width, which is what determines noise budgets and
ciphertext sizes, is preserved by using more limbs.
"""

from __future__ import annotations

import numpy as np

#: The limb width — the one statement of it.  Residues below ``2**30`` keep
#: ``a * b`` below ``2**60`` (eight such products still sum exactly in int64)
#: and the NTT's float64 matmul sums (``ntt.MAX_SUM_TERMS`` products of a
#: residue and a 15-bit digit) below ``2**52``.  :func:`check_modulus`
#: enforces it where moduli enter: ``RnsBase`` and ``NttStackPlan``.
MAX_MODULUS_BITS = 30


def check_modulus(p: int) -> int:
    """Validate that *p* can be used as a computational modulus."""
    if not 1 < p < (1 << MAX_MODULUS_BITS):
        raise ValueError(f"modulus {p} outside supported range (1, 2**{MAX_MODULUS_BITS})")
    return p


def mod_reduce(x: np.ndarray, p) -> np.ndarray:
    """``x mod p`` in ``[0, p)``, in place on an int64 array the caller
    owns, which is returned — the one array reduction of ``hecore``.

    *p* is one modulus for the whole array, or a sequence of moduli, one
    per row along axis ``-2`` of a ``(..., k, n)`` block.  Each row is
    reduced against its modulus as a Python-int scalar, as
    ``x - (x // p)·p``: numpy divides by a scalar with a multiply and a
    shift, where ``np.mod`` against a ``(k, 1)`` column pays a hardware
    division per element (docs/KERNELS.md has the measurements).  Exact
    for every int64 ``x``.
    """
    if isinstance(p, (int, np.integer)):
        rows = ((x, int(p)),)
    elif len(p) != x.shape[-2]:
        raise ValueError(f"{len(p)} moduli for {x.shape[-2]} rows")
    else:
        rows = ((x[..., i, :], int(m)) for i, m in enumerate(p))
    for row, m in rows:
        q = row // m
        q *= m
        row -= q
    return x


def mod_add(a: np.ndarray, b: np.ndarray, p) -> np.ndarray:
    """Element-wise ``(a + b) mod p``; *p* as :func:`mod_reduce`'s."""
    return mod_reduce(np.add(a, b, dtype=np.int64), p)


def mod_sub(a: np.ndarray, b: np.ndarray, p) -> np.ndarray:
    """Element-wise ``(a - b) mod p``; *p* as :func:`mod_reduce`'s."""
    return mod_reduce(np.subtract(a, b, dtype=np.int64), p)


def mod_neg(a: np.ndarray, p) -> np.ndarray:
    """Element-wise ``(-a) mod p``; *p* as :func:`mod_reduce`'s."""
    return mod_reduce(np.negative(a, dtype=np.int64), p)


def mod_mul(a: np.ndarray, b: np.ndarray, p) -> np.ndarray:
    """Element-wise ``(a * b) mod p`` — the one dyadic product; *p* is a
    modulus, or one per row of ``(..., k, n)`` blocks (:func:`mod_reduce`).

    Exact because residues are below ``2**30`` (see :data:`MAX_MODULUS_BITS`).
    """
    return mod_reduce(np.multiply(a, b, dtype=np.int64), p)


#: Residue products (each below ``2**(2 * MAX_MODULUS_BITS)``) that sum
#: exactly in int64 before one reduction: 8 at 30-bit limbs.
LAZY_SUM_TERMS = 1 << (63 - 2 * MAX_MODULUS_BITS)


def mod_mac(subscripts: str, a: np.ndarray, b: np.ndarray, p) -> np.ndarray:
    """``einsum(subscripts, a, b) mod p`` over canonical residues — the one
    lazily reduced multiply-accumulate.  *subscripts* contracts exactly the
    first explicit axis of each operand (the one right after ``...``, e.g.
    ``'...lkn,...lckn->...ckn'``); *p* holds one modulus per row along the
    output's axis ``-2``, as :func:`mod_mul`'s.

    That axis is cut into chunks of :data:`LAZY_SUM_TERMS` terms, each
    summed exactly in int64 by one fused einsum that never materialises
    the product tensor and reduced once: one reduction per chunk instead of
    one per product."""
    sa, sb = subscripts.split("->")[0].replace("...", "").split(",")
    n_terms = a.shape[-len(sa)]
    acc = None
    for lo in range(0, n_terms, LAZY_SUM_TERMS):
        chunk = slice(lo, lo + LAZY_SUM_TERMS)
        part = mod_reduce(np.einsum(
            subscripts,
            a[(Ellipsis, chunk) + (slice(None),) * (len(sa) - 1)],
            b[(Ellipsis, chunk) + (slice(None),) * (len(sb) - 1)]), p)
        if acc is None:
            acc = part
        else:
            acc += part
    return acc if n_terms <= LAZY_SUM_TERMS else mod_reduce(acc, p)


def mod_pow(base: int, exponent: int, p: int) -> int:
    """Scalar modular exponentiation."""
    return pow(int(base), int(exponent), int(p))


def mod_inv(a: int, p: int) -> int:
    """Scalar modular inverse of *a* modulo prime *p*."""
    a = int(a) % p
    if a == 0:
        raise ZeroDivisionError(f"0 has no inverse modulo {p}")
    return pow(a, p - 2, p)


def center(a: np.ndarray, p: int) -> np.ndarray:
    """Map residues in ``[0, p)`` to the centered range ``(-p/2, p/2]``."""
    a = uncenter(a, p)
    return np.where(a > p // 2, a - p, a)


def uncenter(a: np.ndarray, p: int) -> np.ndarray:
    """Map centered values back to canonical residues in ``[0, p)``."""
    return mod_reduce(np.array(a, dtype=np.int64), p)


def is_power_of_two(n: int) -> bool:
    """True when *n* is a positive power of two."""
    return n > 0 and (n & (n - 1)) == 0


def next_power_of_two(n: int) -> int:
    """The smallest power of two that is at least *n* (1 for ``n <= 1``)."""
    return 1 << max(0, (n - 1)).bit_length()


def bit_length(n: int) -> int:
    """Bit length of a non-negative integer (0 has bit length 0)."""
    return int(n).bit_length()
