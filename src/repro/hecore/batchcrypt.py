"""Stacked (m, k, n) residue-block kernels for the batched client crypto.

The client-side cost CHOCO offloads is dominated by per-ciphertext work:
sampling, the forward/inverse NTTs and the Δ-scaling of encrypt, and the CRT
scaling of decrypt.  ``encrypt_many`` / ``decrypt_many`` (in :mod:`rlwe`,
for both schemes) process M ciphertexts at once by stacking their residue
matrices into one ``(m, k, n)`` int64 block and pushing the whole block
through :class:`~repro.hecore.ntt.NttStackPlan`'s batch transforms — one
``(m*k, n)`` stacked NTT instead of M k-row ones, and every modular fixup a
single vectorized pass.

Only what is specific to that pipeline lives here: the tile size, the
stacked transforms and the dyadic products against cached key material.
The residue arithmetic around them (signed lift, add, sub, scale, modulus
switch) is :class:`~repro.hecore.rns.RnsBase`'s, whose bodies take a block
of any rank — the very ones :class:`RnsPoly` calls, which is why batch
results are bit-identical to the looped single-shot path
(``tests/test_batch_crypto.py`` pins it).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.hecore import ntt
from repro.hecore.modmath import mod_mul, shoup_mul_mod
from repro.hecore.polyring import RnsPoly
from repro.hecore.rns import RnsBase


#: Target bytes of residue payload per pipeline tile.  A looped single-shot
#: encrypt/decrypt keeps its whole (k, n) working set L2-resident across the
#: NTT → dyadic → fixup chain; a monolithic (M, k, n) block streams multi-MB
#: intermediates through every step and loses that locality.  The batch
#: engines therefore sample once up front (preserving the documented PRNG
#: block schedule) and then run the kernel pipeline over tiles of this many
#: bytes, so consecutive steps reuse cache-warm blocks.
_TILE_BYTES = 3 << 18


def tile_size(base: RnsBase, degree: int, parts: int = 1) -> int:
    """Ciphertexts per pipeline tile for blocks of ``parts`` components."""
    per_ct = parts * len(base.moduli) * degree * 8
    return max(1, _TILE_BYTES // per_ct)


def forward_block(base: RnsBase, degree: int, block: np.ndarray,
                  raw: bool = False) -> np.ndarray:
    """Stacked forward NTT over an ``(m, k, n)`` coefficient block.

    ``raw=True`` leaves the evaluations in raw order (no final transpose)
    — pair with :func:`dyadic_block_raw` and ``inverse_block(...,
    raw=True)`` so the two permutation passes cancel.
    """
    return ntt.get_stack_plan(degree, base.moduli).forward_batch(
        block, unscramble=not raw)


def inverse_block(base: RnsBase, degree: int, block: np.ndarray,
                  raw: bool = False) -> np.ndarray:
    """Stacked inverse NTT over an ``(m, k, n)`` evaluation block.

    ``raw=True`` declares the input already in raw order.
    """
    return ntt.get_stack_plan(degree, base.moduli).inverse_batch(
        block, prescrambled=raw)


def dyadic_block(base: RnsBase, block: np.ndarray, poly: RnsPoly) -> np.ndarray:
    """Pointwise NTT-domain product of every block row with one poly."""
    return mod_mul(block, poly.data, base.moduli_col)


def raw_tables(poly: RnsPoly) -> Tuple[np.ndarray, np.ndarray]:
    """This NTT poly's residues in raw order, plus Shoup quotients.

    Cached on the poly (see ``RnsPoly._raw_tables``), so it must only be used
    on long-lived key material that is never mutated in place — the secret
    key's restricted forms and the public key components.
    """
    cached = poly._raw_tables
    if cached is None:
        plan = ntt.get_stack_plan(poly.degree, poly.base.moduli)
        data = np.ascontiguousarray(poly.data[:, plan.scramble_order])
        cached = (data, (data << 32) // poly.base.moduli_col)
        poly._raw_tables = cached
    return cached


def dyadic_block_raw(base: RnsBase, block: np.ndarray, poly: RnsPoly) -> np.ndarray:
    """Pointwise product with a cached key poly, both sides in raw order
    (``forward_block(..., raw=True)`` output).

    Shoup's precomputed-quotient multiply, so the hot dyadic step contains
    no division; bit-identical to :func:`dyadic_block` up to the (cancelled)
    permutation.
    """
    data, shoup = raw_tables(poly)
    return shoup_mul_mod(block, data, shoup, base.moduli_col)


def split_polys(
    base: RnsBase, degree: int, block: np.ndarray, is_ntt: bool = False
) -> List[RnsPoly]:
    """``(m, k, n)`` block → m independent :class:`RnsPoly` (contiguous copies,
    so downstream in-place ops on one ciphertext cannot alias its batchmates).
    """
    return [RnsPoly(base, degree, np.ascontiguousarray(row), is_ntt=is_ntt)
            for row in block]

