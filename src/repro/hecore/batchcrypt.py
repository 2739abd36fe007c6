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

from typing import List

import numpy as np

from repro.hecore import ntt
from repro.hecore.modmath import mod_mul
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
    return mod_mul(block, poly.data, base.moduli)


def raw_table(poly: RnsPoly) -> np.ndarray:
    """This NTT poly's residues in raw order.

    Cached on the poly (see ``RnsPoly._raw``), so it must only be used on
    long-lived key material that is never mutated in place — the secret
    key's restricted forms and the public key components.
    """
    if poly._raw is None:
        plan = ntt.get_stack_plan(poly.degree, poly.base.moduli)
        poly._raw = np.ascontiguousarray(poly.data[:, plan.scramble_order])
    return poly._raw


def dyadic_block_raw(base: RnsBase, block: np.ndarray, poly: RnsPoly) -> np.ndarray:
    """Pointwise product with a cached key poly, both sides in raw order
    (``forward_block(..., raw=True)`` output); bit-identical to
    :func:`dyadic_block` up to the (cancelled) permutation."""
    return mod_mul(block, raw_table(poly), base.moduli)


def split_polys(
    base: RnsBase, degree: int, block: np.ndarray, is_ntt: bool = False
) -> List[RnsPoly]:
    """``(m, k, n)`` block → m independent :class:`RnsPoly` (contiguous copies,
    so downstream in-place ops on one ciphertext cannot alias its batchmates).
    """
    return [RnsPoly(base, degree, np.ascontiguousarray(row), is_ntt=is_ntt)
            for row in block]

