"""Arbitrary encrypted permutation via masking (the Figure 4A baseline).

This is how Gazelle/HElib-style packed algorithms implement a windowed
rotation when the input was *not* packed redundantly: rotate the whole
ciphertext both ways, isolate the two pieces with plaintext 0/1 masking
multiplies, and add.  Each masking multiply costs a plaintext multiplication
(moderate noise growth, Table 1) — which is exactly what Table 4's
"Post-Permute" column charges against the noise budget and what rotational
redundancy eliminates.
"""

from __future__ import annotations

import numpy as np

from repro.core.linalg import _encode_vector


def windowed_rotation_masked(ctx, ct, rotation: int, offset: int, window: int,
                             galois_keys=None):
    """Rotate the *window*-slot sub-range at *offset* left by *rotation*.

    Uses the standard mask-and-combine permutation:

    1. rotate the whole ciphertext left by ``rotation`` and keep the
       ``window - rotation`` values that did not wrap (masking multiply);
    2. rotate the original right by ``window - rotation`` to position the
       wrapped values, keep them with a second masking multiply;
    3. add the two pieces.

    Cost: 2 rotations + 2 plaintext multiplies + 1 add, with the plaintext
    multiplies dominating noise consumption.
    """
    rotation %= window
    if rotation == 0:
        return ct.copy()
    slot_count = _slot_count(ctx)
    if offset + window > slot_count:
        raise ValueError("window exceeds the slot vector")

    keep = np.zeros(slot_count)
    keep[offset: offset + window - rotation] = 1
    wrap = np.zeros(slot_count)
    wrap[offset + window - rotation: offset + window] = 1

    shifted = ctx.rotate(ct, rotation, galois_keys)
    part_keep = ctx.multiply_plain(shifted, _encode_vector(ctx, keep, shifted))
    wrapped = ctx.rotate(ct, -(window - rotation), galois_keys)
    part_wrap = ctx.multiply_plain(wrapped, _encode_vector(ctx, wrap, wrapped))
    return ctx.add(part_keep, part_wrap)


def required_rotation_steps(rotation: int, window: int):
    """The two global rotation amounts the masked implementation performs."""
    rotation %= window
    if rotation == 0:
        return ()
    return (rotation, -(window - rotation))


def _slot_count(ctx) -> int:
    n = ctx.params.poly_degree
    # BFV batching rotates within rows of N/2; CKKS has N/2 slots total.
    return n // 2
