"""Scheme-generic evaluator conveniences built on the context APIs.

Server-only encrypted systems approximate non-linear functions with
polynomials (§2.1: complete-HE DNNs "approximate activations with linear
functions") — :func:`polyval` is that primitive.  CHOCO's client-aided
model avoids it for activations, but polynomial evaluation remains useful
for encrypted analytics, and implementing it exercises the multiply /
rescale / level-alignment machinery end to end.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.hecore.ciphertext import Ciphertext
from repro.hecore.params import SchemeType


def add_many(ctx, cts: Sequence[Ciphertext]) -> Ciphertext:
    """Balanced-tree sum of ciphertexts (keeps noise growth logarithmic)."""
    if not cts:
        raise ValueError("nothing to add")
    level = list(cts)
    while len(level) > 1:
        nxt = []
        for i in range(0, len(level) - 1, 2):
            a, b = level[i], level[i + 1]
            if ctx.params.scheme is SchemeType.CKKS:
                a, b = ctx.align(a, b)
            nxt.append(ctx.add(a, b))
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    return level[0]


def multiply_many(ctx, cts: Sequence[Ciphertext]) -> Ciphertext:
    """Balanced-tree product (multiplicative depth ceil(log2(n)))."""
    if not cts:
        raise ValueError("nothing to multiply")
    level = list(cts)
    while len(level) > 1:
        nxt = []
        for i in range(0, len(level) - 1, 2):
            a, b = level[i], level[i + 1]
            if ctx.params.scheme is SchemeType.CKKS:
                a, b = ctx.align(a, b)
                nxt.append(ctx.rescale(ctx.multiply(a, b)))
            else:
                nxt.append(ctx.multiply(a, b))
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    return level[0]


def polyval(ctx, ct: Ciphertext, coefficients: Sequence[float]) -> Ciphertext:
    """Evaluate ``c[0] + c[1] x + ... + c[d] x^d`` at an encrypted ``x``.

    Horner's scheme: depth equals the polynomial degree.  Coefficients are
    plaintext (integers for BFV, reals for CKKS).
    """
    coefficients = list(coefficients)
    if not coefficients:
        raise ValueError("need at least one coefficient")
    if len(coefficients) == 1:
        raise ValueError("a constant polynomial needs no ciphertext")

    is_ckks = ctx.params.scheme is SchemeType.CKKS
    slots = ctx.params.slot_count

    def encode_const(value, like_ct):
        vec = np.full(slots, value)
        if is_ckks:
            return ctx.encode(vec.astype(float), scale=like_ct.scale,
                              base=like_ct.level_base)
        return ctx.encode(vec.astype(np.int64))

    # acc = c_d * x  (+ c_{d-1}); then repeatedly acc = acc*x + c_i.
    acc = _scale_by_const(ctx, ct, coefficients[-1], is_ckks)
    for coeff in reversed(coefficients[1:-1]):
        if coeff:
            acc = ctx.add_plain(acc, encode_const(coeff, acc))
        x_aligned = ct
        if is_ckks:
            acc, x_aligned = ctx.align(acc, ct)
            acc = ctx.rescale(ctx.multiply(acc, x_aligned))
        else:
            acc = ctx.multiply(acc, x_aligned)
    if coefficients[0]:
        acc = ctx.add_plain(acc, encode_const(coefficients[0], acc))
    return acc


def _scale_by_const(ctx, ct, value, is_ckks):
    slots = ctx.params.slot_count
    if is_ckks:
        pt = ctx.encode(np.full(slots, float(value)), base=ct.level_base)
        return ctx.rescale(ctx.multiply_plain(ct, pt))
    pt = ctx.encode(np.full(slots, int(value), dtype=np.int64))
    return ctx.multiply_plain(ct, pt)
