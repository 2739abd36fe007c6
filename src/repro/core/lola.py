"""LoLa-style alternating dot-product representations (§5.1).

For *continuous* encrypted execution — no client in the loop — the output
packing of one matrix-vector product must directly feed the next.  LoLa [8]
achieves this by alternating between two formats so consecutive products
compose without any repacking or masking permutations:

* **dense**  — ``x_j`` at slot ``j``;
* **spread** — ``x_j`` at slot ``j * n`` (stride-``n`` interleaving).

A product consuming dense input emits spread output and vice versa; each
direction costs two plaintext multiplies (the weight mask, plus a 0/1
cleanup mask that zeroes the tree-accumulation's partial sums so the next
product's replication step starts clean) and ``2·log2(n)`` rotations.
CHOCO's fully offloaded PageRank variant is built on exactly this
alternation.

Requires ``n^2`` slots for an ``n``-vector (the throughput-vs-latency
tradeoff of packed algorithms, §2.1).
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Set

import numpy as np

from repro.core.linalg import _encode_vector, row_slot_count
from repro.hecore.modmath import next_power_of_two
from repro.hecore.params import SchemeType


class AlternatingMatVec:
    """Matrix-vector products that alternate dense and spread packings."""

    def __init__(self, ctx, matrix: np.ndarray):
        matrix = np.asarray(matrix)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("alternating products need a square matrix")
        self.ctx = ctx
        self.matrix = matrix
        self.n = next_power_of_two(matrix.shape[0])
        self._square = np.zeros((self.n, self.n), dtype=matrix.dtype)
        self._square[: matrix.shape[0], : matrix.shape[0]] = matrix
        self.slots = row_slot_count(ctx)
        if self.n * self.n > self.slots:
            raise ValueError(
                f"need {self.n ** 2} slots for n={self.n}, have {self.slots}"
            )

    # ------------------------------------------------------------- packing
    def pack_dense(self, vector: Sequence[float]) -> np.ndarray:
        out = np.zeros(self.slots)
        out[: len(vector)] = vector
        return out

    def unpack_dense(self, slots: np.ndarray) -> np.ndarray:
        return np.asarray(slots)[: self.matrix.shape[0]].copy()

    def unpack_spread(self, slots: np.ndarray) -> np.ndarray:
        idx = np.arange(self.matrix.shape[0]) * self.n
        return np.asarray(slots)[idx].copy()

    def required_rotation_steps(self) -> Set[int]:
        steps = set()
        p = 1
        while p < self.n:
            steps.update({p, -p, p * self.n, -(p * self.n)})
            p *= 2
        return steps

    # ----------------------------------------------------------- internals
    def _replicate(self, ct, stride: int, galois_keys=None):
        """Fill slots by doubling right-rotations: out[b + k*stride] = in[b]."""
        ctx = self.ctx
        p = 1
        while p < self.n:
            ct = ctx.add(ct, ctx.rotate(ct, -(p * stride), galois_keys))
            p *= 2
        return ct

    def _accumulate(self, ct, stride: int, galois_keys=None):
        """Tree-sum left-rotations: out[b] = sum_k in[b + k*stride]."""
        ctx = self.ctx
        p = self.n // 2
        while p >= 1:
            ct = ctx.add(ct, ctx.rotate(ct, p * stride, galois_keys))
            p //= 2
        return ct

    def _masked_multiply(self, ct, mask: np.ndarray):
        ctx = self.ctx
        product = ctx.multiply_plain(ct, _encode_vector(ctx, mask, ct))
        if ctx.params.scheme is SchemeType.CKKS:
            product = ctx.rescale(product)
        return product

    def _cleanup(self, ct, fmt: str):
        """Zero everything but the format's payload slots.

        Tree accumulation leaves partial sums in the non-target slots; the
        next product's replication would smear them into the payload, so
        each product ends with a 0/1 mask (one extra plaintext-multiply
        level — the latency price of continuous server-side execution).
        """
        mask = np.zeros(self.slots)
        if fmt == "dense":
            mask[: self.n] = 1.0
        else:
            mask[np.arange(self.n) * self.n] = 1.0
        return self._masked_multiply(ct, mask)

    # ------------------------------------------------------------ products
    def dense_to_spread(self, ct, galois_keys=None):
        """y = M x for dense-packed x; emits spread-packed y.

        Replicate the dense block across all n windows, multiply by the mask
        ``W[k*n + j] = M[k, j]``, and tree-sum within each window, leaving
        ``y_k`` at slot ``k * n``.
        """
        n = self.n
        replicated = self._replicate(ct, stride=n, galois_keys=galois_keys)
        mask = np.zeros(self.slots)
        for k in range(n):
            mask[k * n: k * n + n] = self._square[k]
        product = self._masked_multiply(replicated, mask)
        out = self._accumulate(product, stride=1, galois_keys=galois_keys)
        return self._cleanup(out, "spread")

    def spread_to_dense(self, ct, galois_keys=None):
        """y = M x for spread-packed x; emits dense-packed y.

        Fill each window with its spread value, multiply by the transposed
        mask ``W[k*n + i] = M[i, k]``, and tree-sum across windows, leaving
        ``y_i`` at slot ``i``.
        """
        n = self.n
        filled = self._replicate(ct, stride=1, galois_keys=galois_keys)
        mask = np.zeros(self.slots)
        for k in range(n):
            mask[k * n: k * n + n] = self._square[:, k]
        product = self._masked_multiply(filled, mask)
        out = self._accumulate(product, stride=n, galois_keys=galois_keys)
        return self._cleanup(out, "dense")

    def power_iteration(self, ct, iterations: int, galois_keys=None):
        """Apply M *iterations* times, alternating packings server-side.

        Returns ``(ciphertext, format)`` with format "dense" or "spread".
        """
        spread = False
        for _ in range(iterations):
            if spread:
                ct = self.spread_to_dense(ct, galois_keys)
            else:
                ct = self.dense_to_spread(ct, galois_keys)
            spread = not spread
        return ct, ("spread" if spread else "dense")

    def unpack(self, slots: np.ndarray, fmt: str) -> np.ndarray:
        if fmt == "dense":
            return self.unpack_dense(slots)
        if fmt == "spread":
            return self.unpack_spread(slots)
        raise ValueError(f"unknown format {fmt!r}")
