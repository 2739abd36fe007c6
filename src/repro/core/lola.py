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
product's replication step starts clean — one extra level, the latency
price of continuous server-side execution) and ``2·log2(n)`` rotations.
CHOCO's fully offloaded PageRank variant is built on exactly this
alternation.

Requires ``n^2`` slots for an ``n``-vector (the throughput-vs-latency
tradeoff of packed algorithms, §2.1).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.ir import TracedKernel
from repro.core.linalg import _masked_sum, row_slot_count
from repro.hecore.modmath import next_power_of_two
from repro.hecore.params import SchemeType


class AlternatingMatVec(TracedKernel):
    """Matrix-vector products that alternate dense and spread packings.

    The traced body takes the dense-packed inputs and the spread-packed
    inputs as its two arguments and emits one product per input, each in
    the other packing.
    """

    #: One product in each direction: the keys of the whole alternation.
    input_shape = (1, 1)

    def __init__(self, ctx, matrix: np.ndarray):
        matrix = np.asarray(matrix)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("alternating products need a square matrix")
        super().__init__(ctx)
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

    # ------------------------------------------------------------ products
    def _masked(self, ev, ct, mask: np.ndarray):
        product = _masked_sum(ev, [(ct, mask)])
        if ev.params.scheme is SchemeType.CKKS:
            product = ev.rescale(product)
        return product

    def _product(self, ev, ct, spread: bool):
        """``y = M x`` for *ct* in one packing; ``y`` leaves in the other.

        Dense input: replicate the block across all n windows, multiply by
        ``W[k*n + j] = M[k, j]`` and tree-sum within each window, leaving
        ``y_k`` at slot ``k * n``.  Spread input is the transposed walk:
        fill each window with its value, multiply by ``W[k*n + i] =
        M[i, k]`` and tree-sum across windows, leaving ``y_i`` at slot ``i``.
        """
        n = self.n
        fill, fold = (1, n) if spread else (n, 1)
        p = 1
        while p < n:                # out[b + k*fill] = in[b]
            ct = ev.add(ct, ev.rotate(ct, -(p * fill)))
            p *= 2
        weights = np.zeros(self.slots)
        weights[: n * n] = (self._square.T if spread else self._square).ravel()
        ct = self._masked(ev, ct, weights)
        p = n // 2
        while p >= 1:               # out[b] = sum_k in[b + k*fold]
            ct = ev.add(ct, ev.rotate(ct, p * fold))
            p //= 2
        # The tree leaves partial sums outside the payload slots; the next
        # product's replication would smear them in, so zero them here.
        payload = np.zeros(self.slots)
        payload[np.arange(n) * fill] = 1.0
        return self._masked(ev, ct, payload)

    def _body(self, ev, dense_cts, spread_cts):
        return ([self._product(ev, ct, spread=False) for ct in dense_cts]
                + [self._product(ev, ct, spread=True) for ct in spread_cts])

    def dense_to_spread(self, ct, galois_keys=None):
        """y = M x for dense-packed x; emits spread-packed y."""
        return self.run(([ct], []), galois_keys)[0]

    def spread_to_dense(self, ct, galois_keys=None):
        """y = M x for spread-packed x; emits dense-packed y."""
        return self.run(([], [ct]), galois_keys)[0]

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
