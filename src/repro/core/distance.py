"""Encrypted distance kernels: the five packings of Figure 9 (§5.1, §5.4).

KNN and K-Means reduce to one-to-many squared-distance calculations
``dist_i = sum_k (x_i[k] - q[k])^2`` between a query/centroid ``q`` and all
stored points ``x_i`` — the access pattern of a matrix-vector product.  How
points and dimensions are packed into ciphertexts determines the balance of
server time, client time, and communication that Figure 11 explores:

* ``stacked-point``     — several points per ciphertext;
* ``point-major``       — one point's dimensions per ciphertext: stacked-point
  at one point a ciphertext;
* ``stacked-dimension`` — several dimensions per ciphertext;
* ``dimension-major``   — one dimension of every point per ciphertext:
  stacked-dimension at one dimension a ciphertext;
* ``collapsed``         — stacked-point compute plus an extra server-side
  mask-and-rotate round that compacts all distances into one dense
  ciphertext: more server work, minimal client/communication cost — the
  client-optimized choice (§5.4).

All variants run on CKKS.  Dimensions are padded to a power of two so the
dimension sum is one window sum (:func:`repro.core.linalg._window_sum`):
traced as plain rotations and adds, compiled to one unweighted key-switch
sum per phase.

A kernel's slot layout (``pack_points``, ``query_slots``) is separate from
its encoding: :meth:`DistanceKernel.pack_query` encodes each query vector on
the entry chain the compiled schedule first reads that input at
(:meth:`repro.core.ir.ScheduledProgram.entry_limbs`), so the client never
encrypts or uploads a limb the server's level plan drops on arrival.
Points stay on the full chain: a stored ciphertext can feed more than one
program (k-means' mask loop reads the same point ciphertexts).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Type

import numpy as np

from repro.core.ir import TracedKernel
from repro.core.linalg import _masked_sum, _window_sum, row_slot_count
from repro.hecore.modmath import next_power_of_two
from repro.hecore.rns import RnsBase


@dataclass(frozen=True)
class DistanceProblem:
    """A one-to-many distance computation: *n_points* stored, *dims* each."""

    n_points: int
    dims: int

    @property
    def padded_dims(self) -> int:
        return next_power_of_two(self.dims)

    @property
    def padded_points(self) -> int:
        return next_power_of_two(self.n_points)


class DistanceKernel(TracedKernel):
    """Base class: packing, server compute, and result decoding."""

    name = "abstract"
    #: Distance results go straight back to the client for decryption
    #: (top-k happens client-side): the level planner drops them to the
    #: decryptability floor — smaller downloads for free.
    terminal_outputs = True

    def __init__(self, ctx, problem: DistanceProblem):
        super().__init__(ctx)
        self.problem = problem
        self.slots = row_slot_count(ctx)

    # Subclasses implement these four (``_body`` is the traced evaluation:
    # ``_body(ev, point_cts, query_cts)`` returning the output list).
    def pack_points(self, points: np.ndarray) -> List[np.ndarray]:
        raise NotImplementedError

    def query_slots(self, query: np.ndarray) -> List[np.ndarray]:
        """The query's slot vectors, one per query ciphertext (layout
        only: no context is touched)."""
        raise NotImplementedError

    def pack_query(self, query: np.ndarray) -> list:
        """The query's CKKS plaintexts, each on its input's entry chain; a
        query of any shape but ``(dims,)`` is refused."""
        if np.shape(query) != (self.problem.dims,):
            raise ValueError(f"query shape {np.shape(query)} does not match "
                             f"{self.problem.dims} dimensions")
        return self._at_entry(self.query_slots(query))

    def decode(self, outputs: List[np.ndarray]) -> np.ndarray:
        raise NotImplementedError

    # Shared helpers -------------------------------------------------------
    def compute(self, point_cts, query_cts, galois_keys=None):
        """Evaluate the kernel; returns the output ciphertexts."""
        return self.run((point_cts, query_cts), galois_keys)

    @functools.cached_property
    def input_shape(self) -> Tuple[int, int]:
        """(point, query) ciphertext counts, asked of the slot layouts."""
        p = self.problem
        return (len(self.pack_points(np.zeros((p.n_points, p.dims)))),
                len(self.query_slots(np.zeros(p.dims))))

    def _at_entry(self, vectors: List[np.ndarray]) -> list:
        """Encode query slot vectors on one chain: the longest entry chain
        of the query inputs ``in{points}..`` (they all share one in every
        packing here), so no query arrives below its entry level."""
        points, queries = self.input_shape
        entry = self.scheduled(self.input_shape).entry_limbs()
        limbs = max(entry[f"in{points + i}"] for i in range(queries))
        base = RnsBase.of(self.ctx.params.data_base.moduli[:limbs])
        return self.ctx.encoder.encode_many(vectors, base=base)

    def encrypt_points(self, points: np.ndarray):
        return self.ctx.encrypt_many(self.pack_points(points))

    def encrypt_query(self, query: np.ndarray):
        return self.ctx.encrypt_many(self.pack_query(query))

    def distances(self, point_cts, query_cts, galois_keys=None) -> np.ndarray:
        """End-to-end helper: compute, decrypt, decode."""
        outputs = self.compute(point_cts, query_cts, galois_keys)
        return self.decode([np.real(v) for v in self.ctx.decrypt_many(outputs)])

    def _check(self, points: np.ndarray):
        n, d = points.shape
        if n != self.problem.n_points or d != self.problem.dims:
            raise ValueError(f"points shape {points.shape} does not match problem")

    def _squared_diff(self, ev, a, b):
        return ev.rescale(ev.square(ev.sub(a, b)))

    def reference(self, points: np.ndarray, query: np.ndarray) -> np.ndarray:
        return np.sum((points - query) ** 2, axis=1)


class StackedPointMajorKernel(DistanceKernel):
    """Several points per ciphertext; output distances at stride ``d``."""

    name = "stacked-point"
    #: Points a ciphertext holds; ``None`` stacks as many as the row fits.
    points_per_ct: Optional[int] = None

    def __init__(self, ctx, problem):
        super().__init__(ctx, problem)
        if self.points_per_ct is None:
            self.points_per_ct = max(1, self.slots // problem.padded_dims)

    def _groups(self):
        n, per = self.problem.n_points, self.points_per_ct
        return [(i, min(i + per, n)) for i in range(0, n, per)]

    def pack_points(self, points):
        self._check(points)
        d = self.problem.padded_dims
        out = []
        for lo, hi in self._groups():
            v = np.zeros(self.slots)
            for idx in range(lo, hi):
                v[(idx - lo) * d: (idx - lo) * d + self.problem.dims] = points[idx]
            out.append(v)
        return out

    def query_slots(self, query):
        d = self.problem.padded_dims
        v = np.zeros(self.slots)
        for i in range(self.points_per_ct):
            v[i * d: i * d + self.problem.dims] = query
        return [v]

    def _body(self, ev, point_cts, query_cts):
        q = query_cts[0]
        return [_window_sum(ev, self._squared_diff(ev, p, q),
                            self.problem.padded_dims)
                for p in point_cts]

    def decode(self, outputs):
        d = self.problem.padded_dims
        dists = []
        for lo, hi in self._groups():
            block = outputs[lo // self.points_per_ct]
            for idx in range(hi - lo):
                dists.append(block[idx * d])
        return np.array(dists[: self.problem.n_points])


class PointMajorKernel(StackedPointMajorKernel):
    """One ciphertext per point; outputs one sparse ciphertext per point."""

    name = "point-major"
    points_per_ct = 1


class StackedDimensionMajorKernel(DistanceKernel):
    """Several dimensions per ciphertext; cross-window adds on the server."""

    name = "stacked-dimension"
    #: Dimensions a ciphertext holds; ``None`` stacks as many as the row fits.
    dims_per_ct: Optional[int] = None

    def __init__(self, ctx, problem):
        super().__init__(ctx, problem)
        if self.dims_per_ct is None:
            self.dims_per_ct = max(1, self.slots // problem.padded_points)

    def _groups(self):
        d, per = self.problem.dims, self.dims_per_ct
        return [(k, min(k + per, d)) for k in range(0, d, per)]

    def pack_points(self, points):
        self._check(points)
        n = self.problem.padded_points
        out = []
        for lo, hi in self._groups():
            v = np.zeros(self.slots)
            for k in range(lo, hi):
                v[(k - lo) * n: (k - lo) * n + self.problem.n_points] = points[:, k]
            out.append(v)
        return out

    def query_slots(self, query):
        n = self.problem.padded_points
        out = []
        for lo, hi in self._groups():
            v = np.zeros(self.slots)
            for k in range(lo, hi):
                v[(k - lo) * n: (k - lo) * n + self.problem.n_points] = query[k]
            out.append(v)
        return out

    def _body(self, ev, point_cts, query_cts):
        n = self.problem.padded_points
        acc = None
        for p, q in zip(point_cts, query_cts):
            sq = self._squared_diff(ev, p, q)
            acc = sq if acc is None else ev.add(acc, sq)
        # Fold the per-window partial sums into window 0.
        stride = next_power_of_two(self.dims_per_ct)
        while stride > 1:
            acc = ev.add(acc, ev.rotate(acc, (stride // 2) * n))
            stride //= 2
        return [acc]

    def decode(self, outputs):
        return outputs[0][: self.problem.n_points]


class DimensionMajorKernel(StackedDimensionMajorKernel):
    """One ciphertext per dimension; outputs one dense ciphertext."""

    name = "dimension-major"
    dims_per_ct = 1


class CollapsedPointMajorKernel(StackedPointMajorKernel):
    """Stacked point-major plus a server-side collapse to one dense output.

    The per-point accumulation leaves distance *i* at slot ``i * d``; the
    collapse ``out[i] = block[i * d]`` is a linear map with one-hot
    diagonals at rotations ``i * (d - 1)``, evaluated baby-step/giant-step
    like :class:`repro.core.linalg.BsgsMatVec`: with ``i = a + shift``,
    ``shift`` a multiple of ``B = ceil(sqrt(occupied))``,

        out = sum_shift rotate(rescale(sum_a mask_i (*) rotate(block, a(d-1))),
                               shift(d-1))

    where ``mask_i`` is one-hot at the pre-giant-rotation slot
    ``i*d - a(d-1) = i + shift(d-1)``.  The ``B - 1`` baby rotations share
    one hoisted decompose, only the giant rotations pay their own, and each
    giant step sums before its single rescale (the terms share one scale
    and level, and rescaling is linear) — extra masking multiplies and
    ``~2 sqrt(n)`` rotations on the server buy minimal client decryption
    and communication (the client-optimized pick of §5.4).
    """

    name = "collapsed"

    def __init__(self, ctx, problem):
        super().__init__(ctx, problem)
        self.occupied = min(self.points_per_ct, problem.n_points)
        self.baby_count = math.isqrt(self.occupied - 1) + 1

    def _body(self, ev, point_cts, query_cts):
        stride = self.problem.padded_dims - 1
        sparse = super()._body(ev, point_cts, query_cts)
        collapsed = None
        for g, (block, (lo, hi)) in enumerate(zip(sparse, self._groups())):
            babies = [ev.rotate(block, a * stride)
                      for a in range(min(self.baby_count, hi - lo))]
            dense_block = None
            for shift in range(0, hi - lo, self.baby_count):
                inner = _masked_sum(ev, (
                    (babies[i - shift], self._one_hot(i + shift * stride))
                    for i in range(shift, min(shift + self.baby_count, hi - lo))))
                inner = ev.rotate(ev.rescale(inner), shift * stride)
                dense_block = (inner if dense_block is None
                               else ev.add(dense_block, inner))
            dense_block = ev.rotate(dense_block, -(g * self.points_per_ct))
            if collapsed is None:
                collapsed = dense_block
            else:
                collapsed, dense_block = ev.align(collapsed, dense_block)
                collapsed = ev.add(collapsed, dense_block)
        return [collapsed]

    def _one_hot(self, slot: int) -> np.ndarray:
        mask = np.zeros(self.slots)
        mask[slot] = 1.0
        return mask

    def decode(self, outputs):
        return outputs[0][: self.problem.n_points]


class MultiQueryDimensionMajor(DimensionMajorKernel):
    """Dimension-major distances for *several* queries in one pass.

    The stored points stay packed once (single region per dimension); the
    server replicates each dimension ciphertext across query regions with
    ``log2(q)`` rotations, subtracts a multi-region query ciphertext, and
    squares — producing every (query, point) distance in ONE output
    ciphertext.  K-Means uses this to price all centroids per round with a
    single server pass.
    """

    name = "multi-query"

    def __init__(self, ctx, problem: DistanceProblem, max_queries: int):
        super().__init__(ctx, problem)
        if max_queries < 1:
            raise ValueError("need at least one query")
        self.max_queries = max_queries
        self.stride = problem.padded_points
        self._regions = next_power_of_two(max_queries)
        if self.stride * self._regions > self.slots:
            raise ValueError(
                f"{max_queries} queries x stride {self.stride} exceed "
                f"{self.slots} slots"
            )

    def pack_queries(self, queries: np.ndarray) -> list:
        """(q, dims) query matrix -> one CKKS plaintext per dimension, each
        on its input's entry chain."""
        return self._at_entry(self.queries_slots(queries))

    def queries_slots(self, queries: np.ndarray) -> List[np.ndarray]:
        """(q, dims) query matrix -> one slot vector per dimension."""
        queries = np.asarray(queries, dtype=float)
        if queries.ndim != 2 or queries.shape[1] != self.problem.dims:
            raise ValueError(f"bad query matrix shape {queries.shape}")
        if len(queries) > self.max_queries:
            raise ValueError(f"at most {self.max_queries} queries supported")
        out = []
        for k in range(self.problem.dims):
            v = np.zeros(self.slots)
            for j, query in enumerate(queries):
                start = j * self.stride
                v[start: start + self.problem.n_points] = query[k]
            out.append(v)
        return out

    def _replicate_points(self, ev, ct):
        copies = 1
        while copies < self._regions:
            ct = ev.add(ct, ev.rotate(ct, -(self.stride * copies)))
            copies *= 2
        return ct

    def _body(self, ev, point_cts, query_cts):
        return super()._body(
            ev, [self._replicate_points(ev, p) for p in point_cts], query_cts)

    def decode_matrix(self, outputs: List[np.ndarray],
                      n_queries: int) -> np.ndarray:
        """One decrypted output ciphertext -> (queries, points) distances."""
        block = np.asarray(outputs[0])
        rows = []
        for j in range(n_queries):
            start = j * self.stride
            rows.append(block[start: start + self.problem.n_points])
        return np.stack(rows)

    def reference_matrix(self, points: np.ndarray,
                         queries: np.ndarray) -> np.ndarray:
        return np.stack([
            np.sum((points - q) ** 2, axis=1) for q in np.asarray(queries)
        ])


KERNEL_VARIANTS: Dict[str, Type[DistanceKernel]] = {
    k.name: k
    for k in (
        PointMajorKernel,
        DimensionMajorKernel,
        StackedPointMajorKernel,
        StackedDimensionMajorKernel,
        CollapsedPointMajorKernel,
    )
}
