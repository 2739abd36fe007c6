"""Encrypted K-Means clustering (§5.1).

Each round, the client encrypts the current centroids and offloads the
one-to-many distance calculations to the server; the client decrypts the
per-centroid distance vectors, performs the non-linear assignment
(``argmin``), and updates centroids.  Client-server interaction iterates
until convergence.

Centroid updates use encrypted cluster sums: the server masks the stored
encrypted points with the client's assignment vectors and accumulates, so
the client only ever handles centroid-coordinate data (and cluster counts),
never the raw stored points — matching the paper's division of labor where
the client touches "newly computed (e.g. updated K-Means centroids)
coordinate data".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.core.distance import (
    DimensionMajorKernel,
    DistanceProblem,
    MultiQueryDimensionMajor,
)
from repro.core.protocol import ClientAidedSession
from repro.hecore.hoisting import rotate_and_sum_steps
from repro.hecore.modmath import next_power_of_two


@dataclass
class KMeansResult:
    centroids: np.ndarray
    assignments: np.ndarray
    iterations: int
    converged: bool


class EncryptedKMeans:
    """Client-aided K-Means over an encrypted, server-resident database."""

    def __init__(self, ctx, points: np.ndarray, n_clusters: int):
        points = np.asarray(points, dtype=float)
        self.ctx = ctx
        self.n, self.d = points.shape
        self.k = n_clusters
        self.problem = DistanceProblem(n_points=self.n, dims=self.d)
        # Multi-query kernel: one server pass prices ALL centroids per round.
        self.kernel = MultiQueryDimensionMajor(ctx, self.problem,
                                               max_queries=n_clusters)
        steps = set(self.kernel.required_rotation_steps())
        width = next_power_of_two(self.n)
        # Hoisted step set, so the per-cluster coordinate sums run as fused
        # hoisted spans.
        steps.update(rotate_and_sum_steps(width))
        ctx.make_galois_keys(steps)
        self._sum_width = width
        # One ciphertext per dimension, each holding that coordinate of
        # every stored point (dimension-major).
        self.point_cts = self.kernel.encrypt_points(points)

    # ----------------------------------------------------------------- run
    def run(self, initial_centroids: np.ndarray, max_iterations: int = 10,
            tolerance: float = 1e-3,
            session: Optional[ClientAidedSession] = None) -> KMeansResult:
        session = session or ClientAidedSession(self.ctx)
        centroids = np.array(initial_centroids, dtype=float)
        assignments = np.zeros(self.n, dtype=int)
        converged = False
        iteration = 0
        for iteration in range(1, max_iterations + 1):
            distances = self._encrypted_distances(centroids, session)
            assignments = np.argmin(distances, axis=0)
            new_centroids = self._encrypted_centroid_update(assignments, session)
            shift = float(np.max(np.abs(new_centroids - centroids)))
            centroids = new_centroids
            if shift < tolerance:
                converged = True
                break
        return KMeansResult(centroids=centroids, assignments=assignments,
                            iterations=iteration, converged=converged)

    # ------------------------------------------------------------ internals
    def _encrypted_distances(self, centroids: np.ndarray,
                             session: ClientAidedSession) -> np.ndarray:
        """(k, n) matrix of encrypted squared distances, decrypted client-side.

        All centroids travel in one multi-region query per dimension, and
        the server answers with a single ciphertext of every (centroid,
        point) distance.
        """
        query_cts = [
            session.upload(ct)
            for ct in session.client_encrypt_many(
                self.kernel.pack_queries(centroids))
        ]
        out = session.server_compute(self.kernel.compute,
                                     self.point_cts, query_cts)
        decrypted = [np.real(v) for v in session.client_decrypt_many(
            [session.download(ct) for ct in out])]
        return self.kernel.decode_matrix(decrypted, len(centroids))

    def _encrypted_centroid_update(self, assignments: np.ndarray,
                                   session: ClientAidedSession) -> np.ndarray:
        """Server-side masked cluster sums; client divides by counts."""
        ctx = self.ctx
        centroids = np.zeros((self.k, self.d))
        counts = np.bincount(assignments, minlength=self.k)
        for cluster in range(self.k):
            if counts[cluster] == 0:
                continue
            mask = np.zeros(self.kernel.slots)
            mask[: self.n][assignments == cluster] = 1.0

            def cluster_sums():
                # Direct evaluator calls, not a traced kernel: the mask is
                # per-call client data and the IR has no plaintext input.
                sums = []
                for x_k in self.point_cts:
                    masked = ctx.multiply_plain(x_k, ctx.encode(mask))
                    masked = ctx.rescale(masked)
                    sums.append(ctx.rotate_and_sum(masked, self._sum_width))
                return sums

            sum_cts = session.server_compute(cluster_sums)
            decrypted = session.client_decrypt_many(
                [session.download(ct) for ct in sum_cts])
            for dim, vec in enumerate(decrypted):
                centroids[cluster, dim] = np.real(vec)[0] / counts[cluster]
        return centroids

    # ------------------------------------------------------------ reference
    @staticmethod
    def reference(points: np.ndarray, initial_centroids: np.ndarray,
                  max_iterations: int = 10, tolerance: float = 1e-3) -> KMeansResult:
        """Plaintext Lloyd's algorithm with the same update rule."""
        points = np.asarray(points, dtype=float)
        centroids = np.array(initial_centroids, dtype=float)
        assignments = np.zeros(len(points), dtype=int)
        converged = False
        iteration = 0
        for iteration in range(1, max_iterations + 1):
            distances = np.stack([
                np.sum((points - c) ** 2, axis=1) for c in centroids
            ])
            assignments = np.argmin(distances, axis=0)
            new_centroids = centroids.copy()
            for cluster in range(len(centroids)):
                members = points[assignments == cluster]
                if len(members):
                    new_centroids[cluster] = members.mean(axis=0)
            shift = float(np.max(np.abs(new_centroids - centroids)))
            centroids = new_centroids
            if shift < tolerance:
                converged = True
                break
        return KMeansResult(centroids=centroids, assignments=assignments,
                            iterations=iteration, converged=converged)
