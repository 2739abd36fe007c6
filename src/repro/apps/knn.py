"""Encrypted K-Nearest-Neighbors (§5.1).

The server stores encrypted points — potentially aggregated from many
contributors over time (the centralization benefit local compute cannot
offer) — and runs encrypted squared-distance calculations against an
encrypted query.  The client decrypts the distance vector and applies the
non-linear step — ``min()``/top-k selection and majority vote — in
plaintext.  Classifying one new point needs just a single client-server
interaction.

Contributions are stored as independent encrypted batches (the server
cannot repack ciphertexts it cannot decrypt); a query is evaluated against
every batch and the client concatenates the decrypted distances.  The
distance kernel is pluggable: any of the five Figure 9 packings.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.distance import (
    KERNEL_VARIANTS,
    DistanceKernel,
    DistanceProblem,
)
from repro.core.ir import ensure_galois_keys
from repro.core.protocol import ClientAidedSession
from repro.hecore.keys import GaloisKeys


@dataclass
class KnnResult:
    """One classification: the label, neighbors, and decrypted distances."""

    label: int
    neighbor_indices: np.ndarray
    distances: np.ndarray


class _Batch:
    """One contribution: a kernel instance plus its encrypted points.

    Key generation is NOT per-batch: the pipeline unions every batch
    kernel's ``required_rotation_steps`` into one merged
    :func:`~repro.core.ir.ensure_galois_keys` call (batches sharing a
    dimensionality add no key material beyond the first).
    """

    def __init__(self, ctx, variant_cls, points: np.ndarray):
        self.count = len(points)
        self.dims = points.shape[1]
        self.kernel: DistanceKernel = variant_cls(
            ctx, DistanceProblem(n_points=self.count, dims=self.dims))
        self.point_cts = self.kernel.encrypt_points(points)


class EncryptedKnn:
    """Client-aided KNN over a growing encrypted point database."""

    def __init__(self, ctx, points: np.ndarray, labels: Sequence[int],
                 k: int = 3, variant: str = "collapsed"):
        points = np.asarray(points, dtype=float)
        if len(points) != len(labels):
            raise ValueError("points and labels disagree in length")
        if k < 1 or k > len(points):
            raise ValueError(f"k={k} out of range for {len(points)} points")
        self.ctx = ctx
        self.k = k
        self.variant_cls = KERNEL_VARIANTS.get(variant)
        if self.variant_cls is None:
            raise ValueError(f"unknown kernel variant {variant!r}; "
                             f"choose from {sorted(KERNEL_VARIANTS)}")
        self.dims = points.shape[1]
        self.labels = np.asarray(labels)
        self._batches: List[_Batch] = [_Batch(ctx, self.variant_cls, points)]
        self._refresh_galois_keys()

    def _refresh_galois_keys(self):
        """One merged keygen covering every stored batch's kernel."""
        ensure_galois_keys(
            self.ctx,
            *(b.kernel.required_rotation_steps() for b in self._batches))

    @property
    def size(self) -> int:
        return sum(b.count for b in self._batches)

    def add_points(self, points: np.ndarray, labels: Sequence[int]) -> None:
        """Grow the server-side database with a new encrypted contribution.

        The server cannot repack ciphertexts it cannot decrypt, so each
        contribution stays its own batch; queries span all batches.
        """
        points = np.asarray(points, dtype=float)
        if len(points) != len(labels):
            raise ValueError("points and labels disagree in length")
        if points.shape[1] != self.dims:
            raise ValueError(f"expected {self.dims}-dimensional points")
        self.labels = np.concatenate([self.labels, np.asarray(labels)])
        self._batches.append(_Batch(self.ctx, self.variant_cls, points))
        self._refresh_galois_keys()

    def classify(self, query: np.ndarray,
                 session: Optional[ClientAidedSession] = None) -> KnnResult:
        """One single-interaction classification of *query*."""
        session = session or ClientAidedSession(self.ctx)
        query = np.asarray(query, dtype=float)
        distances = []
        for batch in self._batches:
            query_cts = [
                session.upload(ct)
                for ct in session.client_encrypt_many(batch.kernel.pack_query(query))
            ]
            out_cts = session.server_compute(batch.kernel.compute,
                                             batch.point_cts, query_cts)
            decrypted = [
                np.real(v) for v in session.client_decrypt_many(
                    [session.download(ct) for ct in out_cts])
            ]
            distances.append(batch.kernel.decode(decrypted))
        all_distances = np.concatenate(distances)
        neighbors = np.argsort(all_distances)[: self.k]
        votes = Counter(self.labels[neighbors].tolist())
        label = votes.most_common(1)[0][0]
        return KnnResult(label=label, neighbor_indices=neighbors,
                         distances=all_distances)


# ---------------------------------------------------------------------------
# Served KNN: the same application over the offload runtime
# ---------------------------------------------------------------------------

class KnnOffloadService:
    """Server-side KNN operations for an :class:`OffloadServer`.

    The server holds encrypted point batches in per-session state and runs
    the pluggable distance kernel against uploaded queries.  It never holds
    a decryption capability: kernels evaluate on the session context, whose
    ``decrypt`` is mechanically forbidden by the runtime.
    """

    OP_STORE = "knn/store"
    OP_QUERY = "knn/query"

    @classmethod
    def install(cls, server) -> None:
        """Register the KNN operations on *server*."""
        server.register_op(cls.OP_STORE, cls.store_op)
        server.register_op(cls.OP_QUERY, cls.query_op)

    @classmethod
    def install_pooled(cls, registry) -> None:
        """The same two ops as an :mod:`repro.runtime.evalpool` installer:
        *registry* maps op names to ``fn(ctx, state, meta, cts)``."""
        registry[cls.OP_STORE] = cls.store_op
        registry[cls.OP_QUERY] = cls.query_op

    # The served ops: pure, so they run unchanged in either process -------
    @staticmethod
    def store_op(ctx, state, meta, cts):
        try:
            n_points = int(meta["n_points"])
            dims = int(meta["dims"])
            variant = str(meta["variant"])
        except KeyError as exc:
            raise ValueError(f"knn/store metadata missing {exc}") from exc
        variant_cls = KERNEL_VARIANTS.get(variant)
        if variant_cls is None:
            raise ValueError(f"unknown kernel variant {variant!r}")
        if n_points < 1 or dims < 1:
            raise ValueError("knn/store needs positive n_points and dims")
        kernel = variant_cls(ctx,
                             DistanceProblem(n_points=n_points, dims=dims))
        batches = state.setdefault("knn_batches", [])
        batches.append((kernel, list(cts)))
        return [], {"batch": len(batches) - 1, "points": n_points}

    @staticmethod
    def query_op(ctx, state, meta, cts):
        batches = state.get("knn_batches") or []
        index = int(meta.get("batch", 0))
        if not 0 <= index < len(batches):
            raise ValueError(f"no stored batch {index} in this session")
        kernel, point_cts = batches[index]
        return kernel.compute(point_cts, list(cts)), {}


class RemoteKnn:
    """Client-side KNN whose server half lives across the wire.

    Mirrors :class:`EncryptedKnn` — same kernels, same batching, same
    plaintext top-k vote — but every server-side step is a runtime request
    against a :class:`~repro.runtime.server.OffloadServer` with
    :class:`KnnOffloadService` installed.  Key and database provisioning
    (``add_points``) is the offline phase and is not charged to the
    transfer ledger; per-classification traffic is, so a
    :class:`~repro.runtime.transport.SimulatedLink` reproduces the
    in-process :class:`CostLedger` numbers exactly.
    """

    def __init__(self, client, ctx, k: int = 3, variant: str = "collapsed",
                 symmetric: bool = True):
        if variant not in KERNEL_VARIANTS:
            raise ValueError(f"unknown kernel variant {variant!r}; "
                             f"choose from {sorted(KERNEL_VARIANTS)}")
        self.client = client
        self.ctx = ctx
        self.k = k
        self.variant = variant
        self.variant_cls = KERNEL_VARIANTS[variant]
        #: Seed-compressed symmetric uploads by default (§4.3).  Use
        #: ``symmetric=False`` to match the public-key byte accounting of
        #: the in-process ``EncryptedKnn`` path bit for bit.
        self.symmetric = symmetric
        self.labels = np.asarray([], dtype=np.int64)
        self.dims: Optional[int] = None
        self._batches: List[Tuple[DistanceKernel, int]] = []
        #: What this client already holds for the session (and replays by
        #: itself after an eviction or failover): provisioning sends each
        #: key once per level, never the merged set again.  Galois element
        #: -> the limbs of the key sent for it.
        self._relin_sent = False
        self._galois_sent: Dict[int, int] = {}

    @property
    def size(self) -> int:
        return len(self.labels)

    async def _upload_missing_keys(self, kernel: DistanceKernel) -> None:
        """Send the relin key once and only the Galois keys *kernel* needs
        that no earlier batch sent at its level: an element *kernel*
        rotates higher than the key sent is regenerated at that level
        (:func:`~repro.core.ir.ensure_galois_keys`) and sent again, once;
        one it rotates lower reuses the key sent.  A rotation-free packing
        (dimension-major) needs no Galois keys."""
        steps = kernel.required_rotation_steps()
        held = ensure_galois_keys(self.ctx, steps).keys if steps else {}
        missing = {g: key for g, key in held.items()
                   if self._galois_sent.get(g, 0) < key.limbs}
        await self.client.upload_keys(
            relin=None if self._relin_sent else self.ctx.relin_keys(),
            galois=GaloisKeys(missing) if missing else None)
        self._relin_sent = True
        self._galois_sent.update((g, key.limbs) for g, key in missing.items())

    def _encrypt_many(self, values_list):
        """Batch upload path: one stacked client pass for the whole list
        (seed-compressed when symmetric)."""
        if self.symmetric:
            return self.ctx.encrypt_symmetric_many(values_list)
        return self.ctx.encrypt_many(values_list)

    async def add_points(self, points: np.ndarray,
                         labels: Sequence[int]) -> int:
        """Provision one encrypted contribution; returns its batch id."""
        points = np.asarray(points, dtype=float)
        if len(points) != len(labels):
            raise ValueError("points and labels disagree in length")
        if self.dims is not None and points.shape[1] != self.dims:
            raise ValueError(f"expected {self.dims}-dimensional points")
        kernel = self.variant_cls(
            self.ctx, DistanceProblem(n_points=len(points),
                                      dims=points.shape[1]))
        await self._upload_missing_keys(kernel)
        cts = self._encrypt_many(kernel.pack_points(points))
        _, meta = await self.client.request(
            KnnOffloadService.OP_STORE, cts,
            {"n_points": len(points), "dims": int(points.shape[1]),
             "variant": self.variant},
            account=False)
        self.dims = points.shape[1]
        self.labels = np.concatenate([self.labels, np.asarray(labels)])
        self._batches.append((kernel, int(meta["batch"])))
        return int(meta["batch"])

    async def classify(self, query: np.ndarray) -> KnnResult:
        """One classification of *query* across all stored batches."""
        if not self._batches:
            raise ValueError("no points stored yet")
        query = np.asarray(query, dtype=float)
        distances = []
        for kernel, batch_id in self._batches:
            query_cts = self._encrypt_many(kernel.pack_query(query))
            out_cts, _meta = await self.client.request(
                KnnOffloadService.OP_QUERY, query_cts, {"batch": batch_id})
            decrypted = [np.real(v) for v in self.ctx.decrypt_many(out_cts)]
            distances.append(kernel.decode(decrypted))
        all_distances = np.concatenate(distances)
        neighbors = np.argsort(all_distances)[: self.k]
        votes = Counter(self.labels[neighbors].tolist())
        return KnnResult(label=votes.most_common(1)[0][0],
                         neighbor_indices=neighbors, distances=all_distances)
