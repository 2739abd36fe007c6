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

The application is written once: :class:`KnnOffloadService`'s ops are the
server half and :class:`KnnProcedure` the client half, which
:class:`EncryptedKnn` runs in-process and :class:`RemoteKnn` over the
offload runtime.
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


class KnnOffloadService:
    """The server half of KNN: two pure ops over per-session state.

    The server holds encrypted point batches in ``state["knn_batches"]``
    and runs the pluggable distance kernel against uploaded queries.  It
    never holds a decryption capability: kernels evaluate on the session
    context, whose ``decrypt`` the runtime forbids mechanically (and
    ``ClientAidedSession.server_compute`` refuses in-process).
    """

    OP_STORE = "knn/store"
    OP_QUERY = "knn/query"

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

    #: op name -> ``fn(ctx, state, meta, cts)``: what every host of the
    #: ops registers or calls (a server, an eval pool, :class:`EncryptedKnn`).
    OPS = {OP_STORE: store_op.__func__, OP_QUERY: query_op.__func__}

    @classmethod
    def install(cls, server) -> None:
        """Register the KNN operations on *server*."""
        for op, fn in cls.OPS.items():
            server.register_op(op, fn)

    @classmethod
    def install_pooled(cls, registry) -> None:
        """The same ops as an :mod:`repro.runtime.evalpool` installer:
        *registry* maps op names to ``fn(ctx, state, meta, cts)``."""
        registry.update(cls.OPS)


class KnnProcedure:
    """The KNN client, written once over a session.

    Its generators (:meth:`_store`, :meth:`_classify`) do only the
    plaintext work — packing, ``decode``, concatenation, the top-k vote —
    and yield ``(op, plaintexts, meta, account)`` requests.  A driver
    encrypts the plaintexts, has the :class:`KnnOffloadService` op run,
    decrypts its result and sends back ``(slots, result meta)``.
    ``account`` is ``False`` for provisioning, which is offline.
    """

    def __init__(self, ctx, k: int, variant: str):
        self.variant_cls = KERNEL_VARIANTS.get(variant)
        if self.variant_cls is None:
            raise ValueError(f"unknown kernel variant {variant!r}; "
                             f"choose from {sorted(KERNEL_VARIANTS)}")
        self.ctx = ctx
        self.k = k
        self.variant = variant
        self.labels = np.asarray([], dtype=np.int64)
        self.dims: Optional[int] = None
        #: (kernel, server batch id) per contribution.  The kernel is the
        #: one instance that packs the batch's queries and decodes its
        #: distances.
        self._batches: List[Tuple[DistanceKernel, int]] = []

    @property
    def size(self) -> int:
        return len(self.labels)

    def _new_kernel(self, points, labels) -> DistanceKernel:
        """The kernel of one contribution, after checking its shape."""
        points = np.asarray(points, dtype=float)
        if len(points) != len(labels):
            raise ValueError("points and labels disagree in length")
        if self.dims is not None and points.shape[1] != self.dims:
            raise ValueError(f"expected {self.dims}-dimensional points")
        return self.variant_cls(
            self.ctx, DistanceProblem(n_points=len(points),
                                      dims=points.shape[1]))

    def _store(self, kernel: DistanceKernel, points, labels):
        """Store one contribution as its own batch; returns its id."""
        points = np.asarray(points, dtype=float)
        _, meta = yield (KnnOffloadService.OP_STORE,
                         kernel.pack_points(points),
                         {"n_points": len(points),
                          "dims": int(points.shape[1]),
                          "variant": self.variant}, False)
        self.dims = points.shape[1]
        self.labels = np.concatenate([self.labels, np.asarray(labels)])
        self._batches.append((kernel, int(meta["batch"])))
        return int(meta["batch"])

    def _classify(self, query):
        """One classification of *query* across every stored batch."""
        if not self._batches:
            raise ValueError("no points stored yet")
        query = np.asarray(query, dtype=float)
        distances = []
        for kernel, batch in self._batches:
            slots, _meta = yield (KnnOffloadService.OP_QUERY,
                                  kernel.pack_query(query),
                                  {"batch": batch}, True)
            distances.append(kernel.decode([np.real(v) for v in slots]))
        all_distances = np.concatenate(distances)
        neighbors = np.argsort(all_distances)[: self.k]
        votes = Counter(self.labels[neighbors].tolist())
        return KnnResult(label=votes.most_common(1)[0][0],
                         neighbor_indices=neighbors, distances=all_distances)


class EncryptedKnn(KnnProcedure):
    """Client-aided KNN in one process: the procedure's requests run
    through a :class:`ClientAidedSession`, which encrypts, uploads, runs
    the served op on this object's server state inside ``server_compute``,
    downloads and decrypts — metering each step on its ledger."""

    def __init__(self, ctx, points: np.ndarray, labels: Sequence[int],
                 k: int = 3, variant: str = "collapsed"):
        if k < 1 or k > len(points):
            raise ValueError(f"k={k} out of range for {len(points)} points")
        super().__init__(ctx, k, variant)
        #: What a server would hold for this session.
        self._server_state: Dict = {}
        self.add_points(points, labels)

    def add_points(self, points: np.ndarray, labels: Sequence[int]) -> int:
        """Store one more encrypted contribution (on a session of its own:
        provisioning is offline); returns its batch id.  One merged keygen
        covers every stored batch's kernel."""
        batch = self._drive(self._store(self._new_kernel(points, labels),
                                        points, labels),
                            ClientAidedSession(self.ctx))
        ensure_galois_keys(self.ctx, *(kernel.required_rotation_steps()
                                       for kernel, _ in self._batches))
        return batch

    def classify(self, query: np.ndarray,
                 session: Optional[ClientAidedSession] = None) -> KnnResult:
        """One single-interaction classification of *query*."""
        return self._drive(self._classify(query),
                           session or ClientAidedSession(self.ctx))

    def _drive(self, requests, session: ClientAidedSession):
        reply = None
        while True:
            try:
                op, plaintexts, meta, _account = requests.send(reply)
            except StopIteration as done:
                return done.value
            cts = [session.upload(ct)
                   for ct in session.client_encrypt_many(plaintexts)]
            out, out_meta = session.server_compute(
                KnnOffloadService.OPS[op], self.ctx, self._server_state,
                meta, cts)
            slots = session.client_decrypt_many(
                [session.download(ct) for ct in out]) if out else []
            reply = slots, out_meta


class RemoteKnn(KnnProcedure):
    """KNN over the offload runtime: the procedure's requests go through
    *client* (an ``OffloadClient``, or anything with its async
    ``request`` and ``upload_keys``) to a server with
    :class:`KnnOffloadService` installed.  Only classification traffic is
    charged to the ledger, so over a ``SimulatedLink`` it equals
    :class:`EncryptedKnn`'s."""

    def __init__(self, client, ctx, k: int = 3, variant: str = "collapsed",
                 symmetric: bool = True):
        super().__init__(ctx, k, variant)
        self.client = client
        #: Seed-compressed symmetric uploads by default (§4.3).  Use
        #: ``symmetric=False`` to match the public-key byte accounting of
        #: the in-process ``EncryptedKnn`` path bit for bit.
        self.symmetric = symmetric
        #: What this client already holds for the session (and replays by
        #: itself after an eviction or failover): provisioning sends each
        #: key once per level, never the merged set again.  Galois element
        #: -> the limbs of the key sent for it.
        self._relin_sent = False
        self._galois_sent: Dict[int, int] = {}

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

    async def add_points(self, points: np.ndarray,
                         labels: Sequence[int]) -> int:
        """Provision one encrypted contribution — its missing keys, then
        its points; returns its batch id."""
        kernel = self._new_kernel(points, labels)
        await self._upload_missing_keys(kernel)
        return await self._drive(self._store(kernel, points, labels))

    async def classify(self, query: np.ndarray) -> KnnResult:
        """One classification of *query* across all stored batches."""
        return await self._drive(self._classify(query))

    async def _drive(self, requests):
        reply = None
        while True:
            try:
                op, plaintexts, meta, account = requests.send(reply)
            except StopIteration as done:
                return done.value
            cts = (self.ctx.encrypt_symmetric_many(plaintexts)
                   if self.symmetric else self.ctx.encrypt_many(plaintexts))
            out, out_meta = await self.client.request(op, cts, meta,
                                                      account=account)
            reply = (self.ctx.decrypt_many(out) if out else []), out_meta
