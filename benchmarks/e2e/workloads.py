"""The four offload workloads (see README.md for why each was chosen).

Every workload drives ``OffloadClient -> FleetServer(n_workers=1) router ->
forked worker -> handler -> back`` over loopback TCP in a closed loop, and
checks every result.  A workload object owns nothing that outlives a call:
``open`` returns a session, ``query`` runs one verified query on it, and
``make_fleet`` builds the server the caller starts and stops.

Data, weights, queries and HE context seeds all derive from ``--seed``.
"""

from collections import Counter
from types import SimpleNamespace

import numpy as np

from benchmarks.e2e import handlers
from repro.apps.knn import KnnOffloadService, RemoteKnn
from repro.core.distance import KERNEL_VARIANTS, DistanceProblem
from repro.core.ir import ensure_galois_keys
from repro.hecore.bfv import BfvContext
from repro.hecore.ckks import CkksContext
from repro.hecore.params import (
    PARAMETER_SET_B,
    SchemeType,
    small_test_parameters,
)
from repro.runtime import OffloadClient
from repro.runtime.fleet import FleetServer

CKKS_PARAMS = small_test_parameters(SchemeType.CKKS, 4096,
                                    data_bits=(30, 30, 30))
N_POINTS, DIMS, K_NEIGHBOURS, N_CLASSES = 64, 16, 3, 4
#: CKKS distances must land this close to numpy's.
DISTANCE_TOLERANCE = 1e-2
#: Largest squared distance between two stored points.
MAX_DISTANCE = 16.0

KNN_INLINE = "repro.apps.knn:KnnOffloadService.install"
KNN_POOLED = "repro.apps.knn:KnnOffloadService.install_pooled"


def _wrap_client(tracer, client):
    tracer.wrap(client, "connect", "runtime.client.connect")
    tracer.wrap(client, "upload_keys", "runtime.client.upload_keys")
    tracer.wrap(client, "request", "runtime.client.request",
                count=lambda _op, cts=(), *_: len(cts), keep=True)
    tracer.wrap(client, "close", "runtime.client.close")


def _wrap_crypto(tracer, ctx):
    tracer.wrap(ctx, "encrypt_symmetric_many", "hecore.encrypt", count=len)
    tracer.wrap(ctx, "decrypt_many", "hecore.decrypt", count=len)


class KnnWorkload:
    """Long-lived CKKS KNN sessions under one Figure-9 packing."""

    params = CKKS_PARAMS
    cold_sessions = False

    def __init__(self, name, seed, variant, n_sessions=1, pooled=False):
        self.name, self.seed, self.variant = name, seed, variant
        self.n_sessions, self.pooled = n_sessions, pooled
        rng = np.random.default_rng([seed, 1])
        # Four loose clusters: a query's nearest neighbours share a label, so
        # the vote cannot flip on CKKS noise in the third decimal.
        centres = rng.normal(0.0, 1.0, size=(N_CLASSES, DIMS))
        self.labels = np.arange(N_POINTS) % N_CLASSES
        points = centres[self.labels] + 0.3 * rng.normal(
            0.0, 1.0, size=(N_POINTS, DIMS))
        # Scaled so no squared distance passes MAX_DISTANCE: the one-limb
        # result ciphertext wraps above ~32 (README, finding 3).
        gaps = points[:, None, :] - points[None, :, :]
        self.points = points * np.sqrt(
            MAX_DISTANCE / np.max(np.sum(gaps ** 2, axis=2)))

    def make_fleet(self):
        if self.pooled:
            return FleetServer(self.params, 1, pooled_installers=(KNN_POOLED,),
                               eval_workers=2, concurrency=2)
        return FleetServer(self.params, 1, installers=(KNN_INLINE,))

    def new_kernel(self, ctx):
        return KERNEL_VARIANTS[self.variant](
            ctx, DistanceProblem(n_points=N_POINTS, dims=DIMS))

    def rotation_steps(self, ctx):
        return self.new_kernel(ctx).required_rotation_steps()

    async def open(self, host, port, idx, tracer):
        with tracer.span("hecore.keygen"):
            ctx = CkksContext(self.params,
                              seed=f"e2e-{self.seed}-{idx}".encode())
            steps = self.rotation_steps(ctx)
            relin = ctx.relin_keys()
            galois = ensure_galois_keys(ctx, steps) if steps else None
        client = OffloadClient(self.params, host, port)
        _wrap_client(tracer, client)
        _wrap_crypto(tracer, ctx)
        await client.connect()
        session = SimpleNamespace(
            idx=idx, ctx=ctx, client=client, keys=(relin, galois), knn=None,
            rng=np.random.default_rng([self.seed, 2, idx]))
        try:
            if galois is not None:
                session.knn = RemoteKnn(client, ctx, k=K_NEIGHBOURS,
                                        variant=self.variant)
                await session.knn.add_points(self.points, self.labels)
                # The one kernel instance classify() packs and decodes with.
                session.kernel = session.knn._batches[0][0]
            else:
                # RemoteKnn.add_points cannot provision a rotation-free
                # kernel (README, finding 1): same protocol, by hand.
                session.kernel = self.new_kernel(ctx)
                await client.upload_keys(relin=relin)
                await client.request(
                    KnnOffloadService.OP_STORE,
                    ctx.encrypt_symmetric_many(
                        session.kernel.pack_points(self.points)),
                    {"n_points": N_POINTS, "dims": DIMS,
                     "variant": self.variant}, account=False)
        except BaseException:
            await client.close()
            raise
        tracer.wrap(session.kernel, "pack_query", "apps.pack")
        tracer.wrap(session.kernel, "decode", "apps.decode")
        return session

    async def close(self, session):
        await session.client.close()

    def client_stats(self, sessions):
        stats = Counter()
        for session in sessions:
            stats.update(session.client.stats.snapshot())
        return stats

    def _vote(self, distances):
        nearest = np.argsort(distances)[:K_NEIGHBOURS]
        return Counter(self.labels[nearest].tolist()).most_common(1)[0][0]

    async def query(self, session, tracer, root):
        rng = session.rng
        query = (self.points[rng.integers(N_POINTS)]
                 + rng.normal(0.0, 0.02, size=DIMS))
        if session.knn is not None:
            result = await session.knn.classify(query)
            distances, label = result.distances, result.label
        else:
            cts = session.ctx.encrypt_symmetric_many(
                session.kernel.pack_query(query))
            out, _meta = await session.client.request(
                KnnOffloadService.OP_QUERY, cts, {"batch": 0})
            distances = session.kernel.decode(
                [np.real(v) for v in session.ctx.decrypt_many(out)])
            label = self._vote(distances)
        with tracer.span("bench.verify"):
            want = np.sum((self.points - query) ** 2, axis=1)
            return bool(np.max(np.abs(distances - want)) <= DISTANCE_TOLERANCE
                        and label == self._vote(want))

    # ------------------------------------------------ in-process replay
    def server_state(self, ctx, session):
        """What the worker holds for *session*, rebuilt on evaluator *ctx*."""
        state = {}
        cts = session.ctx.encrypt_symmetric_many(
            self.new_kernel(session.ctx).pack_points(self.points))
        KnnOffloadService.store_op(
            ctx, state, {"n_points": N_POINTS, "dims": DIMS,
                         "variant": self.variant}, cts)
        return state

    def execute(self, ctx, state, op, meta, cts):
        return KnnOffloadService.query_op(ctx, state, meta, cts)[0]


class DnnColdSessions:
    """BFV at Table-3 set B; every query is one cold client session."""

    params = PARAMETER_SET_B
    n_sessions = 1
    cold_sessions = True
    pooled = False

    def __init__(self, name, seed):
        self.name, self.seed = name, seed
        self._serial = 0
        self._stats = Counter()

    def make_fleet(self):
        return FleetServer(self.params, 1, installers=(handlers.INSTALLER,),
                           op_config={"dnn_seed": self.seed})

    def rotation_steps(self, ctx):
        conv, fc = handlers.build_kernels(ctx, self.seed)
        return conv.required_rotation_steps() | fc.required_rotation_steps()

    async def open(self, host, port, idx, tracer):
        return SimpleNamespace(
            idx=idx, host=host, port=port,
            rng=np.random.default_rng([self.seed, 3, idx]))

    async def close(self, session):
        pass

    def client_stats(self, sessions):
        return self._stats

    def _signed(self, values):
        t = self.params.plain_modulus
        values = np.asarray(values, dtype=np.int64)
        return np.where(values > t // 2, values - t, values)

    @staticmethod
    def activation(acts):
        """Client non-linearity: ReLU, requantise to 3 bits, 2x2 max-pool of
        the central 8x8 -> 64 values for the fc layer."""
        acts = np.maximum(acts, 0)
        peak = int(acts.max())
        if peak > 7:
            acts = acts >> int(np.ceil(np.log2(peak / 7)))
        pooled = acts[:, 1:9, 1:9].reshape(-1, 4, 2, 4, 2).max(axis=(2, 4))
        return pooled.ravel()

    async def query(self, session, tracer, root):
        self._serial += 1
        image = session.rng.integers(0, 16, size=(1, 12, 12))
        with tracer.span("hecore.keygen"):
            ctx = BfvContext(
                self.params,
                seed=f"e2e-{self.seed}-dnn-{self._serial}".encode())
            relin = ctx.relin_keys()
        with tracer.span("apps.build_kernels"):
            conv, fc = handlers.build_kernels(ctx, self.seed)
        with tracer.span("hecore.keygen"):
            galois = ensure_galois_keys(ctx, conv.required_rotation_steps(),
                                        fc.required_rotation_steps())
        if tracer.record:
            root.payload = (relin, galois)    # the replay needs this session's
        _wrap_crypto(tracer, ctx)
        client = OffloadClient(self.params, session.host, session.port)
        _wrap_client(tracer, client)
        await client.connect()
        try:
            await client.upload_keys(relin=relin, galois=galois)
            with tracer.span("apps.pack"):
                packed = [v.astype(np.int64) for v in conv.pack_input(image)]
            out, _meta = await client.request(
                handlers.OP_CONV, ctx.encrypt_symmetric_many(packed))
            slots = ctx.decrypt_many(out)
            with tracer.span("apps.decode"):
                acts = self._signed(conv.unpack_outputs(slots))
            with tracer.span("apps.activation"):
                vec = self.activation(acts)
            with tracer.span("apps.pack"):
                packed = [fc.pack_input(vec).astype(np.int64)]
            out, _meta = await client.request(
                handlers.OP_FC, ctx.encrypt_symmetric_many(packed))
            slots = ctx.decrypt_many(out)
            with tracer.span("apps.decode"):
                logits = self._signed(fc.unpack_output(slots[0]))
        finally:
            await client.close()
            self._stats.update(client.stats.snapshot())
        with tracer.span("bench.verify"):
            return bool(np.array_equal(acts, conv.reference(image))
                        and np.array_equal(logits, fc.reference(vec)))

    # ------------------------------------------------ in-process replay
    def server_state(self, ctx, session):
        return SimpleNamespace(
            state={}, ensure_context=lambda: ctx,
            server=SimpleNamespace(op_config={"dnn_seed": self.seed}))

    def execute(self, ctx, state, op, meta, cts):
        handler = (handlers.conv_handler if op == handlers.OP_CONV
                   else handlers.fc_handler)
        return handler(state, SimpleNamespace(cts=list(cts)))


def build(name, seed):
    if name == "knn_collapsed":
        return KnnWorkload(name, seed, "collapsed")
    if name == "knn_dimmajor":
        return KnnWorkload(name, seed, "dimension-major")
    if name == "dnn_cold_sessions":
        return DnnColdSessions(name, seed)
    if name == "knn_stacked_pair":
        return KnnWorkload(name, seed, "stacked-point", n_sessions=2,
                           pooled=True)
    raise ValueError(f"unknown workload {name!r}")
