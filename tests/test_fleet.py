"""Tests for the sharded serving fleet: router sharding and sticky
resume, admission control, the process-pool evaluation executor, the
key-store LRU with re-upload-on-miss, and a short tier-1 fleet soak.

Fleet tests spawn real worker processes over loopback TCP, so they are
kept small (2 workers, a handful of requests); the long randomized soak
lives in ``benchmarks/bench_fleet.py``.
"""

import asyncio
import contextlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.hecore.bfv import BfvContext
from repro.hecore.ckks import CkksContext
from repro.hecore.serialize import deserialize_params, serialize_params
from repro.runtime import (
    OffloadClient,
    OffloadServer,
    ServerBusy,
    SimulatedLink,
)
from repro.runtime.evalpool import EvalPool
from repro.runtime.fleet import FleetServer

sys.path.insert(0, str(Path(__file__).parent.parent / "benchmarks"))
from _soak import soak  # noqa: E402

#: The soak's stateful counting op (``chaos/count``), served in the worker.
SOAK_OPS = "_soak:install"
KNN_POOLED_INSTALLER = "repro.apps.knn:KnnOffloadService.install_pooled"


def run(coro):
    return asyncio.run(coro)


# ---------------------------------------------------------------------------
# Parameter serialization: what workers rebuild their contexts from
# ---------------------------------------------------------------------------

def test_serialize_params_roundtrip(bfv_params, ckks_params):
    """Workers rebuild contexts from ``serialize_params`` blobs; the
    roundtrip must preserve every spec field bit-exactly."""
    for params in (bfv_params, ckks_params):
        rebuilt = deserialize_params(serialize_params(params))
        assert rebuilt.scheme is params.scheme
        assert rebuilt == params
        # A context built from the rebuilt params interoperates with one
        # built from the originals (same rings, same keys-from-seed).
        if params.scheme.name == "BFV":
            a = BfvContext(params, seed=99)
            b = BfvContext(rebuilt, seed=99)
            ct = a.encrypt_symmetric([7, 8])
            assert list(b.decrypt(ct)[:2]) == [7, 8]


# ---------------------------------------------------------------------------
# Router: hash-sharded session placement, sticky RESUME routing
# ---------------------------------------------------------------------------

def test_fleet_shards_sessions_across_workers(bfv_params):
    """Session ids shard onto workers by ``(sid - 1) % n``; the per-worker
    banner exposes the placement, and requests execute on the owner."""
    async def main():
        fleet = FleetServer(bfv_params, 2, pooled_installers=(SOAK_OPS,))
        host, port = await fleet.start()
        clients = []
        try:
            for i in range(4):
                client = await OffloadClient(
                    bfv_params, host, port, request_timeout=10.0).connect()
                clients.append(client)
            for client in clients:
                owner = (client.session_id - 1) % 2
                assert client.banner.endswith(f"/w{owner}")
            # Both shards are populated (least-connections + stride ids).
            owners = {(c.session_id - 1) % 2 for c in clients}
            assert owners == {0, 1}
            # COMPUTE executes on the owning worker, end to end.
            ctx = BfvContext(bfv_params, seed=41)
            ct = ctx.encrypt_symmetric([5, 0])
            for client in clients:
                out, meta = await client.request("chaos/count", [ct],
                                                 {"seq": 0})
                assert meta["n"] == 1
                assert list(ctx.decrypt(out[0])[:2]) == [5, 0]
            snapshot = await fleet.refresh_metrics()
            assert snapshot["sessions_routed"] == 4
            per_worker = {w["worker"]: w["metrics"]["handler_invocations"]
                          for w in snapshot["per_worker"]}
            assert per_worker == {0: 2, 1: 2}
        finally:
            for client in clients:
                await client.close()
            await fleet.stop()

    run(main())


def test_fleet_resume_routes_to_owner(bfv_params):
    """A RESUME lands on the worker that owns the session id — same
    session, same worker, no re-provisioning."""
    async def main():
        fleet = FleetServer(bfv_params, 2, pooled_installers=(SOAK_OPS,),
                            resume_grace_s=10.0)
        host, port = await fleet.start()
        try:
            client = await OffloadClient(
                bfv_params, host, port, request_timeout=10.0,
                backoff_s=0.01).connect()
            sid, banner = client.session_id, client.banner
            ctx = BfvContext(bfv_params, seed=42)
            ct = ctx.encrypt_symmetric([3, 0])
            await client.request("chaos/count", [ct], {"seq": 0})
            # Simulate a detected connection failure: the next request
            # must resume through the router onto the same worker.
            client._conn_error = ConnectionError("injected for test")
            out, meta = await client.request("chaos/count", [ct], {"seq": 1})
            assert meta["n"] == 2              # same session state
            assert client.session_id == sid    # same session
            assert client.banner == banner     # same worker shard
            assert client.stats.resumes == 1
            snapshot = await fleet.refresh_metrics()
            assert snapshot["resumes_routed"] == 1
            await client.close()
        finally:
            await fleet.stop()

    run(main())


def test_fleet_admission_cap(bfv_params):
    """The fleet-wide session cap answers HELLO with BUSY + retry_after;
    a slot freed by a disconnect is grantable again."""
    async def main():
        fleet = FleetServer(bfv_params, 1, pooled_installers=(SOAK_OPS,),
                            session_cap=1, retry_after_ms=10,
                            resume_grace_s=0.0)
        host, port = await fleet.start()
        try:
            first = await OffloadClient(
                bfv_params, host, port, request_timeout=5.0).connect()
            rejected = OffloadClient(bfv_params, host, port,
                                     request_timeout=5.0, max_retries=0)
            with pytest.raises(ServerBusy):
                await rejected.connect()
            assert fleet.metrics.admission_rejections >= 1
            await first.close()
            # The departed session released its admission slot.
            for _ in range(50):
                if fleet.metrics.connections_active == 0:
                    break
                await asyncio.sleep(0.02)
            second = await OffloadClient(
                bfv_params, host, port, request_timeout=5.0,
                backoff_s=0.02, max_retries=8).connect()
            await second.close()
        finally:
            await fleet.stop()

    run(main())


# ---------------------------------------------------------------------------
# Lifecycle: a client exception must not leave worker processes behind
# ---------------------------------------------------------------------------

def _child_pids(pid):
    """Direct children of *pid* (the worker's eval-pool subprocesses)."""
    path = Path(f"/proc/{pid}/task/{pid}/children")
    return [int(p) for p in path.read_text().split()] if path.exists() else []


def _pid_alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def test_fleet_async_with_stops_on_exception(bfv_params):
    """A body that raises inside ``async with FleetServer(...)`` leaves no
    live worker and no live eval-pool child."""
    seen = {}

    async def main():
        async with FleetServer(bfv_params, 2, eval_workers=1,
                               pooled_installers=(KNN_POOLED_INSTALLER,)
                               ) as fleet:
            assert fleet.port
            seen["workers"] = [fleet.worker(i).process for i in range(2)]
            seen["children"] = [pid for proc in seen["workers"]
                                for pid in _child_pids(proc.pid)]
            raise RuntimeError("client blew up")

    with pytest.raises(RuntimeError, match="client blew up"):
        run(main())
    assert len(seen["workers"]) == 2
    assert len(seen["children"]) in (0, 2)      # 0: no /proc on this host
    assert not any(proc.is_alive() for proc in seen["workers"])
    assert not any(_pid_alive(pid) for pid in seen["children"])


def test_fleet_never_stopped_still_returns_to_the_shell(tmp_path):
    """Workers are non-daemon, so the interpreter joins them at exit: a
    script that skips ``stop()`` must be reaped by the fleet's finalizer
    instead of hanging forever."""
    script = tmp_path / "leak.py"
    script.write_text(textwrap.dedent("""
        import asyncio
        from repro.hecore.params import SchemeType, small_test_parameters
        from repro.runtime.fleet import FleetServer

        async def main():
            fleet = FleetServer(small_test_parameters(SchemeType.BFV, 1024), 2)
            await fleet.start()
            print(*(fleet.worker(i).process.pid for i in range(2)), flush=True)
            raise RuntimeError("skipped stop()")

        asyncio.run(main())
    """))
    done = subprocess.run(
        [sys.executable, str(script)], timeout=30, capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert "skipped stop()" in done.stderr
    pids = [int(p) for p in done.stdout.split()]
    assert len(pids) == 2
    assert not any(_pid_alive(pid) for pid in pids)


# ---------------------------------------------------------------------------
# Tier-1 fleet soak: worker kill, failover, exactly-once, ledger parity
# ---------------------------------------------------------------------------

def test_fleet_chaos_soak_short():
    """One worker killed mid-traffic: every logical request executes
    exactly once, ledgers stay byte-identical to the fault-free oracle,
    and the supervisor restarts the dead worker."""
    report = run(soak(workers=2, n_sessions=2, n_requests=4, seed=7))
    assert report.failures == []
    d = report.as_dict()
    assert d["handler_invocations"] == d["logical_requests"]
    assert d["worker_restarts"] >= 1
    assert d["failovers"] >= 1


# ---------------------------------------------------------------------------
# Process-pool evaluation executor
# ---------------------------------------------------------------------------

def test_eval_pool_matches_inline_knn(ckks_params):
    """A pooled KNN op (subprocess executor) returns the same
    classification as the inline handler, and ships each session's keys
    to its pinned subprocess exactly once."""
    from repro.apps.knn import KnnOffloadService, RemoteKnn

    rng = np.random.default_rng(3)
    points = rng.normal(size=(8, 4))
    labels = (np.arange(8) % 3).tolist()
    query = points[2] + 0.01

    async def classify(use_pool):
        pool = None
        server = OffloadServer(ckks_params, concurrency=1)
        if use_pool:
            pool = EvalPool(ckks_params, 1, (KNN_POOLED_INSTALLER,))
            server.eval_pool = pool
        else:
            KnnOffloadService.install(server)
        client_end, server_end = SimulatedLink.pair()
        serve_task = asyncio.ensure_future(
            server.serve_transport(server_end))
        try:
            ctx = CkksContext(ckks_params, seed=17)
            client = await OffloadClient(ckks_params,
                                         transport=client_end).connect()
            knn = RemoteKnn(client, ctx, k=3, variant="collapsed")
            await knn.add_points(points, labels)
            result = await knn.classify(query)
            await client.close()
            snapshot = pool.snapshot() if pool else None
            return result.label, snapshot
        finally:
            await server.stop()
            serve_task.cancel()
            if pool is not None:
                with contextlib.suppress(Exception):
                    await pool.close()

    pooled_label, snapshot = run(classify(use_pool=True))
    inline_label, _ = run(classify(use_pool=False))
    assert pooled_label == inline_label
    assert snapshot["executions"] >= 1
    # Relin + Galois keys shipped to the pinned subprocess once each.
    assert snapshot["key_ships"] == 2
    assert snapshot["respawns"] == 0


@pytest.mark.parametrize("eval_workers", [0, 1])
def test_fleet_runs_pure_ops_where_a_pool_exists(ckks_params, eval_workers):
    """Where a served op runs is observed, not declared: the same
    ``pooled_installers`` are served by the eval pool when the worker has
    one and in the worker process itself when it has none (the parent
    answered UNKNOWN_OP there)."""
    from repro.apps.knn import RemoteKnn

    points = np.random.default_rng(4).normal(size=(8, 4))
    labels = (np.arange(8) % 3).tolist()

    async def main():
        async with FleetServer(ckks_params, 1, eval_workers=eval_workers,
                               pooled_installers=(KNN_POOLED_INSTALLER,)
                               ) as fleet:
            client = await OffloadClient(ckks_params, fleet.host,
                                         fleet.port).connect()
            try:
                knn = RemoteKnn(client, CkksContext(ckks_params, seed=19),
                                k=3, variant="collapsed")
                await knn.add_points(points, labels)
                result = await knn.classify(points[6] + 0.01)
            finally:
                await client.close()
            snapshot = await fleet.refresh_metrics()
            pool = snapshot["per_worker"][0]["eval_pool"]
            return result.label, pool

    label, pool = run(main())
    assert label == labels[6]
    assert (pool["executions"] == 2) if eval_workers else (pool is None)


@pytest.mark.parametrize("use_pool", [False, True], ids=["inline", "pooled"])
def test_missing_rotation_key_answers_missing_keys(ckks_params, use_pool):
    """A COMPUTE that needs a rotation the session never uploaded is
    MISSING_KEYS by exception type — in the serving process and across
    the eval-pool pipe alike."""
    from repro.apps.knn import KnnOffloadService
    from repro.core.distance import DistanceProblem, StackedPointMajorKernel
    from repro.runtime import ErrorCode, OffloadError

    points = np.random.default_rng(8).normal(size=(4, 4))

    async def main():
        pool = None
        server = OffloadServer(ckks_params, concurrency=1)
        if use_pool:
            pool = EvalPool(ckks_params, 1, (KNN_POOLED_INSTALLER,))
            server.eval_pool = pool
        else:
            KnnOffloadService.install(server)
        client_end, server_end = SimulatedLink.pair()
        serve_task = asyncio.ensure_future(
            server.serve_transport(server_end))
        try:
            ctx = CkksContext(ckks_params, seed=23)
            kernel = StackedPointMajorKernel(
                ctx, DistanceProblem(n_points=4, dims=4))
            assert 2 in kernel.required_rotation_steps()
            client = await OffloadClient(ckks_params,
                                         transport=client_end).connect()
            await client.upload_keys(relin=ctx.relin_keys(),
                                     galois=ctx.make_galois_keys([1]))
            await client.request(
                KnnOffloadService.OP_STORE,
                ctx.encrypt_symmetric_many(kernel.pack_points(points)),
                {"n_points": 4, "dims": 4, "variant": kernel.name},
                account=False)
            with pytest.raises(OffloadError) as exc_info:
                await client.request(
                    KnnOffloadService.OP_QUERY,
                    ctx.encrypt_symmetric_many(kernel.pack_query(points[0])),
                    {"batch": 0})
            await client.close()
            return exc_info.value.code
        finally:
            await server.stop()
            serve_task.cancel()
            if pool is not None:
                with contextlib.suppress(Exception):
                    await pool.close()

    assert run(main()) is ErrorCode.MISSING_KEYS


def _decrypting_op(ctx, _state, meta, cts):
    """A handler that tries each secret-key entry point on its eval context."""
    attempt = {"decrypt_many": lambda: ctx.decrypt_many(cts),
               "noise_budget": lambda: ctx.noise_budget(cts[0]),
               "bigint": lambda: ctx._decrypt_bigint(cts[0]),
               "symmetric": lambda: ctx.encrypt_symmetric_many([[1, 2]])}
    attempt[meta["how"]]()
    return []


def _install_decrypting_op(registry) -> None:
    registry["evil/decrypt"] = _decrypting_op


@pytest.mark.parametrize("use_pool", [False, True], ids=["inline", "pooled"])
def test_eval_context_cannot_use_a_secret_key(bfv_params, bfv, use_pool):
    """No secret-key operation is callable on a session's eval context —
    not just ``decrypt``: ``decrypt_many``, ``noise_budget``, the bigint
    oracle and symmetric encryption all answer PROTOCOL_VIOLATION, in the
    serving process and in an eval-pool subprocess."""
    from repro.runtime import ErrorCode, OffloadError

    installer = f"{__name__}:_install_decrypting_op"

    async def main():
        pool = None
        server = OffloadServer(bfv_params, concurrency=1)
        if use_pool:
            pool = EvalPool(bfv_params, 1, (installer,))
            server.eval_pool = pool
        else:
            server.register_op("evil/decrypt", _decrypting_op)
        client_end, server_end = SimulatedLink.pair()
        serve_task = asyncio.ensure_future(
            server.serve_transport(server_end))
        codes = []
        try:
            client = await OffloadClient(bfv_params,
                                         transport=client_end).connect()
            for how in ("decrypt_many", "noise_budget", "bigint", "symmetric"):
                with pytest.raises(OffloadError) as exc_info:
                    await client.request("evil/decrypt", [bfv.encrypt([1])],
                                         {"how": how})
                codes.append(exc_info.value.code)
            await client.close()
            return codes
        finally:
            await server.stop()
            serve_task.cancel()
            if pool is not None:
                with contextlib.suppress(Exception):
                    await pool.close()

    assert run(main()) == [ErrorCode.PROTOCOL_VIOLATION] * 4


def _keyswitch_op(ctx, state, meta, cts):
    """One key-switching evaluation on the session's uploaded keys."""
    how = {"rotate": lambda ct: ctx.rotate(ct, 3),
           "rotate_and_sum": lambda ct: ctx.rotate_and_sum(ct, 8),
           "relinearize": ctx.relinearize}
    return [how[meta["how"]](cts[0])]


def _install_keyswitch_op(registry) -> None:
    registry["test/keyswitch"] = _keyswitch_op


def test_seeded_keys_evaluate_identically_inline_and_pooled(bfv_params):
    """Equality by construction, across processes: the serving process and
    an eval-pool child each expand the uniform halves of the same uploaded
    key blobs for themselves, and a rotation, a ``rotate_and_sum`` and a
    relinearisation come back as byte-identical ciphertexts."""
    import hashlib

    from repro.hecore.hoisting import rotate_and_sum_steps
    from repro.hecore.serialize import serialize_ciphertext

    hows = ("rotate", "rotate_and_sum", "relinearize")

    async def evaluate(use_pool):
        pool = None
        server = OffloadServer(bfv_params, concurrency=1)
        if use_pool:
            pool = EvalPool(bfv_params, 1,
                            (f"{__name__}:_install_keyswitch_op",))
            server.eval_pool = pool
        else:
            server.register_op("test/keyswitch", _keyswitch_op)
        client_end, server_end = SimulatedLink.pair()
        serve_task = asyncio.ensure_future(
            server.serve_transport(server_end))
        try:
            ctx = BfvContext(bfv_params, seed=41)
            client = await OffloadClient(bfv_params,
                                         transport=client_end).connect()
            await client.upload_keys(
                relin=ctx.relin_keys(),
                galois=ctx.make_galois_keys({3} | rotate_and_sum_steps(8)))
            ct = ctx.encrypt_symmetric(list(range(16)))
            inputs = {"rotate": ct, "rotate_and_sum": ct,
                      "relinearize": ctx.multiply(ct, ct, relinearize=False)}
            digests = {"blobs": dict(client._key_blob_cache)}
            for how in hows:
                out, _meta = await client.request(
                    "test/keyswitch", [inputs[how]], {"how": how})
                digests[how] = hashlib.sha256(
                    serialize_ciphertext(out[0])).hexdigest()
            if use_pool:
                assert pool.snapshot()["executions"] == len(hows)
            await client.close()
            return digests
        finally:
            await server.stop()
            serve_task.cancel()
            if pool is not None:
                with contextlib.suppress(Exception):
                    await pool.close()

    assert run(evaluate(use_pool=True)) == run(evaluate(use_pool=False))


# ---------------------------------------------------------------------------
# Key-store LRU: eviction, KEYS_EVICTED signaling, charged re-upload
# ---------------------------------------------------------------------------

def test_keystore_eviction_reupload_charged_once(bfv_params, bfv):
    """When the LRU evicts an idle session's keys, its next COMPUTE gets
    KEYS_EVICTED, the client transparently re-uploads from its blob cache,
    and the ledger is charged the blob bytes exactly once."""
    async def main():
        server = OffloadServer(bfv_params, keystore_limit=1)

        def count(session, request):
            session.state["n"] = session.state.get("n", 0) + 1
            return list(request.cts), {"n": session.state["n"]}

        server.register("count", count)

        c1_end, s1_end = SimulatedLink.pair()
        c2_end, s2_end = SimulatedLink.pair()
        t1 = asyncio.ensure_future(server.serve_transport(s1_end))
        t2 = asyncio.ensure_future(server.serve_transport(s2_end))
        try:
            client1 = await OffloadClient(bfv_params,
                                          transport=c1_end).connect()
            ledger = client1.ledger
            await client1.upload_keys(relin=bfv.relin_keys())
            blob_bytes = sum(len(b) for blobs in
                             client1._key_blob_cache.values() for b in blobs)
            assert blob_bytes > 0

            ct = bfv.encrypt_symmetric([2, 0])
            # Baseline: what one COMPUTE round charges, keys resident.
            before = ledger.bytes_up
            _, meta = await client1.request("count", [ct])
            assert meta["n"] == 1
            normal_up = ledger.bytes_up - before

            # A second session's upload pushes the LRU over the cap and
            # evicts session 1's keys (idle: nothing queued or running).
            client2 = await OffloadClient(bfv_params,
                                          transport=c2_end).connect()
            await client2.upload_keys(relin=bfv.relin_keys())
            m1 = server.metrics.get(client1.session_id)
            assert m1.key_evictions == 1

            # Session 1's next COMPUTE: KEYS_EVICTED -> transparent
            # re-upload -> same request id re-submitted and executed once.
            before = ledger.bytes_up
            _, meta = await client1.request("count", [ct])
            assert meta["n"] == 2
            assert client1.stats.key_reuploads == 1
            assert m1.reupload_signals == 1
            assert m1.handler_invocations == 2  # no duplicate execution
            # The eviction round costs exactly one extra key blob upload.
            assert ledger.bytes_up - before == normal_up + blob_bytes

            # Steady state again: a follow-up request is back to baseline.
            before = ledger.bytes_up
            await client1.request("count", [ct])
            assert ledger.bytes_up - before == normal_up
            assert client1.stats.key_reuploads == 1

            await client1.close()
            await client2.close()
        finally:
            await server.stop()
            t1.cancel()
            t2.cancel()

    run(main())


@pytest.mark.parametrize("use_pool", [False, True], ids=["inline", "pooled"])
def test_key_eviction_drops_keys_and_only_keys(ckks_params, use_pool):
    """An eviction means one thing in the serving process and in an
    eval-pool child: the keys go, the stored KNN batch stays.  After the
    transparent re-upload the same query classifies to the same label, is
    metered the same, and the stored kernel rotates with the *new* key
    set — nothing keeps the evicted one alive."""
    import gc
    import weakref

    from repro.apps.knn import KnnOffloadService, RemoteKnn
    from repro.runtime import KeyKind

    rng = np.random.default_rng(5)
    points = rng.normal(size=(8, 4))
    labels = (np.arange(8) % 3).tolist()
    query = points[5] + 0.01

    async def main():
        pool = None
        server = OffloadServer(ckks_params, keystore_limit=1)
        if use_pool:
            pool = EvalPool(ckks_params, 1, (KNN_POOLED_INSTALLER,))
            server.eval_pool = pool
        else:
            KnnOffloadService.install(server)
        c1_end, s1_end = SimulatedLink.pair()
        c2_end, s2_end = SimulatedLink.pair()
        tasks = [asyncio.ensure_future(server.serve_transport(end))
                 for end in (s1_end, s2_end)]
        try:
            ctx = CkksContext(ckks_params, seed=29)
            client1 = await OffloadClient(ckks_params,
                                          transport=c1_end).connect()
            knn = RemoteKnn(client1, ctx, k=3, variant="collapsed")
            await knn.add_points(points, labels)
            metrics = server.metrics.get(client1.session_id)
            before = await knn.classify(query)
            rotations = metrics.rotations
            assert rotations > 0

            evaluator = server._sessions[client1.session_id].evaluator
            evicted = weakref.ref(evaluator.keystore[KeyKind.GALOIS])
            client2 = await OffloadClient(ckks_params,
                                          transport=c2_end).connect()
            await client2.upload_keys(relin=ctx.relin_keys())
            assert metrics.key_evictions == 1
            assert not evaluator.keystore
            gc.collect()
            assert evicted() is None  # the LRU freed what it evicted

            after = await knn.classify(query)
            assert client1.stats.key_reuploads == 1
            assert after.label == before.label == labels[5]
            assert metrics.rotations == 2 * rotations
            if not use_pool:
                kernel, _cts = evaluator.state["knn_batches"][0]
                held = kernel.ctx.held_galois_keys()
                assert held is not None
                assert held is evaluator.keystore[KeyKind.GALOIS]
            await client1.close()
            await client2.close()
        finally:
            await server.stop()
            for task in tasks:
                task.cancel()
            if pool is not None:
                with contextlib.suppress(Exception):
                    await pool.close()

    run(main())


def test_remote_knn_sends_each_key_once(ckks_params):
    """``add_points`` provisions incrementally: the relin key once per
    session and only the Galois elements no earlier batch sent.  A second
    batch of the same shape sends no key bytes, a new shape sends only its
    new elements, and a KEYS_EVICTED replay restores — and is charged for —
    exactly the held set, once."""
    from repro.apps.knn import KnnOffloadService, RemoteKnn
    from repro.hecore.serialize import deserialize_galois_keys
    from repro.runtime import KeyKind

    rng = np.random.default_rng(11)
    labels = (np.arange(24) % 3).tolist()

    async def main():
        server = OffloadServer(ckks_params, keystore_limit=1)
        KnnOffloadService.install(server)
        c1_end, s1_end = SimulatedLink.pair()
        c2_end, s2_end = SimulatedLink.pair()
        tasks = [asyncio.ensure_future(server.serve_transport(end))
                 for end in (s1_end, s2_end)]
        try:
            ctx = CkksContext(ckks_params, seed=37)
            client1 = await OffloadClient(ckks_params,
                                          transport=c1_end).connect()
            ledger = client1.ledger
            knn = RemoteKnn(client1, ctx, k=3, variant="collapsed")
            session = server._sessions[client1.session_id]
            metrics = server.metrics.get(client1.session_id)

            def cached():
                return {kind: list(blobs) for kind, blobs
                        in client1._key_blob_cache.items()}

            def elements(blob):
                return set(deserialize_galois_keys(blob, ckks_params).keys)

            await knn.add_points(rng.normal(size=(8, 4)), labels[:8])
            first = cached()
            assert [len(first[k]) for k in (KeyKind.RELIN, KeyKind.GALOIS)] \
                == [1, 1]
            assert metrics.key_uploads == 2

            # Same shape again: nothing new to send, nothing sent.
            await knn.add_points(rng.normal(size=(8, 4)), labels[:8])
            assert cached() == first
            assert metrics.key_uploads == 2

            # A new shape: one more Galois blob holding only new elements
            # and the held ones its program rotates at a higher level.
            await knn.add_points(rng.normal(size=(24, 4)), labels)
            held = cached()
            assert held[KeyKind.RELIN] == first[KeyKind.RELIN]
            assert held[KeyKind.GALOIS][:1] == first[KeyKind.GALOIS]
            old, new = map(elements, held[KeyKind.GALOIS])
            old_keys, new_keys = (deserialize_galois_keys(blob, ckks_params)
                                  for blob in held[KeyKind.GALOIS])
            assert new - old
            assert all(new_keys.keys[g].limbs > old_keys.keys[g].limbs
                       for g in new & old)
            assert metrics.key_uploads == 3
            assert ledger.bytes_up == 0              # provisioning is offline
            held_bytes = sum(len(b) for blobs in held.values() for b in blobs)

            def server_holds_exactly_the_set():
                assert {k: list(v) for k, v in session.key_blobs.items()} \
                    == held
                galois = session.evaluator.keystore[KeyKind.GALOIS]
                assert set(galois.keys) == old | new

            server_holds_exactly_the_set()
            query = rng.normal(size=4)
            before = ledger.bytes_up
            want = await knn.classify(query)
            query_up = ledger.bytes_up - before

            client2 = await OffloadClient(ckks_params,
                                          transport=c2_end).connect()
            await client2.upload_keys(relin=ctx.relin_keys())
            assert metrics.key_evictions == 1
            assert not session.key_blobs

            # One replay: every held blob once, charged its own length.
            before = ledger.bytes_up
            got = await knn.classify(query)
            assert got.label == want.label
            assert client1.stats.key_reuploads == 1
            assert ledger.bytes_up - before == query_up + held_bytes
            assert cached() == held
            server_holds_exactly_the_set()
            await client1.close()
            await client2.close()
        finally:
            await server.stop()
            for task in tasks:
                task.cancel()

    run(main())


def test_remote_knn_regenerates_a_key_whose_level_rises_once(ckks_params):
    """A later batch whose program rotates a held element higher than the
    key sent makes the client regenerate that element at the new level and
    upload it, once; a batch that rotates it lower, or as high, reuses the
    held key and sends nothing.  The server keeps each element at the
    highest level sent, and every batch still classifies."""
    from repro.apps.knn import KnnOffloadService, RemoteKnn
    from repro.hecore.serialize import deserialize_galois_keys
    from repro.runtime import KeyKind

    rng = np.random.default_rng(12)
    small, large = rng.normal(size=(8, 4)), rng.normal(size=(24, 4))
    labels = (np.arange(24) % 3).tolist()

    async def main():
        server = OffloadServer(ckks_params)
        KnnOffloadService.install(server)
        client_end, server_end = SimulatedLink.pair()
        task = asyncio.ensure_future(server.serve_transport(server_end))
        try:
            ctx = CkksContext(ckks_params, seed=38)
            client = await OffloadClient(ckks_params,
                                         transport=client_end).connect()
            knn = RemoteKnn(client, ctx, k=3, variant="collapsed")
            session = server._sessions[client.session_id]

            def sent():
                return [deserialize_galois_keys(blob, ckks_params).keys
                        for blob in client._key_blob_cache[KeyKind.GALOIS]]

            await knn.add_points(small, labels[:8])
            (first,) = sent()
            await knn.add_points(large, labels)
            _, second = sent()
            rose = set(first) & set(second)
            assert rose
            assert all(second[g].limbs > first[g].limbs for g in rose)
            # Lower, then as high: nothing more to send.
            await knn.add_points(small, labels[:8])
            await knn.add_points(large, labels)
            assert len(sent()) == 2
            held = session.evaluator.keystore[KeyKind.GALOIS].keys
            assert set(held) == set(first) | set(second)
            for g, key in held.items():
                assert key.limbs == (second[g] if g in second
                                     else first[g]).limbs
            query = rng.normal(size=4)
            result = await knn.classify(query)
            points = np.concatenate([small, large, small, large])
            want = np.sum((points - query) ** 2, axis=1)
            assert np.allclose(result.distances, want, atol=1e-2)
            await client.close()
        finally:
            await server.stop()
            task.cancel()

    run(main())


def test_keystore_eviction_through_fleet(bfv_params):
    """End-to-end through the router: per-worker LRUs evict, clients
    re-provision transparently, and the fleet snapshot aggregates the
    eviction and re-upload counters."""
    async def main():
        fleet = FleetServer(bfv_params, 1, pooled_installers=(SOAK_OPS,),
                            keystore_limit=1)
        host, port = await fleet.start()
        try:
            ctx = BfvContext(bfv_params, seed=43)
            clients = []
            for i in range(2):
                client = await OffloadClient(
                    bfv_params, host, port, request_timeout=10.0).connect()
                await client.upload_keys(galois=ctx.make_galois_keys([1]))
                clients.append(client)
            # Client 2's upload evicted client 1's keys; client 1 recovers.
            ct = ctx.encrypt_symmetric([9, 0])
            out, meta = await clients[0].request("chaos/count", [ct],
                                                 {"seq": 0})
            assert list(ctx.decrypt(out[0])[:2]) == [9, 0]
            assert clients[0].stats.key_reuploads == 1
            snapshot = await fleet.refresh_metrics()
            assert snapshot["key_evictions"] >= 1
            assert snapshot["reupload_signals"] >= 1
            # Three uploads were paid for; only the re-provisioned session
            # still holds its key (its re-upload evicted the other's).
            uploads = [s for w in snapshot["per_worker"]
                       for s in w["metrics"]["sessions"].values()]
            assert snapshot["key_bytes"] == sum(
                s["key_bytes"] for s in uploads) > 0
            assert sorted(s["key_uploads"] for s in uploads) == [1, 2]
            assert snapshot["galois_keys_held"] == 1
            for client in clients:
                await client.close()
        finally:
            await fleet.stop()

    run(main())
