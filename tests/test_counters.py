"""The counter table (``core.protocol.KERNEL_COUNTERS``) and what derives
from it: the ledger / session fields, the three metering sites, the
session / worker / fleet snapshots, and the closed-session cap.

The golden half freezes the snapshot key sets and ``render()`` text that
``benchmarks/e2e/driver.py`` and ``bench_fleet.py`` read by name.
"""

import asyncio
import contextlib
import dataclasses

import pytest

from repro.core import ir
from repro.core.protocol import (
    KERNEL_COUNTER_NAMES,
    KERNEL_COUNTERS,
    ClientAidedSession,
    CostLedger,
)
from repro.hecore.bfv import BfvContext
from repro.runtime import OffloadClient, OffloadServer, SimulatedLink
from repro.runtime import metrics as metrics_module
from repro.runtime.evalpool import EvalPool
from repro.runtime.metrics import (
    SUMMED_COUNTERS,
    FleetMetrics,
    RuntimeMetrics,
    SessionMetrics,
)

#: A distinct bump per table row, so a swapped or dropped row shows.
BUMPS = {key: 3 + 2 * i for i, key in enumerate(KERNEL_COUNTERS)}


def _bump_op(ctx, _state, _meta, cts):
    for key, amount in BUMPS.items():
        ctx.counts[key] += amount
    ctx.counts["add"] += 1  # an unmetered op: must reach no counter field
    return cts


def _install_bump_op(registry) -> None:
    registry["bump"] = _bump_op


def _served_session_metrics(params, ctx, use_pool) -> SessionMetrics:
    """Serve two ``bump`` requests; return the session's live metrics."""
    installer = f"{__name__}:_install_bump_op"

    async def main():
        pool = None
        server = OffloadServer(params, concurrency=1)
        if use_pool:
            pool = EvalPool(params, 1, (installer,))
            server.eval_pool = pool
        else:
            server.register_op("bump", _bump_op)
        client_end, server_end = SimulatedLink.pair()
        serve_task = asyncio.ensure_future(
            server.serve_transport(server_end))
        try:
            client = await OffloadClient(params,
                                         transport=client_end).connect()
            for _ in range(2):
                await client.request("bump", [ctx.encrypt([1])])
            metrics = server.metrics.get(client.session_id)
            await client.close()
            return metrics
        finally:
            await server.stop()
            serve_task.cancel()
            if pool is not None:
                with contextlib.suppress(Exception):
                    await pool.close()

    return asyncio.run(main())


@pytest.fixture(scope="module")
def metered(bfv_params, bfv):
    """The same body metered at all three sites."""
    ctx = BfvContext(bfv_params, seed=7)  # own counts: bfv's are shared
    session = ClientAidedSession(ctx)
    for _ in range(2):
        session.server_compute(_bump_op, ctx, {}, {}, [])
    return {
        "inline": _served_session_metrics(bfv_params, bfv, use_pool=False),
        "pooled": _served_session_metrics(bfv_params, bfv, use_pool=True),
        "ledger": session.ledger,
    }


@pytest.mark.parametrize("key", list(KERNEL_COUNTERS))
def test_every_site_meters_every_row(metered, key):
    name = KERNEL_COUNTERS[key][0]
    for site, record in metered.items():
        assert getattr(record, name) == 2 * BUMPS[key], (site, name)


def test_inline_and_pooled_session_metrics_are_identical(metered):
    inline = metered["inline"].snapshot()
    pooled = metered["pooled"].snapshot()
    for snap in (inline, pooled):
        assert snap["handler_invocations"] == snap["responses"] == 2
        del snap["peer"], snap["latency_p50_ms"], snap["latency_p99_ms"]
    assert inline == pooled


def test_knn_ops_serve_the_same_bytes_and_counts_inline_and_pooled(
        ckks_params):
    """Every ``KnnOffloadService`` op runs through one ``SessionEvaluator.
    run`` whichever process executes it: the packed RESULT payloads are
    byte-identical and each op moves the kernel counters by the same
    amount."""
    import numpy as np

    from repro.apps.knn import KnnOffloadService
    from repro.core.distance import CollapsedPointMajorKernel, DistanceProblem
    from repro.core.ir import ensure_galois_keys
    from repro.hecore.ckks import CkksContext

    rng = np.random.default_rng(13)
    points = rng.normal(size=(8, 4))

    def kernel_counts(metrics):
        return {name: getattr(metrics, name) for name in KERNEL_COUNTER_NAMES}

    def served(use_pool):
        # Both serves start cold.  The client packs first (packing a query
        # reads its entry levels off the compiled program); the cache is
        # cleared after that, before the server and the pool child it forks
        # start, so neither inherits a compiled program.
        ctx = CkksContext(ckks_params, seed=31)
        kernel = CollapsedPointMajorKernel(ctx, DistanceProblem(8, 4))
        galois = ensure_galois_keys(ctx, kernel.required_rotation_steps())
        point_cts = ctx.encrypt_symmetric_many(kernel.pack_points(points))
        query_cts = ctx.encrypt_symmetric_many(
            kernel.pack_query(points[3] + 0.01))
        ir.clear_program_cache()

        async def main():
            pool = None
            server = OffloadServer(ckks_params, concurrency=1)
            if use_pool:
                pool = EvalPool(ckks_params, 1, (
                    "repro.apps.knn:KnnOffloadService.install_pooled",))
                server.eval_pool = pool
            else:
                KnnOffloadService.install(server)
            client_end, server_end = SimulatedLink.pair()
            serve_task = asyncio.ensure_future(
                server.serve_transport(server_end))
            try:
                client = await OffloadClient(ckks_params,
                                             transport=client_end).connect()
                await client.upload_keys(relin=ctx.relin_keys(),
                                         galois=galois)
                metrics = server.metrics.get(client.session_id)
                _, meta = await client.request(
                    KnnOffloadService.OP_STORE, point_cts,
                    {"n_points": 8, "dims": 4, "variant": "collapsed"},
                    account=False)
                after_store = kernel_counts(metrics)
                await client.request(KnnOffloadService.OP_QUERY, query_cts,
                                     {"batch": int(meta["batch"])})
                payloads = dict(
                    server._sessions[client.session_id].completed)
                await client.close()
                return payloads, after_store, kernel_counts(metrics)
            finally:
                await server.stop()
                serve_task.cancel()
                if pool is not None:
                    with contextlib.suppress(Exception):
                        await pool.close()

        return asyncio.run(main())

    inline, pooled = served(use_pool=False), served(use_pool=True)
    assert len(inline[0]) == 2 and sum(inline[2].values()) > 0
    assert inline[2]["program_cache_misses"] == 1
    assert inline == pooled


def test_every_table_name_is_a_field_and_a_snapshot_key():
    assert len(set(KERNEL_COUNTER_NAMES)) == len(KERNEL_COUNTERS)
    for cls in (CostLedger, SessionMetrics):
        names = [f.name for f in dataclasses.fields(cls)]
        assert set(KERNEL_COUNTER_NAMES) <= set(names)
        assert len(names) == len(set(names))
    runtime = _populated_runtime(1)
    fleet = _populated_fleet()
    for snap in (runtime.get(1).snapshot(), runtime.snapshot(),
                 fleet.snapshot()):
        assert set(KERNEL_COUNTER_NAMES) <= set(snap)
    assert set(KERNEL_COUNTER_NAMES) <= set(SUMMED_COUNTERS)


def test_ledger_keyword_construction_and_merge_cover_the_table():
    a = CostLedger(**{name: i + 1
                      for i, name in enumerate(KERNEL_COUNTER_NAMES)})
    a.merge(a)
    assert [getattr(a, name) for name in KERNEL_COUNTER_NAMES] == [
        2 * (i + 1) for i in range(len(KERNEL_COUNTER_NAMES))]


# ------------------------------------------------------------------ golden

#: SessionMetrics' counter fields (snapshot keys too).
SESSION_COUNTERS = (
    "requests", "responses", "errors", "busy_rejections", "key_uploads",
    "handler_invocations", "duplicates_suppressed", "results_replayed",
    "resumes", "pings", "ciphertexts_in", "ciphertexts_out", "bytes_up",
    "bytes_down", "queue_depth", "rotations", "hoisted_decomposes",
    "naive_decomposes", "ntt_forward", "ntt_inverse", "ntt_elided",
    "limb_drops", "limbs_live", "key_evictions",
    "reupload_signals", "program_cache_hits", "program_cache_misses",
    "key_bytes", "galois_keys_held", "entry_drops",
)

SESSION_KEYS = frozenset(SESSION_COUNTERS) | {
    "session_id", "peer", "latency_p50_ms", "latency_p99_ms"}

#: The 24 per-session counters the worker snapshot totals.
RUNTIME_TOTALS = (
    "key_evictions", "reupload_signals", "handler_invocations",
    "duplicates_suppressed", "results_replayed", "requests", "responses",
    "errors", "busy_rejections", "bytes_up", "bytes_down", "rotations",
    "hoisted_decomposes", "naive_decomposes", "ntt_forward", "ntt_inverse",
    "ntt_elided", "limb_drops", "limbs_live", "program_cache_hits",
    "program_cache_misses", "key_bytes", "galois_keys_held", "entry_drops",
)

RUNTIME_KEYS = frozenset(RUNTIME_TOTALS) | {
    "sessions_opened", "sessions_rejected", "sessions_resumed",
    "sessions_reaped", "resumes_rejected", "scheduler_restarts",
    "last_scheduler_error", "sessions"}

FLEET_KEYS = frozenset({
    "workers_live", "worker_restarts", "admission_rejections",
    "sessions_routed", "resumes_routed", "resumes_bounced",
    "connections_total", "connections_active", "queue_depth",
    "handler_invocations", "responses", "key_evictions", "reupload_signals",
    "limb_drops", "entry_drops", "limbs_live", "scheduler_restarts",
    "executor_utilization", "per_worker"})

RUNTIME_RENDER = """\
offload-server metrics: 2 session(s), 3016/3002 requests served, \
3044 busy rejection(s), 3030 error(s)
  physical bytes: 3170 up / 3184 down
  rotations: 3212 (3226 hoisted / 3240 naive decomposes)
  ntt residency: 3254 forward / 3268 inverse row(s), 3282 pair(s) elided
  level planner: 3296 limb drop(s), 3310 limb-row(s) live
  schedule cache: 3352 hit(s) / 3366 miss(es)
  resilience: 2 resume(s), 3 reaped, 3086 duplicate(s) suppressed, \
3100 result(s) replayed
  sess peer                  reqs  resp  busy  err       up B     down B \
  p50 ms   p99 ms
     1 10.0.0.1:5000         1001  1008  1022 1015       1085       1092 \
    3.00     5.00
     2 10.0.0.2:5000         2001  2008  2022 2015       2085       2092 \
    4.00     6.00"""

FLEET_RENDER = """\
fleet metrics: 2 live worker(s), 1 restart(s), 6 session(s) routed, \
2 admission rejection(s)
  fleet totals: 69048 response(s), queue depth 6, 69972 eviction(s) / \
70014 re-upload signal(s)
  schedule cache: 70056 hit(s) / 70098 miss(es)
  worker 1 (retired): 2 session(s), queue 2, 23016 response(s), \
exec util 0.50
  worker 0: 2 session(s), queue 1, 3016 response(s), exec util 0.25
  worker 2: 2 session(s), queue 3, 43016 response(s), exec util 0.75"""


def _session_value(session_id: int, name: str) -> int:
    return 1000 * session_id + 7 * SESSION_COUNTERS.index(name) + 1


def _populated_runtime(base: int) -> RuntimeMetrics:
    """Two sessions (ids *base*, *base* + 1), every counter distinct."""
    runtime = RuntimeMetrics()
    for sid in (base, base + 1):
        m = runtime.open_session(sid, peer=f"10.0.0.{sid}:5000")
        for name in SESSION_COUNTERS:
            setattr(m, name, _session_value(sid, name))
        for k in range(5):
            m.observe_latency(1e-3 * (sid + k))
    runtime.sessions_rejected = base
    runtime.sessions_resumed = base + 1
    runtime.sessions_reaped = base + 2
    runtime.resumes_rejected = base + 3
    runtime.scheduler_restarts = base + 4
    runtime.last_scheduler_error = f"RuntimeError: boom {base}"
    return runtime


def _populated_fleet() -> FleetMetrics:
    """Three workers' snapshots; worker 1's generation died (retired)."""
    fleet = FleetMetrics()
    for index, base in enumerate((1, 11, 21)):
        fleet.update_worker(index, {
            "worker": index, "pid": 4000 + index, "sessions": 2,
            "queue_depth": index + 1,
            "metrics": _populated_runtime(base).snapshot(),
            "eval_pool": {"utilization": 0.25 * (index + 1)},
        })
    fleet.retire_worker(1)
    fleet.worker_restarts = 1
    fleet.admission_rejections = 2
    fleet.sessions_routed = 6
    fleet.resumes_routed = 3
    fleet.resumes_bounced = 4
    fleet.connections_total = 9
    fleet.connections_active = 5
    return fleet


def test_golden_session_and_runtime_snapshots():
    runtime = _populated_runtime(1)
    session = runtime.get(1).snapshot()
    assert SESSION_KEYS <= set(session)
    assert session["session_id"] == 1 and session["peer"] == "10.0.0.1:5000"
    assert session["latency_p50_ms"] == 3.0
    assert session["latency_p99_ms"] == 5.0
    for name in SESSION_COUNTERS:
        assert session[name] == _session_value(1, name)

    snap = runtime.snapshot()
    assert RUNTIME_KEYS <= set(snap)
    assert snap["sessions"] == {1: session, 2: runtime.get(2).snapshot()}
    for name in RUNTIME_TOTALS:
        assert snap[name] == (_session_value(1, name)
                              + _session_value(2, name)), name
    assert (snap["sessions_opened"], snap["sessions_rejected"],
            snap["sessions_resumed"], snap["sessions_reaped"],
            snap["resumes_rejected"], snap["scheduler_restarts"],
            snap["last_scheduler_error"]) == (
        2, 1, 2, 3, 4, 5, "RuntimeError: boom 1")
    assert runtime.render() == RUNTIME_RENDER


def test_golden_fleet_snapshot_totals_every_summed_counter():
    fleet = _populated_fleet()
    snap = fleet.snapshot()
    assert FLEET_KEYS <= set(snap)
    assert set(RUNTIME_TOTALS) <= set(SUMMED_COUNTERS) <= set(snap)
    assert [w.get("retired", False) for w in snap["per_worker"]] == [
        True, False, False]
    for name in (*SUMMED_COUNTERS, "scheduler_restarts"):
        assert snap[name] == sum(w["metrics"][name]
                                 for w in snap["per_worker"]), name
    assert snap["rotations"] == sum(
        _session_value(sid, "rotations") for sid in (1, 2, 11, 12, 21, 22))
    assert (snap["workers_live"], snap["queue_depth"],
            snap["executor_utilization"]) == (2, 6, 1.5)
    assert fleet.render() == FLEET_RENDER


# ----------------------------------------------------- closed-session cap

def test_old_closed_sessions_fold_into_exact_totals(monkeypatch):
    monkeypatch.setattr(metrics_module, "MAX_CLOSED_SESSIONS", 3)
    runtime = RuntimeMetrics()
    live = runtime.open_session(1)          # never closes: never folded
    live.requests = 5
    for sid in range(2, 12):
        m = runtime.open_session(sid)
        for i, name in enumerate(SUMMED_COUNTERS):
            setattr(m, name, sid * 100 + i)
        m.observe_latency(0.001)
        runtime.close_session(sid)
    assert sorted(runtime.sessions) == [1, 9, 10, 11]
    assert runtime.get(2) is None
    snap = runtime.snapshot()
    assert sorted(snap["sessions"]) == [1, 9, 10, 11]
    assert snap["sessions_opened"] == 11
    for i, name in enumerate(SUMMED_COUNTERS):
        want = sum(sid * 100 + i for sid in range(2, 12))
        assert snap[name] == want + (5 if name == "requests" else 0), name


def test_server_closes_sessions_into_the_cap(bfv_params, bfv, monkeypatch):
    """A served session that said BYE is closed in the metrics; with the
    cap at one the older of two drops out of ``sessions`` but not out of
    the totals."""
    monkeypatch.setattr(metrics_module, "MAX_CLOSED_SESSIONS", 1)

    async def main():
        server = OffloadServer(bfv_params)
        try:
            for _ in range(2):
                client_end, server_end = SimulatedLink.pair()
                serve_task = asyncio.ensure_future(
                    server.serve_transport(server_end))
                client = await OffloadClient(
                    bfv_params, transport=client_end).connect()
                await client.request("echo", [bfv.encrypt([1])])
                await client.close()
                await serve_task
            return server.metrics.snapshot()
        finally:
            await server.stop()

    snap = asyncio.run(main())
    assert sorted(snap["sessions"]) == [2]
    assert snap["sessions_opened"] == 2
    assert snap["handler_invocations"] == snap["responses"] == 2
