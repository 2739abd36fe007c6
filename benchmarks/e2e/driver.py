"""Runs one workload: set-up, the measured closed loop, the traced pass.

``run_workload`` returns one JSON-friendly record holding the end-to-end
metrics (always from the untraced measured phase) and, for a traced run, the
per-layer metrics.  ``run.py`` is the command line around it.

The timed end-to-end metrics are reported at a reference host speed: beside
the workload, and only while every session is idle, the run times a fixed
piece of numpy work (``HostProbe``) and scales its times by how fast the host
ran that (README, *Steadiness*).  The times as measured stay in the record.
"""

import asyncio
import os
import platform
import statistics
import subprocess
import time
from collections import Counter, namedtuple
from contextlib import AsyncExitStack, asynccontextmanager
from pathlib import Path

import numpy

from benchmarks.e2e import layers, workloads
from benchmarks.e2e.hostprobe import HostProbe
from benchmarks.e2e.tracing import Tracer
from repro.runtime import FrameError, OffloadClient, OffloadError, percentile

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: The measured phase pauses this often, once every session has its reply,
#: for one burst of the host probe.
BLOCK_SECONDS = 2.0
#: The traced pass alternates this many rounds of a traced then a plain block
#: of queries per session (one cold session per block, at ~2 s each).
TRACED_ROUNDS, TRACED_BLOCK = 2, 4
#: Traced queries replayed in-process, layer by layer.
REPLAYED_QUERIES = 4
ECHO_REPEATS = 5
#: One session alone, for this long, behind ``runtime.contention_ratio``.
SOLO_SECONDS = 2.0

Sample = namedtuple("Sample", "query_id session ms active_ms ok error root")


@asynccontextmanager
async def serving(workload):
    """A started fleet, stopped on the way out whatever happened: a client
    exception otherwise leaves the forked workers alive and the process
    hung (README, finding 2)."""
    fleet = workload.make_fleet()
    try:
        host, port = await fleet.start()
        yield fleet, host, port
    finally:
        await fleet.stop()


async def one_query(workload, session, tracer, query_id):
    """One verified query; an error, timeout or refusal is a failed sample."""
    ok, error = False, None
    with tracer.span("query", query_id=query_id) as root:
        try:
            ok = await workload.query(session, tracer, root)
        except (OffloadError, FrameError, OSError,
                asyncio.TimeoutError) as exc:
            error = f"{type(exc).__name__}: {exc}"
    return Sample(query_id, session, root.ms, root.ms - 1e3 * root.awaited,
                  ok, error, root)


async def set_up(workload, tracer, stack):
    """Fleet start, context + keygen, connect, key upload, provisioning and
    one verified warm query per session.  Returns what it built and how long
    that took; *stack* owns the teardown."""
    start = time.perf_counter()
    with tracer.span("setup", query_id="setup"):
        fleet, host, port = await stack.enter_async_context(serving(workload))
        sessions = []
        for idx in range(workload.n_sessions):
            session = await workload.open(host, port, idx, tracer)
            stack.push_async_callback(workload.close, session)
            sessions.append(session)
        for session in sessions:
            warm = await one_query(workload, session, tracer, "setup")
            if not warm.ok:
                raise RuntimeError(
                    f"warm-up query failed: {warm.error or 'wrong answer'}")
    return fleet, host, port, sessions, time.perf_counter() - start


async def closed_loop(workload, sessions, tracer, tag, seconds=None,
                      count=None):
    """Every session sends its next query when its previous one completed,
    for *seconds* or for *count* queries each."""
    samples = []
    start = time.perf_counter()

    async def drive(session):
        n = 0
        while (n < count if count is not None
               else time.perf_counter() - start < seconds):
            samples.append(await one_query(
                workload, session, tracer, f"{tag}-{session.idx}-{n}"))
            n += 1

    await asyncio.gather(*(drive(s) for s in sessions))
    return samples, time.perf_counter() - start


async def measured_phase(workload, sessions, tracer, seconds, probe):
    """The untraced closed loop, *seconds* long, in blocks of BLOCK_SECONDS
    with one burst of the host probe between blocks, when every session is
    idle.  Returns (samples, seconds the loop ran, host speed over them)."""
    samples, busy_s, bursts = [], 0.0, [probe.burst()]
    start = time.perf_counter()
    while (left := seconds - (time.perf_counter() - start)) > 0:
        block, wall_s = await closed_loop(
            workload, sessions, tracer, f"measured{len(bursts)}",
            seconds=min(BLOCK_SECONDS, left))
        samples += block
        busy_s += wall_s
        bursts.append(probe.burst())
    return samples, busy_s, probe.speed(bursts)


async def worker_totals(fleet):
    """(summed worker counters, fleet snapshot) through the public
    ``refresh_metrics``; retired worker generations stay in the sums."""
    snap = await fleet.refresh_metrics()
    totals = Counter()
    for worker in snap["per_worker"]:
        for key, value in worker.get("metrics", {}).items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                totals[key] += value
    return totals, snap


async def echo_rtt(workload, host, port, cts):
    """Median round trip of the built-in ``echo`` op carrying *cts*: the
    served path at zero compute."""
    client = await OffloadClient(workload.params, host, port).connect()
    try:
        await client.request("echo", cts, account=False)
        samples = []
        for _ in range(ECHO_REPEATS):
            start = time.perf_counter()
            await client.request("echo", cts, account=False)
            samples.append(time.perf_counter() - start)
    finally:
        await client.close()
    return statistics.median(samples)


# ---------------------------------------------------------------- metrics
def p50(samples, field="ms"):
    return statistics.median(getattr(s, field) for s in samples)


def end_to_end(samples, wall_s, speed, before, after, setups):
    """(metrics, the timed ones as measured).  *speed* is the host's over the
    measured phase; *setups* are (seconds, host speed) pairs.  A time taken
    at speed 0.8 would have been 0.8 as long on the reference host."""
    good = [s for s in samples if s.ok]
    if not good:
        raise RuntimeError("no query succeeded; first error: "
                           f"{samples[0].error if samples else 'none ran'}")
    raw = {
        "query_p50_ms": p50(good),
        "queries_per_s": len(good) / wall_s,
        "client_active_p50_ms": p50(good, "active_ms"),
        "setup_s": statistics.median(s for s, _ in setups),
    }
    return {
        "query_p50_ms": raw["query_p50_ms"] * speed,
        "queries_per_s": raw["queries_per_s"] / speed,
        "client_active_p50_ms": raw["client_active_p50_ms"] * speed,
        "bytes_up_per_query":
            (after["bytes_up"] - before["bytes_up"]) / len(samples),
        "bytes_down_per_query":
            (after["bytes_down"] - before["bytes_down"]) / len(samples),
        "setup_s": statistics.median(s * v for s, v in setups),
    }, raw


def tail_ms(samples, fraction):
    """A percentile only where at least ten samples lie beyond it; else 0."""
    values = [s.ms for s in samples]
    if len(values) * (1.0 - fraction) < 10:
        return 0.0
    return percentile(values, fraction)


def replay(workload, tracer, session, roots, derived):
    """Replay the traced queries *roots* on the worker's evaluator, rebuilt
    in-process from the session's keys (every cold session has its own)."""
    ctx, replays, key_costs = None, [], []
    for root in roots:
        if ctx is None or workload.cold_sessions:
            ctx, costs = layers.server_evaluator(
                workload.params, *(root.payload or session.keys))
            key_costs.append(costs)
            state, warmed = workload.server_state(ctx, session), set()
        replays.append(layers.replay_query(tracer, workload, ctx, state,
                                           warmed, root, derived))
    return ctx, replays, key_costs


async def traced_pass(workload, fleet, host, port, sessions, tracer,
                      untraced, quick):
    """The per-layer metrics: a short traced run, an echo of its uploads and
    an in-process replay of its median-most queries through every layer."""
    med = statistics.median
    untraced = [s for s in untraced if s.ok]
    session = sessions[0]
    solo = untraced
    if workload.n_sessions > 1:
        solo, _ = await closed_loop(workload, sessions[:1], tracer, "solo",
                                    seconds=0.2 if quick else SOLO_SECONDS)

    # Traced and plain blocks alternate, so that drift between them cancels
    # in trace.overhead_share.
    rounds = 1 if quick else TRACED_ROUNDS
    per_block = 1 if quick or workload.cold_sessions else TRACED_BLOCK
    traced, plain = [], []
    before, _ = await worker_totals(fleet)
    for block in range(2 * rounds):
        tracer.record = block % 2 == 0
        tag = f"{'traced' if tracer.record else 'plain'}{block}"
        samples, _ = await closed_loop(workload, sessions, tracer, tag,
                                       count=per_block)
        (traced if tracer.record else plain).extend(samples)
    tracer.record = False
    after, snap = await worker_totals(fleet)
    failures = [s.error or "wrong answer" for s in traced + plain if not s.ok]
    if failures:
        raise RuntimeError(f"a query of the traced pass failed: {failures}")
    ids = [s.query_id for s in traced]
    per_query = {k: (after[k] - before[k]) / len(traced + plain)
                 for k in after}

    # The server reports a nearest-rank p50 per session; the client side is
    # the same estimator over the same requests (a cold session holds two).
    requests_ms = {}
    for name, query_id, ms in tracer.awaits:
        if name == "runtime.client.request":
            group = query_id if workload.cold_sessions else None
            requests_ms.setdefault(group, []).append(ms)
    request_ms = med(percentile(g, 0.5) for g in requests_ms.values())
    service_ms = med(s["latency_p50_ms"] for w in snap["per_worker"]
                     for s in w["metrics"]["sessions"].values()
                     if s["responses"])

    def request_p50(tag):
        return med(ms for name, query_id, ms in tracer.awaits
                   if name == "runtime.client.request"
                   and query_id.startswith(tag))

    derived = {
        "echo": {},
        "service": 1e-3 * service_ms if workload.pooled else 0.0,
        "contention": 1e-3 * (request_p50("measured") - request_p50("solo"))
        if workload.n_sessions > 1 else 0.0,
    }
    # The replay explains query_p50_ms, so it takes the traced queries of
    # one session that lie nearest that session's median.
    mine = [s for s in traced if s.session is session]
    centre = p50(mine)
    mine.sort(key=lambda s: abs(s.ms - centre))
    roots = [s.root for s in mine[:1 if quick else REPLAYED_QUERIES]]
    requests = layers.request_spans(tracer, roots[0])
    for span in requests:
        op, cts, _meta, _out = layers.request_parts(span)
        derived["echo"][op] = await echo_rtt(workload, host, port, cts)

    # In-process from here on; the fleet is idle.
    ctx, replays, key_costs = replay(workload, tracer, session, roots, derived)
    explained = roots + [s for r in roots
                         for s in layers.request_spans(tracer, r)]
    unattributed = (sum(tracer.self_seconds(s) for s in explained)
                    / sum(r.end - r.start for r in roots))
    execute_ms = 1e3 * med(r["execute"] for r in replays)
    compile_ms = 1e3 * (med(r["compile"] for r in replays)
                        if workload.cold_sessions else replays[0]["compile"])

    op, cts, meta, _out = layers.request_parts(requests[0])
    server_ct = layers.up_costs(workload.params, op, meta, cts)[0][0]
    steps = workload.rotation_steps(ctx)
    rotate = getattr(ctx, "rotate_rows", None) or ctx.rotate
    rotations = per_query["rotations"]
    decomposes = (per_query["hoisted_decomposes"]
                  + per_query["naive_decomposes"])
    row_us = layers.ntt_row_us(workload.params)
    ntt_rows = per_query["ntt_forward"] + per_query["ntt_inverse"]

    # Keygen, connect and key upload happen once per cold-session query, or
    # once per session in the set-up of a long-lived one.
    unit_ids = ids if workload.cold_sessions else ["setup"]
    units = len(ids) if workload.cold_sessions else workload.n_sessions

    def per_unit(name):
        return sum(tracer.per_query_ms(name, unit_ids)) / units

    stats = workload.client_stats(sessions)
    metrics = {
        "apps.pack_ms": med(tracer.per_query_ms("apps.pack", ids)),
        "apps.decode_ms": med(tracer.per_query_ms("apps.decode", ids)),
        "hecore.encrypt_ms": med(tracer.per_query_ms("hecore.encrypt", ids)),
        "hecore.encrypt_cts":
            med(tracer.per_query_count("hecore.encrypt", ids)),
        "hecore.decrypt_ms": med(tracer.per_query_ms("hecore.decrypt", ids)),
        "hecore.decrypt_cts":
            med(tracer.per_query_count("hecore.decrypt", ids)),
        "hecore.keygen_ms": per_unit("hecore.keygen"),
        "runtime.client.connect_ms": per_unit("runtime.client.connect"),
        "runtime.client.upload_keys_ms":
            per_unit("runtime.client.upload_keys"),
        **{k: med(c[k] for c in key_costs) for k in key_costs[0]},
        "hecore.serialize.ct_ms": 1e3 * med(r["serialize"] for r in replays),
        "runtime.framing.codec_ms": 1e3 * med(r["codec"] for r in replays),
        "runtime.echo_rtt_ms": 1e3 * sum(derived["echo"].values()),
        "core.ir.compile_ms": compile_ms,
        "core.ir.execute_ms": execute_ms,
        "core.levelplan.limb_drops": per_query["limb_drops"],
        "core.levelplan.limbs_live": per_query["limbs_live"],
        "core.ir.ntt_elided_rows": per_query["ntt_elided"],
        "hecore.rotations": rotations,
        "hecore.hoisting.hoisted_decomposes": per_query["hoisted_decomposes"],
        "hecore.hoisting.naive_decomposes": per_query["naive_decomposes"],
        "hecore.hoisting.decomposes_per_rotation":
            decomposes / rotations if rotations else 0.0,
        "hecore.ntt.forward_rows": per_query["ntt_forward"],
        "hecore.ntt.inverse_rows": per_query["ntt_inverse"],
        "hecore.ntt.row_us": row_us,
        "hecore.ntt.share_of_execute": ntt_rows * row_us * 1e-3 / execute_ms,
        "hecore.rotate_ms": layers.single_op_ms(
            lambda: rotate(server_ct, min(steps, key=abs)))
            if rotations else 0.0,
        "hecore.multiply_ms": layers.single_op_ms(
            lambda: ctx.multiply(server_ct, server_ct))
            if ctx.counts["multiply"] else 0.0,
        "runtime.client.request_ms": request_ms,
        "runtime.server.service_ms": service_ms,
        "runtime.overhead_ms": request_ms - service_ms,
        "runtime.evalpool.overhead_ms":
            service_ms - execute_ms if workload.pooled else 0.0,
        "runtime.contention_ratio": p50(untraced) / p50(solo),
        "runtime.client.retries": stats["retries"],
        "runtime.client.timeouts": stats["timeouts"],
        "runtime.client.busy_waits": stats["busy_waits"],
        "runtime.server.errors": after["errors"],
        "runtime.fleet.worker_restarts": snap["worker_restarts"],
        **layers.modeled(workload.params, requests),
        "client.query_p90_ms": tail_ms(untraced, 0.90),
        "client.query_p99_ms": tail_ms(untraced, 0.99),
        "process.client_peak_rss_mb": layers.peak_rss_mb(os.getpid()),
        "process.server_peak_rss_mb": sum(
            layers.peak_rss_mb(w["pid"], with_children=True)
            for w in snap["per_worker"] if not w.get("retired")),
        "trace.unattributed_share": unattributed,
        "trace.overhead_share": (p50(traced) - p50(plain)) / p50(plain),
    }
    return metrics, len(traced)


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             cwd=HERE, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


async def run_workload(name, seed, seconds, trace, quick):
    started = time.perf_counter()
    workload = workloads.build(name, seed)
    tracer = Tracer(record=trace)
    probe = HostProbe()
    setups = []         # (seconds, host speed) of every set-up

    async def probed_set_up(stack):
        before = probe.speed()
        built = await set_up(workload, tracer, stack)
        setups.append((built[-1], (before + probe.speed()) / 2))
        return built

    for _ in range(0 if trace or quick else SETUP_REPEATS - 1):
        async with AsyncExitStack() as stack:
            await probed_set_up(stack)
    async with AsyncExitStack() as stack:
        fleet, host, port, sessions, _ = await probed_set_up(stack)
        tracer.record = False
        before, _ = await worker_totals(fleet)
        samples, wall_s, speed = await measured_phase(
            workload, sessions, tracer, seconds, probe)
        after, _ = await worker_totals(fleet)
        e2e, raw = end_to_end(samples, wall_s, speed, before, after, setups)
        per_layer, traced_n = None, 0
        if trace:
            per_layer, traced_n = await traced_pass(
                workload, fleet, host, port, sessions, tracer, samples, quick)
            per_layer.update({
                "host.probe_ms": 1e3 * probe.reference_s / speed,
                "host.speed": speed,
                "client.query_p50_raw_ms": raw["query_p50_ms"]})
    failed = sum(not s.ok for s in samples)
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "quick": quick, "commit": commit(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "usable_cores": layers.usable_cores(),
        "wall_s": time.perf_counter() - started,
        "samples": {"measured": len(samples), "setups": len(setups),
                    "traced": traced_n},
        "setups_s": [s for s, _ in setups],
        "setup_speeds": [v for _, v in setups],
        "host_speed": speed, "as_measured": raw,
        "attempted": len(samples), "failed": failed,
        "failed_share": failed / len(samples),
        "errors": sorted({s.error or "wrong answer"
                          for s in samples if not s.ok}),
        "end_to_end": e2e, "per_layer": per_layer,
    }
    if trace:
        tracer.dump(RESULTS / f"trace-{name}.json",
                    {k: record[k] for k in ("workload", "seed", "commit")})
    return record
