"""One chaos soak of the offload runtime, in one process or through a fleet.

N concurrent sessions run one counting workload over loopback TCP, every
connection a seeded ``FaultyTransport`` (an empty ``FaultPlan`` injects
nothing), against one in-process ``OffloadServer`` (``workers == 0``) or a
``FleetServer`` whose worker 0 is killed, between requests, once a third of
the requests are done.  Both end states get one :func:`audit`: every
request's ``uid`` exactly once in the per-process execution logs (they
outlive a killed worker, its counters do not), and every client's ledger
byte-identical to a fault-free run over a ``SimulatedLink``.  Each session
also checks its results, ``n == seq + 1`` until it fails over, and leaked
futures; one process also checks resumes never re-upload keys and no
session or worker task outlives its client; a fleet, that the killed
worker restarted and some client failed over.
"""

import asyncio
import contextlib
import itertools
import os
import shutil
import tempfile
import time
from collections import Counter
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.core.protocol import CostLedger
from repro.hecore.bfv import BfvContext
from repro.hecore.params import (EncryptionParameters, SchemeType,
                                 small_test_parameters)
from repro.runtime import (FaultPlan, FaultyTransport, FleetServer,
                           OffloadClient, OffloadServer, SimulatedLink,
                           TcpTransport)

#: The counting op, and the server options of both topologies.
OP = "chaos/count"
SERVER = dict(queue_limit=16, concurrency=4, resume_grace_s=10.0,
              dedupe_window=128)


def count(_ctx, state, meta, cts):
    """Stateful echo: each execution bumps ``state["n"]``.  A request that
    names a ``log`` directory also appends its ``uid`` to this process's
    execution log, one file per pid so worker generations never share."""
    if "log" in meta:
        path = os.path.join(meta["log"], f"exec-{os.getpid()}.log")
        with open(path, "a", encoding="ascii") as fh:
            fh.write(f"{meta['uid']}\n")
    state["n"] = state.get("n", 0) + 1
    return cts, {"n": state["n"], "seq": meta.get("seq")}


def install(registry) -> None:
    """Served-op installer (``_soak:install``) for fleet workers."""
    registry[OP] = count


@dataclass
class SoakReport:
    """End-state audit of one soak run."""

    n_sessions: int
    n_requests: int
    seed: int
    workers: int = 0
    elapsed_s: float = 0.0
    logical_requests: int = 0
    handler_invocations: int = 0
    duplicates_suppressed: int = 0
    results_replayed: int = 0
    resumes: int = 0
    reaped: int = 0
    retries: int = 0
    failovers: int = 0
    key_reuploads: int = 0
    worker_restarts: int = 0
    fault_counts: Dict[str, int] = field(default_factory=dict)
    bytes_up: int = 0
    bytes_down: int = 0
    oracle_bytes_up: int = 0
    oracle_bytes_down: int = 0
    key_uploads: int = 0
    leaked_futures: int = 0
    leaked_workers: int = 0
    leaked_sessions: int = 0
    per_worker: List[Dict] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def as_dict(self) -> Dict:
        """Every field; the three leak counts nested under ``"leaks"``."""
        out = {"ok": self.ok, **asdict(self)}
        out["elapsed_s"] = round(self.elapsed_s, 3)
        out["leaks"] = {kind: out.pop(f"leaked_{kind}")
                        for kind in ("futures", "workers", "sessions")}
        return out

    def render(self) -> str:
        lines = [
            f"chaos soak [{'PASS' if self.ok else 'FAIL'}] seed={self.seed}: "
            f"{self.n_sessions} session(s) x {self.n_requests} request(s) "
            f"in {self.elapsed_s:.2f}s",
            f"  exactly-once: {self.handler_invocations} handler run(s) for "
            f"{self.logical_requests} logical request(s); "
            f"{self.duplicates_suppressed} duplicate(s) suppressed, "
            f"{self.results_replayed} result(s) replayed, "
            f"{self.retries} client retries",
            f"  resumption: {self.resumes} resume(s), {self.reaped} "
            f"reaped, {self.key_uploads} key upload(s)",
            "  faults injected: " + (", ".join(
                f"{k}={v}" for k, v in sorted(self.fault_counts.items()))
                or "none"),
            f"  ledger: {self.bytes_up}B up / {self.bytes_down}B down "
            f"(oracle {self.oracle_bytes_up}B / {self.oracle_bytes_down}B)",
            f"  leaks: {self.leaked_futures} future(s), "
            f"{self.leaked_workers} worker(s), "
            f"{self.leaked_sessions} session(s)",
        ]
        if self.workers:
            lines.append(
                f"  fleet: {self.workers} worker(s), {self.worker_restarts} "
                f"restart(s), {self.failovers} failover(s), "
                f"{self.key_reuploads} key re-upload(s)")
            lines.extend(
                f"    worker {w.get('worker', '?')}"
                f"{' (retired)' if w.get('retired') else ''}: "
                f"{w.get('metrics', {}).get('handler_invocations', 0)} "
                f"execution(s), {w.get('sessions', 0)} session(s)"
                for w in self.per_worker)
        lines.extend(f"  FAILURE: {f}" for f in self.failures)
        return "\n".join(lines)


def audit(report: SoakReport, log_dir: str, ledgers: List[CostLedger],
          oracle: CostLedger) -> None:
    """File the violated invariants every soak shares: each logical ``uid``
    run exactly once by the execution logs under *log_dir*, and session
    *i*'s ledger ``ledgers[i]`` equal to the fault-free *oracle*."""
    runs = Counter(uid for path in sorted(Path(log_dir).glob("exec-*"))
                   for uid in path.read_text("ascii").split())
    expected = {f"s{i}q{seq}" for i in range(report.n_sessions)
                for seq in range(report.n_requests)}
    report.logical_requests = len(expected)
    report.handler_invocations = sum(runs.values())
    for uids, what in ((expected - runs.keys(), "never executed"),
                       ({u for u, n in runs.items() if n > 1},
                        "executed more than once"),
                       (runs.keys() - expected, "not in the workload")):
        if uids:
            report.failures.append(
                f"exactly-once violated: {len(uids)} request(s) {what} "
                f"(e.g. {sorted(uids)[:3]})")
    want = (oracle.bytes_up, oracle.bytes_down, oracle.rounds)
    report.oracle_bytes_up, report.oracle_bytes_down = want[:2]
    report.bytes_up = sum(ledger.bytes_up for ledger in ledgers)
    report.bytes_down = sum(ledger.bytes_down for ledger in ledgers)
    for i, ledger in enumerate(ledgers):
        got = (ledger.bytes_up, ledger.bytes_down, ledger.rounds)
        if got != want:
            report.failures.append(
                "session {}: ledger {}B up / {}B down / {} round(s) != "
                "oracle {}B / {}B / {} (recovery was not transfer-free)"
                .format(i, *got, *want))


async def oracle_ledger(params: EncryptionParameters,
                        n_requests: int) -> CostLedger:
    """One session of the soak workload over a fault-free ``SimulatedLink``;
    its ledger is the one every soak session must match."""
    server = OffloadServer(params, resume_grace_s=0)
    server.register_op(OP, count)
    client_end, server_end = SimulatedLink.pair()
    serving = asyncio.ensure_future(server.serve_transport(server_end))
    client = await OffloadClient(params, transport=client_end).connect()
    ctx = BfvContext(params, seed=8999)
    await client.upload_keys(galois=ctx.make_galois_keys([1]))
    for seq in range(n_requests):
        await client.request(OP, [ctx.encrypt_symmetric([seq + 1, 0])],
                             {"seq": seq})
    await client.close()
    await server.stop()
    serving.cancel()
    return client.ledger


async def soak(params: Optional[EncryptionParameters] = None, *,
               workers: int = 0, n_sessions: int = 8, n_requests: int = 6,
               seed: int = 2026, plan: FaultPlan = FaultPlan(),
               ) -> SoakReport:
    """Run the soak and audit its end state into a :class:`SoakReport`
    (``failures`` lists every violated invariant).  Each connection's fault
    schedule is a pure function of *seed* and frame index."""
    if params is None:
        params = small_test_parameters(SchemeType.BFV, poly_degree=1024,
                                       plain_bits=16, data_bits=(30, 30))
    report = SoakReport(n_sessions, n_requests, seed, workers=workers)
    started = time.monotonic()
    log_dir = tempfile.mkdtemp(prefix="choco-soak-")
    if workers:
        server = FleetServer(params, workers,
                             pooled_installers=(f"{__name__}:install",),
                             **SERVER)
    else:
        server = OffloadServer(params, **SERVER)
        server.register_op(OP, count)
    host, port = await server.start()
    # Loopback faults heal in milliseconds; a killed worker must respawn.
    timeout_s = 2.0 if workers else 0.25
    clients: List[OffloadClient] = []
    transports: List[FaultyTransport] = []
    completed = 0
    # Sessions hold their last request until the killed worker is back, so
    # its sessions always have traffic left to fail over with.
    replaced = asyncio.Event()

    async def kill_one_worker() -> None:
        try:
            if workers:
                while completed < max(1, n_sessions * n_requests // 3):
                    await asyncio.sleep(0.01)
                # Poll first: the dying generation's work joins the totals.
                await server.refresh_metrics()
                generation = await server.kill_worker(0)
                await server.wait_worker_restart(0, generation)
        finally:
            replaced.set()

    async def one_session(i: int) -> None:
        nonlocal completed
        ctx = BfvContext(params, seed=9000 + i)
        opened: List[FaultyTransport] = []
        conns = itertools.count(1)

        async def factory() -> FaultyTransport:
            n = next(conns)
            inner = await TcpTransport.connect(host, port, retries=8,
                                               backoff_s=0.02)
            opened.append(FaultyTransport(  # connection 1 provisions clean
                inner, plan, seed=f"{seed}:session{i}:conn{n}", armed=n > 1))
            transports.append(opened[-1])
            return opened[-1]

        client = OffloadClient(params, host, port, transport_factory=factory,
                               request_timeout=timeout_s, max_retries=60,
                               backoff_s=0.02, failover=bool(workers))
        clients.append(client)
        await client.connect()
        await client.upload_keys(galois=ctx.make_galois_keys([1]))
        opened[0].armed = True  # provisioning done: go hostile
        try:
            for seq in range(n_requests):
                if seq == n_requests - 1:
                    await asyncio.wait_for(replaced.wait(), timeout=60.0)
                vec = [seq + 1, 0]
                out, meta = await client.request(
                    OP, [ctx.encrypt_symmetric(vec)],
                    {"seq": seq, "uid": f"s{i}q{seq}", "log": log_dir})
                if len(out) != 1 or list(ctx.decrypt(out[0])[:2]) != vec:
                    report.failures.append(
                        f"session {i}: request {seq} returned a wrong result")
                # A failover opens a fresh session, with fresh state.
                if not client.stats.failovers and meta.get("n") != seq + 1:
                    report.failures.append(
                        f"session {i}: request {seq} saw n={meta.get('n')}"
                        f" (duplicate or lost execution)")
                completed += 1
        finally:
            for faulty in opened:
                faulty.armed = False  # clean goodbye
            # A link severed after the final result: reattach once so the
            # BYE lands, instead of the session lingering until reaped.
            if client._conn_error is not None:
                with contextlib.suppress(Exception):
                    await client.resume()
            if client._pending:
                report.failures.append(
                    f"session {i}: {len(client._pending)} leaked pending "
                    f"future(s)")
                report.leaked_futures += len(client._pending)
            await client.close()

    try:
        killer = asyncio.ensure_future(kill_one_worker())
        results = await asyncio.gather(
            *(one_session(i) for i in range(n_sessions)),
            return_exceptions=True)
        report.failures.extend(
            f"session {i} crashed: {res!r}" for i, res in enumerate(results)
            if isinstance(res, BaseException))
        if report.failures:
            killer.cancel()
        done, _ = await asyncio.wait({killer}, timeout=60.0)
        if not done or (not killer.cancelled() and killer.exception()):
            killer.cancel()
            report.failures.append(
                f"worker kill/restart never completed: {killer!r}")

        if workers:
            fleet_snap = await server.refresh_metrics()
            report.per_worker = fleet_snap["per_worker"]
            report.worker_restarts = server.metrics.worker_restarts
            snaps = [w.get("metrics", {}) for w in report.per_worker]
        else:
            snaps = [server.metrics.snapshot()]
        for stat, key in (("duplicates_suppressed", "duplicates_suppressed"),
                          ("results_replayed", "results_replayed"),
                          ("resumes", "sessions_resumed"),
                          ("reaped", "sessions_reaped")):
            setattr(report, stat, sum(s.get(key, 0) for s in snaps))
        report.key_uploads = sum(m["key_uploads"] for s in snaps
                                 for m in s.get("sessions", {}).values())
        for stat in ("retries", "failovers", "key_reuploads"):
            setattr(report, stat, sum(getattr(c.stats, stat) for c in clients))
        audit(report, log_dir, [c.ledger for c in clients],
              await oracle_ledger(params, n_requests))

        if not workers:
            if report.key_uploads != n_sessions:
                report.failures.append(
                    f"{report.key_uploads} key upload(s) for {n_sessions} "
                    f"session(s): resume re-provisioned keys")
            deadline = time.monotonic() + 2.0
            while (server._sessions or server._worker_tasks) \
                    and time.monotonic() < deadline:
                await asyncio.sleep(0.02)
            report.leaked_sessions = len(server._sessions)
            report.leaked_workers = len(server._worker_tasks)
            for n, what in ((report.leaked_sessions, "session(s) still "
                             "registered after all clients said BYE"),
                            (report.leaked_workers, "worker task(s) alive")):
                if n:
                    report.failures.append(f"{n} {what}")
        elif not report.failures:
            for n, what in ((report.worker_restarts, "worker restart"),
                            (report.failovers, "client failover")):
                if n < 1:
                    report.failures.append(f"no {what} after a worker kill")
    finally:
        await server.stop()
        shutil.rmtree(log_dir, ignore_errors=True)
    report.fault_counts = dict(Counter(
        event.kind for faulty in transports for event in faulty.events))
    report.elapsed_s = time.monotonic() - started
    return report
