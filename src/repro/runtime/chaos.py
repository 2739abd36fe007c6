"""Chaos-transport fault injection for the offload runtime.

The paper's client is a battery-powered device on a real, lossy radio link
(§7); loopback TCP never drops, stalls, or reorders anything, so none of
the runtime's retry/resume machinery is exercised by the happy path.  This
module makes hostile networks reproducible:

* :class:`FaultyTransport` decorates any
  :class:`~repro.runtime.transport.Transport` with a **seeded,
  deterministic** schedule of frame delays, drops, corruptions,
  truncations, and mid-stream disconnects.  Every per-frame decision is a
  pure function of ``(seed, direction, frame index)`` — replaying a seed
  replays the exact failure sequence, independent of event-loop timing.
* :func:`chaos_soak` drives N concurrent client sessions through
  randomized fault schedules against a real :class:`OffloadServer` over
  loopback TCP and checks the end-state invariants the protocol promises:
  every logical request executed **exactly once** (server-side handler
  invocation counters), per-session ledger totals **byte-identical** to a
  fault-free oracle run, sessions resumed without re-uploading keys, and
  zero leaked futures, worker tasks, or sessions.

The PRNG is the repo's deterministic :class:`~repro.hecore.random.BlakePrng`
(BLAKE2b-derived), the same generator the HE samplers use.
"""

from __future__ import annotations

import asyncio
import os
import shutil
import tempfile
import time
from collections import Counter
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.core.protocol import CostLedger
from repro.hecore.bfv import BfvContext
from repro.hecore.params import (
    EncryptionParameters,
    SchemeType,
    small_test_parameters,
)
from repro.hecore.random import BlakePrng
from repro.runtime.client import OffloadClient
from repro.runtime.framing import MessageType, encode_frame
from repro.runtime.server import OffloadServer
from repro.runtime.transport import SimulatedLink, TcpTransport, Transport


@dataclass(frozen=True)
class FaultPlan:
    """Per-frame fault probabilities and shapes for a FaultyTransport.

    Probabilities are evaluated against one uniform draw per frame, in the
    order *disconnect, corrupt, truncate, drop, delay* — at most one fault
    fires per frame.  ``corrupt`` and ``truncate`` apply to the send path
    only (they need raw wire access); drop/delay/disconnect apply to both
    directions when ``recv_faults`` is set.
    """

    drop_p: float = 0.0
    delay_p: float = 0.0
    delay_range_s: Tuple[float, float] = (0.001, 0.02)
    corrupt_p: float = 0.0
    truncate_p: float = 0.0
    disconnect_p: float = 0.0
    recv_faults: bool = True
    #: Leave the first N frames of each direction untouched so handshakes
    #: (HELLO/RESUME and their acks) always complete.
    skip_first_frames: int = 2
    #: Scripted, deterministic send-side drops by frame index (for targeted
    #: regression tests that need exactly one specific frame to vanish).
    drop_send_frames: Tuple[int, ...] = ()


#: A mildly hostile link: mostly drops and delays, occasional corruption,
#: truncation, and disconnects.  Tuned so a soak with sub-second timeouts
#: converges in seconds while still exercising every failure path.
DEFAULT_PLAN = FaultPlan(
    drop_p=0.10, delay_p=0.15, delay_range_s=(0.001, 0.01),
    corrupt_p=0.02, truncate_p=0.02, disconnect_p=0.03,
)


@dataclass
class FaultEvent:
    """One injected fault, recorded for replayability audits."""

    kind: str        # drop | delay | corrupt | truncate | disconnect
    direction: str   # send | recv
    index: int       # per-direction frame index
    mtype: str       # frame type the fault hit
    detail: str = ""


class FaultyTransport(Transport):
    """Deterministic fault-injecting decorator over any transport.

    Frame *i* of each direction is assigned its fate by a BLAKE2b-derived
    draw on ``(seed, direction, i)`` — no shared PRNG state, so concurrent
    senders and reorderable event-loop timings cannot perturb the schedule.
    ``armed`` can be toggled to let provisioning phases (key uploads) run
    clean and then unleash faults on the steady state.
    """

    def __init__(self, inner: Transport, plan: FaultPlan = DEFAULT_PLAN, *,
                 seed: object = 0, armed: bool = True,
                 ledger: Optional[CostLedger] = None):
        super().__init__()
        self.inner = inner
        self.plan = plan
        self.armed = armed
        self.ledger = ledger
        self.events: List[FaultEvent] = []
        self._seed_material = repr(seed).encode()
        self._sent_i = 0
        self._recv_i = 0
        self._severed = False

    # ------------------------------------------------------------ decisions
    def _draws(self, direction: str, index: int) -> Tuple[float, float]:
        """The (selector, auxiliary) uniform draws for one frame."""
        prng = BlakePrng(self._seed_material
                         + f":{direction}:{index}".encode())
        raw = prng.random_bytes(14)
        unit = float(1 << 56)
        return (int.from_bytes(raw[:7], "little") / unit,
                int.from_bytes(raw[7:], "little") / unit)

    def _decide(self, direction: str, index: int,
                ) -> Tuple[Optional[str], float]:
        """Fault kind (or None) and the auxiliary draw for frame *index*."""
        plan = self.plan
        if direction == "send" and index in plan.drop_send_frames:
            return "drop", 0.0
        if index < plan.skip_first_frames:
            return None, 0.0
        u, aux = self._draws(direction, index)
        send = direction == "send"
        edges = [
            ("disconnect", plan.disconnect_p),
            ("corrupt", plan.corrupt_p if send else 0.0),
            ("truncate", plan.truncate_p if send else 0.0),
            ("drop", plan.drop_p),
            ("delay", plan.delay_p),
        ]
        lo = 0.0
        for kind, p in edges:
            if u < lo + p:
                return kind, aux
            lo += p
        return None, aux

    def _record(self, kind: str, direction: str, index: int,
                mtype: MessageType, detail: str = "") -> None:
        self.events.append(FaultEvent(kind, direction, index,
                                      mtype.name, detail))

    async def _delay_or_sever(self, fault: Optional[str], aux: float,
                              direction: str, index: int,
                              mtype: MessageType) -> None:
        """The faults both directions share: a drawn delay, or a cut."""
        if fault == "delay":
            lo, hi = self.plan.delay_range_s
            d = lo + aux * (hi - lo)
            self._record("delay", direction, index, mtype, f"{d * 1e3:.1f}ms")
            await asyncio.sleep(d)
        elif fault == "disconnect":
            self._record("disconnect", direction, index, mtype)
            await self.force_disconnect()
            raise ConnectionError("chaos: injected disconnect")

    async def force_disconnect(self) -> None:
        """Sever the connection now (how disconnect and truncate faults
        land, and the hook for targeted resume tests)."""
        self._severed = True
        await self.inner.close()

    # ------------------------------------------------------------ transport
    @property
    def peer_name(self) -> str:
        return f"chaos:{self.inner.peer_name}"

    async def send_frame(self, mtype: MessageType,
                         payload: bytes = b"") -> None:
        if self._severed:
            raise ConnectionError("chaos: transport severed")
        index = self._sent_i
        self._sent_i += 1
        fault, aux = self._decide("send", index) if self.armed else (None, 0.0)
        if fault == "drop":
            self._record("drop", "send", index, mtype)
            return
        if fault == "corrupt":
            frame = bytearray(encode_frame(mtype, payload))
            frame[0] ^= 0xFF  # garble the magic: always connection-fatal
            self._record("corrupt", "send", index, mtype)
            await self.inner.send_raw(bytes(frame))
            return
        if fault == "truncate":
            frame = encode_frame(mtype, payload)
            cut = 1 + int(aux * max(len(frame) - 1, 1))
            self._record("truncate", "send", index, mtype,
                         f"{cut}/{len(frame)}B")
            await self.inner.send_raw(frame[:cut])
            await self.force_disconnect()
            raise ConnectionError("chaos: frame truncated mid-stream")
        await self._delay_or_sever(fault, aux, "send", index, mtype)
        await self.inner.send_frame(mtype, payload)
        self.bytes_sent = self.inner.bytes_sent

    async def send_raw(self, data: bytes) -> None:
        await self.inner.send_raw(data)

    async def recv_frame(self) -> Tuple[MessageType, int, bytes]:
        while True:
            frame = await self.inner.recv_frame()
            if self._severed:
                raise ConnectionError("chaos: transport severed")
            self.bytes_received = self.inner.bytes_received
            if not self.armed or not self.plan.recv_faults:
                return frame
            index = self._recv_i
            self._recv_i += 1
            fault, aux = self._decide("recv", index)
            mtype = frame[0]
            if fault == "drop":
                self._record("drop", "recv", index, mtype)
                continue  # the frame evaporates in flight
            await self._delay_or_sever(fault, aux, "recv", index, mtype)
            return frame

    async def close(self) -> None:
        await self.inner.close()

    # ---------------------------------------------------------- accounting
    def account_upload(self, logical_bytes: int) -> None:
        if self.ledger is not None:
            self.ledger.charge_upload(logical_bytes)
        self.inner.account_upload(logical_bytes)

    def account_download(self, logical_bytes: int) -> None:
        if self.ledger is not None:
            self.ledger.charge_download(logical_bytes)
        self.inner.account_download(logical_bytes)

    def fault_counts(self) -> Dict[str, int]:
        return dict(Counter(event.kind for event in self.events))


# ---------------------------------------------------------------------------
# The soak driver
# ---------------------------------------------------------------------------

@dataclass
class SoakReport:
    """End-state audit of one chaos soak run."""

    n_sessions: int
    n_requests: int
    seed: int
    elapsed_s: float = 0.0
    logical_requests: int = 0
    handler_invocations: int = 0
    duplicates_suppressed: int = 0
    results_replayed: int = 0
    resumes: int = 0
    reaped: int = 0
    retries: int = 0
    fault_counts: Dict[str, int] = field(default_factory=dict)
    bytes_up: int = 0
    bytes_down: int = 0
    oracle_bytes_up: int = 0
    oracle_bytes_down: int = 0
    key_uploads: int = 0
    leaked_futures: int = 0
    leaked_workers: int = 0
    leaked_sessions: int = 0
    # Fleet-soak extensions (zero for the single-process soak).
    n_workers: int = 1
    failovers: int = 0
    key_reuploads: int = 0
    worker_restarts: int = 0
    admission_rejections: int = 0
    per_worker: List[Dict] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def as_dict(self) -> Dict:
        """Machine-readable form (consumed by the fleet bench gate): every
        field, with the three leak counts nested under ``"leaks"``."""
        out = {"ok": self.ok, **asdict(self)}
        out["elapsed_s"] = round(self.elapsed_s, 3)
        out["leaks"] = {kind: out.pop(f"leaked_{kind}")
                        for kind in ("futures", "workers", "sessions")}
        return out

    def render(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        lines = [
            f"chaos soak [{status}] seed={self.seed}: "
            f"{self.n_sessions} session(s) x {self.n_requests} request(s) "
            f"in {self.elapsed_s:.2f}s",
            f"  exactly-once: {self.handler_invocations} handler run(s) for "
            f"{self.logical_requests} logical request(s); "
            f"{self.duplicates_suppressed} duplicate(s) suppressed, "
            f"{self.results_replayed} result(s) replayed, "
            f"{self.retries} client retries",
            f"  resumption: {self.resumes} resume(s), {self.reaped} "
            f"reaped, {self.key_uploads} key upload(s)",
            f"  faults injected: " + (", ".join(
                f"{k}={v}" for k, v in sorted(self.fault_counts.items()))
                or "none"),
            f"  ledger: {self.bytes_up}B up / {self.bytes_down}B down "
            f"(oracle {self.oracle_bytes_up}B / {self.oracle_bytes_down}B)",
            f"  leaks: {self.leaked_futures} future(s), "
            f"{self.leaked_workers} worker(s), "
            f"{self.leaked_sessions} session(s)",
        ]
        if self.n_workers > 1 or self.worker_restarts:
            lines.append(
                f"  fleet: {self.n_workers} worker(s), "
                f"{self.worker_restarts} restart(s), "
                f"{self.failovers} failover(s), "
                f"{self.key_reuploads} key re-upload(s), "
                f"{self.admission_rejections} admission rejection(s)")
            for w in self.per_worker:
                m = w.get("metrics", {})
                lines.append(
                    f"    worker {w.get('worker', '?')}"
                    f"{' (retired)' if w.get('retired') else ''}: "
                    f"{m.get('handler_invocations', 0)} execution(s), "
                    f"{m.get('responses', 0)} response(s), "
                    f"{w.get('sessions', 0)} session(s)")
        lines.extend(f"  FAILURE: {f}" for f in self.failures)
        return "\n".join(lines)


def _counting_echo(session, request):
    """Stateful echo: exactly-once execution is visible in session.state."""
    session.state["n"] = session.state.get("n", 0) + 1
    return list(request.cts), {"n": session.state["n"],
                               "seq": request.meta.get("seq")}


async def _counted_request(client: OffloadClient, ctx: BfvContext, seq: int,
                           who: str, failures: List[str], **meta) -> Dict:
    """Request *seq* of the soaks' one workload shape — echo ``[seq + 1,
    0]`` through the counting handler — with the echo checked."""
    vec = [seq + 1, 0]
    out, result_meta = await client.request(
        "chaos/count", [ctx.encrypt_symmetric(vec)], {"seq": seq, **meta})
    if len(out) != 1 or list(ctx.decrypt(out[0])[:2]) != vec:
        failures.append(f"{who}: request {seq} returned a wrong result")
    return result_meta


async def _oracle_session(params: EncryptionParameters,
                          n_requests: int) -> CostLedger:
    """A fault-free run of the soak workload over a SimulatedLink; its
    ledger is the byte-exact target every chaotic session must match."""
    ctx = BfvContext(params, seed=8999)
    ledger = CostLedger()
    client_end, server_end = SimulatedLink.pair(ledger=ledger)
    server = OffloadServer(params, concurrency=1, resume_grace_s=0)
    server.register("chaos/count", _counting_echo)
    serve_task = asyncio.ensure_future(server.serve_transport(server_end))
    client = await OffloadClient(params, transport=client_end).connect()
    await client.upload_keys(galois=ctx.make_galois_keys([1]))
    for seq in range(n_requests):
        await _counted_request(client, ctx, seq, "oracle", [])
    await client.close()
    await server.stop()
    serve_task.cancel()
    return ledger


async def _run_sessions(report: SoakReport, one_session) -> None:
    """Drive every session to completion.  Sessions file the invariants they
    see violated in ``report.failures`` themselves; a crash is one more."""
    results = await asyncio.gather(
        *(one_session(i) for i in range(report.n_sessions)),
        return_exceptions=True)
    report.failures.extend(
        f"session {i} crashed: {res!r}" for i, res in enumerate(results)
        if isinstance(res, BaseException))


async def _audit_clients(report: SoakReport, params: EncryptionParameters,
                         clients: List[OffloadClient],
                         ledgers: List[CostLedger], reason: str) -> None:
    """The client side of a soak's end state: what recovery cost in retries,
    failovers and key re-uploads, and that it cost no transfer — every
    session's ledger byte-identical to a fault-free single-process oracle
    run of the same workload; *reason* says what a mismatch means here."""
    for stat in ("retries", "failovers", "key_reuploads"):
        setattr(report, stat, sum(getattr(c.stats, stat) for c in clients))
    oracle = await _oracle_session(params, report.n_requests)
    report.oracle_bytes_up = oracle.bytes_up
    report.oracle_bytes_down = oracle.bytes_down
    for i, ledger in enumerate(ledgers):
        if (ledger.bytes_up != oracle.bytes_up
                or ledger.bytes_down != oracle.bytes_down
                or ledger.rounds != oracle.rounds):
            report.failures.append(
                f"session {i}: ledger {ledger.bytes_up}B up / "
                f"{ledger.bytes_down}B down / {ledger.rounds} round(s) "
                f"!= oracle {oracle.bytes_up}B / {oracle.bytes_down}B / "
                f"{oracle.rounds} ({reason})")
    report.bytes_up = sum(ledger.bytes_up for ledger in ledgers)
    report.bytes_down = sum(ledger.bytes_down for ledger in ledgers)


async def chaos_soak(params: Optional[EncryptionParameters] = None, *,
                     n_sessions: int = 8, n_requests: int = 6,
                     seed: int = 2026, plan: FaultPlan = DEFAULT_PLAN,
                     concurrency: int = 4, request_timeout: float = 0.25,
                     max_retries: int = 60, resume_grace_s: float = 5.0,
                     ) -> SoakReport:
    """Run N concurrent sessions through seeded fault schedules and audit
    the end state.  Deterministic in its *decisions* for a given seed (the
    fault schedule is a pure function of seed and frame index); the report
    lists every violated invariant in ``failures``.
    """
    if params is None:
        params = small_test_parameters(SchemeType.BFV, poly_degree=1024,
                                       plain_bits=16, data_bits=(30, 30))
    report = SoakReport(n_sessions=n_sessions, n_requests=n_requests,
                        seed=seed)
    started = time.monotonic()

    server = OffloadServer(params, queue_limit=16, concurrency=concurrency,
                           resume_grace_s=resume_grace_s, dedupe_window=128)
    server.register("chaos/count", _counting_echo)
    host, port = await server.start()

    transports: List[FaultyTransport] = []
    ledgers: List[CostLedger] = []
    clients: List[OffloadClient] = []

    async def one_session(i: int) -> None:
        failures = report.failures
        ctx = BfvContext(params, seed=9000 + i)
        ledger = CostLedger()
        ledgers.append(ledger)
        session_transports: List[FaultyTransport] = []
        conn_count = 0

        async def factory() -> Transport:
            nonlocal conn_count
            conn_count += 1
            inner = await TcpTransport.connect(host, port, retries=5,
                                               backoff_s=0.02)
            faulty = FaultyTransport(
                inner, plan,
                seed=f"{seed}:session{i}:conn{conn_count}",
                armed=conn_count > 1,  # first connection provisions clean
                ledger=ledger)
            session_transports.append(faulty)
            transports.append(faulty)
            return faulty

        client = OffloadClient(params, host, port,
                               transport_factory=factory,
                               request_timeout=request_timeout,
                               max_retries=max_retries, backoff_s=0.02)
        clients.append(client)
        await client.connect()
        await client.upload_keys(galois=ctx.make_galois_keys([1]))
        session_transports[0].armed = True  # provisioning done: go hostile
        try:
            for seq in range(n_requests):
                meta = await _counted_request(client, ctx, seq,
                                              f"session {i}", failures)
                if meta.get("n") != seq + 1:
                    failures.append(
                        f"session {i}: request {seq} saw state n={meta.get('n')}"
                        f", expected {seq + 1} (duplicate or lost execution)")
        finally:
            for t in session_transports:
                t.armed = False  # clean goodbye
            # If the last fault severed the link after the final result,
            # reattach once so the BYE lands and the session dies cleanly
            # instead of lingering until the grace period reaps it.
            if client._conn_error is not None:
                try:
                    await client.resume()
                except Exception:  # noqa: BLE001 — best-effort goodbye
                    pass
            if client._pending:
                failures.append(
                    f"session {i}: {len(client._pending)} leaked pending "
                    f"future(s)")
                report.leaked_futures += len(client._pending)
            await client.close()

    await _run_sessions(report, one_session)
    await _audit_clients(report, params, clients, ledgers,
                         "retries were double-charged")

    # Server-side end state: exactly-once execution, no re-provisioning.
    snap = server.metrics.snapshot()
    report.logical_requests = n_sessions * n_requests
    report.handler_invocations = snap["handler_invocations"]
    report.duplicates_suppressed = snap["duplicates_suppressed"]
    report.results_replayed = snap["results_replayed"]
    report.resumes = snap["sessions_resumed"]
    report.reaped = snap["sessions_reaped"]
    report.key_uploads = sum(m["key_uploads"]
                             for m in snap["sessions"].values())
    if report.handler_invocations != report.logical_requests:
        report.failures.append(
            f"exactly-once violated: {report.handler_invocations} handler "
            f"invocation(s) for {report.logical_requests} logical request(s)")
    if report.key_uploads != n_sessions:
        report.failures.append(
            f"{report.key_uploads} key upload(s) for {n_sessions} "
            f"session(s): resume re-provisioned keys")

    # Leak audit: everything the soak created must be gone.
    deadline = time.monotonic() + 2.0
    while (server._sessions or server._worker_tasks) \
            and time.monotonic() < deadline:
        await asyncio.sleep(0.02)
    report.leaked_sessions = len(server._sessions)
    report.leaked_workers = len(server._worker_tasks)
    if report.leaked_sessions:
        report.failures.append(
            f"{report.leaked_sessions} session(s) still registered after "
            f"all clients said BYE")
    if report.leaked_workers:
        report.failures.append(
            f"{report.leaked_workers} worker task(s) still alive")
    await server.stop()

    report.fault_counts = dict(Counter(
        event.kind for t in transports for event in t.events))
    report.elapsed_s = time.monotonic() - started
    return report


def run_chaos_soak(**kwargs) -> SoakReport:
    """Synchronous wrapper around :func:`chaos_soak`."""
    return asyncio.run(chaos_soak(**kwargs))


# ---------------------------------------------------------------------------
# Fleet soak: worker-kill chaos over a sharded FleetServer
# ---------------------------------------------------------------------------

def _logged_counting_echo(session, request):
    """The counting echo plus an append-only per-process execution log.

    Fleet workers are killed mid-soak, so their in-memory exactly-once
    counters die with them.  The log file — one per worker process, named
    by pid so distinct generations never collide — is the cross-death
    audit: one line per handler execution, keyed by the request's logical
    ``uid`` (which, unlike the per-connection request id, survives
    failover to a fresh session).
    """
    log_dir = session.server.op_config.get("exec_log_dir")
    uid = request.meta.get("uid")
    if log_dir and uid is not None:
        path = os.path.join(log_dir, f"exec-{os.getpid()}.log")
        with open(path, "a", encoding="ascii") as fh:
            fh.write(f"{uid}\n")
    return _counting_echo(session, request)


def install_chaos_ops(server) -> None:
    """Worker installer (``repro.runtime.chaos:install_chaos_ops``)."""
    server.register("chaos/count", _logged_counting_echo)


async def fleet_chaos_soak(params: Optional[EncryptionParameters] = None, *,
                           n_workers: int = 2, n_sessions: int = 4,
                           n_requests: int = 10, seed: int = 2027,
                           kill_workers: int = 1, kill_fate: str = "idle",
                           eval_workers: int = 0,
                           session_cap: Optional[int] = None,
                           request_timeout: float = 2.0,
                           max_retries: int = 40,
                           ) -> SoakReport:
    """Kill workers under live sharded traffic and audit exactly-once.

    N failover-enabled clients run the counting workload against a
    :class:`~repro.runtime.fleet.FleetServer`; once a third of the logical
    requests have completed, workers are killed (``kill_fate="idle"`` dies
    between requests, preserving accounting) and the supervisor respawns
    them.  The audit then asserts, across all worker generations:

    * **exactly-once**: every logical ``uid`` appears exactly once in the
      union of the per-process execution logs — no lost or duplicated
      work across worker death and client failover (``kill_fate="hard"``
      relaxes this to at-least-once: a crash between handler execution
      and the RESULT frame legitimately re-executes on replay);
    * **ledger parity**: every client's :class:`CostLedger` is
      byte-identical to a fault-free single-process oracle run — retries,
      resumes, and failover key replays all cost nothing;
    * **supervision**: every kill produced a worker restart, and at least
      one client actually exercised the failover path.
    """
    if params is None:
        params = small_test_parameters(SchemeType.BFV, poly_degree=1024,
                                       plain_bits=16, data_bits=(30, 30))
    from repro.runtime.fleet import FleetServer

    report = SoakReport(n_sessions=n_sessions, n_requests=n_requests,
                        seed=seed, n_workers=n_workers)
    started = time.monotonic()
    total = n_sessions * n_requests
    log_dir = tempfile.mkdtemp(prefix="choco-fleet-soak-")

    fleet = FleetServer(
        params, n_workers,
        installers=("repro.runtime.chaos:install_chaos_ops",),
        eval_workers=eval_workers,
        session_cap=session_cap,
        queue_limit=16, concurrency=1,
        resume_grace_s=10.0, dedupe_window=128,
        op_config={"exec_log_dir": log_dir})
    host, port = await fleet.start()

    clients: List[OffloadClient] = []
    ledgers: List[CostLedger] = []
    completions = [0]
    # Sessions hold their final request until every kill has landed, so the
    # killed worker's sessions always have traffic left to drive failover
    # (otherwise a fast run can retire all of a victim's requests before
    # the kill, and the soak's failover audit races).
    kills_done = asyncio.Event()
    if not kill_workers:
        kills_done.set()

    async def killer() -> None:
        try:
            for k in range(kill_workers):
                threshold = max(1, (k + 1) * total // (kill_workers + 2))
                while completions[0] < threshold:
                    await asyncio.sleep(0.01)
                index = k % n_workers
                # Poll first so the dying generation's work is retired into
                # the fleet totals rather than forgotten.
                await fleet.refresh_metrics()
                generation = await fleet.kill_worker(index, kill_fate)
                await fleet.wait_worker_restart(index, generation)
        finally:
            kills_done.set()

    async def one_session(i: int) -> None:
        ctx = BfvContext(params, seed=9100 + i)
        ledger = CostLedger()
        ledgers.append(ledger)

        async def factory() -> Transport:
            inner = await TcpTransport.connect(host, port, retries=8,
                                               backoff_s=0.02)
            # Unarmed FaultyTransport: a pure ledger-accounting shim — the
            # only chaos in this soak is worker death itself.
            return FaultyTransport(inner, FaultPlan(), armed=False,
                                   ledger=ledger)

        client = OffloadClient(params, host, port,
                               transport_factory=factory,
                               request_timeout=request_timeout,
                               max_retries=max_retries, backoff_s=0.02,
                               failover=True)
        clients.append(client)
        await client.connect()
        await client.upload_keys(galois=ctx.make_galois_keys([1]))
        try:
            for seq in range(n_requests):
                if seq == n_requests - 1:
                    await asyncio.wait_for(kills_done.wait(), timeout=60.0)
                await _counted_request(client, ctx, seq, f"session {i}",
                                       report.failures, uid=f"s{i}q{seq}")
                completions[0] += 1
        finally:
            await client.close()

    killer_task = asyncio.ensure_future(killer())
    await _run_sessions(report, one_session)
    if report.failures:
        killer_task.cancel()
        await asyncio.gather(killer_task, return_exceptions=True)
    else:
        try:
            await asyncio.wait_for(killer_task, timeout=60.0)
        except asyncio.TimeoutError:
            report.failures.append(
                "worker kill/restart schedule never completed")

    # ---------------------------------------------------------- the audit
    fleet_snap = await fleet.refresh_metrics()
    report.per_worker = fleet_snap["per_worker"]
    report.worker_restarts = fleet.metrics.worker_restarts
    report.admission_rejections = fleet.metrics.admission_rejections
    report.resumes = sum(w.get("metrics", {}).get("sessions_resumed", 0)
                         for w in report.per_worker)
    report.logical_requests = total

    # Exactly-once across worker generations, from the execution logs.
    counts = Counter(
        uid for path in sorted(Path(log_dir).glob("exec-*"))
        for uid in path.read_text("ascii").split())
    report.handler_invocations = sum(counts.values())
    expected = {f"s{i}q{seq}"
                for i in range(n_sessions) for seq in range(n_requests)}
    missing = sorted(expected - counts.keys())
    extra = sorted(counts.keys() - expected)
    dupes = sorted(uid for uid, c in counts.items() if c > 1)
    if missing:
        report.failures.append(
            f"exactly-once violated: {len(missing)} request(s) never "
            f"executed (e.g. {missing[:3]})")
    if extra:
        report.failures.append(
            f"execution log names {len(extra)} unknown request(s) "
            f"(e.g. {extra[:3]})")
    if dupes and kill_fate != "hard":
        # A hard kill can crash a worker after a handler ran but before
        # its RESULT left the process; the replacement worker legitimately
        # re-executes on replay (at-least-once).  The graceful "idle" fate
        # dies only between requests, so there exactly-once must hold.
        report.failures.append(
            f"exactly-once violated: {len(dupes)} request(s) executed "
            f"more than once (e.g. {dupes[:3]})")

    await _audit_clients(report, params, clients, ledgers,
                         "failover was not transfer-free")

    if not report.failures and kill_workers:
        if report.worker_restarts < kill_workers:
            report.failures.append(
                f"{report.worker_restarts} worker restart(s) for "
                f"{kill_workers} kill(s)")
        if report.failovers < 1:
            report.failures.append(
                "no client exercised the failover path despite a worker "
                "kill")

    await fleet.stop()
    shutil.rmtree(log_dir, ignore_errors=True)
    report.elapsed_s = time.monotonic() - started
    return report
