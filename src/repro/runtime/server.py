"""The multi-session offload server: sessions, scheduling, backpressure.

An :class:`OffloadServer` owns one HE parameter set and a registry of named
operations.  Each connected client gets a **session**: its own evaluation-key
store (public / relinearization / Galois — uploaded once, the offline phase
of the protocol), its own bounded request queue, and its own metrics.

Scheduling is fair round-robin across sessions: a single scheduler task
rotates through every session with queued work and dispatches one request at
a time into a bounded worker pool (``concurrency`` slots), so a chatty
session cannot starve a quiet one.  Within one session execution is strictly
serialized — two workers never touch the same session's evaluation context
(or its ``state``) concurrently — while different sessions still run in
parallel.  When a session's queue is full the server answers ``BUSY`` with a
retry-after hint instead of buffering unboundedly — backpressure is part of
the wire contract, not an afterthought.

The server is built for lossy links (the paper's client model, §7).
``COMPUTE`` request ids are idempotency keys: a retry of a queued or
executing id is absorbed, one in the dedupe window is answered from it, and
a handler never runs twice.  A connection lost without ``BYE`` *detaches*
its session for ``resume_grace_s``: a ``RESUME`` reattaches it (keystore,
state, dedupe window) so keys are never re-uploaded, and a reaper closes it
once the grace expires.  Which frame is legal in which session state, where
it moves the session and what it may answer is declared once, in
:data:`repro.runtime.framing.TRANSITIONS`: ``serve_transport`` looks every
frame up there, decodes it once and runs the row's ``_on_<action>``.
docs/PROTOCOL.md spells all of it out.

The server-side evaluation context is built from the *uploaded* keys only.
It mechanically forbids decryption (raising
:class:`~repro.core.protocol.ProtocolViolation`, the same boundary
``ClientAidedSession.server_compute`` enforces) and refuses to fabricate
evaluation keys the client never sent.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import logging
import secrets
import time
from collections import Counter, OrderedDict, deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.core.protocol import ProtocolViolation
from repro.hecore.ciphertext import Ciphertext
from repro.hecore.keys import MissingEvaluationKey
from repro.hecore.params import EncryptionParameters
from repro.hecore.serialize import (
    deserialize_ciphertext,
    deserialize_galois_keys,
    deserialize_public_key,
    deserialize_relin_key,
    serialize_ciphertext,
)
from repro.runtime.framing import (
    Busy,
    Compute,
    Error,
    ErrorCode,
    FrameError,
    Hello,
    HelloAck,
    KeyAck,
    KeyKind,
    KeyUpload,
    Ping,
    Pong,
    Result,
    Resume,
    ResumeAck,
    SessionState,
    decode,
)
from repro.runtime.metrics import RuntimeMetrics, SessionMetrics
from repro.runtime.transport import TcpTransport, Transport

logger = logging.getLogger("repro.runtime")

#: Seed of every session's evaluation context, inline and in the eval pool
#: alike: both sides must build the same context for the same session.
EVAL_CONTEXT_SEED = b"offload-server-eval"


@dataclass
class ComputeRequest:
    """One deserialized offload request, queued for a worker.

    ``blobs`` keeps the raw wire ciphertexts alongside the deserialized
    ``cts`` so a pooled executor can forward them to its subprocess without
    a redundant re-serialization round.
    """

    request_id: int
    op: str
    meta: Dict
    cts: List[Ciphertext]
    blobs: Tuple[bytes, ...] = ()
    received_at: float = field(default_factory=time.monotonic)


#: A handler takes ``(session, request)`` and returns a list of result
#: ciphertexts, or a ``(ciphertexts, meta)`` tuple.  Plain functions run in
#: a worker thread (keeping the event loop responsive during heavy HE);
#: coroutine functions are awaited on the loop.
Handler = Callable[["ServerSession", ComputeRequest], Any]

#: A served op: a pure ``fn(ctx, state, meta, cts)`` returning ``cts`` or
#: ``(cts, meta)``; ``ctx`` / ``state`` are the session's evaluation context
#: and application-state dict in whichever process runs it.
ServedOp = Callable[[Any, Dict, Dict, List], Any]


class ServerSession:
    """One client's server-side state: keys, queue, metrics, eval context."""

    def __init__(self, session_id: int, transport: Transport,
                 server: "OffloadServer", metrics: SessionMetrics,
                 resume_token: bytes):
        self.id = session_id
        self.transport = transport
        self.server = server
        self.metrics = metrics
        #: Keys, application state and evaluation context.
        self.evaluator = SessionEvaluator(server.params)
        #: Free-form per-session application state (e.g. stored KNN batches).
        self.state = self.evaluator.state
        #: Raw uploaded key blobs, retained so a pooled evaluation executor
        #: can ship them to its subprocess (Galois uploads accumulate).  Each
        #: upload binds a new tuple; the pool ships a kind again exactly
        #: when the tuple is not the one it shipped.
        self.key_blobs: Dict[KeyKind, Tuple[bytes, ...]] = {}
        #: Kinds dropped by the key-store LRU; non-empty means the next
        #: COMPUTE is answered with a KEYS_EVICTED re-upload signal.
        self.evicted_kinds: set = set()
        self.queue: Deque[ComputeRequest] = deque()
        self._send_lock = asyncio.Lock()
        #: Where the session stands; ``framing.TRANSITIONS`` moves it.
        self.phase = SessionState.ATTACHED
        #: Secret the client must present in a RESUME frame to reattach.
        self.resume_token = resume_token
        #: Request ids currently queued or executing (idempotency guard).
        self.inflight_ids: set = set()
        #: Recently completed ids -> packed RESULT payload, bounded by the
        #: server's ``dedupe_window`` (oldest evicted first).
        self.completed: "OrderedDict[int, bytes]" = OrderedDict()
        #: True while a worker runs this session's handler (per-session
        #: execution is serialized; sessions stay parallel across each other).
        self.executing = False
        #: When the connection was lost: the reaper's clock while detached.
        self.detached_at = 0.0

    def ensure_context(self):
        """The session's evaluation context, built on first use."""
        return self.evaluator.context()

    ctx = property(ensure_context)

    async def send(self, record, payload: Optional[bytes] = None) -> None:
        """``Transport.send``, serialized: workers and the loop interleave."""
        async with self._send_lock:
            await self.transport.send(record, payload)

    def remember_result(self, request_id: int, payload: bytes) -> None:
        """Retire *request_id* into the dedupe window (replayable RESULT)."""
        self.inflight_ids.discard(request_id)
        self.completed[request_id] = payload
        self.completed.move_to_end(request_id)
        while len(self.completed) > self.server.dedupe_window:
            self.completed.popitem(last=False)

    def key_mask(self) -> int:
        return sum(1 << (int(kind) - 1) for kind in self.evaluator.keystore)


class OffloadServer:
    """Serves the client-aided protocol to many concurrent sessions."""

    def __init__(self, params: EncryptionParameters, *,
                 queue_limit: int = 16, concurrency: int = 1,
                 retry_after_ms: int = 50, banner: str = "choco-offload",
                 dedupe_window: int = 64,
                 resume_grace_s: float = 30.0,
                 session_id_start: int = 1, session_id_step: int = 1,
                 keystore_limit: Optional[int] = None,
                 eval_pool=None,
                 op_config: Optional[Dict[str, Any]] = None,
                 verbose: bool = False):
        if queue_limit < 1:
            raise ValueError("queue_limit must be at least 1")
        if concurrency < 1:
            raise ValueError("concurrency must be at least 1")
        if dedupe_window < 1:
            raise ValueError("dedupe_window must be at least 1")
        if session_id_start < 1 or session_id_step < 1:
            raise ValueError("session ids must start at >= 1 and step >= 1")
        if keystore_limit is not None and keystore_limit < 1:
            raise ValueError("keystore_limit must be at least 1 (or None)")
        self.params = params
        self.queue_limit = queue_limit
        self.concurrency = concurrency
        self.retry_after_ms = retry_after_ms
        self.banner = banner
        self.dedupe_window = dedupe_window
        self.resume_grace_s = resume_grace_s
        self.verbose = verbose
        # The handshake and backpressure frames carry these settings: one
        # their fields cannot hold is refused here, by a FrameError (a
        # ValueError) naming the field, instead of failing every handshake.
        self._hello_ack(session_id_start, b"")
        Busy(0, retry_after_ms, queue_limit).pack()
        #: Fleet workers bound this to a cap so N shared-nothing processes
        #: don't hold N full key sets for every historical session.
        self.keystore_limit = keystore_limit
        #: Optional :class:`~repro.runtime.evalpool.EvalPool`; the ops in
        #: its registry (``eval_pool.ops``) execute in its subprocesses.
        self.eval_pool = eval_pool
        #: Free-form per-deployment handler configuration (e.g. a served
        #: model's weight seed), reachable as ``session.server.op_config``
        #: from any handler.
        self.op_config: Dict[str, Any] = dict(op_config or {})
        self.metrics = RuntimeMetrics()
        self._handlers: Dict[str, Handler] = {}
        #: Served ops by name (an eval-pool installer can fill it directly).
        self.ops: Dict[str, ServedOp] = {}
        self._sessions: Dict[int, ServerSession] = {}
        self._rr: Deque[int] = deque()
        #: Sharded deployments give each worker a disjoint arithmetic
        #: progression (start=i+1, step=n_workers) so a session id names
        #: its owning worker: (sid - 1) % n_workers == i.  Sticky routing
        #: becomes a pure function of the id — no shared routing table.
        self._ids = itertools.count(session_id_start, session_id_step)
        #: LRU over sessions holding evaluation keys (order = recency).
        self._key_lru: "OrderedDict[int, None]" = OrderedDict()
        self._work = asyncio.Event()
        self._slots = asyncio.Semaphore(concurrency)
        self._scheduler_task: Optional[asyncio.Task] = None
        self._reaper_task: Optional[asyncio.Task] = None
        self._worker_tasks: set = set()
        self._tcp_server: Optional[asyncio.AbstractServer] = None
        self._closing = False
        self.host: Optional[str] = None
        self.port: Optional[int] = None
        # Built-in liveness op: returns the request's ciphertexts unchanged.
        self.register_op("echo", lambda _ctx, _state, _meta, cts: cts)

    # --------------------------------------------------------------- setup
    def register(self, op: str, handler: Handler) -> None:
        """Register (or replace) the handler for operation *op*."""
        self._handlers[op] = handler

    def register_op(self, op: str, fn: ServedOp) -> None:
        """Register (or replace) the served op ``fn(ctx, state, meta, cts)``.
        It runs in the eval pool when the pool's own registry has *op*, in
        this process otherwise — through :meth:`SessionEvaluator.run` both."""
        self.ops[op] = fn

    def _pooled(self, op: str) -> bool:
        return self.eval_pool is not None and op in self.eval_pool.ops

    async def start(self, host: str = "127.0.0.1", port: int = 0,
                    ) -> Tuple[str, int]:
        """Listen on TCP; returns the bound (host, port)."""
        self._ensure_scheduler()
        self._tcp_server = await asyncio.start_server(
            lambda r, w: self.serve_transport(TcpTransport(r, w)), host, port)
        sockname = self._tcp_server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        return self.host, self.port

    async def stop(self) -> None:
        """Close the listener and all sessions; print metrics if verbose."""
        self._closing = True
        if self._tcp_server is not None:
            self._tcp_server.close()
            await self._tcp_server.wait_closed()
            self._tcp_server = None
        for session in list(self._sessions.values()):
            self._unregister(session)
            await session.transport.close()
        for task in (self._scheduler_task, self._reaper_task):
            if task is not None:
                task.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await task
        self._scheduler_task = None
        self._reaper_task = None
        for task in list(self._worker_tasks):
            task.cancel()
        if self._worker_tasks:
            await asyncio.gather(*self._worker_tasks, return_exceptions=True)
        if self.verbose:
            print(self.metrics.render())

    def _note_task_death(self, task: Optional[asyncio.Task],
                         name: str) -> None:
        """Surface why a core task died before it gets respawned: every
        crash-respawn is counted and the last error kept in the metrics."""
        if task is None or not task.done() or task.cancelled():
            return
        exc = task.exception()
        if exc is None:
            return
        self.metrics.scheduler_restarts += 1
        self.metrics.last_scheduler_error = f"{type(exc).__name__}: {exc}"
        logger.error("offload %s task died (restarting): %s",
                     name, self.metrics.last_scheduler_error)

    def _ensure_scheduler(self) -> None:
        if self._scheduler_task is None or self._scheduler_task.done():
            self._note_task_death(self._scheduler_task, "scheduler")
            self._scheduler_task = asyncio.ensure_future(self._scheduler())
        if self._reaper_task is None or self._reaper_task.done():
            self._note_task_death(self._reaper_task, "reaper")
            self._reaper_task = asyncio.ensure_future(self._reaper())

    # ----------------------------------------------------- session serving
    async def serve_transport(self, transport: Transport) -> None:
        """Serve one connection over any :class:`Transport` while its
        session is attached: each frame is decoded under the connection's
        state (opening until a session attaches), the row's action runs and
        the session takes the row's next state."""
        self._ensure_scheduler()
        session: Optional[ServerSession] = None
        try:
            while True:
                mtype, _flags, payload = await transport.recv_frame()
                state = SessionState.OPENING
                if session is not None:
                    state = session.phase
                    session.metrics.bytes_up += len(payload)
                try:
                    row, record = decode(state, mtype, payload)
                except FrameError as exc:
                    if session is not None:
                        session.metrics.errors += 1
                    await (session or transport).send(
                        Error(0, ErrorCode.BAD_FRAME, str(exc)))
                else:
                    action = row.action and getattr(self, f"_on_{row.action}")
                    if session is None:
                        session = await action(transport, record)
                    elif action:
                        await action(session, record)
                    if session is not None:
                        session.phase = row.next
                if not (session and session.phase is SessionState.ATTACHED):
                    return
        except (ConnectionError, FrameError):
            pass  # peer vanished or spoke garbage: drop the connection
        finally:
            # Only the transport currently attached may leave the session —
            # a connection superseded by RESUME must not tear down its heir.
            if session is not None and session.transport is transport:
                self._leave(session)
            await transport.close()

    async def _on_hello(self, transport: Transport,
                        hello: Hello) -> Optional[ServerSession]:
        mismatch = hello.mismatch(self.params)
        if mismatch is not None:
            self.metrics.sessions_rejected += 1
            await transport.send(Error(0, ErrorCode.PARAMS_MISMATCH,
                                       f"parameter mismatch: {mismatch}"))
            return None
        session_id, token = next(self._ids), secrets.token_bytes(16)
        # Packed before the session is registered: a reply that cannot be
        # encoded must not leave a session behind.
        ack = self._hello_ack(session_id, token)
        metrics = self.metrics.open_session(session_id, transport.peer_name)
        session = ServerSession(session_id, transport, self, metrics, token)
        self._sessions[session_id] = session
        self._rr.append(session_id)
        await transport.send(HelloAck, ack)
        return session

    def _hello_ack(self, session_id: int, token: bytes) -> bytes:
        return HelloAck(session_id=session_id, queue_limit=self.queue_limit,
                        concurrency=self.concurrency, resume_token=token,
                        grace_ms=int(max(self.resume_grace_s, 0) * 1000),
                        banner=self.banner).pack()

    async def _on_resume(self, transport: Transport,
                         resume: Resume) -> Optional[ServerSession]:
        # A registered session is detached, or attached to a connection
        # this one supersedes; BYE and the reaper unregister it.
        session = self._sessions.get(resume.session_id)
        if session is None or not secrets.compare_digest(
                session.resume_token, resume.token):
            self.metrics.resumes_rejected += 1
            await transport.send(Error(
                0, ErrorCode.RESUME_REJECTED,
                f"no resumable session {resume.session_id}"))
            return None
        old = session.transport
        session.transport = transport
        session.metrics.resumes += 1
        self.metrics.sessions_resumed += 1
        if old is not transport:
            # Kick the superseded connection loose; its serve loop sees the
            # closed transport and exits without touching the session.
            await old.close()
        await transport.send(ResumeAck(session.id, self.queue_limit,
                                       self.concurrency, session.key_mask(),
                                       self.banner))
        return session

    async def _on_ping(self, session: ServerSession, ping: Ping) -> None:
        session.metrics.pings += 1
        await session.send(Pong(ping.nonce))

    async def _on_key_upload(self, session: ServerSession,
                             upload: KeyUpload) -> None:
        try:
            session.evaluator.install_key(upload.kind, upload.blob)
        except ValueError as exc:
            session.metrics.errors += 1
            await session.send(Error(0, ErrorCode.BAD_FRAME,
                                     f"bad key upload: {exc}"))
            return
        held = (session.key_blobs.get(upload.kind, ())
                if upload.kind is KeyKind.GALOIS else ())
        session.key_blobs[upload.kind] = (*held, upload.blob)
        session.evicted_kinds.discard(upload.kind)
        session.metrics.key_uploads += 1
        session.metrics.key_bytes += 1 + len(upload.blob)  # kind u8 | blob
        galois = session.evaluator.keystore.get(KeyKind.GALOIS)
        session.metrics.galois_keys_held = len(galois.keys) if galois else 0
        self._touch_keys(session)
        self._maybe_evict_keys(keep=session)
        await session.send(KeyAck(upload.kind))

    async def _on_compute(self, session: ServerSession,
                          compute: Compute) -> None:
        # Idempotency: a resubmitted request id is answered, never re-run.
        cached = session.completed.get(compute.request_id)
        if cached is not None:
            session.metrics.results_replayed += 1
            await session.send(Result, cached)
            return
        if compute.request_id in session.inflight_ids:
            # Still queued or executing: the original's RESULT answers the
            # retry (same request id on the same connection).
            session.metrics.duplicates_suppressed += 1
            return
        if not (compute.op in self._handlers or compute.op in self.ops
                or self._pooled(compute.op)):
            session.metrics.errors += 1
            await session.send(Error(compute.request_id, ErrorCode.UNKNOWN_OP,
                                     f"unknown operation {compute.op!r}"))
            return
        if session.evicted_kinds:
            # Re-upload-on-miss: the LRU dropped this session's keys while
            # it was idle.  Signal before any execution so the client can
            # re-provision and resubmit the *same* request id — the
            # exactly-once window is untouched (nothing ran).
            session.metrics.reupload_signals += 1
            kinds = ",".join(sorted(k.name for k in session.evicted_kinds))
            await session.send(Error(compute.request_id,
                                     ErrorCode.KEYS_EVICTED,
                                     f"keys evicted: {kinds}"))
            return
        if len(session.queue) >= self.queue_limit:
            session.metrics.busy_rejections += 1
            await session.send(Busy(compute.request_id, self.retry_after_ms,
                                    len(session.queue)))
            return
        try:
            cts = [deserialize_ciphertext(blob, self.params)
                   for blob in compute.blobs]
        except ValueError as exc:
            session.metrics.errors += 1
            await session.send(Error(compute.request_id, ErrorCode.BAD_FRAME,
                                     f"bad ciphertext: {exc}"))
            return
        session.queue.append(ComputeRequest(
            compute.request_id, compute.op, compute.meta, cts,
            tuple(compute.blobs)))
        session.inflight_ids.add(compute.request_id)
        session.metrics.requests += 1
        session.metrics.ciphertexts_in += len(cts)
        session.metrics.queue_depth = len(session.queue)
        if session.evaluator.keystore:
            self._touch_keys(session)  # active sessions stay LRU-hot
        self._work.set()

    def _leave(self, session: ServerSession) -> None:
        """Its connection is gone: a session lost without BYE is detached
        for ``resume_grace_s`` (the reaper enforces it), else closed."""
        if session.phase is SessionState.ATTACHED:
            session.phase = SessionState.DETACHED
        if (session.phase is SessionState.DETACHED and not self._closing
                and self.resume_grace_s > 0):
            session.detached_at = time.monotonic()
        else:
            self._unregister(session)

    def _unregister(self, session: ServerSession) -> None:
        session.phase = SessionState.CLOSED
        if self._sessions.pop(session.id, None) is None:
            return
        self._key_lru.pop(session.id, None)
        if self.eval_pool is not None:
            self.eval_pool.close_session(session.id)
        with contextlib.suppress(ValueError):
            self._rr.remove(session.id)
        session.metrics.queue_depth = 0
        self.metrics.close_session(session.id)

    # ---------------------------------------------------- key-store LRU
    def _touch_keys(self, session: ServerSession) -> None:
        self._key_lru[session.id] = None
        self._key_lru.move_to_end(session.id)

    def _maybe_evict_keys(self, keep: ServerSession) -> None:
        """Enforce ``keystore_limit`` by dropping the coldest idle keys.

        Only sessions with nothing queued or executing are eligible — an
        eviction never invalidates work already admitted.  The victim's
        next COMPUTE gets a ``KEYS_EVICTED`` signal and the client
        re-uploads transparently (charged once per eviction event).
        """
        if self.keystore_limit is None:
            return
        while len(self._key_lru) > self.keystore_limit:
            victim = None
            for sid in self._key_lru:  # oldest first
                candidate = self._sessions.get(sid)
                if candidate is None:
                    victim = sid  # stale entry: session already gone
                    break
                if (candidate is not keep and not candidate.executing
                        and not candidate.queue):
                    victim = sid
                    break
            if victim is None:
                return  # everything over the cap is busy; retry later
            self._key_lru.pop(victim, None)
            session = self._sessions.get(victim)
            if session is None:
                continue
            session.evicted_kinds = set(session.evaluator.keystore)
            session.evaluator.drop_keys()
            session.key_blobs.clear()
            session.metrics.galois_keys_held = 0
            session.metrics.key_evictions += 1
            if self.eval_pool is not None:
                self.eval_pool.drop_keys(session.id)

    # ----------------------------------------------------------- scheduling
    def _next_request(self,
                      ) -> Tuple[Optional[ServerSession],
                                 Optional[ComputeRequest]]:
        """Fair pick: rotate the session ring, take one queued request.

        Sessions with a handler already running are skipped — per-session
        execution is serialized so two workers never share one session's
        evaluation context (or its op counters).
        """
        for _ in range(len(self._rr)):
            sid = self._rr[0]
            self._rr.rotate(-1)
            session = self._sessions.get(sid)
            if session is not None and session.queue and not session.executing:
                session.executing = True
                request = session.queue.popleft()
                session.metrics.queue_depth = len(session.queue)
                return session, request
        return None, None

    async def _scheduler(self) -> None:
        while True:
            await self._work.wait()
            # Acquire the compute slot BEFORE popping a request: a request
            # must stay in its session queue — visible to the backpressure
            # check — until a worker can actually run it.
            await self._slots.acquire()
            try:
                session, request = self._next_request()
            except BaseException:
                # If picking crashes, the slot must not leak — a respawned
                # scheduler would otherwise deadlock on an empty semaphore.
                self._slots.release()
                raise
            if session is None:
                self._slots.release()
                self._work.clear()
                continue
            task = asyncio.ensure_future(self._execute(session, request))
            self._worker_tasks.add(task)
            task.add_done_callback(self._worker_tasks.discard)

    async def _reaper(self) -> None:
        """Close detached sessions whose grace period expired."""
        interval = max(0.02, min(1.0, max(self.resume_grace_s, 0.1) / 5))
        while True:
            await asyncio.sleep(interval)
            now = time.monotonic()
            for session in list(self._sessions.values()):
                if (session.phase is SessionState.DETACHED
                        and now - session.detached_at >= self.resume_grace_s):
                    self._unregister(session)
                    self.metrics.sessions_reaped += 1
                    await session.transport.close()

    async def _execute(self, session: ServerSession,
                       request: ComputeRequest) -> None:
        self.metrics.record_dispatch(session.id)
        started = time.monotonic()
        try:
            session.metrics.handler_invocations += 1
            if self._pooled(request.op):
                # Process-pool path: the op runs in a subprocess on that
                # side's SessionEvaluator; the asyncio loop stays free for
                # keys/heartbeats.  Raw request blobs go over as-is and
                # serialized results come back — no pickled HE objects.
                blobs, meta, counters = await self.eval_pool.execute(
                    session, request)
            else:
                cts, meta, counters = await self._run_inline(session, request)
                blobs = tuple(serialize_ciphertext(ct, compress_seed=False)
                              for ct in cts)
            session.metrics.add_counts(counters)
            payload = Result(request.request_id, meta, blobs).pack()
            # Cache BEFORE sending: if the connection is dead the client
            # resumes and replays the id, and the cached RESULT answers it.
            session.remember_result(request.request_id, payload)
            if session.phase is not SessionState.CLOSED:
                try:
                    await session.send(Result, payload)
                except (ConnectionError, OSError):
                    pass  # detached mid-send; the dedupe window serves it
                else:
                    session.metrics.responses += 1
                    session.metrics.ciphertexts_out += len(blobs)
                    session.metrics.bytes_down += len(payload)
                    session.metrics.observe_latency(time.monotonic() - started)
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # noqa: BLE001 — one bad request must not
            # take down the serving loop; the typed error reaches the client.
            await self._send_error(session, request, exc)
        finally:
            session.executing = False
            self._slots.release()
            self._work.set()  # re-check queues freed up by this completion

    async def _send_error(self, session: ServerSession,
                          request: ComputeRequest, exc: Exception) -> None:
        session.metrics.errors += 1
        # Failed ids leave the idempotency window: an explicit client retry
        # after a typed error is a fresh execution, not a replay.
        session.inflight_ids.discard(request.request_id)
        if session.phase is SessionState.CLOSED:
            return
        code = next((code for kind, code in _HANDLER_ERRORS
                     if isinstance(exc, kind)), ErrorCode.HANDLER_FAILED)
        with contextlib.suppress(ConnectionError, OSError):
            await session.send(Error(request.request_id, code,
                                     f"{type(exc).__name__}: {exc}"))

    async def _run_inline(self, session: ServerSession,
                          request: ComputeRequest):
        """Run *request* on this process's evaluator for the session."""
        evaluator = session.evaluator
        fn = self.ops.get(request.op)
        if fn is None:
            handler = self._handlers[request.op]
            if asyncio.iscoroutinefunction(handler):
                # Awaited on the loop (it may wait on loop-bound events).
                with evaluator.metered() as counters:
                    result = await handler(session, request)
                return (*_normalize_result(result), counters)

            def fn(_ctx, _state, _meta, _cts):
                return handler(session, request)
        return await asyncio.to_thread(evaluator.run, fn, request.meta,
                                       request.cts)


#: The ``ErrorCode`` a handler's exception earns by its type; any other
#: exception is ``HANDLER_FAILED``.
_HANDLER_ERRORS = ((ProtocolViolation, ErrorCode.PROTOCOL_VIOLATION),
                   (MissingEvaluationKey, ErrorCode.MISSING_KEYS))

#: ``hecore.serialize`` reader of each uploadable key kind.
_KEY_READERS = {
    KeyKind.PUBLIC: deserialize_public_key,
    KeyKind.RELIN: deserialize_relin_key,
    KeyKind.GALOIS: deserialize_galois_keys,
}


class SessionEvaluator:
    """What one process can compute for one session: the uploaded keys, the
    application ``state`` and the restricted context that evaluates on them.

    A :class:`ServerSession` owns one in the serving process and an
    eval-pool subprocess keeps one per session id, so installing a key,
    evicting the keys and running a served op mean the same thing on both
    sides of the pipe.
    """

    def __init__(self, params: EncryptionParameters,
                 context_seed: bytes = EVAL_CONTEXT_SEED):
        self.params = params
        self._context_seed = context_seed
        #: Never rebound: the context (and every kernel built on it and
        #: parked in ``state``) resolves its keys through this dict at use.
        self.keystore: Dict[KeyKind, Any] = {}
        self.state: Dict[str, Any] = {}
        self._ctx = None

    def install_key(self, kind: KeyKind, blob: bytes) -> None:
        """Deserialize one uploaded blob (``ValueError`` if malformed).
        Galois uploads extend the held set (an element sent again, at a
        higher level, replaces its key); public and relin replace."""
        key = _KEY_READERS[kind](blob, self.params)
        held = self.keystore.get(kind)
        if kind is KeyKind.GALOIS and held is not None:
            held.update(key.keys)
        else:
            self.keystore[kind] = key

    def drop_keys(self) -> None:
        """Key eviction: every key becomes unreachable.  ``state`` stays, and
        so does the context: it holds no key, and the kernels parked in
        ``state`` evaluate (and are metered) on it."""
        self.keystore.clear()

    def context(self):
        """The restricted evaluation context, built on first use."""
        if self._ctx is None:
            self._ctx = build_restricted_context(
                self.params, self.keystore, self._context_seed)
        return self._ctx

    @contextlib.contextmanager
    def metered(self):
        """Yields a counter that holds, on exit, the kernel operations the
        body ran on this session's context."""
        ctx = self.context()
        before = Counter(ctx.counts)
        delta: Counter = Counter()
        yield delta
        delta.update(ctx.counts - before)

    def run(self, fn: ServedOp, meta: Dict, cts: List[Ciphertext],
            ) -> Tuple[List[Ciphertext], Dict, Counter]:
        """Run one served op; returns ``(cts, meta, counter_delta)``."""
        with self.metered() as counters:
            result = fn(self.context(), self.state, meta, cts)
        return (*_normalize_result(result), counters)


def build_restricted_context(params: EncryptionParameters,
                             keystore: Dict[KeyKind, Any],
                             context_seed: bytes):
    """A secret-key-free evaluator built from *uploaded* keys only.

    A context makes its own key pair only when something asks for it
    (``RlweContext.keygen`` is lazy), and nothing served does: every
    secret-key operation — ``decrypt``/``decrypt_many``, ``noise_budget``,
    ``encrypt_symmetric*`` — is mechanically forbidden (they all reach the
    key through ``RlweContext._secret_ntt``) and relinearization/rotation
    resolve, at each use, to whatever *keystore* holds then — the server
    cannot fabricate either, and a key the keystore dropped is gone.  So
    no secret key, not even an unrelated one, sits in the worker.
    """
    from repro.hecore import context_for

    ctx = context_for(params, seed=context_seed)

    def _forbidden_secret_key(_base):
        raise ProtocolViolation(
            "offload server attempted a secret-key operation (decrypt, "
            "noise budget or symmetric encrypt); the secret key never "
            "leaves the client"
        )

    def _session_relin_keys():
        key = keystore.get(KeyKind.RELIN)
        if key is None:
            raise MissingEvaluationKey(
                "relinearization key not uploaded for this session")
        return key

    ctx._secret_ntt = _forbidden_secret_key
    ctx.relin_keys = _session_relin_keys
    ctx.held_galois_keys = lambda: keystore.get(KeyKind.GALOIS)
    return ctx


def _normalize_result(result) -> Tuple[List[Ciphertext], Dict]:
    if result is None:
        return [], {}
    if isinstance(result, tuple) and len(result) == 2:
        cts, meta = result
        return list(cts), dict(meta or {})
    return list(result), {}
