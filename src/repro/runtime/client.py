"""The offload client: connect, handshake, upload keys, request compute.

:class:`OffloadClient` speaks the frame protocol over any
:class:`~repro.runtime.transport.Transport`.  One background *pump* task
reads frames off the connection and resolves per-request futures, so many
requests can be in flight concurrently (the server schedules them fairly).

Reliability knobs match what a battery-powered client on a lossy link
needs:

* connection retries with exponential backoff (in ``TcpTransport.connect``),
* per-request timeouts, retried with exponential backoff up to
  ``max_retries`` before surfacing :class:`OffloadTimeout`,
* **idempotent retries**: one ``request_id`` per *logical* request, reused
  verbatim by every resubmission, so the server's dedupe window can replay
  a lost ``RESULT`` instead of executing the handler twice,
* **reconnect and replay**: when the connection dies mid-request the client
  opens a fresh transport, presents its resume token (``RESUME``), and
  resubmits the same request ids — the server-side session (keystore,
  state, dedupe window) survives, so megabytes of Galois keys are never
  re-uploaded,
* ``PING``/``PONG`` heartbeats (``heartbeat_s``) that detect a dead peer
  between requests instead of at the next timeout,
* ``BUSY`` backpressure honored by waiting the server's ``retry_after`` hint
  before re-submitting (surfacing :class:`ServerBusy` when retries run out),
* seed-compressed symmetric uploads by default (``compress_seed=True``) —
  the paper's halve-the-upload optimization (§4.3) applies on the wire
  exactly as in the analytical model.

Transfer accounting goes through ``transport.account_upload`` /
``account_download`` with *logical* ciphertext bytes
(:meth:`Ciphertext.size_bytes`), charged **once per logical request** no
matter how many times the frames are retried — a :class:`SimulatedLink`
therefore reproduces the in-process :class:`CostLedger` numbers exactly,
faults or no faults.

Connection-level ``ERROR`` frames that arrive mid-session (``request_id ==
0``, e.g. the server's "unexpected frame" complaint) do **not** kill the
pump or the in-flight requests: they are recorded and surfaced as an
:class:`OffloadError` on the *next* API call.
"""

from __future__ import annotations

import asyncio
import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Awaitable,
    Callable,
    Deque,
    Dict,
    Iterable,
    List,
    Optional,
    Tuple,
)

from repro.hecore.ciphertext import Ciphertext
from repro.hecore.params import EncryptionParameters
from repro.hecore.serialize import (
    deserialize_ciphertext,
    serialize_ciphertext,
    serialize_galois_keys,
    serialize_public_key,
    serialize_relin_key,
)
from repro.runtime.framing import (
    MAX_FRAME_BYTES,
    Busy,
    Compute,
    Error,
    ErrorCode,
    FrameError,
    Hello,
    HelloAck,
    KeyAck,
    KeyUpload,
    KeyKind,
    MessageType,
    Ping,
    Pong,
    Result,
    Resume,
    ResumeAck,
)
from repro.runtime.transport import (
    MAX_BACKOFF_S,
    TcpTransport,
    Transport,
    backoff_delays,
)

#: A coroutine factory producing a fresh connected transport; used for the
#: initial connection and for every reconnect-and-resume.
TransportFactory = Callable[[], Awaitable[Transport]]


class OffloadError(RuntimeError):
    """The server answered with a typed protocol error."""

    def __init__(self, message: str, code: Optional[ErrorCode] = None):
        super().__init__(message)
        self.code = code


class OffloadTimeout(OffloadError):
    """A request exhausted its timeout retries without a reply."""


class ServerBusy(OffloadError):
    """The server's queue stayed full through every retry."""

    def __init__(self, message: str, retry_after_ms: int = 0):
        super().__init__(message)
        self.retry_after_ms = retry_after_ms


@dataclass
class ClientStats:
    """Client-side reliability counters (one instance per client)."""

    attempts: int = 0        # COMPUTE frames sent (incl. resubmissions)
    retries: int = 0         # resubmissions of an already-sent request id
    timeouts: int = 0        # attempts that timed out waiting for a reply
    busy_waits: int = 0      # BUSY replies honored with a backoff wait
    resumes: int = 0         # successful RESUME reattachments
    failovers: int = 0       # fresh sessions opened after a rejected RESUME
    key_reuploads: int = 0   # KEYS_EVICTED signals answered with re-uploads
    reconnect_failures: int = 0
    pings_sent: int = 0
    pongs_received: int = 0
    session_errors: int = 0  # anonymous ERROR frames recorded, not fatal
    half_open_resets: int = 0  # connections declared dead after silent timeouts

    def snapshot(self) -> Dict:
        return dict(self.__dict__)


class OffloadClient:
    """One session against an :class:`OffloadServer`."""

    def __init__(self, params: EncryptionParameters,
                 host: Optional[str] = None, port: Optional[int] = None, *,
                 transport: Optional[Transport] = None,
                 transport_factory: Optional[TransportFactory] = None,
                 request_timeout: float = 30.0, max_retries: int = 4,
                 backoff_s: float = 0.05,
                 max_backoff_s: float = MAX_BACKOFF_S,
                 suspect_after: int = 2, connect_retries: int = 3,
                 compress_seed: bool = True,
                 auto_resume: bool = True,
                 failover: bool = False,
                 on_failover: Optional[Callable[["OffloadClient"],
                                               object]] = None,
                 heartbeat_s: Optional[float] = None,
                 max_frame_bytes: int = MAX_FRAME_BYTES):
        if (transport is None and transport_factory is None
                and (host is None or port is None)):
            raise ValueError(
                "need host/port, an explicit transport, or a factory")
        self.params = params
        self.host = host
        self.port = port
        self.request_timeout = request_timeout
        self.max_retries = max_retries
        self.backoff_s = backoff_s
        #: Retry backoff doubles per attempt but never past this ceiling —
        #: an uncapped exponential turns a retry budget of 40 into hours.
        self.max_backoff_s = max_backoff_s
        #: Consecutive silent timeouts on one connection before the client
        #: declares it half-open and reconnects.  A NAT, a proxy, or a fork
        #: that duplicated the peer's socket can leave a TCP connection
        #: writable-but-unread forever; without this the retry loop would
        #: resubmit into the void and never trigger RESUME/failover.
        self.suspect_after = max(1, suspect_after)
        self.connect_retries = connect_retries
        self.compress_seed = compress_seed
        self.auto_resume = auto_resume
        #: When a RESUME is rejected (the owning fleet worker died and took
        #: the session with it), fall back to a fresh HELLO handshake and
        #: re-provision cached keys instead of failing the session.
        self.failover = failover or on_failover is not None
        #: Application hook invoked after a successful failover handshake,
        #: for rebuilding server-side session state (may be a coroutine).
        self.on_failover = on_failover
        self.heartbeat_s = heartbeat_s
        self.max_frame_bytes = max_frame_bytes
        self.transport = transport
        self._transport_factory = transport_factory
        self.session_id: Optional[int] = None
        self.server_queue_limit: Optional[int] = None
        self.server_concurrency: Optional[int] = None
        self.banner: Optional[str] = None
        self.resume_token: Optional[bytes] = None
        self.grace_period_ms: int = 0
        self.stats = ClientStats()
        #: Serialized key blobs by kind, exactly as uploaded (Galois blobs
        #: accumulate).  This is what KEYS_EVICTED re-uploads and failover
        #: re-provisioning replay — keys are regenerated from bytes, never
        #: from the secret key, so the cache mirrors the server verbatim.
        self._key_blob_cache: Dict[KeyKind, List[bytes]] = {}
        #: A failover handshake succeeded but key re-provisioning was cut
        #: short; the next successful reattach finishes the job.
        self._reprovision_needed = False
        self._rid = itertools.count(1)
        self._pending: Dict[int, asyncio.Future] = {}
        self._key_waiters: Dict[KeyKind, Deque[asyncio.Future]] = {}
        self._pump_task: Optional[asyncio.Task] = None
        self._heartbeat_task: Optional[asyncio.Task] = None
        self._resume_lock = asyncio.Lock()
        self._conn_error: Optional[Exception] = None
        self._session_errors: Deque[Error] = deque(maxlen=16)
        self._closed = False

    # ------------------------------------------------------------ lifecycle
    async def _new_transport(self) -> Transport:
        if self._transport_factory is not None:
            return await self._transport_factory()
        if self.host is None or self.port is None:
            raise OffloadError(
                "cannot open a new connection: no host/port or factory")
        return await TcpTransport.connect(
            self.host, self.port, retries=self.connect_retries,
            backoff_s=self.backoff_s, max_frame_bytes=self.max_frame_bytes)

    async def connect(self) -> "OffloadClient":
        """Open the transport, handshake, and start the reader pump.

        A ``BUSY`` answer to ``HELLO`` is fleet admission control (the
        session cap is reached): the client honors ``retry_after_ms`` and
        retries on a fresh connection, surfacing :class:`ServerBusy` when
        ``max_retries`` run out.
        """
        delays = backoff_delays(self.backoff_s, self.max_backoff_s)
        for attempt in range(self.max_retries + 1):
            if self.transport is None:
                self.transport = await self._new_transport()
            hello = Hello.from_params(self.params)
            await self.transport.send_frame(MessageType.HELLO, hello.pack())
            mtype, _flags, payload = await self.transport.recv_frame()
            if mtype is not MessageType.BUSY:
                break
            busy = Busy.unpack(payload)
            self.stats.busy_waits += 1
            await self.transport.close()
            self.transport = None
            if attempt == self.max_retries or not self._can_reconnect():
                raise ServerBusy(
                    f"admission rejected: fleet at capacity "
                    f"({attempt + 1} attempt(s))", busy.retry_after_ms)
            await asyncio.sleep(
                max(busy.retry_after_ms / 1000.0, next(delays)))
        if mtype is MessageType.ERROR:
            err = Error.unpack(payload)
            raise OffloadError(f"handshake rejected: {err.message}", err.code)
        if mtype is not MessageType.HELLO_ACK:
            raise OffloadError(f"expected HELLO_ACK, got {mtype.name}")
        self._adopt(HelloAck.unpack(payload))
        self._pump_task = asyncio.ensure_future(self._pump())
        if self.heartbeat_s is not None and self.heartbeat_s > 0:
            self._heartbeat_task = asyncio.ensure_future(self._heartbeat())
        return self

    def _adopt(self, ack: HelloAck) -> None:
        """Take on the session a HELLO_ACK grants (first connect, failover)."""
        self.session_id = ack.session_id
        self.server_queue_limit = ack.queue_limit
        self.server_concurrency = ack.concurrency
        self.banner = ack.banner
        self.resume_token = ack.resume_token or None
        self.grace_period_ms = ack.grace_ms

    async def close(self) -> None:
        """Send BYE (best effort) and tear the connection down."""
        if self._closed:
            return
        self._closed = True
        for task in (self._heartbeat_task, self._pump_task):
            if task is not None:
                task.cancel()
                try:
                    await task
                except asyncio.CancelledError:
                    pass
        self._heartbeat_task = None
        self._pump_task = None
        if self.transport is not None:
            if self._conn_error is None:
                try:
                    await self.transport.send_frame(MessageType.BYE)
                except (ConnectionError, OSError):
                    pass
            await self.transport.close()
        self._fail_waiters(OffloadError("connection closed"))

    async def __aenter__(self) -> "OffloadClient":
        return await self.connect()

    async def __aexit__(self, *_exc) -> None:
        await self.close()

    # ------------------------------------------------------------ the pump
    async def _pump(self) -> None:
        try:
            while True:
                mtype, _flags, payload = await self.transport.recv_frame()
                if mtype is MessageType.RESULT:
                    result = Result.unpack(payload)
                    self._resolve(result.request_id, ("result", result))
                elif mtype is MessageType.BUSY:
                    busy = Busy.unpack(payload)
                    self._resolve(busy.request_id, ("busy", busy))
                elif mtype is MessageType.KEY_ACK:
                    ack = KeyAck.unpack(payload)
                    waiters = self._key_waiters.get(ack.kind)
                    while waiters:
                        waiter = waiters.popleft()
                        if not waiter.done():
                            waiter.set_result(ack)
                            break
                elif mtype is MessageType.PONG:
                    self.stats.pongs_received += 1
                elif mtype is MessageType.ERROR:
                    err = Error.unpack(payload)
                    if err.request_id and err.request_id in self._pending:
                        self._resolve(err.request_id, ("error", err))
                    else:
                        # Connection-scoped (request_id == 0) or stale error:
                        # record it for the next API call instead of killing
                        # the pump and every in-flight request with it.
                        self.stats.session_errors += 1
                        self._session_errors.append(err)
                elif mtype is MessageType.BYE:
                    raise ConnectionError("server said BYE")
                # Anything else is a server bug; ignore rather than dying.
        except asyncio.CancelledError:
            raise
        except (ConnectionError, FrameError, OSError) as exc:
            self._conn_error = exc
            self._fail_waiters(exc)

    async def _heartbeat(self) -> None:
        nonce = itertools.count(1)
        while True:
            await asyncio.sleep(self.heartbeat_s)
            if self._conn_error is not None:
                continue  # a reconnect (or the next request) will recover
            try:
                await self.transport.send_frame(
                    MessageType.PING, Ping(next(nonce)).pack())
                self.stats.pings_sent += 1
            except (ConnectionError, OSError) as exc:
                if self._conn_error is None:
                    self._conn_error = exc

    def _resolve(self, request_id: int, value) -> None:
        future = self._pending.pop(request_id, None)
        if future is not None and not future.done():
            future.set_result(value)

    @staticmethod
    def _abandon(future: Optional[asyncio.Future]) -> None:
        """Drop a future no one will await again.  The pump may have failed
        it concurrently (``_fail_waiters``); mark that exception retrieved
        so the event loop doesn't log it at garbage collection."""
        if future is not None and future.done() and not future.cancelled():
            future.exception()

    def _fail_waiters(self, exc: Exception) -> None:
        for future in list(self._pending.values()):
            if not future.done():
                future.set_exception(exc)
        self._pending.clear()
        for waiters in self._key_waiters.values():
            for future in waiters:
                if not future.done():
                    future.set_exception(exc)
            waiters.clear()

    def _check_closed(self) -> None:
        if self._closed:
            raise OffloadError("client is closed")

    def _raise_session_error(self) -> None:
        """Surface a recorded connection-scoped ERROR frame, once."""
        if self._session_errors:
            err = self._session_errors.popleft()
            raise OffloadError(
                f"server error [{err.code.name}]: {err.message}", err.code)

    @property
    def session_error(self) -> Optional[Error]:
        """The oldest unraised connection-scoped error, if any (peek)."""
        return self._session_errors[0] if self._session_errors else None

    # --------------------------------------------------------- resumption
    def _can_reconnect(self) -> bool:
        return (self._transport_factory is not None
                or (self.host is not None and self.port is not None))

    def _can_resume(self) -> bool:
        return (self.auto_resume and self.resume_token is not None
                and self._can_reconnect())

    def _suspect_half_open(self, silent_timeouts: int, what: str) -> int:
        """One more silent timeout; returns the new streak.  At
        ``suspect_after`` in a row the link is taken for half-open (writes
        land, nothing comes back) and declared lost, so the next attempt
        reconnects via RESUME/failover instead of resending into the void."""
        silent_timeouts += 1
        if (silent_timeouts >= self.suspect_after
                and self._conn_error is None and self._can_resume()):
            self.stats.half_open_resets += 1
            self._conn_error = ConnectionError(
                f"suspected half-open connection: {silent_timeouts} "
                f"consecutive {what} timeouts")
            return 0
        return silent_timeouts

    async def resume(self) -> None:
        """Reconnect and reattach to the server-side session.

        Safe to call concurrently (serialized internally); a no-op when the
        connection is healthy.  Raises :class:`OffloadError` when the server
        rejects the token or every reconnect attempt fails.
        """
        async with self._resume_lock:
            if self._closed:
                raise OffloadError("client is closed")
            if self._conn_error is None:
                return
            if self.resume_token is None or self.session_id is None:
                raise OffloadError(
                    f"connection lost: {self._conn_error} "
                    f"(no resume token to reattach with)")
            if self._pump_task is not None:
                self._pump_task.cancel()
                try:
                    await self._pump_task
                except asyncio.CancelledError:
                    pass
                self._pump_task = None
            if self.transport is not None:
                await self.transport.close()
            delays = backoff_delays(self.backoff_s, self.max_backoff_s)
            last_exc: Optional[Exception] = None
            for attempt in range(self.max_retries + 1):
                transport: Optional[Transport] = None
                try:
                    transport = await self._new_transport()
                    await transport.send_frame(
                        MessageType.RESUME,
                        Resume(self.session_id, self.resume_token).pack())
                    mtype, _flags, payload = await asyncio.wait_for(
                        transport.recv_frame(), self.request_timeout)
                except (ConnectionError, OSError, FrameError,
                        asyncio.TimeoutError) as exc:
                    last_exc = exc
                    if transport is not None:
                        await transport.close()
                    if attempt < self.max_retries:
                        await asyncio.sleep(next(delays))
                    continue
                if mtype is MessageType.ERROR:
                    err = Error.unpack(payload)
                    await transport.close()
                    if (err.code is ErrorCode.RESUME_REJECTED
                            and self.failover):
                        # The owning worker lost the session (killed and
                        # restarted, or the grace period lapsed): open a
                        # fresh session and re-provision from the cache.
                        try:
                            await self._failover()
                            return
                        except (ConnectionError, OSError, FrameError,
                                asyncio.TimeoutError) as exc:
                            last_exc = exc
                            if attempt < self.max_retries:
                                await asyncio.sleep(next(delays))
                            continue
                    self.stats.reconnect_failures += 1
                    raise OffloadError(
                        f"resume rejected: {err.message}", err.code)
                if mtype is not MessageType.RESUME_ACK:
                    last_exc = OffloadError(
                        f"expected RESUME_ACK, got {mtype.name}")
                    await transport.close()
                    continue
                ResumeAck.unpack(payload)  # validates the frame
                self.transport = transport
                self._conn_error = None
                self._pump_task = asyncio.ensure_future(self._pump())
                self.stats.resumes += 1
                if self._reprovision_needed:
                    # A previous failover was cut short mid-provisioning;
                    # finish it now (Galois re-uploads merge server-side).
                    await self._reupload_cached_keys(ensure_live=False)
                    self._reprovision_needed = False
                return
            self.stats.reconnect_failures += 1
            raise OffloadError(
                f"resume failed after {self.max_retries + 1} attempt(s): "
                f"{last_exc}")

    async def _failover(self) -> None:
        """Fresh-session fallback after a rejected RESUME (one attempt).

        Performs a full HELLO handshake on a new connection, adopts the new
        session id and resume token, restarts the pump, replays every
        cached key blob (uncharged — provisioning is the offline phase,
        exactly like the originals), then invokes ``on_failover`` so the
        application can rebuild server-side state.  In-flight request ids
        stay valid: their retry loops resubmit against the new session.
        Called under ``_resume_lock``; raises connection-class errors so
        the resume retry loop treats a failed attempt as retryable.
        """
        transport = await self._new_transport()
        try:
            await transport.send_frame(
                MessageType.HELLO, Hello.from_params(self.params).pack())
            mtype, _flags, payload = await asyncio.wait_for(
                transport.recv_frame(), self.request_timeout)
        except BaseException:
            await transport.close()
            raise
        if mtype is MessageType.BUSY:
            busy = Busy.unpack(payload)
            self.stats.busy_waits += 1
            await transport.close()
            await asyncio.sleep(max(busy.retry_after_ms / 1000.0,
                                    self.backoff_s))
            raise ConnectionError("fleet at capacity during failover")
        if mtype is MessageType.ERROR:
            err = Error.unpack(payload)
            await transport.close()
            self.stats.reconnect_failures += 1
            raise OffloadError(
                f"failover handshake rejected: {err.message}", err.code)
        if mtype is not MessageType.HELLO_ACK:
            await transport.close()
            raise ConnectionError(
                f"failover expected HELLO_ACK, got {mtype.name}")
        self._adopt(HelloAck.unpack(payload))
        self.transport = transport
        self._conn_error = None
        self._pump_task = asyncio.ensure_future(self._pump())
        self.stats.failovers += 1
        self._reprovision_needed = True
        await self._reupload_cached_keys(ensure_live=False)
        self._reprovision_needed = False
        if self.on_failover is not None:
            result = self.on_failover(self)
            if asyncio.iscoroutine(result):
                await result

    async def _ensure_live(self) -> None:
        """Raise, or transparently resume, when the connection is down."""
        if self._conn_error is None:
            return
        if not self._can_resume():
            raise OffloadError(f"connection lost: {self._conn_error}")
        await self.resume()

    # ------------------------------------------------------------- key sync
    async def upload_keys(self, public=None, relin=None, galois=None) -> None:
        """Upload evaluation keys (the offline provisioning phase).

        Key uploads are *not* charged to the transfer ledger — matching the
        in-process protocol, which treats key/database provisioning as the
        offline phase outside the per-inference costs (§5.2).  Each upload
        follows the client's retry policy (timeout + exponential backoff up
        to ``max_retries``); concurrent uploads of the same kind are safe —
        acknowledgements are matched to waiters first-in first-out.
        """
        self._check_closed()
        self._raise_session_error()
        uploads = []
        if public is not None:
            uploads.append((KeyKind.PUBLIC, serialize_public_key(public)))
        if relin is not None:
            uploads.append((KeyKind.RELIN, serialize_relin_key(relin)))
        if galois is not None:
            uploads.append((KeyKind.GALOIS, serialize_galois_keys(galois)))
        for kind, blob in uploads:
            self._remember_key_blob(kind, blob)
            await self._upload_blob(kind, blob)

    def _remember_key_blob(self, kind: KeyKind, blob: bytes) -> None:
        """Cache the blob for KEYS_EVICTED / failover re-provisioning.

        Galois uploads are incremental server-side, so their blobs
        accumulate; public and relin uploads replace the previous blob.
        """
        if kind is KeyKind.GALOIS:
            self._key_blob_cache.setdefault(kind, []).append(blob)
        else:
            self._key_blob_cache[kind] = [blob]

    async def _reupload_cached_keys(self, *, charge: bool = False,
                                    ensure_live: bool = True) -> None:
        """Replay every cached key blob to the current session.

        ``charge=True`` bills the ledger the blob bytes once per call —
        the KEYS_EVICTED path, where re-upload traffic is a real online
        cost the eviction caused.  Failover re-provisioning stays
        uncharged, like the original offline uploads it replays.
        """
        for kind, blobs in list(self._key_blob_cache.items()):
            for blob in blobs:
                if charge:
                    self.transport.account_upload(len(blob))
                await self._upload_blob(kind, blob, ensure_live=ensure_live)

    async def _upload_blob(self, kind: KeyKind, blob: bytes, *,
                           ensure_live: bool = True) -> None:
        """One key blob with the client's retry policy.

        ``ensure_live=False`` is the re-provisioning path, called while
        ``_resume_lock`` is already held: connection failures re-raise for
        the caller's retry loop instead of recursing into ``resume()``.
        """
        delays = backoff_delays(self.backoff_s, self.max_backoff_s)
        payload = KeyUpload(kind, blob).pack()
        silent_timeouts = 0
        for attempt in range(self.max_retries + 1):
            self._check_closed()
            if ensure_live:
                await self._ensure_live()
            waiter = asyncio.get_running_loop().create_future()
            self._key_waiters.setdefault(kind, deque()).append(waiter)
            try:
                await self.transport.send_frame(
                    MessageType.KEY_UPLOAD, payload)
                await asyncio.wait_for(waiter, self.request_timeout)
                return
            except asyncio.TimeoutError:
                self._discard_key_waiter(kind, waiter)
                if attempt == self.max_retries:
                    raise OffloadTimeout(
                        f"no KEY_ACK for {kind.name} key within "
                        f"{self.request_timeout}s "
                        f"({attempt + 1} attempt(s))")
                if ensure_live:
                    silent_timeouts = self._suspect_half_open(
                        silent_timeouts, "KEY_ACK")
                await asyncio.sleep(next(delays))
            except (ConnectionError, OSError, FrameError) as exc:
                self._discard_key_waiter(kind, waiter)
                if self._conn_error is None:
                    self._conn_error = exc
                if not ensure_live:
                    raise
                if attempt == self.max_retries or not self._can_resume():
                    raise OffloadError(
                        f"connection lost during {kind.name} key "
                        f"upload: {exc}")
                await asyncio.sleep(next(delays))

    def _discard_key_waiter(self, kind: KeyKind,
                            waiter: asyncio.Future) -> None:
        waiters = self._key_waiters.get(kind)
        if waiters is not None:
            try:
                waiters.remove(waiter)
            except ValueError:
                pass  # already drained by _fail_waiters
        self._abandon(waiter)

    # -------------------------------------------------------------- compute
    async def request(self, op: str, cts: Iterable[Ciphertext] = (),
                      meta: Optional[dict] = None, *,
                      timeout: Optional[float] = None,
                      retries: Optional[int] = None,
                      account: bool = True,
                      ) -> Tuple[List[Ciphertext], dict]:
        """Submit one compute request; returns (result_cts, result_meta).

        One ``request_id`` is allocated per *logical* request and reused by
        every resubmission — timeouts, ``BUSY`` backoff, and reconnects all
        replay the same id, which the server dedupes (exactly-once handler
        execution).  Serialization happens once; every (re)submission reuses
        the blobs.  The transfer ledger is charged once, up front, per
        logical request — retries are a transport artifact the analytical
        model never sees.  ``account=False`` skips ledger accounting (for
        provisioning uploads that the analytical model treats as offline).
        """
        self._check_closed()
        self._raise_session_error()
        timeout = self.request_timeout if timeout is None else timeout
        retries = self.max_retries if retries is None else retries
        cts = list(cts)
        blobs = tuple(serialize_ciphertext(ct, compress_seed=self.compress_seed)
                      for ct in cts)
        request_id = next(self._rid)
        payload = Compute(request_id, op, dict(meta or {}), blobs).pack()
        if account:
            for ct in cts:
                self.transport.account_upload(ct.size_bytes())
        delays = backoff_delays(self.backoff_s, self.max_backoff_s)
        last_busy: Optional[Busy] = None
        silent_timeouts = 0
        for attempt in range(retries + 1):
            self._check_closed()
            await self._ensure_live()
            future = asyncio.get_running_loop().create_future()
            self._pending[request_id] = future
            self.stats.attempts += 1
            if attempt:
                self.stats.retries += 1
            try:
                await self.transport.send_frame(MessageType.COMPUTE, payload)
                kind, reply = await asyncio.wait_for(future, timeout)
            except asyncio.TimeoutError:
                self._pending.pop(request_id, None)
                self._abandon(future)
                self.stats.timeouts += 1
                if attempt == retries:
                    raise OffloadTimeout(
                        f"request {op!r} timed out after {attempt + 1} "
                        f"attempt(s) of {timeout}s")
                silent_timeouts = self._suspect_half_open(
                    silent_timeouts, "request")
                await asyncio.sleep(next(delays))
                continue
            except (ConnectionError, OSError, FrameError) as exc:
                self._pending.pop(request_id, None)
                self._abandon(future)
                if self._conn_error is None:
                    self._conn_error = exc
                if attempt == retries or not self._can_resume():
                    raise OffloadError(
                        f"request {op!r}: connection lost: {exc}")
                await asyncio.sleep(next(delays))
                continue
            silent_timeouts = 0  # any reply proves the connection is live
            if kind == "result":
                out_cts = [deserialize_ciphertext(blob, self.params)
                           for blob in reply.blobs]
                if account:
                    for ct in out_cts:
                        self.transport.account_download(ct.size_bytes())
                return out_cts, reply.meta
            if kind == "busy":
                last_busy = reply
                self.stats.busy_waits += 1
                if attempt == retries:
                    break
                await asyncio.sleep(
                    max(reply.retry_after_ms / 1000.0, next(delays)))
                continue
            err: Error = reply
            if (err.code is ErrorCode.KEYS_EVICTED
                    and self._key_blob_cache and attempt < retries):
                # The server's key-store LRU dropped our keys while idle.
                # Re-provision from the cache — charged once per eviction
                # event, retries within the upload are free — and resubmit
                # the same request id (nothing executed server-side).
                self.stats.key_reuploads += 1
                await self._reupload_cached_keys(charge=account)
                continue
            raise OffloadError(
                f"request {op!r} failed [{err.code.name}]: {err.message}",
                err.code)
        raise ServerBusy(
            f"server busy: request {op!r} rejected "
            f"{retries + 1} time(s)",
            last_busy.retry_after_ms if last_busy else 0)
