"""The offload client: connect, handshake, upload keys, request compute.

:class:`OffloadClient` speaks the frame protocol over any
:class:`~repro.runtime.transport.Transport`.  One background *pump* task
reads frames off the connection and resolves per-request futures, so many
requests can be in flight concurrently (the server schedules them fairly).

What a battery-powered client on a lossy link needs lives in two bodies
(docs/PROTOCOL.md, *The client*).  **One handshake** (``_handshake``, under
the ``_open`` retry loop) starts every connection: ``connect``, ``resume``
and failover.  **One attempt loop** (``_await_reply``) runs under every
frame that awaits a reply, ``COMPUTE`` and ``KEY_UPLOAD``, and reattaches a
lost connection through ``resume``, so keys are never re-uploaded.
``request`` reuses one ``request_id`` per *logical* request, so the
server's dedupe window replays a lost ``RESULT`` instead of running the
handler twice, and charges the client's own ``ledger`` (a
:class:`~repro.core.protocol.CostLedger`) once, in logical ciphertext
bytes: over any transport it reads what the in-process
``ClientAidedSession`` charges, faults or no faults.  A
connection-scoped ``ERROR`` (``request_id == 0``) does not kill the pump:
it is recorded and raised on the next API call.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
from collections import deque
from dataclasses import dataclass
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

from repro.core.protocol import CostLedger
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
    PAYLOADS,
    TRANSITIONS,
    Busy,
    Compute,
    Error,
    ErrorCode,
    FrameError,
    Hello,
    KeyAck,
    KeyUpload,
    KeyKind,
    MessageType,
    Ping,
    Resume,
    SessionState,
)
from repro.runtime.transport import TcpTransport, Transport, backoff_delays

#: A coroutine factory producing a fresh connected transport; used for the
#: initial connection and for every reconnect-and-resume.
TransportFactory = Callable[[], Awaitable[Transport]]

#: Consecutive silent timeouts on one connection before the client
#: declares it half-open and reconnects.  A NAT, a proxy, or a fork
#: that duplicated the peer's socket can leave a TCP connection
#: writable-but-unread forever; without this the retry loop would
#: resubmit into the void and never trigger RESUME/failover.
SUSPECT_AFTER = 2

#: TCP connection attempts retried per fresh transport.  The other fixed
#: policy is the transport's own: retry delays stop doubling at
#: ``MAX_BACKOFF_S``, frames stop at ``MAX_FRAME_BYTES``.
CONNECT_RETRIES = 3

#: What a dead or misbehaving link raises; every retry loop treats them alike.
_LINK_ERRORS = (ConnectionError, OSError, FrameError)

#: What answers a COMPUTE, matched to its request by ``request_id``.
_REQUEST_REPLIES = (*TRANSITIONS[SessionState.ATTACHED,
                                 MessageType.COMPUTE].replies,
                    MessageType.ERROR)


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
                 auto_resume: bool = True,
                 failover: bool = False,
                 heartbeat_s: Optional[float] = None):
        self.params = params
        self.request_timeout = request_timeout
        self.max_retries = max_retries
        self.backoff_s = backoff_s
        self.auto_resume = auto_resume
        #: When a RESUME is rejected (the owning fleet worker died and took
        #: the session with it), fall back to a fresh HELLO handshake and
        #: re-provision cached keys instead of failing the session.
        self.failover = failover
        self.heartbeat_s = heartbeat_s
        if transport_factory is None and host is not None and port is not None:
            def transport_factory() -> Awaitable[Transport]:
                return TcpTransport.connect(host, port, retries=CONNECT_RETRIES,
                                            backoff_s=self.backoff_s)
        if transport is None and transport_factory is None:
            raise ValueError(
                "need host/port, an explicit transport, or a factory")
        self.transport = transport
        #: Opens each fresh connection; ``None`` when the caller's one
        #: ``transport=`` is all there is (nothing to reconnect with).
        self._transport_factory = transport_factory
        self.session_id: Optional[int] = None
        self.server_queue_limit: Optional[int] = None
        self.server_concurrency: Optional[int] = None
        self.banner: Optional[str] = None
        self.resume_token: Optional[bytes] = None
        self.grace_period_ms: int = 0
        self.stats = ClientStats()
        #: The logical transfer ledger (§5.2): ciphertext bytes and rounds,
        #: charged once per logical request and per KEYS_EVICTED replay,
        #: never per retry; the transport's own counters are physical.
        self.ledger = CostLedger()
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
    async def _handshake(self, first, transport: Optional[Transport] = None):
        """The one way a connection starts: on a fresh transport (or the
        caller-supplied first one) send the *first* record and await its one
        reply under ``request_timeout``.  ``BUSY`` is :class:`ServerBusy`
        with the hint, ``ERROR`` an :class:`OffloadError` with its code,
        anything but the ack *first*'s opening row names a
        :class:`FrameError`, each closing the transport; the ack makes it
        the live connection and is returned."""
        name = first.TYPE.name
        expect = TRANSITIONS[SessionState.OPENING, first.TYPE].replies[0]
        if transport is None:
            transport = await self._transport_factory()
        try:
            await transport.send(first)
            mtype, _flags, reply = await asyncio.wait_for(
                transport.recv_frame(), self.request_timeout)
            if mtype is MessageType.BUSY:
                self.stats.busy_waits += 1
                raise ServerBusy(f"{name} refused: fleet at capacity",
                                 Busy.unpack(reply).retry_after_ms)
            if mtype is MessageType.ERROR:
                err = Error.unpack(reply)
                raise OffloadError(f"{name} rejected: {err.message}",
                                   err.code)
            if mtype is not expect:
                raise FrameError(f"expected {expect.name}, got {mtype.name}")
            ack = PAYLOADS[expect].unpack(reply)
        except BaseException:
            await transport.close()
            raise
        self.transport = transport
        self._conn_error = None
        self._pump_task = asyncio.ensure_future(self._pump())
        return ack

    async def _hello(self, transport: Optional[Transport] = None) -> None:
        """Open a session (first connect, failover) and take on what its
        HELLO_ACK grants."""
        ack = await self._handshake(Hello.from_params(self.params), transport)
        self.session_id = ack.session_id
        self.server_queue_limit = ack.queue_limit
        self.server_concurrency = ack.concurrency
        self.banner = ack.banner
        self.resume_token = ack.resume_token or None
        self.grace_period_ms = ack.grace_ms

    async def _open(self, attempt: Callable[[], Awaitable[None]],
                    what: str) -> None:
        """Repeat one handshake *attempt* until it succeeds.  A busy fleet
        (the session cap is reached) is waited out for its ``retry_after``
        hint, a silent or broken link backed off from — ``max_retries``
        times, while there is a way to reconnect, before the failure
        surfaces.  A rejection (``ERROR``) is final at once."""
        delays = backoff_delays(self.backoff_s)
        for n in range(1, self.max_retries + 2):
            wait_s = 0.0
            try:
                return await attempt()
            except ServerBusy as busy:
                failure, wait_s = busy, busy.retry_after_ms / 1000.0
            except asyncio.TimeoutError:
                failure = OffloadTimeout(
                    f"{what}: no reply within {self.request_timeout}s "
                    f"({n} attempt(s))")
            except _LINK_ERRORS as exc:
                failure = OffloadError(
                    f"{what} failed after {n} attempt(s): {exc}")
            if n > self.max_retries or self._transport_factory is None:
                raise failure
            await asyncio.sleep(max(wait_s, next(delays)))

    async def connect(self) -> "OffloadClient":
        """Open the transport, handshake, and start the reader pump
        (retrying as ``_open`` does; a caller-supplied ``transport=`` is
        spent on the first attempt)."""
        async def hello() -> None:
            first, self.transport = self.transport, None
            await self._hello(first)

        await self._open(hello, "connect")
        if self.heartbeat_s is not None and self.heartbeat_s > 0:
            self._heartbeat_task = asyncio.ensure_future(self._heartbeat())
        return self

    @staticmethod
    async def _cancel(task: Optional[asyncio.Task]) -> None:
        if task is not None:
            task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await task

    async def close(self) -> None:
        """Send BYE (best effort) and tear the connection down."""
        if self._closed:
            return
        self._closed = True
        await self._cancel(self._heartbeat_task)
        await self._cancel(self._pump_task)
        if self.transport is not None:
            if self._conn_error is None:
                with contextlib.suppress(ConnectionError, OSError):
                    await self.transport.send_frame(MessageType.BYE)
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
                if mtype in _REQUEST_REPLIES:
                    reply = PAYLOADS[mtype].unpack(payload)
                    if reply.request_id in self._pending:
                        self._resolve(reply.request_id,
                                      (mtype.name.lower(), reply))
                    elif mtype is MessageType.ERROR:
                        # Connection-scoped (request_id == 0) or stale error:
                        # record it for the next API call instead of killing
                        # the pump and every in-flight request with it.
                        self.stats.session_errors += 1
                        self._session_errors.append(reply)
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
                elif mtype is MessageType.BYE:
                    raise ConnectionError("server said BYE")
                # Anything else is a server bug; ignore rather than dying.
        except _LINK_ERRORS as exc:
            self._conn_error = exc
            self._fail_waiters(exc)

    async def _heartbeat(self) -> None:
        nonce = itertools.count(1)
        while True:
            await asyncio.sleep(self.heartbeat_s)
            if self._conn_error is not None:
                continue  # a reconnect (or the next request) will recover
            try:
                await self.transport.send(Ping(next(nonce)))
                self.stats.pings_sent += 1
            except (ConnectionError, OSError) as exc:
                if self._conn_error is None:
                    self._conn_error = exc

    def _resolve(self, request_id: int, value) -> None:
        future = self._pending.pop(request_id, None)
        if future is not None and not future.done():
            future.set_result(value)

    def _fail_waiters(self, exc: Exception) -> None:
        for parked in (self._pending.values(), *self._key_waiters.values()):
            for future in parked:
                if not future.done():
                    future.set_exception(exc)
        self._pending.clear()
        for waiters in self._key_waiters.values():
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
    def _can_resume(self) -> bool:
        return (self.auto_resume and self.resume_token is not None
                and self._transport_factory is not None)

    async def resume(self) -> None:
        """Reconnect and reattach to the server-side session.

        Safe to call concurrently (serialized internally); a no-op when the
        connection is healthy.  Raises :class:`OffloadError` when the server
        rejects the token or every reconnect attempt fails.
        """
        async with self._resume_lock:
            self._check_closed()
            if self._conn_error is None:
                return
            if self.resume_token is None or self._transport_factory is None:
                raise OffloadError(
                    f"connection lost: {self._conn_error} "
                    f"(no resume token or no way to reconnect)")
            await self._cancel(self._pump_task)
            if self.transport is not None:
                await self.transport.close()
            try:
                await self._open(self._reattach, "resume")
            except OffloadError:
                self.stats.reconnect_failures += 1
                raise

    async def _reattach(self) -> None:
        """One resume attempt (under ``_resume_lock``): RESUME, or — when
        the server no longer has the session and ``failover`` is set — a
        fresh HELLO session, its keys replayed from the blob cache uncharged
        (provisioning is the offline phase, exactly like the originals).
        In-flight request ids stay valid: their attempt loops resubmit
        against whichever session this leaves."""
        try:
            await self._handshake(Resume(self.session_id, self.resume_token))
            self.stats.resumes += 1
        except OffloadError as err:
            if err.code is not ErrorCode.RESUME_REJECTED or not self.failover:
                raise
            # The owning worker lost the session (killed and restarted, or
            # the grace period lapsed).
            await self._hello()
            self.stats.failovers += 1
            self._reprovision_needed = True
        if self._reprovision_needed:
            # Also finishes a failover that an earlier attempt left cut
            # short mid-provisioning (Galois re-uploads merge server-side).
            await self._reupload_cached_keys(ensure_live=False)
            self._reprovision_needed = False

    # ----------------------------------------------------- the attempt loop
    async def _await_reply(self, mtype: MessageType, payload: bytes,
                           park: Callable, unpark: Callable,
                           on_outcome: Optional[Callable] = None, *,
                           timeout: float, retries: int, what: str,
                           ensure_live: bool = True):
        """The one attempt loop under every frame that awaits a reply (the
        module docstring has its policy).  Each attempt first resumes a lost
        connection, or raises when it cannot; ``park(attempt, future)`` puts
        the attempt's future where the pump will find it.
        ``on_outcome(reply, last)`` sees every reply (``None``: timed out)
        and returns ``(True, value)`` to finish or ``(False, wait_s)`` to
        spend another attempt after at least ``wait_s`` (``None``: at once);
        without it the first reply is the answer.  ``ensure_live=False`` is
        re-provisioning under ``_resume_lock``: link errors re-raise for
        ``resume``'s own loop instead of recursing into it.
        """
        delays = backoff_delays(self.backoff_s)
        silent_timeouts = 0
        for attempt in range(retries + 1):
            last = attempt == retries
            self._check_closed()
            if ensure_live and self._conn_error is not None:
                if not self._can_resume():
                    raise OffloadError(f"connection lost: {self._conn_error}")
                await self.resume()
            future = asyncio.get_running_loop().create_future()
            park(attempt, future)
            wait_s: Optional[float] = 0.0
            try:
                await self.transport.send_frame(mtype, payload)
                reply = await asyncio.wait_for(future, timeout)
            except asyncio.TimeoutError:
                if on_outcome is not None:
                    await on_outcome(None, last)
                if last:
                    raise OffloadTimeout(
                        f"{what} timed out after {attempt + 1} "
                        f"attempt(s) of {timeout}s")
                silent_timeouts += 1
                if (ensure_live and silent_timeouts >= SUSPECT_AFTER
                        and self._conn_error is None and self._can_resume()):
                    # Half-open: writes land, nothing comes back.  Declare
                    # the link lost, so the next attempt reconnects via
                    # RESUME/failover instead of resending into the void.
                    self.stats.half_open_resets += 1
                    self._conn_error = ConnectionError(
                        f"suspected half-open connection: {silent_timeouts} "
                        f"consecutive timeouts of {what}")
                    silent_timeouts = 0
            except _LINK_ERRORS as exc:
                if self._conn_error is None:
                    self._conn_error = exc
                if not ensure_live:
                    raise
                if last or not self._can_resume():
                    raise OffloadError(f"{what}: connection lost: {exc}")
            else:
                silent_timeouts = 0  # any reply proves the connection is live
                if on_outcome is None:
                    return reply
                done, value = await on_outcome(reply, last)
                if done:
                    return value
                wait_s = value
            finally:
                unpark(future)
                # The pump may have failed the future concurrently
                # (``_fail_waiters``); mark that exception retrieved so the
                # event loop doesn't log it at garbage collection.
                if future.done() and not future.cancelled():
                    future.exception()
            if wait_s is not None:
                await asyncio.sleep(max(wait_s, next(delays)))
        raise AssertionError("unreachable")

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
        for kind, key, serialize in (
                (KeyKind.PUBLIC, public, serialize_public_key),
                (KeyKind.RELIN, relin, serialize_relin_key),
                (KeyKind.GALOIS, galois, serialize_galois_keys)):
            if key is None:
                continue
            blob = serialize(key)
            # Cached for KEYS_EVICTED / failover re-provisioning.  Galois
            # uploads are incremental server-side, so their blobs accumulate;
            # public and relin uploads replace the previous blob.
            if kind is KeyKind.GALOIS:
                self._key_blob_cache.setdefault(kind, []).append(blob)
            else:
                self._key_blob_cache[kind] = [blob]
            await self._upload_blob(kind, blob)

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
                    self.ledger.charge_upload(len(blob))
                await self._upload_blob(kind, blob, ensure_live=ensure_live)

    async def _upload_blob(self, kind: KeyKind, blob: bytes, *,
                           ensure_live: bool = True) -> None:
        """One key blob through the attempt loop; its KEY_ACK carries no
        id, so the waiter queues up behind earlier uploads of its kind."""
        waiters = self._key_waiters.setdefault(kind, deque())

        def unpark(waiter: asyncio.Future) -> None:
            if waiter in waiters:  # else answered, or drained by the pump
                waiters.remove(waiter)

        await self._await_reply(
            MessageType.KEY_UPLOAD, KeyUpload(kind, blob).pack(),
            lambda _attempt, waiter: waiters.append(waiter), unpark,
            timeout=self.request_timeout, retries=self.max_retries,
            what=f"{kind.name} key upload", ensure_live=ensure_live)

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
        blobs = tuple(serialize_ciphertext(ct) for ct in cts)
        request_id = next(self._rid)
        payload = Compute(request_id, op, dict(meta or {}), blobs).pack()
        if account:
            for ct in cts:
                self.ledger.charge_upload(ct.size_bytes())

        def park(attempt: int, future: asyncio.Future) -> None:
            self._pending[request_id] = future
            self.stats.attempts += 1
            if attempt:
                self.stats.retries += 1

        async def on_outcome(outcome, last: bool):
            if outcome is None:
                self.stats.timeouts += 1
                return False, 0.0
            kind, reply = outcome
            if kind == "result":
                out_cts = [deserialize_ciphertext(blob, self.params)
                           for blob in reply.blobs]
                if account:
                    for ct in out_cts:
                        self.ledger.charge_download(ct.size_bytes())
                return True, (out_cts, reply.meta)
            if kind == "busy":
                self.stats.busy_waits += 1
                if last:
                    raise ServerBusy(
                        f"server busy: request {op!r} rejected "
                        f"{retries + 1} time(s)", reply.retry_after_ms)
                return False, reply.retry_after_ms / 1000.0
            if (reply.code is ErrorCode.KEYS_EVICTED
                    and self._key_blob_cache and not last):
                # The server's key-store LRU dropped our keys while idle.
                # Re-provision from the cache — charged once per eviction
                # event, retries within the upload are free — and resubmit
                # the same request id (nothing executed server-side).
                self.stats.key_reuploads += 1
                await self._reupload_cached_keys(charge=account)
                return False, None
            raise OffloadError(
                f"request {op!r} failed [{reply.code.name}]: "
                f"{reply.message}", reply.code)

        return await self._await_reply(
            MessageType.COMPUTE, payload, park,
            lambda _future: self._pending.pop(request_id, None), on_outcome,
            timeout=timeout, retries=retries, what=f"request {op!r}")
