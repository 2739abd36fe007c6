"""Sharded multi-worker serving fleet for the offload runtime.

One :class:`~repro.runtime.server.OffloadServer` process tops out at one
core: the GIL serializes its HE kernels and a single asyncio loop carries
every session.  A :class:`FleetServer` scales out instead of up — a
front-end **router** process accepts CHOF connections and hands each one
to a shared-nothing **worker** process, each worker being a full
``OffloadServer`` (optionally with its own
:class:`~repro.runtime.evalpool.EvalPool`) that serves it as its own.

The sharding trick is in the session ids.  Worker *i* of *n* allocates ids
from the arithmetic progression ``start=i+1, step=n``, so the owner of any
session is the pure function ``(session_id - 1) % n`` — sticky routing
needs no shared table, no coordination, and survives router restarts for
free.  The router reads a connection's first frame through the opening
rows of :data:`repro.runtime.framing.TRANSITIONS`, the server's own: a
``HELLO`` goes to the least-loaded live worker while the fleet is under
``session_cap``, else it is answered ``BUSY`` and retried; a ``RESUME``
goes to the owner of its session id, else it is ``RESUME_REJECTED`` and a
failover client opens a fresh session.  The router then passes the socket
itself, and the bytes it read off it, to the worker: it is on no byte's
path after the first frame.  A supervisor respawns dead workers and retires
each dead generation's last metrics snapshot into
:class:`~repro.runtime.metrics.FleetMetrics` (docs/PROTOCOL.md, *Fleet
serving*).

Workers are driven over a control pipe (``adopt``, carrying a client
socket, ``snapshot``, ``kill_idle``, ``stop``); ``kill_idle`` is the one
injected death (``kill_worker``) — the worker ``os._exit(17)``-s at the
next instant no handler is executing and no queue holds work, which kills
it *between* requests, so exactly-once can be asserted across it without
racing a half-executed handler.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import logging
import multiprocessing.util
import os
import socket
import threading
import time
from dataclasses import dataclass, field
from multiprocessing.reduction import recv_handle, send_handle
from typing import Any, Dict, List, Optional, Tuple

from repro.hecore.params import EncryptionParameters
from repro.hecore.serialize import deserialize_params, serialize_params
from repro.runtime.evalpool import (
    EvalPool,
    _mp_context,
    close_inherited_sockets,
    pipe_roundtrip,
    resolve_spec,
)
from repro.runtime.framing import (
    Busy,
    Error,
    ErrorCode,
    FrameError,
    Hello,
    Resume,
    SessionState,
    decode,
    encode_frame,
    read_frame,
)
from repro.runtime.metrics import FleetMetrics
from repro.runtime.server import OffloadServer
from repro.runtime.transport import TcpTransport

logger = logging.getLogger("repro.runtime.fleet")

#: Exit code of a worker that honored a ``kill_idle`` chaos fate.
IDLE_KILL_EXIT_CODE = 17

_SPAWN_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class WorkerConfig:
    """Everything a worker process needs, as picklable primitives.

    No live HE objects cross the process boundary: parameters travel as a
    :func:`~repro.hecore.serialize.serialize_params` blob and operation
    registries travel as ``"module:attr"`` installer specs resolved inside
    the worker (so the fleet works under both ``fork`` and ``spawn``).

    It is also the one declaration of a worker's options:
    :class:`FleetServer` takes every field from ``installers`` down as a
    keyword argument.
    """

    #: Fields that place the worker and pick its ops; every other field is
    #: an ``OffloadServer`` keyword argument of the same name.
    PLACEMENT = ("index", "stride", "params_blob", "installers",
                 "pooled_installers", "eval_workers")

    index: int
    stride: int
    params_blob: bytes
    #: ``installer(server)`` specs: ``server.register`` / ``register_op``.
    installers: Tuple[str, ...] = ()
    #: ``installer(registry)`` specs of pure ops: run in the eval pool when
    #: ``eval_workers > 0``, in the worker process itself otherwise.
    pooled_installers: Tuple[str, ...] = ()
    eval_workers: int = 0
    queue_limit: int = 16
    concurrency: int = 1
    retry_after_ms: int = 50
    keystore_limit: Optional[int] = None
    resume_grace_s: float = 30.0
    dedupe_window: int = 64
    banner: str = "choco-fleet"
    op_config: Dict[str, Any] = field(default_factory=dict)

    def server_options(self) -> Dict[str, Any]:
        """The :class:`OffloadServer` keyword arguments of this worker."""
        options = {f.name: getattr(self, f.name)
                   for f in dataclasses.fields(self)
                   if f.name not in self.PLACEMENT}
        options.update(banner=f"{self.banner}/w{self.index}",
                       session_id_start=self.index + 1,
                       session_id_step=self.stride)
        return options


# ---------------------------------------------------------------------------
# Worker process side
# ---------------------------------------------------------------------------

def _worker_main(conn, config: WorkerConfig, held) -> None:
    """Process entry point: run one sharded worker until told to stop."""
    # A worker respawned mid-traffic forks off a router that holds client
    # sockets in their first-frame window; an inherited duplicate would hold
    # such a connection half-open after its worker closes it (no FIN reaches
    # the client, which then blocks forever).  Drop them before serving.
    close_inherited_sockets(keep=(conn.fileno(),))
    try:
        asyncio.run(_worker_serve(conn, config, held))
    except KeyboardInterrupt:  # pragma: no cover - interactive teardown
        pass


async def _worker_serve(conn, config: WorkerConfig, held) -> None:
    params = deserialize_params(config.params_blob)
    eval_pool = None
    if config.eval_workers > 0 and config.pooled_installers:
        eval_pool = EvalPool(params, config.eval_workers,
                             config.pooled_installers)
    server = OffloadServer(params, eval_pool=eval_pool,
                           **config.server_options())
    for spec in config.installers:
        resolve_spec(spec)(server)
    for spec in config.pooled_installers:
        resolve_spec(spec)(server.ops)

    loop = asyncio.get_running_loop()
    stop_event = asyncio.Event()
    kill_flag = asyncio.Event()
    send_lock = threading.Lock()
    adopted = set()  # the connection tasks, held until they finish

    async def _serve(sock: socket.socket, data: bytes, is_hello: bool) -> None:
        """Serve a connection the router handed over, its *data* first."""
        try:
            reader = asyncio.StreamReader()
            reader.feed_data(data)
            transport, protocol = await loop.connect_accepted_socket(
                lambda: asyncio.StreamReaderProtocol(reader), sock)
            writer = asyncio.StreamWriter(transport, protocol, reader, loop)
            await server.serve_transport(TcpTransport(reader, writer))
        finally:
            with held.get_lock():
                held[0] -= 1
                held[1] -= is_hello

    def _adopt(sock: socket.socket, data: bytes, is_hello: bool) -> None:
        task = asyncio.ensure_future(_serve(sock, data, is_hello))
        adopted.add(task)
        task.add_done_callback(adopted.discard)

    async def _snapshot() -> Dict:
        queue_depth = sum(len(s.queue) for s in server._sessions.values())
        return {
            "worker": config.index,
            "pid": os.getpid(),
            "sessions": len(server._sessions),
            "queue_depth": queue_depth,
            "metrics": server.metrics.snapshot(),
            "eval_pool": (eval_pool.snapshot()
                          if eval_pool is not None else None),
        }

    def _control_reader() -> None:
        """Blocking pipe reader; EOF (router died) means shut down."""
        while True:
            try:
                msg = conn.recv()
                if msg[0] == "adopt":
                    sock = socket.socket(fileno=recv_handle(conn))
                    loop.call_soon_threadsafe(_adopt, sock, *msg[1:])
            except (EOFError, OSError):
                loop.call_soon_threadsafe(stop_event.set)
                return
            cmd = msg[0]
            if cmd == "stop":
                loop.call_soon_threadsafe(stop_event.set)
                return
            if cmd == "snapshot":
                fut = asyncio.run_coroutine_threadsafe(_snapshot(), loop)
                try:
                    snap = fut.result(timeout=10.0)
                except Exception as exc:  # noqa: BLE001 - report, don't die
                    snap = {"worker": config.index, "error": str(exc)}
                with send_lock:
                    try:
                        conn.send(("snapshot", snap))
                    except (BrokenPipeError, OSError):
                        loop.call_soon_threadsafe(stop_event.set)
                        return
            elif cmd == "kill_idle":
                loop.call_soon_threadsafe(kill_flag.set)

    async def _idle_killer() -> None:
        """Chaos fate: die *between* requests, never inside one.

        The idle check and the exit happen with no await between them, so
        the decision is atomic with respect to the event loop: no handler
        is mid-flight and no accepted request is silently dropped.
        """
        await kill_flag.wait()
        while True:
            idle = not any(s.executing or s.queue
                           for s in server._sessions.values())
            if idle:
                os._exit(IDLE_KILL_EXIT_CODE)
            await asyncio.sleep(0.005)

    reader_thread = threading.Thread(
        target=_control_reader, name=f"fleet-ctl-{config.index}", daemon=True)
    reader_thread.start()
    killer_task = asyncio.ensure_future(_idle_killer())
    with send_lock:
        conn.send(("ready",))

    try:
        await stop_event.wait()
    finally:
        killer_task.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await killer_task
        await server.stop()
        if eval_pool is not None:
            await eval_pool.close()
        with contextlib.suppress(OSError):
            conn.close()


# ---------------------------------------------------------------------------
# Router side
# ---------------------------------------------------------------------------

class WorkerHandle:
    """Router-side view of one live worker generation."""

    def __init__(self, index: int, generation: int, process, conn, held):
        self.index = index
        self.generation = generation
        self.process = process
        self.conn = conn
        #: Shared with the worker: connections held, and how many came from
        #: ``HELLO``; raised at a hand-over, lowered when serving ends.
        self.held = held
        self._lock = asyncio.Lock()

    def alive(self) -> bool:
        return self.process.is_alive()

    async def control(self, msg: tuple, timeout: float = 10.0):
        """One request/reply roundtrip on the control pipe."""
        async with self._lock:
            return await asyncio.to_thread(
                pipe_roundtrip, self.conn, msg, timeout,
                f"worker {self.index} control pipe")

    async def send(self, msg: tuple, sock=None) -> None:
        """Fire-and-forget control message (kill fates have no reply); a
        *sock* follows it as a passed descriptor."""
        async with self._lock:
            await asyncio.to_thread(self._send, msg, sock)

    def _send(self, msg: tuple, sock) -> None:
        self.conn.send(msg)
        if sock is not None:
            send_handle(self.conn, sock.fileno(), self.process.pid)

    async def hand_over(self, writer: asyncio.StreamWriter, data: bytes,
                        is_hello: bool) -> bool:
        """Pass the client socket under *writer*, and the bytes read off it,
        *data*, to this worker; False when the worker cannot be reached."""
        # Counted before the first await so concurrent HELLOs spread
        # instead of dog-piling one worker; the worker uncounts it.
        with self.held.get_lock():
            self.held[0] += 1
            self.held[1] += is_hello
        try:
            await self.send(("adopt", data, is_hello),
                            writer.get_extra_info("socket"))
        except OSError:
            with self.held.get_lock():
                self.held[0] -= 1
                self.held[1] -= is_hello
            return False
        return True

    def close(self) -> None:
        with contextlib.suppress(OSError):
            self.conn.close()


def _reap_workers(workers: List[Optional[WorkerHandle]]) -> None:
    """Finalizer of a fleet nobody stopped: closing a control pipe makes its
    worker shut down cleanly (eval pool included); stragglers are killed."""
    live = [h for h in workers if h is not None and h.alive()]
    for handle in live:
        handle.close()
    for handle in live:
        handle.process.join(5.0)
        if handle.alive():
            handle.process.terminate()


class FleetServer:
    """Front-end router plus N shared-nothing worker processes.

    ``async with FleetServer(...) as fleet`` starts on an ephemeral loopback
    port and stops on the way out, whatever the body raised.

    *worker_options* are the :class:`WorkerConfig` fields from
    ``installers`` down, the same for every worker.
    """

    def __init__(self, params: EncryptionParameters, n_workers: int = 2, *,
                 session_cap: Optional[int] = None,
                 **worker_options):
        if n_workers < 1:
            raise ValueError("a fleet needs at least one worker")
        if session_cap is not None and session_cap < 1:
            raise ValueError("session_cap must be at least 1 (or None)")
        self.params = params
        self.n_workers = n_workers
        self.session_cap = session_cap
        # Serializing up front also validates the params are spec-complete
        # enough for workers to rebuild them bit-identically.
        self._config = WorkerConfig(
            index=0, stride=n_workers, params_blob=serialize_params(params),
            **worker_options)
        self.metrics = FleetMetrics()
        self._mp = _mp_context()
        self._workers: List[Optional[WorkerHandle]] = [None] * n_workers
        # Workers are non-daemon (they own eval-pool children), so the
        # interpreter joins them at exit: a fleet dropped without stop()
        # would never return to the shell.  multiprocessing runs finalizers
        # with an exit priority *before* that join.
        multiprocessing.util.Finalize(self, _reap_workers,
                                      args=(self._workers,), exitpriority=10)
        self._generation = 0
        self._tcp_server: Optional[asyncio.AbstractServer] = None
        self._supervisor_task: Optional[asyncio.Task] = None
        self.host: Optional[str] = None
        self.port: Optional[int] = None

    # ------------------------------------------------------------ lifecycle
    async def start(self, host: str = "127.0.0.1", port: int = 0,
                    ) -> Tuple[str, int]:
        """Spawn the workers, then listen; returns the router's endpoint."""
        for index in range(self.n_workers):
            self._workers[index] = await self._spawn_worker(index)
        self._tcp_server = await asyncio.start_server(
            self._on_connection, host, port)
        sockname = self._tcp_server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        self._supervisor_task = asyncio.ensure_future(self._supervisor())
        return self.host, self.port

    async def __aenter__(self) -> "FleetServer":
        try:
            await self.start()
        except BaseException:
            await self.stop()
            raise
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    async def stop(self) -> None:
        if self._supervisor_task is not None:
            self._supervisor_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._supervisor_task
            self._supervisor_task = None
        if self._tcp_server is not None:
            self._tcp_server.close()
            await self._tcp_server.wait_closed()
            self._tcp_server = None
        for handle in self._workers:
            if handle is None:
                continue
            with contextlib.suppress(Exception):
                await handle.send(("stop",))
        for handle in self._workers:
            if handle is None:
                continue
            await asyncio.to_thread(handle.process.join, 5.0)
            if handle.process.is_alive():
                handle.process.terminate()
                await asyncio.to_thread(handle.process.join, 2.0)
            handle.close()
        self._workers[:] = [None] * self.n_workers

    async def _spawn_worker(self, index: int) -> WorkerHandle:
        generation = self._generation
        self._generation += 1
        return await asyncio.to_thread(self._spawn_worker_sync, index,
                                       generation)

    def _spawn_worker_sync(self, index: int,
                           generation: int) -> WorkerHandle:
        parent_conn, child_conn = self._mp.Pipe()
        held = self._mp.Array("i", 2)
        process = self._mp.Process(
            target=_worker_main,
            args=(child_conn,
                  dataclasses.replace(self._config, index=index), held),
            daemon=False,  # workers may own eval-pool subprocess children
            name=f"choco-worker-{index}.g{generation}")
        process.start()
        child_conn.close()
        if (not parent_conn.poll(_SPAWN_TIMEOUT_S)
                or parent_conn.recv() != ("ready",)):
            process.terminate()
            raise RuntimeError(f"worker {index} never reported ready")
        return WorkerHandle(index, generation, process, parent_conn, held)

    async def _supervisor(self) -> None:
        """Respawn dead workers; retire their metrics first."""
        while True:
            await asyncio.sleep(0.05)
            self.metrics.connections_active = self._held(0)
            for index in range(self.n_workers):
                handle = self._workers[index]
                if handle is None or handle.alive():
                    continue
                logger.warning(
                    "fleet worker %d (gen %d, pid %s) died with exit code "
                    "%s; respawning", index, handle.generation,
                    handle.process.pid, handle.process.exitcode)
                handle.close()
                self.metrics.retire_worker(index)
                self.metrics.worker_restarts += 1
                self._workers[index] = None
                try:
                    self._workers[index] = await self._spawn_worker(index)
                except Exception:  # noqa: BLE001 - retried next sweep
                    logger.exception("fleet worker %d respawn failed", index)

    # -------------------------------------------------------------- routing
    def owner_index(self, session_id: int) -> int:
        """Sticky routing: the worker whose id progression minted *sid*."""
        return (session_id - 1) % self.n_workers

    def _live(self) -> List[WorkerHandle]:
        return [h for h in self._workers if h is not None and h.alive()]

    def _held(self, slot: int) -> int:
        """``held[slot]`` summed over the live workers' generations."""
        return sum(h.held[slot] for h in self._live())

    async def _on_connection(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        """Route a connection by its first frame, read through the opening
        rows of ``framing.TRANSITIONS`` (the server's own), to the row's
        ``_open_<action>``."""
        self.metrics.connections_total += 1
        try:
            try:
                mtype, _flags, payload = await read_frame(reader)
            except (ConnectionError, FrameError):
                return
            try:
                row, first = decode(SessionState.OPENING, mtype, payload)
            except FrameError as exc:
                await self._reply(writer, Error(0, ErrorCode.BAD_FRAME,
                                                str(exc)))
                return
            # Every byte buffered goes with the socket, so a frame pipelined
            # behind the first is not lost; no await until the pause.
            reader.feed_eof()
            data = encode_frame(mtype, payload) + await reader.read()
            writer.transport.pause_reading()
            await getattr(self, f"_open_{row.action}")(first, data, writer)
        finally:
            writer.close()  # the router's copy; a worker holds its own
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _open_hello(self, hello: Hello, data: bytes, writer) -> None:
        """To the least-loaded live worker (the lowest index on a tie)
        under the session cap; else, or unreachable, ``BUSY``: retryable."""
        live = self._live()
        if live and (self.session_cap is None
                     or self._held(1) < self.session_cap):
            self.metrics.sessions_routed += 1
            handle = min(live, key=lambda h: h.held[0])
            if await handle.hand_over(writer, data, True):
                return
        self.metrics.admission_rejections += 1
        await self._reply(writer, Busy(0, self._config.retry_after_ms,
                                       min(self._held(1), 0xFFFF)))

    async def _open_resume(self, resume: Resume, data: bytes, writer) -> None:
        """To the worker that minted the session id; while it is down or
        unreachable, ``RESUME_REJECTED`` (a failover client starts afresh)."""
        handle = self._workers[self.owner_index(resume.session_id)]
        if handle is not None and handle.alive():
            self.metrics.resumes_routed += 1
            if await handle.hand_over(writer, data, False):
                return
        self.metrics.resumes_bounced += 1
        await self._reply(writer, Error(
            0, ErrorCode.RESUME_REJECTED,
            f"worker for session {resume.session_id} is unavailable"))

    @staticmethod
    async def _reply(writer: asyncio.StreamWriter, record) -> None:
        with contextlib.suppress(ConnectionError, OSError):
            writer.write(encode_frame(record.TYPE, record.pack()))
            await writer.drain()

    # -------------------------------------------------------------- control
    def worker(self, index: int) -> Optional[WorkerHandle]:
        return self._workers[index]

    async def refresh_metrics(self) -> Dict:
        """Poll every live worker's snapshot; returns the fleet aggregate."""
        for handle in self._live():
            try:
                reply = await handle.control(("snapshot",))
            except Exception:  # noqa: BLE001 - a dying worker is retired
                continue      # by the supervisor, not the poller
            if reply and reply[0] == "snapshot":
                snap = dict(reply[1])
                snap["generation"] = handle.generation
                self.metrics.update_worker(handle.index, snap)
        return self.metrics.snapshot()

    async def kill_worker(self, index: int) -> int:
        """Chaos entry point: worker *index* ``os._exit``-s at the next
        moment no handler is executing and no queue holds work, so
        exactly-once accounting survives it; returns its generation."""
        handle = self._workers[index]
        if handle is None:
            raise RuntimeError(f"worker {index} is not running")
        await handle.send(("kill_idle",))
        return handle.generation

    async def wait_worker_restart(self, index: int, old_generation: int,
                                  timeout: float = 30.0) -> WorkerHandle:
        """Block until the supervisor has respawned worker *index*."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            handle = self._workers[index]
            if (handle is not None and handle.generation > old_generation
                    and handle.alive()):
                return handle
            await asyncio.sleep(0.02)
        raise TimeoutError(
            f"worker {index} did not restart within {timeout}s")
