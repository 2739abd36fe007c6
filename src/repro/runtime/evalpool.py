"""Process-pool evaluation executor for offload workers.

One slow BFV multiply on the asyncio loop stalls every session a worker
serves — heartbeats, key uploads, backpressure replies, all of it.  The
runtime already pushes handlers into threads, but CPython threads share
the GIL, so the numpy-heavy HE kernels still serialize.  An
:class:`EvalPool` runs **pooled** operations in real subprocesses instead:
the event loop keeps serving frames while ciphertext math burns a
different core.

Nothing live crosses the process boundary:

* parameters travel as a :func:`~repro.hecore.serialize.serialize_params`
  spec blob; each subprocess re-derives bit-identical moduli;
* evaluation keys travel as the exact ``hecore.serialize`` blobs the
  client uploaded (the server retains them per session), shipped lazily
  and re-shipped only after a new upload of that kind;
* requests and results travel as wire-format ciphertext blobs — the same
  bytes the CHOF frames carry, no pickled HE objects anywhere.

Pooled operations are served ops — **pure functions** ``fn(ctx, state,
meta, cts)`` returning ``cts`` or ``(cts, meta)`` — registered by installer
specs of the form ``"module:attr"`` (resolved inside the subprocess, so the
pool works under both ``fork`` and ``spawn`` start methods).  A subprocess
keeps one :class:`~repro.runtime.server.SessionEvaluator` per session id,
the class the serving process itself uses, so ``ctx``, ``state`` (the KNN
batch store), key installation and key eviction are the same on both sides
of the pipe.  Sessions are hash-pinned to one subprocess — per-session
execution stays serialized, sessions stay parallel.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import importlib
import multiprocessing
import os
import stat
import time
from collections import defaultdict
from typing import Dict, Iterable, Tuple

from repro.core.protocol import ProtocolViolation
from repro.hecore.params import EncryptionParameters
from repro.hecore.serialize import (
    deserialize_ciphertext,
    deserialize_params,
    serialize_ciphertext,
    serialize_params,
)
from repro.runtime.framing import KeyKind
from repro.runtime.server import (
    MissingEvaluationKey,
    ServedOp,
    SessionEvaluator,
)

_CALL_TIMEOUT_S = 300.0

#: Exception types a subprocess failure re-raises as in the parent: the
#: nearest of them in the exception's MRO (the server maps them to typed
#: ERROR codes).
_TYPED_ERRORS = {cls.__name__: cls for cls in (
    ProtocolViolation, MissingEvaluationKey, ValueError, Exception)}


def _typed_name(exc: Exception) -> str:
    """The name of *exc*'s nearest ancestor in :data:`_TYPED_ERRORS`."""
    return next(cls.__name__ for cls in type(exc).__mro__
                if _TYPED_ERRORS.get(cls.__name__) is cls)


@functools.lru_cache(maxsize=64)
def _remote_error(typed: type, name: str) -> type:
    """*typed* itself, or its subclass named *name*: a subprocess's
    ``ScheduleError`` re-raises as a ``ValueError`` named ``ScheduleError``,
    so the server answers it with the code and text an inline run sends."""
    return typed if typed.__name__ == name else type(name, (typed,), {})


def resolve_spec(spec: str) -> Any:
    """``"pkg.module:attr.subattr"`` -> the named object."""
    module_name, _, attr_path = spec.partition(":")
    if not module_name or not attr_path:
        raise ValueError(f"installer spec {spec!r} is not 'module:attr'")
    obj = importlib.import_module(module_name)
    for attr in attr_path.split("."):
        obj = getattr(obj, attr)
    return obj


def build_pooled_registry(installers: Tuple[str, ...],
                          ) -> Dict[str, ServedOp]:
    """Run each ``installer(registry)`` spec; returns ``name -> fn``."""
    registry: Dict[str, ServedOp] = {}
    for spec in installers:
        resolve_spec(spec)(registry)
    return registry


def _mp_context():
    """fork where available (instant, shares loaded numpy); spawn elsewhere."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX fallback
        return multiprocessing.get_context("spawn")


def pipe_roundtrip(conn, msg: tuple, timeout: float, who: str):
    """Blocking request/reply on a process pipe (run via ``to_thread``)."""
    conn.send(msg)
    if not conn.poll(timeout):
        raise RuntimeError(f"{who} timed out after {timeout}s")
    return conn.recv()


def close_inherited_sockets(keep: Iterable[int] = ()) -> None:
    """Close every socket fd a fork duplicated into this child process.

    A child forked while the parent serves TCP traffic inherits duplicate
    descriptors for every open connection — including the parent's listen
    socket, a fleet router's client sockets still in their first-frame
    window and a worker's adopted client connections.  Those duplicates
    keep the underlying connections half-open after the parent closes its
    copy: the peer never receives FIN and blocks forever on a read.  The
    child needs none of them (its control pipe is in *keep*; a fleet worker
    is handed its client sockets over that pipe), so the safe move is to
    drop them all on entry.

    Only sockets are touched — pipes and files (multiprocessing's resource
    tracker, logging, stdio) keep their descriptors.  Best-effort and
    POSIX-only: on platforms without ``/proc/self/fd`` this is a no-op,
    which matches the ``spawn`` start method where nothing leaks.
    """
    keep_fds = {int(fd) for fd in keep} | {0, 1, 2}
    try:
        fds = [int(name) for name in os.listdir("/proc/self/fd")]
    except OSError:
        return
    for fd in fds:
        if fd in keep_fds:
            continue
        try:
            if stat.S_ISSOCK(os.fstat(fd).st_mode):
                os.close(fd)
        except OSError:
            continue


# ---------------------------------------------------------------------------
# Subprocess side
# ---------------------------------------------------------------------------

def _eval_main(conn, params_blob: bytes, installers: Tuple[str, ...]) -> None:
    """Subprocess loop: rebuild params, register pooled ops, serve calls."""
    close_inherited_sockets(keep=(conn.fileno(),))
    params = deserialize_params(params_blob)
    registry = build_pooled_registry(installers)
    sessions: Dict[int, SessionEvaluator] = defaultdict(
        lambda: SessionEvaluator(params))

    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            return  # parent died or closed the pipe: shut down quietly
        cmd = msg[0]
        if cmd == "stop":
            return
        try:
            if cmd == "keys":
                _sid, kind_code, blobs = msg[1], msg[2], msg[3]
                for blob in blobs:
                    sessions[_sid].install_key(KeyKind(kind_code), blob)
                conn.send(("ok",))
            elif cmd == "drop_keys":
                # Key eviction, not session close: the stored state stays.
                if msg[1] in sessions:
                    sessions[msg[1]].drop_keys()
                conn.send(("ok",))
            elif cmd == "close":
                sessions.pop(msg[1], None)
                conn.send(("ok",))
            elif cmd == "exec":
                _sid, op, meta, blobs = msg[1], msg[2], msg[3], msg[4]
                fn = registry.get(op)
                if fn is None:
                    raise RuntimeError(f"op {op!r} not in the pooled registry")
                cts = [deserialize_ciphertext(blob, params)
                       for blob in blobs]
                out_cts, out_meta, counters = sessions[_sid].run(
                    fn, dict(meta), cts)
                out_blobs = tuple(
                    serialize_ciphertext(ct, compress_seed=False)
                    for ct in out_cts)
                conn.send(("result", out_blobs, out_meta, counters))
            else:
                raise RuntimeError(f"unknown eval-pool command {cmd!r}")
        except Exception as exc:  # noqa: BLE001 — typed name crosses the pipe
            conn.send(("error", _typed_name(exc), type(exc).__name__,
                       str(exc)))


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------

class _Slot:
    """One eval subprocess plus its pipe, lock, and shipped-key ledger."""

    def __init__(self, index: int):
        self.index = index
        self.process = None
        self.conn = None
        self.lock = asyncio.Lock()
        #: (session_id, KeyKind) -> the ``session.key_blobs`` tuple shipped.
        self.shipped: Dict[Tuple[int, KeyKind], Tuple[bytes, ...]] = {}


class EvalPool:
    """N subprocess evaluators behind an async dispatch facade.

    ``execute`` pins each session to ``session_id % size`` so per-session
    state (stored batches, restricted context, key cache) lives in exactly
    one subprocess and per-session execution stays serialized — mirroring
    the server's own scheduling invariant.  A dead subprocess is respawned
    on the next call that notices; the interrupted request surfaces as a
    ``HANDLER_FAILED`` and the client's idempotent retry re-executes it
    (the failed id left the dedupe window, so that is a fresh run).
    """

    def __init__(self, params: EncryptionParameters, size: int,
                 installers: Tuple[str, ...] = ()):
        if size < 1:
            raise ValueError("eval pool needs at least one worker")
        self.size = size
        self.installers = tuple(installers)
        #: ``name -> fn`` as every subprocess will register it; a server
        #: runs an op here exactly when this registry has it.
        self.ops = build_pooled_registry(self.installers)
        self._params_blob = serialize_params(params)
        self._mp = _mp_context()
        self._slots = [_Slot(i) for i in range(size)]
        self._closed = False
        self.started_at = time.monotonic()
        self.executions = 0
        self.busy_s = 0.0
        self.key_ships = 0
        self.respawns = 0
        for slot in self._slots:
            self._spawn(slot)

    # ------------------------------------------------------------ plumbing
    def _spawn(self, slot: _Slot) -> None:
        parent_conn, child_conn = self._mp.Pipe()
        process = self._mp.Process(
            target=_eval_main,
            args=(child_conn, self._params_blob, self.installers),
            daemon=True, name=f"choco-eval-{slot.index}")
        process.start()
        child_conn.close()
        slot.process = process
        slot.conn = parent_conn
        slot.shipped = {}

    def _respawn(self, slot: _Slot) -> None:
        self.respawns += 1
        try:
            slot.conn.close()
        except OSError:
            pass
        if slot.process is not None and slot.process.is_alive():
            slot.process.terminate()
        self._spawn(slot)

    def _call(self, slot: _Slot, msg: tuple,
              timeout: float = _CALL_TIMEOUT_S) -> tuple:
        """One command on the slot's pipe (blocking: run via ``to_thread``);
        an ``("error", typed name, name, message)`` reply raises as the
        typed ancestor, under the subprocess exception's own name."""
        reply = pipe_roundtrip(slot.conn, msg, timeout,
                               f"eval-pool worker {slot.index}")
        if reply[0] == "error":
            _tag, typed, name, message = reply
            raise _remote_error(_TYPED_ERRORS[typed], name)(message)
        return reply

    # ------------------------------------------------------------ dispatch
    async def execute(self, session, request,
                      ) -> Tuple[Tuple[bytes, ...], Dict, Dict]:
        """Run one pooled request; returns (result_blobs, meta, counters)."""
        if self._closed:
            raise RuntimeError("eval pool is closed")
        slot = self._slots[session.id % self.size]
        async with slot.lock:
            started = time.monotonic()
            try:
                for kind, blobs in list(session.key_blobs.items()):
                    if slot.shipped.get((session.id, kind)) is blobs:
                        continue
                    await asyncio.to_thread(
                        self._call, slot,
                        ("keys", session.id, int(kind), blobs))
                    slot.shipped[(session.id, kind)] = blobs
                    self.key_ships += 1
                reply = await asyncio.to_thread(
                    self._call, slot,
                    ("exec", session.id, request.op, dict(request.meta),
                     tuple(request.blobs)))
            except (EOFError, BrokenPipeError, OSError) as exc:
                self._respawn(slot)
                raise RuntimeError(
                    f"eval-pool worker {slot.index} died running "
                    f"{request.op!r}: {exc}") from exc
            finally:
                self.busy_s += time.monotonic() - started
        self.executions += 1
        _tag, out_blobs, out_meta, counters = reply
        return tuple(out_blobs), dict(out_meta), dict(counters)

    def drop_keys(self, session_id: int) -> None:
        """Key eviction: the subprocess drops the session's keys and keeps
        its state; the next ``execute`` re-ships whatever was re-uploaded."""
        self._forget(session_id, "drop_keys")

    def close_session(self, session_id: int) -> None:
        """Session close: the subprocess drops everything it holds for it."""
        self._forget(session_id, "close")

    def _forget(self, session_id: int, cmd: str) -> None:
        """Forget what was shipped for a session and tell its subprocess.

        Synchronous and non-blocking: the subprocess command rides on a
        fire-and-forget task when a loop is running, so the server can call
        this from teardown paths without awaiting pipe traffic.
        """
        slot = self._slots[session_id % self.size]
        for key in [k for k in slot.shipped if k[0] == session_id]:
            del slot.shipped[key]

        async def tell() -> None:
            with contextlib.suppress(Exception):  # best-effort hygiene
                async with slot.lock:
                    if not self._closed:
                        await asyncio.to_thread(
                            self._call, slot, (cmd, session_id), 10.0)

        with contextlib.suppress(RuntimeError):  # no loop: nothing to tell
            asyncio.get_running_loop().create_task(tell())

    # ------------------------------------------------------------ lifecycle
    def snapshot(self) -> Dict:
        elapsed = max(time.monotonic() - self.started_at, 1e-9)
        return {
            "size": self.size,
            "executions": self.executions,
            "busy_s": round(self.busy_s, 4),
            "utilization": round(
                min(self.busy_s / (elapsed * self.size), 1.0), 4),
            "key_ships": self.key_ships,
            "respawns": self.respawns,
        }

    async def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for slot in self._slots:
            async with slot.lock:
                try:
                    await asyncio.to_thread(slot.conn.send, ("stop",))
                except (BrokenPipeError, OSError):
                    pass
        for slot in self._slots:
            if slot.process is not None:
                await asyncio.to_thread(slot.process.join, 5.0)
                if slot.process.is_alive():
                    slot.process.terminate()
            try:
                slot.conn.close()
            except OSError:
                pass
