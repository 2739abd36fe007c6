"""Length-prefixed message framing for the CHOCO offload wire protocol.

Every message on a runtime connection is one **frame**: a 12-byte header
(``_FrameHeader``) and a payload.  ``flags`` in the header is reserved: it
is written 0 and a nonzero value is refused.

The header and every payload are records on :mod:`repro.hecore.serialize`'s
codecs, the ones the blob headers use: each field declares its codec once,
in wire order, one ``pack`` and one ``unpack`` walk that schema, and each
class's ``LAYOUT`` (and ``Layout:`` docstring line) is derived from it.
Integers are little-endian; ``bytes16`` / ``str16`` are a u16 length then
the bytes (UTF-8 for ``str16``), ``json32`` a u32 length then a JSON
object, ``blobs`` a u16 count then a u32 length and the bytes per blob, and
``rest`` the rest of the payload: a ``hecore.serialize`` blob, opaque
here.  Parsing is strict: unknown magic, version, type or enum code,
nonzero flags, an oversized payload, a truncated field, or trailing bytes
all raise :class:`FrameError` (a :class:`ValueError`), and so does packing
a value that does not fit its field — a malformed peer can never crash the
runtime in low-level array code.

The session protocol is declared here too: ``PAYLOADS`` (frame type ->
record) and ``TRANSITIONS`` (every legal state x frame pair), read by the
server's dispatch and the fleet router through :func:`decode`;
``docs/PROTOCOL.md``'s tables are tested equal to them.
"""

from __future__ import annotations

import asyncio
import enum
import json
import struct
from dataclasses import fields
from typing import Dict, NamedTuple, Optional, Tuple

from repro.hecore.params import EncryptionParameters, SchemeType
# The shared codecs and record base; KeyKind is re-exported.
from repro.hecore.serialize import (  # noqa: F401
    BYTES16, SCHEME, STR16, U8, U16, U32, U64, KeyKind,
    _Bytes, _Codec, _enum, _f, _Mapped, _Record)

FRAME_MAGIC = b"CHOF"
#: Version 2 added RESUME / RESUME_ACK / PING / PONG and the resume token in
#: HELLO_ACK.  There is no cross-version negotiation: both ends of a CHOCO
#: deployment ship from this repository.
FRAME_VERSION = 2

#: Ceiling on a single frame's payload.  Generous enough for a full Galois
#: key set at production parameters, small enough to bound a hostile peer's
#: memory demand.
MAX_FRAME_BYTES = 256 * 1024 * 1024


class FrameError(ValueError):
    """A malformed, unexpected, or oversized frame."""


class MessageType(enum.IntEnum):
    HELLO = 1
    HELLO_ACK = 2
    KEY_UPLOAD = 3
    KEY_ACK = 4
    COMPUTE = 5
    RESULT = 6
    BUSY = 7
    ERROR = 8
    BYE = 9
    RESUME = 10
    RESUME_ACK = 11
    PING = 12
    PONG = 13


class ErrorCode(enum.IntEnum):
    BAD_FRAME = 1          # unparseable or out-of-order message
    PARAMS_MISMATCH = 2    # HELLO fingerprint differs from the server's set
    UNKNOWN_OP = 3         # COMPUTE named an unregistered operation
    MISSING_KEYS = 4       # the op needs evaluation keys not yet uploaded
    HANDLER_FAILED = 5     # the registered handler raised
    PROTOCOL_VIOLATION = 6  # server-side code touched a client-only capability
    RESUME_REJECTED = 7    # unknown session, bad token, or grace period over
    KEYS_EVICTED = 8       # the key-store LRU dropped this session's keys;
    #                        re-upload them and resubmit the same request id


class _FrameHeader(_Record):
    """Every frame's header; ``payload_len`` bytes of payload follow."""

    error, short = FrameError, "short frame header"
    magic: bytes = _f(_Bytes(size=4), "bad frame magic (not a CHOCO offload "
                      "connection)", default=FRAME_MAGIC)
    version: int = _f(U8, "unsupported frame version {got}",
                      default=FRAME_VERSION)
    type: MessageType = _f(_enum(U8, MessageType, "unknown frame type"))
    flags: int = _f(U16, "reserved frame flags must be 0, got {got:#x}",
                    default=0)
    payload_len: int = _f(U32)

    def _check(self) -> None:
        if self.payload_len > MAX_FRAME_BYTES:
            raise FrameError(f"frame payload of {self.payload_len} bytes "
                             f"exceeds the {MAX_FRAME_BYTES}-byte limit")


HEADER_SIZE = _FrameHeader.SIZE


def _json_object(raw: bytes) -> dict:
    meta = json.loads(raw.decode("utf-8"))
    if not isinstance(meta, dict):
        raise ValueError("not a JSON object")
    return meta


class _Blobs(_Codec):
    label = "blobs"

    def put(self, blobs, out):
        U16.put(len(blobs), out)
        for blob in blobs:
            _BYTES32.put(blob, out)

    def read(self, buf, off):
        count, off = U16.read(buf, off)
        blobs = []
        for _ in range(count):
            blob, off = _BYTES32.read(buf, off)
            blobs.append(blob)
        return tuple(blobs), off


class _Moduli(_Codec):
    layout = "n_data u8 | n_special u8 | moduli u64[n_data + n_special]"
    arity = 2           # Hello's data_moduli and special_moduli, jointly

    def put(self, moduli, out):
        data, special = moduli
        out.append(struct.pack(f"<BB{len(data) + len(special)}Q",
                               len(data), len(special), *data, *special))

    def read(self, buf, off):
        n_data, n_special = struct.unpack_from("<BB", buf, off)
        moduli = struct.unpack_from(f"<{n_data + n_special}Q", buf, off + 2)
        return (moduli[:n_data], moduli[n_data:]), off + 2 + 8 * len(moduli)


_BYTES32 = _Bytes(U32, "bytes32")
REST, BLOBS = _Bytes(label="rest"), _Blobs()
META = _Mapped(_BYTES32, lambda meta: json.dumps(meta or {}).encode(),
               _json_object, "invalid JSON metadata in frame", "json32")


class _Payload(_Record):
    """Every frame payload: a record whose refusals are FrameErrors."""

    error, short = FrameError, "frame payload truncated"
    trailing = "trailing bytes in frame payload ({n})"


# ---------------------------------------------------------------------------
# Frame payloads
# ---------------------------------------------------------------------------

class Hello(_Payload):
    """Client handshake: its parameter set's
    :meth:`EncryptionParameters.fingerprint`, field for field in order."""

    scheme: SchemeType = _f(SCHEME)
    poly_degree: int = _f(U32)
    plain_modulus: int = _f(U64)
    scale_bits: int = _f(U16)
    data_moduli: Tuple[int, ...] = _f(_Moduli())
    special_moduli: Tuple[int, ...]     # carried by data_moduli's codec

    @classmethod
    def from_params(cls, params: EncryptionParameters) -> "Hello":
        return cls(*params.fingerprint())

    def mismatch(self, params: EncryptionParameters) -> Optional[str]:
        """Why this fingerprint cannot be served under *params* (or None)."""
        for f, ours in zip(fields(self), params.fingerprint()):
            theirs = getattr(self, f.name)
            if theirs != ours:
                return f"{f.name}: client {theirs!r} != server {ours!r}"
        return None

    def _check(self) -> None:
        if not self.data_moduli:
            raise FrameError("handshake declares no data moduli")


class HelloAck(_Payload):
    """Server handshake reply."""

    session_id: int = _f(U32)
    queue_limit: int = _f(U16)
    concurrency: int = _f(U16)
    resume_token: bytes = _f(BYTES16, default=b"")  # what RESUME presents
    grace_ms: int = _f(U32, default=0)  # how long a lost session is kept
    banner: str = _f(STR16, default="")


class Resume(_Payload):
    """Reattach after a lost connection: a first frame, in place of HELLO."""

    session_id: int = _f(U32)
    token: bytes = _f(BYTES16)


class ResumeAck(_Payload):
    """Successful reattach."""

    session_id: int = _f(U32)
    queue_limit: int = _f(U16)
    concurrency: int = _f(U16)
    key_mask: int = _f(U8, default=0)   # bit 1 << (kind - 1) per key held
    banner: str = _f(STR16, default="")

    def has_key(self, kind: KeyKind) -> bool:
        return bool(self.key_mask & (1 << (int(kind) - 1)))


class Ping(_Payload):
    """Client liveness probe."""

    nonce: int = _f(U64)


class Pong(_Payload):
    """Server liveness reply, echoing the probe nonce."""

    nonce: int = _f(U64)


class KeyUpload(_Payload):
    """One evaluation-key blob."""

    kind: KeyKind = _f(_enum(U8, KeyKind))
    blob: bytes = _f(REST)


class KeyAck(_Payload):
    """The server installed the uploaded key."""

    kind: KeyKind = _f(_enum(U8, KeyKind))


class Compute(_Payload):
    """One offload request."""

    request_id: int = _f(U32)
    op: str = _f(STR16)
    meta: Dict = _f(META, default_factory=dict)
    blobs: Tuple[bytes, ...] = _f(BLOBS, default=())

    def _check(self) -> None:
        if not self.op:
            raise FrameError("compute frame names no operation")


class Result(_Payload):
    """A successful reply: :class:`Compute` minus the op."""

    request_id: int = _f(U32)
    meta: Dict = _f(META, default_factory=dict)
    blobs: Tuple[bytes, ...] = _f(BLOBS, default=())


class Busy(_Payload):
    """Backpressure: the session queue is full; retry after the delay."""

    request_id: int = _f(U32)
    retry_after_ms: int = _f(U32)
    queue_depth: int = _f(U16)


class Error(_Payload):
    """A typed failure; ``request_id`` 0 marks a connection-level one."""

    request_id: int = _f(U32)
    code: ErrorCode = _f(_enum(U16, ErrorCode))
    message: str = _f(STR16)


# ---------------------------------------------------------------------------
# The session protocol
# ---------------------------------------------------------------------------

#: The record each frame type carries (BYE carries none); each record class
#: knows its frame type as ``TYPE``.
PAYLOADS = {
    MessageType.HELLO: Hello, MessageType.HELLO_ACK: HelloAck,
    MessageType.KEY_UPLOAD: KeyUpload, MessageType.KEY_ACK: KeyAck,
    MessageType.COMPUTE: Compute, MessageType.RESULT: Result,
    MessageType.BUSY: Busy, MessageType.ERROR: Error, MessageType.BYE: None,
    MessageType.RESUME: Resume, MessageType.RESUME_ACK: ResumeAck,
    MessageType.PING: Ping, MessageType.PONG: Pong,
}
for _mtype, _cls in PAYLOADS.items():
    if _cls is not None:
        _cls.TYPE = _mtype


class SessionState(enum.Enum):
    OPENING = "opening"    # a connection before its first frame: no session
    ATTACHED = "attached"  # a session serving its connection
    DETACHED = "detached"  # its connection was lost without BYE: kept for
    #                        the resume grace period, then reaped
    CLOSED = "closed"      # unregistered: BYE, rejected, reaped or stopped


class Row(NamedTuple):
    """One legal ``(state, frame)`` pair: its *action* on the decoded record
    (``None`` reads no payload), the state and reply its success leads to,
    and the ``ErrorCode`` s it may answer instead, the state unchanged."""

    action: Optional[str]
    next: SessionState
    replies: Tuple[MessageType, ...] = ()
    errors: Tuple[ErrorCode, ...] = ()


_S, _M, _E = SessionState, MessageType, ErrorCode

#: The session protocol: every legal ``(state, frame)`` pair.  Any other
#: pair is answered ``ERROR(BAD_FRAME)`` with :func:`decode`'s refusal.
#: A connection is served while its session is attached: one still opening
#: after its first frame is closed.
TRANSITIONS = {
    (_S.OPENING, _M.HELLO): Row("hello", _S.ATTACHED, (_M.HELLO_ACK, _M.BUSY),
                                (_E.BAD_FRAME, _E.PARAMS_MISMATCH)),
    (_S.OPENING, _M.RESUME): Row("resume", _S.ATTACHED, (_M.RESUME_ACK,),
                                 (_E.BAD_FRAME, _E.RESUME_REJECTED)),
    (_S.ATTACHED, _M.KEY_UPLOAD): Row("key_upload", _S.ATTACHED,
                                      (_M.KEY_ACK,), (_E.BAD_FRAME,)),
    (_S.ATTACHED, _M.COMPUTE): Row(
        "compute", _S.ATTACHED, (_M.RESULT, _M.BUSY),
        (_E.BAD_FRAME, _E.UNKNOWN_OP, _E.KEYS_EVICTED, _E.MISSING_KEYS,
         _E.HANDLER_FAILED, _E.PROTOCOL_VIOLATION)),
    (_S.ATTACHED, _M.PING): Row("ping", _S.ATTACHED, (_M.PONG,),
                                (_E.BAD_FRAME,)),
    (_S.ATTACHED, _M.BYE): Row(None, _S.CLOSED),
    (_S.ATTACHED, _M.ERROR): Row(None, _S.DETACHED),
}


def decode(state: SessionState, mtype: MessageType,
           payload: bytes) -> Tuple[Row, Optional[_Payload]]:
    """The row *state* has for an *mtype* frame and the record its payload
    carries: the one place a received payload is decoded.  A pair without
    a row (one refusal, naming the state's rows), or a payload that does
    not decode, is a :class:`FrameError`."""
    row = TRANSITIONS.get((state, mtype))
    if row is None:
        legal = " or ".join(m.name for s, m in TRANSITIONS if s is state)
        raise FrameError(f"unexpected {mtype.name} frame: an {state.value} "
                         f"session takes {legal}")
    cls = PAYLOADS[mtype] if row.action else None
    return row, cls and cls.unpack(payload)


# ---------------------------------------------------------------------------
# Frame encode / decode
# ---------------------------------------------------------------------------

def encode_frame(mtype: MessageType, payload: bytes = b"") -> bytes:
    """One wire frame: header (reserved flags 0) plus payload."""
    return _FrameHeader(mtype, len(payload)).pack() + payload


def decode_frame(frame: bytes) -> Tuple[MessageType, int, bytes]:
    """Decode one complete frame held in memory (the SimulatedLink path)."""
    header = _FrameHeader.unpack(frame[:HEADER_SIZE])
    payload = frame[HEADER_SIZE:]
    if len(payload) != header.payload_len:
        raise FrameError(f"frame body is {len(payload)} bytes, header "
                         f"declared {header.payload_len}")
    return header.type, header.flags, payload


async def read_frame(reader: "asyncio.StreamReader",
                     ) -> Tuple[MessageType, int, bytes]:
    """Read exactly one frame from an asyncio stream: EOF raises
    :class:`ConnectionError`, a malformed header :class:`FrameError`."""
    try:
        header = _FrameHeader.unpack(await reader.readexactly(HEADER_SIZE))
    except asyncio.IncompleteReadError as exc:
        raise ConnectionError("peer closed the connection") from exc
    length = header.payload_len
    try:
        payload = await reader.readexactly(length) if length else b""
    except asyncio.IncompleteReadError as exc:
        raise ConnectionError("connection closed mid-frame") from exc
    return header.type, header.flags, payload
