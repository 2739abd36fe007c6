"""Length-prefixed message framing for the CHOCO offload wire protocol.

Every message on a runtime connection is one **frame**:

    magic "CHOF" | version u8 | type u8 | flags u16 | payload_len u32 | payload

The payload of each frame type has its own fixed little-endian layout
(documented per dataclass below) wrapping the ``hecore.serialize`` blobs for
ciphertexts and keys.  Parsing is strict: unknown magic, version, or type,
an oversized payload, a truncated field, or trailing bytes all raise
:class:`FrameError` (a :class:`ValueError`) — a malformed peer can never
crash the runtime in low-level array code.

The session flow (see ``docs/PROTOCOL.md`` for the narrative version):

    C -> S : HELLO        parameter fingerprint (scheme, N, moduli, ...)
    S -> C : HELLO_ACK    session id, queue limit, concurrency, resume token
    C -> S : KEY_UPLOAD   public / relinearization / Galois key blobs
    S -> C : KEY_ACK
    C -> S : COMPUTE      op name, JSON metadata, ciphertext batch
    S -> C : RESULT       ciphertext batch + metadata
           | BUSY         queue full: retry after the given delay
           | ERROR        typed failure
    C -> S : PING         liveness probe (any time after the handshake)
    S -> C : PONG         echoes the probe nonce
    C -> S : BYE

A client that lost its connection mid-session opens a new one and sends
``RESUME`` (session id + the resume token from ``HELLO_ACK``) instead of
``HELLO``; the server reattaches the existing session — keys, state,
metrics, dedupe window — and answers ``RESUME_ACK``.  ``COMPUTE`` request
ids are idempotency keys: the client reuses one id for every resubmission
of a logical request, and the server replays the cached ``RESULT`` rather
than re-executing (see the dedupe-window contract in ``docs/PROTOCOL.md``).
"""

from __future__ import annotations

import asyncio
import enum
import json
import struct
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Sequence, Tuple

from repro.hecore.params import EncryptionParameters, SchemeType

FRAME_MAGIC = b"CHOF"
#: Version 2 added RESUME / RESUME_ACK / PING / PONG and the resume token in
#: HELLO_ACK.  There is no cross-version negotiation: both ends of a CHOCO
#: deployment ship from this repository.
FRAME_VERSION = 2

#: Default ceiling on a single frame's payload.  Generous enough for a full
#: Galois key set at production parameters, small enough to bound a hostile
#: peer's memory demand.
MAX_FRAME_BYTES = 256 * 1024 * 1024

_FRAME_HEADER = struct.Struct("<4sBBHI")

_SCHEME_CODES = {SchemeType.BFV: 0, SchemeType.CKKS: 1}
_SCHEME_FROM_CODE = {v: k for k, v in _SCHEME_CODES.items()}


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


class KeyKind(enum.IntEnum):
    PUBLIC = 1
    RELIN = 2
    GALOIS = 3


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


# ---------------------------------------------------------------------------
# Strict cursor-based parsing
# ---------------------------------------------------------------------------

class _Cursor:
    """Sequential reader over a payload with explicit bounds checking."""

    def __init__(self, buf: bytes):
        self.buf = buf
        self.off = 0

    def take(self, n: int) -> bytes:
        if n < 0 or self.off + n > len(self.buf):
            raise FrameError("frame payload truncated")
        out = self.buf[self.off: self.off + n]
        self.off += n
        return out

    def _unpack(self, fmt: str):
        size = struct.calcsize(fmt)
        return struct.unpack(fmt, self.take(size))[0]

    def u8(self) -> int:
        return self._unpack("<B")

    def u16(self) -> int:
        return self._unpack("<H")

    def u32(self) -> int:
        return self._unpack("<I")

    def u64(self) -> int:
        return self._unpack("<Q")

    def bytes16(self) -> bytes:
        return self.take(self.u16())

    def bytes32(self) -> bytes:
        return self.take(self.u32())

    def str16(self) -> str:
        try:
            return self.bytes16().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FrameError("invalid UTF-8 in frame string") from exc

    def finish(self) -> None:
        if self.off != len(self.buf):
            raise FrameError(
                f"trailing bytes in frame payload ({len(self.buf) - self.off})"
            )


def _pack_bytes16(data: bytes) -> bytes:
    if len(data) > 0xFFFF:
        raise FrameError("string field exceeds 64 KiB")
    return struct.pack("<H", len(data)) + data


def _pack_bytes32(data: bytes) -> bytes:
    if len(data) > 0xFFFFFFFF:
        raise FrameError("blob field exceeds u32 range")
    return struct.pack("<I", len(data)) + data


def _pack_str16(text: str) -> bytes:
    return _pack_bytes16(text.encode("utf-8"))


def _pack_meta(meta: Optional[dict]) -> bytes:
    return _pack_bytes32(json.dumps(meta or {}).encode("utf-8"))


def _unpack_meta(cur: _Cursor) -> dict:
    raw = cur.bytes32()
    try:
        meta = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FrameError("invalid JSON metadata in frame") from exc
    if not isinstance(meta, dict):
        raise FrameError("frame metadata must be a JSON object")
    return meta


def _pack_blobs(blobs: Sequence[bytes]) -> bytes:
    if len(blobs) > 0xFFFF:
        raise FrameError("too many ciphertexts in one frame")
    parts = [struct.pack("<H", len(blobs))]
    parts.extend(_pack_bytes32(b) for b in blobs)
    return b"".join(parts)


def _unpack_blobs(cur: _Cursor) -> List[bytes]:
    return [cur.bytes32() for _ in range(cur.u16())]


# ---------------------------------------------------------------------------
# Frame payloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Hello:
    """Client handshake: its parameter set's
    :meth:`EncryptionParameters.fingerprint`, field for field in that order.

    Layout: scheme u8 | poly_degree u32 | plain_modulus u64 | scale_bits u16
    | n_data u8 | n_special u8 | moduli u64[n_data + n_special].
    """

    scheme: SchemeType
    poly_degree: int
    plain_modulus: int
    scale_bits: int
    data_moduli: Tuple[int, ...]
    special_moduli: Tuple[int, ...]

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

    def pack(self) -> bytes:
        moduli = self.data_moduli + self.special_moduli
        return struct.pack(
            "<BIQHBB", _SCHEME_CODES[self.scheme], self.poly_degree,
            self.plain_modulus, self.scale_bits,
            len(self.data_moduli), len(self.special_moduli),
        ) + struct.pack(f"<{len(moduli)}Q", *moduli)

    @classmethod
    def unpack(cls, payload: bytes) -> "Hello":
        cur = _Cursor(payload)
        scheme_code = cur.u8()
        scheme = _SCHEME_FROM_CODE.get(scheme_code)
        if scheme is None:
            raise FrameError(f"unknown scheme code {scheme_code}")
        degree = cur.u32()
        plain_modulus = cur.u64()
        scale_bits = cur.u16()
        n_data, n_special = cur.u8(), cur.u8()
        if n_data < 1:
            raise FrameError("handshake declares no data moduli")
        moduli = tuple(cur.u64() for _ in range(n_data + n_special))
        cur.finish()
        return cls(scheme, degree, plain_modulus, scale_bits,
                   moduli[:n_data], moduli[n_data:])


@dataclass(frozen=True)
class HelloAck:
    """Server handshake reply.

    Layout: session_id u32 | queue_limit u16 | concurrency u16
    | resume_token bytes16 | grace_ms u32 | banner str16.

    ``resume_token`` is the secret a reconnecting client must present in a
    :class:`Resume` frame; ``grace_ms`` is how long the server retains a
    disconnected session before reaping it.
    """

    session_id: int
    queue_limit: int
    concurrency: int
    banner: str = ""
    resume_token: bytes = b""
    grace_ms: int = 0

    def pack(self) -> bytes:
        return (struct.pack("<IHH", self.session_id, self.queue_limit,
                            self.concurrency)
                + _pack_bytes16(self.resume_token)
                + struct.pack("<I", self.grace_ms)
                + _pack_str16(self.banner))

    @classmethod
    def unpack(cls, payload: bytes) -> "HelloAck":
        cur = _Cursor(payload)
        session_id, queue_limit, concurrency = cur.u32(), cur.u16(), cur.u16()
        resume_token = cur.bytes16()
        grace_ms = cur.u32()
        banner = cur.str16()
        cur.finish()
        return cls(session_id, queue_limit, concurrency, banner,
                   resume_token, grace_ms)


@dataclass(frozen=True)
class Resume:
    """Reattach to an existing session after a lost connection.

    Sent as the *first* frame on a fresh connection, in place of
    :class:`Hello`.  Layout: session_id u32 | token bytes16.
    """

    session_id: int
    token: bytes

    def pack(self) -> bytes:
        return struct.pack("<I", self.session_id) + _pack_bytes16(self.token)

    @classmethod
    def unpack(cls, payload: bytes) -> "Resume":
        cur = _Cursor(payload)
        out = cls(cur.u32(), cur.bytes16())
        cur.finish()
        return out


@dataclass(frozen=True)
class ResumeAck:
    """Successful reattach.

    Layout: session_id u32 | queue_limit u16 | concurrency u16 | key_mask u8
    | banner str16.  ``key_mask`` has bit ``1 << (kind - 1)`` set for every
    :class:`KeyKind` the session already holds, so the client knows nothing
    needs re-uploading.
    """

    session_id: int
    queue_limit: int
    concurrency: int
    key_mask: int = 0
    banner: str = ""

    def has_key(self, kind: KeyKind) -> bool:
        return bool(self.key_mask & (1 << (int(kind) - 1)))

    def pack(self) -> bytes:
        return (struct.pack("<IHHB", self.session_id, self.queue_limit,
                            self.concurrency, self.key_mask)
                + _pack_str16(self.banner))

    @classmethod
    def unpack(cls, payload: bytes) -> "ResumeAck":
        cur = _Cursor(payload)
        out = cls(cur.u32(), cur.u16(), cur.u16(), cur.u8(), cur.str16())
        cur.finish()
        return out


@dataclass(frozen=True)
class Ping:
    """Client liveness probe.  Layout: nonce u64."""

    nonce: int

    def pack(self) -> bytes:
        return struct.pack("<Q", self.nonce)

    @classmethod
    def unpack(cls, payload: bytes) -> "Ping":
        cur = _Cursor(payload)
        out = cls(cur.u64())
        cur.finish()
        return out


@dataclass(frozen=True)
class Pong:
    """Server liveness reply, echoing the probe nonce.  Layout: nonce u64."""

    nonce: int

    def pack(self) -> bytes:
        return struct.pack("<Q", self.nonce)

    @classmethod
    def unpack(cls, payload: bytes) -> "Pong":
        cur = _Cursor(payload)
        out = cls(cur.u64())
        cur.finish()
        return out


@dataclass(frozen=True)
class KeyUpload:
    """One evaluation-key blob.  Layout: kind u8 | blob (rest of payload)."""

    kind: KeyKind
    blob: bytes

    def pack(self) -> bytes:
        return struct.pack("<B", int(self.kind)) + self.blob

    @classmethod
    def unpack(cls, payload: bytes) -> "KeyUpload":
        cur = _Cursor(payload)
        kind_code = cur.u8()
        try:
            kind = KeyKind(kind_code)
        except ValueError as exc:
            raise FrameError(f"unknown key kind {kind_code}") from exc
        return cls(kind, cur.take(len(payload) - cur.off))


@dataclass(frozen=True)
class KeyAck:
    """Layout: kind u8."""

    kind: KeyKind

    def pack(self) -> bytes:
        return struct.pack("<B", int(self.kind))

    @classmethod
    def unpack(cls, payload: bytes) -> "KeyAck":
        cur = _Cursor(payload)
        try:
            kind = KeyKind(cur.u8())
        except ValueError as exc:
            raise FrameError("unknown key kind in ack") from exc
        cur.finish()
        return cls(kind)


@dataclass(frozen=True)
class Compute:
    """One offload request.

    Layout: request_id u32 | op str16 | meta json bytes32 | n_cts u16
    | (blob bytes32) * n_cts.
    """

    request_id: int
    op: str
    meta: Dict = field(default_factory=dict)
    blobs: Tuple[bytes, ...] = ()

    def pack(self) -> bytes:
        return (struct.pack("<I", self.request_id) + _pack_str16(self.op)
                + _pack_meta(self.meta) + _pack_blobs(self.blobs))

    @classmethod
    def unpack(cls, payload: bytes) -> "Compute":
        cur = _Cursor(payload)
        request_id = cur.u32()
        op = cur.str16()
        if not op:
            raise FrameError("compute frame names no operation")
        meta = _unpack_meta(cur)
        blobs = tuple(_unpack_blobs(cur))
        cur.finish()
        return cls(request_id, op, meta, blobs)


@dataclass(frozen=True)
class Result:
    """A successful reply.  Layout mirrors :class:`Compute` minus the op."""

    request_id: int
    meta: Dict = field(default_factory=dict)
    blobs: Tuple[bytes, ...] = ()

    def pack(self) -> bytes:
        return (struct.pack("<I", self.request_id) + _pack_meta(self.meta)
                + _pack_blobs(self.blobs))

    @classmethod
    def unpack(cls, payload: bytes) -> "Result":
        cur = _Cursor(payload)
        request_id = cur.u32()
        meta = _unpack_meta(cur)
        blobs = tuple(_unpack_blobs(cur))
        cur.finish()
        return cls(request_id, meta, blobs)


@dataclass(frozen=True)
class Busy:
    """Backpressure: the session queue is full; retry after the given delay.

    Layout: request_id u32 | retry_after_ms u32 | queue_depth u16.
    """

    request_id: int
    retry_after_ms: int
    queue_depth: int

    def pack(self) -> bytes:
        return struct.pack("<IIH", self.request_id, self.retry_after_ms,
                           self.queue_depth)

    @classmethod
    def unpack(cls, payload: bytes) -> "Busy":
        cur = _Cursor(payload)
        out = cls(cur.u32(), cur.u32(), cur.u16())
        cur.finish()
        return out


@dataclass(frozen=True)
class Error:
    """A typed failure.  Layout: request_id u32 | code u16 | message str16.

    ``request_id`` 0 marks a connection-level error (e.g. a handshake
    rejection) rather than a per-request one.
    """

    request_id: int
    code: ErrorCode
    message: str

    def pack(self) -> bytes:
        return (struct.pack("<IH", self.request_id, int(self.code))
                + _pack_str16(self.message))

    @classmethod
    def unpack(cls, payload: bytes) -> "Error":
        cur = _Cursor(payload)
        request_id = cur.u32()
        code_val = cur.u16()
        try:
            code = ErrorCode(code_val)
        except ValueError as exc:
            raise FrameError(f"unknown error code {code_val}") from exc
        message = cur.str16()
        cur.finish()
        return cls(request_id, code, message)


# ---------------------------------------------------------------------------
# Frame encode / decode
# ---------------------------------------------------------------------------

def encode_frame(mtype: MessageType, payload: bytes = b"",
                 flags: int = 0) -> bytes:
    """One wire frame: header plus payload."""
    if len(payload) > 0xFFFFFFFF:
        raise FrameError("frame payload exceeds u32 length")
    return _FRAME_HEADER.pack(FRAME_MAGIC, FRAME_VERSION, int(mtype), flags,
                              len(payload)) + payload


def decode_header(header: bytes,
                  max_payload: int = MAX_FRAME_BYTES,
                  ) -> Tuple[MessageType, int, int]:
    """Validate a 12-byte frame header; returns (type, flags, payload_len)."""
    if len(header) != _FRAME_HEADER.size:
        raise FrameError("short frame header")
    magic, version, type_code, flags, length = _FRAME_HEADER.unpack(header)
    if magic != FRAME_MAGIC:
        raise FrameError("bad frame magic (not a CHOCO offload connection)")
    if version != FRAME_VERSION:
        raise FrameError(f"unsupported frame version {version}")
    try:
        mtype = MessageType(type_code)
    except ValueError as exc:
        raise FrameError(f"unknown frame type {type_code}") from exc
    if length > max_payload:
        raise FrameError(
            f"frame payload of {length} bytes exceeds the {max_payload}-byte "
            f"limit"
        )
    return mtype, flags, length


def decode_frame(frame: bytes,
                 max_payload: int = MAX_FRAME_BYTES,
                 ) -> Tuple[MessageType, int, bytes]:
    """Decode one complete frame held in memory (the SimulatedLink path)."""
    mtype, flags, length = decode_header(frame[:_FRAME_HEADER.size],
                                         max_payload)
    payload = frame[_FRAME_HEADER.size:]
    if len(payload) != length:
        raise FrameError(
            f"frame body is {len(payload)} bytes, header declared {length}"
        )
    return mtype, flags, payload


HEADER_SIZE = _FRAME_HEADER.size


async def read_frame(reader: "asyncio.StreamReader",
                     max_payload: int = MAX_FRAME_BYTES,
                     ) -> Tuple[MessageType, int, bytes]:
    """Read exactly one frame from an asyncio stream.

    Raises :class:`ConnectionError` on EOF and :class:`FrameError` on a
    malformed header — callers treat both as fatal for the connection.
    """
    try:
        header = await reader.readexactly(HEADER_SIZE)
    except asyncio.IncompleteReadError as exc:
        raise ConnectionError("peer closed the connection") from exc
    mtype, flags, length = decode_header(header, max_payload)
    try:
        payload = await reader.readexactly(length) if length else b""
    except asyncio.IncompleteReadError as exc:
        raise ConnectionError("connection closed mid-frame") from exc
    return mtype, flags, payload
