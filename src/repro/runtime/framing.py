"""Length-prefixed message framing for the CHOCO offload wire protocol.

Every message on a runtime connection is one **frame**:

    magic "CHOF" | version u8 | type u8 | flags u16 | payload_len u32 | payload

``flags`` is reserved: it is written 0 and a nonzero value is refused.

Each payload is a dataclass whose fields declare their codec once, in
wire order: one ``pack`` and one ``unpack`` walk that schema, and each
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

The session flow, resumption and the dedupe window are documented in
``docs/PROTOCOL.md``, whose frame-type table carries these layouts.
"""

from __future__ import annotations

import asyncio
import enum
import inspect
import json
import struct
from dataclasses import dataclass, field, fields
from operator import attrgetter
from typing import Dict, List, Optional, Tuple

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
HEADER_SIZE = _FRAME_HEADER.size


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
# Field codecs: ``put(value, out)`` appends the bytes to *out*; ``read(buf,
# off)`` returns ``(value, next_offset)``.  A short buffer or a value that
# does not fit raises struct.error / KeyError, which unpack / pack name.
# ---------------------------------------------------------------------------

class _Codec:
    label = ""
    layout = "{name} {label}"   # this field's part of the payload's LAYOUT
    arity = 1                   # consecutive dataclass fields it carries


class _Int(_Codec):
    def __init__(self, fmt: str):
        self.struct = struct.Struct("<" + fmt)
        self.label = f"u{8 * self.struct.size}"
        self.max = (1 << 8 * self.struct.size) - 1

    def put(self, value, out):
        out.append(self.struct.pack(value))

    def read(self, buf, off):
        return self.struct.unpack_from(buf, off)[0], off + self.struct.size


class _Bytes(_Codec):
    """Bytes after a *prefix*-wide length, or the rest of the payload."""

    def __init__(self, prefix: Optional[_Int], label: str):
        self.prefix, self.label = prefix, label

    def put(self, data, out):
        if self.prefix:
            self.prefix.put(len(data), out)
        out.append(data)

    def read(self, buf, off):
        n, off = (self.prefix.read(buf, off) if self.prefix
                  else (len(buf) - off, off))
        if off + n > len(buf):
            raise FrameError("frame payload truncated")
        return buf[off:off + n], off + n


class _Mapped(_Codec):
    """*inner*'s value mapped through *encode* / *decode*; a wire value
    that *decode* refuses is a :class:`FrameError` saying *what*."""

    def __init__(self, inner: _Codec, encode, decode, what: str, label=""):
        self.inner, self.encode, self.decode = inner, encode, decode
        self.what, self.label = what, label or inner.label

    def put(self, value, out):
        self.inner.put(self.encode(value), out)

    def read(self, buf, off):
        raw, off = self.inner.read(buf, off)
        try:
            return self.decode(raw), off
        except (ValueError, KeyError, RecursionError) as exc:
            raise FrameError(f"{self.what}: {exc}") from exc


def _enum(width: _Int, codes) -> _Mapped:
    """A member as its *width* code: *codes* maps member -> code, or is an
    ``IntEnum`` whose values are the codes."""
    if not isinstance(codes, dict):
        codes = {member: int(member) for member in codes}
    members = {code: member for member, code in codes.items()}
    what = f"unknown {type(next(iter(codes))).__name__}"
    return _Mapped(width, codes.__getitem__, members.__getitem__, what)


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


U8, U16, U32, U64 = map(_Int, "BHIQ")
BYTES16, _BYTES32 = _Bytes(U16, "bytes16"), _Bytes(U32, "bytes32")
REST, BLOBS = _Bytes(None, "rest"), _Blobs()
STR16 = _Mapped(BYTES16, str.encode, bytes.decode,
                "invalid UTF-8 in frame string", "str16")
META = _Mapped(_BYTES32, lambda meta: json.dumps(meta or {}).encode(),
               _json_object, "invalid JSON metadata in frame", "json32")


def _f(codec: _Codec, **kwargs):
    """A payload field carried by *codec* (``field`` keywords pass on)."""
    return field(metadata={"codec": codec}, **kwargs)


class _Payload:
    """Every frame payload: a subclass becomes a frozen dataclass whose
    fields' codecs, in declaration order, are its wire layout, walked by
    the one ``pack`` and ``unpack`` and spelled out in ``LAYOUT``."""

    def __init_subclass__(cls):
        dataclass(frozen=True)(cls)
        names = [f.name for f in fields(cls)]
        cls._schema = tuple(
            (names[i], attrgetter(*names[i:i + codec.arity]), codec)
            for i, codec in enumerate(f.metadata.get("codec")
                                      for f in fields(cls)) if codec)
        cls.LAYOUT = " | ".join(c.layout.format(name=name, label=c.label)
                                for name, _, c in cls._schema)
        cls.__doc__ = (f"{inspect.cleandoc(cls.__doc__)}\n\n"
                       f"Layout: {cls.LAYOUT}.")

    def pack(self) -> bytes:
        out: List[bytes] = []
        for name, get, codec in self._schema:
            try:
                codec.put(get(self), out)
            except (struct.error, KeyError) as exc:
                raise FrameError(f"{type(self).__name__}.{name} does not fit "
                                 f"its field: {exc}") from None
        return b"".join(out)

    @classmethod
    def unpack(cls, payload: bytes):
        values, off = [], 0
        try:
            for _, _, codec in cls._schema:
                value, off = codec.read(payload, off)
                values += value if codec.arity > 1 else (value,)
        except struct.error:
            raise FrameError("frame payload truncated") from None
        if off != len(payload):
            raise FrameError(
                f"trailing bytes in frame payload ({len(payload) - off})")
        message = cls(*values)
        message._check()
        return message

    def _check(self) -> None:
        """The message's own invariant beyond its field codecs."""


# ---------------------------------------------------------------------------
# Frame payloads
# ---------------------------------------------------------------------------

class Hello(_Payload):
    """Client handshake: its parameter set's
    :meth:`EncryptionParameters.fingerprint`, field for field in order."""

    scheme: SchemeType = _f(_enum(U8, {SchemeType.BFV: 0,
                                       SchemeType.CKKS: 1}))
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
# Frame encode / decode
# ---------------------------------------------------------------------------

def encode_frame(mtype: MessageType, payload: bytes = b"") -> bytes:
    """One wire frame: header (reserved flags 0) plus payload."""
    if len(payload) > U32.max:
        raise FrameError("frame payload exceeds u32 length")
    return _FRAME_HEADER.pack(FRAME_MAGIC, FRAME_VERSION, int(mtype), 0,
                              len(payload)) + payload


def decode_header(header: bytes, max_payload: int = MAX_FRAME_BYTES,
                  ) -> Tuple[MessageType, int, int]:
    """Validate a 12-byte frame header; returns (type, flags, payload_len)."""
    if len(header) != HEADER_SIZE:
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
    if flags:
        raise FrameError(f"reserved frame flags must be 0, got {flags:#x}")
    if length > max_payload:
        raise FrameError(f"frame payload of {length} bytes exceeds the "
                         f"{max_payload}-byte limit")
    return mtype, flags, length


def decode_frame(frame: bytes, max_payload: int = MAX_FRAME_BYTES,
                 ) -> Tuple[MessageType, int, bytes]:
    """Decode one complete frame held in memory (the SimulatedLink path)."""
    mtype, flags, length = decode_header(frame[:HEADER_SIZE], max_payload)
    payload = frame[HEADER_SIZE:]
    if len(payload) != length:
        raise FrameError(
            f"frame body is {len(payload)} bytes, header declared {length}")
    return mtype, flags, payload


async def read_frame(reader: "asyncio.StreamReader",
                     max_payload: int = MAX_FRAME_BYTES,
                     ) -> Tuple[MessageType, int, bytes]:
    """Read exactly one frame from an asyncio stream: EOF raises
    :class:`ConnectionError`, a malformed header :class:`FrameError`."""
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
