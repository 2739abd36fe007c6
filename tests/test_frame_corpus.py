"""Every frame payload, pinned byte for byte over a fixed corpus.

``tests/frame_corpus.json`` holds one frame of every ``MessageType`` plus
boundary entries: every enum value, empty and maximal-length ``str16`` /
``bytes16`` fields, non-ASCII strings, zero and two blobs, nested
metadata, and the ``u16`` / ``u32`` / ``u64`` maxima.  It was recorded
before the payload codecs became one declared schema; every entry must
decode and re-encode byte-equal, and the builder below must still produce
it.

The mutation tests damage every corpus payload at its field boundaries:
truncation at every offset, one trailing byte, bytes set to ``0x00`` /
``0xFF`` / flipped in the top bit, enums out of range and length prefixes
that lie.  A damaged payload is either refused with :class:`FrameError`
(never ``struct.error``, ``IndexError``, ``UnicodeDecodeError`` or
``KeyError``) or it decodes to a message that re-encodes to exactly those
bytes, so no damage is silently absorbed.  ``LAYOUTS`` spells each payload
out independently of ``framing.py`` to find the enums and prefixes.

Re-record (only for a deliberate wire change, which also bumps
``FRAME_VERSION``) with
``PYTHONPATH=src python -m tests.test_frame_corpus > tests/frame_corpus.json``.
"""

import json
from pathlib import Path

import pytest

from repro.hecore.params import SchemeType
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
    MessageType,
    Ping,
    Pong,
    Result,
    Resume,
    ResumeAck,
    decode_frame,
    encode_frame,
)

GOLDEN = Path(__file__).parent / "frame_corpus.json"

U16, U32, U64 = 2**16 - 1, 2**32 - 1, 2**64 - 1
#: A maximal-length ``bytes16`` and a maximal-length, non-ASCII ``str16``.
MAX_BYTES16 = bytes(range(256)) * 255 + bytes(range(255))
MAX_STR16 = "ü" * 32767 + "!"
NESTED_META = {"layer": {"shape": [1, 28, 28], "taps": [[0, 1], [2, {}]]},
               "scale": 1.5, "tag": "漢字", "ok": True, "none": None}

PAYLOADS = {
    MessageType.HELLO: Hello, MessageType.HELLO_ACK: HelloAck,
    MessageType.KEY_UPLOAD: KeyUpload, MessageType.KEY_ACK: KeyAck,
    MessageType.COMPUTE: Compute, MessageType.RESULT: Result,
    MessageType.BUSY: Busy, MessageType.ERROR: Error, MessageType.BYE: None,
    MessageType.RESUME: Resume, MessageType.RESUME_ACK: ResumeAck,
    MessageType.PING: Ping, MessageType.PONG: Pong,
}


def _messages():
    """name -> payload (``None``: BYE's empty one); the name's first part
    is its ``MessageType``."""
    out = {
        "hello/bfv": Hello(SchemeType.BFV, 4096, 65537, 0,
                           (1073479681, 1073184769, 1072857089),
                           (1073668097,)),
        "hello/ckks": Hello(SchemeType.CKKS, 1024, 0, 24,
                            (1073479681,), (1073668097,)),
        "hello/maxima": Hello(SchemeType.BFV, U32, U64, U16, (U64, 1), ()),
        "hello_ack/defaults": HelloAck(session_id=1, queue_limit=16,
                                       concurrency=1),
        "hello_ack/full": HelloAck(session_id=3, queue_limit=16,
                                   concurrency=2, resume_token=b"t" * 16,
                                   grace_ms=30_000, banner="choco-offload"),
        "hello_ack/maxima": HelloAck(session_id=U32, queue_limit=U16,
                                     concurrency=U16, resume_token=b"\xff",
                                     grace_ms=U32,
                                     banner="bänner ✓ 漢"),
        "resume": Resume(7, b"s" * 16),
        "resume/empty_token": Resume(0, b""),
        "resume/max_token": Resume(U32, MAX_BYTES16),
        "resume_ack": ResumeAck(7, 16, 2, 0b110, "back"),
        "resume_ack/maxima": ResumeAck(U32, U16, U16, 0xFF, ""),
        "ping": Ping(0xDEADBEEFCAFE),
        "ping/zero": Ping(0),
        "pong/max": Pong(U64),
        "key_upload/public_empty": KeyUpload(KeyKind.PUBLIC, b""),
        "key_upload/relin": KeyUpload(KeyKind.RELIN, b"keybytes"),
        "key_upload/galois": KeyUpload(KeyKind.GALOIS,
                                       b"\x00\xff" * 8 + b"CHOC"),
        "compute": Compute(9, "knn/query", {"batch": 1}, (b"ct0", b"ct1")),
        "compute/no_blobs": Compute(1, "op", {}, ()),
        "compute/nested_meta": Compute(U32, "dnn/свёртка",
                                       NESTED_META, (b"", b"\x00" * 5)),
        "result": Result(9, {"ok": True}, (b"out",)),
        "result/empty": Result(0, {}, ()),
        "result/nested_meta": Result(U32, NESTED_META, (b"a" * 3, b"b")),
        "busy": Busy(9, 50, 4),
        "busy/maxima": Busy(U32, U32, U16),
        "error/max_message": Error(U32, ErrorCode.HANDLER_FAILED, MAX_STR16),
        "bye": None,
    }
    for kind in KeyKind:
        out[f"key_ack/{kind.name.lower()}"] = KeyAck(kind)
    for code in ErrorCode:
        out[f"error/{code.name.lower()}"] = Error(0, code, code.name.lower())
    return out


def _type_of(name):
    return MessageType[name.split("/")[0].upper()]


def _corpus():
    return {name: encode_frame(_type_of(name), b"" if msg is None
                               else msg.pack()).hex()
            for name, msg in _messages().items()}


CORPUS = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


def test_corpus_covers_every_type_and_enum_value():
    frames = [decode_frame(bytes.fromhex(h)) for h in CORPUS.values()]
    assert {mtype for mtype, _, _ in frames} == set(MessageType)
    decoded = [PAYLOADS[mtype].unpack(payload)
               for mtype, _, payload in frames if PAYLOADS[mtype]]
    assert {m.scheme for m in decoded if isinstance(m, Hello)} == set(
        SchemeType)
    assert {m.kind for m in decoded if isinstance(m, KeyAck)} == set(KeyKind)
    assert {m.kind for m in decoded
            if isinstance(m, KeyUpload)} == set(KeyKind)
    assert {m.code for m in decoded if isinstance(m, Error)} == set(ErrorCode)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus_frame_decodes_and_reencodes_byte_equal(name):
    frame = bytes.fromhex(CORPUS[name])
    mtype, flags, payload = decode_frame(frame)
    assert mtype is _type_of(name) and flags == 0
    cls = PAYLOADS[mtype]
    packed = b"" if cls is None else cls.unpack(payload).pack()
    assert encode_frame(mtype, packed) == frame


def test_corpus_regenerates_byte_equal():
    assert _corpus() == CORPUS


# ---------------------------------------------------------------------------
# Field-boundary mutations
# ---------------------------------------------------------------------------

#: Each payload's fields in wire order, written out independently of the
#: codecs.  ``scheme`` / ``kind`` / ``code`` are enums; ``moduli`` is
#: ``n_data u8 | n_special u8 | u64[n_data + n_special]``.
LAYOUTS = {
    MessageType.HELLO: ("scheme", "u32", "u64", "u16", "moduli"),
    MessageType.HELLO_ACK: ("u32", "u16", "u16", "bytes16", "u32", "str16"),
    MessageType.RESUME: ("u32", "bytes16"),
    MessageType.RESUME_ACK: ("u32", "u16", "u16", "u8", "str16"),
    MessageType.PING: ("u64",),
    MessageType.PONG: ("u64",),
    MessageType.KEY_UPLOAD: ("kind", "rest"),
    MessageType.KEY_ACK: ("kind",),
    MessageType.COMPUTE: ("u32", "str16", "meta", "blobs"),
    MessageType.RESULT: ("u32", "meta", "blobs"),
    MessageType.BUSY: ("u32", "u32", "u16"),
    MessageType.ERROR: ("u32", "code", "str16"),
}
_WIDTHS = {"u8": 1, "u16": 2, "u32": 4, "u64": 8,
           "scheme": 1, "kind": 1, "code": 2}
#: Codes outside each enum (scheme codes are BFV 0, CKKS 1).
OUT_OF_RANGE = {"scheme": (2, 0xFF), "kind": (0, 4, 0xFF),
                "code": (0, 9, 0xFFFF)}
#: A payload whose last field is ``rest`` absorbs a cut or an extra byte.
ABSORBS_TAIL = {MessageType.KEY_UPLOAD}


def _walk(mtype, payload):
    """The payload's enums as ``(offset, width, token)`` and its length
    prefixes as ``(offset, width, value, bytes_per_unit)``."""
    enums, prefixes, off = [], [], 0

    def read(width, unit=None):
        nonlocal off
        value = int.from_bytes(payload[off:off + width], "little")
        if unit is not None:
            prefixes.append((off, width, value, unit))
        off += width
        return value

    for token in LAYOUTS[mtype]:
        if token in OUT_OF_RANGE:
            enums.append((off, _WIDTHS[token], token))
        if token in _WIDTHS:
            read(_WIDTHS[token])
        elif token in ("bytes16", "str16", "meta"):
            n = read(4 if token == "meta" else 2, unit=1)
            off += n
        elif token == "blobs":
            for _ in range(read(2, unit=4)):
                n = read(4, unit=1)
                off += n
        elif token == "moduli":
            n = read(1, unit=8) + read(1, unit=8)
            off += 8 * n
        else:
            off = len(payload)
    assert off == len(payload)
    return enums, prefixes


def _with(payload, offset, width, value):
    out = bytearray(payload)
    out[offset:offset + width] = value.to_bytes(width, "little")
    return bytes(out)


def _refused_or_canonical(cls, payload):
    """FrameError, or a decode that re-encodes to exactly *payload*."""
    try:
        message = cls.unpack(payload)
    except FrameError:
        return
    assert message.pack() == payload


def _flip_offsets(n):
    """Every offset of a small payload; the ends and a stride of a large
    one (the middle of a 64 KiB string is all alike)."""
    if n <= 4096:
        return range(n)
    return sorted({*range(256), *range(256, n - 256, 251),
                   *range(n - 256, n)})


MUTATED = sorted(name for name in CORPUS
                 if PAYLOADS[_type_of(name)] is not None)


def _case(name):
    mtype, _, payload = decode_frame(bytes.fromhex(CORPUS[name]))
    return mtype, PAYLOADS[mtype], payload


@pytest.mark.parametrize("name", MUTATED)
def test_truncated_or_extended_payload_is_refused(name):
    mtype, cls, payload = _case(name)
    for cut in range(len(payload)):
        if mtype in ABSORBS_TAIL and cut >= 1:
            _refused_or_canonical(cls, payload[:cut])
        else:
            with pytest.raises(FrameError, match="truncated|unknown"):
                cls.unpack(payload[:cut])
    if mtype in ABSORBS_TAIL:
        _refused_or_canonical(cls, payload + b"\0")
    else:
        with pytest.raises(FrameError, match="trailing"):
            cls.unpack(payload + b"\0")


@pytest.mark.parametrize("name", MUTATED)
def test_damaged_bytes_are_refused_or_canonical(name):
    _, cls, payload = _case(name)
    for i in _flip_offsets(len(payload)):
        for byte in {0x00, 0xFF, payload[i] ^ 0x80} - {payload[i]}:
            _refused_or_canonical(cls, _with(payload, i, 1, byte))


@pytest.mark.parametrize("name", MUTATED)
def test_enums_out_of_range_are_refused(name):
    mtype, cls, payload = _case(name)
    for offset, width, token in _walk(mtype, payload)[0]:
        for code in OUT_OF_RANGE[token]:
            with pytest.raises(FrameError, match="unknown"):
                cls.unpack(_with(payload, offset, width, code))


@pytest.mark.parametrize("name", MUTATED)
def test_lying_length_prefixes_are_refused(name):
    mtype, cls, payload = _case(name)
    for offset, width, value, unit in _walk(mtype, payload)[1]:
        top = 2 ** (8 * width) - 1
        if top * unit > len(payload) - offset - width:
            with pytest.raises(FrameError):
                cls.unpack(_with(payload, offset, width, top))
        for lie in (value - 1, value + 1):
            if 0 <= lie <= top:
                _refused_or_canonical(cls, _with(payload, offset, width, lie))


if __name__ == "__main__":
    print("{\n" + ",\n".join(f" {json.dumps(name)}: {json.dumps(frame)}"
                             for name, frame in sorted(_corpus().items()))
          + "\n}")
