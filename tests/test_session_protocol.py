"""The declared session protocol (``framing.TRANSITIONS``) against a real
server: every ``(state, frame)`` pair of the opening and attached states is
driven over a :class:`SimulatedLink`, and the reply frame type, its
``ErrorCode`` and whether the connection stays open must be what the table
declares.  The detached state's exits (RESUME within the grace period,
reaping at its end) and BYE's no-retention close are driven the same way;
the fleet router's first-frame handling, which reads the same opening rows,
is checked over TCP.

The server is observed from the wire (and its session registry and
metrics), never through ``ServerSession.phase``: each case asserts what a
peer sees, not how the server books it.
"""

import asyncio
import re
from pathlib import Path

import pytest

from repro.hecore.serialize import (
    deserialize_ciphertext,
    serialize_ciphertext,
    serialize_relin_key,
)
from repro.runtime import OffloadClient, OffloadServer, SimulatedLink
from repro.runtime.fleet import FleetServer
from repro.runtime.framing import (
    PAYLOADS,
    TRANSITIONS,
    Busy,
    Compute,
    Error,
    ErrorCode,
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
    Row,
    SessionState,
    encode_frame,
    read_frame,
)

OPENING, ATTACHED = SessionState.OPENING, SessionState.ATTACHED
REPLY_TIMEOUT_S = 10.0


def run(coro):
    return asyncio.run(coro)


def _valid(mtype, params, bfv, resume=(0, b"")):
    """A well-formed payload of each frame type (``None``: BYE's)."""
    return {
        MessageType.HELLO: Hello.from_params(params),
        MessageType.HELLO_ACK: HelloAck(1, 16, 1),
        MessageType.KEY_UPLOAD: KeyUpload(
            KeyKind.RELIN, serialize_relin_key(bfv.relin_keys())),
        MessageType.KEY_ACK: KeyAck(KeyKind.RELIN),
        MessageType.COMPUTE: Compute(1, "echo"),
        MessageType.RESULT: Result(1),
        MessageType.BUSY: Busy(1, 5, 0),
        MessageType.ERROR: Error(0, ErrorCode.HANDLER_FAILED, "gave up"),
        MessageType.BYE: None,
        MessageType.RESUME: Resume(*resume),
        MessageType.RESUME_ACK: ResumeAck(1, 16, 1),
        MessageType.PING: Ping(1),
        MessageType.PONG: Pong(1),
    }[mtype]


def _declared(state, mtype):
    """What the table says a well-formed *mtype* frame gets in *state*:
    (reply type or None, ErrorCode or None, connection stays open)."""
    row = TRANSITIONS.get((state, mtype))
    if row is None:
        return MessageType.ERROR, ErrorCode.BAD_FRAME, state is ATTACHED
    reply = row.replies[0] if row.replies else None
    return reply, None, row.next is ATTACHED


def _connect(server):
    """A client link and the task serving its connection."""
    client_end, server_end = SimulatedLink.pair()
    return client_end, asyncio.ensure_future(server.serve_transport(server_end))


async def _send(link, mtype, payload) -> None:
    if payload is None:
        payload = b""
    elif not isinstance(payload, bytes):
        payload = payload.pack()
    await link.send_frame(mtype, payload)


async def _is_open(link) -> bool:
    """A PING answered by PONG: the server still serves the connection."""
    await link.send_frame(MessageType.PING, Ping(99).pack())
    try:
        mtype, _flags, payload = await asyncio.wait_for(link.recv_frame(),
                                                        REPLY_TIMEOUT_S)
    except ConnectionError:
        return False
    assert mtype is MessageType.PONG and Pong.unpack(payload).nonce == 99
    return True


async def _outcome(link):
    """(reply type or None, ErrorCode or None, connection stays open)."""
    try:
        mtype, _flags, payload = await asyncio.wait_for(link.recv_frame(),
                                                        REPLY_TIMEOUT_S)
    except ConnectionError:
        return None, None, False
    code = Error.unpack(payload).code if mtype is MessageType.ERROR else None
    return mtype, code, await _is_open(link)


async def _attached(server, params):
    """A link whose session is attached, its serving task and the session's
    (sid, resume token)."""
    link, serving = _connect(server)
    await _send(link, MessageType.HELLO, Hello.from_params(params))
    mtype, _flags, payload = await link.recv_frame()
    assert mtype is MessageType.HELLO_ACK
    ack = HelloAck.unpack(payload)
    return link, serving, (ack.session_id, ack.resume_token)


async def _detached(server, params):
    """A session whose connection was lost without BYE; its (sid, token)."""
    link, serving, resume = await _attached(server, params)
    await link.close()
    await serving
    return resume


def test_the_payload_map_is_the_corpus_map():
    """``framing.PAYLOADS`` is ``tests/test_frame_corpus.py``'s independent
    copy, and each record class knows its frame type."""
    from tests.test_frame_corpus import PAYLOADS as CORPUS_PAYLOADS

    assert PAYLOADS == CORPUS_PAYLOADS
    for mtype, cls in PAYLOADS.items():
        assert cls is None or cls.TYPE is mtype


def test_every_row_names_a_server_action_and_refuses_bad_payloads():
    """A row with an action has an ``OffloadServer._on_<action>``; a row
    that decodes a payload lists ``BAD_FRAME``, the decode site's answer."""
    for (state, mtype), row in TRANSITIONS.items():
        assert isinstance(row, Row)
        if row.action is not None:
            assert callable(getattr(OffloadServer, f"_on_{row.action}"))
            assert PAYLOADS[mtype] is not None
            assert ErrorCode.BAD_FRAME in row.errors, (state, mtype)


@pytest.mark.parametrize("mtype", list(MessageType), ids=lambda m: m.name)
def test_opening_state_every_frame(bfv_params, bfv, mtype):
    async def main():
        server = OffloadServer(bfv_params)
        try:
            resume = (0, b"")
            if mtype is MessageType.RESUME:
                resume = await _detached(server, bfv_params)
            link, _serving = _connect(server)
            await _send(link, mtype, _valid(mtype, bfv_params, bfv, resume))
            assert await _outcome(link) == _declared(OPENING, mtype)
        finally:
            await server.stop()

    run(main())


@pytest.mark.parametrize("mtype", list(MessageType), ids=lambda m: m.name)
def test_attached_state_every_frame(bfv_params, bfv, mtype):
    """...and where a row leaves the connection, RESUME tells whether the
    session was kept (detached) or not (closed)."""
    async def main():
        server = OffloadServer(bfv_params, resume_grace_s=30.0)
        try:
            link, serving, resume = await _attached(server, bfv_params)
            await _send(link, mtype, _valid(mtype, bfv_params, bfv))
            assert await _outcome(link) == _declared(ATTACHED, mtype)
            row = TRANSITIONS.get((ATTACHED, mtype))
            if row is None or row.next is ATTACHED:
                return
            await serving
            retry, _serving = _connect(server)
            await _send(retry, MessageType.RESUME, Resume(*resume))
            mtype_back, code, _open = await _outcome(retry)
            if row.next is SessionState.DETACHED:
                assert mtype_back is MessageType.RESUME_ACK
            else:
                assert row.next is SessionState.CLOSED
                assert code is ErrorCode.RESUME_REJECTED
        finally:
            await server.stop()

    run(main())


#: A frame each row refuses, and the ``ErrorCode`` it must be refused with.
HOSTILE = {
    "hello/other-params": (OPENING, MessageType.HELLO, "ckks-hello",
                           ErrorCode.PARAMS_MISMATCH),
    "hello/truncated": (OPENING, MessageType.HELLO, b"\x00\x00\x04",
                        ErrorCode.BAD_FRAME),
    "resume/unknown": (OPENING, MessageType.RESUME,
                       Resume(4242, b"\0" * 16), ErrorCode.RESUME_REJECTED),
    "resume/truncated": (OPENING, MessageType.RESUME, b"\x01\x00",
                         ErrorCode.BAD_FRAME),
    "key_upload/not-a-key": (ATTACHED, MessageType.KEY_UPLOAD,
                             KeyUpload(KeyKind.RELIN, b"not a key"),
                             ErrorCode.BAD_FRAME),
    "compute/unknown-op": (ATTACHED, MessageType.COMPUTE,
                           Compute(1, "no-such-op"), ErrorCode.UNKNOWN_OP),
    "compute/truncated": (ATTACHED, MessageType.COMPUTE, b"\x01",
                          ErrorCode.BAD_FRAME),
    "ping/truncated": (ATTACHED, MessageType.PING, b"abc",
                       ErrorCode.BAD_FRAME),
}


@pytest.mark.parametrize("case", sorted(HOSTILE))
def test_a_refused_frame_leaves_the_state_as_it_was(bfv_params, ckks_params,
                                                     case):
    """Each row's error answers are declared, and an error answer moves
    nothing: an opening connection is closed, an attached one served."""
    state, mtype, payload, code = HOSTILE[case]
    if payload == "ckks-hello":
        payload = Hello.from_params(ckks_params)

    async def main():
        server = OffloadServer(bfv_params)
        try:
            if state is OPENING:
                link, _serving = _connect(server)
            else:
                link, _serving, _resume = await _attached(server, bfv_params)
            await _send(link, mtype, payload)
            assert code in TRANSITIONS[state, mtype].errors
            assert await _outcome(link) == (MessageType.ERROR, code,
                                            state is ATTACHED)
        finally:
            await server.stop()

    run(main())


def test_a_malformed_ping_is_refused_and_the_session_keeps_serving(
        bfv_params, bfv):
    """A PING that does not decode earns ``BAD_FRAME`` and is counted; the
    session stays attached and the next echo round-trips."""
    async def main():
        server = OffloadServer(bfv_params)
        try:
            link, _serving, _resume = await _attached(server, bfv_params)
            await link.send_frame(MessageType.PING, b"abc")
            mtype, _flags, payload = await link.recv_frame()
            assert mtype is MessageType.ERROR
            assert Error.unpack(payload).code is ErrorCode.BAD_FRAME
            assert server.metrics.get(1).errors == 1
            ct = bfv.encrypt_symmetric([6])
            await _send(link, MessageType.COMPUTE, Compute(
                1, "echo", {}, (serialize_ciphertext(ct),)))
            mtype, _flags, payload = await link.recv_frame()
            assert mtype is MessageType.RESULT
            (blob,) = Result.unpack(payload).blobs
            assert bfv.decrypt(deserialize_ciphertext(blob, bfv_params))[0] \
                == 6
        finally:
            await server.stop()

    run(main())


def test_detached_session_resumes_within_grace(bfv_params):
    async def main():
        server = OffloadServer(bfv_params, resume_grace_s=30.0)
        try:
            resume = await _detached(server, bfv_params)
            link, _serving = _connect(server)
            await _send(link, MessageType.RESUME, Resume(*resume))
            assert await _outcome(link) == (MessageType.RESUME_ACK, None,
                                            True)
            assert server.metrics.sessions_resumed == 1
        finally:
            await server.stop()

    run(main())


def test_detached_session_is_reaped_when_grace_expires(bfv_params):
    async def main():
        server = OffloadServer(bfv_params, resume_grace_s=0.05)
        try:
            sid, token = await _detached(server, bfv_params)
            deadline = asyncio.get_running_loop().time() + REPLY_TIMEOUT_S
            while sid in server._sessions:
                assert asyncio.get_running_loop().time() < deadline
                await asyncio.sleep(0.01)
            assert server.metrics.sessions_reaped == 1
            link, _serving = _connect(server)
            await _send(link, MessageType.RESUME, Resume(sid, token))
            assert await _outcome(link) == (
                MessageType.ERROR, ErrorCode.RESUME_REJECTED, False)
        finally:
            await server.stop()

    run(main())


def test_bye_closes_the_session_with_no_retention(bfv_params):
    async def main():
        server = OffloadServer(bfv_params, resume_grace_s=30.0)
        try:
            link, serving, (sid, token) = await _attached(server, bfv_params)
            await _send(link, MessageType.BYE, None)
            assert await _outcome(link) == (None, None, False)
            await serving
            assert sid not in server._sessions
            assert server.metrics.sessions_reaped == 0
            retry, _serving = _connect(server)
            await _send(retry, MessageType.RESUME, Resume(sid, token))
            assert await _outcome(retry) == (
                MessageType.ERROR, ErrorCode.RESUME_REJECTED, False)
        finally:
            await server.stop()

    run(main())


# ---------------------------------------------------------------------------
# The fleet router reads the same opening rows
# ---------------------------------------------------------------------------

async def _first_reply(host, port, mtype, payload):
    """Send one first frame on a fresh TCP connection; the reply frame."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(encode_frame(mtype, payload))
        await writer.drain()
        return await asyncio.wait_for(read_frame(reader), REPLY_TIMEOUT_S)
    finally:
        writer.close()


def test_first_frame_refusal_is_one_message(bfv_params):
    """A first COMPUTE gets the same ERROR payload, byte for byte, from a
    bare server and from the fleet router."""
    first = Compute(1, "echo").pack()

    async def main():
        server = OffloadServer(bfv_params)
        host, port = await server.start()
        try:
            bare = await _first_reply(host, port, MessageType.COMPUTE, first)
        finally:
            await server.stop()
        async with FleetServer(bfv_params, 1) as fleet:
            routed = await _first_reply(fleet.host, fleet.port,
                                        MessageType.COMPUTE, first)
        return bare, routed

    bare, routed = run(main())
    assert bare[0] is routed[0] is MessageType.ERROR
    assert bare[2] == routed[2]
    error = Error.unpack(bare[2])
    assert error.code is ErrorCode.BAD_FRAME
    assert re.search(r"HELLO or RESUME", error.message)


def test_a_hello_the_router_cannot_deliver_is_retryable(bfv_params):
    """A HELLO whose worker cannot take the connection is answered ``BUSY``
    (as when no worker is live), so a client retrying across the outage
    connects."""
    async def unreachable(msg, sock=None):
        raise OSError("control pipe down")

    async def main():
        async with FleetServer(bfv_params, 1, retry_after_ms=20) as fleet:
            handle = fleet.worker(0)
            handle.send = unreachable
            mtype, _flags, payload = await _first_reply(
                fleet.host, fleet.port, MessageType.HELLO,
                Hello.from_params(bfv_params).pack())
            assert mtype is MessageType.BUSY
            assert Busy.unpack(payload).retry_after_ms == 20

            # The hand-over works again once the instance override is gone.
            asyncio.get_running_loop().call_later(0.15, delattr, handle,
                                                  "send")
            client = OffloadClient(bfv_params, fleet.host, fleet.port,
                                   request_timeout=REPLY_TIMEOUT_S,
                                   max_retries=10, backoff_s=0.02)
            await client.connect()
            assert client.stats.busy_waits >= 1
            await client.close()

    run(main())


# ---------------------------------------------------------------------------
# docs/PROTOCOL.md's Session states table is the declared one
# ---------------------------------------------------------------------------

def _names(cell, enum):
    return tuple(enum[name.strip("` ")] for name in cell.split(",")
                 if name.strip("` ") not in ("", "—"))


def test_protocol_doc_transitions_are_the_table():
    """docs/PROTOCOL.md's *Session states* table lists exactly
    ``framing.TRANSITIONS``: state, frame, action, replies, next state and
    the ``ErrorCode`` s of every row."""
    doc = Path(__file__).parent.parent / "docs" / "PROTOCOL.md"
    rows = {}
    for line in doc.read_text().splitlines():
        if re.match(r"\| (opening|attached|detached|closed) \| `[A-Z_]+` \|",
                    line):
            state, mtype, action, replies, nxt, errors = (
                c.strip() for c in line.strip("|").split("|"))
            rows[SessionState(state), MessageType[mtype.strip("`")]] = Row(
                None if action == "—" else action.strip("`"),
                SessionState(nxt), _names(replies, MessageType),
                _names(errors, ErrorCode))
    assert rows == TRANSITIONS
