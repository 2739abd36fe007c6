"""Tests for the asyncio offload runtime: framing, sessions, scheduling,
backpressure, and cost-model parity.

Async tests run through plain ``asyncio.run`` so the suite has no event-loop
plugin dependency.
"""

import asyncio
import math
import re
from pathlib import Path

import numpy as np
import pytest

from repro.apps.knn import EncryptedKnn, KnnOffloadService, RemoteKnn
from repro.core.distance import KERNEL_VARIANTS
from repro.core.protocol import ClientAidedSession
from repro.hecore.bfv import BfvContext
from repro.hecore.params import SchemeType, small_test_parameters
from repro.hecore.serialize import serialize_ciphertext
from repro.platforms.radio import BluetoothLink
from repro.runtime import (
    HEADER_SIZE,
    MAX_FRAME_BYTES,
    ErrorCode,
    FrameError,
    MessageType,
    OffloadClient,
    OffloadError,
    OffloadServer,
    OffloadTimeout,
    ServerBusy,
    SimulatedLink,
    decode_frame,
    encode_frame,
)
from repro.runtime.framing import (
    Busy,
    Compute,
    Error,
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
)


def run(coro):
    return asyncio.run(coro)


# The shared ``bfv_params``/``ckks_params``/``bfv``/``ckks`` fixtures come
# from conftest.py; the server builds its own evaluation contexts from them.


# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------

def test_frame_roundtrip():
    payload = b"hello choco"
    mtype, flags, out = decode_frame(
        encode_frame(MessageType.COMPUTE, payload))
    assert mtype is MessageType.COMPUTE
    assert flags == 0
    assert out == payload


def test_frame_rejects_reserved_flags():
    frame = bytearray(encode_frame(MessageType.COMPUTE, b"x"))
    frame[6:8] = (7).to_bytes(2, "little")
    with pytest.raises(FrameError, match="reserved"):
        decode_frame(bytes(frame))


def test_frame_rejects_bad_magic():
    frame = bytearray(encode_frame(MessageType.HELLO, b"x"))
    frame[0:4] = b"HTTP"
    with pytest.raises(FrameError, match="magic"):
        decode_frame(bytes(frame))


def test_frame_rejects_bad_version():
    frame = bytearray(encode_frame(MessageType.HELLO, b"x"))
    frame[4] = 42
    with pytest.raises(FrameError, match="version"):
        decode_frame(bytes(frame))


def test_frame_rejects_unknown_type():
    frame = bytearray(encode_frame(MessageType.HELLO, b"x"))
    frame[5] = 200
    with pytest.raises(FrameError, match="type"):
        decode_frame(bytes(frame))


def test_frame_rejects_oversize():
    """A header declaring one byte past ``MAX_FRAME_BYTES`` is refused from
    the header alone, before any payload is awaited."""
    header = bytearray(encode_frame(MessageType.COMPUTE))
    header[8:12] = (MAX_FRAME_BYTES + 1).to_bytes(4, "little")
    assert len(header) == HEADER_SIZE == 12
    with pytest.raises(FrameError, match="exceeds"):
        decode_frame(bytes(header))


def test_frame_rejects_length_mismatch():
    frame = encode_frame(MessageType.COMPUTE, b"abc")
    with pytest.raises(FrameError):
        decode_frame(frame + b"extra")
    with pytest.raises(FrameError):
        decode_frame(frame[:-1])


def test_payload_roundtrips(bfv_params):
    hello = Hello.from_params(bfv_params)
    assert Hello.unpack(hello.pack()) == hello
    assert hello.mismatch(bfv_params) is None
    ack = HelloAck(session_id=3, queue_limit=16, concurrency=2,
                   banner="banner")
    assert HelloAck.unpack(ack.pack()) == ack
    full_ack = HelloAck(session_id=3, queue_limit=16, concurrency=2,
                        banner="banner", resume_token=b"t" * 16,
                        grace_ms=30_000)
    assert HelloAck.unpack(full_ack.pack()) == full_ack
    compute = Compute(9, "knn/query", {"batch": 1}, (b"ct0", b"ct1"))
    assert Compute.unpack(compute.pack()) == compute
    result = Result(9, {"ok": True}, (b"out",))
    assert Result.unpack(result.pack()) == result
    busy = Busy(9, 50, 4)
    assert Busy.unpack(busy.pack()) == busy
    err = Error(0, ErrorCode.PARAMS_MISMATCH, "no")
    assert Error.unpack(err.pack()) == err
    upload = KeyUpload(KeyKind.RELIN, b"keybytes")
    assert KeyUpload.unpack(upload.pack()) == upload


def test_hello_detects_mismatch(bfv_params, ckks_params):
    hello = Hello.from_params(ckks_params)
    assert "scheme" in hello.mismatch(bfv_params)
    other = small_test_parameters(SchemeType.BFV, poly_degree=1024,
                                  plain_bits=16, data_bits=(28, 28))
    assert "moduli" in Hello.from_params(other).mismatch(bfv_params)


def test_compute_payload_rejects_garbage():
    with pytest.raises(FrameError):
        Compute.unpack(b"\x01")                       # truncated
    good = Compute(1, "op", {}, ()).pack()
    with pytest.raises(FrameError, match="trailing"):
        Compute.unpack(good + b"\0")


def test_payload_invariants_beyond_the_codecs_are_refused():
    with pytest.raises(FrameError, match="no operation"):
        Compute.unpack(Compute(1, "", {}, ()).pack())
    with pytest.raises(FrameError, match="no data moduli"):
        Hello.unpack(Hello(SchemeType.BFV, 8, 17, 0, (), (97,)).pack())


def test_pack_names_the_field_a_value_does_not_fit():
    with pytest.raises(FrameError, match=r"HelloAck\.queue_limit"):
        HelloAck(session_id=1, queue_limit=70_000, concurrency=1).pack()
    with pytest.raises(FrameError, match=r"Busy\.request_id"):
        Busy(-1, 0, 0).pack()
    with pytest.raises(FrameError, match=r"Error\.message"):
        Error(0, ErrorCode.BAD_FRAME, "x" * 65_536).pack()
    with pytest.raises(FrameError, match=r"Compute\.blobs"):
        Compute(1, "op", {}, (b"",) * 65_536).pack()
    with pytest.raises(FrameError, match=r"KeyAck\.kind"):
        KeyAck(7).pack()
    with pytest.raises(FrameError, match=r"Hello\.data_moduli"):
        Hello(SchemeType.BFV, 8, 17, 0, (97,) * 256, ()).pack()


def test_protocol_doc_layouts_are_the_schema():
    """docs/PROTOCOL.md's frame-type table shows each payload's derived
    ``LAYOUT`` (escaped pipes inside a code span)."""
    from tests.test_frame_corpus import PAYLOADS

    doc = Path(__file__).parent.parent / "docs" / "PROTOCOL.md"
    rows = {}
    for line in doc.read_text().splitlines():
        if re.match(r"\| \d+ \| `[A-Z_]+` \|", line):
            cells = [c.strip() for c in re.split(r"(?<!\\)\|", line)[1:-1]]
            rows[cells[1].strip("`")] = cells[-1].strip("`").replace(
                "\\|", "|")
    assert set(rows) == {mtype.name for mtype in MessageType}
    for mtype, cls in PAYLOADS.items():
        assert rows[mtype.name] == (cls.LAYOUT if cls else "(empty)"), mtype


def test_protocol_doc_record_layouts_are_the_schema():
    """docs/PROTOCOL.md's blob-layout and frame-header tables show every
    header record (each blob header and the frame header) with its
    derived ``LAYOUT``."""
    from repro.hecore import serialize
    from repro.runtime import framing

    doc = Path(__file__).parent.parent / "docs" / "PROTOCOL.md"
    rows = {}
    for line in doc.read_text().splitlines():
        if re.match(r"\| [^|`]+ \| `_[A-Za-z]+` \|", line):
            cells = [c.strip() for c in re.split(r"(?<!\\)\|", line)[1:-1]]
            rows[cells[1].strip("`")] = cells[2].strip("`").replace(
                "\\|", "|")
    records = {
        name: cls for module in (serialize, framing)
        for name, cls in vars(module).items()
        if isinstance(cls, type) and issubclass(cls, serialize._Record)
        and "_schema" in vars(cls) and not issubclass(cls, framing._Payload)}
    assert set(rows) == set(records)
    for name, cls in records.items():
        assert rows[name] == cls.LAYOUT, name


# ---------------------------------------------------------------------------
# Sessions over loopback TCP
# ---------------------------------------------------------------------------

def test_tcp_echo_session(bfv_params, bfv):
    async def main():
        server = OffloadServer(bfv_params)
        host, port = await server.start()
        try:
            async with OffloadClient(bfv_params, host, port) as client:
                assert client.session_id == 1
                ct = bfv.encrypt_symmetric([3, 1, 4])
                out, meta = await client.request("echo", [ct])
                assert len(out) == 1
                assert np.array_equal(bfv.decrypt(out[0])[:3], [3, 1, 4])
                stats = server.metrics.get(1).snapshot()
                assert stats["requests"] == stats["responses"] == 1
                assert stats["ciphertexts_in"] == stats["ciphertexts_out"] == 1
                assert stats["bytes_up"] > 0 and stats["bytes_down"] > 0
        finally:
            await server.stop()

    run(main())


def test_unknown_op_and_params_mismatch(bfv_params, ckks_params):
    async def main():
        server = OffloadServer(bfv_params)
        host, port = await server.start()
        try:
            client = await OffloadClient(bfv_params, host, port).connect()
            with pytest.raises(OffloadError) as exc_info:
                await client.request("no/such/op")
            assert exc_info.value.code is ErrorCode.UNKNOWN_OP
            await client.close()
            # A CKKS client cannot talk to a BFV server.
            with pytest.raises(OffloadError, match="mismatch"):
                await OffloadClient(ckks_params, host, port).connect()
            assert server.metrics.sessions_rejected == 1
        finally:
            await server.stop()

    run(main())


@pytest.mark.parametrize("knob", [
    {"queue_limit": 70_000}, {"concurrency": 1 << 16},
    {"banner": "x" * 65_536}, {"retry_after_ms": 1 << 32}])
def test_server_refuses_settings_its_frames_cannot_carry(bfv_params, knob):
    (name, _), = knob.items()
    with pytest.raises(ValueError, match=name):
        OffloadServer(bfv_params, **knob)


def test_unencodable_hello_ack_leaves_no_session(bfv_params):
    """The HELLO_ACK is packed before the session is registered: a reply
    that cannot be encoded drops the connection and leaks nothing."""
    async def main():
        server = OffloadServer(bfv_params)
        server.queue_limit = 70_000          # past the constructor's check
        client_end, server_end = SimulatedLink.pair()
        serving = asyncio.ensure_future(server.serve_transport(server_end))
        await client_end.send_frame(MessageType.HELLO,
                                    Hello.from_params(bfv_params).pack())
        with pytest.raises(ConnectionError):
            await client_end.recv_frame()
        await serving
        assert not server._sessions and not server.metrics.sessions
        assert server.metrics.sessions_opened == 0
        await server.stop()

    run(main())


def test_server_cannot_decrypt(bfv_params, bfv):
    async def main():
        server = OffloadServer(bfv_params)

        def evil(session, request):
            session.ctx.decrypt(request.cts[0])
            return []

        server.register("evil", evil)
        host, port = await server.start()
        try:
            async with OffloadClient(bfv_params, host, port) as client:
                with pytest.raises(OffloadError) as exc_info:
                    await client.request("evil", [bfv.encrypt([1])])
                assert exc_info.value.code is ErrorCode.PROTOCOL_VIOLATION
        finally:
            await server.stop()

    run(main())


def test_missing_keys_is_typed(bfv_params, bfv):
    async def main():
        server = OffloadServer(bfv_params)

        def needs_relin(session, request):
            return [session.ctx.multiply(request.cts[0], request.cts[0])]

        def needs_galois(session, request):
            return [session.ctx.rotate_rows(request.cts[0], 1)]

        server.register("mul", needs_relin)
        server.register("rot", needs_galois)
        host, port = await server.start()
        try:
            async with OffloadClient(bfv_params, host, port) as client:
                ct = bfv.encrypt([2])
                for op in ("mul", "rot"):
                    with pytest.raises(OffloadError) as exc_info:
                        await client.request(op, [ct])
                    assert exc_info.value.code is ErrorCode.MISSING_KEYS
        finally:
            await server.stop()

    run(main())


def test_missing_keys_is_classified_by_type_not_message(bfv_params, bfv):
    """A handler's own ValueError that happens to say "Galois" is a
    handler failure, not a missing evaluation key."""
    async def main():
        server = OffloadServer(bfv_params)

        def bad_input(session, request):
            raise ValueError("Galois field size must be prime")

        server.register("bad", bad_input)
        host, port = await server.start()
        try:
            async with OffloadClient(bfv_params, host, port) as client:
                with pytest.raises(OffloadError) as exc_info:
                    await client.request("bad", [bfv.encrypt([2])])
                assert exc_info.value.code is ErrorCode.HANDLER_FAILED
        finally:
            await server.stop()

    run(main())


# ---------------------------------------------------------------------------
# Encrypted KNN end to end: the wire path is bit-identical to in-process
# ---------------------------------------------------------------------------

def test_knn_over_tcp_bit_identical(ckks_params, ckks):
    """A full encrypted-KNN round over loopback TCP decrypts to exactly the
    bytes the in-process path produces: identical ciphertexts and uploaded
    keys make HE evaluation deterministic on either side of the wire."""
    from repro.core.distance import KERNEL_VARIANTS, DistanceProblem

    rng = np.random.default_rng(42)
    points = rng.normal(size=(10, 4))
    query = rng.normal(size=4)

    kernel = KERNEL_VARIANTS["collapsed"](
        ckks, DistanceProblem(n_points=len(points), dims=4))
    galois = ckks.make_galois_keys(kernel.required_rotation_steps())
    point_cts = [ckks.encrypt(v) for v in kernel.pack_points(points)]
    query_cts = [ckks.encrypt(v) for v in kernel.pack_query(query)]

    # In-process reference on the very same ciphertexts.
    local_out = kernel.compute(point_cts, query_cts)
    local_dec = [ckks.decrypt(ct) for ct in local_out]

    async def main():
        server = OffloadServer(ckks_params)
        KnnOffloadService.install(server)
        host, port = await server.start()
        try:
            async with OffloadClient(ckks_params, host, port) as client:
                await client.upload_keys(relin=ckks.relin_keys(),
                                         galois=galois)
                _, meta = await client.request(
                    "knn/store", point_cts,
                    {"n_points": len(points), "dims": 4,
                     "variant": "collapsed"},
                    account=False)
                out, _ = await client.request("knn/query", query_cts,
                                              {"batch": meta["batch"]})
                return out
        finally:
            await server.stop()

    remote_out = run(main())
    assert len(remote_out) == len(local_out)
    for remote, local in zip(remote_out, local_out):
        assert serialize_ciphertext(remote, compress_seed=False) == \
            serialize_ciphertext(local, compress_seed=False)
        assert np.array_equal(ckks.decrypt(remote), ckks.decrypt(local))
    # And the decrypted distances are actually correct.
    dists = kernel.decode([np.real(d) for d in local_dec])
    truth = np.sum((points - query) ** 2, axis=1)
    assert np.allclose(dists, truth, atol=1e-2)


def test_remote_knn_classifies(ckks_params):
    from repro.hecore.ckks import CkksContext

    rng = np.random.default_rng(3)
    points = rng.normal(size=(12, 4))
    labels = rng.integers(0, 3, size=12)
    queries = rng.normal(size=(2, 4))

    async def main():
        server = OffloadServer(ckks_params)
        KnnOffloadService.install(server)
        host, port = await server.start()
        ctx = CkksContext(ckks_params, seed=11)
        try:
            async with OffloadClient(ckks_params, host, port) as client:
                knn = RemoteKnn(client, ctx, k=3, variant="collapsed")
                await knn.add_points(points[:8], labels[:8])
                await knn.add_points(points[8:], labels[8:])  # second batch
                assert knn.size == 12
                return [await knn.classify(q) for q in queries]
        finally:
            await server.stop()

    results = run(main())
    for query, result in zip(queries, results):
        truth = np.sum((points - query) ** 2, axis=1)
        expected = np.argsort(truth)[:3]
        assert np.allclose(np.sort(result.distances), np.sort(truth),
                           atol=1e-2)
        assert set(result.neighbor_indices) == set(expected)


def test_remote_knn_rotation_free_variant_matches_in_process(ckks_params):
    """dimension-major needs no rotations: provisioning uploads the relin
    key only (an empty Galois set cannot even be serialized), and the
    served classification equals the in-process one."""
    from repro.hecore.ckks import CkksContext

    rng = np.random.default_rng(4)
    points = rng.normal(size=(8, 4))
    labels = (np.arange(8) % 3).tolist()
    query = points[5] + 0.01

    local = EncryptedKnn(CkksContext(ckks_params, seed=12), points, labels,
                         k=3, variant="dimension-major").classify(query)

    async def main():
        server = OffloadServer(ckks_params)
        KnnOffloadService.install(server)
        host, port = await server.start()
        ctx = CkksContext(ckks_params, seed=12)
        try:
            async with OffloadClient(ckks_params, host, port) as client:
                knn = RemoteKnn(client, ctx, k=3, variant="dimension-major")
                await knn.add_points(points, labels)
                return await knn.classify(query)
        finally:
            await server.stop()

    remote = run(main())
    assert remote.label == local.label
    assert list(remote.neighbor_indices) == list(local.neighbor_indices)
    assert np.allclose(remote.distances, local.distances, atol=1e-3)


@pytest.mark.parametrize("variant,relinearizations", [
    ("dimension-major", 1),     # 16 squares summed, relinearised once
    ("collapsed", 1),           # one square per point ciphertext, as before
])
def test_served_query_meters_its_relinearizations(ckks_params, variant,
                                                  relinearizations):
    """The session metrics count the key switches a query's squares cost:
    one per sum of products.  A dimension-major query over 16 dimensions
    used to relinearise each of its 16 squares; the collapsed query's one
    square feeds a rotation, so it keeps its one relinearization."""
    from repro.hecore.ckks import CkksContext

    rng = np.random.default_rng(8)
    points = rng.uniform(-0.5, 0.5, (8, 16))
    labels = (np.arange(8) % 3).tolist()
    query = points[2] + 0.01

    async def main():
        server = OffloadServer(ckks_params)
        KnnOffloadService.install(server)
        host, port = await server.start()
        try:
            async with OffloadClient(ckks_params, host, port) as client:
                knn = RemoteKnn(client, CkksContext(ckks_params, seed=14),
                                k=3, variant=variant)
                await knn.add_points(points, labels)
                metrics = server.metrics.get(client.session_id)
                before = metrics.relinearizations
                result = await knn.classify(query)
                return result, metrics.relinearizations - before
        finally:
            await server.stop()

    result, metered = run(main())
    assert metered == relinearizations
    truth = np.sum((points - query) ** 2, axis=1)
    assert np.allclose(result.distances, truth, atol=1e-2)


# ---------------------------------------------------------------------------
# Fair scheduling across concurrent sessions
# ---------------------------------------------------------------------------

def test_four_sessions_scheduled_fairly(bfv_params):
    """Four concurrent loopback sessions, six queued requests each: every
    session completes, and the dispatch trace interleaves them round-robin
    rather than serving any session's backlog in one burst."""
    n_clients, n_requests = 4, 6

    async def main():
        release = asyncio.Event()

        async def gated(session, request):
            await release.wait()
            return []

        server = OffloadServer(bfv_params, queue_limit=n_requests,
                               concurrency=1)
        server.register("gated", gated)
        host, port = await server.start()
        try:
            clients = [await OffloadClient(bfv_params, host, port).connect()
                       for _ in range(n_clients)]
            pending = [
                asyncio.ensure_future(client.request("gated", timeout=30))
                for client in clients
                for _ in range(n_requests)
            ]
            # Wait until every request is accepted into a session queue
            # (one per session is already dispatched and parked on the gate),
            # then open the gate: the dispatch order from here is pure
            # scheduling policy, not arrival timing.
            while sum(m.requests for m in server.metrics.sessions.values()) \
                    < n_clients * n_requests:
                await asyncio.sleep(0.01)
            release.set()
            await asyncio.gather(*pending)
            for client in clients:
                await client.close()
            return server.metrics
        finally:
            await server.stop()

    metrics = run(main())
    order = metrics.service_order
    assert len(order) == n_clients * n_requests
    session_ids = sorted(metrics.sessions)
    for sid in session_ids:
        stats = metrics.get(sid)
        assert stats.responses == n_requests
        assert stats.busy_rejections == 0
    # Round-robin: all four sessions appear among the first five dispatches,
    # and no session waits more than one full rotation between dispatches.
    assert set(session_ids) <= set(order[:5])
    for sid in session_ids:
        positions = [i for i, s in enumerate(order) if s == sid]
        gaps = np.diff(positions)
        assert gaps.max() <= n_clients + 1


# ---------------------------------------------------------------------------
# Backpressure and client retry
# ---------------------------------------------------------------------------

def test_queue_full_busy_and_retry(bfv_params):
    async def main():
        release = asyncio.Event()
        started = asyncio.Event()

        async def stall(session, request):
            started.set()
            await release.wait()
            return []

        server = OffloadServer(bfv_params, queue_limit=1, concurrency=1,
                               retry_after_ms=20)
        server.register("stall", stall)
        host, port = await server.start()
        try:
            client = await OffloadClient(bfv_params, host, port).connect()
            # First request occupies the single compute slot...
            first = asyncio.ensure_future(client.request("stall", timeout=30))
            await started.wait()
            # ...second fills the queue...
            second = asyncio.ensure_future(
                client.request("stall", timeout=30))
            while server.metrics.get(1).requests < 2:
                await asyncio.sleep(0.01)
            # ...so a third, submitted with no retries, bounces with BUSY.
            with pytest.raises(ServerBusy) as exc_info:
                await client.request("stall", retries=0)
            assert exc_info.value.retry_after_ms == 20
            assert server.metrics.get(1).busy_rejections == 1
            # With retries allowed, the same request eventually lands:
            # the gate opens, the queue drains, and the retry is accepted.
            third = asyncio.ensure_future(
                client.request("stall", retries=8, timeout=30))
            await asyncio.sleep(0.05)
            release.set()
            await asyncio.gather(first, second, third)
            stats = server.metrics.get(1)
            assert stats.responses == 3
            assert stats.busy_rejections >= 1
            await client.close()
        finally:
            await server.stop()

    run(main())


def test_request_timeout_then_retry_succeeds(bfv_params):
    """A RESULT delayed past the client timeout triggers a resubmission —
    which the server absorbs as a duplicate: the handler runs exactly once,
    the session state mutates exactly once, and the original's RESULT
    resolves the retried request (same request id, idempotent compute)."""
    async def main():
        calls = {"n": 0}

        async def slow_once(session, request):
            calls["n"] += 1
            session.state["mutations"] = session.state.get("mutations", 0) + 1
            if calls["n"] == 1:
                await asyncio.sleep(0.5)   # push RESULT past the timeout
            return []

        server = OffloadServer(bfv_params, concurrency=2)
        server.register("slow-once", slow_once)
        host, port = await server.start()
        try:
            client = await OffloadClient(bfv_params, host, port).connect()
            out, _meta = await client.request("slow-once", timeout=0.2,
                                              retries=4)
            assert out == []
            assert calls["n"] == 1      # retried on the wire, ran once
            stats = server.metrics.get(1)
            assert stats.handler_invocations == 1
            assert stats.duplicates_suppressed >= 1
            session = next(iter(server._sessions.values()))
            assert session.state["mutations"] == 1
            await client.close()
        finally:
            await server.stop()

    run(main())


def test_result_replayed_from_dedupe_window(bfv_params, bfv):
    """A retry that arrives *after* the original RESULT was sent (lost on
    the wire, say) is answered from the dedupe window without re-executing,
    and the replayed bytes equal the original result."""
    async def main():
        calls = {"n": 0}

        def once(session, request):
            calls["n"] += 1
            return request.cts

        server = OffloadServer(bfv_params)
        server.register("once", once)
        host, port = await server.start()
        try:
            client = await OffloadClient(bfv_params, host, port).connect()
            ct = bfv.encrypt_symmetric([7])
            out1, _ = await client.request("once", [ct])
            # Resubmit the completed request id by hand, exactly as a retry
            # whose original RESULT was lost on the wire would.
            payload = Compute(1, "once", {},
                              (serialize_ciphertext(ct),)).pack()
            future = asyncio.get_running_loop().create_future()
            client._pending[1] = future
            await client.transport.send_frame(MessageType.COMPUTE, payload)
            kind, reply = await asyncio.wait_for(future, 5)
            assert kind == "result"
            assert calls["n"] == 1
            assert server.metrics.get(1).results_replayed == 1
            # The replay carries the original result bytes verbatim.
            assert reply.blobs == (
                serialize_ciphertext(out1[0], compress_seed=False),)
            await client.close()
        finally:
            await server.stop()

    run(main())


def test_request_timeout_exhausted(bfv_params):
    async def main():
        release = asyncio.Event()

        async def stall(session, request):
            await release.wait()
            return []

        server = OffloadServer(bfv_params)
        server.register("stall", stall)
        host, port = await server.start()
        try:
            client = await OffloadClient(bfv_params, host, port).connect()
            with pytest.raises(OffloadTimeout):
                await client.request("stall", timeout=0.15, retries=1)
            release.set()
            await client.close()
        finally:
            await server.stop()

    run(main())


def test_tcp_connect_backoff_is_capped(monkeypatch):
    """``TcpTransport.connect`` doubles its retry delay like every other
    retry loop of the runtime — up to ``MAX_BACKOFF_S``, never past it."""
    from repro.runtime.transport import MAX_BACKOFF_S, TcpTransport

    sleeps = []

    async def refuse(_host, _port):
        raise ConnectionRefusedError("nobody listening")

    async def record(seconds):
        sleeps.append(seconds)

    monkeypatch.setattr(asyncio, "open_connection", refuse)
    monkeypatch.setattr(asyncio, "sleep", record)
    with pytest.raises(ConnectionRefusedError):
        run(TcpTransport.connect("127.0.0.1", 1, retries=10, backoff_s=0.1))
    assert len(sleeps) == 10
    assert sleeps[:5] == pytest.approx([0.1, 0.2, 0.4, 0.8, 1.6])
    assert max(sleeps) == MAX_BACKOFF_S == sleeps[-1]


# ---------------------------------------------------------------------------
# SimulatedLink: wire traffic reproduces the analytical cost model exactly
# ---------------------------------------------------------------------------

def test_simulated_link_matches_cost_ledger(ckks_params):
    """One encrypted-KNN classification over the SimulatedLink charges the
    CostLedger the exact bytes and rounds the in-process protocol charges."""
    from repro.hecore.ckks import CkksContext

    rng = np.random.default_rng(1)
    points = rng.normal(size=(8, 4))
    labels = rng.integers(0, 2, size=8)
    query = rng.normal(size=4)

    # In-process analytical path.
    ctx_local = CkksContext(ckks_params, seed=21)
    knn_local = EncryptedKnn(ctx_local, points, labels, k=3,
                             variant="collapsed")
    session = ClientAidedSession(ctx_local)
    local_result = knn_local.classify(query, session)
    local_ledger = session.ledger

    # Served path over the simulated radio.
    async def main():
        client_end, server_end = SimulatedLink.pair()
        server = OffloadServer(ckks_params)
        KnnOffloadService.install(server)
        serve_task = asyncio.ensure_future(server.serve_transport(server_end))
        ctx = CkksContext(ckks_params, seed=22)
        client = await OffloadClient(ckks_params,
                                     transport=client_end).connect()
        # symmetric=False: EncryptedKnn's client_encrypt is public-key, so
        # byte parity requires the same ciphertext shape on the wire.
        knn = RemoteKnn(client, ctx, k=3, variant="collapsed",
                        symmetric=False)
        await knn.add_points(points, labels)
        result = await knn.classify(query)
        await client.close()
        await server.stop()
        serve_task.cancel()
        return client.ledger, result, client_end

    ledger, remote_result, link = run(main())
    assert ledger.bytes_up == local_ledger.bytes_up
    assert ledger.bytes_down == local_ledger.bytes_down
    assert ledger.rounds == local_ledger.rounds
    assert remote_result.label == local_result.label
    radio = BluetoothLink()
    assert radio.session_time(ledger.total_bytes, ledger.rounds) > 0
    assert ledger.communication_energy(radio) > 0
    # Physical frame bytes flowed in both directions too.
    assert link.bytes_sent > 0 and link.bytes_received > 0


@pytest.mark.parametrize("variant", sorted(KERNEL_VARIANTS))
def test_both_sessions_run_one_knn_procedure(ckks_params, variant):
    """Every packing, two contributions: in-process ``EncryptedKnn`` and
    served ``RemoteKnn`` over the SimulatedLink run one procedure against
    one pair of served ops, so they charge equal bytes and rounds and
    find the same neighbors."""
    from repro.hecore.ckks import CkksContext

    rng = np.random.default_rng(9)
    points = rng.normal(size=(12, 4))
    labels = rng.integers(0, 3, size=12)
    query = points[9] + 0.01

    local = EncryptedKnn(CkksContext(ckks_params, seed=21), points[:7],
                         labels[:7], k=3, variant=variant)
    local.add_points(points[7:], labels[7:])
    session = ClientAidedSession(local.ctx)
    local_result = local.classify(query, session)

    async def main():
        client_end, server_end = SimulatedLink.pair()
        server = OffloadServer(ckks_params)
        KnnOffloadService.install(server)
        serve_task = asyncio.ensure_future(server.serve_transport(server_end))
        client = await OffloadClient(ckks_params,
                                     transport=client_end).connect()
        knn = RemoteKnn(client, CkksContext(ckks_params, seed=22), k=3,
                        variant=variant, symmetric=False)
        await knn.add_points(points[:7], labels[:7])
        await knn.add_points(points[7:], labels[7:])
        result = await knn.classify(query)
        await client.close()
        await server.stop()
        serve_task.cancel()
        return client.ledger, result

    ledger, remote_result = run(main())
    assert len(local._batches) == 2
    assert (ledger.bytes_up, ledger.bytes_down, ledger.rounds) == (
        session.ledger.bytes_up, session.ledger.bytes_down,
        session.ledger.rounds)
    assert remote_result.label == local_result.label
    assert list(remote_result.neighbor_indices) == \
        list(local_result.neighbor_indices)


def test_v2_resilience_payload_roundtrips():
    resume = Resume(7, b"s" * 16)
    assert Resume.unpack(resume.pack()) == resume
    ack = ResumeAck(7, 16, 2, 0b110, "back")
    assert ResumeAck.unpack(ack.pack()) == ack
    assert not ack.has_key(KeyKind.PUBLIC)
    assert ack.has_key(KeyKind.RELIN)
    assert ack.has_key(KeyKind.GALOIS)
    ping = Ping(0xDEADBEEFCAFE)
    assert Ping.unpack(ping.pack()) == ping
    pong = Pong(ping.nonce)
    assert Pong.unpack(pong.pack()) == pong
    with pytest.raises(FrameError):
        Resume.unpack(resume.pack()[:-1])
    with pytest.raises(FrameError, match="trailing"):
        Ping.unpack(ping.pack() + b"\0")


# ---------------------------------------------------------------------------
# Per-session serialization, pump resilience, resumption, heartbeats
# ---------------------------------------------------------------------------

def test_same_session_serialized_sessions_parallel(bfv_params):
    """With concurrency=2, two requests of one session never run
    concurrently, while requests of *different* sessions do."""
    async def main():
        active = {}
        violations = []
        overlap = asyncio.Event()

        async def tick(session, request):
            active[session.id] = active.get(session.id, 0) + 1
            if active[session.id] > 1:
                violations.append(session.id)
            if sum(1 for n in active.values() if n > 0) >= 2:
                overlap.set()
            # Hold every handler until both sessions have one running: the
            # only way forward is cross-session parallelism.
            await asyncio.wait_for(overlap.wait(), 5)
            await asyncio.sleep(0.01)
            active[session.id] -= 1
            return []

        server = OffloadServer(bfv_params, concurrency=2)
        server.register("tick", tick)
        host, port = await server.start()
        try:
            a = await OffloadClient(bfv_params, host, port).connect()
            b = await OffloadClient(bfv_params, host, port).connect()
            await asyncio.gather(*[
                client.request("tick", timeout=10)
                for client in (a, b) for _ in range(3)])
            assert violations == []
            assert overlap.is_set()
            for sid in (1, 2):
                stats = server.metrics.get(sid)
                assert stats.responses == 3
                assert stats.handler_invocations == 3
            await a.close()
            await b.close()
        finally:
            await server.stop()

    run(main())


def test_anonymous_error_surfaces_without_killing_pump(bfv_params, bfv):
    """A connection-scoped ERROR (request_id == 0) must not crash the reader
    pump: it is recorded, raised once on the next API call, and the session
    keeps working afterwards."""
    async def main():
        server = OffloadServer(bfv_params)
        host, port = await server.start()
        try:
            client = await OffloadClient(bfv_params, host, port).connect()
            # A RESULT frame is nonsense client->server; the server answers
            # with an anonymous ERROR(BAD_FRAME).
            await client.transport.send_frame(
                MessageType.RESULT, Result(0, {}, ()).pack())
            while client.session_error is None:
                await asyncio.sleep(0.005)
            assert client.session_error.code is ErrorCode.BAD_FRAME
            with pytest.raises(OffloadError, match="unexpected"):
                await client.request("echo")
            # The pump survived: the very next request round-trips fine.
            ct = bfv.encrypt_symmetric([5])
            out, _ = await client.request("echo", [ct])
            assert np.array_equal(bfv.decrypt(out[0])[:1], [5])
            assert client.session_error is None
            await client.close()
        finally:
            await server.stop()

    run(main())


def test_non_finite_or_non_positive_scale_is_refused_and_served_after(
        bfv_params, bfv):
    """A COMPUTE blob whose scale is NaN, infinite, zero or negative is
    answered BAD_FRAME "bad ciphertext" before any kernel sees it, and the
    session serves the next valid request after each."""
    async def main():
        server = OffloadServer(bfv_params)
        host, port = await server.start()
        try:
            client = await OffloadClient(bfv_params, host, port).connect()
            for scale in (math.nan, math.inf, 0.0, -1.0):
                hostile = bfv.encrypt_symmetric([3])
                hostile.scale = scale
                with pytest.raises(OffloadError,
                                   match="bad ciphertext: .*scale") as exc:
                    await client.request("echo", [hostile])
                assert exc.value.code is ErrorCode.BAD_FRAME
                out, _ = await client.request("echo",
                                              [bfv.encrypt_symmetric([4])])
                assert bfv.decrypt(out[0])[0] == 4
            assert server.metrics.get(1).errors == 4
            await client.close()
        finally:
            await server.stop()

    run(main())


def test_hostile_residues_are_refused_and_the_session_keeps_serving(
        bfv_params, bfv):
    """A residue word at or above its modulus — the 4-byte wire word can
    carry one — never reaches the evaluator: a COMPUTE blob holding one is
    answered BAD_FRAME, a KEY_UPLOAD holding one gets the key-rejection
    error, and the session serves the next valid request after each."""
    import struct

    from repro.hecore.serialize import serialize_relin_key

    q0 = bfv_params.data_base.moduli[0]

    async def main():
        server = OffloadServer(bfv_params)
        server.register("square", lambda session, request: [
            session.ctx.multiply(request.cts[0], request.cts[0])])
        host, port = await server.start()
        try:
            client = await OffloadClient(bfv_params, host, port).connect()
            hostile = bfv.encrypt_symmetric([3])
            hostile.components[0].data[0, 5] = q0      # ships as word q0
            with pytest.raises(OffloadError, match="residue 0: word") as exc:
                await client.request("echo", [hostile])
            assert exc.value.code is ErrorCode.BAD_FRAME
            out, _ = await client.request("echo", [bfv.encrypt_symmetric([4])])
            assert bfv.decrypt(out[0])[0] == 4

            blob = bytearray(serialize_relin_key(bfv.relin_keys()))
            struct.pack_into("<I", blob, len(blob) - 4, 0xFFFFFFFF)
            await client.transport.send_frame(
                MessageType.KEY_UPLOAD,
                KeyUpload(KeyKind.RELIN, bytes(blob)).pack())
            while client.session_error is None:
                await asyncio.sleep(0.005)
            assert client.session_error.code is ErrorCode.BAD_FRAME
            with pytest.raises(OffloadError, match="bad key upload: .*word "
                                                   "4294967295 is not below"):
                await client.request("echo")

            await client.upload_keys(relin=bfv.relin_keys())
            out, _ = await client.request("square",
                                          [bfv.encrypt_symmetric([5])])
            assert bfv.decrypt(out[0])[0] == 25
            m = server.metrics.get(1)
            assert (m.errors, m.key_uploads) == (2, 1)
            await client.close()
        finally:
            await server.stop()

    run(main())


def test_busy_retries_charge_ledger_once(bfv_params, bfv):
    """BUSY-driven resubmissions are a transport artifact: each logical
    request charges the analytical ledger exactly once."""
    async def main():
        release = asyncio.Event()
        started = asyncio.Event()

        async def stall(session, request):
            started.set()
            await release.wait()
            return []

        client_end, server_end = SimulatedLink.pair()
        server = OffloadServer(bfv_params, queue_limit=1, concurrency=1,
                               retry_after_ms=5)
        server.register("stall", stall)
        serve_task = asyncio.ensure_future(server.serve_transport(server_end))
        client = await OffloadClient(bfv_params,
                                     transport=client_end).connect()
        ct = bfv.encrypt_symmetric([1])
        first = asyncio.ensure_future(
            client.request("stall", [ct], timeout=30))
        await started.wait()
        second = asyncio.ensure_future(
            client.request("stall", [ct], timeout=30))
        while server.metrics.get(1).requests < 2:
            await asyncio.sleep(0.005)
        # The third bounces with BUSY until the gate opens.
        third = asyncio.ensure_future(
            client.request("stall", [ct], retries=40, timeout=30))
        while server.metrics.get(1).busy_rejections < 2:
            await asyncio.sleep(0.005)
        release.set()
        await asyncio.gather(first, second, third)
        assert client.stats.busy_waits >= 2
        # Three logical uploads -> three charges, regardless of retries.
        assert client.ledger.bytes_up == 3 * ct.size_bytes()
        assert client.ledger.rounds == 3
        await client.close()
        await server.stop()
        serve_task.cancel()

    run(main())


def test_concurrent_same_kind_key_uploads(bfv_params, bfv):
    """Two overlapping uploads of the same key kind each get their own ACK
    (FIFO waiters) instead of one clobbering the other's future."""
    async def main():
        server = OffloadServer(bfv_params)
        host, port = await server.start()
        try:
            client = await OffloadClient(bfv_params, host, port).connect()
            relin = bfv.relin_keys()
            await asyncio.gather(client.upload_keys(relin=relin),
                                 client.upload_keys(relin=relin))
            assert server.metrics.get(1).key_uploads == 2
            assert not client._key_waiters.get(KeyKind.RELIN)
            await client.close()
        finally:
            await server.stop()

    run(main())


def test_session_metrics_show_the_key_bill(bfv_params):
    """What a session's keys cost is visible from the server: KEY_UPLOAD
    payload bytes (a part of ``bytes_up``) and the rotation keys held."""
    async def main():
        server = OffloadServer(bfv_params)
        host, port = await server.start()
        try:
            client = await OffloadClient(bfv_params, host, port).connect()
            ctx = BfvContext(bfv_params, seed=77)
            await client.upload_keys(relin=ctx.relin_keys(),
                                     galois=ctx.make_galois_keys([1, 2]))
            m = server.metrics.get(1)
            assert (m.key_uploads, m.galois_keys_held) == (2, 2)
            assert m.key_bytes == m.bytes_up > 2 * 8 * bfv_params.poly_degree
            first = m.key_bytes
            await client.upload_keys(
                galois=BfvContext(bfv_params, seed=77).make_galois_keys([3]))
            assert m.galois_keys_held == 3 and first < m.key_bytes == m.bytes_up
            snap = server.metrics.snapshot()
            assert (snap["key_bytes"], snap["galois_keys_held"]) == (
                m.key_bytes, 3)
            await client.close()
        finally:
            await server.stop()

    run(main())


def test_resume_reattaches_without_rekey(bfv_params, bfv):
    """After a dropped connection the client reattaches via RESUME inside
    the grace period and keeps its uploaded Galois keys — the next rotation
    request works without re-provisioning."""
    async def main():
        server = OffloadServer(bfv_params, resume_grace_s=5.0)

        def rot(session, request):
            return [session.ctx.rotate_rows(request.cts[0], 1)]

        server.register("rot", rot)
        host, port = await server.start()
        try:
            client = await OffloadClient(bfv_params, host, port).connect()
            assert client.resume_token is not None
            assert client.grace_period_ms == 5000
            await client.upload_keys(galois=bfv.make_galois_keys([1]))
            ct = bfv.encrypt_symmetric(list(range(8)))
            out, _ = await client.request("rot", [ct])
            expected = bfv.decrypt(out[0])
            # Sever the connection out from under the client (no BYE).
            await client.transport.close()
            out2, _ = await client.request("rot", [ct], timeout=5)
            assert np.array_equal(bfv.decrypt(out2[0]), expected)
            assert client.stats.resumes == 1
            assert server.metrics.sessions_resumed == 1
            # The keys never crossed the wire a second time.
            assert server.metrics.get(1).key_uploads == 1
            assert server.metrics.get(1).resumes == 1
            await client.close()
        finally:
            await server.stop()

    run(main())


def test_resume_with_bad_token_rejected(bfv_params):
    async def main():
        server = OffloadServer(bfv_params, resume_grace_s=5.0)
        host, port = await server.start()
        try:
            client = await OffloadClient(bfv_params, host, port).connect()
            await client.transport.close()
            client.resume_token = b"\0" * 16        # forged
            with pytest.raises(OffloadError) as exc_info:
                await client.request("echo", timeout=2)
            assert exc_info.value.code is ErrorCode.RESUME_REJECTED
            assert server.metrics.resumes_rejected == 1
            await client.close()
        finally:
            await server.stop()

    run(main())


def test_connect_times_out_against_a_silent_peer(bfv_params):
    """A link that never answers HELLO must not hang ``connect()``: the
    reply is awaited under ``request_timeout``, once when the caller's
    ``transport=`` is all there is and ``max_retries + 1`` times when the
    client can reconnect — and every transport it gave up on is closed.
    The outer ``wait_for`` turns a hang into a failure."""
    async def main():
        client_end, _silent_peer = SimulatedLink.pair()
        client = OffloadClient(bfv_params, transport=client_end,
                               request_timeout=0.2, max_retries=1)
        started = asyncio.get_running_loop().time()
        with pytest.raises(OffloadTimeout):
            await asyncio.wait_for(client.connect(), 2.0)
        # One attempt: nothing to reconnect with.
        assert asyncio.get_running_loop().time() - started < 0.4
        with pytest.raises(ConnectionError):
            await client_end.send_frame(MessageType.PING, Ping(1).pack())
        await client.close()

        opened = []

        async def factory():
            opened.append(SimulatedLink.pair())
            return opened[-1][0]

        client = OffloadClient(bfv_params, transport_factory=factory,
                               request_timeout=0.05, max_retries=2,
                               backoff_s=0.01)
        with pytest.raises(OffloadTimeout):
            await asyncio.wait_for(client.connect(), 2.0)
        assert len(opened) == 3
        for client_end, _peer in opened:
            with pytest.raises(ConnectionError):
                await client_end.send_frame(MessageType.PING, Ping(1).pack())
        await client.close()

    run(main())


def test_rejected_handshake_closes_the_transport(bfv_params, ckks_params):
    """A HELLO answered with ERROR (parameter mismatch) is final, and the
    client does not leak the connection it was refused on."""
    async def main():
        client_end, server_end = SimulatedLink.pair()
        server = OffloadServer(bfv_params)
        serve_task = asyncio.ensure_future(server.serve_transport(server_end))
        with pytest.raises(OffloadError, match="mismatch") as exc_info:
            await OffloadClient(ckks_params, transport=client_end).connect()
        assert exc_info.value.code is ErrorCode.PARAMS_MISMATCH
        with pytest.raises(ConnectionError):
            await client_end.send_frame(MessageType.PING, Ping(1).pack())
        await server.stop()
        serve_task.cancel()

    run(main())


def test_resume_backs_off_when_the_reply_is_not_a_resume_ack(bfv_params):
    """A peer that answers RESUME with something else (here PONG) is retried
    like any broken link — ``max_retries + 1`` attempts spaced by the capped
    exponential backoff, each transport closed — and then surfaces as an
    :class:`OffloadError` counted in ``reconnect_failures``."""
    async def main():
        server = OffloadServer(bfv_params, resume_grace_s=5.0)
        attempts = []       # when each RESUME arrived at the confused peer
        peers = []

        async def confused_peer(link):
            mtype, _flags, _payload = await link.recv_frame()
            assert mtype is MessageType.RESUME
            attempts.append(asyncio.get_running_loop().time())
            await link.send_frame(MessageType.PONG, Pong(1).pack())

        async def factory():
            client_end, server_end = SimulatedLink.pair()
            serve = confused_peer if peers else server.serve_transport
            peers.append((client_end,
                          asyncio.ensure_future(serve(server_end))))
            return client_end

        client = OffloadClient(bfv_params, transport_factory=factory,
                               request_timeout=0.5, max_retries=2,
                               backoff_s=0.05)
        await client.connect()
        client._conn_error = ConnectionError("injected for test")
        with pytest.raises(OffloadError, match="RESUME_ACK"):
            await client.resume()
        assert len(attempts) == 3
        gaps = [b - a for a, b in zip(attempts, attempts[1:])]
        assert gaps[0] >= 0.045 and gaps[1] >= 0.09
        assert client.stats.reconnect_failures == 1
        assert client.stats.resumes == 0
        for client_end, _task in peers[1:]:
            with pytest.raises(ConnectionError):
                await client_end.send_frame(MessageType.PING, Ping(1).pack())
        await client.close()
        await server.stop()
        for _end, task in peers:
            task.cancel()

    run(main())


def test_heartbeat_ping_pong(bfv_params):
    async def main():
        server = OffloadServer(bfv_params)
        host, port = await server.start()
        try:
            client = await OffloadClient(bfv_params, host, port,
                                         heartbeat_s=0.03).connect()
            while client.stats.pongs_received < 2:
                await asyncio.sleep(0.01)
            assert client.stats.pings_sent >= 2
            assert server.metrics.get(1).pings >= 2
            await client.close()
        finally:
            await server.stop()

    run(main())


def test_detached_session_reaped_after_grace(bfv_params):
    """A session whose peer vanishes without BYE is kept for the resume
    grace period, then reaped."""
    async def main():
        server = OffloadServer(bfv_params, resume_grace_s=0.1)
        host, port = await server.start()
        try:
            client = await OffloadClient(bfv_params, host, port,
                                         auto_resume=False).connect()
            assert len(server._sessions) == 1
            await client.transport.close()       # vanish, no BYE
            deadline = asyncio.get_running_loop().time() + 5
            while server._sessions:
                assert asyncio.get_running_loop().time() < deadline
                await asyncio.sleep(0.02)
            assert server.metrics.sessions_reaped == 1
            await client.close()
        finally:
            await server.stop()

    run(main())


def test_simulated_link_key_uploads_not_charged(bfv_params, bfv):
    async def main():
        client_end, server_end = SimulatedLink.pair()
        server = OffloadServer(bfv_params)
        serve_task = asyncio.ensure_future(server.serve_transport(server_end))
        client = await OffloadClient(bfv_params, transport=client_end).connect()
        ledger = client.ledger
        await client.upload_keys(relin=bfv.relin_keys())
        assert ledger.total_bytes == 0 and ledger.rounds == 0
        ct = bfv.encrypt_symmetric([9])
        out, _ = await client.request("echo", [ct])
        assert ledger.bytes_up == ct.size_bytes()
        assert ledger.bytes_down == out[0].size_bytes()
        assert ledger.rounds == 1
        await client.close()
        await server.stop()
        serve_task.cancel()

    run(main())


def test_scheduler_death_recorded_and_respawned(bfv_params, bfv):
    """Regression: a scheduler that dies on an exception used to be
    respawned silently.  The respawn must be counted, the error retained
    in the metrics snapshot, and the replacement must actually serve."""
    async def main():
        server = OffloadServer(bfv_params)
        host, port = await server.start()
        try:
            assert server.metrics.scheduler_restarts == 0
            # Replace the healthy scheduler with one that crashes at once.
            server._scheduler_task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await server._scheduler_task

            async def doomed():
                raise RuntimeError("injected scheduler crash")

            server._scheduler_task = asyncio.ensure_future(doomed())
            await asyncio.sleep(0.01)  # let it die
            # The next connection's _ensure_scheduler notices and respawns.
            client = await OffloadClient(bfv_params, host, port).connect()
            assert server.metrics.scheduler_restarts == 1
            assert ("RuntimeError: injected scheduler crash"
                    == server.metrics.last_scheduler_error)
            snap = server.metrics.snapshot()
            assert snap["scheduler_restarts"] == 1
            assert "injected scheduler crash" in snap["last_scheduler_error"]
            # The respawned scheduler serves requests end to end.
            ct = bfv.encrypt_symmetric([4])
            out, _ = await client.request("echo", [ct])
            assert bfv.decrypt(out[0])[0] == 4
            # A cancelled task (clean shutdown path) is not an error.
            assert server.metrics.scheduler_restarts == 1
            await client.close()
        finally:
            await server.stop()

    run(main())
