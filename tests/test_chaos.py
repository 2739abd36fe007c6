"""Chaos-transport tests: deterministic fault schedules, targeted failure
modes (dropped acks, corrupted frames, forced disconnects), and the short
tier-1 run of the soak (``benchmarks/_soak.py``) that checks the runtime's
end-state invariants — exactly-once execution, byte-exact ledger parity
with a fault-free oracle, resumption without re-provisioning, and zero
leaks — plus proof that its audit can fail.
"""

import asyncio
import contextlib
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.protocol import CostLedger
from repro.runtime import (
    DEFAULT_PLAN,
    FaultPlan,
    FaultyTransport,
    MessageType,
    OffloadClient,
    OffloadServer,
    OffloadTimeout,
    SimulatedLink,
)

sys.path.insert(0, str(Path(__file__).parent.parent / "benchmarks"))
from _soak import SoakReport, audit, soak  # noqa: E402


def run(coro):
    return asyncio.run(coro)


# ---------------------------------------------------------------------------
# Determinism of the fault schedule
# ---------------------------------------------------------------------------

def _schedule(seed, plan, direction, n):
    """The fault-kind sequence a transport with *seed* assigns to frames."""
    a, _b = SimulatedLink.pair()
    faulty = FaultyTransport(a, plan, seed=seed)
    return [faulty._decide(direction, i)[0] for i in range(n)]


def test_fault_schedule_is_deterministic():
    plan = FaultPlan(drop_p=0.2, delay_p=0.2, corrupt_p=0.1, truncate_p=0.1,
                     disconnect_p=0.1, skip_first_frames=0)
    one = _schedule("seed-a", plan, "send", 64)
    two = _schedule("seed-a", plan, "send", 64)
    other = _schedule("seed-b", plan, "send", 64)
    assert one == two                      # pure function of (seed, dir, i)
    assert one != other                    # and the seed actually matters
    # Send and recv directions draw independent streams.
    assert one != _schedule("seed-a", plan, "recv", 64)
    # With these probabilities a 64-frame window sees every fault kind.
    assert {"drop", "delay", "disconnect"} <= set(one) | set(other)


def test_skip_first_frames_protects_handshake():
    plan = FaultPlan(drop_p=1.0, skip_first_frames=2)
    kinds = _schedule("s", plan, "send", 4)
    assert kinds[:2] == [None, None]
    assert kinds[2:] == ["drop", "drop"]


def test_unarmed_transport_is_transparent(bfv_params, bfv):
    """armed=False must be a byte-transparent passthrough."""
    async def main():
        client_end, server_end = SimulatedLink.pair()
        faulty = FaultyTransport(client_end, DEFAULT_PLAN, seed=1,
                                 armed=False)
        server = OffloadServer(bfv_params)
        serve_task = asyncio.ensure_future(server.serve_transport(server_end))
        client = await OffloadClient(bfv_params, transport=faulty).connect()
        ct = bfv.encrypt_symmetric([4, 2])
        out, _ = await client.request("echo", [ct])
        assert np.array_equal(bfv.decrypt(out[0])[:2], [4, 2])
        assert faulty.events == []
        await client.close()
        await server.stop()
        serve_task.cancel()

    run(main())


@pytest.mark.parametrize("fault", ["corrupt", "truncate"])
def test_byte_counters_are_the_inner_transports(fault):
    """A corrupt or truncate fault reaches the wire through ``send_raw``;
    the decorator's byte counter still reads what the wrapped transport
    sent."""
    async def main():
        inner, _server_end = SimulatedLink.pair()
        faulty = FaultyTransport(
            inner, FaultPlan(skip_first_frames=0, **{f"{fault}_p": 1.0}))
        with contextlib.suppress(ConnectionError):  # a truncation severs
            await faulty.send_frame(MessageType.PING, bytes(8))
        assert faulty.fault_counts() == {fault: 1}
        assert faulty.bytes_sent == inner.bytes_sent > 0

    run(main())


# ---------------------------------------------------------------------------
# Targeted failure modes
# ---------------------------------------------------------------------------

def test_dropped_key_ack_retried_fifo(bfv_params, bfv):
    """A KEY_UPLOAD lost on the wire is retried under the client's backoff
    policy; the eventual ACK resolves the retry's waiter (FIFO), and the
    server saw the key exactly... as often as it arrived — never zero."""
    async def main():
        server = OffloadServer(bfv_params)
        host, port = await server.start()
        try:
            from repro.runtime.transport import TcpTransport
            inner = await TcpTransport.connect(host, port)
            # Frame 0 is HELLO; frame 1 — the first KEY_UPLOAD — vanishes.
            faulty = FaultyTransport(
                inner, FaultPlan(drop_send_frames=(1,)), seed=3)
            client = await OffloadClient(
                bfv_params, transport=faulty,
                request_timeout=0.15, backoff_s=0.01).connect()
            await client.upload_keys(relin=bfv.relin_keys())
            assert faulty.fault_counts() == {"drop": 1}
            assert server.metrics.get(1).key_uploads == 1
            # The retried upload works end to end: relinearized multiply.
            def mul(session, request):
                return [session.ctx.multiply(request.cts[0], request.cts[0])]
            server.register("mul", mul)
            ct = bfv.encrypt_symmetric([3])
            out, _ = await client.request("mul", [ct])
            assert bfv.decrypt(out[0])[0] == 9
            await client.close()
        finally:
            await server.stop()

    run(main())


def test_corrupted_frame_kills_connection_then_resumes(bfv_params, bfv):
    """A corrupted frame is connection-fatal at the peer (bad magic), and
    the client transparently resumes and resubmits the same request id —
    the handler still runs exactly once per logical request."""
    async def main():
        server = OffloadServer(bfv_params, resume_grace_s=5.0)
        calls = {"n": 0}

        def count(session, request):
            calls["n"] += 1
            return list(request.cts)

        server.register("count", count)
        host, port = await server.start()
        try:
            from repro.runtime.transport import TcpTransport
            conn = {"n": 0}

            async def factory():
                conn["n"] += 1
                inner = await TcpTransport.connect(host, port)
                # Every send past the 2-frame handshake window corrupts:
                # each connection carries at most one COMPUTE before dying.
                return FaultyTransport(
                    inner,
                    FaultPlan(corrupt_p=1.0, recv_faults=False,
                              skip_first_frames=2),
                    seed=f"corrupt:{conn['n']}")

            client = OffloadClient(bfv_params, transport_factory=factory,
                                   request_timeout=0.5, max_retries=8,
                                   backoff_s=0.01)
            await client.connect()
            ct = bfv.encrypt_symmetric([6])
            # conn1: HELLO(0), COMPUTE(1) clean -> works.
            out, _ = await client.request("count", [ct])
            assert np.array_equal(bfv.decrypt(out[0])[:1], [6])
            # conn1 frame 2: corrupted COMPUTE -> server drops the link ->
            # resume on conn2 resubmits the same id inside the skip window.
            out2, _ = await client.request("count", [ct])
            assert np.array_equal(bfv.decrypt(out2[0])[:1], [6])
            assert client.stats.resumes >= 1
            assert calls["n"] == 2          # two logical requests, two runs
            assert server.metrics.sessions_resumed >= 1
            await client.close()
        finally:
            await server.stop()

    run(main())


def test_force_disconnect_recovers_midstream(bfv_params, bfv):
    async def main():
        server = OffloadServer(bfv_params, resume_grace_s=5.0)
        host, port = await server.start()
        try:
            from repro.runtime.transport import TcpTransport
            faulties = []

            async def factory():
                inner = await TcpTransport.connect(host, port)
                faulty = FaultyTransport(inner, FaultPlan(), seed=0)
                faulties.append(faulty)
                return faulty

            client = OffloadClient(bfv_params, transport_factory=factory,
                                   request_timeout=0.5, backoff_s=0.01)
            await client.connect()
            ct = bfv.encrypt_symmetric([8])
            await client.request("echo", [ct])
            await faulties[0].force_disconnect()
            out, _ = await client.request("echo", [ct])
            assert np.array_equal(bfv.decrypt(out[0])[:1], [8])
            assert client.stats.resumes == 1
            assert len(faulties) == 2
            await client.close()
        finally:
            await server.stop()

    run(main())


@pytest.mark.parametrize("auto_resume", [True, False])
def test_two_silent_timeouts_declare_the_link_half_open(bfv_params, bfv,
                                                        auto_resume):
    """Two COMPUTE frames in a row vanish on a connection that still
    accepts writes.  A client that can resume takes the link for half-open,
    RESUMEs on a fresh connection and lands the third submission of the
    *same* request id; one that cannot (no auto-resume) never declares it
    and runs out of attempts."""
    async def main():
        server = OffloadServer(bfv_params, resume_grace_s=5.0)
        seen = []

        def count(session, request):
            seen.append(request.request_id)
            return list(request.cts)

        server.register("count", count)
        host, port = await server.start()
        try:
            from repro.runtime.transport import TcpTransport
            faulties = []

            async def factory():
                inner = await TcpTransport.connect(host, port)
                # Connection 1: frame 0 is HELLO, frames 1 and 2 — the first
                # two COMPUTE submissions — are swallowed.  Later
                # connections are clean.
                plan = FaultPlan() if faulties else FaultPlan(
                    drop_send_frames=(1, 2))
                faulties.append(FaultyTransport(inner, plan, seed=5))
                return faulties[-1]

            client = OffloadClient(bfv_params, transport_factory=factory,
                                   request_timeout=0.15, backoff_s=0.01,
                                   auto_resume=auto_resume)
            await client.connect()
            ct = bfv.encrypt_symmetric([9])
            if auto_resume:
                out, _ = await client.request("count", [ct])
                assert np.array_equal(bfv.decrypt(out[0])[:1], [9])
                assert seen == [1]          # one id, executed exactly once
                assert client.stats.attempts == 3
                assert client.stats.timeouts == 2
                assert client.stats.half_open_resets == 1
                assert client.stats.resumes == 1
                assert len(faulties) == 2
            else:
                with pytest.raises(OffloadTimeout):
                    await client.request("count", [ct], retries=1)
                assert seen == []
                assert client.stats.half_open_resets == 0
                assert client.stats.resumes == 0
                assert len(faulties) == 1
            assert faulties[0].fault_counts() == {"drop": 2}
            assert not client._pending
            await client.close()
        finally:
            await server.stop()

    run(main())


# ---------------------------------------------------------------------------
# The tier-1 soak: every invariant from the protocol contract, under fire
# ---------------------------------------------------------------------------

def test_chaos_soak_invariants(bfv_params):
    """8 concurrent sessions through a seeded hostile link: exactly-once
    handler execution, ledger totals byte-identical to the fault-free
    oracle, resumption without re-uploading keys, and no leaks."""
    report = run(soak(bfv_params, n_sessions=8, n_requests=4, seed=2026,
                      plan=DEFAULT_PLAN))
    assert report.ok, report.render()
    assert report.handler_invocations == report.logical_requests == 32
    assert report.key_uploads == 8
    assert report.bytes_up == 8 * report.oracle_bytes_up
    assert report.bytes_down == 8 * report.oracle_bytes_down
    assert report.leaked_futures == 0
    assert report.leaked_workers == 0
    assert report.leaked_sessions == 0
    # The schedule actually was hostile, and the machinery actually fired.
    assert report.fault_counts.get("drop", 0) > 0
    assert report.fault_counts.get("delay", 0) > 0
    assert report.fault_counts.get("disconnect", 0) > 0
    assert report.resumes >= 1
    assert report.retries >= 1
    assert report.duplicates_suppressed + report.results_replayed >= 1


def test_soak_audit_files_each_violation(tmp_path):
    """The audit is not vacuous: a uid logged twice, a uid never logged and
    a session ledger one byte off the oracle each file one failure."""
    oracle = CostLedger()
    oracle.charge_upload(100)
    oracle.charge_download(50)
    off_by_one = CostLedger()
    off_by_one.charge_upload(101)
    off_by_one.charge_download(50)

    def failures(logged, ledger):
        (tmp_path / "exec-1.log").write_text(
            "".join(f"{uid}\n" for uid in logged))
        report = SoakReport(n_sessions=1, n_requests=2, seed=0)
        audit(report, str(tmp_path), [ledger], oracle)
        return report.failures

    assert failures(["s0q0", "s0q1"], oracle) == []
    for logged, ledger, says in (
            (["s0q0", "s0q1", "s0q1"], oracle, "executed more than once"),
            (["s0q0"], oracle, "never executed"),
            (["s0q0", "s0q1"], off_by_one, "ledger 101B up")):
        found = failures(logged, ledger)
        assert len(found) == 1 and says in found[0], found
