"""The fleet router hands each connection to its worker.

After the first frame the router passes the client socket itself to the
chosen worker and closes its own copy: it holds no socket per session,
forwards whatever it had read off the connection, and a dead worker's
admission slots go with its generation.
"""

import asyncio
import contextlib
import gc
import os
import stat

from repro.runtime import OffloadClient
from repro.runtime.fleet import FleetServer
from repro.runtime.framing import (
    Hello,
    HelloAck,
    MessageType,
    Ping,
    Pong,
    encode_frame,
    read_frame,
)

REPLY_TIMEOUT_S = 10.0


def run(coro):
    return asyncio.run(coro)


def open_sockets() -> int:
    """Socket descriptors this process holds."""
    count = 0
    for name in os.listdir("/proc/self/fd"):
        with contextlib.suppress(OSError):
            count += stat.S_ISSOCK(os.stat(f"/proc/self/fd/{name}").st_mode)
    return count


def test_the_router_holds_no_socket_per_session(bfv_params):
    """Three open sessions through the fleet add three sockets to the
    router's process: the clients' own ends, none of the router's."""
    async def main():
        async with FleetServer(bfv_params, 1) as fleet:
            gc.collect()  # no earlier test's socket closes inside the count
            before = open_sockets()
            clients = [await OffloadClient(
                bfv_params, fleet.host, fleet.port,
                request_timeout=REPLY_TIMEOUT_S).connect() for _ in range(3)]
            # The router closes its copy on the loop's next turns.
            for _ in range(50):
                grown = open_sockets() - before
                if grown == 3:
                    break
                await asyncio.sleep(0.02)
            for client in clients:
                await client.close()
            return grown

    assert run(main()) == 3


def test_frames_pipelined_behind_hello_reach_the_worker(bfv_params):
    """HELLO and PING in one write: the worker answers both, in order."""
    async def main():
        async with FleetServer(bfv_params, 1) as fleet:
            reader, writer = await asyncio.open_connection(fleet.host,
                                                           fleet.port)
            try:
                writer.write(
                    encode_frame(MessageType.HELLO,
                                 Hello.from_params(bfv_params).pack())
                    + encode_frame(MessageType.PING, Ping(7).pack()))
                await writer.drain()
                return [await asyncio.wait_for(read_frame(reader),
                                               REPLY_TIMEOUT_S)
                        for _ in range(2)]
            finally:
                writer.close()

    (first, _, ack), (second, _, pong) = run(main())
    assert first is MessageType.HELLO_ACK and HelloAck.unpack(ack)
    assert second is MessageType.PONG and Pong.unpack(pong).nonce == 7


def test_a_dead_worker_frees_its_admission_slots(bfv_params):
    """At the cap, killing the worker that holds the admitted session
    frees its slot: after the respawn a new client is admitted at once."""
    async def main():
        async with FleetServer(bfv_params, 1, session_cap=1,
                               resume_grace_s=0.0) as fleet:
            first = await OffloadClient(
                bfv_params, fleet.host, fleet.port,
                request_timeout=REPLY_TIMEOUT_S, max_retries=0).connect()
            handle = fleet.worker(0)
            handle.process.kill()
            await fleet.wait_worker_restart(0, handle.generation)
            second = await OffloadClient(
                bfv_params, fleet.host, fleet.port,
                request_timeout=REPLY_TIMEOUT_S, max_retries=0).connect()
            busy_waits = second.stats.busy_waits
            await second.close()
            with contextlib.suppress(Exception):
                await first.close()
            return busy_waits

    assert run(main()) == 0
