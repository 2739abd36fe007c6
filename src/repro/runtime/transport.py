"""Transports for the offload runtime: real TCP and the simulated radio.

Two implementations of one small interface:

* :class:`TcpTransport` — frames over an asyncio TCP stream.  Loopback-
  capable, so the full client/server runtime is exercised in tests and in
  the two-terminal ``repro serve`` / ``repro offload`` demo.
* :class:`SimulatedLink` — an in-memory duplex pair that still encodes and
  decodes every frame, so the wire format is exercised byte for byte
  without a socket.

A transport moves frames and counts their *physical* bytes (`bytes_sent` /
`bytes_received`), which the metrics layer reports.  The *logical* cost —
§5.2's ciphertext bytes and rounds — is not a transport's: the
:class:`~repro.runtime.client.OffloadClient` charges its own
:class:`~repro.core.protocol.CostLedger` through the two methods the
in-process :class:`ClientAidedSession` uses, over any transport, and a
:class:`~repro.platforms.radio.BluetoothLink` turns that ledger into link
time and energy.
"""

from __future__ import annotations

import asyncio
from typing import Optional, Tuple

from repro.runtime.framing import (
    HEADER_SIZE,
    MessageType,
    decode_frame,
    encode_frame,
    read_frame,
)


#: Ceiling on the runtime's exponential retry delays.
MAX_BACKOFF_S = 2.0


def backoff_delays(start_s: float, ceiling_s: float = MAX_BACKOFF_S):
    """The delays of one retry loop: *start_s*, doubling, capped."""
    while True:
        yield start_s
        start_s = min(start_s * 2, ceiling_s)


class Transport:
    """A framed, ordered, bidirectional message channel."""

    def __init__(self):
        self.bytes_sent = 0
        self.bytes_received = 0

    async def send_frame(self, mtype: MessageType,
                         payload: bytes = b"") -> None:
        raise NotImplementedError

    async def send(self, record, payload: Optional[bytes] = None) -> None:
        """Send one payload record as its ``TYPE``'s frame (or, given its
        packed *payload*, the record's class)."""
        await self.send_frame(record.TYPE,
                              record.pack() if payload is None else payload)

    async def send_raw(self, data: bytes) -> None:
        """Put raw bytes on the wire, bypassing frame encoding.

        Exists so fault injectors (:mod:`repro.runtime.chaos`) can emit
        corrupted or truncated frames; regular code never calls it.
        """
        raise NotImplementedError

    async def recv_frame(self) -> Tuple[MessageType, int, bytes]:
        raise NotImplementedError

    async def close(self) -> None:
        raise NotImplementedError

    @property
    def peer_name(self) -> str:
        return "?"


class TcpTransport(Transport):
    """Frames over an asyncio TCP stream."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter):
        super().__init__()
        self._reader = reader
        self._writer = writer

    @classmethod
    async def connect(cls, host: str, port: int, *,
                      retries: int = 3, backoff_s: float = 0.1,
                      ) -> "TcpTransport":
        """Open a connection, retrying with capped exponential backoff."""
        delays = backoff_delays(backoff_s)
        for attempt in range(retries + 1):
            try:
                reader, writer = await asyncio.open_connection(host, port)
                return cls(reader, writer)
            except OSError:
                if attempt == retries:
                    raise
                await asyncio.sleep(next(delays))
        raise AssertionError("unreachable")

    @property
    def peer_name(self) -> str:
        peer = self._writer.get_extra_info("peername")
        return f"{peer[0]}:{peer[1]}" if peer else "tcp:?"

    async def send_frame(self, mtype: MessageType,
                         payload: bytes = b"") -> None:
        frame = encode_frame(mtype, payload)
        self._writer.write(frame)
        self.bytes_sent += len(frame)
        await self._writer.drain()

    async def send_raw(self, data: bytes) -> None:
        self._writer.write(data)
        self.bytes_sent += len(data)
        await self._writer.drain()

    async def recv_frame(self) -> Tuple[MessageType, int, bytes]:
        mtype, flags, payload = await read_frame(self._reader)
        self.bytes_received += HEADER_SIZE + len(payload)
        return mtype, flags, payload

    async def close(self) -> None:
        try:
            self._writer.close()
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass


class SimulatedLink(Transport):
    """In-memory transport endpoint.

    Create both ends with :meth:`pair`; hand the server end to
    :meth:`OffloadServer.serve_transport` and the client end to an
    :class:`OffloadClient`.  Frames still round-trip through
    ``encode_frame``/``decode_frame`` so malformed-message handling and
    byte counts are as real as on TCP; only the socket is simulated.
    """

    def __init__(self, inbox: "asyncio.Queue", outbox: "asyncio.Queue",
                 name: str):
        super().__init__()
        self._inbox = inbox
        self._outbox = outbox
        self._name = name
        self._closed = False

    @classmethod
    def pair(cls) -> Tuple["SimulatedLink", "SimulatedLink"]:
        """A connected (client_end, server_end) pair of simulated links."""
        a_to_b: asyncio.Queue = asyncio.Queue()
        b_to_a: asyncio.Queue = asyncio.Queue()
        return (cls(b_to_a, a_to_b, "sim-client"),
                cls(a_to_b, b_to_a, "sim-server"))

    @property
    def peer_name(self) -> str:
        return self._name

    async def send_frame(self, mtype: MessageType,
                         payload: bytes = b"") -> None:
        if self._closed:
            raise ConnectionError("simulated link is closed")
        frame = encode_frame(mtype, payload)
        self.bytes_sent += len(frame)
        await self._outbox.put(frame)

    async def send_raw(self, data: bytes) -> None:
        if self._closed:
            raise ConnectionError("simulated link is closed")
        self.bytes_sent += len(data)
        await self._outbox.put(data)

    async def recv_frame(self) -> Tuple[MessageType, int, bytes]:
        frame = await self._inbox.get()
        if frame is None:
            raise ConnectionError("peer closed the simulated link")
        self.bytes_received += len(frame)
        return decode_frame(frame)

    async def close(self) -> None:
        if not self._closed:
            self._closed = True
            await self._outbox.put(None)
