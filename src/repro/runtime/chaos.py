"""Seeded fault injection for the offload runtime's transports.

The paper's client is a battery-powered device on a real, lossy radio link
(§7); loopback TCP never drops, stalls, or reorders anything, so none of
the runtime's retry/resume machinery is exercised by the happy path.
:class:`FaultyTransport` makes hostile networks reproducible: it decorates
any :class:`~repro.runtime.transport.Transport` with a **seeded,
deterministic** schedule of frame delays, drops, corruptions, truncations,
and mid-stream disconnects.  Every per-frame decision is a pure function of
``(seed, direction, frame index)`` — replaying a seed replays the exact
failure sequence, independent of event-loop timing.

The PRNG is the repo's deterministic :class:`~repro.hecore.random.BlakePrng`
(BLAKE2b-derived), the same generator the HE samplers use.
"""

from __future__ import annotations

import asyncio
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.hecore.random import BlakePrng
from repro.runtime.framing import MessageType, encode_frame
from repro.runtime.transport import Transport


@dataclass(frozen=True)
class FaultPlan:
    """Per-frame fault probabilities and shapes for a FaultyTransport.

    Probabilities are evaluated against one uniform draw per frame, in the
    order *disconnect, corrupt, truncate, drop, delay* — at most one fault
    fires per frame.  ``corrupt`` and ``truncate`` apply to the send path
    only (they need raw wire access); drop/delay/disconnect apply to both
    directions when ``recv_faults`` is set.  The default plan injects
    nothing.
    """

    drop_p: float = 0.0
    delay_p: float = 0.0
    delay_range_s: Tuple[float, float] = (0.001, 0.02)
    corrupt_p: float = 0.0
    truncate_p: float = 0.0
    disconnect_p: float = 0.0
    recv_faults: bool = True
    #: Leave the first N frames of each direction untouched so handshakes
    #: (HELLO/RESUME and their acks) always complete.
    skip_first_frames: int = 2
    #: Scripted, deterministic send-side drops by frame index (for targeted
    #: regression tests that need exactly one specific frame to vanish).
    drop_send_frames: Tuple[int, ...] = ()


#: A mildly hostile link: mostly drops and delays, occasional corruption,
#: truncation, and disconnects.  Tuned so sessions with sub-second timeouts
#: converge in seconds while still exercising every failure path.
DEFAULT_PLAN = FaultPlan(
    drop_p=0.10, delay_p=0.15, delay_range_s=(0.001, 0.01),
    corrupt_p=0.02, truncate_p=0.02, disconnect_p=0.03,
)


@dataclass
class FaultEvent:
    """One injected fault, recorded for replayability audits."""

    kind: str        # drop | delay | corrupt | truncate | disconnect
    direction: str   # send | recv
    index: int       # per-direction frame index
    mtype: str       # frame type the fault hit
    detail: str = ""


class FaultyTransport(Transport):
    """Deterministic fault-injecting decorator over any transport.

    Frame *i* of each direction is assigned its fate by a BLAKE2b-derived
    draw on ``(seed, direction, i)`` — no shared PRNG state, so concurrent
    senders and reorderable event-loop timings cannot perturb the schedule.
    ``armed`` can be toggled to let provisioning phases (key uploads) run
    clean and then unleash faults on the steady state.  The byte counters
    are the wrapped transport's, whichever path a faulted frame took.
    """

    def __init__(self, inner: Transport, plan: FaultPlan = DEFAULT_PLAN, *,
                 seed: object = 0, armed: bool = True):
        # No Transport.__init__: the byte counters read through to *inner*.
        self.inner = inner
        self.plan = plan
        self.armed = armed
        self.events: List[FaultEvent] = []
        self._seed_material = repr(seed).encode()
        self._sent_i = 0
        self._recv_i = 0
        self._severed = False

    # ------------------------------------------------------------ decisions
    def _draws(self, direction: str, index: int) -> Tuple[float, float]:
        """The (selector, auxiliary) uniform draws for one frame."""
        prng = BlakePrng(self._seed_material
                         + f":{direction}:{index}".encode())
        raw = prng.random_bytes(14)
        unit = float(1 << 56)
        return (int.from_bytes(raw[:7], "little") / unit,
                int.from_bytes(raw[7:], "little") / unit)

    def _decide(self, direction: str, index: int,
                ) -> Tuple[Optional[str], float]:
        """Fault kind (or None) and the auxiliary draw for frame *index*."""
        plan = self.plan
        if direction == "send" and index in plan.drop_send_frames:
            return "drop", 0.0
        if index < plan.skip_first_frames:
            return None, 0.0
        u, aux = self._draws(direction, index)
        send = direction == "send"
        edges = [
            ("disconnect", plan.disconnect_p),
            ("corrupt", plan.corrupt_p if send else 0.0),
            ("truncate", plan.truncate_p if send else 0.0),
            ("drop", plan.drop_p),
            ("delay", plan.delay_p),
        ]
        lo = 0.0
        for kind, p in edges:
            if u < lo + p:
                return kind, aux
            lo += p
        return None, aux

    def _record(self, kind: str, direction: str, index: int,
                mtype: MessageType, detail: str = "") -> None:
        self.events.append(FaultEvent(kind, direction, index,
                                      mtype.name, detail))

    async def _delay_or_sever(self, fault: Optional[str], aux: float,
                              direction: str, index: int,
                              mtype: MessageType) -> None:
        """The faults both directions share: a drawn delay, or a cut."""
        if fault == "delay":
            lo, hi = self.plan.delay_range_s
            d = lo + aux * (hi - lo)
            self._record("delay", direction, index, mtype, f"{d * 1e3:.1f}ms")
            await asyncio.sleep(d)
        elif fault == "disconnect":
            self._record("disconnect", direction, index, mtype)
            await self.force_disconnect()
            raise ConnectionError("chaos: injected disconnect")

    async def force_disconnect(self) -> None:
        """Sever the connection now (how disconnect and truncate faults
        land, and the hook for targeted resume tests)."""
        self._severed = True
        await self.inner.close()

    # ------------------------------------------------------------ transport
    @property
    def peer_name(self) -> str:
        return f"chaos:{self.inner.peer_name}"

    @property
    def bytes_sent(self) -> int:
        return self.inner.bytes_sent

    @property
    def bytes_received(self) -> int:
        return self.inner.bytes_received

    async def send_frame(self, mtype: MessageType,
                         payload: bytes = b"") -> None:
        if self._severed:
            raise ConnectionError("chaos: transport severed")
        index = self._sent_i
        self._sent_i += 1
        fault, aux = self._decide("send", index) if self.armed else (None, 0.0)
        if fault == "drop":
            self._record("drop", "send", index, mtype)
            return
        if fault == "corrupt":
            frame = bytearray(encode_frame(mtype, payload))
            frame[0] ^= 0xFF  # garble the magic: always connection-fatal
            self._record("corrupt", "send", index, mtype)
            await self.inner.send_raw(bytes(frame))
            return
        if fault == "truncate":
            frame = encode_frame(mtype, payload)
            cut = 1 + int(aux * max(len(frame) - 1, 1))
            self._record("truncate", "send", index, mtype,
                         f"{cut}/{len(frame)}B")
            await self.inner.send_raw(frame[:cut])
            await self.force_disconnect()
            raise ConnectionError("chaos: frame truncated mid-stream")
        await self._delay_or_sever(fault, aux, "send", index, mtype)
        await self.inner.send_frame(mtype, payload)

    async def send_raw(self, data: bytes) -> None:
        await self.inner.send_raw(data)

    async def recv_frame(self) -> Tuple[MessageType, int, bytes]:
        while True:
            frame = await self.inner.recv_frame()
            if self._severed:
                raise ConnectionError("chaos: transport severed")
            if not self.armed or not self.plan.recv_faults:
                return frame
            index = self._recv_i
            self._recv_i += 1
            fault, aux = self._decide("recv", index)
            mtype = frame[0]
            if fault == "drop":
                self._record("drop", "recv", index, mtype)
                continue  # the frame evaporates in flight
            await self._delay_or_sever(fault, aux, "recv", index, mtype)
            return frame

    async def close(self) -> None:
        await self.inner.close()

    def fault_counts(self) -> Dict[str, int]:
        return dict(Counter(event.kind for event in self.events))
