"""repro.runtime — the asyncio offload-serving runtime.

Real sessions, framing, fair scheduling, and backpressure over the CHOCO
wire format: an :class:`OffloadServer` serves HE compute to many
:class:`OffloadClient` sessions over TCP or over an in-memory
:class:`SimulatedLink`, and each client charges its own logical
:class:`~repro.core.protocol.CostLedger` (``client.ledger``) over either.
The protocol survives hostile networks: idempotent compute (exactly-once
handler execution under retries), ``RESUME`` session reattachment, and
``PING``/``PONG`` heartbeats — all reproducibly testable with the seeded
fault injector in :mod:`repro.runtime.chaos`.
"""

from repro.runtime.chaos import (
    DEFAULT_PLAN,
    FaultEvent,
    FaultPlan,
    FaultyTransport,
)
from repro.runtime.client import (
    ClientStats,
    OffloadClient,
    OffloadError,
    OffloadTimeout,
    ServerBusy,
)
from repro.runtime.evalpool import EvalPool, resolve_spec
from repro.runtime.fleet import FleetServer, WorkerConfig, WorkerHandle
from repro.runtime.framing import (
    FRAME_MAGIC,
    FRAME_VERSION,
    HEADER_SIZE,
    MAX_FRAME_BYTES,
    ErrorCode,
    FrameError,
    KeyKind,
    MessageType,
    decode_frame,
    encode_frame,
    read_frame,
)
from repro.runtime.metrics import (
    FleetMetrics,
    RuntimeMetrics,
    SessionMetrics,
    percentile,
)
from repro.runtime.server import (
    ComputeRequest,
    MissingEvaluationKey,
    OffloadServer,
    ServerSession,
    SessionEvaluator,
    build_restricted_context,
)
from repro.runtime.transport import SimulatedLink, TcpTransport, Transport

__all__ = [
    "ClientStats",
    "ComputeRequest",
    "DEFAULT_PLAN",
    "ErrorCode",
    "EvalPool",
    "FaultEvent",
    "FaultPlan",
    "FaultyTransport",
    "FleetMetrics",
    "FleetServer",
    "FrameError",
    "FRAME_MAGIC",
    "FRAME_VERSION",
    "HEADER_SIZE",
    "KeyKind",
    "MAX_FRAME_BYTES",
    "MessageType",
    "MissingEvaluationKey",
    "OffloadClient",
    "OffloadError",
    "OffloadServer",
    "OffloadTimeout",
    "RuntimeMetrics",
    "ServerBusy",
    "ServerSession",
    "SessionEvaluator",
    "SessionMetrics",
    "SimulatedLink",
    "TcpTransport",
    "Transport",
    "WorkerConfig",
    "WorkerHandle",
    "build_restricted_context",
    "decode_frame",
    "encode_frame",
    "percentile",
    "read_frame",
    "resolve_spec",
]
