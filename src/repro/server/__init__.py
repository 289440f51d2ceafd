"""The serving layer: a real wire-protocol KV server and its clients.

Everything below this package moves *bytes over sockets*: the simulated
LSM-tree/service stack stays exactly as it is (one :class:`SimClock`, one
simulated timeline), and this package puts a length-prefixed binary
protocol, an event-loop TCP server, a pooled client, and an in-process
loopback transport in front of it.  Wall-clock concurrency lives here;
the timing side channel stays in SimClock charges (DESIGN.md section 7).
"""

from repro.server.aio import (
    AsyncKVWireServer,
    AsyncLoopbackTransport,
    AsyncOrderedGate,
)
from repro.server.client import (
    ConnectionPool,
    RemoteBackground,
    RemoteKV,
    WallClockStats,
    WireConnection,
    connect,
)
from repro.server.protocol import (
    FLAG_ORDERED,
    FLAG_RESPONSE,
    MAX_KEY_BYTES,
    PROTOCOL_VERSION,
    Frame,
    Opcode,
)
from repro.server.tcp import ServerConfig

__all__ = [
    "AsyncKVWireServer",
    "AsyncLoopbackTransport",
    "AsyncOrderedGate",
    "ConnectionPool",
    "FLAG_ORDERED",
    "FLAG_RESPONSE",
    "Frame",
    "MAX_KEY_BYTES",
    "Opcode",
    "PROTOCOL_VERSION",
    "RemoteBackground",
    "RemoteKV",
    "ServerConfig",
    "WallClockStats",
    "WireConnection",
    "connect",
]
