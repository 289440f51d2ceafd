"""Wire-protocol client: pooled connections and a KVService-shaped facade.

:class:`RemoteKV` exposes the same surface the attack oracles and the
learning phase consume from an in-process :class:`KVService` — ``get``,
``get_timed``, ``getter``, ``get_many``, ``get_many_timed`` — so every
existing attack component runs over a real socket unchanged.  Two times
exist per request and are kept strictly apart (PR-1 invariant):

* **server-reported simulated time** — the SimClock charge window around
  the service call, returned in every result frame.  This is the side
  channel; it is what ``get_timed`` returns and what oracles classify on.
* **wall-clock time** — measured client-side around the socket round
  trip, accumulated in :class:`WallClockStats`.  This is an engineering
  metric (throughput, scaling) and never feeds classification.
"""

from __future__ import annotations

import socket
import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.common.errors import (
    ConfigError,
    RemoteError,
    TransportError,
)
from repro.server import protocol
from repro.server.protocol import Frame, Opcode, OrderToken
from repro.server.tcp import read_frame
from repro.system.responses import Response, until_found

#: Wall-clock seconds a request may wait for its response.
DEFAULT_TIMEOUT_S = 30.0


@dataclass
class WallClockStats:
    """Client-side wall-clock accounting (never part of the side channel)."""

    requests: int = 0
    total_us: float = 0.0
    max_us: float = 0.0

    def record(self, elapsed_us: float) -> None:
        self.requests += 1
        self.total_us += elapsed_us
        if elapsed_us > self.max_us:
            self.max_us = elapsed_us

    @property
    def mean_us(self) -> float:
        return self.total_us / self.requests if self.requests else 0.0


class WireConnection:
    """One protocol connection: sequential request/response over a socket."""

    def __init__(self, sock: socket.socket,
                 wall_rtt_s: float = 0.0) -> None:
        if wall_rtt_s < 0:
            raise ConfigError("wall RTT must be non-negative")
        sock.settimeout(DEFAULT_TIMEOUT_S)
        self._sock = sock
        self._lock = threading.Lock()
        self._next_request_id = 0
        self.wall = WallClockStats()
        self._clock = time.perf_counter
        #: Modeled network round-trip, *slept* in wall-clock time per
        #: request.  Benchmarks use it to study latency hiding: sleeps on
        #: different pooled connections overlap, exactly like in-flight
        #: requests on a real network.  Simulated time is untouched — the
        #: timing side channel stays server-reported.
        self.wall_rtt_s = wall_rtt_s

    def request(self, opcode: int, payload: bytes = b"",
                order: Optional[OrderToken] = None) -> Frame:
        """Send one frame and block for its response.

        Raises :class:`RemoteError` for server-side error frames and
        :class:`TransportError` for connection-level failures.
        """
        flags = 0
        if order is not None:
            payload = protocol.prepend_order(payload, order)
            flags |= protocol.FLAG_ORDERED
        with self._lock:
            request_id = self._next_request_id
            self._next_request_id += 1
            frame = Frame(opcode=opcode, request_id=request_id,
                          payload=payload, flags=flags)
            started = self._clock()
            try:
                self._sock.sendall(protocol.encode_frame(frame))
                response = read_frame(self._sock)
            except (OSError, EOFError) as exc:
                raise TransportError(f"request failed: {exc}") from exc
            if self.wall_rtt_s:
                time.sleep(self.wall_rtt_s)
            self.wall.record((self._clock() - started) * 1e6)
        if response.request_id != request_id:
            raise TransportError(
                f"response id {response.request_id} does not match "
                f"request id {request_id}"
            )
        if response.opcode == Opcode.ERROR:
            code, message = protocol.decode_error(response.payload)
            raise RemoteError(code, message)
        if response.opcode != opcode or not response.is_response:
            raise TransportError(
                f"mismatched response opcode {response.opcode} to {opcode}"
            )
        return response

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass


class RemoteKV:
    """The :class:`KVService` surface, spoken over one wire connection."""

    #: No store on this side of the wire: idealized oracles cannot run here.
    db = None
    #: The protocol carries whatever statuses the server's stack sends;
    #: the attack assumes the distinguishing system of the threat model.
    distinguish_unauthorized = True

    def __init__(self, connection: WireConnection) -> None:
        self.connection = connection
        self.wall = connection.wall

    # ------------------------------------------------------------------ reads

    def get(self, user: int, key: bytes) -> Response:
        """Plain request (probes need only the status)."""
        frame = self.connection.request(
            Opcode.GET, protocol.encode_get_request(user, key))
        response, _sim_us, _ = protocol.decode_result(frame.payload)
        return response

    def get_timed(self, user: int, key: bytes) -> Tuple[Response, float]:
        """Request plus the *server-reported simulated* response time."""
        frame = self.connection.request(
            Opcode.GET, protocol.encode_get_request(user, key))
        response, sim_us, _ = protocol.decode_result(frame.payload)
        return response, sim_us

    def getter(self, user: int) -> Callable[[bytes], Response]:
        """Per-key closure; each call is one GET round trip."""
        request = self.connection.request
        encode = protocol.encode_get_request
        decode = protocol.decode_result

        def get_one(key: bytes) -> Response:
            frame = request(Opcode.GET, encode(user, key))
            response, _sim_us, _ = decode(frame.payload)
            return response

        return get_one

    def get_many(self, user: int, keys: Sequence[bytes],
                 order: Optional[OrderToken] = None) -> List[Response]:
        """Batch of plain requests (one GET_MANY frame)."""
        frame = self.connection.request(
            Opcode.GET_MANY, protocol.encode_get_many_request(user, keys),
            order=order)
        return protocol.decode_get_many_columns(frame.payload)[0]

    def get_many_timed(self, user: int, keys: Sequence[bytes],
                       order: Optional[OrderToken] = None
                       ) -> List[Tuple[Response, float]]:
        """Batch of timed requests; sim times are server-reported.

        The server executes the whole batch in one synchronous call on
        its event loop (no other request interleaves), so the per-key
        simulated times are exactly what a serial in-process
        ``get_many_timed`` call would have measured.
        """
        frame = self.connection.request(
            Opcode.GET_MANY, protocol.encode_get_many_request(user, keys),
            order=order)
        return list(zip(*protocol.decode_get_many_columns(frame.payload)))

    def get_until_found(self, user: int, keys: Sequence[bytes]
                        ) -> List[Response]:
        """One GET per key, in order, until a response discloses a stored
        key: the protocol has no early-exit batch, and a GET_MANY would
        issue keys past the hit."""
        return until_found(self.getter(user), keys)

    # ----------------------------------------------------------------- writes

    def put(self, user: int, key: bytes, value: bytes,
            public_read: bool = False) -> Response:
        """Store an object owned by ``user`` over the wire."""
        response, _sim_us = self.put_timed(user, key, value,
                                           public_read=public_read)
        return response

    def put_timed(self, user: int, key: bytes, value: bytes,
                  public_read: bool = False) -> Tuple[Response, float]:
        """``put`` plus the server-reported simulated response time."""
        flags = protocol.PUT_FLAG_PUBLIC_READ if public_read else 0
        frame = self.connection.request(
            Opcode.PUT, protocol.encode_put_request(user, key, value, flags))
        response, sim_us, _ = protocol.decode_result(frame.payload)
        return response, sim_us

    def put_many(self, user: int, items: Sequence[Tuple[bytes, bytes]],
                 public_read: bool = False) -> int:
        """Batch store (one PUT_MANY frame); returns records stored."""
        count, _sim_us = self.put_many_timed(user, items,
                                             public_read=public_read)
        return count

    def put_many_timed(self, user: int, items: Sequence[Tuple[bytes, bytes]],
                       public_read: bool = False) -> Tuple[int, float]:
        """Batch store; returns (records stored, batch simulated time)."""
        flags = protocol.PUT_FLAG_PUBLIC_READ if public_read else 0
        frame = self.connection.request(
            Opcode.PUT_MANY,
            protocol.encode_put_many_request(user, items, flags))
        return protocol.decode_put_many_response(frame.payload)

    def delete(self, user: int, key: bytes) -> Response:
        """Delete an object over the wire (owner-only, ACL-checked)."""
        response, _sim_us = self.delete_timed(user, key)
        return response

    def delete_timed(self, user: int, key: bytes) -> Tuple[Response, float]:
        """``delete`` plus the server-reported simulated response time."""
        frame = self.connection.request(
            Opcode.DELETE, protocol.encode_delete_request(user, key))
        response, sim_us, _ = protocol.decode_result(frame.payload)
        return response, sim_us

    # ------------------------------------------------------- simulation knobs

    def wait(self, duration_us: float) -> float:
        """Let the server's background load run (cache-eviction wait)."""
        frame = self.connection.request(
            Opcode.WAIT, protocol.encode_wait_request(duration_us))
        return protocol.decode_wait_response(frame.payload)

    def stats(self) -> protocol.StatsSnapshot:
        """Server counters + simulated clock reading."""
        frame = self.connection.request(Opcode.STATS)
        return protocol.decode_stats_response(frame.payload)

    def sim_now_us(self) -> float:
        """The server's simulated clock (for attack duration accounting)."""
        return self.stats().sim_now_us

    def ping(self, payload: bytes = b"") -> bytes:
        """Round-trip liveness probe; echoes ``payload``."""
        return self.connection.request(Opcode.PING, payload).payload

    def close(self) -> None:
        self.connection.close()


class RemoteBackground:
    """Client-side stand-in for :class:`BackgroundLoad` over the wire.

    Lets :func:`~repro.core.learning.learn_cutoff` and the timing oracles
    drive server-side cache churn exactly as they would in-process: the
    WAIT opcode runs the server's real background load under its service
    lock, charging the one true SimClock.
    """

    def __init__(self, client: RemoteKV) -> None:
        self._client = client
        self._eviction_wait_us: Optional[float] = None

    def run_for(self, duration_us: float) -> None:
        """Advance the server's ambient load by ``duration_us``."""
        self._client.wait(duration_us)

    def eviction_wait_us(self) -> float:
        """Server-reported full-cache displacement time (cached)."""
        if self._eviction_wait_us is None:
            self._eviction_wait_us = self._client.stats().eviction_wait_us
        return self._eviction_wait_us


class ConnectionPool:
    """N independent protocol connections to one server.

    ``dial`` returns a fresh connected stream socket; :meth:`tcp` builds
    the standard TCP dialer.  Connections are created eagerly so a
    misconfigured address fails at construction, not mid-attack.
    """

    def __init__(self, dial: Callable[[], socket.socket], size: int,
                 wall_rtt_s: float = 0.0) -> None:
        if size < 1:
            raise ConfigError("connection pool needs at least one connection")
        # Checked before the first dial: a socket handed to a
        # WireConnection that then refuses it has no owner to close it.
        if wall_rtt_s < 0:
            raise ConfigError("wall RTT must be non-negative")
        self._clients: List[RemoteKV] = []
        try:
            for _ in range(size):
                self._clients.append(RemoteKV(WireConnection(
                    dial(), wall_rtt_s=wall_rtt_s)))
        except OSError as exc:
            raise TransportError(f"dial failed: {exc}") from exc
        finally:
            # Whatever stopped construction, what was dialed is closed.
            if len(self._clients) < size:
                self.close()

    @classmethod
    def tcp(cls, host: str, port: int, size: int,
            wall_rtt_s: float = 0.0) -> "ConnectionPool":
        """Pool of TCP connections to ``host:port``."""
        def dial() -> socket.socket:
            sock = socket.create_connection((host, port),
                                            timeout=DEFAULT_TIMEOUT_S)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            return sock
        return cls(dial, size, wall_rtt_s=wall_rtt_s)

    def __len__(self) -> int:
        return len(self._clients)

    def client(self, index: int) -> RemoteKV:
        """The ``index``-th pooled client (0 is the primary)."""
        return self._clients[index]

    @property
    def primary(self) -> RemoteKV:
        """The connection used for serial phases (learning, waits, stats)."""
        return self._clients[0]

    def wall_stats(self) -> WallClockStats:
        """Aggregated wall-clock stats across every pooled connection."""
        total = WallClockStats()
        for client in self._clients:
            total.requests += client.wall.requests
            total.total_us += client.wall.total_us
            total.max_us = max(total.max_us, client.wall.max_us)
        return total

    def close(self) -> None:
        for client in self._clients:
            client.close()

    def __enter__(self) -> "ConnectionPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def connect(host: str, port: int) -> RemoteKV:
    """One-connection convenience constructor."""
    return ConnectionPool.tcp(host, port, size=1).primary
