"""Blocking-socket framing and request execution for the wire server.

Two jobs live here (DESIGN.md section 7):

* **framing for blocking sockets** — :func:`read_frame` is how the
  synchronous clients (:mod:`repro.server.client`) and raw-socket tests
  pull one complete frame off a stream;
* **execution** — :class:`RequestExecutor` turns a decoded request into
  its response frame against the service stack, :func:`collect_stats`
  asks the stack for its STATS counters, and
  :func:`map_dispatch_error` maps typed library errors to ERROR frames.
  :class:`ServerConfig` says where the server listens.

The server itself — event loop, ordered gate, loopback transport — is
:mod:`repro.server.aio`; these names stay in this module because the e2e
benchmark's tracer patches them here by name.  The simulated store has a single
:class:`~repro.storage.clock.SimClock`, so exactly one request may
advance simulated time at a time: :meth:`RequestExecutor.execute` is
synchronous and the event loop that calls it is the admission point.
"""

from __future__ import annotations

import socket
from dataclasses import dataclass
from typing import Optional

from repro.common.errors import (
    ConfigError,
    CorruptionError,
    OrderTimeoutError,
    ProtocolError,
    ReproError,
    StorageError,
    TransientIOError,
)
from repro.server import protocol
from repro.server.protocol import ErrorCode, Frame, Opcode
from repro.storage.background import BackgroundLoad


@dataclass(frozen=True)
class ServerConfig:
    """Where the server listens (deployment settings)."""

    host: str = "127.0.0.1"
    port: int = 0
    #: Listen backlog handed to the kernel.
    backlog: int = 16

    def __post_init__(self) -> None:
        if self.backlog < 1:
            raise ConfigError("backlog must be at least 1")


def collect_stats(service, background: Optional[BackgroundLoad] = None
                  ) -> protocol.StatsSnapshot:
    """The STATS snapshot of a service stack.

    Every layer of the stack answers for its own counters plus what it
    wraps (``stats_fields``), so any stacking depth is correct by
    construction; the ambient load's displacement time is the server's.
    """
    return protocol.StatsSnapshot(
        eviction_wait_us=(background.eviction_wait_us()
                          if background is not None else 0.0),
        **service.stats_fields())


def _response_frame(opcode: int, request_id: int, payload: bytes) -> Frame:
    return Frame(opcode=opcode, request_id=request_id, payload=payload,
                 flags=protocol.FLAG_RESPONSE)


def error_frame(request_id: int, code: int, message: str) -> Frame:
    """An ERROR response frame."""
    return Frame(opcode=Opcode.ERROR, request_id=request_id,
                 payload=protocol.encode_error(code, message),
                 flags=protocol.FLAG_RESPONSE)


def map_dispatch_error(request_id: int, exc: ReproError) -> Frame:
    """Typed library error -> ERROR frame.

    Order timeouts dispatch on the :class:`OrderTimeoutError` *type* — a
    decode error whose message merely mentions "timed out" stays a plain
    PROTOCOL error.
    """
    if isinstance(exc, OrderTimeoutError):
        return error_frame(request_id, ErrorCode.ORDER_TIMEOUT, str(exc))
    if isinstance(exc, ProtocolError):
        return error_frame(request_id, ErrorCode.PROTOCOL, str(exc))
    if isinstance(exc, TransientIOError):
        # Retryable: tell the client to reissue; nothing is wrong with
        # the store or the connection.
        return error_frame(request_id, ErrorCode.TRANSIENT, str(exc))
    if isinstance(exc, (CorruptionError, StorageError)):
        # Graceful degradation: a request that hit untrustworthy bytes
        # fails with a typed error, but the connection (and every key
        # that does not route through the bad data) keeps working.
        return error_frame(request_id, ErrorCode.CORRUPTION, str(exc))
    return error_frame(request_id, ErrorCode.INTERNAL, str(exc))


class RequestExecutor:
    """Opcode execution against the service/background pair.

    :meth:`execute` is synchronous and takes no lock: the server's
    single-threaded event loop is the admission point, and because
    ``execute`` never yields mid-request, one request at a time advances
    the store's one SimClock.
    """

    def __init__(self, service,
                 background: Optional[BackgroundLoad] = None) -> None:
        self.service = service
        self.background = background

    def execute(self, opcode: int, payload: bytes, request_id: int) -> Frame:
        """Run one decoded request against the service, building the reply."""
        if opcode == Opcode.PING:
            return _response_frame(Opcode.PING, request_id, payload)
        if opcode == Opcode.GET:
            user, key = protocol.decode_get_request(payload)
            response, sim_us = self.service.get_timed(user, key)
            return _response_frame(Opcode.GET, request_id,
                                   protocol.encode_result(response, sim_us))
        if opcode == Opcode.GET_MANY:
            user, keys = protocol.decode_get_many_request(payload)
            results = self.service.get_many_timed(user, keys)
            return _response_frame(Opcode.GET_MANY, request_id,
                                   protocol.encode_get_many_response(results))
        if opcode == Opcode.PUT:
            user, key, value, flags = protocol.decode_put_request(payload)
            response, sim_us = self.service.put_timed(
                user, key, value, self._put_acl(user, flags))
            return _response_frame(Opcode.PUT, request_id,
                                   protocol.encode_result(response, sim_us))
        if opcode == Opcode.PUT_MANY:
            user, items, flags = protocol.decode_put_many_request(payload)
            responses, sim_us = self.service.put_many_timed(
                user, items, self._put_acl(user, flags))
            return _response_frame(
                Opcode.PUT_MANY, request_id,
                protocol.encode_put_many_response(len(responses), sim_us))
        if opcode == Opcode.DELETE:
            user, key = protocol.decode_delete_request(payload)
            response, sim_us = self.service.delete_timed(user, key)
            return _response_frame(Opcode.DELETE, request_id,
                                   protocol.encode_result(response, sim_us))
        if opcode == Opcode.STATS:
            return _response_frame(
                Opcode.STATS, request_id,
                protocol.encode_stats_response(
                    collect_stats(self.service, self.background)))
        if opcode == Opcode.WAIT:
            duration_us = protocol.decode_wait_request(payload)
            if self.background is None:
                return error_frame(
                    request_id, ErrorCode.UNSUPPORTED,
                    "server has no background load attached")
            self.background.run_for(duration_us)
            return _response_frame(
                Opcode.WAIT, request_id,
                protocol.encode_wait_response(self.service.sim_now_us()))
        return error_frame(request_id, ErrorCode.UNSUPPORTED,
                           f"opcode {opcode} is not servable")

    @staticmethod
    def _put_acl(user: int, flags: int):
        from repro.system.acl import Acl
        return Acl(owner=user,
                   public_read=bool(flags & protocol.PUT_FLAG_PUBLIC_READ))


def _read_exact(sock: socket.socket, count: int) -> bytes:
    """Read exactly ``count`` bytes or raise on EOF mid-message."""
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if remaining == count:
                raise EOFError("connection closed")
            raise ProtocolError(
                f"connection closed mid-frame ({count - remaining} of "
                f"{count} bytes read)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame(sock: socket.socket) -> Frame:
    """Read one complete frame from a stream socket.

    Raises ``EOFError`` on a clean close between frames and
    :class:`ProtocolError` (or a subclass) on anything malformed.
    """
    header = _read_exact(sock, protocol.HEADER_BYTES)
    frame, length = protocol.decode_header(header)
    payload = _read_exact(sock, length) if length else b""
    return Frame(opcode=frame.opcode, request_id=frame.request_id,
                 payload=payload, flags=frame.flags)
