"""The wire server: every connection a coroutine on one event loop.

One thread, one loop, thousands of connections (DESIGN.md section 7):

* the loop runs in a dedicated daemon thread, so synchronous clients —
  :class:`~repro.server.client.RemoteKV`, the attack oracles, benches —
  talk to it over ordinary blocking sockets;
* the **one-SimClock contract** needs no lock: the loop is the admission
  point, and :meth:`~repro.server.tcp.RequestExecutor.execute` is
  synchronous — it never yields mid-request, so service calls are
  serialized by construction;
* ordered frames pass the :class:`AsyncOrderedGate`, which admits them in
  per-stream (nonce, seq) order, so a concurrent client's execution
  order — and therefore the simulated timeline — is pinned to the order
  the client chose.  That is why the parallel attack driver is
  bit-identical to the serial in-process attack;
* shutdown is graceful by default: stop accepting, let in-flight
  requests finish and their responses flush, then close.

Wall-clock concurrency is framing and socket I/O overlap; simulated time
stays exactly the serial in-process timeline.
"""

from __future__ import annotations

import asyncio
import contextlib
import socket
import threading
from typing import Optional, Set, Tuple

from repro.common.errors import (
    ConfigError,
    OrderTimeoutError,
    ProtocolError,
    ReproError,
    TransportError,
    VersionMismatchError,
)
from repro.server import protocol
from repro.server.client import (
    ConnectionPool,
    RemoteKV,
    WireConnection,
)
from repro.server.protocol import ErrorCode, Frame
from repro.server.tcp import (
    RequestExecutor,
    ServerConfig,
    error_frame,
    map_dispatch_error,
)
from repro.storage.background import BackgroundLoad

#: Seconds an ordered frame may wait for its turn before erroring.
ORDER_TIMEOUT_S = 10.0
#: Seconds ``stop(graceful=True)`` waits for in-flight requests.
DRAIN_TIMEOUT_S = 10.0


class AsyncOrderedGate:
    """Admits ordered frames in per-stream (nonce, seq) order.

    Streams number their frames 0, 1, 2, ... contiguously; a frame whose
    turn has not come waits on a future that ``complete`` resolves, and
    raises a typed :class:`OrderTimeoutError` past the deadline.  Stream
    state is bounded: least-recently-used streams are forgotten past a
    cap (a forgotten stream's next frame would wait and time out —
    acceptable for the short-lived streams the attack driver creates).
    Recency is refreshed on every ``admit``/``complete``, so a busy
    long-lived stream survives arbitrary churn from one-shot streams.
    Single-threaded by design: only event-loop coroutines touch it.
    """

    DEFAULT_MAX_STREAMS = 64

    def __init__(self, timeout_s: float,
                 max_streams: int = DEFAULT_MAX_STREAMS) -> None:
        if max_streams < 1:
            raise ConfigError("gate needs room for at least one stream")
        self._timeout_s = timeout_s
        self._max_streams = max_streams
        # nonce -> next admissible seq, in least-recently-touched order.
        self._next: dict = {}
        # nonce -> {seq: future waiting for that turn}.
        self._waiters: dict = {}

    def _touch(self, nonce: int) -> None:
        """Refresh ``nonce``'s recency, evicting the LRU stream if full."""
        if nonce in self._next:
            self._next[nonce] = self._next.pop(nonce)
        elif len(self._next) >= self._max_streams:
            self._next.pop(next(iter(self._next)))

    async def admit(self, nonce: int, seq: int) -> None:
        """Wait until ``seq`` is the stream's turn."""
        self._touch(nonce)
        if self._next.setdefault(nonce, 0) == seq:
            return
        future = asyncio.get_event_loop().create_future()
        self._waiters.setdefault(nonce, {})[seq] = future
        try:
            await asyncio.wait_for(future, self._timeout_s)
        except asyncio.TimeoutError:
            raise OrderTimeoutError(
                f"ordered frame seq={seq} timed out waiting for "
                f"seq={self._next.get(nonce)} of stream {nonce:#x}"
            ) from None
        finally:
            waiters = self._waiters.get(nonce)
            if waiters is not None:
                waiters.pop(seq, None)
                if not waiters:
                    self._waiters.pop(nonce, None)

    def complete(self, nonce: int) -> None:
        """Mark the admitted frame done, releasing its successor."""
        self._touch(nonce)
        nxt = self._next.get(nonce, 0) + 1
        self._next[nonce] = nxt
        future = self._waiters.get(nonce, {}).get(nxt)
        if future is not None and not future.done():
            future.set_result(None)


class AsyncKVWireServer:
    """Serves the wire protocol over TCP (or any attached stream socket).

    ``service`` is anything with the :class:`KVService` surface — a bare
    service, a :class:`~repro.system.ratelimit.RateLimitedService`, a
    :class:`~repro.system.defense.DefendedService` stack (its decision
    counters surface through STATS), or a test double.  ``background``
    enables the WAIT opcode (cache-churn simulation control); without it
    WAIT answers UNSUPPORTED.

    The loop lives in a daemon thread started by :meth:`start`; the
    public surface (``start``/``attach``/``address``/``stop``) is
    callable from any thread.
    """

    def __init__(self, service, config: Optional[ServerConfig] = None,
                 background: Optional[BackgroundLoad] = None) -> None:
        self.service = service
        self.config = config or ServerConfig()
        self.background = background
        self._executor = RequestExecutor(service, background)
        self._gate = AsyncOrderedGate(ORDER_TIMEOUT_S)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._listener: Optional[asyncio.AbstractServer] = None
        self._address: Optional[Tuple[str, int]] = None
        self._tasks: Set["asyncio.Task"] = set()
        self._closing = False
        self._inflight = 0
        self._started = False
        #: Engineering metrics: lifetime and peak concurrent connections.
        self.connections_served = 0
        self.peak_connections = 0
        self._active = 0

    # --------------------------------------------------------------- lifecycle

    def start(self, listen: bool = True) -> None:
        """Spin up the event-loop thread (and, by default, a TCP listener)."""
        if self._started:
            raise ConfigError("server already started")
        self._started = True
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self._run_loop,
                                        name="kv-aio-loop", daemon=True)
        self._thread.start()
        if listen:
            self._call(self._start_listener())

    def _run_loop(self) -> None:
        assert self._loop is not None
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_forever()
        finally:
            self._loop.close()

    def _call(self, coro, timeout_s: float = 30.0):
        """Run ``coro`` on the loop from the caller's thread, wait, return."""
        assert self._loop is not None
        try:
            future = asyncio.run_coroutine_threadsafe(coro, self._loop)
        except RuntimeError:  # a concurrent stop() closed the loop
            coro.close()
            raise TransportError("asyncio server is stopped") from None
        try:
            return future.result(timeout_s)
        except asyncio.TimeoutError:
            future.cancel()
            raise TransportError("asyncio server control call timed out")

    async def _start_listener(self) -> None:
        self._listener = await asyncio.start_server(
            self._serve_stream, host=self.config.host, port=self.config.port,
            backlog=self.config.backlog)
        self._address = self._listener.sockets[0].getsockname()[:2]

    @property
    def address(self) -> Tuple[str, int]:
        """The bound (host, port), from ``start(listen=True)`` to ``stop``."""
        if self._address is None:
            raise ConfigError("server is not listening")
        return self._address

    def attach(self, sock: socket.socket) -> None:
        """Serve an already-connected stream socket (loopback transport).

        On a server that is not running the socket is closed instead, so
        the peer sees a typed ``TransportError`` on first use.
        """
        if self._loop is None or self._closing:
            sock.close()
            return
        try:
            self._call(self._attach(sock))
        except TransportError:
            sock.close()
            raise

    async def _attach(self, sock: socket.socket) -> None:
        sock.setblocking(False)
        reader, writer = await asyncio.open_connection(sock=sock)
        task = asyncio.get_event_loop().create_task(
            self._serve_stream(reader, writer))
        self._track(task)

    def _track(self, task: "asyncio.Task") -> None:
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    def stop(self, graceful: bool = True) -> None:
        """Shut down: optionally drain in-flight requests first."""
        if self._loop is None or self._closing:
            return
        self._closing = True
        self._address = None
        with contextlib.suppress(TransportError):
            self._call(self._shutdown(graceful),
                       timeout_s=DRAIN_TIMEOUT_S + 5.0)
        self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=5.0)

    async def _shutdown(self, graceful: bool) -> None:
        if self._listener is not None:
            self._listener.close()
        if graceful:
            deadline = asyncio.get_event_loop().time() + DRAIN_TIMEOUT_S
            while (self._inflight > 0
                   and asyncio.get_event_loop().time() < deadline):
                await asyncio.sleep(0.005)
        for task in list(self._tasks):
            task.cancel()
        if self._tasks:
            await asyncio.wait(list(self._tasks), timeout=2.0)

    def __enter__(self) -> "AsyncKVWireServer":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------- connections

    async def _serve_stream(self, reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None and task not in self._tasks:
            self._track(task)  # listener-spawned tasks register here
        self._active += 1
        self.connections_served += 1
        self.peak_connections = max(self.peak_connections, self._active)
        try:
            await self._serve_frames(reader, writer)
        except asyncio.CancelledError:
            pass
        finally:
            self._active -= 1
            writer.close()
            # Shutdown may cancel this task again while it waits for the
            # transport to close; swallowing it here lets the task end
            # *completed* — a cancelled client_connected_cb task makes
            # asyncio's connection_made callback log a spurious error.
            with contextlib.suppress(Exception, asyncio.CancelledError):
                await writer.wait_closed()

    async def _serve_frames(self, reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter) -> None:
        while not self._closing:
            try:
                frame = await self._read_frame(reader)
            except EOFError:
                return
            except VersionMismatchError as exc:
                await self._send_error(writer, 0, ErrorCode.VERSION, str(exc))
                return
            except (ProtocolError, OSError) as exc:
                await self._send_error(writer, 0, ErrorCode.PROTOCOL,
                                       str(exc))
                return
            if self._closing:
                await self._send_error(writer, frame.request_id,
                                       ErrorCode.SHUTTING_DOWN,
                                       "server is shutting down")
                return
            self._inflight += 1
            try:
                response = await self._dispatch(frame)
                try:
                    data = protocol.encode_frame(response)
                except ProtocolError:
                    # A batch whose answer outgrew the frame cap fails
                    # alone; the connection keeps serving.
                    data = protocol.encode_frame(error_frame(
                        frame.request_id, ErrorCode.PROTOCOL,
                        "response exceeds the frame cap"))
                try:
                    writer.write(data)
                    await writer.drain()
                except (OSError, ConnectionError):
                    return
            finally:
                self._inflight -= 1

    @staticmethod
    async def _read_frame(reader: asyncio.StreamReader) -> Frame:
        """Read one complete frame, or raise EOFError on a clean close."""
        try:
            header = await reader.readexactly(protocol.HEADER_BYTES)
        except asyncio.IncompleteReadError as exc:
            if not exc.partial:
                raise EOFError("connection closed") from None
            raise ProtocolError(
                f"connection closed mid-header ({len(exc.partial)} of "
                f"{protocol.HEADER_BYTES} bytes read)") from None
        frame, length = protocol.decode_header(header)
        if not length:
            return frame
        try:
            payload = await reader.readexactly(length)
        except asyncio.IncompleteReadError as exc:
            raise ProtocolError(
                f"connection closed mid-frame ({len(exc.partial)} of "
                f"{length} payload bytes read)") from None
        return Frame(opcode=frame.opcode, request_id=frame.request_id,
                     payload=payload, flags=frame.flags)

    # ---------------------------------------------------------------- dispatch

    async def _dispatch(self, frame: Frame) -> Frame:
        try:
            payload = frame.payload
            token = None
            if frame.flags & protocol.FLAG_ORDERED:
                token, payload = protocol.split_order(payload)
            if token is not None:
                await self._gate.admit(token.nonce, token.seq)
            try:
                # Synchronous on purpose: no await between here and the
                # service call, so the loop serializes simulated time.
                return self._executor.execute(frame.opcode, payload,
                                              frame.request_id)
            finally:
                if token is not None:
                    self._gate.complete(token.nonce)
        except ReproError as exc:
            return map_dispatch_error(frame.request_id, exc)

    @staticmethod
    async def _send_error(writer: asyncio.StreamWriter, request_id: int,
                          code: int, message: str) -> None:
        with contextlib.suppress(OSError, ConnectionError):
            writer.write(protocol.encode_frame(
                error_frame(request_id, code, message)))
            await writer.drain()


class AsyncLoopbackTransport:
    """A served KV stack reachable only from inside this process.

    Tests, benches and the deterministic parallel-attack harness need the
    *entire* serving path — framing, dispatch, the ordered gate — without
    TCP ports, ephemeral-port races, or firewall surprises.  Connections
    are ``socket.socketpair()`` ends handed to the event loop: byte for
    byte the same protocol, and :meth:`pool` can be any size.
    """

    def __init__(self, service,
                 background: Optional[BackgroundLoad] = None) -> None:
        self.server = AsyncKVWireServer(service, background=background)
        self.server.start(listen=False)

    def dial(self) -> socket.socket:
        """New connection: hand one socketpair end to the event loop."""
        client_end, server_end = socket.socketpair()
        try:
            self.server.attach(server_end)
        except TransportError:
            client_end.close()
            raise
        return client_end

    def connect(self) -> RemoteKV:
        """One client over a fresh loopback connection."""
        return RemoteKV(WireConnection(self.dial()))

    def pool(self, size: int) -> ConnectionPool:
        """A connection pool over fresh loopback connections (any size)."""
        return ConnectionPool(self.dial, size)

    def close(self) -> None:
        self.server.stop()

    def __enter__(self) -> "AsyncLoopbackTransport":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
