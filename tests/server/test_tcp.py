"""Real-TCP server lifecycle: accept, serve, drain, shut down."""

from __future__ import annotations

import threading
import time

import pytest

from repro.common.errors import ConfigError, TransportError
from repro.server import (
    AsyncKVWireServer,
    ConnectionPool,
    ServerConfig,
    connect,
)
from repro.system.responses import Status
from repro.workloads import ATTACKER_USER


class SlowService:
    """Service wrapper adding a wall-clock delay inside each request."""

    def __init__(self, service, delay_s: float) -> None:
        self._service = service
        self._delay_s = delay_s
        self.db = service.db
        self.stats = service.stats
        self.distinguish_unauthorized = service.distinguish_unauthorized

    def get_timed(self, user, key):
        time.sleep(self._delay_s)
        return self._service.get_timed(user, key)

    def get_many_timed(self, user, keys):
        time.sleep(self._delay_s)
        return self._service.get_many_timed(user, keys)


@pytest.fixture()
def tcp_server(wire_env):
    server = AsyncKVWireServer(wire_env.service, ServerConfig(port=0),
                               background=wire_env.background)
    server.start()
    yield server
    server.stop()


class TestTcpServing:
    def test_serves_over_real_sockets(self, tcp_server, wire_env):
        host, port = tcp_server.address
        client = connect(host, port)
        assert client.ping(b"tcp") == b"tcp"
        response = client.get(ATTACKER_USER, wire_env.keys[0])
        assert response.status is Status.UNAUTHORIZED
        client.close()

    def test_pool_dials_eagerly_and_fails_loudly(self, tcp_server):
        host, port = tcp_server.address
        with ConnectionPool.tcp(host, port, 3) as pool:
            assert len(pool) == 3
            assert pool.primary.ping() == b""
        with pytest.raises(TransportError):
            ConnectionPool.tcp(host, 1, 1)  # port 1: nothing listens

    def test_double_start_refused(self, tcp_server):
        with pytest.raises(ConfigError):
            tcp_server.start()

    def test_stop_is_idempotent(self, wire_env):
        server = AsyncKVWireServer(wire_env.service, ServerConfig(port=0))
        server.start()
        server.stop()
        server.stop()

    def test_address_only_while_listening(self, wire_env):
        server = AsyncKVWireServer(wire_env.service, ServerConfig(port=0))
        with pytest.raises(ConfigError, match="not listening"):
            server.address
        server.start()
        assert server.address[1] > 0
        server.stop()
        with pytest.raises(ConfigError, match="not listening"):
            server.address


class TestGracefulShutdown:
    @pytest.mark.wire_deadline(60)
    def test_inflight_request_drains_before_close(self, wire_env):
        """stop(graceful=True) waits for the response to reach the wire."""
        slow = SlowService(wire_env.service, delay_s=0.5)
        server = AsyncKVWireServer(slow, ServerConfig(port=0))
        server.start()
        host, port = server.address
        client = connect(host, port)
        outcome = {}

        def request():
            try:
                outcome["response"] = client.get(ATTACKER_USER,
                                                 wire_env.keys[0])
            except Exception as exc:  # noqa: BLE001 — recorded for assert
                outcome["error"] = exc

        requester = threading.Thread(target=request)
        requester.start()
        time.sleep(0.15)  # request is now in flight inside the service
        server.stop(graceful=True)
        requester.join(timeout=10)
        assert not requester.is_alive()
        assert "error" not in outcome
        assert outcome["response"].status is Status.UNAUTHORIZED
        client.close()

    @pytest.mark.wire_deadline(60)
    def test_requests_after_stop_fail_cleanly(self, wire_env):
        server = AsyncKVWireServer(wire_env.service, ServerConfig(port=0))
        server.start()
        host, port = server.address
        client = connect(host, port)
        assert client.ping() == b""
        server.stop()
        with pytest.raises(TransportError):
            client.ping()
        client.close()

    @pytest.mark.wire_deadline(60)
    def test_stop_unblocks_idle_connections(self, wire_env):
        """Coroutines parked reading idle connections exit promptly."""
        server = AsyncKVWireServer(wire_env.service, ServerConfig(port=0))
        server.start()
        host, port = server.address
        idle = connect(host, port)
        idle.ping()
        started = time.monotonic()
        server.stop(graceful=True)
        assert time.monotonic() - started < 1.0
        idle.close()
