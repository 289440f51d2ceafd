"""Loopback client/server behavior: the full serving path in-process.

Everything here exercises real framing through the real event-loop
server — only the sockets are socketpairs instead of TCP.
"""

from __future__ import annotations

import socket
import struct
import time

import pytest

from repro.common.errors import ConfigError, RemoteError, TransportError
from repro.server import AsyncLoopbackTransport, ConnectionPool, protocol
from repro.server.protocol import ErrorCode, Frame, Opcode, OrderToken
from repro.server.tcp import read_frame
from repro.system.ratelimit import RateLimitedService, RateLimitPolicy
from repro.system.responses import Status
from repro.workloads import ATTACKER_USER, OWNER_USER


class TestBasicRequests:
    def test_ping_echoes(self, loopback):
        client = loopback.connect()
        assert client.ping(b"hello") == b"hello"
        assert client.ping() == b""

    def test_get_statuses_match_in_process(self, wire_env, loopback):
        client = loopback.connect()
        stored = wire_env.keys[0]
        assert client.get(ATTACKER_USER, stored).status is Status.UNAUTHORIZED
        owner_response = client.get(OWNER_USER, stored)
        assert owner_response.status is Status.OK
        assert owner_response.value is not None
        absent = bytes(wire_env.config.key_width)
        assert client.get(ATTACKER_USER, absent).status in (
            Status.NOT_FOUND, Status.UNAUTHORIZED)

    def test_get_timed_reports_simulated_time(self, loopback, wire_env):
        client = loopback.connect()
        before = client.sim_now_us()
        _, sim_us = client.get_timed(ATTACKER_USER, wire_env.keys[1])
        after = client.sim_now_us()
        assert sim_us > 0
        # The report is a SimClock charge window, so it is bounded by the
        # clock movement across the request.
        assert after - before >= sim_us

    def test_get_many_matches_sequential_gets(self, loopback, wire_env):
        client = loopback.connect()
        batch_keys = wire_env.keys[10:15] + [bytes(wire_env.config.key_width)]
        batch = client.get_many(ATTACKER_USER, batch_keys)
        assert [r.status for r in batch] == [
            client.get(ATTACKER_USER, k).status for k in batch_keys]

    def test_getter_closure(self, loopback, wire_env):
        get_one = loopback.connect().getter(ATTACKER_USER)
        assert get_one(wire_env.keys[2]).status is Status.UNAUTHORIZED

    def test_stats_count_requests(self, loopback, wire_env):
        client = loopback.connect()
        start = client.stats()
        client.get(ATTACKER_USER, wire_env.keys[0])
        client.get(ATTACKER_USER, bytes(wire_env.config.key_width))
        stats = client.stats()
        assert stats.requests == start.requests + 2
        assert stats.unauthorized >= start.unauthorized + 1
        assert stats.sim_now_us > 0

    def test_stats_surface_range_engine_counters(self, loopback, wire_env):
        client = loopback.connect()
        start = client.stats()
        low = wire_env.keys[0]
        wire_env.db.range_query(low, low + b"\xff")
        wire_env.db.scan(low[:2])
        stats = client.stats()
        assert stats.range_queries == start.range_queries + 2

    def test_wait_advances_simulated_clock(self, loopback):
        client = loopback.connect()
        before = client.sim_now_us()
        after = client.wait(25_000.0)
        assert after >= before + 25_000.0
        assert client.sim_now_us() >= after

    def test_wall_clock_stats_are_recorded(self, loopback, wire_env):
        client = loopback.connect()
        client.get(ATTACKER_USER, wire_env.keys[0])
        client.ping()
        assert client.wall.requests == 2
        assert client.wall.total_us > 0
        assert client.wall.max_us <= client.wall.total_us


class TestErrorPaths:
    def test_wait_without_background_is_unsupported(self, wire_env):
        with AsyncLoopbackTransport(wire_env.service,
                                    background=None) as transport:
            client = transport.connect()
            with pytest.raises(RemoteError) as excinfo:
                client.wait(1000.0)
            assert excinfo.value.code == ErrorCode.UNSUPPORTED
            # The connection survives an error response.
            assert client.ping(b"still here") == b"still here"

    @pytest.mark.parametrize("duration_us", [float("nan"), float("inf")])
    def test_non_finite_wait_answered_with_protocol_error(self, loopback,
                                                          duration_us):
        """NaN/+inf used to escape dispatch untyped and kill the connection."""
        client = loopback.connect()
        with pytest.raises(RemoteError) as excinfo:
            client.wait(duration_us)
        assert excinfo.value.code == ErrorCode.PROTOCOL
        assert client.ping(b"still here") == b"still here"

    def test_malformed_payload_yields_protocol_error(self, loopback):
        client = loopback.connect()
        with pytest.raises(RemoteError) as excinfo:
            client.connection.request(Opcode.GET, b"\x01\x02")
        assert excinfo.value.code == ErrorCode.PROTOCOL

    def test_version_mismatch_answered_with_version_error(self, loopback):
        sock = loopback.dial()
        wire = bytearray(protocol.encode_frame(
            Frame(opcode=Opcode.PING, request_id=3)))
        wire[2] = protocol.PROTOCOL_VERSION + 9
        sock.sendall(bytes(wire))
        reply = read_frame(sock)
        assert reply.opcode == Opcode.ERROR
        code, _ = protocol.decode_error(reply.payload)
        assert code == ErrorCode.VERSION
        sock.close()

    def test_v3_peer_answered_with_version_error(self, loopback):
        """A v3 client's batch frame is refused by version, typed, before
        its (v3-shaped) payload is looked at."""
        sock = loopback.dial()
        v3_keys = b"".join(struct.pack("!H", 2) + key for key in (b"ab", b"cd"))
        payload = struct.pack("!QI", 1, 2) + v3_keys
        sock.sendall(struct.pack("!2sBBHQI", protocol.MAGIC, 3,
                                 Opcode.GET_MANY, 0, 5, len(payload))
                     + payload)
        reply = read_frame(sock)
        assert reply.opcode == Opcode.ERROR
        code, message = protocol.decode_error(reply.payload)
        assert code == ErrorCode.VERSION
        assert "version 3" in message
        sock.close()

    def test_garbage_bytes_answered_with_protocol_error(self, loopback):
        sock = loopback.dial()
        sock.sendall(b"GARBAGE-NOT-A-FRAME!!!")
        reply = read_frame(sock)
        assert reply.opcode == Opcode.ERROR
        code, _ = protocol.decode_error(reply.payload)
        assert code == ErrorCode.PROTOCOL
        sock.close()


class TestOrderedGate:
    def test_out_of_order_frame_blocks_until_predecessor(self, loopback):
        """A seq-1 frame sent first is held until seq 0 completes."""
        nonce = 0xDEAD
        sock1 = loopback.dial()
        sock1.sendall(protocol.encode_frame(Frame(
            opcode=Opcode.PING, request_id=11,
            payload=protocol.prepend_order(b"second", OrderToken(nonce, 1)),
            flags=protocol.FLAG_ORDERED)))
        sock1.settimeout(0.3)
        with pytest.raises(socket.timeout):
            read_frame(sock1)  # gate is holding seq 1
        sock0 = loopback.dial()
        sock0.sendall(protocol.encode_frame(Frame(
            opcode=Opcode.PING, request_id=10,
            payload=protocol.prepend_order(b"first", OrderToken(nonce, 0)),
            flags=protocol.FLAG_ORDERED)))
        assert read_frame(sock0).payload == b"first"
        sock1.settimeout(5.0)
        assert read_frame(sock1).payload == b"second"
        sock0.close()
        sock1.close()

    def test_ordered_serial_equals_unordered_serial(self, loopback,
                                                    wire_env):
        """On one connection, ordering tokens change nothing."""
        client = loopback.connect()
        keys = wire_env.keys[20:26]
        plain = client.get_many(ATTACKER_USER, keys)
        ordered = client.get_many(ATTACKER_USER, keys,
                                  order=OrderToken(0xBEEF, 0))
        assert [r.status for r in plain] == [r.status for r in ordered]


class TestInjectableTransport:
    """network.RemoteClient accepts any transport — including the wire
    client — so the simulated-network model and the real serving layer
    share one observation path."""

    def test_network_model_layers_over_wire_client(self, loopback, wire_env):
        from repro.common.rng import make_rng
        from repro.system.network import LAN, RemoteClient

        wire_client = loopback.connect()
        observed_via_net = RemoteClient(wire_client, LAN,
                                        rng=make_rng(0, "test-net"))
        key = wire_env.keys[3]
        response, observed_us = observed_via_net.get_timed(ATTACKER_USER, key)
        assert response.status is Status.UNAUTHORIZED
        # Observation = server-reported simulated time + RTT + jitter.
        assert observed_us >= LAN.rtt_us
        batch = observed_via_net.get_many_timed(ATTACKER_USER,
                                                wire_env.keys[4:7])
        assert all(t >= LAN.rtt_us for _, t in batch)
        assert observed_via_net.transport is wire_client

    def test_adapter_tolerates_wire_transport(self, loopback):
        from repro.common.rng import make_rng
        from repro.system.network import LOCALHOST, RemoteClient

        adapter = RemoteClient(
            loopback.connect(), LOCALHOST, rng=make_rng(1, "test-net"))
        # Wire transports expose no in-process db handle.
        assert adapter.db is None
        assert adapter.distinguish_unauthorized is True


class TestWriteOpcodes:
    def test_put_then_get_round_trip(self, loopback):
        client = loopback.connect()
        response = client.put(OWNER_USER, b"wire:put:a", b"payload-a")
        assert response.status is Status.OK
        got = client.get(OWNER_USER, b"wire:put:a")
        assert got.status is Status.OK and got.value == b"payload-a"
        # The ACL rides inside the value: another user may not read it.
        assert client.get(ATTACKER_USER, b"wire:put:a").status in (
            Status.UNAUTHORIZED, Status.FAILED)

    def test_public_read_flag(self, loopback):
        client = loopback.connect()
        client.put(OWNER_USER, b"wire:put:pub", b"open", public_read=True)
        got = client.get(ATTACKER_USER, b"wire:put:pub")
        assert got.status is Status.OK and got.value == b"open"

    def test_put_timed_reports_simulated_time(self, loopback):
        client = loopback.connect()
        response, sim_us = client.put_timed(OWNER_USER, b"wire:put:t", b"v")
        assert response.status is Status.OK
        assert sim_us > 0

    def test_put_many_stores_batch(self, loopback):
        client = loopback.connect()
        items = [(b"wire:pm:%d" % i, b"value-%d" % i) for i in range(20)]
        count, sim_us = client.put_many_timed(OWNER_USER, items)
        assert count == len(items)
        assert sim_us > 0
        for key, value in items[::5]:
            got = client.get(OWNER_USER, key)
            assert got.status is Status.OK and got.value == value

    def test_delete_enforces_ownership(self, loopback):
        client = loopback.connect()
        client.put(OWNER_USER, b"wire:del:k", b"v")
        # Non-owner delete is refused and leaves the object in place
        # (UNAUTHORIZED, or FAILED when the service hides the reason).
        refused = client.delete(ATTACKER_USER, b"wire:del:k")
        assert refused.status in (Status.UNAUTHORIZED, Status.FAILED)
        assert client.get(OWNER_USER, b"wire:del:k").status is Status.OK
        # Owner delete succeeds; the key is gone afterwards.
        assert client.delete(OWNER_USER, b"wire:del:k").status is Status.OK
        assert client.get(OWNER_USER, b"wire:del:k").status in (
            Status.NOT_FOUND, Status.FAILED)

    def test_delete_absent_key_not_found(self, loopback):
        client = loopback.connect()
        response, sim_us = client.delete_timed(OWNER_USER, b"wire:del:absent")
        assert response.status in (Status.NOT_FOUND, Status.FAILED)
        assert sim_us > 0


class TestRateLimitedComposition:
    def test_server_fronts_rate_limited_service(self, wire_env):
        limited = RateLimitedService(
            wire_env.service,
            RateLimitPolicy(requests_per_second=100.0, burst=2))
        with AsyncLoopbackTransport(
                limited, background=wire_env.background) as transport:
            client = transport.connect()
            for key in wire_env.keys[30:36]:
                client.get_timed(ATTACKER_USER, key)
            stats = client.stats()
            assert stats.stalled_requests > 0
            assert stats.total_stall_us > 0
            # Underlying service counters still flow through STATS.
            assert stats.requests >= 6


class TestPoolConstructionFailure:
    """A pool that cannot be built closes every socket it dialed."""

    @staticmethod
    def _assert_nothing_leaked(loopback, dialed):
        assert all(sock.fileno() == -1 for sock in dialed)
        deadline = time.monotonic() + 5.0
        while loopback.server._active and time.monotonic() < deadline:
            time.sleep(0.01)  # the loop notices each hang-up on its own time
        assert loopback.server._active == 0

    def test_bad_wall_rtt_leaks_no_connection(self, loopback):
        dialed = []

        def dial():
            dialed.append(loopback.dial())
            return dialed[-1]

        with pytest.raises(ConfigError):
            ConnectionPool(dial, 3, wall_rtt_s=-1.0)
        self._assert_nothing_leaked(loopback, dialed)

    def test_failing_dial_closes_the_earlier_connections(self, loopback):
        dialed = []

        def dial():
            if len(dialed) == 2:
                raise TransportError("third dial refused")
            dialed.append(loopback.dial())
            return dialed[-1]

        with pytest.raises(TransportError):
            ConnectionPool(dial, 3)
        assert len(dialed) == 2
        self._assert_nothing_leaked(loopback, dialed)
