"""Event-loop server behavior: gate unit contract, scale, lifecycle, defense.

Request/response behavior over the loopback transport lives in
``test_client_server.py`` and the real-TCP lifecycle in ``test_tcp.py``;
this file holds what is specific to the event loop — the gate's
coroutine contract, connection counts in the hundreds, and use after
``stop()``.
"""

from __future__ import annotations

import asyncio
import gc
import socket
import warnings

import pytest

from repro.common.errors import ConfigError, RemoteError, TransportError
from repro.common.rng import make_rng
from repro.filters import SuRFBuilder
from repro.server import (
    AsyncKVWireServer,
    AsyncLoopbackTransport,
    AsyncOrderedGate,
)
from repro.server.protocol import ErrorCode
from repro.system.defense import DefensePolicy, build_defended_service
from repro.system.responses import Response, Status
from repro.workloads import (
    ATTACKER_USER,
    DatasetConfig,
    build_environment,
)


class TestAsyncOrderedGate:
    """Unit contract of the one ordered gate (timeout and eviction
    behaviour: ``test_gate_regressions.py``)."""

    def test_in_order_admits_immediately(self):
        async def scenario():
            gate = AsyncOrderedGate(timeout_s=1.0)
            for seq in range(3):
                await gate.admit(0x1, seq)
                gate.complete(0x1)

        asyncio.run(scenario())

    def test_out_of_order_waits_for_predecessor(self):
        async def scenario():
            gate = AsyncOrderedGate(timeout_s=5.0)
            await gate.admit(0x1, 0)
            second = asyncio.ensure_future(gate.admit(0x1, 1))
            await asyncio.sleep(0.05)
            assert not second.done()  # held until seq 0 completes
            gate.complete(0x1)
            await asyncio.wait_for(second, 1.0)

        asyncio.run(scenario())


class TestAioServing:
    def test_hundreds_of_concurrent_connections(self, loopback):
        held = [loopback.connect() for _ in range(200)]
        for i, client in enumerate(held):
            payload = b"c%d" % i
            assert client.ping(payload) == payload
        assert loopback.server.peak_connections >= 200
        for client in held:
            client.close()

    def test_stop_is_idempotent_and_refuses_restart(self, wire_env):
        transport = AsyncLoopbackTransport(wire_env.service,
                                           background=wire_env.background)
        transport.close()
        transport.close()  # second stop is a no-op
        with pytest.raises(ConfigError):
            transport.server.start()


class TestUseAfterStop:
    """A closed transport fails its dialers with a typed error.

    Regression: ``attach`` used to schedule onto the closed loop, so
    ``dial``/``connect``/``pool`` raised a bare ``RuntimeError: Event
    loop is closed`` and leaked both socketpair ends plus an un-awaited
    coroutine.
    """

    def test_dial_after_close_fails_typed_and_leaks_nothing(self, wire_env):
        transport = AsyncLoopbackTransport(wire_env.service,
                                           background=wire_env.background)
        transport.close()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            client = transport.connect()
            with pytest.raises(TransportError):
                client.ping()
            client.close()
            pool = transport.pool(2)
            with pytest.raises(TransportError):
                pool.primary.ping()
            pool.close()
            del client, pool
            gc.collect()
        leaks = [w for w in caught
                 if issubclass(w.category, (ResourceWarning, RuntimeWarning))]
        assert leaks == []

    def test_attach_before_start_closes_the_socket(self, wire_env):
        server = AsyncKVWireServer(wire_env.service)
        client_end, server_end = socket.socketpair()
        server.attach(server_end)
        assert server_end.fileno() == -1
        assert client_end.recv(1) == b""  # peer sees EOF, not a hang
        client_end.close()


class TestOversizedResponse:
    """Regression: a batch whose answer outgrows the frame cap used to
    raise out of ``encode_frame`` inside the connection's coroutine,
    which closed the connection: the client saw an untyped
    ``TransportError: connection closed``, its next request a broken
    pipe, and the loop logged an unretrieved task exception."""

    @pytest.mark.wire_deadline(120)
    def test_typed_error_then_the_connection_keeps_serving(self):
        env = build_environment(DatasetConfig(
            num_keys=200, key_width=4, seed=6,
            filter_builder=SuRFBuilder(variant="real", suffix_bits=8)))
        value = b"\x5a" * (1 << 20)
        keys = [b"big-%02d" % i for i in range(17)]
        with AsyncLoopbackTransport(env.service,
                                    background=env.background) as transport:
            client = transport.connect()
            for key in keys:  # each PUT frame alone fits under the cap
                assert client.put(ATTACKER_USER, key, value).ok
            with pytest.raises(RemoteError) as raised:
                client.get_many(ATTACKER_USER, keys)
            assert raised.value.code == ErrorCode.PROTOCOL
            assert "frame cap" in str(raised.value)
            assert client.ping(b"still here") == b"still here"
            assert client.get_many(ATTACKER_USER, keys[:2]) == [
                Response(Status.OK, value)] * 2
            client.close()


class TestAioDefendedStats:
    @pytest.mark.wire_deadline(120)
    def test_defense_counters_surface_through_stats(self):
        env = build_environment(DatasetConfig(
            num_keys=300, key_width=4, seed=5,
            filter_builder=SuRFBuilder(variant="real", suffix_bits=8)))
        defended = build_defended_service(
            env.service, policy=DefensePolicy(mode="noise", check_every=64))
        with AsyncLoopbackTransport(defended,
                                    background=env.background) as transport:
            client = transport.connect()
            assert client.stats().flagged_users == 0
            rng = make_rng(9, "aio-guesses")
            keys = [rng.random_bytes(4) for _ in range(384)]
            for start in range(0, len(keys), 64):
                client.get_many(ATTACKER_USER, keys[start:start + 64])
            stats = client.stats()
            client.close()
        assert stats.flagged_users == 1
        assert stats.noise_injections > 0
        assert stats.throttle_escalations == 0
