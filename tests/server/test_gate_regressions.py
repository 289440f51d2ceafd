"""Regression tests for the bugfix sweep: gate eviction, typed order
timeouts, and stats aggregation over arbitrary facade stacks."""

from __future__ import annotations

import asyncio

import pytest

from repro.common.errors import (
    ConfigError,
    OrderTimeoutError,
    ProtocolError,
)
from repro.common.rng import make_rng
from repro.filters import SuRFBuilder
from repro.server import AsyncLoopbackTransport, AsyncOrderedGate, protocol
from repro.server.protocol import ErrorCode
from repro.server.tcp import collect_stats, map_dispatch_error
from repro.system.defense import build_defended_service
from repro.system.detector import MonitoredService
from repro.system.ratelimit import RateLimitedService, RateLimitPolicy
from repro.system.responses import Status
from repro.workloads import (
    ATTACKER_USER,
    OWNER_USER,
    DatasetConfig,
    build_environment,
)


def _env(num_keys=300):
    return build_environment(DatasetConfig(
        num_keys=num_keys, key_width=4, seed=5,
        filter_builder=SuRFBuilder(variant="real", suffix_bits=8),
    ))


class TestOrderedGateEviction:
    """The stream table is LRU-bounded, not FIFO-bounded.

    The old FIFO eviction dropped the *oldest-inserted* stream, so a
    busy long-lived connection was evicted by a parade of one-shot
    streams — its sequence state reset to zero and its next ordered
    frame deadlocked until the order timeout.
    """

    def test_busy_stream_survives_one_shot_churn(self):
        async def scenario():
            gate = AsyncOrderedGate(timeout_s=0.25, max_streams=4)
            busy = 0x7
            await gate.admit(busy, 0)
            gate.complete(busy)
            # 12 one-shot streams against a table of 4: under FIFO the
            # busy stream is evicted on the first overflow; under LRU
            # every admit/complete refreshes it, so it survives the churn.
            for i, nonce in enumerate(range(0x100, 0x10C)):
                await gate.admit(nonce, 0)
                gate.complete(nonce)
                await gate.admit(busy, i + 1)  # OrderTimeoutError if reset
                gate.complete(busy)

        asyncio.run(scenario())

    def test_idle_one_shot_streams_are_evicted(self):
        async def scenario():
            gate = AsyncOrderedGate(timeout_s=0.25, max_streams=4)
            for nonce in range(0x100, 0x10C):
                await gate.admit(nonce, 0)
                gate.complete(nonce)
            # The earliest one-shot was evicted, so its stream restarts
            # at seq 0 — an un-evicted stream would expect seq 1 and
            # time out.
            await gate.admit(0x100, 0)
            gate.complete(0x100)

        asyncio.run(scenario())

    def test_gate_needs_at_least_one_stream(self):
        with pytest.raises(ConfigError):
            AsyncOrderedGate(timeout_s=1.0, max_streams=0)


class TestTypedOrderTimeout:
    def test_admit_raises_typed_error(self):
        async def scenario():
            gate = AsyncOrderedGate(timeout_s=0.05)
            with pytest.raises(OrderTimeoutError):
                await gate.admit(0x1, 5)  # seq 0 never arrives

        asyncio.run(scenario())
        # Still a ProtocolError for coarse-grained handlers.
        assert issubclass(OrderTimeoutError, ProtocolError)

    def test_timed_out_waiter_leaves_no_stream_state(self):
        async def scenario():
            gate = AsyncOrderedGate(timeout_s=0.05)
            with pytest.raises(OrderTimeoutError):
                await gate.admit(0x1, 5)
            assert gate._waiters == {}
            # The stream is not wedged: its real turn is still admitted.
            await gate.admit(0x1, 0)
            gate.complete(0x1)

        asyncio.run(scenario())

    def test_error_mapping_dispatches_on_type_not_text(self):
        frame = map_dispatch_error(7, OrderTimeoutError("seq=3 timed out"))
        code, _ = protocol.decode_error(frame.payload)
        assert code == ErrorCode.ORDER_TIMEOUT
        # The regression: a decode error whose message merely mentions
        # "timed out" used to be misrouted to ORDER_TIMEOUT.
        frame = map_dispatch_error(
            8, ProtocolError("connection timed out mid-header"))
        code, _ = protocol.decode_error(frame.payload)
        assert code == ErrorCode.PROTOCOL


class TestStatsOverStacks:
    """collect_stats walks the .service chain — no fixed unwrap depth."""

    def _flood(self, service, user, count=320, seed=9):
        rng = make_rng(seed, "stack-guesses")
        keys = [rng.random_bytes(4) for _ in range(count)]
        for start in range(0, count, 64):
            service.get_many(user, keys[start:start + 64])

    def test_monitored_over_ratelimited_counts_everything(self):
        env = _env()
        stack = MonitoredService(RateLimitedService(
            env.service, RateLimitPolicy(requests_per_second=1e5, burst=2)))
        self._flood(stack, ATTACKER_USER, count=64)
        stats = collect_stats(stack)
        assert stats.requests >= 64
        assert stats.stalled_requests > 0  # burst of 2 stalls the flood
        assert stats.sim_now_us == env.clock.now_us

    def test_defended_stack_exposes_decision_counters(self):
        env = _env()
        defended = build_defended_service(env.service, mode="observe")
        self._flood(defended, ATTACKER_USER)
        stats = collect_stats(defended)
        assert stats.flagged_users == 1
        assert stats.throttle_escalations == 0

    def test_stats_opcode_over_wire_on_monitored_stack(self):
        """The old server unwrapped a fixed number of layers; a monitored
        rate-limited stack broke STATS over the wire."""
        env = _env()
        stack = MonitoredService(RateLimitedService(
            env.service, RateLimitPolicy(requests_per_second=1e6, burst=64)))
        with AsyncLoopbackTransport(
                stack, background=env.background) as transport:
            client = transport.connect()
            client.get_many(OWNER_USER, env.keys[:32])
            stats = client.stats()
            client.close()
        assert stats.requests >= 32
        assert stats.ok >= 32


class TestMonitoredSurfaceOverWire:
    """Every opcode flows through MonitoredService and feeds the detector."""

    def test_write_and_batch_opcodes_are_observed(self):
        env = _env()
        monitored = MonitoredService(env.service)
        with AsyncLoopbackTransport(
                monitored, background=env.background) as transport:
            client = transport.connect()
            assert client.put(OWNER_USER, b"mw:a", b"v").status is Status.OK
            count, _ = client.put_many_timed(
                OWNER_USER, [(b"mw:%d" % i, b"v") for i in range(10)])
            assert count == 10
            responses = client.get_many(OWNER_USER,
                                        [b"mw:a", b"mw:3", b"mw:absent"])
            assert [r.status for r in responses] == [
                Status.OK, Status.OK, Status.NOT_FOUND]
            assert client.delete(OWNER_USER, b"mw:a").status is Status.OK
            client.close()
        verdict = monitored.detector.verdict(OWNER_USER)
        assert verdict.requests_seen == 1 + 10 + 3 + 1
