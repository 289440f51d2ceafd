"""Facade batches equal their per-key loops, on twin environments.

Each facade's ``get_many``, ``get_many_timed`` and ``get_until_found``
promises what a loop of ``get``/``get_timed`` would do: the same
responses and per-key simulated times, the same clock after every call,
and the same counters in every layer — store, filters, cache, service,
rate limiter, detector and defense.  Two identically built environments
run the same traffic, one through the batch method and one through the
loop, and every observable is compared after each call.

The traffic is 16-key batches against the defense's re-score period of
64 observations, so a verdict can only change at a batch boundary: a
facade batch observes its keys after the wrapped batch returns, and a
flag raised mid-batch would take effect one batch later than in the
loop.  For the same reason ``noise`` mode's batches charge each key's
noise after the wrapped batch, where the loop charges it between keys:
the same charges summed in another order, so its clock and per-key
times agree to the last few bits rather than bit for bit.
"""

from __future__ import annotations

import pytest

from repro.common.rng import make_rng
from repro.filters import (
    BloomFilterBuilder,
    PrefixBloomFilterBuilder,
    SuRFBuilder,
)
from repro.system.defense import DefensePolicy, build_defended_service
from repro.system.detector import MonitoredService
from repro.system.ratelimit import RateLimitedService, RateLimitPolicy
from repro.system.responses import DISCLOSING
from repro.workloads import ATTACKER_USER, DatasetConfig, build_environment

BATCH = 16
BATCHES = 30

STORES = {
    "bloom": BloomFilterBuilder,
    "pbf": lambda: PrefixBloomFilterBuilder(prefix_len=2),
    "surf": lambda: SuRFBuilder(variant="real", suffix_bits=8),
}


#: ~50 us of simulated work per request against 20 us per token and a
#: burst of 8: most requests stall.
STALLING = RateLimitPolicy(requests_per_second=50_000.0, burst=8)


def _facade(kind, service):
    """The facade under test: (facade, its detector, its defense)."""
    if kind == "ratelimit":
        return RateLimitedService(service, STALLING), None, None
    if kind == "ratelimit_monitored":
        # The limiter over another layer: its batches run that layer's
        # getter per key, admitted first.
        monitored = MonitoredService(service)
        return (RateLimitedService(monitored, STALLING), monitored.detector,
                None)
    if kind == "monitored":
        monitored = MonitoredService(service)
        return monitored, monitored.detector, None
    defended = build_defended_service(
        service, policy=DefensePolicy(mode=kind, check_every=64))
    return defended, defended.detector, defended


FACADES = ("ratelimit", "ratelimit_monitored", "monitored", "observe",
           "throttle", "noise")


def _twin(store, kind):
    env = build_environment(DatasetConfig(
        num_keys=600, key_width=4, seed=31, filter_builder=STORES[store]()))
    return env, _facade(kind, env.service)


def _traffic(env):
    """Step-3-shaped batches: one hammered prefix, every 20th key stored
    (and unreadable by the attacker, so it discloses): some batches end
    early under ``get_until_found``, some run to their end."""
    rng = make_rng(32, "facade-twins")
    keys = [env.keys[(7 * i) % len(env.keys)] if i % 20 == 19
            else b"\x42\x43" + rng.random_bytes(2)
            for i in range(BATCH * BATCHES)]
    return [keys[i:i + BATCH] for i in range(0, len(keys), BATCH)]


def _loop(facade, method, keys):
    """The per-key loop ``method`` abbreviates."""
    if method == "get_many_timed":
        return [facade.get_timed(ATTACKER_USER, key) for key in keys]
    out = []
    for key in keys:
        out.append(facade.get(ATTACKER_USER, key))
        if method == "get_until_found" and out[-1].status in DISCLOSING:
            break
    return out


def _close(value):
    return pytest.approx(value, rel=1e-12, abs=1e-9)


def _observables(env, facade, detector, defense):
    db, stats = env.db, env.service.stats
    seen = {
        "clock": env.clock.now_us,
        "cost_rng": db._cost_rng.generator.getstate(),
        "db": dict(vars(db.stats)),
        "filters": [(t.filter.stats.point_queries, t.filter.stats.positives)
                    for level in db.version.levels for t in level],
        "cache": dict(vars(env.cache.stats)),
        "service": (stats.requests, stats.ok, stats.not_found,
                    stats.unauthorized),
    }
    if facade.limiter is not None:
        seen["stalls"] = (facade.limiter.stalled_requests,
                          facade.limiter.total_stall_us)
    if detector is not None:
        seen["verdict"] = detector.verdict(ATTACKER_USER)
    if defense is not None:
        seen["defense"] = defense.defense_snapshot()
    return seen


@pytest.mark.parametrize("method", ("get_many", "get_many_timed",
                                    "get_until_found"))
@pytest.mark.parametrize("kind", FACADES)
@pytest.mark.parametrize("store", sorted(STORES))
def test_facade_batch_equals_its_per_key_loop(store, kind, method):
    env_batch, (batch_facade, *batch_parts) = _twin(store, kind)
    env_loop, (loop_facade, *loop_parts) = _twin(store, kind)
    reassociated = kind == "noise" and method != "get_until_found"
    for keys in _traffic(env_batch):
        batched = getattr(batch_facade, method)(ATTACKER_USER, keys)
        looped = _loop(loop_facade, method, keys)
        expected = _observables(env_loop, loop_facade, *loop_parts)
        if reassociated:
            expected["clock"] = _close(expected["clock"])
            if method == "get_many_timed":
                looped = [(response, _close(elapsed))
                          for response, elapsed in looped]
        assert batched == looped
        assert _observables(env_batch, batch_facade, *batch_parts) == expected
    final = _observables(env_batch, batch_facade, *batch_parts)
    # The traffic reaches what the facade exists for.
    if kind in ("ratelimit", "ratelimit_monitored", "throttle"):
        assert final["stalls"][0] > 0
    if kind == "noise":
        assert final["defense"].noise_injections > 0
    if kind != "ratelimit":
        assert final["verdict"].flagged
