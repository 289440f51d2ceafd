"""Section 11, detect and respond: the online defense against a fleet.

With a :class:`~repro.system.defense.DefendedService` in the wire
server's serving path, an attacker *fleet* (independent users, each
running the full three-step SuRF attack) must lose extraction rate —
throttle mode by exploding the attack's simulated duration, noise mode
by drowning the timing side channel — while benign zipf clients keep
their throughput and never get flagged.  The ``off`` row is the same
fleet and the same benign traffic against the undefended server.

The attack cutoff is learned once on the undefended twin and shared:
the modeled adversary calibrated beforehand, so the defense is measured
against its strongest version.
"""

from __future__ import annotations

import bisect
import threading
import time
from typing import List

from repro.bench.report import ExperimentReport
from repro.common.rng import make_rng
from repro.core import AttackConfig, learn_cutoff, run_attacker_fleet
from repro.core.parallel import FleetOutcome
from repro.filters import SuRFBuilder
from repro.filters.surf import SuffixScheme, SurfVariant
from repro.server.aio import AsyncLoopbackTransport
from repro.server.client import RemoteBackground
from repro.system.defense import DefensePolicy, build_defended_service
from repro.workloads import (
    ATTACKER_USER,
    OWNER_USER,
    DatasetConfig,
    build_environment,
)

KEY_WIDTH = 5
DATASET_SEED = 2
ATTACK_SEED = 0
WAIT_US = 100_000
#: Benign traffic: zipf exponent over the stored keys, share of requests
#: for absent keys, keys per ``get_many``.
ZIPF_EXPONENT = 1.1
MISS_FRACTION = 0.05
BENIGN_BATCH = 32
DEFENSE_MODES = ("off", "throttle", "noise")


def _environment(num_keys: int):
    return build_environment(DatasetConfig(
        num_keys=num_keys, key_width=KEY_WIDTH, seed=DATASET_SEED,
        filter_builder=SuRFBuilder(variant="real", suffix_bits=8)))


class _ZipfPicker:
    """Zipf-ranked choice over the stored keys (plus a few misses)."""

    def __init__(self, keys: List[bytes], seed: int) -> None:
        self._keys = keys
        self._rng = make_rng(seed, "benign-zipf")
        self._width = len(keys[0])
        acc = 0.0
        cumulative = []
        for rank in range(1, len(keys) + 1):
            acc += 1.0 / rank ** ZIPF_EXPONENT
            cumulative.append(acc)
        self._cumulative = [c / acc for c in cumulative]

    def batch(self, size: int) -> List[bytes]:
        out = []
        for _ in range(size):
            if self._rng.random() < MISS_FRACTION:
                out.append(self._rng.random_bytes(self._width))
            else:
                rank = bisect.bisect_left(self._cumulative, self._rng.random())
                out.append(self._keys[min(rank, len(self._keys) - 1)])
        return out


def _benign_load(transport: AsyncLoopbackTransport, keys: List[bytes],
                 clients: int, total_requests: int) -> dict:
    """Concurrent legitimate traffic: zipf reads as the data owner."""
    per_client = max(1, total_requests // clients)
    ok_counts = [0] * clients
    errors: List[BaseException] = []

    def run_client(index: int) -> None:
        picker = _ZipfPicker(keys, seed=1000 + index)
        client = transport.connect()
        try:
            sent = 0
            while sent < per_client:
                size = min(BENIGN_BATCH, per_client - sent)
                responses = client.get_many(OWNER_USER, picker.batch(size))
                ok_counts[index] += sum(
                    1 for r in responses if r.status.name == "OK")
                sent += size
        except BaseException as exc:  # noqa: BLE001 — surfaced below
            errors.append(exc)
        finally:
            client.close()

    started = time.perf_counter()
    threads = [threading.Thread(target=run_client, args=(i,), daemon=True)
               for i in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    wall_s = time.perf_counter() - started
    requests = per_client * clients
    return {
        "benign_requests": requests,
        "benign_ok": sum(ok_counts),
        "benign_wall_s": wall_s,
        "benign_rps": requests / wall_s if wall_s > 0 else 0.0,
    }


def _fleet_keys(fleet: FleetOutcome, key_set) -> set:
    keys = set()
    for member in fleet.members:
        keys.update(e.key for e in member.result.extracted)
    return keys & key_set


def _defense_phase(mode: str, num_keys: int, candidates: int,
                   attackers: int, benign_clients: int,
                   benign_requests: int, cutoff_us: float) -> dict:
    """One mode: attacker fleet first, then benign traffic under the
    armed defense (flags are sticky, so collateral is measured at the
    defense's most aggressive state)."""
    env = _environment(num_keys)
    service = env.service
    if mode != "off":
        service = build_defended_service(
            env.service, policy=DefensePolicy(mode=mode, check_every=64))
    scheme = SuffixScheme(SurfVariant.REAL, 8)
    config = AttackConfig(key_width=KEY_WIDTH, num_candidates=candidates)
    with AsyncLoopbackTransport(service,
                                background=env.background) as transport:
        control = transport.connect()
        before = control.stats()
        fleet = run_attacker_fleet(
            transport.dial, attackers, KEY_WIDTH, scheme,
            cutoff_us=cutoff_us, config=config, seed=ATTACK_SEED,
            rounds=4, wait_us=WAIT_US, chunk_size=256, batch_limit=64)
        after_attack = control.stats()
        benign = _benign_load(transport, env.keys, benign_clients,
                              benign_requests)
        after_benign = control.stats()
        control.close()

    extracted = _fleet_keys(fleet, env.key_set)
    attack_sim_s = (after_attack.sim_now_us - before.sim_now_us) / 1e6
    queries = fleet.total_queries
    return dict(
        mode=mode,
        **benign,
        keys_extracted=len(extracted),
        attacker_queries=queries,
        attack_sim_s=attack_sim_s,
        keys_per_sim_min=(len(extracted) / (attack_sim_s / 60)
                          if attack_sim_s > 0 else 0.0),
        keys_per_10k_queries=(len(extracted) * 10_000 / queries
                              if queries else 0.0),
        flagged_users=after_attack.flagged_users,
        throttle_escalations=after_attack.throttle_escalations,
        noise_injections=after_benign.noise_injections,
        attacker_stalled=after_attack.stalled_requests,
        benign_flagged_delta=(after_benign.flagged_users
                              - after_attack.flagged_users),
        benign_stall_delta=(after_benign.stalled_requests
                            - after_attack.stalled_requests),
        fleet_wall_s=fleet.wall_seconds,
    )


def _learn_shared_cutoff(num_keys: int, samples: int) -> float:
    """Calibrate on an undefended twin: the attacker's best-case cutoff."""
    env = _environment(num_keys)
    with AsyncLoopbackTransport(env.service,
                                background=env.background) as transport:
        client = transport.connect()
        learning = learn_cutoff(client, ATTACKER_USER, KEY_WIDTH,
                                num_samples=samples, seed=ATTACK_SEED,
                                background=RemoteBackground(client))
        client.close()
    return learning.cutoff_us


def run(num_keys: int = 8_000, candidates: int = 12_000,
        learn_samples: int = 6_000, benign_clients: int = 8,
        defense_benign_requests: int = 2_000,
        attackers: int = 2) -> ExperimentReport:
    """The three defense modes against the same fleet."""
    cutoff_us = _learn_shared_cutoff(num_keys, learn_samples)
    rows = [_defense_phase(mode, num_keys, candidates, attackers,
                           benign_clients, defense_benign_requests,
                           cutoff_us)
            for mode in DEFENSE_MODES]
    by_mode = {row["mode"]: row for row in rows}
    off = by_mode["off"]

    def rate_ratio(mode: str, metric: str) -> float:
        return (by_mode[mode][metric] / off[metric]) if off[metric] else 0.0

    return ExperimentReport(
        experiment="defense",
        title="Online siphoning defense against an attacker fleet",
        paper_claim=("Section 11: a deployment can detect the attack's "
                     "request signature and respond — rate limiting slows "
                     "the attack down; perturbing response times destroys "
                     "the timing channel outright."),
        scale_note=(f"{num_keys:,} keys of {KEY_WIDTH} bytes served by the "
                    f"asyncio core; {attackers} concurrent attackers x "
                    f"{candidates:,} candidates per defense mode, then "
                    f"{benign_clients} benign zipf clients; shared "
                    f"pre-learned cutoff {cutoff_us:.1f} us."),
        rows=rows,
        summary={
            "cutoff_us": cutoff_us,
            "off_keys_extracted": off["keys_extracted"],
            "throttle_time_rate_ratio": rate_ratio("throttle",
                                                   "keys_per_sim_min"),
            "noise_query_rate_ratio": rate_ratio("noise",
                                                 "keys_per_10k_queries"),
            "throttle_benign_rps_ratio": rate_ratio("throttle", "benign_rps"),
            "noise_benign_rps_ratio": rate_ratio("noise", "benign_rps"),
            "benign_flagged": max(r["benign_flagged_delta"] for r in rows),
        },
    )
