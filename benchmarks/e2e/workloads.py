"""The five e2e workloads (see README.md for why each exists).

A workload builds a fresh environment per pass (``setup``), runs one
measured pass against the program's public API (``run``), and closes
the environment (``teardown``).  Load is generated from the seed
before any timing starts; the program under test only ever sees the
generated keys and requests.  Every pass checks its own outputs —
wrong answers count as failed operations.
"""

from __future__ import annotations

import bisect
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.common.errors import ReproError
from repro.common.rng import make_rng
from repro.core import (
    AttackConfig,
    PrefixSiphoningAttack,
    QueryCounter,
    RangeAttackConfig,
    RangeDescentAttack,
    SurfAttackStrategy,
    TimingOracle,
    TimingRangeOracle,
    learn_cutoff,
    run_parallel_surf_attack,
)
from repro.filters import PrefixBloomFilterBuilder, SuRFBuilder
from repro.filters.surf import SuffixScheme, SurfVariant
from repro.lsm.db import LSMTree
from repro.lsm.options import LSMOptions
from repro.server.aio import AsyncLoopbackTransport
from repro.storage.clock import SimClock
from repro.storage.device import StorageDevice
from repro.system.defense import build_defended_service
from repro.system.responses import Status
from repro.workloads import (
    ATTACKER_USER,
    OWNER_USER,
    DatasetConfig,
    build_environment,
)
from repro.workloads.keygen import sha1_dataset

KEY_WIDTH = 5
SUFFIX_BITS = 8
#: Client threads / wire connections: never more than the sandbox's cores.
CLIENTS = 2
PING_SAMPLES = 200


@dataclass
class PassOutcome:
    """What one measured pass produced."""

    #: Denominator of ``ops_per_s`` (see README for each workload's op).
    ops: int
    #: Ops that failed, were refused, errored, or answered incorrectly.
    failed: int = 0
    #: Values that must repeat exactly, pass to pass and traced to untraced.
    golden: Dict[str, object] = field(default_factory=dict)
    #: Counts read from the layers' public stats objects.
    counts: Dict[str, float] = field(default_factory=dict)
    #: Client-observed wall latencies (us) by op type.
    latencies: Dict[str, List[float]] = field(default_factory=dict)
    #: Workload-specific end-to-end ratios (write_amp, space_amp).
    ratios: Dict[str, float] = field(default_factory=dict)
    #: Per-layer values the benchmark measures itself (the PING floor).
    stages: Dict[str, float] = field(default_factory=dict)
    #: Human-readable reasons for every failed gate.
    problems: List[str] = field(default_factory=list)


# ------------------------------------------------------------------ counts

def _compaction_counters(db: LSMTree) -> Tuple[int, int]:
    """(compactions run, bytes the background compactor wrote).

    ``LSMTree`` publishes neither.  Like the program's own STATS handler
    (``server.tcp``) this reads the private compactor -- by name, so that
    a refactor which renames it stops the benchmark: a fallback to 0
    would read as a gain in ``write_amp`` and ``lsm.compact.count``.
    Background merges write through a silent device view whose stats are
    its own; the bytes still land on the one device.
    """
    if db.options.background_compaction:
        return (db._bg_compactor.compactions_run,
                db._silent_device.stats.bytes_written)
    return db._compactor.compactions_run, 0


def raw_counts(db: LSMTree) -> Dict[str, float]:
    """Cumulative counters of one tree and its filters, cache and device."""
    stats = db.stats
    cache = db.cache.stats
    device = db.device.stats
    point = positives = ranges = bits = entries = 0
    for tables in db.version.levels:
        for table in tables:
            entries += table.num_entries
            if table.filter is not None:
                point += table.filter.stats.point_queries
                ranges += table.filter.stats.range_queries
                positives += (table.filter.stats.positives
                              + table.filter.stats.range_positives)
                bits += table.filter.memory_bits()
    compactions, background_bytes = _compaction_counters(db)
    return {
        "gets": stats.gets, "ranges": stats.range_queries,
        "memtable_hits": stats.memtable_hits,
        "filter_checks": stats.filter_checks,
        "filter_negatives": stats.filter_negatives,
        "table_reads": stats.table_reads, "flushes": stats.flushes,
        "view_seeks": stats.sorted_view_seeks,
        "view_segments": stats.view_rebuild_segments,
        "compactions": compactions,
        "filter_point": point, "filter_range": ranges,
        "filter_positives": positives,
        "filter_bits": bits, "entries": entries,
        "cache_hits": cache.hits, "cache_misses": cache.misses,
        "cache_evictions": cache.evictions,
        "decoded_hits": cache.decoded_hits,
        "decoded_misses": cache.decoded_misses,
        "device_reads": device.reads, "device_writes": device.writes,
        "bytes_written": device.bytes_written + background_bytes,
    }


#: Raw counters that describe state, not accumulated work.
_GAUGES = ("filter_bits", "entries")


def count_delta(after: Dict[str, float], before: Dict[str, float]
                ) -> Dict[str, float]:
    return {name: value if name in _GAUGES else value - before.get(name, 0)
            for name, value in after.items()}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_counts(raw: Dict[str, float]) -> Dict[str, float]:
    """The (=) per-layer metrics derivable from raw counters alone."""
    reads = raw["gets"] + raw["ranges"]
    lookups = raw["cache_hits"] + raw["cache_misses"]
    decoded = raw["decoded_hits"] + raw["decoded_misses"]
    return {
        "lsm.get.calls": raw["gets"],
        "lsm.range.calls": raw["ranges"],
        "lsm.filter_checks_per_get": _ratio(raw["filter_checks"], reads),
        "lsm.table_reads_per_get": _ratio(raw["table_reads"], reads),
        "lsm.memtable_hits": raw["memtable_hits"],
        "lsm.sorted_view_seeks": raw["view_seeks"],
        "lsm.view_rebuild_segments": raw["view_segments"],
        "lsm.flush.count": raw["flushes"],
        "lsm.compact.count": raw["compactions"],
        "filters.point.calls": raw["filter_point"],
        "filters.range.calls": raw["filter_range"],
        "filters.positive_rate": _ratio(
            raw["filter_checks"] - raw["filter_negatives"],
            raw["filter_checks"]),
        "filters.bits_per_key": _ratio(raw["filter_bits"], raw["entries"]),
        "storage.cache.lookups": lookups,
        "storage.cache.hit_rate": _ratio(raw["cache_hits"], lookups),
        "storage.cache.decoded_hit_rate": _ratio(raw["decoded_hits"],
                                                 decoded),
        "storage.cache.evictions": raw["cache_evictions"],
        "storage.device.reads": raw["device_reads"],
        "storage.device.writes": raw["device_writes"],
        "storage.device.bytes_written": raw["bytes_written"],
    }


def facade_depth(service) -> int:
    """Facades between the caller and the tree (the ``.service`` chain)."""
    depth = 1
    while getattr(service, "service", None) is not None:
        service = service.service
        depth += 1
    return depth


def _close_db(db: LSMTree, outcome: PassOutcome) -> None:
    db.close()
    outcome.counts["lsm.leaked_pins"] = (
        outcome.counts.get("lsm.leaked_pins", 0) + db.leaked_pins)
    if db.leaked_pins:
        outcome.problems.append(f"{db.leaked_pins} leaked version pins")
        outcome.failed += db.leaked_pins


# ----------------------------------------------------------------- workloads

class Workload:
    """One workload at one seed and size."""

    name = ""
    #: The op that ``ops_per_s`` counts, for the README and the result file.
    op = ""
    FULL: Dict[str, object] = {}
    SMOKE: Dict[str, object] = {}
    #: False when client threads race: golden values then cover only what
    #: is order-independent.
    deterministic = True
    #: Closed-loop clients (threads or wire connections) driving the pass.
    clients = 1
    #: Threads whose time outside any span is the benchmark's own.
    driver_threads: Tuple[str, ...] = ("MainThread",)
    #: Span names a traced pass of this workload must record calls of; a
    #: span gone silent would read as a gain, so it fails the run.
    expected_spans: Tuple[str, ...] = ()

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = seed
        self.smoke = smoke
        self.sizes = dict(self.SMOKE if smoke else self.FULL)

    def prepare(self) -> None:
        """Generate load that is not part of environment set-up."""

    def setup(self):
        raise NotImplementedError

    def run(self, ctx) -> PassOutcome:
        raise NotImplementedError

    def teardown(self, ctx, outcome: PassOutcome) -> None:
        raise NotImplementedError


def _surf_environment(seed: int, sizes: Dict[str, object]):
    return build_environment(DatasetConfig(
        num_keys=sizes["keys"], key_width=KEY_WIDTH, seed=seed,
        filter_builder=SuRFBuilder("real", SUFFIX_BITS, backend="louds"),
        cache_fraction=sizes["cache_fraction"]))


def _attack_outcome(env, extracted: List[bytes], queries: int,
                    before: Dict[str, float], service) -> PassOutcome:
    """Shared accounting of the three attack workloads."""
    stored = env.key_set
    wrong = [key for key in extracted if key not in stored]
    outcome = PassOutcome(ops=queries, failed=len(wrong))
    if wrong:
        outcome.problems.append(
            f"{len(wrong)} extracted keys are not in the store")
    outcome.golden = {
        "queries": queries,
        "keys_extracted": len(extracted),
        "sim_us": env.clock.now_us,
        "keys": sorted(key.hex() for key in extracted),
    }
    outcome.counts = layer_counts(count_delta(raw_counts(env.db), before))
    outcome.counts.update({
        "core.queries": queries,
        "core.queries_per_key": _ratio(queries, len(extracted)),
        "system.requests": env.service.stats.requests,
        "system.facade_depth": facade_depth(service),
        "system.stalled_requests": 0,
        "system.flagged_users": 0,
    })
    return outcome


_ATTACK_SPANS = (
    "core.attack", "core.learn", "core.probe", "system.get", "lsm.get",
    "lsm.charge", "filters.point", "storage.cache", "storage.device",
    "storage.background")
_SURF_SPANS = _ATTACK_SPANS + ("core.find_fpk", "core.id_prefix",
                               "core.extend", "core.wait")
_SERVER_SPANS = ("server.client", "server.codec", "server.execute",
                 "wait.socket")


class SurfPoint(Workload):
    """The paper's headline scenario: in-process SuRF timing attack."""

    name = "surf_point"
    op = "attacker query"
    expected_spans = _SURF_SPANS + ("core.classify",)
    FULL = {"keys": 50_000, "cache_fraction": 0.05, "learn_samples": 5_000,
            "candidates": 8_000, "rounds": 4, "wait_us": 100_000.0}
    SMOKE = dict(FULL, keys=8_000, learn_samples=1_000, candidates=2_000)

    def setup(self):
        return _surf_environment(self.seed, self.sizes)

    def run(self, env) -> PassOutcome:
        sizes = self.sizes
        before = raw_counts(env.db)
        counter = QueryCounter()
        learning = learn_cutoff(
            env.service, ATTACKER_USER, KEY_WIDTH,
            num_samples=sizes["learn_samples"], seed=self.seed,
            background=env.background, counter=counter)
        oracle = TimingOracle(
            env.service, ATTACKER_USER, cutoff_us=learning.cutoff_us,
            rounds=sizes["rounds"], background=env.background,
            wait_us=sizes["wait_us"])
        oracle.counter = counter
        strategy = SurfAttackStrategy(
            KEY_WIDTH, SuffixScheme(SurfVariant.REAL, SUFFIX_BITS),
            seed=self.seed)
        result = PrefixSiphoningAttack(oracle, strategy, AttackConfig(
            key_width=KEY_WIDTH, num_candidates=sizes["candidates"])).run()
        return _attack_outcome(
            env, [e.key for e in result.extracted], counter.total, before,
            env.service)

    def teardown(self, env, outcome: PassOutcome) -> None:
        _close_db(env.db, outcome)


@dataclass
class _Served:
    """An environment behind the asyncio core on a socketpair."""

    env: object
    service: object
    transport: AsyncLoopbackTransport
    clients: list
    pool: object = None


def _ping_p50_us(client) -> float:
    samples = []
    for _ in range(PING_SAMPLES):
        started = time.perf_counter()
        client.ping(b"e2e")
        samples.append((time.perf_counter() - started) * 1e6)
    samples.sort()
    return samples[len(samples) // 2]


class RemoteSurf(SurfPoint):
    """``surf_point``'s store, seeds and attack, driven over the wire."""

    name = "remote_surf"
    clients = CLIENTS
    expected_spans = _SURF_SPANS + ("core.shard",) + _SERVER_SPANS
    # Extension probes race on two connections: statuses (so keys and
    # query counts) repeat exactly, the interleaving of jitter draws --
    # so the simulated clock's last digits -- does not.
    deterministic = False

    def setup(self) -> _Served:
        env = _surf_environment(self.seed, self.sizes)
        transport = AsyncLoopbackTransport(env.service,
                                           background=env.background)
        pool = transport.pool(CLIENTS)
        return _Served(env, env.service, transport,
                       [pool.client(i) for i in range(CLIENTS)], pool)

    def run(self, ctx: _Served) -> PassOutcome:
        sizes = self.sizes
        env = ctx.env
        before = raw_counts(env.db)
        ping_us = _ping_p50_us(ctx.pool.primary)
        wire_before = ctx.pool.wall_stats().requests
        problem = None
        try:
            attack = run_parallel_surf_attack(
                ctx.pool, ATTACKER_USER, KEY_WIDTH,
                SuffixScheme(SurfVariant.REAL, SUFFIX_BITS),
                config=AttackConfig(key_width=KEY_WIDTH,
                                    num_candidates=sizes["candidates"]),
                seed=self.seed, rounds=sizes["rounds"],
                learn_samples=sizes["learn_samples"],
                wait_us=sizes["wait_us"])
            extracted = [e.key for e in attack.result.extracted]
            queries = attack.result.total_queries + sizes["learn_samples"]
        except ReproError as exc:
            # A typed error frame ends the attack: nothing was extracted.
            extracted, queries = [], sizes["learn_samples"]
            problem = f"wire attack failed: {exc!r}"
        outcome = _attack_outcome(env, extracted, queries, before,
                                  ctx.service)
        del outcome.golden["sim_us"]  # see ``deterministic`` above
        if problem is not None:
            outcome.failed += 1
            outcome.problems.append(problem)
        outcome.counts["server.requests"] = (
            ctx.pool.wall_stats().requests - wire_before)
        outcome.counts["server.errors"] = int(problem is not None)
        outcome.stages["server.ping_rtt_p50_us"] = ping_us
        return outcome

    def teardown(self, ctx: _Served, outcome: PassOutcome) -> None:
        ctx.pool.close()
        ctx.transport.close()
        _close_db(ctx.env.db, outcome)


class RangeDescent(Workload):
    """In-process range-descent attack: the range-read engine's workload."""

    name = "range_descent"
    op = "attacker query"
    expected_spans = _ATTACK_SPANS + ("core.classify", "system.range",
                                      "lsm.range", "filters.range")
    # One descent from the root is at the mercy of the first keys' trie
    # layout: by seed it spends its budget on range tests or on point
    # verification, 2.3x apart in cost per query.  So a pass runs the
    # descent below several seed-chosen first bytes, each on a fixed
    # query budget (not a key target), and extends only prefixes one
    # byte short of a key (256 point probes at most): whatever the seed,
    # a pass is the same number of queries in nearly the same mix.
    # Long suffix searches are surf_point's job.
    FULL = {"keys": 100_000, "learn_samples": 2_000, "wait_us": 50_000.0,
            "regions": 3, "region_queries": 8_000,
            "max_extension_queries": 256}
    SMOKE = dict(FULL, keys=12_000, learn_samples=500, region_queries=800)

    def setup(self):
        return build_environment(DatasetConfig(
            num_keys=self.sizes["keys"], key_width=KEY_WIDTH, seed=self.seed,
            filter_builder=SuRFBuilder("real", SUFFIX_BITS)))

    def run(self, env) -> PassOutcome:
        sizes = self.sizes
        before = raw_counts(env.db)
        learning = learn_cutoff(
            env.service, ATTACKER_USER, KEY_WIDTH,
            num_samples=sizes["learn_samples"], seed=self.seed,
            background=env.background)
        oracle = TimingRangeOracle(
            env.service, ATTACKER_USER, cutoff_us=learning.cutoff_us,
            background=env.background, wait_us=sizes["wait_us"])
        first_bytes = make_rng(self.seed, "range-regions").sample(
            range(256), sizes["regions"])
        keys: List[bytes] = []
        prefixes: List[bytes] = []
        for index, first in enumerate(first_bytes):
            result = RangeDescentAttack(oracle, RangeAttackConfig(
                key_width=KEY_WIDTH, start_prefix=bytes([first]),
                max_queries=oracle.total_queries + sizes["region_queries"],
                max_extension_queries=sizes["max_extension_queries"],
                seed=self.seed + 1 + index)).run()
            keys.extend(result.keys)
            prefixes.extend(result.prefixes_found)
        queries = oracle.total_queries + sizes["learn_samples"]
        outcome = _attack_outcome(env, keys, queries, before, env.service)
        outcome.golden["prefixes"] = sorted(p.hex() for p in prefixes)
        return outcome

    def teardown(self, env, outcome: PassOutcome) -> None:
        _close_db(env.db, outcome)


# ---------------------------------------------------------------- served_mix

GET, GET_MANY, PUT, PUT_MANY, DELETE = "get", "get_many", "put", "put_many", "delete"
READ_OPS = (GET, GET_MANY)
WRITE_OPS = (PUT, PUT_MANY, DELETE)
#: (op, cumulative share) — 45% get, 35% get_many, 15% put, 4% put_many,
#: 1% delete.
_MIX = ((GET, 0.45), (GET_MANY, 0.80), (PUT, 0.95), (PUT_MANY, 0.99),
        (DELETE, 1.0))
VALUE_BYTES = 64


class _ZipfKeys:
    """Zipf-ranked choice over the stored keys, with a share of misses."""

    def __init__(self, keys: List[bytes], rng, exponent: float,
                 miss_fraction: float) -> None:
        self._keys = list(keys)
        rng.shuffle(self._keys)  # hot ranks spread over the key space
        self._rng = rng
        self._miss_fraction = miss_fraction
        total = 0.0
        cumulative = []
        for rank in range(1, len(keys) + 1):
            total += 1.0 / rank ** exponent
            cumulative.append(total)
        self._cumulative = [c / total for c in cumulative]

    def pick(self) -> bytes:
        if self._rng.random() < self._miss_fraction:
            return self._rng.random_bytes(KEY_WIDTH)
        rank = bisect.bisect_left(self._cumulative, self._rng.random())
        return self._keys[min(rank, len(self._keys) - 1)]


class ServedMix(Workload):
    """Benign zipf read/write mix through the full facade chain and wire."""

    name = "served_mix"
    op = "wire request"
    deterministic = False
    clients = CLIENTS
    driver_threads = tuple(f"e2e-client-{i}" for i in range(CLIENTS))
    expected_spans = _SERVER_SPANS + (
        "system.get", "system.put", "system.detector", "lsm.get",
        "lsm.charge", "lsm.put", "lsm.put_many", "lsm.flush", "lsm.compact",
        "filters.point", "filters.build", "storage.cache", "storage.device")
    FULL = {"keys": 50_000, "cache_fraction": 0.5, "prefix_len": 3,
            "requests_per_client": 5_000, "zipf": 1.1, "miss_fraction": 0.05,
            "get_many": 16, "put_many": 32,
            # A pass writes ~1 MB: a 64 KiB memtable turns that into 19
            # flushes and 4 background compactions, where the default
            # 256 KiB would flush 4 times and never compact.
            "memtable_bytes": 64 * 1024}
    SMOKE = dict(FULL, keys=8_000, requests_per_client=700)

    def prepare(self) -> None:
        sizes = self.sizes
        stored = sha1_dataset(sizes["keys"], KEY_WIDTH, self.seed)
        self._stored = set(stored)
        self.requests: List[List[tuple]] = []
        #: Per client: key -> payload of every write that must survive.
        self.expected: List[Dict[bytes, bytes]] = []
        self.deleted: List[List[bytes]] = []
        self.user_bytes = 0
        for index in range(CLIENTS):
            rng = make_rng(self.seed, f"served-mix-client-{index}")
            picker = _ZipfKeys(stored, rng.spawn("zipf"), sizes["zipf"],
                               sizes["miss_fraction"])
            live: Dict[bytes, bytes] = {}
            order: List[bytes] = []
            deleted: List[bytes] = []
            requests = []
            serial = 0

            def fresh() -> Tuple[bytes, bytes]:
                nonlocal serial
                key = b"w%c" % index + serial.to_bytes(4, "big")
                serial += 1
                value = rng.random_bytes(VALUE_BYTES)
                live[key] = value
                order.append(key)
                self.user_bytes += len(key) + len(value)
                return key, value

            for _ in range(sizes["requests_per_client"]):
                draw = rng.random()
                op = next(name for name, share in _MIX if draw < share)
                if op == DELETE and not order:
                    op = PUT
                if op == GET:
                    requests.append((GET, picker.pick()))
                elif op == GET_MANY:
                    requests.append((GET_MANY, [picker.pick() for _ in
                                                range(sizes["get_many"])]))
                elif op == PUT:
                    requests.append((PUT, fresh()))
                elif op == PUT_MANY:
                    requests.append((PUT_MANY, [fresh() for _ in
                                                range(sizes["put_many"])]))
                else:
                    key = order.pop(rng.randrange(len(order)))
                    del live[key]
                    deleted.append(key)
                    requests.append((DELETE, key))
            self.requests.append(requests)
            self.expected.append(live)
            self.deleted.append(deleted)

    def setup(self) -> _Served:
        sizes = self.sizes
        env = build_environment(DatasetConfig(
            num_keys=sizes["keys"], key_width=KEY_WIDTH, seed=self.seed,
            filter_builder=PrefixBloomFilterBuilder(
                prefix_len=sizes["prefix_len"]),
            cache_fraction=sizes["cache_fraction"],
            background_compaction=True))
        env.db.options.memtable_size_bytes = sizes["memtable_bytes"]
        service = build_defended_service(env.service, mode="throttle")
        transport = AsyncLoopbackTransport(service,
                                           background=env.background)
        clients = [transport.connect() for _ in range(CLIENTS)]
        return _Served(env, service, transport, clients)

    def _client(self, client, requests, latencies, failures) -> None:
        """Closed loop: the next request goes out when the reply is in."""
        try:
            self._drive(client, requests, latencies, failures)
        except Exception as exc:  # a dead client thread must fail the run
            failures.append(f"client stopped: {exc!r}")

    def _drive(self, client, requests, latencies, failures) -> None:
        stored = self._stored
        clock = time.perf_counter
        calls = {GET: client.get, GET_MANY: client.get_many,
                 PUT_MANY: client.put_many, DELETE: client.delete}
        for op, arg in requests:
            started = clock()
            try:
                if op == PUT:
                    reply = client.put(OWNER_USER, arg[0], arg[1])
                else:
                    reply = calls[op](OWNER_USER, arg)
            except ReproError as exc:  # typed error frame or transport loss
                latencies[op].append((clock() - started) * 1e6)
                failures.append(f"{op}: {exc!r}")
                continue
            latencies[op].append((clock() - started) * 1e6)
            if op == GET:
                ok = _read_ok(reply, arg in stored)
            elif op == GET_MANY:
                ok = (len(reply) == len(arg)
                      and all(_read_ok(r, k in stored)
                              for r, k in zip(reply, arg)))
            elif op == PUT_MANY:
                ok = reply == len(arg)
            else:
                ok = reply.status is Status.OK
            if not ok:
                failures.append(f"{op}: wrong reply")

    def run(self, ctx: _Served) -> PassOutcome:
        env = ctx.env
        before = raw_counts(env.db)
        ping_us = _ping_p50_us(ctx.clients[0])
        latencies = [{op: [] for op in READ_OPS + WRITE_OPS}
                     for _ in range(CLIENTS)]
        failures: List[List[str]] = [[] for _ in range(CLIENTS)]
        threads = [threading.Thread(
            target=self._client, name=f"e2e-client-{i}",
            args=(ctx.clients[i], self.requests[i], latencies[i],
                  failures[i])) for i in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        ops = sum(len(requests) for requests in self.requests)
        outcome = PassOutcome(ops=ops)
        for client_failures in failures:
            outcome.failed += len(client_failures)
            outcome.problems.extend(client_failures[:5])
        outcome.latencies = {
            op: [s for per_client in latencies for s in per_client[op]]
            for op in READ_OPS + WRITE_OPS}
        wire = ctx.clients[0].stats()
        outcome.counts = layer_counts(
            count_delta(raw_counts(env.db), before))
        outcome.counts.update({
            "system.requests": wire.requests,
            "system.facade_depth": facade_depth(ctx.service),
            "system.stalled_requests": wire.stalled_requests,
            "system.flagged_users": wire.flagged_users,
            "server.requests": ops,
            "server.errors": sum(len(f) for f in failures),
        })
        if wire.flagged_users or wire.stalled_requests:
            outcome.failed += wire.flagged_users + wire.stalled_requests
            outcome.problems.append(
                f"benign traffic flagged={wire.flagged_users} "
                f"stalled={wire.stalled_requests}")
        outcome.stages["server.ping_rtt_p50_us"] = ping_us
        outcome.ratios["write_amp"] = _ratio(
            outcome.counts["storage.device.bytes_written"], self.user_bytes)
        # Racing clients reorder requests, so only order-free facts repeat.
        outcome.golden = {"requests": ops, "user_bytes": self.user_bytes}
        return outcome

    def teardown(self, ctx: _Served, outcome: PassOutcome) -> None:
        for client in ctx.clients:
            client.close()
        ctx.transport.close()
        # Every acknowledged write must be readable, every delete gone.
        service = ctx.env.service
        for live, deleted in zip(self.expected, self.deleted):
            keys = list(live)
            replies = service.get_many(OWNER_USER, keys)
            lost = sum(1 for key, reply in zip(keys, replies)
                       if reply.status is not Status.OK
                       or reply.value != live[key])
            undead = sum(1 for reply in service.get_many(OWNER_USER, deleted)
                         if reply.status is not Status.NOT_FOUND)
            if lost or undead:
                outcome.failed += lost + undead
                outcome.problems.append(
                    f"{lost} acknowledged writes lost, "
                    f"{undead} deleted keys still readable")
        _close_db(ctx.env.db, outcome)


def _read_ok(reply, stored: bool) -> bool:
    if stored:
        return reply.status is Status.OK and len(reply.value) == VALUE_BYTES
    return reply.status is Status.NOT_FOUND


# -------------------------------------------------------------------- ingest

@dataclass
class _IngestInputs:
    batches: List[List[Tuple[bytes, bytes]]]
    items: Dict[bytes, bytes]
    sorted_items: List[Tuple[bytes, bytes]]
    options: LSMOptions
    devices: List[StorageDevice]


class Ingest(Workload):
    """The write side of the tree alone: no server, no attack."""

    name = "ingest"
    op = "record written or loaded"
    expected_spans = (
        "lsm.put_many", "lsm.flush", "lsm.compact", "lsm.compact_all",
        "lsm.close", "lsm.reopen", "lsm.get", "lsm.charge", "lsm.bulk_load",
        "filters.build", "filters.point", "storage.cache", "storage.device")
    FULL = {"records": 43_008, "key_bytes": 6, "batch": 128,
            "readback_stride": 7}
    SMOKE = dict(FULL, records=6_000, readback_stride=5)

    def setup(self) -> _IngestInputs:
        # An empty tree costs nothing to build, so this workload's set-up
        # is its dataset generation: that is what setup_s reports here.
        sizes = self.sizes
        rng = make_rng(self.seed, "ingest")
        items: Dict[bytes, bytes] = {}
        while len(items) < sizes["records"]:
            items[rng.random_bytes(sizes["key_bytes"])] = rng.random_bytes(
                VALUE_BYTES)
        order = list(items.items())
        batches = [order[i:i + sizes["batch"]]
                   for i in range(0, len(order), sizes["batch"])]
        options = LSMOptions(
            filter_builder=SuRFBuilder("real", SUFFIX_BITS, backend="louds"),
            seed=self.seed)
        devices = [StorageDevice(SimClock(), rng=make_rng(
            self.seed, f"ingest-device-{i}")) for i in range(2)]
        return _IngestInputs(batches, items, sorted(order), options, devices)

    def run(self, ctx: _IngestInputs) -> PassOutcome:
        sizes = self.sizes
        records = len(ctx.items)
        user_bytes = sum(len(k) + len(v) for k, v in ctx.items.items())
        outcome = PassOutcome(ops=2 * records)
        device, bulk_device = ctx.devices
        clock = time.perf_counter

        db = LSMTree(ctx.options, clock=device.clock, device=device)
        writes: List[float] = []
        for batch in ctx.batches:
            started = clock()
            db.put_many(batch)
            writes.append((clock() - started) * 1e6)
        db.compact_all()
        raw = raw_counts(db)
        _close_db(db, outcome)
        live_bytes = sum(device.file_size(path)
                         for path in device.list_files())
        outcome.ratios["write_amp"] = _ratio(device.stats.bytes_written,
                                             user_bytes)
        outcome.ratios["space_amp"] = _ratio(live_bytes, user_bytes)

        reopened = LSMTree.reopen(device, ctx.options)
        reads: List[float] = []
        wrong = 0
        for key, value in ctx.sorted_items[::sizes["readback_stride"]]:
            started = clock()
            found = reopened.get(key)
            reads.append((clock() - started) * 1e6)
            wrong += found != value
        if wrong:
            outcome.failed += wrong
            outcome.problems.append(
                f"{wrong} acknowledged writes unreadable after reopen")
        reread = raw_counts(reopened)
        _close_db(reopened, outcome)

        bulk = LSMTree(ctx.options, clock=bulk_device.clock,
                       device=bulk_device)
        bulk.bulk_load(ctx.sorted_items)
        loaded = raw_counts(bulk)
        _close_db(bulk, outcome)

        # Each tree and each cache starts from zero; device counters are
        # cumulative per device, and the first two trees share one.  The
        # gauges describe the compacted tree the read-back ran on.
        total = {name: raw[name] + reread[name] + loaded[name]
                 for name in raw}
        for name in ("device_reads", "device_writes", "bytes_written"):
            total[name] = reread[name] + loaded[name]
        for name in _GAUGES:
            total[name] = reread[name]
        outcome.counts.update(layer_counts(total))
        outcome.latencies = {"put_many": writes, "get": reads}
        outcome.golden = {
            "sim_us": device.clock.now_us + bulk_device.clock.now_us,
            "bytes_written": total["bytes_written"],
            "flushes": total["flushes"],
            "compactions": total["compactions"],
            "live_bytes": live_bytes,
        }
        return outcome

    def teardown(self, ctx: _IngestInputs, outcome: PassOutcome) -> None:
        """Every tree was closed inside the pass (close is part of it)."""


WORKLOADS = {cls.name: cls for cls in
             (SurfPoint, RangeDescent, RemoteSurf, ServedMix, Ingest)}
