"""Names, units and bounds of everything the e2e benchmark reports.

``BENCHMARK.json`` at the repository root mirrors :data:`END_TO_END`
and :data:`PER_LAYER` (a self-test keeps them equal); ``compare.py``
takes its bounds from here.  README.md is the glossary.
"""

from __future__ import annotations

#: Gated end-to-end metrics, the ones ``BENCHMARK.json`` registers: every
#: workload reports every one of these, none can be zero, and each is
#: steady from seed to seed.
#: (name, unit, better, bound as a share of the parent's median)
#: A bound is at least three times the widest inter-quartile spread seen
#: over ten seeds on any workload, and at most 0.25 (README, "Steadiness").
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "op/s", "higher", 0.25),
    ("cpu_us_per_op", "us", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
)

#: The issue's other nine end-to-end metrics exist on some workloads
#: only, are zero when all is well (``fail_frac``), or move with the seed
#: (``wall_s``), so the driver cannot gate them: every result file has
#: them, ``compare.py`` judges them between runs of one seed, and the
#: traced record carries them as ``client.*``.  Timings are bounded like
#: the gated timings; the exact ratios keep the issue's bounds.
WORKLOAD_END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("read_p50_us", "us", "lower", 0.25),
    ("read_p99_us", "us", "lower", 0.25),
    ("write_p50_us", "us", "lower", 0.25),
    ("write_p99_us", "us", "lower", 0.25),
    ("stall_frac", "ratio", "lower", 0.05),
    ("write_amp", "ratio", "lower", 0.10),
    ("space_amp", "ratio", "lower", 0.02),
    ("fail_frac", "ratio", "lower", 0.0),
)

#: Metrics whose bound is an absolute difference, not a share of the base.
ABSOLUTE_BOUNDS = ("stall_frac", "fail_frac")
#: ``write_amp`` is exact under synchronous compaction.
WRITE_AMP_BOUND = {"ingest": 0.02, "served_mix": 0.10}

#: Per-layer metrics of the traced run: (name, unit, better).
#: ``(=)`` in README marks those read from the layers' own counters.
PER_LAYER = (
    # core
    ("core.queries", "count", "lower"),
    ("core.queries_per_key", "count", "lower"),
    ("core.learn.s", "s", "lower"),
    ("core.find_fpk.s", "s", "lower"),
    ("core.id_prefix.s", "s", "lower"),
    ("core.extend.s", "s", "lower"),
    ("core.classify.calls", "count", "lower"),
    ("core.classify.self_s", "s", "lower"),
    ("core.shard.self_s", "s", "lower"),
    ("core.self_s", "s", "lower"),
    # system
    ("system.requests", "count", "lower"),
    ("system.facade_depth", "count", "lower"),
    ("system.get.self_s", "s", "lower"),
    ("system.range.self_s", "s", "lower"),
    ("system.put.self_s", "s", "lower"),
    ("system.detector.self_s", "s", "lower"),
    ("system.stalled_requests", "count", "lower"),
    ("system.flagged_users", "count", "lower"),
    ("system.self_s", "s", "lower"),
    # lsm
    ("lsm.get.calls", "count", "lower"),
    ("lsm.get.self_s", "s", "lower"),
    ("lsm.range.calls", "count", "lower"),
    ("lsm.range.self_s", "s", "lower"),
    ("lsm.charge.calls", "count", "lower"),
    ("lsm.charge.self_s", "s", "lower"),
    ("lsm.filter_checks_per_get", "ratio", "lower"),
    ("lsm.table_reads_per_get", "ratio", "lower"),
    ("lsm.memtable_hits", "count", "higher"),
    ("lsm.sorted_view_seeks", "count", "higher"),
    ("lsm.view_rebuild_segments", "count", "lower"),
    ("lsm.put_many.s", "s", "lower"),
    ("lsm.flush.count", "count", "lower"),
    ("lsm.flush.s", "s", "lower"),
    ("lsm.compact.count", "count", "lower"),
    ("lsm.compact.s", "s", "lower"),
    ("lsm.compact_all.s", "s", "lower"),
    ("lsm.bulk_load.s", "s", "lower"),
    ("lsm.reopen.s", "s", "lower"),
    ("lsm.leaked_pins", "count", "lower"),
    ("lsm.self_s", "s", "lower"),
    # filters
    ("filters.point.calls", "count", "lower"),
    ("filters.point.self_s", "s", "lower"),
    ("filters.range.calls", "count", "lower"),
    ("filters.range.self_s", "s", "lower"),
    ("filters.positive_rate", "ratio", "lower"),
    ("filters.build.s", "s", "lower"),
    ("filters.bits_per_key", "ratio", "lower"),
    ("filters.self_s", "s", "lower"),
    # storage
    ("storage.cache.lookups", "count", "lower"),
    ("storage.cache.hit_rate", "ratio", "higher"),
    ("storage.cache.decoded_hit_rate", "ratio", "higher"),
    ("storage.cache.evictions", "count", "lower"),
    ("storage.cache.self_s", "s", "lower"),
    ("storage.device.reads", "count", "lower"),
    ("storage.device.writes", "count", "lower"),
    ("storage.device.bytes_written", "count", "lower"),
    ("storage.device.self_s", "s", "lower"),
    ("storage.background.self_s", "s", "lower"),
    ("storage.self_s", "s", "lower"),
    # server
    ("server.requests", "count", "lower"),
    ("server.frames", "count", "lower"),
    ("server.bytes", "count", "lower"),
    ("server.errors", "count", "lower"),
    ("server.codec.self_s", "s", "lower"),
    ("server.execute.self_s", "s", "lower"),
    ("server.client.self_s", "s", "lower"),
    ("server.socket_wait.s", "s", "lower"),
    ("server.ping_rtt_p50_us", "us", "lower"),
    ("server.wire_us_per_req", "us", "lower"),
    ("server.self_s", "s", "lower"),
    # the benchmark itself
    ("trace.overhead_x", "x", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("untraced.self_s", "s", "lower"),
    # the benchmark's client, on the untraced reference pass of the
    # traced run (what the workload-only end-to-end metrics read there)
    ("client.wall_s", "s", "lower"),
    ("client.read_p50_us", "us", "lower"),
    ("client.read_p99_us", "us", "lower"),
    ("client.write_p50_us", "us", "lower"),
    ("client.write_p99_us", "us", "lower"),
    ("client.stall_frac", "ratio", "lower"),
    ("client.write_amp", "ratio", "lower"),
    ("client.space_amp", "ratio", "lower"),
    ("client.fail_frac", "ratio", "lower"),
)

WORKLOAD_WHY = (
    ("surf_point",
     "in-process SuRF timing attack (the paper's scenario), store 20x the "
     "page cache: core, system, lsm point reads, filters.surf, storage; no "
     "wire, no writes"),
    ("range_descent",
     "in-process range-descent attack on 100k keys: range queries via the "
     "sorted view and range filters, cache churned between oracle rounds; "
     "point-path changes should not show here"),
    ("remote_surf",
     "surf_point's store, seed and attack over the asyncio wire with 2 "
     "connections: the difference to surf_point is the cost of server"),
    ("served_mix",
     "benign zipf read/write mix, hot set fits the cache, through 3 "
     "facades and the wire with background compaction; Bloom/PBF filters"),
    ("ingest",
     "write side alone: put_many with WAL, flush, sync compaction, "
     "compact_all, reopen, read-back, bulk_load; no core, system or server"),
)

RUN_SECONDS = 16
