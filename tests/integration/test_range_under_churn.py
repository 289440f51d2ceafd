"""Range-read equivalence under churn: a frozen snapshot is a quiesced store.

The range-side companion of ``test_concurrent_attack_equivalence``: a
batch of ``range_query``/``scan`` calls against a *snapshot* of the store
while a writer stream and background compaction churn the live tree must
return the same entries and observe **bit-identical** simulated time as
the same batch against the same snapshot of an untouched twin.  Installs
happening under the snapshot may not reach the pinned version's tables,
clock, RNG streams or page cache.

A third twin on an unmappable device (``reference.unmappable``) answers
the same batch with every block decoded from a device read instead of
the mapped region: same entries, clock and cache traffic.
"""

import dataclasses
import random
import threading
import time

from reference.unmappable import UnmappableDevice

from repro.filters import SuRFBuilder
from repro.workloads import OWNER_USER, DatasetConfig, build_environment
from repro.workloads import datasets

WIDTH = 5


def build_env():
    return build_environment(DatasetConfig(
        num_keys=3000, key_width=WIDTH, seed=31,
        filter_builder=SuRFBuilder(variant="real", suffix_bits=8),
        background_compaction=True,
    ))


def range_workload(snap):
    """A deterministic mix of bounded windows, scans and limit reads."""
    rng = random.Random(17)
    trace = []
    for _ in range(150):
        low = bytes(rng.randrange(256) for _ in range(WIDTH))
        trace.append(snap.range_query(low, low + b"\xff",
                                      limit=rng.choice([None, 1, 8])))
        if rng.random() < 0.3:
            trace.append(snap.scan(low[:2]))
    trace.append(snap.range_query(b"\x00" * WIDTH, b"\xff" * WIDTH))
    return trace, snap.clock.now_us


def churn(env, stop, failures):
    try:
        batch_id = 0
        while not stop.is_set():
            items = [(b"churn-%06d" % ((batch_id * 64 + i) % 4096),
                      b"x" * 64) for i in range(64)]
            env.service.put_many(OWNER_USER, items)
            batch_id += 1
    except BaseException as exc:  # pragma: no cover - failure path
        failures.append(exc)


class TestRangeUnderChurn:
    def test_snapshot_ranges_bit_identical_to_quiesced(self, monkeypatch):
        # Quiesced twin: same build, same snapshot point, no churn.
        env_q = build_env()
        snap_q = env_q.db.snapshot()
        trace_q, clock_q = range_workload(snap_q)
        assert snap_q.stats.range_queries > 150
        assert snap_q.stats.table_reads > 0
        cache_q = dataclasses.astuple(snap_q.cache.stats)
        snap_q.close()
        env_q.db.close()

        # Unmappable twin: no mappings, so every block decodes from a
        # device read — same entries, clock and cache traffic.
        with monkeypatch.context() as patch:
            patch.setattr(datasets, "StorageDevice", UnmappableDevice)
            env_c = build_env()
        snap_c = env_c.db.snapshot()
        trace_c, clock_c = range_workload(snap_c)
        assert dataclasses.astuple(snap_c.stats) == \
            dataclasses.astuple(snap_q.stats)
        assert (trace_c, clock_c) == (trace_q, clock_q)
        assert dataclasses.astuple(snap_c.cache.stats) == cache_q
        snap_c.close()
        env_c.db.close()

        # Live run: snapshot first, then range-read it while the writer
        # drives flushes and background compactions underneath.
        env_l = build_env()
        snap_l = env_l.db.snapshot()
        stop = threading.Event()
        failures = []
        writer = threading.Thread(target=churn,
                                  args=(env_l, stop, failures))
        writer.start()
        try:
            trace_l, clock_l = range_workload(snap_l)
            # The range batch is quick; keep the writer running until the
            # background compactor has demonstrably churned the tree,
            # then range-read the snapshot once more mid-churn.
            deadline = time.monotonic() + 60
            while (env_l.db._bg_compactor.compactions_run == 0
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            trace_post, _ = range_workload(snap_l)
        finally:
            stop.set()
            writer.join(timeout=120)
        assert not writer.is_alive() and not failures, failures
        assert trace_post == trace_l

        # The live tree actually churned underneath the snapshot.
        assert env_l.db._bg_compactor.compactions_run > 0, \
            "churn never triggered background compaction"
        assert env_l.db.get(b"churn-000000") is not None

        # Identical entries, bit-identical simulated time, and the
        # snapshot really served from its own frozen world: churn keys
        # are invisible to every range it returned.
        assert trace_l == trace_q
        assert clock_l == clock_q
        assert all(not key.startswith(b"churn-")
                   for result in trace_l for key, _ in result)
        assert snap_l.range_query(b"churn-", b"churn-\xff") == []

        snap_l.close()
        env_l.db.close()
        assert env_l.db.leaked_pins == 0
