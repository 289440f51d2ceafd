"""MVCC concurrency torture: pinned readers vs racing installs.

Three layers of proof that the copy-on-install version set gives readers
a consistent world while flushes and compactions race them:

* **thread torture** — reader threads hammer ``get``/``get_many``/
  snapshots against a dict oracle while a writer thread overwrites keys
  and drives flushes and background compactions.  Any torn read (a value
  from neither the pre- nor post-overwrite generation), stale snapshot
  read, or leaked version fails the run.  Three seeds.
* **hypothesis state machine** — adversarially-searched interleavings of
  install/pin/unpin/drain transitions on a bare :class:`VersionSet`,
  checking the refcount invariants directly (tables never retire while a
  pinning version lives; retirement is exactly-once; pinned counts
  balance).
* **install-window crash point** — a crash landing between the manifest
  swap and the obsolete-table delete must recover with zero loss *and*
  zero suspicion (the file is unreferenced garbage, not damage).
"""

import threading

import pytest
from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.common.errors import CompactionError, SimulatedCrashError
from repro.common.rng import make_rng
from repro.lsm.db import LSMTree
from repro.lsm.options import LSMOptions
from repro.lsm.torture import default_torture_options
from repro.lsm.version import Version, VersionEdit, VersionSet
from repro.storage.clock import SimClock
from repro.storage.faults import FaultPlan, FaultyStorageDevice


def torture_options():
    return LSMOptions(memtable_size_bytes=2048, sstable_target_bytes=4096,
                      block_size_bytes=512, l0_compaction_trigger=2,
                      background_compaction=True)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_concurrent_readers_never_see_torn_state(seed):
    """Readers racing flush + background compaction: every observed value
    must come from some generation the oracle actually wrote, snapshots
    must stay frozen on their generation, and nothing may leak."""
    rng = make_rng(seed, "mvcc-torture")
    db = LSMTree(torture_options())
    num_keys = 120
    keys = [b"key-%04d" % i for i in range(num_keys)]
    generations = 14

    # Generation g writes value b"g<g>-<key>" for every key.  A read of
    # key k is consistent iff it returns one of the generations written
    # so far (monotonic per key: the writer goes key 0..n in order).
    def value(gen, key):
        return b"g%02d-" % gen + key

    for key in keys:
        db.put(key, value(0, key))
    db.flush()

    written_gen = {key: 0 for key in keys}  # oracle, guarded by its lock
    oracle_lock = threading.Lock()
    stop = threading.Event()
    failures = []

    def writer():
        try:
            for gen in range(1, generations):
                for key in keys:
                    db.put(key, value(gen, key))
                    with oracle_lock:
                        written_gen[key] = gen
                if gen % 3 == 0:
                    db.flush()
        except BaseException as exc:  # pragma: no cover - failure path
            failures.append(("writer", exc))
        finally:
            stop.set()

    def point_reader(reader_id):
        reader_rng = rng.spawn(f"reader-{reader_id}")
        try:
            while not stop.is_set():
                key = keys[reader_rng.randrange(num_keys)]
                with oracle_lock:
                    low = written_gen[key]
                observed = db.get(key)
                with oracle_lock:
                    high = written_gen[key]
                # The writer applies a put *before* recording it, so the
                # read may legitimately observe one generation past the
                # recorded high (the in-flight put); never more, because
                # the writer records each generation before the next.
                valid = {value(g, key) for g in range(low, high + 2)}
                if observed not in valid:
                    failures.append(("torn", key, observed, low, high))
                    return
        except BaseException as exc:  # pragma: no cover - failure path
            failures.append((f"reader-{reader_id}", exc))

    def snapshot_reader():
        snap_rng = rng.spawn("snapshots")
        try:
            while not stop.is_set():
                with oracle_lock:
                    frozen = dict(written_gen)
                snap = db.snapshot()
                try:
                    for _ in range(6):
                        key = keys[snap_rng.randrange(num_keys)]
                        observed = snap.get(key)
                        # The snapshot was taken at-or-after `frozen`;
                        # it must never show anything *older*, and no
                        # torn bytes ever.
                        if (observed is None
                                or not observed.endswith(b"-" + key)
                                or int(observed[1:3]) < frozen[key]):
                            failures.append(
                                ("stale-snapshot", key, observed,
                                 frozen[key]))
                            return
                finally:
                    snap.close()
        except BaseException as exc:  # pragma: no cover - failure path
            failures.append(("snapshot-reader", exc))

    threads = [threading.Thread(target=writer)]
    threads += [threading.Thread(target=point_reader, args=(i,))
                for i in range(2)]
    threads.append(threading.Thread(target=snapshot_reader))
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive(), "torture thread hung"

    assert not failures, failures[:5]

    # Final state: every key at its last generation, nothing leaked.
    db.compact_all()
    for key in keys:
        assert db.get(key) == value(generations - 1, key)
    assert db._bg_compactor.compactions_run > 0, \
        "torture never exercised background compaction"
    db.close()
    assert db.leaked_pins == 0
    assert db.versions.pinned_count() == 0


class FakeReader:
    def __init__(self):
        self.unmapped = False

    def unmap(self):
        self.unmapped = True


def fake_table(path):
    from repro.lsm.sstable import SSTable
    return SSTable(path=path, reader=FakeReader(), filter=None,
                   min_key=b"a", max_key=b"z",
                   num_entries=1, size_bytes=10)


class VersionSetMachine(RuleBasedStateMachine):
    """Refcount invariants of VersionSet under arbitrary interleavings.

    Model: ``live_tables`` maps path -> set of live (current or pinned)
    versions referencing it.  A table may appear in ``drain_retired()``
    exactly when its last referencing version died, and exactly once.
    """

    @initialize()
    def setup(self):
        self.vs = VersionSet(Version(4))
        self.pins = []          # versions we hold pins on
        self.next_path = 0
        self.retired_paths = set()

    def _live_versions(self):
        return [self.vs.current] + self.pins

    def _live_paths(self):
        return {table.path
                for version in self._live_versions()
                for table in version.all_tables()}

    @rule()
    def install_add(self):
        table = fake_table("t%04d" % self.next_path)
        self.next_path += 1
        self.vs.install(VersionEdit(0, [table], []))

    @rule(start=st.integers(min_value=0, max_value=7),
          width=st.integers(min_value=1, max_value=8),
          flush_between=st.booleans())
    def install_tiered_splice(self, start, width, flush_between):
        """Plan a merge of a recency-adjacent L0 window, optionally let a
        flush install first (a background merge racing the writer), then
        install the plan: the merged run must sit in its inputs' slot."""
        runs = list(self.vs.current.levels[0])
        if not runs:
            return
        start %= len(runs)
        removed = runs[start:start + width]
        merged = fake_table("t%04d" % self.next_path)
        self.next_path += 1
        plan = VersionEdit(0, [merged], removed)
        flushed = []
        if flush_between:
            flushed = [fake_table("t%04d" % self.next_path)]
            self.next_path += 1
            self.vs.install(VersionEdit(0, flushed, []))
        self.vs.install(plan)
        expected = (flushed + runs[:start] + [merged]
                    + runs[start + len(removed):])
        assert list(self.vs.current.levels[0]) == expected

    @rule()
    def pin(self):
        if len(self.pins) < 6:
            self.pins.append(self.vs.pin())

    @rule(index=st.integers(min_value=0, max_value=5))
    def unpin_one(self, index):
        if not self.pins:
            return
        version = self.pins.pop(index % len(self.pins))
        self.vs.unpin(version)

    @rule()
    def drain(self):
        for table in self.vs.drain_retired():
            # Exactly-once retirement, never while still referenced.
            assert table.path not in self.retired_paths
            assert table.path not in self._live_paths()
            self.retired_paths.add(table.path)
            table.reader.unmap()

    @rule()
    def stale_remove_rejected(self):
        if not self.retired_paths:
            return
        ghost = fake_table(sorted(self.retired_paths)[0])
        with pytest.raises(CompactionError):
            self.vs.install(VersionEdit(1, [], [ghost]))

    @invariant()
    def refcounts_match_model(self):
        counts = {}
        for version in self._live_versions():
            for table in version.all_tables():
                counts[table.path] = counts.get(table.path, 0) + 1
        # Deduplicate: a table shared by N live versions has ref >= 1;
        # the exact ref equals the number of distinct live versions
        # referencing it (current counted once even when also pinned).
        distinct = {}
        seen_versions = []
        for version in self._live_versions():
            if any(version is other for other in seen_versions):
                continue
            seen_versions.append(version)
            for table in version.all_tables():
                distinct[table.path] = distinct.get(table.path, 0) + 1
        for path, expected in distinct.items():
            assert self.vs.table_ref(path) == expected, path
        assert self.vs.pinned_count() == len(self.pins)

    @invariant()
    def retired_never_live(self):
        assert not (self.retired_paths & self._live_paths())

    def teardown(self):
        leaked = self.vs.force_release()
        assert leaked == len(self.pins)
        self.vs.close()
        for table in self.vs.drain_retired():
            assert table.path not in self.retired_paths
        super().teardown()


TestVersionSetMachine = VersionSetMachine.TestCase
TestVersionSetMachine.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])


class TestInstallWindowCrash:
    """Crash between version install (manifest swap) and obsolete retire."""

    def _build(self, plan=None, seed=3):
        clock = SimClock()
        device = FaultyStorageDevice(clock, rng=make_rng(seed, "dev"),
                                     plan=plan or FaultPlan(seed=seed))
        db = LSMTree(options=default_torture_options(), clock=clock,
                     device=device)
        items = {}
        for index in range(180):
            key = b"key%04d" % (index % 48)
            items[key] = b"value-%05d" % index
            db.put(key, items[key])
        return db, device, items

    def _first_retire_delete_index(self):
        """Mutation index of the first obsolete-table delete in a
        fault-free run of build + compact_all (the retire step runs
        after the manifest swap by the commit ordering)."""
        db, device, _ = self._build()
        deletes = []
        original = type(device).delete_file

        def spy(dev, path):
            if path.startswith("sst/"):
                deletes.append(dev.fault_stats.mutations)
            original(dev, path)

        type(device).delete_file = spy
        try:
            db.compact_all()
        finally:
            type(device).delete_file = original
        assert deletes, "compact_all retired no tables"
        return deletes[0]

    def test_crash_between_install_and_retire_is_clean(self):
        crash_at = self._first_retire_delete_index()
        db, device, items = self._build()
        device.schedule_crash(
            after_mutations=crash_at - device.fault_stats.mutations)
        with pytest.raises(SimulatedCrashError):
            db.compact_all()
        device.revive()
        recovered = LSMTree.reopen(device,
                                   options=default_torture_options())
        report = recovered.recovery_report
        # The new version was durable (manifest swapped); the undeleted
        # obsolete table is unreferenced garbage, not suspicion.
        assert not report.data_suspect, report.summary()
        for key, expected in items.items():
            assert recovered.get(key) == expected
        recovered.close()
