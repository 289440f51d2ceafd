"""Crash-torture acceptance suite (the tentpole proof).

The central claim: for **every** device-mutation index in a 200-op seeded
workload, crashing there (with a torn final write) and reopening yields a
store exactly equal to a dict oracle over the acknowledged operations —
no lost acknowledged write, no resurrected unacknowledged one.

Around the sweep: targeted single-fault scenarios (bit flips in WAL /
manifest / SSTable, missing and orphaned tables, transient read storms)
asserting the recovery path's classification and quarantine behaviour.
"""

import threading

import pytest

from repro.common.errors import (
    CompactionError,
    CorruptionError,
    DBClosedError,
    SimulatedCrashError,
    TransientIOError,
)
from repro.common.rng import make_rng
from repro.filters.surf import SuRFBuilder
from repro.lsm.db import LSMTree
from repro.lsm.options import LSMOptions
from repro.lsm.recovery import (
    REASON_CORRUPT,
    REASON_MISSING,
    REASON_UNREADABLE,
)
from repro.lsm.torture import (
    OP_PUT_MANY,
    background_torture_options,
    crash_point_sweep,
    default_torture_options,
    generate_workload,
    run_crash_point,
)
from repro.lsm.sstable import _FOOTER
from repro.lsm.wal import TAIL_CHECKSUM
from repro.storage.clock import SimClock
from repro.storage.faults import FaultPlan, FaultyStorageDevice


def make_store(plan=None, seed=0, puts=180):
    """A small multi-table store on a faulty device (no crash armed)."""
    clock = SimClock()
    device = FaultyStorageDevice(clock, rng=make_rng(seed, "dev"),
                                 plan=plan or FaultPlan(seed=seed))
    db = LSMTree(options=default_torture_options(), clock=clock,
                 device=device)
    for index in range(puts):
        db.put(b"key%04d" % (index % 48), b"value-%05d" % index)
    return db, device


def reopen(device):
    return LSMTree.reopen(device, options=default_torture_options())


class TestCrashPointSweep:
    """The acceptance criterion: an exhaustive 200-op crash sweep."""

    def test_every_crash_point_recovers_exactly(self):
        sweep = crash_point_sweep(seed=0, num_ops=200)
        assert sweep.total_mutations > 400  # flushes/compactions ran too
        assert sweep.ok, sweep.describe()
        # Both halves of the {sync, background} product, and the
        # background half sees the compactor's own writes as crash
        # points: it commits a manifest per merge cycle on top of the
        # flush's, so it has strictly more of them (and fewer, were the
        # compactor's view invisible to the fault layer).
        assert list(sweep.points_run) == ["sync", "background"]
        assert sweep.points_run["background"] > sweep.points_run["sync"] > 200

    def test_second_seed_strided(self):
        # A different seed exercises a different flush/compaction layout;
        # strided to keep suite runtime in check (make torture is
        # exhaustive across seeds).
        sweep = crash_point_sweep(seed=1, num_ops=200, stride=3)
        assert sweep.ok, sweep.describe()

    def test_workloads_exercise_group_commit(self):
        # The sweep only proves partial-batch durability if the script
        # actually contains group commits.
        ops = generate_workload(0, 200)
        batches = [op for op in ops if op.kind == OP_PUT_MANY]
        assert len(batches) >= 10
        assert all(len(op.items) >= 2 for op in batches)

    def test_mid_batch_crash_keeps_exact_frame_prefix(self):
        # Find a put_many op and crash on its own WAL append: recovery
        # must land on a strict prefix of the batch, which the oracle in
        # run_crash_point checks frame-by-frame.
        ops = generate_workload(5, 120)
        assert any(op.kind == OP_PUT_MANY for op in ops)
        checked = 0
        device_probe = run_crash_point(5, ops, None)
        for crash_at in range(0, device_probe.mutations, 7):
            result = run_crash_point(5, ops, crash_at)
            assert result.ok, result.describe()
            checked += 1
        assert checked > 10

    def test_crash_during_recovery_writes_is_survivable(self):
        # Recovery itself writes (manifest rewrite after fallback).  Crash
        # the original store, then crash again during the *first* reopen,
        # then recover for real: still exact.
        ops = generate_workload(0, 120)
        result = run_crash_point(0, ops, crash_at=100)
        assert result.ok, result.describe()


class TestWalBitFlip:
    def test_flip_never_replayed_and_classified(self):
        db, device = make_store(puts=12)  # small: stays in the WAL
        path = "wal/current.wal"
        size = device.file_size(path)
        device.flip_bit(path, size // 2)  # mid-log, not the tail record
        recovered = reopen(device)
        report = recovered.recovery_report
        assert report.wal_tail_dropped
        assert report.wal_tail_reason == TAIL_CHECKSUM
        assert report.data_suspect
        # Records before the flip replayed; nothing after it did.
        assert 0 <= report.wal_records_replayed < 12

    def test_recovered_values_are_prefix_of_history(self):
        db, device = make_store(puts=10)
        device.flip_bit("wal/current.wal",
                        device.file_size("wal/current.wal") - 1)
        recovered = reopen(device)
        # Every surviving value must be one this exact history wrote.
        legal = {b"value-%05d" % i for i in range(10)}
        for i in range(48):
            value = recovered.get(b"key%04d" % i)
            assert value is None or value in legal


class TestManifestFaults:
    def test_flipped_entry_skipped_store_survives(self, capsys):
        db, device = make_store()
        db.flush()
        size = device.file_size("MANIFEST")
        # Corrupt an entry line (safely past the header).
        device.flip_bit("MANIFEST", size - 2)
        recovered = reopen(device)
        report = recovered.recovery_report
        assert report.manifest_corrupt_entries == 1
        assert report.data_suspect and not report.clean
        assert "failed checksum" in report.summary()

    def test_garbled_manifest_falls_back_to_prev(self):
        db, device = make_store()
        db.flush()
        assert device.exists("MANIFEST.prev")
        device.delete_file("MANIFEST")
        device.create_file("MANIFEST", b"\xff\xfe total garbage \x00")
        recovered = reopen(device)
        report = recovered.recovery_report
        assert report.manifest_fallback
        assert report.manifest_source == "MANIFEST.prev"
        # Recovery rewrote a clean primary manifest for next time.
        assert reopen(device).recovery_report.manifest_source == "MANIFEST"

    def test_recovery_persists_repaired_manifest(self):
        db, device = make_store()
        db.flush()
        size = device.file_size("MANIFEST")
        device.flip_bit("MANIFEST", size - 2)
        reopen(device)
        # Second reopen sees a fully clean, rewritten manifest.
        second = reopen(device).recovery_report
        assert second.manifest_corrupt_entries == 0
        assert second.manifest_source == "MANIFEST"


class TestSSTableFaults:
    @staticmethod
    def newest_table(device):
        return sorted(p for p in device.list_files()
                      if p.startswith("sst/"))[-1]

    def test_corrupt_footer_quarantines_table(self):
        db, device = make_store()
        db.flush()
        path = self.newest_table(device)
        size = device.file_size(path)
        for offset in range(size - 8, size):  # smash the footer magic
            device.flip_bit(path, offset)
        recovered = reopen(device)
        report = recovered.recovery_report
        quarantined = {q.path: q for q in report.quarantined}
        assert path in quarantined
        item = quarantined[path]
        assert item.reason == REASON_CORRUPT
        assert item.moved_to.startswith("quarantine/")
        assert device.exists(item.moved_to)  # preserved, not deleted
        assert not device.exists(path)

    @pytest.mark.parametrize("offset,value", [(2, 200), (3, 7)])
    def test_bad_surf_filter_header_quarantines_table(self, offset, value):
        # Regression: suffix bits out of range raised ConfigError out of
        # reopen, and an unknown backend code decoded as LOUDS.
        options = LSMOptions(
            filter_builder=SuRFBuilder("real", 8, backend="louds"))
        db = LSMTree(options)
        for index in range(300):
            db.put(b"k%04d" % index, b"v%04d" % index)
        db.flush()
        db.close()
        device = db.device
        path = self.newest_table(device)
        image = bytearray(device.read(path, 0, device.file_size(path)))
        filter_off = _FOOTER.unpack_from(image, len(image) - _FOOTER.size)[4]
        assert bytes(image[filter_off:filter_off + 4]) == b"\x03\x02\x08\x01"
        image[filter_off + offset] = value
        device.delete_file(path)
        device.create_file(path, bytes(image))
        report = LSMTree.reopen(device, options).recovery_report
        assert {q.path: q.reason for q in report.quarantined} == {
            path: REASON_CORRUPT}

    def test_missing_table_quarantined_without_move(self):
        db, device = make_store()
        db.flush()
        path = self.newest_table(device)
        device.delete_file(path)
        report = reopen(device).recovery_report
        item = {q.path: q for q in report.quarantined}[path]
        assert item.reason == REASON_MISSING
        assert item.moved_to is None

    def test_orphan_table_swept(self):
        db, device = make_store()
        db.flush()
        device.create_file("sst/999999.sst", b"half-born flush output")
        report = reopen(device).recovery_report
        assert report.orphans_quarantined == ["sst/999999.sst"]
        assert device.exists("quarantine/sst_999999.sst")

    def test_second_orphan_does_not_overwrite_first_quarantined_image(self):
        # Regression: reopen only looked at ``sst/`` names when it
        # re-derived the file counter, so once an orphan had been moved
        # to quarantine/ and the (still table-less) tree reopened again,
        # numbering restarted and the next crashed flush re-used the
        # name — whose sweep then renamed over the first image.
        clock = SimClock()
        device = FaultyStorageDevice(clock, rng=make_rng(0, "dev"),
                                     plan=FaultPlan(seed=0))

        def crashed_flush(db, value):
            """Crash after the table file is written, before the
            manifest lists it; returns the orphan's (path, bytes)."""
            db.put(b"key", value)
            before = set(device.list_files())
            device.schedule_crash(after_mutations=1)
            with pytest.raises(SimulatedCrashError):
                db.flush()
            device.revive()
            (path,) = [path for path in device.list_files()
                       if path.startswith("sst/") and path not in before]
            return path, device._files[path]

        db = LSMTree(options=default_torture_options(), clock=clock,
                     device=device)
        first_path, first_image = crashed_flush(db, b"first" * 40)
        assert reopen(device).recovery_report.orphans_quarantined \
            == [first_path]
        db = reopen(device)  # once more: nothing left under sst/
        second_path, second_image = crashed_flush(db, b"second" * 40)
        assert second_path != first_path
        assert reopen(device).recovery_report.orphans_quarantined \
            == [second_path]

        def quarantined(path):
            return device._files["quarantine/" + path.replace("/", "_")]

        assert quarantined(first_path) == first_image
        assert quarantined(second_path) == second_image

    def test_corrupt_data_block_detected_at_read_time(self):
        # A flip inside a *data* block passes open (footer/index intact)
        # but the block checksum catches it on first read — never a
        # silently wrong value.
        db, device = make_store()
        db.flush()
        path = self.newest_table(device)
        device.flip_bit(path, 10)  # early in the first data block
        recovered = reopen(device)
        hit = False
        for i in range(48):
            try:
                recovered.get(b"key%04d" % i)
            except CorruptionError:
                hit = True
        assert hit


class TestTransientRecovery:
    def test_reopen_retries_through_transient_errors(self):
        db, device = make_store()
        db.flush()
        # Fail the first two reads recovery issues; retries must win.
        device.plan = FaultPlan(
            seed=0,
            transient_read_ops=frozenset(
                {device.fault_stats.reads_attempted,
                 device.fault_stats.reads_attempted + 1}))
        recovered = reopen(device)
        report = recovered.recovery_report
        assert report.transient_retries == 2
        assert not report.quarantined
        assert recovered.get(b"key0001") is not None

    def test_persistent_errors_quarantine_as_unreadable(self):
        db, device = make_store()
        db.flush()
        # Every read of a table file fails — a persistently bad region —
        # while the metadata files stay readable.
        device.plan = FaultPlan(seed=0, transient_read_rate=1.0,
                                max_transient_errors=10_000,
                                transient_path_prefixes=("sst/",))
        recovered = reopen(device)
        report = recovered.recovery_report
        assert report.quarantined
        assert all(q.reason == REASON_UNREADABLE
                   for q in report.quarantined)
        assert report.tables_opened == 0


class TestFaultsReachTheViews:
    """The fault model covers the other users of the device: background
    compaction (a silent view) and snapshots (a reader view)."""

    @pytest.mark.parametrize("surface", ["quiesce", "close"])
    @pytest.mark.parametrize("into_the_merge", [0, 1, 2, 3])
    def test_crash_mid_background_merge(self, into_the_merge, surface):
        clock = SimClock()
        device = FaultyStorageDevice(clock, rng=make_rng(0, "dev"),
                                     plan=FaultPlan(seed=0))
        db = LSMTree(options=background_torture_options(), clock=clock,
                     device=device)
        acknowledged = {}
        # Park the compactor in front of its first merge: while the
        # compaction lock is ours the mutation count is the foreground's
        # alone, so the crash can be armed a known distance into the
        # cycle.  Mutation 0 of it tears the first output table, the
        # next ones hit further outputs or the manifest swap.
        with db._compaction_lock:
            index = 0
            while not db._bg_compactor.pending():
                key, value = b"key%04d" % (index % 48), b"value-%05d" % index
                db.put(key, value)
                acknowledged[key] = value
                index += 1
            device.schedule_crash(after_mutations=into_the_merge)
        with pytest.raises(CompactionError) as raised:
            # The trigger-firing put flushed, so close has nothing to
            # write before it waits for the compactor.
            db._background.quiesce() if surface == "quiesce" else db.close()
        assert isinstance(raised.value.__cause__, SimulatedCrashError)
        assert device.crashed
        assert device.fault_stats.crash_path.startswith(("sst/", "MANIFEST"))

        # Dead means dead, on either thread: the files are those of the
        # crash instant whatever the process attempts afterwards.
        frozen = dict(device._files)
        # (A close that failed still closed: the tree refuses the put.)
        with pytest.raises(DBClosedError if surface == "close"
                           else SimulatedCrashError):
            db.put(b"key0000", b"never-acknowledged")
        with pytest.raises(SimulatedCrashError):  # the compactor's commit
            db._commit_version(manifest=db._silent_manifest,
                               device=db._silent_device)
        assert device._files == frozen
        db._background.stop()

        device.revive()
        recovered = LSMTree.reopen(device,
                                   options=background_torture_options())
        assert not recovered.recovery_report.data_suspect
        for key, value in acknowledged.items():
            assert recovered.get(key) == value
        recovered.close()
        assert recovered.leaked_pins == 0

    def test_snapshot_reads_hit_injected_transient_faults(self):
        db, device = make_store()
        db.flush()
        expected = db.get(b"key0001")
        snap = db.snapshot()  # private, cold cache: its reads do I/O
        device.plan = FaultPlan(seed=0, transient_read_ops=frozenset(
            {device.fault_stats.reads_attempted}))
        with pytest.raises(TransientIOError):
            snap.get(b"key0001")
        assert snap.get(b"key0001") == expected is not None  # heals on retry
        assert device.fault_stats.transient_errors == 1
        snap.close()
        db.close()
        assert db.leaked_pins == 0


class TestCloseAlwaysCloses:
    def test_failed_final_flush_still_closes_and_stops_the_compactor(self):
        before = set(threading.enumerate())
        clock = SimClock()
        device = FaultyStorageDevice(clock, rng=make_rng(0, "dev"),
                                     plan=FaultPlan(seed=0))
        db = LSMTree(options=background_torture_options(), clock=clock,
                     device=device)
        acknowledged = {}
        for index in range(5):  # stays in the memtable: close must flush
            key, value = b"key%04d" % index, b"value-%05d" % index
            db.put(key, value)
            acknowledged[key] = value
        device.schedule_crash()
        with pytest.raises(SimulatedCrashError):
            db.put(b"key9999", b"never-acknowledged")
        with pytest.raises(SimulatedCrashError):
            db.close()
        assert db._closed
        db.close()  # already closed: no second error
        assert not [thread for thread in set(threading.enumerate()) - before
                    if thread.name == "lsm-background-compaction"]

        device.revive()
        recovered = LSMTree.reopen(device,
                                   options=background_torture_options())
        for key, value in acknowledged.items():
            assert recovered.get(key) == value
        assert recovered.get(b"key9999") is None
        recovered.close()
        assert recovered.leaked_pins == 0


class TestRecoveryReport:
    def test_clean_reopen_is_clean(self):
        db, device = make_store()
        db.flush()
        report = reopen(device).recovery_report
        assert report.clean
        assert not report.data_suspect
        assert "clean" in report.summary()

    def test_crash_reopen_not_clean_but_not_suspect(self):
        db, device = make_store(puts=30)
        device.schedule_crash(after_mutations=0)
        with pytest.raises(SimulatedCrashError):
            db.put(b"key0000", b"never-acknowledged")
        device.revive()
        report = reopen(device).recovery_report
        # A torn tail is expected crash fallout: not clean, but nothing
        # trusted was lost.
        assert not report.clean
        assert not report.data_suspect


class TestCrashesRaiseNoSuspicion:
    """Crash debris is classified, not distrusted.

    Every artifact a pure crash can leave — torn WAL tail, torn
    ``MANIFEST.new``, an obsolete table whose delete never ran — has a
    dedicated benign classification (dropped tail, ignored staging file,
    quarantined orphan).  ``data_suspect`` is reserved for damage that
    cannot come from a crash alone (checksum-failed committed records),
    so a crash-only sweep must never raise it at any point.
    """

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sweep_has_no_suspect_points(self, seed):
        sweep = crash_point_sweep(seed=seed, num_ops=120, stride=5)
        assert sweep.ok, sweep.describe()
        assert sweep.suspect_points == []
