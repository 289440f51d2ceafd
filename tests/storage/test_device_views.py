"""Device views are the device: same I/O core, same fault layer.

A ``reader_view`` (snapshots) or ``silent_view`` (background compaction)
redirects *who is charged* and nothing else.  Over a
``FaultyStorageDevice`` that means every view operation is counted,
crashed, refused-while-dead and transiently failed exactly like the same
call on the parent; over a fault-free device it means the charges, RNG
draws and stats land where they always did (pinned by a golden taken at
the commit before the views were folded into the core).
"""

from dataclasses import astuple

import pytest

from repro.common.errors import (
    SimulatedCrashError,
    StorageError,
    TransientIOError,
)
from repro.common.rng import make_rng
from repro.storage.clock import SimClock
from repro.storage.device import DeviceView, StorageDevice
from repro.storage.faults import FaultPlan, FaultyStorageDevice

PAYLOAD = bytes(range(256)) * 40  # 10240 B: three device blocks


def make_device(plan=None):
    device = FaultyStorageDevice(SimClock(), rng=make_rng(0, "dev"),
                                 plan=plan or FaultPlan(seed=0))
    device.create_file("f", PAYLOAD)
    return device


def reader_of(device):
    return device.reader_view(SimClock(), make_rng(7, "reader"))


#: name -> a view of ``device`` (both flavours read; only one writes).
VIEWS = {"reader": reader_of, "silent": StorageDevice.silent_view}

#: name -> one read of ``f`` through ``target`` (a device or a view).
READS = {
    "read": lambda target: target.read("f", 10, 20),
    "read_view": lambda target: target.read_view("f", 10, 20),
    "read_block": lambda target: target.read_block("f", 1),
    "read_block_view": lambda target: target.read_block_view("f", 1),
}

#: name -> one mutation through ``target``; each leaves ``f`` in place.
MUTATIONS = {
    "create_file": lambda target: target.create_file("g", b"0123456789"),
    "append": lambda target: target.append("f", b"0123456789"),
    "rename": lambda target: target.rename("h", "i"),
    "delete_file": lambda target: target.delete_file("h"),
}


def with_h(device):
    """``device`` plus the file the rename/delete mutations consume."""
    device.create_file("h", b"victim")
    return device


@pytest.mark.parametrize("flavour", VIEWS)
@pytest.mark.parametrize("method", READS)
class TestReadsThroughAView:
    def test_counted_by_the_fault_layer(self, flavour, method):
        device = make_device()
        before = device.fault_stats.reads_attempted
        READS[method](VIEWS[flavour](device))
        assert device.fault_stats.reads_attempted == before + 1

    def test_scheduled_transient_fault_fires_then_heals(self, flavour, method):
        device = make_device(FaultPlan(transient_read_ops=frozenset({0})))
        view = VIEWS[flavour](device)
        with pytest.raises(TransientIOError):
            READS[method](view)
        assert device.fault_stats.transient_errors == 1
        assert bytes(READS[method](view)) == bytes(READS[method](device))

    def test_dead_after_a_crash_until_revive(self, flavour, method):
        device = make_device()
        view = VIEWS[flavour](device)
        device.schedule_crash(after_mutations=0)
        with pytest.raises(SimulatedCrashError):
            device.append("f", b"the crash")
        with pytest.raises(SimulatedCrashError):
            READS[method](view)
        assert view.stats.reads == 0 and view.clock.now_us == 0.0
        device.revive()
        READS[method](view)
        assert view.stats.reads == 1


@pytest.mark.parametrize("method", MUTATIONS)
class TestMutationsThroughASilentView:
    def test_counted_by_the_fault_layer(self, method):
        device = with_h(make_device())
        before = device.fault_stats.mutations
        MUTATIONS[method](device.silent_view())
        assert device.fault_stats.mutations == before + 1

    def test_crashes_at_the_armed_index(self, method):
        device = with_h(make_device())
        silent = device.silent_view()
        before = dict(device._files)
        device.schedule_crash(after_mutations=1)
        silent.append("f", b"one more is allowed")
        before["f"] += b"one more is allowed"
        with pytest.raises(SimulatedCrashError):
            MUTATIONS[method](silent)
        assert device.crashed
        assert device.fault_stats.crash_op == device.fault_stats.mutations - 1
        # Torn-prefix rule: a write keeps a strict prefix of its payload,
        # a rename or delete that crashes did not happen at all.
        kept = device.fault_stats.crash_surviving_bytes
        assert 0 <= kept < 10
        after = dict(device._files)
        if method == "create_file" and kept:
            assert after.pop("g") == b"0123456789"[:kept]
        elif method == "append":
            before["f"] += b"0123456789"[:kept]
        else:
            assert kept == 0
        assert after == before

    def test_dead_after_a_crash_until_revive(self, method):
        device = with_h(make_device())
        silent = device.silent_view()
        device.schedule_crash(after_mutations=0)
        with pytest.raises(SimulatedCrashError):
            device.append("f", b"the crash")
        frozen = dict(device._files)
        with pytest.raises(SimulatedCrashError):
            MUTATIONS[method](silent)
        assert device._files == frozen
        assert silent.stats.writes == 0 and silent.clock.now_us == 0.0
        device.revive()
        MUTATIONS[method](silent)
        assert device._files != frozen

    def test_read_only_view_still_refuses(self, method):
        device = with_h(make_device())
        before = device.fault_stats.mutations
        frozen = dict(device._files)
        with pytest.raises(StorageError, match="read-only"):
            MUTATIONS[method](reader_of(device))
        assert device._files == frozen
        assert device.fault_stats.mutations == before


def test_three_silent_mutations_advance_the_mutation_count_by_three():
    # The issue's own reproducer: 0 at the parent commit.
    device = make_device()
    silent = device.silent_view()
    before = device.fault_stats.mutations
    silent.create_file("a", b"one")
    silent.append("a", b"two")
    silent.rename("a", "b")
    assert device.fault_stats.mutations == before + 3


def test_view_keeps_no_copy_of_the_parents_state():
    device = make_device()
    for view in (reader_of(device), device.silent_view()):
        for name in ("_files", "_generations", "_mappings", "_lock"):
            assert not hasattr(view, name), name
    # ... and borrows none of its functions: every method is its own.
    borrowed = [name for name, value in vars(DeviceView).items()
                if callable(value)
                and value is vars(StorageDevice).get(name)]
    assert borrowed == []


# --------------------------------------------------- fault-free identity

def scripted_sequence(device):
    """Every charged operation, interleaved over the device and both views."""
    reader = reader_of(device)
    silent = device.silent_view()
    device.create_file("a", PAYLOAD)
    device.append("log", b"x" * 100)
    silent.create_file("b", b"y" * 5000)
    reader.read("a", 100, 5000)
    device.read("a", 0, 10)
    silent.append("log", b"z" * 50)
    reader.read_block("b", 1)
    device.read_block_view("a", 2)
    silent.rename("b", "c")
    reader.read_view("c", 4000, 1000)
    silent.read_block_view("c", 0)
    device.rename("a", "d")
    silent.delete_file("log")
    reader.read_block_view("d", 0)
    silent.read("d", 0, 10240)
    device.delete_file("c")
    device.read_view("d", 4090, 10)
    return {name: (account.clock.now_us, astuple(account.stats))
            for name, account in (("device", device), ("reader", reader),
                                  ("silent", silent))}


#: ``scripted_sequence`` at a253832, where a view was a second
#: implementation: (clock.now_us, (reads, blocks_read, writes,
#: bytes_written)) per account.  The background compactor's bytes are
#: counted on its view, never on the parent.
GOLDEN = {
    "device": (146.83499475475548, (3, 4, 3, 10340)),
    "reader": (89.21778657470679, (4, 6, 0, 0)),
    "silent": (136.36510746048003, (2, 4, 3, 5050)),
}


@pytest.mark.parametrize("cls", [StorageDevice, FaultyStorageDevice])
def test_fault_free_charges_draws_and_stats_are_unchanged(cls):
    observed = scripted_sequence(cls(SimClock(), rng=make_rng(3, "dev")))
    for name, (now_us, stats) in GOLDEN.items():
        assert observed[name][1] == stats, name
        # One changed draw or charge moves a clock by microseconds; the
        # tolerance only forgives a libm that rounds exp/log differently.
        assert observed[name][0] == pytest.approx(now_us, rel=1e-12), name


def test_a_views_timing_is_that_of_a_device_with_its_streams():
    # Exact, platform-independent form of the above: what a view is
    # charged depends on its own RNG and the blocks it touched, nothing
    # of the parent's — so a standalone device fed the view's streams
    # and the view's reads lands on the same clock, bit for bit.
    device = StorageDevice(SimClock(), rng=make_rng(3, "dev"))
    device.create_file("f", PAYLOAD)
    view = reader_of(device)
    twin = StorageDevice(SimClock(), rng=make_rng(7, "reader"))
    twin.create_file("f", PAYLOAD)
    twin.clock = SimClock()  # forget the write: float sums do not commute
    for step in range(12):
        device.read_block("f", step % 3)  # parent draws in between
        for target in (view, twin):
            READS[sorted(READS)[step % 4]](target)
    assert view.clock.now_us == twin.clock.now_us > 0.0
    assert (view.stats.reads, view.stats.blocks_read) \
        == (twin.stats.reads, twin.stats.blocks_read)
