"""SSTable writer/reader tests.

Tables under test are written by the production writer
(``build_table_artifact`` + ``install_artifact``); the streaming
``SSTableBuilder`` from ``tests/reference`` is the byte oracle it is
held to.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference.streaming_build import SSTableBuilder

from repro.common.errors import ConfigError, CorruptionError
from repro.common.rng import make_rng
from repro.filters.bloom import BloomFilterBuilder
from repro.lsm.memtable import TOMBSTONE, Entry
from repro.lsm.table_build import (
    build_table_artifact,
    install_artifact,
    split_records,
)
from repro.lsm.sstable import SSTableReader
from repro.storage.clock import SimClock
from repro.storage.device import StorageDevice
from repro.storage.page_cache import PageCache


@pytest.fixture()
def env():
    clock = SimClock()
    device = StorageDevice(clock)
    cache = PageCache(device, 64 * device.model.block_size)
    return clock, device, cache


def build_table(device, items, path="sst/0.sst", filter_builder=None):
    records = [(key, entry.value) for key, entry in items]
    return install_artifact(
        device, path, build_table_artifact(records, 4096, filter_builder))


def sample_items(n=2000, value_size=40):
    rng = make_rng(8, "sst")
    keys = sorted({rng.random_bytes(5) for _ in range(n)})
    return [(k, Entry(bytes([k[0]]) * value_size)) for k in keys]


class TestBuildAndGet:
    def test_point_lookups(self, env):
        _, device, cache = env
        items = sample_items()
        table = build_table(device, items)
        for key, entry in items[::37]:
            assert table.reader.get(key, cache).value == entry.value
        assert table.reader.get(b"\x00" * 5, cache) is None

    def test_tombstones_survive(self, env):
        _, device, cache = env
        table = build_table(device, [(b"aa", TOMBSTONE), (b"bb", Entry(b"v"))])
        assert table.reader.get(b"aa", cache).is_tombstone

    def test_metadata(self, env):
        _, device, _ = env
        items = sample_items(500)
        table = build_table(device, items)
        assert table.min_key == items[0][0]
        assert table.max_key == items[-1][0]
        assert table.num_entries == len(items)
        assert table.covers(items[3][0])
        assert not table.covers(b"\x00" * 5) or items[0][0] == b"\x00" * 5

    def test_multi_block_layout(self, env):
        _, device, _ = env
        table = build_table(device, sample_items(3000, value_size=60))
        assert table.reader.num_blocks > 10

    def test_filter_attached(self, env):
        _, device, _ = env
        items = sample_items(300)
        table = build_table(device, items,
                            filter_builder=BloomFilterBuilder(10))
        assert all(table.filter.may_contain(k) for k, _ in items)

    def test_ascending_order_enforced(self, env):
        _, device, _ = env
        builder = SSTableBuilder(device, "sst/x.sst", 4096)
        builder.add(b"b", Entry(b"v"))
        with pytest.raises(ConfigError):
            builder.add(b"a", Entry(b"v"))

    def test_empty_table_rejected(self, env):
        _, device, _ = env
        builder = SSTableBuilder(device, "sst/x.sst", 4096)
        with pytest.raises(ConfigError):
            builder.finish()

    def test_double_finish_rejected(self, env):
        _, device, _ = env
        builder = SSTableBuilder(device, "sst/x.sst", 4096)
        builder.add(b"a", Entry(b"v"))
        builder.finish()
        with pytest.raises(ConfigError):
            builder.finish()


class TestIteration:
    def test_iterate_from_start(self, env):
        _, device, cache = env
        items = sample_items(800)
        table = build_table(device, items)
        assert list(table.reader.iterate_from(b"", cache)) == [
            (k, e) for k, e in items]

    def test_iterate_from_midpoint(self, env):
        _, device, cache = env
        items = sample_items(800)
        table = build_table(device, items)
        mid = items[400][0]
        got = [k for k, _ in table.reader.iterate_from(mid, cache)]
        assert got == [k for k, _ in items[400:]]

    def test_iterate_past_end(self, env):
        _, device, cache = env
        table = build_table(device, sample_items(100))
        assert list(table.reader.iterate_from(b"\xff" * 6, cache)) == []


class TestReopen:
    def test_open_from_disk(self, env):
        _, device, cache = env
        items = sample_items(600)
        build_table(device, items, path="sst/7.sst")
        reader = SSTableReader.open(device, "sst/7.sst")
        assert reader.num_entries == len(items)
        min_key, max_key = reader.properties()
        assert (min_key, max_key) == (items[0][0], items[-1][0])
        for key, entry in items[::53]:
            assert reader.get(key, cache).value == entry.value

    def test_corrupt_magic_detected(self, env):
        _, device, _ = env
        device.create_file("sst/bad.sst", b"\x00" * 64)
        with pytest.raises(CorruptionError):
            SSTableReader.open(device, "sst/bad.sst")

    def test_truncated_file_detected(self, env):
        _, device, _ = env
        device.create_file("sst/tiny.sst", b"ab")
        with pytest.raises(CorruptionError):
            SSTableReader.open(device, "sst/tiny.sst")


class TestTimingBehaviour:
    def test_get_costs_io_once_then_cache(self, env):
        clock, device, cache = env
        items = sample_items(500)
        table = build_table(device, items)
        key = items[50][0]
        t0 = clock.now_us
        table.reader.get(key, cache)
        cold = clock.now_us - t0
        t1 = clock.now_us
        table.reader.get(key, cache)
        warm = clock.now_us - t1
        assert cold > 3 * warm


record_lists = st.lists(
    st.tuples(st.binary(min_size=1, max_size=12),
              st.one_of(st.none(), st.binary(max_size=24))),
    min_size=1, max_size=80, unique_by=lambda record: record[0])


class TestArtifactEquivalence:
    """The determinism contract of the parallel build engine:
    :func:`build_table_artifact` emits byte-for-byte the file the
    streaming :class:`SSTableBuilder` writes for the same records."""

    @staticmethod
    def streaming(device, records, block_size, filter_builder=None):
        builder = SSTableBuilder(device, "sst/stream.sst", block_size,
                                 filter_builder)
        for key, value in records:
            builder.add(key, TOMBSTONE if value is None else Entry(value))
        table = builder.finish()
        return device._files["sst/stream.sst"], table

    @given(records=record_lists, block_size=st.sampled_from([64, 256, 4096]))
    @settings(max_examples=60, deadline=None)
    def test_batch_matches_streaming_bytes(self, records, block_size):
        records = sorted(records)
        device = StorageDevice(SimClock())
        file_bytes, table = self.streaming(device, records, block_size)
        artifact = build_table_artifact(records, block_size, None)
        assert artifact.file_bytes == file_bytes
        assert artifact.min_key == table.min_key
        assert artifact.max_key == table.max_key
        assert artifact.num_entries == table.num_entries
        assert artifact.size_bytes == table.size_bytes

    def test_batch_matches_streaming_with_filter(self):
        # The filter block lands in the same place with the same bytes;
        # its bits are held to the per-key build by
        # tests/filters/test_bloom_build_twin.py.
        rng = make_rng(3, "artifact")
        keys = sorted({rng.random_bytes(rng.randint(1, 9))
                       for _ in range(400)})
        records = [(key, b"v" * (key[0] % 17)) for key in keys]
        device = StorageDevice(SimClock())
        file_bytes, _ = self.streaming(device, records, 256,
                                       BloomFilterBuilder(10))
        artifact = build_table_artifact(records, 256, BloomFilterBuilder(10))
        assert artifact.file_bytes == file_bytes
        assert artifact.filter is not None

    def test_rejects_same_inputs_as_streaming(self):
        with pytest.raises(ConfigError):
            build_table_artifact([], 4096, None)
        with pytest.raises(ConfigError):
            build_table_artifact([(b"", b"v")], 4096, None)
        with pytest.raises(ConfigError):
            build_table_artifact([(b"b", b"v"), (b"a", b"v")], 4096, None)

    @given(records=record_lists, target=st.sampled_from([96, 400, 2048]))
    @settings(max_examples=40, deadline=None)
    def test_split_points_match_streaming_closure(self, records, target):
        # split_records must cut exactly where a streaming build loop
        # (close the table once estimated_bytes reaches the target)
        # would have, so sharded bulk loads emit identical table sets.
        records = sorted(records)
        block_size = 64
        chunks = split_records(records, block_size, target)
        assert [r for chunk in chunks for r in chunk] == records
        device = StorageDevice(SimClock())
        expected = []
        current = []
        builder = None
        table_index = 0
        for key, value in records:
            if builder is None:
                builder = SSTableBuilder(device, "sst/%d.sst" % table_index,
                                         block_size)
                table_index += 1
            builder.add(key, TOMBSTONE if value is None else Entry(value))
            current.append((key, value))
            if builder.estimated_bytes >= target:
                builder.finish()
                expected.append(current)
                current = []
                builder = None
        if current:
            builder.finish()
            expected.append(current)
        assert chunks == expected
