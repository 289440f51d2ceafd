"""The whole-table read (``SSTableReader.records``) vs ``iterate_from(b"")``.

Compaction's input read and recovery's filter rebuild read a table whole,
one ``Block.records`` pass per data block.  Two identical worlds read the
same table, the first through ``iterate_from(b"")``, the second through
``records``: the records (tombstones included) must be the same, and so
must everything the reads leave behind — the clock, every cache counter,
the page LRU order and the decoded entries — over multi-block tables,
mapped or not, from a cold, a warm or a one-page cache.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.rng import make_rng
from repro.lsm.block import Block
from repro.lsm.memtable import TOMBSTONE, Entry
from repro.lsm.table_build import build_table_artifact, install_artifact
from repro.storage.clock import SimClock
from repro.storage.device import DeviceModel, StorageDevice
from repro.storage.page_cache import PageCache

PAGE = 256
PATH = "sst/000001.sst"


class World:
    """A device holding one table, and a cache over it."""

    def __init__(self, records, block_size, capacity_pages, mapped):
        self.clock = SimClock()
        self.device = StorageDevice(self.clock, DeviceModel(block_size=PAGE),
                                    rng=make_rng(5, "device"))
        self.table = install_artifact(
            self.device, PATH, build_table_artifact(records, block_size, None))
        if not mapped:
            self.table.reader.region = None
        self.cache = PageCache(self.device, capacity_pages * PAGE)

    def warm(self, pages):
        for index in pages:
            self.cache.read_block(PATH, index)

    def state(self):
        cache = self.cache
        return dict(pages=list(cache._pages), front=cache._front,
                    used_bytes=cache.used_bytes, decoded=list(cache._decoded),
                    stats=dict(vars(cache.stats)), now_us=self.clock.now_us,
                    device_reads=self.device.stats.reads)


@st.composite
def tables(draw):
    """Sorted records, some tombstones, sized to span several blocks."""
    keys = draw(st.sets(st.binary(min_size=1, max_size=12), min_size=1,
                        max_size=120))
    values = st.one_of(st.none(), st.binary(max_size=40))
    return [(key, draw(values)) for key in sorted(keys)]


@given(records=tables(), block_size=st.sampled_from([64, 300, 4096]),
       capacity_pages=st.sampled_from([1, 2, 64]), mapped=st.booleans(),
       warm=st.lists(st.integers(0, 40), max_size=6), repeat=st.booleans())
@settings(max_examples=150, deadline=None)
def test_records_match_iterate_from(records, block_size, capacity_pages,
                                    mapped, warm, repeat):
    worlds = [World(records, block_size, capacity_pages, mapped)
              for _ in range(2)]
    pages = -(-worlds[0].device.file_size(PATH) // PAGE)
    for world in worlds:
        world.warm([index % pages for index in warm])
    streamed, whole = worlds
    reader_a, reader_b = streamed.table.reader, whole.table.reader
    for _ in range(2 if repeat else 1):  # a second pass hits what stayed
        got_a = [(key, entry.value)
                 for key, entry in reader_a.iterate_from(b"", streamed.cache)]
        got_b = reader_b.records(whole.cache)
        assert got_b == got_a == records
        assert whole.state() == streamed.state()


def test_multi_block_table_with_tombstones_one_page_cache():
    rng = make_rng(11, "records")
    keys = sorted({rng.random_bytes(6) for _ in range(400)})
    records = [(key, None if i % 7 == 0 else rng.random_bytes(30))
               for i, key in enumerate(keys)]
    worlds = [World(records, 512, 1, True) for _ in range(2)]
    assert worlds[0].table.reader.num_blocks > 10
    got_a = [(key, entry.value) for key, entry in
             worlds[0].table.reader.iterate_from(b"", worlds[0].cache)]
    got_b = worlds[1].table.reader.records(worlds[1].cache)
    assert got_a == got_b == records
    assert worlds[0].state() == worlds[1].state()


@given(records=tables())
@settings(max_examples=100, deadline=None)
def test_block_records_and_items_match_record_at(records):
    # One block holding every record: records() is record_at over every
    # index, and items() wraps the same pairs in entries.
    artifact = build_table_artifact(records, 1 << 20, None)
    handle = artifact.index_entries[0][1]
    block = Block(artifact.file_bytes[handle.offset:
                                      handle.offset + handle.length])
    expected = [block.record_at(i) for i in range(len(block))]
    assert [(key, entry.value) for key, entry in expected] == \
        block.records() == records
    items = list(block.items())
    assert items == expected
    assert all(entry is TOMBSTONE for _, entry in items
               if entry.value is None)
    assert all(type(entry) is Entry for _, entry in items)
