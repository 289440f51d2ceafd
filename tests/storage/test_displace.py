"""``PageCache.displace`` == the per-page loop it replaced.

Two identical worlds run the same script of reads and eviction waits; one
churns through the production bulk method, the other through
``reference.churn``.  After every step the whole cache state must agree:
page keys in LRU order (foreign pages compare equal whatever their
number), page lengths, ``used_bytes``, ``CacheStats``, decoded entries,
the decoded-by-page index and the simulated clock.
"""

import pytest
from hypothesis import given, settings, strategies as st
from reference.churn import use_sequential_churn

from repro.common.rng import make_rng
from repro.storage.clock import SimClock
from repro.storage.device import DeviceModel, StorageDevice
from repro.storage.page_cache import PageCache

BLOCK = 256
#: Two files with a short last block and one that ends on a boundary.
FILES = {"a": 3 * BLOCK + 41, "b": 5 * BLOCK + 200, "c": 2 * BLOCK}
SIZES = (BLOCK, BLOCK // 3)


def make_world(capacity_bytes, decoded_capacity, sequential):
    clock = SimClock()
    device = StorageDevice(clock, DeviceModel(block_size=BLOCK),
                           rng=make_rng(5, "device"))
    for path, size in FILES.items():
        device.create_file(path, bytes(i % 251 for i in range(size)))
    cache = PageCache(device, capacity_bytes,
                      decoded_capacity=decoded_capacity)
    if sequential:
        use_sequential_churn(cache)
    return clock, cache


def state(clock, cache):
    def plain(key):
        return "foreign" if key[0].startswith("!bg") else key

    # A full churn's survivors are a run at the LRU front, not entries.
    front = [("foreign", cache._front_size)] * cache._front
    return dict(
        pages=front + [(plain(key), len(page))
                       for key, page in cache._pages.items()],
        used_bytes=cache.used_bytes,
        stats=cache.stats,
        decoded=list(cache._decoded.items()),
        decoded_by_page=cache._decoded_by_page,
        now_us=clock.now_us,
    )


@st.composite
def byte_ranges(draw):
    path = draw(st.sampled_from(sorted(FILES)))
    offset = draw(st.integers(0, FILES[path] - 1))
    length = draw(st.integers(1, min(3 * BLOCK, FILES[path] - offset)))
    return path, offset, length


def steps(capacity_pages):
    churn = st.tuples(st.just("churn"),
                      st.integers(0, 2 * capacity_pages + 3),
                      st.sampled_from(SIZES))
    return st.lists(st.one_of(
        st.tuples(st.just("read"), byte_ranges()),
        st.tuples(st.just("read_decoded"), byte_ranges()),
        st.tuples(st.just("read_decoded_many"),
                  st.lists(byte_ranges(), max_size=4)),
        churn, churn,
    ), max_size=40)


def apply(cache, step):
    kind = step[0]
    if kind == "read":
        return cache.read(*step[1])
    if kind == "read_decoded":
        return cache.read_decoded(*step[1], bytes)
    if kind == "read_decoded_many":
        return cache.read_decoded_many(
            [(*byte_range, bytes, None) for byte_range in step[1]])
    return cache.displace(step[1], step[2])


@st.composite
def scripts(draw):
    capacity_pages = draw(st.integers(1, 9))
    # Mostly capacities off the block grid (a churned cache then has
    # room left for a fraction of a page), some that pages fill exactly.
    capacity_bytes = capacity_pages * BLOCK + draw(st.one_of(
        st.sampled_from([0, 41, BLOCK // 3]), st.integers(0, BLOCK - 1)))
    decoded_capacity = draw(st.sampled_from([None, 0, 2]))
    return capacity_bytes, decoded_capacity, draw(steps(capacity_pages))


@given(scripts())
@settings(max_examples=300, deadline=None)
def test_bulk_churn_leaves_the_state_of_the_per_page_loop(script):
    capacity_bytes, decoded_capacity, script_steps = script
    clock, cache = make_world(capacity_bytes, decoded_capacity, False)
    ref_clock, ref_cache = make_world(capacity_bytes, decoded_capacity, True)
    for step in script_steps:
        assert apply(cache, step) == apply(ref_cache, step)
        assert state(clock, cache) == state(ref_clock, ref_cache), step
    assert cache.used_bytes == cache._front * cache._front_size + sum(
        len(p) for p in cache._pages.values())
    assert len(cache) == len(ref_cache)


def test_foreign_pages_are_numbered_by_the_cache_and_share_one_buffer():
    _, cache = make_world(4 * BLOCK, None, False)
    cache.displace(3, BLOCK)
    cache.displace(2, BLOCK)          # evicts foreign page 0
    assert [key[2] for key in cache._pages] == [1, 2, 3, 4]
    assert len({id(page.obj) for page in cache._pages.values()}) == 1
    cache.displace(9, BLOCK)          # 5 of the 9 never exist, 4 are a run
    assert (cache._front, cache._front_size, len(cache)) == (4, BLOCK, 4)
    assert cache.used_bytes == 4 * BLOCK
    assert cache.stats.evictions == 1 + 4 + 5
    cache.displace(2, BLOCK)          # evicts two pages of the run
    assert [key[2] for key in cache._pages] == [14, 15]
    assert (cache._front, cache.used_bytes) == (2, 4 * BLOCK)
    assert cache.stats.evictions == 1 + 4 + 5 + 2


def test_a_front_run_of_small_pages_is_evicted_a_ceiling_at_a_time():
    # Evicting 100 bytes from a run of 85-byte pages takes two of them.
    _, cache = make_world(4 * BLOCK, None, False)
    small = BLOCK // 3
    cache.displace(4 * BLOCK // small + 1, small)
    assert cache._front == 4 * BLOCK // small
    free = cache.capacity_bytes - cache.used_bytes
    cache.displace(1, free + 100)
    assert cache._front == 4 * BLOCK // small - 2
    assert len(cache._pages) == 1


@pytest.mark.parametrize("capacity_pages", [10, 10_000])
def test_a_full_churn_builds_no_page_entry(capacity_pages):
    _, cache = make_world(capacity_pages * BLOCK, None, False)
    for path, size in FILES.items():
        cache.read_decoded(path, 0, size, bytes)
    assert cache._pages and cache.decoded_entries
    cache.displace(2 * capacity_pages, BLOCK)
    assert (len(cache._pages), cache.decoded_entries) == (0, 0)
    assert not cache._decoded_by_page
    assert (cache._front, len(cache)) == (capacity_pages, capacity_pages)
    assert cache.used_bytes == capacity_pages * BLOCK
