"""Page cache tests: LRU behaviour and the timing asymmetry."""

import pytest

from repro.common.errors import ConfigError
from repro.storage.clock import SimClock
from repro.storage.device import DeviceModel, StorageDevice
from repro.storage.page_cache import PageCache


def make_cache(capacity_blocks=4):
    clock = SimClock()
    device = StorageDevice(clock, DeviceModel())
    cache = PageCache(device, capacity_blocks * device.model.block_size)
    return clock, device, cache


class TestReadThrough:
    def test_miss_then_hit(self):
        clock, device, cache = make_cache()
        device.create_file("a", b"x" * device.model.block_size)
        t0 = clock.now_us
        cache.read("a", 0, 10)
        miss_cost = clock.now_us - t0
        t1 = clock.now_us
        cache.read("a", 0, 10)
        hit_cost = clock.now_us - t1
        # The attack's core signal: a cached read is far cheaper.
        assert hit_cost < miss_cost / 5
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_content_correct_across_blocks(self):
        _, device, cache = make_cache()
        block = device.model.block_size
        payload = bytes((i % 251) for i in range(3 * block))
        device.create_file("a", payload)
        assert cache.read("a", block - 10, 20) == payload[block - 10 : block + 10]

    def test_contains_is_free(self):
        clock, device, cache = make_cache()
        device.create_file("a", b"x" * 100)
        t0 = clock.now_us
        assert not cache.contains("a", 0)
        assert clock.now_us == t0


class TestEviction:
    def test_lru_eviction(self):
        _, device, cache = make_cache(capacity_blocks=2)
        block = device.model.block_size
        device.create_file("a", b"x" * (block * 3))
        cache.read_block("a", 0)
        cache.read_block("a", 1)
        cache.read_block("a", 2)  # evicts block 0
        assert not cache.contains("a", 0)
        assert cache.contains("a", 1)
        assert cache.contains("a", 2)
        assert cache.stats.evictions == 1

    def test_lru_order_updated_on_hit(self):
        _, device, cache = make_cache(capacity_blocks=2)
        block = device.model.block_size
        device.create_file("a", b"x" * (block * 3))
        cache.read_block("a", 0)
        cache.read_block("a", 1)
        cache.read_block("a", 0)  # refresh 0
        cache.read_block("a", 2)  # should evict 1, not 0
        assert cache.contains("a", 0)
        assert not cache.contains("a", 1)

    def test_foreign_insertion_displaces(self):
        _, device, cache = make_cache(capacity_blocks=2)
        device.create_file("a", b"x" * device.model.block_size)
        cache.read_block("a", 0)
        cache.displace(1, device.model.block_size)
        cache.displace(1, device.model.block_size)
        assert not cache.contains("a", 0)

    def test_capacity_respected(self):
        _, device, cache = make_cache(capacity_blocks=3)
        for _ in range(10):
            cache.displace(1, device.model.block_size)
        assert cache.used_bytes <= cache.capacity_bytes

    def test_invalidate_file(self):
        _, device, cache = make_cache()
        device.create_file("a", b"x" * 100)
        cache.read_block("a", 0)
        cache.invalidate_file("a")
        assert not cache.contains("a", 0)
        assert cache.used_bytes == 0

    def test_clear(self):
        _, device, cache = make_cache()
        device.create_file("a", b"x" * 100)
        cache.read_block("a", 0)
        cache.clear()
        assert len(cache) == 0

    def test_clear_drops_a_full_churns_foreign_run(self):
        _, device, cache = make_cache()
        cache.displace(9, device.model.block_size)
        assert len(cache) == 4
        cache.clear()
        assert (len(cache), cache.used_bytes) == (0, 0)

    @pytest.mark.parametrize("count, size", [(-3, 4096), (-1, 1), (5, 0),
                                             (0, 0), (1, -4096)])
    def test_displace_rejects_a_negative_count_or_a_non_positive_size(
            self, count, size):
        # A negative count once drove used_bytes below zero, after which
        # real pages piled up past the capacity unevicted; a zero size
        # added entries that weigh nothing against it.
        clock, device, cache = make_cache()
        device.create_file("a", b"x" * device.model.block_size)
        cache.read_block("a", 0)
        def state():
            return (list(cache._pages), len(cache), cache.used_bytes,
                    dict(vars(cache.stats)), clock.now_us)

        before = state()
        with pytest.raises(ConfigError):
            cache.displace(count, size)
        assert state() == before

    def test_tiny_capacity_rejected(self):
        clock = SimClock()
        device = StorageDevice(clock)
        with pytest.raises(ConfigError):
            PageCache(device, 10)


def test_hit_rate_stat():
    _, device, cache = make_cache()
    device.create_file("a", b"x" * 100)
    cache.read_block("a", 0)
    cache.read_block("a", 0)
    cache.read_block("a", 0)
    assert cache.stats.hit_rate == pytest.approx(2 / 3)


class TestZeroLengthRead:
    def test_returns_empty_without_charge_or_stats(self):
        clock, device, cache = make_cache()
        device.create_file("a", b"x" * 100)
        t0 = clock.now_us
        assert cache.read("a", 0, 0) == b""
        assert clock.now_us == t0
        assert cache.stats.hits == 0
        assert cache.stats.misses == 0
        assert len(cache) == 0

    def test_zero_length_at_nonzero_offset(self):
        clock, device, cache = make_cache()
        device.create_file("a", b"x" * (2 * device.model.block_size))
        t0 = clock.now_us
        assert cache.read("a", device.model.block_size + 7, 0) == b""
        assert clock.now_us == t0

    @pytest.mark.parametrize("mapped", [False, True])
    def test_zero_length_decoded_read_touches_nothing(self, mapped):
        # Like read(): no page faulted, no charge, no stats, whether or not
        # a region is passed (a mapped zero-length read once faulted the
        # page under its offset).
        clock, device, cache = make_cache()
        device.create_file("f", b"x" * 300)
        region = device.map_file("f") if mapped else None
        t0 = clock.now_us
        for _ in range(2):
            assert bytes(cache.read_decoded("f", 100, 0, bytes,
                                            region=region)) == b""
        assert cache.read_decoded_many(
            [("f", 100, 0, bytes, region)]) == [b""]
        assert clock.now_us == t0
        assert (len(cache), cache.decoded_entries) == (0, 0)
        assert vars(cache.stats) == vars(type(cache.stats)())


class TestDecodedLayer:
    """The decoded-object side table: wall-clock only, charges identical."""

    def test_decode_runs_once_while_pages_resident(self):
        _, device, cache = make_cache()
        device.create_file("a", b"x" * device.model.block_size)
        calls = []

        def decode(data):
            calls.append(data)
            return ("decoded", data)

        first = cache.read_decoded("a", 0, 64, decode)
        second = cache.read_decoded("a", 0, 64, decode)
        assert first is second
        assert len(calls) == 1
        assert cache.stats.decoded_misses == 1
        assert cache.stats.decoded_hits == 1

    def test_decoded_hit_charges_same_as_plain_cached_read(self):
        # Twin caches over twin devices: one uses read_decoded, the other
        # plain read.  Simulated charges must be identical in every step.
        clock_a, device_a, cache_a = make_cache()
        clock_b, device_b, cache_b = make_cache()
        payload = bytes(range(256)) * 16
        device_a.create_file("a", payload)
        device_b.create_file("a", payload)
        for _ in range(3):
            t0a, t0b = clock_a.now_us, clock_b.now_us
            decoded = cache_a.read_decoded("a", 8, 200, bytes)
            raw = cache_b.read("a", 8, 200)
            assert bytes(decoded) == raw
            assert clock_a.now_us - t0a == pytest.approx(clock_b.now_us - t0b)
        assert cache_a.stats.hits == cache_b.stats.hits
        assert cache_a.stats.misses == cache_b.stats.misses

    def test_multi_page_decoded_hit_replays_a_plain_read(self):
        # Ranges over one, two and three pages, revisited in an order that
        # mixes hits, misses and evictions: after every step the page LRU
        # order, the counters and the clock equal a plain read()'s.
        clock_a, device_a, cache_a = make_cache(capacity_blocks=4)
        clock_b, device_b, cache_b = make_cache(capacity_blocks=4)
        block = device_a.model.block_size
        payload = bytes(range(256)) * (6 * block // 256)
        device_a.create_file("a", payload)
        device_b.create_file("a", payload)
        ranges = [(8, 200), (block - 50, 100), (block // 2, 2 * block),
                  (4 * block + 1, 10), (3 * block - 8, 16)]
        for offset, length in ranges * 2 + ranges[::-1] * 2:
            decoded = cache_a.read_decoded("a", offset, length, bytes)
            assert bytes(decoded) == cache_b.read("a", offset, length)
            assert list(cache_a._pages) == list(cache_b._pages)
            assert cache_a._front == cache_b._front
            assert clock_a.now_us == clock_b.now_us
        assert cache_a.stats.decoded_hits > 0
        assert (cache_a.stats.hits, cache_a.stats.misses,
                cache_a.stats.evictions) == (
            cache_b.stats.hits, cache_b.stats.misses, cache_b.stats.evictions)

    def test_page_eviction_invalidates_decoded_entry(self):
        _, device, cache = make_cache(capacity_blocks=2)
        block = device.model.block_size
        device.create_file("a", b"x" * (3 * block))
        calls = []
        cache.read_decoded("a", 0, 64, lambda d: calls.append(d) or len(calls))
        assert cache.contains_decoded("a", 0, 64)
        cache.read_block("a", 1)
        cache.read_block("a", 2)  # evicts page 0 -> decoded entry must go
        assert not cache.contains_decoded("a", 0, 64)
        cache.read_decoded("a", 0, 64, lambda d: calls.append(d) or len(calls))
        assert len(calls) == 2

    def test_invalidate_file_sweeps_decoded_entries(self):
        _, device, cache = make_cache()
        device.create_file("a", b"x" * 100)
        device.create_file("b", b"y" * 100)
        cache.read_decoded("a", 0, 32, bytes)
        cache.read_decoded("b", 0, 32, bytes)
        cache.invalidate_file("a")
        assert not cache.contains_decoded("a", 0, 32)
        assert cache.contains_decoded("b", 0, 32)

    def test_clear_drops_decoded_entries(self):
        _, device, cache = make_cache()
        device.create_file("a", b"x" * 100)
        cache.read_decoded("a", 0, 32, bytes)
        cache.clear()
        assert cache.decoded_entries == 0

    def test_decoded_lru_bounded(self):
        clock = SimClock()
        device = StorageDevice(clock, DeviceModel())
        cache = PageCache(device, 64 * device.model.block_size,
                          decoded_capacity=3)
        device.create_file("a", b"x" * device.model.block_size)
        for offset in range(0, 5 * 32, 32):
            cache.read_decoded("a", offset, 32, bytes)
        assert cache.decoded_entries == 3
        # Oldest two entries were dropped, newest three survive.
        assert not cache.contains_decoded("a", 0, 32)
        assert not cache.contains_decoded("a", 32, 32)
        assert cache.contains_decoded("a", 4 * 32, 32)

    def test_capacity_zero_disables_layer(self):
        clock = SimClock()
        device = StorageDevice(clock, DeviceModel())
        cache = PageCache(device, 4 * device.model.block_size,
                          decoded_capacity=0)
        device.create_file("a", b"x" * 100)
        calls = []
        for _ in range(3):
            cache.read_decoded("a", 0, 32, lambda d: calls.append(d) or d)
        assert len(calls) == 3
        assert cache.decoded_entries == 0

    def test_negative_capacity_rejected(self):
        clock = SimClock()
        device = StorageDevice(clock)
        with pytest.raises(ConfigError):
            PageCache(device, 64 * device.model.block_size,
                      decoded_capacity=-1)


class TestVersionScopedIdentity:
    """Cache keys carry the file generation: a recycled path (delete +
    recreate, or rename onto) must never serve blocks of its previous
    life, even when nobody calls ``invalidate_file``."""

    def test_recreated_path_never_serves_stale_pages(self):
        _, device, cache = make_cache()
        device.create_file("a", b"old" * 100)
        assert cache.read("a", 0, 6) == b"oldold"
        device.delete_file("a")
        device.create_file("a", b"new" * 100)
        assert cache.read("a", 0, 6) == b"newnew"

    def test_recreated_path_never_serves_stale_decoded_objects(self):
        _, device, cache = make_cache()
        device.create_file("a", b"old" * 100)
        assert bytes(cache.read_decoded("a", 0, 6, bytes)) == b"oldold"
        device.delete_file("a")
        device.create_file("a", b"new" * 100)
        assert bytes(cache.read_decoded("a", 0, 6, bytes)) == b"newnew"
        # The stale generation's entries are dead weight, not servable.
        assert cache.stats.decoded_hits == 0

    def test_rename_onto_cached_path_serves_target_content(self):
        _, device, cache = make_cache()
        device.create_file("a", b"old" * 100)
        device.create_file("b", b"new" * 100)
        assert cache.read("a", 0, 6) == b"oldold"
        device.rename("b", "a")
        assert cache.read("a", 0, 6) == b"newnew"

    def test_append_invalidates_tail_block_identity(self):
        _, device, cache = make_cache()
        device.create_file("a", b"x" * 10)
        assert cache.read("a", 0, 10) == b"x" * 10
        device.append("a", b"y" * 10)
        assert cache.read("a", 0, 20) == b"x" * 10 + b"y" * 10
