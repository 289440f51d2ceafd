"""Background load generator tests."""

import pytest

from repro.common.errors import ConfigError
from repro.storage.background import BackgroundLoad, LoadModel
from repro.storage.clock import SimClock
from repro.storage.device import StorageDevice
from repro.storage.page_cache import PageCache


def make_setup(capacity_blocks=8, rate=4000.0):
    clock = SimClock()
    device = StorageDevice(clock)
    cache = PageCache(device, capacity_blocks * device.model.block_size)
    return clock, device, cache, BackgroundLoad(cache, LoadModel(rate))


class TestRunFor:
    def test_advances_clock(self):
        clock, _, _, load = make_setup()
        load.run_for(1_000_000.0)
        assert clock.now_us == pytest.approx(1_000_000.0)

    def test_displaces_cached_pages(self):
        _, device, cache, load = make_setup(capacity_blocks=4)
        device.create_file("a", b"x" * device.model.block_size)
        cache.read_block("a", 0)
        load.run_for(load.eviction_wait_us())
        assert not cache.contains("a", 0)

    def test_short_wait_does_not_displace(self):
        _, device, cache, load = make_setup(capacity_blocks=8)
        device.create_file("a", b"x" * device.model.block_size)
        cache.read_block("a", 0)
        load.run_for(100.0)  # far too short for any page fault
        assert cache.contains("a", 0)

    def test_insertion_capped(self):
        _, _, cache, load = make_setup(capacity_blocks=4, rate=1e9)
        inserted = load.run_for(10_000_000.0)
        assert inserted <= 2 * 4  # at most twice the cache's page capacity

    def test_negative_duration_rejected(self):
        _, _, _, load = make_setup()
        with pytest.raises(ConfigError):
            load.run_for(-1.0)

    @pytest.mark.parametrize("duration_us", [float("nan"), float("inf")])
    def test_non_finite_duration_rejected(self, duration_us):
        clock, _, cache, load = make_setup()
        with pytest.raises(ConfigError):
            load.run_for(duration_us)
        assert clock.now_us == 0.0 and len(cache) == 0

    @pytest.mark.parametrize("second_wait_pages", [2, 4])
    def test_two_loads_on_one_cache_do_not_share_page_identity(
            self, second_wait_pages):
        """Two loads waiting once each churn the cache as one load waiting
        twice does.  When every load numbered its own pages from 0, the
        second load's pages replaced the first's instead of displacing."""
        def run(two_loads):
            _, device, cache, first = make_setup(capacity_blocks=4)
            second = BackgroundLoad(cache, first.model) if two_loads else first
            device.create_file("a", b"x" * device.model.block_size)
            page_us = 1e6 / first.model.miss_ios_per_second
            assert first.run_for(2 * page_us) == 2
            cache.read_block("a", 0)
            assert second.run_for(second_wait_pages * page_us) \
                == second_wait_pages
            return cache

        one, two = run(two_loads=False), run(two_loads=True)
        # The block sits behind 2 foreign pages in a 4-page cache.
        evicted = second_wait_pages == 4
        assert one.contains("a", 0) == two.contains("a", 0) == (not evicted)
        assert len(two) == len(one) == 4
        assert two.used_bytes == one.used_bytes
        assert two.stats.evictions == one.stats.evictions \
            == 2 + 1 + second_wait_pages - 4


class TestEvictionWait:
    def test_wait_scales_with_cache_size(self):
        _, _, _, small = make_setup(capacity_blocks=4)
        _, _, _, big = make_setup(capacity_blocks=64)
        assert big.eviction_wait_us() > small.eviction_wait_us()

    def test_wait_scales_inversely_with_rate(self):
        _, _, _, slow = make_setup(rate=100.0)
        _, _, _, fast = make_setup(rate=10_000.0)
        assert slow.eviction_wait_us() > fast.eviction_wait_us()


def test_invalid_rate_rejected():
    with pytest.raises(ConfigError):
        LoadModel(0.0)
