"""Background legitimate-load generator.

The paper's experiments run 32 threads of legitimate ``get()`` traffic (50%
present keys, 50% non-present) against the store while the attack executes
(section 10.1).  That load matters to the attack for exactly one reason: its
I/O churns the page cache, so an SSTable block pulled in by a false-positive
query is evicted again if the attacker waits between iterations (section 9).

Rather than simulate thousands of interleaved queries per attack iteration,
this generator models the load's *effect*: given a wait duration, it works
out how many foreign pages the legitimate load would have faulted in during
that time, has the page cache displace that many in one step
(:meth:`PageCache.displace`), and advances the simulated clock by the wait.
The I/O rate is configurable; the default displaces a 64 MiB cache
comfortably within the paper's 20-second wait.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.common.errors import ConfigError
from repro.common.rng import SeededRng, make_rng
from repro.storage.page_cache import PageCache


@dataclass(frozen=True)
class LoadModel:
    """Intensity of the legitimate background traffic.

    ``miss_ios_per_second`` is the rate of page-cache *misses* the load
    causes; each miss faults one foreign block into the cache.
    """

    miss_ios_per_second: float = 4000.0

    def __post_init__(self) -> None:
        if self.miss_ios_per_second <= 0:
            raise ConfigError("background load rate must be positive")


class BackgroundLoad:
    """Churns a :class:`PageCache` to emulate a loaded production system."""

    def __init__(self, cache: PageCache, model: LoadModel = LoadModel(),
                 rng: SeededRng = None) -> None:
        self.cache = cache
        self.model = model
        self._rng = rng or make_rng(None, "background")
        self.total_foreign_pages = 0

    def run_for(self, duration_us: float) -> int:
        """Advance the clock by ``duration_us`` of legitimate traffic.

        Returns the number of foreign pages faulted into the cache.  The
        count is capped at twice the cache's page capacity: more cannot
        change the cache contents.  The cap stays at 2x although
        :meth:`PageCache.displace` never builds the surplus pages, nor,
        when the count overflows the cache, the pages it keeps (they are
        a count at the LRU front) — each surplus page counts as an
        eviction, and the experiments' and the e2e benchmark's golden
        values include that counter.  The wait therefore costs the pages
        read since the previous one, not the cache's capacity.
        """
        if not 0 <= duration_us < math.inf:
            raise ConfigError(
                f"cannot run background load for {duration_us} us: the "
                "duration must be finite and non-negative")
        pages = int(self.model.miss_ios_per_second * duration_us / 1e6)
        block_size = self.cache.device.model.block_size
        cap = 2 * max(1, self.cache.capacity_bytes // block_size)
        inserted = min(pages, cap)
        self.cache.displace(inserted, block_size)
        self.total_foreign_pages += inserted
        self.cache.device.clock.charge(duration_us)
        return inserted

    def eviction_wait_us(self) -> float:
        """Wait long enough for the load to displace the whole cache.

        The attack's scheduler calls this between breadth-first iterations;
        it is the simulated analogue of the paper's fixed 20-second wait.
        """
        block_size = self.cache.device.model.block_size
        pages = max(1, self.cache.capacity_bytes // block_size)
        # 1.5x safety margin over the exact displacement time.
        return 1.5 * pages / self.model.miss_ios_per_second * 1e6
