"""LSM-tree configuration and the in-memory cost model.

One options object wires the engine: sizes and the filter policy.  The
cost model — what the simulated clock charges for work not covered by
the storage device (request dispatch, memtable probe, filter probes) —
is a set of constants, not options: it is part of the simulated world
every experiment shares, like the paper's one fixed victim.  Costs are
explicit and centralized so the timing side channel the attack exploits
is auditable: a negative-key ``get`` pays ``GET_BASE_COST_US +
MEMTABLE_LOOKUP_COST_US + filters_checked * FILTER_QUERY_COST_US`` and
nothing else, landing in the paper's 5-10 us bucket, while a
false-positive ``get`` additionally pays for real block I/O.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.common.errors import ConfigError
from repro.filters.base import FilterBuilder

# Microsecond charges for in-memory work on the query path.
GET_BASE_COST_US = 4.0
PUT_BASE_COST_US = 1.0
MEMTABLE_LOOKUP_COST_US = 1.5
MEMTABLE_INSERT_COST_US = 1.2
FILTER_QUERY_COST_US = 0.4
INDEX_LOOKUP_COST_US = 0.5
BLOCK_SEARCH_COST_US = 0.7
RANGE_SEEK_COST_US = 2.0
RANGE_NEXT_COST_US = 0.2
#: Relative standard deviation applied to each jittered charge (CPU
#: scheduling, cache effects, allocator noise).  Without it the fast mode
#: of the response-time distribution would be a clean delta function,
#: unlike the paper's Table 1, and the attack's 4-query averaging would
#: be pointless.
COST_JITTER = 0.20
#: Levels a tree has, L0 included (RocksDB's default).
MAX_LEVELS = 7
#: Tiered compaction: runs within this size factor form one tier.
TIER_SIZE_RATIO = 2.0


@dataclass
class LSMOptions:
    """Tunable parameters of the LSM engine.

    The defaults describe the reproduction's scaled-down "industrial" setup
    (DESIGN.md section 2): small SSTables so a 50k-key dataset spreads over
    dozens of files, and a page cache far smaller than the on-device bytes
    so filter misses genuinely save I/O.
    """

    memtable_size_bytes: int = 256 * 1024
    sstable_target_bytes: int = 128 * 1024
    block_size_bytes: int = 4096
    #: "leveled" (RocksDB default: L0 flushes merge into non-overlapping
    #: deeper levels) or "tiered" (size-tiered/universal: overlapping runs
    #: of similar size merge together; fewer write amplifications, more
    #: runs — and therefore more filters — on the read path).
    compaction_style: str = "leveled"
    l0_compaction_trigger: int = 4
    level_size_multiplier: int = 10
    base_level_size_bytes: int = 1 * 1024 * 1024
    filter_builder: Optional[FilterBuilder] = None
    page_cache_bytes: int = 4 * 1024 * 1024
    #: Run compaction (either style) on a background thread: flushes
    #: install the L0 table and return immediately; merges run
    #: concurrently with serving through the MVCC version set (readers
    #: pin snapshots, so compaction never blocks the read path).
    #: Background I/O charges a throwaway clock — by design it is
    #: invisible in simulated time.
    background_compaction: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if self.memtable_size_bytes <= 0:
            raise ConfigError("memtable size must be positive")
        if self.sstable_target_bytes <= 0:
            raise ConfigError("sstable target size must be positive")
        if self.block_size_bytes <= 0:
            raise ConfigError("block size must be positive")
        if self.l0_compaction_trigger < 1:
            raise ConfigError("L0 compaction trigger must be at least 1")
        if self.compaction_style not in ("leveled", "tiered"):
            raise ConfigError(
                f"unknown compaction style {self.compaction_style!r}")
        if self.level_size_multiplier < 2:
            raise ConfigError("level size multiplier must be at least 2")
