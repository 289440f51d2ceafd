"""Experiment dataset construction.

Builds the paper's target system in one call: an LSM-tree with the chosen
filter, bulk-loaded with SHA1-derived keys whose values carry an ACL owned
by a user the attacker is not, fronted by the ACL-checking service — plus
the page cache sized well below the dataset (the paper's cgroup-limited
2 GB DRAM against a ~50 GB store) and a background-load generator to churn
it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.common.errors import ConfigError
from repro.common.rng import make_rng
from repro.filters.base import FilterBuilder
from repro.lsm.db import LSMTree
from repro.lsm.options import LSMOptions
from repro.storage.background import BackgroundLoad, LoadModel
from repro.storage.clock import SimClock
from repro.storage.device import DeviceModel, StorageDevice
from repro.storage.page_cache import PageCache
from repro.system.acl import Acl, pack_value
from repro.system.service import KVService
from repro.workloads.keygen import sha1_dataset

#: The dataset owner's user id.
OWNER_USER = 1
#: The attacker's user id (not authorized for any object).
ATTACKER_USER = 666
#: Payload bytes per stored object (before the ACL header).
VALUE_SIZE = 64


@dataclass
class DatasetConfig:
    """Parameters of one experiment environment (DESIGN.md section 2)."""

    num_keys: int = 50_000
    key_width: int = 5
    seed: int = 0
    filter_builder: Optional[FilterBuilder] = None
    distinguish_unauthorized: bool = True
    #: Page cache as a fraction of on-device dataset bytes; the paper's
    #: setup is ~2 GB DRAM for ~50 GB of data, i.e. ~4%.
    cache_fraction: float = 0.05
    #: Run compaction on the background thread (MVCC read path
    #: pins version snapshots; background merges are free in simulated
    #: time — see DESIGN.md section 12).
    background_compaction: bool = False

    def __post_init__(self) -> None:
        if self.num_keys <= 0:
            raise ConfigError("num_keys must be positive")
        if self.key_width <= 0:
            raise ConfigError("key_width must be positive")
        if not 0.0 < self.cache_fraction <= 1.0:
            raise ConfigError("cache_fraction must be in (0, 1]")


@dataclass
class Environment:
    """Everything one experiment needs, fully wired."""

    config: DatasetConfig
    clock: SimClock
    device: StorageDevice
    cache: PageCache
    db: LSMTree
    service: KVService
    background: BackgroundLoad
    keys: List[bytes]

    @property
    def key_set(self) -> set:
        """The stored keys as a set (ground-truth checks in tests/benches)."""
        return set(self.keys)


def build_environment(config: DatasetConfig) -> Environment:
    """Construct the attacked system for one experiment."""
    clock = SimClock()
    rng = make_rng(config.seed, "env")
    device = StorageDevice(clock, DeviceModel(), rng.spawn("device"))

    keys = sha1_dataset(config.num_keys, config.key_width, config.seed)
    value_rng = rng.spawn("values")
    acl = Acl(owner=OWNER_USER)
    # Every packed value has the same length, so the dataset's size is
    # known before a value is drawn: the values stream into bulk_load,
    # one table's worth in memory at a time.
    value_len = len(pack_value(acl, bytes(VALUE_SIZE)))
    dataset_bytes = sum(map(len, keys)) + value_len * len(keys)
    cache_bytes = max(device.model.block_size,
                      int(dataset_bytes * config.cache_fraction))
    cache = PageCache(device, cache_bytes)

    options = LSMOptions(
        filter_builder=config.filter_builder,
        page_cache_bytes=cache_bytes,
        seed=config.seed,
        background_compaction=config.background_compaction,
    )
    db = LSMTree(options, clock=clock, device=device, cache=cache)
    db.bulk_load((key, pack_value(acl, value_rng.random_bytes(VALUE_SIZE)))
                 for key in keys)

    service = KVService(db, config.distinguish_unauthorized)
    background = BackgroundLoad(cache, LoadModel(), rng.spawn("background"))
    return Environment(config=config, clock=clock, device=device, cache=cache,
                       db=db, service=service, background=background, keys=keys)
