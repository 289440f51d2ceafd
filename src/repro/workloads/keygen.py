"""Key generators for datasets and attack candidates.

The paper's datasets are uniformly random fixed-width keys derived with
SHA1 (section 10.1) — the *worst case* for the attack (section 8), since
skewed distributions only help the attacker.  Generators for clustered
and variable-length string keys are provided for the extension
experiments.
"""

from __future__ import annotations

from typing import List

from repro.common.errors import ConfigError
from repro.common.keys import sha1_key
from repro.common.rng import make_rng


def sha1_dataset(num_keys: int, width: int, seed: int = 0) -> List[bytes]:
    """The paper's dataset: ``num_keys`` distinct SHA1-derived keys.

    Deterministic in (num_keys, width, seed); sorted ascending, ready for
    ``bulk_load``.  Collisions (astronomically unlikely at reproduction
    scales) are resolved by extending the index space.
    """
    if num_keys < 0:
        raise ConfigError("num_keys must be non-negative")
    namespace = f"dataset/{seed}".encode()
    seen = set()
    index = 0
    while len(seen) < num_keys:
        seen.add(sha1_key(index, width, namespace))
        index += 1
    return sorted(seen)


def clustered_dataset(num_keys: int, width: int, num_clusters: int = 64,
                      cluster_prefix_len: int = 2, seed: int = 0
                      ) -> List[bytes]:
    """Structured keys: a few shared cluster prefixes plus random tails.

    Models real identifier spaces (tenant ids, table ids, time buckets)
    whose prefixes are far from uniform.  Section 8 predicts such skew
    only *helps* the attacker: SuRF must store longer pruned prefixes, so
    identified prefixes get longer and extension gets cheaper.  The
    cluster prefixes themselves are SHA1-derived and deterministic in the
    seed, so experiments can model a prefix-aware attacker.
    """
    if num_keys < 0:
        raise ConfigError("num_keys must be non-negative")
    if not 0 < cluster_prefix_len < width:
        raise ConfigError("cluster prefix must be shorter than the key")
    if num_clusters <= 0:
        raise ConfigError("need at least one cluster")
    prefixes = cluster_prefixes(num_clusters, cluster_prefix_len, seed)
    rng = make_rng(seed, "clustered")
    tail = width - cluster_prefix_len
    out = set()
    while len(out) < num_keys:
        prefix = prefixes[rng.randrange(num_clusters)]
        out.add(prefix + rng.random_bytes(tail))
    return sorted(out)


def cluster_prefixes(num_clusters: int, cluster_prefix_len: int = 2,
                     seed: int = 0) -> List[bytes]:
    """The (publicly knowable) cluster prefixes of a clustered dataset."""
    seen = []
    index = 0
    while len(seen) < num_clusters:
        prefix = sha1_key(index, cluster_prefix_len, f"clusters/{seed}".encode())
        index += 1
        if prefix not in seen:
            seen.append(prefix)
    return sorted(seen)


class StringKeyGenerator:
    """Variable-length ASCII keys (object-store names, DB row keys).

    Keys look like ``<bucket>/<object>-<counter>``: realistic shared
    prefixes, exactly the structure SuRF prunes well and the attack then
    reveals.
    """

    _BUCKETS = ["invoices", "payroll", "users", "media", "logs", "backups"]

    def __init__(self, seed: int = 0) -> None:
        self._rng = make_rng(seed, "strings")
        self._counter = 0

    def next_key(self) -> bytes:
        """One fresh hierarchical string key."""
        bucket = self._rng.choice(self._BUCKETS)
        token = "".join(
            chr(ord("a") + self._rng.randrange(26))
            for _ in range(self._rng.randint(4, 10))
        )
        self._counter += 1
        return f"{bucket}/{token}-{self._counter:06d}".encode()

    def keys(self, count: int) -> List[bytes]:
        """``count`` distinct keys, sorted."""
        out = set()
        while len(out) < count:
            out.add(self.next_key())
        return sorted(out)
