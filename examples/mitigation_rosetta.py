#!/usr/bin/env python3
"""Mitigation demo: the same attack, against Rosetta (paper section 11).

Rosetta answers point queries from its bottom-level Bloom filter only, so
a false positive is a hash collision that shares no prefix with any stored
key: characteristic C1 fails and prefix siphoning collapses to brute
force.  The price is memory — this demo prints the bits/key comparison.

Run:  python examples/mitigation_rosetta.py
"""

from repro.core import (
    AttackConfig,
    IdealizedOracle,
    PrefixSiphoningAttack,
    SurfAttackStrategy,
)
from repro.filters import RosettaFilterBuilder, SuRFBuilder
from repro.filters.surf import SuffixScheme, SurfVariant
from repro.workloads import ATTACKER_USER, DatasetConfig, build_environment

KEY_WIDTH = 4
NUM_KEYS = 20_000


def attack_store(filter_builder, scheme, mode) -> tuple:
    """Build a store with the given filter and attack it."""
    env = build_environment(DatasetConfig(
        num_keys=NUM_KEYS, key_width=KEY_WIDTH,
        filter_builder=filter_builder))
    strategy = SurfAttackStrategy(key_width=KEY_WIDTH, filter_scheme=scheme,
                                  mode=mode, confirm_probes=2)
    attack = PrefixSiphoningAttack(
        IdealizedOracle(env.service, ATTACKER_USER), strategy,
        AttackConfig(key_width=KEY_WIDTH, num_candidates=20_000,
                     max_extension_queries=1 << 10))
    result = attack.run()
    filt = next(env.db.version.all_tables()).filter
    stored = env.key_set
    correct = sum(1 for e in result.extracted if e.key in stored)
    return result, correct, filt.bits_per_key(
        getattr(filt, "num_keys", 1) or 1)


def main() -> None:
    print(f"target: {NUM_KEYS:,} 32-bit keys; same attack budget for both\n")

    result, correct, bits = attack_store(
        SuRFBuilder(variant="real", suffix_bits=8),
        SuffixScheme(SurfVariant.REAL, 8), mode="truncate")
    print(f"SuRF-Real   : {result.num_extracted:3d} keys extracted "
          f"({correct} verified), {bits:6.1f} bits/key")

    result, correct, bits = attack_store(
        RosettaFilterBuilder(key_bytes=KEY_WIDTH, bits_per_key_per_level=8.0),
        SuffixScheme(SurfVariant.BASE, 0), mode="replace")
    print(f"Rosetta     : {result.num_extracted:3d} keys extracted "
          f"({correct} verified), {bits:6.1f} bits/key, "
          f"{result.wasted_queries:,} probes wasted on prefix-free FPs")

    print("\nRosetta blocks the attack because its point-query false "
          "positives carry no prefix information — at a large memory cost "
          "and with no variable-length key support (paper section 11).")


if __name__ == "__main__":
    main()
