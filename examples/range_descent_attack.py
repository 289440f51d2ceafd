#!/usr/bin/env python3
"""The anticipated range-query attack (paper sections 5 and 11).

The paper's attack uses only point queries; its mitigation section warns
that defenses like Rosetta or separate point/range filters would not
survive attacks against *range* queries.  This demo runs our realization
of that attack — range-descent siphoning — twice:

1. against SuRF-Real, where it systematically enumerates stored keys in
   lexicographic order instead of waiting for lucky false positives;
2. against Rosetta, which completely blocks the point-query attack but
   resolves range queries at full depth — surrendering exact keys almost
   for free.

Run:  python examples/range_descent_attack.py
"""

from repro.core.range_attack import (
    IdealizedRangeOracle,
    RangeAttackConfig,
    RangeDescentAttack,
)
from repro.filters import RosettaFilterBuilder, SuRFBuilder
from repro.workloads import ATTACKER_USER, DatasetConfig, build_environment

TARGET_KEYS = 12


def demo(name, filter_builder, key_width, num_keys):
    env = build_environment(DatasetConfig(
        num_keys=num_keys, key_width=key_width, seed=5,
        filter_builder=filter_builder))
    oracle = IdealizedRangeOracle(env.service, ATTACKER_USER)
    attack = RangeDescentAttack(oracle, RangeAttackConfig(
        key_width=key_width, max_keys=TARGET_KEYS))
    result = attack.run()
    stored = env.key_set
    verified = sum(1 for k in result.keys if k in stored)
    print(f"{name}: walked the dataset's trie through range-query timing")
    for key in result.keys[:6]:
        print(f"  {key.hex()}")
    print(f"  -> {len(result.keys)} keys ({verified} verified), in sorted "
          f"order: {result.keys == sorted(result.keys)}, "
          f"{result.queries_per_key():,.0f} queries/key\n")


def main() -> None:
    demo("SuRF-Real", SuRFBuilder(variant="real", suffix_bits=8),
         key_width=5, num_keys=10_000)
    demo("Rosetta (immune to the point attack!)",
         RosettaFilterBuilder(key_bytes=4, bits_per_key_per_level=8.0),
         key_width=4, num_keys=5_000)
    print("moral: a filter that is safe against point-query siphoning can "
          "still leak every key through its range interface")


if __name__ == "__main__":
    main()
