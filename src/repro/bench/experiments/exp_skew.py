"""Extension — skewed key distributions (paper section 8).

Section 8 analyzes uniformly random keys as "the worst case for our
attack": with skew, "(1) the guessing and full-key extraction steps can
incorporate this knowledge; and (2) the prefixes SuRF stores are longer,
so our attack will identify longer prefixes and thus extend them to full
keys faster."  This experiment verifies both claims empirically by
attacking a uniform dataset and a clustered one (tenant-style 2-byte
prefixes, publicly known) of equal size with the same budget.
"""

from __future__ import annotations

from typing import List

from repro.bench.report import ExperimentReport
from repro.core.oracle import IdealizedOracle
from repro.core.surf_attack import SurfAttackStrategy
from repro.core.template import AttackConfig, PrefixSiphoningAttack
from repro.filters.surf import SuRFBuilder, SuffixScheme, SurfVariant
from repro.lsm.db import LSMTree
from repro.lsm.options import LSMOptions
from repro.system.acl import Acl, pack_value
from repro.system.service import KVService
from repro.workloads.datasets import ATTACKER_USER, OWNER_USER
from repro.workloads.keygen import cluster_prefixes, clustered_dataset, sha1_dataset

PAPER_CLAIM = ("Section 8: uniform keys are the attack's worst case — skew "
               "lengthens SuRF's stored prefixes and sharpens guessing, so "
               "the attack extracts more keys faster")
SCALE_NOTE = ("30k 40-bit keys each; clustered = 64 public 2-byte tenant "
              "prefixes + random tails; 30k candidates either way")


class _ClusterAwareStrategy(SurfAttackStrategy):
    """FindFPK that spends its guesses inside the known cluster prefixes."""

    def __init__(self, prefixes: List[bytes], **kwargs) -> None:
        super().__init__(**kwargs)
        self._prefixes = prefixes

    def generate_candidates(self, count: int) -> List[bytes]:
        tail = self.key_width - len(self._prefixes[0])
        return [
            self._prefixes[self._rng.randrange(len(self._prefixes))]
            + self._rng.random_bytes(tail)
            for _ in range(count)
        ]


def _build_service(keys) -> KVService:
    db = LSMTree(LSMOptions(
        filter_builder=SuRFBuilder(variant="real", suffix_bits=8)))
    acl = Acl(owner=OWNER_USER)
    db.bulk_load([(k, pack_value(acl, k[::-1])) for k in keys])
    return KVService(db)


def run(num_keys: int = 30_000, candidates: int = 30_000,
        seed: int = 0) -> ExperimentReport:
    """Attack equal-sized uniform vs clustered datasets."""
    scheme = SuffixScheme(SurfVariant.REAL, 8)
    rows = []
    results = {}

    uniform_keys = sha1_dataset(num_keys, 5, seed)
    clustered_keys = clustered_dataset(num_keys, 5, num_clusters=64,
                                       cluster_prefix_len=2, seed=seed)
    prefixes = cluster_prefixes(64, 2, seed)

    for label, keys, strategy in (
        ("uniform", uniform_keys,
         SurfAttackStrategy(5, scheme, seed=seed + 11)),
        ("clustered (prefix-aware attacker)", clustered_keys,
         _ClusterAwareStrategy(prefixes, key_width=5, filter_scheme=scheme,
                               seed=seed + 11)),
    ):
        service = _build_service(keys)
        oracle = IdealizedOracle(service, ATTACKER_USER)
        attack = PrefixSiphoningAttack(oracle, strategy, AttackConfig(
            key_width=5, num_candidates=candidates))
        result = attack.run()
        results[label] = result
        stored = set(keys)
        identified = result.prefixes_identified
        avg_prefix = (sum(len(p.prefix) for p in identified) / len(identified)
                      if identified else 0.0)
        rows.append({
            "dataset": label,
            "fps_found": len(identified),
            "avg_identified_prefix_bytes": avg_prefix,
            "keys_extracted": result.num_extracted,
            "correct": sum(1 for e in result.extracted if e.key in stored),
            "queries_per_key": result.queries_per_key(),
        })
    uniform_row, clustered_row = rows
    return ExperimentReport(
        experiment="skew",
        title="Skewed key distributions help the attacker (section 8)",
        paper_claim=PAPER_CLAIM,
        scale_note=SCALE_NOTE,
        rows=rows,
        summary={
            # The two concrete section-8 predictions:
            "skew_longer_prefixes": (
                clustered_row["avg_identified_prefix_bytes"]
                > uniform_row["avg_identified_prefix_bytes"]),
            "skew_cheaper_per_key": (clustered_row["queries_per_key"]
                                     < uniform_row["queries_per_key"]),
            "per_key_cost_ratio": (uniform_row["queries_per_key"]
                                   / clustered_row["queries_per_key"]),
        },
    )
