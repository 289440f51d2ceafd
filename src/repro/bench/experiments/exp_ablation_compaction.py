"""Ablation — attack robustness across compaction styles.

The paper evaluates against RocksDB's leveled compaction.  Nothing about
prefix siphoning depends on the tree's shape, though: filters are
per-SSTable, and a ``get`` consults one filter per overlapping run either
way.  This ablation runs the same idealized attack against leveled and
size-tiered trees built from identical data and expects essentially
identical extraction — while also surfacing how the styles differ on the
read path (runs consulted per negative ``get``), the knob an operator
might wrongly hope defends them.
"""

from __future__ import annotations

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
from repro.workloads.keygen import sha1_dataset

PAPER_CLAIM = ("(beyond the paper) The attack rides on per-SSTable filters, "
               "not tree shape: leveled vs size-tiered compaction must not "
               "change what leaks")
SCALE_NOTE = "15k 40-bit keys inserted via the put path, then attacked"


def _build_service(style: str, keys) -> KVService:
    db = LSMTree(LSMOptions(
        compaction_style=style,
        memtable_size_bytes=32 * 1024,
        sstable_target_bytes=32 * 1024,
        filter_builder=SuRFBuilder(variant="real", suffix_bits=8),
    ))
    acl = Acl(owner=OWNER_USER)
    # Insert through the put path so each style shapes its own tree.
    for key in keys:
        db.put(key, pack_value(acl, key[::-1]))
    db.compact_all()
    return KVService(db)


def run(num_keys: int = 15_000, candidates: int = 15_000,
        seed: int = 0) -> ExperimentReport:
    """Same data, same attack, both compaction styles."""
    keys = sha1_dataset(num_keys, 5, seed)
    rows = []
    extracted = {}
    for style in ("leveled", "tiered"):
        service = _build_service(style, keys)
        db = service.db
        before_checks = db.stats.filter_checks
        before_gets = db.stats.gets
        oracle = IdealizedOracle(service, ATTACKER_USER)
        strategy = SurfAttackStrategy(
            5, SuffixScheme(SurfVariant.REAL, 8), seed=seed + 41)
        result = PrefixSiphoningAttack(oracle, strategy, AttackConfig(
            key_width=5, num_candidates=candidates)).run()
        stored = set(keys)
        extracted[style] = {e.key for e in result.extracted}
        gets = db.stats.gets - before_gets
        checks = db.stats.filter_checks - before_checks
        rows.append({
            "compaction": style,
            "runs_or_tables": db.version.total_tables(),
            "filters_per_get": checks / gets if gets else 0.0,
            "keys_extracted": result.num_extracted,
            "correct": sum(1 for e in result.extracted if e.key in stored),
            "queries_per_key": result.queries_per_key(),
        })
    return ExperimentReport(
        experiment="ablation-compaction",
        title="Attack robustness across compaction styles",
        paper_claim=PAPER_CLAIM,
        scale_note=SCALE_NOTE,
        rows=rows,
        summary={
            "same_keys_leak": extracted["leveled"] == extracted["tiered"],
            "leveled_keys": len(extracted["leveled"]),
            "tiered_keys": len(extracted["tiered"]),
        },
    )
