"""LSM-tree key-value store over simulated storage."""

from repro.lsm.block import Block, BlockBuilder
from repro.lsm.compaction import Compactor
from repro.lsm.db import DBStats, LSMTree
from repro.lsm.iterator import merge_entries
from repro.lsm.manifest import Manifest, ManifestEntry, ManifestLoad
from repro.lsm.memtable import TOMBSTONE, Entry, MemTable
from repro.lsm.options import LSMOptions
from repro.lsm.recovery import QuarantinedFile, RecoveryReport
from repro.lsm.sstable import SSTable, SSTableReader
from repro.lsm.torture import (
    CrashPointResult,
    SweepResult,
    crash_point_sweep,
    generate_workload,
    run_crash_point,
)
from repro.lsm.version import Version
from repro.lsm.wal import WriteAheadLog

__all__ = [
    "Block",
    "BlockBuilder",
    "Compactor",
    "CrashPointResult",
    "DBStats",
    "Entry",
    "LSMOptions",
    "LSMTree",
    "Manifest",
    "ManifestEntry",
    "ManifestLoad",
    "MemTable",
    "QuarantinedFile",
    "RecoveryReport",
    "SSTable",
    "SSTableReader",
    "SweepResult",
    "TOMBSTONE",
    "Version",
    "WriteAheadLog",
    "crash_point_sweep",
    "generate_workload",
    "merge_entries",
    "run_crash_point",
]
