"""A SuRF-only store never imports numpy.

Only the Bloom-family build kernel uses numpy, and it imports it at first
use (DESIGN.md §9): the SuRF attack workloads and the write path of a
SuRF store stay clear of its import time and its ~12 MB of resident
memory.  The test suite itself imports numpy, so the store is driven in
an interpreter of its own: put_many (WAL, flushes, compactions), flush,
compact_all, reopen, get and bulk_load, with numpy checked after each.
"""

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"

SCRIPT = r"""
import sys

def check(step):
    if "numpy" in sys.modules:
        raise SystemExit(f"numpy imported by {step}")

from repro.common.rng import make_rng
from repro.filters import SuRFBuilder
from repro.lsm.db import LSMTree
from repro.lsm.options import LSMOptions
from repro.storage.clock import SimClock
from repro.storage.device import StorageDevice
check("import")

for backend in ("louds", "trie"):
    options = LSMOptions(memtable_size_bytes=8 * 1024,
                         sstable_target_bytes=8 * 1024,
                         l0_compaction_trigger=3,
                         base_level_size_bytes=32 * 1024,
                         level_size_multiplier=4,
                         page_cache_bytes=256 * 1024,
                         filter_builder=SuRFBuilder("real", 8,
                                                    backend=backend))
    rng = make_rng(1, "no-numpy")
    items = {rng.random_bytes(6): rng.random_bytes(40) for _ in range(3000)}
    pairs = list(items.items())
    device = StorageDevice(SimClock())
    db = LSMTree(options, clock=device.clock, device=device)
    for start in range(0, len(pairs), 100):
        db.put_many(pairs[start:start + 100])
    assert db.stats.flushes and db.compactions_run
    check("put_many")
    db.put_many(pairs[:10])
    db.flush()
    check("flush")
    db.compact_all()
    check("compact_all")
    db.close()
    reopened = LSMTree.reopen(device, options)
    check("reopen")
    assert all(reopened.get(key) == value for key, value in pairs[::17])
    check("get")
    reopened.close()
    bulk_device = StorageDevice(SimClock())
    bulk = LSMTree(options, clock=bulk_device.clock, device=bulk_device)
    bulk.bulk_load(sorted(pairs))
    assert all(bulk.get(key) == value for key, value in pairs[::29])
    check("bulk_load")
    bulk.close()
print("no numpy")
"""


def test_surf_store_never_imports_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    completed = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                               capture_output=True, text=True, timeout=600)
    assert completed.returncode == 0, completed.stdout + completed.stderr
    assert completed.stdout.strip() == "no numpy"
