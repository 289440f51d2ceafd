"""The plain scalar point read: one key, one loop, nothing hoisted.

This is the ``LSMTree.get`` body from before the reads moved into
``repro.lsm.read_path`` — every charge goes through ``db.charge_cost``,
every filter is probed with the scalar ``may_contain``.  It proves the
**clock**: the production search loop, with or without a probe plan,
must charge the same amounts in the same order from the same RNG stream.
"""

from __future__ import annotations

from typing import Optional

from repro.lsm.options import (
    FILTER_QUERY_COST_US,
    GET_BASE_COST_US,
    MEMTABLE_LOOKUP_COST_US,
)


def scalar_get(db, key: bytes, version=None) -> Optional[bytes]:
    """``db.get(key)``, spelled out (``db``: an open ``LSMTree``, or a
    ``SnapshotView`` with its pinned ``version``)."""
    db.stats.gets += 1
    db.charge_cost(GET_BASE_COST_US + MEMTABLE_LOOKUP_COST_US)
    entry = db._memtable.get(key)
    if entry is not None:
        db.stats.memtable_hits += 1
        return entry.value
    search = version if version is not None else db.versions.pin()
    try:
        for table in search.candidates_for_key(key):
            if table.filter is not None:
                db.stats.filter_checks += 1
                db.charge_cost(FILTER_QUERY_COST_US)
                if not table.filter.may_contain(key):
                    db.stats.filter_negatives += 1
                    continue
            db.stats.table_reads += 1
            entry = table.reader.get(key, db.cache)
            if entry is not None:
                return entry.value
        return None
    finally:
        if version is None:
            db.versions.unpin(search)


def scalar_get_many_timed(db, keys, version=None, request_us=None,
                          on_found=None, until=None, admit=None):
    """``db.get_many_timed(keys, ...)`` as the per-key loop it abbreviates:
    ``admit`` before each key and outside its time, the request envelope
    charged through ``db.charge_cost``, ``on_found`` on each found value,
    the loop cut by ``until``."""
    out = []
    for key in keys:
        if admit is not None:
            admit()
        start = db.clock.now_us
        if request_us is not None:
            db.charge_cost(request_us)
        value = scalar_get(db, key, version)
        if value is not None and on_found is not None:
            value = on_found(value)
        out.append((value, db.clock.now_us - start))
        if value is not None and until is not None and until(value):
            break
    return out


def use_scalar_reads(db) -> None:
    """Serve every point-read entry of ``db`` from :func:`scalar_get`.

    Instance-level overrides: each batch API becomes the per-key loop it
    abbreviates — the shape the whole attack stack ran on before the
    batched engine.
    """
    def get(key):
        return scalar_get(db, key)

    def get_many_timed(keys, **envelope):
        return scalar_get_many_timed(db, keys, **envelope)

    db.get = get
    db.getter = lambda: get
    db.get_many = lambda keys, **envelope: [
        value for value, _ in get_many_timed(keys, **envelope)]
    db.get_many_timed = get_many_timed
    db.filters_pass_many = lambda keys: [db.filters_pass(key) for key in keys]
