"""Model-based crash torture: replay every crash point of a workload.

The harness generates a seeded workload of ``put``/``delete``/``flush``/
``compact`` operations, runs it once fault-free to count the device
mutations it performs, then replays it once **per mutation index** with a
:class:`~repro.storage.faults.FaultyStorageDevice` armed to crash (with a
torn final write) exactly there.  After each crash the device is revived,
:meth:`~repro.lsm.db.LSMTree.reopen` recovers the store, and the result
is compared against a plain-dict oracle of the *acknowledged* operations.

Acknowledgement is exact, not probabilistic.  A mutating workload op is
acknowledged iff the crash did not land on the op's own WAL append — the
op's first device mutation.  Torn writes keep a strict prefix, so the
crashing append is never fully durable: an op whose WAL record is durable
must be recovered (its record replays, or a manifest-listed table holds
it), and an op whose record is torn must not be.  Both data loss *and*
resurrection are therefore hard failures, at every crash point:

* acknowledged write missing after recovery — **lost** acknowledged data;
* unacknowledged write present after recovery — a torn tail (or worse,
  garbage) was replayed as if it had been committed.

This is the proof obligation behind the WAL/manifest checksum formats and
the manifest-before-WAL-reset crash ordering in :mod:`repro.lsm.db`.

The sweep covers both halves of the {sync, background} product.  Under
background compaction the harness quiesces the compactor after every op,
so the device sees one deterministic mutation sequence (the op's own
writes, then the merge it kicked) and the mutation index names the same
crash point on every replay; a crash landing on the compactor's thread
reaches the harness as the ``CompactionError`` that quiesce re-raises.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.common.errors import (
    CompactionError,
    ConfigError,
    SimulatedCrashError,
)
from repro.common.rng import make_rng
from repro.lsm.db import LSMTree
from repro.lsm.options import LSMOptions
from repro.lsm.recovery import RecoveryReport
from repro.lsm.wal import _HEADER_V2, MAGIC as _WAL_MAGIC
from repro.storage.clock import SimClock
from repro.storage.faults import FaultPlan, FaultyStorageDevice

#: Distinct keys a workload draws from: few enough that overwrites and
#: deletes of live keys are common.
KEY_SPACE = 48
#: Workload op kinds.
OP_PUT = "put"
OP_DELETE = "delete"
OP_PUT_MANY = "put_many"
OP_FLUSH = "flush"
OP_COMPACT = "compact"


@dataclass(frozen=True)
class WorkloadOp:
    """One scripted operation (value is derived, so runs are replayable)."""

    kind: str
    key: bytes = b""
    value: bytes = b""
    #: ``OP_PUT_MANY`` payload: (key, value) records, group-committed.
    items: Tuple[Tuple[bytes, bytes], ...] = ()


def default_torture_options() -> LSMOptions:
    """Small thresholds so a ~200-op workload crosses every code path:
    flushes, L0 compactions, WAL resets and manifest swaps all fire."""
    return LSMOptions(memtable_size_bytes=700, sstable_target_bytes=2048,
                      block_size_bytes=256, l0_compaction_trigger=3,
                      base_level_size_bytes=4096)


def background_torture_options() -> LSMOptions:
    """The same thresholds with merges on the compactor's thread."""
    return replace(default_torture_options(), background_compaction=True)


def generate_workload(seed: int, num_ops: int) -> List[WorkloadOp]:
    """Seeded op script: ~60% puts, ~12% group-committed batches, ~13%
    deletes, plus explicit flushes and full compactions so crash points
    land inside every mechanism (including mid-batch WAL appends).

    Values encode (key, op index), so any two runs of the same script are
    byte-identical and an oracle mismatch pinpoints the divergent op.
    """
    rng = make_rng(seed, "torture-workload")
    ops: List[WorkloadOp] = []
    for index in range(num_ops):
        draw = rng.random()
        pick = rng.randrange(KEY_SPACE)
        key = b"key%04d" % pick
        if draw < 0.60:
            ops.append(WorkloadOp(OP_PUT, key,
                                  b"value-%04d-op%05d" % (pick, index)))
        elif draw < 0.72:
            count = rng.randint(2, 5)
            items = []
            for item_index in range(count):
                item_pick = rng.randrange(KEY_SPACE)
                items.append((b"key%04d" % item_pick,
                              b"value-%04d-op%05d-i%d"
                              % (item_pick, index, item_index)))
            ops.append(WorkloadOp(OP_PUT_MANY, items=tuple(items)))
        elif draw < 0.85:
            ops.append(WorkloadOp(OP_DELETE, key))
        elif draw < 0.95:
            ops.append(WorkloadOp(OP_FLUSH))
        else:
            ops.append(WorkloadOp(OP_COMPACT))
    return ops


#: Op kinds whose acknowledgement the oracle tracks.
_MUTATING_OPS = (OP_PUT, OP_DELETE, OP_PUT_MANY)


def _apply(db: LSMTree, op: WorkloadOp) -> None:
    if op.kind == OP_PUT:
        db.put(op.key, op.value)
    elif op.kind == OP_DELETE:
        db.delete(op.key)
    elif op.kind == OP_PUT_MANY:
        db.put_many(op.items)
    elif op.kind == OP_FLUSH:
        db.flush()
    elif op.kind == OP_COMPACT:
        db.compact_all()
    else:
        raise ConfigError(f"unknown workload op {op.kind!r}")
    if db._background is not None:
        db._background.quiesce()


def _advance_oracle(oracle: Dict[bytes, bytes], op: WorkloadOp) -> None:
    if op.kind == OP_PUT:
        oracle[op.key] = op.value
    elif op.kind == OP_DELETE:
        oracle.pop(op.key, None)
    elif op.kind == OP_PUT_MANY:
        for key, value in op.items:
            oracle[key] = value


def _durable_batch_prefix(op: WorkloadOp, surviving_bytes: int,
                          wal_existed: bool) -> List[Tuple[bytes, bytes]]:
    """Records of a crashed group commit that survived the torn append.

    A batch is one WAL append of concatenated per-record crc frames, so a
    torn write keeps a strict prefix of the blob: every *complete* frame
    within the surviving bytes replays; the torn frame and everything
    after drop.  When the append created the file, the 4-byte magic comes
    out of the budget first (a magic torn mid-way frames no records —
    replay classifies the file as a torn tail either way).
    """
    budget = surviving_bytes
    if not wal_existed:
        budget -= len(_WAL_MAGIC)
    durable: List[Tuple[bytes, bytes]] = []
    for key, value in op.items:
        frame_len = _HEADER_V2.size + len(key) + len(value)
        if budget < frame_len:
            break
        budget -= frame_len
        durable.append((key, value))
    return durable


@dataclass
class CrashPointResult:
    """Outcome of one crash-point run (or the fault-free baseline)."""

    crash_at: Optional[int]
    #: Which half of the {sync, background} product this run was.
    mode: str = "sync"
    #: Whether the armed crash actually fired during the workload.
    crashed: bool = False
    ops_acknowledged: int = 0
    #: Device mutations performed by the workload (pre-recovery); on the
    #: fault-free baseline this is the sweep's crash-point count.
    mutations: int = 0
    #: (key, expected, observed) triples where recovery diverged from the
    #: oracle; ``expected is None`` = resurrection, ``observed is None``
    #: (with expected set) = lost acknowledged write.
    mismatches: List[Tuple[bytes, Optional[bytes], Optional[bytes]]] = \
        field(default_factory=list)
    report: Optional[RecoveryReport] = None

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def describe(self) -> str:
        where = "no crash" if not self.crashed \
            else f"crash at mutation {self.crash_at}"
        where = f"{self.mode}, {where}"
        if self.ok:
            return f"{where}: ok ({self.ops_acknowledged} ops acknowledged)"
        lines = [f"{where}: {len(self.mismatches)} mismatch(es)"]
        for key, expected, observed in self.mismatches[:10]:
            kind = "LOST" if observed is None else (
                "RESURRECTED" if expected is None else "WRONG VALUE")
            lines.append(f"  {kind} {key!r}: expected {expected!r}, "
                         f"got {observed!r}")
        return "\n".join(lines)


def run_crash_point(seed: int, ops: List[WorkloadOp],
                    crash_at: Optional[int],
                    options_factory: Callable[[], LSMOptions]
                    = default_torture_options) -> CrashPointResult:
    """Run the workload, crashing at device-mutation index ``crash_at``
    (``None`` = fault-free), then recover and diff against the oracle.
    """
    options = options_factory()
    clock = SimClock()
    device = FaultyStorageDevice(
        clock, rng=make_rng(seed, "torture-device"),
        plan=FaultPlan(seed=seed, crash_at_op=crash_at))
    db = LSMTree(options=options, clock=clock, device=device)
    result = CrashPointResult(
        crash_at=crash_at,
        mode="background" if options.background_compaction else "sync")
    oracle: Dict[bytes, bytes] = {}

    for op in ops:
        mutations_before = device.fault_stats.mutations
        wal_existed = device.exists(db._wal.path)
        try:
            _apply(db, op)
        except (SimulatedCrashError, CompactionError):
            if not device.crashed:
                raise  # a background failure that is not the crash
            result.crashed = True
            # The op's WAL append is its first device mutation.  A crash
            # landing exactly there tears the record (strict prefix), so
            # the op was never durable; a crash anywhere later in the op
            # (flush, compaction, manifest swap) happened *after* the
            # record was fully appended, so recovery must restore it —
            # the compactor's thread included, since it only ever runs
            # after the op that kicked it has returned.
            # A group commit crashing on its own append is the one case
            # with partial durability: the complete frames of the torn
            # blob's prefix must replay, the rest must not.
            if op.kind in _MUTATING_OPS \
                    and device.fault_stats.crash_op != mutations_before:
                _advance_oracle(oracle, op)
                result.ops_acknowledged += 1
            elif op.kind == OP_PUT_MANY:
                for key, value in _durable_batch_prefix(
                        op, device.fault_stats.crash_surviving_bytes or 0,
                        wal_existed):
                    oracle[key] = value
            break
        _advance_oracle(oracle, op)
        if op.kind in _MUTATING_OPS:
            result.ops_acknowledged += 1

    result.mutations = device.fault_stats.mutations
    # On a crashed device close() cannot flush, but it still ends the
    # abandoned tree's compactor thread.
    with suppress(SimulatedCrashError):
        db.close()
    device.revive()
    recovered = LSMTree.reopen(device, options=options_factory())
    result.report = recovered.recovery_report

    keys = {op.key for op in ops if op.kind in (OP_PUT, OP_DELETE)}
    keys.update(key for op in ops if op.kind == OP_PUT_MANY
                for key, _value in op.items)
    for key in sorted(keys):
        expected = oracle.get(key)
        observed = recovered.get(key)
        if expected != observed:
            result.mismatches.append((key, expected, observed))
    recovered.close()
    return result


@dataclass
class SweepResult:
    """Aggregate of a full crash-point sweep for one seed, both modes."""

    seed: int
    num_ops: int
    #: Device mutations of the fault-free run, summed over the modes.
    total_mutations: int = 0
    #: mode -> crash points run there (the fault-free baseline included).
    points_run: Dict[str, int] = field(default_factory=dict)
    failures: List[CrashPointResult] = field(default_factory=list)
    #: (mode, crash point) pairs whose recovery flagged ``data_suspect``
    #: — it had to quarantine or discard something it could not trust.
    #: Expected at points that tear a durable structure mid-write;
    #: tracked so suites can assert the *clean* points (e.g. the
    #: install-to-retire window, where every file is either fully durable
    #: or safely absent) never raise suspicion.
    suspect_points: List[Tuple[str, int]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def describe(self) -> str:
        points = " + ".join(f"{count} {mode}"
                            for mode, count in self.points_run.items())
        head = (f"seed {self.seed}: {points} crash points over "
                f"{self.total_mutations} mutations "
                f"({self.num_ops}-op workload): "
                f"{'all recovered exactly' if self.ok else 'FAILURES'}")
        if self.ok:
            return head
        return "\n".join([head] + [f.describe() for f in self.failures])


def crash_point_sweep(seed: int, num_ops: int = 200, stride: int = 1,
                      progress: Optional[Callable[[str], None]] = None
                      ) -> SweepResult:
    """Exhaustively (or strided) torture every crash point of a workload,
    under sync and then under background compaction.

    Per mode: first runs fault-free to learn the mutation count and check
    the baseline, then replays with a crash armed at each mutation index
    ``0, stride, 2*stride, ...``.  ``stride`` exists for quick smoke runs;
    the acceptance suite uses ``stride=1``.
    """
    if stride < 1:
        raise ConfigError("stride must be >= 1")
    ops = generate_workload(seed, num_ops)
    result = SweepResult(seed=seed, num_ops=num_ops)
    for options_factory in (default_torture_options,
                            background_torture_options):
        baseline = run_crash_point(seed, ops, None, options_factory)
        mode = baseline.mode
        total = baseline.mutations
        result.total_mutations += total
        if not baseline.ok:
            result.failures.append(baseline)
        result.points_run[mode] = 1
        for crash_at in range(0, total, stride):
            point = run_crash_point(seed, ops, crash_at, options_factory)
            result.points_run[mode] += 1
            if not point.ok:
                result.failures.append(point)
            if point.report is not None and point.report.data_suspect:
                result.suspect_points.append((mode, crash_at))
            if progress is not None and crash_at % 50 == 0:
                progress(f"seed {seed} ({mode}): "
                         f"crash point {crash_at}/{total}")
    return result
