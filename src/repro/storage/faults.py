"""Deterministic fault injection for the simulated storage device.

A :class:`FaultyStorageDevice` behaves exactly like a
:class:`~repro.storage.device.StorageDevice` until its seeded
:class:`FaultPlan` says otherwise.  Three fault families are modelled,
matching what real LSM stores must survive (RocksDB's fault-injection
test suite covers the same triad):

* **crashes** — the plan names a mutation index; when the device's Nth
  mutating operation (create/append/rename/delete) arrives, only a
  *strict prefix* of that write's payload reaches the file (torn-write
  semantics) and :class:`~repro.common.errors.SimulatedCrashError` is
  raised.  Every later operation fails the same way until
  :meth:`FaultyStorageDevice.revive` — the simulated process restart —
  after which recovery code may reopen whatever survived on "disk";
* **bit flips** — :meth:`FaultyStorageDevice.flip_bit` (and the seeded
  :meth:`flip_random_bit`) silently corrupt stored bytes, exercising the
  checksum paths in the WAL, manifest and SSTable blocks;
* **transient read errors** — chosen read indices (explicit or sampled
  at a seeded rate) raise :class:`~repro.common.errors.TransientIOError`;
  the same read succeeds when retried, so recovery retry loops can be
  tested deterministically.

Everything is driven by the plan's seed: the same plan over the same
workload produces the same torn prefix lengths, the same flipped bits and
the same failing reads, which is what lets the crash-torture suite replay
*every* crash point of a workload and assert exact recovery outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Iterable, Optional, Tuple

from repro.common.errors import (
    ConfigError,
    SimulatedCrashError,
    TransientIOError,
)
from repro.common.rng import make_rng
from repro.storage.device import StorageDevice


@dataclass
class FaultPlan:
    """Declarative, seeded description of the faults to inject.

    ``crash_at_op`` counts *mutating* operations (``create_file``,
    ``append``, ``rename``, ``delete_file``) from device construction,
    zero-based; the operation with that index crashes.  Renames and
    deletes are atomic — a crash scheduled on one simply prevents it —
    while creates and appends keep a strict prefix of the payload being
    written, so the crashing write is never fully durable (the boundary
    between acknowledged and lost writes stays exact).
    """

    seed: int = 0
    #: Mutation index at which to crash (``None`` = never).
    crash_at_op: Optional[int] = None
    #: Keep a seeded strict prefix of the crashing write (torn write);
    #: when False the crashing write leaves no trace at all.
    torn_writes: bool = True
    #: Read indices (zero-based, counted across ``read``/``read_block``)
    #: that fail with :class:`TransientIOError` on first issue.
    transient_read_ops: FrozenSet[int] = field(default_factory=frozenset)
    #: Additionally fail each read with this seeded probability ...
    transient_read_rate: float = 0.0
    #: ... up to this many rate-sampled failures in total.
    max_transient_errors: int = 8
    #: When non-empty, only reads of paths starting with one of these
    #: prefixes are eligible to fail (e.g. ``("sst/",)`` to model a bad
    #: region of the disk while metadata stays readable).
    transient_path_prefixes: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.crash_at_op is not None and self.crash_at_op < 0:
            raise ConfigError("crash_at_op must be non-negative")
        if not 0.0 <= self.transient_read_rate <= 1.0:
            raise ConfigError("transient_read_rate must be in [0, 1]")
        if self.max_transient_errors < 0:
            raise ConfigError("max_transient_errors must be non-negative")
        self.transient_read_ops = frozenset(self.transient_read_ops)


@dataclass
class FaultStats:
    """What the fault layer has done so far (assertable in tests)."""

    mutations: int = 0
    reads_attempted: int = 0
    transient_errors: int = 0
    bits_flipped: int = 0
    #: Mutation index that crashed (None until the crash fires).
    crash_op: Optional[int] = None
    #: Path the crashing mutation targeted.
    crash_path: Optional[str] = None
    #: Payload bytes of the crashing write that survived (torn prefix).
    crash_surviving_bytes: Optional[int] = None


class FaultyStorageDevice(StorageDevice):
    """A :class:`StorageDevice` whose failures follow a seeded plan.

    Drop-in compatible: shares the clock/latency model, so a faultless
    plan is observationally identical to the plain device.  After a crash
    fires, every further operation (reads included — the "process" is
    dead) raises :class:`SimulatedCrashError` until :meth:`revive`.
    """

    def __init__(self, clock, rng=None,
                 plan: Optional[FaultPlan] = None) -> None:
        super().__init__(clock, rng=rng)
        self.plan = plan or FaultPlan()
        self.fault_stats = FaultStats()
        self._fault_rng = make_rng(self.plan.seed, "faults")
        self._crashed = False

    # ------------------------------------------------------------- crash state

    @property
    def crashed(self) -> bool:
        """Whether the simulated process is currently dead."""
        return self._crashed

    def revive(self) -> None:
        """Restart the simulated process; on-device state is kept as-is.

        The consumed crash point is cleared so recovery's own writes do
        not immediately re-crash; schedule a new one with
        :meth:`schedule_crash` to test repeated failures.
        """
        self._crashed = False
        if self.plan.crash_at_op is not None \
                and self.plan.crash_at_op <= self.fault_stats.mutations:
            self.plan.crash_at_op = None

    def schedule_crash(self, after_mutations: int = 0) -> None:
        """Arm a crash ``after_mutations`` mutations from now."""
        if after_mutations < 0:
            raise ConfigError("after_mutations must be non-negative")
        self.plan.crash_at_op = self.fault_stats.mutations + after_mutations

    def _check_alive(self) -> None:
        if self._crashed:
            raise SimulatedCrashError(
                "operation on crashed device (revive() to recover)")

    def _mutation_gate(self, path: str, payload_len: int) -> Optional[int]:
        """Count one mutation; crash if the plan says so.

        Returns the number of payload bytes that should survive the
        crashing write (``None`` means no crash — proceed normally).
        The caller applies the torn prefix *then* raises.
        """
        self._check_alive()
        index = self.fault_stats.mutations
        self.fault_stats.mutations += 1
        if self.plan.crash_at_op is None or index != self.plan.crash_at_op:
            return None
        self._crashed = True
        surviving = 0
        if self.plan.torn_writes and payload_len > 0:
            # Strict prefix: the crashing write must never be fully
            # durable, keeping the acknowledged/lost boundary exact.
            surviving = self._fault_rng.randrange(payload_len)
        self.fault_stats.crash_op = index
        self.fault_stats.crash_path = path
        self.fault_stats.crash_surviving_bytes = surviving
        return surviving

    def _crash(self, path: str) -> "SimulatedCrashError":
        return SimulatedCrashError(
            f"simulated crash at mutation {self.fault_stats.crash_op} "
            f"({path!r})")

    # -------------------------------------------------------------- mutations
    # The gates sit on the device's I/O core, which the public methods
    # and every view reach, so a fault means the same thing to the live
    # store, a snapshot's ``reader_view`` and the background compactor's
    # ``silent_view``.  The device lock spans gate + operation so the
    # fault counters and the operation they describe stay atomic under
    # concurrency (the lock is reentrant; super() re-acquires it).

    def _create(self, account, path: str, data: bytes) -> None:
        with self._lock:
            surviving = self._mutation_gate(path, len(data))
            if surviving is None:
                super()._create(account, path, data)
                return
            if surviving:
                self._files[path] = bytes(data[:surviving])
                self._bump_generation(path)
        raise self._crash(path)

    def _append(self, account, path: str, data: bytes) -> None:
        with self._lock:
            surviving = self._mutation_gate(path, len(data))
            if surviving is None:
                super()._append(account, path, data)
                return
            if surviving:
                self._files[path] = self._files.get(path, b"") \
                    + bytes(data[:surviving])
                self._bump_generation(path)
        raise self._crash(path)

    def _rename(self, account, src: str, dst: str) -> None:
        # Atomic: a crash here prevents the rename entirely.
        with self._lock:
            if self._mutation_gate(src, 0) is not None:
                raise self._crash(src)
            super()._rename(account, src, dst)

    def _delete(self, path: str) -> None:
        # Atomic: a crash here leaves the file in place.
        with self._lock:
            if self._mutation_gate(path, 0) is not None:
                raise self._crash(path)
            super()._delete(path)

    # ------------------------------------------------------------------ reads

    def _read_gate(self, path: str) -> None:
        self._check_alive()
        index = self.fault_stats.reads_attempted
        self.fault_stats.reads_attempted += 1
        prefixes = self.plan.transient_path_prefixes
        if prefixes and not any(path.startswith(p) for p in prefixes):
            return
        if index in self.plan.transient_read_ops:
            self.fault_stats.transient_errors += 1
            raise TransientIOError(f"injected transient failure on read {index}")
        if (self.plan.transient_read_rate > 0.0
                and self.fault_stats.transient_errors
                < self.plan.max_transient_errors
                and self._fault_rng.random() < self.plan.transient_read_rate):
            self.fault_stats.transient_errors += 1
            raise TransientIOError(
                f"injected transient failure on read {index} (sampled)")

    # ``read``/``read_block`` wrap the ``*_view`` reads, so gating the
    # two core reads covers every read exactly once.

    def _read_view(self, account, path: str, offset: int, length: int
                   ) -> memoryview:
        with self._lock:
            self._read_gate(path)
            return super()._read_view(account, path, offset, length)

    def _read_block_view(self, account, path: str, block_index: int
                         ) -> memoryview:
        with self._lock:
            self._read_gate(path)
            return super()._read_block_view(account, path, block_index)

    # ------------------------------------------------------------- corruption

    def flip_bit(self, path: str, byte_index: int, bit: int = 0) -> None:
        """Flip one stored bit in place (media corruption injection)."""
        data = bytearray(self._file(path))
        if not 0 <= byte_index < len(data):
            raise ConfigError(
                f"byte {byte_index} out of range for {path!r} "
                f"of {len(data)} bytes")
        if not 0 <= bit < 8:
            raise ConfigError("bit index must be in [0, 8)")
        data[byte_index] ^= 1 << bit
        self._files[path] = bytes(data)
        self._bump_generation(path)
        self.fault_stats.bits_flipped += 1

    def flip_random_bit(self, path: str) -> int:
        """Flip a seeded random bit of ``path``; returns the byte index."""
        size = len(self._file(path))
        if size == 0:
            raise ConfigError(f"cannot corrupt empty file {path!r}")
        byte_index = self._fault_rng.randrange(size)
        self.flip_bit(path, byte_index, self._fault_rng.randrange(8))
        return byte_index

    def flip_bits(self, path: str, positions: Iterable[int]) -> None:
        """Flip bit 0 of each byte position in ``positions``."""
        for byte_index in positions:
            self.flip_bit(path, byte_index)
