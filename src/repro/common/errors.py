"""Exception hierarchy shared across the reproduction.

Every error raised by the library derives from :class:`ReproError` so
applications can catch library failures with a single ``except`` clause
without swallowing unrelated bugs.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigError(ReproError):
    """Invalid or inconsistent configuration parameters."""


class StorageError(ReproError):
    """Failure in the simulated storage layer."""


class FileNotFoundInStoreError(StorageError):
    """A simulated file path does not exist on the device."""


class ReadOutOfBoundsError(StorageError):
    """A read extends past the end of a simulated file."""


class SimulatedCrashError(StorageError):
    """The fault plan killed the simulated process mid-operation.

    Raised by :class:`~repro.storage.faults.FaultyStorageDevice` at its
    scheduled crash point and on every mutation afterwards until the
    device is :meth:`~repro.storage.faults.FaultyStorageDevice.revive`\\ d
    (the "restart" that precedes recovery).
    """


class TransientIOError(StorageError):
    """A read failed for a retryable reason (media hiccup, timeout).

    Unlike :class:`CorruptionError` the same read may succeed when
    reissued; recovery paths retry a bounded number of times before
    treating the data as unreadable.
    """


class CorruptionError(ReproError):
    """On-disk structure failed validation (bad magic, checksum, bounds)."""


class FilterError(ReproError):
    """Failure in a filter implementation."""


class LSMError(ReproError):
    """Failure in the LSM-tree engine."""


class DBClosedError(LSMError):
    """Operation attempted on a closed database."""


class CompactionError(LSMError):
    """Compaction produced an inconsistent state."""


class ServiceError(ReproError):
    """Failure in the high-level ACL-checking service."""


class ProtocolError(ReproError):
    """Malformed, truncated, or otherwise invalid wire-protocol frame."""


class VersionMismatchError(ProtocolError):
    """Peer speaks a different wire-protocol version."""


class OrderTimeoutError(ProtocolError):
    """An ordered frame waited past the gate timeout for its turn.

    Raised by the servers' ordered gates when a frame's predecessors never
    complete (a stalled peer, or a stream evicted under churn).  A typed
    subclass so dispatch can map it to ``ErrorCode.ORDER_TIMEOUT`` without
    sniffing message substrings.
    """


class TransportError(ReproError):
    """Connection-level failure (closed socket, timeout, refused dial)."""


class RemoteError(ReproError):
    """The server answered a request with an error frame."""

    def __init__(self, code: int, message: str) -> None:
        super().__init__(f"server error {code}: {message}")
        self.code = code
        self.message = message


class AttackError(ReproError):
    """Failure in the attack framework."""


class LearningError(AttackError):
    """The learning phase could not derive a usable cutoff."""
