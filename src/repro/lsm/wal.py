"""Write-ahead log for memtable durability.

Every write appends its records before touching the memtable; on reopen
the log is replayed into a fresh memtable.  The WAL is truncated
(deleted and restarted) whenever the memtable it protects is flushed to an
SSTable — but only *after* the manifest durably lists the flushed table,
so no crash point leaves acknowledged writes in neither place.

Record format (v2): the file opens with the 4-byte magic ``WAL2``; each
record is length-framed and checksummed::

    u32 crc32 | u8 op | u16 key_len | u32 value_len | key | value

The CRC covers everything after itself.

Checksums buy exact crash classification.  A record cut short by the end
of the file is a **torn tail** — the crash interrupted an append, the
write was never acknowledged, dropping it is correct.  A record that is
*complete* but fails its CRC is an **untrustworthy tail**: either a torn
write whose garbage happens to frame, or media corruption — in both cases
nothing from that point on can be trusted, so replay stops there (and
reports it) instead of replaying garbage.  The magic is held to the same
rule: a strict prefix of it is a torn first append, anything else is an
untrustworthy file.  A record whose CRC is *valid* but whose opcode is
unknown is a genuine format error — fully written, checksummed,
nonsense — and raises.
"""

from __future__ import annotations

import struct
import zlib
from typing import Iterator, Optional, Tuple

from repro.common.errors import CorruptionError
from repro.storage.device import StorageDevice

#: v2 file magic.
MAGIC = b"WAL2"

_HEADER_V2 = struct.Struct("<IBHI")  # crc32, op, key_len, value_len
_OP_PUT = 1
_OP_DELETE = 2

#: Reasons a replay stopped before the end of the file.
TAIL_TORN = "torn"
TAIL_CHECKSUM = "checksum"


class WriteAheadLog:
    """Append-only log of mutations on the simulated device."""

    def __init__(self, device: StorageDevice, path: str) -> None:
        self.device = device
        self.path = path

    # ---------------------------------------------------------------- writing

    @staticmethod
    def _frame(op: int, key: bytes, value: bytes) -> bytes:
        body = struct.pack("<BHI", op, len(key), len(value)) + key + value
        return struct.pack("<I", zlib.crc32(body)) + body

    def log_batch(self, records) -> None:
        """Group commit: one device append for many records.

        ``records`` is an iterable of ``(key, value)`` with ``None``
        values meaning deletes.  Framing is per record, so replay needs
        no batch awareness and a batch of one is the single-record log
        call — but the device sees a single append, which is the
        group-commit latency win (and, on the simulated device's
        quadratic append, the wall-clock one).

        Crash semantics: a torn batch append keeps a strict prefix of the
        blob, so a *prefix* of the batch may be durable — complete frames
        replay, the torn frame and everything after drop.  Callers treat
        the whole batch as unacknowledged until the append returns; the
        torture suite's oracle models exactly this prefix durability.
        """
        blob = b"".join(
            self._frame(_OP_DELETE, key, b"") if value is None
            else self._frame(_OP_PUT, key, value)
            for key, value in records)
        if not blob:
            return
        if not self.device.exists(self.path):
            blob = MAGIC + blob
        self.device.append(self.path, blob)

    def reset(self) -> None:
        """Discard the log (the memtable it protected was flushed)."""
        self.device.delete_file(self.path)

    # --------------------------------------------------------------- replay

    def replay(self, report) -> Iterator[Tuple[bytes, Optional[bytes]]]:
        """Yield (key, value-or-None-for-delete) in log order.

        Recovery happens at open time, off the measured query path.

        Crash semantics: a record the crash cut short — or one whose
        checksum fails, which means the tail cannot be trusted — is
        dropped along with everything after it (those writes were never
        acknowledged), while structural corruption that a checksum
        *vouches for* raises.  Replayed-record counts and the
        dropped-tail classification are recorded on ``report`` (a
        :class:`~repro.lsm.recovery.RecoveryReport`).
        """
        if not self.device.exists(self.path):
            return
        data = self.device.read(self.path, 0, self.device.file_size(self.path))
        total = len(data)
        if data[:len(MAGIC)] != MAGIC:
            torn = MAGIC.startswith(data)
            self._drop_tail(report, TAIL_TORN if torn else TAIL_CHECKSUM,
                            0, total)
            return
        offset = len(MAGIC)
        while offset < total:
            if offset + _HEADER_V2.size > total:
                self._drop_tail(report, TAIL_TORN, offset, total)
                return
            crc, op, key_len, value_len = _HEADER_V2.unpack_from(data, offset)
            end = offset + _HEADER_V2.size + key_len + value_len
            if end > total:
                self._drop_tail(report, TAIL_TORN, offset, total)
                return
            body = data[offset + 4 : end]
            if zlib.crc32(body) != crc:
                # Complete frame, bad checksum: a torn write whose garbage
                # happens to frame, or a media flip.  Either way nothing
                # from here on is trustworthy.
                self._drop_tail(report, TAIL_CHECKSUM, offset, total)
                return
            if op not in (_OP_PUT, _OP_DELETE):
                # The checksum vouches these bytes were fully written as
                # they are: a garbled opcode here is real corruption (or a
                # format bug), never a crash artifact — always raise.
                raise CorruptionError(f"unknown WAL op {op} with valid checksum")
            key = data[offset + _HEADER_V2.size : offset + _HEADER_V2.size + key_len]
            report.wal_records_replayed += 1
            if op == _OP_PUT:
                yield key, data[offset + _HEADER_V2.size + key_len : end]
            else:
                yield key, None
            offset = end

    @staticmethod
    def _drop_tail(report, reason: str, offset: int, total: int) -> None:
        report.wal_tail_dropped = True
        report.wal_tail_reason = reason
        report.wal_tail_dropped_bytes = total - offset
