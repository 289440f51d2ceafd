"""Write-ahead log tests."""

import struct
import zlib

import pytest

from repro.common.errors import CorruptionError
from repro.lsm.recovery import RecoveryReport
from repro.lsm.wal import MAGIC, TAIL_CHECKSUM, TAIL_TORN, WriteAheadLog
from repro.storage.clock import SimClock
from repro.storage.device import StorageDevice


@pytest.fixture()
def wal():
    return WriteAheadLog(StorageDevice(SimClock()), "wal/test.wal")


def read_all(wal):
    return wal.device.read(wal.path, 0, wal.device.file_size(wal.path))


def v2_record(op, key, value):
    body = struct.pack("<BHI", op, len(key), len(value)) + key + value
    return struct.pack("<I", zlib.crc32(body)) + body


def replay(wal):
    """(records, report) of one replay."""
    report = RecoveryReport()
    return list(wal.replay(report)), report


class TestReplay:
    def test_round_trip(self, wal):
        wal.log_batch([(b"k1", b"v1")])
        wal.log_batch([(b"k2", None)])
        wal.log_batch([(b"k1", b"v2")])
        records, report = replay(wal)
        assert records == [(b"k1", b"v1"), (b"k2", None), (b"k1", b"v2")]
        assert not report.wal_tail_dropped

    def test_empty_log(self, wal):
        assert replay(wal)[0] == []

    def test_reset_discards(self, wal):
        wal.log_batch([(b"k", b"v")])
        wal.reset()
        assert replay(wal)[0] == []

    def test_binary_payloads(self, wal):
        key = bytes(range(256))[:200]
        value = bytes(255 - i for i in range(100))
        wal.log_batch([(key, value)])
        assert replay(wal)[0] == [(key, value)]

    def test_batch_is_the_concatenation_of_its_single_record_appends(self, wal):
        records = [(b"k1", b"v1"), (b"k2", None), (b"k3", b"v3")]
        wal.log_batch(records)
        batched = read_all(wal)
        wal.reset()
        for record in records:
            wal.log_batch([record])
        assert read_all(wal) == batched
        assert replay(wal)[0] == records


class TestCorruption:
    def test_truncated_header(self, wal):
        wal.device.create_file(wal.path, MAGIC + b"\x01\x02")
        records, report = replay(wal)
        assert records == []
        assert report.wal_tail_reason == TAIL_TORN
        assert report.wal_tail_dropped_bytes == 2

    def test_truncated_record(self, wal):
        wal.log_batch([(b"key", b"value")])
        wal.device.create_file(wal.path, read_all(wal)[:-2])
        records, report = replay(wal)
        assert records == []
        assert report.wal_tail_reason == TAIL_TORN

    def test_unknown_op(self, wal):
        wal.device.create_file(wal.path, MAGIC + v2_record(9, b"k", b""))
        with pytest.raises(CorruptionError):
            replay(wal)

    def test_torn_magic_classified_torn(self, wal):
        # The file's first append tore inside the magic itself.
        for kept in range(1, len(MAGIC)):
            wal.device.create_file(wal.path, MAGIC[:kept])
            records, report = replay(wal)
            assert records == []
            assert report.wal_tail_reason == TAIL_TORN
            assert report.wal_tail_dropped_bytes == kept

    def test_foreign_magic_is_untrustworthy_not_replayed(self, wal):
        # Not this format (a flipped magic, or the unchecksummed layout
        # nothing writes any more): no record may be believed.
        wal.log_batch([(b"k1", b"v1")])
        body = read_all(wal)[len(MAGIC):]
        for head in (b"WAL3", b"XAL2", b""):
            wal.device.create_file(wal.path, head + body)
            records, report = replay(wal)
            assert records == []
            assert report.wal_tail_reason == TAIL_CHECKSUM
            assert report.wal_tail_dropped_bytes == len(head + body)


class TestChecksumClassification:
    """v2's CRC separates torn tails from corrupt-but-complete tails."""

    def test_torn_tail_classified_torn(self, wal):
        wal.log_batch([(b"k1", b"v1")])
        wal.log_batch([(b"k2", b"v2")])
        wal.device.create_file(wal.path, read_all(wal)[:-3])
        records, report = replay(wal)
        assert records == [(b"k1", b"v1")]
        assert report.wal_tail_dropped
        assert report.wal_tail_reason == TAIL_TORN
        assert report.wal_tail_dropped_bytes > 0
        assert report.wal_records_replayed == 1

    def test_complete_frame_bad_crc_classified_checksum(self, wal):
        wal.log_batch([(b"k1", b"v1")])
        wal.log_batch([(b"k2", b"v2")])
        data = bytearray(read_all(wal))
        data[-1] ^= 0x40  # flip a bit inside the last record's value
        wal.device.create_file(wal.path, bytes(data))
        records, report = replay(wal)
        assert records == [(b"k1", b"v1")]
        assert report.wal_tail_reason == TAIL_CHECKSUM

    def test_flip_in_first_record_drops_everything_after(self, wal):
        # Nothing beyond the first untrustworthy record may be replayed,
        # even records that would individually checksum fine.
        wal.log_batch([(b"k1", b"v1")])
        wal.log_batch([(b"k2", b"v2")])
        wal.log_batch([(b"k3", b"v3")])
        data = bytearray(read_all(wal))
        data[len(MAGIC) + 5] ^= 0x01  # corrupt record 1's body
        wal.device.create_file(wal.path, bytes(data))
        records, report = replay(wal)
        assert records == []
        assert report.wal_tail_reason == TAIL_CHECKSUM

    def test_valid_crc_unknown_opcode_raises_even_tolerant(self, wal):
        # A fully-written, correctly-checksummed record with a garbled
        # opcode is real corruption, never a crash artifact: replay
        # raises instead of classifying it as a droppable tail.
        wal.log_batch([(b"k1", b"v1")])
        record = v2_record(9, b"kX", b"vX")
        wal.device.append(wal.path, record)
        with pytest.raises(CorruptionError, match="valid checksum"):
            replay(wal)

    def test_report_counts_replayed_records(self, wal):
        for i in range(5):
            wal.log_batch([(b"k%d" % i, b"v%d" % i)])
        records, report = replay(wal)
        assert len(records) == 5
        assert report.wal_records_replayed == 5
        assert not report.wal_tail_dropped


class TestLegacyV1:
    """The v1 layout is no longer decoded (``TestCorruption`` pins what a
    magic-less file gets instead); what stays is the pin on the bytes."""

    def test_new_files_are_v2(self, wal):
        wal.log_batch([(b"k", b"v")])
        assert read_all(wal) == MAGIC + v2_record(1, b"k", b"v")


class TestTornTailTolerance:
    def test_torn_record_dropped(self, wal):
        wal.log_batch([(b"k1", b"v1")])
        wal.log_batch([(b"k2", b"v2")])
        wal.device.create_file(wal.path, read_all(wal)[:-3])  # crash mid-append
        assert replay(wal)[0] == [(b"k1", b"v1")]

    def test_torn_header_dropped(self, wal):
        wal.log_batch([(b"k1", b"v1")])
        wal.device.create_file(wal.path,
                               read_all(wal) + b"\x01\x00")  # partial header
        assert replay(wal)[0] == [(b"k1", b"v1")]

    def test_garbled_opcode_still_raises(self, wal):
        # ... also when a torn tail follows it: the vouched-for nonsense
        # comes first and nothing may be replayed past it.
        wal.log_batch([(b"k1", b"v1")])
        wal.device.append(wal.path, v2_record(9, b"kX", b"vX"))
        wal.log_batch([(b"k2", b"v2")])
        wal.device.create_file(wal.path, read_all(wal)[:-3])
        with pytest.raises(CorruptionError, match="valid checksum"):
            replay(wal)

    def test_db_reopen_survives_torn_wal(self):
        from repro.lsm.db import LSMTree
        from repro.lsm.options import LSMOptions
        db = LSMTree(LSMOptions())
        db.put(b"key01", b"v1")
        db.put(b"key02", b"v2")
        path = "wal/current.wal"
        data = db.device.read(path, 0, db.device.file_size(path))
        db.device.create_file(path, data[:-2])  # tear the last append
        reopened = LSMTree.reopen(db.device, LSMOptions())
        assert reopened.get(b"key01") == b"v1"
        assert reopened.get(b"key02") is None  # unacknowledged write lost
