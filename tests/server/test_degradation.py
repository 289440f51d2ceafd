"""Graceful degradation: storage faults become typed errors, not crashes.

A GET that routes into a corrupted block must fail with a CORRUPTION
error frame; a transiently failing read must fail with TRANSIENT and
succeed on retry — and in both cases the connection, the server, and
every unaffected key keep working.
"""

import pytest

from repro.common.errors import CorruptionError, RemoteError
from repro.common.rng import make_rng
from repro.lsm.db import LSMTree
from repro.lsm.options import LSMOptions
from repro.server import AsyncKVWireServer, ServerConfig, connect
from repro.server.protocol import ErrorCode
from repro.storage.clock import SimClock
from repro.storage.faults import FaultPlan, FaultyStorageDevice
from repro.system.acl import Acl, pack_value
from repro.system.service import KVService
from repro.workloads.datasets import OWNER_USER

NUM_KEYS = 300


@pytest.fixture()
def faulty_stack():
    clock = SimClock()
    device = FaultyStorageDevice(clock, rng=make_rng(5, "deg-dev"),
                                 plan=FaultPlan(seed=5))
    # No filters: every get reads its table, so fault paths are reachable
    # for any key.  Small blocks spread keys across many blocks.
    db = LSMTree(options=LSMOptions(block_size_bytes=512,
                                    sstable_target_bytes=512 * 1024,
                                    seed=5),
                 clock=clock, device=device)
    acl = Acl(owner=OWNER_USER)
    keys = [b"k%06d" % i for i in range(NUM_KEYS)]
    for key in keys:
        db.put(key, pack_value(acl, key * 3))
    db.flush()
    service = KVService(db, True)
    server = AsyncKVWireServer(service,
                               ServerConfig(host="127.0.0.1", port=0))
    server.start()
    host, port = server.address
    client = connect(host, port)
    try:
        yield device, db, client
    finally:
        client.close()
        server.stop()


def _table_path(device):
    return sorted(p for p in device.list_files()
                  if p.startswith("sst/"))[0]


def _find_corrupt_key(db):
    """A key whose read now hits the flipped block (probed off-wire;
    a failed decode is never cached, so the wire request re-fails)."""
    for i in range(NUM_KEYS):
        key = b"k%06d" % i
        try:
            db.get(key)
        except CorruptionError:
            return key
    pytest.fail("no key routed through the corrupted block")


class TestCorruptionDegradation:
    def test_corrupt_block_yields_typed_error_and_connection_survives(
            self, faulty_stack):
        device, db, client = faulty_stack
        device.flip_bit(_table_path(device), 40)  # inside an early block
        bad_key = _find_corrupt_key(db)

        with pytest.raises(RemoteError) as excinfo:
            client.get(OWNER_USER, bad_key)
        assert excinfo.value.code == ErrorCode.CORRUPTION

        # Same connection, unaffected key: still served.
        response = client.get(OWNER_USER, b"k%06d" % (NUM_KEYS - 1))
        assert response.status.name == "OK"
        # And the bad key still fails deterministically (no flapping).
        with pytest.raises(RemoteError) as again:
            client.get(OWNER_USER, bad_key)
        assert again.value.code == ErrorCode.CORRUPTION

    def test_server_stats_still_flow_after_corruption_error(
            self, faulty_stack):
        device, db, client = faulty_stack
        device.flip_bit(_table_path(device), 40)
        bad_key = _find_corrupt_key(db)
        with pytest.raises(RemoteError):
            client.get(OWNER_USER, bad_key)
        client.ping()  # control frames still round-trip
        ok = client.get(OWNER_USER, b"k%06d" % (NUM_KEYS - 1))
        assert ok.status.name == "OK"
        assert client.stats().requests >= 1


class TestTransientDegradation:
    def test_transient_read_yields_retryable_error(self, faulty_stack):
        device, db, client = faulty_stack
        # The next single read of a table file fails, then the disk heals.
        device.plan = FaultPlan(seed=5, transient_read_rate=1.0,
                                max_transient_errors=1,
                                transient_path_prefixes=("sst/",))
        probe = b"k%06d" % 7
        try:
            first = client.get(OWNER_USER, probe)
        except RemoteError as exc:
            assert exc.code == ErrorCode.TRANSIENT
            # The client-visible contract: just reissue.
            retry = client.get(OWNER_USER, probe)
            assert retry.status.name == "OK"
        else:
            # The read was served from cache; force an uncached key.
            assert first.status.name == "OK"
            with pytest.raises(RemoteError) as excinfo:
                client.get(OWNER_USER, b"k%06d" % 200)
            assert excinfo.value.code == ErrorCode.TRANSIENT
            assert client.get(OWNER_USER,
                              b"k%06d" % 200).status.name == "OK"
