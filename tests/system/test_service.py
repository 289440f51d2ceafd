"""ACL-checking service tests — the threat-model behaviours of section 4."""

import pytest

from repro.filters.surf import SuRFBuilder
from repro.lsm.db import LSMTree
from repro.lsm.options import LSMOptions
from repro.system.acl import Acl
from repro.system.responses import Status
from repro.system.service import KVService

OWNER, OTHER = 1, 2


@pytest.fixture()
def service():
    db = LSMTree(LSMOptions(
        filter_builder=SuRFBuilder(variant="real", suffix_bits=8)))
    return KVService(db)


class TestAuthorization:
    def test_owner_reads_value(self, service):
        service.put(OWNER, b"key01", b"secret")
        response = service.get(OWNER, b"key01")
        assert response.ok and response.value == b"secret"

    def test_other_user_unauthorized(self, service):
        service.put(OWNER, b"key01", b"secret")
        response = service.get(OTHER, b"key01")
        assert response.status is Status.UNAUTHORIZED
        assert response.value is None

    def test_missing_key_not_found(self, service):
        assert service.get(OTHER, b"nokey").status is Status.NOT_FOUND

    def test_public_object_readable_by_all(self, service):
        service.put(OWNER, b"key01", b"open", acl=Acl(OWNER, public_read=True))
        assert service.get(OTHER, b"key01").ok

    def test_stats(self, service):
        service.put(OWNER, b"key01", b"v")
        service.get(OWNER, b"key01")
        service.get(OTHER, b"key01")
        service.get(OTHER, b"nokey")
        assert service.stats.ok == 1
        assert service.stats.unauthorized == 1
        assert service.stats.not_found == 1


class TestIndistinguishableMode:
    def test_failures_collapse_to_failed(self):
        db = LSMTree(LSMOptions())
        service = KVService(db, distinguish_unauthorized=False)
        service.put(OWNER, b"key01", b"v")
        assert service.get(OTHER, b"key01").status is Status.FAILED
        assert service.get(OTHER, b"nokey").status is Status.FAILED

    def test_success_still_succeeds(self):
        db = LSMTree(LSMOptions())
        service = KVService(db, distinguish_unauthorized=False)
        service.put(OWNER, b"key01", b"v")
        assert service.get(OWNER, b"key01").ok


class TestAlwaysReadsValue:
    def test_unauthorized_query_still_does_io(self, service):
        # The property prefix siphoning needs: the service must read the
        # value to check the ACL, so the store does I/O even for a user
        # with no permissions.
        service.put(OWNER, b"key01", b"v" * 100)
        service.db.flush()
        service.db.cache.clear()
        reads_before = service.db.device.stats.reads
        service.get(OTHER, b"key01")
        assert service.db.device.stats.reads > reads_before


class TestTimedGets:
    def test_get_timed(self, service):
        service.put(OWNER, b"key01", b"v")
        response, elapsed = service.get_timed(OTHER, b"key01")
        assert response.status is Status.UNAUTHORIZED
        assert elapsed > 0


class TestRangeQuery:
    def test_filters_unauthorized_entries(self, service):
        service.put(OWNER, b"aa", b"1")
        service.put(OWNER, b"bb", b"2", acl=Acl(OWNER, public_read=True))
        got = service.range_query(OTHER, b"a", b"z")
        assert got == [(b"bb", b"2")]

    def test_limit_applies_to_visible(self, service):
        for i in range(5):
            service.put(OWNER, bytes([i + 1]) * 2, b"v",
                        acl=Acl(OWNER, public_read=True))
        assert len(service.range_query(OTHER, b"\x00", b"\xff\xff",
                                       limit=3)) == 3

    def test_limit_zero_reads_nothing_and_a_negative_limit_raises(self,
                                                                   service):
        from repro.common.errors import ConfigError
        for i in range(3):
            service.put(OWNER, bytes([i + 1]) * 2, b"v",
                        acl=Acl(OWNER, public_read=True))
        db = service.db
        before = (db.clock.now_us, dict(vars(db.stats)))
        assert service.range_query(OTHER, b"\x00", b"\xff", limit=0) == []
        assert service.range_query_timed(OTHER, b"\x00", b"\xff",
                                         limit=0) == ([], 0.0)
        assert (db.clock.now_us, dict(vars(db.stats))) == before
        with pytest.raises(ConfigError):
            service.range_query(OTHER, b"\x00", b"\xff", limit=-1)
