"""The six service-shaped classes answer one attack-side surface.

``core`` calls these methods on whatever it is handed — the in-process
service, a facade stack, the wire client, the network model — without
asking first, so a signature that drifts is a crash in step 3 (as
``RemoteClient.getter`` was).  DESIGN.md, "Service surface".
"""

import contextlib
import inspect

import pytest

from repro.lsm.db import LSMTree
from repro.lsm.snapshot import SnapshotView
from repro.server import AsyncLoopbackTransport, RemoteKV
from repro.system import (
    LAN,
    DefendedService,
    KVService,
    MonitoredService,
    RateLimitedService,
    RateLimitPolicy,
    RemoteClient,
)
from repro.system.responses import DISCLOSING, Status
from repro.workloads import ATTACKER_USER

SERVICE_SHAPED = (KVService, RateLimitedService, MonitoredService,
                  DefendedService, RemoteKV, RemoteClient)
READ_SURFACE = ("get", "get_timed", "getter", "get_many", "get_many_timed",
                "get_until_found", "sim_now_us")


def _parameters(cls, method):
    return list(inspect.signature(getattr(cls, method)).parameters.values())


@pytest.mark.parametrize("method", READ_SURFACE)
@pytest.mark.parametrize("cls", SERVICE_SHAPED, ids=lambda c: c.__name__)
def test_read_method_signatures_agree_with_kvservice(cls, method):
    reference = _parameters(KVService, method)
    candidate = _parameters(cls, method)
    shared, extra = candidate[:len(reference)], candidate[len(reference):]
    assert ([(p.name, p.kind, p.default is p.empty) for p in shared]
            == [(p.name, p.kind, p.default is p.empty) for p in reference])
    # Anything beyond the shared prefix (RemoteKV's ``order=``) is optional.
    assert all(p.default is not p.empty for p in extra)


@pytest.mark.parametrize("cls", SERVICE_SHAPED + (LSMTree, SnapshotView),
                         ids=lambda c: c.__name__)
def test_no_read_takes_a_probe_plan(cls):
    # A plan is a pinned version: one handed to a getter answered a
    # snapshot read with later writes, and outlived its own release.
    # The batch reads make and release theirs inside repro.lsm.
    for name, member in inspect.getmembers(cls, inspect.isfunction):
        if not name.startswith("_"):
            assert "plan" not in inspect.signature(member).parameters, name
    assert list(inspect.signature(cls.getter).parameters) == (
        ["self"] if cls in (LSMTree, SnapshotView) else ["self", "user"])
    if cls in SERVICE_SHAPED:
        assert not hasattr(cls, "probe_plan")


@contextlib.contextmanager
def every_surface(service):
    """Each service-shaped class over ``service`` (RemoteKV over the wire)."""
    limited = RateLimitedService(service,
                                 RateLimitPolicy(requests_per_second=1e6))
    with AsyncLoopbackTransport(service) as transport:
        wire = transport.connect()
        yield {
            "KVService": service,
            "RateLimitedService": limited,
            "MonitoredService": MonitoredService(limited),
            "DefendedService": DefendedService(limited),
            "RemoteKV": wire,
            "RemoteClient": RemoteClient(service, LAN),
            "RemoteClient(RemoteKV)": RemoteClient(wire, LAN),
        }
        wire.close()


@pytest.fixture(scope="module")
def stacks(surf_env):
    with every_surface(surf_env.service) as found:
        yield found


@pytest.fixture(scope="module")
def hidden_stacks(surf_env_hidden):
    with every_surface(surf_env_hidden.service) as found:
        yield found


STACK_NAMES = [cls.__name__ for cls in SERVICE_SHAPED] + [
    "RemoteClient(RemoteKV)"]


@pytest.mark.parametrize("name", STACK_NAMES)
def test_surface_answers_with_and_without_a_local_store(stacks, surf_env, name):
    service = stacks[name]
    local = "RemoteKV" not in name
    assert (service.db is surf_env.db) == local
    assert service.distinguish_unauthorized is True
    assert service.sim_now_us() == surf_env.clock.now_us
    keys = [surf_env.keys[0], b"\x00" * 5]
    get_one = service.getter(ATTACKER_USER)
    assert ([get_one(key).status for key in keys]
            == [r.status for r in service.get_many(ATTACKER_USER, keys)])


# ---------------------------------------------------------- get_until_found

def get_loop_until_found(service, keys):
    """The reference: ``get`` per key, cut after the first disclosure."""
    out = []
    for key in keys:
        out.append(service.get(ATTACKER_USER, key))
        if out[-1].status in DISCLOSING:
            break
    return out


def probe_keys(env):
    """Two misses, a stored key (unreadable by the attacker), a miss."""
    misses = [b"\x00\x00\x00\x00" + bytes([i]) for i in range(3)]
    assert not set(misses) & env.key_set
    return misses[:2] + [env.keys[5]] + misses[2:], misses


@pytest.mark.parametrize("name", STACK_NAMES)
def test_get_until_found_is_the_get_loop_cut_at_the_first_disclosure(
        stacks, surf_env, name):
    service = stacks[name]
    keys, misses = probe_keys(surf_env)
    found = service.get_until_found(ATTACKER_USER, keys)
    assert [r.status for r in found] == [
        Status.NOT_FOUND, Status.NOT_FOUND, Status.UNAUTHORIZED]
    assert found == get_loop_until_found(service, keys)
    assert (service.get_until_found(ATTACKER_USER, misses)
            == get_loop_until_found(service, misses))
    assert service.get_until_found(ATTACKER_USER, []) == []


@pytest.mark.parametrize("name", STACK_NAMES)
def test_get_until_found_scans_past_a_hidden_failure(
        hidden_stacks, surf_env_hidden, name):
    # Without the distinction a stored-but-unreadable key answers FAILED,
    # which discloses nothing: every key is issued.
    service = hidden_stacks[name]
    keys, _ = probe_keys(surf_env_hidden)
    found = service.get_until_found(ATTACKER_USER, keys)
    assert [r.status for r in found] == [Status.FAILED] * len(keys)
    assert found == get_loop_until_found(service, keys)


def test_get_until_found_counts_only_the_issued_keys(surf_env):
    keys, _ = probe_keys(surf_env)
    issued = keys[:3]
    limited = RateLimitedService(surf_env.service,
                                 RateLimitPolicy(requests_per_second=1e6))
    admitted = []
    admit = limited._admit
    limited._admit = lambda user: (admitted.append(user), admit(user))
    for facade in (MonitoredService(limited), DefendedService(limited)):
        observed = []
        observe = facade.detector.observe
        facade.detector.observe = lambda user, key, status: (
            observed.append(key), observe(user, key, status))
        admitted.clear()
        requests = surf_env.service.stats.requests
        assert len(facade.get_until_found(ATTACKER_USER, keys)) == 3
        assert observed == issued
        assert admitted == [ATTACKER_USER] * 3
        assert surf_env.service.stats.requests == requests + 3
