"""The six service-shaped classes answer one attack-side surface.

``core`` calls these methods on whatever it is handed — the in-process
service, a facade stack, the wire client, the network model — without
asking first, so a signature that drifts is a crash in step 3 (as
``RemoteClient.getter`` was).  DESIGN.md, "Service surface".
"""

import inspect

import pytest

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
from repro.workloads import ATTACKER_USER

SERVICE_SHAPED = (KVService, RateLimitedService, MonitoredService,
                  DefendedService, RemoteKV, RemoteClient)
READ_SURFACE = ("get", "get_timed", "getter", "get_many", "get_many_timed",
                "probe_plan", "sim_now_us")


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


@pytest.fixture(scope="module")
def stacks(surf_env):
    limited = RateLimitedService(surf_env.service,
                                 RateLimitPolicy(requests_per_second=1e6))
    with AsyncLoopbackTransport(surf_env.service) as transport:
        wire = transport.connect()
        yield {
            "KVService": surf_env.service,
            "RateLimitedService": limited,
            "MonitoredService": MonitoredService(limited),
            "DefendedService": DefendedService(limited),
            "RemoteKV": wire,
            "RemoteClient": RemoteClient(surf_env.service, LAN),
            "RemoteClient(RemoteKV)": RemoteClient(wire, LAN),
        }
        wire.close()


@pytest.mark.parametrize("name", [cls.__name__ for cls in SERVICE_SHAPED]
                         + ["RemoteClient(RemoteKV)"])
def test_surface_answers_with_and_without_a_local_store(stacks, surf_env, name):
    service = stacks[name]
    local = "RemoteKV" not in name
    assert (service.db is surf_env.db) == local
    assert service.distinguish_unauthorized is True
    assert service.sim_now_us() == surf_env.clock.now_us
    keys = [surf_env.keys[0], b"\x00" * 5]
    plan = service.probe_plan(keys)
    try:
        assert (plan is not None) == local  # None: no store to prime from
        get_one = service.getter(ATTACKER_USER, plan)
        assert ([get_one(key).status for key in keys]
                == [r.status for r in service.get_many(ATTACKER_USER, keys)])
    finally:
        if plan is not None:
            plan.release()
