"""High-level ACL-checking system of the threat model (paper section 4)."""

from repro.system.acl import Acl, pack_value, unpack_value
from repro.system.defense import (
    DEFENSE_MODES,
    DefendedService,
    DefensePolicy,
    DefenseSnapshot,
    build_defended_service,
)
from repro.system.detector import (
    MonitoredService,
    SiphoningDetector,
    UserVerdict,
)
from repro.system.responses import Response, Status
from repro.system.network import (
    DATACENTER,
    LAN,
    LOCALHOST,
    WAN,
    NetworkModel,
    RemoteClient,
    remote_service,
)
from repro.system.ratelimit import RateLimitedService, RateLimitPolicy
from repro.system.service import (
    ACL_CHECK_US,
    REQUEST_OVERHEAD_US,
    KVService,
    ServiceLayer,
    ServiceStats,
)

__all__ = [
    "ACL_CHECK_US",
    "Acl",
    "DATACENTER",
    "DEFENSE_MODES",
    "DefendedService",
    "DefensePolicy",
    "DefenseSnapshot",
    "build_defended_service",
    "MonitoredService",
    "SiphoningDetector",
    "UserVerdict",
    "LAN",
    "LOCALHOST",
    "NetworkModel",
    "RateLimitPolicy",
    "RateLimitedService",
    "RemoteClient",
    "WAN",
    "remote_service",
    "KVService",
    "REQUEST_OVERHEAD_US",
    "Response",
    "ServiceLayer",
    "ServiceStats",
    "Status",
    "pack_value",
    "unpack_value",
]
