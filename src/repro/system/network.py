"""Remote-attacker network model (threat model, paper section 4).

The paper assumes only that the attacker "can observe microsecond-level
timing differences in the response times", citing Crosby et al. (20 us
resolution over the circa-2009 Internet, 100 ns on a LAN) and concurrency
based timing attacks (100 ns over the Internet).  This module makes that
assumption explicit and testable: a :class:`RemoteClient` wraps the
service and adds round-trip latency with seeded jitter to every observed
response time, so experiments can quantify how much network noise the
4-query-averaging attack tolerates (the network ablation bench).

Presets correspond to the paper's cited scenarios.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

from repro.common.errors import ConfigError
from repro.common.rng import SeededRng, make_rng
from repro.system.responses import Response
from repro.system.service import KVService


@dataclass(frozen=True)
class NetworkModel:
    """Round-trip time model: base RTT plus lognormal jitter (us)."""

    rtt_us: float
    #: Standard deviation of the jitter added per request, in microseconds.
    jitter_us: float
    name: str = "custom"

    def __post_init__(self) -> None:
        if self.rtt_us < 0 or self.jitter_us < 0:
            raise ConfigError("RTT and jitter must be non-negative")


#: Same-host measurement (the paper's experimental setup).
LOCALHOST = NetworkModel(rtt_us=0.0, jitter_us=0.0, name="localhost")
#: LAN attacker: ~100 us RTT, sub-microsecond effective jitter after
#: kernel bypass / careful measurement (Crosby et al.: 100 ns resolution).
LAN = NetworkModel(rtt_us=100.0, jitter_us=1.0, name="lan")
#: Same-datacenter cloud attacker (paper: "placing themselves in the
#: datacenter hosting the target").
DATACENTER = NetworkModel(rtt_us=500.0, jitter_us=5.0, name="datacenter")
#: WAN attacker: tens of ms RTT; Crosby et al. resolve ~20 us differences.
WAN = NetworkModel(rtt_us=40_000.0, jitter_us=15.0, name="wan")


class RemoteClient:
    """The attacker's view of a KV transport across a network.

    ``transport`` is anything with the service surface (DESIGN.md,
    "Service surface"): the in-process service itself, a facade over it,
    or the wire client :class:`~repro.server.client.RemoteKV`.
    Injecting the transport keeps exactly one copy of the observation
    model — every transport's reported times gain RTT + jitter through
    the same :meth:`_observe` path, so the simulated-network benches and
    the real serving layer share one interface.

    Responses are unchanged; observed response times gain RTT + jitter.
    The jitter draws from this client's own seeded stream, so adding a
    remote client never perturbs the server-side simulation.  The client
    answers the whole attack-side surface by handing everything but the
    observed times to its transport, so a remote attacker plugs into the
    oracles, :func:`~repro.core.learning.learn_cutoff` and the full
    three-step :class:`~repro.core.template.PrefixSiphoningAttack`
    unchanged.
    """

    def __init__(self, transport, model: NetworkModel,
                 rng: SeededRng = None) -> None:
        self.transport = transport
        self.model = model
        #: The transport's store handle (None across a real wire).
        self.db = transport.db
        self.distinguish_unauthorized = transport.distinguish_unauthorized
        self._rng = rng or make_rng(None, f"network/{model.name}")

    def sim_now_us(self) -> float:
        """The server's simulated clock (the attacker's wall time is not modelled)."""
        return self.transport.sim_now_us()

    def get(self, user: int, key: bytes) -> Response:
        """Plain request (extension probes do not need timing)."""
        return self.transport.get(user, key)

    def get_timed(self, user: int, key: bytes) -> Tuple[Response, float]:
        """Request plus the response time as observed by the attacker."""
        response, server_us = self.transport.get_timed(user, key)
        return response, self._observe(server_us)

    def getter(self, user: int) -> Callable[[bytes], Response]:
        """Fast-path closure (plain requests carry no network timing)."""
        return self.transport.getter(user)

    def get_many(self, user: int, keys: Sequence[bytes]) -> List[Response]:
        """Batch of plain requests."""
        return self.transport.get_many(user, keys)

    def get_until_found(self, user: int, keys: Sequence[bytes]
                        ) -> List[Response]:
        """The transport's early-exit batch (no timing observed)."""
        return self.transport.get_until_found(user, keys)

    def get_many_timed(self, user: int, keys: Sequence[bytes]
                       ) -> List[Tuple[Response, float]]:
        """Batch of timed requests; noise draws match a ``get_timed`` loop.

        Delegates to the transport's batch API (preserving whatever timing
        semantics it implements, e.g. stall exclusion), then adds RTT +
        jitter per response.  The jitter stream is this client's own, so
        the per-key draw sequence equals a ``get_timed`` loop's.
        """
        observe = self._observe
        return [(response, observe(server_us))
                for response, server_us
                in self.transport.get_many_timed(user, keys)]

    def _observe(self, server_us: float) -> float:
        """One observation: server-reported time + RTT + one-sided jitter.

        The single point where network observation is modelled — queueing
        style noise only ever *adds* delay.
        """
        observed = server_us + self.model.rtt_us
        if self.model.jitter_us:
            observed += abs(self._rng.gauss(0.0, self.model.jitter_us))
        return observed


def remote_service(service: KVService, model: NetworkModel,
                   seed: int = 0) -> RemoteClient:
    """Convenience constructor: service as seen from across ``model``."""
    return RemoteClient(service, model, make_rng(seed, f"net/{model.name}"))
