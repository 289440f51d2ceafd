"""Positive/negative oracles: the attacker's view of filter decisions.

Two implementations of the same interface:

* :class:`TimingOracle` — the real attack.  Classifies keys by averaging
  the response times of several queries per key, executed breadth-first
  with background-load cache churn between rounds (paper section 9), and
  comparing against the cutoff learned in the preliminary phase.
* :class:`IdealizedOracle` — the paper's idealized attack (section
  10.2.2), which reads the engine's filter decision from debugging
  counters instead of timing, never misclassifying.

Both also expose :meth:`probe`, the response-code query used by step 3
(extension does not need timing: "not found" vs "unauthorized" is the
signal).
"""

from __future__ import annotations

import abc
from typing import Callable, List, Optional, Sequence

from repro.common.errors import ConfigError
from repro.core.results import QueryCounter
from repro.storage.background import BackgroundLoad
from repro.system.responses import DISCLOSING, Status
from repro.system.service import KVService


class ProbeOracle(abc.ABC):
    """What step 3 needs of an oracle: authorization-observing probes."""

    @abc.abstractmethod
    def probe(self, key: bytes) -> Status:
        """One query's response status (and its accounting)."""

    def prober(self) -> Callable[[bytes], Status]:
        """A ``key -> Status`` callable equivalent to :meth:`probe`."""
        return self.probe

    def probe_many(self, keys: Sequence[bytes]) -> List[Status]:
        """:meth:`probe` over ``keys`` in order, up to and including the
        first status that discloses a stored key; later keys are never
        probed."""
        probe = self.prober()
        statuses: List[Status] = []
        for key in keys:
            status = probe(key)
            statuses.append(status)
            if status in DISCLOSING:
                break
        return statuses


class QueryOracle(ProbeOracle):
    """Attacker-side query interface with per-stage accounting."""

    def __init__(self, service: KVService, attacker_user: int) -> None:
        self.service = service
        self.attacker_user = attacker_user
        self.counter = QueryCounter()

    @abc.abstractmethod
    def classify(self, keys: Sequence[bytes]) -> List[bool]:
        """True per key iff the key looks *positive* (passes some filter)."""

    def wait_for_eviction(self) -> None:
        """Between-iteration pause (section 9); oracles that need the page
        cache cold override this, others inherit the no-op."""

    def probe(self, key: bytes) -> Status:
        """One authorization-observing query (step-3 extension probe)."""
        self.counter.charge(1)
        return self.service.get(self.attacker_user, key).status

    def prober(self) -> Callable[[bytes], Status]:
        """``key -> Status`` callable equivalent to :meth:`probe`, built on
        the service's per-request closure (accounting and simulated
        charges are :meth:`probe`'s)."""
        counter = self.counter
        get_one = self.service.getter(self.attacker_user)

        def probe_one(key: bytes) -> Status:
            counter.charge(1)
            return get_one(key).status

        return probe_one

    def probe_many(self, keys: Sequence[bytes]) -> List[Status]:
        """:meth:`probe` over ``keys`` until one discloses a stored key.

        One call of the service's ``get_until_found``: in process, the
        store's search loop runs the whole chunk (its filter verdicts
        precomputed in one pure batched pass) and stops at the first hit,
        so the queries issued, their responses and the simulated time are
        exactly a :meth:`probe` loop's.  One counted query per key issued.
        """
        responses = self.service.get_until_found(self.attacker_user, keys)
        self.counter.charge(len(responses))
        return [response.status for response in responses]

    def prober_for(self, keys: Sequence[bytes]) -> Callable[[bytes], Status]:
        """:meth:`prober`; ``keys`` is the batch the caller will probe.

        The attack issues its batches through :meth:`probe_many`; this
        name stays in this class body because the e2e tracer
        (``benchmarks/e2e/trace.py``) spans it here.
        """
        return self.prober()


class TimingOracle(QueryOracle):
    """Classification by response-time measurement (the actual attack)."""

    def __init__(self, service: KVService, attacker_user: int,
                 cutoff_us: float, rounds: int = 4,
                 background: Optional[BackgroundLoad] = None,
                 wait_us: Optional[float] = None) -> None:
        super().__init__(service, attacker_user)
        if cutoff_us <= 0:
            raise ConfigError(f"cutoff must be positive, got {cutoff_us}")
        if rounds < 1:
            raise ConfigError(f"rounds must be at least 1, got {rounds}")
        self.cutoff_us = cutoff_us
        self.rounds = rounds
        self.background = background
        # Default wait: long enough for the background load to displace the
        # page cache (the simulated analogue of the paper's 20 s).
        if wait_us is None and background is not None:
            wait_us = background.eviction_wait_us()
        self.wait_us = wait_us or 0.0

    def classify(self, keys: Sequence[bytes]) -> List[bool]:
        """Breadth-first ``rounds``-query averages against the cutoff.

        One query per key per round; the page-cache eviction wait happens
        once per round, not once per key — the scheduling insight of
        section 9 that makes the attack practical.
        """
        totals = [0.0] * len(keys)
        for round_index in range(self.rounds):
            self.counter.charge(len(keys))
            timed = self.service.get_many_timed(self.attacker_user, keys)
            for i, (_, elapsed) in enumerate(timed):
                totals[i] += elapsed
            if self.background is not None and round_index + 1 < self.rounds:
                self.background.run_for(self.wait_us)
        return [total / self.rounds >= self.cutoff_us for total in totals]

    def wait_for_eviction(self) -> None:
        """Explicit between-iteration wait (used by multi-batch stages)."""
        if self.background is not None:
            self.background.run_for(self.wait_us)


class FineTimingOracle(QueryOracle):
    """Classification via the cached-positive channel (section 5.2 footnote).

    Queries each key once to pull any covered SSTable block into the page
    cache, then averages ``rounds`` back-to-back measurements: a cached
    positive pays the (small but consistent) block-access cost on every
    query, a negative never does.  No eviction waits — the attack runs at
    full query throughput, trading more queries per key for zero waiting,
    the opposite corner of the trade-off the paper's section 9 scheduler
    occupies.
    """

    def __init__(self, service: KVService, attacker_user: int,
                 cutoff_us: float, rounds: int = 12) -> None:
        super().__init__(service, attacker_user)
        if cutoff_us <= 0:
            raise ConfigError(f"cutoff must be positive, got {cutoff_us}")
        if rounds < 2:
            raise ConfigError("fine-grained averaging needs at least 2 rounds")
        self.cutoff_us = cutoff_us
        self.rounds = rounds

    def classify(self, keys: Sequence[bytes]) -> List[bool]:
        """Warm-then-average classification, no waits.

        One ``get_many_timed`` call covers the whole key set: the
        schedule concatenates each key's warm query plus ``rounds``
        measurements, so the query sequence — and therefore every
        simulated latency — is identical to the per-key calls this
        replaces, while the filter-probe prepass and the Python batch
        overhead are paid once instead of ``len(keys)`` times.  Each
        key's first sample (the warm-up) is still discarded.
        """
        if not keys:
            return []
        rounds = self.rounds
        per_key = rounds + 1
        self.counter.charge(per_key * len(keys))
        schedule: List[bytes] = []
        for key in keys:
            schedule.extend([key] * per_key)
        timed = self.service.get_many_timed(self.attacker_user, schedule)
        out: List[bool] = []
        for start in range(0, len(timed), per_key):
            total = sum(elapsed
                        for _, elapsed in timed[start + 1:start + per_key])
            out.append(total / rounds >= self.cutoff_us)
        return out

    def wait_for_eviction(self) -> None:
        """No-op: the fine-grained channel needs the cache *warm*."""


class IdealizedOracle(QueryOracle):
    """Classification via engine debug counters (never wrong, no waits)."""

    def classify(self, keys: Sequence[bytes]) -> List[bool]:
        """Exact filter decisions, one (accounted) query per key.

        Runs through the store's batched ``filters_pass_many`` — the
        counter still advances by one per key and the verdicts are
        exactly the per-key ``filters_pass`` loop's.
        """
        keys = list(keys)
        self.counter.charge(len(keys))
        return self.service.db.filters_pass_many(keys)

    def wait_for_eviction(self) -> None:
        """No-op: the idealized attack never waits (section 10.2.2)."""
