"""Request rate limiting — the paper's system-level mitigation (section 11).

"A system can rate limit user requests, thereby slowing down prefix
siphoning attacks.  This approach is viable only if the system is not
meant to handle a high rate of normal, benign requests."

The limiter is a token bucket per user over simulated time: a request
that exceeds the sustained rate stalls until a token accrues, which
inflates the *attack duration* without touching per-query timing — the
response-time side channel stays fully intact, only the attacker's
throughput collapses.  The mitigation bench quantifies exactly that:
unchanged keys-extracted, massively inflated simulated wall-clock.
"""

from __future__ import annotations

import threading
from collections import Counter
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.errors import ConfigError
from repro.system.responses import Response, discloses
from repro.system.service import KVService, ServiceLayer


@dataclass(frozen=True)
class RateLimitPolicy:
    """Token-bucket parameters."""

    requests_per_second: float
    burst: int = 32

    def __post_init__(self) -> None:
        if self.requests_per_second <= 0:
            raise ConfigError("rate must be positive")
        if self.burst < 1:
            raise ConfigError("burst must be at least 1")


class _Bucket:
    __slots__ = ("tokens", "last_us")

    def __init__(self, burst: int, now_us: float) -> None:
        self.tokens = float(burst)
        self.last_us = now_us


class RateLimitedService(ServiceLayer):
    """A :class:`KVService` facade that stalls over-rate users.

    Exposes the full service surface, so it drops into any experiment as
    the service.  Stalls advance the simulated clock — the cost the
    mitigation imposes is *time*, not errors.
    """

    def __init__(self, service: KVService, policy: RateLimitPolicy) -> None:
        super().__init__(service)
        self.limiter = self
        self.policy = policy
        self._buckets: Dict[int, _Bucket] = {}
        self._user_policies: Dict[int, RateLimitPolicy] = {}
        #: Serializes bucket mutation and the stall counters: admission is
        #: read-modify-write state, and concurrent callers (any
        #: multi-threaded embedder) would otherwise race on token
        #: accounting and lose stall counts.
        self._lock = threading.Lock()
        self.total_stall_us = 0.0
        self.stalled_requests = 0

    # ------------------------------------------------------------- throttling

    def set_user_policy(self, user: int,
                        policy: Optional[RateLimitPolicy]) -> None:
        """Override (or, with ``None``, restore) one user's policy.

        The escalation hook for the online defense: a flagged user can be
        squeezed to a far lower sustained rate without touching anyone
        else's budget.  The user's bucket is reset so the new burst cap
        applies immediately rather than after their old allowance drains.
        """
        with self._lock:
            if policy is None:
                self._user_policies.pop(user, None)
            else:
                self._user_policies[user] = policy
            self._buckets.pop(user, None)

    def user_policy(self, user: int) -> RateLimitPolicy:
        """The policy currently governing ``user``."""
        with self._lock:
            return self._user_policies.get(user, self.policy)

    def _admit(self, user: int) -> None:
        clock = self.db.clock
        with self._lock:
            policy = self._user_policies.get(user, self.policy)
            bucket = self._buckets.get(user)
            if bucket is None:
                bucket = _Bucket(policy.burst, clock.now_us)
                self._buckets[user] = bucket
            rate = policy.requests_per_second / 1e6  # tokens per us
            elapsed = clock.now_us - bucket.last_us
            bucket.tokens = min(float(policy.burst),
                                bucket.tokens + elapsed * rate)
            bucket.last_us = clock.now_us
            if bucket.tokens < 1.0:
                stall = (1.0 - bucket.tokens) / rate
                clock.charge(stall)
                self.total_stall_us += stall
                self.stalled_requests += 1
                bucket.tokens = 1.0
                bucket.last_us = clock.now_us
            bucket.tokens -= 1.0

    def stats_fields(self) -> Counter:
        """The wrapped stack's STATS counters plus this layer's stalls."""
        fields = self.service.stats_fields()
        with self._lock:
            fields["stalled_requests"] += self.stalled_requests
            fields["total_stall_us"] += self.total_stall_us
        return fields

    # ---------------------------------------------------------------- surface

    def put(self, user: int, key: bytes, payload: bytes, acl=None) -> Response:
        """Throttled write."""
        self._admit(user)
        return self.service.put(user, key, payload, acl)

    def put_timed(self, user: int, key: bytes, payload: bytes,
                  acl=None) -> Tuple[Response, float]:
        """Throttled timed write (stall excluded, as in get_timed)."""
        self._admit(user)
        return self.service.put_timed(user, key, payload, acl)

    def put_many(self, user: int, items, acl=None) -> List[Response]:
        """Throttled batch write.

        Admission is charged once per record — group commit amortizes the
        store's WAL traffic, not the user's request budget; the batch API
        must not become a rate-limit bypass.
        """
        items = list(items)
        for _ in items:
            self._admit(user)
        return self.service.put_many(user, items, acl)

    def put_many_timed(self, user: int, items,
                       acl=None) -> Tuple[List[Response], float]:
        """Throttled timed batch write (admission per record, stalls excluded)."""
        items = list(items)
        for _ in items:
            self._admit(user)
        return self.service.put_many_timed(user, items, acl)

    def delete(self, user: int, key: bytes) -> Response:
        """Throttled delete."""
        self._admit(user)
        return self.service.delete(user, key)

    def delete_timed(self, user: int, key: bytes) -> Tuple[Response, float]:
        """Throttled timed delete (stall excluded, as in get_timed)."""
        self._admit(user)
        return self.service.delete_timed(user, key)

    def get(self, user: int, key: bytes) -> Response:
        """Throttled point request."""
        self._admit(user)
        return self.service.get(user, key)

    def get_timed(self, user: int, key: bytes) -> Tuple[Response, float]:
        """Throttled point request; the observed time *excludes* the stall.

        The stall happens before dispatch (the client is queued), so the
        response time the attacker measures — request sent to response
        received — still reflects only the service's processing, keeping
        the side channel intact while throughput collapses.
        """
        self._admit(user)
        return self.service.get_timed(user, key)

    def getter(self, user: int) -> Callable[[bytes], Response]:
        """Fast-path closure that still pays admission per request.

        Every call goes through the token bucket first — the batch API
        must not become a rate-limit bypass.
        """
        admit = self._admit
        get_one = self.service.getter(user)

        def get_admitted(key: bytes) -> Response:
            admit(user)
            return get_one(key)

        return get_admitted

    # The batch reads are the wrapped stack's batch read, each key
    # admitted before its first charge — where the per-key loop admits,
    # so stalls stay out of the per-key times.  Over a KVService that is
    # one pass of the store's search loop.

    def get_many(self, user: int, keys: Sequence[bytes]) -> List[Response]:
        """Throttled batch read (admission charged per key)."""
        return self.service._read_batch(user, keys,
                                        admit=partial(self._admit, user))

    def get_many_timed(self, user: int, keys: Sequence[bytes]
                       ) -> List[Tuple[Response, float]]:
        """Throttled batch ``get_timed`` (stalls excluded, as in get_timed)."""
        return self.service._read_batch_timed(
            user, keys, admit=partial(self._admit, user))

    def get_until_found(self, user: int, keys: Sequence[bytes]
                        ) -> List[Response]:
        """Throttled ``get`` over ``keys`` up to the first disclosing
        response; only the keys issued are admitted."""
        return self.service._read_batch(user, keys, until=discloses,
                                        admit=partial(self._admit, user))

    def range_query(self, user: int, low: bytes, high: bytes,
                    limit: Optional[int] = None):
        """Throttled range request."""
        self._admit(user)
        return self.service.range_query(user, low, high, limit=limit)

    def range_query_timed(self, user: int, low: bytes, high: bytes,
                          limit: Optional[int] = None):
        """Throttled timed range request (stall excluded, as in get_timed)."""
        self._admit(user)
        return self.service.range_query_timed(user, low, high, limit=limit)
