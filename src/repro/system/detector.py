"""Prefix-siphoning anomaly detection.

The paper closes by encouraging practitioners "to evaluate the security
impact of their work"; this module is the defensive counterpart of the
attack: a per-user, sliding-window detector over the request stream the
service already sees.  It scores two signatures that every prefix
siphoning variant exhibits and benign traffic does not:

* **miss ratio** — the attack guesses keys, so nearly all of its requests
  fail (FindFPK, IdPrefix probes, suffix extension).  Benign workloads
  look up keys they were given.
* **failed-key prefix clustering** — IdPrefix and step-3 extension hammer
  one shared prefix with thousands of sibling keys; the average adjacent
  longest-common-prefix of the window's *failed* keys, in excess of what
  its own size predicts for uniform keys, exposes that focus.  (A window
  of w uniform b-bit-symbol keys has expected adjacent LCP that grows
  with log(w), so the threshold is calibrated against the window, not a
  constant.)

The detector sees only what an ACL-checking service already logs (user,
key, outcome); it needs no engine hooks.  Detection does not *prevent*
the leak — it arms the rate-limiting/blocking response the paper's
section 11 discusses.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.common.keys import common_prefix_lens
from repro.system.responses import Response, Status
from repro.system.service import KVService, ServiceLayer


#: Requests per user in the sliding window.
WINDOW = 512
#: Minimum observations before the detector may fire.
MIN_REQUESTS = 256
#: Miss-ratio threshold; benign mixes sit well below it.
MISS_RATIO_THRESHOLD = 0.90
#: Miss ratio at which no clustering evidence is needed: essentially
#: every request failing is the FindFPK guessing phase's signature.
EXTREME_MISS_RATIO = 0.98
#: How many bytes of adjacent-LCP *excess* over the uniform baseline the
#: failed-key window must show (jointly with the miss ratio).
LCP_EXCESS_THRESHOLD = 0.75


@dataclass
class UserVerdict:
    """Current detector state for one user."""

    requests_seen: int
    miss_ratio: float
    lcp_excess: float
    flagged: bool
    reason: str


class SiphoningDetector:
    """Per-user sliding-window scoring of the request stream.

    Thread-safe: embedders may observe from many threads (and re-score
    concurrently with observation), so
    window mutation and scoring serialize on one lock.  ``observe`` is a
    deque append plus a counter bump — the lock is never held across
    anything slow.
    """

    def __init__(self) -> None:
        self._windows: Dict[int, Deque[Tuple[bytes, bool]]] = {}
        self._totals: Dict[int, int] = {}
        self._lock = threading.Lock()

    # --------------------------------------------------------------- feeding

    def observe(self, user: int, key: bytes, status: Status) -> None:
        """Record one request outcome (OK vs any failure)."""
        with self._lock:
            window = self._windows.setdefault(
                user, deque(maxlen=WINDOW))
            window.append((key, status is Status.OK))
            self._totals[user] = self._totals.get(user, 0) + 1

    # --------------------------------------------------------------- scoring

    def verdict(self, user: int) -> UserVerdict:
        """Score ``user``'s recent window."""
        with self._lock:
            window = self._windows.get(user)
            seen = self._totals.get(user, 0)
            if not window or seen < MIN_REQUESTS:
                return UserVerdict(seen, 0.0, 0.0, False, "insufficient data")
            misses = [key for key, ok in window if not ok]
            window_len = len(window)
        miss_ratio = len(misses) / window_len
        lcp_excess = self._lcp_excess(misses)
        if miss_ratio >= EXTREME_MISS_RATIO:
            return UserVerdict(
                seen, miss_ratio, lcp_excess, True,
                f"extreme miss ratio {miss_ratio:.2f} (guessing phase)")
        if miss_ratio < MISS_RATIO_THRESHOLD:
            return UserVerdict(seen, miss_ratio, lcp_excess, False,
                               "healthy miss ratio")
        if lcp_excess < LCP_EXCESS_THRESHOLD:
            return UserVerdict(seen, miss_ratio, lcp_excess, False,
                               "misses look unfocused")
        return UserVerdict(
            seen, miss_ratio, lcp_excess, True,
            f"miss ratio {miss_ratio:.2f} with prefix-clustered failures "
            f"(+{lcp_excess:.2f} bytes over uniform)")

    def flagged_users(self):
        """Users whose current window trips the detector."""
        with self._lock:
            users = list(self._windows)
        return [user for user in users if self.verdict(user).flagged]

    def _lcp_excess(self, misses) -> float:
        if len(misses) < 8:
            return 0.0
        ordered = sorted(misses)
        mean_lcp = sum(common_prefix_lens(ordered)) / (len(ordered) - 1)
        # Uniform baseline: among w uniform byte-strings, the expected
        # adjacent LCP is ~log_256(w) plus a small constant tail.
        baseline = math.log(max(2, len(ordered)), 256) + 256 / 255 - 1
        return mean_lcp - baseline


class MonitoredService(ServiceLayer):
    """A :class:`KVService` facade that feeds the detector inline.

    Exposes the *full* surface the attack oracles and the wire servers
    consume — scalar and batch, reads and writes — with one observation
    per key, so the batched probe-engine paths (``getter`` /
    ``get_many`` / ``get_many_timed``) feed the detector exactly like a
    loop of scalar gets: a batched attack trips the same verdict as the
    serial one.  Detection is passive here (observe + flag); pairing it
    with :class:`~repro.system.ratelimit.RateLimitedService` — or the
    active :class:`~repro.system.defense.DefendedService` — yields the
    detect-then-throttle response of section 11.
    """

    def __init__(self, service: KVService) -> None:
        super().__init__(service)
        self.detector = SiphoningDetector()

    # ------------------------------------------------------------------ reads

    def get(self, user: int, key: bytes) -> Response:
        """Forward a point request, recording its outcome."""
        response = self.service.get(user, key)
        self.detector.observe(user, key, response.status)
        return response

    def get_timed(self, user: int, key: bytes):
        """Forward a timed point request, recording its outcome."""
        response, elapsed = self.service.get_timed(user, key)
        self.detector.observe(user, key, response.status)
        return response, elapsed

    def getter(self, user: int) -> Callable[[bytes], Response]:
        """Fast-path closure with per-key observation.

        This is the single point the batch APIs and the attack oracles'
        probe fast path build on — observing here closes the blind spot
        where probe-engine queries bypassed the detector entirely.
        """
        get_one = self.service.getter(user)
        observe = self.detector.observe

        def monitored_get(key: bytes) -> Response:
            response = get_one(key)
            observe(user, key, response.status)
            return response

        return monitored_get

    def get_many(self, user: int, keys: Sequence[bytes]) -> List[Response]:
        """Batch read, one observation per key."""
        keys = list(keys)
        responses = self.service.get_many(user, keys)
        for key, response in zip(keys, responses):
            self.detector.observe(user, key, response.status)
        return responses

    def get_many_timed(self, user: int, keys: Sequence[bytes]
                       ) -> List[Tuple[Response, float]]:
        """Batch timed read, one observation per key.

        Delegates to the wrapped service's own timed batch, so per-key
        times are exactly what the unmonitored stack reports — including
        a stacked rate limiter's stall *exclusion* (stalls are client
        queuing, not response time; re-timing here would leak them into
        the measurement).  Observation touches no clock, stats, or RNG.
        """
        keys = list(keys)
        timed = self.service.get_many_timed(user, keys)
        for key, (response, _) in zip(keys, timed):
            self.detector.observe(user, key, response.status)
        return timed

    def range_query(self, user: int, low: bytes, high: bytes,
                    limit: Optional[int] = None):
        """Forward a range request, recording emptiness as a miss."""
        out = self.service.range_query(user, low, high, limit=limit)
        self.detector.observe(user, low,
                              Status.OK if out else Status.NOT_FOUND)
        return out

    def range_query_timed(self, user: int, low: bytes, high: bytes,
                          limit: Optional[int] = None):
        """Forward a timed range request, recording emptiness as a miss."""
        out, elapsed = self.service.range_query_timed(user, low, high,
                                                      limit=limit)
        self.detector.observe(user, low,
                              Status.OK if out else Status.NOT_FOUND)
        return out, elapsed

    # ----------------------------------------------------------------- writes

    def put(self, user: int, key: bytes, payload: bytes,
            acl=None) -> Response:
        """Forward a write, recording its outcome."""
        response = self.service.put(user, key, payload, acl)
        self.detector.observe(user, key, response.status)
        return response

    def put_timed(self, user: int, key: bytes, payload: bytes,
                  acl=None) -> Tuple[Response, float]:
        """Forward a timed write, recording its outcome."""
        response, elapsed = self.service.put_timed(user, key, payload, acl)
        self.detector.observe(user, key, response.status)
        return response, elapsed

    def put_many(self, user: int, items, acl=None) -> List[Response]:
        """Forward a batch write, one observation per record."""
        items = list(items)
        responses = self.service.put_many(user, items, acl)
        for (key, _), response in zip(items, responses):
            self.detector.observe(user, key, response.status)
        return responses

    def put_many_timed(self, user: int, items,
                       acl=None) -> Tuple[List[Response], float]:
        """Forward a timed batch write, one observation per record."""
        items = list(items)
        responses, elapsed = self.service.put_many_timed(user, items, acl)
        for (key, _), response in zip(items, responses):
            self.detector.observe(user, key, response.status)
        return responses, elapsed

    def delete(self, user: int, key: bytes) -> Response:
        """Forward a delete, recording its outcome (misses included)."""
        response = self.service.delete(user, key)
        self.detector.observe(user, key, response.status)
        return response

    def delete_timed(self, user: int, key: bytes) -> Tuple[Response, float]:
        """Forward a timed delete, recording its outcome."""
        response, elapsed = self.service.delete_timed(user, key)
        self.detector.observe(user, key, response.status)
        return response, elapsed
