"""The high-level system of the threat model (paper section 4).

A :class:`KVService` fronts the LSM-tree like an object store or database
would: users issue requests through it (never touching the store
directly), and it checks the per-key ACL embedded in each value before
releasing data.  Crucially — and this is the property prefix siphoning
exploits — the service must *read the value to learn the ACL*, so the
key-value store performs the full filter-then-maybe-I/O dance for every
request, authorized or not, and the store's response time shows through in
the service's response time.

``distinguish_unauthorized`` controls whether clients can tell "no such
key" from "no permission".  Systems that distinguish (most REST APIs: 404
vs 403) enable full-key extraction; systems that do not still leak
prefixes.
"""

from __future__ import annotations

import threading
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, List, Optional, Sequence, Tuple

from repro.common.errors import ServiceError
from repro.lsm.db import LSMTree
from repro.system.acl import Acl, pack_value, unpack_value
from repro.system.responses import Response, Status, discloses

#: Simulated cost of request parsing/dispatch in the service layer.
REQUEST_OVERHEAD_US = 1.0
#: Simulated cost of the ACL check on a value.
ACL_CHECK_US = 0.3


@dataclass
class ServiceStats:
    """Request counters by outcome.

    Increments go through :meth:`record` under a lock: ``+=`` on an
    attribute is a read-modify-write, and concurrent callers (any
    multi-threaded embedder) would otherwise lose counts.
    """

    requests: int = 0
    ok: int = 0
    not_found: int = 0
    unauthorized: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False, compare=False)

    def record(self, requests: int, ok: int, not_found: int) -> None:
        """Atomically count requests; those neither ``ok`` nor
        ``not_found`` were unauthorized."""
        with self._lock:
            self.requests += requests
            self.ok += ok
            self.not_found += not_found
            self.unauthorized += requests - ok - not_found


class KVService:
    """ACL-enforcing facade over an :class:`LSMTree`.

    The bottom of every service stack, and the reference for the surface
    the attack side and the wire server call on any service-shaped object
    (DESIGN.md, "Service surface").
    """

    #: The layer that can escalate one user's rate limit: none down here.
    limiter = None

    def __init__(self, db: LSMTree, distinguish_unauthorized: bool = True) -> None:
        self.db = db
        self.distinguish_unauthorized = distinguish_unauthorized
        self.stats = ServiceStats()

    # ---------------------------------------------------------- introspection

    def sim_now_us(self) -> float:
        """The simulated clock every request of this stack is charged to."""
        return self.db.clock.now_us

    def stats_fields(self) -> Counter:
        """This stack's STATS counters, by ``StatsSnapshot`` field name.

        The store and the request counters are this layer's; every
        :class:`ServiceLayer` above adds its own to the same mapping (a
        field nobody has written yet reads 0).
        """
        db, dbstats, stats = self.db, self.db.stats, self.stats
        return Counter(
            sim_now_us=db.clock.now_us,
            requests=stats.requests, ok=stats.ok,
            not_found=stats.not_found, unauthorized=stats.unauthorized,
            compactions_run=db.compactions_run,
            background_cycles=db.background_cycles,
            range_queries=dbstats.range_queries)

    # ----------------------------------------------------------------- writes

    def put(self, user: int, key: bytes, payload: bytes,
            acl: Optional[Acl] = None) -> Response:
        """Store an object owned by ``user`` (or an explicit ACL)."""
        record_acl = acl or Acl(owner=user)
        if not record_acl.allows_read(user) and record_acl.owner != user:
            raise ServiceError("cannot create an object its owner cannot read")
        self.db.put(key, pack_value(record_acl, payload))
        return Response(Status.OK)

    def put_timed(self, user: int, key: bytes, payload: bytes,
                  acl: Optional[Acl] = None) -> Tuple[Response, float]:
        """``put`` plus the simulated response time the client observes."""
        with self.db.clock.measure() as stopwatch:
            response = self.put(user, key, payload, acl)
        return response, stopwatch.elapsed_us

    def put_many(self, user: int, items: Sequence[Tuple[bytes, bytes]],
                 acl: Optional[Acl] = None) -> List[Response]:
        """Batch store through the LSM's group-commit write path.

        All records share one ACL (``user``'s by default) and reach the
        store via :meth:`~repro.lsm.db.LSMTree.put_many` — one WAL append
        for the whole batch, state identical to a loop of :meth:`put`.
        """
        record_acl = acl or Acl(owner=user)
        if not record_acl.allows_read(user) and record_acl.owner != user:
            raise ServiceError("cannot create an object its owner cannot read")
        packed = [(key, pack_value(record_acl, payload))
                  for key, payload in items]
        self.db.put_many(packed)
        return [Response(Status.OK)] * len(packed)

    def put_many_timed(self, user: int, items: Sequence[Tuple[bytes, bytes]],
                       acl: Optional[Acl] = None
                       ) -> Tuple[List[Response], float]:
        """``put_many`` plus the simulated elapsed time of the whole batch."""
        with self.db.clock.measure() as stopwatch:
            responses = self.put_many(user, items, acl)
        return responses, stopwatch.elapsed_us

    def delete(self, user: int, key: bytes) -> Response:
        """Delete an object; only its owner may.

        Like :meth:`get`, the ACL lives in the value, so the service must
        read it first — an unauthorized delete still walks the full
        filter-then-maybe-I/O read path and leaks the same timing.
        """
        self.db.charge_cost(REQUEST_OVERHEAD_US)
        stored = self.db.get(key)
        if stored is None:
            self.stats.record(1, 0, 1)
            return Response(self._failure(Status.NOT_FOUND))
        self.db.charge_cost(ACL_CHECK_US)
        acl, _ = unpack_value(stored)
        if acl.owner != user:
            self.stats.record(1, 0, 0)
            return Response(self._failure(Status.UNAUTHORIZED))
        self.db.delete(key)
        self.stats.record(1, 1, 0)
        return Response(Status.OK)

    def delete_timed(self, user: int, key: bytes) -> Tuple[Response, float]:
        """``delete`` plus the simulated response time."""
        with self.db.clock.measure() as stopwatch:
            response = self.delete(user, key)
        return response, stopwatch.elapsed_us

    # ------------------------------------------------------------------ reads

    def get(self, user: int, key: bytes) -> Response:
        """Read an object, enforcing its ACL.

        The failure statuses follow the threat model: NOT_FOUND vs
        UNAUTHORIZED when the system distinguishes them, a single FAILED
        otherwise.
        """
        self.db.charge_cost(REQUEST_OVERHEAD_US)
        stored = self.db.get(key)
        if stored is None:
            self.stats.record(1, 0, 1)
            return Response(self._failure(Status.NOT_FOUND))
        response = self._check(user, stored)
        self.stats.record(1, response.status is Status.OK, 0)
        return response

    def get_timed(self, user: int, key: bytes) -> Tuple[Response, float]:
        """``get`` plus the simulated response time the client observes."""
        with self.db.clock.measure() as stopwatch:
            response = self.get(user, key)
        return response, stopwatch.elapsed_us

    def getter(self, user: int) -> Callable[[bytes], Response]:
        """Per-request closure for per-key callers (the facades' getters).

        Returns a ``key -> Response`` callable observationally equivalent
        to :meth:`get` (same charges, same stats, same RNG draws).
        """
        db_get = self.db.getter()
        record = self.stats.record
        charge = self.db.charge_cost
        check = self._check
        not_found_status = self._failure(Status.NOT_FOUND)

        def get_one(key: bytes) -> Response:
            charge(REQUEST_OVERHEAD_US)
            stored = db_get(key)
            if stored is None:
                record(1, 0, 1)
                return Response(not_found_status)
            response = check(user, stored)
            record(1, response.status is Status.OK, 0)
            return response

        return get_one

    # The batch reads hand the store's search loop (``db.get_many*``) the
    # whole batch plus this service's per-request envelope: the request
    # overhead is charged before each key and ``_check`` runs on each
    # found value, so every charge and draw lands where :meth:`get`'s
    # would; the batch's outcomes are counted once.

    def get_many(self, user: int, keys: Sequence[bytes]) -> List[Response]:
        """Batch read: ``[self.get(user, k) for k in keys]``, one pass."""
        return self._read_batch(user, keys)

    def get_many_timed(self, user: int, keys: Sequence[bytes]
                       ) -> List[Tuple[Response, float]]:
        """Batch ``get_timed``: per-key (response, simulated elapsed us).

        The per-key times are identical to what a loop of
        :meth:`get_timed` calls would observe; only the wall-clock cost of
        issuing 10^5-10^6 attack queries drops.  The store's batched
        filter-probe prepass runs before the first request is dispatched
        — it is pure, so the per-key charges and RNG draws are untouched.
        """
        return self._read_batch_timed(user, keys)

    def get_until_found(self, user: int, keys: Sequence[bytes]
                        ) -> List[Response]:
        """:meth:`get` over ``keys`` in order, up to and including the first
        response that discloses a stored key (OK, or UNAUTHORIZED when
        the system distinguishes it); later keys are never issued."""
        return self._read_batch(user, keys, until=discloses)

    def _read_batch(self, user: int, keys: Sequence[bytes], until=None,
                    admit: Optional[Callable[[], None]] = None
                    ) -> List[Response]:
        """The batch reads' one pass (:meth:`ServiceLayer._read_batch`):
        ``admit()`` before each key, outside its charges; ``until`` cuts
        the batch after the first found key's response it accepts."""
        return self._responses(self.db.get_many(
            keys, request_us=REQUEST_OVERHEAD_US,
            on_found=partial(self._check, user), until=until, admit=admit))

    def _read_batch_timed(self, user: int, keys: Sequence[bytes],
                          admit: Optional[Callable[[], None]] = None
                          ) -> List[Tuple[Response, float]]:
        """:meth:`_read_batch` with each key's simulated time, which
        excludes its admission."""
        timed = self.db.get_many_timed(
            keys, request_us=REQUEST_OVERHEAD_US,
            on_found=partial(self._check, user), admit=admit)
        responses = self._responses([result for result, _ in timed])
        return [(response, elapsed)
                for response, (_, elapsed) in zip(responses, timed)]

    def _check(self, user: int, stored: bytes) -> Response:
        """The ACL check of a found value, charged through ``db.charge_cost``."""
        self.db.charge_cost(ACL_CHECK_US)
        acl, payload = unpack_value(stored)
        if not acl.allows_read(user):
            return Response(self._failure(Status.UNAUTHORIZED))
        return Response(Status.OK, payload)

    def _responses(self, results: List[Optional[Response]]
                   ) -> List[Response]:
        """A batch's per-key results (None: not found) as responses, its
        outcomes counted once."""
        not_found = Response(self._failure(Status.NOT_FOUND))
        responses: List[Response] = []
        missing = ok = 0
        for result in results:
            if result is None:
                missing += 1
                result = not_found
            elif result.status is Status.OK:
                ok += 1
            responses.append(result)
        self.stats.record(len(responses), ok, missing)
        return responses

    def range_query(self, user: int, low: bytes, high: bytes,
                    limit: Optional[int] = None):
        """Range read returning only the entries ``user`` may see, at most
        ``limit`` of them."""
        if limit is not None and limit < 1:
            # The store's rule: nothing read or charged for 0, an error
            # below it.
            return self.db.range_query(low, high, limit)
        out = []
        for key, stored in self.db.range_query(low, high, limit=None):
            acl, payload = unpack_value(stored)
            self.db.charge_cost(ACL_CHECK_US)
            if acl.allows_read(user):
                out.append((key, payload))
                if limit is not None and len(out) >= limit:
                    break
        return out

    def range_query_timed(self, user: int, low: bytes, high: bytes,
                          limit: Optional[int] = None):
        """``range_query`` plus the client-observed response time.

        Range responses only list entries the user may read, but the
        *response time* still reflects the store's range-filter decisions
        and I/O — the side channel the range-descent attack exploits.
        """
        with self.db.clock.measure() as stopwatch:
            out = self.range_query(user, low, high, limit=limit)
        return out, stopwatch.elapsed_us

    def _failure(self, status: Status) -> Status:
        return status if self.distinguish_unauthorized else Status.FAILED


class ServiceLayer:
    """What a facade over another service passes through, declared once.

    A layer adds behaviour to the request methods (each subclass defines
    all of them, and ``getter``, in its own body) and answers everything
    else for itself plus what it wraps — so a stack of any depth reads
    like its bottom :class:`KVService`.
    """

    def __init__(self, service) -> None:
        self.service = service
        self.db = service.db
        self.distinguish_unauthorized = service.distinguish_unauthorized
        #: The nearest layer that can escalate per user, or None.
        self.limiter = service.limiter

    def get_until_found(self, user: int, keys: Sequence[bytes]
                        ) -> List[Response]:
        """This layer's own ``getter`` over ``keys``, cut after the first
        disclosing response — so the layer admits and observes exactly
        the keys issued."""
        return self._read_batch(user, keys, until=discloses)

    # A rate limiter reads a batch through the layer below it with these,
    # admitting each key before it is issued.  A layer runs its own
    # getter per key; the bottom KVService runs one pass of the store's
    # search loop, which calls ``admit`` itself.

    def _read_batch(self, user: int, keys: Sequence[bytes], until=None,
                    admit: Optional[Callable[[], None]] = None
                    ) -> List[Response]:
        """This layer's getter over ``keys``, ``admit()`` before each;
        ``until`` cuts the batch after the first response it accepts."""
        get_one = self.getter(user)
        out: List[Response] = []
        for key in keys:
            if admit is not None:
                admit()
            response = get_one(key)
            out.append(response)
            if until is not None and until(response):
                break
        return out

    def _read_batch_timed(self, user: int, keys: Sequence[bytes],
                          admit: Optional[Callable[[], None]] = None
                          ) -> List[Tuple[Response, float]]:
        """:meth:`_read_batch` with each key's simulated time, which
        excludes its admission."""
        get_one = self.getter(user)
        clock = self.db.clock
        out: List[Tuple[Response, float]] = []
        for key in keys:
            if admit is not None:
                admit()
            start = clock.now_us
            response = get_one(key)
            out.append((response, clock.now_us - start))
        return out

    def sim_now_us(self) -> float:
        """The wrapped stack's simulated clock."""
        return self.service.sim_now_us()

    def stats_fields(self) -> Counter:
        """The wrapped stack's STATS counters; layers with counters add them."""
        return self.service.stats_fields()
