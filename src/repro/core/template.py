"""The prefix siphoning attack template (paper section 5.3).

Orchestrates the three steps against any strategy/oracle pair:

1. **FindFPK** — classify a batch of random candidates, keep the positives.
2. **IdPrefix** — identify each false positive's shared prefix.
3. **Extend** — discard prefixes whose suffix search is infeasible, dedupe
   the rest, and brute-force each surviving suffix space, cheapest first
   (the paper prioritizes the longest prefixes — same ordering).

Every query is accounted per stage; extension queries that exhaust a
suffix space without disclosing a key are recorded as *wasted* (Table 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.common.errors import AttackError, ConfigError
from repro.core.extension import (
    ExtensionResult,
    expected_extension_queries,
    extend_prefix,
)
from repro.core.oracle import QueryOracle
from repro.core.results import (
    STAGE_EXTEND,
    STAGE_FIND_FPK,
    STAGE_ID_PREFIX,
    AttackResult,
    ExtractedKey,
    PrefixCandidate,
)


@dataclass
class AttackConfig:
    """Knobs of one attack run (defaults match DESIGN.md's scaled setup)."""

    key_width: int = 5
    num_candidates: int = 100_000
    #: Step-3 feasibility budget per prefix, in probes; the scaled analogue
    #: of the paper's "discard every prefix of length < 40 bits".
    max_extension_queries: int = 1 << 16
    #: Whether to run step 3 at all (False reproduces attacks on systems
    #: whose responses do not distinguish non-present from unauthorized).
    extend: bool = True
    dedupe_prefixes: bool = True

    def __post_init__(self) -> None:
        if self.key_width <= 0:
            raise ConfigError("key width must be positive")
        if self.num_candidates < 1:
            raise ConfigError("need at least one candidate")
        if self.max_extension_queries < 1:
            raise ConfigError("extension budget must be positive")


class PrefixSiphoningAttack:
    """One full attack run: steps 1-3 with accounting and progress curve."""

    def __init__(self, oracle: QueryOracle, strategy,
                 config: AttackConfig) -> None:
        self.oracle = oracle
        self.strategy = strategy
        self.config = config
        if strategy.key_width > config.key_width and not hasattr(
            strategy, "prefix_len"
        ):
            raise AttackError(
                "strategy key width exceeds the attack's target key width"
            )

    def run(self) -> AttackResult:
        """Execute the attack and return its full accounting."""
        sim_now_us = self.oracle.service.sim_now_us
        start_us = sim_now_us()
        counter = self.oracle.counter
        result = AttackResult()

        # Step 1: find false-positive keys.
        counter.stage = STAGE_FIND_FPK
        stage_started = start_us
        candidates = self.strategy.generate_candidates(self.config.num_candidates)
        fp_keys = self.strategy.find_false_positives(self.oracle, candidates)
        result.progress.append((counter.total, 0))
        stage_ended = sim_now_us()
        result.stage_durations_us[STAGE_FIND_FPK] = stage_ended - stage_started

        # Step 2: identify shared prefixes.
        counter.stage = STAGE_ID_PREFIX
        stage_started = stage_ended
        identified = self.strategy.identify_prefixes(self.oracle, fp_keys)
        result.prefixes_identified = list(identified)
        result.progress.append((counter.total, 0))
        stage_ended = sim_now_us()
        result.stage_durations_us[STAGE_ID_PREFIX] = stage_ended - stage_started

        # Step 3: keep feasible prefixes, dedupe, extend cheapest-first.
        counter.stage = STAGE_EXTEND
        stage_started = stage_ended
        kept = self._select_for_extension(identified, result)
        if self.config.extend:
            self._extend_all(kept, result)
        stage_ended = sim_now_us()
        result.stage_durations_us[STAGE_EXTEND] = stage_ended - stage_started

        result.queries_by_stage = dict(counter.by_stage)
        result.progress.append((counter.total, len(result.extracted)))
        result.sim_duration_us = stage_ended - start_us
        return result

    # ------------------------------------------------------------------ steps

    def _select_for_extension(self, identified: List[PrefixCandidate],
                              result: AttackResult) -> List[PrefixCandidate]:
        kept: List[PrefixCandidate] = []
        seen: set = set()
        for candidate in identified:
            constraint = self.strategy.hash_constraint_for(candidate)
            hash_bits = constraint.num_bits if constraint else 0
            cost = expected_extension_queries(len(candidate.prefix),
                                              self.config.key_width, hash_bits)
            if cost > self.config.max_extension_queries:
                result.prefixes_discarded += 1
                continue
            dedupe_key = (candidate.prefix,
                          constraint.value if constraint else None)
            if self.config.dedupe_prefixes and dedupe_key in seen:
                continue
            seen.add(dedupe_key)
            kept.append(candidate)
        # Cheapest searches first == longest prefixes first (section 5.3.2:
        # "prioritize extending the longest ones").
        kept.sort(key=lambda c: len(c.prefix), reverse=True)
        return kept

    def _extend_all(self, kept: List[PrefixCandidate],
                    result: AttackResult) -> None:
        found_keys: set = set()
        for candidate in kept:
            extension = extend_prefix(
                self.oracle, candidate.prefix, self.config.key_width,
                hash_constraint=self.strategy.hash_constraint_for(candidate),
                max_queries=self.config.max_extension_queries,
            )
            self._record_extension(candidate, extension, found_keys, result)

    def _record_extension(self, candidate: PrefixCandidate,
                          extension: ExtensionResult, found_keys: set,
                          result: AttackResult) -> None:
        """Book one finished suffix search, in ``kept`` order."""
        if extension.found and extension.key not in found_keys:
            found_keys.add(extension.key)
            result.extracted.append(ExtractedKey(
                key=extension.key, prefix=candidate.prefix,
                queries_spent=extension.queries_spent,
            ))
        else:
            # Exhausted (misidentified prefix / plain Bloom FP) or a
            # duplicate disclosure: the probes bought nothing.
            result.wasted_queries += extension.queries_spent
        result.progress.append((self.oracle.counter.total,
                                len(result.extracted)))
