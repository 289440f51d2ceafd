"""Step-3 extension tests: enumeration, early exit, hash pruning."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import AttackError
from repro.core.extension import (
    HashConstraint,
    expected_extension_queries,
    extend_prefix,
)
from repro.core.oracle import ProbeOracle
from repro.filters.hashing import suffix_hash_bits
from repro.system.responses import Status


class ScriptedOracle(ProbeOracle):
    """Probe oracle over an explicit stored-key set."""

    def __init__(self, stored):
        self.stored = set(stored)
        self.probed = []

    def probe(self, key):
        self.probed.append(key)
        return (Status.UNAUTHORIZED if key in self.stored
                else Status.NOT_FOUND)


class TestExpectedQueries:
    def test_plain(self):
        assert expected_extension_queries(3, 5) == 256**2
        assert expected_extension_queries(5, 5) == 1

    def test_hash_pruned(self):
        assert expected_extension_queries(3, 5, hash_bits=8) == 256


class TestEnumeration:
    def test_finds_stored_key(self):
        target = b"\x10\x20\x30"
        oracle = ScriptedOracle([target])
        result = extend_prefix(oracle, target[:2], 3)
        assert result.key == target
        assert result.queries_spent == target[2] + 1  # in-order enumeration

    def test_exhausts_on_misidentified_prefix(self):
        oracle = ScriptedOracle([])
        result = extend_prefix(oracle, b"\x99\x99", 3)
        assert result.key is None
        assert result.exhausted
        assert result.queries_spent == 256

    def test_query_budget_respected(self):
        oracle = ScriptedOracle([b"\x01\xff"])
        result = extend_prefix(oracle, b"\x01", 2, max_queries=10)
        assert result.key is None
        assert not result.exhausted
        assert result.queries_spent == 10

    def test_zero_length_suffix(self):
        target = b"\x01\x02"
        oracle = ScriptedOracle([target])
        result = extend_prefix(oracle, target, 2)
        assert result.key == target
        assert result.queries_spent == 1

    def test_prefix_too_long_rejected(self):
        with pytest.raises(AttackError):
            extend_prefix(ScriptedOracle([]), b"abc", 2)


class TestHashPruning:
    def test_prunes_most_candidates(self):
        target = b"\xa1\xb2\xc3\xd4"
        constraint = HashConstraint(8, suffix_hash_bits(target, 8))
        oracle = ScriptedOracle([target])
        result = extend_prefix(oracle, target[:2], 4,
                               hash_constraint=constraint)
        assert result.key == target
        # ~1/256 of candidates survive the hash filter.
        assert result.queries_spent < result.candidates_considered / 64

    def test_pruned_candidates_cost_no_queries(self):
        target = b"\xa1\xb2\xc3"
        constraint = HashConstraint(8, suffix_hash_bits(target, 8))
        oracle = ScriptedOracle([target])
        extend_prefix(oracle, target[:1], 3, hash_constraint=constraint)
        assert all(suffix_hash_bits(k, 8) == constraint.value
                   for k in oracle.probed)

    def test_wrong_constraint_never_finds(self):
        target = b"\xa1\xb2\xc3"
        wrong = HashConstraint(8, (suffix_hash_bits(target, 8) + 1) % 256)
        oracle = ScriptedOracle([target])
        result = extend_prefix(oracle, target[:2], 3, hash_constraint=wrong)
        assert result.key is None and result.exhausted


class TestVariableLengthExtension:
    def test_finds_shortest_first(self):
        from repro.core.extension import extend_prefix_variable
        oracle = ScriptedOracle([b"obj-a", b"obj-ab"])
        result = extend_prefix_variable(oracle, b"obj-", max_suffix_len=2,
                                        charset=b"ab")
        assert result.keys == [b"obj-a"]

    def test_find_all_harvests_everything(self):
        from repro.core.extension import extend_prefix_variable
        stored = [b"obj-a", b"obj-ab", b"obj-bb"]
        oracle = ScriptedOracle(stored)
        result = extend_prefix_variable(oracle, b"obj-", max_suffix_len=2,
                                        charset=b"ab", find_all=True)
        assert sorted(result.keys) == sorted(stored)
        assert result.exhausted
        # 1 (empty suffix) + 2 (len 1) + 4 (len 2) candidates
        assert result.candidates_considered == 7

    def test_charset_restriction_prunes_space(self):
        from repro.core.extension import extend_prefix_variable
        oracle = ScriptedOracle([b"p-zz"])
        result = extend_prefix_variable(oracle, b"p-", max_suffix_len=2,
                                        charset=b"xyz", find_all=False)
        assert result.keys == [b"p-zz"]
        assert result.queries_spent <= 1 + 3 + 9

    def test_budget_respected(self):
        from repro.core.extension import extend_prefix_variable
        oracle = ScriptedOracle([])
        result = extend_prefix_variable(oracle, b"p", max_suffix_len=3,
                                        charset=b"abcd", max_queries=10)
        assert result.queries_spent == 10
        assert not result.exhausted and not result.found

    def test_validation(self):
        from repro.core.extension import extend_prefix_variable
        with pytest.raises(AttackError):
            extend_prefix_variable(ScriptedOracle([]), b"p", -1)
        with pytest.raises(AttackError):
            extend_prefix_variable(ScriptedOracle([]), b"p", 2, charset=b"")


def scanned_extension(oracle, prefix, key_width, max_queries, chunk_size,
                      whole_chunks):
    """Step 3 as the per-candidate scan it abbreviates: each candidate
    counted, checked against the budget, buffered, and the buffer issued
    when full (through ``probe_many``, or every key of it when the prober
    issues whole chunks)."""
    suffix_len = key_width - len(prefix)
    queries = considered = 0
    chunk = []

    def issue(keys):
        statuses = ([oracle.probe(key) for key in keys] if whole_chunks
                    else oracle.probe_many(keys))
        hits = [key for key, status in zip(keys, statuses)
                if status in (Status.UNAUTHORIZED, Status.OK)]
        return len(statuses), (hits[0] if hits else None)

    for value in range(256 ** suffix_len):
        considered += 1
        if max_queries is not None and queries + len(chunk) >= max_queries:
            spent, hit = issue(chunk) if chunk else (0, None)
            return hit, queries + spent, considered, False
        chunk.append(prefix + value.to_bytes(suffix_len, "big"))
        if len(chunk) >= chunk_size:
            spent, hit = issue(chunk)
            queries += spent
            chunk = []
            if hit is not None:
                return hit, queries, considered, False
    spent, hit = issue(chunk) if chunk else (0, None)
    return hit, queries + spent, considered, hit is None


class TestChunkedEnumeration:
    """Without a hash constraint a chunk is one slice of the suffix space;
    the key found, the queries spent, the candidates considered and the
    exhaustion flag stay the per-candidate scan's."""

    @given(stored=st.sets(st.integers(0, 299), max_size=3),
           max_queries=st.one_of(st.none(), st.integers(0, 300)),
           chunk_size=st.integers(1, 70), whole_chunks=st.booleans(),
           prefix=st.sampled_from([b"\x07", b"\x07\x00"]))
    @settings(max_examples=150, deadline=None)
    def test_matches_the_per_candidate_scan(self, stored, max_queries,
                                            chunk_size, whole_chunks,
                                            prefix):
        # Width 2: a one-byte suffix space, or none (the prefix is a key).
        keys = [(prefix + bytes([value]))[:2] for value in stored
                if value < 256]
        expected = scanned_extension(ScriptedOracle(keys), prefix, 2,
                                     max_queries, chunk_size, whole_chunks)
        oracle = ScriptedOracle(keys)
        probe_many = ((lambda chunk: [oracle.probe(key) for key in chunk])
                      if whole_chunks else None)
        result = extend_prefix(oracle, prefix, 2,
                               max_queries=max_queries, probe_many=probe_many,
                               chunk_size=chunk_size)
        assert (result.key, result.queries_spent,
                result.candidates_considered, result.exhausted) == expected
