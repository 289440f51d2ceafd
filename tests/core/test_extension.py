"""Step-3 extension tests: enumeration, early exit, hash pruning."""

import pytest

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
