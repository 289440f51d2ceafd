"""SuRF pruned-trie tests: construction, pruning, point-query semantics."""

import pytest

from repro.common.errors import ConfigError
from repro.filters.surf import SuRF, SurfVariant, pruned_depths, pruned_terminals
from repro.filters.surf.cursor import TerminalKind
from repro.filters.surf.suffix import SuffixScheme
from repro.filters.surf.trie import TrieBackend


class TestPrunedDepths:
    def test_paper_example(self):
        # Figure 1: BLUE/BLACK/BLOND prune to BLU/BLA/BLO.
        keys = sorted([b"BLUE", b"BLACK", b"BLOND"])
        depths = dict(zip(keys, pruned_depths(keys)))
        assert depths[b"BLACK"] == 3
        assert depths[b"BLOND"] == 3
        assert depths[b"BLUE"] == 3

    def test_single_key_depth_one(self):
        assert pruned_depths([b"hello"]) == [1]

    def test_prefix_key_capped_at_own_length(self):
        keys = [b"ab", b"abc"]
        assert pruned_depths(keys) == [2, 3]

    def test_deep_shared_prefix(self):
        keys = [b"aaaa1", b"aaaa2"]
        assert pruned_depths(keys) == [5, 5]


class TestConstruction:
    def test_unsorted_rejected(self):
        scheme = SuffixScheme(SurfVariant.BASE, 0)
        with pytest.raises(ConfigError):
            pruned_terminals([b"b", b"a"], scheme)
        with pytest.raises(ConfigError):
            pruned_terminals([b"a", b"a"], scheme)

    def test_prefix_key_marked(self):
        scheme = SuffixScheme(SurfVariant.BASE, 0)
        backend = TrieBackend.build([b"ab", b"abc"], scheme)
        node = backend.child(backend.root(), ord("a"))
        node = backend.child(node, ord("b"))
        term = backend.terminal(node)
        assert term is not None and term.kind is TerminalKind.PREFIX_KEY

    def test_empty_key_set(self):
        filt = SuRF.build([], variant="base")
        assert not filt.may_contain(b"anything")

    def test_terminal_count_matches_keys(self, small_keys):
        scheme = SuffixScheme(SurfVariant.REAL, 8)
        backend = TrieBackend.build(small_keys, scheme)
        assert backend.num_terminals == len(small_keys)


class TestPointQuery:
    def test_figure1_false_positive(self):
        # The paper's worked example: BLOOD is a false positive of
        # SuRF-Base over {BLUE, BLACK, BLOND}.
        filt = SuRF.build(sorted([b"BLUE", b"BLACK", b"BLOND"]),
                          variant="base")
        assert filt.may_contain(b"BLOOD")
        assert not filt.may_contain(b"CLEAR")
        assert not filt.may_contain(b"BX")

    def test_real_suffix_rejects_figure1_fp(self):
        # SuRF-Real stores the next suffix byte: BLOOD's 'O' != BLOND's 'N'.
        filt = SuRF.build(sorted([b"BLUE", b"BLACK", b"BLOND"]),
                          variant="real", suffix_bits=8)
        assert not filt.may_contain(b"BLOOD")
        assert filt.may_contain(b"BLOND")

    def test_no_false_negatives_all_variants(self, small_keys):
        for variant in ("base", "hash", "real"):
            filt = SuRF.build(small_keys, variant=variant)
            assert all(filt.may_contain(k) for k in small_keys)

    def test_shorter_than_pruned_path_is_negative(self):
        filt = SuRF.build(sorted([b"aaaa1", b"aaaa2"]), variant="base")
        assert not filt.may_contain(b"aa")  # internal node, no terminal

    def test_longer_key_through_leaf_is_positive_for_base(self):
        filt = SuRF.build([b"hello"], variant="base")
        # Pruned to 'h': anything starting with 'h' passes SuRF-Base.
        assert filt.may_contain(b"hippo")
        assert not filt.may_contain(b"x")

    def test_variants_reduce_fpr(self, small_keys):
        from repro.common.rng import make_rng
        rng = make_rng(5, "fpr-cmp")
        probes = [rng.random_bytes(5) for _ in range(20_000)]
        rates = {}
        for variant in ("base", "real"):
            filt = SuRF.build(small_keys, variant=variant)
            rates[variant] = sum(map(filt.may_contain, probes))
        assert rates["real"] < rates["base"] / 20


class TestMemory:
    def test_memory_estimate_positive(self, small_keys):
        filt = SuRF.build(small_keys, variant="real")
        # Succinct estimate: around 10 bits/label + 8 suffix bits/key.
        assert 10 <= filt.bits_per_key(len(small_keys)) <= 60
