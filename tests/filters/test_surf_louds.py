"""LOUDS succinct backend tests: structure and navigation."""

import pytest

from repro.common.rng import make_rng
from repro.filters.surf import (
    SuRF,
    SurfVariant,
    choose_dense_levels,
    pruned_terminals,
)
from repro.filters.surf.louds import LoudsBackend
from repro.filters.surf.suffix import SuffixScheme
from repro.filters.surf.trie import TrieBackend


@pytest.fixture(scope="module")
def keys():
    rng = make_rng(21, "louds-keys")
    base = {rng.random_bytes(5) for _ in range(1500)}
    # Mix in variable lengths and prefix-of-other-key cases.
    base |= {k[:3] for k in list(base)[:20]}
    base |= {rng.random_bytes(2) for _ in range(30)}
    return sorted(base)


class TestChooseDenseLevels:
    def test_empty(self):
        assert choose_dense_levels([], []) == 0

    def test_dense_root_selected_for_bushy_trie(self):
        # Root with 200 labels: dense is clearly worthwhile.
        assert choose_dense_levels([1, 200], [200, 4000]) >= 1

    def test_sparse_chain_not_densified(self):
        # A long chain of single-label nodes: dense encoding wastes 513
        # bits per node vs 10 sparse bits.
        assert choose_dense_levels([1, 1, 1], [1, 1, 1]) == 0


class TestStructure:
    def test_dense_plus_sparse_counts(self, keys):
        scheme = SuffixScheme(SurfVariant.REAL, 8)
        louds = LoudsBackend.build(keys, scheme)
        trie = TrieBackend.build(keys, scheme)
        internal = _count_internal(trie)
        assert louds.num_dense_nodes + louds.num_sparse_nodes == internal

    def test_forced_all_sparse_and_all_dense_agree(self, keys):
        scheme = SuffixScheme(SurfVariant.REAL, 8)
        probes = _probes(keys)
        answers = []
        for levels in (0, 1, 99):
            filt = SuRF.build(keys, variant="real", backend="louds",
                              num_dense_levels=levels)
            answers.append([filt.may_contain(p) for p in probes])
        assert answers[0] == answers[1] == answers[2]

    def test_memory_measured(self, keys):
        filt = SuRF.build(keys, variant="real", backend="louds")
        assert filt.memory_bits() > 0

    def test_not_picklable(self, keys):
        import pickle
        filt = SuRF.build(keys[:50], variant="base", backend="louds")
        with pytest.raises(Exception):
            pickle.dumps(filt.backend)


class TestNavigation:
    def test_terminals_match_trie(self, keys):
        # Both backends give back the terminal list they were built from.
        for scheme in (SuffixScheme(SurfVariant.BASE, 0),
                       SuffixScheme(SurfVariant.REAL, 8)):
            louds = LoudsBackend.build(keys, scheme)
            trie = TrieBackend.build(keys, scheme)
            expected = pruned_terminals(keys, scheme)
            assert louds.terminals() == trie.terminals() == expected

    def test_first_child_geq_boundaries(self, keys):
        scheme = SuffixScheme(SurfVariant.BASE, 0)
        louds = LoudsBackend.build(keys, scheme)
        assert louds.first_child_geq(louds.root(), 256) is None
        first = louds.first_child_geq(louds.root(), 0)
        assert first is not None

    def test_degenerate_single_key(self):
        filt = SuRF.build([b"k"], variant="base", backend="louds")
        assert filt.may_contain(b"k")
        assert filt.may_contain(b"kxyz")  # pruned to 'k': one-sided error
        assert not filt.may_contain(b"a")


def _count_internal(trie: TrieBackend) -> int:
    count = 0
    stack = [trie.root()]
    while stack:
        node = stack.pop()
        if node.children:
            count += 1
            stack.extend(node.children.values())
    return count


def _probes(keys):
    rng = make_rng(22, "probes")
    probes = list(keys[::7])
    probes += [rng.random_bytes(rng.randint(1, 6)) for _ in range(3000)]
    return probes
