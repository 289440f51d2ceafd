"""The level-order SuRF builder and terminal-list writer vs their dict-trie twin.

``tests/reference/surf_build.py`` is the path the store used before the
terminal list became the one intermediate: keys -> dict trie -> LOUDS,
and a cursor walk for the filter block.  For every key set the production
LOUDS must equal the twin's field for field (bitvector words, rank
directory, select samples, payload arrays, labels, node starts), the
filter block must be the twin's bytes, and decode -> re-encode must give
the same bytes back, on both backends.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference import surf_build as twin
from repro.common.rng import make_rng
from repro.filters.rank_select import BitVector
from repro.filters.serialize import deserialize_filter, serialize_filter
from repro.filters.surf import SuRF, SurfVariant, TrieBackend
from repro.filters.surf.louds import LoudsBackend
from repro.filters.surf.suffix import SuffixScheme

SCHEMES = [SuffixScheme(SurfVariant.BASE, 0), SuffixScheme(SurfVariant.REAL, 8),
           SuffixScheme(SurfVariant.REAL, 12), SuffixScheme(SurfVariant.HASH, 5)]


def louds_state(backend):
    """Every field of a LOUDS backend, bitvectors spelled out."""
    state = {}
    for name, value in vars(backend).items():
        if isinstance(value, BitVector):
            value = (value._words, len(value), value._rank_dir, value.ones,
                     value._select_samples)
        state[name] = value
    return state


@st.composite
def key_sets(draw):
    """Sorted unique keys over a narrow or full alphabet, any widths,
    the empty key and prefix keys included."""
    alphabet = draw(st.sampled_from([b"ab", b"abcd", bytes(range(256))]))
    keys = draw(st.sets(st.lists(st.sampled_from(alphabet), max_size=7)
                        .map(bytes), max_size=60))
    return sorted(keys)


def assert_matches_twin(keys, scheme, num_dense_levels):
    root = twin.build_pruned_trie(keys, scheme)
    expected = twin.louds_from_trie(root, num_dense_levels)
    built = LoudsBackend.build(keys, scheme, num_dense_levels)
    assert louds_state(built) == louds_state(expected)

    block = serialize_filter(SuRF(built, scheme, len(keys)))
    assert block == twin.encode_surf(SuRF(expected, scheme, len(keys)))
    decoded = deserialize_filter(block)
    assert serialize_filter(decoded) == block
    assert louds_state(decoded.backend) == louds_state(
        twin.decode_surf(block).backend)


@given(keys=key_sets(), scheme=st.sampled_from(SCHEMES), data=st.data())
@example(keys=[], scheme=SCHEMES[1], data=None)
@example(keys=[b""], scheme=SCHEMES[1], data=None)
@example(keys=[b"k"], scheme=SCHEMES[1], data=None)
@example(keys=[b"", b"a", b"ab", b"abc"], scheme=SCHEMES[1], data=None)
@settings(max_examples=200, deadline=None)
def test_louds_state_and_block_match_twin(keys, scheme, data):
    # An explicit example (no ``data``) runs every dense-level setting.
    depth = max(twin.pruned_depths(keys), default=0)
    levels = [None] + list(range(depth + 2))
    if data is not None:
        levels = [data.draw(st.sampled_from(levels))]
    for num_dense_levels in levels:
        assert_matches_twin(keys, scheme, num_dense_levels)


@given(keys=key_sets(), scheme=st.sampled_from(SCHEMES))
@example(keys=[], scheme=SCHEMES[0])
@example(keys=[b""], scheme=SCHEMES[0])
@settings(max_examples=100, deadline=None)
def test_trie_terminals_and_block_match_twin(keys, scheme):
    expected = TrieBackend(twin.build_pruned_trie(keys, scheme))
    built = TrieBackend.build(keys, scheme)
    assert (twin.collect_terminals(built)
            == twin.collect_terminals(expected))
    block = serialize_filter(SuRF(built, scheme, len(keys)))
    assert block == twin.encode_surf(SuRF(expected, scheme, len(keys)))
    decoded = deserialize_filter(block)
    assert serialize_filter(decoded) == block
    assert (twin.collect_terminals(decoded.backend)
            == twin.collect_terminals(twin.decode_surf(block).backend))


@pytest.mark.parametrize("num_dense_levels", [None, 0, 1, 2, 3])
def test_large_key_set_matches_twin(num_dense_levels):
    # Thousands of labels: multi-word bitvectors, many select samples,
    # dense rows past the first word.
    rng = make_rng(29, "surf-twin")
    keys = {rng.random_bytes(rng.randint(2, 6)) for _ in range(3000)}
    keys |= {key[:2] for key in list(keys)[:200]}
    assert_matches_twin(sorted(keys), SCHEMES[1], num_dense_levels)
