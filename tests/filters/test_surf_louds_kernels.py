"""LOUDS's own scalar kernels vs the cursor protocol and the dict-trie.

``LoudsBackend.lookup`` and ``LoudsBackend.may_contain_range`` inline the
cursor walk (:mod:`repro.filters.surf.cursor`) over the succinct
structures.  Every verdict must be the cursor's on the same backend and
the cursor's on the reference dict-trie, for every SuRF variant and every
dense/sparse split: all sparse, one dense level, all dense and SuRF's
own cutoff.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.filters.surf import cursor
from repro.filters.surf.louds import LoudsBackend
from repro.filters.surf.suffix import SuffixScheme, SurfVariant
from repro.filters.surf.trie import TrieBackend

from test_surf_backend_diff import _keyset

SCHEMES = [SuffixScheme(SurfVariant.BASE, 0), SuffixScheme(SurfVariant.HASH, 8),
           SuffixScheme(SurfVariant.REAL, 8)]
DENSE_LEVELS = [0, 1, 99, None]
TOP = b"\xff" * 80


@st.composite
def key_sets(draw):
    """Sorted unique keys: narrow or full alphabets, prefix keys, the
    empty key, ``0xff`` runs and keys past 64 bytes."""
    alphabet = draw(st.sampled_from([b"ab", b"\x00\xff", b"abcd",
                                     bytes(range(256))]))
    symbol = st.sampled_from(alphabet)
    short = st.lists(symbol, max_size=8).map(bytes)
    long = st.tuples(short, short).map(
        lambda parts: (parts[0][:1] + alphabet[:1]) * 65 + parts[1])
    ff_run = st.integers(1, 70).map(lambda n: b"\xff" * n)
    keys = draw(st.sets(st.one_of(short, short, short, long, ff_run),
                        max_size=30))
    # Prefix keys: some stored keys cut short are stored too.
    cuts = draw(st.lists(st.integers(0, 70), max_size=6))
    stored = sorted(keys)
    for i, cut in enumerate(cuts):
        if stored:
            keys.add(stored[i % len(stored)][:cut])
    return sorted(keys)


def probes_for(keys, extra):
    """Stored keys, their prefixes and one-byte extensions and
    perturbations, plus drawn bytes."""
    probes = [b"", b"\x00", b"\xff", TOP] + list(extra) + keys[12::5]
    for key in keys[:12]:
        probes += [key, key + b"\x00", key + b"\xff", key[:-1],
                   key[:len(key) // 2]]
        if key:
            probes.append(key[:-1] + bytes([key[-1] ^ 1]))
    return probes


def ranges_for(probes):
    """Both orders of probe pairs (``low > high`` included), ``low ==
    high``, bounds that are prefixes of each other, everything."""
    ranges = [(b"", TOP), (TOP, b"")]
    probes = probes[:30]
    for a, b in zip(probes, probes[1:] + probes[:1]):
        ranges += [(a, b), (b, a), (a, a), (a[:1], a), (a, a + b"\xff")]
    return ranges


def assert_kernels_match(keys, probes, ranges):
    for scheme in SCHEMES:
        trie = TrieBackend.build(keys, scheme)
        trie_points = [cursor.lookup(trie, probe, scheme) for probe in probes]
        trie_ranges = [cursor.may_contain_range(trie, low, high)
                       for low, high in ranges]
        for levels in DENSE_LEVELS:
            louds = LoudsBackend.build(keys, scheme, num_dense_levels=levels)
            for probe, expected in zip(probes, trie_points):
                got = louds.lookup(probe, scheme)
                assert got == cursor.lookup(louds, probe, scheme), (
                    scheme, levels, probe)
                assert got == expected, (scheme, levels, probe)
            for (low, high), expected in zip(ranges, trie_ranges):
                got = louds.may_contain_range(low, high)
                assert got == cursor.may_contain_range(louds, low, high), (
                    scheme, levels, low, high)
                assert got == expected, (scheme, levels, low, high)


@given(keys=key_sets(),
       extra=st.lists(st.binary(max_size=10), max_size=20))
@example(keys=[], extra=[])
@example(keys=[b""], extra=[])
@example(keys=[b"", b"a", b"ab", b"abc"], extra=[b"abd", b"b"])
@example(keys=[b"\xff" * n for n in range(1, 6)], extra=[b"\xff\xfe"])
@settings(max_examples=30, deadline=None)
def test_kernels_match_cursor_and_trie(keys, extra):
    probes = probes_for(keys, extra)
    assert_kernels_match(keys, probes, ranges_for(probes))


def test_kernels_on_backend_diff_key_sets():
    # The backend-diff suite's seeded key sets, at their full sizes.
    for kind in ("fixed", "mixed", "prefixy", "clustered"):
        keys = _keyset(kind, seed=7)
        probes = probes_for(keys[::25], [])
        assert_kernels_match(keys, probes, ranges_for(probes))
