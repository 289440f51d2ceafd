"""LOUDS SuRF at its published size, structure by structure.

SuRF (Zhang et al., SIGMOD 2018) reports ~10 bits/key for SuRF-Base, plus
the suffix bits per key for SuRF-Real.  ``memory_parts`` breaks the
measured size down per structure (each bitvector's words, rank directory
and select samples, the sparse labels, the suffix payloads); the filter
must stay within 2x of the published figure, and SuRF's dense cutoff
(``choose_dense_levels``, R = ``SPARSE_DENSE_RATIO``) is pinned on
hand-computed level sizes on both sides of the R boundary.
"""

import pytest

from repro.common.rng import make_rng
from repro.filters.surf import SuRF, choose_dense_levels
from repro.filters.surf.louds import SPARSE_DENSE_RATIO

#: Published SuRF-Base bits per key, before any suffix bits.
PUBLISHED_BASE_BITS = 10
VECTORS = ("d_labels", "d_haschild", "d_isprefix", "s_haschild", "s_louds",
           "s_isprefix")


def _random_keys(count, width, seed):
    rng = make_rng(seed, "surf-size")
    keys = set()
    while len(keys) < count:
        keys.add(rng.random_bytes(width))
    return sorted(keys)


@pytest.fixture(scope="module", params=[(20_000, 5), (3_000, 6)],
            ids=["20k-40bit", "3000-6byte"])
def keys(request):
    count, width = request.param
    return _random_keys(count, width, seed=count)


@pytest.mark.parametrize("variant,suffix_bits", [("base", 0), ("real", 8)])
def test_within_twice_the_published_size(keys, variant, suffix_bits):
    filt = SuRF.build(keys, variant=variant, suffix_bits=suffix_bits)
    bits_per_key = filt.memory_bits() / len(keys)
    assert bits_per_key <= 2 * (PUBLISHED_BASE_BITS + suffix_bits)
    # SuRF's cutoff keeps the dense top small: the root at most here.
    assert filt.backend.num_dense_nodes <= 1


def test_memory_parts_add_up(keys):
    filt = SuRF.build(keys, variant="real", suffix_bits=8)
    backend = filt.backend
    parts = backend.memory_parts(8)
    assert set(parts) == ({f"{vector}.{part}" for vector in VECTORS
                           for part in ("words", "rank", "select")}
                          | {"s_labels", "suffixes"})
    assert sum(parts.values()) == filt.memory_bits()
    prefixes, _ = backend.terminals()
    assert parts["suffixes"] == 8 * len(prefixes)
    labels = len(backend._s_labels)
    assert parts["s_labels"] == 8 * labels
    # One bit per sparse label in S-HasChild and S-LOUDS, word-rounded.
    for vector in ("s_haschild", "s_louds"):
        assert parts[f"{vector}.words"] == 64 * ((labels + 63) // 64)
    # The labels and the suffixes are most of the filter; the rank
    # directories (one entry per 64-bit word) are a small share.
    assert parts["s_labels"] + parts["suffixes"] >= 0.8 * filt.memory_bits()
    rank = sum(bits for name, bits in parts.items() if name.endswith(".rank"))
    assert rank <= 0.05 * filt.memory_bits()


class TestSuRFCutoff:
    """513 bits per dense node, 10 per sparse label, R = 64."""

    def test_ratio_is_surfs(self):
        assert SPARSE_DENSE_RATIO == 64

    def test_root_on_both_sides_of_the_boundary(self):
        # Root dense: 513 * 64 = 32 832 bits against 10 bits per label
        # below it.
        assert choose_dense_levels([1, 300], [300, 3284]) == 1  # 32 840
        assert choose_dense_levels([1, 300], [300, 3283]) == 0  # 32 830

    def test_second_level_on_both_sides_of_the_boundary(self):
        # Levels 0..1 dense: (1 + 4) * 513 * 64 = 164 160 bits against
        # the third level's labels; equality is still dense.
        assert choose_dense_levels([1, 4, 100], [4, 100, 16_416]) == 2
        assert choose_dense_levels([1, 4, 100], [4, 100, 16_415]) == 1

    def test_levels_below_the_cutoff_stay_sparse(self):
        # Level 2 dense would need 105 * 513 * 64 bits below it.
        assert choose_dense_levels([1, 4, 100, 5000],
                                   [4, 100, 5000, 30_000]) == 2
