"""SuRF — Succinct Range Filter (paper section 6), both backends."""

from repro.filters.surf.cursor import Terminal, TerminalKind, lookup, may_contain_range
from repro.filters.surf.louds import LoudsBackend, choose_dense_levels
from repro.filters.surf.suffix import SuffixScheme, SurfVariant, real_suffix_bits
from repro.filters.surf.surf import SuRF, SuRFBuilder
from repro.filters.surf.trie import TrieBackend, pruned_depths, pruned_terminals

__all__ = [
    "LoudsBackend",
    "SuRF",
    "SuRFBuilder",
    "SuffixScheme",
    "SurfVariant",
    "Terminal",
    "TerminalKind",
    "TrieBackend",
    "choose_dense_levels",
    "lookup",
    "may_contain_range",
    "pruned_depths",
    "pruned_terminals",
    "real_suffix_bits",
]
