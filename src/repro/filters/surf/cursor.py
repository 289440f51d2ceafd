"""Backend-agnostic trie traversal: the cursor protocol and shared queries.

Both SuRF backends (the dict-based reference trie and the succinct LOUDS
encoding) expose the same navigation primitives — root, child-by-label,
first child at or above a label, terminal record — and the point-query and
range-seek algorithms below run over either (whole-trie walks use each
backend's ``terminals()``).  Property tests exploit this: the two backends
must agree on every query for every key set.

Terminal semantics (see paper Figure 1): a LEAF terminal sits at the end of
a pruned path and represents "some stored key starts with this path"; a
PREFIX_KEY terminal marks a node whose path *is exactly* a stored key
(possible only when the key set is not prefix-free).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.filters.surf.suffix import SuffixScheme


class TerminalKind(enum.Enum):
    """How a terminal relates to its stored key."""

    LEAF = "leaf"  # stored key == path + unknown suffix
    PREFIX_KEY = "prefix_key"  # stored key == path exactly


@dataclass(frozen=True)
class Terminal:
    """Terminal record: kind plus the variant's suffix payload bits."""

    kind: TerminalKind
    payload: int


def lookup(backend, key: bytes, scheme: SuffixScheme) -> bool:
    """SuRF point query over any cursor backend.

    Returns True iff the path induced by ``key`` terminates at a node
    associated with a key (paper section 6.1) and the variant's suffix bits
    match.
    """
    node = backend.root()
    depth = 0
    key_len = len(key)
    while True:
        term = backend.terminal(node)
        if depth == key_len:
            # Query exhausted: positive only at a terminal whose suffix
            # bits are consistent with the (empty) remaining query suffix.
            return term is not None and scheme.matches(key, depth, term.payload)
        if term is not None and term.kind is TerminalKind.LEAF:
            # Pruned leaf: the stored key continues with an unknown suffix;
            # the suffix payload is the only remaining discriminator.
            return scheme.matches(key, depth, term.payload)
        child = backend.child(node, key[depth])
        if child is None:
            return False
        node = child
        depth += 1


class _SeekOutcome(enum.Enum):
    FOUND = "found"
    AMBIGUOUS = "ambiguous"
    EXHAUSTED = "exhausted"


def may_contain_range(backend, low: bytes, high: bytes) -> bool:
    """SuRF range query ``[low, high]`` (inclusive) over any backend.

    Finds the smallest stored pruned prefix not provably below ``low``; the
    range may be non-empty iff that prefix is not provably above ``high``.
    Pruned leaves whose path is a proper prefix of ``low`` are *ambiguous*
    (the hidden suffix decides the comparison) and conservatively pass —
    the one-sided error the paper's section 2.3.1 permits.

    Suffix payload bits are deliberately not consulted here: they sharpen
    point queries only, keeping both backends' range answers identical and
    strictly one-sided.
    """
    if low > high:
        return False
    outcome, prefix = _seek_geq(backend, backend.root(), b"", low, 0)
    if outcome is _SeekOutcome.EXHAUSTED:
        return False
    if outcome is _SeekOutcome.AMBIGUOUS:
        return True
    # ``prefix`` >= low; some stored key starts with it.  Such a key can lie
    # in the range iff the prefix itself does not already exceed ``high``.
    return prefix <= high or high.startswith(prefix)


def _seek_geq(backend, node, path: bytes, low: bytes, depth: int
              ) -> Tuple[_SeekOutcome, bytes]:
    """Smallest terminal prefix in this subtree that is >= ``low``.

    ``path`` is the byte string leading to ``node``; ``depth == len(path)``.
    """
    if depth >= len(low):
        # Every terminal below starts with ``low``; take the leftmost.
        return _SeekOutcome.FOUND, _leftmost_terminal(backend, node, path)
    term = backend.terminal(node)
    if term is not None:
        if term.kind is TerminalKind.LEAF:
            # Stored key == path + hidden suffix, and path is a proper
            # prefix of ``low``: cannot order it against ``low``.
            return _SeekOutcome.AMBIGUOUS, path
        # PREFIX_KEY: stored key == path < low exactly; skip it.
    label = low[depth]
    child = backend.child(node, label)
    if child is not None:
        outcome, prefix = _seek_geq(
            backend, child, path + bytes([label]), low, depth + 1
        )
        if outcome is not _SeekOutcome.EXHAUSTED:
            return outcome, prefix
    sibling = backend.first_child_geq(node, label + 1)
    if sibling is not None:
        next_label, next_node = sibling
        return _SeekOutcome.FOUND, _leftmost_terminal(
            backend, next_node, path + bytes([next_label])
        )
    return _SeekOutcome.EXHAUSTED, b""


def _leftmost_terminal(backend, node, path: bytes) -> bytes:
    """Prefix of the in-order-first terminal in the subtree of ``node``.

    A terminal *at* a node (of either kind) precedes any terminal below it
    in lexicographic order, because every descendant prefix extends it.
    """
    while True:
        if backend.terminal(node) is not None:
            return path
        first = _first_child(backend, node)
        if first is None:
            # Structurally impossible in a well-formed pruned trie: every
            # childless node carries a terminal.  Guard for corrupt input.
            return path
        label, node = first
        path = path + bytes([label])


def _first_child(backend, node) -> Optional[Tuple[int, object]]:
    return backend.first_child_geq(node, 0)
