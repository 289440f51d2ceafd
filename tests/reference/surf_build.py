"""The SuRF builder and filter-block writer that went through a dict trie.

Before the terminal list became the one intermediate, a SuRF was built
keys -> ``TrieNode`` dict forest -> LOUDS (a BFS over the nodes, one
``select1`` per sparse node for its start), its filter block was written
by a depth-first walk over the cursor protocol (one ``select1`` per dense
child), and the decoder inserted the records back into a dict trie.  The
code below is that path, kept verbatim apart from becoming module
functions.  It proves the **bytes and the structure**:
``LoudsBackend.from_terminals`` must leave every LOUDS field (bitvector
words, rank directory, select samples, payload arrays, labels, node
starts) equal to :func:`louds_from_trie`'s, and ``serialize_filter`` must
write :func:`encode_surf`'s bytes (``tests/filters/test_surf_build_twin.py``).
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

from repro.common.errors import ConfigError, CorruptionError
from repro.common.keys import common_prefix_len
from repro.filters.rank_select import BitVector
from repro.filters.serialize import (
    _SURF_HEADER,
    _SURF_TERMINAL,
    _TAG_SURF,
    _U32,
    _VARIANT_BY_CODE,
    _VARIANT_CODES,
)
from repro.filters.surf.cursor import Terminal, TerminalKind
from repro.filters.surf.louds import LoudsBackend, choose_dense_levels
from repro.filters.surf.suffix import SuffixScheme
from repro.filters.surf.surf import SuRF
from repro.filters.surf.trie import TrieBackend, TrieNode

_WORD_MASK = (1 << 64) - 1


# ------------------------------------------------------------ dict trie build

def pruned_depths(sorted_keys: Sequence[bytes]) -> List[int]:
    """Pruned-prefix length (in bytes) for each key of a sorted unique list.

    A key's pruned depth is one byte past its longest common prefix with
    either neighbor, capped at the key's own length (keys that are prefixes
    of other keys terminate at internal nodes).
    """
    n = len(sorted_keys)
    depths: List[int] = []
    for i, key in enumerate(sorted_keys):
        lcp = 0
        if i > 0:
            lcp = max(lcp, common_prefix_len(key, sorted_keys[i - 1]))
        if i + 1 < n:
            lcp = max(lcp, common_prefix_len(key, sorted_keys[i + 1]))
        depths.append(min(len(key), lcp + 1))
    return depths


def build_pruned_trie(sorted_keys: Sequence[bytes], scheme: SuffixScheme) -> TrieNode:
    """Build the pruned trie with per-terminal suffix payloads.

    ``sorted_keys`` must be sorted and duplicate-free (the SSTable builder
    guarantees this); violations raise :class:`ConfigError` because a
    mis-sorted input would silently corrupt the pruning.
    """
    for i in range(1, len(sorted_keys)):
        if sorted_keys[i - 1] >= sorted_keys[i]:
            raise ConfigError("keys must be sorted and unique for trie construction")
    root = TrieNode()
    for key, depth in zip(sorted_keys, pruned_depths(sorted_keys)):
        node = root
        for byte in key[:depth]:
            child = node.children.get(byte)
            if child is None:
                child = TrieNode()
                node.children[byte] = child
            node = child
        kind = TerminalKind.LEAF
        # The terminal may gain children from longer keys inserted later;
        # the kind is finalized in a second pass below.
        node.terminal = Terminal(kind, scheme.payload(key, depth))
    _finalize_kinds(root)
    root.freeze()
    return root


def _finalize_kinds(node: TrieNode) -> None:
    if node.terminal is not None and node.children:
        node.terminal = Terminal(TerminalKind.PREFIX_KEY, node.terminal.payload)
    for child in node.children.values():
        _finalize_kinds(child)


# ------------------------------------------------------- dict trie -> LOUDS

class _BitWriter:
    """Accumulates bits into 64-bit words for :meth:`BitVector.from_words`."""

    __slots__ = ("words", "length", "_current")

    def __init__(self) -> None:
        self.words: List[int] = []
        self.length = 0
        self._current = 0

    def append(self, bit: bool) -> None:
        if bit:
            self._current |= 1 << (self.length & 63)
        self.length += 1
        if not self.length & 63:
            self.words.append(self._current)
            self._current = 0

    def finish(self) -> BitVector:
        words = self.words
        if self.length & 63:
            words = words + [self._current]
        return BitVector.from_words(words, self.length)


def louds_from_trie(root: TrieNode,
                    num_dense_levels: Optional[int] = None) -> LoudsBackend:
    """The LOUDS encoding of a finished dict trie (the old constructor)."""
    backend = LoudsBackend.__new__(LoudsBackend)
    _build(backend, root, num_dense_levels)
    backend._bind_views()
    return backend


def _build(self, root: TrieNode,
           num_dense_levels: Optional[int]) -> None:
    self._root_terminal: Optional[Terminal] = None
    if not root.children:
        # Degenerate tries (empty, or a lone empty-key terminal) have no
        # internal nodes to encode; serve them from a sentinel root.
        self._root_terminal = root.terminal
        self._num_dense = 0
        self._empty = True
        _init_empty_structures(self)
        return
    self._empty = False

    # BFS over internal nodes, tracking levels.
    levels: List[List[TrieNode]] = []
    frontier = [root]
    while frontier:
        levels.append(frontier)
        nxt: List[TrieNode] = []
        for node in frontier:
            for label in node.sorted_labels:
                child = node.children[label]
                if child.children:
                    nxt.append(child)
        frontier = nxt
    level_nodes = [len(level) for level in levels]
    level_labels = [sum(len(n.children) for n in level) for level in levels]
    if num_dense_levels is None:
        num_dense_levels = choose_dense_levels(level_nodes, level_labels)
    num_dense_levels = max(0, min(num_dense_levels, len(levels)))
    self._num_dense = sum(level_nodes[:num_dense_levels])

    # Dense rows are 256 bits per node, word-aligned by construction:
    # accumulate each row as an int bitmap and emit its four 64-bit
    # words directly.  The irregular bit streams go through a word
    # accumulator.
    d_labels_words: List[int] = []
    d_haschild_words: List[int] = []
    num_dense_rows = 0
    d_isprefix = _BitWriter()
    d_leaf_payloads: List[int] = []
    d_prefix_payloads: List[int] = []
    s_labels = bytearray()
    s_haschild = _BitWriter()
    s_louds = _BitWriter()
    s_isprefix = _BitWriter()
    s_leaf_payloads: List[int] = []
    s_prefix_payloads: List[int] = []

    for level_index, level in enumerate(levels):
        dense = level_index < num_dense_levels
        for node in level:
            term = node.terminal
            is_prefix = term is not None and term.kind is TerminalKind.PREFIX_KEY
            if dense:
                d_isprefix.append(is_prefix)
                if is_prefix:
                    d_prefix_payloads.append(term.payload)
                row_labels = 0
                row_haschild = 0
                for label in node.sorted_labels:
                    child = node.children[label]
                    row_labels |= 1 << label
                    if child.children:
                        row_haschild |= 1 << label
                    else:
                        d_leaf_payloads.append(child.terminal.payload)
                for shift in (0, 64, 128, 192):
                    d_labels_words.append((row_labels >> shift) & _WORD_MASK)
                    d_haschild_words.append((row_haschild >> shift) & _WORD_MASK)
                num_dense_rows += 1
            else:
                s_isprefix.append(is_prefix)
                if is_prefix:
                    s_prefix_payloads.append(term.payload)
                first = True
                for label in node.sorted_labels:
                    child = node.children[label]
                    s_labels.append(label)
                    s_louds.append(first)
                    first = False
                    has_child = bool(child.children)
                    s_haschild.append(has_child)
                    if not has_child:
                        s_leaf_payloads.append(child.terminal.payload)

    self._d_labels = BitVector.from_words(d_labels_words, 256 * num_dense_rows)
    self._d_haschild = BitVector.from_words(d_haschild_words,
                                            256 * num_dense_rows)
    self._d_isprefix = d_isprefix.finish()
    self._d_leaf_payloads = d_leaf_payloads
    self._d_prefix_payloads = d_prefix_payloads
    self._s_labels = bytes(s_labels)
    self._s_haschild = s_haschild.finish()
    self._s_louds = s_louds.finish()
    self._s_isprefix = s_isprefix.finish()
    self._s_leaf_payloads = s_leaf_payloads
    self._s_prefix_payloads = s_prefix_payloads
    self._num_sparse = s_isprefix.length
    dense_internal_edges = self._d_haschild.ones
    if self._num_dense == 0:
        # Root itself is sparse node 0; sparse-edge children start at 1.
        self._first_sparse_child = 1
    else:
        self._first_sparse_child = dense_internal_edges - (self._num_dense - 1)
    # Precompute sparse node boundaries for fast label search.
    self._s_node_start = [0] * self._num_sparse
    for s in range(self._num_sparse):
        self._s_node_start[s] = (
            self._s_louds.select1(s + 1) if self._num_sparse else 0
        )
    self._s_node_start.append(len(self._s_labels))


def _init_empty_structures(self) -> None:
    self._d_labels = BitVector([])
    self._d_haschild = BitVector([])
    self._d_isprefix = BitVector([])
    self._d_leaf_payloads: List[int] = []
    self._d_prefix_payloads: List[int] = []
    self._s_labels = b""
    self._s_haschild = BitVector([])
    self._s_louds = BitVector([])
    self._s_isprefix = BitVector([])
    self._s_leaf_payloads: List[int] = []
    self._s_prefix_payloads: List[int] = []
    self._num_sparse = 0
    self._first_sparse_child = 1
    self._s_node_start = [0]


# ------------------------------------------------- cursor-DFS filter block

def children_sorted(backend, ref) -> Iterator[Tuple[int, object]]:
    """Children in ascending label order, over the cursor protocol."""
    nxt = backend.first_child_geq(ref, 0)
    while nxt is not None:
        label, child_ref = nxt
        yield label, child_ref
        nxt = backend.first_child_geq(ref, label + 1)


def collect_terminals(backend) -> List[Tuple[bytes, Terminal]]:
    """DFS over the cursor protocol: terminals in lexicographic order."""
    out: List[Tuple[bytes, Terminal]] = []

    def visit(node, path: bytes) -> None:
        term = backend.terminal(node)
        if term is not None:
            out.append((path, term))
        if backend.has_children(node):
            for label, child in children_sorted(backend, node):
                visit(child, path + bytes([label]))

    visit(backend.root(), b"")
    return out


def encode_surf(filt: SuRF) -> bytes:
    """The whole SuRF filter block, tag byte included."""
    terminals = collect_terminals(filt.backend)
    backend_code = 1 if isinstance(filt.backend, LoudsBackend) else 0
    out = [bytes([_TAG_SURF]),
           _SURF_HEADER.pack(_VARIANT_CODES[filt.scheme.variant],
                             filt.scheme.num_bits, backend_code,
                             len(terminals))]
    out.append(_U32.pack(filt.num_keys))
    for prefix, terminal in terminals:
        out.append(_SURF_TERMINAL.pack(len(prefix), terminal.payload))
        out.append(prefix)
    return b"".join(out)


def decode_surf(block: bytes) -> SuRF:
    """A well-formed SuRF filter block (tag byte included) back to a filter,
    through a dict trie."""
    data = block[1:]
    variant_code, suffix_bits, backend_code, count = _SURF_HEADER.unpack_from(
        data)
    offset = _SURF_HEADER.size
    (num_keys,) = _U32.unpack_from(data, offset)
    offset += _U32.size
    scheme = SuffixScheme(_VARIANT_BY_CODE[variant_code], suffix_bits)
    root = TrieNode()
    for _ in range(count):
        prefix_len, payload = _SURF_TERMINAL.unpack_from(data, offset)
        offset += _SURF_TERMINAL.size
        prefix = data[offset : offset + prefix_len]
        if len(prefix) != prefix_len:
            raise CorruptionError("truncated SuRF terminal prefix")
        offset += prefix_len
        _insert_terminal(root, prefix, payload)
    _refinalize(root)
    root.freeze()
    backend = (louds_from_trie(root) if backend_code
               else TrieBackend(root))
    return SuRF(backend, scheme, num_keys)


def _insert_terminal(root: TrieNode, prefix: bytes, payload: int) -> None:
    node = root
    for byte in prefix:
        child = node.children.get(byte)
        if child is None:
            child = TrieNode()
            node.children[byte] = child
        node = child
    node.terminal = Terminal(TerminalKind.LEAF, payload)


def _refinalize(node: TrieNode) -> None:
    if node.terminal is not None and node.children:
        node.terminal = Terminal(TerminalKind.PREFIX_KEY, node.terminal.payload)
    for child in node.children.values():
        _refinalize(child)
