"""Succinct LOUDS-DENSE/SPARSE encoding of the pruned trie.

This backend reproduces the memory layout of the original SuRF (Zhang et
al., SIGMOD 2018) that the paper's attacks target:

* **LOUDS-Dense** (upper levels, optimized for speed): per node, a 256-bit
  label bitmap ``D-Labels``, a 256-bit ``D-HasChild`` bitmap marking which
  edges lead to internal nodes, and one ``D-IsPrefixKey`` bit.
* **LOUDS-Sparse** (lower levels, optimized for space): a byte array
  ``S-Labels``, a bitvector ``S-HasChild``, and ``S-LOUDS`` marking the
  first label of each node.  (The original encodes prefix keys with a
  0xFF terminator label, which mis-answers keys genuinely containing 0xFF
  at branch points; we store an explicit per-node ``S-IsPrefixKey``
  bitvector instead — same asymptotics, exact semantics.)

Nodes are numbered in level order; child pointers are *computed* with
rank/select over the structural bitmaps rather than stored.  Suffix
payloads live in four value arrays (dense/sparse x leaf/prefix-key),
indexed by the same rank expressions the queries use.

The backend implements the cursor protocol of
:mod:`repro.filters.surf.cursor`; property tests assert it agrees with the
reference dict-trie backend on every query.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.common.errors import ConfigError
from repro.filters.bitarray import popcount as _popcount
from repro.filters.rank_select import BitVector
from repro.filters.surf import cursor as _cursor
from repro.filters.surf.cursor import Terminal, TerminalKind
from repro.filters.surf.suffix import SuffixScheme
from repro.filters.surf.trie import TrieNode, build_pruned_trie

#: Bits one dense node costs: two 256-bit bitmaps + the prefix-key bit.
_DENSE_NODE_BITS = 2 * 256 + 1
#: Bits one sparse label costs: 8-bit label + HasChild + LOUDS bits.
_SPARSE_LABEL_BITS = 10
#: Dense-vs-sparse size ratio cutoff (SuRF's R parameter).
DENSE_RATIO = 16

# Cursor node-reference kinds.
_DENSE_NODE = 0
_SPARSE_NODE = 1
_DENSE_LEAF = 2
_SPARSE_LEAF = 3
_ROOT_ONLY = 4

_WORD_MASK = (1 << 64) - 1


class _BitWriter:
    """Accumulates bits into 64-bit words for :meth:`BitVector.from_words`.

    Construction-time counterpart of the bitvector's packed layout: the
    builder appends bits here and finishes into a :class:`BitVector`
    without materializing a Python-bool list per bit.
    """

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


def choose_dense_levels(level_nodes: Sequence[int],
                        level_labels: Sequence[int]) -> int:
    """Pick how many top levels to encode densely.

    In SuRF's spirit — the dense encoding of a level pays off when the
    level is densely branching — level ``l`` is included while the dense
    cost of levels ``0..l`` is at most ``DENSE_RATIO`` times their
    sparse cost, which includes the root for any non-degenerate trie and
    stops as soon as branching thins out.
    """
    dense_bits = 0
    sparse_bits = 0
    chosen = 0
    for nodes, labels in zip(level_nodes, level_labels):
        dense_bits += nodes * _DENSE_NODE_BITS
        sparse_bits += labels * _SPARSE_LABEL_BITS
        if dense_bits <= DENSE_RATIO * sparse_bits:
            chosen += 1
        else:
            break
    return chosen


class LoudsBackend:
    """Succinct SuRF backend (cursor protocol)."""

    backend_name = "louds"

    def __init__(self, trie_root: TrieNode,
                 num_dense_levels: Optional[int] = None) -> None:
        self._build(trie_root, num_dense_levels)

    @classmethod
    def build(cls, sorted_keys: Sequence[bytes], scheme: SuffixScheme,
              num_dense_levels: Optional[int] = None) -> "LoudsBackend":
        """Build directly from sorted unique keys."""
        return cls(build_pruned_trie(sorted_keys, scheme),
                   num_dense_levels=num_dense_levels)

    # ------------------------------------------------------------------ build

    def _build(self, root: TrieNode,
               num_dense_levels: Optional[int]) -> None:
        self._root_terminal: Optional[Terminal] = None
        if not root.children:
            # Degenerate tries (empty, or a lone empty-key terminal) have no
            # internal nodes to encode; serve them from a sentinel root.
            self._root_terminal = root.terminal
            self._num_dense = 0
            self._empty = True
            self._init_empty_structures()
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
        # accumulator.  Either way the resulting BitVector is identical
        # to one built bool-at-a-time; only construction cost changes.
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

    # ------------------------------------------------------------- cursor API

    def root(self) -> Tuple[int, int]:
        """Root node reference."""
        if self._empty:
            return (_ROOT_ONLY, 0)
        if self._num_dense:
            return (_DENSE_NODE, 0)
        return (_SPARSE_NODE, 0)

    def terminal(self, ref: Tuple[int, int]) -> Optional[Terminal]:
        """Terminal record at ``ref``, or None."""
        kind, index = ref
        if kind == _DENSE_NODE:
            if self._d_isprefix.get(index):
                payload = self._d_prefix_payloads[
                    self._d_isprefix.rank1(index + 1) - 1
                ]
                return Terminal(TerminalKind.PREFIX_KEY, payload)
            return None
        if kind == _SPARSE_NODE:
            if self._s_isprefix.get(index):
                payload = self._s_prefix_payloads[
                    self._s_isprefix.rank1(index + 1) - 1
                ]
                return Terminal(TerminalKind.PREFIX_KEY, payload)
            return None
        if kind == _DENSE_LEAF:
            ordinal = (
                self._d_labels.rank1(index + 1)
                - self._d_haschild.rank1(index + 1)
                - 1
            )
            return Terminal(TerminalKind.LEAF, self._d_leaf_payloads[ordinal])
        if kind == _SPARSE_LEAF:
            ordinal = (index + 1) - self._s_haschild.rank1(index + 1) - 1
            return Terminal(TerminalKind.LEAF, self._s_leaf_payloads[ordinal])
        return self._root_terminal

    def child(self, ref: Tuple[int, int], label: int) -> Optional[Tuple[int, int]]:
        """Child of ``ref`` along ``label`` (may be a leaf reference)."""
        kind, index = ref
        if kind == _DENSE_NODE:
            pos = (index << 8) | label
            if not self._d_labels.get(pos):
                return None
            if not self._d_haschild.get(pos):
                return (_DENSE_LEAF, pos)
            return self._dense_child_ref(pos)
        if kind == _SPARSE_NODE:
            start = self._s_node_start[index]
            end = self._s_node_start[index + 1]
            pos = bisect_left(self._s_labels, label, start, end)
            if pos == end or self._s_labels[pos] != label:
                return None
            if not self._s_haschild.get(pos):
                return (_SPARSE_LEAF, pos)
            return self._sparse_child_ref(pos)
        return None

    def has_children(self, ref: Tuple[int, int]) -> bool:
        """Whether the reference denotes an internal node."""
        return ref[0] in (_DENSE_NODE, _SPARSE_NODE)

    def children_sorted(self, ref: Tuple[int, int]
                        ) -> Iterator[Tuple[int, Tuple[int, int]]]:
        """Children in ascending label order."""
        nxt = self.first_child_geq(ref, 0)
        while nxt is not None:
            label, child_ref = nxt
            yield label, child_ref
            nxt = self.first_child_geq(ref, label + 1)

    def first_child_geq(self, ref: Tuple[int, int], label: int
                        ) -> Optional[Tuple[int, Tuple[int, int]]]:
        """Smallest child with label >= ``label``, or None."""
        if label > 255:
            return None
        kind, index = ref
        if kind == _DENSE_NODE:
            pos = (index << 8) | label
            node_end = (index + 1) << 8
            ones_before = self._d_labels.rank1(pos)
            if ones_before >= self._d_labels.ones:
                return None
            nxt = self._d_labels.select1(ones_before + 1)
            if nxt >= node_end:
                return None
            found_label = nxt & 0xFF
            if not self._d_haschild.get(nxt):
                return found_label, (_DENSE_LEAF, nxt)
            return found_label, self._dense_child_ref(nxt)
        if kind == _SPARSE_NODE:
            start = self._s_node_start[index]
            end = self._s_node_start[index + 1]
            pos = bisect_left(self._s_labels, label, start, end)
            if pos == end:
                return None
            found_label = self._s_labels[pos]
            if not self._s_haschild.get(pos):
                return found_label, (_SPARSE_LEAF, pos)
            return found_label, self._sparse_child_ref(pos)
        return None

    # ------------------------------------------------------------ batch lookup

    def lookup_many(self, keys: Sequence[bytes],
                    scheme: SuffixScheme) -> List[bool]:
        """De-virtualized batched point lookups.

        Probes in sorted order, resuming each traversal from the deepest
        node of the previous probe's path that still lies on the new
        key's prefix, with the cursor protocol inlined: the structural
        bitmaps' packed words and precomputed popcount directories are
        bound to locals, every ``rank1``/``get`` becomes one index plus
        one popcount, and node references live in two parallel int stacks
        instead of tuples.  The verdict vector is exactly the scalar
        loop's (:func:`repro.filters.surf.cursor.lookup`), input order and
        duplicates included.
        """
        if self._empty:  # sentinel root only: nothing to share or inline
            return [_cursor.lookup(self, key, scheme) for key in keys]

        # Locals-bound structure views (see BitVector.rank_directory).
        dl_words = self._d_labels.words
        dl_rank = self._d_labels.rank_directory
        dh_words = self._d_haschild.words
        dh_rank = self._d_haschild.rank_directory
        dip_words = self._d_isprefix.words
        dip_rank = self._d_isprefix.rank_directory
        sh_words = self._s_haschild.words
        sh_rank = self._s_haschild.rank_directory
        sip_words = self._s_isprefix.words
        sip_rank = self._s_isprefix.rank_directory
        s_labels = self._s_labels
        s_node_start = self._s_node_start
        d_leaf_payloads = self._d_leaf_payloads
        d_prefix_payloads = self._d_prefix_payloads
        s_leaf_payloads = self._s_leaf_payloads
        s_prefix_payloads = self._s_prefix_payloads
        num_dense = self._num_dense
        first_sparse_child = self._first_sparse_child
        matches = scheme.matcher()
        popcount = _popcount
        bisect = bisect_left

        n = len(keys)
        verdicts = [False] * n
        root_kind = _DENSE_NODE if num_dense else _SPARSE_NODE
        kinds = [root_kind]
        idxs = [0]
        prev = b""
        prev_len = 0
        top = 0  # == len(kinds) - 1, maintained across keys
        for i in sorted(range(n), key=keys.__getitem__):
            key = keys[i]
            key_len = len(key)
            # Resume depth: lcp(prev, key) clamped to the depth actually
            # reached for ``prev`` (== top), computed without a full lcp
            # when the clamped windows already match.
            limit = prev_len if prev_len < key_len else key_len
            if limit > top:
                limit = top
            if prev[:limit] == key[:limit]:
                depth = limit
            else:
                depth = 0
                while prev[depth] == key[depth]:
                    depth += 1
            if depth < top:
                del kinds[depth + 1:]
                del idxs[depth + 1:]
            kind = kinds[depth]
            index = idxs[depth]
            verdict = False
            while True:
                if kind == _DENSE_NODE:
                    if depth == key_len:
                        if (dip_words[index >> 6] >> (index & 63)) & 1:
                            p1 = index + 1
                            w, o = p1 >> 6, p1 & 63
                            r = dip_rank[w]
                            if o:
                                r += popcount(dip_words[w] & ((1 << o) - 1))
                            verdict = matches(key, depth,
                                              d_prefix_payloads[r - 1])
                        break
                    pos = (index << 8) | key[depth]
                    if not (dl_words[pos >> 6] >> (pos & 63)) & 1:
                        break
                    if (dh_words[pos >> 6] >> (pos & 63)) & 1:
                        p1 = pos + 1
                        w, o = p1 >> 6, p1 & 63
                        r = dh_rank[w]
                        if o:
                            r += popcount(dh_words[w] & ((1 << o) - 1))
                        if r < num_dense:
                            kind, index = _DENSE_NODE, r
                        else:
                            kind, index = _SPARSE_NODE, r - num_dense
                    else:
                        kind, index = _DENSE_LEAF, pos
                elif kind == _SPARSE_NODE:
                    if depth == key_len:
                        if (sip_words[index >> 6] >> (index & 63)) & 1:
                            p1 = index + 1
                            w, o = p1 >> 6, p1 & 63
                            r = sip_rank[w]
                            if o:
                                r += popcount(sip_words[w] & ((1 << o) - 1))
                            verdict = matches(key, depth,
                                              s_prefix_payloads[r - 1])
                        break
                    start = s_node_start[index]
                    end = s_node_start[index + 1]
                    pos = bisect(s_labels, key[depth], start, end)
                    if pos == end or s_labels[pos] != key[depth]:
                        break
                    if (sh_words[pos >> 6] >> (pos & 63)) & 1:
                        p1 = pos + 1
                        w, o = p1 >> 6, p1 & 63
                        r = sh_rank[w]
                        if o:
                            r += popcount(sh_words[w] & ((1 << o) - 1))
                        kind, index = _SPARSE_NODE, first_sparse_child + r - 1
                    else:
                        kind, index = _SPARSE_LEAF, pos
                elif kind == _DENSE_LEAF:
                    p1 = index + 1
                    w, o = p1 >> 6, p1 & 63
                    rl = dl_rank[w]
                    rh = dh_rank[w]
                    if o:
                        mask = (1 << o) - 1
                        rl += popcount(dl_words[w] & mask)
                        rh += popcount(dh_words[w] & mask)
                    verdict = matches(key, depth,
                                      d_leaf_payloads[rl - rh - 1])
                    break
                else:  # _SPARSE_LEAF
                    p1 = index + 1
                    w, o = p1 >> 6, p1 & 63
                    rh = sh_rank[w]
                    if o:
                        rh += popcount(sh_words[w] & ((1 << o) - 1))
                    verdict = matches(key, depth, s_leaf_payloads[p1 - rh - 1])
                    break
                depth += 1
                kinds.append(kind)
                idxs.append(index)
            verdicts[i] = verdict
            prev = key
            prev_len = key_len
            top = depth
        return verdicts

    # --------------------------------------------------------------- internals

    def _dense_child_ref(self, pos: int) -> Tuple[int, int]:
        child_global = self._d_haschild.rank1(pos + 1)
        if child_global < self._num_dense:
            return (_DENSE_NODE, child_global)
        return (_SPARSE_NODE, child_global - self._num_dense)

    def _sparse_child_ref(self, pos: int) -> Tuple[int, int]:
        child = self._first_sparse_child + self._s_haschild.rank1(pos + 1) - 1
        return (_SPARSE_NODE, child)

    # ------------------------------------------------------------------ sizing

    def memory_bits(self, suffix_bits: int) -> int:
        """Measured size of the succinct structures and payload arrays."""
        payloads = (
            len(self._d_leaf_payloads)
            + len(self._d_prefix_payloads)
            + len(self._s_leaf_payloads)
            + len(self._s_prefix_payloads)
        )
        return (
            self._d_labels.memory_bits()
            + self._d_haschild.memory_bits()
            + self._d_isprefix.memory_bits()
            + self._s_haschild.memory_bits()
            + self._s_louds.memory_bits()
            + self._s_isprefix.memory_bits()
            + 8 * len(self._s_labels)
            + suffix_bits * payloads
        )

    @property
    def num_dense_nodes(self) -> int:
        """Internal nodes encoded densely."""
        return self._num_dense

    @property
    def num_sparse_nodes(self) -> int:
        """Internal nodes encoded sparsely."""
        return self._num_sparse

    def __getstate__(self):
        raise ConfigError("LoudsBackend is not picklable; rebuild from keys")
