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

import struct
from bisect import bisect_left
from itertools import chain, islice
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.errors import ConfigError
from repro.common.keys import common_prefix_lens
from repro.filters.bitarray import popcount as _popcount
from repro.filters.rank_select import BitVector
from repro.filters.surf import cursor as _cursor
from repro.filters.surf.cursor import Terminal, TerminalKind
from repro.filters.surf.suffix import SuffixScheme
from repro.filters.surf.trie import Pruned, prune

#: Bits one dense node costs: two 256-bit bitmaps + the prefix-key bit.
_DENSE_NODE_BITS = 2 * 256 + 1
#: Bits one sparse label costs: 8-bit label + HasChild + LOUDS bits.
_SPARSE_LABEL_BITS = 10
#: SuRF's R: the dense top may cost at most 1/R of the sparse levels below.
SPARSE_DENSE_RATIO = 64

# Cursor node-reference kinds.
_DENSE_NODE = 0
_SPARSE_NODE = 1
_DENSE_LEAF = 2
_SPARSE_LEAF = 3
_ROOT_ONLY = 4

_LABEL_BYTES = [bytes((label,)) for label in range(256)]


#: Maps a 0/1 byte per bit to the ASCII digits ``int(..., 2)`` parses.
_ASCII_BITS = bytes.maketrans(b"\x00\x01", b"01")


def _bitvector(bits: bytearray) -> BitVector:
    """Pack one 0/1 byte per bit into words, with no Python step per bit:
    the bytes, reversed, are one binary literal cut into 64-bit words."""
    length = len(bits)
    count = (length + 63) >> 6
    value = int(bits.translate(_ASCII_BITS)[::-1], 2) if length else 0
    words = struct.unpack(f"<{count}Q", value.to_bytes(8 * count, "little"))
    return BitVector.from_words(words, length)


def choose_dense_levels(level_nodes: Sequence[int],
                        level_labels: Sequence[int]) -> int:
    """Pick how many top levels to encode densely: SuRF's cutoff rule.

    The largest ``l`` such that the dense bits of levels ``0..l``, times
    :data:`SPARSE_DENSE_RATIO`, are at most the sparse bits of the levels
    below ``l``; ``l + 1`` levels go dense, or none when even the root
    alone fails.  The dense top thus stays a small fraction of the
    filter, as in the published SuRF builder.
    """
    sparse_below = _SPARSE_LABEL_BITS * sum(level_labels)
    dense_bits = 0
    chosen = 0
    for nodes, labels in zip(level_nodes, level_labels):
        dense_bits += nodes * _DENSE_NODE_BITS
        sparse_below -= labels * _SPARSE_LABEL_BITS
        if dense_bits * SPARSE_DENSE_RATIO > sparse_below:
            break
        chosen += 1
    return chosen


def _levels(prefixes: Sequence[bytes], payloads: Sequence[int],
            lcps: Sequence[int]):
    """Per-level LOUDS arrays, straight off a strictly increasing list.

    As in the published SuRF builder: prefix ``i`` adds one label per
    level from its common prefix with prefix ``i - 1`` (``lcps[i - 1]``)
    to its own length, and sorted order visits each level's nodes in
    level order, so every level's arrays are only ever appended to.
    Whether a prefix's last label leads to a leaf or to a prefix-key node
    is settled by the next prefix.  Returns, one list entry per level:
    the labels, their HasChild bits, each node's first-label index, each
    node's IsPrefixKey bit, the leaf payloads and the prefix-key payloads.
    """
    sizes = list(map(len, prefixes))
    num_levels = max(sizes, default=0)
    labels, haschild, isprefix = (
        [bytearray() for _ in range(num_levels)] for _ in range(3))
    node_starts, leaf_payloads, prefix_payloads = (
        [[] for _ in range(num_levels)] for _ in range(3))
    levels = (labels, haschild, node_starts, isprefix, leaf_payloads,
              prefix_payloads)
    if not num_levels:
        return levels
    first = prefixes[0]
    # The first prefix opens one node per level along its path.
    for level in range(sizes[0]):
        if level:
            haschild[level - 1].append(1)
        node_starts[level].append(0)
        isprefix[level].append(0)
        labels[level].append(first[level])
    for prefix, size, prev_size, lcp, prev_payload in zip(
            islice(prefixes, 1, None), islice(sizes, 1, None), sizes, lcps,
            payloads):
        if lcp == prev_size:
            # The previous prefix is a prefix key: its node opens here.
            if lcp:
                haschild[lcp - 1].append(1)
            node_starts[lcp].append(len(labels[lcp]))
            isprefix[lcp].append(1)
            prefix_payloads[lcp].append(prev_payload)
        else:
            # A sibling label in the node the two prefixes share.
            haschild[prev_size - 1].append(0)
            leaf_payloads[prev_size - 1].append(prev_payload)
        labels[lcp].append(prefix[lcp])
        level = lcp + 1
        while level < size:  # usually no step; no range() built for it
            haschild[level - 1].append(1)
            level_labels = labels[level]
            node_starts[level].append(len(level_labels))
            isprefix[level].append(0)
            level_labels.append(prefix[level])
            level += 1
    haschild[sizes[-1] - 1].append(0)
    leaf_payloads[sizes[-1] - 1].append(payloads[-1])
    return levels


class LoudsBackend:
    """Succinct SuRF backend, the one every product path builds.

    Queries run through its own kernels (:meth:`lookup`,
    :meth:`lookup_many`, :meth:`may_contain_range`); the cursor protocol
    methods below are what the tests walk to check them.
    """

    backend_name = "louds"

    @classmethod
    def build(cls, sorted_keys: Sequence[bytes], scheme: SuffixScheme,
              num_dense_levels: Optional[int] = None,
              pruned: Optional[Pruned] = None) -> "LoudsBackend":
        """Build directly from sorted unique keys (``pruned``: their
        :func:`prune`, when the caller already holds it)."""
        if pruned is None:
            pruned = prune(sorted_keys, scheme)
        prefixes, payloads, lcps = pruned
        return cls.from_terminals(prefixes, payloads, num_dense_levels, lcps)

    # ------------------------------------------------------------------ build

    @classmethod
    def from_terminals(cls, prefixes: Sequence[bytes],
                       payloads: Sequence[int],
                       num_dense_levels: Optional[int] = None,
                       lcps: Optional[Sequence[int]] = None
                       ) -> "LoudsBackend":
        """Encode a strictly increasing terminal list, level by level.

        The levels come from one pass over the prefixes (:func:`_levels`),
        given their adjacent common prefixes (``lcps``: the build passes
        the ones it pruned with, a decode measures them here); the top
        ``num_dense_levels`` (by default :func:`choose_dense_levels`) are
        then laid out densely and the rest sparsely, with the sparse node
        starts taken from the level pass: no pointer trie, no select.
        """
        self = cls.__new__(cls)
        if lcps is None:
            lcps = common_prefix_lens(prefixes)
        (labels, haschild, node_starts, isprefix, leaf_payloads,
         prefix_payloads) = _levels(prefixes, payloads, lcps)
        # Degenerate tries (empty, or a lone empty-key terminal) have no
        # internal nodes to encode; serve them from a sentinel root.
        self._empty = not labels
        self._root_terminal = (Terminal(TerminalKind.LEAF, payloads[0])
                               if prefixes and self._empty else None)
        num_levels = len(labels)
        level_nodes = [len(starts) for starts in node_starts]
        if num_dense_levels is None:
            num_dense_levels = choose_dense_levels(
                level_nodes, [len(level) for level in labels])
        dense = max(0, min(num_dense_levels, num_levels))
        self._num_dense = sum(level_nodes[:dense])

        # Dense node ``j`` owns bits ``256 * j`` to ``256 * j + 255``.
        d_labels = bytearray(256 * self._num_dense)
        d_haschild = bytearray(256 * self._num_dense)
        row = 0
        for level in range(dense):
            level_labels = labels[level]
            level_haschild = haschild[level]
            start = 0
            for end in node_starts[level][1:] + [len(level_labels)]:
                for pos in range(start, end):
                    bit = row | level_labels[pos]
                    d_labels[bit] = 1
                    d_haschild[bit] = level_haschild[pos]
                row += 256
                start = end
        self._d_labels = _bitvector(d_labels)
        self._d_haschild = _bitvector(d_haschild)
        self._d_isprefix = _bitvector(bytearray().join(isprefix[:dense]))
        self._d_leaf_payloads = list(chain.from_iterable(leaf_payloads[:dense]))
        self._d_prefix_payloads = list(
            chain.from_iterable(prefix_payloads[:dense]))

        self._s_labels = b"".join(labels[dense:])
        self._s_haschild = _bitvector(bytearray().join(haschild[dense:]))
        self._s_isprefix = _bitvector(bytearray().join(isprefix[dense:]))
        self._s_leaf_payloads = list(chain.from_iterable(leaf_payloads[dense:]))
        self._s_prefix_payloads = list(
            chain.from_iterable(prefix_payloads[dense:]))
        s_node_start: List[int] = []
        offset = 0
        for level in range(dense, num_levels):
            s_node_start.extend([offset + start for start in node_starts[level]])
            offset += len(labels[level])
        s_louds = bytearray(offset)
        for start in s_node_start:
            s_louds[start] = 1
        self._s_louds = _bitvector(s_louds)
        self._num_sparse = len(s_node_start)
        s_node_start.append(offset)
        self._s_node_start = s_node_start
        if self._num_dense == 0:
            # Root itself is sparse node 0; sparse-edge children start at 1.
            self._first_sparse_child = 1
        else:
            self._first_sparse_child = (self._d_haschild.ones
                                        - (self._num_dense - 1))
        self._bind_views()
        return self

    def _bind_views(self) -> None:
        """Tuple the structures each query kernel binds to locals, so a
        query unpacks one attribute instead of loading a dozen."""
        self._dense_view = (
            self._d_labels.words, self._d_labels.rank_directory,
            self._d_haschild.words, self._d_haschild.rank_directory,
            self._d_isprefix.words, self._d_isprefix.rank_directory,
            self._d_leaf_payloads, self._d_prefix_payloads)
        self._sparse_view = (
            self._s_labels, self._s_node_start,
            self._s_haschild.words, self._s_haschild.rank_directory,
            self._s_isprefix.words, self._s_isprefix.rank_directory,
            self._s_leaf_payloads, self._s_prefix_payloads,
            self._first_sparse_child)
        self._matcher_of = None

    def terminals(self) -> Tuple[List[bytes], List[int]]:
        """The terminal list ``(prefixes, payloads)``, in sorted order.

        One level-order scan: internal node ``i`` (``i >= 1``) is the
        target of the ``i``-th internal edge, so each node's path is known
        before its labels are read, and the payload arrays are consumed in
        the order they were written.  Prefixes are unique, so one sort
        puts the terminals in depth-first order.
        """
        if self._empty:
            term = self._root_terminal
            return ([b""], [term.payload]) if term is not None else ([], [])
        prefixes: List[bytes] = []
        payloads: List[int] = []
        paths = [b""]
        label_words = self._d_labels.words
        haschild_words = self._d_haschild.words
        isprefix_words = self._d_isprefix.words
        leaf_payloads = iter(self._d_leaf_payloads)
        prefix_payloads = iter(self._d_prefix_payloads)
        for node in range(self._num_dense):
            path = paths[node]
            if (isprefix_words[node >> 6] >> (node & 63)) & 1:
                prefixes.append(path)
                payloads.append(next(prefix_payloads))
            for w in range(node << 2, (node + 1) << 2):
                word = label_words[w]
                while word:
                    low = word & -word
                    word ^= low
                    child = path + _LABEL_BYTES[(w & 3) << 6
                                                | low.bit_length() - 1]
                    if haschild_words[w] & low:
                        paths.append(child)
                    else:
                        prefixes.append(child)
                        payloads.append(next(leaf_payloads))
        s_labels = self._s_labels
        s_node_start = self._s_node_start
        haschild_words = self._s_haschild.words
        isprefix_words = self._s_isprefix.words
        leaf_payloads = iter(self._s_leaf_payloads)
        prefix_payloads = iter(self._s_prefix_payloads)
        for node in range(self._num_sparse):
            path = paths[self._num_dense + node]
            if (isprefix_words[node >> 6] >> (node & 63)) & 1:
                prefixes.append(path)
                payloads.append(next(prefix_payloads))
            for pos in range(s_node_start[node], s_node_start[node + 1]):
                child = path + s_labels[pos:pos + 1]
                if (haschild_words[pos >> 6] >> (pos & 63)) & 1:
                    paths.append(child)
                else:
                    prefixes.append(child)
                    payloads.append(next(leaf_payloads))
        order = sorted(range(len(prefixes)), key=prefixes.__getitem__)
        return ([prefixes[i] for i in order], [payloads[i] for i in order])

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

    # ----------------------------------------------------------- point lookup

    def _matcher(self, scheme: SuffixScheme):
        """``scheme.matcher()``, built once per filter (one scheme each)."""
        cached = self._matcher_of
        if cached is None or cached[0] is not scheme:
            cached = self._matcher_of = (scheme, scheme.matcher())
        return cached[1]

    def lookup(self, key: bytes, scheme: SuffixScheme) -> bool:
        """One point query: :func:`repro.filters.surf.cursor.lookup`'s
        verdict, with the cursor protocol inlined as in
        :meth:`lookup_many`: the structure views bound to locals, node
        references as ints, no :class:`Terminal`."""
        if self._empty:
            return _cursor.lookup(self, key, scheme)
        popcount = _popcount
        key_len = len(key)
        depth = 0
        index = 0
        num_dense = self._num_dense
        if num_dense:
            (dl_words, dl_rank, dh_words, dh_rank, dip_words, dip_rank,
             d_leaf_payloads, d_prefix_payloads) = self._dense_view
            while True:
                if depth == key_len:
                    if not (dip_words[index >> 6] >> (index & 63)) & 1:
                        return False
                    p1 = index + 1
                    w, o = p1 >> 6, p1 & 63
                    r = dip_rank[w]
                    if o:
                        r += popcount(dip_words[w] & ((1 << o) - 1))
                    return self._matcher(scheme)(key, depth,
                                                 d_prefix_payloads[r - 1])
                pos = (index << 8) | key[depth]
                if not (dl_words[pos >> 6] >> (pos & 63)) & 1:
                    return False
                depth += 1
                p1 = pos + 1
                w, o = p1 >> 6, p1 & 63
                rh = dh_rank[w]
                if o:
                    mask = (1 << o) - 1
                    rh += popcount(dh_words[w] & mask)
                if not (dh_words[pos >> 6] >> (pos & 63)) & 1:
                    rl = dl_rank[w]
                    if o:
                        rl += popcount(dl_words[w] & mask)
                    return self._matcher(scheme)(key, depth,
                                                 d_leaf_payloads[rl - rh - 1])
                if rh >= num_dense:
                    index = rh - num_dense
                    break
                index = rh
        (s_labels, s_node_start, sh_words, sh_rank, sip_words, sip_rank,
         s_leaf_payloads, s_prefix_payloads,
         first_sparse_child) = self._sparse_view
        while True:
            if depth == key_len:
                if not (sip_words[index >> 6] >> (index & 63)) & 1:
                    return False
                p1 = index + 1
                w, o = p1 >> 6, p1 & 63
                r = sip_rank[w]
                if o:
                    r += popcount(sip_words[w] & ((1 << o) - 1))
                return self._matcher(scheme)(key, depth,
                                             s_prefix_payloads[r - 1])
            pos = s_labels.find(key[depth], s_node_start[index],
                                s_node_start[index + 1])
            if pos < 0:
                return False
            depth += 1
            p1 = pos + 1
            w, o = p1 >> 6, p1 & 63
            rh = sh_rank[w]
            if o:
                rh += popcount(sh_words[w] & ((1 << o) - 1))
            if not (sh_words[pos >> 6] >> (pos & 63)) & 1:
                return self._matcher(scheme)(key, depth,
                                             s_leaf_payloads[p1 - rh - 1])
            index = first_sparse_child + rh - 1

    # ------------------------------------------------------------- range seek

    def may_contain_range(self, low: bytes, high: bytes) -> bool:
        """One range query: :func:`repro.filters.surf.cursor.
        may_contain_range`'s verdict, without the cursor protocol.

        The seek follows ``low`` down, keeping the internal nodes it
        passes as ints (dense node ``j`` is ``j``, sparse node ``j`` is
        ``num_dense + j``).  A leaf met on the way is ambiguous, or is
        ``low`` itself: either way the range passes.  Where ``low``'s
        next label is missing, the seek takes the next larger label of the
        deepest node on the path that has one, then the leftmost terminal
        below it, and compares that prefix with ``high``.
        """
        if self._empty:
            return _cursor.may_contain_range(self, low, high)
        if low > high:
            return False
        popcount = _popcount
        num_dense = self._num_dense
        dl_words, _, dh_words, dh_rank = self._dense_view[:4]
        (s_labels, s_node_start, sh_words, sh_rank) = self._sparse_view[:4]
        sparse_base = num_dense + self._first_sparse_child - 1
        low_len = len(low)
        path: List[int] = []
        node = 0
        for depth in range(low_len):
            label = low[depth]
            if node < num_dense:
                pos = (node << 8) | label
                if not (dl_words[pos >> 6] >> (pos & 63)) & 1:
                    break
                if not (dh_words[pos >> 6] >> (pos & 63)) & 1:
                    return True
                words, rank, base = dh_words, dh_rank, 0
            else:
                sparse = node - num_dense
                pos = s_labels.find(label, s_node_start[sparse],
                                    s_node_start[sparse + 1])
                if pos < 0:
                    break
                if not (sh_words[pos >> 6] >> (pos & 63)) & 1:
                    return True
                words, rank, base = sh_words, sh_rank, sparse_base
            path.append(node)
            p1 = pos + 1
            w, o = p1 >> 6, p1 & 63
            node = base + rank[w]
            if o:
                node += popcount(words[w] & ((1 << o) - 1))
        else:
            # Every terminal below ``node`` starts with ``low``.
            prefix = low + self._leftmost_labels(node)
            return prefix <= high or high.startswith(prefix)
        path.append(node)
        for depth in range(len(path) - 1, -1, -1):
            node = path[depth]
            label = low[depth] + 1
            if node < num_dense:
                if label > 255:
                    continue
                pos = (node << 8) | label
                end = (node + 1) << 8
                while pos < end:
                    word = dl_words[pos >> 6] >> (pos & 63)
                    if word:
                        pos += (word & -word).bit_length() - 1
                        break
                    pos = (pos | 63) + 1
                else:
                    continue
                words, rank, base = dh_words, dh_rank, 0
            else:
                sparse = node - num_dense
                end = s_node_start[sparse + 1]
                pos = bisect_left(s_labels, label, s_node_start[sparse], end)
                if pos == end:
                    continue
                words, rank, base = sh_words, sh_rank, sparse_base
            prefix = low[:depth] + _LABEL_BYTES[
                pos & 255 if node < num_dense else s_labels[pos]]
            if (words[pos >> 6] >> (pos & 63)) & 1:
                p1 = pos + 1
                w, o = p1 >> 6, p1 & 63
                child = base + rank[w]
                if o:
                    child += popcount(words[w] & ((1 << o) - 1))
                prefix += self._leftmost_labels(child)
            return prefix <= high or high.startswith(prefix)
        return False

    def _leftmost_labels(self, node: int) -> bytes:
        """Labels from internal ``node`` (numbered as in
        :meth:`may_contain_range`) down to the in-order-first terminal of
        its subtree: a node's own prefix key precedes everything below
        it, else the first label is taken."""
        num_dense = self._num_dense
        (dl_words, _, dh_words, _, dip_words, _, _, _) = self._dense_view
        (s_labels, s_node_start, sh_words, _, sip_words, _, _, _,
         first_sparse_child) = self._sparse_view
        labels = bytearray()
        while node < num_dense:
            if (dip_words[node >> 6] >> (node & 63)) & 1:
                return bytes(labels)
            pos = node << 8
            word = dl_words[pos >> 6]
            while not word:  # an internal node has a label
                pos += 64
                word = dl_words[pos >> 6]
            pos += (word & -word).bit_length() - 1
            labels.append(pos & 255)
            if not (dh_words[pos >> 6] >> (pos & 63)) & 1:
                return bytes(labels)
            node = self._d_haschild.rank1(pos + 1)
        node -= num_dense
        while not (sip_words[node >> 6] >> (node & 63)) & 1:
            pos = s_node_start[node]
            labels.append(s_labels[pos])
            if not (sh_words[pos >> 6] >> (pos & 63)) & 1:
                break
            node = first_sparse_child + self._s_haschild.rank1(pos + 1) - 1
        return bytes(labels)

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

        A descent also records how many key bytes decided its verdict: a
        label missing at depth d decides on the first d + 1 bytes, a leaf
        at depth d on d plus the scheme's suffix window (BASE, REAL).  A
        verdict that read past the key's end (a short key's zero-padded
        window), a prefix-key verdict and a HASH leaf verdict decide on
        the whole key and are never reused.  The next sorted key that
        starts with those bytes — so is at least that long — takes the
        same path to the same decision and copies the verdict without a
        descent (an extension chunk's consecutive suffixes, mostly).
        """
        if self._empty:  # sentinel root only: nothing to share or inline
            return [_cursor.lookup(self, key, scheme) for key in keys]

        # Locals-bound structure views (see BitVector.rank_directory).
        (dl_words, dl_rank, dh_words, dh_rank, dip_words, dip_rank,
         d_leaf_payloads, d_prefix_payloads) = self._dense_view
        (s_labels, s_node_start, sh_words, sh_rank, sip_words, sip_rank,
         s_leaf_payloads, s_prefix_payloads,
         first_sparse_child) = self._sparse_view
        num_dense = self._num_dense
        matches = self._matcher(scheme)
        window = scheme.window
        popcount = _popcount

        n = len(keys)
        verdicts = [False] * n
        root_kind = _DENSE_NODE if num_dense else _SPARSE_NODE
        kinds = [root_kind]
        idxs = [0]
        prev = b""
        prev_len = 0
        top = 0  # == len(kinds) - 1, maintained across keys
        stem = None  # the bytes that decided ``verdict``, when reusable
        for i in sorted(range(n), key=keys.__getitem__):
            key = keys[i]
            if stem is not None and key.startswith(stem):
                verdicts[i] = verdict
                continue
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
            decided = 0  # 0: the whole key decided
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
                        decided = depth + 1
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
                    pos = s_labels.find(key[depth], s_node_start[index],
                                        s_node_start[index + 1])
                    if pos < 0:
                        decided = depth + 1
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
                    if window is not None:
                        decided = depth + window
                    break
                else:  # _SPARSE_LEAF
                    p1 = index + 1
                    w, o = p1 >> 6, p1 & 63
                    rh = sh_rank[w]
                    if o:
                        rh += popcount(sh_words[w] & ((1 << o) - 1))
                    verdict = matches(key, depth, s_leaf_payloads[p1 - rh - 1])
                    if window is not None:
                        decided = depth + window
                    break
                depth += 1
                kinds.append(kind)
                idxs.append(index)
            verdicts[i] = verdict
            stem = key[:decided] if 0 < decided <= key_len else None
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
        return sum(self.memory_parts(suffix_bits).values())

    def memory_parts(self, suffix_bits: int) -> Dict[str, int]:
        """:meth:`memory_bits` per structure: each bitvector's words, rank
        directory and select samples (``"d_labels.rank"``, ...), the
        sparse ``"s_labels"`` and the ``"suffixes"``."""
        vectors = (("d_labels", self._d_labels),
                   ("d_haschild", self._d_haschild),
                   ("d_isprefix", self._d_isprefix),
                   ("s_haschild", self._s_haschild),
                   ("s_louds", self._s_louds),
                   ("s_isprefix", self._s_isprefix))
        parts = {f"{name}.{part}": bits for name, vector in vectors
                 for part, bits in vector.memory_parts().items()}
        parts["s_labels"] = 8 * len(self._s_labels)
        parts["suffixes"] = suffix_bits * (
            len(self._d_leaf_payloads) + len(self._d_prefix_payloads)
            + len(self._s_leaf_payloads) + len(self._s_prefix_payloads))
        return parts

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
