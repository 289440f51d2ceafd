"""Pruned terminals and the reference SuRF backend.

SuRF's core structure (paper section 6.1) is a trie pruned to the minimum
length prefixes that uniquely identify each key: the shared prefix plus one
distinguishing byte.  :func:`prune` maps a sorted key list to those
prefixes and their suffix payloads, in sorted order; that terminal
list is the one form both backends build from, write to the filter block
(:mod:`repro.filters.serialize`) and load back from.  Both expose the
*cursor* protocol (:mod:`repro.filters.surf.cursor`), so the shared lookup
and range-seek algorithms run identically over either.

The reference backend stores only what a real SuRF stores — pruned paths
and per-terminal suffix payloads — so its query answers (including false
positives) are exactly those of the succinct encoding, just laid out in
Python dicts for speed and debuggability.
"""

from __future__ import annotations

from operator import lt
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.errors import ConfigError
from repro.common.keys import common_prefix_lens
from repro.filters.surf import cursor as _cursor
from repro.filters.surf.cursor import Terminal, TerminalKind
from repro.filters.surf.suffix import SuffixScheme


class TrieNode:
    """One pruned-trie node: sorted children plus an optional terminal."""

    __slots__ = ("children", "terminal", "_sorted_labels")

    def __init__(self) -> None:
        self.children: Dict[int, "TrieNode"] = {}
        self.terminal: Optional[Terminal] = None
        self._sorted_labels: Optional[List[int]] = None

    def freeze(self) -> None:
        """Cache sorted labels once construction finishes (build-once)."""
        self._sorted_labels = sorted(self.children)
        for child in self.children.values():
            child.freeze()

    @property
    def sorted_labels(self) -> List[int]:
        """Child labels in ascending order."""
        if self._sorted_labels is None:
            return sorted(self.children)
        return self._sorted_labels


def pruned_depths(sorted_keys: Sequence[bytes],
                  lcps: Optional[Sequence[int]] = None) -> List[int]:
    """Pruned-prefix length (in bytes) for each key of a sorted unique list.

    A key's pruned depth is one byte past its longest common prefix with
    either neighbor, capped at the key's own length (keys that are prefixes
    of other keys terminate at internal nodes).  Each adjacent common
    prefix is measured once (``lcps``, :func:`common_prefix_lens` of the
    keys, when the caller already holds them) and serves both keys it
    separates.
    """
    if lcps is None:
        lcps = common_prefix_lens(sorted_keys)
    # Past both ends the common prefix is 0.
    return [min(len(key), (left if left > right else right) + 1)
            for key, left, right in zip(sorted_keys, [0, *lcps], [*lcps, 0])]


#: A pruned trie's terminal list and its keys' adjacent common prefixes:
#: ``(prefixes, payloads, lcps)``, as :func:`prune` returns them.
Pruned = Tuple[List[bytes], List[int], List[int]]


def prune(sorted_keys: Sequence[bytes], scheme: SuffixScheme) -> Pruned:
    """The pruned trie as its terminal list, plus the LCPs it was cut by.

    Key ``i`` cut to its pruned depth, and its suffix payload there; the
    prefixes come out strictly increasing, as both backends'
    ``from_terminals`` require.  Adjacent prefixes share exactly their
    keys' common prefix (each prefix is at least that long), so the
    ``lcps`` measured once here serve the LOUDS build too.
    ``sorted_keys`` must be sorted and duplicate-free (the SSTable
    builder guarantees this); violations raise :class:`ConfigError`
    because a mis-sorted input would silently corrupt the pruning.
    """
    if not all(map(lt, sorted_keys, sorted_keys[1:])):
        raise ConfigError("keys must be sorted and unique for trie construction")
    lcps = common_prefix_lens(sorted_keys)
    depths = pruned_depths(sorted_keys, lcps)
    return ([key[:depth] for key, depth in zip(sorted_keys, depths)],
            scheme.payloads(sorted_keys, depths), lcps)


def pruned_terminals(sorted_keys: Sequence[bytes], scheme: SuffixScheme
                     ) -> Tuple[List[bytes], List[int]]:
    """The pruned trie as its terminal list: ``(prefixes, payloads)``
    (:func:`prune` without its LCPs)."""
    prefixes, payloads, _ = prune(sorted_keys, scheme)
    return prefixes, payloads


class TrieBackend:
    """Cursor-protocol view over the pruned trie (reference backend)."""

    backend_name = "trie"

    def __init__(self, root: TrieNode) -> None:
        self._root = root
        self._counts = _count_stats(root)

    @classmethod
    def build(cls, sorted_keys: Sequence[bytes], scheme: SuffixScheme,
              pruned: Optional[Pruned] = None) -> "TrieBackend":
        """Build from sorted unique keys (``pruned``: their :func:`prune`,
        when the caller already holds it)."""
        if pruned is None:
            pruned = prune(sorted_keys, scheme)
        return cls.from_terminals(pruned[0], pruned[1])

    @classmethod
    def from_terminals(cls, prefixes: Sequence[bytes],
                       payloads: Sequence[int]) -> "TrieBackend":
        """Insert a strictly increasing terminal list into a dict trie.

        A terminal is a prefix key exactly when the next prefix extends
        it: in sorted order every extension of a path follows it directly.
        """
        root = TrieNode()
        last = len(prefixes) - 1
        for i, prefix in enumerate(prefixes):
            node = root
            for byte in prefix:
                child = node.children.get(byte)
                if child is None:
                    child = node.children[byte] = TrieNode()
                node = child
            kind = (TerminalKind.PREFIX_KEY
                    if i < last and prefixes[i + 1].startswith(prefix)
                    else TerminalKind.LEAF)
            node.terminal = Terminal(kind, payloads[i])
        root.freeze()
        return cls(root)

    def terminals(self) -> Tuple[List[bytes], List[int]]:
        """The terminal list ``(prefixes, payloads)``, in sorted order.

        A depth-first walk over sorted labels: a node's own terminal
        precedes every terminal below it.
        """
        prefixes: List[bytes] = []
        payloads: List[int] = []
        stack = [(self._root, b"")]
        while stack:
            node, path = stack.pop()
            if node.terminal is not None:
                prefixes.append(path)
                payloads.append(node.terminal.payload)
            children = node.children
            for label in reversed(node.sorted_labels):
                stack.append((children[label], path + bytes((label,))))
        return prefixes, payloads

    # -------------------------------------------------------------- cursor API

    def root(self) -> TrieNode:
        """Root node reference."""
        return self._root

    def child(self, node: TrieNode, label: int) -> Optional[TrieNode]:
        """Child of ``node`` along ``label``, or None."""
        return node.children.get(label)

    def terminal(self, node: TrieNode) -> Optional[Terminal]:
        """Terminal record of ``node`` (leaf or prefix-key), or None."""
        return node.terminal

    def has_children(self, node: TrieNode) -> bool:
        """Whether ``node`` is internal."""
        return bool(node.children)

    def first_child_geq(self, node: TrieNode, label: int
                        ) -> Optional[Tuple[int, TrieNode]]:
        """Smallest child with label >= ``label``, or None."""
        labels = node.sorted_labels
        # Binary search over the small sorted label list.
        lo, hi = 0, len(labels)
        while lo < hi:
            mid = (lo + hi) // 2
            if labels[mid] < label:
                lo = mid + 1
            else:
                hi = mid
        if lo == len(labels):
            return None
        found = labels[lo]
        return found, node.children[found]

    #: The scalar queries are the cursor functions themselves: the
    #: reference that :class:`LoudsBackend`'s own kernels are held to.
    lookup = _cursor.lookup
    may_contain_range = _cursor.may_contain_range

    # ------------------------------------------------------------ batch lookup

    def lookup_many(self, keys: Sequence[bytes],
                    scheme: SuffixScheme) -> List[bool]:
        """De-virtualized batched point lookups over the dict trie.

        Sorted probes with shared-prefix path-stack resume, as in
        :meth:`LoudsBackend.lookup_many`, with the cursor protocol inlined
        to direct ``children.get``/``terminal`` attribute access.
        Verdicts are exactly the scalar loop's.
        """
        n = len(keys)
        verdicts = [False] * n
        matches = scheme.matcher()
        leaf_kind = TerminalKind.LEAF
        nodes = [self._root]
        prev = b""
        prev_len = 0
        top = 0  # == len(nodes) - 1, maintained across keys
        for i in sorted(range(n), key=keys.__getitem__):
            key = keys[i]
            key_len = len(key)
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
                del nodes[depth + 1:]
            node = nodes[depth]
            verdict = False
            while True:
                term = node.terminal
                if depth == key_len:
                    verdict = (term is not None
                               and matches(key, depth, term.payload))
                    break
                if term is not None and term.kind is leaf_kind:
                    verdict = matches(key, depth, term.payload)
                    break
                nxt = node.children.get(key[depth])
                if nxt is None:
                    break
                node = nxt
                depth += 1
                nodes.append(node)
            verdicts[i] = verdict
            prev = key
            prev_len = key_len
            top = depth
        return verdicts

    # ------------------------------------------------------------------ sizing

    def memory_bits(self, suffix_bits: int) -> int:
        """Estimated size of the equivalent succinct encoding.

        The dict-of-dicts layout exists for speed; for space reporting we
        charge the LOUDS-Sparse cost the same trie would occupy: 10 bits
        per label (8-bit label + HasChild + LOUDS) plus the suffix payload
        per terminal.  The LOUDS backend reports its measured size instead.
        """
        labels, terminals = self._counts
        return 10 * labels + suffix_bits * terminals

    @property
    def num_terminals(self) -> int:
        """Number of stored (pruned) keys."""
        return self._counts[1]


def _count_stats(root: TrieNode) -> Tuple[int, int]:
    """(total labels/edges, total terminals) of the trie."""
    labels = 0
    terminals = 0
    stack = [root]
    while stack:
        node = stack.pop()
        labels += len(node.children)
        if node.terminal is not None:
            terminals += 1
        stack.extend(node.children.values())
    return labels, terminals
