"""Public SuRF facade: variants, backends, and the LSM filter builder."""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

from repro.common.errors import ConfigError
from repro.filters.base import FilterBuilder, RangeFilter
from repro.filters.surf.louds import LoudsBackend
from repro.filters.surf.suffix import SuffixScheme, SurfVariant
from repro.filters.surf.trie import Pruned, TrieBackend, prune


class SuRF(RangeFilter):
    """Succinct Range Filter (paper section 6.1).

    Immutable: built once from the sorted keys of an SSTable, as the
    succinct LOUDS-DENSE/SPARSE encoding (``backend="louds"``, the one
    every product path builds).  ``backend="trie"`` selects the reference
    dict-trie that the backend-diff tests and the ``ablation-backend``
    experiment compare LOUDS with; no query answer depends on the choice.
    """

    def __init__(self, backend, scheme: SuffixScheme, num_keys: int) -> None:
        super().__init__()
        self._backend = backend
        self.scheme = scheme
        self.num_keys = num_keys
        self.name = f"surf-{scheme.label}[{backend.backend_name}]"

    @classmethod
    def build(cls, sorted_keys: Sequence[bytes],
              variant: Union[SurfVariant, str] = SurfVariant.REAL,
              suffix_bits: int = 8,
              backend: str = "louds",
              num_dense_levels: Optional[int] = None,
              pruned: Optional[Pruned] = None) -> "SuRF":
        """Build a SuRF over sorted unique keys.

        ``pruned`` is the keys' :func:`~repro.filters.surf.trie.prune`,
        when the caller already holds it (``SuRFBuilder.build_block``).
        """
        if isinstance(variant, str):
            variant = SurfVariant(variant)
        scheme = SuffixScheme(variant, suffix_bits)
        if backend == "trie":
            built = TrieBackend.build(sorted_keys, scheme, pruned=pruned)
        elif backend == "louds":
            built = LoudsBackend.build(sorted_keys, scheme,
                                       num_dense_levels=num_dense_levels,
                                       pruned=pruned)
        else:
            raise ConfigError(f"unknown SuRF backend {backend!r}")
        return cls(built, scheme, len(sorted_keys))

    @property
    def variant(self) -> SurfVariant:
        """Which SuRF variant this filter is."""
        return self.scheme.variant

    @property
    def backend(self):
        """The underlying cursor backend (tests, attack oracle)."""
        return self._backend

    def _may_contain(self, key: bytes) -> bool:
        return self._backend.lookup(key, self.scheme)

    def _may_contain_many(self, keys: Sequence[bytes]) -> List[bool]:
        """Sorted batch with shared-prefix cursor reuse.

        Each backend supplies its own de-virtualized traversal; both
        return exactly the scalar loop's verdicts.
        """
        return self._backend.lookup_many(list(keys), self.scheme)

    def _may_contain_range(self, low: bytes, high: bytes) -> bool:
        return self._backend.may_contain_range(low, high)

    def memory_bits(self) -> int:
        """Succinct size (measured for louds, estimated for the trie)."""
        return self._backend.memory_bits(self.scheme.num_bits)


class SuRFBuilder(FilterBuilder):
    """Builds one SuRF per SSTable — the paper's RocksDB+SuRF configuration."""

    def __init__(self, variant: Union[SurfVariant, str] = SurfVariant.REAL,
                 suffix_bits: int = 8, backend: str = "louds") -> None:
        if isinstance(variant, str):
            variant = SurfVariant(variant)
        # Validate eagerly so a bad configuration fails at setup time.
        self._scheme = SuffixScheme(variant, suffix_bits)
        self.variant = variant
        self.suffix_bits = self._scheme.num_bits
        self.backend = backend
        if backend not in ("trie", "louds"):
            raise ConfigError(f"unknown SuRF backend {backend!r}")

    @property
    def name(self) -> str:
        return f"surf-{self._scheme.label}[{self.backend}]"

    def build(self, sorted_keys: Sequence[bytes],
              pruned: Optional[Pruned] = None) -> SuRF:
        """Build over ``sorted_keys`` (``pruned``: as in :meth:`SuRF.build`)."""
        return SuRF.build(sorted_keys, variant=self.variant,
                          suffix_bits=self.suffix_bits, backend=self.backend,
                          pruned=pruned)

    def build_block(self, sorted_keys: Sequence[bytes]
                    ) -> Tuple[SuRF, bytes]:
        """Prune once; build from the terminal list and write the filter
        block from the same list (``serialize_filter``'s bytes, without
        reading the list back out of the built backend)."""
        from repro.filters.serialize import encode_surf_block
        pruned = prune(sorted_keys, self._scheme)
        filt = self.build(sorted_keys, pruned)
        return filt, encode_surf_block(filt, pruned[0], pruned[1])
