"""Shared primitives: errors, key codecs, seeded RNG, histograms."""

from repro.common.errors import (
    AttackError,
    CompactionError,
    ConfigError,
    CorruptionError,
    DBClosedError,
    FileNotFoundInStoreError,
    FilterError,
    LearningError,
    LSMError,
    ReadOutOfBoundsError,
    ReproError,
    ServiceError,
    StorageError,
)
from repro.common.histogram import Bucket, Histogram, derive_cutoff
from repro.common.keys import (
    ALPHABET_SIZE,
    common_prefix_len,
    int_to_key,
    key_to_int,
    sha1_key,
    suffix_space_size,
)
from repro.common.rng import SeededRng, make_rng

__all__ = [
    "ALPHABET_SIZE",
    "AttackError",
    "Bucket",
    "CompactionError",
    "ConfigError",
    "CorruptionError",
    "DBClosedError",
    "FileNotFoundInStoreError",
    "FilterError",
    "Histogram",
    "LearningError",
    "LSMError",
    "ReadOutOfBoundsError",
    "ReproError",
    "SeededRng",
    "ServiceError",
    "StorageError",
    "common_prefix_len",
    "derive_cutoff",
    "int_to_key",
    "key_to_int",
    "make_rng",
    "sha1_key",
    "suffix_space_size",
]
