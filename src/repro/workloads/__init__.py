"""Workloads: key generators and experiment dataset construction."""

from repro.workloads.datasets import (
    ATTACKER_USER,
    OWNER_USER,
    DatasetConfig,
    Environment,
    build_environment,
)
from repro.workloads.keygen import (
    StringKeyGenerator,
    cluster_prefixes,
    clustered_dataset,
    sha1_dataset,
)

__all__ = [
    "ATTACKER_USER",
    "DatasetConfig",
    "Environment",
    "OWNER_USER",
    "StringKeyGenerator",
    "build_environment",
    "cluster_prefixes",
    "clustered_dataset",
    "sha1_dataset",
]
