"""Seeded randomness helpers.

Every stochastic component of the reproduction (device latency noise, key
generation, attack guessing) draws from an explicitly seeded generator so
whole experiments replay bit-for-bit.  This module provides a tiny facade
over :mod:`random` that makes seeding uniform and spawning independent
sub-streams explicit.
"""

from __future__ import annotations

import hashlib
import random
from typing import Optional


class SeededRng:
    """A named, seeded random stream.

    Sub-streams derived via :meth:`spawn` are independent of the parent and
    of each other (keyed by name), so adding a new consumer of randomness
    never perturbs existing streams — a property the deterministic
    experiment harness relies on.
    """

    def __init__(self, seed: int, name: str = "root") -> None:
        self.seed = seed
        self.name = name
        digest = hashlib.sha256(f"{seed}/{name}".encode()).digest()
        self._random = random.Random(int.from_bytes(digest[:8], "big"))

    @property
    def generator(self) -> random.Random:
        """The underlying ``random.Random`` (for the point-read kernel's
        inline jitter draws, which share its ``gauss_next``)."""
        return self._random

    def spawn(self, name: str) -> "SeededRng":
        """Derive an independent child stream keyed by ``name``."""
        return SeededRng(self.seed, f"{self.name}/{name}")

    def random(self) -> float:
        """Uniform float in [0, 1)."""
        return self._random.random()

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in [low, high] inclusive."""
        return self._random.randint(low, high)

    def randrange(self, stop: int) -> int:
        """Uniform integer in [0, stop)."""
        return self._random.randrange(stop)

    def random_bytes(self, length: int) -> bytes:
        """Uniformly random byte string of ``length`` bytes."""
        return self._random.getrandbits(8 * length).to_bytes(length, "big") if length else b""

    def gauss(self, mu: float, sigma: float) -> float:
        """Gaussian sample."""
        return self._random.gauss(mu, sigma)

    def lognormvariate(self, mu: float, sigma: float) -> float:
        """Log-normal sample (natural-log parameters)."""
        return self._random.lognormvariate(mu, sigma)

    def expovariate(self, lambd: float) -> float:
        """Exponential sample with rate ``lambd``."""
        return self._random.expovariate(lambd)

    def choice(self, seq):
        """Uniform choice from a non-empty sequence."""
        return self._random.choice(seq)

    def shuffle(self, seq) -> None:
        """In-place Fisher-Yates shuffle."""
        self._random.shuffle(seq)

    def sample(self, population, k: int):
        """Sample ``k`` distinct elements."""
        return self._random.sample(population, k)


def make_rng(seed: Optional[int], name: str = "root") -> SeededRng:
    """Construct a :class:`SeededRng`, defaulting the seed to 0 when ``None``.

    A ``None`` seed deliberately maps to a fixed default rather than entropy:
    reproducibility is the default posture of this library, and callers who
    want variation pass distinct seeds.
    """
    return SeededRng(0 if seed is None else seed, name)
