"""Seeded RNG stream tests."""

from math import cos, log, sin, sqrt, tau
from typing import Callable, Tuple

from repro.common.rng import SeededRng, make_rng


def gauss_pair(uniform: Callable[[], float]) -> Tuple[float, float]:
    """Two standard normal deviates, exactly as ``random.Random.gauss``
    makes them, spelled as ``repro.lsm.read_path.read_points`` writes
    each of its jitter draws out inline.

    ``gauss`` draws two uniforms per *pair* of deviates (Box-Muller),
    returns the first and parks the second in the generator's
    ``gauss_next`` for the next call; this is that computation, operation
    for operation (the same in CPython 3.6 through 3.13).  A deviate
    becomes a ``gauss(mu, sigma)`` sample as ``mu + z * sigma``.
    """
    x2pi = uniform() * tau
    g2rad = sqrt(-2.0 * log(1.0 - uniform()))
    return cos(x2pi) * g2rad, sin(x2pi) * g2rad


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = SeededRng(5).random_bytes(16)
        b = SeededRng(5).random_bytes(16)
        assert a == b

    def test_different_seeds_differ(self):
        assert SeededRng(5).random_bytes(16) != SeededRng(6).random_bytes(16)

    def test_named_streams_differ(self):
        assert (SeededRng(5, "a").random_bytes(16)
                != SeededRng(5, "b").random_bytes(16))


class TestSpawn:
    def test_children_independent_of_parent_consumption(self):
        parent1 = SeededRng(7)
        parent2 = SeededRng(7)
        parent2.random()  # consuming the parent must not perturb children
        assert (parent1.spawn("x").random_bytes(8)
                == parent2.spawn("x").random_bytes(8))

    def test_children_differ_by_name(self):
        parent = SeededRng(7)
        assert (parent.spawn("x").random_bytes(8)
                != parent.spawn("y").random_bytes(8))


class TestHelpers:
    def test_random_bytes_length(self):
        rng = SeededRng(1)
        assert len(rng.random_bytes(0)) == 0
        assert len(rng.random_bytes(5)) == 5

    def test_randint_bounds(self):
        rng = SeededRng(1)
        values = {rng.randint(3, 5) for _ in range(200)}
        assert values == {3, 4, 5}

    def test_randrange_bounds(self):
        rng = SeededRng(1)
        assert all(0 <= rng.randrange(4) < 4 for _ in range(100))

    def test_make_rng_none_seed_is_fixed(self):
        assert make_rng(None).random_bytes(8) == make_rng(None).random_bytes(8)

    def test_shuffle_and_sample(self):
        rng = SeededRng(3)
        items = list(range(10))
        rng.shuffle(items)
        assert sorted(items) == list(range(10))
        assert len(rng.sample(range(10), 3)) == 3


class TestGaussPair:
    """The point-read kernel's inline jitter draw (``gauss_pair`` above,
    with the generator's ``gauss_next`` held in a local, and the clamp
    written as a conditional) against ``random.gauss`` and ``max``.

    Stdlib only, so it also runs on interpreters without pytest::

        PYTHONPATH=src:tests/common python3.X -c \\
            "import test_rng; test_rng.TestGaussPair().test_interleaved_draws_equal_gauss()"
    """

    DRAWS = 100_000

    def test_interleaved_draws_equal_gauss(self):
        jitter = 0.2
        kernel = SeededRng(11, "costs").generator
        reference = SeededRng(11, "costs").generator
        # Which side takes the next draw: the kernel's inline draw, or a
        # ``charge_cost`` call (plain ``gauss``) between two of them.
        schedule = SeededRng(12, "schedule")
        spare = kernel.gauss_next
        for _ in range(self.DRAWS):
            if schedule.random() < 0.3:
                kernel.gauss_next = spare
                drawn = kernel.gauss(1.0, jitter)
                spare = kernel.gauss_next
            else:
                if spare is None:
                    z, spare = gauss_pair(kernel.random)
                else:
                    z, spare = spare, None
                drawn = 1.0 + z * jitter
            expected = reference.gauss(1.0, jitter)
            assert drawn.hex() == expected.hex()
        kernel.gauss_next = spare
        assert kernel.getstate() == reference.getstate()

    def test_conditional_clamp_equals_max(self):
        below = 0.1 - 2 ** -56
        above = 0.1 + 2 ** -56
        for j in (-1.0, -0.0, 0.0, below, 0.1, above, 1.0, 5.0):
            assert (j if j > 0.1 else 0.1).hex() == max(0.1, j).hex()
