"""Key generator tests."""

from repro.workloads.keygen import (
    StringKeyGenerator,
    sha1_dataset,
)


class TestSha1Dataset:
    def test_sorted_unique_exact_count(self):
        keys = sha1_dataset(500, 5, seed=3)
        assert len(keys) == 500
        assert keys == sorted(set(keys))

    def test_deterministic(self):
        assert sha1_dataset(100, 5, seed=3) == sha1_dataset(100, 5, seed=3)

    def test_seed_changes_keys(self):
        assert sha1_dataset(100, 5, seed=3) != sha1_dataset(100, 5, seed=4)

    def test_subset_growth(self):
        # Figure 6 relies on smaller datasets being... independent draws
        # are fine, but counts must scale exactly.
        assert len(sha1_dataset(0, 5)) == 0
        assert len(sha1_dataset(1, 5)) == 1


class TestStringKeys:
    def test_shape(self):
        keys = StringKeyGenerator(seed=1).keys(100)
        assert len(keys) == 100
        for key in keys:
            bucket, _, rest = key.partition(b"/")
            assert rest and bucket

    def test_shared_bucket_prefixes(self):
        keys = StringKeyGenerator(seed=1).keys(200)
        buckets = {k.split(b"/")[0] for k in keys}
        assert len(buckets) < 10  # heavy prefix sharing, SuRF's sweet spot
