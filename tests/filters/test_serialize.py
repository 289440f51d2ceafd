"""Filter-block serialization tests: exact behavioural round trips."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import CorruptionError, FilterError
from repro.common.rng import make_rng
from repro.filters import (
    BloomFilter,
    BloomFilterBuilder,
    PrefixBloomFilter,
    PrefixBloomFilterBuilder,
    RosettaFilter,
    RosettaFilterBuilder,
    SplitFilterBuilder,
    SuRF,
)
from repro.filters.serialize import deserialize_filter, serialize_filter


@pytest.fixture(scope="module")
def keys():
    rng = make_rng(44, "ser-keys")
    return sorted({rng.random_bytes(4) for _ in range(900)})


@pytest.fixture(scope="module")
def probes():
    rng = make_rng(45, "ser-probes")
    return [rng.random_bytes(rng.randint(1, 5)) for _ in range(3000)]


#: Bloom-family filter blocks, and where their (first) Bloom header
#: starts: tag | [PBF ``<HBQ`` | Rosetta ``<HQI`` | split ``<I`` + tag]
#: then ``<IQQ`` probes, bits, entries.
BLOOM_FAMILY = {
    "bloom": (lambda keys: BloomFilterBuilder(10).build(keys), 1),
    "pbf": (lambda keys: PrefixBloomFilterBuilder(2, 18.0).build(keys), 12),
    "rosetta": (lambda keys: RosettaFilterBuilder(4, 2.0).build(keys), 15),
    "split": (lambda keys: SplitFilterBuilder().build(keys), 6),
}

#: Header fields no builder writes: (Bloom header offset, format, value).
BLOOM_HEADER_FAULTS = {
    "no-probes": (0, "<I", 0),
    "bits-below-64": (4, "<Q", 32),
}


def assert_same_point_answers(a, b, probes):
    assert [a.may_contain(p) for p in probes] == [
        b.may_contain(p) for p in probes]


class TestBloomRoundTrip:
    def test_answers_identical(self, keys, probes):
        filt = BloomFilter.for_entries(len(keys), 10)
        for key in keys:
            filt.add(key)
        restored = deserialize_filter(serialize_filter(filt))
        assert_same_point_answers(filt, restored, probes)
        assert restored.num_entries == filt.num_entries
        assert restored.num_probes == filt.num_probes


class TestPbfRoundTrip:
    @pytest.mark.parametrize("whole_key", [True, False])
    def test_answers_identical(self, keys, probes, whole_key):
        filt = PrefixBloomFilter.for_entries(len(keys), 18.0, 2, whole_key)
        for key in keys:
            filt.add(key)
        restored = deserialize_filter(serialize_filter(filt))
        assert restored.prefix_len == 2
        assert restored.whole_key_filtering == whole_key
        assert_same_point_answers(filt, restored, probes)


class TestSurfRoundTrip:
    @pytest.mark.parametrize("variant,backend", [
        ("base", "trie"), ("real", "trie"), ("hash", "trie"),
        ("real", "louds"),
    ])
    def test_point_and_range_identical(self, keys, probes, variant, backend):
        filt = SuRF.build(keys, variant=variant, backend=backend)
        restored = deserialize_filter(serialize_filter(filt))
        assert type(restored.backend).__name__ == type(filt.backend).__name__
        assert restored.variant == filt.variant
        assert_same_point_answers(filt, restored, probes)
        rng = make_rng(46, "ranges")
        for _ in range(300):
            low = rng.random_bytes(3)
            high = low + rng.random_bytes(1)
            assert (filt.may_contain_range(low, high)
                    == restored.may_contain_range(low, high))

    def test_prefix_keys_survive(self):
        keys = sorted([b"ab", b"abc", b"abcd", b"x"])
        filt = SuRF.build(keys, variant="real")
        restored = deserialize_filter(serialize_filter(filt))
        for key in keys:
            assert restored.may_contain(key)

    @given(key_set=st.sets(st.binary(min_size=1, max_size=5),
                           min_size=1, max_size=40),
           probe=st.binary(min_size=0, max_size=6))
    @settings(max_examples=80)
    def test_round_trip_property(self, key_set, probe):
        filt = SuRF.build(sorted(key_set), variant="real")
        restored = deserialize_filter(serialize_filter(filt))
        assert filt.may_contain(probe) == restored.may_contain(probe)


class TestRosettaRoundTrip:
    def test_answers_identical(self, keys):
        filt = RosettaFilter(4, len(keys), 4.0)
        for key in keys:
            filt.add(key)
        restored = deserialize_filter(serialize_filter(filt))
        rng = make_rng(47, "ro-probes")
        four = [rng.random_bytes(4) for _ in range(2000)]
        assert_same_point_answers(filt, restored, four)
        lo, hi = sorted((rng.random_bytes(4), rng.random_bytes(4)))
        assert (filt.may_contain_range(lo, hi)
                == restored.may_contain_range(lo, hi))


class TestErrors:
    def test_empty_block(self):
        with pytest.raises(CorruptionError):
            deserialize_filter(b"")

    def test_unknown_tag(self):
        with pytest.raises(CorruptionError):
            deserialize_filter(b"\x99payload")

    def test_truncated_payload(self, keys):
        filt = BloomFilter.for_entries(len(keys), 10)
        data = serialize_filter(filt)
        with pytest.raises(CorruptionError):
            deserialize_filter(data[: len(data) // 2])

    def test_trailing_garbage(self, keys):
        filt = BloomFilter.for_entries(len(keys), 10)
        with pytest.raises(CorruptionError):
            deserialize_filter(serialize_filter(filt) + b"extra")

    @pytest.mark.parametrize("offset,value", [(2, 200), (3, 7)])
    def test_bad_surf_header_is_corruption(self, keys, offset, value):
        # Suffix bits out of range (was ConfigError) and an unknown backend
        # code (was silently decoded as LOUDS) are both corrupt blocks.
        data = bytearray(serialize_filter(
            SuRF.build(keys, variant="real", backend="louds")))
        assert bytes(data[:4]) == b"\x03\x02\x08\x01"
        data[offset] = value
        with pytest.raises(CorruptionError):
            deserialize_filter(bytes(data))

    @pytest.mark.parametrize("fault", sorted(BLOOM_HEADER_FAULTS))
    @pytest.mark.parametrize("family", sorted(BLOOM_FAMILY))
    def test_bad_bloom_header_is_corruption(self, keys, family, fault):
        # Regression: a probe count of 0 raised ConfigError from the
        # BloomFilter constructor, a bit count below the 64-bit floor
        # ConfigError from restore_bits, in every Bloom-family block.
        build, header = BLOOM_FAMILY[family]
        offset, fmt, value = BLOOM_HEADER_FAULTS[fault]
        data = bytearray(serialize_filter(build(keys)))
        struct.pack_into(fmt, data, header + offset, value)
        with pytest.raises(CorruptionError):
            deserialize_filter(bytes(data))

    @pytest.mark.parametrize("fmt,offset,value", [
        ("<H", 1, 0),   # prefix length 0 (was ConfigError)
        ("<B", 3, 2),   # mode byte neither 0 nor 1 (was read as True)
    ])
    def test_bad_pbf_header_is_corruption(self, keys, fmt, offset, value):
        data = bytearray(serialize_filter(BLOOM_FAMILY["pbf"][0](keys)))
        struct.pack_into(fmt, data, offset, value)
        with pytest.raises(CorruptionError):
            deserialize_filter(bytes(data))

    def test_rosetta_levels_sized_apart_are_corruption(self, keys):
        # Every level of a built Rosetta has one size and probe count; a
        # level that differs decoded silently into other verdicts.
        data = bytearray(serialize_filter(BLOOM_FAMILY["rosetta"][0](keys)))
        (probes,) = struct.unpack_from("<I", data, 15)
        struct.pack_into("<I", data, 15, probes + 1)
        with pytest.raises(CorruptionError):
            deserialize_filter(bytes(data))

    @pytest.mark.parametrize("backend", ["trie", "louds"])
    @pytest.mark.parametrize("records", [
        [b"b", b"a"],      # out of order
        [b"a", b"a"],      # duplicate
        [b"ab", b"a"],     # a prefix after its extension
    ])
    def test_unsorted_surf_terminals_are_corruption(self, backend, records):
        filt = SuRF.build(sorted(set(records)), variant="real",
                          backend=backend)
        data = serialize_filter(filt)
        # tag, variant, bits, backend | u32 count | u32 num_keys | records
        body = b"".join(struct.pack("<HQ", len(prefix), 0) + prefix
                        for prefix in records)
        forged = (data[:4] + struct.pack("<I", len(records)) + data[8:12]
                  + body)
        with pytest.raises(CorruptionError):
            deserialize_filter(forged)

    def test_unsupported_filter(self):
        class Strange:
            pass
        with pytest.raises(FilterError):
            serialize_filter(Strange())


class TestPersistenceThroughSSTable:
    def test_reopen_loads_filter_block_without_key_scan(self):
        from repro.filters.surf import SuRFBuilder
        from repro.lsm.db import LSMTree
        from repro.lsm.options import LSMOptions
        opts = LSMOptions(filter_builder=SuRFBuilder(variant="real"))
        db = LSMTree(opts)
        rng = make_rng(48, "persist")
        stored = {}
        for _ in range(3000):
            key = rng.random_bytes(5)
            db.put(key, key[::-1])
            stored[key] = key[::-1]
        db.flush()
        # Reopen WITHOUT a filter builder: filters must come from blocks.
        reopened = LSMTree.reopen(db.device, LSMOptions(filter_builder=None))
        tables = list(reopened.version.all_tables())
        assert tables and all(t.filter is not None for t in tables)
        # Same attack-relevant behaviour: identical filter decisions.
        for _ in range(500):
            probe = rng.random_bytes(5)
            assert reopened.filters_pass(probe) == db.filters_pass(probe)
        for key, value in list(stored.items())[::211]:
            assert reopened.get(key) == value

    @pytest.mark.parametrize("builder", [
        BloomFilterBuilder(10),
        PrefixBloomFilterBuilder(2, 18.0),
        PrefixBloomFilterBuilder(2, 18.0, whole_key_filtering=False),
    ], ids=["bloom", "pbf", "pbf-prefix-only"])
    def test_reopen_rebuilds_the_block_the_writer_would_have(self, builder):
        # A table written with no filter builder, reopened with one:
        # recovery rebuilds the filter from the table's keys (tombstones
        # included), byte for byte the block the table writer writes.
        from repro.lsm.db import LSMTree
        from repro.lsm.options import LSMOptions
        from repro.lsm.table_build import build_table_artifact
        db = LSMTree(LSMOptions(filter_builder=None))
        rng = make_rng(49, "rebuild")
        records = {}
        for _ in range(1500):
            key = rng.random_bytes(rng.randint(1, 6))
            db.put(key, key[::-1])
            records[key] = key[::-1]
        for key in sorted(records)[::7]:
            db.delete(key)
            records[key] = None
        db.flush()
        (written,) = db.version.all_tables()
        assert written.filter is None
        reopened = LSMTree.reopen(db.device, LSMOptions(filter_builder=builder))
        (table,) = reopened.version.all_tables()
        artifact = build_table_artifact(sorted(records.items()),
                                        reopened.options.block_size_bytes,
                                        builder)
        assert serialize_filter(table.filter) == serialize_filter(
            artifact.filter)
