"""SSTable block encoding tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigError, CorruptionError
from repro.lsm.block import Block, BlockBuilder, encode_record
from repro.lsm.memtable import TOMBSTONE, Entry


def build_block(items):
    builder = BlockBuilder(1 << 20)
    for key, entry in items:
        builder.add(key, entry)
    return Block(builder.finish())


class TestRoundTrip:
    def test_values_and_tombstones(self):
        block = build_block([
            (b"a", Entry(b"va")),
            (b"b", TOMBSTONE),
            (b"c", Entry(b"")),
        ])
        assert block.get(b"a").value == b"va"
        assert block.get(b"b").is_tombstone
        assert block.get(b"c").value == b""
        assert block.get(b"d") is None
        assert len(block) == 3

    def test_items_in_order(self):
        items = [(bytes([i]), Entry(bytes([i]) * 3)) for i in range(50)]
        block = build_block(items)
        assert list(block.items()) == items

    def test_lower_bound(self):
        block = build_block([(b"b", Entry(b"1")), (b"d", Entry(b"2"))])
        assert block.lower_bound(b"a") == 0
        assert block.lower_bound(b"b") == 0
        assert block.lower_bound(b"c") == 1
        assert block.lower_bound(b"e") == 2


class TestBuilderContract:
    def test_out_of_order_rejected(self):
        builder = BlockBuilder(1024)
        builder.add(b"b", Entry(b"v"))
        with pytest.raises(ConfigError):
            builder.add(b"a", Entry(b"v"))
        with pytest.raises(ConfigError):
            builder.add(b"b", Entry(b"v"))

    def test_is_full(self):
        builder = BlockBuilder(64)
        assert not builder.is_full
        builder.add(b"k", Entry(b"x" * 100))
        assert builder.is_full

    def test_empty_key_rejected(self):
        with pytest.raises(ConfigError):
            encode_record(b"", Entry(b"v"))

    def test_oversized_key_rejected(self):
        with pytest.raises(ConfigError):
            encode_record(b"x" * 70_000, Entry(b"v"))


class TestCorruption:
    def test_too_small(self):
        with pytest.raises(CorruptionError):
            Block(b"\x01")

    def test_bogus_count(self):
        with pytest.raises(CorruptionError):
            Block(b"\x00\x00" + (1 << 20).to_bytes(4, "little"))

    def test_record_index_bounds(self):
        block = build_block([(b"a", Entry(b"v"))])
        with pytest.raises(CorruptionError):
            block.record_at(1)


@given(st.dictionaries(st.binary(min_size=1, max_size=8),
                       st.one_of(st.none(), st.binary(max_size=20)),
                       min_size=1, max_size=60))
@settings(max_examples=60)
def test_round_trip_property(model):
    items = [(k, TOMBSTONE if v is None else Entry(v))
             for k, v in sorted(model.items())]
    block = build_block(items)
    for key, entry in items:
        got = block.get(key)
        assert got is not None
        assert got.is_tombstone == entry.is_tombstone
        assert got.value == entry.value


@given(st.dictionaries(st.binary(min_size=1, max_size=300),
                       st.one_of(st.none(), st.binary(max_size=20)),
                       max_size=60),
       st.booleans())
@settings(max_examples=60)
def test_one_pass_key_memo_equals_key_at(model, as_view):
    builder = BlockBuilder(1 << 20)
    for key, value in sorted(model.items()):
        builder.add(key, TOMBSTONE if value is None else Entry(value))
    data = builder.finish()
    block = Block(memoryview(data) if as_view else data)
    expected = [block.key_at(index) for index in range(len(block))]
    block._materialize_keys()
    assert block._keys == expected
    assert all(type(key) is bytes for key in block._keys)
    assert block._key_index == {key: i for i, key in enumerate(expected)}


class TestChecksums:
    def test_bit_flip_detected(self):
        builder = BlockBuilder(1024)
        builder.add(b"key", Entry(b"value"))
        raw = bytearray(builder.finish())
        raw[2] ^= 0x01
        with pytest.raises(CorruptionError):
            Block(bytes(raw))

    def test_truncation_detected(self):
        builder = BlockBuilder(1024)
        builder.add(b"key", Entry(b"value"))
        raw = builder.finish()
        with pytest.raises(CorruptionError):
            Block(raw[:-1])

    def test_intact_block_passes(self):
        builder = BlockBuilder(1024)
        builder.add(b"key", Entry(b"value"))
        assert Block(builder.finish()).get(b"key").value == b"value"
