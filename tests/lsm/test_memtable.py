"""Memtable tests (a dict plus a sorted key list; live and frozen)."""

import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigError
from repro.common.rng import make_rng
from repro.lsm.memtable import MemTable


class TestPutGet:
    def test_put_then_get(self):
        table = MemTable()
        table.put(b"k1", b"v1")
        assert table.get(b"k1").value == b"v1"

    def test_missing_key(self):
        assert MemTable().get(b"nope") is None

    def test_overwrite(self):
        table = MemTable()
        table.put(b"k", b"v1")
        table.put(b"k", b"v2")
        assert table.get(b"k").value == b"v2"
        assert len(table) == 1

    def test_empty_key_rejected(self):
        with pytest.raises(ConfigError):
            MemTable().put(b"", b"v")

    def test_put_none_rejected(self):
        with pytest.raises(ConfigError):
            MemTable().put(b"k", None)


class TestTombstones:
    def test_delete_records_tombstone(self):
        table = MemTable()
        table.put(b"k", b"v")
        table.delete(b"k")
        entry = table.get(b"k")
        assert entry is not None and entry.is_tombstone

    def test_delete_of_absent_key_still_recorded(self):
        # Tombstones must shadow older levels even without a local value.
        table = MemTable()
        table.delete(b"k")
        assert table.get(b"k").is_tombstone


class TestOrderedIteration:
    def test_items_sorted(self):
        table = MemTable()
        rng = make_rng(4, "mt")
        keys = [rng.random_bytes(4) for _ in range(500)]
        for i, key in enumerate(keys):
            table.put(key, str(i).encode())
        out = [k for k, _ in table.items()]
        assert out == sorted(set(keys))

    def test_items_from(self):
        table = MemTable()
        for b in (1, 3, 5, 7):
            table.put(bytes([b]), b"v")
        assert [k for k, _ in table.items_from(bytes([4]))] == [
            bytes([5]), bytes([7])]

    def test_items_from_past_end(self):
        table = MemTable()
        table.put(b"a", b"v")
        assert list(table.items_from(b"z")) == []


class TestSizeAccounting:
    def test_bytes_grow_with_inserts(self):
        table = MemTable()
        before = table.approximate_bytes
        table.put(b"key", b"x" * 100)
        assert table.approximate_bytes > before + 100

    def test_overwrite_adjusts_bytes(self):
        table = MemTable()
        table.put(b"key", b"x" * 100)
        size_large = table.approximate_bytes
        table.put(b"key", b"x")
        assert table.approximate_bytes < size_large

    def test_bytes_match_the_skip_list_it_replaced(self):
        # Flushes trigger on approximate_bytes, so every flush lands on
        # the same record only if the accounting is unchanged: the
        # golden sequence was recorded from the skip-list memtable at
        # 7df0892 running this script.
        table = MemTable()
        seen = []
        for step in (
                lambda: table.put(b"a", b"1"),
                lambda: table.put(b"bb", b"22" * 5),
                lambda: table.put(b"a", b"longer-value"),
                lambda: table.delete(b"a"),
                lambda: table.delete(b"zz"),
                lambda: table.put(b"zz", b"back"),
                lambda: table.put(b"bb", b""),
                lambda: table.put_many([(b"c", b"x"), (b"a", None),
                                        (b"d", None), (b"c", b"yyy")]),
                lambda: table.delete(b"bb"),
                lambda: table.put(b"a", b"again")):
            step()
            seen.append(table.approximate_bytes)
        assert seen == [18, 46, 57, 45, 63, 67, 57, 94, 94, 99]
        assert len(table) == 5


class TestFrozenCopy:
    def test_copy_is_unaffected_by_later_writes(self):
        table = MemTable()
        table.put(b"a", b"1")
        table.delete(b"b")
        frozen = table.copy()
        table.put(b"a", b"2")
        table.put(b"c", b"3")
        table.put(b"b", b"back")
        assert frozen.get(b"a").value == b"1"
        assert frozen.get(b"b").is_tombstone
        assert frozen.get(b"c") is None
        assert [k for k, _ in frozen.items_from(b"")] == [b"a", b"b"]
        assert len(frozen) == 2
        assert frozen.approximate_bytes < table.approximate_bytes
        # ... and the other way round.
        frozen.put(b"z", b"9")
        assert table.get(b"z") is None


class TestReaderRacesWriter:
    def test_items_from_while_a_writer_inserts(self):
        # Readers take no lock (a range read walks the live memtable
        # while the serving thread inserts): whatever the interleaving,
        # a walk is sorted, starts at its bound, and every key it yields
        # resolves to an entry.
        table = MemTable()
        rng = make_rng(9, "mt-race")
        keys = [rng.random_bytes(3) for _ in range(6000)]
        low = b"\x40"
        failures = []
        done = threading.Event()

        def reader():
            try:
                while not done.is_set():
                    walked = list(table.items_from(low))
                    got = [key for key, _ in walked]
                    if got != sorted(got) or (got and got[0] < low):
                        failures.append("unsorted or below the bound")
                    if any(entry is None for _, entry in walked):
                        failures.append("listed key without an entry")
            except Exception as exc:  # the assertion below reports it
                failures.append(repr(exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            readers = [threading.Thread(target=reader) for _ in range(3)]
            for thread in readers:
                thread.start()
            for key in keys:
                table.put(key, key)
            done.set()
            for thread in readers:
                thread.join(timeout=30.0)
                assert not thread.is_alive()
        finally:
            done.set()
            sys.setswitchinterval(interval)
        assert failures == []
        assert [k for k, _ in table.items()] == sorted(set(keys))


@given(st.dictionaries(st.binary(min_size=1, max_size=6),
                       st.binary(max_size=10), max_size=80))
@settings(max_examples=60)
def test_matches_dict_model(model):
    table = MemTable()
    for key, value in model.items():
        table.put(key, value)
    assert len(table) == len(model)
    for key, value in model.items():
        assert table.get(key).value == value
    assert [k for k, _ in table.items()] == sorted(model)


@given(st.lists(st.tuples(st.binary(min_size=1, max_size=3),
                          st.one_of(st.none(), st.binary(max_size=6))),
                max_size=60),
       st.binary(max_size=3))
@settings(max_examples=60)
def test_items_from_matches_sorted_model(writes, low):
    # Interleaved overwrites and tombstones: the last write per key wins
    # and the walk is the model's sorted tail.
    table = MemTable()
    model = {}
    for key, value in writes:
        if value is None:
            table.delete(key)
        else:
            table.put(key, value)
        model[key] = value
    assert [(k, e.value) for k, e in table.items_from(low)] == [
        (k, model[k]) for k in sorted(model) if k >= low]
