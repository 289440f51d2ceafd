"""Merging iterator tests."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lsm.iterator import merge_entries
from repro.lsm.memtable import TOMBSTONE, Entry


def test_merges_sorted_streams():
    a = [(b"a", Entry(b"1")), (b"c", Entry(b"3"))]
    b = [(b"b", Entry(b"2")), (b"d", Entry(b"4"))]
    merged = list(merge_entries([a, b]))
    assert [k for k, _ in merged] == [b"a", b"b", b"c", b"d"]


def test_newest_wins_on_duplicates():
    new = [(b"k", Entry(b"new"))]
    old = [(b"k", Entry(b"old"))]
    merged = list(merge_entries([new, old]))
    assert merged == [(b"k", Entry(b"new"))]


def test_tombstone_shadows_value():
    new = [(b"k", TOMBSTONE)]
    old = [(b"k", Entry(b"old"))]
    (key, entry), = merge_entries([new, old])
    assert entry.is_tombstone


def test_empty_sources():
    assert list(merge_entries([])) == []
    assert list(merge_entries([[], []])) == []


def test_three_way_precedence():
    s0 = [(b"k", Entry(b"v0"))]
    s1 = [(b"k", Entry(b"v1"))]
    s2 = [(b"k", Entry(b"v2")), (b"z", Entry(b"z2"))]
    merged = dict(merge_entries([s0, s1, s2]))
    assert merged[b"k"].value == b"v0"
    assert merged[b"z"].value == b"z2"


@given(st.lists(st.dictionaries(st.binary(min_size=1, max_size=4),
                                st.binary(max_size=4), max_size=30),
                min_size=1, max_size=5))
@settings(max_examples=60)
def test_matches_dict_union_semantics(layers):
    # layers[0] is newest; dict union with reversed order models shadowing.
    sources = [sorted((k, Entry(v)) for k, v in layer.items())
               for layer in layers]
    expected = {}
    for layer in reversed(layers):
        expected.update(layer)
    merged = {k: e.value for k, e in merge_entries(sources)}
    assert merged == expected
    keys = [k for k, _ in merge_entries(sources)]
    assert keys == sorted(keys)


#: A run maps keys to a value or ``None`` (= delete); runs overlap freely.
_RUNS = st.lists(
    st.dictionaries(st.binary(min_size=1, max_size=4),
                    st.one_of(st.none(), st.binary(max_size=4)),
                    max_size=40),
    min_size=1, max_size=6)


@given(_RUNS)
@settings(max_examples=120)
def test_matches_dict_oracle_with_deletes(runs):
    """Merged stream ≡ the sorted dict-oracle stream, tombstones included.

    The oracle applies runs oldest-to-newest into one dict (``None``
    marking a deletion) — exactly the visibility rule the LSM read path
    implements.  The merge must surface every surviving key once, in
    sorted order, with the newest run's entry (a tombstone when the
    newest write was a delete — dropping it is the caller's business).
    """
    sources = [sorted((k, TOMBSTONE if v is None else Entry(v))
                      for k, v in run.items()) for run in runs]
    oracle = {}
    for run in reversed(runs):
        oracle.update(run)
    merged = list(merge_entries(sources))
    keys = [k for k, _ in merged]
    assert keys == sorted(oracle)
    got = {k: (None if e.is_tombstone else e.value) for k, e in merged}
    assert got == oracle


@given(_RUNS)
@settings(max_examples=60)
def test_pull_schedule_contract(runs):
    """One pull per source up front, then one refill per popped element.

    A range read's block reads, page-cache traffic and clock charges
    are this schedule, so the merge must never pull ahead or lag behind.
    """
    sources = [sorted((k, TOMBSTONE if v is None else Entry(v))
                      for k, v in run.items()) for run in runs]
    pulls = []

    def spy(index, items):
        for item in items:
            pulls.append(index)
            yield item
        pulls.append(index)  # the exhausting pull

    spied = [spy(i, items) for i, items in enumerate(sources)]
    total_elements = sum(len(items) for items in sources)
    consumed = 0
    for _ in merge_entries(spied):
        consumed += 1
    assert consumed == len({k for items in sources for k, _ in items})
    # Init pulls, in source order, happen first.
    assert pulls[:len(sources)] == list(range(len(sources)))
    # Then exactly one refill per element popped off the heap.
    assert len(pulls) == len(sources) + total_elements
