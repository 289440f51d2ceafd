"""Immutable Version / VersionEdit / VersionSet tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import CompactionError, LSMError
from repro.lsm.version import Version, VersionEdit, VersionSet


class FakeReader:
    def __init__(self):
        self.unmapped = False

    def unmap(self):
        self.unmapped = True


def fake_table(path, min_key, max_key, entries=10, size=1000):
    from repro.lsm.sstable import SSTable
    return SSTable(path=path, reader=FakeReader(), filter=None,
                   min_key=min_key, max_key=max_key,
                   num_entries=entries, size_bytes=size)


def flush_edit(table):
    return VersionEdit(0, [table], [])


def add_l0(version, table):
    return version.apply(flush_edit(table))


def install(version, level, added, removed=()):
    return version.apply(VersionEdit(level, added, removed))


class TestL0:
    def test_newest_first(self):
        v = Version(4)
        v = add_l0(v, fake_table("1", b"a", b"z"))
        v = add_l0(v, fake_table("2", b"a", b"z"))
        assert [t.path for t in v.levels[0]] == ["2", "1"]

    def test_candidates_include_all_covering_l0(self):
        v = Version(4)
        v = add_l0(v, fake_table("1", b"a", b"m"))
        v = add_l0(v, fake_table("2", b"k", b"z"))
        assert [t.path for t in v.candidates_for_key(b"l")] == ["2", "1"]
        assert [t.path for t in v.candidates_for_key(b"b")] == ["1"]


class TestImmutability:
    def test_apply_leaves_base_untouched(self):
        base = Version(4)
        successor = add_l0(base, fake_table("1", b"a", b"z"))
        assert base.levels[0] == ()
        assert [t.path for t in successor.levels[0]] == ["1"]

    def test_levels_are_tuples(self):
        v = install(Version(4), 1, [fake_table("a", b"a", b"f")])
        assert isinstance(v.levels, tuple)
        assert all(isinstance(tables, tuple) for tables in v.levels)

    def test_from_levels_preserves_l0_order(self):
        l0 = [fake_table("2", b"a", b"z"), fake_table("1", b"a", b"z")]
        v = Version.from_levels(4, [l0, [fake_table("d", b"a", b"m")]])
        assert [t.path for t in v.levels[0]] == ["2", "1"]
        assert [t.path for t in v.levels[1]] == ["d"]

    def test_from_levels_rejects_deep_overlap(self):
        with pytest.raises(LSMError):
            Version.from_levels(4, [[], [fake_table("a", b"a", b"m"),
                                         fake_table("b", b"k", b"z")]])


class TestDeepLevels:
    def test_binary_search_finds_covering_table(self):
        v = install(Version(4), 1, [fake_table("a", b"a", b"f"),
                                    fake_table("b", b"g", b"m"),
                                    fake_table("c", b"n", b"z")])
        assert [t.path for t in v.candidates_for_key(b"h")] == ["b"]
        assert [t.path for t in v.candidates_for_key(b"zz")] == []

    def test_gap_between_tables(self):
        v = install(Version(4), 1, [fake_table("a", b"a", b"c"),
                                    fake_table("b", b"x", b"z")])
        assert list(v.candidates_for_key(b"m")) == []

    def test_overlap_rejected(self):
        with pytest.raises(LSMError):
            install(Version(4), 1, [fake_table("a", b"a", b"m"),
                                    fake_table("b", b"k", b"z")])

    def test_install_removes_inputs(self):
        t0 = fake_table("old", b"a", b"z")
        v = add_l0(Version(4), t0)
        merged = fake_table("new", b"a", b"z")
        v = install(v, 1, [merged], [t0])
        assert v.levels[0] == ()
        assert [t.path for t in v.levels[1]] == ["new"]

    def test_search_correct_after_reinstall(self):
        v = install(Version(4), 1, [fake_table("a", b"a", b"c")])
        assert next(v.candidates_for_key(b"b")).path == "a"
        v = install(v, 1, [fake_table("b", b"d", b"f")])
        assert next(v.candidates_for_key(b"e")).path == "b"


class TestQueries:
    def test_overlapping(self):
        v = install(Version(4), 1, [fake_table("a", b"a", b"f"),
                                    fake_table("b", b"g", b"m")])
        assert [t.path for t in v.overlapping(1, b"e", b"h")] == ["a", "b"]
        assert v.overlapping(1, b"n", b"z") == []

    def test_stats(self):
        v = add_l0(Version(4), fake_table("1", b"a", b"z", entries=5, size=100))
        v = install(v, 2, [fake_table("2", b"a", b"z", entries=7, size=300)])
        assert v.total_tables() == 2
        assert v.level_bytes(2) == 300
        rows = v.describe()
        assert {r["level"] for r in rows} == {0, 2}

    def test_all_tables(self):
        v = add_l0(Version(4), fake_table("1", b"a", b"z"))
        v = install(v, 3, [fake_table("2", b"a", b"z")])
        assert [t.path for t in v.all_tables()] == ["1", "2"]


class TestVersionSet:
    def test_install_updates_current(self):
        vs = VersionSet(Version(4))
        table = fake_table("1", b"a", b"z")
        vs.install(flush_edit(table))
        assert [t.path for t in vs.current.levels[0]] == ["1"]

    def test_unpinned_replaced_table_retires_immediately(self):
        t0 = fake_table("old", b"a", b"z")
        vs = VersionSet(Version(4))
        vs.install(flush_edit(t0))
        vs.install(VersionEdit(
            1, [fake_table("new", b"a", b"z")], [t0]))
        assert [t.path for t in vs.drain_retired()] == ["old"]

    def test_pinned_version_defers_retirement(self):
        t0 = fake_table("old", b"a", b"z")
        vs = VersionSet(Version(4))
        vs.install(flush_edit(t0))
        pinned = vs.pin()
        vs.install(VersionEdit(
            1, [fake_table("new", b"a", b"z")], [t0]))
        # The pinned version still references "old": no retirement yet.
        assert vs.drain_retired() == []
        assert vs.table_ref("old") == 1
        vs.unpin(pinned)
        assert [t.path for t in vs.drain_retired()] == ["old"]

    def test_table_shared_across_versions_survives(self):
        keeper = fake_table("keeper", b"n", b"z")
        t0 = fake_table("old", b"a", b"m")
        vs = VersionSet(Version(4))
        vs.install(VersionEdit(1, [keeper, t0], []))
        pinned = vs.pin()
        vs.install(VersionEdit(
            1, [fake_table("new", b"a", b"m")], [t0]))
        vs.unpin(pinned)
        retired = {t.path for t in vs.drain_retired()}
        assert retired == {"old"}
        assert vs.table_ref("keeper") == 1

    def test_pin_of_current_never_retires(self):
        vs = VersionSet(Version(4))
        vs.install(flush_edit(fake_table("1", b"a", b"z")))
        pinned = vs.pin()
        vs.unpin(pinned)
        assert vs.drain_retired() == []
        assert vs.table_ref("1") == 1

    def test_conflicting_install_raises(self):
        t0 = fake_table("old", b"a", b"z")
        vs = VersionSet(Version(4))
        vs.install(flush_edit(t0))
        vs.install(VersionEdit(
            1, [fake_table("new", b"a", b"z")], [t0]))
        with pytest.raises(CompactionError):
            vs.install(VersionEdit(
                2, [fake_table("newer", b"a", b"z")], [t0]))

    def test_unpin_unknown_version_raises(self):
        vs = VersionSet(Version(4))
        with pytest.raises(LSMError):
            vs.unpin(Version(4))

    def test_force_release_counts_leaks(self):
        vs = VersionSet(Version(4))
        vs.pin()
        vs.pin()
        assert vs.force_release() == 2
        assert vs.pinned_count() == 0

    def test_reset_rejected_with_pins(self):
        vs = VersionSet(Version(4))
        vs.pin()
        with pytest.raises(LSMError):
            vs.reset(Version(4))

    def test_live_versions(self):
        vs = VersionSet(Version(4))
        assert vs.live_versions() == 1
        pinned = vs.pin()
        vs.install(flush_edit(fake_table("1", b"a", b"z")))
        assert vs.live_versions() == 2
        vs.unpin(pinned)
        assert vs.live_versions() == 1

    def test_close_retires_current_tables(self):
        vs = VersionSet(Version(4))
        vs.install(flush_edit(fake_table("1", b"a", b"z")))
        vs.close()
        assert [t.path for t in vs.drain_retired()] == ["1"]
        with pytest.raises(LSMError):
            vs.install(flush_edit(fake_table("2", b"a", b"z")))


class TestL0Splice:
    """The tiered shape of the one edit: ``VersionEdit(0, merged, inputs)``
    lands where its first input stands in the version it is applied to."""

    @staticmethod
    def l0_of(*paths):
        tables = {path: fake_table(path, b"a", b"z") for path in paths}
        return Version(4, [list(tables.values())]), tables

    def test_merged_run_takes_its_inputs_slot(self):
        v, t = self.l0_of("5", "4", "3", "2", "1")
        merged = [fake_table("m1", b"a", b"m"), fake_table("m2", b"n", b"z")]
        v = v.apply(VersionEdit(0, merged, [t["4"], t["3"], t["2"]]))
        assert [x.path for x in v.levels[0]] == ["5", "m1", "m2", "1"]

    def test_empty_merge_just_removes(self):
        v, t = self.l0_of("3", "2", "1")
        v = v.apply(VersionEdit(0, [], [t["2"], t["1"]]))
        assert [x.path for x in v.levels[0]] == ["3"]

    def test_stale_base_edit_lands_behind_intervening_flush(self):
        # Plan a merge of "3","2" against base (4,3,2,1), let a flush
        # install first, then install the merge: the new flush stays in
        # front, and before/after keep their places around the run.
        base, t = self.l0_of("4", "3", "2", "1")
        vs = VersionSet(base)
        planned = VersionEdit(0, [fake_table("m", b"a", b"z")],
                              [t["3"], t["2"]])
        vs.install(flush_edit(fake_table("5", b"a", b"z")))
        vs.install(planned)
        assert [x.path for x in vs.current.levels[0]] == ["5", "4", "m", "1"]
        assert {x.path for x in vs.drain_retired()} == {"3", "2"}

    def test_stale_edit_whose_input_is_gone_still_raises(self):
        base, t = self.l0_of("2", "1")
        vs = VersionSet(base)
        vs.install(VersionEdit(0, [fake_table("m", b"a", b"z")],
                               [t["2"], t["1"]]))
        with pytest.raises(CompactionError):
            vs.install(VersionEdit(0, [fake_table("m'", b"a", b"z")],
                                   [t["2"], t["1"]]))
        assert [x.path for x in vs.current.levels[0]] == ["m"]

    def test_edit_is_immutable(self):
        edit = flush_edit(fake_table("1", b"a", b"z"))
        assert isinstance(edit.added, tuple) and edit.removed == ()
        with pytest.raises(AttributeError):
            edit.level = 1


# ------------------------------------------------------ batch candidate walk

_KEY = st.binary(min_size=1, max_size=3)


@st.composite
def versions_and_probes(draw):
    """A version with overlapping L0 runs and sorted deep levels, plus
    probe keys: arbitrary, in gaps, and at (or one step off) table edges,
    in an arbitrary order."""
    version = Version(4)
    for run in range(draw(st.integers(0, 3))):
        low, high = sorted(draw(st.lists(_KEY, min_size=2, max_size=2)))
        version = add_l0(version, fake_table(f"l0-{run}", low, high))
    edges = []
    for level in (1, 2, 3):
        bounds = sorted(set(draw(st.lists(_KEY, max_size=12))))
        pairs = list(zip(bounds[::2], bounds[1::2]))  # disjoint, gaps between
        if pairs:
            version = install(version, level, [
                fake_table(f"{level}-{i}", low, high)
                for i, (low, high) in enumerate(pairs)])
        edges += bounds
    edge_probes = [edge + suffix for edge in edges
                   for suffix in (b"", b"\x00", b"\xff")]
    edge_probes += [edge[:-1] for edge in edges if len(edge) > 1]
    probes = draw(st.lists(_KEY, max_size=20)) + edge_probes
    return version, draw(st.permutations(probes))


class TestBatchCandidateWalk:
    @settings(max_examples=150, deadline=None)
    @given(versions_and_probes())
    def test_equals_the_per_key_walk(self, case):
        version, keys = case
        assert version.candidates_for_keys(keys) == [
            tuple(version.candidates_for_key(key)) for key in keys]

    @settings(max_examples=50, deadline=None)
    @given(versions_and_probes())
    def test_sorted_batch_equals_the_per_key_walk(self, case):
        version, keys = case
        keys = sorted(keys)
        assert version.candidates_for_keys(keys) == [
            tuple(version.candidates_for_key(key)) for key in keys]

    def test_reused_table_stops_at_its_edge(self):
        v = install(Version(4), 1, [fake_table("a", b"b", b"d"),
                                    fake_table("b", b"f", b"h")])
        walked = v.candidates_for_keys([b"b", b"d", b"e", b"f", b"h", b"i",
                                        b"c", b"a"])
        assert [[t.path for t in found] for found in walked] == [
            ["a"], ["a"], [], ["b"], ["b"], [], ["a"], []]

    def test_a_run_shares_one_tuple(self):
        """Consecutive keys with the same candidates get the same tuple
        object, which the prepass groups as one run."""
        v = install(Version(4), 1, [fake_table("a", b"b", b"d"),
                                    fake_table("b", b"f", b"h")])
        walked = v.candidates_for_keys([b"b", b"c", b"d", b"e", b"e1",
                                        b"f", b"g", b"c"])
        assert walked[0] is walked[1] is walked[2]
        assert walked[3] is walked[4] == ()
        assert walked[5] is walked[6] is not walked[2]
        assert walked[7] == walked[0]
