"""Manifest persistence tests."""

import pytest

from repro.lsm.manifest import HEADER_TAG, Manifest, ManifestEntry
from repro.storage.clock import SimClock
from repro.storage.device import StorageDevice


@pytest.fixture()
def manifest():
    return Manifest(StorageDevice(SimClock()))


def raw(manifest, path=None):
    path = path or manifest.path
    return manifest.device.read(path, 0,
                                manifest.device.file_size(path))


ENTRIES = [
    ManifestEntry(0, "sst/000001.sst", 100, 4096),
    ManifestEntry(3, "sst/000002.sst", 2000, 65536),
]


def clean_entries(manifest):
    """What the primary manifest holds, which must have read cleanly."""
    load = manifest.read_checked()
    assert load.source == manifest.path
    assert load.corrupt_entries == 0 and not load.unreadable
    return load.entries


def test_round_trip(manifest):
    manifest.write(ENTRIES)
    assert clean_entries(manifest) == ENTRIES


def test_missing_manifest_is_empty(manifest):
    load = manifest.read_checked()
    assert load.entries == [] and load.source is None


def test_rewrite_replaces(manifest):
    manifest.write([ManifestEntry(0, "a", 1, 1)])
    manifest.write([ManifestEntry(1, "b", 2, 2)])
    assert clean_entries(manifest) == [ManifestEntry(1, "b", 2, 2)]


def test_empty_version(manifest):
    manifest.write([])
    assert clean_entries(manifest) == []


def test_malformed_line_detected(manifest):
    for image in (b"0 only-two",                 # no header at all
                  b"0 sst/000001.sst 100 4096",  # the headerless layout of old
                  b"",
                  b"MANIFESTv2",                 # header without its count
                  b"MANIFESTv2 two"):
        manifest.device.create_file(manifest.path, image)
        load = manifest.read_checked()
        assert load.unreadable, image
        assert load.entries == [] and load.source is None


class TestChecksummedFormat:
    def test_writes_v2_header(self, manifest):
        manifest.write(ENTRIES)
        first_line = raw(manifest).decode().splitlines()[0]
        assert first_line == f"{HEADER_TAG} {len(ENTRIES)}"

    def test_flipped_line_skipped_and_counted_checked(self, manifest):
        manifest.write(ENTRIES)
        data = bytearray(raw(manifest))
        data[-1] ^= 0x02
        manifest.device.create_file(manifest.path, bytes(data))
        load = manifest.read_checked()
        assert load.entries == ENTRIES[:1]
        assert load.corrupt_entries == 1
        assert load.source == manifest.path
        assert not load.unreadable

    def test_truncated_entry_list_counted(self, manifest):
        manifest.write(ENTRIES)
        text = raw(manifest).decode().splitlines()
        manifest.device.create_file(
            manifest.path, "\n".join(text[:-1]).encode())  # drop one entry
        load = manifest.read_checked()
        assert load.entries == ENTRIES[:1]
        assert load.corrupt_entries == 1


class TestAtomicReplacement:
    def test_previous_generation_survives_as_prev(self, manifest):
        manifest.write(ENTRIES[:1])
        manifest.write(ENTRIES)
        assert clean_entries(manifest) == ENTRIES
        prev = Manifest(manifest.device, manifest.path + ".prev")
        assert clean_entries(prev) == ENTRIES[:1]
        assert not manifest.device.exists(manifest.path + ".new")

    def test_fallback_to_staged_new(self, manifest):
        # Crash state: swap renamed MANIFEST away but died before
        # promoting MANIFEST.new.
        manifest.write(ENTRIES)
        manifest.device.rename(manifest.path, manifest.path + ".stash")
        staged = Manifest(manifest.device, manifest.path + ".stash")
        manifest.device.rename(manifest.path + ".stash",
                               manifest.path + ".new")
        load = manifest.read_checked()
        assert load.entries == ENTRIES
        assert load.source == manifest.path + ".new"

    def test_fallback_to_prev_when_primary_garbled(self, manifest):
        manifest.write(ENTRIES[:1])
        manifest.write(ENTRIES)
        manifest.device.delete_file(manifest.path)
        manifest.device.create_file(manifest.path, b"\xff\xfe garbage \x00")
        load = manifest.read_checked()
        assert load.entries == ENTRIES[:1]
        assert load.source == manifest.path + ".prev"

    def test_unreadable_when_every_candidate_garbled(self, manifest):
        manifest.device.create_file(manifest.path, b"\xff\xfe\x00")
        load = manifest.read_checked()
        assert load.unreadable
        assert load.source is None
        assert load.entries == []

    def test_no_manifest_at_all(self, manifest):
        load = manifest.read_checked()
        assert not load.unreadable
        assert load.source is None
        assert load.entries == []


class TestTornStaging:
    """A damaged ``MANIFEST.new`` is debris from an interrupted swap —
    never served, never reported as a corrupt manifest."""

    def test_torn_new_ignored_when_primary_intact(self, manifest):
        manifest.write(ENTRIES)
        intact = manifest.device.read(
            manifest.path, 0, manifest.device.file_size(manifest.path))
        manifest.device.create_file(manifest.path + ".new", intact[:-7])
        load = manifest.read_checked()
        assert load.entries == ENTRIES
        assert load.source == manifest.path
        assert load.corrupt_entries == 0

    def test_lone_torn_new_means_no_manifest(self, manifest):
        # Fresh store whose very first swap tore mid-create: the WAL owns
        # the state; recovery must see "no manifest", not "corrupt one".
        manifest.device.create_file(manifest.path + ".new", b"repro-man")
        load = manifest.read_checked()
        assert not load.unreadable
        assert load.entries == [] and load.source is None

    def test_complete_new_still_wins_over_missing_primary(self, manifest):
        manifest.write(ENTRIES)
        manifest.device.rename(manifest.path, manifest.path + ".new")
        load = manifest.read_checked()
        assert load.entries == ENTRIES
        assert load.source == manifest.path + ".new"
