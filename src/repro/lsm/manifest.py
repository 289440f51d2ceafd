"""Manifest: the persistent record of which SSTables live at which level.

Replaced after every flush or compaction and read back at
:meth:`repro.lsm.db.LSMTree.reopen` time to reconstruct the version.

Format (v2): a header line then one checksummed line per table::

    MANIFESTv2 <entry_count>
    <crc32-hex> <level> <path> <num_entries> <size_bytes>

Each line's CRC32 covers the text after the checksum field, so a flipped
bit in any record is detected on read instead of silently installing a
wrong level/size (or a truncated table list).

Replacement is atomic, write-new-then-swap::

    create  MANIFEST.new        (torn by a crash? old MANIFEST intact)
    rename  MANIFEST -> MANIFEST.prev
    rename  MANIFEST.new -> MANIFEST

A crash at any point leaves at least one complete, checksummed manifest
on the device; :meth:`Manifest.read_checked` falls back across the three
names newest-first.  Key ranges and filters are *not* stored here; they
are recovered from the tables' own properties blocks.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.common.errors import CorruptionError
from repro.storage.device import StorageDevice

#: v2 header tag (first token of the first line).
HEADER_TAG = "MANIFESTv2"


@dataclass(frozen=True)
class ManifestEntry:
    """One table registration."""

    level: int
    path: str
    num_entries: int
    size_bytes: int


@dataclass
class ManifestLoad:
    """Outcome of a fault-tolerant manifest read (recovery path)."""

    entries: List[ManifestEntry] = field(default_factory=list)
    #: Which file the entries came from (None: no manifest found at all).
    source: Optional[str] = None
    #: Entry lines skipped because their checksum failed.
    corrupt_entries: int = 0
    #: A manifest existed but no candidate parsed (total corruption).
    unreadable: bool = False


class Manifest:
    """Reads and atomically replaces the manifest file on the device."""

    def __init__(self, device: StorageDevice, path: str = "MANIFEST") -> None:
        self.device = device
        self.path = path

    # ---------------------------------------------------------------- writing

    @staticmethod
    def _encode_line(entry: ManifestEntry) -> str:
        body = f"{entry.level} {entry.path} {entry.num_entries} {entry.size_bytes}"
        return f"{zlib.crc32(body.encode()):08x} {body}"

    def write(self, entries: List[ManifestEntry]) -> None:
        """Persist the complete current version, atomically.

        The new manifest becomes visible only through the final rename; a
        crash before it keeps the previous manifest, and the displaced
        previous manifest survives as ``<path>.prev`` for one more
        generation of fallback.
        """
        lines = [f"{HEADER_TAG} {len(entries)}"]
        lines.extend(self._encode_line(e) for e in entries)
        staging = self.path + ".new"
        self.device.create_file(staging, "\n".join(lines).encode())
        if self.device.exists(self.path):
            self.device.rename(self.path, self.path + ".prev")
        self.device.rename(staging, self.path)

    # ---------------------------------------------------------------- reading

    def read_checked(self) -> ManifestLoad:
        """Fault-tolerant read for recovery: newest readable source wins.

        Tries ``MANIFEST``, then ``MANIFEST.new`` (complete but not yet
        swapped in), then ``MANIFEST.prev``.  Within a committed source
        (``MANIFEST``/``.prev``), entry lines failing their checksum are
        skipped and counted — the caller decides what to do about the
        tables they referenced.  The staging file is held to a stricter
        standard: ``.new`` only ever exists because a crash interrupted
        the atomic swap, so a ``.new`` with *any* damage was torn
        mid-create and therefore never committed — it is debris, not
        data, and is ignored rather than reported as a corrupt manifest
        (a lone torn ``.new`` does not even count as "a manifest
        existed": the store legitimately has no committed version yet
        and the WAL carries the state).
        """
        existed = False
        staging = self.path + ".new"
        for source in (self.path, staging, self.path + ".prev"):
            if not self.device.exists(source):
                continue
            raw = self.device.read(source, 0, self.device.file_size(source))
            try:
                entries, corrupt = self._parse(raw)
            except CorruptionError:
                if source != staging:
                    existed = True
                continue
            if source == staging and corrupt:
                continue
            existed = True
            return ManifestLoad(entries=entries, source=source,
                                corrupt_entries=corrupt)
        return ManifestLoad(unreadable=existed)

    # ---------------------------------------------------------------- parsing

    def _parse(self, raw: bytes) -> Tuple[List[ManifestEntry], int]:
        """Decode one manifest image; returns (entries, corrupt_count).

        Raises :class:`CorruptionError` when the data is structurally
        unusable (undecodable text, missing or garbled header); per-line
        checksum failures are *counted*, not raised, so one flipped
        record cannot take down the whole table list.
        """
        try:
            text = raw.decode()
        except UnicodeDecodeError as exc:
            raise CorruptionError(f"manifest is not text: {exc}") from None
        lines = text.splitlines()
        header = lines[0].split() if lines else []
        if len(header) != 2 or header[0] != HEADER_TAG:
            raise CorruptionError(f"malformed manifest header: {lines[:1]!r}")
        try:
            declared = int(header[1])
        except ValueError:
            raise CorruptionError(
                f"malformed manifest entry count: {header[1]!r}") from None
        entries: List[ManifestEntry] = []
        corrupt = 0
        body = [line for line in lines[1:] if line.strip()]
        for line in body:
            crc_field, _, rest = line.partition(" ")
            entry = self._decode_line(crc_field, rest)
            if entry is None:
                corrupt += 1
                continue
            entries.append(entry)
        # Fewer lines than declared means the file was cut short (only
        # possible for media truncation: the swap is atomic) — the missing
        # entries count as corrupt so recovery knows the list is partial.
        if len(body) < declared:
            corrupt += declared - len(body)
        return entries, corrupt

    @staticmethod
    def _decode_line(crc_field: str, rest: str) -> Optional[ManifestEntry]:
        try:
            expected = int(crc_field, 16)
        except ValueError:
            return None
        if len(crc_field) != 8 or zlib.crc32(rest.encode()) != expected:
            return None
        parts = rest.split()
        if len(parts) != 4:
            return None
        level, path, num_entries, size_bytes = parts
        try:
            return ManifestEntry(int(level), path, int(num_entries),
                                 int(size_bytes))
        except ValueError:
            return None
