"""STATS has one declaration: ``protocol.StatsSnapshot``.

The wire records and the codec are derived from the dataclass, so adding
a counter is two edits — the field, and the layer that owns it adding it
in ``stats_fields`` (DESIGN.md, "Adding a STATS counter") — and no
protocol version bump: records are named, a decoder skips names it does
not know and leaves unnamed fields at their defaults.
"""

import struct
from dataclasses import fields

import pytest

from repro.common.errors import ProtocolError
from repro.server import protocol
from repro.server.protocol import StatsSnapshot

#: ``encode_stats_response`` of the snapshot below under protocol v4:
#: the record count, then one record per field (name length, name,
#: type byte ``d``/``Q``, 8-byte value).  Re-pinned when v4 replaced
#: v3's bare field array with named records and dropped the two
#: always-0 range-engine fields.
PINNED_HEX = (
    "000e"
    "0a" "73696d5f6e6f775f7573" "64" "40934a0000000000"
    "08" "7265717565737473" "51" "000000000000000a"
    "02" "6f6b" "51" "0000000000000007"
    "09" "6e6f745f666f756e64" "51" "0000000000000002"
    "0c" "756e617574686f72697a6564" "51" "0000000000000001"
    "10" "6576696374696f6e5f776169745f7573" "64" "4058d00000000000"
    "10" "7374616c6c65645f7265717565737473" "51" "0000000000000003"
    "0e" "746f74616c5f7374616c6c5f7573" "64" "3fc0000000000000"
    "0d" "666c61676765645f7573657273" "51" "0000000000000004"
    "14" "7468726f74746c655f657363616c6174696f6e73" "51" "0000000000000005"
    "10" "6e6f6973655f696e6a656374696f6e73" "51" "0000000000000006"
    "0f" "636f6d70616374696f6e735f72756e" "51" "0000000000000008"
    "11" "6261636b67726f756e645f6379636c6573" "51" "0000000000000009"
    "0d" "72616e67655f71756572696573" "51" "000000000000000b")

SNAPSHOT = StatsSnapshot(
    sim_now_us=1234.5, requests=10, ok=7, not_found=2, unauthorized=1,
    eviction_wait_us=99.25, stalled_requests=3, total_stall_us=0.125,
    flagged_users=4, throttle_escalations=5, noise_injections=6,
    compactions_run=8, background_cycles=9, range_queries=11)


def _record(name: bytes, kind: bytes, value) -> bytes:
    return (bytes([len(name)]) + name + kind
            + struct.pack("!" + kind.decode(), value))


def _with_records(records) -> bytes:
    """A STATS payload of the pinned snapshot plus ``records``."""
    payload = protocol.encode_stats_response(SNAPSHOT)
    count = struct.unpack_from("!H", payload)[0] + len(records)
    return struct.pack("!H", count) + payload[2:] + b"".join(records)


def test_wire_bytes_are_pinned():
    assert protocol.PROTOCOL_VERSION == 4
    payload = protocol.encode_stats_response(SNAPSHOT)
    assert payload.hex() == PINNED_HEX
    assert protocol.decode_stats_response(payload) == SNAPSHOT


def test_format_is_derived_from_the_dataclass():
    payload = protocol.encode_stats_response(StatsSnapshot())
    assert struct.unpack_from("!H", payload)[0] == len(fields(StatsSnapshot))
    assert len(payload) == 2 + sum(len(field.name) + 10
                                   for field in fields(StatsSnapshot))


def test_an_unknown_record_is_skipped():
    """A newer peer's extra counter does not break an older decoder."""
    payload = _with_records([_record(b"counter_from_the_future", b"Q", 42),
                             _record(b"gauge_from_the_future", b"d", 0.5)])
    assert protocol.decode_stats_response(payload) == SNAPSHOT


def test_a_missing_record_keeps_its_default():
    """An older peer that lacks a counter leaves it at its default."""
    payload = struct.pack("!H", 2) + _record(b"requests", b"Q", 5) \
        + _record(b"sim_now_us", b"d", 7.5)
    assert protocol.decode_stats_response(payload) == StatsSnapshot(
        sim_now_us=7.5, requests=5)


@pytest.mark.parametrize("record", [
    _record(b"requests", b"d", 1.0),          # known name, wrong type
    _record(b"requests", b"Q", 1),            # known name, sent twice
    bytes([8]) + b"whatever" + b"Z" + bytes(8),  # unknown type byte
])
def test_malformed_records_are_rejected(record):
    with pytest.raises(ProtocolError):
        protocol.decode_stats_response(_with_records([record]))


def test_every_field_has_an_owning_layer(wire_env, loopback):
    """Each field is written by a layer (or the server), not defaulted."""
    from repro.server.tcp import collect_stats
    from repro.system import build_defended_service

    stack = build_defended_service(wire_env.service, mode="throttle")
    written = set(stack.stats_fields()) | {"eviction_wait_us"}
    assert written == {field.name for field in fields(StatsSnapshot)}
    # ... and the client sees the same record the server collected.
    client = loopback.connect()
    try:
        served = client.stats()
    finally:
        client.close()
    assert isinstance(served, StatsSnapshot)
    assert served == collect_stats(wire_env.service, wire_env.background)
