"""STATS has one declaration: ``protocol.StatsSnapshot``.

The wire format and the encoder are derived from the dataclass, so adding
a counter is two edits — the field, and the layer that owns it adding it
in ``stats_fields`` (DESIGN.md, "Adding a STATS counter").
"""

from dataclasses import fields

from repro.server import protocol
from repro.server.protocol import StatsSnapshot

#: ``encode_stats_response`` of the snapshot below at 888a554, when the
#: sixteen fields were still spelled out in four places.
PINNED_HEX = (
    "40934a0000000000" "000000000000000a" "0000000000000007"
    "0000000000000002" "0000000000000001" "4058d00000000000"
    "0000000000000003" "3fc0000000000000" "0000000000000004"
    "0000000000000005" "0000000000000006" "0000000000000008"
    "0000000000000009" "000000000000000b" "000000000000000c"
    "000000000000000d")

SNAPSHOT = StatsSnapshot(
    sim_now_us=1234.5, requests=10, ok=7, not_found=2, unauthorized=1,
    eviction_wait_us=99.25, stalled_requests=3, total_stall_us=0.125,
    flagged_users=4, throttle_escalations=5, noise_injections=6,
    compactions_run=8, background_cycles=9, range_queries=11,
    sorted_view_seeks=12, view_rebuild_segments=13)


def test_wire_bytes_are_pinned():
    assert protocol.PROTOCOL_VERSION == 3
    payload = protocol.encode_stats_response(SNAPSHOT)
    assert payload.hex() == PINNED_HEX
    assert protocol.decode_stats_response(payload) == SNAPSHOT


def test_format_is_derived_from_the_dataclass():
    assert protocol._STATS.format == "!dQQQQdQdQQQQQQQQ"
    assert protocol._STATS.size == 8 * len(fields(StatsSnapshot))


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
