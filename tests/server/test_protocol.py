"""Wire-protocol codec properties: round trips and malformed-input safety.

The invariant under test: every codec either round-trips exactly or
raises :class:`ProtocolError` (:class:`VersionMismatchError` for foreign
versions) — never a bare ``struct.error`` or silent corruption, whatever
bytes a peer sends.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.errors import ProtocolError, VersionMismatchError
from repro.server import protocol
from repro.server.protocol import (
    FLAG_ORDERED,
    FLAG_RESPONSE,
    HEADER_BYTES,
    MAX_KEY_BYTES,
    PROTOCOL_VERSION,
    Frame,
    Opcode,
    OrderToken,
    StatsSnapshot,
)
from repro.system.responses import Response, Status

keys = st.binary(min_size=0, max_size=64)
users = st.integers(min_value=0, max_value=2**64 - 1)
request_ids = st.integers(min_value=0, max_value=2**64 - 1)
sim_times = st.floats(min_value=0.0, max_value=1e12, allow_nan=False)
statuses = st.sampled_from(list(Status))
#: Keys at the edges of the u16 key-length column, among short ones.
edge_keys = st.one_of(keys, st.just(b""), st.just(b"\xab" * MAX_KEY_BYTES))
#: Results of every status with no value, an empty value or a short one.
edge_results = st.tuples(
    st.builds(Response, statuses,
              st.one_of(st.none(), st.just(b""), st.binary(max_size=16))),
    sim_times)


def responses():
    return st.builds(
        Response, statuses,
        st.one_of(st.none(), st.binary(min_size=0, max_size=32)))


def _zipped(columns):
    """``decode_get_many_columns``'s two columns as (response, sim_us)
    pairs, the shape ``encode_get_many_response`` takes."""
    return list(zip(*columns))


class TestFrameRoundTrip:
    @given(opcode=st.sampled_from(list(Opcode)), request_id=request_ids,
           payload=st.binary(max_size=256),
           flags=st.sampled_from([0, FLAG_RESPONSE, FLAG_ORDERED,
                                  FLAG_RESPONSE | FLAG_ORDERED]))
    def test_round_trip(self, opcode, request_id, payload, flags):
        frame = Frame(opcode=opcode, request_id=request_id,
                      payload=payload, flags=flags)
        assert protocol.decode_frame(protocol.encode_frame(frame)) == frame

    @given(opcode=st.sampled_from(list(Opcode)), payload=st.binary(max_size=64),
           cut=st.integers(min_value=0, max_value=100))
    def test_any_truncation_raises_cleanly(self, opcode, payload, cut):
        wire = protocol.encode_frame(Frame(opcode=opcode, request_id=7,
                                           payload=payload))
        truncated = wire[:min(cut, len(wire) - 1)]
        with pytest.raises(ProtocolError):
            protocol.decode_frame(truncated)

    def test_version_mismatch_is_its_own_error(self):
        wire = bytearray(protocol.encode_frame(Frame(opcode=Opcode.PING,
                                                     request_id=1)))
        wire[2] = PROTOCOL_VERSION + 1
        with pytest.raises(VersionMismatchError):
            protocol.decode_frame(bytes(wire))

    def test_bad_magic_rejected(self):
        wire = b"XX" + protocol.encode_frame(
            Frame(opcode=Opcode.PING, request_id=1))[2:]
        with pytest.raises(ProtocolError):
            protocol.decode_frame(wire)

    def test_unknown_opcode_rejected(self):
        wire = bytearray(protocol.encode_frame(Frame(opcode=Opcode.PING,
                                                     request_id=1)))
        wire[3] = 0x6E
        with pytest.raises(ProtocolError):
            protocol.decode_frame(bytes(wire))

    def test_unknown_flags_rejected(self):
        wire = bytearray(protocol.encode_frame(Frame(opcode=Opcode.PING,
                                                     request_id=1)))
        wire[5] |= 0x80
        with pytest.raises(ProtocolError):
            protocol.decode_frame(bytes(wire))

    def test_oversized_payload_refused_at_encode(self):
        with pytest.raises(ProtocolError):
            protocol.encode_frame(Frame(
                opcode=Opcode.PING, request_id=0,
                payload=b"\0" * (protocol.MAX_PAYLOAD_BYTES + 1)))

    def test_header_size_is_stable(self):
        # The 18-byte header is a wire-compatibility contract.
        assert HEADER_BYTES == 18


class TestGetCodecs:
    @given(user=users, key=keys)
    def test_get_request_round_trip(self, user, key):
        wire = protocol.encode_get_request(user, key)
        assert protocol.decode_get_request(wire) == (user, key)

    def test_max_length_key_round_trips(self):
        key = b"\xab" * MAX_KEY_BYTES
        assert protocol.decode_get_request(
            protocol.encode_get_request(1, key)) == (1, key)

    def test_over_length_key_refused(self):
        with pytest.raises(ProtocolError):
            protocol.encode_get_request(1, b"k" * (MAX_KEY_BYTES + 1))

    @given(user=users, key_list=st.lists(edge_keys, max_size=20))
    def test_get_many_request_round_trip(self, user, key_list):
        wire = protocol.encode_get_many_request(user, key_list)
        assert protocol.decode_get_many_request(wire) == (user, key_list)

    def test_empty_batch_round_trips(self):
        wire = protocol.encode_get_many_request(9, [])
        assert protocol.decode_get_many_request(wire) == (9, [])

    @given(user=users, key_list=st.lists(keys, min_size=1, max_size=8),
           extra=st.binary(min_size=1, max_size=4))
    def test_trailing_bytes_rejected(self, user, key_list, extra):
        wire = protocol.encode_get_many_request(user, key_list) + extra
        with pytest.raises(ProtocolError):
            protocol.decode_get_many_request(wire)

    @given(user=users, key_list=st.lists(keys, min_size=1, max_size=8),
           cut=st.integers(min_value=1, max_value=200))
    def test_truncated_batch_rejected(self, user, key_list, cut):
        wire = protocol.encode_get_many_request(user, key_list)
        with pytest.raises(ProtocolError):
            protocol.decode_get_many_request(wire[:-min(cut, len(wire))] )


class TestResultCodecs:
    @given(response=responses(), sim_us=sim_times)
    def test_result_round_trip(self, response, sim_us):
        wire = protocol.encode_result(response, sim_us)
        decoded, decoded_us, consumed = protocol.decode_result(wire)
        assert decoded == response
        assert decoded_us == sim_us
        assert consumed == len(wire)

    @given(results=st.lists(edge_results, max_size=16))
    def test_get_many_response_round_trip(self, results):
        wire = protocol.encode_get_many_response(results)
        assert _zipped(protocol.decode_get_many_columns(wire)) == results

    @given(results=st.lists(st.tuples(responses(), sim_times),
                            min_size=1, max_size=8),
           cut=st.integers(min_value=1, max_value=64))
    def test_truncated_response_rejected(self, results, cut):
        wire = protocol.encode_get_many_response(results)
        with pytest.raises(ProtocolError):
            protocol.decode_get_many_columns(wire[:-min(cut, len(wire))])

    def test_unknown_status_code_rejected(self):
        wire = bytearray(protocol.encode_result(Response(Status.OK, None), 1.0))
        wire[0] = 250
        with pytest.raises(ProtocolError):
            protocol.decode_result(bytes(wire))


class TestControlCodecs:
    @given(token=st.builds(OrderToken,
                           st.integers(min_value=0, max_value=2**64 - 1),
                           st.integers(min_value=0, max_value=2**64 - 1)),
           payload=st.binary(max_size=64))
    def test_order_token_round_trip(self, token, payload):
        assert protocol.split_order(
            protocol.prepend_order(payload, token)) == (token, payload)

    def test_short_ordered_payload_rejected(self):
        with pytest.raises(ProtocolError):
            protocol.split_order(b"\0" * 15)

    @given(stats=st.builds(
        StatsSnapshot, sim_times,
        *[st.integers(min_value=0, max_value=2**32) for _ in range(4)],
        sim_times, st.integers(min_value=0, max_value=2**32), sim_times,
        # defense, compaction and range-read counters
        *[st.integers(min_value=0, max_value=2**32) for _ in range(6)]))
    def test_stats_round_trip(self, stats):
        wire = protocol.encode_stats_response(stats)
        assert protocol.decode_stats_response(wire) == stats

    def test_stats_round_trip_range_counters(self):
        stats = StatsSnapshot(
            sim_now_us=1.5, requests=9, ok=7, not_found=1, unauthorized=1,
            eviction_wait_us=0.0, stalled_requests=0, total_stall_us=0.0,
            range_queries=123)
        decoded = protocol.decode_stats_response(
            protocol.encode_stats_response(stats))
        assert decoded == stats
        assert decoded.range_queries == 123

    @given(duration=st.floats(min_value=0.0, max_value=1e12, allow_nan=False))
    def test_wait_round_trip(self, duration):
        assert protocol.decode_wait_request(
            protocol.encode_wait_request(duration)) == duration

    def test_negative_wait_rejected(self):
        with pytest.raises(ProtocolError):
            protocol.encode_wait_request(-1.0)
        with pytest.raises(ProtocolError):
            protocol.decode_wait_request(protocol._F64.pack(-5.0))

    @given(code=st.integers(min_value=0, max_value=255),
           message=st.text(max_size=80))
    def test_error_round_trip(self, code, message):
        decoded_code, decoded_message = protocol.decode_error(
            protocol.encode_error(code, message))
        assert decoded_code == code
        assert decoded_message == message


values = st.binary(min_size=0, max_size=96)
put_flags = st.sampled_from([0, protocol.PUT_FLAG_PUBLIC_READ])


class TestWriteCodecs:
    @given(user=users, key=keys, value=values, flags=put_flags)
    def test_put_request_round_trip(self, user, key, value, flags):
        wire = protocol.encode_put_request(user, key, value, flags)
        assert protocol.decode_put_request(wire) == (user, key, value, flags)

    def test_put_unknown_flags_refused(self):
        with pytest.raises(ProtocolError):
            protocol.encode_put_request(1, b"k", b"v", 0x80)
        wire = bytearray(protocol.encode_put_request(1, b"k", b"v"))
        wire[8] |= 0x80  # flags byte follows the u64 user id
        with pytest.raises(ProtocolError):
            protocol.decode_put_request(bytes(wire))

    @given(user=users, key=keys, value=values,
           cut=st.integers(min_value=1, max_value=200))
    def test_truncated_put_rejected(self, user, key, value, cut):
        wire = protocol.encode_put_request(user, key, value)
        with pytest.raises(ProtocolError):
            protocol.decode_put_request(wire[:-min(cut, len(wire))])

    @given(user=users,
           items=st.lists(st.tuples(edge_keys, values), max_size=12),
           flags=put_flags)
    def test_put_many_request_round_trip(self, user, items, flags):
        wire = protocol.encode_put_many_request(user, items, flags)
        assert protocol.decode_put_many_request(wire) == (user, items, flags)

    @given(user=users,
           items=st.lists(st.tuples(keys, values), min_size=1, max_size=6),
           extra=st.binary(min_size=1, max_size=4))
    def test_put_many_trailing_bytes_rejected(self, user, items, extra):
        wire = protocol.encode_put_many_request(user, items) + extra
        with pytest.raises(ProtocolError):
            protocol.decode_put_many_request(wire)

    @given(user=users,
           items=st.lists(st.tuples(keys, values), min_size=1, max_size=6),
           cut=st.integers(min_value=1, max_value=200))
    def test_truncated_put_many_rejected(self, user, items, cut):
        wire = protocol.encode_put_many_request(user, items)
        with pytest.raises(ProtocolError):
            protocol.decode_put_many_request(wire[:-min(cut, len(wire))])

    @given(count=st.integers(min_value=0, max_value=2**32 - 1),
           sim_us=sim_times)
    def test_put_many_response_round_trip(self, count, sim_us):
        wire = protocol.encode_put_many_response(count, sim_us)
        assert protocol.decode_put_many_response(wire) == (count, sim_us)

    def test_put_many_response_wrong_size_rejected(self):
        with pytest.raises(ProtocolError):
            protocol.decode_put_many_response(b"\x00" * 5)

    @given(user=users, key=keys)
    def test_delete_request_round_trip(self, user, key):
        wire = protocol.encode_delete_request(user, key)
        assert protocol.decode_delete_request(wire) == (user, key)

    def test_truncated_delete_rejected(self):
        wire = protocol.encode_delete_request(3, b"victim")
        with pytest.raises(ProtocolError):
            protocol.decode_delete_request(wire[:-1])


# --------------------------------------------------- v4 columnar batch frames

def _well_formed_get_many_request(decoded):
    user, key_list = decoded
    assert isinstance(user, int)
    assert all(isinstance(key, bytes) for key in key_list)


def _well_formed_get_many_columns(decoded):
    response_column, sim_column = decoded
    assert len(response_column) == len(sim_column)
    for response in response_column:
        assert isinstance(response.status, Status)
        assert response.value is None or isinstance(response.value, bytes)
    assert all(isinstance(sim_us, float) for sim_us in sim_column)


def _well_formed_put_many_request(decoded):
    user, items, flags = decoded
    assert isinstance(user, int) and flags in (0, protocol.PUT_FLAG_PUBLIC_READ)
    for key, value in items:
        assert isinstance(key, bytes) and isinstance(value, bytes)


#: (decoder, check of what it returned, a valid payload): every cut and
#: every byte flip of the payload must be refused typed or decode to a
#: well-formed value.
MANGLED_CASES = [
    (protocol.decode_get_many_request, _well_formed_get_many_request,
     protocol.encode_get_many_request(7, [b"ab", b"", b"cde"])),
    (protocol.decode_get_many_columns, _well_formed_get_many_columns,
     protocol.encode_get_many_response([
         (Response(Status.OK, b"v1"), 1.5),
         (Response(Status.NOT_FOUND), 2.0),
         (Response(Status.UNAUTHORIZED, b""), 0.25),
         (Response(Status.FAILED), 3.0)])),
    (protocol.decode_get_many_columns, _well_formed_get_many_columns,
     protocol.encode_get_many_response([(Response(Status.NOT_FOUND), 1.0),
                                        (Response(Status.OK), 2.0)])),
    (protocol.decode_put_many_request, _well_formed_put_many_request,
     protocol.encode_put_many_request(
         3, [(b"k1", b"value"), (b"", b""), (b"k3", b"x")],
         protocol.PUT_FLAG_PUBLIC_READ)),
]


def _refused_or_well_formed(decode, check, payload):
    try:
        decoded = decode(payload)
    except ProtocolError:
        return
    check(decoded)


class TestColumnarBatches:
    def test_every_status_with_and_without_a_value(self):
        results = [(Response(status, value), float(i))
                   for i, (status, value) in enumerate(
                       (status, value) for status in Status
                       for value in (None, b"", b"val"))]
        wire = protocol.encode_get_many_response(results)
        assert _zipped(protocol.decode_get_many_columns(wire)) == results

    def test_valueless_results_share_one_response_per_status(self):
        wire = protocol.encode_get_many_response(
            [(Response(Status.NOT_FOUND), 1.0),
             (Response(Status.NOT_FOUND), 2.0),
             (Response(Status.OK, b"v"), 3.0)])
        first, second, third = protocol.decode_get_many_columns(wire)[0]
        assert first is second
        assert third.value == b"v"
        decoded, _, _ = protocol.decode_result(
            protocol.encode_result(Response(Status.NOT_FOUND), 1.0))
        assert decoded is first

    def test_empty_batches_round_trip(self):
        assert protocol.decode_get_many_columns(
            protocol.encode_get_many_response([])) == ([], ())
        assert protocol.decode_put_many_request(
            protocol.encode_put_many_request(4, [])) == (4, [], 0)

    @pytest.mark.parametrize("decode, check, payload", MANGLED_CASES)
    def test_every_truncation_is_refused_or_well_formed(self, decode, check,
                                                        payload):
        for cut in range(len(payload)):
            _refused_or_well_formed(decode, check, payload[:cut])

    @pytest.mark.parametrize("decode, check, payload", MANGLED_CASES)
    def test_every_byte_flip_is_refused_or_well_formed(self, decode, check,
                                                       payload):
        for index in range(len(payload)):
            for flipped in {payload[index] ^ 0xFF, payload[index] ^ 0x01,
                            0x00, 0x04}:
                mangled = bytearray(payload)
                mangled[index] = flipped
                _refused_or_well_formed(decode, check, bytes(mangled))

    @pytest.mark.parametrize("decode, check, payload", MANGLED_CASES)
    def test_trailing_bytes_rejected(self, decode, check, payload):
        with pytest.raises(ProtocolError):
            decode(payload + b"\x00")

    def test_status_code_four_or_more_rejected(self):
        wire = bytearray(protocol.encode_get_many_response(
            [(Response(Status.OK), 1.0), (Response(Status.OK), 2.0)]))
        status_at = 4 + 2 * 8
        for code in (4, 5, 0xFF):
            wire[status_at + 1] = code
            with pytest.raises(ProtocolError):
                protocol.decode_get_many_columns(bytes(wire))

    def test_presence_byte_outside_zero_one_rejected(self):
        results = [(Response(Status.OK, b"a"), 1.0),
                   (Response(Status.NOT_FOUND), 2.0)]
        wire = bytearray(protocol.encode_get_many_response(results))
        # count | 2 sims | 2 statuses | present=1 | 1 length | 2 presence
        presence_at = 4 + 2 * 8 + 2 + 4 + 4
        assert wire[presence_at:presence_at + 2] == b"\x01\x00"
        for marker in (2, 0xFF):
            for index in (0, 1):
                mangled = bytearray(wire)
                mangled[presence_at + index] = marker
                with pytest.raises(ProtocolError):
                    protocol.decode_get_many_columns(bytes(mangled))
        swapped = bytearray(wire)
        swapped[presence_at:presence_at + 2] = b"\x00\x01"
        assert _zipped(protocol.decode_get_many_columns(bytes(swapped))) == [
            (Response(Status.OK), 1.0), (Response(Status.NOT_FOUND, b"a"), 2.0)]

    def test_over_length_key_refused(self):
        with pytest.raises(ProtocolError):
            protocol.encode_get_many_request(1, [b"k" * (MAX_KEY_BYTES + 1)])
        with pytest.raises(ProtocolError):
            protocol.encode_put_many_request(
                1, [(b"k" * (MAX_KEY_BYTES + 1), b"v")])

    def test_get_many_response_bytes_are_pinned(self):
        wire = protocol.encode_get_many_response([
            (Response(Status.OK, b"v"), 1.5),
            (Response(Status.NOT_FOUND), 2.0),
            (Response(Status.UNAUTHORIZED, b""), 0.25)])
        assert wire.hex() == (
            "00000003"                                  # count
            "3ff8000000000000" "4000000000000000"
            "3fd0000000000000"                          # sim-µs column
            "000102"                                    # status column
            "00000002"                                  # values present
            "00000001" "00000000"                       # length column
            "010001"                                    # presence column
            "76")                                       # value blob
