"""Length-prefixed binary wire protocol for the KV serving layer.

Every message is one *frame*::

    +-------+---------+--------+-------+------------+-------------+
    | magic | version | opcode | flags | request id | payload len |  header
    | 2 B   | 1 B     | 1 B    | 2 B   | 8 B        | 4 B         |  (18 B)
    +-------+---------+--------+-------+------------+-------------+
    | payload (payload len bytes)                                 |
    +-------------------------------------------------------------+

All integers are big-endian.  Responses echo the request id and set
``FLAG_RESPONSE``; error responses use :data:`Opcode.ERROR`.  Frames
carrying ``FLAG_ORDERED`` prepend an ordering token (stream nonce + 0-based
sequence number) to the payload; the server executes such frames in
sequence order per stream, which is what makes the concurrent attack
driver's simulated timeline identical to the serial one (DESIGN.md §7).

The payload codecs below are pure functions of bytes: no sockets, no
clocks.  Anything malformed raises :class:`~repro.common.errors.ProtocolError`
(or its :class:`~repro.common.errors.VersionMismatchError` subclass), never
a bare ``struct.error`` — truncated input included.
"""

from __future__ import annotations

import enum
import math
import struct
from dataclasses import astuple, dataclass, fields
from itertools import accumulate
from typing import List, Sequence, Tuple

from repro.common.errors import ProtocolError, VersionMismatchError
from repro.system.responses import Response, Status

MAGIC = b"PS"
#: v2 and v3 widened the STATS payload; v4 made the batch payloads
#: columnar and STATS a list of named records, so a new counter no longer
#: changes the version.
PROTOCOL_VERSION = 4

#: Hard cap on a single key (the length field is 16-bit).
MAX_KEY_BYTES = 0xFFFF
#: Hard cap on one frame's payload — a protocol sanity bound, not a tuning
#: knob; a peer announcing more is treated as corrupt.
MAX_PAYLOAD_BYTES = 16 * 1024 * 1024

FLAG_RESPONSE = 0x0001
FLAG_ORDERED = 0x0002
_KNOWN_FLAGS = FLAG_RESPONSE | FLAG_ORDERED

_HEADER = struct.Struct("!2sBBHQI")
HEADER_BYTES = _HEADER.size

_U16 = struct.Struct("!H")
_U32 = struct.Struct("!I")
_U64 = struct.Struct("!Q")
_F64 = struct.Struct("!d")
_ORDER = struct.Struct("!QQ")
_GET_PREFIX = struct.Struct("!QH")
_GET_MANY_PREFIX = struct.Struct("!QI")
_PUT_PREFIX = struct.Struct("!QBH")
_PUT_MANY_PREFIX = struct.Struct("!QBI")
_PUT_MANY_RESPONSE = struct.Struct("!Id")
_RESULT_PREFIX = struct.Struct("!BdB")

#: PUT/PUT_MANY request flag: store the object world-readable.
PUT_FLAG_PUBLIC_READ = 0x01
_KNOWN_PUT_FLAGS = PUT_FLAG_PUBLIC_READ


class Opcode(enum.IntEnum):
    """Frame types (request direction unless noted)."""

    PING = 1
    GET = 2
    GET_MANY = 3
    STATS = 4
    #: Simulation control: advance the server's background load (the
    #: attacker "waiting for page-cache eviction").  Not part of a real
    #: deployment's API — a real attacker just sleeps.
    WAIT = 5
    PUT = 6
    PUT_MANY = 7
    DELETE = 8
    #: Response-only: request failed server-side.
    ERROR = 0x7F


class ErrorCode(enum.IntEnum):
    """``ERROR`` payload codes."""

    PROTOCOL = 1
    VERSION = 2
    UNSUPPORTED = 3
    INTERNAL = 4
    SHUTTING_DOWN = 5
    ORDER_TIMEOUT = 6
    #: The store hit data it could not trust (checksum/format failure);
    #: the request failed but the connection — and the store — survive.
    CORRUPTION = 7
    #: A retryable I/O failure; the client should simply reissue.
    TRANSIENT = 8


#: Status <-> wire code.  The vocabulary is closed (responses.Status).
_STATUS_TO_CODE = {
    Status.OK: 0,
    Status.NOT_FOUND: 1,
    Status.UNAUTHORIZED: 2,
    Status.FAILED: 3,
}
#: The encoders' view of the same map, keyed by member name: a str hashes
#: from its cache, an Enum member through the Python-level
#: ``Enum.__hash__`` (about 3x the cost per status column).
_CODE_BY_NAME = {status._name_: code
                 for status, code in _STATUS_TO_CODE.items()}
#: Status by wire code, and the one value-less response of each: a
#: result without a value decodes to it instead of a new object.
_STATUSES = tuple(sorted(_STATUS_TO_CODE, key=_STATUS_TO_CODE.__getitem__))
_BARE = tuple(Response(status) for status in _STATUSES)


@dataclass(frozen=True)
class Frame:
    """One decoded frame (header fields + raw payload)."""

    opcode: int
    request_id: int
    payload: bytes = b""
    flags: int = 0

    @property
    def is_response(self) -> bool:
        return bool(self.flags & FLAG_RESPONSE)


@dataclass(frozen=True)
class OrderToken:
    """Ordered-stream position: execute in ``seq`` order within ``nonce``."""

    nonce: int
    seq: int


# --------------------------------------------------------------------- frames


def encode_frame(frame: Frame) -> bytes:
    """Serialize a frame, header plus payload."""
    if len(frame.payload) > MAX_PAYLOAD_BYTES:
        raise ProtocolError(
            f"payload of {len(frame.payload)} bytes exceeds the "
            f"{MAX_PAYLOAD_BYTES}-byte frame cap"
        )
    header = _HEADER.pack(MAGIC, PROTOCOL_VERSION, frame.opcode, frame.flags,
                          frame.request_id, len(frame.payload))
    return header + frame.payload


def decode_header(data: bytes) -> Tuple[Frame, int]:
    """Decode the 18-byte header; returns a payload-less frame + length.

    The caller reads ``length`` more bytes and attaches them.  Raises
    :class:`VersionMismatchError` for a foreign protocol version and
    :class:`ProtocolError` for everything else malformed.
    """
    if len(data) < HEADER_BYTES:
        raise ProtocolError(
            f"truncated header: {len(data)} of {HEADER_BYTES} bytes"
        )
    magic, version, opcode, flags, request_id, length = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise ProtocolError(f"bad magic {magic!r}")
    if version != PROTOCOL_VERSION:
        raise VersionMismatchError(
            f"peer speaks protocol version {version}, "
            f"this build speaks {PROTOCOL_VERSION}"
        )
    if flags & ~_KNOWN_FLAGS:
        raise ProtocolError(f"unknown flag bits 0x{flags & ~_KNOWN_FLAGS:x}")
    if length > MAX_PAYLOAD_BYTES:
        raise ProtocolError(f"announced payload of {length} bytes exceeds cap")
    try:
        opcode = Opcode(opcode)
    except ValueError:
        raise ProtocolError(f"unknown opcode {opcode}") from None
    return Frame(opcode=opcode, request_id=request_id, flags=flags), length


def decode_frame(data: bytes) -> Frame:
    """Decode one complete frame from an exact byte string."""
    frame, length = decode_header(data)
    payload = data[HEADER_BYTES:]
    if len(payload) != length:
        raise ProtocolError(
            f"payload length mismatch: header says {length}, got {len(payload)}"
        )
    return Frame(opcode=frame.opcode, request_id=frame.request_id,
                 payload=payload, flags=frame.flags)


# ------------------------------------------------------------ ordering tokens


def prepend_order(payload: bytes, token: OrderToken) -> bytes:
    """Prefix an ordered frame's payload with its stream position."""
    return _ORDER.pack(token.nonce, token.seq) + payload


def split_order(payload: bytes) -> Tuple[OrderToken, bytes]:
    """Strip the ordering token from an ``FLAG_ORDERED`` payload."""
    if len(payload) < _ORDER.size:
        raise ProtocolError("ordered frame too short for its ordering token")
    nonce, seq = _ORDER.unpack_from(payload)
    return OrderToken(nonce=nonce, seq=seq), payload[_ORDER.size:]


# ------------------------------------------------------------------- payloads


def _check_key(key: bytes) -> bytes:
    if len(key) > MAX_KEY_BYTES:
        raise ProtocolError(
            f"key of {len(key)} bytes exceeds the {MAX_KEY_BYTES}-byte cap"
        )
    return key


def encode_get_request(user: int, key: bytes) -> bytes:
    """GET request payload: user id + one key."""
    return _GET_PREFIX.pack(user, len(_check_key(key))) + key


def decode_get_request(payload: bytes) -> Tuple[int, bytes]:
    """Inverse of :func:`encode_get_request`."""
    if len(payload) < _GET_PREFIX.size:
        raise ProtocolError("truncated GET request")
    user, key_len = _GET_PREFIX.unpack_from(payload)
    key = payload[_GET_PREFIX.size:]
    if len(key) != key_len:
        raise ProtocolError(
            f"GET key length mismatch: header says {key_len}, got {len(key)}"
        )
    return user, key


def _key_lengths(keys: Sequence[bytes]) -> List[int]:
    lengths = [len(key) for key in keys]
    if lengths and max(lengths) > MAX_KEY_BYTES:
        raise ProtocolError(
            f"key of {max(lengths)} bytes exceeds the {MAX_KEY_BYTES}-byte cap"
        )
    return lengths


def _expect_end(payload: bytes, end: int, what: str) -> None:
    """The size equation of a columnar payload: its columns and blobs
    end exactly at the payload's end (checked before anything is cut)."""
    if end != len(payload):
        raise ProtocolError(
            f"{what} should be {end} bytes by its columns, got {len(payload)}"
        )


def _cut(payload: bytes, start: int, lengths: Sequence[int]) -> List[bytes]:
    """The consecutive pieces of ``lengths`` bytes starting at ``start``."""
    bounds = list(accumulate(lengths, initial=start))
    return [payload[low:high] for low, high in zip(bounds, bounds[1:])]


def encode_get_many_request(user: int, keys: Sequence[bytes]) -> bytes:
    """GET_MANY request payload: user id, key count, the key-length
    column (u16 each), then the keys back to back."""
    count = len(keys)
    return b"".join((_GET_MANY_PREFIX.pack(user, count),
                     struct.pack(f"!{count}H", *_key_lengths(keys)),
                     *keys))


def decode_get_many_request(payload: bytes) -> Tuple[int, List[bytes]]:
    """Inverse of :func:`encode_get_many_request`."""
    if len(payload) < _GET_MANY_PREFIX.size:
        raise ProtocolError("truncated GET_MANY request")
    user, count = _GET_MANY_PREFIX.unpack_from(payload)
    blob_at = _GET_MANY_PREFIX.size + 2 * count
    if blob_at > len(payload):
        raise ProtocolError("truncated GET_MANY key-length column")
    lengths = struct.unpack_from(f"!{count}H", payload, _GET_MANY_PREFIX.size)
    _expect_end(payload, blob_at + sum(lengths), "GET_MANY request")
    return user, _cut(payload, blob_at, lengths)


def _check_put_flags(flags: int) -> int:
    if flags & ~_KNOWN_PUT_FLAGS:
        raise ProtocolError(f"unknown PUT flag bits 0x{flags & ~_KNOWN_PUT_FLAGS:x}")
    return flags


def encode_put_request(user: int, key: bytes, value: bytes,
                       flags: int = 0) -> bytes:
    """PUT request payload: user + flags + key + length-prefixed value."""
    return (_PUT_PREFIX.pack(user, _check_put_flags(flags),
                             len(_check_key(key)))
            + key + _U32.pack(len(value)) + value)


def decode_put_request(payload: bytes) -> Tuple[int, bytes, bytes, int]:
    """Inverse of :func:`encode_put_request`: (user, key, value, flags)."""
    if len(payload) < _PUT_PREFIX.size:
        raise ProtocolError("truncated PUT request")
    user, flags, key_len = _PUT_PREFIX.unpack_from(payload)
    _check_put_flags(flags)
    offset = _PUT_PREFIX.size
    if len(payload) < offset + key_len + _U32.size:
        raise ProtocolError("truncated PUT key")
    key = payload[offset:offset + key_len]
    offset += key_len
    value_len = _U32.unpack_from(payload, offset)[0]
    offset += _U32.size
    if len(payload) - offset != value_len:
        raise ProtocolError(
            f"PUT value length mismatch: header says {value_len}, "
            f"got {len(payload) - offset}"
        )
    return user, key, payload[offset:], flags


def encode_put_many_request(user: int, items: Sequence[Tuple[bytes, bytes]],
                            flags: int = 0) -> bytes:
    """PUT_MANY request payload: user, flags, item count, the key-length
    column (u16 each), the value-length column (u32 each), then the keys
    back to back and the values back to back."""
    count = len(items)
    keys = [key for key, _ in items]
    values = [value for _, value in items]
    return b"".join((
        _PUT_MANY_PREFIX.pack(user, _check_put_flags(flags), count),
        struct.pack(f"!{count}H", *_key_lengths(keys)),
        struct.pack(f"!{count}I", *map(len, values)),
        *keys, *values))


def decode_put_many_request(payload: bytes
                            ) -> Tuple[int, List[Tuple[bytes, bytes]], int]:
    """Inverse of :func:`encode_put_many_request`: (user, items, flags)."""
    if len(payload) < _PUT_MANY_PREFIX.size:
        raise ProtocolError("truncated PUT_MANY request")
    user, flags, count = _PUT_MANY_PREFIX.unpack_from(payload)
    _check_put_flags(flags)
    value_lengths_at = _PUT_MANY_PREFIX.size + 2 * count
    blob_at = value_lengths_at + 4 * count
    if blob_at > len(payload):
        raise ProtocolError("truncated PUT_MANY length columns")
    key_lengths = struct.unpack_from(f"!{count}H", payload,
                                     _PUT_MANY_PREFIX.size)
    value_lengths = struct.unpack_from(f"!{count}I", payload,
                                       value_lengths_at)
    values_at = blob_at + sum(key_lengths)
    _expect_end(payload, values_at + sum(value_lengths), "PUT_MANY request")
    return (user, list(zip(_cut(payload, blob_at, key_lengths),
                           _cut(payload, values_at, value_lengths))), flags)


def encode_put_many_response(count: int, sim_us: float) -> bytes:
    """PUT_MANY response payload: records stored + batch simulated time."""
    return _PUT_MANY_RESPONSE.pack(count, sim_us)


def decode_put_many_response(payload: bytes) -> Tuple[int, float]:
    """Inverse of :func:`encode_put_many_response`."""
    if len(payload) != _PUT_MANY_RESPONSE.size:
        raise ProtocolError(
            f"PUT_MANY response must be {_PUT_MANY_RESPONSE.size} bytes, "
            f"got {len(payload)}"
        )
    return _PUT_MANY_RESPONSE.unpack(payload)


def encode_delete_request(user: int, key: bytes) -> bytes:
    """DELETE request payload: identical shape to a GET request."""
    return encode_get_request(user, key)


def decode_delete_request(payload: bytes) -> Tuple[int, bytes]:
    """Inverse of :func:`encode_delete_request`."""
    if len(payload) < _GET_PREFIX.size:
        raise ProtocolError("truncated DELETE request")
    user, key_len = _GET_PREFIX.unpack_from(payload)
    key = payload[_GET_PREFIX.size:]
    if len(key) != key_len:
        raise ProtocolError(
            f"DELETE key length mismatch: header says {key_len}, got {len(key)}"
        )
    return user, key


def encode_result(response: Response, sim_us: float) -> bytes:
    """One request outcome: status + server-side simulated elapsed time
    + optional value.  The ``sim_us`` field is the server-reported simulated
    response time — the side channel, measured where the SimClock lives."""
    value = response.value
    head = _RESULT_PREFIX.pack(_CODE_BY_NAME[response.status._name_], sim_us,
                               0 if value is None else 1)
    if value is None:
        return head
    return head + _U32.pack(len(value)) + value


def decode_result(payload: bytes, offset: int = 0
                  ) -> Tuple[Response, float, int]:
    """Decode one result at ``offset``; returns (response, sim_us, next)."""
    if len(payload) < offset + _RESULT_PREFIX.size:
        raise ProtocolError("truncated result")
    code, sim_us, has_value = _RESULT_PREFIX.unpack_from(payload, offset)
    if code >= len(_STATUSES):
        raise ProtocolError(f"unknown status code {code}")
    offset += _RESULT_PREFIX.size
    if has_value == 0:
        return _BARE[code], sim_us, offset
    if has_value != 1:
        raise ProtocolError(f"bad has-value marker {has_value}")
    if len(payload) < offset + _U32.size:
        raise ProtocolError("truncated result value length")
    value_len = _U32.unpack_from(payload, offset)[0]
    offset += _U32.size
    if len(payload) < offset + value_len:
        raise ProtocolError("truncated result value")
    return (Response(_STATUSES[code], payload[offset:offset + value_len]),
            sim_us, offset + value_len)


def encode_get_many_response(results: Sequence[Tuple[Response, float]]
                             ) -> bytes:
    """GET_MANY response payload, one column per field.

    Count, the sim-µs column (f64 each), the status column (one byte
    each), then the value section: the number of values present (u32)
    and, when that is not 0, their length column (u32 each), the
    presence column (one byte per result: 1 carries a value, 0 is
    ``None``) and the values back to back.  An empty value is present.
    """
    count = len(results)
    responses = [response for response, _ in results]
    values = [response.value for response in responses]
    present = [value for value in values if value is not None]
    parts = [_U32.pack(count),
             struct.pack(f"!{count}d", *[sim_us for _, sim_us in results]),
             bytes([_CODE_BY_NAME[response.status._name_]
                    for response in responses]),
             _U32.pack(len(present))]
    if present:
        parts.append(struct.pack(f"!{len(present)}I", *map(len, present)))
        parts.append(bytes([value is not None for value in values]))
        parts.extend(present)
    return b"".join(parts)


def decode_get_many_columns(payload: bytes
                            ) -> Tuple[List[Response], Tuple[float, ...]]:
    """Inverse of :func:`encode_get_many_response`, as its two columns:
    the responses and their simulated µs, in request order.

    A result without a value decodes to the one shared ``Response`` of
    its status.
    """
    size = len(payload)
    if size < _U32.size:
        raise ProtocolError("truncated GET_MANY response")
    count = _U32.unpack_from(payload)[0]
    codes_at = _U32.size + 8 * count
    present_at = codes_at + count
    if present_at + _U32.size > size:
        raise ProtocolError("truncated GET_MANY response columns")
    sim_us = struct.unpack_from(f"!{count}d", payload, _U32.size)
    codes = payload[codes_at:present_at]
    if codes and max(codes) >= len(_STATUSES):
        raise ProtocolError(f"unknown status code {max(codes)}")
    responses = list(map(_BARE.__getitem__, codes))
    present = _U32.unpack_from(payload, present_at)[0]
    lengths_at = present_at + _U32.size
    if not present:
        _expect_end(payload, lengths_at, "GET_MANY response")
        return responses, sim_us
    flags_at = lengths_at + 4 * present
    blob_at = flags_at + count
    if blob_at > size:
        raise ProtocolError("truncated GET_MANY value columns")
    lengths = struct.unpack_from(f"!{present}I", payload, lengths_at)
    _expect_end(payload, blob_at + sum(lengths), "GET_MANY response")
    flags = payload[flags_at:blob_at]
    if flags.count(1) != present or flags.count(0) != count - present:
        raise ProtocolError(
            f"GET_MANY presence column does not hold {present} ones "
            f"among zeros")
    index = -1
    for value in _cut(payload, blob_at, lengths):
        index = flags.index(1, index + 1)
        responses[index] = Response(_STATUSES[codes[index]], value)
    return responses, sim_us


@dataclass(frozen=True)
class StatsSnapshot:
    """Server-side counters exposed over the wire (STATS response).

    The one declaration of the record: the payload is one name/type/value
    record per field (a ``float`` as f64, an ``int`` as u64).  A new
    counter is a field here plus the layer that owns it adding it in its
    ``stats_fields`` (DESIGN.md, "Adding a STATS counter"); a peer that
    does not know the name skips its record and one that does not send
    it leaves the default, so it is not a protocol version bump.
    """

    sim_now_us: float = 0.0
    requests: int = 0
    ok: int = 0
    not_found: int = 0
    unauthorized: int = 0
    eviction_wait_us: float = 0.0
    stalled_requests: int = 0
    total_stall_us: float = 0.0
    #: Online-defense decision counters (DESIGN.md §11); zeros without a
    #: defense layer.
    flagged_users: int = 0
    throttle_escalations: int = 0
    noise_injections: int = 0
    #: Compactions installed so far (foreground or background) and
    #: background-compaction thread cycles; zeros in sync-only stores.
    compactions_run: int = 0
    background_cycles: int = 0
    #: Bounded range reads served (DESIGN.md §13).
    range_queries: int = 0


#: A STATS record's value codec by its type byte, the struct letter of
#: the value: every value is 8 bytes, so a record's size is known from
#: its name length alone.
_STATS_CODECS = {ord("d"): _F64, ord("Q"): _U64}
#: Field name (as on the wire) -> (field name, type byte), in field
#: order.  (Annotations are strings under ``from __future__ import
#: annotations``.)
_STATS_FIELDS = {
    field.name.encode("ascii"): (field.name,
                                 ord({"float": "d", "int": "Q"}[field.type]))
    for field in fields(StatsSnapshot)}


def encode_stats_response(stats: StatsSnapshot) -> bytes:
    """STATS response payload: record count (u16), then per field one
    record: name length (u8), name (ASCII), type byte, 8-byte value."""
    parts = [_U16.pack(len(_STATS_FIELDS))]
    for (raw, (_, code)), value in zip(_STATS_FIELDS.items(),
                                       astuple(stats)):
        parts.append(bytes([len(raw)]) + raw + bytes([code])
                     + _STATS_CODECS[code].pack(value))
    return b"".join(parts)


def decode_stats_response(payload: bytes) -> StatsSnapshot:
    """Inverse of :func:`encode_stats_response`.

    A record whose name this build does not know is skipped; a field no
    record names keeps its default.  A known name with the wrong type
    byte, a repeated name or an unknown type byte is malformed.
    """
    if len(payload) < _U16.size:
        raise ProtocolError("truncated STATS response")
    count = _U16.unpack_from(payload)[0]
    offset = _U16.size
    values = {}
    for _ in range(count):
        if offset >= len(payload):
            raise ProtocolError("truncated STATS record")
        name_at = offset + 1
        code_at = name_at + payload[offset]
        offset = code_at + 1 + 8
        if offset > len(payload):
            raise ProtocolError("truncated STATS record")
        codec = _STATS_CODECS.get(payload[code_at])
        if codec is None:
            raise ProtocolError(
                f"unknown STATS value type {payload[code_at]}")
        known = _STATS_FIELDS.get(payload[name_at:code_at])
        if known is None:
            continue  # a counter this build does not have
        name, code = known
        if payload[code_at] != code:
            raise ProtocolError(f"STATS field {name} has the wrong type")
        if name in values:
            raise ProtocolError(f"STATS field {name} sent twice")
        values[name] = codec.unpack_from(payload, code_at + 1)[0]
    _expect_end(payload, offset, "STATS response")
    return StatsSnapshot(**values)


def encode_wait_request(duration_us: float) -> bytes:
    """WAIT request payload: how long the attacker lets ambient load run."""
    if duration_us < 0:
        raise ProtocolError(f"cannot wait a negative duration {duration_us}")
    return _F64.pack(duration_us)


def decode_wait_request(payload: bytes) -> float:
    """Inverse of :func:`encode_wait_request`."""
    if len(payload) != _F64.size:
        raise ProtocolError("WAIT request must carry exactly one f64")
    duration_us = _F64.unpack(payload)[0]
    if not 0 <= duration_us < math.inf:
        raise ProtocolError(
            f"WAIT duration must be finite and >= 0, got {duration_us}")
    return duration_us


def encode_wait_response(sim_now_us: float) -> bytes:
    """WAIT response payload: the server's simulated clock afterwards."""
    return _F64.pack(sim_now_us)


def decode_wait_response(payload: bytes) -> float:
    """Inverse of :func:`encode_wait_response`."""
    if len(payload) != _F64.size:
        raise ProtocolError("WAIT response must carry exactly one f64")
    return _F64.unpack(payload)[0]


def encode_error(code: int, message: str) -> bytes:
    """ERROR response payload: code + utf-8 message."""
    raw = message.encode("utf-8")[:MAX_KEY_BYTES]
    return struct.pack("!BH", code, len(raw)) + raw


def decode_error(payload: bytes) -> Tuple[int, str]:
    """Inverse of :func:`encode_error`."""
    if len(payload) < 3:
        raise ProtocolError("truncated error payload")
    code, msg_len = struct.unpack_from("!BH", payload)
    raw = payload[3:]
    if len(raw) != msg_len:
        raise ProtocolError("error message length mismatch")
    return code, raw.decode("utf-8", errors="replace")
