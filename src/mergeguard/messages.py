"""Binary wire codec for the V2X message set (CAM / CPM / DENM).

Every message is a fixed header followed by one type-specific payload,
all fields big-endian:

    header   magic=0x56 u8 | version=1 u8 | msg_type u8 | station_id u32
             | timestamp_ms u64 | payload_len u16                (17 bytes)
    CAM      station_type u8 | pos_x_cm i32 | pos_y_cm i32
             | speed_cms u16 | heading_cdeg u16                  (13 bytes)
    CPM      sensor_count u8 | sensors... | object_count u8 | objects...
             sensor   sensor_id u8 | sensor_type u8 | range_dm u16
             object   object_id u16 | object_class u8 | pos_x_cm i32
                      | pos_y_cm i32 | speed_cms i16 | meas_delta_ms u16
    DENM     cause_code u8 | sequence_number u16 | event_pos_x_cm i32
             | event_pos_y_cm i32 | validity_s u16 | hop_count u8
             | origin_station_id u32

Positions are centimetres in the shared road frame.  CAM speed is an
unsigned magnitude (heading gives direction); CPM object speed is signed
with negative meaning the object approaches the reporting camera.  The
DENM carries the originating station explicitly so relayed copies can be
de-duplicated by (origin_station_id, sequence_number).

A field's valid range is the range of its wire type above, so each CPM
list holds at most 255 entries and a value that is not an integer is
invalid.  Six domain rules come on top of the widths:

* CAM: ``station_type`` is 1, 5 or 15; ``heading_cdeg`` is below 36000;
* CPM: every ``sensor_type`` is CAMERA; every ``object_class`` is 1, 2 or
  3; object ids are unique within the message;
* DENM: ``hop_count`` is at most ``max_hops``.

``decode_message`` is total: any byte string either decodes to a valid
``Message`` or raises one of the classified errors below, never anything
else.  ``encode_message`` refuses to emit an invalid message.
"""

from __future__ import annotations

import struct
from enum import IntEnum
from operator import attrgetter
from typing import NamedTuple, Union

MAGIC = 0x56
PROTOCOL_VERSION = 1

HEADER_FORMAT = struct.Struct("!BBBIQH")
HEADER_SIZE = HEADER_FORMAT.size  # 17

CAM_FORMAT = struct.Struct("!BiiHH")
CAM_SIZE = CAM_FORMAT.size  # 13

SENSOR_FORMAT = struct.Struct("!BBH")
SENSOR_SIZE = SENSOR_FORMAT.size  # 4

OBJECT_FORMAT = struct.Struct("!HBiihH")
OBJECT_SIZE = OBJECT_FORMAT.size  # 15

DENM_FORMAT = struct.Struct("!BHiiHBI")
DENM_SIZE = DENM_FORMAT.size  # 18

_COUNT_FORMAT = struct.Struct("!B")  # length prefix of each CPM list

DEFAULT_MAX_HOPS = 1


class CodecError(Exception):
    """Base class for every error the codec can raise."""


class InvalidMessage(CodecError):
    """Encode was asked to serialize a message violating an invariant."""


class BadMagic(CodecError):
    """First byte is not 0x56."""


class BadVersion(CodecError):
    """Protocol version is not supported."""


class UnknownType(CodecError):
    """msg_type is not CAM/CPM/DENM."""


class TruncatedPayload(CodecError):
    """Input ends before the declared structure is complete."""


class InvariantViolation(CodecError):
    """Structurally complete input carries an invalid field value."""


class MsgType(IntEnum):
    CAM = 1
    CPM = 2
    DENM = 3


class StationType(IntEnum):
    PEDESTRIAN = 1  # used by the robot moderator
    PASSENGER_CAR = 5
    ROADSIDE_UNIT = 15


class ObjectClass(IntEnum):
    CAR = 1
    TRUCK_BUS = 2
    CYCLIST = 3


class SensorType(IntEnum):
    CAMERA = 1


class CamPayload(NamedTuple):
    station_type: int
    pos_x_cm: int
    pos_y_cm: int
    speed_cms: int  # unsigned magnitude
    heading_cdeg: int  # [0, 36000)


class SensorInfo(NamedTuple):
    sensor_id: int
    sensor_type: int
    range_dm: int


class PerceivedObject(NamedTuple):
    object_id: int
    object_class: int
    pos_x_cm: int
    pos_y_cm: int
    speed_cms: int  # signed; negative = approaching the camera
    meas_delta_ms: int


class CpmPayload(NamedTuple):
    sensors: tuple[SensorInfo, ...]
    objects: tuple[PerceivedObject, ...]


class DenmPayload(NamedTuple):
    cause_code: int
    sequence_number: int
    event_pos_x_cm: int
    event_pos_y_cm: int
    validity_s: int
    hop_count: int
    origin_station_id: int


Payload = Union[CamPayload, CpmPayload, DenmPayload]

_PAYLOAD_TYPES = {
    CamPayload: MsgType.CAM,
    CpmPayload: MsgType.CPM,
    DenmPayload: MsgType.DENM,
}


class Message(NamedTuple):
    station_id: int
    timestamp_ms: int
    payload: Payload

    @property
    def msg_type(self) -> MsgType:
        return _PAYLOAD_TYPES[type(self.payload)]


# Each fixed-size record's layout is its wire struct plus its record's
# ``_fields`` order, which is the wire order; every codec path derives from both.
_FORMATS = {CamPayload: CAM_FORMAT, SensorInfo: SENSOR_FORMAT,
            PerceivedObject: OBJECT_FORMAT, DenmPayload: DENM_FORMAT}
_VALUES = {cls: attrgetter(*cls._fields) for cls in _FORMATS}
_FIXED = {MsgType.CAM: CamPayload, MsgType.DENM: DenmPayload}


def _check_rules(msg: Message, error: type[CodecError], max_hops: int) -> None:
    """Enforce the domain rules; every field already fits its wire type."""
    p = msg.payload
    if type(p) is CamPayload:
        if p.station_type not in (1, 5, 15):
            raise error(f"station_type {p.station_type}")
        if p.heading_cdeg >= 36000:
            raise error(f"heading_cdeg {p.heading_cdeg}")
    elif type(p) is CpmPayload:
        for s in p.sensors:
            if s.sensor_type != SensorType.CAMERA:
                raise error(f"sensor_type {s.sensor_type}")
        for o in p.objects:
            if o.object_class not in (1, 2, 3):
                raise error(f"object_class {o.object_class}")
        if len({o.object_id for o in p.objects}) != len(p.objects):
            raise error("duplicate object_id")
    elif p.hop_count > max_hops:
        raise error(f"hop_count {p.hop_count} > max_hops {max_hops}")


def _pack_list(cls: type, records) -> bytes:
    """A CPM list on the wire: its count byte, then each record."""
    fmt, values = _FORMATS[cls], _VALUES[cls]
    return _COUNT_FORMAT.pack(len(records)) + b"".join([fmt.pack(*values(r)) for r in records])


def encode_message(msg: Message, *, max_hops: int = DEFAULT_MAX_HOPS) -> bytes:
    """Serialize to wire bytes; raises InvalidMessage on any bad field."""
    p = msg.payload
    mtype = _PAYLOAD_TYPES.get(type(p))
    if mtype is None:
        raise InvalidMessage(f"unknown payload type {type(p)!r}")
    try:
        if mtype is MsgType.CPM:
            payload = _pack_list(SensorInfo, p.sensors) + _pack_list(PerceivedObject, p.objects)
        else:
            payload = _FORMATS[type(p)].pack(*_VALUES[type(p)](p))
        header = HEADER_FORMAT.pack(MAGIC, PROTOCOL_VERSION, mtype,
                                    msg.station_id, msg.timestamp_ms, len(payload))
    except struct.error as exc:
        raise InvalidMessage(f"{mtype.name} message does not fit the wire: {exc}") from None
    _check_rules(msg, InvalidMessage, max_hops)
    return header + payload


def _unpack_list(cls: type, data: bytes, off: int) -> tuple[tuple, int]:
    """The count-prefixed CPM list starting at ``off``, and the offset after it."""
    if len(data) <= off:
        raise TruncatedPayload(f"CPM missing {cls.__name__} count")
    end = off + 1 + data[off] * _FORMATS[cls].size
    if len(data) < end:
        raise TruncatedPayload(f"CPM {cls.__name__} list truncated")
    return tuple(cls(*v) for v in _FORMATS[cls].iter_unpack(data[off + 1:end])), end


def decode_message(data: bytes, *, max_hops: int = DEFAULT_MAX_HOPS) -> Message:
    """Parse wire bytes back into the unique Message that encodes to them.

    Raises BadMagic, BadVersion, UnknownType, TruncatedPayload or
    InvariantViolation; arbitrary input can produce nothing else.
    """
    if len(data) < 1:
        raise TruncatedPayload("empty input")
    if data[0] != MAGIC:
        raise BadMagic(f"magic byte 0x{data[0]:02X}")
    if len(data) < 2:
        raise TruncatedPayload("input ends before version byte")
    if data[1] != PROTOCOL_VERSION:
        raise BadVersion(f"version {data[1]}")
    if len(data) < HEADER_SIZE:
        raise TruncatedPayload(f"header is {len(data)} bytes, expected {HEADER_SIZE}")
    _, _, msg_type, station_id, timestamp_ms, payload_len = HEADER_FORMAT.unpack_from(data)
    try:
        mtype = MsgType(msg_type)
    except ValueError:
        raise UnknownType(f"msg_type {msg_type}") from None
    if len(data) < HEADER_SIZE + payload_len:
        raise TruncatedPayload(
            f"payload_len says {payload_len}, only {len(data) - HEADER_SIZE} bytes follow")
    if len(data) > HEADER_SIZE + payload_len:
        raise InvariantViolation(
            f"{len(data) - HEADER_SIZE - payload_len} trailing bytes after payload")
    body = data[HEADER_SIZE:]
    if mtype is MsgType.CPM:
        sensors, off = _unpack_list(SensorInfo, body, 0)
        objects, off = _unpack_list(PerceivedObject, body, off)
        if off != len(body):
            raise InvariantViolation(f"{len(body) - off} trailing bytes in CPM payload")
        payload: Payload = CpmPayload(sensors, objects)
    else:
        fmt = _FORMATS[_FIXED[mtype]]
        if len(body) != fmt.size:
            raise (TruncatedPayload if len(body) < fmt.size else InvariantViolation)(
                f"{mtype.name} payload is {len(body)} bytes, expected {fmt.size}")
        payload = _FIXED[mtype](*fmt.unpack(body))
    msg = Message(station_id, timestamp_ms, payload)
    _check_rules(msg, InvariantViolation, max_hops)
    return msg


def to_json_dict(msg: Message) -> dict:
    """Canonical JSON form; field names match the wire layout exactly."""
    p = msg.payload
    if isinstance(p, CpmPayload):
        body = {"sensors": [s._asdict() for s in p.sensors],
                "objects": [o._asdict() for o in p.objects]}
    else:
        body = p._asdict()
    return {"msg_type": msg.msg_type.name, "station_id": msg.station_id,
            "timestamp_ms": msg.timestamp_ms, "payload": body}


def _from_json(cls: type, obj: dict):
    return cls(*[obj[name] for name in cls._fields])


def from_json_dict(obj: dict) -> Message:
    """Inverse of to_json_dict."""
    mtype = MsgType[obj["msg_type"]]
    body = obj["payload"]
    if mtype is MsgType.CPM:
        payload: Payload = CpmPayload(
            tuple(_from_json(SensorInfo, s) for s in body["sensors"]),
            tuple(_from_json(PerceivedObject, o) for o in body["objects"]))
    else:
        payload = _from_json(_FIXED[mtype], body)
    return Message(obj["station_id"], obj["timestamp_ms"], payload)
