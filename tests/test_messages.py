"""Wire codec: reference bytes, invariants, error taxonomy, round-trips."""

import json
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mergeguard.messages import (BadMagic, BadVersion, CamPayload, CodecError,
                                 CpmPayload, DenmPayload, InvalidMessage,
                                 InvariantViolation, Message, MsgType,
                                 ObjectClass, PerceivedObject, SensorInfo,
                                 SensorType, StationType, TruncatedPayload,
                                 UnknownType, decode_message, encode_message,
                                 from_json_dict, to_json_dict,
                                 CAM_SIZE, DENM_SIZE, HEADER_SIZE, MAGIC,
                                 OBJECT_SIZE, PROTOCOL_VERSION, SENSOR_SIZE)

# A passenger-car CAM from station 7 at t=1000 ms, everything else zero.
# 17-byte header (magic, version, type, station, timestamp, payload_len)
# followed by the 13-byte CAM body; payload_len must honestly say 13.
REFERENCE_CAM_HEX = (
    "56" "01" "01" "00000007" "00000000000003e8" "000d"
    "05" "00000000" "00000000" "0000" "0000")
REFERENCE_CAM = Message(7, 1000, CamPayload(StationType.PASSENGER_CAR, 0, 0, 0, 0))


def make_cam(**kw):
    fields = dict(station_type=StationType.PASSENGER_CAR, pos_x_cm=-8280,
                  pos_y_cm=0, speed_cms=2200, heading_cdeg=0)
    fields.update(kw)
    return CamPayload(**fields)


class TestLayout:
    def test_sizes(self):
        assert HEADER_SIZE == 17
        assert CAM_SIZE == 13
        assert SENSOR_SIZE == 4
        assert OBJECT_SIZE == 15
        assert DENM_SIZE == 18

    def test_reference_cam_bytes(self):
        data = encode_message(REFERENCE_CAM)
        assert data.hex() == REFERENCE_CAM_HEX
        assert decode_message(data) == REFERENCE_CAM

    def test_payload_len_is_honest(self):
        for msg in [
            REFERENCE_CAM,
            Message(100, 5, CpmPayload(
                (SensorInfo(0, SensorType.CAMERA, 1500),),
                (PerceivedObject(3, ObjectClass.CAR, -7000, 0, -950, 120),))),
            Message(200, 9, DenmPayload(3, 17, 13430, 0, 60, 0, 200)),
        ]:
            data = encode_message(msg)
            claimed = struct.unpack_from("!H", data, 15)[0]
            assert claimed == len(data) - HEADER_SIZE

    def test_msg_type_codes(self):
        assert MsgType.CAM == 1 and MsgType.CPM == 2 and MsgType.DENM == 3

    def test_cpm_sizes_scale_with_counts(self):
        sensors = tuple(SensorInfo(i, SensorType.CAMERA, 1000) for i in range(2))
        objects = tuple(PerceivedObject(i, ObjectClass.CAR, 0, 0, 0, 0)
                        for i in range(3))
        data = encode_message(Message(1, 0, CpmPayload(sensors, objects)))
        # one count byte per list
        assert len(data) == HEADER_SIZE + 1 + 2 * SENSOR_SIZE + 1 + 3 * OBJECT_SIZE


class TestDecodeErrors:
    def test_empty_buffer(self):
        with pytest.raises(TruncatedPayload):
            decode_message(b"")

    def test_bad_magic(self):
        data = encode_message(REFERENCE_CAM)
        with pytest.raises(BadMagic):
            decode_message(b"\x00" + data[1:])

    def test_bad_version(self):
        data = encode_message(REFERENCE_CAM)
        with pytest.raises(BadVersion):
            decode_message(data[:1] + b"\x02" + data[2:])

    def test_unknown_type(self):
        data = encode_message(REFERENCE_CAM)
        with pytest.raises(UnknownType):
            decode_message(data[:2] + b"\x09" + data[3:])

    def test_short_header(self):
        data = encode_message(REFERENCE_CAM)
        with pytest.raises(TruncatedPayload):
            decode_message(data[:HEADER_SIZE - 1])

    def test_truncated_payload(self):
        data = encode_message(REFERENCE_CAM)
        with pytest.raises(TruncatedPayload):
            decode_message(data[:-2])

    def test_trailing_garbage(self):
        data = encode_message(REFERENCE_CAM)
        with pytest.raises(InvariantViolation):
            decode_message(data + b"\x00")

    def test_inner_count_promises_more_than_present(self):
        payload = b"\x01"  # claims one sensor, provides none
        header = struct.pack("!BBBIQH", MAGIC, PROTOCOL_VERSION, 2, 5, 0,
                             len(payload))
        with pytest.raises(TruncatedPayload):
            decode_message(header + payload)

    def test_bad_station_type_on_wire(self):
        data = bytearray(encode_message(REFERENCE_CAM))
        data[HEADER_SIZE] = 7  # not a known station type
        with pytest.raises(InvariantViolation):
            decode_message(bytes(data))

    def test_heading_out_of_range_on_wire(self):
        data = bytearray(encode_message(REFERENCE_CAM))
        struct.pack_into("!H", data, HEADER_SIZE + 11, 36000)
        with pytest.raises(InvariantViolation):
            decode_message(bytes(data))

    def test_hop_count_over_budget_on_wire(self):
        msg = Message(9, 0, DenmPayload(3, 1, 0, 0, 60, 2, 9))
        data = encode_message(msg, max_hops=2)
        with pytest.raises(InvariantViolation):
            decode_message(data, max_hops=1)
        assert decode_message(data, max_hops=2) == msg

    def test_duplicate_object_ids_on_wire(self):
        good = Message(5, 0, CpmPayload((), (
            PerceivedObject(1, ObjectClass.CAR, 0, 0, 0, 0),
            PerceivedObject(2, ObjectClass.CAR, 0, 0, 0, 0))))
        data = bytearray(encode_message(good))
        # rewrite the second object's id to collide with the first
        offset = HEADER_SIZE + 1 + 1 + OBJECT_SIZE
        struct.pack_into("!H", data, offset, 1)
        with pytest.raises(InvariantViolation):
            decode_message(bytes(data))


class TestEncodeErrors:
    def test_heading_out_of_range(self):
        with pytest.raises(InvalidMessage):
            encode_message(Message(7, 0, make_cam(heading_cdeg=36000)))

    def test_position_overflows_i32(self):
        with pytest.raises(InvalidMessage):
            encode_message(Message(7, 0, make_cam(pos_x_cm=2**31)))

    def test_speed_negative(self):
        with pytest.raises(InvalidMessage):
            encode_message(Message(7, 0, make_cam(speed_cms=-1)))

    def test_hop_count_over_budget(self):
        msg = Message(9, 0, DenmPayload(3, 1, 0, 0, 60, 2, 9))
        with pytest.raises(InvalidMessage):
            encode_message(msg, max_hops=1)

    def test_duplicate_object_ids(self):
        payload = CpmPayload((), (PerceivedObject(1, ObjectClass.CAR, 0, 0, 0, 0),
                                  PerceivedObject(1, ObjectClass.CAR, 5, 5, 0, 0)))
        with pytest.raises(InvalidMessage):
            encode_message(Message(5, 0, payload))

    def test_station_id_overflows_u32(self):
        with pytest.raises(InvalidMessage):
            encode_message(Message(2**32, 0, make_cam()))

    @pytest.mark.parametrize("msg", [
        Message(7, 0, make_cam(pos_x_cm=-8280.0)),
        Message(7, 0, make_cam(heading_cdeg=None)),
        Message("7", 0, make_cam()),
    ], ids=["float pos_x_cm", "None heading_cdeg", "str station_id"])
    def test_non_integer_field(self, msg):
        with pytest.raises(InvalidMessage):
            encode_message(msg)

    def test_cpm_lists_hold_at_most_255(self):
        sensors = tuple(SensorInfo(i, SensorType.CAMERA, 0) for i in range(256))
        objects = tuple(PerceivedObject(i, ObjectClass.CAR, 0, 0, 0, 0) for i in range(256))
        full = Message(5, 0, CpmPayload(sensors[:255], objects[:255]))
        assert decode_message(encode_message(full)) == full
        for payload in (CpmPayload(sensors, ()), CpmPayload((), objects)):
            with pytest.raises(InvalidMessage):
                encode_message(Message(5, 0, payload))


# Every settable field's valid range, written out from the layout table in
# the module docstring (and narrowed where a domain rule says so), so the
# ranges that struct enforces are checked against an independent statement.
U8, U16, U32, U64 = (0, 2**8 - 1), (0, 2**16 - 1), (0, 2**32 - 1), (0, 2**64 - 1)
I16, I32 = (-2**15, 2**15 - 1), (-2**31, 2**31 - 1)
FIELD_RANGES = [
    ("header", "station_id", U32),
    ("header", "timestamp_ms", U64),
    ("cam", "station_type", (1, 15)),  # u8; StationType is 1, 5 or 15
    ("cam", "pos_x_cm", I32),
    ("cam", "pos_y_cm", I32),
    ("cam", "speed_cms", U16),
    ("cam", "heading_cdeg", (0, 35999)),  # u16; below 36000
    ("sensor", "sensor_id", U8),
    ("sensor", "sensor_type", (1, 1)),  # u8; CAMERA only
    ("sensor", "range_dm", U16),
    ("object", "object_id", U16),
    ("object", "object_class", (1, 3)),  # u8; ObjectClass is 1, 2 or 3
    ("object", "pos_x_cm", I32),
    ("object", "pos_y_cm", I32),
    ("object", "speed_cms", I16),
    ("object", "meas_delta_ms", U16),
    ("denm", "cause_code", U8),
    ("denm", "sequence_number", U16),
    ("denm", "event_pos_x_cm", I32),
    ("denm", "event_pos_y_cm", I32),
    ("denm", "validity_s", U16),
    ("denm", "hop_count", U8),  # up to max_hops, raised here past the width
    ("denm", "origin_station_id", U32),
]
WIDE_HOPS = 1000


def with_field(record, field, value):
    """A valid message whose ``record`` has ``field`` set to ``value``."""
    sensor = SensorInfo(0, SensorType.CAMERA, 1500)
    obj = PerceivedObject(3, ObjectClass.CAR, -7000, 0, -950, 120)
    if record == "header":
        return REFERENCE_CAM._replace(**{field: value})
    if record == "cam":
        return Message(7, 0, make_cam(**{field: value}))
    if record == "sensor":
        return Message(100, 0, CpmPayload((sensor._replace(**{field: value}),),
                                          (obj,)))
    if record == "object":
        return Message(100, 0, CpmPayload((sensor,),
                                          (obj._replace(**{field: value}),)))
    denm = DenmPayload(3, 17, 13430, 0, 60, 0, 200)
    return Message(200, 0, denm._replace(**{field: value}))


@pytest.mark.parametrize("record,field,bounds", FIELD_RANGES,
                         ids=[f"{r}.{f}" for r, f, _ in FIELD_RANGES])
def test_field_range(record, field, bounds):
    lo, hi = bounds
    for value in (lo, hi):
        msg = with_field(record, field, value)
        assert decode_message(encode_message(msg, max_hops=WIDE_HOPS),
                              max_hops=WIDE_HOPS) == msg
    for value in (lo - 1, hi + 1):
        with pytest.raises(InvalidMessage):
            encode_message(with_field(record, field, value), max_hops=WIDE_HOPS)


# --- round-trip properties --------------------------------------------------

station_ids = st.integers(0, 2**32 - 1)
timestamps = st.integers(0, 2**64 - 1)
i32 = st.integers(-2**31, 2**31 - 1)
u16 = st.integers(0, 2**16 - 1)

cams = st.builds(CamPayload,
                 station_type=st.sampled_from(list(StationType)),
                 pos_x_cm=i32, pos_y_cm=i32,
                 speed_cms=u16,
                 heading_cdeg=st.integers(0, 35999))

sensors = st.builds(SensorInfo,
                    sensor_id=st.integers(0, 255),
                    sensor_type=st.sampled_from(list(SensorType)),
                    range_dm=u16)


@st.composite
def cpms(draw):
    sensor_list = tuple(draw(st.lists(sensors, max_size=4)))
    ids = draw(st.lists(u16, max_size=6, unique=True))
    objects = tuple(
        PerceivedObject(object_id=i,
                        object_class=draw(st.sampled_from(list(ObjectClass))),
                        pos_x_cm=draw(i32), pos_y_cm=draw(i32),
                        speed_cms=draw(st.integers(-2**15, 2**15 - 1)),
                        meas_delta_ms=draw(u16))
        for i in ids)
    return CpmPayload(sensor_list, objects)


denms = st.builds(DenmPayload,
                  cause_code=st.integers(0, 255),
                  sequence_number=u16,
                  event_pos_x_cm=i32, event_pos_y_cm=i32,
                  validity_s=u16,
                  hop_count=st.integers(0, 1),
                  origin_station_id=station_ids)

messages = st.builds(Message, station_id=station_ids, timestamp_ms=timestamps,
                     payload=st.one_of(cams, cpms(), denms))


class TestRoundTrips:
    @given(messages)
    def test_wire_round_trip(self, msg):
        assert decode_message(encode_message(msg)) == msg

    @given(messages)
    def test_json_round_trip(self, msg):
        text = json.dumps(to_json_dict(msg))
        assert from_json_dict(json.loads(text)) == msg

    @given(messages)
    def test_encoding_is_deterministic(self, msg):
        assert encode_message(msg) == encode_message(msg)


class TestFuzz:
    def test_random_buffers_never_escape_the_taxonomy(self):
        rng = np.random.default_rng(2024)
        outcomes = set()
        for _ in range(20_000):
            n = int(rng.integers(0, 64))
            buf = rng.integers(0, 256, size=n, dtype=np.uint8).tobytes()
            try:
                decode_message(buf)
                outcomes.add("ok")
            except CodecError as exc:
                outcomes.add(type(exc).__name__)
        assert outcomes <= {"ok", "BadMagic", "BadVersion", "UnknownType",
                            "TruncatedPayload", "InvariantViolation"}

    def test_mutated_valid_frames(self):
        base = encode_message(Message(
            100, 123456, CpmPayload(
                (SensorInfo(0, SensorType.CAMERA, 1576),),
                (PerceivedObject(3, ObjectClass.CAR, -7000, 0, -950, 120),))))
        rng = np.random.default_rng(7)
        for _ in range(5_000):
            buf = bytearray(base)
            for _ in range(int(rng.integers(1, 4))):
                buf[int(rng.integers(0, len(buf)))] = int(rng.integers(0, 256))
            try:
                decode_message(bytes(buf))
            except CodecError:
                pass
