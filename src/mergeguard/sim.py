"""Deterministic fixed-tick simulation of the merge-moderation deployment.

A scenario (JSON, ``schema_version`` 1) describes one run: the road is a
single axis with the robot at the merge gate, infrastructure cameras
looking outward along the approaches, scripted vehicles, an optional
roadworks RSU and windows during which a merging vehicle waits at the
gate.  The engine advances in fixed ticks (default 0.05 s) and logs
every observable event.  Each tick runs the same stages in one order,
which fixes the order of the log and so is part of the determinism
contract:

    flush (due radio events) -> world (trajectories, zone crossings) ->
    sense (detections, perception, CPM) -> beacons (vehicle CAMs, robot
    CAM, RSU DENMs) -> decide (fusion, decision and issued actuation,
    every decision period) -> actuate (due completions) -> flush

Radio deliveries and queued sends (CPMs, CAMs, DENM copies) run in
order of due time, then push order; that order is part of the contract
too.  So the deliveries of one broadcast run in ascending receiver
order, after those of every earlier broadcast due at that time.
``flush`` builds, completes and logs the ``msg_rx`` event of each
reception, a DENM's fields included; ``hear`` applies what a reception
by the robot changes: its road picture and the relay of a new DENM.

Each event is logged as a plain tuple of its values in key order, the
type name second; ``EventLog.events`` builds their dicts on demand.
``log_to_jsonl`` writes each event from its shape's ``%`` template, the
line ``json`` writes for its dict (the event log section gives the rules).

The engine takes shortcuts that leave every byte of the log as it is,
such as skipping a vehicle no camera can see and queueing in sorted
batches.  ``docs/shortcuts.md`` lists each one: where it lives, the part
of ``tests/reference_engine.py`` that checks it (a plain engine that
takes none of them and must log the same bytes), and what it is worth.
Each one's argument for exactness sits next to its code.

All randomness (sensor draws, channel loss and jitter, CAM generation
jitter) comes from streams spawned off one seed, so a given (scenario,
seed) pair always produces a byte-identical event log.  Besides the
stage order above, the bytes rest on inputs from outside the package:
NumPy's ``SeedSequence.spawn`` and ``Generator`` ``random`` and
``normal`` streams (a test pins their first draws), ``float.__repr__``,
``int.__repr__`` and ``json``, ``math`` (``hypot`` in the channel,
``cos`` in ``hear``), and the rounding of every logged number: times to
9 decimals, positions, speeds and distances to 6, fused objects to 3,
each to exactly the float ``round(x, n)`` gives.  The engine and
``series`` round through ``_round9``, ``_round6`` and ``_round3``, which
reach that float with IEEE-754 double arithmetic and leave to ``round``
what they cannot prove.  A log's KPIs rest on ``orjson`` reading numbers
as ``float()`` and ``int()`` do, which a test pins too.

Scenario layout (see docs/scenario_schema.md for the field-by-field
reference)::

    {
      "schema_version": 1,
      "name": "...",
      "duration_s": 24.0, "tick_s": 0.05, "rng_seed": 7,
      "channel":  {"comm_range_m": 150.0, "loss_prob": 0.0, ...},
      "robot":    {"position": [0,0], "zod": {...},
                   "moderator": {"station_id": 1, ...}, "merging_detect_range_m": 15.0},
      "infra":    {"station_id": 100, "position": [0, 6],
                   "perception": {...}, "sensor": {...},
                   "cpm_processing_delay_s": 0.0, "cameras": [...]},
      "entities": [{"station_id": 7, "object_class": 1,
                    "v2x_equipped": true, "cam_period_s": 0.5,
                    "trajectory": [{"start_time_s": 0.0, "start_x_m": -82.8,
                                    "speed_mps": 22.0, "accel_mps2": 0.0}, ...]}],
      "rsu":      {"station_id": 200, "position": [134.3, 0], "denm": {...}},
      "merging_windows": [{"start_s": 1.2, "end_s": 16.0, "distance_m": 0.0}]
    }
"""

from __future__ import annotations

import json
import math
import sys
from bisect import bisect_right
from collections.abc import Iterator, Sequence
from dataclasses import MISSING, dataclass, fields
from operator import attrgetter, eq, itemgetter
from typing import Callable, NamedTuple, get_args, get_origin, get_type_hints

import numpy as np
import orjson

from .calibration import CalibrationError, CalibrationModel, ReferenceLine
from .channel import Channel, ChannelConfig, ChannelError
from .decision import Action, DecisionState, ZodConfig, step
from .fusion import FusedObject, FusionConfig, Source, fuse
from .messages import (CamPayload, DenmPayload, InvalidMessage, Message,
                       ObjectClass, StationType, decode_message, encode_message)
from .moderator import Moderator, ModeratorConfig, RobotPose, robot_cam
from .perception import (CameraSetup, Detection, PerceptionConfig,
                         PerceptionError, PerceptionPipeline,
                         camera_speed_to_road)

SCHEMA_VERSION = 1
LOG_FORMAT_VERSION = 1

_TIME_EPS = 1e-9
_DUE = itemgetter(0)  # a queue entry's due time

# a radio-less vehicle is skipped while it is farther than this outside the
# zone and every camera's view, and only while its positions stay below the
# scale limit, where rounding moves a computed position by far less
_SPAN_MARGIN_M = 1.0
_SPAN_SCALE_MAX_M = 1e12

_STATION_ID_MAX = 0xFFFFFFFF  # the u32 station_id wire field
# the most tick-actors a run may take: ticks x (robot + entities + cameras);
# docs/scenario_schema.md gives the throughput it was picked from
_RUN_WORK_MAX = 10_000_000
# the most radio work a run may take: ticks x (robot + V2X entities)^2, as each
# of those stations may hear every other one on every tick;
# docs/scenario_schema.md gives the cost per delivery it was picked from
_RADIO_WORK_MAX = 10_000_000
_OBJECT_CLASSES = frozenset(ObjectClass)  # the CPM object_class rule


def _rounder(n: int) -> Callable[[float], float]:
    """A function that returns exactly ``round(x, n)``: fast where
    ``y = x * 10**n`` is below 5e11 in magnitude and more than 1e-4 from
    a half-integer, from ``round`` itself elsewhere (NaN, infinities,
    huge values, near-halves).

    Below 5e11, under 2**39, the double ``y`` is within 2**-15 of the
    exact product, so the integer ``k`` nearest ``y`` is the one nearest
    the product, which ``round`` writes out as decimal digits.  Adding and
    taking away 1.5 * 2**52 rounds ``y`` to ``k``, as the doubles the sum
    lies among are spaced one apart.  ``k / 10**n`` divides two exact
    doubles, so it is the double nearest ``k * 10**-n``, the one ``round``
    reads its digits back as.  A zero result keeps the sign of ``x``, as
    there.
    """
    scale = 10.0 ** n

    def rounded(x: float) -> float:
        y = x * scale
        if -5e11 < y < 5e11:
            k = y + 6755399441055744.0 - 6755399441055744.0
            if -0.4999 < y - k < 0.4999:
                return k / scale if k else math.copysign(0.0, x)
        return round(x, n)
    return rounded


# every number the engine and ``series`` log goes through one of these
_round9, _round6, _round3 = _rounder(9), _rounder(6), _rounder(3)


class ScenarioError(Exception):
    pass


class ParseError(ScenarioError):
    """Scenario file is not valid JSON."""


class ValidationError(ScenarioError):
    """Scenario JSON parses but violates a schema rule."""


# ---------------------------------------------------------------------------
# trajectories


@dataclass(frozen=True)
class TrajectorySegment:
    start_time_s: float
    start_x_m: float
    speed_mps: float
    accel_mps2: float

    def at(self, t_s: float) -> tuple[float, float]:
        """Position and signed velocity at time t, under this segment's motion."""
        dt = t_s - self.start_time_s
        return (self.start_x_m + self.speed_mps * dt + 0.5 * self.accel_mps2 * dt * dt,
                self.speed_mps + self.accel_mps2 * dt)


_START_TIME = attrgetter("start_time_s")


def eval_trajectory(segments: Sequence[TrajectorySegment], t_s: float) -> tuple[float, float]:
    """Position and signed velocity at time t (piecewise constant acceleration).

    The segment in force is the last one starting no later than
    ``t_s + _TIME_EPS``, found by bisection over the strictly increasing
    start times that the loader checks, so a call costs O(log segments).
    A time before the first start takes the first segment.
    """
    k = bisect_right(segments, t_s + _TIME_EPS, key=_START_TIME) or 1
    return segments[k - 1].at(t_s)


def _pace(segments: Sequence[TrajectorySegment], horizon_s: float,
          limit_m: float = _SPAN_SCALE_MAX_M) -> float | None:
    """Seconds per metre at the top speed of a trajectory up to ``horizon_s``
    (inf if it never moves), or None if its positions may reach ``limit_m``,
    by default so large that rounding could reach the span margin.

    The speed changes linearly within a segment, so its largest magnitude
    over a piece is at one of the piece's ends.  The terms that
    ``TrajectorySegment.at`` adds are bounded by the starts' magnitudes
    and twice the top speed times the horizon.
    """
    top = start = 0.0
    ends = [seg.start_time_s for seg in segments[1:]] + [horizon_s]
    for seg, end in zip(segments, ends):
        if seg.start_time_s > horizon_s:
            break
        end = min(end, horizon_s)
        top = max(top, abs(seg.speed_mps),
                  abs(seg.speed_mps + seg.accel_mps2 * (end - seg.start_time_s)))
        start = max(start, abs(seg.start_x_m))
    if not start + 2.0 * top * horizon_s < limit_m:
        return None
    return 1.0 / top if top else math.inf


def trajectory_summary(segments: Sequence[TrajectorySegment],
                       duration_s: float) -> tuple[float, float, float]:
    """(time until final stop, path length, mean speed while tracked).

    The stop time is the end of the last piece with any motion in it;
    a vehicle still moving at the end of the run stops "at" duration_s.
    """
    stop_time = 0.0
    path = 0.0
    for i, seg in enumerate(segments):
        t_end = segments[i + 1].start_time_s if i + 1 < len(segments) else duration_s
        t_end = min(t_end, duration_s)
        dt = t_end - seg.start_time_s
        if dt <= 0:
            continue
        v0, a = seg.speed_mps, seg.accel_mps2
        if v0 == 0.0 and a == 0.0:
            continue
        stop_time = t_end
        v1 = v0 + a * dt
        if a != 0.0 and v0 * v1 < 0.0:
            # velocity reverses inside the piece: split at the turning point,
            # where the speed is exactly zero
            t_turn = -v0 / a
            path += abs(v0 * t_turn + 0.5 * a * t_turn * t_turn)
            dt2 = dt - t_turn
            path += abs(0.5 * a * dt2 * dt2)
        else:
            path += abs(v0 * dt + 0.5 * a * dt * dt)
    mean = path / stop_time if stop_time > 0 else 0.0
    return stop_time, path, mean


# ---------------------------------------------------------------------------
# scenario model: one record per JSON object of a scenario file


@dataclass(frozen=True, kw_only=True)
class Entity:
    station_id: int = 0  # 0 = not V2X equipped
    object_class: int = 1
    v2x_equipped: bool | None = None  # None: equipped when station_id is not 0
    cam_period_s: float = 0.5
    trajectory: tuple[TrajectorySegment, ...]

    def __post_init__(self):
        if self.v2x_equipped is None:
            object.__setattr__(self, "v2x_equipped", self.station_id != 0)
        if self.v2x_equipped and self.station_id == 0:
            raise ValueError("v2x_equipped requires a non-zero station_id")
        if self.object_class not in _OBJECT_CLASSES:
            raise ValueError(f"object_class must be 1, 2 or 3, got {self.object_class}")
        segs = self.trajectory
        if not segs or segs[0].start_time_s != 0.0:
            raise ValueError("trajectory must start at 0")
        for prev, nxt in zip(segs, segs[1:]):
            if not nxt.start_time_s > prev.start_time_s:
                raise ValueError(f"overlapping segments at t={nxt.start_time_s}")
            x_end, v_end = prev.at(nxt.start_time_s)
            if not abs(x_end - nxt.start_x_m) <= 1e-6:
                raise ValueError(f"position discontinuity at t={nxt.start_time_s}")
            if not abs(v_end - nxt.speed_mps) <= 1e-6:
                raise ValueError(f"speed discontinuity at t={nxt.start_time_s}")


@dataclass(frozen=True)
class RobotSetup:
    moderator: ModeratorConfig = ModeratorConfig()
    zod: ZodConfig = ZodConfig()
    fusion: FusionConfig = FusionConfig()
    position: tuple[float, float] = (0.0, 0.0)
    merging_detect_range_m: float = 15.0
    decision_period_s: float = 0.2


@dataclass(frozen=True)
class SensorConfig:
    max_detect_mean_m: float = 110.1
    max_detect_std_m: float = 6.5
    detect_min_m: float = 80.0
    detect_max_m: float = 130.0
    detect_near_m: float = 5.0
    pixel_noise_std: float = 2.0

    def __post_init__(self):
        if self.detect_min_m > self.detect_max_m:
            raise ValueError("detect_min_m must not exceed detect_max_m")
        if self.max_detect_std_m < 0:
            raise ValueError("max_detect_std_m must be non-negative")
        if self.pixel_noise_std < 0:  # SensorModel draws from N(0, pixel_noise_std)
            raise ValueError("pixel_noise_std must be non-negative")
        if self.max_detect_std_m > 0:
            # SensorModel draws until a range falls inside the window
            scale = self.max_detect_std_m * math.sqrt(2.0)
            mass = 0.5 * (math.erf((self.detect_max_m - self.max_detect_mean_m) / scale)
                          - math.erf((self.detect_min_m - self.max_detect_mean_m) / scale))
            if not mass >= 1e-3:
                raise ValueError("[detect_min_m, detect_max_m] must hold at least 0.1% of "
                                 "N(max_detect_mean_m, max_detect_std_m)")


@dataclass(frozen=True, kw_only=True)
class InfraSetup:
    station_id: int
    position: tuple[float, float] = (0.0, 0.0)
    perception: PerceptionConfig = PerceptionConfig()
    sensor: SensorConfig = SensorConfig()
    cameras: tuple[CameraSetup, ...]
    cpm_processing_delay_s: float = 0.0

    def __post_init__(self):
        if not self.cameras:
            raise ValueError("cameras must not be empty")
        if len({c.camera_id for c in self.cameras}) != len(self.cameras):
            raise ValueError("camera ids must be unique")
        if self.cpm_processing_delay_s < 0:
            raise ValueError("cpm_processing_delay_s must be non-negative")


@dataclass(frozen=True)
class DenmSchedule:
    # DENMs are commonly repeated for reliability; every notification is
    # sent repeat_count times, repeat_gap_s apart, under one sequence number
    cause_code: int = 3  # roadworks
    period_s: float = 1.0
    start_s: float = 0.0
    end_s: float = math.inf  # the end of the run
    validity_s: int = 60
    repeat_count: int = 1
    repeat_gap_s: float = 0.1

    def __post_init__(self):
        if self.period_s <= 0:
            raise ValueError("period_s must be positive")
        if self.repeat_count < 1:
            raise ValueError("repeat_count must be at least 1")
        if self.repeat_gap_s < 0:
            raise ValueError("repeat_gap_s must be non-negative")


@dataclass(frozen=True)
class RsuSetup:
    station_id: int
    position: tuple[float, float] = (0.0, 0.0)
    denm: DenmSchedule = DenmSchedule()

    def notification(self, now_s: float, count: int) -> Message:
        """The DENM of the ``count``-th notification, sent at ``now_s``."""
        return Message(self.station_id, int(round(now_s * 1000.0)), DenmPayload(
            cause_code=self.denm.cause_code, sequence_number=count,
            event_pos_x_cm=int(round(self.position[0] * 100.0)),
            event_pos_y_cm=int(round(self.position[1] * 100.0)),
            validity_s=self.denm.validity_s, hop_count=0, origin_station_id=self.station_id))


def vehicle_cam(station_id: int, now_s: float, x: float, v: float) -> Message:
    """The CAM a V2X vehicle at road position ``x``, signed speed ``v``, sends at ``now_s``."""
    return Message(station_id, int(round(now_s * 1000.0)), CamPayload(
        station_type=StationType.PASSENGER_CAR, pos_x_cm=int(round(x * 100.0)), pos_y_cm=0,
        speed_cms=int(round(abs(v) * 100.0)), heading_cdeg=0 if v >= 0 else 18000))


@dataclass(frozen=True)
class MergingWindow:
    start_s: float
    end_s: float
    distance_m: float = 0.0

    def __post_init__(self):
        if not self.start_s < self.end_s:
            raise ValueError("start must precede end")
        if self.distance_m < 0:
            raise ValueError("distance must be non-negative")


@dataclass(frozen=True, kw_only=True)
class Scenario:
    name: str = "unnamed"
    duration_s: float
    tick_s: float = 0.05
    rng_seed: int
    channel: ChannelConfig = ChannelConfig()
    robot: RobotSetup
    entities: tuple[Entity, ...] = ()
    infra: InfraSetup | None = None
    rsu: RsuSetup | None = None
    merging_windows: tuple[MergingWindow, ...] = ()

    def merging_seen(self, now_s: float) -> bool:
        return any(w.start_s <= now_s < w.end_s
                   and w.distance_m <= self.robot.merging_detect_range_m
                   for w in self.merging_windows)


# ---------------------------------------------------------------------------
# scenario reader


def _number(val) -> bool:
    if type(val) is float:
        return math.isfinite(val)
    # the bound also rejects ints too large for float()
    return (isinstance(val, (int, float)) and not isinstance(val, bool)
            and abs(val) <= sys.float_info.max)


def _numbers(val, count: int | None = None) -> tuple[float, ...] | None:
    if (isinstance(val, (list, tuple)) and len(val) == (count or len(val))
            and all(map(_number, val))):
        return tuple(map(float, val))
    return None


# the type rules: what the JSON value must be, and its value (None if it is not)
_SCALARS = {
    float: ("a finite number", lambda v: float(v) if _number(v) else None),
    int: ("an integer",
          lambda v: int(v) if isinstance(v, int) and not isinstance(v, bool) else None),
    bool: ("true or false", lambda v: v if isinstance(v, bool) else None),
    str: ("a string", lambda v: v if isinstance(v, str) else None),
    tuple[float, float]: ("two finite numbers", lambda v: _numbers(v, 2)),
    tuple[float, ...]: ("a list of finite numbers", _numbers),
}


def _require(cond: bool, why: str) -> None:
    if not cond:
        raise ValidationError(why)


def _path(why: str, key: str) -> str:
    return f"{why}.{key}" if why else key


def _reader(hint):
    """``(kind, read)`` for a field annotated ``hint``.  A scalar's type rule
    (also for ``X | None``) names its kind, and ``read(value)`` is its value
    or None; any other field has kind None, and ``read(value, path)``."""
    if hint in _SCALARS:
        return _SCALARS[hint]
    args = get_args(hint)
    if type(None) in args:
        kind, read = _reader(args[0])
        return kind, (read if kind else lambda val, at: None if val is None else read(val, at))
    if get_origin(hint) is tuple:
        def read_list(val, at):
            if not isinstance(val, (list, tuple)):
                raise ValidationError(f"{at} must be a list")
            return tuple([_read(args[0], item, f"{at}[{i}]") for i, item in enumerate(val)])
        return None, read_list
    return None, lambda val, at: _read(hint, val, at)


def _field_table(cls) -> tuple[list, frozenset | None]:
    """``(name, kind, read, required)`` for each field of ``cls``; and the
    names its object may hold when it is read whole, else None."""
    hints = get_type_hints(cls)
    table = [(f.name, *_reader(hints[f.name]),
              f.default is MISSING and f.default_factory is MISSING)
             for f in fields(cls) if f.init]
    whole = all(kind for _, kind, _, _ in table)
    return table, frozenset(name for name, *_ in table) if whole else None


_FIELDS = {cls: _field_table(cls) for cls in (
    Scenario, ChannelConfig, RobotSetup, ModeratorConfig, ZodConfig, FusionConfig,
    InfraSetup, PerceptionConfig, SensorConfig, CameraSetup, ReferenceLine,
    CalibrationModel, Entity, TrajectorySegment, RsuSetup, DenmSchedule, MergingWindow)}


def _read(cls, raw, why: str):
    """The ``cls`` that the JSON object ``raw``, at path ``why``, describes.

    Each field comes from the key of its name, by its annotation: a scalar
    by the type rules, a record from an object, ``tuple[R, ...]`` from a
    list of objects, ``R | None`` from null or an R object.  A missing key
    leaves the field to its default, and is an error where it has none.  A
    record of scalars only is read whole, so a key naming none of its
    fields is an error; a record holding records ignores other keys.  What
    ``cls`` refuses becomes a ValidationError.
    """
    table, keys = _FIELDS[cls]
    if not isinstance(raw, dict):
        raise ValidationError(f"{why or 'scenario root'} must be an object")
    if keys is not None and not raw.keys() <= keys:
        unknown = ", ".join(sorted(map(repr, raw.keys() - keys)))
        raise ValidationError(f"{why}: unknown field {unknown}")
    kwargs = {}
    for name, kind, read, required in table:
        if name in raw:
            val = read(raw[name]) if kind else read(raw[name], _path(why, name))
            if val is None and kind:
                raise ValidationError(f"{_path(why, name)} must be {kind}")
            kwargs[name] = val
        elif required:
            raise ValidationError(f"missing field: {_path(why, name)}")
    try:
        return cls(**kwargs)
    except (ValueError, ChannelError, PerceptionError, CalibrationError) as exc:
        raise ValidationError(f"{why}: {exc}") from None


def _divisible(period: float, tick: float) -> bool:
    ratio = period / tick
    return math.isfinite(ratio) and abs(ratio - round(ratio)) < 1e-9 and round(ratio) >= 1


def scenario_from_dict(obj: dict) -> Scenario:
    _require(isinstance(obj, dict), "scenario root must be an object")
    version = obj.get("schema_version")
    _require(type(version) is int and version == SCHEMA_VERSION,
             f"schema_version must be {SCHEMA_VERSION}, got {version!r}")
    sc = _read(Scenario, obj, "")

    # rules across records
    duration, tick, robot, infra, rsu = sc.duration_s, sc.tick_s, sc.robot, sc.infra, sc.rsu
    _require(duration > 0, "duration_s must be positive")
    _require(tick > 0, "tick_s must be positive")
    _require(_divisible(duration, tick), "tick_s must divide duration_s")
    ticks = round(duration / tick) + 1
    actors = 1 + len(sc.entities) + (len(infra.cameras) if infra else 0)
    _require(ticks * actors <= _RUN_WORK_MAX,
             f"duration_s: {ticks} ticks x {actors} actors (robot, entities, cameras) "
             f"exceed the bound of {_RUN_WORK_MAX} tick-actors per run")
    stations = 1 + sum(ent.v2x_equipped for ent in sc.entities)
    _require(ticks * stations ** 2 <= _RADIO_WORK_MAX,
             f"entities: {ticks} ticks x {stations}^2 radio stations (robot, V2X entities) "
             f"exceed the bound of {_RADIO_WORK_MAX} per run")
    _require(sc.rng_seed >= 0, "rng_seed must be non-negative")
    # a STOP issued at any tick, the first to the last, completes at a writable time
    last, mod = (ticks - 1) * tick, robot.moderator  # the last tick's time
    _require(all(math.isfinite(t + mod.move_to_center_s + mod.raise_flag_s) for t in (0.0, last)),
             "duration_s + robot.moderator.move_to_center_s + raise_flag_s must be finite")
    _require(_divisible(robot.decision_period_s, tick),
             "tick_s must divide robot.decision_period_s")
    if infra:
        _require(_divisible(infra.perception.cpm_period_s, tick),
                 "tick_s must divide infra.perception.cpm_period_s")
        for i, cam in enumerate(infra.cameras):
            # the sensor model inverts the polynomial, so it must be increasing
            vals = [cam.calibration.raw(s) for s in np.linspace(0.0, cam.line.s_max, 101).tolist()]
            _require(all(b > a for a, b in zip(vals, vals[1:])),
                     f"infra.cameras[{i}]: calibration polynomial must increase over [0, s_max]")
    if rsu:
        denm = rsu.denm
        _require(denm.start_s <= min(denm.end_s, duration), "rsu.denm start must precede end")
        # a shorter period would send many notifications in one tick
        _require(denm.period_s >= tick, "rsu.denm.period_s must be at least tick_s")
        # the copies of one notification go out a tick apart at least, and
        # before the next notification
        _require(denm.repeat_count == 1 or denm.repeat_gap_s >= tick
                 and denm.repeat_count - 1 < denm.period_s / denm.repeat_gap_s,
                 "rsu.denm: repeat copies must be at least tick_s apart and fit in period_s")
        # the u16 sequence number tells 65536 notifications apart; beacons()
        # sends the next one when this holds
        _require(not denm.start_s + 65536 * denm.period_s <= min(denm.end_s, duration),
                 "rsu.denm: more than 65536 notifications in the run")

    # the messages the run sends, built as the engine builds them and encoded
    # once the station ids are known to fit: each V2X vehicle's CAM wherever
    # its speed or position can peak (a segment's ends and where its speed
    # crosses zero), then the robot's CAM, the RSU's DENM and the widest CPM.
    # The engine delivers the message it sent, not a decoded copy, so those
    # last three are also decoded, as a spot check that each kind of message
    # comes back from the wire unchanged
    probes = []
    for i, ent in enumerate(sc.entities):
        _require(_pace(ent.trajectory, last + _TIME_EPS, math.inf) is not None,
                 f"entities[{i}]: trajectory positions overflow a float during the run")
        if not ent.v2x_equipped:
            continue
        _require(_divisible(ent.cam_period_s, tick),
                 f"entities[{i}]: tick_s must divide cam_period_s")
        segs = ent.trajectory
        for seg, end in zip(segs, [s.start_time_s for s in segs[1:]] + [duration]):
            t0, v0, a = seg.start_time_s, seg.speed_mps, seg.accel_mps2
            turn = t0 - v0 / a if a else t0
            for t in (t0, end, turn) if t0 < turn < end else (t0, end):
                probes.append((f"entities[{i}]", vehicle_cam,
                               (ent.station_id, t, *seg.at(t))))

    station_ids = {"robot.moderator.station_id": mod.station_id,
                   **({"infra.station_id": infra.station_id} if infra else {}),
                   **({"rsu.station_id": rsu.station_id} if rsu else {}),
                   **{f"entities[{i}].station_id": e.station_id
                      for i, e in enumerate(sc.entities) if e.station_id != 0}}
    for why, sid in station_ids.items():
        _require(0 <= sid <= _STATION_ID_MAX,
                 f"{why} must be an integer in [0, {_STATION_ID_MAX}]")
    _require(len(set(station_ids.values())) == len(station_ids),
             "station ids must be unique across robot, infra, rsu and entities")

    # the last tick's timestamps fit the wire (the pose is robot.position's to check)
    probes.append(("duration_s", robot_cam, (mod.station_id, last, RobotPose())))
    n_vehicle_cams = len(probes)
    probes.append(("robot.position", robot_cam,
                   (mod.station_id, 0.0, RobotPose(*robot.position))))
    if rsu:
        probes.append(("rsu", rsu.notification, (0.0, 0)))
    if infra:
        probes.append(("infra.cameras", _widest_cpm, (infra, len(sc.entities))))
    for k, (why, build, args) in enumerate(probes):
        try:
            msg = build(*args)
            data = encode_message(msg, max_hops=mod.max_hops)
        except (InvalidMessage, OverflowError, ValueError,  # or not finite, scaled
                PerceptionError) as exc:  # an entity index too wide for a track id
            raise ValidationError(f"{why}: {exc}") from None
        if k >= n_vehicle_cams and decode_message(data, max_hops=mod.max_hops) != msg:
            raise ValidationError(f"{why}: does not survive the wire")
    return sc


def _widest_cpm(infra: InfraSetup, n_entities: int) -> Message:
    """The CPM with the widest values the cameras can send: a track at each
    end of every line, one of them the last entity's, aged to expiry.  Its
    ``ingest`` calls are how the loader enforces the 16,384-entity track-id
    rule, so they are meant to show in a count of ``ingest`` calls."""
    pipeline = PerceptionPipeline(infra.station_id, list(infra.cameras), infra.perception)
    for cam in infra.cameras:
        for track_id, end in ((0, cam.line.p0), (max(n_entities - 1, 1), cam.line.p1)):
            pipeline.ingest(Detection(cam.camera_id, track_id, end, ObjectClass.CAR, 0.0))
    return pipeline.assemble_cpm(infra.perception.track_expiry_s)


def load_scenario(path) -> Scenario:
    """Read and validate a scenario file.

    OSError passes through untouched (the caller decides how to report
    I/O trouble); bad JSON raises ParseError, schema violations
    ValidationError.  Neither message names the file: the caller does.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        obj = json.loads(data)
    # bad JSON, bytes that are not UTF-8, an integer too long; or nesting too deep
    except (ValueError, RecursionError) as exc:
        raise ParseError(str(exc)) from None
    return scenario_from_dict(obj)


# ---------------------------------------------------------------------------
# sensor model

# pixel-noise draws per refill of a sensor's buffer, unless one tick needs more
_NOISE_BLOCK = 1024


class SensorModel:
    """Per-vehicle acquisition range plus pixel noise on the line coordinate.

    Each vehicle's maximum detection range is drawn once from
    N(mean, std) truncated to [detect_min, detect_max]; a camera sees the
    vehicle whenever its distance lies between the near cutoff and the
    smaller of that range and the distance at the line's far end, so no
    camera sees a vehicle outside ``view_span``.  ``observe`` reports
    each such sighting with the true camera distance and an image point:
    the true line coordinate plus Gaussian pixel noise, one draw per
    sighting in camera-then-entity order, whatever the std (a zero std
    draws zeros, which move no point).  The noise is drawn from the
    stream in blocks, kept in a buffer that the model owns, and used in
    stream order, so each sighting gets the value that one scalar draw
    would give.  The true coordinate is the calibration's inverse at
    the true distance (``CalibrationModel.inverse``: closed form up to
    order 2, bisection above).

    Two skips rest on this model and leave every sighting as it was.
    The engine does not evaluate a radio-less vehicle while it is more
    than 1 m outside ``view_span`` and the zone, until its top speed could
    bring it back: before then no camera can see it.  And ``observe`` is
    told which vehicles to scan, and asks perception's gap rule once per
    sighting.  A dropped sample still takes its noise draw, so the stream
    that later sightings read does not change, but it gets no point: its
    inverse and its point are never computed.
    """

    def __init__(self, config: SensorConfig, cameras: Sequence[CameraSetup],
                 n_entities: int, rng: np.random.Generator):
        self.config = config
        self.cameras = sorted(cameras, key=lambda c: c.camera_id)
        self.rng = rng
        ranges = [self._draw_range() for _ in range(n_entities)]
        # (camera, near cutoff, the farthest distance it sees each entity at)
        self._views = []
        # (lowest, highest) road x that some camera may see, None if none
        self.view_span: tuple[float, float] | None = None
        ends = []
        for cam in self.cameras:
            far = cam.calibration.raw(cam.line.s_max)
            near = max(config.detect_near_m, cam.calibration.raw(0.0))
            reach = [min(r, far) for r in ranges]
            self._views.append((cam, near, reach))
            farthest = max(reach, default=-math.inf)
            if near <= farthest:
                ends += (cam.road_position_m + cam.direction_sign * d for d in (near, farthest))
        if ends:
            self.view_span = (min(ends), max(ends))
        self._noise: list[float] = []  # drawn from rng, used from _next on
        self._next = 0

    def _draw_range(self) -> float:
        cfg = self.config
        if cfg.max_detect_std_m == 0.0:
            return min(max(cfg.max_detect_mean_m, cfg.detect_min_m), cfg.detect_max_m)
        while True:
            r = float(self.rng.normal(cfg.max_detect_mean_m, cfg.max_detect_std_m))
            if cfg.detect_min_m <= r <= cfg.detect_max_m:
                return r

    def observe(self, now_s: float, positions: Sequence[float], indices: Sequence[int],
                keeps: Callable[[int, int, float], bool]
                ) -> list[tuple[int, int, float, tuple[float, float] | None]]:
        """This tick's sightings of the entities in ``indices`` (ascending),
        cameras in id order, entities in index order: one ``(camera_id,
        entity_index, distance_m, point)`` per in-view sample, with the true
        camera distance and the noisy image point, or None for a point when
        ``keeps(camera_id, entity_index, now_s)``, asked once per sighting,
        is false.
        """
        out, noise, pos = [], self._noise, self._next
        need = len(self._views) * len(indices)  # at most one draw per camera and entity
        if pos + need > len(noise):
            block = self.rng.normal(0.0, self.config.pixel_noise_std,
                                    max(_NOISE_BLOCK, need)).tolist()
            noise = self._noise = noise[pos:] + block
            pos = 0
        for cam, near, reach in self._views:
            cam_id, sign, road_x, inverse = (cam.camera_id, cam.direction_sign,
                                             cam.road_position_m, cam.calibration.inverse)
            line = cam.line
            s_max, (x0, y0), (ux, uy) = line.s_max, line.p0, line.direction
            for idx in indices:
                dist = sign * (positions[idx] - road_x)
                if not near <= dist <= reach[idx]:
                    continue
                if keeps(cam_id, idx, now_s):
                    s = min(max(inverse(dist, s_max) + noise[pos], 0.0), s_max)
                    out.append((cam_id, idx, dist, (x0 + s * ux, y0 + s * uy)))
                else:
                    out.append((cam_id, idx, dist, None))
                pos += 1
        self._next = pos
        return out


# ---------------------------------------------------------------------------
# event log


# An event is a tuple of its values in log order: ``t`` (rounded to 9
# decimals), ``type``, ``actor`` and the rest of its shape's fields; its
# type and length pick its shape.
_SHAPE_FIELDS = {
    "msg_tx": ["msg_type station_id timestamp_ms size_b"],
    "msg_rx": ["msg_type from_station timestamp_ms latency_s",
               "msg_type from_station timestamp_ms latency_s origin sequence hop_count duplicate"],
    "detection": ["camera_id track_id station_id cam_distance_m road_x_m first"],
    "cpm_gen": ["timestamp_ms n_objects"],
    "cam_gen": ["station_id pos_x_m speed_mps timestamp_ms"],
    "denm_relay": ["origin sequence hop_count"],
    "fusion_out": ["n_v2x n_camera objects"],
    "decision": ["mode action merging_seen blocking"],
    "actuation": ["phase", "phase completes_at"],
    "zod_enter": ["station_id road_x_m"],
    "zod_exit": ["station_id road_x_m"],
}
EVENT_TYPES = frozenset(_SHAPE_FIELDS)
# How a line writes each field, as ``json`` does: a float by %r, its repr
# (``append`` refuses NaN and infinities); a name as it is, as names hold
# only [A-Za-z0-9_]; a flag as the literal %b stands for, %.0s taking the
# bool; a list or a null ``blocking`` by ``json``; any other field, an int,
# by %d, ``int.__repr__`` even for a subclass.  Tests hold engine events to
# these types: an ``np.float64``, for one, has another repr.
_WRITE_AS = {name: rule for rule, names in [
    ("%r", "t latency_s cam_distance_m road_x_m pos_x_m speed_mps completes_at"),
    ('"%s"', "type actor msg_type mode action phase"),
    ("%b", "duplicate first merging_seen"),
    ("%s", "objects blocking")] for name in names.split()}


class _Shape(NamedTuple):
    fields: tuple[str, ...]
    floats: tuple[int, ...]  # where its float fields are
    write: Callable[[tuple], str]  # an event's JSON line


def _shape(rest: str) -> _Shape:
    fields = ("t", "type", "actor", *rest.split())
    rules = [_WRITE_AS.get(name, "%d") for name in fields]
    template = "{%s}" % ",".join(f'"{name}":{rule}' for name, rule in zip(fields, rules))
    templates = [template.replace("%b", word + "%.0s") for word in ("false", "true")]
    flag = "%b" in rules and rules.index("%b")  # False, or where the flag is
    nested = {i for i, rule in enumerate(rules) if rule == "%s"}

    def write(event: tuple) -> str:
        if nested:  # from a list: on Python 3.11, tuple() of a generator leaves
            # the collector's count one higher per call, moving collections later
            event = tuple([_TO_JSON(v) if i in nested else v for i, v in enumerate(event)])
        return templates[flag and event[flag]] % event
    floats = tuple(i for i, rule in enumerate(rules) if rule == "%r")
    return _Shape(fields, floats, write if flag or nested else template.__mod__)


def _by_size(rests: list[str]) -> tuple[_Shape | None, ...]:
    """A type's shapes, each at the index of its number of fields."""
    shapes = {len(shape.fields): shape for shape in map(_shape, rests)}
    return tuple(map(shapes.get, range(max(shapes) + 1)))


_SHAPES = {kind: _by_size(rests) for kind, rests in _SHAPE_FIELDS.items()}


class EventLog:
    """A run's events in order, each a tuple of one of the shapes above."""

    def __init__(self) -> None:
        self._events: list[tuple] = []

    def __len__(self) -> int:
        return len(self._events)

    def append(self, event: tuple) -> None:
        """Append ``event``, as every event is: its shape must be known, its
        floats finite and its time no earlier than the last one's."""
        try:
            shape = _SHAPES[event[1]][len(event)]
        except (KeyError, IndexError):
            shape = None
        if shape is None:
            raise ValueError(f"unknown event shape: {event[1]!r} with {len(event)} fields")
        for i in shape.floats:
            if not math.isfinite(event[i]):
                raise ValueError(f"event {shape.fields[i]} is not finite: {event[i]}")
        t, events = event[0], self._events
        if events and not t >= events[-1][0] - _TIME_EPS:
            raise ValueError(f"event log time regression: {t} after {events[-1][0]}")
        events.append(event)

    @property
    def events(self) -> _EventDicts:
        """The events as dicts of their fields, in order."""
        return _EventDicts(self._events)

    def of_type(self, event_type: str) -> list[dict]:
        return [_as_dict(e) for e in self._events if e[1] == event_type]


def _as_dict(event: tuple) -> dict:
    return dict(zip(_SHAPES[event[1]][len(event)].fields, event))


class _EventDicts(Sequence):
    """A log's events as dicts, each built when it is read and not kept, so
    that reading them takes no more memory than the tuples do."""

    def __init__(self, events: list[tuple]) -> None:
        self._events = events

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[dict]:
        return map(_as_dict, self._events)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [*map(_as_dict, self._events[i])]
        return _as_dict(self._events[i])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))


_TO_JSON = json.JSONEncoder(separators=(",", ":")).encode


def log_to_jsonl(header: dict, log: EventLog) -> str:
    """The JSONL text of a log: the header object on the first line, then
    one event object per line, each line ending in ``\\n``, all ASCII."""
    shapes = _SHAPES
    return "\n".join([_TO_JSON(header), *[shapes[e[1]][len(e)].write(e) for e in log._events], ""])


def _finite(token: str) -> float:
    if not math.isfinite(value := float(token)):
        raise ValueError(f"{token} is not a finite number")
    return value


# strict JSON: the NaN, Infinity and -Infinity that json.loads takes are
# refused, and so is a number too large for a float, which it reads as inf
_FROM_JSON = json.JSONDecoder(parse_constant=_finite, parse_float=_finite).decode


def _log_lines_from_jsonl(text: str) -> tuple[dict, list[dict]]:
    """``log_from_jsonl`` with ``json``: the reference for its meaning."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty log")
    try:
        header = _FROM_JSON(lines[0])
        if not isinstance(header, dict):
            raise ValueError("log header is not a JSON object")
        return header, [_FROM_JSON(ln) for ln in lines[1:]]
    except RecursionError as exc:  # a value nested too deep
        raise ValueError(str(exc)) from None


# digits as 0, so that a run of 19 digits shows as "0" * 19
_DIGITS_TO_0 = str.maketrans("123456789", "000000000")
# orjson recurses with no depth limit, about 32 bytes of stack a character of
# nesting (3.8.3): a line this long nests within about 1 MB
_ORJSON_LINE_MAX = 2 ** 15


def log_from_jsonl(text: str) -> tuple[dict, list[dict]]:
    """The header and events of a JSONL log, as ``log_to_jsonl`` writes it.

    Each non-blank line holds one strict JSON value, with no ``NaN`` or
    number that is not finite as a float, and the first one, the header,
    must be an object.  Blank lines are skipped and any line end that
    ``str.splitlines`` knows is taken.  Raises ``ValueError`` otherwise.

    ``orjson`` decodes each line as ``json`` does, but reads an integer
    outside [-2**63, 2**64), which has 19 digits or more, as a float.  So
    ``json`` reads, line by line, a text that is not ASCII, holds 19 digits
    in a row or a line over ``_ORJSON_LINE_MAX``, has a line ``orjson``
    refuses (a blank one, say) or a header that is not an object.  One
    difference is meant: ``orjson`` reads a line nested deeper than
    ``json``'s recursion limit (about 1,000 levels), which ``json`` refuses.
    """
    lines = text.isascii() and "0" * 19 not in text.translate(_DIGITS_TO_0) and text.splitlines()
    if lines and max(map(len, lines)) <= _ORJSON_LINE_MAX:
        lines.reverse()  # popped, each line is freed as it is decoded
        pop, loads = lines.pop, orjson.loads
        try:
            values = [loads(pop()) for _ in range(len(lines))]
            if isinstance(values[0], dict):
                return values[0], values[1:]
        except orjson.JSONDecodeError:
            pass  # the line reader below reads the text or raises what it finds
    return _log_lines_from_jsonl(text)


# ---------------------------------------------------------------------------
# engine


@dataclass
class RunResult:
    header: dict
    log: EventLog

    def to_jsonl(self) -> str:
        return log_to_jsonl(self.header, self.log)


class _Engine:
    """State of one run; ``run`` calls its stage methods once per tick, in order."""

    def __init__(self, scenario: Scenario, seed: int):
        chan_ss, sensor_ss, jitter_ss = np.random.SeedSequence(seed).spawn(3)
        self.scenario = scenario
        self.robot = robot_cfg = scenario.robot
        self.robot_id = robot_id = robot_cfg.moderator.station_id
        self.pose = RobotPose(*robot_cfg.position)
        self.channel = Channel(scenario.channel, chan_ss)
        self.moderator = Moderator(robot_cfg.moderator, jitter_seed=jitter_ss)
        self.perception = None
        self.sensor = None
        infra = scenario.infra
        if infra is not None:
            self.perception = PerceptionPipeline(infra.station_id, list(infra.cameras),
                                                 infra.perception)
            self.sensor = SensorModel(infra.sensor, infra.cameras, len(scenario.entities),
                                      np.random.default_rng(sensor_ss))

        self.log = EventLog()
        self.header = {
            "log_format": LOG_FORMAT_VERSION,
            "scenario": scenario.name,
            "schema_version": SCHEMA_VERSION,
            "seed": seed,
            "tick_s": scenario.tick_s,
            "duration_s": scenario.duration_s,
        }

        tick = scenario.tick_s
        # station labels and current radio positions; world() sets the
        # listeners' positions every tick of a run with a V2X vehicle
        self.labels: dict[int, str] = {robot_id: "robot"}
        self.positions: dict[int, tuple[float, float]] = {robot_id: robot_cfg.position}
        for label, setup in (("infra", infra), ("rsu", scenario.rsu)):
            if setup is not None:
                self.labels[setup.station_id] = label
                self.positions[setup.station_id] = setup.position
        self.veh_label = [f"veh{idx}" for idx in range(len(scenario.entities))]
        # (entity index, station id, CAM period in ticks) of each V2X vehicle
        self.v2x_vehicles = [(idx, ent.station_id, int(round(ent.cam_period_s / tick)))
                             for idx, ent in enumerate(scenario.entities) if ent.v2x_equipped]
        for idx, sid, _ in self.v2x_vehicles:
            self.labels[sid] = self.veh_label[idx]
        # the listeners and their positions; with no V2X vehicle, the robot
        # alone for the whole run, else rebuilt by world()
        self.receivers: list[tuple[int, tuple[float, float]]] = [(robot_id, robot_cfg.position)]

        # the queue of ``(due time, receiver id, sent)`` entries: ``pending``
        # in reverse run order, and the entries pushed since, in push order,
        # the earliest due at ``incoming_due``.  A receiver id of None
        # transmits the message ``sent``; the deliveries of one broadcast
        # share one ``sent`` tuple: the message, its type name, sender id,
        # ``timestamp_ms`` and that timestamp in seconds.  Plain values, so
        # the queue holds no reference cycle to the engine
        self.pending: list[tuple[float, int | None, tuple | Message]] = []
        self.incoming: list[tuple[float, int | None, tuple | Message]] = []
        self.incoming_due = math.inf
        self.denm_seen: set[tuple[int, int, int]] = set()  # (receiver, origin, sequence) heard

        # the robot's road picture: one object per station from the last
        # CAM received, and the objects of the newest CPM received
        self.v2x_objects: dict[int, FusedObject] = {}
        self.camera_objects: list[FusedObject] = []
        self.cpm_ms = -1  # the newest CPM's timestamp; the wire field is unsigned

        self.state = DecisionState()
        self.last_action: Action | None = None
        n = len(scenario.entities)
        self.station_ids = [e.station_id for e in scenario.entities]
        self.entity_x = [0.0] * n
        self.entity_v = [0.0] * n
        self.in_zone = [False] * n
        self.first_detected = [False] * n
        self.classes = [e.object_class for e in scenario.entities]
        self.rsu_sent = 0

        self.max_hops = robot_cfg.moderator.max_hops
        self.n_ticks = int(round(scenario.duration_s / tick))
        self.last_flush_s = self.n_ticks * tick + _TIME_EPS

        # the span where a vehicle can change the log: the zone and every
        # camera's view, widened by the margin.  world() skips a radio-less
        # vehicle outside it until ``wake_s``, the earliest time its top
        # speed (``pace`` is its inverse; None: never skipped) could bring
        # it back, and lists the vehicles inside it for sense()
        lo, hi = robot_cfg.zod.x_min, robot_cfg.zod.x_max
        if self.sensor is not None and self.sensor.view_span is not None:
            lo, hi = min(lo, self.sensor.view_span[0]), max(hi, self.sensor.view_span[1])
        self.span = (lo - _SPAN_MARGIN_M, hi + _SPAN_MARGIN_M)
        self.wake_s = [0.0] * n
        self.pace = [None if ent.v2x_equipped else _pace(ent.trajectory, self.last_flush_s)
                     for ent in scenario.entities]
        self.in_span: list[int] = []
        self.cpm_every = int(round(infra.perception.cpm_period_s / tick)) if infra else 0
        self.decision_every = int(round(robot_cfg.decision_period_s / tick))

    def send_at(self, time_s: float, msg: Message) -> None:
        """Queue the transmission of ``msg`` at the flush due at ``time_s``."""
        self.incoming.append((time_s, None, msg))
        if time_s < self.incoming_due:
            self.incoming_due = time_s

    def transmit(self, msg: Message, tx_time: float) -> None:
        """Send from ``msg.station_id`` and queue its deliveries, all of the
        sent message.  It is encoded for its size and its checks, not
        decoded: a valid message decodes to itself, and the loader spot
        checks that."""
        sender_id = msg.station_id
        type_name = msg.msg_type.name
        data = encode_message(msg, max_hops=self.max_hops)
        self.log.append((_round9(tx_time), "msg_tx", self.labels[sender_id], type_name,
                         sender_id, msg.timestamp_ms, len(data)))
        receivers = [r for r in self.receivers if r[0] != sender_id]
        sent = (msg, type_name, sender_id, msg.timestamp_ms, msg.timestamp_ms / 1000.0)
        incoming, first = self.incoming, self.incoming_due
        for receiver_id, due in self.channel.broadcast(self.positions[sender_id], tx_time,
                                                       receivers):
            incoming.append((due, receiver_id, sent))
            if due < first:
                first = due
        self.incoming_due = first

    def hear(self, msg: Message, type_name: str, rx_time: float) -> None:
        """Apply what the robot's reception of ``msg`` at ``rx_time`` changes;
        ``flush`` has logged its ``msg_rx`` and held back a duplicate DENM.

        The robot keeps each station's last CAM and the newest CPM's
        objects as its road picture, and relays a DENM at ``rx_time``.
        """
        if type_name == "CAM":
            p = msg.payload
            heading_rad = math.radians(p.heading_cdeg / 100.0)
            self.v2x_objects[msg.station_id] = FusedObject(
                source=Source.V2X, ref_id=msg.station_id, road_x_m=p.pos_x_cm / 100.0,
                speed_mps=(p.speed_cms / 100.0) * math.cos(heading_rad),
                object_class=1, last_update_s=msg.timestamp_ms / 1000.0)
        elif type_name == "CPM":
            if msg.timestamp_ms >= self.cpm_ms:
                self.cpm_ms = msg.timestamp_ms
                ts = msg.timestamp_ms / 1000.0
                self.camera_objects = [FusedObject(
                    source=Source.CAMERA, ref_id=obj.object_id, road_x_m=obj.pos_x_cm / 100.0,
                    speed_mps=camera_speed_to_road(obj.pos_x_cm / 100.0, obj.speed_cms / 100.0),
                    object_class=obj.object_class, last_update_s=ts - obj.meas_delta_ms / 1000.0)
                    for obj in msg.payload.objects]
        else:
            relayed = self.moderator.relay_denm(msg)
            if relayed is not None:
                p = relayed.payload
                self.log.append((_round9(rx_time), "denm_relay", "robot", p.origin_station_id,
                                 p.sequence_number, p.hop_count))
                self.transmit(relayed, rx_time)

    def flush(self, now_s: float) -> None:
        """Run every queue entry due by ``now_s``: transmit a queued send,
        or build, complete and log the ``msg_rx`` event of a delivery.  A
        DENM's event gains its origin, sequence, hop count and whether the
        receiver had it already.  Only the robot's receptions change
        anything else; all but duplicate DENMs go on to ``hear``."""
        pending, due = self.pending, now_s + _TIME_EPS
        if self.incoming_due <= due:
            self.merge()
        if not pending or pending[-1][0] > due:
            return
        append, labels, robot_id, pop = self.log.append, self.labels, self.robot_id, pending.pop
        while pending and pending[-1][0] <= due:
            time_s, receiver_id, sent = pop()
            if receiver_id is None:
                self.transmit(sent, time_s)
            else:
                msg, type_name, sender_id, timestamp_ms, timestamp_s = sent
                event = (_round9(time_s), "msg_rx", labels[receiver_id], type_name, sender_id,
                         timestamp_ms, _round9(time_s - timestamp_s))
                duplicate = False
                if type_name == "DENM":
                    p = msg.payload
                    seen = (receiver_id, p.origin_station_id, p.sequence_number)
                    duplicate = seen in self.denm_seen
                    event += (p.origin_station_id, p.sequence_number, p.hop_count, duplicate)
                    self.denm_seen.add(seen)
                append(event)
                if receiver_id != robot_id or duplicate:
                    continue
                self.hear(msg, type_name, time_s)
            # a transmission, the robot's relay included, may queue
            # deliveries due in this flush
            if self.incoming_due <= due:
                self.merge()

    def merge(self) -> None:
        """Sort the incoming entries into ``pending``: each was pushed after
        every pending one, so a stable sort by due time alone of both, in run
        and push order, keeps push order among equal due times."""
        pending = self.pending
        pending.reverse()
        pending += self.incoming
        pending.sort(key=_DUE)
        pending.reverse()
        self.incoming.clear()
        self.incoming_due = math.inf

    def world(self, now_s: float, t: float) -> None:
        # a skipped radio-less vehicle keeps its last position.  Skipping is
        # exact: until ``wake_s`` it stays more than the margin outside the
        # span, so it crosses no zone edge and no camera sees it, and the
        # margin is far larger than the rounding of a computed position
        # (``pace`` is None where positions could grow past the scale limit)
        contains, append = self.robot.zod.contains, self.log.append
        entity_x, entity_v, in_zone = self.entity_x, self.entity_v, self.in_zone
        wake, pace, (lo, hi) = self.wake_s, self.pace, self.span
        self.in_span = in_span = []
        for idx, ent in enumerate(self.scenario.entities):
            if now_s < wake[idx]:
                continue
            x, v = eval_trajectory(ent.trajectory, now_s)
            entity_x[idx], entity_v[idx] = x, v
            inside = contains(x)
            if inside != in_zone[idx]:
                append((t, "zod_enter" if inside else "zod_exit", self.veh_label[idx],
                        self.station_ids[idx], _round6(x)))
                in_zone[idx] = inside
            if lo <= x <= hi:
                in_span.append(idx)
            elif pace[idx] is not None:
                wake[idx] = now_s + (lo - x if x < lo else x - hi) * pace[idx]
        # radio positions hold until the next tick.  With no V2X vehicle the
        # listeners are the robot alone, where it stands: rebuilding the list
        # would give an equal one and write back the same position
        if self.v2x_vehicles:
            self.receivers = receivers = [
                (self.robot_id, self.robot.position),
                *((sid, (entity_x[idx], 0.0)) for idx, sid, _ in self.v2x_vehicles)]
            self.positions.update(receivers)

    def sense(self, i: int, now_s: float, t: float) -> None:
        if self.sensor is None:
            return
        perception = self.perception
        append, ingest = self.log.append, perception.ingest
        classes, station_ids = self.classes, self.station_ids
        entity_x, first_detected = self.entity_x, self.first_detected
        # a sample that perception drops gets no image point and no ingest
        for cam_id, idx, dist, point in self.sensor.observe(now_s, entity_x, self.in_span,
                                                            perception.keeps):
            append((t, "detection", "infra", cam_id, idx, station_ids[idx], _round6(dist),
                    _round6(entity_x[idx]), not first_detected[idx]))
            first_detected[idx] = True
            if point is not None:
                ingest(Detection(cam_id, idx, point, classes[idx], now_s))
        if i % self.cpm_every == 0:
            cpm = self.perception.assemble_cpm(now_s)
            append((t, "cpm_gen", "infra", cpm.timestamp_ms, len(cpm.payload.objects)))
            self.send_at(now_s + self.scenario.infra.cpm_processing_delay_s, cpm)

    def beacons(self, i: int, now_s: float, t: float) -> None:
        # vehicle CAMs at their configured period, then the robot's own
        # (ETSI-rule generation), then due roadworks notifications
        append = self.log.append
        for idx, sid, every in self.v2x_vehicles:
            if i % every == 0:
                x, v = self.entity_x[idx], self.entity_v[idx]
                cam_msg = vehicle_cam(sid, now_s, x, v)
                append((t, "cam_gen", self.veh_label[idx], sid, _round6(x), _round6(v),
                        cam_msg.timestamp_ms))
                self.send_at(now_s, cam_msg)
        robot_cam = self.moderator.cam_tick(now_s, self.pose)
        if robot_cam is not None:
            append((t, "cam_gen", "robot", self.robot_id, _round6(self.pose.pos_x_m), 0.0,
                    robot_cam.timestamp_ms))
            self.send_at(now_s, robot_cam)
        r = self.scenario.rsu
        while r is not None:
            sched = r.denm.start_s + self.rsu_sent * r.denm.period_s
            if sched > min(r.denm.end_s, self.scenario.duration_s) or sched > now_s + _TIME_EPS:
                break
            denm = r.notification(now_s, self.rsu_sent)
            for rep in range(r.denm.repeat_count):
                due = now_s + rep * r.denm.repeat_gap_s
                # this copy and the later ones never go out; stopping also keeps
                # the loop finite, as the loader lets repeat_count grow with period_s
                if due > self.last_flush_s:
                    break
                self.send_at(due, denm)
            self.rsu_sent += 1

    def decide(self, i: int, now_s: float, t: float) -> None:
        if i % self.decision_every:
            return
        stale = self.robot.zod.staleness_s
        v2x_objs = [o for o in self.v2x_objects.values() if not now_s - o.last_update_s > stale]
        cam_objs = [o for o in self.camera_objects if not now_s - o.last_update_s > stale]
        fused = fuse(v2x_objs, cam_objs, self.robot.fusion)
        append = self.log.append
        append((t, "fusion_out", "robot", len(v2x_objs), len(cam_objs),
                [{"src": o.source.value, "id": o.ref_id,
                  "x": _round3(o.road_x_m), "v": _round3(o.speed_mps)} for o in fused]))
        merging = self.scenario.merging_seen(now_s)
        self.state, action = step(self.state, fused, merging, now_s, self.robot.zod)
        if action is not self.last_action and action in (Action.STOP, Action.PASS):
            blocking = self.state.blocking_key
            append((t, "decision", "robot", self.state.mode.value, action.value, merging,
                    list(blocking) if blocking else None))
            for ev in self.moderator.actuate(action, now_s):
                append((t, "actuation", "robot", f"{action.value}_issued", _round9(ev.due_s)))
        self.last_action = action

    def actuate(self, now_s: float, t: float) -> None:
        for ev in self.moderator.due_actuations(now_s):
            self.log.append((t, "actuation", "robot", ev.phase))


def check_seed(seed) -> int:
    """``seed`` if it is a non-negative integer; else ValueError."""
    if not (isinstance(seed, int) and not isinstance(seed, bool) and seed >= 0):
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    return seed


def run(scenario: Scenario, seed: int | None = None) -> RunResult:
    """Execute one scenario and return its event log.

    ``seed`` overrides the scenario's rng_seed; the seed actually used is
    echoed in the returned header.  Each tick's time is rounded once, for
    the stages that log at it; ``flush`` rounds each entry's own due time.
    """
    engine = _Engine(scenario, check_seed(scenario.rng_seed if seed is None else seed))
    for i in range(engine.n_ticks + 1):
        now = i * scenario.tick_s
        t = _round9(now)
        engine.flush(now)
        engine.world(now, t)
        engine.sense(i, now, t)
        engine.beacons(i, now, t)
        engine.decide(i, now, t)
        engine.actuate(now, t)
        engine.flush(now)
    return RunResult(header=engine.header, log=engine.log)


def series(scenario: Scenario, events: Sequence[dict]) -> list[dict]:
    """Per tick of a run of ``scenario`` that logged ``events``: the time,
    the mode of the latest ``decision`` by then (the mode changes only at a
    logged decision, the first at t = 0), whether a merging vehicle is seen,
    and each vehicle's position and signed speed from its trajectory."""
    decisions = [(e["t"], e["mode"]) for e in events if e["type"] == "decision"]
    rows, k, mode = [], 0, None
    for i in range(int(round(scenario.duration_s / scenario.tick_s)) + 1):
        now = i * scenario.tick_s
        t = _round9(now)
        while k < len(decisions) and decisions[k][0] <= t:
            mode = decisions[k][1]
            k += 1
        row = {"time_s": t, "mode": mode, "merging": int(scenario.merging_seen(now))}
        for idx, ent in enumerate(scenario.entities):
            x, v = eval_trajectory(ent.trajectory, now)
            row[f"x_veh{idx}"] = _round6(x)
            row[f"v_veh{idx}"] = _round6(v)
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# scenario generator for randomized constant-speed passes


def make_pass_scenario(seed: int, *, v2x: bool = False,
                       merging_offset_s: float | None = None,
                       direction: int = -1) -> dict:
    """One randomized constant-speed pass scenario, as a schema dict.

    A single vehicle starts beyond everyone's detection range on the
    ``direction`` side (-1 = negative x) and drives through the gate at a
    speed drawn uniformly from [8, 18] m/s.  When ``merging_offset_s`` is
    given, a merging vehicle appears at the gate that many seconds before
    the pass vehicle's ground-truth zone entry.
    """
    rng = np.random.default_rng(seed)
    speed = float(rng.uniform(8.0, 18.0))
    start_gap = float(rng.uniform(135.0, 155.0))  # distance from the camera
    cam_pos = 24.0 * direction
    start_x = cam_pos + direction * start_gap
    travel = abs(start_x) + 40.0
    duration = round(math.ceil((travel / speed + 4.0) / 0.5) * 0.5, 2)
    entry_time = (abs(start_x) - 25.0) / speed

    windows = []
    if merging_offset_s is not None:
        start = max(0.0, entry_time - merging_offset_s)
        windows.append({"start_s": round(start, 3),
                        "end_s": round(duration, 3), "distance_m": 0.0})

    line = {"p0": [60.0, 420.0], "p1": [820.0, 80.0]}  # 832.59 px long
    calibration = {"order": 2, "weights": [5.0, 0.1, 0.0001]}
    camera = {"camera_id": 0 if direction < 0 else 1,
              "road_position_m": cam_pos, "direction_sign": direction,
              "line": line, "calibration": calibration}

    return {
        "schema_version": 1,
        "name": f"pass_{seed}",
        "duration_s": duration,
        "tick_s": 0.05,
        "rng_seed": int(seed),
        "channel": {"comm_range_m": 400.0, "loss_prob": 0.0,
                    "latency_base_s": 0.01, "latency_jitter_s": 0.005},
        "robot": {"position": [0.0, 0.0],
                  "zod": {"half_extent_m": 25.0, "tau_th_s": 5.0},
                  "moderator": {"station_id": 1},
                  "merging_detect_range_m": 15.0},
        "infra": {"station_id": 100, "position": [0.0, 6.0],
                  "cameras": [camera],
                  "sensor": {"pixel_noise_std": 2.0}},
        "entities": [{"station_id": 7 if v2x else 0, "object_class": 1,
                      "v2x_equipped": v2x,
                      "trajectory": [{"start_time_s": 0.0, "start_x_m": round(start_x, 6),
                                      "speed_mps": round(-direction * speed, 6),
                                      "accel_mps2": 0.0}]}],
        "merging_windows": windows,
    }
