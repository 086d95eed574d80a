"""Infrastructure vision pipeline: detections -> tracks -> CPMs.

Each roadside camera reports detections as image points; calibration
turns them into metric distances from the camera, and a short sliding
window turns distances into speed.  Speed over the last three samples is
the mean of the two segment slopes:

    v_bar = 1/2 * [ (d2 - d1)/(t2 - t1) + (d3 - d2)/(t3 - t2) ]

Negative v_bar means the object approaches the camera.  An object is
labelled moving only when |v_bar| exceeds the threshold (default 3 m/s,
strict), which suppresses apparent motion from camera shake.

assemble_cpm packs every live track from all cameras of one
infrastructure station into a single collective-perception message in
the shared road frame (robot at x=0).  Tracks that do not yet have a
full window are reported with speed 0; the measurement age rides along
in meas_delta_ms.  A CPM lists at most 255 objects (a u8 count), the most
recently updated tracks, ties going to the lower (camera, track) key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

from .calibration import CalibrationModel, ReferenceLine, estimate_distance, project_to_line
from .messages import (CpmPayload, Message, PerceivedObject, SensorInfo, SensorType)

WINDOW_SIZE = 3

# Per-camera track ids are folded into the CPM object_id (u16): the top
# two bits carry the camera index so two cameras tracking the same
# vehicle never collide within one message.
_TRACK_ID_BITS = 14
_CPM_MAX_OBJECTS = 255


class PerceptionError(Exception):
    pass


class StaleDetection(PerceptionError):
    """A detection's timestamp regressed behind its track's last sample."""


class InsufficientSamples(PerceptionError):
    """Velocity requested from a window with fewer than three samples."""


class MotionClass(Enum):
    APPROACHING = "approaching"
    RECEDING = "receding"
    STATIONARY = "stationary"


@dataclass(frozen=True)
class PerceptionConfig:
    moving_threshold_mps: float = 3.0
    cpm_period_s: float = 0.2
    track_expiry_s: float = 1.0
    # minimum spacing between kept window samples; frame-rate detections
    # arriving faster than this are dropped so the two-slope estimate runs
    # over a baseline long enough to beat pixel noise
    sample_gap_s: float = 0.2

    def __post_init__(self):
        if self.track_expiry_s < 0:
            raise PerceptionError("track_expiry_s must be non-negative")


@dataclass(frozen=True)
class CameraSetup:
    """Mounting of one camera: image-space line plus road-frame pose.

    road_position_m is where the camera sits on the road axis and
    direction_sign which way it looks (+1 toward positive x), so a
    detection at camera distance d maps to

        road_x = road_position_m + direction_sign * d
    """

    camera_id: int
    line: ReferenceLine
    calibration: CalibrationModel
    road_position_m: float
    direction_sign: int

    def __post_init__(self):
        if self.direction_sign not in (-1, 1):
            raise PerceptionError("direction_sign must be -1 or +1")
        if not 0 <= self.camera_id < 4:
            raise PerceptionError("camera_id must fit the object_id namespace (0..3)")


class Detection(NamedTuple):
    camera_id: int
    track_id: int
    bottom_center: tuple[float, float]  # pixels
    object_class: int
    time_s: float


@dataclass
class TrackWindow:
    """Ring of the most recent distance samples for one camera track."""

    track_id: int
    object_class: int
    times: list[float] = field(default_factory=list)
    distances: list[float] = field(default_factory=list)

    @property
    def last_time(self) -> float:
        return self.times[-1]

    @property
    def last_distance(self) -> float:
        return self.distances[-1]

    def takes(self, time_s: float, min_gap_s: float) -> bool:
        """Whether the window keeps a sample at ``time_s``: not when it falls
        less than ``min_gap_s`` after the last kept sample, unless at the
        same instant.  Raises StaleDetection for a time before the last."""
        if not self.times:
            return True
        last = self.times[-1]
        if time_s < last:
            raise StaleDetection(f"track {self.track_id}: sample at {time_s} after {last}")
        return time_s == last or not time_s - last < min_gap_s - 1e-9

    def push(self, time_s: float, distance_m: float) -> None:
        """Append a sample; the gap rule is ``takes``, which the caller asks first."""
        self.takes(time_s, 0.0)  # raises StaleDetection for a time before the last
        if self.times and time_s == self.last_time:
            # one sample per instant: a same-time detection replaces the last
            self.distances[-1] = distance_m
            return
        self.times.append(time_s)
        self.distances.append(distance_m)
        if len(self.times) > WINDOW_SIZE:
            del self.times[0]
            del self.distances[0]


def estimate_velocity(window: TrackWindow) -> float:
    """Two-slope average speed over the window, m/s; negative = approaching."""
    if len(window.times) < WINDOW_SIZE:
        raise InsufficientSamples(
            f"track {window.track_id} has {len(window.times)} samples")
    t1, t2, t3 = window.times
    d1, d2, d3 = window.distances
    return 0.5 * ((d2 - d1) / (t2 - t1) + (d3 - d2) / (t3 - t2))


def classify_motion(v_bar: float, config: PerceptionConfig) -> MotionClass:
    """Label a two-slope speed; |v_bar| must strictly exceed the threshold to move."""
    if abs(v_bar) <= config.moving_threshold_mps:
        return MotionClass.STATIONARY
    return MotionClass.APPROACHING if v_bar < 0 else MotionClass.RECEDING


class PerceptionPipeline:
    """Track store plus CPM assembly for one infrastructure station."""

    def __init__(self, station_id: int, cameras: list[CameraSetup],
                 config: PerceptionConfig | None = None):
        self.station_id = station_id
        self.cameras = {cam.camera_id: cam for cam in cameras}
        if len(self.cameras) != len(cameras):
            raise PerceptionError("camera ids must be unique")
        self._sensors = tuple(
            SensorInfo(sensor_id=cam.camera_id, sensor_type=SensorType.CAMERA,
                       range_dm=int(round(cam.calibration.raw(cam.line.s_max) * 10)))
            for cam in sorted(cameras, key=lambda c: c.camera_id))
        self.config = config or PerceptionConfig()
        self.tracks: dict[tuple[int, int], TrackWindow] = {}

    def keeps(self, camera_id: int, track_id: int, time_s: float) -> bool:
        """The gap rule: whether a sample of this track at ``time_s`` belongs
        in its window.  A new track's always does, a live one's by
        ``TrackWindow.takes``.  ``ingest`` does not ask it; its caller does."""
        window = self.tracks.get((camera_id, track_id))
        return window is None or window.takes(time_s, self.config.sample_gap_s)

    def ingest(self, detection: Detection) -> TrackWindow:
        """Record the detection in its track window, opening the track if it
        is new: project its point, turn that into a distance and push it."""
        cam = self.cameras[detection.camera_id]
        key = (detection.camera_id, detection.track_id)
        window = self.tracks.get(key)
        if window is None:
            if detection.track_id >> _TRACK_ID_BITS:  # also true for a negative id
                raise PerceptionError(f"track id {detection.track_id} does not fit the "
                                      f"CPM object_id ({_TRACK_ID_BITS} bits)")
            window = TrackWindow(detection.track_id, detection.object_class)
            self.tracks[key] = window
        s = project_to_line(detection.bottom_center, cam.line)
        window.push(detection.time_s, estimate_distance(cam.calibration, s))
        window.object_class = detection.object_class
        return window

    def expire_tracks(self, now_s: float) -> None:
        expired = [key for key, w in self.tracks.items()
                   if now_s - w.last_time > self.config.track_expiry_s]
        for key in expired:
            del self.tracks[key]

    def assemble_cpm(self, now_s: float) -> Message:
        """Build one CPM covering all cameras and all live tracks."""
        self.expire_tracks(now_s)
        live = sorted(self.tracks.items())
        if len(live) > _CPM_MAX_OBJECTS:  # newest first; the stable sort keeps key order on ties
            newest = sorted(live, key=lambda item: -item[1].last_time)[:_CPM_MAX_OBJECTS]
            live = sorted(newest, key=lambda item: item[0])
        objects = []
        for (camera_id, track_id), window in live:
            cam = self.cameras[camera_id]
            road_x = cam.road_position_m + cam.direction_sign * window.last_distance
            v_bar = estimate_velocity(window) if len(window.times) == WINDOW_SIZE else 0.0
            if classify_motion(v_bar, self.config) is MotionClass.STATIONARY:
                v_bar = 0.0
            objects.append(PerceivedObject(
                object_id=(camera_id << _TRACK_ID_BITS) | track_id,
                object_class=window.object_class,
                pos_x_cm=int(round(road_x * 100.0)),
                pos_y_cm=0,
                speed_cms=_clamp_i16(int(round(v_bar * 100.0))),
                meas_delta_ms=max(0, int(round((now_s - window.last_time) * 1000.0))),
            ))
        return Message(station_id=self.station_id,
                       timestamp_ms=int(round(now_s * 1000.0)),
                       payload=CpmPayload(self._sensors, tuple(objects)))


def _clamp_i16(value: int) -> int:
    return max(-32768, min(32767, value))


def camera_speed_to_road(pos_x_m: float, speed_cam_mps: float) -> float:
    """Convert a camera-convention speed to a signed road-axis velocity.

    Cameras face away from the robot, so every tracked object lies on the
    far side of its camera: approaching the camera (negative) means moving
    toward the robot origin.  The object's own road position fixes the sign:

        road_v = sign(pos_x) * speed_cam
    """
    return math.copysign(1.0, pos_x_m) * speed_cam_mps if pos_x_m != 0.0 else 0.0
