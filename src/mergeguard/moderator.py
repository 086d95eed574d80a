"""The robot moderator's own V2X behaviour: CAMs, DENM relaying, actuation.

CAM generation follows the ETSI pattern: a CAM is due when the maximum
interval (1.0 s) has elapsed, or earlier when the robot's kinematics
changed enough since the last CAM (4 m, 0.5 m/s or 4 degrees), but never
sooner than the minimum interval (0.1 s).  A parked robot therefore
produces exact 1 Hz beacons.  Real on-board stacks are not that punctual,
so an optional seeded processing-delay jitter max(0, N(0.10, 0.05)) s can
be added per interval to mimic measured generation gaps around 1.1 s.

DENM relaying extends single-hop hazard warnings around the corner: a
DENM from another origin whose hop budget allows it is rebroadcast with
hop_count + 1 and the robot as sender, keeping the origin station and
timestamp intact; the engine hands over each (origin, sequence) once.

Actuation turns decisions into timed posture changes: a STOP is complete
after moving to lane center and raising the flag (defaults summing to
5.0 s); a PASS clears the lane after the move alone.  A new command
cancels any pending completion of the opposite kind.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .decision import Action
from .messages import CamPayload, DenmPayload, Message, StationType


@dataclass(frozen=True)
class ModeratorConfig:
    station_id: int = 1
    cam_max_interval_s: float = 1.0
    cam_min_interval_s: float = 0.1
    cam_pos_trigger_m: float = 4.0
    cam_speed_trigger_mps: float = 0.5
    cam_heading_trigger_deg: float = 4.0
    cam_jitter_enabled: bool = False
    cam_jitter_mean_s: float = 0.10
    cam_jitter_std_s: float = 0.05
    max_hops: int = 1
    move_to_center_s: float = 2.0
    raise_flag_s: float = 3.0

    def __post_init__(self):
        if self.max_hops < 0:
            raise ValueError("max_hops must be non-negative")
        if self.cam_jitter_std_s < 0:
            raise ValueError("cam_jitter_std_s must be non-negative")


@dataclass(frozen=True)
class RobotPose:
    pos_x_m: float = 0.0
    pos_y_m: float = 0.0
    speed_mps: float = 0.0
    heading_deg: float = 0.0


def robot_cam(station_id: int, now_s: float, pose: RobotPose) -> Message:
    """The robot's CAM for ``pose``, generated at ``now_s``."""
    return Message(station_id, int(round(now_s * 1000.0)), CamPayload(
        station_type=StationType.PEDESTRIAN,
        pos_x_cm=int(round(pose.pos_x_m * 100.0)),
        pos_y_cm=int(round(pose.pos_y_m * 100.0)),
        speed_cms=int(round(abs(pose.speed_mps) * 100.0)),
        heading_cdeg=int(round(pose.heading_deg * 100.0)) % 36000))


class ActuationEvent(NamedTuple):
    due_s: float
    phase: str  # "posture_complete" | "lane_clear"


@dataclass
class Moderator:
    config: ModeratorConfig
    jitter_seed: int = 0
    _rng: np.random.Generator = field(init=False)
    _last_cam_time: float | None = field(default=None, init=False)
    _last_cam_pose: RobotPose | None = field(default=None, init=False)
    _next_due: float = field(default=0.0, init=False)
    _pending: list[ActuationEvent] = field(default_factory=list, init=False)

    def __post_init__(self):
        self._rng = np.random.default_rng(self.jitter_seed)

    # -- CAM generation ---------------------------------------------------

    def _interval_jitter(self) -> float:
        if not self.config.cam_jitter_enabled:
            return 0.0
        return max(0.0, float(self._rng.normal(self.config.cam_jitter_mean_s,
                                               self.config.cam_jitter_std_s)))

    def cam_tick(self, now_s: float, pose: RobotPose) -> Message | None:
        """Return a CAM if one is due at now_s, else None."""
        cfg = self.config
        if self._last_cam_time is None or now_s >= self._next_due:
            due = True
        elif now_s - self._last_cam_time >= cfg.cam_min_interval_s:
            prev = self._last_cam_pose
            moved = math.hypot(pose.pos_x_m - prev.pos_x_m, pose.pos_y_m - prev.pos_y_m)
            dspeed = abs(pose.speed_mps - prev.speed_mps)
            dheading = abs((pose.heading_deg - prev.heading_deg + 180.0) % 360.0 - 180.0)
            due = (moved >= cfg.cam_pos_trigger_m
                   or dspeed >= cfg.cam_speed_trigger_mps
                   or dheading >= cfg.cam_heading_trigger_deg)
        else:
            due = False
        if not due:
            return None
        self._last_cam_time = now_s
        self._last_cam_pose = pose
        self._next_due = now_s + cfg.cam_max_interval_s + self._interval_jitter()
        return robot_cam(cfg.station_id, now_s, pose)

    # -- DENM relaying -----------------------------------------------------

    def relay_denm(self, msg: Message) -> Message | None:
        """The relayed copy of ``msg``; None for our own DENM or a spent hop budget."""
        denm: DenmPayload = msg.payload
        if denm.origin_station_id == self.config.station_id:
            return None  # never relay our own notifications back out
        if denm.hop_count + 1 > self.config.max_hops:
            return None
        return Message(self.config.station_id, msg.timestamp_ms,
                       denm._replace(hop_count=denm.hop_count + 1))

    # -- actuation ----------------------------------------------------------

    def actuate(self, action: Action, now_s: float) -> list[ActuationEvent]:
        """Schedule posture timelines for a newly issued command.

        Returns the newly scheduled completion events; HOLD schedules
        nothing.  An opposite command cancels whatever was still pending.
        """
        if action is Action.HOLD:
            return []
        cfg = self.config
        if action is Action.STOP:
            self._pending = [e for e in self._pending if e.phase != "lane_clear"]
            event = ActuationEvent(now_s + cfg.move_to_center_s + cfg.raise_flag_s,
                                   "posture_complete")
        else:  # PASS
            self._pending = [e for e in self._pending if e.phase != "posture_complete"]
            event = ActuationEvent(now_s + cfg.move_to_center_s, "lane_clear")
        self._pending.append(event)
        return [event]

    def due_actuations(self, now_s: float) -> list[ActuationEvent]:
        """Pop every pending completion whose time has come."""
        if not self._pending:
            return []
        cutoff = now_s + 1e-9  # absorb float drift in tick arithmetic
        due = sorted((e for e in self._pending if e.due_s <= cutoff),
                     key=lambda e: (e.due_s, e.phase))
        self._pending = [e for e in self._pending if e.due_s > cutoff]
        return due
