"""V2X-priority fusion of self-reported and camera-perceived objects.

Vehicles that announce themselves over V2X are ground truth as far as
the robot is concerned: every V2X object is kept.  A camera object is
kept only if it is not a duplicate of some V2X object, judged by joint
position/velocity distance on the road axis:

    keep camera j  iff  min_i || (x_j - x_i, v_j - v_i) || >= epsilon

Ties at exactly epsilon are kept (the camera object is far enough to be
something else).  With no V2X objects the minimum is vacuous and every
camera object passes.  Output order is deterministic: V2X objects by
station id, then surviving camera objects by track id.

``fuse`` tests a camera object at x only against the V2X objects whose
road_x_m lies in the window [x - 2*epsilon, x + 2*epsilon], found by
bisection in the V2X objects sorted by road_x_m.  Leaving out the others
gives the same result as the all-pairs rule: a float below the rounded
x - 2*epsilon lies at or below x - 2*epsilon itself (round to nearest
leaves no float between a value and its rounding), so the rounded x
difference is still at least 2*epsilon, and hypot(dx, dv) >= |dx| in
floating point too; likewise above the window.  Inputs must be finite:
a NaN road_x_m would sort arbitrarily and break the bisection.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Sequence

DEFAULT_EPSILON = 5.0


class Source(Enum):
    V2X = "v2x"
    CAMERA = "camera"


class FusedObject(NamedTuple):
    source: Source
    ref_id: int  # station id for V2X, CPM object id for camera tracks
    road_x_m: float
    speed_mps: float  # signed road-axis velocity, dx/dt
    object_class: int
    last_update_s: float


@dataclass(frozen=True)
class FusionConfig:
    epsilon: float = DEFAULT_EPSILON

    def __post_init__(self):
        if self.epsilon < 0:
            raise ValueError("epsilon must be non-negative")


def joint_distance(a: FusedObject, b: FusedObject) -> float:
    return math.hypot(a.road_x_m - b.road_x_m, a.speed_mps - b.speed_mps)


def fuse(v2x_objects: Sequence[FusedObject], camera_objects: Sequence[FusedObject],
         config: FusionConfig | None = None) -> list[FusedObject]:
    config = config or FusionConfig()
    cameras = sorted(camera_objects, key=lambda o: o.ref_id)
    if not v2x_objects:
        return cameras
    kept = sorted(v2x_objects, key=lambda o: o.ref_id)
    by_x = sorted(kept, key=lambda o: o.road_x_m)
    xs = [o.road_x_m for o in by_x]
    eps = config.epsilon
    for cam_obj in cameras:
        x = cam_obj.road_x_m
        near = by_x[bisect_left(xs, x - 2.0 * eps):bisect_right(xs, x + 2.0 * eps)]
        if all(joint_distance(cam_obj, v) >= eps for v in near):
            kept.append(cam_obj)
    return kept
