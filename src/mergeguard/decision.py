"""Zone-of-Danger evaluation and the STOP/PASS state machine.

The zone is a 50 m x 50 m square footprint around the merge gate; on the
single road axis it reduces to the interval [center - half, center +
half] (default [-25, +25] around the robot).  For every fused object a
constant-velocity extrapolation yields the predicted crossing:

    outside, approaching:  t_enter = now + gap / |v|, t_exit at far edge
    already inside:        t_enter = now
    inside, speed 0:       t_exit  = +inf
    outside, receding or stopped:  t_enter = t_exit = +inf

The machine holds SAFE until some object's predicted entry is at most
tau_th away (default 5 s, boundary inclusive) AND a merging vehicle is
actually waiting at the gate - both must hold on the same tick.  Then it
issues STOP, stays in DANGER (action HOLD) while any hazard remains, and
releases with PASS once the blocking traffic has exited.  A blocking
object that silently vanishes from the fused input is granted the
staleness window plus one extra tau_th of grace before release.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple, Sequence

from .fusion import FusedObject

INF = math.inf


@dataclass(frozen=True)
class ZodConfig:
    half_extent_m: float = 25.0
    tau_th_s: float = 5.0
    center_x_m: float = 0.0
    staleness_s: float = 1.0
    x_min: float = field(init=False)
    x_max: float = field(init=False)

    def __post_init__(self):
        if self.half_extent_m <= 0:
            raise ValueError("half_extent_m must be positive")
        if self.tau_th_s < 0:
            raise ValueError("tau_th_s must be non-negative")
        object.__setattr__(self, "x_min", self.center_x_m - self.half_extent_m)
        object.__setattr__(self, "x_max", self.center_x_m + self.half_extent_m)

    def contains(self, road_x_m: float) -> bool:
        return self.x_min <= road_x_m <= self.x_max


class ZodCrossing(NamedTuple):
    t_enter_s: float
    t_exit_s: float


class Mode(Enum):
    SAFE = "safe"
    DANGER = "danger"


class Action(Enum):
    STOP = "stop"
    HOLD = "hold"
    PASS = "pass"


def predict_crossing(obj: FusedObject, now_s: float, zod: ZodConfig) -> ZodCrossing:
    """Constant-velocity entry/exit prediction; t_enter_s <= t_exit_s always."""
    x, v = obj.road_x_m, obj.speed_mps
    if zod.contains(x):
        if v > 0:
            return ZodCrossing(now_s, now_s + (zod.x_max - x) / v)
        if v < 0:
            return ZodCrossing(now_s, now_s + (x - zod.x_min) / -v)
        return ZodCrossing(now_s, INF)
    if x < zod.x_min and v > 0:
        return ZodCrossing(now_s + (zod.x_min - x) / v, now_s + (zod.x_max - x) / v)
    if x > zod.x_max and v < 0:
        return ZodCrossing(now_s + (x - zod.x_max) / -v, now_s + (x - zod.x_min) / -v)
    return ZodCrossing(INF, INF)


class DecisionState(NamedTuple):
    mode: Mode = Mode.SAFE
    blocking_key: tuple[str, int] | None = None  # (source value, ref id)
    blocking_last_seen_s: float = 0.0


class StepResult(NamedTuple):
    state: DecisionState
    action: Action


def _hazards(fused: Sequence[FusedObject], now_s: float,
             zod: ZodConfig) -> list[tuple[ZodCrossing, FusedObject]]:
    """Objects whose predicted entry is imminent and exit still ahead."""
    out = []
    for obj in fused:
        crossing = predict_crossing(obj, now_s, zod)
        if (crossing.t_enter_s - now_s <= zod.tau_th_s
                and now_s < crossing.t_exit_s):
            out.append((crossing, obj))
    return out


def _key(obj: FusedObject) -> tuple[str, int]:
    return (obj.source.value, obj.ref_id)


def step(state: DecisionState, fused: Sequence[FusedObject], merging_seen: bool,
         now_s: float, zod: ZodConfig) -> StepResult:
    """Advance the machine one evaluation tick.

    SAFE   -> DANGER + STOP only when a hazard and a merging vehicle are
              seen on the same tick (conjunction rule).
    DANGER -> HOLD while any hazard remains (exit times are recomputed
              from fresh data each tick); PASS once the road is clear or
              the blocking object has been gone past the grace period.
    """
    hazards = _hazards(fused, now_s, zod)
    danger = state.mode is Mode.DANGER
    if hazards and (danger or merging_seen):
        # the hazard entering first blocks; DANGER re-evaluates it each tick
        _, blocking = min(hazards, key=lambda cw: (cw[0].t_enter_s, cw[1].ref_id))
        new = DecisionState(Mode.DANGER, _key(blocking), now_s)
        return StepResult(new, Action.HOLD if danger else Action.STOP)
    if not danger:
        return StepResult(state, Action.PASS)

    # DANGER with no hazard left
    if any(_key(obj) == state.blocking_key for obj in fused):
        # blocking object still reported but no longer a hazard: it exited
        return StepResult(DecisionState(), Action.PASS)
    # blocking object vanished: hold through staleness + one tau_th of grace
    if now_s - state.blocking_last_seen_s <= zod.staleness_s + zod.tau_th_s:
        return StepResult(state, Action.HOLD)
    return StepResult(DecisionState(), Action.PASS)
