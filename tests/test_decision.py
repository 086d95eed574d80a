"""Zone-of-Danger prediction and the STOP/HOLD/PASS state machine."""

import dataclasses
import math

import pytest

from mergeguard.decision import (Action, DecisionState, Mode, ZodConfig,
                                 ZodCrossing, predict_crossing, step)
from mergeguard.fusion import FusedObject, Source

ZOD = ZodConfig()  # center 0, half extent 25, tau 5, staleness 1


def v2x(ref_id, x, v, t=0.0):
    return FusedObject(Source.V2X, ref_id, x, v, 1, t)


def cam(ref_id, x, v, t=0.0):
    return FusedObject(Source.CAMERA, ref_id, x, v, 1, t)


class TestZodConfig:
    def test_interval(self):
        assert ZOD.x_min == -25.0 and ZOD.x_max == 25.0

    def test_replace_recomputes_bounds(self):
        zod = dataclasses.replace(ZodConfig(), center_x_m=10.0)
        assert (zod.x_min, zod.x_max) == (-15.0, 35.0)
        assert zod.contains(-15.0) and zod.contains(35.0) and not zod.contains(-15.0001)

    def test_boundaries_inclusive(self):
        assert ZOD.contains(-25.0) and ZOD.contains(25.0)
        assert not ZOD.contains(-25.0001) and not ZOD.contains(25.0001)

    def test_bad_extent(self):
        with pytest.raises(ValueError):
            ZodConfig(half_extent_m=0.0)


class TestPredictCrossing:
    def test_approach_from_left(self):
        c = predict_crossing(v2x(7, -70.0, 9.0), 0.0, ZOD)
        assert c.t_enter_s == pytest.approx(5.0)
        assert c.t_exit_s == pytest.approx(95.0 / 9.0)

    def test_approach_from_right(self):
        c = predict_crossing(v2x(7, 70.0, -9.0), 0.0, ZOD)
        assert c.t_enter_s == pytest.approx(5.0)
        assert c.t_exit_s == pytest.approx(95.0 / 9.0)

    def test_nonzero_now_offsets_absolute_times(self):
        c = predict_crossing(v2x(7, -70.0, 9.0), 100.0, ZOD)
        assert c.t_enter_s == pytest.approx(105.0)

    def test_inside_moving(self):
        c = predict_crossing(v2x(7, 0.0, 10.0), 3.0, ZOD)
        assert c.t_enter_s == 3.0
        assert c.t_exit_s == pytest.approx(5.5)

    def test_inside_stationary_never_exits(self):
        c = predict_crossing(v2x(7, 10.0, 0.0), 3.0, ZOD)
        assert c.t_enter_s == 3.0
        assert c.t_exit_s == math.inf

    def test_outside_receding_never_crosses(self):
        c = predict_crossing(v2x(7, 40.0, 3.0), 0.0, ZOD)
        assert c.t_enter_s == math.inf and c.t_exit_s == math.inf

    def test_outside_stationary_never_crosses(self):
        c = predict_crossing(v2x(7, -30.0, 0.0), 0.0, ZOD)
        assert c.t_enter_s == math.inf

    def test_edge_position_counts_as_inside(self):
        c = predict_crossing(v2x(7, -25.0, 1.0), 2.0, ZOD)
        assert c.t_enter_s == 2.0


class TestConjunction:
    def test_hazard_alone_does_not_stop(self):
        state, action = step(DecisionState(), [v2x(7, -40.0, 10.0)], False, 0.0, ZOD)
        assert state.mode is Mode.SAFE and action is Action.PASS

    def test_merging_alone_does_not_stop(self):
        state, action = step(DecisionState(), [v2x(7, 200.0, 0.0)], True, 0.0, ZOD)
        assert state.mode is Mode.SAFE and action is Action.PASS

    def test_both_together_stop(self):
        state, action = step(DecisionState(), [v2x(7, -40.0, 10.0)], True, 0.0, ZOD)
        assert state.mode is Mode.DANGER and action is Action.STOP
        assert state.blocking_key == (Source.V2X.value, 7)

    def test_empty_fused_never_stops(self):
        state, action = step(DecisionState(), [], True, 0.0, ZOD)
        assert action is Action.PASS


class TestHazardHorizon:
    def test_entry_exactly_at_tau_is_a_hazard(self):
        # 50 m to the zone edge at 10 m/s: t_enter - now = 5.0 == tau
        _, action = step(DecisionState(), [v2x(7, -75.0, 10.0)], True, 0.0, ZOD)
        assert action is Action.STOP

    def test_entry_just_past_tau_is_not(self):
        _, action = step(DecisionState(), [v2x(7, -75.01, 10.0)], True, 0.0, ZOD)
        assert action is Action.PASS

    def test_already_inside_is_a_hazard(self):
        _, action = step(DecisionState(), [v2x(7, 0.0, 0.0)], True, 0.0, ZOD)
        assert action is Action.STOP

    def test_tau_monotonicity(self):
        obj = [v2x(7, -85.0, 10.0)]  # enters in 6 s
        _, short_tau = step(DecisionState(), obj, True, 0.0, ZodConfig(tau_th_s=5.0))
        _, long_tau = step(DecisionState(), obj, True, 0.0, ZodConfig(tau_th_s=8.0))
        assert short_tau is Action.PASS and long_tau is Action.STOP


def enter_danger(obj=None, now=0.0):
    obj = obj if obj is not None else v2x(7, -40.0, 10.0)
    state, action = step(DecisionState(), [obj], True, now, ZOD)
    assert action is Action.STOP
    return state


class TestDangerHold:
    def test_holds_while_hazard_persists(self):
        state = enter_danger()
        state, action = step(state, [v2x(7, -30.0, 10.0)], True, 1.0, ZOD)
        assert state.mode is Mode.DANGER and action is Action.HOLD

    def test_holds_even_when_merging_clears(self):
        state = enter_danger()
        _, action = step(state, [v2x(7, -30.0, 10.0)], False, 1.0, ZOD)
        assert action is Action.HOLD

    def test_holds_while_object_sits_inside(self):
        state = enter_danger()
        _, action = step(state, [v2x(7, 0.0, 0.0)], False, 4.0, ZOD)
        assert action is Action.HOLD

    def test_another_hazard_keeps_danger(self):
        state = enter_danger()
        state, action = step(state, [v2x(9, -45.0, 10.0)], False, 1.0, ZOD)
        assert action is Action.HOLD
        assert state.blocking_key == (Source.V2X.value, 9)

    def test_blocking_picks_earliest_entry(self):
        state, _ = step(DecisionState(),
                        [v2x(9, -45.0, 10.0), v2x(2, -30.0, 10.0)], True, 0.0, ZOD)
        assert state.blocking_key == (Source.V2X.value, 2)


class TestRelease:
    def test_release_when_blocking_exits_and_recedes(self):
        state = enter_danger()
        state, action = step(state, [v2x(7, 30.0, 10.0)], False, 7.0, ZOD)
        assert state.mode is Mode.SAFE and action is Action.PASS

    def test_release_even_while_merging_still_waits(self):
        state = enter_danger()
        _, action = step(state, [v2x(7, 30.0, 10.0)], True, 7.0, ZOD)
        assert action is Action.PASS

    def test_vanished_blocking_holds_through_grace(self):
        state = enter_danger(now=10.0)
        grace = ZOD.staleness_s + ZOD.tau_th_s
        state, action = step(state, [], False, 10.0 + grace, ZOD)
        assert action is Action.HOLD  # boundary is inclusive

    def test_vanished_blocking_releases_after_grace(self):
        state = enter_danger(now=10.0)
        grace = ZOD.staleness_s + ZOD.tau_th_s
        _, action = step(state, [], False, 10.0 + grace + 0.01, ZOD)
        assert action is Action.PASS

    def test_reappearing_blocking_refreshes_grace(self):
        state = enter_danger(now=0.0)
        state, action = step(state, [v2x(7, -20.0, 10.0)], False, 5.0, ZOD)
        assert action is Action.HOLD
        # vanish afterwards: the clock starts from the last sighting (5.0)
        _, action = step(state, [], False, 10.9, ZOD)
        assert action is Action.HOLD
        _, action = step(state, [], False, 11.1, ZOD)
        assert action is Action.PASS

    def test_stop_again_after_release(self):
        state = enter_danger()
        state, action = step(state, [v2x(7, 30.0, 10.0)], True, 7.0, ZOD)
        assert action is Action.PASS
        state, action = step(state, [v2x(8, -40.0, 10.0)], True, 8.0, ZOD)
        assert action is Action.STOP


class TestCameraAndV2xKeys:
    def test_sources_do_not_collide(self):
        state, _ = step(DecisionState(), [cam(7, -40.0, 10.0)], True, 0.0, ZOD)
        assert state.blocking_key == (Source.CAMERA.value, 7)
        # a v2x object with the same numeric id is a different key
        state, action = step(state, [v2x(7, 200.0, 0.0)], False, 1.0, ZOD)
        assert action is Action.HOLD  # camera 7 vanished, not exited
