"""Robot-side messaging: CAM cadence, DENM relaying, and actuation timing."""

import numpy as np
import pytest

from mergeguard.decision import Action
from mergeguard.messages import CamPayload, DenmPayload, Message
from mergeguard.moderator import Moderator, ModeratorConfig, RobotPose

STILL = RobotPose(0.0, 0.0, 0.0, 0.0)


def gen_times(mod, poses, t_end, tick=0.05):
    out = []
    t = 0.0
    i = 0
    while t < t_end - 1e-9:
        pose = poses(t) if callable(poses) else poses
        if mod.cam_tick(t, pose) is not None:
            out.append(t)
        i += 1
        t = i * tick
    return out


class TestCamCadence:
    def test_first_tick_emits(self):
        mod = Moderator(ModeratorConfig())
        msg = mod.cam_tick(0.0, STILL)
        assert isinstance(msg, Message)
        assert isinstance(msg.payload, CamPayload)
        assert msg.station_id == 1 and msg.timestamp_ms == 0

    def test_stationary_gap_is_exactly_max_interval(self):
        mod = Moderator(ModeratorConfig())
        times = gen_times(mod, STILL, 10.0)
        gaps = np.diff(times)
        assert times[0] == 0.0
        assert len(gaps) == 9
        assert np.allclose(gaps, 1.0, atol=1e-9)

    def test_payload_carries_pose_in_wire_units(self):
        mod = Moderator(ModeratorConfig())
        msg = mod.cam_tick(2.0, RobotPose(1.23, -4.5, 0.57, 90.0))
        p = msg.payload
        assert (p.pos_x_cm, p.pos_y_cm) == (123, -450)
        assert p.speed_cms == 57 and p.heading_cdeg == 9000

    def test_position_trigger(self):
        mod = Moderator(ModeratorConfig())
        assert mod.cam_tick(0.0, STILL) is not None
        # moved exactly the trigger distance: emit as soon as min interval allows
        moved = RobotPose(4.0, 0.0, 0.0, 0.0)
        assert mod.cam_tick(0.05, moved) is None  # min interval not yet reached
        assert mod.cam_tick(0.10, moved) is not None

    def test_position_trigger_away_from_the_origin(self):
        # the trigger is the distance moved since the last CAM, not from x = 0
        at_ten = RobotPose(10.0, 0.0, 0.0, 0.0)
        assert gen_times(Moderator(ModeratorConfig()), at_ten, 1.5) == [0.0, 1.0]
        mod = Moderator(ModeratorConfig())
        assert mod.cam_tick(0.0, at_ten) is not None
        moved = RobotPose(14.0, 0.0, 0.0, 0.0)
        assert mod.cam_tick(0.05, moved) is None  # min interval not yet reached
        assert mod.cam_tick(0.10, moved) is not None

    def test_sub_trigger_motion_waits_for_max_interval(self):
        mod = Moderator(ModeratorConfig())
        mod.cam_tick(0.0, STILL)
        nearly = RobotPose(3.9, 0.0, 0.0, 0.0)
        assert all(mod.cam_tick(t, nearly) is None
                   for t in np.arange(0.05, 0.999, 0.05))
        assert mod.cam_tick(1.0, nearly) is not None

    def test_speed_trigger(self):
        mod = Moderator(ModeratorConfig())
        mod.cam_tick(0.0, STILL)
        assert mod.cam_tick(0.1, RobotPose(0.0, 0.0, 0.49, 0.0)) is None
        assert mod.cam_tick(0.15, RobotPose(0.0, 0.0, 0.5, 0.0)) is not None

    def test_heading_trigger(self):
        mod = Moderator(ModeratorConfig())
        mod.cam_tick(0.0, STILL)
        assert mod.cam_tick(0.1, RobotPose(0.0, 0.0, 0.0, 3.99)) is None
        assert mod.cam_tick(0.15, RobotPose(0.0, 0.0, 0.0, 4.0)) is not None

    def test_trigger_respects_min_interval(self):
        mod = Moderator(ModeratorConfig())
        # keep the pose jumping every tick: gaps never drop below the floor
        jumpy = lambda t: RobotPose(100.0 * t, 0.0, 0.0, 0.0)
        gaps = np.diff(gen_times(mod, jumpy, 5.0))
        assert gaps.min() >= 0.1 - 1e-9
        assert gaps.max() < 1.0  # triggers fire well before the max interval


class TestCamJitter:
    def cfg(self):
        return ModeratorConfig(cam_jitter_enabled=True)

    def test_gaps_one_sided_above_max_interval(self):
        mod = Moderator(self.cfg(), jitter_seed=7)
        gaps = np.diff(gen_times(mod, STILL, 200.0, tick=0.005))
        assert gaps.min() >= 1.0 - 1e-9
        assert gaps.std() > 0.0

    def test_mean_gap_matches_jitter_offset(self):
        mod = Moderator(self.cfg(), jitter_seed=7)
        gaps = np.diff(gen_times(mod, STILL, 400.0, tick=0.005))
        # gap = interval + quantisation to the 5 ms tick (adds ~2.5 ms)
        assert gaps.mean() == pytest.approx(1.10, abs=0.02)

    def test_seed_determinism(self):
        a = gen_times(Moderator(self.cfg(), jitter_seed=3), STILL, 50.0, tick=0.005)
        b = gen_times(Moderator(self.cfg(), jitter_seed=3), STILL, 50.0, tick=0.005)
        c = gen_times(Moderator(self.cfg(), jitter_seed=4), STILL, 50.0, tick=0.005)
        assert a == b
        assert a != c

    def test_disabled_jitter_ignores_seed(self):
        a = gen_times(Moderator(ModeratorConfig(), jitter_seed=3), STILL, 5.0)
        b = gen_times(Moderator(ModeratorConfig(), jitter_seed=9), STILL, 5.0)
        assert a == b


def denm(origin=200, seq=17, hop=0, ts=5000):
    return Message(origin, ts,
                   DenmPayload(3, seq, 13430, 0, 60, hop, origin))


class TestDenmRelay:
    def test_relay_rewrites_sender_and_increments_hop(self):
        mod = Moderator(ModeratorConfig())
        out = mod.relay_denm(denm())
        assert out.station_id == 1          # robot becomes the sender
        assert out.timestamp_ms == 5000     # origin timestamp preserved
        assert out.payload.hop_count == 1
        assert out.payload.origin_station_id == 200
        assert out.payload.sequence_number == 17
        assert out.payload.cause_code == 3

    def test_the_same_denm_is_relayed_each_time(self):
        # the moderator keeps no DENM memory: the engine's per-receiver key
        # set passes on only the first copy of each (origin, sequence)
        mod = Moderator(ModeratorConfig())
        first = mod.relay_denm(denm())
        assert first is not None
        assert mod.relay_denm(denm()) == first
        assert mod.relay_denm(denm(ts=9999)) is not None

    def test_new_sequence_or_origin_is_fresh(self):
        mod = Moderator(ModeratorConfig())
        assert mod.relay_denm(denm(seq=17)) is not None
        assert mod.relay_denm(denm(seq=18)) is not None
        assert mod.relay_denm(Message(300, 0, DenmPayload(3, 17, 0, 0, 60, 0, 300))) is not None

    def test_the_received_message_is_left_unchanged(self):
        received = denm(hop=0)
        out = Moderator(ModeratorConfig()).relay_denm(received)
        assert out.payload.hop_count == 1
        assert received == denm(hop=0) and received.payload.hop_count == 0

    def test_hop_budget_exhausted(self):
        mod = Moderator(ModeratorConfig())  # max_hops=1
        assert mod.relay_denm(denm(hop=1)) is None

    def test_two_hop_budget(self):
        mod = Moderator(ModeratorConfig(max_hops=2))
        out = mod.relay_denm(denm(hop=1))
        assert out is not None and out.payload.hop_count == 2
        assert mod.relay_denm(denm(seq=18, hop=2)) is None

    def test_self_originated_is_never_relayed(self):
        mod = Moderator(ModeratorConfig())
        mine = Message(1, 0, DenmPayload(3, 5, 0, 0, 60, 0, 1))
        assert mod.relay_denm(mine) is None


class TestActuation:
    def test_hold_schedules_nothing(self):
        mod = Moderator(ModeratorConfig())
        assert mod.actuate(Action.HOLD, 0.0) == []
        assert mod.due_actuations(100.0) == []

    def test_stop_completes_after_move_plus_raise(self):
        mod = Moderator(ModeratorConfig())
        (ev,) = mod.actuate(Action.STOP, 10.0)
        assert ev.phase == "posture_complete"
        assert ev.due_s == pytest.approx(15.0)  # 2.0 move + 3.0 raise

    def test_pass_clears_lane_after_move(self):
        mod = Moderator(ModeratorConfig())
        (ev,) = mod.actuate(Action.PASS, 10.0)
        assert ev.phase == "lane_clear"
        assert ev.due_s == pytest.approx(12.0)

    def test_due_actuations_pops_once(self):
        mod = Moderator(ModeratorConfig())
        mod.actuate(Action.STOP, 0.0)
        assert mod.due_actuations(4.99) == []
        (ev,) = mod.due_actuations(5.0)
        assert ev.phase == "posture_complete"
        assert mod.due_actuations(100.0) == []

    def test_due_tolerates_float_drift(self):
        mod = Moderator(ModeratorConfig())
        mod.actuate(Action.PASS, 0.1 * 3)  # 0.30000000000000004
        assert len(mod.due_actuations(2.3)) == 1

    def test_pass_cancels_pending_stop(self):
        mod = Moderator(ModeratorConfig())
        mod.actuate(Action.STOP, 0.0)
        mod.actuate(Action.PASS, 1.0)
        due = mod.due_actuations(100.0)
        assert [e.phase for e in due] == ["lane_clear"]

    def test_stop_cancels_pending_pass(self):
        mod = Moderator(ModeratorConfig())
        mod.actuate(Action.PASS, 0.0)
        mod.actuate(Action.STOP, 0.5)
        due = mod.due_actuations(100.0)
        assert [e.phase for e in due] == ["posture_complete"]

    def test_due_order_is_chronological(self):
        mod = Moderator(ModeratorConfig(move_to_center_s=1.0, raise_flag_s=1.0))
        mod.actuate(Action.STOP, 0.0)   # posture_complete at 2.0
        mod.actuate(Action.STOP, 3.0)   # same kind is not cancelled, just queued
        assert [e.due_s for e in mod.due_actuations(10.0)] == [2.0, 5.0]
