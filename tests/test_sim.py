"""Scenario validation, trajectory math and end-to-end engine behaviour."""

import copy
import dataclasses
import functools
import hashlib
import importlib.util
import json
import math
import operator
import os
import pathlib
import re
import string
import subprocess
import sys
import types
import typing
from unittest import mock

import numpy as np
import orjson
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from mergeguard import perception, sim
from mergeguard.channel import _DRAW_BLOCK, Channel, ChannelConfig
from mergeguard.messages import (CpmPayload, DenmPayload, Message, ObjectClass,
                                 PerceivedObject)
from mergeguard.sim import (LOG_FORMAT_VERSION, EventLog, ParseError,
                            TrajectorySegment, ValidationError, eval_trajectory,
                            load_scenario, log_from_jsonl, make_pass_scenario,
                            run, scenario_from_dict, trajectory_summary,
                            vehicle_cam)
from reference_engine import PLAIN_RULES, ReferenceEngine, reference_run, scalar_observe

SCENARIO_DIR = pathlib.Path(__file__).resolve().parent.parent / "scenarios"
SHIPPED = {path.stem: json.loads(path.read_text()) for path in sorted(SCENARIO_DIR.glob("*.json"))}

CAL = {"order": 2, "weights": [5.0, 0.1, 0.0001]}
LINE = {"p0": [60.0, 420.0], "p1": [820.0, 80.0]}


def minimal():
    return {
        "schema_version": 1,
        "name": "minimal",
        "duration_s": 2.0,
        "tick_s": 0.05,
        "rng_seed": 0,
        "robot": {"station_id": 1},
        "entities": [],
    }


def camera(cam_id=0, pos=-24.0, sign=-1):
    return {"camera_id": cam_id, "road_position_m": pos, "direction_sign": sign,
            "line": copy.deepcopy(LINE), "calibration": copy.deepcopy(CAL)}


def with_infra(obj):
    obj["infra"] = {"station_id": 100, "position": [0.0, 6.0],
                    "cameras": [camera()]}
    return obj


# ---------------------------------------------------------------------------
# trajectory math


SEGS = (TrajectorySegment(0.0, 0.0, 10.0, 0.0),
        TrajectorySegment(4.0, 40.0, 10.0, -2.0),
        TrajectorySegment(9.0, 65.0, 0.0, 0.0))


class TestEvalTrajectory:
    def test_constant_speed(self):
        assert eval_trajectory(SEGS, 2.0) == (20.0, 10.0)

    def test_segment_boundary_uses_new_piece(self):
        x, v = eval_trajectory(SEGS, 4.0)
        assert (x, v) == (40.0, 10.0)

    def test_deceleration(self):
        x, v = eval_trajectory(SEGS, 6.0)
        assert x == pytest.approx(40.0 + 10.0 * 2 - 0.5 * 2.0 * 4)
        assert v == pytest.approx(6.0)

    def test_at_rest_after_stop(self):
        assert eval_trajectory(SEGS, 12.0) == (65.0, 0.0)

    @pytest.mark.parametrize("offset,in_force", [(0.5e-9, True), (1.5e-9, False)])
    def test_a_segment_starting_within_time_eps_is_in_force(self, offset, in_force):
        # the second segment starts ``offset`` after t = 1; _TIME_EPS is 1e-9
        segs = (TrajectorySegment(0.0, 0.0, 10.0, 0.0),
                TrajectorySegment(1.0 + offset, 10.0 + 10.0 * offset, 10.0, -4.0))
        assert eval_trajectory(segs, 1.0) == (segs[1] if in_force else segs[0]).at(1.0)

    def test_many_segments_are_bisected(self):
        # a trajectory of 2**16 segments: each call reads a few dozen, not
        # every segment up to the one in force
        class Counted:
            reads = 0

            def __init__(self, items):
                self.items = items

            def __len__(self):
                return len(self.items)

            def __getitem__(self, k):  # iteration reads through here too
                Counted.reads += 1
                return self.items[k]

        segs = Counted([TrajectorySegment(float(k), float(k), 0.0, 0.0) for k in range(2 ** 16)])
        for t, k in [(0.0, 0), (0.5, 0), (1.0 - 0.5e-9, 1), (40000.25, 40000), (1e6, 2 ** 16 - 1)]:
            Counted.reads = 0
            assert eval_trajectory(segs, t) == segs[k].at(t)
            assert Counted.reads <= 2 * 17


TICK = 0.05


class TestTrajectorySummary:
    def test_constant_speed(self):
        segs = (TrajectorySegment(0.0, -50.0, 10.0, 0.0),)
        stop, path, mean = trajectory_summary(segs, 10.0)
        assert (stop, path, mean) == (10.0, 100.0, 10.0)

    def test_stop_time_is_end_of_motion(self):
        stop, path, mean = trajectory_summary(SEGS, 20.0)
        assert stop == 9.0
        assert path == pytest.approx(40.0 + (10.0 * 5 - 0.5 * 2.0 * 25))
        assert mean == pytest.approx(path / 9.0)

    def test_reversal_splits_path(self):
        # thrown up at 10 m/s with a = -2: turns at t=5, returns at t=10
        segs = (TrajectorySegment(0.0, 0.0, 10.0, -2.0),)
        stop, path, mean = trajectory_summary(segs, 10.0)
        assert stop == 10.0
        assert path == pytest.approx(50.0)  # 25 out + 25 back, not net 0
        assert mean == pytest.approx(5.0)

    def test_still_moving_at_end(self):
        segs = (TrajectorySegment(0.0, 0.0, 4.0, 0.0),)
        stop, path, _ = trajectory_summary(segs, 7.0)
        assert stop == 7.0 and path == pytest.approx(28.0)

    def test_all_parked(self):
        segs = (TrajectorySegment(0.0, 5.0, 0.0, 0.0),)
        assert trajectory_summary(segs, 10.0) == (0.0, 0.0, 0.0)

    def test_tracked_urban_profile(self):
        scenario = load_scenario(SCENARIO_DIR / "rotterdam_run.json")
        stop, path, mean = trajectory_summary(scenario.entities[0].trajectory,
                                              scenario.duration_s)
        assert stop == pytest.approx(19.82, abs=1e-9)
        assert path == pytest.approx(185.5, abs=1e-9)
        assert mean == pytest.approx(9.35923309788093, abs=1e-12)


# ---------------------------------------------------------------------------
# schema validation


class TestValidation:
    def test_minimal_accepts(self):
        sc = scenario_from_dict(minimal())
        assert sc.name == "minimal" and sc.tick_s == 0.05

    def check(self, obj, fragment):
        with pytest.raises(ValidationError, match=fragment):
            scenario_from_dict(obj)

    def test_wrong_schema_version(self):
        self.check({**minimal(), "schema_version": 2}, "schema_version")

    def test_missing_seed(self):
        obj = minimal()
        del obj["rng_seed"]
        self.check(obj, "rng_seed")

    def test_boolean_is_not_a_number(self):
        self.check({**minimal(), "duration_s": True}, "number")

    def test_tick_must_divide_duration(self):
        self.check({**minimal(), "duration_s": 1.03}, "divide duration_s")

    def test_tick_must_divide_decision_period(self):
        obj = minimal()
        obj["robot"]["decision_period_s"] = 0.07
        self.check(obj, "decision_period_s")

    def test_unknown_channel_field(self):
        self.check({**minimal(), "channel": {"bandwidth": 5}}, "channel")

    def test_unknown_zod_field(self):
        obj = minimal()
        obj["robot"]["zod"] = {"radius": 5}
        self.check(obj, "robot")

    def trajectory_entity(self, segments):
        obj = minimal()
        obj["entities"] = [{"station_id": 0, "v2x_equipped": False,
                            "trajectory": segments}]
        return obj

    def seg(self, t, x, v, a=0.0):
        return {"start_time_s": t, "start_x_m": x, "speed_mps": v, "accel_mps2": a}

    def test_trajectory_must_start_at_zero(self):
        self.check(self.trajectory_entity([self.seg(1.0, 0.0, 1.0)]), "start at 0")

    def test_trajectory_segments_must_advance(self):
        obj = self.trajectory_entity([self.seg(0.0, 0.0, 1.0), self.seg(0.0, 0.0, 1.0)])
        self.check(obj, "overlapping")

    def test_position_continuity(self):
        obj = self.trajectory_entity([self.seg(0.0, 0.0, 1.0), self.seg(1.0, 5.0, 1.0)])
        self.check(obj, "position discontinuity")

    def test_speed_continuity(self):
        obj = self.trajectory_entity([self.seg(0.0, 0.0, 1.0), self.seg(1.0, 1.0, 2.0)])
        self.check(obj, "speed discontinuity")

    def test_v2x_needs_station_id(self):
        obj = minimal()
        obj["entities"] = [{"station_id": 0, "v2x_equipped": True,
                            "trajectory": [self.seg(0.0, 0.0, 1.0)]}]
        self.check(obj, "station_id")

    def test_tick_must_divide_cam_period(self):
        obj = minimal()
        obj["entities"] = [{"station_id": 7, "v2x_equipped": True,
                            "cam_period_s": 0.13,
                            "trajectory": [self.seg(0.0, 0.0, 1.0)]}]
        self.check(obj, "cam_period_s")

    def test_station_ids_unique(self):
        obj = minimal()
        obj["entities"] = [{"station_id": 1, "v2x_equipped": True,
                            "trajectory": [self.seg(0.0, 0.0, 1.0)]}]
        self.check(obj, "unique")

    def test_camera_calibration_must_increase(self):
        obj = with_infra(minimal())
        obj["infra"]["cameras"][0]["calibration"] = {"order": 1, "weights": [5.0, -0.1]}
        self.check(obj, "increase")

    def test_camera_ids_unique(self):
        obj = with_infra(minimal())
        obj["infra"]["cameras"].append(camera(cam_id=0, pos=24.0, sign=1))
        self.check(obj, "unique")

    def test_cameras_not_empty(self):
        obj = with_infra(minimal())
        obj["infra"]["cameras"] = []
        self.check(obj, "cameras")

    def test_tick_must_divide_cpm_period(self):
        obj = with_infra(minimal())
        obj["infra"]["perception"] = {"cpm_period_s": 0.13}
        self.check(obj, "cpm_period_s")

    def test_rsu_period_positive(self):
        obj = minimal()
        obj["rsu"] = {"station_id": 200, "position": [10.0, 0.0],
                      "denm": {"period_s": 0.0}}
        self.check(obj, "period_s")

    def test_merging_window_ordering(self):
        obj = minimal()
        obj["merging_windows"] = [{"start_s": 5.0, "end_s": 5.0}]
        self.check(obj, "precede")

    def test_channel_loss_prob_out_of_range(self):
        self.check({**minimal(), "channel": {"loss_prob": 2}}, "loss_prob")

    def test_detect_min_must_not_exceed_max(self):
        obj = with_infra(minimal())
        obj["infra"]["sensor"] = {"detect_min_m": 140.0, "detect_max_m": 130.0}
        self.check(obj, "detect_min_m")

    def test_detect_std_non_negative(self):
        obj = with_infra(minimal())
        obj["infra"]["sensor"] = {"max_detect_std_m": -1.0}
        self.check(obj, "max_detect_std_m")

    def test_pixel_noise_std_non_negative(self):
        # the sensor draws from N(0, std); a zero std is allowed and draws zeros
        obj = with_infra(minimal())
        obj["infra"]["sensor"] = {"pixel_noise_std": -0.5}
        self.check(obj, r"^infra.sensor: pixel_noise_std must be non-negative$")
        obj["infra"]["sensor"] = {"pixel_noise_std": 0.0}
        scenario_from_dict(obj)

    @pytest.mark.parametrize("move, flag", [(1e308, 1e308), (-1e308, -1e308)])
    def test_stop_completion_must_be_finite(self, move, flag):
        # the actuation event logs completes_at, which JSON cannot hold if infinite
        obj = copy.deepcopy(SHIPPED["rotterdam_run"])
        obj["robot"]["moderator"].update(move_to_center_s=move, raise_flag_s=flag)
        self.check(obj, r"^duration_s \+ robot.moderator.move_to_center_s \+ raise_flag_s "
                        r"must be finite$")
        obj["robot"]["moderator"].update(move_to_center_s=move, raise_flag_s=-flag)
        scenario_from_dict(obj)

    def long_run(self, duration_s, tick_s):
        obj = make_pass_scenario(3, v2x=False)
        obj.update(duration_s=duration_s, tick_s=tick_s)
        obj["robot"]["decision_period_s"] = tick_s
        obj["infra"]["perception"] = {"cpm_period_s": tick_s}
        return obj

    def test_last_tick_timestamp_must_fit_the_wire(self):
        # a u64 timestamp_ms holds about 1.8e16 s; the run's last messages carry 1e17 s
        self.check(self.long_run(1e17, 1e16),
                   r"^duration_s: CAM message does not fit the wire: int too large to convert$")
        sc = scenario_from_dict(self.long_run(1e16, 1e15))  # 1e19 ms fits the u64
        _, events = log_from_jsonl(run(sc).to_jsonl())
        assert max(e["timestamp_ms"] for e in events if e["type"] == "cpm_gen") == 10**19

    @pytest.mark.parametrize("duration, ok", [(9_999_999.0, True), (10_000_000.0, False)])
    def test_run_work_is_bounded(self, duration, ok):
        # the robot alone at one tick a second: 10**7 ticks, 0 to 10**7 s, reach the bound
        obj = {**minimal(), "duration_s": duration, "tick_s": 1.0}
        obj["robot"]["decision_period_s"] = 1.0
        if ok:
            assert scenario_from_dict(obj).duration_s == duration
        else:
            self.check(obj, r"^duration_s: 10000001 ticks x 1 actors \(robot, entities, cameras\) "
                            r"exceed the bound of 10000000 tick-actors per run$")

    def test_detect_bounds_must_be_numbers(self):
        obj = with_infra(minimal())
        obj["infra"]["sensor"] = {"detect_min_m": "80"}
        self.check(obj, "infra")

    def every_station(self, where, sid):
        obj = with_infra(minimal())
        obj["rsu"] = {"station_id": 200, "position": [10.0, 0.0]}
        obj["entities"] = [{"station_id": 7, "trajectory": [self.seg(0.0, -50.0, 10.0)]}]
        if where == "robot":
            obj["robot"]["moderator"] = {"station_id": sid}
        elif where == "entities[0]":
            obj["entities"][0]["station_id"] = sid
        else:
            obj[where]["station_id"] = sid
        return obj

    @pytest.mark.parametrize("where", ["robot", "infra", "rsu", "entities[0]"])
    @pytest.mark.parametrize("sid", [-1, 2**32])
    def test_station_id_must_fit_u32(self, where, sid):
        self.check(self.every_station(where, sid), r"station_id must be an integer")
        scenario_from_dict(self.every_station(where, 2**32 - 1))

    def spot_checked(self):
        obj = with_infra(minimal())
        obj["rsu"] = {"station_id": 200, "position": [10.0, 0.0]}
        obj["entities"] = [{"station_id": 7 + k, "trajectory": [self.seg(0.0, -50.0, 10.0)]}
                           for k in range(5)]
        return obj

    @pytest.mark.parametrize("msg_type,why", [
        ("CAM", "robot.position"), ("DENM", "rsu"), ("CPM", "infra.cameras")])
    def test_loader_spot_checks_the_wire(self, monkeypatch, msg_type, why):
        # the engine delivers the sent message, relying on it decoding to
        # itself; a codec that changes one field of one kind fails the load
        obj = self.spot_checked()
        scenario_from_dict(obj)
        decode = sim.decode_message

        def changing(data, **kwargs):
            msg = decode(data, **kwargs)
            if msg.msg_type.name == msg_type:
                msg = msg._replace(timestamp_ms=msg.timestamp_ms + 1)
            return msg

        monkeypatch.setattr(sim, "decode_message", changing)
        self.check(obj, rf"^{re.escape(why)}: does not survive the wire$")

    def test_loader_decodes_one_message_of_each_kind(self, monkeypatch):
        # vehicle CAMs are only encoded, however many vehicles there are
        decoded, decode = [], sim.decode_message

        def recording(data, **kwargs):
            msg = decode(data, **kwargs)
            decoded.append(msg.msg_type.name)
            return msg

        monkeypatch.setattr(sim, "decode_message", recording)
        scenario_from_dict(self.spot_checked())
        assert decoded == ["CAM", "DENM", "CPM"]

    @pytest.mark.parametrize("segments", [
        [{"start_time_s": 0.0, "start_x_m": 0.0, "speed_mps": 700.0, "accel_mps2": 0.0}],
        [{"start_time_s": 0.0, "start_x_m": 0.0, "speed_mps": -655.36, "accel_mps2": 0.0}],
        [{"start_time_s": 0.0, "start_x_m": 0.0, "speed_mps": 600.0, "accel_mps2": 50.0}],
    ], ids=["start", "negative", "end of last segment"])
    def test_v2x_speed_must_fit_cam_field(self, segments):
        obj = minimal()
        obj["entities"] = [{"station_id": 7, "trajectory": segments}]
        self.check(obj, r"entities\[0\]: CAM message does not fit the wire")
        obj["entities"][0]["v2x_equipped"] = False
        obj["entities"][0]["station_id"] = 0
        scenario_from_dict(obj)

    def test_cam_speed_limit_is_inclusive(self):
        obj = minimal()
        obj["entities"] = [{"station_id": 7, "trajectory": [self.seg(0.0, 0.0, -655.35)]}]
        assert run(scenario_from_dict(obj)).log.of_type("cam_gen")

    def v2x_at(self, x):
        obj = minimal()
        obj["entities"] = [{"station_id": 7, "trajectory": [self.seg(0.0, x, 0.0)]}]
        return obj

    def with_rsu(self, **fields):
        obj = minimal()
        obj["rsu"] = {"station_id": 200, **fields}
        return obj

    def with_entity(self, **fields):
        obj = minimal()
        obj["entities"] = [{"trajectory": [self.seg(0.0, -30.0, 10.0)], **fields}]
        return obj

    def with_sensor(self, **fields):
        obj = with_infra(minimal())
        obj["infra"]["sensor"] = fields
        return obj

    def with_robot(self, **fields):
        obj = minimal()
        obj["robot"].update(fields)
        return obj

    def unusable(self, case):
        """A scenario with one value the run cannot use, and the error it must raise."""
        far_camera = camera()
        far_camera["calibration"] = {"order": 2, "weights": [5.0, 10.0, 0.0001]}
        turning = [self.seg(0.0, 21474836.0, 1.0, -1.0)]  # peaks at 21474836.5 m
        expiring = with_infra({**minimal(), "duration_s": 80.0})
        expiring["infra"]["perception"] = {"track_expiry_s": 100}  # u16 meas_delta_ms
        expiring["entities"] = [{"trajectory": [self.seg(0.0, -130.0, -5.0)]}]
        far_road = with_infra(minimal())
        far_road["infra"]["cameras"] = [camera(0, 21474800.0, 1)]  # i32 pos_x_cm
        far_road["entities"] = [{"trajectory": [self.seg(0.0, 21474900.0, 0.0)]}]
        camera_far = with_infra(minimal())
        camera_far["infra"]["cameras"][0]["road_position_m"] = 1e308
        never_expiring = with_infra(minimal())
        never_expiring["infra"]["perception"] = {"track_expiry_s": -1.0}
        short_weights = with_infra(minimal())
        short_weights["infra"]["cameras"][0]["calibration"] = {"order": 2, "weights": [5.0, 0.1]}
        cpm_early = with_infra(minimal())
        cpm_early["infra"]["cpm_processing_delay_s"] = -0.1
        window_behind = {**minimal(), "merging_windows": [
            {"start_s": 0.0, "end_s": 1.0, "distance_m": -1.0}]}
        return {
            "position_not_numbers": (self.with_robot(position=["a", 0]),
                                     r"robot\.position must be two finite numbers"),
            "entity_not_object": ({**minimal(), "entities": [3]},
                                  r"entities\[0\] must be an object"),
            "duration_infinite": ({**minimal(), "duration_s": math.inf},
                                  "duration_s must be a finite number"),
            "staleness_not_number": (self.with_robot(zod={"staleness_s": "x"}),
                                     r"robot\.zod\.staleness_s must be a finite number"),
            "object_class_4": (self.with_entity(object_class=4), "object_class must be 1, 2 or 3"),
            "object_class_0": (self.with_entity(object_class=0), "object_class must be 1, 2 or 3"),
            "sensor_mean_far_outside": (self.with_sensor(max_detect_mean_m=1000.0),
                                        r"infra\.sensor: .* at least 0\.1%"),
            "comm_range_nan": ({**minimal(), "channel": {"comm_range_m": math.nan}},
                               r"channel\.comm_range_m must be a finite number"),
            "object_class_float": (self.with_entity(object_class=1.7),
                                   r"entities\[0\]\.object_class must be an integer"),
            "tick_string": ({**minimal(), "tick_s": "0.05"}, "tick_s must be a finite number"),
            "denm_cause_code_300": (self.with_rsu(denm={"cause_code": 300}),
                                    "rsu: DENM message does not fit the wire"),
            "denm_validity_70000": (self.with_rsu(denm={"validity_s": 70000}),
                                    "rsu: DENM message does not fit the wire"),
            "robot_position_3e7": (self.with_robot(position=[3e7, 0.0]),
                                   r"robot\.position: CAM message does not fit the wire"),
            "rsu_position_3e7": (self.with_rsu(position=[3e7, 0.0]),
                                 "rsu: DENM message does not fit the wire"),
            "v2x_position_3e7": (self.v2x_at(3e7),
                                 r"entities\[0\]: CAM message does not fit the wire"),
            "v2x_turning_point": ({**minimal(), "entities": [
                {"station_id": 7, "trajectory": turning}]},
                r"entities\[0\]: CAM message does not fit the wire"),
            "camera_range_dm": ({**minimal(), "infra": {"station_id": 100,
                                                        "cameras": [far_camera]}},
                                r"infra\.cameras: CPM message does not fit the wire"),
            "max_hops_negative": ({**self.with_rsu(), "robot": {"moderator": {"max_hops": -1}}},
                                  r"robot\.moderator: max_hops must be non-negative"),
            "cam_jitter_std_negative": (
                {**self.with_rsu(), "robot": {"moderator": {"cam_jitter_enabled": True,
                                                            "cam_jitter_std_s": -0.05}}},
                r"robot\.moderator: cam_jitter_std_s must be non-negative"),
            "track_expiry_100": (expiring, r"infra\.cameras: CPM message does not fit the wire"),
            "camera_reach_3e7": (far_road, r"infra\.cameras: CPM message does not fit the wire"),
            "robot_position_1e308": (self.with_robot(position=[1e308, 0.0]),
                                     r"robot\.position: cannot convert float infinity"),
            "rsu_position_1e308": (self.with_rsu(position=[0.0, -1e308]),
                                   r"rsu: cannot convert float infinity"),
            "camera_position_1e308": (camera_far, r"infra\.cameras: cannot convert float infinity"),
            "denm_repeat_count_2e64": (self.with_rsu(denm={"repeat_count": 2**64}),
                                       r"rsu\.denm: repeat copies"),
            "denm_repeat_gap_below_tick": (self.with_rsu(denm={"repeat_count": 2,
                                                               "repeat_gap_s": 0.01}),
                                           r"rsu\.denm: repeat copies"),
            "track_expiry_negative": (never_expiring,
                                      r"infra\.perception: track_expiry_s must be non-negative"),
            "denm_period_below_tick": (self.with_rsu(denm={"period_s": 0.01}),
                                       r"rsu\.denm\.period_s must be at least tick_s"),
            "calibration_weights_short": (
                short_weights,
                r"^infra\.cameras\[0\]\.calibration: weights length must be order \+ 1$"),
            "tau_th_negative": (self.with_robot(zod={"tau_th_s": -1.0}),
                                r"^robot\.zod: tau_th_s must be non-negative$"),
            "cpm_delay_negative": (cpm_early,
                                   r"^infra: cpm_processing_delay_s must be non-negative$"),
            "denm_repeat_count_0": (self.with_rsu(denm={"repeat_count": 0}),
                                    r"^rsu\.denm: repeat_count must be at least 1$"),
            "merging_distance_negative": (
                window_behind, r"^merging_windows\[0\]: distance must be non-negative$"),
        }[case]

    @pytest.mark.parametrize("case", [
        "position_not_numbers", "entity_not_object", "duration_infinite",
        "staleness_not_number", "object_class_4", "object_class_0", "sensor_mean_far_outside",
        "comm_range_nan", "object_class_float", "tick_string", "denm_cause_code_300",
        "denm_validity_70000", "robot_position_3e7", "rsu_position_3e7", "v2x_position_3e7",
        "v2x_turning_point", "camera_range_dm", "max_hops_negative",
        "cam_jitter_std_negative", "track_expiry_100",
        "camera_reach_3e7", "robot_position_1e308", "rsu_position_1e308",
        "camera_position_1e308", "denm_repeat_count_2e64", "denm_repeat_gap_below_tick",
        "track_expiry_negative", "denm_period_below_tick", "calibration_weights_short",
        "tau_th_negative", "cpm_delay_negative", "denm_repeat_count_0",
        "merging_distance_negative"])
    def test_value_the_run_cannot_use(self, case):
        self.check(*self.unusable(case))

    def test_cam_position_limits_are_inclusive(self):
        for x in (21474836.47, -21474836.48):
            assert run(scenario_from_dict(self.v2x_at(x))).log.of_type("cam_gen")
        for x in (21474836.48, -21474836.49):
            self.check(self.v2x_at(x), r"entities\[0\]: CAM message does not fit the wire")

    def test_sensor_window_mass_bound(self):
        # N(110.1, 6.5): about 0.23% lies above 128.5 and 2e-6 above 140
        scenario_from_dict(self.with_sensor(detect_min_m=128.5, detect_max_m=150.0))
        self.check(self.with_sensor(detect_min_m=140.0, detect_max_m=150.0), "0.1%")
        scenario_from_dict(self.with_sensor(max_detect_std_m=0.0, max_detect_mean_m=1000.0))

    @pytest.mark.parametrize("where", ["trajectory[0]", "merging_windows[0]", "rsu.denm"])
    def test_record_rejects_unknown_key(self, where):
        obj = self.with_rsu(denm={"period_s": 1.0})
        obj["entities"] = [{"trajectory": [self.seg(0.0, -30.0, 10.0)]}]
        obj["merging_windows"] = [{"start_s": 0.0, "end_s": 1.0}]
        {"trajectory[0]": obj["entities"][0]["trajectory"][0],
         "merging_windows[0]": obj["merging_windows"][0],
         "rsu.denm": obj["rsu"]["denm"]}[where]["extra"] = 1
        self.check(obj, f"{re.escape(where)}: unknown field 'extra'")

    @pytest.mark.parametrize("where, key", [("robot.zod", "x_min"),
                                            ("infra.cameras[0].line", "direction")])
    def test_derived_field_is_not_a_key(self, where, key):
        obj = with_infra(minimal())
        obj["robot"]["zod"] = {}
        {"robot.zod": obj["robot"]["zod"],
         "infra.cameras[0].line": obj["infra"]["cameras"][0]["line"]}[where][key] = 1.0
        self.check(obj, f"{re.escape(where)}: unknown field '{key}'")

    @pytest.mark.parametrize("n, ok", [(1 << 14, True), ((1 << 14) + 1, False)])
    def test_entity_index_must_fit_a_cpm_track_id(self, n, ok):
        # entities 0 and 16,384 would share one CPM object id
        obj = make_pass_scenario(1)
        parked = [{"trajectory": [self.seg(0.0, -1000.0, 0.0)]}] * n
        obj["entities"] = [{"trajectory": [self.seg(0.0, -74.0, 0.0)]}, *parked[2:],
                           {"trajectory": [self.seg(0.0, -74.0, 0.0)]}]
        if ok:
            assert len(scenario_from_dict(obj).entities) == n
        else:
            self.check(obj, "infra.cameras: track id 16384 does not fit")

    @pytest.mark.parametrize("duration, ok", [(65535.0, True), (65536.0, False)])
    def test_denm_sequence_numbers_must_not_wrap(self, duration, ok):
        # notifications at 0, 1, ..., duration s: 65,536 of them fit the u16
        obj = {**self.with_rsu(denm={"period_s": 1.0}), "duration_s": duration, "tick_s": 1.0}
        obj["robot"]["decision_period_s"] = 1.0
        if ok:
            assert scenario_from_dict(obj).rsu.denm.period_s == 1.0
        else:
            self.check(obj, "more than 65536 notifications")

    def test_composite_sections_ignore_unknown_keys(self):
        obj = with_infra(self.with_rsu(note="x"))
        obj["robot"]["station_id"] = 99  # not read: the id is robot.moderator.station_id
        obj["infra"]["note"] = obj["infra"]["cameras"][0]["note"] = "x"
        obj["entities"] = [{"note": "x", "trajectory": [self.seg(0.0, -30.0, 10.0)]}]
        obj["note"] = "x"
        sc = scenario_from_dict(obj)
        assert sc.robot.moderator.station_id == 1


class TestLoadScenario:
    def test_shipped_scenarios_load(self):
        for name in ("rotterdam_run.json", "denm_repeater.json"):
            sc = load_scenario(SCENARIO_DIR / name)
            assert sc.duration_s > 0

    def test_bad_json_is_a_parse_error(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        with pytest.raises(ParseError):
            load_scenario(p)

    @pytest.mark.parametrize("content", [
        b'{"schema_version": 1, "name": "\xff"}',
        b'{"schema_version": 1, "duration_s": ' + b"1" * 5000 + b"}",
    ], ids=["not utf-8", "integer of 5000 digits"])
    def test_unreadable_json_is_a_parse_error(self, tmp_path, content):
        p = tmp_path / "unreadable.json"
        p.write_bytes(content)
        with pytest.raises(ParseError):
            load_scenario(p)

    def test_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_scenario(tmp_path / "nope.json")

    def test_schema_doc_names_every_scenario_key(self):
        doc = (SCENARIO_DIR.parent / "docs" / "scenario_schema.md").read_text()
        words = set(re.findall(r"\w+", doc))
        keys = {name for table, _ in sim._FIELDS.values() for name, *_ in table}
        assert sorted(keys - words) == []


JSON_VALUES = [None, True, False, 0, -1, 7, 2.5, "", "x", [], [0], {}, {"x": 1}]
EXTREME_NUMBERS = [1e308, -1e308, 2**64, -2**64]


def json_type(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "boolean"
    return "number" if isinstance(value, (int, float)) else type(value).__name__


@st.composite
def mutated_scenarios(draw):
    """A shipped scenario with one node deleted, replaced by another JSON type
    or, if it is a number, replaced by an extreme one."""
    tree = copy.deepcopy(SHIPPED[draw(st.sampled_from(sorted(SHIPPED)))])
    nodes, stack = [], [tree]
    while stack:
        parent = stack.pop()
        for key in (parent if isinstance(parent, dict) else range(len(parent))):
            nodes.append((parent, key))
            if isinstance(parent[key], (dict, list)):
                stack.append(parent[key])
    parent, key = draw(st.sampled_from(nodes))
    if isinstance(parent, dict) and draw(st.booleans()):
        del parent[key]
    else:
        old = json_type(parent[key])
        values = [v for v in JSON_VALUES if json_type(v) != old]
        parent[key] = copy.deepcopy(draw(st.sampled_from(
            values + EXTREME_NUMBERS if old == "number" else values)))
    return tree


TICK_BUDGET = 600  # the longer shipped scenario's tick count


class TestLoaderIsTotal:
    @settings(deadline=None)
    @given(mutated_scenarios())
    def test_mutated_shipped_scenario_loads_and_runs_or_is_rejected(self, tree):
        try:
            sc = scenario_from_dict(tree)
        except ValidationError:
            return
        assert isinstance(sc, sim.Scenario)
        if round(sc.duration_s / sc.tick_s) <= TICK_BUDGET:
            log_from_jsonl(run(sc).to_jsonl())  # the log that report reads


MODERATOR_NUMBERS = [name for name, hint in typing.get_type_hints(sim.ModeratorConfig).items()
                     if hint in (int, float)]


class TestModeratorExtremes:
    @pytest.mark.parametrize("value", [-1, 0, 1e-12, 1e12, -1e12, 10**12])
    @pytest.mark.parametrize("name", MODERATOR_NUMBERS)
    def test_extreme_value_is_rejected_or_runs(self, name, value):
        obj = copy.deepcopy(SHIPPED["denm_repeater"])
        obj["duration_s"] = 6.0
        obj["robot"]["moderator"].update({"cam_jitter_enabled": True, name: value})
        try:
            sc = scenario_from_dict(obj)
        except ValidationError:
            return
        log_from_jsonl(run(sc).to_jsonl())  # the log that report reads


# ---------------------------------------------------------------------------
# engine runs


class TestEmptyWorld:
    def test_robot_alone_stays_passing(self):
        res = run(scenario_from_dict(minimal()))
        decisions = res.log.of_type("decision")
        assert [(d["t"], d["action"]) for d in decisions] == [(0.0, "pass")]
        assert res.log.of_type("zod_enter") == []
        phases = [(e["t"], e["phase"]) for e in res.log.of_type("actuation")]
        assert (0.0, "pass_issued") in phases
        assert (2.0, "lane_clear") in phases

    def test_header_echoes_run_parameters(self):
        res = run(scenario_from_dict(minimal()), seed=42)
        h = res.header
        assert h["scenario"] == "minimal" and h["seed"] == 42
        assert h["tick_s"] == 0.05 and h["duration_s"] == 2.0

    def test_robot_cams_still_beacon(self):
        res = run(scenario_from_dict(minimal()))
        gen = [e for e in res.log.of_type("cam_gen") if e["actor"] == "robot"]
        assert [e["t"] for e in gen] == [0.0, 1.0, 2.0]  # jitter off by default


class TestCrowdedCamera:
    def test_cpm_of_256_parked_cars_carries_255(self):
        obj = with_infra({**minimal(), "duration_s": 1.0})
        obj["infra"]["cpm_processing_delay_s"] = 0.0
        obj["entities"] = [{"trajectory": [{"start_time_s": 0.0, "start_x_m": -34.0 - 0.25 * i,
                                            "speed_mps": 0.0, "accel_mps2": 0.0}]}
                           for i in range(256)]
        res = run(scenario_from_dict(obj))
        assert [(e["t"], e["n_objects"]) for e in res.log.of_type("cpm_gen")] == [
            (t, 255) for t in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)]
        assert sum(e["msg_type"] == "CPM" for e in res.log.of_type("msg_tx")) == 6


class TestSensorDraws:
    def sensor(self, pixel_noise_std, n_entities):
        obj = with_infra(minimal())
        obj["infra"]["cameras"] = [camera(0, -24.0, -1), camera(1, 24.0, 1)]
        cameras = scenario_from_dict(obj).infra.cameras
        config = sim.SensorConfig(pixel_noise_std=pixel_noise_std)
        return sim.SensorModel(config, cameras, n_entities, np.random.default_rng(5))

    @staticmethod
    def positions(n_entities, now_s):
        # vehicles on both approaches, 0-200 m beyond their camera, driving
        # toward the gate, so the sightings per tick vary
        return [(-1.0) ** idx * (24.0 + (idx * 37.0) % 200.0 - 8.0 * now_s)
                for idx in range(n_entities)]

    def observe_blocks(self, sensor, n_entities, n_ticks, block_ticks):
        """``sensor``'s sightings over the ticks, one ``observe`` call per
        block: (tick, event, distance, image point of its noise)."""
        ids, out = list(range(1000, 1000 + n_entities)), []
        for i0 in range(0, n_ticks, block_ticks):
            ticks = range(i0, min(i0 + block_ticks, n_ticks))
            got = sensor.observe([round(i * TICK, 9) for i in ticks],
                                 np.array([self.positions(n_entities, i * TICK) for i in ticks]),
                                 ids)
            out += [(i0 + k, event, dist, sensor.image_point(event[3], dist, noise))
                    for k, event, dist, noise in got]
        return out

    def scalar_sightings(self, sensor, n_entities, n_ticks):
        """The same, one scalar draw per sighting, events built one by one."""
        out, seen = [], set()
        for i in range(n_ticks):
            positions = self.positions(n_entities, i * TICK)
            for cam_id, idx, dist, point in scalar_observe(sensor, positions):
                event = (round(i * TICK, 9), "detection", "infra", cam_id, idx, 1000 + idx,
                         round(dist, 6), round(positions[idx], 6), idx not in seen)
                seen.add(idx)
                out.append((i, event, dist, point))
        return out

    @pytest.mark.parametrize("n_entities, n_ticks, block_ticks",
                             [(30, 150, 1), (30, 150, 37), (600, 6, 4)],
                             ids=["a tick a block", "many ticks a block", "many entities"])
    def test_block_sightings_are_the_scalar_draws(self, n_entities, n_ticks, block_ticks):
        block, scalar = self.sensor(2.0, n_entities), self.sensor(2.0, n_entities)
        got = self.observe_blocks(block, n_entities, n_ticks, block_ticks)
        assert got and got == self.scalar_sightings(scalar, n_entities, n_ticks)
        assert all(type(value) in (float, int, str, bool) for _, event, _, _ in got
                   for value in event)
        assert scalar.rng.bit_generator.state == block.rng.bit_generator.state

    def test_zero_noise_draws_one_zero_per_sighting(self):
        block, scalar = self.sensor(0.0, 30), self.sensor(0.0, 30)
        got = self.observe_blocks(block, 30, 20, 7)
        assert got and got == self.scalar_sightings(scalar, 30, 20)
        # the block draws exactly as many values as the scalar form
        assert scalar.rng.bit_generator.state == block.rng.bit_generator.state

    @pytest.mark.parametrize("sign", [-1, 1])
    def test_a_vehicle_at_either_end_of_the_view_is_seen(self, sign):
        # a camera at road x 0 sees a vehicle at distance |x|; one at the
        # near cutoff and one at its reach are in view, the next float out
        # of it is not
        cameras = scenario_from_dict(with_infra(minimal())).infra.cameras
        cameras = [dataclasses.replace(cameras[0], road_position_m=0.0, direction_sign=sign)]
        config = sim.SensorConfig(max_detect_std_m=0.0, pixel_noise_std=0.0)
        model = sim.SensorModel(config, cameras, 4, np.random.default_rng(0))
        (_, near, reach), = model._views
        ends = [near, reach[0], math.nextafter(near, 0.0), math.nextafter(reach[0], math.inf)]
        got = model.observe([0.0], sign * np.array([ends]), [0, 0, 0, 0])
        assert [event[4] for _, event, _, _ in got] == [0, 1]


ORACLE = {
    "schema_version": 1,
    "name": "oracle",
    "duration_s": 20.0,
    "tick_s": 0.05,
    "rng_seed": 11,
    "channel": {"comm_range_m": 400.0, "loss_prob": 0.0,
                "latency_base_s": 0.01, "latency_jitter_s": 0.005},
    "robot": {"station_id": 1, "position": [0.0, 0.0],
              "zod": {"half_extent_m": 25.0, "tau_th_s": 5.0, "staleness_s": 1.0},
              "moderator": {"station_id": 1}},
    "infra": {"station_id": 100, "position": [0.0, 6.0],
              "cpm_processing_delay_s": 0.0,
              "sensor": {"max_detect_std_m": 0.0, "pixel_noise_std": 0.0},
              "cameras": [camera(0, -24.0, -1), camera(1, 24.0, 1)]},
    "entities": [{"station_id": 0, "v2x_equipped": False, "object_class": 1,
                  "trajectory": [{"start_time_s": 0.0, "start_x_m": -120.0,
                                  "speed_mps": 10.0, "accel_mps2": 0.0}]}],
    "merging_windows": [{"start_s": 0.0, "end_s": 40.0, "distance_m": 0.0}],
}


@pytest.fixture(scope="module")
def result():
    return run(scenario_from_dict(ORACLE))


@pytest.fixture(scope="module")
def tracked_result():
    return run(load_scenario(SCENARIO_DIR / "rotterdam_run.json"))


class TestNoiseFreeTrace:
    """A noise-free pass with a waiting merger has a fully derivable trace.

    The vehicle starts 96 m from the left camera (inside its exact 110.1 m
    range) at +10 m/s and crosses the 50 m zone around the gate.  Camera
    samples land on the 0.2 s grid, so a decision at t uses a measurement
    from t - 0.2: the 5 s horizon trips when the true time-to-zone is
    4.8 s.  Ground-truth entry is at 9.5 s ((120 - 25) / 10), the exit
    event on the first tick past x = +25 (14.55).  The camera track dies
    in the near-field blind spot, so release waits out the vanish grace
    (staleness 1 + horizon 5) from the last fused sighting at 10.0 and
    reopens on the first decision tick after 16.0.
    """

    def test_decision_trace(self, result):
        decisions = [(d["t"], d["action"], d["blocking"])
                     for d in result.log.of_type("decision")]
        assert decisions == [
            (0.0, "pass", None),
            (4.8, "stop", ["camera", 0]),
            (16.2, "pass", None),
        ]

    def test_ground_truth_zone_events(self, result):
        assert [(e["t"], e["actor"]) for e in result.log.of_type("zod_enter")] == [(9.5, "veh0")]
        assert [(e["t"], e["actor"]) for e in result.log.of_type("zod_exit")] == [(14.55, "veh0")]

    def test_first_detection_range_is_exact(self, result):
        first = [e for e in result.log.of_type("detection") if e["first"]]
        assert [(e["t"], e["camera_id"], e["cam_distance_m"]) for e in first] == [
            (0.0, 0, 96.0)]

    def test_trace_is_seed_independent(self):
        # no noise, no loss: channel jitter lands inside a tick either way
        res = run(scenario_from_dict(ORACLE), seed=999)
        decisions = [(d["t"], d["action"]) for d in res.log.of_type("decision")]
        assert decisions == [(0.0, "pass"), (4.8, "stop"), (16.2, "pass")]

    def test_stop_actuation_completes_during_hold(self, result):
        phases = [(e["t"], e["phase"]) for e in result.log.of_type("actuation")]
        assert (4.8, "stop_issued") in phases
        assert (9.8, "posture_complete") in phases  # 4.8 + 2.0 move + 3.0 raise
        assert (16.2, "pass_issued") in phases
        assert (18.2, "lane_clear") in phases


class TestLogDiscipline:
    def test_times_nondecreasing(self, tracked_result):
        times = [e["t"] for e in tracked_result.log.events]
        assert all(b >= a - 1e-9 for a, b in zip(times, times[1:]))

    def test_every_rx_has_a_tx_station(self, tracked_result):
        tx_stations = {e["station_id"] for e in tracked_result.log.of_type("msg_tx")}
        rx_stations = {e["from_station"] for e in tracked_result.log.of_type("msg_rx")}
        assert rx_stations <= tx_stations

    def test_rx_latency_at_least_base_delay(self, tracked_result):
        lat = [e["latency_s"] for e in tracked_result.log.of_type("msg_rx")
               if e["msg_type"] != "CPM"]  # CPMs add processing delay upstream
        assert lat and min(lat) >= 0.01 - 1e-9

    def test_event_types_are_known(self, tracked_result):
        from mergeguard.sim import EVENT_TYPES
        assert {e["type"] for e in tracked_result.log.events} <= EVENT_TYPES

    def test_append_rejects_unknown_type(self):
        log = EventLog()
        for event in [(0.0, "lunch_break", "robot"), (0.0, "actuation", "robot"),
                      (0.0, "actuation", "robot", "lane_clear", 1.0, 2.0)]:
            with pytest.raises(ValueError, match="unknown event shape"):
                log.append(event)
        assert len(log) == 0

    def test_append_rejects_time_regression(self):
        log = EventLog()
        log.append((5.0, "actuation", "robot", "lane_clear"))
        with pytest.raises(ValueError, match="time regression"):
            log.append((4.0, "actuation", "robot", "lane_clear"))

    def test_append_allows_regression_within_time_eps(self):
        # a time up to sim._TIME_EPS (1e-9) before the last one is accepted
        log = EventLog()
        log.append((1.0, "actuation", "robot", "lane_clear"))
        log.append((1.0 - 5e-10, "actuation", "robot", "lane_clear"))
        with pytest.raises(ValueError, match="time regression"):
            log.append((1.0 - 2e-9, "actuation", "robot", "lane_clear"))
        assert [e["t"] for e in log.events] == [1.0, 1.0 - 5e-10]

    def test_every_event_passes_the_log_checks(self, monkeypatch):
        # every event site builds its tuple and hands it to append
        checked = []
        append = EventLog.append

        def spy(log, event):
            checked.append(event)
            append(log, event)

        monkeypatch.setattr(EventLog, "append", spy)
        scenarios = [load_scenario(path) for path in sorted(SCENARIO_DIR.glob("*.json"))]
        seen = set()
        for scenario in [*scenarios, v2x_cell(rsu=DENSE_RSU)]:
            checked.clear()
            res = run(scenario)
            assert checked == res.log._events
            seen |= {e[1] for e in checked}
        assert seen == sim.EVENT_TYPES

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_append_rejects_non_finite_time(self, bad):
        log = EventLog()
        with pytest.raises(ValueError, match="not finite"):
            log.append((bad, "actuation", "robot", "lane_clear"))
        log.append((0.0, "actuation", "robot", "lane_clear"))
        with pytest.raises(ValueError, match="not finite"):
            log.append((bad, "actuation", "robot", "lane_clear"))
        assert [e["t"] for e in log.events] == [0.0]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("kind,fields,i", [
        (kind, shape.fields, i) for kind, by_size in sim._SHAPES.items()
        for shape in filter(None, by_size) for i in shape.floats])
    def test_append_rejects_every_non_finite_float(self, kind, fields, i, bad):
        # json would write NaN or Infinity, which no log line may hold
        event = [plain_value(name) for name in fields]
        event[1], event[i] = kind, bad
        log = EventLog()
        with pytest.raises(ValueError, match=f"{fields[i]} is not finite"):
            log.append(tuple(event))
        assert len(log) == 0

    def test_append_checks_survive_optimized_mode(self):
        # each case: times accepted in turn, then one the log must refuse
        code = ("from mergeguard.sim import EventLog\n"
                "for times in [(5.0, 4.0), (float('nan'),)]:\n"
                "    log = EventLog()\n"
                "    *ok, bad = times\n"
                "    for t in ok:\n"
                "        log.append((t, 'actuation', 'robot', 'lane_clear'))\n"
                "    try:\n"
                "        log.append((bad, 'actuation', 'robot', 'lane_clear'))\n"
                "    except ValueError:\n"
                "        print('rejected')\n")
        src = str(pathlib.Path(sim.__file__).resolve().parent.parent)
        out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                             text=True, timeout=60, env={**os.environ, "PYTHONPATH": src})
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["rejected", "rejected"]

    def test_shipped_runs_and_report_survive_optimized_mode(self, tmp_path):
        # the command line under python -O logs what a run here logs, and reports
        code = ("import pathlib, sys\n"
                "from mergeguard.cli import main\n"
                "out, *paths = map(pathlib.Path, sys.argv[1:])\n"
                "for path in paths:\n"
                "    if main(['run', str(path), '--out', str(out / (path.stem + '.jsonl'))]):\n"
                "        sys.exit(1)\n"
                "sys.exit(main(['report', str(out / 'rotterdam_run.jsonl'), '--subject', '7']))\n")
        paths = [str(SCENARIO_DIR / f"{name}.json") for name in sorted(SHIPPED)]
        src = str(pathlib.Path(sim.__file__).resolve().parent.parent)
        out = subprocess.run([sys.executable, "-O", "-c", code, str(tmp_path), *paths],
                             capture_output=True, text=True, timeout=60,
                             env={**os.environ, "PYTHONPATH": src})
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout)["scenario"] == "rotterdam_run"
        for name in sorted(SHIPPED):
            log = (tmp_path / f"{name}.jsonl").read_text()
            assert log == run(load_scenario(SCENARIO_DIR / f"{name}.json")).to_jsonl(), name


# ---------------------------------------------------------------------------
# the NumPy streams every log draws from


N_DRAWS = 10_000
# SHA-256 of the first N_DRAWS draws, as little-endian float64, of each
# stream _Engine spawns off SeedSequence(seed), taken in the engine's block
# sizes.  The normal streams are drawn with loc 0 and scale 1; the engine's
# normal(loc, scale) is loc + scale times the same draw.
STREAM_DIGESTS = {
    1: {"channel random": "699b8e6319822164915d3c87526143335a1e8ac3ef0c75469ae7427fc913c583",
        "sensor normal": "f2790f56106165152ab15fa8376499a9b05cda821bfc2e5d4a05232d0ca56904",
        "moderator-jitter normal":
            "06df54147a3ed9cf41536e408ce8e2ae0ccd111fdb9905093cbfd64c147864bf"},
    7: {"channel random": "a0554e706b267aa8ba095883068dc9cacc6ac0b761402c5dd2a2ed781255cf93",
        "sensor normal": "ddb5c6883b0517fb83a2e517c6a93bb1b7a0725e29f3639d50a15b358d9a607d",
        "moderator-jitter normal":
            "7724647421edeaa8cf66b44c2dc6222012268b465081207668e7ee886b429e64"},
    2026: {"channel random": "f5615672c89ebc3c518d324c57218d50ab97d5ba22e8cf97bcfce693d7aadf6b",
           "sensor normal": "c3dddc19e6bcfd1bce99792c08af3d4b2418fa86ce2fa1b23db34cded63b1066",
           "moderator-jitter normal":
               "299b0062e1263c1d0b415c71f3e500b0f38576bf22ca272a24a6b4e03db10431"},
}


def stream_draws(seed):
    """The first N_DRAWS draws of each stream of an engine built for ``seed``:
    the channel's uniforms and the sensor's noise in blocks, the moderator's
    jitter one at a time.  With no entities the engine has drawn nothing yet."""
    engine = sim._Engine(scenario_from_dict(with_infra(minimal())), seed)
    sensor, jitter = engine.sensor.rng, engine.moderator._rng

    def blocks(draw, size):
        out = []
        while len(out) < N_DRAWS:
            out += draw(size).tolist()
        return out[:N_DRAWS]

    return {"channel random": blocks(engine.channel.rng.random, _DRAW_BLOCK),
            "sensor normal": blocks(lambda n: sensor.normal(0.0, 1.0, n), 1024),
            "moderator-jitter normal": [float(jitter.normal(0.0, 1.0))
                                        for _ in range(N_DRAWS)]}


class TestRandomStreams:
    """Log bytes rest on NumPy's Generator streams, which NumPy does not
    promise to keep across releases; this names the stream that moved."""

    @pytest.mark.parametrize("seed", sorted(STREAM_DIGESTS))
    def test_first_draws_match_their_digests(self, seed):
        for name, draws in stream_draws(seed).items():
            digest = hashlib.sha256(np.asarray(draws, dtype="<f8").tobytes()).hexdigest()
            assert digest == STREAM_DIGESTS[seed][name], (
                f"the {name} stream of seed {seed} differs under NumPy {np.__version__}, "
                "so every log that draws from it differs too")


# the log's numbers: times to 9 decimals, positions and speeds to 6
LOGGED_FLOATS = st.integers(-10**15, 10**15).map(lambda k: round(k / 1e9, 9)) | \
    st.integers(-10**12, 10**12).map(lambda k: round(k / 1e6, 6))


class TestJsonNumbers:
    """A log's KPIs rest on orjson reading its numbers as float() and int()
    do, which orjson does not promise across releases; this names the number
    read apart."""

    @settings(max_examples=2000)
    @given(st.floats(allow_nan=False, allow_infinity=False) | LOGGED_FLOATS)
    @example(5e-324)  # the least subnormal
    @example(2.225073858507201e-308)  # the largest subnormal
    @example(sys.float_info.min)
    @example(sys.float_info.max)
    @example(-sys.float_info.max)
    @example(-0.0)
    def test_float_reads_as_float_of_its_repr(self, x):
        got = orjson.loads(repr(x))
        assert type(got) is float and got.hex() == float(repr(x)).hex(), repr(x)

    @settings(max_examples=2000)
    @given(st.integers(-10**18, 10**18))
    @example(-10**18)
    @example(10**18)
    @example(0)
    def test_int_reads_as_int(self, n):
        got = orjson.loads(str(n))
        assert type(got) is int and got == int(str(n)), n


class TestDeterminism:
    def test_same_seed_byte_identical(self):
        sc = load_scenario(SCENARIO_DIR / "rotterdam_run.json")
        a = run(sc).to_jsonl()
        b = run(sc).to_jsonl()
        assert a == b

    def test_different_seed_differs(self):
        sc = load_scenario(SCENARIO_DIR / "rotterdam_run.json")
        assert run(sc).to_jsonl() != run(sc, seed=1).to_jsonl()

    @pytest.mark.parametrize("seed", [-1, True, 1.0, "1"])
    def test_a_seed_that_is_not_a_non_negative_integer_is_refused(self, seed):
        with pytest.raises(ValueError, match=re.escape(repr(seed))):
            run(scenario_from_dict(minimal()), seed=seed)

    def test_jsonl_round_trip(self):
        res = run(scenario_from_dict(ORACLE))
        header, events = log_from_jsonl(res.to_jsonl())
        assert header == res.header
        assert events == res.log.events


# ---------------------------------------------------------------------------
# event log I/O: the template writer and the orjson reader against their references


@functools.cache
def shipped_result(name: str):
    return run(load_scenario(SCENARIO_DIR / f"{name}.json"))


def jsonl_one_by_one(header, log) -> str:
    return "\n".join(map(sim._TO_JSON, [header, *log.events])) + "\n"


def read(reader, text):
    """What ``reader`` returns for ``text``, as its repr, or its ValueError."""
    try:
        return repr(reader(text))
    except ValueError as exc:
        return exc


def assert_reads_like_line_reader(text):
    got, want = read(log_from_jsonl, text), read(sim._log_lines_from_jsonl, text)
    if isinstance(want, ValueError):
        assert isinstance(got, ValueError) and str(got) == str(want)
    else:
        assert got == want  # repr: key order, int against float and -0.0 count


LINE_ENDS = ["\n", "\r\n", "\r"]
BARE_VALUES = ["NaN", "Infinity", "-Infinity", "7", '"x"', "null", "{},{}"]
# numbers orjson reads otherwise than json, or refuses: integers past its
# 64 bits, a 19-digit run, an overflowing literal; then a long one it reads alike
WIDE_NUMBERS = [str(2**64), str(-2**63 - 1), "1" * 30, "0.1234567890123456789", "1e400",
                "-1e400", "123456789012345678.123456789012345678e-30"]


@st.composite
def mutated_logs(draw):
    """A shipped scenario's log with one to three edits, each of which one
    reader could take differently from the other."""
    text = shipped_result(draw(st.sampled_from(sorted(SHIPPED)))).to_jsonl()
    for _ in range(draw(st.integers(1, 3))):
        edit = draw(st.sampled_from([
            "join", "split", "crlf", "blank", "separator in string",
            "NaN in string", "surrogate in string", "non-finite number", "wide number",
            "bare value", "bom", "header only", "no final newline"]))
        ends = [m.start() for m in re.finditer("\n", text)] or [len(text)]
        at = ends[draw(st.sampled_from([0, -1]) | st.integers(0, len(ends) - 1))]
        if edit == "join":  # two lines as one, or as two values on one line
            text = text[:at] + draw(st.sampled_from(["", ","])) + text[at + 1:]
        elif edit == "split":  # a line ended after one of its , or :
            cuts = [m.end() for m in re.finditer("[,:]", text)] or [0]
            cut = cuts[draw(st.integers(0, len(cuts) - 1))]
            text = text[:cut] + draw(st.sampled_from(LINE_ENDS)) + text[cut:]
        elif edit == "crlf":
            text = text.replace("\n", "\r\n")
        elif edit == "blank":  # before the first line or after any other
            at = draw(st.sampled_from([-1, at]))
            text = text[:at + 1] + draw(st.sampled_from(["\n", " \t\n"])) + text[at + 1:]
        elif edit in ("separator in string", "NaN in string", "surrogate in string"):
            opens = [m.end() for m in re.finditer('[{,:]"', text)] or [0]
            pos = opens[draw(st.integers(0, len(opens) - 1))]
            insert = (draw(st.sampled_from(["\u2028", "\x85"]))
                      if edit == "separator in string" else
                      "NaN" if edit == "NaN in string" else "\\ud800")
            text = text[:pos] + insert + text[pos:]
        elif edit in ("non-finite number", "wide number"):
            nums = list(re.finditer(r"(?<=:)-?\d[\d.eE+-]*", text))
            if nums:
                m = nums[draw(st.integers(0, len(nums) - 1))]
                token = draw(st.sampled_from(["Infinity", "-Infinity", "NaN"]
                                             if edit == "non-finite number" else WIDE_NUMBERS))
                text = text[:m.start()] + token + text[m.end():]
        elif edit == "bare value":  # a line replaced by a value that is not an object
            start = text.rfind("\n", 0, at) + 1
            text = text[:start] + draw(st.sampled_from(BARE_VALUES)) + text[at:]
        elif edit == "bom":
            text = "\ufeff" + text
        elif edit == "header only":
            text = text[:text.find("\n") + 1]
        elif text.endswith("\n"):  # no final newline
            text = text[:-1]
    return text


HEADER = '{"log_format":1}\n'


class TestLogReader:
    @settings(deadline=None)
    @given(mutated_logs())
    def test_mutated_shipped_log_reads_as_line_by_line(self, text):
        assert_reads_like_line_reader(text)

    @pytest.mark.parametrize("text", [
        # joined, these two lines parse to two objects; neither line is one value
        HEADER + '{"z":0},{"a":[1\n2]}\n',
        HEADER + "{},{}\n",
    ], ids=["value over two lines", "two values on a line"])
    def test_line_that_is_not_one_value_is_refused(self, text):
        with pytest.raises(ValueError):
            log_from_jsonl(text)

    @pytest.mark.parametrize("text", [
        HEADER + '{"z":0},{"a":[1\n2]}\n',
        HEADER + "{},{}\n",
        HEADER + "{},{},{}\n",
        HEADER + '{"a":[1\n2]}\n{},{},{}\n',
        HEADER + '{"t":\r0}\n',  # JSON whitespace, but a line end to splitlines
        HEADER + '{"a":"\u2028"}\n',
        HEADER + "NaN\n",
        HEADER + "7",
        '7\n{}\n',
        HEADER + "\n \n{}\r\n",
        "\n" + HEADER,
        HEADER + '{"t":18446744073709551616}\n',  # orjson: a float
        HEADER + '{"t":-9223372036854775809}\n',
        HEADER + '{"t":1e400}\n',
        HEADER + '{"a":"\\ud800"}\n',  # json: a lone surrogate; orjson refuses it
    ], ids=["value over two lines", "two values on a line", "three values on a line",
            "split value and three values", "lone CR", "line separator in a string",
            "bare NaN", "no final newline", "header not an object",
            "blank lines and CRLF", "blank first line", "integer at 2**64",
            "integer below -2**63", "overflowing number", "lone surrogate escape"])
    def test_case_reads_as_line_by_line(self, text):
        assert_reads_like_line_reader(text)

    @pytest.mark.parametrize("text, by_line", [
        (HEADER + '{"a":"\u00e9"}\n', True),
        (HEADER + '{"a":"1234567890123456789"}\n', True),  # 19 digits, even in a string
        (HEADER + '{"a":123456789012345678}\n', False),
        (HEADER + '{"a":"' + "x" * (sim._ORJSON_LINE_MAX - 7) + '"}\n', True),
        (HEADER + '{"a":"' + "x" * (sim._ORJSON_LINE_MAX - 8) + '"}\n', False),
        ("7\n{}\n", True),
        (HEADER + "\n{}\n", True),
    ], ids=["not ASCII", "19-digit run", "18-digit run", "line past the limit",
            "line at the limit", "header not an object", "blank line"])
    def test_text_orjson_may_read_apart_goes_to_the_line_reader(self, text, by_line, monkeypatch):
        calls, line_reader = [], sim._log_lines_from_jsonl
        monkeypatch.setattr(sim, "_log_lines_from_jsonl",
                            lambda t: calls.append(t) or line_reader(t))
        assert str(read(log_from_jsonl, text)) == str(read(line_reader, text))
        assert calls == [text] * by_line

    def test_line_too_deep_for_json_is_read(self):
        # the one difference meant: orjson has no recursion limit to reach
        text = HEADER + "[" * 5000 + "]" * 5000 + "\n"
        with pytest.raises(ValueError, match="recursion"):
            sim._log_lines_from_jsonl(text)
        header, (event,) = log_from_jsonl(text)
        assert header == {"log_format": 1} and isinstance(event, list)

    @pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["CRLF", "CR"])
    def test_every_line_end_reads_alike(self, end):
        text = shipped_result("rotterdam_run").to_jsonl()
        assert log_from_jsonl(text.replace("\n", end)) == log_from_jsonl(text)

    @pytest.mark.parametrize("name", sorted(SHIPPED))
    def test_shipped_log_is_read_without_the_line_reader(self, name, monkeypatch):
        res = shipped_result(name)
        text = res.to_jsonl()
        want = sim._log_lines_from_jsonl(text)
        calls = []
        monkeypatch.setattr(sim, "_log_lines_from_jsonl", lambda t: calls.append(t))
        assert log_from_jsonl(text) == want == (res.header, res.log.events)
        assert calls == []


def plain_value(name):
    """The plainest value of field ``name``'s kind."""
    return {"%r": 0.0, "%d": 0, "%b": False, '"%s"': "x", "%s": []}[sim._WRITE_AS.get(name, "%d")]


NAMES = st.text(string.ascii_letters + string.digits + "_", min_size=1, max_size=8)
FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, 1e-7, 1e16, 1e308, -1e308])
INTS = st.integers(-2**64, 2**64) | st.sampled_from(list(ObjectClass))
OBJECTS = st.lists(st.fixed_dictionaries({"src": NAMES, "id": INTS, "x": st.floats(),
                                          "v": st.floats()}), max_size=3)
FIELD_VALUES = {"%r": FLOATS, "%d": INTS, "%b": st.booleans(), '"%s"': NAMES}


@st.composite
def shaped_events(draw):
    """One event of each shape, in a drawn order, with drawn field values
    and times in order."""
    shapes = [(kind, shape.fields) for kind, by_size in sim._SHAPES.items()
              for shape in filter(None, by_size)]
    times = sorted(draw(st.lists(FLOATS, min_size=len(shapes), max_size=len(shapes))))
    events = []
    for t, (kind, fields) in zip(times, draw(st.permutations(shapes))):
        values = [draw(OBJECTS if name == "objects"
                       else st.none() | st.tuples(NAMES, INTS).map(list) if name == "blocking"
                       else FIELD_VALUES[sim._WRITE_AS.get(name, "%d")]) for name in fields]
        events.append((t, kind, *values[2:]))
    return events


class TestLogWriter:
    @pytest.mark.parametrize("name", sorted(SHIPPED))
    def test_shipped_log(self, name):
        res = shipped_result(name)
        assert res.to_jsonl() == jsonl_one_by_one(res.header, res.log)

    @pytest.mark.parametrize("events", [
        [],
        [(0.0, "actuation", "robot", "lane_clear")],
        # a NaN in a nested list is written by json, as NaN
        [(0.0, "fusion_out", "robot", 1, 0, [{"src": "v2x", "id": 7, "x": math.nan, "v": 1.0}]),
         (1.0, "actuation", "robot", "stop_issued", -0.0)],
        [(0.0, "decision", "robot", "STOPPED", "STOP", True, ["camera", 3]),
         (0.0, "decision", "robot", "CLEAR", "PASS", False, None)],
        [(float(k), "detection", "infra", 0, k, 7, 1e16 / (k + 1), -5e-324, k % 2 == 0)
         for k in range(300)],
    ], ids=["no events", "one event", "NaN in a list", "both flags and a null", "many events"])
    def test_log_encodes_as_its_objects_one_by_one(self, events):
        header = {"log_format": LOG_FORMAT_VERSION, "scenario": "s"}
        log = EventLog()
        for event in events:
            log.append(event)
        assert sim.log_to_jsonl(header, log) == jsonl_one_by_one(header, log)

    @given(shaped_events())
    def test_any_values_encode_as_one_by_one(self, events):
        # every shape's template writes the line json writes for its dict
        header = {"n": math.nan}
        log = EventLog()
        for event in events:
            log.append(event)
        assert sim.log_to_jsonl(header, log) == jsonl_one_by_one(header, log)

    def test_engine_events_keep_to_the_written_types(self):
        # the template rules hold for these types: a float that is a float
        # (an np.float64 reprs otherwise), an int, a bool, and names that
        # json writes as they are, needing no escape
        scenarios = [load_scenario(path) for path in sorted(SCENARIO_DIR.glob("*.json"))]
        scenarios.append(v2x_cell(rsu=DENSE_RSU))
        for workload in ("seed_sweep", "v2x_dense", "mixed_lossy"):
            scenarios += [scenario_from_dict(obj) for _, obj in
                          workloads().make_jobs(workload, 1, SCENARIO_DIR)]
        by_shape = {}
        for sc in scenarios:
            for event in run(sc).log._events:
                by_shape.setdefault((event[1], len(event)), []).append(event)
        types, names = {}, set()  # the types each rule met, nested scalars included

        def met(rule, values):
            types.setdefault(rule, set()).update(map(type, values))
            if rule == '"%s"':
                names.update(values)
        for (kind, size), events in by_shape.items():
            for i, name in enumerate(sim._SHAPES[kind][size].fields):
                column = list(map(operator.itemgetter(i), events))
                if name == "objects":
                    column = [o for objects in column for o in objects]
                    assert {tuple(o) for o in column} <= {("src", "id", "x", "v")}
                    met('"%s"', [o["src"] for o in column])
                    met("%d", [o["id"] for o in column])
                    met("%r", [o[k] for o in column for k in "xv"])
                elif name == "blocking":
                    column = [b for b in column if b is not None]
                    assert {(type(b), len(b)) for b in column} <= {(list, 2)}
                    met('"%s"', [b[0] for b in column])
                    met("%d", [b[1] for b in column])
                else:
                    met(sim._WRITE_AS.get(name, "%d"), column)
        assert types == {"%r": {float}, "%d": {int}, "%b": {bool}, '"%s"': {str}}
        assert [name for name in names if not re.fullmatch(r"[A-Za-z0-9_]+", name)] == []


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# SHA-256 of the logs at LOG_FORMAT_VERSION 1.  A change that alters any
# logged byte must bump LOG_FORMAT_VERSION and record new digests.
GOLDEN_LOG_FORMAT = 1
GOLDEN_LOGS = {
    ("rotterdam_run", None): "078889dd7b77a735be6d4962650af4b6445d72554b7e9bd278c7f82c1a4a47b8",
    ("rotterdam_run", 1): "25db802644b776c0d6c1d4522ef9ad70a63c4afc2446626ecaf6c986155b18a3",
    ("denm_repeater", None): "93d452461fe245cbe1c1a0eca83fdeaae38fce6dff3a0ea903aa4abb75ddbe72",
    ("denm_repeater", 1): "1e580d63e5aa5b401b353175d6fcbe2e7d1b2b8e5635d880eb59b85cf7dd695e",
}
GOLDEN_PASS_LOG = "b363eed0b4a7611f6ae63f3472f7fdb299c02c49bf599d36d40e9ac59af2c69b"
GOLDEN_PASS_SERIES = "8f4ba3a405450e3bd5478bb642b05dfa5daf61abad9be0545a8721d7bd442522"
# v2x_cell(rsu=DENSE_RSU): lossy deliveries, DENM duplicates and relays
GOLDEN_DENSE_CELL_LOG = "d75a08ea9ef344378b73e6613059aeaafcad945987aed269842c2d3a9a7788fe"
DENSE_RSU = {"station_id": 200, "position": [134.3, 0.0], "denm": {"repeat_count": 2}}


@pytest.mark.skipif(LOG_FORMAT_VERSION != GOLDEN_LOG_FORMAT,
                    reason="log format changed; the golden digests pin format 1")
class TestGoldenLogs:
    @pytest.mark.parametrize("name,seed", list(GOLDEN_LOGS))
    def test_shipped_scenario_log(self, name, seed):
        sc = load_scenario(SCENARIO_DIR / f"{name}.json")
        assert _sha256(run(sc, seed=seed).to_jsonl()) == GOLDEN_LOGS[(name, seed)]

    def test_pass_scenario_log_and_series(self):
        sc = scenario_from_dict(make_pass_scenario(3, v2x=True, merging_offset_s=3.0))
        res = run(sc)
        assert _sha256(res.to_jsonl()) == GOLDEN_PASS_LOG
        assert _sha256(json.dumps(sim.series(sc, res.log.events))) == GOLDEN_PASS_SERIES

    def test_dense_cell_log(self):
        res = run(v2x_cell(rsu=DENSE_RSU))
        rx = res.log.of_type("msg_rx")
        assert any(e.get("duplicate") for e in rx) and res.log.of_type("denm_relay")
        assert _sha256(res.to_jsonl()) == GOLDEN_DENSE_CELL_LOG


def v2x_cell(rsu=None, **channel):
    """Six V2X vehicles and the robot, all within one radio cell.

    ``rsu`` adds a roadworks transmitter; keywords override fields of the
    lossy channel.
    """
    return scenario_from_dict(v2x_cell_dict(rsu, **channel))


def v2x_cell_dict(rsu=None, **channel):
    obj = minimal()
    obj["duration_s"] = 3.0
    obj["rsu"] = rsu
    obj["channel"] = {"comm_range_m": 400.0, "loss_prob": 0.1, **channel}
    obj["entities"] = [
        {"station_id": 10 + k, "v2x_equipped": True, "cam_period_s": 0.5,
         "trajectory": [{"start_time_s": 0.0, "start_x_m": -60.0 + 20.0 * k,
                         "speed_mps": 5.0, "accel_mps2": 0.0}]}
        for k in range(6)]
    return obj


def counting(calls, name, fn):
    """``fn``, adding 1 to ``calls[name]`` on each call."""
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def reception_keys(sc, events, latency_s):
    """(time, index of its ``msg_tx``, receiver) of each ``msg_rx``, ``latency_s`` after it."""
    station = {f"veh{k}": ent.station_id for k, ent in enumerate(sc.entities)}
    station["robot"] = sc.robot.moderator.station_id
    sent, keys = [], []
    for e in events:
        if e["type"] == "msg_tx":
            sent.append((e["t"], e["station_id"], e["msg_type"], e["timestamp_ms"]))
        elif e["type"] == "msg_rx":
            (k,) = [k for k, (t, *tx) in enumerate(sent)
                    if tx == [e["from_station"], e["msg_type"], e["timestamp_ms"]]
                    and abs(t + latency_s - e["t"]) < 1e-8]
            keys.append((e["t"], k, station[e["actor"]]))
    return keys


class TestRadio:
    def test_no_broadcast_is_decoded(self, monkeypatch):
        # each delivery carries the sent message itself, not a decoded copy
        sc = v2x_cell()
        plain = run(sc)
        calls = {"encode": 0, "decode": 0}
        monkeypatch.setattr(sim, "encode_message", counting(calls, "encode", sim.encode_message))
        monkeypatch.setattr(sim, "decode_message", counting(calls, "decode", sim.decode_message))
        counted = run(sc)
        n_tx = len(counted.log.of_type("msg_tx"))
        assert len(counted.log.of_type("msg_rx")) >= 3 * n_tx > 0
        assert calls["encode"] == n_tx
        assert calls["decode"] == 0
        assert counted.to_jsonl() == plain.to_jsonl()

    @pytest.mark.parametrize("name", [*SHIPPED, "dense_cell"])
    def test_every_sent_message_survives_the_wire(self, monkeypatch, name):
        # what the engine delivers without decoding is what decoding gives
        sc = (v2x_cell(rsu=DENSE_RSU) if name == "dense_cell"
              else scenario_from_dict(SHIPPED[name]))
        sent, encode = [], sim.encode_message

        def recording(msg, **kwargs):
            data = encode(msg, **kwargs)
            sent.append((msg, data, kwargs))
            return data

        monkeypatch.setattr(sim, "encode_message", recording)
        res = run(sc)
        assert len(sent) == len(res.log.of_type("msg_tx")) > 0
        assert all(sim.decode_message(data, **kwargs) == msg for msg, data, kwargs in sent)
        assert {msg.msg_type.name for msg, _, _ in sent} >= (
            {"CAM", "CPM"} if sc.infra else {"CAM", "DENM"})

    def test_simultaneous_deliveries_keep_broadcast_then_receiver_order(self):
        # without jitter every broadcast of a tick lands at one time; the
        # log then lists them in send order, each in ascending receiver order
        sc = v2x_cell(rsu=DENSE_RSU, loss_prob=0.0, latency_jitter_s=0.0)
        res = run(sc)
        keys = reception_keys(sc, res.log.events, 0.01)
        assert keys == sorted(set(keys))
        assert len({(t, k) for t, k, _ in keys}) > len({t for t, _, _ in keys}) > 0
        assert res.log.of_type("denm_relay")

    def test_a_radio_less_run_keeps_one_receiver_list(self, monkeypatch):
        # no vehicle is equipped: the listeners are the robot alone, where it stands
        sc = scenario_from_dict(make_pass_scenario(1, v2x=False))
        seen, world = [], sim._Engine.world  # the listeners after each tick's world
        monkeypatch.setattr(sim._Engine, "world", lambda engine, now_s, t: world(engine, now_s, t)
                            or seen.append((engine.receivers, dict(engine.positions))))
        res = run(sc)
        assert res.log.of_type("msg_rx") and len(seen) == round(sc.duration_s / sc.tick_s) + 1
        first = seen[0][0]
        assert first == [(sc.robot.moderator.station_id, sc.robot.position)]
        assert all(receivers is first for receivers, _ in seen)
        assert all(positions == seen[0][1] for _, positions in seen)

    def test_broadcast_returns_receiver_time_pairs(self):
        ch = Channel(ChannelConfig(latency_jitter_s=0.0), seed=0)
        receivers = [(7, (5.0, 0.0)), (3, (1.0, 0.0)), (9, (500.0, 0.0))]
        got = ch.broadcast((0.0, 0.0), 1.0, receivers)
        assert got == [(3, 1.01), (7, 1.01)]
        assert all(type(d) is tuple for d in got)


class TestDenmCopies:
    def test_no_copy_is_queued_past_the_end(self, engines):
        # one notification whose copies outlast the 30 s run; those due
        # after the last tick's flush never go out, so none is queued
        obj = copy.deepcopy(SHIPPED["denm_repeater"])
        obj["rsu"]["denm"] = {"repeat_count": 1000, "repeat_gap_s": 0.05, "period_s": 1e300}
        sc = scenario_from_dict(obj)
        res = run(sc)
        assert [entry for entry in queued(engines[0]) if entry[1] is None] == []
        sent = [e for e in res.log.of_type("msg_tx") if e["station_id"] == 200]
        assert len(sent) == int(round(30.0 / 0.05)) + 1

    def test_nothing_is_queued_past_the_end(self, engines):
        # every delivery and every CPM send falls due after the last flush,
        # so none is queued; the channel still draws for each delivery
        obj = with_section(traffic_cell(5), "channel", latency_base_s=24.0)
        res = run(scenario_from_dict(with_section(obj, "infra", cpm_processing_delay_s=24.0)))
        assert res.log.of_type("cpm_gen") and res.log.of_type("msg_tx")
        assert res.log.of_type("msg_rx") == []
        assert queued(engines[0]) == []

    def test_copy_loop_ends_with_the_run(self):
        # repeat_count may grow with period_s, so 10**12 copies validate;
        # only the stop at the last flush keeps the run finite.  It runs in
        # a child process so that a loop without that stop fails here
        # instead of hanging the suite.
        obj = copy.deepcopy(SHIPPED["denm_repeater"])
        obj["rsu"]["denm"] = {"repeat_count": 10**12, "repeat_gap_s": 0.05,
                              "period_s": 1e300}
        scenario_from_dict(obj)
        code = ("import json, sys\n"
                "from mergeguard.sim import run, scenario_from_dict\n"
                "res = run(scenario_from_dict(json.load(sys.stdin)))\n"
                "print(sum(e['station_id'] == 200 for e in res.log.of_type('msg_tx')))\n")
        src = str(pathlib.Path(sim.__file__).resolve().parent.parent)
        try:
            out = subprocess.run([sys.executable, "-c", code], input=json.dumps(obj),
                                 capture_output=True, text=True, timeout=30,
                                 env={**os.environ, "PYTHONPATH": src})
        except subprocess.TimeoutExpired:
            pytest.fail("a run with 10**12 DENM copies did not end within 30 s")
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == [str(int(round(30.0 / 0.05)) + 1)]


class TestDenmReceptions:
    """DENM receptions by the robot and the vehicles, and the robot's relays."""

    @pytest.fixture(scope="class")
    def events(self):
        return run(v2x_cell(rsu=DENSE_RSU)).log.events

    def test_every_denm_reception_carries_the_denm_fields(self, events):
        rx = [e for e in events if e["type"] == "msg_rx" and e["msg_type"] == "DENM"]
        assert {"robot", "veh0"} <= {e["actor"] for e in rx}
        for e in rx:
            assert {"origin", "sequence", "hop_count", "duplicate"} <= e.keys(), e
        assert any(e["duplicate"] for e in rx if e["actor"] == "robot")

    def test_each_relay_follows_a_fresh_robot_reception(self, events):
        relays = [(k, e) for k, e in enumerate(events) if e["type"] == "denm_relay"]
        assert relays
        for k, relay in relays:
            rx = events[k - 1]
            assert (rx["type"], rx["actor"], rx.get("msg_type"), rx.get("duplicate")) == (
                "msg_rx", "robot", "DENM", False)
            assert (rx["t"], rx["origin"], rx["sequence"]) == (
                relay["t"], relay["origin"], relay["sequence"])
        keys = [(e["origin"], e["sequence"]) for _, e in relays]
        assert len(keys) == len(set(keys))


def denm_from_rsu(hop):
    return Message(200, 5000, DenmPayload(3, 17, 13430, 0, 60, hop, 200))


class TestRobotDenmMemory:
    """The engine's (receiver, origin, sequence) set is the only DENM memory:
    a duplicate reception by the robot is logged and goes no further."""

    @staticmethod
    def flush(*copies):
        """Queue ``copies`` to go out from the RSU 10 ms apart, over a lossless
        channel without latency to the robot alone, and flush them all;
        returns the engine and the hop count of each ``relay_denm`` call."""
        obj = {**minimal(), "rsu": DENSE_RSU,
               "channel": {"loss_prob": 0.0, "latency_base_s": 0.0, "latency_jitter_s": 0.0}}
        engine = sim._Engine(scenario_from_dict(obj), 0)
        engine.receivers = [(engine.robot_id, engine.robot.position)]
        calls, relay = [], engine.moderator.relay_denm

        def spy(msg):
            calls.append(msg.payload.hop_count)
            return relay(msg)

        engine.moderator.relay_denm = spy
        for k, msg in enumerate(copies):
            engine.send_at(1.0 + 0.01 * k, msg)
        engine.flush(1.0 + 0.01 * len(copies))
        assert [(e["t"], e["actor"]) for e in engine.log.of_type("msg_rx")] == [
            (1.0 + 0.01 * k, "robot") for k in range(len(copies))]
        assert [e["duplicate"] for e in engine.log.of_type("msg_rx")] == [
            k > 0 for k in range(len(copies))]
        assert queued(engine) == []
        return engine, calls

    def test_the_same_key_twice_is_relayed_once(self):
        engine, calls = self.flush(denm_from_rsu(0), denm_from_rsu(0))
        (relay,) = engine.log.of_type("denm_relay")
        assert (relay["origin"], relay["sequence"], relay["hop_count"]) == (200, 17, 1)
        assert calls == [0]

    def test_a_spent_copy_still_holds_back_its_key(self):
        # the hop-1 copy is not relayed, and the hop-0 copy after it is a duplicate
        engine, _ = self.flush(denm_from_rsu(1), denm_from_rsu(0))
        assert engine.log.of_type("denm_relay") == []


KERNELS = {9: sim._round9, 6: sim._round6, 3: sim._round3}


@st.composite
def rounding_inputs(draw):
    """A number of decimals and a float to round to them: any float, a
    decimal half-point or its neighbours, or one whose product with 10**n
    lies near the fast path's bound of 5e11 or between 2**53 and 1e16,
    where the product of two doubles can miss the nearest integer."""
    n = draw(st.sampled_from(sorted(KERNELS)))
    scale = 10.0 ** n
    kind = draw(st.sampled_from(["any", "half", "bound", "wide"]))
    if kind == "any":
        x = draw(st.floats())
    elif kind == "half":
        x = (draw(st.integers(-10**12, 10**12)) + 0.5) / scale
        for _ in range(draw(st.integers(0, 2))):
            x = math.nextafter(x, draw(st.sampled_from([math.inf, -math.inf])))
    else:
        lo, hi = (4.9e11, 5.1e11) if kind == "bound" else (2.0**53, 1e16)
        x = draw(st.floats(lo / scale, hi / scale)) * draw(st.sampled_from([1, -1]))
    return n, x


class TestRoundingKernel:
    @settings(max_examples=2000)
    @given(rounding_inputs())
    @example((9, -0.0)).via("signed zero")
    @example((9, -1e-12)).via("a negative result of zero")
    @example((6, -5e-324)).via("subnormal")
    @example((9, 2.5e-09)).via("a half-point")
    @example((3, math.nan)).via("not a number")
    @example((3, -math.inf)).via("infinity")
    def test_kernel_is_round(self, case):
        n, x = case
        assert repr(KERNELS[n](x)) == repr(round(x, n))


def parked_far(obj):
    """``obj`` with a V2X vehicle parked where its logged position is too
    large for the kernels' fast path."""
    obj["entities"].append({"station_id": 900, "v2x_equipped": True, "cam_period_s": 0.5,
                            "trajectory": [{"start_time_s": 0.0, "start_x_m": 6e5,
                                            "speed_mps": 0.0, "accel_mps2": 0.0}]})
    return obj


# two cameras whose every vehicle's reach is 110.1 m, so that a vehicle at
# the road x below is a metre past the far end of their view
EDGE = 24.0 + 110.1 + 1.0
SKIP_DURATION_S = 12.0


def skip_world():
    obj = with_infra({**minimal(), "duration_s": SKIP_DURATION_S})
    obj["infra"]["cameras"] = [camera(0, -24.0, -1), camera(1, 24.0, 1)]
    obj["infra"]["sensor"] = {"max_detect_std_m": 0.0}
    return obj


@st.composite
def skip_trajectories(draw):
    """One to three segments toward the gate from either side: a far start,
    an accelerating approach, a turn at a turning point, a stop near the
    far end of the cameras' view, a slow start and a faster later segment, or a crawl
    in view whose second segment starts just after a tick, as far off the
    first one's end as the loader allows."""
    side = draw(st.sampled_from([-1.0, 1.0]))  # -1: starts at negative x
    unit = functools.partial(st.floats, allow_nan=False, allow_infinity=False)
    kind = draw(st.sampled_from(["far", "accelerating", "turning", "parking", "faster",
                                 "nudged"]))
    t1, jump = draw(unit(0.5, SKIP_DURATION_S - 0.5)), 0.0
    if kind == "far":
        pieces = [(side * draw(unit(200.0, 700.0)), -side * draw(unit(10.0, 40.0)), 0.0)]
    elif kind == "accelerating":
        pieces = [(side * draw(unit(150.0, 600.0)), -side * draw(unit(0.0, 5.0)),
                   -side * draw(unit(0.5, 10.0)))]
    elif kind == "turning":
        pieces = [(side * draw(unit(60.0, 400.0)), -side * draw(unit(5.0, 30.0)),
                   side * draw(unit(1.0, 10.0)))]
    elif kind == "parking":
        decel = draw(unit(1.0, 6.0))
        park_x = side * (EDGE + draw(unit(-3.0, 3.0)))
        pieces = [(park_x + side * 0.5 * decel * t1 * t1, -side * decel * t1, side * decel),
                  (t1, 0.0)]
    elif kind == "faster":
        pieces = [(side * draw(unit(150.0, 800.0)), -side * draw(unit(0.0, 5.0)), 0.0),
                  (t1, -side * draw(unit(1.0, 8.0)))]
        if draw(st.booleans()):
            pieces.append((draw(unit(t1 + 0.1, SKIP_DURATION_S)), 0.0))
    else:
        pieces = [(side * draw(unit(40.0, 130.0)), -side * draw(unit(0.0, 5.0)), 0.0),
                  (round(t1 / TICK) * TICK + draw(st.sampled_from([0.5e-9, 0.99e-9])),
                   draw(unit(-1.0, 1.0)))]
        jump = draw(st.sampled_from([-0.9e-6, 0.9e-6]))
    x0, v0, a0 = pieces[0]
    segs = [TrajectorySegment(0.0, x0, v0, a0)]
    for start, accel in pieces[1:]:
        x, v = segs[-1].at(start)
        segs.append(TrajectorySegment(start, x + jump, v, accel))
    return [{"start_time_s": seg.start_time_s, "start_x_m": seg.start_x_m,
             "speed_mps": seg.speed_mps, "accel_mps2": seg.accel_mps2} for seg in segs]


@st.composite
def segment_lists(draw):
    """One to four segments, each starting on a tick, within ``_TIME_EPS``
    of one or exactly ``_TIME_EPS`` after one, with drawn speeds of either
    sign and accelerations; not continuous, so that the segment in force
    shows in every value."""
    unit = functools.partial(st.floats, allow_nan=False, allow_infinity=False)
    segs, k = [], 0
    for n in range(draw(st.integers(1, 4))):
        if n:
            k += draw(st.integers(1, 20))
        start = 0.0 if not n else k * TICK + draw(st.sampled_from(
            [0.0, sim._TIME_EPS, 0.5e-9, -0.5e-9, 2e-9]))
        segs.append(TrajectorySegment(start, draw(unit(-500.0, 500.0)), draw(unit(-30.0, 30.0)),
                                      draw(unit(-8.0, 8.0))))
    return segs


class TestBlockMotion:
    @settings(max_examples=300)
    @given(st.lists(segment_lists(), min_size=1, max_size=3), st.integers(1, 9))
    def test_block_motion_is_eval_trajectory(self, trajs, block_ticks):
        # not Entity, which refuses the jumps
        motion = sim._Motion([types.SimpleNamespace(trajectory=segs) for segs in trajs])
        for i0 in range(0, 90, block_ticks):
            now = np.arange(i0, i0 + block_ticks) * TICK
            x, v = motion.at(now)
            for k, i in enumerate(range(i0, i0 + block_ticks)):
                want = [eval_trajectory(segs, i * TICK) for segs in trajs]
                assert list(zip(x[k].tolist(), v[k].tolist())) == want, (i, k)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(skip_trajectories(), min_size=1, max_size=4), st.integers(1, 13))
    def test_world_reads_eval_trajectory_across_block_edges(self, trajs, block_ticks):
        obj = skip_world()
        obj["entities"] = [{"trajectory": traj} for traj in trajs]
        sc = scenario_from_dict(obj)
        with mock.patch.object(sim, "_BLOCK_CELLS", 2 * len(trajs) * block_ticks):
            engine = sim._Engine(sc, 0)
        assert engine.block_ticks == block_ticks
        for i in range(engine.n_ticks + 1):
            now = i * sc.tick_s
            engine.world(now, sim._round9(now))
            assert list(zip(engine.entity_x, engine.entity_v)) == [
                eval_trajectory(ent.trajectory, now) for ent in sc.entities], i

    def test_a_block_keeps_within_the_cell_bound(self, monkeypatch):
        # the loader's extremes: 16,384 vehicles and 4 cameras, two ticks
        obj = with_infra({**minimal(), "duration_s": 0.05})
        obj["infra"]["cameras"] = [camera(i, -24.0, -1) for i in range(4)]
        obj["entities"] = [{"trajectory": [{"start_time_s": 0.0, "start_x_m": -30.0 - 0.01 * i,
                                            "speed_mps": 0.0, "accel_mps2": 0.0}]}
                           for i in range(16384)]
        sc, shapes, observe = scenario_from_dict(obj), [], sim.SensorModel.observe
        monkeypatch.setattr(sim.SensorModel, "observe", lambda model, times, positions, ids:
                            shapes.append(positions.shape) or observe(model, times, positions, ids))
        run(sc)
        assert shapes == [(1, 16384), (1, 16384)]
        assert all(ticks * 4 * vehicles <= sim._BLOCK_CELLS for ticks, vehicles in shapes)

    def test_a_one_vehicle_pass_is_one_block(self, monkeypatch):
        sc, calls = scenario_from_dict(make_pass_scenario(3)), {"observe": 0}
        monkeypatch.setattr(sim.SensorModel, "observe",
                            counting(calls, "observe", sim.SensorModel.observe))
        run(sc)
        assert calls["observe"] == 1

    def test_run_evaluates_no_trajectory_and_observes_once_per_block(self, monkeypatch):
        sc = scenario_from_dict(traffic_cell(5))
        plain = run(sc).to_jsonl()
        calls = {"eval": 0, "at": 0, "observe": 0}
        monkeypatch.setattr(sim, "eval_trajectory", counting(calls, "eval", sim.eval_trajectory))
        monkeypatch.setattr(TrajectorySegment, "at", counting(calls, "at", TrajectorySegment.at))
        monkeypatch.setattr(sim.SensorModel, "observe",
                            counting(calls, "observe", sim.SensorModel.observe))
        monkeypatch.setattr(sim, "_BLOCK_CELLS", 2 * 8 * 50)  # 50 ticks a block
        assert run(sc).to_jsonl() == plain
        assert calls == {"eval": 0, "at": 0, "observe": math.ceil((12.0 / 0.05 + 1) / 50)}


class TestRoundAll:
    @settings(max_examples=300)
    @given(st.sampled_from([9, 6, 3]).flatmap(lambda n: st.tuples(st.just(n), st.lists(
        rounding_inputs().filter(lambda case: case[0] == n).map(lambda case: case[1]) |
        st.integers(-10**12, 10**12).map(lambda k: k / 1e6) |
        st.sampled_from([0.0, -0.0, 5e11, -6e5, 2.5e-9, 1e300]), max_size=40))))
    @example((6, [-0.0, 0.0, -1e-12, 12.3456785, 6e5, 5e5 + 0.5e-6, math.nan, -1e308]))
    def test_round_all_is_the_kernel(self, case):
        n, values = case
        calls = []
        with mock.patch.object(sim, "round", lambda *args: calls.append(args) or round(*args),
                               create=True):
            got = sim._round_all(np.array(values, dtype=float), n)
            slow, calls[:] = calls[:], []
            want = [KERNELS[n](x) for x in values]
        assert [repr(x) for x in got] == [repr(round(x, n)) for x in values]
        assert [repr(x) for x in got] == [repr(x) for x in want]
        assert all(type(x) is float for x in got)
        # it leaves to round exactly the values the scalar kernel does
        assert repr(slow) == repr(calls)


class TestSkippedWork:
    @pytest.mark.parametrize("name", ["pass", "rotterdam_run"])
    def test_the_gap_rule_is_asked_once_per_detection(self, monkeypatch, name):
        sc = scenario_from_dict(make_pass_scenario(3) if name == "pass" else SHIPPED[name])
        asked, keeps = [], sim.PerceptionPipeline.keeps

        def counted(pipeline, camera_id, track_id, time_s):
            asked.append((camera_id, track_id))
            return keeps(pipeline, camera_id, track_id, time_s)

        monkeypatch.setattr(sim.PerceptionPipeline, "keeps", counted)
        detections = run(sc).log.of_type("detection")
        assert asked and asked == [(d["camera_id"], d["track_id"]) for d in detections]

    def test_only_kept_samples_get_an_image_point(self, monkeypatch):
        sc = scenario_from_dict(make_pass_scenario(3))
        counts = {"inverse": 0, "ingest": 0, "kept": 0}
        monkeypatch.setattr(sim.CalibrationModel, "inverse",
                            counting(counts, "inverse", sim.CalibrationModel.inverse))
        monkeypatch.setattr(sim.PerceptionPipeline, "ingest",
                            counting(counts, "ingest", sim.PerceptionPipeline.ingest))
        # ingest turns each kept sample, and only those, into a distance
        monkeypatch.setattr(perception, "estimate_distance",
                            counting(counts, "kept", perception.estimate_distance))
        detections = run(sc).log.of_type("detection")
        assert counts["inverse"] == counts["ingest"] == counts["kept"] > 0
        assert counts["kept"] < len(detections)


@functools.cache
def workloads():
    """perfbench's workload generators, for ``traffic_scenario``."""
    spec = importlib.util.spec_from_file_location(
        "workloads", SCENARIO_DIR.parent / "perfbench" / "workloads.py")
    spec.loader.exec_module(module := importlib.util.module_from_spec(spec))
    return module


def drawn(*values, up_to=None):
    """One of ``values``, or a float in [0, ``up_to``]."""
    return st.sampled_from(values) | st.floats(0.0, up_to) if up_to else st.sampled_from(values)


@st.composite
def reference_scenarios(draw):
    """A pass, a V2X cell with a drawn channel, a small traffic cell or a
    world of skippable vehicles; maybe with a V2X car parked far away, and
    robot CAM triggers below, at or just above 0, or at their defaults."""
    family = draw(drawn("pass", "v2x cell", "traffic", "skip"))
    if family == "pass":
        obj = make_pass_scenario(draw(st.integers(0, 2**16)), v2x=draw(st.booleans()),
                                 merging_offset_s=draw(drawn(None, 0.5, 3.0)),
                                 direction=draw(drawn(-1, 1)))
    elif family == "v2x cell":
        obj = v2x_cell_dict(draw(drawn(None, DENSE_RSU)),
                            loss_prob=draw(drawn(0.0, 0.1, up_to=0.9)),
                            latency_base_s=draw(drawn(0.0, 0.05, up_to=0.2)),
                            latency_jitter_s=draw(drawn(0.0, 0.005, up_to=0.2)))
    elif family == "traffic":
        obj = workloads().traffic_scenario(
            draw(st.integers(0, 2**16)), name="small", n_vehicles=draw(st.integers(1, 8)),
            equipped_share=draw(drawn(0.0, 0.5, 1.0)), platoon_size=2, headway_s=1.0,
            platoon_gap_s=4.0, first_arrival_s=-2.0, duration_s=draw(drawn(4.0, 12.0)),
            loss_prob=draw(drawn(0.0, 0.2)), comm_range_m=150.0, rsu=draw(st.booleans()),
            merging=draw(st.booleans()))
    else:
        obj = skip_world()
        obj["entities"] = [{"station_id": radio and radio + idx, "trajectory": traj}
                           for idx, (traj, radio) in enumerate(draw(st.lists(
                               st.tuples(skip_trajectories(), drawn(0, 0, 10)), min_size=1,
                               max_size=5)))]
    if draw(st.booleans()):
        parked_far(obj)
    obj["robot"].setdefault("moderator", {}).update(
        (name, draw(drawn(-1.0, 0.0, 5e-324, getattr(sim.ModeratorConfig(), name))))
        for name in ("cam_pos_trigger_m", "cam_speed_trigger_mps", "cam_heading_trigger_deg"))
    return obj


def traffic_cell(seed, **changes):
    """A ``traffic_scenario`` cell: 8 vehicles, half of them V2X, for 12 s."""
    return workloads().traffic_scenario(seed, **{
        "name": "cell", "n_vehicles": 8, "equipped_share": 0.5, "platoon_size": 2,
        "headway_s": 1.0, "platoon_gap_s": 4.0, "first_arrival_s": -2.0, "duration_s": 12.0,
        "loss_prob": 0.2, "comm_range_m": 150.0, "rsu": True, "merging": True, **changes})


def with_section(obj, section, **values):
    """``obj`` with ``values`` set in its ``section``, a dotted path."""
    *parents, last = section.split(".")
    functools.reduce(lambda node, key: node[key], parents, obj).setdefault(last, {}).update(values)
    return obj


# fixed scenarios beside the property's draws: the shipped ones, and cells
# larger than the property draws
NAMED_REFERENCE_SCENARIOS = {
    "rotterdam_run": lambda: copy.deepcopy(SHIPPED["rotterdam_run"]),
    "denm_repeater": lambda: copy.deepcopy(SHIPPED["denm_repeater"]),
    "v2x pass merging": lambda: make_pass_scenario(3, v2x=True, merging_offset_s=3.0),
    "pass toward +x": lambda: make_pass_scenario(5, direction=1),
    "radio-less pass": lambda: make_pass_scenario(1, v2x=False),
    "pass merging at entry": lambda: make_pass_scenario(7, v2x=True, merging_offset_s=0.0),
    "trigger-0 pass": lambda: with_section(
        make_pass_scenario(3, v2x=True), "robot.moderator", cam_pos_trigger_m=0.0,
        cam_speed_trigger_mps=0.0, cam_heading_trigger_deg=0.0),
    "zero-latency pass": lambda: with_section(
        make_pass_scenario(3, v2x=True), "channel", latency_base_s=0.0, latency_jitter_s=0.0),
    "dense cell": lambda: v2x_cell_dict(rsu=DENSE_RSU),
    "zero-latency cell": lambda: v2x_cell_dict(rsu=DENSE_RSU, loss_prob=0.0,
                                               latency_base_s=0.0, latency_jitter_s=0.0),
    "traffic cell": lambda: parked_far(traffic_cell(5)),
    "40-vehicle lossy cell": lambda: traffic_cell(11, n_vehicles=40, duration_s=20.0,
                                                  loss_prob=0.4),
    "30-vehicle all-V2X cell": lambda: traffic_cell(13, n_vehicles=30, equipped_share=1.0),
    "cell sending past the end": lambda: with_section(with_section(
        traffic_cell(7), "channel", latency_base_s=6.0), "infra", cpm_processing_delay_s=11.9),
}


class TestReferenceEngine:
    """``run`` gives the log of the plain engine in ``reference_engine``."""

    @pytest.mark.parametrize("name", list(NAMED_REFERENCE_SCENARIOS))
    def test_named_scenario_logs_that_of_the_reference(self, name):
        sc = scenario_from_dict(NAMED_REFERENCE_SCENARIOS[name]())
        res = run(sc)
        reference, rows = reference_run(sc)
        assert res.to_jsonl() == reference.to_jsonl()
        assert sim.series(sc, res.log.events) == rows

    # no explain phase: on a failure it reruns both engines many times
    @settings(deadline=None, max_examples=60,
              phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink])
    @given(reference_scenarios(), st.integers(0, 2**32 - 1))
    def test_log_and_series_are_those_of_the_reference(self, obj, seed):
        sc = scenario_from_dict(obj)
        slow = []  # the kernels' own calls of round, for the parked car's position
        with mock.patch.object(sim, "round", lambda *args: slow.append(args) or round(*args),
                               create=True):
            res = run(sc, seed)
        reference, rows = reference_run(sc, seed)
        assert res.to_jsonl() == reference.to_jsonl()
        assert sim.series(sc, res.log.events) == rows
        assert ((6e5, 6) in slow) == any(ent.station_id == 900 for ent in sc.entities)

    REPLACED = ("send_at", "transmit", "flush", "merge", "world", "sense")  # its own way
    SHARED = ("__init__", "hear", "beacons", "decide", "actuate")  # the contract, as it is

    def test_every_engine_method_is_replaced_or_shared(self):
        methods = [name for name, value in vars(sim._Engine).items() if callable(value)]
        assert [name for name in methods if name not in self.REPLACED + self.SHARED] == []
        assert [name for name in self.REPLACED if name not in vars(ReferenceEngine)] == []

    def test_the_shortcut_ledger_names_every_replaced_rule(self):
        # each method the reference replaces and each rule it patches in
        # stands in docs/shortcuts.md, inside a code span
        doc = (SCENARIO_DIR.parent / "docs" / "shortcuts.md").read_text()
        names = {word for span in re.findall(r"`([^`]+)`", doc)
                 for word in re.findall(r"\w+", span)}
        checked = [*self.REPLACED, *PLAIN_RULES, "_log_lines_from_jsonl", "log_to_jsonl"]
        assert [name for name in checked if name not in names] == []


@pytest.fixture
def engines(monkeypatch):
    """The engines that ``run`` builds, in order."""
    built = []

    class Engine(sim._Engine):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(sim, "_Engine", Engine)
    return built


def queued(engine):
    """Every entry in ``engine``'s queue: the sorted part and the incoming one."""
    return [*engine.pending, *engine.incoming]


class TestQueueEnd:
    def test_deliveries_due_in_the_flush_that_sends_them(self):
        # with no latency each reception is due in the flush that transmits
        # it, and the log still follows (due time, push sequence): every
        # msg_rx after its msg_tx, each broadcast's receptions in send order
        # and ascending receiver order, and a relay's receptions after those
        # of every broadcast before it, in the same tick
        sc = v2x_cell(rsu=DENSE_RSU, loss_prob=0.0, latency_base_s=0.0,
                      latency_jitter_s=0.0)
        res = run(sc)
        keys = reception_keys(sc, res.log.events, 0.0)
        assert len(keys) == len(res.log.of_type("msg_rx")) > 0
        assert keys == sorted(set(keys))
        relays = res.log.of_type("denm_relay")
        assert relays
        for relay in relays:
            assert any(e["t"] == relay["t"] and e["from_station"] == sc.robot.moderator.station_id
                       for e in res.log.of_type("msg_rx"))


def cpm(timestamp_ms, *objects):
    """A CPM from station 100; each object is (object id, road x in cm, age in ms)."""
    return Message(100, timestamp_ms, CpmPayload(sensors=(), objects=tuple(
        PerceivedObject(object_id=oid, object_class=1, pos_x_cm=x_cm, pos_y_cm=0,
                        speed_cms=0, meas_delta_ms=age_ms)
        for oid, x_cm, age_ms in objects)))


class TestRoadPicture:
    """What the robot keeps of the messages it receives, read at each decision."""

    @pytest.fixture
    def engine(self):
        return sim._Engine(scenario_from_dict(minimal()), 0)

    @staticmethod
    def picture(engine, now_s):
        engine.decide(0, now_s, now_s)
        (out,) = [e for e in engine.log.of_type("fusion_out") if e["t"] == now_s]
        return [(o["src"], o["id"], o["x"]) for o in out["objects"]]

    @staticmethod
    def receive(engine, msg, rx_time):
        engine.hear(msg, msg.msg_type.name, rx_time)

    def test_an_older_cpm_is_ignored_and_an_equal_one_replaces(self, engine):
        self.receive(engine, cpm(1000, (1, -5000, 0)), 1.0)
        self.receive(engine, cpm(900, (2, -6000, 0)), 1.01)
        assert self.picture(engine, 1.05) == [("camera", 1, -50.0)]
        self.receive(engine, cpm(1000, (3, -7000, 0)), 1.1)
        assert self.picture(engine, 1.15) == [("camera", 3, -70.0)]

    def test_the_last_cam_received_from_a_station_wins(self, engine):
        self.receive(engine, vehicle_cam(11, 1.0, -40.0, 5.0), 1.0)
        self.receive(engine, vehicle_cam(10, 1.0, -50.0, 5.0), 1.0)
        self.receive(engine, vehicle_cam(10, 0.9, -60.0, 5.0), 1.01)  # older, received later
        assert self.picture(engine, 1.05) == [("v2x", 10, -60.0), ("v2x", 11, -40.0)]

    @pytest.mark.parametrize("msg", [vehicle_cam(10, 1.0, -50.0, 5.0),
                                     cpm(1500, (4, -5000, 500))])
    def test_an_object_exactly_staleness_old_is_kept(self, engine, msg):
        # both measurements date from 1.0 s; staleness_s is 1 s
        assert engine.robot.zod.staleness_s == 1.0
        self.receive(engine, msg, 1.5)
        assert len(self.picture(engine, 2.0)) == 1
        assert self.picture(engine, 2.05) == []

    def test_only_fresh_objects_reach_fusion(self, engine, monkeypatch):
        seen = []
        fuse = sim.fuse

        def spy(v2x, camera, config):
            seen.append(([o.ref_id for o in v2x], [o.ref_id for o in camera]))
            return fuse(v2x, camera, config)

        monkeypatch.setattr(sim, "fuse", spy)
        self.receive(engine, vehicle_cam(10, 0.5, -50.0, 5.0), 0.5)
        self.receive(engine, vehicle_cam(13, 0.45, -20.0, 5.0), 0.5)
        self.receive(engine, vehicle_cam(12, 1.0, -30.0, 5.0), 1.0)
        self.receive(engine, cpm(1000, (4, -5000, 0), (5, -8000, 600)), 1.0)
        engine.decide(0, 1.5, 1.5)
        assert seen == [([10, 12], [4])]


PASS_VARIANTS = [make_pass_scenario(seed, v2x=v2x, merging_offset_s=offset, direction=direction)
                 for seed in (1, 2) for v2x in (False, True) for offset in (None, 0.5, 3.0)
                 for direction in (-1, 1)]


class TestSeries:
    def test_one_row_per_tick(self):
        sc = scenario_from_dict(ORACLE)
        rows = sim.series(sc, run(sc).log.events)
        assert len(rows) == int(round(20.0 / 0.05)) + 1
        row = rows[0]
        assert row["time_s"] == 0.0 and row["mode"] == "safe"
        assert row["x_veh0"] == -120.0 and row["v_veh0"] == 10.0

    @pytest.mark.parametrize("name", [*sorted(SHIPPED), "pass variants", "v2x_cell"])
    def test_rows_are_the_engine_state_of_each_tick(self, name):
        if name in SHIPPED:
            scenarios = [scenario_from_dict(SHIPPED[name])]
        elif name == "v2x_cell":
            scenarios = [v2x_cell(), v2x_cell(rsu=DENSE_RSU)]
        else:
            scenarios = [scenario_from_dict(obj) for obj in PASS_VARIANTS]
        for sc in scenarios:
            res, rows = reference_run(sc)
            assert sim.series(sc, res.log.events) == rows, sc.name


class TestPassScenarioFactory:
    def test_generated_dict_validates_and_runs(self):
        obj = make_pass_scenario(3)
        sc = scenario_from_dict(obj)
        res = run(sc)
        assert res.log.of_type("detection")  # the pass is seen

    def test_v2x_flag_adds_station(self):
        sc = scenario_from_dict(make_pass_scenario(3, v2x=True))
        assert sc.entities[0].v2x_equipped and sc.entities[0].station_id == 7

    def test_merging_offset_opens_window_before_entry(self):
        obj = make_pass_scenario(3, merging_offset_s=2.0)
        sc = scenario_from_dict(obj)
        (w,) = sc.merging_windows
        speed = abs(sc.entities[0].trajectory[0].speed_mps)
        entry = (abs(sc.entities[0].trajectory[0].start_x_m) - 25.0) / speed
        assert w.start_s == pytest.approx(entry - 2.0, abs=1e-3)

    def test_direction_flip_mirrors_start(self):
        sc = scenario_from_dict(make_pass_scenario(3, direction=1))
        assert sc.entities[0].trajectory[0].start_x_m > 0
        assert sc.entities[0].trajectory[0].speed_mps < 0

    def test_no_merging_by_default(self):
        assert scenario_from_dict(make_pass_scenario(3)).merging_windows == ()
