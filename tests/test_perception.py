"""Vision pipeline: projection to road frame, windows, velocity, CPMs."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mergeguard import perception
from mergeguard.calibration import (CalibrationModel, ReferenceLine, estimate_distance,
                                    project_to_line)
from mergeguard.messages import MsgType
from mergeguard.perception import (CameraSetup, Detection, InsufficientSamples,
                                   MotionClass, PerceptionConfig,
                                   PerceptionError, PerceptionPipeline,
                                   StaleDetection, TrackWindow,
                                   camera_speed_to_road, classify_motion,
                                   estimate_velocity)
from reference_engine import ingest_projecting_first

LINE = ReferenceLine((0.0, 0.0), (800.0, 0.0))
MODEL = CalibrationModel(1, (5.0, 0.1))  # d = 5 + 0.1 s


def make_camera(camera_id=0, road_position_m=-24.0, direction_sign=-1):
    return CameraSetup(camera_id=camera_id, line=LINE, calibration=MODEL,
                       road_position_m=road_position_m,
                       direction_sign=direction_sign)


def make_pipeline(**config_kw):
    cams = [make_camera(0, -24.0, -1), make_camera(1, 24.0, +1)]
    return PerceptionPipeline(100, cams, PerceptionConfig(**config_kw))


class TestProjectionToRoad:
    def test_detection_maps_to_minus_84(self):
        # pixel 550 -> d = 5 + 55 = 60 m; left camera at -24 looking away
        # from the gate: road_x = -24 - 60 = -84
        pipeline = make_pipeline()
        window = pipeline.ingest(Detection(0, 1, (550.0, 12.0), 1, 0.0))
        assert window.last_distance == pytest.approx(60.0)
        cam = pipeline.cameras[0]
        road_x = cam.road_position_m + cam.direction_sign * window.last_distance
        assert road_x == pytest.approx(-84.0)

    def test_mirror_camera_maps_positive(self):
        pipeline = make_pipeline()
        window = pipeline.ingest(Detection(1, 1, (550.0, -3.0), 1, 0.0))
        cam = pipeline.cameras[1]
        road_x = cam.road_position_m + cam.direction_sign * window.last_distance
        assert road_x == pytest.approx(84.0)

    def test_detection_is_immutable(self):
        det = Detection(camera_id=1, track_id=2, bottom_center=(3.0, 4.0),
                        object_class=1, time_s=0.5)
        assert det == Detection(1, 2, (3.0, 4.0), 1, 0.5)
        assert (det.camera_id, det.track_id, det.time_s) == (1, 2, 0.5)
        with pytest.raises(AttributeError):
            det.time_s = 1.0


class TestWindow:
    def test_velocity_example(self):
        w = TrackWindow(1, 1)
        for t, d in [(0.0, 50.0), (0.2, 50.5), (0.4, 49.8)]:
            w.push(t, d)
        assert estimate_velocity(w) == pytest.approx(-0.5)

    def test_insufficient_samples(self):
        w = TrackWindow(1, 1)
        w.push(0.0, 50.0)
        w.push(0.2, 50.5)
        with pytest.raises(InsufficientSamples):
            estimate_velocity(w)

    def test_time_regression_rejected(self):
        w = TrackWindow(1, 1)
        w.push(1.0, 50.0)
        with pytest.raises(StaleDetection):
            w.push(0.5, 49.0)

    def test_same_instant_replaces(self):
        w = TrackWindow(1, 1)
        w.push(1.0, 50.0)
        w.push(1.0, 51.0)
        assert w.distances == [51.0]

    def test_window_slides(self):
        w = TrackWindow(1, 1)
        for i in range(5):
            w.push(0.2 * i, 100.0 - i)
        assert w.times == pytest.approx([0.4, 0.6, 0.8])
        assert w.distances == [98.0, 97.0, 96.0]

    def test_min_gap_drops_dense_samples(self):
        w = TrackWindow(1, 1)
        for i in range(9):
            if w.takes(0.05 * i, 0.2):
                w.push(0.05 * i, 100.0 - i)
        assert w.times == pytest.approx([0.0, 0.2, 0.4])
        # dropped samples leave no trace in the distances either
        assert w.distances == [100.0, 96.0, 92.0]

    @given(st.lists(st.tuples(st.floats(0, 1e4), st.floats(0.1, 500)),
                    min_size=3, max_size=3,
                    unique_by=lambda td: td[0]).map(sorted))
    def test_two_slope_formula(self, samples):
        (t1, d1), (t2, d2), (t3, d3) = samples
        w = TrackWindow(0, 1)
        for t, d in samples:
            w.push(t, d)
        expected = 0.5 * ((d2 - d1) / (t2 - t1) + (d3 - d2) / (t3 - t2))
        assert estimate_velocity(w) == pytest.approx(expected, rel=1e-12, abs=1e-12)


class TestMotionClass:
    config = PerceptionConfig()

    def test_threshold_is_strict(self):
        assert classify_motion(3.0, self.config) is MotionClass.STATIONARY
        assert classify_motion(-3.0, self.config) is MotionClass.STATIONARY
        assert classify_motion(3.0000001, self.config) is MotionClass.RECEDING
        assert classify_motion(-3.0000001, self.config) is MotionClass.APPROACHING

    def test_zero_is_stationary(self):
        assert classify_motion(0.0, self.config) is MotionClass.STATIONARY


class TestCpmAssembly:
    def seed_track(self, pipeline, camera_id, track_id, d0, slope):
        for i in range(3):
            t = 0.2 * i
            s_px = ((d0 + slope * t) - 5.0) / 0.1
            pipeline.ingest(Detection(camera_id, track_id, (s_px, 0.0), 1, t))

    def test_namespaced_ids_and_order(self):
        pipeline = make_pipeline()
        self.seed_track(pipeline, 1, 2, 40.0, 10.0)
        self.seed_track(pipeline, 0, 7, 60.0, -10.0)
        msg = pipeline.assemble_cpm(0.4)
        assert msg.msg_type is MsgType.CPM
        ids = [o.object_id for o in msg.payload.objects]
        assert ids == [(0 << 14) | 7, (1 << 14) | 2]
        assert ids == sorted(ids)

    def test_speeds_are_camera_frame(self):
        pipeline = make_pipeline()
        self.seed_track(pipeline, 0, 1, 60.0, -10.0)  # approaching its camera
        msg = pipeline.assemble_cpm(0.4)
        obj = msg.payload.objects[0]
        assert obj.speed_cms == -1000
        # last sample: d = 60 - 10*0.4 = 56 -> road_x = -24 - 56 = -80
        assert obj.pos_x_cm == -8000

    def test_stationary_label_zeroes_speed(self):
        pipeline = make_pipeline()
        self.seed_track(pipeline, 0, 1, 60.0, -2.0)  # |v| = 2 <= 3
        msg = pipeline.assemble_cpm(0.4)
        assert msg.payload.objects[0].speed_cms == 0

    def test_short_window_reports_zero_speed(self):
        pipeline = make_pipeline()
        pipeline.ingest(Detection(0, 1, (550.0, 0.0), 1, 0.0))
        msg = pipeline.assemble_cpm(0.0)
        assert msg.payload.objects[0].speed_cms == 0
        # two samples 10 m apart in 0.2 s: moving, but one sample short of a speed
        pipeline.ingest(Detection(0, 1, (450.0, 0.0), 1, 0.2))
        assert len(pipeline.tracks[(0, 1)].times) == 2
        obj = pipeline.assemble_cpm(0.2).payload.objects[0]
        assert (obj.pos_x_cm, obj.speed_cms) == (-7400, 0)

    def test_meas_delta_tracks_sample_age(self):
        pipeline = make_pipeline()
        self.seed_track(pipeline, 0, 1, 60.0, -10.0)
        msg = pipeline.assemble_cpm(0.9)
        assert msg.payload.objects[0].meas_delta_ms == 500

    def test_track_expiry(self):
        pipeline = make_pipeline()
        self.seed_track(pipeline, 0, 1, 60.0, -10.0)  # last sample at t=0.4
        assert len(pipeline.assemble_cpm(1.4).payload.objects) == 1
        assert len(pipeline.assemble_cpm(1.45).payload.objects) == 0

    def test_cpm_keeps_the_255_newest_tracks_in_key_order(self):
        pipeline = make_pipeline()
        for track_id in range(256):
            pipeline.ingest(Detection(0, track_id, (550.0, 0.0), 1, 0.0))
        pipeline.ingest(Detection(1, 0, (550.0, 0.0), 1, 0.2))
        ids = [o.object_id for o in pipeline.assemble_cpm(0.2).payload.objects]
        # the newest track stays; of the 256 tied at t=0 the lowest keys fill the rest
        assert ids == list(range(254)) + [1 << 14]

    @pytest.mark.parametrize("track_id", [1 << 14, -1])
    def test_track_id_must_fit_the_object_id(self, track_id):
        # a wider id would share its CPM object_id with another track
        pipeline = make_pipeline()
        pipeline.ingest(Detection(0, (1 << 14) - 1, (550.0, 0.0), 1, 0.0))
        with pytest.raises(PerceptionError, match="track id"):
            pipeline.ingest(Detection(0, track_id, (550.0, 0.0), 1, 0.0))
        ids = [o.object_id for o in pipeline.assemble_cpm(0.0).payload.objects]
        assert ids == [(1 << 14) - 1]

    def test_sensor_list_covers_all_cameras(self):
        pipeline = make_pipeline()
        msg = pipeline.assemble_cpm(0.0)
        assert [s.sensor_id for s in msg.payload.sensors] == [0, 1]
        # advertised range is the calibrated span end in decimeters
        assert msg.payload.sensors[0].range_dm == int(round((5.0 + 0.1 * 800) * 10))


def keep_then_ingest(pipeline, det):
    """What a caller of the pipeline does: ask the gap rule, then ingest."""
    if pipeline.keeps(det.camera_id, det.track_id, det.time_s):
        pipeline.ingest(det)


class TestGapFirstIngest:
    # (time, pixel, class): frame-rate detections inside the sample gap, a
    # same-time replacement, a stale detection, a class change on a dropped one
    STREAM = [(0.0, 500.0, 1), (0.05, 498.0, 1), (0.1, 496.0, 1), (0.15, 494.0, 1),
              (0.2, 492.0, 1), (0.2, 491.0, 1), (0.25, 490.0, 1), (0.4, 484.0, 1),
              (0.3, 488.0, 1), (0.45, 482.0, 2), (0.6, 476.0, 2)]
    KEPT = 5  # 0.0, 0.2 and its replacement, 0.4, 0.6

    def test_only_kept_samples_are_projected(self, monkeypatch):
        calls = {"project": 0, "estimate": 0}

        def counting(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(perception, "project_to_line",
                            counting("project", project_to_line))
        monkeypatch.setattr(perception, "estimate_distance",
                            counting("estimate", estimate_distance))
        pipeline = make_pipeline()
        for t, px, cls in self.STREAM:
            try:
                keep_then_ingest(pipeline, Detection(0, 3, (px, 0.0), cls, t))
            except StaleDetection:
                pass
        assert calls == {"project": self.KEPT, "estimate": self.KEPT}

    def test_windows_equal_projecting_first(self):
        gap_first, reference = make_pipeline(), make_pipeline()
        for t, px, cls in self.STREAM:
            det = Detection(0, 3, (px, 0.0), cls, t)
            outcomes = []
            for ingest in (lambda d: keep_then_ingest(gap_first, d),
                           lambda d: ingest_projecting_first(reference, d)):
                try:
                    ingest(det)
                    outcomes.append(None)
                except StaleDetection as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1]
            assert gap_first.tracks == reference.tracks, t
            if t == 0.45:  # the dropped detection left the class alone
                assert gap_first.tracks[(0, 3)].object_class == 1
        window = gap_first.tracks[(0, 3)]
        assert window.times == [0.2, 0.4, 0.6] and window.object_class == 2
        assert window.distances[0] == 5.0 + 0.1 * 491.0  # the replacement

    def test_ingest_records_a_sample_inside_the_gap(self):
        # the gap rule is the caller's to ask: ingest records what it is handed
        pipeline = make_pipeline()
        pipeline.ingest(Detection(0, 3, (500.0, 0.0), 1, 0.0))
        assert not pipeline.keeps(0, 3, 0.05)
        window = pipeline.ingest(Detection(0, 3, (498.0, 0.0), 2, 0.05))
        assert window.times == [0.0, 0.05] and window.object_class == 2
        assert window.distances == [5.0 + 0.1 * 500.0, 5.0 + 0.1 * 498.0]


class TestCameraSpeedToRoad:
    def test_left_side_approaching_moves_toward_gate(self):
        assert camera_speed_to_road(-84.0, -9.5) == pytest.approx(9.5)

    def test_right_side_approaching_moves_toward_gate(self):
        assert camera_speed_to_road(84.0, -9.5) == pytest.approx(-9.5)

    def test_receding_signs(self):
        assert camera_speed_to_road(-84.0, 4.0) == pytest.approx(-4.0)
        assert camera_speed_to_road(84.0, 4.0) == pytest.approx(4.0)

    def test_origin_is_degenerate(self):
        assert camera_speed_to_road(0.0, 5.0) == 0.0


class TestSetupValidation:
    def test_direction_sign_checked(self):
        with pytest.raises(PerceptionError):
            CameraSetup(0, LINE, MODEL, 0.0, 2)

    def test_camera_id_fits_namespace(self):
        with pytest.raises(PerceptionError):
            CameraSetup(4, LINE, MODEL, 0.0, 1)

    def test_duplicate_camera_ids(self):
        with pytest.raises(PerceptionError):
            PerceptionPipeline(1, [make_camera(0), make_camera(0)])

    def test_negative_track_expiry(self):
        # a negative expiry would drop every track before it reached a CPM
        with pytest.raises(PerceptionError, match="track_expiry_s"):
            PerceptionConfig(track_expiry_s=-1.0)
        assert make_pipeline(track_expiry_s=0.0).config.track_expiry_s == 0.0
