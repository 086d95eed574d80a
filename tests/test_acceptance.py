"""Acceptance gate: every deliverable claim, one pass/fail line each.

Each test checks one headline behaviour at its stated tolerance and
prints a single PASS/FAIL line with the measured value (visible with
``pytest -s`` and in failure output).  Tolerances here are pinned; do
not widen them to make a red test green.
"""

import json
import pathlib
import time

import numpy as np
import pytest

from mergeguard.calibration import CalibrationSet, fit
from mergeguard.decision import Action, DecisionState, ZodConfig, step
from mergeguard.fusion import FusedObject, FusionConfig, Source, fuse
from mergeguard.kpi import compute, stop_lead_times
from mergeguard.messages import (CodecError, CamPayload, DenmPayload, Message,
                                 PerceivedObject, CpmPayload, SensorInfo,
                                 decode_message, encode_message)
from mergeguard.perception import (MotionClass, PerceptionConfig, TrackWindow,
                                   classify_motion, estimate_velocity)
from mergeguard.sim import (load_scenario, make_pass_scenario, run,
                            scenario_from_dict, trajectory_summary)

SCENARIO_DIR = pathlib.Path(__file__).resolve().parent.parent / "scenarios"


def report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {name}: {detail}")
    assert ok, f"{name}: {detail}"


def noiseless_pass(seed: int, tau_th_s: float = 5.0, **kwargs) -> dict:
    """``make_pass_scenario`` with a noise-free camera and the hazard horizon ``tau_th_s``."""
    sc = make_pass_scenario(seed, **kwargs)
    sc["infra"]["sensor"]["pixel_noise_std"] = 0.0
    sc["robot"]["zod"]["tau_th_s"] = tau_th_s
    return sc


@pytest.fixture(scope="module")
def urban():
    scenario = load_scenario(SCENARIO_DIR / "rotterdam_run.json")
    t0 = time.perf_counter()
    result = run(scenario)
    return scenario, result, time.perf_counter() - t0


@pytest.fixture(scope="module")
def repeater():
    scenario = load_scenario(SCENARIO_DIR / "denm_repeater.json")
    return scenario, run(scenario)


class TestUrbanRegression:
    def test_tracked_vehicle_profile(self, urban):
        scenario, _, _ = urban
        stop, path, mean = trajectory_summary(scenario.entities[0].trajectory,
                                              scenario.duration_s)
        ok = (abs(stop - 19.82) <= 0.1 and abs(path - 185.5) <= 1.0
              and abs(mean - 9.35) <= 0.05)
        report("tracked vehicle profile", ok,
               f"duration {stop:.3f} s (19.82±0.1), path {path:.2f} m (185.5±1.0), "
               f"mean {mean:.4f} m/s (9.35±0.05)")

    def test_zone_time_and_stop_margin(self, urban):
        scenario, result, _ = urban
        k = compute(result.log.events, subject_station=7,
                    end_time_s=scenario.duration_s)
        margin = k.ari_stop_time_s - k.vw_zod_time_s
        tau = scenario.robot.zod.tau_th_s
        ok = abs(k.vw_zod_time_s - 10.99) <= 0.5 and 0.0 < margin <= tau
        report("zone occupancy and stop margin", ok,
               f"zod {k.vw_zod_time_s:.3f} s (10.99±0.5), "
               f"stop-zod {margin:.3f} s (must be in (0, {tau}])")

    def test_runtime(self, urban):
        _, _, elapsed = urban
        report("urban scenario runtime", elapsed < 5.0,
               f"{elapsed:.3f} s (< 5 s)")


class TestCommunicationKpis:
    def test_robot_cam_generation_gap(self, urban):
        scenario, result, _ = urban
        k = compute(result.log.events, subject_station=7,
                    end_time_s=scenario.duration_s)
        ok = 1.00 <= k.ari_igg_s <= 1.20
        report("robot CAM generation gap", ok,
               f"igg {k.ari_igg_s:.4f} s (in [1.00, 1.20], jitter on)")

    def test_vehicle_cam_reception_gap(self, urban):
        scenario, result, _ = urban
        k = compute(result.log.events, subject_station=7,
                    end_time_s=scenario.duration_s)
        ok = abs(k.vw_ipg_s - 0.50) <= 0.05
        report("vehicle CAM reception gap", ok,
               f"ipg {k.vw_ipg_s:.4f} s (0.50±0.05)")

    def test_cpm_latency(self, urban):
        scenario, result, _ = urban
        k = compute(result.log.events, subject_station=7,
                    end_time_s=scenario.duration_s)
        ok = abs(k.cpm_latency_s - 1.30) <= 0.05
        report("CPM processing+channel latency", ok,
               f"latency {k.cpm_latency_s:.4f} s (1.30±0.05)")


class TestDenmRepeater:
    def vehicle_rx(self, result):
        return [e for e in result.log.events
                if e["type"] == "msg_rx" and e["actor"] == "veh0"
                and e["msg_type"] == "DENM"]

    def test_first_reception_is_relayed(self, repeater):
        _, result = repeater
        rx = self.vehicle_rx(result)
        ok = bool(rx) and rx[0]["hop_count"] == 1
        report("out-of-range vehicle hears the relay first", ok,
               f"first reception at {rx[0]['t']:.3f} s with hop {rx[0]['hop_count']}")

    def test_in_range_both_copies_one_logical_event(self, repeater):
        _, result = repeater
        rx = self.vehicle_rx(result)
        per_key: dict[tuple, list] = {}
        for e in rx:
            per_key.setdefault((e["origin"], e["sequence"]), []).append(e)
        # keys the vehicle first hears once inside RSU range (enters at 19 s)
        late = {k: v for k, v in per_key.items() if v[0]["t"] >= 19.5}
        both = [k for k, v in late.items() if {0, 1} <= {e["hop_count"] for e in v}]
        logical_ok = all(sum(not e["duplicate"] for e in v) == 1
                         for v in per_key.values())
        ok = len(late) >= 10 and len(both) == len(late) and logical_ok
        report("in-range vehicle gets both copies, dedup keeps one", ok,
               f"{len(both)}/{len(late)} late keys carry hop 0 and hop 1; "
               f"one non-duplicate per key: {logical_ok}")

    def test_robot_relays_each_notification_once(self, repeater):
        scenario, result = repeater
        k = compute(result.log.events, subject_station=7,
                    end_time_s=scenario.duration_s)
        seqs = {e["sequence"] for e in result.log.events
                if e["type"] == "msg_rx" and e["msg_type"] == "DENM"}
        ok = k.n_relays == len(seqs)
        report("repeated copies are never re-relayed", ok,
               f"{k.n_relays} relays for {len(seqs)} distinct notifications")

    def test_rsu_inter_packet_gap(self, repeater):
        scenario, result = repeater
        k = compute(result.log.events, subject_station=7,
                    end_time_s=scenario.duration_s)
        ok = abs(k.rsu_ipg_s - 0.522) <= 0.05
        report("RSU notification gap at the robot", ok,
               f"ipg {k.rsu_ipg_s:.4f} s (0.522±0.05)")


class TestDetectionStatistics:
    def test_first_detection_distance_distribution(self):
        distances = []
        for seed in range(500):
            result = run(scenario_from_dict(make_pass_scenario(seed)))
            first = [e for e in result.log.events
                     if e["type"] == "detection" and e["first"]]
            if first:
                distances.append(first[0]["cam_distance_m"])
        arr = np.asarray(distances)
        mean, std = float(arr.mean()), float(arr.std(ddof=1))
        ok = (len(arr) == 500 and abs(mean - 110.1) <= 2.0
              and abs(std - 6.5) <= 1.5)
        report("first-detection distance statistics", ok,
               f"n={len(arr)}, mean {mean:.3f} m (110.1±2.0), "
               f"std {std:.3f} m (6.5±1.5)")


class TestCalibrationSuite:
    def test_noiseless_recovery(self):
        # the solver squares the design-matrix conditioning (closed-form
        # normal equations), so exactness is claimed for well-spread sets:
        # at least order+3 points, 0.5 apart, spanning 6 or more
        rng = np.random.default_rng(5)
        worst = 0.0
        done = 0
        while done < 1000:
            order = int(rng.integers(1, 3))  # degree <= 2
            w_true = rng.uniform(-3.0, 3.0, size=order + 1)
            w_true[0] = abs(w_true[0]) + 1.0
            n = order + 1 + int(rng.integers(2, 8))
            s = np.sort(rng.uniform(0.0, 10.0, size=n))
            d = np.polyval(w_true[::-1], s)
            if (np.min(np.diff(s)) < 0.5 or s[-1] - s[0] < 6.0
                    or np.any(d <= 0)):
                continue
            model = fit(CalibrationSet(tuple(s), tuple(d)), order=order)
            worst = max(worst, float(np.max(np.abs(np.array(model.weights) - w_true))))
            done += 1
        report("noiseless polynomial recovery", worst < 1e-9,
               f"worst weight error {worst:.3e} (< 1e-9) over 1000 sets")

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(6)
        worst = 0.0
        done = 0
        while done < 1000:
            n = int(rng.integers(5, 16))
            s = np.sort(rng.uniform(0.0, 50.0, size=n))
            if np.min(np.diff(s)) < 1.0 or s[-1] - s[0] < 15.0:
                continue  # keep the normal equations comfortably conditioned
            d = rng.uniform(0.5, 120.0, size=n)
            model = fit(CalibrationSet(tuple(s), tuple(d)), order=2)
            phi = np.vander(s, 3, increasing=True)
            r = d - phi @ np.array(model.weights)
            worst = max(worst, float(np.linalg.norm(phi.T @ r)
                                     / np.linalg.norm(d)))
            done += 1
        report("least-squares residual orthogonality", worst < 1e-8,
               f"worst |Phi^T r|/|d| {worst:.3e} (< 1e-8) over 1000 sets")

    def test_hand_solved_line_fit(self):
        model = fit(CalibrationSet((0.0, 1.0, 2.0), (1.0, 2.0, 5.0)), order=1)
        err = max(abs(model.weights[0] - 2.0 / 3.0), abs(model.weights[1] - 2.0))
        report("hand-solved normal equations", err < 1e-12,
               f"weights ({model.weights[0]:.12f}, {model.weights[1]:.12f}), "
               f"error {err:.2e} (< 1e-12)")


class TestVelocityOracle:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(10_000):
            t1 = float(rng.uniform(0.0, 100.0))
            g1, g2 = rng.uniform(0.05, 1.0, size=2)
            t2, t3 = t1 + float(g1), t1 + float(g1) + float(g2)
            d1, d2, d3 = (float(v) for v in rng.uniform(0.0, 200.0, size=3))
            w = TrackWindow(track_id=0, object_class=1)
            for t, d in ((t1, d1), (t2, d2), (t3, d3)):
                w.push(t, d)
            got = estimate_velocity(w)
            want = 0.5 * ((d2 - d1) / (t2 - t1) + (d3 - d2) / (t3 - t2))
            worst = max(worst, abs(got - want))
        report("two-slope velocity oracle", worst < 1e-12,
               f"worst |got-want| {worst:.3e} (< 1e-12) over 10^4 windows")

    def test_boundary_speed_is_stationary(self):
        cfg = PerceptionConfig()
        at = classify_motion(3.0, cfg)
        above = classify_motion(3.0000001, cfg)
        below = classify_motion(-3.0, cfg)
        ok = (at is MotionClass.STATIONARY and below is MotionClass.STATIONARY
              and above is not MotionClass.STATIONARY)
        report("motion boundary |v|=3 is stationary", ok,
               f"at=+3: {at.value}, at=-3: {below.value}, just above: {above.value}")


def random_objects(rng, source, n):
    return [FusedObject(source, int(rng.integers(0, 50)) if source is Source.V2X
                        else int(rng.integers(0, 50)),
                        float(rng.uniform(-150.0, 150.0)),
                        float(rng.uniform(-20.0, 20.0)), 1,
                        float(rng.uniform(0.0, 10.0)))
            for _ in range(n)]


class TestInterventionProperties:
    def test_fusion_v2x_completeness_and_gate_soundness(self):
        rng = np.random.default_rng(8)
        cfg = FusionConfig()
        complete = sound = justified = True
        for _ in range(2000):
            v2x = random_objects(rng, Source.V2X, int(rng.integers(0, 4)))
            cams = random_objects(rng, Source.CAMERA, int(rng.integers(0, 6)))
            fused = fuse(v2x, cams, cfg)
            kept_cam = [o for o in fused if o.source is Source.CAMERA]
            complete &= all(any(f is o for f in fused) for o in v2x)
            for o in kept_cam:
                if v2x:
                    sound &= min(np.hypot(o.road_x_m - v.road_x_m,
                                          o.speed_mps - v.speed_mps)
                                 for v in v2x) >= cfg.epsilon
            for o in cams:
                if not any(f is o for f in fused) and v2x:
                    justified &= min(np.hypot(o.road_x_m - v.road_x_m,
                                              o.speed_mps - v.speed_mps)
                                     for v in v2x) < cfg.epsilon
        ok = complete and sound and justified
        report("fusion keeps V2X, gates camera duplicates", ok,
               f"v2x complete: {complete}, kept>=eps: {sound}, "
               f"dropped<eps: {justified} (2000 random inputs)")

    def test_danger_requires_merging(self):
        rng = np.random.default_rng(9)
        zod = ZodConfig()
        stopped = False
        for _ in range(2000):
            objs = random_objects(rng, Source.V2X, int(rng.integers(0, 5)))
            _, action = step(DecisionState(), objs, False, 0.0, zod)
            stopped |= action is Action.STOP
        report("no intervention without a merging vehicle", not stopped,
               "2000 random hazard sets with merging_seen=False never STOP")

    def test_stop_lead_time_bounds(self):
        tau = 5.0
        bad = []
        leads_all = []
        for seed in range(700):
            offset = float(np.random.default_rng(10_000 + seed).uniform(1.0, 6.0))
            sc = noiseless_pass(seed, merging_offset_s=offset)
            result = run(scenario_from_dict(sc))
            leads = stop_lead_times(result.log.events)
            if len(leads) != 1 or not (0.0 <= leads[0] <= tau):
                bad.append((seed, leads))
            else:
                leads_all.append(leads[0])
        ok = not bad
        report("every covered zone entry is preceded by a timely STOP", ok,
               f"700 merging passes, leads in [{min(leads_all):.2f}, "
               f"{max(leads_all):.2f}] s (required [0, {tau}]); "
               f"violations: {bad[:3]}")

    def test_no_stops_without_merging(self):
        stops = 0
        for seed in range(300):
            sc = noiseless_pass(seed)
            result = run(scenario_from_dict(sc))
            stops += compute(result.log.events).n_stops
        report("no merging window, no intervention", stops == 0,
               f"{stops} stops across 300 merging-free passes")

    def test_horizon_monotonicity(self):
        stop_sets: dict[float, set[int]] = {}
        stop_times: dict[float, dict[int, float]] = {}
        for tau in (2.0, 5.0, 8.0):
            stop_sets[tau] = set()
            stop_times[tau] = {}
            for seed in range(150):
                offset = float(np.random.default_rng(20_000 + seed).uniform(1.0, 6.0))
                sc = noiseless_pass(seed, merging_offset_s=offset, tau_th_s=tau)
                result = run(scenario_from_dict(sc))
                stops = [e["t"] for e in result.log.events
                         if e["type"] == "decision" and e["action"] == "stop"]
                if stops:
                    stop_sets[tau].add(seed)
                    stop_times[tau][seed] = stops[0]
        inclusion = stop_sets[2.0] <= stop_sets[5.0] <= stop_sets[8.0]
        shared = stop_sets[2.0] & stop_sets[5.0] & stop_sets[8.0]
        ordered = all(stop_times[2.0][s] >= stop_times[5.0][s] >= stop_times[8.0][s]
                      for s in shared)
        ok = inclusion and ordered and len(shared) > 0
        report("longer horizon stops earlier, never less often", ok,
               f"stop sets {len(stop_sets[2.0])}<=_{len(stop_sets[5.0])}<="
               f"{len(stop_sets[8.0])} of 150; inclusion {inclusion}, "
               f"ordering on {len(shared)} shared seeds: {ordered}")


class TestDeterminismAndCodec:
    def test_byte_identical_replay(self):
        sc = load_scenario(SCENARIO_DIR / "rotterdam_run.json")
        a, b = run(sc).to_jsonl(), run(sc).to_jsonl()
        report("same seed, byte-identical log", a == b,
               f"{len(a)} bytes, logs equal: {a == b}")

    def test_decode_fuzz_million(self):
        rng = np.random.default_rng(12)
        unexpected = 0
        decoded = 0
        # 800k arbitrary buffers
        lens = rng.integers(0, 64, size=800_000)
        blob = rng.integers(0, 256, size=int(lens.sum()), dtype=np.uint8).tobytes()
        offset = 0
        for length in lens:
            buf = blob[offset:offset + length]
            offset += length
            try:
                decode_message(buf)
                decoded += 1
            except CodecError:
                pass
            except Exception:
                unexpected += 1
        # 200k single-byte corruptions of valid frames
        frames = [
            encode_message(Message(7, 1000, CamPayload(5, -8280, 0, 2200, 0))),
            encode_message(Message(100, 2000, CpmPayload(
                (SensorInfo(0, 1, 1101),),
                (PerceivedObject(3, 1, -5000, 0, -800, 100),)))),
            encode_message(Message(200, 3000, DenmPayload(3, 9, 13430, 0, 60, 0, 200))),
        ]
        flips = rng.integers(0, 256, size=200_000)
        spots = rng.integers(0, min(len(f) for f in frames), size=200_000)
        for i in range(200_000):
            frame = bytearray(frames[i % 3])
            frame[int(spots[i])] ^= int(flips[i]) or 0xFF
            try:
                decode_message(bytes(frame))
                decoded += 1
            except CodecError:
                pass
            except Exception:
                unexpected += 1
        report("decoder totality under fuzz", unexpected == 0,
               f"10^6 buffers: {decoded} decoded, rest classified, "
               f"{unexpected} unclassified errors")
