"""Seeded inputs for the three benchmark workloads.

Every workload is a list of jobs, each a (name, scenario dict) pair built
from the benchmark seed alone.  The program under test only ever sees
the dicts; nothing here reaches into the engine.

* ``seed_sweep``  the acceptance suite's Monte-Carlo traffic: both shipped
                  scenarios plus single-vehicle ``make_pass_scenario``
                  variants.  One or two listeners per broadcast, at most
                  one camera track, so per-detection sensor work and per-run
                  fixed costs dominate.
* ``v2x_dense``   a hundred V2X vehicles and a roadworks RSU inside one
                  radio cell for one simulated second: every broadcast
                  reaches every other station, so per-receiver decoding,
                  station lookup and the size of the log dominate.
* ``mixed_lossy`` tens of mostly unequipped vehicles arriving in platoons
                  on both arms, a lossy channel, a repeating RSU and a
                  standing merging window: many concurrent camera tracks,
                  the fusion gate and repeated STOP/PASS cycles.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from mergeguard.sim import make_pass_scenario

TICK_S = 0.05
CAMERA_LINE = {"p0": [60.0, 420.0], "p1": [820.0, 80.0]}
CALIBRATION = {"order": 2, "weights": [5.0, 0.1, 0.0001]}
CAMERA_OFFSET_M = 24.0
SPAWN_M = 150.0  # distance from the gate at which arrival times are counted
FIRST_STATION_ID = 1000

SWEEP_VARIANTS = 100
DENSE_JOBS = 24
LOSSY_JOBS = 32


def traffic_scenario(seed: int, *, name: str, n_vehicles: int,
                     equipped_share: float, platoon_size: int,
                     headway_s: float, platoon_gap_s: float,
                     first_arrival_s: float, duration_s: float,
                     loss_prob: float, comm_range_m: float, rsu: bool,
                     merging: bool) -> dict:
    """Vehicles in platoons on both arms, as a schema-1 scenario dict.

    Vehicles alternate between the arms (even index from negative x).
    Within an arm the k-th vehicle reaches ``SPAWN_M`` from the gate at

        first_arrival_s + platoon * (platoon_size * headway_s + platoon_gap_s)
                        + slot * headway_s + U(0, headway_s / 2)

    and drives through the gate at a constant speed from U(8, 14) m/s.
    Negative arrival times place the vehicle inside the spawn line at
    t = 0.
    """
    rng = np.random.default_rng(seed)
    cycle_s = platoon_size * headway_s + platoon_gap_s
    entities = []
    for k in range(n_vehicles):
        direction = 1 if k % 2 == 0 else -1  # +1: drives toward positive x
        pos_in_arm = k // 2
        platoon, slot = divmod(pos_in_arm, platoon_size)
        arrival = (first_arrival_s + platoon * cycle_s + slot * headway_s
                   + float(rng.uniform(0.0, headway_s / 2)))
        speed = float(rng.uniform(8.0, 14.0))
        start_x = -direction * SPAWN_M - direction * speed * arrival
        equipped = bool(rng.random() < equipped_share)
        entities.append({
            "station_id": FIRST_STATION_ID + k if equipped else 0,
            "object_class": 1,
            "v2x_equipped": equipped,
            "cam_period_s": 0.5,
            "trajectory": [{"start_time_s": 0.0, "start_x_m": round(start_x, 6),
                            "speed_mps": round(direction * speed, 6),
                            "accel_mps2": 0.0}],
        })

    cameras = [{"camera_id": cid, "road_position_m": sign * CAMERA_OFFSET_M,
                "direction_sign": sign, "line": CAMERA_LINE,
                "calibration": CALIBRATION}
               for cid, sign in ((0, -1), (1, 1))]
    scenario = {
        "schema_version": 1,
        "name": name,
        "duration_s": duration_s,
        "tick_s": TICK_S,
        "rng_seed": int(seed),
        "channel": {"comm_range_m": comm_range_m, "loss_prob": loss_prob,
                    "latency_base_s": 0.01, "latency_jitter_s": 0.005},
        "robot": {"station_id": 1, "position": [0.0, 0.0],
                  "zod": {"half_extent_m": 25.0, "tau_th_s": 5.0},
                  "moderator": {"station_id": 1, "cam_jitter_enabled": True},
                  "merging_detect_range_m": 15.0},
        "infra": {"station_id": 100, "position": [0.0, 6.0],
                  "cpm_processing_delay_s": 0.1,
                  "cameras": cameras},
        "entities": entities,
        "merging_windows": ([{"start_s": 0.0, "end_s": duration_s, "distance_m": 0.0}]
                            if merging else []),
    }
    if rsu:
        scenario["rsu"] = {"station_id": 200, "position": [134.3, 0.0],
                           "denm": {"cause_code": 3, "period_s": 1.0,
                                    "validity_s": 60, "repeat_count": 2,
                                    "repeat_gap_s": 0.1}}
    return scenario


def _seed_sweep(rng: np.random.Generator, scenario_dir: Path) -> list[tuple[str, dict]]:
    jobs = [(path.stem, json.loads(path.read_text()))
            for path in sorted(scenario_dir.glob("*.json"))]
    for i in range(SWEEP_VARIANTS):
        pass_seed = int(rng.integers(0, 2**31))
        # uneven shares, so that no median falls between two kinds of pass
        offset = float(rng.uniform(1.0, 6.0)) if i % 4 else None
        direction = -1 if i % 2 else 1
        sc = make_pass_scenario(pass_seed, v2x=i % 3 == 0,
                                merging_offset_s=offset, direction=direction)
        jobs.append((f"pass_{i}", sc))
    return jobs


def _v2x_dense(rng: np.random.Generator) -> list[tuple[str, dict]]:
    jobs = []
    for i in range(DENSE_JOBS):
        sub = int(rng.integers(0, 2**31))
        jobs.append((f"dense_{i}", traffic_scenario(
            sub, name=f"dense_{i}", n_vehicles=100, equipped_share=1.0,
            platoon_size=50, headway_s=0.2, platoon_gap_s=0.0,
            first_arrival_s=-10.0, duration_s=1.0, loss_prob=0.0,
            comm_range_m=400.0, rsu=True, merging=False)))
    return jobs


def _mixed_lossy(rng: np.random.Generator) -> list[tuple[str, dict]]:
    jobs = []
    for i in range(LOSSY_JOBS):
        sub = int(rng.integers(0, 2**31))
        jobs.append((f"lossy_{i}", traffic_scenario(
            sub, name=f"lossy_{i}", n_vehicles=40, equipped_share=0.25,
            platoon_size=4, headway_s=1.2, platoon_gap_s=14.0,
            first_arrival_s=0.0, duration_s=60.0, loss_prob=0.2,
            comm_range_m=150.0, rsu=True, merging=True)))
    return jobs


WORKLOADS = ("seed_sweep", "v2x_dense", "mixed_lossy")


def make_jobs(workload: str, seed: int, scenario_dir: Path) -> list[tuple[str, dict]]:
    """The workload's jobs for one benchmark seed, in a seeded order."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "seed_sweep":
        jobs = _seed_sweep(rng, scenario_dir)
    elif workload == "v2x_dense":
        jobs = _v2x_dense(rng)
    elif workload == "mixed_lossy":
        jobs = _mixed_lossy(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    order = rng.permutation(len(jobs))
    return [jobs[i] for i in order]

