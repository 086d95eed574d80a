"""A plain engine that takes none of ``sim._Engine``'s shortcuts, and the
plain rules it is built from; ``run`` must log what ``reference_run`` logs.

``ReferenceEngine`` shares only the contract with ``sim._Engine``: the
stage order of ``sim.run``, the stream spawning of ``__init__`` and the
event builders of ``hear``, ``beacons``, ``decide`` and ``actuate``.  It
queues every send and delivery on one heap, decodes each delivered copy,
draws each uniform and each pixel noise on its own, evaluates and sees
every vehicle and rebuilds the listeners on every tick, and projects each
sample before the gap rule decides on it.  Fusion tests all pairs, and
``round`` rounds.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
from unittest import mock

from mergeguard import sim
from mergeguard.calibration import estimate_distance, project_to_line
from mergeguard.fusion import joint_distance
from mergeguard.messages import decode_message, encode_message
from mergeguard.perception import Detection, TrackWindow


def all_pairs(vs, cs, epsilon):
    """The fusion rule, every camera object against every V2X one."""
    return sorted(vs, key=lambda o: o.ref_id) + [
        c for c in sorted(cs, key=lambda o: o.ref_id)
        if all(joint_distance(c, v) >= epsilon for v in vs)]


def scalar_observe(sensor, positions):
    """``SensorModel.observe`` of every entity, each sample kept, with one
    scalar pixel-noise draw per sighting, whatever the std."""
    out, std = [], sensor.config.pixel_noise_std
    for cam, near, reach in sensor._views:
        line = cam.line
        for idx, x in enumerate(positions):
            dist = cam.direction_sign * (x - cam.road_position_m)
            if not near <= dist <= reach[idx]:
                continue
            s = cam.calibration.inverse(dist, line.s_max)
            s = min(max(s + float(sensor.rng.normal(0.0, std)), 0.0), line.s_max)
            point = (line.p0[0] + s * line.direction[0], line.p0[1] + s * line.direction[1])
            out.append((cam.camera_id, idx, dist, point))
    return out


def ingest_projecting_first(pipeline, det):
    """``keeps`` then ``ingest`` the other way round: project every detection,
    then let the window's rules decide on it, a dropped one changing nothing."""
    cam = pipeline.cameras[det.camera_id]
    distance = estimate_distance(cam.calibration, project_to_line(det.bottom_center, cam.line))
    window = pipeline.tracks.setdefault((det.camera_id, det.track_id),
                                        TrackWindow(det.track_id, det.object_class))
    if window.takes(det.time_s, pipeline.config.sample_gap_s):
        window.push(det.time_s, distance)
        window.object_class = det.object_class


class ReferenceEngine(sim._Engine):
    """``sim._Engine`` without its shortcuts; it appends its state after each
    tick's ``actuate`` to ``rows``, as ``sim.series`` should give it."""

    def __init__(self, scenario, seed, rows):
        super().__init__(scenario, seed)
        self.heap, self.pushed, self.rows = [], itertools.count(), rows

    def send_at(self, time_s, msg):
        heapq.heappush(self.heap, (time_s, next(self.pushed), None, msg))

    def transmit(self, msg, tx_time):
        sender_id, data = msg.station_id, encode_message(msg, max_hops=self.max_hops)
        self.log.append((round(tx_time, 9), "msg_tx", self.labels[sender_id],
                         msg.msg_type.name, sender_id, msg.timestamp_ms, len(data)))
        cfg, rng = self.channel.config, self.channel.rng
        tx_x, tx_y = self.positions[sender_id]
        for rid, (x, y) in sorted(self.receivers):  # a loss draw for each one in range
            if (rid != sender_id and math.hypot(x - tx_x, y - tx_y) <= cfg.comm_range_m
                    and not rng.random() < cfg.loss_prob):
                due = tx_time + cfg.latency_base_s + rng.random() * cfg.latency_jitter_s
                heapq.heappush(self.heap, (due, next(self.pushed), rid, data))

    def flush(self, now_s):
        while self.heap and self.heap[0][0] <= now_s + sim._TIME_EPS:
            time_s, _, receiver_id, item = heapq.heappop(self.heap)
            if receiver_id is None:
                self.transmit(item, time_s)
                continue
            msg = decode_message(item, max_hops=self.max_hops)
            type_name = msg.msg_type.name
            event = (round(time_s, 9), "msg_rx", self.labels[receiver_id], type_name,
                     msg.station_id, msg.timestamp_ms,
                     round(time_s - msg.timestamp_ms / 1000.0, 9))
            duplicate = False
            if type_name == "DENM":
                p = msg.payload
                seen = (receiver_id, p.origin_station_id, p.sequence_number)
                duplicate = seen in self.denm_seen
                event += (p.origin_station_id, p.sequence_number, p.hop_count, duplicate)
                self.denm_seen.add(seen)
            self.log.append(event)
            if receiver_id == self.robot_id and not duplicate:
                self.hear(msg, type_name, time_s)

    def merge(self):
        raise AssertionError("the reference queues on its heap alone")

    def world(self, now_s, t):
        for idx, ent in enumerate(self.scenario.entities):
            x, v = sim.eval_trajectory(ent.trajectory, now_s)
            self.entity_x[idx], self.entity_v[idx] = x, v
            inside = self.robot.zod.contains(x)
            if inside != self.in_zone[idx]:
                self.log.append((round(now_s, 9), ("zod_exit", "zod_enter")[inside],
                                 f"veh{idx}", ent.station_id, round(x, 6)))
                self.in_zone[idx] = inside
        self.receivers = [(self.robot_id, self.robot.position),
                          *((sid, (self.entity_x[idx], 0.0)) for idx, sid, _ in self.v2x_vehicles)]
        self.positions.update(self.receivers)

    def sense(self, i, now_s, t):
        if self.sensor is None:
            return
        for cam_id, idx, dist, point in scalar_observe(self.sensor, self.entity_x):
            self.log.append((round(now_s, 9), "detection", "infra", cam_id, idx,
                             self.station_ids[idx], round(dist, 6),
                             round(self.entity_x[idx], 6), not self.first_detected[idx]))
            self.first_detected[idx] = True
            ingest_projecting_first(self.perception,
                                    Detection(cam_id, idx, point, self.classes[idx], now_s))
        if i % self.cpm_every == 0:
            cpm = self.perception.assemble_cpm(now_s)
            self.log.append((round(now_s, 9), "cpm_gen", "infra", cpm.timestamp_ms,
                             len(cpm.payload.objects)))
            self.send_at(now_s + self.scenario.infra.cpm_processing_delay_s, cpm)

    def actuate(self, now_s, t):
        super().actuate(now_s, round(now_s, 9))
        row = {"time_s": round(now_s, 9), "mode": self.state.mode.value,
               "merging": int(self.scenario.merging_seen(now_s))}
        for idx, (x, v) in enumerate(zip(self.entity_x, self.entity_v)):
            row[f"x_veh{idx}"], row[f"v_veh{idx}"] = round(x, 6), round(v, 6)
        self.rows.append(row)


# the plain rules that ``reference_run`` puts in place of ``sim``'s own
PLAIN_RULES = {
    "fuse": lambda vs, cs, config: all_pairs(vs, cs, config.epsilon),
    "_round9": lambda x: round(x, 9),
    "_round6": lambda x: round(x, 6),
    "_round3": lambda x: round(x, 3),
}


def reference_run(scenario, seed=None):
    """``sim.run`` of a ``ReferenceEngine``, with all-pairs fusion and
    ``round``; returns its result and its per-tick ``rows``."""
    rows = []
    with mock.patch.multiple(sim, _Engine=functools.partial(ReferenceEngine, rows=rows),
                             **PLAIN_RULES):
        result = sim.run(scenario, seed)
    return result, rows
