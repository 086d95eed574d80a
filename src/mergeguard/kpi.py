"""KPI extraction from simulation event logs.

Every metric is recomputed from the event stream alone, so a report can
be rebuilt from a stored JSONL log without re-running the scenario:

* ari_igg_s        mean gap between the robot's own CAM generations
* vw_ipg_s         mean gap between subject-vehicle CAM receptions at
                   the robot
* cpm_latency_s    mean generation-to-reception delay of CPMs at the
                   robot
* vw_zod_time_s    total ground-truth Zone-of-Danger occupancy of the
                   subject vehicle
* ari_stop_time_s  total time the robot spent in DANGER (stop issued ..
                   pass issued)
* rsu_ipg_s        mean gap between distinct RSU hazard notifications as
                   received by the robot (hop 0, duplicates ignored)

Intervals still open when the log ends are closed at the log's end time
and flagged, never silently dropped.

The stop lead time of a zone entry at t_in is t_in minus the time of the
latest stop decision at or before t_in, counted only when no pass
decision lies in (stop, t_in].  Ties go by time alone, not by log order:
a stop at t_in gives lead 0 even when logged after the entry, a pass at
t_in cancels the stop, and a pass at the stop's own time does not.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from dataclasses import dataclass, fields


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else math.nan

def _mean_gap(times: list[float]) -> float:
    if len(times) < 2:
        return math.nan
    return (times[-1] - times[0]) / (len(times) - 1)

def finite(value, name: str) -> float:
    """``value`` if it is a finite int or float (a bool is neither), else
    ValueError naming ``name``: no sum, gap or report value takes it in."""
    if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
        raise ValueError(f"{name} is not a finite number: {value!r}")
    return value

def _json_value(value):
    if isinstance(value, tuple):
        return list(value)
    return None if isinstance(value, float) and math.isnan(value) else value


@dataclass(frozen=True)
class KpiReport:
    ari_igg_s: float
    vw_ipg_s: float
    cpm_latency_s: float
    vw_zod_time_s: float
    ari_stop_time_s: float
    rsu_ipg_s: float
    first_detect_distances_m: tuple[float, ...]
    n_msg_tx: int
    n_msg_rx: int
    n_detections: int
    n_stops: int
    n_relays: int
    zod_interval_open: bool
    stop_interval_open: bool

    def to_json_dict(self) -> dict:
        """Every field in declaration order; NaN becomes None, a tuple a list."""
        return {f.name: _json_value(getattr(self, f.name)) for f in fields(self)}

    def to_csv(self) -> str:
        lines = ["Metric,Value"]
        for name, value in self.to_json_dict().items():
            if isinstance(value, float):
                text = f"{value:.6f}"
            elif isinstance(value, list):
                text = ";".join(f"{v:.6f}" for v in value)
            else:
                text = "" if value is None else str(value)
            lines.append(f"{name},{text}")
        return "\n".join(lines) + "\n"


def compute(events: list[dict], *, subject_station: int | None = None,
            end_time_s: float | None = None) -> KpiReport:
    """Distill one event log into a KpiReport.

    subject_station selects whose CAMs/zone crossings the vw_* metrics
    describe; None means "any station".  end_time_s closes intervals
    still open when the log stops (defaults to the last event time).
    Raises ValueError (by ``finite``) for an ``end_time_s``, or a ``t``,
    ``latency_s``, ``timestamp_ms`` or ``cam_distance_m`` that a metric
    reads, that is not a finite number.
    """
    if end_time_s is None:
        end_time_s = finite(events[-1]["t"], "t") if events else 0.0
    else:
        finite(end_time_s, "end_time_s")

    def is_subject(ev: dict, key: str = "station_id") -> bool:
        return subject_station is None or ev.get(key) == subject_station

    robot_cam_times: list[float] = []
    subject_cam_rx: list[float] = []
    cpm_latencies: list[float] = []
    first_detects: list[float] = []
    rsu_rx_ts: dict[tuple, float] = {}   # distinct RSU notifications: first copies only
    entered: dict[str, float] = {}       # subject actors inside the zone, since when
    zod_time = stop_time = 0.0
    stop_since: float | None = None
    n_tx = n_rx = n_detections = n_stops = n_relays = 0
    for e in events:
        kind = e["type"]
        if kind == "msg_rx":
            n_rx += 1
            if e["actor"] != "robot":
                continue
            msg_type = e["msg_type"]
            if msg_type == "CAM" and is_subject(e, "from_station"):
                subject_cam_rx.append(finite(e["t"], "t"))
            elif msg_type == "CPM":
                cpm_latencies.append(finite(e["latency_s"], "latency_s"))
            elif (msg_type == "DENM" and e.get("hop_count") == 0
                    and not e.get("duplicate", False)):
                rsu_rx_ts[(e["origin"], e["sequence"])] = (
                    finite(e["timestamp_ms"], "timestamp_ms") / 1000.0)
        elif kind == "msg_tx":
            n_tx += 1
        elif kind == "cam_gen":
            if e["actor"] == "robot":
                robot_cam_times.append(finite(e["t"], "t"))
        elif kind == "detection":
            n_detections += 1
            if e.get("first") and is_subject(e):
                first_detects.append(finite(e["cam_distance_m"], "cam_distance_m"))
        elif kind == "denm_relay":
            n_relays += 1
        elif kind == "decision":
            # DANGER intervals from decision transitions
            action = e["action"]
            if action == "stop" and stop_since is None:
                stop_since = finite(e["t"], "t")
                n_stops += 1
            elif action == "pass" and stop_since is not None:
                stop_time += finite(e["t"], "t") - stop_since
                stop_since = None
        elif kind == "zod_enter":
            if is_subject(e):
                entered[e["actor"]] = finite(e["t"], "t")
        elif kind == "zod_exit":
            if is_subject(e) and e["actor"] in entered:
                zod_time += finite(e["t"], "t") - entered.pop(e["actor"])
    for t_in in entered.values():
        zod_time += end_time_s - t_in
    if stop_since is not None:
        stop_time += end_time_s - stop_since

    return KpiReport(
        ari_igg_s=_mean_gap(robot_cam_times),
        vw_ipg_s=_mean_gap(subject_cam_rx),
        cpm_latency_s=_mean(cpm_latencies),
        vw_zod_time_s=zod_time,
        ari_stop_time_s=stop_time,
        rsu_ipg_s=_mean_gap(sorted(rsu_rx_ts.values())),
        first_detect_distances_m=tuple(first_detects),
        n_msg_tx=n_tx,
        n_msg_rx=n_rx,
        n_detections=n_detections,
        n_stops=n_stops,
        n_relays=n_relays,
        zod_interval_open=bool(entered),
        stop_interval_open=stop_since is not None,
    )


def stop_lead_times(events: list[dict], subject_station: int | None = None) -> list[float]:
    """Lead time of each subject zone entry with a stop in force, in log order.

    The lead time is how much margin the intervention bought; the module
    docstring gives the rule and its ties.  Raises ValueError (by
    ``finite``) for a decision or entry time that is not a finite number.
    """
    decided: dict[str, list[float]] = {"stop": [], "pass": []}
    entries = []
    for e in events:
        kind = e["type"]
        if kind == "decision" and e["action"] in decided:
            decided[e["action"]].append(finite(e["t"], "t"))
        elif kind == "zod_enter" and (subject_station is None
                                      or e.get("station_id") == subject_station):
            entries.append(finite(e["t"], "t"))
    stops, passes = sorted(decided["stop"]), sorted(decided["pass"])
    leads = []
    for t_in in entries:
        i, j = bisect_right(stops, t_in), bisect_right(passes, t_in)
        if i and (not j or passes[j - 1] <= stops[i - 1]):
            leads.append(t_in - stops[i - 1])
    return leads
