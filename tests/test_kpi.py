"""KPI extraction from event logs, on synthetic streams and stored runs."""

import json
import math
import pathlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mergeguard.kpi import KpiReport, compute, stop_lead_times
from mergeguard.sim import load_scenario, log_from_jsonl, run

SCENARIO_DIR = pathlib.Path(__file__).resolve().parent.parent / "scenarios"


def ev(t, etype, actor="robot", **payload):
    return {"t": t, "type": etype, "actor": actor, **payload}


def cam_rx(t, station, latency=0.012):
    return ev(t, "msg_rx", "robot", msg_type="CAM", from_station=station,
              timestamp_ms=int(t * 1000), latency_s=latency)


class TestMeanGaps:
    def test_robot_cam_generation_gap(self):
        events = [ev(t, "cam_gen", "robot") for t in (0.0, 1.1, 2.3)]
        assert compute(events).ari_igg_s == pytest.approx(2.3 / 2)

    def test_vehicle_cams_from_other_actors_ignored(self):
        events = [ev(0.0, "cam_gen", "robot"), ev(0.5, "cam_gen", "veh0"),
                  ev(1.0, "cam_gen", "robot")]
        assert compute(events).ari_igg_s == pytest.approx(1.0)

    def test_single_event_gives_nan(self):
        r = compute([ev(0.0, "cam_gen", "robot")])
        assert math.isnan(r.ari_igg_s)

    def test_subject_cam_reception_gap(self):
        events = [cam_rx(1.0, 7), cam_rx(1.5, 7), cam_rx(2.1, 7)]
        assert compute(events, subject_station=7).vw_ipg_s == pytest.approx(0.55)

    def test_subject_filter_excludes_other_stations(self):
        events = [cam_rx(1.0, 7), cam_rx(1.2, 9), cam_rx(2.0, 7)]
        assert compute(events, subject_station=7).vw_ipg_s == pytest.approx(1.0)
        # without a subject, every CAM reception counts
        assert compute(events).vw_ipg_s == pytest.approx(0.5)

    def test_cpm_latency_is_a_plain_mean(self):
        events = [ev(1.0, "msg_rx", "robot", msg_type="CPM", latency_s=1.30),
                  ev(2.0, "msg_rx", "robot", msg_type="CPM", latency_s=1.28)]
        assert compute(events).cpm_latency_s == pytest.approx(1.29)


class TestIntervals:
    def test_zone_occupancy_from_enter_exit_pairs(self):
        events = [ev(2.0, "zod_enter", "veh0", station_id=7),
                  ev(5.0, "zod_exit", "veh0", station_id=7)]
        r = compute(events)
        assert r.vw_zod_time_s == pytest.approx(3.0)
        assert not r.zod_interval_open

    def test_open_zone_interval_closed_at_end(self):
        events = [ev(8.0, "zod_enter", "veh0", station_id=7)]
        r = compute(events, end_time_s=10.0)
        assert r.vw_zod_time_s == pytest.approx(2.0)
        assert r.zod_interval_open

    def test_zone_occupancy_sums_per_actor(self):
        events = [ev(1.0, "zod_enter", "veh0", station_id=7),
                  ev(2.0, "zod_enter", "veh1", station_id=9),
                  ev(3.0, "zod_exit", "veh0", station_id=7),
                  ev(6.0, "zod_exit", "veh1", station_id=9)]
        assert compute(events).vw_zod_time_s == pytest.approx(2.0 + 4.0)

    def test_stop_interval(self):
        events = [ev(0.0, "decision", action="pass"),
                  ev(1.0, "decision", action="stop"),
                  ev(4.0, "decision", action="pass")]
        r = compute(events)
        assert r.ari_stop_time_s == pytest.approx(3.0)
        assert r.n_stops == 1 and not r.stop_interval_open

    def test_open_stop_interval_closed_at_end(self):
        events = [ev(5.0, "decision", action="stop")]
        r = compute(events, end_time_s=9.0)
        assert r.ari_stop_time_s == pytest.approx(4.0)
        assert r.stop_interval_open

    def test_end_time_defaults_to_last_event(self):
        events = [ev(5.0, "decision", action="stop"),
                  ev(7.5, "cam_gen", "robot")]
        assert compute(events).ari_stop_time_s == pytest.approx(2.5)


class TestRsuGap:
    def denm_rx(self, t, ts_ms, seq, hop=0, dup=False):
        return ev(t, "msg_rx", "robot", msg_type="DENM", from_station=200,
                  timestamp_ms=ts_ms, latency_s=0.012, origin=200,
                  sequence=seq, hop_count=hop, duplicate=dup)

    def test_gap_uses_generation_timestamps(self):
        events = [self.denm_rx(0.01, 0, 0), self.denm_rx(0.55, 522, 1),
                  self.denm_rx(1.06, 1044, 2)]
        assert compute(events).rsu_ipg_s == pytest.approx(0.522)

    def test_duplicates_and_relays_ignored(self):
        events = [self.denm_rx(0.01, 0, 0),
                  self.denm_rx(0.11, 0, 0, dup=True),     # repeat copy
                  self.denm_rx(0.12, 0, 0, hop=1),        # relayed copy
                  self.denm_rx(1.01, 1000, 1)]
        assert compute(events).rsu_ipg_s == pytest.approx(1.0)


class TestCountsAndDetections:
    def test_counts(self):
        events = [ev(0.0, "msg_tx", "rsu", msg_type="DENM"),
                  ev(0.01, "msg_rx", "robot", msg_type="DENM", origin=200,
                     sequence=0, hop_count=0, duplicate=False, timestamp_ms=0),
                  ev(0.01, "denm_relay", "robot"),
                  ev(0.5, "detection", "infra", cam_distance_m=96.0, first=True)]
        r = compute(events)
        assert (r.n_msg_tx, r.n_msg_rx, r.n_detections, r.n_relays) == (1, 1, 1, 1)

    def test_first_detection_distances(self):
        events = [ev(0.0, "detection", "infra", cam_distance_m=110.0,
                     station_id=0, first=True),
                  ev(0.05, "detection", "infra", cam_distance_m=109.5,
                     station_id=0, first=False)]
        assert compute(events).first_detect_distances_m == (110.0,)


class TestSerialization:
    def test_nan_becomes_null_in_json(self):
        d = compute([]).to_json_dict()
        assert d["ari_igg_s"] is None
        json.dumps(d)  # must be serializable as-is

    def test_csv_shape(self):
        events = [ev(t, "cam_gen", "robot") for t in (0.0, 1.0)]
        csv = compute(events).to_csv()
        lines = csv.strip().splitlines()
        assert lines[0] == "Metric,Value"
        row = dict(ln.split(",", 1) for ln in lines[1:])
        assert row["ari_igg_s"] == "1.000000"
        assert row["n_msg_tx"] == "0"
        assert row["vw_ipg_s"] == ""  # nan prints as empty, not "nan"

    def test_csv_joins_lists_with_semicolons(self):
        events = [ev(0.0, "detection", "infra", cam_distance_m=1.0, first=True),
                  ev(0.1, "detection", "infra", cam_distance_m=2.0, first=True)]
        csv = compute(events).to_csv()
        assert "first_detect_distances_m,1.000000;2.000000" in csv


class TestStopLeadTimes:
    def test_lead_is_entry_minus_stop(self):
        events = [ev(4.8, "decision", action="stop"),
                  ev(9.5, "zod_enter", "veh0", station_id=0),
                  ev(16.2, "decision", action="pass")]
        assert stop_lead_times(events) == [pytest.approx(4.7)]

    def test_entry_without_standing_stop_has_no_lead(self):
        events = [ev(1.0, "decision", action="stop"),
                  ev(2.0, "decision", action="pass"),
                  ev(9.5, "zod_enter", "veh0", station_id=0)]
        assert stop_lead_times(events) == []

    def test_subject_filter(self):
        events = [ev(1.0, "decision", action="stop"),
                  ev(2.0, "zod_enter", "veh0", station_id=7),
                  ev(3.0, "zod_enter", "veh1", station_id=9)]
        assert stop_lead_times(events, subject_station=7) == [pytest.approx(1.0)]

    def test_stop_at_entry_time_logged_after_it_gives_zero_lead(self):
        events = [ev(3.0, "zod_enter", "veh0", station_id=0),
                  ev(3.0, "decision", action="stop")]
        assert stop_lead_times(events) == [0.0]

    def test_pass_at_entry_time_cancels_the_stop(self):
        events = [ev(1.0, "decision", action="stop"),
                  ev(3.0, "decision", action="pass"),
                  ev(3.0, "zod_enter", "veh0", station_id=0)]
        assert stop_lead_times(events) == []

    def test_pass_at_stop_time_does_not_cancel_it(self):
        events = [ev(1.0, "decision", action="stop"),
                  ev(1.0, "decision", action="pass"),
                  ev(3.0, "zod_enter", "veh0", station_id=0)]
        assert stop_lead_times(events) == [2.0]

    @pytest.mark.parametrize("t", [True, "3.0", None, math.inf, math.nan, 10 ** 400])
    @pytest.mark.parametrize("at", [0, 1], ids=["decision", "entry"])
    def test_time_that_is_not_a_finite_number(self, at, t):
        events = [ev(1.0, "decision", action="stop"),
                  ev(3.0, "zod_enter", "veh0", station_id=0)]
        events[at]["t"] = t
        with pytest.raises(ValueError, match="^t is not a finite number: "):
            stop_lead_times(events)


class TestAgainstStoredRun:
    def test_replayed_log_reproduces_live_report(self):
        sc = load_scenario(SCENARIO_DIR / "rotterdam_run.json")
        res = run(sc)
        live = compute(res.log.events, subject_station=7, end_time_s=sc.duration_s)
        _, replay_events = log_from_jsonl(res.to_jsonl())
        replay = compute(replay_events, subject_station=7, end_time_s=sc.duration_s)
        assert replay == live

    def test_tracked_run_headline_numbers(self):
        sc = load_scenario(SCENARIO_DIR / "rotterdam_run.json")
        r = compute(run(sc).log.events, subject_station=7, end_time_s=sc.duration_s)
        assert r.ari_igg_s == pytest.approx(1.1167, abs=0.02)
        assert r.vw_ipg_s == pytest.approx(0.5, abs=0.01)
        assert r.cpm_latency_s == pytest.approx(1.30, abs=0.01)
        assert r.vw_zod_time_s == pytest.approx(10.70, abs=0.01)
        assert r.ari_stop_time_s == pytest.approx(13.0, abs=0.01)
        assert not r.zod_interval_open and not r.stop_interval_open


# ---------------------------------------------------------------------------
# Reference implementations: the multi-pass extraction that the single-pass
# one replaced, kept verbatim so every log can be checked against it.


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else math.nan

def _mean_gap(times: list[float]) -> float:
    if len(times) < 2:
        return math.nan
    return (times[-1] - times[0]) / (len(times) - 1)


def reference_compute(events: list[dict], *, subject_station: int | None = None,
                      end_time_s: float | None = None) -> KpiReport:
    if end_time_s is None:
        end_time_s = events[-1]["t"] if events else 0.0

    def is_subject(ev: dict, key: str = "station_id") -> bool:
        return subject_station is None or ev.get(key) == subject_station

    robot_cam_times = [e["t"] for e in events
                       if e["type"] == "cam_gen" and e["actor"] == "robot"]

    subject_cam_rx = [e["t"] for e in events
                      if e["type"] == "msg_rx" and e["actor"] == "robot"
                      and e["msg_type"] == "CAM" and is_subject(e, "from_station")]

    cpm_latencies = [e["latency_s"] for e in events
                     if e["type"] == "msg_rx" and e["actor"] == "robot"
                     and e["msg_type"] == "CPM"]

    # ground-truth zone occupancy of the subject
    zod_time = 0.0
    zod_open = False
    entered: dict[str, float] = {}
    for e in events:
        if e["type"] == "zod_enter" and is_subject(e):
            entered[e["actor"]] = e["t"]
        elif e["type"] == "zod_exit" and is_subject(e) and e["actor"] in entered:
            zod_time += e["t"] - entered.pop(e["actor"])
    for t_in in entered.values():
        zod_time += end_time_s - t_in
        zod_open = True

    # DANGER intervals from decision transitions
    stop_time = 0.0
    stop_open = False
    n_stops = 0
    stop_since: float | None = None
    for e in events:
        if e["type"] != "decision":
            continue
        if e["action"] == "stop" and stop_since is None:
            stop_since = e["t"]
            n_stops += 1
        elif e["action"] == "pass" and stop_since is not None:
            stop_time += e["t"] - stop_since
            stop_since = None
    if stop_since is not None:
        stop_time += end_time_s - stop_since
        stop_open = True

    # distinct RSU notifications as seen by the robot: first copies only
    rsu_rx_ts = {}
    for e in events:
        if (e["type"] == "msg_rx" and e["actor"] == "robot"
                and e["msg_type"] == "DENM" and e.get("hop_count") == 0
                and not e.get("duplicate", False)):
            rsu_rx_ts[(e["origin"], e["sequence"])] = e["timestamp_ms"] / 1000.0
    rsu_times = sorted(rsu_rx_ts.values())

    first_detects = tuple(e["cam_distance_m"] for e in events
                          if e["type"] == "detection" and e.get("first")
                          and is_subject(e))

    return KpiReport(
        ari_igg_s=_mean_gap(robot_cam_times),
        vw_ipg_s=_mean_gap(subject_cam_rx),
        cpm_latency_s=_mean(cpm_latencies),
        vw_zod_time_s=zod_time,
        ari_stop_time_s=stop_time,
        rsu_ipg_s=_mean_gap(rsu_times),
        first_detect_distances_m=first_detects,
        n_msg_tx=sum(1 for e in events if e["type"] == "msg_tx"),
        n_msg_rx=sum(1 for e in events if e["type"] == "msg_rx"),
        n_detections=sum(1 for e in events if e["type"] == "detection"),
        n_stops=n_stops,
        n_relays=sum(1 for e in events if e["type"] == "denm_relay"),
        zod_interval_open=zod_open,
        stop_interval_open=stop_open,
    )


def reference_json_dict(self) -> dict:
    def scrub(v):
        if isinstance(v, float) and math.isnan(v):
            return None
        return v
    out = {
        "ari_igg_s": scrub(self.ari_igg_s),
        "vw_ipg_s": scrub(self.vw_ipg_s),
        "cpm_latency_s": scrub(self.cpm_latency_s),
        "vw_zod_time_s": scrub(self.vw_zod_time_s),
        "ari_stop_time_s": scrub(self.ari_stop_time_s),
        "rsu_ipg_s": scrub(self.rsu_ipg_s),
        "first_detect_distances_m": list(self.first_detect_distances_m),
        "n_msg_tx": self.n_msg_tx,
        "n_msg_rx": self.n_msg_rx,
        "n_detections": self.n_detections,
        "n_stops": self.n_stops,
        "n_relays": self.n_relays,
        "zod_interval_open": self.zod_interval_open,
        "stop_interval_open": self.stop_interval_open,
    }
    return out


def brute_force_stop_lead_times(events: list[dict],
                                subject_station: int | None = None) -> list[float]:
    stops = [e["t"] for e in events if e["type"] == "decision" and e["action"] == "stop"]
    passes = [e["t"] for e in events if e["type"] == "decision" and e["action"] == "pass"]
    leads = []
    for e in events:
        if e["type"] != "zod_enter":
            continue
        if subject_station is not None and e.get("station_id") != subject_station:
            continue
        t_in = e["t"]
        active = [t for t in stops if t <= t_in
                  and not any(t < p <= t_in for p in passes)]
        if active:
            leads.append(t_in - active[-1])
    return leads


STATIONS = st.sampled_from([0, 7, 9])
ACTORS = st.sampled_from(["robot", "veh0", "veh1"])
KINDS = ("decision", "zod_enter", "zod_exit", "msg_rx", "msg_rx", "cam_gen",
         "detection", "denm_relay", "msg_tx")


@st.composite
def time_ordered_logs(draw):
    """Engine-shaped events whose times never decrease and often repeat."""
    t, events = 0.0, []
    for _ in range(draw(st.integers(0, 40))):
        t += draw(st.sampled_from([0.0, 0.0, 0.05, 0.1, 0.35, 1.0]))
        kind = draw(st.sampled_from(KINDS))
        if kind == "decision":
            e = ev(t, kind, action=draw(st.sampled_from(["stop", "hold", "pass"])))
        elif kind in ("zod_enter", "zod_exit"):
            e = ev(t, kind, draw(st.sampled_from(["veh0", "veh1", "veh2"])),
                   station_id=draw(STATIONS))
        elif kind == "msg_rx":
            msg_type = draw(st.sampled_from(["CAM", "CPM", "DENM"]))
            e = ev(t, kind, draw(ACTORS), msg_type=msg_type, from_station=draw(STATIONS),
                   timestamp_ms=draw(st.integers(0, 5000)),
                   latency_s=draw(st.floats(0.001, 2.0)))
            if msg_type == "DENM":
                e.update(origin=draw(st.sampled_from([200, 201])),
                         sequence=draw(st.integers(0, 3)), hop_count=draw(st.integers(0, 1)),
                         duplicate=draw(st.booleans()))
        elif kind == "detection":
            e = ev(t, kind, "infra", station_id=draw(STATIONS), first=draw(st.booleans()),
                   cam_distance_m=draw(st.floats(5.0, 130.0)))
        else:
            e = ev(t, kind, draw(ACTORS))
        events.append(e)
    return events


class TestParityWithReference:
    @given(events=time_ordered_logs(), subject=st.sampled_from([None, 7]),
           end_time_s=st.one_of(st.none(), st.floats(0.0, 60.0)))
    def test_compute_matches_reference(self, events, subject, end_time_s):
        got = compute(events, subject_station=subject, end_time_s=end_time_s)
        want = reference_compute(events, subject_station=subject, end_time_s=end_time_s)
        assert repr(got) == repr(want)  # repr tells NaN and every float bit apart
        assert repr(got.to_json_dict()) == repr(reference_json_dict(want))

    @given(events=time_ordered_logs(), subject=st.sampled_from([None, 7]))
    def test_stop_lead_times_match_brute_force(self, events, subject):
        assert (stop_lead_times(events, subject_station=subject)
                == brute_force_stop_lead_times(events, subject_station=subject))
