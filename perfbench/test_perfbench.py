"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q``."""

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

from mergeguard import sim  # noqa: E402
from jobs import JobOutput, OutputCheck, OutputMismatch, execute  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, make_jobs, traffic_scenario  # noqa: E402

SCENARIO_DIR = BENCH_DIR.parent / "scenarios"


def small_traffic(seed: int, **overrides) -> dict:
    params = dict(name="small", n_vehicles=8, equipped_share=0.5, platoon_size=2,
                  headway_s=1.0, platoon_gap_s=4.0, first_arrival_s=-2.0,
                  duration_s=12.0, loss_prob=0.2, comm_range_m=150.0, rsu=True,
                  merging=True)
    params.update(overrides)
    return traffic_scenario(seed, **params)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_jobs_are_deterministic_and_valid(workload):
    a = make_jobs(workload, 5, SCENARIO_DIR)
    b = make_jobs(workload, 5, SCENARIO_DIR)
    c = make_jobs(workload, 6, SCENARIO_DIR)
    assert json.dumps(a) == json.dumps(b)
    assert json.dumps(a) != json.dumps(c)
    assert len({name for name, _ in a}) == len(a)
    for _, scenario in a:
        sim.scenario_from_dict(scenario)


def test_traffic_parameters_shape_the_scenario():
    all_on = small_traffic(3, equipped_share=1.0, rsu=False, merging=False)
    assert all(e["v2x_equipped"] for e in all_on["entities"])
    assert "rsu" not in all_on and all_on["merging_windows"] == []
    none = small_traffic(3, equipped_share=0.0)
    assert not any(e["v2x_equipped"] for e in none["entities"])
    assert none["rsu"]["denm"]["repeat_count"] == 2
    assert len(none["entities"]) == 8
    speeds = [e["trajectory"][0]["speed_mps"] for e in none["entities"]]
    assert sum(v > 0 for v in speeds) == sum(v < 0 for v in speeds) == 4


def test_tracing_leaves_the_log_byte_identical():
    scenario = small_traffic(4)
    plain = execute("small", scenario)
    originals = (sim.encode_message, sim.EventLog.append, sim.SensorModel.observe)
    tracer = Tracer()
    with tracer:
        traced = execute("small", scenario, tracer.span)
    assert traced.fingerprint == plain.fingerprint
    assert (sim.encode_message, sim.EventLog.append, sim.SensorModel.observe) == originals

    totals = tracer.totals()
    assert totals["messages.decode"][0] > totals["messages.encode"][0] > 0
    assert tracer.counts["sim.run.raw_calls"] > 60 * tracer.counts["sim.detections"] > 0
    # self times partition the spans the job opened around its stages
    assert all(self_s >= -1e-6 for _, self_s in totals.values())
    assert {"sim.scenario_from_dict", "sim.run", "sim.log_to_jsonl", "sim.log_from_jsonl",
            "kpi.compute", "kpi.stop_lead_times"} <= set(totals)
    assert sum(s for _, s in totals.values()) == pytest.approx(_root_span_seconds(tracer))


def _root_span_seconds(tracer: Tracer) -> float:
    return sum(end - start for start, end, parent in
               zip(tracer.start, tracer.end, tracer.parent) if parent < 0)


def test_output_check_catches_a_changed_job(tmp_path, monkeypatch):
    out = execute("pass", sim.make_pass_scenario(1, merging_offset_s=3.0))
    monkeypatch.setattr("jobs.EXPECTED_DIR", tmp_path)
    OutputCheck("demo", 1).record([out])

    OutputCheck("demo", 1).check(out)
    changed = JobOutput(**{**out.__dict__, "fingerprint": {**out.fingerprint,
                                                           "sha256": "0" * 64}})
    with pytest.raises(OutputMismatch):
        OutputCheck("demo", 1).check(changed)

    # after a deliberate log format bump only counts and KPIs are compared
    def bumped() -> OutputCheck:
        check = OutputCheck("demo", 1)
        check.log_format = sim.LOG_FORMAT_VERSION + 1
        return check

    bumped().check(changed)
    counts_changed = JobOutput(**{**out.__dict__, "fingerprint": {
        **out.fingerprint, "counts": {**out.fingerprint["counts"], "msg_tx": -1}}})
    with pytest.raises(OutputMismatch):
        bumped().check(counts_changed)


def test_output_check_catches_a_job_that_changes_between_repeats():
    out = execute("pass", sim.make_pass_scenario(2))
    check = OutputCheck("demo", 2)
    check.check(out)
    changed = JobOutput(**{**out.__dict__, "fingerprint": {**out.fingerprint,
                                                           "stop_leads": [1.0]}})
    with pytest.raises(OutputMismatch):
        check.check(changed)
