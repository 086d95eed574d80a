"""One benchmark job and the check of its outputs.

A job does in memory what ``mergeguard run --out`` followed by
``mergeguard report`` does on disk: validate the scenario, run it,
serialise the log to JSONL, parse it back and extract the KPIs.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from mergeguard import kpi, sim

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"


@dataclass
class JobOutput:
    name: str
    sim_s: float
    run_s: float       # sim.run alone
    run_out_s: float   # sim.run + to_jsonl
    report_s: float    # log_from_jsonl + compute + stop_lead_times
    jsonl_bytes: int
    fingerprint: dict  # what the output check compares
    scale: float = 1.0  # machine-speed normalisation, see speed.py


def _no_span(name: str):
    return contextlib.nullcontext()


def execute(name: str, scenario_dict: dict, span=_no_span) -> JobOutput:
    """Run one job; ``span(name)`` brackets each stage when tracing."""
    clock = time.perf_counter
    with span("sim.scenario_from_dict"):
        scenario = sim.scenario_from_dict(scenario_dict)
    t0 = clock()
    with span("sim.run"):
        result = sim.run(scenario)
    t1 = clock()
    with span("sim.log_to_jsonl"):
        text = result.to_jsonl()
    t2 = clock()
    with span("sim.log_from_jsonl"):
        header, events = sim.log_from_jsonl(text)
    with span("kpi.compute"):
        report = kpi.compute(events, end_time_s=header.get("duration_s"))
    with span("kpi.stop_lead_times"):
        leads = kpi.stop_lead_times(events)
    t3 = clock()

    _check_consistent(result, header, events, report, leads)
    fingerprint = {
        "counts": dict(sorted(Counter(e["type"] for e in events).items())),
        "kpi": json.loads(json.dumps(report.to_json_dict())),
        "stop_leads": leads,
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
    }
    return JobOutput(name=name, sim_s=scenario.duration_s, run_s=t1 - t0,
                     run_out_s=t2 - t0, report_s=t3 - t2,
                     jsonl_bytes=len(text), fingerprint=fingerprint)


class OutputMismatch(Exception):
    pass


def _require(cond: bool, why: str) -> None:
    if not cond:
        raise OutputMismatch(why)


def _check_consistent(result, header, events, report, leads) -> None:
    """Checks that hold for every job, recorded or not."""
    _require(header == result.header, "JSONL header does not round-trip")
    _require(events == result.log.events, "JSONL events do not round-trip")
    _require(header["log_format"] == sim.LOG_FORMAT_VERSION, "wrong log_format")
    counts = Counter(e["type"] for e in events)
    _require(set(counts) <= sim.EVENT_TYPES, f"unknown event types {set(counts)}")
    _require(report.n_msg_tx == counts["msg_tx"], "n_msg_tx disagrees with the log")
    _require(report.n_msg_rx == counts["msg_rx"], "n_msg_rx disagrees with the log")
    _require(report.n_detections == counts["detection"],
             "n_detections disagrees with the log")
    _require(report.n_relays == counts["denm_relay"], "n_relays disagrees with the log")
    _require(report.n_stops <= counts["decision"], "more stops than decisions")
    _require(all(lead >= 0.0 for lead in leads), "negative stop lead time")


class OutputCheck:
    """Compares each job with its recorded fingerprint and with its own repeats.

    The recorded fingerprints (``expected/<workload>-<seed>.json``) cover
    the shipped seeds.  The JSONL digest is compared only while
    ``LOG_FORMAT_VERSION`` equals the recorded one, so a deliberate log
    format bump is still checked on event counts and KPIs.
    """

    def __init__(self, workload: str, seed: int):
        self.path = EXPECTED_DIR / f"{workload}-{seed}.json"
        self.recorded: dict = {}
        self.log_format = None
        if self.path.exists():
            data = json.loads(self.path.read_text())
            self.recorded = data["jobs"]
            self.log_format = data["log_format"]
        self.seen: dict[str, dict] = {}

    def check(self, out: JobOutput) -> None:
        first = self.seen.setdefault(out.name, out.fingerprint)
        _require(first == out.fingerprint, f"{out.name}: output differs between repeats")
        want = self.recorded.get(out.name)
        if want is None:
            return
        for key in ("counts", "kpi", "stop_leads"):
            _require(want[key] == out.fingerprint[key],
                     f"{out.name}: {key} differ from {self.path.name}")
        if self.log_format == sim.LOG_FORMAT_VERSION:
            _require(want["sha256"] == out.fingerprint["sha256"],
                     f"{out.name}: JSONL digest differs from {self.path.name}")

    def record(self, outputs: list[JobOutput]) -> None:
        jobs = ",\n".join(f"  {json.dumps(o.name)}: {json.dumps(o.fingerprint, sort_keys=True)}"
                          for o in sorted(outputs, key=lambda o: o.name))
        self.path.parent.mkdir(exist_ok=True)
        self.path.write_text(f'{{"log_format": {sim.LOG_FORMAT_VERSION}, "jobs": {{\n'
                             f"{jobs}\n}}}}\n")
