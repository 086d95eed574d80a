"""mergeguard benchmark: closed-loop jobs over one workload.

Usage, from the repository root::

    python3 perfbench/run.py --workload v2x_dense --seed 1 --seconds 30 --trace 0

One process, one thread: each job starts when the previous one ends.
A job validates a generated scenario, runs it, serialises the log to
JSONL, parses it back and extracts the KPIs (``workloads.py``,
``jobs.py``).  Every job's output is checked; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs a
prefix of the job list untraced and then the same jobs traced, and
reports per-layer metrics per traced job (``tracer.py``); the spans are
written to ``perfbench/out/``.  ``--record`` runs every job once and
stores its fingerprint under ``perfbench/expected/`` instead.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import resource
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SCENARIO_DIR = ROOT / "scenarios"

SETUP_REPEATS = 5
TRACE_UNTRACED_SHARE = 1 / 3  # of --seconds, spent on the untraced reference
P90_MIN_SAMPLES = 100  # ten samples above the 90th percentile
BLOCK_S = 0.5  # job time between two measurements of the speed probe
DEFAULT_SEED = 1
ANCHOR_JOBS = 2  # recorded jobs of the default seed re-checked by every run

if not (SRC / "mergeguard" / "__init__.py").is_file() or not SCENARIO_DIR.is_dir():
    sys.exit(f"error: no mergeguard source tree at {ROOT}; "
             "run the benchmark from a checkout of the repository")
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(BENCH_DIR))

import mergeguard  # noqa: E402
from jobs import JobOutput, OutputCheck, execute  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from workloads import WORKLOADS, make_jobs  # noqa: E402

if Path(mergeguard.__file__).resolve().parent != (SRC / "mergeguard").resolve():
    sys.exit(f"error: imported mergeguard from {mergeguard.__file__}, not from {SRC}")


def metric(value: float, unit: str, n: int) -> dict:
    """One reported value with its unit and sample count."""
    return {"value": value, "unit": unit, "n": n}


def run_metadata(seed: int) -> dict:
    import numpy
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        sha = ""
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((SRC / "mergeguard").glob("*.py")))
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "git_sha": sha or "unknown", "seed": seed,
            "src_lines": src_lines}


def _self_command(workload: str, seed: int, *flags: str) -> list[str]:
    return [sys.executable, str(Path(__file__).resolve()),
            "--workload", workload, "--seed", str(seed), *flags]


def measure_setup(workload: str, seed: int) -> list[float]:
    """Wall time of fresh interpreters that import and validate the workload."""
    cmd = _self_command(workload, seed, "--setup-only")
    probe = SpeedProbe()
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=120)
        times.append((time.perf_counter() - t0) * probe.factor())
    return times


def setup_only(workload: str, seed: int) -> None:
    for _, scenario in make_jobs(workload, seed, SCENARIO_DIR):
        mergeguard.scenario_from_dict(scenario)


def peak_mem_job(loop: "Loop", name: str) -> None:
    """Run one job in this fresh process and print its peak RSS in kB."""
    index = next(i for i, (job, _) in enumerate(loop.jobs) if job == name)
    if loop.one(index) is None:
        sys.exit(f"error: job {name} failed")
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


class Loop:
    """Runs jobs one after another and counts what fails."""

    def __init__(self, workload: str, seed: int):
        self.jobs = make_jobs(workload, seed, SCENARIO_DIR)
        self.check = OutputCheck(workload, seed)
        self.attempted = 0
        self.failed = 0

    def one(self, index: int, span=None) -> JobOutput | None:
        name, scenario = self.jobs[index % len(self.jobs)]
        self.attempted += 1
        try:
            out = execute(name, scenario) if span is None else execute(name, scenario, span)
            self.check.check(out)
        except Exception:  # noqa: BLE001 - a failed job is counted, not fatal
            self.failed += 1
            print(f"job {name} failed:\n{traceback.format_exc()}", file=sys.stderr)
            return None
        finally:
            gc.collect()
        return out

    def run(self, *, seconds: float | None = None, count: int | None = None,
            span=None) -> list[JobOutput]:
        """Jobs in list order until ``seconds`` have passed or ``count`` jobs ran.

        At least one job runs.  Jobs go in blocks of about ``BLOCK_S``;
        each job's ``scale`` comes from the speed probe around its block.
        """
        probe = SpeedProbe()
        outputs = []
        start = time.perf_counter()
        i = 0
        done = False
        while not done:
            block_start = time.perf_counter()
            block = []
            while True:
                out = self.one(i, span)
                i += 1
                if out is not None:
                    block.append(out)
                now = time.perf_counter()
                done = ((count is not None and i >= count)
                        or (seconds is not None and now - start >= seconds))
                if done or now - block_start >= BLOCK_S:
                    break
            scale = probe.factor()
            for out in block:
                out.scale = scale
            outputs += block
        return outputs


def percentiles(values: list[float]) -> tuple[float, float | None]:
    p50 = statistics.median(values)
    p90 = statistics.quantiles(values, n=10)[8] if len(values) >= P90_MIN_SAMPLES else None
    return p50, p90


def measure_peak_mem_kb(loop: Loop, workload: str, seed: int, name: str) -> int | None:
    """Peak RSS of a fresh interpreter that runs job ``name``; None if it failed."""
    proc = subprocess.run(_self_command(workload, seed, "--peak-mem-job", name),
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    loop.attempted += 1
    if proc.returncode != 0:
        loop.failed += 1
        print(f"peak-memory pass failed:\n{proc.stderr}", file=sys.stderr)
        return None
    return int(proc.stdout.split()[-1])


def end_to_end(loop: Loop, workload: str, seed: int,
               seconds: float) -> tuple[dict, list[JobOutput]]:
    setup = measure_setup(workload, seed)
    loop.one(0)  # warm-up: imports, caches and first-call costs stay untimed
    outputs = loop.run(seconds=seconds)
    if not outputs:
        return {}, outputs
    largest = max(outputs, key=lambda o: o.jsonl_bytes).name
    peak_kb = measure_peak_mem_kb(loop, workload, seed, largest)

    n = len(outputs)
    metrics = {
        "setup_s": metric(statistics.median(setup), "s", len(setup)),
        "sim_s_per_s": metric(
            sum(o.sim_s for o in outputs) / sum(o.run_s * o.scale for o in outputs),
            "sim-s/host-s", n),
    }
    for key in ("run_out_s", "report_s"):
        p50, p90 = percentiles([getattr(o, key) * o.scale for o in outputs])
        metrics[f"{key}_p50"] = metric(p50, "s", n)
        if p90 is not None:
            metrics[f"{key}_p90"] = metric(p90, "s", n)
        wall = key.replace("_s", "_wall_s")
        metrics[f"{wall}_p50"] = metric(statistics.median(getattr(o, key) for o in outputs),
                                        "s", n)
    if peak_kb is not None:
        metrics["peak_mem_mb"] = metric(peak_kb / 1e3, "MB", 1)
    return metrics, outputs


def per_layer(loop: Loop, workload: str, seed: int,
              seconds: float) -> tuple[dict, list[JobOutput]]:
    from tracer import Tracer

    loop.one(0)  # warm-up
    reference = loop.run(seconds=seconds * TRACE_UNTRACED_SHARE)
    n = len(reference)
    tracer = Tracer()
    first_attempt = loop.attempted + 1

    def span(name: str):
        tracer.job_id = loop.attempted - first_attempt  # = index into loop.jobs
        return tracer.span(name)

    with tracer:
        # every traced job repeats an untraced one, so the output check
        # also proves the wrappers transparent: same JSONL, byte for byte
        traced = loop.run(count=n, span=span)
    tracer.dump(OUT_DIR / f"spans-{workload}-{seed}.npz",
                [loop.jobs[i % len(loop.jobs)][0] for i in range(n)])
    if not traced:
        return {}, traced

    totals = tracer.totals()
    counts = tracer.counts
    jobs = len(traced)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    metrics = {}
    for name in ("messages.encode", "messages.decode", "channel.broadcast",
                 "sim.observe", "perception.ingest", "perception.assemble_cpm",
                 "fusion.fuse", "decision.step", "moderator.cam_tick",
                 "moderator.relay_denm", "sim.eval_trajectory", "sim.append"):
        calls, self_s = totals.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = metric(calls / jobs, "count", jobs)
        metrics[f"{name}.self_s"] = metric(self_s / jobs, "s", jobs)
    for name in ("sim.run", "sim.log_to_jsonl", "sim.log_from_jsonl", "kpi.compute",
                 "kpi.stop_lead_times", "sim.scenario_from_dict"):
        metrics[f"{name}.self_s"] = metric(totals[name][1] / jobs, "s", jobs)

    encodes = totals.get("messages.encode", (0, 0.0))[0]
    events = sum(sum(o.fingerprint["counts"].values()) for o in traced)
    msg_rx = sum(o.fingerprint["counts"].get("msg_rx", 0) for o in traced)
    raw_calls = counts["sim.run.raw_calls"]
    untraced_run_s = {o.name: o.run_s * o.scale for o in reference}
    extra = {
        "messages.encode.bytes": (counts["messages.encode.bytes"] / jobs, "B"),
        "messages.decode_per_encode": (
            ratio(totals.get("messages.decode", (0, 0.0))[0], encodes), "ratio"),
        "channel.receivers_offered": (counts["channel.receivers_offered"] / jobs, "count"),
        "channel.delivered_frac": (
            ratio(counts["channel.delivered"], counts["channel.receivers_offered"]), "ratio"),
        "sim.detections": (counts["sim.detections"] / jobs, "count"),
        "calibration.raw.calls": (raw_calls / jobs, "count"),
        "calibration.raw_per_detection": (ratio(raw_calls, counts["sim.detections"]), "ratio"),
        "perception.cpm_objects_mean": (
            ratio(counts["perception.cpm_objects"],
                  totals.get("perception.assemble_cpm", (0, 0.0))[0]), "count"),
        "fusion.camera_in": (counts["fusion.camera_in"] / jobs, "count"),
        "fusion.camera_kept_frac": (
            ratio(counts["fusion.camera_kept"], counts["fusion.camera_in"]), "ratio"),
        "decision.stops": (counts["decision.stops"] / jobs, "count"),
        "moderator.relayed_frac": (
            ratio(counts["moderator.relayed"],
                  totals.get("moderator.relay_denm", (0, 0.0))[0]), "ratio"),
        "sim.events": (events / jobs, "count"),
        "sim.msg_rx_frac": (ratio(msg_rx, events), "ratio"),
        "sim.jsonl_bytes": (sum(o.jsonl_bytes for o in traced) / jobs, "B"),
        "trace.overhead_frac": (
            ratio(sum(o.run_s * o.scale for o in traced),
                  sum(untraced_run_s[o.name] for o in traced)) - 1, "ratio"),
    }
    for name, (value, unit) in extra.items():
        metrics[name] = metric(value, unit, jobs)
    return metrics, traced


def record(loop: Loop) -> None:
    outputs = [loop.one(i) for i in range(len(loop.jobs))]
    if loop.failed:
        sys.exit(f"error: {loop.failed} jobs failed; nothing recorded")
    loop.check.record(outputs)
    print(f"recorded {len(outputs)} jobs to {loop.check.path}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store the fingerprint of every job for this seed")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--peak-mem-job", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_only:
        setup_only(args.workload, args.seed)
        return 0
    loop = Loop(args.workload, args.seed)
    if args.record:
        record(loop)
        return 0
    if args.peak_mem_job:
        peak_mem_job(loop, args.peak_mem_job)
        return 0

    meta = run_metadata(args.seed)
    collect = per_layer if args.trace else end_to_end
    metrics, outputs = collect(loop, args.workload, args.seed, args.seconds)
    if args.seed != DEFAULT_SEED:
        # outputs of other seeds are checked for consistency only; these
        # jobs are compared with the recorded fingerprints as well
        anchor = Loop(args.workload, DEFAULT_SEED)
        for i in range(ANCHOR_JOBS):
            anchor.one(i)
        loop.attempted += anchor.attempted
        loop.failed += anchor.failed
    metrics["failed_frac"] = metric(loop.failed / loop.attempted, "ratio", loop.attempted)
    samples = [{"job": o.name, "run_out_s": o.run_out_s, "report_s": o.report_s,
                "scale": o.scale} for o in outputs]
    result = {"workload": args.workload, "trace": args.trace, "meta": meta,
              "attempted": loop.attempted, "failed": loop.failed, "metrics": metrics,
              "samples": samples}
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n")

    print("meta " + json.dumps(meta))
    for name, m in metrics.items():
        print(f"{name:38s} {m['value']:>14.6g} {m['unit']:<13s} n={m['n']}")
    # the last line carries only the metrics named in BENCHMARK.json
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    summary = {
        "correct": loop.failed == 0 and all(name in metrics for name in wanted),
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": metrics[name]["value"], "unit": metrics[name]["unit"]}
                    for name in wanted if name in metrics},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
