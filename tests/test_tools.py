"""The scripts under tools/."""

import importlib.util
import os
import pathlib
import re
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
AB_RUN = ROOT / "tools" / "ab_run.py"


def perfbench_module(name):
    """``perfbench/<name>.py``, imported from its file."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  ROOT / "perfbench" / f"{name}.py")
    spec.loader.exec_module(module := importlib.util.module_from_spec(spec))
    return module


def ab_run(tmp_path, a, b, *args):
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    out = subprocess.run([sys.executable, str(AB_RUN), str(a), str(b),
                          "--workload", "seed_sweep", "--seed", "1", *args],
                         capture_output=True, text=True, timeout=120,
                         env={**os.environ, "TMPDIR": str(tmp)})
    assert [p.name for p in tmp.iterdir()] == []
    return out


def test_ab_run_compares_this_checkout_with_itself(tmp_path):
    out = ab_run(tmp_path, ROOT, ROOT, "--rounds", "1", "--jobs", "2")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert "2 jobs, 1 rounds" in lines[0] and len(lines) == 13
    # sim.run, the writer, then the reader: each side's median, the speed-up
    # and the round wins, then the per-round speed-ups; with one round its
    # speed-up is the lowest, the median and the highest
    for stage, block in zip(("sim.run", "to_jsonl", "log_from_jsonl"),
                            (lines[1:5], lines[5:9], lines[9:13])):
        assert [line.split(" ")[0] for line in block] == [stage] * 4
        assert "rounds won: " in block[2] and block[2].endswith("of 1")
        assert re.fullmatch(rf"{stage} per-round B speed-up: lowest x(\d+\.\d{{4}}), "
                            r"median x\1, highest x\1", block[3]), block[3]


def test_ab_run_refuses_a_checkout_whose_log_differs(tmp_path):
    changed = tmp_path / "changed" / "src" / "mergeguard"
    shutil.copytree(ROOT / "src" / "mergeguard", changed,
                    ignore=shutil.ignore_patterns("__pycache__"))
    sim = changed / "sim.py"
    sim.write_text(sim.read_text().replace("LOG_FORMAT_VERSION = 1", "LOG_FORMAT_VERSION = 2"))
    out = ab_run(tmp_path, ROOT, changed.parent.parent, "--jobs", "1")
    assert out.returncode == 1
    assert out.stdout.splitlines()[-1].endswith("the JSONL logs of A and B differ")


def test_the_tracer_wraps_names_that_exist_and_sees_every_event():
    # installing the benchmark's tracer looks up every name it wraps, so a
    # renamed one raises KeyError here; every event must pass through
    # EventLog.append one by one, and observe must return every sighting
    from mergeguard import sim

    tracer_module, workloads = perfbench_module("tracer"), perfbench_module("workloads")
    scenario = sim.scenario_from_dict(workloads.traffic_scenario(
        3, name="cell", n_vehicles=8, equipped_share=0.5, platoon_size=2, headway_s=1.0,
        platoon_gap_s=4.0, first_arrival_s=-2.0, duration_s=12.0, loss_prob=0.2,
        comm_range_m=150.0, rsu=True, merging=True))
    with tracer_module.Tracer() as tracer:
        result = sim.run(scenario)
    detections = len(result.log.of_type("detection"))
    assert tracer.totals()["sim.append"][0] == len(result.log) > detections > 0
    assert tracer.counts["sim.detections"] == detections
