"""Compare the CPU time of ``sim.run``, of writing its log (``to_jsonl``) and
of reading it back (``log_from_jsonl``) between two checkouts on one
benchmark workload.

    python3 tools/ab_run.py A B --workload W [--seed S] [--rounds R] [--jobs N]

A and B are checkout roots.  Each one's ``src/mergeguard`` is copied into
a temporary directory and imported from there under its own package name
(``mergeguard_a``, ``mergeguard_b``), so both run in one interpreter; the
directory is removed on exit.  The jobs are the first N of the workload,
built by this checkout's ``perfbench/workloads.py`` with side A's
``make_pass_scenario``.

First every job must give the same JSONL on both sides; if one does not,
the script names the first such job and exits 1.  Then each round runs
every job on both sides, job by job, alternating which side goes first,
and sums each side's CPU seconds in ``sim.run``, in ``to_jsonl`` of its
result and in ``log_from_jsonl`` of that text.  For each of the three,
it prints each side's median over the rounds, the speed-up of B with A's
median as its base, and how many rounds each side won; then the lowest,
median and highest of the rounds' own B speed-ups (A's time over B's),
the width a verdict near a bar must be read with.
"""

from __future__ import annotations

import argparse
import importlib.util
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("a", "b")


def load_package(checkout: Path, name: str, into: Path):
    """``checkout``'s ``src/mergeguard``, imported as package ``name`` from ``into``."""
    source = checkout / "src" / "mergeguard"
    if not (source / "__init__.py").is_file():
        raise SystemExit(f"error: {checkout}: no src/mergeguard package")
    shutil.copytree(source, into / name, ignore=shutil.ignore_patterns("__pycache__"))
    importlib.import_module(name)
    return importlib.import_module(f"{name}.sim")


def load_workloads(sim):
    """This checkout's ``perfbench/workloads.py``, reading ``make_pass_scenario``
    from ``sim``: it imports ``mergeguard.sim``, which names no package here."""
    spec = importlib.util.spec_from_file_location("ab_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules["mergeguard"], sys.modules["mergeguard.sim"] = sys.modules[sim.__package__], sim
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules["mergeguard"], sys.modules["mergeguard.sim"]
    return module


STAGES = ("sim.run", "to_jsonl", "log_from_jsonl")


def cpu_seconds(sim, scenario) -> tuple[float, float, float]:
    """CPU seconds of ``sim.run`` of ``scenario``, of writing its log and of
    reading the log back."""
    start = time.process_time()
    result = sim.run(scenario)
    ran = time.process_time()
    text = result.to_jsonl()
    wrote = time.process_time()
    sim.log_from_jsonl(text)
    return ran - start, wrote - ran, time.process_time() - wrote


def summarise(stage: str, totals: dict, jobs: int, rounds: int) -> None:
    medians = {side: statistics.median(totals[side]) for side in SIDES}
    b_won = sum(b < a for a, b in zip(totals["a"], totals["b"]))
    a_won = sum(a < b for a, b in zip(totals["a"], totals["b"]))
    for side in SIDES:
        print(f"{stage} {side.upper()}: median {medians[side]:.6f} s CPU per round "
              f"of {jobs} jobs")
    print(f"{stage} B speed-up: x{medians['a'] / medians['b']:.4f} (base: A's median); "
          f"rounds won: B {b_won}, A {a_won}, of {rounds}")
    per_round = sorted(a / b for a, b in zip(totals["a"], totals["b"]))
    print(f"{stage} per-round B speed-up: lowest x{per_round[0]:.4f}, "
          f"median x{statistics.median(per_round):.4f}, highest x{per_round[-1]:.4f}")


def compare(sims: dict, jobs: list, rounds: int) -> int:
    scenarios = {side: [sim.scenario_from_dict(obj) for _, obj in jobs]
                 for side, sim in sims.items()}
    for k, (name, _) in enumerate(jobs):
        logs = {side: sims[side].run(scenarios[side][k]).to_jsonl() for side in SIDES}
        if logs["a"] != logs["b"]:
            print(f"job {name}: the JSONL logs of A and B differ")
            return 1
    totals = {stage: {side: [] for side in SIDES} for stage in STAGES}
    for r in range(rounds):
        spent = {side: [0.0] * len(STAGES) for side in SIDES}
        for k in range(len(jobs)):
            for side in (SIDES if (r + k) % 2 == 0 else SIDES[::-1]):
                for i, seconds in enumerate(cpu_seconds(sims[side], scenarios[side][k])):
                    spent[side][i] += seconds
        for side in SIDES:
            for stage, seconds in zip(STAGES, spent[side]):
                totals[stage][side].append(seconds)
    for stage in STAGES:
        summarise(stage, totals[stage], len(jobs), rounds)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="base checkout root")
    parser.add_argument("b", type=Path, help="changed checkout root")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=7)
    parser.add_argument("--jobs", type=int, default=None, help="first N jobs (default: all)")
    args = parser.parse_args(argv)
    if args.rounds < 1 or (args.jobs is not None and args.jobs < 1):
        parser.error("--rounds and --jobs must be positive")
    sys.dont_write_bytecode = True  # leave no __pycache__ in either checkout
    with tempfile.TemporaryDirectory(prefix="ab_run_") as tmp:
        sys.path.insert(0, tmp)
        try:
            sims = {side: load_package(checkout.resolve(), f"mergeguard_{side}", Path(tmp))
                    for side, checkout in zip(SIDES, (args.a, args.b))}
            workloads = load_workloads(sims["a"])
            if args.workload not in workloads.WORKLOADS:
                parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
            jobs = workloads.make_jobs(args.workload, args.seed, ROOT / "scenarios")
            print(f"workload {args.workload}, seed {args.seed}, "
                  f"{len(jobs[:args.jobs])} jobs, {args.rounds} rounds")
            return compare(sims, jobs[:args.jobs], args.rounds)
        finally:
            sys.path.remove(tmp)


if __name__ == "__main__":
    sys.exit(main())
