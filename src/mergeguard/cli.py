"""Command-line front end.

Subcommands:

    run        execute one scenario, write the event log as JSONL
    batch      run every scenario in a directory
    report     distill KPIs out of a stored event log
    calibrate  fit a distance polynomial to a (pixel, meter) CSV
    validate   schema-check scenario files without running them

Exit codes: 0 success, 1 validation/content failure, 2 I/O failure.
Scenario paths that do not resolve directly are retried inside
$MERGEGUARD_SCENARIO_DIR when it is set.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import kpi, sim
from .calibration import CalibrationError, fit, load_calibration_csv

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_IO = 2


def _resolve_scenario(path_str: str) -> Path:
    path = Path(path_str)
    if not path.exists():
        env_dir = os.environ.get("MERGEGUARD_SCENARIO_DIR")
        if env_dir:
            candidate = Path(env_dir) / path_str
            if candidate.exists():
                return candidate
    return path


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _scenario_fail(where, exc: sim.ScenarioError) -> int:
    return _fail(f"{where}: {exc}", EXIT_INVALID)


def _seed_error(seed: int | None) -> str | None:
    """Why ``sim.run`` would refuse the ``--seed`` given, or None."""
    try:
        if seed is not None:
            sim.check_seed(seed)
    except ValueError as exc:
        return str(exc)
    return None


def _cmd_run(args) -> int:
    bad_seed = _seed_error(args.seed)
    if bad_seed:
        return _fail(bad_seed, EXIT_INVALID)
    path = _resolve_scenario(args.scenario)
    try:
        scenario = sim.load_scenario(path)
    except sim.ScenarioError as exc:
        return _scenario_fail(path, exc)
    result = sim.run(scenario, seed=args.seed)
    text = result.to_jsonl()
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    if args.series is not None:
        _write_series(Path(args.series), sim.series(scenario, result.log.events))
    print(f"{scenario.name}: {len(result.log)} events, "
          f"seed {result.header['seed']}", file=sys.stderr)
    return EXIT_OK


def _write_series(path: Path, rows: list[dict]) -> None:
    cols = list(rows[0].keys())
    lines = [",".join(cols)]
    lines += [",".join(str(row[c]) for c in cols) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def _cmd_batch(args) -> int:
    bad_seed = _seed_error(args.seed)
    if bad_seed:
        return _fail(bad_seed, EXIT_INVALID)
    directory = Path(args.dir)
    if not directory.is_dir():
        return _fail(f"not a directory: {directory}", EXIT_IO)
    paths = sorted(directory.glob("*.json"))
    if not paths:
        return _fail(f"no scenario files in {directory}", EXIT_IO)
    out_dir = Path(args.out_dir) if args.out_dir else directory
    out_dir.mkdir(parents=True, exist_ok=True)
    worst = EXIT_OK
    for path in paths:
        try:
            scenario = sim.load_scenario(path)
            result = sim.run(scenario, seed=args.seed)
            out_path = out_dir / (path.stem + ".log.jsonl")
            out_path.write_text(result.to_jsonl())
        except OSError as exc:  # its text names the file it could not open
            worst = max(worst, _fail(str(exc), EXIT_IO))
            continue
        except sim.ScenarioError as exc:
            worst = max(worst, _scenario_fail(path.name, exc))
            continue
        print(f"{path.name}: {len(result.log)} events -> {out_path.name}",
              file=sys.stderr)
    return worst


def _cmd_report(args) -> int:
    data = Path(args.log).read_bytes()
    try:  # bytes that are not UTF-8 are a malformed log too
        header, events = sim.log_from_jsonl(data.decode("utf-8"))
        if header.get("log_format") != sim.LOG_FORMAT_VERSION:
            raise ValueError(f"unsupported log_format {header.get('log_format')!r}")
        report = kpi.compute(events, subject_station=args.subject,
                             end_time_s=kpi.finite(header.get("duration_s"), "duration_s"))
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        return _fail(f"malformed log: {exc}", EXIT_INVALID)
    payload = dict(scenario=header.get("scenario"), seed=header.get("seed"),
                   **report.to_json_dict())
    if args.csv:
        Path(args.csv).write_text(report.to_csv())
    if args.json:
        Path(args.json).write_text(json.dumps(payload, indent=2) + "\n")
    if not args.csv and not args.json:
        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")
    return EXIT_OK


def _cmd_calibrate(args) -> int:
    try:
        model = fit(load_calibration_csv(args.csv), order=args.order)
    except (CalibrationError, ValueError) as exc:
        return _fail(str(exc), EXIT_INVALID)
    json.dump({"order": model.order, "weights": list(model.weights)}, sys.stdout)
    sys.stdout.write("\n")
    return EXIT_OK


def _cmd_validate(args) -> int:
    worst = EXIT_OK
    for path_str in args.scenarios:
        try:
            path = _resolve_scenario(path_str)
            scenario = sim.load_scenario(path)
        except OSError as exc:  # its text names the file it could not open
            worst = max(worst, _fail(str(exc), EXIT_IO))
            continue
        except sim.ScenarioError as exc:
            worst = max(worst, _scenario_fail(path, exc))
            continue
        print(f"ok: {path} ({scenario.name}, {len(scenario.entities)} entities, "
              f"{scenario.duration_s:g} s)")
    return worst


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mergeguard",
        description="cooperative-perception merge moderation simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario")
    p_run.add_argument("scenario")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the scenario rng_seed")
    p_run.add_argument("--out", default=None, help="log path (default stdout)")
    p_run.add_argument("--series", default=None,
                       help="also write a per-tick state CSV here")
    p_run.set_defaults(func=_cmd_run)

    p_batch = sub.add_parser("batch", help="run every *.json scenario in a directory")
    p_batch.add_argument("dir")
    p_batch.add_argument("--out-dir", default=None)
    p_batch.add_argument("--seed", type=int, default=None)
    p_batch.set_defaults(func=_cmd_batch)

    p_report = sub.add_parser("report", help="compute KPIs from a stored log")
    p_report.add_argument("log")
    p_report.add_argument("--subject", type=int, default=None,
                          help="station id the vw_* metrics describe")
    p_report.add_argument("--csv", default=None, help="write Metric,Value CSV here")
    p_report.add_argument("--json", default=None, help="write the report JSON here")
    p_report.set_defaults(func=_cmd_report)

    p_cal = sub.add_parser("calibrate", help="fit a distance polynomial to a CSV")
    p_cal.add_argument("csv")
    p_cal.add_argument("--order", type=int, default=2)
    p_cal.set_defaults(func=_cmd_calibrate)

    p_val = sub.add_parser("validate", help="schema-check scenario files")
    p_val.add_argument("scenarios", nargs="+")
    p_val.set_defaults(func=_cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:  # its text names the file it could not read or write
        return _fail(str(exc), EXIT_IO)


if __name__ == "__main__":
    sys.exit(main())
