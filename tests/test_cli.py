"""Command-line interface: subcommands, exit codes, file outputs."""

import json
import pathlib
import re
import shutil
import subprocess
import sys
import warnings

import pytest

from mergeguard import sim
from mergeguard.cli import EXIT_INVALID, EXIT_IO, EXIT_OK, main

SCENARIO_DIR = pathlib.Path(__file__).resolve().parent.parent / "scenarios"
ROTTERDAM = str(SCENARIO_DIR / "rotterdam_run.json")
REPEATER = str(SCENARIO_DIR / "denm_repeater.json")
DEEP = "[" * 200_000  # nested deeper than the JSON decoder can recurse


def quick_scenario(tmp_path, name="quick.json", duration=2.0):
    obj = {"schema_version": 1, "name": "quick", "duration_s": duration,
           "tick_s": 0.05, "rng_seed": 0, "robot": {"station_id": 1},
           "entities": []}
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return path


class TestRun:
    def test_writes_log_file(self, tmp_path, capsys):
        out = tmp_path / "run.jsonl"
        assert main(["run", str(quick_scenario(tmp_path)), "--out", str(out)]) == EXIT_OK
        header = json.loads(out.read_text().splitlines()[0])
        assert header["scenario"] == "quick" and header["seed"] == 0
        assert "events" in capsys.readouterr().err

    def test_stdout_by_default(self, tmp_path, capsys):
        assert main(["run", str(quick_scenario(tmp_path))]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert json.loads(lines[0])["log_format"] == 1
        assert all(json.loads(ln)["type"] for ln in lines[1:])

    def test_seed_override_echoed(self, tmp_path):
        out = tmp_path / "run.jsonl"
        main(["run", str(quick_scenario(tmp_path)), "--seed", "99", "--out", str(out)])
        assert json.loads(out.read_text().splitlines()[0])["seed"] == 99

    def test_series_csv(self, tmp_path):
        # a radio-less vehicle that starts beyond the camera's reach, which
        # the run skips until it may come into view; the series has it anyway
        obj = sim.make_pass_scenario(3, merging_offset_s=2.0)
        path = tmp_path / "pass.json"
        path.write_text(json.dumps(obj))
        out, plain, series = tmp_path / "r.jsonl", tmp_path / "plain.jsonl", tmp_path / "r.csv"
        assert main(["run", str(path), "--out", str(out), "--series", str(series)]) == EXIT_OK
        assert main(["run", str(path), "--out", str(plain)]) == EXIT_OK
        assert out.read_text() == plain.read_text()
        rows = series.read_text().splitlines()
        assert rows[0] == "time_s,mode,merging,x_veh0,v_veh0"
        # one row per tick, both ends included
        assert len(rows) == 1 + round(obj["duration_s"] / obj["tick_s"]) + 1

    def test_invalid_scenario(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema_version": 2}))
        assert main(["run", str(bad)]) == EXIT_INVALID

    def test_missing_scenario(self, tmp_path):
        assert main(["run", str(tmp_path / "none.json")]) == EXIT_IO


class TestValidate:
    def test_good_files(self, capsys):
        assert main(["validate", ROTTERDAM, REPEATER]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("ok:") == 2

    def test_schema_violation(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema_version": 1}))  # no duration_s
        assert main(["validate", str(bad)]) == EXIT_INVALID
        assert "error:" in capsys.readouterr().err

    def test_missing_file_beats_invalid(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        code = main(["validate", str(bad), str(tmp_path / "none.json")])
        assert code == EXIT_IO  # the worst outcome wins

    def test_scenario_dir_fallback(self, monkeypatch):
        monkeypatch.setenv("MERGEGUARD_SCENARIO_DIR", str(SCENARIO_DIR))
        assert main(["validate", "rotterdam_run.json"]) == EXIT_OK

    def test_explicit_path_wins_over_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MERGEGUARD_SCENARIO_DIR", str(SCENARIO_DIR))
        local = quick_scenario(tmp_path, name="rotterdam_run.json")
        assert main(["validate", str(local)]) == EXIT_OK


class TestMalformedScenario:
    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_non_object_entity_is_one_error_line(self, tmp_path, capsys, command):
        path = quick_scenario(tmp_path)
        obj = json.loads(path.read_text())
        obj["entities"] = [3]
        path.write_text(json.dumps(obj))
        assert main([command, str(path)]) == EXIT_INVALID
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    @pytest.mark.parametrize("command", ["run", "validate", "batch"])
    def test_parse_error_names_the_path_once(self, tmp_path, capsys, command):
        bad = tmp_path / "bdir" / "bad.json"
        bad.parent.mkdir()
        bad.write_text('{"a": 1,}')
        assert main([command, str(bad.parent if command == "batch" else bad)]) == EXIT_INVALID
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("bad.json") == 1


class TestCalibrate:
    def write_csv(self, tmp_path, rows):
        path = tmp_path / "cal.csv"
        path.write_text("s_px,d_m\n" + "\n".join(rows) + "\n")
        return str(path)

    def test_line_fit(self, tmp_path, capsys):
        path = self.write_csv(tmp_path, ["0,2", "1.5,3", "3,4"])
        assert main(["calibrate", path, "--order", "1"]) == EXIT_OK
        got = json.loads(capsys.readouterr().out)
        assert got["order"] == 1
        assert got["weights"][0] == pytest.approx(2.0)
        assert got["weights"][1] == pytest.approx(2.0 / 3.0)

    def test_too_few_points(self, tmp_path):
        path = self.write_csv(tmp_path, ["0,2", "1,3"])
        assert main(["calibrate", path, "--order", "2"]) == EXIT_INVALID

    def test_non_numeric(self, tmp_path):
        path = self.write_csv(tmp_path, ["0,2", "one,3", "2,4"])
        assert main(["calibrate", path]) == EXIT_INVALID

    @pytest.mark.parametrize("row", ["20,nan", "inf,3"])
    def test_non_finite(self, tmp_path, capsys, row):
        path = self.write_csv(tmp_path, ["0,2", "10,3", row, "30,4"])
        assert main(["calibrate", path]) == EXIT_INVALID
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {path}:4: non-finite value\n"

    @pytest.mark.parametrize("rows", [["0,2", "10,3", "20,1e308", "30,5"],
                                      ["0,2", "10,3", "1e300,4", "30,5"]],
                             ids=["weights overflow", "gram overflows"])
    def test_overflow_is_one_error_line(self, tmp_path, capfd, rows):
        path = self.write_csv(tmp_path, rows)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["calibrate", path]) == EXIT_INVALID
        out, err = capfd.readouterr()  # file-descriptor level: LAPACK writes there
        assert out == "" and re.fullmatch(r"error: [^\n]*overflow\n", err)

    def test_missing_file(self, tmp_path):
        assert main(["calibrate", str(tmp_path / "none.csv")]) == EXIT_IO


# each number a report reads: the scenario whose log holds it, and a record holding it
KPI_FIELDS = {
    "t": (ROTTERDAM, {"type": "cam_gen", "actor": "robot"}),
    "latency_s": (ROTTERDAM, {"type": "msg_rx", "actor": "robot", "msg_type": "CPM"}),
    "timestamp_ms": (REPEATER, {"type": "msg_rx", "actor": "robot", "msg_type": "DENM",
                                "hop_count": 0, "duplicate": False}),
    "cam_distance_m": (ROTTERDAM, {"type": "detection", "first": True}),
    "duration_s": (ROTTERDAM, {"log_format": 1}),  # the header's, where intervals close
}


class TestReport:
    @pytest.fixture()
    def log_path(self, tmp_path):
        out = tmp_path / "run.jsonl"
        assert main(["run", ROTTERDAM, "--out", str(out)]) == EXIT_OK
        return out

    def test_json_to_stdout(self, log_path, capsys):
        assert main(["report", str(log_path), "--subject", "7"]) == EXIT_OK
        got = json.loads(capsys.readouterr().out)
        assert got["scenario"] == "rotterdam_run"
        assert got["vw_ipg_s"] == pytest.approx(0.5, abs=0.01)
        assert got["cpm_latency_s"] == pytest.approx(1.30, abs=0.01)

    def test_csv_output(self, log_path, tmp_path):
        csv_path = tmp_path / "kpi.csv"
        assert main(["report", str(log_path), "--csv", str(csv_path)]) == EXIT_OK
        assert csv_path.read_text().startswith("Metric,Value\n")

    def test_json_output_file(self, log_path, tmp_path):
        json_path = tmp_path / "kpi.json"
        assert main(["report", str(log_path), "--json", str(json_path)]) == EXIT_OK
        assert "ari_igg_s" in json.loads(json_path.read_text())

    def test_malformed_log(self, tmp_path):
        bad = tmp_path / "log.jsonl"
        bad.write_text("")
        assert main(["report", str(bad)]) == EXIT_INVALID

    def test_missing_log(self, tmp_path):
        assert main(["report", str(tmp_path / "none.jsonl")]) == EXIT_IO

    @pytest.mark.parametrize("text", [
        '{"log_format": 1, "scenario": "x"}\n{"t": 0.0, "actor": "robot"}\n',
        '{"log_format": 1, "scenario": "x"}\n[1, 2]\n',
        '[1, 2]\n',
    ], ids=["event without type", "non-object event", "non-object header"])
    def test_malformed_event(self, tmp_path, capsys, text):
        bad = tmp_path / "log.jsonl"
        bad.write_text(text)
        assert main(["report", str(bad)]) == EXIT_INVALID
        assert capsys.readouterr().err.startswith("error: malformed log")

    @pytest.mark.parametrize("output", [[], ["--csv"], ["--json"]], ids=["stdout", "csv", "json"])
    @pytest.mark.parametrize("distance", ["far", None, True], ids=["string", "null", "bool"])
    def test_first_detection_distance_that_is_not_a_number(self, log_path, tmp_path, capsys,
                                                           output, distance):
        lines = log_path.read_text().splitlines()
        (k, event), *_ = [(k, json.loads(ln)) for k, ln in enumerate(lines)
                          if '"type":"detection"' in ln and '"first":true' in ln]
        event["cam_distance_m"] = distance
        lines[k] = json.dumps(event)
        log_path.write_text("\n".join(lines) + "\n")
        out = [*output, str(tmp_path / "kpi")] if output else []
        capsys.readouterr()
        assert main(["report", str(log_path), *out]) == EXIT_INVALID
        assert capsys.readouterr().err.startswith("error: malformed log")

    @pytest.mark.parametrize("log_format", [99, None], ids=["99", "missing"])
    def test_log_in_another_format(self, tmp_path, capsys, log_format):
        log = tmp_path / "run.jsonl"
        assert main(["run", REPEATER, "--out", str(log)]) == EXIT_OK
        header, *lines = log.read_text().splitlines()
        fields = json.loads(header)
        assert fields.pop("log_format") == 1
        if log_format is not None:
            fields["log_format"] = log_format
        log.write_text("\n".join([json.dumps(fields), *lines]) + "\n")
        capsys.readouterr()
        assert main(["report", str(log)]) == EXIT_INVALID
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: malformed log: unsupported log_format {log_format!r}"]

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_json_number(self, tmp_path, capsys, token):
        log = tmp_path / "run.jsonl"
        assert main(["run", REPEATER, "--out", str(log)]) == EXIT_OK
        header, first, *rest = log.read_text().splitlines()
        assert first.startswith('{"t":0.0,')
        log.write_text("\n".join([header, first.replace('"t":0.0', f'"t":{token}', 1),
                                  *rest]) + "\n")
        capsys.readouterr()
        assert main(["report", str(log)]) == EXIT_INVALID
        assert capsys.readouterr().err.startswith("error: malformed log")

    def test_crlf_copy_with_blank_lines_reports_alike(self, log_path, tmp_path):
        crlf = tmp_path / "crlf.jsonl"
        crlf.write_bytes(("\r\n" + log_path.read_text().replace("\n", "\r\n \r\n")).encode())
        reports = []
        for path in (log_path, crlf):
            json_path = path.with_suffix(".json")
            assert main(["report", str(path), "--subject", "7",
                         "--json", str(json_path)]) == EXIT_OK
            reports.append(json_path.read_text())
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("kind, key", [
        ({"type": "msg_rx", "actor": "robot", "msg_type": "CPM"}, "latency_s"),
        ({"type": "zod_enter"}, "t"),
    ], ids=["robot cpm latency", "zod_enter time"])
    def test_integer_too_large_for_a_float(self, log_path, capsys, kind, key):
        header, *lines = log_path.read_text().splitlines()
        i = next(i for i, line in enumerate(lines)
                 if kind.items() <= json.loads(line).items())
        event = json.loads(lines[i])
        event[key] = 10 ** 400
        lines[i] = json.dumps(event)
        log_path.write_text("\n".join([header, *lines]) + "\n")
        capsys.readouterr()
        assert main(["report", str(log_path)]) == EXIT_INVALID
        err = capsys.readouterr().err
        assert err.startswith("error: malformed log") and err.count("\n") == 1

    @pytest.mark.parametrize("token, says", [
        ("true", "{field} is not a finite number: True"),
        ('"1"', "{field} is not a finite number: '1'"),
        ("null", "{field} is not a finite number: None"),
        ("1e400", "1e400 is not a finite number"),  # the reader refuses it
    ], ids=["true", "string", "null", "1e400"])
    @pytest.mark.parametrize("field", list(KPI_FIELDS))
    def test_field_that_is_not_a_finite_number(self, tmp_path, capsys, field, token, says):
        scenario, record = KPI_FIELDS[field]
        lines = sim.run(sim.load_scenario(scenario)).to_jsonl().splitlines()
        i = next(i for i, line in enumerate(lines) if record.items() <= json.loads(line).items())
        fields = json.loads(lines[i])
        fields[field] = "@"  # a JSON token json.dumps cannot write: 1e400 is not a float
        lines[i] = json.dumps(fields, separators=(",", ":")).replace('"@"', token)
        log = pathlib.Path(input_file(tmp_path, "log.jsonl", "\n".join(lines) + "\n"))
        capsys.readouterr()
        assert main(["report", str(log)]) == EXIT_INVALID
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: malformed log: " + says.format(field=field)]


class TestBatch:
    def test_runs_every_scenario(self, tmp_path, capsys):
        assert main(["batch", str(SCENARIO_DIR), "--out-dir", str(tmp_path)]) == EXIT_OK
        paths = sorted(SCENARIO_DIR.glob("*.json"))
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            p.stem + ".log.jsonl" for p in paths]
        for path in paths:
            log = (tmp_path / (path.stem + ".log.jsonl")).read_text()
            assert log == sim.run(sim.load_scenario(path)).to_jsonl(), path.name

    def test_continues_past_broken_scenario(self, tmp_path, capsys):
        quick_scenario(tmp_path, "a.json")
        (tmp_path / "broken.json").write_text("{")
        assert main(["batch", str(tmp_path)]) == EXIT_INVALID
        assert (tmp_path / "a.log.jsonl").exists()
        assert "broken.json" in capsys.readouterr().err

    def test_unreadable_scenario_names_the_path_once(self, tmp_path, capsys):
        quick_scenario(tmp_path, "a.json")
        (tmp_path / "x.json").mkdir()
        assert main(["batch", str(tmp_path), "--out-dir", str(tmp_path / "logs")]) == EXIT_IO
        assert (tmp_path / "logs" / "a.log.jsonl").exists()
        err = [line for line in capsys.readouterr().err.splitlines() if "x.json" in line]
        assert len(err) == 1 and err[0].startswith("error: ") and err[0].count("x.json") == 1

    def test_not_a_directory(self, tmp_path):
        assert main(["batch", str(tmp_path / "none")]) == EXIT_IO

    def test_empty_directory(self, tmp_path):
        assert main(["batch", str(tmp_path)]) == EXIT_IO


def input_file(tmp_path, name, text):
    path = tmp_path / "in" / name
    path.parent.mkdir(exist_ok=True)
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    return str(path)


def edited(tmp_path, base, edit):
    """A copy of the shipped scenario ``base`` with ``edit`` applied to its object."""
    obj = json.loads(pathlib.Path(base).read_text())
    edit(obj)
    return input_file(tmp_path, "edited.json", json.dumps(obj))


def deep_log(tmp_path, line, value=DEEP):
    """A log of rotterdam_run whose ``line`` is nested deeper than the decoder can recurse."""
    lines = sim.run(sim.load_scenario(ROTTERDAM)).to_jsonl().splitlines()
    lines[line] = value
    return input_file(tmp_path, "deep.jsonl", "\n".join(lines) + "\n")


def log_out(tmp_path):
    return ["--out", str(tmp_path / "out" / "log.jsonl")]


def negative_jitter(obj):
    obj["robot"]["moderator"].update(cam_jitter_enabled=True, cam_jitter_std_s=-0.05)


def endless_stop(obj):
    # a STOP that would complete at an infinite time, which the log cannot hold
    obj["robot"]["moderator"].update(move_to_center_s=1e308, raise_flag_s=1e308)


def overlong_run(tmp_path):
    # the run's last messages carry a timestamp too wide for the u64 field
    obj = sim.make_pass_scenario(3, v2x=False)
    obj.update(duration_s=1e17, tick_s=1e16)
    obj["robot"]["decision_period_s"] = 1e16
    obj["infra"]["perception"] = {"cpm_period_s": 1e16}
    return input_file(tmp_path, "overlong.json", json.dumps(obj))


def overflowing_car(tmp_path):
    # a radio-less car in the zone at 1.7e308 m/s and 1e308 m/s^2, whose
    # position is inf a tick after the start
    obj = {"schema_version": 1, "name": "overflow", "duration_s": 4.0, "tick_s": 1.0,
           "rng_seed": 0, "robot": {"station_id": 1, "decision_period_s": 1.0},
           "entities": [{"trajectory": [{"start_time_s": 0.0, "start_x_m": 0.0,
                                         "speed_mps": 1.7e308, "accel_mps2": 1e308}]}]}
    return input_file(tmp_path, "overflow.json", json.dumps(obj))


def first_event_at(tmp_path, token):
    """A log of denm_repeater whose first event's time is ``token``."""
    header, first, *rest = sim.run(sim.load_scenario(REPEATER)).to_jsonl().splitlines()
    first = '{"t":' + token + first[first.index(","):]
    return input_file(tmp_path, "log.jsonl", "\n".join([header, first, *rest]) + "\n")


def crowded_cell(obj):
    # 2,000 V2X cars for 10 s: within the tick-actor bound, far past the radio one
    obj.update(duration_s=10.0, entities=[{"station_id": 1000 + k, "trajectory": [
        {"start_time_s": 0.0, "start_x_m": float(k), "speed_mps": 0.0, "accel_mps2": 0.0}]}
        for k in range(2000)])


# each command, given the directory its inputs go in, and what its one line says after "error: "
ONE_ERROR_LINE = {
    "validate deep scenario": (lambda d: ["validate", input_file(d, "deep.json", DEEP)],
                               r"\S+deep\.json: "),
    "run deep scenario": (lambda d: ["run", input_file(d, "deep.json", DEEP), *log_out(d)],
                          r"\S+deep\.json: "),
    "batch deep scenario": (lambda d: [
        "batch", str(pathlib.Path(input_file(d, "deep.json", DEEP)).parent),
        "--out-dir", str(d / "out")], r"deep\.json: "),
    "report deep header": (lambda d: ["report", deep_log(d, 0)], "malformed log: "),
    "report deep event": (lambda d: ["report", deep_log(d, 1)], "malformed log: "),
    "report deep closed event": (  # past the stack orjson recurses on
        lambda d: ["report", deep_log(d, 1, '{"":' * 100_000 + "0" + "}" * 100_000)],
        "malformed log: "),
    "report time past a float": (lambda d: ["report", first_event_at(d, "1e400")],
                                 "malformed log: 1e400 is not a finite number$"),
    "report non-UTF-8 log": (lambda d: ["report", input_file(d, "bom.jsonl", b"\xff\xfe{}\n")],
                             "malformed log: 'utf-8' codec can't decode"),
    "run seed -1": (lambda d: ["run", ROTTERDAM, "--seed", "-1", *log_out(d)],
                    "seed must be a non-negative integer, got -1$"),
    "run seed -3": (lambda d: ["run", ROTTERDAM, "--seed", "-3", *log_out(d)],
                    "seed must be a non-negative integer, got -3$"),
    "batch seed -3": (lambda d: ["batch", str(SCENARIO_DIR), "--seed", "-3",
                                 "--out-dir", str(d / "out")],
                      "seed must be a non-negative integer, got -3$"),
    "validate negative jitter std": (
        lambda d: ["validate", edited(d, REPEATER, negative_jitter)],
        r"\S+: robot\.moderator: cam_jitter_std_s must be non-negative$"),
    "run negative jitter std": (
        lambda d: ["run", edited(d, REPEATER, negative_jitter), *log_out(d)],
        r"\S+: robot\.moderator: cam_jitter_std_s must be non-negative$"),
    "validate endless stop": (
        lambda d: ["validate", edited(d, ROTTERDAM, endless_stop)],
        r"\S+: duration_s \+ robot\.moderator\.move_to_center_s \+ raise_flag_s "
        r"must be finite$"),
    "validate endless run": (
        lambda d: ["validate", edited(d, ROTTERDAM, lambda obj: obj.update(duration_s=1e9))],
        r"\S+: duration_s: 20000000001 ticks x \d+ actors \(robot, entities, cameras\) "
        r"exceed the bound of 10000000 tick-actors per run$"),
    "validate overflowing car": (
        lambda d: ["validate", overflowing_car(d)],
        r"\S+overflow\.json: entities\[0\]: trajectory positions overflow a float "
        r"during the run$"),
    "run overflowing car": (
        lambda d: ["run", overflowing_car(d), *log_out(d)],
        r"\S+overflow\.json: entities\[0\]: trajectory positions overflow a float "
        r"during the run$"),
    "validate crowded radio cell": (
        lambda d: ["validate", edited(d, REPEATER, crowded_cell)],
        r"\S+: entities: 201 ticks x 2001\^2 radio stations \(robot, V2X entities\) "
        r"exceed the bound of 10000000 per run$"),
    "validate overlong run": (lambda d: ["validate", overlong_run(d)],
                              r"\S+: duration_s: CAM message does not fit the wire: "),
}


class TestOneErrorLine:
    @pytest.mark.parametrize("case", list(ONE_ERROR_LINE))
    def test_refusal_is_one_error_line(self, tmp_path, capsys, case):
        argv, says = ONE_ERROR_LINE[case]
        (tmp_path / "out").mkdir()
        assert main(argv(tmp_path)) == EXIT_INVALID
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and re.match("error: " + says, err[0]), err
        assert not any((tmp_path / "out").iterdir())  # no log written


def log_of(tmp_path):
    """A log of a quick run, among the inputs."""
    log = sim.run(sim.load_scenario(quick_scenario(tmp_path))).to_jsonl()
    return input_file(tmp_path, "log.jsonl", log)


# each command, given its directory, and the path its one error line names
IO_REFUSALS = {
    "run missing scenario": lambda d: (["run", "@", *log_out(d)], d / "none.json"),
    "run --out into a missing directory": lambda d: (
        ["run", str(quick_scenario(d)), "--out", "@"], d / "none" / "log.jsonl"),
    "run --series into a missing directory": lambda d: (
        ["run", str(quick_scenario(d)), "--series", "@"], d / "none" / "series.csv"),
    "batch missing directory": lambda d: (
        ["batch", "@", "--out-dir", str(d / "out")], d / "none"),
    "batch --out-dir at a file": lambda d: (
        ["batch", str(d), "--out-dir", "@"], quick_scenario(d)),
    "report missing log": lambda d: (["report", "@"], d / "none.jsonl"),
    "report --csv into a missing directory": lambda d: (
        ["report", log_of(d), "--csv", "@"], d / "none" / "kpi.csv"),
    "report --json into a missing directory": lambda d: (
        ["report", log_of(d), "--json", "@"], d / "none" / "kpi.json"),
    "calibrate missing table": lambda d: (["calibrate", "@"], d / "none.csv"),
    "validate missing scenario": lambda d: (["validate", "@"], d / "none.json"),
}


class TestIoRefusal:
    @pytest.mark.parametrize("case", list(IO_REFUSALS))
    def test_refusal_names_the_path_once(self, tmp_path, capsys, case):
        (tmp_path / "out").mkdir()
        argv, path = IO_REFUSALS[case](tmp_path)
        argv = [str(path) if arg == "@" else arg for arg in argv]
        before = sorted(tmp_path.rglob("*"))
        capsys.readouterr()
        assert main(argv) == EXIT_IO
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and err[0].count(str(path)) == 1
        assert sorted(tmp_path.rglob("*")) == before  # no output file

    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_name_too_long_to_look_up(self, tmp_path, capsys, command):
        # looking the name up, before any read, already raises OSError
        name = "x" * 300
        more = [ROTTERDAM] if command == "validate" else log_out(tmp_path)
        assert main([command, name, *more]) == EXIT_IO
        out, err = capsys.readouterr()
        err = err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and err[0].count(name) == 1
        assert out.count("ok:") == (command == "validate")  # the next file is still checked


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run([sys.executable, "-m", "mergeguard.cli",
                               "validate", ROTTERDAM],
                              capture_output=True, text=True)
        assert proc.returncode == 0 and "ok:" in proc.stdout

    @pytest.mark.skipif(shutil.which("mergeguard") is None,
                        reason="console script not on PATH")
    def test_console_script(self):
        proc = subprocess.run(["mergeguard", "validate", ROTTERDAM],
                              capture_output=True, text=True)
        assert proc.returncode == 0 and "ok:" in proc.stdout
