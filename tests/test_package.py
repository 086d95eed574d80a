"""Checks over the package source and the demos as a whole."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

from mergeguard.decision import DecisionState
from mergeguard.fusion import FusedObject, Source
from mergeguard.messages import (CamPayload, CpmPayload, DenmPayload, Message,
                                 PerceivedObject, SensorInfo)
from mergeguard.moderator import ActuationEvent

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "mergeguard").glob("*.py"))
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def parsed():
    return [(path, ast.parse(path.read_text(), str(path))) for path in SOURCES]


def test_every_module_uses_the_names_it_imports():
    unused = []
    for path, tree in parsed():
        if path.name == "__init__.py":  # its imports are the package's exports
            continue
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"):
                unused += [f"{path.name}:{node.lineno}: {name}"
                           for name in (a.asname or a.name.split(".")[0] for a in node.names)
                           if name not in used]
    assert unused == []


def test_no_assert_statement():
    # python -O strips asserts, so a check the package relies on must raise
    found = [f"{path.name}:{node.lineno}" for path, tree in parsed()
             for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


@pytest.mark.parametrize("demo", DEMOS, ids=[path.name for path in DEMOS])
def test_demo_runs_and_leaves_no_temporary_file(tmp_path, demo):
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    out = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                         timeout=120, cwd=tmp_path,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src"), "TMPDIR": str(tmp)})
    assert out.returncode == 0, out.stderr
    assert [p.name for p in tmp.iterdir()] == []


def test_engine_and_series_round_through_the_kernels():
    # round(x, n) goes through a decimal string; sim's _round9, _round6 and
    # _round3 return the same floats several times faster
    path = ROOT / "src" / "mergeguard" / "sim.py"
    tree = ast.parse(path.read_text(), str(path))
    scopes = [node for node in tree.body if getattr(node, "name", None) in ("_Engine", "series")]
    assert len(scopes) == 2
    found = [f"sim.py:{node.lineno}" for scope in scopes for node in ast.walk(scope)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "round" and len(node.args) + len(node.keywords) == 2]
    assert found == []


CAM = CamPayload(5, 0, 0, 0, 0)
RECORDS = [Message(7, 0, CAM), CAM, CpmPayload((), ()), DenmPayload(3, 17, 0, 0, 60, 0, 200),
           SensorInfo(0, 1, 1500), PerceivedObject(3, 1, 0, 0, -950, 120),
           FusedObject(Source.V2X, 7, 0.0, 0.0, 1, 0.0), DecisionState(),
           ActuationEvent(5.0, "posture_complete")]


@pytest.mark.parametrize("record", RECORDS, ids=[type(r).__name__ for r in RECORDS])
def test_runtime_records_refuse_attribute_assignment(record):
    # the engine shares one message among all its deliveries, and one road
    # picture among ticks: no holder may change what the others see
    for name in [*record._fields, "extra"]:
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
