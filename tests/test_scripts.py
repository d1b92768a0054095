"""The experiment scripts run end to end on tiny inputs."""

from __future__ import annotations

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_failure_curve(capsys):
    script = load("failure_curve")
    assert script.main(["--n1", "4", "--n2", "6", "--p", "0.4", "--trials", "20",
                        "--t-max", "6"]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [line.split() for line in lines[3:-1]]
    assert [int(row[0]) for row in rows] == list(range(7))
    rates = [float(row[1]) for row in rows]
    assert all(0.0 <= rate <= 1.0 for rate in rates)
    assert rates[0] == 1.0  # t = 0 leaves every cross non-edge in place
    assert lines[-1] == "20 attempts per row, attempt seed 606"

