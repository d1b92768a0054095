"""The experiment scripts run end to end on tiny inputs."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from cuberep import BuildParams, estimate_failure_rate, gen_random_bipartite

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


@pytest.mark.parametrize("n1, n2, p", [(6, 9, 0.3), (9, 6, 0.3), (4, 4, 1.0), (3, 8, 0.0)])
def test_failure_curve_rows_are_the_estimates_at_their_t(n1, n2, p):
    # one pass over the attempts at the largest t gives each row's float
    script = load("failure_curve")
    g = gen_random_bipartite(n1, n2, p, seed=2026)
    points = script.sweep_points(12, None)
    expected = [estimate_failure_rate(g, BuildParams(master_seed=606, t_override=t), 40)
                for t in points]
    assert script.failure_rates(g, 606, 40, points) == expected


@pytest.mark.parametrize("argv, error", [
    (["--trials", "0"], "argument --trials: trials must be >= 1, got 0"),
    (["--n2", "0"], "argument --n2: n2 must be >= 1, got 0"),
    (["--n1", "ten"], "argument --n1: n1 must be an integer, got 'ten'"),
    (["--p", "nan"], "argument --p: p must be within [0, 1], got nan"),
    (["--t-max", "-1"], "argument --t-max: t-max must be >= 0, got -1"),
])
def test_failure_curve_bad_arguments_are_usage_errors(capsys, argv, error):
    script = load("failure_curve")
    with pytest.raises(SystemExit) as excinfo:
        script.main(argv)
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    errors = [line for line in captured.err.splitlines() if "error" in line]
    assert len(errors) == 1 and errors[0].endswith(f": error: {error}")
