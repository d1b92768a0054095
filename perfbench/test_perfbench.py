"""Fast tests of the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

from perfbench import ROOT, checker, import_cuberep, run as bench
from perfbench.tracing import Tracer, layer_metrics, memory_metrics
from perfbench.workloads import WORKLOADS, Spec, corrupt_dump, run_cli

REGISTRY = json.loads((ROOT / "perfbench" / "metrics.json").read_text())


def tiny(spec: Spec) -> Spec:
    """A fast version of a workload, for smoke tests."""
    if spec.command == "probe":
        return replace(spec, n1=6, n2=10, p=0.4, d_prime=None, trials=20, t=4)
    return replace(spec, n1=8, n2=14, p=0.3, d_prime=None)


def test_benchmark_json_matches_the_registry():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    for section, keys in (("end_to_end", ("name", "unit", "better", "bound")),
                          ("per_layer", ("name", "unit", "better"))):
        assert declared[section] == [{k: m[k] for k in keys} for m in REGISTRY[section]]
        for metric in REGISTRY[section]:
            assert set(metric["workloads"]) <= set(WORKLOADS)
            for move in metric.get("moves", []):
                assert move["metric"] in {m["name"] for m in REGISTRY["end_to_end"]}


def test_per_layer_metrics_are_the_registered_ones():
    tracer = Tracer()
    tracer.finish(tracer.begin("cli.verify"))
    names = set(layer_metrics(tracer)) | set(memory_metrics(tracer)) | {"trace.overhead_s"}
    assert names == {m["name"] for m in REGISTRY["per_layer"]}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_every_workload_at_tiny_size(name, trace):
    run = bench.run_workload(tiny(WORKLOADS[name]), seed=3, seconds=0, trace=trace,
                             setups=1 if trace else 2)
    assert run.attempted >= 1
    assert run.failed == 0, (run.problems, run.result.get("mismatches"))
    result = bench.report_workload(run, trace, 0)
    section = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in REGISTRY[section]}
    assert result["correct"] is True


@pytest.fixture(scope="module")
def tiny_build(tmp_path_factory):
    """A correct dump of a tiny graph, written by the real CLI."""
    cuberep = import_cuberep()
    directory = tmp_path_factory.mktemp("tiny")
    g = cuberep.gen_random_bipartite(8, 14, 0.3, 5)
    graph_file, dump = directory / "graph.txt", directory / "dump.json"
    graph_file.write_text(cuberep.serialize_graph(g))
    rc, stdout, _ = run_cli(cuberep, ["build", str(graph_file), "--seed", "9",
                                      "--out", str(dump), "--format", "machine"])
    assert rc == 0
    return g, checker.parse_graph_text(graph_file.read_text()), dump.read_text(), stdout


def test_checker_accepts_the_correct_dump(tiny_build):
    _, graph, text, stdout = tiny_build
    payload = json.loads(text)
    assert checker.check_build_dump(payload, graph, 9) == []
    assert checker.check_build_output(stdout, payload["report"], json.loads(stdout)["dump"]) == []


def test_checker_flags_one_planted_placement(tiny_build):
    g, graph, text, _ = tiny_build
    corrupted, changes, planted = corrupt_dump(text, g, 1, 1)
    assert len(changes) == 1 and planted
    problems = checker.check_build_dump(json.loads(corrupted), graph, 9)
    assert set(planted) <= set(problems)


def test_checker_flags_a_cube_that_disagrees_with_its_placement(tiny_build):
    _, graph, text, _ = tiny_build
    payload = json.loads(text)
    payload["dims"][0]["placement"]["A1"] += 1
    assert checker.check_build_dump(payload, graph, 9)


def test_verify_checker_flags_wrong_verdicts():
    expected = ["missing-edge A1-B2"]
    right = json.dumps({"equal": False,
                        "violations": [{"kind": "missing-edge", "pair": "A1-B2"}]})
    assert checker.check_verify_output(right, 1, expected) == []
    assert checker.check_verify_output(right, 0, expected)
    assert checker.check_verify_output(json.dumps({"equal": True, "violations": []}), 0,
                                       expected)


def test_probe_checker_flags_a_wrong_exact_value_and_rate(tmp_path):
    cuberep = import_cuberep()
    g = cuberep.gen_random_bipartite(6, 10, 0.4, 2)
    graph_file = tmp_path / "graph.txt"
    graph_file.write_text(cuberep.serialize_graph(g))
    rc, stdout, _ = run_cli(cuberep, ["probe", str(graph_file), "--trials", "50", "--t", "3",
                                      "--seed", "4", "--format", "machine"])
    assert rc == 0
    graph = checker.parse_graph_text(graph_file.read_text())
    simulated = checker.simulate_failure_rate(graph, 3, checker.SIMULATED_ATTEMPTS, 1)
    assert checker.check_probe_output(stdout, graph, 50, 3, 4, simulated) == []
    payload = json.loads(stdout)
    payload["nonedges"][0]["exact"] = "1/7"
    assert checker.check_probe_output(json.dumps(payload), graph, 50, 3, 4, simulated)
    payload = json.loads(stdout)
    payload["failure"]["rate"] = 0.0 if simulated > 0.5 else 1.0
    assert checker.check_probe_output(json.dumps(payload), graph, 50, 3, 4, simulated)


def test_simulated_failure_rate_matches_a_single_non_edge():
    # A1-B1, A1-B2, A2-B2: side A is permuted; the only non-edge A2-B1 survives
    # a draw with probability d/(d+1) = 1/2 (B1 has degree 1), so t = 2 fails 1/4.
    graph = (2, 2, {(1, 1), (1, 2), (2, 2)})
    rate = checker.simulate_failure_rate(graph, 2, checker.SIMULATED_ATTEMPTS, 7)
    assert abs(rate - 0.25) < checker.rate_tolerance(0.25, checker.SIMULATED_ATTEMPTS)


def test_run_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "build-sparse",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
