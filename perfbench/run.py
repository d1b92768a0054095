#!/usr/bin/env python3
"""cuberep benchmark: build, verify and probe workloads.

    python3 perfbench/run.py --workload build-sparse --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1
    python3 perfbench/run.py --ladder --seed 1

A run sets up the workload's inputs from --seed (three times with --trace 0,
each in a fresh process, for setup_s), then runs its operations through
cuberep.cli.main in one more process: a closed loop with one client and no
threads, one operation at a time, for --seconds.  A fixed pure-Python
reference task runs just before each operation and each set-up, and op_s
and setup_s scale their wall times by it, because on a shared host the same
operation's wall time drifts by +-25% over minutes.  Every output is checked by
perfbench/checker.py, outside the timed region.  The run prints each metric
with its unit, a context line, and last one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics of the traced replica with --trace 1.

--ladder runs the build-sparse generator once at each of n1 + n2 = 300, 600,
1200, 2400 and prints per-layer seconds with their growth per size doubling.
It is a one-shot report, not a gated workload.

Metric names, units, directions, bounds and the end-to-end metric each layer
metric should move are listed in perfbench/metrics.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import asdict, dataclass, field
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import numpy as np  # noqa: E402

from perfbench import ROOT, SRC, checker  # noqa: E402
from perfbench.worker import REFERENCE_NOMINAL_S  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    LADDER_SIZES,
    WORKLOADS,
    Spec,
    ladder_spec,
    sha256_file,
    sub_seed,
)

REGISTRY = json.loads((Path(__file__).resolve().parent / "metrics.json").read_text())
WORK_DIR = ROOT / ".perfbench_work"
SETUPS = 3
SETUP_TIMEOUT = 120
# Seconds a worker may take beyond --seconds: the last operation started
# before the deadline, plus the memory pass of a traced run.
OP_TIMEOUT = 120
LADDER_TIMEOUT = 900


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


@dataclass
class Run:
    spec: Spec
    seed: int
    manifests: list[dict]
    result: dict
    problems: list[list[str]] = field(default_factory=list)
    k: int = 0
    d_prime: int = 0
    dump_bytes: int = 0

    @property
    def attempted(self) -> int:
        return len(self.problems) + len(self.result.get("traced_seconds", []))

    @property
    def failed(self) -> int:
        return sum(1 for p in self.problems if p) + len(self.result.get("mismatches", []))


def worker(command: str, job: dict, run_dir: Path, timeout: float) -> dict:
    job_path = run_dir / f"{command}-job.json"
    job_path.write_text(json.dumps(job))
    proc = subprocess.run([sys.executable, "-m", "perfbench.worker", command, str(job_path)],
                          cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise BenchmarkError(f"{command} worker exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_workload(spec: Spec, seed: int, seconds: float, trace: bool, setups: int,
                 timeout: float = OP_TIMEOUT) -> Run:
    WORK_DIR.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{spec.name}-", dir=WORK_DIR))
    try:
        inputs = run_dir / "inputs"
        inputs.mkdir()
        job = {"spec": asdict(spec), "seed": seed, "workdir": str(inputs)}
        manifests = [worker("setup", job, run_dir, SETUP_TIMEOUT) for _ in range(setups)]
        for other in manifests[1:]:
            if (other["files"], other["ops"]) != (manifests[0]["files"], manifests[0]["ops"]):
                raise BenchmarkError("set-up gave different inputs for the same seed")
        job = {"manifest": manifests[-1], "seconds": seconds}
        result = worker("trace" if trace else "ops", job, run_dir, seconds + timeout)
        run = Run(spec, seed, manifests, result)
        check_outputs(run)
        return run
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        with_nothing_left = WORK_DIR.exists() and not any(WORK_DIR.iterdir())
        if with_nothing_left:
            WORK_DIR.rmdir()


def check_outputs(run: Run) -> None:
    """Check every operation's output; fills run.problems and the sizes."""
    ops, result = run.manifests[-1]["ops"], run.result
    graphs = {op["graph"]: checker.parse_graph_text(Path(op["graph"]).read_text()) for op in ops}
    n1, n2, edges = graphs[ops[0]["graph"]]
    run.d_prime = checker.d_prime(*checker.side_degrees(n1, n2, edges))
    command = ops[0]["argv"][0]
    expected: dict[str, object] = {}  # per dump or graph, computed once
    if command == "build":
        sizes = []
        for op in ops:
            dump = Path(op["dump"])
            payload = json.loads(dump.read_text())
            problems = checker.check_build_dump(payload, graphs[op["graph"]], op["seed"])
            expected[op["dump"]] = (problems, payload.get("report", {}), sha256_file(dump))
            sizes.append(dump.stat().st_size)
            run.k = len(payload.get("dims", []))
        run.dump_bytes = statistics.median(sizes)
    elif command == "verify":
        for op in ops:
            payload = json.loads(Path(op["dump"]).read_text())
            expected[op["dump"]] = checker.dump_violations(payload, graphs[op["graph"]])
            run.k = len(payload["dims"])
            if expected[op["dump"]] != op["planted"]:
                raise BenchmarkError(f"input dump {op['dump']} does not hold the planted "
                                     f"violations")
    else:
        run.k = run.spec.t + (n1 - 1).bit_length() + (n2 - 1).bit_length()
        for op in ops:
            expected[op["graph"]] = checker.simulate_failure_rate(
                graphs[op["graph"]], run.spec.t, checker.SIMULATED_ATTEMPTS,
                sub_seed(op["seed"], "simulation"))
    checked: dict[str, list[str]] = {}
    for record in result["records"]:
        op = ops[record["cycle"]]
        stdout = result["outputs"][record["stdout"]]
        if record["error"]:
            found = [f"raised: {record['error'].strip().splitlines()[-1]}"]
        elif command == "verify":
            found = checker.check_verify_output(stdout, record["rc"], expected[op["dump"]])
        elif record["rc"] != op["rc"]:
            found = [f"exit code {record['rc']}, expected {op['rc']}"]
        elif command == "build":
            problems, report, sha = expected[op["dump"]]
            found = list(problems)
            if record["dump_sha"] != sha:
                found.append("dump bytes differ from the dump checked")
            found += checker.check_build_output(stdout, report, op["dump"])
        else:
            if record["stdout"] not in checked:
                checked[record["stdout"]] = checker.check_probe_output(
                    stdout, graphs[op["graph"]], run.spec.trials, run.spec.t, op["seed"],
                    expected[op["graph"]])
            found = checked[record["stdout"]]
        run.problems.append(found)


def end_to_end(run: Run) -> dict[str, float]:
    records = run.result["records"]
    return {
        "op_s": statistics.median(
            r["seconds"] * 2 * REFERENCE_NOMINAL_S / (r["reference_seconds"] + r["reference_after"])
            for r in records),
        "setup_s": statistics.median(m["setup_s"] * REFERENCE_NOMINAL_S / m["reference_seconds"]
                                     for m in run.manifests),
        "peak_rss_mb": run.result["peak_rss_mb"],
        "ok_ratio": (run.attempted - run.failed) / run.attempted,
        "k": run.k,
        "io_mb": statistics.median(r["io_bytes"] for r in records) / 1e6,
    }


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def context(run: Run | None, seed: int, **extra) -> dict:
    seeds = run.manifests[-1]["seeds"] if run else {"workload": seed}
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "platform": platform.platform(),
            "commit": git_commit(), "seeds": seeds, **extra}


def units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in REGISTRY[section]}


def print_problems(run: Run) -> None:
    for index, found in enumerate(run.problems):
        for problem in found[:3]:
            print(f"operation {index}: {problem}", file=sys.stderr)
    for mismatch in run.result.get("mismatches", []):
        print(f"trace: {mismatch}", file=sys.stderr)


def report_workload(run: Run, trace: bool, seconds: float) -> dict:
    """Print the metric lines and return the final result object."""
    records = run.result["records"]
    print(f"workload {run.spec.name}: closed loop, 1 client, {len(records)} operations, "
          f"{run.failed} of {run.attempted} failed")
    if trace:
        metrics = run.result["layers"]
        section = "per_layer"
        print(f"  traced replica: {len(run.result['traced_seconds'])} operations, "
              f"byte-identical to the CLI: {not run.result['mismatches']}")
    else:
        metrics = end_to_end(run)
        section = "end_to_end"
    unit = units(section)
    for name, value in metrics.items():
        print(f"  {name:<42} {value!r} {unit[name]}")
    if not trace:
        times = sorted(r["seconds"] for r in records)
        reference = statistics.median(r["reference_seconds"] for r in records)
        print(f"  op_s is the median of {len(times)} operations, each scaled by "
              f"{REFERENCE_NOMINAL_S} s / the mean seconds of the reference task just "
              f"before and after it")
        print(f"  op_wall_s {statistics.median(times)!r} s (unscaled median; min {times[0]:.4f}, "
              f"max {times[-1]:.4f}); reference task median {reference:.4f} s")
        setups = [m["setup_s"] for m in run.manifests]
        print(f"  setup_s is the median of {len(setups)} set-ups, scaled the same way; "
              f"unscaled {statistics.median(setups)!r} s")
        print(f"  fail_ratio {run.failed / run.attempted!r} ratio")
        if run.dump_bytes:
            print(f"  dump_mb {run.dump_bytes / 1e6!r} MB")
    print("context " + json.dumps(context(run, run.seed, workload=run.spec.name,
                                          seconds=seconds, trace=int(trace)), sort_keys=True))
    return {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
            "metrics": {name: {"value": value, "unit": unit[name]}
                        for name, value in metrics.items()}}


def run_ladder(seed: int) -> int:
    """One traced build per ladder size; per-layer seconds and growth ratios."""
    rows = []
    for total in LADDER_SIZES:
        spec = ladder_spec(total)
        run = run_workload(spec, seed, 0, trace=True, setups=1, timeout=LADDER_TIMEOUT)
        print_problems(run)
        layers = run.result["layers"]
        row = {"n1": spec.n1, "n2": spec.n2, "d_prime": run.d_prime, "k": run.k,
               "dump_mb": run.dump_bytes / 1e6, "correct": run.failed == 0,
               "op_wall_s": run.result["records"][0]["seconds"],
               "traced_op_s": run.result["traced_seconds"][0], **layers}
        rows.append(row)
        render = sum(layers[name] for name in (
            "builder.render_dump.s", "intervals.rep_to_jsonable.s", "intervals.to_unit_cubes.s"))
        print(f"n1+n2 = {total}: d' {run.d_prime}, k {run.k}, op_wall_s {row['op_wall_s']:.3f} s, "
              f"verify {layers['builder.verify.s']:.3f} s, render {render:.3f} s, "
              f"correct {row['correct']}", flush=True)
    timed = ["op_wall_s"] + [m["name"] for m in REGISTRY["per_layer"] if m["name"].endswith(".s")]
    growth = {name: [rows[i][name] / rows[i - 1][name] if rows[i - 1][name] else None
                     for i in range(1, len(rows))] for name in timed}
    for name in timed:
        ratios = " ".join("-" if r is None else f"{r:.2f}" for r in growth[name])
        print(f"  growth per doubling {name:<42} {ratios}")
    print(json.dumps({"ladder": rows, "growth_per_doubling": growth,
                      "context": context(None, seed, sizes=list(LADDER_SIZES))}))
    return 0 if all(row["correct"] for row in rows) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"],
                        help="'all' runs each workload in turn, for reading")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ladder", action="store_true",
                        help="one-shot size ladder of the build-sparse generator")
    args = parser.parse_args(argv)
    if not (SRC / "cuberep" / "__init__.py").is_file():
        print(f"error: no cuberep sources under {SRC}", file=sys.stderr)
        return 2
    if args.ladder == (args.workload is not None):
        parser.error("give exactly one of --workload and --ladder")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        if args.ladder:
            return run_ladder(args.seed)
        for name in names:
            run = run_workload(WORKLOADS[name], args.seed, args.seconds,
                               bool(args.trace), 1 if args.trace else SETUPS)
            print_problems(run)
            results[name] = report_workload(run, bool(args.trace), args.seconds)
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
