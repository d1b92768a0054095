"""Child processes of the benchmark: set-up, timed operations, traced run.

Run as ``python3 -m perfbench.worker {setup|ops|trace} JOB.json`` from the
checkout root.  Each prints one JSON object as its last stdout line.  Timed
operations run in a process of their own so that its peak resident memory
covers them and not the set-up.  ``python3 -m perfbench.worker reference``
serves the reference task: one timing per line read.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from . import ROOT, import_cuberep
from .tracing import Replica, Tracer, layer_metrics, median_metrics, memory_metrics
from .workloads import Spec, set_up, sha256_file


# Nominal seconds of reference_task: op_s and setup_s are scaled to this speed.
REFERENCE_NOMINAL_S = 0.3


def reference_task() -> float:
    """Wall seconds of a fixed pure-Python job with a working set of some
    60 MB (tuples, dicts, sorting, JSON, like the program's own work).  Run
    between operations and before each set-up, it measures how fast the
    machine is at that moment: on a shared host the same operation's wall
    time drifts by +-25% over minutes."""
    started = time.perf_counter()
    rng = random.Random(1)
    pairs = [(rng.randrange(1000), i) for i in range(150_000)]
    table = {(a, b): a ^ b for a, b in pairs}
    ordered = sorted(table.items(), key=lambda item: item[1])
    json.loads(json.dumps(ordered[:40_000]))
    return time.perf_counter() - started


class Reference:
    """reference_task in a helper process, so that its memory stays out of
    the peak RSS of the process that runs the operations.  The helper runs
    only while its caller waits for the result."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen([sys.executable, "-m", "perfbench.worker", "reference"],
                                     cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True)

    def measure(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def __enter__(self) -> "Reference":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=60)


def serve_reference() -> None:
    for _ in sys.stdin:
        print(reference_task(), flush=True)


def run_op(cuberep, op: dict, reference: Reference | None = None) -> tuple[dict, str]:
    """One untraced operation through cuberep.cli.main, preceded by the
    reference task if one is given: (record, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    reference_seconds = reference.measure() if reference else None
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        started = time.perf_counter()
        try:
            rc = cuberep.cli.main(op["argv"])
        except SystemExit as exc:
            rc = exc.code
        except Exception:
            rc = None
            error = traceback.format_exc(limit=5)
        seconds = time.perf_counter() - started
    record = {"seconds": seconds, "reference_seconds": reference_seconds,
              "rc": rc, "error": error}
    return record, out.getvalue()


def traced_op(cuberep, op: dict, memory: bool = False) -> tuple[dict, str, Tracer]:
    """The same operation through the traced replica."""
    tracer = Tracer(memory=memory)
    replica = Replica(cuberep, tracer)
    gc.collect()
    started = time.perf_counter()
    rc, stdout = replica.run(op["argv"])
    seconds = time.perf_counter() - started
    return {"seconds": seconds, "rc": rc, "error": None}, stdout, tracer


def written_dump(op: dict) -> str | None:
    """The dump a build operation writes, if any."""
    return op["dump"] if op["argv"][0] == "build" else None


class Outputs:
    """Operation records plus their distinct stdout texts, keyed by hash."""

    def __init__(self) -> None:
        self.records: list[dict] = []
        self.texts: dict[str, str] = {}

    def add(self, index: int, record: dict, stdout: str, op: dict) -> None:
        key = hashlib.sha256(stdout.encode()).hexdigest()
        self.texts[key] = stdout
        dump = written_dump(op)
        record.update(cycle=index, stdout=key, io_bytes=io_bytes(op, stdout),
                      dump_sha=sha256_file(dump) if dump and Path(dump).exists() else None)
        self.records.append(record)


def io_bytes(op: dict, stdout: str) -> int:
    """Bytes the operation read and wrote: graph, dump and standard output."""
    files = [op["graph"]] + ([op["dump"]] if op["dump"] else [])
    return sum(Path(f).stat().st_size for f in files if Path(f).exists()) + len(stdout.encode())


def until(seconds: float, cycle: list, step) -> None:
    """Closed loop: call step(index, op) one at a time, through at least one
    full cycle of operations, until `seconds` have passed."""
    started = time.perf_counter()
    index = 0
    while index < len(cycle) or time.perf_counter() - started < seconds:
        step(index % len(cycle), cycle[index % len(cycle)])
        index += 1


def without_timings(stdout: str) -> str:
    """Build output minus its wall-clock timings, which differ per run."""
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError:
        return stdout
    payload.pop("timings", None)
    return json.dumps(payload, sort_keys=True)


def do_ops(job: dict) -> dict:
    cuberep = import_cuberep()
    cycle = job["manifest"]["ops"]
    outputs = Outputs()

    with Reference() as reference:
        def step(index, op):
            record, stdout = run_op(cuberep, op, reference)
            outputs.add(index, record, stdout, op)

        until(job["seconds"], cycle, step)
        # The reference task after an operation is the one before the next.
        after = [r["reference_seconds"] for r in outputs.records[1:]] + [reference.measure()]
    for record, seconds in zip(outputs.records, after):
        record["reference_after"] = seconds
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"records": outputs.records, "outputs": outputs.texts,
            "peak_rss_mb": peak_kb * 1024 / 1e6}


def do_trace(job: dict) -> dict:
    """Alternate untraced and traced runs of each operation; the traced
    output must equal the untraced one byte for byte.  One more traced run
    of the first operation measures allocations under tracemalloc."""
    cuberep = import_cuberep()
    cycle = job["manifest"]["ops"]
    outputs = Outputs()
    traced_seconds, layers, mismatches = [], [], []

    def step(index, op):
        record, stdout = run_op(cuberep, op)
        outputs.add(index, record, stdout, op)
        replica, replica_stdout, tracer = traced_op(cuberep, op)
        dump = written_dump(op)
        same = (replica["rc"] == record["rc"]
                and without_timings(replica_stdout) == without_timings(stdout)
                and (dump is None or sha256_file(dump) == outputs.records[-1]["dump_sha"]))
        if not same:
            mismatches.append(f"{op['argv'][0]} operation {len(traced_seconds)}: traced "
                              f"replica exit {replica['rc']}, output differs from the CLI's")
        traced_seconds.append(replica["seconds"])
        layers.append(layer_metrics(tracer))

    until(job["seconds"], cycle, step)
    _, _, tracer = traced_op(cuberep, cycle[0], memory=True)
    metrics = median_metrics(layers)
    metrics.update(memory_metrics(tracer))
    untraced = [r["seconds"] for r in outputs.records]
    metrics["trace.overhead_s"] = statistics.median(traced_seconds) - statistics.median(untraced)
    return {"records": outputs.records, "outputs": outputs.texts,
            "layers": metrics, "traced_seconds": traced_seconds, "mismatches": mismatches}


def do_setup(job: dict) -> dict:
    reference_seconds = reference_task()
    manifest = set_up(Spec(**job["spec"]), job["seed"], Path(job["workdir"]))
    manifest["reference_seconds"] = reference_seconds
    return manifest


def main(argv: list[str]) -> int:
    if argv == ["reference"]:
        serve_reference()
        return 0
    command, job_path = argv
    job = json.loads(Path(job_path).read_text())
    result = {"setup": do_setup, "ops": do_ops, "trace": do_trace}[command](job)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
