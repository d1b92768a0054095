"""Workload definitions and their set-up: seeded input graphs and dumps.

Every input is derived from the workload seed alone, so the same seed gives
the same files.  Graphs come from ``gen_random_bipartite``.  A workload may
fix d' (the smaller side maximum degree): d' is an extreme-value statistic
that moves t, and with it k and the work per operation, by up to 20% between
seeds of one size.  Holding it at the stated value keeps the amount of work
the same for every seed while the graph itself still varies.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from . import import_cuberep

# Candidate graphs drawn per set-up when d' is fixed.  The whole batch is
# always drawn, so set-up time does not depend on how soon a hit comes.
GRAPH_BATCH = 64
MAX_CANDIDATES = 4096


@dataclass(frozen=True)
class Spec:
    """One workload: which command runs on which kind of input."""

    name: str
    command: str  # "build", "verify" or "probe"
    n1: int
    n2: int
    p: float
    d_prime: int | None  # condition the graph on this d'; None takes the first draw
    trials: int = 0  # probe: --trials
    t: int | None = None  # probe: --t
    corruptions: int = 0  # verify: placements changed in the corrupted dump
    graphs: int = 1  # distinct input graphs the operations cycle through


# Graphs of one size and d' still differ in operation time by up to 6%, so
# build-sparse and probe-small cycle through four graphs per run; verify-dump
# keeps one, because each of its graphs costs a build in set-up.
WORKLOADS = {
    spec.name: spec for spec in (
        # Main user path: build, verify and render a ~19 MB dump (k = 288).
        Spec("build-sparse", "build", 300, 600, 4 / 300, 13, graphs=4),
        # Re-check dumps of the same size: parse and verify only, both verdicts.
        Spec("verify-dump", "verify", 300, 600, 4 / 300, 13, corruptions=3),
        # Thousands of tiny attempts; t = 50 so about 40% of them fail.
        Spec("probe-small", "probe", 30, 60, 0.15, 9, trials=300, t=50, graphs=4),
    )
}

LADDER_SIZES = (300, 600, 1200, 2400)


def ladder_spec(total: int) -> Spec:
    """The build-sparse generator at n1 + n2 = total, expected B-degree 4."""
    n1 = total // 3
    return Spec(f"ladder-{total}", "build", n1, total - n1, 4 / n1, None)


def sub_seed(seed: int, *labels: object) -> int:
    """A 64-bit seed for one named use of the workload seed."""
    digest = hashlib.blake2b(repr((seed, *labels)).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def sha256_file(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def side_degrees(n1: int, n2: int, edges) -> tuple[list[int], list[int]]:
    degrees_a, degrees_b = [0] * n1, [0] * n2
    for a, b in edges:
        degrees_a[a - 1] += 1
        degrees_b[b - 1] += 1
    return degrees_a, degrees_b


def d_prime(degrees_a: list[int], degrees_b: list[int]) -> int:
    return min(max(degrees_a), max(degrees_b))


def draw_graph(cuberep, spec: Spec, seed: int, number: int):
    """The first graph with the spec's d' in candidate stream `number` of the
    seed: (graph, its generator seed, its position in the stream)."""
    batch = 1 if spec.d_prime is None else GRAPH_BATCH
    hit = None
    for index in range(MAX_CANDIDATES):
        graph_seed = sub_seed(seed, spec.name, "graph", number, index)
        g = cuberep.gen_random_bipartite(spec.n1, spec.n2, spec.p, graph_seed)
        if hit is None:
            degrees_a, degrees_b = side_degrees(g.a_count, g.b_count, g.edges)
            if spec.d_prime is None or d_prime(degrees_a, degrees_b) == spec.d_prime:
                hit = (g, graph_seed, index)
        if hit is not None and index + 1 >= batch:
            return hit
    raise RuntimeError(f"{spec.name}: no graph with d' = {spec.d_prime} "
                       f"among {MAX_CANDIDATES} candidates of seed {seed}")


def run_cli(cuberep, argv: list[str]) -> tuple[int, str, str]:
    """cuberep.cli.main in-process, returning (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cuberep.cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def corrupt_dump(text: str, g, count: int, seed: int) -> tuple[str, list[dict], list[str]]:
    """Move `count` distinct non-isolated vertices out of reach,
    each in its own random dimension.  Such a vertex is adjacent to nothing in
    that dimension, so every edge at it goes missing and nothing else changes.

    Returns the new dump text, the changes made and the violations planted,
    formatted as the CLI prints them ("missing-edge A3-B7").
    """
    payload = json.loads(text)
    rng = random.Random(seed)
    degrees_a, degrees_b = side_degrees(g.a_count, g.b_count, g.edges)
    candidates = ([f"A{i}" for i, d in enumerate(degrees_a, start=1) if d]
                  + [f"B{j}" for j, d in enumerate(degrees_b, start=1) if d])
    random_dims = [i for i, dim in enumerate(payload["dims"])
                   if dim["provenance"].startswith("random-")]
    vertices = rng.sample(candidates, count)
    dims = rng.sample(random_dims, count)
    changes = []
    planted = set()
    for key, index in zip(vertices, dims):
        dim = payload["dims"][index]
        threshold = dim["threshold"]
        moved = max(dim["placement"].values()) + threshold + 1
        changes.append({"vertex": key, "dim": index,
                        "from": dim["placement"][key], "to": moved})
        dim["placement"][key] = moved
        low = Fraction(moved, threshold)
        payload["cubes"][key][index] = [str(low), str(low + 1)]
        side, number = key[0], int(key[1:])
        for a, b in g.edges:
            if (side == "A" and a == number) or (side == "B" and b == number):
                planted.add(f"missing-edge A{a}-B{b}")
    corrupted = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    return corrupted, changes, sorted(planted)


def set_up(spec: Spec, seed: int, workdir: Path) -> dict:
    """Import cuberep and write the workload's inputs into `workdir`.

    Returns the manifest: seeds, input files with their hashes, the cycle of
    operations (CLI arguments, expected exit code, graph, dump, and for
    verify the violations planted), and `setup_s`, the seconds from before
    the import to the last input written.
    """
    started = time.perf_counter()
    cuberep = import_cuberep()
    seeds: dict = {"workload": seed, "graphs": []}
    ops = []
    for number in range(spec.graphs):
        g, graph_seed, candidate = draw_graph(cuberep, spec, seed, number)
        graph = workdir / f"graph-{number}.txt"
        graph.write_text(cuberep.serialize_graph(g))
        command_seed = sub_seed(seed, spec.name, spec.command, number)
        seeds["graphs"].append({"graph": graph_seed, "candidate": candidate,
                                spec.command: command_seed})
        if spec.command == "build":
            dump = workdir / f"dump-{number}.json"
            ops.append({"argv": ["build", str(graph), "--seed", str(command_seed),
                                 "--out", str(dump), "--format", "machine"],
                        "rc": 0, "graph": str(graph), "dump": str(dump), "seed": command_seed})
        elif spec.command == "verify":
            exact, corrupt = workdir / f"exact-{number}.json", workdir / f"corrupt-{number}.json"
            rc, _, err = run_cli(cuberep, ["build", str(graph), "--seed", str(command_seed),
                                           "--out", str(exact)])
            if rc != 0:
                raise RuntimeError(f"set-up build failed with exit {rc}: {err}")
            corrupt_seed = sub_seed(seed, spec.name, "corrupt", number)
            text, changes, planted = corrupt_dump(exact.read_text(), g, spec.corruptions,
                                                  corrupt_seed)
            corrupt.write_text(text)
            for path, rc, violations in ((exact, 0, []), (corrupt, 1, planted)):
                ops.append({"argv": ["verify", str(graph), str(path), "--format", "machine"],
                            "rc": rc, "graph": str(graph), "dump": str(path),
                            "seed": command_seed, "planted": violations})
            ops[-1]["changes"] = changes
        else:
            ops.append({"argv": ["probe", str(graph), "--trials", str(spec.trials),
                                 "--t", str(spec.t), "--seed", str(command_seed),
                                 "--format", "machine"],
                        "rc": 0, "graph": str(graph), "dump": None, "seed": command_seed})
    manifest = {"workload": spec.name, "seeds": seeds, "ops": ops,
                "setup_s": time.perf_counter() - started}
    manifest["files"] = {path.name: sha256_file(path) for path in sorted(workdir.iterdir())}
    return manifest
