"""The benchmark's own output checker.

It shares no code with cuberep: it parses graph files and dumps itself,
recomputes the represented graph with numpy, and checks probe tables against
d/(d+1) from its own degree count and against its own Monte Carlo estimate of
the failure rate.  Each check returns a list of problems; empty means the
output is correct.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

from .workloads import d_prime, side_degrees

# Binomial tolerances, in standard deviations.  Per non-edge the observed
# survival frequency over `trials` draws must lie within PAIR_Z sigma of
# d/(d+1); a run checks about 1500 pairs, so a false alarm has probability
# about 3e-6.  The failure rate must lie within RATE_Z sigma of the
# simulated estimate (both sample sizes counted) plus one attempt.
PAIR_Z = 6.0
RATE_Z = 5.0
SIMULATED_ATTEMPTS = 3000


def expected_t(n1: int, n2: int, edges) -> int:
    """The default random-dimension count, ceil(3 (d' + 1) ln n2) for the
    larger side n2, at least 1."""
    d = d_prime(*side_degrees(n1, n2, edges))
    return max(1, math.ceil(3 * (d + 1) * math.log(max(n1, n2))))


def parse_graph_text(text: str) -> tuple[int, int, set[tuple[int, int]]]:
    """(n1, n2, edges) from the 'p bipartite' / 'e a b' graph format."""
    n1 = n2 = None
    edges = set()
    for line in text.splitlines():
        fields = line.split()
        if not fields or fields[0] == "c":
            continue
        if fields[0] == "p":
            n1, n2 = int(fields[2]), int(fields[3])
        elif fields[0] == "e":
            edges.add((int(fields[1]), int(fields[2])))
    if n1 is None:
        raise ValueError("graph file has no header")
    return n1, n2, edges


def vertex_keys(n1: int, n2: int) -> list[str]:
    return [f"A{i}" for i in range(1, n1 + 1)] + [f"B{j}" for j in range(1, n2 + 1)]


def placement_matrix(payload: dict) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """(placements k x n in canonical vertex order, thresholds, problems)."""
    keys = vertex_keys(payload["a_count"], payload["b_count"])
    rows, thresholds, problems = [], [], []
    for pos, dim in enumerate(payload["dims"]):
        placement = dim["placement"]
        threshold = dim["threshold"]
        if type(threshold) is not int or threshold <= 0:
            problems.append(f"dim {pos}: threshold {threshold!r} is not a positive integer")
        if set(placement) != set(keys):
            problems.append(f"dim {pos}: placement does not cover exactly the vertices")
            return np.zeros((0, len(keys)), np.int64), np.zeros(0, np.int64), problems
        row = [placement[key] for key in keys]
        if any(type(x) is not int for x in row):
            problems.append(f"dim {pos}: a placement is not an integer")
        rows.append(row)
        thresholds.append(threshold)
    matrix = np.array(rows, dtype=np.int64).reshape(len(rows), len(keys))
    return matrix, np.array(thresholds, dtype=np.int64), problems


def represented_violations(placements: np.ndarray, thresholds: np.ndarray,
                           n1: int, n2: int, edges) -> list[str]:
    """Pairs where the represented graph (adjacent in every dimension,
    |f(u) - f(v)| <= c) differs from the bipartite graph, formatted as
    "extra-edge A1-B2" and sorted."""
    n = n1 + n2
    adjacent = np.ones((n, n), dtype=bool)
    for row, threshold in zip(placements, thresholds):
        adjacent &= np.abs(row[:, None] - row[None, :]) <= threshold
    target = np.zeros((n, n), dtype=bool)
    for a, b in edges:
        target[a - 1, n1 + b - 1] = True
    upper = np.triu(np.ones((n, n), dtype=bool), k=1)
    keys = vertex_keys(n1, n2)
    found = []
    for kind, mask in (("extra-edge", adjacent & ~target & upper),
                       ("missing-edge", target & ~adjacent & upper)):
        found.extend(f"{kind} {keys[i]}-{keys[j]}" for i, j in zip(*np.nonzero(mask)))
    return sorted(found)


def lowest_terms(num: int, den: int) -> str:
    g = math.gcd(num, den)
    num, den = num // g, den // g
    return str(num) if den == 1 else f"{num}/{den}"


def cube_problems(payload: dict, placements: np.ndarray, thresholds: np.ndarray) -> list[str]:
    """The cubes block must give [f/c, f/c + 1] in lowest terms per dimension."""
    keys = vertex_keys(payload["a_count"], payload["b_count"])
    cubes = payload.get("cubes")
    if not isinstance(cubes, dict) or set(cubes) != set(keys):
        return ["cubes block does not cover exactly the vertices"]
    values = placements.T.tolist()
    cs = thresholds.tolist()
    for key, row in zip(keys, values):
        intervals = cubes[key]
        if len(intervals) != len(cs):
            return [f"cube of {key} has {len(intervals)} intervals, expected {len(cs)}"]
        for pos, (f, c, interval) in enumerate(zip(row, cs, intervals)):
            if interval != [lowest_terms(f, c), lowest_terms(f + c, c)]:
                return [f"cube of {key} in dim {pos} is {interval}, expected [{f}/{c}, +1]"]
    return []


def check_build_dump(payload: dict, graph: tuple, build_seed: int) -> list[str]:
    """A written dump (parsed JSON): it represents exactly the graph, its
    cubes match its placements, and k = t + bits_a + bits_b with the default t."""
    n1, n2, edges = graph
    if (payload.get("a_count"), payload.get("b_count")) != (n1, n2):
        return [f"dump is {payload.get('a_count')}+{payload.get('b_count')}, graph {n1}+{n2}"]
    placements, thresholds, problems = placement_matrix(payload)
    if problems:
        return problems
    problems += represented_violations(placements, thresholds, n1, n2, edges)[:10]
    problems += cube_problems(payload, placements, thresholds)
    report = payload.get("report", {})
    tags = [dim["provenance"] for dim in payload["dims"]]
    t = expected_t(n1, n2, edges)
    bits_a, bits_b = (n1 - 1).bit_length(), (n2 - 1).bit_length()
    expected = {"k": t + bits_a + bits_b, "t": t, "bits_a": bits_a, "bits_b": bits_b,
                "seed": build_seed}
    for key, value in expected.items():
        if report.get(key) != value:
            problems.append(f"report {key} = {report.get(key)!r}, expected {value}")
    if len(tags) != expected["k"]:
        problems.append(f"dump has {len(tags)} dims, expected k = {expected['k']}")
    if sum(tag.startswith("random-") for tag in tags) != t:
        problems.append(f"dump does not have t = {t} random dims")
    return problems


def check_build_output(stdout: str, report: dict, dump_path: str) -> list[str]:
    """The machine-format build report agrees with the dump it wrote."""
    try:
        shown = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"build output is not JSON: {exc}"]
    problems = []
    if shown.get("verified") is not True:
        problems.append("build output does not say verified")
    if shown.get("dump") != dump_path:
        problems.append(f"build output names dump {shown.get('dump')!r}")
    for key, value in report.items():
        if shown.get(key) != value:
            problems.append(f"build output {key} = {shown.get(key)!r}, dump says {value!r}")
    return problems


def dump_violations(payload: dict, graph: tuple) -> list[str]:
    """What an exact verify of this dump (parsed JSON) against the graph
    must report."""
    n1, n2, edges = graph
    placements, thresholds, problems = placement_matrix(payload)
    if problems:
        raise ValueError(f"benchmark input dump is malformed: {problems}")
    return represented_violations(placements, thresholds, n1, n2, edges)


def check_verify_output(stdout: str, rc: int, expected: list[str]) -> list[str]:
    """Verdict, exit code and violation list equal the expected ones."""
    try:
        shown = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"verify output is not JSON: {exc}"]
    problems = []
    if rc != (1 if expected else 0):
        problems.append(f"verify exited {rc}, expected {1 if expected else 0}")
    if shown.get("equal") is not (not expected):
        problems.append(f"verify says equal = {shown.get('equal')!r}")
    listed = sorted(f"{v['kind']} {v['pair']}" for v in shown.get("violations", []))
    if listed != expected:
        problems.append(f"verify listed {len(listed)} violations, expected {len(expected)}: "
                        f"{sorted(set(listed) ^ set(expected))[:5]}")
    return problems


def permute_side_a(degrees_a: list[int], degrees_b: list[int]) -> bool:
    """The permuted side is the one whose opposite has the smaller maximum
    degree; ties permute side A."""
    return max(degrees_b) <= max(degrees_a)


def simulate_failure_rate(graph: tuple, t: int, attempts: int, seed: int) -> float:
    """Monte Carlo estimate of the single-attempt failure rate.

    One attempt draws t independent uniform permutations of the permuted side.
    A cross non-edge (s, o) survives a draw when some neighbor of the
    non-permuted endpoint o ranks below s (an isolated o never survives).
    Bit dimensions separate every same-side pair and keep every cross pair,
    so an attempt fails exactly when some non-edge survives all t draws.
    """
    n1, n2, edges = graph
    degrees_a, degrees_b = side_degrees(n1, n2, edges)
    permute_a = permute_side_a(degrees_a, degrees_b)
    s_size, o_size = (n1, n2) if permute_a else (n2, n1)
    adjacency = np.zeros((s_size, o_size), dtype=bool)
    for a, b in edges:
        adjacency[(a - 1, b - 1) if permute_a else (b - 1, a - 1)] = True
    s_index, o_index = np.nonzero(~adjacency)
    neighbors = [np.nonzero(adjacency[:, o])[0] for o in range(o_size)]
    rng = np.random.default_rng(seed)
    failed = 0
    chunk = 500
    for start in range(0, attempts, chunk):
        count = min(chunk, attempts - start)
        alive_attempt = np.repeat(np.arange(count), len(s_index))
        alive_pair = np.tile(np.arange(len(s_index)), count)
        base = np.tile(np.arange(1, s_size + 1), (count, 1))
        for _ in range(t):
            if not len(alive_pair):
                break
            ranks = rng.permuted(base, axis=1)
            lowest = np.full((count, o_size), s_size + 1)
            for o, near in enumerate(neighbors):
                if len(near):
                    lowest[:, o] = ranks[:, near].min(axis=1)
            keep = (lowest[alive_attempt, o_index[alive_pair]]
                    < ranks[alive_attempt, s_index[alive_pair]])
            alive_attempt, alive_pair = alive_attempt[keep], alive_pair[keep]
        failed += len(np.unique(alive_attempt))
    return failed / attempts


def rate_tolerance(simulated: float, trials: int) -> float:
    p = max(simulated, 1 / SIMULATED_ATTEMPTS)
    sigma = math.sqrt(p * (1 - p) * (1 / trials + 1 / SIMULATED_ATTEMPTS))
    return RATE_Z * sigma + 1 / trials


def check_probe_output(stdout: str, graph: tuple, trials: int, t: int, seed: int,
                       simulated_rate: float) -> list[str]:
    """The probe table has every cross non-edge with exact d/(d+1) and an
    observed frequency within PAIR_Z sigma; the failure rate is within
    rate_tolerance of the simulated estimate."""
    n1, n2, edges = graph
    try:
        shown = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"probe output is not JSON: {exc}"]
    degrees_a, degrees_b = side_degrees(n1, n2, edges)
    permute_a = permute_side_a(degrees_a, degrees_b)
    dp = d_prime(degrees_a, degrees_b)
    expected = {"seed": seed, "trials": trials, "permuted_side": "A" if permute_a else "B",
                "delta_prime": dp, "bound": str(Fraction(dp, dp + 1))}
    problems = [f"probe {key} = {shown.get(key)!r}, expected {value!r}"
                for key, value in expected.items() if shown.get(key) != value]
    non_edges = [(a, b) for a in range(1, n1 + 1) for b in range(1, n2 + 1)
                 if (a, b) not in edges]
    rows = shown.get("nonedges", [])
    if [row.get("pair") for row in rows] != [f"A{a}-B{b}" for a, b in non_edges]:
        problems.append("probe rows are not the cross non-edges in order")
        return problems
    bad = []
    for (a, b), row in zip(non_edges, rows):
        d = degrees_b[b - 1] if permute_a else degrees_a[a - 1]
        exact = Fraction(d, d + 1)
        sigma = math.sqrt(exact * (1 - exact) / trials)
        if row["exact"] != str(exact) or abs(row["observed"] - exact) > PAIR_Z * sigma + 1e-9:
            bad.append(f"{row['pair']}: observed {row['observed']} exact {row['exact']}, "
                       f"expected {exact}")
    if bad:
        problems.append(f"{len(bad)} probe rows out of tolerance, first {bad[0]}")
    failure = shown.get("failure", {})
    if failure.get("t") != t:
        problems.append(f"probe failure t = {failure.get('t')!r}, expected {t}")
    rate = failure.get("rate", -1)
    if abs(rate - simulated_rate) > rate_tolerance(simulated_rate, trials):
        problems.append(f"probe failure rate {rate} is outside "
                        f"{simulated_rate:.4f} +- {rate_tolerance(simulated_rate, trials):.4f}")
    return problems
