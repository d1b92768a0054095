"""Command line front end: gen, build, verify, probe, bench.

Exit codes: 0 success, 1 verification failure, 2 usage or format error.
Every run logs its seed (stderr), so any result can be reproduced.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Sequence

from .builder import (
    BuildFailure,
    BuildParams,
    build_representation,
    checked_attempt,
    failure_rate,
    format_violation,
    make_plan,
    report_to_jsonable,
    verify_dump,
)
from .graphs import (
    MAX_VERTICES,
    SIDE_A,
    GraphFormatError,
    gen_random_bipartite,
    other_side,
    parse_graph,
    serialize_graph,
)
from .intervals import vertex_key
from .randomized import make_rng, survival_counts


def _seed_type(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed must be an integer, got {text!r}")
    if not 0 <= value < 2 ** 64:
        raise argparse.ArgumentTypeError("seed must fit in 64 unsigned bits")
    return value


def _count_type(name: str, minimum: int):
    """argparse type for an integer option that must be at least `minimum`."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{name} must be an integer, got {text!r}")
        if value < minimum:
            raise argparse.ArgumentTypeError(f"{name} must be >= {minimum}, got {value}")
        return value
    return parse


def _probability_type(text: str) -> float:
    """argparse type for an edge probability within [0, 1]; NaN is refused."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"p must be a number, got {text!r}")
    if not 0.0 <= value <= 1.0:  # also true for NaN
        raise argparse.ArgumentTypeError(f"p must be within [0, 1], got {text}")
    return value


_trials_type = _count_type("trials", 1)
_t_type = _count_type("t", 0)
_max_retries_type = _count_type("max-retries", 1)


def _resolve_seed(seed: int | None) -> int:
    if seed is None:
        seed = random.SystemRandom().getrandbits(64)
    print(f"seed: {seed}", file=sys.stderr)
    return seed


def _check_out(path: str | None) -> None:
    """Refuse an --out path that is a directory or whose parent is not one,
    so a command that could not write its output fails before it does any
    work or logs a seed."""
    if path is None:
        return
    out = Path(path)
    if out.is_dir():
        raise ValueError(f"cannot write {path}: it is a directory")
    if not out.parent.is_dir():
        raise ValueError(f"cannot write {path}: {out.parent} is not a directory")


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def cmd_gen(args: argparse.Namespace) -> int:
    if args.n1 + args.n2 > MAX_VERTICES:
        # every other command refuses such a graph file, so none is written
        raise ValueError(f"{args.n1}+{args.n2} vertices exceed the limit of {MAX_VERTICES}")
    _check_out(args.out)
    seed = _resolve_seed(args.seed)
    g = gen_random_bipartite(args.n1, args.n2, args.p, seed)
    _write_text(args.out, serialize_graph(g))
    return 0


def cmd_build(args: argparse.Namespace) -> int:
    g = parse_graph(Path(args.graph).read_text())
    _check_out(args.out)
    seed = _resolve_seed(args.seed)
    params = BuildParams(master_seed=seed, t_override=args.t,
                         max_retries=args.max_retries)
    rep, report = build_representation(g, params, out=args.out)
    if args.format == "machine":
        payload = report_to_jsonable(report, include_timings=True)
        payload["verified"] = True
        if args.out is not None:
            payload["dump"] = args.out
        print(json.dumps(payload, sort_keys=True))
    else:
        shown = report_to_jsonable(report)
        for key in ("k", "t", "bits_a", "bits_b", "retries", "seed",
                    "nominal_bound", "swapped"):
            print(f"{key}: {shown[key]}")
        print(f"construct: {report.construct_seconds:.6f}s")
        print(f"verify: {report.verify_seconds:.6f}s")
        print("verification: PASS")
        if args.out is not None:
            print(f"dump: {args.out}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    g = parse_graph(Path(args.graph).read_text())
    violations = verify_dump(args.rep, g)
    if args.format == "machine":
        payload = {
            "equal": not violations,
            "violations": [
                {"kind": v.kind, "pair": f"{vertex_key(v.u)}-{vertex_key(v.v)}"}
                for v in violations
            ],
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        for v in violations:
            print(format_violation(v))
        print("verification: PASS" if not violations else
              f"verification: FAIL ({len(violations)} violations)")
    return 0 if not violations else 1


def cmd_probe(args: argparse.Namespace) -> int:
    g = parse_graph(Path(args.graph).read_text())
    seed = _resolve_seed(args.seed)
    trials = args.trials
    plan = make_plan(g, args.t)
    profile, side = plan.profile, plan.side  # the side the estimate and build permute
    bound = Fraction(profile.delta_prime, profile.delta_prime + 1)
    non_edges = list(g.cross_non_edges())
    # each non-edge as 0-based (permuted endpoint, other endpoint)
    ends = [(a - 1, b - 1) if side == SIDE_A else (b - 1, a - 1) for a, b in non_edges]
    counts = survival_counts(plan.neighbours, g.vertex_count - plan.side_size,
                             ends, trials, make_rng(seed))
    other = other_side(side)
    exact: dict[int, str] = {}  # survival is exactly d/(d + 1), formatted once per d
    rows = []
    for (a, b), (_, f), count in zip(non_edges, ends, counts):
        d = profile.degree((other, f + 1))
        if d not in exact:
            exact[d] = str(Fraction(d, d + 1))
        rows.append({"pair": f"A{a}-B{b}", "observed": count / trials, "exact": exact[d]})
    rate = failure_rate(plan, seed, trials)
    if args.format == "machine":
        payload = {
            "seed": seed,
            "trials": trials,
            "permuted_side": side,
            "delta_prime": profile.delta_prime,
            "bound": str(bound),
            "nonedges": rows,
            "failure": {"t": plan.t, "rate": rate},
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"permuted side: {side}")
        print(f"delta_prime: {profile.delta_prime}  per-dimension bound: {bound}")
        print(f"trials: {trials}")
        if rows:
            width = max(len(r["pair"]) for r in rows)
            print(f"  {'pair':<{width}}  observed  exact")
            for r in rows:
                print(f"  {r['pair']:<{width}}  {r['observed']:<8.4f}  {r['exact']}")
        else:
            print("  no cross non-edges")
        print(f"single-attempt failure rate (t={plan.t}): {rate:.4f}")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    g = parse_graph(Path(args.graph).read_text())
    seed = _resolve_seed(args.seed)
    plan = make_plan(g, args.t)
    # round i is attempt i, checked as build checks it
    rounds = [(not violations, built, checked) for _, violations, built, checked
              in map(partial(checked_attempt, plan, seed), range(args.trials))]
    passed, construct_times, verify_times = zip(*rounds)
    passes = sum(passed)
    per_invocation = min(construct_times) / plan.t if plan.t else 0.0
    summary = {
        "n1": min(g.a_count, g.b_count),
        "n2": max(g.a_count, g.b_count),
        "m": g.edge_count,
        "t": plan.t,
        "rounds": args.trials,
        "passes": passes,
        "construct_mean_seconds": statistics.mean(construct_times),
        "construct_min_seconds": min(construct_times),
        "per_invocation_seconds": per_invocation,
        "verify_mean_seconds": statistics.mean(verify_times),
        "verify_min_seconds": min(verify_times),
        "seed": seed,
    }
    if args.format == "machine":
        print(json.dumps(summary, sort_keys=True))
    else:
        print(f"graph: {summary['n1']}+{summary['n2']} vertices, {summary['m']} edges")
        print(f"t: {plan.t}  rounds: {args.trials}  first-attempt passes: {passes}")
        print(f"construct: mean {summary['construct_mean_seconds']:.6f}s"
              f"  min {summary['construct_min_seconds']:.6f}s")
        print(f"per random dimension (min round): {per_invocation:.6f}s")
        print(f"verify: mean {summary['verify_mean_seconds']:.6f}s"
              f"  min {summary['verify_min_seconds']:.6f}s")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cuberep",
        description="Unit-cube intersection representations of bipartite graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a random bipartite graph file")
    p_gen.add_argument("n1", type=_count_type("n1", 1))
    p_gen.add_argument("n2", type=_count_type("n2", 1))
    p_gen.add_argument("p", type=_probability_type)
    p_gen.add_argument("--seed", type=_seed_type, default=None)
    p_gen.add_argument("--out", default=None, help="output path (default stdout)")
    p_gen.set_defaults(func=cmd_gen)

    p_build = sub.add_parser("build", help="build and verify a representation")
    p_build.add_argument("graph", help="graph file path")
    p_build.add_argument("--seed", type=_seed_type, default=None)
    p_build.add_argument("--t", type=_t_type, default=None,
                         help="random dimension count (default from the graph)")
    p_build.add_argument("--max-retries", type=_max_retries_type, default=16)
    p_build.add_argument("--out", default=None, help="write the dump here")
    p_build.add_argument("--format", choices=("human", "machine"), default="human")
    p_build.set_defaults(func=cmd_build)

    p_verify = sub.add_parser("verify", help="re-check a dump against a graph")
    p_verify.add_argument("graph", help="graph file path")
    p_verify.add_argument("rep", help="representation dump path")
    p_verify.add_argument("--format", choices=("human", "machine"), default="human")
    p_verify.set_defaults(func=cmd_verify)

    p_probe = sub.add_parser(
        "probe",
        help="survival frequencies per cross non-edge and a failure-rate estimate")
    p_probe.add_argument("graph", help="graph file path")
    p_probe.add_argument("--trials", type=_trials_type, default=1000,
                         help="samples for both the table and the failure estimate")
    p_probe.add_argument("--seed", type=_seed_type, default=None)
    p_probe.add_argument("--t", type=_t_type, default=None,
                         help="random dimension count for the failure estimate")
    p_probe.add_argument("--format", choices=("human", "machine"), default="human")
    p_probe.set_defaults(func=cmd_probe)

    p_bench = sub.add_parser(
        "bench", help="time construction separately from verification")
    p_bench.add_argument("graph", help="graph file path")
    p_bench.add_argument("--t", type=_t_type, default=None)
    p_bench.add_argument("--seed", type=_seed_type, default=None)
    p_bench.add_argument("--trials", type=_trials_type, default=5, help="timing rounds")
    p_bench.add_argument("--format", choices=("human", "machine"), default="human")
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BuildFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        for violation in exc.violations:
            print(f"  {format_violation(violation)}", file=sys.stderr)
        return 1
    except (GraphFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
