#!/usr/bin/env python3
"""Single-attempt failure rate as a function of the random dimension count.

Sweeps t from 0 up past the default, estimating for each value the fraction
of single attempts (no retry) whose verification fails, next to the union
bound (number of cross non-edges) * (d'/(d'+1))^t capped at 1.  The observed
curve should sit at or below the bound and cross 1/n2 near the default t.
Attempt i fails at t exactly when it needs more than t random dimensions, so
one pass over the attempts at the largest t gives every row, each the float
estimate_failure_rate gives at its t.

Usage:
    python scripts/failure_curve.py
    python scripts/failure_curve.py --n1 8 --n2 24 --p 0.25 --trials 300
"""

from __future__ import annotations

import argparse
import math
from fractions import Fraction

from cuberep import (
    BipartiteGraph,
    default_t,
    degree_profile,
    gen_random_bipartite,
)
from cuberep.builder import BuildPlan, live_rows, make_plan
from cuberep.cli import _count_type, _probability_type


def sweep_points(t_default: int, t_max: int | None) -> list[int]:
    top = t_max if t_max is not None else t_default + max(2, t_default // 4)
    stride = max(1, top // 12)
    points = list(range(0, top + 1, stride))
    if points[-1] != top:
        points.append(top)
    return points


def dimensions_needed(plan: BuildPlan, seed: int, index: int) -> float:
    """The random dimensions after which attempt `index` leaves no cross
    non-edge alive, or infinity when its plan.t leave some (see live_rows)."""
    j, alive = 0, plan.non_edge_rows
    for j, alive in enumerate(live_rows(plan, seed, index), start=1):
        pass
    return math.inf if any(alive) else j


def failure_rates(g: BipartiteGraph, seed: int, trials: int, points: list[int]) -> list[float]:
    """For each t of `points`, ascending, the float estimate_failure_rate
    gives for `trials` attempts on g at t, from one pass at the largest t."""
    plan = make_plan(g, points[-1])
    needed = [dimensions_needed(plan, seed, index) for index in range(trials)]
    return [sum(j > t for j in needed) / trials for t in points]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n1", type=_count_type("n1", 1), default=10)
    parser.add_argument("--n2", type=_count_type("n2", 1), default=20)
    parser.add_argument("--p", type=_probability_type, default=0.3)
    parser.add_argument("--graph-seed", type=int, default=2026)
    parser.add_argument("--seed", type=int, default=606)
    parser.add_argument("--trials", type=_count_type("trials", 1), default=200,
                        help="single attempts per t value")
    parser.add_argument("--t-max", type=_count_type("t-max", 0), default=None)
    args = parser.parse_args(argv)

    g = gen_random_bipartite(args.n1, args.n2, args.p, seed=args.graph_seed)
    n2 = max(g.a_count, g.b_count)
    profile = degree_profile(g)
    dprime = profile.delta_prime
    survival = Fraction(dprime, dprime + 1)
    non_edge_count = sum(1 for _ in g.cross_non_edges())
    t_default = default_t(dprime, n2)

    print(f"graph: {args.n1}x{args.n2} p={args.p} seed={args.graph_seed}")
    print(f"d-prime {dprime}, {non_edge_count} cross non-edges, "
          f"default t {t_default}, target 1/n2 = {1 / n2:.4f}")
    print(f"{'t':>4} {'observed':>9} {'union-bound':>12}")
    points = sweep_points(t_default, args.t_max)
    for t, rate in zip(points, failure_rates(g, args.seed, args.trials, points)):
        bound = min(1.0, non_edge_count * float(survival) ** t)
        print(f"{t:>4} {rate:>9.4f} {bound:>12.4f}")
    print(f"{args.trials} attempts per row, attempt seed {args.seed}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
