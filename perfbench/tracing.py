"""Traced replicas of the cuberep CLI commands, and per-layer metrics.

A replica does what ``cuberep.cli`` does for ``build``, ``verify`` and
``probe`` in machine format: it calls the same public functions in the same
order, with a span around each call into another module and around file I/O.
Calls that modules make into each other inside the program (builder into
randomized, bitfamily, graphs and intervals; randomized into graphs;
intervals into itself) are timed by wrapping the names the calling module
looks up, for the length of one traced operation.  No program file changes.

The worker requires a replica's output to be byte-identical to the untraced
command's, so a replica that no longer matches the program fails loudly
instead of measuring another program.
"""

from __future__ import annotations

import json
import statistics
import time
import tracemalloc
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

# Names looked up inside the program that are wrapped during a traced
# operation: (calling module, attribute, span name).
INNER_CALLS = (
    ("builder", "build_bit_family", "bitfamily.build_bit_family"),
    ("builder", "degree_profile", "graphs.degree_profile"),
    ("builder", "random_permutation", "randomized.random_permutation"),
    ("builder", "supergraph_from_permutation", "randomized.supergraph_from_permutation"),
    ("builder", "verify", "builder.verify"),
    ("builder", "rep_to_jsonable", "intervals.rep_to_jsonable"),
    ("builder", "rep_from_jsonable", "intervals.rep_from_jsonable"),
    ("intervals", "to_unit_cubes", "intervals.to_unit_cubes"),
    ("randomized", "degree_profile", "graphs.degree_profile"),
)

# Every traced function by span name: (defining module, attribute).  The
# replicas call some of them directly; INNER_CALLS patches in the rest.
TRACED_FUNCTIONS = {
    "graphs.parse_graph": ("graphs", "parse_graph"),
    "graphs.normalize_sides": ("graphs", "normalize_sides"),
    "graphs.degree_profile": ("graphs", "degree_profile"),
    "builder.build_representation": ("builder", "build_representation"),
    "builder.verify": ("builder", "verify"),
    "builder.render_dump": ("builder", "render_dump"),
    "builder.parse_dump": ("builder", "parse_dump"),
    "builder.estimate_failure_rate": ("builder", "estimate_failure_rate"),
    "intervals.swap_sides": ("intervals", "swap_sides"),
    "randomized.random_permutation": ("randomized", "random_permutation"),
    "randomized.supergraph_from_permutation": ("randomized", "supergraph_from_permutation"),
    "randomized.nonedge_survival_exact": ("randomized", "nonedge_survival_exact"),
    "bitfamily.build_bit_family": ("bitfamily", "build_bit_family"),
    "intervals.rep_to_jsonable": ("intervals", "rep_to_jsonable"),
    "intervals.rep_from_jsonable": ("intervals", "rep_from_jsonable"),
    "intervals.to_unit_cubes": ("intervals", "to_unit_cubes"),
}

# Under the memory pass, the first call of these is run under tracemalloc:
# the peak it allocates, or the size of what it returns.
ALLOC_PEAK = ("builder.verify",)
ALLOC_RETAINED = ("builder.build_representation", "builder.parse_dump")

ATTEMPT_PARENTS = ("builder.build_representation", "builder.estimate_failure_rate")

MB = 1e6


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name: str, parent: int | None) -> None:
        self.name = name
        self.parent = parent
        self.attrs = None
        self.start = time.perf_counter()
        self.end = self.start


class Tracer:
    """Spans of one operation, kept in memory.  With `memory` set, the first
    call of each ALLOC_PEAK / ALLOC_RETAINED function runs under tracemalloc
    (that slows it, so timings of a memory pass are not used)."""

    def __init__(self, memory: bool = False) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.memory = memory
        self.alloc: dict[str, float] = {}

    def begin(self, name: str) -> Span:
        span = Span(name, self._open[-1] if self._open else None)
        self._open.append(len(self.spans))
        self.spans.append(span)
        return span

    def finish(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._open.pop()

    def wrap(self, fn, name: str):
        describe = verify_attrs if name == "builder.verify" else None

        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                if self.memory and name not in self.alloc and (
                        name in ALLOC_PEAK or name in ALLOC_RETAINED):
                    result, peak, retained = run_allocating(fn, args, kwargs)
                    self.alloc[name] = (peak if name in ALLOC_PEAK else retained) / MB
                else:
                    result = fn(*args, **kwargs)
            finally:
                self.finish(span)
            if describe is not None:
                span.attrs = describe(args, result)
            return result

        return traced


def run_allocating(fn, args, kwargs):
    """(result, peak bytes allocated during the call, bytes still held after)."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    try:
        result = fn(*args, **kwargs)
    finally:
        current, peak = tracemalloc.get_traced_memory()
        if started:
            tracemalloc.stop()
    return result, peak - base, current - base


def verify_attrs(args, result) -> dict:
    rep = args[0]
    n = rep.a_count + rep.b_count
    return {"n": n, "cells": rep.dimension * n, "ok": not result}


class Replica:
    """One traced operation: the CLI command body with spans at every call
    into another module."""

    def __init__(self, cuberep, tracer: Tracer) -> None:
        self.cuberep = cuberep
        self.tracer = tracer
        modules = {name: getattr(cuberep, name)
                   for name in ("graphs", "builder", "intervals", "randomized", "bitfamily")}
        self.modules = modules
        self.call = {span: tracer.wrap(getattr(modules[module], attr), span)
                     for span, (module, attr) in TRACED_FUNCTIONS.items()}

    def run(self, argv: list[str]) -> tuple[int, str]:
        """(exit code, stdout) of one command, with inner calls wrapped for
        its duration; exceptions map to exit codes as in cli.main."""
        cli = self.cuberep.cli
        args = cli.build_parser().parse_args(argv)
        if args.format != "machine":
            raise ValueError("the traced replica reproduces machine-format output only")
        command = {"build": self.build, "verify": self.verify, "probe": self.probe}[args.command]
        saved = [(getattr(self.modules[module], attr), module, attr)
                 for module, attr, _ in INNER_CALLS]
        for module, attr, span in INNER_CALLS:
            setattr(self.modules[module], attr, self.call[span])
        root = self.tracer.begin(f"cli.{args.command}")
        try:
            return command(args)
        except self.cuberep.BuildFailure:
            return 1, ""
        except (self.cuberep.GraphFormatError, ValueError, OSError):
            return 2, ""
        finally:
            self.tracer.finish(root)
            for original, module, attr in saved:
                setattr(self.modules[module], attr, original)

    def read(self, path: str) -> str:
        span = self.tracer.begin("cli.io")
        try:
            return Path(path).read_text()
        finally:
            self.tracer.finish(span)

    def build(self, args) -> tuple[int, str]:
        c, cuberep = self.call, self.cuberep
        g = c["graphs.parse_graph"](self.read(args.graph))
        normalized, swapped = c["graphs.normalize_sides"](g)
        params = cuberep.BuildParams(master_seed=args.seed, t_override=args.t,
                                     max_retries=args.max_retries)
        rep, report = c["builder.build_representation"](normalized, params)
        if swapped:
            rep = c["intervals.swap_sides"](rep)
            leftover = c["builder.verify"](rep, g)
            if leftover:
                raise cuberep.BuildFailure("re-verification failed", leftover)
        if args.out is not None:
            text = c["builder.render_dump"](rep, report, swapped=swapped)
            span = self.tracer.begin("cli.io")
            try:
                Path(args.out).write_text(text)
            finally:
                self.tracer.finish(span)
        payload = cuberep.report_to_jsonable(report, swapped=swapped, include_timings=True)
        payload["verified"] = True
        if args.out is not None:
            payload["dump"] = args.out
        return 0, json.dumps(payload, sort_keys=True) + "\n"

    def verify(self, args) -> tuple[int, str]:
        c, cuberep = self.call, self.cuberep
        g = c["graphs.parse_graph"](self.read(args.graph))
        rep = c["builder.parse_dump"](self.read(args.rep))
        violations = c["builder.verify"](rep, g)
        payload = {
            "equal": not violations,
            "violations": [
                {"kind": v.kind,
                 "pair": f"{cuberep.vertex_key(v.u)}-{cuberep.vertex_key(v.v)}"}
                for v in violations
            ],
        }
        return (0 if not violations else 1), json.dumps(payload, sort_keys=True) + "\n"

    def probe(self, args) -> tuple[int, str]:
        c, cuberep = self.call, self.cuberep
        side_a, side_b = cuberep.SIDE_A, cuberep.SIDE_B
        g = c["graphs.parse_graph"](self.read(args.graph))
        seed, trials = args.seed, args.trials
        profile = c["graphs.degree_profile"](g)
        side = cuberep.choose_permuted_side(profile)
        bound = Fraction(profile.delta_prime, profile.delta_prime + 1)
        non_edges = sorted(g.cross_non_edges())
        table = self.tracer.begin("cli.probe_table")
        try:
            counts = {pair: 0 for pair in non_edges}
            rng = cuberep.make_rng(seed)
            size = g.side_count(side)
            for _ in range(trials):
                pi = c["randomized.random_permutation"](size, rng, side)
                dim = c["randomized.supergraph_from_permutation"](pi, g)
                for a, b in non_edges:
                    if dim.adjacent((side_a, a), (side_b, b)):
                        counts[(a, b)] += 1
            rows = []
            for a, b in non_edges:
                if side == side_a:
                    permuted, fixed = (side_a, a), (side_b, b)
                else:
                    permuted, fixed = (side_b, b), (side_a, a)
                exact = c["randomized.nonedge_survival_exact"](g, permuted, fixed)
                rows.append({"pair": f"A{a}-B{b}", "observed": counts[(a, b)] / trials,
                             "exact": str(exact)})
        finally:
            self.tracer.finish(table)
        normalized, _ = c["graphs.normalize_sides"](g)
        t_used = args.t if args.t is not None else \
            cuberep.default_t(profile.delta_prime, normalized.b_count)
        rate = c["builder.estimate_failure_rate"](
            normalized, cuberep.BuildParams(master_seed=seed, t_override=args.t), trials)
        payload = {
            "seed": seed,
            "trials": trials,
            "permuted_side": side,
            "delta_prime": profile.delta_prime,
            "bound": str(bound),
            "nonedges": rows,
            "failure": {"t": t_used, "rate": rate},
        }
        return 0, json.dumps(payload, sort_keys=True) + "\n"


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced operation.  `.s` is total seconds in
    calls of that name, self seconds (minus child spans) where named so in
    the registry; counts and ratios as the registry describes them."""
    spans = tracer.spans
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child[span.parent] += span.end - span.start
    total, own, calls = defaultdict(float), defaultdict(float), defaultdict(int)
    for i, span in enumerate(spans):
        total[span.name] += span.end - span.start
        own[span.name] += span.end - span.start - child[i]
        calls[span.name] += 1
    verifies = [s for s in spans if s.name == "builder.verify"]
    attempts = [s for s in verifies
                if s.parent is not None and spans[s.parent].name in ATTEMPT_PARENTS]
    verify_in_attempts = sum(s.end - s.start for s in attempts)
    construct = sum(total[name] for name in ATTEMPT_PARENTS) - verify_in_attempts
    pairs = sum(s.attrs["n"] * (s.attrs["n"] - 1) // 2 for s in verifies)
    dims = calls["randomized.supergraph_from_permutation"]
    draw = total["randomized.random_permutation"] + total["randomized.supergraph_from_permutation"]
    verify_s = total["builder.verify"]
    return {
        "builder.verify.s": verify_s,
        "builder.verify.calls": calls["builder.verify"],
        "builder.verify.pairs_per_s": pairs / verify_s if verify_s else 0.0,
        "intervals.to_unit_cubes.s": total["intervals.to_unit_cubes"],
        "intervals.rep_to_jsonable.s": own["intervals.rep_to_jsonable"],
        "builder.render_dump.s": own["builder.render_dump"],
        "intervals.cells": sum(s.attrs["cells"] for s in verifies),
        "intervals.rep_from_jsonable.s": total["intervals.rep_from_jsonable"],
        "builder.parse_dump.s": own["builder.parse_dump"],
        "randomized.random_permutation.s": total["randomized.random_permutation"],
        "randomized.supergraph_from_permutation.s":
            total["randomized.supergraph_from_permutation"],
        "randomized.dims": dims,
        "randomized.dim_us": draw / dims * 1e6 if dims else 0.0,
        "bitfamily.build_bit_family.s": total["bitfamily.build_bit_family"],
        "builder.construct.s": construct,
        "builder.attempts": len(attempts),
        "builder.attempt_pass_ratio":
            sum(s.attrs["ok"] for s in attempts) / len(attempts) if attempts else 0.0,
        "builder.estimate_failure_rate.s": total["builder.estimate_failure_rate"],
        "cli.probe_table.s": total["cli.probe_table"],
        "graphs.degree_profile.s": total["graphs.degree_profile"],
        "graphs.degree_profile.calls": calls["graphs.degree_profile"],
        "graphs.parse_graph.s": total["graphs.parse_graph"],
        "cli.io.s": total["cli.io"],
        "cli.self.s": own[spans[0].name],
    }


def memory_metrics(tracer: Tracer) -> dict[str, float]:
    return {
        "builder.verify.alloc_peak_mb": tracer.alloc.get("builder.verify", 0.0),
        "intervals.rep_retained_mb": max(
            (tracer.alloc[name] for name in ALLOC_RETAINED if name in tracer.alloc),
            default=0.0),
    }


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}
