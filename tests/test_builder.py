"""Builder: assembly, exact verification, retries, failure estimation, dumps."""

from __future__ import annotations

import dataclasses
import gc
import json
import locale
import math
import os
import random
import re
import signal
import subprocess
import threading
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from operator import and_
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import (
    all_pairs,
    assert_no_child_left,
    bipartite_graphs,
    long_number,
    matching_report,
    stale_cube,
)
from cuberep import (
    SIDE_A,
    SIDE_B,
    BipartiteGraph,
    BuildFailure,
    BuildParams,
    BuildReport,
    CubeRepresentation,
    UnitIntervalRep,
    Violation,
    build_representation,
    choose_permuted_side,
    default_t,
    degree_profile,
    derive_seed,
    estimate_failure_rate,
    gen_random_bipartite,
    induced_graph,
    intersect_graphs,
    make_rng,
    nominal_dimension_bound,
    normalize_sides,
    other_side,
    parse_dump,
    read_dump,
    render_dump,
    rep_from_jsonable,
    rep_to_jsonable,
    report_to_jsonable,
    swap_sides,
    verify,
    verify_dump,
    write_dump,
)
from cuberep import builder
from cuberep.builder import (
    attempt,
    checked_attempt,
    dimension_rngs,
    live_rows,
    make_plan,
    survivor_masks,
)
from cuberep.bitfamily import bit_count_for
from cuberep.graphs import MAX_VERTICES, vertex_order
from cuberep.intervals import DIM_KINDS, dim_tag, kind_counts, tag_kind
from cuberep.randomized import neighbour_masks, reached_below, shuffled_ranks

K44_MINUS_CORNER = BipartiteGraph(
    4, 4, {(a, b) for a in range(1, 5) for b in range(1, 5)} - {(4, 4)})


def oracle_violations(rep: CubeRepresentation, g: BipartiteGraph) -> list[Violation]:
    """verify's result computed with the reference induced_graph and
    intersect_graphs, pair by pair."""
    verts = rep.vertices()
    if rep.dims:
        edges = intersect_graphs([induced_graph(d, verts) for d in rep.dims]).edges
    else:
        edges = {frozenset(pair) for pair in all_pairs(verts)}
    violations = []
    for u, v in all_pairs(verts):
        adjacent = frozenset((u, v)) in edges
        wanted = u[0] == SIDE_A and v[0] == SIDE_B and (u[1], v[1]) in g.edges
        if adjacent and not wanted:
            violations.append(Violation("extra-edge", u, v))
        elif wanted and not adjacent:
            violations.append(Violation("missing-edge", u, v))
    return sorted(violations)


def pair_violations(rep: CubeRepresentation, g: BipartiteGraph) -> list[Violation]:
    """verify's result pair by pair: a pair is adjacent when it is adjacent
    in every dimension, tried tightest threshold first, so that most
    non-edges stop at their first dimension.  It makes no set of pairs per
    dimension, as oracle_violations does, so it can check attempts at
    100+200."""
    dims = sorted(rep.dims, key=lambda dim: dim.threshold)
    violations = []
    for u, v in all_pairs(rep.vertices()):
        adjacent = all(dim.adjacent(u, v) for dim in dims)
        wanted = u[0] == SIDE_A and v[0] == SIDE_B and (u[1], v[1]) in g.edges
        if adjacent and not wanted:
            violations.append(Violation("extra-edge", u, v))
        elif wanted and not adjacent:
            violations.append(Violation("missing-edge", u, v))
    return sorted(violations)


@st.composite
def hostile_cases(draw):
    """A graph and a representation of the same vertex set with small,
    possibly negative and tied placements and any threshold from 1 to the
    placement span, so both verdicts and both violation kinds occur."""
    g = draw(bipartite_graphs(max_a=4, max_b=5))
    verts = CubeRepresentation(g.a_count, g.b_count, (), ()).vertices()
    reach = draw(st.integers(0, 4))
    dims = tuple(
        UnitIntervalRep({v: draw(st.integers(-reach, reach)) for v in verts},
                        draw(st.integers(1, max(1, 2 * reach))))
        for _ in range(draw(st.integers(0, 4))))
    rep = CubeRepresentation(g.a_count, g.b_count, dims,
                             tuple(dim_tag("random", j + 1) for j in range(len(dims))))
    return rep, g


@st.composite
def dump_cases(draw):
    """Representations of sides from 1 to 12 vertices (from 10 on, keys sort
    as strings: A10 before A2) with negative and tied placements, thresholds
    that need not divide them, any provenance text, and any report."""
    a_count, b_count = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    verts = CubeRepresentation(a_count, b_count, (), ()).vertices()
    reach = draw(st.integers(0, 6))
    dims = tuple(
        UnitIntervalRep({v: draw(st.integers(-reach, reach)) for v in verts},
                        draw(st.integers(1, 7)))
        for _ in range(draw(st.integers(0, 4))))
    tags = tuple(draw(st.text(max_size=6)) for _ in dims)
    counts = st.integers(0, 2 ** 64 - 1)
    report = BuildReport(*(draw(counts) for _ in range(7)), 0.0, 0.0)
    return CubeRepresentation(a_count, b_count, dims, tags), report, draw(st.booleans())


def json_dump(rep: CubeRepresentation, report: BuildReport, swapped: bool) -> str:
    """The canonical dump text through the json encoder."""
    payload = {**rep_to_jsonable(rep), "report": report_to_jsonable(report, swapped=swapped)}
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def own_report(report: BuildReport, swapped: bool) -> BuildReport:
    """The report whose own block is report_to_jsonable(report, swapped=swapped)."""
    if swapped:
        report = dataclasses.replace(report, bits_a=report.bits_b, bits_b=report.bits_a)
    return dataclasses.replace(report, swapped=swapped)


EMPTY_REPORT = BuildReport(0, 0, 0, 0, 0, 0, 0, 0.0, 0.0)


def tagged(tag: str) -> tuple[CubeRepresentation, BuildReport, bool]:
    """A dump_cases case of one dimension whose provenance is `tag`."""
    dim = UnitIntervalRep({(SIDE_A, 1): 0, (SIDE_B, 1): 1, (SIDE_B, 2): 2}, 1)
    return CubeRepresentation(1, 2, (dim,), (tag,)), EMPTY_REPORT, False


def recorded_verifies(monkeypatch) -> list[CubeRepresentation]:
    """The representations that builder.verify checks from now on."""
    calls = []

    def recording_verify(rep, g):
        calls.append(rep)
        return verify(rep, g)

    monkeypatch.setattr(builder, "verify", recording_verify)
    return calls


class TestDefaults:
    def test_default_t_values(self):
        assert default_t(5, 20) == 54          # ceil(18 ln 20)
        assert default_t(3, 3) == 14           # ceil(12 ln 3)
        assert default_t(1, 2) == 5            # ceil(6 ln 2)
        assert default_t(1, 1) == 1            # clamped up from 0
        assert default_t(0, 1) == 1

    def test_nominal_bound_values(self):
        assert nominal_dimension_bound(3, 3) == 30
        assert nominal_dimension_bound(5, 20) == 63
        assert nominal_dimension_bound(1, 1) == 0


class TestVerify:
    def test_detects_extra_same_side_pairs(self):
        # a single random-style dimension leaves both A-A and B-B pairs in
        # place on an empty 2+2 graph once no bit dims are attached
        g = BipartiteGraph(2, 2, frozenset())
        dim = UnitIntervalRep(
            {(SIDE_A, 1): 1, (SIDE_A, 2): 2, (SIDE_B, 1): 10, (SIDE_B, 2): 10}, 4)
        rep = CubeRepresentation(2, 2, (dim,), (dim_tag("random", 1),))
        violations = verify(rep, g)
        assert violations == sorted(violations)
        assert set(violations) == {
            Violation("extra-edge", (SIDE_A, 1), (SIDE_A, 2)),
            Violation("extra-edge", (SIDE_B, 1), (SIDE_B, 2)),
        }

    def test_detects_missing_edge(self):
        g = BipartiteGraph(1, 1, {(1, 1)})
        dim = UnitIntervalRep({(SIDE_A, 1): 0, (SIDE_B, 1): 10}, 1)
        rep = CubeRepresentation(1, 1, (dim,), (dim_tag("random", 1),))
        assert verify(rep, g) == [Violation("missing-edge", (SIDE_A, 1), (SIDE_B, 1))]

    def test_zero_dims_complete_graph(self):
        g = BipartiteGraph(1, 1, {(1, 1)})
        assert verify(CubeRepresentation(1, 1, (), ()), g) == []

    def test_vertex_mismatch_rejected(self):
        g = BipartiteGraph(2, 2, frozenset())
        rep = CubeRepresentation(1, 1, (), ())
        with pytest.raises(ValueError, match="vertex mismatch"):
            verify(rep, g)

    def test_partial_placement_rejected(self):
        # no representation verify could be given holds a partial placement
        dim = UnitIntervalRep({(SIDE_A, 1): 0, (SIDE_B, 1): 0}, 1)
        with pytest.raises(ValueError, match="dimension 0 placement does not cover"):
            CubeRepresentation(2, 1, (dim,), (dim_tag("random", 1),))

    def test_extra_placement_rejected(self):
        dim = UnitIntervalRep({(SIDE_A, 1): 0, (SIDE_B, 1): 0, (SIDE_B, 2): 0}, 1)
        with pytest.raises(ValueError, match="dimension 0 placement does not cover"):
            CubeRepresentation(1, 1, (dim,), (dim_tag("random", 1),))

    @settings(max_examples=300, deadline=None)
    @given(hostile_cases())
    def test_matches_oracle_on_hostile_representations(self, case):
        rep, g = case
        assert verify(rep, g) == oracle_violations(rep, g)

    @settings(max_examples=200, deadline=None)
    @given(hostile_cases())
    def test_pair_reference_is_the_oracle(self, case):
        rep, g = case
        assert pair_violations(rep, g) == oracle_violations(rep, g)

    def test_single_placement_change_caught_exactly(self):
        # verify reports a violation exactly when the changed placement
        # changes the represented graph, and then names the same pairs
        rng = random.Random(7)
        caught = 0
        for number in range(6):
            g = gen_random_bipartite(3 + number % 3, 6, 0.4, seed=number)
            rep, _ = build_representation(g, BuildParams(master_seed=number))
            verts = rep.vertices()
            for _ in range(15):
                pos = rng.randrange(rep.dimension)
                moved = dict(rep.dims[pos].placement)
                moved[rng.choice(verts)] += rng.choice((-3, -2, -1, 1, 2, 3))
                dims = list(rep.dims)
                dims[pos] = UnitIntervalRep(moved, dims[pos].threshold)
                changed = CubeRepresentation(rep.a_count, rep.b_count, dims, rep.provenance)
                expected = oracle_violations(changed, g)
                assert verify(changed, g) == expected
                caught += bool(expected)
        assert 0 < caught < 90  # both outcomes occurred

    def test_memory_stays_small_at_300_by_600(self):
        g = gen_random_bipartite(300, 600, 4 / 300, seed=1)
        rep, _ = build_representation(g, BuildParams(master_seed=1))
        tracemalloc.start()
        try:
            assert verify(rep, g) == []
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5_000_000


class TestBuildRepresentation:
    def test_single_edge_graph(self):
        g = BipartiteGraph(1, 1, {(1, 1)})
        rep, report = build_representation(g, BuildParams(master_seed=3))
        assert report.t == 1 and report.dimension == 1
        assert (report.bits_a, report.bits_b) == (0, 0)
        assert report.retries == 0
        assert verify(rep, g) == []

    def test_complete_three_by_three(self):
        g = BipartiteGraph(3, 3, {(a, b) for a in (1, 2, 3) for b in (1, 2, 3)})
        rep, report = build_representation(g, BuildParams(master_seed=3))
        assert report.t == 14
        assert report.dimension == report.t + 4  # two bits per side
        assert report.retries == 0
        assert verify(rep, g) == []

    def test_ten_by_twenty_accounting(self):
        g = gen_random_bipartite(10, 20, 0.3, seed=7)
        rep, report = build_representation(g, BuildParams(master_seed=42))
        assert report.dimension == report.t + report.bits_a + report.bits_b
        assert (report.bits_a, report.bits_b) == (4, 5)
        assert verify(rep, g) == []

    def test_empty_graph_single_dim_suffices(self):
        g = BipartiteGraph(3, 5, frozenset())
        rep, report = build_representation(
            g, BuildParams(master_seed=3, t_override=1))
        assert report.retries == 0
        assert report.dimension == 1 + 2 + 3
        assert verify(rep, g) == []

    def test_t_zero_with_cross_non_edges_fails_naming_pairs(self):
        g = BipartiteGraph(2, 2, {(1, 1), (2, 2)})
        with pytest.raises(BuildFailure) as excinfo:
            build_representation(g, BuildParams(master_seed=1, t_override=0))
        assert excinfo.value.violations == [
            Violation("extra-edge", (SIDE_A, 1), (SIDE_B, 2)),
            Violation("extra-edge", (SIDE_A, 2), (SIDE_B, 1)),
        ]

    def test_t_zero_verifies_one_attempt(self, monkeypatch):
        # with no random dimension every attempt is the same, so however many
        # retries are allowed, one is checked
        calls = recorded_verifies(monkeypatch)
        g = BipartiteGraph(2, 2, {(1, 1), (2, 2)})
        with pytest.raises(BuildFailure,
                           match="^zero random dimensions cannot remove cross non-edges$"):
            build_representation(g, BuildParams(master_seed=1, t_override=0, max_retries=16))
        assert len(calls) == 1

    def test_t_zero_on_complete_bipartite_allowed(self):
        g = BipartiteGraph(2, 3, {(a, b) for a in (1, 2) for b in (1, 2, 3)})
        rep, report = build_representation(
            g, BuildParams(master_seed=1, t_override=0))
        assert report.t == 0 and report.dimension == 1 + 2
        assert verify(rep, g) == []

    def test_retry_until_success(self):
        # t = 1 leaves the lone non-edge alive with chance 3/4 per attempt;
        # this master seed needs two fresh attempts before one passes
        rep, report = build_representation(
            K44_MINUS_CORNER, BuildParams(master_seed=0, t_override=1))
        assert report.retries == 2
        assert verify(rep, K44_MINUS_CORNER) == []

    def test_first_attempt_can_succeed(self):
        _, report = build_representation(
            K44_MINUS_CORNER, BuildParams(master_seed=6, t_override=1))
        assert report.retries == 0

    def test_retry_exhaustion_lists_survivors(self):
        with pytest.raises(BuildFailure) as excinfo:
            build_representation(
                K44_MINUS_CORNER,
                BuildParams(master_seed=0, t_override=1, max_retries=2))
        assert excinfo.value.violations == [
            Violation("extra-edge", (SIDE_A, 4), (SIDE_B, 4))]

    def test_exhaustion_verifies_exactly_max_retries_attempts(self, monkeypatch):
        calls = recorded_verifies(monkeypatch)
        with pytest.raises(BuildFailure,
                           match="^verification still failing after 2 attempts$"):
            build_representation(
                K44_MINUS_CORNER, BuildParams(master_seed=0, t_override=1, max_retries=2))
        plan = make_plan(K44_MINUS_CORNER, 1)
        assert calls == [attempt(plan, 0, 0), attempt(plan, 0, 1)]

    def test_params_validated(self):
        with pytest.raises(ValueError):
            BuildParams(master_seed=1, max_retries=0)
        with pytest.raises(ValueError):
            BuildParams(master_seed=1, t_override=-1)

    @settings(max_examples=40, deadline=None)
    @given(bipartite_graphs(max_a=4, max_b=4))
    def test_random_small_graphs_build_and_verify(self, g):
        if g.a_count > g.b_count:
            g = BipartiteGraph(g.b_count, g.a_count,
                               frozenset((b, a) for a, b in g.edges))
        rep, report = build_representation(g, BuildParams(master_seed=11))
        assert verify(rep, g) == []
        assert report.dimension == report.t + report.bits_a + report.bits_b

    def test_responsibility_split(self):
        # random dims alone must already have removed every cross non-edge;
        # bit dims alone must have removed every same-side pair
        g = gen_random_bipartite(4, 6, 0.4, seed=2)
        rep, report = build_representation(g, BuildParams(master_seed=9))
        verts = rep.vertices()
        random_dims = rep.dims[:report.t]
        random_part = intersect_graphs([induced_graph(d, verts) for d in random_dims])
        for a, b in g.cross_non_edges():
            assert not random_part.has_edge((SIDE_A, a), (SIDE_B, b))
        bit_part = intersect_graphs(
            [induced_graph(d, verts) for d in rep.dims[report.t:]])
        for u in verts:
            for v in verts:
                if u < v and u[0] == v[0]:
                    assert not bit_part.has_edge(u, v)


class TestDeterminism:
    def test_identical_builds_identical_dumps(self):
        g = gen_random_bipartite(5, 9, 0.35, seed=4)
        first = build_representation(g, BuildParams(master_seed=123))
        second = build_representation(g, BuildParams(master_seed=123))
        assert first[0] == second[0]
        assert render_dump(*first) == render_dump(*second)
        assert report_to_jsonable(first[1]) == report_to_jsonable(second[1])

    def test_different_seeds_differ(self):
        g = gen_random_bipartite(5, 9, 0.35, seed=4)
        first, _ = build_representation(g, BuildParams(master_seed=123))
        second, _ = build_representation(g, BuildParams(master_seed=124))
        assert first != second

    def test_dimension_generators_are_derive_seed_streams(self):
        for master in (0, 2 ** 64 + 5, -1):
            for index in (0, 3):
                states = [rng.getstate() for rng in dimension_rngs(master, index, 5)]
                assert states == [make_rng(derive_seed(master, index, j)).getstate()
                                  for j in range(5)]


class TestEstimateFailureRate:
    def test_complete_bipartite_never_fails(self):
        g = BipartiteGraph(3, 3, {(a, b) for a in (1, 2, 3) for b in (1, 2, 3)})
        assert estimate_failure_rate(g, BuildParams(master_seed=1), 50) == 0.0

    def test_single_dim_on_dense_graph_mostly_fails(self):
        # the lone non-edge survives one random dim with probability 3/4
        rate = estimate_failure_rate(
            K44_MINUS_CORNER, BuildParams(master_seed=5, t_override=1), 200)
        assert rate == pytest.approx(0.705, abs=1e-12)
        assert rate > 0.5

    def test_default_t_rarely_fails(self):
        g = gen_random_bipartite(4, 8, 0.5, seed=3)
        rate = estimate_failure_rate(g, BuildParams(master_seed=2), 60)
        assert rate <= 1 / 8 + 0.1

    def test_trials_validated(self):
        g = BipartiteGraph(1, 1, frozenset())
        with pytest.raises(ValueError):
            estimate_failure_rate(g, BuildParams(master_seed=1), 0)

    def test_zero_dimensions_fail_iff_a_cross_non_edge_exists(self):
        # isolated vertices included: with no random dimension nothing removes
        # their cross pairs
        params = BuildParams(master_seed=4, t_override=0)
        assert estimate_failure_rate(BipartiteGraph(2, 3, {(1, 1)}), params, 7) == 1.0
        assert estimate_failure_rate(BipartiteGraph(2, 2, frozenset()), params, 7) == 1.0
        assert estimate_failure_rate(
            BipartiteGraph(2, 2, {(a, b) for a in (1, 2) for b in (1, 2)}), params, 7) == 0.0


def oracle_rows(plan, seed: int, index: int) -> list[list[int]]:
    """live_rows of the attempt as a list, made by the loop it replaced: each
    dimension's reached_below row, ANDed into the live rows, drawn until t
    dimensions are drawn or nothing is live."""
    size, neighbours = plan.side_size, plan.neighbours
    full = (1 << (plan.graph.vertex_count - size)) - 1
    alive = [full ^ mask for mask in neighbours]
    rows = []
    for rng in dimension_rngs(seed, index, plan.t):
        if not any(alive):
            break
        alive = list(map(and_, alive, reached_below(shuffled_ranks(size, rng), neighbours)))
        rows.append(alive)
    return rows


def oracle_survivors(plan, seed: int, index: int) -> list[int]:
    """What oracle_rows leaves live after all t dimensions."""
    rows = oracle_rows(plan, seed, index)
    if rows:
        return rows[-1]
    full = (1 << (plan.graph.vertex_count - plan.side_size)) - 1
    return [full ^ mask for mask in plan.neighbours]


def sequential_rate(plan, seed: int, trials: int) -> float:
    """failure_rate's value, counted by the oracle in this process."""
    return sum(any(oracle_survivors(plan, seed, index)) for index in range(trials)) / trials


def flipped(g: BipartiteGraph) -> BipartiteGraph:
    return BipartiteGraph(g.b_count, g.a_count, frozenset((b, a) for a, b in g.edges))


PARALLEL_GRAPHS = [K44_MINUS_CORNER, gen_random_bipartite(9, 5, 0.35, seed=4),
                   gen_random_bipartite(6, 12, 0.3, seed=2),
                   BipartiteGraph(3, 4, {(1, 1), (2, 1), (3, 1), (1, 2), (2, 3)})]


class TestParallelFailureRate:
    @pytest.mark.parametrize("g", PARALLEL_GRAPHS + [flipped(g) for g in PARALLEL_GRAPHS])
    @pytest.mark.parametrize("cpus", [2, 4])
    @pytest.mark.parametrize("trials, t", [(1, 3), (2, 3), (7, 2), (3, None), (5, 0)])
    def test_rate_is_the_sequential_count(self, forks, monkeypatch, g, cpus, trials, t):
        # trials 3 on 4 CPUs is fewer trials than workers; t = 0 has no work
        monkeypatch.setattr(builder, "available_cpus", lambda: cpus)
        plan = make_plan(g, t)
        assert builder.failure_rate(plan, 11, trials) == sequential_rate(plan, 11, trials)
        assert len(forks) == (min(cpus, trials) - 1 if plan.t else 0)
        assert_no_child_left()

    def test_estimate_forks_on_two_cpus(self, forks):
        g = gen_random_bipartite(10, 20, 0.3, seed=5)
        params = BuildParams(master_seed=8, t_override=6)
        rate = estimate_failure_rate(g, params, 40)
        assert len(forks) == 1
        assert rate == sequential_rate(make_plan(g, 6), 8, 40)
        assert_no_child_left()

    def test_default_minimum_work_per_child(self, monkeypatch):
        # the default MIN_CHILD_DRAWS: 40 trials x t = 20 is below two blocks
        # of it, 100 x 20 is above
        monkeypatch.setattr(builder, "available_cpus", lambda: 2)
        fork, forked = os.fork, []
        monkeypatch.setattr(os, "fork", lambda: forked.append(1) or fork())
        plan = make_plan(gen_random_bipartite(10, 20, 0.3, seed=5), 20)
        assert builder.failure_rate(plan, 2, 40) == sequential_rate(plan, 2, 40)
        assert forked == []
        assert builder.failure_rate(plan, 2, 100) == sequential_rate(plan, 2, 100)
        assert forked == [1]
        assert_no_child_left()

    def test_a_failing_child_is_recounted(self, forks, monkeypatch):
        parent, masks = os.getpid(), builder.survivor_masks

        def fail_in_child(*args):
            if os.getpid() != parent:
                raise RuntimeError("the child fails")
            return masks(*args)

        plan = make_plan(K44_MINUS_CORNER, 1)
        expected = sequential_rate(plan, 5, 200)
        monkeypatch.setattr(builder, "survivor_masks", fail_in_child)
        assert builder.failure_rate(plan, 5, 200) == expected
        assert len(forks) == 1
        assert_no_child_left()

    def test_a_short_reply_is_recounted(self, forks, monkeypatch):
        parent, write = os.getpid(), os.write

        def short_in_child(fd, data):
            return write(fd, data[:3] if os.getpid() != parent else data)

        plan = make_plan(K44_MINUS_CORNER, 1)
        expected = sequential_rate(plan, 5, 200)
        monkeypatch.setattr(os, "write", short_in_child)
        assert builder.failure_rate(plan, 5, 200) == expected
        assert len(forks) == 1
        assert_no_child_left()

    def test_parent_interrupt_kills_and_reaps_the_children(self, forks, monkeypatch):
        # the child would count for a minute: only a kill ends it in time
        parent, failures = os.getpid(), builder._failures

        def interrupted(*args):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(60)
            return failures(*args)

        monkeypatch.setattr(builder, "_failures", interrupted)
        started = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            builder.failure_rate(make_plan(K44_MINUS_CORNER, 1), 5, 200)
        assert time.monotonic() - started < 30
        assert len(forks) == 1
        assert_no_child_left()

    def test_a_refused_fork_has_its_block_counted_here(self, forks, monkeypatch):
        # three blocks: the first is forked, the second's fork is refused,
        # and this process counts the third, then the second
        plan = make_plan(K44_MINUS_CORNER, 1)
        expected = sequential_rate(plan, 5, 300)
        parent, fork, failures = os.getpid(), os.fork, builder._failures
        calls, counted_here = [], []

        def second_refused():
            calls.append(1)
            if len(calls) == 2:
                raise OSError("no process to spare")
            return fork()

        def recording(plan, master_seed, attempts):
            if os.getpid() == parent:
                counted_here.append(attempts)
            return failures(plan, master_seed, attempts)

        monkeypatch.setattr(builder, "available_cpus", lambda: 3)
        monkeypatch.setattr(os, "fork", second_refused)
        monkeypatch.setattr(builder, "_failures", recording)
        assert builder.failure_rate(plan, 5, 300) == expected
        assert len(forks) == 1 and counted_here == [range(200, 300), range(100, 200)]
        assert_no_child_left()

    def test_no_fork_while_another_thread_runs(self, forks):
        plan = make_plan(K44_MINUS_CORNER, 1)
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            assert builder.failure_rate(plan, 5, 200) == sequential_rate(plan, 5, 200)
        finally:
            stop.set()
            thread.join()
        assert forks == []

    def test_no_fork_where_fork_is_missing_or_fails(self, forks, monkeypatch):
        plan = make_plan(K44_MINUS_CORNER, 1)
        expected = sequential_rate(plan, 5, 200)

        def refuse():
            raise OSError("no process to spare")

        monkeypatch.setattr(os, "fork", refuse)
        assert builder.failure_rate(plan, 5, 200) == expected
        monkeypatch.delattr(os, "fork")
        assert builder.failure_rate(plan, 5, 200) == expected
        assert forks == []


RENDERED = gen_random_bipartite(10, 20, 0.3, seed=5)
# a graph whose attempts at t = 4 and t = 7 fail a few times, at seed 3
RETRYING = gen_random_bipartite(6, 9, 0.25, seed=3)
# (graph, params, attempts): passing at once, with the larger side first,
# and failing once at t = 15 before passing
RENDER_CASES = [(RENDERED, BuildParams(master_seed=1), 1),
                (flipped(RENDERED), BuildParams(master_seed=1), 1),
                (RENDERED, BuildParams(master_seed=0, t_override=15), 2)]


def written_by_write_dump(tmp_path, rep, report) -> bytes:
    path = tmp_path / "expected.json"
    write_dump(path, rep, report)
    return path.read_bytes()


def in_process_writes(monkeypatch) -> list:
    """The dumps builder.write_dump writes from now on, by path."""
    writes = []

    def recording(path, rep, report):
        writes.append(path)
        write_dump(path, rep, report)

    monkeypatch.setattr(builder, "write_dump", recording)
    return writes


def assert_nothing_left(temporary_files, descriptors):
    """No child is left, every temporary file is closed, and no descriptor
    is open but `descriptors`, those open before."""
    assert_no_child_left()
    assert all(file.closed for file in temporary_files)
    assert open_descriptors() == descriptors


@pytest.fixture
def descriptors() -> list[str]:
    """The descriptors open before the test (open_descriptors)."""
    return open_descriptors()


def in_child(parent: int) -> bool:
    return os.getpid() != parent


class TestRenderBeside:
    """A build with a dump draws each attempt whole in this process, then
    forks one render child that renders the attempt's dump while this
    process verifies it."""

    @pytest.mark.parametrize("g, params, attempts", RENDER_CASES)
    def test_dump_is_write_dump_s_bytes(self, descriptors, forks, temporary_files,
                                        monkeypatch, tmp_path, g, params, attempts):
        out, writes = tmp_path / "dump.json", in_process_writes(monkeypatch)
        drawn_here = recorded_draws(monkeypatch)
        verified_here = recorded_verifies(monkeypatch)
        rep, report = build_representation(g, params, out)
        assert writes == []
        assert report.retries == attempts - 1
        assert report.swapped is (g.a_count > g.b_count)
        # this process draws each attempt once and verifies it once
        assert drawn_here == list(range(attempts))
        assert verified_here == [attempt(make_plan(g, params.t_override), params.master_seed,
                                         index) for index in range(attempts)]
        # the render child and the file of its dump, per attempt
        assert len(forks) == attempts and len(temporary_files) == attempts
        assert rep == attempt(make_plan(g, params.t_override), params.master_seed,
                              attempts - 1)
        assert out.read_bytes() == written_by_write_dump(tmp_path, rep, report)
        assert report.construct_seconds > 0.0 and report.verify_seconds > 0.0
        assert report.write_seconds > 0.0
        assert build_representation(g, params)[0] == rep
        assert_nothing_left(temporary_files, descriptors)

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(bipartite_graphs(max_a=6, max_b=6), st.integers(0, 2 ** 64 - 1),
           st.sampled_from([None, 0, 1, 3]))
    def test_small_graphs_build_as_in_one_process(self, forks, tmp_path_factory, g, seed, t):
        params = BuildParams(master_seed=seed, t_override=t, max_retries=3)
        out = tmp_path_factory.getbasetemp() / "forked.json"
        out.unlink(missing_ok=True)
        forked = verdict(lambda: build_representation(g, params, out))
        with mock.patch.object(builder, "available_cpus", lambda: 1):
            here = tmp_path_factory.getbasetemp() / "here.json"
            here.unlink(missing_ok=True)
            alone = verdict(lambda: build_representation(g, params, here))
        if forked[0] == "returned":
            (rep, report), (rep_alone, report_alone) = forked[1], alone[1]
            assert rep == rep_alone == attempt(make_plan(g, t), seed, report.retries)
            assert report_to_jsonable(report) == report_to_jsonable(report_alone)
            assert out.read_bytes() == here.read_bytes()
            builder.check_report(rep, json.loads(out.read_text())["report"])
        else:
            assert forked == alone and not out.exists()
        assert_no_child_left()

    @pytest.mark.parametrize("failure", ["raises", "killed", "short reply", "copy refused"])
    def test_a_failed_render_is_written_here(self, descriptors, forks, temporary_files,
                                             monkeypatch, tmp_path, failure):
        # the render child waits until this process has truncated the
        # previous dump at `out`, which it does before it waits for the
        # child's reply, and only then fails to render or to reply; a child
        # that sees no truncation renders and replies
        params = BuildParams(master_seed=1)
        expected = one_cpu_build(tmp_path, RENDERED, params)
        out = tmp_path / "dump.json"
        out.write_bytes(b"the previous dump\n" * 100_000)
        parent, pieces, write = os.getpid(), builder._dump_pieces, os.write

        def failing_in_child(*args):
            if in_child(parent):
                waited = time.monotonic()
                while out.stat().st_size and time.monotonic() - waited < 10:
                    time.sleep(0.001)
                if not out.stat().st_size:
                    if failure == "raises":
                        raise RuntimeError("the child fails")
                    if failure == "killed":
                        os.kill(os.getpid(), signal.SIGKILL)
                    if failure == "short reply":
                        os.write = short_reply
            return pieces(*args)

        def short_reply(fd, data):
            return write(fd, data[:3] if len(data) == 8 else data)

        def refuse(*args):
            raise OSError("sendfile refused")

        monkeypatch.setattr(builder, "_dump_pieces", failing_in_child)
        if failure == "copy refused":
            monkeypatch.setattr(os, "sendfile", refuse)
        writes = in_process_writes(monkeypatch)
        drawn_here = recorded_draws(monkeypatch)
        rep, report = build_representation(RENDERED, params, out)
        assert len(forks) == 1
        assert writes == [out] and drawn_here == [0]
        assert (rep, report_to_jsonable(report), out.read_bytes()) == expected
        assert_nothing_left(temporary_files, descriptors)

    def test_an_out_that_cannot_be_opened_kills_the_child(
            self, descriptors, forks, temporary_files, monkeypatch, tmp_path):
        # the child would render for a minute: only a kill ends it in time
        parent, pieces = os.getpid(), builder._dump_pieces

        def slow_in_child(*args):
            if in_child(parent):
                time.sleep(60)
            return pieces(*args)

        monkeypatch.setattr(builder, "_dump_pieces", slow_in_child)
        started = time.monotonic()
        with pytest.raises(IsADirectoryError):
            build_representation(RENDERED, BuildParams(master_seed=1), tmp_path)
        assert time.monotonic() - started < 30
        assert len(forks) == 1
        assert_nothing_left(temporary_files, descriptors)

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt, MemoryError])
    @pytest.mark.parametrize("failing", [0, 2, 4], ids=["first", "after retries", "last"])
    def test_a_failed_draw_propagates_and_leaves_nothing(
            self, descriptors, forks, temporary_files, monkeypatch, tmp_path, error, failing):
        # the draw of attempt `failing` raises: the render children of the
        # failed attempts before it were killed and reaped, and their dumps
        # closed, before it was drawn; the error propagates before that
        # attempt's render child is forked, and the previous dump at `out`
        # is left as it was
        draw = builder.attempt

        def failing_draw(plan, master_seed, index):
            if index == failing:
                assert_no_child_left()
                assert all(file.closed for file in temporary_files)
                raise error("the draw fails")
            return draw(plan, master_seed, index)

        monkeypatch.setattr(builder, "attempt", failing_draw)
        out = tmp_path / "dump.json"
        out.write_text("an older dump\n")
        before = out.stat()
        with pytest.raises(error, match="the draw fails"):
            build_representation(RETRYING, BuildParams(master_seed=3, t_override=4), out)
        assert len(forks) == len(temporary_files) == failing
        assert out.read_text() == "an older dump\n"
        assert (out.stat().st_mtime_ns, out.stat().st_ino) == (before.st_mtime_ns, before.st_ino)
        assert_nothing_left(temporary_files, descriptors)

    @pytest.mark.parametrize("g, t", [
        (BipartiteGraph(3, 4, frozenset((a, b) for a in range(1, 4) for b in range(1, 5))), 0),
        (BipartiteGraph(3, 4, frozenset()), 1),
        (RETRYING, 4), (RETRYING, 7)], ids=["t0", "t1", "even", "odd"])
    def test_each_t_writes_the_one_cpu_bytes(self, descriptors, forks, temporary_files,
                                             tmp_path, g, t):
        # t = 0 has no random dimension to draw and t = 1 one; an even and
        # an odd t fail a few attempts first
        params = BuildParams(master_seed=3, t_override=t)
        expected = one_cpu_build(tmp_path, g, params)
        out = tmp_path / "dump.json"
        rep, report = build_representation(g, params, out)
        assert len(forks) == report.retries + 1
        assert t < 4 or report.retries > 0
        assert (rep, report_to_jsonable(report), out.read_bytes()) == expected
        assert_nothing_left(temporary_files, descriptors)

    @pytest.mark.parametrize("g, params, attempts", RENDER_CASES)
    def test_a_failed_fork_is_written_here(self, descriptors, forks, temporary_files,
                                           monkeypatch, tmp_path, g, params, attempts):
        # each attempt's render child's fork is refused, so this process
        # verifies each attempt and writes the passing one's dump, to the
        # same bytes
        def refuse():
            calls.append(1)
            raise OSError("no process to spare")

        calls = []
        expected = one_cpu_build(tmp_path, g, params)
        monkeypatch.setattr(os, "fork", refuse)
        out, writes = tmp_path / "dump.json", in_process_writes(monkeypatch)
        drawn_here = recorded_draws(monkeypatch)
        verified_here = recorded_verifies(monkeypatch)
        rep, report = build_representation(g, params, out)
        assert len(calls) == attempts and writes == [out]
        assert drawn_here == list(range(attempts))
        assert verified_here == [attempt(make_plan(g, params.t_override), params.master_seed,
                                         index) for index in range(attempts)]
        assert (rep, report_to_jsonable(report), out.read_bytes()) == expected
        assert_nothing_left(temporary_files, descriptors)

    @pytest.mark.parametrize("g, params, attempts", RENDER_CASES)
    def test_one_pipe_per_fork(self, descriptors, forks, temporary_files, monkeypatch,
                               tmp_path, g, params, attempts):
        # each child's one reply pipe is the only pipe a build makes
        pipe, pipes = os.pipe, []
        monkeypatch.setattr(os, "pipe", lambda: pipes.append(1) or pipe())
        build_representation(g, params, tmp_path / "dump.json")
        assert len(pipes) == len(forks) == attempts
        assert_nothing_left(temporary_files, descriptors)

    @pytest.mark.parametrize("params, interrupted", [
        (BuildParams(master_seed=1), 0), (BuildParams(master_seed=0, t_override=15), 1)],
        ids=["first", "after a retry"])
    def test_interrupt_during_verify_kills_and_reaps_the_child(
            self, descriptors, forks, temporary_files, monkeypatch, tmp_path, params,
            interrupted):
        # the child would render for a minute: only a kill ends it in time;
        # verify of attempt `interrupted` is interrupted once it is given
        # the whole attempt, after the attempts before it failed
        parent, pieces, check, verified = os.getpid(), builder._dump_pieces, builder.verify, []

        def slow_in_child(*args):
            if in_child(parent):
                time.sleep(60)
            return pieces(*args)

        def interrupted_verify(rep, g):
            verified.append(rep)
            if len(verified) <= interrupted:
                return check(rep, g)
            assert rep == attempt(make_plan(RENDERED, params.t_override),
                                  params.master_seed, interrupted)
            raise KeyboardInterrupt

        monkeypatch.setattr(builder, "_dump_pieces", slow_in_child)
        monkeypatch.setattr(builder, "verify", interrupted_verify)
        out = tmp_path / "dump.json"
        started = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            build_representation(RENDERED, params, out)
        assert time.monotonic() - started < 30
        assert len(forks) == interrupted + 1
        assert not out.exists()
        assert_nothing_left(temporary_files, descriptors)

    @pytest.mark.parametrize("older", [None, "an older dump\n"], ids=["no file", "older dump"])
    def test_failed_build_writes_nothing(self, descriptors, forks, temporary_files, tmp_path,
                                         older):
        # the render child of each failed attempt is killed before `out`
        # is opened, so a file already there is left as it was
        out = tmp_path / "dump.json"
        if older is not None:
            out.write_text(older)
            before = out.stat()
        with pytest.raises(BuildFailure):
            build_representation(RENDERED, BuildParams(master_seed=1, t_override=1,
                                                       max_retries=3), out)
        assert len(forks) == 3
        if older is None:
            assert not out.exists()
        else:
            assert out.read_text() == older
            assert (out.stat().st_mtime_ns, out.stat().st_ino) == \
                (before.st_mtime_ns, before.st_ino)
        assert_nothing_left(temporary_files, descriptors)

    @pytest.mark.parametrize("why", ["another thread", "one CPU", "small dump", "no out"])
    def test_no_fork(self, forks, temporary_files, monkeypatch, tmp_path, why):
        plan = make_plan(RENDERED)
        cells = RENDERED.vertex_count * (plan.t + len(plan.bit_dims))
        monkeypatch.setattr(builder, "MIN_CHILD_CELLS", cells + (why == "small dump"))
        if why == "one CPU":
            monkeypatch.setattr(builder, "available_cpus", lambda: 1)
        out = None if why == "no out" else tmp_path / "dump.json"
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        if why == "another thread":
            thread.start()
        try:
            rep, report = build_representation(RENDERED, BuildParams(master_seed=1), out)
        finally:
            stop.set()
            if thread.is_alive():
                thread.join()
        assert forks == [] and temporary_files == []
        if out is None:
            assert report.write_seconds == 0.0
        else:
            assert out.read_bytes() == written_by_write_dump(tmp_path, rep, report)
            assert report.write_seconds > 0.0

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU sets here")
    def test_a_child_may_run_on_its_parent_s_cpus(self):
        cpus = os.sched_getaffinity(0)
        with builder._Children() as children:
            pid = children.fork(lambda: int(os.sched_getaffinity(0) == cpus))
            assert children.reply(pid) == 1
        assert os.sched_getaffinity(0) == cpus

    def test_a_child_runs_without_the_collector(self):
        with builder._Children() as children:
            pid = children.fork(gc.isenabled)
            assert children.reply(pid) == 0
        assert gc.isenabled()

    def test_a_dump_of_min_child_cells_is_rendered_beside(self, forks, monkeypatch, tmp_path):
        plan = make_plan(RENDERED)
        monkeypatch.setattr(builder, "MIN_CHILD_CELLS",
                            RENDERED.vertex_count * (plan.t + len(plan.bit_dims)))
        build_representation(RENDERED, BuildParams(master_seed=1), tmp_path / "dump.json")
        assert len(forks) == 1
        assert_no_child_left()

    def test_drawn_dimensions_share_their_ints(self, forks, tmp_path):
        # one int object per value in the random dimensions that the build
        # draws, where the placements of the other side come from one table
        # per size; past 128 vertices, placements exceed the ints that
        # Python caches.  The ranks of a permuted side of more than 256
        # vertices do too, so each draw copies one table of them.
        g = gen_random_bipartite(50, 100, 0.06, seed=1)
        rep, _ = build_representation(g, BuildParams(master_seed=1), tmp_path / "dump.json")
        wide = make_plan(gen_random_bipartite(300, 600, 4 / 300, seed=1), 3)
        assert wide.side_size > 256
        for random_dims in (rep.dims[:make_plan(g).t], attempt(wide, 1, 0).dims[:wide.t]):
            assert max(x for dim in random_dims for x in dim.values) > 256
            assert len({id(x) for dim in random_dims for x in dim.values}) == \
                len({x for dim in random_dims for x in dim.values})


def recorded_draws(monkeypatch) -> list[int]:
    """The index of each attempt that builder.attempt draws from now on."""
    calls, draw = [], builder.attempt

    def recording(plan, master_seed, index):
        calls.append(index)
        return draw(plan, master_seed, index)

    monkeypatch.setattr(builder, "attempt", recording)
    return calls


def one_cpu_build(tmp_path, g, params) -> tuple:
    """The representation, report block and dump bytes of
    build_representation(g, params, out) in one process."""
    out = tmp_path / "one-cpu.json"
    with mock.patch.object(builder, "available_cpus", lambda: 1):
        rep, report = build_representation(g, params, out)
    return rep, report_to_jsonable(report), out.read_bytes()


# (graph, master seed) whose attempt 0 passes and leaves no cross non-edge
# alive after fewer than t random dimensions: the CI's 100+200 graph and
# its seed, a graph with no edge and one with a single edge
SWEPT_CASES = [(gen_random_bipartite(100, 200, 0.04, seed=1), 7),
               (BipartiteGraph(3, 4, frozenset()), 1),
               (BipartiteGraph(3, 4, frozenset({(2, 3)})), 1)]


class TestVerifyPhases:
    @settings(max_examples=150, deadline=None)
    @given(bipartite_graphs(max_a=5, max_b=6), st.integers(0, 2 ** 64 - 1), st.data())
    def test_the_order_of_the_dimensions_does_not_matter(self, g, seed, data):
        # attempts with placements moved, some into LANE_VALUES, and
        # thresholds redrawn, so that both verdicts and both kinds occur and
        # phase 2 spans several lane blocks, given in a drawn order, tags
        # with their dimensions
        plan = make_plan(g, data.draw(st.integers(0, 150)))
        rep = attempt(plan, seed, 0)
        for _ in range(data.draw(st.integers(0, 6)) if rep.dims else 0):
            j = data.draw(st.integers(0, len(rep.dims) - 1))
            values = list(rep.dims[j].values)
            values[data.draw(st.integers(0, len(values) - 1))] = data.draw(
                st.sampled_from(LANE_VALUES) | st.integers(-2 * g.vertex_count,
                                                           3 * g.vertex_count))
            rep = with_column(rep, j, values)
        for _ in range(data.draw(st.integers(0, 4)) if rep.dims else 0):
            j = data.draw(st.integers(0, len(rep.dims) - 1))
            threshold = data.draw(st.sampled_from([1, g.vertex_count, 2 ** 30 - 1, 2 ** 30])
                                  | st.integers(1, 2 ** 31))
            rep = with_column(rep, j, list(rep.dims[j].values), threshold)
        order = data.draw(st.permutations(range(len(rep.dims))))
        permuted = CubeRepresentation(rep.a_count, rep.b_count,
                                      tuple(rep.dims[j] for j in order),
                                      tuple(rep.provenance[j] for j in order))
        assert verify(permuted, g) == verify(rep, g) == pair_violations(rep, g)

    @pytest.mark.parametrize("g, seed", SWEPT_CASES, ids=["100x200", "edgeless", "one-edge"])
    def test_phase_2_takes_the_dimensions_after_j_star(self, monkeypatch, g, seed):
        # the window pass takes the bit dimensions and the first j* random
        # ones, after which no non-edge is alive; phase 2 packs the rest
        # while an edge is alive, so none where g has no edge
        plan = make_plan(g)
        j_star = len(list(live_rows(plan, seed, 0)))
        assert j_star < plan.t
        packs = counted_packs(monkeypatch)
        assert verify(attempt(plan, seed, 0), g) == []
        assert sum(packs) == (plan.t - j_star if g.edges else 0)

    @pytest.mark.parametrize("g, seed, cut", [
        (*SWEPT_CASES[0], 1), (*SWEPT_CASES[0], 2), (*SWEPT_CASES[0], "all"),
        (RENDERED, 1, 1), (RENDERED, 1, "all"), (*SWEPT_CASES[2], "all"),
    ], ids=["100x200-one", "100x200-two", "100x200-all", "10x20-one", "10x20-all",
            "one-edge"])
    def test_edges_cut_in_the_last_dimension_go_missing(self, g, seed, cut):
        # the dimensions before the last random one represent g, so every
        # non-edge is dead there; a placement moved in the last one so that
        # it cuts the `cut` lowest placed of its vertex's edges makes those
        # edges missing and nothing else
        plan = make_plan(g)
        rep = attempt(plan, seed, 0)
        assert verify(attempt(make_plan(g, plan.t - 1), seed, 0), g) == []
        moved, missing = edges_cut(plan, rep, plan.t - 1, cut)
        assert verify(moved, g) == missing
        if g.vertex_count <= 30:  # the reference takes 44 s at 100+200
            assert oracle_violations(moved, g) == missing


def edges_cut(plan, rep: CubeRepresentation, j: int,
              cut: int | str) -> tuple[CubeRepresentation, list[Violation]]:
    """rep, an attempt of plan, with one placement of its random dimension
    j moved past the `cut` lowest placed neighbours (all of them for
    "all") of the vertex of the unpermuted side with the most neighbours,
    and the missing edges that the move gives where rep represents
    plan.graph: those `cut` edges and nothing else."""
    g, dim = plan.graph, rep.dims[j]
    other = other_side(plan.side)
    offset = {SIDE_A: 0, SIDE_B: g.a_count}
    vertex, neighbours = max(enumerate(g.neighbours(other), 1), key=lambda item: len(item[1]))
    lowest = sorted(neighbours, key=lambda p: dim.values[offset[plan.side] + p])
    cut = len(lowest) if cut == "all" else cut
    assert cut <= len(lowest)
    values = list(dim.values)
    values[offset[other] + vertex - 1] = \
        dim.values[offset[plan.side] + lowest[cut - 1]] + dim.threshold + 1
    missing = sorted(Violation("missing-edge", *sorted([(other, vertex), (plan.side, p + 1)]))
                     for p in lowest[:cut])
    return with_column(rep, j, values), missing


def with_column(rep: CubeRepresentation, j: int, values: list[int],
                threshold: int | None = None) -> CubeRepresentation:
    """rep with the values, and perhaps the threshold, of dimension j
    replaced."""
    dims = list(rep.dims)
    dims[j] = UnitIntervalRep.column(rep.dims[j].verts, values,
                                     threshold or rep.dims[j].threshold)
    return CubeRepresentation(rep.a_count, rep.b_count, tuple(dims), rep.provenance)


# placement values that phase 2 of verify packs into its 32-bit lanes or
# sends to the window pass: below them, at both ends of [0, 2^30), past
# it, and past what a lane and array("I") hold
LANE_VALUES = [-1, 0, 2 ** 30 - 1, 2 ** 30, 2 ** 31, 2 ** 32, 10 ** 20]
# (u's value, v's value, threshold) of one dimension of an edge (u, v), at
# both sides of the edge of its threshold
LANE_GAPS = [(2 ** 31, 0, 2 ** 31), (0, 2 ** 31, 2 ** 31), (2 ** 31, 0, 2 ** 31 - 1),
             (2 ** 32 - 1, 0, 2 ** 30 - 1), (0, 2 ** 32, 2 ** 32), (-1, 0, 1), (0, -2, 1),
             (10 ** 20, 0, 1), (2 ** 30 - 1, 0, 2 ** 30 - 1), (0, 2 ** 30 - 1, 2 ** 30 - 2),
             (2 ** 30, 0, 2 ** 30), (2 ** 30, 1, 2 ** 30 - 2)]


def counted_packs(monkeypatch) -> list[int]:
    """The size of each block that phase 2 of verify packs from now on."""
    sizes, lane_ints = [], builder._lane_ints

    def counting(block):
        sizes.append(len(block))
        return lane_ints(block)

    monkeypatch.setattr(builder, "_lane_ints", counting)
    return sizes


class TestLaneBlocks:
    """Phase 2 of verify checks the surviving edges in blocks of up to
    _LANE_BLOCK dimensions, packed in 32-bit lanes, sends a dimension with
    a value outside [0, 2^30) to the window pass, and stops once no edge is
    alive."""

    @settings(max_examples=150, deadline=None)
    @given(bipartite_graphs(max_a=5, max_b=6), st.integers(0, 2 ** 64 - 1), st.data())
    def test_values_at_and_past_the_lanes_verify_as_the_oracle(self, g, seed, data):
        # t up to 200, so that phase 2 spans several blocks
        plan = make_plan(g, data.draw(st.integers(0, 200)))
        rep = attempt(plan, seed, 0)
        for _ in range(data.draw(st.integers(0, 6)) if rep.dims else 0):
            j = data.draw(st.integers(0, len(rep.dims) - 1))
            values = list(rep.dims[j].values)
            values[data.draw(st.integers(0, len(values) - 1))] = \
                data.draw(st.sampled_from(LANE_VALUES))
            rep = with_column(rep, j, values)
        for _ in range(data.draw(st.integers(0, 3)) if rep.dims else 0):
            j = data.draw(st.integers(0, len(rep.dims) - 1))
            threshold = data.draw(st.sampled_from([2 ** 30 - 1, 2 ** 30, 2 ** 31])
                                  | st.integers(1, 2 ** 31))
            rep = with_column(rep, j, list(rep.dims[j].values), threshold)
        assert verify(rep, g) == oracle_violations(rep, g)

    @pytest.mark.parametrize("at", [0, 63, 64, 129], ids=["first", "end", "second", "last"])
    @pytest.mark.parametrize("gap", LANE_GAPS, ids=str)
    def test_one_dimension_among_boundary_gaps(self, gap, at):
        # the one pair of a graph of one edge is checked in phase 2 from the
        # first dimension on, which is the tested one at `at` of verify's
        # order, tightest threshold first: those before it have thresholds
        # up to c, those after it from c on.  Every other dimension puts the
        # edge's endpoints at exactly their threshold apart, or 2^30 - 1
        # apart where it is larger, either way round, so a carry or borrow
        # from the tested dimension's lane into another, a dimension
        # skipped, or a value mishandled outside the lanes shows
        g = BipartiteGraph(1, 1, frozenset({(1, 1)}))
        verts = vertex_order(1, 1)
        u, v, c = gap
        below, above = [1, min(c, 2 ** 30 - 1)], [c, max(c, 2 ** 30 - 1)]
        thresholds = [(below if i < at else above)[i % 2] for i in range(130)]
        dims = [UnitIntervalRep.column(verts, [0, gap] if i % 2 else [gap, 0], threshold)
                for i, threshold in enumerate(thresholds)
                for gap in [min(threshold, 2 ** 30 - 1)]]
        dims[at] = UnitIntervalRep.column(verts, [u, v], c)
        assert [dim is dims[at] for dim in sorted(dims, key=lambda dim: dim.threshold)
                ].index(True) == at
        rep = CubeRepresentation(1, 1, tuple(dims),
                                 tuple(dim_tag("random", j) for j in range(1, 131)))
        missing = [] if abs(u - v) <= c else [Violation("missing-edge", *verts)]
        assert verify(rep, g) == pair_violations(rep, g) == missing

    @pytest.fixture(scope="class")
    def swept(self):
        """The CI's 100+200 default attempt, which passes, and its j*."""
        g, seed = SWEPT_CASES[0]
        plan = make_plan(g)
        rep = attempt(plan, seed, 0)
        j_star = len(list(live_rows(plan, seed, 0)))
        # phase 2 runs from random dimension j* and spans two blocks, the
        # second partial
        assert 0 < (plan.t - j_star) % builder._LANE_BLOCK < plan.t - j_star
        return plan, rep, j_star

    @pytest.mark.parametrize("where", ["block start", "block end", "last"])
    @pytest.mark.parametrize("cut", [1, "all"])
    def test_edges_cut_in_a_block_go_missing(self, swept, where, cut):
        plan, rep, j_star = swept
        block = builder._LANE_BLOCK
        j = {"block start": j_star + block, "block end": j_star + block - 1,
             "last": plan.t - 1}[where]
        moved, missing = edges_cut(plan, rep, j, cut)
        assert verify(moved, plan.graph) == pair_violations(moved, plan.graph) == missing

    @pytest.mark.parametrize("where", [0, 1, 63], ids=["first", "second", "last"])
    def test_phase_2_stops_once_every_edge_is_cut(self, swept, monkeypatch, where):
        # one dimension of the first phase-2 block places every A vertex at
        # 0 and every B vertex past the threshold: every edge goes missing
        # there, and the blocks after it are not packed
        plan, rep, j_star = swept
        g, j = plan.graph, j_star + where
        c = rep.dims[j].threshold
        moved = with_column(rep, j, [0] * g.a_count + [c + 1] * g.b_count)
        missing = sorted(Violation("missing-edge", (SIDE_A, a), (SIDE_B, b))
                         for a, b in g.edges)
        packs = counted_packs(monkeypatch)
        assert verify(moved, g) == missing
        assert packs == [builder._LANE_BLOCK]
        assert pair_violations(moved, g) == missing

    @pytest.mark.parametrize("cut", [0, 1, "all"])
    def test_a_late_dimension_translated_below_the_lanes(self, swept, cut):
        # every placement of a random dimension in the second block moved
        # by -2^40, which keeps its verdicts, after `cut` edges are cut there
        plan, rep, j_star = swept
        j = j_star + builder._LANE_BLOCK + 1
        moved, missing = edges_cut(plan, rep, j, cut) if cut else (rep, [])
        moved = with_column(moved, j, [x - 2 ** 40 for x in moved.dims[j].values])
        assert verify(moved, plan.graph) == pair_violations(moved, plan.graph) == missing

    @pytest.mark.parametrize("late", [1, 63, 64, 65])
    def test_a_partial_last_block_is_taken(self, swept, late):
        # the attempt cut after j* + late random dimensions, whose last
        # block is partial but for late = 64, still passes
        plan, rep, j_star = swept
        assert verify(attempt(make_plan(plan.graph, j_star + late), SWEPT_CASES[0][1], 0),
                      plan.graph) == []


def normalized_graphs(max_a: int = 4, max_b: int = 5):
    return bipartite_graphs(max_a=max_a, max_b=max_b).map(
        lambda g: g if g.a_count <= g.b_count else
        BipartiteGraph(g.b_count, g.a_count, frozenset((b, a) for a, b in g.edges)))


def swapped_graphs():
    """Graphs whose first side is the larger."""
    return normalized_graphs().filter(lambda g: g.a_count < g.b_count).map(
        lambda g: BipartiteGraph(g.b_count, g.a_count, frozenset((b, a) for a, b in g.edges)))


# b1 sees all three A vertices, no A vertex sees more than two, so
# delta_b > delta_a and side B is permuted
SIDE_B_PERMUTED = BipartiteGraph(3, 4, {(1, 1), (2, 1), (3, 1), (1, 2), (2, 3)})


class TestLiveRows:
    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(bipartite_graphs(max_a=6, max_b=6), st.sampled_from([0, 1, 2, 5, None]),
           st.integers(0, 2 ** 64 - 1))
    # a permuted side of size 1, no dimension, an edgeless graph, a first
    # side that is the larger (and permuted), side B permuted, no cross non-edge
    @example(BipartiteGraph(1, 4, {(1, 2)}), 3, 5)
    @example(BipartiteGraph(4, 1, {(2, 1)}), 3, 5)
    @example(BipartiteGraph(3, 4, {(1, 1), (2, 1)}), 0, 5)
    @example(BipartiteGraph(3, 4, frozenset()), 2, 5)
    @example(BipartiteGraph(5, 3, {(1, 1), (2, 2), (3, 3), (4, 1)}), None, 5)
    @example(SIDE_B_PERMUTED, 5, 5)
    @example(BipartiteGraph(2, 2, {(a, b) for a in (1, 2) for b in (1, 2)}), 2, 5)
    def test_rows_and_j_star_are_the_oracle_loop(self, forks, monkeypatch, g, t, seed):
        plan = make_plan(g, t)
        trials = 5
        for index in range(trials):
            # every row list, and so j*, their number
            assert list(live_rows(plan, seed, index)) == oracle_rows(plan, seed, index)
        assert list(survivor_masks(plan, seed, range(trials))) == [
            oracle_survivors(plan, seed, index) for index in range(trials)]
        expected = sequential_rate(plan, seed, trials)
        assert builder.failure_rate(plan, seed, trials) == expected  # forked when t > 0
        with monkeypatch.context() as alone:
            alone.setattr(builder, "available_cpus", lambda: 1)
            assert builder.failure_rate(plan, seed, trials) == expected
        assert_no_child_left()


class TestAttemptPlan:
    def test_plan_fields(self):
        g = gen_random_bipartite(5, 9, 0.35, seed=4)
        plan = make_plan(g)
        assert plan.t == default_t(plan.profile.delta_prime, 9)
        assert (plan.side, plan.side_size) == (SIDE_A, 5)
        assert [(fam.side, fam.bit_count) for fam in plan.families] == [(SIDE_A, 3), (SIDE_B, 4)]
        assert len(plan.provenance) == plan.t + 3 + 4
        assert make_plan(g, 2).t == 2
        assert make_plan(SIDE_B_PERMUTED).side == SIDE_B
        assert plan.neighbours == neighbour_masks(g, plan.side)

    def test_plan_memory_does_not_grow_with_t(self):
        # the provenance tags are made on first use; a million of them took
        # about 70 MB when every plan made them
        g = gen_random_bipartite(5, 9, 0.35, seed=4)
        tracemalloc.start()
        try:
            plan = make_plan(g, 10 ** 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 ** 6
        assert plan.t == 10 ** 6
        assert make_plan(g, 2).provenance == (
            "random-1", "random-2", "side-a-bit-1", "side-a-bit-2", "side-a-bit-3",
            "side-b-bit-1", "side-b-bit-2", "side-b-bit-3", "side-b-bit-4")
        assert make_plan(flipped(g), 1).provenance == (
            "random-1", "side-b-bit-1", "side-b-bit-2", "side-b-bit-3",
            "side-a-bit-1", "side-a-bit-2", "side-a-bit-3", "side-a-bit-4")

    def test_build_never_makes_the_neighbour_masks(self, monkeypatch):
        # only the probe and the failure estimate read plan.neighbours
        def refuse(g, side):
            raise AssertionError("neighbour_masks was called")

        monkeypatch.setattr(builder, "neighbour_masks", refuse)
        rep, _ = build_representation(K44_MINUS_CORNER, BuildParams(master_seed=0))
        assert verify(rep, K44_MINUS_CORNER) == []

    # both verdicts, side B permuted, and a first side that is the larger
    @pytest.mark.parametrize("g", [K44_MINUS_CORNER, SIDE_B_PERMUTED,
                                   gen_random_bipartite(9, 5, 0.35, seed=4)])
    def test_checked_attempts_are_the_verified_attempts(self, g):
        plan = make_plan(g, 1)
        checked = [checked_attempt(plan, 3, index) for index in range(3)]
        for index, (rep, violations, construct_seconds, verify_seconds) in enumerate(checked):
            assert rep == attempt(plan, 3, index)
            assert violations == verify(rep, g)
            assert construct_seconds >= 0.0 and verify_seconds >= 0.0

    @settings(max_examples=100, deadline=None)
    @given(bipartite_graphs(max_a=6, max_b=6))
    # side maxima tie: 3x2 permutes B, 2x3 and 2x2 permute A; a side of size 1
    @example(BipartiteGraph(3, 2, {(1, 1), (2, 2)}))
    @example(BipartiteGraph(2, 3, {(1, 1), (2, 2)}))
    @example(BipartiteGraph(2, 2, {(1, 1), (2, 2)}))
    @example(BipartiteGraph(4, 1, {(2, 1)}))
    def test_plan_side_is_the_rule(self, g):
        flipped = BipartiteGraph(g.b_count, g.a_count, frozenset((b, a) for a, b in g.edges))
        for h in (g, flipped):
            assert make_plan(h, 0).side == choose_permuted_side(degree_profile(h))

    def test_build_returns_the_passing_attempt(self):
        rep, report = build_representation(
            K44_MINUS_CORNER, BuildParams(master_seed=0, t_override=1))
        assert report.retries == 2
        assert rep == attempt(make_plan(K44_MINUS_CORNER, 1), 0, 2)

    @settings(max_examples=150, deadline=None)
    @given(normalized_graphs(), st.sampled_from([0, 1, 2, None]), st.integers(0, 2 ** 64 - 1))
    # empty, complete, isolated vertices on both sides, sides of size 1, side B
    @example(BipartiteGraph(3, 4, frozenset()), 1, 5)
    @example(BipartiteGraph(2, 3, {(a, b) for a in (1, 2) for b in (1, 2, 3)}), 0, 5)
    @example(BipartiteGraph(3, 4, {(1, 1), (2, 1)}), 2, 5)
    @example(BipartiteGraph(1, 4, {(1, 2)}), 1, 5)
    @example(BipartiteGraph(1, 1, frozenset()), 0, 5)
    @example(SIDE_B_PERMUTED, 1, 5)
    @example(SIDE_B_PERMUTED, None, 5)
    def test_survivors_are_exactly_verify_violations(self, g, t, seed):
        # the filter's pairs are the extra edges verify finds on the very
        # attempt build_representation would check, and verify finds nothing else
        plan = make_plan(g, t)
        trials = 6
        count = g.vertex_count - plan.side_size
        survivors = list(survivor_masks(plan, seed, range(trials)))
        assert len(survivors) == trials
        for index, alive in enumerate(survivors):
            # bit f of entry p: permuted vertex p + 1 with other-side vertex f + 1
            pairs = [(p + 1, f + 1) for p, mask in enumerate(alive)
                     for f in range(count) if mask >> f & 1]
            if plan.side == SIDE_B:
                pairs = [(a, b) for b, a in pairs]
            violations = verify(attempt(plan, seed, index), g)
            assert violations == sorted(Violation("extra-edge", (SIDE_A, a), (SIDE_B, b))
                                        for a, b in pairs)
        rate = estimate_failure_rate(g, BuildParams(master_seed=seed, t_override=t), trials)
        assert rate == sum(map(any, survivors)) / trials

    def test_both_verdicts_on_side_b(self):
        plan = make_plan(SIDE_B_PERMUTED, 4)
        verdicts = {any(alive) for alive in survivor_masks(plan, 3, range(20))}
        assert verdicts == {False, True}

    @settings(max_examples=150, deadline=None)
    @given(swapped_graphs(), st.sampled_from([0, 1, 2, None]), st.integers(0, 2 ** 64 - 1))
    # side maxima tie, so the smaller side B is permuted; a side of size 1
    @example(BipartiteGraph(3, 2, {(1, 1), (2, 2)}), None, 5)
    @example(BipartiteGraph(3, 2, {(1, 1), (2, 2), (3, 1)}), 1, 5)
    @example(BipartiteGraph(4, 1, {(2, 1)}), 1, 5)
    def test_swapped_graph_is_the_normalized_one_swapped_back(self, g, t, seed):
        # a graph whose first side is the larger is planned in its own labels:
        # each attempt, the failure estimate, a build and a failure's pairs
        # are those of the graph with its smaller side first, swapped back
        normalized, swapped = normalize_sides(g)
        assert swapped
        plan, twin = make_plan(g, t), make_plan(normalized, t)
        assert (plan.t, plan.profile.delta_prime) == (twin.t, twin.profile.delta_prime)
        assert (plan.swapped, twin.swapped) == (True, False)
        assert plan.side == other_side(twin.side)
        for index in range(3):
            assert attempt(plan, seed, index) == swap_sides(attempt(twin, seed, index))
        params = BuildParams(master_seed=seed, t_override=t, max_retries=2)
        assert estimate_failure_rate(g, params, 6) == estimate_failure_rate(normalized, params, 6)
        try:
            rep, report = build_representation(g, params)
        except BuildFailure as failure:
            with pytest.raises(BuildFailure) as twin_failure:
                build_representation(normalized, params)
            assert failure.violations == sorted(
                Violation(v.kind, (SIDE_A, v.v[1]), (SIDE_B, v.u[1]))
                for v in twin_failure.value.violations)
        else:
            twin_rep, twin_report = build_representation(normalized, params)
            assert rep == swap_sides(twin_rep)
            assert render_dump(rep, report) == render_dump(rep, twin_report, swapped=True)


# the report key of each tag form, written out here apart from DIM_KINDS
TAG_KEYS = {"random": "t", "side-a-bit": "bits_a", "side-b-bit": "bits_b"}


class TestDimKinds:
    """DIM_KINDS, the one table of dimension kinds, and what reads it."""

    def test_the_table_holds_the_tag_forms_and_keys(self):
        assert {kind: row.key for kind, row in DIM_KINDS.items()} == TAG_KEYS
        # the order in which check_report names the first count that differs
        assert list(kind_counts(())) == ["k", "t", "bits_a", "bits_b"]

    @pytest.mark.parametrize("kind", list(DIM_KINDS))
    def test_each_kind_round_trips_swaps_and_counts(self, kind):
        row = DIM_KINDS[kind]
        for index in (1, 9, 10, 123):
            assert tag_kind(dim_tag(kind, index)) == kind
        assert row.swapped in DIM_KINDS and DIM_KINDS[row.swapped].swapped == kind
        dim = UnitIntervalRep({(SIDE_A, 1): 0, (SIDE_B, 1): 1}, 1)
        rep = CubeRepresentation(1, 1, (dim, dim), (dim_tag(kind, 12), dim_tag(kind, 3)))
        swapped = swap_sides(rep)
        assert swapped.provenance == (dim_tag(row.swapped, 12), dim_tag(row.swapped, 3))
        assert swap_sides(swapped) == rep
        report = {"k": 2, **dict.fromkeys(TAG_KEYS.values(), 0), TAG_KEYS[kind]: 2}
        assert kind_counts(rep.provenance) == report
        builder.check_report(rep, report)
        for key in report:  # one count off: check_report names that key
            with pytest.raises(ValueError, match=f"^report {key} is {report[key] + 1}, "):
                builder.check_report(rep, {**report, key: report[key] + 1})

    @pytest.mark.parametrize("t", [0, 1, None])
    @pytest.mark.parametrize("larger_first", [False, True])
    def test_a_built_dump_reports_the_counts_of_its_tags(self, tmp_path, t, larger_first):
        # every cross pair is an edge, so that t = 0 and t = 1 pass too
        g = (gen_random_bipartite(10, 20, 0.2, seed=3) if t is None else
             BipartiteGraph(3, 9, {(a, b) for a in range(1, 4) for b in range(1, 10)}))
        if larger_first:
            g = BipartiteGraph(g.b_count, g.a_count, frozenset((b, a) for a, b in g.edges))
        out = tmp_path / "dump.json"
        build_representation(g, BuildParams(master_seed=5, t_override=t), out)
        payload = json.loads(out.read_text())
        tags = [dim["provenance"] for dim in payload["dims"]]
        forms = Counter(re.fullmatch(r"(.*)-[1-9][0-9]*", tag)[1] for tag in tags)
        assert set(forms) <= set(TAG_KEYS)
        report = payload["report"]
        assert report["k"] == len(tags) and report["swapped"] is larger_first
        assert {key: report[key] for key in TAG_KEYS.values()} == \
            {key: forms[form] for form, key in TAG_KEYS.items()}
        if t is not None:
            assert report["t"] == t
        # each family counted under the side it separates in g's own labels
        assert (report["bits_a"], report["bits_b"]) == \
            (bit_count_for(g.a_count), bit_count_for(g.b_count))


class TestDumpRoundTrip:
    def test_parse_render_round_trip(self):
        g = gen_random_bipartite(3, 5, 0.5, seed=8)
        rep, report = build_representation(g, BuildParams(master_seed=21))
        assert parse_dump(render_dump(rep, report)) == rep

    @settings(max_examples=200, deadline=None)
    @given(dump_cases())
    @example((CubeRepresentation(1, 1, (), ()), EMPTY_REPORT, False))
    @example((CubeRepresentation(
        1, 12, (UnitIntervalRep(dict.fromkeys(CubeRepresentation(1, 12, (), ()).vertices(), -3), 1),
                UnitIntervalRep({v: v[1] % 4 - 2 for v in CubeRepresentation(
                    1, 12, (), ()).vertices()}, 3)),
        ('q"b\\s\nn', "\u00e9\u2603\U0001f600")), EMPTY_REPORT, True))
    def test_render_equals_json_encoding(self, case):
        assert render_dump(*case) == json_dump(*case)

    @settings(max_examples=100, deadline=None)
    @given(dump_cases())
    @example((CubeRepresentation(1, 1, (), ()), EMPTY_REPORT, False))
    @example((CubeRepresentation(
        1, 12, (UnitIntervalRep(dict.fromkeys(CubeRepresentation(1, 12, (), ()).vertices(), -3), 1),
                UnitIntervalRep({v: v[1] % 4 - 2 for v in CubeRepresentation(
                    1, 12, (), ()).vertices()}, 3)),
        ('q"b\\s\nn', "\u00e9\u2603\U0001f600")), EMPTY_REPORT, True))
    def test_written_bytes_equal_json_encoding(self, tmp_path_factory, case):
        rep, report, swapped = case
        path = tmp_path_factory.getbasetemp() / "written.json"
        write_dump(path, rep, own_report(report, swapped))
        assert path.read_bytes() == json_dump(*case).encode("ascii")

    def test_write_holds_a_small_part_of_the_dump(self, tmp_path):
        # render_dump's peak is about twice the text it returns; the write
        # holds one piece at a time
        g = gen_random_bipartite(100, 200, 4 / 100, seed=1)
        rep, report = build_representation(g, BuildParams(master_seed=5))
        path = tmp_path / "dump.json"
        tracemalloc.start()
        try:
            write_dump(path, rep, report)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size / 4

    def test_truncated_dump_rejected(self):
        g = gen_random_bipartite(3, 5, 0.5, seed=8)
        rep, report = build_representation(g, BuildParams(master_seed=21))
        text = render_dump(rep, report)
        with pytest.raises(ValueError, match="not valid JSON"):
            parse_dump(text[: len(text) // 2])

    def test_repeated_key_rejected(self):
        g = gen_random_bipartite(3, 5, 0.5, seed=8)
        text = render_dump(*build_representation(g, BuildParams(master_seed=21)))
        doubled = text.replace('"A1": ', '"A1": 0, "A1": ', 1)
        with pytest.raises(ValueError, match="repeats the key 'A1'"):
            parse_dump(doubled)

    def test_deep_nesting_rejected(self):
        with pytest.raises(ValueError, match="nests too deeply"):
            parse_dump("[" * 100_000)

    @pytest.mark.parametrize("field, error", [
        # json.loads refuses a number with a plain ValueError, not a
        # JSONDecodeError, and int() a key with Python's own text
        ("placement", "dump holds a number of more than 4300 digits"),
        ("threshold", "dump holds a number of more than 4300 digits"),
        ("key", "vertex key A... has more than 4300 digits"),
    ])
    def test_a_field_of_too_many_digits_rejected(self, field, error):
        with pytest.raises(ValueError) as excinfo:
            parse_dump(long_number(VERIFIED_DUMP, field))
        assert str(excinfo.value) == error

    def test_report_block_excludes_timings_by_default(self):
        g = BipartiteGraph(1, 1, {(1, 1)})
        _, report = build_representation(g, BuildParams(master_seed=3))
        block = report_to_jsonable(report)
        assert "timings" not in block
        assert set(block) == {"k", "t", "bits_a", "bits_b", "retries", "seed",
                              "nominal_bound", "swapped"}
        timed = report_to_jsonable(report, include_timings=True)
        assert timed["timings"]["construct_seconds"] >= 0.0

    def test_nominal_bound_reported(self):
        g = BipartiteGraph(3, 3, {(a, b) for a in (1, 2, 3) for b in (1, 2, 3)})
        _, report = build_representation(g, BuildParams(master_seed=3))
        assert report.nominal_bound == nominal_dimension_bound(3, 3) == 30


def full_parse(text: str) -> CubeRepresentation:
    """parse_dump's full decode alone: the whole text through json.loads
    with the dump hook, then rep_from_jsonable."""
    try:
        payload = json.loads(text, object_pairs_hook=builder._dump_object)
    except json.JSONDecodeError as exc:
        raise ValueError(f"dump is not valid JSON: {exc}") from None
    except RecursionError:
        raise ValueError("dump nests too deeply to be a representation") from None
    return rep_from_jsonable(payload)


def outcome(parse, text: str):
    try:
        return "accepted", parse(text)
    except ValueError as exc:
        return "rejected", str(exc)


CUBES_END = "\n  },\n  \"dims\": "
DIMS_ITEM_MUTATIONS = ("value", "threshold", "swap-keys", "drop-line", "double-line",
                       "tag-escape")
TEXT_MUTATIONS = ("cell", "swap", "delete", "repeat", "cut", "head-space", "second-cubes",
                  *DIMS_ITEM_MUTATIONS)
# A placement line of a dims item, with its key and its value.
PLACEMENT_LINE = re.compile(r'\n        "([AB][0-9]+)": (-?[0-9]+)')


def other_digits(zero: int):
    """x spelled with the ten digits from code point `zero` on."""
    return lambda x: str(x).translate({ord("0") + d: zero + d for d in range(10)})


# Spellings of a placement value x that json.loads reads, or that it refuses.
# int() reads "-0", the leading zero and the last four, each as x but for
# "-0", so pass 1 reads them and pass 2's comparison with the rendering
# turns them down.
VALUE_SPELLINGS = (lambda x: f"{x}.0", lambda x: "true", lambda x: "-0",
                   lambda x: f"-0{-x}" if x < 0 else f"0{x}", lambda x: f"{x}e0",
                   lambda x: f"+{x}", lambda x: f"-0_{-x}" if x < 0 else f"0_{x}",
                   other_digits(0x660), other_digits(0xFF10))  # Arabic-Indic, fullwidth


def mutate_dims_item(draw, text: str, mutation: str) -> str:
    """One edit of a dims item of a canonical dump text, at a drawn place:
    a placement value or a threshold spelled otherwise, two placement keys
    swapped, a placement line dropped or doubled, or a provenance tag
    spelled with a \\u escape for every character.  A text with no dims is
    returned as it is."""
    blocks = list(re.finditer(r'"placement": \{(.*?)\n      \}', text, re.S))
    if not blocks:
        return text
    block = draw(st.sampled_from(blocks))
    start, end = block.span(1)
    lines = list(PLACEMENT_LINE.finditer(text, start, end))
    if mutation == "value":
        line = draw(st.sampled_from(lines))
        spelled = draw(st.sampled_from(VALUE_SPELLINGS))(int(line[2]))
        return text[:line.start(2)] + spelled + text[line.end(2):]
    if mutation == "threshold":
        at = text.index('"threshold": ', end) + len('"threshold": ')
        cut = text.index("\n", at)
        return text[:at] + draw(st.sampled_from(["0", "-1", "true"])) + text[cut:]
    if mutation == "swap-keys":
        first, second = draw(st.lists(st.sampled_from(lines), min_size=2, max_size=2,
                                      unique_by=lambda line: line.start()))
        first, second = sorted((first, second), key=lambda line: line.start())
        return (text[:first.start(1)] + second[1] + text[first.end(1):second.start(1)]
                + first[1] + text[second.end(1):])
    if mutation == "tag-escape":
        at = text.index('"provenance": ', end) + len('"provenance": ')
        cut = text.index("\n", at) - 1  # the comma after the tag
        units = json.loads(text[at:cut]).encode("utf-16-be", "surrogatepass")
        escaped = "".join(f"\\u{units[i]:02X}{units[i + 1]:02X}" for i in range(0, len(units), 2))
        return text[:at] + f'"{escaped}"' + text[cut:]
    entries = text[start:end].split(",")
    i = draw(st.integers(0, len(entries) - 1))
    if mutation == "drop-line":
        del entries[i]
    else:
        entries.insert(i, entries[i])
    return text[:start] + ",".join(entries) + text[end:]


def mutate_dump(draw, text: str, mutation: str) -> str:
    """One edit of a canonical dump text, at a drawn place: in its header or
    cubes block, or in a dims item (mutate_dims_item)."""
    if mutation in DIMS_ITEM_MUTATIONS:
        return mutate_dims_item(draw, text, mutation)
    start = text.index('"cubes": {') + len('"cubes": {')
    end = text.index(CUBES_END)
    rows = re.split(r',(?=\n    ")', text[start:end])
    if mutation == "cell":
        cells = [m.end() for m in re.finditer(r'\n        "', text[start:end])]
        if not cells:
            return text
        at = start + draw(st.sampled_from(cells))
        return text[:at] + "9" + text[at:]
    if mutation == "swap":
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
        rows[i], rows[j] = rows[j], rows[i]
    elif mutation == "delete":
        del rows[draw(st.integers(0, len(rows) - 1))]
    elif mutation == "repeat":
        i = draw(st.integers(0, len(rows) - 1))
        rows.insert(i, rows[i])
    elif mutation == "cut":
        return text[:draw(st.integers(start, end))]
    elif mutation == "head-space":
        at = draw(st.sampled_from([m.end() for m in re.finditer(": ", text[:start])]))
        return text[:at] + " " + text[at:]
    elif mutation == "second-cubes":
        return text.replace('\n  "report": ', '\n  "cubes": {},\n  "report": ', 1)
    return text[:start] + ",".join(rows) + text[end:]


@st.composite
def mutated_dumps(draw):
    """The canonical text of a dump_cases representation and one edit of it:
    (text, mutated text)."""
    rep, report, swapped = draw(dump_cases())
    text = render_dump(rep, report, swapped)
    return text, mutate_dump(draw, text, draw(st.sampled_from(TEXT_MUTATIONS)))


def walked(text: str) -> tuple[CubeRepresentation, object] | None:
    """The stream reader's result on a text given in one piece: the
    dimensions and the report that pass 1 reads when pass 2 accepts the
    text, else None."""
    def chunks():
        return iter((text,))

    try:
        read = builder._dims_pass(chunks())
    except (ValueError, RecursionError):
        return None
    return read if builder._layout_accepted(chunks, read[0]) else None


def walk(text: str) -> CubeRepresentation | None:
    """The dimensions of walked(text), or None."""
    read = walked(text)
    return read and read[0]


class TestCanonicalParse:
    @settings(max_examples=100, deadline=None)
    @given(dump_cases())
    @example((CubeRepresentation(1, 1, (), ()), EMPTY_REPORT, False))
    # pass 1 ends an item's placement block at its first "}": a tag may
    # hold "}" too, and its JSON escape the characters of _ITEM_END but
    # for the line break
    @example(tagged("}"))
    @example(tagged("a}b"))
    @example(tagged("\n    }"))
    def test_canonical_text_skips_the_cubes(self, case):
        rep = case[0]
        assert walk(render_dump(*case)) == rep

    @settings(max_examples=300, deadline=None)
    @given(mutated_dumps())
    def test_edited_text_is_read_as_the_full_decode_reads_it(self, tmp_path_factory, case):
        # the stream reader accepts exactly the unedited text, and reads it
        # to what the full decode reads, field by field
        text, mutated = case
        read = walked(mutated)
        assert (read is None) == (mutated != text)
        if read is not None:
            payload = json.loads(mutated)
            assert read == (rep_from_jsonable(payload), payload["report"])
        expected = outcome(full_parse, mutated)
        assert outcome(parse_dump, mutated) == expected
        # read from a file, with its pieces cut at every few characters, and
        # from a CRLF copy, which reads back as the same text
        path = tmp_path_factory.getbasetemp() / "mutated.json"
        crlf = tmp_path_factory.getbasetemp() / "mutated-crlf.json"
        encoding = locale.getpreferredencoding(False)  # as read_dump reads a file
        path.write_bytes(mutated.encode(encoding))
        crlf.write_bytes(mutated.replace("\n", "\r\n").encode(encoding))
        for size in (1, 7, 4096):
            with mock.patch.object(builder, "_READ_PIECE", size):
                assert outcome(read_dump, path) == expected
                assert outcome(read_dump, crlf) == expected

    def test_parse_holds_less_than_the_text(self):
        # the full decode's peak was 2.79 times the text, with its cubes
        # block held whole until the block was complete
        g = gen_random_bipartite(100, 200, 4 / 100, seed=1)
        rep, report = build_representation(g, BuildParams(master_seed=5))
        text = render_dump(rep, report)
        tracemalloc.start()
        try:
            parsed = parse_dump(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert parsed == rep and peak < len(text)
        compact = json.dumps(json.loads(text))
        assert walk(compact) is None
        assert parse_dump(compact) == rep

    def test_read_holds_a_small_part_of_the_dump(self, tmp_path):
        # the parse of the text, read whole, peaked at 1.5 times the file
        # beside the text itself; the stream reader holds about two pieces
        g = gen_random_bipartite(100, 200, 4 / 100, seed=1)
        rep, report = build_representation(g, BuildParams(master_seed=5))
        path = tmp_path / "dump.json"
        write_dump(path, rep, report)
        with mock.patch.object(builder, "_READ_PIECE", 64 * 1024):
            tracemalloc.start()
            try:
                parsed = read_dump(path)
                retained, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert parsed == rep and peak - retained < path.stat().st_size / 4

    def test_placements_that_no_table_holds_are_read_by_pass_1(self):
        # pass 1 reads most placements through the spelling table, as the
        # objects of shared_ints; -1 and 2^40 are not among its words, so
        # int() reads them, as new ints
        verts = CubeRepresentation(100, 50, (), ()).vertices()
        values = [-1, 1 << 40, *range(2, len(verts))]
        rep = CubeRepresentation(100, 50, (UnitIntervalRep(dict(zip(verts, values)), 3),),
                                 ("random-1",))
        text = render_dump(rep, EMPTY_REPORT)
        assert '"A1": -1,' in text and f'"A2": {1 << 40},' in text
        assert walk(text) == rep == rep_from_jsonable(json.loads(text))

    @pytest.mark.parametrize("spell", VALUE_SPELLINGS, ids=lambda spell: spell(12))
    def test_a_placement_spelled_otherwise_takes_the_full_decode(self, tmp_path, spell):
        line = PLACEMENT_LINE.search(VERIFIED_DUMP, VERIFIED_DUMP.index('"placement": {'))
        edited = VERIFIED_DUMP[:line.start(2)] + spell(int(line[2])) + VERIFIED_DUMP[line.end(2):]
        assert walk(edited) is None
        path = tmp_path / "edited.json"
        path.write_bytes(edited.encode(locale.getpreferredencoding(False)))
        expected = outcome(full_parse, edited)
        assert outcome(parse_dump, edited) == outcome(read_dump, path) == expected

    def test_an_edited_cube_cell_takes_the_full_decode(self, tmp_path):
        # the cell stays well formed, so only its value differs from the
        # rendering of the placements
        rep = CubeRepresentation(1, 1, (UnitIntervalRep({(SIDE_A, 1): 0, (SIDE_B, 1): 1}, 1),),
                                 ("random-1",))
        text = render_dump(rep, EMPTY_REPORT)
        cell = '"A1": [\n      [\n        "0",\n        "1"\n      ]'
        assert cell in text
        edited = text.replace(cell, cell.replace('"0"', '"5"').replace('"1"', '"6"'))
        assert walk(text) == rep and walk(edited) is None
        path = tmp_path / "edited.json"
        path.write_text(edited)
        expected = outcome(full_parse, edited)
        assert outcome(parse_dump, edited) == expected
        assert outcome(read_dump, path) == expected

    def test_sides_of_more_than_99_vertices_round_trip(self, tmp_path):
        # A100 sorts before A11 and A2 as a string, and B100 before B11
        a_count, b_count = 103, 101
        verts = CubeRepresentation(a_count, b_count, (), ()).vertices()
        rep = CubeRepresentation(a_count, b_count, (
            UnitIntervalRep({v: i for i, v in enumerate(verts)}, 3),
            UnitIntervalRep({v: -(i * 7 % 11) for i, v in enumerate(verts)}, 2)),
            ("random-1", "side-a-bit-1"))
        text = render_dump(rep, EMPTY_REPORT)
        assert text == json_dump(rep, EMPTY_REPORT, False)
        assert text.index('"A100"') < text.index('"A11"') < text.index('"A2"')
        assert walk(text) == rep
        path = tmp_path / "wide.json"
        path.write_text(text)
        assert parse_dump(text) == rep and read_dump(path) == rep

    @pytest.mark.parametrize("edit, error", [
        ("drop", "dimension 0 placement does not cover the vertex set"),
        ("double", "dump repeats the key 'A2' in one object"),
        ("undeclared", "dim 0: vertex A9 outside declared counts"),
    ])
    def test_a_placement_of_another_length_is_refused_in_pass_1(self, monkeypatch,
                                                                  edit, error):
        # a column one value short or long would fail in the rendering of
        # pass 2 with an IndexError or a TypeError, not a verdict
        rep = CubeRepresentation(2, 1, (UnitIntervalRep(
            {(SIDE_A, 1): 0, (SIDE_A, 2): 5, (SIDE_B, 1): 1}, 2),), ("random-1",))
        text = render_dump(rep, EMPTY_REPORT)
        line = '\n        "A2": 5'
        assert line + "," in text
        edited = {"drop": text.replace(line + ",", "", 1),
                  "double": text.replace(line, line + "," + line, 1),
                  "undeclared": text.replace(line, line + ',\n        "A9": 0', 1)}[edit]
        with pytest.raises(ValueError, match="does not hold 3 integers"):
            builder._dims_pass(iter((edited,)))
        layout, rendered = builder._layout_pieces, []

        def recording_layout(rep):
            rendered.append(rep)
            return layout(rep)

        monkeypatch.setattr(builder, "_layout_pieces", recording_layout)
        assert outcome(parse_dump, edited) == outcome(full_parse, edited) == ("rejected", error)
        assert rendered == []

    @pytest.mark.parametrize("a_count, error", [
        (MAX_VERTICES, f"dump declares {MAX_VERTICES}+1 vertices, more than the limit of "
                       f"{MAX_VERTICES}"),
        (0, "side counts must be >= 1"),
    ])
    def test_counts_out_of_range_are_refused_before_any_table(self, a_count, error):
        # a table of MAX_VERTICES vertex keys alone is megabytes
        rep = CubeRepresentation(1, 1, (UnitIntervalRep({(SIDE_A, 1): 0, (SIDE_B, 1): 1}, 1),),
                                 ("random-1",))
        text = render_dump(rep, EMPTY_REPORT).replace('"a_count": 1,', f'"a_count": {a_count},')
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="counts that the full decode refuses"):
                builder._dims_pass(iter((text,)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64_000
        assert outcome(parse_dump, text) == outcome(full_parse, text) == ("rejected", error)

    @pytest.mark.parametrize("row, decode_error", [
        ('[[["0"]]]', None),
        ('[[[]], 0]', None),
        ('[["[0", "1"]]', None),
        ('[[{"0": 1}]]', None),
        ("[" * 100_000 + "]" * 100_000, "nests too deeply"),
    ])
    def test_cube_row_nested_deeper_takes_the_full_decode(self, row, decode_error):
        # a row that the full decode can decode is refused by the cube
        # check: a dump of no dimensions holds an empty row per vertex
        text = render_dump(CubeRepresentation(1, 1, (), ()), EMPTY_REPORT)
        nested = text.replace('"A1": []', '"A1": ' + row)
        assert walk(nested) is None
        error = decode_error or f"cubes of A1 hold {len(json.loads(row))} cells for 0 dims"
        with pytest.raises(ValueError, match=error):
            parse_dump(nested)

    @pytest.mark.parametrize("pattern, replacement", [
        ('"threshold": ', '"extra": 0,\n      "threshold": '),
        ('\n      "provenance": "random-1",', ""),
        ('"provenance": "random-1"', '"provenance": 1'),
        ('"provenance": "random-1"', '"provenance": null'),
        ('"threshold": 1', '"threshold": 0'),
        ('"A1": 0', '"A1": null'),
        ('"report": {[^}]*}', '"report": [[1]]'),
        ('"report": {[^}]*}', '"report": {"k": {"t": 1}}'),
        ('"report": {[^}]*}', '"report": 0, "a_count": 1'),
        (',\n  "report"', '\n  "report"'),
    ])
    def test_other_dims_items_and_reports_take_the_full_decode(self, pattern, replacement):
        rep = CubeRepresentation(1, 1, (UnitIntervalRep({(SIDE_A, 1): 0, (SIDE_B, 1): 1}, 1),),
                                 ("random-1",))
        edited = re.sub(pattern, replacement, render_dump(rep, EMPTY_REPORT))
        assert walk(edited) is None
        assert outcome(parse_dump, edited) == outcome(full_parse, edited)

    @pytest.mark.parametrize("pattern, replacement", [
        ('"threshold": ', '"extra": NEST,\n      "threshold": '),
        ('"report": {[^}]*}', '"report": NEST'),
    ])
    def test_walker_turns_down_what_the_full_decode_cannot_read(self, pattern, replacement):
        # pass 1 reads a dims item by its layout and decodes no nesting of
        # it, and pass 2 accepts only a dims item that is rendered and a
        # report with one bracket at most, so the stream reader turns down
        # every text that reaches the full decode's recursion limit
        rep = CubeRepresentation(1, 1, (UnitIntervalRep({(SIDE_A, 1): 0, (SIDE_B, 1): 1}, 1),),
                                 ("random-1",))
        template = re.sub(pattern, replacement, render_dump(rep, EMPTY_REPORT))

        def nested(depth: int) -> str:
            return template.replace("NEST", "[" * depth + "]" * depth)

        def decoded(depth: int) -> bool:
            return outcome(builder._decode_dump, nested(depth))[0] == "accepted"

        low, high = 1, 100_000  # the least depth the full decode refuses is in (low, high]
        assert decoded(low) and not decoded(high)
        while high - low > 1:
            middle = (low + high) // 2
            low, high = (middle, high) if decoded(middle) else (low, middle)
        assert walk(nested(high)) is None
        assert outcome(parse_dump, nested(high))[0] == "rejected"


VERIFIED = gen_random_bipartite(20, 40, 0.1, seed=1)
VERIFIED_DUMP = render_dump(*build_representation(VERIFIED, BuildParams(master_seed=7)))


def moved_placements(text: str, count: int = 1) -> str:
    """The canonical dump text with `count` placements moved beyond every
    other of their dimension, each of another A vertex of VERIFIED with an
    edge and in another random dimension, from random-1 on, and their cubes
    rewritten to match, as the verify-dump benchmark corrupts its dump: the
    dump is consistent, and every edge at a moved vertex is lost."""
    payload = json.loads(text)
    vertices = sorted({a for a, _ in VERIFIED.edges})[:count]
    positions = [i for i, d in enumerate(payload["dims"])
                 if d["provenance"].startswith("random-")][:count]
    for a, pos in zip(vertices, positions):
        dim = payload["dims"][pos]
        moved = max(dim["placement"].values()) + dim["threshold"] + 1
        dim["placement"][f"A{a}"] = moved
        low = Fraction(moved, dim["threshold"])
        payload["cubes"][f"A{a}"][pos] = [str(low), str(low + 1)]
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def without_a_placement(text: str) -> str:
    payload = json.loads(text)
    del payload["dims"][0]["placement"]["A1"]
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def swapped_placement_lines(text: str) -> str:
    """The dump text with the first two lines of its first placement
    swapped: pass 1 reads it, pass 2 turns it down, and the full decode
    reads it as the unedited text."""
    head = text.index('"placement": {\n') + len('"placement": {\n')
    first = text.index("\n", head) + 1
    second = text.index("\n", first) + 1
    return text[:head] + text[first:second] + text[head:first] + text[second:]


OTHER_COUNTS = BipartiteGraph(VERIFIED.a_count, VERIFIED.b_count + 1, VERIFIED.edges)
# name: (dump text, graph, whether pass 1 reads its dimensions and report,
# so that verify_dump forks on two CPUs; it reads no report from a text that
# goes on past the report, or repeats a key in it)
VERIFY_CASES = {
    "canonical": (VERIFIED_DUMP, VERIFIED, True),
    "crlf": (VERIFIED_DUMP.replace("\n", "\r\n"), VERIFIED, True),
    "indent-4": (json.dumps(json.loads(VERIFIED_DUMP), indent=4) + "\n", VERIFIED, False),
    "compact": (json.dumps(json.loads(VERIFIED_DUMP)), VERIFIED, False),
    "cut-in-cubes": (VERIFIED_DUMP[:VERIFIED_DUMP.index('"dims"') // 2], VERIFIED, False),
    "cut-in-dims": (VERIFIED_DUMP[:VERIFIED_DUMP.index('"report"') - 300], VERIFIED, False),
    "trailing-data": (VERIFIED_DUMP + "{}\n", VERIFIED, False),
    "repeated-key": (VERIFIED_DUMP.replace('"report": {', '"report": {\n    "k": 0,', 1),
                     VERIFIED, False),
    "moved-placement": (moved_placements(VERIFIED_DUMP), VERIFIED, True),
    "stale-cube": (stale_cube(VERIFIED_DUMP), VERIFIED, True),
    "missing-placement": (without_a_placement(VERIFIED_DUMP), VERIFIED, False),
    "other-counts": (VERIFIED_DUMP, OTHER_COUNTS, True),
    "other-counts-stale-cube": (stale_cube(VERIFIED_DUMP), OTHER_COUNTS, True),
}


def verdict(call):
    """("returned", what call() returns) or (the type, the text) of the
    exception it raises."""
    try:
        return "returned", call()
    except Exception as exc:
        return type(exc), str(exc)


def read_then_verify(path, g):
    """The verdict verify_dump should give: read_dump, check_report of the
    report that the json module reads, then verify."""
    def reference():
        rep = read_dump(path)
        builder.check_report(rep, json.loads(Path(path).read_text()).get("report"))
        return verify(rep, g)

    return verdict(reference)


def open_descriptors() -> list[str]:
    """This process's open file descriptors, where the platform lists them."""
    return sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else []


@st.composite
def verified_dumps(draw):
    """A dump_cases text, perhaps edited once (see mutate_dump), and a graph
    of its counts, or of one vertex more: (text, graph)."""
    rep, report, swapped = draw(dump_cases())
    if draw(st.booleans()):  # a dump whose report and tags check_report accepts
        tags = st.builds("{}-{}".format, st.sampled_from(list(DIM_KINDS)), st.integers(1, 12))
        rep = CubeRepresentation(rep.a_count, rep.b_count, rep.dims,
                                 tuple(draw(tags) for _ in rep.dims))
        report = matching_report(rep, swapped)
    text = render_dump(rep, report, swapped)
    mutation = draw(st.sampled_from(("none", *TEXT_MUTATIONS)))
    if mutation != "none":
        text = mutate_dump(draw, text, mutation)
    cells = [(a, b) for a in range(1, rep.a_count + 1) for b in range(1, rep.b_count + 1)]
    edges = frozenset(draw(st.sets(st.sampled_from(cells))))
    return text, BipartiteGraph(rep.a_count, rep.b_count + draw(st.integers(0, 1)), edges)


class TestLayoutBeside:
    """verify_dump(path, g) is verify(read_dump(path), g), with the layout
    check in a forked child or in this process, and leaves nothing behind."""

    @pytest.mark.parametrize("cpus", [2, 1])
    @pytest.mark.parametrize("case", VERIFY_CASES)
    def test_verify_dump_is_verify_of_read_dump(self, forks, monkeypatch, tmp_path,
                                                case, cpus):
        text, g, forking = VERIFY_CASES[case]
        path = tmp_path / "dump.json"
        path.write_bytes(text.encode("ascii"))
        expected = read_then_verify(path, g)
        monkeypatch.setattr(builder, "available_cpus", lambda: cpus)
        descriptors = open_descriptors()
        for piece in (7, builder._READ_PIECE):
            with mock.patch.object(builder, "_READ_PIECE", piece):
                assert verdict(lambda: verify_dump(path, g)) == expected
        assert len(forks) == (2 if forking and cpus == 2 else 0)
        assert open_descriptors() == descriptors
        assert_no_child_left()

    def test_the_cases_give_every_verdict(self, tmp_path):
        # the full decode's error text wins over verify's, as with
        # verify(read_dump(path), g), and moving a placement loses an edge
        verdicts = {}
        for case, (text, g, _) in VERIFY_CASES.items():
            path = tmp_path / f"{case}.json"
            path.write_bytes(text.encode("ascii"))
            verdicts[case] = read_then_verify(path, g)
        assert verdicts["canonical"] == verdicts["crlf"] == verdicts["indent-4"] == \
            verdicts["compact"] == ("returned", [])
        assert verdicts["moved-placement"][0] == "returned"
        assert any(v.kind == "missing-edge" for v in verdicts["moved-placement"][1])
        assert verdicts["stale-cube"] == verdicts["other-counts-stale-cube"] == \
            (ValueError, "dim 0: cube of A1 differs from its placement")
        assert verdicts["other-counts"][0] is ValueError
        assert verdicts["other-counts"][1].startswith("vertex mismatch")
        for case in ("cut-in-cubes", "cut-in-dims", "trailing-data", "repeated-key",
                     "missing-placement"):
            assert verdicts[case][0] is ValueError

    @pytest.mark.parametrize("cpus", [2, 1])
    def test_the_benchmark_inputs_take_no_full_decode(self, forks, monkeypatch, tmp_path,
                                                      cpus):
        # the verify-dump benchmark alternates an exact canonical dump and a
        # canonical copy with three placements moved
        def no_full_decode(text):
            raise AssertionError("the full decode ran")

        monkeypatch.setattr(builder, "_decode_dump", no_full_decode)
        monkeypatch.setattr(builder, "available_cpus", lambda: cpus)
        exact, corrupted = tmp_path / "exact.json", tmp_path / "corrupted.json"
        exact.write_text(VERIFIED_DUMP)
        corrupted.write_text(moved_placements(VERIFIED_DUMP, 3))
        assert verify_dump(exact, VERIFIED) == []
        violations = verify_dump(corrupted, VERIFIED)
        assert {v.kind for v in violations} == {"missing-edge"}
        assert {v.u for v in violations} == {(SIDE_A, a)
                                             for a in sorted({a for a, _ in VERIFIED.edges})[:3]}
        assert len(forks) == (2 if cpus == 2 else 0)
        assert_no_child_left()

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
    @pytest.mark.parametrize("cpus", [2, 1])
    @pytest.mark.parametrize("case", ["canonical", "moved-placement", "stale-cube",
                                      "other-counts"])
    def test_a_dump_through_a_fifo(self, forks, monkeypatch, tmp_path, case, cpus):
        # the text comes from another process, so that no thread runs here
        text, g, _ = VERIFY_CASES[case]
        source, fifo = tmp_path / "dump.json", tmp_path / "dump.fifo"
        source.write_text(text)
        expected = read_then_verify(source, g)
        monkeypatch.setattr(builder, "available_cpus", lambda: cpus)
        os.mkfifo(fifo)
        writer = subprocess.Popen(["sh", "-c", 'cat "$0" > "$1"', str(source), str(fifo)])
        try:
            assert verdict(lambda: verify_dump(fifo, g)) == expected
        finally:
            writer.wait(timeout=30)
        assert len(forks) == (1 if cpus == 2 else 0)
        assert_no_child_left()

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(verified_dumps(), st.sampled_from([1, 2]), st.sampled_from([7, 1 << 20]))
    def test_edited_dumps_verify_as_read_then_verify(self, forks, tmp_path_factory,
                                                     case, cpus, piece):
        text, g = case
        path = tmp_path_factory.getbasetemp() / "verified.json"
        path.write_bytes(text.encode("utf-8"))
        expected = read_then_verify(path, g)
        calls = []

        def counted(rep, g):
            calls.append(rep)
            return verify(rep, g)

        with mock.patch.object(builder, "available_cpus", lambda: cpus), \
                mock.patch.object(builder, "_READ_PIECE", piece), \
                mock.patch.object(builder, "verify", counted):
            assert verdict(lambda: verify_dump(path, g)) == expected
        assert len(calls) <= (1 if cpus == 1 else 2)
        assert_no_child_left()

    @pytest.mark.parametrize("cpus, case, calls", [
        (1, "canonical", 1), (1, "swapped-lines", 1),
        (2, "canonical", 1), (2, "swapped-lines", 2)])
    def test_verify_calls_per_dump(self, forks, monkeypatch, tmp_path, cpus, case, calls):
        # without a child, pass 2 runs before verification, so a text that
        # it turns down is verified once, after the full decode; a child's
        # verdict comes after the proposal has been verified beside it
        text = VERIFIED_DUMP if case == "canonical" else swapped_placement_lines(VERIFIED_DUMP)
        path = tmp_path / "dump.json"
        path.write_text(text)
        expected = read_then_verify(path, VERIFIED)
        monkeypatch.setattr(builder, "available_cpus", lambda: cpus)
        verified = recorded_verifies(monkeypatch)
        assert verdict(lambda: verify_dump(path, VERIFIED)) == expected == ("returned", [])
        assert len(verified) == calls and verified[-1] == parse_dump(VERIFIED_DUMP)
        assert len(forks) == (1 if cpus == 2 else 0)
        assert_no_child_left()

    @pytest.mark.parametrize("how", ["read_dump", "verify_dump beside", "verify_dump here"])
    def test_a_dump_read_back_shares_its_ints(self, forks, monkeypatch, tmp_path, how):
        # one int object per value, as in the random dimensions a build
        # draws; past 128 vertices, placements exceed the ints that Python
        # caches
        g = gen_random_bipartite(50, 100, 0.06, seed=1)
        path = tmp_path / "dump.json"
        write_dump(path, *build_representation(g, BuildParams(master_seed=1)))
        monkeypatch.setattr(builder, "available_cpus", lambda: 1 if how.endswith("here") else 2)
        verified = recorded_verifies(monkeypatch)
        if how == "read_dump":
            rep = read_dump(path)
        else:
            assert verify_dump(path, g) == []
            [rep] = verified
        assert len(forks) == (how == "verify_dump beside")
        assert rep == parse_dump(path.read_text())
        values = [x for dim in rep.dims for x in dim.values]
        assert max(values) > 256 and len(set(map(id, values))) == len(set(values))
        assert_no_child_left()

    @pytest.mark.parametrize("failure", ["raises", "killed", "short reply"])
    @pytest.mark.parametrize("case", ["canonical", "stale-cube", "other-counts"])
    def test_a_failed_child_is_checked_here(self, forks, monkeypatch, tmp_path,
                                            failure, case):
        text, g, _ = VERIFY_CASES[case]
        path = tmp_path / "dump.json"
        path.write_text(text)
        expected = read_then_verify(path, g)
        parent, layout, write = os.getpid(), builder._layout_accepted, os.write
        checked_here = []

        def failing_in_child(*args):
            if os.getpid() != parent:
                if failure == "raises":
                    raise RuntimeError("the child fails")
                if failure == "killed":
                    os.kill(os.getpid(), signal.SIGKILL)
            else:
                checked_here.append(True)
            return layout(*args)

        def short_in_child(fd, data):
            return write(fd, data[:3] if os.getpid() != parent else data)

        monkeypatch.setattr(builder, "_layout_accepted", failing_in_child)
        if failure == "short reply":
            monkeypatch.setattr(os, "write", short_in_child)
        assert verdict(lambda: verify_dump(path, g)) == expected
        assert len(forks) == 1 and checked_here == [True]
        assert_no_child_left()

    def test_interrupt_during_verify_kills_and_reaps_the_child(self, forks, monkeypatch,
                                                               tmp_path):
        # the child would check for a minute: only a kill ends it in time
        parent, layout = os.getpid(), builder._layout_accepted

        def slow_in_child(*args):
            if os.getpid() != parent:
                time.sleep(60)
            return layout(*args)

        def interrupted(rep, g):
            raise KeyboardInterrupt

        monkeypatch.setattr(builder, "_layout_accepted", slow_in_child)
        monkeypatch.setattr(builder, "verify", interrupted)
        path = tmp_path / "dump.json"
        path.write_text(VERIFIED_DUMP)
        descriptors = open_descriptors()
        started = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            verify_dump(path, VERIFIED)
        assert time.monotonic() - started < 30
        assert len(forks) == 1
        assert open_descriptors() == descriptors
        assert_no_child_left()

    @pytest.mark.parametrize("why", ["another thread", "one CPU", "small dump", "fork refused"])
    def test_no_fork(self, forks, monkeypatch, tmp_path, why):
        # pass 2 runs once, here, before verification
        rep = parse_dump(VERIFIED_DUMP)
        cells = VERIFIED.vertex_count * rep.dimension
        monkeypatch.setattr(builder, "MIN_CHILD_CELLS", cells + (why == "small dump"))
        if why == "one CPU":
            monkeypatch.setattr(builder, "available_cpus", lambda: 1)
        if why == "fork refused":
            def refuse():
                raise OSError("no process to spare")

            monkeypatch.setattr(os, "fork", refuse)
        path = tmp_path / "dump.json"
        path.write_text(VERIFIED_DUMP)
        expected = read_then_verify(path, VERIFIED)
        parent, layout, checked = os.getpid(), builder._layout_accepted, []

        def recording(*args):
            checked.append("layout here" if os.getpid() == parent else "layout in a child")
            return layout(*args)

        def recording_verify(rep, g):
            checked.append("verify")
            return verify(rep, g)

        monkeypatch.setattr(builder, "_layout_accepted", recording)
        monkeypatch.setattr(builder, "verify", recording_verify)
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        if why == "another thread":
            thread.start()
        try:
            assert verdict(lambda: verify_dump(path, VERIFIED)) == expected == ("returned", [])
        finally:
            stop.set()
            if thread.is_alive():
                thread.join()
        assert forks == [] and checked == ["layout here", "verify"]

    def test_a_dump_of_min_child_cells_is_checked_beside(self, forks, monkeypatch, tmp_path):
        rep = parse_dump(VERIFIED_DUMP)
        monkeypatch.setattr(builder, "MIN_CHILD_CELLS", VERIFIED.vertex_count * rep.dimension)
        path = tmp_path / "dump.json"
        path.write_text(VERIFIED_DUMP)
        assert verify_dump(path, VERIFIED) == []
        assert len(forks) == 1
        assert_no_child_left()

    def test_plain_reads_never_fork(self, forks, tmp_path):
        path = tmp_path / "dump.json"
        path.write_text(VERIFIED_DUMP)
        assert read_dump(path) == parse_dump(VERIFIED_DUMP)
        assert forks == []


def test_default_t_is_at_most_integer_ceiling_product():
    # ceil(3 (d + 1) ln n2) never exceeds 3 (d + 1) ceil(ln n2) except for the
    # deliberate clamp to 1 at n2 = 1
    for d in range(0, 8):
        for n2 in range(2, 40):
            assert default_t(d, n2) <= 3 * (d + 1) * math.ceil(math.log(n2))
