"""Assemble random and bit-family dimensions, verify exactly, retry on failure.

The result is unconditionally correct: a returned representation has been
checked edge set against edge set with integer arithmetic.  Randomness only
affects how many attempts that takes.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import random
import re
import signal
import sys
import tempfile
import threading
import time
from array import array
from collections import Counter
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial, reduce
from itertools import accumulate, chain, compress, islice
from operator import and_, itemgetter, ne, not_, or_, sub
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple

from .bitfamily import BitEncodingFamily, build_bit_family
from .graphs import (
    MAX_VERTICES,
    SIDE_A,
    SIDE_B,
    BipartiteGraph,
    DegreeProfile,
    Vertex,
    degree_profile,
    vertex_order,
)
from .intervals import (
    CubeRepresentation,
    DIM_KINDS,
    UnitIntervalRep,
    cell_rows,
    dim_tag,
    kind_counts,
    rep_from_jsonable,
    rep_to_jsonable,  # noqa: F401  unused here; the benchmark's traced replica patches it
    tag_kind,
    vertex_key,
)
from .randomized import (
    MASK64,
    choose_permuted_side,
    neighbour_masks,
    random_permutation,  # noqa: F401  unused here; the benchmark's traced replica patches it
    shared_ints,
    shuffled_ranks,
    supergraph_from_permutation,  # noqa: F401  likewise
    supergraph_from_ranks,
)


class Violation(NamedTuple):
    """One disagreement between a representation and the target graph."""

    kind: str  # "extra-edge" or "missing-edge"
    u: Vertex
    v: Vertex


class BuildFailure(RuntimeError):
    """Raised when no verified representation was produced; carries the
    violations of the last attempt."""

    def __init__(self, message: str, violations: list[Violation]):
        super().__init__(message)
        self.violations = violations


@dataclass(frozen=True)
class BuildParams:
    master_seed: int
    t_override: int | None = None
    max_retries: int = 16

    def __post_init__(self) -> None:
        if self.max_retries < 1:
            raise ValueError(f"max_retries must be >= 1, got {self.max_retries}")
        if self.t_override is not None and self.t_override < 0:
            raise ValueError(f"t_override must be >= 0, got {self.t_override}")


@dataclass(frozen=True)
class BuildReport:
    """What a build reports, in the labels of the graph it was given: its
    first four fields are kind_counts' in order, and `swapped` is set when
    that graph's first side is the larger."""

    dimension: int  # k, the total number of dimensions
    t: int
    bits_a: int
    bits_b: int
    retries: int
    seed: int
    nominal_bound: int
    construct_seconds: float
    verify_seconds: float
    swapped: bool = False
    write_seconds: float = 0.0  # from a passing verification to the dump in place


def default_t(delta_prime: int, n2: int) -> int:
    """Random-dimension count making one attempt fail with probability at
    most 1/n2; clamped to at least 1 so small sides still get a dimension."""
    return max(1, math.ceil(3 * (delta_prime + 1) * math.log(n2)))


def nominal_dimension_bound(delta_prime: int, n2: int) -> int:
    """Reported comparison value 3 * (delta_prime + 2) * ceil(ln n2)."""
    return 3 * (delta_prime + 2) * math.ceil(math.log(n2))


def verify(rep: CubeRepresentation, g: BipartiteGraph) -> list[Violation]:
    """Exact check that the dims' intersection graph equals g: all
    violations, order-normalized; an empty list means the representation is
    exact.

    Vertices are indexed in canonical order (A1..An1, B1..Bn2), the order
    of each dimension's value column (CubeRepresentation checks that every
    dimension is one), and each vertex i keeps an integer bitset alive[i]
    whose bit j (j > i) is set while the pair (i, j) is adjacent in every
    dimension seen so far.  The intersection does not depend on the order
    of the dimensions, so they are taken tightest threshold first, in their
    own order among equal thresholds: in an attempt, the bit dimensions and
    then random dimensions 0..t-1.

    Phase 1, while some same-side pair or cross non-edge is alive, is the
    window pass (_window_cut): per dimension, the vertices sorted by
    placement give prefix OR-masks, the vertices within the threshold of i
    form one contiguous run of that order, so alive[i] is cut by a single
    XOR of two prefixes, and an empty bitset is skipped.  The bit
    dimensions empty the bitsets of most vertices early.  In phase 2 only
    edges are alive, kept as two lists of endpoint indices, and the further
    dimensions are taken in blocks of up to _LANE_BLOCK until no edge is
    alive.  A block whose values all lie in [0, 2^30) is packed into one
    int per vertex, 32 bits a dimension (_lane_ints), and each edge is
    checked in all of the block's dimensions at once by two additions on
    the difference of its endpoints' ints (_lane_kept); the edges that fail
    are cut.  A block holding a value outside [0, 2^30), negative or large,
    takes the window pass whole instead, and the surviving edges are then
    read again from the bitsets.  A phase-1 dimension costs O(n log n)
    interpreted steps plus O(n^2 / 64) word operations; a phase-2 block
    O(n) steps to pack and O(m) big-int steps for m surviving edges.
    Memory is O(n^2) bits.
    """
    if rep.a_count != g.a_count or rep.b_count != g.b_count:
        raise ValueError(
            f"vertex mismatch: representation is {rep.a_count}+{rep.b_count}, "
            f"graph is {g.a_count}+{g.b_count}")
    verts = vertex_order(g.a_count, g.b_count)
    count = len(verts)
    bit = [1 << i for i in range(count)]
    full = (1 << count) - 1
    alive = [full ^ ((b << 1) - 1) for b in bit]
    edges = [0] * count
    for a, b in g.edges:
        edges[a - 1] |= bit[g.a_count + b - 1]
    dims = iter(sorted(rep.dims, key=lambda dim: dim.threshold))
    # phase 1 while some row holds a pair that is no edge, phase 2 after it
    while any(map(ne, map(and_, alive, edges), alive)) and \
            (dim := next(dims, None)) is not None:
        _window_cut(alive, bit, dim)
    us, vs = _surviving_edges(g, alive, bit)
    while us and (block := list(islice(dims, _LANE_BLOCK))):
        xs = _lane_ints(block)
        if xs is None:
            for dim in block:
                _window_cut(alive, bit, dim)
            us, vs = _surviving_edges(g, alive, bit)
            continue
        kept = _lane_kept(block, xs, us, vs)
        if not all(kept):
            for u, v in compress(zip(us, vs), map(not_, kept)):
                alive[u] ^= bit[v]
            us, vs = list(compress(us, kept)), list(compress(vs, kept))
    violations = []
    for i, u in enumerate(verts):
        for kind, pairs in (("extra-edge", alive[i] & ~edges[i]),
                            ("missing-edge", edges[i] & ~alive[i])):
            while pairs:
                low = pairs & -pairs
                violations.append(Violation(kind, u, verts[low.bit_length() - 1]))
                pairs ^= low
    return sorted(violations)


# The C type of a 32-bit lane: an unsigned int, 4 bytes wherever CPython
# runs.  _lane_ints packs a block's placements as these, so a value outside
# [0, 2^32) raises OverflowError and sends the block to the window pass, and
# _packed packs the lane constants of _lane_kept the same way.
_COLUMN_TYPE = "I"

# Most dimensions that phase 2 of verify packs into one int per vertex.  It
# bounds what the packing holds at a time, about 12 bytes x vertices x
# _LANE_BLOCK (the packed array, its bytes and the ints): 0.7 MB at 900
# vertices.
_LANE_BLOCK = 64


def _window_cut(alive: list[int], bit: list[int], dim: UnitIntervalRep) -> None:
    """Cut from each bitset alive[i] the vertices out of reach of vertex i
    in `dim`: the vertices sorted by placement give prefix OR-masks, and
    the vertices within the threshold of i form one contiguous run of that
    order, found by two pointers, so alive[i] is cut by one XOR of two
    prefixes.  Empty bitsets are skipped.  Exact for any int values."""
    values, c = dim.values, dim.threshold
    count = len(values)
    order = sorted(range(count), key=values.__getitem__)
    ranked = list(map(values.__getitem__, order))
    prefix = [0, *accumulate(map(bit.__getitem__, order), or_)]
    lo = hi = 0
    for i, x in compress(zip(order, ranked), map(alive.__getitem__, order)):
        while ranked[lo] < x - c:
            lo += 1
        while hi < count and ranked[hi] <= x + c:
            hi += 1
        alive[i] &= prefix[hi] ^ prefix[lo]


def _surviving_edges(g: BipartiteGraph, alive: list[int],
                     bit: list[int]) -> tuple[list[int], list[int]]:
    """The edges of g whose pair is alive, as two lists of endpoint
    indices, A then B."""
    us, vs = [], []
    for u, ns in enumerate(g.neighbours(SIDE_A)):
        for v in ns:
            if alive[u] & bit[g.a_count + v]:
                us.append(u)
                vs.append(g.a_count + v)
    return us, vs


def _packed(lanes: Iterable[int]) -> int:
    """The int whose 32-bit lane j, from the lowest, holds the j-th of
    `lanes`, each in [0, 2^32): OverflowError otherwise."""
    return int.from_bytes(array(_COLUMN_TYPE, lanes), "little")


def _lane_ints(block: list[UnitIntervalRep]) -> list[int] | None:
    """One int per vertex, in canonical order, whose lane j holds the
    vertex's value in the j-th dimension of `block`; None when some value
    lies outside [0, 2^30)."""
    try:
        packed = array(_COLUMN_TYPE, chain.from_iterable(zip(*(dim.values for dim in block))))
    except OverflowError:  # below 0 or from 2^32 on
        return None
    width = packed.itemsize * len(block)
    packed = packed.tobytes()
    xs = [int.from_bytes(packed[i:i + width], "little") for i in range(0, len(packed), width)]
    return None if reduce(or_, xs) & _packed([3 << 30] * len(block)) else xs


def _lane_kept(block: list[UnitIntervalRep], xs: list[int], us: list[int],
               vs: list[int]) -> list[bool]:
    """For each edge (us[e], vs[e]), whether it is adjacent in every
    dimension of `block`, whose values are packed into `xs` (_lane_ints).

    With d = xs[u] - xs[v] and H the top bit of every lane, lane j of
    d + LOW is x_u - x_v + 2^31 + c_j and lane j of d + UP is x_u - x_v +
    2^31 - c_j - 1: for values in [0, 2^30) and c_j < 2^30 both lie in
    [1, 2^32 - 2], so no lane borrows or carries, and the top bit of the
    first is set iff x_u - x_v >= -c_j, that of the second clear iff
    x_u - x_v <= c_j.  A threshold from 2^30 on is taken as 2^30 - 1,
    which no gap of such values exceeds, so no verdict changes."""
    cs = [min(dim.threshold, (1 << 30) - 1) for dim in block]
    high = _packed([1 << 31] * len(block))
    low = _packed([(1 << 31) + c for c in cs])
    up = _packed([(1 << 31) - c - 1 for c in cs])
    ds = map(sub, _getter(us)(xs), _getter(vs)(xs))
    return [(d + low) & high == high and not (d + up) & high for d in ds]


def _getter(indices: list[int]) -> itemgetter:
    """An itemgetter that takes a sequence to its items at `indices`, as a
    sequence also when there is one index (itemgetter of one index gives
    the item itself)."""
    if len(indices) == 1:
        return itemgetter(slice(indices[0], indices[0] + 1))
    return itemgetter(*indices)


@dataclass(frozen=True)
class BuildPlan:
    """What all attempts on one graph share, in that graph's labels; the
    degree profile is kept for d' and the probe.  `families` holds both bit
    families in attempt order, `bit_dims` their dimensions, and `swapped`
    says the graph's first side is the larger."""

    graph: BipartiteGraph
    t: int
    profile: DegreeProfile
    side: str
    side_size: int
    families: tuple[BitEncodingFamily, BitEncodingFamily]
    bit_dims: tuple[UnitIntervalRep, ...]
    swapped: bool

    @cached_property
    def provenance(self) -> tuple[str, ...]:
        """The tag of every dimension of an attempt, in attempt order, made
        on first use: a plan that no attempt is built from (the probe's)
        holds nothing that grows with t."""
        kind = {row.family: kind for kind, row in DIM_KINDS.items()}  # None: random
        return (tuple(dim_tag(kind[None], j + 1) for j in range(self.t))
                + tuple(dim_tag(kind[fam.side], i + 1)
                        for fam in self.families for i in range(fam.bit_count)))

    @cached_property
    def neighbours(self) -> list[int]:
        """neighbour_masks of the permuted side, made on first use."""
        return neighbour_masks(self.graph, self.side)

    @cached_property
    def non_edge_rows(self) -> list[int]:
        """Entry p: the bitset of the cross non-edges of permuted vertex
        p + 1, bit f for other-side vertex f + 1; made on first use."""
        full = (1 << (self.graph.vertex_count - self.side_size)) - 1
        return [full ^ mask for mask in self.neighbours]


def make_plan(g: BipartiteGraph, t_override: int | None = None) -> BuildPlan:
    """The plan of g, in g's own labels; t is t_override, or default_t of d'
    and the larger side when that is None.

    The paper names the smaller side first (n1 <= n2) only as a labelling
    convention.  The permuted side is choose_permuted_side's and the smaller
    side's bit family comes first (side A's when the sides are equal), so
    when g's first side is the larger, an attempt on g is the attempt on g
    with its sides swapped, swapped back.
    """
    profile = degree_profile(g)
    swapped = g.a_count > g.b_count
    t = t_override if t_override is not None else \
        default_t(profile.delta_prime, max(g.a_count, g.b_count))
    side = choose_permuted_side(profile)
    sides = (SIDE_B, SIDE_A) if swapped else (SIDE_A, SIDE_B)
    families = tuple(build_bit_family(g, s) for s in sides)
    return BuildPlan(g, t, profile, side, g.side_count(side), families,
                     tuple(rep for fam in families for rep in fam.reps), swapped)


def dimension_rngs(master_seed: int, index: int, t: int) -> Iterator[random.Random]:
    """The generators of random dimensions 0..t-1 of attempt `index`: one
    random.Random, made from derive_seed(master_seed, index, 0) and
    reseeded in turn to derive_seed(master_seed, index, j).  Reseeding
    leaves it in the state make_rng of that seed would build, at less cost
    than building a new one; each generator is in that state only until
    the next is drawn.  None is made when t = 0.  The hash of the master
    seed and the index, derive_seed's prefix, is made once per call and
    copied per j.

    Random.seed of an int seeds the base generator and clears gauss_next;
    the two are done here without its type checks, which cost about 0.8 us
    of a 14 us draw.  The draw pin checks that the state is make_rng's."""
    prefix = hashlib.blake2b(digest_size=8)
    prefix.update((master_seed & MASK64).to_bytes(8, "little"))
    prefix.update((index & MASK64).to_bytes(8, "little"))
    rng = reseed = None
    for j in range(t):
        h = prefix.copy()
        h.update(j.to_bytes(8, "little"))
        seed = int.from_bytes(h.digest(), "little")
        if rng is None:
            rng = random.Random(seed)
            reseed = super(random.Random, rng).seed
        else:
            reseed(seed)
            rng.gauss_next = None
        yield rng


def attempt(plan: BuildPlan, master_seed: int, index: int) -> CubeRepresentation:
    """Attempt `index`: its t random dimensions, then both bit families.
    Random dimension j is the supergraph of the permutation that
    shuffled_ranks draws from derive_seed(master_seed, index, j)
    (dimension_rngs), so each is the same whatever was drawn before.  The
    ranks are a bijection as drawn, so no Permutation checks them again."""
    g, side, size = plan.graph, plan.side, plan.side_size
    drawn = tuple(supergraph_from_ranks(shuffled_ranks(size, rng), side, g)
                  for rng in dimension_rngs(master_seed, index, plan.t))
    return CubeRepresentation(g.a_count, g.b_count, drawn + plan.bit_dims, plan.provenance)


def checked_attempt(plan: BuildPlan, master_seed: int, index: int,
                    render: Callable[[CubeRepresentation], None] | None = None
                    ) -> tuple[CubeRepresentation, list[Violation], float, float]:
    """Attempt `index` of plan (see `attempt`), the violations verify finds
    in it against plan.graph, and the seconds spent constructing it and
    verifying it; an internal RuntimeError if an edge went missing.

    With `render`, the attempt is handed to it before verify is called: a
    build with a dump forks its render child there (_RenderedBeside.render),
    and the seconds constructing the attempt count that fork too."""
    started = time.perf_counter()
    rep = attempt(plan, master_seed, index)
    if render is not None:
        render(rep)
    built = time.perf_counter()
    violations = verify(rep, plan.graph)
    if any(v.kind == "missing-edge" for v in violations):
        # Retrying cannot help: every dimension is meant to be a supergraph.
        raise RuntimeError(f"internal error: an edge went missing: {violations}")
    return rep, violations, built - started, time.perf_counter() - built


def build_representation(
    g: BipartiteGraph, params: BuildParams, out: str | Path | None = None
) -> tuple[CubeRepresentation, BuildReport]:
    """Build a verified representation of g, whichever side comes first: the
    first attempt that passes (checked_attempt), among at most max_retries
    (one when t = 0, since every attempt is then the same); else
    BuildFailure lists the last one's surviving pairs in g's labels.

    With `out`, the result's dump is written there, as write_dump writes it,
    once it has passed; nothing is written on BuildFailure.  Each attempt
    is then drawn whole here, and a forked render child renders its dump
    while this process verifies it (_RenderedBeside), unless _Children
    forbids a fork or the dump has fewer than MIN_CHILD_CELLS cells
    (vertices x k).  On a pass `out` is opened, which truncates the file
    there while the render child may still render, and then that child is
    reaped and its dump is copied to `out` in the kernel
    (_RenderedBeside.send); a failed attempt's render child is killed and
    reaped, and its dump dropped.  When the render child cannot be forked
    or fails, or the copy does, write_dump writes the dump here instead, to
    the same bytes.  No child, no temporary file and no pipe outlives the
    call.

    report.construct_seconds is the time spent drawing all t random
    dimensions of each attempt and assembling it, and forking its render
    child.  report.verify_seconds is the time in verify, and
    report.write_seconds the time from the passing verification to the
    dump in place."""
    plan = make_plan(g, params.t_override)
    counts = kind_counts(plan.provenance)  # k and each kind's, as check_report counts

    def report(index: int, construct: float = 0.0, check: float = 0.0,
               write: float = 0.0) -> BuildReport:
        return BuildReport(
            *counts.values(),
            retries=index,
            seed=params.master_seed & MASK64,
            nominal_bound=nominal_dimension_bound(
                plan.profile.delta_prime, max(g.a_count, g.b_count)),
            construct_seconds=construct,
            verify_seconds=check,
            swapped=plan.swapped,
            write_seconds=write)

    construct_seconds = verify_seconds = 0.0
    with ExitStack() as files, _Children() as children:
        forking = (out is not None and children.allowed
                   and g.vertex_count * counts["k"] >= MIN_CHILD_CELLS)
        for index in range(params.max_retries if plan.t else 1):
            rendering = _RenderedBeside(children, files, report(index)) if forking else None
            rep, violations, built, checked = checked_attempt(
                plan, params.master_seed, index, rendering.render if rendering else None)
            construct_seconds += built
            verify_seconds += checked
            if violations:
                if rendering is not None:
                    rendering.drop()
                continue
            write_seconds = 0.0
            if out is not None:
                passed = time.perf_counter()
                if rendering is None or not rendering.send(out):
                    write_dump(out, rep, report(index))
                write_seconds = time.perf_counter() - passed
            return rep, report(index, construct_seconds, verify_seconds, write_seconds)
    raise BuildFailure(
        f"verification still failing after {params.max_retries} attempts" if plan.t else
        "zero random dimensions cannot remove cross non-edges", violations)


class _RenderedBeside:
    """The dump of one attempt of a build, rendered by a forked child while
    this process verifies the attempt.

    The render child renders the attempt, which it inherits through the
    fork, into an unnamed temporary file (_render_into) and replies the
    dump's size; when it cannot be forked or fails, `send` says so."""

    def __init__(self, children: "_Children", files: ExitStack, report: BuildReport) -> None:
        self.children, self.files, self.report = children, files, report
        self.pid = None

    def render(self, rep: CubeRepresentation) -> None:
        """Fork the render child of rep's dump."""
        self.dump = self.files.enter_context(tempfile.TemporaryFile())
        self.pid = self.children.fork(partial(_render_into, self.dump.fileno(), rep, self.report))

    def drop(self) -> None:
        """Kill and reap the render child of a failed attempt, if it runs,
        and close its dump."""
        if self.pid is not None:
            self.children.kill(self.pid)
            self.pid = None
            self.dump.close()

    def send(self, out: str | Path) -> bool:
        """Open `out` as write_dump opens it, truncating the file there
        while the render child may still render, then reap the child and
        copy its dump into it (_send_file); False, with `out` emptied or
        part written, when there is no child, it exited non-zero or replied
        short, or the copy failed.  When the open raises, the child is left
        to _Children, which kills and reaps it."""
        if self.pid is None:
            return False
        with open(out, "w") as target:
            size = self.children.reply(self.pid)
            self.pid = None
            return size is not None and _send_file(self.dump, target, size)


def live_rows(plan: BuildPlan, master_seed: int, index: int) -> Iterator[list[int]]:
    """After each random dimension j = 1, 2, ... of attempt(plan,
    master_seed, index), in turn, the cross non-edges adjacent in all of
    dimensions 1..j: entry p is the bitset of the live non-edges of permuted
    vertex p + 1, bit f for other-side vertex f + 1.  It stops after t
    dimensions, or after the first that leaves nothing live, and draws none
    when nothing is live to begin with, so the number of lists it yields is
    j*, the dimensions an attempt needs: t or fewer.  Each list is the last
    one (plan.non_edge_rows before the first) ANDed with reached_below of
    the dimension's ranks, made in one walk in rank order that cuts only
    the live rows; the caller must not change it.
    """
    size, neighbours = plan.side_size, plan.neighbours
    alive = plan.non_edge_rows
    if not any(alive):
        return
    for rng in dimension_rngs(master_seed, index, plan.t):
        at_rank = [0] * size
        for p, r in enumerate(shuffled_ranks(size, rng)):
            at_rank[r - 1] = p
        cut, seen = [0] * size, 0
        for p in at_rank:
            row = alive[p]
            if row:
                cut[p] = row & seen
            seen |= neighbours[p]
        alive = cut
        yield alive
        if not any(alive):
            return


def survivor_masks(plan: BuildPlan, master_seed: int,
                   attempts: range) -> Iterator[list[int]]:
    """For each attempt index in `attempts`, in turn, the cross non-edges
    adjacent in all t random dimensions of attempt(plan, master_seed, index),
    as live_rows gives them: its last list, or plan.non_edge_rows when it
    yields none.  Dimensions past the first that leaves nothing live are not
    drawn, since every dimension has its own seed.
    """
    for index in attempts:
        alive = plan.non_edge_rows
        for alive in live_rows(plan, master_seed, index):
            pass
        yield alive


# Fewest dimension draws (trials x t, shared out over the processes) that
# make a forked child worth its cost.  On a 2-CPU x86-64 host under
# Python 3.11, forking a child, reading its pipe and reaping it took
# 2.0-3.2 ms (median 2.3 ms of 40), and one draw of live_rows, with its
# share of its attempt's set-up, 12 us at side size 2 (about 3 draws an
# attempt) and 15-17 us at side size 30 (30x60 graphs at t = 50, about 46
# draws an attempt); the survivor loop before it took 18 and 21-22 us.  A
# block of 1000 draws is still 12 ms or more, four times a fork or more.
MIN_CHILD_DRAWS = 1000

# Fewest cells (vertices x k) of a dump that make work on it in a forked
# child, beside verification, worth its cost: build_representation's render
# child and verify_dump's layout check.  On the same host,
# gen_random_bipartite(n, 2n, 4/n, 1) graphs built with --out, and their
# dumps verified, with the child against without it (the middle of three
# runs, each the medians of 40 alternating calls): builds at 18,960 cells
# +0.4 ms (+3%), 24,750 -1.6 ms (-9%), 26,220 -1.1 ms (-7%), 29,580 -1.3 ms
# (-7%), 30,780 -2.0 ms (-10%), 32,562 -2.4 ms (-12%), 35,532 -0.4 ms (-2%),
# 37,818 -0.1 ms (-0%), 39,975 -2.4 ms (-10%), 40,320 -2.7 ms (-11%) and
# 42,588 -3.7 ms (-15%); verify_dump at 18,960 +1.8 ms (+12%), 24,750
# -0.3 ms (-1%), 26,220 +0.1 ms (+1%), 29,580 -1.1 ms (-5%), 30,780 -0.9 ms
# (-4%), 32,562 -1.4 ms (-5%), 35,532 -0.7 ms (-2%), 37,818 -0.4 ms (-1%),
# 39,975 -1.9 ms (-6%), 40,320 -1.8 ms (-6%) and 42,588 -2.5 ms (-7%).  The
# build crossed over between 18,960 and 24,750 cells and verify_dump near
# 26,000, so from 24,000 to there its child gains about nothing (+0.1 ms
# at 26,220); runs of these sizes vary by several ms.
MIN_CHILD_CELLS = 24_000


def available_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


class _Children:
    """The children that one call forks, each to compute one int beside it.
    Every caller forks a child, does its own work, then acts on the
    child's one reply (`reply` or `result`).

    `allowed` says whether this process may fork at all: os.fork exists, no
    other thread runs (forking a threaded process can deadlock), and a
    second CPU is there to run a child.  Used as a context manager, it
    reaps on leaving every child not yet reaped, and kills it first when
    the block raises (a KeyboardInterrupt, say), so no child outlives it.
    A child's memory is not part of this process's peak RSS."""

    def __init__(self) -> None:
        self.allowed = (hasattr(os, "fork") and threading.active_count() == 1
                        and available_cpus() >= 2)
        self.running: dict[int, int] = {}  # pid -> read end of its reply pipe

    def __enter__(self) -> "_Children":
        return self

    def __exit__(self, kind, value, traceback) -> None:
        for pid in list(self.running):
            if kind is not None:
                os.kill(pid, signal.SIGKILL)
            self._reap(pid)

    def fork(self, compute: Callable[[], int]) -> int | None:
        """Fork a child that writes compute() to a pipe, as 8 little-endian
        bytes, and nothing else, and leaves by os._exit: it flushes no
        inherited buffer and runs no exit handler.  Returns its pid, or None
        when no process can be forked.  The child runs with the cyclic
        garbage collector off: no compute makes a cycle, and a collection in
        a forked child would copy every page it scans."""
        read, write = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(read)
            os.close(write)
            return None
        if pid == 0:
            status = 1
            try:
                os.close(read)
                gc.disable()
                value = compute()
                os.write(write, value.to_bytes(8, "little"))
                status = 0
            finally:
                os._exit(status)
        os.close(write)
        self.running[pid] = read
        return pid

    def reply(self, pid: int) -> int | None:
        """Wait for child `pid` and reap it: the int it wrote, or None when
        it exited non-zero or replied short.  A pipe write of at most
        PIPE_BUF bytes is atomic, so one read gets the whole reply or none."""
        reply = os.read(self.running[pid], 8)
        status = self._reap(pid)
        return int.from_bytes(reply, "little") if status == 0 and len(reply) == 8 else None

    def result(self, pid: int | None, compute: Callable[[], int]) -> int:
        """The reply of child `pid` (see `reply`), once it is reaped, or
        compute() in this process when pid is None or the child exited
        non-zero or replied short."""
        reply = None if pid is None else self.reply(pid)
        return compute() if reply is None else reply

    def kill(self, pid: int) -> None:
        """Kill child `pid` and reap it."""
        os.kill(pid, signal.SIGKILL)
        self._reap(pid)

    def _reap(self, pid: int) -> int:
        status = os.waitpid(pid, 0)[1]
        os.close(self.running.pop(pid))
        return status


def _failures(plan: BuildPlan, master_seed: int, attempts: range) -> int:
    """How many of `attempts` leave some cross non-edge alive."""
    return sum(map(any, survivor_masks(plan, master_seed, attempts)))


def failure_rate(plan: BuildPlan, master_seed: int, trials: int) -> float:
    """Fraction of the single attempts 0..trials-1 (no retry) whose
    verification fails: those that leave some cross non-edge alive (see
    survivor_masks).

    The attempts are independent, so they are counted in contiguous blocks
    by up to one process per available CPU: this one counts the last block,
    and a forked child counts each other block and sends back only its
    count.  There is one process per trial at most, and one per
    MIN_CHILD_DRAWS of trials x t; there is no child where _Children allows
    no fork.  The rate is the same float either way.  A block whose child
    cannot be forked, exits non-zero or replies short is counted here
    instead (_Children.result).  Every child is reaped before the call
    returns; on an exception (such as KeyboardInterrupt) the children are
    killed first.  A child's memory is not part of this process's peak
    RSS."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    plan.non_edge_rows  # made once, with plan.neighbours, before any fork
    with _Children() as children:
        workers = 1
        if children.allowed:
            workers = max(1, min(available_cpus(), trials, trials * plan.t // MIN_CHILD_DRAWS))
        bounds = [trials * i // workers for i in range(workers + 1)]
        *blocks, own = [partial(_failures, plan, master_seed, attempts)
                        for attempts in map(range, bounds, bounds[1:])]
        pids = [children.fork(block) for block in blocks]
        failures = own()
        for pid, block in zip(pids, blocks):
            failures += children.result(pid, block)
    return failures / trials


def estimate_failure_rate(g: BipartiteGraph, params: BuildParams, trials: int) -> float:
    """failure_rate of `trials` attempts on g, seeded as build_representation
    seeds them: counted by up to one process per available CPU, to the same
    value as in one process (see failure_rate)."""
    return failure_rate(make_plan(g, params.t_override), params.master_seed, trials)


def report_to_jsonable(report: BuildReport, swapped: bool | None = None,
                       include_timings: bool = False) -> dict:
    """Report block for dumps and machine output.  Wall times are excluded
    unless asked for, so dump bytes stay identical across reruns.

    Left out, `swapped` is report.swapped and the block shows the report as
    it is.  Given, it is for the report of a build on the normalized graph
    whose representation was then swapped back (swap_sides): it sets the
    block's flag, and when True gives each kind's count (report key, as
    BuildReport names its field) to its DIM_KINDS partner's key, so that
    bits_a and bits_b follow the dump's labels."""
    counts = {row.key: getattr(report, row.key) for row in DIM_KINDS.values()}
    if swapped is None:
        swapped = report.swapped
    elif swapped:
        counts = {row.key: counts[DIM_KINDS[row.swapped].key] for row in DIM_KINDS.values()}
    out = {
        "k": report.dimension,
        **counts,
        "retries": report.retries,
        "seed": report.seed,
        "nominal_bound": report.nominal_bound,
        "swapped": swapped,
    }
    if include_timings:
        out["timings"] = {
            "construct_seconds": report.construct_seconds,
            "verify_seconds": report.verify_seconds,
            "write_seconds": report.write_seconds,
        }
    return out


@lru_cache(maxsize=16)
def _key_order(a_count: int, b_count: int) -> tuple[tuple[str, ...], itemgetter, itemgetter]:
    """The order in which a dump writes the vertices of a_count + b_count
    vertices, made once per size, so that the rendering and pass 1 of the
    stream reader follow one order: the vertex keys sorted as strings (A10
    before A2), an itemgetter that takes values in canonical order to the
    tuple of them in key order, and one back; with two vertices or more,
    both give tuples."""
    keys = [vertex_key(v) for v in vertex_order(a_count, b_count)]
    order = sorted(range(len(keys)), key=keys.__getitem__)
    where = sorted(range(len(order)), key=order.__getitem__)
    return tuple(keys[i] for i in order), itemgetter(*order), itemgetter(*where)


def _layout_pieces(rep: CubeRepresentation) -> Iterator[str]:
    """The canonical dump text of rep before its report, in order and in
    pieces: the header, one piece per cubes row (its key, and after the
    first row the comma before it), one piece per dimension, likewise, then
    the end of the dims list when there is one.  A piece is formatted only
    when it is asked for, so a consumer holds one piece at a time; each
    column is taken in key order (_key_order) by one itemgetter call, once.

    The cube cell text of a placement value is made on its first lookup,
    once per distinct value and threshold (cell_rows), and every placement
    block is one %-format of a template that holds all keys.  Provenance
    tags go through json.dumps, which keeps its escaping.
    """
    keys, in_key_order, _ = _key_order(rep.a_count, rep.b_count)
    placement = ",".join(f'\n        "{key}": %d' for key in keys)
    columns = [in_key_order(dim.values) for dim in rep.dims]
    yield ('{\n  "a_count": ' + str(rep.a_count)
           + ',\n  "b_count": ' + str(rep.b_count) + ',\n  "cubes": {')
    rows = cell_rows(rep.dims, columns, '[\n        "%s",\n        "%s"\n      ]'.__mod__)
    for i, (key, row) in enumerate(zip(keys, rows)):
        cube = "[\n      " + ",\n      ".join(row) + "\n    ]" if row else "[]"
        yield f'{"," if i else ""}\n    "{key}": {cube}'
    yield '\n  },\n  "dims": ' + ("[" if rep.dims else "[]")
    for i, (dim, column, tag) in enumerate(zip(rep.dims, columns, rep.provenance)):
        yield (("," if i else "") + '\n    {\n      "placement": {'
               + placement % column
               + '\n      },\n      "provenance": ' + json.dumps(tag)
               + ',\n      "threshold": ' + str(dim.threshold) + "\n    }")
    if rep.dims:
        yield "\n  ]"


def _dump_pieces(rep: CubeRepresentation, report: BuildReport,
                 swapped: bool | None = None) -> Iterator[str]:
    """The canonical dump text of render_dump, in order and in pieces: those
    of _layout_pieces, then the report block, which goes through json.dumps."""
    yield from _layout_pieces(rep)
    yield (',\n  "report": ' + json.dumps(report_to_jsonable(report, swapped=swapped),
                                          sort_keys=True, indent=2).replace("\n", "\n  ")
           + "\n}\n")


def render_dump(rep: CubeRepresentation, report: BuildReport,
                swapped: bool | None = None) -> str:
    """Canonical dump text: representation plus report, stable bytes for
    identical (graph, seed, params); `swapped` as in report_to_jsonable.

    The text is exactly json.dumps(payload, sort_keys=True, indent=2) + "\n"
    for payload = rep_to_jsonable(rep) plus the "report" block: the pieces
    of _dump_pieces, joined.
    """
    return "".join(_dump_pieces(rep, report, swapped))


def write_dump(path: str | Path, rep: CubeRepresentation, report: BuildReport) -> None:
    """Write render_dump(rep, report) to `path`, with the encoding and
    newline handling of Path.write_text, one piece of _dump_pieces at a
    time: the whole text is never held, so the write's peak memory is a
    small fraction of the dump's size."""
    with open(path, "w") as out:
        out.writelines(_dump_pieces(rep, report))


def _render_into(fd: int, rep: CubeRepresentation, report: BuildReport) -> int:
    """Write render_dump(rep, report) to the empty file open at descriptor
    `fd`, as write_dump writes it, and return the bytes written; run in the
    render child of a build (_RenderedBeside)."""
    with open(fd, "w", closefd=False) as out:
        out.writelines(_dump_pieces(rep, report))
    return os.lseek(fd, 0, os.SEEK_CUR)


def _send_file(source, target, size: int) -> bool:
    """Copy the first `size` bytes of the file object `source` to the empty
    file object `target` by os.sendfile, without passing them through this
    process; False, with `target` perhaps part written, when sendfile fails
    or the source ends first."""
    offset = 0
    try:
        while offset < size:
            sent = os.sendfile(target.fileno(), source.fileno(), offset, size - offset)
            if not sent:
                return False
            offset += sent
    except OSError:
        return False
    return True


def _dump_object(pairs: list[tuple[str, object]]) -> dict:
    """json object hook for dumps.  It refuses repeated keys, which json.loads
    would otherwise merge silently, last value winning."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        counts = Counter(key for key, _ in pairs)
        repeated = next(key for key, n in counts.items() if n > 1)
        raise ValueError(f"dump repeats the key {repeated!r} in one object")
    return obj


# Characters read from a dump file at a time.
_READ_PIECE = 1 << 20

# The text render_dump writes before the first cubes row.
_DUMP_HEAD = re.compile(r'\{\n  "a_count": ([0-9]+),\n  "b_count": ([0-9]+),\n  "cubes": \{')

# How _layout_pieces writes a dims item, from its indent to its closing
# brace: the start, up to the first placement line; the end of the
# placement block, up to the provenance tag; the text between the tag and
# the threshold; and the end.
_ITEM_HEAD = '    {\n      "placement": {'
_ITEM_TAG = '\n      },\n      "provenance": '
_ITEM_THRESHOLD = ',\n      "threshold": '
_ITEM_END = "\n    }"


def _item_fields(item: str, count: int) -> tuple[list[int], int, str]:
    """The placement values, in the order of their keys, the threshold and
    the provenance tag of a dims item laid out as _layout_pieces writes it,
    `item` running from its indent through _ITEM_END; ValueError where they
    are not `count` ints, a positive int and a str.

    The fields are read by where they stand, not by their keys: each
    placement line splits at its whitespace into its key and its value
    with the comma after it, so the values are every second word of the
    block, each read through the spelling table of `count` vertices
    (_spellings); the tag is found from the end, as no tag holds a line
    break, and decoded only when it starts as a JSON string does.  Nothing
    else is checked: a text that spells a field in any other way, or whose
    keys are not those of the rendering, differs from the rendering of what
    is read here, and pass 2 turns it down."""
    if not item.startswith(_ITEM_HEAD):
        raise ValueError("the dims item does not start as rendered")
    block_end = item.rfind(_ITEM_TAG)
    tag_text, cut, threshold_text = item[block_end + len(_ITEM_TAG):].rpartition(_ITEM_THRESHOLD)
    if block_end < 0 or not cut:
        raise ValueError("the dims item holds no provenance and threshold after its placement")
    words = item[len(_ITEM_HEAD):block_end].split()[1::2]
    values = list(map(_spellings(count).__getitem__, words))
    if len(values) != count:
        raise ValueError(f"the placement does not hold {count} integers")
    threshold = int(threshold_text[:-len(_ITEM_END)])
    if threshold <= 0 or tag_text[:1] != '"':  # so json.loads gives a str or ValueError
        raise ValueError("the threshold is not positive or the provenance not a string")
    return values, threshold, json.loads(tag_text)


class _Spellings(dict):  # a placement word, such as "5" or "5,", -> its int
    def __missing__(self, word: str) -> int:
        return int(word.removesuffix(","))  # a new int or ValueError, not kept


@lru_cache(maxsize=4)
def _spellings(n: int) -> _Spellings:
    """The placement words of n vertices, made once per vertex count: each
    int of shared_ints(n), as that object, under its spelling with and
    without the comma after it; int() reads any other word."""
    ints = shared_ints(n)
    return _Spellings(zip([*map(str, ints), *(f"{x}," for x in ints)], ints + ints))


def _dims_pass(chunks: Iterator[str]) -> tuple[CubeRepresentation, object]:
    """Pass 1 of the stream reader: the representation whose dims the text
    that `chunks` spell out proposes, read where render_dump writes them,
    and the report that the text after them holds (_report_of); ValueError
    where they are not found or not well formed.

    Pass 1 proposes and pass 2 proves.  The counts are taken from the
    header and refused where the full decode refuses them, before any
    table of their size is made; the cubes block is skipped unread; and
    each dims item is read by its layout (_item_fields), its values put
    into canonical order by the one itemgetter of _key_order.  No key is
    looked up and nothing else is checked here: pass 2 (_after_layout)
    compares the whole text with the rendering of the result, which the
    full decode reads back to the result, so a text whose keys, values or
    spelling differ from it is turned down there.  About two chunks and
    one dims item are held at a time, and then the rest of the text.
    """
    text, pos = "", 0

    def through(marker: str, keep: bool = True) -> str:
        """The text from pos through the next `marker`, read on as far as
        needed, or "" when not `keep`, which holds none of it; pos moves
        past the marker."""
        nonlocal text, pos
        parts = []
        while (at := text.find(marker, pos)) < 0:
            chunk = next(chunks, "")
            if not chunk:
                raise ValueError(f"the text ends before {marker!r}")
            cut = max(pos, len(text) - len(marker) + 1)
            if keep:
                parts.append(text[pos:cut])
            text, pos = text[cut:] + chunk, 0
        start, pos = pos, at + len(marker)
        return "".join(parts) + text[start:pos] if keep else ""

    head = _DUMP_HEAD.fullmatch(through('"cubes": {'))
    if head is None:
        raise ValueError("the text does not start as render_dump's")
    a_count, b_count = map(int, head.groups())
    if a_count < 1 or b_count < 1 or a_count + b_count > MAX_VERTICES:
        raise ValueError("the header declares counts that the full decode refuses")
    verts, canonical = vertex_order(a_count, b_count), _key_order(a_count, b_count)[2]
    through("dims", keep=False)  # cubes rows hold no letters but A and B
    dims, tags = [], []
    more = through("\n") == '": [\n'  # '": [],\n' when the list is empty
    while more:
        # the first "}" closes the placements, a fast one-character find;
        # then _ITEM_END, not "}" again, since a tag may hold "}"
        item = through("}") + through(_ITEM_END)
        values, threshold, tag = _item_fields(item, len(verts))
        dims.append(UnitIntervalRep.column(verts, list(canonical(values)), threshold))
        tags.append(tag)
        more = through("\n") == ",\n"
    # The text after the rendering's last piece, "\n  ]" or '"dims": []',
    # if the text is a rendering; pass 2 accepts no other.
    rest = text[pos:] + "".join(chunks)
    rest = rest[len("  ]"):] if dims else ",\n" + rest
    return CubeRepresentation(a_count, b_count, tuple(dims), tuple(tags)), _report_of(rest)


def _after_layout(chunks: Iterator[str], rep: CubeRepresentation) -> str:
    """Pass 2 of the stream reader: the rest of the text that `chunks` spell
    out after _layout_pieces(rep); ValueError unless the text starts with
    those pieces.  One chunk and one piece are held at a time."""
    text, pos = "", 0
    for piece in _layout_pieces(rep):
        while len(text) - pos < len(piece):
            chunk = next(chunks, "")
            if not chunk:
                raise ValueError("the text ends inside the rendering")
            text, pos = text[pos:] + chunk, 0
        if not text.startswith(piece, pos):
            raise ValueError("the text differs from the rendering")
        pos += len(piece)
    return text[pos:] + "".join(chunks)


def _report_of(rest: str) -> object:
    """The report rule of the stream reader: the report that the full
    decode reads in `rest`, the text after a rendering's layout, where it
    reads `rest` as the report and the end of the object: a comma, then
    what json.loads with the dump hook decodes, after an opening brace, to
    an object with the one key "report", whose value holds at most one "["
    or "{".  ValueError where `rest` is not so."""
    if rest[:1] != "," or rest.count("[") + rest.count("{") > 1:
        raise ValueError("the text after the dims is not one report")
    payload = json.loads("{" + rest[1:], object_pairs_hook=_dump_object)
    if payload.keys() != {"report"}:
        raise ValueError("the text after the dims holds more than the report")
    return payload["report"]


def _layout_accepted(chunks: Callable[[], Iterator[str]], rep: CubeRepresentation) -> bool:
    """Pass 2 of the stream reader: whether the text that a new call of
    `chunks` spells out is _layout_pieces(rep) and then a report that
    _report_of reads."""
    try:
        _report_of(_after_layout(chunks(), rep))
        return True
    except ValueError:
        return False


@contextmanager
def _collector_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector, and restore its state on exit.  A
    dump decode makes hundreds of thousands of lists, dicts and tuples,
    none of which can form a cycle, and each collection would scan them all
    again."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _decode_dump(text: str) -> tuple[CubeRepresentation, object]:
    """The full decode: the whole text through json.loads with the dump
    hook, then rep_from_jsonable, and the payload's report (None where it
    has none).  It gives every verdict and error text."""
    try:
        payload = json.loads(text, object_pairs_hook=_dump_object)
    except json.JSONDecodeError as exc:
        raise ValueError(f"dump is not valid JSON: {exc}") from None
    except RecursionError:
        raise ValueError("dump nests too deeply to be a representation") from None
    except ValueError as exc:  # an int of more digits than int() reads
        if str(exc).startswith("dump "):  # _dump_object's repeated key
            raise
        raise ValueError(f"dump holds a number of more than "
                         f"{sys.get_int_max_str_digits()} digits") from None
    return rep_from_jsonable(payload), payload.get("report")


def _stream_or_decode(chunks: Callable[[], Iterator[str]], whole: Callable[[], str],
                      g: BipartiteGraph | None = None
                      ) -> CubeRepresentation | list[Violation]:
    """The representation of the dump text that each call of `chunks`
    spells out anew and `whole` returns at once, or, with g, its verify
    against g once check_report accepts it and its report.  The stream reader
    reads it in two passes, and never decodes its cubes block: pass 1
    (_dims_pass) proposes the dimensions, read by the layout of the dims
    items alone, and the report after them, and pass 2 (_layout_accepted)
    proves them, accepting the text only when it is their rendering and
    then a report.  So an accepted text is the rendering of the returned
    representation, which the full decode reads back to that
    representation, and then the report that the full decode reads too.
    Any other text, and any that cannot be decoded from its chunks, takes
    the full decode of whole(), which gives every verdict and error text.
    The garbage collector is paused throughout (_collector_paused).

    With g, once pass 1 has read the dimensions, a forked child runs pass 2
    and replies 1 or 0 while this process verifies the dimensions, if
    their vertex counts are g's; the source is not touched here until the
    child is reaped.  There is no child where _Children forbids a fork or
    the dimensions hold fewer than MIN_CHILD_CELLS cells (vertices x k).
    Without a child, or when it exits non-zero or replies short
    (_Children.result), pass 2 runs here before any verification.  Once
    the verdict is in, check_report checks the report, and the violations
    found beside the child are reused when the text was accepted.
    The child is reaped before the call returns, and killed first on an
    exception (a KeyboardInterrupt in verify, say)."""
    with _collector_paused(), _Children() as children:
        try:
            rep, report = _dims_pass(chunks())
        except ValueError:
            rep = None
        violations = None
        if rep is not None:
            layout = partial(_layout_accepted, chunks, rep)
            forking = (g is not None and children.allowed
                       and (rep.a_count + rep.b_count) * rep.dimension >= MIN_CHILD_CELLS)
            pid = children.fork(layout) if forking else None
            if pid is not None and (rep.a_count, rep.b_count) == (g.a_count, g.b_count):
                violations = verify(rep, g)
            if not children.result(pid, layout):
                rep = violations = None
        if rep is None:
            rep, report = _decode_dump(whole())
        if g is None:
            return rep
        check_report(rep, report)
        return verify(rep, g) if violations is None else violations


def parse_dump(text: str) -> CubeRepresentation:
    """Read a dump back into a representation; raises ValueError on malformed
    or truncated input, including repeated keys, non-canonical vertex keys
    and cubes that differ from the placements (see _stream_or_decode)."""
    return _stream_or_decode(lambda: iter((text,)), lambda: text)


def read_dump(path: str | Path) -> CubeRepresentation:
    """parse_dump of the text of the file at `path`, read as Path.read_text
    reads it, with the same result or the same exception.

    The file is opened once.  A file that can seek is read by the stream
    reader (see _stream_or_decode) in pieces of _READ_PIECE characters,
    from its start for each pass, so a canonical dump is read without ever
    holding its text, its bytes or a payload dict.  When the stream reader
    turns the text down, or a piece cannot be decoded, the file is read
    again whole from its start and takes the full decode, which gives every
    verdict and error text, the position of a byte that cannot be decoded
    included.  A file that cannot seek, such as a pipe, is read whole once
    and read as parse_dump reads its text.  No process is forked.
    """
    return _read_dump(path)


def verify_dump(path: str | Path, g: BipartiteGraph) -> list[Violation]:
    """verify(read_dump(path), g) once check_report has accepted the dump's
    report and tags, with the same result or the same exception: the file
    is read as read_dump reads it, and where that forks (see
    _stream_or_decode), a child checks the text's layout while this process
    verifies the dimensions; the report is checked once the child has
    replied.  No child outlives the call, and a child's memory is not part
    of this process's peak RSS."""
    return _read_dump(path, g)


def check_report(rep: CubeRepresentation, report: object) -> None:
    """ValueError unless every provenance tag of rep is well formed
    (tag_kind) and `report`, a dump's report block as decoded, is an
    object whose k and whose count of each kind (t, bits_a and bits_b) are
    kind_counts of rep's tags, as ints; the first key that differs is
    named.  A dump that contradicts itself is a format error, like
    cubes that differ from the placements, so the CLI exits 2 on it."""
    kinds = list(map(tag_kind, rep.provenance))
    if None in kinds:
        pos = kinds.index(None)
        *forms, last = (f"{kind}-{row.index}" for kind, row in DIM_KINDS.items())
        raise ValueError(f"dim {pos}: provenance {json.dumps(rep.provenance[pos])} is not "
                         f"{', '.join(forms)} or {last}")
    if not isinstance(report, dict):
        raise ValueError("dump needs a report object")
    for key, count in kind_counts(rep.provenance).items():
        value = report.get(key)
        if type(value) is not int or value != count:
            raise ValueError(f"report {key} is {json.dumps(value)}, "
                             f"but the dump's dims give {count}")


def _read_dump(path: str | Path, g: BipartiteGraph | None = None
               ) -> CubeRepresentation | list[Violation]:
    """_stream_or_decode of the file at `path`, read as read_dump reads it,
    with g."""
    with open(path) as dump:
        if not dump.seekable():
            text = dump.read()
            return _stream_or_decode(lambda: iter((text,)), lambda: text, g)

        def chunks() -> Iterator[str]:
            dump.seek(0)
            return iter(partial(dump.read, _READ_PIECE), "")

        def whole() -> str:
            dump.seek(0)
            return dump.read()

        return _stream_or_decode(chunks, whole, g)


def format_violation(violation: Violation) -> str:
    return f"{violation.kind} {vertex_key(violation.u)}-{vertex_key(violation.v)}"
