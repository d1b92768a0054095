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
import tempfile
import threading
import time
from collections import Counter
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from itertools import accumulate, compress, count, islice, repeat
from operator import and_, itemgetter, or_
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

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
    UnitIntervalRep,
    bit_dim_tag,
    cube_cell,
    random_dim_tag,
    rep_from_jsonable,
    rep_to_jsonable,  # noqa: F401  unused here; the benchmark's traced replica patches it
    vertex_key,
)
from .randomized import (
    MASK64,
    choose_permuted_side,
    neighbour_masks,
    random_permutation,
    reached_below,
    shuffled_ranks,
    supergraph_from_permutation,
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
    """What a build reports, in the labels of the graph it was given;
    `swapped` is set when that graph's first side is the larger."""

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
    """Exact check that the dims' intersection graph equals g.

    Vertices are indexed in canonical order (A1..An1, B1..Bn2), the order of
    each dimension's value column (CubeRepresentation checks that every
    dimension is one), and each vertex i keeps an integer
    bitset alive[i] whose bit j (j > i) is set while the pair (i, j) is
    adjacent in every dimension seen so far.  Per dimension, the vertices
    sorted by placement give prefix OR-masks, and the vertices within the
    threshold of i form one contiguous run of that order, so alive[i] is cut
    by a single XOR of two prefixes.  That is
    O(k n log n) interpreted steps plus O(k n^2 / 64) word operations, with
    O(n^2) bits of memory.  Dimensions run tightest threshold first (the
    intersection does not depend on the order): bit dimensions then empty the
    bitsets of most vertices early, and an empty bitset is skipped.  Returns
    all violations, order-normalized; an empty list means the representation
    is exact.
    """
    if rep.a_count != g.a_count or rep.b_count != g.b_count:
        raise ValueError(
            f"vertex mismatch: representation is {rep.a_count}+{rep.b_count}, "
            f"graph is {g.a_count}+{g.b_count}")
    verts = vertex_order(rep.a_count, rep.b_count)
    count = len(verts)
    bit = [1 << i for i in range(count)]
    full = (1 << count) - 1
    alive = [full ^ ((b << 1) - 1) for b in bit]
    for dim in sorted(rep.dims, key=lambda dim: dim.threshold):
        values = dim.values
        c = dim.threshold
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
    edges = [0] * count
    for a, b in g.edges:
        edges[a - 1] |= bit[g.a_count + b - 1]
    violations = []
    for i, u in enumerate(verts):
        for kind, pairs in (("extra-edge", alive[i] & ~edges[i]),
                            ("missing-edge", edges[i] & ~alive[i])):
            while pairs:
                low = pairs & -pairs
                violations.append(Violation(kind, u, verts[low.bit_length() - 1]))
                pairs ^= low
    return sorted(violations)


@dataclass(frozen=True)
class BuildPlan:
    """What all attempts on one graph share, in that graph's labels; the
    degree profile is kept for d' and the probe.  `bit_dims` holds both bit
    families in attempt order, and `swapped` says the graph's first side is
    the larger."""

    graph: BipartiteGraph
    t: int
    profile: DegreeProfile
    side: str
    side_size: int
    fam_a: BitEncodingFamily
    fam_b: BitEncodingFamily
    bit_dims: tuple[UnitIntervalRep, ...]
    swapped: bool

    @cached_property
    def provenance(self) -> tuple[str, ...]:
        """The tag of every dimension of an attempt, in attempt order, made
        on first use: a plan that no attempt is built from (the probe's)
        holds nothing that grows with t."""
        families = (self.fam_b, self.fam_a) if self.swapped else (self.fam_a, self.fam_b)
        return (tuple(random_dim_tag(j + 1) for j in range(self.t))
                + tuple(bit_dim_tag(fam.side, i + 1)
                        for fam in families for i in range(fam.bit_count)))

    @cached_property
    def neighbours(self) -> list[int]:
        """neighbour_masks of the permuted side, made on first use."""
        return neighbour_masks(self.graph, self.side)


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
    fam_a = build_bit_family(g, SIDE_A)
    fam_b = build_bit_family(g, SIDE_B)
    families = (fam_b, fam_a) if swapped else (fam_a, fam_b)
    return BuildPlan(g, t, profile, side, g.side_count(side), fam_a, fam_b,
                     tuple(rep for fam in families for rep in fam.reps), swapped)


def dimension_rngs(master_seed: int, index: int, t: int) -> Iterator[random.Random]:
    """The generators of random dimensions 0..t-1 of attempt `index`: one
    random.Random, reseeded in turn to derive_seed(master_seed, index, j).
    Reseeding leaves it in the state make_rng of that seed would build, at
    less cost than building a new one; each generator is in that state only
    until the next is drawn.  The hash of the master seed and the index,
    derive_seed's prefix, is made once per attempt and copied per j."""
    prefix = hashlib.blake2b(digest_size=8)
    prefix.update((master_seed & MASK64).to_bytes(8, "little"))
    prefix.update((index & MASK64).to_bytes(8, "little"))
    rng = random.Random(0)
    for j in range(t):
        h = prefix.copy()
        h.update(j.to_bytes(8, "little"))
        rng.seed(int.from_bytes(h.digest(), "little"))
        yield rng


def attempt(plan: BuildPlan, master_seed: int, index: int) -> CubeRepresentation:
    """Attempt `index`: t random dimensions, dimension j drawn from
    derive_seed(master_seed, index, j), then both bit families."""
    g = plan.graph
    dims = tuple(supergraph_from_permutation(random_permutation(plan.side_size, rng, plan.side), g)
                 for rng in dimension_rngs(master_seed, index, plan.t))
    return CubeRepresentation(g.a_count, g.b_count, dims + plan.bit_dims, plan.provenance)


def checked_attempts(plan: BuildPlan, master_seed: int,
                     beside: Callable[[int, CubeRepresentation], object] | None = None
                     ) -> Iterator[tuple[CubeRepresentation, list[Violation], float, float]]:
    """Attempts 0, 1, ... of plan (see `attempt`), in turn and without end,
    each with the violations verify finds in it against plan.graph and the
    seconds spent constructing it and verifying it.  `beside`, if given, is
    called with each attempt's index and representation before it is
    verified, and its time counts as construction."""
    for index in count():
        started = time.perf_counter()
        rep = attempt(plan, master_seed, index)
        if beside is not None:
            beside(index, rep)
        checked = time.perf_counter()
        violations = verify(rep, plan.graph)
        done = time.perf_counter()
        if any(v.kind == "missing-edge" for v in violations):
            # Retrying cannot help: every dimension is meant to be a supergraph.
            raise RuntimeError(f"internal error: an edge went missing: {violations}")
        yield rep, violations, checked - started, done - checked


def build_representation(
    g: BipartiteGraph, params: BuildParams, out: str | Path | None = None
) -> tuple[CubeRepresentation, BuildReport]:
    """Build a verified representation of g, whichever side comes first: the
    first of g's checked_attempts that passes, among at most max_retries (one
    when t = 0, since every attempt is then the same); else BuildFailure lists
    the last one's surviving pairs in g's labels.

    With `out`, the result's dump is written there, as write_dump writes it,
    once it has passed; nothing is written on BuildFailure.  Each attempt
    forks a child that renders its dump into an unnamed temporary file
    while this process verifies it, unless _Children forbids a fork or the
    dump has fewer than MIN_CHILD_CELLS cells (vertices x k).  On a pass the
    child is reaped and its bytes are copied to `out` in the kernel
    (_send_file); a failed attempt's child is killed and reaped, and its file
    dropped.  When the child exits non-zero or replies short, or the copy
    fails, write_dump writes the dump here instead, to the same bytes.
    No child and no temporary file outlives the call.  report.write_seconds
    is the time from the passing verification to the dump in place."""
    plan = make_plan(g, params.t_override)
    k = plan.t + len(plan.bit_dims)

    def report(index: int, construct: float = 0.0, check: float = 0.0,
               write: float = 0.0) -> BuildReport:
        return BuildReport(
            dimension=k,
            t=plan.t,
            bits_a=plan.fam_a.bit_count,
            bits_b=plan.fam_b.bit_count,
            retries=index,
            seed=params.master_seed & MASK64,
            nominal_bound=nominal_dimension_bound(
                plan.profile.delta_prime, max(g.a_count, g.b_count)),
            construct_seconds=construct,
            verify_seconds=check,
            swapped=plan.swapped,
            write_seconds=write)

    construct_seconds = verify_seconds = 0.0
    rendering = None  # (pid, temporary file) of the child rendering this attempt's dump
    with ExitStack() as files, _Children() as children:
        def render_beside(index: int, rep: CubeRepresentation) -> None:
            nonlocal rendering
            file = files.enter_context(tempfile.TemporaryFile())
            pid = children.fork(partial(_render_into, file.fileno(), rep, report(index)))
            rendering = (pid, file) if pid is not None else None

        forking = (out is not None and children.allowed
                   and g.vertex_count * k >= MIN_CHILD_CELLS)
        for index, (rep, violations, built, checked) in enumerate(islice(
                checked_attempts(plan, params.master_seed, render_beside if forking else None),
                params.max_retries if plan.t else 1)):
            construct_seconds += built
            verify_seconds += checked
            if violations:
                if rendering is not None:
                    children.kill(rendering[0])
                    rendering[1].close()
                    rendering = None
                continue
            write_seconds = 0.0
            if out is not None:
                passed = time.perf_counter()
                size = children.reply(rendering[0]) if rendering is not None else None
                if size is None or not _send_file(rendering[1], out, size):
                    write_dump(out, rep, report(index))
                write_seconds = time.perf_counter() - passed
            return rep, report(index, construct_seconds, verify_seconds, write_seconds)
    raise BuildFailure(
        f"verification still failing after {params.max_retries} attempts" if plan.t else
        "zero random dimensions cannot remove cross non-edges", violations)


def survivor_masks(plan: BuildPlan, master_seed: int,
                   attempts: range) -> Iterator[list[int]]:
    """For each attempt index in `attempts`, in turn, the cross non-edges
    adjacent in all t random dimensions of attempt(plan, master_seed, index):
    entry p is the bitset of the live non-edges of permuted vertex p + 1, bit
    f for other-side vertex f + 1.  Each such bitset starts as p's non-edges
    and is cut per dimension by reached_below; the draws stop once all are
    empty, since every dimension has its own seed.
    """
    size, neighbours = plan.side_size, plan.neighbours
    full = (1 << (plan.graph.vertex_count - size)) - 1
    start = [full ^ mask for mask in neighbours]
    for index in attempts:
        alive = start
        for rng in dimension_rngs(master_seed, index, plan.t):
            if not any(alive):
                break
            alive = list(map(and_, alive, reached_below(shuffled_ranks(size, rng), neighbours)))
        yield alive


# Fewest dimension draws (trials x t, shared out over the processes) that
# make a forked child worth its cost.  On a 2-CPU x86-64 host under
# Python 3.11, forking a child, reading its pipe and reaping it took
# 1.5-4 ms, and one draw 12 us at side size 2 and 21 us at side size 30; a
# block of 1000 draws is 12 ms or more when no attempt stops early.
MIN_CHILD_DRAWS = 1000

# Fewest cells (vertices x k) of a dump that make work on it in a forked
# child, beside verification, worth its cost: build_representation's render
# and verify_dump's layout check.  On the same host, the render child with
# its pipe and temporary file cost 3-4 ms from fork to reaping; builds with
# --out of 2,160 to 9,675 cells took 1-4 ms longer with the child, builds
# of 14,000 to 22,000 about as long, and builds of 22,800 to 36,000 cells
# 6-16% less.  verify_dump with the layout child, against without it
# (medians of 40 alternating calls each): 7,320 cells +3.3 ms (+24%),
# 12,060 +1.5 to +2.5 ms, 16,170 +0.2 ms (+1%), 18,960 -1.5 to -3.1 ms,
# 23,625 -1.5 ms (-4%), 24,750 -5.6 to -6.5 ms (-12 to -15%), 43,680
# -11.6 ms (-15%) and 57,000 -24.9 ms (-24%).
MIN_CHILD_CELLS = 20_000


def available_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _leave_cpu_of(pid: int) -> None:
    """Move this process off the CPU that process `pid` last ran on, where
    the platform tells which one that is (Linux's /proc/PID/stat) and lets a
    process choose its CPUs.  A forked child starts on its parent's CPU,
    and the kernel may leave it there while the parent runs on, so that the
    two take turns on one CPU while another idles."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            cpu = int(stat.read().rsplit(")", 1)[1].split()[36])
        others = os.sched_getaffinity(0) - {cpu}
        if others:
            os.sched_setaffinity(0, others)
    except (OSError, AttributeError, ValueError, IndexError):
        pass


class _Children:
    """The children that one call forks, each to compute one int beside it.

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
        bytes, and leaves by os._exit: it writes nothing else to the pipe,
        flushes no inherited buffer and runs no exit handler.  Returns its
        pid, or None when no process can be forked."""
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
                _leave_cpu_of(os.getppid())
                os.write(write, compute().to_bytes(8, "little"))
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
    no fork.  The rate is the same float either way.  A child that exits
    non-zero or replies short has its block counted here instead, and a
    block whose child cannot be forked is counted here too.  Every child is
    reaped before the call returns; on an exception (such as
    KeyboardInterrupt) the children are killed first.  A child's memory is
    not part of this process's peak RSS."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    plan.neighbours  # made once, before any fork
    with _Children() as children:
        workers = 1
        if children.allowed:
            workers = max(1, min(available_cpus(), trials, trials * plan.t // MIN_CHILD_DRAWS))
        bounds = [trials * i // workers for i in range(workers + 1)]
        *blocks, own = map(range, bounds, bounds[1:])
        forked = []  # (pid, attempts) of each child
        for attempts in blocks:
            pid = children.fork(partial(_failures, plan, master_seed, attempts))
            if pid is None:  # no process to spare: count the rest here
                own = range(attempts.start, trials)
                break
            forked.append((pid, attempts))
        failures = _failures(plan, master_seed, own)
        for pid, attempts in forked:
            count = children.reply(pid)
            failures += _failures(plan, master_seed, attempts) if count is None else count
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
    block's flag, and when True exchanges bits_a and bits_b so that they
    follow the dump's labels."""
    bits_a, bits_b = report.bits_a, report.bits_b
    if swapped is None:
        swapped = report.swapped
    elif swapped:
        bits_a, bits_b = bits_b, bits_a
    out = {
        "k": report.dimension,
        "t": report.t,
        "bits_a": bits_a,
        "bits_b": bits_b,
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
def _key_order(a_count: int, b_count: int) -> tuple[tuple[str, ...], tuple[int, ...],
                                                      itemgetter]:
    """The order in which a dump writes the vertices of a_count + b_count
    vertices, made once per size, so that the rendering and pass 1 of the
    stream reader follow one order: the vertex keys sorted as strings (A10
    before A2), the canonical position of the vertex of each, and an
    itemgetter that takes a sequence of values in key order to the tuple of
    them in canonical order."""
    keys = [vertex_key(v) for v in vertex_order(a_count, b_count)]
    order = sorted(range(len(keys)), key=keys.__getitem__)
    where = [0] * len(order)
    for at, i in enumerate(order):
        where[i] = at
    return tuple(keys[i] for i in order), tuple(order), itemgetter(*where)


def _layout_pieces(rep: CubeRepresentation) -> Iterator[str]:
    """The canonical dump text of rep before its report, in order and in
    pieces: the header, one piece per cubes row (its key, and after the
    first row the comma before it), one piece per dimension, likewise, then
    the end of the dims list when there is one.  A piece is formatted only
    when it is asked for, and each cubes row is drawn from the columns in
    key order as it is formatted, so a consumer holds one piece at a time
    and no reordered copy of the columns is made.

    Vertex keys follow _key_order (sorted as strings, so A10 precedes A2),
    the cube cell of a placement value is formatted once per distinct value
    and threshold, and every placement block is one %-format of a template
    that holds all keys.  Provenance tags go through json.dumps, which keeps
    its escaping.
    """
    keys, order, _ = _key_order(rep.a_count, rep.b_count)
    placement = ",".join(f'\n        "{key}": %d' for key in keys)
    cell_text: dict[int, dict[int, str]] = {}  # threshold -> value -> cell
    columns = []
    for dim in rep.dims:
        c = dim.threshold
        cells = cell_text.setdefault(c, {})
        for x in set(dim.values).difference(cells):
            lo, hi = cube_cell(x, c)
            cells[x] = f'[\n        "{lo}",\n        "{hi}"\n      ]'
        columns.append(map(cells.__getitem__, map(dim.values.__getitem__, order)))
    yield ('{\n  "a_count": ' + str(rep.a_count)
           + ',\n  "b_count": ' + str(rep.b_count) + ',\n  "cubes": {')
    rows = zip(*columns) if columns else repeat(())
    for i, (key, row) in enumerate(zip(keys, rows)):
        cube = "[\n      " + ",\n      ".join(row) + "\n    ]" if row else "[]"
        yield f'{"," if i else ""}\n    "{key}": {cube}'
    yield '\n  },\n  "dims": ' + ("[" if rep.dims else "[]")
    for i, (dim, tag) in enumerate(zip(rep.dims, rep.provenance)):
        yield (("," if i else "") + '\n    {\n      "placement": {'
               + placement % tuple(map(dim.values.__getitem__, order))
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
    `fd`, as write_dump writes it, and return the bytes written.  Run in the
    forked child of build_representation, which it leaves with the garbage
    collector off: the render makes no cycle, and a collection in a forked
    child would copy every page it scans."""
    gc.disable()
    with open(fd, "w", closefd=False) as out:
        out.writelines(_dump_pieces(rep, report))
    return os.lseek(fd, 0, os.SEEK_CUR)


def _send_file(source, path: str | Path, size: int) -> bool:
    """Copy the first `size` bytes of the file object `source` to `path`,
    opened as write_dump opens it, by os.sendfile, without passing them
    through this process; False, with `path` perhaps part written, when
    sendfile fails or the source ends first."""
    with open(path, "w") as out:
        offset = 0
        try:
            while offset < size:
                sent = os.sendfile(out.fileno(), source.fileno(), offset, size - offset)
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
    `item` running from its indent through _ITEM_END; ValueError or
    RecursionError where they are not `count` ints, a positive int and a
    str.

    The fields are read by where they stand, not by their keys: each
    placement line splits at its whitespace into its key and its value
    with the comma after it, so the values are every second word of the
    block, and the block goes to json.loads as one list of ints.  Nothing
    else is checked: a text that spells a field in any other way, or whose
    keys are not those of the rendering, differs from the rendering of what
    is read here, and pass 2 turns it down."""
    if not item.startswith(_ITEM_HEAD):
        raise ValueError("the dims item does not start as rendered")
    block_end = item.find(_ITEM_TAG)
    tag_text, cut, threshold_text = item[block_end + len(_ITEM_TAG):].rpartition(_ITEM_THRESHOLD)
    if block_end < 0 or not cut:
        raise ValueError("the dims item holds no provenance and threshold after its placement")
    values = json.loads("[" + "".join(item[len(_ITEM_HEAD):block_end].split()[1::2]) + "]")
    if len(values) != count or set(map(type, values)) != {int}:  # a JSON true is a bool
        raise ValueError(f"the placement does not hold {count} integers")
    threshold = int(threshold_text[:-len(_ITEM_END)])
    tag = json.loads(tag_text)
    if threshold <= 0 or not isinstance(tag, str):
        raise ValueError("the threshold is not positive or the provenance not a string")
    return values, threshold, tag


def _dims_pass(chunks: Iterator[str]) -> CubeRepresentation:
    """Pass 1 of the stream reader: the representation whose dims the text
    that `chunks` spell out proposes, read where render_dump writes them;
    ValueError or RecursionError where they are not found or not well
    formed.

    Pass 1 proposes and pass 2 proves.  The counts are taken from the
    header and refused where the full decode refuses them, before any
    table of their size is made; the cubes block is skipped unread; and
    each dims item is read by its layout (_item_fields), its values put
    into canonical order by the one itemgetter of _key_order.  No key is
    looked up and nothing else is checked here: pass 2 (_after_layout)
    compares the whole text with the rendering of the result, which the
    full decode reads back to the result, so a text whose keys, values or
    spelling differ from it is turned down there.  About two chunks and
    one dims item are held at a time.
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
    verts = vertex_order(a_count, b_count)
    canonical = _key_order(a_count, b_count)[2]
    through("dims", keep=False)  # cubes rows hold no letters but A and B
    dims, tags = [], []
    more = through("\n") == '": [\n'  # '": [],\n' when the list is empty
    while more:
        values, threshold, tag = _item_fields(through(_ITEM_END), len(verts))
        dims.append(UnitIntervalRep.column(verts, list(canonical(values)), threshold))
        tags.append(tag)
        more = through("\n") == ",\n"
    return CubeRepresentation(a_count, b_count, tuple(dims), tuple(tags))


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


def _layout_accepted(chunks: Callable[[], Iterator[str]], rep: CubeRepresentation) -> bool:
    """Pass 2 of the stream reader and its report rule: whether the text
    that a new call of `chunks` spells out is _layout_pieces(rep) and then
    a report that the full decode reads.  The rest after the layout must be
    read by the full decode as the report and the end of the object: a
    comma, then what json.loads with the dump hook decodes, after an
    opening brace, to an object with the one key "report", whose value
    holds at most one "[" or "{"."""
    try:
        rest = _after_layout(chunks(), rep)
        return (rest[:1] == "," and rest.count("[") + rest.count("{") <= 1
                and json.loads("{" + rest[1:], object_pairs_hook=_dump_object).keys()
                == {"report"})
    except (ValueError, RecursionError):
        return False


def _dims_or_none(chunks: Callable[[], Iterator[str]]) -> CubeRepresentation | None:
    """_dims_pass of a new call of `chunks`, or None where it fails."""
    try:
        return _dims_pass(chunks())
    except (ValueError, RecursionError):
        return None


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


def _decode_dump(text: str) -> CubeRepresentation:
    """The full decode: the whole text through json.loads with the dump
    hook, then rep_from_jsonable.  It gives every verdict and error text."""
    try:
        payload = json.loads(text, object_pairs_hook=_dump_object)
    except json.JSONDecodeError as exc:
        raise ValueError(f"dump is not valid JSON: {exc}") from None
    except RecursionError:
        raise ValueError("dump nests too deeply to be a representation") from None
    return rep_from_jsonable(payload)


def _stream_or_decode(chunks: Callable[[], Iterator[str]], whole: Callable[[], str],
                      beside: Callable[[CubeRepresentation], object] | None = None) -> object:
    """The representation of the dump text that each call of `chunks`
    spells out anew and `whole` returns at once, or, with `beside`, what
    beside returns for it.  The stream reader reads it in two passes, and
    never decodes its cubes block: pass 1 (_dims_pass) proposes the
    dimensions, read by the layout of the dims items alone, and pass 2
    (_layout_accepted) proves them, accepting the text only when it is
    their rendering and then a report.  So an accepted text is the
    rendering of the returned representation, which the full decode reads
    back to that representation.  Any other text, and any that cannot be
    decoded from its chunks, takes the full decode of whole(), which gives
    every verdict and error text.  The garbage collector is paused
    throughout (_collector_paused).

    With `beside`, once pass 1 has read the dimensions, a forked child runs
    pass 2 (_layout_accepted) and replies 1 or 0 while this process calls
    beside on them; the source is not touched here until the child is
    reaped.  There is no child where _Children forbids a fork or the
    dimensions hold fewer than MIN_CHILD_CELLS cells (vertices x k), or
    when the fork fails: pass 2 then runs here, before beside.  A child
    that exits non-zero or replies short has pass 2 run here instead.  An
    Exception from beside is held until pass 2 has given its verdict, and
    raised only when the text is accepted; a turned-down text takes the
    full decode, and beside is called on its result.  So the result, or the
    exception, is beside's of the representation read without it.  The
    child is reaped before the call returns, and killed first on an
    exception (a KeyboardInterrupt in beside, say)."""
    with _collector_paused(), _Children() as children:
        rep = _dims_or_none(chunks)
        pid = None
        if (rep is not None and beside is not None and children.allowed
                and (rep.a_count + rep.b_count) * rep.dimension >= MIN_CHILD_CELLS):
            pid = children.fork(partial(_layout_accepted, chunks, rep))
        beside = beside or _same
        if pid is not None:
            try:
                result, held = beside(rep), None
            except Exception as exc:
                result, held = None, exc
            accepted = children.reply(pid)
            if accepted is None:
                accepted = _layout_accepted(chunks, rep)
            if accepted:
                if held is not None:
                    raise held
                return result
        elif rep is not None and _layout_accepted(chunks, rep):
            return beside(rep)
        return beside(_decode_dump(whole()))


def _same(rep: CubeRepresentation) -> CubeRepresentation:
    """The `beside` of a plain read: the representation itself."""
    return rep


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
    return _read_dump(path, None)


def verify_dump(path: str | Path, g: BipartiteGraph) -> list[Violation]:
    """verify(read_dump(path), g), with the same result or the same
    exception: the file is read as read_dump reads it, and where that
    forks (see _stream_or_decode), a child checks the text's layout while
    this process verifies the dimensions.  No child outlives the call, and
    a child's memory is not part of this process's peak RSS."""
    return _read_dump(path, lambda rep: verify(rep, g))


def _read_dump(path: str | Path,
               beside: Callable[[CubeRepresentation], object] | None) -> object:
    """_stream_or_decode of the file at `path`, read as read_dump reads it,
    with `beside`."""
    with open(path) as dump:
        if not dump.seekable():
            text = dump.read()
            return _stream_or_decode(lambda: iter((text,)), lambda: text, beside)

        def chunks() -> Iterator[str]:
            dump.seek(0)
            return iter(partial(dump.read, _READ_PIECE), "")

        def whole() -> str:
            dump.seek(0)
            return dump.read()

        return _stream_or_decode(chunks, whole, beside)


def format_violation(violation: Violation) -> str:
    return f"{violation.kind} {vertex_key(violation.u)}-{vertex_key(violation.v)}"
