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
from functools import cached_property, partial
from itertools import accumulate, compress, count, islice, repeat
from json.decoder import WHITESPACE, scanstring
from operator import and_, or_
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

from .bitfamily import BitEncodingFamily, build_bit_family
from .graphs import (
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
    dim_decoder,
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

# Fewest cells (vertices x k) of a dump that make rendering it in a forked
# child, beside verification, worth its cost.  On the same host, the child
# with its pipe and temporary file cost 3-4 ms from fork to reaping;
# builds with --out of 2,160 to 9,675 cells took 1-4 ms longer with the
# child, builds of 14,000 to 22,000 about as long, and builds of 22,800 to
# 36,000 cells 6-16% less.
MIN_CHILD_CELLS = 20_000


def available_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _read_reply(read: int) -> bytes:
    """Everything written to the pipe whose read end is `read`, up to its end."""
    chunks = []
    while chunk := os.read(read, 8):
        chunks.append(chunk)
    return b"".join(chunks)


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
        it exited non-zero or replied short."""
        reply = _read_reply(self.running[pid])
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


def _dump_pieces(rep: CubeRepresentation, report: BuildReport,
                 swapped: bool | None = None) -> Iterator[str]:
    """The canonical dump text of render_dump, in order and in pieces: the
    header, one piece per cubes row (its key, and after the first row the
    comma before it), one piece per dimension, likewise, then the report
    block.  A piece is formatted
    only when it is asked for, so a consumer holds one piece at a time, plus
    the placement columns that all rows and dimensions are read from.

    Vertex keys are sorted once (as strings, so A10 precedes A2), each
    dimension's value column is reordered to that key order once, the cube
    cell of a placement value is formatted once per distinct value and
    threshold, and every placement block is one %-format of a template that
    holds all keys.  Provenance tags and the report block go through
    json.dumps, which keeps its escaping.
    """
    verts = vertex_order(rep.a_count, rep.b_count)
    keys = [vertex_key(v) for v in verts]
    order = sorted(range(len(verts)), key=keys.__getitem__)
    keys = [keys[i] for i in order]
    placement = ",".join(f'\n        "{key}": %d' for key in keys)
    cell_text: dict[int, dict[int, str]] = {}  # threshold -> value -> cell
    placements = []
    columns = []
    for dim in rep.dims:
        c = dim.threshold
        values = tuple(map(dim.values.__getitem__, order))
        cells = cell_text.setdefault(c, {})
        for x in set(values).difference(cells):
            lo, hi = cube_cell(x, c)
            cells[x] = f'[\n        "{lo}",\n        "{hi}"\n      ]'
        placements.append(values)
        columns.append(map(cells.__getitem__, values))
    yield ('{\n  "a_count": ' + str(rep.a_count)
           + ',\n  "b_count": ' + str(rep.b_count) + ',\n  "cubes": {')
    rows = zip(*columns) if columns else repeat(())
    for i, (key, row) in enumerate(zip(keys, rows)):
        cube = "[\n      " + ",\n      ".join(row) + "\n    ]" if row else "[]"
        yield f'{"," if i else ""}\n    "{key}": {cube}'
    yield '\n  },\n  "dims": ' + ("[" if rep.dims else "[]")
    for i, (dim, tag, values) in enumerate(zip(rep.dims, rep.provenance, placements)):
        yield (("," if i else "") + '\n    {\n      "placement": {'
               + placement % values
               + '\n      },\n      "provenance": ' + json.dumps(tag)
               + ',\n      "threshold": ' + str(dim.threshold) + "\n    }")
    report_text = json.dumps(report_to_jsonable(report, swapped=swapped),
                             sort_keys=True, indent=2).replace("\n", "\n  ")
    yield ("\n  ]" if rep.dims else "") + ',\n  "report": ' + report_text + "\n}\n"


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
    would otherwise merge silently, last value winning.  An object whose
    values are all lists, such as the cubes block, keeps its keys but drops
    its lists as soon as it is decoded: rep_from_jsonable reads no list but
    the dims of the top-level object, which also holds the counts, so the
    result is the same.  The drop matters only to the full decode, which
    holds the cubes block until it is complete; the walker of canonical
    text (_walk_dump) decodes each dims item with this hook too, but never
    builds the cubes block."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        counts = Counter(key for key, _ in pairs)
        repeated = next(key for key, n in counts.items() if n > 1)
        raise ValueError(f"dump repeats the key {repeated!r} in one object")
    if all(type(value) is list for value in obj.values()):
        return dict.fromkeys(obj)
    return obj


# Characters read from a dump file at a time.
_READ_PIECE = 1 << 20

# The text render_dump writes before the first cubes row.  A count of six
# digits or more exceeds MAX_VERTICES, which the full decode refuses, so a
# text whose first _HEAD_LIMIT characters do not match is not canonical.
_DUMP_HEAD = re.compile(
    r'\{\n  "a_count": ([1-9][0-9]{0,4}),\n  "b_count": ([1-9][0-9]{0,4}),\n  "cubes": \{')
_HEAD_LIMIT = len('{\n  "a_count": 99999,\n  "b_count": 99999,\n  "cubes": {')
# The keys of every dims item render_dump writes.
_DIM_KEYS = {"placement", "provenance", "threshold"}


def _skip(text: str, pos: int, chars: str) -> tuple[str, int]:
    """The character that follows pos after JSON whitespace, which must be
    one of `chars`, and the position after it; ValueError if it is another,
    IndexError if the text ends first."""
    pos = WHITESPACE.match(text, pos).end()
    char = text[pos]
    if char not in chars:
        raise ValueError(f"expected one of {chars!r} at {pos}")
    return char, pos + 1


def _peek(text: str, pos: int) -> tuple[str, int]:
    """The character that follows pos after JSON whitespace, and its
    position; IndexError if the text ends first."""
    pos = WHITESPACE.match(text, pos).end()
    return text[pos], pos


def _key(text: str, pos: int) -> tuple[str, int]:
    """The object key that follows pos after JSON whitespace, and the
    position after the colon that must follow it."""
    _, pos = _skip(text, pos, '"')
    key, pos = scanstring(text, pos)
    _, pos = _skip(text, pos, ":")
    return key, pos


def _value(text: str, pos: int, scan_once, separators: str) -> tuple[
        tuple[object, str, str], int]:
    """The JSON value that follows pos after JSON whitespace, decoded by
    scan_once, its text, and the separator after it, which must be one of
    `separators`; then the position after that separator."""
    start = WHITESPACE.match(text, pos).end()
    value, end = scan_once(text, start)
    separator, after = _skip(text, end, separators)
    return (value, text[start:end], separator), after


class _TextWindow:
    """A text that arrives in pieces, and a position in it.  Only the text
    from the start of the step under way on is kept."""

    def __init__(self, pieces: Iterator[str]) -> None:
        self.pieces = pieces
        self.text = next(pieces, "")
        self.pos = 0

    def more(self) -> bool:
        """Keep the text from pos on and read at least as much again, one
        piece or more, so a step longer than a piece is retried a
        logarithmic number of times; False, with nothing changed, when no
        text is left."""
        piece = next(self.pieces, "")
        if not piece:
            return False
        parts = [self.text[self.pos:], piece]
        size = len(piece)
        while size < len(parts[0]) and (piece := next(self.pieces, "")):
            parts.append(piece)
            size += len(piece)
        self.text, self.pos = "".join(parts), 0
        return True

    def take(self, parse: Callable[[str, int], tuple[object, int]]):
        """The value of parse(text, pos), which returns (value, end) and
        raises while the text read so far falls short; moves to end.  After
        each failure the step is retried with more text, and when none is
        left ValueError is raised."""
        while True:
            try:
                value, self.pos = parse(self.text, self.pos)
                return value
            except (ValueError, StopIteration, IndexError, RecursionError):
                pass
            if not self.more():
                raise ValueError("the text ends inside a step")

    def at_end(self) -> bool:
        """Whether only JSON whitespace follows pos, to the end of the text."""
        while True:
            self.pos = WHITESPACE.match(self.text, self.pos).end()
            if self.pos < len(self.text):
                return False
            if not self.more():
                return True


def _walk_dump(pieces: Iterator[str]) -> CubeRepresentation | None:
    """The representation of the dump text that `pieces` spell out, read one
    step at a time; None unless the text is laid out as render_dump's is
    and the full decode would return the same representation.

    The walker only accepts: a text it turns down, for whatever reason,
    goes to the full decode, which gives every verdict and error text.  A
    step is one cubes row, one dims item or the report value, and it counts
    only when the separator that must follow its value is in the text read
    so far, so no step is taken on a value that the next piece could
    extend.  A step that fails is retried with more text, and turned down
    when none is left.  The text before the step under way is dropped, so
    about two pieces of it are held at a time.

    The top-level keys must be a_count, b_count, cubes, dims and report, in
    that order, with only whitespace after the closing brace.  Each cubes
    row is decoded and dropped at once; the rows must have distinct keys
    and nest as render_dump's do, a list of lists with no "[" or "{" in the
    row but theirs.  Each dims item is decoded with the dump hook and made a
    column at once (dim_decoder); it must hold a placement, a provenance and
    a threshold and nothing else.  The report may hold one "[" or "{" at
    most.  So nothing the walker decodes is deeper than render_dump's
    values, and none can reach the recursion limit where the full decode,
    which decodes it one or two levels deeper, would not.
    """
    window = _TextWindow(pieces)
    value = partial(_value, scan_once=json.JSONDecoder(object_pairs_hook=_dump_object).scan_once)
    cube_row, dims_item = partial(value, separators=",}"), partial(value, separators=",]")
    try:
        while (head := _DUMP_HEAD.match(window.text)) is None:
            if len(window.text) >= _HEAD_LIMIT or not window.more():
                return None
        window.pos = head.end()
        a_count, b_count = map(int, head.groups())
        decode = dim_decoder(a_count, b_count)
        keys = set()
        separator = "{"
        while separator != "}":
            key = window.take(_key)
            row, source, separator = window.take(cube_row)
            if key in keys or type(row) is not list or not set(map(type, row)) <= {list} \
                    or source.count("[") != 1 + len(row) or "{" in source:
                return None
            keys.add(key)
        window.take(partial(_skip, chars=","))
        if window.take(_key) != "dims":
            return None
        separator = window.take(partial(_skip, chars="["))
        if window.take(_peek) == "]":
            separator = window.take(partial(_skip, chars="]"))
        dims, tags = [], []
        while separator != "]":
            raw, _, separator = window.take(dims_item)
            dim, tag = decode(raw, len(dims))
            if raw.keys() != _DIM_KEYS:
                return None
            dims.append(dim)
            tags.append(tag)
        window.take(partial(_skip, chars=","))
        if window.take(_key) != "report":
            return None
        _, source, _ = window.take(partial(value, separators="}"))
        if source.count("[") + source.count("{") > 1 or not window.at_end():
            return None
        return CubeRepresentation(a_count, b_count, tuple(dims), tuple(tags))
    except ValueError:
        # a step still short at the end, a refused count or dimension, or a
        # piece that could not be decoded: the full decode says which
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


def parse_dump(text: str) -> CubeRepresentation:
    """Read a dump back into a representation; raises ValueError on malformed
    or truncated input, including repeated keys and non-canonical vertex keys.

    A text laid out as render_dump's is read by the walker (_walk_dump),
    which never builds its cubes block; any other text, and any text the
    walker turns down, takes the full decode, which gives every error.  The
    garbage collector is paused throughout (_collector_paused).
    """
    with _collector_paused():
        rep = _walk_dump(iter((text,)))
        return rep if rep is not None else _decode_dump(text)


def read_dump(path: str | Path) -> CubeRepresentation:
    """parse_dump of the text of the file at `path`, read as Path.read_text
    reads it, with the same result or the same exception.

    The file is read in pieces of _READ_PIECE characters by the walker
    (_walk_dump), which holds about two pieces of text at a time, so a
    canonical dump is read without ever holding its text, its bytes or a
    payload dict.  When the walker turns the text down, or a piece cannot
    be decoded, the file is read again whole and takes the full decode,
    which gives every verdict and error text, the position of a byte that
    cannot be decoded included.
    """
    with _collector_paused():
        with Path(path).open() as dump:
            rep = _walk_dump(iter(partial(dump.read, _READ_PIECE), ""))
        return rep if rep is not None else _decode_dump(Path(path).read_text())


def format_violation(violation: Violation) -> str:
    return f"{violation.kind} {vertex_key(violation.u)}-{vertex_key(violation.v)}"
