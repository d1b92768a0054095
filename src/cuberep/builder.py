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
import threading
import time
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, compress, count, islice, repeat
from json.decoder import WHITESPACE, scanstring
from operator import and_, or_
from pathlib import Path
from typing import Iterator, NamedTuple

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


def checked_attempts(plan: BuildPlan, master_seed: int) -> Iterator[
        tuple[CubeRepresentation, list[Violation], float, float]]:
    """Attempts 0, 1, ... of plan (see `attempt`), in turn and without end,
    each with the violations verify finds in it against plan.graph and the
    seconds spent constructing it and verifying it."""
    for index in count():
        started = time.perf_counter()
        rep = attempt(plan, master_seed, index)
        checked = time.perf_counter()
        violations = verify(rep, plan.graph)
        done = time.perf_counter()
        if any(v.kind == "missing-edge" for v in violations):
            # Retrying cannot help: every dimension is meant to be a supergraph.
            raise RuntimeError(f"internal error: an edge went missing: {violations}")
        yield rep, violations, checked - started, done - checked


def build_representation(
    g: BipartiteGraph, params: BuildParams
) -> tuple[CubeRepresentation, BuildReport]:
    """Build a verified representation of g, whichever side comes first: the
    first of g's checked_attempts that passes, among at most max_retries (one
    when t = 0, since every attempt is then the same); else BuildFailure lists
    the last one's surviving pairs in g's labels."""
    plan = make_plan(g, params.t_override)
    construct_seconds = verify_seconds = 0.0
    for index, (rep, violations, built, checked) in enumerate(islice(
            checked_attempts(plan, params.master_seed), params.max_retries if plan.t else 1)):
        construct_seconds += built
        verify_seconds += checked
        if not violations:
            return rep, BuildReport(
                dimension=rep.dimension,
                t=plan.t,
                bits_a=plan.fam_a.bit_count,
                bits_b=plan.fam_b.bit_count,
                retries=index,
                seed=params.master_seed & MASK64,
                nominal_bound=nominal_dimension_bound(
                    plan.profile.delta_prime, max(g.a_count, g.b_count)),
                construct_seconds=construct_seconds,
                verify_seconds=verify_seconds,
                swapped=plan.swapped)
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


def available_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _failures(plan: BuildPlan, master_seed: int, attempts: range) -> int:
    """How many of `attempts` leave some cross non-edge alive."""
    return sum(map(any, survivor_masks(plan, master_seed, attempts)))


def _fork_failures(plan: BuildPlan, master_seed: int, attempts: range) -> tuple[int, int]:
    """Fork a child that writes _failures(plan, master_seed, attempts) to a
    pipe, as 8 little-endian bytes, and leaves by os._exit: it writes nothing
    else anywhere, flushes no inherited buffer and runs no exit handler.
    Returns the child's pid and the pipe's read end."""
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read)
            os.write(write, _failures(plan, master_seed, attempts).to_bytes(8, "little"))
            status = 0
        finally:
            os._exit(status)
    os.close(write)
    return pid, read


def _read_reply(read: int) -> bytes:
    """Everything written to the pipe whose read end is `read`, up to its end."""
    chunks = []
    while chunk := os.read(read, 8):
        chunks.append(chunk)
    return b"".join(chunks)


def failure_rate(plan: BuildPlan, master_seed: int, trials: int) -> float:
    """Fraction of the single attempts 0..trials-1 (no retry) whose
    verification fails: those that leave some cross non-edge alive (see
    survivor_masks).

    The attempts are independent, so they are counted in contiguous blocks
    by up to one process per available CPU: this one counts the last block,
    and a forked child counts each other block and sends back only its
    count.  There is one process per trial at most, and one per
    MIN_CHILD_DRAWS of trials x t; there is no child where os.fork is
    missing or another thread runs, since forking a threaded process can
    deadlock.  The rate is the same float either way.  A child that exits
    non-zero or replies short has its block counted here instead, and a
    block whose child cannot be forked is counted here too.  Every child is
    reaped before the call returns; on an exception (such as
    KeyboardInterrupt) the children are killed first.  A child's memory is
    not part of this process's peak RSS."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    plan.neighbours  # made once, before any fork
    workers = 1
    if hasattr(os, "fork") and threading.active_count() == 1:
        workers = max(1, min(available_cpus(), trials, trials * plan.t // MIN_CHILD_DRAWS))
    bounds = [trials * i // workers for i in range(workers + 1)]
    *blocks, own = map(range, bounds, bounds[1:])
    children = []  # (pid, pipe read end, attempts) of each forked child
    try:
        for attempts in blocks:
            try:
                pid, read = _fork_failures(plan, master_seed, attempts)
            except OSError:  # no process to spare: count the rest here
                own = range(attempts.start, trials)
                break
            children.append((pid, read, attempts))
        failures = _failures(plan, master_seed, own)
        replies = [_read_reply(read) for _, read, _ in children]
    except BaseException:
        for pid, _, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        statuses = []
        for pid, read, _ in children:
            os.close(read)
            statuses.append(os.waitpid(pid, 0)[1])
    for (_, _, attempts), reply, status in zip(children, replies, statuses):
        if status == 0 and len(reply) == 8:
            failures += int.from_bytes(reply, "little")
        else:
            failures += _failures(plan, master_seed, attempts)
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


def _dump_object(pairs: list[tuple[str, object]]) -> dict:
    """json object hook for dumps.  It refuses repeated keys, which json.loads
    would otherwise merge silently, last value winning.  An object whose
    values are all lists, such as the cubes block, keeps its keys but drops
    its lists as soon as it is decoded: rep_from_jsonable reads no list but
    the dims of the top-level object, which also holds the counts, so the
    result is the same.  The drop matters only to parse_dump's full decode,
    which holds the cubes block until it is complete; the canonical path
    never builds that block (see _parse_without_cubes)."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        counts = Counter(key for key, _ in pairs)
        repeated = next(key for key, n in counts.items() if n > 1)
        raise ValueError(f"dump repeats the key {repeated!r} in one object")
    if all(type(value) is list for value in obj.values()):
        return dict.fromkeys(obj)
    return obj


# The text render_dump writes before the first cubes row.
_DUMP_HEAD = re.compile(r'\{\n  "a_count": [0-9]+,\n  "b_count": [0-9]+,\n  "cubes": \{')


def _skip_cubes(text: str, pos: int, scan_once) -> int | None:
    """The index just past the cubes object whose members start at pos, just
    past its "{", or None unless its members are well formed, have distinct
    keys and nest as render_dump's rows do: each a list of lists, with no
    "[" in the block but theirs and no "{".  Each row is decoded by
    scan_once and dropped at once, so no more than one row is held;
    scan_once raises what the decoder raises."""
    space = WHITESPACE.match
    keys = set()
    brackets = 0  # rows and cells
    pos = space(text, pos).end()
    start = pos
    if text.startswith("}", pos):
        return pos + 1
    while text.startswith('"', pos):
        key, pos = scanstring(text, pos + 1)
        if key in keys:
            return None
        keys.add(key)
        pos = space(text, pos).end()
        if not text.startswith(":", pos):
            return None
        row, pos = scan_once(text, space(text, pos + 1).end())
        if type(row) is not list or not set(map(type, row)) <= {list}:
            return None
        brackets += 1 + len(row)
        pos = space(text, pos).end()
        if text.startswith("}", pos):
            if text.count("[", start, pos) != brackets or text.find("{", start, pos) >= 0:
                return None
            return pos + 1
        if not text.startswith(",", pos):
            return None
        pos = space(text, pos + 1).end()
    return None


def _parse_without_cubes(text: str) -> CubeRepresentation | None:
    """parse_dump's result for a dump that opens as render_dump's text does,
    read without building its cubes block; None for any other text and for
    any text the full decode would refuse.

    The cubes object is walked row by row (_skip_cubes).  When it is well
    formed, the full decode gives the text with that object replaced by {}
    the same result, since rep_from_jsonable reads no cubes: that shorter
    text is what is decoded here, with the same hook.  The rows must nest
    two deep, as render_dump's do, so a text whose cubes block nests deep
    enough to stop the full decode at the recursion limit is turned down."""
    head = _DUMP_HEAD.match(text)
    if head is None:
        return None
    start = head.end()
    try:
        end = _skip_cubes(text, start,
                          json.JSONDecoder(object_pairs_hook=_dump_object).scan_once)
        if end is None:
            return None
        return rep_from_jsonable(json.loads(text[:start] + "}" + text[end:],
                                            object_pairs_hook=_dump_object))
    except (ValueError, StopIteration, RecursionError):
        return None


def parse_dump(text: str) -> CubeRepresentation:
    """Read a dump back into a representation; raises ValueError on malformed
    or truncated input, including repeated keys and non-canonical vertex keys.

    A dump that opens as render_dump's text does is read without decoding
    its cubes block (_parse_without_cubes).  Any other text, and any text
    that path turns down, takes the full decode, which gives every error.

    The cyclic garbage collector is paused while the dump is decoded and
    converted: the decode makes hundreds of thousands of lists, dicts and
    tuples, none of which can form a cycle, and each collection would scan
    them all again.  The collector's state is restored on every exit.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        rep = _parse_without_cubes(text)
        if rep is not None:
            return rep
        try:
            payload = json.loads(text, object_pairs_hook=_dump_object)
        except json.JSONDecodeError as exc:
            raise ValueError(f"dump is not valid JSON: {exc}") from None
        except RecursionError:
            raise ValueError("dump nests too deeply to be a representation") from None
        return rep_from_jsonable(payload)
    finally:
        if enabled:
            gc.enable()


def format_violation(violation: Violation) -> str:
    return f"{violation.kind} {vertex_key(violation.u)}-{vertex_key(violation.v)}"
