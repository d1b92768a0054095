"""Bipartite graph values: degrees, random generation, and file I/O."""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterator

Vertex = tuple[str, int]

SIDE_A = "A"
SIDE_B = "B"

# Most vertices a graph file or a dump may declare.  verify keeps one
# n-bit set per vertex, n^2 / 2 bits in all: 64 MiB at this size.  It stays
# above the 16,000 vertices of the largest graph the acceptance tests build.
MAX_VERTICES = 1 << 15


@lru_cache(maxsize=16)
def vertex_order(a_count: int, b_count: int) -> tuple[Vertex, ...]:
    """The canonical vertex order (A1..An1, B1..Bn2), one shared tuple per
    size, so a column in this order is recognized by identity."""
    return (tuple((SIDE_A, i) for i in range(1, a_count + 1))
            + tuple((SIDE_B, j) for j in range(1, b_count + 1)))


def other_side(side: str) -> str:
    if side == SIDE_A:
        return SIDE_B
    if side == SIDE_B:
        return SIDE_A
    raise ValueError(f"unknown side {side!r}")


class GraphFormatError(ValueError):
    """Malformed graph file; `line` is the 1-based offending line when known."""

    def __init__(self, message: str, line: int | None = None) -> None:
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


@dataclass(frozen=True)
class BipartiteGraph:
    """Simple bipartite graph on sides A (indices 1..a_count) and B (1..b_count).

    Edges are cross pairs stored as (a_index, b_index); same-side edges are
    unrepresentable by construction.
    """

    a_count: int
    b_count: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "edges", frozenset(self.edges))
        if self.a_count < 1:
            raise ValueError(f"a_count must be >= 1, got {self.a_count}")
        if self.b_count < 1:
            raise ValueError(f"b_count must be >= 1, got {self.b_count}")
        for a, b in self.edges:
            if not 1 <= a <= self.a_count:
                raise ValueError(f"edge ({a}, {b}): a-index outside 1..{self.a_count}")
            if not 1 <= b <= self.b_count:
                raise ValueError(f"edge ({a}, {b}): b-index outside 1..{self.b_count}")

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def vertex_count(self) -> int:
        return self.a_count + self.b_count

    def side_count(self, side: str) -> int:
        return self.a_count if other_side(side) == SIDE_B else self.b_count

    def vertices(self) -> Iterator[Vertex]:
        for i in range(1, self.a_count + 1):
            yield (SIDE_A, i)
        for j in range(1, self.b_count + 1):
            yield (SIDE_B, j)

    def neighbours(self, side: str) -> tuple[tuple[int, ...], ...]:
        """For each vertex of `side` (entry i for vertex i + 1), the 0-based
        indices of its neighbours on the other side, ascending; built once per
        graph."""
        return self._neighbours[side]

    @cached_property
    def _neighbours(self) -> dict[str, tuple[tuple[int, ...], ...]]:
        # one int object per index, shared by every list that holds it
        index = list(range(max(self.a_count, self.b_count)))
        of_a: list[list[int]] = [[] for _ in range(self.a_count)]
        of_b: list[list[int]] = [[] for _ in range(self.b_count)]
        for a, b in sorted(self.edges):
            of_a[a - 1].append(index[b - 1])
            of_b[b - 1].append(index[a - 1])
        return {SIDE_A: tuple(tuple(ns) for ns in of_a),
                SIDE_B: tuple(tuple(ns) for ns in of_b)}

    def has_edge(self, a_index: int, b_index: int) -> bool:
        return (a_index, b_index) in self.edges

    def cross_non_edges(self) -> Iterator[tuple[int, int]]:
        """All cross pairs that are not edges, in (a, b) sorted order."""
        for a in range(1, self.a_count + 1):
            for b in range(1, self.b_count + 1):
                if (a, b) not in self.edges:
                    yield (a, b)


@dataclass(frozen=True)
class DegreeProfile:
    """Per-vertex degrees, the two side maxima and the two side sizes.

    delta_prime is min(delta_a, delta_b); it is 0 exactly when the graph has
    no edges, since every edge raises both side maxima to at least 1.
    """

    delta_a: int
    delta_b: int
    delta_prime: int
    degrees: dict[Vertex, int]
    a_count: int
    b_count: int

    def degree(self, v: Vertex) -> int:
        return self.degrees[v]


def degree_profile(g: BipartiteGraph) -> DegreeProfile:
    """The profile of g, its degrees read off g.neighbours."""
    of_a = list(map(len, g.neighbours(SIDE_A)))
    of_b = list(map(len, g.neighbours(SIDE_B)))
    degrees = dict(zip(g.vertices(), of_a + of_b))
    delta_a, delta_b = max(of_a), max(of_b)
    return DegreeProfile(delta_a, delta_b, min(delta_a, delta_b), degrees,
                         g.a_count, g.b_count)


def normalize_sides(g: BipartiteGraph) -> tuple[BipartiteGraph, bool]:
    """Swap sides if needed so a_count <= b_count; the flag reports a swap.

    Equal side counts keep the original orientation.
    """
    if g.a_count <= g.b_count:
        return g, False
    flipped = frozenset((b, a) for a, b in g.edges)
    return BipartiteGraph(g.b_count, g.a_count, flipped), True


def gen_random_bipartite(n1: int, n2: int, p: float, seed: int) -> BipartiteGraph:
    """Random bipartite graph: each of the n1*n2 cross pairs is an edge
    independently with probability p.  Deterministic for a fixed seed.

    Cells are visited with geometric skips so the work is proportional to the
    number of edges drawn, not n1*n2.
    """
    if n1 < 1 or n2 < 1:
        raise ValueError(f"side counts must be >= 1, got {n1}, {n2}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must be within [0, 1], got {p}")
    total = n1 * n2
    if p == 0.0:
        chosen: list[int] = []
    elif p == 1.0:
        chosen = list(range(total))
    else:
        rng = random.Random(seed)
        log_q = math.log1p(-p)
        chosen = []
        cell = -1
        while True:
            try:
                gap = int(math.log1p(-rng.random()) / log_q)
            except OverflowError:  # an infinite skip, at a subnormal p: past every cell
                break
            cell += gap + 1
            if cell >= total:
                break
            chosen.append(cell)
    edges = frozenset((c // n2 + 1, c % n2 + 1) for c in chosen)
    return BipartiteGraph(n1, n2, edges)


def _natural(field: str) -> int:
    """The int that `field` spells in ASCII digits only, as the dump's
    vertex keys are (parse_vertex_key); ValueError for a sign, an
    underscore, any other digit, or more digits than int() reads."""
    if not (field.isascii() and field.isdigit()):
        raise ValueError(f"not ASCII digits: {field!r}")
    return int(field)


# The ASCII control characters but tab: str.split() reads \x0b, \x0c and
# \x1c-\x1f as spaces, so a header or edge line may hold none of them.
_CONTROL = re.compile(r"[\x00-\x08\x0a-\x1f\x7f]")


def parse_graph(text: str) -> BipartiteGraph:
    """Parse the graph file format:

        c optional comment
        p bipartite <n1> <n2> <m>
        e <a-index> <b-index>     (1-based, one line per edge)

    Lines end at LF, CRLF or CR only, so a form feed in a comment stays in
    it.  Counts and indices are ASCII digits, and only comment lines may
    hold other than ASCII characters; header and edge lines hold no
    control character but tab.  Raises GraphFormatError with the offending
    line number on malformed headers, more than MAX_VERTICES vertices,
    out-of-range indices, and duplicate edges.
    """
    n1 = n2 = m = None
    edges: set[tuple[int, int]] = set()
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] in ("p", "e") and _CONTROL.search(raw):
            raise GraphFormatError("control character outside a comment", lineno)
        if fields[0] == "p":
            if n1 is not None:
                raise GraphFormatError("duplicate header", lineno)
            if len(fields) != 5 or fields[1] != "bipartite":
                raise GraphFormatError(
                    "malformed header, expected 'p bipartite <n1> <n2> <m>'", lineno)
            try:
                n1, n2, m = map(_natural, fields[2:])
            except ValueError:
                raise GraphFormatError("malformed header, counts must be ASCII digits",
                                       lineno) from None
            if n1 < 1 or n2 < 1:
                raise GraphFormatError("side counts must be >= 1", lineno)
            if n1 + n2 > MAX_VERTICES:
                raise GraphFormatError(
                    f"{n1}+{n2} vertices exceed the limit of {MAX_VERTICES}", lineno)
        elif fields[0] == "e":
            if n1 is None or n2 is None or m is None:
                raise GraphFormatError("edge line before header", lineno)
            if len(fields) != 3:
                raise GraphFormatError("malformed edge, expected 'e <a> <b>'", lineno)
            try:
                a, b = map(_natural, fields[1:])
            except ValueError:
                raise GraphFormatError("malformed edge, indices must be ASCII digits",
                                       lineno) from None
            if not 1 <= a <= n1:
                raise GraphFormatError(f"a-index {a} outside 1..{n1}", lineno)
            if not 1 <= b <= n2:
                raise GraphFormatError(f"b-index {b} outside 1..{n2}", lineno)
            if (a, b) in edges:
                raise GraphFormatError(f"duplicate edge ({a}, {b})", lineno)
            if len(edges) == m:
                raise GraphFormatError(f"more than the declared {m} edges", lineno)
            edges.add((a, b))
        else:
            raise GraphFormatError(f"unrecognized line type {fields[0]!r}", lineno)
        if not raw.isascii():  # split() read a space such as U+00A0 or U+2028
            raise GraphFormatError("non-ASCII character outside a comment", lineno)
    if n1 is None or n2 is None or m is None:
        raise GraphFormatError("missing 'p bipartite' header")
    if len(edges) != m:
        raise GraphFormatError(f"header declares {m} edges, found {len(edges)}")
    return BipartiteGraph(n1, n2, frozenset(edges))


def serialize_graph(g: BipartiteGraph) -> str:
    """Canonical serialization: header, then edges sorted by (a, b)."""
    lines = [f"p bipartite {g.a_count} {g.b_count} {g.edge_count}"]
    lines.extend(f"e {a} {b}" for a, b in sorted(g.edges))
    return "\n".join(lines) + "\n"
