"""Unit interval representations, induced graphs, intersections, cube views."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from operator import itemgetter
from types import MappingProxyType
from typing import Iterable, Mapping, NoReturn, Sequence

from .graphs import MAX_VERTICES, SIDE_A, SIDE_B, Vertex, vertex_order


class UnitIntervalRep:
    """A placement f over vertices plus a positive threshold c.

    Induces the graph with an edge between u and v iff |f(u) - f(v)| <= c
    (closed comparison: equality counts as adjacent).  Placements are kept
    integral so induced adjacency is exact.

    Stored as a column: the vertex tuple `verts` and the parallel list of
    int `values`, which nothing may mutate.  The constructor stores the
    vertices of `placement` in sorted order, so a placement over the
    vertices of a CubeRepresentation is in its canonical order
    vertex_order(a_count, b_count) whatever its key order; dimensions built
    by the library share that one tuple.  `placement` is a read-only mapping
    view of the column, built on first use.
    """

    __slots__ = ("verts", "values", "threshold", "_view")

    def __init__(self, placement: Mapping[Vertex, int], threshold: int) -> None:
        if not isinstance(threshold, int) or threshold <= 0:
            raise ValueError(f"threshold must be a positive integer, got {threshold!r}")
        for v, x in placement.items():
            if not isinstance(x, int) or isinstance(x, bool):
                raise ValueError(f"placement of {v!r} must be an integer, got {x!r}")
        verts = tuple(sorted(placement))
        self._set(verts, list(map(placement.__getitem__, verts)), threshold)

    @classmethod
    def column(cls, verts: tuple[Vertex, ...], values: list[int],
               threshold: int) -> UnitIntervalRep:
        """Wrap distinct vertices, a fresh list of their int values and a
        positive int threshold as they are, skipping the checks and the
        sorting of the constructor; a CubeRepresentation takes the column
        only if `verts` is its canonical vertex order."""
        rep = object.__new__(cls)
        rep._set(verts, values, threshold)
        return rep

    def _set(self, verts, values, threshold) -> None:
        for name, value in (("verts", verts), ("values", values),
                            ("threshold", threshold), ("_view", None)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to {name!r}: UnitIntervalRep is immutable")

    def __reduce__(self):
        return UnitIntervalRep.column, (self.verts, self.values, self.threshold)

    @property
    def placement(self) -> Mapping[Vertex, int]:
        view = self._view
        if view is None:
            view = MappingProxyType(dict(zip(self.verts, self.values)))
            object.__setattr__(self, "_view", view)
        return view

    def adjacent(self, u: Vertex, v: Vertex) -> bool:
        f = self.placement
        return abs(f[u] - f[v]) <= self.threshold

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UnitIntervalRep):
            return NotImplemented
        return (self.threshold == other.threshold and self.verts == other.verts
                and self.values == other.values)

    def __repr__(self) -> str:
        return f"UnitIntervalRep({dict(self.placement)!r}, {self.threshold!r})"


@dataclass(frozen=True)
class VertexGraph:
    """Plain undirected graph value; result type of induced_graph and
    intersect_graphs.  Unlike BipartiteGraph it may hold same-side pairs."""

    vertices: frozenset[Vertex]
    edges: frozenset[frozenset[Vertex]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertices", frozenset(self.vertices))
        object.__setattr__(self, "edges", frozenset(self.edges))
        for e in self.edges:
            if len(e) != 2 or not e <= self.vertices:
                raise ValueError(f"bad edge {set(e)!r}")

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        return frozenset((u, v)) in self.edges


def induced_graph(rep: UnitIntervalRep, vertices: Iterable[Vertex]) -> VertexGraph:
    """The graph induced by the threshold rule on the given vertices.

    Symmetric and loop-free; same-side pairs may appear.
    """
    verts = list(dict.fromkeys(vertices))
    f = rep.placement
    for v in verts:
        if v not in f:
            raise ValueError(f"no placement for {v!r}")
    c = rep.threshold
    edges: set[frozenset[Vertex]] = set()
    for i, u in enumerate(verts):
        fu = f[u]
        for v in verts[i + 1:]:
            if abs(fu - f[v]) <= c:
                edges.add(frozenset((u, v)))
    return VertexGraph(frozenset(verts), frozenset(edges))


def intersect_graphs(graphs: Sequence[VertexGraph]) -> VertexGraph:
    """Edge-set intersection of graphs sharing one vertex set."""
    if not graphs:
        raise ValueError("need at least one graph to intersect")
    base = graphs[0]
    edges = set(base.edges)
    for other in graphs[1:]:
        if other.vertices != base.vertices:
            raise ValueError("vertex sets differ")
        edges &= other.edges
    return VertexGraph(base.vertices, frozenset(edges))


# The provenance tags of the dimensions a build makes, and their grammar:
# random dimension j and bit i of side A's or side B's family, j and i
# positive integers without a leading zero.
def random_dim_tag(index: int) -> str:
    return f"random-{index}"


def bit_dim_tag(side: str, index: int) -> str:
    return f"side-{side.lower()}-bit-{index}"


TAG_KINDS = ("random", "side-a-bit", "side-b-bit")
_TAG = re.compile("(" + "|".join(TAG_KINDS) + ")-[1-9][0-9]*")


def tag_kind(tag: str) -> str | None:
    """The kind in TAG_KINDS of a well-formed provenance tag, or None for
    any other text."""
    match = _TAG.fullmatch(tag)
    return match[1] if match else None


@dataclass(frozen=True)
class CubeRepresentation:
    """Ordered unit interval dimensions with one provenance tag each.

    Scaled by its threshold, every dimension gives each vertex a unit
    interval; the per-vertex interval lists are axis-parallel unit cubes
    whose intersection graph equals the intersection of the induced graphs.
    Provenance tags are for reporting only and carry no semantic weight.
    Every dimension is a column in the canonical order
    vertex_order(a_count, b_count), which the constructor checks, so a
    consumer reads `dim.values` as it is.
    """

    a_count: int
    b_count: int
    dims: tuple[UnitIntervalRep, ...]
    provenance: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "dims", tuple(self.dims))
        object.__setattr__(self, "provenance", tuple(self.provenance))
        if self.a_count < 1 or self.b_count < 1:
            raise ValueError("side counts must be >= 1")
        if len(self.dims) != len(self.provenance):
            raise ValueError("need exactly one provenance tag per dimension")
        order = vertex_order(self.a_count, self.b_count)
        for pos, dim in enumerate(self.dims):
            if dim.verts is not order and dim.verts != order:
                raise ValueError(f"dimension {pos} placement does not cover the vertex set")

    @property
    def dimension(self) -> int:
        return len(self.dims)

    def vertices(self) -> list[Vertex]:
        return list(vertex_order(self.a_count, self.b_count))


def to_unit_cubes(rep: CubeRepresentation) -> dict[Vertex, list[tuple[Fraction, Fraction]]]:
    """Per-vertex unit intervals [f/c, f/c + 1] as exact rationals, one per
    dimension.  Cubes of u and v intersect iff every dimension's intervals
    overlap (closed), which matches the threshold adjacency |f(u) - f(v)| <= c.
    """
    cubes: dict[Vertex, list[tuple[Fraction, Fraction]]] = {v: [] for v in rep.vertices()}
    for dim in rep.dims:
        c = dim.threshold
        for x, intervals in zip(dim.values, cubes.values()):
            lo = Fraction(x, c)
            intervals.append((lo, lo + 1))
    return cubes


def swap_sides(rep: CubeRepresentation) -> CubeRepresentation:
    """Relabel side A as side B and vice versa (undoes side normalization).

    Each dimension keeps its values: the B block moves in front of the A
    block, which is the canonical order of the swapped sizes.
    """

    def swap_tag(tag: str) -> str:
        if tag.startswith("side-a-"):
            return "side-b-" + tag[len("side-a-"):]
        if tag.startswith("side-b-"):
            return "side-a-" + tag[len("side-b-"):]
        return tag

    swapped = vertex_order(rep.b_count, rep.a_count)
    split = rep.a_count
    dims = tuple(UnitIntervalRep.column(swapped, dim.values[split:] + dim.values[:split],
                                        dim.threshold) for dim in rep.dims)
    tags = tuple(swap_tag(t) for t in rep.provenance)
    return CubeRepresentation(rep.b_count, rep.a_count, dims, tags)


def vertex_key(v: Vertex) -> str:
    return f"{v[0]}{v[1]}"


def parse_vertex_key(key: str) -> Vertex:
    """Inverse of vertex_key.  Only its spelling (ASCII digits, no leading
    zero) is accepted, so no two keys such as A1 and A01 name one vertex."""
    side, digits = key[:1], key[1:]
    if side not in (SIDE_A, SIDE_B) or not (digits.isascii() and digits.isdigit()) \
            or digits.startswith("0"):
        raise ValueError(f"bad vertex key {key!r}")
    return (side, int(digits))


def _ratio_text(num: int, den: int) -> str:
    """str(Fraction(num, den)) for den > 0 whose gcd with num is already 1."""
    return str(num) if den == 1 else f"{num}/{den}"


def cube_cell(x: int, c: int) -> tuple[str, str]:
    """The cube ends x/c and (x + c)/c as lowest-terms text, as str(Fraction)
    writes them.  Both ends share the reducing factor gcd(x, c), so a cell
    takes one integer gcd instead of two Fraction objects."""
    d = math.gcd(x, c)
    return _ratio_text(x // d, c // d), _ratio_text((x + c) // d, c // d)


def rep_to_jsonable(rep: CubeRepresentation) -> dict:
    """JSON-ready dump: per dimension its threshold and placement, plus the
    cubes view of to_unit_cubes with rationals rendered in lowest terms
    (cube_cell)."""
    verts = vertex_order(rep.a_count, rep.b_count)
    keys = [vertex_key(v) for v in verts]
    cells: list[list[list[str]]] = [[] for _ in verts]
    dims = []
    for dim, tag in zip(rep.dims, rep.provenance):
        c = dim.threshold
        for x, intervals in zip(dim.values, cells):
            intervals.append(list(cube_cell(x, c)))
        dims.append({
            "provenance": tag,
            "threshold": c,
            "placement": dict(zip(keys, dim.values)),
        })
    return {"a_count": rep.a_count, "b_count": rep.b_count, "dims": dims,
            "cubes": dict(zip(keys, cells))}


def rep_from_jsonable(obj: object) -> CubeRepresentation:
    """The representation a dump payload describes; ValueError if it is
    malformed.  This is the full decode's reader: the stream reader reads
    a dims item by its layout, and proves what it reads by rendering it
    again.

    Each dimension is read in turn, so a bad one is refused, with an error
    naming its position, before later dimensions are read.  A placement
    holding exactly the declared vertices with int values becomes a column
    in canonical order through one lookup per vertex; any other placement
    is refused by _placement_fault.  Then the cubes block must restate the
    dimensions read (_check_cubes)."""
    if not isinstance(obj, dict):
        raise ValueError("dump must be a JSON object")
    a_count = obj.get("a_count")
    b_count = obj.get("b_count")
    if not all(isinstance(n, int) and not isinstance(n, bool) for n in (a_count, b_count)):
        raise ValueError("dump needs integer a_count and b_count")
    if a_count < 1 or b_count < 1:
        raise ValueError("side counts must be >= 1")
    count = a_count + b_count
    if count > MAX_VERTICES:
        raise ValueError(f"dump declares {a_count}+{b_count} vertices, "
                         f"more than the limit of {MAX_VERTICES}")
    order = vertex_order(a_count, b_count)
    lookup = itemgetter(*map(vertex_key, order))
    raw_dims = obj.get("dims")
    if not isinstance(raw_dims, list):
        raise ValueError("dump needs a list of dims")
    dims: list[UnitIntervalRep] = []
    tags: list[str] = []
    for pos, raw in enumerate(raw_dims):
        if not isinstance(raw, dict):
            raise ValueError(f"dim {pos} must be an object")
        threshold = raw.get("threshold")
        raw_placement = raw.get("placement")
        if not isinstance(raw_placement, dict):
            raise ValueError(f"dim {pos} needs a placement object")
        try:
            values = list(lookup(raw_placement))
        except KeyError:
            values = None
        # a JSON true is a bool, so the type test refuses it
        if values is None or len(raw_placement) != count or set(map(type, values)) != {int}:
            _placement_fault(raw_placement, pos, a_count, b_count)
        if not isinstance(threshold, int) or isinstance(threshold, bool) or threshold <= 0:
            raise ValueError(f"dim {pos}: threshold must be a positive integer")
        tag = raw.get("provenance", f"dim-{pos + 1}")
        if not isinstance(tag, str):
            raise ValueError(f"dim {pos}: provenance must be a string")
        dims.append(UnitIntervalRep.column(order, values, threshold))
        tags.append(tag)
    rep = CubeRepresentation(a_count, b_count, tuple(dims), tuple(tags))
    _check_cubes(obj.get("cubes"), rep)
    return rep


def _check_cubes(cubes: object, rep: CubeRepresentation) -> None:
    """ValueError unless `cubes` is an object keyed by exactly rep's
    vertices whose row for each vertex holds, per dimension, the cell
    list(cube_cell(value, threshold)) of its placement.  The message names
    the first vertex, in canonical order, whose row is wrong, and the first
    dimension at which it is.  A cell list is made once per distinct value
    and threshold, and one expected row at a time."""
    if not isinstance(cubes, dict):
        raise ValueError("dump needs a cubes object")
    cells: dict[int, dict[int, list[str]]] = {}  # threshold -> value -> cell
    columns = []
    for dim in rep.dims:
        c = dim.threshold
        known = cells.setdefault(c, {})
        for x in set(dim.values).difference(known):
            known[x] = list(cube_cell(x, c))
        columns.append(map(known.__getitem__, dim.values))
    rows = map(list, zip(*columns)) if columns else repeat([])
    for v, expected in zip(rep.vertices(), rows):
        key = vertex_key(v)
        row = cubes.get(key)
        if row == expected:
            continue
        if key not in cubes:
            raise ValueError(f"cubes miss vertex {key}")
        if not isinstance(row, list):
            raise ValueError(f"cubes of {key} must be a list")
        pos = next((pos for pos, (got, want) in enumerate(zip(row, expected))
                    if got != want), min(len(row), len(expected)))
        if pos < len(expected):
            raise ValueError(f"dim {pos}: cube of {key} differs from its placement")
        raise ValueError(f"cubes of {key} hold {len(row)} cells for {len(expected)} dims")
    if len(cubes) != rep.a_count + rep.b_count:
        keys = set(map(vertex_key, rep.vertices()))
        extra = next(key for key in cubes if key not in keys)
        raise ValueError(f"cubes hold {extra!r}, which is not a declared vertex")


def _placement_fault(raw_placement: dict, pos: int, a_count: int,
                     b_count: int) -> NoReturn:
    """Raise the first fault of a placement that is not a column, in item
    order: a bad key, an undeclared vertex or a non-int value; else, keys
    being distinct, it misses a declared vertex."""
    for key, value in raw_placement.items():
        side, index = parse_vertex_key(key)
        if index > (a_count if side == SIDE_A else b_count):
            raise ValueError(f"dim {pos}: vertex {key} outside declared counts")
        if type(value) is not int:
            raise ValueError(f"dim {pos}: placement of {key} must be an integer")
    raise ValueError(f"dimension {pos} placement does not cover the vertex set")
