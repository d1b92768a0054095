"""Unit interval representations, induced graphs, intersections, cube views."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .graphs import SIDE_A, SIDE_B, Vertex


@dataclass(frozen=True)
class UnitIntervalRep:
    """A placement f over vertices plus a positive threshold c.

    Induces the graph with an edge between u and v iff |f(u) - f(v)| <= c
    (closed comparison: equality counts as adjacent).  Placements are kept
    integral so induced adjacency is exact.
    """

    placement: Mapping[Vertex, int]
    threshold: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "placement", dict(self.placement))
        if not isinstance(self.threshold, int) or self.threshold <= 0:
            raise ValueError(f"threshold must be a positive integer, got {self.threshold!r}")
        for v, x in self.placement.items():
            if not isinstance(x, int) or isinstance(x, bool):
                raise ValueError(f"placement of {v!r} must be an integer, got {x!r}")

    @classmethod
    def owning(cls, placement: dict[Vertex, int], threshold: int) -> UnitIntervalRep:
        """Wrap a fresh dict of int placements and a positive int threshold as
        they are, skipping the copy and the checks of the constructor; the
        caller must not keep or mutate the dict."""
        rep = object.__new__(cls)
        object.__setattr__(rep, "placement", placement)
        object.__setattr__(rep, "threshold", threshold)
        return rep

    def adjacent(self, u: Vertex, v: Vertex) -> bool:
        f = self.placement
        return abs(f[u] - f[v]) <= self.threshold

    def vertices(self) -> set[Vertex]:
        return set(self.placement)


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


def random_dim_tag(index: int) -> str:
    return f"random-{index}"


def bit_dim_tag(side: str, index: int) -> str:
    return f"side-{side.lower()}-bit-{index}"


@dataclass(frozen=True)
class CubeRepresentation:
    """Ordered unit interval dimensions with one provenance tag each.

    Scaled by its threshold, every dimension gives each vertex a unit
    interval; the per-vertex interval lists are axis-parallel unit cubes
    whose intersection graph equals the intersection of the induced graphs.
    Provenance tags are for reporting only and carry no semantic weight.
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

    @property
    def dimension(self) -> int:
        return len(self.dims)

    def vertices(self) -> list[Vertex]:
        return ([(SIDE_A, i) for i in range(1, self.a_count + 1)]
                + [(SIDE_B, j) for j in range(1, self.b_count + 1)])


def to_unit_cubes(rep: CubeRepresentation) -> dict[Vertex, list[tuple[Fraction, Fraction]]]:
    """Per-vertex unit intervals [f/c, f/c + 1] as exact rationals, one per
    dimension.  Cubes of u and v intersect iff every dimension's intervals
    overlap (closed), which matches the threshold adjacency |f(u) - f(v)| <= c.
    """
    cubes: dict[Vertex, list[tuple[Fraction, Fraction]]] = {v: [] for v in rep.vertices()}
    for dim in rep.dims:
        c = dim.threshold
        for v, intervals in cubes.items():
            if v not in dim.placement:
                raise ValueError(f"no placement for {v!r}")
            lo = Fraction(dim.placement[v], c)
            intervals.append((lo, lo + 1))
    return cubes


def swap_sides(rep: CubeRepresentation) -> CubeRepresentation:
    """Relabel side A as side B and vice versa (undoes side normalization).

    Every dimension's placement keys come from one relabelling of the vertex
    set, so the dimensions share their key tuples; the values were checked
    when the dimensions were made and are kept as they are.
    """

    def swap_vertex(v: Vertex) -> Vertex:
        side, index = v
        return (SIDE_B if side == SIDE_A else SIDE_A, index)

    def swap_tag(tag: str) -> str:
        if tag.startswith("side-a-"):
            return "side-b-" + tag[len("side-a-"):]
        if tag.startswith("side-b-"):
            return "side-a-" + tag[len("side-b-"):]
        return tag

    relabel = {v: swap_vertex(v) for v in rep.vertices()}
    dims = tuple(
        UnitIntervalRep.owning(
            dict(zip([relabel.get(v) or swap_vertex(v) for v in dim.placement],
                     dim.placement.values())),
            dim.threshold)
        for dim in rep.dims
    )
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
    verts = rep.vertices()
    keys = [vertex_key(v) for v in verts]
    cells: list[list[list[str]]] = [[] for _ in verts]
    dims = []
    for dim, tag in zip(rep.dims, rep.provenance):
        f = dim.placement
        c = dim.threshold
        try:
            values = [f[v] for v in verts]
        except KeyError as exc:
            raise ValueError(f"no placement for {exc.args[0]!r}") from None
        if len(f) != len(verts):
            raise ValueError("placement holds a vertex outside the representation")
        for x, intervals in zip(values, cells):
            intervals.append(list(cube_cell(x, c)))
        dims.append({
            "provenance": tag,
            "threshold": c,
            "placement": dict(zip(keys, values)),
        })
    return {"a_count": rep.a_count, "b_count": rep.b_count, "dims": dims,
            "cubes": dict(zip(keys, cells))}


def rep_from_jsonable(obj: object) -> CubeRepresentation:
    if not isinstance(obj, dict):
        raise ValueError("dump must be a JSON object")
    a_count = obj.get("a_count")
    b_count = obj.get("b_count")
    if not all(isinstance(n, int) and not isinstance(n, bool) for n in (a_count, b_count)):
        raise ValueError("dump needs integer a_count and b_count")
    raw_dims = obj.get("dims")
    if not isinstance(raw_dims, list):
        raise ValueError("dump needs a list of dims")
    dims: list[UnitIntervalRep] = []
    tags: list[str] = []
    vertex_of: dict[str, Vertex] = {}  # keys already parsed and range-checked
    for pos, raw in enumerate(raw_dims):
        if not isinstance(raw, dict):
            raise ValueError(f"dim {pos} must be an object")
        threshold = raw.get("threshold")
        raw_placement = raw.get("placement")
        if not isinstance(raw_placement, dict):
            raise ValueError(f"dim {pos} needs a placement object")
        placement: dict[Vertex, int] = {}
        for key, value in raw_placement.items():
            v = vertex_of.get(key)
            if v is None:
                v = parse_vertex_key(key)
                side, index = v
                if index > (a_count if side == SIDE_A else b_count):
                    raise ValueError(f"dim {pos}: vertex {key} outside declared counts")
                vertex_of[key] = v
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"dim {pos}: placement of {key} must be an integer")
            placement[v] = value
        if not isinstance(threshold, int) or isinstance(threshold, bool) or threshold <= 0:
            raise ValueError(f"dim {pos}: threshold must be a positive integer")
        dims.append(UnitIntervalRep(placement, threshold))
        tag = raw.get("provenance", f"dim-{pos + 1}")
        if not isinstance(tag, str):
            raise ValueError(f"dim {pos}: provenance must be a string")
        tags.append(tag)
    return CubeRepresentation(a_count, b_count, tuple(dims), tuple(tags))
