"""Deterministic bit-encoding dimensions that separate one side's vertices.

Dimension i of the family for a side places vertex j of that side at 0 or 2
by bit i of j - 1 and every other-side vertex at 1, threshold 1.  Distinct
same-side vertices differ in some encoded bit and sit distance 2 apart there,
so the family's intersection drops every same-side pair of that side while
keeping every cross pair.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import SIDE_A, BipartiteGraph, other_side, vertex_order
from .intervals import UnitIntervalRep, VertexGraph, induced_graph, intersect_graphs


def bit_count_for(size: int) -> int:
    """Bits needed to give 0..size-1 distinct patterns; 0 for a single vertex."""
    return (size - 1).bit_length()


@dataclass(frozen=True)
class BitEncodingFamily:
    side: str
    bit_count: int
    a_count: int
    b_count: int
    reps: tuple[UnitIntervalRep, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "reps", tuple(self.reps))
        if len(self.reps) != self.bit_count:
            raise ValueError("bit_count must match the number of dimensions")


def build_bit_family(g: BipartiteGraph, side: str) -> BitEncodingFamily:
    """Family of bit dimensions separating `side`; empty for a size-1 side.

    Vertex indices are encoded 0-based (j - 1) so size values up to 2^bits
    all get distinct patterns; bit i means the i-th least significant bit.
    """
    size = g.side_count(side)
    opposite = [1] * g.side_count(other_side(side))
    order = vertex_order(g.a_count, g.b_count)
    bits = bit_count_for(size)
    reps = []
    for i in range(bits):
        encoded = [2 if j >> i & 1 else 0 for j in range(size)]
        values = encoded + opposite if side == SIDE_A else opposite + encoded
        reps.append(UnitIntervalRep.column(order, values, 1))
    return BitEncodingFamily(side, bits, g.a_count, g.b_count, tuple(reps))


def family_intersection(fam: BitEncodingFamily) -> VertexGraph:
    """Intersection of the family's induced graphs; the empty family (size-1
    side) intersects to the complete graph on A union B."""
    verts = vertex_order(fam.a_count, fam.b_count)
    if not fam.reps:
        edges = frozenset(
            frozenset((verts[i], verts[j]))
            for i in range(len(verts))
            for j in range(i + 1, len(verts))
        )
        return VertexGraph(frozenset(verts), edges)
    return intersect_graphs([induced_graph(rep, verts) for rep in fam.reps])
