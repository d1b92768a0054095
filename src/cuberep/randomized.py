"""Random permutations and the permutation-driven supergraph construction.

One random dimension: permute one side uniformly, place each permuted-side
vertex at its rank, and place each vertex of the other side just past the
smallest rank in its neighborhood.  Every edge stays adjacent; each cross
non-edge survives with probability d/(d + 1), d the degree of its
non-permuted endpoint.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from operator import add
from typing import Sequence

from .graphs import (
    SIDE_A,
    SIDE_B,
    BipartiteGraph,
    DegreeProfile,
    Vertex,
    degree_profile,
    other_side,
    vertex_order,
)
from .intervals import UnitIntervalRep

MASK64 = (1 << 64) - 1


def make_rng(seed: int) -> random.Random:
    """Deterministic RNG stream for a 64-bit seed."""
    return random.Random(seed & MASK64)


def derive_seed(master: int, *path: int) -> int:
    """Stable 64-bit seed for a (master, index...) path, so retries and
    per-dimension invocations draw independent streams reproducibly."""
    h = hashlib.blake2b(digest_size=8)
    h.update((master & MASK64).to_bytes(8, "little"))
    for part in path:
        h.update((part & MASK64).to_bytes(8, "little"))
    return int.from_bytes(h.digest(), "little")


@dataclass(frozen=True)
class Permutation:
    """Bijection from one side's vertex indices onto ranks 1..size;
    ranks[i - 1] is the rank of vertex i."""

    side: str
    ranks: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "ranks", tuple(self.ranks))
        other_side(self.side)  # validates the label
        if sorted(self.ranks) != list(range(1, len(self.ranks) + 1)):
            raise ValueError("ranks must be a bijection onto 1..size")

    @property
    def size(self) -> int:
        return len(self.ranks)

    def rank(self, index: int) -> int:
        if not 1 <= index <= len(self.ranks):
            raise ValueError(f"index {index} outside 1..{len(self.ranks)}")
        return self.ranks[index - 1]


def shuffled_ranks(size: int, rng: random.Random) -> list[int]:
    """The ranks 1..size in the order random.Random.shuffle leaves them.

    An inline Fisher-Yates shuffle making the getrandbits calls CPython's
    shuffle makes (3.10 to 3.13): for i from size - 1 down to 1, with
    n = i + 1 and k = n.bit_length(), getrandbits(k) is redrawn until it is
    below n.  Both the ranks and the generator's state afterwards equal
    shuffle's; only the per-step method call of shuffle is saved, and the
    per-step k, which _shuffle_steps holds.
    """
    ranks = list(range(1, size + 1))
    getrandbits = rng.getrandbits
    for i, k in _shuffle_steps(size):
        j = getrandbits(k)
        while j > i:  # j >= n
            j = getrandbits(k)
        ranks[i], ranks[j] = ranks[j], ranks[i]
    return ranks


@lru_cache(maxsize=4)
def _shuffle_steps(size: int) -> tuple[tuple[int, int], ...]:
    """The steps (i, k) of shuffled_ranks of `size` ranks, in turn: about
    80 bytes a step, made once per size.  A build or a probe draws one size."""
    return tuple((i, (i + 1).bit_length()) for i in range(size - 1, 0, -1))


def random_permutation(size: int, rng: random.Random, side: str = SIDE_A) -> Permutation:
    """Uniformly random permutation; exact uniform shuffle (shuffled_ranks),
    deterministic for a given rng state."""
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    return Permutation(side, tuple(shuffled_ranks(size, rng)))


def supergraph_from_permutation(pi: Permutation, g: BipartiteGraph) -> UnitIntervalRep:
    """The unit interval dimension a permutation of one side determines.

    With n = a_count + b_count and threshold n: permuted-side vertex i sits at
    rank(i); a non-permuted vertex sits at n + (smallest rank among its
    neighbors).  A non-permuted isolated vertex has no such rank and sits at
    2n + 2, past the threshold reach of every permuted placement.
    """
    s_size = g.side_count(pi.side)
    if pi.size != s_size:
        raise ValueError(f"permutation size {pi.size} != side {pi.side} size {s_size}")
    return supergraph_from_ranks(pi.ranks, pi.side, g)


def supergraph_from_ranks(ranks: Sequence[int], side: str, g: BipartiteGraph) -> UnitIntervalRep:
    """supergraph_from_permutation of the permutation of `side` whose ranks
    are `ranks`, which must be a bijection from that side onto 1..its size:
    unlike a Permutation's, that is not checked.

    The neighbour lists are put in rank order and walked from the highest
    rank down, each writing its placement over every neighbour's, so the
    lowest is written last and no rank is compared."""
    n, size, ints = g.vertex_count, len(ranks), shared_ints(g.vertex_count)
    at_rank = [()] * size
    for neighbours, r in zip(g.neighbours(side), ranks):
        at_rank[r - 1] = neighbours
    placed = [ints[2 * n + 2]] * (n - size)  # no neighbour: isolated
    for x, neighbours in zip(ints[n + size:n:-1], reversed(at_rank)):
        for f in neighbours:
            placed[f] = x  # n + rank, the lowest rank written last
    values = [*ranks, *placed] if side == SIDE_A else [*placed, *ranks]
    return UnitIntervalRep.column(vertex_order(g.a_count, g.b_count), values, n)


@lru_cache(maxsize=16)
def shared_ints(n: int) -> tuple[int, ...]:
    """The ints 0..2n+2, every placement of a random dimension of n
    vertices, made once per vertex count: supergraph_from_ranks places the
    other side and a dump is read back with these objects, so they share
    one int object per value."""
    return tuple(range(2 * n + 3))


def choose_permuted_side(profile: DegreeProfile) -> str:
    """Permute the side whose opposite has the smaller maximum degree; a tie
    permutes the smaller side, or side A when the sides are equal."""
    if profile.delta_a != profile.delta_b:
        return SIDE_A if profile.delta_b < profile.delta_a else SIDE_B
    return SIDE_B if profile.b_count < profile.a_count else SIDE_A


def neighbour_masks(g: BipartiteGraph, side: str) -> list[int]:
    """For each vertex of `side` (entry i for vertex i + 1), the bitset of its
    neighbours on the other side, bit j for vertex j + 1."""
    # distinct powers of two: their sum is their OR
    return [sum(map((1).__lshift__, ns)) for ns in g.neighbours(side)]


def reached_below(ranks: Sequence[int], neighbours: list[int]) -> list[int]:
    """For each permuted vertex p (0-based, like `ranks`), the bitset of
    other-side vertices with a neighbour ranked below p (`neighbours` as from
    neighbour_masks).  This restates supergraph_from_permutation in ranks: a
    cross non-edge (p, f) is adjacent in its dimension iff f is in reached[p],
    since f sits at n + (its lowest neighbour rank), p at ranks[p] < n, and
    the threshold is n; an f without neighbours is never reached.
    """
    at_rank = [0] * len(ranks)
    for p, r in enumerate(ranks):
        at_rank[r - 1] = p
    reached = [0] * len(ranks)
    seen = 0
    for p in at_rank:
        reached[p] = seen
        seen |= neighbours[p]
    return reached


TABLE_BLOCK = 255  # trials per tally block: a byte lane counts at most 255

# _BIT_LANES[k] maps a byte to its bit k, so bytes.translate moves bit
# 8i + k of a little-endian bitset to byte i
_BIT_LANES = tuple(bytes(v >> k & 1 for v in range(256)) for k in range(8))


def survival_counts(neighbours: list[int], count: int, ends: Sequence[tuple[int, int]],
                    trials: int, rng: random.Random) -> list[int]:
    """For each cross non-edge (p, f) of `ends` (0-based permuted endpoint,
    other endpoint), in how many of `trials` permutations, drawn in turn from
    rng by shuffled_ranks, it is adjacent: f in reached_below(ranks)[p], with
    `neighbours` as from neighbour_masks and `count` other-side vertices.

    Each trial's reached_below row is written as bytes, `width` per permuted
    vertex, and split into eight lane planes, plane k holding bit 8i + k of
    each vertex's bitset in byte i.  Adding the planes as ints over a block
    of at most 255 trials never carries out of a byte, so byte p * width + i
    of plane k of the sum counts (p, 8i + k) over the block: the per-trial
    work is a few C-level passes over the row, whatever the number of
    non-edges, and each non-edge is read once per block.  The tally takes
    about side size times `count` bytes.
    """
    size = len(neighbours)
    width = (count + 7) // 8  # bytes per bitset; count >= 1
    plane = size * width
    where = [(f & 7) * plane + p * width + (f >> 3) for p, f in ends]
    counts = [0] * len(ends)
    done = 0
    while done < trials:
        drawn = min(TABLE_BLOCK, trials - done)
        done += drawn
        sums = [0] * 8
        for _ in range(drawn):
            reached = reached_below(shuffled_ranks(size, rng), neighbours)
            row = b"".join(map(int.to_bytes, reached, repeat(width), repeat("little")))
            sums = [s + int.from_bytes(row.translate(lane), "little")
                    for s, lane in zip(sums, _BIT_LANES)]
        tally = b"".join(s.to_bytes(plane, "little") for s in sums)
        counts = list(map(add, counts, map(tally.__getitem__, where)))
    return counts


def nonedge_survival_exact(g: BipartiteGraph, permuted: Vertex, other: Vertex) -> Fraction:
    """Probability that a cross non-edge stays adjacent in one random
    dimension permuting `permuted`'s side.

    The pair is adjacent iff some neighbor of the non-permuted endpoint ranks
    below the permuted endpoint; among those d + 1 candidates each is equally
    likely to rank lowest, giving exactly d/(d + 1).  With d = 0 the
    isolated-vertex placement gives probability 0, which the formula matches.
    """
    p_side, p_index = permuted
    o_side, o_index = other
    if p_side == o_side:
        raise ValueError("survival probability applies to cross pairs only")
    if not 1 <= p_index <= g.side_count(p_side):
        raise ValueError(f"index {p_index} outside side {p_side}")
    if not 1 <= o_index <= g.side_count(o_side):
        raise ValueError(f"index {o_index} outside side {o_side}")
    a_index, b_index = (p_index, o_index) if p_side == SIDE_A else (o_index, p_index)
    if g.has_edge(a_index, b_index):
        raise ValueError(f"({p_side}{p_index}, {o_side}{o_index}) is an edge, not a non-edge")
    d = degree_profile(g).degree(other)
    return Fraction(d, d + 1)
