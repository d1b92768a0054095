"""Permutations, the permutation supergraph construction, survival probabilities."""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_graphs, bipartite_graphs
from cuberep import (
    SIDE_A,
    SIDE_B,
    BipartiteGraph,
    Permutation,
    UnitIntervalRep,
    choose_permuted_side,
    degree_profile,
    derive_seed,
    gen_random_bipartite,
    make_rng,
    nonedge_survival_exact,
    random_permutation,
    supergraph_from_permutation,
)
from cuberep.randomized import neighbour_masks, reached_below, survival_counts


def enumerate_survival(g: BipartiteGraph, side: str, pair: tuple[int, int]) -> Fraction:
    """Oracle: exact survival fraction of the cross pair over all permutations
    of `side`, checking adjacency in the constructed dimension itself."""
    a, b = pair
    size = g.side_count(side)
    hits = 0
    total = 0
    for ranks in itertools.permutations(range(1, size + 1)):
        dim = supergraph_from_permutation(Permutation(side, ranks), g)
        total += 1
        if dim.adjacent((SIDE_A, a), (SIDE_B, b)):
            hits += 1
    return Fraction(hits, total)


class TestSeeds:
    def test_derive_seed_frozen_values(self):
        assert derive_seed(0) == 1786884285633530058
        assert derive_seed(0, 0) == 1041621211125469266
        assert derive_seed(0, 0, 0) == 2891389769238885931
        assert derive_seed(1, 0, 0) == 6230597020350926737

    def test_derive_seed_distinct_paths(self):
        seen = {derive_seed(7, i, j) for i in range(20) for j in range(20)}
        assert len(seen) == 400

    def test_make_rng_deterministic(self):
        assert make_rng(5).random() == make_rng(5).random()


class TestPermutation:
    def test_must_be_bijection(self):
        with pytest.raises(ValueError):
            Permutation(SIDE_A, (1, 1))
        with pytest.raises(ValueError):
            Permutation(SIDE_A, (2, 3))
        with pytest.raises(ValueError):
            Permutation("C", (1,))

    def test_rank_accessor(self):
        pi = Permutation(SIDE_A, (3, 1, 2))
        assert [pi.rank(i) for i in (1, 2, 3)] == [3, 1, 2]
        with pytest.raises(ValueError):
            pi.rank(0)
        with pytest.raises(ValueError):
            pi.rank(4)

    def test_random_permutation_stable_stream(self):
        rng = make_rng(12345)
        drawn = [random_permutation(5, rng).ranks for _ in range(3)]
        assert drawn == [(5, 3, 2, 1, 4), (1, 5, 4, 3, 2), (4, 5, 1, 3, 2)]

    def test_random_permutation_uniform_frequency(self):
        # size 3, 6000 draws: each of the 6 permutations within 1/6 +- 0.03
        rng = make_rng(99)
        counts: dict[tuple[int, ...], int] = {}
        for _ in range(6000):
            ranks = random_permutation(3, rng).ranks
            counts[ranks] = counts.get(ranks, 0) + 1
        assert len(counts) == 6
        for count in counts.values():
            assert abs(count / 6000 - 1 / 6) <= 0.03

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 30), st.integers(0, 10 ** 6))
    def test_random_permutation_is_bijection(self, size, seed):
        pi = random_permutation(size, make_rng(seed))
        assert sorted(pi.ranks) == list(range(1, size + 1))


class TestSupergraphFromPermutation:
    def test_single_edge_example(self):
        g = BipartiteGraph(1, 1, {(1, 1)})
        dim = supergraph_from_permutation(Permutation(SIDE_A, (1,)), g)
        assert dim.placement == {(SIDE_A, 1): 1, (SIDE_B, 1): 3}
        assert dim.threshold == 2
        assert dim.adjacent((SIDE_A, 1), (SIDE_B, 1))

    def test_non_edge_survives_low_rank(self):
        g = BipartiteGraph(2, 1, {(1, 1)})
        dim = supergraph_from_permutation(Permutation(SIDE_A, (1, 2)), g)
        assert dim.placement[(SIDE_B, 1)] == 4
        assert dim.adjacent((SIDE_A, 2), (SIDE_B, 1))

    def test_non_edge_killed_high_rank(self):
        g = BipartiteGraph(2, 1, {(1, 1)})
        dim = supergraph_from_permutation(Permutation(SIDE_A, (2, 1)), g)
        assert dim.placement[(SIDE_B, 1)] == 5
        assert not dim.adjacent((SIDE_A, 2), (SIDE_B, 1))

    def test_isolated_vertex_far_out(self):
        g = BipartiteGraph(2, 2, {(1, 1)})
        dim = supergraph_from_permutation(Permutation(SIDE_A, (1, 2)), g)
        n = g.vertex_count
        assert dim.placement[(SIDE_B, 2)] == 2 * n + 2
        for i in (1, 2):
            assert not dim.adjacent((SIDE_A, i), (SIDE_B, 2))

    def test_permuted_side_b(self):
        g = BipartiteGraph(2, 2, {(1, 1), (2, 1), (2, 2)})
        dim = supergraph_from_permutation(Permutation(SIDE_B, (2, 1)), g)
        assert dim.placement[(SIDE_B, 1)] == 2
        assert dim.placement[(SIDE_B, 2)] == 1
        # a1 sees b1 only (rank 2); a2 sees min(rank b1, rank b2) = 1
        assert dim.placement[(SIDE_A, 1)] == 4 + 2
        assert dim.placement[(SIDE_A, 2)] == 4 + 1

    def test_size_mismatch_rejected(self):
        g = BipartiteGraph(2, 1, {(1, 1)})
        with pytest.raises(ValueError):
            supergraph_from_permutation(Permutation(SIDE_A, (1,)), g)

    @settings(max_examples=120, deadline=None)
    @given(bipartite_graphs(max_a=7, max_b=7), st.integers(0, 10 ** 6),
           st.sampled_from([SIDE_A, SIDE_B]))
    def test_placement_matches_definition(self, g, seed, side):
        other = SIDE_B if side == SIDE_A else SIDE_A
        n = g.vertex_count
        pi = random_permutation(g.side_count(side), make_rng(seed), side)
        dim = supergraph_from_permutation(pi, g)
        expected = {(side, i): pi.rank(i) for i in range(1, g.side_count(side) + 1)}
        for j in range(1, g.side_count(other) + 1):
            ranks = [pi.rank(i) for i in range(1, g.side_count(side) + 1)
                     if (g.has_edge(i, j) if side == SIDE_A else g.has_edge(j, i))]
            expected[(other, j)] = n + min(ranks) if ranks else 2 * n + 2
        # the view iterates in canonical order: A1..An1, B1..Bn2
        assert list(dim.placement.items()) == sorted(expected.items())
        assert dim == UnitIntervalRep(expected, n)

    def test_every_edge_kept_exhaustive_small(self):
        for n1, n2 in [(1, 1), (2, 2), (3, 2)]:
            for g in all_graphs(n1, n2):
                for side, size in ((SIDE_A, n1), (SIDE_B, n2)):
                    for ranks in itertools.permutations(range(1, size + 1)):
                        dim = supergraph_from_permutation(Permutation(side, ranks), g)
                        for a, b in g.edges:
                            assert dim.adjacent((SIDE_A, a), (SIDE_B, b))

    @settings(max_examples=120, deadline=None)
    @given(bipartite_graphs(max_a=7, max_b=7), st.integers(0, 10 ** 6),
           st.sampled_from([SIDE_A, SIDE_B]))
    def test_every_edge_kept_random(self, g, seed, side):
        pi = random_permutation(g.side_count(side), make_rng(seed), side)
        dim = supergraph_from_permutation(pi, g)
        for a, b in g.edges:
            assert dim.adjacent((SIDE_A, a), (SIDE_B, b))


class TestReachedBelow:
    def test_example(self):
        # b1 sees a2 and a3, b2 sees nothing
        g = BipartiteGraph(3, 2, {(2, 1), (3, 1)})
        neighbours = neighbour_masks(g, SIDE_A)
        assert neighbours == [0b00, 0b01, 0b01]
        assert neighbour_masks(g, SIDE_B) == [0b110, 0b000]
        # ranks a1 = 1, a3 = 2, a2 = 3: b1 is reached from rank 2 on
        assert reached_below((1, 3, 2), neighbours) == [0b00, 0b01, 0b00]

    @settings(max_examples=100, deadline=None)
    @given(bipartite_graphs(max_a=6, max_b=6), st.sampled_from([SIDE_A, SIDE_B]))
    def test_neighbour_masks_match_has_edge(self, g, side):
        masks = neighbour_masks(g, side)
        assert len(masks) == g.side_count(side)
        count = g.vertex_count - len(masks)
        for p, mask in enumerate(masks, start=1):
            assert mask >> count == 0
            for f in range(1, count + 1):
                a, b = (p, f) if side == SIDE_A else (f, p)
                assert bool(mask >> (f - 1) & 1) == g.has_edge(a, b)

    def test_rank_rule_matches_dimension_exhaustive_small(self):
        # a cross non-edge (p, f) is adjacent in the constructed dimension
        # exactly when f is reached below p, over every permutation of either side
        for n1, n2 in [(1, 2), (2, 2), (3, 2)]:
            for g in all_graphs(n1, n2):
                for side in (SIDE_A, SIDE_B):
                    neighbours = neighbour_masks(g, side)
                    for ranks in itertools.permutations(range(1, g.side_count(side) + 1)):
                        dim = supergraph_from_permutation(Permutation(side, ranks), g)
                        reached = reached_below(ranks, neighbours)
                        for a, b in g.cross_non_edges():
                            p, f = (a, b) if side == SIDE_A else (b, a)
                            assert dim.adjacent((SIDE_A, a), (SIDE_B, b)) == \
                                bool(reached[p - 1] >> (f - 1) & 1)


def counted_per_trial(g: BipartiteGraph, side: str, trials: int, seed: int) -> list[int]:
    """Oracle for survival_counts: one dimension built per trial from a plain
    rng.shuffle of the ranks, and each cross non-edge checked in it."""
    rng = make_rng(seed)
    pairs = sorted(g.cross_non_edges())
    counts = [0] * len(pairs)
    for _ in range(trials):
        ranks = list(range(1, g.side_count(side) + 1))
        rng.shuffle(ranks)
        dim = supergraph_from_permutation(Permutation(side, ranks), g)
        for i, (a, b) in enumerate(pairs):
            counts[i] += dim.adjacent((SIDE_A, a), (SIDE_B, b))
    return counts


def table_counts(g: BipartiteGraph, side: str, trials: int, seed: int) -> list[int]:
    other = SIDE_B if side == SIDE_A else SIDE_A
    ends = [(a - 1, b - 1) if side == SIDE_A else (b - 1, a - 1)
            for a, b in sorted(g.cross_non_edges())]
    return survival_counts(neighbour_masks(g, side), g.side_count(other), ends,
                           trials, make_rng(seed))


class TestSurvivalCounts:
    @pytest.mark.parametrize("side", [SIDE_A, SIDE_B])
    @pytest.mark.parametrize("g", [
        BipartiteGraph(1, 1, set()),
        BipartiteGraph(1, 1, {(1, 1)}),
        BipartiteGraph(2, 3, {(a, b) for a in (1, 2) for b in (1, 2, 3)}),  # complete
        BipartiteGraph(4, 5, {(1, 1), (2, 1), (2, 3), (4, 3)}),  # isolated A3, B2, B4, B5
        BipartiteGraph(3, 11, {(1, 9), (2, 10), (3, 11), (1, 1)}),  # 11 bits: two bytes
        BipartiteGraph(3, 16, {(1, 8), (2, 9), (3, 16), (2, 1)}),  # 16 bits: bytes full
    ])
    # TABLE_BLOCK = 255 trials per block: one partial block, one full, and
    # two full blocks and a partial one
    @pytest.mark.parametrize("trials", [1, 255, 600])
    def test_matches_per_trial_count(self, g, side, trials):
        assert table_counts(g, side, trials, 5) == counted_per_trial(g, side, trials, 5)

    def test_a_byte_lane_holds_a_full_block(self):
        # b1 sees every A vertex but a1, so (a1, b1) survives a trial unless
        # a1 ranks first: a block of 255 trials most likely counts 255 for
        # it, which must not carry into the lane of (a1, b2)
        size = 1500
        neighbours = [0b10] + [0b01] * (size - 1)
        ends = [(0, 0), (0, 1)]
        rng = make_rng(6)
        expected = [0, 0]
        for _ in range(510):
            ranks = list(range(1, size + 1))
            rng.shuffle(ranks)
            reached = reached_below(ranks, neighbours)
            expected = [c + (reached[p] >> f & 1) for c, (p, f) in zip(expected, ends)]
        assert expected[0] > 500
        assert survival_counts(neighbours, 2, ends, 510, make_rng(6)) == expected

    def test_complete_graph_counts_nothing(self):
        g = BipartiteGraph(2, 2, {(1, 1), (1, 2), (2, 1), (2, 2)})
        assert table_counts(g, SIDE_A, 10, 1) == []

    def test_leaves_the_stream_where_shuffle_would(self):
        g = gen_random_bipartite(6, 9, 0.3, 4)
        drawn, shuffled = make_rng(8), make_rng(8)
        survival_counts(neighbour_masks(g, SIDE_A), 9, [(0, 0)], 70, drawn)
        for _ in range(70):
            shuffled.shuffle(list(range(6)))
        assert drawn.getstate() == shuffled.getstate()

    @settings(max_examples=40, deadline=None)
    @given(bipartite_graphs(max_a=6, max_b=10), st.sampled_from([SIDE_A, SIDE_B]),
           st.integers(1, 300), st.integers(0, 10 ** 6))
    def test_matches_per_trial_count_random(self, g, side, trials, seed):
        assert table_counts(g, side, trials, seed) == counted_per_trial(g, side, trials, seed)


class TestBranchChoice:
    def test_permutes_side_with_smaller_opposite_maximum(self):
        wide_star = BipartiteGraph(1, 3, {(1, 1), (1, 2), (1, 3)})
        assert choose_permuted_side(degree_profile(wide_star)) == SIDE_A
        tall_star = BipartiteGraph(3, 1, {(1, 1), (2, 1), (3, 1)})
        assert choose_permuted_side(degree_profile(tall_star)) == SIDE_B

    def test_tie_permutes_side_a(self):
        square = BipartiteGraph(2, 2, {(1, 1), (2, 2)})
        assert choose_permuted_side(degree_profile(square)) == SIDE_A

    def test_tie_permutes_smaller_side(self):
        tall = BipartiteGraph(3, 2, {(1, 1), (2, 2)})
        assert choose_permuted_side(degree_profile(tall)) == SIDE_B
        wide = BipartiteGraph(2, 3, {(1, 1), (2, 2)})
        assert choose_permuted_side(degree_profile(wide)) == SIDE_A


class TestNonedgeSurvival:
    def test_two_by_one_half(self):
        g = BipartiteGraph(2, 1, {(1, 1)})
        assert nonedge_survival_exact(g, (SIDE_A, 2), (SIDE_B, 1)) == Fraction(1, 2)
        assert enumerate_survival(g, SIDE_A, (2, 1)) == Fraction(1, 2)

    def test_isolated_endpoint_zero(self):
        g = BipartiteGraph(2, 2, {(1, 1)})
        assert nonedge_survival_exact(g, (SIDE_A, 1), (SIDE_B, 2)) == 0
        assert enumerate_survival(g, SIDE_A, (1, 2)) == 0

    def test_degree_three_of_five(self):
        # b1 has neighbors a1, a2, a3; the non-edge (a5, b1) survives exactly
        # when a5 does not carry the smallest of the four relevant ranks.
        g = BipartiteGraph(5, 1, {(1, 1), (2, 1), (3, 1)})
        assert nonedge_survival_exact(g, (SIDE_A, 5), (SIDE_B, 1)) == Fraction(3, 4)
        assert enumerate_survival(g, SIDE_A, (5, 1)) == Fraction(3, 4)

    def test_permuted_side_b_uses_a_degree(self):
        g = BipartiteGraph(2, 3, {(1, 1), (1, 2)})
        assert nonedge_survival_exact(g, (SIDE_B, 3), (SIDE_A, 1)) == Fraction(2, 3)
        assert enumerate_survival(g, SIDE_B, (1, 3)) == Fraction(2, 3)

    def test_rejects_edges_and_same_side_pairs(self):
        g = BipartiteGraph(2, 2, {(1, 1)})
        with pytest.raises(ValueError, match="is an edge"):
            nonedge_survival_exact(g, (SIDE_A, 1), (SIDE_B, 1))
        with pytest.raises(ValueError, match="cross pairs"):
            nonedge_survival_exact(g, (SIDE_A, 1), (SIDE_A, 2))
        with pytest.raises(ValueError, match="outside"):
            nonedge_survival_exact(g, (SIDE_A, 3), (SIDE_B, 1))

    def test_enumeration_matches_closed_form_small_graphs(self):
        for seed in range(6):
            g = gen_random_bipartite(4, 3, 0.4, seed)
            for a, b in g.cross_non_edges():
                closed = nonedge_survival_exact(g, (SIDE_A, a), (SIDE_B, b))
                assert enumerate_survival(g, SIDE_A, (a, b)) == closed
