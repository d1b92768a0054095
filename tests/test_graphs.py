"""Graph values, degrees, generation, and the file format."""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bipartite_graphs, brute_force_degree
from cuberep import (
    SIDE_A,
    SIDE_B,
    BipartiteGraph,
    GraphFormatError,
    degree_profile,
    gen_random_bipartite,
    normalize_sides,
    other_side,
    parse_graph,
    serialize_graph,
)
from cuberep.graphs import MAX_VERTICES


class TestBipartiteGraph:
    def test_counts_must_be_positive(self):
        with pytest.raises(ValueError):
            BipartiteGraph(0, 1, frozenset())
        with pytest.raises(ValueError):
            BipartiteGraph(1, 0, frozenset())

    def test_out_of_range_edges_rejected(self):
        with pytest.raises(ValueError):
            BipartiteGraph(2, 2, {(3, 1)})
        with pytest.raises(ValueError):
            BipartiteGraph(2, 2, {(1, 0)})

    def test_basic_accessors(self):
        g = BipartiteGraph(2, 3, {(1, 1), (2, 3)})
        assert g.edge_count == 2
        assert g.vertex_count == 5
        assert g.side_count(SIDE_A) == 2
        assert g.side_count(SIDE_B) == 3
        assert g.has_edge(1, 1) and not g.has_edge(1, 2)
        assert list(g.vertices()) == [
            (SIDE_A, 1), (SIDE_A, 2), (SIDE_B, 1), (SIDE_B, 2), (SIDE_B, 3)]

    @settings(max_examples=60, deadline=None)
    @given(bipartite_graphs(max_a=6, max_b=6))
    def test_neighbours_and_side_vertices(self, g):
        for side, other_count in ((SIDE_A, g.b_count), (SIDE_B, g.a_count)):
            neighbours = g.neighbours(side)
            assert len(neighbours) == g.side_count(side)
            for i, ns in enumerate(neighbours, start=1):
                expected = [j - 1 for j in range(1, other_count + 1)
                            if (g.has_edge(i, j) if side == SIDE_A else g.has_edge(j, i))]
                assert list(ns) == expected
        # the cached lists are no part of the value
        twin = BipartiteGraph(g.a_count, g.b_count, g.edges)
        assert twin == g and hash(twin) == hash(g)
        assert g.neighbours(SIDE_A) is g.neighbours(SIDE_A)

    def test_cross_non_edges_complement(self):
        g = BipartiteGraph(2, 2, {(1, 1), (2, 2)})
        assert list(g.cross_non_edges()) == [(1, 2), (2, 1)]

    def test_other_side(self):
        assert other_side(SIDE_A) == SIDE_B
        assert other_side(SIDE_B) == SIDE_A
        with pytest.raises(ValueError):
            other_side("C")


class TestDegreeProfile:
    def test_star_profile(self):
        g = BipartiteGraph(1, 3, {(1, 1), (1, 2), (1, 3)})
        profile = degree_profile(g)
        assert profile.delta_a == 3
        assert profile.delta_b == 1
        assert profile.delta_prime == 1
        assert profile.degree((SIDE_A, 1)) == 3

    def test_empty_graph_profile(self):
        profile = degree_profile(BipartiteGraph(3, 4, frozenset()))
        assert (profile.delta_a, profile.delta_b, profile.delta_prime) == (0, 0, 0)

    @settings(max_examples=150, deadline=None)
    @given(bipartite_graphs())
    def test_profile_matches_brute_force(self, g):
        profile = degree_profile(g)
        for v in g.vertices():
            assert profile.degree(v) == brute_force_degree(g, v)
        assert profile.delta_a == max(
            brute_force_degree(g, (SIDE_A, i)) for i in range(1, g.a_count + 1))
        assert profile.delta_b == max(
            brute_force_degree(g, (SIDE_B, j)) for j in range(1, g.b_count + 1))
        assert profile.delta_prime == min(profile.delta_a, profile.delta_b)
        assert (profile.a_count, profile.b_count) == (g.a_count, g.b_count)


class TestNormalizeSides:
    def test_already_normalized_untouched(self):
        g = BipartiteGraph(2, 3, {(1, 2)})
        normalized, swapped = normalize_sides(g)
        assert normalized is g and swapped is False

    def test_tie_keeps_orientation(self):
        g = BipartiteGraph(2, 2, {(1, 2)})
        normalized, swapped = normalize_sides(g)
        assert normalized is g and swapped is False

    def test_swap_flips_edges(self):
        g = BipartiteGraph(3, 2, {(3, 1), (1, 2)})
        normalized, swapped = normalize_sides(g)
        assert swapped is True
        assert (normalized.a_count, normalized.b_count) == (2, 3)
        assert normalized.edges == frozenset({(1, 3), (2, 1)})

    @settings(max_examples=100, deadline=None)
    @given(bipartite_graphs(max_a=6, max_b=6))
    def test_normalized_invariants(self, g):
        normalized, swapped = normalize_sides(g)
        assert normalized.a_count <= normalized.b_count
        assert normalized.edge_count == g.edge_count
        assert swapped == (g.a_count > g.b_count)
        again, swapped_again = normalize_sides(normalized)
        assert again is normalized and swapped_again is False
        profile, normalized_profile = degree_profile(g), degree_profile(normalized)
        assert normalized_profile.delta_prime == profile.delta_prime


class TestGenRandomBipartite:
    def test_p_zero_empty(self):
        assert gen_random_bipartite(4, 5, 0.0, 1).edge_count == 0

    def test_p_one_complete(self):
        g = gen_random_bipartite(4, 5, 1.0, 1)
        assert g.edge_count == 20

    def test_edge_count_binomial(self):
        # n1 = n2 = 50, p = 0.1: mean 250, sigma 15, so 4 sigma is +-60.
        g = gen_random_bipartite(50, 50, 0.1, seed=1)
        assert g.edge_count == 255
        assert abs(g.edge_count - 250) <= 60

    def test_deterministic_per_seed(self):
        a = gen_random_bipartite(12, 17, 0.37, seed=11)
        b = gen_random_bipartite(12, 17, 0.37, seed=11)
        c = gen_random_bipartite(12, 17, 0.37, seed=12)
        assert a == b
        assert a != c

    def test_probability_validated(self):
        with pytest.raises(ValueError):
            gen_random_bipartite(2, 2, -0.1, 1)
        with pytest.raises(ValueError):
            gen_random_bipartite(2, 2, 1.1, 1)
        with pytest.raises(ValueError):
            gen_random_bipartite(2, 2, float("nan"), 1)
        with pytest.raises(ValueError):
            gen_random_bipartite(0, 2, 0.5, 1)

    @pytest.mark.parametrize("p", [1e-310, 5e-324])
    def test_subnormal_probability_draws_no_edges(self, p):
        # the first geometric skip is infinite, past every cell
        assert gen_random_bipartite(4, 4, p, 1) == BipartiteGraph(4, 4, frozenset())

    @pytest.mark.parametrize("n1, n2, p, seed, digest", [
        (300, 600, 4 / 300, 5,
         "980b939f2220d742df1e253b3cd0c67d9981113c8f8a013502f49fc47ed2dd95"),
        (30, 60, 0.15, 3,
         "73356a7bc1a0d5d109948ef8e67ad14bedd3c84e40a861335672f7fc20645628"),
        (20, 40, 0.1, 1,
         "f0aee83bb0f529907e7ed1cea60bf78d3e246c042ef4ff6584e483a1d183cd13"),
    ])
    def test_draws_pinned(self, n1, n2, p, seed, digest):
        text = serialize_graph(gen_random_bipartite(n1, n2, p, seed))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 8),
           st.sampled_from([0.1, 0.5, 0.9]), st.integers(0, 10 ** 6))
    def test_generated_graphs_valid(self, n1, n2, p, seed):
        g = gen_random_bipartite(n1, n2, p, seed)
        assert g.a_count == n1 and g.b_count == n2
        for a, b in g.edges:
            assert 1 <= a <= n1 and 1 <= b <= n2


class TestGraphFile:
    def test_single_edge_example(self):
        g = parse_graph("p bipartite 1 1 1\ne 1 1\n")
        assert g == BipartiteGraph(1, 1, {(1, 1)})

    def test_comments_and_blanks_ignored(self):
        text = "c a comment\n\np bipartite 2 2 1\nc another\ne 2 1\n"
        assert parse_graph(text) == BipartiteGraph(2, 2, {(2, 1)})

    @pytest.mark.parametrize("mark", ["\x0c", "\x85", "\u2028", "\x1c", "\v"])
    def test_comment_keeps_characters_splitlines_would_split_at(self, mark):
        text = f"c note{mark}still the comment\np bipartite 2 2 1\ne 1 1\n"
        assert parse_graph(text) == BipartiteGraph(2, 2, {(1, 1)})
        # a later fault is named at its LF-counted line
        with pytest.raises(GraphFormatError) as excinfo:
            parse_graph(text + "e 3 1\n")
        assert excinfo.value.line == 4

    @pytest.mark.parametrize("end", ["\r\n", "\r"])
    def test_universal_line_ends(self, end):
        text = end.join(["c x", "p bipartite 2 2 1", "e 2 1", "e 9 1", ""])
        with pytest.raises(GraphFormatError) as excinfo:
            parse_graph(text)
        assert excinfo.value.line == 4
        assert parse_graph(text.replace("e 9 1", "c y")) == BipartiteGraph(2, 2, {(2, 1)})

    def test_serialize_canonical_order(self):
        g = BipartiteGraph(2, 2, {(2, 1), (1, 2), (1, 1)})
        assert serialize_graph(g) == (
            "p bipartite 2 2 3\ne 1 1\ne 1 2\ne 2 1\n")

    @settings(max_examples=150, deadline=None)
    @given(bipartite_graphs(max_a=6, max_b=6))
    def test_round_trip(self, g):
        assert parse_graph(serialize_graph(g)) == g

    def test_reparse_canonicalizes(self):
        scrambled = "c x\np bipartite 2 2 2\ne 2 1\ne 1 2\n"
        assert serialize_graph(parse_graph(scrambled)) == (
            "p bipartite 2 2 2\ne 1 2\ne 2 1\n")

    @pytest.mark.parametrize("text, line", [
        ("p bipartite 1 1\ne 1 1\n", 1),          # malformed header arity
        ("p unipartite 1 1 0\n", 1),              # wrong kind
        ("p bipartite x 1 0\n", 1),               # non-integer count
        ("p bipartite 0 1 0\n", 1),               # zero side
        ("p bipartite 1 1 -1\n", 1),              # negative edge count
        ("e 1 1\n", 1),                           # edge before header
        ("p bipartite 2 2 1\ne 3 1\n", 2),        # a-index out of range
        ("p bipartite 2 2 1\ne 1 5\n", 2),        # b-index out of range
        ("p bipartite 2 2 2\ne 1 1\ne 1 1\n", 3),  # duplicate edge
        ("p bipartite 2 2 1\ne 1 1\ne 2 2\n", 3),  # more edges than declared
        ("p bipartite 1 1 0\np bipartite 1 1 0\n", 2),  # duplicate header
        ("p bipartite 2 2 0\nq 1 1\n", 2),        # unknown line type
        ("p bipartite 2 2 1\ne 1 1 1\n", 2),      # malformed edge arity
        ("p bipartite 2 2 1\ne 1 x\n", 2),        # non-integer index
        # counts and indices are ASCII digits, as int() alone would not ask
        ("p bipartite 1_0 2 1\ne 1 2\n", 1),      # underscore in a count
        ("p bipartite +2 2 0\n", 1),              # signed count
        ("p bipartite 2 2 \u0661\n", 1),          # Arabic-Indic digit count
        ("p bipartite 2 2 1\ne \u0661 +2\n", 2),  # Arabic-Indic digit index
        ("p bipartite 2 2 1\ne +1 2\n", 2),       # signed index
        ("p bipartite 2 2 1\ne 1 2\uff12\n", 2),  # fullwidth digit index
        # header and edge lines are ASCII, as str.split() alone would not ask
        ("p bipartite 2 2 1\ne 1\u00a02\n", 2),  # no-break space in an edge
        ("p bipartite 2 2 1\ne 1\u20282\n", 2),  # line separator in an edge
        ("p\u00a0bipartite 1 1 1\ne 1 1\n", 1),  # no-break space in the header
        # a line separator before an edge line; the comment and the blank
        # line of a no-break space before it pass
        ("c \u00e9t\u00e9\np bipartite 1 1 0\n\u00a0\n\u2028e 1 1\n", 4),
        # header and edge lines hold no control character but tab, as
        # str.split() alone would not ask; the comment and the blank line
        # of separators before the edge pass
        *((f"p bipartite 2 2 1\ne 1{c}2\n", 2) for c in "\x0b\x0c\x1c\x1d\x1e\x1f"),
        ("p bipartite 2 2 1\ne 1 2\x0b\n", 2),  # trailing vertical tab
        ("p bipartite 2 2 1\ne 1\x002\n", 2),   # NUL in an edge
        ("p bipartite 2 2 1\ne 1 2\x7f\n", 2),  # DEL after an edge
        ("p\x0cbipartite 1 1 0\n", 1),          # form feed in the header
        ("c \x1f\x0b\np bipartite 1 1 0\n\x0b\x1c\ne\x1d1 1\n", 4),
    ])
    def test_errors_carry_line_numbers(self, text, line):
        with pytest.raises(GraphFormatError) as excinfo:
            parse_graph(text)
        assert excinfo.value.line == line
        assert f"line {line}:" in str(excinfo.value)

    @pytest.mark.parametrize("text, error", [
        (f"p bipartite 2 2 1\ne {'1' * 5000} 1\n",
         "line 2: malformed edge, indices must have at most 4300 digits"),
        (f"p bipartite {'1' * 5000} 2 0\n",
         "line 1: malformed header, counts must have at most 4300 digits"),
        (f"p bipartite 2 2 1\ne {'1' * 5000} x\n",  # a non-digit is named first
         "line 2: malformed edge, indices must be ASCII digits"),
    ])
    def test_fields_of_too_many_digits_are_named_too_long(self, text, error):
        with pytest.raises(GraphFormatError) as excinfo:
            parse_graph(text)
        assert str(excinfo.value) == error

    def test_tabs_separate_fields(self):
        assert parse_graph("p\tbipartite 2 2 1\t\ne\t1 2\n").edges == {(1, 2)}

    def test_vertex_count_limit(self):
        half = MAX_VERTICES // 2
        assert parse_graph(f"p bipartite {half} {half} 0\n").vertex_count == MAX_VERTICES
        with pytest.raises(GraphFormatError) as excinfo:
            parse_graph(f"c big\np bipartite {half} {half + 1} 0\n")
        assert str(excinfo.value) == (
            f"line 2: {half}+{half + 1} vertices exceed the limit of {MAX_VERTICES}")

    def test_missing_header(self):
        with pytest.raises(GraphFormatError) as excinfo:
            parse_graph("c nothing else\n")
        assert excinfo.value.line is None

    def test_declared_count_must_match(self):
        with pytest.raises(GraphFormatError, match="declares 2 edges, found 1"):
            parse_graph("p bipartite 2 2 2\ne 1 1\n")
