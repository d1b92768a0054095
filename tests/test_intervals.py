"""Interval representations: induced graphs, intersections, cube views, dumps."""

from __future__ import annotations

import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_pairs
from cuberep import (
    SIDE_A,
    SIDE_B,
    CubeRepresentation,
    UnitIntervalRep,
    VertexGraph,
    induced_graph,
    intersect_graphs,
    rep_from_jsonable,
    rep_to_jsonable,
    swap_sides,
    to_unit_cubes,
    vertex_key,
)
from cuberep.intervals import bit_dim_tag, parse_vertex_key, random_dim_tag, tag_kind

VERTS = [(SIDE_A, 1), (SIDE_A, 2), (SIDE_B, 1), (SIDE_B, 2)]


@st.composite
def placements(draw, vertices=tuple(VERTS), lo=-20, hi=20):
    return {v: draw(st.integers(lo, hi)) for v in vertices}


@st.composite
def unit_interval_reps(draw):
    return UnitIntervalRep(draw(placements()), draw(st.integers(1, 10)))


@st.composite
def vertex_graphs(draw, vertices=tuple(VERTS)):
    pairs = [frozenset(p) for p in all_pairs(vertices)]
    edges = draw(st.sets(st.sampled_from(pairs)))
    return VertexGraph(frozenset(vertices), frozenset(edges))


class TestUnitIntervalRep:
    def test_threshold_must_be_positive_integer(self):
        with pytest.raises(ValueError):
            UnitIntervalRep({(SIDE_A, 1): 0}, 0)
        with pytest.raises(ValueError):
            UnitIntervalRep({(SIDE_A, 1): 0}, -3)

    def test_placements_must_be_integers(self):
        with pytest.raises(ValueError):
            UnitIntervalRep({(SIDE_A, 1): 0.5}, 1)

    def test_column_wraps_without_copy(self):
        verts, values = ((SIDE_A, 1), (SIDE_B, 1)), [0, 4]
        rep = UnitIntervalRep.column(verts, values, 4)
        assert rep.verts is verts and rep.values is values
        assert rep == UnitIntervalRep(dict(zip(verts, values)), 4)

    def test_placement_is_a_cached_read_only_view(self):
        rep = UnitIntervalRep({(SIDE_A, 1): 0, (SIDE_B, 1): 4}, 4)
        assert rep.placement is rep.placement
        with pytest.raises(TypeError):
            rep.placement[(SIDE_A, 1)] = 7
        with pytest.raises(AttributeError):
            rep.threshold = 2

    @pytest.mark.parametrize("duplicate", [
        copy.copy, copy.deepcopy, lambda rep: pickle.loads(pickle.dumps(rep))])
    def test_copies_and_pickles(self, duplicate):
        rep = UnitIntervalRep({(SIDE_B, 1): 5, (SIDE_A, 1): 1}, 4)
        assert duplicate(rep) == rep

    def test_equality_ignores_column_order(self):
        rep = UnitIntervalRep({(SIDE_B, 1): 5, (SIDE_A, 1): 1}, 4)
        assert rep == UnitIntervalRep({(SIDE_A, 1): 1, (SIDE_B, 1): 5}, 4)
        assert rep != UnitIntervalRep({(SIDE_A, 1): 1, (SIDE_B, 1): 5}, 3)
        assert rep != UnitIntervalRep({(SIDE_A, 1): 1}, 4)

    def test_adjacency_is_closed(self):
        rep = UnitIntervalRep({(SIDE_A, 1): 0, (SIDE_B, 1): 4, (SIDE_B, 2): 5}, 4)
        # distance exactly the threshold counts as adjacent
        assert rep.adjacent((SIDE_A, 1), (SIDE_B, 1))
        assert not rep.adjacent((SIDE_A, 1), (SIDE_B, 2))


class TestInducedGraph:
    def test_bit_pattern_example(self):
        # Two side-A vertices at 0/2 and one side-B vertex at 1, threshold 1:
        # the A pair is separated, both cross pairs stay.
        rep = UnitIntervalRep({(SIDE_A, 1): 2, (SIDE_A, 2): 0, (SIDE_B, 1): 1}, 1)
        graph = induced_graph(rep, [(SIDE_A, 1), (SIDE_A, 2), (SIDE_B, 1)])
        assert not graph.has_edge((SIDE_A, 1), (SIDE_A, 2))
        assert graph.has_edge((SIDE_A, 1), (SIDE_B, 1))
        assert graph.has_edge((SIDE_A, 2), (SIDE_B, 1))

    def test_missing_placement_rejected(self):
        rep = UnitIntervalRep({(SIDE_A, 1): 0}, 1)
        with pytest.raises(ValueError, match="no placement"):
            induced_graph(rep, [(SIDE_A, 1), (SIDE_B, 1)])

    @settings(max_examples=120, deadline=None)
    @given(unit_interval_reps())
    def test_matches_pairwise_adjacency(self, rep):
        graph = induced_graph(rep, VERTS)
        for u, v in all_pairs(VERTS):
            assert graph.has_edge(u, v) == rep.adjacent(u, v)
            assert graph.has_edge(u, v) == graph.has_edge(v, u)
        for v in VERTS:
            assert not graph.has_edge(v, v)


class TestIntersectGraphs:
    def test_single_operand_identity(self):
        g = VertexGraph(frozenset(VERTS), frozenset({frozenset(p) for p in all_pairs(VERTS)}))
        assert intersect_graphs([g]) == g

    def test_complete_is_identity_element(self):
        complete = VertexGraph(
            frozenset(VERTS), frozenset({frozenset(p) for p in all_pairs(VERTS)}))
        some = VertexGraph(
            frozenset(VERTS), frozenset({frozenset((VERTS[0], VERTS[2]))}))
        assert intersect_graphs([complete, some]) == some

    def test_mismatched_vertices_rejected(self):
        g1 = VertexGraph(frozenset(VERTS), frozenset())
        g2 = VertexGraph(frozenset(VERTS[:2]), frozenset())
        with pytest.raises(ValueError, match="vertex sets differ"):
            intersect_graphs([g1, g2])

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            intersect_graphs([])

    @settings(max_examples=100, deadline=None)
    @given(vertex_graphs(), vertex_graphs(), vertex_graphs())
    def test_algebraic_laws(self, g1, g2, g3):
        assert intersect_graphs([g1, g2]) == intersect_graphs([g2, g1])
        assert intersect_graphs([g1, g1]) == g1
        left = intersect_graphs([intersect_graphs([g1, g2]), g3])
        right = intersect_graphs([g1, intersect_graphs([g2, g3])])
        assert left == right == intersect_graphs([g1, g2, g3])


def two_dim_rep() -> CubeRepresentation:
    dim1 = UnitIntervalRep({(SIDE_A, 1): 1, (SIDE_B, 1): 5}, 4)
    dim2 = UnitIntervalRep({(SIDE_A, 1): 0, (SIDE_B, 1): 1}, 1)
    return CubeRepresentation(1, 1, (dim1, dim2), (random_dim_tag(1), bit_dim_tag(SIDE_B, 1)))


class TestCubeRepresentation:
    def test_provenance_arity_enforced(self):
        dim = UnitIntervalRep({(SIDE_A, 1): 0, (SIDE_B, 1): 1}, 1)
        with pytest.raises(ValueError):
            CubeRepresentation(1, 1, (dim,), ())

    def test_every_dimension_covers_the_vertex_set(self):
        canonical = UnitIntervalRep.column(tuple(VERTS), [3, -1, 0, 7], 2)
        # a complete placement in any key order is the canonical column
        for keys in (VERTS, VERTS[::-1], VERTS[2:] + VERTS[:2]):
            assert UnitIntervalRep({v: canonical.placement[v] for v in keys}, 2) == canonical
        missing = UnitIntervalRep(dict.fromkeys(VERTS[:3], 0), 1)
        stray = UnitIntervalRep({**dict.fromkeys(VERTS, 0), (SIDE_B, 3): 0}, 5)
        # by position, not by the tightest-threshold-first order of verify
        tags = tuple(random_dim_tag(j + 1) for j in range(4))
        for dims, pos in (((missing,), 0), ((canonical, stray), 1),
                          ((canonical, stray, canonical, missing), 1)):
            with pytest.raises(ValueError,
                               match=f"^dimension {pos} placement does not cover the vertex set$"):
                CubeRepresentation(2, 2, dims, tags[:len(dims)])

    def test_vertices_ordered(self):
        rep = two_dim_rep()
        assert rep.dimension == 2
        assert rep.vertices() == [(SIDE_A, 1), (SIDE_B, 1)]


class TestToUnitCubes:
    def test_quarter_scaling_example(self):
        # placement 1 with threshold 4 becomes [1/4, 5/4]; placement 5 becomes
        # [5/4, 9/4]; the intervals touch, matching |5 - 1| <= 4.
        cubes = to_unit_cubes(two_dim_rep())
        assert cubes[(SIDE_A, 1)][0] == (Fraction(1, 4), Fraction(5, 4))
        assert cubes[(SIDE_B, 1)][0] == (Fraction(5, 4), Fraction(9, 4))

    def test_lowest_terms(self):
        rep = CubeRepresentation(
            1, 1,
            (UnitIntervalRep({(SIDE_A, 1): 2, (SIDE_B, 1): 6}, 4),),
            (random_dim_tag(1),))
        cubes = to_unit_cubes(rep)
        lo = cubes[(SIDE_A, 1)][0][0]
        assert (lo.numerator, lo.denominator) == (1, 2)

    @settings(max_examples=120, deadline=None)
    @given(st.lists(unit_interval_reps(), min_size=1, max_size=4))
    def test_cube_overlap_equals_threshold_adjacency(self, dims):
        rep = CubeRepresentation(
            2, 2, tuple(dims), tuple(random_dim_tag(i + 1) for i in range(len(dims))))
        cubes = to_unit_cubes(rep)
        for u, v in all_pairs(VERTS):
            overlap = all(
                ulo <= vhi and vlo <= uhi
                for (ulo, uhi), (vlo, vhi) in zip(cubes[u], cubes[v]))
            threshold_adjacent = all(dim.adjacent(u, v) for dim in dims)
            assert overlap == threshold_adjacent


class TestTagKind:
    @given(st.integers(1, 10 ** 30))
    def test_the_tags_a_build_makes_are_well_formed(self, index):
        assert tag_kind(random_dim_tag(index)) == "random"
        assert tag_kind(bit_dim_tag(SIDE_A, index)) == "side-a-bit"
        assert tag_kind(bit_dim_tag(SIDE_B, index)) == "side-b-bit"

    @pytest.mark.parametrize("tag", ["random-0", "random-01", "random-", "random-+1",
                                     "random--1", "random-1 ", " random-1", "random-1\n",
                                     "random-\u0661", "Random-1", "side-c-bit-1",
                                     "side-a-bit", "greedy-1", "dim-1", ""])
    def test_other_text_has_no_kind(self, tag):
        assert tag_kind(tag) is None


class TestSwapSides:
    def test_relabels_and_swaps_tags(self):
        rep = two_dim_rep()
        swapped = swap_sides(rep)
        assert swapped.a_count == rep.b_count and swapped.b_count == rep.a_count
        assert swapped.dims[0].placement == {(SIDE_B, 1): 1, (SIDE_A, 1): 5}
        assert swapped.provenance == (random_dim_tag(1), bit_dim_tag(SIDE_A, 1))

    def test_involution(self):
        rep = two_dim_rep()
        assert swap_sides(swap_sides(rep)) == rep


class TestDumpPayload:
    def test_vertex_key_round_trip(self):
        for v in [(SIDE_A, 1), (SIDE_B, 17)]:
            assert parse_vertex_key(vertex_key(v)) == v
        for bad in ["C1", "A0", "A", "Ax", "1A", "", "A01", "B007", "A+1",
                    "A\u0661", "A\u00b2"]:
            with pytest.raises(ValueError):
                parse_vertex_key(bad)

    def test_jsonable_round_trip(self):
        rep = two_dim_rep()
        payload = rep_to_jsonable(rep)
        assert payload["cubes"]["A1"][0] == ["1/4", "5/4"]
        assert rep_from_jsonable(payload) == rep

    @pytest.mark.parametrize("mangle", [
        lambda p: p.pop("dims"),
        lambda p: p.update(a_count="x"),
        lambda p: p["dims"][0].pop("placement"),
        lambda p: p["dims"][0].update(threshold=0),
        lambda p: p["dims"][0]["placement"].update(A9=1),
        lambda p: p["dims"][0]["placement"].update(A1=1.5),
        lambda p: p["dims"][0]["placement"].update(A01=7),
        lambda p: p.update(a_count=True),
        lambda p: p.update(a_count=0),
        lambda p: p.update(b_count=2 ** 15),
    ])
    def test_malformed_payload_rejected(self, mangle):
        payload = rep_to_jsonable(two_dim_rep())
        mangle(payload)
        with pytest.raises(ValueError):
            rep_from_jsonable(payload)

    @pytest.mark.parametrize("mangle, message", [
        (lambda p: p.pop("cubes"), "dump needs a cubes object"),
        (lambda p: p["cubes"]["B1"][1].reverse(),
         "dim 1: cube of B1 differs from its placement"),
        (lambda p: p["cubes"]["A1"].__setitem__(0, ["2/8", "10/8"]),
         "dim 0: cube of A1 differs from its placement"),
        (lambda p: p["cubes"]["B1"].pop(), "dim 1: cube of B1 differs from its placement"),
        (lambda p: p["cubes"]["A1"].append(["0", "1"]), "cubes of A1 hold 3 cells for 2 dims"),
        (lambda p: p["cubes"].update(A1="[]"), "cubes of A1 must be a list"),
        (lambda p: p["cubes"].pop("B1"), "cubes miss vertex B1"),
        (lambda p: p["cubes"].update(B2=[]), "cubes hold 'B2', which is not a declared vertex"),
    ])
    def test_cubes_that_are_not_the_placements_cells_are_refused(self, mangle, message):
        payload = rep_to_jsonable(two_dim_rep())
        mangle(payload)
        with pytest.raises(ValueError) as excinfo:
            rep_from_jsonable(payload)
        assert str(excinfo.value) == message

    @settings(max_examples=100, deadline=None)
    @given(st.lists(unit_interval_reps(), max_size=4))
    def test_cubes_text_matches_to_unit_cubes(self, dims):
        rep = CubeRepresentation(2, 2, tuple(dims),
                                 tuple(random_dim_tag(j + 1) for j in range(len(dims))))
        expected = {vertex_key(v): [[str(lo), str(hi)] for lo, hi in cells]
                    for v, cells in to_unit_cubes(rep).items()}
        assert rep_to_jsonable(rep)["cubes"] == expected
