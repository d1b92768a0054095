"""Unit-cube intersection representations of bipartite graphs.

Builds, for a bipartite graph, an ordered list of unit interval dimensions
whose induced-graph intersection is exactly the input graph; scaled, the
per-vertex intervals are axis-parallel unit cubes with the same intersection
graph.  Random dimensions remove cross non-edges, deterministic bit-encoding
dimensions remove same-side pairs, and a verify-and-retry loop makes the
output unconditionally correct.
"""

from .bitfamily import (
    BitEncodingFamily,
    bit_count_for,
    build_bit_family,
    family_intersection,
)
from .builder import (
    BuildFailure,
    BuildParams,
    BuildReport,
    Violation,
    build_representation,
    default_t,
    estimate_failure_rate,
    nominal_dimension_bound,
    parse_dump,
    read_dump,
    render_dump,
    report_to_jsonable,
    verify,
    verify_dump,
    write_dump,
)
from .graphs import (
    SIDE_A,
    SIDE_B,
    BipartiteGraph,
    DegreeProfile,
    GraphFormatError,
    Vertex,
    degree_profile,
    gen_random_bipartite,
    normalize_sides,
    other_side,
    parse_graph,
    serialize_graph,
)
from .intervals import (
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
from .randomized import (
    Permutation,
    choose_permuted_side,
    derive_seed,
    make_rng,
    nonedge_survival_exact,
    random_permutation,
    supergraph_from_permutation,
)

__version__ = "0.1.0"

__all__ = [
    "BipartiteGraph",
    "BitEncodingFamily",
    "BuildFailure",
    "BuildParams",
    "BuildReport",
    "CubeRepresentation",
    "DegreeProfile",
    "GraphFormatError",
    "Permutation",
    "SIDE_A",
    "SIDE_B",
    "UnitIntervalRep",
    "Vertex",
    "VertexGraph",
    "Violation",
    "bit_count_for",
    "build_bit_family",
    "build_representation",
    "choose_permuted_side",
    "default_t",
    "degree_profile",
    "derive_seed",
    "estimate_failure_rate",
    "family_intersection",
    "gen_random_bipartite",
    "induced_graph",
    "intersect_graphs",
    "make_rng",
    "nominal_dimension_bound",
    "nonedge_survival_exact",
    "normalize_sides",
    "other_side",
    "parse_dump",
    "parse_graph",
    "random_permutation",
    "read_dump",
    "render_dump",
    "rep_from_jsonable",
    "rep_to_jsonable",
    "report_to_jsonable",
    "serialize_graph",
    "supergraph_from_permutation",
    "swap_sides",
    "to_unit_cubes",
    "verify",
    "verify_dump",
    "vertex_key",
    "write_dump",
]
