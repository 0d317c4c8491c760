"""Desk-scale Ramsey computations.

Two problem families, each with brute-force oracles and explicit
constructions verified at finite size:

* the generalized Ramsey function f_k(n, s, t) on k-subset colorings and
  its graph form g(n, s, t), with both directions of their equivalence at
  k = s + t - 2 as executable transforms;

* semisaturated Ramsey numbers ssat_r(K_k): checkers for semisaturated and
  saturated patterns, the pigeonhole sufficient condition, reference
  bounds, and an exhaustive search for small exact values, fed by
  edge colorings built from affine planes and F_q^3 slope families.
"""

from .constructions import (
    BadSetCount,
    ColoredCompleteGraph,
    GnpParams,
    affine_coloring,
    count_bad_sets,
    fq3_coloring,
    lower_bound_p,
    random_complete_pattern,
    sample_gnp,
)
from .errors import BudgetError, ConsistencyError, ParseError
from .geometry import (
    IncidenceStructure,
    PrimeField,
    build_affine_plane,
    fq3_line_family,
    incidence_sum,
    is_prime,
    parallel_classes,
)
from .graphs import (
    SimpleGraph,
    find_clique,
    subset_rank,
    subset_unrank,
    turan_bound,
    turan_independent_set,
)
from .io import (
    Certificate,
    dump_colored_graph,
    dump_incidence,
    dump_ksubset_coloring,
    dump_simple_graph,
    parse_colored_graph,
    parse_incidence,
    parse_ksubset_coloring,
    parse_simple_graph,
    validate_certificate,
)
from .reduction import (
    KSubsetColoring,
    OracleResult,
    RamseyParams,
    coloring_to_graph,
    f_oracle,
    g_oracle,
    good_set_witness,
    graph_from_edge_mask,
    graph_to_coloring,
    has_unbalanced_set,
)
from .saturation import (
    SsatSearchResult,
    Verdict,
    check_kkfree,
    check_observation,
    coloring_escapes,
    is_kkfree_pattern,
    is_saturated,
    is_semisaturated,
    is_semisaturated_direct,
    observation_fails_at,
    ssat_lower_bound_formula,
    ssat_recursion_floor,
    ssat_search,
    ssat_upper_bound_reference,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
