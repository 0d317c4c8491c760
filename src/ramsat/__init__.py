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

Importing the package loads none of its modules: each name below is
imported from its module on first use (PEP 562), so a process compiles
only the code it runs.
"""

from importlib import import_module

# module: the names the package re-exports from it
_EXPORTS = {
    "constructions": (
        "BadSetCount",
        "GnpParams",
        "affine_coloring",
        "count_bad_sets",
        "fq3_coloring",
        "fq3_core",
        "lower_bound_p",
        "random_complete_pattern",
        "sample_gnp",
    ),
    "errors": ("BudgetError", "ConsistencyError", "ParseError"),
    "geometry": (
        "IncidenceStructure",
        "build_affine_plane",
        "fq3_line_family",
        "incidence_sum",
        "is_prime",
        "parallel_classes",
        "require_prime",
    ),
    "graphs": (
        "ColoredCompleteGraph",
        "SimpleGraph",
        "find_clique",
        "subset_rank",
        "subset_unrank",
        "turan_bound",
        "turan_independent_set",
    ),
    "io": (
        "Certificate",
        "dump_colored_graph",
        "dump_incidence",
        "dump_ksubset_coloring",
        "dump_simple_graph",
        "parse_colored_graph",
        "parse_incidence",
        "parse_ksubset_coloring",
        "parse_simple_graph",
        "validate_certificate",
    ),
    "reduction": (
        "KSubsetColoring",
        "OracleResult",
        "coloring_to_graph",
        "f_oracle",
        "g_oracle",
        "good_set_witness",
        "graph_from_edge_mask",
        "graph_to_coloring",
        "has_unbalanced_set",
    ),
    "saturation": (
        "SsatSearchResult",
        "Verdict",
        "check_kkfree",
        "check_observation",
        "coloring_escapes",
        "is_saturated",
        "is_semisaturated",
        "is_semisaturated_direct",
        "ssat_lower_bound_formula",
        "ssat_recursion_floor",
        "ssat_search",
        "ssat_upper_bound_reference",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted([*globals(), *__all__])
