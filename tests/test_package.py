"""The package surface: lazily resolved exports, and the plain value types."""

import pickle
import subprocess
import sys

import pytest

import ramsat as rs

from conftest import checkout_env

EXPORTS = [
    "BadSetCount", "BudgetError", "Certificate", "ColoredCompleteGraph", "ConsistencyError",
    "GnpParams", "IncidenceStructure", "KSubsetColoring", "OracleResult", "ParseError",
    "SimpleGraph", "SsatSearchResult", "Verdict", "affine_coloring", "build_affine_plane",
    "check_kkfree", "check_observation", "coloring_escapes", "coloring_to_graph",
    "constructions", "count_bad_sets", "dump_colored_graph", "dump_incidence",
    "dump_ksubset_coloring", "dump_simple_graph", "errors", "f_oracle", "find_clique",
    "fq3_coloring", "fq3_core", "fq3_line_family", "g_oracle", "geometry", "good_set_witness",
    "graph_from_edge_mask", "graph_to_coloring", "graphs", "has_unbalanced_set",
    "incidence_sum", "io", "is_prime", "is_saturated", "is_semisaturated",
    "is_semisaturated_direct", "lower_bound_p", "parallel_classes", "parse_colored_graph",
    "parse_incidence", "parse_ksubset_coloring", "parse_simple_graph",
    "random_complete_pattern", "reduction", "require_prime", "sample_gnp", "saturation",
    "ssat_lower_bound_formula", "ssat_recursion_floor", "ssat_search",
    "ssat_upper_bound_reference", "subset_rank", "subset_unrank", "turan_bound",
    "turan_independent_set", "validate_certificate",
]


def test_exports_resolve_to_their_modules():
    assert rs.__all__ == EXPORTS
    for name in EXPORTS:
        value = getattr(rs, name)
        home = getattr(value, "__module__", None) or value.__name__
        assert home.startswith("ramsat."), name
    namespace = {}
    exec("from ramsat import *", namespace)
    assert set(EXPORTS) <= set(namespace)
    assert set(EXPORTS) <= set(dir(rs))


def test_no_module_loads_dataclasses_or_inspect():
    code = ("import sys, ramsat.cli, ramsat.rng\n"
            "from ramsat import *\n"
            "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env=checkout_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("name", ["no_such_name", "observation_fails_at", "rng_seed"])
def test_unknown_attribute_raises_attribute_error(name):
    with pytest.raises(AttributeError, match=name):
        getattr(rs, name)
    assert not hasattr(rs, name)


def test_test_only_helpers_left_the_package():
    assert not hasattr(rs.SimpleGraph, "cycle")
    assert not any(hasattr(rs.ColoredCompleteGraph, m) for m in ("permute_colors", "relabel_vertices"))
    assert not any(hasattr(rs.KSubsetColoring, m) for m in ("all_red", "all_blue", "color_of"))


MAKERS = {
    "SimpleGraph": lambda: rs.SimpleGraph.from_edges(4, [(0, 1), (1, 2)]),
    "ColoredCompleteGraph": lambda: rs.affine_coloring(3, 2),
    "GnpParams": lambda: rs.GnpParams(5, 0.5, 1),
    "BadSetCount": lambda: rs.BadSetCount("exact", 3.0, 10, 10, 3),
    "IncidenceStructure": lambda: rs.build_affine_plane(3),
    "KSubsetColoring": lambda: rs.KSubsetColoring(5, 3, 6),
    "OracleResult": lambda: rs.OracleResult(6, rs.SimpleGraph.complete(3), 40),
    "Verdict": lambda: rs.Verdict(True, None, 7),
    "SsatSearchResult": lambda: rs.SsatSearchResult("found", rs.affine_coloring(3, 2), 12),
}


@pytest.mark.parametrize("make", MAKERS.values(), ids=MAKERS)
def test_value_types_compare_hash_and_print_by_value(make):
    value, again = make(), make()
    assert value is not again and value == again and hash(value) == hash(again)
    assert len({value, again}) == 1
    assert value != tuple(getattr(value, f) for f in value._fields)
    assert repr(value).startswith(f"{type(value).__name__}({value._fields[0]}=")
    assert pickle.loads(pickle.dumps(value)) == value
    field = value._fields[0]
    with pytest.raises(AttributeError, match="read-only"):
        setattr(value, field, None)
    with pytest.raises(AttributeError, match="read-only"):
        value.extra = 1
    assert getattr(value, field) == getattr(again, field)


def test_fields_tell_values_apart():
    g = rs.SimpleGraph.from_edges(4, [(0, 1)])
    assert g != rs.SimpleGraph.from_edges(4, [(0, 2)]) and g != rs.SimpleGraph.from_edges(5, [(0, 1)])
    assert rs.Verdict(True, None, 7) != rs.Verdict(True, None, 7, exhaustive=False)
    assert repr(rs.SimpleGraph.complete(2)) == "SimpleGraph(n=2, rows=(2, 1))"
    assert rs.Verdict(holds=False, witness={"kind": "x"}, checked=1).witness == {"kind": "x"}


def test_cached_properties_still_cache():
    g = rs.SimpleGraph.from_edges(4, [(0, 1), (1, 2)])
    assert g.complement is g.complement and g.edge_count == 2
    assert {"complement", "edge_count"} <= set(vars(g))
    plane = rs.build_affine_plane(3)
    assert plane.line_masks is plane.line_masks
    assert plane.point_to_lines is plane.point_to_lines


def test_certificate_is_read_only_and_unhashable():
    cert = rs.Certificate("c", {}, "holds")
    for name in ("claim", "wall_time_ms"):
        with pytest.raises(AttributeError, match="read-only"):
            setattr(cert, name, 12)
    assert '"wall_time_ms":12' in cert.to_json(12)
    assert cert == rs.Certificate("c", {}, "holds")
    assert cert.tool_version == rs.__version__
    with pytest.raises(TypeError):
        hash(cert)
