"""Semisaturation: dual checkers, the pigeonhole condition, bounds, search."""

import pytest

import ramsat as rs
from ramsat.errors import BudgetError

from conftest import all_patterns


def _single_color_pattern(n, r, k_edges_color=0):
    classes = [rs.SimpleGraph.complete(n) if i == k_edges_color else rs.SimpleGraph.empty(n)
               for i in range(r)]
    return rs.ColoredCompleteGraph(tuple(classes))


def test_c4_diagonals_semisaturated(c4_diagonals):
    v = rs.is_semisaturated(c4_diagonals, 3)
    assert v.holds and v.exhaustive and v.witness is None
    vd = rs.is_semisaturated_direct(c4_diagonals, 3)
    assert vd.holds and vd.checked == 2**4


def test_all_k3_two_colorings_fail():
    # no 2-coloring of K_3 is (2, K_3)-semisaturated, matching the r = 2
    # exact value (k-1)^2 = 4
    for pat in all_patterns(3, 2):
        assert not rs.is_semisaturated(pat, 3).holds
        assert not rs.is_semisaturated_direct(pat, 3).holds


def test_monochromatic_pattern_fails():
    for k in (3, 4, 5):
        pat = _single_color_pattern(6, 2)
        v = rs.is_semisaturated(pat, k)
        assert not v.holds
        assert rs.coloring_escapes(pat, k, v.witness["colors"])
        # the all-empty-class coloring is one escape among them
        assert rs.coloring_escapes(pat, k, [2] * 6)


def test_direct_tiny_patterns_fail():
    pat = rs.ColoredCompleteGraph((rs.SimpleGraph.empty(1), rs.SimpleGraph.empty(1)))
    assert not rs.is_semisaturated_direct(pat, 3).holds
    one_edge = rs.ColoredCompleteGraph((rs.SimpleGraph.complete(2), rs.SimpleGraph.empty(2)))
    v = rs.is_semisaturated_direct(one_edge, 3)
    assert not v.holds
    # coloring both new edges with the empty class is one escape
    assert rs.coloring_escapes(one_edge, 3, [2, 2])
    assert rs.coloring_escapes(one_edge, 3, v.witness["colors"])


def test_semisaturated_requires_complete_pattern():
    partial = rs.ColoredCompleteGraph(
        (rs.SimpleGraph.from_edges(3, [(0, 1)]), rs.SimpleGraph.empty(3))
    )
    with pytest.raises(ValueError):
        rs.is_semisaturated(partial, 3)


def test_dual_oracle_agreement_seeded():
    # identical verdicts and identical lexicographic witnesses
    for seed in range(120):
        n = 1 + seed % 6
        r = 2 + (seed // 6) % 2
        pat = rs.random_complete_pattern(n, r, seed)
        a = rs.is_semisaturated(pat, 3)
        b = rs.is_semisaturated_direct(pat, 3)
        assert a.holds == b.holds
        assert a.witness == b.witness


def test_escaping_witness_confirms(c4_diagonals):
    pat = _single_color_pattern(5, 2)
    v = rs.is_semisaturated(pat, 3)
    assert not v.holds
    assert rs.coloring_escapes(pat, 3, v.witness["colors"])
    # and a holding pattern has no escape among a seeded sample
    assert not any(
        rs.coloring_escapes(c4_diagonals, 3, [1 + (seed >> i) % 2 for i in range(4)])
        for seed in range(16)
    )


def test_sampled_semisaturation_modes():
    pat = _single_color_pattern(5, 2)
    v = rs.is_semisaturated(pat, 3, samples=200, seed=1)
    assert not v.holds  # a sampled failure is definitive
    assert rs.coloring_escapes(pat, 3, v.witness["colors"])
    good = rs.ColoredCompleteGraph((
        rs.SimpleGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
        rs.SimpleGraph.from_edges(4, [(0, 2), (1, 3)]),
    ))
    v = rs.is_semisaturated(good, 3, samples=50, seed=1)
    assert v.holds and not v.exhaustive  # evidence only
    with pytest.raises(ValueError):
        rs.is_semisaturated(good, 3, samples=50)  # seed required
    with pytest.raises(ValueError):
        rs.is_semisaturated(good, 3, samples=0, seed=1)


def test_check_observation_c4_diagonals(c4_diagonals):
    v = rs.check_observation(c4_diagonals, 3, 2)
    assert not v.holds
    assert v.witness == {"kind": "clique-free-subset", "color": 1, "vertices": [0, 2]}
    assert rs.observation_fails_at(c4_diagonals, 3, 1, [0, 2])
    # sufficient, not necessary: the pattern is semisaturated regardless
    assert rs.is_semisaturated(c4_diagonals, 3).holds


def test_check_observation_rejects_r1(c4_diagonals):
    with pytest.raises(ValueError):
        rs.check_observation(c4_diagonals, 3, 1)


def test_check_observation_affine_q3():
    # K_9 from AG(2, 3), two classes of two parallel families each; every
    # 5-subset meets some line of each family in >= 2 points, giving a K_2
    pat = rs.affine_coloring(3, 2)
    v = rs.check_observation(pat, 3, 2)
    assert v.holds
    assert v.checked == 2 * 126  # C(9, 5) per class
    assert rs.is_semisaturated(pat, 3).holds  # sufficiency on this instance


def test_check_observation_threads_match():
    pat = rs.affine_coloring(3, 2)
    solo = rs.check_observation(pat, 3, 2)
    sharded = rs.check_observation(pat, 3, 2, threads=2)
    assert solo.holds == sharded.holds
    assert solo.checked == sharded.checked


def test_check_observation_rejects_threads_below_1(no_worker_processes):
    with pytest.raises(ValueError, match="threads"):
        rs.check_observation(rs.affine_coloring(3, 2), 3, 2, threads=0)


def test_check_observation_rejects_threads_above_cap(no_worker_processes):
    with pytest.raises(ValueError, match="threads"):
        rs.check_observation(rs.affine_coloring(5, 2), 4, 2, threads=rs.graphs.THREAD_CAP + 1)


def test_check_observation_sampled():
    pat = rs.affine_coloring(3, 2)
    v = rs.check_observation(pat, 3, 2, samples=100, seed=5)
    assert v.holds and not v.exhaustive
    assert v.checked == 200
    with pytest.raises(ValueError):
        rs.check_observation(pat, 3, 2, samples=0, seed=5)


def test_check_observation_partial_pattern_allowed():
    core = rs.fq3_coloring(2, 2).precompletion
    assert not core.complete
    v = rs.check_observation(core, 3, 2)
    # a verdict either way is fine; the call must accept partial patterns
    assert v.checked > 0


def test_is_kkfree_pattern(c4_diagonals):
    assert rs.is_kkfree_pattern(c4_diagonals, 3)
    assert not rs.is_kkfree_pattern(_single_color_pattern(4, 2), 3)
    # each affine class contains a 5-point line, hence K_5 and so K_3
    assert not rs.is_kkfree_pattern(rs.affine_coloring(5, 2), 3)


def test_is_saturated(c4_diagonals):
    v = rs.is_saturated(c4_diagonals, 3)
    assert v.holds  # sat_2(K_3) <= 4
    v = rs.is_saturated(_single_color_pattern(4, 2), 3)
    assert not v.holds
    assert v.witness["kind"] == "monochromatic-clique"
    (bad,) = [p for p in all_patterns(3, 2)][:1]
    assert not rs.is_saturated(bad, 3).holds  # fails semisaturation


def test_ssat_formula_values():
    assert rs.ssat_lower_bound_formula(2, 3) == 4
    assert rs.ssat_lower_bound_formula(2, 4) == 9
    assert rs.ssat_lower_bound_formula(3, 3) == 6
    for k in range(2, 9):
        assert rs.ssat_lower_bound_formula(2, k) == (k - 1) ** 2


def test_ssat_recursion_floor_values():
    assert rs.ssat_recursion_floor(2, 3) == 1
    assert rs.ssat_recursion_floor(4, 3) == 5  # ceil(9/2) beats ceil(16/4)
    assert rs.ssat_recursion_floor(10, 3) == 27
    for r in range(2, 12):
        total = sum(range(2, r + 1))
        assert rs.ssat_recursion_floor(r, 4) == max(-(-total // 2), -(-(r * r) // 4))


def test_ssat_upper_bound_reference():
    assert rs.ssat_upper_bound_reference(2, 3) == 4  # tight: equals ssat_2(K_3)
    assert rs.ssat_upper_bound_reference(3, 3) == 8
    assert rs.ssat_upper_bound_reference(2, 4) == 9
    # the open bracket: 7 <= ssat_3(K_3) <= 8, the 7 from test_ssat3_k3_exhausted_up_to_6
    assert rs.ssat_lower_bound_formula(3, 3) <= rs.ssat_upper_bound_reference(3, 3)


def test_ssat_search_small_instances():
    assert rs.ssat_search(2, 3, 3).status == "exhausted"
    found = rs.ssat_search(2, 3, 4)
    assert found.status == "found"
    assert rs.is_semisaturated_direct(found.pattern, 3).holds
    assert rs.ssat_search(3, 3, 5).status == "exhausted"  # floor is 6


def test_ssat3_k3_exhausted_up_to_6():
    # no semisaturated 3-colouring of K_n for n <= 6, so ssat_3(K_3) >= 7
    for n in range(1, 7):
        assert rs.ssat_search(3, 3, n).status == "exhausted"


def test_ssat_search_matches_brute_enumeration():
    for r, k, n in [(2, 3, 3), (2, 3, 4), (2, 4, 4), (3, 3, 4)]:
        exists = any(rs.is_semisaturated_direct(p, k).holds for p in all_patterns(n, r))
        got = rs.ssat_search(r, k, n)
        assert (got.status == "found") == exists


def test_ssat_search_witnesses_pass_direct():
    for r, k, n in [(2, 3, 4), (2, 3, 5), (2, 3, 6)]:
        res = rs.ssat_search(r, k, n)
        assert res.status == "found"
        assert rs.is_semisaturated_direct(res.pattern, k).holds


def test_ssat_search_budget():
    res = rs.ssat_search(2, 3, 4, node_budget=2)
    assert res.status == "budget" and res.pattern is None


def test_ssat_search_validates_params():
    with pytest.raises(ValueError):
        rs.ssat_search(1, 3, 4)
    with pytest.raises(ValueError):
        rs.ssat_search(2, 2, 4)
    with pytest.raises(ValueError):
        rs.ssat_search(2, 3, 4, node_budget=0)


def test_semisaturation_invariant_under_symmetry():
    import numpy as np

    rng = np.random.Generator(np.random.PCG64(99))
    for seed in range(200):
        n = 3 + seed % 3
        r = 2 + seed % 2
        k = 3 + (seed // 2) % 2
        pat = rs.random_complete_pattern(n, r, seed)
        base = rs.is_semisaturated(pat, k).holds
        cperm = [int(x) for x in rng.permutation(r)]
        vperm = [int(x) for x in rng.permutation(n)]
        assert rs.is_semisaturated(pat.permute_colors(cperm), k).holds == base
        assert rs.is_semisaturated(pat.relabel_vertices(vperm), k).holds == base


def test_verdict_invariant():
    with pytest.raises(ValueError):
        rs.Verdict(holds=False, witness=None, checked=1)


def test_budget_guard():
    pat = rs.random_complete_pattern(8, 2, 0)
    # 2^8 is tiny; force the concrete guard with a pattern over the cap by
    # patching the exponent is out of scope, so check the sampled-seed guard
    with pytest.raises(ValueError):
        rs.is_semisaturated(pat, 3, samples=10)  # missing seed
    assert isinstance(BudgetError("x"), RuntimeError)


def test_check_observation_sampled_past_enumeration_cap():
    pat = rs.fq3_coloring(5, 3)
    assert pat.n == 125
    v = rs.check_observation(pat, 4, 3, samples=50, seed=1)
    assert not v.exhaustive and v.checked == 150
    with pytest.raises(ValueError, match="capped at 64"):
        rs.check_observation(pat, 4, 3)
