"""Semisaturation: dual checkers, the pigeonhole condition, bounds, search."""

from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ramsat as rs
from ramsat.errors import BudgetError
from ramsat.graphs import mask_of
from ramsat.saturation import _escape_search

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
    v = rs.check_observation(c4_diagonals, 3)
    assert not v.holds
    assert v.witness == {"kind": "clique-free-subset", "color": 1, "vertices": [0, 2]}
    assert rs.observation_fails_at(c4_diagonals, 3, 1, [0, 2])
    # sufficient, not necessary: the pattern is semisaturated regardless
    assert rs.is_semisaturated(c4_diagonals, 3).holds


def test_check_observation_rejects_r1():
    one_class = rs.ColoredCompleteGraph((rs.SimpleGraph.complete(4),))
    with pytest.raises(ValueError, match="at least two colors"):
        rs.check_observation(one_class, 3)


def test_check_observation_affine_q3():
    # K_9 from AG(2, 3), two classes of two parallel families each; every
    # 5-subset meets some line of each family in >= 2 points, giving a K_2
    pat = rs.affine_coloring(3, 2)
    v = rs.check_observation(pat, 3)
    assert v.holds
    assert v.checked == 2 * 126  # C(9, 5) per class
    assert rs.is_semisaturated(pat, 3).holds  # sufficiency on this instance


def test_check_observation_threads_match():
    pat = rs.affine_coloring(3, 2)
    solo = rs.check_observation(pat, 3)
    sharded = rs.check_observation(pat, 3, threads=2)
    assert solo.holds == sharded.holds
    assert solo.checked == sharded.checked


@pytest.mark.parametrize("threads", [2, 4])
@pytest.mark.parametrize("args, k, holds, checked", [
    ((5, 2, "parallel-balanced"), 4, True, 10_400_600),  # criterion 3
    ((5, 2, "round-robin", 1), 4, False, 5_781_006),
    ((3, 2), 3, True, 252),  # AG(2, 3)
], ids=["criterion-3", "round-robin", "AG(2,3)"])
def test_check_observation_runs_in_one_process_for_every_threads(
        no_worker_processes, monkeypatch, threads, args, k, holds, checked):
    # each class's scan stops at its first failure, so no thread count starts a pool
    monkeypatch.setattr(rs.graphs, "_usable_cpus", lambda: rs.graphs.THREAD_CAP)
    pat = rs.affine_coloring(*args)
    got = rs.check_observation(pat, k, threads=threads)
    assert (got.holds, got.checked) == (holds, checked)
    assert got == rs.check_observation(pat, k)  # verdict, checked and witness


def test_check_observation_rejects_threads_below_1(no_worker_processes):
    with pytest.raises(ValueError, match="threads"):
        rs.check_observation(rs.affine_coloring(3, 2), 3, threads=0)


def test_check_observation_rejects_threads_above_cap(no_worker_processes):
    with pytest.raises(ValueError, match="threads"):
        rs.check_observation(rs.affine_coloring(5, 2), 4, threads=rs.graphs.THREAD_CAP + 1)


def test_check_observation_sampled():
    pat = rs.affine_coloring(3, 2)
    v = rs.check_observation(pat, 3, samples=100, seed=5)
    assert v.holds and not v.exhaustive
    assert v.checked == 200
    with pytest.raises(ValueError):
        rs.check_observation(pat, 3, samples=0, seed=5)


def test_check_observation_partial_pattern_allowed():
    core = rs.fq3_core(2, 2)
    assert not core.complete
    v = rs.check_observation(core, 3)
    # a verdict either way is fine; the call must accept partial patterns
    assert v.checked > 0


_AFFINE_Q3 = ([("parallel-balanced", r, None) for r in (2, 3, 4)]
              + [("round-robin", r, seed) for r in (2, 3) for seed in range(1, 6)])


@pytest.mark.parametrize("strategy, r, seed", _AFFINE_Q3,
                         ids=[f"{s}-r{r}-seed{d}" for s, r, d in _AFFINE_Q3])
def test_check_observation_implies_semisaturation(strategy, r, seed):
    # the pigeonhole holds only at the pattern's own color count, which
    # check_observation reads off the pattern; n = 9, so at most 4^9 colorings
    pat = rs.affine_coloring(3, r, strategy, seed)
    assert pat.r == r
    for k in (3, 4):
        if rs.check_observation(pat, k).holds:
            assert rs.is_semisaturated(pat, k).holds


def test_check_kkfree_on_patterns(c4_diagonals):
    assert rs.check_kkfree(c4_diagonals, 3).holds
    assert not rs.check_kkfree(_single_color_pattern(4, 2), 3).holds
    # each affine class contains a 5-point line, hence K_5 and so K_3
    assert not rs.check_kkfree(rs.affine_coloring(5, 2), 3).holds


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


def test_ssat3_k3_exhausted_at_7():
    # n = 7 as well, which gives ssat_3(K_3) >= 8 by this one route
    res = rs.ssat_search(3, 3, 7)
    assert (res.status, res.nodes) == ("exhausted", 357_128)


@pytest.mark.slow
def test_ssat4_k3_exhausted_at_8():
    # n = 8, which gives ssat_4(K_3) >= 9 by this one route
    res = rs.ssat_search(4, 3, 8)
    assert (res.status, res.nodes) == ("exhausted", 494_638)


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
    v = rs.check_observation(pat, 4, samples=50, seed=1)
    assert not v.exhaustive and v.checked == 150
    with pytest.raises(ValueError, match="capped at 64"):
        rs.check_observation(pat, 4)


# -- the incremental doom check ------------------------------------------------


def _unpinned_ssat_search(r, k, n):
    """``ssat_search`` with the full escape search at every node.

    Returns (status, nodes, pattern), for comparison with the incremental search.
    """
    pairs = list(rs.graphs.iter_subsets_colex(n, 2))
    opt = [[((1 << n) - 1) & ~(1 << x) for x in range(n)] for _ in range(r)]
    nodes = 0

    def flip(u, v, color):
        for i in range(r):
            if i != color:
                opt[i][u] ^= 1 << v
                opt[i][v] ^= 1 << u

    def dfs(d, used):
        nonlocal nodes
        nodes += 1
        if _escape_search(opt, range(n), k, [0] * r)[0]:
            return None
        if d == len(pairs):
            return rs.ColoredCompleteGraph(tuple(rs.SimpleGraph(n, tuple(rows)) for rows in opt))
        u, v = pairs[d]
        for color in range(min(used + 1, r)):
            flip(u, v, color)
            res = dfs(d + 1, max(used, color + 1))
            if res is not None:
                return res
            flip(u, v, color)
        return None

    pattern = dfs(0, 0)
    return ("exhausted" if pattern is None else "found"), nodes, pattern


@pytest.mark.parametrize("r, k, n", [(r, k, n) for r in (2, 3) for k in (3, 4)
                                     for n in range(1, 7)] + [(2, 5, 8)])
def test_ssat_search_matches_unpinned_reference(r, k, n):
    got = rs.ssat_search(r, k, n)
    assert (got.status, got.nodes, got.pattern) == _unpinned_ssat_search(r, k, n)


def _naive_escapes(rows_per_class, k, chi):
    """Whether the vertex coloring ``chi`` leaves every class K_{k-1}-free, by itertools."""
    for i, rows in enumerate(rows_per_class):
        part = [v for v, col in enumerate(chi) if col == i]
        for cand in combinations(part, k - 1):
            if all(rows[a] >> b & 1 for a, b in combinations(cand, 2)):
                return False
    return True


def _rows_from_pairs(n, present):
    """Adjacency rows holding the colex-ordered pairs p with ``present[p]`` true."""
    rows = [0] * n
    for p, (a, b) in enumerate(rs.graphs.iter_subsets_colex(n, 2)):
        if present[p]:
            rows[a] |= 1 << b
            rows[b] |= 1 << a
    return rows


@st.composite
def seeded_cases(draw):
    """Any class graphs, seeds holding no K_{k-1} in their classes, and an order of the rest."""
    n = draw(st.integers(1, 6))
    r = draw(st.integers(2, 3))
    k = draw(st.integers(3, 4))
    m = n * (n - 1) // 2
    classes = [_rows_from_pairs(n, draw(st.lists(st.booleans(), min_size=m, max_size=m)))
               for _ in range(r)]
    seeds = [-1] * n  # a vertex's seeded class, or -1 for none
    for x in range(n):
        seeds[x] = draw(st.integers(-1, r - 1))
        if not _naive_escapes(classes, k, seeds):  # x closed a K_{k-1}: leave it out
            seeds[x] = -1
    order = draw(st.permutations([x for x in range(n) if seeds[x] < 0]))
    return classes, k, seeds, order


@settings(max_examples=300, deadline=None)
@given(seeded_cases())
def test_seeded_escape_search_tries_exactly_the_seeded_extensions(case):
    # on any graphs, a search from seeds escapes iff some escaping coloring
    # extends them; it then leaves the first such coloring, in its order, in
    # masks, and otherwise gives back the seeds
    classes, k, seeds, order = case
    r, n = len(classes), len(seeds)
    seed_masks = [mask_of(x for x in range(n) if seeds[x] == i) for i in range(r)]
    extensions = [chi for chi in product(range(r), repeat=n)
                  if all(s < 0 or s == c for s, c in zip(seeds, chi))
                  and _naive_escapes(classes, k, chi)]
    masks = list(seed_masks)
    escaped, _ = _escape_search(classes, order, k, masks)
    assert escaped == bool(extensions)
    if not escaped:
        assert masks == seed_masks
        return
    assert sum(m.bit_count() for m in masks) == n
    chi = tuple(next(i for i in range(r) if masks[i] >> x & 1) for x in range(n))
    assert chi == min(extensions, key=lambda e: [e[x] for x in order])


@st.composite
def optimistic_parents(draw):
    """Optimistic graphs of a partial pattern, and an uncolored pair to color."""
    n = draw(st.integers(2, 7))
    r = draw(st.integers(2, 4))
    k = draw(st.integers(3, 4))
    m = n * (n - 1) // 2
    # a pair's color, or a negative value for uncolored (in every class)
    uncolored_weight = draw(st.integers(1, 6))
    colors = draw(st.lists(st.integers(-uncolored_weight, r - 1), min_size=m, max_size=m))
    uncolored = [p for p in range(m) if colors[p] < 0]
    if not uncolored:
        colors[0], uncolored = -1, [0]
    p = draw(st.sampled_from(uncolored))
    opt = [_rows_from_pairs(n, [col < 0 or col == i for col in colors]) for i in range(r)]
    return opt, n, k, p


@settings(max_examples=300, deadline=None)
@given(optimistic_parents())
def test_pin_sound_on_optimistic_child(case):
    # when the parent has no escaping coloring, coloring one uncolored pair
    # {u, v} with c gives a child that escapes iff E_j holds for some j != c,
    # and E_j, the search seeded with u and v in class j, is equal on all
    # children but j
    opt, n, k, p = case
    r = len(opt)
    if _escape_search(opt, range(n), k, [0] * r)[0]:
        return
    u, v = rs.subset_unrank(p, 2)
    others = [x for x in range(n - 1, -1, -1) if x != u and x != v]
    seeded = []
    for c in range(r):
        child = [list(rows) for rows in opt]
        for i in range(r):
            if i != c:
                child[i][u] ^= 1 << v
                child[i][v] ^= 1 << u
        seeded.append({})
        for j in range(r):
            if j != c:
                masks = [0] * r
                masks[j] = 1 << u | 1 << v
                seeded[c][j] = _escape_search(child, others, k, masks)[0]
        assert _escape_search(child, range(n), k, [0] * r)[0] == any(seeded[c].values())
    for c, c2 in combinations(range(r), 2):
        for j in range(r):
            if j not in (c, c2):
                assert seeded[c][j] == seeded[c2][j]
