"""Colorings from geometry, the random graph sampler, and bad-set counting."""

import math
from itertools import combinations
from math import comb

import mpmath
import pytest

import ramsat as rs
from ramsat.errors import BudgetError

from conftest import cycle, permute_colors, relabel_vertices


def test_pattern_validation_rejects_overlap():
    a = rs.SimpleGraph.from_edges(3, [(0, 1)])
    b = rs.SimpleGraph.from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        rs.ColoredCompleteGraph((a, b))


def test_pattern_completeness_read_off_classes():
    a = rs.SimpleGraph.from_edges(3, [(0, 1)])
    b = rs.SimpleGraph.from_edges(3, [(1, 2)])
    partial = rs.ColoredCompleteGraph((a, b))
    assert (partial.n, partial.r, partial.complete) == (3, 2, False)
    full = rs.ColoredCompleteGraph((a, rs.SimpleGraph.from_edges(3, [(1, 2), (0, 2)])))
    assert (full.n, full.r, full.complete) == (3, 2, True)
    with pytest.raises(ValueError):
        rs.ColoredCompleteGraph((a, rs.SimpleGraph.empty(4)))  # vertex counts differ
    with pytest.raises(ValueError):
        rs.ColoredCompleteGraph(())


def test_affine_coloring_q2_round_robin_splits_evenly():
    pattern = rs.affine_coloring(2, 2, rs.constructions.ROUND_ROBIN, seed=0)
    assert pattern.n == 4 and pattern.complete
    assert sorted(cls.edge_count for cls in pattern.classes) == [3, 3]


def test_affine_coloring_q3_parallel_balanced():
    pattern = rs.affine_coloring(3, 2)
    assert pattern.n == 9 and pattern.complete
    assert [cls.edge_count for cls in pattern.classes] == [18, 18]
    assert sum(cls.edge_count for cls in pattern.classes) == comb(9, 2)


def test_affine_coloring_balanced_lines_per_point():
    # r | q+1: every vertex lies on exactly (q+1)/r lines of each family,
    # and each of those lines joins it to q-1 other points
    for q, r in [(5, 2), (5, 3), (3, 2), (11, 4)]:
        pattern = rs.affine_coloring(q, r)
        per_family = (q + 1) // r
        for cls in pattern.classes:
            for v in range(pattern.n):
                assert cls.degree(v) == per_family * (q - 1)


def test_affine_coloring_round_robin_deterministic():
    a = rs.affine_coloring(5, 3, rs.constructions.ROUND_ROBIN, seed=9)
    b = rs.affine_coloring(5, 3, rs.constructions.ROUND_ROBIN, seed=9)
    c = rs.affine_coloring(5, 3, rs.constructions.ROUND_ROBIN, seed=10)
    assert a == b
    assert a != c


def test_affine_coloring_errors():
    with pytest.raises(ValueError):
        rs.affine_coloring(3, 5)  # r > q+1 for parallel-balanced
    with pytest.raises(ValueError):
        rs.affine_coloring(3, 2, rs.constructions.ROUND_ROBIN)  # missing seed
    with pytest.raises(ValueError):
        rs.affine_coloring(3, 2, "zigzag")


def test_fq3_coloring_q2():
    pattern = rs.fq3_coloring(2, 2)
    assert pattern.n == 8 and pattern.complete
    core = rs.fq3_core(2, 2)
    assert not core.complete
    assert [cls.edge_count for cls in core.classes] == [8, 8]
    leftover = comb(8, 2) - 16
    assert leftover == 12
    assert sum(cls.edge_count for cls in pattern.classes) == comb(8, 2)


def test_fq3_coloring_q3_core_classes():
    pattern = rs.fq3_coloring(3, 3)
    core = rs.fq3_core(3, 3)
    assert [cls.edge_count for cls in core.classes] == [81, 81, 81]
    # each core class is exactly the pair-union of its family's lines
    for lam in range(3):
        fam = rs.fq3_line_family(3, lam)
        rows = [0] * 27
        for lmask in fam.line_masks:
            for p in range(27):
                if (lmask >> p) & 1:
                    rows[p] |= lmask & ~(1 << p)
        assert core.classes[lam] == rs.SimpleGraph(27, tuple(rows))
        # and the completion keeps every core edge in its class
        assert all(r & ~full == 0 for r, full in zip(rows, pattern.classes[lam].rows))


def test_fq3_coloring_q3_r2_partition():
    pattern = rs.fq3_coloring(3, 2)
    core = rs.fq3_core(3, 2)
    core_total = sum(cls.edge_count for cls in core.classes)
    full_total = sum(cls.edge_count for cls in pattern.classes)
    assert full_total == comb(27, 2)
    # leftover pairs = third family + undirected pairs within x0-slices
    assert full_total - core_total == comb(27, 2) - 2 * 81
    # every core edge kept its color
    for i in range(2):
        for v in range(27):
            assert core.classes[i].rows[v] & ~pattern.classes[i].rows[v] == 0


def test_fq3_coloring_errors():
    with pytest.raises(ValueError):
        rs.fq3_coloring(3, 4)
    with pytest.raises(ValueError):
        rs.fq3_coloring(4, 2)


def test_lower_bound_p_closed_form():
    mpmath.mp.dps = 50
    for s, t in [(2, 2), (2, 3), (3, 4), (2, 7), (4, 9)]:
        x = 2 * mpmath.e * t / s
        want = float(mpmath.log(x, 2) / x)
        assert abs(rs.lower_bound_p(s, t) - want) < 1e-14


def test_lower_bound_p_diagonal_is_t_free():
    # s = t collapses the formula to log2(2e)/(2e) for every t
    vals = {rs.lower_bound_p(t, t) for t in range(2, 9)}
    assert len(vals) == 1
    assert math.isclose(vals.pop(), math.log2(2 * math.e) / (2 * math.e))


def test_lower_bound_p_range_errors():
    with pytest.raises(ValueError):
        rs.lower_bound_p(3, 2)
    with pytest.raises(ValueError):
        rs.lower_bound_p(1, 5)


def test_sample_gnp_endpoints():
    assert rs.sample_gnp(rs.GnpParams(6, 0.0, 1)) == rs.SimpleGraph.empty(6)
    assert rs.sample_gnp(rs.GnpParams(6, 1.0, 1)) == rs.SimpleGraph.complete(6)


def test_sample_gnp_deterministic():
    a = rs.sample_gnp(rs.GnpParams(20, 0.5, 7))
    b = rs.sample_gnp(rs.GnpParams(20, 0.5, 7))
    assert a == b
    assert a != rs.sample_gnp(rs.GnpParams(20, 0.5, 8))


@pytest.mark.parametrize("p", [0.3, 0.5])
def test_sample_gnp_mean_edges(p):
    space = comb(50, 2)
    counts = [rs.sample_gnp(rs.GnpParams(50, p, seed)).edge_count for seed in range(200)]
    mean = sum(counts) / len(counts)
    sd_of_mean = math.sqrt(space * p * (1 - p)) / math.sqrt(len(counts))
    assert abs(mean - p * space) <= 3 * sd_of_mean


def test_gnp_params_validation():
    with pytest.raises(ValueError):
        rs.GnpParams(10, 1.5, 0)
    with pytest.raises(ValueError):
        rs.GnpParams(5000, 0.5, 0)


def test_count_bad_sets_complete_graph():
    g = rs.SimpleGraph.complete(8)
    for n in (2, 4, 6):
        out = rs.count_bad_sets(g, n, 2, 2)
        assert out.value == comb(8, n)  # no independent pair anywhere


def test_count_bad_sets_c5_balanced():
    out = rs.count_bad_sets(cycle(5), 5, 2, 2)
    assert out.value == 0  # the single 5-set has both an edge and a non-edge


def test_count_bad_sets_sampler_agrees_with_exact():
    g = rs.sample_gnp(rs.GnpParams(12, 0.5, 3))
    exact = rs.count_bad_sets(g, 5, 3, 3)
    est = rs.count_bad_sets(g, 5, 3, 3, trials=3000, seed=1)
    phat = est.hits / est.checked
    se = est.space * math.sqrt(phat * (1 - phat) / est.checked)
    assert abs(est.value - exact.value) <= 5 * se


def test_count_bad_sets_sampled_past_enumeration_cap():
    # each draw is a one-subset window, decided whole: no recursion per element
    g = rs.SimpleGraph.complete(1100)
    out = rs.count_bad_sets(g, 1050, 3, 2, trials=2, seed=1)
    assert out.hits == 2 and out.checked == 2


def test_count_bad_sets_threads_match():
    g = rs.sample_gnp(rs.GnpParams(11, 0.4, 2))
    solo = rs.count_bad_sets(g, 4, 3, 3)
    sharded = rs.count_bad_sets(g, 4, 3, 3, threads=2)
    assert solo.value == sharded.value
    assert solo.checked == sharded.checked == comb(11, 4)


@pytest.mark.parametrize("n, s, t", [(5, 3, 3), (6, 2, 4), (6, 4, 3)])
def test_count_bad_sets_matches_itertools(n, s, t):
    # a second route: every n-subset, each asked for its K_s and I_t by brute force
    g = rs.sample_gnp(rs.GnpParams(16, 0.5, 7))
    bad = sum(
        not any(all(g.has_edge(u, v) for u, v in combinations(c, 2)) for c in combinations(x, s))
        or not any(not any(g.has_edge(u, v) for u, v in combinations(c, 2))
                   for c in combinations(x, t))
        for x in combinations(range(16), n)
    )
    out = rs.count_bad_sets(g, n, s, t)
    assert (out.hits, out.checked) == (bad, comb(16, n))


@pytest.mark.parametrize("threads", [1, 2])
def test_count_bad_sets_bench_instance(threads):
    # the badsets bench row: G(30, 1/2) seed 1, n = 6, s = t = 3; 209,702 is the
    # count the bench computes independently with numpy
    g = rs.sample_gnp(rs.GnpParams(30, 0.5, 1))
    assert rs.count_bad_sets(g, 6, 3, 3, threads=threads).hits == 209702


def test_count_bad_sets_rejects_threads_below_1(no_worker_processes):
    g = rs.sample_gnp(rs.GnpParams(11, 0.4, 2))
    with pytest.raises(ValueError, match="threads"):
        rs.count_bad_sets(g, 4, 3, 3, threads=-3)


def test_count_bad_sets_rejects_threads_above_cap(no_worker_processes):
    g = rs.sample_gnp(rs.GnpParams(11, 0.4, 2))
    with pytest.raises(ValueError, match="threads"):
        rs.count_bad_sets(g, 4, 3, 3, threads=rs.graphs.THREAD_CAP + 1)


@pytest.mark.parametrize("draw", [
    lambda: rs.sample_gnp(rs.GnpParams(5, 0.5, None)),
    lambda: rs.random_complete_pattern(4, 2, None),
    lambda: rs.affine_coloring(3, 4, rs.constructions.ROUND_ROBIN, None),
], ids=["sample_gnp", "random_complete_pattern", "affine_round_robin"])
def test_random_objects_refuse_a_missing_seed(draw):
    with pytest.raises(ValueError, match="seed"):
        draw()


def test_count_bad_sets_budget():
    g = rs.SimpleGraph.empty(40)
    with pytest.raises(BudgetError):
        rs.count_bad_sets(g, 20, 2, 2)
    with pytest.raises(ValueError):
        rs.count_bad_sets(g, 5, 2, 2, trials=10)  # no seed


def test_random_complete_pattern():
    a = rs.random_complete_pattern(6, 3, 4)
    b = rs.random_complete_pattern(6, 3, 4)
    assert a == b and a.complete and a.r == 3


def test_pattern_permutations_preserve_structure():
    pat = rs.random_complete_pattern(6, 3, 0)
    swapped = permute_colors(pat, [2, 0, 1])
    assert swapped.classes[2] == pat.classes[0]
    relabeled = relabel_vertices(pat, [5, 4, 3, 2, 1, 0])
    assert relabeled.complete
    assert sorted(c.edge_count for c in relabeled.classes) == sorted(
        c.edge_count for c in pat.classes
    )


@pytest.mark.parametrize("pat", [
    rs.random_complete_pattern(7, 3, 5),
    rs.ColoredCompleteGraph((rs.SimpleGraph.from_edges(5, [(3, 4), (0, 2)]),
                             rs.SimpleGraph.from_edges(5, [(1, 4), (0, 1)]))),
    rs.affine_coloring(3, 4, rs.constructions.ROUND_ROBIN, seed=3),
])
def test_colored_pairs_lists_each_coloured_pair_once_ascending(pat):
    want = [(u, v, i) for u in range(pat.n) for v in range(u + 1, pat.n)
            for i, cls in enumerate(pat.classes) if cls.has_edge(u, v)]
    assert list(pat.colored_pairs()) == want
