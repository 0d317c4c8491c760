"""Colex ranking, the two oracles, and both directions of the reduction."""

import random
import time
from itertools import combinations
from math import comb

import numpy as np
import pytest

import ramsat as rs
from ramsat.errors import BudgetError
from ramsat.reduction import iter_subsets_colex

from conftest import all_graphs, is_increasing_tuple, naive_f_oracle, naive_g_oracle, petersen


# -- colex ----------------------------------------------------------------


def test_colex_roundtrip():
    for n, k in [(6, 3), (8, 4), (10, 2), (7, 7), (5, 1)]:
        for rank in range(comb(n, k)):
            sub = rs.subset_unrank(rank, k)
            assert rs.subset_rank(sub) == rank
            assert len(sub) == k and all(0 <= c < n for c in sub)


def test_colex_order_matches_sorted_combinations():
    subs = sorted(combinations(range(7), 3), key=lambda c: tuple(reversed(c)))
    assert list(iter_subsets_colex(7, 3)) == subs


@pytest.mark.parametrize("seed", range(20))
def test_graph_from_edge_mask_matches_from_edges(seed):
    # bit i of the mask is the i-th pair in colex order, by sorted combinations
    rng = random.Random(seed)
    N = rng.randrange(13)
    mask = rng.getrandbits(comb(N, 2))
    pairs = sorted(combinations(range(N), 2), key=lambda c: tuple(reversed(c)))
    edges = [p for i, p in enumerate(pairs) if mask >> i & 1]
    assert rs.graph_from_edge_mask(N, mask) == rs.SimpleGraph.from_edges(N, edges)
    with pytest.raises(ValueError, match="bits past"):
        rs.graph_from_edge_mask(N, mask | 1 << comb(N, 2))


# -- ksubset colorings -------------------------------------------------------


def test_coloring_bit_count_matches_comb_within_cap():
    cap = rs.reduction.COLORING_BIT_CAP
    for N in range(40):
        for k in range(N + 3):
            if comb(N, k) <= cap:
                assert rs.reduction.coloring_bit_count(N, k) == comb(N, k)
            else:
                with pytest.raises(ValueError, match="exceeds cap"):
                    rs.reduction.coloring_bit_count(N, k)
    for N, k in [(400000, 200000), (10**20, 1), (10**20, 10**19)]:
        with pytest.raises(ValueError, match="exceeds cap"):
            rs.KSubsetColoring(N, k, 0)


def test_ksubset_coloring_basics():
    chi = rs.KSubsetColoring.all_blue(5, 3)
    assert chi.color_of((0, 1, 2)) == 1
    chi = rs.KSubsetColoring.all_red(5, 3)
    assert chi.color_of((2, 3, 4)) == 0
    a = rs.KSubsetColoring.random(6, 3, 17)
    assert a == rs.KSubsetColoring.random(6, 3, 17)
    assert a != rs.KSubsetColoring.random(6, 3, 18)


@pytest.mark.parametrize("N, k, seed", [(0, 0, 1), (5, 2, 0), (6, 3, 17), (9, 4, 3), (12, 5, 8)])
def test_ksubset_coloring_random_matches_shifted_draws(N, k, seed):
    draws = rs.constructions.seeded_rng(seed).integers(0, 2, size=comb(N, k))
    want = 0
    for i, b in enumerate(draws):
        want |= int(b) << i
    assert rs.KSubsetColoring.random(N, k, seed).bits == want


def test_ksubset_coloring_random_is_linear():
    start = time.perf_counter()
    chi = rs.KSubsetColoring.random(22, 11, 1)
    assert time.perf_counter() - start < 2.0
    assert chi.bits >> (comb(22, 11) - 1) in (0, 1)


def test_ksubset_coloring_caps():
    with pytest.raises(ValueError):
        rs.KSubsetColoring(64, 20, 0)  # C(64,20) over the bit cap
    with pytest.raises(ValueError):
        rs.KSubsetColoring(4, 2, 1 << 10)  # bits past C(4,2)


# -- unbalanced sets ----------------------------------------------------------


def test_has_unbalanced_set_examples():
    got = rs.has_unbalanced_set(rs.SimpleGraph.complete(5), 3, 2, 2)
    assert is_increasing_tuple(got) and len(got) == 3  # any triple lacks I_2
    assert rs.has_unbalanced_set(rs.SimpleGraph.cycle(5), 5, 2, 2) is None
    got = rs.has_unbalanced_set(petersen(), 4, 3, 3)
    assert is_increasing_tuple(got)  # triangle-free graph: every 4-set lacks K_3


def test_has_unbalanced_set_range_errors():
    with pytest.raises(ValueError):
        rs.has_unbalanced_set(rs.SimpleGraph.complete(4), 5, 2, 2)


def test_has_unbalanced_set_capped_at_64_vertices():
    with pytest.raises(ValueError, match="capped at 64"):
        rs.has_unbalanced_set(rs.SimpleGraph.complete(65), 2, 2, 2)


# -- g oracle ----------------------------------------------------------------


def test_g_oracle_tiny_values():
    assert rs.g_oracle(2, 2, 2, 6).value == 2
    assert rs.g_oracle(3, 2, 3, 6).value == 3


def test_g_oracle_ramsey_number_with_c5_witness():
    res = rs.g_oracle(3, 2, 2, 6)
    assert res.value == 6
    w = res.witness
    assert res.witness.n == 5 and w.n == 5
    # the only graph on 5 vertices in which every triple has an edge and a
    # non-edge is the 5-cycle: 2-regular and connected
    assert all(w.degree(v) == 2 for v in range(5))
    seen = {0}
    frontier = [0]
    while frontier:
        v = frontier.pop()
        for u in range(5):
            if w.has_edge(u, v) and u not in seen:
                seen.add(u)
                frontier.append(u)
    assert seen == set(range(5))


def test_g_oracle_monotone_in_n():
    vals = {}
    for n in (2, 3):
        vals[n] = rs.g_oracle(n, 2, 2, 6).value
    assert vals[2] <= vals[3]
    assert rs.g_oracle(3, 2, 3, 7).value <= rs.g_oracle(4, 2, 3, 7).value


def test_g_oracle_budget():
    with pytest.raises(BudgetError):
        rs.g_oracle(3, 2, 2, 8)


G_GRID = [(n, s, t) for n in (2, 3, 4, 5) for s, t in [(2, 2), (3, 3), (2, 3), (3, 2), (2, 4)]]


@pytest.mark.parametrize("n, s, t", G_GRID)
def test_g_oracle_matches_the_naive_oracle(n, s, t):
    # every n_max <= 5, from the vacuous level n - 1 alone upward
    for n_max in range(max(1, n - 1), 6):
        got = rs.g_oracle(n, s, t, n_max)
        assert (got.value, got.witness, got.checked) == naive_g_oracle(n, s, t, n_max)


def test_g_oracle_decides_a_full_level_of_seven_vertices():
    # 2^21 graphs on 7 vertices, none a counterexample; complementing a graph
    # swaps the roles of s and t, so both orders give the same value
    for s, t, checked in [(3, 4, 2_097_161), (4, 3, 2_097_217)]:
        got = rs.g_oracle(6, s, t, 7)
        assert (got.value, got.checked) == (7, checked)
        assert got.witness.n == 6 and rs.has_unbalanced_set(got.witness, 6, s, t) is None


@pytest.mark.parametrize("oracle", [lambda n, n_max: rs.g_oracle(n, 2, 2, n_max),
                                    lambda n, n_max: rs.f_oracle(n, 2, 2, n, n_max)],
                         ids=["g", "f"])
def test_oracles_refuse_an_empty_level_range_before_any_cap(oracle):
    # levels run from n - 1 to n_max; past either cap, the empty range is refused first
    for n, n_max in [(3, -5), (3, 1), (12, 10), (5000, 100)]:
        with pytest.raises(ValueError, match="n_max"):
            oracle(n, n_max)
    assert oracle(3, 2).value is None  # the one level n - 1 = 2 has a counterexample


# -- good sets and the f oracle ------------------------------------------------


def test_good_set_witness_monochromatic():
    chi = rs.KSubsetColoring.all_blue(5, 3)
    assert rs.good_set_witness(chi, 4, 2, 3) == (0, 1, 2, 3)
    chi = rs.KSubsetColoring.all_red(5, 3)
    assert rs.good_set_witness(chi, 4, 2, 3) == (0, 1, 2, 3)


def _naive_good_set(chi: rs.KSubsetColoring, n, s, t):
    """Definition-level re-implementation with itertools only."""
    N, k = chi.N, chi.k
    for U in sorted(combinations(range(N), n), key=lambda c: tuple(reversed(c))):
        cond_a = all(
            any(
                chi.color_of(K) == 0
                for K in combinations(range(N), k)
                if set(S) <= set(K)
            )
            for S in combinations(U, s)
        )
        if cond_a:
            return U
        cond_b = all(
            any(
                chi.color_of(K) == 1
                for K in combinations(range(N), k)
                if set(T) <= set(K)
            )
            for T in combinations(U, t)
        )
        if cond_b:
            return U
    return None


def test_good_set_witness_matches_naive_on_seeded_colorings():
    for seed in range(50):
        chi = rs.KSubsetColoring.random(5, 3, seed)
        got = rs.good_set_witness(chi, 4, 2, 3)
        want = _naive_good_set(chi, 4, 2, 3)
        assert got == want
        assert got is None or is_increasing_tuple(got)


def test_good_set_witness_past_word_masks_matches_naive():
    # over 64 colour bits (graph colourings give late first good sets and
    # None as well)
    N = 9
    for n, s, t in [(4, 2, 3), (6, 2, 3), (7, 3, 3)]:
        chis = [rs.KSubsetColoring.random(N, s + t - 2, seed) for seed in range(2)]
        chis += [rs.graph_to_coloring(rs.sample_gnp(rs.GnpParams(N, p, seed)), s, t)
                 for p in (0.2, 0.5, 0.7) for seed in range(2)]
        for chi in chis:
            assert chi.subset_count > 64
            got = rs.good_set_witness(chi, n, s, t)
            assert got == _naive_good_set(chi, n, s, t)


def test_superset_mask_cache_stays_within_its_bit_bound(monkeypatch):
    # a cache too small for every mask of the scan is emptied as it goes,
    # never holds more than its bound, and changes no answer
    red = rs.reduction
    monkeypatch.setattr(red, "SUPERSET_CACHE_BITS", 100)
    monkeypatch.setattr(red, "_superset_masks", {})
    monkeypatch.setattr(red, "_superset_mask_bits", 0)
    for seed in range(20):
        chi = rs.KSubsetColoring.random(6, 3, seed)  # 20-bit masks, five fit
        assert rs.good_set_witness(chi, 5, 2, 3) == _naive_good_set(chi, 5, 2, 3)
        assert red._superset_mask_bits == 20 * len(red._superset_masks) <= 100
    monkeypatch.setattr(red, "SUPERSET_CACHE_BITS", 10)  # a mask past the bound is not kept
    assert red._superset_mask(6, 3, (0, 1)) == red._superset_mask(6, 3, (0, 1))
    assert red._superset_masks == {} and red._superset_mask_bits == 0


F_GRID = [(n, s, t, k) for n in (2, 3, 4, 5) for s, t in [(2, 2), (3, 3), (2, 3), (3, 2)]
          for k in range(max(s, t), n + 1)]


@pytest.mark.parametrize("n, s, t, k", F_GRID)
def test_f_oracle_matches_the_naive_oracle(n, s, t, k):
    for n_max in range(max(1, n - 1), 6):
        got = rs.f_oracle(n, s, t, k, n_max)
        assert (got.value, got.witness, got.checked) == naive_f_oracle(n, s, t, k, n_max)


def test_f_oracle_exact_formula_cases():
    # k = s+t-1 has the closed form 2n - s - t + 1
    assert rs.f_oracle(3, 2, 2, 3, 6).value == 3
    assert rs.f_oracle(4, 2, 2, 3, 6).value == 5


def test_f_oracle_is_ramsey_number_at_k2():
    res = rs.f_oracle(3, 2, 2, 2, 6)
    assert res.value == 6
    assert res.witness is not None  # a 2-coloring of K_5 pairs, no mono triangle


@pytest.mark.parametrize("n, s, t, k", [(4, 1, 3, 3), (4, 3, 1, 3), (4, 2, 3, 2),
                                        (4, 3, 2, 2), (2, 2, 3, 3)])
def test_f_oracle_rejects_bad_parameters(n, s, t, k):
    # s, t >= 2 and max(s, t) <= k <= n, each checked before the budget
    with pytest.raises(ValueError):
        rs.f_oracle(n, s, t, k, 6)


@pytest.mark.parametrize("n, s, t", [(2, 2, 3), (6, 2, 3), (4, 1, 3), (4, 2, 1),
                                     (4, 4, 2), (4, 2, 4)])
def test_good_set_witness_rejects_bad_parameters(n, s, t):
    # n must lie in [k, N] and s, t in [2, k], for the coloring's k = 3, N = 5
    with pytest.raises(ValueError):
        rs.good_set_witness(rs.KSubsetColoring.all_red(5, 3), n, s, t)


def test_f_oracle_budget():
    with pytest.raises(BudgetError, match=r"^C\(7,3\) = 35 exceeds f-oracle cap 20$"):
        rs.f_oracle(4, 2, 3, 3, 7)
    # past the coloring bit cap the binomial is not named, nor computed
    with pytest.raises(BudgetError, match=r"^C\(10000,5000\) exceeds f-oracle cap 20$"):
        rs.f_oracle(5000, 2, 2, 5000, 10000)


# -- transforms ---------------------------------------------------------------


def test_coloring_to_graph_k2_is_blue_graph():
    # with s = t = 2 the only 2-superset of a pair is itself, so the forced
    # conditions read the pair's own color and the graph is the blue graph
    for seed in range(20):
        chi = rs.KSubsetColoring.random(6, 2, seed)
        g = rs.coloring_to_graph(chi, 2, 2)
        for u in range(6):
            for v in range(u + 1, 6):
                assert g.has_edge(u, v) == (chi.color_of((u, v)) == 1)


def test_coloring_to_graph_single_blue_triple():
    chi = rs.KSubsetColoring.all_blue(3, 3)
    g = rs.coloring_to_graph(chi, 2, 3)
    assert g == rs.SimpleGraph.complete(3)


def test_coloring_to_graph_forced_sets_disjoint_seeded():
    # recompute both forcing conditions independently and confirm the
    # transform saw no conflict and honored them under both tie breaks
    for N, s, t in [(5, 2, 3), (6, 3, 2), (6, 3, 3), (7, 3, 3), (6, 2, 4), (7, 4, 2)]:
        k = s + t - 2
        for seed in range(30 if N < 7 else 8):
            chi = rs.KSubsetColoring.random(N, k, seed)
            g_non = rs.coloring_to_graph(chi, s, t, "nonedge")
            g_edge = rs.coloring_to_graph(chi, s, t, "edge")
            for x in range(N):
                for y in range(x + 1, N):
                    forced_edge = _forced(chi, (x, y), s, 1)
                    forced_non = _forced(chi, (x, y), t, 0)
                    assert not (forced_edge and forced_non)
                    if forced_edge:
                        assert g_non.has_edge(x, y) and g_edge.has_edge(x, y)
                    elif forced_non:
                        assert not g_non.has_edge(x, y) and not g_edge.has_edge(x, y)
                    else:
                        assert not g_non.has_edge(x, y) and g_edge.has_edge(x, y)


def _forced(chi, pair, size, color):
    """Some size-superset of ``pair`` has every k-superset of the given color."""
    N, k = chi.N, chi.k
    return any(
        all(chi.color_of(K) == color for K in combinations(range(N), k) if set(S) <= set(K))
        for S in combinations(range(N), size)
        if set(pair) <= set(S)
    )


def test_coloring_to_graph_exclusivity_exhaustive_vectorized():
    # all 2^C(6,3) colorings at once: for every pair, "some s-superset is
    # all-blue" and "some t-superset is all-red" never hold together.
    # s = 2 makes the s-superset the pair itself; its k-supersets form one
    # mask, all-blue == (bits & mask) == mask.  For t = 3 each t-superset's
    # k-supersets are itself, all-red == that bit being 0.
    N, k, s, t = 6, 3, 2, 3
    m = comb(N, k)
    bits = np.arange(1 << m, dtype=np.uint32)
    ranks = {K: rs.subset_rank(K) for K in combinations(range(N), k)}
    for x in range(N):
        for y in range(x + 1, N):
            sup_mask = 0
            for K in combinations(range(N), k):
                if {x, y} <= set(K):
                    sup_mask |= 1 << ranks[K]
            forced_edge = (bits & sup_mask) == sup_mask
            forced_non = np.zeros(len(bits), dtype=bool)
            for T in combinations(range(N), t):
                if {x, y} <= set(T):
                    forced_non |= (bits & np.uint32(1 << ranks[T])) == 0
            assert not bool(np.any(forced_edge & forced_non))


def test_coloring_to_graph_large_ground_set():
    # N = 1300, k = 2: 844,350 colour bits; each pair is its own s- and
    # t-set, so the graph is the blue pairs
    N = 1300
    chi = rs.KSubsetColoring.random(N, 2, 3)
    start = time.perf_counter()
    g = rs.coloring_to_graph(chi, 2, 2)
    assert time.perf_counter() - start < 30
    for x, y in [(0, 1), (5, 700), (1298, 1299)]:
        assert g.has_edge(x, y) == (chi.color_of((x, y)) == rs.reduction.BLUE)


def test_coloring_to_graph_requires_matching_k():
    chi = rs.KSubsetColoring.all_red(5, 3)
    with pytest.raises(ValueError):
        rs.coloring_to_graph(chi, 2, 2)  # needs k = 2


def test_graph_to_coloring_monochromatic_graphs():
    chi = rs.graph_to_coloring(rs.SimpleGraph.complete(5), 2, 3)
    assert chi.bits == (1 << comb(5, 3)) - 1  # all triples blue
    chi = rs.graph_to_coloring(rs.SimpleGraph.empty(5), 2, 3)
    assert chi.bits == 0  # all triples red


def test_graph_to_coloring_c5_all_triples_blue():
    # C_5 has independence number 2, so every triple contains an edge and
    # the red rule never fires; all 10 triples come out blue
    c5 = rs.SimpleGraph.cycle(5)
    chi = rs.graph_to_coloring(c5, 2, 3)
    for K in combinations(range(5), 3):
        assert chi.color_of(K) == 1
        assert any(c5.has_edge(u, v) for u, v in combinations(K, 2))


def test_graph_to_coloring_exclusivity_structural():
    # the two conditions only read the induced k-vertex subgraph, so
    # checking every graph on exactly k vertices covers all k-subsets of
    # all larger graphs
    for s, t in [(2, 3), (3, 3)]:
        k = s + t - 2
        for g in all_graphs(k):
            rs.graph_to_coloring(g, s, t)  # internal assertion is the check


def test_graph_to_coloring_exclusivity_seeded_n8():
    for s, t in [(2, 3), (3, 3)]:
        for seed in range(60):
            g = rs.sample_gnp(rs.GnpParams(8, (seed % 10) / 10.0, seed))
            rs.graph_to_coloring(g, s, t)


def test_round_trip_law_exhaustive():
    # whenever a graph has an unbalanced n-set, the derived coloring has a
    # good n-set (for s = 2, t = 3 over every graph on up to 5 vertices)
    s, t = 2, 3
    for N in (3, 4, 5):
        for g in all_graphs(N):
            chi = rs.graph_to_coloring(g, s, t)
            for n in range(3, N + 1):
                if rs.has_unbalanced_set(g, n, s, t) is not None:
                    assert rs.good_set_witness(chi, n, s, t) is not None


def test_round_trip_law_n6():
    s, t = 2, 3
    for g in all_graphs(6):
        chi = rs.graph_to_coloring(g, s, t)
        for n in (3, 4, 5, 6):
            if rs.has_unbalanced_set(g, n, s, t) is not None:
                assert rs.good_set_witness(chi, n, s, t) is not None
