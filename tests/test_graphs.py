"""Graph core: clique search, greedy colour bound, Turán independent sets, subset scans."""

import math
import random
import time
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ramsat as rs
from ramsat.graphs import find_clique_mask, gosper_next, iter_bits, mask_of, subset_unrank

from conftest import (
    all_graphs,
    is_clique,
    is_increasing_tuple,
    is_independent,
    naive_find_clique,
    naive_max_independent_size,
    petersen,
)


def test_find_clique_examples():
    k5 = rs.SimpleGraph.complete(5)
    assert rs.find_clique(k5, 5) == (0, 1, 2, 3, 4)
    c5 = rs.SimpleGraph.cycle(5)
    assert rs.find_clique(c5, 3) is None
    # brute force over all 120 triples of the Petersen graph agrees
    pet = petersen()
    assert naive_find_clique(pet, 3) is None
    assert rs.find_clique(pet, 3) is None


def test_find_clique_parameter_errors():
    g = rs.SimpleGraph.cycle(5)
    with pytest.raises(ValueError):
        rs.find_clique(g, 0)
    with pytest.raises(ValueError):
        rs.find_clique(g, 6)


def test_find_clique_matches_naive_exhaustively_small():
    for g in all_graphs(4):
        for m in range(1, 5):
            got = rs.find_clique(g, m)
            want = naive_find_clique(g, m)
            assert got == want


def test_find_clique_matches_naive_seeded():
    # random graphs up to 12 vertices, every clique size; witnesses are the
    # lexicographically smallest, so they must match the naive scan exactly
    for seed in range(60):
        n = 5 + seed % 8
        g = rs.sample_gnp(rs.GnpParams(n, 0.2 + 0.1 * (seed % 7), seed))
        for m in range(1, n + 1):
            got = rs.find_clique(g, m)
            want = naive_find_clique(g, m)
            assert got == want
            assert got is None or is_increasing_tuple(got)



def naive_clique_mask(g: rs.SimpleGraph, allowed: int, m: int):
    """Mask of the lexicographically first m-clique among the allowed vertices."""
    for cand in combinations(iter_bits(allowed), m):
        if is_clique(g, cand):
            return mask_of(cand)
    return None


def test_find_clique_mask_inside_allowed_matches_naive():
    # the scans ask about a restricted vertex set, never the whole graph
    rng = random.Random(2024)
    for seed in range(120):
        n = rng.randint(1, 14)
        g = rs.sample_gnp(rs.GnpParams(n, rng.uniform(0.1, 0.9), seed))
        for _ in range(4):
            allowed = rng.getrandbits(n)
            for m in range(7):
                assert find_clique_mask(g.rows, allowed, m) == naive_clique_mask(g, allowed, m)


@pytest.mark.parametrize("g", [
    rs.SimpleGraph.from_edges(12, [(u, v) for u in range(6) for v in range(6, 12)]),
    rs.SimpleGraph.complete(12),
    rs.SimpleGraph.empty(12),
], ids=["K6,6", "K12", "empty12"])
def test_find_clique_mask_extreme_graphs(g):
    # dense but triangle-free, complete and edgeless: the clique test's worst cases
    rng = random.Random(7)
    for allowed in [g.full_mask, 0, 1, 0b100000100001] + [rng.getrandbits(12) for _ in range(20)]:
        for m in range(7):
            assert find_clique_mask(g.rows, allowed, m) == naive_clique_mask(g, allowed, m)


def test_turan_independent_set_examples():
    assert len(rs.turan_independent_set(rs.SimpleGraph.empty(5))) == 5
    assert rs.turan_bound(5, 0) == 5
    assert len(rs.turan_independent_set(rs.SimpleGraph.complete(5))) == 1
    assert rs.turan_bound(5, 10) == 1
    c5 = rs.SimpleGraph.cycle(5)
    out = rs.turan_independent_set(c5)
    assert rs.turan_bound(5, 5) == 2
    assert len(out) == 2 == naive_max_independent_size(c5)
    assert is_independent(c5, out)


def test_turan_bound_holds_on_seeded_graphs():
    for seed in range(300):
        n = 4 + seed % 37
        g = rs.sample_gnp(rs.GnpParams(n, (seed % 9) / 10.0, seed))
        out = rs.turan_independent_set(g)
        assert is_increasing_tuple(out) and is_independent(g, out)
        assert len(out) >= rs.turan_bound(n, g.edge_count)


def test_simple_graph_validation():
    with pytest.raises(ValueError):
        rs.SimpleGraph(2, (0b10, 0b00))  # asymmetric
    with pytest.raises(ValueError):
        rs.SimpleGraph(2, (0b01, 0b10))  # self loops
    with pytest.raises(ValueError):
        rs.SimpleGraph(2, (0b100, 0b000))  # out of range
    with pytest.raises(ValueError):
        rs.SimpleGraph.from_edges(3, [(0, 0)])


def test_complement_involution():
    for seed in range(10):
        g = rs.sample_gnp(rs.GnpParams(12, 0.4, seed))
        assert g.complement.complement == g
        assert g.edge_count + g.complement.edge_count == 12 * 11 // 2


def test_scan_colex_rejects_threads_above_cap(no_worker_processes):
    tests = rs.graphs.balance_tests(rs.SimpleGraph.complete(20), 3, 3)
    for threads in (rs.graphs.THREAD_CAP + 1, 100000):
        with pytest.raises(ValueError, match="threads"):
            rs.graphs.scan_colex(tests, 20, 10, threads)


def test_find_clique_at_depth_cap():
    cap = rs.graphs.CLIQUE_DEPTH_CAP
    k = rs.SimpleGraph.complete(cap)
    assert rs.find_clique(k, cap) == tuple(range(cap))


def test_find_clique_past_depth_cap_raises_at_once():
    cap = rs.graphs.CLIQUE_DEPTH_CAP
    k = rs.SimpleGraph.complete(cap + 1)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="clique"):
        rs.find_clique(k, cap + 1)
    assert time.perf_counter() - start < 0.5


def test_find_clique_past_depth_cap_pruned_before_the_cap():
    # too few vertices, or too few colour classes, answer None before any recursion
    cap = rs.graphs.CLIQUE_DEPTH_CAP
    k = rs.SimpleGraph.complete(cap + 1)
    assert rs.graphs.find_clique_mask(k.rows, 0, cap + 1) is None
    assert rs.graphs.find_clique_mask(k.rows, (1 << cap) - 1, cap + 1) is None
    empty = rs.SimpleGraph.empty(cap + 1)
    assert rs.find_clique(empty, cap + 1) is None


def reference_scan(tests, first: int, count: int, stop: bool):
    """``scan_subsets`` literally: one Gosper step and one clique search per subset."""
    x, failures, first_failure = first, 0, None
    for i in range(count):
        if i:
            x = gosper_next(x)
        if any(find_clique_mask(rows, x, need) is None for rows, need in tests):
            if stop:
                return i + 1, 1, x
            failures += 1
            if first_failure is None:
                first_failure = x
    return count, failures, first_failure


@st.composite
def scan_cases(draw):
    n = draw(st.integers(1, 12))
    pairs = list(combinations(range(n), 2))
    p = draw(st.sampled_from([0.1, 0.5, 0.9]))
    tests = []
    for _ in range(draw(st.integers(1, 2))):
        edges = [e for e, keep in zip(pairs, draw(st.lists(st.floats(0, 1), min_size=len(pairs),
                                                           max_size=len(pairs)))) if keep < p]
        tests.append((rs.SimpleGraph.from_edges(n, edges).rows, draw(st.integers(1, 4))))
    m = draw(st.integers(1, n))
    space = math.comb(n, m)
    start = draw(st.integers(0, space - 1))
    count = draw(st.sampled_from([0, 1, draw(st.integers(0, space - start))]))
    first = mask_of(subset_unrank(start, m))
    last = mask_of(subset_unrank(start + count - 1, m)) if count else first - 1
    return tuple(tests), first, last, count, draw(st.booleans())


@settings(max_examples=400, deadline=None)
@given(scan_cases())
def test_scan_subsets_matches_reference(case):
    tests, first, last, count, stop = case
    assert rs.graphs.scan_subsets(tests, first, last, stop) == reference_scan(tests, first, count, stop)


def test_scan_subsets_empty_and_single_windows():
    rows = rs.SimpleGraph.cycle(5).rows
    assert rs.graphs.scan_subsets(((rows, 2),), 0b00111, 0b00011) == (0, 0, None)
    assert rs.graphs.scan_subsets(((rows, 2),), 0b00101, 0b00101) == (1, 1, 0b00101)
    assert rs.graphs.scan_subsets(((rows, 0),), 0, 0) == (1, 0, None)
    assert rs.graphs.scan_colex(((rows, 2),), 3, 4) == (0, 0, None)
