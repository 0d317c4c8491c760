"""Graph core: clique search, greedy colour bound, Turán independent sets, subset scans."""

import math
import os
import random
import time
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ramsat as rs
from ramsat.graphs import find_clique_mask, gosper_next, iter_bits, mask_of

from conftest import (
    all_graphs,
    cycle,
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
    c5 = cycle(5)
    assert rs.find_clique(c5, 3) is None
    # brute force over all 120 triples of the Petersen graph agrees
    pet = petersen()
    assert naive_find_clique(pet, 3) is None
    assert rs.find_clique(pet, 3) is None


def test_find_clique_parameter_errors():
    g = cycle(5)
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
    c5 = cycle(5)
    out = rs.turan_independent_set(c5)
    assert rs.turan_bound(5, 5) == 2
    assert len(out) == 2 == naive_max_independent_size(c5)
    assert is_independent(c5, out)


def test_turan_independent_set_takes_the_smallest_index_on_ties():
    # on the path 0-1-2-3 the ends tie at degree 1, then 2 and 3 tie
    path = rs.SimpleGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert rs.turan_independent_set(path) == (0, 2)


@pytest.mark.parametrize("n, e", [(0, 0), (-1, 0), (3, -2), (3, 4), (1, 1)])
def test_turan_bound_refuses_sizes_no_graph_has(n, e):
    with pytest.raises(ValueError):
        rs.turan_bound(n, e)


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


def test_color_bound_ends_the_turan_k11_query_at_the_top(monkeypatch):
    # T(60, 10) is 10-partite, so its greedy colouring has 10 classes and no
    # K_11; the bound must say so before any recursion.  Sets smaller than
    # COLOR_BOUND_MIN_CANDIDATES are searched without it.
    calls = []
    bound = rs.graphs._color_bound_reaches
    monkeypatch.setattr(rs.graphs, "_color_bound_reaches",
                        lambda rows, cand, need: calls.append(need) or bound(rows, cand, need))
    g = rs.SimpleGraph.from_edges(60, [(a, b) for a, b in combinations(range(60), 2)
                                       if a % 10 != b % 10])
    assert find_clique_mask(g.rows, g.full_mask, 11) is None
    assert calls == [11]
    small = rs.SimpleGraph.complete(rs.graphs.COLOR_BOUND_MIN_CANDIDATES - 1)
    assert find_clique_mask(small.rows, small.full_mask, 4) == 0b1111
    assert calls == [11]


def test_find_clique_past_depth_cap_pruned_before_the_cap():
    # too few vertices, or too few colour classes, answer None before any recursion
    cap = rs.graphs.CLIQUE_DEPTH_CAP
    k = rs.SimpleGraph.complete(cap + 1)
    assert rs.graphs.find_clique_mask(k.rows, 0, cap + 1) is None
    assert rs.graphs.find_clique_mask(k.rows, (1 << cap) - 1, cap + 1) is None
    empty = rs.SimpleGraph.empty(cap + 1)
    assert rs.find_clique(empty, cap + 1) is None


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 14), st.sampled_from([0.2, 0.5, 0.8]), st.integers(0, 2**32),
       st.integers(0, 6), st.data())
def test_closer_mask_matches_itertools(n, p, seed, need, data):
    # v closes prefix when some (need - 1)-subset of prefix is a clique inside rows[v]
    g = rs.sample_gnp(rs.GnpParams(n, p, seed))
    prefix, limit = (data.draw(st.integers(0, (1 << n) - 1)) for _ in range(2))
    want = mask_of(v for v in range(n) if any(
        is_clique(g, c) for c in combinations(iter_bits(prefix & g.rows[v]), max(need - 1, 0))))
    assert rs.graphs.closer_mask(g.rows, prefix, need, g.full_mask) == want
    assert rs.graphs.closer_mask(g.rows, prefix, need, limit) == want & limit


def reference_scan(tests, n: int, m: int, stop: bool, top=None):
    """``scan_subsets`` literally: one Gosper step and one clique search per subset."""
    if m == 0:  # the empty subset, in no block
        x, count = 0, int(top is None)
    elif top is None:
        x, count = (1 << m) - 1, math.comb(n, m)
    else:  # top's block: top above the m - 1 lowest elements, C(top, m - 1) subsets
        x, count = (1 << (m - 1)) - 1 | 1 << top, math.comb(top, m - 1)
    failures, first_failure = 0, None
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


def draw_tests(draw, n: int, min_need: int):
    """One or two ``scan_subsets`` tests on random graphs of n vertices, needs min_need to 6."""
    pairs = list(combinations(range(n), 2))
    p = draw(st.sampled_from([0.1, 0.5, 0.9]))
    tests = []
    for _ in range(draw(st.integers(1, 2))):
        edges = [e for e, keep in zip(pairs, draw(st.lists(st.floats(0, 1), min_size=len(pairs),
                                                           max_size=len(pairs)))) if keep < p]
        tests.append((rs.SimpleGraph.from_edges(n, edges).rows, draw(st.integers(min_need, 6))))
    return tuple(tests)


@st.composite
def scan_cases(draw):
    n = draw(st.integers(1, 14))
    tests = draw_tests(draw, n, 0)
    m = draw(st.integers(0, n))
    top = draw(st.sampled_from([None, *range(m - 1, n)]))
    return tests, n, m, top, draw(st.booleans())


@settings(max_examples=400, deadline=None)
@given(scan_cases())
def test_scan_subsets_matches_reference(case):
    tests, n, m, top, stop = case
    assert rs.graphs.scan_subsets(tests, n, m, stop, top) == reference_scan(tests, n, m, stop, top)


@pytest.mark.parametrize("stop", [False, True])
def test_scan_subsets_cuts_passing_blocks(stop):
    # In K_6 with need 2 the prefix {3, 4} passes, so its block of 3-subsets
    # passes whole inside the block of 4; each block is also scanned alone.
    k6 = rs.SimpleGraph.complete(6).rows
    c6 = cycle(6).rows
    for tests in (((k6, 2),), ((k6, 2), (c6, 2))):
        for top in (None, *range(2, 6)):
            got = rs.graphs.scan_subsets(tests, 6, 3, stop, top)
            assert got == reference_scan(tests, 6, 3, stop, top), (tests, top)


@pytest.mark.parametrize("stop", [False, True])
def test_scan_subsets_cuts_last_level_blocks(stop):
    # In C_7 most pairs miss an edge, and no pair holds a triangle of the
    # complement, so the blocks the last two levels decide fail in part or
    # whole; the 1-, 2- and 3-subsets are scanned whole and block by block.
    c7 = cycle(7)
    for tests in (((c7.rows, 2),), ((c7.rows, 2), (c7.complement.rows, 3))):
        for m in (1, 2, 3):
            for top in (None, *range(m - 1, 7)):
                got = rs.graphs.scan_subsets(tests, 7, m, stop, top)
                assert got == reference_scan(tests, 7, m, stop, top), (tests, m, top)


@pytest.mark.parametrize("stop", [False, True])
def test_scan_subsets_passes_a_block_with_too_few_non_closers(monkeypatch, stop):
    # Vertex 6 sees all of 0..4, so with need 2 every pair below it holds one
    # of its closers: its block passes whole, and the walk asks for no closers
    # below it (one call at the root, one for 6).
    g = rs.SimpleGraph.from_edges(7, [(v, 6) for v in range(5)])
    calls = []
    closer_mask = rs.graphs.closer_mask
    monkeypatch.setattr(rs.graphs, "closer_mask", lambda *a: calls.append(a) or closer_mask(*a))
    assert rs.graphs.scan_subsets(((g.rows, 2),), 7, 3, stop, 6) == (15, 0, None)
    assert len(calls) == 2


def reference_sampled_scan(tests, n: int, m: int, samples: int, seed: int, stop: bool):
    """The sampled ``scan_colex`` literally: one seeded draw and one clique search per test."""
    rng = rs.graphs.seeded_rng(seed)
    scanned, failures, first_failure = 0, 0, None
    for _ in range(samples):
        x = mask_of(rng.choice(n, size=m))
        scanned += 1
        if any(find_clique_mask(rows, x, need) is None for rows, need in tests):
            failures += 1
            if first_failure is None:
                first_failure = x
            if stop:
                break
    return scanned, failures, first_failure


@settings(max_examples=200, deadline=None)
@given(scan_cases(), st.integers(1, 30), st.integers(0, 2**32))
def test_sampled_scan_colex_matches_reference(case, samples, seed):
    tests, n, m, _, stop = case
    rng = rs.graphs.seeded_rng(seed)
    got = rs.graphs.scan_colex(tests, n, m, 1, stop, samples, rng)
    assert got == reference_sampled_scan(tests, n, m, samples, seed, stop)


def test_scan_colex_rejects_samples_below_1():
    tests = rs.graphs.balance_tests(rs.SimpleGraph.complete(8), 3, 3)
    rng = rs.graphs.seeded_rng(1)
    for samples in (0, -1):
        with pytest.raises(ValueError, match="samples"):
            rs.graphs.scan_colex(tests, 8, 4, samples=samples, rng=rng)


def test_scan_colex_refuses_a_sharded_sampled_scan(no_worker_processes):
    tests = rs.graphs.balance_tests(rs.SimpleGraph.complete(8), 3, 3)
    rng = rs.graphs.seeded_rng(1)
    with pytest.raises(ValueError, match="one process"):
        rs.graphs.scan_colex(tests, 8, 4, threads=2, samples=3, rng=rng)


def test_scan_colex_caps_exact_scans_only():
    tests = rs.graphs.balance_tests(rs.SimpleGraph.complete(65), 3, 2)
    with pytest.raises(ValueError, match="capped at 64"):
        rs.graphs.scan_colex(tests, 65, 2)
    rng = rs.graphs.seeded_rng(1)
    scanned, failures, first_failure = rs.graphs.scan_colex(tests, 65, 2, samples=3, rng=rng)
    assert (scanned, failures, first_failure.bit_count()) == (1, 1, 2)  # no K_3 in a pair


def test_no_worker_processes_refuses_a_sharded_scan(no_worker_processes, monkeypatch):
    monkeypatch.setattr(rs.graphs, "_usable_cpus", lambda: 2)
    tests = rs.graphs.balance_tests(rs.SimpleGraph.complete(12), 3, 3)
    with pytest.raises(AssertionError, match="no worker process"):
        rs.graphs.scan_colex(tests, 12, 6, 2, False)


def test_a_scan_that_stops_starts_no_worker_process(no_worker_processes, monkeypatch):
    monkeypatch.setattr(rs.graphs, "_usable_cpus", lambda: rs.graphs.THREAD_CAP)
    tests = rs.graphs.balance_tests(cycle(12), 3, 3)
    serial = rs.graphs.scan_subsets(tests, 12, 6)
    for threads in range(1, rs.graphs.THREAD_CAP + 1):
        assert rs.graphs.scan_colex(tests, 12, 6, threads) == serial


def test_exact_scans_ask_no_clique_search(no_worker_processes, monkeypatch):
    # an exact scan decides by closer-mask bit tests and last-level popcounts
    # alone, passing or failing, and never asks about a whole subset
    calls = []
    real = rs.graphs.find_clique_mask
    # saturation and constructions bind find_clique_mask when first imported:
    # import them before the patch, so neither keeps the stand-in afterwards
    import ramsat.constructions
    import ramsat.saturation

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(rs.graphs, "find_clique_mask", counted)
    g = rs.sample_gnp(rs.GnpParams(30, 0.5, 1))
    assert rs.count_bad_sets(g, 6, 3, 3).hits == 209702
    assert rs.check_observation(rs.affine_coloring(5, 2, "parallel-balanced"), 4).holds
    rr = rs.check_observation(rs.affine_coloring(5, 2, "round-robin", 1), 4)
    assert (rr.holds, rr.checked) == (False, 5781006)
    assert calls == []


def in_process_pool(sizes: list, mapped: list | None = None):
    """A stand-in for ``ProcessPoolExecutor`` that maps in this process,
    appends each pool's ``max_workers`` to ``sizes`` and, when given a
    ``mapped`` list, each map's argument lists to it."""

    class Pool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            iterables = [list(it) for it in iterables]
            if mapped is not None:
                mapped.extend(iterables)
            return map(fn, *iterables)

    return Pool


@st.composite
def sharded_cases(draw):
    """A scan with 2 to 5 threads over a space of at least four subsets per thread."""
    threads = draw(st.integers(2, 5))
    n = draw(st.sampled_from([n for n in range(1, 15) if math.comb(n, n // 2) >= 4 * threads]))
    m = draw(st.sampled_from([m for m in range(n + 1) if math.comb(n, m) >= 4 * threads]))
    return draw_tests(draw, n, 0), n, m, threads


@settings(max_examples=300, deadline=None)
@given(sharded_cases(), st.booleans())
def test_sharded_scan_colex_matches_the_serial_scan(case, stop):
    tests, n, m, threads = case
    sizes = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("concurrent.futures.ProcessPoolExecutor", in_process_pool(sizes))
        mp.setattr(rs.graphs, "_usable_cpus", lambda: rs.graphs.THREAD_CAP)
        got = rs.graphs.scan_colex(tests, n, m, threads, stop)
    assert sizes == ([] if stop else [threads])  # a scan that stops runs in this process
    assert got == rs.graphs.scan_subsets(tests, n, m, stop)


@pytest.mark.parametrize("cpus, pools", [(1, []), (3, [3]), (8, [5])])
def test_sharded_scan_starts_at_most_one_worker_per_cpu(monkeypatch, cpus, pools):
    sizes, mapped = [], []
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", in_process_pool(sizes, mapped))
    monkeypatch.setattr(rs.graphs, "_usable_cpus", lambda: cpus)
    tests = rs.graphs.balance_tests(cycle(12), 3, 3)
    got = rs.graphs.scan_colex(tests, 12, 6, 5, False)
    assert sizes == pools
    assert mapped == [[11, 10, 9, 8, 7, 6, 5]] * len(pools)  # the largest blocks first
    assert got == rs.graphs.scan_subsets(tests, 12, 6, False)


def test_usable_cpus_falls_back_to_the_cpu_count(monkeypatch):
    assert 1 <= rs.graphs._usable_cpus() <= (os.cpu_count() or 1)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert rs.graphs._usable_cpus() == (os.cpu_count() or 1)


def test_scan_subsets_empty_and_single_blocks():
    rows = cycle(5).rows
    # a top below m - 1 or past n - 1 has an empty block
    assert rs.graphs.scan_subsets(((rows, 2),), 5, 3, True, 1) == (0, 0, None)
    assert rs.graphs.scan_subsets(((rows, 2),), 5, 2, True, 5) == (0, 0, None)
    assert rs.graphs.scan_subsets(((rows, 2),), 5, 1, True, 6) == (0, 0, None)
    assert rs.graphs.scan_subsets(((rows, 2),), 5, 2, True, 2) == (1, 1, 0b00101)
    assert rs.graphs.scan_subsets(((rows, 2),), 5, 2, False, 4) == (4, 2, 0b10010)
    assert rs.graphs.scan_subsets(((rows, 2),), 5, 1, False, 3) == (1, 1, 0b01000)
    assert rs.graphs.scan_subsets(((rows, 2),), 5, 1, False) == (5, 5, 0b00001)
    # m = 0: the empty subset passes need 0, fails any larger need, and is in no block
    assert rs.graphs.scan_subsets(((rows, 0),), 5, 0) == (1, 0, None)
    assert rs.graphs.scan_subsets(((rows, 0), (rows, 2)), 5, 0) == (1, 1, 0)
    assert rs.graphs.scan_subsets(((rows, 0), (rows, 2)), 5, 0, True, 0) == (0, 0, None)
    # m > n: no subset at all
    assert rs.graphs.scan_subsets(((rows, 2),), 3, 4) == (0, 0, None)
    assert rs.graphs.scan_colex(((rows, 2),), 3, 4) == (0, 0, None)
