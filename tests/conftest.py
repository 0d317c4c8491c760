"""Shared fixtures and deliberately naive oracles.

The oracles here re-derive answers straight from definitions with
itertools, independently of the library's bitset search paths, so the two
routes can disagree loudly in tests.
"""

import os
from functools import lru_cache
from itertools import combinations, product
from math import comb
from pathlib import Path

import numpy as np
import pytest

import ramsat as rs

SRC = Path(__file__).resolve().parents[1] / "src"


def checkout_env() -> dict:
    """The environment with this checkout's ``src/`` first on PYTHONPATH, for child interpreters."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def petersen() -> rs.SimpleGraph:
    """Outer 5-cycle, inner pentagram, spokes."""
    edges = [(v, (v + 1) % 5) for v in range(5)]
    edges += [(5 + v, 5 + (v + 2) % 5) for v in range(5)]
    edges += [(v, v + 5) for v in range(5)]
    return rs.SimpleGraph.from_edges(10, edges)


def cycle(n: int) -> rs.SimpleGraph:
    """The cycle 0 - 1 - ... - (n - 1) - 0."""
    return rs.SimpleGraph.from_edges(n, [(v, (v + 1) % n) for v in range(n)])


def permute_colors(c: rs.ColoredCompleteGraph, perm) -> rs.ColoredCompleteGraph:
    """The pattern with class i moved to position perm[i]."""
    classes = [None] * c.r
    for i, cls in enumerate(c.classes):
        classes[perm[i]] = cls
    return rs.ColoredCompleteGraph(tuple(classes))


def relabel_vertices(c: rs.ColoredCompleteGraph, perm) -> rs.ColoredCompleteGraph:
    """The pattern with vertex v renamed to perm[v]."""
    return rs.ColoredCompleteGraph(tuple(
        rs.SimpleGraph.from_edges(c.n, [(perm[u], perm[v]) for u, v in cls.edges()])
        for cls in c.classes))


def all_red(N: int, k: int) -> rs.KSubsetColoring:
    return rs.KSubsetColoring(N, k, 0)


def all_blue(N: int, k: int) -> rs.KSubsetColoring:
    return rs.KSubsetColoring(N, k, (1 << comb(N, k)) - 1)


def random_ksc(N: int, k: int, seed: int) -> rs.KSubsetColoring:
    """The coloring whose bit i is draw i of numpy's
    ``Generator(PCG64(seed)).integers(0, 2, size=C(N, k))``."""
    draws = np.random.Generator(np.random.PCG64(seed)).integers(0, 2, size=comb(N, k))
    packed = np.packbits(draws.astype(np.uint8), bitorder="little")
    return rs.KSubsetColoring(N, k, int.from_bytes(packed.tobytes(), "little"))


def color_of(chi: rs.KSubsetColoring, subset) -> int:
    """The colour (0 red, 1 blue) of a k-subset: the bit at its colex rank."""
    return (chi.bits >> rs.subset_rank(tuple(sorted(subset)))) & 1


def naive_find_clique(g: rs.SimpleGraph, m: int):
    """First m-subset in lexicographic order inducing a complete subgraph."""
    for cand in combinations(range(g.n), m):
        if all(g.has_edge(u, v) for u, v in combinations(cand, 2)):
            return cand
    return None


def naive_max_independent_size(g: rs.SimpleGraph) -> int:
    for m in range(g.n, 0, -1):
        if naive_find_clique(g.complement, m) is not None:
            return m
    return 0


def is_increasing_tuple(x) -> bool:
    """Whether x is a tuple of strictly increasing ints, as vertex sets are returned."""
    return type(x) is tuple and all(a < b for a, b in zip(x, x[1:]))


def is_clique(g: rs.SimpleGraph, vertices) -> bool:
    return all(g.has_edge(u, v) for u, v in combinations(tuple(vertices), 2))


def is_independent(g: rs.SimpleGraph, vertices) -> bool:
    return all(not g.has_edge(u, v) for u, v in combinations(tuple(vertices), 2))


def observation_fails_at(c: rs.ColoredCompleteGraph, k: int, color: int, vertices) -> bool:
    """Confirm an observation witness: class ``color`` (1-based) has no K_{k-1} on the set."""
    cls = c.classes[color - 1]
    return not any(is_clique(cls, S) for S in combinations(sorted(vertices), k - 1))


def all_graphs(n: int):
    """Every graph on n vertices, by ascending colex edge bitmask."""
    for mask in range(1 << comb(n, 2)):
        yield rs.graph_from_edge_mask(n, mask)


def induced(g: rs.SimpleGraph, U) -> rs.SimpleGraph:
    """The subgraph of g induced on the vertex tuple U, relabelled 0 .. len(U) - 1."""
    return rs.SimpleGraph.from_edges(
        len(U), [(i, j) for i, j in combinations(range(len(U)), 2) if g.has_edge(U[i], U[j])])


@lru_cache(maxsize=None)
def _naive_g_level(N: int, n: int, s: int, t: int):
    """(first counterexample graph on N vertices or None, graphs examined)."""
    full = (1 << comb(N, 2)) - 1
    examined = 0
    for mask, g in enumerate(all_graphs(N)):
        if s == t and mask > full ^ mask:
            continue  # the complement was examined first and answers the same
        examined += 1
        subgraphs = [induced(g, U) for U in combinations(range(N), n)]
        if all(naive_find_clique(h, s) is not None
               and naive_find_clique(h.complement, t) is not None for h in subgraphs):
            return g, examined
    return None, examined


@lru_cache(maxsize=None)
def _naive_f_level(N: int, n: int, s: int, t: int, k: int):
    """(first colouring of the k-subsets of [N] with no good n-set or None, colourings examined)."""
    ksets = list(combinations(range(N), k))  # lexicographic; a colouring's bit is the colex rank
    supersets = {S: [K for K in ksets if set(S) <= set(K)]
                 for m in (s, t) for S in combinations(range(N), m)}
    for bits in range(1 << len(ksets)):
        chi = rs.KSubsetColoring(N, k, bits)

        def lies_in(S, color):
            return any(color_of(chi, K) == color for K in supersets[S])

        if not any(all(lies_in(S, 0) for S in combinations(U, s))
                   or all(lies_in(T, 1) for T in combinations(U, t))
                   for U in combinations(range(N), n)):
            return chi, bits + 1
    return None, 1 << len(ksets)


def _naive_levels(n: int, n_max: int, level):
    checked, witness = 0, None
    for N in range(max(1, n - 1), n_max + 1):
        counterexample, examined = level(N)
        checked += examined
        if counterexample is None:
            return N, witness, checked
        witness = counterexample
    return None, witness, checked


def naive_g_oracle(n: int, s: int, t: int, n_max: int):
    """(value, witness, checked) of ``g_oracle`` from the definition: every graph on N
    vertices by ascending edge mask, the larger of each complement pair skipped when
    s = t, each n-set's induced subgraph asked for a K_s and an independent t-set."""
    return _naive_levels(n, n_max, lambda N: _naive_g_level(N, n, s, t))


def naive_f_oracle(n: int, s: int, t: int, k: int, n_max: int):
    """(value, witness, checked) of ``f_oracle`` from the definition: every colouring
    by ascending bits, each n-set U tested for every s-set of U in a red k-set or
    every t-set of U in a blue one."""
    return _naive_levels(n, n_max, lambda N: _naive_f_level(N, n, s, t, k))


def pattern_from_colors(n: int, r: int, colors) -> rs.ColoredCompleteGraph:
    """Complete pattern from a color (0-based) per colex-ordered pair."""
    rows = [[0] * n for _ in range(r)]
    for rank, c in enumerate(colors):
        u, v = rs.subset_unrank(rank, 2)
        rows[c][u] |= 1 << v
        rows[c][v] |= 1 << u
    classes = tuple(rs.SimpleGraph(n, tuple(rw)) for rw in rows)
    return rs.ColoredCompleteGraph(classes)


def all_patterns(n: int, r: int):
    for colors in product(range(r), repeat=comb(n, 2)):
        yield pattern_from_colors(n, r, colors)


@pytest.fixture
def no_worker_processes(monkeypatch):
    """Fail the test if it tries to start a worker process pool."""

    def refuse(*args, **kwargs):
        raise AssertionError("no worker process may start")

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", refuse)


@pytest.fixture
def c4_diagonals() -> rs.ColoredCompleteGraph:
    """The 4-cycle / diagonals 2-coloring of K_4."""
    c4 = rs.SimpleGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    diag = rs.SimpleGraph.from_edges(4, [(0, 2), (1, 3)])
    return rs.ColoredCompleteGraph((c4, diag))
