"""Shared fixtures and deliberately naive oracles.

The oracles here re-derive answers straight from definitions with
itertools, independently of the library's bitset search paths, so the two
routes can disagree loudly in tests.
"""

import os
from itertools import combinations, product
from math import comb
from pathlib import Path

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


def all_graphs(n: int):
    """Every graph on n vertices, by ascending colex edge bitmask."""
    for mask in range(1 << comb(n, 2)):
        yield rs.graph_from_edge_mask(n, mask)


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
