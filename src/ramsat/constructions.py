"""Explicit edge colorings and random-graph experiment objects.

The colorings are color patterns (``graphs.ColoredCompleteGraph``).  Two
deterministic constructions live here:

* ``affine_coloring`` — vertices are the q^2 points of AG(2, q); each line
  is assigned to one of r families and color i connects exactly the pairs
  covered by a family-i line.  Since two points share exactly one line this
  always yields a complete coloring.

* ``fq3_coloring`` — vertices are the q^3 points of F_q^3; it completes
  ``fq3_core``, the partial pattern whose color i joins the pairs covered
  by the slope family with parameter i-1, by handing the pairs left over
  (directions with first coordinate 0, or families beyond r) out
  round-robin.

Both import ``geometry`` when called, so a command that only reads
patterns never loads it; no other library module imports this one.  Draws
come from ``graphs.seeded_rng``, in the pair order each function documents.
"""

from __future__ import annotations

import math
from itertools import combinations, compress
from math import comb

from .errors import BudgetError
from .graphs import (
    THREAD_CAP,
    VERTEX_CAP,
    ColoredCompleteGraph,
    SimpleGraph,
    Value,
    balance_tests,
    exact_space,
    mask_of,
    scan_colex,
    seeded_rng,
)

EXACT_SUBSET_BUDGET = 10**7

PARALLEL_BALANCED = "parallel-balanced"
ROUND_ROBIN = "round-robin"


class GnpParams(Value):
    """Parameters of a seeded Erdős–Rényi sample."""

    _fields = ("N", "p", "seed")

    def __init__(self, N: int, p: float, seed: int):
        if not 0 <= N <= VERTEX_CAP:
            raise ValueError(f"vertex count {N} outside [0, {VERTEX_CAP}]")
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"edge probability {p} outside [0, 1]")
        self.__dict__.update(N=N, p=p, seed=seed)


class BadSetCount(Value):
    """Result of ``count_bad_sets``: an exact count or an unbiased estimate.

    ``mode`` is "exact" or "sampled"; ``value`` the exact integer count or
    the estimate; ``checked`` the subsets examined, ``space`` C(N, n) and
    ``hits`` the bad subsets among those examined.
    """

    _fields = ("mode", "value", "checked", "space", "hits")

    def __init__(self, mode: str, value: float, checked: int, space: int, hits: int):
        self.__dict__.update(mode=mode, value=value, checked=checked, space=space, hits=hits)


def _lines_to_class_graphs(
    n: int, line_points, assignment: list[int], r: int
) -> tuple[SimpleGraph, ...]:
    """Class graphs of a line coloring: class i joins the pairs on its lines."""
    rows = [[0] * n for _ in range(r)]
    for idx, color in enumerate(assignment):
        pts = line_points[idx]
        lmask = mask_of(pts)
        for p in pts:
            rows[color][p] |= lmask & ~(1 << p)
    return tuple(SimpleGraph(n, tuple(rs)) for rs in rows)


def affine_coloring(
    q: int, r: int, strategy: str = PARALLEL_BALANCED, seed: int | None = None
) -> ColoredCompleteGraph:
    """Complete r-coloring of K_{q^2} from a line partition of AG(2, q).

    ``parallel-balanced`` deals whole parallel classes to colors
    round-robin (class j -> color j mod r; exact balance when r divides
    q+1); it is deterministic and ignores ``seed``.  ``round-robin``
    shuffles the fixed line order with the seeded generator and then deals
    single lines cyclically, so family sizes differ by at most one.
    """
    from .geometry import build_affine_plane, parallel_classes

    plane = build_affine_plane(q)
    line_count = len(plane.lines)
    if strategy == PARALLEL_BALANCED:
        if not 1 <= r <= q + 1:
            raise ValueError(f"parallel-balanced needs r <= q+1, got r={r}")
        assignment = [0] * line_count
        for j, cls_lines in enumerate(parallel_classes(plane)):
            for idx in cls_lines:
                assignment[idx] = j % r
    elif strategy == ROUND_ROBIN:
        if not 1 <= r <= line_count:
            raise ValueError(f"round-robin needs r <= q^2+q, got r={r}")
        order = seeded_rng(seed).permutation(line_count)
        assignment = [0] * line_count
        for pos, idx in enumerate(order):
            assignment[idx] = pos % r
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    classes = _lines_to_class_graphs(plane.point_count, plane.lines, assignment, r)
    return ColoredCompleteGraph(classes)


def fq3_core(q: int, r: int) -> ColoredCompleteGraph:
    """Partial r-coloring of K_{q^3} by slope families.

    Class i holds the pairs covered by the family with parameter i; the
    families are pairwise edge-disjoint, so the classes are too.
    """
    from .geometry import fq3_line_family, require_prime

    require_prime(q)
    if not 1 <= r <= q:
        raise ValueError(f"need 1 <= r <= q, got r={r}")
    lines: list[tuple[int, ...]] = []
    assignment: list[int] = []
    for lam in range(r):
        fam = fq3_line_family(q, lam)
        lines.extend(fam.lines)
        assignment.extend([lam] * len(fam.lines))
    return ColoredCompleteGraph(_lines_to_class_graphs(q**3, lines, assignment, r))


def fq3_coloring(q: int, r: int) -> ColoredCompleteGraph:
    """Complete r-coloring of K_{q^3}: ``fq3_core(q, r)``, completed.

    Pairs covered by none of the first r families are handed out
    round-robin by ascending (u, v), which only ever adds edges to a class
    and therefore preserves every clique the core already had.
    """
    core = fq3_core(q, r)
    n = core.n
    full_rows = [list(cls.rows) for cls in core.classes]
    covered = [0] * n
    for cls in core.classes:
        for v in range(n):
            covered[v] |= cls.rows[v]
    counter = 0
    for u in range(n):
        for v in range(u + 1, n):
            if (covered[u] >> v) & 1:
                continue
            c = counter % r
            counter += 1
            full_rows[c][u] |= 1 << v
            full_rows[c][v] |= 1 << u
    return ColoredCompleteGraph(tuple(SimpleGraph(n, tuple(rs)) for rs in full_rows))


def lower_bound_p(s: int, t: int) -> float:
    """(s / (2et)) * log2(2et / s), clamped to [0, 1].

    The edge density at which a random graph is expected to avoid both
    small cliques and small independent sets on moderate vertex subsets.
    """
    if not 2 <= s <= t:
        raise ValueError(f"need 2 <= s <= t, got s={s}, t={t}")
    x = 2.0 * math.e * t / s
    p = math.log2(x) / x
    return min(1.0, max(0.0, p))


def sample_gnp(params: GnpParams) -> SimpleGraph:
    """Seeded G(N, p) sample.

    Pairs are enumerated (0,1), (0,2), ..., (N-2,N-1) in lexicographic
    order; one uniform variate is drawn per pair from ``seeded_rng(seed)``
    and the pair becomes an edge when the variate is < p.  Same seed, same
    graph.
    """
    n = params.N
    p = params.p
    draws = seeded_rng(params.seed).random(comb(n, 2))
    return SimpleGraph.from_edges(n, compress(combinations(range(n), 2), [x < p for x in draws]))


def random_complete_pattern(n: int, r: int, seed: int) -> ColoredCompleteGraph:
    """Uniform random complete r-coloring of K_n (one ``seeded_rng`` draw per pair)."""
    colors = seeded_rng(seed).integers(0, r, size=comb(n, 2))
    edges = [[] for _ in range(r)]
    for e, c in zip(combinations(range(n), 2), colors):
        edges[c].append(e)
    return ColoredCompleteGraph(tuple(SimpleGraph.from_edges(n, es) for es in edges))


def count_bad_sets(
    g: SimpleGraph,
    n: int,
    s: int,
    t: int,
    trials: int | None = None,
    seed: int | None = None,
    threads: int = 1,
) -> BadSetCount:
    """Count n-subsets whose induced subgraph misses K_s or misses I_t.

    One ``scan_colex`` call.  With ``trials`` None the count is exact: all
    C(N, n) subsets in colex order (budget 10^7, N <= 64), sharded over up
    to ``threads`` processes, with the same count for every ``threads``.
    Otherwise ``trials`` uniform n-subsets drawn with the generator seeded
    by ``seed`` are decided in this process (``threads`` must be 1), and the
    hit fraction scaled by C(N, n) is an unbiased estimate of the exact
    count.
    """
    N = g.n
    if not 0 < n <= N:
        raise ValueError(f"subset size {n} outside [1, {N}]")
    if s < 2 or t < 2:
        raise ValueError("need s, t >= 2")
    if not 1 <= threads <= THREAD_CAP:
        raise ValueError(f"need 1 <= threads <= {THREAD_CAP}, got {threads}")
    tests = balance_tests(g, s, t)
    if trials is None:
        space = exact_space(N, n)
        if space > EXACT_SUBSET_BUDGET:
            raise BudgetError(
                f"C({N},{n}) = {space} exceeds exact budget {EXACT_SUBSET_BUDGET}"
            )
        hits = scan_colex(tests, N, n, threads, False)[1]
        return BadSetCount("exact", float(hits), space, space, hits)
    hits = scan_colex(tests, N, n, threads, False, trials, seeded_rng(seed))[1]
    space = comb(N, n)
    return BadSetCount("sampled", space * hits / trials, trials, space, hits)
