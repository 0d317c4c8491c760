"""Explicit edge colorings and random-graph experiment objects.

A color pattern is a family of pairwise edge-disjoint graphs G_1..G_r on a
common vertex set; when the union covers every pair it is an r-edge-coloring
of the complete graph.  The classes are the whole pattern: its vertex
count, color count and completeness are read off them.  Two deterministic
constructions live here:

* ``affine_coloring`` — vertices are the q^2 points of AG(2, q); each line
  is assigned to one of r families and color i connects exactly the pairs
  covered by a family-i line.  Since two points share exactly one line this
  always yields a complete coloring.

* ``fq3_coloring`` — vertices are the q^3 points of F_q^3; color i's core
  edges are the pairs covered by the slope family with parameter i-1.
  Pairs left over (directions with first coordinate 0, or families beyond
  r) are completed round-robin; the untouched core pattern stays available
  on the result for inspection.

Randomness is always explicit: every random draw in the package comes from
``seeded_rng``, numpy's permuted congruential generator (``GENERATOR_NAME``)
seeded with a caller-supplied 64-bit seed, None refused.  Pair ordering is
documented per function, so a given seed reproduces the same object within
this implementation.
Cross-implementation bit-reproducibility is not promised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from math import comb
from typing import Optional

from .errors import BudgetError
from .geometry import build_affine_plane, fq3_line_family, parallel_classes, PrimeField
from .graphs import (
    ENUMERATION_CAP,
    THREAD_CAP,
    VERTEX_CAP,
    SimpleGraph,
    balance_tests,
    mask_of,
    scan_colex,
    scan_subsets,
)

GENERATOR_NAME = "numpy-pcg64"
COLOR_CAP = 64
EXACT_SUBSET_BUDGET = 10**7

PARALLEL_BALANCED = "parallel-balanced"
ROUND_ROBIN = "round-robin"


def seeded_rng(seed: Optional[int]) -> "numpy.random.Generator":
    """The ``GENERATOR_NAME`` generator seeded with ``seed``; None is refused.

    numpy is imported here, on first use, so commands that draw nothing
    never load it.
    """
    if seed is None:
        raise ValueError("randomized operation requires an explicit seed")
    import numpy

    return numpy.random.Generator(numpy.random.PCG64(seed))


@dataclass(frozen=True)
class ColoredCompleteGraph:
    """r pairwise edge-disjoint color classes on a common vertex set.

    Built from the classes alone: ``n`` is their vertex count, ``r`` their
    number, and ``complete`` whether they color every pair.  Class index i
    corresponds to color label i+1 in the ``.cg`` text format and in
    witnesses.  ``precompletion`` optionally keeps the partial pattern a
    construction was completed from; it is excluded from equality.
    """

    classes: tuple[SimpleGraph, ...]
    precompletion: Optional["ColoredCompleteGraph"] = field(
        default=None, compare=False, repr=False
    )
    n: int = field(init=False)
    r: int = field(init=False)
    complete: bool = field(init=False)

    def __post_init__(self):
        r = len(self.classes)
        if not 1 <= r <= COLOR_CAP:
            raise ValueError(f"color count {r} outside [1, {COLOR_CAP}]")
        n = self.classes[0].n
        if any(cls.n != n for cls in self.classes):
            raise ValueError("all classes must share the vertex count")
        full = (1 << n) - 1
        complete = True
        for v in range(n):
            used = 0
            for cls in self.classes:
                row = cls.rows[v]
                if used & row:
                    raise ValueError(f"classes overlap at vertex {v}")
                used |= row
            complete = complete and used == full & ~(1 << v)
        for name, value in (("n", n), ("r", r), ("complete", complete)):
            object.__setattr__(self, name, value)

    def color_of(self, u: int, v: int) -> Optional[int]:
        """0-based class index of pair {u, v}, or None if uncolored."""
        for i, cls in enumerate(self.classes):
            if cls.has_edge(u, v):
                return i
        return None

    def colored_pairs(self):
        """Yield (u, v, class index) with u < v, ascending."""
        for u in range(self.n):
            for v in range(u + 1, self.n):
                c = self.color_of(u, v)
                if c is not None:
                    yield u, v, c

    def permute_colors(self, perm) -> "ColoredCompleteGraph":
        """Pattern with class i moved to position perm[i]."""
        perm = list(perm)
        if sorted(perm) != list(range(self.r)):
            raise ValueError("not a permutation of the color classes")
        classes: list[Optional[SimpleGraph]] = [None] * self.r
        for i, cls in enumerate(self.classes):
            classes[perm[i]] = cls
        return ColoredCompleteGraph(tuple(classes))

    def relabel_vertices(self, perm) -> "ColoredCompleteGraph":
        """Pattern with vertex v renamed to perm[v]."""
        perm = list(perm)
        if sorted(perm) != list(range(self.n)):
            raise ValueError("not a permutation of the vertices")
        classes = tuple(
            SimpleGraph.from_edges(
                self.n, [(perm[u], perm[v]) for u, v in cls.edges()]
            )
            for cls in self.classes
        )
        return ColoredCompleteGraph(classes)


@dataclass(frozen=True)
class GnpParams:
    """Parameters of a seeded Erdős–Rényi sample."""

    N: int
    p: float
    seed: int

    def __post_init__(self):
        if not 0 <= self.N <= VERTEX_CAP:
            raise ValueError(f"vertex count {self.N} outside [0, {VERTEX_CAP}]")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"edge probability {self.p} outside [0, 1]")


@dataclass(frozen=True)
class BadSetCount:
    """Result of ``count_bad_sets``: an exact count or an unbiased estimate."""

    mode: str  # "exact" | "sampled"
    value: float  # exact integer count, or the estimate
    checked: int  # subsets examined
    space: int  # C(N, n)
    hits: int  # bad subsets among those examined


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
    q: int, r: int, strategy: str = PARALLEL_BALANCED, seed: Optional[int] = None
) -> ColoredCompleteGraph:
    """Complete r-coloring of K_{q^2} from a line partition of AG(2, q).

    ``parallel-balanced`` deals whole parallel classes to colors
    round-robin (class j -> color j mod r; exact balance when r divides
    q+1); it is deterministic and ignores ``seed``.  ``round-robin``
    shuffles the fixed line order with the seeded generator and then deals
    single lines cyclically, so family sizes differ by at most one.
    """
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
            assignment[int(idx)] = pos % r
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    classes = _lines_to_class_graphs(plane.point_count, plane.lines, assignment, r)
    return ColoredCompleteGraph(classes)


def fq3_coloring(q: int, r: int) -> ColoredCompleteGraph:
    """Complete r-coloring of K_{q^3} grown from r slope families.

    Core class i holds the pairs covered by the family with parameter i;
    the families are pairwise edge-disjoint, so the cores form a partial
    pattern (exposed as ``.precompletion``).  Pairs covered by none of the
    first r families are handed out round-robin by ascending (u, v), which
    only ever adds edges to a class and therefore preserves every clique
    the core already had.
    """
    PrimeField(q)
    if not 1 <= r <= q:
        raise ValueError(f"need 1 <= r <= q, got r={r}")
    n = q**3
    lines: list[tuple[int, ...]] = []
    assignment: list[int] = []
    for lam in range(r):
        fam = fq3_line_family(q, lam)
        lines.extend(fam.lines)
        assignment.extend([lam] * len(fam.lines))
    core_classes = _lines_to_class_graphs(n, lines, assignment, r)
    core = ColoredCompleteGraph(core_classes)
    full_rows = [list(cls.rows) for cls in core_classes]
    covered = [0] * n
    for cls in core_classes:
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
    classes = tuple(SimpleGraph(n, tuple(rs)) for rs in full_rows)
    return ColoredCompleteGraph(classes, precompletion=core)


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
    draws = seeded_rng(params.seed).random(comb(n, 2))
    rows = [0] * n
    i = 0
    for u in range(n):
        for v in range(u + 1, n):
            if draws[i] < params.p:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
            i += 1
    return SimpleGraph(n, tuple(rows))


def random_complete_pattern(n: int, r: int, seed: int) -> ColoredCompleteGraph:
    """Uniform random complete r-coloring of K_n (one ``seeded_rng`` draw per pair)."""
    colors = seeded_rng(seed).integers(0, r, size=comb(n, 2))
    rows = [[0] * n for _ in range(r)]
    i = 0
    for u in range(n):
        for v in range(u + 1, n):
            c = int(colors[i])
            i += 1
            rows[c][u] |= 1 << v
            rows[c][v] |= 1 << u
    return ColoredCompleteGraph(tuple(SimpleGraph(n, tuple(rs)) for rs in rows))


def count_bad_sets(
    g: SimpleGraph,
    n: int,
    s: int,
    t: int,
    mode: str = "exact",
    trials: Optional[int] = None,
    seed: Optional[int] = None,
    threads: int = 1,
) -> BadSetCount:
    """Count n-subsets whose induced subgraph misses K_s or misses I_t.

    Exact mode enumerates all C(N, n) subsets in colex order (budget 10^7,
    N <= 64) and may shard the scan across processes; the reduction is a
    sum, so the count is order-independent.  Sampled mode draws ``trials``
    uniform n-subsets with the seeded generator and scales the hit fraction
    by C(N, n), an unbiased estimate of the exact count.
    """
    N = g.n
    if not 0 < n <= N:
        raise ValueError(f"subset size {n} outside [1, {N}]")
    if s < 2 or t < 2:
        raise ValueError("need s, t >= 2")
    if not 1 <= threads <= THREAD_CAP:
        raise ValueError(f"need 1 <= threads <= {THREAD_CAP}, got {threads}")
    space = comb(N, n)
    tests = balance_tests(g, s, t)
    if mode == "exact":
        if N > ENUMERATION_CAP:
            raise ValueError(f"exact mode capped at {ENUMERATION_CAP} vertices")
        if space > EXACT_SUBSET_BUDGET:
            raise BudgetError(
                f"C({N},{n}) = {space} exceeds exact budget {EXACT_SUBSET_BUDGET}"
            )
        hits = scan_colex(tests, N, n, threads, False)[1]
        return BadSetCount("exact", float(hits), space, space, hits)
    if mode == "sampled":
        if trials is None or trials < 1:
            raise ValueError("sampled mode requires a positive trial count")
        rng = seeded_rng(seed)
        hits = 0
        for _ in range(trials):
            x = mask_of(int(v) for v in rng.choice(N, size=n, replace=False))
            hits += scan_subsets(tests, x, x, False)[1]
        estimate = space * hits / trials
        return BadSetCount("sampled", estimate, trials, space, hits)
    raise ValueError(f"unknown mode {mode!r}")
