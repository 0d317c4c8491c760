"""Semisaturated and saturated pattern checkers, bounds, and exhaustive search.

A complete r-edge-colored K_n is (r, K_k)-semisaturated when every way of
extending it by new vertices with colored edges creates a new monochromatic
K_k.  One added vertex suffices to decide this: a multi-vertex extension
contains the state right after its first added vertex, and the
monochromatic K_k created there (through that vertex) persists, since later
steps never remove vertices, edges, or colors.  An extension by one vertex
is just an assignment chi of a color to each edge toward the old vertices,
and it creates a monochromatic K_k exactly when some color class i contains
a K_{k-1} inside chi^{-1}(i).  So the pattern is semisaturated iff no
"escaping" assignment exists — the finite check implemented here twice:

* ``is_semisaturated`` decides it by a backtracking search over assignments
  that prunes a branch as soon as some class receives a K_{k-1} (any
  completion of such a branch is non-escaping);

* ``is_semisaturated_direct`` literally enumerates all r^n assignments and
  exists solely as an independent oracle for the first.

``check_observation`` tests the stronger sufficient condition that every
subset of ceil(n/r) vertices spans a K_{k-1} in each class, with n and r
the pattern's own; a new vertex has at least ceil(n/r) same-colored edges
by pigeonhole, so this implies semisaturation.  (ceil, rather than exact
n/r, keeps the implication sound when r does not divide n.)  Each class
is one ``graphs.scan_colex`` call, exact or sampled.

(r, K_k)-saturated additionally requires every class to be K_k-free right
now, which ``check_kkfree`` decides.  ``ssat_search`` hunts for the
smallest semisaturated patterns by backtracking over edge colorings; its
doom check is the backtracking of ``is_semisaturated`` run on an
optimistic completion.  Both run ``_escape_search``, which extends a
seeded partial coloring vertex by vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Optional

from .constructions import ColoredCompleteGraph, seeded_rng
from .errors import BudgetError
from .graphs import (
    THREAD_CAP,
    SimpleGraph,
    exact_space,
    find_clique_mask,
    iter_bits,
    iter_subsets_colex,
    mask_of,
    scan_colex,
)

EXACT_COLORING_CAP = 10**9
OBSERVATION_SUBSET_CAP = 10**8


@dataclass(frozen=True)
class Verdict:
    """Outcome of a decision procedure.

    ``checked`` counts the units the procedure decided (documented per
    function).  ``exhaustive`` is False when only a sample of the space was
    covered; a failing witness is self-certifying either way, but a sampled
    "holds" is evidence, not a verified claim.
    """

    holds: bool
    witness: Optional[dict]
    checked: int
    exhaustive: bool = True

    def __post_init__(self):
        if not self.holds and self.witness is None:
            raise ValueError("failing verdicts must carry a witness")


@dataclass(frozen=True)
class SsatSearchResult:
    """Three-valued search outcome: found / exhausted / budget."""

    status: str  # "found" | "exhausted" | "budget"
    pattern: Optional[ColoredCompleteGraph]
    nodes: int


def _require_complete(c: ColoredCompleteGraph):
    if not c.complete:
        raise ValueError("this check needs a complete pattern")
    if c.r < 2:
        raise ValueError("need at least two colors")


def coloring_escapes(c: ColoredCompleteGraph, k: int, colors) -> bool:
    """True when the vertex coloring creates no monochromatic K_k.

    ``colors`` assigns each old vertex the color (1-based) of its edge to a
    hypothetical new vertex; the extension creates a new monochromatic K_k
    iff some class i has a K_{k-1} inside the vertices colored i.
    """
    colors = list(colors)
    if len(colors) != c.n:
        raise ValueError("need one color per vertex")
    masks = [0] * c.r
    for v, col in enumerate(colors):
        if not 1 <= col <= c.r:
            raise ValueError(f"color {col} outside [1, {c.r}]")
        masks[col - 1] |= 1 << v
    return all(
        find_clique_mask(c.classes[i].rows, masks[i], k - 1) is None for i in range(c.r)
    )


def is_semisaturated(
    c: ColoredCompleteGraph,
    k: int,
    samples: Optional[int] = None,
    seed: Optional[int] = None,
) -> Verdict:
    """Decide whether the pattern is (r, K_k)-semisaturated.

    Exact mode (the default) backtracks over single-vertex extensions in
    lexicographic order — vertices by index, colors ascending — pruning any
    branch in which a class has already gained a K_{k-1}; a branch that
    reaches depth n is an escaping assignment and the lexicographically
    smallest one is returned as the witness.  ``checked`` counts search
    nodes.  Requires r^n <= 10^9; beyond that pass ``samples`` to test
    seeded uniform assignments instead (holds becomes evidence-only).
    """
    _require_complete(c)
    if k < 3:
        raise ValueError("need k >= 3")
    if samples is not None and samples < 1:
        raise ValueError(f"need samples >= 1, got {samples}")
    n, r = c.n, c.r
    if samples is not None:
        rng = seeded_rng(seed)
        for trial in range(samples):
            colors = [int(x) + 1 for x in rng.integers(0, r, size=n)]
            if coloring_escapes(c, k, colors):
                return Verdict(
                    holds=False,
                    witness={"kind": "escaping-coloring", "colors": colors},
                    checked=trial + 1,
                    exhaustive=False,
                )
        return Verdict(holds=True, witness=None, checked=samples, exhaustive=False)
    if r**n > EXACT_COLORING_CAP:
        raise BudgetError(
            f"{r}^{n} assignments exceed cap {EXACT_COLORING_CAP}; use samples="
        )
    masks = [0] * r
    escaped, nodes = _escape_search([cls.rows for cls in c.classes], range(n), k, masks)
    if escaped:
        colors = [next(i + 1 for i in range(r) if masks[i] >> v & 1) for v in range(n)]
        return Verdict(
            holds=False,
            witness={"kind": "escaping-coloring", "colors": colors},
            checked=nodes,
        )
    return Verdict(holds=True, witness=None, checked=nodes)


def _escape_search(rows_per_class, order, k: int, masks: list[int]) -> tuple[bool, int]:
    """Extend the seeded coloring ``masks`` to the vertices of ``order`` so no class has a K_{k-1}.

    Class i of the coloring is the bit mask ``masks[i]``; the seeds must
    hold no K_{k-1} in their classes.  The vertices of ``order`` go in that
    order, each trying the colors ascending, so the first escaping
    extension found is the lexicographically smallest in that order.  The
    search extends ``masks`` in place and, on success, leaves it holding
    the escaping coloring.  Returns ``(escaped, nodes)``, where nodes counts
    the colors tried.
    """
    r = len(rows_per_class)
    target = k - 2  # a K_{k-1} through x = a K_{k-2} in its class neighbourhood
    depth = len(order)
    colors = range(r)
    nodes = 0

    def esc(d: int) -> bool:
        nonlocal nodes
        if d == depth:
            return True
        x = order[d]
        bit = 1 << x
        for i in colors:
            nodes += 1
            rows = rows_per_class[i]
            neigh = rows[x] & masks[i]
            created = (neigh != 0) if target == 1 else (
                find_clique_mask(rows, neigh, target) is not None
            )
            if not created:
                masks[i] |= bit
                if esc(d + 1):
                    return True
                masks[i] ^= bit
        return False

    return esc(0), nodes


def is_semisaturated_direct(c: ColoredCompleteGraph, k: int) -> Verdict:
    """Literal single-vertex-extension enumeration; the oracle for the above.

    Walks all r^n edge-color assignments to the new vertex in lexicographic
    order and asks ``coloring_escapes`` of each; it never backtracks.
    ``checked`` counts assignments examined.
    """
    _require_complete(c)
    if k < 3:
        raise ValueError("need k >= 3")
    n, r = c.n, c.r
    if r**n > EXACT_COLORING_CAP:
        raise BudgetError(f"{r}^{n} assignments exceed cap {EXACT_COLORING_CAP}")
    checked = 0
    for checked, colors in enumerate(product(range(1, r + 1), repeat=n), 1):
        if coloring_escapes(c, k, colors):
            return Verdict(
                holds=False,
                witness={"kind": "escaping-coloring", "colors": list(colors)},
                checked=checked,
            )
    return Verdict(holds=True, witness=None, checked=checked)


def check_observation(
    c: ColoredCompleteGraph,
    k: int,
    *,
    threads: int = 1,
    samples: Optional[int] = None,
    seed: Optional[int] = None,
) -> Verdict:
    """Sufficient condition: every ceil(n/r)-subset spans a K_{k-1} in each class.

    n and r are the pattern's own (it may be partial: classes only need to
    be edge-disjoint).  Each class is one ``scan_colex`` call: exact
    (n <= 64, C(n, ceil(n/r)) <= 10^8) or of ``samples`` seeded draws per
    class, with no such cap.  Each stops at its first failure, so it runs
    in this process for every ``threads``, which is still checked (and
    refused above 1 with ``samples``).  On failure the witness is the first
    failing (color, subset) pair.  ``checked`` counts the subsets decided,
    up to the failure; an exact scan passes whole colex blocks at once.
    """
    if c.r < 2:
        raise ValueError("need at least two colors")
    if k < 3:
        raise ValueError("need k >= 3")
    if not 1 <= threads <= THREAD_CAP:
        raise ValueError(f"need 1 <= threads <= {THREAD_CAP}, got {threads}")
    n = c.n
    m = -(-n // c.r)  # ceil(n/r)
    exhaustive = samples is None
    if exhaustive:
        space = exact_space(n, m)
        if space > OBSERVATION_SUBSET_CAP:
            raise BudgetError(
                f"C({n},{m}) = {space} exceeds cap {OBSERVATION_SUBSET_CAP}; use samples="
            )
    rng = None if exhaustive else seeded_rng(seed)
    checked = 0
    for i, cls in enumerate(c.classes):
        scanned, _, fail = scan_colex(((cls.rows, k - 1),), n, m, threads, True, samples, rng)
        checked += scanned
        if fail is not None:
            witness = {"kind": "clique-free-subset", "color": i + 1,
                       "vertices": list(iter_bits(fail))}
            return Verdict(False, witness, checked, exhaustive)
    return Verdict(True, None, checked, exhaustive)


def observation_fails_at(
    c: ColoredCompleteGraph, k: int, color: int, vertices
) -> bool:
    """Confirm an observation witness: class ``color`` has no K_{k-1} on the set."""
    return find_clique_mask(c.classes[color - 1].rows, mask_of(vertices), k - 1) is None


def check_kkfree(c: ColoredCompleteGraph, k: int) -> Verdict:
    """Whether no color class contains a K_k (k >= 3).

    Classes are searched in order; a failing verdict carries the
    lexicographically smallest K_k of the first class holding one.
    ``checked`` counts the classes searched.
    """
    if k < 3:
        raise ValueError("need k >= 3")
    full = (1 << c.n) - 1
    for i, cls in enumerate(c.classes):
        clique = find_clique_mask(cls.rows, full, k)
        if clique is not None:
            return Verdict(
                holds=False,
                witness={
                    "kind": "monochromatic-clique",
                    "color": i + 1,
                    "vertices": list(iter_bits(clique)),
                },
                checked=i + 1,
            )
    return Verdict(holds=True, witness=None, checked=c.r)


def is_saturated(c: ColoredCompleteGraph, k: int) -> Verdict:
    """K_k-free in every class and semisaturated."""
    _require_complete(c)
    free = check_kkfree(c, k)
    if not free.holds:
        return free
    semi = is_semisaturated(c, k)
    return Verdict(
        holds=semi.holds,
        witness=semi.witness,
        checked=semi.checked + c.r,
        exhaustive=semi.exhaustive,
    )


def ssat_lower_bound_formula(r: int, k: int) -> int:
    """(r-1)k^2 - (3r-4)k + (2r-3); tight for r = 2, where it equals (k-1)^2."""
    if r < 2 or k < 2:
        raise ValueError("need r >= 2 and k >= 2")
    return (r - 1) * k * k - (3 * r - 4) * k + (2 * r - 3)


def ssat_recursion_floor(r: int, k: int) -> int:
    """max(ceil(sum_{i=2..r} i / 2), ceil(r^2 / 4)).

    The first term unrolls the recursion "removing a large independent set
    of the sparsest class costs at least r/2 vertices per color"; the
    second is its closed-form floor.
    """
    if r < 2:
        raise ValueError("need r >= 2")
    if k < 3:
        raise ValueError("need k >= 3")
    total = sum(range(2, r + 1))
    return max(-(-total // 2), -(-(r * r) // 4))


def ssat_upper_bound_reference(r: int, k: int) -> int:
    """(k-1)^r, the classical upper bound on ssat_r(K_k).

    Together with lower bounds it brackets the open small cases, e.g.
    7 <= ssat_3(K_3) <= 8: ``ssat_search`` exhausts every n <= 6, one more
    than ``ssat_lower_bound_formula(3, 3)`` = 6 gives.  It exhausts n = 7
    as well, but the bracket closes at 8 only when a second route agrees.
    """
    if r < 2 or k < 2:
        raise ValueError("need r >= 2 and k >= 2")
    return (k - 1) ** r


class _BudgetHit(Exception):
    pass


def ssat_search(
    r: int, k: int, n: int, node_budget: Optional[int] = None
) -> SsatSearchResult:
    """Search for an (r, K_k)-semisaturated complete pattern on n vertices.

    Edges are colored one at a time in colex pair order.  Color symmetry is
    broken by restricted growth: the first edge takes color 1 and a new
    color may appear only after all smaller ones (every pattern is a color
    permutation of an enumerated one, so the search is exhaustive up to
    that symmetry).  A partial pattern is pruned when some vertex coloring
    escapes even against the optimistic completion in which every
    still-uncolored pair counts for every class — such a coloring escapes
    any true completion.  At full depth the optimistic check is the exact
    one, so reaching it yields a semisaturated witness.

    The search keeps only the optimistic graphs: ``opt[i]`` is class i plus
    every uncolored pair.  Coloring {u, v} with color c removes the pair
    from every class but c, so along a branch these graphs only lose edges;
    at full depth nothing is uncolored and ``opt`` is the pattern itself.

    Only the root runs the full escape search.  A child is searched only
    when its parent's doom check found no escaping coloring, and a coloring
    that puts u and v in different classes, or both in class c, meets every
    class of child c exactly as it met that class at the parent.  So child
    c is doomed exactly when E_j holds for some j != c: some escaping
    coloring puts u and v both in class j.  E_j is ``_escape_search``
    seeded with ``masks[j] = {u, v}``.  That seed holds no K_{k-1}, since
    k >= 3 and uv is absent from class j on every child but j.  The other
    vertices go from n - 1 down to 0: the high vertices hold the uncolored
    pairs, which count for every class, so they fail first.  E_j reads only
    class j's copy of uv, so it is the same on every child but j.  Child c
    tries E_j in ascending j != c and stops at the first that holds, and
    each value run is kept for the later siblings, so a parent runs each
    E_j at most once.  Node counts and patterns are those of the full check
    at every node.

    Returns found / exhausted / budget; ``nodes`` counts search nodes.
    """
    if not 2 <= r <= 8:
        raise ValueError(f"color count {r} outside [2, 8]")
    if not 3 <= k <= 8:
        raise ValueError(f"clique size {k} outside [3, 8]")
    if n < 1:
        raise ValueError("need n >= 1")
    if n > 32:
        raise ValueError("search capped at 32 vertices")
    if node_budget is not None and node_budget < 1:
        raise ValueError(f"need node budget >= 1, got {node_budget}")
    pairs = list(iter_subsets_colex(n, 2))
    others = [tuple(x for x in range(n - 1, -1, -1) if x != u and x != v) for u, v in pairs]
    opt = [[((1 << n) - 1) & ~(1 << x) for x in range(n)] for _ in range(r)]
    nodes = 0

    def flip(u: int, v: int, color: int) -> None:
        """Toggle {u, v} in every class but ``color``: color the pair, or undo that."""
        for i in range(r):
            if i != color:
                opt[i][u] ^= 1 << v
                opt[i][v] ^= 1 << u

    def visit() -> None:
        nonlocal nodes
        nodes += 1
        if node_budget is not None and nodes > node_budget:
            raise _BudgetHit

    def dfs(d: int, used: int) -> Optional[ColoredCompleteGraph]:
        """Search below a node at depth ``d`` that passed its doom check."""
        if d == len(pairs):
            return ColoredCompleteGraph(tuple(SimpleGraph(n, tuple(rows)) for rows in opt))
        u, v = pairs[d]
        escapes: list[Optional[bool]] = [None] * r  # E_j, run on the first child needing it
        for color in range(min(used + 1, r)):
            visit()
            flip(u, v, color)
            for j in range(r):
                if j != color:
                    if escapes[j] is None:
                        masks = [0] * r
                        masks[j] = 1 << u | 1 << v
                        escapes[j] = _escape_search(opt, others[d], k, masks)[0]
                    if escapes[j]:
                        break
            else:
                res = dfs(d + 1, max(used, color + 1))
                if res is not None:
                    return res
            flip(u, v, color)
        return None

    try:
        visit()
        pattern = None if _escape_search(opt, range(n), k, [0] * r)[0] else dfs(0, 0)
    except _BudgetHit:
        return SsatSearchResult("budget", None, nodes)
    if pattern is None:
        return SsatSearchResult("exhausted", None, nodes)
    return SsatSearchResult("found", pattern, nodes)
