"""Bitset graphs and the search primitives everything else is built on.

Vertices are 0-indexed.  Adjacency is stored as one Python-int bit row per
vertex, so "is there a clique of size m inside this vertex subset?" needs no
induced-subgraph copies: the search simply intersects candidate masks.
``find_clique_mask`` answers it for m <= 3 with plain loops over bit masks
and for m >= 4 with a depth-first search that prunes with the greedy colour
bound on every candidate set of at least ``COLOR_BOUND_MIN_CANDIDATES``
vertices.

Subsets are ranked in colex order: rank(c_1 < ... < c_k) = sum of
C(c_i, i).  ``scan_subsets`` decides the m-subsets whose rank lies in a
window [lo, hi) by a depth-first walk over descending prefixes: the subsets
that share their top elements form one colex block, an interval of ranks,
so blocks outside the window are skipped by arithmetic, and a block whose
top elements already hold every clique asked for passes whole, without a
visit.  Each open test carries the ``closer_mask`` of its prefix, the
vertices that would close a clique, so adding an element is one bit test
and the last level's failures are one ``bit_count``: an exact scan never
asks ``find_clique_mask`` about a whole subset, except the empty one at
m = 0.  Sampled scans ask it about each drawn subset.
``scan_colex`` scans all C(n, m) ranks or a seeded sample of subsets;
every scan of one graph's subsets in the package runs through these two.
Only a count, which visits every failure, shards its ranks over worker
processes: a scan that stops at its first failure ends sooner than a
process pool starts.  The f and g oracles scan no single graph: they
decide blocks of candidates on bit-planes (see ``ramsat.reduction``).

All types are immutable after construction and every operation is a pure
function, so concurrent use from multiple threads or worker processes is
safe.  Searches are deterministic and return the lexicographically
smallest witness, which keeps certificates reproducible.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property, partial
from math import comb
from typing import Iterator, Optional

# Hard caps.  Exhaustive subset/graph enumeration is only offered up to 64
# vertices; general search works up to 4096.  ``threads`` may be at most
# THREAD_CAP on every machine; a counting scan starts min(threads, usable
# CPUs) worker processes and gives the same answer for any count.
# CLIQUE_DEPTH_CAP keeps the clique search, one recursion per vertex, inside
# Python's recursion limit.
ENUMERATION_CAP = 64
VERTEX_CAP = 4096
THREAD_CAP = 64
CLIQUE_DEPTH_CAP = 512
# The clique search runs the greedy colour bound only on candidate sets of
# at least this many vertices.  Smaller sets, such as the at most n - 1
# vertices of ssat_search's K_4 queries, cost more to colour than to search
# (ssat_search(2, 6, 11) halves without the bound there), while on large
# dense sets the bound is what ends the search: K_11 in the Turan graph
# T(60, 10) takes about 40 s without it.
COLOR_BOUND_MIN_CANDIDATES = 12


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


@dataclass(frozen=True)
class SimpleGraph:
    """Undirected graph on ``n`` vertices with bit-row adjacency.

    ``rows[v]`` is the neighbour mask of vertex v.  The relation is
    symmetric and irreflexive; both are checked at construction.
    """

    n: int
    rows: tuple[int, ...]

    def __post_init__(self):
        if not 0 <= self.n <= VERTEX_CAP:
            raise ValueError(f"vertex count {self.n} outside [0, {VERTEX_CAP}]")
        if len(self.rows) != self.n:
            raise ValueError("need exactly one adjacency row per vertex")
        full = (1 << self.n) - 1
        for v, row in enumerate(self.rows):
            if row & ~full:
                raise ValueError(f"row {v} references vertices >= n")
            if (row >> v) & 1:
                raise ValueError(f"self-loop at vertex {v}")
        # symmetry: check each edge once from the lower endpoint
        for v, row in enumerate(self.rows):
            m = row >> (v + 1)
            base = v + 1
            while m:
                low = m & -m
                u = base + low.bit_length() - 1
                if not (self.rows[u] >> v) & 1:
                    raise ValueError(f"adjacency not symmetric at ({v}, {u})")
                m ^= low

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_edges(cls, n: int, edges) -> "SimpleGraph":
        rows = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop ({u}, {v})")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, tuple(rows))

    @classmethod
    def complete(cls, n: int) -> "SimpleGraph":
        full = (1 << n) - 1
        return cls(n, tuple(full & ~(1 << v) for v in range(n)))

    @classmethod
    def empty(cls, n: int) -> "SimpleGraph":
        return cls(n, (0,) * n)

    @classmethod
    def cycle(cls, n: int) -> "SimpleGraph":
        return cls.from_edges(n, [(v, (v + 1) % n) for v in range(n)])

    # -- basic queries ---------------------------------------------------

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.rows[u] >> v) & 1)

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    @cached_property
    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        for v in range(self.n):
            for u in iter_bits(self.rows[v] >> (v + 1)):
                yield (v, v + 1 + u)

    @cached_property
    def complement(self) -> "SimpleGraph":
        full = self.full_mask
        return SimpleGraph(
            self.n, tuple((full & ~row) & ~(1 << v) for v, row in enumerate(self.rows))
        )


# -- clique search core ---------------------------------------------------


def _color_bound_reaches(rows: tuple[int, ...], cand: int, need: int) -> bool:
    """Greedy-coloring bound: can ``cand`` possibly host a ``need``-clique?

    Vertices sharing a greedy color class are pairwise non-adjacent, so a
    clique takes at most one vertex per class.  Returns True as soon as
    ``need`` classes exist (no prune possible).
    """
    classes: list[int] = []
    m = cand
    while m:
        low = m & -m
        m ^= low
        row = rows[low.bit_length() - 1]
        for i, cls in enumerate(classes):
            if not (cls & row):
                classes[i] = cls | low
                break
        else:
            classes.append(low)
            if len(classes) >= need:
                return True
    return len(classes) >= need


def _triangle_mask(rows: tuple[int, ...], cand: int) -> Optional[int]:
    """Lexicographically smallest triangle inside ``cand``, or None.

    Takes the lowest vertex v, then its lowest later neighbour u, then the
    lowest later common neighbour w: the depth-first order, unrolled.
    """
    while cand:
        low = cand & -cand
        cand ^= low
        nbrs = cand & rows[low.bit_length() - 1]
        while nbrs:
            mid = nbrs & -nbrs
            nbrs ^= mid
            common = nbrs & rows[mid.bit_length() - 1]
            if common:
                return low | mid | (common & -common)
    return None


def _clique_search(rows: tuple[int, ...], cand: int, need: int) -> Optional[int]:
    """``find_clique_mask`` for need >= 4, recursing down to ``_triangle_mask``."""
    size = cand.bit_count()
    if size < need or (
        size >= COLOR_BOUND_MIN_CANDIDATES and not _color_bound_reaches(rows, cand, need)
    ):
        return None
    while cand:
        low = cand & -cand
        cand ^= low
        nxt = cand & rows[low.bit_length() - 1]
        if need == 4:
            res = _triangle_mask(rows, nxt)
        else:
            res = _clique_search(rows, nxt, need - 1)
        if res is not None:
            return res | low
        if cand.bit_count() < need:
            return None
    return None


def find_clique_mask(rows: tuple[int, ...], allowed: int, m: int) -> Optional[int]:
    """Lexicographically smallest m-clique inside ``allowed``, as a bit mask.

    ``rows`` is any bit-row adjacency; vertices outside ``allowed`` are
    ignored, which makes this the induced-subgraph clique test.  Returns
    None when no m-clique exists.  Sizes up to 3 run as plain loops over
    bit masks; from 4 up to ``CLIQUE_DEPTH_CAP`` the search is depth-first
    with the greedy colour bound on every candidate set of at least
    ``COLOR_BOUND_MIN_CANDIDATES`` vertices, ending in the triangle loop.
    A larger m raises ValueError unless that bound answers None at the top
    level, before any recursion.  The subset scan asks it only about the
    drawn subsets of a sampled scan and the empty subset of m = 0; an exact
    scan decides by bit tests on ``closer_mask``.
    """
    if m == 3:
        return _triangle_mask(rows, allowed)
    if m == 2:
        while allowed:
            low = allowed & -allowed
            allowed ^= low
            nbrs = allowed & rows[low.bit_length() - 1]
            if nbrs:
                return low | (nbrs & -nbrs)
        return None
    if m == 1:
        return (allowed & -allowed) or None
    if m == 0:
        return 0
    if m > CLIQUE_DEPTH_CAP and allowed.bit_count() >= m and _color_bound_reaches(rows, allowed, m):
        raise ValueError(f"clique size {m} exceeds cap {CLIQUE_DEPTH_CAP}")  # would recurse past it
    return _clique_search(rows, allowed, m)


def find_clique(g: SimpleGraph, m: int) -> Optional[tuple[int, ...]]:
    """The lexicographically smallest m-clique of ``g``, ascending, or None."""
    if not 1 <= m <= g.n:
        raise ValueError(f"clique size {m} outside [1, {g.n}]")
    mask = find_clique_mask(g.rows, g.full_mask, m)
    return None if mask is None else tuple(iter_bits(mask))


def turan_bound(n: int, edge_count: int) -> int:
    """ceil(n^2 / (n + 2e)): the independence number guaranteed by averaging."""
    d = n + 2 * edge_count
    return -(-(n * n) // d)


def turan_independent_set(g: SimpleGraph) -> tuple[int, ...]:
    """Greedy minimum-degree independent set, ascending.

    Repeatedly takes a live vertex of minimum residual degree (smallest
    index on ties) and discards its neighbourhood.  The result has size at
    least sum_v 1/(d(v)+1), hence at least ``turan_bound(n, e)``.
    """
    if g.n < 1:
        raise ValueError("graph must have at least one vertex")
    alive = g.full_mask
    chosen = 0
    while alive:
        best_v = -1
        best_d = g.n + 1
        m = alive
        while m:
            low = m & -m
            m ^= low
            v = low.bit_length() - 1
            d = (g.rows[v] & alive).bit_count()
            if d < best_d:
                best_d, best_v = d, v
                if d == 0:
                    break
        chosen |= 1 << best_v
        alive &= ~(g.rows[best_v] | (1 << best_v))
    return tuple(iter_bits(chosen))


# -- colex ranking and subset scanning -------------------------------------


def subset_rank(subset) -> int:
    """Colex rank of a sorted k-subset."""
    return sum(comb(c, i + 1) for i, c in enumerate(subset))


def subset_unrank(rank: int, k: int) -> tuple[int, ...]:
    """Inverse of ``subset_rank``."""
    out = []
    r = rank
    for i in range(k, 0, -1):
        c = i - 1
        while comb(c + 1, i) <= r:
            c += 1
        out.append(c)
        r -= comb(c, i)
    out.reverse()
    return tuple(out)


def gosper_next(x: int) -> int:
    """The colex successor of the nonzero mask ``x`` among masks of its popcount."""
    u = x & -x
    v = x + u
    return v + (((v ^ x) // u) >> 2)


def iter_subsets_colex(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """All k-subsets of range(n) in colex order (= ascending rank)."""
    x = (1 << k) - 1
    for i in range(comb(n, k)):
        if i:
            x = gosper_next(x)
        yield tuple(iter_bits(x))


def scan_subsets(tests, n: int, m: int, lo: int, hi: int,
                 stop: bool = True) -> tuple[int, int, Optional[int]]:
    """Check the m-subsets of range(n) whose colex rank lies in [lo, hi).

    The window is empty when ``hi <= lo``; for m = 0 it holds at most the
    empty subset, of rank 0.  A subset x passes a test ``(rows, need)`` when
    ``rows`` has a ``need``-clique inside x, and fails when it fails any
    test.  Returns ``(scanned, failures, first_failure)``: subsets decided,
    failing subsets among them, and the first failing mask in colex order
    (None when all pass).  With ``stop`` the scan ends at the first failure,
    so ``scanned`` counts the subsets up to it.  ``_walk`` does the work.
    """
    out = [0, 0, None]
    space = comb(n, m)
    hi = min(hi, space)
    if m and lo < hi:
        todo = [(rows, need, closer_mask(rows, 0, need, (1 << n) - 1)) for rows, need in tests]
        _walk(out, lo, hi, stop, 0, 0, m, todo, n, lo <= 0 and hi == space)
    elif lo <= 0 < hi:  # m = 0: the empty subset alone
        out = [1, 1, 0] if _fails(tests, 0) else [1, 0, None]
    return tuple(out)


def closer_mask(rows: tuple[int, ...], prefix: int, need: int, limit: int) -> int:
    """The vertices v of ``limit`` for which ``prefix & rows[v]`` holds a (need - 1)-clique.

    Adding such a v to ``prefix`` closes a need-clique.  A clique is found
    from its lowest vertex u: v must close the vertices above u in
    ``prefix & rows[u]`` one size down.  Found vertices leave ``limit``, and
    the search ends once it is empty or too few vertices of ``prefix`` are left.
    """
    if need <= 1:
        return limit
    found = 0
    while limit and prefix.bit_count() >= need - 1:
        low = prefix & -prefix
        prefix ^= low
        row = rows[low.bit_length() - 1]
        hit = limit & row if need == 2 else closer_mask(rows, prefix & row, need - 1, limit & row)
        found |= hit
        limit ^= hit
    return found


def _walk(out, lo, hi, stop, prefix, base, j, todo, bound, inside) -> bool:
    """Decide the subsets of window [lo, hi) made of ``prefix`` and j elements below ``bound``.

    Colex order picks the largest element first, so the walk is depth first
    over descending prefixes.  ``base`` is the rank ``prefix`` adds: the
    subsets whose next element is a form one block, with the ranks
    base + [C(a, j), C(a + 1, j)).  Blocks outside the window are skipped, and
    a block wholly inside it is walked with ``inside`` set, which computes no
    binomial.  ``todo`` holds ``(rows, need, closers)`` for each test
    ``prefix`` fails, ``closers`` being its ``closer_mask`` below ``bound``:
    adding a passes the test iff bit a is set, and the child's closers add
    those of ``prefix & rows[a]`` one size down, inside ``rows[a]``.  Once a
    prefix passes every test, its whole block passes (the tests are
    monotone) and its part in the window is counted without a visit.  At
    the last level the failures are the window's bits missing from some
    closers.  ``out`` holds ``scan_subsets``' result so far.  True when the
    scan stops.
    """
    rest = j - 1  # the elements still to add below a
    if not rest:  # one subset per a: prefix | 1 << a, for a in [first, last)
        first = 0 if inside else max(lo - base, 0)
        span = (1 << (bound if inside else min(hi - base, bound))) - (1 << first)
        bad = 0
        for test in todo:
            bad |= span & ~test[2]
        if bad and stop:  # the scan ends at the lowest failure
            bad &= -bad
            span &= 2 * bad - 1
        out[0] += span.bit_count()
        out[1] += bad.bit_count()
        if bad and out[2] is None:
            out[2] = prefix | (bad & -bad)
        return stop and bad > 0
    start = end = base  # a's block holds the ranks [start, end), tracked only when not inside
    for a in range(rest, bound):
        if not inside:
            start, end = end, base + comb(a + 1, j)
            if end <= lo:
                continue
            if start >= hi:
                return False
        left = []
        for rows, need, closers in todo:
            if not closers >> a & 1:  # a adds the closers of prefix & rows[a], below a
                row = rows[a]
                left.append((rows, need, closers | closer_mask(
                    rows, prefix & row, need - 1, row & ~closers & ((1 << a) - 1))))
        if not left:
            out[0] += comb(a, rest) if inside else min(end, hi) - max(start, lo)
        elif _walk(out, lo, hi, stop, prefix | (1 << a), start, rest, left, a,
                   inside or lo <= start and end <= hi):
            return True
    return False


def _fails(tests, x: int) -> bool:
    """Whether subset x fails some ``scan_subsets`` test, each asked whole."""
    for rows, need in tests:
        if find_clique_mask(rows, x, need) is None:
            return True
    return False


def balance_tests(g: SimpleGraph, s: int, t: int):
    """``scan_subsets`` tests failed by subsets missing a K_s or an independent t-set."""
    return ((g.rows, s), (g.complement.rows, t))


def exact_space(n: int, m: int) -> int:
    """C(n, m) for an exact scan, which stops at ``ENUMERATION_CAP`` vertices before any budget."""
    if n > ENUMERATION_CAP:
        raise ValueError(f"subset enumeration capped at {ENUMERATION_CAP} vertices")
    return comb(n, m)


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the OS reports one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def scan_colex(
    tests, n: int, m: int, threads: int = 1, stop: bool = True, samples=None, rng=None
) -> tuple[int, int, Optional[int]]:
    """``scan_subsets`` over all m-subsets of range(n), or over ``samples`` draws of them.

    An exact scan (``samples`` None) checks ``exact_space`` and returns
    ``scan_subsets(tests, n, m, 0, C(n, m), stop)`` for every ``threads``.
    With ``stop`` that one window runs in this process, since it ends
    sooner than a process pool starts.  A count (``stop`` False) starts
    w = min(threads, usable CPUs) worker processes, cuts the ranks at
    multiples of C(n, m) // w into w consecutive windows, the last taking
    the remainder, and sums them; with w = 1, or fewer than four subsets
    per worker, it too runs here.  A sampled scan decides ``samples``
    draws of ``rng.choice(n, size=m, replace=False)`` here, each whole, in
    draw order; it never shards, so ``threads`` above 1 raises ValueError.
    Returns ``(scanned, failures, first_failure)`` as ``scan_subsets``
    does, the first failure in colex or draw order.
    """
    if not 1 <= threads <= THREAD_CAP:
        raise ValueError(f"need 1 <= threads <= {THREAD_CAP}, got {threads}")
    if samples is not None:
        if samples < 1:
            raise ValueError(f"need samples >= 1, got {samples}")
        if threads > 1:
            raise ValueError(f"a sampled scan runs in one process, got threads={threads}")
        scanned, failures, first_failure = 0, 0, None
        for _ in range(samples):
            x = mask_of(int(v) for v in rng.choice(n, size=m, replace=False))
            scanned += 1
            if _fails(tests, x):
                failures += 1
                if first_failure is None:
                    first_failure = x
                if stop:
                    break
        return scanned, failures, first_failure
    space = exact_space(n, m)
    workers = 1 if stop else min(threads, _usable_cpus())
    if workers == 1 or space < 4 * workers:
        return scan_subsets(tests, n, m, 0, space, stop)
    from concurrent.futures import ProcessPoolExecutor  # only a counting scan loads it

    chunk = space // workers
    cuts = [j * chunk for j in range(workers)] + [space]
    with ProcessPoolExecutor(max_workers=workers) as ex:
        shards = ex.map(partial(scan_subsets, tests, n, m, stop=False), cuts[:-1], cuts[1:])
        scanned, failures, fails = zip(*shards)
    return sum(scanned), sum(failures), next((x for x in fails if x is not None), None)
