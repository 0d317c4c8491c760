"""Bitset graphs and the search primitives everything else is built on.

Vertices are 0-indexed.  Adjacency is stored as one Python-int bit row per
vertex, so "is there a clique of size m inside this vertex subset?" needs no
induced-subgraph copies: the search simply intersects candidate masks.
``find_clique_mask`` answers it for m <= 3 with plain loops over bit masks
(the scans ask for triangles) and for m >= 4 with a depth-first search that
prunes with the greedy colour bound at every level of 4 or more.

Subsets are ranked in colex order: rank(c_1 < ... < c_k) = sum of
C(c_i, i).  ``scan_subsets`` decides every subset of a colex window of
masks by a depth-first walk over descending prefixes: the subsets that
share their top elements form one colex block, and a block whose top
elements already hold every clique asked for passes whole, without a visit.
``scan_colex`` splits a whole C(n, m) scan over worker processes; every
subset scan in the package runs through these two.

All types are immutable after construction and every operation is a pure
function, so concurrent use from multiple threads or worker processes is
safe.  Searches are deterministic and return the lexicographically
smallest witness, which keeps certificates reproducible.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from math import comb
from typing import Iterator, Optional

# Hard caps.  Exhaustive subset/graph enumeration is only offered up to 64
# vertices; general search works up to 4096.  A sharded scan starts at most
# THREAD_CAP worker processes: a constant, so that a certificate recording
# its thread count reproduces on any machine.  CLIQUE_DEPTH_CAP keeps the
# clique search, one recursion per vertex, inside Python's recursion limit.
ENUMERATION_CAP = 64
VERTEX_CAP = 4096
THREAD_CAP = 64
CLIQUE_DEPTH_CAP = 512


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
    if cand.bit_count() < need or not _color_bound_reaches(rows, cand, need):
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
    with the greedy colour bound at every level, ending in the triangle
    loop.  A larger m raises ValueError unless that bound answers None at
    the top level, before any recursion.
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


def scan_subsets(
    tests, first: int, last: int, stop: bool = True
) -> tuple[int, int, Optional[int]]:
    """Check the subsets of the colex window from mask ``first`` to mask ``last``.

    The window holds every mask of their popcount from ``first`` to
    ``last``, both included; it is empty when ``last < first``.  A subset x
    passes a test ``(rows, need)`` when ``rows`` has a ``need``-clique inside
    x, and fails when it fails any test.  Returns ``(scanned, failures,
    first_failure)``: subsets decided, failing subsets among them, and the
    first failing mask in colex order (None when all pass).  With ``stop``
    the scan ends at the first failure, so ``scanned`` counts the subsets up
    to it.

    The first subset is decided whole.  The rest of the window is walked
    depth first over descending prefixes: colex order picks the largest
    element first, so the subsets sharing a prefix H of top elements form
    one colex block.  When the walk adds the next-lower element a to H, a
    test H still fails is asked only for a clique through a, inside
    ``rows[a] & H``.  Once H passes every test, the whole block passes (the
    tests are monotone) and is counted without a visit.  A block of one
    subset is decided whole, and a failing subset is still decided alone,
    in colex order.
    """
    if last < first:
        return 0, 0, None
    failed = _fails(tests, first)
    if failed and stop or first == last:
        return 1, int(failed), first if failed else None
    lo = gosper_next(first)  # the walk decides lo to last
    scanned, failures, first_failure = 1, int(failed), first if failed else None

    def walk(prefix: int, j: int, todo, bound: int, lo_tight: bool, hi_tight: bool) -> bool:
        """Decide the window's subsets made of ``prefix`` and j elements below ``bound``.

        ``todo`` holds the tests ``prefix`` fails.  ``lo_tight`` and
        ``hi_tight`` say whether ``prefix`` is the top of ``lo`` or of
        ``last``, where the window cuts the block.  True when the scan stops.
        """
        nonlocal scanned, failures, first_failure
        below = (1 << bound) - 1
        a_lo = (lo & below).bit_length() - 1 if lo_tight else j - 1
        a_hi = (last & below).bit_length() - 1 if hi_tight else bound - 1
        j -= 1
        for a in range(a_lo, a_hi + 1):
            x = prefix | (1 << a)
            if j and a == j:  # a block of one subset: x and every element below a
                x |= (1 << a) - 1
                fails = _fails(todo, x)
            else:
                # a closes a need-clique when its neighbours in the prefix
                # hold a (need - 1)-clique; up to need 2 that needs no search
                left = []
                for test in todo:
                    rows, need = test
                    nbrs = rows[a] & prefix
                    if need > 1 and (
                        not nbrs or need > 2 and find_clique_mask(rows, nbrs, need - 1) is None
                    ):
                        left.append(test)
                if j:
                    t_lo, t_hi = lo_tight and a == a_lo, hi_tight and a == a_hi
                    if left or t_lo or t_hi:
                        if walk(x, j, left, a, t_lo, t_hi):
                            return True
                    else:
                        scanned += comb(a, j)
                    continue
                fails = bool(left)
            scanned += 1
            if fails:
                failures += 1
                if first_failure is None:
                    first_failure = x
                if stop:
                    return True
        return False

    todo = [(rows, need) for rows, need in tests if need > 0]  # the empty prefix passes need 0
    walk(0, first.bit_count(), todo, last.bit_length(), True, True)
    return scanned, failures, first_failure


def _fails(tests, x: int) -> bool:
    """Whether subset x fails some ``scan_subsets`` test, each asked whole."""
    for rows, need in tests:
        if find_clique_mask(rows, x, need) is None:
            return True
    return False


def balance_tests(g: SimpleGraph, s: int, t: int):
    """``scan_subsets`` tests failed by subsets missing a K_s or an independent t-set."""
    return ((g.rows, s), (g.complement.rows, t))


def scan_colex(
    tests, n: int, m: int, threads: int = 1, stop: bool = True
) -> tuple[int, int, Optional[int]]:
    """``scan_subsets`` over all m-subsets of range(n), sharded over processes.

    The C(n, m) colex ranks are cut into ``threads`` consecutive ranges, one
    per worker process, each given its unranked first and last subsets.  With
    one thread, or fewer than four subsets per worker, the scan runs in this
    process.  Returns ``(scanned, failures, first_failure)`` as
    ``scan_subsets`` does, summed over the ranges, with the first failure in
    colex order; with ``stop`` each range ends at its own first failure, so
    ``scanned`` counts the subsets up to each.
    """
    if not 1 <= threads <= THREAD_CAP:
        raise ValueError(f"need 1 <= threads <= {THREAD_CAP}, got {threads}")
    space = comb(n, m)
    if threads == 1 or space < 4 * threads:
        last = ((1 << m) - 1) << (n - m) if space else 0  # no m-subsets when m > n
        return scan_subsets(tests, (1 << m) - 1, last, stop)
    chunk = space // threads
    cuts = [j * chunk for j in range(threads)] + [space]
    firsts = [mask_of(subset_unrank(cuts[j], m)) for j in range(threads)]
    lasts = [mask_of(subset_unrank(cuts[j + 1] - 1, m)) for j in range(threads)]
    with ProcessPoolExecutor(max_workers=threads) as ex:
        shards = ex.map(scan_subsets, [tests] * threads, firsts, lasts, [stop] * threads)
        scanned, failures, fails = zip(*shards)
    return sum(scanned), sum(failures), next((x for x in fails if x is not None), None)
