"""Bitset graphs, color patterns, and the search primitives everything else is built on.

Vertices are 0-indexed.  Adjacency is stored as one Python-int bit row per
vertex, so "is there a clique of size m inside this vertex subset?" needs no
induced-subgraph copies: the search simply intersects candidate masks.
``find_clique_mask`` answers it for m <= 3 with plain loops over bit masks
and for m >= 4 with a depth-first search that prunes with the greedy colour
bound on every candidate set of at least ``COLOR_BOUND_MIN_CANDIDATES``
vertices.

Subsets are ranked in colex order: rank(c_1 < ... < c_k) = sum of
C(c_i, i).  ``scan_subsets`` decides the m-subsets, all of them or the
block whose largest element is given, by a depth-first walk over
descending prefixes: the subsets that share their top elements form one
colex block.  Each open test carries the ``closer_mask`` of its prefix,
the vertices that would close a clique, so adding an element is one bit
test and a block of the last two levels is one ``bit_count``: only a
sampled scan or one of m <= 1 asks ``find_clique_mask`` about a whole
subset.  A block passes whole, without a visit, once each test either
holds on its top elements or leaves fewer non-closers below them than
elements still to add, so that every completion takes a closer.
``scan_colex`` scans all m-subsets or a seeded sample of them; every scan
of one graph's subsets in the package runs through these two.  Only a
count, which visits every failure, shards over worker processes, one
block per largest element: a scan that stops at its first failure ends
sooner than a process pool starts.  The f and g oracles scan no single
graph: they decide blocks of candidates on bit-planes (see
``ramsat.reduction``).

A color pattern (``ColoredCompleteGraph``) is a family of pairwise
edge-disjoint graphs G_1..G_r on a common vertex set; when the union
covers every pair it is an r-edge-coloring of the complete graph.  The
classes are the whole pattern: its vertex count, color count and
completeness are read off them.

Randomness is always explicit: every random draw in the package comes from
``seeded_rng``, a pure-Python copy of numpy's ``Generator(PCG64(seed))``
stream (``GENERATOR_NAME``, see ``rng``).  The seed is any non-negative
int, as numpy's is: seeds of 2^64 and more are accepted and get streams of
their own, a negative seed raises ValueError, and None is refused.  Pair
ordering is documented per function, so a given seed reproduces the same
object, and numpy seeded alike draws the same numbers.

All types are immutable after construction (``Value`` is their plain
base).  Every operation is a pure function but ``reduction._superset_mask``,
whose process-wide cache changes no answer, so concurrent use from threads
or worker processes is safe; its bit count is not updated atomically,
though, so concurrent threads can overrun ``SUPERSET_CACHE_BITS``.
Searches are deterministic and return the lexicographically smallest
witness, which keeps certificates reproducible.
"""

from __future__ import annotations

import os
from collections.abc import Iterator
from functools import cached_property, partial
from math import comb

# Hard caps.  Exhaustive subset/graph enumeration is only offered up to 64
# vertices; general search works up to 4096, and a pattern has at most
# COLOR_CAP classes.  ``threads`` may be at most THREAD_CAP on every
# machine; a counting scan starts min(threads, usable CPUs) worker
# processes and gives the same answer for any count.
# CLIQUE_DEPTH_CAP keeps the clique search, one recursion per vertex, inside
# Python's recursion limit.
ENUMERATION_CAP = 64
VERTEX_CAP = 4096
COLOR_CAP = 64
THREAD_CAP = 64
CLIQUE_DEPTH_CAP = 512
# The clique search runs the greedy colour bound only on candidate sets of
# at least this many vertices.  Smaller sets, such as the at most n - 1
# vertices of ssat_search's K_4 queries, cost more to colour than to search
# (ssat_search(2, 6, 11) halves without the bound there), while on large
# dense sets the bound is what ends the search: K_11 in the Turan graph
# T(60, 10) takes about 40 s without it.
COLOR_BOUND_MIN_CANDIDATES = 12
# The stream every seeded draw of the package comes from (``seeded_rng``).
GENERATOR_NAME = "numpy-pcg64"


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


def seeded_rng(seed: int | None) -> "PCG64":
    """The ``GENERATOR_NAME`` generator seeded with ``seed``; None is refused.

    ``rng`` is imported here, on first use, so commands that draw nothing
    never compile it.
    """
    if seed is None:
        raise ValueError("randomized operation requires an explicit seed")
    from .rng import PCG64

    return PCG64(seed)


class Value:
    """Base of the package's value types: read-only records of named fields.

    A subclass names its fields in ``_fields`` and stores them in
    ``__init__`` with ``self.__dict__.update``.  Instances are equal, hash
    and print by those fields, and refuse assignment afterwards;
    ``functools.cached_property`` still caches, since it writes
    ``__dict__`` directly.  (``dataclasses`` would do the same, at the cost
    of importing ``inspect`` in every process.)
    """

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        d = self.__dict__
        return tuple([d[name] for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is read-only")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is read-only")


class SimpleGraph(Value):
    """Undirected graph on ``n`` vertices with bit-row adjacency.

    ``rows[v]`` is the neighbour mask of vertex v.  The relation is
    symmetric and irreflexive; both are checked at construction.
    """

    _fields = ("n", "rows")

    def __init__(self, n: int, rows: tuple[int, ...]):
        if not 0 <= n <= VERTEX_CAP:
            raise ValueError(f"vertex count {n} outside [0, {VERTEX_CAP}]")
        if len(rows) != n:
            raise ValueError("need exactly one adjacency row per vertex")
        full = (1 << n) - 1
        for v, row in enumerate(rows):
            if row < 0:
                raise ValueError(f"row {v} mask {row} is negative")
            if row & ~full:
                raise ValueError(f"row {v} references vertices >= n")
            if (row >> v) & 1:
                raise ValueError(f"self-loop at vertex {v}")
        # symmetry: check each edge once from the lower endpoint
        for v, row in enumerate(rows):
            m = row >> (v + 1)
            base = v + 1
            while m:
                low = m & -m
                u = base + low.bit_length() - 1
                if not (rows[u] >> v) & 1:
                    raise ValueError(f"adjacency not symmetric at ({v}, {u})")
                m ^= low
        self.__dict__.update(n=n, rows=rows)

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


class ColoredCompleteGraph(Value):
    """r pairwise edge-disjoint color classes on a common vertex set.

    A pattern is exactly its classes: ``n`` is their vertex count, ``r``
    their number, and ``complete`` whether they color every pair; every
    claim about the pattern reads n and r from here.  Class index i
    corresponds to color label i+1 in the ``.cg`` text format and in
    witnesses.
    """

    _fields = ("classes",)

    def __init__(self, classes: tuple[SimpleGraph, ...]):
        r = len(classes)
        if not 1 <= r <= COLOR_CAP:
            raise ValueError(f"color count {r} outside [1, {COLOR_CAP}]")
        n = classes[0].n
        if any(cls.n != n for cls in classes):
            raise ValueError("all classes must share the vertex count")
        full = (1 << n) - 1
        complete = True
        for v in range(n):
            used = 0
            for cls in classes:
                row = cls.rows[v]
                if used & row:
                    raise ValueError(f"classes overlap at vertex {v}")
                used |= row
            complete = complete and used == full & ~(1 << v)
        self.__dict__.update(classes=classes, n=n, r=r, complete=complete)

    def colored_pairs(self) -> list[tuple[int, int, int]]:
        """(u, v, class index) for every coloured pair, u < v, ascending."""
        return sorted((u, v, i) for i, cls in enumerate(self.classes) for u, v in cls.edges())


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


def _triangle_mask(rows: tuple[int, ...], cand: int) -> int | None:
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


def _clique_search(rows: tuple[int, ...], cand: int, need: int) -> int | None:
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


def find_clique_mask(rows: tuple[int, ...], allowed: int, m: int) -> int | None:
    """Lexicographically smallest m-clique inside ``allowed``, as a bit mask.

    ``rows`` is any bit-row adjacency; vertices outside ``allowed`` are
    ignored, which makes this the induced-subgraph clique test.  Returns
    None when no m-clique exists.  Sizes up to 3 run as plain loops over
    bit masks; from 4 up to ``CLIQUE_DEPTH_CAP`` the search is depth-first
    with the greedy colour bound on every candidate set of at least
    ``COLOR_BOUND_MIN_CANDIDATES`` vertices, ending in the triangle loop.
    A larger m raises ValueError unless that bound answers None at the top
    level, before any recursion.  The subset scan asks it only about the
    subsets of a sampled scan or of m <= 1; an exact scan of m >= 2 decides
    by bit tests on ``closer_mask``.
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


def find_clique(g: SimpleGraph, m: int) -> tuple[int, ...] | None:
    """The lexicographically smallest m-clique of ``g``, ascending, or None."""
    if not 1 <= m <= g.n:
        raise ValueError(f"clique size {m} outside [1, {g.n}]")
    mask = find_clique_mask(g.rows, g.full_mask, m)
    return None if mask is None else tuple(iter_bits(mask))


def turan_bound(n: int, edge_count: int) -> int:
    """ceil(n^2 / (n + 2e)): the independence number guaranteed by averaging."""
    if n < 1 or not 0 <= edge_count <= comb(n, 2):
        raise ValueError(f"no graph has {n} vertices and {edge_count} edges")
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
    """Inverse of ``subset_rank``: the k-subset of colex rank ``rank``."""
    if rank < 0 or k < 0 or (k == 0 and rank):
        raise ValueError(f"no {k}-subset has colex rank {rank}")
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


def scan_subsets(tests, n: int, m: int, stop: bool = True,
                 top: int | None = None) -> tuple[int, int, int | None]:
    """Check the m-subsets of range(n), or only those whose largest element is ``top``.

    In colex order the m-subsets with largest element a form one block, of
    C(a, m - 1) subsets, and the blocks follow in ascending a; the block of
    a ``top`` outside [m - 1, n) is empty, and the empty subset (m = 0) is in
    none.  A subset x passes a test ``(rows, need)`` when ``rows`` has a
    ``need``-clique inside x, and fails when it fails any test.  Returns
    ``(scanned, failures, first_failure)``: subsets decided, failing subsets
    among them, and the first failing mask in colex order (None when all
    pass).  With ``stop`` the scan ends at the first failure, so ``scanned``
    counts the subsets up to it.  ``_walk`` does the work for m >= 2; below,
    each subset ({a}, or the empty one) is asked whole.
    """
    if m == 0:
        return _scan_each(tests, [0] if top is None else [], stop)
    elements = range(m - 1, n) if top is None else range(max(top, m - 1), min(top + 1, n))
    if m == 1:
        return _scan_each(tests, (1 << a for a in elements), stop)
    out = [0, 0, None]
    todo = [(rows, need, closer_mask(rows, 0, need, (1 << n) - 1)) for rows, need in tests]
    _walk(out, stop, 0, m, todo, elements)
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


def _walk(out, stop, prefix, j, todo, elements) -> bool:
    """Decide the subsets of ``prefix`` and j >= 2 more elements, the largest in ``elements``.

    Colex order picks the largest element first, so the walk is depth first
    over descending prefixes: the subsets whose next element is a form one
    block, walked with the elements below a.  ``todo`` holds
    ``(rows, need, closers)`` for each test ``prefix`` fails, ``closers``
    being its ``closer_mask`` below the prefix: adding a passes the test
    iff bit a is set, and the child's closers add those of
    ``prefix & rows[a]`` one size down, inside ``rows[a]``.  Once a prefix
    passes every test, its whole block passes (the tests are monotone) and
    is counted without a visit.  A test also leaves the child's ``todo``
    when fewer than j - 1 bits below a are missing from the child's
    closers: every completion then takes a closer.  At j = 2 a loop of its
    own decides each block with no deeper call: the block's failures are
    the bits b below a missing from some child's closers, one popcount.
    ``out`` holds ``scan_subsets``' result so far.  True when the scan stops.
    """
    if j == 2:  # a's block: prefix | 1 << a | 1 << b for the bits b of span
        for a in elements:
            span = (1 << a) - 1
            bad = 0
            for rows, need, closers in todo:
                if not closers >> a & 1:  # b passes iff bit b is in the child's closers
                    row = rows[a]
                    bad |= span & ~(closers | closer_mask(
                        rows, prefix & row, need - 1, row & ~closers & span))
            if bad and stop:  # the scan ends at the lowest failure
                bad &= -bad
                span &= 2 * bad - 1
            out[0] += span.bit_count()
            if bad:
                out[1] += bad.bit_count()
                if out[2] is None:
                    out[2] = prefix | (1 << a) | (bad & -bad)
                if stop:
                    return True
        return False
    rest = j - 1  # the elements still to add below a
    for a in elements:
        span = (1 << a) - 1
        left = []
        for rows, need, closers in todo:
            if not closers >> a & 1:  # a adds the closers of prefix & rows[a], below a
                row = rows[a]
                closers |= closer_mask(rows, prefix & row, need - 1, row & ~closers & span)
                if (span & ~closers).bit_count() >= rest:  # else every completion holds a closer
                    left.append((rows, need, closers))
        if not left:
            out[0] += comb(a, rest)
        elif _walk(out, stop, prefix | (1 << a), rest, left, range(rest - 1, a)):
            return True
    return False


def _scan_each(tests, masks, stop: bool) -> tuple[int, int, int | None]:
    """``scan_subsets``' result over the subsets ``masks`` yields, in order, each asked whole."""
    scanned, failures, first_failure = 0, 0, None
    for x in masks:
        scanned += 1
        if any(find_clique_mask(rows, x, need) is None for rows, need in tests):
            failures += 1
            if first_failure is None:
                first_failure = x
            if stop:
                break
    return scanned, failures, first_failure


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
) -> tuple[int, int, int | None]:
    """``scan_subsets`` over all m-subsets of range(n), or over ``samples`` draws of them.

    An exact scan (``samples`` None) checks ``exact_space`` and returns
    ``scan_subsets(tests, n, m, stop)`` for every ``threads``.  With
    ``stop`` that one scan runs in this process, since it ends sooner than
    a process pool starts.  A count (``stop`` False) starts
    w = min(threads, usable CPUs) worker processes and maps the blocks of
    ``scan_subsets`` over the largest elements a = n - 1 down to m - 1, so
    the largest blocks start first; it sums them and takes the first
    failure from the lowest a.  With w = 1, or fewer than four subsets per
    worker, it too runs here.  A sampled scan decides ``samples`` draws of
    ``rng.choice(n, size=m)``, m distinct vertices each, here, each whole,
    in draw order; it never shards, so ``threads`` above 1 raises
    ValueError.  Returns ``(scanned, failures, first_failure)`` as
    ``scan_subsets`` does, the first failure in colex or draw order.
    """
    if not 1 <= threads <= THREAD_CAP:
        raise ValueError(f"need 1 <= threads <= {THREAD_CAP}, got {threads}")
    if samples is not None:
        if samples < 1:
            raise ValueError(f"need samples >= 1, got {samples}")
        if threads > 1:
            raise ValueError(f"a sampled scan runs in one process, got threads={threads}")
        return _scan_each(tests, (mask_of(rng.choice(n, size=m)) for _ in range(samples)), stop)
    space = exact_space(n, m)
    workers = 1 if stop else min(threads, _usable_cpus())
    if workers == 1 or space < 4 * workers:
        return scan_subsets(tests, n, m, stop)
    from concurrent.futures import ProcessPoolExecutor  # only a counting scan loads it

    with ProcessPoolExecutor(max_workers=workers) as ex:
        blocks = ex.map(partial(scan_subsets, tests, n, m, False), range(n - 1, m - 2, -1))
        scanned, failures, fails = zip(*blocks)
    return sum(scanned), sum(failures), next((x for x in reversed(fails) if x is not None), None)
