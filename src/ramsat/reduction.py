"""The generalized Ramsey function, its graph form, and the bridge between them.

Two desk-scale quantities are computed here by brute force:

* g(n, s, t): the least N such that every N-vertex graph has an n-subset
  that does not contain both a K_s and an independent t-set ("unbalanced");

* f_k(n, s, t): the least N such that every red-blue coloring of the
  k-subsets of [N] has an n-subset U for which either every s-subset of U
  lies in some red k-subset or every t-subset of U lies in some blue
  k-subset ("good").

For k = s + t - 2 the two agree, and both directions of that equivalence
are executable: ``coloring_to_graph`` turns a k-subset coloring into a
graph whose unbalanced sets are good sets of the coloring, and
``graph_to_coloring`` turns a graph into a coloring whose good sets contain
unbalanced sets of the graph.  Each transform asserts its well-definedness
condition (the two forcing rules can never both fire) at runtime.

k-subsets are indexed by colex rank throughout (the ranking lives in
``ramsat.graphs``).  Edge bitmasks of graphs use the colex rank of pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb
from typing import Optional

from .constructions import seeded_rng
from .errors import BudgetError, ConsistencyError
from .graphs import (
    ENUMERATION_CAP,
    SimpleGraph,
    VertexSet,
    balance_tests,
    find_clique_mask,
    iter_subsets_colex,
    mask_of,
    scan_subsets,
    subset_rank,
)

RED = 0
BLUE = 1

COLORING_BIT_CAP = 1 << 24
G_ORACLE_VERTEX_CAP = 7
F_ORACLE_SUBSET_CAP = 20


# -- domain types ----------------------------------------------------------


def coloring_bit_count(N: int, k: int) -> int:
    """C(N, k), the bit count of a k-subset coloring of [N], capped.

    Raises ValueError when it exceeds ``COLORING_BIT_CAP``, without ever
    computing a larger binomial: with j = min(k, N - k) the partial
    products C(N - j + i, i), i = 1..j, at least double at each step.
    """
    if k < 0 or N < 0:
        raise ValueError("N and k must be non-negative")
    j = min(k, N - k)
    m = int(j >= 0)
    for i in range(1, j + 1):
        m = m * (N - j + i) // i
        if m > COLORING_BIT_CAP:
            raise ValueError(f"C({N},{k}) exceeds cap {COLORING_BIT_CAP}")
    return m


@dataclass(frozen=True)
class RamseyParams:
    """Parameter bundle (n, s, t, k, N).

    ``k`` defaults to s + t - 2, the regime where the coloring and graph
    problems coincide; any k >= max(s, t) is accepted for the direct f
    oracle.  ``N`` is the ground-set size when one is fixed.
    """

    n: int
    s: int
    t: int
    k: Optional[int] = None
    N: Optional[int] = None

    def __post_init__(self):
        if self.s < 2 or self.t < 2:
            raise ValueError("need s, t >= 2")
        if self.k is None:
            object.__setattr__(self, "k", self.s + self.t - 2)
        if self.k < max(self.s, self.t):
            raise ValueError(f"need k >= max(s, t), got k={self.k}")
        if self.n < self.k:
            raise ValueError(f"need n >= k, got n={self.n}, k={self.k}")
        if self.N is not None and self.N < self.n:
            raise ValueError(f"need N >= n, got N={self.N}")


@dataclass(frozen=True)
class KSubsetColoring:
    """Red/blue assignment to all k-subsets of [N], bit-packed by colex rank.

    Bit value 0 is red, 1 is blue; bit i of ``bits`` is the color of the
    rank-i subset.
    """

    N: int
    k: int
    bits: int

    def __post_init__(self):
        if self.bits >> coloring_bit_count(self.N, self.k):
            raise ValueError("color bits extend past C(N, k)")

    @property
    def subset_count(self) -> int:
        return comb(self.N, self.k)

    def color_of(self, subset) -> int:
        return (self.bits >> subset_rank(tuple(sorted(subset)))) & 1

    @classmethod
    def all_red(cls, N: int, k: int) -> "KSubsetColoring":
        return cls(N, k, 0)

    @classmethod
    def all_blue(cls, N: int, k: int) -> "KSubsetColoring":
        return cls(N, k, (1 << comb(N, k)) - 1)

    @classmethod
    def random(cls, N: int, k: int, seed: int) -> "KSubsetColoring":
        draws = seeded_rng(seed).integers(0, 2, size=coloring_bit_count(N, k))
        return cls(N, k, sum(int(b) << i for i, b in enumerate(draws)))


@dataclass(frozen=True)
class GOracleResult:
    value: Optional[int]  # g(n, s, t) if found within n_max
    witness: Optional[SimpleGraph]  # graph where every n-set has both structures
    witness_n: Optional[int]  # its vertex count (value - 1, or n_max when absent)
    checked: int  # graphs examined


@dataclass(frozen=True)
class FOracleResult:
    value: Optional[int]
    witness: Optional[KSubsetColoring]  # coloring with no good n-set
    checked: int  # colorings examined


# -- unbalanced sets and the g oracle ---------------------------------------


def has_unbalanced_set(
    g: SimpleGraph, n: int, s: int, t: int
) -> Optional[VertexSet]:
    """First (colex) n-subset missing a K_s or missing an independent t-set.

    Returns None when every n-subset contains both.
    """
    if not 0 < n <= g.n:
        raise ValueError(f"subset size {n} outside [1, {g.n}]")
    if s < 2 or t < 2:
        raise ValueError("need s, t >= 2")
    if g.n > ENUMERATION_CAP:
        raise ValueError(f"subset enumeration capped at {ENUMERATION_CAP} vertices")
    first = _first_unbalanced(g, n, s, t)
    return None if first is None else VertexSet.from_mask(first)


def _first_unbalanced(g: SimpleGraph, n: int, s: int, t: int) -> Optional[int]:
    return scan_subsets(balance_tests(g, s, t), (1 << n) - 1, comb(g.n, n))[2]


@lru_cache(maxsize=None)
def _pairs_of(N: int) -> tuple[tuple[int, int], ...]:
    """Pairs of range(N) ordered by colex rank."""
    return tuple(iter_subsets_colex(N, 2))


def graph_from_edge_mask(N: int, mask: int) -> SimpleGraph:
    """Graph on N vertices whose edge set is the colex-rank bitmask ``mask``."""
    rows = [0] * N
    pairs = _pairs_of(N)
    m = mask
    while m:
        low = m & -m
        u, v = pairs[low.bit_length() - 1]
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        m ^= low
    return SimpleGraph(N, tuple(rows))


def g_oracle(n: int, s: int, t: int, n_max: int) -> GOracleResult:
    """Exhaustively compute g(n, s, t) for candidates N <= n_max.

    For each N (ascending from n-1, where the claim is vacuously refuted by
    any graph) all 2^C(N,2) edge bitmasks are enumerated in ascending order
    and the first counterexample — a graph in which every n-subset contains
    both a K_s and an independent t-set — is kept as the witness for that
    level.  Complement pairing halves the scan when s = t; for s != t the
    complement swaps the two roles, so no halving is applied.  The answer
    is the first N with no counterexample.
    """
    if s < 2 or t < 2:
        raise ValueError("need s, t >= 2")
    if n < 2:
        raise ValueError("need n >= 2")
    if n_max > G_ORACLE_VERTEX_CAP:
        raise BudgetError(f"g oracle capped at n_max <= {G_ORACLE_VERTEX_CAP}")
    checked = 0
    witness = None
    witness_n = None
    for N in range(max(1, n - 1), n_max + 1):
        pair_count = comb(N, 2)
        full = (1 << pair_count) - 1
        counterexample = None
        for mask in range(1 << pair_count):
            if s == t and mask > full ^ mask:
                continue
            checked += 1
            g = graph_from_edge_mask(N, mask)
            if n > N or _first_unbalanced(g, n, s, t) is None:
                counterexample = g
                break
        if counterexample is None:
            return GOracleResult(N, witness, witness_n, checked)
        witness, witness_n = counterexample, N
    return GOracleResult(None, witness, witness_n, checked)


# -- good sets and the f oracle ---------------------------------------------


@lru_cache(maxsize=None)
def _good_set_tables(N: int, k: int, n: int, s: int, t: int):
    """Per n-subset, the superset-rank lists feeding the two good conditions.

    Entry u of the result is a pair (A, B): A lists, for each s-subset of
    the u-th (colex) n-subset, the colex ranks of its k-supersets within
    [N]; B does the same for t-subsets.  A condition holds when every inner
    list contains a subset of the right color.
    """
    return tuple(
        (
            U,
            tuple(tuple(_superset_ranks(N, k, S)) for S in combinations(U, s)),
            tuple(tuple(_superset_ranks(N, k, T)) for T in combinations(U, t)),
        )
        for U in iter_subsets_colex(N, n)
    )


def _superset_ranks(N: int, k: int, S: tuple[int, ...]):
    """Colex ranks of the k-subsets of range(N) containing the subset S."""
    rest = sorted(set(range(N)) - set(S))
    for extra in combinations(rest, k - len(S)):
        yield subset_rank(tuple(sorted(S + extra)))


def _first_good_set(bits: int, table) -> Optional[tuple[int, ...]]:
    for U, a_lists, b_lists in table:
        good = True
        for ranks in a_lists:
            if all((bits >> r) & 1 for r in ranks):  # no red superset
                good = False
                break
        if good:
            return U
        good = True
        for ranks in b_lists:
            if not any((bits >> r) & 1 for r in ranks):  # no blue superset
                good = False
                break
        if good:
            return U
    return None


def good_set_witness(
    chi: KSubsetColoring, params: RamseyParams
) -> Optional[VertexSet]:
    """First (colex) n-subset that is good for the coloring, or None.

    Good means: every s-subset lies in at least one red k-subset of the
    whole ground set, or every t-subset lies in at least one blue one.
    """
    if params.k != chi.k:
        raise ValueError(f"params.k={params.k} does not match coloring k={chi.k}")
    if params.N is not None and params.N != chi.N:
        raise ValueError("params.N does not match the coloring ground set")
    if not params.k <= params.n <= chi.N:
        raise ValueError("need k <= n <= N")
    table = _good_set_tables(chi.N, chi.k, params.n, params.s, params.t)
    U = _first_good_set(chi.bits, table)
    return None if U is None else VertexSet(U)


def f_oracle(params: RamseyParams, n_max: int) -> FOracleResult:
    """Exhaustively compute f_k(n, s, t) for candidates N <= n_max.

    For each N all 2^C(N,k) colorings are enumerated by ascending bit
    value; the first with no good n-subset is the counterexample keeping
    the search going.  The first N where every coloring admits a good
    n-subset is the value.  Capped at C(n_max, k) <= 20 color positions.
    """
    n, s, t, k = params.n, params.s, params.t, params.k
    if n_max < 1:
        raise ValueError("need n_max >= 1")
    if comb(n_max, k) > F_ORACLE_SUBSET_CAP:
        raise BudgetError(
            f"C({n_max},{k}) = {comb(n_max, k)} exceeds f-oracle cap {F_ORACLE_SUBSET_CAP}"
        )
    checked = 0
    witness = None
    for N in range(max(1, n - 1), n_max + 1):
        bit_count = comb(N, k)
        counterexample = None
        if n > N:
            checked += 1
            counterexample = KSubsetColoring(N, k, 0)
        else:
            table = _good_set_tables(N, k, n, s, t)
            for bits in range(1 << bit_count):
                checked += 1
                if _first_good_set(bits, table) is None:
                    counterexample = KSubsetColoring(N, k, bits)
                    break
        if counterexample is None:
            return FOracleResult(N, witness, checked)
        witness = counterexample
    return FOracleResult(None, witness, checked)


# -- the two directions of the equivalence ----------------------------------


def coloring_to_graph(
    chi: KSubsetColoring, s: int, t: int, tie_break: str = "nonedge"
) -> SimpleGraph:
    """Graph on [N] whose unbalanced sets witness good sets of ``chi``.

    A pair {x, y} is forced to be an edge when some s-superset S of it has
    all its k-supersets blue, and forced to be a non-edge when some
    t-superset T has all its k-supersets red.  Since |S ∪ T| <= s+t-2 = k,
    a k-superset of S ∪ T would have to be both colors, so the two forcing
    rules are mutually exclusive — this is asserted per pair and a failure
    raises ConsistencyError (an implementation bug, not an input error).
    Unforced pairs follow ``tie_break`` ("nonedge" by default).
    """
    if s < 2 or t < 2:
        raise ValueError("need s, t >= 2")
    if chi.k != s + t - 2:
        raise ValueError(f"transform needs k = s+t-2 = {s + t - 2}, coloring has k={chi.k}")
    if tie_break not in ("nonedge", "edge"):
        raise ValueError(f"unknown tie_break {tie_break!r}")
    N, k = chi.N, chi.k
    if k > N:
        raise ValueError("need k <= N")
    bits = chi.bits
    rows = [0] * N
    for x in range(N):
        for y in range(x + 1, N):
            rest = sorted(set(range(N)) - {x, y})
            forced_edge = any(
                all(bits >> rank & 1 for rank in _superset_ranks(N, k, (x, y) + extra))
                for extra in combinations(rest, s - 2)
            )
            forced_nonedge = any(
                not any(bits >> rank & 1 for rank in _superset_ranks(N, k, (x, y) + extra))
                for extra in combinations(rest, t - 2)
            )
            if forced_edge and forced_nonedge:
                raise ConsistencyError(
                    f"pair ({x},{y}) forced both ways; coloring transform is broken"
                )
            if forced_edge or (not forced_nonedge and tie_break == "edge"):
                rows[x] |= 1 << y
                rows[y] |= 1 << x
    return SimpleGraph(N, tuple(rows))


def graph_to_coloring(
    g: SimpleGraph, s: int, t: int, default: str = "red"
) -> KSubsetColoring:
    """k-subset coloring (k = s+t-2) whose good sets witness unbalanced sets of g.

    A k-subset is colored blue when it induces a K_s, red when it induces
    an independent t-set.  A k-set can never do both — the two would meet
    in at least two vertices, which would have to be simultaneously
    adjacent and non-adjacent — and this is asserted per subset.  Subsets
    doing neither take ``default`` ("red" by default).
    """
    if s < 2 or t < 2:
        raise ValueError("need s, t >= 2")
    if default not in ("red", "blue"):
        raise ValueError(f"unknown default {default!r}")
    k = s + t - 2
    if k > g.n:
        raise ValueError(f"need k = s+t-2 = {k} <= n = {g.n}")
    rows = g.rows
    comp_rows = g.complement.rows
    bits = 0
    default_blue = default == "blue"
    for rank, K in enumerate(iter_subsets_colex(g.n, k)):
        kmask = mask_of(K)
        is_blue = find_clique_mask(rows, kmask, s) is not None
        is_red = find_clique_mask(comp_rows, kmask, t) is not None
        if is_blue and is_red:
            raise ConsistencyError(
                f"k-subset {K} hosts both structures; graph transform is broken"
            )
        if is_blue or (not is_red and default_blue):
            bits |= 1 << rank
    return KSubsetColoring(g.n, k, bits)
