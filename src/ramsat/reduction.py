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

k-subsets are indexed by colex rank (the ranking lives in ``ramsat.graphs``),
and a family of k-subsets of [N] is an int whose bit i is the rank-i subset,
as in ``KSubsetColoring.bits``.  The good-set tests read the superset mask
of S, the family of k-subsets containing S: S lies in a red k-superset when
``~bits & mask`` is nonzero, in a blue one when ``bits & mask`` is.
``coloring_to_graph`` instead looks colors up one rank at a time, so that
each search stops at its first answer.  Edge bitmasks of graphs use the
colex rank of pairs.

Both oracles walk N upward through one loop and return an ``OracleResult``;
vertex sets come back as ascending tuples.
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
    balance_tests,
    find_clique_mask,
    iter_bits,
    iter_subsets_colex,
    mask_of,
    scan_colex,
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
        digits = (draws[::-1] + ord("0")).astype("u1").tobytes()  # draw i is bit i
        return cls(N, k, int(digits or b"0", 2))


@dataclass(frozen=True)
class OracleResult:
    """What ``g_oracle`` or ``f_oracle`` found up to its ``n_max``."""

    value: Optional[int]  # the least N with no counterexample, if found
    witness: Optional[object]  # the counterexample on value - 1 (or n_max) points
    checked: int  # graphs or colorings examined


def _least_level(n: int, n_max: int, search) -> OracleResult:
    """The least N from max(1, n - 1) to ``n_max`` where ``search`` finds nothing.

    ``search(N)`` returns ``(counterexample, examined)``, the counterexample
    None when there is none on N points.  The witness is the counterexample
    of the last level that had one.
    """
    checked = 0
    witness = None
    for N in range(max(1, n - 1), n_max + 1):
        counterexample, examined = search(N)
        checked += examined
        if counterexample is None:
            return OracleResult(N, witness, checked)
        witness = counterexample
    return OracleResult(None, witness, checked)


# -- unbalanced sets and the g oracle ---------------------------------------


def has_unbalanced_set(
    g: SimpleGraph, n: int, s: int, t: int
) -> Optional[tuple[int, ...]]:
    """First (colex) n-subset missing a K_s or missing an independent t-set.

    Returns it ascending, or None when every n-subset contains both.
    """
    if not 0 < n <= g.n:
        raise ValueError(f"subset size {n} outside [1, {g.n}]")
    if s < 2 or t < 2:
        raise ValueError("need s, t >= 2")
    if g.n > ENUMERATION_CAP:
        raise ValueError(f"subset enumeration capped at {ENUMERATION_CAP} vertices")
    first = _first_unbalanced(g, n, s, t)
    return None if first is None else tuple(iter_bits(first))


def _first_unbalanced(g: SimpleGraph, n: int, s: int, t: int) -> Optional[int]:
    return scan_colex(balance_tests(g, s, t), g.n, n)[2]


@lru_cache(maxsize=None)
def _pairs_of(N: int) -> tuple[tuple[int, int], ...]:
    """Pairs of range(N) ordered by colex rank."""
    return tuple(iter_subsets_colex(N, 2))


def graph_from_edge_mask(N: int, mask: int) -> SimpleGraph:
    """Graph on N vertices whose edge set is the colex-rank bitmask ``mask``."""
    rows = [0] * N
    pairs = _pairs_of(N)
    while mask:
        low = mask & -mask
        u, v = pairs[low.bit_length() - 1]
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        mask ^= low
    return SimpleGraph(N, tuple(rows))


def g_oracle(n: int, s: int, t: int, n_max: int) -> OracleResult:
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

    def search(N: int):
        full = (1 << comb(N, 2)) - 1
        examined = 0
        for mask in range(full + 1):
            if s == t and mask > full ^ mask:
                continue
            examined += 1
            g = graph_from_edge_mask(N, mask)
            if _first_unbalanced(g, n, s, t) is None:
                return g, examined
        return None, examined

    return _least_level(n, n_max, search)


# -- good sets and the f oracle ---------------------------------------------


def _superset_mask(N: int, k: int, S: tuple[int, ...]) -> int:
    """Mask of the k-subsets of range(N) containing the sorted subset S."""
    rest = [v for v in range(N) if v not in S]
    buf = bytearray((comb(N, k) + 7) >> 3)
    for extra in combinations(rest, k - len(S)):
        r = subset_rank(tuple(sorted(S + extra)))
        buf[r >> 3] |= 1 << (r & 7)
    return int.from_bytes(buf, "little")


def _good_set_rows(N: int, k: int, n: int, s: int, t: int):
    """(U, A, B) per n-subset U in colex order: A and B hold the superset masks
    of the s- and of the t-subsets of U.  U is good when every mask of A meets
    a red bit or every mask of B meets a blue bit.
    """
    for U in iter_subsets_colex(N, n):
        yield (U, tuple(_superset_mask(N, k, S) for S in combinations(U, s)),
               tuple(_superset_mask(N, k, T) for T in combinations(U, t)))


@lru_cache(maxsize=None)  # the f oracle scans one table with every coloring
def _good_set_table(N: int, k: int, n: int, s: int, t: int):
    return tuple(_good_set_rows(N, k, n, s, t))


def _first_good_set(bits: int, rows) -> Optional[tuple[int, ...]]:
    for U, a_masks, b_masks in rows:
        if all(~bits & m for m in a_masks) or all(bits & m for m in b_masks):
            return U
    return None


def good_set_witness(
    chi: KSubsetColoring, params: RamseyParams
) -> Optional[tuple[int, ...]]:
    """First (colex) n-subset that is good for the coloring, ascending, or None.

    Good means: every s-subset lies in at least one red k-subset of the
    whole ground set, or every t-subset lies in at least one blue one.
    """
    if params.k != chi.k:
        raise ValueError(f"params.k={params.k} does not match coloring k={chi.k}")
    if params.N is not None and params.N != chi.N:
        raise ValueError("params.N does not match the coloring ground set")
    if not params.k <= params.n <= chi.N:
        raise ValueError("need k <= n <= N")
    # word-sized masks: the cached table, as the f oracle uses; larger: built lazily
    table = _good_set_table if chi.subset_count <= 64 else _good_set_rows
    rows = table(chi.N, chi.k, params.n, params.s, params.t)
    return _first_good_set(chi.bits, rows)


def f_oracle(params: RamseyParams, n_max: int) -> OracleResult:
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

    def search(N: int):
        table = _good_set_table(N, k, n, s, t)
        colorings = 1 << comb(N, k)
        for bits in range(colorings):
            if _first_good_set(bits, table) is None:
                return KSubsetColoring(N, k, bits), bits + 1
        return None, colorings

    return _least_level(n, n_max, search)


# -- the two directions of the equivalence ----------------------------------


def coloring_to_graph(
    chi: KSubsetColoring, s: int, t: int, tie_break: str = "nonedge"
) -> SimpleGraph:
    """Graph on [N] whose unbalanced sets witness good sets of ``chi``.

    A pair {x, y} is forced to be an edge when some s-superset S of it has
    all its k-supersets blue, and forced to be a non-edge when some
    t-superset T has all its k-supersets red; each search stops at the
    first such S or T.  Since |S ∪ T| <= s+t-2 = k, a k-superset of S ∪ T
    would have to be both colors, so the two forcing rules are mutually
    exclusive — this is asserted per pair and a failure raises
    ConsistencyError (an implementation bug, not an input error).
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
    colors = f"{chi.bits:0{comb(N, k)}b}"[::-1]  # colors[i] is bit i, read in O(1)

    def one_color(S, rest, color):  # every k-superset of S has this color
        others = [v for v in rest if v not in S] if len(S) < k else ()
        return all(colors[subset_rank(tuple(sorted(S + extra)))] == color
                   for extra in combinations(others, k - len(S)))

    rows = [0] * N
    for x, y in combinations(range(N), 2):
        rest = [v for v in range(N) if v != x and v != y] if k > 2 else ()
        forced_edge = any(one_color((x, y) + e, rest, "1") for e in combinations(rest, s - 2))
        forced_nonedge = any(one_color((x, y) + e, rest, "0") for e in combinations(rest, t - 2))
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
