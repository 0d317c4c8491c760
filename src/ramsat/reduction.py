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

Both oracles take n, s, t (and f_oracle its k, always given) as plain ints,
walk N upward through one loop and return an ``OracleResult``;
``good_set_witness`` reads k and N off the coloring.  Vertex sets come back
as ascending tuples.

The oracles do not test their candidates (edge masks or colorings) one at
a time.  They bit-slice them (Biham, FSE 1997): a block of 2^B consecutive
candidates is held as one int per candidate bit, plane i, whose bit j is
bit i of the block's candidate j.  AND, OR and complement of planes then
evaluate the level's whole predicate for every candidate of the block at
once, and the lowest set bit of the result is the first counterexample.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import combinations
from math import comb
from operator import and_, or_

from .errors import BudgetError, ConsistencyError
from .graphs import (
    SimpleGraph,
    Value,
    balance_tests,
    find_clique_mask,
    gosper_next,
    iter_bits,
    iter_subsets_colex,
    scan_colex,
    subset_rank,
)

RED = 0
BLUE = 1

COLORING_BIT_CAP = 1 << 24
G_ORACLE_VERTEX_CAP = 8
F_ORACLE_SUBSET_CAP = 20
SUPERSET_CACHE_BITS = 1 << 27  # 16 MB of cached superset masks
BLOCK_BITS = 16  # an oracle decides 2^16 candidates at once, on 8 KB planes


# -- domain types ----------------------------------------------------------


def _comb_upto(N: int, k: int, cap: int) -> int | None:
    """C(N, k), or None when it exceeds ``cap``, never computing a larger binomial.

    With j = min(k, N - k) the partial products C(N - j + i, i), i = 1..j,
    at least double at each step, so the loop stops soon after ``cap``.
    """
    j = min(k, N - k)
    m = int(j >= 0)
    for i in range(1, j + 1):
        m = m * (N - j + i) // i
        if m > cap:
            return None
    return m


def coloring_bit_count(N: int, k: int) -> int:
    """C(N, k), the bit count of a k-subset coloring of [N], capped.

    Raises ValueError when it exceeds ``COLORING_BIT_CAP``.
    """
    if k < 0 or N < 0:
        raise ValueError("N and k must be non-negative")
    m = _comb_upto(N, k, COLORING_BIT_CAP)
    if m is None:
        raise ValueError(f"C({N},{k}) exceeds cap {COLORING_BIT_CAP}")
    return m


class KSubsetColoring(Value):
    """Red/blue assignment to all k-subsets of [N], bit-packed by colex rank.

    Bit value 0 is red, 1 is blue; bit i of ``bits`` is the color of the
    rank-i subset.
    """

    _fields = ("N", "k", "bits")

    def __init__(self, N: int, k: int, bits: int):
        if bits < 0:
            raise ValueError(f"color bits {bits} are negative")
        if bits >> coloring_bit_count(N, k):
            raise ValueError("color bits extend past C(N, k)")
        self.__dict__.update(N=N, k=k, bits=bits)

    @property
    def subset_count(self) -> int:
        return comb(self.N, self.k)


class OracleResult(Value):
    """What ``g_oracle`` or ``f_oracle`` found up to its ``n_max``.

    ``value`` is the least N with no counterexample, or None when none was
    found; ``witness`` the counterexample on value - 1 (or n_max) points;
    ``checked`` the graphs or colorings examined.
    """

    _fields = ("value", "witness", "checked")

    def __init__(self, value: int | None, witness: object | None, checked: int):
        self.__dict__.update(value=value, witness=witness, checked=checked)


def _levels(n: int, n_max: int) -> range:
    """The levels N = max(1, n - 1) .. ``n_max`` an oracle searches; ValueError when none."""
    first = max(1, n - 1)
    if n_max < first:
        raise ValueError(f"need n_max >= max(1, n - 1) = {first}, got n_max={n_max}")
    return range(first, n_max + 1)


def _least_level(levels: range, search) -> OracleResult:
    """The least N in ``levels`` where ``search`` finds nothing.

    ``search(N)`` returns ``(counterexample, examined)``, the counterexample
    None when there is none on N points.  The witness is the counterexample
    of the last level that had one.
    """
    checked = 0
    witness = None
    for N in levels:
        counterexample, examined = search(N)
        checked += examined
        if counterexample is None:
            return OracleResult(N, witness, checked)
        witness = counterexample
    return OracleResult(None, witness, checked)


# -- unbalanced sets and the g oracle ---------------------------------------


def has_unbalanced_set(
    g: SimpleGraph, n: int, s: int, t: int
) -> tuple[int, ...] | None:
    """First (colex) n-subset missing a K_s or missing an independent t-set.

    Returns it ascending, or None when every n-subset contains both.  The
    scan is exact, so ``scan_colex`` refuses graphs past 64 vertices.
    """
    if not 0 < n <= g.n:
        raise ValueError(f"subset size {n} outside [1, {g.n}]")
    if s < 2 or t < 2:
        raise ValueError("need s, t >= 2")
    first = scan_colex(balance_tests(g, s, t), g.n, n)[2]
    return None if first is None else tuple(iter_bits(first))


def graph_from_edge_mask(N: int, mask: int) -> SimpleGraph:
    """Graph on N vertices whose edge set is the colex-rank bitmask ``mask``."""
    if mask < 0:
        raise ValueError(f"edge mask {mask} is negative")
    if mask >> comb(N, 2):
        raise ValueError(f"edge mask has bits past the C({N},2) pairs")
    rows = [0] * N
    for v in range(1, N):  # the pairs (u, v), u < v, hold the ranks C(v, 2) + u
        lower = mask >> comb(v, 2) & ((1 << v) - 1)
        rows[v] |= lower
        for u in iter_bits(lower):
            rows[u] |= 1 << v
    return SimpleGraph(N, tuple(rows))


@lru_cache(maxsize=None)
def _periodic_planes(B: int) -> tuple[int, ...]:
    """Planes i < B of a block of 2^B candidates: bit j of plane i is bit i of j."""
    ones = (1 << (1 << B)) - 1
    return tuple((((1 << (1 << i)) - 1) << (1 << i)) * (ones // ((1 << (2 << i)) - 1))
                 for i in range(B))


def _first_hit(L: int, count_bits: int, ones, zeros, rows):
    """(first, examined) over the L-bit candidates 0 .. 2^count_bits - 1.

    A candidate is a hit when every row (A, Z) has an a in A whose bits
    ``ones[a]`` are all set and a z in Z whose bits ``zeros[z]`` are all
    clear.  Blocks of 2^B candidates, B = min(count_bits, ``BLOCK_BITS``),
    are decided on planes: bit j of plane i is bit i of candidate
    h·2^B + j, a fixed periodic pattern for i < B and all ones or 0 (bit
    i - B of h) for i >= B.  ``first`` is the least hit or None;
    ``examined`` counts the candidates up to it, or all of them.
    """
    B = min(count_bits, BLOCK_BITS)
    full = (1 << (1 << B)) - 1
    periodic = list(_periodic_planes(B))
    for h in range(1 << (count_bits - B)):
        planes = periodic + [full if h >> (i - B) & 1 else 0 for i in range(B, L)]
        comp = [full ^ p for p in planes]
        set_all = [reduce(and_, [planes[i] for i in a], full) for a in ones]
        clear_all = [reduce(and_, [comp[i] for i in z], full) for z in zeros]
        hits = full
        for A, Z in rows:
            hits &= (reduce(or_, [set_all[a] for a in A], 0)
                     & reduce(or_, [clear_all[z] for z in Z], 0))
            if not hits:
                break
        if hits:
            first = (h << B) + (hits & -hits).bit_length() - 1
            return first, first + 1
    return None, 1 << count_bits


def _sub_ranks(N: int, m: int, j: int) -> list[list[int]]:
    """Per m-subset of range(N) in colex order, the colex ranks of its j-subsets."""
    return [[subset_rank(S) for S in combinations(M, j)] for M in iter_subsets_colex(N, m)]


def g_oracle(n: int, s: int, t: int, n_max: int) -> OracleResult:
    """Exhaustively compute g(n, s, t) for candidates N <= n_max.

    For each N (ascending from n-1, where the claim is vacuously refuted by
    any graph) the graphs are the 2^C(N,2) edge bitmasks in ascending
    order, and the first counterexample — a graph in which every n-subset
    contains both a K_s and an independent t-set — is kept as the witness
    for that level.  Complement pairing halves the scan when s = t: only
    masks below 2^(C(N,2)-1), those with mask <= its complement, are
    examined; for s != t the complement swaps the two roles, so no halving
    is applied.  The answer is the first N with no counterexample.

    Each level is decided for a block of up to 2^16 graphs at once, on
    bit-planes: plane e has bit j set when graph j of the block has edge e.
    K_S, the AND of the planes of S's pairs, marks the graphs in which S is
    a clique, and I_T, the AND of the complemented planes of T's pairs, those
    in which T is independent; the counterexamples are the AND over n-sets U
    of (OR of K_S, S in U) & (OR of I_T, T in U).  Only the witness becomes a
    ``SimpleGraph``.  Needs s, t, n >= 2 and n - 1 <= n_max <= 8.
    """
    if s < 2 or t < 2:
        raise ValueError("need s, t >= 2")
    if n < 2:
        raise ValueError("need n >= 2")
    levels = _levels(n, n_max)
    if n_max > G_ORACLE_VERTEX_CAP:
        raise BudgetError(f"g oracle capped at n_max <= {G_ORACLE_VERTEX_CAP}")

    def search(N: int):
        L = comb(N, 2)
        rows = list(zip(_sub_ranks(N, n, s), _sub_ranks(N, n, t)))
        mask, examined = _first_hit(L, L - 1 if s == t and L else L,
                                    _sub_ranks(N, s, 2), _sub_ranks(N, t, 2), rows)
        return (None if mask is None else graph_from_edge_mask(N, mask)), examined

    return _least_level(levels, search)


# -- good sets and the f oracle ---------------------------------------------


_superset_masks: dict[tuple[int, int, tuple[int, ...]], int] = {}
_superset_mask_bits = 0  # total bits of the masks held in _superset_masks


def _superset_mask(N: int, k: int, S: tuple[int, ...]) -> int:
    """Mask of the k-subsets of range(N) containing the sorted subset S.

    Masks are cached by (N, k, S).  The cache holds at most
    ``SUPERSET_CACHE_BITS`` mask bits in all and is emptied when the next
    mask would pass that, so a 2^24-bit coloring's 2 MB masks cannot fill
    memory.
    """
    global _superset_mask_bits
    key = (N, k, S)
    mask = _superset_masks.get(key)
    if mask is not None:
        return mask
    rest = [v for v in range(N) if v not in S]
    size = comb(N, k)
    buf = bytearray((size + 7) >> 3)
    for extra in combinations(rest, k - len(S)):
        r = subset_rank(tuple(sorted(S + extra)))
        buf[r >> 3] |= 1 << (r & 7)
    mask = int.from_bytes(buf, "little")
    if _superset_mask_bits + size > SUPERSET_CACHE_BITS:
        _superset_masks.clear()
        _superset_mask_bits = 0
    if size <= SUPERSET_CACHE_BITS:
        _superset_masks[key] = mask
        _superset_mask_bits += size
    return mask


def good_set_witness(
    chi: KSubsetColoring, n: int, s: int, t: int
) -> tuple[int, ...] | None:
    """First (colex) n-subset that is good for the coloring, ascending, or None.

    Good means: every s-subset lies in at least one red k-subset of the
    whole ground set, or every t-subset lies in at least one blue one.  k
    and N are the coloring's own.  Superset masks are looked up lazily, so
    the scan builds none past the first good set.
    """
    k, N, bits = chi.k, chi.N, chi.bits
    if not (2 <= s <= k and 2 <= t <= k):
        raise ValueError(f"need 2 <= s, t <= k = {k}, got s={s}, t={t}")
    if not k <= n <= N:
        raise ValueError(f"need k <= n <= N, got n={n}, k={k}, N={N}")
    for U in iter_subsets_colex(N, n):
        if (all(~bits & _superset_mask(N, k, S) for S in combinations(U, s))
                or all(bits & _superset_mask(N, k, T) for T in combinations(U, t))):
            return U
    return None


def f_oracle(n: int, s: int, t: int, k: int, n_max: int) -> OracleResult:
    """Exhaustively compute f_k(n, s, t) for candidates N <= n_max.

    Needs s, t >= 2, max(s, t) <= k <= n and n_max >= n - 1; k = s + t - 2
    is where the coloring and graph problems coincide.  For each N all
    2^C(N,k) colorings are taken by ascending bit value; the first with no
    good n-subset is the counterexample keeping the search going.  The
    first N where every coloring admits a good n-subset is the value.
    Capped at C(n_max, k) <= 20 color positions.

    Each level is decided for a block of up to 2^16 colorings at once, on
    bit-planes: plane r has bit j set when coloring j of the block colors
    the rank-r k-subset blue.  The AND of the planes of S's k-supersets
    marks the colorings in which S lies in no red k-subset, and the AND of
    the complemented planes of T's k-supersets those in which T lies in no
    blue one; U is not good where some s-subset of U lies in no red k-subset
    and some t-subset in no blue one, so the counterexamples are the AND over
    n-sets U of the OR of the first over S in U and the OR of the second
    over T in U.  This is the g oracle's form, with k-supersets in place of
    the pairs inside S and T.
    """
    if s < 2 or t < 2:
        raise ValueError("need s, t >= 2")
    if k < max(s, t):
        raise ValueError(f"need k >= max(s, t), got k={k}")
    if n < k:
        raise ValueError(f"need n >= k, got n={n}, k={k}")
    levels = _levels(n, n_max)
    positions = _comb_upto(n_max, k, COLORING_BIT_CAP)  # None: too large to name
    if positions is None or positions > F_ORACLE_SUBSET_CAP:
        size = "" if positions is None else f" = {positions}"
        raise BudgetError(f"C({n_max},{k}){size} exceeds f-oracle cap {F_ORACLE_SUBSET_CAP}")

    def search(N: int):
        def supersets(m: int):  # per m-subset, the ranks of its k-supersets
            return [list(iter_bits(_superset_mask(N, k, S))) for S in iter_subsets_colex(N, m)]

        rows = list(zip(_sub_ranks(N, n, s), _sub_ranks(N, n, t)))
        L = comb(N, k)
        bits, examined = _first_hit(L, L, supersets(s), supersets(t), rows)
        return (None if bits is None else KSubsetColoring(N, k, bits)), examined

    return _least_level(levels, search)


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
    kmask = (1 << k) - 1  # the k-subset of colex rank ``rank``
    for rank in range(comb(g.n, k)):
        is_blue = find_clique_mask(rows, kmask, s) is not None
        is_red = find_clique_mask(comp_rows, kmask, t) is not None
        if is_blue and is_red:
            raise ConsistencyError(
                f"k-subset {tuple(iter_bits(kmask))} hosts both structures; "
                "graph transform is broken"
            )
        if is_blue or (not is_red and default_blue):
            bits |= 1 << rank
        kmask = gosper_next(kmask)
    return KSubsetColoring(g.n, k, bits)
