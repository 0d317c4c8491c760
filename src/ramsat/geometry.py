"""Prime fields, the affine plane AG(2, q), and slope-family line systems in F_q^3.

Two incidence structures are built here:

* the affine plane over F_q — q^2 points, q^2 + q lines of q points each,
  every point on q + 1 lines, any two points on exactly one line, lines
  grouped into q + 1 parallel classes;

* for each field element lam, the family of all lines in F_q^3 whose slope
  has the normalized form (1, lam, mu) — q^3 lines of q points each, every
  point on exactly q of them, any two points on at most one, and families
  for distinct lam sharing no line.

Point and line enumeration orders are fixed (lexicographic coordinates;
lines by parallel class / slope then base point) so constructions are
bit-for-bit reproducible.
"""

from __future__ import annotations

import math
from functools import cached_property

from .graphs import Value, mask_of

PRIME_CAP = 1 << 20

AFFINE_PLANE = "affine-plane"
FQ3_FAMILY = "fq3-family"


def is_prime(m: int) -> bool:
    if m < 2:
        return False
    if m < 4:
        return True
    if m % 2 == 0:
        return False
    f = 3
    while f * f <= m:
        if m % f == 0:
            return False
        f += 2
    return True


def require_prime(q: int) -> None:
    """Raise ValueError unless q is a prime <= 2^20, a field modulus F_q."""
    if q > PRIME_CAP:
        raise ValueError(f"modulus {q} exceeds cap {PRIME_CAP}")
    if not is_prime(q):
        raise ValueError(f"{q} is not prime")


class IncidenceStructure(Value):
    """A line system over F_q, given by its lines of sorted point indices.

    ``kind`` is ``"affine-plane"`` (q^2 points) or ``"fq3-family"`` (q^3
    points); the latter carries the slope-family parameter ``lam``.  The
    point count and the inverse point -> lines index follow from these.
    """

    _fields = ("kind", "q", "lines", "lam")

    def __init__(self, kind: str, q: int, lines: tuple[tuple[int, ...], ...],
                 lam: int | None = None):
        self.__dict__.update(kind=kind, q=q, lines=lines, lam=lam)

    @property
    def point_count(self) -> int:
        return self.q ** (2 if self.kind == AFFINE_PLANE else 3)

    @cached_property
    def line_masks(self) -> tuple[int, ...]:
        return tuple(mask_of(line) for line in self.lines)

    @cached_property
    def point_to_lines(self) -> tuple[tuple[int, ...], ...]:
        p2l: list[list[int]] = [[] for _ in range(self.point_count)]
        for i, line in enumerate(self.lines):
            for p in line:
                p2l[p].append(i)
        return tuple(tuple(ls) for ls in p2l)

    def validate(self) -> None:
        """Run the full invariant suite; raises ValueError on any failure.

        Per point, the masks of its lines (less the point) are ORed, and a
        bit set twice is a pair on two common lines.  An affine plane needs
        no further check that every pair lies on a line: q^2 + q lines of q
        points, no pair twice, cover exactly the C(q^2, 2) pairs.
        """
        q, n = self.q, self.point_count
        if self.kind == AFFINE_PLANE:
            line_count, per_point, lams = q * q + q, q + 1, (None,)
        elif self.kind == FQ3_FAMILY:
            line_count, per_point, lams = q**3, q, range(q)
        else:
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.lam not in lams:
            raise ValueError(f"{self.kind} over F_{q} cannot have lambda {self.lam}")
        if len(self.lines) != line_count:
            raise ValueError(f"{self.kind} needs {line_count} lines, got {len(self.lines)}")
        masks = self.line_masks
        if any(m.bit_count() != q or m >> n for m in masks):
            raise ValueError(f"a line is not {q} distinct points below {n}")
        for p, on in enumerate(self.point_to_lines):
            if len(on) != per_point:
                raise ValueError(f"point {p} on wrong number of lines")
            others = 0
            for i in on:
                line = masks[i] ^ (1 << p)
                if others & line:
                    raise ValueError(f"point {p} shares two lines with another point")
                others |= line


def build_affine_plane(q: int) -> IncidenceStructure:
    """The affine plane AG(2, q) for prime q.

    Point (x, y) gets index x*q + y.  Lines are enumerated by parallel
    class then intercept: class m in 0..q-1 holds the lines y = m*x + b
    (b = 0..q-1), and class q holds the vertical lines x = c.  Line index
    is class*q + intercept.
    """
    require_prime(q)
    lines: list[tuple[int, ...]] = []
    for m in range(q):
        for b in range(q):
            lines.append(tuple(x * q + (m * x + b) % q for x in range(q)))
    for c in range(q):
        lines.append(tuple(c * q + y for y in range(q)))
    return IncidenceStructure(AFFINE_PLANE, q, tuple(lines))


def parallel_classes(plane: IncidenceStructure) -> list[list[int]]:
    """The q+1 parallel classes of an affine plane, as line-index lists.

    Classes follow the construction order of ``build_affine_plane``; each
    class partitions the point set.
    """
    if plane.kind != AFFINE_PLANE:
        raise ValueError(f"parallel classes need an affine plane, got {plane.kind!r}")
    q = plane.q
    return [[c * q + b for b in range(q)] for c in range(q + 1)]


def fq3_line_family(q: int, lam: int) -> IncidenceStructure:
    """All lines of F_q^3 with slope (1, lam, mu) for some mu.

    Point (x0, x1, x2) gets index x0*q^2 + x1*q + x2.  Every line of the
    family meets the plane x0 = 0 in exactly one point, so (mu, v1, v2),
    the slope parameter and that base point, names each line once; lines
    are enumerated in that order, and their distinctness is asserted.
    """
    require_prime(q)
    if not 0 <= lam < q:
        raise ValueError(f"lambda {lam} outside [0, {q})")
    q2 = q * q
    lines = tuple(
        tuple(beta * q2 + ((v1 + beta * lam) % q) * q + (v2 + beta * mu) % q for beta in range(q))
        for mu in range(q) for v1 in range(q) for v2 in range(q)
    )
    if len(set(lines)) != q**3:
        raise ValueError(f"expected {q**3} distinct lines, got {len(set(lines))}")
    return IncidenceStructure(FQ3_FAMILY, q, lines, lam)


def incidence_sum(
    structure: IncidenceStructure, family, u
) -> tuple[int, float]:
    """Total incidences between a line family and a point set, with its lower bound.

    Returns ``(count, bound)`` where count = sum over lines of |line ∩ U|
    and bound = |U|·|F|/q − 2·sqrt(q)·sqrt(|U|·|F|).  The caller compares
    the two; for families that are unions of parallel classes the count
    equals |U|·|F|/q exactly, so the bound always holds there.  F and U are
    sets, so a repeated index raises ValueError.
    """
    family = list(family)
    if any(not 0 <= i < len(structure.lines) for i in family):
        raise ValueError("line index out of range")
    members = list(u)
    if any(not 0 <= p < structure.point_count for p in members):
        raise ValueError("point index out of range")
    if len(set(family)) < len(family) or len(set(members)) < len(members):
        raise ValueError("the bound is about sets: a line or point index repeats")
    umask = mask_of(members)
    masks = structure.line_masks
    count = sum((masks[i] & umask).bit_count() for i in family)
    usize = len(members)
    fsize = len(family)
    bound = usize * fsize / structure.q - 2.0 * math.sqrt(structure.q) * math.sqrt(usize * fsize)
    return count, bound
