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
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .graphs import mask_of

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


@dataclass(frozen=True)
class PrimeField:
    """The field of integers modulo a prime q (primality checked, q <= 2^20)."""

    q: int

    def __post_init__(self):
        if self.q > PRIME_CAP:
            raise ValueError(f"modulus {self.q} exceeds cap {PRIME_CAP}")
        if not is_prime(self.q):
            raise ValueError(f"{self.q} is not prime")


@dataclass(frozen=True)
class IncidenceStructure:
    """Points and lines with an inverse point -> lines index.

    ``kind`` is ``"affine-plane"`` or ``"fq3-family"``; the latter carries
    the slope-family parameter ``lam``.  Lines store sorted point indices.
    """

    kind: str
    q: int
    point_count: int
    lines: tuple[tuple[int, ...], ...]
    point_to_lines: tuple[tuple[int, ...], ...]
    lam: Optional[int] = None

    @classmethod
    def from_lines(
        cls, kind: str, q: int, point_count: int, lines, lam: Optional[int] = None
    ) -> "IncidenceStructure":
        """The structure with these lines, its point -> lines index built here."""
        p2l: list[list[int]] = [[] for _ in range(point_count)]
        for i, line in enumerate(lines):
            for p in line:
                p2l[p].append(i)
        return cls(kind, q, point_count, tuple(lines), tuple(tuple(ls) for ls in p2l), lam)

    @cached_property
    def line_masks(self) -> tuple[int, ...]:
        return tuple(mask_of(line) for line in self.lines)

    def validate(self) -> None:
        """Run the full invariant suite; raises ValueError on any failure."""
        q = self.q
        for line in self.lines:
            if len(line) != q:
                raise ValueError("line with wrong point count")
        if self.kind == AFFINE_PLANE:
            if self.point_count != q * q or len(self.lines) != q * q + q:
                raise ValueError("affine plane has wrong counts")
            expected_per_point = q + 1
        elif self.kind == FQ3_FAMILY:
            if self.point_count != q**3 or len(self.lines) != q**3:
                raise ValueError("slope family has wrong counts")
            expected_per_point = q
        else:
            raise ValueError(f"unknown kind {self.kind!r}")
        for p in range(self.point_count):
            if len(self.point_to_lines[p]) != expected_per_point:
                raise ValueError(f"point {p} on wrong number of lines")
        # pairwise incidence: count common lines per point pair
        seen: dict[tuple[int, int], int] = {}
        for line in self.lines:
            for i in range(len(line)):
                for j in range(i + 1, len(line)):
                    pair = (line[i], line[j])
                    seen[pair] = seen.get(pair, 0) + 1
                    if seen[pair] > 1:
                        raise ValueError(f"points {pair} on two common lines")
        if self.kind == AFFINE_PLANE and len(seen) != self.point_count * (self.point_count - 1) // 2:
            raise ValueError("some point pair lies on no line")


def build_affine_plane(q: int) -> IncidenceStructure:
    """The affine plane AG(2, q) for prime q.

    Point (x, y) gets index x*q + y.  Lines are enumerated by parallel
    class then intercept: class m in 0..q-1 holds the lines y = m*x + b
    (b = 0..q-1), and class q holds the vertical lines x = c.  Line index
    is class*q + intercept.
    """
    PrimeField(q)
    lines: list[tuple[int, ...]] = []
    for m in range(q):
        for b in range(q):
            lines.append(tuple(sorted(x * q + (m * x + b) % q for x in range(q))))
    for c in range(q):
        lines.append(tuple(c * q + y for y in range(q)))
    return IncidenceStructure.from_lines(AFFINE_PLANE, q, q * q, lines)


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
    family meets the plane x0 = 0 in exactly one point, so lines are
    enumerated by slope parameter mu then that base point (v1, v2); the
    many-to-one (slope, base)-representations collapse onto this canonical
    choice, and the dedup by sorted point set is asserted.
    """
    PrimeField(q)
    if not 0 <= lam < q:
        raise ValueError(f"lambda {lam} outside [0, {q})")
    q2 = q * q
    lines: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    for mu in range(q):
        for v1 in range(q):
            for v2 in range(q):
                pts = tuple(
                    sorted(
                        beta * q2 + ((v1 + beta * lam) % q) * q + (v2 + beta * mu) % q
                        for beta in range(q)
                    )
                )
                if pts in seen:
                    continue
                seen.add(pts)
                lines.append(pts)
    if len(lines) != q**3:
        raise ValueError(f"expected {q**3} distinct lines, got {len(lines)}")
    return IncidenceStructure.from_lines(FQ3_FAMILY, q, q**3, lines, lam)


def incidence_sum(
    structure: IncidenceStructure, family, u
) -> tuple[int, float]:
    """Total incidences between a line family and a point set, with its lower bound.

    Returns ``(count, bound)`` where count = sum over lines of |line ∩ U|
    and bound = |U|·|F|/q − 2·sqrt(q)·sqrt(|U|·|F|).  The caller compares
    the two; for families that are unions of parallel classes the count
    equals |U|·|F|/q exactly, so the bound always holds there.
    """
    family = list(family)
    if any(not 0 <= i < len(structure.lines) for i in family):
        raise ValueError("line index out of range")
    members = list(u)
    if any(not 0 <= p < structure.point_count for p in members):
        raise ValueError("point index out of range")
    umask = mask_of(members)
    masks = structure.line_masks
    count = sum((masks[i] & umask).bit_count() for i in family)
    usize = len(members)
    fsize = len(family)
    bound = usize * fsize / structure.q - 2.0 * math.sqrt(structure.q) * math.sqrt(usize * fsize)
    return count, bound
