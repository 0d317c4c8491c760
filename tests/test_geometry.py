"""Finite geometry: primes, AG(2, q), slope families, incidence counting."""

import math
from itertools import combinations

import numpy as np
import pytest

import ramsat as rs


def test_prime_field_validation():
    rs.PrimeField(2)
    rs.PrimeField(1048573)
    for bad in (0, 1, 4, 6, 9, 1 << 21):
        with pytest.raises(ValueError):
            rs.PrimeField(bad)


def test_affine_plane_counts():
    plane2 = rs.build_affine_plane(2)
    assert plane2.point_count == 4 and len(plane2.lines) == 6
    plane3 = rs.build_affine_plane(3)
    assert plane3.point_count == 9 and len(plane3.lines) == 12
    assert all(len(plane3.point_to_lines[p]) == 4 for p in range(9))


def test_affine_plane_rejects_nonprime():
    with pytest.raises(ValueError):
        rs.build_affine_plane(4)


def test_affine_plane_pair_coverage_q5():
    plane = rs.build_affine_plane(5)
    for p1, p2 in combinations(range(25), 2):
        pair = (1 << p1) | (1 << p2)
        assert sum(1 for lmask in plane.line_masks if lmask & pair == pair) == 1


@pytest.mark.parametrize("q", [2, 3, 5, 7, 11])
def test_affine_plane_invariants(q):
    rs.build_affine_plane(q).validate()


def test_parallel_classes_partition():
    for q in (2, 3, 5):
        plane = rs.build_affine_plane(q)
        classes = rs.parallel_classes(plane)
        assert len(classes) == q + 1
        all_line_indices = [i for cls in classes for i in cls]
        assert sorted(all_line_indices) == list(range(q * q + q))
        for cls in classes:
            assert len(cls) == q
            covered = sorted(p for i in cls for p in plane.lines[i])
            assert covered == list(range(q * q))


def test_parallel_classes_q2_are_matchings():
    plane = rs.build_affine_plane(2)
    for cls in rs.parallel_classes(plane):
        pts = [plane.lines[i] for i in cls]
        assert len(pts) == 2 and not (set(pts[0]) & set(pts[1]))


def test_parallel_classes_wrong_kind():
    fam = rs.fq3_line_family(3, 0)
    with pytest.raises(ValueError):
        rs.parallel_classes(fam)


def test_fq3_family_q2():
    fam = rs.fq3_line_family(2, 0)
    assert len(fam.lines) == 8
    assert all(len(line) == 2 for line in fam.lines)
    assert all(len(fam.point_to_lines[p]) == 2 for p in range(8))


def test_fq3_family_q3_point_incidence():
    fam = rs.fq3_line_family(3, 1)
    assert len(fam.lines) == 27
    assert all(len(fam.point_to_lines[p]) == 3 for p in range(27))


@pytest.mark.parametrize("q", [2, 3, 5])
def test_fq3_family_invariants(q):
    for lam in range(q):
        rs.fq3_line_family(q, lam).validate()


@pytest.mark.parametrize("q", [2, 3, 5])
def test_fq3_families_pairwise_disjoint(q):
    line_sets = [set(rs.fq3_line_family(q, lam).lines) for lam in range(q)]
    for a, b in combinations(range(q), 2):
        assert not (line_sets[a] & line_sets[b])


def test_fq3_family_lambda_range():
    with pytest.raises(ValueError):
        rs.fq3_line_family(3, 3)
    with pytest.raises(ValueError):
        rs.fq3_line_family(3, -1)


def _structure(kind, q, lines, lam=None):
    return rs.IncidenceStructure(kind, q, tuple(tuple(line) for line in lines), lam)


def test_validate_rejects_line_of_wrong_size():
    lines = list(rs.build_affine_plane(3).lines)
    lines[0] = lines[0][:2]
    with pytest.raises(ValueError, match="distinct points"):
        _structure("affine-plane", 3, lines).validate()


def test_validate_rejects_pair_on_two_lines():
    # every point of this q = 2 "plane" is on 3 lines of 2, but {0, 1} is on two
    lines = [(0, 1), (0, 1), (2, 3), (2, 3), (0, 2), (1, 3)]
    with pytest.raises(ValueError, match="two lines"):
        _structure("affine-plane", 2, lines).validate()


def test_validate_rejects_affine_pair_on_no_line():
    # moving point 2 off the line {0, 1, 2} leaves {0, 2} and {1, 2} on no
    # line; by counting, that puts some other pair on two lines
    plane = rs.build_affine_plane(3)
    lines = [(0, 1, 5) if line == (0, 1, 2) else line for line in plane.lines]
    assert lines != list(plane.lines)
    with pytest.raises(ValueError):
        _structure("affine-plane", 3, lines).validate()


def test_validate_rejects_point_on_wrong_number_of_lines():
    # in the q = 2, lambda = 0 family, trade the line {3, 7} for {0, 3}: no
    # pair is on two lines, but point 0 is on 3 lines and point 7 on 1
    fam = rs.fq3_line_family(2, 0)
    lines = [(0, 3) if line == (3, 7) else line for line in fam.lines]
    assert lines != list(fam.lines)
    with pytest.raises(ValueError, match="point 0 on wrong number"):
        _structure("fq3-family", 2, lines, 0).validate()


def test_incidence_sum_full_plane():
    for q in (2, 3, 5):
        plane = rs.build_affine_plane(q)
        count, _ = rs.incidence_sum(plane, range(len(plane.lines)), range(q * q))
        assert count == (q * q + q) * q


def test_incidence_sum_single_line_against_its_class():
    plane = rs.build_affine_plane(5)
    classes = rs.parallel_classes(plane)
    line0 = plane.lines[classes[0][0]]
    count, bound = rs.incidence_sum(plane, classes[0], line0)
    assert count == 5
    assert bound < 0  # 5*5/5 - 2*sqrt(5)*sqrt(25)
    assert math.isclose(bound, 5.0 - 10.0 * math.sqrt(5))


def test_incidence_sum_seeded_q7_half_lines():
    plane = rs.build_affine_plane(7)
    classes = rs.parallel_classes(plane)
    family = [i for cls in classes[:4] for i in cls]  # 28 of 56 lines
    rng = np.random.Generator(np.random.PCG64(42))
    for _ in range(500):
        u = sorted(int(x) for x in rng.choice(49, size=20, replace=False))
        count, bound = rs.incidence_sum(plane, family, u)
        assert count >= bound


def test_incidence_sum_rejects_bad_indices():
    plane = rs.build_affine_plane(3)
    with pytest.raises(ValueError):
        rs.incidence_sum(plane, [99], [0])
    with pytest.raises(ValueError):
        rs.incidence_sum(plane, [0], [99])
