"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
as they complete.  Each test asserts its exact values / zero-violation
claims and, where a wall-clock target is stated, that the target was met.
"""

import json
import math
import time
from contextlib import contextmanager
from itertools import combinations
from math import comb

import mpmath
import numpy as np

import ramsat as rs
from ramsat.cli import run as cli_run


@contextmanager
def _criterion(num: int, description: str, limit_s: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {num:02d} FAIL — {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"[acceptance] criterion {num:02d} PASS ({elapsed:.2f}s) — {description}")
    if limit_s is not None:
        assert elapsed < limit_s, f"criterion {num} exceeded {limit_s}s ({elapsed:.1f}s)"


def test_criterion_01_exact_ssat_2_k3(capsys):
    with _criterion(1, "ssat_2(K_3) = 4: none at n=3, witness at n=4", limit_s=1.0):
        code = cli_run(["search", "ssat", "--r", "2", "--k", "3", "--n", "3"])
        out3 = capsys.readouterr().out
        assert code == 1
        assert json.loads(out3)["verdict"] == "fails"
        code = cli_run(["search", "ssat", "--r", "2", "--k", "3", "--n", "4"])
        out4 = capsys.readouterr().out
        assert code == 0
        witness = rs.parse_colored_graph(json.loads(out4)["witness"]["pattern"])
        assert rs.is_semisaturated_direct(witness, 3).holds


def test_criterion_02_fq3_structure_properties():
    with _criterion(2, "slope families: q^3 lines, q per point, <=1 common, disjoint",
                    limit_s=5.0):
        for q in (2, 3, 5):
            families = [rs.fq3_line_family(q, lam) for lam in range(q)]
            for fam in families:
                assert len(fam.lines) == q**3  # exact line count
                assert all(len(fam.point_to_lines[p]) == q for p in range(q**3))
                fam.validate()  # includes: two points on at most one line
            for a, b in combinations(range(q), 2):
                assert not (set(families[a].lines) & set(families[b].lines))


def test_criterion_03_affine_desk_instance():
    with _criterion(
        3,
        "affine q=5 r=2: all C(25,13) subsets have a mono triangle per class",
        limit_s=120.0,
    ):
        pattern = rs.affine_coloring(5, 2, "parallel-balanced")
        # check_observation(k=4, r=2) is literally the claim: for both
        # classes and every ceil(25/2) = 13 subset, a K_3 inside the class
        verdict = rs.check_observation(pattern, 4, threads=2)
        assert verdict.holds and verdict.exhaustive
        assert verdict.checked == 2 * comb(25, 13)


def test_criterion_04_g_oracle_values():
    with _criterion(4, "g(3,2,2)=6 with a 5-cycle witness; g(2,2,2)=2; g(3,2,3)=3",
                    limit_s=60.0):
        res = rs.g_oracle(3, 2, 2, 6)
        assert res.value == 6
        w = res.witness
        assert res.witness.n == 5
        assert all(w.degree(v) == 2 for v in range(5))
        reached = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for u in range(5):
                if w.has_edge(u, v) and u not in reached:
                    reached.add(u)
                    stack.append(u)
        assert reached == set(range(5))  # 2-regular connected on 5 = C_5
        assert rs.g_oracle(2, 2, 2, 6).value == 2
        assert rs.g_oracle(3, 2, 3, 6).value == 3


def test_criterion_05_reduction_equality():
    with _criterion(5, "f_{s+t-2}(n,s,t) = g(n,s,t) at (3,2,3) and (4,2,3)",
                    limit_s=600.0):
        for n in (3, 4):
            fval = rs.f_oracle(n, 2, 3, 3, 6).value
            gval = rs.g_oracle(n, 2, 3, 6).value
            assert fval is not None and fval == gval


def test_criterion_06_exact_formula_k_eq_s_plus_t_minus_1():
    with _criterion(6, "k=s+t-1 formula: f_3(3,2,2)=3 and f_3(4,2,2)=5", limit_s=60.0):
        assert rs.f_oracle(3, 2, 2, 3, 6).value == 3 == 2 * 3 - 2 - 2 + 1
        assert rs.f_oracle(4, 2, 2, 3, 6).value == 5 == 2 * 4 - 2 - 2 + 1


def _seeded_patterns_500():
    for seed in range(500):
        n = 1 + seed % 6
        r = 2 + (seed // 6) % 2
        yield rs.random_complete_pattern(n, r, seed)


def test_criterion_07_dual_oracle_equivalence():
    with _criterion(7, "is_semisaturated == direct oracle on 500 seeded patterns"):
        disagreements = 0
        for pat in _seeded_patterns_500():
            a = rs.is_semisaturated(pat, 3)
            b = rs.is_semisaturated_direct(pat, 3)
            if a.holds != b.holds or a.witness != b.witness:
                disagreements += 1
        assert disagreements == 0


def test_criterion_08_observation_sufficiency():
    with _criterion(8, "check_observation holds => is_semisaturated holds"):
        violations = 0
        # criterion 3's instance (k = 4) and the q = 3 sibling (k = 3)
        for pattern, k in [
            (rs.affine_coloring(5, 2, "parallel-balanced"), 4),
            (rs.affine_coloring(3, 2, "parallel-balanced"), 3),
        ]:
            if rs.check_observation(pattern, k, threads=2).holds:
                if not rs.is_semisaturated(pattern, k).holds:
                    violations += 1
        # plus every seeded pattern from the dual-oracle pool
        for pat in _seeded_patterns_500():
            obs = rs.check_observation(pat, 3)
            if obs.holds and not rs.is_semisaturated(pat, 3).holds:
                violations += 1
        assert violations == 0


def test_criterion_09_turan_bound():
    with _criterion(9, "greedy independent set >= ceil(n^2/(n+2e)) on 1000 graphs"):
        violations = 0
        for seed in range(1000):
            n = 4 + seed % 37
            g = rs.sample_gnp(rs.GnpParams(n, (seed % 10) / 10.0, seed))
            out = rs.turan_independent_set(g)
            ok = all(not g.has_edge(u, v) for u, v in combinations(out, 2))
            if not ok or len(out) < rs.turan_bound(n, g.edge_count):
                violations += 1
        assert violations == 0


def test_criterion_10_incidence_inequality():
    with _criterion(10, "count >= bound on 1000 seeded (U, family) per q in {5,7,11}"):
        violations = 0
        for q in (5, 7, 11):
            plane = rs.build_affine_plane(q)
            classes = rs.parallel_classes(plane)
            rng = np.random.Generator(np.random.PCG64(q))
            for _ in range(1000):
                how_many = int(rng.integers(1, q + 2))
                picked = rng.choice(q + 1, size=how_many, replace=False)
                family = [i for c in picked for i in classes[int(c)]]
                usize = int(rng.integers(1, q * q + 1))
                u = [int(x) for x in rng.choice(q * q, size=usize, replace=False)]
                count, bound = rs.incidence_sum(plane, family, u)
                if count < bound:
                    violations += 1
        assert violations == 0


def test_criterion_11_random_graph_plumbing():
    with _criterion(11, "edge-probability closed form to 1e-12; sampler within 5 SE"):
        mpmath.mp.dps = 40
        for s, t in [(2, 2), (2, 3), (3, 4)]:
            x = 2 * mpmath.e * t / s
            want = float(mpmath.log(x, 2) / x)
            assert abs(rs.lower_bound_p(s, t) - want) < 1e-12
        g = rs.sample_gnp(rs.GnpParams(12, 0.5, 3))
        exact = rs.count_bad_sets(g, 5, 3, 3)
        for seed in range(20):
            est = rs.count_bad_sets(g, 5, 3, 3, trials=2000, seed=seed)
            phat = est.hits / est.checked
            se = est.space * math.sqrt(phat * (1 - phat) / est.checked)
            assert abs(est.value - exact.value) <= 5 * se


def test_criterion_12_saturated_pattern(c4_diagonals):
    with _criterion(12, "C_4/diagonals is (2,K_3)-saturated: sat_2(K_3) <= 4",
                    limit_s=1.0):
        assert rs.check_kkfree(c4_diagonals, 3).holds
        assert rs.is_semisaturated(c4_diagonals, 3).holds
        verdict = rs.is_saturated(c4_diagonals, 3)
        assert verdict.holds and verdict.exhaustive
