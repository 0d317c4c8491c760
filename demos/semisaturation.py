#!/usr/bin/env python3
"""Semisaturated patterns: checkers, the exhaustive search, reference bounds.

A complete r-edge-colored K_n is (r, K_k)-semisaturated when every new
vertex, however its edges are colored, completes a new monochromatic K_k.
The smallest such n for r = 2, k = 3 is 4, realized by the 4-cycle in one
color and its diagonals in the other — and that pattern is even saturated
(both classes are still triangle-free).
"""

import ramsat as rs


def main():
    print("== the 4-cycle / diagonals pattern ==")
    c4 = rs.SimpleGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    diag = rs.SimpleGraph.from_edges(4, [(0, 2), (1, 3)])
    pattern = rs.ColoredCompleteGraph(4, 2, (c4, diag), complete=True)
    print("semisaturated (pruned search):", rs.is_semisaturated(pattern, 3).holds)
    print("semisaturated (literal 2^4 enumeration):",
          rs.is_semisaturated_direct(pattern, 3).holds)
    print("saturated (classes also K_3-free):", rs.is_saturated(pattern, 3).holds)

    print()
    print("== a failing pattern and its escape ==")
    mono = rs.ColoredCompleteGraph(
        4, 2, (rs.SimpleGraph.complete(4), rs.SimpleGraph.empty(4)), complete=True
    )
    verdict = rs.is_semisaturated(mono, 3)
    print("all edges one color ->", verdict.holds,
          "| escaping edge coloring for a new vertex:", verdict.witness["colors"])

    print()
    print("== exhaustive search for ssat_2(K_3) ==")
    for n in (3, 4):
        res = rs.ssat_search(2, 3, n)
        print(f"n = {n}: {res.status}  ({res.nodes} nodes)")
        if res.pattern is not None:
            print("  witness classes:",
                  [sorted(cls.edges()) for cls in res.pattern.classes])
    print("lower-bound formula at (r=2, k=3):", rs.ssat_lower_bound_formula(2, 3))

    print()
    print("== reference bounds ==")
    print(" r  k  | (r-1)k^2-(3r-4)k+(2r-3)   recursion floor")
    for r in (2, 3, 4, 6, 10):
        for k in (3, 4):
            print(f" {r}  {k}  |        {rs.ssat_lower_bound_formula(r, k):4d}"
                  f"                    {rs.ssat_recursion_floor(r, k):4d}")

    print()
    print("(3, K_3) on at most six vertices is impossible; the bracket is open:")
    for n in range(1, 7):
        print(f"  search(3, 3, {n}):", rs.ssat_search(3, 3, n).status)
    print(f"  7 <= ssat_3(K_3) <= {rs.ssat_upper_bound_reference(3, 3)}"
          f"  (the formula alone gives {rs.ssat_lower_bound_formula(3, 3)})")


if __name__ == "__main__":
    main()
