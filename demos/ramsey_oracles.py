#!/usr/bin/env python3
"""Walk through the two brute-force Ramsey oracles and the bridge between them.

g(n, s, t) asks for the smallest N such that every N-vertex graph has an
n-subset missing a K_s or missing an independent t-set.  f_k(n, s, t) asks
the analogous question for red-blue colorings of k-subsets.  At k = s+t-2
the two coincide, and at k = s+t-1 there is a closed form 2n - s - t + 1.
Everything below is verified by exhaustive enumeration at desk scale.
"""

import ramsat as rs


def main():
    print("== the graph oracle g(n, s, t) ==")
    for n, s, t in [(2, 2, 2), (3, 2, 3), (3, 2, 2)]:
        res = rs.g_oracle(n, s, t, 6)
        print(f"g({n},{s},{t}) = {res.value}   ({res.checked} graphs examined)")
    res = rs.g_oracle(3, 2, 2, 6)
    print("the g(3,2,2) witness on 5 vertices (every triple has an edge and a")
    print("non-edge; this forces the 5-cycle):")
    print("  degrees:", [res.witness.degree(v) for v in range(5)])

    print()
    print("== the coloring oracle f_k(n, s, t) ==")
    print("f_2(3,2,2) =", rs.f_oracle(rs.RamseyParams(3, 2, 2, k=2), 6).value,
          " (this is the classical Ramsey number R(3))")
    print("k = s+t-1 closed form 2n-s-t+1:")
    for n in (3, 4):
        val = rs.f_oracle(rs.RamseyParams(n, 2, 2, k=3), 6).value
        print(f"  f_3({n},2,2) = {val}   formula gives {2 * n - 3}")

    print()
    print("== the equality f_(s+t-2) = g ==")
    for n in (3, 4):
        fv = rs.f_oracle(rs.RamseyParams(n, 2, 3), 6).value
        gv = rs.g_oracle(n, 2, 3, 6).value
        print(f"  n={n}, s=2, t=3:  f = {fv},  g = {gv}")

    print()
    print("== both transform directions at work ==")
    g = rs.sample_gnp(rs.GnpParams(6, 0.5, 12))
    chi = rs.graph_to_coloring(g, 2, 3)
    print("graph -> coloring: C(6,3) =", chi.subset_count, "triples colored;")
    unbalanced = rs.has_unbalanced_set(g, 4, 2, 3)
    good = rs.good_set_witness(chi, rs.RamseyParams(4, 2, 3, N=6))
    print(f"  unbalanced 4-set of the graph: {unbalanced}")
    print(f"  good 4-set of the coloring:    {good}")
    back = rs.coloring_to_graph(chi, 2, 3)
    print("coloring -> graph: forced edges recovered,", back.edge_count, "edges")


if __name__ == "__main__":
    main()
