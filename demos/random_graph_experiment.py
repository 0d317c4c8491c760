#!/usr/bin/env python3
"""Seeded random graphs and the bad-set counting experiment.

A "bad" n-subset of a graph misses a K_s or misses an independent t-set;
their abundance in G(N, p) at the right edge density p is what pushes the
lower bound on g(n, s, t).  Desk scale can only count, not prove, so this
script counts: exactly where feasible, by unbiased sampling beyond that.
"""

import math

import ramsat as rs


def main():
    print("== the edge density p(s, t) = (s/(2et)) log2(2et/s) ==")
    for s, t in [(2, 2), (2, 3), (3, 4), (2, 8)]:
        print(f"  p({s},{t}) = {rs.lower_bound_p(s, t):.6f}")

    print()
    print("== seeded sampling is reproducible ==")
    params = rs.GnpParams(N=30, p=rs.lower_bound_p(2, 3), seed=2024)
    g1, g2 = rs.sample_gnp(params), rs.sample_gnp(params)
    print(f"G({params.N}, {params.p:.4f}) with seed {params.seed}: "
          f"{g1.edge_count} edges, identical twice: {g1 == g2}")

    print()
    print("== counting bad 5-subsets of a 12-vertex sample ==")
    g = rs.sample_gnp(rs.GnpParams(12, 0.5, 3))
    exact = rs.count_bad_sets(g, 5, 3, 3)
    print(f"exact: {int(exact.value)} of {exact.space} subsets miss a K_3 "
          f"or an independent 3-set")
    for seed in (1, 2, 3):
        est = rs.count_bad_sets(g, 5, 3, 3, trials=2000, seed=seed)
        phat = est.hits / est.checked
        se = est.space * math.sqrt(phat * (1 - phat) / est.checked)
        print(f"sampled (seed {seed}): estimate {est.value:8.1f}   "
              f"off by {abs(est.value - exact.value) / se:.2f} standard errors")

    print()
    print("== a graph that is all bad, and one that is not bad at all ==")
    full = rs.count_bad_sets(rs.SimpleGraph.complete(10), 4, 2, 2)
    print(f"complete graph: {int(full.value)} / {full.space} (no independent pairs)")
    c5 = rs.count_bad_sets(
        rs.SimpleGraph.from_edges(5, [(v, (v + 1) % 5) for v in range(5)]), 5, 2, 2)
    print(f"5-cycle, n=5:   {int(c5.value)} / {c5.space} "
          "(the only 5-set has both an edge and a non-edge)")


if __name__ == "__main__":
    main()
