#!/usr/bin/env python3
"""Color K_{q^2} by affine lines and watch the pigeonhole condition hold.

The affine plane over F_q has q^2 points and q^2 + q lines falling into
q + 1 parallel classes.  Dealing whole parallel classes to r colors makes
each color class a union of line-cliques, and because each family keeps a
full parallel class, any ceil(q^2/r) vertices put three points on a common
line of every family — a monochromatic triangle in every color.

Run with --full to decide all C(25, 13) = 5.2M subsets at q = 5.
"""

import argparse
from math import comb

import ramsat as rs


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--full", action="store_true",
                    help="run the exhaustive q=5 check (under a second)")
    ap.add_argument("--threads", type=int, default=1)
    args = ap.parse_args()

    print("== the affine plane AG(2, 3) ==")
    plane = rs.build_affine_plane(3)
    print(f"{plane.point_count} points, {len(plane.lines)} lines")
    for idx, cls in enumerate(rs.parallel_classes(plane)):
        print(f"  class {idx}: lines {cls} -> points "
              + " | ".join(str(plane.lines[i]) for i in cls))

    print()
    print("== coloring K_9 with two line families ==")
    pattern = rs.affine_coloring(3, 2, "parallel-balanced")
    print("class edge counts:", [cls.edge_count for cls in pattern.classes],
          "(together all", comb(9, 2), "pairs)")
    verdict = rs.check_observation(pattern, 3)
    print(f"every 5-subset has an edge in both classes: {verdict.holds}"
          f"  ({verdict.checked} subsets decided)")
    print("semisaturated for K_3:", rs.is_semisaturated(pattern, 3).holds)

    if args.full:
        print()
        print("== the q = 5 desk instance ==")
        big = rs.affine_coloring(5, 2, "parallel-balanced")
        verdict = rs.check_observation(big, 4, threads=args.threads)
        print(f"all C(25,13) = {comb(25, 13)} subsets contain a monochromatic "
              f"triangle in both classes: {verdict.holds}")
        print(f"({verdict.checked} subsets decided)")
    else:
        print()
        print("(--full runs the exhaustive q = 5, r = 2 triangle check)")


if __name__ == "__main__":
    main()
