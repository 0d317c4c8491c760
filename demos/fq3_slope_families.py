#!/usr/bin/env python3
"""The slope-family line systems of F_q^3 and the partial coloring they induce.

For each field element lam, take every line whose direction normalizes to
(1, lam, mu).  Each family has exactly q^3 lines, covers every point
exactly q times, never repeats a point pair, and shares no line with any
other family — so the first r families give r edge-disjoint graphs on q^3
vertices, a partial coloring completed round-robin.
"""

import ramsat as rs


def main():
    q = 3
    print(f"== slope families over F_{q}^3 ==")
    for lam in range(q):
        fam = rs.fq3_line_family(q, lam)
        per_point = {len(fam.point_to_lines[p]) for p in range(q**3)}
        print(f"lambda={lam}: {len(fam.lines)} lines, every point on {per_point} of them")
        fam.validate()

    print()
    a, b = rs.fq3_line_family(q, 0), rs.fq3_line_family(q, 2)
    shared = set(a.lines) & set(b.lines)
    print(f"lines shared between lambda=0 and lambda=2: {len(shared)}")

    print()
    print(f"== coloring K_{q**3} from the families ==")
    pattern = rs.fq3_coloring(q, q)
    core = rs.fq3_core(q, q)
    print("core class edge counts:", [cls.edge_count for cls in core.classes])
    print("completed class edge counts:", [cls.edge_count for cls in pattern.classes])
    uncovered = sum(cls.edge_count for cls in pattern.classes) - sum(
        cls.edge_count for cls in core.classes
    )
    print(f"pairs no family covers (directions with first coordinate 0): {uncovered}")

    print()
    print("a line of the first family is a monochromatic K_3 of color 1:")
    line = rs.fq3_line_family(q, 0).lines[0]
    print("  line", line, "->",
          all(pattern.classes[0].has_edge(u, v) for u in line for v in line if u < v))


if __name__ == "__main__":
    main()
