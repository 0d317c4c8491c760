"""The ``oracle`` and ``reduce`` commands (see ``cli``), both on ``reduction``."""

from __future__ import annotations

from pathlib import Path

from . import io
from .errors import BudgetError


def oracle_commands(sub) -> None:
    o_g = sub.add_parser("g", help="graph form g(n, s, t)")
    o_g.add_argument("--n", type=int, required=True)
    o_g.add_argument("--s", type=int, required=True)
    o_g.add_argument("--t", type=int, required=True)
    o_g.add_argument("--n-max", type=int, required=True)
    o_f = sub.add_parser("f", help="coloring form f_k(n, s, t)")
    o_f.add_argument("--n", type=int, required=True)
    o_f.add_argument("--s", type=int, required=True)
    o_f.add_argument("--t", type=int, required=True)
    o_f.add_argument("--k", type=int, default=None)
    o_f.add_argument("--n-max", type=int, required=True)


def reduce_commands(sub) -> None:
    r_c2g = sub.add_parser("chi-to-graph")
    r_c2g.add_argument("--in", dest="infile", type=Path, required=True)
    r_c2g.add_argument("--s", type=int, required=True)
    r_c2g.add_argument("--t", type=int, required=True)
    r_c2g.add_argument("--tie-break", choices=["nonedge", "edge"], default="nonedge")
    r_c2g.add_argument("--out", type=Path, default=None)
    r_g2c = sub.add_parser("graph-to-chi")
    r_g2c.add_argument("--in", dest="infile", type=Path, required=True)
    r_g2c.add_argument("--s", type=int, required=True)
    r_g2c.add_argument("--t", type=int, required=True)
    r_g2c.add_argument("--default", dest="default_color", choices=["red", "blue"], default="red")
    r_g2c.add_argument("--out", type=Path, default=None)


def handle_oracle(args, claim: str) -> io.Certificate:
    from . import reduction

    params = {"n": args.n, "s": args.s, "t": args.t, "n_max": args.n_max}
    if args.command == "f":
        params["k"] = args.s + args.t - 2 if args.k is None else args.k  # where f = g
    try:
        if args.command == "g":
            res = reduction.g_oracle(args.n, args.s, args.t, args.n_max)
        else:
            res = reduction.f_oracle(args.n, args.s, args.t, params["k"], args.n_max)
    except BudgetError as err:
        return io.unknown_certificate(claim, params, err)
    dump = io.dump_simple_graph if args.command == "g" else io.dump_ksubset_coloring
    witness = {"value": res.value, "counterexample": dump(res.witness) if res.witness else None}
    if args.command == "g":
        witness["counterexample_n"] = res.witness.n if res.witness else None
    if res.value is None:
        return io.unknown_certificate(claim, params, f"no value up to n_max={args.n_max}",
                                      witness, res.checked)
    return io.Certificate(claim, params, "holds", witness, res.checked)


def handle_reduce(args, claim: str) -> io.Certificate:
    from . import reduction

    params = {"in": str(args.infile), "s": args.s, "t": args.t}
    if args.command == "chi-to-graph":
        chi = io.parse_ksubset_coloring(args.infile.read_text())
        g = reduction.coloring_to_graph(chi, args.s, args.t, args.tie_break)
        return io.artifact_certificate(claim, {**params, "tie_break": args.tie_break},
                                       io.dump_simple_graph(g), chi.subset_count, args.out)
    g = io.parse_simple_graph(args.infile.read_text())
    chi = reduction.graph_to_coloring(g, args.s, args.t, args.default_color)
    return io.artifact_certificate(claim, {**params, "default": args.default_color},
                                   io.dump_ksubset_coloring(chi), chi.subset_count, args.out)
