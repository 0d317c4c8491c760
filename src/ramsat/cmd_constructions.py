"""The ``construct``, ``experiment`` and ``geom`` commands (see ``cli``)."""

from __future__ import annotations

from math import comb
from pathlib import Path

from . import io
from .errors import BudgetError, UsageError, refuse
from .graphs import GENERATOR_NAME


def construct_commands(sub) -> None:
    from . import constructions

    c_affine = sub.add_parser("affine", help="line coloring of K_{q^2}")
    c_affine.add_argument("--q", type=int, required=True)
    c_affine.add_argument("--r", type=int, required=True)
    c_affine.add_argument(
        "--strategy",
        choices=[constructions.PARALLEL_BALANCED, constructions.ROUND_ROBIN],
        default=constructions.PARALLEL_BALANCED,
    )
    c_affine.add_argument("--seed", type=int, default=None)
    c_affine.add_argument("--out", type=Path, default=None)
    c_fq3 = sub.add_parser("fq3", help="slope-family coloring of K_{q^3}")
    c_fq3.add_argument("--q", type=int, required=True)
    c_fq3.add_argument("--r", type=int, required=True)
    c_fq3.add_argument("--out", type=Path, default=None)
    c_gnp = sub.add_parser("gnp", help="seeded G(N, p) sample")
    c_gnp.add_argument("--n", type=int, required=True)
    c_gnp.add_argument("--p", type=float, required=True)
    c_gnp.add_argument("--seed", type=int, required=True)
    c_gnp.add_argument("--out", type=Path, default=None)


def experiment_commands(sub) -> None:
    e_bad = sub.add_parser("bad-sets")
    e_bad.add_argument("--in", dest="infile", type=Path, default=None)
    e_bad.add_argument("--gnp-n", type=int, default=None)
    e_bad.add_argument("--gnp-p", type=float, default=None)
    e_bad.add_argument("--gnp-seed", type=int, default=None)
    e_bad.add_argument("--n", type=int, required=True)
    e_bad.add_argument("--s", type=int, required=True)
    e_bad.add_argument("--t", type=int, required=True)
    e_bad.add_argument("--mode", choices=["exact", "sampled"], default="exact")
    e_bad.add_argument("--trials", type=int, default=None)
    e_bad.add_argument("--seed", type=int, default=None)
    e_bad.add_argument("--threads", type=int, default=1)


def geom_commands(sub) -> None:
    g_plane = sub.add_parser("plane")
    g_plane.add_argument("--q", type=int, required=True)
    g_plane.add_argument("--out", type=Path, default=None)
    g_fam = sub.add_parser("fq3-family")
    g_fam.add_argument("--q", type=int, required=True)
    g_fam.add_argument("--lambda", dest="lam", type=int, required=True)
    g_fam.add_argument("--out", type=Path, default=None)
    g_inc = sub.add_parser("incidence")
    g_inc.add_argument("--in", dest="infile", type=Path, required=True)
    g_inc.add_argument("--lines", type=str, required=True, help="comma-separated line indices")
    g_inc.add_argument("--points", type=str, required=True, help="comma-separated point indices")


def handle_construct(args, claim: str) -> io.Certificate:
    from . import constructions

    if args.command == "affine":
        if args.strategy == constructions.PARALLEL_BALANCED:
            refuse(args.seed, "--seed", "with --strategy parallel-balanced, which draws nothing")
        params = {"q": args.q, "r": args.r, "strategy": args.strategy}
        pattern = constructions.affine_coloring(args.q, args.r, args.strategy, args.seed)
        return io.artifact_certificate(claim, params, io.dump_colored_graph(pattern),
                                       comb(pattern.n, 2), args.out, args.seed)
    if args.command == "fq3":
        pattern = constructions.fq3_coloring(args.q, args.r)
        return io.artifact_certificate(claim, {"q": args.q, "r": args.r},
                                       io.dump_colored_graph(pattern), comb(pattern.n, 2), args.out)
    params = {"n": args.n, "p": args.p, "generator": GENERATOR_NAME}
    g = constructions.sample_gnp(constructions.GnpParams(args.n, args.p, args.seed))
    return io.artifact_certificate(claim, params, io.dump_simple_graph(g),
                                   comb(g.n, 2), args.out, args.seed)


def handle_experiment(args, claim: str) -> io.Certificate:
    from . import constructions

    if (args.infile is None) == (args.gnp_n is None):
        raise UsageError("bad-sets needs exactly one of --in or --gnp-n/--gnp-p/--gnp-seed")
    if args.mode == "exact":
        refuse(args.trials, "--trials", "in an exact count")
        refuse(args.seed, "--seed", "in an exact count")
    elif args.trials is None or args.seed is None:
        raise UsageError("sampled mode requires --trials and --seed")
    if args.infile is not None:
        refuse(args.gnp_p, "--gnp-p", "with --in")
        refuse(args.gnp_seed, "--gnp-seed", "with --in")
        g = io.parse_simple_graph(args.infile.read_text())
        source = {"in": str(args.infile)}
    else:
        if args.gnp_p is None or args.gnp_seed is None:
            raise UsageError("--gnp-n requires --gnp-p and --gnp-seed")
        g = constructions.sample_gnp(
            constructions.GnpParams(args.gnp_n, args.gnp_p, args.gnp_seed)
        )
        source = {"gnp_n": args.gnp_n, "gnp_p": args.gnp_p, "gnp_seed": args.gnp_seed,
                  "generator": GENERATOR_NAME}
    params = {**source, "n": args.n, "s": args.s, "t": args.t, "mode": args.mode,
              "threads": args.threads}
    if args.trials is not None:  # a sampled count
        params["trials"] = args.trials
    try:
        res = constructions.count_bad_sets(
            g, args.n, args.s, args.t, args.trials, args.seed, args.threads
        )
    except BudgetError as err:
        return io.unknown_certificate(claim, params, err, seed=args.seed)
    witness = {"mode": res.mode, "value": res.value, "hits": res.hits,
               "space": res.space}
    return io.Certificate(claim, params, "holds", witness, res.checked, args.seed)


def _int_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x != ""]
    except ValueError:
        raise UsageError(f"expected comma-separated integers, got {text!r}") from None


def handle_geom(args, claim: str) -> io.Certificate:
    from . import geometry

    if args.command == "plane":
        inc = geometry.build_affine_plane(args.q)
        return io.artifact_certificate(claim, {"q": args.q}, io.dump_incidence(inc),
                                       len(inc.lines), args.out)
    if args.command == "fq3-family":
        inc = geometry.fq3_line_family(args.q, args.lam)
        return io.artifact_certificate(claim, {"q": args.q, "lambda": args.lam},
                                       io.dump_incidence(inc), len(inc.lines), args.out)
    inc = io.parse_incidence(args.infile.read_text())
    lines = _int_list(args.lines)
    points = _int_list(args.points)
    params = {"in": str(args.infile), "lines": lines, "points": points}
    count, bound = geometry.incidence_sum(inc, lines, points)
    verdict = "holds" if count >= bound else "fails"
    return io.Certificate(claim, params, verdict, {"count": count, "bound": bound}, len(lines))
