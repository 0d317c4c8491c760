"""Command-line surface.

Every command prints one canonical-JSON certificate on stdout and exits
with 0 (claim holds), 1 (fails, witness embedded), 2 (unknown: a budget ran
out or only sampled evidence was gathered), or, with no certificate, 3
(usage or parameter error), 4 (input error) or 5 (internal error: an
unexpected exception, such as a recursion too deep for the interpreter).
Randomized commands refuse to run without an explicit ``--seed`` so
certificates never depend on hidden entropy, and a flag that would change
nothing (``--seed`` where nothing is drawn, ``--trials`` in an exact count)
exits 3, so a certificate records only parameters that acted.

Subcommands::

    construct {affine|fq3|gnp}
    verify    {ssat|ssat-direct|observation|kkfree|saturated}
    oracle    {f|g}
    reduce    {chi-to-graph|graph-to-chi}
    search    ssat
    experiment bad-sets
    geom      {plane|fq3-family|incidence}

The CLI itself is a thin single-threaded shell; ``--threads`` is forwarded
to the library scans and bounds the worker processes they start without
changing their answer.  Only an exact count (``experiment bad-sets``)
shards; a scan that stops at its first failure runs in one process, and a
value above 1 with ``--samples`` or ``--mode sampled`` exits 3.
"""

from __future__ import annotations

import argparse
import sys
import time
from math import comb
from pathlib import Path

from . import constructions, geometry, io, reduction, saturation
from .errors import BudgetError, ParseError


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="ramsat", description=__doc__.splitlines()[0])
    top = p.add_subparsers(dest="group", required=True)

    construct = top.add_parser("construct", help="build colorings and random graphs")
    csub = construct.add_subparsers(dest="command", required=True)
    c_affine = csub.add_parser("affine", help="line coloring of K_{q^2}")
    c_affine.add_argument("--q", type=int, required=True)
    c_affine.add_argument("--r", type=int, required=True)
    c_affine.add_argument(
        "--strategy",
        choices=[constructions.PARALLEL_BALANCED, constructions.ROUND_ROBIN],
        default=constructions.PARALLEL_BALANCED,
    )
    c_affine.add_argument("--seed", type=int, default=None)
    c_affine.add_argument("--out", type=Path, default=None)
    c_fq3 = csub.add_parser("fq3", help="slope-family coloring of K_{q^3}")
    c_fq3.add_argument("--q", type=int, required=True)
    c_fq3.add_argument("--r", type=int, required=True)
    c_fq3.add_argument("--out", type=Path, default=None)
    c_gnp = csub.add_parser("gnp", help="seeded G(N, p) sample")
    c_gnp.add_argument("--n", type=int, required=True)
    c_gnp.add_argument("--p", type=float, required=True)
    c_gnp.add_argument("--seed", type=int, required=True)
    c_gnp.add_argument("--out", type=Path, default=None)

    verify = top.add_parser("verify", help="run a decision procedure on a pattern")
    vsub = verify.add_subparsers(dest="command", required=True)
    for name in ("ssat", "ssat-direct", "observation", "kkfree", "saturated"):
        vp = vsub.add_parser(name)
        vp.add_argument("--in", dest="infile", type=Path, required=True)
        vp.add_argument("--k", type=int, required=True)
        if name == "observation":
            vp.add_argument("--r", type=int, default=None,
                            help="the pattern's color count; any other value exits 3")
            vp.add_argument("--threads", type=int, default=1)
        if name in ("ssat", "observation"):
            vp.add_argument("--samples", type=int, default=None)
            vp.add_argument("--seed", type=int, default=None)

    oracle = top.add_parser("oracle", help="brute-force Ramsey quantities")
    osub = oracle.add_subparsers(dest="command", required=True)
    o_g = osub.add_parser("g", help="graph form g(n, s, t)")
    o_g.add_argument("--n", type=int, required=True)
    o_g.add_argument("--s", type=int, required=True)
    o_g.add_argument("--t", type=int, required=True)
    o_g.add_argument("--n-max", type=int, required=True)
    o_f = osub.add_parser("f", help="coloring form f_k(n, s, t)")
    o_f.add_argument("--n", type=int, required=True)
    o_f.add_argument("--s", type=int, required=True)
    o_f.add_argument("--t", type=int, required=True)
    o_f.add_argument("--k", type=int, default=None)
    o_f.add_argument("--n-max", type=int, required=True)

    reduce = top.add_parser("reduce", help="transform between colorings and graphs")
    rsub = reduce.add_subparsers(dest="command", required=True)
    r_c2g = rsub.add_parser("chi-to-graph")
    r_c2g.add_argument("--in", dest="infile", type=Path, required=True)
    r_c2g.add_argument("--s", type=int, required=True)
    r_c2g.add_argument("--t", type=int, required=True)
    r_c2g.add_argument("--tie-break", choices=["nonedge", "edge"], default="nonedge")
    r_c2g.add_argument("--out", type=Path, default=None)
    r_g2c = rsub.add_parser("graph-to-chi")
    r_g2c.add_argument("--in", dest="infile", type=Path, required=True)
    r_g2c.add_argument("--s", type=int, required=True)
    r_g2c.add_argument("--t", type=int, required=True)
    r_g2c.add_argument("--default", dest="default_color", choices=["red", "blue"], default="red")
    r_g2c.add_argument("--out", type=Path, default=None)

    search = top.add_parser("search", help="hunt for small semisaturated patterns")
    ssub = search.add_subparsers(dest="command", required=True)
    s_ssat = ssub.add_parser("ssat")
    s_ssat.add_argument("--r", type=int, required=True)
    s_ssat.add_argument("--k", type=int, required=True)
    s_ssat.add_argument("--n", type=int, required=True)
    s_ssat.add_argument("--node-budget", type=int, default=None)

    experiment = top.add_parser("experiment", help="random-graph counting experiments")
    esub = experiment.add_subparsers(dest="command", required=True)
    e_bad = esub.add_parser("bad-sets")
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

    geom = top.add_parser("geom", help="incidence structures and the incidence bound")
    gsub = geom.add_subparsers(dest="command", required=True)
    g_plane = gsub.add_parser("plane")
    g_plane.add_argument("--q", type=int, required=True)
    g_plane.add_argument("--out", type=Path, default=None)
    g_fam = gsub.add_parser("fq3-family")
    g_fam.add_argument("--q", type=int, required=True)
    g_fam.add_argument("--lambda", dest="lam", type=int, required=True)
    g_fam.add_argument("--out", type=Path, default=None)
    g_inc = gsub.add_parser("incidence")
    g_inc.add_argument("--in", dest="infile", type=Path, required=True)
    g_inc.add_argument("--lines", type=str, required=True, help="comma-separated line indices")
    g_inc.add_argument("--points", type=str, required=True, help="comma-separated point indices")

    return p


def _int_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x != ""]
    except ValueError:
        raise _UsageError(f"expected comma-separated integers, got {text!r}") from None


def _artifact(claim, args, params, text, checked, seed=None) -> io.Certificate:
    """A "holds" certificate for a built object in one of the text formats.

    The text goes to ``--out`` when given, else into the witness, tagged
    with its format: the first word of its header line.
    """
    witness = None
    if args.out is None:
        witness = {"format": text.split(None, 1)[0], "text": text}
    else:
        args.out.write_text(text)
    params = {**params, "out": str(args.out) if args.out else None}
    return io.Certificate(claim, params, "holds", witness, checked, seed)


def _unknown(claim, params, budget, witness=None, checked=0, seed=None) -> io.Certificate:
    """An "unknown" certificate recording in its params the budget that ran out."""
    params = {**params, "budget": str(budget)}
    return io.Certificate(claim, params, "unknown", witness, checked, seed)


def _refuse(given, flag: str, where: str) -> None:
    """A usage error when ``flag`` was given ``where`` it changes nothing."""
    if given is not None:
        raise _UsageError(f"{flag} changes nothing {where}")


# -- handlers -----------------------------------------------------------------


def _handle_construct(args) -> io.Certificate:
    if args.command == "affine":
        if args.strategy == constructions.PARALLEL_BALANCED:
            _refuse(args.seed, "--seed", "with --strategy parallel-balanced, which draws nothing")
        params = {"q": args.q, "r": args.r, "strategy": args.strategy}
        pattern = constructions.affine_coloring(args.q, args.r, args.strategy, args.seed)
        return _artifact("construct-affine", args, params, io.dump_colored_graph(pattern),
                         comb(pattern.n, 2), args.seed)
    if args.command == "fq3":
        pattern = constructions.fq3_coloring(args.q, args.r)
        return _artifact("construct-fq3", args, {"q": args.q, "r": args.r},
                         io.dump_colored_graph(pattern), comb(pattern.n, 2))
    params = {"n": args.n, "p": args.p, "generator": constructions.GENERATOR_NAME}
    g = constructions.sample_gnp(constructions.GnpParams(args.n, args.p, args.seed))
    return _artifact("construct-gnp", args, params, io.dump_simple_graph(g),
                     comb(g.n, 2), args.seed)


_VERIFIERS = {
    "ssat": lambda c, a: saturation.is_semisaturated(c, a.k, a.samples, a.seed),
    "ssat-direct": lambda c, a: saturation.is_semisaturated_direct(c, a.k),
    "observation": lambda c, a: saturation.check_observation(
        c, a.k, threads=a.threads, samples=a.samples, seed=a.seed
    ),
    "kkfree": lambda c, a: saturation.check_kkfree(c, a.k),
    "saturated": lambda c, a: saturation.is_saturated(c, a.k),
}


def _handle_verify(args) -> io.Certificate:
    if getattr(args, "samples", None) is None:
        _refuse(getattr(args, "seed", None), "--seed", "without --samples")
    pattern = io.parse_colored_graph(args.infile.read_text())
    claim = f"verify-{args.command}"
    params = {"in": str(args.infile), "k": args.k, "n": pattern.n, "r": pattern.r}
    if args.command == "observation":
        if args.r not in (None, pattern.r):
            raise _UsageError(f"--r {args.r}, but the pattern has {pattern.r} colors")
        params["threads"] = args.threads
    if getattr(args, "samples", None) is not None:
        params["samples"] = args.samples
    seed = getattr(args, "seed", None)
    try:
        v = _VERIFIERS[args.command](pattern, args)
    except BudgetError as err:
        return _unknown(claim, params, err, seed=seed)
    if v.holds and not v.exhaustive:
        budget = f"sampled evidence only ({v.checked} samples)"
        return _unknown(claim, params, budget, checked=v.checked, seed=seed)
    verdict = "holds" if v.holds else "fails"
    return io.Certificate(claim, params, verdict, v.witness, v.checked, seed)


def _handle_oracle(args) -> io.Certificate:
    claim = f"oracle-{args.command}"
    params = {"n": args.n, "s": args.s, "t": args.t, "n_max": args.n_max}
    if args.command == "f":
        params["k"] = args.s + args.t - 2 if args.k is None else args.k  # where f = g
    try:
        if args.command == "g":
            res = reduction.g_oracle(args.n, args.s, args.t, args.n_max)
        else:
            res = reduction.f_oracle(args.n, args.s, args.t, params["k"], args.n_max)
    except BudgetError as err:
        return _unknown(claim, params, err)
    dump = io.dump_simple_graph if args.command == "g" else io.dump_ksubset_coloring
    witness = {"value": res.value, "counterexample": dump(res.witness) if res.witness else None}
    if args.command == "g":
        witness["counterexample_n"] = res.witness.n if res.witness else None
    if res.value is None:
        return _unknown(claim, params, f"no value up to n_max={args.n_max}", witness, res.checked)
    return io.Certificate(claim, params, "holds", witness, res.checked)


def _handle_reduce(args) -> io.Certificate:
    params = {"in": str(args.infile), "s": args.s, "t": args.t}
    if args.command == "chi-to-graph":
        chi = io.parse_ksubset_coloring(args.infile.read_text())
        g = reduction.coloring_to_graph(chi, args.s, args.t, args.tie_break)
        return _artifact("reduce-chi-to-graph", args, {**params, "tie_break": args.tie_break},
                         io.dump_simple_graph(g), chi.subset_count)
    g = io.parse_simple_graph(args.infile.read_text())
    chi = reduction.graph_to_coloring(g, args.s, args.t, args.default_color)
    return _artifact("reduce-graph-to-chi", args, {**params, "default": args.default_color},
                     io.dump_ksubset_coloring(chi), chi.subset_count)


def _handle_search(args) -> io.Certificate:
    claim = "search-ssat"
    params = {"r": args.r, "k": args.k, "n": args.n, "node_budget": args.node_budget}
    res = saturation.ssat_search(args.r, args.k, args.n, args.node_budget)
    if res.status == "found":
        witness = {"kind": "semisaturated-pattern",
                   "pattern": io.dump_colored_graph(res.pattern)}
        return io.Certificate(claim, params, "holds", witness, res.nodes)
    if res.status == "exhausted":
        witness = {"kind": "exhausted-search-space", "nodes": res.nodes}
        return io.Certificate(claim, params, "fails", witness, res.nodes)
    return _unknown(claim, params, f"node budget {args.node_budget} exhausted", checked=res.nodes)


def _handle_experiment(args) -> io.Certificate:
    claim = "experiment-bad-sets"
    if (args.infile is None) == (args.gnp_n is None):
        raise _UsageError("bad-sets needs exactly one of --in or --gnp-n/--gnp-p/--gnp-seed")
    if args.mode == "exact":
        _refuse(args.trials, "--trials", "in an exact count")
        _refuse(args.seed, "--seed", "in an exact count")
    elif args.trials is None or args.seed is None:
        raise _UsageError("sampled mode requires --trials and --seed")
    if args.infile is not None:
        _refuse(args.gnp_p, "--gnp-p", "with --in")
        _refuse(args.gnp_seed, "--gnp-seed", "with --in")
        g = io.parse_simple_graph(args.infile.read_text())
        source = {"in": str(args.infile)}
    else:
        if args.gnp_p is None or args.gnp_seed is None:
            raise _UsageError("--gnp-n requires --gnp-p and --gnp-seed")
        g = constructions.sample_gnp(
            constructions.GnpParams(args.gnp_n, args.gnp_p, args.gnp_seed)
        )
        source = {"gnp_n": args.gnp_n, "gnp_p": args.gnp_p, "gnp_seed": args.gnp_seed,
                  "generator": constructions.GENERATOR_NAME}
    params = {**source, "n": args.n, "s": args.s, "t": args.t, "mode": args.mode,
              "threads": args.threads}
    if args.trials is not None:  # a sampled count
        params["trials"] = args.trials
    try:
        res = constructions.count_bad_sets(
            g, args.n, args.s, args.t, args.trials, args.seed, args.threads
        )
    except BudgetError as err:
        return _unknown(claim, params, err, seed=args.seed)
    witness = {"mode": res.mode, "value": res.value, "hits": res.hits,
               "space": res.space}
    return io.Certificate(claim, params, "holds", witness, res.checked, args.seed)


def _handle_geom(args) -> io.Certificate:
    if args.command == "plane":
        inc = geometry.build_affine_plane(args.q)
        return _artifact("geom-plane", args, {"q": args.q}, io.dump_incidence(inc),
                         len(inc.lines))
    if args.command == "fq3-family":
        inc = geometry.fq3_line_family(args.q, args.lam)
        return _artifact("geom-fq3-family", args, {"q": args.q, "lambda": args.lam},
                         io.dump_incidence(inc), len(inc.lines))
    inc = io.parse_incidence(args.infile.read_text())
    lines = _int_list(args.lines)
    points = _int_list(args.points)
    params = {"in": str(args.infile), "lines": lines, "points": points}
    count, bound = geometry.incidence_sum(inc, lines, points)
    verdict = "holds" if count >= bound else "fails"
    return io.Certificate("geom-incidence", params, verdict, {"count": count, "bound": bound},
                          len(lines))


_HANDLERS = {
    "construct": _handle_construct,
    "verify": _handle_verify,
    "oracle": _handle_oracle,
    "reduce": _handle_reduce,
    "search": _handle_search,
    "experiment": _handle_experiment,
    "geom": _handle_geom,
}

_EXIT_CODES = {"holds": 0, "fails": 1, "unknown": 2}


def run(argv) -> int:
    """Parse ``argv``, run the command, print its certificate, return the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 3
    start = time.perf_counter()
    try:
        cert = _HANDLERS[args.group](args)
    except _UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 3
    except (ParseError, OSError) as err:
        print(f"input error: {err}", file=sys.stderr)
        return 4
    except ValueError as err:
        print(f"parameter error: {err}", file=sys.stderr)
        return 3
    except Exception as err:
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return 5
    cert.wall_time_ms = int((time.perf_counter() - start) * 1000)
    print(cert.to_json())
    return _EXIT_CODES[cert.verdict]


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
