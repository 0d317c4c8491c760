"""The ``verify`` and ``search`` commands (see ``cli``), both on ``saturation``."""

from __future__ import annotations

from pathlib import Path

from . import io
from .errors import BudgetError, UsageError, refuse


def verify_commands(sub) -> None:
    for name in ("ssat", "ssat-direct", "observation", "kkfree", "saturated"):
        vp = sub.add_parser(name)
        vp.add_argument("--in", dest="infile", type=Path, required=True)
        vp.add_argument("--k", type=int, required=True)
        if name == "observation":
            vp.add_argument("--r", type=int, default=None,
                            help="the pattern's color count; any other value exits 3")
            vp.add_argument("--threads", type=int, default=1)
        if name in ("ssat", "observation"):
            vp.add_argument("--samples", type=int, default=None)
            vp.add_argument("--seed", type=int, default=None)


def search_commands(sub) -> None:
    s_ssat = sub.add_parser("ssat")
    s_ssat.add_argument("--r", type=int, required=True)
    s_ssat.add_argument("--k", type=int, required=True)
    s_ssat.add_argument("--n", type=int, required=True)
    s_ssat.add_argument("--node-budget", type=int, default=None)


def _verdict(c, args):
    from . import saturation

    if args.command == "ssat":
        return saturation.is_semisaturated(c, args.k, args.samples, args.seed)
    if args.command == "ssat-direct":
        return saturation.is_semisaturated_direct(c, args.k)
    if args.command == "observation":
        return saturation.check_observation(
            c, args.k, threads=args.threads, samples=args.samples, seed=args.seed
        )
    if args.command == "kkfree":
        return saturation.check_kkfree(c, args.k)
    return saturation.is_saturated(c, args.k)


def handle_verify(args, claim: str) -> io.Certificate:
    if getattr(args, "samples", None) is None:
        refuse(getattr(args, "seed", None), "--seed", "without --samples")
    pattern = io.parse_colored_graph(args.infile.read_text())
    params = {"in": str(args.infile), "k": args.k, "n": pattern.n, "r": pattern.r}
    if args.command == "observation":
        if args.r not in (None, pattern.r):
            raise UsageError(f"--r {args.r}, but the pattern has {pattern.r} colors")
        params["threads"] = args.threads
    if getattr(args, "samples", None) is not None:
        params["samples"] = args.samples
    seed = getattr(args, "seed", None)
    try:
        v = _verdict(pattern, args)
    except BudgetError as err:
        return io.unknown_certificate(claim, params, err, seed=seed)
    if v.holds and not v.exhaustive:
        budget = f"sampled evidence only ({v.checked} samples)"
        return io.unknown_certificate(claim, params, budget, checked=v.checked, seed=seed)
    verdict = "holds" if v.holds else "fails"
    return io.Certificate(claim, params, verdict, v.witness, v.checked, seed)


def handle_search(args, claim: str) -> io.Certificate:
    from . import saturation

    params = {"r": args.r, "k": args.k, "n": args.n, "node_budget": args.node_budget}
    res = saturation.ssat_search(args.r, args.k, args.n, args.node_budget)
    if res.status == "found":
        witness = {"kind": "semisaturated-pattern",
                   "pattern": io.dump_colored_graph(res.pattern)}
        return io.Certificate(claim, params, "holds", witness, res.nodes)
    if res.status == "exhausted":
        witness = {"kind": "exhausted-search-space", "nodes": res.nodes}
        return io.Certificate(claim, params, "fails", witness, res.nodes)
    return io.unknown_certificate(claim, params, f"node budget {args.node_budget} exhausted",
                                  checked=res.nodes)
