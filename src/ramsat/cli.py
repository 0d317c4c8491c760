"""Command-line surface.

Every command prints one canonical-JSON certificate on stdout and exits
with 0 (claim holds), 1 (fails, witness embedded), 2 (unknown: a budget ran
out or only sampled evidence was gathered), or, with no certificate, 3
(usage or parameter error), 4 (input error) or 5 (internal error: an
unexpected exception, such as a recursion too deep for the interpreter).
Randomized commands refuse to run without an explicit ``--seed`` so
certificates never depend on hidden entropy, and a flag that would change
nothing (``--seed`` where nothing is drawn, ``--trials`` in an exact count)
exits 3, so a certificate records only parameters that acted.  The one
exception is ``verify observation --threads``, accepted in [1, 64] and
recorded in ``params`` although an observation scan stops at its first
failure and never starts a worker; it stays because the golden
certificates, the README example and the bench's ``observation`` row pass it.

Subcommands, the module holding each group's commands, and the modules
its handler imports besides ``errors``, ``graphs`` and ``io``::

    construct  {affine|fq3|gnp}                      cmd_constructions  constructions, geometry
    verify     {ssat|ssat-direct|observation|        cmd_saturation     saturation
                kkfree|saturated}
    oracle     {f|g}                                 cmd_reduction      reduction
    reduce     {chi-to-graph|graph-to-chi}           cmd_reduction      reduction
    search     ssat                                  cmd_saturation     saturation
    experiment bad-sets                              cmd_constructions  constructions
    geom       {plane|fq3-family|incidence}          cmd_constructions  geometry

This module is a thin single-threaded shell: the parser, the group table,
``run`` and the exit codes.  A group's module defines ``<group>_commands``,
which adds its commands to the parser, and ``handle_<group>(args, claim)``,
which runs one.  ``run`` builds the parser of the one group its argv names,
so a process compiles only that group's module, imports the group's
modules, names the claim ``<group>-<command>`` and only then starts the
clock of ``wall_time_ms``, which it prints beside the certificate's body:
the time records the command's work, not start-up.  No module imports this
one, since ``python -m ramsat.cli`` runs it as ``__main__``, and a second
copy would raise usage errors of its own type.  A seeded draw loads
``rng``, and a sharded count the process pool, when they run.  ``--help``
(``-h``) prints its text on stderr and exits 3, since it prints no
certificate.

``--threads`` is forwarded to the library scans and bounds the worker
processes they start without changing their answer.  Only an exact count
(``experiment bad-sets``) shards; a scan that stops at its first failure
runs in one process, and a value above 1 with ``--samples`` or ``--mode
sampled`` exits 3.
"""

from __future__ import annotations

import argparse
import sys
import time
from importlib import import_module

from .errors import ParseError, UsageError


class _HelpShown(Exception):
    """Help went to stderr; no command ran."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)

    def print_help(self, file=None):
        super().print_help(sys.stderr)

    def exit(self, status=0, message=None):
        raise _HelpShown  # only the help action exits: error() raises first


# group: (help, the module of its commands, the modules its handler uses besides io)
_GROUPS = {
    "construct": ("build colorings and random graphs", "cmd_constructions",
                  ("constructions", "geometry")),
    "verify": ("run a decision procedure on a pattern", "cmd_saturation", ("saturation",)),
    "oracle": ("brute-force Ramsey quantities", "cmd_reduction", ("reduction",)),
    "reduce": ("transform between colorings and graphs", "cmd_reduction", ("reduction",)),
    "search": ("hunt for small semisaturated patterns", "cmd_saturation", ("saturation",)),
    "experiment": ("random-graph counting experiments", "cmd_constructions", ("constructions",)),
    "geom": ("incidence structures and the incidence bound", "cmd_constructions", ("geometry",)),
}


def _commands(group: str):
    """The module holding ``group``'s commands, imported on first use."""
    return import_module(f".{_GROUPS[group][1]}", __package__)


def _build_parser(group: str | None) -> _Parser:
    """The parser of ``group``'s commands, or, when ``group`` names none,
    of every group's name and help line (each parser built costs gettext
    lookups)."""
    # Imported first: compiling graphs, which the module's imports reach,
    # sets the process's peak memory, and the parser would add to that peak.
    commands = _commands(group) if group in _GROUPS else None
    p = _Parser(prog="ramsat", description=__doc__.splitlines()[0])
    top = p.add_subparsers(dest="group", required=True)
    for name, (help_text, _, _) in _GROUPS.items():
        if commands and name != group:
            continue
        group_parser = top.add_parser(name, help=help_text)
        if name == group:
            add_commands = getattr(commands, f"{name}_commands")
            add_commands(group_parser.add_subparsers(dest="command", required=True))
    return p


_EXIT_CODES = {"holds": 0, "fails": 1, "unknown": 2}


def run(argv) -> int:
    """Parse ``argv``, run the command, print its certificate, return the exit code."""
    group = next((arg for arg in argv if not arg.startswith("-")), None)
    try:
        args = _build_parser(group).parse_args(argv)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 3
    except _HelpShown:
        return 3
    handle = getattr(_commands(args.group), f"handle_{args.group}")
    for module in _GROUPS[args.group][2]:
        import_module(f".{module}", __package__)
    claim = f"{args.group}-{args.command}"
    start = time.perf_counter()
    try:
        cert = handle(args, claim)
    except UsageError as err:
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
    print(cert.to_json(int((time.perf_counter() - start) * 1000)))
    return _EXIT_CODES[cert.verdict]


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
