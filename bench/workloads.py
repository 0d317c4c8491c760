"""The benchmark's workloads: the `ramsat` commands each one runs, and their checks.

A workload is a generator of `Op`s.  The runner executes each op (as a real
process, or in-process under the tracer) and sends back the parsed
certificate; code between two `yield`s is benchmark-side preparation and is
never timed.  Every op carries a check, and `check_output` applies it
together with the program's own `validate_certificate` and the exit-code
contract.  The expected answers come from the paper's closed forms or from
an independent route computed here (the numpy bad-set count), never from a
previous run of the program.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache
from itertools import combinations
from math import comb
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

EXIT_OF_VERDICT = {"holds": 0, "fails": 1, "unknown": 2}

# observation: the paper's desk instance, criterion 3 (affine plane q = 5, r = 2).
AFFINE_Q, AFFINE_R, OBS_K = 5, 2, 4
OBS_CHECKED = AFFINE_R * comb(AFFINE_Q**2, -(-(AFFINE_Q**2) // AFFINE_R))  # 10,400,600

# badsets: exact scan of G(30, 1/2) for 6-subsets missing K_3 or I_3.
GNP_N, GNP_P, BAD_N, BAD_S, BAD_T = 30, 0.5, 6, 3, 3

# search, first part: (r, k, n) ssat instances that must be exhausted, with the r-colour lower
# bound ssat_lower_bound_formula(r, k) that says why (it exceeds n).
SSAT_INSTANCES = ((3, 4, 9, 15), (2, 6, 11, 25), (5, 3, 8, 10))

# search, second part: (n, s, t) triples whose f and g values are both 6 at n_max = 6.
ORACLE_TRIPLES = ((3, 2, 2), (5, 2, 4), (5, 3, 3))
ORACLE_VALUE, ORACLE_N_MAX = 6, 6


class CheckError(Exception):
    """An output of the program is wrong."""


@dataclass(frozen=True)
class Op:
    """One `ramsat` command, its expected exit code and its answer check.

    ``check`` receives the parsed certificate and raises CheckError when
    the answer is wrong.
    """

    label: str
    argv: tuple[str, ...]
    exit_code: int
    check: Callable[[dict], None]


@dataclass(frozen=True)
class Context:
    """What a workload may vary: its seed, its scratch directory and, for
    `observation`, the ``--threads`` values of the verify step (one op each)."""

    seed: int
    workdir: Path
    verify_threads: tuple[int, ...] = (2,)


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def check_output(op: Op, exit_code: int, stdout: str) -> dict:
    """Parse and check one command's output; raise CheckError when it is wrong.

    Returns the certificate.
    """
    from ramsat.io import validate_certificate

    lines = stdout.splitlines()
    _expect(len(lines) == 1, f"{op.label}: expected one certificate line, got {len(lines)}")
    try:
        cert = json.loads(lines[0])
    except ValueError as err:
        raise CheckError(f"{op.label}: certificate is not JSON ({err})") from None
    _expect(isinstance(cert, dict), f"{op.label}: certificate is not an object")
    try:
        validate_certificate(cert)
    except ValueError as err:
        raise CheckError(f"{op.label}: invalid certificate ({err})") from None
    _expect(exit_code == EXIT_OF_VERDICT[cert["verdict"]],
            f"{op.label}: exit {exit_code} does not match verdict {cert['verdict']!r}")
    _expect(exit_code == op.exit_code, f"{op.label}: exit {exit_code}, expected {op.exit_code}")
    op.check(cert)
    return cert


def _claim(cert: dict, claim: str, verdict: str) -> None:
    _expect(cert["claim"] == claim, f"claim {cert['claim']!r}, expected {claim!r}")
    _expect(cert["verdict"] == verdict, f"{claim}: verdict {cert['verdict']!r}, expected {verdict!r}")


# -- observation --------------------------------------------------------------


def read_cg(text: str) -> tuple[int, int, dict[tuple[int, int], int]]:
    """Parse a complete `.cg` colouring: (n, r, {(u, v): colour})."""
    rows = [line.split() for line in text.splitlines() if line.strip()]
    if not rows or len(rows[0]) != 3 or rows[0][0] != "cg":
        raise CheckError("pattern file has no 'cg <n> <r>' header")
    n, r = int(rows[0][1]), int(rows[0][2])
    colour = {}
    for u, v, c in rows[1:]:
        colour[(int(u), int(v))] = int(c)
    if sorted(colour) != list(combinations(range(n), 2)) or not set(colour.values()) <= set(range(1, r + 1)):
        raise CheckError("pattern file is not a complete colouring")
    return n, r, colour


def relabel_cg(text: str, seed: int) -> str:
    """The same colouring with vertex v renamed to perm[v], perm from PCG64(seed)."""
    n, r, colour = read_cg(text)
    perm = np.random.Generator(np.random.PCG64(seed)).permutation(n)
    moved = {}
    for (u, v), c in colour.items():
        a, b = sorted((int(perm[u]), int(perm[v])))
        moved[(a, b)] = c
    lines = [f"cg {n} {r}"] + [f"{u} {v} {c}" for (u, v), c in sorted(moved.items())]
    return "\n".join(lines) + "\n"


def observation(ctx: Context) -> Iterator[Op]:
    base = ctx.workdir / "affine.cg"
    relabelled = ctx.workdir / f"affine-seed{ctx.seed}.cg"
    n = AFFINE_Q**2

    def check_construct(cert):
        _claim(cert, "construct-affine", "holds")
        _expect(cert["checked"] == comb(n, 2), f"construct-affine: checked {cert['checked']}")
        got_n, got_r, colour = read_cg(base.read_text())
        _expect((got_n, got_r) == (n, AFFINE_R), "construct-affine: wrong pattern size")
        # AG(2, q) line colouring: each point meets q + 1 lines of q - 1 other
        # points, dealt to colours by parallel class, so both colour degrees
        # are fixed (three classes to colour 1, three to colour 2 at q = 5).
        for vertex in range(n):
            degrees = [0] * AFFINE_R
            for (u, v), c in colour.items():
                if vertex in (u, v):
                    degrees[c - 1] += 1
            _expect(degrees == [12, 12], f"construct-affine: vertex {vertex} degrees {degrees}")

    yield Op("construct-affine",
             ("construct", "affine", "--q", str(AFFINE_Q), "--r", str(AFFINE_R), "--out", str(base)),
             0, check_construct)
    relabelled.write_text(relabel_cg(base.read_text(), ctx.seed))
    for threads in ctx.verify_threads:
        def check_verify(cert, threads=threads):
            _claim(cert, "verify-observation", "holds")
            _expect(cert["checked"] == OBS_CHECKED,
                    f"verify-observation: checked {cert['checked']}, expected {OBS_CHECKED}")
            _expect(cert["params"].get("threads") == threads, "verify-observation: wrong threads")

        yield Op(f"verify-observation-t{threads}",
                 ("verify", "observation", "--in", str(relabelled), "--k", str(OBS_K),
                  "--r", str(AFFINE_R), "--threads", str(threads)),
                 0, check_verify)


# -- badsets ------------------------------------------------------------------


def gnp_adjacency(n: int, p: float, seed: int) -> np.ndarray:
    """G(n, p) as `construct gnp` documents it: one PCG64(seed) uniform per
    pair, pairs in lexicographic order, edge when the draw is below p."""
    draws = np.random.Generator(np.random.PCG64(seed)).random(comb(n, 2))
    adj = np.zeros((n, n), dtype=bool)
    iu = np.triu_indices(n, 1)
    adj[iu] = draws < p
    return adj | adj.T


def count_bad_subsets(adj: np.ndarray, n: int, s: int, t: int) -> int:
    """Independent route to `experiment bad-sets --mode exact`: vectorised over
    all n-subsets, count those whose induced graph misses K_s or misses I_t."""
    N = adj.shape[0]
    subsets = np.fromiter(
        (v for sub in combinations(range(N), n) for v in sub), dtype=np.int64, count=comb(N, n) * n
    ).reshape(-1, n)
    pair_index = {pair: i for i, pair in enumerate(combinations(range(n), 2))}
    edge = np.stack([adj[subsets[:, a], subsets[:, b]] for a, b in pair_index], axis=1)

    def has_homogeneous(size: int, value: bool) -> np.ndarray:
        found = np.zeros(len(subsets), dtype=bool)
        for group in combinations(range(n), size):
            cols = [pair_index[pair] for pair in combinations(group, 2)]
            found |= np.all(edge[:, cols] == value, axis=1)
        return found

    bad = ~has_homogeneous(s, True) | ~has_homogeneous(t, False)
    return int(bad.sum())


@cache
def expected_bad_sets(seed: int) -> int:
    return count_bad_subsets(gnp_adjacency(GNP_N, GNP_P, seed), BAD_N, BAD_S, BAD_T)


def badsets(ctx: Context) -> Iterator[Op]:
    space = comb(GNP_N, BAD_N)

    def check(cert):
        _claim(cert, "experiment-bad-sets", "holds")
        _expect(cert["checked"] == space, f"bad-sets: checked {cert['checked']}, expected {space}")
        w = cert.get("witness") or {}
        hits = expected_bad_sets(ctx.seed)
        _expect(w.get("space") == space and w.get("mode") == "exact", "bad-sets: wrong space or mode")
        _expect(w.get("hits") == hits, f"bad-sets: {w.get('hits')} bad sets, independent count {hits}")
        _expect(w.get("value") == hits, f"bad-sets: value {w.get('value')}, expected {hits}")

    yield Op("bad-sets",
             ("experiment", "bad-sets", "--gnp-n", str(GNP_N), "--gnp-p", str(GNP_P),
              "--gnp-seed", str(ctx.seed), "--n", str(BAD_N), "--s", str(BAD_S),
              "--t", str(BAD_T), "--mode", "exact"),
             0, check)


# -- search: ssat_search, then the f/g oracles ---------------------------------


def ssat_label(r: int, k: int, n: int) -> str:
    return f"r{r}k{k}n{n}"


def _ssat_ops() -> Iterator[Op]:
    from ramsat.saturation import ssat_lower_bound_formula

    for r, k, n, bound in SSAT_INSTANCES:
        def check(cert, r=r, k=k, n=n, bound=bound):
            _claim(cert, "search-ssat", "fails")
            w = cert.get("witness") or {}
            _expect(w.get("kind") == "exhausted-search-space", "search-ssat: not exhausted")
            _expect(w.get("nodes") == cert["checked"] >= 1, "search-ssat: node count mismatch")
            got = ssat_lower_bound_formula(r, k)
            _expect(got == bound > n, f"search-ssat: lower bound {got} does not explain n={n}")

        yield Op(f"ssat-{ssat_label(r, k, n)}",
                 ("search", "ssat", "--r", str(r), "--k", str(k), "--n", str(n)), 1, check)


def _oracle_ops() -> Iterator[Op]:
    for n, s, t in ORACLE_TRIPLES:
        for kind in ("g", "f"):
            def check(cert, kind=kind):
                _claim(cert, f"oracle-{kind}", "holds")
                value = (cert.get("witness") or {}).get("value")
                _expect(value == ORACLE_VALUE, f"oracle-{kind}: value {value}, expected {ORACLE_VALUE}")

            yield Op(f"oracle-{kind}-n{n}s{s}t{t}",
                     ("oracle", kind, "--n", str(n), "--s", str(s), "--t", str(t),
                      "--n-max", str(ORACLE_N_MAX)),
                     0, check)


def search(ctx: Context) -> Iterator[Op]:
    """Deterministic exhaustive searches; the seed is not used."""
    yield from _ssat_ops()
    yield from _oracle_ops()


WORKLOADS = {
    "observation": observation,
    "badsets": badsets,
    "search": search,
}
