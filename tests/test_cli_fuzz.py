"""Fuzz ``cli.run`` against the exit-code contract: the four text parsers,
and the argv of every command group.

Exit 0, 1 or 2 comes with exactly one certificate line on stdout that
passes ``validate_certificate``, and exit 1 with a witness; exit 3 or more
prints nothing on stdout, and never an internal error.  Bodies and sizes
are small, so each run stays cheap, and the ``--threads`` values drawn never
start a worker process: a value above 1 goes only with a sampled scan,
which refuses it.
"""

import contextlib
import io
import json
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ramsat as rs
from ramsat.cli import run

from conftest import random_ksc

SMALL = st.integers(-2, 12)
JUNK = st.sampled_from(["x", "1.5", "0x3", "-", "#", "ff", "g", "cg", "inc", "", "99999999999",
                        "+3", "1_0", "\u0663"])
TOKEN = st.one_of(SMALL.map(str), JUNK)
SIZE = st.sampled_from(["2", "3", "4", "1"])  # a clique or independent-set size flag


def _text(lines) -> str:
    return "\n".join(" ".join(map(str, line)) for line in lines) + "\n"


@st.composite
def numbers_body(draw, header, width):
    """A header from ``header`` and body lines of ``width`` small integers, with junk mixed in."""
    line = st.one_of(st.lists(SMALL, min_size=width, max_size=width),
                     st.lists(TOKEN, min_size=0, max_size=width + 1))
    return _text([draw(header)] + draw(st.lists(line, max_size=25)))


def _well_formed(draw) -> bool:
    """Whether to start from a body the library wrote (three times in four)."""
    return draw(st.integers(0, 3)) > 0


def _mutated(draw, text: str) -> str:
    """``text`` as is, with one line dropped or doubled, or with one token replaced."""
    lines = text.splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    how = draw(st.sampled_from(["keep", "keep", "drop", "double", "token"]))
    if how == "drop":
        del lines[i]
    elif how == "double":
        lines.insert(i, lines[i])
    elif how == "token":
        words = lines[i].split() or [""]
        words[draw(st.integers(0, len(words) - 1))] = draw(TOKEN)
        lines[i] = " ".join(words)
    return "\n".join(lines) + "\n"


@st.composite
def g_bodies(draw):
    if _well_formed(draw):
        n = draw(st.integers(1, 12))
        g = rs.sample_gnp(rs.GnpParams(n, draw(st.sampled_from([0.2, 0.5, 0.8])),
                                       draw(st.integers(0, 99))))
        return _mutated(draw, rs.dump_simple_graph(g))
    return draw(numbers_body(st.tuples(st.just("g"), TOKEN), 2))


@st.composite
def cg_bodies(draw):
    if _well_formed(draw):
        n, r = draw(st.integers(1, 9)), draw(st.integers(2, 3))
        pattern = rs.random_complete_pattern(n, r, draw(st.integers(0, 99)))
        return _mutated(draw, rs.dump_colored_graph(pattern))
    return draw(numbers_body(st.tuples(st.just("cg"), TOKEN, TOKEN), 3))


@st.composite
def ksc_bodies(draw):
    if _well_formed(draw):
        k = draw(st.integers(2, 6))
        N = draw(st.integers(k, 8))
        bits = draw(st.integers(0, (1 << comb(N, k)) - 1))
        return _mutated(draw, rs.dump_ksubset_coloring(rs.KSubsetColoring(N, k, bits)))
    digits = st.text("0123456789abcdefABCDEFxz ", max_size=40)
    head = ("ksc", draw(st.integers(-1, 9)), draw(st.integers(-1, 9)))
    return _text([head] + draw(st.lists(st.tuples(digits), max_size=2)))


@st.composite
def inc_bodies(draw):
    if _well_formed(draw):
        q = draw(st.sampled_from([2, 3, 5]))
        structure = (rs.build_affine_plane(q) if draw(st.booleans())
                     else rs.fq3_line_family(q, draw(st.integers(0, q - 1))))
        return _mutated(draw, rs.dump_incidence(structure))
    kind = st.sampled_from(["affine-plane", "fq3-family", "plane"])
    head = st.tuples(st.just("inc"), kind, TOKEN) | st.tuples(st.just("inc"), kind, TOKEN, TOKEN)
    return draw(numbers_body(head, 3))


def _index_list():
    return st.lists(st.integers(-1, 30), max_size=8).map(lambda xs: ",".join(map(str, xs))) | JUNK


COMMANDS = {
    "kkfree": (cg_bodies(), st.tuples(
        st.just(["verify", "kkfree", "--k"]), st.sampled_from([-1, 2, 3, 4, 5, 513]).map(str))),
    "chi-to-graph": (ksc_bodies(), st.tuples(
        st.just(["reduce", "chi-to-graph"]), st.just("--s"), SIZE, st.just("--t"), SIZE,
        st.just("--tie-break"), st.sampled_from(["nonedge", "edge"]))),
    "bad-sets": (g_bodies(), st.tuples(
        st.just(["experiment", "bad-sets", "--n"]), st.integers(-1, 8).map(str),
        st.just("--s"), SIZE, st.just("--t"), SIZE,
        st.just("--threads"), st.sampled_from(["1", "0", "65", "-1"]),
        st.sampled_from([[], ["--mode", "sampled", "--trials", "7", "--seed", "3"],
                         ["--mode", "sampled", "--trials", "0", "--seed", "3"]]))),
    "incidence": (inc_bodies(), st.tuples(
        st.just(["geom", "incidence"]), st.just("--lines"), _index_list(),
        st.just("--points"), _index_list())),
}


def _argv(parts, path) -> list[str]:
    argv = []
    for part in parts:
        argv.extend(part if isinstance(part, list) else [part])
    return argv + ["--in", str(path)]


def _keeps_the_contract(argv) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    out = out.getvalue()
    if code in (0, 1, 2):
        assert out.endswith("\n") and out.count("\n") == 1
        cert = json.loads(out)
        rs.validate_certificate(cert)
        assert code != 1 or cert["witness"] is not None
    else:
        assert code >= 3 and out == ""
        assert not err.getvalue().startswith("internal error"), err.getvalue()


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_parsed_inputs_keep_the_exit_code_contract(no_worker_processes, tmp_path, command):
    bodies, flags = COMMANDS[command]
    path = tmp_path / "input.txt"

    @settings(max_examples=120, deadline=None)
    @given(bodies, flags)
    def check(body, parts):
        path.write_text(body)
        _keeps_the_contract(_argv(parts, path))

    check()


@st.composite
def command_argv(draw, head, flags):
    """``head`` and one ``--name value`` pair per entry of ``flags`` (name ->
    (valid values, invalid values); ``n_max`` is ``--n-max``, None leaves
    the flag out).  About one argv in two takes an invalid value for one flag.
    A ``threads`` entry, whatever its values, is replaced by threads drawn
    together with ``--mode`` (bad-sets) or ``--samples`` (verify observation);
    in an exact scan a seed or a trial count is invalid, since it changes
    nothing.
    """
    flags = dict(flags)
    if "threads" in flags:  # two threads only with a sampled scan, which refuses them
        sampled = draw(st.booleans())
        if head[-1] == "bad-sets":
            flags["mode"] = (["sampled"] if sampled else [None, "exact"], ["all"])
        else:
            flags["samples"] = ([1, 20] if sampled else [None], [0, -1])
        flags["threads"] = ([1, 2] if sampled else [1], [0, -1, 65])
        if not sampled:
            flags["seed"] = ([None], [0])
            if "trials" in flags:
                flags["trials"] = ([None], [5])
    broken = draw(st.sampled_from([None] * len(flags) + list(flags)))
    argv = list(head)
    for name, (valid, invalid) in flags.items():
        value = draw(st.sampled_from(invalid if name == broken else valid))
        if value is not None:
            argv += [f"--{name.replace('_', '-')}", str(value)]
    return argv


SIZES = ([2, 3, 4], [-1, 1])  # clique and independent-set sizes
# Files named by --in, written by ``_write_inputs`` into the working
# directory; "missing" names none, and a file of the wrong format is invalid.
OUT = ([None, "out.txt"], ["missing/out.txt"])
PATTERNS = (["c4diag.cg", "a3.cg", "a33.cg", "partial.cg"], ["missing.cg", "g.txt"])
VERIFY_K = ([3, 4, 5], [-1, 0, 2, 513])
SEED = ([None, 0, 5], [-1])
ARGV = {
    "oracle-f": command_argv(["oracle", "f"], {
        "n": ([2, 3, 4, 5], [-1, 0, 1]), "s": SIZES, "t": SIZES,
        "k": ([None, 2, 3, 4], [-1, 0, 1]), "n_max": ([3, 4, 5, 6, 9], [-1, 0])}),
    "oracle-g": command_argv(["oracle", "g"], {
        "n": ([2, 3, 4, 5], [-1, 0, 1]), "s": SIZES, "t": SIZES,
        "n_max": ([3, 4, 5, 6, 7, 9], [-1, 0])}),
    "search-ssat": command_argv(["search", "ssat"], {
        "r": ([2, 3], [-1, 1, 9]), "k": ([3, 4], [-1, 2, 9]), "n": ([1, 3, 5, 8], [-1, 0, 33]),
        "node_budget": ([1, 50, 300], [-1, 0])}),
    "bad-sets-gnp": command_argv(["experiment", "bad-sets"], {
        "gnp_n": ([4, 8, 12], [None, -1, 0]), "gnp_p": ([0.0, 0.5, 1.0], [None, -0.5, 1.5, "nan"]),
        "gnp_seed": ([0, 3], [None, -1]), "n": ([1, 3, 4, 6], [-1, 0, 13]), "s": SIZES,
        "t": SIZES, "trials": ([5, 7], [None, -1, 0]), "seed": ([3], [None]), "threads": None}),
    "construct-affine": command_argv(["construct", "affine"], {
        "q": ([2, 3, 5], [-1, 0, 1, 4]), "r": ([2, 3, 6], [-1, 0, 1, 99]),
        "strategy": ([None, "parallel-balanced", "round-robin"], ["greedy"]),
        "seed": SEED, "out": OUT}),
    "construct-fq3": command_argv(["construct", "fq3"], {
        "q": ([2, 3], [-1, 0, 1, 4]), "r": ([2, 3, 4], [-1, 0, 1, 99]), "out": OUT}),
    "construct-gnp": command_argv(["construct", "gnp"], {
        "n": ([0, 1, 9, 30], [-1, 4097]), "p": ([0.0, 0.3, 1.0], [-0.1, 1.5, "nan", "x"]),
        "seed": ([0, 7], [None, -1]), "out": OUT}),
    **{f"verify-{name}": command_argv(["verify", name], {
        "in": PATTERNS, "k": VERIFY_K, **extra})
       for name, extra in [("ssat", {"samples": ([None, 1, 20], [0, -1]), "seed": SEED}),
                           ("ssat-direct", {}), ("kkfree", {}), ("saturated", {}),
                           ("observation", {"r": ([None, 2, 3], [-1, 0, 1, 65]), "seed": SEED,
                                            "threads": None})]},
    "reduce-chi-to-graph": command_argv(["reduce", "chi-to-graph"], {
        "in": (["chi2.ksc", "chi3.ksc", "chi4.ksc"], ["missing.ksc", "a3.cg"]),
        "s": SIZES, "t": SIZES, "tie_break": ([None, "nonedge", "edge"], ["random"]),
        "out": OUT}),
    "reduce-graph-to-chi": command_argv(["reduce", "graph-to-chi"], {
        "in": (["g.txt"], ["missing.txt", "chi3.ksc"]), "s": SIZES, "t": SIZES,
        "default": ([None, "red", "blue"], ["green"]), "out": OUT}),
    "geom-plane": command_argv(["geom", "plane"], {
        "q": ([2, 3, 5], [-1, 0, 1, 4]), "out": OUT}),
    "geom-fq3-family": command_argv(["geom", "fq3-family"], {
        "q": ([2, 3], [-1, 0, 1, 4]), "lambda": ([0, 1, 2], [-1, 3, 5]), "out": OUT}),
}


# The commands that read no file draw 150 argvs each; the rest draw 60
# each, so that their twelve runs together take a few seconds.
FILELESS = ("oracle-f", "oracle-g", "search-ssat", "bad-sets-gnp")


def _write_inputs(directory, c4_diagonals) -> None:
    partial = rs.ColoredCompleteGraph((rs.SimpleGraph.from_edges(5, [(0, 1), (1, 2), (2, 3)]),
                                       rs.SimpleGraph.from_edges(5, [(0, 2), (2, 4)])))
    files = {"c4diag.cg": rs.dump_colored_graph(c4_diagonals),
             "a3.cg": rs.dump_colored_graph(rs.affine_coloring(3, 2)),
             "a33.cg": rs.dump_colored_graph(rs.affine_coloring(3, 3)),
             "partial.cg": rs.dump_colored_graph(partial),
             "g.txt": rs.dump_simple_graph(rs.sample_gnp(rs.GnpParams(9, 0.5, 2)))}
    for k, N in ((2, 6), (3, 7), (4, 7)):
        files[f"chi{k}.ksc"] = rs.dump_ksubset_coloring(random_ksc(N, k, k))
    for name, text in files.items():
        (directory / name).write_text(text)


@pytest.mark.parametrize("command", sorted(ARGV))
def test_flag_values_keep_the_exit_code_contract(no_worker_processes, tmp_path, monkeypatch,
                                                 c4_diagonals, command):
    _write_inputs(tmp_path, c4_diagonals)
    monkeypatch.chdir(tmp_path)

    @settings(max_examples=150 if command in FILELESS else 60, deadline=None)
    @given(ARGV[command])
    def check(argv):
        _keeps_the_contract(argv)

    check()
