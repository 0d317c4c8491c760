"""CLI: exit codes, certificates, witness feedback, reproducibility."""

import json
import time
from pathlib import Path

import pytest

import ramsat as rs
from ramsat import cmd_constructions
from ramsat.cli import run

from conftest import checkout_env, cycle, observation_fails_at


def _run(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out.strip()
    cert = json.loads(out) if out else None
    if cert is not None:
        rs.validate_certificate(cert)
    return code, cert


def test_search_ssat_exit_codes(capsys):
    code, cert = _run(capsys, ["search", "ssat", "--r", "2", "--k", "3", "--n", "3"])
    assert code == 1
    assert cert["verdict"] == "fails"
    assert cert["witness"]["kind"] == "exhausted-search-space"
    rs.validate_certificate(cert)

    code, cert = _run(capsys, ["search", "ssat", "--r", "2", "--k", "3", "--n", "4"])
    assert code == 0
    pattern = rs.parse_colored_graph(cert["witness"]["pattern"])
    assert rs.is_semisaturated_direct(pattern, 3).holds

    code, cert = _run(
        capsys,
        ["search", "ssat", "--r", "2", "--k", "3", "--n", "4", "--node-budget", "2"],
    )
    assert code == 2
    assert cert["verdict"] == "unknown" and "budget" in cert["params"]


def test_oracle_g_certificate(capsys):
    code, cert = _run(
        capsys, ["oracle", "g", "--n", "3", "--s", "2", "--t", "2", "--n-max", "6"]
    )
    assert code == 0
    assert cert["witness"]["value"] == 6
    w = rs.parse_simple_graph(cert["witness"]["counterexample"])
    assert w.n == 5 and all(w.degree(v) == 2 for v in range(5))


def test_oracle_f_certificate(capsys):
    code, cert = _run(
        capsys,
        ["oracle", "f", "--n", "3", "--s", "2", "--t", "2", "--k", "3", "--n-max", "6"],
    )
    assert code == 0 and cert["witness"]["value"] == 3 and cert["params"]["k"] == 3
    # over budget: C(8,3) = 56 color positions; without --k the oracle runs
    # at k = s + t - 2, and the certificate says so
    code, cert = _run(
        capsys,
        ["oracle", "f", "--n", "3", "--s", "2", "--t", "3", "--n-max", "8"],
    )
    assert code == 2 and cert["verdict"] == "unknown" and cert["params"]["k"] == 3
    # k below t is refused, with no certificate
    assert run(["oracle", "f", "--n", "3", "--s", "2", "--t", "3", "--k", "2",
                "--n-max", "6"]) == 3
    assert capsys.readouterr().out == ""


def test_oracle_f_cap_refuses_before_the_binomial(capsys):
    # C(6000000, 3000000) is never computed: the cap answers at once, with
    # the "unknown" certificate of any other over-cap oracle f
    start = time.perf_counter()
    code, cert = _run(capsys, ["oracle", "f", "--n", "3000000", "--s", "2", "--t", "2",
                               "--k", "3000000", "--n-max", "6000000"])
    assert time.perf_counter() - start < 2
    assert code == 2 and cert["verdict"] == "unknown" and cert["checked"] == 0
    assert cert["params"]["budget"] == "C(6000000,3000000) exceeds f-oracle cap 20"


def test_construct_verify_cycle(tmp_path, capsys):
    out = tmp_path / "a.cg"
    code, _ = _run(
        capsys,
        ["construct", "affine", "--q", "3", "--r", "2",
         "--strategy", "parallel-balanced", "--out", str(out)],
    )
    assert code == 0
    pattern = rs.parse_colored_graph(out.read_text())
    assert pattern == rs.affine_coloring(3, 2)

    code, cert = _run(capsys, ["verify", "ssat", "--in", str(out), "--k", "3"])
    assert code == 0 and cert["verdict"] == "holds"
    code, cert = _run(
        capsys, ["verify", "observation", "--in", str(out), "--k", "3", "--r", "2"]
    )
    assert code == 0
    code, cert = _run(capsys, ["verify", "kkfree", "--in", str(out), "--k", "3"])
    assert code == 1  # lines are monochromatic cliques
    w = cert["witness"]
    assert w["kind"] == "monochromatic-clique"
    cls = pattern.classes[w["color"] - 1]
    assert all(cls.has_edge(u, v) for u in w["vertices"] for v in w["vertices"] if u < v)


def test_verify_failing_witness_feeds_back(tmp_path, capsys):
    n = 5
    classes = (rs.SimpleGraph.complete(n), rs.SimpleGraph.empty(n))
    pat = rs.ColoredCompleteGraph(classes)
    path = tmp_path / "mono.cg"
    path.write_text(rs.dump_colored_graph(pat))
    for cmd in ("ssat", "ssat-direct"):
        code, cert = _run(capsys, ["verify", cmd, "--in", str(path), "--k", "3"])
        assert code == 1
        assert rs.coloring_escapes(pat, 3, cert["witness"]["colors"])

    c4 = tmp_path / "c4.cg"
    c4.write_text("cg 4 2\n0 1 1\n1 2 1\n2 3 1\n0 3 1\n0 2 2\n1 3 2\n")
    code, cert = _run(capsys, ["verify", "observation", "--in", str(c4), "--k", "3", "--r", "2"])
    assert code == 1
    w = cert["witness"]
    pattern = rs.parse_colored_graph(c4.read_text())
    assert observation_fails_at(pattern, 3, w["color"], w["vertices"])

    code, cert = _run(capsys, ["verify", "saturated", "--in", str(c4), "--k", "3"])
    assert code == 0  # the C_4/diagonals pattern is saturated


def test_verify_observation_reads_r_from_the_pattern(tmp_path, capsys):
    path = tmp_path / "a34.cg"
    assert _run(capsys, ["construct", "affine", "--q", "3", "--r", "4", "--out", str(path)])[0] == 0
    base = ["verify", "observation", "--in", str(path), "--k", "3"]
    # every 5-subset spans an edge of the first two classes, but the pattern
    # has four colors and a coloring escapes it: an --r that is not the
    # pattern's is refused with no certificate
    assert run(base + ["--r", "2"]) == 3
    assert capsys.readouterr().out == ""
    assert _run(capsys, ["verify", "ssat", "--in", str(path), "--k", "3"])[0] == 1
    bodies = []
    for extra in ([], ["--r", "4"]):
        code, cert = _run(capsys, base + extra)
        assert code == 1 and cert["params"]["r"] == 4
        cert.pop("wall_time_ms")
        bodies.append(cert)
    assert bodies[0] == bodies[1]


def test_reduce_commands(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    g = rs.sample_gnp(rs.GnpParams(6, 0.5, 21))
    gpath.write_text(rs.dump_simple_graph(g))
    kpath = tmp_path / "chi.ksc"
    code, _ = _run(
        capsys,
        ["reduce", "graph-to-chi", "--in", str(gpath), "--s", "2", "--t", "3",
         "--out", str(kpath)],
    )
    assert code == 0
    chi = rs.parse_ksubset_coloring(kpath.read_text())
    assert chi == rs.graph_to_coloring(g, 2, 3)

    gout = tmp_path / "back.txt"
    code, _ = _run(
        capsys,
        ["reduce", "chi-to-graph", "--in", str(kpath), "--s", "2", "--t", "3",
         "--out", str(gout)],
    )
    assert code == 0
    assert rs.parse_simple_graph(gout.read_text()) == rs.coloring_to_graph(chi, 2, 3)


def test_experiment_bad_sets(capsys):
    code, cert = _run(
        capsys,
        ["experiment", "bad-sets", "--gnp-n", "10", "--gnp-p", "0.5",
         "--gnp-seed", "4", "--n", "4", "--s", "3", "--t", "3"],
    )
    assert code == 0
    assert cert["witness"]["mode"] == "exact"
    exact_value = cert["witness"]["value"]

    code, cert = _run(
        capsys,
        ["experiment", "bad-sets", "--gnp-n", "10", "--gnp-p", "0.5",
         "--gnp-seed", "4", "--n", "4", "--s", "3", "--t", "3",
         "--mode", "sampled", "--trials", "500", "--seed", "1"],
    )
    assert code == 0
    assert abs(cert["witness"]["value"] - exact_value) < cert["witness"]["space"]

    code, _ = _run(
        capsys,
        ["experiment", "bad-sets", "--gnp-n", "10", "--gnp-p", "0.5",
         "--gnp-seed", "4", "--n", "4", "--s", "3", "--t", "3", "--mode", "sampled"],
    )
    assert code == 3  # sampled without --trials/--seed is a usage error


def test_geom_commands(tmp_path, capsys):
    inc = tmp_path / "plane.inc"
    code, _ = _run(capsys, ["geom", "plane", "--q", "5", "--out", str(inc)])
    assert code == 0
    plane = rs.parse_incidence(inc.read_text())
    plane.validate()

    code, cert = _run(capsys, ["geom", "fq3-family", "--q", "3", "--lambda", "1"])
    assert code == 0
    fam = rs.parse_incidence(cert["witness"]["text"])
    assert len(fam.lines) == 27

    # a parallel class against one of its own lines: count 5 >= negative bound
    lines = ",".join(str(i) for i in range(5))
    points = ",".join(str(p) for p in plane.lines[0])
    code, cert = _run(
        capsys,
        ["geom", "incidence", "--in", str(inc), "--lines", lines, "--points", points],
    )
    assert code == 0
    assert cert["witness"]["count"] == 5

    # a repeated point is no set: exit 3, not a "fails" certificate
    points = ",".join(["0"] * 200)
    assert run(["geom", "incidence", "--in", str(inc), "--lines", "0", "--points", points]) == 3
    assert capsys.readouterr().out == ""


def test_usage_and_io_errors(tmp_path, capsys):
    assert run(["verify", "ssat", "--k", "3"]) == 3  # missing --in
    capsys.readouterr()
    assert run(["verify", "ssat", "--in", str(tmp_path / "nope.cg"), "--k", "3"]) == 4
    capsys.readouterr()
    bad = tmp_path / "bad.cg"
    bad.write_text("cg 4 2\n0 1 9\n")
    assert run(["verify", "ssat", "--in", str(bad), "--k", "3"]) == 4
    capsys.readouterr()


def test_certificate_reproducibility(capsys):
    argv = ["construct", "gnp", "--n", "12", "--p", "0.5", "--seed", "33"]
    _, a = _run(capsys, argv)
    _, b = _run(capsys, argv)
    a.pop("wall_time_ms")
    b.pop("wall_time_ms")
    assert a == b

    argv = ["search", "ssat", "--r", "2", "--k", "3", "--n", "4"]
    _, a = _run(capsys, argv)
    _, b = _run(capsys, argv)
    a.pop("wall_time_ms")
    b.pop("wall_time_ms")
    assert a == b


def test_module_entry_point(tmp_path):
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "ramsat.cli", "oracle", "g",
         "--n", "2", "--s", "2", "--t", "2", "--n-max", "3"],
        capture_output=True, text=True, env=checkout_env(),
    )
    assert proc.returncode == 0
    cert = json.loads(proc.stdout)
    assert cert["witness"]["value"] == 2


def test_cli_import_leaves_numpy_unloaded(tmp_path):
    # the process pool loads on the first sharded scan; numpy never, not even on a draw
    import subprocess
    import sys

    pattern = str(tmp_path / "rr.cg")
    gnp = ["--gnp-n", "10", "--gnp-p", "0.5", "--gnp-seed", "4", "--n", "4", "--s", "3", "--t", "3"]
    commands = [
        ["construct", "gnp", "--n", "12", "--p", "0.5", "--seed", "3"],
        ["experiment", "bad-sets", *gnp, "--mode", "exact"],
        ["experiment", "bad-sets", *gnp, "--mode", "sampled", "--trials", "50", "--seed", "1"],
        ["construct", "affine", "--q", "3", "--r", "2", "--strategy", "round-robin",
         "--seed", "1", "--out", pattern],
        ["verify", "ssat", "--in", pattern, "--k", "4", "--samples", "20", "--seed", "5"],
        ["verify", "observation", "--in", pattern, "--k", "4", "--samples", "20", "--seed", "5"],
    ]
    lazy = ("numpy", "concurrent.futures.process", "multiprocessing")
    code = (
        "import contextlib, io, json, sys, ramsat.cli\n"
        f"print([m for m in {lazy!r} if m in sys.modules])\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [ramsat.cli.run(argv) for argv in json.loads(sys.argv[1])]\n"
        "print(json.dumps([codes, 'numpy' in sys.modules]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(commands)],
                          capture_output=True, text=True, env=checkout_env())
    assert proc.returncode == 0, proc.stderr
    after_import, after_draws = proc.stdout.splitlines()
    assert after_import == "[]"
    codes, numpy_loaded = json.loads(after_draws)
    assert all(code in (0, 1, 2) for code in codes), codes
    assert not numpy_loaded


_BASE = {"ramsat", "ramsat.cli", "ramsat.errors", "ramsat.graphs", "ramsat.io"}


@pytest.mark.parametrize("argv, loads", [
    (["search", "ssat", "--r", "2", "--k", "3", "--n", "4"], {"cmd_saturation", "saturation"}),
    (["oracle", "g", "--n", "3", "--s", "2", "--t", "2", "--n-max", "6"],
     {"cmd_reduction", "reduction"}),
    (["oracle", "f", "--n", "3", "--s", "2", "--t", "2", "--n-max", "6"],
     {"cmd_reduction", "reduction"}),
    (["verify", "observation", "--in", "c4diag.cg", "--k", "3"], {"cmd_saturation", "saturation"}),
    (["experiment", "bad-sets", "--gnp-n", "10", "--gnp-p", "0.5", "--gnp-seed", "4",
      "--n", "4", "--s", "3", "--t", "3"], {"cmd_constructions", "constructions", "rng"}),
    (["construct", "affine", "--q", "3", "--r", "2"],
     {"cmd_constructions", "constructions", "geometry"}),
    (["geom", "plane", "--q", "3"], {"cmd_constructions", "geometry"}),
    (["verify", "ssat", "--in", "c4diag.cg", "--k", "3", "--samples", "3", "--seed", "1"],
     {"cmd_saturation", "saturation", "rng"}),
    (["reduce", "graph-to-chi", "--in", "c4.txt", "--s", "2", "--t", "2"],
     {"cmd_reduction", "reduction"}),
], ids=lambda x: "-".join(x[:2]) if isinstance(x, list) else None)
def test_each_command_group_loads_only_its_modules(tmp_path, c4_diagonals, argv, loads):
    # -S keeps what the interpreter's site hooks import out of the check
    import subprocess
    import sys

    (tmp_path / "c4diag.cg").write_text(rs.dump_colored_graph(c4_diagonals))
    (tmp_path / "c4.txt").write_text(rs.dump_simple_graph(c4_diagonals.classes[0]))
    code = (
        "import contextlib, io, json, sys, ramsat\n"
        "loaded = [m for m in sys.modules if m.startswith('ramsat')]\n"
        "import ramsat.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    exit_code = ramsat.cli.run(json.loads(sys.argv[1]))\n"
        "print(json.dumps([loaded, exit_code, sorted(m for m in sys.modules if m.startswith('ramsat')),\n"
        "                  [m for m in ('dataclasses', 'inspect', 'typing') if m in sys.modules]]))\n"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", code, json.dumps(argv)], cwd=tmp_path,
                          capture_output=True, text=True, env=checkout_env())
    assert proc.returncode == 0, proc.stderr
    after_import, exit_code, modules, heavy = json.loads(proc.stdout)
    assert after_import == ["ramsat"]
    assert exit_code in (0, 1, 2)
    assert set(modules) == _BASE | {f"ramsat.{m}" for m in loads}
    assert heavy == []


def test_help_goes_to_stderr_and_exits_3(capsys):
    assert run(["--help"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and "usage: ramsat" in err and "oracle" in err
    assert run(["oracle", "g", "-h"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and "--n-max" in err


def _imports() -> dict[str, set[str]]:
    """Per module of the package, the modules its import statements name, at any
    depth; a module of the package reads the same as ``.x``, ``ramsat.x`` or
    ``from . import x``: ``x``."""
    import ast

    found = {}
    for path in sorted(Path(rs.__file__).parent.glob("*.py")):
        names = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                names.add(module)
                if (node.level and not module) or module == "ramsat":
                    names.update(f"{module}.{alias.name}".lstrip(".") for alias in node.names)
        found[path.stem] = {name.removeprefix("ramsat.") for name in names}
    return found


def test_no_module_imports_numpy():
    for module, names in _imports().items():
        assert not any(name.split(".")[0] == "numpy" for name in names), (module, names)


def test_no_module_imports_typing():
    # annotations are strings (PEP 563); typing would cost every process its import
    for module, names in _imports().items():
        assert not any(name.split(".")[0] == "typing" for name in names), (module, names)


def test_only_the_construct_commands_import_constructions():
    # graphs holds the pattern type and the generator, so only the command
    # groups that build colorings or sample graphs load the constructions
    importers = {module for module, names in _imports().items() if "constructions" in names}
    assert importers == {"cmd_constructions"}


def test_no_module_imports_cli():
    # `python -m ramsat.cli` runs cli as __main__: a module importing it would
    # compile it again, with a second UsageError that run() does not catch
    importers = {module for module, names in _imports().items() if "cli" in names}
    assert importers == set()


def test_usage_error_in_a_handler_exits_3_under_python_m():
    # the handler, not the parser, refuses --trials in an exact count
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "ramsat.cli", "experiment", "bad-sets", "--gnp-n", "10",
         "--gnp-p", "0.5", "--gnp-seed", "1", "--n", "4", "--s", "3", "--t", "3",
         "--mode", "exact", "--trials", "5"],
        capture_output=True, text=True, env=checkout_env(),
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("usage error: --trials changes nothing")


def test_seed_domain_is_numpys(capsys):
    import numpy as np
    from itertools import combinations, compress

    seed = 2**64  # past 64 bits: a stream of its own, not seed 0's
    code, cert = _run(capsys, ["construct", "gnp", "--n", "12", "--p", "0.5", "--seed", str(seed)])
    assert code == 0 and cert["seed"] == seed
    draws = np.random.Generator(np.random.PCG64(seed)).random(66) < 0.5
    want = rs.SimpleGraph.from_edges(12, compress(combinations(range(12), 2), draws))
    assert rs.parse_simple_graph(cert["witness"]["text"]) == want
    _, zero = _run(capsys, ["construct", "gnp", "--n", "12", "--p", "0.5", "--seed", "0"])
    assert zero["witness"] != cert["witness"]
    assert _run(capsys, ["construct", "gnp", "--n", "12", "--p", "0.5", "--seed", "-1"]) == (3, None)


def test_sampled_verify_requires_seed(tmp_path, capsys):
    path = tmp_path / "p.cg"
    path.write_text(rs.dump_colored_graph(rs.random_complete_pattern(5, 2, 0)))
    code = run(["verify", "ssat", "--in", str(path), "--k", "3", "--samples", "10"])
    assert code == 3
    capsys.readouterr()


@pytest.mark.parametrize("command", ["kkfree", "saturated"])
@pytest.mark.parametrize("k", [-1, 0, 1, 2])
def test_verify_rejects_k_below_3(tmp_path, capsys, c4_diagonals, command, k):
    path = tmp_path / "c4diag.cg"
    path.write_text(rs.dump_colored_graph(c4_diagonals))
    assert run(["verify", command, "--in", str(path), "--k", str(k)]) == 3
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("threads", [0, -3])
def test_threads_below_1_rejected(no_worker_processes, capsys, threads):
    argv = ["experiment", "bad-sets", "--gnp-n", "10", "--gnp-p", "0.5", "--gnp-seed", "1",
            "--n", "4", "--s", "3", "--t", "3", "--threads", str(threads)]
    assert run(argv) == 3
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [
    ["verify", "observation", "--in", "c4diag.cg", "--k", "3", "--r", "2",
     "--samples", "5", "--seed", "1", "--threads", "0"],
    ["experiment", "bad-sets", "--gnp-n", "12", "--gnp-p", "0.5", "--gnp-seed", "1",
     "--n", "4", "--s", "3", "--t", "3", "--mode", "sampled", "--trials", "5", "--seed", "1",
     "--threads", "-2"],
    # C(49, 25) subsets exceed the exact budget, which is checked after threads
    ["verify", "observation", "--in", "a7.cg", "--k", "4", "--r", "2", "--threads", "0"],
], ids=["observation-sampled", "bad-sets-sampled", "observation-over-budget"])
def test_threads_below_1_rejected_on_every_path(
    no_worker_processes, tmp_path, monkeypatch, capsys, c4_diagonals, argv
):
    (tmp_path / "c4diag.cg").write_text(rs.dump_colored_graph(c4_diagonals))
    (tmp_path / "a7.cg").write_text(rs.dump_colored_graph(rs.affine_coloring(7, 2)))
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 3
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [
    ["experiment", "bad-sets", "--gnp-n", "12", "--gnp-p", "0.5", "--gnp-seed", "1",
     "--n", "4", "--s", "3", "--t", "3", "--mode", "sampled", "--trials", "5", "--seed", "1",
     "--threads", "2"],
    ["verify", "observation", "--in", "a.cg", "--k", "4", "--r", "2",
     "--samples", "5", "--seed", "1", "--threads", "2"],
], ids=["bad-sets", "observation"])
def test_sampled_scans_refuse_threads_above_1(
    no_worker_processes, tmp_path, monkeypatch, capsys, argv
):
    # a sampled scan never shards, so a recorded thread count must not claim it did
    (tmp_path / "a.cg").write_text(rs.dump_colored_graph(rs.affine_coloring(5, 2)))
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 3
    out, err = capsys.readouterr()
    assert out == "" and "one process" in err


@pytest.mark.parametrize("argv", [
    ["experiment", "bad-sets", "--gnp-n", "10", "--gnp-p", "0.5", "--gnp-seed", "1",
     "--n", "4", "--s", "3", "--t", "3", "--mode", "exact", "--trials", "5"],
    ["experiment", "bad-sets", "--gnp-n", "10", "--gnp-p", "0.5", "--gnp-seed", "1",
     "--n", "4", "--s", "3", "--t", "3", "--seed", "1"],
    ["construct", "affine", "--q", "3", "--r", "2", "--seed", "1"],
    ["verify", "ssat", "--in", "c4diag.cg", "--k", "3", "--seed", "1"],
    ["verify", "observation", "--in", "c4diag.cg", "--k", "3", "--r", "2", "--seed", "1"],
    ["experiment", "bad-sets", "--in", "c6.g", "--gnp-p", "0.5",
     "--n", "4", "--s", "2", "--t", "2", "--mode", "exact"],
    ["experiment", "bad-sets", "--in", "c6.g", "--gnp-seed", "3",
     "--n", "4", "--s", "2", "--t", "2", "--mode", "exact"],
], ids=["bad-sets-trials", "bad-sets-seed", "affine", "ssat", "observation",
        "bad-sets-in-gnp-p", "bad-sets-in-gnp-seed"])
def test_flags_that_change_nothing_are_refused(
    tmp_path, monkeypatch, capsys, c4_diagonals, argv
):
    # nothing is drawn, or the graph is read from a file, so a certificate
    # recording the flag would claim what did not act
    (tmp_path / "c4diag.cg").write_text(rs.dump_colored_graph(c4_diagonals))
    (tmp_path / "c6.g").write_text(rs.dump_simple_graph(cycle(6)))
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 3
    out, err = capsys.readouterr()
    assert out == "" and "changes nothing" in err


@pytest.mark.parametrize("command", ["g", "f"])
@pytest.mark.parametrize("n, n_max", [(3, -5), (3, 1), (5, 3)])
def test_oracles_refuse_an_empty_level_range(capsys, command, n, n_max):
    argv = ["oracle", command, "--n", str(n), "--s", "2", "--t", "2", "--n-max", str(n_max)]
    assert run(argv) == 3
    out, err = capsys.readouterr()
    assert out == "" and "n_max" in err


def test_internal_error_exits_5_without_certificate(monkeypatch, capsys):
    def overflow(args, claim):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cmd_constructions, "handle_geom", overflow)
    assert run(["geom", "plane", "--q", "3"]) == 5
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "internal error: RecursionError: maximum recursion depth exceeded\n"


@pytest.mark.parametrize("argv", [
    ["verify", "ssat", "--in", "c4diag.cg", "--k", "3", "--samples", "-2", "--seed", "1"],
    ["verify", "ssat", "--in", "c4diag.cg", "--k", "3", "--samples", "0", "--seed", "1"],
    ["verify", "observation", "--in", "c4diag.cg", "--k", "3", "--r", "2",
     "--samples", "-4", "--seed", "1"],
], ids=["ssat-negative", "ssat-zero", "observation-negative"])
def test_samples_below_1_rejected(tmp_path, monkeypatch, capsys, c4_diagonals, argv):
    (tmp_path / "c4diag.cg").write_text(rs.dump_colored_graph(c4_diagonals))
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 3
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("budget", [0, -5])
def test_node_budget_below_1_rejected(capsys, budget):
    argv = ["search", "ssat", "--r", "2", "--k", "3", "--n", "4", "--node-budget", str(budget)]
    assert run(argv) == 3
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("q", [0, 1, 4, -3])
def test_incidence_header_with_nonprime_q_exits_4(tmp_path, capsys, q):
    path = tmp_path / "bad.inc"
    path.write_text(f"inc affine-plane {q}\n")
    assert run(["geom", "incidence", "--in", str(path), "--lines", "", "--points", ""]) == 4
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("text", ["inc fq3-family 3 -1\n", "inc affine-plane 3\n0 1 2\n"],
                         ids=["lambda-out-of-range", "one-line-plane"])
def test_incidence_body_not_the_named_structure_exits_4(tmp_path, capsys, text):
    path = tmp_path / "bad.inc"
    path.write_text(text)
    assert run(["geom", "incidence", "--in", str(path), "--lines", "", "--points", ""]) == 4
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("header, argv", [
    ("g 10000000000000000000", ["experiment", "bad-sets", "--n", "3", "--s", "2", "--t", "2"]),
    ("cg 10000000000000000000 2", ["verify", "ssat", "--k", "3"]),
    ("cg 3 100000000000000000000", ["verify", "ssat", "--k", "3"]),
    ("ksc 400000 200000\n0", ["reduce", "chi-to-graph", "--s", "2", "--t", "2"]),
    ("inc affine-plane 100003", ["geom", "incidence", "--lines", "0", "--points", "0"]),
], ids=["g-vertices", "cg-vertices", "cg-colors", "ksc-bits", "inc-points"])
def test_oversized_header_exits_4_before_allocating(tmp_path, capsys, header, argv):
    path = tmp_path / "big"
    path.write_text(header + "\n")
    start = time.perf_counter()
    assert run(argv + ["--in", str(path)]) == 4
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [
    ["verify", "observation", "--in", "a.cg", "--k", "4", "--r", "2", "--threads", "100000"],
    ["experiment", "bad-sets", "--gnp-n", "12", "--gnp-p", "0.5", "--gnp-seed", "1",
     "--n", "4", "--s", "3", "--t", "3", "--threads", "65"],
], ids=["observation", "bad-sets"])
def test_threads_above_cap_rejected(no_worker_processes, tmp_path, monkeypatch, capsys, argv):
    (tmp_path / "a.cg").write_text(rs.dump_colored_graph(rs.affine_coloring(5, 2)))
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 3
    assert capsys.readouterr().out == ""


def test_sampled_bad_sets_past_clique_depth_cap_exits_3(capsys):
    cap = rs.graphs.CLIQUE_DEPTH_CAP
    argv = ["experiment", "bad-sets", "--gnp-n", str(cap + 1), "--gnp-p", "1.0",
            "--gnp-seed", "1", "--n", str(cap + 1), "--s", str(cap + 1), "--t", "2",
            "--mode", "sampled", "--trials", "1", "--seed", "1"]
    assert run(argv) == 3
    out, err = capsys.readouterr()
    assert out == "" and "clique" in err


def test_kkfree_past_clique_depth_cap_still_answers(tmp_path, monkeypatch, capsys):
    # 27 vertices cannot hold a K_(cap+1): the size prune answers before the cap
    monkeypatch.chdir(tmp_path)
    assert run(["construct", "fq3", "--q", "3", "--r", "3", "--out", "f.cg"]) == 0
    capsys.readouterr()
    k = str(rs.graphs.CLIQUE_DEPTH_CAP + 1)
    code, cert = _run(capsys, ["verify", "kkfree", "--in", "f.cg", "--k", k])
    assert code == 0 and cert["verdict"] == "holds"


def test_sampled_observation_past_enumeration_cap(tmp_path, monkeypatch, capsys):
    # a 125-vertex pattern: sampling enumerates nothing, so the 64-vertex
    # enumeration cap applies only to the exact scan
    monkeypatch.chdir(tmp_path)
    assert run(["construct", "fq3", "--q", "5", "--r", "3", "--out", "fq3.cg"]) == 0
    capsys.readouterr()
    code, cert = _run(capsys, ["verify", "observation", "--in", "fq3.cg", "--k", "4",
                               "--r", "3", "--samples", "50", "--seed", "1"])
    assert code == 2 and cert["checked"] == 150
    assert run(["verify", "observation", "--in", "fq3.cg", "--k", "4", "--r", "3"]) == 3
    assert "capped at 64 vertices" in capsys.readouterr().err
