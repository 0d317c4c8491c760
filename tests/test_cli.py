"""CLI: exit codes, certificates, witness feedback, reproducibility."""

import json
import time

import pytest

import ramsat as rs
from ramsat import cli
from ramsat.cli import run

from conftest import checkout_env


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
    assert rs.observation_fails_at(pattern, 3, w["color"], w["vertices"])

    code, cert = _run(capsys, ["verify", "saturated", "--in", str(c4), "--k", "3"])
    assert code == 0  # the C_4/diagonals pattern is saturated


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


def test_cli_import_leaves_numpy_unloaded():
    import subprocess
    import sys

    code = "import sys, ramsat.cli; print('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=checkout_env())
    assert proc.returncode == 0 and proc.stdout.strip() == "False"


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


def test_internal_error_exits_5_without_certificate(monkeypatch, capsys):
    def overflow(args):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setitem(cli._HANDLERS, "geom", overflow)
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
