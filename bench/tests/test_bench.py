"""Tests of the benchmark itself: its output checks, its tracer and its names.

Run with `python3 -m pytest bench/tests` from the root of a checkout.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run as bench  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import CheckError, Context, check_output  # noqa: E402

import ramsat  # noqa: E402
import ramsat.cli  # noqa: E402


def ops_of(name, tmp_path, seed=1):
    """The workload's ops, with its preparation steps run on fake inputs."""
    ctx = Context(seed, tmp_path)
    if name == "observation":
        # the construct step normally writes this file
        (tmp_path / "affine.cg").write_text(
            ramsat.dump_colored_graph(ramsat.affine_coloring(workloads.AFFINE_Q, workloads.AFFINE_R)))
    return list(workloads.WORKLOADS[name](ctx))


def cert(claim, verdict, checked, witness=None, params=None):
    return {"claim": claim, "params": params or {}, "verdict": verdict, "witness": witness,
            "checked": checked, "seed": None, "tool_version": "0.1.0", "wall_time_ms": 7}


def good_outputs(name, tmp_path):
    """(op, exit code, certificate) as a correct program prints them."""
    out = []
    for op in ops_of(name, tmp_path):
        if op.label == "construct-affine":
            c = cert("construct-affine", "holds", 300)
        elif op.label.startswith("verify-observation"):
            c = cert("verify-observation", "holds", workloads.OBS_CHECKED, params={"threads": 2})
        elif op.label == "bad-sets":
            c = cert("experiment-bad-sets", "holds", 593775,
                     {"mode": "exact", "space": 593775, "hits": 209702, "value": 209702.0})
        elif op.label.startswith("ssat-"):
            c = cert("search-ssat", "fails", 726, {"kind": "exhausted-search-space", "nodes": 726})
        else:
            c = cert(f"oracle-{op.argv[1]}", "holds", 99, {"value": 6})
        out.append((op, op.exit_code, c))
    return out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_correct_outputs_pass(name, tmp_path):
    for op, code, c in good_outputs(name, tmp_path):
        assert check_output(op, code, json.dumps(c) + "\n") == c


def tampered(c):
    """Wrong certificates of every kind the checks must catch."""
    yield "not json", "{", None
    yield "two certificates", json.dumps(c) + "\n" + json.dumps(c), None
    no_wall = dict(c)
    del no_wall["wall_time_ms"]
    yield "fails validate_certificate", json.dumps(no_wall), None
    yield "verdict with wrong exit code", json.dumps(c), 3
    yield "wrong claim", json.dumps(c | {"claim": "geom-plane"}), None
    yield "wrong count", json.dumps(c | {"checked": c["checked"] + 1}), None
    if isinstance(c["witness"], dict):
        for key, value in c["witness"].items():
            if isinstance(value, (int, float)):
                wrong = c["witness"] | {key: value + 1}
                yield f"wrong witness {key}", json.dumps(c | {"witness": wrong}), None


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tampered_outputs_fail(name, tmp_path):
    for op, code, c in good_outputs(name, tmp_path):
        for why, text, exit_code in tampered(c):
            if why == "wrong count" and op.label.startswith("oracle-"):
                continue  # how many graphs an oracle examines is not fixed by its claim
            with pytest.raises(CheckError):
                check_output(op, code if exit_code is None else exit_code, text)
                pytest.fail(f"{op.label}: {why} passed")


def test_ssat_holds_is_wrong(tmp_path):
    op = ops_of("search", tmp_path)[0]
    found = cert("search-ssat", "holds", 5, {"kind": "semisaturated-pattern", "pattern": "cg 9 3\n"})
    with pytest.raises(CheckError):
        check_output(op, 0, json.dumps(found))


def test_wrong_output_counts_as_failed(tmp_path):
    outputs = good_outputs("search", tmp_path)
    op, code, wrong = outputs[4]
    assert op.label.startswith("oracle-")
    wrong["witness"]["value"] = 7
    by_label = {op.label: (code, c) for op, code, c in outputs}

    def execute(op):
        code, c = by_label[op.label]
        return {"exit": code, "stdout": json.dumps(c)}

    records, attempted, error = bench.run_pass("search", Context(1, tmp_path), execute)
    assert attempted == 5 and len(records) == 4
    assert "value 7" in error


def test_bad_set_count_is_independent_of_the_program():
    g = ramsat.sample_gnp(ramsat.GnpParams(12, 0.5, 3))
    adj = workloads.gnp_adjacency(12, 0.5, 3)
    assert [[bool(g.has_edge(u, v)) for v in range(12)] for u in range(12)] == adj.tolist()
    expected = ramsat.count_bad_sets(g, 5, 3, 3).hits
    assert workloads.count_bad_subsets(adj, 5, 3, 3) == expected


def test_relabel_keeps_the_colouring():
    text = ramsat.dump_colored_graph(ramsat.affine_coloring(3, 2))
    moved = workloads.relabel_cg(text, 5)
    assert moved != text
    a, b = ramsat.parse_colored_graph(text), ramsat.parse_colored_graph(moved)
    assert sorted(cls.edge_count for cls in a.classes) == sorted(cls.edge_count for cls in b.classes)


def namespace_state():
    mods = [m for name, m in sys.modules.items() if name == "ramsat" or name.startswith("ramsat.")]
    state = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
    state[("ramsat.io", "Certificate.to_json")] = vars(ramsat.io.Certificate)["to_json"]
    return state


def traced_cli(argv):
    tracer = Tracer()
    before = namespace_state()
    tracer.install()
    try:
        assert ramsat.saturation.find_clique_mask is not before[("ramsat.saturation", "find_clique_mask")]
        tracer.op = "op"
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = ramsat.cli.run(argv)
    finally:
        tracer.restore()
    after = namespace_state()
    assert all(after[key] is value for key, value in before.items())
    return code, out.getvalue(), tracer.report()


def test_tracer_restores_every_patched_attribute():
    code, out, report = traced_cli(["search", "ssat", "--r", "2", "--k", "4", "--n", "6"])
    assert code == 1 and json.loads(out)["verdict"] == "fails"
    names = [s["name"] for s in report["spans"]]
    assert names == ["cli.run", "saturation.ssat_search", "io.Certificate.to_json"]


def test_trace_counts_repeat_exactly():
    argv = ["search", "ssat", "--r", "2", "--k", "4", "--n", "6"]
    first, second = traced_cli(argv)[2], traced_cli(argv)[2]

    def counts(report):
        return ({k: (v[0], v[2]) for k, v in report["hot"].items()},
                [(s["name"], s["counts"], {k: v[0] for k, v in s["hot"].items()}) for s in report["spans"]])

    assert counts(first) == counts(second)
    assert first["hot"]["graphs.find_clique_mask@saturation"][0] > 0


def test_emitted_names_are_declared():
    declared = bench.declared_metrics()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)

    rec = {"wall_s": 1.0, "cpu_s": 1.0, "rss_mb": 30.0, "cert": {"wall_time_ms": 500}}
    bench.as_metrics(bench.pass_metrics([rec, rec]), declared["end_to_end"])

    _, _, report = traced_cli(["oracle", "g", "--n", "3", "--s", "2", "--t", "2", "--n-max", "6"])
    traced = {"trace": report, "ops": [{"label": "op", "wall_s": 1.0, "cpu_s": 1.0}]}
    plain = {"ops": [{"label": "op", "wall_s": 0.9, "cpu_s": 0.9}]}
    metrics = bench.as_metrics(bench.layer_metrics(plain, traced, 0.3), declared["per_layer"])
    assert metrics["reduction.g_graphs"]["value"] > 0
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert all(metrics[name]["unit"] == units[name] for name in metrics)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "search", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
