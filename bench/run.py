"""Benchmark of the `ramsat` prover, end to end and per module.

Run from the root of a checkout:

    python3 bench/run.py --workload observation --seed 1 --seconds 10 --trace 0

With ``--trace 0`` it runs the workload's `ramsat` commands as real
processes, in as many whole passes as fit in ``--seconds`` (at least one),
checks every certificate, and reports the end-to-end metrics of the mean
pass.  With ``--trace 1`` it runs one serial pass in-process
twice, in two fresh interpreters: once plain and once under the tracer of
`spans.py`, and reports the per-module metrics of the traced pass and the
tracing overhead.  The metric names and units are those of BENCHMARK.json.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; a fuller record of the run (machine,
commit, `src/` size, every op) goes to `.bench_out/results/`.  The exit code
is 0 only when every output was correct.  See README.md beside this file for
the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
RUN_LIMIT_S = 170  # every run, traced ones too, must end within 180 s

sys.path.insert(0, str(BENCH_DIR))

from workloads import WORKLOADS, CheckError, Context, check_output, ssat_label, SSAT_INSTANCES  # noqa: E402


def use_checkout_src() -> None:
    """Import `ramsat` from this checkout's `src/`, or exit if it has none."""
    if not (SRC / "ramsat" / "cli.py").is_file():
        sys.exit(f"bench: no src/ramsat/cli.py under {ROOT}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import ramsat

    if Path(ramsat.__file__).resolve().parent != (SRC / "ramsat").resolve():
        sys.exit(f"bench: ramsat imported from {ramsat.__file__}, not from {SRC}")


def declared_metrics() -> dict[str, dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def as_metrics(values: dict[str, float], units: dict[str, str]) -> dict:
    """Attach units; the computed names must be exactly the declared ones."""
    if set(values) != set(units):
        raise ValueError(f"metrics not as declared: extra {sorted(set(values) - set(units))}, "
                         f"missing {sorted(set(units) - set(values))}")
    return {name: {"value": values[name], "unit": units[name]} for name in units}


# -- processes ----------------------------------------------------------------


def child_env(workdir: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(workdir)
    return env


class Launcher:
    """Runs commands through `spawn.py` (see there why) and measures each."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, "-S", str(BENCH_DIR / "spawn.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, cmd: list[str], workdir: Path, deadline: float) -> dict:
        """Run one command to completion: exit code, stdout, the tail of
        stderr, wall time, and CPU time and peak RSS with reaped workers."""
        out_path, err_path = workdir / "stdout", workdir / "stderr"
        req = {"cmd": cmd, "cwd": str(ROOT), "env": child_env(workdir), "stdout": str(out_path),
               "stderr": str(err_path), "timeout_s": deadline - time.perf_counter()}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("bench: launcher exited")
        return json.loads(reply) | {"stdout": out_path.read_text(),
                                    "stderr": err_path.read_text()[-2000:]}

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def run_pass(name: str, ctx: Context, execute) -> tuple[list[dict], int, str | None]:
    """Drive one pass of a workload.  ``execute(op)`` returns a record with
    `exit` and `stdout`; each is checked.  Returns (records, attempted, error)."""
    records, attempted = [], 0
    try:
        for op in WORKLOADS[name](ctx):
            attempted += 1
            rec = execute(op)
            rec["label"] = op.label
            rec["cert"] = check_output(op, rec["exit"], rec.pop("stdout"))
            records.append(rec)
    except CheckError as err:
        return records, attempted, str(err)
    return records, attempted, None


# -- timed run (--trace 0) ----------------------------------------------------


def pass_metrics(records: list[dict]) -> dict[str, float]:
    """End-to-end metrics of one pass: sums over its processes, peak RSS max."""
    return {
        "wall_s": sum(r["wall_s"] for r in records),
        "cpu_s": sum(r["cpu_s"] for r in records),
        "setup_s": sum(r["wall_s"] - r["cert"]["wall_time_ms"] / 1000 for r in records),
        "peak_rss_mb": max(r["rss_mb"] for r in records),
    }


def timed_run(launcher: Launcher, name: str, seed: int, seconds: float, workdir: Path,
              deadline: float) -> dict:
    ctx = Context(seed, workdir)
    cli = [sys.executable, "-m", "ramsat.cli"]
    passes, attempted, errors = [], 0, []
    start = time.perf_counter()
    while True:
        records, n, error = run_pass(name, ctx, lambda op: launcher.run(cli + list(op.argv), workdir, deadline))
        attempted += n
        if error:
            errors.append(error)
            break
        passes.append(records)
        # Start another pass only if a whole mean pass still fits in `seconds`.
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > seconds:
            break
    per_pass = [pass_metrics(p) for p in passes]
    metrics = {}
    if per_pass:
        # Mean, not median, over passes: on a shared VM the speed switches
        # between a fast and a slow state every ten seconds or so, and a
        # median of a few passes lands wholly in one of them.
        metrics = {key: statistics.fmean(m[key] for m in per_pass) for key in ("wall_s", "cpu_s", "setup_s")}
        metrics["peak_rss_mb"] = max(m["peak_rss_mb"] for m in per_pass)
    return {"attempted": attempted, "errors": errors, "metrics": metrics, "passes": per_pass,
            "ops": [[{k: r[k] for k in ("label", "exit", "wall_s", "cpu_s", "rss_mb")} for r in p]
                    for p in passes]}


# -- traced run (--trace 1) ---------------------------------------------------


def cpu_now() -> float:
    own, kids = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def inproc(mode: str, name: str, seed: int, workdir: Path, out: Path) -> None:
    """Child side of a traced run: one serial pass through `ramsat.cli.run`.

    A `plain` pass also runs `observation`'s verify step with `--threads 2`,
    for the sharding metrics.
    """
    import ramsat.cli
    from spans import Tracer

    tracer = Tracer() if mode == "traced" else None
    ctx = Context(seed, workdir, verify_threads=(1,) if tracer else (1, 2))

    def execute(op):
        buf = io.StringIO()
        if tracer:
            tracer.op = op.label
        cpu0, t0 = cpu_now(), time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = ramsat.cli.run(list(op.argv))
        return {"exit": code, "stdout": buf.getvalue(),
                "wall_s": time.perf_counter() - t0, "cpu_s": cpu_now() - cpu0}

    if tracer:
        tracer.install()
    try:
        records, attempted, error = run_pass(name, ctx, execute)
    finally:
        if tracer:
            tracer.restore()
    result = {
        "mode": mode, "attempted": attempted, "error": error,
        "ops": [{k: r[k] for k in ("label", "exit", "wall_s", "cpu_s")} | {"checked": r["cert"]["checked"]}
                for r in records],
        "trace": tracer.report() if tracer else None,
    }
    out.write_text(json.dumps(result))


def run_child(launcher: Launcher, mode: str, name: str, seed: int, workdir: Path,
              deadline: float) -> dict:
    out = workdir / f"{mode}.json"
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--inproc", mode, "--workload", name,
           "--seed", str(seed), "--out", str(out)]
    proc = launcher.run(cmd, workdir, deadline)
    if proc["exit"] != 0 or not out.is_file():
        raise RuntimeError(f"{mode} child exited {proc['exit']}: {proc['stderr']}")
    return json.loads(out.read_text())


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def fresh_import_s(launcher: Launcher, workdir: Path, deadline: float, repeats: int = 3) -> float:
    """Median time of `import ramsat.cli` in a fresh interpreter."""
    code = "import time; s = time.perf_counter(); import ramsat.cli; print(time.perf_counter() - s)"
    return statistics.median(
        float(launcher.run([sys.executable, "-c", code], workdir, deadline)["stdout"]) for _ in range(repeats))


def layer_metrics(plain: dict, traced: dict, import_s: float) -> dict[str, float]:
    """Per-module metrics from one plain and one traced in-process pass.

    A metric of a layer the workload does not reach reads 0.
    """
    spans, hot = traced["trace"]["spans"], traced["trace"]["hot"]
    m: dict[str, float] = {}

    def named(name, op=None):
        return [s for s in spans if s["name"] == name and (op is None or s["op"] == op)]

    def dur(ss):
        return sum(s["end"] - s["start"] for s in ss)

    def count(ss, key):
        return sum(s["counts"].get(key, 0) for s in ss)

    def kernel_calls(ss, key):
        return sum(s["hot"].get(key, [0])[0] for s in ss)

    # graphs: the clique search, in total and by calling module
    fcm = {key.split("@")[1]: agg for key, agg in hot.items() if key.startswith("graphs.find_clique_mask@")}
    named_callers = ("saturation", "constructions", "reduction")
    groups = {"": list(fcm)} | {f"{c}.": [c] for c in named_callers}
    groups["other."] = [c for c in fcm if c not in named_callers]
    for prefix, callers in groups.items():
        calls = sum(fcm[c][0] for c in callers if c in fcm)
        secs = sum(fcm[c][1] for c in callers if c in fcm)
        found = sum(fcm[c][2] for c in callers if c in fcm)
        base = f"graphs.find_clique_mask.{prefix}"
        m[base + "calls"] = calls
        m[base + "s"] = secs
        m[base + "us_per_call"] = _ratio(secs, calls) * 1e6
        m[base + "found_ratio"] = _ratio(found, calls)

    # saturation: the observation scan, its hints and its sharding
    obs = named("saturation.check_observation")
    checked = count(obs, "checked")
    obs_calls = kernel_calls(obs, "graphs.find_clique_mask@saturation")
    m["saturation.checked"] = checked
    m["saturation.hint_hits"] = checked - obs_calls
    m["saturation.hint_hit_ratio"] = _ratio(checked - obs_calls, checked)
    m["saturation.check_observation_s"] = dur(obs)
    plain_ops = {op["label"]: op for op in plain["ops"]}
    serial, sharded = plain_ops.get("verify-observation-t1"), plain_ops.get("verify-observation-t2")
    m["saturation.shard_speedup"] = _ratio(serial["wall_s"], sharded["wall_s"]) if sharded else 0.0
    m["saturation.shard_cpu_util"] = _ratio(sharded["cpu_s"], 2 * sharded["wall_s"]) if sharded else 0.0

    # saturation: ssat_search per instance
    for r, k, n, _ in SSAT_INSTANCES:
        label = ssat_label(r, k, n)
        ss = named("saturation.ssat_search", f"ssat-{label}")
        nodes = count(ss, "nodes")
        calls = kernel_calls(ss, "graphs.find_clique_mask@saturation")
        m[f"saturation.ssat_nodes.{label}"] = nodes
        m[f"saturation.ssat_us_per_node.{label}"] = _ratio(dur(ss), nodes) * 1e6
        m[f"saturation.ssat_clique_calls.{label}"] = calls
        m[f"saturation.ssat_clique_calls_per_node.{label}"] = _ratio(calls, nodes)

    # constructions and geometry
    cbs = named("constructions.count_bad_sets")
    subsets = count(cbs, "checked")
    calls = kernel_calls(cbs, "graphs.find_clique_mask@constructions")
    m["constructions.count_bad_sets_s"] = dur(cbs)
    m["constructions.subsets"] = subsets
    m["constructions.bad_set_hits"] = count(cbs, "hits")
    m["constructions.clique_calls"] = calls
    m["constructions.subsets_per_s"] = _ratio(subsets, dur(cbs))
    m["constructions.clique_calls_per_subset"] = _ratio(calls, subsets)
    m["constructions.sample_gnp_s"] = dur(named("constructions.sample_gnp"))
    m["constructions.affine_coloring_s"] = dur(named("constructions.affine_coloring"))
    m["geometry.build_affine_plane_s"] = dur(named("geometry.build_affine_plane"))

    # reduction: the two oracles
    g, f = named("reduction.g_oracle"), named("reduction.f_oracle")
    m["reduction.g_oracle_s"] = dur(g)
    m["reduction.g_graphs"] = count(g, "checked")
    m["reduction.graph_from_edge_mask_s"] = sum(
        agg[1] for key, agg in hot.items() if key.startswith("reduction.graph_from_edge_mask@"))
    m["reduction.f_oracle_s"] = dur(f)
    m["reduction.f_colorings"] = count(f, "checked")

    # io and cli
    to_json = named("io.Certificate.to_json")
    m["io.parse_s"] = dur(s for s in spans if s["name"].startswith("io.parse_"))
    m["io.dump_s"] = dur(s for s in spans if s["name"].startswith("io.dump_"))
    m["io.to_json_s"] = dur(to_json)
    m["io.cert_bytes"] = count(to_json, "bytes")
    m["cli.import_s"] = import_s
    m["cli.run_s"] = dur(named("cli.run"))

    # self time per module: its spans minus their children, plus its kernels
    for module in ("cli", "io", "geometry", "constructions", "graphs", "reduction", "saturation"):
        own = sum(s["self_s"] for s in spans if s["name"].split(".")[0] == module)
        kernels = sum(agg[1] for key, agg in hot.items() if key.split(".")[0] == module)
        m[f"{module}.self_s"] = own + kernels

    # tracing overhead on the same serial ops
    traced_wall = sum(op["wall_s"] for op in traced["ops"])
    labels = {op["label"] for op in traced["ops"]}
    plain_wall = sum(op["wall_s"] for op in plain["ops"] if op["label"] in labels)
    m["trace.traced_wall_s"] = traced_wall
    m["trace.untraced_wall_s"] = plain_wall
    m["trace.overhead_s"] = traced_wall - plain_wall
    m["trace.spans"] = len(spans)
    return m


def traced_run(launcher: Launcher, name: str, seed: int, workdir: Path, deadline: float) -> dict:
    plain = run_child(launcher, "plain", name, seed, workdir, deadline)
    traced = run_child(launcher, "traced", name, seed, workdir, deadline)
    import_s = fresh_import_s(launcher, workdir, deadline)
    errors = [c["error"] for c in (plain, traced) if c["error"]]
    metrics = layer_metrics(plain, traced, import_s) if not errors else {}
    return {"attempted": plain["attempted"] + traced["attempted"], "errors": errors,
            "metrics": metrics, "ops": {"plain": plain["ops"], "traced": traced["ops"]},
            "spans": traced["trace"]["spans"] if traced["trace"] else []}


# -- record -------------------------------------------------------------------


def machine() -> dict:
    import numpy

    model = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {"nproc": os.cpu_count(), "cpu_model": model or platform.processor(),
            "python": platform.python_version(), "numpy": numpy.__version__}


def source_record() -> dict:
    """The code measured: git commit when the checkout is a repository, and
    always the line count and digest of the `src/` Python files."""
    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.CalledProcessError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, check=True).stdout.strip()
    return {"git_commit": commit, "src_lines": lines, "src_sha256": digest.hexdigest()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--inproc", choices=("plain", "traced"), help=argparse.SUPPRESS)
    p.add_argument("--out", type=Path, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    use_checkout_src()
    if args.inproc:
        inproc(args.inproc, args.workload, args.seed, args.out.parent, args.out)
        return 0
    declared = declared_metrics()
    deadline = time.perf_counter() + RUN_LIMIT_S
    workdir = OUT / "work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    launcher = Launcher()
    try:
        if args.trace:
            run = traced_run(launcher, args.workload, args.seed, workdir, deadline)
        else:
            run = timed_run(launcher, args.workload, args.seed, args.seconds, workdir, deadline)
    finally:
        launcher.close()
        shutil.rmtree(workdir, ignore_errors=True)
    correct = not run["errors"]
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = as_metrics(run["metrics"], declared[kind]) if correct else {}
    line = {"correct": correct, "attempted": run["attempted"], "failed": len(run["errors"]),
            "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine(), "source": source_record(),
              **line, "errors": run["errors"], "run": run}
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    path.write_text(json.dumps(record, indent=1))
    for error in run["errors"]:
        print(f"FAILED: {error}")
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
