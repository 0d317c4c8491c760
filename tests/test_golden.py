"""Golden certificate replay.

``golden/certificates.jsonl`` holds one recorded command per line: its
argv, its exit code and its certificate body (the canonical JSON without
``wall_time_ms``).  ``golden/inputs/`` holds the files the commands read,
which are also the files the ``--out`` commands must write.  Each case runs
in a fresh directory holding a copy of the inputs, with relative paths, and
must reproduce the recorded body and every file it writes byte for byte.

The cases cover the README commands, observation scans at one to four
``--threads`` with failing witnesses (on the seeded round-robin affine
coloring they fail deep in the second class, and on a five-vertex pattern
at the third subset of the first), an observation on the empty pattern,
whose one subset is the empty one, exact and sampled bad-set counts, sampled
verification, failing verdicts of every verify command, K_4 to K_6 checks
that take the clique search below depth 3, budget-limited searches,
exhausted searches of up to 738 nodes and a found pattern, every "unknown"
certificate path (oracle without a value up to ``--n-max``, oracle and
bad-set budgets) and the seeded round-robin affine coloring.

Record a new case, before the change it guards, with
``python tests/golden/record.py ARGV...`` (see that script).

A scan answers the same for every thread count (only a count shards, and
its windows sum to the serial answer), so every case run with
``--threads`` above 1 must also replay at ``--threads 1``, to the same body
apart from ``params.threads``.  ``verify observation`` reads r from the
pattern, so its case on the four-color ``a34.cg`` must also replay without
``--r``, to the same body.
"""

import contextlib
import io
import json
import shutil
from pathlib import Path

import pytest

from ramsat import cli

GOLDEN = Path(__file__).parent / "golden"
CASES = [json.loads(line) for line in (GOLDEN / "certificates.jsonl").read_text().splitlines()]


SHARDED = [c for c in CASES if "--threads" in c["argv"]
           and int(c["argv"][c["argv"].index("--threads") + 1]) > 1]


def _replay(argv, tmp_path, monkeypatch):
    """Exit code and certificate, without ``wall_time_ms``, of ``argv`` run on a copy of the inputs."""
    shutil.copytree(GOLDEN / "inputs", tmp_path, dirs_exist_ok=True)
    monkeypatch.chdir(tmp_path)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.run(argv)
    cert = json.loads(out.getvalue())
    cert.pop("wall_time_ms")
    return code, cert


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"]) for c in CASES])
def test_certificate_body_replays(case, tmp_path, monkeypatch):
    argv = case["argv"]
    code, cert = _replay(argv, tmp_path, monkeypatch)
    assert code == case["exit"]
    assert json.dumps(cert, sort_keys=True, separators=(",", ":")) == case["body"]
    if "--out" in argv:
        name = argv[argv.index("--out") + 1]
        assert (tmp_path / name).read_bytes() == (GOLDEN / "inputs" / name).read_bytes()


@pytest.mark.parametrize("case", SHARDED, ids=[" ".join(c["argv"]) for c in SHARDED])
def test_sharded_body_replays_at_one_thread(case, tmp_path, monkeypatch):
    argv = list(case["argv"])
    at = argv.index("--threads") + 1
    threads, argv[at] = int(argv[at]), "1"
    code, cert = _replay(argv, tmp_path, monkeypatch)
    assert code == case["exit"]
    assert cert["params"]["threads"] == 1
    cert["params"]["threads"] = threads
    assert json.dumps(cert, sort_keys=True, separators=(",", ":")) == case["body"]


OBSERVED_R = [c for c in CASES if c["argv"][:4] == ["verify", "observation", "--in", "a34.cg"]]


@pytest.mark.parametrize("case", OBSERVED_R, ids=[" ".join(c["argv"]) for c in OBSERVED_R])
def test_observation_body_replays_without_r(case, tmp_path, monkeypatch):
    argv = list(case["argv"])
    at = argv.index("--r")
    del argv[at:at + 2]
    code, cert = _replay(argv, tmp_path, monkeypatch)
    assert code == case["exit"]
    assert json.dumps(cert, sort_keys=True, separators=(",", ":")) == case["body"]
