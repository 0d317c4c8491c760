"""Record one golden certificate case.

Usage, from the repository root::

    python tests/golden/record.py construct affine --q 3 --r 4 --strategy round-robin --seed 3

Runs ``ramsat.cli.run(ARGV)`` the way ``test_certificate_body_replays``
replays it, in a fresh directory holding a copy of ``inputs/`` with
relative paths, and appends the argv, exit code and certificate body to
``certificates.jsonl``.  A file the command writes with ``--out`` is copied
into ``inputs/``.  Refuses an exit code of 3 or more (no certificate) and
an argv that is already recorded.
"""

import contextlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent
sys.path.insert(0, str(GOLDEN.parents[1] / "src"))

from ramsat import cli  # noqa: E402


def record(argv: list[str]) -> dict:
    cases_file = GOLDEN / "certificates.jsonl"
    if any(json.loads(line)["argv"] == argv for line in cases_file.read_text().splitlines()):
        raise SystemExit(f"already recorded: {' '.join(argv)}")
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        shutil.copytree(GOLDEN / "inputs", work, dirs_exist_ok=True)
        home = os.getcwd()
        os.chdir(work)
        try:
            with contextlib.redirect_stdout(io.StringIO()) as out:
                code = cli.run(argv)
        finally:
            os.chdir(home)
        if code >= 3:
            raise SystemExit(f"exit code {code}, no certificate: {' '.join(argv)}")
        cert = json.loads(out.getvalue())
        cert.pop("wall_time_ms")
        if "--out" in argv:
            name = argv[argv.index("--out") + 1]
            shutil.copyfile(work / name, GOLDEN / "inputs" / name)
    case = {"argv": argv, "exit": code,
            "body": json.dumps(cert, sort_keys=True, separators=(",", ":"))}
    with cases_file.open("a") as f:
        f.write(json.dumps(case) + "\n")
    return case


if __name__ == "__main__":
    if len(sys.argv) < 2:
        raise SystemExit(__doc__)
    case = record(sys.argv[1:])
    print(f"exit {case['exit']}: {' '.join(case['argv'])}")
