"""Each demo script runs to completion as a user would run it."""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import checkout_env

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_0(script):
    proc = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, env=checkout_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
