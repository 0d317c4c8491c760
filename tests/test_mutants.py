"""Mutation gate: each kept mutant of the kernels must fail the tests named for it.

A mutant is one string replacement in a ``src/ramsat`` module, listed as
(module, old, new, tests, reason); ``old`` occurs exactly once in the
module.  A run copies ``src/``, ``tests/`` and ``pyproject.toml`` under
``tmp_path``, applies the mutant to the copy and runs the named tests there
in a child pytest.  The whole tree is copied because ``pyproject.toml``'s
``pythonpath = ["src"]`` and ``conftest.checkout_env()`` both point at the
``src/`` beside the tests, so a mutated ``src/`` alone would leave the
tests on the unmutated code.  The child reports which ``ramsat`` it
imported, and a mutant is killed when the child ran that copy and a named
test failed (pytest exit code 1: not a collection error, not an empty
selection).  A control run first checks that every named test passes on an
unmutated copy.  Equivalent mutants are listed with the reason no test can
fail them, and are not run.

The runs are opt-in: ``pytest -m slow tests/test_mutants.py``.  The
default suite checks only that every entry still applies.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

MUTANTS = [
    ("saturation",
     "enumerate(colorings, 1)",
     "enumerate(colorings, 2)",
     ["tests/test_saturation.py::test_c4_diagonals_semisaturated"],
     "checked off by one in the loop over vertex colorings"),
    ("saturation",
     '"color": i + 1',
     '"color": i',
     ["tests/test_saturation.py::test_check_observation_c4_diagonals"],
     "the class witness names color i instead of i + 1"),
    ("saturation",
     "for _ in range(samples)),\n                             False)",
     "for _ in range(samples)),\n                             True)",
     ["tests/test_saturation.py::test_sampled_semisaturation_modes"],
     "sampled draws reported as exhaustive"),
    ("saturation",
     "nodes > node_budget",
     "nodes >= node_budget",
     ["tests/test_saturation.py::test_ssat_search_budget",
      "tests/test_golden.py::test_certificate_body_replays"
      "[search ssat --r 2 --k 3 --n 5 --node-budget 2]"],
     "the node budget stops the search one node early"),
    ("graphs",
     "range(rest - 1, a)",
     "range(rest, a)",
     ["tests/test_graphs.py::test_scan_subsets_matches_reference"],
     "a child of the colex walk skips its smallest element"),
    ("graphs",
     "next((x for x in reversed(fails) if x is not None), None)",
     "next((x for x in fails if x is not None), None)",
     ["tests/test_graphs.py::test_sharded_scan_colex_matches_the_serial_scan"],
     "a sharded count takes its first failure from the highest block"),
    ("graphs",
     ".bit_count() >= rest:",
     ".bit_count() > rest:",
     ["tests/test_graphs.py::test_scan_subsets_matches_reference",
      "tests/test_graphs.py::test_scan_subsets_cuts_last_level_blocks"],
     "a block with exactly enough non-closers is passed whole"),
    ("graphs",
     "isqrt(8 * low + 1)",
     "isqrt(8 * low)",
     ["tests/test_graphs.py::test_scan_subsets_ranks_pairs_up_to_the_vertex_cap"],
     "the first failure unranks one block low at each C(b, 2) boundary"),
    ("graphs",
     "                    while fresh:",
     "                    while False:",
     ["tests/test_graphs.py::test_scan_subsets_cuts_last_level_blocks"],
     "the pairs meeting a fresh closer are left out of dead"),
    ("graphs",
     "else (1 << comb(a, 2)) - 1",
     "else (1 << comb(a, 2) - 1) - 1",
     ["tests/test_graphs.py::test_scan_subsets_cuts_last_level_blocks"],
     "a block with two elements left ends one pair early"),
    ("rng",
     "threshold = (1 << 32) % bound",
     "threshold = bound",
     ["tests/test_rng.py::test_wide_integers_reject_as_numpy_does"],
     "the Lemire draw rejects against the bound instead of 2^32 mod bound"),
    ("graphs",
     "if d < best_d:",
     "if d <= best_d:",
     ["tests/test_graphs.py::test_turan_independent_set_takes_the_smallest_index_on_ties"],
     "the greedy independent set takes the largest index on ties"),
    ("io",
     "len(form) - optional <= len(head)",
     "len(form) <= len(head)",
     ["tests/test_io.py::test_incidence_roundtrip"],
     "a header's bracketed field becomes required"),
    ("io",
     "if head[0] != form[0] or not",
     "if not",
     ["tests/test_io.py::test_header_must_match_its_form"],
     "a header's tag goes unchecked"),
    ("io",
     "used[u] |= bit",
     "used[u] |= 0",
     ["tests/test_io.py::test_simple_graph_parse_errors",
      "tests/test_io.py::test_colored_graph_parse_errors"],
     "a pair's used bit is never set, so a repeated pair goes unseen"),
    ("io",
     'x if f == "<kind>" else int(x)',
     'x if f == "<q>" else int(x)',
     ["tests/test_io.py::test_incidence_roundtrip"],
     "the header converts <kind> like a number"),
    ("io",
     """if not line.isascii() or "+" in line or "_" in line:""",
     "if False:",
     ["tests/test_io.py::test_numbers_are_ascii_digits"],
     "a line holding a sign, an underscore or a non-ASCII digit is tokenised"),
    ("cli",
     'claim = f"{args.group}-{args.command}"',
     'claim = f"{args.command}-{args.group}"',
     ["tests/test_golden.py::test_certificate_body_replays"],
     "the claim names the command before its group"),
    ("io",
     '"wall_time_ms": wall_time_ms}',
     '"wall_time_ms": 0}',
     ["tests/test_package.py::test_certificate_is_read_only_and_unhashable"],
     "the printed certificate drops the run's wall time"),
    ("io",
     'validate_certificate({**self.body(), "wall_time_ms": 0})',
     "None",
     ["tests/test_io.py::test_certificate_invariants"],
     "a certificate is built without its schema check"),
]

EQUIVALENT = [
    ("saturation",
     "    checked = 0\n    for checked, colors",
     "    checked = -1\n    for checked, colors",
     "every stream of vertex colorings holds one: samples >= 1, and product(repeat=0) "
     "yields the empty coloring, so the initial count is never returned"),
    ("graphs",
     "                if d == 0:\n                    break",
     "                if d < 0:\n                    break",
     "the break only saves time: no later vertex has a residual degree below 0, so "
     "a vertex of degree 0 stays the choice under d < best_d"),
]

CHILD = (
    "import sys, pytest\n"
    "code = pytest.main(sys.argv[1:])\n"
    "import ramsat\n"
    "print('ramsat imported from', ramsat.__file__)\n"
    "sys.exit(code)\n"
)


def _mutated_copy(root: Path, module: str | None = None, old: str = "", new: str = "") -> Path:
    """A copy of ``src/``, ``tests/`` and ``pyproject.toml`` under ``root``, mutated if asked."""
    skip = shutil.ignore_patterns("__pycache__", "*.egg-info", ".hypothesis")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, root / name, ignore=skip)
    shutil.copy(ROOT / "pyproject.toml", root)
    if module is not None:
        path = root / "src" / "ramsat" / f"{module}.py"
        text = path.read_text()
        assert text.count(old) == 1, f"{old!r} must occur exactly once in {module}"
        path.write_text(text.replace(old, new))
    return root


def _run_child(root: Path, tests: list[str]) -> int:
    """Run ``tests`` in a child pytest on the copy at ``root``; its exit code."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    child = subprocess.run(
        [sys.executable, "-c", CHILD, "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=root, env=env, capture_output=True, text=True, timeout=600)
    lines = [x for x in child.stdout.splitlines() if x.startswith("ramsat imported from ")]
    assert lines, child.stdout[-2000:] + child.stderr[-2000:]
    imported = Path(lines[-1].removeprefix("ramsat imported from ")).resolve()
    assert imported == (root / "src" / "ramsat" / "__init__.py").resolve()
    return child.returncode


@pytest.mark.parametrize("module, old, new", [m[:3] for m in MUTANTS + EQUIVALENT],
                         ids=[m[-1] for m in MUTANTS + EQUIVALENT])
def test_each_mutant_applies_once(module, old, new):
    assert (ROOT / "src" / "ramsat" / f"{module}.py").read_text().count(old) == 1


@pytest.mark.slow
def test_named_tests_pass_on_an_unmutated_copy(tmp_path):
    tests = sorted({t for m in MUTANTS for t in m[3]})
    assert _run_child(_mutated_copy(tmp_path), tests) == 0


@pytest.mark.slow
@pytest.mark.parametrize("module, old, new, tests, reason", MUTANTS,
                         ids=[m[-1] for m in MUTANTS])
def test_mutant_is_killed(tmp_path, module, old, new, tests, reason):
    assert _run_child(_mutated_copy(tmp_path, module, old, new), tests) == 1, reason
