"""Text formats and certificates.

Four line-oriented formats, each with a one-line header:

* simple graph      — ``g <n>`` then one ``u v`` line per edge (0-indexed,
  u < v, no duplicates);
* colored pattern   — ``cg <n> <r>`` then ``u v c`` lines with 1 <= c <= r;
  pairs left out are uncolored, so a file listing fewer than C(n,2) pairs
  parses as a partial pattern;
* k-subset coloring — ``ksc <N> <k>`` then one hex string carrying C(N,k)
  bits in colex rank order (bit i of the integer = color of rank i,
  0 red / 1 blue);
* incidence         — ``inc <kind> <q> [<lambda>]`` then one line of point
  indices per geometric line; the lines must form the structure the header
  names.

Numbers are ASCII decimal digits after at most one minus sign, and the
``ksc`` line is ASCII hex digits.  Parsers reject malformed constructs
with the 1-based line number, and check a header's sizes against the
package caps (``VERTEX_CAP`` vertices or points, ``COLOR_CAP`` colors,
``COLORING_BIT_CAP`` subset bits) before allocating anything for the body.
Certificates serialize to canonical JSON (sorted keys, compact separators)
so that re-running a recorded command reproduces the byte-identical body;
only ``wall_time_ms`` is excluded from the body.

Graphs and patterns are ``graphs`` types, which every command loads; the
k-subset and incidence parsers import ``reduction`` and ``geometry`` when
called, so a command loads only the types it reads.
"""

from __future__ import annotations

import json

from . import __version__ as TOOL_VERSION
from .errors import ParseError
from .graphs import COLOR_CAP, VERTEX_CAP, ColoredCompleteGraph, SimpleGraph, Value


def _tokens(text: str):
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not line.isascii() or "+" in line or "_" in line:
            raise ParseError(i, "a line must be ASCII, without '+' or '_'")
        yield i, line.split()


def _header(text: str, expected: str):
    """The token stream of ``text`` after its first line, that line's number and fields.

    The first line must match the form ``expected``, e.g. ``'cg <n> <r>'``:
    its tag, then one field per placeholder, a bracketed one optional and
    None when left out.  Every field but ``<kind>`` is an integer.
    """
    it = _tokens(text)
    try:
        lineno, head = next(it)
    except StopIteration:
        raise ParseError(1, f"empty input, expected '{expected}' header") from None
    form = expected.split()
    optional = sum(f.startswith("[") for f in form)
    if head[0] != form[0] or not len(form) - optional <= len(head) <= len(form):
        raise ParseError(lineno, f"expected header '{expected}'")
    try:
        fields = [x if f == "<kind>" else int(x) for f, x in zip(form[1:], head[1:])]
    except ValueError:
        raise ParseError(lineno, f"expected integers in header '{expected}'") from None
    return it, lineno, fields + [None] * (len(form) - len(head))


def _classes(it, lineno: int, n: int, r: int, shape: str) -> tuple[SimpleGraph, ...]:
    """The r colour classes of body lines ``'u v c'``, or of ``'u v'`` lines in colour 1.

    Checks the header's sizes against the caps, then each line's ``shape``,
    integer entries, 0 <= u < v < n, 1 <= c <= r, and that no pair comes
    twice.  Each pair goes straight into its class's bit rows; a repeated
    pair is found by its bit in ``used``.
    """
    if not (0 <= n <= VERTEX_CAP and 1 <= r <= COLOR_CAP):
        raise ParseError(
            lineno, f"sizes n={n}, r={r} outside [0, {VERTEX_CAP}] x [1, {COLOR_CAP}]"
        )
    rows = [[0] * n for _ in range(r)]
    used = [0] * n
    width = len(shape.split())
    for lineno, parts in it:
        if len(parts) != width:
            raise ParseError(lineno, f"expected '{shape}'")
        try:
            u, v, c = int(parts[0]), int(parts[1]), int(parts[2]) if width == 3 else 1
        except ValueError:
            raise ParseError(lineno, "entries must be integers") from None
        if not 0 <= u < v < n:
            raise ParseError(lineno, f"need 0 <= u < v < {n}, got {u} {v}")
        bit = 1 << v
        if used[u] & bit:
            raise ParseError(lineno, f"duplicate pair {u} {v}")
        if not 1 <= c <= r:
            raise ParseError(lineno, f"color {c} outside [1, {r}]")
        used[u] |= bit
        row = rows[c - 1]
        row[u] |= bit
        row[v] |= 1 << u
    return tuple(SimpleGraph(n, tuple(row)) for row in rows)


# -- simple graphs ----------------------------------------------------------


def parse_simple_graph(text: str) -> SimpleGraph:
    it, lineno, (n,) = _header(text, "g <n>")
    return _classes(it, lineno, n, 1, "u v")[0]


def dump_simple_graph(g: SimpleGraph) -> str:
    lines = [f"g {g.n}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


# -- colored patterns ---------------------------------------------------------


def parse_colored_graph(text: str) -> ColoredCompleteGraph:
    it, lineno, (n, r) = _header(text, "cg <n> <r>")
    return ColoredCompleteGraph(_classes(it, lineno, n, r, "u v c"))


def dump_colored_graph(c: ColoredCompleteGraph) -> str:
    lines = [f"cg {c.n} {c.r}"]
    lines.extend(f"{u} {v} {ci + 1}" for u, v, ci in c.colored_pairs())
    return "\n".join(lines) + "\n"


# -- k-subset colorings -------------------------------------------------------


def parse_ksubset_coloring(text: str) -> KSubsetColoring:
    from .reduction import KSubsetColoring, coloring_bit_count

    it, lineno, (N, k) = _header(text, "ksc <N> <k>")
    try:
        m = coloring_bit_count(N, k)
    except ValueError as err:
        raise ParseError(lineno, str(err)) from None
    digits = -(-m // 4) if m else 1
    try:
        lineno, body = next(it)
    except StopIteration:
        raise ParseError(lineno + 1, "missing hex color line") from None
    if len(body) != 1 or len(body[0]) != digits or body[0].strip("0123456789abcdefABCDEF"):
        raise ParseError(lineno, f"expected one hex string of {digits} digits")
    bits = int(body[0], 16)
    if bits >> m:
        raise ParseError(lineno, "color bits extend past C(N, k)")
    for lineno, _ in it:
        raise ParseError(lineno, "trailing content after color line")
    return KSubsetColoring(N, k, bits)


def dump_ksubset_coloring(chi: KSubsetColoring) -> str:
    m = chi.subset_count
    digits = -(-m // 4) if m else 1
    return f"ksc {chi.N} {chi.k}\n{chi.bits:0{digits}x}\n"


# -- incidence structures -----------------------------------------------------


def parse_incidence(text: str) -> IncidenceStructure:
    from .geometry import AFFINE_PLANE, FQ3_FAMILY, IncidenceStructure, require_prime

    it, head_no, (kind, q, lam) = _header(text, "inc <kind> <q> [<lambda>]")
    if kind not in (AFFINE_PLANE, FQ3_FAMILY):
        raise ParseError(head_no, f"unknown kind {kind!r}")
    try:
        require_prime(q)
    except ValueError as err:
        raise ParseError(head_no, str(err)) from None
    point_count = IncidenceStructure(kind, q, (), lam).point_count
    if point_count > VERTEX_CAP:
        raise ParseError(head_no, f"{point_count} points exceed cap {VERTEX_CAP}")
    lines = []
    for lineno, parts in it:
        try:
            pts = tuple(int(p) for p in parts)
        except ValueError:
            raise ParseError(lineno, "point indices must be integers") from None
        if any(not 0 <= p < point_count for p in pts):
            raise ParseError(lineno, f"point index outside [0, {point_count})")
        if len(set(pts)) != len(pts):
            raise ParseError(lineno, "repeated point in line")
        lines.append(tuple(sorted(pts)))
    inc = IncidenceStructure(kind, q, tuple(lines), lam)
    try:
        inc.validate()
    except ValueError as err:
        raise ParseError(head_no, str(err)) from None
    return inc


def dump_incidence(inc: IncidenceStructure) -> str:
    head = f"inc {inc.kind} {inc.q}"
    if inc.lam is not None:
        head += f" {inc.lam}"
    lines = [head]
    lines.extend(" ".join(str(p) for p in line) for line in inc.lines)
    return "\n".join(lines) + "\n"


# -- certificates -------------------------------------------------------------

VERDICTS = ("holds", "fails", "unknown")


class Certificate(Value):
    """Self-contained verdict record emitted by every CLI command.

    Construction checks the record with ``validate_certificate``: a "fails"
    verdict carries a witness, an "unknown" verdict records the exhausted
    budget in ``params``.  The record is the body, stamped with
    ``TOOL_VERSION``: canonical JSON, so re-running the recorded command
    (same flags, same seed) reproduces it byte for byte.  ``to_json`` adds
    the run's ``wall_time_ms`` beside it.
    """

    _fields = ("claim", "params", "verdict", "witness", "checked", "seed", "tool_version")

    def __init__(self, claim: str, params: dict, verdict: str, witness: object | None = None,
                 checked: int = 0, seed: int | None = None):
        self.__dict__.update(claim=claim, params=params, verdict=verdict, witness=witness,
                             checked=checked, seed=seed, tool_version=TOOL_VERSION)
        validate_certificate({**self.body(), "wall_time_ms": 0})

    def body(self) -> dict:
        return dict(zip(self._fields, self._values()))

    def to_json(self, wall_time_ms: int = 0) -> str:
        payload = {**self.body(), "wall_time_ms": wall_time_ms}
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def artifact_certificate(claim, params, text, checked, out, seed=None) -> Certificate:
    """A "holds" certificate for a built object in one of the text formats.

    The text goes to the path ``out`` when given, else into the witness,
    tagged with its format: the first word of its header line.
    """
    witness = None
    if out is None:
        witness = {"format": text.split(None, 1)[0], "text": text}
    else:
        out.write_text(text)
    return Certificate(claim, {**params, "out": str(out) if out else None}, "holds", witness,
                       checked, seed)


def unknown_certificate(claim, params, budget, witness=None, checked=0, seed=None) -> Certificate:
    """An "unknown" certificate recording in its params the budget that ran out."""
    return Certificate(claim, {**params, "budget": str(budget)}, "unknown", witness, checked, seed)


def validate_certificate(payload: dict) -> None:
    """Schema check for a parsed certificate; raises ValueError on violations."""
    required = {
        "claim": str,
        "params": dict,
        "verdict": str,
        "checked": int,
        "tool_version": str,
        "wall_time_ms": int,
    }
    for key, typ in required.items():
        if key not in payload:
            raise ValueError(f"certificate missing field {key!r}")
        if not isinstance(payload[key], typ):
            raise ValueError(f"certificate field {key!r} has wrong type")
    if payload["verdict"] not in VERDICTS:
        raise ValueError(f"bad verdict {payload['verdict']!r}")
    if payload["verdict"] == "fails" and payload.get("witness") is None:
        raise ValueError("failing certificate without witness")
    if payload["verdict"] == "unknown" and "budget" not in payload["params"]:
        raise ValueError("unknown certificate without recorded budget")
