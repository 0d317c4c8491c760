"""Text format round-trips, line-numbered parse errors, certificate schema."""

import json
import re
import tracemalloc

import pytest

import ramsat as rs
from ramsat.errors import ParseError

from conftest import all_red, random_ksc


def test_simple_graph_roundtrip():
    for seed in range(10):
        g = rs.sample_gnp(rs.GnpParams(9, 0.4, seed))
        assert rs.parse_simple_graph(rs.dump_simple_graph(g)) == g


def test_simple_graph_parse_errors():
    with pytest.raises(ParseError, match="line 1"):
        rs.parse_simple_graph("h 4\n")
    with pytest.raises(ParseError, match="line 2"):
        rs.parse_simple_graph("g 4\n1 0\n")  # u >= v
    with pytest.raises(ParseError, match="line 3"):
        rs.parse_simple_graph("g 4\n0 1\n0 1\n")  # duplicate
    with pytest.raises(ParseError, match="line 2"):
        rs.parse_simple_graph("g 4\n0 4\n")  # out of range


def test_colored_graph_roundtrip_complete_and_partial(c4_diagonals):
    assert rs.parse_colored_graph(rs.dump_colored_graph(c4_diagonals)) == c4_diagonals
    for seed in range(5):
        pat = rs.random_complete_pattern(7, 3, seed)
        assert rs.parse_colored_graph(rs.dump_colored_graph(pat)) == pat
    core = rs.fq3_core(2, 2)
    back = rs.parse_colored_graph(rs.dump_colored_graph(core))
    assert back == core
    assert not back.complete


def test_colored_graph_parse_errors():
    with pytest.raises(ParseError, match="line 2"):
        rs.parse_colored_graph("cg 4 2\n0 1 3\n")  # color out of range
    with pytest.raises(ParseError, match="line 3"):
        rs.parse_colored_graph("cg 4 2\n0 1 1\n0 1 2\n")  # duplicate pair
    with pytest.raises(ParseError, match="line 2"):
        rs.parse_colored_graph("cg 4 2\n1 0 1\n")  # u >= v
    with pytest.raises(ParseError, match="line 1"):
        rs.parse_colored_graph("cg 4\n")


def test_ksubset_coloring_roundtrip():
    for seed in range(5):
        chi = random_ksc(6, 3, seed)
        assert rs.parse_ksubset_coloring(rs.dump_ksubset_coloring(chi)) == chi
    empty = all_red(4, 2)
    assert rs.parse_ksubset_coloring(rs.dump_ksubset_coloring(empty)) == empty


def test_ksubset_coloring_parse_errors():
    with pytest.raises(ParseError, match="line 2"):
        rs.parse_ksubset_coloring("ksc 4 2\nzz\n")
    with pytest.raises(ParseError, match="line 2"):
        rs.parse_ksubset_coloring("ksc 4 2\nffff\n")  # wrong digit count
    with pytest.raises(ParseError, match="line 3"):
        rs.parse_ksubset_coloring("ksc 4 2\n3f\nextra\n")


def test_incidence_roundtrip():
    plane = rs.build_affine_plane(5)
    back = rs.parse_incidence(rs.dump_incidence(plane))
    assert back.lines == plane.lines
    assert back.kind == plane.kind and back.q == 5
    back.validate()
    fam = rs.fq3_line_family(3, 2)
    back = rs.parse_incidence(rs.dump_incidence(fam))
    assert back.lines == fam.lines and back.lam == 2
    back.validate()


def test_incidence_parse_errors():
    with pytest.raises(ParseError, match="line 1"):
        rs.parse_incidence("inc projective 3\n")
    with pytest.raises(ParseError, match="line 1"):
        rs.parse_incidence("inc fq3-family 3\n")  # lambda missing
    with pytest.raises(ParseError, match="line 2"):
        rs.parse_incidence("inc affine-plane 2\n0 9\n")


@pytest.mark.parametrize("parse, form", [
    (rs.parse_simple_graph, "g <n>"),
    (rs.parse_colored_graph, "cg <n> <r>"),
    (rs.parse_ksubset_coloring, "ksc <N> <k>"),
    (rs.parse_incidence, "inc <kind> <q> [<lambda>]"),
], ids=["g", "cg", "ksc", "inc"])
def test_header_must_match_its_form(parse, form):
    empty = f"line 1: empty input, expected '{form}' header"
    with pytest.raises(ParseError, match=re.escape(empty)):
        parse("# only a comment\n")
    tag, fields = form.split()[0], len(form.split()) - 1
    for head in ["x" + tag[1:] + " 3" * fields, tag, tag + " 3" * (fields + 1)]:
        with pytest.raises(ParseError, match=re.escape(f"line 3: expected header '{form}'")):
            parse(f"# comment\n\n{head}\n")


@pytest.mark.parametrize("parse, text, lineno", [
    (rs.parse_simple_graph, "g +3\n", 1),
    (rs.parse_simple_graph, "g 1_0\n", 1),
    (rs.parse_simple_graph, "g \u0663\n", 1),  # an Arabic-Indic three
    (rs.parse_colored_graph, "cg 3 2\n0 1 +2\n", 2),
    (rs.parse_incidence, "inc affine-plane 2\n+1 0\n", 2),
    (rs.parse_ksubset_coloring, "ksc 5 2\n3_f\n", 2),
    (rs.parse_ksubset_coloring, "ksc 5 2\n+3f\n", 2),
    (rs.parse_ksubset_coloring, "ksc 5 2\n0x3\n", 2),
], ids=["g-plus", "g-underscore", "g-arabic-indic", "cg-plus", "inc-plus", "ksc-underscore",
        "ksc-plus", "ksc-0x"])
def test_numbers_are_ascii_digits(parse, text, lineno):
    with pytest.raises(ParseError, match=f"line {lineno}"):
        parse(text)


def test_comments_may_hold_any_character():
    assert rs.parse_simple_graph("# \u0663 +1_0\ng 2\n0 1\n") == rs.SimpleGraph.complete(2)


@pytest.mark.parametrize("parse, dump, obj", [
    (rs.parse_simple_graph, rs.dump_simple_graph, rs.SimpleGraph.complete(300)),
    (rs.parse_colored_graph, rs.dump_colored_graph, rs.random_complete_pattern(300, 3, 7)),
], ids=["g-K300", "cg-K300-3-colours"])
def test_reading_a_body_peaks_under_16_times_its_text(parse, dump, obj):
    text = dump(obj)
    tracemalloc.start()
    try:
        back = parse(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back == obj
    assert peak < 16 * len(text), (peak, len(text))


def test_certificate_canonical_json():
    cert = rs.Certificate(claim="x", params={"b": 1, "a": 2}, verdict="holds", checked=3)
    text = cert.to_json(55)
    assert text.index('"a"') < text.index('"b"')  # sorted keys
    parsed = json.loads(text)
    rs.validate_certificate(parsed)
    assert cert.body() == {k: v for k, v in parsed.items() if k != "wall_time_ms"}
    assert parsed["wall_time_ms"] == 55


def test_certificate_invariants():
    with pytest.raises(ValueError):
        rs.Certificate("x", {}, "fails", witness=None)
    with pytest.raises(ValueError):
        rs.Certificate("x", {}, "unknown")
    rs.Certificate("x", {"budget": "n_max=6"}, "unknown")
    with pytest.raises(ValueError):
        rs.Certificate("x", {}, "maybe")
    with pytest.raises(ValueError):
        rs.Certificate("x", {}, "holds", checked="3")


def test_validate_certificate_catches_missing_fields():
    cert = rs.Certificate("x", {}, "holds", checked=1).to_json()
    payload = json.loads(cert)
    del payload["checked"]
    with pytest.raises(ValueError):
        rs.validate_certificate(payload)
