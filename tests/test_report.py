"""JSON report payloads: the readers invert the writers exactly."""

from __future__ import annotations

import json
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from germforge import cli
from germforge.errors import NumberTooLong
from germforge.germ import lie_bracket
from germforge.parser import parse_vector_field
from germforge.report import Report, germ_to_json, jet2_from_json, jet2_to_json
from germforge.scalars import EXACT, FLOAT, GaussianRational as GR
from germforge.series import INF, Jet2, jet_mul

import oracles


def _jets():
    x = Jet2.variable("x", EXACT, INF)
    y = Jet2.variable("y", EXACT, INF)
    tail = jet_mul(x, y).scale(GR(Fraction(-3, 7), Fraction(2, 5)))
    yield Jet2.zero(EXACT, 5)
    yield tail + Jet2.const(GR(0, Fraction(1, 3)), EXACT, INF)
    yield (x + y.scale(GR(Fraction(10 ** 30 + 1, 3), -1))).truncate(4)
    yield Jet2(FLOAT, {(0, 0): 0.1 + 1 / 3 * 1j, (2, 1): -1e-300 + 0j, (0, 3): 1e300j}, 7)
    yield Jet2(FLOAT, {(1, 0): -0.0 + 2.5j, (0, 1): 1.0 - 0.0j}, INF)


@pytest.mark.parametrize("jet", list(_jets()))
def test_jet2_json_round_trip(jet):
    back = jet2_from_json(json.loads(json.dumps(jet2_to_json(jet))))
    assert back.mode == jet.mode
    assert back.valid_through == jet.valid_through
    assert back.coeffs == jet.coeffs


_PART = st.one_of(st.just(Fraction(0)),
                  st.builds(Fraction, st.integers(-(2 ** 200), 2 ** 200),
                            st.sampled_from((1, 2, 3, 6, 7, 2 ** 24 - 3, 10 ** 30, 2 ** 200 + 1))))


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                       st.builds(GR, _PART, _PART), max_size=8),
       st.sampled_from((INF, 0, 3, 12)), st.booleans())
def test_jet2_json_is_the_view_based_text(coeffs, valid, lowered):
    """Exact terms formatted from the stored numerators read as the scalar
    view's GaussianRationals printed through their Fraction parts, and float
    terms as before: the same payload, so the same JSON bytes."""
    jet = Jet2(EXACT, coeffs, valid)
    if lowered:
        jet = jet.to_float()
    got = jet2_to_json(jet)
    assert got == oracles.v_jet2_to_json(jet)
    assert json.dumps(got) == json.dumps(oracles.v_jet2_to_json(jet))


def test_jet2_json_refuses_a_coefficient_beyond_the_digit_limit():
    huge = GR(Fraction(1, 10 ** sys.get_int_max_str_digits()), 1)
    with pytest.raises(NumberTooLong, match="more than .* digits"):
        jet2_to_json(Jet2(EXACT, {(1, 0): huge, (0, 1): GR(1)}, INF))


def test_report_json_round_trip():
    field = parse_vector_field("[x^2 - 3/7*i*y, x*y]", EXACT, 6)
    rep = Report(command=["bracket", "[x^2, 0]", "[0, y]"],
                 config={"degree": 6, "mode": EXACT, "tol": 1e-10},
                 status="fail", result={"germ": germ_to_json(field)},
                 diagnostics=["a note"])
    back = Report.from_json(rep.to_json())
    assert back.to_dict() == rep.to_dict()
    assert jet2_from_json(back.result["germ"]["dx"]).coeffs == field.a.coeffs


def test_report_rejects_other_schemas():
    text = Report(command=[], config={}).to_json().replace("germforge/1", "germforge/0")
    with pytest.raises(ValueError):
        Report.from_json(text)


def test_cli_json_report_reads_back(tmp_path):
    out = tmp_path / "bracket.json"
    assert cli.main(["bracket", "[x^2, x*y]", "[y, 1/2*x]", "--degree", "6",
                     "--json", str(out)]) == 0
    rep = Report.from_json(out.read_text())
    assert rep.status == "ok" and rep.config["degree"] == 6
    expected = lie_bracket(parse_vector_field("[x^2, x*y]", EXACT, 6),
                           parse_vector_field("[y, 1/2*x]", EXACT, 6))
    got = rep.result["bracket"]
    assert jet2_from_json(got["dx"]).equals(expected.a)
    assert jet2_from_json(got["dy"]).equals(expected.b)
    assert jet2_from_json(got["dx"]).valid_through == expected.valid_through
