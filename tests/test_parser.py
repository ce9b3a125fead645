"""Expression parser: zero denominators are errors, never a silent value."""

from __future__ import annotations

import pytest

from germforge import cli
from germforge.errors import GermforgeError, ZeroDenominator
from germforge.germ import RationalFn
from germforge.parser import parse_to_jet1, parse_to_jet2, parse_vector_field
from germforge.scalars import EXACT, FLOAT, GaussianRational
from germforge.series import Jet2

ZERO_DENOMINATORS = ["1/0", "(1+x)/(2*x-x-x)", "1/x^20", "1/(1/0)", "(1/x^10)^2",
                     "x/(0/1)", "(1+y)/(x-x)^2"]


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
@pytest.mark.parametrize("text", ZERO_DENOMINATORS)
def test_zero_denominator_raises(text, mode):
    with pytest.raises(ZeroDenominator):
        parse_to_jet2(text, mode, 16)


def test_zero_denominator_is_a_germforge_error():
    assert issubclass(ZeroDenominator, GermforgeError)
    with pytest.raises(ZeroDenominator):
        parse_to_jet1("1/(z-z)", EXACT, 16)
    with pytest.raises(ZeroDenominator):
        parse_vector_field("[x/0, y]", EXACT, 16)


def test_denominators_vanish_only_below_their_degree():
    # x^20 is a genuine denominator once the working degree reaches it
    for text in ("1/x^20", "(1/x^10)^2"):
        out = parse_to_jet2(text, EXACT, 24)
        assert isinstance(out, RationalFn)
        assert out.den.coeffs == {(20, 0): GaussianRational(1)}


def test_nonzero_quotients_still_evaluate():
    assert parse_to_jet2("(2*x)/(2)", EXACT, 8).coeffs == {(1, 0): GaussianRational(1)}
    q = parse_to_jet2("x^3/(x+x^2)", EXACT, 8)
    assert isinstance(q, Jet2) and q.coeffs[(2, 0)] == GaussianRational(1)
    assert parse_to_jet2("0/(1+x)", EXACT, 8).is_zero()


@pytest.mark.parametrize("argv", [
    ["residue", "1/(z-z)"],
    ["bracket", "[x/0, y]", "[y, 0]"],
    ["straighten", "--g1", "2", "--g2", "z", "--n", "1"],
])
def test_cli_bad_input_exits_2(argv, capsys):
    assert cli.main(argv) == 2
    assert capsys.readouterr().out.startswith("error: ")


def test_cli_good_input_still_exits_0(capsys):
    assert cli.main(["residue", "z^2+z^3"]) == 0
    assert cli.main(["straighten", "--g1", "1", "--g2", "0", "--n", "1", "--degree", "6"]) == 0
