"""Expression parser: zero denominators are errors, never a silent value;
the evaluator on stored numerators gives what the per-node evaluator gave;
printed expressions parse back to the same text and value."""

from __future__ import annotations

import math
from fractions import Fraction

import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from germforge import cli
from germforge.errors import GermforgeError, ZeroDenominator
from germforge.germ import RationalFn, VectorFieldGerm
from germforge.parser import (
    Add,
    Const,
    Mul,
    Neg,
    Pow,
    Quot,
    Var,
    eval_node,
    parse_expression,
    parse_to_jet1,
    parse_to_jet2,
    parse_vector_field,
    pretty,
)
from germforge.scalars import EXACT, FLOAT, GaussianRational
from germforge.series import Jet1, Jet2

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


# -- the evaluator against the per-node evaluator of tests/oracles.py ------------

DEGREES = st.sampled_from([0, 1, 2, 3, 4, 5, 6, 7, 8, 16, math.inf])


def _chain(first, rest):
    return f"({first})" + "".join(f"{op}({t})" for op, t in rest)


def _texts(names):
    """Expression texts: integer, p/q, decimal, i and variable leaves under
    + - * / ^, unary minus and chains of several terms or factors."""
    leaf = st.one_of(
        st.integers(0, 40).map(str),
        st.builds("{}/{}".format, st.integers(0, 60), st.integers(0, 400)),
        st.sampled_from(["0.5", "1.25", "0.1", "3.75", ".5"]),
        st.just("i"),
        st.sampled_from(names),
    )

    def extend(inner):
        return st.one_of(
            st.builds("({}){}({})".format, inner, st.sampled_from("+-*/"), inner),
            st.builds("({})^{}".format, inner, st.integers(0, 4)),
            st.builds("-({})".format, inner),
            st.builds(_chain, inner, st.lists(st.tuples(st.sampled_from("+-"), inner),
                                              min_size=2, max_size=4)),
            st.builds(_chain, inner, st.lists(st.tuples(st.sampled_from("**/"), inner),
                                              min_size=2, max_size=4)),
        )

    return st.recursive(leaf, extend, max_leaves=10)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:    # the exception type is part of the result
        return type(exc)


def _parts(value):
    if isinstance(value, VectorFieldGerm):
        return [value.a, value.b]
    if isinstance(value, RationalFn):
        return [value.num, value.den]
    return [value]


def _stored(jet):
    """The stored numerators (or Jet1 coefficients) and valid_through; float
    values by repr, so that signed zeros count."""
    data = (jet.coeffs,) if isinstance(jet, Jet1) else (jet.den, jet.re, jet.im)
    if jet.mode == FLOAT:
        data = tuple(repr(sorted(d.items())) if isinstance(d, dict) else d for d in data)
    return data, jet.valid_through


def _assert_same(new, old):
    """The same kind (result type or exception type) and the same stored
    data in every part."""
    assert type(new) is type(old)
    if isinstance(new, type):
        assert new is old
        return
    assert [_stored(a) for a in _parts(new)] == [_stored(b) for b in _parts(old)]


def _check_both_modes(new_fn, old_fn):
    for mode in (EXACT, FLOAT):
        _assert_same(_outcome(new_fn, mode), _outcome(old_fn, mode))


@settings(max_examples=250, deadline=None)
@given(text=_texts(["x", "y", "x", "y", "z"]), degree=DEGREES)
def test_parse_to_jet2_matches_the_per_node_evaluator(text, degree):
    node = parse_expression(text)
    _check_both_modes(lambda mode: parse_to_jet2(text, mode, degree),
                      lambda mode: oracles.p_eval(node, mode, degree))


@settings(max_examples=120, deadline=None)
@given(text=_texts(["z", "z", "z", "x"]), degree=DEGREES)
def test_parse_to_jet1_matches_the_per_node_evaluator(text, degree):
    node = parse_expression(text)
    _check_both_modes(lambda mode: parse_to_jet1(text, mode, degree),
                      lambda mode: oracles.p_eval(node, mode, degree, ("z",)))


def _p_vector_field(texts, mode, degree):
    comps = [oracles.p_eval(parse_expression(t), mode, degree) for t in texts]
    if any(isinstance(c, RationalFn) for c in comps):
        raise GermforgeError("vector field components must be holomorphic")
    return VectorFieldGerm(comps[0].truncate(degree), comps[1].truncate(degree))


@settings(max_examples=120, deadline=None)
@given(a=_texts(["x", "y"]), b=_texts(["x", "y"]), degree=DEGREES)
def test_parse_vector_field_matches_the_per_node_evaluator(a, b, degree):
    _check_both_modes(lambda mode: parse_vector_field(f"[{a}, {b}]", mode, degree),
                      lambda mode: _p_vector_field((a, b), mode, degree))


def test_rational_functions_keep_the_literal_denominators():
    """A constant denominator is multiplied back into both parts once a
    nonconstant one enters, as the per-node evaluator did."""
    out = parse_to_jet2("(51/300)/(y)+(y)", EXACT, 2)
    assert isinstance(out, RationalFn)
    assert out.num.coeffs == {(0, 0): GaussianRational(51), (0, 2): GaussianRational(300)}
    assert out.den.coeffs == {(0, 1): GaussianRational(300)}
    out = parse_to_jet2("(51/300)/(y)+(y)", EXACT, 1)
    assert out.num.coeffs == {(0, 0): GaussianRational(51)}
    assert out.den.coeffs == {(0, 1): GaussianRational(300)}


# -- pretty <-> parse_expression ----------------------------------------------------

def _asts():
    leaf = st.one_of(
        st.builds(Const, st.fractions(min_value=-40, max_value=40, max_denominator=30),
                  st.booleans(), st.booleans()),
        st.builds(Var, st.sampled_from(["x", "y"])),
    )

    def extend(inner):
        return st.one_of(
            st.builds(Neg, inner),
            st.builds(Add, st.lists(st.tuples(st.sampled_from([1, -1]), inner),
                                    min_size=1, max_size=4)),
            st.builds(Mul, st.lists(inner, min_size=1, max_size=4)),
            st.builds(Quot, inner, inner),
            st.builds(Pow, inner, st.integers(0, 3)),
        )

    return st.recursive(leaf, extend, max_leaves=10)


@settings(max_examples=300, deadline=None)
@given(node=_asts(), degree=DEGREES)
def test_pretty_round_trips_through_the_parser(node, degree):
    text = pretty(node)
    assert pretty(parse_expression(text)) == text
    direct = _outcome(eval_node, node, EXACT, degree)
    parsed = _outcome(parse_to_jet2, text, EXACT, degree)
    assert type(parsed) is type(direct)
    if isinstance(direct, RationalFn):
        # a literal p/q in the text is a quotient, so the parts may differ by a constant
        assert parsed.equals(direct)
    elif isinstance(direct, Jet2):
        assert _stored(parsed) == _stored(direct)


def test_pretty_keeps_powers_of_constants_and_nested_powers():
    assert pretty(Pow(Const(Fraction(3, 4)), 2)) == "(3/4)^2"
    assert pretty(Pow(Const(Fraction(3), imag=True), 2)) == "(3*i)^2"
    assert pretty(Pow(Pow(Var("x"), 2), 3)) == "(x^2)^3"
    assert pretty(Add([(1, Var("x")), (1, Const(Fraction(-3)))])) == "x+(-3)"
    assert parse_to_jet2(pretty(Pow(Const(Fraction(3, 4)), 2)), EXACT, 4).coeffs == \
        {(0, 0): GaussianRational(Fraction(9, 16))}
