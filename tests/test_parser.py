"""Expression parser: zero denominators are errors, never a silent value;
the one-pass parser gives what the per-node evaluator gave, and what the
AST parser of tests/oracles.py gave; printed expressions parse back to the
same text and value; errors point into the caller's text."""

from __future__ import annotations

import math
import time
from fractions import Fraction

import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from germforge import cli, parser
from germforge.errors import GermforgeError, ZeroDenominator
from germforge.germ import RationalFn, VectorFieldGerm
from germforge.parser import (
    ExprSyntaxError,
    UnknownVariable,
    parse_to_jet1,
    parse_to_jet2,
    parse_vector_field,
)
from germforge.scalars import EXACT, FLOAT, GaussianRational, format_exact
from germforge.series import Jet1, Jet2
from oracles import Add, Const, Mul, Neg, Pow, Quot, Var, eval_node, parse_expression, pretty

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
    # a sum of constants keeps the product of their denominators too
    out = parse_to_jet2("(1/2+1/3)/y", EXACT, 2)
    assert out.num.coeffs == {(0, 0): GaussianRational(5)}
    assert out.den.coeffs == {(0, 1): GaussianRational(6)}
    out = parse_to_jet2("(1/2-i/3)/(x+y)", EXACT, 2)
    assert out.num.coeffs == {(0, 0): GaussianRational(3, -2)}
    assert out.den.coeffs == {(1, 0): GaussianRational(6), (0, 1): GaussianRational(6)}


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
        assert oracles.rational_equals(parsed, direct)
    elif isinstance(direct, Jet2):
        assert _stored(parsed) == _stored(direct)


def test_pretty_keeps_powers_of_constants_and_nested_powers():
    assert pretty(Pow(Const(Fraction(3, 4)), 2)) == "(3/4)^2"
    assert pretty(Pow(Const(Fraction(3), imag=True), 2)) == "(3*i)^2"
    assert pretty(Pow(Pow(Var("x"), 2), 3)) == "(x^2)^3"
    assert pretty(Add([(1, Var("x")), (1, Const(Fraction(-3)))])) == "x+(-3)"
    assert parse_to_jet2(pretty(Pow(Const(Fraction(3, 4)), 2)), EXACT, 4).coeffs == \
        {(0, 0): GaussianRational(Fraction(9, 16))}


# -- tokens and large exponents ------------------------------------------------------

def test_superscript_digits_are_syntax_errors():
    # "²".isdigit() holds but int() refuses it; isdecimal() is what int() reads
    for parse in (parse_to_jet2, parse_expression):
        with pytest.raises(ExprSyntaxError) as info:
            parse("x^²")
        assert info.value.position == 2
        assert str(info.value) == "unexpected character '²' (at position 2)"
    assert parse_to_jet2("٣*x", EXACT, 4).coeffs == {(1, 0): GaussianRational(3)}


_PIECES = list("xyzi0123456789.+-*/^()[], \t_$") + ["²", "٣", "½", "Ⅻ", "五", "é", "\u0301",
                                                      "\u00a0", "x1"]


@settings(max_examples=400, deadline=None)
@given(text=st.lists(st.sampled_from(_PIECES), max_size=12).map("".join))
def test_tokens_are_those_of_the_old_tokenizer(text):
    # the one scan splits text as the per-character tokenizer did, and its
    # first bad token starts where that tokenizer stopped
    try:
        old = [tok.text for tok in oracles._tokenize(text)[:-1]]
    except ExprSyntaxError as exc:
        bad = [m.start() for m in parser._TOKEN.finditer(text) if parser._bad(m.group())]
        assert bad and bad[0] == exc.position
    else:
        new = parser._TOKEN.findall(text)
        assert new == old and not any(map(parser._bad, new))


# -- errors point into the caller's text --------------------------------------------

@pytest.mark.parametrize("text, position, message", [
    ("[x, y+$]", 6, "unexpected character '$'"),
    ("[x, y, 1]", 5, "vector field literal must look like [exprA, exprB]"),
    ("  [x, (y]", 8, "expected ')', found ']'"),
    ("[x, y^y]", 6, "expected 'num', found 'y'"),
    ("[x, y", 5, "vector field literal must look like [exprA, exprB]"),
    (" x, y]", 1, "vector field literal must look like [exprA, exprB]"),
    ("[x, y] y", 7, "unexpected trailing input 'y'"),
])
def test_field_errors_give_offsets_into_the_callers_text(text, position, message):
    # the positions used to count from the start of the component
    with pytest.raises(ExprSyntaxError) as info:
        parse_vector_field(text, EXACT, 4)
    assert info.value.position == position
    assert str(info.value) == f"{message} (at position {position})"


def test_variable_errors_give_offsets_into_the_callers_text():
    with pytest.raises(UnknownVariable, match=r"^unknown variable 'w' \(at position 8\)$"):
        parse_vector_field("[x, y + w]", EXACT, 4)
    with pytest.raises(UnknownVariable, match=r"^variable 'z' not allowed here .* \(at position 4\)$"):
        parse_vector_field("[x, z]", EXACT, 4)


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
@pytest.mark.parametrize("text, span", [
    ("[x, (1 + y) / (x - x)]", "(1 + y) / (x - x)"),
    ("[x, 2*y/0*x]", "2*y/0"),
    ("[(1/x^10)^2 + y, y]", "(1/x^10)^2"),
])
def test_zero_denominators_quote_the_callers_text(text, span, mode):
    with pytest.raises(ZeroDenominator) as info:
        parse_vector_field(text, mode, 16)
    assert str(info.value) == f"denominator of {span!r} vanishes to degree 16"


# -- the single-term path on bench-shaped sums ---------------------------------------

_B24 = 2 ** 24 - 1
_PARTS = st.one_of(st.just(Fraction(0)), st.integers(-3, 3).map(Fraction),
                   st.builds(Fraction, st.integers(-_B24, _B24), st.integers(1, _B24)))
# real, imaginary-only and general Gaussian-rational coefficients, zero included
_COEFFS = st.builds(GaussianRational, _PARTS, _PARTS).map(format_exact)


@st.composite
def _bench_sums(draw):
    """Sums (c)*x^i*y^j + ... as the bench writes its fields, with x^0 and
    y^0 written out or left out, and exponents beyond the degree."""
    terms = []
    for _ in range(draw(st.integers(1, 8))):
        text = f"({draw(_COEFFS)})"
        for name in ("x", "y"):
            e = draw(st.integers(0, 9))
            if e or draw(st.booleans()):
                text += f"*{name}^{e}"
        terms.append(text)
    signs = draw(st.lists(st.sampled_from([" + ", " - "]), min_size=len(terms),
                          max_size=len(terms)))
    return "".join(s + t for s, t in zip(signs, terms))[3:]


@settings(max_examples=300, deadline=None)
@given(a=_bench_sums(), b=_bench_sums(), degree=st.sampled_from([0, 1, 2, 3, 4, 6, 8, math.inf]))
def test_bench_shaped_sums_match_the_per_node_evaluators(a, b, degree):
    # exact values are identical in den, numerators and valid_through, float
    # values bit for bit, to the Jet2-per-node evaluator and the AST parser
    node = parse_expression(a)
    _check_both_modes(lambda mode: parse_to_jet2(a, mode, degree),
                      lambda mode: oracles.p_eval(node, mode, degree))
    _check_both_modes(lambda mode: parse_to_jet2(a, mode, degree),
                      lambda mode: eval_node(node, mode, degree))
    _check_both_modes(lambda mode: parse_vector_field(f"[{a}, {b}]", mode, degree),
                      lambda mode: _p_vector_field((a, b), mode, degree))


@settings(max_examples=200, deadline=None)
@given(a=_bench_sums(), shape=st.sampled_from(["({})/(1-x)", "({})/y", "x/({})"]),
       degree=st.sampled_from([0, 1, 2, 3, 4, 6, 8, math.inf]))
def test_bench_shaped_quotients_match_the_per_node_evaluator(a, shape, degree):
    # a divisible quotient, a RationalFn whose sum may have divided by
    # constants, which is read again by node, and a quotient by the sum
    text = shape.format(a)
    node = parse_expression(text)
    _check_both_modes(lambda mode: parse_to_jet2(text, mode, degree),
                      lambda mode: oracles.p_eval(node, mode, degree))


@pytest.mark.parametrize("text, mode, readings", [
    ("x^2/3+(1/2+i)*y", EXACT, 1),          # a polynomial
    ("x/(1+y)+y/3", EXACT, 1),              # a divisible quotient: a series
    ("(3/4)*x/y+y^2/5", FLOAT, 1),          # a float text is read by node
    ("y^2/(y-x^2)", EXACT, 1),              # no constant divided
    ("1/x+1/y", EXACT, 1),
    ("(x/y)/3", EXACT, 1),                  # 3 divides the pair, as by node
    ("(3/4)*x/y+y^2/5", EXACT, 2),          # folds that divided by constants
    ("(51/300)/(y)+(y)", EXACT, 2),
    ("x^2*y/3/y", EXACT, 1),                # divisible again: no RationalFn
])
def test_only_a_rational_function_whose_fold_divided_by_a_constant_is_read_twice(
        text, mode, readings, descents):
    out = parse_to_jet2(text, mode, 8)
    assert len(descents) == readings
    _assert_same(out, oracles.p_eval(parse_expression(text), mode, 8))


@pytest.mark.parametrize("fn, text", [(parse_vector_field, "[(3/4)*x/y, y]"),
                                      (parse_to_jet1, "(3/4)*z/z^2")])
def test_entry_points_that_refuse_a_rational_function_read_once(fn, text, descents):
    with pytest.raises(GermforgeError):
        fn(text, EXACT, 8)
    assert len(descents) == 1


@pytest.fixture
def descents(monkeypatch):
    """The readings of the parser, one entry per _Descent made."""
    made = []

    class Counted(parser._Descent):
        __slots__ = ()

        def __init__(self, *args):
            made.append(args)
            super().__init__(*args)

    monkeypatch.setattr(parser, "_Descent", Counted)
    return made


# bases of order >= 1: single terms, sums and quotients, with constant and
# nonconstant denominators
POWER_BASES = ["x", "y", "2*x", "i*y/3", "0.5*x*y", "x+y", "x-2*i*y^2", "x^2*y/7+y^3",
               "x/(1+y)", "1/x", "(x+y)/(3-x)", "1/(x*y-y^2)"]


@pytest.mark.parametrize("base", POWER_BASES)
def test_powers_beyond_the_degree_match_the_product_loop(base):
    for e in range(8):
        for degree in range(7):
            text = f"({base})^{e}"
            node = parse_expression(text)
            _check_both_modes(lambda mode: parse_to_jet2(text, mode, degree),
                              lambda mode: oracles.p_eval(node, mode, degree))


def test_a_power_beyond_the_degree_takes_no_products():
    start = time.perf_counter()
    out = parse_to_jet2("x^1000000000", EXACT, 4)
    assert time.perf_counter() - start < 1.0
    assert out.is_zero() and out.valid_through == 4


# constant factors (exact mode) and the float denominator 1 raised to a power
CONSTANT_POWERS = ["(x/2)^{e}", "(i*x/3)^{e}", "((2-i)/5*y)^{e}", "(x/(1+i))^{e}*y",
                   "((3/2)*x)^{e}/(1+y)", "x^{e}", "(x^2/7+y)^{e}", "(1/x)^{e}",
                   "((1+i)/3*y)^{e}/(x-y)"]


@pytest.mark.parametrize("template", CONSTANT_POWERS)
def test_powers_of_constant_factors_match_the_product_loop(template):
    for e in (0, 1, 2, 3, 5, 8, 13, 40):
        for degree in (0, 2, 5):
            text = template.format(e=e)
            node = parse_expression(text)
            _check_both_modes(lambda mode: parse_to_jet2(text, mode, degree),
                              lambda mode: oracles.p_eval(node, mode, degree))


@pytest.mark.parametrize("text, mode", [("(x/2)^1000000", EXACT), ("x^1000000000", FLOAT)])
def test_large_powers_take_no_e_products(text, mode):
    # exact mode raised the constant 1/2 by e products of growing ints (56 s);
    # a float value carries the denominator 1, whose e products took minutes
    start = time.perf_counter()
    out = parse_to_jet2(text, mode, 4)
    assert time.perf_counter() - start < 1.0
    assert out.is_zero() and out.valid_through == 4


@pytest.mark.parametrize("text, mode", [("[(x/2)^4000000, y]", FLOAT),
                                        ("[(x/3)^1000000000, y]", EXACT),
                                        ("[((x+y)/3)^1000000000, y]", EXACT),
                                        ("[(x/(1+y))^1000000000, y]", FLOAT)])
def test_powers_beyond_the_degree_raise_no_denominator(text, mode):
    # the float denominator 2 was raised by e products (2.1 s at e = 4 * 10^6),
    # and the exact constant 1/3 by squaring to 3^e (4.8 s at e = 10^7)
    start = time.perf_counter()
    out = parse_vector_field(text, mode, 4)
    assert time.perf_counter() - start < 1.0
    assert out.a.is_zero() and out.a.valid_through == 4


def test_a_float_power_beyond_the_degree_is_zero_as_in_exact_mode():
    # 0.5^2000 underflows to 0.0, which read as a vanishing denominator
    for mode in (EXACT, FLOAT):
        out = parse_vector_field("[(x/0.5)^2000, y]", mode, 4)
        assert out.a.is_zero() and out.a.valid_through == 4
    # a denominator without a constant term is still no unit
    for mode in (EXACT, FLOAT):
        with pytest.raises(ZeroDenominator):
            parse_vector_field("[(x/x^2)^20, y]", mode, 16)


@pytest.mark.parametrize("text", ["2^1000000*x", "(1+x)^1000000", "((2-i)/3+x)^100000"])
def test_exact_powers_square_and_multiply(text):
    # e products of growing ints took a time growing with e squared
    # (2^200000*x took about 2 s); squaring takes about 2 log2(e) products
    start = time.perf_counter()
    out = parse_to_jet2(text, EXACT, 4)
    assert time.perf_counter() - start < 1.0
    assert out.valid_through == 4 and out.den != 0
    if text == "2^1000000*x":
        assert (out.den, out.re, out.im) == (1, {(1, 0): 2 ** 1000000}, {})
    if text == "(1+x)^1000000":
        assert (out.den, out.re, out.im) == (1, {(k, 0): math.comb(10 ** 6, k)
                                                 for k in range(5)}, {})


# -- run tokens: a whole term read as one token in exact mode -----------------------

def _op(draw, op, spaces):
    """*op*, with or without a space on either side when *spaces* holds."""
    if not spaces:
        return op
    return draw(st.sampled_from(["", " "])) + op + draw(st.sampled_from(["", " "]))


# divisors, 0 once in eleven draws
_DIVISORS = st.sampled_from([0] + [1, 2, 3, 7, 12] * 2)


def _literal(draw, spaces):
    """(p/q+r/s*i) and its variants: every part shape a run literal takes,
    zero parts and divisions by 0."""
    parts = []
    for k in range(draw(st.integers(1, 3))):
        p, q = draw(st.integers(0, 9)), draw(_DIVISORS)
        shape = draw(st.sampled_from(["{p}", "{p}/{q}", "{p}/{q}*i", "{p}*i", "{p}*i/{q}",
                                      "i", "i/{q}"]))
        sign = draw(st.sampled_from(["", "-", "+"] if k == 0 else ["-", "+"]))
        parts.append(sign + shape.format(p=p, q=q).replace("/", _op(draw, "/", spaces)))
    return "(" + "".join(parts) + ")"


def _run_term(draw, spaces):
    """Atoms (numbers, 0 among them, i, x, y and literals), each maybe raised
    to a power (^0 and beyond the degree too), joined by '*' and divisions
    by small integers, 0 among them."""
    atoms = []
    for _ in range(draw(st.integers(1, 4))):
        atom = draw(st.sampled_from(["x", "y", "i", "0", "1", "2", "3", "0.5", "("]))
        if atom == "(":
            atom = _literal(draw, spaces)
        if draw(st.booleans()):
            atom += _op(draw, "^", spaces) + str(draw(st.sampled_from([0, 1, 2, 3, 5, 9, 40])))
        atoms.append(atom)
        if draw(st.integers(0, 3)) == 0:
            atoms[-1] += _op(draw, "/", spaces) + str(draw(_DIVISORS))
    return "".join(a if k == 0 else _op(draw, "*", spaces) + a for k, a in enumerate(atoms))


# one text in four has spaces around its operators and inside its literals,
# which makes the terms around them no runs
_SPACES = st.sampled_from([False, False, False, True])


@st.composite
def _run_terms(draw):
    return _run_term(draw, draw(_SPACES))


@st.composite
def _run_sums(draw):
    """Sums of run-shaped terms after an optional unary minus, some next to
    a '^' or a '/' (where they are no runs), some in parentheses."""
    spaces = draw(_SPACES)
    out = draw(st.sampled_from(["", "-", "- "]))
    for k in range(draw(st.sampled_from([1, 1, 2, 3, 4]))):
        term = _run_term(draw, spaces)
        around = ["{}", "{}", "({})", "(-{})", "({})^2", "{}/(1+x)", "({})/(y-x)", "1/{}",
                  "x^2*{}", "({})/(3)"]
        if not term[-1].isdigit():
            around.append("{}^2")       # a term that ends in an exponent takes no second one
        out += (draw(st.sampled_from([" + ", " - ", "+", "-"])) if k else "") + \
            draw(st.sampled_from(around)).format(term)
    return out


@settings(max_examples=300, deadline=None)
@given(term=_run_terms(), a=_run_sums(), b=_run_sums(),
       degree=st.sampled_from([0, 1, 2, 3, 5, 8, math.inf]))
def test_run_shaped_texts_match_the_per_node_evaluator(term, a, b, degree):
    # the exact tokenizer reads each whole term of these texts as one run
    # token where it can: values, valid_through and the exception type stay
    # those of the per-node evaluator
    for text in (term, a, b):
        node = _outcome(parse_expression, text)
        if isinstance(node, type):
            assert _outcome(parse_to_jet2, text, EXACT, degree) is node
            continue
        _assert_same(_outcome(parse_to_jet2, text, EXACT, degree),
                     _outcome(oracles.p_eval, node, EXACT, degree))
    _assert_same(_outcome(parse_vector_field, f"[{a}, {b}]", EXACT, degree),
                 _outcome(_p_vector_field, (a, b), EXACT, degree))


@pytest.mark.parametrize("text, error, message", [
    ("[(2)*x^2 + $, y]", ExprSyntaxError, "unexpected character '$' (at position 11)"),
    ("[(1/2)*x^2^2, y]", ExprSyntaxError,
     "vector field literal must look like [exprA, exprB] (at position 10)"),
    ("[(1+i)*x*, y]", ExprSyntaxError,
     "expected a number, variable or '(', found ',' (at position 9)"),
    ("[-(2)*x^, y]", ExprSyntaxError, "expected 'num', found ',' (at position 8)"),
    ("[(2)*x^2.5, y]", ExprSyntaxError, "exponent must be a non-negative integer (at position 7)"),
    ("[(2)*x^2 y, y]", ExprSyntaxError,
     "vector field literal must look like [exprA, exprB] (at position 9)"),
    ("(2)*x, y]", ExprSyntaxError,
     "vector field literal must look like [exprA, exprB] (at position 0)"),
    ("[(2)*w, y]", UnknownVariable, "unknown variable 'w' (at position 5)"),
    ("[(3+3*i)*x^2*y^1 + (2)*x $, y]", ExprSyntaxError,
     "unexpected character '$' (at position 25)"),
    ("[(i)+(0/0), y]", ZeroDenominator, "denominator of '0/0' vanishes to degree 4"),
    ("[(1/0+i)*x, y]", ZeroDenominator, "denominator of '1/0' vanishes to degree 4"),
    ("[2*x/0, y]", ZeroDenominator, "denominator of '2*x/0' vanishes to degree 4"),
    ("[(1/2)*x/(y-y)^2, y]", ZeroDenominator,
     "denominator of '(1/2)*x/(y-y)^2' vanishes to degree 4"),
])
def test_faults_next_to_a_run_keep_their_text_and_position(text, error, message):
    with pytest.raises(error) as info:
        parse_vector_field(text, EXACT, 4)
    assert str(info.value) == message


@pytest.mark.parametrize("text", [
    "(0)*x^1*y^1", "0*0*x", "x*0*y^2", "(0/3)*x", "x^0*(0)", "(0*i)*y", "(1/2+3/4*i)^3*x/5",
    "(-2-i/3)*x^9*y", "i^3*x^2/6", "(2)^40*x", "0.5*x*y/2", "(i)+(0/0)", "-(1/2)*x - (i)*y"])
@pytest.mark.parametrize("degree", [0, 1, 2, 3, 8, math.inf])
def test_runs_match_the_per_node_evaluator(text, degree):
    # a zero factor keeps the product rule's valid_through (min(av + ord b,
    # bv + ord a) with ord 0 = INF), and a literal's divisions are kept
    # apart as constants, as the descent keeps them
    _assert_same(_outcome(parse_to_jet2, text, EXACT, degree),
                 _outcome(oracles.p_eval, parse_expression(text), EXACT, degree))


def test_runs_are_whole_terms():
    # a run starts where a term starts and ends where one ends, so the x*y
    # of 1/x*y is no run; a division by 0 is none either
    tokens = parser._RUN_TOKEN.findall
    assert tokens("[(3+3*i)*x^2*y^1 + (2)*y, -x^2*y/3]") == \
        ["[", "(3+3*i)*x^2*y^1", "+", "(2)*y", ",", "-", "x^2*y/3", "]"]
    assert tokens("1/x*y") == ["1", "/", "x", "*", "y"]
    assert tokens("x^2*y^2^2") == ["x", "^", "2", "*", "y", "^", "2", "^", "2"]
    assert tokens("(i)+(0/0)") == ["(i)", "+", "(", "0", "/", "0", ")"]
    assert tokens("2 * x") == ["2", "*", "x"]
    # a product of leaves alone is read token by token
    assert tokens("[x*y, -i*x*y]") == ["[", "x", "*", "y", ",", "-", "i", "*", "x", "*", "y", "]"]
