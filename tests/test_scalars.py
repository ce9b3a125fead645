"""The exact scalar on reduced ints against the Fraction-pair oracle."""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from germforge import scalars
from germforge.errors import GermforgeError, ModeMismatch, NumberTooLong
from germforge.scalars import GaussianRational
import oracles
from oracles import FractionPairGR, _is_zero_scalar, fp_format_exact, fp_parse_exact

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "germbench"))
from tracer import GR_OPS  # noqa: E402  (the operations the bench tracer counts)

# zero parts, small values and numerators and denominators of up to 64 bits
_ints = st.one_of(st.just(0), st.integers(-9, 9), st.integers(-2 ** 64, 2 ** 64))
_dens = st.one_of(st.just(1), st.integers(1, 9), st.integers(1, 2 ** 64))
_rats = st.builds(Fraction, _ints, _dens)
_pairs = st.tuples(_rats, _rats)
# the other operand of a binary operation: a scalar, an int or a Fraction
_operands = st.one_of(_pairs, _ints, _rats)


def _reduced(value) -> bool:
    return value.den > 0 and math.gcd(value.den, value.re_num, value.im_num) == 1


def _outcome(fn):
    """fn() as a comparable value: a scalar by its parts, an exception by its type."""
    try:
        out = fn()
    except Exception as exc:    # the exception type is part of the result
        return type(exc)
    if isinstance(out, GaussianRational):
        assert _reduced(out)
    if isinstance(out, (GaussianRational, FractionPairGR)):
        return "scalar", out.re, out.im
    return out


def _both(operand):
    """The operand for the library and for the oracle."""
    if isinstance(operand, tuple):
        return GaussianRational(*operand), FractionPairGR(*operand)
    return operand, operand


@settings(max_examples=300, deadline=None)
@given(a=_pairs, b=_operands)
def test_binary_operations_match_the_oracle(a, b):
    new, old = GaussianRational(*a), FractionPairGR(*a)
    assert _reduced(new)
    new_b, old_b = _both(b)
    for name in GR_OPS:
        args = () if name == "__neg__" else (new_b,)
        old_args = () if name == "__neg__" else (old_b,)
        assert _outcome(lambda: getattr(new, name)(*args)) == \
            _outcome(lambda: getattr(old, name)(*old_args)), name
    # the operators themselves, with the plain operand on either side
    for op in (lambda p, q: p + q, lambda p, q: p - q, lambda p, q: p * q,
               lambda p, q: p / q, lambda p, q: p == q):
        assert _outcome(lambda: op(new, new_b)) == _outcome(lambda: op(old, old_b))
        assert _outcome(lambda: op(new_b, new)) == _outcome(lambda: op(old_b, old))


_B24 = 2 ** 24
_parts24 = st.one_of(st.just(Fraction(0)), st.integers(-3, 3).map(Fraction),
                     st.builds(Fraction, st.integers(-_B24, _B24), st.integers(1, _B24)))


@settings(max_examples=200, deadline=None)
@given(a=st.tuples(_parts24, _parts24), e=st.integers(-40, 300))
def test_powers_match_the_product_loop_oracle(a, e):
    """__pow__ squares and multiplies; oracles.gr_pow takes |e| products of
    Fraction pairs and inverts for e < 0 (a zero base then raises)."""
    value = GaussianRational(*a)
    try:
        expected = oracles.gr_pow(a, e)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            value ** e
        return
    assert value ** e == GaussianRational(*expected)


@settings(max_examples=300, deadline=None)
@given(a=_pairs, e=st.integers(-3, 5))
def test_unary_operations_match_the_oracle(a, e):
    new, old = GaussianRational(*a), FractionPairGR(*a)
    assert _outcome(lambda: new ** e) == _outcome(lambda: old ** e)
    assert (hash(new), bool(new), new.is_zero(), str(new), repr(new)) == \
        (hash(old), bool(old), old.is_zero(), str(old), repr(old))
    # every square has a root; a random value mostly has none
    for x, y in ((new, old), (new * new, old * old)):
        assert _outcome(x.sqrt) == _outcome(y.sqrt)
    # bit for bit, signed zeros included
    assert repr(new.to_complex()) == repr(old.to_complex())
    text = scalars.format_exact(new)
    assert text == fp_format_exact(old)
    assert _outcome(lambda: scalars.parse_exact(text)) == \
        _outcome(lambda: fp_parse_exact(text)) == ("scalar", new.re, new.im)
    for other in (1.5, 2j, "x"):
        assert (new == other) == (old == other)


def test_conversions_at_the_edges_match_the_oracle():
    tiny = Fraction(1, 10 ** 400)       # below the least subnormal float
    for re, im in ((-tiny, -tiny), (-tiny, tiny), (tiny, -tiny), (0, -tiny), (-tiny, 0),
                   (Fraction(-1, 3), -tiny), (0, 0), (Fraction(-7, 2), Fraction(5, 9))):
        new, old = GaussianRational(re, im), FractionPairGR(re, im)
        assert repr(new.to_complex()) == repr(old.to_complex())
    huge = GaussianRational(10 ** 400)
    assert _outcome(huge.to_complex) is OverflowError
    assert _outcome(FractionPairGR(10 ** 400).to_complex) is OverflowError
    for value in (2j, 1.5):
        assert _outcome(lambda: GaussianRational(1) + value) == \
            _outcome(lambda: FractionPairGR(1) + value)
    assert _outcome(lambda: GaussianRational.from_value(2j)) is ModeMismatch


def test_as_rational_reads_real_values_only():
    assert scalars.as_rational(GaussianRational(Fraction(-6, 4))) == Fraction(-3, 2)
    assert scalars.as_rational(GaussianRational(1, 1)) is None
    assert scalars.as_rational(1 + 0j) is None


def test_a_coefficient_beyond_the_digit_limit_is_a_germforge_error():
    value = GaussianRational(Fraction(1, 10 ** sys.get_int_max_str_digits()), 1)
    with pytest.raises(NumberTooLong, match="more than .* digits"):
        scalars.format_exact(value)
    assert issubclass(NumberTooLong, GermforgeError)


@pytest.mark.parametrize("value", [
    GaussianRational(0), GaussianRational(0, 0), GaussianRational(Fraction(1, 10 ** 400)),
    GaussianRational(0, Fraction(-1, 3)), GaussianRational(-2, 5),
])
def test_an_exact_scalar_is_zero_exactly_when_falsy(value):
    assert (not value) == _is_zero_scalar(value, scalars.EXACT) == value.is_zero()


@pytest.mark.parametrize("value", [
    0j, -0.0j, complex(-0.0, -0.0), complex(-0.0, 0.0), complex(math.nan, 0),
    complex(0, math.nan), complex(math.inf, 0), complex(0, -math.inf), 5e-324 + 0j,
    5e-324j, 1e-300 + 1e-300j, -1 + 0j,
])
def test_a_float_scalar_is_zero_exactly_when_falsy(value):
    # the old zero test at its only tolerance, 0.0: -0.0 is zero, nan is not
    assert (not value) == _is_zero_scalar(value, scalars.FLOAT)
