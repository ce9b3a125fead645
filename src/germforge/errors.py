"""Exception hierarchy shared by every germforge module."""

from __future__ import annotations


class GermforgeError(Exception):
    """Base class for all library errors."""


class ModeMismatch(GermforgeError):
    """Exact and float values were mixed in one computation."""


class NotAUnit(GermforgeError):
    """Reciprocal of a series whose constant term vanishes."""


class ZeroDenominator(GermforgeError):
    """A divisor vanishes: an expression's denominator at the working degree,
    or the zero jet that exact_divide or a RationalFn is given as divisor."""


class NotDivisible(GermforgeError):
    """A jet is not divisible by the requested monomial."""


class PrecisionExhausted(GermforgeError):
    """A coefficient needed by the computation lies beyond valid_through."""


class CompositionAtNonzeroPoint(GermforgeError):
    """Composition f(g) of a proper jet f with g(0,0) != 0."""


class DegenerateFrame(GermforgeError):
    """decompose() called on a frame with AD - BC identically zero."""


class NonInvertibleChange(GermforgeError):
    """Series coordinate change with singular Jacobian at the origin."""


class PoleAtOrigin(GermforgeError):
    """Chart pullback left a pole that no declared factor clears."""


class AxisNotInvariant(GermforgeError):
    """Restriction requested along an axis the field does not preserve."""


class DegenerateBlowup(GermforgeError):
    """Blow-up requested for the zero germ or a germ with X(0,0) != 0."""


class DicriticalInput(GermforgeError):
    """Divisor singularities of a dicritical blow-up were requested."""


class BadParams(GermforgeError):
    """Parameters violate a constraint of the called constructor or routine."""


class NumberTooLong(GermforgeError):
    """An exact coefficient has more digits than Python turns into text."""


class NonzeroEigenvalue(GermforgeError):
    """Classifier input has an eigenvalue different from zero at the origin."""


class OnExceptionalLocus(GermforgeError):
    """Chart transition requested at a point where the map is undefined."""


class StepFailure(GermforgeError):
    """Numerical integration could not proceed (blow-up or step underflow)."""

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


class LeafEscape(GermforgeError):
    """A tracked leaf lift left the configured polydisc."""


class UnresolvedRoots(GermforgeError):
    """Exact root search could not certify all roots of a divisor polynomial."""
