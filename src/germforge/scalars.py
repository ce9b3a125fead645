"""Scalar coefficient field: exact Gaussian rationals or double complex.

Exact mode carries a pair of arbitrary-precision rationals (re + im*i) so
that every symbolic check in the suite is an equality check.  Float mode is
plain ``complex`` and all comparisons go through a tolerance.  The two modes
never mix silently: containers carry a mode tag and refuse mixed input.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

from .errors import ModeMismatch

EXACT = "exact"
FLOAT = "float"


class GaussianRational:
    """Element of Q(i) with Fraction real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if isinstance(re, Fraction) else Fraction(re)
        self.im = im if isinstance(im, Fraction) else Fraction(im)

    # -- constructors ---------------------------------------------------
    @classmethod
    def from_value(cls, value) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return cls(value, 0)
        if isinstance(value, complex):
            raise ModeMismatch("cannot build an exact scalar from a float complex")
        raise TypeError(f"cannot build GaussianRational from {value!r}")

    # -- arithmetic ------------------------------------------------------
    def __add__(self, other):
        other = GaussianRational.from_value(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = GaussianRational.from_value(other)
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return GaussianRational.from_value(other) - self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        other = GaussianRational.from_value(other)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = GaussianRational.from_value(other)
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def __rtruediv__(self, other):
        return GaussianRational.from_value(other) / self

    def __pow__(self, e: int):
        """Integer power by repeated multiplication; e < 0 inverts self^(-e)."""
        if e < 0:
            return GaussianRational(1) / self ** -e
        out = GaussianRational(1)
        for _ in range(e):
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = GaussianRational(other, 0)
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def sqrt(self):
        """Exact square root inside Q(i), or None when there is none."""
        norm2 = self.re * self.re + self.im * self.im
        r = _fraction_sqrt(norm2)
        if r is None:
            return None
        c2 = (self.re + r) / 2
        c = _fraction_sqrt(c2)
        if c is None:
            return None
        if c == 0:
            d = _fraction_sqrt(-self.re)
            if d is None:
                return None
            return GaussianRational(0, d)
        d = self.im / (2 * c)
        cand = GaussianRational(c, d)
        if cand * cand == self:
            return cand
        return None

    def to_complex(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return format_exact(self)


def _fraction_sqrt(q: Fraction):
    """Square root of a non-negative rational if it is again rational."""
    if q < 0:
        return None
    if q == 0:
        return Fraction(0)
    n, d = q.numerator, q.denominator
    rn = math.isqrt(n)
    rd = math.isqrt(d)
    if rn * rn != n or rd * rd != d:
        return None
    return Fraction(rn, rd)


Scalar = Union[GaussianRational, complex]


def zero(mode: str) -> Scalar:
    return GaussianRational(0, 0) if mode == EXACT else 0j


def one(mode: str) -> Scalar:
    return GaussianRational(1, 0) if mode == EXACT else 1 + 0j


def coerce(value, mode: str) -> Scalar:
    """Bring a literal into the scalar field of *mode* (never exact<-float)."""
    if mode == EXACT:
        return GaussianRational.from_value(value)
    if isinstance(value, GaussianRational):
        return value.to_complex()
    return complex(value)


def check_same_mode(*modes: str) -> str:
    first = modes[0]
    for m in modes[1:]:
        if m != first:
            raise ModeMismatch(f"mixed scalar modes {modes!r}")
    return first


def is_zero_scalar(value: Scalar, mode: str, tol: float = 0.0) -> bool:
    if mode == EXACT:
        return value.is_zero()
    return abs(value) <= tol


def to_complex(value: Scalar) -> complex:
    if isinstance(value, GaussianRational):
        return value.to_complex()
    return complex(value)


def format_exact(value: GaussianRational) -> str:
    """Serialize as "p/q", "r/s*i" or "p/q+r/s*i" (lossless)."""
    re_s = str(value.re)
    im = value.im
    if im == 0:
        return re_s
    im_s = f"{im}*i"
    if value.re == 0:
        return im_s
    return f"{re_s}+{im_s}" if im > 0 else f"{re_s}-{-im}*i"


def parse_exact(text: str) -> GaussianRational:
    """Inverse of :func:`format_exact`."""
    s = text.strip().replace(" ", "")
    if s.endswith("*i"):
        body = s[:-2]
        split = _split_signed(body)
        if split is None:
            return GaussianRational(0, Fraction(body))
        re_part, sign, im_part = split
        return GaussianRational(Fraction(re_part), sign * Fraction(im_part))
    return GaussianRational(Fraction(s), 0)


def _split_signed(body: str):
    # split "p/q+r/s" style at the last top-level sign (not the leading one)
    for k in range(len(body) - 1, 0, -1):
        c = body[k]
        if c in "+-" and body[k - 1] not in "+-/":
            return body[:k], (1 if c == "+" else -1), body[k + 1:]
    return None
