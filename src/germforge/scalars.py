"""Scalar coefficient field: exact Gaussian rationals or double complex.

Exact mode stores an element of Q(i) as three Python ints, the value
(re_num + im_num*i) / den with den > 0 and gcd(den, re_num, im_num) = 1,
which is how a Jet2 stores each coefficient (as FLINT's fmpq and fmpzi
types keep integers over one denominator).  Every value is reduced, so
equal numbers have equal ints and every symbolic check in the suite is an
equality check.  Float mode is plain ``complex``, and a comparison that
needs a tolerance states its own.  In both modes a scalar is zero exactly
when it is falsy (``GaussianRational.__bool__``, or complex truthiness, so
-0.0 is zero and nan is not).  The two modes never mix silently:
containers carry a mode tag and refuse mixed input.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Optional, Union

from .errors import ModeMismatch, NumberTooLong

EXACT = "exact"
FLOAT = "float"


class GaussianRational:
    """Element of Q(i) stored as reduced ints (den, re_num, im_num).

    ``GaussianRational(re, im)`` takes ints, Fractions or anything Fraction
    accepts; every operation works on the ints and returns a reduced value.
    ``re`` and ``im`` are read-only Fraction views of the two parts.
    """

    __slots__ = ("den", "re_num", "im_num")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            self.den, self.re_num, self.im_num = 1, re, im
            return
        re, im = Fraction(re), Fraction(im)
        # a reduced a/b and c/d over lcm(b, d) share no factor with it
        den = math.lcm(re.denominator, im.denominator)
        self.den = den
        self.re_num = re.numerator * (den // re.denominator)
        self.im_num = im.numerator * (den // im.denominator)

    @property
    def re(self) -> Fraction:
        return Fraction(self.re_num, self.den)

    @property
    def im(self) -> Fraction:
        return Fraction(self.im_num, self.den)

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
        o = GaussianRational.from_value(other)
        d1, d2 = self.den, o.den
        if d1 == d2:
            return from_ints(d1, self.re_num + o.re_num, self.im_num + o.im_num)
        return from_ints(d1 * d2, self.re_num * d2 + o.re_num * d1,
                               self.im_num * d2 + o.im_num * d1)

    __radd__ = __add__

    def __sub__(self, other):
        return self + -GaussianRational.from_value(other)

    def __rsub__(self, other):
        return GaussianRational.from_value(other) - self

    def __neg__(self):
        return from_ints(self.den, -self.re_num, -self.im_num)

    def __mul__(self, other):
        o = GaussianRational.from_value(other)
        r1, i1, r2, i2 = self.re_num, self.im_num, o.re_num, o.im_num
        return from_ints(self.den * o.den, r1 * r2 - i1 * i2, r1 * i2 + i1 * r2)

    __rmul__ = __mul__

    def __truediv__(self, other):
        # a / b = a * conj(b) / |b|^2: (r1 + i1 i) d2 (r2 - i2 i) / (d1 (r2^2 + i2^2))
        o = GaussianRational.from_value(other)
        r1, i1, r2, i2 = self.re_num, self.im_num, o.re_num, o.im_num
        norm = r2 * r2 + i2 * i2
        if norm == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        d2 = o.den
        return from_ints(self.den * norm, d2 * (r1 * r2 + i1 * i2), d2 * (i1 * r2 - r1 * i2))

    def __rtruediv__(self, other):
        return GaussianRational.from_value(other) / self

    def __pow__(self, e: int):
        """Integer power by squaring and multiplying on the stored ints,
        reduced once (the value of e products); e < 0 inverts self^(-e)."""
        if e < 0:
            return GaussianRational(1) / self ** -e
        return from_ints(self.den ** e, *gaussian_pow(self.re_num, self.im_num, e))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = GaussianRational(other, 0)
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self.re_num == other.re_num and self.im_num == other.im_num \
            and self.den == other.den

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re_num or self.im_num)

    def is_zero(self) -> bool:
        return not (self.re_num or self.im_num)

    def sqrt(self):
        """Exact square root inside Q(i), or None when there is none.

        sqrt((r + s i) / d) is sqrt(w) / d for the Gaussian integer
        w = a + b i = (r + s i) d, and w = (p + q i)^2 for integers with
        p^2 = (|w| + a) / 2, q^2 = (|w| - a) / 2 and 2pq = b.  The root
        returned has p > 0, or p = 0 and q >= 0.
        """
        a, b = self.re_num * self.den, self.im_num * self.den
        n = math.isqrt(a * a + b * b)
        p, q = math.isqrt((n + a) // 2), math.isqrt((n - a) // 2)
        if n * n != a * a + b * b or 2 * p * p != n + a or 2 * q * q != n - a:
            return None
        return from_ints(self.den, p, q if b >= 0 else -q)

    def to_complex(self) -> complex:
        # int / int is correctly rounded: the float(Fraction) of each part
        return complex(self.re_num / self.den) + 1j * complex(self.im_num / self.den)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return format_exact(self)


_new = object.__new__


def gaussian_pow(re_num: int, im_num: int, e: int):
    """(re_num + im_num*i)^e for ints and e >= 0, as a pair of ints, by
    squaring and multiplying (Knuth, TAOCP vol. 2, 4.6.3)."""
    r, s = 1, 0
    while e:
        if e & 1:
            r, s = r * re_num - s * im_num, r * im_num + s * re_num
        e >>= 1
        if e:
            re_num, im_num = re_num * re_num - im_num * im_num, 2 * re_num * im_num
    return r, s


def from_ints(den: int, re_num: int, im_num: int) -> GaussianRational:
    """(re_num + im_num*i) / den for ints with den > 0, reduced."""
    g = math.gcd(den, re_num, im_num)
    out = _new(GaussianRational)
    out.den, out.re_num, out.im_num = den // g, re_num // g, im_num // g
    return out


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


def as_rational(value) -> Optional[Fraction]:
    """The rational number *value* is, or None for a non-real or float scalar."""
    if isinstance(value, GaussianRational) and not value.im_num:
        return Fraction(value.re_num, value.den)
    return None


def format_exact(value: GaussianRational) -> str:
    """Serialize as "p/q", "r/s*i" or "p/q+r/s*i" (lossless)."""
    return format_numerators(value.den, value.re_num, value.im_num)


def _part_text(num: int, den: int) -> str:
    """num/den in lowest terms as str(Fraction(num, den)) writes it."""
    g = math.gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


def format_numerators(den: int, re_num: int, im_num: int) -> str:
    """format_exact of (re_num + im_num*i) / den, den > 0, reduced or not:
    each part in lowest terms, as the Fraction views print them."""
    try:
        re_s, im_s = _part_text(re_num, den), _part_text(im_num, den) + "*i"
    except ValueError:          # Python refuses int-to-text beyond its digit limit
        raise NumberTooLong(f"a coefficient has more than {sys.get_int_max_str_digits()} "
                            f"digits, the limit of Python's int-to-text conversion") from None
    if not im_num:
        return re_s
    if not re_num:
        return im_s
    return f"{re_s}+{im_s}" if im_num > 0 else re_s + im_s


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
