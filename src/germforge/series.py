"""Truncated power series in one and two variables with precision tracking.

A jet stores the coefficients of total degree <= valid_through and nothing
beyond: every operation computes the tightest conservative valid_through
(product rule min(av + ord b, bv + ord a), derivative loses one degree,
composition takes the min over contributing chains) and never reports a
coefficient it cannot guarantee.  Polynomials known exactly carry
valid_through = INF.  Zero jets have order INF.

All values are immutable after construction; operations are pure functions.

One kernel.  Every coefficient computation lives in the Jet2 operations of
this module (jet_mul, jet_dot, exact_bracket, jet_derive, jet_reciprocal,
jet_compose1, jet_compose2, jet_pow and Jet2's sums and scalings).  Jet1 is not a
second kernel: it holds ``jet``, the Jet2 in x alone that z -> x maps it
to, and its queries, sum, product, scaling, reciprocal and to_float are the
Jet2 ones on that jet.  Derivatives and compositions of a Jet1 go through
jet_derive and jet_compose1 on its jet.

One storage.  A Jet2 keeps its coefficients as numerators over one
denominator, as FLINT's fmpq_poly does: the coefficient of x^i y^j is
(re[i, j] + im[i, j] * i) / den, and re and im hold only nonzero terms of
degree <= valid_through.  Exact jets hold Python ints, and every operation
reduces den against the numerators, so den is the least common denominator
of the coefficients.  Float jets hold their complex coefficients in re,
with den = 1 and im empty.  The integer helpers (_zlin, _zsum, _zscaled,
_zmul_into, _gmul_into, _zproduct) therefore serve both modes.  A
GaussianRational stores one coefficient the same way, as reduced ints
(den, re_num, im_num), so a jet and its scalars convert by gcds and
lcms of ints alone.  ``coeffs`` is a read-only scalar view that an exact
jet builds on first read (re keys first, then the purely imaginary ones)
and caches, and that for a float jet is re itself.  No kernel operation
reads it: re-keyings (_rekeyed), equals and to_float run on stored data,
and a caller that needs the keys or one coefficient asks ``_keys``,
``coeff`` or ``_has_constant``.  The readers left are the float lowerings,
the chart pullback and exact_divide, whose remainder stays in scalars.  The
view stays cached because exact_divide reads it once per call and
classify divides one numerator by many patterns: building the view afresh
on each read made the classify jobs 12-19% slower (3.4 times the from_ints
calls).

Degree-by-degree recurrences work on homogeneous parts, in both modes.  The
reciprocal and the graded solves (RelaxedComposition and its callers) keep
each degree as a reduced (den, re, im) part (_split), form each new part as
one sum of products over one lcm (_piece) and build one Jet2 at the end
(_from_parts).  A float part is over 1, which _reduced leaves alone; only b_0
of the reciprocal and the integral of series_ode_solve depend on the mode.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from typing import Dict, Optional, Tuple

from . import scalars
from .errors import (
    BadParams,
    CompositionAtNonzeroPoint,
    ModeMismatch,
    NotAUnit,
    NotDivisible,
    PrecisionExhausted,
    ZeroDenominator,
)
from .scalars import EXACT, FLOAT, GaussianRational, Scalar, from_ints

INF = math.inf

DEFAULT_DEGREE = 16
# the bound of --degree, of inverse's degree and of catalog int parameters
MAX_DEGREE = 64


def _exact_coefficient(value) -> GaussianRational:
    """An exact Jet2 coefficient: an int or Fraction is coerced, as
    from_coeffs coerces it; any other value is refused."""
    if isinstance(value, (GaussianRational, int, Fraction)):
        return GaussianRational.from_value(value)
    raise BadParams(f"an exact Jet2 coefficient must be a GaussianRational, int or Fraction,"
                    f" not {type(value).__name__}")


def _as_scalar(value, mode):
    if mode == EXACT:
        return GaussianRational.from_value(value)
    if isinstance(value, GaussianRational):
        raise ModeMismatch("exact scalar used in float-mode jet")
    return complex(value)


class Jet1:
    """Truncated series in one variable z, held as ``jet``, the Jet2 in x
    alone that z -> x maps it to.  ``coeffs`` is the scalar view keyed by
    the exponent of z, built on each read; the queries and operations are
    the Jet2 ones on ``jet``, their results wrapped without a copy.
    """

    __slots__ = ("jet",)

    def __init__(self, mode: str, coeffs: Dict[int, Scalar], valid_through):
        if any(k < 0 for k in coeffs):
            raise BadParams("Jet1 exponents must be >= 0")
        self.jet = Jet2(mode, {(k, 0): v for k, v in coeffs.items()}, valid_through)

    @classmethod
    def _of(cls, jet: "Jet2") -> "Jet1":
        """The Jet1 that holds *jet*, a Jet2 in x alone."""
        out = cls.__new__(cls)
        out.jet = jet
        return out

    # -- constructors ----------------------------------------------------
    @classmethod
    def from_coeffs(cls, pairs, mode=EXACT, valid_through=INF) -> "Jet1":
        if isinstance(pairs, dict):
            pairs = pairs.items()
        return cls(mode, {k: _as_scalar(v, mode) for k, v in pairs}, valid_through)

    @classmethod
    def zero(cls, mode=EXACT, valid_through=INF) -> "Jet1":
        return cls(mode, {}, valid_through)

    @classmethod
    def const(cls, value, mode=EXACT, valid_through=INF) -> "Jet1":
        return cls(mode, {0: _as_scalar(value, mode)}, valid_through)

    @classmethod
    def variable(cls, mode=EXACT, valid_through=INF) -> "Jet1":
        return cls(mode, {1: scalars.one(mode)}, valid_through)

    # -- basic queries ----------------------------------------------------
    mode = property(lambda self: self.jet.mode)
    valid_through = property(lambda self: self.jet.valid_through)
    coeffs = property(lambda self: {i: v for (i, _), v in self.jet.coeffs.items()})

    def order(self):
        return self.jet.order()

    def coeff(self, k: int) -> Scalar:
        return self.jet.coeff(k, 0)

    def is_zero(self, tol: float = 0.0) -> bool:
        return self.jet.is_zero(tol)

    def is_polynomial(self) -> bool:
        return self.jet.is_polynomial()

    def truncate(self, valid_through) -> "Jet1":
        return Jet1._of(self.jet.truncate(valid_through))

    def degree_bound(self) -> int:
        return self.jet.degree_bound()

    # -- arithmetic: the Jet2 kernel on the held jets ------------------------
    def __add__(self, other: "Jet1") -> "Jet1":
        return Jet1._of(self.jet + other.jet)

    def __mul__(self, other: "Jet1") -> "Jet1":
        return Jet1._of(jet_mul(self.jet, other.jet))

    def scale(self, value) -> "Jet1":
        return Jet1._of(self.jet.scale(value))

    def reciprocal(self) -> "Jet1":
        return Jet1._of(jet_reciprocal(self.jet))

    def to_float(self) -> "Jet1":
        return Jet1._of(self.jet.to_float())

    def __repr__(self):
        terms = " + ".join(f"({v})*z^{k}" for k, v in sorted(self.coeffs.items()))
        return f"Jet1[{terms or '0'}; valid<={self.valid_through}]"


class Jet2:
    """Truncated series in two variables x, y (total-degree triangular).

    ``den``, ``re`` and ``im`` are the stored numerators over one
    denominator (see the module docstring); ``coeffs`` is the scalar view.
    """

    __slots__ = ("mode", "den", "re", "im", "valid_through", "_view")

    def __init__(self, mode: str, coeffs: Dict[Tuple[int, int], Scalar], valid_through):
        cleaned = {}
        exact = mode != FLOAT
        for (i, j), v in coeffs.items():
            if i < 0 or j < 0:
                raise BadParams("Jet2 exponents must be >= 0")
            if i + j <= valid_through and v:
                if exact and type(v) is not GaussianRational:
                    v = _exact_coefficient(v)
                cleaned[(i, j)] = v
        self.mode = mode
        self.valid_through = valid_through
        self._view = cleaned
        if mode == FLOAT:
            self.den, self.re, self.im = 1, cleaned, {}
            return
        den = 1
        for v in cleaned.values():
            den = math.lcm(den, v.den)
        self.den = den
        self.re = {k: v.re_num * (den // v.den) for k, v in cleaned.items() if v.re_num}
        self.im = {k: v.im_num * (den // v.den) for k, v in cleaned.items() if v.im_num}

    @property
    def coeffs(self) -> Dict[Tuple[int, int], Scalar]:
        """The scalar coefficients, read-only (built on first read, then cached)."""
        view = self._view
        if view is None:
            den, re, im = self.den, self.re, self.im
            view = self._view = {k: from_ints(den, re.get(k, 0), im.get(k, 0))
                                 for k in self._keys()}
        return view

    # -- constructors ----------------------------------------------------
    @classmethod
    def from_coeffs(cls, pairs, mode=EXACT, valid_through=INF) -> "Jet2":
        if isinstance(pairs, dict):
            pairs = pairs.items()
        return cls(mode, {k: _as_scalar(v, mode) for k, v in pairs}, valid_through)

    @classmethod
    def zero(cls, mode=EXACT, valid_through=INF) -> "Jet2":
        return cls(mode, {}, valid_through)

    @classmethod
    def const(cls, value, mode=EXACT, valid_through=INF) -> "Jet2":
        return cls(mode, {(0, 0): _as_scalar(value, mode)}, valid_through)

    @classmethod
    def variable(cls, name: str, mode=EXACT, valid_through=INF) -> "Jet2":
        if name == "x":
            key = (1, 0)
        elif name == "y":
            key = (0, 1)
        else:
            raise BadParams(f"unknown variable {name!r}")
        return cls(mode, {key: scalars.one(mode)}, valid_through)

    @classmethod
    def monomial(cls, i: int, j: int, value=1, mode=EXACT, valid_through=INF) -> "Jet2":
        return cls(mode, {(i, j): _as_scalar(value, mode)}, valid_through)

    # -- queries -----------------------------------------------------------
    def _keys(self):
        """The stored keys, in the order of the scalar view, without
        building it (the cached view is returned when there is one)."""
        if self._view is None:
            return self.re | self.im if self.im else self.re
        return self._view

    def order(self):
        return _zorder(self.re, self.im)

    def coeff(self, i: int, j: int) -> Scalar:
        if i + j > self.valid_through:
            raise PrecisionExhausted(f"degree {i + j} beyond valid_through {self.valid_through}")
        if self.mode == FLOAT:
            return self.re.get((i, j), 0j)
        return from_ints(self.den, self.re.get((i, j), 0), self.im.get((i, j), 0))

    def is_zero(self, tol: float = 0.0) -> bool:
        if tol and self.mode == FLOAT:
            return all(abs(v) <= tol for v in self.re.values())
        return not self.re and not self.im

    def is_polynomial(self) -> bool:
        return self.valid_through == INF

    def truncate(self, valid_through) -> "Jet2":
        if valid_through >= self.valid_through:
            return self
        return _jet(self.mode, self.den, _zcut(self.re, valid_through),
                    _zcut(self.im, valid_through), valid_through)

    def degree_bound(self) -> int:
        return max(map(sum, self._keys()), default=0)

    # -- arithmetic ----------------------------------------------------------
    def _check(self, other: "Jet2"):
        scalars.check_same_mode(self.mode, other.mode)

    def __add__(self, other: "Jet2") -> "Jet2":
        self._check(other)
        valid = min(self.valid_through, other.valid_through)
        return _jet(self.mode, *_zsum(self.den, self.re, self.im, other.den, other.re, other.im,
                                      valid), valid)

    def __neg__(self) -> "Jet2":
        return _jet(self.mode, self.den, {k: -v for k, v in self.re.items()},
                    {k: -v for k, v in self.im.items()}, self.valid_through)

    def __sub__(self, other: "Jet2") -> "Jet2":
        self._check(other)
        valid = min(self.valid_through, other.valid_through)
        return _jet(self.mode, *_zsum(self.den, self.re, self.im, other.den, other.re, other.im,
                                      valid, -1), valid)

    def __mul__(self, other: "Jet2") -> "Jet2":
        return jet_mul(self, other)

    def scale(self, value) -> "Jet2":
        if self.mode == FLOAT:
            cd, cr, ci = 1, _as_scalar(value, FLOAT), 0
        else:
            c = GaussianRational.from_value(value)
            cd, cr, ci = c.den, c.re_num, c.im_num
        return _jet(self.mode, self.den * cd, *_zscaled(self.re, self.im, cr, ci),
                    self.valid_through)

    def to_float(self) -> "Jet2":
        """Each part of each coefficient an int / int division (correctly rounded)."""
        if self.mode == FLOAT:
            return self
        den, re, im = self.den, self.re, self.im
        out = {}
        for k in self._keys():
            c = complex(re.get(k, 0) / den) + 1j * complex(im.get(k, 0) / den)
            if c:
                out[k] = c
        return _jet(FLOAT, 1, out, {}, self.valid_through)

    def equals(self, other: "Jet2", tol: float = 0.0) -> bool:
        """Through the common valid_through: exact jets are stored reduced."""
        self._check(other)
        valid = min(self.valid_through, other.valid_through)
        a, b = self.truncate(valid), other.truncate(valid)
        if self.mode == EXACT:
            return (a.den, a.re, a.im) == (b.den, b.re, b.im)
        return all(abs(a.re.get(k, 0) - b.re.get(k, 0)) <= tol for k in a.re.keys() | b.re.keys())

    def restrict_y0(self) -> Jet1:
        """The 1-variable jet self(x, 0)."""
        return Jet1._of(_rekeyed(self, lambda k: None if k[1] else k, self.valid_through))

    def restrict_x0(self) -> Jet1:
        """The 1-variable jet self(0, y)."""
        return Jet1._of(_rekeyed(self, lambda k: None if k[0] else (k[1], 0),
                                 self.valid_through))

    def divide_monomial(self, i: int, j: int) -> "Jet2":
        """Exact division by x^i y^j; raises NotDivisible when not divisible."""
        def move(key):
            if key[0] < i or key[1] < j:
                raise NotDivisible(f"not divisible by x^{i} y^{j}: term x^{key[0]} y^{key[1]}")
            return key[0] - i, key[1] - j
        return _rekeyed(self, move, self.valid_through - (i + j))

    def __repr__(self):
        terms = " + ".join(
            f"({v})*x^{i}*y^{j}" for (i, j), v in sorted(self.coeffs.items())
        )
        return f"Jet2[{terms or '0'}; valid<={self.valid_through}]"


# ---------------------------------------------------------------------------
# the numerator kernel
# ---------------------------------------------------------------------------


def _reduced(den: int, re: dict, im: dict):
    """(den, re, im) with den and the numerators divided by their gcd; a
    float den is 1 and is left alone."""
    if den != 1:
        g = math.gcd(den, *re.values(), *im.values())
        if g != 1:
            den //= g
            re = {k: v // g for k, v in re.items()}
            im = {k: v // g for k, v in im.items()}
    return den, re, im


def _jet(mode: str, den: int, re: dict, im: dict, valid) -> Jet2:
    """A Jet2 from stored data (nonzero terms of degree <= valid only),
    reduced by _reduced()."""
    den, re, im = _reduced(den, re, im)
    jet = Jet2.__new__(Jet2)
    jet.mode, jet.den, jet.re, jet.im, jet.valid_through = mode, den, re, im, valid
    jet._view = re if mode == FLOAT else None
    return jet


def _rekeyed(jet: Jet2, move, valid) -> Jet2:
    """*jet* with the term of each key k moved to move(k) (one-to-one) or dropped
    where that is None, cut at *valid* and reduced, in the scalar view's order."""
    re, im = jet.re, jet.im
    out_re, out_im = {}, {}
    for k in jet._keys():
        new = move(k)
        if new is not None and new[0] + new[1] <= valid:
            if k in re:
                out_re[new] = re[k]
            if k in im:
                out_im[new] = im[k]
    return _jet(jet.mode, jet.den, out_re, out_im, valid)


def _nonzero(a: dict) -> dict:
    """a without its zero terms: a itself when it has none (every caller
    hands over a dict of its own)."""
    return a if all(a.values()) else {k: v for k, v in a.items() if v}


def _zorder(re: dict, im: dict):
    """The least total degree of the stored terms; INF when there are none."""
    if im:
        return min(map(sum, re.keys() | im.keys()))
    return min(map(sum, re), default=INF)


def _mul_valid(a_valid, a_order, b_valid, b_order):
    """valid_through of a product: min(av + ord b, bv + ord a), with ord INF
    for a zero jet.  The one home of the product rule: jet_mul, jet_dot,
    jet_pow and the expression evaluator of germforge.parser all call it."""
    return min(a_valid + b_order, b_valid + a_order)


def _zcut(a: Dict[Tuple[int, int], int], valid) -> Dict[Tuple[int, int], int]:
    return {k: v for k, v in a.items() if k[0] + k[1] <= valid}


def _zlin(a, s, b, t, valid) -> dict:
    """s*a + t*b over the terms of degree <= valid, zero sums dropped.

    A factor 1 multiplies nothing and a factor -1 negates, so a float sum
    or difference (both dens 1) adds the complex terms as they are, or as
    -v, signed zeros included.
    """
    out = {k: v if s == 1 else v * s for k, v in a.items() if k[0] + k[1] <= valid} if s else {}
    if t:
        get = out.get
        for k, v in b.items():
            if k[0] + k[1] <= valid:
                out[k] = get(k, 0) + (v if t == 1 else -v if t == -1 else v * t)
    return _nonzero(out)


def _zsum(d1: int, re1: dict, im1: dict, d2: int, re2: dict, im2: dict, valid, sign=1):
    """(re1 + i*im1) / d1 + sign * (re2 + i*im2) / d2 over the terms of degree
    <= valid, as (den, re, im) on the least common denominator (not reduced)."""
    g = math.gcd(d1, d2)
    s, t = d2 // g, sign * (d1 // g)
    return d1 * s, _zlin(re1, s, re2, t, valid), _zlin(im1, s, im2, t, valid)


def _zscaled(re: dict, im: dict, c_re, c_im):
    """The numerators (re + i*im) * (c_re + i*c_im), zero terms dropped.

    Every term is multiplied, by a factor 1 too: a float jet (im empty,
    c_im = 0) becomes {k: v * c}, the scalar loop's values with their signed
    zeros.
    """
    out_re = {k: v * c_re for k, v in re.items()}
    out_im = {k: v * c_re for k, v in im.items()}
    if c_im:
        get = out_re.get
        for k, v in im.items():
            out_re[k] = get(k, 0) - v * c_im
        get = out_im.get
        for k, v in re.items():
            out_im[k] = get(k, 0) + v * c_im
    return _nonzero(out_re), _nonzero(out_im)


def _zmul_into(out: dict, a: dict, b: dict, valid) -> None:
    """out += a * b over the terms of degree <= valid (Cauchy product).

    Pairs run in the order of a's terms, then of b's, so each key sums its
    products in a's order and new keys enter in pair order: a float product
    is the scalar loop's, bit for bit and in term order.
    """
    if not a or not b:
        return
    get = out.get
    terms = [(i2, j2, i2 + j2, v) for (i2, j2), v in b.items()]
    for (i1, j1), u in a.items():
        room = valid - i1 - j1
        for i2, j2, d2, v in terms:
            if d2 <= room:
                k = (i1 + i2, j1 + j2)
                out[k] = get(k, 0) + u * v


def _gmul_into(re: dict, im: dict, ar: dict, ai: dict, br: dict, bi: dict, valid) -> None:
    """re + i*im += (ar + i*ai)(br + i*bi) over the terms of degree <= valid."""
    _zmul_into(re, ar, br, valid)
    if ai and bi:
        _zmul_into(re, ai, {k: -v for k, v in bi.items()}, valid)
    _zmul_into(im, ar, bi, valid)
    _zmul_into(im, ai, br, valid)


def _zproduct(a: tuple, b: tuple, valid) -> tuple:
    """a * b for stored (den, re, im) triples over the terms of degree <= valid,
    as (den, re, im) over the product of the denominators (not reduced)."""
    re: dict = {}
    im: dict = {}
    _gmul_into(re, im, a[1], a[2], b[1], b[2], valid)
    return a[0] * b[0], _nonzero(re), _nonzero(im)


# ---------------------------------------------------------------------------
# spec operations
# ---------------------------------------------------------------------------

def jet_mul(a: Jet2, b: Jet2) -> Jet2:
    """Cauchy product with valid_through = min(av + ord b, bv + ord a).

    The numerators are multiplied as Gaussian integers over the product of
    the denominators (complex numbers over 1 in float mode).
    """
    scalars.check_same_mode(a.mode, b.mode)
    valid = _mul_valid(a.valid_through, a.order(), b.valid_through, b.order())
    return _jet(a.mode, *_zproduct((a.den, a.re, a.im), (b.den, b.re, b.im), valid), valid)


def _stored(jet: Jet2) -> tuple:
    """The stored (den, re, im, valid) numerator of *jet*."""
    return jet.den, jet.re, jet.im, jet.valid_through


def jet_dot(terms: list) -> Jet2:
    """sum of sign * a * b over the (sign, a, b) of *terms*, sign 1 or -1.

    a is a Jet2, b a Jet2 or a stored numerator from _zderive, of a's mode.
    valid_through is the least _mul_valid of the products, each order
    taken from the factor's terms.  Exact products are summed on their
    numerators over the lcm of their denominators and reduced once: the
    Jet2 sum of the jet_mul products.  Float products are summed in pairs,
    then the pairs, so a + b, a - b and (a + b) - (c + d) round as the Jet2
    sums of jet_mul products do, bit for bit and in term order.
    """
    mode = scalars.check_same_mode(*(f.mode for _, a, b in terms for f in (a, b)
                                     if isinstance(f, Jet2)))
    products = [(s, _stored(a), _stored(b) if isinstance(b, Jet2) else b) for s, a, b in terms]
    valid = min(_mul_valid(a[3], _zorder(a[1], a[2]), b[3], _zorder(b[1], b[2]))
                for _, a, b in products)
    if mode == FLOAT:
        sums = [(sign, _zproduct(a, b, valid)[1]) for sign, a, b in products]
        while len(sums) > 1:        # an odd one out waits for the next round
            sums = [(sa, _zlin(a, 1, b, sa * sb, valid))
                    for (sa, a), (sb, b) in zip(sums[::2], sums[1::2])] + sums[len(sums) & ~1:]
        sign, re = sums[0]
        return _jet(FLOAT, 1, re if sign == 1 else {k: -v for k, v in re.items()}, {}, valid)
    den = math.lcm(*[a[0] * b[0] for _, a, b in products])
    re: dict = {}
    im: dict = {}
    for sign, (da, a_re, a_im, _), (db, b_re, b_im, _) in products:
        s = den // (da * db) * sign
        if s != 1:
            a_re = {k: v * s for k, v in a_re.items()}
            a_im = {k: v * s for k, v in a_im.items()}
        _gmul_into(re, im, a_re, a_im, b_re, b_im, valid)
    return _jet(mode, den, _nonzero(re), _nonzero(im), valid)


def _bracket_terms(jet: Jet2, scale: int) -> list:
    """(i, j, i + j, re, im) of each stored term of *jet*, numerators times *scale*."""
    re, im = jet.re, jet.im
    return [(i, j, i + j, re.get((i, j), 0) * scale, im.get((i, j), 0) * scale)
            for i, j in jet._keys()]


def _zdiag_into(re: dict, im: dict, p: list, q: list, valid) -> None:
    """re + i*im += (i2 - i1) uv at x^(i1+i2-1) y^(j1+j2) for each pair of
    a term u x^i1 y^j1 of p and v x^i2 y^j2 of q, of degree <= valid."""
    rget, iget = re.get, im.get
    valid += 1
    for i1, j1, d1, ur, ui in p:
        room = valid - d1
        for i2, j2, d2, vr, vi in q:
            w = i2 - i1
            if w and d2 <= room:
                k = (i1 + i2 - 1, j1 + j2)
                if ui or vi:
                    re[k] = rget(k, 0) + w * (ur * vr - ui * vi)
                    im[k] = iget(k, 0) + w * (ur * vi + ui * vr)
                else:
                    re[k] = rget(k, 0) + w * ur * vr


def _zcross_into(x_re: dict, x_im: dict, y_re: dict, y_im: dict, p: list, q: list, sign: int,
                 valid) -> None:
    """For each pair of a term u x^i1 y^j1 of p and v x^i2 y^j2 of q, add
    sign * j2 uv at x^(i1+i2) y^(j1+j2-1) to x_re + i*x_im and
    -sign * i1 uv at x^(i1+i2-1) y^(j1+j2) to y_re + i*y_im, of degree
    <= valid."""
    xr, xi, yr, yi = x_re.get, x_im.get, y_re.get, y_im.get
    valid += 1
    for i1, j1, d1, ur, ui in p:
        room = valid - d1
        wy = -sign * i1
        for i2, j2, d2, vr, vi in q:
            if d2 > room:
                continue
            if ui or vi:
                uv_re, uv_im = ur * vr - ui * vi, ur * vi + ui * vr
            else:
                uv_re, uv_im = ur * vr, 0
            if j2:
                w = sign * j2
                k = (i1 + i2, j1 + j2 - 1)
                x_re[k] = xr(k, 0) + w * uv_re
                if uv_im:
                    x_im[k] = xi(k, 0) + w * uv_im
            if wy:
                k = (i1 + i2 - 1, j1 + j2)
                y_re[k] = yr(k, 0) + wy * uv_re
                if uv_im:
                    y_im[k] = yi(k, 0) + wy * uv_im


def exact_bracket(a: Jet2, b: Jet2, c: Jet2, d: Jet2) -> Tuple[Jet2, Jet2]:
    """The components of [A dx + B dy, C dx + D dy] for exact jets.

    One pass over the term pairs of (A, B) x (C, D), on the numerators over
    lcm(den A, den B) * lcm(den C, den D), the lcm of the four den(P) den(Q).
    The contributions are the structure constants of monomial fields: a
    pair u x^i1 y^j1 of P and v x^i2 y^j2 of Q adds
      A x C: (i2 - i1) uv at x^(i1+i2-1) y^(j1+j2) to dx (X.C and Y.A merged);
      B x D: (j2 - j1) uv at x^(i1+i2) y^(j1+j2-1) to dy (A x C with x and
             y exchanged);
      B x C: j2 uv to dx and -i1 uv to dy;
      A x D: -j1 uv to dx and i2 uv to dy (B x C of D and A, negated);
    zero weights and pairs beyond the cut are skipped.

    The cut is the least series._mul_valid of the eight (component,
    partial) products of A dC/dx + B dC/dy - C dA/dx - D dA/dy and of its
    dy twin, each partial known one degree less than its component and of
    the order of its terms, which is then also the lesser valid_through of
    the two components, as lie_bracket cuts them.  A partial's order is at
    least its component's order less one, so the bound v_P + ord(dQ) of
    each product is never below the bound v_P - 1 + ord Q of the product
    of Q and a partial of P, and the least of the eight is
    _mul_valid(v_X - 1, ord X, v_Y - 1, ord Y), with v_X and ord X the
    least valid_through and order of A and B (and v_Y, ord Y of C and D).
    A component known through degree 0 only raises PrecisionExhausted, as
    its partials do (_zderive).
    """
    for jet in (c, a, d, b):
        if jet.valid_through < 1:
            raise PrecisionExhausted("jet_derive: valid_through would drop below 0")
    valid = _mul_valid(min(a.valid_through, b.valid_through) - 1,
                       min(_zorder(a.re, a.im), _zorder(b.re, b.im)),
                       min(c.valid_through, d.valid_through) - 1,
                       min(_zorder(c.re, c.im), _zorder(d.re, d.im)))
    dx, dy = math.lcm(a.den, b.den), math.lcm(c.den, d.den)
    ta, tb = _bracket_terms(a, dx // a.den), _bracket_terms(b, dx // b.den)
    tc, td = _bracket_terms(c, dy // c.den), _bracket_terms(d, dy // d.den)
    x_re: dict = {}
    x_im: dict = {}
    swapped_re: dict = {}
    swapped_im: dict = {}
    _zdiag_into(x_re, x_im, ta, tc, valid)
    _zdiag_into(swapped_re, swapped_im, [(j, i, *t) for i, j, *t in tb],
                [(j, i, *t) for i, j, *t in td], valid)     # B x D is A x C with x, y exchanged
    y_re = {(j, i): v for (i, j), v in swapped_re.items()}
    y_im = {(j, i): v for (i, j), v in swapped_im.items()}
    _zcross_into(x_re, x_im, y_re, y_im, tb, tc, 1, valid)
    _zcross_into(x_re, x_im, y_re, y_im, td, ta, -1, valid)
    den = dx * dy
    return (_jet(EXACT, den, _nonzero(x_re), _nonzero(x_im), valid),
            _jet(EXACT, den, _nonzero(y_re), _nonzero(y_im), valid))


def _zpow(mode: str, a: tuple, a_valid, e: int) -> tuple:
    """a^e for e >= 0 of a stored (den, re, im) triple known through a_valid,
    as (den, re, im, valid), not reduced.

    The value and valid_through are those of e products starting from the
    constant 1, each cut at the valid_through _mul_valid gives it.  Exact
    mode squares and multiplies, in about 2 log2(e) products: the loop's
    valid_through is a_valid + (e - 1) ord a (exact powers of a nonzero jet
    never vanish, and a zero jet is known through a_valid at e = 1 and for
    ever after), and its cuts drop only terms beyond that degree.  Float
    mode takes the e products, so its results are the product loop's bit
    for bit, which the parser's float tests pin; a single term c x^i y^j
    goes straight to c^e x^(ie) y^(je) by the products _zproduct would
    take, in the same order (the term is never cut, since i + j <= a_valid).
    """
    out, valid, order = _unit(mode), INF, 0
    a_order = _zorder(a[1], a[2])
    if mode == EXACT and e:
        valid = a_valid + (e - 1) * a_order if a_order < INF else (a_valid if e == 1 else INF)
        base = a
        while True:
            if e & 1:
                out = _reduced(*_zproduct(out, base, valid))
            e >>= 1
            if not e:
                return (*out, valid)
            base = _reduced(*_zproduct(base, base, valid))
    keys = a[1].keys() | a[2].keys() if a[2] else a[1].keys()
    if len(keys) != 1 or not e:
        for _ in range(e):
            valid = _mul_valid(valid, order, a_valid, a_order)
            out = _zproduct(out, a, valid)
            order = _zorder(out[1], out[2])
        return (*out, valid)
    (key,) = keys
    r, s = a[1].get(key, 0), a[2].get(key, 0)
    pr, ps = out[1][(0, 0)], 0
    for _ in range(e):
        valid = _mul_valid(valid, order, a_valid, a_order)
        if s or ps:
            pr, ps = pr * r - ps * s, pr * s + ps * r
        else:
            pr = 0 + pr * r
        order = order + a_order if pr or ps else INF    # a float power may underflow
    key = (key[0] * e, key[1] * e)
    return a[0] ** e, {key: pr} if pr else {}, {key: ps} if ps else {}, valid


def jet_pow(a: Jet2, e: int) -> Jet2:
    """a^e for e >= 0: e products on the stored numerators starting from the
    constant 1 (see _zpow), and one Jet2 at the end."""
    return _jet(a.mode, *_zpow(a.mode, (a.den, a.re, a.im), a.valid_through, e))


def jet_reciprocal(a: Jet2) -> Jet2:
    """Series inverse of a unit (a(0,0) != 0).

    The classical power-series recurrence (Knuth, TAOCP vol. 2, 4.7) on
    homogeneous parts, keyed as _split keys them: b_0 = 1 / a_0 and
    b_s = -b_0 * sum_{0<d<=s} a_d b_(s-d).  Each nonzero a_d is scaled by
    -b_0 once, each b_s is one _piece over the pairs (-b_0 a_d, b_(s-d)),
    and one _from_parts builds the jet.  Only b_0 depends on the mode: an
    exact b_0 is den(a) * conj(c) / |c|^2 for the stored constant
    numerator c, a float b_0 is 1 / c.
    """
    if not _has_constant(a):
        raise NotAUnit("jet_reciprocal: constant term vanishes")
    valid = a.valid_through
    # a constant input has nothing beyond degree 0; the inverse of a
    # nonconstant polynomial is an infinite series
    nonconstant = len(a._keys()) > 1
    if valid == INF and nonconstant:
        valid = DEFAULT_DEGREE
    bound = int(valid) if nonconstant else 0
    c_re, c_im = a.re.get((0, 0), 0), a.im.get((0, 0), 0)
    if a.mode == EXACT:
        norm, u_re, u_im = c_re * c_re + c_im * c_im, a.den * c_re, -a.den * c_im
    else:
        norm, u_re, u_im = 1, 1 / c_re, 0
    parts = [_part(norm, {0: u_re}, {0: u_im})]
    neg_b0 = _part(norm, {0: -u_re}, {0: -u_im})
    scaled = [(d, _piece([(neg_b0, part)]))
              for d, part in enumerate(_split(a, bound)) if d and part is not _ZERO]
    for s in range(1, bound + 1):
        pairs = [(a_d, parts[s - d]) for d, a_d in scaled
                 if d <= s and parts[s - d] is not _ZERO]
        parts.append(_piece(pairs) if pairs else _ZERO)
    return _from_parts(a.mode, parts, valid)


def _has_constant(g: Jet2) -> bool:
    return (0, 0) in g.re or (0, 0) in g.im


def _unit(mode: str) -> tuple:
    """The constant 1 as a stored (den, re, im) triple, as Jet2.const(1) stores it."""
    return 1, {(0, 0): 1 if mode == EXACT else 1 + 0j}, {}


def jet_compose1(f: Jet1, g: Jet2) -> Jet2:
    """f(g(x,y)) for g(0,0) = 0, or polynomial f at arbitrary g:
    sum_k f_k g^k, through the valid_through of the result.

    This is jet_compose2 of f's jet f(x) at the inner pair (g, 0), which
    forms the same powers g^k, cut at the same valid_through.
    """
    scalars.check_same_mode(f.mode, g.mode)
    if _has_constant(g) and not f.is_polynomial():
        raise CompositionAtNonzeroPoint("jet_compose1: g(0,0) != 0 for a proper jet f")
    return jet_compose2(f.jet, g, Jet2.zero(g.mode, INF))


def jet_compose2(f: Jet2, p, q, state: Optional["RelaxedComposition"] = None, slot: int = 0,
                 n: int = 0, k: int = 0):
    """f(p(x,y), q(x,y)) for p(0,0) = q(0,0) = 0 (or polynomial f).

    sum_i p^i row_i over the rows of f grouped by x-degree, each row
    sum_j f_ij q^j, through the valid_through of the result.  Runs on
    stored (den, re, im) numerators, not on Jet2 objects:
    - every power p^i and q^j, and every product p^i row_i, is cut at the
      result's valid_through as it is made, and reduced;
    - row i is cut at valid_through - i ord(p), since p^i has order
      >= i ord(p), and each row and each partial sum is reduced;
    - the sum stops at the first power of p that is zero through
      valid_through, and one Jet2 is built at the end.
    Float jets are den 1 with im empty, and every step does the scalar
    loop's operations in its order, so float results are its results bit
    for bit.

    With a *state* (one per graded solve) the call is one pass
    of the solve on homogeneous parts, not on jets: p and q are the inner
    pair's parts of degree *n*, reduced (den, re, im) triples keyed by the
    x-exponent, and the call returns the part of degree *k* of f(p, q) in
    the same layout, computing only what earlier calls of the solve did
    not (see RelaxedComposition).  *slot* tells the outer series of one
    solve apart.
    """
    if state is not None:
        return state.compose(f, p, q, n, k, slot)
    scalars.check_same_mode(f.mode, p.mode, q.mode)
    if (_has_constant(p) or _has_constant(q)) and not f.is_polynomial():
        raise CompositionAtNonzeroPoint("jet_compose2 at nonzero point")
    valid = min(p.valid_through, q.valid_through)
    if not f.is_polynomial():
        # f's tail contributes from degree (f.valid_through + 1) * ord on.  No
        # constant term here, so a linear term in p or q makes the order 1; a
        # zero inner jet that is truncated is only known to vanish through
        # valid, so its order counts as valid + 1
        linear = any(k in part for part in (p.re, p.im, q.re, q.im) for k in ((1, 0), (0, 1)))
        order = min(1 if linear else min(p.order(), q.order()), valid + 1)
        if order < INF:
            valid = min(valid, (f.valid_through + 1) * order - 1)
    rows: Dict[int, list] = {}
    for i, j in sorted(f._keys()):
        rows.setdefault(i, []).append(j)
    p_num, q_num, p_ord = (p.den, p.re, p.im), (q.den, q.re, q.im), p.order()
    q_pows = [_unit(f.mode)]
    p_pow, p_deg = q_pows[0], 0
    acc = (1, {}, {})
    for i, js in rows.items():
        while p_deg < i:
            p_pow, p_deg = _reduced(*_zproduct(p_pow, p_num, valid)), p_deg + 1
        if not p_pow[1] and not p_pow[2]:
            break
        cap = valid - i * p_ord if i else valid
        row = (1, {}, {})
        for j in js:
            for _ in range(len(q_pows), j + 1):
                q_pows.append(_reduced(*_zproduct(q_pows[-1], q_num, valid)))
            dq, q_re, q_im = q_pows[j]
            row = _reduced(*_zsum(*row, dq * f.den,
                                  *_zscaled(q_re, q_im, f.re.get((i, j), 0), f.im.get((i, j), 0)),
                                  cap))
        acc = _reduced(*_zsum(*acc, *_reduced(*_zproduct(p_pow, row, valid)), valid))
    return _jet(f.mode, *acc, valid)


_ZERO = (1, {}, {})      # a zero part; shared, and never written to
_ONE = (1, {0: 1}, {})


def _split(jet: Jet2, top: int) -> list:
    """The homogeneous parts of degree 0 .. top of an exact jet, by degree,
    each a reduced (den, re, im) triple keyed by the x-exponent alone (the
    term x^i y^(d-i) of the degree-d part has the key i); a zero part is
    _ZERO."""
    parts = [_ZERO] * (top + 1)
    by_degree: dict = {}
    for n, terms in enumerate((jet.re, jet.im)):
        for (i, j), v in terms.items():
            if i + j <= top:
                got = by_degree.get(i + j)
                if got is None:
                    got = by_degree[i + j] = ({}, {})
                got[n][i] = v
    den = jet.den
    for d, (re, im) in by_degree.items():
        parts[d] = _reduced(den, re, im) if den != 1 else (1, re, im)
    return parts


def _piece(pairs: list) -> tuple:
    """sum a * b over pairs of nonzero parts keyed as _split keys them:
    every product over the lcm of the denominators, reduced once."""
    den = pairs[0][0][0] * pairs[0][1][0] if len(pairs) == 1 else \
        math.lcm(*[a[0] * b[0] for a, b in pairs])
    re: dict = {}
    im: dict = {}
    re_get, im_get = re.get, im.get
    for (da, a_re, a_im), (db, b_re, b_im) in pairs:
        s = den // (da * db)
        for i, u in a_re.items():
            if s != 1:
                u *= s
            for j, v in b_re.items():
                re[i + j] = re_get(i + j, 0) + u * v
            for j, v in b_im.items():
                im[i + j] = im_get(i + j, 0) + u * v
        for i, u in a_im.items():
            if s != 1:
                u *= s
            for j, v in b_re.items():
                im[i + j] = im_get(i + j, 0) + u * v
            for j, v in b_im.items():
                re[i + j] = re_get(i + j, 0) - u * v
    re, im = _nonzero(re), _nonzero(im)
    return _reduced(den, re, im) if re or im else _ZERO


def _from_parts(mode: str, parts: list, valid) -> Jet2:
    """The Jet2 of *mode*, valid through *valid*, whose degree-d part is
    parts[d] (keyed as _split keys them): each part over the lcm of their
    denominators, reduced once.  Float parts are over 1 and are copied."""
    den = math.lcm(*[part[0] for part in parts])
    re: dict = {}
    im: dict = {}
    for d, (pd, p_re, p_im) in enumerate(parts):
        s = den // pd
        for i, v in p_re.items():
            re[(i, d - i)] = v * s if s != 1 else v
        for i, v in p_im.items():
            im[(i, d - i)] = v * s if s != 1 else v
    return _jet(mode, den, re, im, valid)


def _part(den: int, re: dict, im: dict) -> tuple:
    """A reduced part from numerators over *den*, zero terms dropped."""
    re, im = _nonzero(re), _nonzero(im)
    return _reduced(den, re, im) if re or im else _ZERO


class _Outer:
    """One outer series f of a RelaxedComposition and what it has given."""

    __slots__ = ("f", "linear", "terms", "rows", "result")

    def __init__(self, f: Jet2):
        self.f = f
        self.terms: dict = {}       # i -> [(j, f_ij as a part of degree 0)]
        self.rows: dict = {}        # i -> row i, sum_j f_ij q^j, by degree
        self.result: list = []      # f(p, q) by degree
        for t, (den, re, im) in enumerate(_split(f, f.degree_bound())):
            for i in (re.keys() | im.keys() if im else re):
                r, s = re.get(i, 0), im.get(i, 0)
                self.terms.setdefault(i, []).append(
                    (t - i, (den, {0: r} if r else {}, {0: s} if s else {})))
        # whether the degree-k part of f(p, q) reads the inner parts of degree k
        self.linear = any(j + i == 1 for i, row in self.terms.items() for j, _ in row)


class RelaxedComposition:
    """What the compositions f(p, q) of one graded solve share.

    A graded solve (germ.CoordinateChange.inverse, series_ode_solve,
    mr.linearize) learns its inner pair (p, q) one homogeneous degree per
    pass and needs one new degree of each f(p, q) per pass.  The state
    works on parts alone: each call of jet_compose2 with the state hands
    over the parts of p and q of one degree n and asks for the part of
    degree k of f(p, q).  A part is a reduced (den, re, im) triple keyed by
    the x-exponent (see _split).  The state appends the inner parts in
    order of degree, and keeps by degree the powers p^i and q^j (shared by
    every outer series of the solve), the rows sum_j f_ij q^j of each
    outer series and each result.  A call computes only the degrees of
    its result that no earlier call reached, each piece once (relaxed
    evaluation; van der Hoeven, J. Symb. Comput. 34, 2002) as one sum of
    products over one lcm, reduced once.  With p(0) = q(0) = 0 the degree-k
    part of f(p, q) reads the inner parts through degree k when f has a
    linear term and through degree k - 1 otherwise.

    The parts helpers serve both modes (a float part is over 1), so the
    state runs in the mode of the first outer series it is handed.

    Since the state only appends, no part it has used can change under it.
    A call raises BadParams when it hands over a degree out of order (or
    another part for a degree the state holds), when the inner parts that
    degree k reads are missing, or when a slot is handed another outer
    series; ModeMismatch for an outer series of the other mode.  *slot* (of
    jet_compose2) tells the outer series of one solve apart.
    """

    __slots__ = ("mode", "parts", "powers", "outers")

    def __init__(self):
        self.mode = None                    # that of the first outer series
        self.parts = ([_ZERO], [_ZERO])     # p and q by degree; p(0) = q(0) = 0
        self.powers = ([], [])              # [e] -> p^e, q^e by degree (e >= 2)
        self.outers: dict = {}              # slot -> _Outer

    def compose(self, f: Jet2, p: tuple, q: tuple, n: int, k: int, slot) -> tuple:
        """The degree-k part of f(p, q), after taking p and q as the inner
        pair's parts of degree n."""
        if f.mode != self.mode:
            if self.outers:
                raise ModeMismatch(f"a {f.mode} outer series in a {self.mode} composition")
            self.mode = f.mode
        p_parts, q_parts = self.parts
        held = len(p_parts)
        if n == held:
            p_parts.append(p)
            q_parts.append(q)
        elif n > held or n < 0 or p_parts[n] != p or q_parts[n] != q:
            raise BadParams(f"inner parts of degree {n} handed over out of order "
                            f"(the state holds degrees 0 .. {held - 1})")
        out = self.outers.get(slot)
        if out is None:
            out = self.outers[slot] = _Outer(f)
        elif out.f is not f:
            raise BadParams(f"slot {slot} holds another outer series")
        result = out.result
        if k < len(result):
            return result[k]
        if k > f.valid_through:
            raise PrecisionExhausted(f"the outer series is known through degree "
                                     f"{f.valid_through} < {k}")
        need = k if out.linear else k - 1
        if need >= len(p_parts):
            raise BadParams(f"degree {k} of f(p, q) reads the inner parts of degree {need}, "
                            f"which are missing")
        for t in range(len(result), k + 1):
            result.append(self._next(out.terms, out.rows, t))
        return result[k]

    def _next(self, terms: dict, rows: dict, k: int) -> tuple:
        """The degree-k part of f(p, q), sum over i and a of p^i_a row_i_(k-a),
        after the degree-(k - i) part of each row i, sum_j f_ij q^j_(k-i).
        *terms* holds the terms (j, f_ij) of f by row i."""
        p_parts, q_parts = self.parts
        p_powers, q_powers = self.powers
        for i, row_terms in terms.items():
            if i > k:
                continue
            b, pairs = k - i, []
            for j, coef in row_terms:
                if j > b or (j == 0 and b):                 # q^j has order >= j
                    continue
                if j == 0:
                    part = _ONE
                elif j == 1:
                    part = q_parts[b]
                elif j < len(q_powers) and b < len(q_powers[j]):
                    part = q_powers[j][b]
                else:
                    part = self._power(1, j, b)
                if part[1] or part[2]:
                    pairs.append((coef, part))
            row = rows.setdefault(i, [])
            if len(row) < b:                                # a row met first at degree k
                row.extend([_ZERO] * (b - len(row)))
            row.append(_piece(pairs) if pairs else _ZERO)
        pairs = []
        for i, row_i in rows.items():
            for a in range(i, k + 1 if i else 1):           # p^i has order >= i
                row = row_i[k - a]
                if not (row[1] or row[2]):
                    continue
                if i == 0:
                    part = _ONE
                elif i == 1:
                    part = p_parts[a]
                elif i < len(p_powers) and a < len(p_powers[i]):
                    part = p_powers[i][a]
                else:
                    part = self._power(0, i, a)
                if part[1] or part[2]:
                    pairs.append((part, row))
        return _piece(pairs) if pairs else _ZERO

    def _power(self, c: int, e: int, m: int) -> tuple:
        """The degree-m part of p^e (c = 0) or q^e (c = 1), e >= 2.  The
        powers 2 .. e are extended through degree m: degree n of p^g is
        the sum over b of part b times the degree-(n - b) part of p^(g-1),
        and reads parts below degree n only."""
        powers, parts = self.powers[c], self.parts[c]
        while len(powers) <= e:
            powers.append([])
        for g in range(2, e + 1):
            got = powers[g]
            below = powers[g - 1] if g > 2 else parts
            for n in range(len(got), m + 1):
                pairs = []
                if n >= g:                                  # p^g has order >= g
                    for b in range(1, n - g + 2):
                        u, v = parts[b], below[n - b]
                        if (u[1] or u[2]) and (v[1] or v[2]):
                            pairs.append((u, v))
                got.append(_piece(pairs) if pairs else _ZERO)
        return powers[e][m]


def jet_derive(a: Jet2, var: str) -> Jet2:
    """Formal partial derivative; valid_through decreases by one."""
    return _jet(a.mode, *_zderive(a, var))


def _zderive(a: Jet2, var: str) -> tuple:
    """The partial derivative of *a* as a stored (den, re, im, valid)
    numerator over a's den, not reduced (see jet_derive)."""
    if a.valid_through != INF and a.valid_through < 1:
        raise PrecisionExhausted("jet_derive: valid_through would drop below 0")
    valid = a.valid_through if a.valid_through == INF else a.valid_through - 1
    # a nonzero term times its exponent stays nonzero, in both modes
    if var == "x":
        def part(terms):
            return {(i - 1, j): v * i for (i, j), v in terms.items() if i}
    elif var == "y":
        def part(terms):
            return {(i, j - 1): v * j for (i, j), v in terms.items() if j}
    else:
        raise BadParams(f"unknown variable {var!r}")
    return a.den, part(a.re), part(a.im), valid


def laurent_residue(h: Jet1) -> Scalar:
    """Residue at 0 of the 1-form dz/h(z).

    With r = ord(h), 1/h = z^(-r) / (h/z^r) and the residue is the degree
    r-1 coefficient of the reciprocal of the unit part.
    """
    r = h.order()
    if r == INF:
        raise PrecisionExhausted("laurent_residue of the zero jet")
    r = int(r)
    if r == 0:
        return scalars.zero(h.mode)
    if h.valid_through != INF and h.valid_through < 2 * r - 1:
        raise PrecisionExhausted(
            f"need unit part of h to degree {r - 1}; valid_through {h.valid_through}"
        )
    inv = jet_reciprocal(h.jet.divide_monomial(r, 0).truncate(r - 1))
    if r - 1 > inv.valid_through:
        raise PrecisionExhausted("reciprocal not determined to degree order-1")
    return inv.coeff(r - 1, 0)


def series_ode_solve(theta: Jet2, degree: int) -> Jet2:
    """Unique series solution of du/dx = theta(x, u), u(0, y) = y.

    Graded Picard iteration on u = y + integral_0^x theta(t, u) dt.  The
    integral raises the degree by one, so an iterate right through degree
    d - 1 gives one right through d, and pass d = 1 .. *degree* composes
    theta with x and u, u known through d - 1, so only through degree
    d - 1.  The solve keeps u as its homogeneous parts, in both modes:
    pass d hands the parts of degree d - 1 of x and u to one
    RelaxedComposition, takes back the part of degree d - 1 of
    theta(x, u) and integrates it into the part of degree d of u; one
    Jet2 is built at the end.  Only the integral depends on the mode.  The
    result is valid through *degree*, with residual du/dx - theta(x, u)
    zero through degree - 1.
    """
    if theta.valid_through < degree:
        raise PrecisionExhausted(
            f"theta known to degree {theta.valid_through} < requested {degree}"
        )
    mode = theta.mode
    state = RelaxedComposition()
    one = 1 if mode == EXACT else 1 + 0j
    x_1 = (1, {1: one}, {})         # the part of degree 1 of x; x has no other
    u_parts = [_ZERO]
    for d in range(1, degree + 1):
        den, re, im = jet_compose2(theta, x_1 if d == 2 else _ZERO, u_parts[d - 1], state, 0,
                                   d - 1, d - 1)
        # the integral in x of the term x^i y^(d-1-i) has the key i + 1: exact
        # numerators go over den * lcm, float coefficients are divided by i + 1
        if mode == EXACT:
            lcm = math.lcm(*[i + 1 for i in (re.keys() | im.keys() if im else re)])
            den *= lcm
            re, im = ({i + 1: v * (lcm // (i + 1)) for i, v in t.items()} for t in (re, im))
        else:
            re = {i + 1: v / (i + 1) for i, v in re.items()}
        if d == 1:                  # u = y + ...
            re = {0: den * one, **re}
        u_parts.append(_part(den, re, im))
    return _from_parts(mode, u_parts[:max(degree + 1, 0)], degree)


# ---------------------------------------------------------------------------
# graded-lex exact division (quotients in the series ring)
# ---------------------------------------------------------------------------

DIVISIBLE = "divisible"
NOT_DIVISIBLE = "not-divisible"
UNKNOWN = "unknown"


def _glex_key(key: Tuple[int, int]):
    i, j = key
    return (i + j, j)


def exact_divide(num: Jet2, den: Jet2) -> Tuple[str, Optional[Jet2]]:
    """Greedy division num / den under the graded-lex order.

    Returns (status, quotient): DIVISIBLE with the quotient to the precision
    both operands support, NOT_DIVISIBLE when a determined coefficient
    obstructs, UNKNOWN when precision is exhausted before anything resolves.
    Truncated inputs are divided in the series ring to available precision;
    two exact polynomials are divided in the polynomial ring (an infinite
    series quotient reports NOT_DIVISIBLE).  Soundness rests on graded-lex
    being a monomial order: the minimal monomial of Q*D is the product of
    the minimal monomials.

    The next remainder term comes from a heap of graded-lex keys (Monagan
    & Pearce, J. Symb. Comput. 46, 2011), not from a scan of the remainder.
    The pivot is the least term of den, so every key a step adds lies above
    the key it divides: a key is pushed when it enters the remainder, and a
    popped key that has cancelled since is skipped.  The remainder keeps
    its scalars, each over its own denominator: a quotient by a non-unit
    pivot has growing denominators (1/(2 - x) = sum x^k / 2^(k+1)), and one
    common denominator would cost a gcd over the whole remainder per step.
    """
    scalars.check_same_mode(num.mode, den.mode)
    if den.is_zero():
        raise ZeroDenominator("exact_divide by zero jet")
    if num.is_zero():
        return DIVISIBLE, Jet2.zero(num.mode, num.valid_through)
    terms = den.coeffs
    pivot = min(terms, key=_glex_key)
    pi, pj = pivot
    pdeg = pi + pj
    pval = terms[pivot]
    others = [(k, v) for k, v in terms.items() if k != pivot]
    q_valid = min(num.valid_through, den.valid_through)
    if q_valid != INF:
        q_valid -= pdeg
        if q_valid < 0:
            return UNKNOWN, None
    polynomial_inputs = q_valid == INF
    if polynomial_inputs:
        # a genuine polynomial quotient has degree deg(num) - pdeg, so any
        # remainder beyond deg(num) signals an infinite-series tail
        limit = num.degree_bound()
    else:
        limit = q_valid + pdeg  # determined region of the remainder
    rem = dict(num.coeffs)
    heap = [(i + j, j) for i, j in rem]      # _glex_key of each remainder key
    heapq.heapify(heap)
    quot: Dict[Tuple[int, int], Scalar] = {}
    z = scalars.zero(num.mode)
    while heap:
        d, j = heapq.heappop(heap)
        key = (d - j, j)
        if key not in rem:
            continue                # cancelled after it was pushed
        if d > limit:
            if polynomial_inputs:
                return NOT_DIVISIBLE, None
            break  # tail beyond determination: divisible to available precision
        qi, qj = key[0] - pi, j - pj
        if qi < 0 or qj < 0:
            return NOT_DIVISIBLE, None
        # the pivot term cancels by construction; a float remainder would
        # leave a rounding residue there and pick the same key for ever
        c = rem.pop(key) / pval
        quot[qi, qj] = c
        for (di, dj), dv in others:
            rkey = (qi + di, qj + dj)
            if not polynomial_inputs and rkey[0] + rkey[1] > limit:
                continue
            nv = rem.get(rkey, z) - c * dv
            if not nv:
                rem.pop(rkey, None)
            else:
                if rkey not in rem:
                    heapq.heappush(heap, (rkey[0] + rkey[1], rkey[1]))
                rem[rkey] = nv
    return DIVISIBLE, Jet2(num.mode, quot, q_valid)
