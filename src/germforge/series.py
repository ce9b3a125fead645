"""Truncated power series in one and two variables with precision tracking.

A jet stores the coefficients of total degree <= valid_through and nothing
beyond: every operation computes the tightest conservative valid_through
(product rule min(av + ord b, bv + ord a), derivative loses one degree,
composition takes the min over contributing chains) and never reports a
coefficient it cannot guarantee.  Polynomials known exactly carry
valid_through = INF.  Zero jets have order INF.

All values are immutable after construction; operations are pure functions.

One kernel.  Every coefficient computation lives in the Jet2 operations of
this module (jet_mul, jet_derive, jet_reciprocal, jet_compose1,
jet_compose2, jet_pow and Jet2's sums and scalings).  Jet1 is a view, not
a second kernel: it stores int-keyed coefficients and answers queries, and
each of its operations embeds z -> x, runs the Jet2 operation and reads
the result back with restrict_y0().

One storage.  A Jet2 keeps its coefficients as numerators over one
denominator, as FLINT's fmpq_poly does: the coefficient of x^i y^j is
(re[i, j] + im[i, j] * i) / den, and re and im hold only nonzero terms of
degree <= valid_through.  Exact jets hold Python ints, and every operation
reduces den against the numerators, so den is the least common denominator
of the coefficients.  Float jets hold their complex coefficients in re,
with den = 1 and im empty.  The integer helpers (_zlin, _zsum, _zscaled,
_zmul_into, _gmul_into, _zproduct) therefore serve both modes, and exact
work builds no Fraction until a caller reads ``coeffs``: a read-only scalar
view that an exact jet builds on first read (re keys first, then the purely
imaginary ones) and caches, and that for a float jet is re itself.
"""

from __future__ import annotations

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
)
from .scalars import EXACT, FLOAT, GaussianRational, Scalar

INF = math.inf

DEFAULT_DEGREE = 16


def _as_scalar(value, mode):
    if mode == EXACT:
        return GaussianRational.from_value(value)
    if isinstance(value, GaussianRational):
        raise ModeMismatch("exact scalar used in float-mode jet")
    return complex(value)


class Jet1:
    """Truncated series in one variable z: a view of the Jet2 kernel.

    The coefficient of z^k is stored under the int key k.  Constructors and
    queries are Jet1's own; every operation lifts z -> x with _lift(), runs
    the Jet2 operation on its numerators and reads the result back with
    restrict_y0().
    """

    __slots__ = ("mode", "coeffs", "valid_through")

    def __init__(self, mode: str, coeffs: Dict[int, Scalar], valid_through):
        self.mode = mode
        cleaned = {}
        for k, v in coeffs.items():
            if k < 0:
                raise BadParams("Jet1 exponents must be >= 0")
            if k <= valid_through and not scalars.is_zero_scalar(v, mode):
                cleaned[k] = v
        self.coeffs = cleaned
        self.valid_through = valid_through

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
    def order(self):
        return min(self.coeffs) if self.coeffs else INF

    def coeff(self, k: int) -> Scalar:
        if k > self.valid_through:
            raise PrecisionExhausted(f"degree {k} beyond valid_through {self.valid_through}")
        return self.coeffs.get(k, scalars.zero(self.mode))

    def is_zero(self, tol: float = 0.0) -> bool:
        return all(scalars.is_zero_scalar(v, self.mode, tol) for v in self.coeffs.values())

    def is_polynomial(self) -> bool:
        return self.valid_through == INF

    def truncate(self, valid_through) -> "Jet1":
        return Jet1(self.mode, dict(self.coeffs), min(self.valid_through, valid_through))

    def degree_bound(self) -> int:
        return max(self.coeffs) if self.coeffs else 0

    # -- arithmetic: z -> x, the Jet2 kernel, then back ------------------------
    def _lift(self) -> "Jet2":
        return Jet2(self.mode, {(k, 0): v for k, v in self.coeffs.items()}, self.valid_through)

    def __add__(self, other: "Jet1") -> "Jet1":
        return (self._lift() + other._lift()).restrict_y0()

    def __neg__(self) -> "Jet1":
        return (-self._lift()).restrict_y0()

    def __sub__(self, other: "Jet1") -> "Jet1":
        return (self._lift() - other._lift()).restrict_y0()

    def __mul__(self, other: "Jet1") -> "Jet1":
        return jet_mul(self._lift(), other._lift()).restrict_y0()

    def scale(self, value) -> "Jet1":
        return self._lift().scale(value).restrict_y0()

    def derivative(self) -> "Jet1":
        return jet_derive(self._lift(), "x").restrict_y0()

    def reciprocal(self) -> "Jet1":
        return jet_reciprocal(self._lift()).restrict_y0()

    def compose(self, g: "Jet1") -> "Jet1":
        """self(g(z)) for g(0) = 0, or polynomial self."""
        return jet_compose1(self, g._lift()).restrict_y0()

    def to_float(self) -> "Jet1":
        return self._lift().to_float().restrict_y0()

    def equals(self, other: "Jet1", tol: float = 0.0) -> bool:
        scalars.check_same_mode(self.mode, other.mode)
        valid = min(self.valid_through, other.valid_through)
        keys = set(self.coeffs) | set(other.coeffs)
        z = scalars.zero(self.mode)
        for k in keys:
            if k > valid:
                continue
            d = self.coeffs.get(k, z) - other.coeffs.get(k, z)
            if not scalars.is_zero_scalar(d, self.mode, tol):
                return False
        return True

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
        for (i, j), v in coeffs.items():
            if i < 0 or j < 0:
                raise BadParams("Jet2 exponents must be >= 0")
            if i + j <= valid_through and not scalars.is_zero_scalar(v, mode):
                cleaned[(i, j)] = v
        self.mode = mode
        self.valid_through = valid_through
        self._view = cleaned
        if mode == FLOAT:
            self.den, self.re, self.im = 1, cleaned, {}
            return
        den = 1
        for v in cleaned.values():
            den = math.lcm(den, v.re.denominator, v.im.denominator)
        self.den = den
        self.re = {k: v.re.numerator * (den // v.re.denominator)
                   for k, v in cleaned.items() if v.re}
        self.im = {k: v.im.numerator * (den // v.im.denominator)
                   for k, v in cleaned.items() if v.im}

    @property
    def coeffs(self) -> Dict[Tuple[int, int], Scalar]:
        """The scalar coefficients, read-only (built on first read, then cached)."""
        view = self._view
        if view is None:
            den, im = self.den, self.im
            view = {k: GaussianRational(Fraction(v, den), Fraction(im[k], den) if k in im else _F0)
                    for k, v in self.re.items()}
            for k, v in im.items():
                if k not in view:
                    view[k] = GaussianRational(_F0, Fraction(v, den))
            self._view = view
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
        return self.re.keys() | self.im.keys() if self.im else self.re.keys()

    def order(self):
        return _zorder(self.re, self.im)

    def coeff(self, i: int, j: int) -> Scalar:
        if i + j > self.valid_through:
            raise PrecisionExhausted(
                f"degree {i + j} beyond valid_through {self.valid_through}"
            )
        return self.coeffs.get((i, j), scalars.zero(self.mode))

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

    def homogeneous_part(self, d: int) -> "Jet2":
        re = {k: v for k, v in self.re.items() if k[0] + k[1] == d}
        im = {k: v for k, v in self.im.items() if k[0] + k[1] == d}
        return _jet(self.mode, self.den, re, im, self.valid_through)

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
        return self + (-other)

    def __mul__(self, other: "Jet2") -> "Jet2":
        return jet_mul(self, other)

    def scale(self, value) -> "Jet2":
        if self.mode == FLOAT:
            cd, cr, ci = 1, _as_scalar(value, FLOAT), 0
        else:
            c = GaussianRational.from_value(value)
            cd = math.lcm(c.re.denominator, c.im.denominator)
            cr = c.re.numerator * (cd // c.re.denominator)
            ci = c.im.numerator * (cd // c.im.denominator)
        return _jet(self.mode, self.den * cd, *_zscaled(self.re, self.im, cr, ci),
                    self.valid_through)

    def derivative(self, var: str) -> "Jet2":
        return jet_derive(self, var)

    def reciprocal(self) -> "Jet2":
        return jet_reciprocal(self)

    def to_float(self) -> "Jet2":
        if self.mode == FLOAT:
            return self
        return Jet2(FLOAT, {k: v.to_complex() for k, v in self.coeffs.items()}, self.valid_through)

    def equals(self, other: "Jet2", tol: float = 0.0) -> bool:
        self._check(other)
        valid = min(self.valid_through, other.valid_through)
        keys = set(self.coeffs) | set(other.coeffs)
        z = scalars.zero(self.mode)
        for k in keys:
            if k[0] + k[1] > valid:
                continue
            d = self.coeffs.get(k, z) - other.coeffs.get(k, z)
            if not scalars.is_zero_scalar(d, self.mode, tol):
                return False
        return True

    def restrict_y0(self) -> Jet1:
        """The 1-variable jet self(x, 0)."""
        out = {i: v for (i, j), v in self.coeffs.items() if j == 0}
        return Jet1(self.mode, out, self.valid_through)

    def restrict_x0(self) -> Jet1:
        """The 1-variable jet self(0, y)."""
        out = {j: v for (i, j), v in self.coeffs.items() if i == 0}
        return Jet1(self.mode, out, self.valid_through)

    def antiderivative_x(self) -> "Jet2":
        """Term-wise integral in x with zero constant of integration."""
        valid = self.valid_through if self.valid_through == INF else self.valid_through + 1
        out = {}
        for (i, j), v in self.coeffs.items():
            out[(i + 1, j)] = v / _as_scalar(i + 1, self.mode)
        return Jet2(self.mode, out, valid)

    def divide_monomial(self, i: int, j: int) -> "Jet2":
        """Exact division by x^i y^j; raises NotDivisible when not divisible."""
        out = {}
        for (a, b), v in self.coeffs.items():
            if a < i or b < j:
                raise NotDivisible(f"not divisible by x^{i} y^{j}: term x^{a} y^{b}")
            out[(a - i, b - j)] = v
        valid = self.valid_through if self.valid_through == INF else self.valid_through - (i + j)
        return Jet2(self.mode, out, valid)

    def __repr__(self):
        terms = " + ".join(
            f"({v})*x^{i}*y^{j}" for (i, j), v in sorted(self.coeffs.items())
        )
        return f"Jet2[{terms or '0'}; valid<={self.valid_through}]"


# ---------------------------------------------------------------------------
# the numerator kernel
# ---------------------------------------------------------------------------

_F0 = Fraction(0)


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


def _nonzero(a: dict) -> dict:
    return {k: v for k, v in a.items() if v}


def _zorder(re: dict, im: dict):
    """The least total degree of the stored terms; INF when there are none."""
    if im:
        return min(map(sum, re.keys() | im.keys()))
    return min(map(sum, re), default=INF)


def _mul_valid(a_valid, a_order, b_valid, b_order):
    """valid_through of a product: min(av + ord b, bv + ord a), with ord INF
    for a zero jet.  The one home of the product rule: jet_mul, jet_pow and
    the expression evaluator of germforge.parser all call it."""
    return min(a_valid + b_order, b_valid + a_order)


def _zcut(a: Dict[Tuple[int, int], int], valid) -> Dict[Tuple[int, int], int]:
    return {k: v for k, v in a.items() if k[0] + k[1] <= valid}


def _zlin(a, s, b, t, valid) -> dict:
    """s*a + t*b over the terms of degree <= valid, zero sums dropped.

    A factor 1 multiplies nothing, so a float sum (both dens 1) adds the
    complex terms as they are, signed zeros included.
    """
    out = {k: v if s == 1 else v * s for k, v in a.items() if k[0] + k[1] <= valid} if s else {}
    if t:
        get = out.get
        for k, v in b.items():
            if k[0] + k[1] <= valid:
                out[k] = get(k, 0) + (v if t == 1 else v * t)
    return _nonzero(out)


def _zsum(d1: int, re1: dict, im1: dict, d2: int, re2: dict, im2: dict, valid):
    """(re1 + i*im1) / d1 + (re2 + i*im2) / d2 over the terms of degree <= valid,
    as (den, re, im) on the least common denominator (not reduced)."""
    g = math.gcd(d1, d2)
    s, t = d2 // g, d1 // g
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


def _zreciprocal(a: Jet2, valid, bound: int) -> Jet2:
    """Exact series inverse through degree *bound* (see jet_reciprocal)."""
    c_re, c_im = a.re.get((0, 0), 0), a.im.get((0, 0), 0)
    # a / a(0,0) = 1 + H / D with H = A * conj(A(0,0)) / g and D = |A(0,0)|^2 / g,
    # g the gcd of |A(0,0)|^2 and every component of A * conj(A(0,0))
    norm = c_re * c_re + c_im * c_im
    h_re: dict = {}
    h_im: dict = {}
    _gmul_into(h_re, h_im, {k: v for k, v in a.re.items() if k != (0, 0)},
               {k: v for k, v in a.im.items() if k != (0, 0)},
               {(0, 0): c_re}, {(0, 0): -c_im}, INF)
    h_re, h_im = _nonzero(h_re), _nonzero(h_im)
    g = math.gcd(norm, *h_re.values(), *h_im.values())
    base = norm // g
    # G_d = -D^(d-1) H_d grouped by degree d, so that B_s = sum_d G_d B_(s-d)
    by_degree: Dict[int, Tuple[dict, dict]] = {}
    for part, h in ((0, h_re), (1, h_im)):
        for (i, j), v in h.items():
            d = i + j
            by_degree.setdefault(d, ({}, {}))[part][(i, j)] = -(v // g) * base ** (d - 1)
    levels = {0: ({(0, 0): 1}, {})}
    for s in range(1, bound + 1):
        acc_re: dict = {}
        acc_im: dict = {}
        for d, (g_re, g_im) in by_degree.items():
            lower = levels.get(s - d)
            if lower is not None:
                _gmul_into(acc_re, acc_im, g_re, g_im, lower[0], lower[1], INF)
        acc_re, acc_im = _nonzero(acc_re), _nonzero(acc_im)
        if acc_re or acc_im:
            levels[s] = (acc_re, acc_im)
    # 1 / a(0,0) = U / norm with U = den(a) * conj(A(0,0)), so the degree-s
    # part is B_s U / (norm base^s); bring every level to norm base^top
    u_re, u_im = a.den * c_re, -a.den * c_im
    top = max(levels)
    re, im = {}, {}
    for s, (b_re, b_im) in levels.items():
        lift = base ** (top - s)
        for k in b_re.keys() | b_im.keys():
            br, bi = b_re.get(k, 0), b_im.get(k, 0)
            n_re, n_im = br * u_re - bi * u_im, br * u_im + bi * u_re
            if n_re:
                re[k] = n_re * lift
            if n_im:
                im[k] = n_im * lift
    return _jet(EXACT, norm * base ** top, re, im, valid)


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


def _zpow(mode: str, a: tuple, a_valid, e: int) -> tuple:
    """a^e for e >= 0 of a stored (den, re, im) triple known through a_valid,
    as (den, re, im, valid), not reduced.

    e products starting from the constant 1, each cut at the valid_through
    _mul_valid gives it.  A single term c x^i y^j goes straight to
    c^e x^(ie) y^(je): its numerator takes the products _zproduct would
    take, in the same order, so float powers are the product loop's bit for
    bit (the term is never cut, since i + j <= a_valid).
    """
    out, valid, order = _unit(mode), INF, 0
    a_order = _zorder(a[1], a[2])
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

    Exact mode divides by the constant term first: a / a(0,0) = 1 + H / D
    with Gaussian-integer H and integer D, so the degree-s part of the
    inverse is an integer numerator B_s over D^s, with
    B_s = -sum_{0<d<=s} D^(d-1) H_d B_(s-d).  Float mode runs the same
    degree-by-degree recurrence on complex coefficients.
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
    if a.mode == EXACT:
        return _zreciprocal(a, valid, bound)
    inv0 = scalars.one(a.mode) / a.re[(0, 0)]
    # degree-by-degree: b_s = -inv0 * sum_{0<d<=s} a_d b_{s-d}
    by_degree: Dict[int, dict] = {}
    for (i, j), v in a.re.items():
        if i + j > 0:
            by_degree.setdefault(i + j, {})[(i, j)] = v
    out = {(0, 0): inv0}
    levels = {0: out.copy()}
    for s in range(1, bound + 1):
        acc: dict = {}
        for d, terms in by_degree.items():
            if d <= s:
                _zmul_into(acc, terms, levels[s - d], INF)
        levels[s] = _nonzero({k: -inv0 * v for k, v in acc.items()})
        out.update(levels[s])
    return _jet(FLOAT, 1, out, {}, valid)


def _has_constant(g: Jet2) -> bool:
    return (0, 0) in g.re or (0, 0) in g.im


def _proper_valid(f, order, valid):
    """valid_through of f(g) for a truncated f and inner jets of *order*
    known through *valid*: f's tail contributes from degree
    (f.valid_through + 1) * order on.  A zero inner jet that is truncated
    is only known to vanish through *valid*, so its order counts as
    valid + 1; only exact zero inner jets give INF.
    """
    order = min(order, valid + 1)
    if order == INF:
        return INF
    return min(valid, (f.valid_through + 1) * order - 1)


def _unit(mode: str) -> tuple:
    """The constant 1 as a stored (den, re, im) triple, as Jet2.const(1) stores it."""
    return 1, {(0, 0): 1 if mode == EXACT else 1 + 0j}, {}


def jet_compose1(f: Jet1, g: Jet2) -> Jet2:
    """f(g(x,y)) for g(0,0) = 0, or polynomial f at arbitrary g:
    sum_k f_k g^k, through the valid_through of the result.

    Runs on stored (den, re, im) numerators, not on Jet2 objects: each
    power g^k is cut at the result's valid_through as it is made (so its
    terms beyond it are never formed) and reduced, each partial sum is
    reduced, and one Jet2 is built at the end.  Float jets are den 1 with
    im empty, and every step does the scalar loop's operations in its
    order, so float results are its results bit for bit.
    """
    scalars.check_same_mode(f.mode, g.mode)
    if _has_constant(g) and not f.is_polynomial():
        raise CompositionAtNonzeroPoint("jet_compose1: g(0,0) != 0 for a proper jet f")
    valid = g.valid_through
    if not f.is_polynomial():
        valid = _proper_valid(f, g.order(), valid)
    fz = f._lift()
    g_num = (g.den, g.re, g.im)
    acc = (1, {}, {})
    power = _unit(f.mode)
    top = f.degree_bound()
    for k in range(0, top + 1):
        if k in f.coeffs:
            key = (k, 0)
            acc = _reduced(*_zsum(*acc, power[0] * fz.den,
                                  *_zscaled(power[1], power[2], fz.re.get(key, 0),
                                            fz.im.get(key, 0)), valid))
        if k < top:
            power = _reduced(*_zproduct(power, g_num, valid))
            if not power[1] and not power[2]:
                break
    return _jet(f.mode, *acc, valid)


def jet_compose2(f: Jet2, p: Jet2, q: Jet2) -> Jet2:
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
    """
    scalars.check_same_mode(f.mode, p.mode, q.mode)
    if (_has_constant(p) or _has_constant(q)) and not f.is_polynomial():
        raise CompositionAtNonzeroPoint("jet_compose2 at nonzero point")
    valid = min(p.valid_through, q.valid_through)
    if not f.is_polynomial():
        valid = _proper_valid(f, min(p.order(), q.order()), valid)
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


def _known_through(jet: Jet2, d: int) -> Jet2:
    """The terms of *jet* of degree <= d, with valid_through set to d.

    The only place that raises a claimed valid_through (Jet2.truncate can
    only lower it).  The caller vouches that the result is right through d
    wherever it is read: the graded Picard passes of
    germ.CoordinateChange.inverse know this from the degree of the pass.
    """
    return _jet(jet.mode, jet.den, _zcut(jet.re, d), _zcut(jet.im, d), d)


def jet_derive(a: Jet2, var: str) -> Jet2:
    """Formal partial derivative; valid_through decreases by one."""
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
    return _jet(a.mode, a.den, part(a.re), part(a.im), valid)


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
    unit_valid = h.valid_through if h.valid_through == INF else h.valid_through - r
    unit = Jet1(h.mode, {k - r: v for k, v in h.coeffs.items()}, unit_valid)
    inv = unit.truncate(max(r - 1, 0)).reciprocal()
    if r - 1 > inv.valid_through:
        raise PrecisionExhausted("reciprocal not determined to degree order-1")
    return inv.coeff(r - 1)


def series_ode_solve(theta: Jet2, degree: int) -> Jet2:
    """Unique series solution of du/dx = theta(x, u), u(0, y) = y.

    Graded Picard iteration on u = y + integral_0^x theta(t, u) dt.  The
    integral raises the degree by one, so an iterate right through degree
    d - 1 gives one right through d, and pass d = 1 .. *degree* composes
    theta, x and u cut to degree d - 1 only.  The result is valid through
    *degree*, with residual du/dx - theta(x, u) zero through degree - 1.
    """
    if theta.valid_through < degree:
        raise PrecisionExhausted(
            f"theta known to degree {theta.valid_through} < requested {degree}"
        )
    mode = theta.mode
    x = Jet2.variable("x", mode, INF)
    y = Jet2.variable("y", mode, INF)
    # y is right through degree 0; after pass d, u is valid through d
    u = y.truncate(min(degree, 0))
    for d in range(1, degree + 1):
        rhs = jet_compose2(theta.truncate(d - 1), x.truncate(d - 1), u)
        u = y + rhs.antiderivative_x()
    return u


def ode_residual(theta: Jet2, u: Jet2, degree: int) -> Jet2:
    """du/dx - theta(x, u), truncated to degree - 1."""
    x = Jet2.variable("x", theta.mode, INF)
    lhs = jet_derive(u, "x")
    rhs = jet_compose2(theta.truncate(degree), x.truncate(degree), u.truncate(degree))
    return (lhs - rhs).truncate(degree - 1)


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
    """
    scalars.check_same_mode(num.mode, den.mode)
    if den.is_zero():
        raise ZeroDivisionError("exact_divide by zero jet")
    if num.is_zero():
        return DIVISIBLE, Jet2.zero(num.mode, num.valid_through)
    pivot = min(den.coeffs, key=_glex_key)
    pdeg = pivot[0] + pivot[1]
    pval = den.coeffs[pivot]
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
    quot: Dict[Tuple[int, int], Scalar] = {}
    z = scalars.zero(num.mode)
    while rem:
        key = min(rem, key=_glex_key)
        if key[0] + key[1] > limit:
            if polynomial_inputs:
                return NOT_DIVISIBLE, None
            break  # tail beyond determination: divisible to available precision
        i, j = key
        if i < pivot[0] or j < pivot[1]:
            return NOT_DIVISIBLE, None
        qkey = (i - pivot[0], j - pivot[1])
        # the pivot term cancels by construction; a float remainder would
        # leave a rounding residue there and pick the same key for ever
        c = rem.pop(key) / pval
        quot[qkey] = c
        for (di, dj), dv in den.coeffs.items():
            if (di, dj) == pivot:
                continue
            rkey = (qkey[0] + di, qkey[1] + dj)
            if not polynomial_inputs and rkey[0] + rkey[1] > limit:
                continue
            nv = rem.get(rkey, z) - c * dv
            if scalars.is_zero_scalar(nv, num.mode):
                rem.pop(rkey, None)
            else:
                rem[rkey] = nv
    return DIVISIBLE, Jet2(num.mode, quot, q_valid)
