"""Martinet-Ramis formal normal forms, resonance analysis, linearization.

The formal family is the dual field of the 1-form
ny[1+(lambda-1)w^p] dx + mx[1+lambda w^p] dy with w = x^n y^m; the
contraction of the form against the constructed field vanishes identically
and is verified at construction.  Linearization is the standard
degree-by-degree elimination: a monomial x^k1 y^k2 on dx (resp. dy) is
resonant exactly when k1 m - k2 n = m (resp. -n), so the homological
denominators vanish only there.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from math import gcd
from typing import List, Optional, Tuple

from . import scalars, series
from .errors import BadParams, ModeMismatch, StepFailure
from .germ import CoordinateChange, VectorFieldGerm, linear_part, pullback
from .numflow import eval_poly, periodic_trapezoid
from .scalars import EXACT, FLOAT, GaussianRational
from .series import INF, Jet1, Jet2, jet_mul, jet_pow


@dataclass
class MRFormalForm:
    m: int
    n: int
    p: int
    lam: object  # GaussianRational in exact mode, complex in float mode

    def __post_init__(self):
        if self.m < 1 or self.n < 1 or self.p < 1:
            raise BadParams("Martinet-Ramis data requires m, n, p >= 1")


def mr_formal_vf(form: MRFormalForm, mode=EXACT, degree: Optional[int] = None
                 ) -> VectorFieldGerm:
    """Dual vector field mx[1+lam w^p] dx - ny[1+(lam-1) w^p] dy, w = x^n y^m."""
    degree = degree if degree is not None else series.DEFAULT_DEGREE
    lam = scalars.coerce(form.lam, mode)
    x = Jet2.variable("x", mode, INF)
    y = Jet2.variable("y", mode, INF)
    wp = jet_pow(jet_mul(jet_pow(x, form.n), jet_pow(y, form.m)), form.p)
    one = Jet2.const(1, mode, INF)
    a = jet_mul(x.scale(form.m), one + wp.scale(lam))
    b = -jet_mul(y.scale(form.n), one + wp.scale(lam - scalars.one(mode)))
    vf = VectorFieldGerm(a, b).truncate(degree)
    residue = contract_mr_form(form, vf, mode)
    if not residue.is_zero(0.0 if mode == EXACT else 1e-12):
        raise AssertionError("MR contraction identity violated at construction")
    return vf


def mr_one_form(form: MRFormalForm, mode=EXACT) -> Tuple[Jet2, Jet2]:
    """(dx-coefficient, dy-coefficient) of the defining 1-form."""
    lam = scalars.coerce(form.lam, mode)
    x = Jet2.variable("x", mode, INF)
    y = Jet2.variable("y", mode, INF)
    wp = jet_pow(jet_mul(jet_pow(x, form.n), jet_pow(y, form.m)), form.p)
    one = Jet2.const(1, mode, INF)
    coeff_dx = jet_mul(y.scale(form.n), one + wp.scale(lam - scalars.one(mode)))
    coeff_dy = jet_mul(x.scale(form.m), one + wp.scale(lam))
    return coeff_dx, coeff_dy


def contract_mr_form(form: MRFormalForm, vf: VectorFieldGerm, mode=EXACT) -> Jet2:
    coeff_dx, coeff_dy = mr_one_form(form, mode)
    return jet_mul(coeff_dx.truncate(vf.valid_through), vf.a) + \
        jet_mul(coeff_dy.truncate(vf.valid_through), vf.b)


def holonomy_model(m: int, p: int, lam: complex, degree: Optional[int] = None) -> Jet1:
    """1-D field 2*pi*i z^(mp+1) / (1 + lam z^(mp)) as a float Jet1."""
    degree = degree if degree is not None else series.DEFAULT_DEGREE
    if m < 1 or p < 1:
        raise BadParams("holonomy model requires m, p >= 1")
    two_pi_i = 2j * math.pi
    out = {}
    k = m * p + 1
    coef = two_pi_i
    lam_c = complex(lam)
    j = 0
    while k + j * m * p <= degree:
        out[k + j * m * p] = coef
        coef *= -lam_c
        j += 1
        if lam_c == 0:
            break
    return Jet1(FLOAT, out, degree)


@dataclass
class ResonanceData:
    m: int
    n: int
    degree: int
    dx_monomials: List[Tuple[int, int]]
    dy_monomials: List[Tuple[int, int]]


def resonant_monomials(m: int, n: int, degree: int) -> ResonanceData:
    """All resonant monomials of total degree <= degree (k >= 1 steps).

    Solutions of the eigenvalue relation are x*(x^n y^m)^(k/g) on dx and
    y*(x^n y^m)^(k/g) on dy with g = gcd(m, n).
    """
    if m < 1 or n < 1:
        raise BadParams("resonance data requires m, n >= 1")
    g = gcd(m, n)
    sn, sm = n // g, m // g
    dx = []
    dy = []
    k = 1
    while 1 + k * (sn + sm) <= degree:
        dx.append((1 + k * sn, k * sm))
        dy.append((k * sn, 1 + k * sm))
        k += 1
    return ResonanceData(m, n, degree, dx, dy)


@dataclass
class LinearizationResult:
    change: CoordinateChange      # (new) -> (old), pullback(X, change) = normal form
    linearized: VectorFieldGerm   # linear part plus surviving resonant terms
    obstruction: Optional[Tuple[int, int, str]]


def linearize(x: VectorFieldGerm, degree: Optional[int] = None) -> LinearizationResult:
    """Degree-by-degree normalization of a field with linear part diag(m, -n).

    Non-resonant monomials are removed by the homological equation; the
    first resonant monomial met with a nonzero coefficient is reported as
    the obstruction while elimination of non-resonant terms continues.
    With no obstruction, pullback(X, change) equals the linear model to
    degree - 1.
    """
    degree = degree if degree is not None else series.DEFAULT_DEGREE
    mode = x.mode
    if mode != EXACT:
        raise ModeMismatch("linearize operates in exact mode")
    lin = linear_part(x)
    m_s = lin.matrix[0][0]
    n_s = lin.matrix[1][1]
    off_diag_zero = scalars.is_zero_scalar(lin.matrix[0][1], mode) and \
        scalars.is_zero_scalar(lin.matrix[1][0], mode)
    m = _positive_int(m_s)
    n = _positive_int(-n_s)
    if not off_diag_zero or m is None or n is None:
        raise BadParams("linearize requires linear part exactly diag(m, -n), m, n >= 1")
    current = x.truncate(degree)
    change: Optional[CoordinateChange] = None
    obstruction: Optional[Tuple[int, int, str]] = None
    xv = Jet2.variable("x", mode, degree)
    yv = Jet2.variable("y", mode, degree)
    for d in range(2, degree + 1):
        pa = current.a.homogeneous_part(d)
        pb = current.b.homogeneous_part(d)
        if pa.is_zero() and pb.is_zero():
            continue
        h1 = {}
        h2 = {}
        for (i, j), v in pa.coeffs.items():
            gap = i * m - j * n - m
            if gap == 0:
                if obstruction is None:
                    obstruction = (i, j, "x")
                continue
            h1[(i, j)] = v / scalars.coerce(gap, mode)
        for (i, j), v in pb.coeffs.items():
            gap = i * m - j * n + n
            if gap == 0:
                if obstruction is None:
                    obstruction = (i, j, "y")
                continue
            h2[(i, j)] = v / scalars.coerce(gap, mode)
        if not h1 and not h2:
            continue
        step = CoordinateChange.from_series(
            xv + Jet2(mode, h1, degree), yv + Jet2(mode, h2, degree)
        )
        current = pullback(current, step).truncate(degree)
        change = step if change is None else change.compose(step)
    if change is None:
        change = CoordinateChange.from_series(xv, yv)
    return LinearizationResult(change, current, obstruction)


def _positive_int(value) -> Optional[int]:
    if isinstance(value, GaussianRational):
        if value.im != 0 or value.re.denominator != 1:
            return None
        i = int(value.re)
        return i if i >= 1 else None
    return None


def mr_leaf_period(k: int, f_unit: Jet2, m: int, n: int,
                   seed: Tuple[complex, complex], t0: complex = 0.0,
                   tol: float = 1e-12, max_doublings: int = 18) -> complex:
    """Leaf period of (x^n y^m)^k f(x,y) [mx dx - ny dy] through a seed.

    On the leaf T -> (x0 e^(mT), y0 e^(-nT)) the time form is
    dT / [(x0^n y0^m)^k f(x0 e^(mT), y0 e^(-nT))]; the period integrates it
    over the vertical segment T0 -> T0 + 2*pi*i.  The integrand is periodic
    in the segment parameter, so the trapezoid rule converges spectrally.
    """
    terms = list(f_unit.to_float().coeffs.items())
    x0, y0 = complex(seed[0]), complex(seed[1])
    c = (x0 ** n) * (y0 ** m)
    if c == 0:
        raise StepFailure("seed lies on an invariant axis")
    base = c ** k

    def integrand(s: float) -> complex:
        t = t0 + 2j * math.pi * s
        xx = x0 * cmath.exp(m * t)
        yy = y0 * cmath.exp(-n * t)
        f_val = eval_poly(terms, xx, yy)
        if f_val == 0:
            raise StepFailure("unit factor vanished along the leaf segment")
        return 1.0 / (base * f_val)

    total = periodic_trapezoid(integrand, 16, tol, max_doublings)
    return 2j * math.pi * total
