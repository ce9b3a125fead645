"""Martinet-Ramis formal normal forms, linearization, leaf periods.

The formal family is the dual field of the 1-form
ny[1+(lambda-1)w^p] dx + mx[1+lambda w^p] dy with w = x^n y^m; the
contraction of the form against the constructed field vanishes identically
and is verified at construction.  Linearization of X = L + N with
L = diag(m, -n) solves the conjugacy equation Dphi . Y = X o phi in one
graded pass over the degrees (the direct format of normal-form
computation; Murdock, Normal Forms and Unfoldings for Local Dynamical
Systems, ch. 3).  A monomial x^k1 y^k2 on dx (resp. dy) is resonant exactly
when its gap k1 m - k2 n - m (resp. k1 m - k2 n + n) vanishes.  The
normalization is that phi - id has no resonant monomial and Y - L only
resonant ones, which makes phi and Y unique.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional, Tuple

from . import scalars, series
from .errors import BadParams, ModeMismatch, StepFailure
from .germ import CoordinateChange, VectorFieldGerm, linear_part
from .numflow import eval_poly, periodic_trapezoid
from .scalars import EXACT, FLOAT
from .series import INF, Jet1, Jet2, jet_derive, jet_mul, jet_pow


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
    coeff_dx, coeff_dy = mr_one_form(form, mode)
    vf = VectorFieldGerm(coeff_dy, -coeff_dx).truncate(degree)
    # the contraction coeff_dx * A + coeff_dy * B of the form with the field
    valid = vf.valid_through
    residue = jet_mul(coeff_dx.truncate(valid), vf.a) + jet_mul(coeff_dy.truncate(valid), vf.b)
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
class LinearizationResult:
    change: CoordinateChange      # phi: (new) -> (old); phi - id has no resonant monomial
    linearized: VectorFieldGerm   # pullback(X, phi) = L + R, R only resonant monomials
    obstruction: Optional[Tuple[int, int, str]]   # first term (i, j, "x" or "y") of R


def linearize(x: VectorFieldGerm, degree: Optional[int] = None) -> LinearizationResult:
    """Normal form of X = L + N, L = diag(m, -n), by one graded solve.

    Solves Dphi . Y = X o phi for phi = id + h and Y = L + R, with no
    resonant monomial in h and only resonant ones in R.  Its degree-d part
    is gap h_d + R_d = (N o phi - Dh . R)_d, and the right side needs h and
    R below degree d only: pass d = 2 .. top composes N and phi through
    degree d, as CoordinateChange.inverse does its Picard passes, and puts
    each degree-d term v into h_d as v / gap, or into R_d as v when
    gap = 0.  The passes share one series.RelaxedComposition, so pass d
    computes only degree d of N o phi: N has no term below degree 2, and
    its degree-d part reads phi below degree d only.  Likewise (Dh . R)_d
    is the sum over e of Dh_(d-e+1) . R_e, from the parts of h and R kept
    by degree.  The first resonant term met, by degree with dx first, is the
    obstruction.  change and linearized are valid through
    top = min(degree, X.valid_through), and pullback(X, change) =
    linearized there; with no obstruction, linearized = L through top.
    Raises ModeMismatch for a float field, and BadParams unless X(0) = 0
    and the linear part is diag(m, -n) with integers m, n >= 1.
    """
    degree = degree if degree is not None else series.DEFAULT_DEGREE
    mode = x.mode
    if mode != EXACT:
        raise ModeMismatch("linearize operates in exact mode")
    lin = linear_part(x)
    m = _positive_int(lin.matrix[0][0])
    n = _positive_int(-lin.matrix[1][1])
    if m is None or n is None or x.order() < 1 or not (
            scalars.is_zero_scalar(lin.matrix[0][1], mode)
            and scalars.is_zero_scalar(lin.matrix[1][0], mode)):
        raise BadParams("linearize requires X(0) = 0 and linear part exactly diag(m, -n), "
                        "m, n >= 1")
    top = min(degree, x.valid_through)
    xv = Jet2.variable("x", mode, INF)
    yv = Jet2.variable("y", mode, INF)
    lin_a, lin_b = xv.scale(m), yv.scale(-n)
    n1, n2 = (x.a - lin_a).truncate(top), (x.b - lin_b).truncate(top)
    # the components of phi and of R, each right through degree d - 1 before pass d
    phi = [xv.truncate(min(top, 1)), yv.truncate(min(top, 1))]
    res = [Jet2.zero(mode, min(top, 1))] * 2
    obstruction: Optional[Tuple[int, int, str]] = None
    state, outer = series.RelaxedComposition(), CoordinateChange.from_series(n1, n2)
    # the parts h_e of h and the nonzero parts R_e of R, by degree
    h_parts: Tuple[dict, dict] = ({}, {})
    r_parts: dict = {}
    for d in range(2, top + 1):
        phi = [series._known_through(c, d) for c in phi]
        rhs = outer.compose(CoordinateChange.from_series(*phi), state)
        rhs = [rhs.comp1.homogeneous_part(d), rhs.comp2.homogeneous_part(d)]
        # (Dh . R)_d = sum over e of Dh_(d-e+1) . R_e
        for e, r in r_parts.items():
            for k in (0, 1):
                h = h_parts[k].get(d - e + 1)
                if h is not None:
                    for var, name in ((0, "x"), (1, "y")):
                        if r[var] is not None:
                            rhs[k] = rhs[k] - jet_mul(jet_derive(h, name), r[var])
        res = [series._known_through(c, d) for c in res]
        r_new: list = [None, None]
        for k, shift, name in ((0, -m, "x"), (1, n, "y")):
            h_d, r_d = {}, {}
            for (i, j), c in rhs[k].coeffs.items():
                gap = i * m - j * n + shift
                if gap:
                    h_d[(i, j)] = c / gap
                else:
                    r_d[(i, j)] = c
                    if obstruction is None:
                        obstruction = (i, j, name)
            if h_d:
                h_parts[k][d] = Jet2(mode, h_d, INF)
                phi[k] = phi[k] + h_parts[k][d]
            if r_d:
                r_new[k] = Jet2(mode, r_d, INF)
                res[k] = res[k] + r_new[k]
        if r_new[0] is not None or r_new[1] is not None:
            r_parts[d] = r_new
    linearized = VectorFieldGerm(lin_a + res[0], lin_b + res[1])
    return LinearizationResult(CoordinateChange.from_series(*phi), linearized, obstruction)


def _positive_int(value) -> Optional[int]:
    rat = scalars.as_rational(value)
    return int(rat) if rat is not None and rat.denominator == 1 and rat >= 1 else None


def mr_leaf_period(k: int, f_unit: Jet2, m: int, n: int,
                   seed: Tuple[complex, complex]) -> complex:
    """Leaf period of (x^n y^m)^k f(x,y) [mx dx - ny dy] through a seed.

    On the leaf T -> (x0 e^(mT), y0 e^(-nT)) the time form is
    dT / [(x0^n y0^m)^k f(x0 e^(mT), y0 e^(-nT))]; the period integrates it
    over the vertical segment T = 0 -> 2*pi*i, which starts at the seed.
    The integrand is periodic in the segment parameter, so the trapezoid
    rule converges spectrally: from 16 nodes, doubling at most 18 times
    until two sums agree to 1e-12.
    """
    terms = list(f_unit.to_float().coeffs.items())
    x0, y0 = complex(seed[0]), complex(seed[1])
    c = (x0 ** n) * (y0 ** m)
    if c == 0:
        raise StepFailure("seed lies on an invariant axis")
    base = c ** k

    def integrand(s: float) -> complex:
        t = 2j * math.pi * s
        xx = x0 * cmath.exp(m * t)
        yy = y0 * cmath.exp(-n * t)
        f_val = eval_poly(terms, xx, yy)
        if f_val == 0:
            raise StepFailure("unit factor vanished along the leaf segment")
        return 1.0 / (base * f_val)

    total = periodic_trapezoid(integrand, 16, 1e-12, 18)
    return 2j * math.pi * total
