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
from .series import _ONE, _ZERO, INF, Jet1, Jet2, jet_mul, jet_pow


@dataclass
class MRFormalForm:
    m: int
    n: int
    p: int
    lam: object  # GaussianRational in exact mode, complex in float mode

    def __post_init__(self):
        # bounded as catalog parameters are: a float power of a single term
        # takes e products (n = 10^7 took 3.5 s)
        if not all(1 <= k <= series.MAX_DEGREE for k in (self.m, self.n, self.p)):
            raise BadParams(f"Martinet-Ramis data requires 1 <= m, n, p <= {series.MAX_DEGREE}")
        if isinstance(self.lam, (float, complex)) and not cmath.isfinite(self.lam):
            raise BadParams(f"Martinet-Ramis lambda must be finite, not {self.lam}")


def mr_formal_vf(form: MRFormalForm, mode=EXACT, degree: Optional[int] = None
                 ) -> VectorFieldGerm:
    """Dual vector field mx[1+lam w^p] dx - ny[1+(lam-1) w^p] dy, w = x^n y^m."""
    degree = degree if degree is not None else series.DEFAULT_DEGREE
    coeff_dx, coeff_dy = mr_one_form(form, mode)
    vf = VectorFieldGerm(coeff_dy, -coeff_dx).truncate(degree)
    # the contraction coeff_dx * A + coeff_dy * B of the form with the field
    valid = vf.valid_through
    residue = jet_mul(coeff_dx.truncate(valid), vf.a) + jet_mul(coeff_dy.truncate(valid), vf.b)
    if mode == FLOAT and not all(map(cmath.isfinite, residue.re.values())):
        raise BadParams(f"Martinet-Ramis lambda {form.lam} overflows the float contraction "
                        "of the form with the field")
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
    R below degree d only: pass d = 2 .. top hands the parts of degree
    d - 1 of phi to one series.RelaxedComposition (through
    CoordinateChange.compose) and takes back the parts of degree d of
    N o phi, as CoordinateChange.inverse does its Picard passes: N has no
    term below degree 2, so its degree-d part reads phi below degree d
    only.  (Dh . R)_d is the sum over e of Dh_(d-e+1) . R_e, formed on the
    parts of h and R kept by degree.  Each degree-d numerator v goes into
    h_d as v / gap, the gap dividing the part's integer denominator, or
    into R_d as v when gap = 0.  The first resonant term met, by degree
    with dx first, is the obstruction.  One Jet2 per component of phi and
    of R is built at the end.  change and linearized are valid through
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
    if m is None or n is None or x.order() < 1 or lin.matrix[0][1] or lin.matrix[1][0]:
        raise BadParams("linearize requires X(0) = 0 and linear part exactly diag(m, -n), "
                        "m, n >= 1")
    top = min(degree, x.valid_through)
    xv = Jet2.variable("x", mode, INF)
    yv = Jet2.variable("y", mode, INF)
    lin_a, lin_b = xv.scale(m), yv.scale(-n)
    n1, n2 = (x.a - lin_a).truncate(top), (x.b - lin_b).truncate(top)
    obstruction: Optional[Tuple[int, int, str]] = None
    state, outer = series.RelaxedComposition(), CoordinateChange.from_series(n1, n2)
    # phi and R by degree: phi_1 = id, and phi_d = h_d for d >= 2
    phi = (series._split(xv, 1), series._split(yv, 1))
    res = ([_ZERO, _ZERO], [_ZERO, _ZERO])
    for d in range(2, top + 1):
        rhs = outer.compose((phi[0][d - 1], phi[1][d - 1]), state, d - 1, d)
        for k, shift, name in ((0, -m, "x"), (1, n, "y")):
            # (N o phi - Dh . R)_d, with (Dh . R)_d = sum over e of Dh_(d-e+1) . R_e
            pairs = [(rhs[k], _ONE)]
            for e in range(2, d):
                h = phi[k][d - e + 1]
                if h is not _ZERO:
                    pairs += [(_minus_derivative(h, d - e + 1, var), res[var][e])
                              for var in (0, 1) if res[var][e] is not _ZERO]
            den, re, im = series._piece(pairs) if len(pairs) > 1 else rhs[k]
            gaps = {i: i * m - (d - i) * n + shift for i in (re.keys() | im.keys() if im else re)}
            scale = math.lcm(*[abs(g) for g in gaps.values() if g])
            h_re, h_im, r_re, r_im = {}, {}, {}, {}
            for nums, h_nums, r_nums in ((re, h_re, r_re), (im, h_im, r_im)):
                for i, v in nums.items():
                    if gaps[i]:
                        h_nums[i] = v * (scale // gaps[i])
                    else:
                        r_nums[i] = v
                        if obstruction is None:
                            obstruction = (i, d - i, name)
            phi[k].append(series._part(den * scale, h_re, h_im))
            res[k].append(series._part(den, r_re, r_im))
    cut = max(top + 1, 0)
    change = CoordinateChange.from_series(*(series._from_parts(mode, c[:cut], top) for c in phi))
    r1, r2 = (series._from_parts(mode, c[:cut], top) for c in res)
    return LinearizationResult(change, VectorFieldGerm(lin_a + r1, lin_b + r2), obstruction)


def _minus_derivative(h: tuple, a: int, var: int) -> tuple:
    """-dh/dx (var 0) or -dh/dy (var 1) of the part h of degree a, as a part
    of degree a - 1 over h's denominator (not reduced)."""
    den, re, im = h
    if var == 0:        # x^i y^(a-i) -> i x^(i-1) y^(a-i)
        return den, {i - 1: -i * v for i, v in re.items() if i}, \
            {i - 1: -i * v for i, v in im.items() if i}
    return den, {i: (i - a) * v for i, v in re.items() if i != a}, \
        {i: (i - a) * v for i, v in im.items() if i != a}


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
