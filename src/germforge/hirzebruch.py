"""Exact two-chart model of the Hirzebruch surface F_n and its two flows.

Chart 0 carries coordinates (x, y) and chart 1 carries (u, v); for x != 0
the identification is (u, v) = (1/x, y/x^n).  Fiber coordinates are stored
projectively, so v = infinity (in particular the common fixed point
p = {u = 0, v = infinity}) is a first-class point.  All arithmetic is exact
over Gaussian rationals; the two commuting flows are

    Phi^t (x, y) = (x + t, y + (x + t)^(n+1) - x^(n+1))
    Psi^s (x, y) = (x, y + s)

with the chart-1 expressions applied verbatim and a chart switch whenever
1 + t u = 0.

The flows, the chart transition and points_equal work on the stored ints
(den, re_num, im_num) of their GaussianRational inputs: each fiber shift
is one Horner sum on Gaussian integers (_binomial_sum), each power is
taken by squaring and multiplying, and each output coordinate is built
once with scalars.from_ints, so one gcd reduces it.  points_equal
cross-multiplies numerators and denominators and divides nothing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import List, Optional

from .errors import BadParams, OnExceptionalLocus
from .germ import CoordinateChange, VectorFieldGerm, pullback
from .scalars import EXACT, GaussianRational, from_ints, gaussian_pow
from .series import INF, Jet2, jet_pow

GR = GaussianRational
_gr = GR.from_value


@dataclass
class FnPoint:
    """Point of F_n in one chart; fiber stored as a ratio (num : den)."""

    n: int
    chart: int                 # 0: (x, y) chart, 1: (u, v) chart
    base: GR
    fiber_num: GR
    fiber_den: GR

    def __post_init__(self):
        if self.n < 0:
            raise BadParams("Hirzebruch index n must be >= 0")
        if self.chart not in (0, 1):
            raise BadParams("chart must be 0 or 1")
        if self.fiber_num.is_zero() and self.fiber_den.is_zero():
            raise BadParams("projective fiber coordinate (0 : 0) is illegal")

    @classmethod
    def make(cls, n: int, chart: int, base, fiber) -> "FnPoint":
        if fiber is None:
            return cls(n, chart, _gr(base), GR(1), GR(0))  # infinity
        return cls(n, chart, _gr(base), _gr(fiber), GR(1))


def fn_transition(p: FnPoint) -> FnPoint:
    """Same point in the other chart; requires base coordinate != 0."""
    bd, br, bi = p.base.den, p.base.re_num, p.base.im_num
    if not (br or bi):
        raise OnExceptionalLocus("transition undefined where the base coordinate is 0")
    # v = y/x^n and y = v/u^n: either way the fiber denominator picks up base^n
    pr, pi = gaussian_pow(br, bi, p.n)
    f = p.fiber_den
    return FnPoint(p.n, 1 - p.chart, from_ints(br * br + bi * bi, bd * br, -bd * bi),
                   p.fiber_num, from_ints(f.den * bd ** p.n, *_gmul(f.re_num, f.im_num, pr, pi)))


def points_equal(p: FnPoint, q: FnPoint) -> bool:
    if p.n != q.n:
        return False
    if p.chart != q.chart:
        if not q.base.is_zero():
            q = fn_transition(q)
        elif not p.base.is_zero():
            p = fn_transition(p)
        else:
            return False
    if p.base != q.base:
        return False
    # fiber_num_p * fiber_den_q == fiber_num_q * fiber_den_p on the stored
    # ints: (A/a)(B/b) == (C/c)(D/d) exactly when A B c d == C D a b
    a, b, c, d = p.fiber_num, q.fiber_den, q.fiber_num, p.fiber_den
    lr, li = _gmul(a.re_num, a.im_num, b.re_num, b.im_num)
    rr, ri = _gmul(c.re_num, c.im_num, d.re_num, d.im_num)
    scale_l, scale_r = c.den * d.den, a.den * b.den
    return lr * scale_l == rr * scale_r and li * scale_l == ri * scale_r


def phi_flow(n: int, t, p: FnPoint) -> FnPoint:
    """Parabolic flow Phi^t; complete, with automatic chart switching.

    Both charts shift the fiber by t H(A, B) over a power of a denominator,
    with the homogeneous binomial sum H of _binomial_sum.  In chart 0, for
    t = T/td and x = X/xd, the shift (x + t)^(n+1) - x^(n+1) is
    t H(T xd, X td) / (td xd)^n.  In chart 1, sum_{k=1}^{n+1} C(n+1, k)
    t^k u^(k-1) is t H(W, wd) / wd^n for w = t u = W/wd, over the
    denominator (1 + w)^n.
    """
    t = _gr(t)
    if p.n != n:
        raise BadParams("point does not live on F_n")
    td, tr, ti = t.den, t.re_num, t.im_num
    b, f, g = p.base, p.fiber_num, p.fiber_den
    bd, br, bi = b.den, b.re_num, b.im_num
    if p.chart == 0:
        # x + t = (X td + T xd) / (xd td)
        hr, hi = _binomial_sum(n, tr * bd, ti * bd, br * td, bi * td)
        scale = td * (td * bd) ** n
        return FnPoint(n, 0, from_ints(bd * td, br * td + tr * bd, bi * td + ti * bd),
                       _shifted(f, g, scale, *_gmul(tr, ti, hr, hi)), g)
    # w = t u = W / wd, and 1 + w = E / wd
    wr, wi = _gmul(tr, ti, br, bi)
    wd = td * bd
    er, ei = wd + wr, wi
    if not (er or ei):
        # lands on the x = 0 axis of chart 0; u != 0 here since t*u = -1
        return phi_flow(n, t, fn_transition(p))
    hr, hi = _binomial_sum(n, wr, wi, wd, 0)
    wd_n = wd ** n
    pr, pi = gaussian_pow(er, ei, n)
    # u / (1 + w) = U td / E = U td conj(E) / |E|^2
    ur, ui = _gmul(br * td, bi * td, er, -ei)
    return FnPoint(n, 1, from_ints(er * er + ei * ei, ur, ui),
                   _shifted(f, g, td * wd_n, *_gmul(tr, ti, hr, hi)),
                   from_ints(g.den * wd_n, *_gmul(g.re_num, g.im_num, pr, pi)))


def _shifted(f: GR, g: GR, scale: int, sr: int, si: int) -> GR:
    """f + (sr + si i) / scale * g, built once: over fd * scale * gd, f's
    numerator times scale * gd and (sr + si i) times g's numerator times fd."""
    fd, gr, gi = f.den, g.re_num, g.im_num
    k = scale * g.den
    return from_ints(fd * k, f.re_num * k + (sr * gr - si * gi) * fd,
                     f.im_num * k + (sr * gi + si * gr) * fd)


def _binomial_sum(n: int, ar: int, ai: int, br: int, bi: int) -> tuple:
    """H(A, B) = sum_{k=1}^{n+1} C(n+1, k) A^(k-1) B^(n+1-k) for the Gaussian
    integers A = ar + ai i and B = br + bi i, by Horner in A."""
    hr, hi = pr, pi = 1, 0      # the k = n+1 term C(n+1, n+1) = 1, and B^0
    for k in range(n, 0, -1):
        pr, pi = pr * br - pi * bi, pr * bi + pi * br
        c = comb(n + 1, k)
        hr, hi = hr * ar - hi * ai + c * pr, hr * ai + hi * ar + c * pi
    return hr, hi


def _gmul(ar: int, ai: int, br: int, bi: int) -> tuple:
    """(ar + ai i)(br + bi i) as a pair of ints."""
    return ar * br - ai * bi, ar * bi + ai * br


def psi_flow(n: int, s, p: FnPoint) -> FnPoint:
    """Fiber-translation flow Psi^s (complete): the fiber moves by s in
    chart 0 and by s u^n in chart 1."""
    s = _gr(s)
    if p.n != n:
        raise BadParams("point does not live on F_n")
    b = p.base
    if p.chart == 0:
        scale, sr, si = s.den, s.re_num, s.im_num
    else:
        scale = s.den * b.den ** n
        sr, si = _gmul(s.re_num, s.im_num, *gaussian_pow(b.re_num, b.im_num, n))
    return FnPoint(n, p.chart, b, _shifted(p.fiber_num, p.fiber_den, scale, sr, si),
                   p.fiber_den)


def fixed_point(n: int) -> FnPoint:
    """p = {u = 0, v = infinity}, fixed by both flows."""
    return FnPoint(n, 1, GR(0), GR(1), GR(0))


def random_gr(rng: random.Random) -> GR:
    """A small random Gaussian rational, the sample law of the flow checks."""
    return GR(Fraction(rng.randint(-8, 8), rng.randint(1, 5)),
              Fraction(rng.randint(-4, 4), rng.randint(1, 5)))


def random_flow_failures(n: int, rng: random.Random, samples: int) -> List[str]:
    """Check the flows at *samples* random points and times; name each failure.

    Each sample draws a chart, a point and times t, s and checks the group
    law of Phi, the commutation of Phi and Psi and, where both base
    coordinates are nonzero, that Phi commutes with the chart transition.
    """
    if samples < 1:
        raise BadParams(f"samples must be at least 1, got {samples}")
    failures = []
    for _ in range(samples):
        pt = FnPoint.make(n, rng.choice([0, 1]), random_gr(rng), random_gr(rng))
        t, s = random_gr(rng), random_gr(rng)
        flowed = phi_flow(n, t, pt)
        if not points_equal(phi_flow(n, t, phi_flow(n, s, pt)), phi_flow(n, t + s, pt)):
            failures.append("group-law")
        if not points_equal(psi_flow(n, s, flowed), phi_flow(n, t, psi_flow(n, s, pt))):
            failures.append("commutation")
        if not pt.base.is_zero() and not flowed.base.is_zero() and not points_equal(
                fn_transition(flowed), phi_flow(n, t, fn_transition(pt))):
            failures.append("chart-coherence")
    return failures


# ---------------------------------------------------------------------------
# local generators at the fixed point
# ---------------------------------------------------------------------------

@dataclass
class GeneratorReport:
    derived: VectorFieldGerm          # d/dt at t=0, pushed to (ubar, vbar)
    display: VectorFieldGerm          # the printed germ
    sign: Optional[int]               # derived = sign * display, if proportional


@dataclass
class LocalGenerators:
    z: GeneratorReport
    y: GeneratorReport


def _chart_to_ubar_vbar(n: int) -> CoordinateChange:
    """(ubar, vbar) = (1/x, x^n / y); inverse (x, y) = (1/ubar, 1/(ubar^n vbar))."""
    forward = ((-1, 0, 1), (-n, -1, 1))      # x = ubar^-1, y = ubar^-n vbar^-1
    inverse = ((-1, 0, 1), (n, -1, 1))       # ubar = x^-1, vbar = x^n y^-1
    return CoordinateChange.monomial_chart(forward, inverse)


def _flow_generator_chart0(n: int, flow: str) -> VectorFieldGerm:
    """d/dt at t = 0 of the chart-0 flow formula, as an exact polynomial germ."""
    x = Jet2.variable("x", EXACT, INF)
    if flow == "phi":
        # d/dt (x + t) = 1; d/dt [y + (x+t)^(n+1) - x^(n+1)] = (n+1) x^n
        a = Jet2.const(1, EXACT, INF)
        b = jet_pow(x, n).scale(n + 1)
    elif flow == "psi":
        a = Jet2.zero(EXACT, INF)
        b = Jet2.const(1, EXACT, INF)
    else:
        raise BadParams(f"unknown flow {flow!r}: expected 'phi' or 'psi'")
    return VectorFieldGerm(a, b)


def z_display(n: int, degree=INF) -> VectorFieldGerm:
    """ubar^2 d/dubar - vbar (n ubar - (n+1) vbar) d/dvbar."""
    u = Jet2.variable("x", EXACT, degree)
    v = Jet2.variable("y", EXACT, degree)
    return VectorFieldGerm(u * u, -(v * (u.scale(n) - v.scale(n + 1))))


def y_display(n: int, degree=INF) -> VectorFieldGerm:
    """-ubar^n vbar^2 d/dvbar."""
    v = Jet2.variable("y", EXACT, degree)
    u = Jet2.variable("x", EXACT, degree)
    return VectorFieldGerm(Jet2.zero(EXACT, degree), -(jet_pow(u, n) * v * v))


def local_generators_at_p(n: int) -> LocalGenerators:
    """Germs of the two flows at the fixed point, computed two ways.

    Route (a) differentiates the closed-form flows at time 0 and pushes the
    result through (ubar, vbar) = (1/x, x^n/y) by exact chart differentiation;
    route (b) transcribes the printed displays.  The report records the
    per-field proportionality sign instead of hiding it.
    """
    if n < 0:
        raise BadParams("n must be >= 0")
    chart = _chart_to_ubar_vbar(n)
    z_derived = pullback(_flow_generator_chart0(n, "phi"), chart)
    y_derived = pullback(_flow_generator_chart0(n, "psi"), chart)
    z_disp = z_display(n)
    y_disp = y_display(n)
    return LocalGenerators(
        z=GeneratorReport(z_derived, z_disp, _proportional_sign(z_derived, z_disp)),
        y=GeneratorReport(y_derived, y_disp, _proportional_sign(y_derived, y_disp)),
    )


def _proportional_sign(a: VectorFieldGerm, b: VectorFieldGerm) -> Optional[int]:
    if a.equals(b):
        return 1
    if a.equals(-b):
        return -1
    return None


def prop35_member(n: int, c1, c2, degree=INF) -> VectorFieldGerm:
    """c1 * ubar^n vbar^2 d/dvbar + c2 * Z_n (the full commutant family)."""
    u = Jet2.variable("x", EXACT, degree)
    v = Jet2.variable("y", EXACT, degree)
    y_part = VectorFieldGerm(Jet2.zero(EXACT, degree), (jet_pow(u, n) * v * v))
    z = z_display(n, degree)
    return y_part.scale(c1) + z.scale(c2)
