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
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import List, Optional

from .errors import BadParams, OnExceptionalLocus
from .germ import CoordinateChange, VectorFieldGerm, pullback
from .scalars import EXACT, GaussianRational
from .series import INF, Jet2, jet_pow

GR = GaussianRational


def _gr(value) -> GR:
    return GR.from_value(value)


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
    if p.base.is_zero():
        raise OnExceptionalLocus("transition undefined where the base coordinate is 0")
    new_base = GR(1) / p.base
    # v = y/x^n and y = v/u^n: either way the fiber denominator picks up base^n
    base_pow = p.base ** p.n
    return FnPoint(p.n, 1 - p.chart, new_base, p.fiber_num, p.fiber_den * base_pow)


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
    return p.base == q.base and (
        p.fiber_num * q.fiber_den == q.fiber_num * p.fiber_den
    )


def phi_flow(n: int, t, p: FnPoint) -> FnPoint:
    """Parabolic flow Phi^t; complete, with automatic chart switching.

    Both charts shift the fiber by t S(a, b), with the binomial sum S of
    _binomial_sum: in chart 0 the shift (x + t)^(n+1) - x^(n+1) is
    t S(t, x), and in chart 1 sum_{k=1}^{n+1} C(n+1, k) t^k u^(k-1) is
    t S(t u, 1), over the denominator (1 + t u)^n.
    """
    t = _gr(t)
    if p.n != n:
        raise BadParams("point does not live on F_n")
    if p.chart == 0:
        x = p.base
        shift = t * _binomial_sum(n, t, x)
        return FnPoint(n, 0, x + t, p.fiber_num + shift * p.fiber_den, p.fiber_den)
    u = p.base
    w = t * u
    denom = w + 1
    if denom.is_zero():
        # lands on the x = 0 axis of chart 0; u != 0 here since t*u = -1
        return phi_flow(n, t, fn_transition(p))
    num = p.fiber_num + t * _binomial_sum(n, w, 1) * p.fiber_den
    den = p.fiber_den * denom ** n
    return FnPoint(n, 1, u / denom, num, den)


def _binomial_sum(n: int, a: GR, b) -> GR:
    """S(a, b) = sum_{k=1}^{n+1} C(n+1, k) a^(k-1) b^(n+1-k), by Horner in a."""
    total = b_pow = GR(1)       # the k = n+1 term C(n+1, n+1) = 1, and b^0
    for k in range(n, 0, -1):
        b_pow = b_pow * b
        total = total * a + comb(n + 1, k) * b_pow
    return total


def psi_flow(n: int, s, p: FnPoint) -> FnPoint:
    """Fiber-translation flow Psi^s (complete)."""
    s = _gr(s)
    if p.n != n:
        raise BadParams("point does not live on F_n")
    if p.chart == 0:
        return FnPoint(n, 0, p.base, p.fiber_num + s * p.fiber_den, p.fiber_den)
    shift = s * p.base ** n
    return FnPoint(n, 1, p.base, p.fiber_num + shift * p.fiber_den, p.fiber_den)


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
