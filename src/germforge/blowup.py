"""Single quadratic blow-up of germs at the origin, both charts.

Chart 0 has coordinates (x, t) with y = tx; chart 1 has (s, y) with x = sy.
The raw pullback of A dx + B dy in chart 0 is

    A(x, tx) dx + (1/x)[B(x, tx) - t A(x, tx)] dt

and the returned transform factors x^divisor_order out of it, where
divisor_order = min(order(X) - 1, maximal common exceptional power).  That
clearing always leaves a holomorphic germ, reproduces the classical d-1
bookkeeping on monomial inputs, and keeps the radial field as x dx.
Dicriticality is decided on the maximally cleared foliation: the divisor is
invariant iff the base component still vanishes on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple

from .errors import (
    BadParams,
    DegenerateBlowup,
    DicriticalInput,
    PrecisionExhausted,
    UnresolvedRoots,
)
from .germ import LinearPartData, VectorFieldGerm, linear_part, monomial_content
from .scalars import EXACT, GaussianRational, Scalar
from .series import INF, Jet1, Jet2, _rekeyed


@dataclass
class BlowupResult:
    chart: int
    transformed: VectorFieldGerm
    divisor_order: int
    dicritical: bool


def _substitute_line(jet: Jet2, chart: int) -> Jet2:
    """y = tx (chart 0) or x = sy (chart 1): monomial exponent remap,
    x^i (tx)^j = x^(i+j) t^j and (sy)^i y^j = s^i y^(i+j).  The terms are
    added to zero, which clears the sign of a float zero part."""
    move = (lambda k: (k[0] + k[1], k[1])) if chart == 0 else (lambda k: (k[0], k[0] + k[1]))
    return Jet2.zero(jet.mode) + _rekeyed(jet, move, jet.valid_through)


def blowup_vf(x: VectorFieldGerm, chart: int) -> BlowupResult:
    """Blow up a germ vanishing at the origin in the requested chart."""
    if chart not in (0, 1):
        raise BadParams("chart must be 0 or 1")
    if x.order() == INF:
        raise DegenerateBlowup("blow-up of the zero germ")
    if x.order() < 1:
        raise DegenerateBlowup("blowup_vf requires X(0,0) = 0")
    d = int(x.order())
    if chart == 0:
        base = _substitute_line(x.a, 0)                       # A(x, tx)
        fiber_num = _substitute_line(x.b, 0)                  # B(x, tx)
        t = Jet2.variable("y", x.mode, INF)                   # second slot is t
        mixed = fiber_num - (t * base)
    else:
        base = _substitute_line(x.b, 1)                       # B(sy, y), advances y
        fiber_num = _substitute_line(x.a, 1)                  # A(sy, y)
        s = Jet2.variable("x", x.mode, INF)                   # first slot is s
        mixed = fiber_num - (s * base)
    exc_idx = 0 if chart == 0 else 1

    def divide_exc(jet: Jet2, power: int) -> Jet2:
        if power == 0:
            return jet
        return jet.divide_monomial(power, 0) if exc_idx == 0 else jet.divide_monomial(0, power)

    # mixed is divisible by the exceptional coordinate since X(0,0) = 0
    fiber = divide_exc(mixed, 1)
    content = monomial_content(base, fiber)
    common = d - 1 if content is None else content[exc_idx]
    divisor_order = min(d - 1, common)
    base_c = divide_exc(base, divisor_order)
    fiber_c = divide_exc(fiber, divisor_order)
    if chart == 0:
        transformed = VectorFieldGerm(base_c, fiber_c)
    else:
        transformed = VectorFieldGerm(fiber_c, base_c)

    # dicritical test on the maximally cleared foliation
    base_f = divide_exc(base, common)
    restricted = base_f.restrict_x0() if exc_idx == 0 else base_f.restrict_y0()
    dicritical = not restricted.is_zero()
    return BlowupResult(chart, transformed, divisor_order, dicritical)


@dataclass
class DivisorSingularity:
    point: Scalar           # fiber coordinate on the divisor within the chart
    linear: LinearPartData


def divisor_singularities(result: BlowupResult) -> List[DivisorSingularity]:
    """Zeros of the transformed foliation on the divisor within this chart.

    The fiber component restricted to the divisor is a polynomial in the
    fiber coordinate; its roots (plus eigenvalue data of the recentered
    field) are returned.  Requires a non-dicritical input.
    """
    if result.dicritical:
        raise DicriticalInput("divisor singularities of a dicritical blow-up")
    x = result.transformed
    # the fiber component along the exceptional line
    poly = x.b.restrict_x0() if result.chart == 0 else x.a.restrict_y0()
    roots = _poly_roots(poly)
    out = []
    for r in roots:
        shifted = _recenter_fiber(x, result.chart, r)
        out.append(DivisorSingularity(r, linear_part(shifted)))
    return out


def _recenter_fiber(x: VectorFieldGerm, chart: int, value: Scalar) -> VectorFieldGerm:
    """Translate the fiber coordinate so the singular point sits at the origin."""
    if x.valid_through != INF:
        raise PrecisionExhausted("recentering a truncated transform is not supported")
    mode = x.mode
    if chart == 0:
        p = Jet2.variable("x", mode, INF)
        q = Jet2.variable("y", mode, INF) + Jet2.const(value, mode, INF)
    else:
        p = Jet2.variable("x", mode, INF) + Jet2.const(value, mode, INF)
        q = Jet2.variable("y", mode, INF)
    from .series import jet_compose2

    return VectorFieldGerm(jet_compose2(x.a, p, q), jet_compose2(x.b, p, q))


def _poly_roots(poly: Jet1) -> List[Scalar]:
    """Roots of a univariate polynomial.

    Exact mode: 0, the degree <= 2 formula, then small-candidate deflation.
    Float mode: numpy's companion-matrix roots.  numpy is imported here and
    not at module level because it is the only third-party import of the
    package and would otherwise add most of the start-up time of every
    command, although only this branch uses it.
    """
    if poly.is_zero():
        return []
    if poly.mode != EXACT:
        import numpy as np

        coeffs = [poly.coeff(k) for k in range(poly.degree_bound() + 1)]
        rts = np.roots(list(reversed(coeffs)))
        return [complex(r) for r in rts]
    low = int(poly.order())
    coeffs = [poly.coeff(k) for k in range(low, poly.degree_bound() + 1)]
    return ([GaussianRational(0)] if low else []) + _roots_exact(coeffs)


def _roots_exact(coeffs: List[GaussianRational]) -> List[GaussianRational]:
    deg = len(coeffs) - 1
    if deg == 0:
        return []
    if deg == 1:
        return [-coeffs[0] / coeffs[1]]
    if deg == 2:
        a, b, c = coeffs[2], coeffs[1], coeffs[0]
        disc = b * b - GaussianRational(4) * a * c
        root = disc.sqrt()
        if root is None:
            raise UnresolvedRoots("irrational discriminant in exact divisor polynomial")
        two_a = GaussianRational(2) * a
        return [(-b + root) / two_a, (-b - root) / two_a]
    # small-candidate deflation for higher degree
    candidates = [GaussianRational(k) for k in (-3, -2, -1, 1, 2, 3)]
    candidates += [GaussianRational(0, k) for k in (-1, 1)]
    candidates += [GaussianRational(Fraction(1, 2)), GaussianRational(Fraction(-1, 2))]
    found: List[GaussianRational] = []
    work = list(coeffs)
    progress = True
    while len(work) - 1 > 2 and progress:
        progress = False
        for cand in candidates:
            quotient, remainder = _deflate(work, cand)
            if remainder.is_zero():
                work = quotient
                found.append(cand)
                progress = True
                break
    if len(work) - 1 > 2:
        raise UnresolvedRoots("divisor polynomial of degree > 2 with no small roots")
    found.extend(_roots_exact(work))
    return found


def _deflate(coeffs: List[GaussianRational], root: GaussianRational
             ) -> Tuple[List[GaussianRational], GaussianRational]:
    """Synthetic division by (z - root): the quotient and the remainder p(root)."""
    n = len(coeffs) - 1
    out = [GaussianRational(0)] * n
    acc = coeffs[n]
    for k in range(n - 1, -1, -1):
        out[k] = acc
        acc = coeffs[k] + acc * root
    return out, acc
