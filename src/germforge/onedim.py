"""One-dimensional semicompleteness screens and the regular-foliation criterion.

A 1-D germ h(z) dz passes the necessary conditions when its order is at
most 1, or equals 2 with vanishing residue of dz/h; order 3 and up, or a
nonzero residue, are definitive failures with a concrete witness.

The straightening construction realizes the change (x, y) = (x, u(x, ybar))
sending horizontal lines to leaves, and the Siegel regular test decides
semicompleteness of g1(xy^n) y^n x^2 [dx + y^(n+1) g2(xy^n)(nx dx - y dy)]
by the absence of x*ybar^k monomials, cross-checkable against the closed
criterion g1'(0) = g2(0) = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from . import scalars
from .errors import AxisNotInvariant, BadParams, PrecisionExhausted
from .germ import VectorFieldGerm
from .series import (
    INF,
    MAX_DEGREE,
    Jet1,
    Jet2,
    jet_compose1,
    jet_mul,
    jet_pow,
    jet_reciprocal,
    laurent_residue,
    series_ode_solve,
)

PASS = "pass"
FAIL = "fail"
UNKNOWN = "unknown"


@dataclass
class SemicompleteVerdict:
    status: str
    reason: Optional[str] = None
    witness: object = None


def onedim_check(h: Jet1) -> SemicompleteVerdict:
    """Necessary conditions of the one-dimensional lemma.

    order <= 1 passes; order 2 requires residue zero; order >= 3 fails.
    Precision exhaustion surfaces as status "unknown", never a silent pass.
    """
    order = h.order()
    if order == INF:
        if h.valid_through == INF or h.valid_through >= 3:
            return SemicompleteVerdict(PASS, "identically-zero")
        return SemicompleteVerdict(UNKNOWN, "precision", h.valid_through)
    if order <= 1:
        return SemicompleteVerdict(PASS, f"order<={int(order)}")
    if order >= 3:
        return SemicompleteVerdict(FAIL, "order>2", int(order))
    try:
        res = laurent_residue(h)
    except PrecisionExhausted:
        return SemicompleteVerdict(UNKNOWN, "precision")
    if not res:
        return SemicompleteVerdict(PASS, "zero-residue")
    return SemicompleteVerdict(FAIL, "nonzero-residue", res)


def restrict_to_axis(x: VectorFieldGerm, axis: str) -> Jet1:
    """1-D germ of X along an invariant coordinate axis.

    Axis "x" ({y=0}) needs the dy component divisible by y; the restriction
    is then A(z, 0).  Symmetrically for axis "y".
    """
    if axis == "x":
        if any(j == 0 for (_, j) in x.b._keys()):
            raise AxisNotInvariant("dy component not divisible by y")
        return x.a.restrict_y0()
    if axis == "y":
        if any(i == 0 for (i, _) in x.a._keys()):
            raise AxisNotInvariant("dx component not divisible by x")
        return x.b.restrict_x0()
    raise BadParams(f"axis must be 'x' or 'y', got {axis!r}")


def invariant_axes(x: VectorFieldGerm) -> Tuple[str, ...]:
    out = []
    if all(j >= 1 for (_, j) in x.b._keys()):
        out.append("x")
    if all(i >= 1 for (i, _) in x.a._keys()):
        out.append("y")
    return tuple(out)


def straightening_theta(g2: Jet1, n: int, degree: int) -> Jet2:
    """Theta = -y^(n+1) g2(xy^n) / (1 + n x y^n g2(xy^n)) to the given degree."""
    if n > MAX_DEGREE:   # a float power y^n takes n products: n = 10^6 took 1.7 s
        raise BadParams(f"straightening needs n <= {MAX_DEGREE}")
    mode = g2.mode
    x = Jet2.variable("x", mode, INF)
    y = Jet2.variable("y", mode, INF)
    w = jet_mul(x, jet_pow(y, n)).truncate(degree)
    g2_w = jet_compose1(g2.truncate(degree), w).truncate(degree)
    y_n1 = jet_pow(y, n + 1).truncate(degree)
    num = (-jet_mul(y_n1, g2_w)).truncate(degree)
    den = (Jet2.const(1, mode, degree)
           + jet_mul(jet_mul(x, jet_pow(y, n)), g2_w).scale(n)).truncate(degree)
    return jet_mul(num, jet_reciprocal(den)).truncate(degree)


def straighten_regular(g1: Jet1, g2: Jet1, n: int, degree: int
                       ) -> Tuple[Jet2, Jet2]:
    """Straightening solution u and the normalized unit defect beta.

    u solves du/dx = Theta(x, u), u(0, y) = y; beta is defined through
    1 + beta = g1[x u^n] (u/y)^n.
    """
    if not 0 <= n <= MAX_DEGREE:
        raise BadParams(f"straightening needs 0 <= n <= {MAX_DEGREE}")
    if g1.coeff(0) - scalars.one(g1.mode):
        raise BadParams("straighten_regular requires g1(0) = 1")
    theta = straightening_theta(g2, n, degree)
    u = series_ode_solve(theta, degree)
    x = Jet2.variable("x", g1.mode, INF)
    u_over_y = u.divide_monomial(0, 1)  # u(x, 0) = 0, so u = y * (unit)
    u_n = jet_pow(u, n).truncate(degree)
    g1_arg = jet_mul(x, u_n).truncate(degree)
    g1_comp = jet_compose1(g1.truncate(degree), g1_arg)
    one_plus_beta = jet_mul(g1_comp, jet_pow(u_over_y, n)).truncate(degree)
    beta = one_plus_beta - Jet2.const(1, g1.mode, degree)
    return u, beta


def siegel_regular_test(g1: Jet1, g2: Jet1, n: int, degree: int) -> SemicompleteVerdict:
    """Semicompleteness of the Siegel-regular family via monomial absence.

    Pass iff neither the straightened unit 1 + beta nor the straightening
    solution u carries a monomial x^1 y^k; the pair of conditions is
    equivalent to the closed criterion g1'(0) = g2(0) = 0.  Failures carry
    the witness monomial (the u-witness x y^(n+1) when g2(0) != 0, else the
    beta-witness x y^n).
    """
    if n < 0:
        raise BadParams("straightening needs n >= 0")
    if degree < n + 2:
        return SemicompleteVerdict(UNKNOWN, "precision")
    u, beta = straighten_regular(g1, g2, n, degree)
    u_witness = _first_x_linear_monomial(u)
    if u_witness is not None:
        return SemicompleteVerdict(FAIL, "witness-monomial", u_witness)
    beta_witness = _first_x_linear_monomial(beta)
    if beta_witness is not None:
        return SemicompleteVerdict(FAIL, "witness-monomial", beta_witness)
    return SemicompleteVerdict(PASS, "no-x-linear-monomials")


def _first_x_linear_monomial(jet: Jet2):
    """The stored term x y^j of least j (a stored term is nonzero), or None."""
    return min((k for k in jet._keys() if k[0] == 1), key=lambda k: k[1], default=None)


def closed_criterion(g1: Jet1, g2: Jet1) -> bool:
    """g1'(0) = g2(0) = 0 (the closed-form statement of the same lemma)."""
    d1 = g1.coeff(1) if g1.valid_through >= 1 else None
    c2 = g2.coeff(0)
    if d1 is None:
        raise PrecisionExhausted("g1 not known to degree 1")
    return not d1 and not c2
