"""Independent brute-force polynomial arithmetic used as a test oracle.

Deliberately separate from the library: plain dicts mapping exponent pairs
to (Fraction, Fraction) Gaussian rationals, with schoolbook algorithms, so
expected values are computed along a different code path than the one under
test.  The float integrator's generic loop, `t_rk45`, is kept here as the
oracle for the unrolled two-component kernel in germforge.numflow, and the
scalar-dict float loops the jet kernel had before it kept numerators
(`f_mul`, `f_add`, `f_scale`, `f_derive` and the compositions built from
them) as the oracle for float jets.  `h_phi_flow_chart1` keeps the
binomial sum of the Hirzebruch flow's chart-1 fiber shift, and
`h_phi_flow_chart0` the difference of powers of the chart-0 shift, both of
which germforge.hirzebruch now sums by Horner.  `p_eval` is the expression
evaluator that built one Jet2 per AST node (with `t_jet_pow`, the power
loop that started from the Jet2 constant 1), kept as the oracle for the
parser's evaluation on stored numerators.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Callable, List, Optional, Tuple

from germforge import scalars
from germforge.errors import GermforgeError, StepFailure, ZeroDenominator
from germforge.germ import RationalFn
from germforge.numflow import _DP_A, _DP_B4, _DP_B5
from germforge.parser import Add, Const, Mul, Neg, Pow, Quot, UnknownVariable, Var, pretty
from germforge.scalars import EXACT, GaussianRational
from germforge.series import DIVISIBLE, Jet2, exact_divide, jet_mul

Z2 = tuple  # exponent pair


def gr(re=0, im=0):
    return (Fraction(re), Fraction(im))


def gr_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def gr_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def gr_neg(a):
    return (-a[0], -a[1])


def p_add(p, q):
    out = dict(p)
    for k, v in q.items():
        out[k] = gr_add(out.get(k, gr()), v)
    return {k: v for k, v in out.items() if v != (0, 0)}


def p_neg(p):
    return {k: gr_neg(v) for k, v in p.items()}


def p_mul(p, q):
    out = {}
    for (i1, j1), u in p.items():
        for (i2, j2), v in q.items():
            k = (i1 + i2, j1 + j2)
            out[k] = gr_add(out.get(k, gr()), gr_mul(u, v))
    return {k: v for k, v in out.items() if v != (0, 0)}


def p_scale(p, s):
    return {k: gr_mul(v, s) for k, v in p.items()}


def p_derive(p, var):
    out = {}
    for (i, j), v in p.items():
        if var == 0 and i > 0:
            out[(i - 1, j)] = gr_mul(v, gr(i))
        if var == 1 and j > 0:
            out[(i, j - 1)] = gr_mul(v, gr(j))
    return {k: v for k, v in out.items() if v != (0, 0)}


def p_truncate(p, degree):
    return {k: v for k, v in p.items() if k[0] + k[1] <= degree}


def p_compose1(coeffs1d, g, degree):
    """sum_k c_k g^k truncated (c in 1-variable dict {k: gr})."""
    out = {}
    power = {(0, 0): gr(1)}
    top = max(coeffs1d) if coeffs1d else 0
    for k in range(top + 1):
        if k in coeffs1d:
            out = p_add(out, p_scale(power, coeffs1d[k]))
        power = p_truncate(p_mul(power, g), degree)
    return p_truncate(out, degree)


def gr_inv(a):
    n = a[0] * a[0] + a[1] * a[1]
    return (a[0] / n, -a[1] / n)


def p_compose2(f, p, q, degree):
    """f(p, q) truncated, expanding every monomial of f on its own."""
    out = {}
    for (i, j), c in f.items():
        term = {(0, 0): c}
        for _ in range(i):
            term = p_truncate(p_mul(term, p), degree)
        for _ in range(j):
            term = p_truncate(p_mul(term, q), degree)
        out = p_add(out, term)
    return p_truncate(out, degree)


def p_reciprocal(a, degree):
    """1/a through *degree*: solve (a * b)_k = [k == 0] one monomial at a time."""
    inv0 = gr_inv(a[(0, 0)])
    b = {}
    for s in range(degree + 1):
        for j in range(s + 1):
            key = (s - j, j)
            acc = gr(1) if key == (0, 0) else gr()
            for (i1, j1), u in a.items():
                if (i1, j1) != (0, 0) and i1 <= key[0] and j1 <= key[1]:
                    acc = gr_add(acc, gr_neg(gr_mul(u, b.get((key[0] - i1, key[1] - j1), gr()))))
            b[key] = gr_mul(inv0, acc)
    return {k: v for k, v in b.items() if v != (0, 0)}


# -- precision bookkeeping ---------------------------------------------------
#
# A "tracked" value is (poly, valid): the oracle polynomial and the degree
# through which it is known, combined by the library's documented rules
# (product: min(av + ord b, bv + ord a); sum: min).  The compositions below
# follow the library's evaluation order, so they give its valid_through.

INF = float("inf")


def p_order(p):
    return min((i + j for i, j in p), default=INF)


def t_mul(a, b):
    valid = min(a[1] + p_order(b[0]), b[1] + p_order(a[0]))
    return p_truncate(p_mul(a[0], b[0]), valid), valid


def t_add(a, b):
    valid = min(a[1], b[1])
    return p_truncate(p_add(a[0], b[0]), valid), valid


def t_scale(a, c):
    return p_scale(a[0], c), a[1]


def _proper_valid(f_valid, order, valid):
    if f_valid == INF:
        return valid
    # a truncated zero inner jet is only known to vanish through *valid*
    order = min(order, valid + 1)
    return INF if order == INF else min(valid, (f_valid + 1) * order - 1)


def t_compose1(f, f_valid, g):
    """sum_k f_k g^k (f a 1-variable dict {k: gr}) with valid tracking."""
    valid = _proper_valid(f_valid, p_order(g[0]), g[1])
    acc, power = ({}, valid), ({(0, 0): gr(1)}, INF)
    top = max(f, default=0)
    for k in range(top + 1):
        if k in f:
            acc = t_add(acc, t_scale(power, f[k]))
        if k < top:
            power = t_mul(power, g)
            if not power[0]:
                break
    valid = min(acc[1], valid)
    return p_truncate(acc[0], valid), valid


def t_compose2(f, f_valid, p, q):
    """Horner in p over rows in q, with valid tracking."""
    valid = _proper_valid(f_valid, min(p_order(p[0]), p_order(q[0])), min(p[1], q[1]))
    max_i = max((i for i, j in f), default=0)
    max_j = max((j for i, j in f), default=0)
    q_pows = [({(0, 0): gr(1)}, INF)]
    for _ in range(max_j):
        q_pows.append(t_mul(q_pows[-1], q))
    acc, p_pow = ({}, valid), ({(0, 0): gr(1)}, INF)
    for i in range(max_i + 1):
        row = ({}, INF)
        terms = [(j, f[(i, j)]) for j in range(max_j + 1) if (i, j) in f]
        for j, c in terms:
            row = t_add(row, t_scale(q_pows[j], c))
        if terms:
            acc = t_add(acc, t_mul(p_pow, row))
        if i < max_i:
            p_pow = t_mul(p_pow, p)
    valid = min(acc[1], valid)
    return p_truncate(acc[0], valid), valid


def t_neg(a):
    return p_neg(a[0]), a[1]


def t_truncate(a, degree):
    valid = min(a[1], degree)
    return p_truncate(a[0], valid), valid


def t_antiderivative_x(a):
    return {(i + 1, j): gr_mul(v, gr(Fraction(1, i + 1))) for (i, j), v in a[0].items()}, a[1] + 1


# -- float jets as scalar dicts -----------------------------------------------
#
# A float value is (terms, valid): a dict of complex coefficients in the
# jet's own term order, and valid_through.  These are the loops the float
# kernel ran on complex scalars, in the same order of operations, so the
# library's float results must equal theirs bit for bit.

def f_clean(terms, valid):
    return {k: v for k, v in terms.items() if k[0] + k[1] <= valid and not abs(v) <= 0.0}


def f_mul(a, b):
    valid = min(a[1] + p_order(b[0]), b[1] + p_order(a[0]))
    out = {}
    for (i1, j1), u in a[0].items():
        for (i2, j2), v in b[0].items():
            if i1 + i2 + j1 + j2 > valid:
                continue
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, 0j) + u * v
    return f_clean(out, valid), valid


def f_add(a, b):
    valid = min(a[1], b[1])
    out = dict(a[0])
    for k, v in b[0].items():
        out[k] = out.get(k, 0j) + v
    return f_clean(out, valid), valid


def f_scale(a, c):
    s = complex(c)
    return f_clean({k: v * s for k, v in a[0].items()}, a[1]), a[1]


def f_derive(a, var):
    valid = a[1] - 1
    out = {}
    for (i, j), v in a[0].items():
        e = (i, j)[var]
        if e:
            out[(i - 1, j) if var == 0 else (i, j - 1)] = v * complex(e)
    return f_clean(out, valid), valid


_F_ONE = ({(0, 0): 1 + 0j}, INF)


def f_compose1(f, f_valid, g):
    """sum_k f_k g^k (f a dict {k: complex}), powers of g by f_mul."""
    valid = _proper_valid(f_valid, p_order(g[0]), g[1])
    acc, power = ({}, valid), _F_ONE
    top = max(f, default=0)
    for k in range(top + 1):
        if k in f:
            acc = f_add(acc, f_scale(power, f[k]))
        if k < top:
            power = f_mul(power, g)
            if not power[0]:
                break
    valid = min(acc[1], valid)
    return f_clean(acc[0], valid), valid


def f_compose2(f, f_valid, p, q):
    """Horner in p over rows in q (f a dict {(i, j): complex})."""
    valid = _proper_valid(f_valid, min(p_order(p[0]), p_order(q[0])), min(p[1], q[1]))
    max_i = max((i for i, j in f), default=0)
    max_j = max((j for i, j in f), default=0)
    q_pows = [_F_ONE]
    for _ in range(max_j):
        q_pows.append(f_mul(q_pows[-1], q))
    acc, p_pow = ({}, valid), _F_ONE
    for i in range(max_i + 1):
        row = ({}, INF)
        terms = [(j, f[(i, j)]) for j in range(max_j + 1) if (i, j) in f]
        for j, c in terms:
            row = f_add(row, f_scale(q_pows[j], c))
        if terms:
            acc = f_add(acc, f_mul(p_pow, row))
        if i < max_i:
            p_pow = f_mul(p_pow, p)
    valid = min(acc[1], valid)
    return f_clean(acc[0], valid), valid


# -- full-precision Picard loops -------------------------------------------------
#
# The fixed-point solvers as they were before they became graded: *degree*
# passes, each at the full truncation, on tracked values.  The graded
# solvers must give the same coefficients and valid_through.

def t_inverse(c1, c2, degree=None):
    """Compositional inverse of the series change (c1, c2) (tracked, zero
    constant terms) by psi <- L^-1 (id - N(psi)), phi = L + N; None when
    the Jacobian at the origin is singular.  *degree* as the library's."""
    valid = min(c1[1], c2[1])
    if degree is None:
        top = max((i + j for c in (c1, c2) for i, j in c[0]), default=0)
        degree = valid if valid != INF else max(top, 1) * 2
    degree = int(min(degree, 64)) if degree != INF else 16
    (j11, j12), (j21, j22) = ([c[0].get(k, gr()) for k in ((1, 0), (0, 1))] for c in (c1, c2))
    det = gr_add(gr_mul(j11, j22), gr_neg(gr_mul(j12, j21)))
    if det == gr():
        return None
    r = gr_inv(det)
    inv = ((gr_mul(j22, r), gr_neg(gr_mul(j12, r))), (gr_neg(gr_mul(j21, r)), gr_mul(j11, r)))
    x = t_truncate(({(1, 0): gr(1)}, INF), degree)
    y = t_truncate(({(0, 1): gr(1)}, INF), degree)

    def lin(row, u, v):
        return t_add(t_scale(u, row[0]), t_scale(v, row[1]))

    n1 = t_truncate(t_add(c1, t_neg(lin((j11, j12), x, y))), degree)
    n2 = t_truncate(t_add(c2, t_neg(lin((j21, j22), x, y))), degree)
    p1, p2 = lin(inv[0], x, y), lin(inv[1], x, y)
    for _ in range(degree):
        r1 = t_truncate(t_add(x, t_neg(t_compose2(n1[0], n1[1], p1, p2))), degree)
        r2 = t_truncate(t_add(y, t_neg(t_compose2(n2[0], n2[1], p1, p2))), degree)
        p1, p2 = lin(inv[0], r1, r2), lin(inv[1], r1, r2)
    return t_truncate(p1, valid), t_truncate(p2, valid)


def t_ode_solve(theta, degree):
    """du/dx = theta(x, u), u(0, y) = y (theta tracked) by *degree* passes of
    u <- y + integral theta(x, u) dx; None when theta is known below degree."""
    if theta[1] < degree:
        return None
    x = ({(1, 0): gr(1)}, INF)
    y = ({(0, 1): gr(1)}, INF)
    u = t_truncate(y, degree)
    theta_t = t_truncate(theta, degree)
    for _ in range(degree):
        rhs = t_compose2(theta_t[0], theta_t[1], t_truncate(x, degree), u)
        u = t_truncate(t_add(y, t_antiderivative_x(rhs)), degree)
    return u


# -- Laurent polynomials and monomial charts ------------------------------------
#
# The same dicts with exponents of either sign: p_add, p_neg, p_mul and
# p_scale need no change.  A Laurent monomial c x^i y^j is the triple
# (i, j, c).

def gr_pow(a, e):
    out = gr(1)
    for _ in range(abs(e)):
        out = gr_mul(out, a)
    return out if e >= 0 else gr_inv(out)


def h_phi_flow_chart1(n, t, u, num, den):
    """Phi^t on chart 1 of F_n, with the fiber shift written as the binomial
    sum sum_{k=1}^{n+1} C(n+1, k) t^k u^(k-1): (base, fiber num, fiber den)."""
    denom = gr_add(gr(1), gr_mul(t, u))
    poly = gr(0)
    for k in range(1, n + 2):
        poly = gr_add(poly, gr_mul(gr(comb(n + 1, k)), gr_mul(gr_pow(t, k), gr_pow(u, k - 1))))
    return gr_mul(u, gr_inv(denom)), gr_add(num, gr_mul(poly, den)), gr_mul(den, gr_pow(denom, n))


def h_phi_flow_chart0(n, t, x, num, den):
    """Phi^t on chart 0 of F_n, with the fiber shift written as the
    difference (x + t)^(n+1) - x^(n+1): (base, fiber num, fiber den)."""
    shift = gr_add(gr_pow(gr_add(x, t), n + 1), gr_neg(gr_pow(x, n + 1)))
    return gr_add(x, t), gr_add(num, gr_mul(shift, den)), den


def l_derive(p, var):
    """d/dx (var 0) or d/dy (var 1); unlike p_derive, negative exponents count."""
    out = {}
    for (i, j), v in p.items():
        e = (i, j)[var]
        if e:
            out[(i - 1, j) if var == 0 else (i, j - 1)] = gr_mul(v, gr(e))
    return out


def l_substitute(p, mx, my):
    """p at x = mx, y = my, both Laurent monomial triples."""
    (xi, xj, cx), (yi, yj, cy) = mx, my
    out = {}
    for (i, j), v in p.items():
        c = gr_mul(v, gr_mul(gr_pow(cx, i), gr_pow(cy, j)))
        out = p_add(out, {(i * xi + j * yi, i * xj + j * yj): c})
    return out


def l_chart_pullback(a, b, forward, inverse):
    """Components of A dx + B dy in a monomial chart (u, v).

    forward gives x and y as triples in (u, v), inverse gives u and v as
    triples in (x, y).  Each component is d(sigma)/dx A + d(sigma)/dy B with
    every factor rewritten in (u, v) before multiplying.
    """
    a_uv, b_uv = l_substitute(a, *forward), l_substitute(b, *forward)
    comps = []
    for i, j, c in inverse:
        sigma = {(i, j): c}
        dx = l_substitute(l_derive(sigma, 0), *forward)
        dy = l_substitute(l_derive(sigma, 1), *forward)
        comps.append(p_add(p_mul(dx, a_uv), p_mul(dy, b_uv)))
    return comps


def from_jet(jet):
    """Convert a library Jet2 (exact mode) to oracle form."""
    return {k: (v.re, v.im) for k, v in jet.coeffs.items()}


def equal_to(jet, oracle_poly, degree):
    mine = p_truncate(from_jet(jet), degree)
    theirs = p_truncate(dict(oracle_poly), degree)
    return mine == theirs


def t_rk45(f: Callable[[float, Tuple[complex, ...]], Tuple[complex, ...]],
           y0: Tuple[complex, ...], s_end: float, tol: float,
           max_step: float, guard: Optional[Callable] = None
           ) -> Tuple[complex, ...]:
    """Integrate dy/ds = f(s, y) on [0, s_end] with PI step control.

    The generic n-component Dormand-Prince 5(4) loop that numflow._rk45
    unrolls for two components; the stage sums are built with sum().
    """
    s = 0.0
    y = tuple(y0)
    h = min(max_step, s_end)
    min_step = s_end * 1e-14
    nfail = 0
    while s < s_end - 1e-15:
        h = min(h, s_end - s)
        if h < min_step:
            raise StepFailure(f"step underflow at s={s}", partial=y)
        ks: List[Tuple[complex, ...]] = []
        try:
            for stage in range(7):
                arg = y
                if stage > 0:
                    coefs = _DP_A[stage]
                    arg = tuple(
                        y[i] + h * sum(c * ks[j][i] for j, c in enumerate(coefs))
                        for i in range(len(y))
                    )
                ks.append(f(s + h * sum(_DP_A[stage]) if stage else s, arg))
        except (OverflowError, ZeroDivisionError) as exc:
            raise StepFailure(f"vector field blew up at s={s}: {exc}", partial=y)
        y5 = tuple(
            y[i] + h * sum(b * ks[j][i] for j, b in enumerate(_DP_B5))
            for i in range(len(y))
        )
        y4 = tuple(
            y[i] + h * sum(b * ks[j][i] for j, b in enumerate(_DP_B4))
            for i in range(len(y))
        )
        err = max(abs(a - b) for a, b in zip(y5, y4))
        scale = tol * max(1.0, max(abs(v) for v in y5))
        if err <= scale:
            s += h
            y = y5
            if guard is not None:
                guard(s, y)
            nfail = 0
            factor = 2.0 if err == 0 else min(2.0, 0.9 * (scale / err) ** 0.2)
            h = min(max_step, h * factor)
        else:
            nfail += 1
            if nfail > 60:
                raise StepFailure("repeated step rejection", partial=y)
            h *= max(0.1, 0.9 * (scale / err) ** 0.25)
    return y


# -- the expression evaluator with one Jet2 per AST node -------------------------

def t_jet_pow(a, e):
    """a^e by repeated jet_mul, starting from the constant 1."""
    out = Jet2.const(1, a.mode, INF)
    for _ in range(e):
        out = jet_mul(out, a)
    return out


class _RatValue:
    """Numerator/denominator jets; an exact denominator of None is the
    constant 1, a float one is always a jet."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        self.num = num
        if den is None and num.mode != EXACT:
            den = Jet2.const(1, num.mode, INF)
        self.den = den

    def den_jet(self):
        return self.den if self.den is not None else Jet2.const(1, EXACT, INF)


def p_eval(node, mode, degree, variables=("x", "y")):
    """The AST *node* as a Jet2 (Jet1 for variables ("z",)) or RationalFn,
    as germforge.parser.eval_node evaluated it with a Jet2 per node."""
    val = _p_eval(node, mode, degree, variables)
    if val.den is None:
        return _p_restrict(val.num, variables)
    if val.den.degree_bound() == 0:
        c = val.den.coeffs.get((0, 0), scalars.one(mode))
        return _p_restrict(val.num.scale(scalars.one(mode) / c), variables)
    status, quot = exact_divide(val.num, val.den)
    if status == DIVISIBLE and quot is not None and variables == ("x", "y"):
        return quot
    if variables != ("x", "y"):
        raise GermforgeError("1-variable expressions must be polynomial in z")
    return RationalFn(val.num, val.den)


def _p_restrict(jet, variables):
    return jet if variables == ("x", "y") else jet.restrict_y0()


def _p_eval(node, mode, degree, variables):
    if isinstance(node, Const):
        if mode == EXACT:
            value = GaussianRational(0, node.value) if node.imag else \
                GaussianRational(node.value, 0)
        else:
            value = 1j * float(node.value) if node.imag else complex(float(node.value))
        return _RatValue(Jet2.const(value, mode, INF).truncate(degree))
    if isinstance(node, Var):
        if node.name not in variables:
            raise UnknownVariable(f"variable {node.name!r} not allowed here")
        slot = "x" if node.name in ("x", "z") else "y"
        return _RatValue(Jet2.variable(slot, mode, INF).truncate(degree))
    if isinstance(node, Neg):
        inner = _p_eval(node.inner, mode, degree, variables)
        return _RatValue(-inner.num, inner.den)
    if isinstance(node, Add):
        total = None
        for sign, term in node.terms:
            val = _p_eval(term, mode, degree, variables)
            if sign < 0:
                val = _RatValue(-val.num, val.den)
            if total is None:
                total = val
            elif total.den is None and val.den is None:
                total = _RatValue(total.num + val.num)
            else:
                total = _RatValue(
                    jet_mul(total.num, val.den_jet()) + jet_mul(val.num, total.den_jet()),
                    jet_mul(total.den_jet(), val.den_jet()),
                )
        return total
    if isinstance(node, Mul):
        acc = _p_eval(node.factors[0], mode, degree, variables)
        for f in node.factors[1:]:
            val = _p_eval(f, mode, degree, variables)
            if acc.den is None and val.den is None:
                acc = _RatValue(jet_mul(acc.num, val.num))
            else:
                acc = _RatValue(jet_mul(acc.num, val.num),
                                jet_mul(acc.den_jet(), val.den_jet()))
        return acc
    if isinstance(node, Quot):
        num = _p_eval(node.num, mode, degree, variables)
        den = _p_eval(node.den, mode, degree, variables)
        if den.num.is_zero():
            raise ZeroDenominator(f"denominator of {pretty(node)} vanishes to degree {degree}")
        return _RatValue(jet_mul(num.num, den.den_jet()), jet_mul(num.den_jet(), den.num))
    if isinstance(node, Pow):
        base = _p_eval(node.base, mode, degree, variables)
        den = None
        if base.den is not None:
            den = t_jet_pow(base.den, node.exponent).truncate(degree)
            if den.is_zero():
                raise ZeroDenominator(f"denominator of {pretty(node)} vanishes to degree {degree}")
        return _RatValue(t_jet_pow(base.num, node.exponent).truncate(degree), den)
    raise TypeError(f"unknown AST node {node!r}")
