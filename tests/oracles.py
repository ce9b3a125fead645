"""Independent brute-force polynomial arithmetic used as a test oracle.

Deliberately separate from the library: plain dicts mapping exponent pairs
to (Fraction, Fraction) Gaussian rationals, with schoolbook algorithms, so
expected values are computed along a different code path than the one under
test.  The float integrator's generic loop, `t_rk45`, is kept here as the
oracle for the unrolled two-component kernel in germforge.numflow (its
`fsal=True` form reuses stage 7 as the kernel does; the plain form is the
oracle for step control).  `integrate_flow` (a two-component flow along a
time path) and `residue_probe_1d` (a trapezoid contour integral of dz/h)
are the numflow entry points that only tests call.  The
scalar-dict float loops the jet kernel had before it kept numerators
(`f_mul`, `f_add`, `f_scale`, `f_derive` and the compositions built from
them) as the oracle for float jets.  `h_phi_flow_chart1` keeps the
binomial sum of the Hirzebruch flow's chart-1 fiber shift, and
`h_phi_flow_chart0` the difference of powers of the chart-0 shift, both of
which germforge.hirzebruch now sums by Horner on Gaussian integers;
`h_psi_flow` and `h_transition` are the other flow and the chart change
on the same Fraction pairs, and `gr_binomial_sum` is the Horner sum on
GaussianRationals that the flows ran before they worked on the stored
ints.  `p_eval` is the expression
evaluator that built one Jet2 per AST node (with `t_jet_pow`, the power
loop that started from the Jet2 constant 1), kept as the oracle for the
parser's evaluation on stored numerators.  `parse_expression` (a tokenizer,
one `_Token` per token, and a parser that builds the AST), `eval_node` (the
evaluator on stored numerators that walks that AST) and `pretty` are the
expression parser as it was before it became one pass: the oracle of
germforge.parser.  `t_linearize` is the
Martinet-Ramis linearization as it was before it became one graded solve
(an elimination step id + h_d per degree, pulled back and composed), and
`resonant_monomials` lists the resonant monomials of diag(m, -n) from the
closed form of the eigenvalue relation; both are oracles for
germforge.mr.linearize.  `t_graded_inverse`, `t_graded_ode_solve` and
`t_graded_linearize` are the graded solvers as they were before their
passes shared a RelaxedComposition, each pass composing from degree 0.
`z_reciprocal` is the exact jet_reciprocal as it was before it ran on
reduced homogeneous parts (integer numerators over powers of one
denominator, reduced once at the end): the oracle of its stored output.
`f_reciprocal` is the float jet_reciprocal as it was before it ran on
homogeneous parts, and the float forms of `t_graded_inverse` and
`t_graded_ode_solve` are the float solvers as they were before: the
oracles of float solves, which must agree within 1e-12.  `known_through`
(which raises a claimed valid_through) and `antiderivative_x` are the
library helpers that only those float passes used.
`ode_residual` and `rational_from_jet` are library helpers that only tests
used.  `t_lie_bracket`, `t_derive_along` and `t_decompose` are the germ
operations as they were before each sum became one series.jet_dot: the
oracle of germforge.germ's.  `dot_lie_bracket` is the exact lie_bracket as
it was before it became one pass over term pairs (series.exact_bracket),
two series.jet_dot sums: the oracle of its stored output.
`FractionPairGR`, with `fp_format_exact` and `fp_parse_exact`, is the
exact scalar as it was before it stored reduced ints, with two Fraction
parts: the oracle of germforge.scalars.  `v_restrict_y0`, `v_restrict_x0`,
`v_divide_monomial`, `v_swap_axes`, `v_substitute_line`, `v_equals` and
`v_to_float` are the jet operations that walked the scalar view, as they
were before they ran on the stored numerators, and `v_jet2_to_json` is
germforge.report's jet serializer as it was before it formatted the stored
numerators.  `scan_exact_divide` is germforge.series.exact_divide as it was
before it took the next remainder key from a heap, scanning the whole
remainder at each step: the oracle of its status and stored quotient.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from dataclasses import dataclass
from math import comb, gcd, isqrt
from typing import Callable, List, Optional, Tuple, Union

from germforge import mr, numflow, scalars, series
from germforge.errors import (BadParams, DegenerateFrame, GermforgeError, ModeMismatch,
                              NonInvertibleChange, NotDivisible, PrecisionExhausted, StepFailure,
                              ZeroDenominator)
from germforge.germ import CoordinateChange, RationalFn, VectorFieldGerm, linear_part, pullback
from germforge.numflow import (_DP_A, _DP_B4, _DP_B5, TimePath, _lower_field,
                               eval_poly, periodic_trapezoid)
from germforge.parser import (_ORIGIN, ExprSyntaxError, UnknownVariable, _lin_sum, _negated,
                              _power, _times)
from germforge.scalars import EXACT, FLOAT, GaussianRational
from germforge.series import (DEFAULT_DEGREE, DIVISIBLE, Jet1, Jet2, _glex_key, _gmul_into, _jet,
                              _nonzero, _reduced, _zcut, _zderive, _zmul_into, _zscaled, _zsum,
                              exact_divide, jet_compose2, jet_derive, jet_dot, jet_mul)

Z2 = tuple  # exponent pair


def homogeneous_part(jet: Jet2, d: int) -> Jet2:
    """The terms of *jet* of total degree d, with jet's valid_through."""
    re = {k: v for k, v in jet.re.items() if k[0] + k[1] == d}
    im = {k: v for k, v in jet.im.items() if k[0] + k[1] == d}
    return _jet(jet.mode, jet.den, re, im, jet.valid_through)


def known_through(jet: Jet2, d: int) -> Jet2:
    """The terms of *jet* of degree <= d, with valid_through set to d.

    It raises a claimed valid_through, which Jet2.truncate cannot: the
    caller vouches that the result is right through d wherever it is read,
    as the graded passes below know from the degree of the pass.
    """
    return _jet(jet.mode, jet.den, _zcut(jet.re, d), _zcut(jet.im, d), d)


def antiderivative_x(jet: Jet2) -> Jet2:
    """Term-wise integral in x with zero constant of integration."""
    valid = jet.valid_through if jet.valid_through == INF else jet.valid_through + 1
    if jet.mode == FLOAT:
        return Jet2(FLOAT, {(i + 1, j): v / complex(i + 1) for (i, j), v in jet.re.items()},
                    valid)
    # (re + i*im) / (den (i + 1)) over den * L, L the lcm of every i + 1
    lcm = math.lcm(*(i + 1 for i, _ in jet.re.keys() | jet.im.keys()))

    def part(a):
        return {(i + 1, j): v * (lcm // (i + 1)) for (i, j), v in a.items()}
    return _jet(EXACT, jet.den * lcm, part(jet.re), part(jet.im), valid)


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


def z_reciprocal(a: Jet2) -> Jet2:
    """Exact jet_reciprocal as it was before it ran on reduced parts: integer
    numerators B_s over D^s, reduced once at the end.

    a / a(0,0) = 1 + H / D with Gaussian-integer H and integer D, so the
    degree-s part of the inverse is B_s / D^s with
    B_s = -sum_{0<d<=s} D^(d-1) H_d B_(s-d).  valid_through and the degree
    bound are jet_reciprocal's.
    """
    valid = a.valid_through
    nonconstant = len(a.re.keys() | a.im.keys()) > 1
    if valid == INF and nonconstant:
        valid = DEFAULT_DEGREE
    bound = int(valid) if nonconstant else 0
    c_re, c_im = a.re.get((0, 0), 0), a.im.get((0, 0), 0)
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
    by_degree = {}
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


def f_reciprocal(a: Jet2) -> Jet2:
    """Float jet_reciprocal as it was before it ran on homogeneous parts: the
    same recurrence on whole complex levels, b_s = -b_0 * sum_{0<d<=s}
    a_d b_(s-d), scaled by -b_0 after the sum.  valid_through and the
    degree bound are jet_reciprocal's."""
    valid = a.valid_through
    nonconstant = len(a.re) > 1
    if valid == INF and nonconstant:
        valid = DEFAULT_DEGREE
    bound = int(valid) if nonconstant else 0
    inv0 = scalars.one(FLOAT) / a.re[(0, 0)]
    by_degree = {}
    for (i, j), v in a.re.items():
        if i + j > 0:
            by_degree.setdefault(i + j, {})[(i, j)] = v
    out = {(0, 0): inv0}
    levels = {0: out.copy()}
    for s in range(1, bound + 1):
        acc = {}
        for d, terms in by_degree.items():
            if d <= s:
                _zmul_into(acc, terms, levels[s - d], INF)
        levels[s] = _nonzero({k: -inv0 * v for k, v in acc.items()})
        out.update(levels[s])
    return _jet(FLOAT, 1, out, {}, valid)


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


# -- the graded Picard passes, each composing from degree 0 ----------------------
#
# germforge's three graded solvers as they were before their passes shared a
# RelaxedComposition: the same passes, each calling jet_compose2 without a
# state, so every pass composes again from degree 0.  The solvers must give
# the same den, re, im, valid_through and obstruction.

def t_graded_inverse(change, degree=None):
    """The compositional inverse of a series CoordinateChange by graded
    Picard passes (germ.CoordinateChange.inverse)."""
    if not change.invertible():
        raise NonInvertibleChange("Jacobian at 0 is singular")
    mode = change.comp1.mode
    valid = min(change.comp1.valid_through, change.comp2.valid_through)
    if degree is None:
        degree = valid if valid != INF else max(
            change.comp1.degree_bound(), change.comp2.degree_bound(), 1) * 2
    degree = int(min(degree, 64)) if degree != INF else 16
    top = min(degree, valid)
    j11, j12, j21, j22 = change.jacobian_at_origin()
    det = j11 * j22 - j12 * j21
    i11, i12, i21, i22 = j22 / det, -j12 / det, -j21 / det, j11 / det
    x = Jet2.variable("x", mode, INF)
    y = Jet2.variable("y", mode, INF)
    lin1 = x.scale(i11) + y.scale(i12)
    lin2 = x.scale(i21) + y.scale(i22)
    n1 = (change.comp1 - x.scale(j11) - y.scale(j12)).truncate(top)
    n2 = (change.comp2 - x.scale(j21) - y.scale(j22)).truncate(top)
    m1 = n1.scale(i11) + n2.scale(i12)
    m2 = n1.scale(i21) + n2.scale(i22)
    p1, p2 = lin1.truncate(top), lin2.truncate(top)
    for d in range(2, top + 1):
        s1, s2 = known_through(p1, d), known_through(p2, d)
        p1 = lin1 - jet_compose2(known_through(m1, d), s1, s2)
        p2 = lin2 - jet_compose2(known_through(m2, d), s1, s2)
    return CoordinateChange.from_series(p1, p2)


def t_graded_ode_solve(theta, degree):
    """du/dx = theta(x, u), u(0, y) = y by graded Picard passes
    (series.series_ode_solve)."""
    if theta.valid_through < degree:
        raise PrecisionExhausted(
            f"theta known to degree {theta.valid_through} < requested {degree}")
    mode = theta.mode
    x = Jet2.variable("x", mode, INF)
    y = Jet2.variable("y", mode, INF)
    u = y.truncate(min(degree, 0))
    for d in range(1, degree + 1):
        rhs = jet_compose2(theta.truncate(d - 1), x.truncate(d - 1), u)
        u = y + antiderivative_x(rhs)
    return u


def t_graded_linearize(x, degree=None):
    """The Martinet-Ramis normal form of x by one graded solve (mr.linearize),
    as a LinearizationResult."""
    degree = degree if degree is not None else series.DEFAULT_DEGREE
    mode = x.mode
    if mode != EXACT:
        raise ModeMismatch("linearize operates in exact mode")
    lin = linear_part(x)
    m = mr._positive_int(lin.matrix[0][0])
    n = mr._positive_int(-lin.matrix[1][1])
    if m is None or n is None or x.order() < 1 or lin.matrix[0][1] or lin.matrix[1][0]:
        raise BadParams("linearize requires X(0) = 0 and linear part exactly diag(m, -n), "
                        "m, n >= 1")
    top = min(degree, x.valid_through)
    xv = Jet2.variable("x", mode, INF)
    yv = Jet2.variable("y", mode, INF)
    lin_a, lin_b = xv.scale(m), yv.scale(-n)
    n1, n2 = (x.a - lin_a).truncate(top), (x.b - lin_b).truncate(top)
    phi = [xv.truncate(min(top, 1)), yv.truncate(min(top, 1))]
    res = [Jet2.zero(mode, min(top, 1))] * 2
    obstruction = None
    for d in range(2, top + 1):
        phi = [known_through(c, d) for c in phi]
        rhs = CoordinateChange.from_series(n1.truncate(d), n2.truncate(d)).compose(
            CoordinateChange.from_series(*phi))
        rhs = [rhs.comp1, rhs.comp2]
        if not (res[0].is_zero() and res[1].is_zero()):
            for k, h in enumerate((phi[0] - xv, phi[1] - yv)):
                rhs[k] = rhs[k] - jet_mul(jet_derive(h, "x"), res[0]) \
                    - jet_mul(jet_derive(h, "y"), res[1])
        res = [known_through(c, d) for c in res]
        for k, shift, name in ((0, -m, "x"), (1, n, "y")):
            h_d, r_d = {}, {}
            for (i, j), c in homogeneous_part(rhs[k], d).coeffs.items():
                gap = i * m - j * n + shift
                if gap:
                    h_d[(i, j)] = c / gap
                else:
                    r_d[(i, j)] = c
                    if obstruction is None:
                        obstruction = (i, j, name)
            if h_d:
                phi[k] = phi[k] + Jet2(mode, h_d, d)
            if r_d:
                res[k] = res[k] + Jet2(mode, r_d, d)
    linearized = VectorFieldGerm(lin_a + res[0], lin_b + res[1])
    return mr.LinearizationResult(CoordinateChange.from_series(*phi), linearized, obstruction)


def ode_residual(theta, u, degree):
    """du/dx - theta(x, u), truncated to degree - 1."""
    x = Jet2.variable("x", theta.mode, INF)
    lhs = jet_derive(u, "x")
    rhs = jet_compose2(theta.truncate(degree), x.truncate(degree), u.truncate(degree))
    return (lhs - rhs).truncate(degree - 1)


def rational_from_jet(jet):
    """The RationalFn jet / 1."""
    return RationalFn(jet, Jet2.const(1, jet.mode, INF))


def rational_equals(r, s, tol=0.0):
    """Whether r.num / r.den = s.num / s.den, by the cross-multiplied identity
    r.num s.den = s.num r.den (exact in exact mode)."""
    return jet_mul(r.num, s.den).equals(jet_mul(s.num, r.den), tol)


# -- brackets and frames as composites of jet operations ----------------------------
#
# germforge.germ's lie_bracket, derive_along and decompose as they were before
# each sum became one series.jet_dot: every partial a Jet2 from jet_derive,
# every product a Jet2 from jet_mul, and the sums Jet2 sums.  Exact results
# must agree in den, numerators and valid_through, and errors in class.

def t_derive_along(x, f):
    """A df/dx + B df/dy, or the quotient rule for a RationalFn."""
    if isinstance(f, RationalFn):
        num, den = f.num, f.den
        d_num = t_derive_along(x, num)
        d_den = t_derive_along(x, den)
        return RationalFn(jet_mul(d_num, den) - jet_mul(num, d_den), jet_mul(den, den))
    fx = jet_derive(f, "x")
    fy = jet_derive(f, "y")
    return jet_mul(x.a, fx) + jet_mul(x.b, fy)


def t_lie_bracket(x, y):
    """[X, Y] = (X.C - Y.A) dx + (X.D - Y.B) dy."""
    scalars.check_same_mode(x.mode, y.mode)
    return VectorFieldGerm(
        t_derive_along(x, y.a) - t_derive_along(y, x.a),
        t_derive_along(x, y.b) - t_derive_along(y, x.b),
    )


def dot_lie_bracket(x, y):
    """The exact lie_bracket as it was before it became one pass over term
    pairs (series.exact_bracket): 8 partial-derivative numerators and one
    series.jet_dot sum of four products per component."""
    scalars.check_same_mode(x.mode, y.mode)
    ca_x, ca_y = _zderive(y.a, "x"), _zderive(y.a, "y")
    aa_x, aa_y = _zderive(x.a, "x"), _zderive(x.a, "y")
    cb_x, cb_y = _zderive(y.b, "x"), _zderive(y.b, "y")
    ab_x, ab_y = _zderive(x.b, "x"), _zderive(x.b, "y")
    return VectorFieldGerm(
        jet_dot([(1, x.a, ca_x), (1, x.b, ca_y), (-1, y.a, aa_x), (-1, y.b, aa_y)]),
        jet_dot([(1, x.a, cb_x), (1, x.b, cb_y), (-1, y.a, ab_x), (-1, y.b, ab_y)]),
    )


def t_decompose(z, x, y):
    """f = (PD - QC)/(AD - BC), g = (QA - PB)/(AD - BC)."""
    a, b = x.a, x.b
    c, d = y.a, y.b
    p, q = z.a, z.b
    det = jet_mul(a, d) - jet_mul(b, c)
    if det.is_zero():
        raise DegenerateFrame("AD - BC vanishes at available precision")
    f = RationalFn(jet_mul(p, d) - jet_mul(q, c), det)
    g = RationalFn(jet_mul(q, a) - jet_mul(p, b), det)
    return f, g


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


def h_psi_flow(n, chart, s, base, num, den):
    """Psi^s on F_n: the fiber moves by s in chart 0 and by s u^n in
    chart 1, which is y + s written in v = y / x^n: (base, fiber num, fiber den)."""
    shift = s if chart == 0 else gr_mul(s, gr_pow(base, n))
    return base, gr_add(num, gr_mul(shift, den)), den


def h_transition(n, base, num, den):
    """The same point of F_n in the other chart, for base != 0: (u, v) =
    (1/x, y/x^n) and back, the fiber denominator times base^n."""
    return gr_inv(base), num, gr_mul(den, gr_pow(base, n))


def gr_binomial_sum(n: int, a: GaussianRational, b) -> GaussianRational:
    """S(a, b) = sum_{k=1}^{n+1} C(n+1, k) a^(k-1) b^(n+1-k), by Horner in a
    on GaussianRationals: the fiber shift of the Hirzebruch flow Phi is
    t S(t, x) in chart 0 and t S(t u, 1) in chart 1."""
    total = b_pow = GaussianRational(1)     # the k = n+1 term, and b^0
    for k in range(n, 0, -1):
        b_pow = b_pow * b
        total = total * a + comb(n + 1, k) * b_pow
    return total


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
           max_step: float, guard: Optional[Callable] = None,
           max_steps: int = numflow.MAX_STEPS, fsal: bool = False,
           counts: Optional[dict] = None) -> Tuple[complex, ...]:
    """Integrate dy/ds = f(s, y) on [0, s_end] with PI step control.

    The generic n-component Dormand-Prince 5(4) loop that numflow._rk45
    unrolls for two components; the stage sums are built with sum().  Like
    the kernel, it raises StepFailure after more than *max_steps* accepted
    steps, and rejects a step whose error is nan in any component or whose
    y5 is not finite.  With fsal=False every step computes its seven stages
    afresh, the kernel as it was before it reused stage 7; with fsal=True an
    accepted step's stage 7 is the next step's stage 1, a rejected step
    keeps its stage 1, and the first stage 1 is computed after the underflow
    check, as numflow._rk45 does.  *counts*, if given, gains the numbers of accepted
    and rejected steps under the keys "accepted" and "rejected".
    """
    s = 0.0
    y = tuple(y0)
    h = min(max_step, s_end)
    min_step = s_end * 1e-14
    nfail = steps = 0
    k1 = None
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
                elif fsal and k1 is not None:
                    ks.append(k1)
                    continue
                ks.append(f(s + h * sum(_DP_A[stage]) if stage else s, arg))
        except (OverflowError, ZeroDivisionError) as exc:
            raise StepFailure(f"vector field blew up at s={s}: {exc}", partial=y)
        k1 = ks[0]
        y5 = tuple(
            y[i] + h * sum(b * ks[j][i] for j, b in enumerate(_DP_B5))
            for i in range(len(y))
        )
        y4 = tuple(
            y[i] + h * sum(b * ks[j][i] for j, b in enumerate(_DP_B4))
            for i in range(len(y))
        )
        errs = [abs(a - b) for a, b in zip(y5, y4)]
        err = math.nan if any(e != e for e in errs) else max(errs)
        scale = tol * max(1.0, max(abs(v) for v in y5))
        if err <= scale < math.inf:
            s += h
            y = y5
            k1 = ks[6]
            steps += 1
            if counts is not None:
                counts["accepted"] = counts.get("accepted", 0) + 1
            if steps > max_steps:
                raise StepFailure(f"more than {max_steps} steps by s={s}", partial=y)
            if guard is not None:
                guard(s, y)
            nfail = 0
            factor = 2.0 if err == 0 else min(2.0, 0.9 * (scale / err) ** 0.2)
            h = min(max_step, h * factor)
        else:
            if counts is not None:
                counts["rejected"] = counts.get("rejected", 0) + 1
            nfail += 1
            if nfail > 60:
                raise StepFailure("repeated step rejection", partial=y)
            h *= max(0.1, 0.9 * (scale / err) ** 0.25)
    return y


# -- numflow probes that only tests reach ---------------------------------------

def integrate_flow(x: VectorFieldGerm, z0: Tuple[complex, complex],
                   path: TimePath) -> Tuple[complex, complex]:
    """Endpoint of the solution through z0 along the complex time path."""
    a_terms, b_terms = _lower_field(x)
    z = (complex(z0[0]), complex(z0[1]))
    for t0, t1 in zip(path.waypoints, path.waypoints[1:]):
        dt = t1 - t0

        def rhs(_s, u, v):
            return dt * eval_poly(a_terms, u, v), dt * eval_poly(b_terms, u, v)

        z = numflow._rk45(rhs, z, 1.0, path.tol, path.max_step / max(abs(dt), 1e-12))
    return z


def residue_probe_1d(h: Jet1, radius: float, tol: float = 1e-12,
                     max_doublings: int = 16) -> complex:
    """Contour integral of dz/h over |z| = radius by periodic trapezoid.

    For an order-2 germ this equals 2*pi*i times the residue obstructing
    semicompleteness: an independent numerical oracle for onedim_check.
    """
    hf = h.to_float()
    terms = list(hf.coeffs.items())

    def integrand(s: float) -> complex:
        z = radius * cmath.exp(2j * math.pi * s)
        val = sum(cc * z ** k for k, cc in terms)
        if val == 0:
            raise StepFailure("field vanishes on the probe circle")
        return 2j * math.pi * z / val

    return periodic_trapezoid(integrand, 32, tol, max_doublings)


# -- the expression parser with an AST ---------------------------------------------
#
# germforge.parser as it was before it became one pass: a tokenizer that
# builds one _Token per token, a parser that builds the AST, and eval_node,
# the evaluator on stored numerators that walks it (with the value helpers
# that germforge.parser still uses, and the constant slot c that the parser's
# exact fold carried until it read a RationalFn by node instead: _leaf_den,
# _cmul, _taken, _cpow and the constant-multiplying _pair).  pretty prints
# an AST as text that parses back to it.

# -- AST ---------------------------------------------------------------------

@dataclass
class Const:
    value: Fraction
    imag: bool = False          # value * i when set
    decimal: bool = False


@dataclass
class Var:
    name: str


@dataclass
class Neg:
    inner: "Node"


@dataclass
class Add:
    terms: List[Tuple[int, "Node"]]     # (sign, node)


@dataclass
class Mul:
    factors: List["Node"]


@dataclass
class Quot:
    num: "Node"
    den: "Node"


@dataclass
class Pow:
    base: "Node"
    exponent: int


Node = Union[Const, Var, Neg, Add, Mul, Quot, Pow]


# -- tokenizer ----------------------------------------------------------------

_TOKEN_CHARS = set("+-*/^()[],")


@dataclass
class _Token:
    kind: str       # "num", "name", or a punctuation character
    text: str
    pos: int


def _tokenize(text: str) -> List[_Token]:
    out: List[_Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _TOKEN_CHARS:
            out.append(_Token(ch, ch, i))
            i += 1
            continue
        if ch.isdecimal() or (ch == "." and i + 1 < n and text[i + 1].isdecimal()):
            j = i
            seen_dot = False
            while j < n and (text[j].isdecimal() or (text[j] == "." and not seen_dot)):
                if text[j] == ".":
                    seen_dot = True
                j += 1
            out.append(_Token("num", text[i:j], i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and text[j].isalnum():
                j += 1
            out.append(_Token("name", text[i:j], i))
            i = j
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", i)
    out.append(_Token("end", "", n))
    return out


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.k = 0

    def peek(self) -> _Token:
        return self.tokens[self.k]

    def advance(self) -> _Token:
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ExprSyntaxError(
                f"expected {kind!r}, found {tok.text or 'end of input'!r}", tok.pos
            )
        return self.advance()

    # expr := sign? term (('+'|'-') term)*
    def expr(self) -> Node:
        terms: List[Tuple[int, Node]] = []
        sign = 1
        if self.peek().kind in ("+", "-"):
            sign = 1 if self.advance().kind == "+" else -1
        terms.append((sign, self.term()))
        while self.peek().kind in ("+", "-"):
            sign = 1 if self.advance().kind == "+" else -1
            terms.append((sign, self.term()))
        if len(terms) == 1 and terms[0][0] == 1:
            return terms[0][1]
        if len(terms) == 1:
            return Neg(terms[0][1])
        return Add(terms)

    # term := factor (('*'|'/') factor)*
    def term(self) -> Node:
        node = self.factor()
        product: Optional[Mul] = None   # the product this loop is building
        while self.peek().kind in ("*", "/"):
            op = self.advance().kind
            rhs = self.factor()
            if op == "*":
                if node is product:
                    product.factors.append(rhs)
                else:
                    node = product = Mul([node, rhs])
            else:
                node = Quot(node, rhs)
        return node

    # factor := base ('^' uint)?
    def factor(self) -> Node:
        node = self.base()
        if self.peek().kind == "^":
            self.advance()
            tok = self.expect("num")
            if "." in tok.text:
                raise ExprSyntaxError("exponent must be a non-negative integer", tok.pos)
            return Pow(node, int(tok.text))
        return node

    def base(self) -> Node:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            if "." in tok.text:
                return Const(Fraction(tok.text), decimal=True)
            return Const(Fraction(int(tok.text)))
        if tok.kind == "name":
            self.advance()
            if tok.text == "i":
                return Const(Fraction(1), imag=True)
            if tok.text in ("x", "y", "z"):
                return Var(tok.text)
            raise UnknownVariable(f"unknown variable {tok.text!r} (at position {tok.pos})")
        if tok.kind == "(":
            self.advance()
            inner = self.expr()
            self.expect(")")
            return inner
        raise ExprSyntaxError(
            f"expected a number, variable or '(', found {tok.text or 'end of input'!r}",
            tok.pos,
        )


def parse_expression(text: str) -> Node:
    """Parse a single expression into its AST."""
    p = _Parser(text)
    node = p.expr()
    tok = p.peek()
    if tok.kind != "end":
        raise ExprSyntaxError(f"unexpected trailing input {tok.text!r}", tok.pos)
    return node


_ONE = {EXACT: 1, scalars.FLOAT: 1 + 0j}


def eval_node(node: Node, mode: str, degree: int, variables=("x", "y")) -> object:
    """Evaluate to a Jet2 (unit or trivial denominator) or RationalFn.

    z-expressions (variables=("z",)) evaluate through the same machinery with
    z mapped to the first slot, returning Jet1.
    """
    num, den, _ = _n_eval(node, mode, degree, variables)
    if den is None:
        return _p_restrict(_jet(mode, *num), variables)
    num, den = _jet(mode, *num), _jet(mode, *den)
    if den.degree_bound() == 0:
        c = den.coeffs.get((0, 0), scalars.one(mode))
        inv = scalars.one(mode) / c
        return _p_restrict(num.scale(inv), variables)
    status, quot = exact_divide(num, den)
    if status == DIVISIBLE and quot is not None and variables == ("x", "y"):
        return quot
    if variables != ("x", "y"):
        raise GermforgeError("1-variable expressions must be polynomial in z")
    return RationalFn(num, den)


def _p_restrict(jet: Jet2, variables):
    if variables == ("x", "y"):
        return jet
    return jet.restrict_y0()


def _leaf_den(mode: str):
    """The denominator of a constant or variable: none in exact mode; in
    float mode the constant 1, so that every float value carries its
    denominator and takes the products and sums of the per-node jets (a
    float product by 1 + 0j can change the sign of a zero part, and a
    constant divided out early loses what later cancellation would keep)."""
    return None if mode == EXACT else (*series._unit(mode), INF)


def _cmul(a, b):
    """The product of two constants (cd, cr, ci), None standing for 1; with
    a deferred product (a list) it is deferred too."""
    if a is None:
        return b
    if b is None:
        return a
    if type(a) is list or type(b) is list:
        return [a, b]
    return a[0] * b[0], a[1] * b[1] - a[2] * b[2], a[1] * b[2] + a[2] * b[1]


def _taken(c):
    """The constant c with its deferred products taken.  A sum's constant is
    read only if a nonconstant denominator enters later or the sum is
    raised to a power, so the sum keeps its terms' constants in a list
    until then; the ints of their _cmul products do not depend on the
    order they are taken in."""
    if type(c) is not list:
        return c
    out = None
    for f in c:
        out = _cmul(out, _taken(f))
    return out


def _cpow(c, e: int):
    """c^e of a constant (cd, cr, ci), None standing for 1: the ints of e
    _cmul products, by squaring and multiplying."""
    c, out = _taken(c), None
    while e:
        if e & 1:
            out = _cmul(out, c)
        e >>= 1
        if e:
            c = _cmul(c, c)
    return out


def _pair(val: tuple) -> tuple:
    """The numerator and denominator of a value: (num * c, c) for a folded
    (exact) one."""
    num, den, c = val
    if den is not None:
        return num, den
    if c is None:
        return num, (*series._unit(EXACT), INF)
    cd, cr, ci = _taken(c)
    return ((num[0] * cd, *_zscaled(num[1], num[2], cr, ci), num[3]),
            (cd, {(0, 0): cr} if cr else {}, {(0, 0): ci} if ci else {}, INF))


def _n_eval(node: Node, mode: str, degree: int, variables) -> tuple:
    """The value of *node* as (num, den, c): the reference for the old exact
    fold, which kept the product c of the constants a value divided by
    beside it.  num is (d, re, im, valid); den is None while an exact
    denominator is a constant, and c is then that constant as (cd, cr, ci),
    meaning (cr + ci*i) / cd, None for 1, or a list of products not taken
    yet (see _taken); otherwise den is the denominator and c is None.

    Every operation gives what the numerator/denominator pair of jets would
    give, with the product rule of series._mul_valid, in as few steps:
    - a power runs series._zpow, which takes a single term c x^i y^j
      straight to c^e x^(ie) y^(je);
    - in exact mode, a sum of terms with constant denominators puts their
      folded numerators over the lcm of the denominators and reduces once;
    - in exact mode, a constant denominator stays one scalar factor c beside
      the folded numerator.  Its valid_through never matters: every value has
      valid_through <= degree + its order, so a product by a constant known
      through the working degree keeps the other factor's valid_through.
      A RationalFn keeps the numerator and denominator that multiplying
      through by each denominator gives (51/300/y is 51/(300 y), not
      17/(100 y)), so c is multiplied back into both (_pair) when a
      nonconstant denominator enters.
    """
    if isinstance(node, Const):
        if mode == EXACT:
            d, v = node.value.denominator, node.value.numerator
        else:
            d, v = 1, (1j * float(node.value) if node.imag else complex(float(node.value)))
        terms = {(0, 0): v} if v and degree >= 0 else {}
        if node.imag and mode == EXACT:
            return (d, {}, terms, degree), None, None
        return (d, terms, {}, degree), _leaf_den(mode), None
    if isinstance(node, Var):
        if node.name not in variables:
            raise UnknownVariable(
                f"variable {node.name!r} not allowed here (expected one of {variables})"
            )
        key = (1, 0) if node.name in ("x", "z") else (0, 1)
        return (1, {key: _ONE[mode]} if degree >= 1 else {}, {}, degree), _leaf_den(mode), None
    if isinstance(node, Neg):
        num, den, c = _n_eval(node.inner, mode, degree, variables)
        return _negated(num), den, c
    if isinstance(node, Add):
        vals = [(sign, _n_eval(term, mode, degree, variables)) for sign, term in node.terms]
        if all(val[1] is None for _, val in vals):
            c = None
            for _, val in vals:
                c = _cmul(c, val[2])
            return _lin_sum([(sign, val[0]) for sign, val in vals]), None, c
        # num1/den1 + num2/den2 is (num1 den2 + num2 den1) / (den1 den2), term by term
        total = None
        for sign, val in vals:
            num, den = _pair(val)
            if sign < 0:
                num = _negated(num)
            if total is not None:
                n1, n2 = _times(total[0], den), _times(num, total[1])
                valid = min(n1[3], n2[3])
                num, den = (*_reduced(*_zsum(*n1[:3], *n2[:3], valid)), valid), \
                    _times(total[1], den)
            total = num, den
        return (*total, None)
    if isinstance(node, Mul):
        acc = _n_eval(node.factors[0], mode, degree, variables)
        for f in node.factors[1:]:
            val = _n_eval(f, mode, degree, variables)
            if acc[1] is None and val[1] is None:
                acc = _times(acc[0], val[0]), None, _cmul(acc[2], val[2])
            else:
                (n1, d1), (n2, d2) = _pair(acc), _pair(val)
                acc = _times(n1, n2), _times(d1, d2), None
        return acc
    if isinstance(node, Quot):
        top = _n_eval(node.num, mode, degree, variables)
        bottom = _n_eval(node.den, mode, degree, variables)
        b = bottom[0]
        if not b[1] and not b[2]:
            raise ZeroDenominator(f"denominator of {pretty(node)} vanishes to degree {degree}")
        if top[1] is None and bottom[1] is None and b[1].keys() <= _ORIGIN \
                and b[2].keys() <= _ORIGIN:
            # divide the folded numerator by the constant (r + s i) / d:
            # multiply by d (r - s i) / (r^2 + s^2)
            d, r, s = b[0], b[1].get((0, 0), 0), b[2].get((0, 0), 0)
            a = top[0]
            num = *_reduced(a[0] * (r * r + s * s), *_zscaled(a[1], a[2], d * r, -d * s)), a[3]
            return num, None, _cmul(_cmul(top[2], bottom[2]), (d, r, s))
        (n1, d1), (n2, d2) = _pair(top), _pair(bottom)
        return _times(n1, d2), _times(d1, n2), None
    if isinstance(node, Pow):
        num, den, c = _n_eval(node.base, mode, degree, variables)
        e = node.exponent
        if den is not None:
            den = _power(mode, den, e, degree)
            if not den[1] and not den[2]:
                raise ZeroDenominator(f"denominator of {pretty(node)} vanishes to degree {degree}")
        else:
            c = _cpow(c, e)
        return _power(mode, num, e, degree), den, c
    raise TypeError(f"unknown AST node {node!r}")


# -- pretty printer -------------------------------------------------------------

def pretty(node: Node) -> str:
    """Canonical text form: parse_expression(pretty(node)) has the value of
    *node* and prints as the same text."""
    node = _canonical(node)
    if isinstance(node, Const):
        return "i" if node.imag else str(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        return f"-{_wrap(node.inner)}"
    if isinstance(node, Add):
        parts = []
        for k, (sign, term) in enumerate(node.terms):
            op = "" if (k == 0 and sign > 0) else ("+" if sign > 0 else "-")
            parts.append(f"{op}{_wrap(term, (Add, Neg))}")
        return "".join(parts)
    if isinstance(node, Mul):
        return "*".join(_wrap(f) for f in node.factors)
    if isinstance(node, Quot):
        return f"{_wrap(node.num)}/{_wrap(node.den)}"
    if isinstance(node, Pow):
        return f"{_wrap(node.base, (Add, Neg, Mul, Quot, Pow))}^{node.exponent}"
    raise TypeError(node)


def _canonical(node: Node) -> Node:
    """The node that the parser builds from the text of *node*, at its top:
    a constant other than a natural number or i becomes -c, p/q or c*i, and
    a sum of one term or a product of one factor becomes that term."""
    while True:
        if isinstance(node, Const):
            v = node.value
            if v < 0:
                return Neg(Const(-v, node.imag))
            if node.imag and v != 1:
                return Mul([Const(v), Const(Fraction(1), imag=True)])
            if v.denominator != 1:
                return Quot(Const(Fraction(v.numerator)), Const(Fraction(v.denominator)))
            return node
        if isinstance(node, Add) and len(node.terms) == 1:
            sign, term = node.terms[0]
            if sign < 0:
                return Neg(term)
            node = term
        elif isinstance(node, Mul) and len(node.factors) == 1:
            node = node.factors[0]
        else:
            return node


def _wrap(node: Node, wrapped=(Add, Neg, Mul, Quot)) -> str:
    """*node* as an operand: in parentheses when it is one of *wrapped*
    (those of a product, quotient or negation by default)."""
    node = _canonical(node)
    if isinstance(node, wrapped):
        return f"({pretty(node)})"
    return pretty(node)


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
    as the parser evaluated it with a Jet2 per node."""
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
        order = base.num.order()
        if 1 <= order < INF and node.exponent * order > degree and (
                base.den is None or base.den.order() == 0):
            # over a unit the power is zero through the degree, over the constant 1
            return _RatValue(t_jet_pow(base.num, node.exponent).truncate(degree))
        den = None
        if base.den is not None:
            den = t_jet_pow(base.den, node.exponent).truncate(degree)
            if den.is_zero():
                raise ZeroDenominator(f"denominator of {pretty(node)} vanishes to degree {degree}")
        return _RatValue(t_jet_pow(base.num, node.exponent).truncate(degree), den)
    raise TypeError(f"unknown AST node {node!r}")


# -- Martinet-Ramis linearization ---------------------------------------------

@dataclass
class ResonanceData:
    m: int
    n: int
    degree: int
    dx_monomials: List[Tuple[int, int]]
    dy_monomials: List[Tuple[int, int]]


def resonant_monomials(m: int, n: int, degree: int) -> ResonanceData:
    """All resonant monomials of diag(m, -n) of total degree <= degree.

    Solutions of the eigenvalue relation are x*(x^n y^m)^(k/g) on dx and
    y*(x^n y^m)^(k/g) on dy with g = gcd(m, n), k >= 1.
    """
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


def t_linearize(x, m, n, degree):
    """(change, linearized, obstruction) of the field x with linear part
    diag(m, -n) by iterated elimination: for d = 2 .. degree, the
    non-resonant degree-d terms of the current field are removed by the step
    id + h_d, h_d = v / gap, which pulls the whole field back and is composed
    onto the change so far.  The change is the composite of the steps, so
    it may hold resonant monomials; it claims valid_through *degree*."""
    current = x.truncate(degree)
    change = None
    obstruction = None
    xv = Jet2.variable("x", EXACT, degree)
    yv = Jet2.variable("y", EXACT, degree)
    for d in range(2, degree + 1):
        pa = homogeneous_part(current.a, d)
        pb = homogeneous_part(current.b, d)
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
            h1[(i, j)] = v / GaussianRational(gap)
        for (i, j), v in pb.coeffs.items():
            gap = i * m - j * n + n
            if gap == 0:
                if obstruction is None:
                    obstruction = (i, j, "y")
                continue
            h2[(i, j)] = v / GaussianRational(gap)
        if not h1 and not h2:
            continue
        step = CoordinateChange.from_series(
            xv + Jet2(EXACT, h1, degree), yv + Jet2(EXACT, h2, degree)
        )
        current = pullback(current, step).truncate(degree)
        change = step if change is None else change.compose(step)
    if change is None:
        change = CoordinateChange.from_series(xv, yv)
    return change, current, obstruction


# -- the scalar with two Fraction parts ---------------------------------------------

class FractionPairGR:
    """Element of Q(i) with Fraction real and imaginary parts: the scalar
    germforge.scalars.GaussianRational was before it stored reduced ints."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if isinstance(re, Fraction) else Fraction(re)
        self.im = im if isinstance(im, Fraction) else Fraction(im)

    # -- constructors ---------------------------------------------------
    @classmethod
    def from_value(cls, value) -> "FractionPairGR":
        if isinstance(value, FractionPairGR):
            return value
        if isinstance(value, (int, Fraction)):
            return cls(value, 0)
        if isinstance(value, complex):
            raise ModeMismatch("cannot build an exact scalar from a float complex")
        raise TypeError(f"cannot build GaussianRational from {value!r}")

    # -- arithmetic ------------------------------------------------------
    def __add__(self, other):
        other = FractionPairGR.from_value(other)
        return FractionPairGR(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = FractionPairGR.from_value(other)
        return FractionPairGR(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return FractionPairGR.from_value(other) - self

    def __neg__(self):
        return FractionPairGR(-self.re, -self.im)

    def __mul__(self, other):
        other = FractionPairGR.from_value(other)
        return FractionPairGR(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = FractionPairGR.from_value(other)
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        return FractionPairGR(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def __rtruediv__(self, other):
        return FractionPairGR.from_value(other) / self

    def __pow__(self, e: int):
        """Integer power by repeated multiplication; e < 0 inverts self^(-e)."""
        if e < 0:
            return FractionPairGR(1) / self ** -e
        out = FractionPairGR(1)
        for _ in range(e):
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = FractionPairGR(other, 0)
        if not isinstance(other, FractionPairGR):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def sqrt(self):
        """Exact square root inside Q(i), or None when there is none."""
        norm2 = self.re * self.re + self.im * self.im
        r = _fp_fraction_sqrt(norm2)
        if r is None:
            return None
        c2 = (self.re + r) / 2
        c = _fp_fraction_sqrt(c2)
        if c is None:
            return None
        if c == 0:
            d = _fp_fraction_sqrt(-self.re)
            if d is None:
                return None
            return FractionPairGR(0, d)
        d = self.im / (2 * c)
        cand = FractionPairGR(c, d)
        if cand * cand == self:
            return cand
        return None

    def to_complex(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return fp_format_exact(self)


def _fp_fraction_sqrt(q: Fraction):
    """Square root of a non-negative rational if it is again rational."""
    if q < 0:
        return None
    if q == 0:
        return Fraction(0)
    n, d = q.numerator, q.denominator
    rn = isqrt(n)
    rd = isqrt(d)
    if rn * rn != n or rd * rd != d:
        return None
    return Fraction(rn, rd)


def fp_format_exact(value: FractionPairGR) -> str:
    """Serialize as "p/q", "r/s*i" or "p/q+r/s*i" (lossless)."""
    re_s = str(value.re)
    im = value.im
    if im == 0:
        return re_s
    im_s = f"{im}*i"
    if value.re == 0:
        return im_s
    return f"{re_s}+{im_s}" if im > 0 else f"{re_s}-{-im}*i"


def fp_parse_exact(text: str) -> FractionPairGR:
    """Inverse of :func:`fp_format_exact`."""
    s = text.strip().replace(" ", "")
    if s.endswith("*i"):
        body = s[:-2]
        split = _fp_split_signed(body)
        if split is None:
            return FractionPairGR(0, Fraction(body))
        re_part, sign, im_part = split
        return FractionPairGR(Fraction(re_part), sign * Fraction(im_part))
    return FractionPairGR(Fraction(s), 0)


def _fp_split_signed(body: str):
    # split "p/q+r/s" style at the last top-level sign (not the leading one)
    for k in range(len(body) - 1, 0, -1):
        c = body[k]
        if c in "+-" and body[k - 1] not in "+-/":
            return body[:k], (1 if c == "+" else -1), body[k + 1:]
    return None


# -- re-keying, comparing and lowering through the scalar view ---------------------
#
# Jet2's restrict_y0, restrict_x0, divide_monomial, equals and to_float,
# VectorFieldGerm.swap_axes and germforge.blowup's _substitute_line as they
# were before they ran on the stored numerators: each walked the scalar view
# and built its result through Jet2() (a restriction as the Jet2 in x alone
# that a Jet1 holds).  The library's must store the same den, re, im and
# valid_through in the same term order, give the same booleans and raise the
# same NotDivisible message.

def v_restrict_y0(jet: Jet2) -> Jet2:
    return Jet2(jet.mode, {(i, 0): v for (i, j), v in jet.coeffs.items() if j == 0},
                jet.valid_through)


def v_restrict_x0(jet: Jet2) -> Jet2:
    return Jet2(jet.mode, {(j, 0): v for (i, j), v in jet.coeffs.items() if i == 0},
                jet.valid_through)


def v_divide_monomial(jet: Jet2, i: int, j: int) -> Jet2:
    out = {}
    for (a, b), v in jet.coeffs.items():
        if a < i or b < j:
            raise NotDivisible(f"not divisible by x^{i} y^{j}: term x^{a} y^{b}")
        out[(a - i, b - j)] = v
    valid = jet.valid_through if jet.valid_through == INF else jet.valid_through - (i + j)
    return Jet2(jet.mode, out, valid)


def v_swap_axes(x: VectorFieldGerm) -> VectorFieldGerm:
    sw = lambda jet: Jet2(jet.mode, {(j, i): v for (i, j), v in jet.coeffs.items()},
                          jet.valid_through)
    return VectorFieldGerm(sw(x.b), sw(x.a))


def v_substitute_line(jet: Jet2, chart: int) -> Jet2:
    out = {}
    for (i, j), v in jet.coeffs.items():
        key = (i + j, j) if chart == 0 else (i, i + j)
        out[key] = out.get(key, scalars.zero(jet.mode)) + v
    return Jet2(jet.mode, out, jet.valid_through)


def _is_zero_scalar(value, mode: str, tol: float = 0.0) -> bool:
    """A scalar within *tol* of zero (exact scalars: zero)."""
    if mode == EXACT:
        return value.is_zero()
    return abs(value) <= tol


def v_equals(a: Jet2, b: Jet2, tol: float = 0.0) -> bool:
    scalars.check_same_mode(a.mode, b.mode)
    valid = min(a.valid_through, b.valid_through)
    z = scalars.zero(a.mode)
    for k in set(a.coeffs) | set(b.coeffs):
        if k[0] + k[1] <= valid and not _is_zero_scalar(
                a.coeffs.get(k, z) - b.coeffs.get(k, z), a.mode, tol):
            return False
    return True


def v_to_float(jet: Jet2) -> Jet2:
    if jet.mode == FLOAT:
        return jet
    return Jet2(FLOAT, {k: v.to_complex() for k, v in jet.coeffs.items()}, jet.valid_through)


def v_jet2_to_json(jet: Jet2) -> dict:
    """germforge.report.jet2_to_json as it was before it formatted the stored
    numerators: each term a GaussianRational of the scalar view, printed
    through its two Fraction parts (scalars.format_exact then)."""
    def scalar(v):
        if isinstance(v, GaussianRational):
            return fp_format_exact(FractionPairGR(v.re, v.im))
        return {"re": repr(v.real), "im": repr(v.imag)}
    valid = "inf" if jet.valid_through == INF else int(jet.valid_through)
    return {"vars": ["x", "y"], "mode": jet.mode, "valid_through": valid,
            "terms": [[i, j, scalar(v)] for (i, j), v in sorted(jet.coeffs.items())]}


def scan_exact_divide(num: Jet2, den: Jet2):
    """germforge.series.exact_divide as it was before it took the next
    remainder key from a heap: each step scans the whole remainder for its
    least graded-lex key.  The oracle of its status and stored quotient."""
    scalars.check_same_mode(num.mode, den.mode)
    if den.is_zero():
        raise ZeroDenominator("exact_divide by zero jet")
    if num.is_zero():
        return DIVISIBLE, Jet2.zero(num.mode, num.valid_through)
    pivot = min(den.coeffs, key=_glex_key)
    pdeg = pivot[0] + pivot[1]
    pval = den.coeffs[pivot]
    q_valid = min(num.valid_through, den.valid_through)
    if q_valid != INF:
        q_valid -= pdeg
        if q_valid < 0:
            return series.UNKNOWN, None
    polynomial_inputs = q_valid == INF
    limit = num.degree_bound() if polynomial_inputs else q_valid + pdeg
    rem = dict(num.coeffs)
    quot = {}
    z = scalars.zero(num.mode)
    while rem:
        key = min(rem, key=_glex_key)
        if key[0] + key[1] > limit:
            if polynomial_inputs:
                return series.NOT_DIVISIBLE, None
            break
        i, j = key
        if i < pivot[0] or j < pivot[1]:
            return series.NOT_DIVISIBLE, None
        qkey = (i - pivot[0], j - pivot[1])
        c = rem.pop(key) / pval
        quot[qkey] = c
        for (di, dj), dv in den.coeffs.items():
            if (di, dj) == pivot:
                continue
            rkey = (qkey[0] + di, qkey[1] + dj)
            if not polynomial_inputs and rkey[0] + rkey[1] > limit:
                continue
            nv = rem.get(rkey, z) - c * dv
            if _is_zero_scalar(nv, num.mode):
                rem.pop(rkey, None)
            else:
                rem[rkey] = nv
    return DIVISIBLE, Jet2(num.mode, quot, q_valid)
