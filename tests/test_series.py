"""Series kernel: arithmetic, precision bookkeeping, residues, the ODE solver."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from germforge.errors import (
    BadParams,
    CompositionAtNonzeroPoint,
    ModeMismatch,
    NonInvertibleChange,
    NotAUnit,
    NotDivisible,
    PrecisionExhausted,
    ZeroDenominator,
)
from germforge.blowup import _substitute_line
from germforge.germ import CoordinateChange, VectorFieldGerm
from germforge.parser import parse_to_jet2
from germforge.scalars import EXACT, FLOAT, GaussianRational
from germforge.series import (
    DEFAULT_DEGREE,
    DIVISIBLE,
    INF,
    NOT_DIVISIBLE,
    UNKNOWN,
    Jet1,
    Jet2,
    exact_divide,
    jet_compose1,
    jet_compose2,
    jet_derive,
    jet_mul,
    jet_pow,
    jet_reciprocal,
    laurent_residue,
    series_ode_solve,
    _rekeyed,
)

import oracles


def x(valid=16):
    return Jet2.variable("x", EXACT, valid)


def y(valid=16):
    return Jet2.variable("y", EXACT, valid)


# -- products -----------------------------------------------------------------

def test_monomial_product():
    p = jet_mul(x(), y())
    assert p.coeffs == {(1, 1): GaussianRational(1)}


def test_elliptic_component_product():
    p = jet_mul(x() - y().scale(2), x())
    assert p.coeffs == {(2, 0): GaussianRational(1), (1, 1): GaussianRational(-2)}


def test_geometric_series_inverse_product():
    one = Jet2.const(1, EXACT, 10)
    inv = jet_reciprocal(one + x(10))
    assert jet_mul(one + x(10), inv).equals(one)


def test_product_precision_rule():
    a = x(5)          # valid 5, order 1
    b = y(7)          # valid 7, order 1
    p = jet_mul(a, b)
    assert p.valid_through == 6  # min(5 + 1, 7 + 1)


def test_mode_mixing_is_an_error():
    with pytest.raises(ModeMismatch):
        jet_mul(x(), Jet2.variable("x", FLOAT, 8))


# -- reciprocal ----------------------------------------------------------------

def test_reciprocal_identity():
    one = Jet2.const(1, EXACT, 8)
    assert jet_reciprocal(one).equals(one)


def test_reciprocal_geometric():
    one = Jet2.const(1, EXACT, 6)
    r = jet_reciprocal(one + x(6))
    for k in range(7):
        assert r.coeff(k, 0) == GaussianRational((-1) ** k)


def test_reciprocal_of_mr_style_unit():
    # 1 + 2(xy) -> 1 - 2xy + 4x^2y^2 - ..., checked by multiplying back
    one = Jet2.const(1, EXACT, 10)
    u = one + jet_mul(x(10), y(10)).scale(2)
    r = jet_reciprocal(u)
    assert jet_mul(u, r).equals(one)
    assert r.coeff(1, 1) == GaussianRational(-2)
    assert r.coeff(2, 2) == GaussianRational(4)


def test_reciprocal_nonunit_raises():
    with pytest.raises(NotAUnit):
        jet_reciprocal(x())


def test_reciprocal_roundtrip_random_units():
    rng = random.Random(12345)
    one = Jet2.const(1, EXACT, 8)
    for _ in range(100):
        coeffs = {(0, 0): GaussianRational(rng.randint(1, 5))}
        for i in range(3):
            for j in range(3 - i):
                if i == j == 0:
                    continue
                c = rng.randint(-3, 3)
                if c:
                    coeffs[(i, j)] = GaussianRational(c, rng.randint(-1, 1))
        u = Jet2(EXACT, coeffs, 8)
        prod = jet_mul(u, jet_reciprocal(u))
        assert prod.equals(one)


# -- composition -----------------------------------------------------------------

def test_compose1_square_of_monomial():
    f = Jet1.from_coeffs({2: 1}, EXACT)
    g = jet_mul(x(), y())
    assert jet_compose1(f, g).coeffs == {(2, 2): GaussianRational(1)}


def test_compose1_affine():
    f = Jet1.from_coeffs({0: 1, 1: 1}, EXACT)
    g = jet_mul(jet_mul(x(), x()), y())
    out = jet_compose1(f, g)
    assert out.coeff(0, 0) == GaussianRational(1)
    assert out.coeff(2, 1) == GaussianRational(1)


def test_compose1_matches_oracle_expansion():
    # f = sum z^k against g = x + y, compared with direct expansion to degree 6
    f = Jet1.from_coeffs({k: 1 for k in range(7)}, EXACT, 6)
    g = (x(6) + y(6))
    out = jet_compose1(f, g)
    expected = oracles.p_compose1({k: oracles.gr(1) for k in range(7)},
                                  {(1, 0): oracles.gr(1), (0, 1): oracles.gr(1)}, 6)
    assert oracles.equal_to(out, expected, int(out.valid_through))


def test_compose1_rejects_nonzero_base_point():
    f = Jet1.from_coeffs({0: 1, 1: 1}, EXACT, 4)  # proper jet
    g = Jet2.const(1, EXACT, 4) + x(4)
    with pytest.raises(CompositionAtNonzeroPoint):
        jet_compose1(f, g)


# -- derivatives -------------------------------------------------------------------

def test_derive_examples():
    p = jet_mul(jet_mul(x(), x()), y())         # x^2 y
    assert jet_derive(p, "x").coeffs == {(1, 1): GaussianRational(2)}
    f = jet_mul(jet_mul(x(), y()), x() - y())   # xy(x-y)
    d = jet_derive(f, "y")
    # oracle: d/dy of x^2y - xy^2 = x^2 - 2xy
    assert d.coeffs == {(2, 0): GaussianRational(1), (1, 1): GaussianRational(-2)}
    assert jet_derive(Jet2.const(5, EXACT, 4), "x").is_zero()


def test_derive_precision_exhaustion():
    with pytest.raises(PrecisionExhausted):
        jet_derive(Jet2.const(1, EXACT, 0), "x")


# -- ring axioms (property) ----------------------------------------------------------

small_scalar = st.integers(min_value=-4, max_value=4)


@st.composite
def jets(draw, valid=6):
    coeffs = {}
    for i in range(3):
        for j in range(3 - i):
            re = draw(small_scalar)
            im = draw(small_scalar)
            if re or im:
                coeffs[(i, j)] = GaussianRational(re, im)
    return Jet2(EXACT, coeffs, valid)


@settings(max_examples=60, deadline=None)
@given(jets(), jets(), jets())
def test_ring_axioms(a, b, c):
    lhs = jet_mul(jet_mul(a, b), c)
    rhs = jet_mul(a, jet_mul(b, c))
    assert lhs.equals(rhs)
    lhs = jet_mul(a, b + c)
    rhs = jet_mul(a, b) + jet_mul(a, c)
    assert lhs.equals(rhs)
    assert jet_mul(a, b).equals(jet_mul(b, a))


# -- residues ------------------------------------------------------------------------

def test_residue_battery():
    assert laurent_residue(Jet1.from_coeffs({2: 1}, EXACT, 8)).is_zero()
    assert laurent_residue(Jet1.from_coeffs({1: 1}, EXACT, 8)) == GaussianRational(1)
    c = GaussianRational(Fraction(3, 2), Fraction(1, 3))
    h = Jet1.from_coeffs({2: 1, 3: c}, EXACT, 8)
    assert laurent_residue(h) == -c


def test_residue_higher_pole():
    # 1/(z^3 (1 + z)) = z^-3 (1 - z + z^2 - ...): residue = +1
    h = Jet1.from_coeffs({3: 1, 4: 1}, EXACT, 10)
    assert laurent_residue(h) == GaussianRational(1)


def test_residue_precision_exhausted():
    with pytest.raises(PrecisionExhausted):
        laurent_residue(Jet1.from_coeffs({2: 1, 3: 1}, EXACT, 2))


def test_residue_invariant_under_coordinate_change():
    # residue(dz/h) = residue(dw/h_hat) with z = phi(w), h_hat = h(phi)/phi'
    rng = random.Random(999)
    for _ in range(25):
        h = Jet1.from_coeffs(
            {2: rng.randint(1, 4), 3: rng.randint(-4, 4), 4: rng.randint(-4, 4),
             5: rng.randint(-4, 4)}, EXACT, 12)
        phi = Jet1.from_coeffs(
            {1: rng.randint(1, 3), 2: rng.randint(-3, 3), 3: rng.randint(-3, 3),
             4: rng.randint(-3, 3)}, EXACT, 12)
        transformed = _transform_1d(h, phi)
        assert laurent_residue(transformed) == laurent_residue(h)


def _transform_1d(h: Jet1, phi: Jet1) -> Jet1:
    """Coefficient of the pushed-forward field: h(phi(w)) / phi'(w)."""
    num = jet_compose1(h, phi.jet).restrict_y0()
    dphi = jet_derive(phi.jet, "x").restrict_y0()
    # dphi is a unit (phi'(0) != 0)
    inv = dphi.reciprocal()
    return num * inv


# -- ODE solver -------------------------------------------------------------------------

def test_ode_zero_rhs():
    theta = Jet2.zero(EXACT, 10)
    u = series_ode_solve(theta, 8)
    assert u.equals(Jet2.variable("y", EXACT, 8))


def test_ode_exponential():
    theta = Jet2.variable("y", EXACT, 10)   # du/dx = u
    u = series_ode_solve(theta, 10)
    for k in range(9):
        expected = GaussianRational(Fraction(1, _factorial(k)))
        assert u.coeff(k, 1) == expected


def test_ode_residual_vanishes():
    rng = random.Random(77)
    coeffs = {}
    for i in range(3):
        for j in range(3 - i):
            coeffs[(i, j)] = GaussianRational(rng.randint(-2, 2))
    theta = Jet2(EXACT, coeffs, 10)
    u = series_ode_solve(theta, 8)
    assert oracles.ode_residual(theta, u, 8).is_zero()


def test_ode_straightening_monomial():
    # theta = -y^2 (the n=1, g2 = 1 leading term): u gains x y^2
    theta = -jet_mul(y(10), y(10))
    u = series_ode_solve(theta, 8)
    assert u.coeff(1, 2) == GaussianRational(-1)


def _factorial(k):
    out = 1
    for i in range(2, k + 1):
        out *= i
    return out


# -- exact division -------------------------------------------------------------------

def test_exact_divide_linear_form():
    n = jet_mul(x() - y(), x() + y())
    status, q = exact_divide(n, x() - y())
    assert status == DIVISIBLE
    assert q.equals(x() + y())


def test_exact_divide_obstruction():
    status, _ = exact_divide(x(), x() - y())
    assert status == NOT_DIVISIBLE


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_exact_divide_by_a_zero_jet_raises_zero_denominator(mode):
    # it raised a bare ZeroDivisionError, outside the GermforgeError contract
    num = Jet2.from_coeffs({(1, 0): 1}, mode)
    with pytest.raises(ZeroDenominator, match="exact_divide by zero jet"):
        exact_divide(num, Jet2.zero(mode, 3))


def test_jet2_constructor_coerces_exact_coefficients():
    # an int or Fraction is coerced as from_coeffs coerces it (an int raised
    # AttributeError: 'int' object has no attribute 'den'); anything else is
    # refused with BadParams
    coeffs = {(1, 0): 1, (0, 1): Fraction(-3, 4), (2, 0): GaussianRational(1, 2)}
    jet = Jet2(EXACT, coeffs, INF)
    want = Jet2.from_coeffs(coeffs, EXACT)
    assert (jet.den, jet.re, jet.im) == (want.den, want.re, want.im) == \
        (4, {(1, 0): 4, (0, 1): -3, (2, 0): 4}, {(2, 0): 8})
    assert jet.coeffs == want.coeffs
    for bad in (0.5, 1j, "1", [1]):
        with pytest.raises(BadParams, match="exact Jet2 coefficient"):
            Jet2(EXACT, {(1, 0): bad}, INF)


def test_exact_divide_polynomial_ring_semantics():
    one = Jet2.const(1, EXACT, INF)
    den = one + Jet2.variable("x", EXACT, INF)
    status, _ = exact_divide(one, den)
    assert status == NOT_DIVISIBLE  # 1/(1+x) is not a polynomial


def test_exact_divide_random_roundtrip():
    rng = random.Random(31)
    for _ in range(30):
        q = Jet2(EXACT, {(i, j): GaussianRational(rng.randint(-3, 3))
                         for i in range(3) for j in range(3 - i)}, INF)
        if q.is_zero():
            continue
        d = x(INF) - y(INF).scale(rng.randint(1, 3))
        n = jet_mul(q, d)
        status, q2 = exact_divide(n, d)
        assert status == DIVISIBLE
        assert q2.equals(q)


def test_float_divide_drops_the_pivot_term_it_cancels():
    """2 - (2 / c) * c is not 0j in floats for c = -7 - 0.5i, so the
    remainder must drop the pivot term instead of testing the difference."""
    c = -7 - 0.5j
    den = Jet2.from_coeffs({(0, 0): c, (0, 1): -1}, FLOAT, 3)
    status, q = exact_divide(Jet2.const(2, FLOAT, 3), den)
    assert status == DIVISIBLE and q.valid_through == 3
    # 2 / (c - y) = sum_k 2 y^k / c^(k+1)
    assert q.equals(Jet2.from_coeffs({(0, k): 2 / c ** (k + 1) for k in range(4)}, FLOAT, 3),
                    tol=1e-15)
    assert parse_to_jet2("2/(0.5/i-7-y)", FLOAT, 3).equals(q, tol=1e-15)


# -- exact kernels against the oracle (property) --------------------------------------
#
# jet_mul, jet_compose1, jet_compose2 and jet_reciprocal run on Gaussian-integer
# numerators in exact mode; the oracle works on plain Fraction pairs.  Both the
# coefficients and valid_through must agree exactly.

def _fractions(bits):
    return st.builds(Fraction, st.integers(-(2 ** bits), 2 ** bits),
                     st.integers(1, 2 ** bits))


@st.composite
def gaussian_rationals(draw, bits=None, nonzero=False):
    bits = bits or draw(st.sampled_from([2, 8, 24]))
    re = draw(_fractions(bits))
    im = draw(st.one_of(st.just(Fraction(0)), _fractions(bits)))
    if nonzero and re == 0 and im == 0:
        re = Fraction(1)
    return GaussianRational(re, im)


@st.composite
def exact_jets(draw, min_order=0, max_degree=4, valid=None, bits=None, max_terms=6):
    """Sparse jets with mixed denominators, truncated or polynomial (INF)."""
    if valid is None:
        valid = draw(st.sampled_from([INF, 2, 3, 5, 6]))
    keys = draw(st.lists(
        st.tuples(st.integers(0, max_degree), st.integers(0, max_degree)).filter(
            lambda k: min_order <= k[0] + k[1] <= max_degree),
        max_size=max_terms, unique=True))
    return Jet2(EXACT, {k: draw(gaussian_rationals(bits)) for k in keys}, valid)


@st.composite
def exact_jet1s(draw, bits=None, min_order=0):
    valid = draw(st.sampled_from([INF, 2, 3, 5]))
    keys = draw(st.lists(st.integers(min_order, 4), max_size=4, unique=True))
    return Jet1(EXACT, {k: draw(gaussian_rationals(bits)) for k in keys}, valid)


@st.composite
def units(draw, bits=None):
    u = draw(exact_jets(min_order=1, bits=bits))
    return u + Jet2.const(draw(gaussian_rationals(bits, nonzero=True)), EXACT, INF)


def _tracked(jet):
    return oracles.from_jet(jet), jet.valid_through


def _assert_matches(out, expected):
    poly, valid = expected
    assert out.valid_through == valid
    assert oracles.from_jet(out) == poly


def _full_degree(valid, degree):
    """*valid*, or for an exact polynomial result a degree that keeps every term."""
    return valid if valid != INF else max(1, degree)


@settings(max_examples=80, deadline=None)
@given(exact_jets(), exact_jets())
def test_mul_matches_oracle(a, b):
    _assert_matches(jet_mul(a, b), oracles.t_mul(_tracked(a), _tracked(b)))


@settings(max_examples=40, deadline=None)
@given(exact_jets(), exact_jets(), gaussian_rationals(nonzero=True))
def test_mul_cancelling_sums(a, b, c):
    """(a + cb)(a - cb): the cross terms cancel to zero and must not be stored."""
    plus, minus = a + b.scale(c), a - b.scale(c)
    out = jet_mul(plus, minus)
    _assert_matches(out, oracles.t_mul(_tracked(plus), _tracked(minus)))
    assert all(not v.is_zero() for v in out.coeffs.values())


@settings(max_examples=60, deadline=None)
@given(exact_jet1s(), st.data())
def test_compose1_matches_oracle(f, data):
    g = data.draw(exact_jets(min_order=0 if f.is_polynomial() else 1))
    out = jet_compose1(f, g)
    f_poly = {k: (v.re, v.im) for k, v in f.coeffs.items()}
    _assert_matches(out, oracles.t_compose1(f_poly, f.valid_through, _tracked(g)))
    degree = _full_degree(out.valid_through, f.degree_bound() * g.degree_bound())
    assert oracles.equal_to(out, oracles.p_compose1(f_poly, oracles.from_jet(g), degree),
                            degree)


def _check_compose2(f, p, q):
    out = jet_compose2(f, p, q)
    f_poly = oracles.from_jet(f)
    _assert_matches(out, oracles.t_compose2(f_poly, f.valid_through, _tracked(p), _tracked(q)))
    degree = _full_degree(out.valid_through,
                          f.degree_bound() * max(p.degree_bound(), q.degree_bound()))
    expected = oracles.p_compose2(f_poly, oracles.from_jet(p), oracles.from_jet(q), degree)
    assert oracles.equal_to(out, expected, degree)


@settings(max_examples=60, deadline=None)
@given(exact_jets(max_degree=3), st.data())
def test_compose2_matches_oracle(f, data):
    min_order = 0 if f.is_polynomial() else 1
    p = data.draw(exact_jets(min_order=min_order, max_degree=3, max_terms=4))
    q = data.draw(exact_jets(min_order=min_order, max_degree=3, max_terms=4))
    _check_compose2(f, p, q)


@settings(max_examples=40, deadline=None)
@given(exact_jets(max_degree=2, valid=INF, max_terms=3),
       exact_jets(max_degree=3, max_terms=4), exact_jets(min_order=1, max_degree=3),
       gaussian_rationals(), st.sampled_from(["row", "acc"]))
def test_compose2_cancelling_sums(h, p, r, c, where):
    """Sums that cancel to zero: rows of f(p, c + r) with f = h (y - c), or the
    whole result of f(p, p + r) with f = h (x - y) and r of high order."""
    if where == "row":
        f = jet_mul(h, Jet2.variable("y", EXACT, INF) - Jet2.const(c, EXACT, INF))
        q = Jet2.const(c, EXACT, INF) + r
    else:
        f = jet_mul(h, Jet2.variable("x", EXACT, INF) - Jet2.variable("y", EXACT, INF))
        q = p + jet_mul(jet_mul(r, r), r)
    _check_compose2(f, p, q)


def test_compose2_total_cancellation_is_the_zero_jet():
    p = x(5) + jet_mul(x(5), y(5))
    f = Jet2.variable("x", EXACT, INF) - Jet2.variable("y", EXACT, INF)
    out = jet_compose2(f, p, p)
    assert out.coeffs == {} and out.order() == INF and out.valid_through == 5


@settings(max_examples=60, deadline=None)
@given(units())
def test_reciprocal_matches_oracle(u):
    out = jet_reciprocal(u)
    if u.valid_through != INF:
        valid = u.valid_through
    else:
        valid = INF if len(u.coeffs) == 1 else DEFAULT_DEGREE
    assert out.valid_through == valid
    degree = 0 if valid == INF else valid
    assert oracles.from_jet(out) == oracles.p_reciprocal(oracles.from_jet(u), degree)


# The exact reciprocal runs a recurrence on reduced homogeneous parts; the
# oracle is the recurrence it replaced, on integer numerators over powers of
# one denominator.  Both reduce their result, so the stored den, re, im and
# valid_through must be identical, not only equal as series.

def _stored(jet):
    return jet.den, jet.re, jet.im, jet.valid_through


@st.composite
def _degree_keys(draw, top):
    d = draw(st.integers(1, top))
    i = draw(st.integers(0, d))
    return i, d - i


@st.composite
def dense_units(draw):
    """Units of degree <= 10 with real or Gaussian coefficients, truncated at
    0 .. 10 or polynomial."""
    valid = draw(st.sampled_from([INF, *range(11)]))
    keys = draw(st.lists(_degree_keys(10), max_size=8, unique=True))
    terms = {k: draw(gaussian_rationals()) for k in keys}
    terms[(0, 0)] = draw(gaussian_rationals(nonzero=True))
    return Jet2(EXACT, terms, valid)


@settings(max_examples=100, deadline=None)
@given(dense_units())
def test_reciprocal_stores_what_the_oracle_stores(u):
    assert _stored(jet_reciprocal(u)) == _stored(oracles.z_reciprocal(u))


GR = GaussianRational

RECIPROCAL_EDGES = {
    "constant": Jet2.const(GR(3, 4), EXACT, INF),
    "truncated-constant": Jet2.const(GR(Fraction(2, 3)), EXACT, 5),
    "polynomial": Jet2.from_coeffs([((0, 0), 1), ((1, 0), 1), ((0, 2), 2)]),
    "valid-0": Jet2(EXACT, {(0, 0): GR(2), (1, 0): GR(1)}, 0),
    "valid-1": Jet2(EXACT, {(0, 0): GR(1, 2), (1, 0): GR(3), (0, 1): GR(0, 1)}, 1),
    "imaginary-constant": Jet2(EXACT, {(0, 0): GR(0, Fraction(3, 7)), (1, 1): GR(5),
                                       (0, 2): GR(1, -1)}, 8),
    "large-norm": Jet2(EXACT, {(0, 0): GR(10 ** 30 + 1, 10 ** 25),
                               (1, 0): GR(Fraction(1, 3))}, 10),
    "empty-degrees": Jet2(EXACT, {(0, 0): GR(2), (3, 0): GR(1), (0, 7): GR(1, 1)}, 10),
    "empty-degrees-polynomial": Jet2(EXACT, {(0, 0): GR(Fraction(-5, 6)),
                                             (2, 2): GR(Fraction(1, 4), 3)}, INF),
}


@pytest.mark.parametrize("name", RECIPROCAL_EDGES)
def test_reciprocal_edge_cases_store_what_the_oracle_stores(name):
    u = RECIPROCAL_EDGES[name]
    assert _stored(jet_reciprocal(u)) == _stored(oracles.z_reciprocal(u))


@pytest.mark.parametrize("u", [
    Jet1.const(GR(0, 2)),
    Jet1(EXACT, {0: GR(Fraction(7, 3), -1), 1: GR(2), 4: GR(0, Fraction(1, 5))}, 9),
    Jet1.from_coeffs([(0, 1), (1, -1)]),
], ids=["constant", "truncated", "polynomial"])
def test_jet1_reciprocal_stores_what_the_oracle_stores(u):
    out = u.reciprocal()
    expected = oracles.z_reciprocal(u.jet).restrict_y0()
    assert (out.coeffs, out.valid_through) == (expected.coeffs, expected.valid_through)


def test_reciprocal_of_a_constant_jet1_terminates():
    inv = Jet1.const(2).reciprocal()
    assert inv.coeffs == {0: GaussianRational(Fraction(1, 2))}
    assert inv.valid_through == INF


@pytest.mark.parametrize("op", ["mul", "compose1", "compose2"])
def test_kernels_reject_mixed_modes(op):
    exact = x(4) + jet_mul(x(4), y(4))
    fl = exact.to_float()
    with pytest.raises(ModeMismatch):
        if op == "mul":
            jet_mul(exact, fl)
        elif op == "compose1":
            jet_compose1(Jet1.from_coeffs({1: 1, 2: 1}, FLOAT, 4), exact)
        else:
            jet_compose2(exact, fl, exact)


def _assert_float_close(out_float, out_exact):
    assert out_float.mode == FLOAT
    assert out_float.valid_through == out_exact.valid_through
    expected = out_exact.to_float()
    scale = max([1.0] + [abs(v) for v in expected.coeffs.values()])
    # a Jet1 or a Jet2, each storing only the terms through its valid_through
    keys = out_float.coeffs.keys() | expected.coeffs.keys()
    assert all(abs(out_float.coeffs.get(k, 0) - expected.coeffs.get(k, 0)) <= 1e-12 * scale
               for k in keys)


@settings(max_examples=40, deadline=None)
@given(exact_jets(bits=4), exact_jets(bits=4), exact_jets(min_order=1, max_degree=3, bits=4),
       exact_jets(min_order=1, max_degree=3, bits=4), exact_jet1s(bits=4))
def test_float_kernels_match_exact(a, b, p, q, f1):
    _assert_float_close(jet_mul(a.to_float(), b.to_float()), jet_mul(a, b))
    _assert_float_close(jet_compose1(f1.to_float(), p.to_float()), jet_compose1(f1, p))
    _assert_float_close(jet_compose2(a.to_float(), p.to_float(), q.to_float()),
                        jet_compose2(a, p, q))
    unit = q + Jet2.const(8, EXACT, INF)
    _assert_float_close(jet_reciprocal(unit.to_float()), jet_reciprocal(unit))


# -- Jet1 is a one-variable view of the Jet2 kernel ------------------------------
#
# Each Jet1 is embedded k -> (k, 0) in the oracle, so its results must be the
# oracle's, coefficient for coefficient and in valid_through.

def _embedded(f: Jet1):
    return {(k, 0): (v.re, v.im) for k, v in f.coeffs.items()}, f.valid_through


def _assert_jet1_matches(out: Jet1, expected):
    assert isinstance(out, Jet1)
    assert _embedded(out) == expected


def _unit1(a: Jet1, c) -> Jet1:
    return Jet1(EXACT, {**a.coeffs, 0: c}, a.valid_through)


def _derivative1(a: Jet1) -> Jet1:
    """da/dz through the kernel: jet_derive of the lift z -> x."""
    return jet_derive(a.jet, "x").restrict_y0()


def _compose1(f: Jet1, g: Jet1) -> Jet1:
    """f(g(z)) through the kernel: jet_compose1 on the lift of g."""
    return jet_compose1(f, g.jet).restrict_y0()


@settings(max_examples=60, deadline=None)
@given(exact_jet1s(), exact_jet1s())
def test_jet1_ring_operations_match_oracle(a, b):
    _assert_jet1_matches(a * b, oracles.t_mul(_embedded(a), _embedded(b)))
    _assert_jet1_matches(a + b, oracles.t_add(_embedded(a), _embedded(b)))
    neg_b = b.scale(-1)
    _assert_jet1_matches(a + neg_b, oracles.t_add(_embedded(a), _embedded(neg_b)))
    assert _embedded(neg_b)[0] == oracles.p_neg(_embedded(b)[0])


@settings(max_examples=60, deadline=None)
@given(exact_jet1s())
def test_jet1_derivative_matches_oracle(a):
    poly, valid = _embedded(a)
    _assert_jet1_matches(_derivative1(a), (oracles.p_derive(poly, 0), valid - 1))


@settings(max_examples=60, deadline=None)
@given(exact_jet1s(), gaussian_rationals(nonzero=True))
def test_jet1_reciprocal_matches_oracle(a, c):
    u = _unit1(a, c)
    if u.valid_through != INF:
        valid = u.valid_through
    else:
        valid = INF if len(u.coeffs) == 1 else DEFAULT_DEGREE
    degree = 0 if valid == INF else valid
    poly = oracles.p_reciprocal(_embedded(u)[0], degree)
    _assert_jet1_matches(u.reciprocal(), (poly, valid))


@settings(max_examples=60, deadline=None)
@given(exact_jet1s(), st.data())
def test_jet1_compose_matches_oracle(f, data):
    g = data.draw(exact_jet1s(min_order=0 if f.is_polynomial() else 1))
    f_poly = {k: (v.re, v.im) for k, v in f.coeffs.items()}
    expected = oracles.t_compose1(f_poly, f.valid_through, _embedded(g))
    _assert_jet1_matches(_compose1(f, g), expected)


@settings(max_examples=40, deadline=None)
@given(exact_jet1s(bits=4), exact_jet1s(bits=4), exact_jet1s(bits=4, min_order=1))
def test_jet1_float_matches_exact(a, b, g):
    u = _unit1(a, GaussianRational(8))
    _assert_float_close(a.to_float() * b.to_float(), a * b)
    _assert_float_close(_derivative1(a.to_float()), _derivative1(a))
    _assert_float_close(u.to_float().reciprocal(), u.reciprocal())
    _assert_float_close(_compose1(a.to_float(), g.to_float()), _compose1(a, g))


# -- truncated zero inner jets ------------------------------------------------------
#
# A zero jet with finite valid_through is only known to vanish through that
# degree, so f(g) must not claim more than g's own valid_through.

def test_compose_with_truncated_zero_keeps_its_precision():
    f = Jet1.from_coeffs({0: 1, 1: 1}, EXACT, 3)
    out = _compose1(f, Jet1.zero(EXACT, 2))
    assert out.coeffs == {0: GaussianRational(1)} and out.valid_through == 2
    assert jet_compose1(f, Jet2.zero(EXACT, 2)).valid_through == 2
    fxy = Jet2.from_coeffs({(0, 0): 1, (1, 0): 1, (0, 1): 1}, EXACT, 3)
    assert jet_compose2(fxy, Jet2.zero(EXACT, 4), Jet2.zero(EXACT, 2)).valid_through == 2
    # exact zero inner jets leave f's constant term, exactly
    assert _compose1(f, Jet1.zero(EXACT)).valid_through == INF
    assert jet_compose2(fxy, Jet2.zero(EXACT), Jet2.zero(EXACT)).valid_through == INF


@st.composite
def _tail(draw, valid, keys_of_degree):
    """A nonzero polynomial of degrees valid + 1 and valid + 2 (none for INF)."""
    if valid == INF:
        return {}
    out = {}
    for d in (valid + 1, valid + 2):
        for key in draw(st.sets(st.sampled_from(keys_of_degree(d)), min_size=1, max_size=2)):
            c = draw(gaussian_rationals(bits=4, nonzero=True))
            out[key] = (c.re, c.im)
    return out


def _keys1(d):
    return [(d, 0)]


def _keys2(d):
    return [(i, d - i) for i in range(d + 1)]


def _assert_sound(poly, valid, actual):
    """Every coefficient through *valid* agrees with the composition of the
    completed inputs *actual* (compared through a capped degree)."""
    degree = min(valid, 8)
    assert oracles.p_truncate(poly, degree) == oracles.p_truncate(actual(degree), degree)


@settings(max_examples=60, deadline=None)
@given(exact_jet1s(), st.data())
def test_jet1_compose_is_sound_for_any_completion(f, data):
    """Whatever f and g are beyond their valid_through, f(g) is right through
    the valid_through it reports."""
    g = data.draw(exact_jet1s(min_order=0 if f.is_polynomial() else 1))
    f_full = {k: v for (k, _), v in
              oracles.p_add(_embedded(f)[0], data.draw(_tail(f.valid_through, _keys1))).items()}
    g_full = oracles.p_add(_embedded(g)[0], data.draw(_tail(g.valid_through, _keys1)))
    _assert_sound(*_embedded(_compose1(f, g)),
                  lambda degree: oracles.p_compose1(f_full, g_full, degree))


@settings(max_examples=40, deadline=None)
@given(exact_jets(max_degree=3), st.data())
def test_compose2_is_sound_for_any_completion(f, data):
    min_order = 0 if f.is_polynomial() else 1
    p = data.draw(exact_jets(min_order=min_order, max_degree=3, max_terms=3))
    q = data.draw(exact_jets(min_order=min_order, max_degree=3, max_terms=3))
    f_full, p_full, q_full = (
        oracles.p_add(oracles.from_jet(a), data.draw(_tail(a.valid_through, _keys2)))
        for a in (f, p, q))
    out = jet_compose2(f, p, q)
    _assert_sound(oracles.from_jet(out), out.valid_through,
                  lambda degree: oracles.p_compose2(f_full, p_full, q_full, degree))


# -- graded Picard solvers -----------------------------------------------------------
#
# CoordinateChange.inverse and series_ode_solve compute pass d only through
# degree d.  oracles.t_inverse and oracles.t_ode_solve are the loops they
# replaced, every pass at full truncation: coefficients, valid_through and
# error classes must agree.  The completion tests check every coefficient
# the solvers claim against the defining identity, with no precision rule.

@st.composite
def _series_change(draw, valid, jacobian):
    """(comp1, comp2) truncated to *valid*: a linear part of the given kind
    plus up to three terms of degree 2-3 in each component."""
    a, b, c, d = (draw(gaussian_rationals(bits=4, nonzero=True)) for _ in range(4))
    if jacobian == "diagonal":
        b = c = GaussianRational(0)
    elif jacobian == "antidiagonal":
        a = d = GaussianRational(0)
    elif jacobian == "singular":
        c, d = a * b, b * b            # second row = b * first row
    elif a * d == b * c:
        d = d + GaussianRational(1)
    comps = []
    for u, v in ((a, b), (c, d)):
        tail = draw(exact_jets(min_order=2, max_degree=3, valid=valid, bits=4, max_terms=3))
        comps.append(Jet2.from_coeffs({(1, 0): u, (0, 1): v}, EXACT, valid) + tail)
    return comps


_JACOBIANS = st.sampled_from(["general", "diagonal", "antidiagonal"])


@pytest.mark.parametrize("valid, degree", [
    (3, 5),          # finite valid_through below an explicit degree
    (INF, None), (5, None),
    (INF, 1), (2, 1),
    (INF, 2), (2, 2),
    (INF, 4),
])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_inverse_matches_full_precision_picard(valid, degree, data):
    c1, c2 = data.draw(_series_change(valid, data.draw(_JACOBIANS)))
    out = CoordinateChange.from_series(c1, c2).inverse(degree)
    expected = oracles.t_inverse(_tracked(c1), _tracked(c2), degree)
    _assert_matches(out.comp1, expected[0])
    _assert_matches(out.comp2, expected[1])


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([INF, 3]), st.sampled_from([None, 1, 4]), st.data())
def test_inverse_of_singular_jacobian_raises(valid, degree, data):
    c1, c2 = data.draw(_series_change(valid, "singular"))
    assert oracles.t_inverse(_tracked(c1), _tracked(c2), degree) is None
    with pytest.raises(NonInvertibleChange):
        CoordinateChange.from_series(c1, c2).inverse(degree)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 2, 3, 4]), st.sampled_from([None, 2, 3, 6]), st.data())
def test_inverse_is_sound_for_any_completion(valid, degree, data):
    """phi(psi) = id through the valid_through psi claims, whatever phi is
    beyond its own valid_through."""
    c1, c2 = data.draw(_series_change(valid, data.draw(_JACOBIANS)))
    out = CoordinateChange.from_series(c1, c2).inverse(degree)
    claimed = out.comp1.valid_through
    assert out.comp2.valid_through == claimed
    psi = oracles.from_jet(out.comp1), oracles.from_jet(out.comp2)
    for comp, var in ((c1, (1, 0)), (c2, (0, 1))):
        full = oracles.p_add(oracles.from_jet(comp), data.draw(_tail(valid, _keys2)))
        assert oracles.p_compose2(full, *psi, claimed) == {var: oracles.gr(1)}


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 6), st.data())
def test_ode_solve_matches_full_precision_picard(degree, data):
    # theta known exactly, through degree, beyond it, or short of it
    valid = data.draw(st.sampled_from([INF, degree, degree + 2, degree - 1]))
    theta = data.draw(exact_jets(max_degree=3, valid=valid, bits=4))
    expected = oracles.t_ode_solve(_tracked(theta), degree)
    if expected is None:
        with pytest.raises(PrecisionExhausted):
            series_ode_solve(theta, degree)
        return
    _assert_matches(series_ode_solve(theta, degree), expected)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.data())
def test_ode_solve_is_sound_for_any_completion(degree, data):
    """u(0, y) = y and du/dx = theta(x, u) through the valid_through u
    claims, whatever theta is beyond its own valid_through."""
    valid = data.draw(st.sampled_from([degree, degree + 1]))
    theta = data.draw(exact_jets(max_degree=3, valid=valid, bits=4))
    full = oracles.p_add(oracles.from_jet(theta), data.draw(_tail(valid, _keys2)))
    u = series_ode_solve(theta, degree)
    claimed = u.valid_through
    assert u.restrict_x0().coeffs == Jet1.variable(EXACT, claimed).coeffs
    theta_full = Jet2(EXACT, {k: GaussianRational(*v) for k, v in full.items()}, INF)
    assert oracles.ode_residual(theta_full, u, claimed).is_zero()


# -- one storage: numerators over one denominator ----------------------------------
#
# Every Jet2 keeps nonzero numerators of degree <= valid_through over one
# positive denominator (ints in exact mode, complex over 1 in float mode),
# and its scalar view gives back exactly the coefficients it was built from.

def _assert_stored(jet: Jet2):
    assert isinstance(jet, Jet2)
    for part in (jet.re, jet.im):
        for (i, j), v in part.items():
            assert i >= 0 and j >= 0 and i + j <= jet.valid_through
            assert v
    if jet.mode == EXACT:
        assert type(jet.den) is int and jet.den > 0
        assert all(type(v) is int for v in (*jet.re.values(), *jet.im.values()))
        assert math.gcd(jet.den, *jet.re.values(), *jet.im.values()) == 1
        view = {k: GaussianRational(Fraction(jet.re.get(k, 0), jet.den),
                                    Fraction(jet.im.get(k, 0), jet.den))
                for k in jet.re.keys() | jet.im.keys()}
        assert jet.coeffs == view
    else:
        assert jet.den == 1 and jet.im == {} and jet.coeffs is jet.re


def _assert_stored1(f: Jet1):
    """A Jet1 holds a stored Jet2 in x alone."""
    assert isinstance(f, Jet1)
    _assert_stored(f.jet)
    assert all(j == 0 for _, j in (*f.jet.re, *f.jet.im))


_float_parts = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),
                         st.integers(-4, 4).map(float),
                         st.floats(-1e3, 1e3, allow_nan=False))


@st.composite
def _float_scalars(draw):
    return complex(draw(_float_parts), draw(_float_parts))


@st.composite
def float_jets(draw, min_order=0, max_degree=4, max_terms=6):
    """Sparse complex jets whose terms come in a random order."""
    valid = draw(st.sampled_from([INF, 2, 3, 5]))
    keys = draw(st.lists(
        st.tuples(st.integers(0, max_degree), st.integers(0, max_degree)).filter(
            lambda k: min_order <= k[0] + k[1] <= max_degree),
        max_size=max_terms, unique=True))
    return Jet2(FLOAT, {k: draw(_float_scalars()) for k in keys}, valid)


@st.composite
def float_jet1s(draw):
    valid = draw(st.sampled_from([INF, 2, 3, 5]))
    keys = draw(st.lists(st.integers(0, 4), max_size=4, unique=True))
    return Jet1(FLOAT, {k: draw(_float_scalars()) for k in keys}, valid)


def _scalar_dict(jet):
    return dict(jet.coeffs), jet.valid_through


def _assert_same_float(out, expected):
    """Equal to the scalar loops bit for bit: repr shows every float and the
    sign of zero."""
    _assert_stored(out)
    assert repr(sorted(out.coeffs.items())) == repr(sorted(expected[0].items()))
    assert out.valid_through == expected[1]


@settings(max_examples=150, deadline=None)
@given(float_jets(), float_jets(), _float_scalars(), st.data())
def test_float_kernel_matches_scalar_loops(a, b, c, data):
    # half of b negated: b + minus cancels those terms to 0j
    minus = Jet2(FLOAT, {k: -v for k, v in list(b.coeffs.items())[::2]}, b.valid_through)
    for u, v in ((a, b), (b, minus), (a + b, minus), (minus, a - b)):
        _assert_same_float(u + v, oracles.f_add(_scalar_dict(u), _scalar_dict(v)))
        _assert_same_float(jet_mul(u, v), oracles.f_mul(_scalar_dict(u), _scalar_dict(v)))
    _assert_same_float(a.scale(c), oracles.f_scale(_scalar_dict(a), c))
    _assert_same_float(a.scale(1), oracles.f_scale(_scalar_dict(a), 1))
    if a.valid_through >= 1:
        for var, k in (("x", 0), ("y", 1)):
            _assert_same_float(jet_derive(a, var), oracles.f_derive(_scalar_dict(a), k))
    f1 = data.draw(float_jet1s())
    g = data.draw(float_jets(min_order=0 if f1.is_polynomial() else 1, max_degree=3,
                             max_terms=4))
    _assert_same_float(jet_compose1(f1, g),
                       oracles.f_compose1(dict(f1.coeffs), f1.valid_through, _scalar_dict(g)))
    f2 = data.draw(float_jets(max_degree=3))
    min_order = 0 if f2.is_polynomial() else 1
    p = data.draw(float_jets(min_order=min_order, max_degree=3, max_terms=4))
    q = data.draw(float_jets(min_order=min_order, max_degree=3, max_terms=4))
    _assert_same_float(jet_compose2(f2, p, q),
                       oracles.f_compose2(dict(f2.coeffs), f2.valid_through,
                                          _scalar_dict(p), _scalar_dict(q)))


@settings(max_examples=120, deadline=None)
@given(exact_jets(), exact_jets(max_terms=1), st.integers(0, 5))
def test_pow_matches_the_product_loop(a, term, e):
    """jet_pow runs on stored numerators (one term goes straight to its
    power); the loop of jet_mul from the constant 1 gives the same jet,
    exactly, and bit for bit in float mode."""
    for base in (a, term):
        out, expected = jet_pow(base, e), oracles.t_jet_pow(base, e)
        assert (out.den, out.re, out.im, out.valid_through) == \
            (expected.den, expected.re, expected.im, expected.valid_through)
        out, expected = jet_pow(base.to_float(), e), oracles.t_jet_pow(base.to_float(), e)
        _assert_same_float(out, (expected.coeffs, expected.valid_through))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([0, 1, 2, 4]), st.integers(6, 40), st.data())
def test_exact_pow_squares_to_the_product_loop(valid, e, data):
    """Exact jet_pow squares and multiplies; the e products of the loop from
    the constant 1 give the same den, re, im and valid_through (zero,
    single-term and truncated jets included)."""
    base = data.draw(st.one_of(exact_jets(valid=valid, max_degree=3),
                               exact_jets(valid=valid, max_terms=1, bits=8)))
    out, expected = jet_pow(base, e), oracles.t_jet_pow(base, e)
    assert (out.den, out.re, out.im, out.valid_through) == \
        (expected.den, expected.re, expected.im, expected.valid_through)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([EXACT, FLOAT]), st.data())
def test_storage_invariant_after_every_kernel_op(mode, data):
    def draw(**kw):
        jet = data.draw(exact_jets(**kw))
        return jet if mode == EXACT else jet.to_float()

    a, b = draw(), draw()
    p, q = draw(min_order=1, max_degree=3, max_terms=3), draw(min_order=1, max_degree=3,
                                                              max_terms=3)
    f1 = data.draw(exact_jet1s())
    f1 = f1 if mode == EXACT else f1.to_float()
    c = data.draw(gaussian_rationals())
    c = c if mode == EXACT else c.to_complex()
    unit = p + Jet2.const(c if c else 1, mode, INF)
    for jet in (a, b, p, q, unit):
        _assert_stored(jet)
    outs = [a + b, a - b, -a, a.scale(c), a.truncate(2),
            jet_mul(a, b), jet_reciprocal(unit), jet_compose1(f1, p),
            jet_compose2(a, p, q), oracles.known_through(a, 3), oracles.antiderivative_x(a)]
    if a.valid_through >= 1:
        outs += [jet_derive(a, "x"), jet_derive(a, "y")]
    if all(i >= 1 for i, _ in a.coeffs):
        outs.append(a.divide_monomial(1, 0))
    for out in outs:
        _assert_stored(out)
    g1 = Jet1(mode, {k: v.to_complex() if mode == FLOAT else v
                     for k, v in data.draw(exact_jet1s()).coeffs.items()}, INF)
    outs1 = [f1, f1 + g1, f1 * g1, f1.scale(c), f1.truncate(2), f1.to_float(),
             a.restrict_y0(), a.restrict_x0(), unit.restrict_y0().reciprocal()]
    for out in outs1:
        _assert_stored1(out)


# -- compositions on stored numerators, cut at the result's precision -------------
#
# jet_compose1 and jet_compose2 form every power and product only through
# the result's valid_through, and row i of f(p, q) only through valid - i
# ord(p).  These draws reach each cut: inner jets with terms above the
# result's valid_through, inner jets of order >= 2, polynomial f with INF
# valid_through and truncated zero inner jets.  Exact results must equal
# the Jet2 loops of the oracle, float results the scalar loops bit for bit,
# and every result must keep the storage invariant.

@st.composite
def _mode_jets(draw, mode, valid, min_order=0, max_degree=5, max_terms=5):
    keys = draw(st.lists(
        st.tuples(st.integers(0, max_degree), st.integers(0, max_degree)).filter(
            lambda k: min_order <= k[0] + k[1] <= max_degree),
        min_size=1, max_size=max_terms, unique=True))
    values = gaussian_rationals(bits=draw(st.sampled_from([2, 8]))) if mode == EXACT \
        else _float_scalars()
    return Jet2(mode, {k: draw(values) for k in keys}, valid)


@st.composite
def _inner_jets(draw, mode, order):
    """A zero jet, or a sparse or dense jet of the given order with terms up
    to degree 4 (so often above the result's valid_through), known through a
    small or INF valid_through."""
    valid = draw(st.sampled_from([INF, 1, 2, 3, 4, 4]))
    shape = draw(st.sampled_from(["zero", "sparse", "dense", "dense"]))
    if shape == "zero":
        return Jet2.zero(mode, valid)
    lowest = draw(_mode_jets(mode, INF, min_order=order, max_degree=order, max_terms=2))
    if shape == "sparse":
        return lowest + draw(_mode_jets(mode, valid, min_order=order + 1, max_degree=4))
    values = gaussian_rationals(bits=2, nonzero=True) if mode == EXACT else _float_scalars()
    return lowest + Jet2(mode, {(i, d - i): draw(values) for d in range(order + 1, 5)
                                for i in range(d + 1)}, valid)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([EXACT, FLOAT]), st.data())
def test_compositions_cut_at_the_result_precision(mode, data):
    f = data.draw(_mode_jets(mode, data.draw(st.sampled_from([INF, INF, 1, 3, 4])),
                             max_degree=4))
    orders = [0, 1, 2] if f.is_polynomial() else [1, 2]
    p, q, g = (data.draw(_inner_jets(mode, data.draw(st.sampled_from(orders))))
               for _ in range(3))
    f1 = Jet1(mode, {i: v for (i, j), v in f.coeffs.items() if j == 0}, f.valid_through)
    out2, out1 = jet_compose2(f, p, q), jet_compose1(f1, g)
    if mode == EXACT:
        _assert_stored(out2)
        _assert_stored(out1)
        _assert_matches(out2, oracles.t_compose2(oracles.from_jet(f), f.valid_through,
                                                 _tracked(p), _tracked(q)))
        f1_poly = {k: (v.re, v.im) for k, v in f1.coeffs.items()}
        _assert_matches(out1, oracles.t_compose1(f1_poly, f1.valid_through, _tracked(g)))
    else:
        _assert_same_float(out2, oracles.f_compose2(dict(f.coeffs), f.valid_through,
                                                    _scalar_dict(p), _scalar_dict(q)))
        _assert_same_float(out1, oracles.f_compose1(dict(f1.coeffs), f1.valid_through,
                                                    _scalar_dict(g)))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([EXACT, FLOAT]), st.sampled_from([INF, 0, 2, 3]), st.data())
def test_constructor_view_drops_zeros_and_terms_beyond_valid(mode, valid, data):
    keys = data.draw(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                              max_size=8, unique=True))
    zero = GaussianRational(0) if mode == EXACT else 0j
    coeffs = {}
    for k in keys:
        value = data.draw(st.one_of(st.just(zero), gaussian_rationals()))
        coeffs[k] = value if mode == EXACT or value == zero else value.to_complex()
    jet = Jet2(mode, coeffs, valid)
    _assert_stored(jet)
    assert jet.coeffs == {k: v for k, v in coeffs.items() if k[0] + k[1] <= valid and v != zero}


# -- claimed precision is sound: products, reciprocals, derivatives -----------------
#
# As for the compositions above: complete each input with random terms beyond
# its valid_through and check every coefficient the result claims.

def _truncated_zero(jet):
    return jet.is_zero() and jet.valid_through != INF


@settings(max_examples=80, deadline=None)
@given(exact_jets(), exact_jets(), st.data())
def test_mul_is_sound_for_any_completion(a, b, data):
    # the product of two truncated zero jets is the known defect pinned below
    assume(not (_truncated_zero(a) and _truncated_zero(b)))
    a_full, b_full = (oracles.p_add(oracles.from_jet(j), data.draw(_tail(j.valid_through, _keys2)))
                      for j in (a, b))
    out = jet_mul(a, b)
    _assert_sound(oracles.from_jet(out), out.valid_through,
                  lambda degree: oracles.p_truncate(oracles.p_mul(a_full, b_full), degree))


@settings(max_examples=60, deadline=None)
@given(units(bits=4), st.data())
def test_reciprocal_is_sound_for_any_completion(u, data):
    full = oracles.p_add(oracles.from_jet(u), data.draw(_tail(u.valid_through, _keys2)))
    out = jet_reciprocal(u)
    _assert_sound(oracles.from_jet(out), out.valid_through,
                  lambda degree: oracles.p_reciprocal(full, degree))


@settings(max_examples=60, deadline=None)
@given(exact_jets(), st.sampled_from(["x", "y"]), st.data())
def test_derive_is_sound_for_any_completion(a, var, data):
    assume(a.valid_through >= 1)
    full = oracles.p_add(oracles.from_jet(a), data.draw(_tail(a.valid_through, _keys2)))
    out = jet_derive(a, var)
    _assert_sound(oracles.from_jet(out), out.valid_through,
                  lambda degree: oracles.p_derive(full, "xy".index(var)))


@pytest.mark.xfail(strict=True, reason="FOUND in CHANGES.md (series.py jet_mul): the product "
                   "of two truncated zero jets claims valid_through INF instead of 6")
def test_product_of_truncated_zero_jets_is_known_to_their_precision_only():
    assert jet_mul(Jet2.zero(EXACT, 2), Jet2.zero(EXACT, 3)).valid_through == 6


# -- exact_divide under completion ------------------------------------------------------
#
# A verdict of exact_divide on truncated inputs must hold whatever the inputs
# are beyond their valid_through.  NOT_DIVISIBLE stays NOT_DIVISIBLE.  A
# DIVISIBLE quotient Q claims Q * den = num through Q's valid_through plus the
# pivot degree (a completion may still obstruct beyond that), so the oracle
# product of Q and the completed den must equal the completed num there, and
# where the completion divides too, its quotient keeps every claimed
# coefficient.  UNKNOWN claims nothing, so the completion's own verdict is
# checked the same way against a further completion.

def _completed(jet, data):
    """The oracle polynomial of *jet* with random terms of the two degrees
    beyond its valid_through, and the jet known that far."""
    full = oracles.p_add(oracles.from_jet(jet), data.draw(_tail(jet.valid_through, _keys2)))
    valid = jet.valid_through if jet.valid_through == INF else jet.valid_through + 2
    return full, Jet2(EXACT, {k: GaussianRational(*v) for k, v in full.items()}, valid)


def _pivot_degree(den):
    return min(i + j for i, j in den.coeffs)


def _check_divide_verdict(num, den, data):
    """exact_divide(num, den) holds for one random completion of its inputs."""
    status, quot = exact_divide(num, den)
    num_full, num_c = _completed(num, data)
    den_full, den_c = _completed(den, data)
    status_c, quot_c = exact_divide(num_c, den_c)
    if status == NOT_DIVISIBLE:
        assert status_c == NOT_DIVISIBLE
    elif status == DIVISIBLE:
        q = oracles.from_jet(quot)
        top = min(quot.valid_through + _pivot_degree(den), 12)
        assert oracles.p_truncate(oracles.p_mul(q, den_full), top) == \
            oracles.p_truncate(num_full, top)
        assert status_c != UNKNOWN
        if status_c == DIVISIBLE:
            claimed = min(quot.valid_through, 12)
            assert oracles.p_truncate(oracles.from_jet(quot_c), claimed) == \
                oracles.p_truncate(q, claimed)
    else:
        assert status == UNKNOWN and quot is None
        return num_c, den_c
    return None


@settings(max_examples=150, deadline=None)
@given(exact_jets(max_terms=5), exact_jets(max_terms=4), st.data())
def test_exact_divide_is_sound_for_any_completion(num, den, data):
    assume(not den.is_zero())
    # a truncated zero num over a den of pivot degree >= 1 is the known
    # defect pinned below
    assume(not (_truncated_zero(num) and _pivot_degree(den) >= 1))
    unknown = _check_divide_verdict(num, den, data)
    if unknown is not None:
        num_c, den_c = unknown
        assume(not (_truncated_zero(num_c) and _pivot_degree(den_c) >= 1))
        _check_divide_verdict(num_c, den_c, data)


@pytest.mark.xfail(strict=True, reason="FOUND in CHANGES.md (series.py exact_divide): a zero "
                   "num claims its quotient through num's valid_through, not that minus the "
                   "pivot degree")
def test_zero_numerator_quotient_is_known_to_the_pivot_degree_less():
    # num = 0 + O(4) and den = x + y: the completion x^2 y^2 + x^3 y has the
    # quotient x^2 y, of degree 3, so the zero quotient is known through 2 only
    status, quot = exact_divide(Jet2.zero(EXACT, 3), x(INF) + y(INF))
    assert status == DIVISIBLE and quot.valid_through == 2


# -- the heap division against the scan it replaced ------------------------------------
#
# exact_divide takes the next remainder key from a heap; oracles.scan_exact_divide
# scans the whole remainder for it.  Both must give the same status, the same
# stored quotient and the same key order.  den is c x^i y^j + h for a non-unit
# or Gaussian c and an h of terms above x^i y^j in graded-lex order, which may
# lie below it in x or in y; num is q * den, plus an optional extra term, so
# the remainder cancels as the division goes.

_PIVOT_VALUES = [GaussianRational(2), GaussianRational(-3), GaussianRational(Fraction(1, 3)),
                 GaussianRational(0, 1), GaussianRational(1, -2), GaussianRational(Fraction(-1, 2), 3)]


@st.composite
def _division_cases(draw):
    pi, pj = draw(st.sampled_from([(0, 0), (1, 0), (0, 1), (1, 1), (2, 0)]))
    h = draw(exact_jets(min_order=pi + pj, max_degree=pi + pj + 2, valid=INF, bits=4,
                        max_terms=3))
    h = Jet2(EXACT, {(i, j): v for (i, j), v in h.coeffs.items()
                     if (i + j, j) > (pi + pj, pj)}, INF)
    den = Jet2.monomial(pi, pj, draw(st.sampled_from(_PIVOT_VALUES)), valid_through=INF) + h
    num = jet_mul(draw(exact_jets(max_degree=3, valid=INF, bits=4, max_terms=4)), den)
    if draw(st.booleans()):
        num = num + draw(exact_jets(max_degree=5, valid=INF, bits=4, max_terms=1))
    valid = draw(st.sampled_from([INF, INF, 0, 1, 2, 3, 4, 6]))
    return num.truncate(valid), den.truncate(draw(st.sampled_from([INF, valid, valid + 1])))


def _stored_in_order(jet):
    return None if jet is None else (jet.den, list(jet.re.items()), list(jet.im.items()),
                                     jet.valid_through)


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
@settings(max_examples=200, deadline=None)
@given(case=_division_cases())
def test_heap_division_matches_the_scan(mode, case):
    num, den = case
    if mode == FLOAT:
        num, den = num.to_float(), den.to_float()
    assume(not den.is_zero())
    status, quot = exact_divide(num, den)
    want_status, want = oracles.scan_exact_divide(num, den)
    assert status == want_status
    assert _stored_in_order(quot) == _stored_in_order(want)


# -- error contract -------------------------------------------------------------------

def test_divide_monomial_raises_not_divisible():
    with pytest.raises(NotDivisible):
        (x(4) + y(4)).divide_monomial(1, 0)


@pytest.mark.parametrize("build", [
    lambda: Jet1(EXACT, {-1: GaussianRational(1)}, INF),
    lambda: Jet2(EXACT, {(0, -1): GaussianRational(1)}, INF),
    lambda: Jet2(FLOAT, {(-2, 1): 1j}, INF),
])
def test_negative_exponents_are_bad_params(build):
    with pytest.raises(BadParams):
        build()


def test_unknown_variable_of_jet2_is_bad_params():
    with pytest.raises(BadParams):
        Jet2.variable("z")


def test_unknown_variable_of_jet_derive_is_bad_params():
    with pytest.raises(BadParams):
        jet_derive(x(4), "z")


# -- re-keying, comparing and lowering on the stored numerators ---------------------
#
# restrict_y0, restrict_x0, divide_monomial, swap_axes and the blow-up's line
# substitution move stored keys, equals compares stored data and to_float
# divides stored numerators.  Each must store what its scalar-view form in
# the oracle stores: the same den, re, im and valid_through in the same term
# order (repr shows each float's bits and the sign of zero), the same
# boolean and the same NotDivisible message.

def _layout(jet: Jet2):
    assert isinstance(jet, Jet2)
    return (jet.mode, jet.den, repr(list(jet.re.items())), repr(list(jet.im.items())),
            jet.valid_through)


def _divided(jet: Jet2, i: int, j: int, divide):
    try:
        return _layout(divide(jet, i, j))
    except NotDivisible as exc:
        return str(exc)


@st.composite
def _gaussian_jets(draw, mode):
    """Truncated or polynomial jets with Gaussian coefficients of up to 80
    bits (exact), or with float parts that include signed zeros."""
    if mode == FLOAT:
        return draw(st.one_of(float_jets(), exact_jets().map(Jet2.to_float)))
    return draw(exact_jets(bits=draw(st.sampled_from([2, 8, 24, 80]))))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([EXACT, FLOAT]), st.data())
def test_rekeying_stores_what_the_scalar_view_stores(mode, data):
    a, b = data.draw(_gaussian_jets(mode)), data.draw(_gaussian_jets(mode))
    _assert_stored1(a.restrict_y0())
    assert _layout(a.restrict_y0().jet) == _layout(oracles.v_restrict_y0(a))
    assert _layout(a.restrict_x0().jet) == _layout(oracles.v_restrict_x0(a))
    for i, j in ((0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2)):
        assert _divided(a, i, j, Jet2.divide_monomial) == \
            _divided(a, i, j, oracles.v_divide_monomial)
    # a jet of order >= 2 is divisible by x^i y^j for some i + j = 2
    shifted = jet_mul(a, Jet2.monomial(1, 1, 1, mode))
    assert _layout(shifted.divide_monomial(1, 1)) == \
        _layout(oracles.v_divide_monomial(shifted, 1, 1))
    field = VectorFieldGerm(a, b)
    assert [_layout(c) for c in (field.swap_axes().a, field.swap_axes().b)] == \
        [_layout(c) for c in (oracles.v_swap_axes(field).a, oracles.v_swap_axes(field).b)]
    for chart in (0, 1):
        assert _layout(_substitute_line(a, chart)) == \
            _layout(oracles.v_substitute_line(a, chart))
    # a move that raises degrees is cut at valid_through
    _assert_stored(_rekeyed(a, lambda k: (k[0] + k[1], k[1]), a.valid_through))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([EXACT, FLOAT]), st.data())
def test_equals_answers_what_the_scalar_view_answers(mode, data):
    a, b = data.draw(_gaussian_jets(mode)), data.draw(_gaussian_jets(mode))
    rebuilt = Jet2(mode, dict(a.coeffs), a.valid_through)
    pairs = [(a, b), (a, a), (a, rebuilt), (a, a.truncate(2)), (a, (a + b) - b),
             (a, a + b.truncate(1)), (a + b, b + a), (a, a + b.scale(1e-3 if mode == FLOAT else 1))]
    tols = (0.0, 1e-3, 1.0) if mode == FLOAT else (0.0,)
    seen = set()
    for u, v in pairs:
        for tol in tols:
            got = u.equals(v, tol)
            assert got == oracles.v_equals(u, v, tol)
            seen.add(got)
    assert True in seen


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_to_float_is_the_scalar_view_lowered(data):
    a = data.draw(_gaussian_jets(EXACT))
    assert _layout(a.to_float()) == _layout(oracles.v_to_float(a))
    f = a.restrict_y0()
    _assert_stored1(f.to_float())
    assert _layout(f.to_float().jet) == _layout(oracles.v_to_float(f.jet))


def test_to_float_keeps_the_signs_of_parts_that_underflow():
    tiny = Fraction(-1, 10 ** 400)     # a part that rounds to -0.0
    a = Jet2(EXACT, {(0, 0): GR(1, tiny), (1, 0): GR(tiny, 1), (0, 1): GR(tiny, tiny)}, INF)
    assert _layout(a.to_float()) == _layout(oracles.v_to_float(a))
