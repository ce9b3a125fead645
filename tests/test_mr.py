"""Martinet-Ramis forms: contraction identity, resonance, linearization, periods."""

from __future__ import annotations

import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from germforge import numflow
from germforge.errors import BadParams, ModeMismatch
from germforge.germ import VectorFieldGerm, pullback
from germforge.mr import (
    MRFormalForm,
    holonomy_model,
    linearize,
    mr_formal_vf,
    mr_leaf_period,
    mr_one_form,
)
from germforge.numflow import LeafLoopSpec, TimePath, integrate_flow_1d, track_leaf
from germforge.scalars import EXACT, FLOAT, GaussianRational
from germforge.series import INF, Jet1, Jet2, jet_mul, jet_pow

from oracles import resonant_monomials, t_linearize

GR = GaussianRational


def test_formal_vf_lambda_zero():
    vf = mr_formal_vf(MRFormalForm(1, 1, 1, 0), EXACT, 10)
    assert vf.a.coeffs == {(1, 0): GR(1)}
    assert vf.b.coeffs == {(0, 1): GR(-1), (1, 2): GR(1)}  # -y(1 - xy)


def test_contraction_identity_grid():
    x = Jet2.variable("x", EXACT, INF)
    y = Jet2.variable("y", EXACT, INF)
    one = Jet2.const(1, EXACT, INF)
    for m, n in ((1, 1), (2, 1), (1, 2), (3, 2)):
        for p in (1, 2):
            for lam in (GR(0), GR(1), GR(Fraction(1, 3), Fraction(1, 2))):
                form = MRFormalForm(m, n, p, lam)
                vf = mr_formal_vf(form, EXACT, 12)
                # the field of the docstring: mx[1+lam w^p] dx - ny[1+(lam-1) w^p] dy
                wp = jet_pow(jet_mul(jet_pow(x, n), jet_pow(y, m)), p)
                a = jet_mul(x.scale(m), one + wp.scale(lam))
                b = jet_mul(y.scale(-n), one + wp.scale(lam - GR(1)))
                assert vf.equals(VectorFieldGerm(a, b).truncate(12))
                coeff_dx, coeff_dy = mr_one_form(form, EXACT)
                contraction = jet_mul(coeff_dx.truncate(12), vf.a) + \
                    jet_mul(coeff_dy.truncate(12), vf.b)
                assert contraction.is_zero()


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf, complex(0, math.nan),
                                 complex(1, math.inf)])
def test_formal_form_rejects_a_non_finite_lambda(lam):
    with pytest.raises(BadParams):
        MRFormalForm(1, 1, 1, lam)


@pytest.mark.parametrize("lam", [1e155, 1e200, complex(0, 1e308)])
def test_formal_vf_refuses_a_lambda_that_overflows_in_float(lam):
    # lam * (lam - 1) is inf and the contraction inf - inf = nan: it ended in
    # "AssertionError: MR contraction identity violated at construction"
    with pytest.raises(BadParams, match="overflows"):
        mr_formal_vf(MRFormalForm(1, 1, 1, lam), FLOAT, 8)


@pytest.mark.parametrize("m, n, p", [(65, 1, 1), (1, 65, 1), (1, 1, 65), (1, 10**9, 1)])
def test_form_refuses_integers_above_the_degree_bound(m, n, p):
    # a float power of a single term takes e products: n = 10^7 took 3.5 s
    with pytest.raises(BadParams, match="<= 64"):
        MRFormalForm(m, n, p, 0.0)


def test_form_at_the_degree_bound_builds():
    vf = mr_formal_vf(MRFormalForm(64, 64, 64, 0.0), FLOAT, 16)
    assert vf.a.coeff(1, 0) == 64


def test_formal_vf_exponent_convention():
    # (m, n) = (2, 1): the invariant is x^n y^m = x y^2
    vf = mr_formal_vf(MRFormalForm(2, 1, 2, GR(1)), EXACT, 12)
    # dx component: 2x(1 + (xy^2)^2) -> monomial x^3 y^4
    assert vf.a.coeff(3, 4) == GR(2)
    assert vf.a.coeff(1, 0) == GR(2)


def test_holonomy_model_examples():
    h = holonomy_model(1, 1, 0.0, 8)
    assert abs(h.coeffs[2] - 2j * math.pi) < 1e-14
    assert set(h.coeffs) == {2}
    h = holonomy_model(1, 1, 1.0, 6)
    # 2 pi i z^2 (1 - z + z^2 - ...)
    assert abs(h.coeffs[3] + 2j * math.pi) < 1e-14
    assert abs(h.coeffs[4] - 2j * math.pi) < 1e-14


def test_holonomy_model_time_one_closed_form():
    h = holonomy_model(1, 1, 0.0, 8)
    z0 = 0.05
    end = integrate_flow_1d(h, z0, TimePath.segment(0, 1, tol=1e-12))
    assert abs(end - z0 / (1 - 2j * math.pi * z0)) < 1e-10


def test_resonant_monomials_eigenvalue_relation():
    data = resonant_monomials(1, 1, 5)
    assert data.dx_monomials == [(2, 1), (3, 2)]
    assert data.dy_monomials == [(1, 2), (2, 3)]
    data = resonant_monomials(2, 1, 6)
    # relation k1 m - k2 n = m: (k1 - 1) 2 = k2: x^2y^2, x^3y^4 (degree 7 > 6)
    assert data.dx_monomials == [(2, 2)]
    assert data.dy_monomials == [(1, 3)]
    for (i, j) in data.dx_monomials:
        assert i * 2 - j * 1 == 2
    for (i, j) in data.dy_monomials:
        assert i * 2 - j * 1 == -1


def test_unimodular_perturbations_never_resonant():
    for (m, n, amu, bmu) in ((1, 1, 1, 0), (2, 1, 1, 1), (3, 2, 1, 2)):
        assert amu * m - bmu * n in (1, -1)
        data = resonant_monomials(m, n, 14)
        for j in range(1, 4):
            dx_mono = (1 + j * n - amu, j * m - bmu)
            dy_mono = (j * n - amu, 1 + j * m - bmu)
            assert dx_mono not in data.dx_monomials
            assert dy_mono not in data.dy_monomials


def test_linearize_removes_nonresonant_term():
    x = Jet2.variable("x", EXACT, INF)
    y = Jet2.variable("y", EXACT, INF)
    f = VectorFieldGerm(x + jet_mul(jet_mul(x, x), x), -y).truncate(8)
    result = linearize(f, 8)
    assert result.obstruction is None
    assert result.linearized.a.truncate(7).equals(x.truncate(7))


def test_linearize_reports_resonant_obstruction():
    x = Jet2.variable("x", EXACT, INF)
    y = Jet2.variable("y", EXACT, INF)
    f = VectorFieldGerm(x + jet_mul(jet_mul(x, x), y), -y).truncate(8)
    result = linearize(f, 8)
    assert result.obstruction == (2, 1, "x")
    # the resonant term survives in the normal form
    assert result.linearized.a.coeff(2, 1) == GR(1)


def test_linearize_requires_siegel_diagonal():
    x = Jet2.variable("x", EXACT, INF)
    y = Jet2.variable("y", EXACT, INF)
    with pytest.raises(BadParams):
        linearize(VectorFieldGerm(x + y, -y).truncate(8), 8)


def test_linearize_rejects_float_input():
    field = VectorFieldGerm(Jet2.variable("x", FLOAT, 8), Jet2.variable("y", FLOAT, 8).scale(-1))
    with pytest.raises(ModeMismatch):
        linearize(field, 8)


def test_linearize_conjugation_soundness():
    x = Jet2.variable("x", EXACT, INF)
    y = Jet2.variable("y", EXACT, INF)
    w = jet_mul(x, y)
    pert = jet_mul(jet_mul(y, y), jet_mul(x, y))  # x y^3: gap 1-3+1 = -1
    f = VectorFieldGerm(x + jet_mul(w, w), -y - pert).truncate(10)
    result = linearize(f, 10)
    model = VectorFieldGerm(x, -y).truncate(10)
    # the recorded change conjugates the linear model back to the input
    back = pullback(model, result.change.inverse(10))
    assert back.truncate(9).equals(f.truncate(9))


def test_linearize_requires_a_zero_at_the_origin():
    x = Jet2.variable("x", EXACT, INF)
    y = Jet2.variable("y", EXACT, INF)
    with pytest.raises(BadParams):
        linearize(VectorFieldGerm(x + Jet2.const(1, EXACT, INF), -y).truncate(8), 8)


# -- the graded solve against the elimination loop and by completion ---------------
#
# Random dense fields diag(m, -n) + N with Gaussian-rational coefficients.
# oracles.t_linearize is the elimination loop linearize replaced: its change
# is a composite of steps and may hold resonant monomials, so the two agree
# on the obstruction and on the normal form through the obstruction's degree
# only.  The completion test needs no oracle: whatever X is beyond its
# valid_through, every coefficient linearize claims must stay the same.

MN = [(m, n) for m in (1, 2, 3) for n in (1, 2, 3)]


def _random_gr(rng):
    im = Fraction(rng.randint(-5, 5), rng.randint(1, 5)) if rng.random() < 0.3 else 0
    return GR(Fraction(rng.randint(-5, 5), rng.randint(1, 5)), im)


def _random_terms(rng, low, high, share=0.7):
    """Coefficients of degrees low..high, each monomial kept with probability share."""
    return {(i, d - i): _random_gr(rng) for d in range(low, high + 1)
            for i in range(d + 1) if rng.random() < share}


def _dense_field(rng, m, n, valid):
    """diag(m, -n) plus random terms of degrees 2..valid, known through valid."""
    return VectorFieldGerm(
        Jet2(EXACT, {(1, 0): GR(m), **_random_terms(rng, 2, valid)}, valid),
        Jet2(EXACT, {(0, 1): GR(-n), **_random_terms(rng, 2, valid)}, valid))


@pytest.mark.parametrize("m, n", MN)
def test_linearize_matches_the_elimination_loop(m, n):
    rng = random.Random(f"linearize/{m}/{n}")
    for k in range(17):
        degree = 4 + k % 6
        field = _dense_field(rng, m, n, degree)
        out = linearize(field, degree)
        _, normal_form, obstruction = t_linearize(field, m, n, degree)
        assert out.obstruction == obstruction
        same_through = degree if obstruction is None else obstruction[0] + obstruction[1]
        assert out.linearized.truncate(same_through).equals(normal_form.truncate(same_through))
        assert out.change.comp1.valid_through == out.linearized.valid_through == degree
        assert pullback(field, out.change).equals(out.linearized)
        # phi - id holds no resonant monomial, and Y - L only resonant ones
        res = resonant_monomials(m, n, degree)
        for comp, lin_key, lin_value, resonant, y_comp in (
                (out.change.comp1, (1, 0), GR(m), res.dx_monomials, out.linearized.a),
                (out.change.comp2, (0, 1), GR(-n), res.dy_monomials, out.linearized.b)):
            assert comp.coeffs[lin_key] == GR(1)
            assert all(sum(key) >= 2 and key not in resonant for key in comp.coeffs if key != lin_key)
            assert y_comp.coeffs[lin_key] == lin_value
            assert all(key in resonant for key in y_comp.coeffs if key != lin_key)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(MN), st.integers(2, 7), st.integers(-1, 3),
       st.randoms(use_true_random=False))
def test_linearize_is_sound_for_any_completion(mn, valid, extra, rng):
    """change and linearized are right through the valid_through they claim,
    and the obstruction found there stays, whatever X is beyond valid."""
    m, n = mn
    degree = valid + extra
    field = _dense_field(rng, m, n, valid)
    tail = [_random_terms(rng, valid + 1, degree + 1, 0.5) for _ in range(2)]
    full = VectorFieldGerm(Jet2(EXACT, {**field.a.coeffs, **tail[0]}, INF),
                           Jet2(EXACT, {**field.b.coeffs, **tail[1]}, INF))
    out, ref = linearize(field, degree), linearize(full, degree)
    for got, want in ((out.change.comp1, ref.change.comp1), (out.change.comp2, ref.change.comp2),
                      (out.linearized.a, ref.linearized.a), (out.linearized.b, ref.linearized.b)):
        assert got.valid_through <= want.valid_through
        assert got.equals(want)
    claimed = out.linearized.valid_through
    if out.obstruction is not None or ref.obstruction is None:
        assert out.obstruction == ref.obstruction
    else:
        assert ref.obstruction[0] + ref.obstruction[1] > claimed


def test_linearize_claims_no_more_than_the_field_knows():
    x = Jet2.variable("x", EXACT, INF)
    y = Jet2.variable("y", EXACT, INF)
    field = VectorFieldGerm(x + jet_mul(x, x), -y + jet_mul(x, y)).truncate(5)
    out = linearize(field, 9)
    assert out.change.comp1.valid_through == out.change.comp2.valid_through == 5
    assert out.linearized.valid_through == 5


def test_mr_leaf_period_constant_unit():
    one = Jet2.const(1, FLOAT, INF)
    p = mr_leaf_period(1, one, 1, 1, (0.1, 0.2))
    expected = 2j * math.pi / 0.02
    assert abs(p - expected) / abs(expected) < 1e-10


def test_mr_leaf_period_leaf_dependence_witness():
    f = Jet2.const(1, FLOAT, INF) + Jet2.variable("x", FLOAT, INF)
    p1 = mr_leaf_period(1, f, 1, 1, (0.1, 0.2))
    p2 = mr_leaf_period(1, f, 1, 1, (0.15, 0.2))
    assert abs(p1 - p2) > 1e-6


def test_mr_leaf_period_same_leaf_same_value():
    one = Jet2.const(1, FLOAT, INF)
    p1 = mr_leaf_period(1, one, 1, 1, (0.1, 0.2))
    p2 = mr_leaf_period(1, one, 1, 1, (0.2, 0.1))
    assert abs(p1 - p2) < 1e-10


def test_period_dichotomy_against_divisor_pairing():
    # x^a y^b (m x dx - n y dy): vanishing periods iff am - bn = +-1
    one = Jet2.const(1, FLOAT, INF)
    two_pi_i = 2j * math.pi
    # am - bn = 0 (k = 1, m = n = 1): period = 2 pi i / (x0 y0)
    p = mr_leaf_period(1, one, 1, 1, (0.1, 0.3))
    assert abs(p - two_pi_i / 0.03) < 1e-8
    # am - bn = +-1 corresponds to integrating e^(-T): done at field level
    x = Jet2.variable("x", EXACT, INF)
    y = Jet2.variable("y", EXACT, INF)
    f = VectorFieldGerm(jet_mul(x, x), -jet_mul(x, y)).to_float()
    period, _ = numflow.leaf_period(f, numflow.siegel_loop(0.4, 0.02, tol=1e-12))
    assert abs(period) < 1e-8


def test_tracked_holonomy_matches_model():
    for lam in (0.0, 0.3):
        field = mr_formal_vf(MRFormalForm(1, 1, 1, lam), FLOAT, 12)

        def tracker(z0):
            spec = LeafLoopSpec(base_var="x", center=0j, radius=1.0, winding=1,
                                seed=z0, tol=1e-12, max_step=0.02, polydisc=8.0)
            return track_leaf(field, spec)

        model = holonomy_model(1, 1, lam, 12)
        tracked = tracker(0.05)
        time_one = integrate_flow_1d(model, 0.05, TimePath.segment(0, 1, tol=1e-12))
        assert abs(tracked - time_one) < 1e-5
        c2 = numflow.holonomy_taylor_coefficient(tracker, 2)
        assert abs(c2 - 2j * math.pi) < 1e-4
