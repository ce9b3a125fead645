"""One-dimensional checks, axis restrictions, and the straightening criterion."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from germforge.errors import AxisNotInvariant, BadParams
from germforge.germ import VectorFieldGerm
from germforge.onedim import (
    FAIL,
    PASS,
    UNKNOWN,
    closed_criterion,
    onedim_check,
    restrict_to_axis,
    siegel_regular_test,
    straighten_regular,
    straightening_theta,
)
from germforge.scalars import EXACT, FLOAT, GaussianRational
from germforge.series import INF, Jet1, Jet2, jet_mul, laurent_residue
from oracles import residue_probe_1d

GR = GaussianRational


def test_check_battery():
    assert onedim_check(Jet1.from_coeffs({2: 1}, EXACT, 8)).status == PASS
    v = onedim_check(Jet1.from_coeffs({3: 1}, EXACT, 8))
    assert v.status == FAIL and v.reason == "order>2" and v.witness == 3
    v = onedim_check(Jet1.from_coeffs({2: 1, 3: 1}, EXACT, 8))
    assert v.status == FAIL and v.reason == "nonzero-residue"
    assert v.witness == GR(-1)
    assert onedim_check(Jet1.from_coeffs({0: 2, 5: 1}, EXACT, 8)).status == PASS
    assert onedim_check(Jet1.zero(EXACT, 8)).status == PASS


def test_check_unknown_on_exhausted_precision():
    v = onedim_check(Jet1.from_coeffs({2: 1, 3: 1}, EXACT, 2))
    assert v.status == UNKNOWN


def test_restrict_to_axis():
    x = Jet2.variable("x", EXACT, 12)
    y = Jet2.variable("y", EXACT, 12)
    p = VectorFieldGerm(jet_mul(x, x), -jet_mul(y, x - y.scale(2)))
    hx = restrict_to_axis(p, "x")
    assert hx.coeffs == {2: GR(1)}
    radial = VectorFieldGerm(jet_mul(y, x.scale(2)), jet_mul(y, y))
    hy = restrict_to_axis(radial, "y")
    assert hy.coeffs == {2: GR(1)}
    with pytest.raises(AxisNotInvariant):
        restrict_to_axis(VectorFieldGerm(y, Jet2.zero(EXACT, 12)), "y")


def test_restrict_to_axis_rejects_unknown_axis():
    y = Jet2.variable("y", EXACT, 12)
    with pytest.raises(BadParams):
        restrict_to_axis(VectorFieldGerm(y, y), "z")


def test_straighten_trivial():
    one = Jet1.const(1, EXACT)
    u, beta = straighten_regular(one, Jet1.zero(EXACT), 2, 10)
    assert u.equals(Jet2.variable("y", EXACT, 10))
    assert all(k[0] != 1 for k in beta.coeffs)


def test_straighten_witness_monomial():
    one = Jet1.const(1, EXACT)
    u, _ = straighten_regular(one, one, 1, 8)
    assert u.coeff(1, 2) == GR(-1)   # the x*ybar^(n+1) monomial


def test_straighten_g1_linear_term():
    g1 = Jet1.const(1, EXACT) + Jet1.variable(EXACT)
    _, beta = straighten_regular(g1, Jet1.zero(EXACT), 2, 10)
    assert beta.coeff(1, 2) == GR(1)   # x*ybar^n from g1'(0)


def test_siegel_examples():
    one = Jet1.const(1, EXACT)
    z = Jet1.variable(EXACT)
    assert siegel_regular_test(one + z * z, z, 1, 10).status == PASS
    v = siegel_regular_test(one + z, Jet1.zero(EXACT), 1, 10)
    assert v.status == FAIL and v.witness == (1, 1)
    v = siegel_regular_test(one, one, 1, 10)
    assert v.status == FAIL and v.witness == (1, 2)
    v = siegel_regular_test(one, one, 2, 10)
    assert v.status == FAIL and v.witness == (1, 3)


def test_siegel_grid_matches_closed_criterion():
    one = Jet1.const(1, EXACT)
    z = Jet1.variable(EXACT)
    z2 = z * z
    g1_grid = [one, one + z, one + z2, one + z + z2, one + (z2 * z).scale(2)]
    g2_grid = [Jet1.zero(EXACT), one, z, z2, one + z]
    for n in (1, 2):
        for g1 in g1_grid:
            for g2 in g2_grid:
                v = siegel_regular_test(g1, g2, n, 10)
                assert (v.status == PASS) == closed_criterion(g1, g2)
                if v.status == FAIL:
                    assert v.witness is not None


def test_cancellation_case_still_fails():
    # g1'(0) = n g2(0) != 0 makes the x*ybar^n coefficient of 1+beta cancel;
    # the solution-series condition still detects the failure
    one = Jet1.const(1, EXACT)
    g1 = one + Jet1.variable(EXACT)
    v = siegel_regular_test(g1, one, 1, 10)
    assert v.status == FAIL
    assert not closed_criterion(g1, one)
    _, beta = straighten_regular(g1, one, 1, 10)
    assert all(k[0] != 1 for k in beta.coeffs)  # the cancellation is real


def test_residue_agrees_with_numerical_probe():
    # independent oracle: contour integral of dz/h over a small circle
    cases = [
        ({2: 1, 3: 1}, GR(-1)),
        ({2: 2, 3: 3}, GR(Fraction(-3, 4))),
        ({2: 1, 3: GR(0, 1)}, GR(0, -1)),
    ]
    for coeffs, expected in cases:
        h = Jet1.from_coeffs(coeffs, EXACT, 10)
        assert laurent_residue(h) == expected
        theta = residue_probe_1d(h, 0.04)
        numeric = theta / (2j * math.pi)
        assert abs(numeric - expected.to_complex()) < 1e-9


def test_straighten_rejects_g1_not_one_at_zero():
    with pytest.raises(BadParams):
        straighten_regular(Jet1.const(2, EXACT), Jet1.variable(EXACT), 1, 6)


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
@pytest.mark.parametrize("n", [65, 10**9])
def test_straightening_refuses_n_above_the_degree_bound(n, mode):
    # a float power y^n takes n products: n = 10^6 took 1.7 s
    one, z = Jet1.const(1, mode), Jet1.variable(mode)
    with pytest.raises(BadParams, match="n <= 64"):
        straightening_theta(z, n, 8)
    with pytest.raises(BadParams, match="n <= 64"):
        straighten_regular(one, z, n, 8)


def test_straightening_at_the_degree_bound_runs():
    one, z = Jet1.const(1, FLOAT), Jet1.variable(FLOAT)
    u, beta = straighten_regular(one, z, 64, 8)
    assert u.coeff(0, 1) == 1 and beta.is_zero()
