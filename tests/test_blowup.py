"""Quadratic blow-up: chart transforms, bookkeeping, divisor singularities."""

from __future__ import annotations

import pytest

from germforge import cli
from germforge.blowup import blowup_vf, divisor_singularities
from germforge.errors import BadParams, DegenerateBlowup, DicriticalInput
from germforge.germ import VectorFieldGerm
from germforge.scalars import EXACT, GaussianRational
from germforge.series import INF, Jet2, jet_mul

import oracles

GR = GaussianRational


def x():
    return Jet2.variable("x", EXACT, INF)


def y():
    return Jet2.variable("y", EXACT, INF)


def parabolic():
    # x^2 dx - y(x-2y) dy
    return VectorFieldGerm(jet_mul(x(), x()), -jet_mul(y(), x() - y().scale(2)))


def quartic():
    # A = 0, B = (y-x)(y+x)(y-3x)(y+x/2)
    return VectorFieldGerm(Jet2.zero(EXACT, INF),
                           jet_mul(jet_mul(y() - x(), y() + x()),
                                   jet_mul(y() - x().scale(3), y() + x().scale(GR(1) / 2))))


def test_radial_field_chart0():
    r = blowup_vf(VectorFieldGerm(x(), y()), 0)
    assert r.transformed.a.equals(x())
    assert r.transformed.b.is_zero()
    assert r.divisor_order == 0
    assert r.dicritical


def test_linear_diagonal_chart0():
    r = blowup_vf(VectorFieldGerm(x().scale(2), y().scale(-3)), 0)
    assert r.transformed.a.equals(x().scale(2))
    assert r.transformed.b.equals(y().scale(-5))  # -(m+n) t dt
    assert r.divisor_order == 0
    assert not r.dicritical
    sings = divisor_singularities(r)
    assert len(sings) == 1 and sings[0].point == GR(0)


def test_parabolic_has_three_divisor_singularities():
    # chart-0 roots t in {0, 1} plus the chart-1 corner
    p = parabolic()
    r0 = blowup_vf(p, 0)
    assert r0.divisor_order == 1 and not r0.dicritical
    s0 = divisor_singularities(r0)
    assert sorted(str(s.point) for s in s0) == ["0", "1"]
    r1 = blowup_vf(p, 1)
    s1 = divisor_singularities(r1)
    corner = [s for s in s1 if s.point == GR(0)]
    assert len(corner) == 1
    assert len(s0) + len(corner) == 3


def test_quartic_divisor_roots_found_by_deflation():
    # B = (y-x)(y+x)(y-3x)(y+x/2), A = 0: the divisor polynomial has degree 4
    # with small rational roots, so three are peeled off by synthetic division
    sings = divisor_singularities(blowup_vf(quartic(), 0))
    assert sorted(str(s.point) for s in sings) == ["-1", "-1/2", "1", "3"]


def _by_value(values):
    return sorted(values, key=lambda z: (z.real, z.imag))


@pytest.mark.parametrize("field, chart", [(parabolic(), 0), (parabolic(), 1), (quartic(), 0)],
                         ids=["parabolic-chart0", "parabolic-chart1", "quartic"])
def test_float_divisor_singularities_match_exact(field, chart):
    # float mode finds the divisor roots with numpy; the points and the
    # eigenvalues there agree with the exact ones
    exact = divisor_singularities(blowup_vf(field, chart))
    floats = divisor_singularities(blowup_vf(field.to_float(), chart))
    assert len(floats) == len(exact) >= 2
    for s in exact:
        (f,) = [f for f in floats if abs(f.point - s.point.to_complex()) <= 1e-12]
        assert (f.linear.eigenvalues is None) == (s.linear.eigenvalues is None)
        if s.linear.eigenvalues is not None:
            got = _by_value(f.linear.eigenvalues)
            want = _by_value(e.to_complex() for e in s.linear.eigenvalues)
            assert all(abs(g - w) <= 1e-12 for g, w in zip(got, want))


def test_parabolic_siegel_eigenvalues():
    # the chart-1 corner has eigenvalue ratio 1 : -1; the chart-0 corner 1 : -(n+1)
    p = parabolic()
    s0 = divisor_singularities(blowup_vf(p, 0))
    at0 = next(s for s in s0 if s.point == GR(0))
    e1, e2 = at0.linear.eigenvalues
    assert {e1, e2} == {GR(1), GR(-2)}
    s1 = divisor_singularities(blowup_vf(p, 1))
    corner = next(s for s in s1 if s.point == GR(0))
    e1, e2 = corner.linear.eigenvalues
    assert e1 + e2 == GR(0) and e1 != GR(0)  # ratio 1 : -1


def test_nilpotent_parabolic_unique_singularity():
    n = VectorFieldGerm(y() - jet_mul(x(), x()).scale(2), -jet_mul(x(), y()).scale(2))
    r0 = blowup_vf(n, 0)
    assert not r0.dicritical
    s0 = divisor_singularities(r0)
    assert [s.point for s in s0] == [GR(0)]
    # the chart-1 side is regular on the divisor (ds component is a unit)
    r1 = blowup_vf(n, 1)
    assert divisor_singularities(r1) == []


def test_dicritical_rejects_singularities():
    r = blowup_vf(VectorFieldGerm(x(), y()), 0)
    with pytest.raises(DicriticalInput):
        divisor_singularities(r)


def test_order_bookkeeping_on_monomials():
    for (i, j, comp) in [(2, 0, "a"), (1, 1, "a"), (0, 2, "b"), (3, 1, "b"), (2, 2, "a")]:
        mono = Jet2.monomial(i, j, 1, EXACT, INF)
        if comp == "a":
            f = VectorFieldGerm(mono, Jet2.zero(EXACT, INF))
        else:
            f = VectorFieldGerm(Jet2.zero(EXACT, INF), mono)
        d = i + j
        for chart in (0, 1):
            r = blowup_vf(f, chart)
            assert not r.dicritical  # no monomial field is dicritical
            assert r.divisor_order == d - 1


def test_dicritical_iff_divisor_not_invariant():
    # h * (x dx + y dy) is dicritical; x dx - y dy is not
    radial = VectorFieldGerm(jet_mul(x(), x()), jet_mul(x(), y()))
    assert blowup_vf(radial, 0).dicritical
    siegel = VectorFieldGerm(x(), -y())
    assert not blowup_vf(siegel, 0).dicritical


def test_chart_consistency_on_overlap():
    """The two chart transforms agree as foliations under (x,t) -> (ty*.., y)."""
    # chart 0 coords (x, t) with y = tx; chart 1 coords (s, y) with x = sy;
    # overlap: s = 1/t, y = tx, and back x = sy, t = 1/s.
    fields = [
        parabolic(),
        VectorFieldGerm(jet_mul(x(), y()), jet_mul(y(), y()) - jet_mul(x(), x())),
        VectorFieldGerm(x().scale(2), y().scale(-3)),
    ]
    for f in fields:
        t0 = blowup_vf(f, 0).transformed
        t1 = blowup_vf(f, 1).transformed
        # push the chart-0 field through (s, y) = (1/t, tx):
        # ds = -t^-2 dt, dy = t dx + x dt, with (x, t) = (sy, 1/s)
        a0 = oracles.from_jet(t0.a)   # dx component in (x, t)
        b0 = oracles.from_jet(t0.b)   # dt component
        one = oracles.gr(1)
        sub = lambda p: oracles.l_substitute(p, (1, 1, one),   # x = s y
                                             (-1, 0, one))     # t = 1/s
        a0s, b0s = sub(a0), sub(b0)
        ds = oracles.p_mul({(2, 0): oracles.gr(-1)}, b0s)     # -t^-2 = -s^2
        dy = oracles.p_add(oracles.p_mul({(-1, 0): one}, a0s),
                           oracles.p_mul({(1, 1): one}, b0s))  # t*A + x*B
        # proportionality with (t1.a, t1.b): cross product vanishes
        a1 = oracles.from_jet(t1.a)
        b1 = oracles.from_jet(t1.b)
        cross = oracles.p_add(oracles.p_mul(ds, b1), oracles.p_neg(oracles.p_mul(dy, a1)))
        assert not cross


@pytest.mark.parametrize("field", [
    VectorFieldGerm(Jet2.zero(EXACT, INF), Jet2.zero(EXACT, INF)),
    VectorFieldGerm(Jet2.const(1, EXACT, INF), Jet2.zero(EXACT, INF)),
])
def test_degenerate_blowup_input_raises(field):
    with pytest.raises(DegenerateBlowup):
        blowup_vf(field, 0)


def test_blowup_rejects_unknown_chart():
    with pytest.raises(BadParams):
        blowup_vf(VectorFieldGerm(x(), y()), 2)


@pytest.mark.parametrize("text", ["[0,0]", "[1,0]"])
def test_cli_blowup_of_degenerate_germ_exits_2(text, capsys):
    assert cli.main(["blowup", text]) == 2
    assert "error:" in capsys.readouterr().out
