"""Hirzebruch surface flows, chart coherence, local generators."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from germforge.errors import BadParams, OnExceptionalLocus
from germforge.germ import lie_bracket
from germforge.hirzebruch import (
    FnPoint,
    _flow_generator_chart0,
    fixed_point,
    fn_transition,
    local_generators_at_p,
    phi_flow,
    points_equal,
    prop35_member,
    psi_flow,
    random_flow_failures,
    y_display,
    z_display,
)
from germforge.scalars import EXACT, GaussianRational
from germforge.series import Jet2

GR = GaussianRational


def rand_gr(rng):
    return GR(Fraction(rng.randint(-8, 8), rng.randint(1, 5)),
              Fraction(rng.randint(-4, 4), rng.randint(1, 5)))


def test_transition_example():
    p = FnPoint.make(2, 0, 2, 8)
    q = fn_transition(p)
    assert q.chart == 1
    assert q.base == GR(Fraction(1, 2))
    assert q.fiber_num / q.fiber_den == GR(2)


def test_transition_product_structure_n0():
    p = FnPoint.make(0, 0, GR(Fraction(3, 2)), GR(5, 1))
    q = fn_transition(p)
    assert q.base == GR(Fraction(2, 3))
    assert q.fiber_num / q.fiber_den == GR(5, 1)   # F_0 is a product: fiber unchanged


def test_phi_flow_chart1_matches_the_binomial_sum():
    """Chart 1 of Phi^t sums its fiber shift by Horner in w = t u; the
    binomial sum in powers of t and u gives the same exact point."""
    rng = random.Random(17)

    def pair(g):
        return (g.re, g.im)

    for n in range(6):
        for _ in range(40):
            t, u, num, den = (rand_gr(rng) for _ in range(4))
            if (GR(1) + t * u).is_zero() or (num.is_zero() and den.is_zero()):
                continue
            q = phi_flow(n, t, FnPoint(n, 1, u, num, den))
            assert q.chart == 1
            assert (pair(q.base), pair(q.fiber_num), pair(q.fiber_den)) == \
                oracles.h_phi_flow_chart1(n, pair(t), pair(u), pair(num), pair(den))


def test_phi_flow_chart0_matches_the_difference_of_powers():
    """Chart 0 of Phi^t sums its fiber shift by Horner in t; the difference
    (x + t)^(n+1) - x^(n+1) gives the same exact point."""
    rng = random.Random(29)

    def pair(g):
        return (g.re, g.im)

    for n in range(6):
        for _ in range(40):
            t, x, num, den = (rand_gr(rng) for _ in range(4))
            if num.is_zero() and den.is_zero():
                continue
            q = phi_flow(n, t, FnPoint(n, 0, x, num, den))
            assert q.chart == 0
            assert (pair(q.base), pair(q.fiber_num), pair(q.fiber_den)) == \
                oracles.h_phi_flow_chart0(n, pair(t), pair(x), pair(num), pair(den))


def test_transition_roundtrip_random():
    rng = random.Random(3)
    for _ in range(50):
        n = rng.randint(0, 3)
        base = rand_gr(rng)
        if base.is_zero():
            continue
        p = FnPoint.make(n, rng.choice([0, 1]), base, rand_gr(rng))
        assert points_equal(fn_transition(fn_transition(p)), p)


def test_transition_rejects_exceptional_locus():
    with pytest.raises(OnExceptionalLocus):
        fn_transition(FnPoint.make(1, 0, 0, 1))


def test_phi_example():
    p = FnPoint.make(1, 0, 0, 0)
    q = phi_flow(1, GR(1), p)
    assert q.base == GR(1) and q.fiber_num / q.fiber_den == GR(1)


def test_psi_example():
    p = FnPoint.make(1, 0, 1, 0)
    q = psi_flow(1, GR(3), p)
    assert q.base == GR(1) and q.fiber_num / q.fiber_den == GR(3)


def test_psi_fixes_zero_section_of_second_chart():
    for n in (1, 2, 3):
        p = FnPoint.make(n, 1, 0, GR(7))
        q = psi_flow(n, GR(5), p)
        assert points_equal(p, q)


def test_flow_group_laws_exact():
    rng = random.Random(11)
    for n in (0, 1, 2, 3):
        for _ in range(25):
            pt = FnPoint.make(n, rng.choice([0, 1]), rand_gr(rng), rand_gr(rng))
            t, s = rand_gr(rng), rand_gr(rng)
            assert points_equal(phi_flow(n, t, phi_flow(n, s, pt)),
                                phi_flow(n, t + s, pt))
            assert points_equal(psi_flow(n, t, psi_flow(n, s, pt)),
                                psi_flow(n, t + s, pt))
            assert points_equal(psi_flow(n, s, phi_flow(n, t, pt)),
                                phi_flow(n, t, psi_flow(n, s, pt)))


def test_chart_switch_at_pole_of_second_chart():
    # 1 + t u = 0 lands on {x = 0} of the first chart
    n = 1
    p = FnPoint.make(n, 1, GR(2), GR(3))
    q = phi_flow(n, GR(Fraction(-1, 2)), p)
    assert q.chart == 0
    assert q.base.is_zero()


def test_fixed_point():
    for n in (0, 1, 2, 3):
        fp = fixed_point(n)
        assert fp.fiber_den.is_zero()     # the fiber point at infinity
        assert points_equal(phi_flow(n, GR(7, 3), fp), fp)
        assert points_equal(psi_flow(n, GR(-2, 5), fp), fp)


def test_local_generators_and_signs():
    for n in (0, 1, 2, 3):
        gens = local_generators_at_p(n)
        assert gens.z.sign == -1        # derivative convention flips Z
        assert gens.y.sign == 1         # and matches Y as printed
        assert lie_bracket(gens.z.derived.truncate(10),
                           gens.y.derived.truncate(10)).is_zero()


def test_z_germ_is_the_parabolic_row():
    from germforge.catalog import NormalFormID, make_normal_form

    for n in (1, 2):
        gens = local_generators_at_p(n)
        row2 = make_normal_form(NormalFormID("table", "2", {"n": n}), EXACT, 10)
        assert gens.z.display.truncate(10).equals(row2)
        assert gens.z.derived.truncate(10).equals(-row2)


def test_y_germ_display():
    gens = local_generators_at_p(1)
    assert gens.y.display.b.coeffs == {(1, 2): GR(-1)}
    assert gens.y.display.a.is_zero()


def test_prop35_family_commutes():
    rng = random.Random(6)
    for n in (0, 1, 2, 3):
        for _ in range(5):
            member = prop35_member(n, rand_gr(rng), rand_gr(rng), degree=10)
            assert lie_bracket(member, z_display(n, 10)).is_zero()


def test_n1_fields_linearly_dependent():
    # y dx, the nilpotent parabolic, and x(x dx + y dy) span rank 2 only
    from germforge.series import jet_mul

    x = Jet2.variable("x", EXACT, 6)
    y = Jet2.variable("y", EXACT, 6)
    fields = [
        (y, Jet2.zero(EXACT, 6)),
        (y - jet_mul(x, x).scale(2), -jet_mul(x, y).scale(2)),
        (jet_mul(x, x), jet_mul(x, y)),
    ]
    vectors = []
    keys = sorted({k for (a, b) in fields for k in set(a.coeffs) | set(b.coeffs)})
    for a, b in fields:
        vec = [a.coeffs.get(k, GR(0)) for k in keys] + \
            [b.coeffs.get(k, GR(0)) for k in keys]
        vectors.append(vec)
    assert _rank(vectors) == 2


def _rank(rows):
    rows = [list(r) for r in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(rows)) if not rows[i][c].is_zero()), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = GR(1) / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and not rows[i][c].is_zero():
                factor = rows[i][c]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        r += 1
        rank += 1
        if r == len(rows):
            break
    return rank


def test_flow_generator_rejects_unknown_flow():
    with pytest.raises(BadParams):
        _flow_generator_chart0(1, "chi")


@pytest.mark.parametrize("samples", [0, -3])
def test_random_flow_failures_needs_a_sample(samples):
    # no sample checks nothing, so it must not read as "all pass"
    with pytest.raises(BadParams, match="samples must be at least 1"):
        random_flow_failures(1, random.Random(0), samples)


# Fraction-pair parts: zero, small and of up to 24 bits
_B24 = 2 ** 24
_PARTS = st.one_of(st.just(Fraction(0)), st.integers(-3, 3).map(Fraction),
                   st.builds(Fraction, st.integers(-_B24, _B24), st.integers(1, _B24)))
_VALUES = st.tuples(_PARTS, _PARTS)
_ZERO = (Fraction(0), Fraction(0))


@st.composite
def _flow_cases(draw):
    """n in 0..24, either chart, a base that may be 0, a fiber that may be
    the point at infinity (den 0), and in chart 1 a time that may be the
    chart switch t = -1/u."""
    n, chart = draw(st.integers(0, 24)), draw(st.integers(0, 1))
    base = draw(st.one_of(st.just(_ZERO), _VALUES))
    num, den = draw(_VALUES), draw(st.one_of(st.just(_ZERO), _VALUES))
    assume(num != _ZERO or den != _ZERO)
    t = draw(_VALUES)
    if chart == 1 and base != _ZERO and draw(st.booleans()):
        t = oracles.gr_neg(oracles.gr_inv(base))
    return n, chart, t, draw(_VALUES), base, num, den


def _fields(p):
    return p.n, p.chart, p.base, p.fiber_num, p.fiber_den


def _expected(n, chart, base, num, den):
    return n, chart, GR(*base), GR(*num), GR(*den)


def _h_phi_flow(n, chart, t, base, num, den):
    """Phi^t by the oracles: chart 1 switches to chart 0 where 1 + t u = 0."""
    if chart == 1:
        if oracles.gr_add(oracles.gr(1), oracles.gr_mul(t, base)) != _ZERO:
            return 1, oracles.h_phi_flow_chart1(n, t, base, num, den)
        base, num, den = oracles.h_transition(n, base, num, den)
    return 0, oracles.h_phi_flow_chart0(n, t, base, num, den)


@settings(max_examples=300, deadline=None)
@given(case=_flow_cases())
def test_flows_match_the_fraction_pair_oracles(case):
    """Every field of the points phi_flow, psi_flow and fn_transition return,
    the projective representative (fiber_num : fiber_den) included, is the
    oracles' value as a GaussianRational."""
    n, chart, t, s, base, num, den = case
    p = FnPoint(n, chart, GR(*base), GR(*num), GR(*den))
    out_chart, expected = _h_phi_flow(n, chart, t, base, num, den)
    assert _fields(phi_flow(n, GR(*t), p)) == _expected(n, out_chart, *expected)
    assert _fields(psi_flow(n, GR(*s), p)) == \
        _expected(n, chart, *oracles.h_psi_flow(n, chart, s, base, num, den))
    if base == _ZERO:
        with pytest.raises(OnExceptionalLocus):
            fn_transition(p)
    else:
        assert _fields(fn_transition(p)) == \
            _expected(n, 1 - chart, *oracles.h_transition(n, base, num, den))
    # the second oracle: the Horner sum on GaussianRationals, fiber shift t S
    if out_chart == chart:
        a, b = (GR(*t), p.base) if chart == 0 else (GR(*t) * p.base, 1)
        assert phi_flow(n, GR(*t), p).fiber_num == \
            p.fiber_num + GR(*t) * oracles.gr_binomial_sum(n, a, b) * p.fiber_den
