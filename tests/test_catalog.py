"""Catalog constructors, parameter validation, invariants, classifier."""

from __future__ import annotations

from fractions import Fraction

import pytest

from germforge.catalog import (
    NormalFormID,
    classify,
    classify_with_reasons,
    first_integral,
    make_normal_form,
    make_pair,
    parse_id,
)
from germforge.errors import BadParams, ModeMismatch, NonzeroEigenvalue
from germforge.germ import (
    RationalFn,
    VectorFieldGerm,
    derive_along,
    lie_bracket,
    linear_part,
    primitive_split,
)
from germforge.scalars import EXACT, FLOAT, GaussianRational
from germforge.series import INF, Jet1, Jet2, jet_mul

GR = GaussianRational


def test_row2_exact_form():
    x = make_normal_form(NormalFormID("table", "2", {"n": 1}), EXACT, 12)
    assert x.a.coeffs == {(2, 0): GR(1)}
    assert x.b.coeffs == {(1, 1): GR(-1), (0, 2): GR(2)}


def test_row7_exact_form():
    x = make_normal_form(NormalFormID("table", "7", {"a": 0}), EXACT, 12)
    assert x.a.coeffs == {(0, 1): GR(2)}
    assert x.b.coeffs == {(2, 0): GR(-3)}


def test_row12_constraint():
    x = make_normal_form(
        NormalFormID("table", "12", {"m": 2, "n": 1, "a": 1, "b": 1}), EXACT, 12)
    assert x.a.coeffs == {(2, 1): GR(2)}
    assert x.b.coeffs == {(1, 2): GR(-1)}
    with pytest.raises(BadParams):
        make_normal_form(
            NormalFormID("table", "12", {"m": 1, "n": 1, "a": 1, "b": 1}), EXACT, 12)


def test_row_constraint_errors_are_named():
    with pytest.raises(BadParams, match="a != 0"):
        make_normal_form(NormalFormID("table", "1a", {"a": 0}), EXACT, 8)
    with pytest.raises(BadParams, match="g1"):
        make_normal_form(
            NormalFormID("table", "1c", {"a": 1},
                         {"g1": Jet1.const(1, EXACT), "g2": Jet1.zero(EXACT)}),
            EXACT, 8)
    with pytest.raises(BadParams, match="n in Z"):
        make_normal_form(NormalFormID("table", "11", {"n": 0}), EXACT, 8)


def test_pair_constructor_rejects_vii_violation():
    with pytest.raises(BadParams, match="am - bn"):
        make_pair(NormalFormID("mt", "vii", {"m": 1, "n": 1, "a": 1, "b": 1}),
                  EXACT, 8)


def test_pair_mt_i_spec_instance():
    x, y = make_pair(NormalFormID("mt", "i", {"n": 1, "alpha": 1}), EXACT, 10)
    assert x.a.coeffs == {(0, 1): GR(1)}
    assert x.b.is_zero()
    # Y = y((1+x) dx + y dy)
    assert y.a.coeffs == {(0, 1): GR(1), (1, 1): GR(1)}
    assert y.b.coeffs == {(0, 2): GR(1)}


def test_pair_mt_vi():
    x, y = make_pair(NormalFormID("mt", "vi"), EXACT, 10)
    assert x.a.coeffs == {(0, 1): GR(1), (2, 0): GR(-2)}
    assert x.b.coeffs == {(1, 1): GR(-2)}
    assert y.a.coeffs == {(1, 1): GR(1)}
    assert y.b.coeffs == {(0, 2): GR(1)}
    assert lie_bracket(x, y).is_zero()


def test_every_family_commutes():
    cases = [
        NormalFormID("mt", "i", {"n": 2, "alpha": GR(1, 1)},
                     {"r": Jet1.from_coeffs({2: 1}, EXACT),
                      "s": Jet1.from_coeffs({1: -1, 3: 1}, EXACT)}),
        NormalFormID("mt", "ii"),
        NormalFormID("mt", "iii", {"n": 3}),
        NormalFormID("mt", "iii", {"n": 1, "c1": GR(0, 1), "c2": 2}),
        NormalFormID("mt", "iv", {"n": 2},
                     {"g1": Jet1.from_coeffs({0: 1, 2: 1}, EXACT),
                      "g2": Jet1.from_coeffs({1: 2}, EXACT)}),
        NormalFormID("mt", "v", {"n": 0}),
        NormalFormID("mt", "vii", {"m": 2, "n": 1, "a": 1, "b": 1, "k1": 1}),
    ]
    for nf in cases:
        x, y = make_pair(nf, EXACT, 12)
        assert lie_bracket(x, y).is_zero(), nf.label()


def test_make_pair_leaves_the_id_alone():
    # make_pair wrote sign, a_mu and b_mu into the caller's params, so the
    # label of "mt:vii[m=1,n=1,a=1,b=0,k1=1]" gained three entries
    for params in ({"m": 3, "n": 2, "a": 1, "b": 2}, {"m": 1, "n": 1, "a": 2, "b": 1}):
        nf = NormalFormID("mt", "vii", dict(params))
        x, y = make_pair(nf, EXACT, 10)
        assert nf.params == params
        assert lie_bracket(x, y).is_zero()
    nf = parse_id("mt:vii[m=1,n=1,a=1,b=0,k1=1]")
    make_pair(nf, EXACT, 6)
    assert nf.label() == "mt:vii[a=1,b=0,k1=1,m=1,n=1]"


def test_pair_constructor_rejects_vii_pole():
    # x^-1 u2(x y^2) with u2 = 1 has a pole: divide_monomial raises
    # NotDivisible, which the constructor reports as BadParams
    nf = NormalFormID("mt", "vii", {"m": 2, "n": 1, "a": 1, "b": 1},
                      {"u2": Jet1.from_coeffs({0: 1}, EXACT)})
    with pytest.raises(BadParams, match="holomorphic"):
        make_pair(nf, EXACT, 8)


def test_mt_vii_perturbation_is_holomorphic_order_one():
    nf = NormalFormID("mt", "vii", {"m": 2, "n": 1, "a": 1, "b": 1},
                      {"u2": Jet1.from_coeffs({1: 1, 2: 1}, EXACT)})
    x, y = make_pair(nf, EXACT, 12)
    # Y/u1 - X must vanish to order >= order(X) + 1
    diff = y + x.scale(-1)
    assert diff.order() > x.order()


def test_first_integrals_match_fields():
    for row in ("4", "5", "6", "7", "8", "9"):
        nf = NormalFormID("table", row, {"a": 1})
        x = make_normal_form(nf, EXACT, 14)
        fi = first_integral(nf, EXACT)
        assert derive_along(x, fi.truncate(14)).is_zero(), row


def test_row9_integral_is_the_squared_cusp():
    fi = first_integral(NormalFormID("table", "9"), EXACT)
    # y(y - x^2)^2 = y^3 - 2x^2y^2 + x^4y
    assert fi.coeffs == {
        (0, 3): GR(1), (2, 2): GR(-2), (4, 1): GR(1),
    }


def _invariants(germ):
    """The order, the (x, y) divisor exponents and the linear part of the
    primitive germ, and whether that linear part is nilpotent."""
    factors, primitive = primitive_split(germ)
    powers = {f.label: f.power for f in factors}
    lin = linear_part(primitive)
    nonzero = any(not e.is_zero() for row in lin.matrix for e in row)
    return (germ.order(), (powers.get("x", 0), powers.get("y", 0)), lin,
            nonzero and lin.eigenvalues_zero())


def test_invariants_examples():
    x = Jet2.variable("x", EXACT, INF)
    y = Jet2.variable("y", EXACT, INF)
    xy = jet_mul(x, y)
    order, divisor, lin, nilpotent = _invariants(
        VectorFieldGerm(jet_mul(xy, x), -jet_mul(xy, y)))
    assert order == 3
    assert divisor == (1, 1)
    assert lin.eigenvalues == (GR(1), GR(-1))
    assert not nilpotent

    row3 = make_normal_form(NormalFormID("table", "3"), EXACT, INF)
    order, _, _, nilpotent = _invariants(row3)
    assert order == 1 and nilpotent

    radial = VectorFieldGerm(jet_mul(y, x.scale(2)), jet_mul(y, y))
    _, divisor, lin, _ = _invariants(radial)
    assert divisor == (0, 1)
    assert lin.eigenvalues == (GR(2), GR(1))


def test_classifier_examples():
    row2 = make_normal_form(NormalFormID("table", "2", {"n": 1}), EXACT, INF)
    assert [c.name for c in classify(row2)] == ["2"]

    x = Jet2.variable("x", EXACT, INF)
    cubic = VectorFieldGerm(jet_mul(jet_mul(x, x), x), Jet2.zero(EXACT, INF))
    cands, reasons = classify_with_reasons(cubic)
    assert cands == [] and "order>2" in reasons[0]

    row4 = make_normal_form(NormalFormID("table", "4", {"a": 1}), EXACT, INF)
    hits = classify(row4)
    assert any(c.name == "4" and c.params.get("a") == 1 for c in hits)


def test_classifier_requires_zero_eigenvalues():
    x = Jet2.variable("x", EXACT, INF)
    with pytest.raises(NonzeroEigenvalue):
        classify(VectorFieldGerm(x, Jet2.zero(EXACT, INF)))


def test_classifier_rejects_float_input():
    y = Jet2.variable("y", FLOAT, INF)
    with pytest.raises(ModeMismatch):
        classify_with_reasons(VectorFieldGerm(y, Jet2.zero(FLOAT, INF)))


def test_classifier_swapped_orientation():
    y = Jet2.variable("y", EXACT, INF)
    x = Jet2.variable("x", EXACT, INF)
    swapped_11 = VectorFieldGerm(jet_mul(y, x.scale(2)), jet_mul(y, y))
    hits = classify(swapped_11)
    assert any(c.name == "11" and c.params.get("n") == 2 for c in hits)


def test_classifier_sound_on_unit_factors():
    x = Jet2.variable("x", EXACT, INF)
    y = Jet2.variable("y", EXACT, INF)
    f = Jet2.const(1, EXACT, INF) + x + jet_mul(x, y).scale(3)
    nf = NormalFormID("table", "4", {"a": 1}, {"f": f})
    germ = make_normal_form(nf, EXACT, INF)
    assert any(c.name == "4" for c in classify(germ))


def test_id_string_roundtrip():
    for text in ("table:2[n=1]", "mt:vii[a=1,b=1,k1=0,m=2,n=1]", "mt:vi",
                 "table:10[lambda=1/2,m=2,n=1,p=1]"):
        nf = parse_id(text)
        assert parse_id(nf.label()).label() == nf.label()
    with pytest.raises(BadParams):
        parse_id("table:99")
    with pytest.raises(BadParams):
        parse_id("mt:vii[m=")


def test_integer_parameters_are_integers():
    # int() of a GaussianRational was a TypeError, and int(1.5) built n = 1
    for params in ({"n": 1.5}, {"n": GR(Fraction(3, 2))}, {"n": GR(1, 1)}, {"n": "1"}):
        with pytest.raises(BadParams, match="parameter n must be an integer"):
            make_normal_form(NormalFormID("table", "2", params), EXACT, 4)
    with pytest.raises(BadParams, match="parameter k1"):
        make_pair(parse_id("mt:vii[m=1,n=1,a=1,b=0,k1=1/2]"), EXACT, 4)
    want = make_normal_form(NormalFormID("table", "2", {"n": 2}), EXACT, 6)
    for value in (GR(2), Fraction(4, 2), parse_id("table:2[n=4/2]").params["n"]):
        assert make_normal_form(NormalFormID("table", "2", {"n": value}), EXACT, 6).equals(want)
    # an integral rational is bounded like an int
    with pytest.raises(BadParams, match="beyond the bound"):
        parse_id("table:5[a=2000/2]")


def test_integer_parameters_are_bounded():
    # "table:5[a=1000]" took longer than 60 s to classify, and 0.82 s at a = 64
    assert parse_id("table:5[a=64]").params == {"a": 64}
    assert parse_id("mt:vii[m=-64,n=1]").params == {"m": -64, "n": 1}
    for text in ("table:5[a=65]", "table:5[a=-65]", "table:5[a=1000]", "mt:vii[m=2,n=100000]"):
        with pytest.raises(BadParams):
            parse_id(text)


# -- the constant jets are built once per mode and shared -----------------------------

def _cached_jets(mode):
    """Every jet catalog keeps per mode, as (den, re, im, valid_through) copies."""
    from germforge.catalog import _elliptic_data, standard_forms

    jets = [jet for _, jet in standard_forms(mode)]
    for integral, (v_a, v_b) in _elliptic_data(mode).values():
        jets += [integral, v_a, v_b]
    return [(j.den, dict(j.re), dict(j.im), j.valid_through) for j in jets]


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_cached_jets_survive_the_catalog(mode):
    from germforge.acceptance import table_instance_grid
    from germforge.catalog import standard_forms

    before = _cached_jets(mode)
    runs = []
    for _ in range(2):
        out = []
        for nf in table_instance_grid(mode):
            x = make_normal_form(nf, mode, 10)
            if mode == EXACT:
                cands, reasons = classify_with_reasons(x)
                out.append((repr(x), sorted(c.label() for c in cands), reasons))
            else:
                with pytest.raises(ModeMismatch):
                    classify_with_reasons(x)
                out.append(repr(x))
        runs.append(out)
    assert runs[0] == runs[1]
    assert _cached_jets(mode) == before
    forms = standard_forms(mode)
    forms.append(("x", Jet2.variable("x", mode)))
    assert len(standard_forms(mode)) == 3


# -- classifier screens read the stored keys ------------------------------------------

@pytest.mark.parametrize("degree", [2, 3])
def test_row2_screen_reads_no_coefficient_beyond_valid_through(degree):
    # the quotient's xy coefficient lies beyond valid_through below degree 4;
    # reading it raised PrecisionExhausted instead of returning no candidate
    x = make_normal_form(parse_id("table:2[n=1]"), EXACT, degree)
    assert classify(x) == []


@pytest.mark.parametrize("terms, match", [
    ({(2, 0): 1, (1, 0): 3, (0, 1): 1}, False),            # g1(0) != 0
    ({(2, 0): 1, (0, 0): -2, (1, 2): 1}, False),           # g2(0) != 0
    ({(2, 0): 1, (3, 0): 1, (0, 2): 1}, False),            # an x^3 term
    ({(2, 0): 1, (2, 1): 1, (0, 2): 1}, False),            # an x^2 y term
    ({(1, 1): 1, (0, 2): 1}, False),                       # no x^2 term
    ({}, False),
    ({(2, 0): 1, (1, 1): 2, (1, 3): 1, (0, 2): -1, (0, 5): 1}, True),
])
def test_row1c_screen(terms, match):
    from germforge.catalog import _match_1c

    assert _match_1c(Jet2.from_coeffs(terms, EXACT, 8)) is match
