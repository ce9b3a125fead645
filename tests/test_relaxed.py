"""The graded solvers and their RelaxedComposition.

germ.CoordinateChange.inverse, series.series_ode_solve and mr.linearize
share one series.RelaxedComposition across their passes, so each pass
composes only its new degree.  Their passes as they were before, each
composing from degree 0, are the oracles t_graded_inverse,
t_graded_ode_solve and t_graded_linearize: on exact inputs of degree
6 .. 12 (dense or sparse, real or Gaussian, polynomial or truncated) the
solvers must return the same den, re, im and valid_through, and the same
obstruction.  The state itself must give what jet_compose2 gives without
one, and raise InputChanged, never a stale value, when a part it has used
changes.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from germforge.errors import (BadParams, GermforgeError, InputChanged, ModeMismatch,
                              PrecisionExhausted)
from germforge.germ import CoordinateChange, VectorFieldGerm
from germforge.mr import linearize
from germforge.scalars import EXACT, GaussianRational as GR
from germforge.series import (INF, Jet2, RelaxedComposition, _known_through, jet_compose2,
                              series_ode_solve)

import oracles


def _same(out: Jet2, want: Jet2):
    assert (out.den, out.re, out.im, out.valid_through) == \
        (want.den, want.re, want.im, want.valid_through)


def _random_gr(rng, gaussian, size):
    def part():
        return Fraction(rng.randint(-size, size), rng.randint(1, size))
    return GR(part(), part() if gaussian and rng.random() < 0.5 else 0)


def _terms(rng, low, high, share, gaussian, size=5):
    """Coefficients of degrees low..high, each monomial kept with probability share."""
    return {(i, d - i): _random_gr(rng, gaussian, size) for d in range(low, high + 1)
            for i in range(d + 1) if rng.random() < share}


# the kinds of input: a dense or a sparse jet, real or Gaussian coefficients,
# known exactly (a polynomial) or truncated below, at or above the degree
_inputs = st.tuples(st.integers(6, 12), st.sampled_from([0.9, 0.3]), st.booleans(),
                    st.sampled_from(["polynomial", "at", "below", "above"]),
                    st.randoms(use_true_random=False))


def _valid(kind, degree):
    return {"polynomial": INF, "at": degree, "below": degree - 2, "above": degree + 1}[kind]


_LINEAR = [((1, 0), (0, 1)), ((2, 1), (1, 1)), ((0, 1), (1, 0)), ((3, -1), (1, 2)),
           ((1, GR(0, 1)), (0, GR(2, 1)))]


@settings(max_examples=20, deadline=None)
@given(_inputs, st.sampled_from(_LINEAR), st.sampled_from([None, 0, 2]))
def test_inverse_matches_the_graded_passes(inputs, linear, extra):
    degree, share, gaussian, kind, rng = inputs
    valid = _valid(kind, degree)
    # small coefficients: the inverse of a dense change grows them fast
    comps = [Jet2(EXACT, {(1, 0): GR.from_value(row[0]), (0, 1): GR.from_value(row[1]),
                          **_terms(rng, 2, degree, share, gaussian, 2)}, valid)
             for row in linear]
    change = CoordinateChange.from_series(*comps)
    wanted = None if extra is None else degree + extra
    out, want = change.inverse(wanted), oracles.t_graded_inverse(change, wanted)
    _same(out.comp1, want.comp1)
    _same(out.comp2, want.comp2)


@settings(max_examples=30, deadline=None)
@given(_inputs)
def test_ode_solve_matches_the_graded_passes(inputs):
    degree, share, gaussian, kind, rng = inputs
    theta = Jet2(EXACT, _terms(rng, 0, degree, share / 2, gaussian), _valid(kind, degree))
    if theta.valid_through < degree:
        for solve in (series_ode_solve, oracles.t_graded_ode_solve):
            with pytest.raises(PrecisionExhausted):
                solve(theta, degree)
        return
    _same(series_ode_solve(theta, degree), oracles.t_graded_ode_solve(theta, degree))


@settings(max_examples=30, deadline=None)
@given(_inputs, st.sampled_from([(1, 1), (2, 1), (1, 2), (3, 2), (2, 3)]))
def test_linearize_matches_the_graded_solve(inputs, mn):
    degree, share, gaussian, kind, rng = inputs
    m, n = mn
    valid = _valid(kind, degree)
    # a sparse field often meets no resonance before its degree, a dense one does
    field = VectorFieldGerm(
        Jet2(EXACT, {(1, 0): GR(m), **_terms(rng, 2, degree, share / 3, gaussian)}, valid),
        Jet2(EXACT, {(0, 1): GR(-n), **_terms(rng, 2, degree, share / 3, gaussian)}, valid))
    out, want = linearize(field, degree), oracles.t_graded_linearize(field, degree)
    assert out.obstruction == want.obstruction
    for got, ref in ((out.change.comp1, want.change.comp1), (out.change.comp2, want.change.comp2),
                     (out.linearized.a, want.linearized.a), (out.linearized.b, want.linearized.b)):
        _same(got, ref)


# -- the state on its own ---------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.integers(2, 8), st.booleans(), st.randoms(use_true_random=False))
def test_a_state_gives_what_jet_compose2_gives(top, with_linear, rng):
    """Calls in the pattern of a graded solve, two outer series and an inner
    pair known one degree further each call: each result equals the
    composition without a state, den, re, im and valid_through."""
    low = 1 if with_linear else 2
    outers = [Jet2(EXACT, _terms(rng, low, top, 0.6, True), top) for _ in range(2)]
    inner = [Jet2(EXACT, {(1, 0): GR(1), (0, 1): GR(k), **_terms(rng, 2, top, 0.6, True)}, INF)
             for k in (2, -1)]
    state = RelaxedComposition()
    for d in range(1, top + 1):
        # with a linear outer term the result through d reads the inner
        # pair's degree d, which must then be known
        p, q = (_known_through(c.truncate(d if with_linear else d - 1), d) for c in inner)
        for slot, f in enumerate(outers):
            _same(jet_compose2(f, p, q, state, slot), jet_compose2(f, p, q))


def _pair():
    x, y = Jet2.variable("x"), Jet2.variable("y")
    f = Jet2.from_coeffs({(2, 0): 1, (1, 1): 2, (0, 3): -1}, EXACT, 6)
    p = x + Jet2.from_coeffs({(0, 2): 3, (2, 1): 1}, EXACT, INF)
    q = y + Jet2.from_coeffs({(1, 1): -1}, EXACT, INF)
    return f, p, q


# an outer series that reads p only through powers p^i, i >= 2; q only
# through powers; both through the rows' q^1 and p^1 . row_1; both directly
# through linear terms
@pytest.mark.parametrize("outer, changed", [
    ({(2, 0): 1}, "p"), ({(0, 3): -1}, "q"), ({(1, 1): 2}, "p"), ({(1, 1): 2}, "q"),
    ({(1, 0): 1, (0, 1): 1}, "p"), ({(1, 0): 1, (0, 1): 1}, "q")])
def test_a_state_raises_when_a_used_lower_degree_changes(outer, changed):
    _, p, q = _pair()
    f = Jet2.from_coeffs(outer, EXACT, 6)
    state = RelaxedComposition()
    jet_compose2(f, p.truncate(4), q.truncate(4), state)
    bump = Jet2.monomial(1, 1, 5)           # a new degree-2 part, read by then
    p, q = (p + bump, q) if changed == "p" else (p, q + bump)
    with pytest.raises(InputChanged):
        jet_compose2(f, p.truncate(5), q.truncate(5), state)
    assert issubclass(InputChanged, GermforgeError)


def test_a_state_raises_when_a_used_outer_term_changes():
    f, p, q = _pair()
    state = RelaxedComposition()
    jet_compose2(f, p.truncate(4), q.truncate(4), state)
    with pytest.raises(InputChanged):
        jet_compose2(f + Jet2.monomial(1, 2, 1), p.truncate(5), q.truncate(5), state)
    # a new outer series in another slot is free
    g = f + Jet2.monomial(1, 2, 1)
    _same(jet_compose2(g, p.truncate(5), q.truncate(5), state, 1),
          jet_compose2(g, p.truncate(5), q.truncate(5)))


def test_a_state_takes_a_newest_degree_that_nothing_read():
    # an outer series with no linear term reads the inner pair below the
    # result's top degree only: a pass may hand over its newest degree as zero
    f, p, q = _pair()
    state = RelaxedComposition()
    p3, q3 = _known_through(p.truncate(2), 3), _known_through(q.truncate(2), 3)
    _same(jet_compose2(f, p3, q3, state), jet_compose2(f, p3, q3))
    p4, q4 = p.truncate(4), q.truncate(4)
    _same(jet_compose2(f, p4, q4, state), jet_compose2(f, p4, q4))
    # and a call for fewer degrees than the state holds
    p3, q3 = p.truncate(3), q.truncate(3)
    _same(jet_compose2(f, p3, q3, state), jet_compose2(f, p3, q3))


def test_a_state_refuses_what_it_cannot_compose():
    f, p, q = _pair()
    with pytest.raises(ModeMismatch):
        jet_compose2(f.to_float(), p.to_float(), q.to_float(), RelaxedComposition())
    polynomial = Jet2.from_coeffs({(2, 0): 1}, EXACT, INF)
    with pytest.raises(BadParams):      # all known exactly: the result is known through INF
        jet_compose2(polynomial, p, q, RelaxedComposition())
    with pytest.raises(BadParams):      # an inner constant term
        jet_compose2(polynomial, p + Jet2.const(1), q.truncate(3), RelaxedComposition())
