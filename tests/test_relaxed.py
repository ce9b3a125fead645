"""The graded solvers and their RelaxedComposition.

germ.CoordinateChange.inverse, series.series_ode_solve and mr.linearize
share one series.RelaxedComposition across their passes, so each pass
composes only its new degree.  Their passes as they were before, each
composing from degree 0, are the oracles t_graded_inverse,
t_graded_ode_solve and t_graded_linearize: on exact inputs of degree
6 .. 12 (dense or sparse, real or Gaussian, polynomial or truncated) the
solvers must return the same den, re, im and valid_through, and the same
obstruction, at degrees 0 .. 5 too.  The state works on homogeneous
parts: each part it returns must be the homogeneous part of what
jet_compose2 gives without one, and it must raise BadParams, never give a
stale value, when it is handed a part out of order or another part for a
degree it holds.  Float solves, jet_reciprocal's included, run the same
parts code; the whole-jet float loops they ran before are their oracles,
to 1e-12 of the largest coefficient of each degree.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from germforge.errors import BadParams, GermforgeError, ModeMismatch, PrecisionExhausted
from germforge.germ import CoordinateChange, VectorFieldGerm
from germforge.mr import linearize
from germforge.scalars import EXACT, FLOAT, GaussianRational as GR
from germforge.series import (_ZERO, INF, Jet2, RelaxedComposition, _from_parts, _split,
                              jet_compose2, jet_reciprocal, series_ode_solve)

import oracles

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "germbench"))
from tracer import TARGETS  # noqa: E402  (what the bench tracer rebinds, and where)


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


def _change(rng, linear, degree, share, gaussian, valid, size=2):
    """The components of a random change with linear part *linear*; small
    coefficients, since the inverse of a dense change grows them fast."""
    return [Jet2(EXACT, {(1, 0): GR.from_value(row[0]), (0, 1): GR.from_value(row[1]),
                         **_terms(rng, 2, degree, share, gaussian, size)}, valid)
            for row in linear]


def _unit(rng, degree, share, gaussian, valid):
    """A random unit with a nonzero constant term."""
    return Jet2(EXACT, {(0, 0): _random_gr(rng, gaussian, 5) or GR(1),
                        **_terms(rng, 1, degree, share, gaussian)}, valid)


@settings(max_examples=20, deadline=None)
@given(_inputs, st.sampled_from(_LINEAR), st.sampled_from([None, 0, 2]))
def test_inverse_matches_the_graded_passes(inputs, linear, extra):
    degree, share, gaussian, kind, rng = inputs
    change = CoordinateChange.from_series(*_change(rng, linear, degree, share, gaussian,
                                                   _valid(kind, degree)))
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


# -- the edge degrees 0 .. 5 --------------------------------------------------------

def _outcome(solve, *args):
    """What a solve gives: its result, or the type of what it raises."""
    try:
        return solve(*args)
    except GermforgeError as exc:
        return type(exc)


def _edge_valid(kind, degree):
    # the linear part must be known for inverse and linearize to start
    return max(1, _valid(kind, degree)) if kind != "polynomial" else INF


_EDGES = [(degree, kind, gaussian) for degree in range(6)
          for kind in ("polynomial", "below", "at", "above") for gaussian in (False, True)]


@pytest.mark.parametrize("degree, kind, gaussian", _EDGES)
@pytest.mark.parametrize("wanted", [None, "degree"])
def test_inverse_at_the_edge_degrees(degree, kind, gaussian, wanted):
    rng = random.Random(f"inverse {degree} {kind} {gaussian}")
    linear = _LINEAR[4 if gaussian else degree % 4]
    change = CoordinateChange.from_series(*_change(rng, linear, degree, 0.7, gaussian,
                                                   _edge_valid(kind, degree), 3))
    wanted = degree if wanted == "degree" else None
    out, want = (_outcome(solve, change, wanted)
                 for solve in (CoordinateChange.inverse, oracles.t_graded_inverse))
    assert isinstance(out, CoordinateChange) == isinstance(want, CoordinateChange)
    if not isinstance(want, CoordinateChange):
        assert out is want
        return
    _same(out.comp1, want.comp1)
    _same(out.comp2, want.comp2)


@pytest.mark.parametrize("degree, kind, gaussian", _EDGES)
def test_ode_solve_at_the_edge_degrees(degree, kind, gaussian):
    rng = random.Random(f"ode {degree} {kind} {gaussian}")
    theta = Jet2(EXACT, _terms(rng, 0, degree, 0.6, gaussian), _valid(kind, degree))
    out, want = (_outcome(solve, theta, degree)
                 for solve in (series_ode_solve, oracles.t_graded_ode_solve))
    if not isinstance(want, Jet2):
        assert out is want
        return
    _same(out, want)


@pytest.mark.parametrize("degree, kind, gaussian", _EDGES)
@pytest.mark.parametrize("mn, resonant", [((1, 1), False), ((2, 1), False), ((1, 1), True)])
def test_linearize_at_the_edge_degrees(degree, kind, gaussian, mn, resonant):
    rng = random.Random(f"linearize {degree} {kind} {gaussian} {mn} {resonant}")
    m, n = mn
    valid = _edge_valid(kind, degree)
    a = {(1, 0): GR(m), **_terms(rng, 2, degree, 0.5, gaussian)}
    if resonant:
        a[(2, 1)] = GR(1, 1) if gaussian else GR(3)     # x^2 y on dx: gap 2 - 1 - 1 = 0
    field = VectorFieldGerm(Jet2(EXACT, a, valid),
                            Jet2(EXACT, {(0, 1): GR(-n), **_terms(rng, 2, degree, 0.5, gaussian)},
                                 valid))
    out, want = (_outcome(solve, field, degree)
                 for solve in (linearize, oracles.t_graded_linearize))
    assert out.obstruction == want.obstruction
    for got, ref in ((out.change.comp1, want.change.comp1), (out.change.comp2, want.change.comp2),
                     (out.linearized.a, want.linearized.a), (out.linearized.b, want.linearized.b)):
        _same(got, ref)


# -- float solves ------------------------------------------------------------------
#
# A float solve runs the parts code of an exact one.  The whole-jet float
# loops the solvers ran before are the oracles: t_graded_inverse and
# t_graded_ode_solve on float jets, and f_reciprocal.  On the float images
# of the inputs above, every coefficient must agree within 1e-12 of
# max(1, |c|) for c the largest coefficient of its degree, with the same
# valid_through.  A coefficient is a sum that may cancel, so its rounding is
# relative to the terms of its degree, not to itself: on random dense units
# the two loops differed by 1.3e-12 of a coefficient of size 6 that each of
# them missed by 3e-13 or more, and by at most 7e-15 of the largest
# coefficient of a degree over 1,000 draws of each solve.

def _same_float(out, want):
    if not isinstance(want, Jet2):          # both raise the same error
        assert out is want
        return
    assert (out.mode, out.valid_through) == (FLOAT, want.valid_through)
    scale: dict = {}
    for (i, j), c in want.re.items():
        scale[i + j] = max(scale.get(i + j, 1.0), abs(c))
    for k in out.re.keys() | want.re.keys():
        assert abs(out.re.get(k, 0) - want.re.get(k, 0)) <= 1e-12 * scale.get(sum(k), 1.0), k


def _float_solves(change, theta, unit, degree, wanted):
    """Each float solve and its oracle on the float images of the inputs."""
    change = CoordinateChange.from_series(*(c.to_float() for c in change))
    theta, unit = theta.to_float(), unit.to_float()
    inverse, want = change.inverse(wanted), oracles.t_graded_inverse(change, wanted)
    _same_float(inverse.comp1, want.comp1)
    _same_float(inverse.comp2, want.comp2)
    _same_float(*(_outcome(solve, theta, degree)
                  for solve in (series_ode_solve, oracles.t_graded_ode_solve)))
    _same_float(jet_reciprocal(unit), oracles.f_reciprocal(unit))


@settings(max_examples=30, deadline=None)
@given(_inputs, st.sampled_from(_LINEAR), st.sampled_from([None, 0, 2]))
def test_float_solves_match_the_float_loops(inputs, linear, extra):
    degree, share, gaussian, kind, rng = inputs
    valid = _valid(kind, degree)
    _float_solves(_change(rng, linear, degree, share, gaussian, valid),
                  Jet2(EXACT, _terms(rng, 0, degree, share / 2, gaussian), valid),
                  _unit(rng, degree, share, gaussian, valid),
                  degree, None if extra is None else degree + extra)


@pytest.mark.parametrize("degree, kind, gaussian", _EDGES)
def test_float_solves_at_the_edge_degrees(degree, kind, gaussian):
    rng = random.Random(f"float {degree} {kind} {gaussian}")
    valid = _edge_valid(kind, degree)
    _float_solves(_change(rng, _LINEAR[4 if gaussian else degree % 4], degree, 0.7, gaussian,
                          valid, 3),
                  Jet2(EXACT, _terms(rng, 0, degree, 0.6, gaussian), _valid(kind, degree)),
                  _unit(rng, degree, 0.7, gaussian, valid), degree, degree)


# -- the state on its own: the part protocol -----------------------------------------
#
# With a state, jet_compose2(f, p, q, state, slot, n, k) takes p and q as the
# inner pair's parts of degree n and returns the part of degree k of f(p, q).

def _same_part(part: tuple, k: int, want: Jet2):
    """The part of degree k is that of *want* (den, re and im)."""
    got, want = _from_parts(EXACT, [_ZERO] * k + [part], INF), oracles.homogeneous_part(want, k)
    assert (got.den, got.re, got.im) == (want.den, want.re, want.im)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.booleans(), st.randoms(use_true_random=False))
def test_a_state_gives_what_jet_compose2_gives(top, with_linear, rng):
    """Calls in the pattern of a graded solve, two outer series and an inner
    pair known one degree further each pass: each part returned equals the
    homogeneous part of the composition without a state.  With a linear
    outer term degree k reads the inner parts of degree k, so a pass hands
    them over first (as series_ode_solve does); otherwise it hands over the
    parts of degree k - 1 (as inverse and linearize do)."""
    low = 1 if with_linear else 2
    outers = [Jet2(EXACT, _terms(rng, low, top, 0.6, True), top) for _ in range(2)]
    inner = [Jet2(EXACT, {(1, 0): GR(1), (0, 1): GR(k), **_terms(rng, 2, top, 0.6, True)}, INF)
             for k in (2, -1)]
    wants = [jet_compose2(f, *inner) for f in outers]
    p_parts, q_parts = (_split(c, top) for c in inner)
    state = RelaxedComposition()
    for k in range(1, top + 1):
        n = k if with_linear else k - 1
        for slot, f in enumerate(outers):
            _same_part(jet_compose2(f, p_parts[n], q_parts[n], state, slot, n, k), k,
                       wants[slot])
    # a degree given before is given again, as it was
    n = top if with_linear else top - 1
    _same_part(jet_compose2(outers[0], p_parts[n], q_parts[n], state, 0, n, 1), 1, wants[0])


def _pair():
    x, y = Jet2.variable("x"), Jet2.variable("y")
    f = Jet2.from_coeffs({(2, 0): 1, (1, 1): 2, (0, 3): -1}, EXACT, 6)
    p = x + Jet2.from_coeffs({(0, 2): 3, (2, 1): 1}, EXACT, INF)
    q = y + Jet2.from_coeffs({(1, 1): -1}, EXACT, INF)
    return f, p, q


def _lead(f: Jet2) -> int:
    """How far the degree asked for runs ahead of the inner parts handed over."""
    return 0 if any(i + j == 1 for i, j in f.coeffs) else 1


def _run(state, f, p, q, through):
    """Passes n = 1 .. through of a solve; the parts through degree through + 1."""
    p_parts, q_parts = _split(p, through + 1), _split(q, through + 1)
    for n in range(1, through + 1):
        jet_compose2(f, p_parts[n], q_parts[n], state, 0, n, n + _lead(f))
    return p_parts, q_parts


# an outer series that reads p only through powers p^i, i >= 2; q only
# through powers; both through the rows' q^1 and p^1 . row_1; both directly
# through linear terms
@pytest.mark.parametrize("outer, changed", [
    ({(2, 0): 1}, "p"), ({(0, 3): -1}, "q"), ({(1, 1): 2}, "p"), ({(1, 1): 2}, "q"),
    ({(1, 0): 1, (0, 1): 1}, "p"), ({(1, 0): 1, (0, 1): 1}, "q")])
def test_a_state_raises_when_a_used_lower_degree_changes(outer, changed):
    """The state only appends: a part handed over again for a degree it
    holds must be the one it holds, or the call raises BadParams."""
    _, p, q = _pair()
    f = Jet2.from_coeffs(outer, EXACT, 6)
    state = RelaxedComposition()
    p_parts, q_parts = _run(state, f, p, q, 3)
    bumped = _split(Jet2.monomial(1, 1, 5), 2)[2]       # another degree-2 part
    parts = (bumped, q_parts[2]) if changed == "p" else (p_parts[2], bumped)
    with pytest.raises(BadParams):
        jet_compose2(f, *parts, state, 0, 2, 2)
    # the state is unharmed: the next pass gives what jet_compose2 gives
    k = 4 + _lead(f)
    _same_part(jet_compose2(f, p_parts[4], q_parts[4], state, 0, 4, k), k,
               jet_compose2(f, p, q))


def test_a_state_raises_when_a_used_outer_term_changes():
    f, p, q = _pair()
    state = RelaxedComposition()
    p_parts, q_parts = _run(state, f, p, q, 3)
    g = f + Jet2.monomial(1, 2, 1)
    with pytest.raises(BadParams):
        jet_compose2(g, p_parts[4], q_parts[4], state, 0, 4, 5)
    # a new outer series in another slot is free
    _same_part(jet_compose2(g, p_parts[4], q_parts[4], state, 1, 4, 5), 5, jet_compose2(g, p, q))


def test_a_state_takes_a_newest_degree_that_nothing_read():
    # an outer series with no linear term reads the inner pair below the
    # asked degree only: a pass asks for degree n + 1 with the parts of degree n
    f, p, q = _pair()
    state = RelaxedComposition()
    p_parts, q_parts = _split(p, 5), _split(q, 5)
    want = jet_compose2(f, p, q)
    for n in range(1, 6):
        _same_part(jet_compose2(f, p_parts[n], q_parts[n], state, 0, n, n + 1), n + 1, want)


def test_a_state_raises_when_inner_parts_are_missing():
    f, p, q = _pair()
    p_parts, q_parts = _split(p, 4), _split(q, 4)
    # degree 3 of an f without a linear term reads the parts through degree 2
    state = RelaxedComposition()
    jet_compose2(f, p_parts[1], q_parts[1], state, 0, 1, 2)
    with pytest.raises(BadParams):
        jet_compose2(f, p_parts[1], q_parts[1], state, 0, 1, 3)
    # degree 2 of an f with a linear term reads the parts of degree 2
    linear = f + Jet2.variable("y").truncate(6)
    state = RelaxedComposition()
    with pytest.raises(BadParams):
        jet_compose2(linear, p_parts[1], q_parts[1], state, 0, 1, 2)
    _same_part(jet_compose2(linear, p_parts[2], q_parts[2], state, 0, 2, 2), 2,
               jet_compose2(linear, p, q))


def test_a_state_refuses_a_degree_out_of_order():
    f, p, q = _pair()
    p_parts, q_parts = _split(p, 4), _split(q, 4)
    state = RelaxedComposition()
    with pytest.raises(BadParams):          # degree 1 not handed over yet
        jet_compose2(f, p_parts[2], q_parts[2], state, 0, 2, 3)
    jet_compose2(f, p_parts[1], q_parts[1], state, 0, 1, 2)
    with pytest.raises(BadParams):
        jet_compose2(f, p_parts[3], q_parts[3], state, 0, 3, 4)
    with pytest.raises(BadParams):          # a part in the place of another degree's
        jet_compose2(f, p_parts[2], q_parts[2], state, 0, 1, 2)


def test_a_state_refuses_what_it_cannot_compose():
    f, p, q = _pair()
    p_parts, q_parts = _split(p, 3), _split(q, 3)
    # a state runs in the mode of the first outer series it is handed
    for first, other, (ps, qs) in ((f, f.to_float(), (p_parts, q_parts)),
                                   (f.to_float(), f, (_split(p.to_float(), 3),
                                                      _split(q.to_float(), 3)))):
        state = RelaxedComposition()
        jet_compose2(first, ps[1], qs[1], state, 0, 1, 2)
        with pytest.raises(ModeMismatch):
            jet_compose2(other, ps[1], qs[1], state, 1, 1, 2)
    with pytest.raises(BadParams):          # an inner constant term: p(0) != 0
        jet_compose2(f, _split(Jet2.const(1), 0)[0], q_parts[0], RelaxedComposition(), 0, 0, 1)
    with pytest.raises(PrecisionExhausted):     # f known through degree 6 only
        state = RelaxedComposition()
        for n in range(1, 4):
            jet_compose2(f, p_parts[n] if n < 3 else _ZERO, q_parts[n] if n < 3 else _ZERO,
                         state, 0, n, 7)


# -- the bench tracer's contract ----------------------------------------------------
#
# germbench/tracer.py counts the jet_compose2 calls inside inverse and
# series_ode_solve, and CoordinateChange.compose calls, by rebinding them
# where germforge holds them.  A solver that stopped making these calls
# would leave the traced bench without the work it reports; these counts
# are the solvers' passes.

def _count_calls(monkeypatch, label: str) -> list:
    """Rebind the function the tracer labels *label* as the tracer does, to
    a wrapper that notes each call; returns the list of notes."""
    owner, (attr,) = TARGETS[label]
    original, calls = getattr(owner, attr), []

    def wrapper(*args, **kwargs):
        calls.append(label)
        return original(*args, **kwargs)

    if isinstance(owner, type):
        monkeypatch.setattr(owner, attr, wrapper)
        return calls
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "germforge" or name.startswith("germforge.")):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, wrapper)
    return calls


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
@pytest.mark.parametrize("top", [1, 2, 7])
def test_inverse_composes_twice_per_pass(monkeypatch, mode, top):
    x, y = Jet2.variable("x"), Jet2.variable("y")
    comp1 = x + y.scale(2) + Jet2.from_coeffs({(2, 0): 1, (1, 2): -3}, EXACT, INF)
    comp2 = y + Jet2.from_coeffs({(1, 1): GR(1, 2)}, EXACT, INF)
    change = CoordinateChange.from_series(*((c if mode == EXACT else c.to_float()).truncate(7)
                                            for c in (comp1, comp2)))
    calls = _count_calls(monkeypatch, "series.jet_compose2")
    change.inverse(top)
    assert len(calls) == 2 * max(top - 1, 0)


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
@pytest.mark.parametrize("degree", [0, 1, 6])
def test_ode_solve_composes_once_per_pass(monkeypatch, mode, degree):
    theta = Jet2.from_coeffs({(0, 0): 1, (0, 1): 2, (1, 1): -1, (0, 3): GR(0, 1)}, EXACT, 6)
    calls = _count_calls(monkeypatch, "series.jet_compose2")
    series_ode_solve(theta if mode == EXACT else theta.to_float(), degree)
    assert len(calls) == degree


@pytest.mark.parametrize("top", [1, 2, 7])
def test_linearize_composes_once_per_pass(monkeypatch, top):
    field = VectorFieldGerm(Jet2.from_coeffs({(1, 0): 2, (2, 1): 1, (0, 2): 3}, EXACT, 7),
                            Jet2.from_coeffs({(0, 1): -1, (1, 1): GR(1, 1)}, EXACT, 7))
    calls = _count_calls(monkeypatch, "germ.compose")
    linearize(field, top)
    assert len(calls) == max(top - 1, 0)
