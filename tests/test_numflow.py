"""Numerical flows: integrator properties, leaf tracking, period integrals."""

from __future__ import annotations

import cmath
import dataclasses
import itertools
import math
import random
import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from germforge import numflow
from germforge.errors import BadParams, LeafEscape, StepFailure
from germforge.germ import VectorFieldGerm
from germforge.numflow import (
    MAX_STEPS,
    LeafLoopSpec,
    TimePath,
    _rk45,
    elliptic_loop,
    eval_poly,
    homothety_period_ratio,
    integrate_flow_1d,
    leaf_period,
    replace_controls,
    richardson_check,
    siegel_loop,
    track_leaf,
)
from germforge.scalars import EXACT, FLOAT
from germforge.series import INF, Jet1, Jet2, jet_mul
from oracles import integrate_flow, t_rk45


def x():
    return Jet2.variable("x", EXACT, INF)


def y():
    return Jet2.variable("y", EXACT, INF)


def elliptic():
    return VectorFieldGerm(
        jet_mul(x(), x() - y().scale(2)), jet_mul(y(), y() - x().scale(2))
    ).to_float()


def test_riccati_closed_form():
    f = VectorFieldGerm(jet_mul(x(), x()), Jet2.zero(EXACT, INF))
    end = integrate_flow(f, (0.1, 0.0), TimePath.segment(0, 1, tol=1e-12))
    assert abs(end[0] - 1 / 9) < 1e-10


def test_linear_flow_periodicity():
    f = VectorFieldGerm(x(), Jet2.zero(EXACT, INF))
    end = integrate_flow(f, (1.0, 0.0), TimePath.segment(0, 2j * math.pi, tol=1e-12))
    assert abs(end[0] - 1.0) < 1e-10


def test_hirzebruch_flow_closed_form():
    # generator dx + (n+1) x^n dy for n = 1: (x0 + t, y0 + (x0+t)^2 - x0^2)
    f = VectorFieldGerm(Jet2.const(1, EXACT, INF), x().scale(2))
    x0, y0, t = 0.3, -0.2, 0.7
    end = integrate_flow(f, (x0, y0), TimePath.segment(0, t, tol=1e-12))
    assert abs(end[0] - (x0 + t)) < 1e-10
    assert abs(end[1] - (y0 + (x0 + t) ** 2 - x0 ** 2)) < 1e-10


def test_group_law_random_split_points():
    f = VectorFieldGerm(jet_mul(x(), x()) - y(), jet_mul(x(), y()).scale(-1))
    rng = random.Random(8)
    for _ in range(10):
        t = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))
        s = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))
        z0 = (rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2))
        whole = integrate_flow(f, z0, TimePath.segment(0, t + s, tol=1e-12))
        first = integrate_flow(f, z0, TimePath.segment(0, s, tol=1e-12))
        second = integrate_flow(f, first, TimePath.segment(0, t, tol=1e-12))
        assert abs(whole[0] - second[0]) < 1e-9
        assert abs(whole[1] - second[1]) < 1e-9


def test_step_failure_reports_partial():
    f = VectorFieldGerm(jet_mul(x(), x()), Jet2.zero(EXACT, INF))
    with pytest.raises(StepFailure):
        # blow-up of dz/dt = z^2 from z = 1 at t = 1
        integrate_flow(f, (1.0, 0.0), TimePath.segment(0, 1.5, tol=1e-10))


def test_step_budget_stops_a_field_too_fast_for_the_path():
    # dz/dT = i w z turns w / (2 pi) times round over T in [0, 1]; at
    # w = 1e6 the tolerance needs millions of steps, minutes of work
    h = Jet1.from_coeffs({1: 1e6j}, FLOAT, 4)
    start = time.perf_counter()
    with pytest.raises(StepFailure, match=f"more than {MAX_STEPS} steps") as info:
        integrate_flow_1d(h, 0.5, TimePath.segment(0, 1, tol=1e-10))
    assert time.perf_counter() - start < 60
    (z,) = info.value.partial
    assert abs(abs(z) - 0.5) < 1e-3    # the orbit stays on its circle


def test_identity_holonomy():
    f = VectorFieldGerm(x(), -y()).to_float()
    spec = siegel_loop(0.5, 0.05)
    assert abs(track_leaf(f, spec) - spec.seed) < 1e-9


def test_holonomy_single_valued_square_leaf():
    # x dx - 2y dy: leaves y = c/x^2 single-valued
    f = VectorFieldGerm(x(), y().scale(-2)).to_float()
    spec = siegel_loop(0.5, 0.1 * 0.5 ** 2)
    assert abs(track_leaf(f, spec) - spec.seed) < 1e-9


def test_leaf_escape():
    # leaf y = c/x^9 blows up as the loop dips toward small |x|
    f = VectorFieldGerm(x(), y().scale(-9)).to_float()
    spec = LeafLoopSpec(base_var="x", center=0.5, radius=0.3, winding=1,
                        seed=0.4, polydisc=2.0, tol=1e-10)
    with pytest.raises(LeafEscape):
        track_leaf(f, spec)


@pytest.mark.parametrize("change, message", [
    ({"winding": 0}, "winding 0"),
    ({"tol": 0.0}, "tolerance"),
    ({"tol": -1.0}, "tolerance"),
    ({"tol": math.nan}, "tolerance"),
    ({"radius": math.nan}, "radius"),
])
def test_leaf_loop_spec_rejects_degenerate_controls(change, message):
    # winding 0 gave a period of 0 for a loop that encloses nothing, a
    # negative tolerance a TypeError in _rk45 and tolerance 0 a step underflow
    with pytest.raises(BadParams, match=message):
        dataclasses.replace(siegel_loop(0.5, 0.02), **change)


@pytest.mark.parametrize("c", [complex(0.02, 1e308), 1e250])
def test_elliptic_loop_refuses_a_leaf_that_overflows(c):
    # (4c)^(1/3) and the lift's x^4 raised OverflowError
    with pytest.raises(BadParams, match="overflows"):
        elliptic_loop(c)


def test_time_path_rejects_a_nan_tolerance():
    with pytest.raises(BadParams, match="tolerance"):
        TimePath.segment(0, 1, tol=math.nan)


def test_period_zero_for_unimodular_pairing():
    f = VectorFieldGerm(jet_mul(x(), x()), -jet_mul(x(), y())).to_float()
    p, res = leaf_period(f, siegel_loop(0.5, 0.02, tol=1e-12))
    assert res.closed
    assert abs(p) < 1e-8


def test_period_matches_residue_for_zero_pairing():
    xy = jet_mul(x(), y())
    f = VectorFieldGerm(jet_mul(xy, x()), -jet_mul(xy, y())).to_float()
    for c in (0.02, 0.05j):
        p, res = leaf_period(f, siegel_loop(0.5, c, tol=1e-12))
        assert res.closed
        expected = 2j * math.pi / c
        assert abs(p - expected) / abs(expected) < 1e-8


def test_period_invariant_under_reparameterization():
    f = elliptic()
    spec = elliptic_loop(0.02, tol=1e-11)
    p1, _ = leaf_period(f, spec)
    p2, _ = leaf_period(f, replace_controls(spec, max_step=spec.max_step / 3))
    assert abs(p1 - p2) / abs(p1) < 1e-8


def test_elliptic_leaf_lift_closes():
    f = elliptic()
    for c in (0.02, 0.05j, -0.01 + 0.02j):
        _, res = leaf_period(f, elliptic_loop(c, tol=1e-12))
        assert res.closed


def test_homothety_law():
    f = elliptic()
    spec = elliptic_loop(0.02, tol=1e-12)
    for lam in (0.5, 0.3 + 0.1j, 2.0):
        rep = homothety_period_ratio(f, spec, lam)
        assert rep.defect < 1e-6


def test_homothety_requires_quadratic():
    f = VectorFieldGerm(x(), -y()).to_float()
    with pytest.raises(BadParams):
        homothety_period_ratio(f, siegel_loop(0.5, 0.02), 0.5)


def test_elliptic_period_scaling_across_leaves():
    # |period(c1)/period(c2)| = |c2/c1|^(1/3): the homothety moves leaf c to
    # lambda^3 c and scales periods by 1/lambda
    f = elliptic()
    c1 = 0.02
    for c2 in (0.05j, 0.04, -0.03):
        p1, _ = leaf_period(f, elliptic_loop(c1, tol=1e-12))
        mu = (complex(c2) / c1) ** (1.0 / 3.0)
        scaled_spec = elliptic_loop(c1, tol=1e-12).scaled(mu)
        p2, res = leaf_period(f, scaled_spec)
        assert res.closed
        assert abs(abs(p1) / abs(p2) - abs(c2 / c1) ** (1 / 3)) < 1e-5


def test_parabolic_negative_control():
    # row-2 leaves are rational graphs y = cx/(x^2+c): lifts close, period 0
    f = VectorFieldGerm(jet_mul(x(), x()), -jet_mul(y(), x() - y().scale(2))).to_float()
    c = 0.02
    x0 = 0.5
    seed = c * x0 / (x0 ** 2 + c)
    spec = LeafLoopSpec(base_var="x", center=0j, radius=x0, winding=1,
                        seed=seed, tol=1e-12)
    p, res = leaf_period(f, spec)
    assert res.closed
    assert abs(p) < 1e-8


def test_richardson_self_consistency():
    f = elliptic()

    def run(tol, max_step):
        p, _ = leaf_period(f, replace_controls(elliptic_loop(0.02), tol=tol,
                                               max_step=max_step))
        return p

    v1, v2, gap = richardson_check(run, 1e-9, 0.02)
    assert gap <= 10 * 1e-9 * abs(v2)


def test_integrate_flow_1d_riccati():
    h = Jet1.from_coeffs({2: 2j * math.pi}, FLOAT, 8)
    z0 = 0.05
    end = integrate_flow_1d(h, z0, TimePath.segment(0, 1, tol=1e-12))
    expected = z0 / (1 - 2j * math.pi * z0)
    assert abs(end - expected) < 1e-10


# ---------------------------------------------------------------------------
# the unrolled two-component kernel against the generic loop it replaced,
# in its first-same-as-last form (stage 7 reused as the next stage 1)
# ---------------------------------------------------------------------------

_coef = st.builds(complex, st.floats(-2, 2), st.floats(-2, 2))


def _outcome(call):
    """Result or error of one integration, as a comparable value."""
    try:
        return ("ok", call())
    except StepFailure as exc:
        return ("StepFailure", str(exc), exc.partial)
    except LeafEscape as exc:
        return ("LeafEscape", str(exc))


def _stopper(stop):
    """Guard raising LeafEscape at accepted step *stop*, naming s and the state."""
    steps = []

    def guard(s, state):
        steps.append(s)
        if len(steps) == stop:
            raise LeafEscape(f"stop at s={s!r} state={state!r}")
    return guard


def _both(ncomp, field, y0, s_end, tol, max_step, stop=None):
    """Outcomes of numflow._rk45 and oracles.t_rk45(fsal=True) on one problem.

    field() makes f(s, u, v) giving the components as a list, afresh for each
    run so that a stateful f starts over; a 1-D f is called with v = 0j.
    """
    f, g = field(), field()
    new_guard = old_guard = None
    if stop is not None:
        kernel_stop, old_guard = _stopper(stop), _stopper(stop)

        def new_guard(s, u, v):
            kernel_stop(s, (u, v)[:ncomp])

    def new_f(s, u, v):
        vals = f(s, u, v)
        return (vals[0], 0j) if ncomp == 1 else tuple(vals)

    def old_f(s, y):
        return tuple(g(s, *(y + (0j,))[:2])[:ncomp])

    new = _outcome(lambda: _rk45(new_f, y0, s_end, tol, max_step, guard=new_guard))
    old = _outcome(lambda: t_rk45(old_f, y0, s_end, tol, max_step, guard=old_guard,
                                  max_steps=numflow.MAX_STEPS, fsal=True))
    return new, old


def _field(forms, timed, ph, d, singular, blow_at=None, blow_exc=ZeroDivisionError):
    """A factory of right-hand sides f(s, u, v), one polynomial per form."""
    def field():
        calls = []

        def f(s, u, v):
            calls.append(s)
            if len(calls) == blow_at:
                raise blow_exc(f"blew up on call {len(calls)}")
            e = cmath.exp(1j * (ph + d * s)) if timed else 1.0
            # a K/s term makes the error estimate independent of h at s = 0
            return [e * eval_poly(terms, u, v) + (singular / s if s else 0j)
                    for terms in forms]
        return f
    return field


@st.composite
def _problems(draw):
    ncomp = draw(st.sampled_from((1, 2)))
    max_j = 3 if ncomp == 2 else 0
    forms = [draw(st.lists(st.tuples(st.tuples(st.integers(0, 3), st.integers(0, max_j)),
                                     _coef), max_size=4))
             for _ in range(ncomp)]
    # the leaf tracker's right-hand side reads s through exp(i(phase + d s))
    timed = draw(st.booleans())
    ph, d = draw(st.floats(-math.pi, math.pi)), draw(st.sampled_from((1.0, -1.0)))
    singular = draw(st.sampled_from((0.0, 1e-12, 1e-9, 1e-6)))
    blow_at = draw(st.none() | st.integers(1, 400))
    blow_exc = draw(st.sampled_from((ZeroDivisionError, OverflowError)))
    field = _field(forms, timed, ph, d, singular, blow_at, blow_exc)
    y0 = tuple(draw(_coef) for _ in range(ncomp))
    tol = 10.0 ** draw(st.floats(-13, -8))
    max_step = draw(st.floats(0.01, 1.0))
    s_end = draw(st.floats(0.1, 2 * math.pi))
    stop = draw(st.none() | st.integers(1, 60))
    return ncomp, field, y0, s_end, tol, max_step, stop


# The step budget of both loops in the comparisons below: a problem that
# needs more accepted steps ends in the same StepFailure on both sides within
# a second, where the oracle alone would run on for minutes.  (Patched inside
# the test body; a function-scoped fixture trips hypothesis' health check.)
TEST_STEPS = 2_000


@settings(max_examples=150, deadline=None)
@given(_problems())
def test_kernel_matches_generic_loop(problem):
    with mock.patch.object(numflow, "MAX_STEPS", TEST_STEPS):
        new, old = _both(*problem)
    # repr round-trips every float and shows the sign of zero: bit for bit
    assert repr(new) == repr(old)
    if new[0] == "StepFailure":
        assert len(new[2]) == problem[0]


def test_kernel_matches_generic_loop_on_step_budget():
    # a drawn problem that needs more than MAX_STEPS = 150,000 steps: the
    # kernel stopped after seconds, the oracle had no budget and ran on
    forms = [[((0, 1), complex(-0.0, 1e-06)),
              ((3, 1), 1.0245740577731057 + 1.7261238290499463j),
              ((1, 2), 1.6320616318968604 - 1.3528857847959376e-28j),
              ((3, 2), complex(-5e-324, 1.9759375171871536))],
             [((0, 0), -1.1754943508222875e-38 + 0.4507648569482803j),
              ((3, 2), -1.6771237905906329 - 6.485741287416079e-137j),
              ((0, 3), 0.3729832051565585 + 1j),
              ((1, 2), 1.1840587520804284 + 1.9346163042476148j)]]
    y0 = (-1.1536098905141106 + 1.8938213294245205j,
          -1.1754943508222875e-38 + 0.4507648569482803j)
    field = _field(forms, True, 1.8065151318436117, -1.0, 0.0)
    with mock.patch.object(numflow, "MAX_STEPS", TEST_STEPS):
        new, old = _both(2, field, y0, 6.068172019635394, 4.013777566332907e-10,
                         0.9373624073984015)
    assert repr(new) == repr(old)
    assert new[0] == "StepFailure" and new[1].startswith(f"more than {TEST_STEPS} steps by s=")
    assert len(new[2]) == 2


def test_kernel_matches_generic_loop_on_repeated_rejection():
    # dy/ds = K / s (0 at s = 0): every stage value scales as 1/h, so the
    # error estimate does not shrink with h and each retry is rejected
    for ncomp in (1, 2):
        def field():
            return lambda s, u, v: [1.3e-8 / s if s else 0j] * 2
        new, old = _both(ncomp, field, (0.5j,) * ncomp, 1.0, 1e-10, 0.5)
        assert new == old
        assert new[:2] == ("StepFailure", "repeated step rejection")
        assert new[2] == (0.5j,) * ncomp


def test_kernel_matches_generic_loop_on_non_finite_stages():
    # an inf or nan stage value meets the zero weights (0.0 * inf is nan), so
    # it shows whether every weight of the generic loop is still applied
    for stage, comp, bad in itertools.product(range(7), (0, 1), (math.inf, math.nan)):
        def field():
            calls = []

            def f(s, u, v):
                calls.append(s)
                vals = [0.1 * u, -0.2 * v]
                if len(calls) < 50 and len(calls) % 7 == (stage + 1) % 7:
                    vals[comp] = complex(bad, 0.0)
                return vals
            return f
        new, old = _both(2, field, (1 + 0j, 1j), 1.0, 1e-10, 0.3)
        assert repr(new) == repr(old)


def test_a_non_finite_stage_in_v_rejects_the_step():
    # an inf or nan in v's stage 7 of the first step makes the error of v
    # nan (y5 keeps b57 * k7, b57 = 0): the step is rejected as it is for
    # u, where max() used to pass over the nan of v and accept it, and the
    # smaller step that follows is finite, so no nan reaches the state
    for bad, comp in itertools.product((math.inf, math.nan), (0, 1)):
        def field():
            calls = []

            def f(s, u, v):
                calls.append(s)
                vals = [0.1 * u, -0.2 * v]
                if len(calls) == 7:     # stage 7 of the first step
                    vals[comp] = complex(bad, 0.0)
                return vals
            return f
        new, old = _both(2, field, (1 + 0j, 1j), 1.0, 1e-6, 0.3, stop=1)
        assert repr(new) == repr(old)
        assert new[0] == "LeafEscape" and "nan" not in new[1] and "inf" not in new[1]
        assert "s=0.03" in new[1]       # the first accepted step is the retry at h / 10


def test_a_non_finite_v_fails_instead_of_giving_nan():
    # v's stages are never finite: every step is rejected, each retry a
    # tenth of the last, until the step underflows and the kernel raises
    # StepFailure at the initial state, where it used to accept the first
    # step and return a nan v (a nan leaf period)
    for bad in (math.inf, math.nan):
        def field():
            return lambda s, u, v: [0.1 * u, complex(bad, 0.0)]
        new, old = _both(2, field, (1 + 0j, 1j), 1.0, 1e-6, 0.3)
        assert repr(new) == repr(old)
        assert new[:2] == ("StepFailure", "step underflow at s=0.0")
        assert new[2] == (1 + 0j, 1j)


# ---------------------------------------------------------------------------
# first same as last: one right-hand-side call per step saved
# ---------------------------------------------------------------------------

def _kernel_runs(call):
    """Run call() with numflow._rk45 wrapped; for each kernel run, return its
    outcome, its number of right-hand-side calls, and the outcomes and
    accepted/rejected step counts of oracles.t_rk45 on the same problem,
    plain and first-same-as-last."""
    runs = []
    kernel = numflow._rk45

    def wrapped(f, y0, s_end, tol, max_step, guard=None):
        n = len(y0)
        calls = []

        def counted(s, u, v):
            calls.append(s)
            return f(s, u, v)

        def old_f(s, y):
            return tuple(f(s, *(y + (0j,))[:2])[:n])

        def old_guard(s, y):
            if guard is not None:
                guard(s, *(y + (0j,))[:2])

        out = kernel(counted, y0, s_end, tol, max_step, guard=guard)
        run = {"out": out, "calls": len(calls)}
        for fsal in (False, True):
            counts = {"accepted": 0, "rejected": 0}
            run[fsal] = (t_rk45(old_f, y0, s_end, tol, max_step, guard=old_guard,
                                fsal=fsal, counts=counts), counts)
        runs.append(run)
        return out

    with mock.patch.object(numflow, "_rk45", wrapped):
        call()
    return runs


def _leaf_and_flow_problems():
    return [
        lambda: leaf_period(elliptic(), elliptic_loop(0.02, tol=1e-12)),
        lambda: integrate_flow_1d(Jet1.from_coeffs({2: 2j * math.pi, 3: 0.5}, FLOAT, 8), 0.05,
                                  TimePath.segment(0, 1 + 0.5j, tol=1e-12, max_step=0.01)),
    ]


@pytest.mark.parametrize("problem", _leaf_and_flow_problems(), ids=["leaf_period", "flow_1d"])
def test_each_step_calls_the_field_six_times(problem):
    (run,) = _kernel_runs(problem)
    fsal_out, counts = run[True]
    assert repr(run["out"]) == repr(fsal_out)
    assert run["calls"] == 1 + 6 * (counts["accepted"] + counts["rejected"])
    # the plain loop, t_rk45(fsal=False), makes seven calls a step
    assert run["calls"] <= 6.05 * counts["accepted"]


def test_flows_that_ignore_time_keep_the_plain_loops_results():
    # f ignores s, and stage 7 is evaluated at y5 exactly, so reusing it
    # changes no step: integrate_flow_1d and integrate_flow match the loop
    # that computes stage 1 afresh at every step, bit for bit
    h = Jet1.from_coeffs({0: 0.3j, 2: 2j * math.pi, 3: -0.7 + 0.2j}, FLOAT, 8)
    f = VectorFieldGerm(jet_mul(x(), x()) + y().scale(3), -jet_mul(x(), y())).to_float()
    path = TimePath([0, 0.4, 0.4 + 0.3j, 0.1j], tol=1e-11, max_step=0.05)
    runs = (_kernel_runs(lambda: integrate_flow_1d(h, 0.05 - 0.02j, path))
            + _kernel_runs(lambda: integrate_flow(f, (0.1, -0.05j), path)))
    assert len(runs) == 6
    for run in runs:
        plain_out, plain_counts = run[False]
        assert repr(run["out"]) == repr(plain_out)
        assert plain_counts == run[True][1]


def test_an_initial_step_below_the_minimum_never_calls_the_field():
    calls = []

    def f(s, u, v):
        calls.append(s)
        return u, v

    # min_step is s_end * 1e-14 and the first step is min(max_step, s_end)
    with pytest.raises(StepFailure, match=r"step underflow at s=0\.0") as info:
        _rk45(f, (0.5j,), 1.0, 1e-10, 1e-15)
    assert info.value.partial == (0.5j,)
    assert calls == []
