"""Complex-time integration, leaf tracking, holonomy, and period integrals.

The integrator is an adaptive embedded Dormand-Prince 5(4) pair over
complexified time along piecewise-linear paths, written out for a state of
two complex components (u, v): every caller has at most two, and a 1-D
state is padded with a zero v.  The pair is first same as last (Dormand &
Prince 1980): the last stage of an accepted step is the first stage of the
next, so a step calls the right-hand side six times, not seven.  Its stage
nodes are sum() of the tableau rows, not the textbook fractions, so that
results match the generic loop (tests/oracles.py) bit for bit.  A flow that
ignores time (integrate_flow_1d) gets the steps and results of the loop with
seven calls a step bit for bit; the leaf tracker reads time, so its results
differ from that loop's in the last bits (see _rk45).  Leaf loops are
base-variable circles with a lift seed; tracking integrates the slope ODE
around the loop and the time-form integral dT = d(base)/(base component)
rides along as the second component.  Each integration owns its own scratch
state, so independent runs can proceed concurrently.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence, Tuple

from .errors import BadParams, LeafEscape, StepFailure
from .germ import VectorFieldGerm
from .series import Jet1

DEFAULT_TOL = 1e-10

# a lifted loop is closed when its endpoint is within this relative
# distance of the seed: |end - seed| <= CLOSURE_REL * |seed|
CLOSURE_REL = 1e-8


@dataclass
class TimePath:
    """Piecewise-linear path in complex time."""

    waypoints: Sequence[complex]
    max_step: float = 0.1
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        if len(self.waypoints) < 2:
            raise BadParams("a time path needs at least two waypoints")
        for a, b in zip(self.waypoints, self.waypoints[1:]):
            if a == b:
                raise BadParams("consecutive waypoints must be distinct")
        if not self.tol > 0:  # nan too
            raise BadParams("tolerance must be positive")

    @classmethod
    def segment(cls, t0: complex, t1: complex, **kw) -> "TimePath":
        return cls([complex(t0), complex(t1)], **kw)


@dataclass
class LeafLoopSpec:
    """Base-variable circle with a lift seed.

    The loop is base(theta) = center + radius * exp(i(phase + winding*theta)),
    theta in [0, 2*pi]; the seed is the starting value of the other variable.
    """

    base_var: str = "x"
    center: complex = 0j
    radius: float = 0.5
    winding: int = 1
    phase: float = 0.0
    seed: complex = 0j
    polydisc: float = 4.0
    tol: float = DEFAULT_TOL
    max_step: float = 0.05

    def __post_init__(self):
        if not self.radius > 0:  # nan too
            raise BadParams("loop radius must be positive")
        if self.winding == 0:
            raise BadParams("a loop of winding 0 encloses nothing")
        if not self.tol > 0:  # nan too
            raise BadParams("tolerance must be positive")
        if self.base_var not in ("x", "y"):
            raise BadParams("base_var must be 'x' or 'y'")
        if abs(self.seed) > self.polydisc:
            raise BadParams("lift seed outside the configured polydisc")

    def scaled(self, lam: complex) -> "LeafLoopSpec":
        """Image of the loop under (x, y) -> (lam x, lam y)."""
        lam = complex(lam)
        return replace(
            self,
            center=lam * self.center,
            radius=abs(lam) * self.radius,
            phase=self.phase + cmath.phase(lam),
            seed=lam * self.seed,
            polydisc=self.polydisc * max(1.0, abs(lam)),
        )


# ---------------------------------------------------------------------------
# adaptive Dormand-Prince 5(4)
# ---------------------------------------------------------------------------

_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_DP_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
          187 / 2100, 1 / 40)
_DP_C = tuple(sum(row) for row in _DP_A[1:])  # stage nodes; see _rk45
# accepted steps allowed in one _rk45 call: over 100 times the most that the
# test suite, verify-paper (both modes) and a float-flows sweep take (about 1,360)
MAX_STEPS = 150_000


def _rk45(f: Callable[[float, complex, complex], Tuple[complex, complex]],
          y0: Tuple[complex, ...], s_end: float, tol: float,
          max_step: float, guard: Optional[Callable] = None
          ) -> Tuple[complex, ...]:
    """Integrate d(u, v)/ds = f(s, u, v) on [0, s_end] with PI step control.

    The state is exactly two complex components; guard(s, u, v) runs after
    each accepted step.  A one-component y0 is padded with v = 0, for which f
    returns 0j: v, its error and its share of the scale stay zero, so the
    steps are those of the 1-D problem, and the result and
    StepFailure.partial keep the length of y0.

    The pair is first same as last: row 7 of _DP_A is the fifth-order
    weights and b57 = 0, so stage 7 is f at y5, and an accepted step hands k7
    on as the next k1 (a rejected step keeps its k1): six calls of f a step,
    plus one at the start.  The first k1 is computed after the step-underflow
    check, so f is never called when the loop does not run or fails at once.
    y5 keeps the term b57*k7 so that an inf or nan k7 turns y5 to nan, and
    a step whose error is nan (in either component) or whose y5 is not
    finite is rejected: a non-finite stage never reaches the state, and
    one that repeats ends in the StepFailure of repeated rejection.

    The seven stages are written out, each sum left to right from 0 with its
    zero weights, in the order of the generic n-component loop
    (tests/oracles.py t_rk45 with fsal=True), so results match that loop bit
    for bit.  The nodes are sum(row) of _DP_A, as that loop forms them, and
    not 4/5, 8/9 or 1: the float sums differ from those in the last bit (and
    between Python versions).  A right-hand side that ignores s, as the
    flows along time paths do, gets the same steps and results bit for bit
    as from the loop that computes k1 afresh at each step (t_rk45 with
    fsal=False); one that reads s, as the leaf tracker does, gets its reused
    k1 at s + h*c7 rather than s + h (c7 = 0.9999999999999998), which moves
    its results in the last bits.  More than MAX_STEPS accepted steps raise
    StepFailure, so a field too fast for the path fails instead of running
    for minutes.
    """
    (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), \
        (a61, a62, a63, a64, a65), (a71, a72, a73, a74, a75, a76) = _DP_A[1:]
    b57 = _DP_B5[6]  # the other weights of y5 are row 7 of _DP_A
    e1, e2, e3, e4, e5, e6, e7 = _DP_B4
    c2, c3, c4, c5, c6, c7 = _DP_C
    n = len(y0)
    u, v = (y0[0], 0j) if n == 1 else y0
    s = 0.0
    h = min(max_step, s_end)
    min_step = s_end * 1e-14
    nfail = steps = 0
    k1u = k1v = None
    while s < s_end - 1e-15:
        h = min(h, s_end - s)
        if h < min_step:
            raise StepFailure(f"step underflow at s={s}", partial=(u, v)[:n])
        try:
            if k1u is None:
                k1u, k1v = f(s, u, v)
            k2u, k2v = f(s + h * c2, u + h * (0j + a21 * k1u), v + h * (0j + a21 * k1v))
            k3u, k3v = f(s + h * c3, u + h * (0j + a31 * k1u + a32 * k2u),
                         v + h * (0j + a31 * k1v + a32 * k2v))
            k4u, k4v = f(s + h * c4, u + h * (0j + a41 * k1u + a42 * k2u + a43 * k3u),
                         v + h * (0j + a41 * k1v + a42 * k2v + a43 * k3v))
            k5u, k5v = f(s + h * c5, u + h * (0j + a51 * k1u + a52 * k2u + a53 * k3u + a54 * k4u),
                         v + h * (0j + a51 * k1v + a52 * k2v + a53 * k3v + a54 * k4v))
            k6u, k6v = f(s + h * c6,
                         u + h * (0j + a61 * k1u + a62 * k2u + a63 * k3u + a64 * k4u + a65 * k5u),
                         v + h * (0j + a61 * k1v + a62 * k2v + a63 * k3v + a64 * k4v + a65 * k5v))
            z2u, z2v = a72 * k2u, a72 * k2v
            p7u = 0j + a71 * k1u + z2u + a73 * k3u + a74 * k4u + a75 * k5u + a76 * k6u
            p7v = 0j + a71 * k1v + z2v + a73 * k3v + a74 * k4v + a75 * k5v + a76 * k6v
            k7u, k7v = f(s + h * c7, u + h * p7u, v + h * p7v)
        except (OverflowError, ZeroDivisionError) as exc:
            raise StepFailure(f"vector field blew up at s={s}: {exc}", partial=(u, v)[:n])
        y5u = u + h * (p7u + b57 * k7u)
        y5v = v + h * (p7v + b57 * k7v)
        y4u = u + h * (0j + e1 * k1u + e2 * k2u + e3 * k3u + e4 * k4u + e5 * k5u
                       + e6 * k6u + e7 * k7u)
        y4v = v + h * (0j + e1 * k1v + e2 * k2v + e3 * k3v + e4 * k4v + e5 * k5v
                       + e6 * k6v + e7 * k7v)
        eu, ev = abs(y5u - y4u), abs(y5v - y4v)
        err = ev if ev > eu or ev != ev else eu     # a nan in either part makes err nan
        scale = tol * max(1.0, max(abs(y5u), abs(y5v)))
        if err <= scale < math.inf:                 # so a non-finite step is rejected
            s += h
            u, v = y5u, y5v
            k1u, k1v = k7u, k7v
            steps += 1
            if steps > MAX_STEPS:
                raise StepFailure(f"more than {MAX_STEPS} steps by s={s}", partial=(u, v)[:n])
            if guard is not None:
                guard(s, u, v)
            nfail = 0
            factor = 2.0 if err == 0 else min(2.0, 0.9 * (scale / err) ** 0.2)
            h = min(max_step, h * factor)
        else:
            nfail += 1
            if nfail > 60:
                raise StepFailure("repeated step rejection", partial=(u, v)[:n])
            h *= max(0.1, 0.9 * (scale / err) ** 0.25)
    return (u, v)[:n]


def _lower_field(x: VectorFieldGerm) -> Tuple[list, list]:
    xf = x.to_float()
    return list(xf.a.coeffs.items()), list(xf.b.coeffs.items())


def eval_poly(terms: list, xv: complex, yv: complex) -> complex:
    """Value at (xv, yv) of the lowered terms [((i, j), c), ...] of a float jet."""
    acc = 0j
    for (i, j), c in terms:
        acc += c * xv ** i * yv ** j
    return acc


def integrate_flow_1d(h: Jet1, z0: complex, path: TimePath) -> complex:
    """Endpoint of dz/dT = h(z) along the path (1-D complex field)."""
    hf = h.to_float()
    terms = list(hf.coeffs.items())
    z = complex(z0)
    for t0, t1 in zip(path.waypoints, path.waypoints[1:]):
        dt = t1 - t0

        def rhs(_s, u, _v):
            return dt * sum(c * u ** k for k, c in terms), 0j

        (z,) = _rk45(rhs, (z,), 1.0, path.tol, path.max_step / max(abs(dt), 1e-12))
    return z


# ---------------------------------------------------------------------------
# leaf tracking and periods
# ---------------------------------------------------------------------------

@dataclass
class LeafTrackResult:
    endpoint: complex
    period: complex
    closure_defect: float
    closed: bool


def _track(x: VectorFieldGerm, spec: LeafLoopSpec) -> LeafTrackResult:
    a_terms, b_terms = _lower_field(x)
    base_is_x = spec.base_var == "x"
    base_terms, lift_terms = (a_terms, b_terms) if base_is_x else (b_terms, a_terms)
    w = spec.winding
    total_angle = 2 * math.pi * abs(w)
    direction = 1.0 if w >= 0 else -1.0
    r, c, ph = spec.radius, spec.center, spec.phase
    idr = 1j * direction * r
    exp = cmath.exp

    def rhs(theta, lift, _period):
        # base(theta) = c + r e and d(base)/d(theta) = i direction r e
        e = exp(1j * (ph + direction * theta))
        b = c + r * e
        xv, yv = (b, lift) if base_is_x else (lift, b)
        denom = eval_poly(base_terms, xv, yv)
        if abs(denom) < 1e-300:
            raise ZeroDivisionError("base component vanished on the lift")
        num = eval_poly(lift_terms, xv, yv)
        db = idr * e
        return db * num / denom, db / denom

    def guard(_theta, lift, _period):
        if abs(lift) > spec.polydisc:
            raise LeafEscape(f"lift left the polydisc (|lift| = {abs(lift):.3g})")

    end_lift, period = _rk45(rhs, (complex(spec.seed), 0j), total_angle, spec.tol,
                             spec.max_step, guard=guard)
    defect = abs(end_lift - spec.seed) / max(abs(spec.seed), 1e-30)
    return LeafTrackResult(end_lift, period, defect, defect <= CLOSURE_REL)


def track_leaf(x: VectorFieldGerm, spec: LeafLoopSpec) -> complex:
    """Holonomy image of the seed after lifting the base loop in the leaf."""
    return _track(x, spec).endpoint


def leaf_period(x: VectorFieldGerm, spec: LeafLoopSpec) -> Tuple[complex, LeafTrackResult]:
    """Integral of the time form over the lifted loop, with closure diagnostics."""
    result = _track(x, spec)
    return result.period, result


@dataclass
class HomothetyReport:
    period_base: complex
    period_scaled: complex
    ratio: complex
    expected: complex
    defect: float


def homothety_period_ratio(x: VectorFieldGerm, spec: LeafLoopSpec,
                           lam: complex) -> HomothetyReport:
    """Compare periods of a homogeneous quadratic field across a homothety.

    Lambda* X = lam X for such fields, so the scaled loop's period is
    1/lam times the base period; the defect reported is |ratio*lam - 1|.
    """
    if not _is_homogeneous(x, 2):
        raise BadParams("homothety law needs a homogeneous quadratic field")
    lam = complex(lam)
    p0, _ = leaf_period(x, spec)
    p1, _ = leaf_period(x, spec.scaled(lam))
    ratio = p1 / p0
    return HomothetyReport(p0, p1, ratio, 1.0 / lam, abs(ratio * lam - 1.0))


def _is_homogeneous(x: VectorFieldGerm, degree: int) -> bool:
    for jet in (x.a, x.b):
        if any(i + j != degree for i, j in jet._keys()):
            return False
    return True


def richardson_check(run: Callable[[float, float], complex], tol: float,
                     max_step: float) -> Tuple[complex, complex, float]:
    """Run a quantity at (tol, h) and (tol/16, h/2); return both and the gap."""
    v1 = run(tol, max_step)
    v2 = run(tol / 16.0, max_step / 2.0)
    return v1, v2, abs(v1 - v2)


def replace_controls(spec: LeafLoopSpec, tol: Optional[float] = None,
                     max_step: Optional[float] = None) -> LeafLoopSpec:
    """Copy of a loop spec with tightened integrator controls."""
    kw = {}
    if tol is not None:
        kw["tol"] = tol
    if max_step is not None:
        kw["max_step"] = max_step
    return replace(spec, **kw)


# ---------------------------------------------------------------------------
# loop builders and quadrature
# ---------------------------------------------------------------------------

def elliptic_loop(c: complex, tol: float = DEFAULT_TOL) -> LeafLoopSpec:
    """A homology-nontrivial loop on the leaf xy(x-y) = c.

    The x-projection of the leaf is a double cover branched at x = 0 and the
    three roots of x^3 = 4c; a circle around exactly {0, r1} lifts to a
    closed loop realizing a torus cycle, which carries a nonzero period.
    Raises BadParams for c = 0 and for a c whose loop overflows a float.
    """
    if c == 0:
        raise BadParams("c = 0 is the singular fiber")
    try:
        r1 = (4 * complex(c)) ** (1.0 / 3.0)
        center = r1 / 2.0
        radius = 0.65 * abs(r1)
        start = center + radius * cmath.exp(1j * cmath.phase(r1))
        seed = _elliptic_lift(start, c)
    except OverflowError:
        raise BadParams(f"the loop on the leaf c = {c} overflows a float") from None
    return LeafLoopSpec(
        base_var="x", center=center, radius=radius, winding=1,
        phase=cmath.phase(r1), seed=seed, tol=tol, max_step=0.02,
        polydisc=8.0,
    )


def _elliptic_lift(x0: complex, c: complex) -> complex:
    # xy(x - y) = c  <=>  x y^2 - x^2 y + c = 0
    disc = x0 ** 4 - 4 * c * x0
    root = cmath.sqrt(disc)
    y_a = (x0 ** 2 + root) / (2 * x0)
    y_b = (x0 ** 2 - root) / (2 * x0)
    return min((y_a, y_b), key=lambda z: (abs(z), cmath.phase(z)))


def siegel_loop(x0: complex, c: complex, tol: float = DEFAULT_TOL) -> LeafLoopSpec:
    """Loop |x| = |x0| with seed on the leaf xy = c (monomial Siegel fields)."""
    if x0 == 0:
        raise BadParams("the base circle radius |x0| must be positive")
    return LeafLoopSpec(
        base_var="x", center=0j, radius=abs(x0), winding=1,
        phase=cmath.phase(x0), seed=c / x0, tol=tol,
    )


def periodic_trapezoid(f: Callable[[float], complex], n: int, tol: float,
                       max_doublings: int) -> complex:
    """Integral of f over [0, 1] for periodic f: trapezoid rule, doubling n.

    Stops when two successive sums agree to tol relative to max(1, |sum|);
    for analytic periodic integrands the error falls spectrally.
    """
    prev = sum(f(i / n) for i in range(n)) / n
    for _ in range(max_doublings):
        n *= 2
        cur = sum(f(i / n) for i in range(n)) / n
        if abs(cur - prev) <= tol * max(1.0, abs(cur)):
            return cur
        prev = cur
    raise StepFailure("periodic quadrature did not converge")


def holonomy_taylor_coefficient(tracker: Callable[[complex], complex], order: int) -> complex:
    """Taylor coefficient of a tracked holonomy map via a discrete Cauchy integral.

    Evaluates h(z) - z at 16 points on the circle |z| = 0.03 and extracts
    the z^order coefficient; spectrally accurate for analytic maps.
    """
    radius, samples = 0.03, 16
    acc = 0j
    for k in range(samples):
        z = radius * cmath.exp(2j * math.pi * k / samples)
        acc += (tracker(z) - z) / z ** order
    return acc / samples
