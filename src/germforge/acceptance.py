"""The verify-paper suite: every gate criterion with its stated tolerance.

Each item returns an ItemResult with one-line detail strings; the CLI and
the pytest gate both run these functions, so there is a single source of
truth for what "done" means.  The mode of SuiteConfig (``--mode``) reaches
three items: mt-commutation, first-integrals and onedim-battery run in that
mode, comparing with equality in exact mode and within a tolerance in
float mode.  The three numeric items (elliptic-periods, period-dichotomy,
holonomy) integrate in floating point by nature, and the other five
(hirzebruch, siegel-criterion, linearization, classifier, algebra) always
run in exact mode.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

from . import mr, numflow
from . import hirzebruch as hz
from .catalog import (
    NormalFormID,
    classify,
    classify_with_reasons,
    first_integral,
    make_normal_form,
    make_pair,
)
from .germ import (
    VectorFieldGerm,
    decompose,
    derive_along,
    lie_bracket,
    pullback,
)
from .numflow import (
    LeafLoopSpec,
    TimePath,
    elliptic_loop,
    homothety_period_ratio,
    integrate_flow_1d,
    leaf_period,
    siegel_loop,
    track_leaf,
)
from .onedim import (
    FAIL,
    PASS,
    closed_criterion,
    invariant_axes,
    onedim_check,
    restrict_to_axis,
    siegel_regular_test,
)
from .scalars import EXACT, FLOAT, GaussianRational
from .series import INF, Jet1, Jet2, jet_mul

GR = GaussianRational


@dataclass
class ItemResult:
    name: str
    title: str
    passed: bool
    details: List[str] = field(default_factory=list)
    seconds: float = 0.0

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"[{mark}] {self.name}: {self.title} ({self.seconds:.2f}s)"


@dataclass
class SuiteConfig:
    mode: str = EXACT
    degree: int = 14

    def zero_ok(self, jet_or_germ) -> bool:
        tol = 0.0 if self.mode == EXACT else 1e-9
        return jet_or_germ.is_zero(tol)


# ---------------------------------------------------------------------------
# item 1: commutation of every pair family over the parameter grid
# ---------------------------------------------------------------------------

def _series_grid(mode) -> Dict[str, Jet1]:
    return {
        "zero": Jet1.zero(mode),
        "r": Jet1.from_coeffs({1: 1, 3: 2}, mode),
        "s": Jet1.from_coeffs({2: 3, 4: 1}, mode),
        "g1": Jet1.from_coeffs({0: 1, 2: 2, 4: -1}, mode),
        "g2": Jet1.from_coeffs({1: 1, 3: 1}, mode),
        "u1": Jet1.from_coeffs({0: 1, 1: 1, 4: 2}, mode),
        "u2": Jet1.from_coeffs({1: 1, 4: 2}, mode),
    }


def pair_family_grid(mode=EXACT) -> List[NormalFormID]:
    """The commuting-pair instances exercised by the gate."""
    s = _series_grid(mode)
    ids: List[NormalFormID] = []
    for n in (1, 2, 3):
        ids.append(NormalFormID("mt", "i", {"n": n, "alpha": 1}))
        ids.append(NormalFormID(
            "mt", "i", {"n": n, "alpha": GR(2, 1)}, {"r": s["r"], "s": s["s"]}
        ))
    ids.append(NormalFormID("mt", "ii"))
    ids.append(NormalFormID("mt", "iii", {"n": 1, "c1": 1, "c2": 0}))
    ids.append(NormalFormID("mt", "iii", {"n": 1, "c1": 2, "c2": 3}))
    for n in (2, 3):
        ids.append(NormalFormID("mt", "iii", {"n": n}))
    for n in (1, 2, 3):
        ids.append(NormalFormID("mt", "iv", {"n": n}, {"g1": s["g1"], "g2": s["g2"]}))
    for n in (1, 2, 3):
        ids.append(NormalFormID("mt", "v", {"n": n}))
    ids.append(NormalFormID("mt", "vi"))
    for (m, n, a, b) in ((1, 1, 1, 0), (2, 1, 1, 1), (3, 2, 1, 2)):
        for k1 in (0, 1):
            ids.append(NormalFormID(
                "mt", "vii", {"m": m, "n": n, "a": a, "b": b, "k1": k1},
                {"u1": s["u1"], "u2": s["u2"]},
            ))
    return ids


def item_mt_commutation(cfg: SuiteConfig) -> ItemResult:
    details = []
    ok = True
    for nf in pair_family_grid(cfg.mode):
        x, y = make_pair(nf, cfg.mode, cfg.degree)
        br = lie_bracket(x, y)
        good = cfg.zero_ok(br) and br.valid_through >= 12
        ok &= good
        if not good:
            details.append(f"{nf.label()}: bracket nonzero or valid_through "
                           f"{br.valid_through} < 12")
    details.append(f"{len(pair_family_grid(cfg.mode))} pair instances, "
                   f"bracket == 0 to valid_through >= 12")
    return ItemResult("mt-commutation",
                      "all seven pair families commute exactly", ok, details)


# ---------------------------------------------------------------------------
# item 2: first integrals
# ---------------------------------------------------------------------------

def item_first_integrals(cfg: SuiteConfig) -> ItemResult:
    details = []
    ok = True
    for row in ("4", "5", "6", "7", "8", "9"):
        nf = NormalFormID("table", row, {"a": 1})
        x = make_normal_form(nf, cfg.mode, cfg.degree)
        integral = first_integral(nf, cfg.mode)
        d = derive_along(x, integral.truncate(cfg.degree))
        good = cfg.zero_ok(d)
        ok &= good
        details.append(f"row {row} (a=1): derivative of the invariant "
                       f"{'vanishes' if good else 'DOES NOT vanish'}")
    for n in (0, 1, 2):
        nf = NormalFormID("table", "2", {"n": n})
        x = make_normal_form(nf, cfg.mode, cfg.degree)
        d = derive_along(x, first_integral(nf, cfg.mode))
        good = cfg.zero_ok(d)
        ok &= good
        details.append(f"parabolic n={n}: meromorphic integral "
                       f"{'annihilated' if good else 'NOT annihilated'}")
    nf = NormalFormID("table", "3")
    x = make_normal_form(nf, cfg.mode, cfg.degree)
    d = derive_along(x, first_integral(nf, cfg.mode))
    good = cfg.zero_ok(d)
    ok &= good
    details.append(f"nilpotent: y^2/(y-x^2) {'annihilated' if good else 'NOT annihilated'}")
    return ItemResult("first-integrals",
                      "displayed integrals are constant along their fields",
                      ok, details)


# ---------------------------------------------------------------------------
# item 3: one-dimensional battery
# ---------------------------------------------------------------------------

def table_instance_grid(mode=EXACT) -> List[NormalFormID]:
    grid: List[NormalFormID] = [
        NormalFormID("table", "1a", {"a": 2}),
        NormalFormID("table", "1a", {"a": 3}),
        NormalFormID("table", "1b", {"a": 1}),
        NormalFormID("table", "1c", {"a": 1},
                     {"g1": Jet1.from_coeffs({1: 1}, mode),
                      "g2": Jet1.from_coeffs({1: 1}, mode)}),
        NormalFormID("table", "3"),
        NormalFormID("table", "13", {"n": 0}),
        NormalFormID("table", "13", {"n": 1}),
    ]
    for n in (0, 1, 2):
        grid.append(NormalFormID("table", "2", {"n": n}))
    for row in ("4", "5", "6", "7", "8", "9"):
        for a in (0, 1):
            grid.append(NormalFormID("table", row, {"a": a}))
    grid.append(NormalFormID("table", "10",
                             {"m": 1, "n": 1, "p": 1, "lambda": GR(Fraction(1, 2))}))
    grid.append(NormalFormID("table", "10", {"m": 2, "n": 1, "p": 1, "lambda": 0}))
    for n in (1, 2, -1):
        grid.append(NormalFormID("table", "11", {"n": n}))
    grid.append(NormalFormID("table", "12", {"m": 1, "n": 1, "a": 1, "b": 0}))
    grid.append(NormalFormID("table", "12", {"m": 2, "n": 1, "a": 1, "b": 1}))
    return grid


def item_onedim_battery(cfg: SuiteConfig) -> ItemResult:
    details = []
    ok = True
    mode = cfg.mode
    v = onedim_check(Jet1.from_coeffs({2: 1}, mode, cfg.degree))
    ok &= v.status == PASS
    details.append(f"z^2: {v.status}")
    v = onedim_check(Jet1.from_coeffs({3: 1}, mode, cfg.degree))
    ok &= v.status == FAIL and v.reason == "order>2"
    details.append(f"z^3: {v.status} ({v.reason})")
    constants = [GR(1), GR(0, 1), GR(Fraction(3, 2))] if mode == EXACT else \
        [1.0, 1j, 1.5]
    for c in constants:
        h = Jet1.from_coeffs({2: 1, 3: c}, mode, cfg.degree)
        v = onedim_check(h)
        if mode == EXACT:
            good = v.status == FAIL and v.reason == "nonzero-residue" and v.witness == -c
        else:
            good = v.status == FAIL and abs(v.witness + c) < 1e-12
        ok &= good
        details.append(f"z^2 + ({c})z^3: residue {v.witness}")
    bad_axes = 0
    count = 0
    for nf in table_instance_grid(mode):
        x = make_normal_form(nf, mode, cfg.degree)
        for axis in invariant_axes(x):
            count += 1
            v = onedim_check(restrict_to_axis(x, axis))
            if v.status != PASS:
                bad_axes += 1
                details.append(f"{nf.label()} axis {axis}: {v.status} ({v.reason})")
    ok &= bad_axes == 0
    details.append(f"{count} axis restrictions across the catalog grid all pass")
    return ItemResult("onedim-battery",
                      "one-dimensional necessary conditions", ok, details)


# ---------------------------------------------------------------------------
# item 4: elliptic periods
# ---------------------------------------------------------------------------

def _elliptic_field() -> VectorFieldGerm:
    return make_normal_form(NormalFormID("table", "4", {"a": 0}), EXACT, 6).to_float()


def item_elliptic_periods(cfg: SuiteConfig) -> ItemResult:
    details = []
    ok = True
    x = _elliptic_field()
    for c in (0.02, 0.05j):
        def run(tol, max_step, c=c):
            spec = elliptic_loop(c, tol=tol)
            spec = numflow.replace_controls(spec, tol=tol, max_step=max_step)
            p, res = leaf_period(x, spec)
            return p

        p1, p2, gap = numflow.richardson_check(run, 1e-10, 0.02)
        rel = gap / abs(p2)
        good = abs(p2) > 0 and rel < 1e-6
        ok &= good
        details.append(f"leaf c={c}: |period| = {abs(p2):.6f}, "
                       f"half-step agreement {rel:.2e}")
        spec = elliptic_loop(c, tol=1e-12)
        for lam in (0.5, 0.3 + 0.1j):
            rep = homothety_period_ratio(x, spec, lam)
            good = rep.defect < 1e-6
            ok &= good
            details.append(f"leaf c={c}, lambda={lam}: homothety defect {rep.defect:.2e}")
    return ItemResult("elliptic-periods",
                      "nonzero leaf periods and the homothety scaling law",
                      ok, details)


# ---------------------------------------------------------------------------
# item 5: period dichotomy
# ---------------------------------------------------------------------------

def item_period_dichotomy(cfg: SuiteConfig) -> ItemResult:
    details = []
    ok = True
    x = Jet2.variable("x", EXACT, INF)
    y = Jet2.variable("y", EXACT, INF)
    xa = VectorFieldGerm(jet_mul(x, x), -jet_mul(x, y)).to_float()
    p, _ = leaf_period(xa, siegel_loop(0.5, 0.02, tol=1e-12))
    good = abs(p) < 1e-8
    ok &= good
    details.append(f"x(x dx - y dy): |period| = {abs(p):.2e} < 1e-8")
    xy = jet_mul(x, y)
    xb = VectorFieldGerm(jet_mul(xy, x), -jet_mul(xy, y)).to_float()
    for c in (0.02, 0.05j):
        p, _ = leaf_period(xb, siegel_loop(0.5, c, tol=1e-12))
        expected = 2j * math.pi / c
        rel = abs(p - expected) / abs(expected)
        good = rel < 1e-6
        ok &= good
        details.append(f"xy(x dx - y dy), leaf {c}: period vs 2*pi*i/c rel {rel:.2e}")
    one_plus_x = (Jet2.const(1, FLOAT, INF) + Jet2.variable("x", FLOAT, INF))
    p1 = mr.mr_leaf_period(1, one_plus_x, 1, 1, (0.1, 0.2))
    p2 = mr.mr_leaf_period(1, one_plus_x, 1, 1, (0.15, 0.2))
    good = abs(p1 - p2) > 1e-6
    ok &= good
    details.append(f"unit f = 1+x: leaf periods differ by {abs(p1 - p2):.3e} > 1e-6")
    return ItemResult("period-dichotomy",
                      "zero periods iff the divisor pairing is +-1",
                      ok, details)


# ---------------------------------------------------------------------------
# item 6: Hirzebruch verification
# ---------------------------------------------------------------------------

def item_hirzebruch(cfg: SuiteConfig) -> ItemResult:
    details = []
    ok = True
    rng = random.Random(20260810)
    checks = 0
    for n in (0, 1, 2, 3):
        ok &= not hz.random_flow_failures(n, rng, 25)
        checks += 25
        fp = hz.fixed_point(n)
        ok &= hz.points_equal(hz.phi_flow(n, hz.random_gr(rng), fp), fp)
        ok &= hz.points_equal(hz.psi_flow(n, hz.random_gr(rng), fp), fp)
        gens = hz.local_generators_at_p(n)
        ok &= gens.z.sign in (1, -1) and gens.y.sign in (1, -1)
        details.append(f"n={n}: germ signs (Z: {gens.z.sign:+d}, Y: {gens.y.sign:+d})")
        ok &= lie_bracket(gens.z.derived.truncate(10),
                          gens.y.derived.truncate(10)).is_zero()
        member = hz.prop35_member(n, hz.random_gr(rng), hz.random_gr(rng), degree=10)
        ok &= lie_bracket(member, hz.z_display(n, 10)).is_zero()
    details.append(f"{checks} random exact point/time checks: group law, "
                   "commutation, chart coherence, fixed point")
    details.append("commutant family members commute with the parabolic germ exactly")
    return ItemResult("hirzebruch",
                      "exact surface flows and local germs (signs recorded)",
                      ok, details)


# ---------------------------------------------------------------------------
# item 7: Siegel regular-foliation criterion
# ---------------------------------------------------------------------------

def item_siegel_criterion(cfg: SuiteConfig) -> ItemResult:
    mode = EXACT
    one = Jet1.const(1, mode)
    z = Jet1.variable(mode)
    z2 = z * z
    g1_grid = [one, one + z, one + z2, one + z + z2, one + (z2 * z).scale(2)]
    g2_grid = [Jet1.zero(mode), one, z, z2, one + z]
    details = []
    ok = True
    mismatches = 0
    for n in (1, 2):
        for g1 in g1_grid:
            for g2 in g2_grid:
                verdict = siegel_regular_test(g1, g2, n, max(10, n + 4))
                expected = closed_criterion(g1, g2)
                if (verdict.status == PASS) != expected:
                    mismatches += 1
                    ok = False
                if verdict.status == FAIL and verdict.witness is None:
                    ok = False
                    details.append(f"n={n}: fail without witness")
        details.append(f"n={n}: 25 grid points agree with g1'(0) = g2(0) = 0")
    if mismatches:
        details.append(f"{mismatches} verdict mismatches")
    return ItemResult("siegel-criterion",
                      "monomial test equals the closed criterion on the grid",
                      ok, details)


# ---------------------------------------------------------------------------
# item 8: linearization of perturbed Siegel fields
# ---------------------------------------------------------------------------

def linearization_cases(mode=EXACT) -> List[Tuple[int, int, int, int, Jet1]]:
    u2_a = Jet1.from_coeffs({1: 1}, mode)
    u2_b = Jet1.from_coeffs({1: 1, 3: -2}, mode)
    return [
        (1, 1, 1, 0, u2_a),
        (2, 1, 1, 1, u2_b),
        (3, 2, 1, 2, u2_a),
    ]


def _perturbed_siegel(m, n, amu, bmu, u2: Jet1, degree: int) -> VectorFieldGerm:
    mode = u2.mode
    x = Jet2.variable("x", mode, INF)
    y = Jet2.variable("y", mode, INF)
    w = Jet2.monomial(n, m, 1, mode, INF).truncate(degree + amu + bmu)
    from .series import jet_compose1

    psi = jet_compose1(u2.truncate(degree + amu + bmu), w).divide_monomial(amu, bmu)
    a = x.scale(m) + jet_mul(psi, x.scale(bmu))
    b = y.scale(-n) - jet_mul(psi, y.scale(amu))
    return VectorFieldGerm(a, b).truncate(degree)


def item_linearization(cfg: SuiteConfig) -> ItemResult:
    details = []
    ok = True
    degree = 12
    for (m, n, amu, bmu, u2) in linearization_cases():
        assert amu * m - bmu * n in (1, -1)
        z = _perturbed_siegel(m, n, amu, bmu, u2, degree)
        result = mr.linearize(z, degree)
        good = result.obstruction is None
        x = Jet2.variable("x", EXACT, INF)
        y = Jet2.variable("y", EXACT, INF)
        model = VectorFieldGerm(x.scale(m), y.scale(-n)).truncate(degree)
        good &= result.linearized.truncate(degree - 1).equals(model.truncate(degree - 1))
        back = pullback(model, result.change.inverse(degree))
        good &= back.truncate(11).equals(z.truncate(11))
        ok &= good
        details.append(
            f"(m,n,a_mu,b_mu)=({m},{n},{amu},{bmu}): "
            f"{'no obstruction, conjugation exact to degree 11' if good else 'FAILED'}"
        )
    return ItemResult("linearization",
                      "resonance-free perturbations linearize exactly",
                      ok, details)


# ---------------------------------------------------------------------------
# item 9: holonomy oracle agreement
# ---------------------------------------------------------------------------

def item_holonomy(cfg: SuiteConfig) -> ItemResult:
    details = []
    ok = True
    for lam in (0.0, 0.3):
        form = mr.MRFormalForm(1, 1, 1, lam)
        field = mr.mr_formal_vf(form, FLOAT, 12)

        def tracker(z0: complex) -> complex:
            spec = LeafLoopSpec(base_var="x", center=0j, radius=1.0, winding=1,
                                seed=z0, tol=1e-12, max_step=0.02, polydisc=8.0)
            return track_leaf(field, spec)

        model = mr.holonomy_model(1, 1, lam, 12)
        z0 = 0.05
        tracked = tracker(z0)
        time_one = integrate_flow_1d(model, z0, TimePath.segment(0, 1, tol=1e-12))
        diff = abs(tracked - time_one)
        good = diff < 1e-5
        ok &= good
        details.append(f"lambda={lam}: |tracked - time-one| = {diff:.2e} at |z0| = 0.05")
        c2 = numflow.holonomy_taylor_coefficient(tracker, 2)
        gap = abs(c2 - 2j * math.pi)
        good = gap < 1e-4
        ok &= good
        details.append(f"lambda={lam}: z^2 coefficient off 2*pi*i by {gap:.2e}")
    return ItemResult("holonomy",
                      "tracked holonomy matches the model time-one map",
                      ok, details)


# ---------------------------------------------------------------------------
# item 10: classifier soundness
# ---------------------------------------------------------------------------

def classifier_representatives(mode=EXACT) -> List[NormalFormID]:
    return [
        NormalFormID("table", "1a", {"a": 2}),
        NormalFormID("table", "1b", {"a": 1}),
        NormalFormID("table", "1c", {"a": 1},
                     {"g1": Jet1.from_coeffs({1: 1}, mode),
                      "g2": Jet1.from_coeffs({1: 1}, mode)}),
        NormalFormID("table", "2", {"n": 1}),
        NormalFormID("table", "3"),
        NormalFormID("table", "4", {"a": 1}),
        NormalFormID("table", "5", {"a": 1}),
        NormalFormID("table", "6", {"a": 1}),
        NormalFormID("table", "7", {"a": 1}),
        NormalFormID("table", "8", {"a": 1}),
        NormalFormID("table", "9", {"a": 1}),
        NormalFormID("table", "10", {"m": 1, "n": 1, "p": 1,
                                     "lambda": GR(Fraction(1, 2))}),
        NormalFormID("table", "11", {"n": 2}),
        NormalFormID("table", "12", {"m": 2, "n": 1, "a": 1, "b": 1}),
        NormalFormID("table", "13", {"n": 1}),
    ]


def item_classifier(cfg: SuiteConfig) -> ItemResult:
    details = []
    ok = True
    for nf in classifier_representatives():
        x = make_normal_form(nf, EXACT, cfg.degree)
        hits = [c.name for c in classify(x)]
        good = nf.name in hits
        ok &= good
        if not good:
            details.append(f"{nf.label()}: classifier returned {hits}")
    details.append("all 15 table rows recovered from representative instances")
    x = Jet2.variable("x", EXACT, INF)
    y = Jet2.variable("y", EXACT, INF)
    cubic = VectorFieldGerm(jet_mul(jet_mul(x, x), x), Jet2.zero(EXACT, INF))
    cands, reasons = classify_with_reasons(cubic.truncate(cfg.degree))
    good = not cands and any("order>2" in r for r in reasons)
    ok &= good
    details.append(f"x^3 dx rejected: {reasons[0] if reasons else 'no reason'}")
    mixed = VectorFieldGerm(jet_mul(jet_mul(x, x), y), jet_mul(jet_mul(y, y), y))
    cands, reasons = classify_with_reasons(mixed.truncate(cfg.degree))
    good = not cands and any("order>2" in r for r in reasons)
    ok &= good
    details.append(f"x^2 y dx + y^3 dy rejected: {reasons[0] if reasons else 'none'}")
    return ItemResult("classifier",
                      "necessary-conditions filter recovers every row",
                      ok, details)


# ---------------------------------------------------------------------------
# item 11: bracket and decompose algebra
# ---------------------------------------------------------------------------

def _random_cubic(rng: random.Random, degree: int) -> VectorFieldGerm:
    def jet():
        coeffs = {}
        for i in range(4):
            for j in range(4 - i):
                c = rng.randint(-3, 3)
                if c:
                    coeffs[(i, j)] = GR(c)
        return Jet2(EXACT, coeffs, INF).truncate(degree)

    return VectorFieldGerm(jet(), jet())


def item_algebra(cfg: SuiteConfig) -> ItemResult:
    details = []
    ok = True
    rng = random.Random(414243)
    degree = 10
    for _ in range(50):
        x = _random_cubic(rng, degree)
        y = _random_cubic(rng, degree)
        z = _random_cubic(rng, degree)
        anti = lie_bracket(x, y) + lie_bracket(y, x)
        jac = (lie_bracket(lie_bracket(x, y), z)
               + lie_bracket(lie_bracket(y, z), x)
               + lie_bracket(lie_bracket(z, x), y))
        ok &= anti.is_zero() and jac.is_zero()
    details.append("antisymmetry and Jacobi hold exactly on 50 random cubic germs")
    frames = 0
    while frames < 20:
        x = _random_cubic(rng, degree)
        y = _random_cubic(rng, degree)
        z = _random_cubic(rng, degree)
        det = jet_mul(x.a, y.b) - jet_mul(x.b, y.a)
        if det.is_zero():
            continue
        frames += 1
        f, g = decompose(z, x, y)
        # cleared identity: f.num*A + g.num*C = det * P, etc.
        lhs_a = jet_mul(f.num, x.a) + jet_mul(g.num, y.a) - jet_mul(det, z.a)
        lhs_b = jet_mul(f.num, x.b) + jet_mul(g.num, y.b) - jet_mul(det, z.b)
        ok &= lhs_a.is_zero() and lhs_b.is_zero()
    details.append("decompose round-trip identity exact on 20 random frames")
    return ItemResult("algebra", "bracket axioms and frame decomposition",
                      ok, details)


# ---------------------------------------------------------------------------
# suite driver
# ---------------------------------------------------------------------------

ITEMS: List[Tuple[str, Callable[[SuiteConfig], ItemResult]]] = [
    ("mt-commutation", item_mt_commutation),
    ("first-integrals", item_first_integrals),
    ("onedim-battery", item_onedim_battery),
    ("elliptic-periods", item_elliptic_periods),
    ("period-dichotomy", item_period_dichotomy),
    ("hirzebruch", item_hirzebruch),
    ("siegel-criterion", item_siegel_criterion),
    ("linearization", item_linearization),
    ("holonomy", item_holonomy),
    ("classifier", item_classifier),
    ("algebra", item_algebra),
]


def run_suite(only: Optional[str] = None, cfg: Optional[SuiteConfig] = None
              ) -> List[ItemResult]:
    cfg = cfg or SuiteConfig()
    results = []
    for name, fn in ITEMS:
        if only and only not in name:
            continue
        start = time.time()
        try:
            result = fn(cfg)
        except Exception as exc:  # an items's crash is a failure, not an abort
            result = ItemResult(name, "raised an exception", False,
                                [f"{type(exc).__name__}: {exc}"])
        result.seconds = time.time() - start
        results.append(result)
    return results
