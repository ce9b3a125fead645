"""Seeded jobs of the three benchmark workloads.

``Workload.job(i, sweep)`` makes job i of a sweep from the seed alone: its
structure (kind, degree, size class, monomials, parameters) from (seed, i)
and its coefficient values, leaves and points from (seed, i, sweep).  So a
slot does the same kind of work in every sweep and every traced or untraced
run, on fresh values.  The Job's ``run`` makes the germforge calls that are
timed; its ``check`` compares their outputs with a reference that does not
go through the timed call: an exact identity, a closed form, the
generator's own data, or a round trip.  ``check`` returns (ok,
fingerprint); the fingerprint is a canonical text of the outputs, compared
between traced and untraced runs.

Job kinds rotate in a fixed order.  The n-th job of a kind takes its
degree, size class and catalog parameters from cycles of coprime periods in
n, so every seed gets the same mix of work.

The benchmark's calls into germforge go through module attributes
(``series.jet_mul``), never through names imported into this module, so
the tracer's rebinding sees them.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Optional, Tuple

from germforge import blowup, catalog, germ, hirzebruch, mr, numflow, onedim
from germforge import parser, report, scalars, series

GR = scalars.GaussianRational
EXACT = scalars.EXACT
FLOAT = scalars.FLOAT
INF = series.INF


@dataclass
class Job:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], Tuple[bool, str]]
    # input properties: truncation degree, term density, coefficient bits,
    # and a key naming the input so repeated inputs can be counted
    degree: int = 0
    density: Optional[float] = None
    bits: Optional[int] = None
    key: object = None


class Workload:
    name = ""
    kinds: Tuple[str, ...] = ()
    slots = 0          # jobs per sweep, a whole number of rounds of the kinds
    # per-layer metrics that must be nonzero on this workload (tracer self-check)
    required: Tuple[str, ...] = ()

    def __init__(self, seed: int):
        self.seed = seed

    def job(self, i: int, sweep: int = 0) -> Job:
        """Job i of a sweep: its structure (kind, degree, sizes, monomials,
        parameters) depends on (seed, i) only, its values also on the sweep."""
        kind = self.kinds[i % len(self.kinds)]
        # rnd numbers the jobs of this kind; strata cycle with it
        rnd = (i // len(self.kinds)) * self.kinds.count(kind) + \
            self.kinds[:i % len(self.kinds)].count(kind)
        srng = random.Random(f"{self.name}/{self.seed}/{i}")
        vrng = random.Random(f"{self.name}/{self.seed}/{i}/{sweep}")
        return getattr(self, "job_" + kind.replace("-", "_"))(srng, vrng, rnd)


# ---------------------------------------------------------------------------
# shared generators
# ---------------------------------------------------------------------------

def rand_rat(rng: random.Random, size: int) -> Fraction:
    """Nonzero rational: small integer, ~8-bit or ~24-bit numerator/denominator."""
    if size == 0:
        return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)))
    bits = 8 if size == 1 else 24
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 2 ** bits - 1),
                    rng.randint(1, 2 ** bits - 1))


def rand_gr(rng: random.Random, size: int, imag_share: float = 0.3) -> GR:
    im = rand_rat(rng, size) if rng.random() < imag_share else 0
    return GR(rand_rat(rng, size), im)


def coeff_bits(values) -> int:
    bits = 0
    for v in values:
        bits = max(bits, v.re.numerator.bit_length(), v.re.denominator.bit_length(),
                   v.im.numerator.bit_length(), v.im.denominator.bit_length())
    return bits


def _tri(degree: int, low: int) -> int:
    """Number of monomials of total degree low..degree."""
    return sum(d + 1 for d in range(low, degree + 1))


def poly_text(terms: Dict[Tuple[int, int], GR]) -> str:
    parts = []
    for (i, j), c in sorted(terms.items()):
        mono = "".join(f"*{v}^{e}" for v, e in (("x", i), ("y", j)) if e)
        parts.append(f"({scalars.format_exact(c)}){mono}")
    return " + ".join(parts) or "0"


def field_text(a: Dict, b: Dict) -> str:
    return f"[{poly_text(a)}, {poly_text(b)}]"


def rand_poly(srng, vrng, low: int, top: int, share: float, size: int) -> Dict:
    """round(share * #monomials) monomials of degree low..top, picked by
    srng, with coefficients drawn from vrng."""
    monomials = [(i, d - i) for d in range(low, top + 1) for i in range(d + 1)]
    chosen = srng.sample(monomials, round(share * len(monomials)))
    return {key: rand_gr(vrng, size) for key in sorted(chosen)}


def axis_unit(srng, vrng, size: int) -> series.Jet2:
    """Unit c + xy g(x, y): it scales the restrictions to both axes by c, so
    a catalog germ times it keeps the one-dimensional data the table
    prescribes (an arbitrary unit can put a residue on an axis)."""
    g = rand_poly(srng, vrng, 0, 1, 0.7, size)
    terms = {(i + 1, j + 1): v for (i, j), v in g.items()}
    terms[(0, 0)] = GR(vrng.choice((1, 1, 2, -1)))
    return series.Jet2(EXACT, terms, INF)


def rand_jet1(vrng, low: int, top: int, size: int, const=None) -> series.Jet1:
    coeffs = {k: rand_gr(vrng, size, 0.0) for k in range(low, top + 1)}
    if const is not None:
        coeffs[0] = GR(const)
    return series.Jet1(EXACT, coeffs, INF)


def jet_equal_terms(jet: series.Jet2, terms: Dict) -> bool:
    want = {k: v for k, v in terms.items() if k[0] + k[1] <= jet.valid_through}
    return jet.coeffs == want


def json_terms_equal(data: dict, terms: Dict, degree) -> bool:
    want = sorted([i, j, scalars.format_exact(v)] for (i, j), v in terms.items()
                  if i + j <= degree)
    return sorted(data["terms"]) == want


def germ_text(x: germ.VectorFieldGerm) -> str:
    return repr(report.jet2_to_json(x.a)) + repr(report.jet2_to_json(x.b))


# ---------------------------------------------------------------------------
# exact-algebra
# ---------------------------------------------------------------------------

DEGREES_ALG = tuple(range(8, 17))
SIZES_ALG = (0, 1, 0, 2)          # coefficient-size classes, period coprime to 9

MT_KINDS = ("i", "ii", "iii", "iv", "v", "vi", "vii")
VII_DATA = ((1, 1, 1, 0), (2, 1, 1, 1), (3, 2, 1, 2), (1, 2, 1, 0), (2, 3, 2, 1))
ROW12_DATA = ((1, 1, 1, 0), (2, 1, 1, 1), (1, 2, 1, 0), (3, 2, 1, 1))
ELLIPTIC_INTEGRAL_DEGREE = {"4": 3, "5": 4, "6": 6, "7": 3, "8": 3, "9": 5}
TABLE_KINDS = ("1a", "1b", "1c", "2", "3", "4", "5", "6", "7", "8", "9",
               "10", "11", "12", "13")


class ExactAlgebra(Workload):
    """Fresh random germs: bracket identities, frames, pair families, classifier."""

    name = "exact-algebra"
    slots = 300
    kinds = ("bracket", "decompose", "pair", "classify",
             "bracket", "decompose", "pair", "classify", "blowup", "hirzebruch")
    required = ("series.jet_mul.calls", "series.jet_add.calls",
                "series.jet_compose1.calls", "series.jet_compose2.calls",
                "series.exact_divide.calls", "germ.lie_bracket.calls",
                "germ.decompose.calls", "catalog.classify.calls", "catalog.make.calls",
                "onedim.onedim_check.calls", "mr.mr_formal_vf.calls",
                "blowup.blowup_vf.calls", "blowup.divisor_singularities.calls",
                "hirzebruch.flow.calls", "parser.parse.calls", "report.to_json.calls",
                "scalars.gr_ops", "scalars.coeff_bits_max", "series.jet_mul.term_pairs")

    def strata(self, rnd: int) -> Tuple[int, int]:
        return DEGREES_ALG[rnd % len(DEGREES_ALG)], SIZES_ALG[rnd % len(SIZES_ALG)]

    def rand_field(self, srng, vrng, rnd: int):
        """Sparse cubic (3 jobs in 5) or denser quartic, as (A terms, B terms, top)."""
        _, size = self.strata(rnd)
        low, top, share = (0, 3, 0.4) if rnd % 5 in (0, 2, 4) else (1, 4, 0.5)
        return (rand_poly(srng, vrng, low, top, share, size),
                rand_poly(srng, vrng, low, top, share, size), top)

    def _props(self, job: Job, fields, top: int, degree: int) -> Job:
        job.degree = degree
        job.density = sum(len(t) for f in fields for t in f) / (2 * len(fields) * _tri(top, 0))
        job.bits = coeff_bits(v for f in fields for t in f for v in t.values())
        job.key = ("field", tuple(field_text(*f) for f in fields), degree)
        return job

    def job_bracket(self, srng, vrng, rnd) -> Job:
        degree, _ = self.strata(rnd)
        fields = []
        for _ in range(3):
            a, b, top = self.rand_field(srng, vrng, rnd)
            fields.append((a, b))
        texts = [field_text(a, b) for a, b in fields]
        jacobi = top == 3

        def run():
            x, y, z = (parser.parse_vector_field(t, EXACT, degree) for t in texts)
            xy = germ.lie_bracket(x, y)
            yx = germ.lie_bracket(y, x)
            jac = None
            if jacobi:
                jac = (germ.lie_bracket(xy, z), germ.lie_bracket(germ.lie_bracket(y, z), x),
                       germ.lie_bracket(germ.lie_bracket(z, x), y))
            return (x, y, z), xy, yx, jac, report.germ_to_json(xy)

        def check(out):
            parsed, xy, yx, jac, js = out
            ok = all(jet_equal_terms(g.a, a) and jet_equal_terms(g.b, b)
                     and g.valid_through == degree
                     for g, (a, b) in zip(parsed, fields))
            ok &= (xy + yx).is_zero()
            if jac is not None:
                ok &= (jac[0] + jac[1] + jac[2]).is_zero()
            ok &= json_terms_equal(js["dx"], xy.a.coeffs, xy.valid_through)
            ok &= json_terms_equal(js["dy"], xy.b.coeffs, xy.valid_through)
            return ok, germ_text(xy)

        return self._props(Job("bracket", run, check), fields, top, degree)

    def job_decompose(self, srng, vrng, rnd) -> Job:
        degree, size = self.strata(rnd)
        fields = []
        for k in range(3):
            a, b, top = self.rand_field(srng, vrng, rnd)
            if k == 0:        # frame X = A dx + B dy, Y = C dx + D dy with AD - BC a unit
                a[(0, 0)] = rand_gr(vrng, size)
                b.pop((0, 0), None)
            elif k == 1:
                a.pop((0, 0), None)
                b[(0, 0)] = rand_gr(vrng, size)
            fields.append((a, b))
        texts = [field_text(a, b) for a, b in fields]

        def run():
            x, y, z = (parser.parse_vector_field(t, EXACT, degree) for t in texts)
            f, g = germ.decompose(z, x, y)
            return (x, y, z), f, g

        def check(out):
            (x, y, z), f, g = out
            det = f.den
            ok = det.equals(series.jet_mul(x.a, y.b) - series.jet_mul(x.b, y.a))
            ok &= (series.jet_mul(f.num, x.a) + series.jet_mul(g.num, y.a)
                   - series.jet_mul(det, z.a)).is_zero()
            ok &= (series.jet_mul(f.num, x.b) + series.jet_mul(g.num, y.b)
                   - series.jet_mul(det, z.b)).is_zero()
            return ok, repr(report.rational_to_json(f)) + repr(report.rational_to_json(g))

        return self._props(Job("decompose", run, check), fields, top, degree)

    def job_pair(self, srng, vrng, rnd) -> Job:
        degree, size = self.strata(rnd)
        family = MT_KINDS[rnd % len(MT_KINDS)]
        k = rnd // len(MT_KINDS)
        params: Dict[str, object] = {}
        sparams: Dict[str, object] = {}
        if family == "i":
            params = {"n": 1 + k % 3, "alpha": rand_gr(vrng, size)}
            sparams = {"r": rand_jet1(vrng, 1, 3, size), "s": rand_jet1(vrng, 1, 3, size)}
        elif family == "iii":
            params = {"n": 1 + k % 3}
            if params["n"] == 1:
                params.update(c1=rand_gr(vrng, size), c2=rand_gr(vrng, size))
        elif family == "iv":
            params = {"n": 1 + k % 3}
            sparams = {"g1": rand_jet1(vrng, 2, 4, size, const=1),
                       "g2": rand_jet1(vrng, 1, 3, size)}
        elif family == "v":
            params = {"n": k % 4}
        elif family == "vii":
            m, n, a, b = VII_DATA[k % len(VII_DATA)]
            params = {"m": m, "n": n, "a": a, "b": b, "k1": k % 2}
            sparams = {"u1": rand_jet1(vrng, 1, 3, size, const=1)}

        def run():
            nf = catalog.NormalFormID("mt", family, dict(params), dict(sparams))
            x, y = catalog.make_pair(nf, EXACT, degree)
            return x, y, germ.lie_bracket(x, y)

        def check(out):
            x, y, br = out
            ok = br.is_zero() and br.valid_through >= degree - 2
            return ok, germ_text(x) + germ_text(y)

        job = Job("pair", run, check, degree=degree, key=("pair", family, repr(params),
                                                          repr(sparams), degree))
        job.bits = coeff_bits([v for v in params.values() if isinstance(v, GR)]
                              + [c for s in sparams.values() for c in s.coeffs.values()])
        return job

    def job_classify(self, srng, vrng, rnd) -> Job:
        degree, size = self.strata(rnd)
        row = TABLE_KINDS[rnd % len(TABLE_KINDS)]
        k = rnd // len(TABLE_KINDS)
        params: Dict[str, object] = {}
        sparams: Dict[str, object] = {}
        unit = axis_unit(srng, vrng, min(size, 1))
        if row in ("1a", "1b"):
            params = {"a": 1 + k % 3}
        elif row == "1c":
            params = {"a": 1 + k % 2}
            sparams = {"g1": rand_jet1(vrng, 1, 3, size), "g2": rand_jet1(vrng, 1, 3, size)}
        elif row == "2":
            params, sparams = {"n": k % 4}, {"f": unit}
        elif row == "3":
            sparams = {"f": unit}
        elif row in ("4", "5", "6", "7", "8", "9"):
            # the germ f * integral^a * V must fit under the truncation degree,
            # or truncation erases the divisor the classifier reads
            top = (degree - 5) // ELLIPTIC_INTEGRAL_DEGREE[row]
            params, sparams = {"a": k % (min(2, top) + 1)}, {"f": unit}
        elif row == "10":
            params = {"m": 1 + k % 2, "n": 1 + (k // 2) % 2, "p": 1,
                      "lambda": GR(rand_rat(vrng, size))}
        elif row == "11":
            params, sparams = {"n": (-2, -1, 1, 2, 3)[k % 5]}, {"f": unit}
        elif row == "12":
            m, n, a, b = ROW12_DATA[k % len(ROW12_DATA)]
            params, sparams = {"m": m, "n": n, "a": a, "b": b}, {"f": unit}
        elif row == "13":
            params, sparams = {"n": k % 3}, {"f": unit}

        def run():
            nf = catalog.NormalFormID("table", row, dict(params), dict(sparams))
            x = catalog.make_normal_form(nf, EXACT, degree)
            cands, reasons = catalog.classify_with_reasons(x)
            return x, cands, report.germ_to_json(x)

        def check(out):
            x, cands, js = out
            ok = row in [c.name for c in cands]
            ok &= json_terms_equal(js["dx"], x.a.coeffs, x.valid_through)
            names = sorted(c.label() for c in cands)
            return ok, germ_text(x) + repr(names)

        job = Job("classify", run, check, degree=degree,
                  key=("classify", row, repr(params), repr(sparams), degree))
        job.bits = coeff_bits(list(unit.coeffs.values()) if "f" in sparams else [])
        return job

    def job_blowup(self, srng, vrng, rnd) -> Job:
        """Linear part with eigen-directions (1, t1), (1, t2) plus cubic terms."""
        _, size = self.strata(rnd)
        lam1, lam2 = vrng.sample((-3, -2, -1, 1, 2, 3), 2)
        t1, t2 = (GR(Fraction(p, q)) for p, q in
                  vrng.sample([(p, q) for p in range(-4, 5) for q in (1, 2, 3)
                              if math.gcd(p, q) == 1], 2))
        # M = P diag(lam1, lam2) P^-1 with P = [[1, 1], [t1, t2]]
        det = t2 - t1
        m00 = (GR(lam1) * t2 - GR(lam2) * t1) / det
        m01 = GR(lam2 - lam1) / det
        m10 = (GR(lam1) - GR(lam2)) * t1 * t2 / det
        m11 = (GR(lam2) * t2 - GR(lam1) * t1) / det
        a = rand_poly(srng, vrng, 2, 3, 0.5, size)
        b = rand_poly(srng, vrng, 2, 3, 0.5, size)
        a.update({(1, 0): m00, (0, 1): m01})
        b.update({(1, 0): m10, (0, 1): m11})
        expected = {t1: {GR(lam1), GR(lam2 - lam1)}, t2: {GR(lam2), GR(lam1 - lam2)}}

        def run():
            x = germ.VectorFieldGerm(series.Jet2(EXACT, dict(a), INF),
                                     series.Jet2(EXACT, dict(b), INF))
            res = blowup.blowup_vf(x, 0)
            return res, blowup.divisor_singularities(res)

        def check(out):
            res, sings = out
            got = {s.point: set(s.linear.eigenvalues or ()) for s in sings}
            ok = not res.dicritical and res.divisor_order == 0 and got == expected
            return ok, germ_text(res.transformed) + repr(sorted(map(str, got)))

        job = Job("blowup", run, check, degree=3,
                  density=(len(a) + len(b)) / (2 * _tri(3, 1)),
                  bits=coeff_bits(list(a.values()) + list(b.values())))
        job.key = ("blowup", field_text(a, b))
        return job

    def job_hirzebruch(self, srng, vrng, rnd) -> Job:
        n = rnd % 4
        cases = []
        for _ in range(12):
            pt = hirzebruch.FnPoint.make(n, srng.randint(0, 1),
                                         rand_gr(vrng, 1), rand_gr(vrng, 1))
            cases.append((pt, rand_gr(vrng, 1), rand_gr(vrng, 1)))

        def run():
            out = []
            for pt, t, s in cases:
                flowed = hirzebruch.phi_flow(n, t, pt)
                out.append((hirzebruch.phi_flow(n, t, hirzebruch.phi_flow(n, s, pt)),
                            hirzebruch.phi_flow(n, t + s, pt),
                            hirzebruch.psi_flow(n, s, flowed),
                            hirzebruch.phi_flow(n, t, hirzebruch.psi_flow(n, s, pt))))
            return out

        def check(out):
            ok = True
            text = []
            for a, b, c, d in out:
                ok &= hirzebruch.points_equal(a, b) and hirzebruch.points_equal(c, d)
                text.append(f"{a.chart}:{a.base}:{a.fiber_num}:{a.fiber_den}")
            return ok, ";".join(text)

        job = Job("hirzebruch", run, check, degree=n + 1)
        job.bits = coeff_bits([v for pt, t, s in cases for v in (pt.base, pt.fiber_num, t, s)])
        job.key = ("hirzebruch", repr([(p.chart, str(p.base), str(p.fiber_num), str(t), str(s))
                                       for p, t, s in cases]))
        return job


# ---------------------------------------------------------------------------
# exact-normalize
# ---------------------------------------------------------------------------

DEGREES_NORM = tuple(range(6, 13))
SIZES_NORM = (0, 1, 0)            # period coprime to 7
UNIMODULAR = ((1, 1, 1, 0), (2, 1, 1, 1), (3, 2, 1, 2), (1, 2, 1, 0), (2, 3, 2, 1))


class ExactNormalize(Workload):
    """Dense series: linearization round trips, Siegel straightening, reciprocals."""

    name = "exact-normalize"
    slots = 175         # 35 rounds: each linearize kind meets every (degree, case) once
    kinds = ("linearize", "siegel", "reciprocal", "linearize-resonant", "siegel")
    required = ("series.jet_mul.calls", "series.jet_add.calls",
                "series.jet_compose1.calls", "series.jet_compose2.calls",
                "series.jet_reciprocal.calls", "series.series_ode_solve.calls",
                "germ.pullback.calls", "germ.inverse.calls", "germ.compose.calls",
                "onedim.siegel_regular_test.calls", "mr.linearize.calls",
                "scalars.gr_ops", "series.series_ode_solve.compose2_per_call",
                "germ.inverse.compose2_per_call")

    def strata(self, rnd: int) -> Tuple[int, int]:
        return DEGREES_NORM[rnd % len(DEGREES_NORM)], SIZES_NORM[rnd % len(SIZES_NORM)]

    def job_linearize(self, srng, vrng, rnd, resonant=False) -> Job:
        """diag(m, -n) + psi(x^n y^m)/(x^amu y^bmu) (x^bmu, -y^amu), am - bn = +-1,
        with psi = c x^n y^m for a random c, plus one resonant term if asked."""
        # small coefficients only: with 8-bit ones the cost of the heavy
        # high-degree cases, and so job_p90_ms, swings with the seed
        degree, _ = self.strata(rnd)
        size = 0
        x = series.Jet2.variable("x", EXACT, INF)
        y = series.Jet2.variable("y", EXACT, INF)
        m, n, amu, bmu = UNIMODULAR[rnd % len(UNIMODULAR)]
        u2 = series.Jet1(EXACT, {1: rand_gr(vrng, size, 0.0)}, INF)
        w = series.Jet2.monomial(n, m, 1, EXACT, INF).truncate(degree + amu + bmu)
        psi = series.jet_compose1(u2.truncate(degree + amu + bmu), w)
        psi = psi.divide_monomial(amu, bmu)
        a = x.scale(m) + series.jet_mul(psi, x.scale(bmu))
        b = y.scale(-n) - series.jet_mul(psi, y.scale(amu))
        if resonant:
            g = math.gcd(m, n)
            a = a + series.Jet2.monomial(1 + n // g, m // g, rand_gr(vrng, size), EXACT, INF)
        field_ = germ.VectorFieldGerm(a, b).truncate(degree)

        def run():
            res = mr.linearize(field_, degree)
            back = germ.pullback(res.linearized, res.change.inverse(degree))
            return res, back

        def check(out):
            res, back = out
            lin = res.linearized.truncate(degree - 1)
            ok = back.truncate(degree - 1).equals(field_.truncate(degree - 1))
            # only the linear part and resonant monomials may survive below degree
            ok &= lin.a.coeff(1, 0) == GR(m) and lin.b.coeff(0, 1) == GR(-n)
            for (i, j) in lin.a.coeffs:
                ok &= (i, j) == (1, 0) or i * m - j * n == m
            for (i, j) in lin.b.coeffs:
                ok &= (i, j) == (0, 1) or i * m - j * n == -n
            if res.obstruction is not None:
                i, j, comp = res.obstruction
                ok &= resonant and i * m - j * n == (m if comp == "x" else -n)
            return ok, germ_text(res.linearized) + repr(res.obstruction) + germ_text(back)

        job = Job("linearize-resonant" if resonant else "linearize", run, check, degree=degree)
        job.density = (len(field_.a.coeffs) + len(field_.b.coeffs)) / (2 * _tri(degree, 1))
        job.bits = coeff_bits(list(field_.a.coeffs.values()) + list(field_.b.coeffs.values()))
        job.key = ("linearize", germ_text(field_))
        return job

    def job_linearize_resonant(self, srng, vrng, rnd) -> Job:
        return self.job_linearize(srng, vrng, rnd, resonant=True)

    def job_siegel(self, srng, vrng, rnd) -> Job:
        degree, size = self.strata(rnd)
        n = (1, 2, 3, 1, 2)[rnd % 5]
        g1 = rand_jet1(vrng, 1, 3, size, const=1)
        g2 = rand_jet1(vrng, 0, 3, size)
        # successive jobs cycle through the four cases of the criterion g1'(0) = g2(0) = 0
        if rnd % 4 in (1, 3):
            g1 = series.Jet1(EXACT, {k: v for k, v in g1.coeffs.items() if k != 1}, INF)
        if rnd % 4 in (2, 3):
            g2 = series.Jet1(EXACT, {k: v for k, v in g2.coeffs.items() if k != 0}, INF)
        expected = g1.coeffs.get(1) is None and g2.coeffs.get(0) is None

        def run():
            return onedim.siegel_regular_test(g1, g2, n, degree)

        def check(verdict):
            ok = (verdict.status == onedim.PASS) == expected
            ok &= (verdict.status == onedim.PASS) == onedim.closed_criterion(g1, g2)
            if verdict.status == onedim.FAIL:
                ok &= verdict.witness is not None
            return ok, f"{verdict.status}:{verdict.reason}:{verdict.witness}"

        coeffs = list(g1.coeffs.values()) + list(g2.coeffs.values())
        return Job("siegel", run, check, degree=degree, density=len(coeffs) / 8,
                   bits=coeff_bits(coeffs), key=("siegel", repr(g1), repr(g2), n, degree))

    def job_reciprocal(self, srng, vrng, rnd) -> Job:
        degree, size = self.strata(rnd)
        terms = rand_poly(srng, vrng, 1, degree, 0.8, min(size, 1))
        terms[(0, 0)] = rand_gr(vrng, size)
        unit = series.Jet2(EXACT, terms, degree)

        def run():
            return series.jet_reciprocal(unit)

        def check(inv):
            prod = series.jet_mul(unit, inv)
            ok = prod.valid_through == degree
            ok &= (prod - series.Jet2.const(1, EXACT, INF)).is_zero()
            return ok, repr(report.jet2_to_json(inv))

        return Job("reciprocal", run, check, degree=degree,
                   density=len(terms) / _tri(degree, 0), bits=coeff_bits(terms.values()),
                   key=("reciprocal", repr(report.jet2_to_json(unit))))


# ---------------------------------------------------------------------------
# float-flows
# ---------------------------------------------------------------------------

def _float_fields():
    """The few fields the float jobs reuse, built once at set-up."""
    x = series.Jet2.variable("x", EXACT, INF)
    y = series.Jet2.variable("y", EXACT, INF)
    xy = series.jet_mul(x, y)
    elliptic = catalog.make_normal_form(catalog.NormalFormID("table", "4", {"a": 0}), EXACT, 6)
    return {
        "elliptic": elliptic.to_float(),
        "siegel": germ.VectorFieldGerm(series.jet_mul(xy, x), -series.jet_mul(xy, y)).to_float(),
        "zero": germ.VectorFieldGerm(series.jet_mul(x, x), -xy).to_float(),
        "mr0": mr.mr_formal_vf(mr.MRFormalForm(1, 1, 1, 0.0), FLOAT, 12),
        "mr3": mr.mr_formal_vf(mr.MRFormalForm(1, 1, 1, 0.3), FLOAT, 12),
    }


def _polar(rng, lo: float, hi: float) -> complex:
    return cmath.rect(rng.uniform(lo, hi), rng.uniform(-math.pi, math.pi))


FLOAT_PAIRS = (("ii", {}), ("iii", {"n": 2}), ("iii", {"n": 1, "c1": 1, "c2": 2}),
               ("v", {"n": 1}), ("v", {"n": 2}), ("vi", {}))
MR_FORMS = ((1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2))
MR_AMPS = (0.25, 0.5j, -0.4 + 0.3j)


class FloatFlows(Workload):
    """Few fields, many leaves and seeds: complex-time periods and holonomy."""

    name = "float-flows"
    slots = 280
    kinds = ("elliptic", "siegel", "zero", "homothety", "holonomy", "mr-period",
             "float-pair")
    required = ("series.jet_mul.calls", "series.jet_add.calls",
                "germ.lie_bracket.calls", "catalog.make.calls",
                "mr.mr_leaf_period.calls", "mr.mr_formal_vf.calls",
                "numflow.leaf_period.calls", "numflow.track_leaf.calls",
                "numflow.integrate_flow_1d.calls",
                "numflow.homothety_period_ratio.calls", "series.jet_mul.term_pairs")

    def __init__(self, seed: int):
        super().__init__(seed)
        self.fields = _float_fields()

    def _job(self, kind, field_name, run, check) -> Job:
        fld = self.fields[field_name]
        degree = max(fld.a.degree_bound(), fld.b.degree_bound())
        return Job(kind, run, check, degree=degree,
                   density=(len(fld.a.coeffs) + len(fld.b.coeffs)) / (2 * _tri(degree, 0)),
                   key=("field", field_name))

    def job_elliptic(self, srng, vrng, rnd) -> Job:
        fld = self.fields["elliptic"]
        c = _polar(vrng, 0.015, 0.06)

        def run():
            def period(tol, max_step):
                spec = numflow.replace_controls(numflow.elliptic_loop(c, tol=tol),
                                                tol=tol, max_step=max_step)
                return numflow.leaf_period(fld, spec)[0]
            return numflow.richardson_check(period, 1e-10, 0.02)

        def check(out):
            p1, p2, gap = out
            return abs(p2) > 0 and gap / abs(p2) < 1e-6, repr(p2)

        return self._job("elliptic", "elliptic", run, check)

    def job_siegel(self, srng, vrng, rnd) -> Job:
        fld = self.fields["siegel"]
        x0, c = _polar(vrng, 0.3, 0.7), _polar(vrng, 0.01, 0.1)

        def run():
            return numflow.leaf_period(fld, numflow.siegel_loop(x0, c, tol=1e-12))[0]

        def check(p):
            expected = 2j * math.pi / c
            return abs(p - expected) / abs(expected) < 1e-6, repr(p)

        return self._job("siegel", "siegel", run, check)

    def job_zero(self, srng, vrng, rnd) -> Job:
        fld = self.fields["zero"]
        x0, c = _polar(vrng, 0.3, 0.7), _polar(vrng, 0.01, 0.1)

        def run():
            return numflow.leaf_period(fld, numflow.siegel_loop(x0, c, tol=1e-12))[0]

        def check(p):
            return abs(p) < 1e-8, repr(p)

        return self._job("zero", "zero", run, check)

    def job_homothety(self, srng, vrng, rnd) -> Job:
        fld = self.fields["elliptic"]
        c = _polar(vrng, 0.015, 0.06)
        lam = _polar(vrng, 0.3, 0.9)

        def run():
            return numflow.homothety_period_ratio(fld, numflow.elliptic_loop(c, tol=1e-12), lam)

        def check(rep):
            return rep.defect < 1e-6, repr(rep.ratio)

        return self._job("homothety", "elliptic", run, check)

    def job_holonomy(self, srng, vrng, rnd) -> Job:
        lam = (0.0, 0.3)[rnd % 2]
        name = ("mr0", "mr3")[rnd % 2]
        fld = self.fields[name]
        z0 = _polar(vrng, 0.02, 0.05)

        def run():
            spec = numflow.LeafLoopSpec(base_var="x", center=0j, radius=1.0, winding=1,
                                        seed=z0, tol=1e-12, max_step=0.02, polydisc=8.0)
            tracked = numflow.track_leaf(fld, spec)
            model = mr.holonomy_model(1, 1, lam, 12)
            return tracked, numflow.integrate_flow_1d(
                model, z0, numflow.TimePath.segment(0, 1, tol=1e-12))

        def check(out):
            tracked, time_one = out
            return abs(tracked - time_one) < 1e-5, repr(tracked)

        return self._job("holonomy", name, run, check)

    def job_mr_period(self, srng, vrng, rnd) -> Job:
        """Unit f = 1 + a w^j + b x (or b y), w = x^n y^m.

        On the leaf w = c is constant and x runs once round a circle, so the
        period integral averages 1 / (1 + a c^j + b x) over that circle:
        2 pi i / (c^k (1 + a c^j)) while |b x| < |1 + a c^j|.
        """
        m, n = srng.choice(((1, 1), (2, 1), (1, 2)))
        k, j = srng.randint(1, 2), srng.randint(1, 2)
        amp = srng.choice(MR_AMPS)
        seed = (_polar(vrng, 0.2, 0.6), _polar(vrng, 0.2, 0.6))
        tail = srng.choice(((1, 0), (0, 1)))
        unit = series.Jet2(FLOAT, {(0, 0): 1 + 0j, (n * j, m * j): amp, tail: 0.4}, INF)

        def run():
            return mr.mr_leaf_period(k, unit, m, n, seed)

        def check(p):
            c = seed[0] ** n * seed[1] ** m
            expected = 2j * math.pi / (c ** k * (1 + amp * c ** j))
            return abs(p - expected) / abs(expected) < 1e-9, repr(p)

        return Job("mr-period", run, check, degree=(n + m) * j,
                   density=3 / _tri((n + m) * j, 0), key=("mr-unit", m, n, j, amp, tail))

    def job_float_pair(self, srng, vrng, rnd) -> Job:
        family, params = FLOAT_PAIRS[rnd % len(FLOAT_PAIRS)]
        degree = 8 + rnd % 5
        m, n, p = MR_FORMS[rnd % len(MR_FORMS)]
        lam = _polar(vrng, 0.1, 1.0)

        def run():
            nf = catalog.NormalFormID("mt", family, dict(params))
            x, y = catalog.make_pair(nf, FLOAT, degree)
            vf = mr.mr_formal_vf(mr.MRFormalForm(m, n, p, lam), FLOAT, degree)
            return germ.lie_bracket(x, y), vf

        def check(out):
            br, vf = out
            ok = br.is_zero(1e-12) and br.valid_through >= degree - 2
            # closed form: m x (1 + lam w^p) dx - n y (1 + (lam - 1) w^p) dy, w = x^n y^m
            want_a = {(1, 0): m, (1 + n * p, m * p): m * lam}
            want_b = {(0, 1): -n, (n * p, 1 + m * p): -n * (lam - 1)}
            for jet, want in ((vf.a, want_a), (vf.b, want_b)):
                want = {key: v for key, v in want.items() if key[0] + key[1] <= degree}
                ok &= set(jet.coeffs) == set(want)
                ok &= all(abs(jet.coeffs[key] - v) < 1e-12 for key, v in want.items())
            return ok, germ_text(br) + germ_text(vf)

        return Job("float-pair", run, check, degree=degree,
                   key=("float-pair", family, repr(params), degree, (m, n, p)))


WORKLOADS = {w.name: w for w in (ExactAlgebra, ExactNormalize, FloatFlows)}
