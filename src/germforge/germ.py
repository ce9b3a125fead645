"""Vector field germs on (C^2, 0): bracket, decomposition, coordinate changes.

A germ is a pair of Jet2 components A dx + B dy with shared precision and
scalar mode.  The exact Lie bracket is one pass over the term pairs of the
two germs (series.exact_bracket), which adds the structure constants of
monomial fields, [x^a y^b d_x, x^c y^d d_x] = (c - a) x^(a+c-1) y^(b+d) d_x
and their mixed twins, with no partial-derivative jets; it is valid through
the least product bound of the eight (component, partial) products of
(X.C - Y.A, X.D - Y.B).  The float bracket keeps those products as
series.jet_dot sums, whose order of roundings its results are pinned to.

Meromorphic quotients live in RationalFn (formal num/den with a
divisibility-based holomorphy test).  Coordinate changes come in two
kinds: series (tangent to identity up to an invertible linear part) and
rational charts (Laurent-monomial maps such as (x,y) = (1/u, v/u)).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import scalars, series
from .errors import (
    BadParams,
    DegenerateFrame,
    ModeMismatch,
    NonInvertibleChange,
    PoleAtOrigin,
    PrecisionExhausted,
    ZeroDenominator,
)
from .scalars import EXACT, FLOAT, GaussianRational, Scalar
from .series import (INF, Jet2, _rekeyed, _zderive, exact_bracket, exact_divide, jet_compose2,
                     jet_derive, jet_dot, jet_mul)


class VectorFieldGerm:
    """A dx + B dy with shared valid_through and mode."""

    __slots__ = ("a", "b")

    def __init__(self, a: Jet2, b: Jet2):
        scalars.check_same_mode(a.mode, b.mode)
        valid = min(a.valid_through, b.valid_through)
        self.a = a.truncate(valid)
        self.b = b.truncate(valid)

    @property
    def mode(self) -> str:
        return self.a.mode

    @property
    def valid_through(self):
        return self.a.valid_through

    def order(self):
        return min(self.a.order(), self.b.order())

    def is_zero(self, tol: float = 0.0) -> bool:
        return self.a.is_zero(tol) and self.b.is_zero(tol)

    def equals(self, other: "VectorFieldGerm", tol: float = 0.0) -> bool:
        return self.a.equals(other.a, tol) and self.b.equals(other.b, tol)

    def __add__(self, other: "VectorFieldGerm") -> "VectorFieldGerm":
        return VectorFieldGerm(self.a + other.a, self.b + other.b)

    def __neg__(self) -> "VectorFieldGerm":
        return VectorFieldGerm(-self.a, -self.b)

    def scale(self, value) -> "VectorFieldGerm":
        return VectorFieldGerm(self.a.scale(value), self.b.scale(value))

    def truncate(self, valid) -> "VectorFieldGerm":
        return VectorFieldGerm(self.a.truncate(valid), self.b.truncate(valid))

    def swap_axes(self) -> "VectorFieldGerm":
        """The germ in coordinates (x, y) -> (y, x)."""
        sw = lambda jet: _rekeyed(jet, lambda k: (k[1], k[0]), jet.valid_through)
        return VectorFieldGerm(sw(self.b), sw(self.a))

    def to_float(self) -> "VectorFieldGerm":
        return VectorFieldGerm(self.a.to_float(), self.b.to_float())

    def __repr__(self):
        return f"VectorFieldGerm(A={self.a!r}, B={self.b!r})"


class RationalFn:
    """Formal quotient num/den of jets, den != 0."""

    __slots__ = ("num", "den")

    def __init__(self, num: Jet2, den: Jet2):
        scalars.check_same_mode(num.mode, den.mode)
        if den.is_zero():
            raise ZeroDenominator("RationalFn with zero denominator")
        self.num = num
        self.den = den

    def is_zero(self, tol: float = 0.0) -> bool:
        return self.num.is_zero(tol)

    def __repr__(self):
        return f"RationalFn({self.num!r} / {self.den!r})"


# ---------------------------------------------------------------------------
# Lie bracket and directional derivatives
# ---------------------------------------------------------------------------

def derive_along(x: VectorFieldGerm, f):
    """Directional derivative A df/dx + B df/dy; zero certifies a first integral.

    Accepts a Jet2 (returns Jet2) or a RationalFn (returns RationalFn via the
    quotient rule, so poles are handled formally).  For a Jet2, one
    series.jet_dot sum: valid through the least series._mul_valid of its
    two products, each partial known one degree less than f and of the
    order of its terms.  f known through degree 0 only raises
    PrecisionExhausted.
    """
    if isinstance(f, RationalFn):
        num = f.num
        den = f.den
        d_num = derive_along(x, num)
        d_den = derive_along(x, den)
        return RationalFn(jet_dot([(1, d_num, den), (-1, num, d_den)]), jet_mul(den, den))
    fx, fy = _zderive(f, "x"), _zderive(f, "y")
    scalars.check_same_mode(x.mode, f.mode)
    return jet_dot([(1, x.a, fx), (1, x.b, fy)])


def lie_bracket(x: VectorFieldGerm, y: VectorFieldGerm) -> VectorFieldGerm:
    """[X, Y] = (X.C - Y.A) dx + (X.D - Y.B) dy.

    Exact germs take series.exact_bracket: one pass over the term pairs of
    (A, B) x (C, D) that adds the structure constants of monomial fields,
    over one lcm and with no partial-derivative jets.  Float germs keep one
    series.jet_dot sum per component, such as
    A dC/dx + B dC/dy - C dA/dx - D dA/dy, since its order of products and
    sums is what float results are pinned to, bit for bit and in term order.
    Both are valid through the least series._mul_valid of the eight
    (component, partial) products, each partial known one degree less than
    its component and of the order of its terms, and the germ is cut to the
    lesser of the two components.  A germ known through degree 0 only raises
    PrecisionExhausted.
    """
    if scalars.check_same_mode(x.mode, y.mode) == EXACT:
        return VectorFieldGerm(*exact_bracket(x.a, x.b, y.a, y.b))
    ca_x, ca_y = _zderive(y.a, "x"), _zderive(y.a, "y")
    aa_x, aa_y = _zderive(x.a, "x"), _zderive(x.a, "y")
    cb_x, cb_y = _zderive(y.b, "x"), _zderive(y.b, "y")
    ab_x, ab_y = _zderive(x.b, "x"), _zderive(x.b, "y")
    return VectorFieldGerm(
        jet_dot([(1, x.a, ca_x), (1, x.b, ca_y), (-1, y.a, aa_x), (-1, y.b, aa_y)]),
        jet_dot([(1, x.a, cb_x), (1, x.b, cb_y), (-1, y.a, ab_x), (-1, y.b, ab_y)]),
    )


def decompose(z: VectorFieldGerm, x: VectorFieldGerm, y: VectorFieldGerm
              ) -> Tuple[RationalFn, RationalFn]:
    """Meromorphic f, g with Z = f X + g Y against a generically independent frame.

    f = (PD - QC)/(AD - BC), g = (QA - PB)/(AD - BC): each numerator and
    the determinant is one series.jet_dot sum, valid through the least
    series._mul_valid of its two products.  A float determinant counts as
    zero when it is no more than rounding (_rounding_residue).
    """
    a, b = x.a, x.b
    c, d = y.a, y.b
    p, q = z.a, z.b
    det = jet_dot([(1, a, d), (-1, b, c)])
    if det.is_zero() or (det.mode == FLOAT and _rounding_residue(det, a, b, c, d)):
        raise DegenerateFrame("AD - BC vanishes at available precision")
    f = RationalFn(jet_dot([(1, p, d), (-1, q, c)]), det)
    g = RationalFn(jet_dot([(1, q, a), (-1, p, b)]), det)
    return f, g


def _rounding_residue(det: Jet2, a: Jet2, b: Jet2, c: Jet2, d: Jet2) -> bool:
    """Whether each coefficient of the float det = AD - BC has a modulus of
    at most 64 ulps (64 * 2^-52) of the same coefficient of |A||D| + |B||C|,
    absolute values taken per coefficient: what rounding leaves of a
    determinant that cancels exactly."""
    def mag(jet):
        return Jet2(FLOAT, {k: abs(v) for k, v in jet.re.items()}, jet.valid_through)
    bound = jet_dot([(1, mag(a), mag(d)), (1, mag(b), mag(c))]).re
    return all(abs(v) <= 64 * 2.0 ** -52 * bound.get(k, 0.0) for k, v in det.re.items())


# ---------------------------------------------------------------------------
# coordinate changes
# ---------------------------------------------------------------------------

@dataclass
class CoordinateChange:
    """(u, v) -> (x, y) map, either a series change or a Laurent-monomial chart.

    series kind: comp1/comp2 are Jet2 with zero constant term; invertible
    means the Jacobian at the origin is nonsingular.

    rational-chart kind: comp1/comp2 are (i, j, c) triples for the Laurent
    monomials x = c u^i v^j and y = c' u^i' v^j', and inverse1/inverse2 the
    triples of the inverse relations u = g x^p y^q and v = g' x^p' y^q'.
    Exponents may be negative; constants are anything
    GaussianRational.from_value accepts.
    """

    kind: str
    comp1: object
    comp2: object
    inverse1: object = None
    inverse2: object = None

    @classmethod
    def from_series(cls, comp1: Jet2, comp2: Jet2) -> "CoordinateChange":
        if series._has_constant(comp1) or series._has_constant(comp2):
            raise NonInvertibleChange("series change must fix the origin")
        return cls("series", comp1, comp2)

    @classmethod
    def monomial_chart(cls, forward: Sequence[Tuple[int, int, object]],
                       inverse: Sequence[Tuple[int, int, object]]) -> "CoordinateChange":
        """Chart maps like (x,y) = (1/u, v/u), given as exponent/constant triples.

        forward holds (i, j, c) for x = c u^i v^j and for y; inverse holds
        the triples of u and v as monomials in (x, y).  They are stored as
        given; a zero constant makes the map singular.
        """
        if any(GaussianRational.from_value(c).is_zero() for _, _, c in (*forward, *inverse)):
            raise NonInvertibleChange("monomial chart constants must be nonzero")
        return cls("rational-chart", forward[0], forward[1], inverse[0], inverse[1])

    # -- series-kind utilities ------------------------------------------
    def jacobian_at_origin(self):
        """The degree-1 coefficients, zero for a component known only through degree 0."""
        def c(jet, i, j):
            return jet.coeff(i, j) if jet.valid_through >= 1 else scalars.zero(jet.mode)
        return c(self.comp1, 1, 0), c(self.comp1, 0, 1), c(self.comp2, 1, 0), c(self.comp2, 0, 1)

    def invertible(self) -> bool:
        if self.kind != "series":
            return True
        j11, j12, j21, j22 = self.jacobian_at_origin()
        det = j11 * j22 - j12 * j21
        return bool(det)

    def compose(self, other, state: Optional[series.RelaxedComposition] = None,
                n: int = 0, k: int = 0):
        """self o other: apply *other* first (both series kind).

        A graded solve hands over its *state* and *other* as the pair of
        parts of degree n of its inner pair, and gets back the pair of
        parts of degree k of the two components (see jet_compose2), which
        are its slots 0 and 1."""
        if state is not None:
            p, q = other
            return (jet_compose2(self.comp1, p, q, state, 0, n, k),
                    jet_compose2(self.comp2, p, q, state, 1, n, k))
        if self.kind != "series" or other.kind != "series":
            raise BadParams("compose is defined for series changes")
        c1 = jet_compose2(self.comp1, other.comp1, other.comp2)
        c2 = jet_compose2(self.comp2, other.comp1, other.comp2)
        return CoordinateChange.from_series(c1, c2)

    def inverse(self, degree: Optional[int] = None) -> "CoordinateChange":
        """Compositional inverse of a series change, by graded Picard passes.

        With phi = L + N, L the linear part, the inverse psi solves
        psi = L^-1 id - M(psi) for M = L^-1 N, formed once per call.  M has
        no terms below degree 2, so the parts of psi below degree d give
        the part of degree d of M(psi): pass d = 2 .. min(degree, valid)
        composes only that part.  psi is kept as its homogeneous parts, in
        both modes: pass d hands the parts of degree d - 1 to one
        series.RelaxedComposition, the two components of -M being its
        slots, and takes back the parts of degree d of -M(psi), which are
        those of psi; one Jet2 per component is built at the end.  The
        result is valid through min(degree, valid), valid being that of phi.
        *degree* defaults to valid, or twice the degree of a polynomial
        change; it is capped at series.MAX_DEGREE, and an INF degree means
        series.DEFAULT_DEGREE.
        """
        if self.kind != "series":
            return CoordinateChange("rational-chart", self.inverse1, self.inverse2,
                                    self.comp1, self.comp2)
        if not self.invertible():
            raise NonInvertibleChange("Jacobian at 0 is singular")
        mode = self.comp1.mode
        valid = min(self.comp1.valid_through, self.comp2.valid_through)
        if degree is None:
            degree = valid if valid != INF else max(
                self.comp1.degree_bound(), self.comp2.degree_bound(), 1) * 2
        degree = int(min(degree, series.MAX_DEGREE)) if degree != INF else series.DEFAULT_DEGREE
        top = min(degree, valid)
        j11, j12, j21, j22 = self.jacobian_at_origin()
        det = j11 * j22 - j12 * j21
        i11, i12, i21, i22 = j22 / det, -j12 / det, -j21 / det, j11 / det
        x = Jet2.variable("x", mode, INF)
        y = Jet2.variable("y", mode, INF)
        lin1 = x.scale(i11) + y.scale(i12)
        lin2 = x.scale(i21) + y.scale(i22)
        n1 = (self.comp1 - x.scale(j11) - y.scale(j12)).truncate(top)
        n2 = (self.comp2 - x.scale(j21) - y.scale(j22)).truncate(top)
        m1 = n1.scale(i11) + n2.scale(i12)
        m2 = n1.scale(i21) + n2.scale(i22)
        state, minus = series.RelaxedComposition(), (-m1, -m2)
        parts = (series._split(lin1, 1), series._split(lin2, 1))
        for d in range(2, top + 1):
            for c in (0, 1):        # the part psi_d is -M(psi)_d
                parts[c].append(jet_compose2(minus[c], parts[0][d - 1], parts[1][d - 1], state,
                                             c, d - 1, d))
        cut = max(top + 1, 0)
        return CoordinateChange.from_series(*(series._from_parts(mode, c[:cut], top)
                                              for c in parts))


def pullback(x: VectorFieldGerm, change: CoordinateChange,
             clear: Optional[Tuple[int, int]] = None):
    """Transform a germ through a coordinate change.

    series kind: solves Dc(result) = X o c, requiring an invertible Jacobian.

    rational-chart kind: differentiates the inverse chart relations along X
    term by term on the exact coefficients of A and B.  The result must be
    holomorphic after multiplying by the declared pole-clearing monomial
    u^clear[0] v^clear[1]; otherwise PoleAtOrigin is raised carrying the
    pole exponents.
    """
    if change.kind == "series":
        if not change.invertible():
            raise NonInvertibleChange("pullback through a singular series change")
        c1, c2 = change.comp1, change.comp2
        a_c = jet_compose2(x.a, c1, c2)
        b_c = jet_compose2(x.b, c1, c2)
        j11 = jet_derive(c1, "x")
        j12 = jet_derive(c1, "y")
        j21 = jet_derive(c2, "x")
        j22 = jet_derive(c2, "y")
        det = jet_mul(j11, j22) - jet_mul(j12, j21)
        det_inv = series.jet_reciprocal(det)
        r1 = jet_mul(det_inv, jet_mul(j22, a_c) - jet_mul(j12, b_c))
        r2 = jet_mul(det_inv, jet_mul(j11, b_c) - jet_mul(j21, a_c))
        return VectorFieldGerm(r1, r2)

    # rational chart: u_dot = A dsigma/dx + B dsigma/dy for each inverse
    # relation sigma = g x^p y^q, i.e. g p x^(p-1) y^q A + g q x^p y^(q-1) B,
    # with each x^i y^j rewritten in (u, v) through the forward monomials
    if x.mode != EXACT:
        raise ModeMismatch("rational-chart pullback requires exact mode")
    (xi, xj, cx), (yi, yj, cy) = change.comp1, change.comp2
    cx, cy = GaussianRational.from_value(cx), GaussianRational.from_value(cy)
    du, dv = clear if clear is not None else (0, 0)
    comps = []
    for p, q, g in (change.inverse1, change.inverse2):
        out: Dict[Tuple[int, int], GaussianRational] = {}
        for jet, e, di, dj in ((x.a, p, p - 1, q), (x.b, q, p, q - 1)):
            if e == 0:
                continue
            ge = GaussianRational.from_value(g) * e
            for (i, j), v in jet.coeffs.items():
                i, j = i + di, j + dj
                key = (i * xi + j * yi + du, i * xj + j * yj + dv)
                out[key] = out.get(key, GaussianRational(0)) + ge * v * cx ** i * cy ** j
        comps.append({k: v for k, v in out.items() if not v.is_zero()})
    keys = [k for comp in comps for k in comp]
    pole = (min((i for i, _ in keys), default=0), min((j for _, j in keys), default=0))
    if min(pole) < 0:
        raise PoleAtOrigin(f"transformed germ has pole exponents {pole}; declare a clearing factor")
    valid = x.valid_through
    return VectorFieldGerm(Jet2(EXACT, comps[0], valid), Jet2(EXACT, comps[1], valid))


# ---------------------------------------------------------------------------
# divisor / primitive split and linear data
# ---------------------------------------------------------------------------

@dataclass
class DivisorFactor:
    label: str
    form: Jet2
    power: int


def monomial_content(*jets: Jet2) -> Optional[Tuple[int, int]]:
    """(i, j) of the greatest monomial x^i y^j that divides every one of
    *jets*: the least exponents of x and of y over their stored keys (a zero
    jet has none); None when every jet is zero."""
    keys = [k for jet in jets for k in jet._keys()]
    if not keys:
        return None
    return min(i for i, _ in keys), min(j for _, j in keys)


def primitive_split(x: VectorFieldGerm,
                    declared: Sequence[Tuple[str, Jet2]] = ()
                    ) -> Tuple[List[DivisorFactor], VectorFieldGerm]:
    """Extract the maximal common monomial (and declared-form) divisor.

    Factors searched: x^i, y^j, then each declared form in order (repeated
    exact division of both components).  The divisor may be trivial.  A
    declared form must vanish at the origin and not be zero (BadParams):
    a unit divides everything.
    """
    for label, form in declared:
        if form.is_zero() or series._has_constant(form):
            raise BadParams(f"declared form {label!r} must vanish at the origin and be nonzero")
    a, b = x.a, x.b
    content = monomial_content(a, b) or (0, 0)
    if content != (0, 0):
        a, b = a.divide_monomial(*content), b.divide_monomial(*content)
    factors = [DivisorFactor(label, Jet2.variable(label, x.mode, INF), power)
               for label, power in zip("xy", content) if power]

    for label, form in declared:
        power = 0
        while True:
            if a.is_zero() and b.is_zero():
                break
            sa, qa = exact_divide(a, form) if not a.is_zero() else (series.DIVISIBLE, a)
            sb, qb = exact_divide(b, form) if not b.is_zero() else (series.DIVISIBLE, b)
            if sa == series.DIVISIBLE and sb == series.DIVISIBLE:
                a, b = qa, qb
                power += 1
            else:
                break
        if power > 0:
            factors.append(DivisorFactor(label, form, power))
    return factors, VectorFieldGerm(a, b)


@dataclass
class LinearPartData:
    matrix: Tuple[Tuple[Scalar, Scalar], Tuple[Scalar, Scalar]]
    trace: Scalar
    det: Scalar
    eigenvalues: Optional[Tuple[Scalar, Scalar]]

    def eigenvalues_zero(self) -> bool:
        return not self.trace and not self.det


def linear_part(x: VectorFieldGerm) -> LinearPartData:
    """Degree-1 coefficient matrix and its eigenvalue data.

    Exact mode reports rational eigenvalues when the characteristic
    discriminant is a perfect square in Q(i); otherwise eigenvalues is None
    and the char-poly data (trace, det) still identifies the class.
    """

    def c(jet, key):
        if jet.valid_through != INF and jet.valid_through < 1:
            raise PrecisionExhausted("linear_part needs degree-1 coefficients")
        return jet.coeff(*key)

    m = (
        (c(x.a, (1, 0)), c(x.a, (0, 1))),
        (c(x.b, (1, 0)), c(x.b, (0, 1))),
    )
    tr = m[0][0] + m[1][1]
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    eig = None
    if x.mode == EXACT:
        disc = tr * tr - GaussianRational(4) * det
        root = disc.sqrt()
        if root is not None:
            half = GaussianRational(Fraction(1, 2))
            eig = ((tr + root) * half, (tr - root) * half)
    else:
        disc = tr * tr - 4 * det
        root = complex(disc) ** 0.5
        eig = ((tr + root) / 2, (tr - root) / 2)
    return LinearPartData(m, tr, det, eig)
