"""Normal-form catalog: table rows, commuting-pair families, classifier.

Construction is exact: every constructor validates its row constraints and
raises BadParams naming the violated one.  The classifier is a
necessary-conditions filter over computable invariants (order, divisor
exponents, eigenvalues, nilpotency, axis restrictions); it never excludes
the true row on catalog-generated input, and an empty candidate list means
the germ fails a necessary condition for semicompleteness.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import scalars, series
from .errors import (
    BadParams,
    ModeMismatch,
    NonzeroEigenvalue,
    NotDivisible,
)
from .germ import (
    RationalFn,
    VectorFieldGerm,
    linear_part,
    monomial_content,
    primitive_split,
)
from .onedim import FAIL, invariant_axes, onedim_check, restrict_to_axis
from .scalars import EXACT
from .series import (
    DIVISIBLE,
    INF,
    Jet1,
    Jet2,
    exact_divide,
    jet_compose1,
    jet_mul,
    jet_pow,
)

TABLE_ROWS = ("1a", "1b", "1c", "2", "3", "4", "5", "6", "7", "8", "9",
              "10", "11", "12", "13")
MT_FAMILIES = ("i", "ii", "iii", "iv", "v", "vi", "vii")


@dataclass
class NormalFormID:
    kind: str                      # "table" | "mt"
    name: str                      # row label or family numeral
    params: Dict[str, object] = field(default_factory=dict)
    series_params: Dict[str, object] = field(default_factory=dict)

    def label(self) -> str:
        if self.params:
            inner = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
            return f"{self.kind}:{self.name}[{inner}]"
        return f"{self.kind}:{self.name}"

    def __repr__(self):
        return self.label()


def parse_id(text: str) -> NormalFormID:
    """Parse identifiers like "table:2[n=1]" or "mt:vii[m=2,n=1,a=1,b=1]"."""
    text = text.strip()
    if ":" not in text:
        raise BadParams(f"malformed catalog id {text!r}")
    kind, rest = text.split(":", 1)
    kind = kind.strip().lower()
    if kind not in ("table", "mt"):
        raise BadParams(f"unknown catalog kind {kind!r}")
    params: Dict[str, object] = {}
    name = rest.strip()
    if "[" in rest:
        name, bracket = rest.split("[", 1)
        name = name.strip()
        if not bracket.endswith("]"):
            raise BadParams(f"unterminated parameter list in {text!r}")
        body = bracket[:-1].strip()
        if body:
            for item in body.split(","):
                if "=" not in item:
                    raise BadParams(f"malformed parameter {item!r}")
                key, val = item.split("=", 1)
                params[key.strip()] = _parse_param(val.strip())
    rows = TABLE_ROWS if kind == "table" else MT_FAMILIES
    if name not in rows:
        raise BadParams(f"unknown {kind} entry {name!r}")
    return NormalFormID(kind, name, params)


def _parse_param(text: str):
    try:
        value = int(text)
    except ValueError:
        try:
            value = scalars.parse_exact(text)
        except Exception:
            raise BadParams(f"cannot parse parameter value {text!r}")
    whole = _as_int(value)
    if whole is not None and abs(whole) > series.MAX_DEGREE:
        raise BadParams(f"integer parameter {value} is beyond the bound {series.MAX_DEGREE}")
    return value


def _as_int(value) -> Optional[int]:
    """The int that *value* is (an int, or a rational value with
    denominator 1), else None."""
    if isinstance(value, scalars.GaussianRational):
        value = scalars.as_rational(value)
    if isinstance(value, Fraction) and value.denominator == 1:
        return value.numerator
    return int(value) if isinstance(value, int) else None


def _int_param(params: Dict[str, object], name: str, default: int) -> int:
    """The integer parameter *name* of an id, *default* when it is absent;
    any value that is not an integer is BadParams (4/2 reads as 2)."""
    value = _as_int(params.get(name, default))
    if value is None:
        raise BadParams(f"parameter {name} must be an integer, got {params[name]}")
    return value


# ---------------------------------------------------------------------------
# polynomial builders
# ---------------------------------------------------------------------------

def _x(mode=EXACT) -> Jet2:
    return Jet2.variable("x", mode, INF)


def _y(mode=EXACT) -> Jet2:
    return Jet2.variable("y", mode, INF)


def _as_unit(f, mode) -> Jet2:
    if f is None:
        return Jet2.const(1, mode, INF)
    if isinstance(f, Jet1):
        raise BadParams("unit factor must be a 2-variable jet")
    if f.mode != mode:
        raise BadParams("unit factor has wrong scalar mode")
    if not series._has_constant(f):
        raise BadParams("unit factor f must satisfy f(0,0) != 0")
    return f


def standard_forms(mode=EXACT) -> List[Tuple[str, Jet2]]:
    """The non-monomial divisor forms appearing in the table, as a new list
    of the jets _standard_forms builds once per mode."""
    return list(_standard_forms(mode))


@functools.cache
def _standard_forms(mode) -> Tuple[Tuple[str, Jet2], ...]:
    x, y = _x(mode), _y(mode)
    return (
        ("x-y", x - y),
        ("y-x^2", y - jet_mul(x, x)),
        ("x^3+y^2", jet_mul(jet_mul(x, x), x) + jet_mul(y, y)),
    )


# ---------------------------------------------------------------------------
# table rows
# ---------------------------------------------------------------------------

@functools.cache
def _elliptic_data(mode):
    """Row -> (first integral, (A, B)) of rows 4-9, built once per mode
    and shared: jets are immutable, and no caller writes to the dict."""
    x, y = _x(mode), _y(mode)
    x_y = x - y
    y_x2 = y - jet_mul(x, x)
    return {
        "4": (jet_mul(jet_mul(x, y), x_y),
              (jet_mul(x, x - y.scale(2)), jet_mul(y, y - x.scale(2)))),
        "5": (jet_mul(jet_mul(x, y), jet_pow(x_y, 2)),
              (jet_mul(x, x - y.scale(3)), jet_mul(y, y - x.scale(3)))),
        "6": (jet_mul(jet_mul(x, jet_pow(y, 2)), jet_pow(x_y, 3)),
              (jet_mul(x, x.scale(2) - y.scale(5)), jet_mul(y, y - x.scale(4)))),
        "7": (jet_mul(jet_mul(x, x), x) + jet_mul(y, y),
              (y.scale(2), jet_mul(x, x).scale(-3))),
        "8": (jet_mul(y, y_x2),
              (y.scale(2) - jet_mul(x, x), jet_mul(x, y).scale(2))),
        "9": (jet_mul(y, jet_pow(y_x2, 2)),
              (y.scale(3) - jet_mul(x, x), jet_mul(x, y).scale(4))),
    }


def make_normal_form(nf: NormalFormID, mode=EXACT, degree: Optional[int] = None
                     ) -> VectorFieldGerm:
    """Exact germ of a table row at the requested truncation."""
    if nf.kind != "table":
        raise BadParams(f"make_normal_form expects a table id, got {nf.label()}")
    degree = degree if degree is not None else series.DEFAULT_DEGREE
    p = nf.params
    sp = nf.series_params
    x, y = _x(mode), _y(mode)
    name = nf.name

    if name in ("1a", "1b", "1c"):
        # regular horizontal foliation: X = y^a F(x, y) d/dx; the restriction
        # to each leaf {y = c} is then c^a F(x, c) d/dx, as in the
        # regular-foliation analysis (and X = y^n d/dx of the pair families)
        a = _int_param(p, "a", 1)
        if a < 0:
            raise BadParams("row 1 requires a >= 0")
        if name in ("1a", "1b") and a == 0:
            raise BadParams(f"row {name} requires a != 0 (nonzero eigenvalue otherwise)")
        ya = jet_pow(y, a)
        if name == "1a":
            f_big = Jet2.const(1, mode, INF)
        elif name == "1b":
            f_big = x
        else:
            g1 = sp.get("g1", Jet1.zero(mode))
            g2 = sp.get("g2", Jet1.zero(mode))
            for label, g in (("g1", g1), ("g2", g2)):
                if g.coeff(0):
                    raise BadParams(f"row 1c requires {label}(0) = 0")
            g1_y = jet_compose1(g1.truncate(degree), y.truncate(degree))
            g2_y = jet_compose1(g2.truncate(degree), y.truncate(degree))
            f_big = jet_mul(x, x) + jet_mul(g1_y, x) + g2_y
        germ = VectorFieldGerm(jet_mul(ya, f_big), Jet2.zero(mode, INF))
        if not linear_part(germ).eigenvalues_zero():
            raise BadParams("row 1 instance has a nonzero eigenvalue at the origin")
        return germ.truncate(degree)

    if name == "2":
        n = _int_param(p, "n", 0)
        if n < 0:
            raise BadParams("row 2 requires n >= 0")
        f = _as_unit(sp.get("f"), mode)
        v_a = jet_mul(x, x)
        v_b = -jet_mul(y, x.scale(n) - y.scale(n + 1))
        return VectorFieldGerm(jet_mul(f, v_a), jet_mul(f, v_b)).truncate(degree)

    if name == "3":
        f = _as_unit(sp.get("f"), mode)
        v_a = y - jet_mul(x, x).scale(2)
        v_b = -jet_mul(x, y).scale(2)
        return VectorFieldGerm(jet_mul(f, v_a), jet_mul(f, v_b)).truncate(degree)

    if name in ("4", "5", "6", "7", "8", "9"):
        a = _int_param(p, "a", 0)
        if a < 0:
            raise BadParams("elliptic rows require a >= 0")
        f = _as_unit(sp.get("f"), mode)
        integral, (v_a, v_b) = _elliptic_data(mode)[name]
        div = jet_pow(integral, a)
        pre = jet_mul(div, f)
        return VectorFieldGerm(jet_mul(pre, v_a), jet_mul(pre, v_b)).truncate(degree)

    if name == "10":
        m = _int_param(p, "m", 1)
        n = _int_param(p, "n", 1)
        pp = _int_param(p, "p", 1)
        lam = p.get("lambda", scalars.zero(mode))
        if m < 1 or n < 1 or pp < 1:
            raise BadParams("row 10 requires m, n, p >= 1")
        from .mr import MRFormalForm, mr_formal_vf

        inner = mr_formal_vf(MRFormalForm(m, n, pp, lam), mode, degree)
        div = jet_mul(jet_pow(x, n), jet_pow(y, m))
        return VectorFieldGerm(jet_mul(div, inner.a), jet_mul(div, inner.b)).truncate(degree)

    if name == "11":
        n = _int_param(p, "n", 1)
        if n == 0:
            raise BadParams("row 11 requires n in Z*")
        f = _as_unit(sp.get("f"), mode)
        pre = jet_mul(x, f)
        return VectorFieldGerm(jet_mul(pre, x), jet_mul(pre, y.scale(n))).truncate(degree)

    if name == "12":
        m = _int_param(p, "m", 1)
        n = _int_param(p, "n", 1)
        a = _int_param(p, "a", 0)
        b = _int_param(p, "b", 0)
        if m < 1 or n < 1:
            raise BadParams("row 12 requires m, n >= 1")
        if a < 0 or b < 0:
            raise BadParams("row 12 requires a, b >= 0")
        if a * m - b * n not in (1, -1):
            raise BadParams(f"row 12 requires am - bn = +-1, got {a * m - b * n}")
        f = _as_unit(sp.get("f"), mode)
        pre = jet_mul(jet_mul(jet_pow(x, a), jet_pow(y, b)), f)
        return VectorFieldGerm(
            jet_mul(pre, x.scale(m)), jet_mul(pre, y.scale(-n))
        ).truncate(degree)

    if name == "13":
        n = _int_param(p, "n", 0)
        if n < 0:
            raise BadParams("row 13 requires n >= 0")
        f = _as_unit(sp.get("f"), mode)
        pre = jet_mul(jet_mul(jet_mul(jet_pow(x, n), jet_pow(y, n)), x - y), f)
        return VectorFieldGerm(jet_mul(pre, x), jet_mul(pre, -y)).truncate(degree)

    raise BadParams(f"unknown table row {name!r}")


def first_integral(nf: NormalFormID, mode=EXACT):
    """Displayed first integral of a table row (Jet2 polynomial or RationalFn).

    Elliptic rows return the invariant polynomial; parabolic rows and row 11
    return strictly meromorphic quotients.  None when the catalog records no
    non-constant first integral (rows 1, 10, 12, 13).
    """
    x, y = _x(mode), _y(mode)
    name = nf.name
    if nf.kind == "table" and name in ("4", "5", "6", "7", "8", "9"):
        return _elliptic_data(mode)[name][0]
    if nf.kind == "table" and name == "2":
        n = _int_param(nf.params, "n", 0)
        return RationalFn(jet_mul(jet_pow(x, n + 1), y), x - y)
    if nf.kind == "table" and name == "3":
        return RationalFn(jet_mul(y, y), y - jet_mul(x, x))
    if nf.kind == "table" and name == "11":
        n = _int_param(nf.params, "n", 1)
        if n >= 1:
            return RationalFn(x, jet_pow(y, n))
        return RationalFn(jet_mul(x, jet_pow(y, -n)), Jet2.const(1, mode, INF))
    return None


# ---------------------------------------------------------------------------
# Main Theorem pair families
# ---------------------------------------------------------------------------

def make_pair(nf: NormalFormID, mode=EXACT, degree: Optional[int] = None
              ) -> Tuple[VectorFieldGerm, VectorFieldGerm]:
    """Commuting pair (X, Y) of a Main Theorem family.

    The constructor enforces every side condition of the family, so the
    returned pair commutes identically (the bracket vanishes to the full
    shared precision).
    """
    if nf.kind != "mt":
        raise BadParams(f"make_pair expects an mt id, got {nf.label()}")
    degree = degree if degree is not None else series.DEFAULT_DEGREE
    p = nf.params
    sp = nf.series_params
    x, y = _x(mode), _y(mode)
    name = nf.name

    if name == "i":
        n = _int_param(p, "n", 1)
        if n < 1:
            raise BadParams("family i requires n >= 1")
        alpha = scalars.coerce(p.get("alpha", 1), mode)
        if not alpha:
            raise BadParams("family i requires alpha != 0")
        r = sp.get("r", Jet1.zero(mode))
        s = sp.get("s", Jet1.zero(mode))
        for label, g in (("r", r), ("s", s)):
            if g.coeff(0):
                raise BadParams(f"family i requires {label}(0) = 0")
        r_y = jet_compose1(r.truncate(degree), y.truncate(degree))
        s_y = jet_compose1(s.truncate(degree), y.truncate(degree))
        a_fn = (Jet2.const(1, mode, degree) + x.scale(alpha).scale(n).truncate(degree)
                + jet_mul(x, r_y) + s_y)
        # commutation pins b(y) = alpha*y + y*r(y)/n
        inv_n = scalars.coerce(Fraction(1, n), mode)
        b_fn = (y.scale(alpha) + jet_mul(y, r_y).scale(inv_n)).truncate(degree)
        x_field = VectorFieldGerm(jet_pow(y, n).truncate(degree), Jet2.zero(mode, degree))
        y_field = VectorFieldGerm(jet_mul(y, a_fn), jet_mul(y, b_fn))
        return x_field, y_field.truncate(degree)

    if name == "ii":
        return (
            VectorFieldGerm(jet_mul(x, x), Jet2.zero(mode, INF)).truncate(degree),
            VectorFieldGerm(Jet2.zero(mode, INF), jet_mul(y, y)).truncate(degree),
        )

    if name == "iii":
        n = _int_param(p, "n", 2)
        if n < 1:
            raise BadParams("family iii requires n >= 1")
        radial = VectorFieldGerm(jet_mul(y, x.scale(n)), jet_mul(y, y))
        if n >= 2:
            x_field = VectorFieldGerm(jet_pow(y, n), Jet2.zero(mode, INF))
            return x_field.truncate(degree), radial.truncate(degree)
        c1 = scalars.coerce(p.get("c1", 1), mode)
        c2 = scalars.coerce(p.get("c2", 0), mode)
        x_field = VectorFieldGerm(
            y.scale(c1) + jet_mul(x, x).scale(c2),
            jet_mul(x, y).scale(c2),
        )
        return x_field.truncate(degree), radial.truncate(degree)

    if name == "iv":
        n = _int_param(p, "n", 1)
        if n < 1:
            raise BadParams("family iv requires n >= 1")
        g1 = sp.get("g1", Jet1.const(1, mode))
        g2 = sp.get("g2", Jet1.zero(mode))
        if g1.coeff(0) - scalars.one(mode):
            raise BadParams("family iv requires g1(0) = 1")
        if g1.valid_through >= 1 and g1.coeff(1):
            raise BadParams("family iv requires g1'(0) = 0")
        if g2.coeff(0):
            raise BadParams("family iv requires g2(0) = 0")
        w = jet_mul(x, jet_pow(y, n)).truncate(degree)
        g1_w = jet_compose1(g1.truncate(degree), w)
        g2_w = jet_compose1(g2.truncate(degree), w)
        pre = jet_mul(g1_w, jet_mul(jet_pow(y, n), jet_mul(x, x)))
        bracket_coeff = jet_mul(jet_pow(y, n + 1), g2_w)
        inner_a = Jet2.const(1, mode, degree) + jet_mul(bracket_coeff, x.scale(n))
        inner_b = -jet_mul(bracket_coeff, y)
        x_field = VectorFieldGerm(jet_mul(pre, inner_a), jet_mul(pre, inner_b))
        # Siegel partner: first integrals of y(nx dx - y dy) are functions of xy^n
        y_field = VectorFieldGerm(jet_mul(y, x.scale(n)), -jet_mul(y, y))
        return x_field.truncate(degree), y_field.truncate(degree)

    if name == "v":
        n = _int_param(p, "n", 1)
        if n < 0:
            raise BadParams("family v requires n >= 0")
        x_field = VectorFieldGerm(jet_mul(jet_pow(y, n), jet_mul(x, x)), Jet2.zero(mode, INF))
        y_field = VectorFieldGerm(
            jet_mul(x, y.scale(n) - x.scale(n + 1)), -jet_mul(y, y)
        )
        return x_field.truncate(degree), y_field.truncate(degree)

    if name == "vi":
        x_field = VectorFieldGerm(y - jet_mul(x, x).scale(2), -jet_mul(x, y).scale(2))
        y_field = VectorFieldGerm(jet_mul(y, x), jet_mul(y, y))
        return x_field.truncate(degree), y_field.truncate(degree)

    if name == "vii":
        return _make_pair_vii(nf, mode, degree)

    raise BadParams(f"unknown mt family {name!r}")


def _make_pair_vii(nf: NormalFormID, mode, degree):
    p = nf.params
    sp = nf.series_params
    m = _int_param(p, "m", 1)
    n = _int_param(p, "n", 1)
    a = _int_param(p, "a", 1)
    b = _int_param(p, "b", 0)
    k1_extra = _int_param(p, "k1", 0)
    if m < 1 or n < 1:
        raise BadParams("family vii requires m, n >= 1")
    if a < 0 or b < 0:
        raise BadParams("family vii requires a, b >= 0")
    if k1_extra < 0:
        raise BadParams("family vii requires k1 >= 0")
    # optional extra divisor powers of (x^n y^m)
    a += k1_extra * n
    b += k1_extra * m
    sign = a * m - b * n
    if sign not in (1, -1):
        raise BadParams(f"family vii requires am - bn = +-1, got {sign}")
    k1 = min(a // n, b // m)
    amu = a - k1 * n
    bmu = b - k1 * m
    # strict meromorphy of x^amu y^bmu / x^n y^m is automatic from maximality
    assert amu < n or bmu < m
    assert amu * m - bmu * n == sign
    x, y = _x(mode), _y(mode)
    u1 = sp.get("u1", Jet1.const(1, mode))
    if u1.coeff(0) - scalars.one(mode):
        raise BadParams("family vii requires u1(0) = 1")
    u2 = sp.get("u2")
    if u2 is None:
        j_min = _vii_min_u2_order(m, n, amu, bmu)
        u2 = Jet1.from_coeffs({j_min: 1}, mode)
    w = jet_mul(jet_pow(x, n), jet_pow(y, m)).truncate(degree)
    u2_w = jet_compose1(u2.truncate(degree), w)
    try:
        psi = u2_w.divide_monomial(amu, bmu)
    except NotDivisible:
        raise BadParams(
            "family vii requires x^-amu y^-bmu u2(x^n y^m) holomorphic"
        )
    if not psi.is_zero() and psi.order() < 1:
        raise BadParams("family vii perturbation must have order >= 1")
    div = jet_mul(jet_pow(x, a), jet_pow(y, b))
    x_field = VectorFieldGerm(
        jet_mul(div, x.scale(m)), jet_mul(div, y.scale(-n))
    )
    u1_w = jet_compose1(u1.truncate(degree), w)
    pre = jet_mul(div, u1_w)
    inner_a = x.scale(m) + jet_mul(psi, x.scale(b))
    inner_b = y.scale(-n) - jet_mul(psi, y.scale(a))
    y_field = VectorFieldGerm(jet_mul(pre, inner_a), jet_mul(pre, inner_b))
    return x_field.truncate(degree), y_field.truncate(degree)


def _vii_min_u2_order(m: int, n: int, amu: int, bmu: int) -> int:
    j = 0
    while True:
        j += 1
        if j * n >= amu and j * m >= bmu and (j * n - amu) + (j * m - bmu) >= 1:
            return j


# ---------------------------------------------------------------------------
# classifier
# ---------------------------------------------------------------------------

def classify(x: VectorFieldGerm,
             declared: Sequence[Tuple[str, Jet2]] = ()) -> List[NormalFormID]:
    """Necessary-conditions filter: table rows compatible with the germ.

    Raises NonzeroEigenvalue unless both eigenvalues at the origin vanish.
    An empty list means the germ violates a necessary condition (axis
    restriction failing the one-dimensional lemma, or no row signature
    matches).
    """
    result, _ = classify_with_reasons(x, declared)
    return result


def classify_with_reasons(x: VectorFieldGerm,
                          declared: Sequence[Tuple[str, Jet2]] = ()
                          ) -> Tuple[List[NormalFormID], List[str]]:
    if x.mode != EXACT:
        raise ModeMismatch("classify operates in exact mode")
    reasons: List[str] = []
    lin = linear_part(x)
    if not lin.eigenvalues_zero():
        raise NonzeroEigenvalue("germ has a nonzero eigenvalue at the origin")
    for axis in invariant_axes(x):
        verdict = onedim_check(restrict_to_axis(x, axis))
        if verdict.status == FAIL:
            reasons.append(
                f"restriction to the {axis}-axis fails the one-dimensional "
                f"lemma ({verdict.reason})"
            )
            return [], reasons
    candidates: List[NormalFormID] = []
    seen = set()
    for swapped, germ in ((False, x), (True, x.swap_axes())):
        for cand in _match_rows(germ, declared):
            if swapped:
                cand.params["swapped"] = True
            key = (cand.name, tuple(sorted(
                (k, str(v)) for k, v in cand.params.items() if k != "swapped")))
            if key not in seen:
                seen.add(key)
                candidates.append(cand)
    if not candidates:
        reasons.append("no table-row signature matches the computable invariants")
    return candidates, reasons


def _unit_quotient(num: Jet2, pattern: Jet2) -> Optional[Jet2]:
    if pattern.is_zero():
        return None
    status, quot = exact_divide(num, pattern)
    if status != DIVISIBLE or quot is None or not series._has_constant(quot):
        return None
    return quot


def _match_unit_times(germ: VectorFieldGerm, v_a: Jet2, v_b: Jet2) -> Optional[Jet2]:
    """The unit f with germ = f * (v_a, v_b), when one exists."""
    if not v_a.is_zero():
        f = _unit_quotient(germ.a, v_a)
        if f is None:
            return None
        if germ.b.equals(jet_mul(f, v_b)):
            return f
        return None
    if not germ.a.is_zero():
        return None
    f = _unit_quotient(germ.b, v_b)
    if f is None:
        return None
    return f


def _match_rows(germ: VectorFieldGerm, declared) -> List[NormalFormID]:
    mode = germ.mode
    forms = list(standard_forms(mode)) + list(declared)
    factors, primitive = primitive_split(germ, forms)
    powers = {f.label: f.power for f in factors}
    ax = powers.get("x", 0)
    ay = powers.get("y", 0)
    p_xy = powers.get("x-y", 0)
    p_cusp = powers.get("y-x^2", 0)
    p_sept = powers.get("x^3+y^2", 0)
    out: List[NormalFormID] = []
    x, y = _x(mode), _y(mode)

    # rows 1a/1b/1c: regular horizontal foliation, B identically zero
    if germ.b.is_zero() and not germ.a.is_zero():
        a_pow = monomial_content(germ.a)[1]
        f_big = germ.a.divide_monomial(0, a_pow)
        if series._has_constant(f_big) and a_pow >= 1:
            out.append(NormalFormID("table", "1a", {"a": a_pow}))
        q = _unit_quotient(f_big, x)
        if q is not None and a_pow >= 1 and all(k == (0, 0) for k in q._keys()):
            out.append(NormalFormID("table", "1b", {"a": a_pow}))
        if _match_1c(f_big):
            out.append(NormalFormID("table", "1c", {"a": a_pow}))

    # rows with divisor data
    elliptic_shapes = {
        "4": (1, 1, {"x-y": 1}),
        "5": (1, 1, {"x-y": 2}),
        "6": (1, 2, {"x-y": 3}),
        "7": (0, 0, {"x^3+y^2": 1}),
        "8": (0, 1, {"y-x^2": 1}),
        "9": (0, 1, {"y-x^2": 2}),
    }
    data = _elliptic_data(mode)
    for row, (wx, wy, wforms) in elliptic_shapes.items():
        a = _shape_exponent(ax, ay, {"x-y": p_xy, "y-x^2": p_cusp, "x^3+y^2": p_sept},
                            wx, wy, wforms)
        if a is None:
            continue
        v_a, v_b = data[row][1]
        f = _match_unit_times(primitive, v_a, v_b)
        if f is not None:
            out.append(NormalFormID("table", row, {"a": a}))

    trivial_divisor = ax == 0 and ay == 0 and p_xy == 0 and p_cusp == 0 and p_sept == 0
    if trivial_divisor:
        # row 2: f*(x^2, -y(nx-(n+1)y))
        f = _unit_quotient(germ.a, jet_mul(x, x))
        if f is not None:
            status, v_b = exact_divide(germ.b, f)
            if status == DIVISIBLE and v_b is not None:
                n = _row2_param(v_b, mode)
                if n is not None:
                    out.append(NormalFormID("table", "2", {"n": n}))
        # row 3: f*((y-2x^2), -2xy)
        f = _unit_quotient(germ.b, jet_mul(x, y).scale(-2))
        if f is not None and germ.a.equals(jet_mul(f, y - jet_mul(x, x).scale(2))):
            out.append(NormalFormID("table", "3", {}))

    # Siegel rows 10/12, 11, 13 read off the primitive linear part
    lin = linear_part(primitive)
    if lin.eigenvalues is not None and not primitive.is_zero():
        lam1 = lin.matrix[0][0]
        lam2 = lin.matrix[1][1]
        if not lin.matrix[0][1] and not lin.matrix[1][0] and lam1 and lam2:
            ratio = lam2 / lam1
            rat = scalars.as_rational(ratio)
            if rat is not None and rat < 0 and p_xy == 0 and p_cusp == 0 and p_sept == 0:
                n, m = -rat.numerator, rat.denominator  # lam1 : lam2 = m : -n
                a_pow_sig = ax * m - ay * n
                if a_pow_sig != 0:
                    if a_pow_sig in (1, -1):
                        f = _match_unit_times(primitive, x.scale(m), y.scale(-n))
                        if f is not None:
                            out.append(NormalFormID(
                                "table", "12",
                                {"m": m, "n": n, "a": ax, "b": ay}))
                else:
                    # am - bn = 0: Martinet-Ramis rows with singular curves
                    if ax >= 1 and ay >= 1 and ax % n == 0 and ay % m == 0 \
                            and ax // n == ay // m:
                        if invariant_axes(primitive) == ("x", "y"):
                            out.append(NormalFormID(
                                "table", "10",
                                {"m": m, "n": n, "k": ax // n}))
            # row 11: n > 0, or n < 0 (opposite-sign eigenvalues) with no curve factor
            if rat is not None and rat.denominator == 1 and ax == 1 and ay == 0 and p_xy == 0 \
                    and (rat > 0 or (p_cusp == 0 and p_sept == 0)):
                n_int = int(rat)
                f = _unit_quotient(primitive.a, x)
                if f is not None and primitive.b.equals(jet_mul(f, y.scale(n_int))):
                    out.append(NormalFormID("table", "11", {"n": n_int}))
            if rat is not None and rat < 0 and ax == ay and p_xy == 1 \
                    and p_cusp == 0 and p_sept == 0:
                if rat == Fraction(-1):
                    f = _match_unit_times(primitive, x, -y)
                    if f is not None:
                        out.append(NormalFormID("table", "13", {"n": ax}))
    return out


def _match_1c(f_big: Jet2) -> bool:
    """f_big has the shape x^2 + g1(y) x + g2(y) of row 1c with
    g1(0) = g2(0) = 0: its terms are x^2 and x^i y^j with i < 2 and j >= 1."""
    keys = f_big._keys()
    return (2, 0) in keys and all(k == (2, 0) or (k[0] < 2 and k[1] >= 1) for k in keys)


def _row2_param(v_b: Jet2, mode) -> Optional[int]:
    """n when v_b is -y(n x - (n+1) y), else None.  The y^2 term is
    stored, so valid_through >= 2 and the xy coefficient can be read."""
    keys = v_b._keys()
    if (0, 2) not in keys or any(k not in ((1, 1), (0, 2)) for k in keys):
        return None
    n_plus_1 = scalars.as_rational(v_b.coeff(0, 2))
    if n_plus_1 is None or n_plus_1.denominator != 1 or n_plus_1 < 1:
        return None
    n = int(n_plus_1) - 1
    if v_b.coeff(1, 1) != scalars.coerce(-n, mode):
        return None
    return n


def _shape_exponent(ax, ay, form_powers, wx, wy, wforms) -> Optional[int]:
    """Solve divisor = shape^a for integer a >= 0 against observed exponents."""
    obs = [(ax, wx), (ay, wy)] + [
        (form_powers.get(label, 0), w) for label, w in wforms.items()
    ]
    a_val: Optional[int] = None
    for got, weight in obs:
        if weight == 0:
            if got != 0:
                return None
            continue
        if got % weight != 0:
            return None
        q = got // weight
        if a_val is None:
            a_val = q
        elif a_val != q:
            return None
    extra = set(form_powers) - set(wforms)
    if any(form_powers[e] != 0 for e in extra):
        return None
    return a_val if a_val is not None else 0

