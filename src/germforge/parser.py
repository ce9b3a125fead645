"""One-pass recursive-descent parser for the expression DSL.

Grammar (LL(1), explicit '*' only, no implicit multiplication):

    field  := '[' expr ',' expr ']'
    expr   := ['+'|'-'] term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' uint)?
    base   := number | 'i' | 'x' | 'y' | 'z' | '(' expr ')'
    number := uint | decimal

A field "[exprA, exprB]" is the germ exprA d/dx + exprB d/dy.  Quotients
whose denominator is not a unit evaluate to RationalFn; everything else
lands in a jet at the configured degree and mode.

The descent reads the tokens of one regular-expression scan and computes
each value as it reads it: it builds no token objects and no syntax tree.
Products, quotients and powers fold left to right, as written, and '^'
binds tighter than '*' and '/'.  An error is raised where the pass meets
it, so of several faults the first one reading left to right is reported.
Error positions, and the span a zero denominator quotes, are offsets into
the text the caller passed, inside a field literal too.

Values are the stored numerators of germforge.series (integer or complex
numerators over one denominator, as a Jet2 keeps them), and one Jet2 is
built per returned numerator and denominator.  Products use the product
rule of series._mul_valid.  In exact mode a sum is one n-ary sum over the
lcm of its terms' denominators, and while the denominator is a constant C
(from literals such as 3/4 or a division by a constant) the value is kept
folded, with C beside it (a sum keeps its terms' factors of C apart, and
they are multiplied only if C is read); once a nonconstant denominator
enters, C is multiplied back into numerator and denominator, so a RationalFn is
normalised as multiplying through by every denominator gives it: (51/300)/y
is 51/(300 y).  A float value always carries its denominator and takes the
cross-multiplications of the numerator/denominator pair, so float results
round as they did when every node was a Jet2.

Single-term rule: in exact mode a value with at most one monomial, such as
3, i, x^2 or (3+3*i)*x^2*y, is held as its key and Gaussian-integer
coefficient over an integer denominator.  Products, quotients by a nonzero
constant and powers of such terms go straight to the key and the
coefficient, with valid_through from series._mul_valid; a power whose term
lies beyond the degree (e * ord > degree) is zero at once, and c^e is taken
by squaring and multiplying.  A sum of single terms is one numerator over
the lcm of their denominators, and a single term again when at most one
key is left.  The results are those of the general path.

Run tokens: in exact mode in x and y, the scan takes a whole monomial term
such as (3+3*i)*x^2*y^1, x^2*y/3 or (2+i)*x as one token, a run: atoms
joined by '*', each with an optional exponent, and divisions by positive
integers, where an atom is a number, x, y, i or a numeric literal such as
(p/q+r/s*i).  A run starts only where a term starts and ends only where one
ends, so the token is a whole term and the fold order and precedence are
those of its tokens (the x*y of 1/x*y is no run).  factor() reads a run's
value like a leaf: _run_value multiplies its atoms with _single_mul and
divides with _single_div, as the descent folds the same tokens, and
_literal sums the parts of a literal that has a divisor with _single_sum.
A run holds no space and no division by 0, and a product of x, y and i
alone (x*y) is none, since the descent reads its leaves as fast; such text
is read token by token as before.  Error positions and zero-denominator
spans come from the same scan, and float mode and parse_to_jet1 scan the
plain tokens.
"""

from __future__ import annotations

import functools
import math
import re
from fractions import Fraction

from . import scalars
from .errors import GermforgeError, ZeroDenominator
from .germ import RationalFn, VectorFieldGerm
from .scalars import EXACT
from .series import (
    DIVISIBLE,
    INF,
    Jet1,
    _has_constant,
    _jet,
    _mul_valid,
    _nonzero,
    _reduced,
    _unit,
    _zcut,
    _zorder,
    _zpow,
    _zproduct,
    _zscaled,
    _zsum,
    exact_divide,
)


class ExprSyntaxError(GermforgeError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownVariable(GermforgeError):
    pass


# A token is a number (decimal digits with at most one '.'), a name (a
# letter, then letters and digits), or any other single non-space
# character: an operator, a bracket or a character no token may hold.  The
# name pattern also takes a word that starts with a non-decimal digit such
# as '²'; _bad() tells those apart.
_TOKEN = re.compile(r"\d+(?:\.\d*)?|\.\d+|[^\W\d_][^\W_]*|\S")
_PUNCT = frozenset("+-*/^()[],")

# The scan of exact mode in x and y also takes runs (see the module
# docstring).  A literal's signed parts are p, p/q, p/q*i, p*i, p*i/q, i and
# i/q.  A run starts after '+', '-', '(', '[' or ',', with at most one space
# between, or at the start of the text, holds a digit, '(', '^' or '/', and
# ends before '+', '-', ')', ']', ',' or the end.  The cheap checks come
# first, as the pattern is tried at every position.  A division by 0 is no
# run, so that the token path raises ZeroDenominator for it.
_DEN = r"/0*[1-9]\d*"
_PART = rf"(?:\d+(?:{_DEN}(?:\*i)?|\*i(?:{_DEN})?)?|i(?:{_DEN})?)"
_ATOM = rf"(?:\d+(?:\.\d*)?|\.\d+|[xyi]|\([-+]?{_PART}(?:[-+]{_PART})*\))(?:\^\d+)?"
_RUN_TOKEN = re.compile(rf"(?=[\d.xyi(])(?:(?<=[-+(\[,])|^|(?<=[-+(\[,] ))(?=[^-+)\],\s]*[\d(^/])"
                        rf"{_ATOM}(?:\*{_ATOM}|{_DEN})*(?=\s*(?:[-+)\],]|$))|" + _TOKEN.pattern)
# the atoms of a run, as (operator, atom, exponent), and the signed parts
# of a literal, as (sign, p, '*i', 'i', q, '*i')
_ATOMS = re.compile(r"([*/]?)([^*/^(]+|\([^)]*\))\^?(\d*)")
_PARTS = re.compile(r"([-+]?)(?:(\d+)(\*i)?|(i))(?:/(\d+))?(\*i)?")


def _bad(tok: str) -> bool:
    """Whether *tok* is a character no token may hold (or starts with one;
    a run may start with '(')."""
    return bool(tok) and tok[0] not in _PUNCT and not (
        tok[0].isalpha() or _is_number(tok))


def _is_number(tok: str) -> bool:
    return tok[:1].isdecimal() or (tok[:1] == "." and len(tok) > 1)


# -- values --------------------------------------------------------------------
#
# A value is a triple (num, den, c):
# - num is (d, re, im, valid): numerators over one denominator d, known
#   through valid;
# - while an exact denominator is a constant, den is None, num is the
#   folded numerator (the value itself) and c is that constant as
#   (cd, cr, ci), meaning (cr + ci*i) / cd, or None for 1, or a list:
#   a product of constants not taken yet, taken only where it is read,
#   by _pair and _cpow (see _taken);
# - otherwise (a nonconstant denominator has entered, or the mode is
#   float) num and den are the numerator and the denominator, both
#   (d, re, im, valid), and c is None.
# An exact single term with den None is held as the 6-tuple
# (key, d, r, s, valid, c): (r + s*i) / d * x^key[0] * y^key[1], reduced,
# with r = s = 0 and key (0, 0) for zero and no term of degree > valid.

_ORIGIN = {(0, 0)}


def _single(key, d: int, r: int, s: int, valid, c) -> tuple:
    """The single term (r + s*i) / d * x^key, reduced, cut at valid."""
    if r or s:
        if key[0] + key[1] > valid:
            return (0, 0), 1, 0, 0, valid, c
        g = math.gcd(d, r, s)
        if g != 1:
            d, r, s = d // g, r // g, s // g
        return key, d, r, s, valid, c
    return (0, 0), 1, 0, 0, valid, c


def _general(val: tuple) -> tuple:
    """*val* as a (num, den, c) triple."""
    if len(val) == 3:
        return val
    key, d, r, s, valid, c = val
    return (d, {key: r} if r else {}, {key: s} if s else {}, valid), None, c


def _single_mul(a: tuple, *rest: tuple) -> tuple:
    """The product of single terms, folded left to right by the product rule
    of series._mul_valid and reduced once (a product of terms known through
    their orders is never cut, so reducing between the steps changes
    nothing)."""
    (i, j), d, r, s, valid, c = a
    order = i + j if r or s else INF
    for (bi, bj), db, rb, sb, vb, cb in rest:
        ob = bi + bj if rb or sb else INF
        valid, order = _mul_valid(valid, order, vb, ob), order + ob
        i, j, d = i + bi, j + bj, d * db
        r, s = r * rb - s * sb, r * sb + s * rb
        c = _cmul(c, cb)
    return _single((i, j), d, r, s, valid, c)


def _single_div(a: tuple, b: tuple) -> tuple:
    """a divided by the nonzero constant single b: a times d (r - s i) / (r^2 + s^2)
    for b = (r + s i) / d, as the general constant division."""
    key, da, ra, sa, va, ca = a
    _, d, r, s, _, cb = b
    cr, ci = d * r, -d * s
    return _single(key, da * (r * r + s * s), ra * cr - sa * ci, sa * cr + ra * ci, va,
                   _cmul(_cmul(ca, cb), (d, r, s)))


def _single_pow(a: tuple, e: int, degree) -> tuple:
    """a^e cut at the degree, as _power gives it.  Every value here is known
    through the degree at least, so a^e is known through the degree: a term
    beyond it (e * ord > degree) is zero without any product, its constants
    c raised neither, and the coefficient and denominator are raised by
    squaring and multiplying."""
    key, d, r, s, _, c = a
    if not e:
        return _single((0, 0), 1, 1, 0, degree, None)
    if e * (key[0] + key[1]) > degree:
        return _single((0, 0), 1, 0, 0, degree, None)
    return _single((key[0] * e, key[1] * e), *_cpow((d, r, s), e), degree, _cpow(c, e))


def _single_sum(terms: list) -> tuple:
    """The sum of sign * term over (sign, single) pairs, as _lin_sum gives
    it: every numerator over the lcm of the denominators, cut at the least
    valid_through.  A sum with at most one key left is a single term."""
    if len(terms) == 1:         # -a: expr() returns a lone +a as it is
        key, d, r, s, valid, c = terms[0][1]
        return key, d, -r, -s, valid, c
    valid = min(t[4] for _, t in terms)
    den = math.lcm(*(t[1] for _, t in terms))
    c = [t[5] for _, t in terms if t[5] is not None] or None
    key = terms[0][1][0]
    if all(t[0] == key for _, t in terms):
        r = s = 0
        for sign, (_, d, tr, ts, _, _) in terms:
            f = den // d * sign
            r, s = r + tr * f, s + ts * f
        return _single(key, den, r, s, valid, c)
    re_: dict = {}
    im: dict = {}
    for sign, (key, d, r, s, _, _) in terms:
        if key[0] + key[1] <= valid:
            f = den // d * sign
            if r:
                re_[key] = re_.get(key, 0) + r * f
            if s:
                im[key] = im.get(key, 0) + s * f
    re_, im = _nonzero(re_), _nonzero(im)
    if len(re_) + len(im) > 1 and len(re_.keys() | im.keys()) > 1:
        return (*_reduced(den, re_, im), valid), None, c
    key = next(iter(re_ or im), (0, 0))
    return _single(key, den, re_.get(key, 0), im.get(key, 0), valid, c)


def _number(tok: str, degree) -> tuple:
    """The exact single term of a number token."""
    value = Fraction(tok) if "." in tok else int(tok)
    return _single((0, 0), value.denominator, value.numerator, 0, degree, None)


def _literal(lit: str, degree) -> tuple:
    """The single term of a literal such as (p/q+r/s*i), as expr() sums its
    signed parts p or p*i, each divided by its q with _single_div: over the
    lcm of the q by _single_sum, or at once when no part has a q."""
    if lit[1:-1].isdecimal():
        return _number(lit[1:-1], degree)
    parts = _PARTS.findall(lit)
    if "/" not in lit:
        r = s = 0
        for sign, p, star_i, bare_i, _, _ in parts:
            p = -int(p or 1) if sign == "-" else int(p or 1)
            if star_i or bare_i:
                s += p
            else:
                r += p
        return _single((0, 0), 1, r, s, degree, None)
    terms = []
    for sign, p, star_i, bare_i, q, tail_i in parts:
        p = int(p or 1)
        # the single term p or p*i, reduced as it stands
        val = ((0, 0), 1, 0, p, degree, None) if star_i or bare_i or tail_i \
            else ((0, 0), 1, p, 0, degree, None)
        if q:
            val = _single_div(val, _number(q, degree))
        terms.append((-1 if sign == "-" else 1, val))
    return terms[0][1] if len(terms) == 1 and terms[0][0] > 0 else _single_sum(terms)


def _run_value(run: str, degree, leaves: dict) -> tuple:
    """The single term of a run token, as the descent folds the tokens of
    the same text: the product of its atoms (x^e and y^e the monomial known
    through the degree, zero beyond it, as _single_pow gives them), divided
    by its divisors with _single_div (a division by a constant moves neither
    valid_through nor the order, so it may come last)."""
    atoms, divisors = [], []
    for op, atom, e in _ATOMS.findall(run):
        if op == "/":
            divisors.append(atom)
        elif e and (atom == "x" or atom == "y"):
            e = int(e)
            atoms.append(_single((e, 0) if atom == "x" else (0, e), 1, 1, 0, degree, None))
        else:
            b = leaves.get(atom) or (
                _literal(atom, degree) if atom[0] == "(" else _number(atom, degree))
            atoms.append(_single_pow(b, int(e), degree) if e else b)
    val = _single_mul(*atoms)
    for q in divisors:
        val = _single_div(val, _number(q, degree))
    return val


def _leaf_den(mode: str):
    """The denominator of a constant or variable: none in exact mode; in
    float mode the constant 1, so that every float value carries its
    denominator and takes the products and sums of the per-node jets (a
    float product by 1 + 0j can change the sign of a zero part, and a
    constant divided out early loses what later cancellation would keep)."""
    return None if mode == EXACT else (*_unit(mode), INF)


def _negated(num: tuple) -> tuple:
    d, re_, im, valid = num
    return d, {k: -v for k, v in re_.items()}, {k: -v for k, v in im.items()}, valid


def _times(a: tuple, b: tuple) -> tuple:
    """a * b for (d, re, im, valid) numerators, by the product rule."""
    valid = _mul_valid(a[3], _zorder(a[1], a[2]), b[3], _zorder(b[1], b[2]))
    return *_reduced(*_zproduct(a, b, valid)), valid


def _power(mode: str, a: tuple, e: int, degree) -> tuple:
    """a^e cut at the working degree, as jet_pow(a, e).truncate(degree).

    When every term of a^e lies beyond the degree (e * ord a > degree), that
    is the zero numerator known through the degree, without the e products:
    every value here is known through the degree at least, and so is a^e.
    The constant 1 through INF, which every float value carries as its
    denominator, is its own power bit for bit (1 - 0j is not: the product
    loop gives 1 + 0j), so it takes no products either.
    """
    order = _zorder(a[1], a[2])
    if 1 <= order < INF and e * order > degree:
        return 1, {}, {}, degree
    if a[3] == INF and a[:3] == _unit(mode) \
            and math.copysign(1.0, complex(a[1][(0, 0)]).imag) > 0:
        den, re_, im, valid = a
    else:
        den, re_, im, valid = _zpow(mode, a, a[3], e)
    if degree < valid:
        re_, im, valid = _zcut(re_, degree), _zcut(im, degree), degree
    return *_reduced(den, re_, im), valid


def _lin_sum(terms: list) -> tuple:
    """The sum of sign * num over (sign, num) pairs, cut at the least
    valid_through: every numerator over the lcm of the denominators, reduced
    once."""
    valid = min(num[3] for _, num in terms)
    den = math.lcm(*(num[0] for _, num in terms))
    re_: dict = {}
    im: dict = {}
    for sign, (d, t_re, t_im, _) in terms:
        f = den // d * sign
        for part, out in ((t_re, re_), (t_im, im)):
            get = out.get
            for k, v in part.items():
                if k[0] + k[1] <= valid:
                    out[k] = get(k, 0) + (v if f == 1 else -v if f == -1 else v * f)
    return *_reduced(den, _nonzero(re_), _nonzero(im)), valid


def _cmul(a, b):
    """The product of two constants (cd, cr, ci), None standing for 1; with
    a deferred product (a list) it is deferred too."""
    if a is None:
        return b
    if b is None:
        return a
    if type(a) is list or type(b) is list:
        return [a, b]
    return a[0] * b[0], a[1] * b[1] - a[2] * b[2], a[1] * b[2] + a[2] * b[1]


def _taken(c):
    """The constant c with its deferred products taken.  A sum's constant is
    read only if a nonconstant denominator enters later or the sum is
    raised to a power, so the sum keeps its terms' constants in a list
    until then; the ints of their _cmul products do not depend on the
    order they are taken in."""
    if type(c) is not list:
        return c
    out = None
    for f in c:
        out = _cmul(out, _taken(f))
    return out


def _cpow(c, e: int):
    """c^e of a constant (cd, cr, ci), None standing for 1: the ints of e
    _cmul products, by squaring and multiplying."""
    c, out = _taken(c), None
    while e:
        if e & 1:
            out = _cmul(out, c)
        e >>= 1
        if e:
            c = _cmul(c, c)
    return out


def _pair(val: tuple) -> tuple:
    """The numerator and denominator of a value: (num * c, c) for a folded
    (exact) one."""
    num, den, c = val
    if den is not None:
        return num, den
    if c is None:
        return num, (*_unit(EXACT), INF)
    cd, cr, ci = _taken(c)
    return ((num[0] * cd, *_zscaled(num[1], num[2], cr, ci), num[3]),
            (cd, {(0, 0): cr} if cr else {}, {(0, 0): ci} if ci else {}, INF))


# -- the descent ---------------------------------------------------------------

@functools.lru_cache(maxsize=128)
def _exact_leaves(degree, variables) -> dict:
    """The exact single terms of the allowed variables and of i, built once
    per degree (the descents only read them)."""
    leaves = {name: _single((0, 1) if name == "y" else (1, 0), 1, 1, 0, degree, None)
              for name in variables}
    leaves["i"] = _single((0, 0), 1, 0, 1, degree, None)
    return leaves


class _Descent:
    """One left-to-right pass over the tokens of *text*, evaluating as it
    reads.  The tokens are kept reversed, so that the next one is toks[-1];
    "" stands for the end of the input."""

    __slots__ = ("text", "toks", "n", "mode", "degree", "variables", "leaves", "tokens")

    def __init__(self, text: str, mode: str, degree, variables):
        # runs only in exact mode in x and y: float values keep every node
        self.tokens = _RUN_TOKEN if mode == EXACT and variables == ("x", "y") else _TOKEN
        toks = self.tokens.findall(text)
        toks.reverse()
        self.toks = [""] + toks
        self.text, self.n = text, len(self.toks)
        self.mode, self.degree, self.variables = mode, degree, variables
        self.leaves = _exact_leaves(degree, variables) if mode == EXACT else {}

    # -- positions and errors, computed only when an error is raised --

    def _spans(self):
        spans = [m.span() for m in self.tokens.finditer(self.text)]
        return spans + [(len(self.text), len(self.text))]

    def _position(self) -> int:
        """The offset of the next token in the text."""
        return self._spans()[self.n - len(self.toks)][0]

    def _fail(self, message: str):
        """Raise ExprSyntaxError at the next token (an unexpected character
        there is reported as such)."""
        tok = self.toks[-1]
        if _bad(tok):
            message = f"unexpected character {tok[0]!r}"
        raise ExprSyntaxError(message, self._position())

    def _found(self, expected: str):
        self._fail(f"expected {expected!r}, found {self.toks[-1] or 'end of input'!r}")

    def _zero(self, left: int):
        """Raise ZeroDenominator for the quotient or power that began when
        *left* tokens were left and ends at the next token."""
        spans = self._spans()
        start = spans[self.n - left][0]
        end = spans[self.n - len(self.toks) - 1][1]
        raise ZeroDenominator(
            f"denominator of {self.text[start:end]!r} vanishes to degree {self.degree}")

    def literal(self, tok: str):
        """Read *tok* of the field literal."""
        if self.toks[-1] != tok:
            self._fail("vector field literal must look like [exprA, exprB]")
        self.toks.pop()

    def end(self):
        if self.toks[-1]:
            self._fail(f"unexpected trailing input {self.toks[-1]!r}")

    # -- grammar --

    def expr(self) -> tuple:
        toks = self.toks
        sign = 1
        if toks[-1] == "+" or toks[-1] == "-":
            sign = 1 if toks.pop() == "+" else -1
        val = self.term()
        if sign > 0 and toks[-1] != "+" and toks[-1] != "-":
            return val
        terms = [(sign, val)]
        while toks[-1] == "+" or toks[-1] == "-":
            sign = 1 if toks.pop() == "+" else -1
            terms.append((sign, self.term()))
        return self._sum(terms)

    def term(self) -> tuple:
        toks = self.toks
        left = len(toks)
        val = self.factor()
        while True:
            op = toks[-1]
            if op == "*":
                toks.pop()
                b = self.factor()
                val = _single_mul(val, b) if len(val) == 6 and len(b) == 6 else self._mul(val, b)
            elif op == "/":
                toks.pop()
                val = self._div(val, self.factor(), left)
            else:
                return val

    def factor(self) -> tuple:
        toks = self.toks
        left = len(toks)
        tok = toks[-1]
        val = self.leaves.get(tok)
        if val is not None:
            toks.pop()
        elif tok == "(":
            toks.pop()
            val = self.expr()
            if toks[-1] != ")":
                self._found(")")
            toks.pop()
        else:
            val = self.base()
        if toks[-1] != "^":
            return val
        toks.pop()
        tok = toks[-1]
        if not _is_number(tok):
            self._found("num")
        if "." in tok:
            self._fail("exponent must be a non-negative integer")
        toks.pop()
        if len(val) == 6:
            return _single_pow(val, int(tok), self.degree)
        return self._pow(val, int(tok), left)

    def base(self) -> tuple:
        """A run, a number, a float variable or i, or the error the next token
        makes (exact variables and i are the leaves factor() reads)."""
        toks = self.toks
        tok = toks[-1]
        mode, degree = self.mode, self.degree
        if len(tok) > 1 and (tok[0] == "(" or "*" in tok or "/" in tok or "^" in tok):
            toks.pop()
            return _run_value(tok, degree, self.leaves)
        if tok == "x" or tok == "y" or tok == "z":
            if tok not in self.variables:
                raise UnknownVariable(
                    f"variable {tok!r} not allowed here (expected one of {self.variables})"
                    f" (at position {self._position()})")
            toks.pop()
            key = (0, 1) if tok == "y" else (1, 0)
            return (1, {key: 1 + 0j} if degree >= 1 else {}, {}, degree), \
                _leaf_den(mode), None
        if tok == "i":
            toks.pop()
            return (1, {(0, 0): 1j * float(1)} if degree >= 0 else {}, {}, degree), \
                _leaf_den(mode), None
        if _is_number(tok):
            toks.pop()
            if mode == EXACT:
                return _number(tok, degree)
            v = complex(float(Fraction(tok) if "." in tok else Fraction(int(tok))))
            return (1, {(0, 0): v} if v and degree >= 0 else {}, {}, degree), \
                _leaf_den(mode), None
        if tok[:1].isalpha():
            raise UnknownVariable(f"unknown variable {tok!r} (at position {self._position()})")
        self._fail(f"expected a number, variable or '(', found {tok or 'end of input'!r}")

    # -- operations, each as the per-node evaluation of its node --

    def _sum(self, terms: list) -> tuple:
        if all(len(val) == 6 for _, val in terms):
            return _single_sum(terms)
        vals = [(sign, _general(val)) for sign, val in terms]
        if all(val[1] is None for _, val in vals):
            return _lin_sum([(sign, val[0]) for sign, val in vals]), None, \
                [val[2] for _, val in vals if val[2] is not None] or None
        # num1/den1 + num2/den2 is (num1 den2 + num2 den1) / (den1 den2), term by term
        total = None
        for sign, val in vals:
            num, den = _pair(val)
            if sign < 0:
                num = _negated(num)
            if total is not None:
                n1, n2 = _times(total[0], den), _times(num, total[1])
                valid = min(n1[3], n2[3])
                num, den = (*_reduced(*_zsum(*n1[:3], *n2[:3], valid)), valid), \
                    _times(total[1], den)
            total = num, den
        return (*total, None)

    def _mul(self, a: tuple, b: tuple) -> tuple:
        a, b = _general(a), _general(b)
        if a[1] is None and b[1] is None:
            return _times(a[0], b[0]), None, _cmul(a[2], b[2])
        (n1, d1), (n2, d2) = _pair(a), _pair(b)
        return _times(n1, n2), _times(d1, d2), None

    def _div(self, top: tuple, bottom: tuple, left: int) -> tuple:
        if len(top) == 6 and len(bottom) == 6 and bottom[0] == (0, 0) \
                and (bottom[2] or bottom[3]):
            return _single_div(top, bottom)
        top, bottom = _general(top), _general(bottom)
        b = bottom[0]
        if not b[1] and not b[2]:
            self._zero(left)
        if top[1] is None and bottom[1] is None and b[1].keys() <= _ORIGIN \
                and b[2].keys() <= _ORIGIN:
            # divide the folded numerator by the constant (r + s i) / d:
            # multiply by d (r - s i) / (r^2 + s^2)
            d, r, s = b[0], b[1].get((0, 0), 0), b[2].get((0, 0), 0)
            a = top[0]
            num = *_reduced(a[0] * (r * r + s * s), *_zscaled(a[1], a[2], d * r, -d * s)), a[3]
            return num, None, _cmul(_cmul(top[2], bottom[2]), (d, r, s))
        (n1, d1), (n2, d2) = _pair(top), _pair(bottom)
        return _times(n1, d2), _times(d1, n2), None

    def _pow(self, val: tuple, e: int, left: int) -> tuple:
        mode, degree = self.mode, self.degree
        num, den, c = val
        order = _zorder(num[1], num[2])
        if 1 <= order < INF and e * order > degree and (
                den is None or _zorder(den[1], den[2]) == 0):
            # over a unit, (num / den)^e has order e * ord(num) beyond the
            # degree: zero through the degree in both modes, over no power
            # of den or of the constants c
            return _power(mode, num, e, degree), _leaf_den(mode), None
        if den is not None:
            den = _power(mode, den, e, degree)
            if not den[1] and not den[2]:
                self._zero(left)
        else:
            c = _cpow(c, e)
        return _power(mode, num, e, degree), den, c

    def finish(self, val: tuple):
        """The value as a Jet2 (Jet1 for variables ("z",)) or RationalFn."""
        mode, variables = self.mode, self.variables
        num, den, _ = _general(val)
        if den is None:
            out = _jet(mode, *num)
        else:
            num, den = _jet(mode, *num), _jet(mode, *den)
            if den.degree_bound() != 0:
                status, quot = exact_divide(num, den)
                if status == DIVISIBLE and quot is not None and variables == ("x", "y"):
                    return quot
                if variables != ("x", "y"):
                    raise GermforgeError("1-variable expressions must be polynomial in z")
                return RationalFn(num, den)
            c = den.coeff(0, 0) if _has_constant(den) else scalars.one(mode)
            out = num.scale(scalars.one(mode) / c)
        return out if variables == ("x", "y") else out.restrict_y0()


def _parse(text: str, mode, degree, variables):
    descent = _Descent(text, mode, degree, variables)
    val = descent.expr()
    descent.end()
    return descent.finish(val)


def parse_to_jet2(text: str, mode=EXACT, degree: int = 16):
    """Expression -> Jet2 or RationalFn in (x, y)."""
    return _parse(text, mode, degree, ("x", "y"))


def parse_to_jet1(text: str, mode=EXACT, degree: int = 16) -> Jet1:
    """Expression in z -> Jet1."""
    return _parse(text, mode, degree, ("z",))


def parse_vector_field(text: str, mode=EXACT, degree: int = 16) -> VectorFieldGerm:
    """Parse "[exprA, exprB]" into the germ exprA d/dx + exprB d/dy."""
    descent = _Descent(text, mode, degree, ("x", "y"))
    descent.literal("[")
    comp_a = descent.finish(descent.expr())
    descent.literal(",")
    comp_b = descent.finish(descent.expr())
    descent.literal("]")
    descent.end()
    for comp in (comp_a, comp_b):
        if isinstance(comp, RationalFn):
            raise GermforgeError("vector field components must be holomorphic")
    return VectorFieldGerm(comp_a.truncate(degree), comp_b.truncate(degree))
