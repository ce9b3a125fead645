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
rule of series._mul_valid.  In exact mode, while a value's denominator is a
constant, the value is folded into its numerator (see the value layout
below), and a sum is one n-ary sum over the lcm of its terms' denominators;
once a nonconstant denominator enters, the value is a numerator/denominator
pair, and a folded value enters it over 1.  A float value is always a pair
and takes the cross-multiplications of the per-node jets, so float results
round as they did when every node was a Jet2.

Reading again by node: the per-node jets keep every constant divisor in
both parts of a RationalFn, as multiplying through by every denominator
gives it: (51/300)/y is 51/(300 y).  The fold's pair is that pair divided
in both parts by one nonzero constant K, made of the constants the fold
divided by.  A jet stores its value canonically, and a constant factor
changes neither order nor valid_through, so every Jet2 and every error
comes out the same; only the parts of a RationalFn show K.  So when the
fold returns a RationalFn and divided by a constant (a '/' of the text did
not cross-multiply a pair), parse_to_jet2 reads the text again by node, as
float mode reads it: no runs and no leaves, and every number, variable and
i a pair over 1.  parse_to_jet1 and parse_vector_field refuse a
RationalFn with a message that does not depend on K.

Single-term rule: in exact mode a value with at most one monomial, such as
3, i, x^2 or (3+3*i)*x^2*y, is held as its key and Gaussian-integer
coefficient over an integer denominator.  Products, quotients by a nonzero
constant and powers (by scalars.gaussian_pow) of such terms go straight to
the key and the coefficient, with valid_through from series._mul_valid.  A
sum of single terms is one numerator over the lcm of their denominators,
and a single term again when at most one key is left.  The results are
those of the general path.

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
spans come from the same scan, and a reading by node and parse_to_jet1
scan the plain tokens.
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
# A value takes one of three forms, told apart by its length:
# - an exact single term (key, d, r, s, valid) is (r + s*i) / d * x^key[0] *
#   y^key[1], reduced, with r = s = 0 and key (0, 0) for zero and no term of
#   degree > valid;
# - an exact folded value (d, re, im, valid) is numerators over one
#   denominator d, known through valid, while the value's denominator is a
#   constant;
# - a pair (num, den) of such numerators, over 1 for a folded value (_pair).

_ORIGIN = {(0, 0)}


def _single(key, d: int, r: int, s: int, valid) -> tuple:
    """The single term (r + s*i) / d * x^key, reduced, cut at valid."""
    if r or s:
        if key[0] + key[1] > valid:
            return (0, 0), 1, 0, 0, valid
        g = math.gcd(d, r, s)
        if g != 1:
            d, r, s = d // g, r // g, s // g
        return key, d, r, s, valid
    return (0, 0), 1, 0, 0, valid


def _num(val: tuple) -> tuple:
    """The numerator (d, re, im, valid) of a single term or folded value."""
    if len(val) == 4:
        return val
    key, d, r, s, valid = val
    return d, {key: r} if r else {}, {key: s} if s else {}, valid


def _single_mul(a: tuple, *rest: tuple) -> tuple:
    """The product of single terms, folded left to right by the product rule
    of series._mul_valid and reduced once (a product of terms known through
    their orders is never cut, so reducing between the steps changes
    nothing)."""
    (i, j), d, r, s, valid = a
    order = i + j if r or s else INF
    for (bi, bj), db, rb, sb, vb in rest:
        ob = bi + bj if rb or sb else INF
        valid, order = _mul_valid(valid, order, vb, ob), order + ob
        i, j, d = i + bi, j + bj, d * db
        r, s = r * rb - s * sb, r * sb + s * rb
    return _single((i, j), d, r, s, valid)


def _single_div(a: tuple, b: tuple) -> tuple:
    """a divided by the nonzero constant single b: a times d (r - s i) / (r^2 + s^2)
    for b = (r + s i) / d, as the general constant division."""
    key, da, ra, sa, va = a
    _, d, r, s, _ = b
    cr, ci = d * r, -d * s
    return _single(key, da * (r * r + s * s), ra * cr - sa * ci, sa * cr + ra * ci, va)


def _single_pow(a: tuple, e: int, degree) -> tuple:
    """a^e cut at the degree, as _power gives it.  Every value here is known
    through the degree at least, so a^e is known through the degree: a term
    beyond it (e * ord > degree) is zero without any product, and the
    coefficient and denominator are raised by squaring and multiplying."""
    key, d, r, s, _ = a
    if not e:
        return _single((0, 0), 1, 1, 0, degree)
    if e * (key[0] + key[1]) > degree:
        return _single((0, 0), 1, 0, 0, degree)
    return _single((key[0] * e, key[1] * e), d ** e, *scalars.gaussian_pow(r, s, e), degree)


def _single_sum(terms: list) -> tuple:
    """The sum of sign * term over (sign, single) pairs, as _lin_sum gives
    it: every numerator over the lcm of the denominators, cut at the least
    valid_through.  A sum with at most one key left is a single term."""
    if len(terms) == 1:         # -a: expr() returns a lone +a as it is
        key, d, r, s, valid = terms[0][1]
        return key, d, -r, -s, valid
    valid = min(t[4] for _, t in terms)
    den = math.lcm(*(t[1] for _, t in terms))
    key = terms[0][1][0]
    if all(t[0] == key for _, t in terms):
        r = s = 0
        for sign, (_, d, tr, ts, _) in terms:
            f = den // d * sign
            r, s = r + tr * f, s + ts * f
        return _single(key, den, r, s, valid)
    re_: dict = {}
    im: dict = {}
    for sign, (key, d, r, s, _) in terms:
        if key[0] + key[1] <= valid:
            f = den // d * sign
            if r:
                re_[key] = re_.get(key, 0) + r * f
            if s:
                im[key] = im.get(key, 0) + s * f
    re_, im = _nonzero(re_), _nonzero(im)
    if len(re_) + len(im) > 1 and len(re_.keys() | im.keys()) > 1:
        return *_reduced(den, re_, im), valid
    key = next(iter(re_ or im), (0, 0))
    return _single(key, den, re_.get(key, 0), im.get(key, 0), valid)


def _number(tok: str, degree) -> tuple:
    """The exact single term of a number token."""
    value = Fraction(tok) if "." in tok else int(tok)
    return _single((0, 0), value.denominator, value.numerator, 0, degree)


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
        return _single((0, 0), 1, r, s, degree)
    terms = []
    for sign, p, star_i, bare_i, q, tail_i in parts:
        p = int(p or 1)
        # the single term p or p*i, reduced as it stands
        val = ((0, 0), 1, 0, p, degree) if star_i or bare_i or tail_i \
            else ((0, 0), 1, p, 0, degree)
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
            atoms.append(_single((e, 0) if atom == "x" else (0, e), 1, 1, 0, degree))
        else:
            b = leaves.get(atom) or (
                _literal(atom, degree) if atom[0] == "(" else _number(atom, degree))
            atoms.append(_single_pow(b, int(e), degree) if e else b)
    val = _single_mul(*atoms)
    for q in divisors:
        val = _single_div(val, _number(q, degree))
    return val


def _leaf_den(mode: str) -> tuple:
    """The denominator 1 of a number, variable or i read by node, so that its
    products and sums are those of the per-node jets (a float product by
    1 + 0j can change the sign of a zero part)."""
    return (*_unit(mode), INF)


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


def _pair(val: tuple) -> tuple:
    """The numerator and denominator of a value (over 1 for a folded one)."""
    return val if len(val) == 2 else (_num(val), _leaf_den(EXACT))


# -- the descent ---------------------------------------------------------------

@functools.lru_cache(maxsize=128)
def _exact_leaves(degree, variables) -> dict:
    """The exact single terms of the allowed variables and of i, built once
    per degree (the descents only read them)."""
    leaves = {name: _single((0, 1) if name == "y" else (1, 0), 1, 1, 0, degree)
              for name in variables}
    leaves["i"] = _single((0, 0), 1, 0, 1, degree)
    return leaves


class _Descent:
    """One left-to-right pass over the tokens of *text*, evaluating as it
    reads.  The tokens are kept reversed, so that the next one is toks[-1];
    "" stands for the end of the input.  A reading by node (float mode, and
    the second reading of parse_to_jet2) has no runs and no leaves: every
    value is a pair, as the per-node jets give it."""

    __slots__ = ("text", "toks", "n", "mode", "degree", "variables", "leaves", "tokens",
                 "by_node", "crossed")

    def __init__(self, text: str, mode: str, degree, variables, by_node: bool = False):
        self.by_node = by_node = by_node or mode != EXACT
        # runs only in exact mode in x and y, read by fold
        self.tokens = _TOKEN if by_node or variables != ("x", "y") else _RUN_TOKEN
        toks = self.tokens.findall(text)
        toks.reverse()
        self.toks = [""] + toks
        self.text, self.n = text, len(self.toks)
        self.mode, self.degree, self.variables = mode, degree, variables
        self.leaves = {} if by_node else _exact_leaves(degree, variables)
        self.crossed = 0    # the '/' that cross-multiply a pair, not a fold

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
                val = _single_mul(val, b) if len(val) == 5 and len(b) == 5 else self._mul(val, b)
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
        if len(val) == 5:
            return _single_pow(val, int(tok), self.degree)
        return self._pow(val, int(tok), left)

    def base(self) -> tuple:
        """A run, a number, a variable or i read by node, or the error the
        next token makes (a fold reads exact variables and i as the leaves of
        factor())."""
        toks = self.toks
        tok = toks[-1]
        mode, degree = self.mode, self.degree
        if len(tok) > 1 and (tok[0] == "(" or "*" in tok or "/" in tok or "^" in tok):
            toks.pop()
            return _run_value(tok, degree, self.leaves)
        if tok == "x" or tok == "y" or tok == "z" or tok == "i":
            if tok != "i" and tok not in self.variables:
                raise UnknownVariable(
                    f"variable {tok!r} not allowed here (expected one of {self.variables})"
                    f" (at position {self._position()})")
            toks.pop()
            if mode == EXACT:
                return _pair(_exact_leaves(degree, self.variables)[tok])
            key = (0, 0) if tok == "i" else (0, 1) if tok == "y" else (1, 0)
            v = 1j if tok == "i" else 1 + 0j
            return (1, {key: v} if key[0] + key[1] <= degree else {}, {}, degree), \
                _leaf_den(mode)
        if _is_number(tok):
            toks.pop()
            if mode == EXACT:
                val = _number(tok, degree)
                return _pair(val) if self.by_node else val
            v = complex(float(Fraction(tok) if "." in tok else Fraction(int(tok))))
            return (1, {(0, 0): v} if v and degree >= 0 else {}, {}, degree), _leaf_den(mode)
        if tok[:1].isalpha():
            raise UnknownVariable(f"unknown variable {tok!r} (at position {self._position()})")
        self._fail(f"expected a number, variable or '(', found {tok or 'end of input'!r}")

    # -- operations, each as the per-node evaluation of its node --

    def _sum(self, terms: list) -> tuple:
        if all(len(val) == 5 for _, val in terms):
            return _single_sum(terms)
        if all(len(val) != 2 for _, val in terms):
            return _lin_sum([(sign, _num(val)) for sign, val in terms])
        # num1/den1 + num2/den2 is (num1 den2 + num2 den1) / (den1 den2), term by term
        total = None
        for sign, val in terms:
            num, den = _pair(val)
            if sign < 0:
                num = _negated(num)
            if total is not None:
                n1, n2 = _times(total[0], den), _times(num, total[1])
                valid = min(n1[3], n2[3])
                num, den = (*_reduced(*_zsum(*n1[:3], *n2[:3], valid)), valid), \
                    _times(total[1], den)
            total = num, den
        return total

    def _mul(self, a: tuple, b: tuple) -> tuple:
        if len(a) != 2 and len(b) != 2:
            return _times(_num(a), _num(b))
        (n1, d1), (n2, d2) = _pair(a), _pair(b)
        return _times(n1, n2), _times(d1, d2)

    def _div(self, top: tuple, bottom: tuple, left: int) -> tuple:
        if len(top) == 5 and len(bottom) == 5 and bottom[0] == (0, 0) \
                and (bottom[2] or bottom[3]):
            return _single_div(top, bottom)
        b = bottom[0] if len(bottom) == 2 else _num(bottom)
        if not b[1] and not b[2]:
            self._zero(left)
        if len(top) != 2 and len(bottom) != 2 and b[1].keys() <= _ORIGIN \
                and b[2].keys() <= _ORIGIN:
            # divide the folded numerator by the constant (r + s i) / d:
            # multiply by d (r - s i) / (r^2 + s^2)
            d, r, s = b[0], b[1].get((0, 0), 0), b[2].get((0, 0), 0)
            a = _num(top)
            return *_reduced(a[0] * (r * r + s * s), *_zscaled(a[1], a[2], d * r, -d * s)), a[3]
        self.crossed += 1
        (n1, d1), (n2, d2) = _pair(top), _pair(bottom)
        return _times(n1, d2), _times(d1, n2)

    def _pow(self, val: tuple, e: int, left: int) -> tuple:
        mode, degree = self.mode, self.degree
        if len(val) != 2:
            return _power(mode, val, e, degree)
        num, den = val
        order = _zorder(num[1], num[2])
        if 1 <= order < INF and e * order > degree and _zorder(den[1], den[2]) == 0:
            # over a unit, (num / den)^e has order e * ord(num) beyond the
            # degree: zero through the degree in both modes, over no power of den
            return _power(mode, num, e, degree), _leaf_den(mode)
        den = _power(mode, den, e, degree)
        if not den[1] and not den[2]:
            self._zero(left)
        return _power(mode, num, e, degree), den

    def finish(self, val: tuple):
        """The value as a Jet2 (Jet1 for variables ("z",)) or RationalFn."""
        mode, variables = self.mode, self.variables
        if len(val) != 2:
            out = _jet(mode, *_num(val))
        else:
            num, den = _jet(mode, *val[0]), _jet(mode, *val[1])
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


def _parse(text: str, mode, degree, variables, by_node: bool = False):
    descent = _Descent(text, mode, degree, variables, by_node)
    val = descent.expr()
    descent.end()
    return descent.finish(val), descent


def parse_to_jet2(text: str, mode=EXACT, degree: int = 16):
    """Expression -> Jet2 or RationalFn in (x, y).

    A RationalFn whose fold divided by a constant is read again by node: the
    fold paired it over 1 where the per-node jets pair it over the product
    of the constants it divided by (see the module docstring).
    """
    out, descent = _parse(text, mode, degree, ("x", "y"))
    if isinstance(out, RationalFn) and text.count("/") > descent.crossed:
        out, _ = _parse(text, mode, degree, ("x", "y"), by_node=True)
    return out


def parse_to_jet1(text: str, mode=EXACT, degree: int = 16) -> Jet1:
    """Expression in z -> Jet1."""
    return _parse(text, mode, degree, ("z",))[0]


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
