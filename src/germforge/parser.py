"""Recursive-descent parser for the expression DSL.

Grammar (LL(1), explicit '*' only, no implicit multiplication):

    expr   := ['+'|'-'] term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' uint)?
    base   := number | 'i' | 'x' | 'y' | 'z' | '(' expr ')'
    number := uint ('/' uint)? | decimal

Quotients whose denominator is not a unit evaluate to RationalFn; everything
else lands in a jet at the configured degree and mode.  Vector fields are
written "[exprA, exprB]" meaning exprA d/dx + exprB d/dy.

Evaluation works on the stored numerators of germforge.series (integer or
complex numerators over one denominator, as a Jet2 keeps them) and builds
one Jet2 per returned numerator and denominator, not one per AST node.
Products use the product rule of series._mul_valid, and a power of a single
term goes straight to its key.  In exact mode a sum is one n-ary sum over
the lcm of its terms' denominators, and while the denominator is a constant
C (from literals such as 3/4 or a division by a constant) the value is kept
folded, with C beside it; once a nonconstant denominator enters, C is
multiplied back into numerator and denominator, so a RationalFn is
normalised as multiplying through by every denominator gives it: (51/300)/y
is 51/(300 y).  A float value always carries its denominator and takes the
cross-multiplications of the numerator/denominator pair, so float results
round as they did when every node was a Jet2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple, Union

from . import scalars
from .errors import GermforgeError, ZeroDenominator
from .germ import RationalFn, VectorFieldGerm
from .scalars import EXACT, FLOAT
from .series import (
    DIVISIBLE,
    INF,
    Jet1,
    Jet2,
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


# -- AST ---------------------------------------------------------------------

@dataclass
class Const:
    value: Fraction
    imag: bool = False          # value * i when set
    decimal: bool = False


@dataclass
class Var:
    name: str


@dataclass
class Neg:
    inner: "Node"


@dataclass
class Add:
    terms: List[Tuple[int, "Node"]]     # (sign, node)


@dataclass
class Mul:
    factors: List["Node"]


@dataclass
class Quot:
    num: "Node"
    den: "Node"


@dataclass
class Pow:
    base: "Node"
    exponent: int


Node = Union[Const, Var, Neg, Add, Mul, Quot, Pow]


# -- tokenizer ----------------------------------------------------------------

_TOKEN_CHARS = set("+-*/^()[],")


@dataclass
class _Token:
    kind: str       # "num", "name", or a punctuation character
    text: str
    pos: int


def _tokenize(text: str) -> List[_Token]:
    out: List[_Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _TOKEN_CHARS:
            out.append(_Token(ch, ch, i))
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            seen_dot = False
            while j < n and (text[j].isdigit() or (text[j] == "." and not seen_dot)):
                if text[j] == ".":
                    seen_dot = True
                j += 1
            out.append(_Token("num", text[i:j], i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and text[j].isalnum():
                j += 1
            out.append(_Token("name", text[i:j], i))
            i = j
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", i)
    out.append(_Token("end", "", n))
    return out


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.k = 0

    def peek(self) -> _Token:
        return self.tokens[self.k]

    def advance(self) -> _Token:
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ExprSyntaxError(
                f"expected {kind!r}, found {tok.text or 'end of input'!r}", tok.pos
            )
        return self.advance()

    # expr := sign? term (('+'|'-') term)*
    def expr(self) -> Node:
        terms: List[Tuple[int, Node]] = []
        sign = 1
        if self.peek().kind in ("+", "-"):
            sign = 1 if self.advance().kind == "+" else -1
        terms.append((sign, self.term()))
        while self.peek().kind in ("+", "-"):
            sign = 1 if self.advance().kind == "+" else -1
            terms.append((sign, self.term()))
        if len(terms) == 1 and terms[0][0] == 1:
            return terms[0][1]
        if len(terms) == 1:
            return Neg(terms[0][1])
        return Add(terms)

    # term := factor (('*'|'/') factor)*
    def term(self) -> Node:
        node = self.factor()
        product: Optional[Mul] = None   # the product this loop is building
        while self.peek().kind in ("*", "/"):
            op = self.advance().kind
            rhs = self.factor()
            if op == "*":
                if node is product:
                    product.factors.append(rhs)
                else:
                    node = product = Mul([node, rhs])
            else:
                node = Quot(node, rhs)
        return node

    # factor := base ('^' uint)?
    def factor(self) -> Node:
        node = self.base()
        if self.peek().kind == "^":
            self.advance()
            tok = self.expect("num")
            if "." in tok.text:
                raise ExprSyntaxError("exponent must be a non-negative integer", tok.pos)
            return Pow(node, int(tok.text))
        return node

    def base(self) -> Node:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            if "." in tok.text:
                return Const(Fraction(tok.text), decimal=True)
            return Const(Fraction(int(tok.text)))
        if tok.kind == "name":
            self.advance()
            if tok.text == "i":
                return Const(Fraction(1), imag=True)
            if tok.text in ("x", "y", "z"):
                return Var(tok.text)
            raise UnknownVariable(f"unknown variable {tok.text!r} (at position {tok.pos})")
        if tok.kind == "(":
            self.advance()
            inner = self.expr()
            self.expect(")")
            return inner
        raise ExprSyntaxError(
            f"expected a number, variable or '(', found {tok.text or 'end of input'!r}",
            tok.pos,
        )


def parse_expression(text: str) -> Node:
    """Parse a single expression into its AST."""
    p = _Parser(text)
    node = p.expr()
    tok = p.peek()
    if tok.kind != "end":
        raise ExprSyntaxError(f"unexpected trailing input {tok.text!r}", tok.pos)
    return node


# -- evaluation ----------------------------------------------------------------
#
# _eval computes on stored numerators, as a Jet2 keeps them (see
# germforge.series), and eval_node builds the Jet2s at the end.  A value is
# a triple (num, den, c):
# - num is (d, re, im, valid): numerators over one denominator d, known
#   through valid;
# - while an exact denominator is a constant, den is None, num is the
#   folded numerator (the value itself) and c is that constant as
#   (cd, cr, ci), meaning (cr + ci*i) / cd, or None for 1;
# - otherwise (a nonconstant denominator has entered, or the mode is
#   float) num and den are the numerator and the denominator, both
#   (d, re, im, valid), and c is None.

_ORIGIN = {(0, 0)}
_ONE = {EXACT: 1, FLOAT: 1 + 0j}


def eval_node(node: Node, mode: str, degree: int, variables=("x", "y")) -> object:
    """Evaluate to a Jet2 (unit or trivial denominator) or RationalFn.

    z-expressions (variables=("z",)) evaluate through the same machinery with
    z mapped to the first slot, returning Jet1.
    """
    num, den, _ = _eval(node, mode, degree, variables)
    if den is None:
        return _restrict(_jet(mode, *num), variables)
    num, den = _jet(mode, *num), _jet(mode, *den)
    if den.degree_bound() == 0:
        c = den.coeffs.get((0, 0), scalars.one(mode))
        inv = scalars.one(mode) / c
        return _restrict(num.scale(inv), variables)
    status, quot = exact_divide(num, den)
    if status == DIVISIBLE and quot is not None and variables == ("x", "y"):
        return quot
    if variables != ("x", "y"):
        raise GermforgeError("1-variable expressions must be polynomial in z")
    return RationalFn(num, den)


def _restrict(jet: Jet2, variables):
    if variables == ("x", "y"):
        return jet
    return jet.restrict_y0()


def _eval(node: Node, mode: str, degree: int, variables) -> tuple:
    """The value of *node* as (num, den, c), see above.

    Every operation gives what the numerator/denominator pair of jets would
    give, with the product rule of series._mul_valid, in as few steps:
    - a power runs series._zpow, which takes a single term c x^i y^j
      straight to c^e x^(ie) y^(je);
    - in exact mode, a sum of terms with constant denominators puts their
      folded numerators over the lcm of the denominators and reduces once;
    - in exact mode, a constant denominator stays one scalar factor c beside
      the folded numerator.  Its valid_through never matters: every value has
      valid_through <= degree + its order, so a product by a constant known
      through the working degree keeps the other factor's valid_through.
      A RationalFn keeps the numerator and denominator that multiplying
      through by each denominator gives (51/300/y is 51/(300 y), not
      17/(100 y)), so c is multiplied back into both (_pair) when a
      nonconstant denominator enters.
    """
    if isinstance(node, Const):
        if mode == EXACT:
            d, v = node.value.denominator, node.value.numerator
        else:
            d, v = 1, (1j * float(node.value) if node.imag else complex(float(node.value)))
        terms = {(0, 0): v} if v and degree >= 0 else {}
        if node.imag and mode == EXACT:
            return (d, {}, terms, degree), None, None
        return (d, terms, {}, degree), _leaf_den(mode), None
    if isinstance(node, Var):
        if node.name not in variables:
            raise UnknownVariable(
                f"variable {node.name!r} not allowed here (expected one of {variables})"
            )
        key = (1, 0) if node.name in ("x", "z") else (0, 1)
        return (1, {key: _ONE[mode]} if degree >= 1 else {}, {}, degree), _leaf_den(mode), None
    if isinstance(node, Neg):
        num, den, c = _eval(node.inner, mode, degree, variables)
        return _negated(num), den, c
    if isinstance(node, Add):
        vals = [(sign, _eval(term, mode, degree, variables)) for sign, term in node.terms]
        if all(val[1] is None for _, val in vals):
            c = None
            for _, val in vals:
                c = _cmul(c, val[2])
            return _lin_sum([(sign, val[0]) for sign, val in vals]), None, c
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
    if isinstance(node, Mul):
        acc = _eval(node.factors[0], mode, degree, variables)
        for f in node.factors[1:]:
            val = _eval(f, mode, degree, variables)
            if acc[1] is None and val[1] is None:
                acc = _times(acc[0], val[0]), None, _cmul(acc[2], val[2])
            else:
                (n1, d1), (n2, d2) = _pair(acc), _pair(val)
                acc = _times(n1, n2), _times(d1, d2), None
        return acc
    if isinstance(node, Quot):
        top = _eval(node.num, mode, degree, variables)
        bottom = _eval(node.den, mode, degree, variables)
        b = bottom[0]
        if not b[1] and not b[2]:
            raise ZeroDenominator(f"denominator of {pretty(node)} vanishes to degree {degree}")
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
    if isinstance(node, Pow):
        num, den, c = _eval(node.base, mode, degree, variables)
        e = node.exponent
        if den is not None:
            den = _power(mode, den, e, degree)
            if not den[1] and not den[2]:
                raise ZeroDenominator(f"denominator of {pretty(node)} vanishes to degree {degree}")
        elif c is not None:
            c_pow = None
            for _ in range(e):
                c_pow = _cmul(c_pow, c)
            c = c_pow
        return _power(mode, num, e, degree), den, c
    raise TypeError(f"unknown AST node {node!r}")


def _leaf_den(mode: str):
    """The denominator of a constant or variable: none in exact mode; in
    float mode the constant 1, so that every float value carries its
    denominator and takes the products and sums of the per-node jets (a
    float product by 1 + 0j can change the sign of a zero part, and a
    constant divided out early loses what later cancellation would keep)."""
    return None if mode == EXACT else (*_unit(mode), INF)


def _negated(num: tuple) -> tuple:
    d, re, im, valid = num
    return d, {k: -v for k, v in re.items()}, {k: -v for k, v in im.items()}, valid


def _times(a: tuple, b: tuple) -> tuple:
    """a * b for (d, re, im, valid) numerators, by the product rule."""
    valid = _mul_valid(a[3], _zorder(a[1], a[2]), b[3], _zorder(b[1], b[2]))
    return *_reduced(*_zproduct(a, b, valid)), valid


def _power(mode: str, a: tuple, e: int, degree) -> tuple:
    """a^e cut at the working degree, as jet_pow(a, e).truncate(degree)."""
    den, re, im, valid = _zpow(mode, a, a[3], e)
    if degree < valid:
        re, im, valid = _zcut(re, degree), _zcut(im, degree), degree
    return *_reduced(den, re, im), valid


def _lin_sum(terms: list) -> tuple:
    """The sum of sign * num over (sign, num) pairs, cut at the least
    valid_through: every numerator over the lcm of the denominators, reduced
    once."""
    valid = min(num[3] for _, num in terms)
    den = math.lcm(*(num[0] for _, num in terms))
    re: dict = {}
    im: dict = {}
    for sign, (d, t_re, t_im, _) in terms:
        f = den // d * sign
        for part, out in ((t_re, re), (t_im, im)):
            get = out.get
            for k, v in part.items():
                if k[0] + k[1] <= valid:
                    out[k] = get(k, 0) + (v if f == 1 else -v if f == -1 else v * f)
    return *_reduced(den, _nonzero(re), _nonzero(im)), valid


def _cmul(a, b):
    """The product of two constants (cd, cr, ci), None standing for 1."""
    if a is None:
        return b
    if b is None:
        return a
    return a[0] * b[0], a[1] * b[1] - a[2] * b[2], a[1] * b[2] + a[2] * b[1]


def _pair(val: tuple) -> tuple:
    """The numerator and denominator of a value: (num * c, c) for a folded
    (exact) one."""
    num, den, c = val
    if den is not None:
        return num, den
    if c is None:
        return num, (*_unit(EXACT), INF)
    cd, cr, ci = c
    return ((num[0] * cd, *_zscaled(num[1], num[2], cr, ci), num[3]),
            (cd, {(0, 0): cr} if cr else {}, {(0, 0): ci} if ci else {}, INF))


def parse_to_jet2(text: str, mode=EXACT, degree: int = 16):
    """Expression -> Jet2 or RationalFn in (x, y)."""
    return eval_node(parse_expression(text), mode, degree, ("x", "y"))


def parse_to_jet1(text: str, mode=EXACT, degree: int = 16) -> Jet1:
    """Expression in z -> Jet1."""
    out = eval_node(parse_expression(text), mode, degree, ("z",))
    return out


def parse_vector_field(text: str, mode=EXACT, degree: int = 16) -> VectorFieldGerm:
    """Parse "[exprA, exprB]" into the germ exprA d/dx + exprB d/dy."""
    s = text.strip()
    if not s.startswith("[") or not s.endswith("]"):
        raise ExprSyntaxError("vector field literal must look like [exprA, exprB]", 0)
    body = s[1:-1]
    depth = 0
    split_at = None
    for k, ch in enumerate(body):
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        elif ch == "," and depth == 0:
            split_at = k
            break
    if split_at is None:
        raise ExprSyntaxError("vector field literal needs two components", len(s))
    comp_a = eval_node(parse_expression(body[:split_at]), mode, degree, ("x", "y"))
    comp_b = eval_node(parse_expression(body[split_at + 1:]), mode, degree, ("x", "y"))
    for comp in (comp_a, comp_b):
        if isinstance(comp, RationalFn):
            raise GermforgeError("vector field components must be holomorphic")
    return VectorFieldGerm(comp_a.truncate(degree), comp_b.truncate(degree))


# -- pretty printer -------------------------------------------------------------

def pretty(node: Node) -> str:
    """Canonical text form: parse_expression(pretty(node)) has the value of
    *node* and prints as the same text."""
    node = _canonical(node)
    if isinstance(node, Const):
        return "i" if node.imag else str(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        return f"-{_wrap(node.inner)}"
    if isinstance(node, Add):
        parts = []
        for k, (sign, term) in enumerate(node.terms):
            op = "" if (k == 0 and sign > 0) else ("+" if sign > 0 else "-")
            parts.append(f"{op}{_wrap(term, (Add, Neg))}")
        return "".join(parts)
    if isinstance(node, Mul):
        return "*".join(_wrap(f) for f in node.factors)
    if isinstance(node, Quot):
        return f"{_wrap(node.num)}/{_wrap(node.den)}"
    if isinstance(node, Pow):
        return f"{_wrap(node.base, (Add, Neg, Mul, Quot, Pow))}^{node.exponent}"
    raise TypeError(node)


def _canonical(node: Node) -> Node:
    """The node that the parser builds from the text of *node*, at its top:
    a constant other than a natural number or i becomes -c, p/q or c*i, and
    a sum of one term or a product of one factor becomes that term."""
    while True:
        if isinstance(node, Const):
            v = node.value
            if v < 0:
                return Neg(Const(-v, node.imag))
            if node.imag and v != 1:
                return Mul([Const(v), Const(Fraction(1), imag=True)])
            if v.denominator != 1:
                return Quot(Const(Fraction(v.numerator)), Const(Fraction(v.denominator)))
            return node
        if isinstance(node, Add) and len(node.terms) == 1:
            sign, term = node.terms[0]
            if sign < 0:
                return Neg(term)
            node = term
        elif isinstance(node, Mul) and len(node.factors) == 1:
            node = node.factors[0]
        else:
            return node


def _wrap(node: Node, wrapped=(Add, Neg, Mul, Quot)) -> str:
    """*node* as an operand: in parentheses when it is one of *wrapped*
    (those of a product, quotient or negation by default)."""
    node = _canonical(node)
    if isinstance(node, wrapped):
        return f"({pretty(node)})"
    return pretty(node)
