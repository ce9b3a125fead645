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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple, Union

from . import scalars
from .errors import GermforgeError, ZeroDenominator
from .germ import RationalFn, VectorFieldGerm
from .scalars import EXACT, GaussianRational
from .series import DIVISIBLE, INF, Jet1, Jet2, exact_divide, jet_mul, jet_pow


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
        while self.peek().kind in ("*", "/"):
            op = self.advance().kind
            rhs = self.factor()
            if op == "*":
                if isinstance(node, Mul):
                    node.factors.append(rhs)
                else:
                    node = Mul([node, rhs])
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

class _RatValue:
    """Numerator/denominator jets during evaluation.

    An exact denominator of None is the constant 1, so sums and products of
    polynomials add and multiply their numerators only: jet_mul by an exact
    constant 1 of valid_through INF returns its other operand.  Float values
    keep an explicit constant, because a float product by 1 + 0j can change
    the sign of a zero part.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Jet2, den: Optional[Jet2] = None):
        self.num = num
        if den is None and num.mode != EXACT:
            den = Jet2.const(1, num.mode, INF)
        self.den = den

    def den_jet(self) -> Jet2:
        return self.den if self.den is not None else Jet2.const(1, EXACT, INF)


def eval_node(node: Node, mode: str, degree: int, variables=("x", "y")) -> object:
    """Evaluate to a Jet2 (unit or trivial denominator) or RationalFn.

    z-expressions (variables=("z",)) evaluate through the same machinery with
    z mapped to the first slot, returning Jet1.
    """
    val = _eval(node, mode, degree, variables)
    if val.den is None:
        return _restrict(val.num, variables)
    if val.den.degree_bound() == 0:
        c = val.den.coeffs.get((0, 0), scalars.one(mode))
        inv = scalars.one(mode) / c
        jet = val.num.scale(inv)
        return _restrict(jet, variables)
    status, quot = exact_divide(val.num, val.den)
    if status == DIVISIBLE and quot is not None and variables == ("x", "y"):
        return quot
    if variables != ("x", "y"):
        raise GermforgeError("1-variable expressions must be polynomial in z")
    return RationalFn(val.num, val.den)


def _restrict(jet: Jet2, variables):
    if variables == ("x", "y"):
        return jet
    return jet.restrict_y0()


def _eval(node: Node, mode: str, degree: int, variables) -> _RatValue:
    if isinstance(node, Const):
        if mode == EXACT:
            value = GaussianRational(0, node.value) if node.imag else \
                GaussianRational(node.value, 0)
        else:
            value = 1j * float(node.value) if node.imag else complex(float(node.value))
        return _RatValue(Jet2.const(value, mode, INF).truncate(degree))
    if isinstance(node, Var):
        if node.name not in variables:
            raise UnknownVariable(
                f"variable {node.name!r} not allowed here (expected one of {variables})"
            )
        slot = "x" if node.name in ("x", "z") else "y"
        return _RatValue(Jet2.variable(slot, mode, INF).truncate(degree))
    if isinstance(node, Neg):
        inner = _eval(node.inner, mode, degree, variables)
        return _RatValue(-inner.num, inner.den)
    if isinstance(node, Add):
        total: Optional[_RatValue] = None
        for sign, term in node.terms:
            val = _eval(term, mode, degree, variables)
            if sign < 0:
                val = _RatValue(-val.num, val.den)
            if total is None:
                total = val
            elif total.den is None and val.den is None:
                total = _RatValue(total.num + val.num)
            else:
                total = _RatValue(
                    jet_mul(total.num, val.den_jet()) + jet_mul(val.num, total.den_jet()),
                    jet_mul(total.den_jet(), val.den_jet()),
                )
        assert total is not None
        return total
    if isinstance(node, Mul):
        acc = _eval(node.factors[0], mode, degree, variables)
        for f in node.factors[1:]:
            val = _eval(f, mode, degree, variables)
            if acc.den is None and val.den is None:
                acc = _RatValue(jet_mul(acc.num, val.num))
            else:
                acc = _RatValue(jet_mul(acc.num, val.num),
                                jet_mul(acc.den_jet(), val.den_jet()))
        return acc
    if isinstance(node, Quot):
        num = _eval(node.num, mode, degree, variables)
        den = _eval(node.den, mode, degree, variables)
        if den.num.is_zero():
            raise ZeroDenominator(f"denominator of {pretty(node)} vanishes to degree {degree}")
        return _RatValue(jet_mul(num.num, den.den_jet()), jet_mul(num.den_jet(), den.num))
    if isinstance(node, Pow):
        base = _eval(node.base, mode, degree, variables)
        den = None
        if base.den is not None:
            den = jet_pow(base.den, node.exponent).truncate(degree)
            if den.is_zero():
                raise ZeroDenominator(f"denominator of {pretty(node)} vanishes to degree {degree}")
        return _RatValue(jet_pow(base.num, node.exponent).truncate(degree), den)
    raise TypeError(f"unknown AST node {node!r}")


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
    """Canonical text form (round-trips through the parser)."""
    if isinstance(node, Const):
        body = _frac_str(node.value)
        if node.imag:
            return f"{body}*i" if node.value != 1 else "i"
        return body
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        return f"-{_wrap(node.inner)}"
    if isinstance(node, Add):
        parts = []
        for k, (sign, term) in enumerate(node.terms):
            op = "" if (k == 0 and sign > 0) else ("+" if sign > 0 else "-")
            parts.append(f"{op}{_wrap_add(term)}")
        return "".join(parts)
    if isinstance(node, Mul):
        return "*".join(_wrap(f) for f in node.factors)
    if isinstance(node, Quot):
        return f"{_wrap(node.num)}/{_wrap(node.den)}"
    if isinstance(node, Pow):
        return f"{_wrap(node.base)}^{node.exponent}"
    raise TypeError(node)


def _frac_str(value: Fraction) -> str:
    return str(value)


def _wrap(node: Node) -> str:
    if isinstance(node, (Add, Neg)) or (isinstance(node, Const) and node.value < 0):
        return f"({pretty(node)})"
    if isinstance(node, (Mul, Quot)):
        return f"({pretty(node)})"
    return pretty(node)


def _wrap_add(node: Node) -> str:
    if isinstance(node, (Add, Neg)):
        return f"({pretty(node)})"
    return pretty(node)
