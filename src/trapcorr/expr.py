"""Integrand expressions: parsing and order-3 Taylor-jet evaluation.

The grammar is a small calculator language over the single variable ``x``:

    expr   := term (("+" | "-") term)*
    term   := factor (("*" | "/") factor)*
    factor := base ("^" factor)?
    base   := NUMBER | "x" | "pi" | "e" | IDENT "(" expr ")" | "(" expr ")" | "-" base
    IDENT  := sin | cos | tan | exp | ln | log10 | sqrt

Whitespace is insignificant, input must be ASCII, and there is no
implicit multiplication ("2x" is a syntax error).  ``^`` binds right and
tighter than unary minus inside its left operand, exactly as the grammar
above reads: ``-x^2`` parses as ``(-x)^2``.  Literals must be finite and
nesting may not exceed :data:`MAX_DEPTH` levels.

Each AST node compiles once, on first use, to a closure returning the
value and first three derivatives at a point (a :class:`Jet3`) through
the sum, product, quotient and chain rules.  :func:`eval_jet` and
:func:`eval_value` run that one closure; where only a derivative is
undefined (``sqrt`` at 0), the value stands and the jet is rejected.
Jets are exact to rounding; nothing here differentiates numerically.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Union

from .errors import DomainError, SyntaxError_, UnknownIdentifierError

__all__ = [
    "Jet3", "Num", "Var", "Const", "Neg", "BinOp", "Call", "ExprAST",
    "MAX_DEPTH", "parse", "eval_jet", "eval_value", "contains_var",
    "shift_by_cubic",
]

CONSTANTS = {"pi": math.pi, "e": math.e}

#: deepest nesting ``parse`` accepts, one level per parenthesis, call, unary
#: minus or operator; parsing, compiling and evaluating recurse per level
MAX_DEPTH = 100


# ----------------------------------------------------------------- AST

class _Node:
    """AST node base: compiles to its jet closure once, on first use."""

    @cached_property
    def _jet(self):
        return _compile(self)

    def __getstate__(self):  # pickle the tree, not the closure
        return {k: v for k, v in self.__dict__.items() if k != "_jet"}


@dataclass(frozen=True)
class Num(_Node):
    value: float


@dataclass(frozen=True)
class Var(_Node):
    """The single free variable x."""


@dataclass(frozen=True)
class Const(_Node):
    name: str  # "pi" or "e"


@dataclass(frozen=True)
class Neg(_Node):
    arg: "ExprAST"


@dataclass(frozen=True)
class BinOp(_Node):
    op: str  # one of + - * / ^
    left: "ExprAST"
    right: "ExprAST"


@dataclass(frozen=True)
class Call(_Node):
    func: str
    arg: "ExprAST"


ExprAST = Union[Num, Var, Const, Neg, BinOp, Call]


def contains_var(node: ExprAST) -> bool:
    if isinstance(node, Var):
        return True
    if isinstance(node, (Num, Const)):
        return False
    if isinstance(node, (Neg, Call)):
        return contains_var(node.arg)
    return contains_var(node.left) or contains_var(node.right)


def shift_by_cubic(node: ExprAST, d: float) -> ExprAST:
    """Structural AST for ``node + d*x^3/6`` (identity when d == 0)."""
    if d == 0.0:
        return node
    cubic = BinOp("/", BinOp("*", Num(d), BinOp("^", Var(), Num(3.0))), Num(6.0))
    return BinOp("+", node, cubic)


# ----------------------------------------------------------------- parser

_TOKEN_RE = re.compile(r"""
    (?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^()])
""", re.VERBOSE)


def _bounded(depth: int, pos: int) -> int:
    if depth > MAX_DEPTH:
        raise SyntaxError_(f"expression nested deeper than {MAX_DEPTH} levels", pos)
    return depth


class _Parser:
    """Recursive-descent parser over a token stream with one-token
    lookahead.  Token positions are character offsets into the input.
    Productions take the levels open above them and return their node
    with its depth, so tree and descent both stay within MAX_DEPTH."""

    def __init__(self, text: str):
        self.tokens = self._tokenize(text)
        self.i = 0

    @staticmethod
    def _tokenize(text: str):
        tokens = []
        pos = 0
        n = len(text)
        while pos < n:
            ch = text[pos]
            if ch.isspace():
                pos += 1
                continue
            if ord(ch) > 127:
                raise SyntaxError_(f"non-ASCII character {ch!r}", pos)
            m = _TOKEN_RE.match(text, pos)
            if m is None:
                raise SyntaxError_(f"unexpected character {ch!r}", pos)
            kind = m.lastgroup
            tokens.append((kind, m.group(), pos))
            pos = m.end()
        tokens.append(("eof", "", n))
        return tokens

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, text, pos = self.peek()
        if kind != "op" or text != op:
            raise SyntaxError_(f"expected '{op}'", pos)
        return self.advance()

    # grammar productions ------------------------------------------

    def parse(self) -> ExprAST:
        node, _ = self.expr(0)
        kind, text, pos = self.peek()
        if kind != "eof":
            raise SyntaxError_(f"unexpected {text!r} after expression", pos)
        return node

    def chain(self, level: int, ops: str, operand) -> tuple[ExprAST, int]:
        """Left-associative ``operand (op operand)*`` for ``op`` in ``ops``."""
        node, depth = operand(level)
        while True:
            kind, text, pos = self.peek()
            if kind != "op" or text not in ops:
                return node, depth
            self.advance()
            right, right_depth = operand(level)
            node, depth = BinOp(text, node, right), max(depth, right_depth) + 1
            _bounded(level + depth, pos)

    def expr(self, level: int) -> tuple[ExprAST, int]:
        return self.chain(level, "+-", self.term)

    def term(self, level: int) -> tuple[ExprAST, int]:
        return self.chain(level, "*/", self.factor)

    def factor(self, level: int) -> tuple[ExprAST, int]:
        node, depth = self.base(level)
        kind, text, pos = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            exponent, exp_depth = self.factor(_bounded(level + 1, pos))
            # jets of u^v with both operands depending on x would need
            # the exp(v ln u) rewrite unconditionally; the grammar only
            # admits a constant exponent over a non-constant base
            if contains_var(node) and contains_var(exponent):
                raise SyntaxError_(
                    "exponent must be constant when the base depends on x", pos)
            node, depth = BinOp("^", node, exponent), max(depth, exp_depth) + 1
            _bounded(level + depth, pos)
        return node, depth

    def base(self, level: int) -> tuple[ExprAST, int]:
        kind, text, pos = self.advance()
        if kind == "num":
            if not math.isfinite(float(text)):
                raise SyntaxError_(f"number {text} is out of range", pos)
            return Num(float(text)), 1
        if kind == "name":
            if text == "x":
                return Var(), 1
            if text in CONSTANTS:
                return Const(text), 1
            if text in _FUNCTIONS:
                self.expect_op("(")
                arg, depth = self.expr(_bounded(level + 1, pos))
                self.expect_op(")")
                return Call(text, arg), depth + 1
            raise UnknownIdentifierError(text, pos)
        if kind == "op" and text == "(":
            node, depth = self.expr(_bounded(level + 1, pos))
            self.expect_op(")")
            return node, depth + 1
        if kind == "op" and text == "-":
            node, depth = self.base(_bounded(level + 1, pos))
            return Neg(node), depth + 1
        raise SyntaxError_(f"unexpected {text!r}" if text else "unexpected end of input", pos)


def parse(text: str) -> ExprAST:
    """Parse expression ``text`` into an AST.

    Raises :class:`SyntaxError_` (with character offset) on malformed
    input, a literal that overflows to infinity, or nesting deeper than
    :data:`MAX_DEPTH`, and :class:`UnknownIdentifierError` for names
    outside the supported function/constant set.  Parsing is
    deterministic: equal text yields equal trees.
    """
    if not text or not text.strip():
        raise SyntaxError_("empty expression", 0)
    return _Parser(text).parse()


# ----------------------------------------------------------------- jets

class Jet3(NamedTuple):
    """Value and first three derivatives of a scalar function at a point."""

    d0: float
    d1: float
    d2: float
    d3: float


#: what derivative arithmetic raises where a derivative is undefined or
#: overflows (a zero divisor, ``**`` out of range, math.pow/log domain)
_UNDEFINED = (ArithmeticError, ValueError)


def _compile(node: ExprAST):
    """Closure ``x -> (d0, d1, d2, d3)`` for the jet of ``node``: d0 raises
    DomainError outside its domain, undefined derivatives come out NaN."""
    if isinstance(node, Var):
        return lambda x: (x, 1.0, 0.0, 0.0)
    if isinstance(node, (Num, Const)):
        const = (node.value if isinstance(node, Num) else CONSTANTS[node.name],
                 0.0, 0.0, 0.0)
        return lambda x: const
    if isinstance(node, BinOp):
        lf, rf = node.left._jet, node.right._jet
    else:
        uf = node.arg._jet
    if isinstance(node, Neg):
        def jet(x):
            u0, u1, u2, u3 = uf(x)
            return (-u0, -u1, -u2, -u3)
    elif isinstance(node, Call):
        g, outer, lowest, below = _FUNCTIONS[node.func]

        def jet(x):
            u0, u1, u2, u3 = uf(x)
            if u0 < lowest:
                raise DomainError(f"{node.func} of {below} value {u0!r}", x)
            g0 = g(u0)
            try:
                return _chain(g0, *outer(u0, g0), u1, u2, u3)
            except _UNDEFINED:
                return (g0, math.nan, math.nan, math.nan)
    elif node.op == "+":
        def jet(x):
            (u0, u1, u2, u3), (v0, v1, v2, v3) = lf(x), rf(x)
            return (u0 + v0, u1 + v1, u2 + v2, u3 + v3)
    elif node.op == "-":
        def jet(x):
            (u0, u1, u2, u3), (v0, v1, v2, v3) = lf(x), rf(x)
            return (u0 - v0, u1 - v1, u2 - v2, u3 - v3)
    elif node.op == "*":
        def jet(x):  # Leibniz rule with binomial weights
            (u0, u1, u2, u3), (v0, v1, v2, v3) = lf(x), rf(x)
            return (u0 * v0, u1 * v0 + u0 * v1, u2 * v0 + 2.0 * u1 * v1 + u0 * v2,
                    u3 * v0 + 3.0 * u2 * v1 + 3.0 * u1 * v2 + u0 * v3)
    elif node.op == "/":
        def jet(x):
            (u0, u1, u2, u3), (v0, v1, v2, v3) = lf(x), rf(x)
            if v0 == 0.0:
                raise DomainError("division by zero", x)
            w0 = u0 / v0
            w1 = (u1 - w0 * v1) / v0
            w2 = (u2 - w0 * v2 - 2.0 * w1 * v1) / v0
            return (w0, w1, w2, (u3 - w0 * v3 - 3.0 * w1 * v2 - 3.0 * w2 * v1) / v0)
    elif contains_var(node.right):
        # the parser admits x in an exponent only over a constant base b:
        # the value is pow(b, v), the derivatives those of exp(v ln b)
        def jet(x):
            b = lf(x)[0]
            v0, v1, v2, v3 = rf(x)
            p = _pow_value(b, v0, x)
            try:
                ln_b = math.log(b)
                return _chain(p, p, p, p, v1 * ln_b, v2 * ln_b, v3 * ln_b)
            except _UNDEFINED:
                return (p, math.nan, math.nan, math.nan)
    else:
        def jet(x):  # u^r for an exponent free of x
            u0, u1, u2, u3 = lf(x)
            r = rf(x)[0]
            if r == 0.0:  # the constant 1, whatever u's derivatives
                return (1.0, 0.0, 0.0, 0.0)
            g0 = _pow_value(u0, r, x)
            c2 = r * (r - 1.0)
            c3 = c2 * (r - 2.0)
            try:
                return _chain(g0, r * math.pow(u0, r - 1.0),
                              0.0 if c2 == 0.0 else c2 * math.pow(u0, r - 2.0),
                              0.0 if c3 == 0.0 else c3 * math.pow(u0, r - 3.0),
                              u1, u2, u3)
            except _UNDEFINED:
                return (g0, math.nan, math.nan, math.nan)
    return jet


def _chain(g0, g1, g2, g3, u1, u2, u3):
    # Faa di Bruno through order 3
    return (g0, g1 * u1, g2 * u1 * u1 + g1 * u2,
            g3 * u1 ** 3 + 3.0 * g2 * u1 * u2 + g1 * u3)


def _pow_value(u: float, r: float, x: float) -> float:
    if u < 0.0 and r != int(r):
        raise DomainError(f"negative base {u!r} with non-integer exponent {r!r}", x)
    if u == 0.0 and r < 0.0:
        raise DomainError(f"zero base with negative exponent {r!r}", x)
    return math.pow(u, r)


def _ln_outer(u, g):
    iu = 1.0 / u
    return iu, -iu * iu, 2.0 * iu ** 3


def _log10_outer(u, g):
    iu = 1.0 / (u * math.log(10.0))
    return iu, -iu / u, 2.0 * iu / (u * u)


def _sqrt_outer(u, s):
    g1 = 0.5 / s  # infinite at u = 0, where the value is still defined
    return g1, -0.5 * g1 / u, 0.75 * g1 / (u * u)


def _tan_outer(u, t):
    g1 = 1.0 + t * t
    return g1, 2.0 * t * g1, 2.0 * g1 * (1.0 + 3.0 * t * t)


#: per function: g; (u, g(u)) -> (g', g'', g''') at u; the least u in g's
#: domain (ln and log10 need u > 0: the least positive float); and how an
#: error names a value below it
_FUNCTIONS = {
    "sin": (math.sin, lambda u, s: (math.cos(u), -s, -math.cos(u)), -math.inf, ""),
    "cos": (math.cos, lambda u, c: (-math.sin(u), -c, math.sin(u)), -math.inf, ""),
    "tan": (math.tan, _tan_outer, -math.inf, ""),
    "exp": (math.exp, lambda u, g: (g, g, g), -math.inf, ""),
    "ln": (math.log, _ln_outer, math.ulp(0.0), "non-positive"),
    "log10": (math.log10, _log10_outer, math.ulp(0.0), "non-positive"),
    "sqrt": (math.sqrt, _sqrt_outer, 0.0, "negative"),
}


def _evaluate(ast: ExprAST, x: float) -> tuple:
    try:
        return ast._jet(x)
    except OverflowError as exc:
        raise DomainError(f"overflow: {exc}", x) from exc
    except _UNDEFINED as exc:
        raise DomainError(f"undefined: {exc}", x) from exc


def eval_jet(ast: ExprAST, x: float) -> Jet3:
    """Evaluate ``ast`` and its first three derivatives at ``x``.

    Raises :class:`DomainError` when the point is outside the
    expression's domain or any component fails to be finite.
    """
    jet = Jet3._make(_evaluate(ast, x))
    if not all(map(math.isfinite, jet)):
        raise DomainError("non-finite jet component", x)
    return jet


def eval_value(ast: ExprAST, x: float) -> float:
    """Evaluate just the value of ``ast`` at ``x``: the d0 of the jet,
    defined also where a derivative is not (``sqrt`` at 0)."""
    v = _evaluate(ast, x)[0]
    if not math.isfinite(v):
        raise DomainError("non-finite value", x)
    return v
