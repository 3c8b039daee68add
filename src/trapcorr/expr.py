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

A tree compiles once, on first use, to straight-line Python emitted for its shape
(source transformation: Griewank & Walther, *Evaluating Derivatives*, ch. 13): the jet,
the value and first three derivatives at a point (a :class:`Jet3`), and the values alone
at each point of a list.  Trees of one shape share that code, which is kept across
processes as bytecode is (:func:`_compiled`).  The contract, checked in the test suite
against an interpreter of the unfolded rules: values, and derivatives but for the sign
of an exact zero, are bit for bit the unfolded sum, product, quotient, power and chain
rules'; a jet, value or slope (value and first derivative, read by :mod:`trapcorr.xi_ode`)
is a DomainError exactly where those raise or give a non-finite component.  So the value
stands where only a derivative is undefined (``sqrt`` at 0), and the slope where only d2
or d3 is.  Nothing differentiates numerically.
"""

from __future__ import annotations

import importlib.util
import marshal
import math
import os
import re
import sys
import zlib
from contextlib import suppress
from functools import cached_property, lru_cache
from typing import NamedTuple, Union

from ._value import Value
from .errors import DomainError, SyntaxError_, UnknownIdentifierError

__all__ = [
    "Jet3", "Num", "Var", "Const", "Neg", "BinOp", "Call", "ExprAST",
    "MAX_DEPTH", "parse", "eval_jet", "eval_value", "eval_values", "contains_var",
    "shift_by_cubic",
]

CONSTANTS = {"pi": math.pi, "e": math.e}

#: deepest nesting ``parse`` accepts, one level per parenthesis, call, unary
#: minus or operator; parsing, compiling and evaluating recurse per level
MAX_DEPTH = 100


# ----------------------------------------------------------------- AST

class _Node(Value):
    """AST node base: compiles to its evaluators once, on first use."""

    @cached_property
    def _evaluators(self):
        """``(jet, values)``, compiled for this tree's shape through a bounded cache and bound
        to its literals: ``jet(x)``, and ``values(xs)``, each x's d0 by the d0 statements
        alone, which raises the first failing x's DomainError; both keep the contract above."""
        literals = []
        return _factory(_shape(self, literals))(*literals)


class Num(_Node):
    value: float


class Var(_Node):
    """The single free variable x."""


class Const(_Node):
    name: str  # "pi" or "e"


class Neg(_Node):
    arg: "ExprAST"


class BinOp(_Node):
    op: str  # one of + - * / ^
    left: "ExprAST"
    right: "ExprAST"


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


def shift_by_cubic(node: ExprAST, d: float, a: float) -> ExprAST:
    """Structural AST for ``node + d*(x-a)^3/6`` (identity when d == 0)."""
    if d == 0.0:
        return node
    cube = BinOp("^", BinOp("-", Var(), Num(a)), Num(3.0))
    return BinOp("+", node, BinOp("/", BinOp("*", Num(d), cube), Num(6.0)))


# ----------------------------------------------------------------- parser

#: one token per match from any offset on: a character no other alternative takes is ``bad``
_TOKEN_RE = re.compile(r"""
    (?P<space>\s+)
  | (?P<num>(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^()])
  | (?P<bad>.)
""", re.VERBOSE)


#: the left-associative binary operators, loosest first (``^``, in ``factor``, binds right)
_PRECEDENCE = ("+-", "*/")


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
    tokens = []  # (kind, text, offset); all are read first, so a bad character is the error
    for m in _TOKEN_RE.finditer(text):
        kind, token, pos = m.lastgroup, m.group(), m.start()
        if kind == "bad":
            what = "non-ASCII" if ord(token) > 127 else "unexpected"
            raise SyntaxError_(f"{what} character {token!r}", pos)
        if kind != "space":
            tokens.append((kind, token, pos))
    tokens.append(("eof", "", len(text)))
    tokens.reverse()  # the next token is tokens[-1]; only op tokens spell an operator

    # Recursive descent: a production takes the levels open above it and returns its node
    # with its depth, so tree and descent both stay within MAX_DEPTH.
    def bounded(depth: int, pos: int) -> int:
        if depth > MAX_DEPTH:
            raise SyntaxError_(f"expression nested deeper than {MAX_DEPTH} levels", pos)
        return depth

    def binary(level: int, prec: int = 0) -> tuple[ExprAST, int]:
        """Left-associative ``operand (op operand)*`` for ``op`` in ``_PRECEDENCE[prec]``."""
        if prec == len(_PRECEDENCE):
            return factor(level)
        node, depth = binary(level, prec + 1)
        while tokens[-1][0] == "op" and tokens[-1][1] in _PRECEDENCE[prec]:  # not eof's ""
            _, op, pos = tokens.pop()
            right, right_depth = binary(level, prec + 1)
            node, depth = BinOp(op, node, right), max(depth, right_depth) + 1
            bounded(level + depth, pos)
        return node, depth

    def factor(level: int) -> tuple[ExprAST, int]:
        node, depth = base(level)
        if tokens[-1][1] != "^":
            return node, depth
        _, _, pos = tokens.pop()
        exponent, exp_depth = factor(bounded(level + 1, pos))
        # jets of u^v with both operands depending on x would need the exp(v ln u) rewrite
        # unconditionally; the grammar only admits a constant exponent over a non-constant base
        if contains_var(node) and contains_var(exponent):
            raise SyntaxError_("exponent must be constant when the base depends on x", pos)
        depth = max(depth, exp_depth) + 1
        bounded(level + depth, pos)
        return BinOp("^", node, exponent), depth

    def expect(op: str) -> None:
        if tokens[-1][1] != op:
            raise SyntaxError_(f"expected '{op}'", tokens[-1][2])
        tokens.pop()

    def base(level: int) -> tuple[ExprAST, int]:
        kind, text, pos = tokens.pop()
        if kind == "num":
            if not math.isfinite(value := float(text)):
                raise SyntaxError_(f"number {text} is out of range", pos)
            return Num(value), 1
        if kind == "name" and text not in _FUNCTIONS:
            if text == "x":
                return Var(), 1
            if text in CONSTANTS:
                return Const(text), 1
            raise UnknownIdentifierError(text, pos)
        if text == "-":
            node, depth = base(bounded(level + 1, pos))
            return Neg(node), depth + 1
        if kind == "name":
            expect("(")
        elif text != "(":
            raise SyntaxError_(f"unexpected {text!r}" if text else "unexpected end of input", pos)
        node, depth = binary(bounded(level + 1, pos))  # a call's argument or a parenthesis
        expect(")")
        return (node if text == "(" else Call(text, node)), depth + 1

    node, _ = binary(0)
    kind, text, pos = tokens[-1]
    if kind != "eof":
        raise SyntaxError_(f"unexpected {text!r} after expression", pos)
    return node


# ----------------------------------------------------------------- jets

class Jet3(NamedTuple):
    """Value and first three derivatives of a scalar function at a point."""

    d0: float
    d1: float
    d2: float
    d3: float


#: what arithmetic raises where an operation is undefined or overflows (a zero
#: divisor, ``**`` or exp out of range, math.pow/log domain, sin of inf)
_UNDEFINED = (ArithmeticError, ValueError)


def _pow_value(u: float, r: float, x: float, xi: float | None = None) -> float:
    if u < 0.0 and not r.is_integer():
        raise DomainError(f"negative base {u!r} with non-integer exponent {r!r}", x, xi)
    if u == 0.0 and r < 0.0:
        raise DomainError(f"zero base with negative exponent {r!r}", x, xi)
    return math.pow(u, r)


def _undefined(exc: ArithmeticError | ValueError, x: float, xi: float | None = None) -> DomainError:
    kind = "overflow" if isinstance(exc, OverflowError) else "undefined"
    return DomainError(f"{kind}: {exc}", x, xi)


#: per function: g; the statement setting g'(u) at u = {u0} as {g1}, then
#: those setting g'' and g''' as {g2}, {g3}, given g(u) = {w0}; the least u
#: in g's domain (ln and log10 need u > 0: the least positive float); and
#: how an error names a value below it.  sqrt's g' is infinite at u = 0.
_FUNCTIONS = {
    "sin": (math.sin, "{g1} = cos({u0})", "{g2} = -{w0}; {g3} = -{g1}", -math.inf, ""),
    "cos": (math.cos, "{g1} = -sin({u0})", "{g2} = -{w0}; {g3} = -{g1}", -math.inf, ""),
    "tan": (math.tan, "{g1} = 1.0 + {w0} * {w0}", "{g2} = 2.0 * {w0} * {g1}; "
            "{g3} = 2.0 * {g1} * (1.0 + 3.0 * {w0} * {w0})", -math.inf, ""),
    "exp": (math.exp, "{g1} = {w0}", "{g2} = {g3} = {w0}", -math.inf, ""),
    "ln": (math.log, "{g1} = 1.0 / {u0}", "{g2} = -{g1} * {g1}; {g3} = 2.0 * {g1} ** 3",
           math.ulp(0.0), "non-positive"),
    "log10": (math.log10, "{g1} = 1.0 / ({u0} * LN10)", "{g2} = -{g1} / {u0}; "
              "{g3} = 2.0 * {g1} / ({u0} * {u0})", math.ulp(0.0), "non-positive"),
    "sqrt": (math.sqrt, "{g1} = 0.5 / {w0}", "{g2} = -0.5 * {g1} / {u0}; "
             "{g3} = 0.75 * {g1} / ({u0} * {u0})", 0.0, "negative"),
}

#: Faa di Bruno through order 3, w = g(u) from g1-g3 at u: w1, w2, w3
_CHAIN = [("w1", "g1 u1"), ("w2", "g2 u1 u1", "g1 u2"), ("w3", "g3 u1^3", "3.0 g2 u1 u2", "g1 u3")]
#: u^v: math.pow itself where u > 0, since neither of _pow_value's checks fires there
_POW = "pow({u0}, {v0}) if {u0} > 0.0 else pow_value({u0}, {v0}, {{at}})"

#: per node kind: its d0 statements, then its derivatives' (d1's, then d2's and d3's), over the
#: jets u (operand or left) and v (right), the result w, scratch g and s, the point x and a raise
#: site's location {at}, filled by the block's reader.  A scratch value's statement is a template;
#: a derivative slot's, ("w2", term, ...), a sum of products, each factor (a slot, a number or a
#: cube u1^3) apart by a space, or ("w2/v0", term, ...), such a sum over v0
_RULES = {
    "neg": ("{w0} = -{u0}", [("w1", "-1.0 u1"), ("w2", "-1.0 u2"), ("w3", "-1.0 u3")]),
    "+": ("{w0} = {u0} + {v0}", [("w1", "u1", "v1"), ("w2", "u2", "v2"), ("w3", "u3", "v3")]),
    "-": ("{w0} = {u0} - {v0}",
          [("w1", "u1", "-1.0 v1"), ("w2", "u2", "-1.0 v2"), ("w3", "u3", "-1.0 v3")]),
    "*": ("{w0} = {u0} * {v0}", [("w1", "u1 v0", "u0 v1"),  # Leibniz rule
                                 ("w2", "u2 v0", "2.0 u1 v1", "u0 v2"),
                                 ("w3", "u3 v0", "3.0 u2 v1", "3.0 u1 v2", "u0 v3")]),
    "/": ("if {v0} == 0.0: raise DomainError('division by zero', {{at}})\n{w0} = {u0} / {v0}",
          [("w1/v0", "u1", "-1.0 w0 v1"), ("w2/v0", "u2", "-1.0 w0 v2", "-2.0 w1 v1"),
           ("w3/v0", "u3", "-1.0 w0 v3", "-3.0 w1 v2", "-3.0 w2 v1")]),
    # u^r, r free of x, per call; _power folds it at a literal r
    "^r": ("{w0} = 1.0 if {v0} == 0.0 else " + _POW,
           ["{g1} = {v0} * pow({u0}, {v0} - 1.0)", _CHAIN[0],
            "{s2} = {v0} * ({v0} - 1.0)", "{s3} = {s2} * ({v0} - 2.0)",
            "{g2} = 0.0 if {s2} == 0.0 else {s2} * pow({u0}, {v0} - 2.0)",
            "{g3} = 0.0 if {s3} == 0.0 else {s3} * pow({u0}, {v0} - 3.0)", *_CHAIN[1:]]),
    # b^v, b free of x: the value is pow(b, v), the derivatives those of
    # exp(s) for s = v ln b: the chain with g1 = g2 = g3 = w0
    "^v": ("{w0} = " + _POW, ["{s0} = ln({u0})", ("s1", "v1 s0"), ("w1", "w0 s1"),
                              ("s2", "v2 s0"), ("s3", "v3 s0"), ("w2", "w0 s1 s1", "w0 s2"),
                              ("w3", "w0 s1^3", "3.0 w0 s1 s2", "w0 s3")]),
}
#: each function's rule: its domain check, if any, and g(u); g's derivatives, chained
_DOMAIN = "if {u0} < %r: raise DomainError('%s of %s value ' + repr({u0}), {{at}})\n"
_RULES.update(
    (name, (("" if lowest == -math.inf else _DOMAIN % (lowest, name, below))
            + f"{{w0}} = {name}({{u0}})", [g1, _CHAIN[0], *g23.split("; "), *_CHAIN[1:]]))
    for name, (_, g1, g23, lowest, below) in _FUNCTIONS.items())

#: the two evaluators of one tree shape, over its literals lit0, lit1, ...
_SOURCE = """\
def bind({literals}):
    def jet(x):
{jet}
        if not 0.0{fin0}{fin1}{fin2}{fin3} == 0.0: raise DomainError("non-finite jet component", x)
        return new(Jet3, ({w0}, {w1}, {w2}, {w3}))

    def values(xs):
      out = []
      for x in xs:  # the value block, indented by 8, is the loop's body
{value}
        if {w0} - {w0} != 0.0: raise DomainError("non-finite value", x)
        out.append({w0})
      return out

    return jet, values
"""

#: an evaluator's statements: an overflow or undefined operation in them is a DomainError at {at}
_GUARDED = """\
        try:
{body}
        except UNDEFINED as exc:
            raise undefined(exc, {{at}}) from exc"""

#: what emitted code reads besides its locals: math's functions under
#: their grammar names, math.pow as pow, and tuple.__new__ as new, which
#: builds a Jet3 without the NamedTuple's Python-level __new__
_NAMESPACE = {name: entry[0] for name, entry in _FUNCTIONS.items()}
_NAMESPACE.update(new=tuple.__new__, pow=math.pow, pow_value=_pow_value, undefined=_undefined,
                  LN10=math.log(10.0), nan=math.nan, inf=math.inf, Jet3=Jet3,
                  DomainError=DomainError, UNDEFINED=_UNDEFINED)

_LOCALS = ("w0", "w1", "w2", "w3", "g1", "g2", "g3", "s0", "s1", "s2", "s3")
_OPERANDS = ("u0", "u1", "u2", "u3", "v0", "v1", "v2", "v3")
_VALUES, _ZEROS = {"u0", "v0", "w0"}, ("0.0", "-0.0")


def _shape(node: ExprAST, literals: list):
    """``node`` as nested tuples of node kinds, with each literal replaced by "lit" and
    its value appended to ``literals``, a literal exponent (negated or not) by its
    value: all that its emitted source depends on."""
    if isinstance(node, Var):
        return "x"
    if isinstance(node, (Num, Const)):
        literals.append(node.value if isinstance(node, Num) else CONSTANTS[node.name])
        return "lit"
    if isinstance(node, (Neg, Call)):
        return "neg" if isinstance(node, Neg) else node.func, _shape(node.arg, literals)
    kind = node.op if node.op != "^" else "^v" if contains_var(node.right) else "^r"
    shapes = _shape(node.left, literals), _shape(node.right, exponent := [])
    if kind == "^r" and shapes[1] in ("lit", ("neg", "lit")):
        return kind, shapes[0], exponent[0] if shapes[1] == "lit" else -exponent[0]
    literals += exponent
    return (kind, *shapes)


def _power(r: float, f: dict):
    """u^r's rule at a literal r, folded: u^0 = 1 whatever u's jet; g_k = c_k u^(r-k), c_k =
    r (r-1) .. (r-k+1), is c_k at r = k, c_k u at r = k + 1, 0 where c_k is, save a zero g3
    while u1 is a name (g3 u1^3 raises where the cube overflows); pow_value passes whole r > 0."""
    if r == 0.0:
        f.update(w1="0.0", w2="0.0", w3="0.0")
        return "{w0} = 1.0", []
    c, lines = 1.0, ([], [])  # g1's, then g2's and g3's
    for k in (1, 2, 3):
        c, m, g = c * (r - (k - 1)), r - k, f"{{g{k}}} = "
        if c == 0.0 and k == 3 and f["u1"][0].isalpha():
            lines[1].append(g + "0.0")
        elif c == 0.0 or m == 0.0:
            f[f"g{k}"] = repr(c + 0.0)  # -0.0 + 0.0 is 0.0
        else:
            factor = "" if c == 1.0 else "-" if c == -1.0 else f"{c!r} * "
            lines[k > 1].append(g + factor + ("{u0}" if m == 1.0 else f"pow({{u0}}, {m!r})"))
    value = "{u0}" if r == 1.0 else "pow({u0}, {v0})" if r > 0.0 and r.is_integer() else _POW
    return "{w0} = " + value, [*lines[0], _CHAIN[0], *lines[1], *_CHAIN[1:]]


def _fold(statement, f: dict, lines: list, keep: bool, carried: set):
    """Append a derivative statement at the slots ``f`` to ``lines``, or pass its slot on
    as a name or number.  Each term loses its factors 1.0, multiplies out its leading
    numbers and takes their signs in front (exact: rounding is symmetric); unless
    ``keep``, one with a factor 0.0 or -0.0 is dropped.  A sum then gains a + 0.0 for a
    dropped +0.0 (names taken positive), and a value v (u0, v0, w0) that no kept term
    of the node reads enters as v - v instead, NaN where v is not finite, as v * 0.0 is."""
    (target, _, divisor), terms = statement[0].partition("/"), statement[1:]
    parts, total, plus0, named = [], -0.0, False, False  # -0.0 + t is t for every t
    for term in terms:
        lead, names, value = 1.0, [], 1.0  # value: each name read as 1.0
        factors = [factor.partition("^") for factor in term.split()]
        for key, _, power in factors:
            if (slot := f.get(key, key))[0].isalpha():
                names.append(f"{slot} ** {power}" if power else slot)
                continue
            value *= (c := float(slot) ** int(power or 1))
            if not names:
                lead *= c
            elif abs(c) != 1.0:
                names.append(repr(abs(c)))
        total += value
        sign = "-" if math.copysign(1.0, value) < 0.0 else "+"
        if keep or value != 0.0:
            named = named or bool(names)
            carried.update(f[key] for key, _, _ in factors if key in _VALUES)
            parts.append((sign, " * ".join([repr(abs(lead))] * (abs(lead) != 1.0) + names)
                          if names else repr(abs(value))))
            continue
        for key, _, _ in factors:  # the value, if any, that only this term reads
            if key in _VALUES and (v := f[key]) not in carried and not v.startswith("lit"):
                carried.add(v)
                parts.append((sign, f"({v} - {v})"))
                named = True
                break
        else:
            plus0 |= sign == "+"
    if not named:  # numbers alone: their sum, exact
        if total == 0.0 or not divisor:
            f[target] = repr(total)
            return
        parts, plus0 = [("+", repr(total))], False
    (sign, text), *rest = parts
    expr = (("0.0 - " if plus0 else "-") if sign == "-" else "") + text
    expr += "".join(f" {s} {t}" for s, t in rest)
    if plus0 and sign == "+" and not any(s + t[0] == "+(" for s, t in rest):
        expr += " + 0.0"
    if divisor:
        expr = f"{expr} / {f[divisor]}" if expr.isidentifier() else f"({expr}) / {f[divisor]}"
    if expr.isidentifier():
        f[target] = expr
    else:
        lines.append(f"{f[target]} = {expr}")


@lru_cache(maxsize=256)
def _emit(shape) -> dict:
    """One tree shape's literal names, d0..d3 names and value, slope and jet blocks at x: the
    d0 statements, then the d1, then all; and the factors of its finiteness tests, 0.0 times
    each slot, +-0.0 or NaN.  A chained node's derivatives with /, ** or a call but sin or cos
    come out NaN where they raise (float +, - and * never do, sin and cos only where d0 has),
    so all fail alike wherever the value does.  Cached: the xi-ODE's stage reads it too."""
    value, slope, jet, literals = [], [], [], []

    def emit(shape):  # -> the names (or float literals) of its d0..d3
        if shape == "x":
            return "x", "1.0", "0.0", "0.0"
        if isinstance(shape, float):  # a literal exponent
            return repr(shape), "0.0", "0.0", "0.0"
        if shape == "lit":
            literals.append(f"lit{len(literals)}")
            return literals[-1], "0.0", "0.0", "0.0"
        kind, *args = shape
        literal, marks = kind == "^r" and isinstance(args[1], float), (len(slope), len(jet))
        operands = sum(map(emit, args), ())
        if literal and args[1] == 0.0:  # u^0 reads none of u's derivatives
            del slope[marks[0]:], jet[marks[1]:]
        n = len(value)  # one d0 entry per node: a unique suffix
        f = {name: f"{name}_{n}" for name in _LOCALS}
        f.update(zip(_OPERANDS, operands))
        d0, derivatives = _power(args[1], f) if literal else _RULES[kind]
        value.append(d0.format(**f))
        chained = kind[0] == "^" or kind in _FUNCTIONS  # statements that can raise
        # over a constant operand, only g1 * 0.0 and the like show g's overflow or error
        keep = chained and f["v1" if kind == "^v" else "u1"] in _ZEROS
        carried, lines = set(), []
        for statement in derivatives:
            if isinstance(statement, str):
                lines.append(statement.format(**f))
            else:
                _fold(statement, f, lines, keep, carried)
        first = [line for line in lines if not re.match(r"[gsw][23]_", line)]  # the d1's
        for block, body, outs in ((slope, first, "w1"), (jet, lines, "w1 w2 w3")):
            body = "; ".join(body)
            names = " = ".join(filter(str.isidentifier, map(f.get, outs.split())))
            if chained and re.search(r"/|\*\*|\b(?!sin\(|cos\()\w+\(", body):
                body = f"try:\n    {body}\nexcept UNDEFINED:\n    {names} = nan"
            if kind == "^r" and not literal:  # u^0 is the constant 1, whatever u's derivatives
                body += f"\nif {f['v0']} == 0.0: {names} = 0.0"
            if body:
                block.append(body)
        return f["w0"], f["w1"], f["w2"], f["w3"]

    w = emit(shape)
    blocks = {key: _GUARDED.format(body="\n".join(
        " " * 12 + line for part in lines or ["pass"] for line in part.split("\n")))
        for key, lines in (("value", value), ("slope", value + slope), ("jet", value + jet))}
    blocks.update((f"fin{k}", f" * {v}" if v.isidentifier() or not math.isfinite(float(v)) else "")
                  for k, v in enumerate(w))  # a finite number needs no factor: 0.0 * it is 0.0
    return dict(blocks, literals="".join(name + ", " for name in literals), **dict(zip(_LOCALS, w)))


def _source(shape) -> str:
    """One shape's evaluators, in a ``bind`` over its literals: each raises at x."""
    return _SOURCE.format(**_emit(shape)).replace("{at}", "x")


_CACHE = os.path.dirname(importlib.util.cache_from_source(__file__))


def _compiled(source: str, filename: str):
    """``compile(source, filename, "exec")`` kept, as bytecode is, in the package's ``__pycache__``
    or where ``PYTHONPYCACHEPREFIX`` moves it: reused where magic, filename and source match;
    not written under ``sys.dont_write_bytecode``; a miss beside 256 entries removes them first;
    a failed I/O compiles."""
    key = (importlib.util.MAGIC_NUMBER, filename, source)
    path = os.path.join(_CACHE, "emitted-%08x-%d.%s" % (
        zlib.crc32(source.encode()), len(source), sys.implementation.cache_tag))
    with suppress(OSError, EOFError, ValueError, TypeError), open(path, "rb") as fh:
        magic, name, text, code = marshal.loads(fh.read())
        if (magic, name, text) == key:
            return code
    code = compile(source, filename, "exec")
    if not sys.dont_write_bytecode:
        temp = f"{path}.{os.getpid()}"
        try:  # atomically, as the import system writes a .pyc
            if len(kept := [e for e in os.listdir(_CACHE) if e.startswith("emitted-")]) >= 256:
                for entry in kept:
                    with suppress(OSError):
                        os.remove(os.path.join(_CACHE, entry))
            with open(temp, "wb") as fh:
                fh.write(marshal.dumps((*key, code)))
            os.replace(temp, path)
        except OSError:
            with suppress(OSError):
                os.remove(temp)
    return code


@lru_cache(maxsize=256)
def _factory(shape):
    """``bind`` of :func:`_source`'s code, compiled once per shape in a bounded cache."""
    namespace = dict(_NAMESPACE)
    exec(_compiled(_source(shape), "<trapcorr.expr emitted>"), namespace)
    return namespace["bind"]


def eval_jet(ast: ExprAST, x: float) -> Jet3:
    """Evaluate ``ast`` and its first three derivatives at ``x``.

    Raises :class:`DomainError` when the point is outside the
    expression's domain or any component fails to be finite.
    """
    return ast._evaluators[0](x)


def eval_value(ast: ExprAST, x: float) -> float:
    """Evaluate just the value of ``ast`` at ``x``: the jet's d0, defined
    also where a derivative is not (``sqrt`` at 0)."""
    return ast._evaluators[1]((x,))[0]


def eval_values(ast: ExprAST, xs: list[float]) -> list[float]:
    """``[eval_value(ast, x) for x in xs]`` in one call: the first failing x raises."""
    return ast._evaluators[1](xs)
