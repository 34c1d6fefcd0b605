"""Arithmetic expression trees for per-capita growth and noise amplitude functions.

Concrete syntax: numbers, variables ``x1 .. xn``, binary ``+ - * / ^``
(``^`` is right associative exponentiation, ``**`` is accepted as an
alias), unary minus, and the unary functions ``exp``, ``ln``, ``sqrt``.
Whitespace is free.  Parsing reports syntax errors, nesting deeper than
``_MAX_DEPTH`` levels included, with the byte offset of the offending
token; evaluation reports domain violations (division by zero,
``ln``/``sqrt`` off their domain, non-finite intermediate results) with
the offending subexpression printed back, so a bad model file never
turns into a silent NaN downstream.

Evaluation accepts scalars or numpy arrays per variable and broadcasts
elementwise, which is what the simulation engine feeds it (one array
across concurrent sample paths).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

Value = Union[float, np.ndarray]


class ExpressionError(ValueError):
    pass


class ExpressionSyntaxError(ExpressionError):
    """Raised by the parser; ``offset`` is the 0-based position in the source."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class ExpressionDomainError(ExpressionError):
    """Raised by evaluation; ``subexpression`` is the node that failed."""

    def __init__(self, message: str, subexpression: str):
        super().__init__(f"{message} in '{subexpression}'")
        self.subexpression = subexpression


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    index: int  # 0-based; prints as x{index+1}


@dataclass(frozen=True)
class Neg:
    arg: "Expression"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class Call:
    fn: str  # exp | ln | sqrt
    arg: "Expression"


Expression = Union[Num, Var, Neg, BinOp, Call]

_FUNCTIONS = ("exp", "ln", "sqrt")


# ---------------------------------------------------------------------------
# tokenizer / parser

_TOK_NUM = "num"
_TOK_IDENT = "ident"
_TOK_OP = "op"
_TOK_LPAREN = "("
_TOK_RPAREN = ")"
_TOK_END = "end"


def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            seen_e = False
            while j < n:
                d = text[j]
                if d.isdigit() or d == ".":
                    j += 1
                elif d in "eE" and not seen_e:
                    seen_e = True
                    j += 1
                    if j < n and text[j] in "+-":
                        j += 1
                else:
                    break
            try:
                val = float(text[i:j])
            except ValueError:
                raise ExpressionSyntaxError(f"bad number literal '{text[i:j]}'", i)
            tokens.append((_TOK_NUM, val, i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append((_TOK_IDENT, text[i:j], i))
            i = j
            continue
        if text.startswith("**", i):
            tokens.append((_TOK_OP, "^", i))
            i += 2
            continue
        if c in "+-*/^":
            tokens.append((_TOK_OP, c, i))
            i += 1
            continue
        if c == "(":
            tokens.append((_TOK_LPAREN, c, i))
            i += 1
            continue
        if c == ")":
            tokens.append((_TOK_RPAREN, c, i))
            i += 1
            continue
        raise ExpressionSyntaxError(f"unexpected character {c!r}", i)
    tokens.append((_TOK_END, "", n))
    return tokens


_MAX_DEPTH = 200   # deepest expression accepted, in levels (see _Parser)


class _Parser:
    """Recursive descent that measures the depth of what it builds.

    A node, a pair of parentheses and a unary plus are one level each.
    Each method gets the number of levels open around it and returns
    (node, height); crossing ``_MAX_DEPTH`` levels is a syntax error at
    that token, raised before the parser recurses deeper.  Parsing takes
    three frames a level and every later tree walk one, so no input can
    exhaust the interpreter stack.
    """

    def __init__(self, text: str, n_vars: int):
        self.text = text
        self.n_vars = n_vars
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.advance()
        if tok[0] != kind:
            raise ExpressionSyntaxError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def check(self, levels: int, tok):
        if levels > _MAX_DEPTH:
            raise ExpressionSyntaxError(
                f"expression nested deeper than {_MAX_DEPTH} levels", tok[2])

    # expr := term (('+'|'-') term)*
    def parse_expr(self, level: int):
        node, h = self.parse_term(level)
        while self.peek()[0] == _TOK_OP and self.peek()[1] in "+-":
            tok = self.advance()
            right, hr = self.parse_term(level)
            node, h = BinOp(tok[1], node, right), max(h, hr) + 1
            self.check(level + h, tok)
        return node, h

    # term := factor (('*'|'/') factor)*
    def parse_term(self, level: int):
        node, h = self.parse_factor(level)
        while self.peek()[0] == _TOK_OP and self.peek()[1] in "*/":
            tok = self.advance()
            right, hr = self.parse_factor(level)
            node, h = BinOp(tok[1], node, right), max(h, hr) + 1
            self.check(level + h, tok)
        return node, h

    # factor := ('-'|'+') factor | atom ('^' factor)?
    # atom   := number | variable | fn '(' expr ')' | '(' expr ')'
    # ^ is right associative and its exponent may be signed; atoms are
    # parsed here, not in a method of their own, to save a frame per level
    def parse_factor(self, level: int):
        tok = self.advance()
        kind, val, offset = tok
        self.check(level + 1, tok)
        if kind == _TOK_OP and val in "+-":
            arg, h = self.parse_factor(level + 1)
            return (Neg(arg) if val == "-" else arg), h + 1
        if kind == _TOK_NUM:
            node, h = Num(val), 1
        elif kind == _TOK_LPAREN:
            node, h = self.parse_expr(level + 1)
            self.expect(_TOK_RPAREN)
            h += 1
        elif kind == _TOK_IDENT and val in _FUNCTIONS:
            self.expect(_TOK_LPAREN)
            arg, h = self.parse_expr(level + 1)
            self.expect(_TOK_RPAREN)
            node, h = Call(val, arg), h + 1
        elif kind == _TOK_IDENT and val.startswith("x") and val[1:].isdigit():
            k = int(val[1:])
            if not 1 <= k <= self.n_vars:
                raise ExpressionSyntaxError(
                    f"variable {val} out of range 1..{self.n_vars}", offset)
            node, h = Var(k - 1), 1
        elif kind == _TOK_IDENT:
            raise ExpressionSyntaxError(f"unknown identifier {val!r}", offset)
        else:
            raise ExpressionSyntaxError(f"unexpected token {val!r}", offset)
        if self.peek()[0] == _TOK_OP and self.peek()[1] == "^":
            tok = self.advance()
            exponent, he = self.parse_factor(level + 1)
            node, h = BinOp("^", node, exponent), max(h, he) + 1
            self.check(level + h, tok)
        return node, h


def parse_expression(text: str, n_vars: int) -> Expression:
    """Parse ``text`` over variables x1..x{n_vars} into an expression tree."""
    p = _Parser(text, n_vars)
    node, _ = p.parse_expr(0)
    end = p.advance()
    if end[0] != _TOK_END:
        raise ExpressionSyntaxError(f"trailing input {end[1]!r}", end[2])
    return node


# ---------------------------------------------------------------------------
# printing

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def format_expression(e: Expression) -> str:
    """Render a tree back to concrete syntax; reparsing gives an equivalent tree."""
    return _fmt(e, 0)


def _fmt(e: Expression, parent_prec: int) -> str:
    if isinstance(e, Num):
        v = e.value
        s = repr(v) if v != int(v) or abs(v) >= 1e16 else str(int(v))
        if v < 0:
            return s if parent_prec == 0 else f"({s})"
        return s
    if isinstance(e, Var):
        return f"x{e.index + 1}"
    if isinstance(e, Neg):
        inner = _fmt(e.arg, _PREC["neg"])
        s = f"-{inner}"
        return s if parent_prec < _PREC["neg"] else f"({s})"
    if isinstance(e, Call):
        return f"{e.fn}({_fmt(e.arg, 0)})"
    if isinstance(e, BinOp):
        prec = _PREC[e.op]
        # left-associative ops need tighter right side; ^ the reverse
        if e.op == "^":
            left = _fmt(e.left, prec + 1)
            right = _fmt(e.right, prec)
        else:
            left = _fmt(e.left, prec)
            right = _fmt(e.right, prec + 1)
        s = f"{left} {e.op} {right}"
        return s if prec >= parent_prec else f"({s})"
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# evaluation

def _any(cond) -> bool:
    if isinstance(cond, np.ndarray):
        return bool(np.any(cond))
    return bool(cond)


def compile_expression(e: Expression) -> Callable[[Sequence[Value]], Value]:
    """Build a closure evaluating ``e`` with variable i bound to ``x[i]``.

    Components may be floats or equally shaped numpy arrays.  Division by
    zero, ``ln``/``sqrt`` outside their domain, and non-finite results of
    ``exp``/``^`` raise :class:`ExpressionDomainError`.  Each node becomes
    one closure, so the integrator hot path, which evaluates the tree every
    time step, pays no per-node dispatch.
    """
    if isinstance(e, Num):
        v = e.value
        return lambda x: v
    if isinstance(e, Var):
        i = e.index
        return lambda x: x[i]
    if isinstance(e, Neg):
        f = compile_expression(e.arg)
        return lambda x: -f(x)
    if isinstance(e, Call):
        f = compile_expression(e.arg)
        label = format_expression(e)
        if e.fn == "exp":
            def _exp(x):
                with np.errstate(over="ignore"):
                    out = np.exp(f(x))
                if _any(~np.isfinite(out)):
                    raise ExpressionDomainError("exp overflow", label)
                return out
            return _exp
        if e.fn == "ln":
            def _ln(x):
                v = f(x)
                if _any(np.asarray(v) <= 0.0):
                    raise ExpressionDomainError("ln of non-positive argument", label)
                return np.log(v)
            return _ln
        if e.fn == "sqrt":
            def _sqrt(x):
                v = f(x)
                if _any(np.asarray(v) < 0.0):
                    raise ExpressionDomainError("sqrt of negative argument", label)
                return np.sqrt(v)
            return _sqrt
    if isinstance(e, BinOp):
        fa = compile_expression(e.left)
        fb = compile_expression(e.right)
        if e.op == "+":
            return lambda x: fa(x) + fb(x)
        if e.op == "-":
            return lambda x: fa(x) - fb(x)
        if e.op == "*":
            return lambda x: fa(x) * fb(x)
        label = format_expression(e)
        if e.op == "/":
            def _div(x):
                den = fb(x)
                if _any(np.asarray(den) == 0.0):
                    raise ExpressionDomainError("division by zero", label)
                return fa(x) / den
            return _div
        if e.op == "^":
            def _pow(x):
                with np.errstate(over="ignore", invalid="ignore"):
                    out = np.power(fa(x), fb(x))
                if _any(~np.isfinite(out)):
                    raise ExpressionDomainError(
                        "power outside real domain or overflow", label
                    )
                return out
            return _pow
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# structural helpers

def substitute_zero_and_remap(e: Expression, keep: Sequence[int]) -> Expression:
    """Set variables outside ``keep`` to zero and renumber the kept ones.

    ``keep`` lists 0-based variable indices in ascending order; index
    keep[r] becomes the new variable r.  Used when a system is restricted
    to a boundary face where the dropped species are extinct.
    """
    rank = {v: r for r, v in enumerate(keep)}

    def walk(node: Expression) -> Expression:
        if isinstance(node, Num):
            return node
        if isinstance(node, Var):
            if node.index in rank:
                return Var(rank[node.index])
            return Num(0.0)
        if isinstance(node, Neg):
            return Neg(walk(node.arg))
        if isinstance(node, Call):
            return Call(node.fn, walk(node.arg))
        if isinstance(node, BinOp):
            return BinOp(node.op, walk(node.left), walk(node.right))
        raise TypeError(f"not an expression node: {node!r}")

    return walk(e)


def expression_variables(e: Expression) -> set[int]:
    """0-based indices of variables appearing in the tree."""
    out: set[int] = set()

    def walk(node: Expression):
        if isinstance(node, Var):
            out.add(node.index)
        elif isinstance(node, Neg):
            walk(node.arg)
        elif isinstance(node, Call):
            walk(node.arg)
        elif isinstance(node, BinOp):
            walk(node.left)
            walk(node.right)

    walk(e)
    return out
