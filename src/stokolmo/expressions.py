"""Arithmetic expression trees for per-capita growth and noise amplitude functions.

Concrete syntax: numbers, variables ``x1 .. xn``, binary ``+ - * / ^``
(``^`` is right associative exponentiation, ``**`` is accepted as an
alias), unary minus, and the unary functions ``exp``, ``ln``, ``sqrt``.
Whitespace is free.  Parsing reports syntax errors, nesting deeper than
``_MAX_DEPTH`` levels included, with the byte offset of the offending
token; evaluation reports division by zero, ``ln``/``sqrt`` off their
domain and a non-finite ``exp`` or ``^`` with the offending
subexpression printed back.  A finite-input sum, product or quotient
that overflows (``x1*1e308*10``) is not reported, because a finiteness
scan at every arithmetic node would cost a full-array pass per node per
engine step; in simulation only the engine's nan and -inf aborts catch it.

An expression compiles once into a tape: a flat, post-order list of
ufunc calls and domain checks, the tree's own ops in the tree's own
order, with only the folds that keep every bit (constant ``+ - *`` and
unary minus, and ``x*1``, ``1*x``, ``x - 0.0``, ``x + -0.0``, ``-0.0 + x``).
``bind_tapes`` turns tapes into calls bound once to fixed arrays, written
with ``out=`` into buffers made at binding, so the simulation engine runs
a block's drift every step with no allocation and no tree walk.  Calling a
tape evaluates it at scalars or numpy arrays per variable, broadcast
elementwise.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, replace
from typing import Callable, Sequence, Union

import numpy as np

from .errors import StokolmoError

Value = Union[float, np.ndarray]


class ExpressionError(StokolmoError):
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
            if math.isinf(val):
                raise ExpressionSyntaxError(f"number literal '{text[i:j]}' overflows to inf", i)
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
        s = f"-{_fmt_signed(e.arg, _PREC['neg'])}"
        return s if parent_prec < _PREC["neg"] else f"({s})"
    if isinstance(e, Call):
        return f"{e.fn}({_fmt(e.arg, 0)})"
    if isinstance(e, BinOp):
        prec = _PREC[e.op]
        # left-associative ops need tighter right side; ^ the reverse
        if e.op == "^":
            left = _fmt(e.left, prec + 1)
            right = _fmt_signed(e.right, prec)
        else:
            left = _fmt(e.left, prec)
            right = _fmt(e.right, prec + 1)
        s = f"{left} {e.op} {right}"
        return s if prec >= parent_prec else f"({s})"
    raise TypeError(f"not an expression node: {e!r}")


def _fmt_signed(e: Expression, parent_prec: int) -> str:
    """Print ``e`` where the grammar takes a signed factor (the operand of a
    unary minus, an exponent): a negation needs no parentheses there, and
    leaving them out keeps the echo of a deep tree within the parser's
    depth limit."""
    return _fmt(e, 0) if isinstance(e, Neg) else _fmt(e, parent_prec)


# ---------------------------------------------------------------------------
# evaluation
#
# An expression compiles to a tape: its ufunc calls and domain checks in
# post order, each reading and writing references.  A reference is
# ("x", j) for variable j, ("c", v) for a constant v known at compile time,
# ("s", k) and ("k", k) for buffer k of the evaluation's shape and of shape
# (), and ("o", None) for the row the result goes to.  Buffers are numbered
# as a stack: an operand waiting for its sibling holds the lowest number,
# so a tape needs as many buffers as its tree is deep, not one per node.

_UFUNCS = {"+": np.add, "-": np.subtract, "*": np.multiply, "ln": np.log,
           "sqrt": np.sqrt}
_FOLD = {"+": operator.add, "-": operator.sub, "*": operator.mul}
_OUT = ("o", None)


def _copy(src, out):
    np.copyto(out, src)


def _has_zero(a: np.ndarray) -> bool:
    return not a.all()


def _has_nonpositive(a: np.ndarray) -> bool:
    return bool((a <= 0.0).any())


def _has_negative(a: np.ndarray) -> bool:
    return bool((a < 0.0).any())


def _has_nonfinite(a: np.ndarray) -> bool:
    return not np.isfinite(a).all()


@dataclass(frozen=True)
class _Step:
    fn: Callable                  # a ufunc, or a check's test for a failure
    args: tuple                   # references read
    out: tuple | None = None      # reference a ufunc writes; None for a check
    quiet: tuple = ()             # np.errstate settings the ufunc runs under
    error: tuple = ()             # (message, subexpression) a check raises


def _is_const(ref, v: float) -> bool:
    """Whether ``ref`` is the compile-time constant ``v``, sign of zero included."""
    return (ref[0] == "c" and ref[1] == v
            and math.copysign(1.0, ref[1]) == math.copysign(1.0, v))


def _next_free(ref, depth: int) -> int:
    return ref[1] + 1 if ref[0] in "sk" else depth


class Tape:
    """A compiled expression: its ufunc calls and domain checks in post order.

    :func:`bind_tapes` turns tapes into calls over fixed arrays, which see
    the arrays change in place; calling a tape evaluates it once, at
    variable i bound to ``x[i]``.  ``slots`` counts the buffers of each
    kind a binding makes for it.
    """

    def __init__(self, e: Expression):
        self.steps: list[_Step] = []
        self.slots = {"s": 0, "k": 0}
        res = self._emit(e, 0)
        if res[0] == "s":
            # the last write of the result goes to the result row, and so do
            # the checks after it, which read it
            w = max(i for i, s in enumerate(self.steps) if s.out == res)
            self.steps[w] = replace(self.steps[w], out=_OUT)
            self.steps[w + 1:] = [
                replace(s, args=tuple(_OUT if a == res else a for a in s.args))
                for s in self.steps[w + 1:]]
        else:
            self.steps.append(_Step(_copy, (res,), _OUT))

    def _op(self, fn, args: tuple, depth: int, quiet: tuple = ()) -> tuple:
        kind = "k" if all(a[0] in "ck" for a in args) else "s"
        self.slots[kind] = max(self.slots[kind], depth + 1)
        out = (kind, depth)
        self.steps.append(_Step(fn, args, out, quiet))
        return out

    def _check(self, test, ref, message: str, e: Expression):
        self.steps.append(_Step(test, (ref,), error=(message, format_expression(e))))

    def _emit(self, e: Expression, depth: int) -> tuple:
        """Append the steps of ``e``, whose result may use buffers numbered
        ``depth`` and up, and return the reference to its result.

        Folding keeps every bit: constant ``+ - *`` and unary minus become the
        float they evaluate to, and ``x*1``, ``1*x``, ``x - 0.0``, ``x + -0.0``
        and ``-0.0 + x`` become ``x``.  ``x + 0.0`` turns -0.0 into 0.0 and
        ``0*x`` is not 0 at nan or inf, so they stay; so does a constant
        ``/ ^ exp ln sqrt``, whose domain error belongs to evaluation."""
        if isinstance(e, Num):
            return ("c", e.value)
        if isinstance(e, Var):
            return ("x", e.index)
        if isinstance(e, Neg):
            a = self._emit(e.arg, depth)
            if a[0] == "c":
                return ("c", -a[1])
            return self._op(np.negative, (a,), depth)
        if isinstance(e, Call):
            a = self._emit(e.arg, depth)
            if e.fn == "exp":
                out = self._op(np.exp, (a,), depth, (("over", "ignore"),))
                self._check(_has_nonfinite, out, "exp overflow", e)
                return out
            if e.fn == "ln":
                self._check(_has_nonpositive, a, "ln of non-positive argument", e)
            else:
                self._check(_has_negative, a, "sqrt of negative argument", e)
            return self._op(_UFUNCS[e.fn], (a,), depth)
        if not isinstance(e, BinOp):
            raise TypeError(f"not an expression node: {e!r}")
        if e.op == "/":
            # the denominator and its check come before the numerator
            b = self._emit(e.right, depth)
            if not (b[0] == "c" and b[1] != 0.0):
                self._check(_has_zero, b, "division by zero", e)
            a = self._emit(e.left, _next_free(b, depth))
            return self._op(np.divide, (a, b), depth)
        a = self._emit(e.left, depth)
        b = self._emit(e.right, _next_free(a, depth))
        if e.op == "^":
            out = self._op(np.power, (a, b), depth,
                           (("over", "ignore"), ("invalid", "ignore")))
            self._check(_has_nonfinite, out, "power outside real domain or overflow", e)
            return out
        if a[0] == "c" and b[0] == "c":
            return ("c", _FOLD[e.op](a[1], b[1]))
        if (e.op == "*" and _is_const(b, 1.0) or e.op == "-" and _is_const(b, 0.0)
                or e.op == "+" and _is_const(b, -0.0)):
            return a
        if e.op == "*" and _is_const(a, 1.0) or e.op == "+" and _is_const(a, -0.0):
            return b
        return self._op(_UFUNCS[e.op], (a, b), depth)

    def __call__(self, x: Sequence[Value]) -> Value:
        rows = [np.asarray(v, dtype=float) for v in x]
        out = np.empty((1,) + np.broadcast_shapes(*(r.shape for r in rows)))
        for call in bind_tapes([self], rows, out):
            call()
        return out[0, ...][()]


def _bound(step: _Step, resolve) -> Callable[[], object]:
    args = [resolve(a) for a in step.args]
    if step.error:
        test, (a,), error = step.fn, args, step.error

        def check():
            if test(a):
                raise ExpressionDomainError(*error)
        return check
    fn, out = step.fn, resolve(step.out)
    if step.quiet:
        quiet = dict(step.quiet)

        def quiet_call():
            with np.errstate(**quiet):
                fn(*args, out=out)
        return quiet_call
    return functools.partial(fn, *args, out=out)


def bind_tapes(tapes: Sequence[Tape], rows: Sequence[np.ndarray],
               out: np.ndarray) -> list[Callable[[], object]]:
    """The calls that evaluate ``tapes[i]`` into ``out[i]``, one tape after
    another, with variable j read from ``rows[j]``.

    The calls hold ``rows``, ``out`` and buffers made here, so they can run
    again after the rows change in place; a check raises
    :class:`ExpressionDomainError`, and the calls after it do not run.
    """
    pool = {"s": [np.empty(out.shape[1:]) for _ in range(max(t.slots["s"] for t in tapes))],
            "k": [np.empty(()) for _ in range(max(t.slots["k"] for t in tapes))]}
    calls = []
    for i, tape in enumerate(tapes):
        row = out[i, ...]

        def resolve(ref):
            kind, key = ref
            if kind == "x":
                return rows[key]
            if kind == "c":
                return np.array(key)
            return row if kind == "o" else pool[kind][key]
        calls += [_bound(step, resolve) for step in tape.steps]
    return calls


def compile_expression(e: Expression) -> Tape:
    """Compile ``e`` into a :class:`Tape`; calling it evaluates ``e`` with
    variable i bound to ``x[i]``.

    Components may be floats or numpy arrays that broadcast together.
    Division by zero, ``ln``/``sqrt`` outside their domain, and non-finite
    results of ``exp``/``^`` raise :class:`ExpressionDomainError`, in the
    order a post-order walk meets them (a denominator before its
    numerator); an overflowing sum, product or quotient returns inf or nan
    unreported, since a scan there would cost a full-array pass per node
    per engine step.  The tape's ops are the tree's, in the same order, so
    its values keep every bit of a node-by-node evaluation.
    """
    return Tape(e)


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
