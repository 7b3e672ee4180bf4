"""Symbolic expressions in the variables x and t.

A tiny closed-form expression language backs all user-supplied coefficient
and data functions.  Keeping the representation symbolic (rather than
accepting opaque callables) lets the rest of the package differentiate data
exactly, which the compatibility checks and the recursive corrector
construction both need.

Grammar accepted by :func:`parse`::

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := '-' factor | power
    power   := atom ('^' signed_int)*
    atom    := number | 'pi' | 'e' | 'x' | 't' | func '(' expr ')' | '(' expr ')'
    func    := sin | cos | exp | sqrt | cosh | sinh

Exponents are restricted to integer literals so that repeated
differentiation stays inside the language.

:meth:`Expr.evaluate` alone fixes the type and shape of a value: a Python
float from two scalars, else a fresh float array of the broadcast shape of
``x`` and ``t``.  Callers use it as it comes.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import ExprDomainError, ExprSyntaxError

__all__ = [
    "Expr",
    "Const",
    "Var",
    "Add",
    "Sub",
    "Mul",
    "Div",
    "Pow",
    "Neg",
    "Call",
    "parse",
    "const",
    "var",
    "add",
    "sub",
    "mul",
    "div",
    "pow_int",
    "neg",
    "call",
]

MAX_DIFF_ORDER = 12

_NUMPY_FUNCS = {name: getattr(np, name)
                for name in ("sin", "cos", "exp", "sqrt", "cosh", "sinh")}


@dataclass(frozen=True)
class Expr:
    """Base node.  Subclasses are immutable and hashable."""

    def evaluate(self, x, t):
        """Value at ``(x, t)``: a Python float from two scalars, computed in
        Python floats so that an overflowing power raises; else a new writeable
        float array of the broadcast shape that shares no memory with x or t.
        Nodes broadcast their children and the result is expanded once, at the
        end; the domain checks see the same values either way."""
        if np.ndim(x) == 0 and np.ndim(t) == 0:
            return float(self._eval(float(x), float(t)))
        x, t = np.asarray(x, dtype=float), np.asarray(t, dtype=float)
        shape = np.broadcast_shapes(x.shape, t.shape)
        if 0 in shape:  # no values, so no domain error
            return np.zeros(shape)
        v = self._eval(x, t)
        if np.shape(v) == shape and v is not x and v is not t:
            return v
        return np.broadcast_to(v, shape).copy()

    def _eval(self, x, t):
        """This node's value from its children's, by numpy broadcasting."""
        raise NotImplementedError

    def diff(self, wrt: str) -> "Expr":
        """Exact partial derivative with respect to ``'x'`` or ``'t'``."""
        raise NotImplementedError

    def diff_n(self, wrt: str, n: int) -> "Expr":
        if n < 0 or n > MAX_DIFF_ORDER:
            raise ValueError(f"derivative order {n} outside [0, {MAX_DIFF_ORDER}]")
        e: Expr = self
        for _ in range(n):
            e = e.diff(wrt)
        return e

    def is_zero(self) -> bool:
        return isinstance(self, Const) and self.value == 0.0

    def free_vars(self) -> frozenset[str]:
        """Names of the variables in the tree; structural, so t - t uses t."""
        kids = [c for c in vars(self).values() if isinstance(c, Expr)]
        return frozenset().union(*(c.free_vars() for c in kids))


@dataclass(frozen=True)
class Const(Expr):
    value: float

    def _eval(self, x, t):
        return self.value

    def diff(self, wrt: str) -> Expr:
        return Const(0.0)

    def __str__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True)
class Var(Expr):
    name: str  # 'x' or 't'

    def _eval(self, x, t):
        return x if self.name == "x" else t

    def diff(self, wrt: str) -> Expr:
        return Const(1.0 if wrt == self.name else 0.0)

    def free_vars(self) -> frozenset[str]:
        return frozenset({self.name})

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Add(Expr):
    a: Expr
    b: Expr

    def _eval(self, x, t):
        return self.a._eval(x, t) + self.b._eval(x, t)

    def diff(self, wrt: str) -> Expr:
        return add(self.a.diff(wrt), self.b.diff(wrt))

    def __str__(self) -> str:
        return f"({self.a} + {self.b})"


@dataclass(frozen=True)
class Sub(Expr):
    a: Expr
    b: Expr

    def _eval(self, x, t):
        return self.a._eval(x, t) - self.b._eval(x, t)

    def diff(self, wrt: str) -> Expr:
        return sub(self.a.diff(wrt), self.b.diff(wrt))

    def __str__(self) -> str:
        return f"({self.a} - {self.b})"


@dataclass(frozen=True)
class Mul(Expr):
    a: Expr
    b: Expr

    def _eval(self, x, t):
        return self.a._eval(x, t) * self.b._eval(x, t)

    def diff(self, wrt: str) -> Expr:
        return add(mul(self.a.diff(wrt), self.b), mul(self.a, self.b.diff(wrt)))

    def __str__(self) -> str:
        return f"({self.a} * {self.b})"


@dataclass(frozen=True)
class Div(Expr):
    a: Expr
    b: Expr

    def _eval(self, x, t):
        denom = self.b._eval(x, t)
        if np.any(denom == 0.0):
            raise ExprDomainError(f"division by zero in {self}")
        return self.a._eval(x, t) / denom

    def diff(self, wrt: str) -> Expr:
        num = sub(mul(self.a.diff(wrt), self.b), mul(self.a, self.b.diff(wrt)))
        return div(num, mul(self.b, self.b))

    def __str__(self) -> str:
        return f"({self.a} / {self.b})"


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: int

    def _eval(self, x, t):
        b = self.base._eval(x, t)
        if self.exponent < 0 and np.any(b == 0.0):
            raise ExprDomainError(f"zero raised to negative power in {self}")
        try:
            return b ** self.exponent
        except OverflowError:  # a Python float power; arrays give inf
            raise ExprDomainError(f"overflow in {self}") from None

    def diff(self, wrt: str) -> Expr:
        # d(b^n) = n * b^(n-1) * b'
        return mul(
            mul(Const(float(self.exponent)), pow_int(self.base, self.exponent - 1)),
            self.base.diff(wrt),
        )

    def __str__(self) -> str:
        return f"({self.base}^{self.exponent})"


@dataclass(frozen=True)
class Neg(Expr):
    a: Expr

    def _eval(self, x, t):
        return -self.a._eval(x, t)

    def diff(self, wrt: str) -> Expr:
        return neg(self.a.diff(wrt))

    def __str__(self) -> str:
        return f"(-{self.a})"


@dataclass(frozen=True)
class Call(Expr):
    func: str
    arg: Expr

    def _eval(self, x, t):
        v = self.arg._eval(x, t)
        if self.func == "sqrt" and np.any(v < 0.0):
            raise ExprDomainError(f"sqrt of negative value in {self}")
        return _NUMPY_FUNCS[self.func](v)

    def diff(self, wrt: str) -> Expr:
        inner = self.arg.diff(wrt)
        if self.func == "sin":
            outer: Expr = call("cos", self.arg)
        elif self.func == "cos":
            outer = neg(call("sin", self.arg))
        elif self.func == "exp":
            outer = self
        elif self.func == "cosh":
            outer = call("sinh", self.arg)
        elif self.func == "sinh":
            outer = call("cosh", self.arg)
        elif self.func == "sqrt":
            outer = div(Const(0.5), call("sqrt", self.arg))
        else:  # pragma: no cover - constructor guards the function list
            raise ValueError(f"unknown function {self.func}")
        return mul(outer, inner)

    def __str__(self) -> str:
        return f"{self.func}({self.arg})"


# --- smart constructors ---------------------------------------------------
#
# These fold constants so that repeated differentiation does not blow up the
# tree.  Folding must not hide a domain error: 0 / u and 0 ^ negative are
# left unfolded.


def const(v: float) -> Const:
    return Const(float(v))


def var(name: str) -> Var:
    if name not in ("x", "t"):
        raise ValueError(f"unknown variable {name!r}")
    return Var(name)


def add(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value + b.value)
    if a.is_zero():
        return b
    if b.is_zero():
        return a
    return Add(a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value - b.value)
    if b.is_zero():
        return a
    if a.is_zero():
        return neg(b)
    return Sub(a, b)


def mul(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value * b.value)
    if a.is_zero() or b.is_zero():
        return Const(0.0)
    if isinstance(a, Const) and a.value == 1.0:
        return b
    if isinstance(b, Const) and b.value == 1.0:
        return a
    if isinstance(a, Const) and a.value == -1.0:
        return neg(b)
    if isinstance(b, Const) and b.value == -1.0:
        return neg(a)
    return Mul(a, b)


def div(a: Expr, b: Expr) -> Expr:
    if isinstance(b, Const):
        if b.value == 0.0:
            raise ExprDomainError("division by constant zero")
        if isinstance(a, Const):
            return Const(a.value / b.value)
        if b.value == 1.0:
            return a
    # 0 / u is NOT folded: u may vanish at evaluation points and the
    # division must then raise, matching unfolded semantics.
    return Div(a, b)


def pow_int(base: Expr, exponent: int) -> Expr:
    if exponent == 0:
        # u^0 == 1 for any u under integer-power semantics, including u == 0.
        return Const(1.0)
    if exponent == 1:
        return base
    if isinstance(base, Const):
        if base.value == 0.0 and exponent < 0:
            raise ExprDomainError("zero raised to negative power")
        try:
            return Const(base.value ** exponent)
        except OverflowError:
            raise ExprDomainError(f"overflow in {base}^{exponent}") from None
    return Pow(base, exponent)


def neg(a: Expr) -> Expr:
    if isinstance(a, Const):
        return Const(-a.value)
    if isinstance(a, Neg):
        return a.a
    return Neg(a)


def call(func: str, arg: Expr) -> Expr:
    if func not in _NUMPY_FUNCS:
        raise ValueError(f"unknown function {func!r}")
    if isinstance(arg, Const):
        v = arg.value
        if func == "sqrt" and v < 0.0:
            raise ExprDomainError("sqrt of negative constant")
        with np.errstate(over="ignore"):
            folded = float(_NUMPY_FUNCS[func](v))
        if math.isfinite(v) and not math.isfinite(folded):
            raise ExprDomainError(f"overflow in {func}({v!r})")
        return Const(folded)
    return Call(func, arg)


# --- parser ---------------------------------------------------------------


@dataclass
class _Tok:
    kind: str  # 'num', 'name', 'op'
    text: str
    pos: int


# ASCII digits and letters only: str.isdigit would also take '²' and '٣'
_TOKEN = re.compile(r"(?P<num>(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)"
                    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*/^()])|(?P<space>\s+)")


def _tokenize(s: str) -> list[_Tok]:
    toks: list[_Tok] = []
    i = 0
    while i < len(s):
        m = _TOKEN.match(s, i)
        if m is None:
            raise ExprSyntaxError(f"unexpected character {s[i]!r}", i)
        if m.lastgroup != "space":
            toks.append(_Tok(m.lastgroup, m.group(), i))
        i = m.end()
    return toks


@dataclass
class _Parser:
    toks: list[_Tok]
    src_len: int
    pos: int = 0

    def peek(self) -> _Tok | None:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def next(self) -> _Tok:
        t = self.peek()
        if t is None:
            raise ExprSyntaxError("unexpected end of expression", self.src_len)
        self.pos += 1
        return t

    def expect_op(self, text: str) -> None:
        t = self.peek()
        if t is None or t.kind != "op" or t.text != text:
            where = t.pos if t is not None else self.src_len
            raise ExprSyntaxError(f"expected {text!r}", where)
        self.pos += 1

    def parse_expr(self) -> Expr:
        e = self.parse_term()
        while True:
            t = self.peek()
            if t is not None and t.kind == "op" and t.text in "+-":
                self.pos += 1
                rhs = self.parse_term()
                e = add(e, rhs) if t.text == "+" else sub(e, rhs)
            else:
                return e

    def parse_term(self) -> Expr:
        e = self.parse_factor()
        while True:
            t = self.peek()
            if t is not None and t.kind == "op" and t.text in "*/":
                self.pos += 1
                rhs = self.parse_factor()
                e = mul(e, rhs) if t.text == "*" else div(e, rhs)
            else:
                return e

    def parse_factor(self) -> Expr:
        t = self.peek()
        if t is not None and t.kind == "op" and t.text == "-":
            self.pos += 1
            return neg(self.parse_factor())
        return self.parse_power()

    def parse_power(self) -> Expr:
        e = self.parse_atom()
        while True:
            t = self.peek()
            if t is not None and t.kind == "op" and t.text == "^":
                self.pos += 1
                e = pow_int(e, self.parse_int_literal())
            else:
                return e

    def parse_int_literal(self) -> int:
        sign = 1
        t = self.peek()
        if t is not None and t.kind == "op" and t.text in "+-":
            self.pos += 1
            if t.text == "-":
                sign = -1
            t = self.peek()
        if t is None:
            raise ExprSyntaxError("expected integer exponent", self.src_len)
        if t.kind != "num" or any(ch in t.text for ch in ".eE"):
            raise ExprSyntaxError("exponent must be an integer literal", t.pos)
        self.pos += 1
        return sign * int(t.text)

    def parse_atom(self) -> Expr:
        t = self.next()
        if t.kind == "num":
            return const(float(t.text))
        if t.kind == "name":
            if t.text == "pi":
                return const(math.pi)
            if t.text == "e":
                return const(math.e)
            if t.text in ("x", "t"):
                return var(t.text)
            if t.text in _NUMPY_FUNCS:
                self.expect_op("(")
                arg = self.parse_expr()
                self.expect_op(")")
                return call(t.text, arg)
            raise ExprSyntaxError(f"unknown name {t.text!r}", t.pos)
        if t.kind == "op" and t.text == "(":
            e = self.parse_expr()
            self.expect_op(")")
            return e
        raise ExprSyntaxError(f"unexpected token {t.text!r}", t.pos)


def parse(s: str) -> Expr:
    """Parse an expression string into an :class:`Expr` tree.

    Raises :class:`ExprSyntaxError` with the failing character offset on
    malformed input.
    """
    toks = _tokenize(s)
    p = _Parser(toks, len(s))
    e = p.parse_expr()
    rest = p.peek()
    if rest is not None:
        raise ExprSyntaxError(f"trailing input {rest.text!r}", rest.pos)
    return e
