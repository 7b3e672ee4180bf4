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
differentiation stays inside the language.  A tree may be at most
``MAX_DEPTH`` levels deep, counting one for each operator, sign, function
call and pair of parentheses; a deeper one raises :class:`ExprSyntaxError`
at the token that passes the limit.

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
# The deepest tree parse accepts, in levels: each operator, sign, function
# call and pair of parentheses is one.  The parser and every Expr method
# recurse once or more per level, and a derivative is deeper than its
# expression, so this keeps well inside Python's default recursion limit.
MAX_DEPTH = 100

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
            return float(self._value(float(x), float(t), _shared_slots(self)))
        x, t = np.asarray(x, dtype=float), np.asarray(t, dtype=float)
        shape = np.broadcast_shapes(x.shape, t.shape)
        if 0 in shape:  # no values, so no domain error
            return np.zeros(shape)
        v = self._value(x, t, _shared_slots(self))
        if np.shape(v) == shape and v is not x and v is not t:
            return v
        return np.broadcast_to(v, shape).copy()

    def _value(self, x, t, memo: dict):
        """This node's value.  memo has a slot for each node that the tree
        reaches more than once (a derivative shares subtrees): such a node is
        computed once and then read.  Other values are not held, so a tree
        with no shared node keeps no more arrays alive than a plain walk."""
        v = memo.get(id(self))
        if v is None:
            return self._eval(x, t, memo)
        if v is _PENDING:
            v = memo[id(self)] = self._eval(x, t, memo)
        return v

    def _eval(self, x, t, memo: dict):
        """This node's value from its children's _value, by numpy broadcasting."""
        raise NotImplementedError

    def diff(self, wrt: str) -> "Expr":
        """Exact partial derivative with respect to ``'x'`` or ``'t'``.

        Each node is differentiated once per call, keyed by its id, so a
        subtree shared in self has one derivative, shared in the result: the
        result's size is linear in self's count of distinct nodes, where a
        plain walk would take each shared subtree again."""
        return self._diff(wrt, {})

    def _diff(self, wrt: str, memo: dict) -> "Expr":
        d = memo.get(id(self))
        if d is None:
            d = memo[id(self)] = self._derive(wrt, memo)
        return d

    def _derive(self, wrt: str, memo: dict) -> "Expr":
        """This node's derivative from its children's _diff."""
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
        return frozenset().union(*(c.free_vars() for c in self._children()))

    def _children(self) -> list["Expr"]:
        return [c for c in vars(self).values() if isinstance(c, Expr)]


_PENDING = object()  # a memo slot of Expr._value not yet computed


def _shared_slots(root: Expr) -> dict:
    """Expr._value's memo for root: a _PENDING slot for each node reached
    more than once from root."""
    seen: set[int] = set()
    slots: dict = {}
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            slots[id(node)] = _PENDING
        else:
            seen.add(id(node))
            stack.extend(node._children())
    return slots


@dataclass(frozen=True)
class Const(Expr):
    value: float

    def _eval(self, x, t, memo):
        return self.value

    def _derive(self, wrt: str, memo: dict) -> Expr:
        return Const(0.0)

    def __str__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True)
class Var(Expr):
    name: str  # 'x' or 't'

    def _eval(self, x, t, memo):
        return x if self.name == "x" else t

    def _derive(self, wrt: str, memo: dict) -> Expr:
        return Const(1.0 if wrt == self.name else 0.0)

    def free_vars(self) -> frozenset[str]:
        return frozenset({self.name})

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Add(Expr):
    a: Expr
    b: Expr

    def _eval(self, x, t, memo):
        return self.a._value(x, t, memo) + self.b._value(x, t, memo)

    def _derive(self, wrt: str, memo: dict) -> Expr:
        return add(self.a._diff(wrt, memo), self.b._diff(wrt, memo))

    def __str__(self) -> str:
        return f"({self.a} + {self.b})"


@dataclass(frozen=True)
class Sub(Expr):
    a: Expr
    b: Expr

    def _eval(self, x, t, memo):
        return self.a._value(x, t, memo) - self.b._value(x, t, memo)

    def _derive(self, wrt: str, memo: dict) -> Expr:
        return sub(self.a._diff(wrt, memo), self.b._diff(wrt, memo))

    def __str__(self) -> str:
        return f"({self.a} - {self.b})"


@dataclass(frozen=True)
class Mul(Expr):
    a: Expr
    b: Expr

    def _eval(self, x, t, memo):
        return self.a._value(x, t, memo) * self.b._value(x, t, memo)

    def _derive(self, wrt: str, memo: dict) -> Expr:
        return add(mul(self.a._diff(wrt, memo), self.b), mul(self.a, self.b._diff(wrt, memo)))

    def __str__(self) -> str:
        return f"({self.a} * {self.b})"


@dataclass(frozen=True)
class Div(Expr):
    a: Expr
    b: Expr

    def _eval(self, x, t, memo):
        denom = self.b._value(x, t, memo)
        if np.any(denom == 0.0):
            raise ExprDomainError(f"division by zero in {self}")
        return self.a._value(x, t, memo) / denom

    def _derive(self, wrt: str, memo: dict) -> Expr:
        num = sub(mul(self.a._diff(wrt, memo), self.b), mul(self.a, self.b._diff(wrt, memo)))
        return div(num, mul(self.b, self.b))

    def __str__(self) -> str:
        return f"({self.a} / {self.b})"


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: int

    def _eval(self, x, t, memo):
        b = self.base._value(x, t, memo)
        if self.exponent < 0 and np.any(b == 0.0):
            raise ExprDomainError(f"zero raised to negative power in {self}")
        try:
            return b ** self.exponent
        except OverflowError:  # a Python float power; arrays give inf
            raise ExprDomainError(f"overflow in {self}") from None

    def _derive(self, wrt: str, memo: dict) -> Expr:
        # d(b^n) = n * b^(n-1) * b'
        return mul(
            mul(Const(float(self.exponent)), pow_int(self.base, self.exponent - 1)),
            self.base._diff(wrt, memo),
        )

    def __str__(self) -> str:
        return f"({self.base}^{self.exponent})"


@dataclass(frozen=True)
class Neg(Expr):
    a: Expr

    def _eval(self, x, t, memo):
        return -self.a._value(x, t, memo)

    def _derive(self, wrt: str, memo: dict) -> Expr:
        return neg(self.a._diff(wrt, memo))

    def __str__(self) -> str:
        return f"(-{self.a})"


@dataclass(frozen=True)
class Call(Expr):
    func: str
    arg: Expr

    def _eval(self, x, t, memo):
        v = self.arg._value(x, t, memo)
        if self.func == "sqrt" and np.any(v < 0.0):
            raise ExprDomainError(f"sqrt of negative value in {self}")
        return _NUMPY_FUNCS[self.func](v)

    def _derive(self, wrt: str, memo: dict) -> Expr:
        inner = self.arg._diff(wrt, memo)
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
    """Recursive descent over the tokens.  Each parse_* returns the tree and
    its depth in levels; nest counts the groups, calls and signs open around
    the current token, which parse_nested refuses past MAX_DEPTH before it
    recurses."""

    toks: list[_Tok]
    src_len: int
    pos: int = 0
    nest: int = 0

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

    def level(self, depth: int, tok: _Tok) -> int:
        """depth, if the tree around it stays within MAX_DEPTH levels."""
        if self.nest + depth > MAX_DEPTH:
            raise ExprSyntaxError(f"expression nested deeper than {MAX_DEPTH} levels",
                                  tok.pos)
        return depth

    def parse_nested(self, tok: _Tok, parse) -> tuple[Expr, int]:
        """parse() one level below tok: the inside of a group or a call, or
        the operand of a sign."""
        self.level(1, tok)
        self.nest += 1
        e, d = parse()
        self.nest -= 1
        return e, d + 1

    def parse_expr(self) -> tuple[Expr, int]:
        e, d = self.parse_term()
        while True:
            t = self.peek()
            if t is not None and t.kind == "op" and t.text in "+-":
                self.pos += 1
                rhs, dr = self.parse_term()
                e = add(e, rhs) if t.text == "+" else sub(e, rhs)
                d = self.level(max(d, dr) + 1, t)
            else:
                return e, d

    def parse_term(self) -> tuple[Expr, int]:
        e, d = self.parse_factor()
        while True:
            t = self.peek()
            if t is not None and t.kind == "op" and t.text in "*/":
                self.pos += 1
                rhs, dr = self.parse_factor()
                e = mul(e, rhs) if t.text == "*" else div(e, rhs)
                d = self.level(max(d, dr) + 1, t)
            else:
                return e, d

    def parse_factor(self) -> tuple[Expr, int]:
        t = self.peek()
        if t is not None and t.kind == "op" and t.text == "-":
            self.pos += 1
            e, d = self.parse_nested(t, self.parse_factor)
            return neg(e), d
        return self.parse_power()

    def parse_power(self) -> tuple[Expr, int]:
        e, d = self.parse_atom()
        while True:
            t = self.peek()
            if t is not None and t.kind == "op" and t.text == "^":
                self.pos += 1
                e = pow_int(e, self.parse_int_literal())
                d = self.level(d + 1, t)
            else:
                return e, d

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

    def parse_atom(self) -> tuple[Expr, int]:
        t = self.next()
        if t.kind == "num":
            return const(float(t.text)), 0
        if t.kind == "name":
            if t.text == "pi":
                return const(math.pi), 0
            if t.text == "e":
                return const(math.e), 0
            if t.text in ("x", "t"):
                return var(t.text), 0
            if t.text in _NUMPY_FUNCS:
                self.expect_op("(")
                arg, d = self.parse_nested(t, self.parse_expr)
                self.expect_op(")")
                return call(t.text, arg), d
            raise ExprSyntaxError(f"unknown name {t.text!r}", t.pos)
        if t.kind == "op" and t.text == "(":
            e, d = self.parse_nested(t, self.parse_expr)
            self.expect_op(")")
            return e, d
        raise ExprSyntaxError(f"unexpected token {t.text!r}", t.pos)


def parse(s: str) -> Expr:
    """Parse an expression string into an :class:`Expr` tree.

    Raises :class:`ExprSyntaxError` with the failing character offset on
    malformed input.
    """
    toks = _tokenize(s)
    p = _Parser(toks, len(s))
    e, _ = p.parse_expr()
    rest = p.peek()
    if rest is not None:
        raise ExprSyntaxError(f"trailing input {rest.text!r}", rest.pos)
    return e
