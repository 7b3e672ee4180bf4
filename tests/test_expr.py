import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, reject
from hypothesis import strategies as st

from starwaves.errors import ExprDomainError, ExprSyntaxError
from starwaves.expr import Const, parse


def test_basic_arithmetic():
    assert parse("2 + 3*4").evaluate(0.0, 0.0) == 14.0
    assert parse("(2 + 3)*4").evaluate(0.0, 0.0) == 20.0
    assert parse("2^3^2").evaluate(0.0, 0.0) == 64.0  # left-assoc chain
    assert parse("-x^2").evaluate(3.0, 0.0) == -9.0
    assert parse("7/2").evaluate(0.0, 0.0) == 3.5


def test_variables_and_constants():
    assert parse("x").evaluate(2.5, 0.0) == 2.5
    assert parse("t").evaluate(0.0, 1.25) == 1.25
    assert parse("2*pi").evaluate(0.0, 0.0) == pytest.approx(2 * math.pi, rel=1e-15)
    assert parse("e").evaluate(0.0, 0.0) == pytest.approx(math.e, rel=1e-15)
    assert parse("cos(pi)").evaluate(0.0, 0.0) == pytest.approx(-1.0, abs=1e-15)


def test_reference_config_expressions():
    f = parse("sin(t)*(1 + x)")
    assert f.evaluate(1.0, 0.5) == pytest.approx(math.sin(0.5) * 2.0, rel=1e-15)
    phi = parse("cos(pi*x/2)")
    assert phi.evaluate(1.0, 0.0) == pytest.approx(0.0, abs=1e-15)
    assert phi.evaluate(0.0, 0.0) == 1.0


def test_scientific_notation():
    assert parse("1e-3").evaluate(0, 0) == 1e-3
    assert parse("2.5E2").evaluate(0, 0) == 250.0


def test_integer_exponents_only():
    with pytest.raises(ExprSyntaxError):
        parse("x^2.5")
    with pytest.raises(ExprSyntaxError):
        parse("x^(2)")
    with pytest.raises(ExprSyntaxError):
        parse("x^t")
    assert parse("x^-2").evaluate(2.0, 0.0) == 0.25


def test_syntax_errors_carry_offset():
    with pytest.raises(ExprSyntaxError) as ei:
        parse("x +")
    assert ei.value.offset == 3
    # str.isdigit takes '²' and '٣'; the grammar's digits are ASCII
    for src, offset in (("x*\u00b2", 2), ("\u0663*x", 0)):
        with pytest.raises(ExprSyntaxError, match=f"unexpected character {src[offset]!r}") as ei:
            parse(src)
        assert ei.value.offset == offset
    with pytest.raises(ExprSyntaxError):
        parse("foo(x)")
    with pytest.raises(ExprSyntaxError):
        parse("1 2")
    with pytest.raises(ExprSyntaxError):
        parse("(x")
    with pytest.raises(ExprSyntaxError):
        parse("")


def test_domain_errors():
    with pytest.raises(ExprDomainError):
        parse("1/x").evaluate(0.0, 0.0)
    with pytest.raises(ExprDomainError):
        parse("sqrt(x)").evaluate(-1.0, 0.0)
    with pytest.raises(ExprDomainError):
        parse("x^-2").evaluate(0.0, 0.0)
    # arrays hit the same guards
    with pytest.raises(ExprDomainError):
        parse("sqrt(x)").evaluate(np.array([1.0, -1.0]), 0.0)
    # so does overflow, when folding constants and in a Python float power
    for src in ("1e200^2", "1e-200^-2", "exp(800)", "cosh(1000)", "sinh(-1000)"):
        with pytest.raises(ExprDomainError, match="overflow"):
            parse(src + " + x")
    with pytest.raises(ExprDomainError, match="overflow"):
        parse("(x + 1e200)^2").evaluate(0.0, 0.0)
    # a constant that is already infinite is data, not an overflow
    assert parse("exp(1e400) + x").evaluate(0.0, 0.0) == np.inf


def test_numpy_broadcasting():
    f = parse("x*t + 1")
    x = np.linspace(0, 1, 5)[:, None]
    t = np.linspace(0, 2, 7)[None, :]
    out = f.evaluate(x, t)
    assert out.shape == (5, 7)
    assert np.allclose(out, x * t + 1.0)
    c = parse("3").evaluate(x, t)
    assert c.shape == (5, 7) and np.all(c == 3.0)


def test_leaves_on_arrays():
    x = np.array([0.5, 1.5])[:, None]
    t = np.array([0.0, 1.0, 2.0])[None, :]
    for src, want in (("x", np.broadcast_to(x, (2, 3))),
                      ("t", np.broadcast_to(t, (2, 3))),
                      ("3", np.full((2, 3), 3.0))):
        got = parse(src).evaluate(x, t)
        assert got.shape == (2, 3) and got.dtype == np.float64, src
        assert got.flags.writeable and np.array_equal(got, want), src
        assert not np.shares_memory(got, x) and not np.shares_memory(got, t), src
    # a bare variable already of the full shape is still a copy
    xs = np.linspace(0.0, 1.0, 4)
    got = parse("x").evaluate(xs, 0.0)
    assert np.array_equal(got, xs) and not np.shares_memory(got, xs)
    assert parse("x").evaluate(np.arange(3), 0).dtype == np.float64
    # scalars in, a Python float out
    assert type(parse("sin(x)").evaluate(1.0, 0.0)) is float
    assert type(parse("x").evaluate(np.float64(2.0), np.array(1.0))) is float
    # an empty grid holds no value, so there is no domain error to raise
    assert parse("1/t").evaluate(np.empty(0), 0.0).shape == (0,)


def test_differentiation():
    f = parse("x^2*sin(t)")
    fx = f.diff("x")
    assert fx.evaluate(3.0, 0.5) == pytest.approx(6.0 * math.sin(0.5), rel=1e-14)
    ft = f.diff("t")
    assert ft.evaluate(3.0, 0.5) == pytest.approx(9.0 * math.cos(0.5), rel=1e-14)
    assert parse("x^3").diff_n("x", 3).evaluate(0.0, 0.0) == 6.0
    assert isinstance(parse("x^3").diff_n("x", 4), Const)
    g = parse("sqrt(x)").diff("x")
    assert g.evaluate(4.0, 0.0) == pytest.approx(0.25, rel=1e-14)
    assert parse("cosh(x)").diff("x").evaluate(1.0, 0.0) == pytest.approx(
        math.sinh(1.0), rel=1e-14)


def test_diff_order_cap():
    with pytest.raises(ValueError):
        parse("sin(x)").diff_n("x", 13)
    # order 12 is still allowed
    assert parse("x^2").diff_n("x", 12).evaluate(1.0, 0.0) == 0.0


FUNCS = ["sin", "cos", "exp", "sqrt", "cosh", "sinh"]


def _random_expr(rng: random.Random, depth: int) -> str:
    if depth <= 0:
        return rng.choice(["x", "t", "pi",
                           format(rng.uniform(0.1, 3.0), ".3f")])
    kind = rng.randrange(6)
    a = _random_expr(rng, depth - 1)
    b = _random_expr(rng, depth - 1)
    if kind == 0:
        return f"({a} + {b})"
    if kind == 1:
        return f"({a} - {b})"
    if kind == 2:
        return f"({a} * {b})"
    if kind == 3:
        # keep denominators away from zero
        return f"({a} / ({b} + 4))"
    if kind == 4:
        fn = rng.choice(FUNCS)
        if fn == "sqrt":
            return f"sqrt(({a})^2 + 1)"
        if fn == "exp":
            return f"exp(({a}) / 20)"
        return f"{fn}({a})"
    return f"({a})^{rng.randrange(1, 4)}"


def test_parse_print_round_trip_property():
    """str(parse(s)) parses back to the same function (200 random trees)."""
    rng = random.Random(20240817)
    pts = [(0.3, 0.7), (1.1, 0.2), (0.9, 1.4)]
    for _ in range(200):
        src = _random_expr(rng, rng.randrange(1, 4))
        ast = parse(src)
        back = parse(str(ast))
        for x, t in pts:
            v1 = ast.evaluate(x, t)
            v2 = back.evaluate(x, t)
            assert v1 == pytest.approx(v2, rel=1e-12, abs=1e-12), src


def test_derivative_matches_finite_differences_property():
    rng = random.Random(7)
    h = 1e-6
    for _ in range(200):
        src = _random_expr(rng, rng.randrange(1, 3))
        ast = parse(src)
        dx = ast.diff("x")
        x, t = rng.uniform(0.2, 1.5), rng.uniform(0.2, 1.5)
        fd = (ast.evaluate(x + h, t) - ast.evaluate(x - h, t)) / (2 * h)
        an = dx.evaluate(x, t)
        scale = max(1.0, abs(an))
        assert abs(fd - an) <= 2e-5 * scale, src


def test_derivative_of_reference_mu_shape():
    # velocity compatibility uses d/dt of the boundary data
    mu = parse("0")
    assert mu.diff("t").evaluate(0.0, 0.7) == 0.0
    ramp = parse("t^2/2")
    assert ramp.diff("t").evaluate(0.0, 0.7) == pytest.approx(0.7)


# Strings from the whole grammar; domain errors (overflow included) are part
# of the language, so such draws are skipped.
_ATOMS = st.sampled_from(["x", "t", "pi", "e", "0", "1", "2.5", "1e-3", "7"])


def _extend(kids):
    return st.one_of(
        st.tuples(kids, st.sampled_from("+-*/"), kids).map(
            lambda a: f"({a[0]} {a[1]} {a[2]})"),
        st.tuples(st.sampled_from(FUNCS), kids).map(lambda a: f"{a[0]}({a[1]})"),
        kids.map(lambda a: f"-{a}"),
        st.tuples(kids, st.integers(-3, 3)).map(lambda a: f"({a[0]})^{a[1]}"),
    )


EXPR_STRINGS = st.recursive(_ATOMS, _extend, max_leaves=10)
POINTS = st.floats(-2.0, 2.0)


def _parse_or_skip(src):
    try:
        with np.errstate(all="ignore"):
            return parse(src)
    except ExprDomainError:
        reject()


def _eval_or_skip(ast, x, t):
    try:
        with np.errstate(all="ignore"):
            return np.asarray(ast.evaluate(x, t), dtype=float).tobytes()
    except ExprDomainError:
        reject()


@given(EXPR_STRINGS)
def test_free_vars_are_variable_tokens_property(src):
    tokens = set(re.findall(r"[A-Za-z_]\w*", src))
    assert _parse_or_skip(src).free_vars() <= tokens & {"x", "t"}


@given(EXPR_STRINGS, POINTS, POINTS, POINTS)
def test_value_ignores_absent_variable_property(src, a, b, c):
    ast = _parse_or_skip(src)
    free = ast.free_vars()
    if "t" not in free:
        assert _eval_or_skip(ast, a, b) == _eval_or_skip(ast, a, c)
    if "x" not in free:
        assert _eval_or_skip(ast, b, a) == _eval_or_skip(ast, c, a)


def test_free_vars_structural():
    assert parse("t - t").free_vars() == {"t"}
    assert parse("sin(x) * exp(t)").free_vars() == {"x", "t"}
    assert parse("2*pi + e").free_vars() == frozenset()


def _eval_or_none(ast, x, t):
    try:
        with np.errstate(all="ignore"):
            return ast.evaluate(x, t)
    except ExprDomainError:
        return None


GRID_AXIS = st.lists(POINTS, min_size=1, max_size=4)


@given(EXPR_STRINGS, GRID_AXIS, GRID_AXIS)
def test_grid_axes_match_full_arrays_property(src, xs, ts):
    """(x[:, None], t[None, :]) gives the bytes of the full broadcast grids."""
    ast = _parse_or_skip(src)
    x = np.array(xs)[:, None]
    t = np.array(ts)[None, :]
    full = [a.copy() for a in np.broadcast_arrays(x, t)]
    got = _eval_or_none(ast, x, t)
    want = _eval_or_none(ast, *full)
    assert (got is None) == (want is None)  # the same domain verdict
    if got is None:
        return
    for v, inputs in ((got, (x, t)), (want, full)):
        assert v.shape == (len(xs), len(ts)) and v.dtype == np.float64
        assert v.flags.writeable
        assert not any(np.shares_memory(v, a) for a in inputs)
    assert got.tobytes() == want.tobytes()
