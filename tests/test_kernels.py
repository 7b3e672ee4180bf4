import math
from decimal import Decimal, getcontext

import numpy as np
import pytest

from starwaves.kernels import _HYP_ARG_MAX, cs, sn

from .helpers import dt_kernel, phi_entire, phi_entire_deriv


def phi_series_decimal(z: float, prec: int = 50) -> float:
    """Independent oracle: sum (-z/4)^n / (n!)^2 in 50-digit decimals."""
    getcontext().prec = prec
    zz = Decimal(repr(-z)) / 4
    total = Decimal(1)
    term = Decimal(1)
    n = 0
    while True:
        n += 1
        term = term * zz / (n * n)
        total += term
        if abs(term) < Decimal(10) ** (-prec + 5) * max(abs(total), Decimal(1)):
            break
        if n > 4000:
            raise RuntimeError("oracle did not converge")
    return float(total)


def phi_deriv_series_decimal(z: float, prec: int = 50) -> float:
    """d/dz of the series above: sum_k (-1/4) * term_k / (k+1)."""
    getcontext().prec = prec
    zz = Decimal(repr(-z)) / 4
    total = Decimal(0)
    term = Decimal(1)  # (-z/4)^k / (k!)^2
    k = 0
    while True:
        contrib = term / Decimal(-4) / Decimal(k + 1)
        total += contrib
        k += 1
        term = term * zz / (k * k)
        if abs(contrib) < Decimal(10) ** (-prec + 5) and k > 4:
            break
        if k > 4000:
            raise RuntimeError("oracle did not converge")
    return float(total)


# frozen oracle outputs (Decimal series, 50 digits)
PHI_AT_4 = 0.22389077914123567
PHI_AT_MINUS_4 = 2.2795853023360673


def test_phi_frozen_values():
    assert phi_series_decimal(4.0) == pytest.approx(PHI_AT_4, rel=1e-15)
    assert phi_series_decimal(-4.0) == pytest.approx(PHI_AT_MINUS_4, rel=1e-15)
    assert phi_entire(4.0) == pytest.approx(PHI_AT_4, rel=1e-13)
    assert phi_entire(-4.0) == pytest.approx(PHI_AT_MINUS_4, rel=1e-13)


def test_phi_matches_decimal_oracle():
    for z in [-100.0, -37.5, -4.0, -0.3, 0.0, 1e-8, 0.7, 4.0, 55.0, 120.0, 400.0]:
        want = phi_series_decimal(z)
        got = phi_entire(z)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-300), z


def test_phi_vectorized_and_at_zero():
    z = np.array([-4.0, 0.0, 4.0])
    out = phi_entire(z)
    assert out.shape == (3,)
    assert out[1] == 1.0
    assert phi_entire(0.0) == 1.0


def test_phi_ode_property():
    """z Phi'' + Phi' + Phi/4 = 0 (second derivative by central differences)."""
    h = 1e-4
    for z in [-50.0, -2.0, 0.5, 3.0, 80.0, 300.0]:
        d2 = (phi_entire_deriv(z + h) - phi_entire_deriv(z - h)) / (2 * h)
        resid = z * d2 + phi_entire_deriv(z) + phi_entire(z) / 4.0
        assert abs(resid) < 1e-6, z


def test_phi_deriv_at_zero_and_oracle():
    assert phi_entire_deriv(0.0) == pytest.approx(-0.25, rel=1e-14)
    for z in [-20.0, -1.0, 0.3, 5.0, 90.0]:
        assert phi_entire_deriv(z) == pytest.approx(
            phi_deriv_series_decimal(z), rel=1e-10, abs=1e-15), z


def test_phi_range_guard():
    with pytest.raises(ValueError, match="exceeds"):
        phi_entire(2e6)
    with pytest.raises(ValueError, match="exceeds"):
        phi_entire(-2e6)
    # documented: deep negative z may overflow to inf, not raise
    assert math.isinf(phi_entire(-9.0e5))


def test_cs_sn_exact_at_zero():
    for theta in (-3.0, 0.0, 2.5):
        assert cs(theta, 0.0) == 1.0
        assert sn(theta, 0.0) == 0.0


def test_cs_sn_closed_forms():
    assert sn(0.0, 1.3) == pytest.approx(1.3, rel=1e-15)
    assert cs(1.0, math.pi) == pytest.approx(-1.0, rel=1e-12)
    assert sn(1.0, math.pi / 2) == pytest.approx(1.0, rel=1e-12)
    assert sn(-1.0, 1.0) == pytest.approx(math.sinh(1.0), rel=1e-12)
    assert cs(-1.0, 1.0) == pytest.approx(math.cosh(1.0), rel=1e-12)
    assert cs(4.0, 1.0) == pytest.approx(math.cos(2.0), rel=1e-12)
    assert sn(4.0, 1.0) == pytest.approx(math.sin(2.0) / 2.0, rel=1e-12)


def test_cs_sn_energy_identity():
    """cs^2 + theta*sn^2 = 1 for every sign of theta."""
    thetas = np.linspace(-5.0, 5.0, 41)
    ts = np.linspace(0.0, 3.0, 31)
    for theta in thetas:
        vals = cs(theta, ts) ** 2 + theta * sn(theta, ts) ** 2
        assert np.max(np.abs(vals - 1.0)) < 1e-10, theta


def test_cs_sn_consistent_across_series_switch():
    """Both branches agree with the closed form near |theta*t^2| = 1e-5."""
    t = 1.0
    for theta in (0.999e-5, 1.001e-5):
        r = math.sqrt(theta)
        assert cs(theta, t) == pytest.approx(math.cos(r * t), abs=1e-14)
        assert sn(theta, t) == pytest.approx(math.sin(r * t) / r, abs=1e-14)
    for theta in (-0.999e-5, -1.001e-5):
        r = math.sqrt(-theta)
        assert cs(theta, t) == pytest.approx(math.cosh(r * t), abs=1e-14)
        assert sn(theta, t) == pytest.approx(math.sinh(r * t) / r, abs=1e-14)


def test_cs_sn_solve_the_oscillator():
    # second time difference reproduces -theta * y
    dt = 1e-5
    for theta in (3.0, -2.0):
        for t in (0.4, 1.7):
            for f in (cs, sn):
                num = (f(theta, t + dt) - 2 * f(theta, t) + f(theta, t - dt)) / dt**2
                assert num == pytest.approx(-theta * f(theta, t), rel=1e-4, abs=1e-6)


def test_dt_kernel_values():
    # -2*theta*t*Phi'(theta*((s-y)^2 - t^2))
    got = dt_kernel(1.0, 1.0, 3.0, 1.0)
    assert got == pytest.approx(-2.0 * phi_entire_deriv(3.0), rel=1e-14)
    assert dt_kernel(0.0, 1.0, 3.0, 1.0) == 0.0
    assert dt_kernel(2.0, 0.0, 3.0, 1.0) == 0.0
    arg = 2.0 * ((0.5 - 0.1) ** 2 - 0.09)
    assert dt_kernel(2.0, 0.3, 0.5, 0.1) == pytest.approx(
        -2.0 * 2.0 * 0.3 * phi_entire_deriv(arg), rel=1e-14)


def test_dt_kernel_broadcasts():
    y = np.linspace(0.0, 1.0, 9)
    out = dt_kernel(1.5, 0.5, 2.0, y)
    assert out.shape == (9,)
    one = dt_kernel(1.5, 0.5, 2.0, y[3])
    assert out[3] == pytest.approx(one, rel=1e-15)


def test_hyperbolic_range_is_the_last_finite_argument():
    # validate_config bounds sqrt(-q) T by it: cs and sn are finite up to
    # it and overflow just past it
    top = _HYP_ARG_MAX
    assert 710.47 < top < 710.48
    w = -np.array([top, np.nextafter(top, 0.0)]) ** 2
    assert np.isfinite(cs(w, 1.0)).all() and np.isfinite(sn(w, 1.0)).all()
    with np.errstate(over="ignore"):
        past = -np.nextafter(top, np.inf) ** 2
        assert np.isinf(cs(past, 1.0)) and np.isinf(sn(past, 1.0))
