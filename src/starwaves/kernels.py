"""Special-function kernels for the explicit solution formulas.

All kernels are entire in their combined argument, so the q = 0 and q < 0
cases flow through the same call sites with no branching by the caller.

``phi_entire`` is the function Phi(z) = sum_n (-z/4)^n / (n!)^2, which
equals J0(sqrt(z)) for z >= 0 and I0(sqrt(-z)) for z < 0.  A plain double
series loses too many digits to cancellation for large positive z (the
largest term at z = 400 is about 8e6 while the value is below 1e-1), so the
branches are evaluated with the scipy Bessel routines, which hold relative
error near machine precision on the whole supported range.
"""

from __future__ import annotations

import numpy as np
from scipy import special

from .errors import KernelRangeError

__all__ = ["cs", "sn", "phi_entire", "phi_entire_deriv", "dt_kernel"]

MAX_ABS_Z = 1.0e6
_SMALL_W = 1.0e-5
_SMALL_Z = 1.0e-8


def _as_array(v):
    a = np.asarray(v, dtype=float)
    return a, (a.ndim == 0)


def _branches(theta, t, series: tuple[float, float, float], trig, hyp):
    """F(w) at w = theta t^2 for an entire F with F(0) = 1, broadcast.

    F(w) = 1 - w/a + w^2/b - w^3/c for |w| <= _SMALL_W, with (a, b, c) =
    series; trig(sqrt(w)) for larger w > 0 and hyp(sqrt(-w)) for w < 0.
    Also returns t as an array and whether theta and t were both scalars.
    """
    th, s1 = _as_array(theta)
    tt, s2 = _as_array(t)
    w = th * tt * tt
    out = np.empty(np.broadcast(th, tt).shape)
    w = np.broadcast_to(w, out.shape)
    small = np.abs(w) <= _SMALL_W
    pos = (w > _SMALL_W)
    neg = (w < -_SMALL_W)
    ws = w[small]
    a, b, c = series
    out[small] = 1.0 - ws / a + ws * ws / b - ws * ws * ws / c
    out[pos] = trig(np.sqrt(w[pos]))
    out[neg] = hyp(np.sqrt(-w[neg]))
    return out, tt, s1 and s2


def cs(theta, t):
    """cos(sqrt(theta) t), continued through theta <= 0 (cosh branch).

    Entire in w = theta t^2; near w = 0 a short series avoids the 0/0 form.
    cs(theta, 0) = 1 exactly.
    """
    out, _, scalar = _branches(theta, t, (2.0, 24.0, 720.0), np.cos, np.cosh)
    return float(out) if scalar else out


def sn(theta, t):
    """sin(sqrt(theta) t)/sqrt(theta), continued through theta <= 0.

    Equals t near theta t^2 = 0; sn(theta, 0) = 0 exactly.
    """
    s, tt, scalar = _branches(theta, t, (6.0, 120.0, 5040.0),
                              lambda r: np.sin(r) / r, lambda r: np.sinh(r) / r)
    out = np.broadcast_to(tt, s.shape) * s
    return float(out) if scalar else out


def _check_range(z: np.ndarray) -> None:
    if np.any(np.abs(z) > MAX_ABS_Z):
        raise KernelRangeError(f"kernel argument exceeds |z| <= {MAX_ABS_Z:g}")
    if np.any(~np.isfinite(z)):
        raise KernelRangeError("kernel argument must be finite")


def phi_entire(z):
    """Phi(z) = J0(sqrt(z)) for z >= 0, I0(sqrt(-z)) for z < 0.

    Supported for |z| <= 1e6.  Note I0 overflows double precision near
    z = -5e5 and the result is inf there; the acceptance range [-100, 400]
    is far from overflow.
    """
    za, scalar = _as_array(z)
    _check_range(za)
    out = np.empty(za.shape)
    pos = za >= 0.0
    out[pos] = special.j0(np.sqrt(za[pos]))
    out[~pos] = special.i0(np.sqrt(-za[~pos]))
    return float(out) if scalar else out


def phi_entire_deriv(z):
    """Derivative of phi_entire; equals -1/4 at z = 0.

    -J1(sqrt(z))/(2 sqrt(z)) for z > 0 and -I1(sqrt(-z))/(2 sqrt(-z)) for
    z < 0; a series bridges the removable singularity at 0.
    """
    za, scalar = _as_array(z)
    _check_range(za)
    out = np.empty(za.shape)
    small = np.abs(za) <= _SMALL_Z
    pos = za > _SMALL_Z
    neg = za < -_SMALL_Z
    zs = za[small]
    out[small] = -0.25 * (1.0 - zs / 8.0 + zs * zs / 192.0)
    rp = np.sqrt(za[pos])
    out[pos] = -special.j1(rp) / (2.0 * rp)
    rn = np.sqrt(-za[neg])
    out[neg] = -special.i1(rn) / (2.0 * rn)
    return float(out) if scalar else out


def dt_kernel(theta, t, s, y):
    """Time derivative of the quarter-plane kernel Phi(theta((s-y)^2 - t^2)).

    Returns -2 theta t Phi'(theta ((s-y)^2 - t^2)).  Identically zero for
    theta = 0 (the d'Alembert reduction) and for t = 0 (even in t).
    """
    th, s1 = _as_array(theta)
    ta, s2 = _as_array(t)
    sa, s3 = _as_array(s)
    ya, s4 = _as_array(y)
    arg = th * ((sa - ya) ** 2 - ta * ta)
    out = -2.0 * th * ta * phi_entire_deriv(arg)
    if s1 and s2 and s3 and s4:
        return float(out)
    return out
