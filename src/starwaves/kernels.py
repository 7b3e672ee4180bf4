"""Special-function kernels for the explicit solution formulas.

All kernels are entire in their combined argument, so the q = 0 and q < 0
cases flow through the same call sites with no branching by the caller.
"""

from __future__ import annotations

import math
import sys

import numpy as np

__all__ = ["cs", "sn"]

_SMALL_W = 1.0e-5
# the largest r with cosh(r) and sinh(r) finite, ln(2 max): about 710.48;
# cs and sn with theta t^2 below -_HYP_ARG_MAX^2 overflow
_HYP_ARG_MAX = math.log(2.0) + math.log(sys.float_info.max)


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
