"""Gauss-Legendre quadrature helpers for piecewise-smooth integrands."""

from __future__ import annotations

import numpy as np

# 15-point rule on [-1, 1]; adaptive panels bisect until the tolerance is met.
_GL15_X, _GL15_W = np.polynomial.legendre.leggauss(15)
_MAX_DEPTH = 40
_RTOL, _ATOL = 1e-10, 1e-15  # a panel is accepted within max(_ATOL, _RTOL |I|)

# 5-point rule on the unit element [0, 1]: per-element integrals in the finite
# element code and in the energy-error measurements.
G5_T, G5_W = np.polynomial.legendre.leggauss(5)
G5_T = 0.5 * (G5_T + 1.0)
G5_W = 0.5 * G5_W


def gauss_panel(f, a: float, b: float) -> float:
    """Single 15-point Gauss-Legendre panel of f over [a, b]."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return half * float(np.sum(_GL15_W * f(mid + half * _GL15_X)))


def adaptive_gauss(f, a: float, b: float) -> float:
    """Adaptive 15-point Gauss-Legendre integral of a vectorized callable.

    Panels are bisected until the two-half estimate agrees with the whole-panel
    estimate to `_RTOL` (or `_ATOL`), at most `_MAX_DEPTH` times.
    """
    if b <= a:
        return 0.0
    return _adapt(f, a, b, gauss_panel(f, a, b), _MAX_DEPTH)


def _adapt(f, a, b, whole, depth):
    mid = 0.5 * (a + b)
    left = gauss_panel(f, a, mid)
    right = gauss_panel(f, mid, b)
    if abs(left + right - whole) <= max(_ATOL, _RTOL * abs(left + right)) or depth <= 0:
        return left + right
    return (_adapt(f, a, mid, left, depth - 1)
            + _adapt(f, mid, b, right, depth - 1))


def cumulative_gauss(f, x0: float, xs: np.ndarray) -> np.ndarray:
    """Cumulative integral of f from x0 to each point of the sorted array xs.

    One 15-point panel per consecutive gap; accurate for smooth positive
    integrands sampled on reasonably dense grids.
    """
    xs = np.asarray(xs, dtype=float)
    edges = np.concatenate([[x0], xs])
    lo = edges[:-1]
    hi = edges[1:]
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    nodes = mid[:, None] + half[:, None] * _GL15_X[None, :]
    vals = f(nodes.ravel()).reshape(nodes.shape)
    panels = half * (vals @ _GL15_W)
    return np.cumsum(panels)
