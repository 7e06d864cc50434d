"""Gauss-Legendre quadrature helpers for piecewise-smooth integrands, and
numpy's pairwise summation split into cache-sized leaves.

`_pairwise_tree` follows the splits numpy's float64 sum makes, down to runs
of at most `_SUM_LEAF` values, and adds the halves in numpy's order; leaves
that return `np.sum` of their run therefore give the bits of one `np.sum` over
the whole run.  The finite element norms sum through it, and the finite
element assembly and residual pass over the mesh in its leaf runs
(`_leaf_runs`), so none of them builds a mesh-sized temporary.  There is one
tree and one leaf length.
"""

from __future__ import annotations

import numpy as np

# 15-point rule on [-1, 1]; adaptive panels bisect until the tolerance is met.
_GL15_X, _GL15_W = np.polynomial.legendre.leggauss(15)
_MAX_DEPTH = 40
_RTOL, _ATOL = 1e-10, 1e-15  # a panel is accepted within max(_ATOL, _RTOL |I|)

# 5-point rule on the unit element [0, 1]: per-element integrals in the finite
# element code.
G5_T, G5_W = np.polynomial.legendre.leggauss(5)
G5_T = 0.5 * (G5_T + 1.0)
G5_W = 0.5 * G5_W


# Values per leaf of `_pairwise_tree`: elements or rows in the finite
# element passes.  At least numpy's pairwise block of 128, below which the
# split can stall at 0.  The value rests on table1, where 2^15 showed no
# gain over 2^16 in alternating pairs.
_SUM_LEAF = 2**16


def _pairwise_tree(leaf_sums, lo: int, n: int):
    """numpy's pairwise sum of the flat float64 run [lo, lo + n), with
    every run of at most `_SUM_LEAF` values summed by `leaf_sums(lo, n)`.

    numpy reduces a contiguous float64 array by halving it (the left half
    rounded down to a multiple of 8) until a block has at most 128 values;
    this follows the same splits down to the leaves and adds the halves in
    the same order, so a leaf that returns `np.sum` of its run makes the
    result bit-identical to `np.sum` of the whole run.  Leaves may return
    arrays of several sums, which are added elementwise.
    """
    if n <= _SUM_LEAF:
        return leaf_sums(lo, n)
    n2 = n // 2
    n2 -= n2 % 8
    return _pairwise_tree(leaf_sums, lo, n2) + \
        _pairwise_tree(leaf_sums, lo + n2, n - n2)


def _leaf_runs(n: int) -> list:
    """The leaf runs (lo, k) of `_pairwise_tree` over n values, left to right."""
    # on lists the tree's `+` concatenates
    return _pairwise_tree(lambda lo, k: [(lo, k)], 0, n)


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
