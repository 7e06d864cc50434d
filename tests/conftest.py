import numpy as np
import pytest

import helmlab as hl


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_layered_problem(rng, max_jumps=10, value_range=(0.5, 10.0),
                           omega_range=(1.0, 50.0), bc=None):
    """Random piecewise-constant problem with f = 0 and random boundary data."""
    n = int(rng.integers(1, max_jumps + 1))
    a_vals = rng.uniform(*value_range, n)
    c_vals = rng.uniform(*value_range, n)
    interior = np.sort(rng.uniform(-1.0, 1.0, n - 1))
    while n > 1 and np.min(np.diff(np.concatenate([[-1.0], interior, [1.0]]))) < 1e-6:
        interior = np.sort(rng.uniform(-1.0, 1.0, n - 1))
    bp = np.concatenate([[-1.0], interior, [1.0]])
    if bc is None:
        bc = list(hl.BoundaryConfig)[int(rng.integers(0, 3))]
    g_left = complex(rng.normal(), rng.normal()) if bc.impedance_left else 0.0
    g_right = complex(rng.normal(), rng.normal()) if bc.impedance_right else 0.0
    return hl.HelmholtzProblem(
        a=hl.piecewise_constant(bp, a_vals),
        c=hl.piecewise_constant(bp, c_vals),
        omega=float(rng.uniform(*omega_range)),
        bc=bc, g_left=g_left, g_right=g_right)


def random_coefficient(rng, max_jumps=10, value_range=(0.5, 10.0),
                       interval=(-1.0, 1.0)):
    z0, zn = interval
    n = int(rng.integers(1, max_jumps + 1))
    interior = np.sort(rng.uniform(z0, zn, n - 1))
    while n > 1 and np.min(np.diff(np.concatenate([[z0], interior, [zn]]))) < 1e-6:
        interior = np.sort(rng.uniform(z0, zn, n - 1))
    bp = np.concatenate([[z0], interior, [zn]])
    return hl.piecewise_constant(bp, rng.uniform(*value_range, n))


def sine_coefficient(m, half_length=1.0, offset=2.0):
    """offset + sin(m pi x / L) with the extrema as breakpoints (m even)."""
    L = half_length
    z = np.array([(j - m - 0.5) * L / m for j in range(1, 2 * m + 1)])
    bp = np.concatenate([[-L], z, [L]])
    segs = []
    for j in range(2 * m + 1):
        # derivative (m pi / L) cos(m pi x / L) alternates sign per segment:
        # increasing on odd-numbered subintervals (1-based), decreasing on even
        sign = "positive" if j % 2 == 0 else "nonpositive"
        segs.append(hl.Smooth(
            func=lambda x, L=L, m=m, off=offset: off + np.sin(m * np.pi * x / L),
            deriv=lambda x, L=L, m=m: (m * np.pi / L) * np.cos(m * np.pi * x / L),
            sign=sign))
    return hl.from_segments(bp, segs, g_min=offset - 1.0, g_max=offset + 1.0)


def random_mixed_coefficient(rng, max_segments=6):
    """Random Constant, Linear and Smooth segments on random breakpoints;
    each smooth piece is off + s amp tanh(w (x - mid)), s = +-1, with the
    sign tag that matches s.  Bounds are derived by `from_segments`."""
    n = int(rng.integers(1, max_segments + 1))
    bp = np.concatenate([[-1.0], np.sort(rng.uniform(-1.0, 1.0, n - 1)), [1.0]])
    segs = []
    for j in range(n):
        kind = int(rng.integers(0, 3))
        if kind == 0:
            segs.append(hl.Constant(float(rng.uniform(0.5, 5.0))))
        elif kind == 1:
            segs.append(hl.Linear(float(rng.uniform(0.5, 5.0)),
                                  float(rng.uniform(0.5, 5.0))))
        else:
            off, amp, w = rng.uniform(2.0, 5.0), rng.uniform(0.1, 1.0), rng.uniform(0.2, 1.0)
            mid, s = 0.5 * (bp[j] + bp[j + 1]), (1.0 if rng.uniform() < 0.5 else -1.0)
            segs.append(hl.Smooth(
                lambda x, o=off, a=amp, w=w, m=mid, s=s: o + s * a * np.tanh(w * (x - m)),
                lambda x, a=amp, w=w, m=mid, s=s: s * a * w / np.cosh(w * (x - m)) ** 2,
                "positive" if s > 0 else "nonpositive"))
    return hl.from_segments(bp, segs)
