"""Exact travelling-wave reference solver for layered (piecewise-constant) media.

On every layer the homogeneous solution is A e^{ik(x - z)} + B e^{-ik(x - z)}
with k = omega / (sqrt(a) c) and z the layer's left endpoint; referencing the
phase to the left endpoint keeps every matrix entry bounded near the
instabilities.  Interface continuity of u and of a u', together with the
boundary conditions, give a banded system solved with partial pivoting; a
sequential 2x2 transfer-matrix sweep would be numerically explosive exactly
where these problems are interesting, so the global solve is used instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .problem import HelmholtzProblem

RESIDUAL_FLAG_LEVEL = 1e-9


class UnsupportedProblemError(ValueError):
    """The analytic solver needs piecewise-constant a, c and zero source."""


@dataclass(frozen=True)
class WaveAmplitudes:
    """Per-layer complex wave pair (A_l, B_l) and wavenumbers k_l.

    u(x) = A_l exp(i k_l (x - z_{l-1})) + B_l exp(-i k_l (x - z_{l-1})) on
    layer l.  `flagged` marks a near-singular amplitude system (relative
    residual above RESIDUAL_FLAG_LEVEL).  Three evaluators share one layer
    lookup: `eval` gives u, `deriv` gives u', and `eval_with_deriv` gives
    both from a single pass over the points.
    """

    partition: np.ndarray
    a: np.ndarray
    c: np.ndarray
    omega: float
    A: np.ndarray
    B: np.ndarray
    residual: float
    flagged: bool

    @property
    def k(self) -> np.ndarray:
        return self.omega / (np.sqrt(self.a) * self.c)

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.partition)

    def _waves(self, x):
        """Shape of x, and per point the layer wavenumber and the forward
        and backward travelling waves."""
        x = np.asarray(x, dtype=float)
        lo, hi = self.partition[0], self.partition[-1]
        if np.any(x < lo) or np.any(x > hi):
            raise ValueError(f"evaluation point outside [{lo}, {hi}]")
        idx = np.clip(np.searchsorted(self.partition, x.ravel(), side="right") - 1,
                      0, len(self.A) - 1)
        s = x.ravel() - self.partition[idx]
        k = self.k[idx]
        fwd = self.A[idx] * np.exp(1j * k * s)
        bwd = self.B[idx] * np.exp(-1j * k * s)
        return x.shape, k, fwd, bwd

    def eval(self, x) -> np.ndarray:
        """Solution values; continuous across layer boundaries."""
        shape, _k, fwd, bwd = self._waves(x)
        return (fwd + bwd).reshape(shape)

    def deriv(self, x) -> np.ndarray:
        """Derivative values, taken from the layer on the right at an interface."""
        shape, k, fwd, bwd = self._waves(x)
        return (1j * k * (fwd - bwd)).reshape(shape)

    def eval_with_deriv(self, x) -> tuple:
        """(eval(x), deriv(x)) from one layer lookup and one pair of
        exponentials per point; bit-identical to the two separate calls."""
        shape, k, fwd, bwd = self._waves(x)
        return (fwd + bwd).reshape(shape), (1j * k * (fwd - bwd)).reshape(shape)

def _layer_values(problem: HelmholtzProblem):
    if not problem.is_layered() or problem.f is not None:
        raise UnsupportedProblemError(
            "analytic solver supports piecewise-constant coefficients with f = 0")
    a = np.array([s.value for s in problem.a.segments])
    c = np.array([s.value for s in problem.c.segments])
    return a, c


def solve_analytic(problem: HelmholtzProblem,
                   extended_precision: bool = False) -> WaveAmplitudes:
    """Amplitudes satisfying the interface and boundary conditions.

    The 2N x 2N system (bandwidths (2, 2)) is solved by pivoted banded LU.
    `extended_precision` adds iterative refinement with an extended-precision
    residual; used for instability cases beyond the double-precision range.
    """
    a, c = _layer_values(problem)
    part = problem.partition
    om = problem.omega
    n = len(a)
    k = om / (np.sqrt(a) * c)
    h = np.diff(part)
    E = np.exp(1j * k * h)
    Em = np.exp(-1j * k * h)
    beta = np.sqrt(a) / c

    M = np.zeros((2 * n, 2 * n), dtype=complex)
    rhs = np.zeros(2 * n, dtype=complex)
    # left endpoint: impedance (-a u' - i om beta u = g) or u = 0
    if problem.bc.impedance_left:
        M[0, 0] = -1j * a[0] * k[0] - 1j * om * beta[0]
        M[0, 1] = 1j * a[0] * k[0] - 1j * om * beta[0]
        rhs[0] = problem.g_left
    else:
        M[0, 0] = 1.0
        M[0, 1] = 1.0
    # interfaces: [u] = 0 and [a u'] = 0
    for j in range(1, n):
        r0, r1 = 2 * j - 1, 2 * j
        cA, cB = 2 * (j - 1), 2 * (j - 1) + 1
        M[r0, cA] = E[j - 1]
        M[r0, cB] = Em[j - 1]
        M[r0, cA + 2] = -1.0
        M[r0, cB + 2] = -1.0
        M[r1, cA] = 1j * a[j - 1] * k[j - 1] * E[j - 1]
        M[r1, cB] = -1j * a[j - 1] * k[j - 1] * Em[j - 1]
        M[r1, cA + 2] = -1j * a[j] * k[j]
        M[r1, cB + 2] = 1j * a[j] * k[j]
    # right endpoint: impedance (a u' - i om beta u = g) or u = 0
    if problem.bc.impedance_right:
        M[-1, -2] = (1j * a[-1] * k[-1] - 1j * om * beta[-1]) * E[-1]
        M[-1, -1] = (-1j * a[-1] * k[-1] - 1j * om * beta[-1]) * Em[-1]
        rhs[-1] = problem.g_right
    else:
        M[-1, -2] = E[-1]
        M[-1, -1] = Em[-1]

    sol = _banded_solve(M, rhs)
    if extended_precision:
        sol = _refine(M, rhs, sol)
    norm_rhs = np.linalg.norm(rhs, np.inf)
    residual = float(np.linalg.norm(M @ sol - rhs, np.inf)
                     / (norm_rhs if norm_rhs > 0 else 1.0))
    return WaveAmplitudes(
        partition=part, a=a, c=c, omega=om,
        A=sol[0::2], B=sol[1::2],
        residual=residual, flagged=residual > RESIDUAL_FLAG_LEVEL)


def _banded_solve(M: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Pivoted banded solve of the (2, 2)-banded amplitude system."""
    n = M.shape[0]
    kl = ku = 2
    ab = np.zeros((kl + ku + 1, n), dtype=complex)
    for i in range(n):
        lo = max(0, i - kl)
        hi = min(n, i + ku + 1)
        for j in range(lo, hi):
            ab[ku + i - j, j] = M[i, j]
    return solve_banded((kl, ku), ab, rhs)


def _refine(M: np.ndarray, rhs: np.ndarray, x: np.ndarray,
            iters: int = 3) -> np.ndarray:
    """Iterative refinement with an extended-precision residual."""
    Mx = M.astype(np.clongdouble)
    bx = rhs.astype(np.clongdouble)
    for _ in range(iters):
        r = bx - Mx @ x.astype(np.clongdouble)
        dx = _banded_solve(M, r.astype(complex))
        x = x + dx
    return x


def exact_norms(amps: WaveAmplitudes):
    """(||u'||, ||(omega/c) u||, energy) from closed-form layer integrals.

    int_0^h |A e^{iks} +- B e^{-iks}|^2 ds
        = (|A|^2 + |B|^2) h +- 2 Re( A conj(B) (e^{2ikh} - 1) / (2ik) ).
    """
    A, B = amps.A, amps.B
    k = amps.k
    h = amps.widths
    base = (np.abs(A) ** 2 + np.abs(B) ** 2) * h
    cross = 2.0 * (A * np.conj(B) * (np.exp(2j * k * h) - 1.0) / (2j * k)).real
    du2 = float(np.sum(k**2 * (base - cross)))
    wu2 = float(np.sum((amps.omega / amps.c) ** 2 * (base + cross)))
    adu2 = float(np.sum(amps.a * k**2 * (base - cross)))
    return np.sqrt(du2), np.sqrt(wu2), np.sqrt(adu2 + wu2)
