"""Exact travelling-wave reference solver for layered (piecewise-constant) media.

On every layer the homogeneous solution is A e^{ik(x - z)} + B e^{-ik(x - z)}
with k = omega / (sqrt(a) c) and z the layer's left endpoint; referencing the
phase to the left endpoint keeps every matrix entry bounded near the
instabilities.  Interface continuity of u and of a u', together with the
boundary conditions, give a banded system solved with partial pivoting; a
sequential 2x2 transfer-matrix sweep would be numerically explosive exactly
where these problems are interesting, so the global solve is used instead.
The system is written straight into (2, 2) band storage, and that one array
serves the solve, the residual and the extended-precision refinement: O(N)
memory, no dense matrix.  u and u' are evaluated at any points, or layer by
layer at points the caller assigns, such as a mesh's element runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .coeffs import segment_of
from .problem import HelmholtzProblem

RESIDUAL_FLAG_LEVEL = 1e-9


class UnsupportedProblemError(ValueError):
    """The analytic solver needs piecewise-constant a, c and zero source."""


@dataclass(frozen=True)
class WaveAmplitudes:
    """Per-layer complex wave pair (A_l, B_l) and wavenumbers k_l.

    u(x) = A_l exp(i k_l (x - z_{l-1})) + B_l exp(-i k_l (x - z_{l-1})) on
    layer l.  `flagged` marks a near-singular amplitude system (relative
    residual above RESIDUAL_FLAG_LEVEL).  `eval` and `deriv` give u and u'
    at any points, looking up each point's layer; `eval_on_layer` gives u,
    or u and u' from one exponential, at points of one layer.
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
        idx = segment_of(self.partition, x.ravel())
        return (x.shape, *self._layer_waves(idx, x.ravel()))

    def _layer_waves(self, j, x):
        """Wavenumber and forward and backward travelling waves at the points
        x of layer j: one layer index for all points, or one per point."""
        k = self.k[j]
        # conj(exp(i k s)) has the bits of exp(-i k s), at half the cost
        phase = np.exp(1j * k * (x - self.partition[j]))
        return k, self.A[j] * phase, self.B[j] * np.conj(phase)

    def eval(self, x) -> np.ndarray:
        """Solution values; continuous across layer boundaries."""
        shape, _k, fwd, bwd = self._waves(x)
        return (fwd + bwd).reshape(shape)

    def deriv(self, x) -> np.ndarray:
        """Derivative values, taken from the layer on the right at an interface."""
        shape, k, fwd, bwd = self._waves(x)
        return (1j * k * (fwd - bwd)).reshape(shape)

    def eval_on_layer(self, j: int, x: np.ndarray, deriv: bool = False):
        """u at the points x of layer j, or (u, u') with `deriv`: the bits of
        `eval` and `deriv` where their lookup gives layer j (breakpoints go
        to the layer on their right, the right end to the last layer)."""
        k, fwd, bwd = self._layer_waves(j, x)
        return (fwd + bwd, 1j * k * (fwd - bwd)) if deriv else fwd + bwd


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

    The 2N x 2N system (bandwidths (2, 2), unknowns A_0, B_0, A_1, ...) is
    written straight into band storage: one (5, 2N) array, O(N) memory,
    serves the pivoted banded LU solve, the residual and the refinement.
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

    ab = np.zeros((5, 2 * n), dtype=complex)  # ab[2 + i - j, j] = M[i, j]
    rhs = np.zeros(2 * n, dtype=complex)
    # left endpoint: impedance (-a u' - i om beta u = g) or u = 0
    if problem.bc.impedance_left:
        ab[2, 0] = -1j * a[0] * k[0] - 1j * om * beta[0]
        ab[1, 1] = 1j * a[0] * k[0] - 1j * om * beta[0]
        rhs[0] = problem.g_left
    else:
        ab[2, 0] = ab[1, 1] = 1.0
    # interface j: rows 2j-1 ([u] = 0) and 2j ([a u'] = 0) couple the
    # columns 2j-2, 2j-1 of layer j-1 to the columns 2j, 2j+1 of layer j
    ab[3, 0:-2:2] = E[:-1]
    ab[2, 1:-2:2] = Em[:-1]
    ab[1, 2::2] = -1.0
    ab[0, 3::2] = -1.0
    ab[4, 0:-2:2] = 1j * a[:-1] * k[:-1] * E[:-1]
    ab[3, 1:-2:2] = -1j * a[:-1] * k[:-1] * Em[:-1]
    ab[2, 2::2] = -1j * a[1:] * k[1:]
    ab[1, 3::2] = 1j * a[1:] * k[1:]
    # right endpoint: impedance (a u' - i om beta u = g) or u = 0
    if problem.bc.impedance_right:
        ab[3, -2] = (1j * a[-1] * k[-1] - 1j * om * beta[-1]) * E[-1]
        ab[2, -1] = (-1j * a[-1] * k[-1] - 1j * om * beta[-1]) * Em[-1]
        rhs[-1] = problem.g_right
    else:
        ab[3, -2] = E[-1]
        ab[2, -1] = Em[-1]

    sol = solve_banded((2, 2), ab, rhs)
    if extended_precision:
        sol = _refine(ab, rhs, sol)
    norm_rhs = np.linalg.norm(rhs, np.inf)
    residual = float(np.linalg.norm(_band_matvec(ab, sol) - rhs, np.inf)
                     / (norm_rhs if norm_rhs > 0 else 1.0))
    return WaveAmplitudes(
        partition=part, a=a, c=c, omega=om,
        A=sol[0::2], B=sol[1::2],
        residual=residual, flagged=residual > RESIDUAL_FLAG_LEVEL)


def _band_matvec(ab: np.ndarray, x: np.ndarray) -> np.ndarray:
    """M @ x for M in (2, 2) band storage; each row sums its five terms in
    column order, like a dense row."""
    n = len(x)
    terms = np.zeros((5, n + 4), dtype=np.result_type(ab, x))
    terms[:, 2:-2] = ab * x
    return (terms[4, :n] + terms[3, 1:n + 1] + terms[2, 2:n + 2]
            + terms[1, 3:n + 3] + terms[0, 4:])


def _refine(ab: np.ndarray, rhs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Three steps of iterative refinement with an extended-precision
    residual."""
    abx = ab.astype(np.clongdouble)
    bx = rhs.astype(np.clongdouble)
    for _ in range(3):
        r = bx - _band_matvec(abx, x.astype(np.clongdouble))
        x = x + solve_banded((2, 2), ab, r.astype(complex))
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
