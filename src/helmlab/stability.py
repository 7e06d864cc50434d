"""Explicit stability multiplier and a priori bounds for the 1D problem.

The data-to-solution map of the heterogeneous problem is controlled by a
piecewise multiplier q built from the monotone envelopes of the coefficients.
Its supremum Q enters the energy bound

    ||u||_{H,a,c} <= C_I * Q * ||f|| + C_II * sqrt(Q) * ||g||,

and admits an a priori bound growing exponentially in the total variation of
a and c^2.  This module builds q, evaluates both the exact Q and its bounds,
and verifies the defining differential/jump inequalities numerically.  A
report builds the envelopes and jump factors once, for q and the product
bound alike; the bounds share one log-prefactor and one capped exp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coeffs import (Constant, Linear, PiecewiseCoefficient, CoefficientError,
                     _seg_deriv, _seg_values, on_common_partition,
                     segmentwise, shared_interval, variation_of_square)
from .problem import BoundaryConfig
from .quadrature import adaptive_gauss, cumulative_gauss

_LOG_MAX = math.log(np.finfo(float).max)
_VERIFY_SAMPLES = 128  # verification points per subinterval
_VERIFY_RTOL = 1e-9  # tolerance on the relative derivative margins


class PartitionMismatchError(CoefficientError):
    """Coefficients are not expressed on the same partition."""


def _check_common(*coeffs: PiecewiseCoefficient):
    bp0 = coeffs[0].breakpoints
    for c in coeffs[1:]:
        if len(c.breakpoints) != len(bp0) or not np.array_equal(c.breakpoints, bp0):
            raise PartitionMismatchError("coefficients must share one partition")


# -- jump factors ------------------------------------------------------------

@dataclass(frozen=True)
class JumpFactors:
    """Per-interior-breakpoint amplification factors, each >= 1."""

    alpha: np.ndarray  # envelope ratio of a across the breakpoint
    sigma: np.ndarray  # envelope ratio of c^2 across the breakpoint
    gamma: np.ndarray  # worst upward jump of a or c^2 left to right


def jump_factors(a: PiecewiseCoefficient, c: PiecewiseCoefficient,
                 a_tilde: PiecewiseCoefficient,
                 c_tilde: PiecewiseCoefficient) -> JumpFactors:
    """Amplification factors at the interior breakpoints of the partition."""
    _check_common(a, c, a_tilde, c_tilde)
    n = a.n_segments
    alpha = np.ones(n - 1)
    sigma = np.ones(n - 1)
    gamma = np.ones(n - 1)
    for j in range(1, n):
        alpha[j - 1] = max(a_tilde.left_limit(j) / a_tilde.right_limit(j), 1.0)
        sigma[j - 1] = max(c_tilde.left_limit(j) ** 2
                           / c_tilde.right_limit(j) ** 2, 1.0)
        gamma[j - 1] = max(a.right_limit(j) / a.left_limit(j),
                           c.right_limit(j) ** 2 / c.left_limit(j) ** 2, 1.0)
    return JumpFactors(alpha, sigma, gamma)


# -- integrals of 1/(a~ c~^2) -------------------------------------------------

def _affine_params(seg, x0: float, x1: float):
    """(intercept, slope) in global coordinates, or None for smooth segments."""
    if isinstance(seg, Constant):
        return seg.value, 0.0
    if isinstance(seg, Linear):
        s = (seg.right - seg.left) / (x1 - x0)
        return seg.left - s * x0, s
    return None


def _recip_antiderivative(p, q, r, s, x):
    """Antiderivative of 1/((p+qx)(r+sx)^2); both factors positive on use."""
    u = p + q * x
    v = r + s * x
    if q == 0.0 and s == 0.0:
        return x / (p * r * r)
    if q == 0.0:
        return -1.0 / (p * s * v)
    if s == 0.0:
        return np.log(u) / (q * r * r)
    d = q * r - p * s
    if abs(d) <= 1e-8 * (abs(q * r) + abs(p * s)):
        return None  # nearly proportional factors: defer to quadrature
    return (q / d**2) * np.log(u / v) + 1.0 / (d * v)


def _recip_integrand(a_seg, c_seg, x0: float, x1: float):
    """x -> 1/(a~ c~^2) on the subinterval (x0, x1)."""
    def integrand(x):
        av = _seg_values(a_seg, x0, x1, x)
        cv = _seg_values(c_seg, x0, x1, x)
        return 1.0 / (av * cv * cv)
    return integrand


def _recip_integrals(a_seg, c_seg, x0: float, x1: float,
                     xs: np.ndarray) -> np.ndarray:
    """Integral of 1/(a~ c~^2) from x0 to each point of the sorted array xs.

    Closed form when both envelope segments are affine, adaptive panels
    otherwise.
    """
    pa = _affine_params(a_seg, x0, x1)
    pc = _affine_params(c_seg, x0, x1)
    if pa is not None and pc is not None:
        F = _recip_antiderivative(pa[0], pa[1], pc[0], pc[1], np.asarray(xs))
        if F is not None:
            F0 = _recip_antiderivative(pa[0], pa[1], pc[0], pc[1], x0)
            return np.asarray(F) - F0
    return cumulative_gauss(_recip_integrand(a_seg, c_seg, x0, x1), x0,
                            np.asarray(xs))


def _recip_segment_integral(a_seg, c_seg, x0: float, x1: float) -> float:
    """Full-segment integral of 1/(a~ c~^2), adaptive for smooth data."""
    pa = _affine_params(a_seg, x0, x1)
    pc = _affine_params(c_seg, x0, x1)
    if pa is not None and pc is not None:
        val = _recip_integrals(a_seg, c_seg, x0, x1, np.asarray([x1]))
        return float(val[0])
    return adaptive_gauss(_recip_integrand(a_seg, c_seg, x0, x1), x0, x1)


# -- the multiplier -----------------------------------------------------------

@dataclass(frozen=True)
class MultiplierQ:
    """Piecewise multiplier built on the common partition of (a, c).

    `A[j]` is the accumulated factor entering subinterval j (A[0] = 0 and the
    sequence is nondecreasing); `seg_integrals[j]` is the subinterval integral
    of 1/(a~ c~^2).  The unshifted multiplier vanishes at z_0 and increases.
    """

    a: PiecewiseCoefficient
    c: PiecewiseCoefficient
    a_tilde: PiecewiseCoefficient
    c_tilde: PiecewiseCoefficient
    factors: JumpFactors
    A: np.ndarray
    seg_integrals: np.ndarray

    @property
    def partition(self) -> np.ndarray:
        return self.a.breakpoints

    def end_value(self) -> float:
        """q(z_N) of the unshifted multiplier."""
        n = len(self.A) - 1
        return (self.a_tilde.left_limit(n + 1) * self.c_tilde.left_limit(n + 1) ** 2
                * (self.seg_integrals[n] + self.A[n]))

    def segment_terms(self, j: int, xs: np.ndarray) -> tuple:
        """(a~, c~, I + A_j) at points xs of subinterval j, where I is the
        integral of 1/(a~ c~^2) from z_j; there q = a~ c~^2 (I + A_j)."""
        x0, x1 = self.partition[j], self.partition[j + 1]
        a_seg, c_seg = self.a_tilde.segments[j], self.c_tilde.segments[j]
        return (_seg_values(a_seg, x0, x1, xs), _seg_values(c_seg, x0, x1, xs),
                _recip_integrals(a_seg, c_seg, x0, x1, xs) + self.A[j])

    def values(self, xs: np.ndarray) -> np.ndarray:
        """Unshifted q at sorted points (right limits at breakpoints)."""
        def on_segment(j, pts):
            at, ct, I = self.segment_terms(j, pts)
            return at * ct * ct * I

        return segmentwise(self.partition, xs, on_segment)

    def one_sided(self, j: int, side: str) -> float:
        """One-sided limit of the unshifted q at breakpoint j."""
        if side == "left":
            at = self.a_tilde.left_limit(j)
            ct = self.c_tilde.left_limit(j)
            return at * ct * ct * (self.seg_integrals[j - 1] + self.A[j - 1])
        at = self.a_tilde.right_limit(j)
        ct = self.c_tilde.right_limit(j)
        return at * ct * ct * self.A[j]


def build_q(a: PiecewiseCoefficient, c: PiecewiseCoefficient) -> MultiplierQ:
    """Construct the stability multiplier for coefficients a, c.

    Both coefficients are moved to their common partition; the accumulation
    sequence obeys A_{j+1} = alpha_j sigma_j gamma_j (I_j + A_j) with A_1 = 0,
    where I_j is the subinterval integral of 1/(a~ c~^2).
    """
    a, c = on_common_partition(a, c)
    at = a.tilde()
    ct = c.tilde()
    fac = jump_factors(a, c, at, ct)
    bp = a.breakpoints
    n = a.n_segments
    seg_int = np.array([
        _recip_segment_integral(at.segments[j], ct.segments[j], bp[j], bp[j + 1])
        for j in range(n)])
    A = np.zeros(n)
    with np.errstate(over="ignore"):  # extreme variation saturates to +inf
        for j in range(1, n):
            A[j] = fac.alpha[j - 1] * fac.sigma[j - 1] * fac.gamma[j - 1] \
                * (seg_int[j - 1] + A[j - 1])
    return MultiplierQ(a, c, at, ct, fac, A, seg_int)


def q_sup(q: MultiplierQ, bc: BoundaryConfig) -> float:
    """Stability factor Q: the sup of the boundary-shifted multiplier.

    Q = q(z_N) when one endpoint is Dirichlet; Q = q(z_N)/2 for pure
    impedance (the multiplier is re-centred to q - q(z_N)/2).
    """
    qL = q.end_value()
    if BoundaryConfig(bc) is BoundaryConfig.PURE_IMPEDANCE:
        return 0.5 * qL
    return qL


# -- a priori bounds ----------------------------------------------------------

def _log_prefactor(a: PiecewiseCoefficient, c: PiecewiseCoefficient,
                   bc: BoundaryConfig) -> float:
    """log of length * (a_max c_max^2)/(a_min c_min^2): the length z_N - z_0
    of the interval a and c share, halved for pure impedance."""
    z0, zn = shared_interval(a, c)
    length = float(zn - z0)
    if BoundaryConfig(bc) is BoundaryConfig.PURE_IMPEDANCE:
        length = 0.5 * length
    return (math.log(length) + math.log(a.g_max / a.g_min)
            + 2.0 * math.log(c.g_max / c.g_min))


def _capped_exp(log_value: float) -> float:
    """exp(log_value), or +inf where that overflows."""
    return math.inf if log_value > _LOG_MAX else math.exp(log_value)


def q_bound(a: PiecewiseCoefficient, c: PiecewiseCoefficient,
            bc: BoundaryConfig = BoundaryConfig.PURE_IMPEDANCE) -> float:
    """Variation-exponential a priori bound on Q.

    (z_N - z_0, halved for pure impedance) * (a_max c_max^2)/(a_min c_min^2)
    * exp(2 Var(a)/a_min + 2 Var(c^2)/c_min^2).  Returns +inf on overflow.
    """
    return _capped_exp(_log_prefactor(a, c, bc)
                       + 2.0 * a.variation() / a.g_min
                       + 2.0 * variation_of_square(c) / c.g_min ** 2)


def _product_bound(a: PiecewiseCoefficient, c: PiecewiseCoefficient,
                   fac: JumpFactors, bc: BoundaryConfig) -> float:
    """The product-form bound on Q from given jump factors."""
    log_prod = float(np.sum(np.log(fac.alpha)) + np.sum(np.log(fac.sigma))
                     + np.sum(np.log(fac.gamma)))
    return _capped_exp(_log_prefactor(a, c, bc) + log_prod)


def q_product_bound(a: PiecewiseCoefficient, c: PiecewiseCoefficient,
                    bc: BoundaryConfig = BoundaryConfig.PURE_IMPEDANCE) -> float:
    """Product-form bound on Q: sharper than the exponential form when the
    coefficients are not oscillatory.

    (z_N - z_0, halved for pure impedance) * (a_max c_max^2)/(a_min c_min^2)
    * prod(alpha sigma gamma).  Returns +inf on overflow.
    """
    a2, c2 = on_common_partition(a, c)
    return _product_bound(a, c, jump_factors(a2, c2, a2.tilde(), c2.tilde()), bc)


def stability_constants(a_min: float, c_min: float, c_max: float):
    """Energy-bound constants (C_I, C_II) from the coefficient bounds."""
    if a_min <= 0.0 or c_min <= 0.0 or c_max < c_min:
        raise ValueError("need 0 < a_min and 0 < c_min <= c_max")
    c1 = 2.0 / math.sqrt(a_min) * (1.0 + 3.0 * c_max / c_min)
    c2 = 2.0 / math.sqrt(a_min) * math.sqrt(1.5 * c_max / c_min + 1.0)
    return c1, c2


@dataclass(frozen=True)
class StabilityReport:
    """Exact stability factor, its a priori bounds, and the energy constants."""

    Q_exact: float
    Q_bound: float
    Q_product_bound: float
    C_I: float
    C_II: float
    factors: JumpFactors
    bc: BoundaryConfig
    bound_overflowed: bool

    def apriori_rhs(self, f_norm: float, g_norm: float) -> float:
        """Right-hand side of the energy bound for given data norms."""
        if f_norm < 0.0 or g_norm < 0.0:
            raise ValueError("data norms must be nonnegative")
        return (self.C_I * self.Q_exact * f_norm
                + self.C_II * math.sqrt(self.Q_exact) * g_norm)


def stability_report(a: PiecewiseCoefficient, c: PiecewiseCoefficient,
                     bc: BoundaryConfig = BoundaryConfig.PURE_IMPEDANCE) -> StabilityReport:
    """Build the multiplier and collect Q, its bounds, and C_I/C_II; the
    product bound takes the multiplier's own jump factors."""
    q = build_q(a, c)
    qb = q_bound(a, c, bc)
    c1, c2 = stability_constants(a.g_min, c.g_min, c.g_max)
    return StabilityReport(
        Q_exact=q_sup(q, bc),
        Q_bound=qb,
        Q_product_bound=_product_bound(a, c, q.factors, bc),
        C_I=c1, C_II=c2,
        factors=q.factors,
        bc=BoundaryConfig(bc),
        bound_overflowed=not math.isfinite(qb),
    )


# -- verification of the multiplier properties --------------------------------

@dataclass(frozen=True)
class QDiagnostics:
    """Margins for the multiplier inequalities; all must be nonnegative.

    Derivative margins are relative: min over samples of
    (d(q/w) - 1/w) / (1/w) for w = a and w = c^2.  Jump margins are
    -[q/w] at interior breakpoints scaled by the local magnitude.
    """

    passed: bool
    deriv_margin_a: float
    deriv_margin_c2: float
    jump_margin_a: float
    jump_margin_c2: float


def verify_q_properties(q: MultiplierQ, a: PiecewiseCoefficient,
                        c: PiecewiseCoefficient) -> QDiagnostics:
    """Check d(q/a) >= 1/a, d(q/c^2) >= 1/c^2 and nonpositive interior jumps.

    Derivatives are evaluated analytically at `_VERIFY_SAMPLES` interior
    points per subinterval; jumps use exact one-sided limits.
    """
    a, c = on_common_partition(a, c)
    _check_common(a, c, q.a, q.c)
    bp = q.partition
    worst_da = math.inf
    worst_dc = math.inf
    t = (np.arange(_VERIFY_SAMPLES) + 0.5) / _VERIFY_SAMPLES
    for j in range(a.n_segments):
        x0, x1 = bp[j], bp[j + 1]
        xs = x0 + t * (x1 - x0)
        at, ct, I = q.segment_terms(j, xs)
        dat = _seg_deriv(q.a_tilde.segments[j], x0, x1, xs)
        dct = _seg_deriv(q.c_tilde.segments[j], x0, x1, xs)
        av = _seg_values(a.segments[j], x0, x1, xs)
        cv = _seg_values(c.segments[j], x0, x1, xs)
        dav = _seg_deriv(a.segments[j], x0, x1, xs)
        dcv = _seg_deriv(c.segments[j], x0, x1, xs)
        w = at * ct * ct  # a~ c~^2 and its derivative
        dw = dat * ct * ct + 2.0 * at * ct * dct
        # d(q/a) = d(w/a) (I + A_j) + 1/a, and likewise for c^2
        d_qa = (dw * av - w * dav) / av**2 * I + 1.0 / av
        d_qc = (dw * cv**2 - w * 2.0 * cv * dcv) / cv**4 * I + 1.0 / cv**2
        worst_da = min(worst_da, float(np.min((d_qa - 1.0 / av) * av)))
        worst_dc = min(worst_dc, float(np.min((d_qc - 1.0 / cv**2) * cv**2)))
        # relative scaling uses the target 1/w, i.e. margins are (d - 1/w) w
    worst_ja = math.inf
    worst_jc = math.inf
    for j in range(1, a.n_segments):
        q_minus = q.one_sided(j, "left")
        q_plus = q.one_sided(j, "right")
        qa_m, qa_p = q_minus / a.left_limit(j), q_plus / a.right_limit(j)
        qc_m = q_minus / c.left_limit(j) ** 2
        qc_p = q_plus / c.right_limit(j) ** 2
        worst_ja = min(worst_ja, -(qa_m - qa_p) / max(abs(qa_m), abs(qa_p), 1.0))
        worst_jc = min(worst_jc, -(qc_m - qc_p) / max(abs(qc_m), abs(qc_p), 1.0))
    if a.n_segments == 1:
        worst_ja = worst_jc = 0.0
    passed = bool(worst_da >= -_VERIFY_RTOL and worst_dc >= -_VERIFY_RTOL
                  and worst_ja >= -1e-12 and worst_jc >= -1e-12)
    return QDiagnostics(passed, float(worst_da), float(worst_dc),
                        float(worst_ja), float(worst_jc))


def tech_product_check(f: PiecewiseCoefficient):
    """Jump-ratio product against its variation-exponential bound.

    Returns (product, bound) where product is the larger of the two jump-ratio
    orientations over interior breakpoints and bound = exp(Var(f)/f_min).
    """
    up = 1.0
    down = 1.0
    for j in range(1, f.n_segments):
        lm, rm = f.left_limit(j), f.right_limit(j)
        up *= max(rm / lm, 1.0)
        down *= max(lm / rm, 1.0)
    product = max(up, down)
    return product, _capped_exp(f.variation() / f.g_min)
