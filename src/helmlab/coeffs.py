"""Piecewise-C1 coefficient functions on an interval [z_0, z_N].

A coefficient is a strictly positive function with a finite partition
z_0 < ... < z_N of its interval such that on every open subinterval the
derivative is one-signed (either > 0 throughout, or <= 0 throughout).  The
class tracks one-sided limits at partition points, jumps, the total
variation, and the monotone envelope obtained by freezing every
non-increasing piece at its left limit.  One probe list per segment (its
ends, plus Chebyshev points on a smooth segment) gives both the bounds
`from_segments` derives and the check of the bounds at construction; one
loop gives the variation of g and of g^2.  `segment_of` and `segmentwise`
assign points to subintervals for every module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .quadrature import adaptive_gauss

_SIGN_TAGS = ("positive", "nonpositive", "zero")
_NPROBE = 64  # Chebyshev sign probes per smooth segment


class CoefficientError(ValueError):
    """Invalid coefficient data (ordering, positivity, or sign tags)."""


@dataclass(frozen=True)
class Constant:
    """Segment with a single value; derivative is identically zero."""

    value: float


@dataclass(frozen=True)
class Linear:
    """Affine segment given by its one-sided limits at the segment ends."""

    left: float
    right: float


@dataclass(frozen=True)
class Smooth:
    """C1 segment given by evaluators for the function and its derivative.

    `sign` declares the one-signed derivative branch: "positive" for g' > 0
    on the open segment, "nonpositive" for g' <= 0, "zero" for exactly flat.
    Both callables must accept numpy arrays.
    """

    func: Callable[[np.ndarray], np.ndarray]
    deriv: Callable[[np.ndarray], np.ndarray]
    sign: str


Segment = Union[Constant, Linear, Smooth]


def _seg_values(seg: Segment, x0: float, x1: float, x: np.ndarray) -> np.ndarray:
    if isinstance(seg, Constant):
        return np.full_like(x, seg.value, dtype=float)
    if isinstance(seg, Linear):
        t = (x - x0) / (x1 - x0)
        return seg.left + t * (seg.right - seg.left)
    return np.asarray(seg.func(x), dtype=float)


def _seg_deriv(seg: Segment, x0: float, x1: float, x: np.ndarray) -> np.ndarray:
    if isinstance(seg, Constant):
        return np.zeros_like(x, dtype=float)
    if isinstance(seg, Linear):
        return np.full_like(x, (seg.right - seg.left) / (x1 - x0), dtype=float)
    return np.asarray(seg.deriv(x), dtype=float)


def _seg_left(seg: Segment, x0: float, x1: float) -> float:
    """One-sided limit from the right at the segment's left endpoint."""
    if isinstance(seg, Constant):
        return seg.value
    if isinstance(seg, Linear):
        return seg.left
    return float(seg.func(np.asarray([x0]))[0])


def _seg_right(seg: Segment, x0: float, x1: float) -> float:
    if isinstance(seg, Constant):
        return seg.value
    if isinstance(seg, Linear):
        return seg.right
    return float(seg.func(np.asarray([x1]))[0])


def _seg_increasing(seg: Segment) -> bool:
    """True on the g' > 0 branch; False on the g' <= 0 branch."""
    if isinstance(seg, Constant):
        return False
    if isinstance(seg, Linear):
        return seg.right > seg.left
    return seg.sign == "positive"


def segment_of(breakpoints: np.ndarray, x, side: str = "right") -> np.ndarray:
    """Index of the subinterval of `breakpoints` owning each point of x.

    A breakpoint belongs to the subinterval on its right (on its left with
    side="left"); points beyond either end belong to the end subinterval.
    """
    idx = np.searchsorted(breakpoints, x, side=side) - 1
    return np.clip(idx, 0, len(breakpoints) - 2)


def segmentwise(breakpoints: np.ndarray, xs, evaluate) -> np.ndarray:
    """`evaluate(j, points)` on the points of xs owned by each subinterval j,
    in the flat order of xs (breakpoints go right); float, shaped like xs."""
    xs = np.asarray(xs, dtype=float)
    flat = xs.ravel()
    idx = segment_of(breakpoints, flat)
    out = np.empty(idx.shape, dtype=float)
    for j in np.unique(idx):
        mask = idx == j
        out[mask] = evaluate(j, flat[mask])
    return out.reshape(xs.shape)


def _chebyshev(x0: float, x1: float, n: int = _NPROBE) -> np.ndarray:
    theta = (2.0 * np.arange(1, n + 1) - 1.0) * np.pi / (2.0 * n)
    return 0.5 * (x0 + x1) + 0.5 * (x1 - x0) * np.cos(theta)


def _probe_values(j: int, seg: Segment, x0: float, x1: float) -> list:
    """Segment j's values as floats at both ends and, on a smooth segment,
    at the Chebyshev points; a non-finite value is a CoefficientError."""
    vals = [_seg_left(seg, x0, x1), _seg_right(seg, x0, x1)]
    if isinstance(seg, Smooth):
        vals.extend(_seg_values(seg, x0, x1, _chebyshev(x0, x1)).tolist())
    if not all(map(math.isfinite, vals)):
        raise CoefficientError(f"segment {j}: non-finite value")
    return vals


@dataclass(frozen=True)
class PiecewiseCoefficient:
    """Strictly positive piecewise-C1 function with certified bounds.

    Parameters
    ----------
    breakpoints : array, z_0 < ... < z_N; the interval is [z_0, z_N].
    segments : one Segment per subinterval (z_{j-1}, z_j).
    g_min, g_max : certified pointwise bounds, 0 < g_min <= g <= g_max.
    """

    breakpoints: np.ndarray
    segments: tuple
    g_min: float
    g_max: float

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        bp.flags.writeable = False
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "segments", tuple(self.segments))
        if bp.ndim != 1 or len(bp) < 2:
            raise CoefficientError("need at least two breakpoints")
        if not np.all(np.isfinite(bp)):
            raise CoefficientError("breakpoints must be finite")
        if not np.all(np.diff(bp) > 0.0):
            raise CoefficientError("breakpoints must be strictly increasing")
        if len(self.segments) != len(bp) - 1:
            raise CoefficientError(
                f"{len(bp) - 1} subintervals but {len(self.segments)} segments")
        if not (0.0 < self.g_min <= self.g_max):
            raise CoefficientError("bounds must satisfy 0 < g_min <= g_max")
        self._validate_segments()

    def _validate_segments(self):
        slack = 1e-12 * self.g_max
        lo, hi = self.g_min - slack, self.g_max + slack
        for j, seg in enumerate(self.segments):
            x0, x1 = self.breakpoints[j], self.breakpoints[j + 1]
            probes = _probe_values(j, seg, x0, x1)
            if isinstance(seg, Smooth):
                if seg.sign not in _SIGN_TAGS:
                    raise CoefficientError(f"unknown sign tag {seg.sign!r}")
                d = _seg_deriv(seg, x0, x1, _chebyshev(x0, x1))
                dtol = 1e-12 * (1.0 + np.max(np.abs(d)))
                if seg.sign == "positive" and np.any(d <= 0.0):
                    raise CoefficientError(
                        f"segment {j}: tagged positive but derivative probe <= 0")
                if seg.sign == "nonpositive" and np.any(d > dtol):
                    raise CoefficientError(
                        f"segment {j}: tagged nonpositive but derivative probe > 0")
                if seg.sign == "zero" and np.any(np.abs(d) > dtol):
                    raise CoefficientError(
                        f"segment {j}: tagged zero but derivative probe is not")
            if min(probes) < lo or max(probes) > hi:
                raise CoefficientError(
                    f"segment {j}: values escape the certified bounds "
                    f"[{self.g_min}, {self.g_max}]")

    # -- basic queries ----------------------------------------------------

    @property
    def n_segments(self) -> int:
        return len(self.segments)

    def segment_index(self, x, side: str = "right") -> np.ndarray:
        """Index of the subinterval owning x (see `segment_of`)."""
        return segment_of(self.breakpoints, x, side)

    def eval(self, x: float, side: str = "right") -> float:
        """One-sided value g^-(x) (side="left") or g^+(x) (side="right").

        Both sides agree at interior points of a segment.
        """
        if side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")
        if not (self.breakpoints[0] <= x <= self.breakpoints[-1]):
            raise CoefficientError(f"x={x} outside [{self.breakpoints[0]}, "
                                   f"{self.breakpoints[-1]}]")
        j = int(self.segment_index(x, side))
        return float(_seg_values(self.segments[j], self.breakpoints[j],
                                 self.breakpoints[j + 1], np.asarray([x]))[0])

    def values(self, xs: np.ndarray) -> np.ndarray:
        """Vectorized evaluation; at breakpoints returns the right limit."""
        bp = self.breakpoints
        return segmentwise(bp, xs, lambda j, x: _seg_values(
            self.segments[j], bp[j], bp[j + 1], x))

    def left_limit(self, j: int) -> float:
        """g^-(z_j), defined for 1 <= j <= N."""
        return _seg_right(self.segments[j - 1], self.breakpoints[j - 1],
                          self.breakpoints[j])

    def right_limit(self, j: int) -> float:
        """g^+(z_j), defined for 0 <= j <= N-1."""
        return _seg_left(self.segments[j], self.breakpoints[j],
                         self.breakpoints[j + 1])

    # -- jumps and variation ----------------------------------------------

    def jump(self, j: int) -> float:
        """Left-to-right jump at breakpoint j.

        Interior j: g^-(z_j) - g^+(z_j); j=0 gives -g^+(z_0); j=N gives g^-(z_N).
        """
        n = self.n_segments
        if not (0 <= j <= n):
            raise IndexError(f"breakpoint index {j} out of range 0..{n}")
        if j == 0:
            return -self.right_limit(0)
        if j == n:
            return self.left_limit(n)
        return self.left_limit(j) - self.right_limit(j)

    def variation(self) -> float:
        """Total variation: sum of interior |jumps| plus the integral of |g'|."""
        return _variation(self, 1)

    # -- monotone envelope --------------------------------------------------

    def tilde(self) -> "PiecewiseCoefficient":
        """Monotone envelope: keep increasing pieces, freeze the rest.

        On segments with g' > 0 the function is unchanged; on segments with
        g' <= 0 it is replaced by the constant g^+(z_{j-1}).  The result is
        right continuous at each interior breakpoint and left continuous at
        z_N, stays within [g_min, g_max], and is nondecreasing per segment.
        """
        segs = tuple(seg if _seg_increasing(seg) else Constant(self.right_limit(j))
                     for j, seg in enumerate(self.segments))
        return PiecewiseCoefficient(self.breakpoints, segs, self.g_min, self.g_max)

    def reversed(self) -> "PiecewiseCoefficient":
        """The coefficient reflected about x = 0 (for symmetry checks)."""
        bp = -self.breakpoints[::-1].copy()
        segs = []
        for j, seg in enumerate(reversed(self.segments)):
            if isinstance(seg, Constant):
                segs.append(seg)
            elif isinstance(seg, Linear):
                segs.append(Linear(seg.right, seg.left))
            else:
                f, d = seg.func, seg.deriv
                flipped = "positive" if seg.sign == "nonpositive" else (
                    "nonpositive" if seg.sign == "positive" else "zero")
                segs.append(Smooth(lambda x, f=f: f(-x),
                                   lambda x, d=d: -d(-x), flipped))
        return PiecewiseCoefficient(bp, tuple(segs), self.g_min, self.g_max)


# -- constructors ----------------------------------------------------------

def constant(value: float, half_length: float = 1.0) -> PiecewiseCoefficient:
    """Constant coefficient on [-L, L]."""
    return PiecewiseCoefficient(
        np.array([-half_length, half_length]), (Constant(value),), value, value)


def piecewise_constant(breakpoints: Sequence[float],
                       values: Sequence[float]) -> PiecewiseCoefficient:
    """Piecewise-constant coefficient from breakpoints and per-cell values."""
    values = np.asarray(values, dtype=float)
    segs = tuple(Constant(float(v)) for v in values)
    return PiecewiseCoefficient(np.asarray(breakpoints, dtype=float), segs,
                                float(values.min()), float(values.max()))


def from_segments(breakpoints: Sequence[float], segments: Sequence[Segment],
                  g_min: float | None = None,
                  g_max: float | None = None) -> PiecewiseCoefficient:
    """Build a coefficient, sampling bounds when they are not supplied.

    Bounds are exact for constant/linear segments; smooth segments are
    sampled at Chebyshev points plus endpoints, so certified bounds for those
    should be passed explicitly when available.
    """
    bp = np.asarray(breakpoints, dtype=float)
    probes = [v for j, seg in enumerate(segments)
              for v in _probe_values(j, seg, bp[j], bp[j + 1])]
    if g_min is None:
        g_min = min(probes, default=math.inf)
    if g_max is None:
        g_max = max(probes, default=-math.inf)
    return PiecewiseCoefficient(bp, tuple(segments), float(g_min), float(g_max))


# -- partitions --------------------------------------------------------------

def shared_interval(a: PiecewiseCoefficient, c: PiecewiseCoefficient) -> tuple:
    """The ends (z_0, z_N) of the interval both coefficients live on."""
    z0, zn = a.breakpoints[0], a.breakpoints[-1]
    if c.breakpoints[0] != z0 or c.breakpoints[-1] != zn:
        raise CoefficientError("coefficients live on different intervals")
    return z0, zn


def refine(coeff: PiecewiseCoefficient,
           breakpoints: np.ndarray) -> PiecewiseCoefficient:
    """Re-express the coefficient on a refinement of its own partition;
    idempotent: on its own partition the coefficient itself is returned.
    A Linear piece that starts or ends at an original breakpoint keeps the
    original end value there bit for bit."""
    bp = np.asarray(breakpoints, dtype=float)
    if np.array_equal(bp, coeff.breakpoints):
        return coeff
    if not set(np.asarray(coeff.breakpoints).tolist()) <= set(bp.tolist()):
        raise CoefficientError("refinement must contain the original breakpoints")
    owners = coeff.segment_index(0.5 * (bp[:-1] + bp[1:])).tolist()
    segs = []
    for j, k in enumerate(owners):
        x0, x1 = bp[j], bp[j + 1]
        seg = coeff.segments[k]
        if isinstance(seg, Linear):
            y0, y1 = coeff.breakpoints[k], coeff.breakpoints[k + 1]
            segs.append(Linear(
                seg.left if x0 == y0 else _seg_values(seg, y0, y1, x0),
                seg.right if x1 == y1 else _seg_values(seg, y0, y1, x1)))
        else:
            # constants and smooth segments restrict as they are
            segs.append(seg)
    return PiecewiseCoefficient(bp, tuple(segs), coeff.g_min, coeff.g_max)


def on_common_partition(a: PiecewiseCoefficient, c: PiecewiseCoefficient):
    """Both coefficients re-expressed on the union of their breakpoints (a
    refinement of either partition); an aligned pair comes back as the same
    two objects.  Coefficients on different intervals raise
    CoefficientError."""
    shared_interval(a, c)
    bp = np.unique(np.concatenate([a.breakpoints, c.breakpoints]))
    return refine(a, bp), refine(c, bp)


# -- derived variations ------------------------------------------------------

def _variation(coeff: PiecewiseCoefficient, p: int) -> float:
    """Total variation of g^p (p = 1 or 2): the interior |jumps| of g^p plus
    the integral of |(g^p)'|.

    Exact for constant/linear segments (g^p is monotone there since g > 0
    and g' is one-signed); adaptive Gauss-Legendre panels for smooth ones.
    """
    def power(v):
        return v ** 2 if p == 2 else v

    def slope(s, x):
        return 2.0 * s.func(x) * s.deriv(x) if p == 2 else s.deriv(x)

    var = 0.0
    for j in range(1, coeff.n_segments):
        var += abs(power(coeff.left_limit(j)) - power(coeff.right_limit(j)))
    for j, seg in enumerate(coeff.segments):
        if isinstance(seg, Linear):
            var += abs(power(seg.right) - power(seg.left))
        elif isinstance(seg, Smooth):
            var += adaptive_gauss(lambda x, s=seg: np.abs(slope(s, x)),
                                  coeff.breakpoints[j], coeff.breakpoints[j + 1])
    return var


def variation_of_square(coeff: PiecewiseCoefficient) -> float:
    """Total variation of g^2 for a positive coefficient g."""
    return _variation(coeff, 2)
