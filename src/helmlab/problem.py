"""Problem description: domain, coefficients, frequency, boundary data."""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .coeffs import (Constant, PiecewiseCoefficient, on_common_partition,
                     segmentwise)


class BoundaryConfig(enum.Enum):
    """Boundary layout on {-L, L}; the impedance part is never empty.

    The impedance condition at an endpoint x is
    a du/dn - i omega (sqrt(a)/c) u = g_x, with du/dn(+-L) = +-u'(+-L);
    Dirichlet endpoints carry u = 0.
    """

    PURE_IMPEDANCE = "pure_impedance"            # impedance at both ends
    DIRICHLET_IMPEDANCE = "dirichlet_impedance"  # u(-L) = 0, impedance at L
    IMPEDANCE_DIRICHLET = "impedance_dirichlet"  # impedance at -L, u(L) = 0

    @property
    def impedance_left(self) -> bool:
        return self is not BoundaryConfig.DIRICHLET_IMPEDANCE

    @property
    def impedance_right(self) -> bool:
        return self is not BoundaryConfig.IMPEDANCE_DIRICHLET


@dataclass(frozen=True)
class PiecewisePolynomial:
    """Callable piecewise polynomial source, np.polyval coefficients per cell;
    a breakpoint takes the cell on its right, like the coefficients."""

    breakpoints: np.ndarray
    coefficients: tuple

    def __call__(self, x):
        return segmentwise(self.breakpoints, x,
                           lambda j, pts: np.polyval(self.coefficients[j], pts))


@dataclass(frozen=True)
class HelmholtzProblem:
    """-(a u')' - (omega/c)^2 u = f on (z_0, z_N), the interval a and c
    share, with impedance/Dirichlet ends.

    The impedance parameter is fixed to beta = sqrt(a)/c with one-sided trace
    values at the endpoints.  `a` and `c` are re-expressed on their common
    partition at construction.
    """

    a: PiecewiseCoefficient
    c: PiecewiseCoefficient
    omega: float
    bc: BoundaryConfig = BoundaryConfig.PURE_IMPEDANCE
    g_left: complex = 0.0
    g_right: complex = 0.0
    f: Optional[Callable] = None

    def __post_init__(self):
        if not (math.isfinite(self.omega) and self.omega > 0.0):
            raise ValueError(f"omega must be positive and finite, got {self.omega}")
        for name in ("g_left", "g_right"):
            if not cmath.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        a, c = on_common_partition(self.a, self.c)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "bc", BoundaryConfig(self.bc))
        if not self.bc.impedance_left and self.g_left != 0.0:
            raise ValueError("g_left given but -L is a Dirichlet endpoint")
        if not self.bc.impedance_right and self.g_right != 0.0:
            raise ValueError("g_right given but L is a Dirichlet endpoint")

    @property
    def partition(self) -> np.ndarray:
        """Common breakpoints of a and c."""
        return self.a.breakpoints

    @property
    def beta_left(self) -> float:
        return np.sqrt(self.a.right_limit(0)) / self.c.right_limit(0)

    @property
    def beta_right(self) -> float:
        n = self.a.n_segments
        return np.sqrt(self.a.left_limit(n)) / self.c.left_limit(n)

    def boundary_norm(self) -> float:
        """l2 norm of the impedance data over the impedance endpoints."""
        s = 0.0
        if self.bc.impedance_left:
            s += abs(self.g_left) ** 2
        if self.bc.impedance_right:
            s += abs(self.g_right) ** 2
        return float(np.sqrt(s))

    def is_layered(self) -> bool:
        """True when both coefficients are piecewise constant."""
        return all(isinstance(s, Constant) for s in self.a.segments) and \
            all(isinstance(s, Constant) for s in self.c.segments)
