"""Finite element theory constants: continuity, adjoint approximability,
resolution condition, and quasi-optimality factors.

The regularity/interpolation/trace constants are not computable from
coefficient data; they default to 1.0 and the report flags that absolute
conclusions require certified values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class FemTheoryInputs:
    """Coefficient bounds, frequencies, mesh size and analysis constants."""

    a_min: float
    a_max: float
    c_min: float
    c_max: float
    omega: float
    omega0: float
    h: float
    c_stab: float
    kappa_a: float = 0.0
    kappa_c: float = 0.0
    c_reg: float = 1.0
    c_int: float = 1.0
    c_trace: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.omega0 <= self.omega):
            raise ValueError("need 0 < omega0 <= omega")
        if not (0.0 < self.a_min <= self.a_max):
            raise ValueError("need 0 < a_min <= a_max")
        if not (0.0 < self.c_min <= self.c_max):
            raise ValueError("need 0 < c_min <= c_max")
        if self.h <= 0.0:
            raise ValueError("mesh size must be positive")
        if min(self.kappa_a, self.kappa_c) < 0.0 or self.c_stab < 0.0:
            raise ValueError("kappa and c_stab must be nonnegative")

    @property
    def beta_max(self) -> float:
        # impedance parameter sqrt(a)/c maximised over the coefficient bounds
        return math.sqrt(self.a_max) / self.c_min

    @property
    def defaults_used(self) -> bool:
        return self.c_reg == 1.0 and self.c_int == 1.0 and self.c_trace == 1.0


def continuity_constant(inputs: FemTheoryInputs) -> float:
    """Bound on the sesquilinear form w.r.t. the weighted energy norm."""
    return 3.0 + 0.5 * inputs.c_trace ** 2 * max(
        1.0 / inputs.a_min,
        inputs.c_max ** 2 * (1.0 / inputs.omega0 ** 2 + inputs.beta_max ** 2))


def c0_constant(inputs: FemTheoryInputs) -> float:
    return 1.0 + (math.sqrt(inputs.a_max) * inputs.c_max / inputs.omega0) ** 2


def c0_prime_constant(inputs: FemTheoryInputs) -> float:
    return inputs.c_trace * (
        1.0 / math.sqrt(inputs.a_min)
        + inputs.c_min / inputs.omega0
        * (1.0 + inputs.kappa_c + 0.5 * inputs.kappa_a))


def k_constant(inputs: FemTheoryInputs) -> float:
    sa = math.sqrt(inputs.a_min)
    return inputs.c_reg * inputs.c_int * sa * (
        c0_constant(inputs) + c0_prime_constant(inputs) * sa
        + inputs.kappa_a / inputs.omega0 * sa * inputs.c_min)


def sigma_star_bound(inputs: FemTheoryInputs) -> float:
    """Upper bound for the adjoint approximability of the P1 space.

    K (sqrt(a_max/a_min) + omega h / (sqrt(a_min) c_min))
      (c_min/omega0 + C_stab) (omega / (sqrt(a_min) c_min))^2 h.
    """
    sa_c = math.sqrt(inputs.a_min) * inputs.c_min
    return (k_constant(inputs)
            * (math.sqrt(inputs.a_max / inputs.a_min)
               + inputs.omega * inputs.h / sa_c)
            * (inputs.c_min / inputs.omega0 + inputs.c_stab)
            * (inputs.omega / sa_c) ** 2 * inputs.h)


@dataclass(frozen=True)
class FemTheoryReport:
    """Computed theory constants plus the resolution verdict."""

    c_ac: float
    c0: float
    c0_prime: float
    k: float
    sigma_star: float
    resolution_ok: bool
    quasi_opt_h: float
    quasi_opt_l2: float
    defaults_used: bool


def resolution_and_quasiopt(inputs: FemTheoryInputs,
                            sigma_star: float | None = None) -> FemTheoryReport:
    """Resolution condition sigma* <= 1/(2 C_ac) and quasi-optimality factors.

    `sigma_star` overrides the computed bound (e.g. to probe the formal
    sigma* = 0 limit).
    """
    c_ac = continuity_constant(inputs)
    ss = sigma_star_bound(inputs) if sigma_star is None else sigma_star
    return FemTheoryReport(
        c_ac=c_ac,
        c0=c0_constant(inputs),
        c0_prime=c0_prime_constant(inputs),
        k=k_constant(inputs),
        sigma_star=ss,
        resolution_ok=ss <= 0.5 / c_ac,
        quasi_opt_h=2.0 * c_ac,
        quasi_opt_l2=2.0 * c_ac ** 2 * ss,
        defaults_used=inputs.defaults_used,
    )

