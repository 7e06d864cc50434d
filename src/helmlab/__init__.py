"""helmlab: a numerical laboratory for the 1D heterogeneous Helmholtz equation.

Computes explicit stability constants from coefficient data, solves the PDE
by conforming P1 finite elements and by an exact layered-medium reference
solver, evaluates the finite element theory constants, and reproduces the
high-frequency instability benchmarks.
"""

from .coeffs import (Constant, Linear, PiecewiseCoefficient, Smooth,
                     CoefficientError, common_partition, constant,
                     from_segments, on_common_partition, piecewise_constant,
                     refine, variation_of_square)
from .problem import BoundaryConfig, HelmholtzProblem, PiecewisePolynomial
from .stability import (JumpFactors, MultiplierQ, QDiagnostics, StabilityReport,
                        apriori_rhs, build_q, jump_factors, q_bound,
                        q_product_bound, q_sup, stability_constants,
                        stability_report, tech_product_check,
                        verify_q_properties)
from .theory import (FemTheoryInputs, FemTheoryReport, continuity_constant,
                     kappa_ratio, resolution_and_quasiopt, sigma_star_bound)
from .fem import (BandedComplexSystem, FemSolution, Mesh1D, MeshAlignmentError,
                  SingularSystemError, assemble, build_mesh,
                  condition_estimate, derivative_norm, norms, solve,
                  solve_in_place, solve_problem)
from .oracle import (UnsupportedProblemError, WaveAmplitudes, exact_norms,
                     solve_analytic)
from .experiments import (BoundComparisonRow, QuasiOptimalityProbe,
                          RefinementRun, TableRow, UnstableFamilySpec,
                          bound_comparison, family, quasiopt_probe,
                          refine_to_convergence, round_sig, run_cells,
                          slope_fit, table1, table2, table3)

__version__ = "0.1.0"
