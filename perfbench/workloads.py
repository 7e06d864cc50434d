"""The benchmark's workloads: fixed inputs drawn from a seed, and output checks.

Each workload is a list of items.  An item is one call sequence into the
installed helmlab API (`run`) and a check of its output against an
independent route (`check`, which returns the list of problems found).  The
seed fixes the item order and, for `reference`, the random layered problems;
helmlab itself only ever receives the generated inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from helmlab import coeffs, experiments, oracle, stability
from helmlab.experiments import UnstableFamilySpec
from helmlab.problem import BoundaryConfig, HelmholtzProblem

TABLE1_M = (2, 4, 6, 8, 10, 12)
TABLE1_R = (0.4, 0.5, 0.6)
TABLE3_M = (6, 8, 10, 12, 14, 16, 18, 20)
TABLE3_EPS = (0.0, 1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3)
TABLE3_R = 0.5
BOUND_M = tuple(range(2, 21, 2))
QUASIOPT_CELLS = ((2, 0.4), (8, 0.5))
RANDOM_PROBLEMS = 100
MAX_LAYERS = 10

# criterion 01's rule for a cell whose ladder did not settle
ASTERISK_REL_TOL = 0.15
# interpolation error is O(h) in the energy norm: each level halves it
HALVING_RATIO = 0.5
HALVING_TOL = 0.01


@dataclass(frozen=True)
class Item:
    """One timed unit of work and the check applied to its result."""

    id: str
    run: Callable[[], object]
    check: Callable[[object], list]


@dataclass(frozen=True)
class Workload:
    """The items of one pass, and the warm-up call made during set-up."""

    items: tuple
    warmup: Callable[[], object]


def _shuffled(items: list, rng: np.random.Generator) -> tuple:
    return tuple(items[i] for i in rng.permutation(len(items)))


def _oracle_du(spec: UnstableFamilySpec) -> float:
    amps = oracle.solve_analytic(experiments.family(spec))
    return float(oracle.exact_norms(amps)[0])


# -- table1 --------------------------------------------------------------------

def check_table1_row(row, exact: float) -> list:
    """A converged cell equals the oracle at 4 s.f.; an asterisk cell's
    finest value lies within 15% of it."""
    if row.asterisk:
        finest = row.run.values[-1]
        if not abs(finest - exact) / exact < ASTERISK_REL_TOL:
            return [f"asterisk cell finest {finest:.6g} not within "
                    f"{ASTERISK_REL_TOL:.0%} of oracle {exact:.6g}"]
        return []
    if experiments.round_sig(row.value, 4) != experiments.round_sig(exact, 4):
        return [f"converged cell {row.value:.6g} != oracle {exact:.6g} at 4 s.f."]
    return []


def table1(seed: int, smoke: bool = False) -> Workload:
    """The default table1 grid, one ladder per item, serial, no cache."""
    cells = [(m, r) for m in TABLE1_M for r in TABLE1_R]
    base, levels = 800, 7
    if smoke:
        cells, levels = [(2, 0.4), (4, 0.5)], 3
    items = []
    for m, r in cells:
        spec = UnstableFamilySpec(m, r)
        exact = _oracle_du(spec)
        items.append(Item(
            f"table1/m{m}_r{r}",
            lambda spec=spec: experiments.run_cells([spec], base=base,
                                                    levels=levels, jobs=1)[0],
            lambda row, exact=exact: check_table1_row(row, exact)))
    warm = UnstableFamilySpec(2, 0.4)
    return Workload(_shuffled(items, np.random.default_rng(seed)),
                    lambda: experiments.run_cells([warm], base=base, levels=2,
                                                  jobs=1))


# -- quasiopt --------------------------------------------------------------------

def check_quasiopt(probe) -> list:
    """The interpolation error halves per level; every ratio is finite."""
    problems = []
    interp = np.asarray(probe.interp_errors)
    steps = interp[1:] / interp[:-1]
    if not np.all(np.abs(steps - HALVING_RATIO) <= HALVING_TOL):
        problems.append(f"interpolation error steps {np.round(steps, 4).tolist()}"
                        f" do not halve")
    if not all(math.isfinite(x) for x in probe.ratios):
        problems.append(f"non-finite ratio in {probe.ratios}")
    return problems


def quasiopt(seed: int, smoke: bool = False) -> Workload:
    """experiments.quasiopt_probe on two family members, one probe per item."""
    base, levels = 800, 7
    if smoke:
        base, levels = 50, 3
    problems = {cell: experiments.family(UnstableFamilySpec(*cell))
                for cell in QUASIOPT_CELLS}
    items = [Item(f"quasiopt/m{m}_r{r}",
                  lambda p=p: experiments.quasiopt_probe(p, levels=levels, base=base),
                  check_quasiopt)
             for (m, r), p in problems.items()]
    warm = problems[QUASIOPT_CELLS[0]]
    return Workload(_shuffled(items, np.random.default_rng(seed)),
                    lambda: experiments.quasiopt_probe(warm, levels=2, base=50))


# -- reference ---------------------------------------------------------------------

@dataclass(frozen=True)
class LayeredParams:
    """Inputs of one random layered problem (f = 0)."""

    breakpoints: np.ndarray
    a_values: np.ndarray
    c_values: np.ndarray
    omega: float
    bc: BoundaryConfig
    g_left: complex
    g_right: complex

    def build(self) -> HelmholtzProblem:
        return HelmholtzProblem(
            a=coeffs.piecewise_constant(self.breakpoints, self.a_values),
            c=coeffs.piecewise_constant(self.breakpoints, self.c_values),
            omega=self.omega, bc=self.bc,
            g_left=self.g_left, g_right=self.g_right)


def random_layered_params(rng: np.random.Generator, n: int,
                          value_range=(0.5, 10.0),
                          omega_range=(1.0, 50.0)) -> LayeredParams:
    """Random piecewise-constant problem data on `n` layers, drawn in the
    same order and from the same ranges as the acceptance suite's random
    draws, which also draw n from 1..10."""
    a_vals = rng.uniform(*value_range, n)
    c_vals = rng.uniform(*value_range, n)
    interior = np.sort(rng.uniform(-1.0, 1.0, n - 1))
    while n > 1 and np.min(np.diff(np.concatenate([[-1.0], interior, [1.0]]))) < 1e-6:
        interior = np.sort(rng.uniform(-1.0, 1.0, n - 1))
    bp = np.concatenate([[-1.0], interior, [1.0]])
    bc = list(BoundaryConfig)[int(rng.integers(0, 3))]
    g_left = complex(rng.normal(), rng.normal()) if bc.impedance_left else 0.0
    g_right = complex(rng.normal(), rng.normal()) if bc.impedance_right else 0.0
    return LayeredParams(bp, a_vals, c_vals, float(rng.uniform(*omega_range)),
                         bc, g_left, g_right)


def check_amplitudes(amps, norms) -> list:
    """The oracle's residual is not flagged and its norms are finite and > 0."""
    problems = []
    if amps.flagged:
        problems.append(f"flagged residual {amps.residual:.3e}")
    if not all(math.isfinite(v) and v > 0.0 for v in norms):
        problems.append(f"norms {tuple(norms)!r}")
    return problems


def run_oracle(spec: UnstableFamilySpec, xp: bool):
    amps = oracle.solve_analytic(experiments.family(spec), extended_precision=xp)
    return amps, oracle.exact_norms(amps)


@dataclass(frozen=True)
class RandomResult:
    amps: oracle.WaveAmplitudes
    norms: tuple
    diagnostics: stability.QDiagnostics
    bound: float


def run_random(params: LayeredParams) -> RandomResult:
    """Multiplier, its verification, the stability report and the oracle."""
    prob = params.build()
    q = stability.build_q(prob.a, prob.c)
    diag = stability.verify_q_properties(q, prob.a, prob.c)
    report = stability.stability_report(prob.a, prob.c, prob.bc)
    amps = oracle.solve_analytic(prob)
    norms = oracle.exact_norms(amps)
    bound = report.C_II * math.sqrt(report.Q_exact) * prob.boundary_norm()
    return RandomResult(amps, norms, diag, bound)


def check_random(result: RandomResult) -> list:
    """No flagged residual, the multiplier inequalities hold, and the
    energy bound (f = 0) holds."""
    problems = check_amplitudes(result.amps, result.norms)
    if not result.diagnostics.passed:
        problems.append(f"verify_q_properties failed: {result.diagnostics}")
    energy = result.norms[2]
    if energy > result.bound:
        problems.append(f"energy {energy:.6g} above bound {result.bound:.6g}")
    return problems


def check_bound_rows(rows) -> list:
    return [f"bound_comparison m={row.m} not satisfied"
            for row in rows if not row.satisfied]


def _oracle_item(item_id: str, spec: UnstableFamilySpec, xp: bool) -> Item:
    return Item(item_id, lambda: run_oracle(spec, xp),
                lambda out: check_amplitudes(*out))


def reference(seed: int, smoke: bool = False) -> Workload:
    """Many small calls: oracle sweeps, bound comparisons, random problems."""
    t1_cells = [(m, r) for m in TABLE1_M for r in TABLE1_R]
    t3_m, bound_m, bound_r, n_random = TABLE3_M, BOUND_M, TABLE1_R, RANDOM_PROBLEMS
    if smoke:
        t1_cells, t3_m, bound_m, bound_r, n_random = \
            t1_cells[:2], (12, 14), (2, 4), (0.5,), 3
    items = [_oracle_item(f"oracle-table1/m{m}_r{r}", UnstableFamilySpec(m, r), False)
             for m, r in t1_cells]
    for m in t3_m:
        for eps in TABLE3_EPS:
            # the cells table3 leaves unattempted, filled as `--beyond-paper` does
            beyond = m >= 14 and eps <= 1e-7
            items.append(_oracle_item(f"oracle-table3/m{m}_eps{eps:g}",
                                      UnstableFamilySpec(m, TABLE3_R, eps=eps),
                                      beyond))
    for r in bound_r:
        items.append(Item(f"bound_comparison/r{r}",
                          lambda r=r: experiments.bound_comparison(bound_m, r),
                          check_bound_rows))
    rng = np.random.default_rng(seed)
    for i in range(n_random):
        # layer counts cycle through 1..10 instead of being drawn, so every
        # seed asks for the same amount of work
        params = random_layered_params(rng, 1 + i % MAX_LAYERS)
        items.append(Item(f"random/{i}", lambda p=params: run_random(p),
                          check_random))
    warm = random_layered_params(np.random.default_rng([seed, 1]), MAX_LAYERS)
    return Workload(_shuffled(items, rng),
                    lambda: (run_random(warm), items[0].run()))


WORKLOADS = {"table1": table1, "quasiopt": quasiopt, "reference": reference}
