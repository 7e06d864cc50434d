"""Nearly-unstable layered benchmark family and its study protocols.

The family fixes an even layer count parameter m, a contrast r in (0, 1),
the frequency omega_m = (pi/2)(1 - r + m), and alternating wave speeds 1 - r
(odd layers) / 1 + r (even layers) on 2m + 1 subintervals of [-1, 1] whose
widths are proportional to the local wave speed (the middle one doubled).
Solution energy grows exponentially in m, realising the variation-exponential
worst case of the stability bound; a tiny perturbation of the central
breakpoint collapses the growth.

Protocols: refine-to-convergence ladders (uniform per-subinterval meshes,
doubling counts, convergence when the last three levels agree in the leading
significant figures; two threads share each ladder, as `_run_ladder` sets
out; an optional cache keeps one record per ladder),
table grids over (m, r, data, perturbation), least-squares growth-rate fits,
comparison against the theoretical bound, and an empirical quasi-optimality
probe against the analytic reference (each level solved once in place; two
threads share the probe, as `quasiopt_probe` sets out; on its layered
problems with f = 0 and per-layer uniform meshes, the energy and nodal l2
errors are closed-form element sums: six per layer, and the oracle at nodes
and midpoints, evaluated layer by layer on the mesh's element runs, so the
helper allocates only layer-sized temporaries).
"""

from __future__ import annotations

import json
import math
import os
import threading
from contextlib import contextmanager
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import fem, oracle, stability
from .coeffs import constant, piecewise_constant
from .problem import BoundaryConfig, HelmholtzProblem

# Part of every cached ladder's file name and record; a ladder stored under
# another version is a miss.  Bump it when a change may move a cached value.
CACHE_VERSION = 3
# A ladder converges when its last three levels agree in this many leading
# significant figures; the reported value is the finest level so rounded.
_SIGFIGS = 4
# The workspace pairs (calling thread's, helper thread's) of the ladders not
# running: a ladder takes one (the last returned) or makes one, and puts it
# back once its helper is joined.  A pair keeps its buffers for the life of
# the process.
_WORKSPACES = []


@dataclass(frozen=True)
class UnstableFamilySpec:
    """Parameters of one family member: layer parameter, contrast,
    central-breakpoint perturbation, boundary data pair."""

    m: int
    r: float
    eps: float = 0.0
    g: tuple = (0.0, 1.0)

    def __post_init__(self):
        if self.m < 2 or self.m % 2 != 0:
            raise ValueError("m must be an even integer >= 2")
        if not (0.0 < self.r < 1.0):
            raise ValueError("r must lie in (0, 1)")
        # plain Python numbers, so that numpy scalars name the same cache file
        for name, kind in (("m", int), ("r", float), ("eps", float)):
            object.__setattr__(self, name, kind(getattr(self, name)))

    def cache_key(self) -> str:
        g1, g2 = self.g
        return (f"m{self.m}_r{self.r!r}_eps{self.eps!r}"
                f"_g{complex(g1)!r}_{complex(g2)!r}")


def family(spec: UnstableFamilySpec) -> HelmholtzProblem:
    """Build the family member as a pure-impedance problem on [-1, 1]."""
    m, r = spec.m, spec.r
    n = 2 * m + 1
    scale = 1.0 - r + m
    omega = 0.5 * np.pi * scale
    c_vals = np.where(np.arange(1, n + 1) % 2 == 1, 1.0 - r, 1.0 + r)
    widths = c_vals / scale
    widths[m] *= 2.0  # central subinterval (index m + 1, one-based)
    x = np.concatenate([[-1.0], -1.0 + np.cumsum(widths)])
    x[-1] = 1.0  # telescoping sum equals 2 exactly; pin the endpoint
    x[m + 1] += spec.eps
    if not np.all(np.diff(x) > 0.0):
        raise ValueError(f"perturbation eps={spec.eps} breaks the partition ordering")
    return HelmholtzProblem(
        a=constant(1.0, 1.0),
        c=piecewise_constant(x, c_vals),
        omega=omega,
        bc=BoundaryConfig.PURE_IMPEDANCE,
        g_left=spec.g[0],
        g_right=spec.g[1],
    )


def round_sig(value: float, sigfigs: int = 4) -> float:
    """Round to the given number of significant figures."""
    if value == 0.0 or not math.isfinite(value):
        return value
    return float(f"%.{sigfigs - 1}e" % value)


@dataclass(frozen=True)
class RefinementRun:
    """Per-level ||u_h'|| values plus the convergence verdict.

    `converged` means the last three levels agree in their first four
    significant figures; `reported` is the finest value rounded accordingly.
    """

    values: tuple
    converged: bool
    reported: float
    condition_estimate: float
    residual: float
    wu_finest: float


def refine_to_convergence(problem: HelmholtzProblem, base: int = 800,
                          levels: int = 7,
                          cache_dir: Optional[str] = None,
                          cache_key: Optional[str] = None) -> RefinementRun:
    """Run the refinement ladder base * 2^i, i = 0 .. levels-1.

    Two threads share the levels (`_run_ladder`); every level still runs
    the same functions on the same inputs, so the run is the one a serial
    ladder gives.

    With a cache directory and key, the ladder is one record keyed by
    problem, base and level count: it is read before the ladder and written
    once the estimate is in, so interrupted table runs resume at the first
    ladder not stored, and a stored ladder runs no level and starts no thread.
    """
    if levels < 1:
        raise ValueError("a refinement ladder needs at least one level")
    path = _cache_path(cache_dir, cache_key, base, levels)
    record = _load_cached(path, levels)
    if record is None:
        record = _run_ladder(problem, base, levels)
        _store_cached(path, record)
    values = record["du"]
    tail = [f"%.{_SIGFIGS - 1}e" % v for v in values[-3:]]
    converged = len(values) >= 3 and tail[0] == tail[1] == tail[2]
    return RefinementRun(tuple(values), converged, round_sig(values[-1], _SIGFIGS),
                         record["cond"], record["res"], record["wu"])


def _run_ladder(problem: HelmholtzProblem, base: int, levels: int) -> dict:
    """The ladder's cache record: ||u_h'|| per level, and the finest level's
    weighted norm, residual and condition estimate.

    Two threads share the work.  The calling thread builds, assembles,
    factorizes, solves and norms the finest level; its factors live on for
    the estimate.  A coarse level 0 .. L-2 keeps its ||u_h'|| alone, from
    one in-place solve (`_coarse_du`), and runs on whichever thread takes
    it from `unstarted`, largest first, by one `list.pop()`.  The helper
    thread is the one worker of a thread pool, whose queue runs three jobs
    in order:

    1. from the start, coarse levels, until the estimate is queued, which
       is as soon as the finest factors exist;
    2. the finest level's condition estimate;
    3. the coarse levels that nobody has started.

    Once its finest level is done, the calling thread runs the coarse
    levels that nobody has started, then waits for the three jobs.  When
    the finest right-hand side is exactly e_n, its solution is A^-1 e_n,
    so the estimate solves only A^-1 e_1 and takes A^-1 e_n through a
    Future, resolved as soon as LAPACK returns it, before the residual.
    If any step fails, no level that has not started runs, on either
    thread, and the error surfaces: the unstarted levels are cleared, an
    estimate after a failed first job returns at once, and a failure on
    the calling thread cancels the column's Future (a waiting estimate
    raises) before the pool is joined, and an estimate still queued.

    Every mesh-sized array of the ladder comes from a pair of
    `fem.Workspace`s with fixed roles, one per thread, taken from
    `_WORKSPACES` and put back once the helper is joined, also after a
    failure (a mesh stores no nodes, so the arrays are the solver's).
    Each level and the estimate lend their arrays from the first byte of
    their thread's workspace, in the order the `fem` calls ask for them.
    The calling thread's holds the finest level as [rhs | diag |
    off-diagonal | dl d du du2 ipiv | solution]; its later coarse levels
    take only the bytes below the finest diagonal, those of the right-hand
    side, which is dead once `solve` is done, while the estimate still
    reads the bands, the factors and the solution.  The helper's holds one
    coarse level at a time, [rhs | diag | dl du], the first complex band
    copy written over the float off-diagonal, and then the estimate's
    block of two complex columns.  A workspace grows to the largest layout
    asked of it, so a process keeps about as much memory as its largest
    ladder uses, and every later ladder up to that size maps no fresh page.
    """
    du_levels = [None] * levels
    unstarted = list(range(levels - 1))  # coarse levels, the largest last
    queued = threading.Event()  # set just before the estimate is queued
    last = None

    def run_unstarted(workspace, keep=(), until=lambda: False) -> None:
        """Run the coarse levels nobody has started, largest first, until
        none is left or `until()` holds, each in `workspace` below the
        arrays to `keep`."""
        while not until():
            try:
                level = unstarted.pop()  # atomic, so each level runs once
            except IndexError:  # none left
                return
            workspace.rewind(keep)
            du_levels[level] = _coarse_du(problem, base, level, workspace)

    def dropping(job, *args):
        """job(*args) on the helper; if it fails, no unstarted level runs."""
        try:
            return job(*args)
        except BaseException:
            unstarted.clear()
            raise

    def estimate(*args) -> Optional[float]:
        # the first job ran before this one on the one worker
        if coarse.exception():
            return None
        helpers.rewind()
        return fem.condition_estimate(*args, workspace=helpers)

    # leaving the block joins the helper thread, then puts the pair back
    with _workspace_pair() as (mine, helpers), \
            ThreadPoolExecutor(max_workers=1) as pool:
        coarse = pool.submit(dropping, run_unstarted, helpers, (), queued.is_set)
        try:
            mine.rewind()
            mesh = fem.build_mesh(problem, base * 2**(levels - 1))
            system = fem.assemble(problem, mesh, workspace=mine)
            factors = system.factorize(workspace=mine)
            # a right-hand side of exactly e_n has the solution A^-1 e_n
            unit = system.rhs[-1] == 1.0 and not np.any(system.rhs[:-1])
            last = Future() if unit else None
            queued.set()
            # the worker drops a job's arguments once it has run
            estimated = pool.submit(dropping, estimate, system, last)
            rest = pool.submit(dropping, run_unstarted, helpers)
            solution = fem.solve(system, None if last is None else last.set_result,
                                 workspace=mine)
            system.rhs = None  # the estimate needs the matrix and its LU only
            du, wu, _energy = fem.norms(solution, problem, mesh)
            du_levels[-1] = float(du)
            res = solution.residual
            # what the estimate may still read
            keep = (system.diag, system.offdiag, *factors, solution.values)
            # resolved: the estimate holds the finest system and its column
            del mesh, system, factors, solution
            last = None
            run_unstarted(mine, keep)
            coarse.result()
            cond = estimated.result()
            rest.result()
        except BaseException:
            unstarted.clear()
            if last is not None:
                last.cancel()  # before the join: a waiting estimate raises
            pool.shutdown(wait=False, cancel_futures=True)  # a queued one never runs
            raise
    return {"du": du_levels, "wu": float(wu), "res": res, "cond": cond}


@contextmanager
def _workspace_pair():
    """A pair of workspaces from `_WORKSPACES` (or a new one), put back on
    leaving the block; popped and appended whole, so no two ladders share
    a pair."""
    try:
        pair = _WORKSPACES.pop()
    except IndexError:
        pair = (fem.Workspace(), fem.Workspace())
    try:
        yield pair
    finally:
        _WORKSPACES.append(pair)


def _coarse_du(problem: HelmholtzProblem, base: int, level: int,
               workspace: fem.Workspace) -> float:
    """A coarser level's ||u_h'||, from one in-place solve without factors or
    residual: the record keeps no other number of it."""
    mesh = fem.build_mesh(problem, base * 2**level)
    system = fem.assemble(problem, mesh, workspace=workspace)
    return fem.derivative_norm(fem.solve_in_place(system, workspace=workspace), mesh)


def _cache_path(cache_dir, cache_key, base, levels) -> Optional[Path]:
    if cache_dir is None or cache_key is None:
        return None
    return Path(cache_dir) / f"{cache_key}_base{base}_levels{levels}_v{CACHE_VERSION}.json"


def _load_cached(path: Optional[Path], levels: int) -> Optional[dict]:
    """The stored record, or None (a miss) unless the file holds a dict with
    the current version, `levels` numbers under "du" and numeric "wu",
    "res" and "cond"."""
    if path is None or not path.is_file():
        return None
    try:
        record = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    if not isinstance(record, dict) or record.get("version") != CACHE_VERSION:
        return None
    du = record.get("du")
    if not isinstance(du, list) or len(du) != levels:
        return None
    scalars = [record.get(key) for key in ("wu", "res", "cond")]
    return record if all(map(_is_number, du + scalars)) else None


def _is_number(value) -> bool:
    # json gives int or float for numbers; bool is an int subclass
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _store_cached(path: Optional[Path], record: dict) -> None:
    if path is None:
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")  # one per writer process
    tmp.write_text(json.dumps({**record, "version": CACHE_VERSION}))
    os.replace(tmp, path)


@dataclass(frozen=True)
class TableRow:
    """One benchmark cell: identifiers, reported value, convergence flag, kappa."""

    m: int
    r: float
    eps: float
    g: tuple
    value: float
    asterisk: bool
    kappa: float
    run: RefinementRun


def _run_cell(args) -> TableRow:
    spec, base, levels, cache_dir = args
    run = refine_to_convergence(family(spec), base=base, levels=levels,
                                cache_dir=cache_dir, cache_key=spec.cache_key())
    return TableRow(spec.m, spec.r, spec.eps, spec.g, run.reported,
                    not run.converged, run.condition_estimate, run)


def run_cells(specs: Sequence[UnstableFamilySpec], base: int = 800,
              levels: int = 7, cache_dir: Optional[str] = None,
              jobs: int = 1) -> list:
    """Execute family cells (a work pool when jobs > 1); order follows specs."""
    payload = [(s, base, levels, cache_dir) for s in specs]
    if jobs <= 1 or len(specs) <= 1:
        return [_run_cell(p) for p in payload]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(_run_cell, payload))


def table1(r_list: Sequence[float] = (0.4, 0.5, 0.6),
           m_list: Sequence[int] = (2, 4, 6, 8, 10, 12), **kwargs) -> list:
    """Grid of ||u'|| and kappa over (m, r) with data g = (0, 1)."""
    specs = [UnstableFamilySpec(m, r) for m in m_list for r in r_list]
    return run_cells(specs, **kwargs)


def table2(m_list: Sequence[int] = (2, 4, 6, 8, 10, 12),
           r: float = 0.6,
           g_cases: Sequence[tuple] = ((1.0, 1.0), (2.0, 0.5)), **kwargs) -> list:
    """Data-sensitivity grid at fixed contrast: columns are boundary pairs."""
    specs = [UnstableFamilySpec(m, r, g=g) for m in m_list for g in g_cases]
    return run_cells(specs, **kwargs)


def table3(m_list: Sequence[int] = (6, 8, 10, 12, 14, 16, 18, 20),
           eps_list: Sequence[float] = (0.0, 1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3),
           r: float = 0.5, skip_unattempted: bool = True, **kwargs) -> list:
    """Perturbation-sensitivity grid at r = 0.5 with data g = (0, 1).

    Cells with m >= 14 and eps <= 1e-7 sit beyond double precision and are
    not attempted by default: their rows have run=None and carry in `value`
    the analytic ||u'|| with extended-precision refinement.  Pass
    skip_unattempted=False to run the ladder on them anyway.
    """
    specs = [UnstableFamilySpec(m, r, eps=eps) for m in m_list for eps in eps_list]
    skipped = [skip_unattempted and s.m >= 14 and s.eps <= 1e-7 for s in specs]
    done = iter(run_cells([s for s, skip in zip(specs, skipped) if not skip],
                          **kwargs))

    def analytic(spec):
        amps = oracle.solve_analytic(family(spec), extended_precision=True)
        return TableRow(spec.m, spec.r, spec.eps, spec.g,
                        float(oracle.exact_norms(amps)[0]), False, math.nan, None)

    return [analytic(s) if skip else next(done) for s, skip in zip(specs, skipped)]


def slope_fit(m_values: Sequence[float], u_prime_values: Sequence[float]) -> float:
    """Least-squares slope of (m, ln ||u'||)."""
    m_values = np.asarray(m_values, dtype=float)
    u = np.asarray(u_prime_values, dtype=float)
    if len(m_values) < 2:
        raise ValueError("need at least two points for a slope fit")
    if np.any(u <= 0.0):
        raise ValueError("norm values must be positive")
    return float(np.polyfit(m_values, np.log(u), 1)[0])


def growth_rates(rows: Sequence[TableRow]) -> dict:
    """Per contrast r, in the rows' order: the `slope_fit` of (m, finest
    ||u_h'||) over its rows without an asterisk, or None with fewer than two."""
    settled = {row.r: [] for row in rows}
    for row in rows:
        if not row.asterisk:
            settled[row.r].append((row.m, row.run.values[-1]))
    return {r: slope_fit(*zip(*points)) if len(points) >= 2 else None
            for r, points in settled.items()}


@dataclass(frozen=True)
class BoundComparisonRow:
    """Measured growth against the theoretical envelope for one m."""

    m: int
    ln_measured: float
    bound_closed_form: float   # 2m (1+r)^2/(1-r)^4 + ln(C_II (1+r)/(1-r))
    bound_variation: float     # from the variation-exponential bound on Q
    bound_exact_q: float       # from the exactly computed Q
    satisfied: bool


def bound_comparison(m_list: Sequence[int], r: float) -> list:
    """Compare ln ||u'|| with the theoretical bounds for the family.

    With f = 0 and unit boundary data the energy bound gives
    ln ||u'|| <= ln(C_II sqrt(Q) ||g|| / sqrt(2)) for any valid Q.  The
    closed-form column is the explicit envelope 2m (1+r)^2 / (1-r)^4 +
    ln(C_II (1+r)/(1-r)); the other columns use the variation bound and the
    exact Q.  The measured ||u'|| is the analytic reference value.
    """
    rows = []
    for m in m_list:
        problem = family(UnstableFamilySpec(m, r))
        c2 = stability.stability_constants(problem.a.g_min, problem.c.g_min,
                                           problem.c.g_max)[1]
        du = oracle.exact_norms(oracle.solve_analytic(problem))[0]
        g_norm = problem.boundary_norm()
        closed = (2.0 * m * (1.0 + r) ** 2 / (1.0 - r) ** 4
                  + math.log(c2 * (1.0 + r) / (1.0 - r)))
        qb = stability.q_bound(problem.a, problem.c, problem.bc)
        qe = stability.q_sup(stability.build_q(problem.a, problem.c), problem.bc)
        b_var = math.log(c2 * math.sqrt(qb) * g_norm / math.sqrt(2.0)) \
            if math.isfinite(qb) else math.inf
        b_exact = math.log(c2 * math.sqrt(qe) * g_norm / math.sqrt(2.0))
        ln_du = math.log(du)
        rows.append(BoundComparisonRow(
            m, ln_du, closed, b_var, b_exact,
            ln_du <= min(closed, b_var, b_exact) + 1e-9))
    return rows


# -- errors against the analytic reference ------------------------------------

@dataclass(frozen=True)
class QuasiOptimalityProbe:
    """Per-level Galerkin and interpolation errors in the weighted norm.

    `flagged` carries the analytic reference's flag
    (`oracle.WaveAmplitudes.flagged`): a near-singular amplitude system, so
    every error is measured against an unreliable reference.
    """

    levels: tuple
    energy_errors: tuple
    interp_errors: tuple
    nodal_l2_errors: tuple
    flagged: bool = False

    @property
    def ratios(self) -> tuple:
        """Galerkin error over best-interpolation error, level by level."""
        return tuple(e / i for e, i in zip(self.energy_errors, self.interp_errors))


def quasiopt_probe(problem: HelmholtzProblem, levels: int = 7,
                   base: int = 800) -> QuasiOptimalityProbe:
    """Energy errors of the FEM and of nodal interpolation on one ladder.

    Needs the analytic reference, hence piecewise-constant coefficients with
    zero source, and nonzero impedance data: without it the solution is 0 and
    no ratio exists.  The ratio ladder stabilises below the quasi-optimality
    factor once the resolution condition holds, and approaches 1 for easy
    problems.

    Two threads share the levels; each level's record is the one
    `_level_errors` gives on one thread.  The calling thread builds,
    assembles and solves every level in place, largest first
    (`_solved_level`), and right after each solve submits that level's
    error sums (`_error_sums`: the oracle at nodes and midpoints, and the
    closed-form layer sums of every error, the nodal l2 one included) to
    the one worker of a thread pool, whose queue runs them largest first.
    Once every level is solved, the calling thread walks the levels
    smallest first: it runs each job it can still cancel itself, and waits
    for the others.  Every `fem` call and every mesh-sized array stays on
    the calling thread, and the helper allocates only layer-sized
    temporaries (glibc gives the helper its own malloc arena, where freed
    arrays stay resident); and the finest level is solved first, with
    nothing else alive, so the probe's memory peak is that one solve.  If
    any step fails, no further level is solved and no job starts, on either
    thread: the jobs still queued are cancelled, and the error surfaces
    once the helper is joined.
    """
    if levels < 1:
        raise ValueError("a quasi-optimality probe needs at least one level")
    amps = oracle.solve_analytic(problem)
    if problem.boundary_norm() == 0.0:
        raise ValueError("a quasi-optimality probe needs nonzero boundary data")
    solved = [None] * levels  # (mesh, u_h) of a level not summed yet
    submitted = []  # the error jobs, largest level first
    failed = threading.Event()  # set as soon as any step fails

    def sums(level: int) -> Optional[tuple]:
        """The level's `_error_sums`; none once a step has failed."""
        if failed.is_set():
            return None
        arrays, solved[level] = solved[level], None  # gone once summed
        try:
            return _error_sums(problem, amps, *arrays)
        except BaseException:
            failed.set()
            raise

    # leaving the block joins the helper thread
    with ThreadPoolExecutor(max_workers=1) as pool:
        try:
            for level in reversed(range(levels)):
                if failed.is_set():
                    for job in submitted:  # in order, so the failed one raises
                        job.result()
                solved[level] = _solved_level(problem, amps, base * 2**level)
                submitted.append(pool.submit(sums, level))
            errors = [sums(level) if job.cancel() else job.result()
                      for level, job in enumerate(reversed(submitted))]
        except BaseException:
            failed.set()
            pool.shutdown(wait=False, cancel_futures=True)  # a queued job never runs
            raise
    # per level (FEM, interpolation, nodal), transposed to the fields
    return QuasiOptimalityProbe(tuple(range(levels)), *zip(*errors),
                                flagged=amps.flagged)


# For p and q of `_error_sums`, theta = kh/2, s = sin theta, c = cos theta:
# int p'^2 = k W0, int q'^2 = W1/k, int p^2 = W2/k, int q^2 = W3/k^3,
# int p = W4/k and int tq = W5/k^3, where W0 = theta - sc, W1 = theta + sc
# - 2s^2/theta, W2 = theta(1 + 2c^2) - 3sc, W3 = theta - sc - 4s(s - theta c)
# /theta + 2 theta s^2/3, W4 = 2(s - theta c) and W5 = W4 - 2 theta^2 s/3,
# each as terms (coef, a, f, b): coef theta^a f(b theta), cos(0 theta) = 1.
# Below `_SERIES_BELOW` the terms cancel (W3 ~ theta^7 from terms ~ theta),
# so there a W is its exactly summed Taylor series (both sides are within
# 2e-13 of mpmath).
_WEIGHT_TERMS = (
    ((1, 1, math.cos, 0), (Fraction(-1, 2), 0, math.sin, 2)),
    ((1, 1, math.cos, 0), (Fraction(1, 2), 0, math.sin, 2),
     (-1, -1, math.cos, 0), (1, -1, math.cos, 2)),
    ((2, 1, math.cos, 0), (1, 1, math.cos, 2), (Fraction(-3, 2), 0, math.sin, 2)),
    ((Fraction(4, 3), 1, math.cos, 0), (Fraction(-1, 3), 1, math.cos, 2),
     (Fraction(3, 2), 0, math.sin, 2), (-2, -1, math.cos, 0), (2, -1, math.cos, 2)),
    ((2, 0, math.sin, 1), (-2, 1, math.cos, 1)),
    ((2, 0, math.sin, 1), (-2, 1, math.cos, 1), (Fraction(-2, 3), 2, math.sin, 1)),
)
_SERIES_BELOW = 1.0


def _taylor(terms, degree: int = 25) -> np.ndarray:
    """Taylor coefficients in theta, up to `degree`, of a sum of terms."""
    coeffs = [Fraction(0)] * (degree + 2)  # degrees -1 .. degree
    for coef, a, f, b in terms:
        for m in range(degree + 1 - a):
            # the m-th derivative of sin or cos at 0 is f(m pi/2): -1, 0 or 1
            d_m = round(f(m * math.pi / 2)) * b**m
            coeffs[m + a + 1] += Fraction(coef * d_m, math.factorial(m))
    return np.array(coeffs[1:], dtype=float)


_WEIGHT_SERIES = tuple(_taylor(terms) for terms in _WEIGHT_TERMS)


def _layer_weights(k: float, h: float) -> tuple:
    """(int p'^2, int q'^2, int p^2, int q^2, int p, int tq) of `_error_sums`."""
    theta = 0.5 * k * h
    if theta < _SERIES_BELOW:
        w = [np.polynomial.polynomial.polyval(theta, c) for c in _WEIGHT_SERIES]
    else:
        w = [sum(float(coef) * theta**a * f(b * theta) for coef, a, f, b in terms)
             for terms in _WEIGHT_TERMS]
    return k * w[0], w[1] / k, w[2] / k, w[3] / k**3, w[4] / k, w[5] / k**3


def _level_errors(problem: HelmholtzProblem, amps: oracle.WaveAmplitudes,
                  n_elements: int) -> tuple:
    """One level's record of `quasiopt_probe`, on the calling thread alone."""
    return _error_sums(problem, amps, *_solved_level(problem, amps, n_elements))


def _solved_level(problem: HelmholtzProblem, amps: oracle.WaveAmplitudes,
                  n_elements: int) -> tuple:
    """A level's mesh and its FEM nodal values u_h from one in-place solve:
    all of the level's `fem` calls and mesh-sized allocations."""
    mesh = fem.build_mesh(problem, n_elements)
    if not np.array_equal(mesh.partition, amps.partition):
        raise ValueError("the mesh and the reference solution have different partitions")
    mesh.nodes  # computed here, so that both threads take views of them
    return mesh, fem.solve_in_place(fem.assemble(problem, mesh))


def _error_sums(problem: HelmholtzProblem, amps: oracle.WaveAmplitudes,
                mesh: fem.Mesh1D, u_h: np.ndarray) -> tuple:
    """One level's weighted-norm errors of the FEM solution u_h and of the
    nodal interpolant of u (closed-form element integrals), and its
    trapezoid-weighted nodal l2 error, all from one pass over the layers.

    On an element of width h in a layer of wavenumber k, u = S cos kt +
    D sin(kt)/k with t from the midpoint, S = u(mid) and D = u'(mid).  With
    d = u - u_h at the nodes and e, o its mean and difference over the
    element, u - u_h = S p + D q + e + o t/h, p = cos kt - cos(kh/2) and
    q = (sin kt - (2t/h) sin(kh/2))/k.  Odd products integrate to 0, so
    int |u' - u_h'|^2 = |S|^2 int p'^2 + |D|^2 int q'^2 + |o|^2/h and
    int |u - u_h|^2 = |S|^2 int p^2 + |D|^2 int q^2 + h(|e|^2 + |o|^2/12) +
    2 Re(conj(S) e) int p + 2 Re(conj(D) o) int tq / h; for the interpolant
    d = 0.  The trapezoid term of the nodal l2 error, h/2 (|d_l|^2 +
    |d_r|^2), is exactly h (|e|^2 + |o|^2/4).  The oracle runs layer by
    layer on the mesh's own element runs: no point is looked up, and every
    temporary is layer-sized.
    """
    interp2 = excess2 = nodal2 = 0.0  # the FEM error^2 is interp2 + excess2
    last = len(amps.a) - 1
    for j, (a, c, k) in enumerate(zip(amps.a, amps.c, amps.k)):
        own = mesh.elements_of(j)
        ends = mesh.partition[j:j + 2]  # the layer's first and last nodes
        h = (ends[1] - ends[0]) / mesh.per_segment
        dp2, dq2, p2, q2, p1, tq = _layer_weights(k, h)
        x = mesh.node_run(own.start, own.stop + 1)
        s, du = amps.eval_on_layer(j, 0.5 * (x[:-1] + x[1:]), deriv=True)
        # u at the nodes in two halves: beside s, du and the nodes, one
        # whole run's oracle temporaries would raise the peak
        half = mesh.per_segment // 2
        d = np.concatenate([amps.eval_on_layer(j, x[:half]),
                            amps.eval_on_layer(j, x[half:])])
        del x
        if j < last:  # breakpoints go to the layer on their right, as in `eval`
            d[-1] = amps.eval_on_layer(j + 1, ends[1:])[0]
        d -= u_h[own.start:own.stop + 1]  # u - u_h at the nodes
        e, o = 0.5 * (d[:-1] + d[1:]), np.diff(d)
        s2, du2, e2, o2 = (_real_dot(z, z) for z in (s, du, e, o))
        mass_weight = (problem.omega / c) ** 2
        interp2 += a * (s2 * dp2 + du2 * dq2) + mass_weight * (s2 * p2 + du2 * q2)
        excess2 += a * o2 / h + mass_weight * (h * (e2 + o2 / 12.0) + 2.0 * (
            _real_dot(s, e) * p1 + _real_dot(du, o) * tq / h))
        nodal2 += h * (e2 + o2 / 4.0)
        del s, du, d, e, o  # layer-sized; gone before the next layer's
    return (float(np.sqrt(interp2 + excess2)), float(np.sqrt(interp2)),
            float(np.sqrt(nodal2)))


def _real_dot(x: np.ndarray, y: np.ndarray) -> float:
    """Re(sum conj(x) y) of two contiguous complex arrays, by numpy's
    pairwise sum and no BLAS call, so its bits do not depend on the BLAS
    build or its thread count."""
    return float(np.sum(x.view(float) * y.view(float)))
