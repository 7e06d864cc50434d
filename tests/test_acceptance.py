"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.

Reference values are transcribed benchmark table entries; cells whose ladder
had not settled to four significant figures carry an asterisk and fewer
digits.  For those cells the digits describe the true value only up to one
unit in the last reported place, so they are checked against the analytic
reference at that precision, while the finite element run must either flag
the cell itself or agree with the analytic value to four figures.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

import helmlab as hl
from helmlab.cli import parse_and_dispatch

from conftest import random_layered_problem

BC = hl.BoundaryConfig
DATA = Path(__file__).resolve().parent / "data"

# ||u'|| over (m, r), boundary data g = (0, 1); None marks an asterisk
TABLE1_DU = {
    (2, 0.4): (0.7742, False), (2, 0.5): (0.8498, False), (2, 0.6): (0.9642, False),
    (4, 0.4): (1.313, False), (4, 0.5): (1.845, False), (4, 0.6): (2.789, False),
    (6, 0.4): (2.538, False), (6, 0.5): (4.588, False), (6, 0.6): (9.238, False),
    (8, 0.4): (5.180, False), (8, 0.5): (12.03, False), (8, 0.6): (32.25, False),
    (10, 0.4): (10.88, False), (10, 0.5): (32.47, False), (10, 0.6): (116.0, True),
    (12, 0.4): (23.29, False), (12, 0.5): (89.0, True), (12, 0.6): (420.0, True),
}
TABLE1_SIGFIGS = {(10, 0.6): 3, (12, 0.5): 2, (12, 0.6): 2}
TABLE1_KAPPA = {
    (2, 0.4): 5.46e10, (2, 0.5): 8.21e10, (2, 0.6): 1.34e11,
    (4, 0.4): 3.46e11, (4, 0.5): 8.22e11, (4, 0.6): 2.31e12,
    (6, 0.4): 1.98e12, (6, 0.5): 7.63e12, (6, 0.6): 3.75e13,
    (8, 0.4): 1.10e13, (8, 0.5): 6.94e13, (8, 0.6): 6.03e14,
}
TABLE1_GRAD = {0.4: 0.34, 0.5: 0.46, 0.6: 0.61}

# r = 0.6, columns by boundary data
TABLE2_DU = {
    ((1.0, 1.0), 2): (0.4677, False), ((1.0, 1.0), 4): (0.3480, False),
    ((1.0, 1.0), 6): (0.2887, False), ((1.0, 1.0), 8): (0.2520, False),
    ((2.0, 0.5), 2): (1.520, False), ((2.0, 0.5), 4): (4.198, False),
    ((2.0, 0.5), 6): (13.86, False), ((2.0, 0.5), 8): (48.38, False),
}

# r = 0.5: spot cells and the m = 8 perturbation row; the True flag marks a
# transcribed value that disagrees with both of our independent solvers
# (ladder and analytic reference give 0.26073; see the notes ledger), which
# is therefore checked by dual-route agreement instead
TABLE3_SPOTS = {(6, 1e-3): (0.7256, 4), (8, 1e-5): (9.49, 3), (20, 1e-6): (0.1466, 4)}
TABLE3_ROW8 = {0.0: (12.03, 4, False), 1e-9: (12.03, 4, False),
               1e-8: (12.03, 4, False), 1e-7: (12.03, 4, False),
               1e-6: (11.99, 4, False), 1e-5: (9.49, 3, False),
               1e-4: (1.547, 4, False), 1e-3: (0.2603, 4, True)}


def _report(num: int, ok: bool, text: str) -> bool:
    print(f"ACCEPTANCE {num:02d} [{'PASS' if ok else 'FAIL'}] {text}")
    return ok


def _matches_reported(value: float, reported: float, sigfigs: int) -> bool:
    """True when `value` agrees with a table entry carrying `sigfigs` digits."""
    if sigfigs >= 4:
        return hl.round_sig(value, 4) == pytest.approx(reported, rel=1e-9)
    ulp = 10.0 ** (math.floor(math.log10(abs(reported))) - sigfigs + 1)
    return abs(value - reported) <= ulp


@pytest.fixture(scope="module")
def table1_fem():
    return {(row.m, row.r): row
            for row in hl.table1((0.4, 0.5, 0.6), (2, 4, 6, 8, 10, 12))}


@pytest.fixture(scope="module")
def table1_oracle():
    t0 = time.perf_counter()
    values = {}
    for (m, r) in TABLE1_DU:
        amps = hl.solve_analytic(hl.family(hl.UnstableFamilySpec(m, r)))
        values[(m, r)] = hl.exact_norms(amps)[0]
    return values, time.perf_counter() - t0


@pytest.fixture(scope="module")
def random_draws():
    rng = np.random.default_rng(987654321)
    return [random_layered_problem(rng) for _ in range(100)]


def test_criterion_01_table1(table1_fem, table1_oracle):
    oracle_vals, oracle_time = table1_oracle
    ok = oracle_time < 1.0
    detail = [] if ok else [f"oracle took {oracle_time:.2f}s"]
    for (m, r), (reported, paper_flag) in TABLE1_DU.items():
        sig = TABLE1_SIGFIGS.get((m, r), 4)
        row = table1_fem[(m, r)]
        exact = oracle_vals[(m, r)]
        if not _matches_reported(exact, reported, sig):
            ok = False
            detail.append(f"oracle ({m},{r}): {exact:.6g} vs {reported}")
        if not paper_flag:
            if row.asterisk or not _matches_reported(row.value, reported, sig):
                ok = False
                detail.append(f"fem ({m},{r}): {row.value:.6g}{'*' * row.asterisk}"
                              f" vs {reported}")
        else:
            # asterisked cell: either our ladder also fails to settle, or it
            # settled onto the true value; the finest value stays near truth
            settled_on_truth = (not row.asterisk and
                                hl.round_sig(row.run.values[-1], 4)
                                == hl.round_sig(exact, 4))
            near = abs(row.run.values[-1] - exact) / exact < 0.15
            if not ((row.asterisk or settled_on_truth) and near):
                ok = False
                detail.append(f"fem ({m},{r}): {row.value:.6g}"
                              f"{'*' * row.asterisk} vs exact {exact:.6g}")
    assert _report(1, ok, "Table 1: oracle (<1s) and FEM ladder reproduce "
                   "all 18 cells at reported precision; asterisk semantics "
                   "honored" + ("; ".join([""] + detail))), detail


def test_table1_csv_unchanged(table1_fem, monkeypatch, capsys):
    # the default table1 CSV, formatted by the CLI from the criterion 01 grid
    monkeypatch.setattr(hl.experiments, "table1",
                        lambda *args, **kwargs: list(table1_fem.values()))
    assert parse_and_dispatch(["table1"]) == 0
    assert capsys.readouterr().out.encode() == (DATA / "table1.csv").read_bytes()


def test_criterion_02_slope_fits(table1_fem):
    ok = True
    detail = []
    rates = hl.growth_rates(list(table1_fem.values()))
    for r, expected in TABLE1_GRAD.items():
        slope = rates[r]
        detail.append(f"r={r}: {slope:.3f} (target {expected} +- 0.02)")
        if abs(slope - expected) > 0.02:
            ok = False
    assert _report(2, ok, "growth-rate fits: " + "; ".join(detail)), detail


def test_criterion_03_table2():
    rows = hl.table2((2, 4, 6, 8))
    ok = True
    detail = []
    for row in rows:
        reported, _flag = TABLE2_DU[(row.g, row.m)]
        if row.asterisk or hl.round_sig(row.value, 4) != pytest.approx(reported, rel=1e-9):
            ok = False
            detail.append(f"(m={row.m}, g={row.g}): {row.value:.6g} vs {reported}")
    assert _report(3, ok, "Table 2 (r=0.6): both data columns match to four "
                   "significant figures for m <= 8" + "; ".join([""] + detail)), detail


def test_criterion_04_table3():
    ok = True
    detail = []
    for (m, eps), (reported, sig) in TABLE3_SPOTS.items():
        run = hl.refine_to_convergence(
            hl.family(hl.UnstableFamilySpec(m, 0.5, eps=eps)))
        if not _matches_reported(run.values[-1], reported, sig):
            ok = False
            detail.append(f"(m={m}, eps={eps}): {run.values[-1]:.6g} vs {reported}")
    row_vals = {}
    for eps, (reported, sig, erratum) in TABLE3_ROW8.items():
        spec = hl.UnstableFamilySpec(8, 0.5, eps=eps)
        run = hl.refine_to_convergence(hl.family(spec))
        row_vals[eps] = run.values[-1]
        if erratum:
            exact = hl.exact_norms(hl.solve_analytic(hl.family(spec)))[0]
            if hl.round_sig(run.values[-1], 4) != hl.round_sig(exact, 4):
                ok = False
                detail.append(f"(m=8, eps={eps}): ladder {run.values[-1]:.6g} "
                              f"disagrees with analytic {exact:.6g}")
        elif not _matches_reported(run.values[-1], reported, sig):
            ok = False
            detail.append(f"(m=8, eps={eps}): {run.values[-1]:.6g} vs {reported}")
    # qualitative collapse: non-increasing in eps (at observable precision)
    ordered = [row_vals[e] for e in sorted(row_vals)]
    if not all(ordered[i] >= ordered[i + 1] * (1.0 - 1e-6)
               for i in range(len(ordered) - 1)):
        ok = False
        detail.append(f"m=8 row not monotone: {ordered}")
    if not (ordered[0] / ordered[-1] > 10.0):
        ok = False
        detail.append("no visible collapse across the eps grid")
    assert _report(4, ok, "Table 3 (r=0.5): spot cells at reported precision "
                   "and the unstable-to-stable collapse across eps"
                   + "; ".join([""] + detail)), detail


def test_criterion_05_condition_numbers(table1_fem):
    ok = True
    detail = []
    for (m, r), kappa_ref in TABLE1_KAPPA.items():
        est = table1_fem[(m, r)].kappa
        ratio = est / kappa_ref
        if not (0.1 <= ratio <= 10.0):
            ok = False
            detail.append(f"({m},{r}): {est:.3g} vs {kappa_ref:.3g}")
    assert _report(5, ok, "condition estimates within a factor of 10 of the "
                   "reference kappa column for every m <= 8 cell"
                   + "; ".join([""] + detail)), detail


def test_criterion_06_stability_bound(random_draws):
    t0 = time.perf_counter()
    violations = 0
    worst = 0.0
    for prob in random_draws:
        amps = hl.solve_analytic(prob)
        energy = hl.exact_norms(amps)[2]
        q = hl.q_sup(hl.build_q(prob.a, prob.c), prob.bc)
        _, c2 = hl.stability_constants(prob.a.g_min, prob.c.g_min, prob.c.g_max)
        bound = c2 * math.sqrt(q) * prob.boundary_norm()  # f = 0
        worst = max(worst, energy / bound)
        if energy > bound:
            violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 30.0
    # the time stays out of the ACCEPTANCE line, so that two runs' lines
    # compare byte for byte
    assert _report(6, ok, f"energy bound on 100 random layered problems: "
                   f"{violations} violations, worst ratio {worst:.3f}"), \
        f"{violations} violations, worst ratio {worst:.3f}, {elapsed:.1f}s (limit 30s)"


def test_criterion_07_multiplier_properties(random_draws):
    ok = True
    detail = []
    for i, prob in enumerate(random_draws):
        a, c = prob.a, prob.c
        q = hl.build_q(a, c)
        diag = hl.verify_q_properties(q, a, c)
        if not diag.passed:
            ok = False
            detail.append(f"draw {i}: {diag}")
        q_exact = hl.q_sup(q, prob.bc)
        if q_exact > hl.q_bound(a, c, prob.bc) * (1.0 + 1e-12):
            ok = False
            detail.append(f"draw {i}: Q_exact above its bound")
        if a.tilde().variation() > a.variation() + 1e-10 or \
                c.tilde().variation() > c.variation() + 1e-10:
            ok = False
            detail.append(f"draw {i}: envelope variation grew")
        for coeff in (a, c):
            product, bound = hl.tech_product_check(coeff)
            if product > bound * (1.0 + 1e-12):
                ok = False
                detail.append(f"draw {i}: jump-ratio product above bound")
    assert _report(7, ok, "multiplier inequalities, Q_exact <= Q_bound, "
                   "envelope variation contraction, and the jump-ratio "
                   "product bound hold on all 100 draws"
                   + "; ".join([""] + detail)), detail


def test_criterion_08_fem_oracle_convergence(table1_fem):
    # rate ladder at a coarse base: the protocol meshes start so fine that
    # the nodal error reaches the 1e17-conditioning noise floor, hiding the
    # asymptotic order; the coarse ladder exposes it cleanly
    probe = hl.quasiopt_probe(hl.family(hl.UnstableFamilySpec(2, 0.4)),
                              levels=7, base=50)
    eE = np.asarray(probe.energy_errors)
    eL = np.asarray(probe.nodal_l2_errors)
    ratesE = np.log2(eE[-4:-1] / eE[-3:])
    ratesL = np.log2(eL[-4:-1] / eL[-3:])
    run = table1_fem[(2, 0.4)].run
    identity_gap = abs(run.values[-1] - run.wu_finest) / run.values[-1]
    ok = (np.all(np.abs(ratesE - 1.0) <= 0.1)
          and np.all(np.abs(ratesL - 2.0) <= 0.15)
          and identity_gap < 1e-4)
    assert _report(8, ok, f"(m=2, r=0.4): energy rates {np.round(ratesE, 3)}, "
                   f"nodal rates {np.round(ratesL, 3)} over the last four "
                   f"levels; energy identity gap {identity_gap:.2e} at the "
                   f"finest protocol mesh"), (ratesE, ratesL, identity_gap)


def test_criterion_09_theory_closed_forms():
    inp = hl.FemTheoryInputs(a_min=1.0, a_max=1.0, c_min=1.0, c_max=1.0,
                             omega=1.0, omega0=1.0, h=0.01, c_stab=1.0)
    report = hl.resolution_and_quasiopt(inp)
    checks = {
        "C_ac": (report.c_ac, 4.0),
        "C0": (report.c0, 2.0),
        "C0_prime": (report.c0_prime, 2.0),
        "K": (report.k, 4.0),
        "sigma*": (report.sigma_star, 4.0 * 1.01 * 2.0 * 0.01),
        "C_ac(a=1/4)": (hl.continuity_constant(hl.FemTheoryInputs(
            a_min=0.25, a_max=0.25, c_min=1.0, c_max=1.0, omega=1.0,
            omega0=1.0, h=0.01, c_stab=1.0)), 5.0),
    }
    ok = all(abs(got - want) <= 1e-12 for got, want in checks.values())
    hs = np.logspace(-6, 0, 13)
    bounds = [hl.sigma_star_bound(hl.FemTheoryInputs(
        a_min=1.0, a_max=1.0, c_min=1.0, c_max=1.0, omega=1.0, omega0=1.0,
        h=h, c_stab=1.0)) for h in hs]
    ok = ok and np.all(np.diff(bounds) > 0.0)
    assert _report(9, ok, "theory constants at unit inputs exact to 1e-12 "
                   "and the approximability bound is monotone in h"), checks


def test_criterion_10_scope_note():
    # the regularity/interpolation/trace constants are analysis artifacts
    # with no desk-scale reproduction; they enter only through the exact
    # formula evaluations and monotonicity checks of criterion 9
    ok = True
    assert _report(10, ok, "abstract analysis constants are accepted via the "
                   "criterion-9 formula checks only (documented scope)")
