import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import solve_banded

import helmlab as hl
from helmlab.oracle import RESIDUAL_FLAG_LEVEL, UnsupportedProblemError

from conftest import random_layered_problem

BC = hl.BoundaryConfig


def unit_problem(omega=np.pi / 2, g=(0.0, 1.0), bc=BC.PURE_IMPEDANCE):
    return hl.HelmholtzProblem(a=hl.constant(1.0), c=hl.constant(1.0),
                               omega=omega, bc=bc, g_left=g[0], g_right=g[1])


def dense_system(problem):
    """The amplitude system as a dense 2N x 2N matrix and its right-hand
    side, entry by entry: the reference for the band build of solve_analytic."""
    a = np.array([s.value for s in problem.a.segments])
    c = np.array([s.value for s in problem.c.segments])
    om = problem.omega
    n = len(a)
    k = om / (np.sqrt(a) * c)
    h = np.diff(problem.partition)
    E = np.exp(1j * k * h)
    Em = np.exp(-1j * k * h)
    beta = np.sqrt(a) / c
    M = np.zeros((2 * n, 2 * n), dtype=complex)
    rhs = np.zeros(2 * n, dtype=complex)
    if problem.bc.impedance_left:
        M[0, 0] = -1j * a[0] * k[0] - 1j * om * beta[0]
        M[0, 1] = 1j * a[0] * k[0] - 1j * om * beta[0]
        rhs[0] = problem.g_left
    else:
        M[0, 0] = 1.0
        M[0, 1] = 1.0
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
    if problem.bc.impedance_right:
        M[-1, -2] = (1j * a[-1] * k[-1] - 1j * om * beta[-1]) * E[-1]
        M[-1, -1] = (-1j * a[-1] * k[-1] - 1j * om * beta[-1]) * Em[-1]
        rhs[-1] = problem.g_right
    else:
        M[-1, -2] = E[-1]
        M[-1, -1] = Em[-1]
    return M, rhs


def dense_solve(problem, extended_precision=False):
    """(solution, relative residual) by the dense route: the band copied out
    of M entry by entry, dense products for the refinement and the residual."""
    M, rhs = dense_system(problem)
    ab = np.zeros((5, len(rhs)), dtype=complex)
    for i in range(len(rhs)):
        for j in range(max(0, i - 2), min(len(rhs), i + 3)):
            ab[2 + i - j, j] = M[i, j]
    sol = solve_banded((2, 2), ab, rhs)
    if extended_precision:
        Mx, bx = M.astype(np.clongdouble), rhs.astype(np.clongdouble)
        for _ in range(3):
            r = bx - Mx @ sol.astype(np.clongdouble)
            sol = sol + solve_banded((2, 2), ab, r.astype(complex))
    norm_rhs = np.linalg.norm(rhs, np.inf)
    residual = float(np.linalg.norm(M @ sol - rhs, np.inf)
                     / (norm_rhs if norm_rhs > 0 else 1.0))
    return sol, residual


def table_grid_problems():
    table1 = [hl.UnstableFamilySpec(m, r) for m in (2, 4, 6, 8, 10, 12)
              for r in (0.4, 0.5, 0.6)]
    table3 = [hl.UnstableFamilySpec(m, 0.5, eps=eps)
              for m in (6, 8, 10, 12, 14, 16, 18, 20)
              for eps in (0.0, 1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3)]
    return [hl.family(spec) for spec in table1 + table3]


class TestSolveAnalytic:
    def test_single_interval_closed_form(self):
        # left condition forces A = 0; right gives B = e^{2 i omega}/(-2 i omega),
        # i.e. B = -i/pi at omega = pi/2 (phase referenced to the left endpoint)
        amps = hl.solve_analytic(unit_problem())
        assert abs(amps.A[0]) < 1e-15
        assert amps.B[0] == pytest.approx(-1j / np.pi, abs=1e-15)
        assert abs(amps.B[0]) == pytest.approx(1.0 / np.pi, rel=1e-14)

    def test_boundary_condition_reconstruction(self):
        prob = unit_problem(g=(0.5 + 0.25j, 1.0 - 2.0j), omega=1.7)
        amps = hl.solve_analytic(prob)
        x = 1.0
        du = amps.deriv(np.array([x]))[0]
        u = amps.eval(np.array([x]))[0]
        assert du - 1j * prob.omega * u == pytest.approx(prob.g_right, abs=1e-12)
        du0 = amps.deriv(np.array([-1.0]))[0]
        u0 = amps.eval(np.array([-1.0]))[0]
        assert -du0 - 1j * prob.omega * u0 == pytest.approx(prob.g_left, abs=1e-12)

    def test_dirichlet_endpoints(self):
        for bc in (BC.DIRICHLET_IMPEDANCE, BC.IMPEDANCE_DIRICHLET):
            g = (0.0, 1.0) if bc is BC.DIRICHLET_IMPEDANCE else (1.0, 0.0)
            prob = hl.family(hl.UnstableFamilySpec(2, 0.4))
            prob = hl.HelmholtzProblem(a=prob.a, c=prob.c, omega=prob.omega,
                                       bc=bc, g_left=g[0], g_right=g[1])
            amps = hl.solve_analytic(prob)
            x_d = -1.0 if bc is BC.DIRICHLET_IMPEDANCE else 1.0
            assert abs(amps.eval(np.array([x_d]))[0]) < 1e-12

    def test_requires_layered_and_sourceless(self):
        prob = hl.HelmholtzProblem(
            a=hl.from_segments([-1.0, 1.0], [hl.Linear(1.0, 2.0)]),
            c=hl.constant(1.0), omega=1.0, g_right=1.0)
        with pytest.raises(UnsupportedProblemError):
            hl.solve_analytic(prob)
        prob = hl.HelmholtzProblem(a=hl.constant(1.0), c=hl.constant(1.0),
                                   omega=1.0, g_right=1.0,
                                   f=lambda x: np.ones_like(x))
        with pytest.raises(UnsupportedProblemError):
            hl.solve_analytic(prob)

    def test_residuals_small_across_benchmarks(self):
        for m in (2, 4, 6, 8, 10, 12):
            for r in (0.4, 0.5, 0.6):
                amps = hl.solve_analytic(hl.family(hl.UnstableFamilySpec(m, r)))
                assert amps.residual < 1e-9
                assert not amps.flagged
        for m, eps in ((6, 1e-3), (8, 1e-5), (12, 1e-7), (20, 1e-6)):
            amps = hl.solve_analytic(
                hl.family(hl.UnstableFamilySpec(m, 0.5, eps=eps)))
            assert amps.residual < 1e-9

    def test_extended_precision_refinement(self):
        prob = hl.family(hl.UnstableFamilySpec(12, 0.6))
        plain = hl.solve_analytic(prob)
        refined = hl.solve_analytic(prob, extended_precision=True)
        assert refined.residual <= plain.residual
        assert hl.exact_norms(refined)[0] == pytest.approx(
            hl.exact_norms(plain)[0], rel=1e-8)

    def test_extended_precision_gain_against_mpmath(self):
        # 60-digit solve of the same double-precision system: refinement
        # gains about 4 digits at (20, 0.5), 1.3e-7 -> 2.0e-11
        mp = pytest.importorskip("mpmath")
        prob = hl.family(hl.UnstableFamilySpec(20, 0.5))
        M, rhs = dense_system(prob)
        with mp.workdps(60):
            exact = mp.lu_solve(mp.matrix(M.tolist()), mp.matrix(rhs.tolist()))
            exact = np.array([complex(v) for v in exact])
        errors = []
        for extended in (False, True):
            amps = hl.solve_analytic(prob, extended_precision=extended)
            sol = np.ravel(np.column_stack([amps.A, amps.B]))
            errors.append(np.max(np.abs(sol - exact)) / np.max(np.abs(exact)))
        plain, refined = errors
        assert plain > 1e-8
        assert refined < 1e-10

    @pytest.mark.parametrize("extended", [False, True], ids=["plain", "extended"])
    def test_band_build_matches_dense_reference(self, extended):
        rng = np.random.default_rng(5)
        problems = table_grid_problems() + [
            random_layered_problem(rng, bc=bc) for bc in BC for _ in range(20)]
        for prob in problems:
            amps = hl.solve_analytic(prob, extended_precision=extended)
            sol, residual = dense_solve(prob, extended)
            assert np.array_equal(amps.A, sol[0::2])
            assert np.array_equal(amps.B, sol[1::2])
            assert amps.flagged == (residual > RESIDUAL_FLAG_LEVEL)
            assert amps.residual <= 4 * residual + 1e-15


class TestEval:
    def test_near_zero_wavenumber_limit(self):
        amps = hl.WaveAmplitudes(
            partition=np.array([-1.0, 1.0]), a=np.array([1.0]),
            c=np.array([1.0]), omega=1e-9, A=np.array([1.0 + 0j]),
            B=np.array([0.0 + 0j]), residual=0.0, flagged=False)
        xs = np.linspace(-1.0, 1.0, 11)
        assert np.allclose(amps.eval(xs), 1.0, atol=1e-8)

    def test_interface_continuity(self, rng):
        for _ in range(10):
            prob = random_layered_problem(rng)
            amps = hl.solve_analytic(prob)
            scale = max(1.0, float(np.max(np.abs(amps.A)) + np.max(np.abs(amps.B))))
            for z in prob.partition[1:-1]:
                below = amps.eval(np.array([np.nextafter(z, -2.0)]))[0]
                above = amps.eval(np.array([np.nextafter(z, 2.0)]))[0]
                assert abs(below - above) / scale < 1e-12

    def test_out_of_domain(self):
        amps = hl.solve_analytic(unit_problem())
        for evaluate in (amps.eval, amps.deriv):
            with pytest.raises(ValueError):
                evaluate(np.array([1.5]))

    @pytest.mark.parametrize("bc", list(BC), ids=lambda bc: bc.name)
    @given(seed=st.integers(0, 2**32 - 1), per_layer=st.integers(1, 64))
    @settings(max_examples=40, deadline=None)
    def test_eval_on_layer_matches_lookup(self, bc, seed, per_layer):
        # 1-10 layers; each layer's mesh nodes from its left breakpoint on,
        # the domain's last node with the last layer, and its midpoints
        prob = random_layered_problem(np.random.default_rng(seed), bc=bc)
        amps = hl.solve_analytic(prob)
        mesh = hl.build_mesh(prob, per_layer)
        last = len(amps.a) - 1
        for j in range(last + 1):
            own = mesh.elements_of(j)
            x = mesh.nodes[own.start:own.stop + 1]
            nodes = x if j == last else x[:-1]
            assert nodes[0] == prob.partition[j]
            assert np.array_equal(amps.eval_on_layer(j, nodes), amps.eval(nodes))
            for pts in (nodes, 0.5 * (x[:-1] + x[1:])):
                u, du = amps.eval_on_layer(j, pts, deriv=True)
                assert np.array_equal(u, amps.eval(pts))
                assert np.array_equal(du, amps.deriv(pts))


class TestExactNorms:
    def test_plane_wave(self):
        # A = 1, B = 0, k = omega: ||u'||^2 = omega^2 * length
        omega = 3.0
        amps = hl.WaveAmplitudes(
            partition=np.array([-1.0, 1.0]), a=np.array([1.0]),
            c=np.array([1.0]), omega=omega, A=np.array([1.0 + 0j]),
            B=np.array([0.0 + 0j]), residual=0.0, flagged=False)
        du, wu, energy = hl.exact_norms(amps)
        assert du**2 == pytest.approx(omega**2 * 2.0, rel=1e-14)
        assert wu == pytest.approx(du, rel=1e-14)

    def test_single_interval_quadrature_oracle(self):
        amps = hl.solve_analytic(unit_problem())
        du, wu, energy = hl.exact_norms(amps)
        xs = np.linspace(-1.0, 1.0, 1_000_001)
        dvals = amps.deriv(xs)
        oracle_du = np.sqrt(np.trapezoid(np.abs(dvals) ** 2, xs))
        assert du == pytest.approx(np.sqrt(2.0) / 2.0, rel=1e-12)
        assert du == pytest.approx(oracle_du, rel=1e-9)

    def test_family_energy_identity(self):
        # resonant family phases make ||u'|| = ||(omega/c) u|| exact
        for spec in (hl.UnstableFamilySpec(2, 0.4),
                     hl.UnstableFamilySpec(6, 0.5, g=(1.0, 1.0)),
                     hl.UnstableFamilySpec(4, 0.6, g=(2.0, 0.5))):
            du, wu, _ = hl.exact_norms(hl.solve_analytic(hl.family(spec)))
            assert abs(du - wu) / du < 1e-12

    def test_random_draws_vs_quadrature(self, rng):
        # per-layer Simpson on the travelling-wave formulas (u' jumps at
        # interfaces, so the quadrature must not straddle them)
        from scipy.integrate import simpson
        for _ in range(10):
            prob = random_layered_problem(rng, omega_range=(1.0, 12.0))
            amps = hl.solve_analytic(prob)
            du, wu, energy = hl.exact_norms(amps)
            du2_o = 0.0
            wu2_o = 0.0
            k = amps.k
            h = amps.widths
            for l in range(len(amps.A)):
                s = np.linspace(0.0, h[l], 40_001)
                up = 1j * k[l] * (amps.A[l] * np.exp(1j * k[l] * s)
                                  - amps.B[l] * np.exp(-1j * k[l] * s))
                uv = (amps.A[l] * np.exp(1j * k[l] * s)
                      + amps.B[l] * np.exp(-1j * k[l] * s))
                du2_o += simpson(np.abs(up) ** 2, x=s)
                wu2_o += (amps.omega / amps.c[l]) ** 2 * simpson(np.abs(uv) ** 2, x=s)
            assert du == pytest.approx(np.sqrt(du2_o), rel=1e-10)
            assert wu == pytest.approx(np.sqrt(wu2_o), rel=1e-10)


class TestTableValues:
    def test_table1_spot_cells(self):
        cases = {(2, 0.4): 0.7742, (8, 0.5): 12.03, (8, 0.6): 32.25}
        for (m, r), expected in cases.items():
            du = hl.exact_norms(hl.solve_analytic(
                hl.family(hl.UnstableFamilySpec(m, r))))[0]
            assert hl.round_sig(du, 4) == pytest.approx(expected, rel=1e-12)

    def test_table2_spot_cells(self):
        du = hl.exact_norms(hl.solve_analytic(hl.family(
            hl.UnstableFamilySpec(2, 0.6, g=(1.0, 1.0)))))[0]
        assert hl.round_sig(du, 4) == pytest.approx(0.4677)
        du = hl.exact_norms(hl.solve_analytic(hl.family(
            hl.UnstableFamilySpec(8, 0.6, g=(2.0, 0.5)))))[0]
        assert hl.round_sig(du, 4) == pytest.approx(48.38)
