import os
import sys
import threading
import time
import tracemalloc
from concurrent.futures import Future

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import lapack

import helmlab as hl
from helmlab import experiments, fem, quadrature
from helmlab.coeffs import Constant, Linear, _seg_values
from helmlab.fem import MeshAlignmentError, SingularSystemError
from helmlab.quadrature import G5_T, G5_W

from conftest import nodal_l2_reference, random_layered_problem

BC = hl.BoundaryConfig


def unit_problem(omega=np.pi / 2, bc=BC.PURE_IMPEDANCE, g=(0.0, 1.0)):
    return hl.HelmholtzProblem(a=hl.constant(1.0), c=hl.constant(1.0),
                               omega=omega, bc=bc, g_left=g[0], g_right=g[1])


def _mixed_problem_with_source():
    """Constant, Linear and Smooth segments in a and c, and a complex source."""
    a = hl.from_segments([-1.0, -0.3, 0.2, 1.0], [
        hl.Constant(2.0), hl.Linear(1.0, 3.0),
        hl.Smooth(func=lambda x: 2.0 + x**2, deriv=lambda x: 2.0 * x,
                  sign="positive")])
    c = hl.from_segments([-1.0, -0.5, 0.5, 1.0], [
        hl.Linear(1.0, 3.0),
        hl.Smooth(func=lambda x: 2.0 + np.sin(x), deriv=np.cos,
                  sign="positive"),
        hl.Constant(0.5)])
    return hl.HelmholtzProblem(a=a, c=c, omega=7.0, g_right=1.0,
                               f=lambda x: np.cos(3.0 * x) + 0.5j * x)


def _two_layer_problem(bc):
    bp = [-1.0, 0.2, 1.0]
    return hl.HelmholtzProblem(
        a=hl.piecewise_constant(bp, [1.0, 2.0]),
        c=hl.piecewise_constant(bp, [1.0, 0.5]), omega=5.0, bc=bc,
        g_left=1.0 if bc.impedance_left else 0.0,
        g_right=0.5j if bc.impedance_right else 0.0)


def _mesh_nodes_reference(part, n):
    """The mesh nodes as one `linspace` per subinterval, concatenated."""
    part = np.asarray(part, dtype=float)
    pieces = [np.linspace(part[i], part[i + 1], n + 1)[:-1]
              for i in range(len(part) - 1)]
    return np.concatenate(pieces + [part[-1:]])


@st.composite
def _partitions(draw):
    """1 to 30 subintervals of [-1, 1] at random, scaled by 1e-3 to 1e3 and
    shifted."""
    count = draw(st.integers(1, 30))
    points = draw(st.lists(st.floats(-1.0, 1.0), min_size=count + 1,
                           max_size=count + 1, unique=True))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    shift = draw(st.floats(-10.0, 10.0)) * scale
    return np.sort(points) * scale + shift


class TestMesh:
    def test_single_segment(self):
        mesh = hl.build_mesh(unit_problem(), 2)
        assert np.array_equal(mesh.nodes, [-1.0, 0.0, 1.0])

    def test_family_node_count(self):
        prob = hl.family(hl.UnstableFamilySpec(2, 0.5))
        mesh = hl.build_mesh(prob, 800)
        assert mesh.n_nodes == 5 * 800 + 1

    def test_refinement_counts(self):
        prob = hl.family(hl.UnstableFamilySpec(2, 0.5))
        for level in range(3):
            mesh = hl.build_mesh(prob, 800 * 2**level)
            assert mesh.n_nodes == 5 * 800 * 2**level + 1

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            hl.build_mesh(unit_problem(), 0)

    def test_breakpoints_present(self):
        prob = hl.family(hl.UnstableFamilySpec(4, 0.4, eps=1e-6))
        mesh = hl.build_mesh(prob, 7)
        for z in prob.partition:
            assert np.min(np.abs(mesh.nodes - z)) == 0.0

    def test_subinterval_owns_its_elements(self):
        prob = hl.family(hl.UnstableFamilySpec(4, 0.4, eps=1e-6))
        mesh = hl.build_mesh(prob, 7)
        for j in range(len(prob.partition) - 1):
            sl = mesh.elements_of(j)
            assert sl.stop - sl.start == 7
            assert mesh.nodes[sl.start] == prob.partition[j]
            assert mesh.nodes[sl.stop] == prob.partition[j + 1]

    def test_colliding_nodes_rejected(self):
        # a gap of one ulp cannot hold two elements
        part = np.array([-1.0, 0.0, np.nextafter(0.0, 1.0), 1.0])
        hl.Mesh1D(part, 1)
        with pytest.raises(ValueError, match="strictly increasing"):
            hl.Mesh1D(part, 2)

    @settings(max_examples=200, deadline=None)
    @given(part=_partitions(), n=st.integers(1, 3000))
    def test_nodes_bit_identical_to_linspace_pieces(self, part, n):
        expected = _mesh_nodes_reference(part, n)
        if np.all(expected[1:] > expected[:-1]):
            assert hl.Mesh1D(part, n).nodes.tobytes() == expected.tobytes()
        else:
            with pytest.raises(ValueError, match="strictly increasing"):
                hl.Mesh1D(part, n)

    @settings(max_examples=200, deadline=None)
    @given(part=_partitions(), n=st.integers(1, 300), data=st.data())
    def test_node_runs_are_slices_of_the_nodes(self, part, n, data):
        # any run, across breakpoints, up to the last node, or empty
        expected = _mesh_nodes_reference(part, n)
        if not np.all(expected[1:] > expected[:-1]):
            return
        mesh = hl.Mesh1D(part, n)
        lo = data.draw(st.integers(0, mesh.n_nodes))
        hi = data.draw(st.integers(lo, mesh.n_nodes))
        assert mesh.node_run(lo, hi).tobytes() == expected[lo:hi].tobytes()

    @pytest.mark.parametrize("m", [2, 4, 6, 8, 10, 12])
    @pytest.mark.parametrize("r", [0.4, 0.5, 0.6])
    def test_table1_levels_bit_identical_to_linspace_pieces(self, m, r):
        prob = hl.family(hl.UnstableFamilySpec(m, r))
        for level in range(7):
            n = 800 * 2**level
            assert hl.build_mesh(prob, n).nodes.tobytes() == \
                _mesh_nodes_reference(prob.partition, n).tobytes(), level


class TestAssembly:
    def test_hand_stencil(self):
        # a = c = 1, omega = 1, uniform h: rows are (1/h)[-1, 2, -1]
        # minus (h/6)[1, 4, 1], with -i at the impedance corners
        prob = unit_problem(omega=1.0)
        mesh = hl.build_mesh(prob, 2)  # nodes -1, 0, 1; h = 1
        system = hl.assemble(prob, mesh)
        h = 1.0
        assert system.diag[1] == pytest.approx(2.0 / h - 4.0 * h / 6.0)
        assert system.diag[0] == pytest.approx(1.0 / h - 2.0 * h / 6.0 - 1.0j)
        assert system.diag[2] == pytest.approx(1.0 / h - 2.0 * h / 6.0 - 1.0j)
        assert np.allclose(system.offdiag, -1.0 / h - h / 6.0)

    def test_symmetry(self, rng):
        # one stored off-diagonal serves both bands: x^T A y = y^T A x
        prob = random_layered_problem(rng)
        mesh = hl.build_mesh(prob, 13)
        system = hl.assemble(prob, mesh)
        assert len(system.offdiag) == system.dimension - 1
        x = rng.normal(size=system.dimension) + 1j * rng.normal(size=system.dimension)
        y = rng.normal(size=system.dimension) + 1j * rng.normal(size=system.dimension)
        assert x @ system.matvec(y) == pytest.approx(y @ system.matvec(x), rel=1e-13)

    def test_rhs_boundary_only(self):
        prob = unit_problem(g=(0.25 + 1j, 2.0))
        mesh = hl.build_mesh(prob, 8)
        system = hl.assemble(prob, mesh)
        assert system.rhs[0] == 0.25 + 1j
        assert system.rhs[-1] == 2.0
        assert np.all(system.rhs[1:-1] == 0.0)

    def test_dirichlet_elimination(self):
        prob = unit_problem(bc=BC.DIRICHLET_IMPEDANCE, g=(0.0, 1.0))
        mesh = hl.build_mesh(prob, 8)
        system = hl.assemble(prob, mesh)
        assert system.dimension == mesh.n_nodes - 1
        assert system.dirichlet_left
        solution = hl.solve(system)
        assert solution.values[0] == 0.0
        assert len(solution.values) == mesh.n_nodes

    def test_source_term_quadrature(self):
        # f = 1 on a uniform mesh: interior load is exactly h
        prob = hl.HelmholtzProblem(a=hl.constant(1.0), c=hl.constant(1.0),
                                   omega=1.0, f=lambda x: np.ones_like(x))
        mesh = hl.build_mesh(prob, 4)
        system = hl.assemble(prob, mesh)
        h = 0.5
        assert np.allclose(system.rhs[1:-1], h)
        assert system.rhs[0] == pytest.approx(h / 2.0)

    def test_misaligned_mesh_rejected(self):
        # meshes of other family members, with as many subintervals as the
        # (2, 0.5) problem and with more: their nodes miss its breakpoints
        prob = hl.family(hl.UnstableFamilySpec(2, 0.5))
        for other in (hl.UnstableFamilySpec(2, 0.4), hl.UnstableFamilySpec(4, 0.5)):
            bad = hl.build_mesh(hl.family(other), 20)
            with pytest.raises(MeshAlignmentError):
                hl.assemble(prob, bad)


def _element_data_masked(problem, mesh):
    """Reference element data: one masked pass over all elements per segment.

    The segment of each element is looked up from its midpoint; the
    arithmetic per element is the one `fem._element_data` must reproduce
    bit for bit on its contiguous per-segment slices.
    """
    nodes = mesh.nodes
    part = problem.partition
    xl, xr = nodes[:-1], nodes[1:]
    h = xr - xl
    mid = 0.5 * (xl + xr)
    seg = np.clip(np.searchsorted(part, mid) - 1, 0, problem.a.n_segments - 1)
    a_mean, p00, p01, p11 = (np.empty(len(h)) for _ in range(4))
    for j in np.unique(seg):
        mask = seg == j
        x0, x1 = part[j], part[j + 1]
        aseg = problem.a.segments[j]
        cseg = problem.c.segments[j]
        if isinstance(aseg, Constant):
            a_mean[mask] = aseg.value
        elif isinstance(aseg, Linear):
            al = _seg_values(aseg, x0, x1, xl[mask])
            ar = _seg_values(aseg, x0, x1, xr[mask])
            a_mean[mask] = 0.5 * (al + ar)
        else:
            xg = xl[mask][:, None] + h[mask][:, None] * G5_T[None, :]
            a_mean[mask] = _seg_values(aseg, x0, x1, xg.ravel()).reshape(
                xg.shape) @ G5_W
        if isinstance(cseg, Constant):
            inv = 1.0 / cseg.value ** 2
            p00[mask] = inv / 3.0
            p01[mask] = inv / 6.0
            p11[mask] = inv / 3.0
        elif isinstance(cseg, Linear):
            cl = _seg_values(cseg, x0, x1, xl[mask])
            cr = _seg_values(cseg, x0, x1, xr[mask])
            j0, j1, j2 = fem._linear_mass_integrals(cl, cr)
            p00[mask] = j0 - 2.0 * j1 + j2
            p01[mask] = j1 - j2
            p11[mask] = j2
        else:
            xg = xl[mask][:, None] + h[mask][:, None] * G5_T[None, :]
            inv = 1.0 / _seg_values(cseg, x0, x1, xg.ravel()).reshape(xg.shape) ** 2
            p00[mask] = (inv * (1.0 - G5_T) ** 2) @ G5_W
            p01[mask] = (inv * G5_T * (1.0 - G5_T)) @ G5_W
            p11[mask] = (inv * G5_T**2) @ G5_W
    return a_mean, p00, p01, p11


def _expanded_element_data(problem, mesh, lo=0, hi=None):
    """`fem._element_data` of the run [lo, hi) as four arrays over the run:
    each entry's values go to its elements, a scalar repeated over them.
    Checks that the entries tile the run in order, and that an entry holds
    Python floats exactly where both of its segments are Constant."""
    hi = mesh.n_nodes - 1 if hi is None else hi
    expanded = [np.empty(hi - lo) for _ in range(4)]
    pieces = fem._element_data(problem, mesh, lo, hi)
    bounds = [(sl.start, sl.stop) for sl, *_ in pieces]
    assert bounds[0][0] == 0 and bounds[-1][1] == hi - lo
    assert all(stop == start for (_, stop), (start, _) in zip(bounds, bounds[1:]))
    for sl, *values in pieces:
        j = (lo + sl.start) // mesh.per_segment
        a_const = isinstance(problem.a.segments[j], Constant)
        c_const = isinstance(problem.c.segments[j], Constant)
        for arr, value, const in zip(expanded, values,
                                     (a_const, c_const, c_const, c_const)):
            if const:
                assert isinstance(value, float)
            else:
                assert value.shape == (sl.stop - sl.start,)
            arr[sl] = value
    return expanded


def _assert_element_data_identical(problem, mesh, lo=0, hi=None):
    hi = mesh.n_nodes - 1 if hi is None else hi
    new = _expanded_element_data(problem, mesh, lo, hi)
    ref = _element_data_masked(problem, mesh)
    for name, got, want in zip(("a_mean", "p00", "p01", "p11"), new, ref):
        assert np.array_equal(got, want[lo:hi]), (name, lo, hi)


class TestElementData:
    @pytest.mark.parametrize("m, r, eps, level", [
        (2, 0.4, 0.0, 0), (6, 0.5, 1e-6, 1), (12, 0.6, 0.0, 2)])
    def test_family_matches_masked_reference(self, m, r, eps, level):
        prob = hl.family(hl.UnstableFamilySpec(m, r, eps=eps))
        mesh = hl.build_mesh(prob, 100 * 2**level)
        # constant layers: one entry of four floats per subinterval
        pieces = fem._element_data(prob, mesh)
        assert len(pieces) == prob.c.n_segments
        assert all(isinstance(v, float) for _, *values in pieces for v in values)
        _assert_element_data_identical(prob, mesh)

    def test_mixed_segment_kinds_match_masked_reference(self):
        # Constant, Linear and Smooth segments in both a and c, on
        # partitions that differ until the problem merges them
        prob = _mixed_problem_with_source()
        for coef in (prob.a, prob.c):
            assert {type(s) for s in coef.segments} == {
                hl.Constant, hl.Linear, hl.Smooth}
        _assert_element_data_identical(prob, hl.build_mesh(prob, 37))

    @pytest.mark.parametrize("name", ["family", "mixed"])
    def test_runs_match_masked_reference_slices(self, name):
        # seeded random runs, many starting or ending inside a subinterval
        if name == "family":
            prob = hl.family(hl.UnstableFamilySpec(6, 0.5, eps=1e-6))
        else:
            prob = _mixed_problem_with_source()
        mesh = hl.build_mesh(prob, 37)
        n = mesh.n_nodes - 1
        rng = np.random.default_rng(n)
        runs = [(0, n), (0, 1), (n - 1, n)] + [
            tuple(sorted(rng.choice(n + 1, 2, replace=False))) for _ in range(40)]
        for lo, hi in runs:
            _assert_element_data_identical(prob, mesh, lo, hi)

    @pytest.mark.parametrize("name", ["family", "mixed"])
    def test_leaf_runs_straddling_breakpoints(self, monkeypatch, name):
        # leaf runs of at most 50 elements on 37 per subinterval: some of
        # them start in one subinterval and end in the next
        monkeypatch.setattr(quadrature, "_SUM_LEAF", 50)
        if name == "family":
            prob = hl.family(hl.UnstableFamilySpec(6, 0.5, eps=1e-6))
        else:
            prob = _mixed_problem_with_source()
        mesh = hl.build_mesh(prob, 37)
        runs = quadrature._leaf_runs(mesh.n_nodes - 1)
        straddling = [(lo, k) for lo, k in runs if lo // 37 != (lo + k - 1) // 37]
        assert straddling
        for lo, k in straddling:
            assert len(fem._element_data(prob, mesh, lo, lo + k)) == 2
        for lo, k in runs:
            _assert_element_data_identical(prob, mesh, lo, lo + k)


class TestSolve:
    def test_one_by_one_system(self):
        system = hl.BandedComplexSystem(
            diag=np.array([2.0 + 0j]), offdiag=np.array([], dtype=complex),
            rhs=np.array([4.0 + 0j]),
            dirichlet_left=False, dirichlet_right=False)
        solution = hl.solve(system)
        assert solution.values[0] == 2.0

    def test_single_interval_closed_form(self):
        # omega = pi/2, g = (0, 1): u = B e^{-i omega (x+1)} with |B| = 1/pi
        # and converged ||u'|| = sqrt(2)/2
        prob = unit_problem()
        values = []
        for level in range(4):
            mesh = hl.build_mesh(prob, 100 * 2**level)
            solution, _ = hl.solve_problem(prob, mesh)
            du, wu, energy = hl.norms(solution, prob, mesh)
            values.append(du)
        assert values[-1] == pytest.approx(np.sqrt(2.0) / 2.0, rel=1e-5)
        # errors shrink under refinement
        exact = np.sqrt(2.0) / 2.0
        errs = [abs(v - exact) for v in values]
        assert errs[-1] < errs[0]

    def test_matches_oracle_nodally(self, rng):
        for _ in range(5):
            prob = random_layered_problem(rng, omega_range=(1.0, 8.0))
            amps = hl.solve_analytic(prob)
            mesh = hl.build_mesh(prob, 2000)
            solution, _ = hl.solve_problem(prob, mesh)
            u_ex = amps.eval(mesh.nodes)
            scale = np.max(np.abs(u_ex)) + 1e-30
            err = np.max(np.abs(solution.values - u_ex)) / scale
            assert err < 5e-4, err

    def test_residual_reported(self):
        prob = unit_problem()
        mesh = hl.build_mesh(prob, 64)
        solution, _ = hl.solve_problem(prob, mesh)
        assert solution.residual < 1e-12

    @pytest.mark.parametrize("bc", list(BC), ids=lambda bc: bc.name)
    def test_values_match_padded_path(self, bc):
        prob = _two_layer_problem(bc)
        system = hl.assemble(prob, hl.build_mesh(prob, 16))
        x = system.solve_vector(system.rhs)
        padded = np.concatenate([[0.0] if system.dirichlet_left else [], x,
                                 [0.0] if system.dirichlet_right else []])
        values = hl.solve(system).values
        assert values.dtype == padded.dtype and values.shape == padded.shape
        assert np.array_equal(values, padded)

    @pytest.mark.parametrize("n", [2, 3, 40])
    @pytest.mark.parametrize("block", [False, True], ids=["vector", "block"])
    def test_solve_in_place(self, n, block):
        rng = np.random.default_rng(n)
        system = hl.BandedComplexSystem(
            diag=rng.normal(size=n) + 1j * rng.normal(size=n) + 4.0,
            offdiag=rng.normal(size=n - 1) + 1j * rng.normal(size=n - 1),
            rhs=np.ones(n, dtype=complex),
            dirichlet_left=False, dirichlet_right=False)
        if block:
            # an F-ordered (n, 2) block: each column is solved as a vector
            b = np.asfortranarray(rng.normal(size=(n, 2))
                                  + 1j * rng.normal(size=(n, 2)))
            expected = np.column_stack([system.solve_vector(b[:, k].copy())
                                        for k in range(2)])
        else:
            b = rng.normal(size=n) + 1j * rng.normal(size=n)
            expected = system.solve_vector(b.copy())
        kept = b.copy(order="A")
        assert np.array_equal(system.solve_vector(b), expected)
        assert np.array_equal(b, kept)
        x = system.solve_vector(b, overwrite_b=True)
        assert np.shares_memory(x, b)
        assert np.array_equal(x, expected)
        assert np.array_equal(b, expected)

    @pytest.mark.parametrize("case", ["row-interchanges", "mixed", "small"])
    def test_factorize_keeps_the_matrix(self, case):
        # the factorization works on complex copies of the bands
        prob, count = {
            "row-interchanges": (hl.family(hl.UnstableFamilySpec(12, 0.6)), 1),
            "mixed": (_mixed_problem_with_source(), 37),
            "small": (unit_problem(omega=1.0), 1)}[case]
        mesh = hl.build_mesh(prob, count)
        system = hl.assemble(prob, mesh)
        kept = {name: getattr(system, name).copy() for name in ("diag", "offdiag")}
        factors = system.factorize()
        if case == "row-interchanges":
            assert np.any(factors[4] != np.arange(1, system.dimension + 1))
        for name, before in kept.items():
            after = getattr(system, name)
            assert after.dtype == before.dtype
            assert after.tobytes() == before.tobytes(), name
        fresh = hl.assemble(prob, mesh)
        assert hl.solve(system).residual == hl.solve(fresh).residual
        assert hl.solve(system).residual == _residual_reference(
            fresh, fresh.solve_vector(fresh.rhs))

    def test_singular_pivot_raises(self):
        system = hl.BandedComplexSystem(
            diag=np.zeros(3, dtype=complex), offdiag=np.zeros(2, dtype=complex),
            rhs=np.ones(3, dtype=complex),
            dirichlet_left=False, dirichlet_right=False)
        with pytest.raises(SingularSystemError):
            hl.solve(system)


def _solve_in_place_cases(bc):
    """(problem, element count) pairs with the boundary configuration bc:
    the unit problem on 1, 2 and 3 elements (dimensions 1 to 4, so the
    smallest zgtsv calls), and random layered problems,
    whose wavenumbers reach about 100, on 1, 3, 17 and 200 elements."""
    g = (0.5 if bc.impedance_left else 0.0, 1.0 - 1j if bc.impedance_right else 0.0)
    cases = [(unit_problem(omega=1.0, bc=bc, g=g), count) for count in (1, 2, 3)]
    rng = np.random.default_rng(sum(map(ord, bc.name)))
    return cases + [(random_layered_problem(rng, bc=bc), count)
                    for _ in range(8) for count in (1, 3, 17, 200)]


class TestSolveInPlace:
    @pytest.mark.parametrize("bc", list(BC), ids=lambda bc: bc.name)
    def test_matches_solve(self, bc):
        dims, swaps = set(), 0
        for prob, count in _solve_in_place_cases(bc):
            mesh = hl.build_mesh(prob, count)
            expected = hl.solve(hl.assemble(prob, mesh)).values
            system = hl.assemble(prob, mesh)
            dim = system.dimension  # the call consumes the system
            values = hl.solve_in_place(system)
            assert values.dtype == expected.dtype
            assert np.array_equal(values, expected), (bc, count)
            dims.add(dim)
            ipiv = hl.assemble(prob, mesh).factorize()[4]
            swaps += np.count_nonzero(ipiv != np.arange(1, len(ipiv) + 1))
        # both nodes of a single element are free under pure impedance
        assert set(range(2 if bc == BC.PURE_IMPEDANCE else 1, 4)) <= dims
        assert swaps > 0

    @pytest.mark.parametrize("count", [1, 20], ids=["small", "zgtsv"])
    @pytest.mark.parametrize("factorized", [False, True])
    def test_consumes_the_system(self, count, factorized):
        # its arrays hold LAPACK's factors and the solution afterwards: on
        # (2, 0.4) at 20 elements an estimate from them gives 375.8, not the
        # assembled matrix's 8394.9, and a solve a residual of 5.5e-16
        prob = hl.family(hl.UnstableFamilySpec(2, 0.4)) if count > 1 else unit_problem()
        system = hl.assemble(prob, hl.build_mesh(prob, count))
        n = system.dimension
        if factorized:
            system.factorize()
        expected = hl.solve(hl.assemble(prob, hl.build_mesh(prob, count))).values
        assert np.array_equal(hl.solve_in_place(system), expected)
        assert system._factors is None
        x = np.ones(n, dtype=complex)
        queries = [hl.solve, hl.condition_estimate, hl.solve_in_place,
                   lambda s: s.factorize(), lambda s: s.solve_vector(x),
                   lambda s: s.matvec(x), lambda s: s.matvec(x, 0, 1),
                   lambda s: s.norm1(), lambda s: s.dimension]
        for query in queries:
            with pytest.raises(ValueError, match="consumed by solve_in_place"):
                query(system)

    @pytest.mark.parametrize("diag, offdiag", [
        ([1.0, 0.0, 1.0], [0.0, 0.0]), (np.zeros(3), np.zeros(2)),
        ([1.0, 1.0, 1.0, 2.0], [1.0, 0.0, 1.0]), ([0.0, 1.0], [0.0]),
        ([0.0], [])],
        ids=["middle", "first", "after-elimination", "small", "one-by-one-zero"])
    def test_singular_system_raises_like_factorize(self, diag, offdiag):
        with pytest.raises(SingularSystemError) as factorized:
            _tridiagonal(diag, offdiag).factorize()
        with pytest.raises(SingularSystemError) as in_place:
            hl.solve_in_place(_tridiagonal(diag, offdiag))
        assert in_place.value.pivot_index == factorized.value.pivot_index


def _binding_zgttrf(dl, d, du):
    """fem's `zgttrf` binding on complex copies of the bands, returning what
    scipy's f2py `zgttrf` returns: (dl, d, du, du2, ipiv, info)."""
    dl, d, du = (np.array(band, dtype=complex) for band in (dl, d, du))
    n = len(d)
    du2, ipiv = np.zeros(max(n - 2, 0), dtype=complex), np.zeros(n, dtype=np.intc)
    info = fem._lapack(fem._ZGTTRF, n, fem._band(dl, n - 1), fem._band(d, n),
                       fem._band(du, n - 1), fem._band(du2, len(du2)),
                       fem._band(ipiv, n, np.intc))
    return dl, d, du, du2, ipiv, info


def _binding_zgtsv(dl, d, du, b):
    """fem's `zgtsv` binding on complex copies, returning what scipy's f2py
    `zgtsv` returns: (dl, d, du, x, info), dl holding U's second
    super-diagonal."""
    dl, d, du = (np.array(band, dtype=complex) for band in (dl, d, du))
    x = np.array(b, dtype=complex, order="F")
    n = len(d)
    info = fem._lapack(fem._ZGTSV, n, x.shape[1], fem._band(dl, n - 1),
                       fem._band(d, n), fem._band(du, n - 1), fem._block(x, n), n)
    return dl, d, du, x, info


def _binding_case(case):
    """(diag, offdiag, b) of a complex symmetric tridiagonal system: the
    finest (12, 0.6) table1 level (1,280,001 unknowns, row interchanges,
    b = e_n), random complex bands of n = 3 and 1000 with a two-column b,
    or a 4 x 4 system whose second pivot is exactly zero."""
    if case == "finest-12-0.6":
        prob = hl.family(hl.UnstableFamilySpec(12, 0.6))
        system = hl.assemble(prob, hl.build_mesh(prob, 800 * 2**6))
        return system.diag, system.offdiag, system.rhs.reshape(-1, 1)
    if case == "zero-pivot":
        return (np.array([1.0, 1.0, 1.0, 2.0]), np.array([1.0, 0.0, 1.0]),
                np.ones((4, 2)))
    n = int(case.split("-")[1])
    rng = np.random.default_rng(n)

    def draw(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    return draw(n), draw(n - 1), np.asfortranarray(draw(n, 2))


def _count_lapack_calls(monkeypatch):
    """Wrap the three LAPACK routines so that each call is counted by name."""
    calls = {}
    for name in ("_ZGTSV", "_ZGTTRF", "_ZGTTRS"):
        def counted(*args, name=name, routine=getattr(fem, name)):
            calls[name] = calls.get(name, 0) + 1
            return routine(*args)

        monkeypatch.setattr(fem, name, counted)
    return calls


def _fail_on_lapack_call(monkeypatch):
    """Replace the three LAPACK routines by one that fails the test."""
    def called(*args):
        raise AssertionError("LAPACK was called")

    for name in ("_ZGTSV", "_ZGTTRF", "_ZGTTRS"):
        monkeypatch.setattr(fem, name, called)


class TestLapackBinding:
    """The ctypes binding runs the LAPACK code of scipy's f2py wrappers,
    which stay here as the reference."""

    @pytest.mark.parametrize("case", ["finest-12-0.6", "random-3",
                                      "random-1000", "zero-pivot"])
    def test_bit_identical_to_f2py(self, case):
        diag, offdiag, b = _binding_case(case)
        off = offdiag.astype(complex)
        expected = lapack.zgttrf(off, diag.astype(complex), off)
        for got, ref in zip(_binding_zgttrf(off, diag, off), expected):
            assert np.array_equal(got, ref)
        info = expected[-1]
        if case == "finest-12-0.6":
            assert np.any(expected[4] != np.arange(1, len(diag) + 1))
        system = hl.BandedComplexSystem(diag=diag, offdiag=offdiag,
                                        rhs=b[:, 0].copy(), dirichlet_left=False,
                                        dirichlet_right=False)
        if info == 0:
            for got, ref in zip(system.factorize(), expected[:5]):
                assert np.array_equal(got, ref)
            x, solve_info = lapack.zgttrs(*expected[:5], b)
            assert solve_info == 0
            assert np.array_equal(system.solve_vector(b), x)
        else:
            with pytest.raises(SingularSystemError) as raised:
                system.factorize()
            assert raised.value.pivot_index == info - 1
        del expected, system
        expected = lapack.zgtsv(off, diag.astype(complex), off, b)
        for got, ref in zip(_binding_zgtsv(off, diag, off, b), expected):
            assert np.array_equal(got, ref)
        del expected
        system = hl.BandedComplexSystem(diag=diag.astype(complex), offdiag=offdiag,
                                        rhs=b[:, 0].astype(complex),
                                        dirichlet_left=False, dirichlet_right=False)
        *_, x, info = lapack.zgtsv(off, diag.astype(complex), off, b[:, :1])
        if info == 0:
            assert np.array_equal(hl.solve_in_place(system), x[:, 0])
        else:
            with pytest.raises(SingularSystemError) as raised:
                hl.solve_in_place(system)
            assert raised.value.pivot_index == info - 1

    @pytest.mark.parametrize("diag, offdiag, ipiv", [
        ([2.0 + 1.0j], [], [1]), ([2.0 + 1.0j, -1.0 + 0.5j], [0.7], [1, 2]),
        ([0.3 + 0.2j, -1.0 + 0.5j], [0.7], [2, 2])],
        ids=["n1", "n2", "n2-row-interchange"])
    def test_small_systems_go_through_lapack(self, monkeypatch, diag, offdiag,
                                             ipiv):
        # scipy's f2py wrappers reject zgttrf at n = 1 and 2 and zgtsv at
        # n = 1; LAPACK itself takes every n >= 1
        calls = _count_lapack_calls(monkeypatch)
        n = len(diag)
        system = _tridiagonal(diag, offdiag)
        dl, d, du, du2, pivots = system.factorize()
        assert [len(band) for band in (dl, d, du, du2)] == [n - 1, n, n - 1, 0]
        assert pivots.dtype == np.intc and pivots.tolist() == ipiv
        # L U = P A: L's multiplier in dl, U's rows in d and du
        lower, upper = np.eye(n, dtype=complex), np.diag(d)
        lower[1:, :-1] += np.diag(dl)
        upper[:-1, 1:] += np.diag(du)
        rows = [1, 0] if ipiv[0] == 2 else list(range(n))
        assert np.allclose(lower @ upper, _dense_matrix(system)[rows],
                           rtol=1e-15, atol=0.0)
        solution = hl.solve(system)
        with mpmath.workdps(50):
            exact = mpmath.lu_solve(mpmath.matrix(_dense_matrix(system).tolist()),
                                    mpmath.matrix(system.rhs.tolist()))
            exact = np.array([complex(v) for v in exact])
        assert np.allclose(solution.values, exact, rtol=1e-15, atol=0.0)
        assert np.array_equal(hl.solve_in_place(_tridiagonal(diag, offdiag)),
                              solution.values)
        assert calls == {"_ZGTTRF": 1, "_ZGTTRS": 1, "_ZGTSV": 1}
        if n == 2:  # the binding has the bits of f2py zgtsv, which takes n = 2
            off, b = np.asarray(offdiag, dtype=complex), np.ones((n, 2), complex)
            expected = lapack.zgtsv(off, np.asarray(diag, dtype=complex), off, b)
            assert expected[-1] == 0
            for got, ref in zip(_binding_zgtsv(off, diag, off, b), expected):
                assert np.array_equal(got, ref)
            assert np.array_equal(solution.values, expected[3][:, 0])

    @pytest.mark.parametrize("fault", [
        "real-diagonal", "strided-diagonal", "long-offdiagonal", "c-ordered-block",
        "real-block", "short-block", "read-only-block", "size-2^31"])
    def test_layout_mismatch_raises_before_lapack(self, monkeypatch, fault):
        n = 5
        system = _tridiagonal(np.full(n, 4.0), np.ones(n - 1))
        system.factorize()
        _fail_on_lapack_call(monkeypatch)
        block = np.ones((n, 2), dtype=complex, order="F")
        if fault == "real-diagonal":
            system.diag = system.diag.real.copy()
            call = lambda: hl.solve_in_place(system)
        elif fault == "strided-diagonal":
            system.diag = np.ones(2 * n, dtype=complex)[::2]
            call = lambda: hl.solve_in_place(system)
        elif fault == "long-offdiagonal":
            system.offdiag, system._factors = np.ones(n), None
            call = system.factorize
        elif fault == "size-2^31":
            call = lambda: fem._lapack(fem._ZGTSV, 2**31)
        else:
            block = {"c-ordered-block": np.ones((n, 2), dtype=complex),
                     "real-block": block.real.copy(order="F"),
                     "short-block": block[:-1],
                     "read-only-block": block}[fault]
            block.flags.writeable = fault != "read-only-block"
            call = lambda: system.solve_vector(block, overwrite_b=True)
        with pytest.raises(ValueError, match="LAPACK"):
            call()

    def test_illegal_argument_raises(self):
        # a leading dimension below n is LAPACK's argument 7 of zgtsv
        n = 4
        dl, du = np.ones(n - 1, dtype=complex), np.ones(n - 1, dtype=complex)
        d = np.full(n, 4.0 + 0j)
        b = np.ones((n, 1), dtype=complex, order="F")
        with pytest.raises(ValueError, match="argument 7"):
            fem._lapack(fem._ZGTSV, n, 1, fem._band(dl, n - 1), fem._band(d, n),
                        fem._band(du, n - 1), fem._block(b, n), n - 1)


class _Counter(threading.Thread):
    """A Python thread pinned to one CPU that counts as fast as it can: it
    needs the GIL for every step."""

    def __init__(self, cpu):
        super().__init__(daemon=True)
        self.cpu, self.count, self.running = cpu, 0, True

    def run(self):
        os.sched_setaffinity(0, {self.cpu})  # pid 0: this thread alone
        while self.running:
            self.count += 1


class TestLapackReleasesTheGil:
    """A counting thread on another CPU keeps counting while the calling
    thread is inside LAPACK at the finest table1 size; scipy's f2py `zgtsv`,
    which holds the GIL, is the control that shows the check can fail."""

    N = 1_280_001
    ROUNDS = 3

    def _count_ratio(self, counter, make, work):
        """The median over ROUNDS of the counter's rate while `work(*make())`
        runs, over its rate while the calling thread sleeps just before."""
        def rate(call):
            start, t0 = counter.count, time.perf_counter()
            call()
            return (counter.count - start) / (time.perf_counter() - t0)

        ratios = []
        for _ in range(self.ROUNDS):
            args = make()
            idle = rate(lambda: time.sleep(0.05))
            ratios.append(rate(lambda: work(*args)) / idle)
        return float(np.median(ratios))

    def test_counter_keeps_running(self):
        if not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2:
            pytest.skip("needs two CPUs to pin the two threads to")
        n = self.N

        def system():
            return (hl.BandedComplexSystem(
                diag=np.full(n, 4.0 + 1.0j), offdiag=np.ones(n - 1),
                rhs=np.ones(n, dtype=complex), dirichlet_left=False,
                dirichlet_right=False),)

        def bands():
            return (np.ones(n - 1, dtype=complex), np.full(n, 4.0 + 1.0j),
                    np.ones(n - 1, dtype=complex), np.ones((n, 1), dtype=complex))

        def f2py_zgtsv(dl, d, du, b):
            lapack.zgtsv(dl, d, du, b, overwrite_dl=1, overwrite_d=1,
                         overwrite_du=1, overwrite_b=1)

        affinity, interval = os.sched_getaffinity(0), sys.getswitchinterval()
        first, second = sorted(affinity)[:2]
        counter = _Counter(second)
        try:
            # a waiting thread gets the GIL after at most this interval
            sys.setswitchinterval(0.001)
            os.sched_setaffinity(0, {first})
            counter.start()
            ratios = {name: self._count_ratio(counter, make, work)
                      for name, make, work in [
                          ("solve_in_place", system, hl.solve_in_place),
                          ("factorize", system, hl.BandedComplexSystem.factorize),
                          ("f2py zgtsv", bands, f2py_zgtsv)]}
        finally:
            counter.running = False
            counter.join(timeout=10)
            os.sched_setaffinity(0, affinity)
            sys.setswitchinterval(interval)
        assert not counter.is_alive()
        assert ratios["solve_in_place"] >= 0.5, ratios
        assert ratios["factorize"] >= 0.5, ratios
        assert ratios["f2py zgtsv"] < 0.5, ratios


class TestNorms:
    def test_zero_solution(self):
        prob = unit_problem()
        mesh = hl.build_mesh(prob, 10)
        solution = hl.FemSolution(np.zeros(mesh.n_nodes, dtype=complex), 0.0)
        assert hl.norms(solution, prob, mesh) == (0.0, 0.0, 0.0)

    def test_linear_ramp_derivative(self):
        # u goes 0 -> 1 over [-1, 1]: ||u'|| = sqrt(int (1/2)^2) = sqrt(1/2)
        prob = unit_problem(omega=1.0)
        mesh = hl.build_mesh(prob, 5)
        u = (mesh.nodes + 1.0) / 2.0
        solution = hl.FemSolution(u.astype(complex), 0.0)
        du, wu, energy = hl.norms(solution, prob, mesh)
        assert du == pytest.approx(np.sqrt(0.5), rel=1e-14)

    def test_energy_identity_on_family(self):
        prob = hl.family(hl.UnstableFamilySpec(2, 0.4))
        mesh = hl.build_mesh(prob, 1600)
        solution, _ = hl.solve_problem(prob, mesh)
        du, wu, energy = hl.norms(solution, prob, mesh)
        assert abs(du - wu) / du < 1e-4
        assert energy == pytest.approx(np.sqrt(du**2 + wu**2), rel=1e-12)

    def test_exact_vs_quadrature_weighted_mass(self, rng):
        # linear wave-speed segment: closed-form element integrals against
        # a dense trapezoid oracle
        prob = hl.HelmholtzProblem(
            a=hl.constant(1.0),
            c=hl.from_segments([-1.0, 1.0], [hl.Linear(1.0, 3.0)]),
            omega=2.0, g_right=1.0)
        mesh = hl.build_mesh(prob, 16)
        u = np.cos(mesh.nodes) + 1j * mesh.nodes
        solution = hl.FemSolution(u, 0.0)
        _, wu, _ = hl.norms(solution, prob, mesh)
        xs = np.linspace(-1.0, 1.0, 400_001)
        uh = np.interp(xs, mesh.nodes, u.real) + 1j * np.interp(xs, mesh.nodes, u.imag)
        c = 1.0 + (xs + 1.0)
        oracle = np.sqrt(np.trapezoid((2.0 / c) ** 2 * np.abs(uh) ** 2, xs))
        assert wu == pytest.approx(oracle, rel=1e-9)


def _assemble_reference(problem, mesh):
    """`assemble` with a complex diagonal summed in place, on the masked
    reference element data."""
    a_mean, p00, p01, p11 = _element_data_masked(problem, mesh)
    h = mesh.widths
    om = problem.omega
    n = mesh.n_nodes
    kdiag = a_mean / h
    diag = np.zeros(n, dtype=complex)
    diag[:-1] += kdiag - om**2 * h * p00
    diag[1:] += kdiag - om**2 * h * p11
    offdiag = (-kdiag - om**2 * h * p01).astype(complex)
    rhs = np.zeros(n, dtype=complex)
    if problem.f is not None:
        xg = mesh.nodes[:-1, None] + h[:, None] * G5_T[None, :]
        fg = np.asarray(problem.f(xg.ravel()), dtype=complex).reshape(xg.shape)
        rhs[:-1] += h * ((fg * (1.0 - G5_T)) @ G5_W)
        rhs[1:] += h * ((fg * G5_T) @ G5_W)
    if problem.bc.impedance_left:
        diag[0] -= 1j * om * problem.beta_left
        rhs[0] += problem.g_left
    if problem.bc.impedance_right:
        diag[-1] -= 1j * om * problem.beta_right
        rhs[-1] += problem.g_right
    lo = 0 if problem.bc.impedance_left else 1
    hi = n if problem.bc.impedance_right else n - 1
    return hl.BandedComplexSystem(
        diag=diag[lo:hi], offdiag=offdiag[lo:hi - 1], rhs=rhs[lo:hi],
        dirichlet_left=not problem.bc.impedance_left,
        dirichlet_right=not problem.bc.impedance_right)


def _residual_reference(system, x):
    """The relative max-norm residual of x through fresh arrays."""
    b_inf = np.linalg.norm(system.rhs, np.inf)
    if b_inf == 0.0:
        return 0.0
    y = system.diag * x
    if system.dimension > 1:
        y[:-1] += system.offdiag * x[1:]
        y[1:] += system.offdiag * x[:-1]
    return float(np.linalg.norm(y - system.rhs, np.inf) / b_inf)


def _norms_reference(u, problem, mesh):
    """`norms` as whole-array expressions with fresh temporaries."""
    h = mesh.widths
    ul, ur = u[:-1], u[1:]
    a_mean, p00, p01, p11 = _element_data_masked(problem, mesh)
    om = problem.omega
    slope2 = np.abs(ur - ul) ** 2 / h
    du2 = float(np.sum(slope2))
    wu2 = float(om**2 * np.sum(h * (np.abs(ul) ** 2 * p00
                                    + 2.0 * (ul * np.conj(ur)).real * p01
                                    + np.abs(ur) ** 2 * p11)))
    energy2 = float(np.sum(a_mean * slope2)) + wu2
    return np.sqrt(du2), np.sqrt(wu2), np.sqrt(energy2)


class TestLevelMatchesFreshArrayReferences:
    """assemble, the solve residual and norms give the bits of their
    whole-array forms with fresh temporaries."""

    @staticmethod
    def _assert_level_identical(problem, mesh):
        system = hl.assemble(problem, mesh)
        ref = _assemble_reference(problem, mesh)
        for name in ("diag", "rhs"):
            got, want = getattr(system, name), getattr(ref, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name
        # the off-diagonal is stored real: the reference's real part, and
        # the reference has no imaginary part
        assert system.offdiag.dtype == np.float64
        assert np.array_equal(system.offdiag, ref.offdiag.real)
        assert not np.any(ref.offdiag.imag)
        solution = hl.solve(system)
        x = ref.solve_vector(ref.rhs)
        assert np.array_equal(solution.residual, _residual_reference(ref, x))
        norms = hl.norms(solution, problem, mesh)
        assert np.array_equal(norms,
                              _norms_reference(solution.values, problem, mesh))
        du = hl.derivative_norm(solution.values, mesh)
        assert type(du) is float and du == norms[0]

    @pytest.mark.parametrize("m, r", [(10, 0.6), (12, 0.5), (12, 0.6)])
    def test_paper_asterisk_cells_mid_ladder(self, m, r):
        # level 3 of the default 800-element, 7-level ladder
        prob = hl.family(hl.UnstableFamilySpec(m, r))
        self._assert_level_identical(prob, hl.build_mesh(prob, 800 * 2**3))

    def test_mixed_segment_kinds_with_source(self):
        prob = _mixed_problem_with_source()
        self._assert_level_identical(prob, hl.build_mesh(prob, 37))

    @pytest.mark.parametrize("bc", list(BC), ids=lambda bc: bc.name)
    def test_boundary_configs(self, bc):
        prob = _two_layer_problem(bc)
        self._assert_level_identical(prob, hl.build_mesh(prob, 16))

    @pytest.mark.parametrize("bc, elements", [(BC.PURE_IMPEDANCE, 1),
                                              (BC.DIRICHLET_IMPEDANCE, 1),
                                              (BC.IMPEDANCE_DIRICHLET, 2)],
                             ids=["n2", "n1", "n2-dirichlet-right"])
    def test_small_systems(self, bc, elements):
        # dimensions 1 and 2, which go through LAPACK like every other size
        prob = unit_problem(omega=1.0, bc=bc,
                            g=(0.5 if bc.impedance_left else 0.0,
                               1.0 - 1j if bc.impedance_right else 0.0))
        mesh = hl.build_mesh(prob, elements)
        assert hl.assemble(prob, mesh).dimension <= 2
        self._assert_level_identical(prob, mesh)


class TestLevelMatchesFreshArrayReferencesInShortRuns(
        TestLevelMatchesFreshArrayReferences):
    """The same cases with runs short enough to start inside a subinterval,
    straddle breakpoints and end next to a Dirichlet-trimmed node; 136 =
    8 * 17 is no divisor of any subinterval's element count."""

    @pytest.fixture(autouse=True, params=[128, 136, 1000])
    def short_runs(self, request, monkeypatch):
        monkeypatch.setattr(quadrature, "_SUM_LEAF", request.param)
        return request.param

    @pytest.mark.parametrize("bc", list(BC), ids=lambda bc: bc.name)
    def test_boundary_configs_across_runs(self, bc, short_runs):
        prob = _two_layer_problem(bc)
        mesh = hl.build_mesh(prob, 1013)
        runs = quadrature._leaf_runs(mesh.n_nodes - 1)
        assert len(runs) > 1 and any(lo % 1013 for lo, _ in runs)
        self._assert_level_identical(prob, mesh)


@pytest.mark.parametrize("leaf", [128, 136, 1000, 2**14, 2**16])
def test_pairwise_tree_matches_numpy_sum(monkeypatch, leaf):
    # if numpy changes how it reduces float64, this fails before any norm
    # digit moves
    monkeypatch.setattr(quadrature, "_SUM_LEAF", leaf)
    rng = np.random.default_rng(leaf)
    for n in (1, 7, 127, 128, 129, 8191, 65537, 1000003):
        a = rng.standard_normal(n) * 10.0 ** rng.uniform(-100, 100, n)
        tree = quadrature._pairwise_tree(
            lambda lo, k: np.sum(a[lo:lo + k]), 0, n)
        assert tree == np.sum(a), n


class TestBoundedMemory:
    """A level's solve and norms build no mesh-sized temporary: with runs of
    2^14 elements their traced peaks stay below a quarter of one mesh-sized
    float64 array, beyond the solution that `solve` returns, and the
    quasi-optimality probe's error sums below a quarter of one mesh-sized
    complex array.  The mesh keeps no nodes and checks them one subinterval
    at a time, and `norm1` allocates two float64 arrays of one leaf run."""

    @pytest.fixture(scope="class")
    def level(self):
        prob = hl.family(hl.UnstableFamilySpec(12, 0.6))
        mesh = hl.build_mesh(prob, 25600)
        assert mesh.n_nodes == 640_001
        system = hl.assemble(prob, mesh)
        system.factorize()
        return prob, mesh, system

    @staticmethod
    def _traced_peak(func, *args):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            result = func(*args)
            return result, tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    def test_solve_and_norms_peaks(self, level, monkeypatch):
        monkeypatch.setattr(quadrature, "_SUM_LEAF", 2**14)
        prob, mesh, system = level
        bound = mesh.n_nodes * 8 / 4
        solution, peak = self._traced_peak(hl.solve, system)
        assert peak < solution.values.nbytes + bound, peak
        _, peak = self._traced_peak(hl.norms, solution, prob, mesh)
        assert peak < bound, peak

    def test_error_sums_peak(self, level):
        # the quasi-optimality probe's error sums of one level, the helper
        # thread's whole share of it: layer-sized temporaries only
        prob, mesh, system = level
        amps = hl.solve_analytic(prob)
        u_h = hl.solve(system).values
        errors, peak = self._traced_peak(experiments._error_sums, prob, amps,
                                         mesh, u_h)
        assert all(map(np.isfinite, errors))
        assert peak < mesh.n_nodes * 16 / 4, peak

    def test_mesh_keeps_no_nodes(self):
        # a mesh computes its nodes run by run: building it checks them one
        # subinterval at a time, and it keeps one subinterval's indices only
        prob = hl.family(hl.UnstableFamilySpec(12, 0.6))
        tracemalloc.start()
        try:
            mesh = hl.build_mesh(prob, 51200)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert mesh.n_nodes == 1_280_001
        assert peak <= 3 * 8 * 51201 + 4096, peak
        assert kept <= 8 * 51200 + 4096, kept

    def test_finest_mesh_peak(self):
        prob = hl.family(hl.UnstableFamilySpec(12, 0.6))
        mesh, peak = self._traced_peak(hl.build_mesh, prob, 51200)
        assert mesh.n_nodes == 1_280_001
        # the float64 indices i = 0 .. n - 1 of one subinterval
        assert peak <= mesh.nodes.nbytes + 8 * 51200 + 4096, peak

    def test_norm1_peak(self, level):
        _, _, system = level
        longest = max(k for _, k in quadrature._leaf_runs(system.dimension))
        norm, peak = self._traced_peak(system.norm1)
        assert norm == _norm1_reference(system)
        # a run's column sums and the moduli of one off-diagonal run
        assert peak <= 2 * 8 * longest + 4096, peak

    def test_ladder_run_again_peak(self, monkeypatch):
        # a ladder run again in one process takes every mesh-sized array,
        # on both threads, from the workspaces that its first run grew
        monkeypatch.setattr(quadrature, "_SUM_LEAF", 2**12)
        prob = hl.family(hl.UnstableFamilySpec(12, 0.6))
        base, levels = 200, 7
        finest = hl.build_mesh(prob, base * 2**(levels - 1)).n_nodes
        first = experiments._run_ladder(prob, base, levels)
        again, peak = self._traced_peak(experiments._run_ladder, prob, base, levels)
        assert again == first
        assert peak < finest * 8 / 4, peak


def _dirty_workspace(nbytes):
    """A workspace of at least `nbytes` bytes, all of them nonzero."""
    workspace = fem.Workspace()
    workspace.rewind()
    fem._empty(workspace, nbytes, np.uint8).fill(0xA5)
    workspace.rewind()
    return workspace


class TestWorkspace:
    def test_grows_and_lends_the_same_bytes_again(self):
        workspace = fem.Workspace()
        for _ in range(3):
            workspace.rewind()
            small = fem._empty(workspace, 10, float)
            small[:] = 1.0
            # grows the first time: the arrays lent before keep their values
            block = fem._empty(workspace, (1000, 2), complex, zero=True, order="F")
            assert np.all(small == 1.0) and not np.any(block)
            offset = block.ctypes.data - workspace._buffer.ctypes.data
            assert block.flags.f_contiguous and offset % 64 == 0
        buffer = workspace._buffer
        assert len(buffer) == 32768  # the next power of two
        workspace.rewind()
        assert np.shares_memory(fem._empty(workspace, 10, float), small)
        assert fem._empty(workspace, (1000, 2), complex).ctypes.data == block.ctypes.data
        assert workspace._buffer is buffer

    def test_kept_arrays_are_never_lent(self):
        workspace = _dirty_workspace(4096)
        workspace.rewind()
        dead = fem._empty(workspace, 100, float)
        live = fem._empty(workspace, 100, complex)
        live[:] = np.arange(100)
        buffer = workspace._buffer
        workspace.rewind(keep=(live,))
        below = fem._empty(workspace, 100, float)
        assert below.ctypes.data == dead.ctypes.data
        # no room below `live`: a fresh array, and the buffer stays
        fresh = fem._empty(workspace, 100, complex)
        assert not np.shares_memory(fresh, buffer) and workspace._buffer is buffer
        assert np.array_equal(live, np.arange(100))
        # an array outside the buffer keeps nothing of it
        workspace.rewind(keep=(fresh,))
        assert fem._empty(workspace, 4096, np.uint8).ctypes.data == buffer.ctypes.data

    def test_release_lends_only_the_last_array_again(self):
        workspace = _dirty_workspace(4096)
        first, last = (fem._empty(workspace, 10, float) for _ in range(2))
        workspace._release(first)
        after = fem._empty(workspace, 10, float)
        assert after.ctypes.data > last.ctypes.data
        workspace._release(after)
        assert fem._empty(workspace, 4, complex).ctypes.data == after.ctypes.data

    @pytest.mark.parametrize("leaf", [136, 2**16])
    @pytest.mark.parametrize("bc", list(BC), ids=lambda bc: bc.name)
    def test_level_in_a_dirty_workspace_has_fresh_array_bits(self, monkeypatch,
                                                             bc, leaf):
        # every fem call of a ladder, on bytes that another layout left
        # behind; short runs overlap the in-place copies across runs
        monkeypatch.setattr(quadrature, "_SUM_LEAF", leaf)
        prob = _two_layer_problem(bc)
        per = 1013
        mesh = hl.build_mesh(prob, per)
        system = hl.assemble(prob, mesh)
        solution = hl.solve(system)
        n = system.dimension
        unit = np.zeros(n, dtype=complex)
        unit[-1] = 1.0
        column = Future()
        column.set_result(system.solve_vector(unit))
        workspace, helper = (_dirty_workspace(200 * mesh.n_nodes) for _ in range(2))
        lent = hl.assemble(prob, mesh, workspace)
        for name in ("diag", "offdiag", "rhs"):
            assert np.array_equal(getattr(lent, name), getattr(system, name)), name
        for got, want in zip(lent.factorize(workspace), system.factorize()):
            assert np.array_equal(got, want)
        lent_solution = hl.solve(lent, workspace=workspace)
        assert np.array_equal(lent_solution.values, solution.values)
        assert lent_solution.residual == solution.residual
        for last in (None, column):
            helper.rewind()
            assert hl.condition_estimate(lent, last, workspace=helper) == \
                hl.condition_estimate(system, last)
        workspace.rewind()
        values = hl.solve_in_place(hl.assemble(prob, mesh, workspace), workspace)
        assert np.array_equal(values, solution.values)


class TestNodalL2Error:
    """The quasi-optimality probe's nodal l2 error, h (|e|^2 + |o|^2/4)
    summed layer by layer in `experiments._error_sums`, against the
    trapezoid-weighted sum over whole arrays with the mesh's own widths."""

    @pytest.mark.parametrize("per_segment", [1, 25, 26, 51, 52, 103, 400])
    @pytest.mark.parametrize("spec", [(2, 0.4), (4, 0.6)])
    def test_bits_of_the_whole_array_sum(self, spec, per_segment):
        # random nodal values in place of u_h: the identity holds for any
        # nodal error d, with one element per layer and with many
        prob = hl.family(hl.UnstableFamilySpec(*spec))
        amps = hl.solve_analytic(prob)
        mesh = hl.build_mesh(prob, per_segment)
        rng = np.random.default_rng(per_segment)
        u_h = (rng.standard_normal(mesh.n_nodes)
               + 1j * rng.standard_normal(mesh.n_nodes))
        nodal = experiments._error_sums(prob, amps, mesh, u_h)[2]
        reference = nodal_l2_reference(mesh, amps.eval(mesh.nodes), u_h)
        # the two routes round differently, so they share all but the last
        # few bits: 16 units in the last place
        assert abs(nodal - reference) <= 16 * np.spacing(reference), \
            (nodal, reference)


def _norm1_reference(system):
    """||A||_1 over whole arrays: |d_i| + |o_{i-1}| + |o_i| per column."""
    col = np.abs(system.diag)
    if system.dimension > 1:
        off = np.abs(system.offdiag)
        col[1:] += off
        col[:-1] += off
    return float(col.max())


class TestNorm1:
    @pytest.mark.parametrize("n", [1, 2, 3, 2**16 - 1, 2**16, 2**16 + 1,
                                   2**17 + 5])
    @pytest.mark.parametrize("offdiag_dtype", [float, complex])
    def test_matches_whole_array_formula(self, n, offdiag_dtype):
        rng = np.random.default_rng(n)
        diag = rng.standard_normal(n) + 0j
        # impedance corners: complex ends of an otherwise real diagonal
        diag[0] -= 1j * rng.uniform(0.5, 2.0)
        diag[-1] -= 1j * rng.uniform(0.5, 2.0)
        offdiag = rng.standard_normal(n - 1).astype(offdiag_dtype)
        if offdiag_dtype is complex:
            offdiag += 1j * rng.standard_normal(n - 1)
        system = hl.BandedComplexSystem(diag, offdiag, np.ones(n, complex),
                                        False, False)
        assert system.norm1() == _norm1_reference(system)
        # the largest column at each end and on either side of a leaf edge
        edges = {lo for lo, _ in quadrature._leaf_runs(n)}
        for i in sorted({0, n - 1} | {j for lo in edges
                                       for j in (lo - 1, lo) if 0 <= j < n}):
            spiked = hl.BandedComplexSystem(diag.copy(), offdiag.copy(),
                                            system.rhs, False, False)
            spiked.diag[i] += 10.0 - 10.0j
            if i < n - 1:
                spiked.offdiag[i] -= 7.0
            assert spiked.norm1() == _norm1_reference(spiked), i

    def test_family_impedance_corners(self):
        for m, r, count in ((2, 0.4, 1), (12, 0.6, 3), (8, 0.5, 400)):
            prob = hl.family(hl.UnstableFamilySpec(m, r))
            system = hl.assemble(prob, hl.build_mesh(prob, count))
            assert system.diag[0].imag != 0.0 and system.diag[-1].imag != 0.0
            assert system.norm1() == _norm1_reference(system)


def _condition_estimate_reference(system, itmax=5):
    """The textbook Hager loop (a lower bound on the 1-norm condition
    number).  A is complex symmetric, so A^H z = y is solved as
    z = conj(A^-1 conj(y))."""
    n = system.dimension
    if n == 1:
        return 1.0
    x = np.full(n, 1.0 / n, dtype=complex)
    est = 0.0
    for _step in range(itmax):
        y = system.solve_vector(x)
        mags = np.abs(y)
        est_new = float(mags.sum())
        zero = mags == 0.0
        xi = np.where(zero, 1.0 + 0.0j, y / np.where(zero, 1.0, mags))
        z = np.conj(system.solve_vector(np.conj(xi)))
        j = int(np.argmax(np.abs(z)))
        if est_new <= est or np.abs(z[j]) <= (z.conj() @ x).real + 1e-300:
            est = max(est, est_new)
            break
        est = est_new
        x = np.zeros(n, dtype=complex)
        x[j] = 1.0
    return system.norm1() * est


def _dense_matrix(system):
    n = system.dimension
    matrix = np.diag(system.diag)
    i = np.arange(n - 1)
    matrix[i, i + 1] = matrix[i + 1, i] = system.offdiag
    return matrix


def _condition_systems(kind):
    """Assembled systems of one kind: family cells, random layered problems
    with the boundary configuration named `kind`, or the problem with
    Constant, Linear and Smooth segments and a source."""
    if kind == "family":
        problems = [hl.family(hl.UnstableFamilySpec(m, r))
                    for m, r in ((2, 0.4), (8, 0.5), (12, 0.6))]
        counts = (4, 20, 50)
    elif kind == "mixed":
        problems, counts = [_mixed_problem_with_source()], (3, 40)
    else:
        rng = np.random.default_rng(sum(map(ord, kind)))
        problems = [random_layered_problem(rng, bc=BC[kind]) for _ in range(6)]
        counts = (1, 3, 17)
    return [hl.assemble(prob, hl.build_mesh(prob, count))
            for prob in problems for count in counts]


_CONDITION_KINDS = ["family", "mixed"] + [bc.name for bc in BC]


def _tridiagonal(diag, offdiag):
    return hl.BandedComplexSystem(
        diag=np.asarray(diag, dtype=complex),
        offdiag=np.asarray(offdiag, dtype=complex),
        rhs=np.ones(len(diag), dtype=complex),
        dirichlet_left=False, dirichlet_right=False)


@st.composite
def _dominant_tridiagonal(draw):
    """An n x n complex symmetric tridiagonal matrix, n <= 12, with
    off-diagonal moduli in [0.05, 1] and diagonal moduli in [2.5, 10]: its
    rows are diagonally dominant, so its condition number stays below 25."""
    n = draw(st.integers(2, 12))
    phase = st.floats(0.0, 2.0 * np.pi)
    offdiag = [draw(st.floats(0.05, 1.0)) * np.exp(1j * draw(phase))
               for _ in range(n - 1)]
    diag = [draw(st.floats(2.5, 10.0)) * np.exp(1j * draw(phase))
            for _ in range(n)]
    return _tridiagonal(diag, offdiag)


def _mpmath_condition(system):
    """||A||_1 ||A^-1||_1 of the double matrix, inverted at 50 digits."""
    with mpmath.workdps(50):
        matrix = mpmath.matrix(_dense_matrix(system).tolist())
        inverse = matrix ** -1
        n = system.dimension
        return float(max(sum(abs(matrix[i, j]) for i in range(n))
                         for j in range(n))
                     * max(sum(abs(inverse[i, j]) for i in range(n))
                           for j in range(n)))


class TestConditionEstimate:
    @pytest.mark.parametrize("kind", _CONDITION_KINDS)
    def test_matches_dense_inverse(self, kind):
        for system in _condition_systems(kind):
            matrix = _dense_matrix(system)
            dense = (np.abs(matrix).sum(axis=0).max()
                     * np.abs(np.linalg.inv(matrix)).sum(axis=0).max())
            assert hl.condition_estimate(system) == pytest.approx(dense, rel=1e-9)

    @given(_dominant_tridiagonal())
    @settings(max_examples=60, deadline=None)
    def test_matches_mpmath_inverse(self, system):
        assert hl.condition_estimate(system) == pytest.approx(
            _mpmath_condition(system), rel=1e-12)

    @pytest.mark.parametrize("kind", _CONDITION_KINDS)
    def test_hager_is_a_lower_bound(self, kind):
        # Hager's last step sums one computed column of A^-1, which rounds
        # apart from the exact route: 1.01e-12 relative above it on the
        # (12, 0.6) family at 20 elements, 3.5e-10 at 100; so the tolerance
        # is the dense test's
        for system in _condition_systems(kind):
            exact = hl.condition_estimate(system)
            assert _condition_estimate_reference(system) <= exact * (1.0 + 1e-9)

    def test_one_by_one(self):
        assert hl.condition_estimate(_tridiagonal([2.0 - 1.0j], [])) == 1.0

    def test_two_by_two(self):
        system = _tridiagonal([1.0 + 2.0j, -3.0 + 0.5j], [0.7 - 0.2j])
        assert [len(band) for band in system.factorize()] == [1, 2, 1, 0, 2]
        assert hl.condition_estimate(system) == pytest.approx(
            _mpmath_condition(system), rel=1e-14)

    @pytest.mark.parametrize("diag, offdiag", [
        (np.ones(50), np.zeros(49)), ([1.0, 1e-6], [0.0]),
        ([1.0, 2.0, 3.0], [0.5, 0.0])], ids=["identity", "diagonal", "split"])
    def test_reducible_matrix_raises(self, diag, offdiag):
        with pytest.raises(ValueError, match="off-diagonal"):
            hl.condition_estimate(_tridiagonal(diag, offdiag))

    @pytest.mark.parametrize("diag, offdiag", [(1e300, 1e-300), (1e-300, 1e-310)],
                             ids=["corner-underflows", "products-overflow"])
    @pytest.mark.filterwarnings("error")
    def test_near_reducible_matrix_raises(self, diag, offdiag):
        # the inverse's corner entry underflows to 0, or the column sums
        # overflow although the condition number is about 1: never a value,
        # and no warning on the way
        system = _tridiagonal(np.full(3, diag), np.full(2, offdiag))
        with pytest.raises(SingularSystemError):
            hl.condition_estimate(system)


class TestConvergenceRates:
    def test_energy_and_nodal_rates(self):
        probe = hl.quasiopt_probe(hl.family(hl.UnstableFamilySpec(2, 0.4)),
                                  levels=5, base=50)
        eE = np.asarray(probe.energy_errors)
        eL = np.asarray(probe.nodal_l2_errors)
        ratesE = np.log2(eE[:-1] / eE[1:])
        ratesL = np.log2(eL[:-1] / eL[1:])
        assert np.all(np.abs(ratesE - 1.0) < 0.1)
        assert np.all(np.abs(ratesL - 2.0) < 0.15)


class TestAprioriBound:
    def test_discrete_solutions_obey_energy_bound(self, rng):
        # boundary-data-only problems: energy <= C_II sqrt(Q_exact) ||g||
        for _ in range(100):
            prob = random_layered_problem(rng)
            mesh = hl.build_mesh(prob, 400)
            solution, _ = hl.solve_problem(prob, mesh)
            energy = hl.norms(solution, prob, mesh)[2]
            report = hl.stability_report(prob.a, prob.c, prob.bc)
            assert energy <= report.apriori_rhs(0.0, prob.boundary_norm())


class TestPiecewisePolynomialSource:
    def test_evaluation(self):
        f = hl.PiecewisePolynomial(np.array([-1.0, 0.0, 1.0]),
                                   (np.array([1.0, 0.0]), np.array([2.0])))
        xs = np.array([-0.5, 0.5])
        assert np.allclose(f(xs), [-0.5, 2.0])

    def test_as_source(self):
        # constant source via the polynomial wrapper matches a plain callable
        f_poly = hl.PiecewisePolynomial(np.array([-1.0, 1.0]), (np.array([3.0]),))
        p1 = hl.HelmholtzProblem(a=hl.constant(1.0), c=hl.constant(1.0),
                                 omega=1.0, f=f_poly)
        p2 = hl.HelmholtzProblem(a=hl.constant(1.0), c=hl.constant(1.0),
                                 omega=1.0, f=lambda x: 3.0 * np.ones_like(x))
        mesh = hl.build_mesh(p1, 16)
        s1 = hl.assemble(p1, mesh)
        s2 = hl.assemble(p2, mesh)
        assert np.allclose(s1.rhs, s2.rhs, rtol=0, atol=1e-15)
        u1 = hl.solve(s1).values
        u2 = hl.solve(s2).values
        assert np.allclose(u1, u2, rtol=1e-13)
