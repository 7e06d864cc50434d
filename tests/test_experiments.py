import json
import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import helmlab as hl
from helmlab import experiments, fem, quadrature
from helmlab.quadrature import G5_T, G5_W


class TestFamily:
    def test_small_even_member(self):
        prob = hl.family(hl.UnstableFamilySpec(2, 0.5))
        assert prob.omega == pytest.approx(1.25 * np.pi, rel=1e-15)
        assert prob.c.n_segments == 5
        vals = [s.value for s in prob.c.segments]
        assert vals == [0.5, 1.5, 0.5, 1.5, 0.5]
        assert prob.bc is hl.BoundaryConfig.PURE_IMPEDANCE

    def test_widths(self):
        spec = hl.UnstableFamilySpec(2, 0.4)
        prob = hl.family(spec)
        widths = np.diff(prob.partition)
        assert widths.sum() == pytest.approx(2.0, abs=1e-15)
        # central subinterval is doubled: 2 (1 - r) / (1 - r + m)
        assert widths[2] == pytest.approx(1.2 / 2.6, rel=1e-15)

    def test_endpoint_exact_for_large_m(self):
        for m in range(2, 21, 2):
            prob = hl.family(hl.UnstableFamilySpec(m, 0.5))
            assert abs(prob.partition[-1] - 1.0) < 1e-12
            assert prob.partition[0] == -1.0

    def test_perturbation_moves_central_point(self):
        spec = hl.UnstableFamilySpec(6, 0.5, eps=1e-4)
        base = hl.family(hl.UnstableFamilySpec(6, 0.5))
        pert = hl.family(spec)
        diff = pert.partition - base.partition
        assert diff[7] == pytest.approx(1e-4, rel=1e-10)
        assert np.all(diff[:7] == 0.0) and np.all(diff[8:] == 0.0)

    def test_bad_perturbation_rejected(self):
        with pytest.raises(ValueError, match="ordering"):
            hl.family(hl.UnstableFamilySpec(2, 0.5, eps=-1.0))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            hl.UnstableFamilySpec(3, 0.5)
        with pytest.raises(ValueError):
            hl.UnstableFamilySpec(2, 1.5)


class TestRefinementProtocol:
    def test_constant_coefficient_quick_convergence(self):
        prob = hl.HelmholtzProblem(a=hl.constant(1.0), c=hl.constant(1.0),
                                   omega=np.pi / 2, g_right=1.0)
        run = hl.refine_to_convergence(prob, base=200, levels=3)
        assert run.converged
        assert run.reported == pytest.approx(np.sqrt(2.0) / 2.0, rel=1e-3)

    def test_sigfig_flag(self):
        # values agreeing in 2 but not 4 significant figures
        assert hl.round_sig(0.77423, 4) == 0.7742
        assert hl.round_sig(123456.0, 4) == 123500.0
        assert hl.round_sig(0.0, 4) == 0.0

    def test_cache_roundtrip(self, tmp_path):
        spec = hl.UnstableFamilySpec(2, 0.4)
        prob = hl.family(spec)
        kwargs = dict(base=50, levels=2, cache_dir=str(tmp_path),
                      cache_key=spec.cache_key())
        run1 = hl.refine_to_convergence(prob, **kwargs)
        files = list(tmp_path.glob("*.json"))
        assert len(files) == 1
        assert json.loads(files[0].read_text()) == {
            "du": list(run1.values), "wu": run1.wu_finest,
            "res": run1.residual, "cond": run1.condition_estimate,
            "version": experiments.CACHE_VERSION}
        # a hit gives back the run it stored
        assert hl.refine_to_convergence(prob, **kwargs) == run1
        # poison one level; a rerun must read the poisoned value (cache hit)
        data = json.loads(files[0].read_text())
        data["du"][0] = 123.0
        files[0].write_text(json.dumps(data))
        run2 = hl.refine_to_convergence(prob, **kwargs)
        assert 123.0 in run2.values
        assert run1.values != run2.values

    @pytest.mark.parametrize("stale", [
        lambda path: _edit_record(path, lambda record: record.pop("version")),
        lambda path: _edit_record(path, lambda record: record.update(
            version=experiments.CACHE_VERSION - 1)),
        lambda path: path.write_text(path.read_text()[:-5]),
        lambda path: path.write_text("[]"),
        lambda path: path.write_text(json.dumps({"version": experiments.CACHE_VERSION})),
        lambda path: _edit_record(path, lambda record: record.update(
            du=record["du"][:-1])),
        lambda path: _edit_record(path, lambda record: record.update(du="du")),
        lambda path: _edit_record(path, lambda record: record.update(cond="1e3"))],
        ids=["missing", "older", "corrupt", "list", "version-only",
             "du-short", "du-string", "cond-string"])
    def test_cache_entry_of_another_version_is_recomputed(self, tmp_path, stale):
        spec = hl.UnstableFamilySpec(2, 0.4)
        prob = hl.family(spec)
        kwargs = dict(base=50, levels=2, cache_dir=str(tmp_path),
                      cache_key=spec.cache_key())
        run1 = hl.refine_to_convergence(prob, **kwargs)
        (path,) = tmp_path.glob("*.json")
        assert path.name.endswith(f"_v{experiments.CACHE_VERSION}.json")
        assert json.loads(path.read_text())["version"] == experiments.CACHE_VERSION
        stale(path)
        assert hl.refine_to_convergence(prob, **kwargs) == run1
        # rewritten in place under the current version
        assert list(tmp_path.glob("*.json")) == [path]
        assert json.loads(path.read_text())["version"] == experiments.CACHE_VERSION
        assert json.loads(path.read_text())["du"] == list(run1.values)

    @pytest.mark.parametrize("other", [dict(base=21), dict(levels=3)],
                             ids=["base", "levels"])
    def test_cache_of_another_ladder_is_a_miss(self, tmp_path, other):
        prob = hl.family(_LADDER_SPEC)
        kwargs = dict(_LADDER, cache_dir=str(tmp_path),
                      cache_key=_LADDER_SPEC.cache_key())
        hl.refine_to_convergence(prob, **kwargs)
        (stored,) = tmp_path.glob("*.json")
        _edit_record(stored, lambda record: record.update(cond=123.0))
        kwargs.update(other)
        assert hl.refine_to_convergence(prob, **kwargs) == \
            _refine_serial_reference(prob, **other)
        assert len(list(tmp_path.glob("*.json"))) == 2

    @pytest.mark.parametrize("cache", ["none", "fresh", "warm"])
    def test_ladder_bit_identical_to_serial_reference(self, tmp_path, cache):
        prob = hl.family(_LADDER_SPEC)
        expected = _refine_serial_reference(prob)
        kwargs = dict(_LADDER)
        if cache != "none":
            kwargs.update(cache_dir=str(tmp_path),
                          cache_key=_LADDER_SPEC.cache_key())
        if cache == "warm":
            assert hl.refine_to_convergence(prob, **kwargs) == expected
            assert len(list(tmp_path.glob("*.json"))) == 1
        assert hl.refine_to_convergence(prob, **kwargs) == expected

    @pytest.mark.parametrize("case", ["estimate", "warm"])
    def test_level_order_and_threads(self, tmp_path, monkeypatch, case):
        prob = hl.family(_LADDER_SPEC)
        levels = _LADDER["levels"]
        kwargs = dict(_LADDER, cache_dir=str(tmp_path),
                      cache_key=_LADDER_SPEC.cache_key())
        if case == "warm":
            hl.refine_to_convergence(prob, **kwargs)
        reference = _refine_serial_reference(prob)
        factorized_level, solve, estimate = \
            experiments._factorized_level, fem.solve, fem.condition_estimate
        events, estimated = [], []

        def recording_level(problem, base, level):
            events.append(("factorize", level, threading.active_count()))
            mesh, system = factorized_level(problem, base, level)
            assert system._factors is not None
            return mesh, system

        def recording_solve(system):
            events.append(("solve", system.dimension, threading.active_count()))
            return solve(system)

        def recording_estimate(system):
            estimated.append((system.dimension, threading.current_thread()))
            return estimate(system)

        monkeypatch.setattr(experiments, "_factorized_level", recording_level)
        monkeypatch.setattr(fem, "solve", recording_solve)
        monkeypatch.setattr(fem, "condition_estimate", recording_estimate)
        before = threading.active_count()
        assert hl.refine_to_convergence(prob, **kwargs) == reference
        if case == "estimate":
            # finest first, then 0 .. L-2, each solved right after it is
            # factorized; the helper thread starts with the finest level's
            # estimate, so it is alive when that level's solve starts, and
            # it stays until the ladder is done
            order = [levels - 1] + list(range(levels - 1))
            dims = [hl.build_mesh(prob, _LADDER["base"] * 2**level).n_nodes
                    for level in order]
            expected = []
            for i, (level, dim) in enumerate(zip(order, dims)):
                expected += [("factorize", level, before + (i > 0)),
                             ("solve", dim, before + 1)]
            assert events == expected
            (est_dim, est_thread), = estimated
            assert est_dim == dims[0]
            assert est_thread is not threading.current_thread()
        else:
            # a stored ladder runs no level and starts no thread
            assert events == [] and estimated == []
        assert threading.active_count() == before

    def test_empty_ladder_rejected(self):
        with pytest.raises(ValueError, match="at least one level"):
            hl.refine_to_convergence(hl.family(_LADDER_SPEC), levels=0)

    def test_estimate_error_surfaces_and_thread_is_joined(self, tmp_path,
                                                          monkeypatch):
        def boom(system):
            raise FloatingPointError("estimate failed")

        monkeypatch.setattr(fem, "condition_estimate", boom)
        before = threading.active_count()
        with pytest.raises(FloatingPointError, match="estimate failed"):
            hl.refine_to_convergence(hl.family(_LADDER_SPEC), **_LADDER,
                                     cache_dir=str(tmp_path),
                                     cache_key=_LADDER_SPEC.cache_key())
        assert threading.active_count() == before
        # a ladder without its estimate is not stored
        assert list(tmp_path.iterdir()) == []

    def test_parallel_matches_serial(self, tmp_path):
        specs = [hl.UnstableFamilySpec(2, r) for r in (0.4, 0.5)]
        serial = hl.run_cells(specs, base=50, levels=2, jobs=1)
        parallel = hl.run_cells(specs, base=50, levels=2, jobs=2)
        assert [r.value for r in serial] == [r.value for r in parallel]
        assert [(r.m, r.r) for r in parallel] == [(2, 0.4), (2, 0.5)]


_LADDER_SPEC = hl.UnstableFamilySpec(2, 0.4)
_LADDER = dict(base=20, levels=4)


def _refine_serial_reference(problem, base=_LADDER["base"],
                             levels=_LADDER["levels"], sigfigs=4):
    """The ladder run level by level, coarsest first, with the condition
    estimate of the finest system computed last on the calling thread."""
    values = []
    for level in range(levels):
        mesh = hl.build_mesh(problem, base * 2**level)
        solution, system = hl.solve_problem(problem, mesh)
        du, wu, _energy = hl.norms(solution, problem, mesh)
        values.append(float(du))
    cond = hl.condition_estimate(system)
    tail = [f"%.{sigfigs - 1}e" % v for v in values[-3:]]
    converged = len(values) >= 3 and tail[0] == tail[1] == tail[2]
    return hl.RefinementRun(tuple(values), converged,
                            hl.round_sig(values[-1], sigfigs), cond,
                            solution.residual, float(wu))


def _edit_record(path, edit):
    """Apply `edit` to the JSON record stored at path."""
    record = json.loads(path.read_text())
    edit(record)
    path.write_text(json.dumps(record))


class TestSlopeFit:
    def test_exact_line(self):
        assert hl.slope_fit([2.0, 4.0], [math.e**2, math.e**4]) == pytest.approx(1.0)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            hl.slope_fit([2.0], [1.0])

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            hl.slope_fit([2.0, 4.0], [1.0, -1.0])


class TestBoundComparison:
    def test_closed_form_column(self):
        rows = hl.bound_comparison([2, 4], 0.5)
        # slope of the closed-form envelope is 2 (1+r)^2/(1-r)^4 = 72
        assert rows[1].bound_closed_form - rows[0].bound_closed_form == \
            pytest.approx(2.0 * 72.0, rel=1e-12)
        assert all(r.satisfied for r in rows)

    def test_all_bounds_dominate_measurement(self):
        for r in (0.4, 0.5, 0.6):
            for row in hl.bound_comparison([2, 4, 6, 8], r):
                assert row.ln_measured <= row.bound_exact_q + 1e-9
                assert row.bound_exact_q <= row.bound_variation + 1e-9

    def test_small_contrast_bound_is_modest(self):
        rows = hl.bound_comparison([2, 4], 1e-6)
        # variation-based bound collapses to O(1) as the contrast vanishes
        assert rows[-1].bound_variation < 2.0


def _energy_error_two_calls(problem, mesh, amps, nodal_values):
    """Reference energy error: its own Gauss data and one `eval` and one
    `deriv` call per P1 function."""
    nodes = mesh.nodes
    h = mesh.widths
    xl = nodes[:-1]
    mid = 0.5 * (nodes[:-1] + nodes[1:])
    a_e = problem.a.values(mid)
    c_e = problem.c.values(mid)
    om = problem.omega

    xg = xl[:, None] + h[:, None] * G5_T[None, :]
    wg = h[:, None] * G5_W[None, :]
    u_ex = amps.eval(xg.ravel()).reshape(xg.shape)
    du_ex = amps.deriv(xg.ravel()).reshape(xg.shape)
    ul = nodal_values[:-1][:, None]
    ur = nodal_values[1:][:, None]
    u_h = ul * (1.0 - G5_T)[None, :] + ur * G5_T[None, :]
    du_h = (ur - ul) / h[:, None]
    err2 = np.sum(a_e[:, None] * wg * np.abs(du_ex - du_h) ** 2) \
        + np.sum((om / c_e[:, None]) ** 2 * wg * np.abs(u_ex - u_h) ** 2)
    return float(np.sqrt(err2))


def _energy_errors_one_shot(problem, mesh, amps, u_fem, u_interp):
    """Reference for `experiments._energy_errors`: the whole Gauss-point
    grid of the level at once, one `np.sum` per term."""
    nodes = mesh.nodes
    h = mesh.widths
    xl = nodes[:-1]
    mid = 0.5 * (nodes[:-1] + nodes[1:])
    a_e = problem.a.values(mid)
    c_e = problem.c.values(mid)
    om = problem.omega
    wg = h[:, None] * G5_W[None, :]
    u_ex, du_ex = amps.eval_with_deriv(xl[:, None] + h[:, None] * G5_T[None, :])

    def error(nodal_values):
        ul = nodal_values[:-1][:, None]
        ur = nodal_values[1:][:, None]
        u_h = ul * (1.0 - G5_T)[None, :] + ur * G5_T[None, :]
        du_h = (ur - ul) / h[:, None]
        err2 = np.sum(a_e[:, None] * wg * np.abs(du_ex - du_h) ** 2) \
            + np.sum((om / c_e[:, None]) ** 2 * wg * np.abs(u_ex - u_h) ** 2)
        return float(np.sqrt(err2))

    return error(u_fem), error(u_interp)


def _energy_errors_two_calls(problem, mesh, amps, u_fem, u_interp):
    return (_energy_error_two_calls(problem, mesh, amps, u_fem),
            _energy_error_two_calls(problem, mesh, amps, u_interp))


def _reference_probe(problem, levels, base, energy_errors):
    """Reference probe, level by level, with the given energy errors."""
    amps = hl.solve_analytic(problem)
    energy_fem, energy_interp, nodal = [], [], []
    for level in range(levels):
        mesh = hl.build_mesh(problem, base * 2**level)
        u_h = hl.solve_problem(problem, mesh)[0].values
        u_nodes = amps.eval(mesh.nodes)
        e_fem, e_interp = energy_errors(problem, mesh, amps, u_h, u_nodes)
        energy_fem.append(e_fem)
        energy_interp.append(e_interp)
        nodal.append(experiments._nodal_l2_error(mesh, u_nodes, u_h))
    return hl.QuasiOptimalityProbe(tuple(range(levels)), tuple(energy_fem),
                                   tuple(energy_interp), tuple(nodal))


def _probe_case(name):
    """(problem, base, levels) of the probe tests' three cases."""
    if name == "family":
        return hl.family(hl.UnstableFamilySpec(2, 0.4)), 50, 3
    if name == "homogeneous":
        return hl.HelmholtzProblem(a=hl.constant(1.0), c=hl.constant(1.0),
                                   omega=2.0, g_right=1.0), 8, 4
    bp = [-1.0, -0.3, 0.4, 1.0]
    return hl.HelmholtzProblem(
        a=hl.piecewise_constant(bp, [1.0, 2.5, 0.6]),
        c=hl.piecewise_constant(bp, [1.0, 0.7, 1.4]), omega=6.0,
        bc=hl.BoundaryConfig.DIRICHLET_IMPEDANCE, g_right=1.0 - 0.5j), 8, 4


def _counting_pools(monkeypatch):
    """The thread pools `experiments` builds from now on, each counting its
    submits."""
    pools = []

    class CountingPool(ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.submitted = 0
            pools.append(self)

        def submit(self, *args, **kwargs):
            self.submitted += 1
            return super().submit(*args, **kwargs)

    monkeypatch.setattr(experiments, "ThreadPoolExecutor", CountingPool)
    return pools


class TestQuasiOpt:
    @pytest.mark.parametrize("name", ["family", "homogeneous", "dirichlet"])
    def test_probe_bit_identical_to_two_call_reference(self, name):
        prob, base, levels = _probe_case(name)
        assert hl.quasiopt_probe(prob, levels=levels, base=base) == \
            _reference_probe(prob, levels, base, _energy_errors_two_calls)

    @pytest.mark.parametrize("leaf", [128, 136, 1000])
    @pytest.mark.parametrize("name", ["family", "homogeneous", "dirichlet"])
    def test_streamed_probe_bit_identical_to_one_shot(self, monkeypatch,
                                                      name, leaf):
        # small leaves split every case's finer levels into many leaves;
        # 136 = 8 * 17 starts most of them inside an element
        prob, base, levels = _probe_case(name)
        base *= 8
        finest = hl.build_mesh(prob, base * 2**(levels - 1))
        assert 5 * (finest.n_nodes - 1) > 2 * leaf
        monkeypatch.setattr(quadrature, "_SUM_LEAF", leaf)
        assert hl.quasiopt_probe(prob, levels=levels, base=base) == \
            _reference_probe(prob, levels, base, _energy_errors_one_shot)

    @pytest.mark.parametrize("leaf", [128, 136, 1000, 2**14, 2**16])
    def test_pairwise_tree_matches_numpy_sum(self, monkeypatch, leaf):
        # if numpy changes how it reduces float64, this fails before any
        # probe digit moves
        monkeypatch.setattr(quadrature, "_SUM_LEAF", leaf)
        rng = np.random.default_rng(leaf)
        for n in (1, 7, 127, 128, 129, 8191, 65537, 1000003):
            a = rng.standard_normal(n) * 10.0 ** rng.uniform(-100, 100, n)
            tree = quadrature._pairwise_tree(
                lambda lo, k: np.sum(a[lo:lo + k]), 0, n)
            assert tree == np.sum(a), n

    @pytest.mark.parametrize("leaf", [128, 136, 1000])
    def test_probe_sum_ignores_completion_order(self, monkeypatch, leaf):
        # seeded sleeps make the two workers finish each level's leaves out
        # of order, and each level's last leaf sleeps long enough for the
        # next level's leaves to finish before it
        monkeypatch.setattr(quadrature, "_SUM_LEAF", leaf)
        terms, finished = {}, []

        def synthetic_leaves(problem, mesh, amps, u_fem, u_interp):
            n = 5 * (mesh.n_nodes - 1)
            rng = np.random.default_rng(n)
            a = terms[n] = rng.uniform(0.0, 1.0, (4, n)) \
                * 10.0 ** rng.uniform(-3.0, 3.0, (4, n))

            def leaf_sums(lo, k):
                time.sleep(0.05 if lo + k == n else
                           np.random.default_rng(lo).uniform(0.0, 2e-3))
                finished.append((n, lo))
                return np.array([np.sum(row[lo:lo + k]) for row in a])

            return leaf_sums

        monkeypatch.setattr(experiments, "_energy_errors", synthetic_leaves)
        prob, base, levels = _probe_case("family")
        probe = hl.quasiopt_probe(prob, levels=levels, base=8 * base)
        sizes = sorted(terms)
        assert len(sizes) == levels
        for n, e_fem, e_interp in zip(sizes, probe.energy_errors,
                                      probe.interp_errors):
            a = terms[n]
            assert e_fem == float(np.sqrt(np.sum(a[0]) + np.sum(a[1])))
            assert e_interp == float(np.sqrt(np.sum(a[2]) + np.sum(a[3])))
        assert finished != sorted(finished)
        for coarse, fine in zip(sizes, sizes[1:]):
            last = max(i for i, (n, _) in enumerate(finished) if n == coarse)
            first = min(i for i, (n, _) in enumerate(finished) if n == fine)
            assert first < last

    def test_next_level_solve_overlaps_leaves(self, monkeypatch):
        # a level-0 leaf waits for level 1's FEM solve to start; run one
        # after the other, the levels would let it time out instead
        prob, base, _ = _probe_case("family")
        coarse = hl.build_mesh(prob, base).n_nodes
        started = threading.Event()
        waited = []
        solve_problem, energy_errors = fem.solve_problem, experiments._energy_errors

        def recording_solve(problem, mesh):
            if mesh.n_nodes > coarse:
                started.set()
            return solve_problem(problem, mesh)

        def waiting_leaves(problem, mesh, amps, u_fem, u_interp):
            leaf_sums = energy_errors(problem, mesh, amps, u_fem, u_interp)

            def leaf(lo, k):
                if mesh.n_nodes == coarse and lo == 0:
                    waited.append(started.wait(timeout=10.0))
                return leaf_sums(lo, k)

            return leaf

        monkeypatch.setattr(fem, "solve_problem", recording_solve)
        monkeypatch.setattr(experiments, "_energy_errors", waiting_leaves)
        probe = hl.quasiopt_probe(prob, levels=2, base=base)
        assert waited == [True]
        monkeypatch.undo()
        assert probe == _reference_probe(prob, 2, base, _energy_errors_one_shot)

    def test_one_pool_per_probe(self, monkeypatch):
        monkeypatch.setattr(quadrature, "_SUM_LEAF", 128)
        pools = _counting_pools(monkeypatch)
        prob, base, levels = _probe_case("family")
        hl.quasiopt_probe(prob, levels=levels, base=base)
        pool, = pools
        assert pool._max_workers == 2
        assert pool.submitted == sum(
            len(quadrature._leaf_runs(5 * (hl.build_mesh(prob, base * 2**level)
                                           .n_nodes - 1)))
            for level in range(levels))

    def test_repeated_small_leaf_probe_bit_identical_to_one_shot(self,
                                                                 monkeypatch):
        prob, base, levels = _probe_case("dirichlet")
        base *= 8
        monkeypatch.setattr(quadrature, "_SUM_LEAF", 128)
        reference = _reference_probe(prob, levels, base, _energy_errors_one_shot)
        for _ in range(5):
            assert hl.quasiopt_probe(prob, levels=levels, base=base) == reference

    def test_leaf_error_surfaces_and_pool_is_joined(self, monkeypatch):
        # many leaves per level, and the third leaf's oracle call fails;
        # the next level's leaves are already submitted when it surfaces
        monkeypatch.setattr(quadrature, "_SUM_LEAF", 128)
        pools = _counting_pools(monkeypatch)
        eval_with_deriv = hl.WaveAmplitudes.eval_with_deriv
        calls = []
        lock = threading.Lock()

        def failing(amps, x):
            with lock:
                calls.append(x.shape)
                if len(calls) == 3:
                    raise FloatingPointError("leaf failed")
            return eval_with_deriv(amps, x)

        monkeypatch.setattr(hl.WaveAmplitudes, "eval_with_deriv", failing)
        before = threading.active_count()
        with pytest.raises(FloatingPointError, match="leaf failed"):
            hl.quasiopt_probe(hl.family(hl.UnstableFamilySpec(2, 0.4)),
                              levels=3, base=200)
        assert threading.active_count() == before
        pool, = pools
        assert len(calls) < pool.submitted

    def test_solve_error_surfaces_and_pool_is_joined(self, monkeypatch):
        # level 1's FEM solve fails while level 0's slowed leaves are pending
        monkeypatch.setattr(quadrature, "_SUM_LEAF", 128)
        pools = _counting_pools(monkeypatch)
        prob = hl.family(hl.UnstableFamilySpec(2, 0.4))
        coarse = hl.build_mesh(prob, 200).n_nodes
        solve_problem = fem.solve_problem
        eval_with_deriv = hl.WaveAmplitudes.eval_with_deriv
        calls = []

        def failing_solve(problem, mesh):
            if mesh.n_nodes > coarse:
                raise hl.SingularSystemError("solve failed", 1)
            return solve_problem(problem, mesh)

        def slow(amps, x):
            calls.append(x.shape)
            time.sleep(0.01)
            return eval_with_deriv(amps, x)

        monkeypatch.setattr(fem, "solve_problem", failing_solve)
        monkeypatch.setattr(hl.WaveAmplitudes, "eval_with_deriv", slow)
        before = threading.active_count()
        with pytest.raises(hl.SingularSystemError, match="solve failed"):
            hl.quasiopt_probe(prob, levels=3, base=200)
        assert threading.active_count() == before
        pool, = pools
        assert 0 < len(calls) < pool.submitted

    def test_empty_probe_rejected(self):
        with pytest.raises(ValueError, match="at least one level"):
            hl.quasiopt_probe(hl.family(hl.UnstableFamilySpec(2, 0.4)),
                              levels=0)

    def test_easy_problem_ratio_near_one(self):
        prob = hl.HelmholtzProblem(a=hl.constant(1.0), c=hl.constant(1.0),
                                   omega=2.0, g_right=1.0)
        probe = hl.quasiopt_probe(prob, levels=4, base=8)
        ratios = probe.ratios
        assert ratios[-1] < ratios[0] or ratios[0] < 1.5
        assert ratios[-1] == pytest.approx(1.0, abs=0.05)

    def test_family_ratio_bounded_and_stable(self):
        probe = hl.quasiopt_probe(hl.family(hl.UnstableFamilySpec(2, 0.4)),
                                  levels=4, base=100)
        ratios = np.asarray(probe.ratios)
        assert np.all(ratios >= 1.0 - 1e-9)
        assert np.all(ratios < 10.0)
        assert abs(ratios[-1] - ratios[-2]) / ratios[-1] < 0.05

    def test_unsupported_problem(self):
        prob = hl.HelmholtzProblem(
            a=hl.from_segments([-1.0, 1.0], [hl.Linear(1.0, 2.0)]),
            c=hl.constant(1.0), omega=1.0, g_right=1.0)
        with pytest.raises(hl.UnsupportedProblemError):
            hl.quasiopt_probe(prob, levels=2, base=8)


class TestTables:
    def test_table1_smoke(self, tmp_path):
        rows = hl.table1([0.4], [2], base=50, levels=3, cache_dir=str(tmp_path))
        assert len(rows) == 1
        row = rows[0]
        assert (row.m, row.r) == (2, 0.4)
        assert row.asterisk == (not row.run.converged)
        assert math.isfinite(row.kappa)

    def test_table3_unattempted_cells(self):
        rows = hl.table3([14], [1e-8, 1e-3], base=8, levels=2)
        by_eps = {row.eps: row for row in rows}
        amps = hl.solve_analytic(hl.family(hl.UnstableFamilySpec(14, 0.5, eps=1e-8)),
                                 extended_precision=True)
        assert by_eps[1e-8].value == hl.exact_norms(amps)[0]
        assert by_eps[1e-8].run is None
        assert math.isfinite(by_eps[1e-3].value)
