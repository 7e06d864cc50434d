import json
import math
import os
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

import helmlab as hl
from helmlab import coeffs, experiments, fem, oracle, quadrature
from helmlab.quadrature import G5_T, G5_W

from conftest import nodal_l2_reference

_ROOT = Path(__file__).resolve().parents[1]


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


def _dirichlet_layers(g_right=1.0 - 0.5j):
    bp = [-1.0, -0.2, 0.5, 1.0]
    return hl.HelmholtzProblem(
        a=hl.piecewise_constant(bp, [1.0, 2.0, 0.5]),
        c=hl.piecewise_constant(bp, [1.0, 0.4, 2.0]), omega=9.0,
        bc=hl.BoundaryConfig.DIRICHLET_IMPEDANCE, g_right=g_right)


def _smooth_dirichlet_source():
    """Linear a, Smooth c, a complex source and a Dirichlet left end: array
    element data, and a right-hand side that is not e_n."""
    smooth = hl.Smooth(func=lambda x: 2.0 + np.sin(x), deriv=np.cos,
                       sign="positive")
    return hl.HelmholtzProblem(
        a=hl.from_segments([-1.0, 1.0], [hl.Linear(1.0, 3.0)]),
        c=hl.from_segments([-1.0, 1.0], [smooth]), omega=7.0,
        bc=hl.BoundaryConfig.DIRICHLET_IMPEDANCE, g_right=1.0,
        f=lambda x: np.cos(3.0 * x) + 0.5j * x)


# (problem, base, levels) of the ladder record tests
_RECORD_CASES = {
    "family-2-0.4": lambda: (hl.family(hl.UnstableFamilySpec(2, 0.4)), 20, 4),
    "family-8-0.5": lambda: (hl.family(hl.UnstableFamilySpec(8, 0.5)), 10, 5),
    "family-12-0.6-g": lambda: (hl.family(hl.UnstableFamilySpec(
        12, 0.6, g=(2.0, 0.5))), 12, 4),
    "family-10-0.5-eps": lambda: (hl.family(hl.UnstableFamilySpec(
        10, 0.5, eps=1e-6)), 16, 4),
    "dirichlet": lambda: (_dirichlet_layers(), 7, 5),
    # the free nodes' right-hand side is e_n: the estimate's handed-over
    # column sits between the solution's Dirichlet zero and its end
    "dirichlet-unit": lambda: (_dirichlet_layers(g_right=1.0), 7, 5),
    "row-interchanges": lambda: (hl.family(hl.UnstableFamilySpec(12, 0.6)), 1, 5),
    "smooth-source": lambda: (_smooth_dirichlet_source(), 9, 4),
}


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

    def test_numpy_scalar_cell_shares_the_float_cell_file(self, tmp_path):
        plain = hl.UnstableFamilySpec(2, 0.4, eps=1e-6)
        scalars = hl.UnstableFamilySpec(np.int64(2), np.float64(0.4),
                                        eps=np.float64(1e-6))
        assert scalars.cache_key() == plain.cache_key() == \
            "m2_r0.4_eps1e-06_g0j_(1+0j)"
        assert [type(scalars.m), type(scalars.r), type(scalars.eps)] == \
            [int, float, float]
        hl.run_cells([plain, scalars], base=10, levels=2, cache_dir=str(tmp_path))
        assert len(list(tmp_path.glob("*.json"))) == 1

    def test_two_writers_of_one_ladder(self, tmp_path, monkeypatch):
        # a second process stores the same ladder between the first one's
        # write and its replace: each replaces the record whole
        path = experiments._cache_path(str(tmp_path), "key", 25, 2)
        first = {"du": [1.0, 2.0], "wu": 3.0, "res": 1e-16, "cond": 10.0}
        second = {**first, "cond": 20.0}
        pids = iter([101, 202])
        monkeypatch.setattr(os, "getpid", lambda: next(pids))
        replace = os.replace

        def interleaved(src, dst):
            monkeypatch.setattr(os, "replace", replace)
            experiments._store_cached(path, second)
            replace(src, dst)

        monkeypatch.setattr(os, "replace", interleaved)
        experiments._store_cached(path, first)
        assert experiments._load_cached(path, 2) == {
            **first, "version": experiments.CACHE_VERSION}
        assert list(tmp_path.iterdir()) == [path]

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

    @pytest.mark.parametrize("case", ["estimate", "estimate-two-columns", "warm"])
    def test_level_order_and_threads(self, tmp_path, monkeypatch, case):
        spec = _LADDER_SPEC if case != "estimate-two-columns" else \
            hl.UnstableFamilySpec(_LADDER_SPEC.m, _LADDER_SPEC.r, g=(2.0, 0.5))
        prob = hl.family(spec)
        levels = _LADDER["levels"]
        kwargs = dict(_LADDER, cache_dir=str(tmp_path), cache_key=spec.cache_key())
        if case == "warm":
            hl.refine_to_convergence(prob, **kwargs)
        reference = _refine_serial_reference(prob)
        factorize, solve, solve_in_place, solve_vector, estimate, assemble = (
            fem.BandedComplexSystem.factorize, fem.solve, fem.solve_in_place,
            fem.BandedComplexSystem.solve_vector, fem.condition_estimate,
            fem.assemble)
        events = []  # (event, dimension or column count, thread)
        caller = threading.current_thread()
        solving = threading.Event()

        def record(event, size):
            events.append((event, size, threading.current_thread()))

        def recording_assemble(problem, mesh, workspace=None):
            system = assemble(problem, mesh, workspace)
            record("assemble", system.dimension)  # once it has returned
            return system

        def recording_factorize(system, workspace=None):
            if system._factors is None:
                record("factorize", system.dimension)
            return factorize(system, workspace)

        def recording_solve(system, on_solved=None, workspace=None):
            solving.set()  # the finest factors are handed over by now
            record("solve", system.dimension)
            return solve(system, on_solved, workspace)

        def recording_solve_in_place(system, workspace=None):
            record("solve_in_place", system.dimension)
            if threading.current_thread() is not caller:
                # the helper's first coarse level ends after the finest
                # factors exist, so its next start must be the estimate
                assert solving.wait(timeout=10.0)
            values = solve_in_place(system, workspace)
            assert system._factors is None
            return values

        def recording_solve_vector(system, b, overwrite_b=False):
            record("solve_vector", b.reshape(len(b), -1).shape[1])
            return solve_vector(system, b, overwrite_b)

        def recording_estimate(system, last=None, workspace=None):
            record("estimate", system.dimension)
            return estimate(system, last, workspace)

        monkeypatch.setattr(fem.BandedComplexSystem, "factorize",
                            recording_factorize)
        monkeypatch.setattr(fem.BandedComplexSystem, "solve_vector",
                            recording_solve_vector)
        monkeypatch.setattr(fem, "solve", recording_solve)
        monkeypatch.setattr(fem, "solve_in_place", recording_solve_in_place)
        monkeypatch.setattr(fem, "condition_estimate", recording_estimate)
        monkeypatch.setattr(fem, "assemble", recording_assemble)
        before = threading.active_count()
        assert hl.refine_to_convergence(prob, **kwargs) == reference
        assert threading.active_count() == before
        if case == "warm":
            # a stored ladder runs no level and starts no thread
            assert events == []
            return
        dims = [hl.build_mesh(prob, _LADDER["base"] * 2**level).n_nodes
                for level in range(levels)]
        (helper,) = {thread for *_, thread in events} - {caller}
        on = {thread: [event[:2] for event in events if event[2] is thread]
              for thread in (caller, helper)}
        # the calling thread assembles, factorizes and solves the finest
        # level; every other event of the finest level is the estimate's
        assert on[caller][:4] == [("assemble", dims[-1]), ("factorize", dims[-1]),
                                  ("solve", dims[-1]), ("solve_vector", 1)]
        # each coarse level is assembled and solved in place exactly once,
        # on one of the two threads, and each thread takes them largest first
        for thread in (caller, helper):
            done = [size for event, size in on[thread]
                    if event == "assemble" and size != dims[-1]]
            assert sorted(done, reverse=True) == done
            assert [event for event in on[thread] if event[1] in done] == [
                event for size in done
                for event in (("assemble", size), ("solve_in_place", size))]
        assert sorted(size for event, size, _ in events if event == "assemble") \
            == dims
        # the helper runs the estimate, first or right after the level it was
        # in when the finest factors came; the estimate solves e_1 alone when
        # the finest right-hand side is e_n (g = (0, 1)), else two columns
        starts = [event for event in on[helper] if event[0] in ("assemble", "estimate")]
        assert ("estimate", dims[-1]) in starts[:2]
        columns = 1 if spec.g == (0.0, 1.0) else 2
        at = on[helper].index(("estimate", dims[-1]))
        assert on[helper][at + 1] == ("solve_vector", columns)
        assert [event for event in on[caller] + on[helper]
                if event[0] in ("factorize", "solve", "solve_vector", "estimate")] \
            == on[caller][1:4] + on[helper][at:at + 2]

    @pytest.mark.parametrize("case", list(_RECORD_CASES))
    def test_record_matches_full_work_ladder(self, case):
        problem, base, levels = _RECORD_CASES[case]()
        if case == "row-interchanges":
            # zgttrf swaps rows on the coarsest level
            ipiv = hl.assemble(problem, hl.build_mesh(problem, base)).factorize()[4]
            assert np.any(ipiv != np.arange(1, len(ipiv) + 1))
        record = experiments._run_ladder(problem, base, levels)
        reference = _ladder_record_reference(problem, base, levels)
        assert record.keys() == reference.keys()
        for key in ("du", "wu", "res", "cond"):
            assert record[key] == reference[key], key

    @pytest.mark.parametrize("case", list(_RECORD_CASES) + [
        f"table1-{m}-{r}" for m in (2, 4, 6, 8, 10, 12) for r in (0.4, 0.5, 0.6)])
    def test_record_matches_complex_offdiagonal_functions(self, case):
        if case.startswith("table1"):
            _, m, r = case.split("-")
            problem, base, levels = (hl.family(hl.UnstableFamilySpec(int(m), float(r))),
                                     10, 4)
        else:
            problem, base, levels = _RECORD_CASES[case]()
        for level in range(levels):
            mesh = hl.build_mesh(problem, base * 2**level)
            system = hl.assemble(problem, mesh)
            complex_system = _assemble_complex_offdiagonal(problem, mesh)
            assert np.array_equal(system.diag, complex_system.diag)
            assert np.array_equal(system.rhs, complex_system.rhs)
            assert system.offdiag.dtype == np.float64
            assert np.array_equal(system.offdiag, complex_system.offdiag.real)
            assert not np.any(complex_system.offdiag.imag)
            solution = hl.solve(system)
            assert solution.residual == hl.solve(complex_system).residual
            assert hl.norms(solution, problem, mesh) == \
                _norms_per_end(solution, problem, mesh)
            if system.dimension > 1:
                assert hl.condition_estimate(system) == \
                    _condition_estimate_fresh_products(complex_system)
        assert experiments._run_ladder(problem, base, levels) == \
            _ladder_record_complex_offdiagonal(problem, base, levels)

    @pytest.mark.parametrize("case", ["family", "dirichlet-unit", "two-columns"])
    def test_finest_solution_handed_over_before_residual(self, monkeypatch, case):
        problem, base, levels = {
            "family": lambda: (hl.family(_LADDER_SPEC), _LADDER["base"],
                               _LADDER["levels"]),
            "dirichlet-unit": _RECORD_CASES["dirichlet-unit"],
            "two-columns": _RECORD_CASES["family-12-0.6-g"]}[case]()
        reference = _ladder_record_reference(problem, base, levels)
        solve, matvec = fem.solve, fem.BandedComplexSystem.matvec
        events = []

        def recording_solve(system, on_solved=None, workspace=None):
            def handover(x):
                events.append(("handover", x))
                on_solved(x)

            solution = solve(system, None if on_solved is None else handover, workspace)
            events.append(("solved", solution.values, system.dirichlet_left))
            return solution

        def recording_matvec(system, *args):
            if threading.current_thread() is runner:
                events.append(("residual",))
            return matvec(system, *args)

        monkeypatch.setattr(fem, "solve", recording_solve)
        monkeypatch.setattr(fem.BandedComplexSystem, "matvec", recording_matvec)
        records, runner = [], None

        def ladder():
            nonlocal runner
            runner = threading.current_thread()
            records.append(experiments._run_ladder(problem, base, levels))

        # an estimate left waiting for its column fails instead of hanging
        assert _ladder_with_deadline(ladder) is None
        assert records == [reference]
        kinds = [event[0] for event in events]
        _, values, dirichlet_left = events[-1]
        if case == "two-columns":
            assert "handover" not in kinds
            return
        # once, before the first residual row, with the free nodes' part of
        # the solution (after the Dirichlet zero, if any)
        assert kinds.count("handover") == 1 and kinds[0] == "handover"
        assert kinds[1] == "residual" and kinds[-1] == "solved"
        handed = events[0][1]
        assert dirichlet_left == (case == "dirichlet-unit")
        assert values[0] == 0.0 if dirichlet_left else values[0] != 0.0
        assert len(handed) == len(values) - dirichlet_left
        assert handed.ctypes.data == values.ctypes.data + dirichlet_left * values.itemsize
        assert np.shares_memory(handed, values)

    @pytest.mark.parametrize("case", ["family-2-0.4", "dirichlet", "smooth-source",
                                      "family-12-0.6-g"])
    def test_one_workspace_pair_serves_ladders_of_every_size(self, monkeypatch, case):
        # big, small, big again in one process: each ladder is lent bytes
        # that the one before left behind
        problem, base, levels = _RECORD_CASES[case]()
        monkeypatch.setattr(experiments, "_WORKSPACES", [])
        for size in (levels + 1, levels - 1, levels + 1):
            assert experiments._run_ladder(problem, base, size) == \
                _ladder_record_reference(problem, base, size)
        assert len(experiments._WORKSPACES) == 1

    def test_concurrent_ladders_under_fast_thread_switching(self):
        # four ladders at once, each with its helper thread, on two data
        # pairs (one-column and two-column estimates), switching threads
        # every few microseconds
        cases = [(hl.family(hl.UnstableFamilySpec(4, 0.5, g=g)), 15, 4)
                 for g in ((0.0, 1.0), (2.0, 0.5))]
        references = [_ladder_record_reference(*case) for case in cases]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                records = list(pool.map(lambda case: experiments._run_ladder(*case),
                                        cases * 4, timeout=60.0))
        finally:
            sys.setswitchinterval(interval)
        assert records == references * 4

    def test_empty_ladder_rejected(self):
        with pytest.raises(ValueError, match="at least one level"):
            hl.refine_to_convergence(hl.family(_LADDER_SPEC), levels=0)

    @pytest.mark.parametrize("fails", [
        "finest-factorize", "finest-solve", "coarse-solve", "coarse-solve-caller",
        "estimate"])
    def test_failure_surfaces_and_thread_is_joined(self, tmp_path, monkeypatch,
                                                   fails):
        prob = hl.family(_LADDER_SPEC)
        # four coarse levels when one fails on the calling thread
        base = _LADDER["base"]
        levels = _LADDER["levels"] + (fails == "coarse-solve-caller")
        finest = hl.build_mesh(prob, base * 2**(levels - 1)).n_nodes
        # the largest coarse level: the helper's first
        coarse = hl.build_mesh(prob, base * 2**(levels - 2)).n_nodes
        owner, name, dimension = {
            "finest-factorize": (fem.BandedComplexSystem, "factorize", finest),
            "finest-solve": (fem, "solve", finest),
            "coarse-solve": (fem, "solve_in_place", coarse),
            "coarse-solve-caller": (fem, "solve_in_place", None),
            "estimate": (fem, "condition_estimate", finest)}[fails]
        original, solve, estimate = (getattr(owner, name), fem.solve,
                                     fem.condition_estimate)
        caller, coarse_solves, held, estimates = None, [], [], []
        solving, holding, failed = (threading.Event() for _ in range(3))

        class Boom(Exception):
            pass

        def failing(system, *args, **kwargs):
            if dimension is None:
                coarse_solves.append(system.dimension)
                if threading.current_thread() is caller:
                    # once the helper holds a level after its estimate
                    holding.wait(timeout=10.0)
                    failed.set()
                    raise Boom(fails)
                # the helper's first coarse level ends once the finest
                # factors exist, so it runs the estimate next; its next
                # level holds until the calling thread has failed in one
                held.append(system.dimension)
                if len(held) == 1:
                    solving.wait(timeout=10.0)
                else:
                    holding.set()
                    failed.wait(timeout=10.0)
            elif system.dimension == dimension:
                if fails == "coarse-solve":
                    # raise once the estimate is queued
                    holding.set()
                    solving.wait(timeout=10.0)
                raise Boom(fails)
            return original(system, *args, **kwargs)

        def signalling_solve(system, on_solved=None, workspace=None):
            solving.set()
            if fails == "coarse-solve":
                # the helper, not this thread, takes the failing level
                holding.wait(timeout=10.0)
            return solve(system, on_solved, workspace)

        def recording_estimate(*args, **kwargs):
            estimates.append(threading.current_thread())
            return estimate(*args, **kwargs)

        def ladder():
            nonlocal caller
            caller = threading.current_thread()
            hl.refine_to_convergence(prob, base=base, levels=levels,
                                     cache_dir=str(tmp_path),
                                     cache_key=_LADDER_SPEC.cache_key())

        pair = (fem.Workspace(), fem.Workspace())
        monkeypatch.setattr(experiments, "_WORKSPACES", [pair])
        monkeypatch.setattr(owner, name, failing)
        if fails.startswith("coarse-solve"):
            monkeypatch.setattr(fem, "solve", signalling_solve)
        if fails == "coarse-solve":
            monkeypatch.setattr(fem, "condition_estimate", recording_estimate)
        before = threading.active_count()
        error = _ladder_with_deadline(ladder)
        assert isinstance(error, Boom) and error.args == (fails,)
        assert threading.active_count() == before
        # a ladder that failed is not stored
        assert list(tmp_path.iterdir()) == []
        if dimension is None:
            # the helper's two levels and the failed one: the fourth coarse
            # level never starts, on either thread
            assert failed.is_set() and len(coarse_solves) == 3, coarse_solves
        if fails == "coarse-solve":
            # an estimate not yet started never runs after a failure
            assert holding.is_set() and estimates == []
        # the failed ladder's workspaces are back, and serve the next ladder
        assert experiments._WORKSPACES == [pair]  # Workspaces compare by identity
        for patched, attr, unpatched in ((owner, name, original), (fem, "solve", solve),
                                         (fem, "condition_estimate", estimate)):
            monkeypatch.setattr(patched, attr, unpatched)
        assert experiments._run_ladder(prob, base, levels) == \
            _ladder_record_reference(prob, base, levels)
        assert experiments._WORKSPACES == [pair]

    def test_failed_finest_solve_releases_the_waiting_estimate(self, monkeypatch):
        # g = (0, 1): the estimate waits on the finest solution as its
        # column, and the finest solve raises once it waits
        prob, base, levels = hl.family(_LADDER_SPEC), _LADDER["base"], _LADDER["levels"]
        estimate = fem.condition_estimate
        columns, waiting = [], threading.Event()

        class Boom(Exception):
            pass

        class Awaited:
            """The column's Future, signalling when the estimate waits on it."""

            def __init__(self, last):
                self.last = last

            def result(self):
                waiting.set()
                return self.last.result()

        def recording_estimate(system, last=None, workspace=None):
            columns.append(last)
            return estimate(system, Awaited(last), workspace)

        def failing_solve(system, on_solved=None, workspace=None):
            assert waiting.wait(timeout=10.0)
            raise Boom("finest")

        monkeypatch.setattr(fem, "condition_estimate", recording_estimate)
        monkeypatch.setattr(fem, "solve", failing_solve)
        before = threading.active_count()
        try:
            error = _ladder_with_deadline(
                lambda: experiments._run_ladder(prob, base, levels))
        finally:
            for last in columns:
                last.cancel()  # a ladder that joins first fails, not hangs
        assert isinstance(error, Boom) and error.args == ("finest",)
        assert len(columns) == 1
        assert threading.active_count() == before

    def test_failed_finest_level_cancels_the_coarse_levels(self, monkeypatch):
        # five coarse levels are queued when the finest factorize raises; the
        # first coarse solve holds until then and a little longer, so that
        # only a coarse level already running may finish
        prob, base, levels = hl.family(_LADDER_SPEC), _LADDER["base"], 6
        finest = hl.build_mesh(prob, base * 2**(levels - 1)).n_nodes
        factorize, solve_in_place = (fem.BandedComplexSystem.factorize,
                                     fem.solve_in_place)
        failed = threading.Event()
        calls = []

        class Boom(Exception):
            pass

        def failing_factorize(system, workspace=None):
            if system.dimension == finest:
                failed.set()
                raise Boom("finest")
            return factorize(system, workspace)

        def held_solve_in_place(system, workspace=None):
            calls.append(system.dimension)
            failed.wait(timeout=10.0)
            time.sleep(0.2)
            return solve_in_place(system, workspace)

        monkeypatch.setattr(fem.BandedComplexSystem, "factorize", failing_factorize)
        monkeypatch.setattr(fem, "solve_in_place", held_solve_in_place)
        before = threading.active_count()
        error = _ladder_with_deadline(
            lambda: experiments._run_ladder(prob, base, levels))
        assert isinstance(error, Boom) and error.args == ("finest",)
        assert len(calls) <= 1, calls
        assert threading.active_count() == before

    def test_parallel_matches_serial(self, tmp_path):
        specs = [hl.UnstableFamilySpec(2, r) for r in (0.4, 0.5)]
        serial = hl.run_cells(specs, base=50, levels=2, jobs=1)
        parallel = hl.run_cells(specs, base=50, levels=2, jobs=2)
        assert [r.value for r in serial] == [r.value for r in parallel]
        assert [(r.m, r.r) for r in parallel] == [(2, 0.4), (2, 0.5)]


_LADDER_SPEC = hl.UnstableFamilySpec(2, 0.4)
_LADDER = dict(base=20, levels=4)


def _ladder_with_deadline(ladder, timeout=30.0):
    """Call ladder() on a daemon thread of its own, so that a deadlock fails
    the test instead of hanging it; returns the exception it raised, or
    None."""
    outcome = []

    def run():
        try:
            ladder()
        except Exception as exc:
            outcome.append(exc)

    runner = threading.Thread(target=run, daemon=True)
    runner.start()
    runner.join(timeout=timeout)
    assert not runner.is_alive(), "the ladder did not return"
    return outcome[0] if outcome else None


def _ladder_record_reference(problem, base, levels):
    """The ladder's cache record with every level factorized, solved with
    its residual and normed, coarsest first, and the finest system's
    condition estimate computed last on the calling thread."""
    du = []
    for level in range(levels):
        mesh = hl.build_mesh(problem, base * 2**level)
        system = hl.assemble(problem, mesh)
        system.factorize()
        solution = hl.solve(system)
        du_level, wu, _energy = hl.norms(solution, problem, mesh)
        du.append(float(du_level))
    return {"du": du, "wu": float(wu), "res": solution.residual,
            "cond": hl.condition_estimate(system)}


def _assemble_complex_offdiagonal(problem, mesh):
    """`fem.assemble` with a complex off-diagonal, each end node's term
    computed on its own."""
    om = problem.omega
    n = mesh.n_nodes
    diag = np.zeros(n, dtype=complex)
    diag_re = diag.real
    offdiag = np.empty(n - 1, dtype=complex)
    rhs = np.zeros(n, dtype=complex)
    for lo, k in quadrature._leaf_runs(n - 1):
        hi = lo + k
        x = mesh.nodes[lo:hi + 1]
        h = x[1:] - x[:-1]
        left, right, off = diag_re[lo:hi], diag_re[lo + 1:hi + 1], offdiag[lo:hi]
        for sl, a_mean, p00, p01, p11 in fem._element_data(problem, mesh, lo, hi):
            kdiag = a_mean / h[sl]
            om2h = om**2 * h[sl]
            left[sl] += kdiag - om2h * p00
            right[sl] += kdiag - om2h * p11
            off[sl] = -kdiag - om2h * p01
        if problem.f is not None:
            xg = x[:-1, None] + h[:, None] * G5_T[None, :]
            fg = np.asarray(problem.f(xg.ravel()), dtype=complex).reshape(xg.shape)
            rhs[lo:hi] += h * ((fg * (1.0 - G5_T)) @ G5_W)
            rhs[lo + 1:hi + 1] += h * ((fg * G5_T) @ G5_W)
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


def _norms_per_end(solution, problem, mesh):
    """`fem.norms` with |u|^2 taken separately at each element's ends."""
    u = solution.values
    nodes = mesh.nodes

    def leaf_sums(lo, k):
        hi = lo + k
        h = nodes[lo + 1:hi + 1] - nodes[lo:hi]
        ul, ur = u[lo:hi], u[lo + 1:hi + 1]
        slope2 = np.abs(ur - ul) ** 2 / h
        ul2, ur2 = np.abs(ul) ** 2, np.abs(ur) ** 2
        cross = 2.0 * (ul * np.conj(ur)).real
        mass, a_slope2 = np.empty(k), np.empty(k)
        for sl, a_mean, p00, p01, p11 in fem._element_data(problem, mesh, lo, hi):
            mass[sl] = h[sl] * (ul2[sl] * p00 + cross[sl] * p01 + ur2[sl] * p11)
            a_slope2[sl] = a_mean * slope2[sl]
        return np.array([np.sum(slope2), np.sum(mass), np.sum(a_slope2)])

    du2, mass2, energy_du2 = quadrature._pairwise_tree(leaf_sums, 0,
                                                       mesh.n_nodes - 1)
    wu2 = float(problem.omega**2 * mass2)
    energy2 = float(energy_du2) + wu2
    return np.sqrt(float(du2)), np.sqrt(wu2), np.sqrt(energy2)


def _condition_estimate_fresh_products(system):
    """`fem.condition_estimate` of the two-column solve, with fresh arrays
    for its products and ||A||_1 taken last."""
    n = system.dimension
    cols = np.zeros((n, 2), dtype=complex, order="F")
    cols[0, 0] = cols[-1, 1] = 1.0
    system.solve_vector(cols, overwrite_b=True)
    mags = np.abs(cols)
    first, last = mags[:, 0], mags[:, 1]
    col_norms = first * np.cumsum(last)
    col_norms[:-1] += last[:-1] * np.cumsum(first[::-1])[-2::-1]
    return system.norm1() * float(col_norms.max() / first[-1])


def _ladder_record_complex_offdiagonal(problem, base, levels):
    """`_ladder_record_reference` on the three functions above."""
    du = []
    for level in range(levels):
        mesh = hl.build_mesh(problem, base * 2**level)
        system = _assemble_complex_offdiagonal(problem, mesh)
        solution = hl.solve(system)
        du_level, wu, _energy = _norms_per_end(solution, problem, mesh)
        du.append(float(du_level))
    return {"du": du, "wu": float(wu), "res": solution.residual,
            "cond": _condition_estimate_fresh_products(system)}


def _refine_serial_reference(problem, base=_LADDER["base"],
                             levels=_LADDER["levels"], sigfigs=4):
    """`refine_to_convergence` on `_ladder_record_reference`."""
    record = _ladder_record_reference(problem, base, levels)
    values = record["du"]
    tail = [f"%.{sigfigs - 1}e" % v for v in values[-3:]]
    converged = len(values) >= 3 and tail[0] == tail[1] == tail[2]
    return hl.RefinementRun(tuple(values), converged,
                            hl.round_sig(values[-1], sigfigs), record["cond"],
                            record["res"], record["wu"])


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


def _energy_errors_one_shot(problem, mesh, amps, u_fem, u_interp, n_gauss=5):
    """Reference for the energy errors of `experiments._level_errors`: the
    weighted-norm errors by n-point Gauss quadrature on every element, the
    whole grid of the level at once, one `np.sum` per term."""
    t, w = np.polynomial.legendre.leggauss(n_gauss)
    t, w = 0.5 * (t + 1.0), 0.5 * w
    nodes = mesh.nodes
    h = mesh.widths
    xl = nodes[:-1]
    mid = 0.5 * (nodes[:-1] + nodes[1:])
    a_e = problem.a.values(mid)
    c_e = problem.c.values(mid)
    om = problem.omega
    wg = h[:, None] * w[None, :]
    x_gauss = xl[:, None] + h[:, None] * t[None, :]
    u_ex, du_ex = amps.eval(x_gauss), amps.deriv(x_gauss)

    def error(nodal_values):
        ul = nodal_values[:-1][:, None]
        ur = nodal_values[1:][:, None]
        u_h = ul * (1.0 - t)[None, :] + ur * t[None, :]
        du_h = (ur - ul) / h[:, None]
        err2 = np.sum(a_e[:, None] * wg * np.abs(du_ex - du_h) ** 2) \
            + np.sum((om / c_e[:, None]) ** 2 * wg * np.abs(u_ex - u_h) ** 2)
        return float(np.sqrt(err2))

    return error(u_fem), error(u_interp)


def _reference_probe(problem, levels, base, n_gauss=5):
    """Reference probe, level by level, with Gauss-point energy errors."""
    amps = hl.solve_analytic(problem)
    energy_fem, energy_interp, nodal = [], [], []
    for level in range(levels):
        mesh = hl.build_mesh(problem, base * 2**level)
        u_h = hl.solve_problem(problem, mesh)[0].values
        u_nodes = amps.eval(mesh.nodes)
        e_fem, e_interp = _energy_errors_one_shot(problem, mesh, amps, u_h,
                                                  u_nodes, n_gauss)
        energy_fem.append(e_fem)
        energy_interp.append(e_interp)
        nodal.append(nodal_l2_reference(mesh, u_nodes, u_h))
    return hl.QuasiOptimalityProbe(tuple(range(levels)), tuple(energy_fem),
                                   tuple(energy_interp), tuple(nodal))


def _level_errors_reference(problem, amps, n_elements):
    """`experiments._level_errors` with a per-point layer lookup instead:
    the oracle at every mesh node in one `eval` call, and at each layer's
    element midpoints by `eval` and `deriv`."""

    def real_dot(x, y):
        # Re(sum conj(x) y) over the interleaved parts, by numpy's pairwise sum
        return float(np.sum(x.view(float) * y.view(float)))

    mesh = hl.build_mesh(problem, n_elements)
    u_h = fem.solve_in_place(fem.assemble(problem, mesh))
    u_nodes = amps.eval(mesh.nodes)
    interp2 = excess2 = nodal2 = 0.0
    for j, (a, c, k) in enumerate(zip(amps.a, amps.c, amps.k)):
        own = mesh.elements_of(j)
        x = mesh.nodes[own.start:own.stop + 1]
        h = (x[-1] - x[0]) / mesh.per_segment
        dp2, dq2, p2, q2, p1, tq = experiments._layer_weights(k, h)
        mid = 0.5 * (x[:-1] + x[1:])
        s, du = amps.eval(mid), amps.deriv(mid)
        d = u_nodes[own.start:own.stop + 1] - u_h[own.start:own.stop + 1]
        e, o = 0.5 * (d[:-1] + d[1:]), np.diff(d)
        s2, du2, e2, o2 = (real_dot(z, z) for z in (s, du, e, o))
        mass_weight = (problem.omega / c) ** 2
        interp2 += a * (s2 * dp2 + du2 * dq2) + mass_weight * (s2 * p2 + du2 * q2)
        excess2 += a * o2 / h + mass_weight * (h * (e2 + o2 / 12.0) + 2.0 * (
            real_dot(s, e) * p1 + real_dot(du, o) * tq / h))
        nodal2 += h * (e2 + o2 / 4.0)
    return (float(np.sqrt(interp2 + excess2)), float(np.sqrt(interp2)),
            float(np.sqrt(nodal2)))


def _probe_case(name):
    """(problem, base, levels) of the probe tests' cases."""
    if name == "family":
        return hl.family(hl.UnstableFamilySpec(2, 0.4)), 50, 3
    if name == "family_default":
        return hl.family(hl.UnstableFamilySpec(2, 0.4)), 800, 7
    if name == "homogeneous":
        return hl.HelmholtzProblem(a=hl.constant(1.0), c=hl.constant(1.0),
                                   omega=2.0, g_right=1.0), 8, 4
    bp = [-1.0, -0.3, 0.4, 1.0]
    return hl.HelmholtzProblem(
        a=hl.piecewise_constant(bp, [1.0, 2.5, 0.6]),
        c=hl.piecewise_constant(bp, [1.0, 0.7, 1.4]), omega=6.0,
        bc=hl.BoundaryConfig.DIRICHLET_IMPEDANCE, g_right=1.0 - 0.5j), 8, 4


_PROBE_CASES = ["family", "homogeneous", "dirichlet", "family_default"]


def _assert_probes_close(probe, reference, rtol):
    assert probe.levels == reference.levels
    # the probe sums the nodal l2 error layer by layer from uniform widths,
    # the reference node by node from the mesh's widths: round-off apart
    np.testing.assert_allclose(probe.nodal_l2_errors, reference.nodal_l2_errors,
                               rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(probe.energy_errors, reference.energy_errors,
                               rtol=rtol, atol=0.0)
    np.testing.assert_allclose(probe.interp_errors, reference.interp_errors,
                               rtol=rtol, atol=0.0)


def _mp_layer_weights(k, h):
    """The six element integrals of `experiments._layer_weights` by mpmath
    quadrature of their integrands; the caller sets the precision."""
    k, h = mp.mpf(k), mp.mpf(h)
    s, c = mp.sin(k * h / 2), mp.cos(k * h / 2)

    def p(t):
        return mp.cos(k * t) - c

    def q(t):
        return (mp.sin(k * t) - 2 * t / h * s) / k

    integrands = (lambda t: (k * mp.sin(k * t)) ** 2,
                  lambda t: (mp.cos(k * t) - 2 * s / (k * h)) ** 2,
                  lambda t: p(t) ** 2, lambda t: q(t) ** 2, p,
                  lambda t: t * q(t))
    return [mp.quad(f, [-h / 2, h / 2]) for f in integrands]


# theta = kh/2 from where the trig forms lose every digit to both sides of
# the series crossover
_WEIGHT_THETAS = tuple(np.geomspace(1e-8, 3.0, 12)) + (
    np.nextafter(experiments._SERIES_BELOW, 0.0), experiments._SERIES_BELOW)
_WEIGHT_THETA_IDS = [f"{t:.3g}" for t in _WEIGHT_THETAS[:-2]] + [
    "below_crossover", "at_crossover"]


class TestQuasiOpt:
    @pytest.mark.parametrize("name", _PROBE_CASES)
    def test_probe_matches_gauss_reference(self, name):
        prob, base, levels = _probe_case(name)
        _assert_probes_close(hl.quasiopt_probe(prob, levels=levels, base=base),
                             _reference_probe(prob, levels, base), 1e-11)

    @pytest.mark.parametrize("name", _PROBE_CASES)
    def test_level_errors_match_lookup_reference(self, name):
        prob, base, levels = _probe_case(name)
        amps = hl.solve_analytic(prob)
        for level in range(levels):
            n = base * 2**level
            assert experiments._level_errors(prob, amps, n) == \
                _level_errors_reference(prob, amps, n), level

    @pytest.mark.parametrize("name", ["family", "dirichlet"])
    def test_probe_looks_up_no_point(self, monkeypatch, name):
        # the mesh states which layer owns each element, so no point of the
        # probe is searched for in the partition
        prob, base, levels = _probe_case(name)

        def refuse(*args, **kwargs):
            raise AssertionError("segment_of called")

        monkeypatch.setattr(coeffs, "segment_of", refuse)
        monkeypatch.setattr(oracle, "segment_of", refuse)
        probe = hl.quasiopt_probe(prob, levels=levels, base=base)
        assert len(probe.energy_errors) == levels

    @pytest.mark.parametrize("bp", [[-1.0, -0.3, 0.401, 1.0], [-1.0, 0.4, 1.0]],
                             ids=["moved", "fewer_layers"])
    def test_level_errors_need_the_mesh_partition(self, bp):
        prob, _, _ = _probe_case("dirichlet")
        ones = np.ones(len(bp) - 1)
        other = hl.HelmholtzProblem(
            a=hl.piecewise_constant(bp, ones), c=hl.piecewise_constant(bp, ones),
            omega=prob.omega, bc=prob.bc, g_right=prob.g_right)
        with pytest.raises(ValueError, match="different partitions"):
            experiments._level_errors(prob, hl.solve_analytic(other), 4)

    def test_coarse_probe_matches_20_point_gauss(self):
        # two elements per subinterval put theta = kh/2 on both sides of the
        # series crossover, where 5 Gauss points are off by up to 6e-9
        prob, _, levels = _probe_case("dirichlet")
        amps = hl.solve_analytic(prob)
        theta = 0.5 * amps.k * (amps.widths / 2)
        assert theta.min() < experiments._SERIES_BELOW < theta.max()
        _assert_probes_close(hl.quasiopt_probe(prob, levels=levels, base=2),
                             _reference_probe(prob, levels, 2, n_gauss=20),
                             1e-11)

    @pytest.mark.parametrize("theta", _WEIGHT_THETAS,
                             ids=_WEIGHT_THETA_IDS)
    def test_layer_weights_match_mpmath(self, theta):
        # k = 3 tells the powers of k apart
        k = 3.0
        h = 2.0 * theta / k
        weights = experiments._layer_weights(k, h)
        # 110 digits keep 50 through the cancellation in the integrands
        with mp.workdps(110):
            reference = _mp_layer_weights(k, h)
            for got, want in zip(weights, reference):
                assert abs((got - want) / want) < 1e-11, (theta, got, want)

    def test_fem_runs_on_calling_thread_largest_level_first(self, monkeypatch):
        # every fem call of the probe runs on the calling thread, largest
        # level first; the error sums run once per level, on the calling
        # thread or the one helper, and the helper is gone afterwards
        calls, summed = [], []

        def recording(name, size):
            original = getattr(fem, name)

            def call(*args):
                calls.append((name, size(*args), threading.current_thread()))
                return original(*args)

            monkeypatch.setattr(fem, name, call)

        recording("build_mesh", lambda problem, n_elements: n_elements)
        recording("assemble", lambda problem, mesh: mesh.n_nodes)
        recording("solve_in_place", lambda system: system.dimension)
        error_sums = experiments._error_sums

        def recording_sums(problem, amps, mesh, *arrays):
            summed.append((mesh.n_nodes, threading.current_thread()))
            return error_sums(problem, amps, mesh, *arrays)

        monkeypatch.setattr(experiments, "_error_sums", recording_sums)
        before = threading.active_count()
        prob, base, levels = _probe_case("family")
        main = threading.current_thread()
        probe = hl.quasiopt_probe(prob, levels=levels, base=base)
        assert threading.active_count() == before
        recorded, summed_levels = calls[:], summed[:]
        n_elements = [base * 2**level for level in reversed(range(levels))]
        n_nodes = [hl.build_mesh(prob, n).n_nodes for n in n_elements]
        assert recorded == [call for n, nodes in zip(n_elements, n_nodes)
                            for call in (("build_mesh", n, main),
                                         ("assemble", nodes, main),
                                         ("solve_in_place", nodes, main))]
        assert sorted(n for n, _ in summed_levels) == sorted(n_nodes)
        assert len({thread for _, thread in summed_levels} - {main}) <= 1
        amps = hl.solve_analytic(prob)
        for level in range(levels):
            record = (probe.energy_errors[level], probe.interp_errors[level],
                      probe.nodal_l2_errors[level])
            assert record == experiments._level_errors(prob, amps,
                                                       base * 2**level), level

    def test_next_solve_overlaps_the_finest_sums(self, monkeypatch):
        # the finest level's error sums wait on the next level's solve, so
        # a probe that summed each level before solving the next would time
        # out here
        prob, base, levels = _probe_case("family")
        finest = hl.build_mesh(prob, base * 2**(levels - 1)).n_nodes
        solve_in_place, error_sums = fem.solve_in_place, experiments._error_sums
        next_solved, waited = threading.Event(), []

        def signalling_solve(system):
            coarser = system.dimension < finest
            u_h = solve_in_place(system)
            if coarser:
                next_solved.set()
            return u_h

        def waiting_sums(problem, amps, mesh, *arrays):
            if mesh.n_nodes == finest:
                waited.append(next_solved.wait(timeout=10.0))
            return error_sums(problem, amps, mesh, *arrays)

        monkeypatch.setattr(fem, "solve_in_place", signalling_solve)
        monkeypatch.setattr(experiments, "_error_sums", waiting_sums)
        assert _ladder_with_deadline(
            lambda: hl.quasiopt_probe(prob, levels=levels, base=base)) is None
        assert waited == [True]

    def test_failed_finest_solve_starts_nothing(self, monkeypatch):
        prob, base, levels = _probe_case("family")
        finest = hl.build_mesh(prob, base * 2**(levels - 1)).n_nodes
        solves, summed = [], []

        class Boom(Exception):
            pass

        def failing_solve(system):
            solves.append(system.dimension)
            raise Boom("finest")

        def recording_sums(problem, amps, mesh, *arrays):
            summed.append(mesh.n_nodes)

        monkeypatch.setattr(fem, "solve_in_place", failing_solve)
        monkeypatch.setattr(experiments, "_error_sums", recording_sums)
        before = threading.active_count()
        error = _ladder_with_deadline(
            lambda: hl.quasiopt_probe(prob, levels=levels, base=base))
        assert isinstance(error, Boom) and error.args == ("finest",)
        assert solves == [finest] and summed == []
        assert threading.active_count() == before

    def test_failed_finest_sums_stop_the_probe(self, monkeypatch):
        # the finest level's error sums raise on the helper once two more
        # levels are queued behind them and the solve after those has
        # started, which holds until then and a little longer: no further
        # level is solved, and no other job starts
        prob, base, levels = _probe_case("family")[0], 50, 5
        n_nodes = [hl.build_mesh(prob, base * 2**level).n_nodes
                   for level in reversed(range(levels))]
        solve_in_place, error_sums = fem.solve_in_place, experiments._error_sums
        solving, failing = threading.Event(), threading.Event()
        solves, summed, caller = [], [], []

        class Boom(Exception):
            pass

        def held_solve(system):
            solves.append(system.dimension)
            if system.dimension == n_nodes[3]:
                solving.set()
                failing.wait(timeout=10.0)
                time.sleep(0.2)
            return solve_in_place(system)

        def failing_sums(problem, amps, mesh, *arrays):
            summed.append((mesh.n_nodes, threading.current_thread()))
            if mesh.n_nodes == n_nodes[0]:
                solving.wait(timeout=10.0)
                failing.set()
                raise Boom("finest sums")
            return error_sums(problem, amps, mesh, *arrays)

        def probe():
            caller.append(threading.current_thread())
            hl.quasiopt_probe(prob, levels=levels, base=base)

        monkeypatch.setattr(fem, "solve_in_place", held_solve)
        monkeypatch.setattr(experiments, "_error_sums", failing_sums)
        before = threading.active_count()
        error = _ladder_with_deadline(probe)
        assert isinstance(error, Boom) and error.args == ("finest sums",)
        assert failing.is_set()
        assert solves == n_nodes[:4]
        # on the helper, and the two levels queued behind it never summed
        assert len(summed) == 1 and summed[0][1] is not caller[0], summed
        assert threading.active_count() == before

    def test_concurrent_probes_under_fast_thread_switching(self):
        # four probes at once, each with its helper thread, switching threads
        # every few microseconds: every level is summed exactly once, by
        # whichever thread takes it, into the record one thread gives
        cases = [(_probe_case("family")[0], 50, 5), _probe_case("dirichlet")]
        references = []
        for prob, base, levels in cases:
            amps = hl.solve_analytic(prob)
            errors = [experiments._level_errors(prob, amps, base * 2**level)
                      for level in range(levels)]
            references.append(hl.QuasiOptimalityProbe(tuple(range(levels)),
                                                      *zip(*errors)))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                probes = list(pool.map(
                    lambda case: hl.quasiopt_probe(case[0], levels=case[2],
                                                   base=case[1]),
                    cases * 4, timeout=60.0))
        finally:
            sys.setswitchinterval(interval)
        assert probes == references * 4

    def test_records_independent_of_blas_threads(self):
        # the error sums make no BLAS call, so OpenBLAS's thread count moves
        # no bit of the records
        script = ("import helmlab as hl\n"
                  "problem = hl.family(hl.UnstableFamilySpec(2, 0.4))\n"
                  "print(repr(hl.quasiopt_probe(problem, levels=7, base=800)))\n")
        outputs = []
        for threads in ("1", "2"):
            result = subprocess.run(
                [sys.executable, "-c", script], cwd=_ROOT, capture_output=True,
                text=True, timeout=120.0, env={**os.environ, "PYTHONPATH": "src",
                                              "OPENBLAS_NUM_THREADS": threads})
            assert result.returncode == 0, result.stderr
            outputs.append(result.stdout)
        assert outputs[0] == outputs[1]

    def test_probe_carries_the_reference_flag(self, monkeypatch):
        prob, base, _ = _probe_case("family")
        assert not hl.quasiopt_probe(prob, levels=2, base=base).flagged
        monkeypatch.setattr(oracle, "RESIDUAL_FLAG_LEVEL", 0.0)
        assert hl.solve_analytic(prob).flagged
        assert hl.quasiopt_probe(prob, levels=2, base=base).flagged

    def test_no_boundary_data_rejected(self):
        prob = hl.family(hl.UnstableFamilySpec(2, 0.4, g=(0.0, 0.0)))
        with pytest.raises(ValueError, match="nonzero boundary data"):
            hl.quasiopt_probe(prob, levels=2, base=8)

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
