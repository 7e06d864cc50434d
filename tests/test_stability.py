import math

import numpy as np
import pytest

import helmlab as hl
from helmlab import stability
from helmlab.stability import PartitionMismatchError

from conftest import random_coefficient, random_mixed_coefficient, sine_coefficient

BC = hl.BoundaryConfig


def example1_pattern(ncells=7, cmin=0.5, cmax=2.0):
    """a = 1 and c alternating cmax (odd cells) / cmin (even cells)."""
    bp = np.linspace(-1.0, 1.0, ncells + 1)
    vals = [cmax if j % 2 == 0 else cmin for j in range(ncells)]
    return hl.constant(1.0), hl.piecewise_constant(bp, vals)


class TestJumpFactors:
    def test_continuous_increasing_all_one(self):
        a = hl.from_segments([-1.0, 0.0, 1.0],
                             [hl.Linear(1.0, 2.0), hl.Linear(2.0, 3.0)])
        c = hl.from_segments([-1.0, 0.0, 1.0],
                             [hl.Linear(1.0, 1.5), hl.Linear(1.5, 2.0)])
        fac = hl.jump_factors(a, c, a.tilde(), c.tilde())
        assert np.all(fac.alpha == 1.0)
        assert np.all(fac.sigma == 1.0)
        assert np.all(fac.gamma == 1.0)

    def test_alternating_speed_pattern(self):
        a, c = example1_pattern()
        a, c = hl.on_common_partition(a, c)
        fac = hl.jump_factors(a, c, a.tilde(), c.tilde())
        ratio2 = (2.0 / 0.5) ** 2
        for j in range(1, c.n_segments):  # interior breakpoint j
            if j % 2 == 1:  # cmax cell -> cmin cell
                assert fac.sigma[j - 1] == pytest.approx(ratio2, rel=1e-14)
                assert fac.gamma[j - 1] == 1.0
            else:
                assert fac.sigma[j - 1] == 1.0
                assert fac.gamma[j - 1] == pytest.approx(ratio2, rel=1e-14)
            assert fac.alpha[j - 1] == 1.0

    def test_oscillating_diffusion_pattern(self):
        # a = 2 + sin(m pi x), c = 1: the envelope drops from peak 3 to
        # trough 1 exactly at even-index breakpoints
        m = 4
        a = sine_coefficient(m)
        c = hl.constant(1.0)
        a2, c2 = hl.on_common_partition(a, c)
        fac = hl.jump_factors(a2, c2, a2.tilde(), c2.tilde())
        for j in range(1, a2.n_segments):
            if j % 2 == 0:
                assert fac.alpha[j - 1] == pytest.approx(3.0, rel=1e-12)
            else:
                assert fac.alpha[j - 1] == pytest.approx(1.0, abs=1e-12)
            assert fac.sigma[j - 1] == 1.0
            assert fac.gamma[j - 1] == pytest.approx(1.0, rel=1e-12)

    def test_partition_mismatch(self):
        a = hl.constant(1.0)
        c = hl.piecewise_constant([-1.0, 0.0, 1.0], [1.0, 2.0])
        with pytest.raises(PartitionMismatchError):
            hl.jump_factors(a, c, a.tilde(), c.tilde())


class TestBuildQ:
    def test_unit_coefficients(self):
        a = hl.constant(1.0)
        c = hl.constant(1.0)
        q = hl.build_q(a, c)
        assert np.array_equal(q.A, [0.0])
        xs = np.linspace(-1.0, 1.0, 41)
        assert np.allclose(q.values(xs), xs + 1.0, rtol=0, atol=1e-15)
        assert q.end_value() == pytest.approx(2.0, abs=0.0)

    def test_single_jump_recursion(self):
        # a = 1; c = 2 on (-1, 0), 1 on (0, 1):
        # I_1 = 1/4, alpha = gamma = 1, sigma = 4 => A_2 = 1, q(1) = 2
        a = hl.constant(1.0)
        c = hl.piecewise_constant([-1.0, 0.0, 1.0], [2.0, 1.0])
        q = hl.build_q(a, c)
        assert q.A == pytest.approx([0.0, 1.0], abs=0.0)
        assert q.end_value() == pytest.approx(2.0, abs=0.0)

    def test_family_matches_high_precision_recursion(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        prob = hl.family(hl.UnstableFamilySpec(2, 0.5))
        q = hl.build_q(prob.a, prob.c)
        # independent recursion on exact rationals of the same breakpoints
        c_vals = [mp.mpf(s.value) for s in prob.c.segments]
        bp = [mp.mpf(x) for x in prob.partition]
        A = [mp.mpf(0)]
        for j in range(1, len(c_vals)):
            sigma = max(c_vals[j - 1] ** 2 / c_vals[j] ** 2, mp.mpf(1))
            gamma = max(c_vals[j] ** 2 / c_vals[j - 1] ** 2, mp.mpf(1))
            I = (bp[j] - bp[j - 1]) / c_vals[j - 1] ** 2
            A.append(sigma * gamma * (I + A[-1]))
        qL = c_vals[-1] ** 2 * ((bp[-1] - bp[-2]) / c_vals[-1] ** 2 + A[-1])
        assert np.allclose(q.A, [float(v) for v in A], rtol=1e-13)
        assert q.end_value() == pytest.approx(float(qL), rel=1e-13)

    def test_A_nondecreasing(self, rng):
        for _ in range(50):
            a = random_coefficient(rng)
            c = random_coefficient(rng)
            q = hl.build_q(a, c)
            assert q.A[0] == 0.0
            assert np.all(np.diff(q.A) >= -1e-15)

    def test_q_vanishes_left_and_increases(self, rng):
        for _ in range(20):
            a = random_coefficient(rng)
            c = random_coefficient(rng)
            q = hl.build_q(a, c)
            xs = np.linspace(-1.0, 1.0, 101)
            vals = q.values(xs)
            assert vals[0] == pytest.approx(0.0, abs=1e-14)
            seg = q.a.segment_index(xs)
            same = seg[1:] == seg[:-1]  # q may jump down across breakpoints
            assert np.all(np.diff(vals)[same] >= -1e-12)


class TestQSup:
    def test_unit_pure_impedance(self):
        q = hl.build_q(hl.constant(1.0), hl.constant(1.0))
        assert hl.q_sup(q, BC.PURE_IMPEDANCE) == pytest.approx(1.0, abs=0.0)

    def test_unit_dirichlet_cases(self):
        q = hl.build_q(hl.constant(1.0), hl.constant(1.0))
        assert hl.q_sup(q, BC.DIRICHLET_IMPEDANCE) == pytest.approx(2.0, abs=0.0)
        assert hl.q_sup(q, BC.IMPEDANCE_DIRICHLET) == pytest.approx(2.0, abs=0.0)

    def test_single_jump(self):
        a = hl.constant(1.0)
        c = hl.piecewise_constant([-1.0, 0.0, 1.0], [2.0, 1.0])
        q = hl.build_q(a, c)
        assert hl.q_sup(q, BC.DIRICHLET_IMPEDANCE) == pytest.approx(2.0, abs=0.0)

    def test_partition_refinement_invariance(self, rng):
        for _ in range(30):
            a = random_coefficient(rng)
            c = random_coefficient(rng)
            q1 = hl.q_sup(hl.build_q(a, c), BC.PURE_IMPEDANCE)
            mid = 0.5 * (a.breakpoints[0] + a.breakpoints[1])
            a_ref = hl.refine(a, np.sort(np.append(a.breakpoints, mid)))
            q2 = hl.q_sup(hl.build_q(a_ref, c), BC.PURE_IMPEDANCE)
            assert q2 == pytest.approx(q1, rel=1e-10)


class TestQBound:
    def test_unit_coefficients(self):
        a = hl.constant(1.0)
        c = hl.constant(1.0)
        assert hl.q_bound(a, c, BC.PURE_IMPEDANCE) == pytest.approx(1.0, abs=0.0)
        assert hl.q_bound(a, c, BC.DIRICHLET_IMPEDANCE) == pytest.approx(2.0)

    def test_oscillating_product_bound(self):
        # 2L (a_max/a_min) * 3^m for the sine diffusion with c = 1
        m = 4
        a = sine_coefficient(m)
        c = hl.constant(1.0)
        bound = hl.q_product_bound(a, c, BC.DIRICHLET_IMPEDANCE)
        assert bound == pytest.approx(6.0 * 3.0**m, rel=1e-9)

    def test_monotone_product_bound(self):
        a = hl.from_segments([-1.0, 1.0], [hl.Linear(1.0, 3.0)])
        c = hl.from_segments([-1.0, 1.0], [hl.Linear(2.0, 1.0)])
        bound = hl.q_product_bound(a, c, BC.DIRICHLET_IMPEDANCE)
        assert bound == pytest.approx(2.0 * 3.0 * 4.0, rel=1e-12)

    def test_default_layout_is_pure_impedance(self):
        # like q_bound and stability_report; Dirichlet-impedance doubles it
        a = c = hl.from_segments([-1.0, 1.0], [hl.Linear(1.0, 2.0)])
        assert hl.q_product_bound(a, c) == \
            hl.q_product_bound(a, c, BC.PURE_IMPEDANCE) == pytest.approx(8.0)
        assert hl.q_product_bound(a, c, BC.DIRICHLET_IMPEDANCE) == pytest.approx(16.0)
        assert hl.stability_report(a, c).Q_product_bound == hl.q_product_bound(a, c)

    def test_exact_below_bound(self, rng):
        # [-1, 1], then random intervals [z_0, z_N]: anywhere, and left of 0
        ends = np.random.default_rng(7)
        intervals = [(-1.0, 1.0)] * 100
        for lo, hi in ((-4.0, 4.0), (-8.0, -4.0)):
            starts = ends.uniform(lo, hi, 50)
            intervals += list(zip(starts, starts + ends.uniform(0.1, 3.9, 50)))
        for interval in intervals:
            a = random_coefficient(rng, interval=interval)
            c = random_coefficient(rng, interval=interval)
            for bc in BC:
                q_exact = hl.q_sup(hl.build_q(a, c), bc)
                assert q_exact <= hl.q_product_bound(a, c, bc) * (1.0 + 1e-12)
                assert q_exact <= hl.q_bound(a, c, bc) * (1.0 + 1e-12)

    def test_bounds_reject_different_intervals(self):
        a, c = hl.constant(1.0, 1.0), hl.constant(1.0, 2.0)
        for bound in (hl.q_bound, hl.q_product_bound):
            with pytest.raises(hl.CoefficientError):
                bound(a, c)

    def test_overflow_reports_infinity(self):
        # enormous variation: alternating layers with huge ratio
        bp = np.linspace(-1.0, 1.0, 202)
        vals = [1e6 if j % 2 == 0 else 1e-6 for j in range(201)]
        c = hl.piecewise_constant(bp, vals)
        a = hl.constant(1.0)
        assert hl.q_bound(a, c, BC.PURE_IMPEDANCE) == math.inf
        report = hl.stability_report(a, c, BC.PURE_IMPEDANCE)
        assert report.bound_overflowed
        assert math.isfinite(report.Q_exact) is False or report.Q_exact > 0
        # exact Q can overflow too for this extreme case; the report survives


class TestConstants:
    def test_unit_values(self):
        c1, c2 = hl.stability_constants(1.0, 1.0, 1.0)
        assert c1 == pytest.approx(8.0, abs=0.0)
        assert c2 == pytest.approx(2.0 * math.sqrt(2.5), rel=1e-15)

    def test_scaling_in_a(self):
        c1, _ = hl.stability_constants(4.0, 1.0, 1.0)
        assert c1 == pytest.approx(4.0, abs=0.0)

    def test_speed_ratio(self):
        c1, _ = hl.stability_constants(1.0, 1.0, 3.0)
        assert c1 == pytest.approx(20.0, abs=0.0)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            hl.stability_constants(-1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            hl.stability_constants(1.0, 2.0, 1.0)


class TestAprioriRhs:
    def test_boundary_data_only(self):
        report = hl.stability_report(hl.constant(1.0), hl.constant(1.0),
                                     BC.PURE_IMPEDANCE)
        assert report.Q_exact == pytest.approx(1.0)
        assert report.apriori_rhs(0.0, 1.0) == pytest.approx(2.0 * math.sqrt(2.5),
                                                             rel=1e-15)

    def test_zero_data(self):
        report = hl.stability_report(hl.constant(1.0), hl.constant(1.0),
                                     BC.PURE_IMPEDANCE)
        assert report.apriori_rhs(0.0, 0.0) == 0.0

    def test_source_term_arithmetic(self):
        report = hl.StabilityReport(
            Q_exact=4.0, Q_bound=10.0, Q_product_bound=10.0, C_I=8.0,
            C_II=1.0, factors=None, bc=BC.PURE_IMPEDANCE, bound_overflowed=False)
        assert report.apriori_rhs(1.0, 0.0) == pytest.approx(32.0, abs=0.0)

    def test_negative_norms_rejected(self):
        report = hl.stability_report(hl.constant(1.0), hl.constant(1.0))
        with pytest.raises(ValueError):
            report.apriori_rhs(-1.0, 0.0)


class TestVerifyQ:
    def test_unit_coefficients_zero_margins(self):
        a = hl.constant(1.0)
        c = hl.constant(1.0)
        d = hl.verify_q_properties(hl.build_q(a, c), a, c)
        assert d.passed
        assert d.deriv_margin_a == pytest.approx(0.0, abs=1e-15)
        assert d.deriv_margin_c2 == pytest.approx(0.0, abs=1e-15)

    def test_single_jump_equality_case(self):
        # the a-ratio jump hits the equality case of the recursion;
        # the c^2 jump is strictly negative: [q/c^2]_0 = -3/4
        a = hl.constant(1.0)
        c = hl.piecewise_constant([-1.0, 0.0, 1.0], [2.0, 1.0])
        q = hl.build_q(a, c)
        qa_m = q.one_sided(1, "left") / 1.0
        qa_p = q.one_sided(1, "right") / 1.0
        assert qa_m - qa_p == pytest.approx(0.0, abs=0.0)
        jump_c2 = q.one_sided(1, "left") / 4.0 - q.one_sided(1, "right") / 1.0
        assert jump_c2 == pytest.approx(-0.75, abs=0.0)
        assert hl.verify_q_properties(q, a, c).passed

    def test_proportional_affine_envelopes(self):
        # a~ = c~ = (3 + x)/2: the closed form divides by q r - p s = 0, so
        # the integrals of 1/(a~ c~^2) = 8/(3 + x)^3 come from quadrature
        a = c = hl.from_segments([-1.0, 1.0], [hl.Linear(1.0, 2.0)])
        q = hl.build_q(a, c)
        params = stability._affine_params(q.a_tilde.segments[0], -1.0, 1.0)
        assert stability._recip_antiderivative(*params, *params, 1.0) is None
        assert q.seg_integrals[0] == pytest.approx(0.75, rel=0.0, abs=1e-12)
        assert hl.verify_q_properties(q, a, c).passed

    def test_smooth_coefficients(self):
        a = sine_coefficient(2)
        c = hl.from_segments([-1.0, 1.0], [hl.Linear(2.0, 1.0)])
        d = hl.verify_q_properties(hl.build_q(a, c), a, c)
        assert d.passed

    def test_random_layered_draws(self, rng):
        for _ in range(100):
            a = random_coefficient(rng)
            c = random_coefficient(rng)
            d = hl.verify_q_properties(hl.build_q(a, c), a, c)
            assert d.passed, d


class TestTechProduct:
    def test_continuous(self):
        f = hl.from_segments([-1.0, 1.0], [hl.Linear(1.0, 2.0)])
        product, bound = hl.tech_product_check(f)
        assert product == 1.0
        assert product <= bound

    def test_single_jump(self):
        f = hl.piecewise_constant([-1.0, 0.0, 1.0], [1.0, 2.0])
        product, bound = hl.tech_product_check(f)
        assert product == pytest.approx(2.0, abs=0.0)
        assert bound == pytest.approx(math.e, rel=1e-15)
        assert product <= bound

    def test_random_draws(self, rng):
        for _ in range(100):
            f = random_coefficient(rng)
            product, bound = hl.tech_product_check(f)
            assert product <= bound * (1.0 + 1e-12)


class TestReportSharesTheMultiplier:
    """The report's product bound comes from the multiplier's own envelopes
    and jump factors; it equals the standalone bound bit for bit."""

    def test_product_bound_equals_standalone_on_family_grid(self):
        for m in range(2, 21, 2):
            for r in (0.4, 0.5, 0.6):
                prob = hl.family(hl.UnstableFamilySpec(m, r))
                for bc in BC:
                    report = hl.stability_report(prob.a, prob.c, bc)
                    assert report.Q_product_bound == \
                        hl.q_product_bound(prob.a, prob.c, bc)

    def test_product_bound_equals_standalone_on_mixed_problems(self, rng):
        for i in range(100):
            a = random_mixed_coefficient(rng)
            c = random_mixed_coefficient(rng) if i % 2 else random_coefficient(rng)
            for bc in BC:
                report = hl.stability_report(a, c, bc)
                assert report.Q_product_bound == hl.q_product_bound(a, c, bc)

    def test_one_envelope_pair_and_one_factor_pass(self, monkeypatch):
        calls = {"tilde": 0, "jump_factors": 0}
        tilde, factors = hl.PiecewiseCoefficient.tilde, stability.jump_factors

        def counted_tilde(self):
            calls["tilde"] += 1
            return tilde(self)

        def counted_factors(*args):
            calls["jump_factors"] += 1
            return factors(*args)

        monkeypatch.setattr(hl.PiecewiseCoefficient, "tilde", counted_tilde)
        monkeypatch.setattr(stability, "jump_factors", counted_factors)
        prob = hl.family(hl.UnstableFamilySpec(4, 0.5))
        hl.stability_report(prob.a, prob.c, BC.PURE_IMPEDANCE)
        assert calls == {"tilde": 2, "jump_factors": 1}
