import numpy as np
import pytest

import helmlab as hl


def unit_inputs(**overrides):
    base = dict(a_min=1.0, a_max=1.0, c_min=1.0, c_max=1.0, omega=1.0,
                omega0=1.0, h=0.01, c_stab=1.0)
    base.update(overrides)
    return hl.FemTheoryInputs(**base)


class TestContinuityConstant:
    def test_unit_case(self):
        # beta_max = 1, so the max picks c_max^2 (1/omega0^2 + 1) = 2
        assert hl.continuity_constant(unit_inputs()) == pytest.approx(4.0, abs=0.0)

    def test_trace_constant_zero_drops_boundary(self):
        assert hl.continuity_constant(unit_inputs(c_trace=0.0)) == 3.0

    def test_small_diffusion(self):
        # a_min = a_max = 1/4: 1/a_min = 4 dominates beta_max^2 term
        inp = unit_inputs(a_min=0.25, a_max=0.25)
        assert hl.continuity_constant(inp) == pytest.approx(5.0, abs=0.0)


class TestSigmaStar:
    def test_unit_closed_form(self):
        inp = unit_inputs()
        assert hl.theory.c0_constant(inp) == pytest.approx(2.0, abs=0.0)
        assert hl.theory.c0_prime_constant(inp) == pytest.approx(2.0, abs=0.0)
        assert hl.theory.k_constant(inp) == pytest.approx(4.0, abs=0.0)
        # K (1 + omega h) (c_min/omega0 + C_stab) (omega)^2 h
        expected = 4.0 * (1.0 + 0.01) * 2.0 * 1.0 * 0.01
        assert hl.sigma_star_bound(inp) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.0808, abs=1e-12)

    def test_vanishes_linearly_in_h(self):
        vals = [hl.sigma_star_bound(unit_inputs(h=h)) for h in (1e-6, 1e-7, 1e-8)]
        assert vals[0] / vals[1] == pytest.approx(10.0, rel=1e-5)
        assert vals[1] / vals[2] == pytest.approx(10.0, rel=1e-5)

    def test_omega_squared_scaling(self):
        # at fixed small h the leading term scales like omega^2
        lo = hl.sigma_star_bound(unit_inputs(h=1e-9))
        hi = hl.sigma_star_bound(unit_inputs(h=1e-9, omega=2.0))
        assert hi / lo == pytest.approx(4.0, rel=1e-6)

    def test_monotone_in_parameters(self):
        base = unit_inputs()
        v0 = hl.sigma_star_bound(base)
        for kw in (dict(h=0.02), dict(omega=2.0), dict(c_stab=2.0),
                   dict(kappa_a=1.0)):
            assert hl.sigma_star_bound(unit_inputs(**kw)) > v0


class TestResolution:
    def test_formal_zero_sigma(self):
        report = hl.resolution_and_quasiopt(unit_inputs(), sigma_star=0.0)
        assert report.resolution_ok
        assert report.quasi_opt_l2 == 0.0

    def test_boundary_case(self):
        report = hl.resolution_and_quasiopt(unit_inputs(), sigma_star=0.125)
        assert report.c_ac == 4.0
        assert report.resolution_ok  # 1/8 == 1/(2*4)
        assert report.quasi_opt_h == pytest.approx(8.0, abs=0.0)

    def test_violated_case(self):
        report = hl.resolution_and_quasiopt(unit_inputs(), sigma_star=0.2)
        assert not report.resolution_ok

    def test_monotone_in_h(self):
        # once satisfied at h, satisfied at any smaller h
        hs = np.logspace(-6, -1, 24)
        ok = [hl.resolution_and_quasiopt(unit_inputs(h=h)).resolution_ok
              for h in hs]
        assert ok[0]
        if False in ok:
            assert not any(ok[ok.index(False):])

    def test_defaults_flagged(self):
        assert hl.resolution_and_quasiopt(unit_inputs()).defaults_used
        assert not hl.resolution_and_quasiopt(
            unit_inputs(c_reg=2.0)).defaults_used

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            unit_inputs(omega=0.5)  # below omega0
        with pytest.raises(ValueError):
            unit_inputs(h=0.0)
        with pytest.raises(ValueError):
            unit_inputs(c_min=2.0)  # c_min > c_max

