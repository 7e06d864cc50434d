import math

import numpy as np
import pytest

import helmlab as hl
from helmlab.coeffs import (CoefficientError, _SIGN_TAGS, _chebyshev, _seg_deriv,
                            _seg_left, _seg_right, _seg_values)
from helmlab.quadrature import adaptive_gauss

from conftest import random_coefficient, random_mixed_coefficient, sine_coefficient


def family_c(m=2, r=0.5):
    return hl.family(hl.UnstableFamilySpec(m, r)).c


class TestConstruction:
    def test_degenerate_segment_rejected(self):
        with pytest.raises(CoefficientError):
            hl.piecewise_constant([-1.0, 0.5, 0.5, 1.0], [1.0, 2.0, 3.0])

    def test_unordered_breakpoints_rejected(self):
        with pytest.raises(CoefficientError):
            hl.piecewise_constant([-1.0, 0.5, 0.2, 1.0], [1.0, 2.0, 3.0])

    def test_nonpositive_value_rejected(self):
        with pytest.raises(CoefficientError):
            hl.piecewise_constant([-1.0, 1.0], [-2.0])

    def test_wrong_sign_tag_rejected(self):
        seg = hl.Smooth(func=lambda x: 2.0 + x, deriv=lambda x: np.ones_like(x),
                        sign="nonpositive")
        with pytest.raises(CoefficientError):
            hl.from_segments([-1.0, 1.0], [seg], g_min=1.0, g_max=3.0)

    def test_non_finite_breakpoint_rejected(self):
        with pytest.raises(CoefficientError, match="finite"):
            hl.piecewise_constant([-np.inf, 0.0, 1.0], [1.0, 2.0])

    def test_segment_count_mismatch_rejected(self):
        with pytest.raises(CoefficientError):
            hl.PiecewiseCoefficient(np.array([-1.0, 1.0]),
                                    (hl.Constant(1.0), hl.Constant(2.0)), 1.0, 2.0)


class TestEval:
    def test_constant_both_sides(self):
        c = hl.constant(3.0)
        for x in (-1.0, -0.3, 0.0, 1.0):
            assert c.eval(x, "left") == 3.0
            assert c.eval(x, "right") == 3.0

    def test_layered_family_first_cell(self):
        # odd cells carry 1 - r
        c = family_c(m=2, r=0.5)
        x = 0.5 * (c.breakpoints[0] + c.breakpoints[1])
        assert c.eval(x, "left") == 0.5
        assert c.eval(x, "right") == 0.5

    def test_linear_interpolation(self):
        lin = hl.from_segments([0.0, 1.0], [hl.Linear(1.0, 2.0)])
        assert lin.eval(0.5) == pytest.approx(1.5, abs=0.0)

    def test_one_sided_limits_at_jump(self):
        c = hl.piecewise_constant([-1.0, 0.0, 1.0], [2.0, 5.0])
        assert c.eval(0.0, "left") == 2.0
        assert c.eval(0.0, "right") == 5.0

    def test_outside_domain_raises(self):
        c = hl.constant(1.0)
        with pytest.raises(CoefficientError):
            c.eval(1.5)
        with pytest.raises(CoefficientError):
            c.eval(-1.0000001)


class TestJump:
    def test_continuous_interior_jump_zero(self):
        lin = hl.from_segments([-1.0, 0.0, 1.0],
                               [hl.Linear(1.0, 2.0), hl.Linear(2.0, 3.0)])
        assert lin.jump(1) == 0.0

    def test_family_alternating_jumps(self):
        # odd cell 0.5 -> even cell 1.5: left-to-right jump is -1.0
        c = family_c(m=2, r=0.5)
        assert c.jump(1) == pytest.approx(-1.0, abs=0.0)
        assert c.jump(2) == pytest.approx(1.0, abs=0.0)

    def test_endpoint_conventions(self):
        c = family_c(m=2, r=0.5)
        assert c.jump(0) == pytest.approx(-0.5, abs=0.0)   # -g+(-L)
        assert c.jump(c.n_segments) == pytest.approx(0.5)  # g-(L), last cell odd

    def test_out_of_range_index(self):
        c = hl.constant(1.0)
        with pytest.raises(IndexError):
            c.jump(2)
        with pytest.raises(IndexError):
            c.jump(-1)

    def test_reversal_negates_interior_jumps(self, rng):
        for _ in range(20):
            c = random_coefficient(rng)
            rev = c.reversed()
            n = c.n_segments
            for j in range(1, n):
                assert rev.jump(n - j) == pytest.approx(-c.jump(j), rel=1e-14)


class TestVariation:
    def test_constant_is_zero(self):
        assert hl.constant(7.0).variation() == 0.0

    def test_alternating_pattern(self):
        # N cells alternating cmax / cmin: Var(c^2) = (N-1)(cmax^2 - cmin^2)
        cmax, cmin, ncells = 2.0, 0.5, 7
        bp = np.linspace(-1.0, 1.0, ncells + 1)
        vals = [cmax if j % 2 == 0 else cmin for j in range(ncells)]
        c = hl.piecewise_constant(bp, vals)
        expected = (ncells - 1) * (cmax**2 - cmin**2)
        assert hl.variation_of_square(c) == pytest.approx(expected, rel=1e-14)
        assert c.variation() == pytest.approx((ncells - 1) * (cmax - cmin), rel=1e-14)

    def test_sine_variation(self):
        # independent oracle: trapezoid integration of |a'| on a fine grid
        m = 4
        a = sine_coefficient(m)
        xs = np.linspace(-1.0, 1.0, 2_000_001)
        oracle = np.trapezoid(np.abs(m * np.pi * np.cos(m * np.pi * xs)), xs)
        assert oracle == pytest.approx(4.0 * m, rel=1e-9)
        assert a.variation() == pytest.approx(4.0 * m, rel=1e-9)

    def test_refinement_invariance(self, rng):
        for _ in range(20):
            c = random_coefficient(rng)
            var = c.variation()
            j = int(rng.integers(0, c.n_segments))
            mid = 0.5 * (c.breakpoints[j] + c.breakpoints[j + 1])
            refined = hl.refine(c, np.sort(np.append(c.breakpoints, mid)))
            assert refined.variation() == pytest.approx(var, rel=1e-12)


class TestTilde:
    def test_increasing_is_identity(self):
        lin = hl.from_segments([-1.0, 1.0], [hl.Linear(1.0, 2.0)])
        t = lin.tilde()
        xs = np.linspace(-1.0, 1.0, 50)
        assert np.allclose(t.values(xs), lin.values(xs), rtol=0, atol=0)

    def test_piecewise_constant_unchanged(self, rng):
        for _ in range(10):
            c = random_coefficient(rng)
            t = c.tilde()
            xs = np.linspace(-1.0, 1.0, 200)
            assert np.array_equal(t.values(xs), c.values(xs))

    def test_sine_decreasing_segment_freezes_left_peak(self):
        a = sine_coefficient(2)
        t = a.tilde()
        # decreasing segments run from an odd-index peak value 3
        j = 1  # second segment (0-based), decreasing
        x = 0.5 * (a.breakpoints[j] + a.breakpoints[j + 1])
        assert t.eval(x) == pytest.approx(3.0, rel=1e-14)

    def test_one_sided_continuity_convention(self):
        c = hl.piecewise_constant([-1.0, 0.0, 1.0], [2.0, 1.0])
        t = c.tilde()
        assert t.eval(0.0, "right") == 1.0
        assert t.eval(0.0, "left") == 2.0

    def test_variation_contraction_and_bounds(self, rng):
        for i in range(100):
            if i % 3 == 2:
                c = sine_coefficient(int(rng.integers(1, 5)) * 2)
            else:
                c = random_coefficient(rng)
            t = c.tilde()
            assert t.variation() <= c.variation() + 1e-10
            xs = np.linspace(-1.0, 1.0, 257)
            tv = t.values(xs)
            assert np.all(tv >= c.g_min - 1e-12)
            assert np.all(tv <= c.g_max + 1e-12)
            # nondecreasing within every segment: its values at points from
            # the left end up to (not at) the right end do not fall
            bp = t.breakpoints
            for j in range(t.n_segments):
                seg_xs = np.linspace(bp[j], bp[j + 1], 65)[:-1]
                assert np.all(np.diff(t.values(seg_xs)) >= -1e-12)


class TestCommonPartition:
    def test_identical_partitions(self):
        a = hl.piecewise_constant([-1.0, 0.0, 1.0], [1.0, 2.0])
        b = hl.piecewise_constant([-1.0, 0.0, 1.0], [3.0, 4.0])
        assert np.array_equal(hl.on_common_partition(a, b)[0].breakpoints,
                              a.breakpoints)

    def test_union(self):
        a = hl.piecewise_constant([-1.0, 0.0, 1.0], [1.0, 2.0])
        b = hl.piecewise_constant([-1.0, 0.5, 1.0], [3.0, 4.0])
        for coeff in hl.on_common_partition(a, b):
            assert np.array_equal(coeff.breakpoints,
                                  np.array([-1.0, 0.0, 0.5, 1.0]))

    def test_constant_adds_no_breakpoints(self):
        c = family_c()
        a = hl.constant(1.0)
        assert np.array_equal(hl.on_common_partition(a, c)[0].breakpoints,
                              c.breakpoints)

    def test_domain_mismatch(self):
        a = hl.constant(1.0, half_length=1.0)
        b = hl.constant(1.0, half_length=2.0)
        with pytest.raises(CoefficientError):
            hl.on_common_partition(a, b)

    def test_refined_values_agree(self, rng):
        for _ in range(10):
            a = random_coefficient(rng)
            c = random_coefficient(rng)
            a2, c2 = hl.on_common_partition(a, c)
            xs = np.linspace(-1.0, 1.0, 301)
            assert np.allclose(a2.values(xs), a.values(xs), rtol=0, atol=0)
            assert np.allclose(c2.values(xs), c.values(xs), rtol=0, atol=0)


# -- references: the per-caller probe and variation loops that the shared
# -- probe list and the shared variation loop replaced ----------------------

def _validate_reference(breakpoints, segments, g_min, g_max):
    """Segment validation with its own probe list (numpy ends, then the
    Chebyshev values of a smooth segment)."""
    slack = 1e-12 * g_max
    lo, hi = g_min - slack, g_max + slack
    for j, seg in enumerate(segments):
        x0, x1 = breakpoints[j], breakpoints[j + 1]
        ends = np.array([_seg_left(seg, x0, x1), _seg_right(seg, x0, x1)])
        probes = ends
        if isinstance(seg, hl.Smooth):
            if seg.sign not in _SIGN_TAGS:
                raise CoefficientError(f"unknown sign tag {seg.sign!r}")
            xs = _chebyshev(x0, x1)
            d = _seg_deriv(seg, x0, x1, xs)
            dtol = 1e-12 * (1.0 + np.max(np.abs(d)))
            if seg.sign == "positive" and np.any(d <= 0.0):
                raise CoefficientError(
                    f"segment {j}: tagged positive but derivative probe <= 0")
            if seg.sign == "nonpositive" and np.any(d > dtol):
                raise CoefficientError(
                    f"segment {j}: tagged nonpositive but derivative probe > 0")
            if seg.sign == "zero" and np.any(np.abs(d) > dtol):
                raise CoefficientError(
                    f"segment {j}: tagged zero but derivative probe is not")
            probes = np.concatenate([ends, _seg_values(seg, x0, x1, xs)])
        if np.any(probes < lo) or np.any(probes > hi):
            raise CoefficientError(
                f"segment {j}: values escape the certified bounds "
                f"[{g_min}, {g_max}]")


def _bounds_reference(breakpoints, segments):
    """The bounds `from_segments` derived with its own probe loop."""
    bp = np.asarray(breakpoints, dtype=float)
    lo, hi = np.inf, -np.inf
    for j, seg in enumerate(segments):
        x0, x1 = bp[j], bp[j + 1]
        vals = [_seg_left(seg, x0, x1), _seg_right(seg, x0, x1)]
        if isinstance(seg, hl.Smooth):
            vals.extend(_seg_values(seg, x0, x1, _chebyshev(x0, x1)))
        lo = min(lo, min(vals))
        hi = max(hi, max(vals))
    return float(lo), float(hi)


def _variation_reference(coeff):
    """Var(g) with its own loop.  The jumps were added by `sum`, which adds
    left to right before Python 3.12; the loop spells that order out."""
    var = 0
    for j in range(1, coeff.n_segments):
        var += abs(coeff.jump(j))
    for j, seg in enumerate(coeff.segments):
        x0, x1 = coeff.breakpoints[j], coeff.breakpoints[j + 1]
        if isinstance(seg, hl.Constant):
            continue
        if isinstance(seg, hl.Linear):
            var += abs(seg.right - seg.left)
        else:
            var += adaptive_gauss(
                lambda x, s=seg: np.abs(s.deriv(x)), x0, x1)
    return var


def _variation_of_square_reference(coeff):
    """Var(g^2) with its own loop."""
    var = 0.0
    for j in range(1, coeff.n_segments):
        var += abs(coeff.left_limit(j) ** 2 - coeff.right_limit(j) ** 2)
    for j, seg in enumerate(coeff.segments):
        x0, x1 = coeff.breakpoints[j], coeff.breakpoints[j + 1]
        if isinstance(seg, hl.Constant):
            continue
        if isinstance(seg, hl.Linear):
            var += abs(seg.right ** 2 - seg.left ** 2)
        else:
            var += adaptive_gauss(
                lambda x, s=seg: np.abs(2.0 * s.func(x) * s.deriv(x)),
                x0, x1)
    return var


def _verdict(build):
    try:
        build()
    except CoefficientError as exc:
        return str(exc)
    return None


# a smooth piece whose declared derivative is positive but whose values swing
# through 2 +- 0.9 inside (-1, 1): its ends are 2 up to round-off, so only
# the Chebyshev probes see it leave [1.9, 2.1]
_SWING = hl.Smooth(lambda x: 2.0 + 0.9 * np.sin(np.pi * x), np.ones_like, "positive")
_LO_EDGE = 1.0 - 1e-12 * 2.0   # g_min - slack for bounds [1, 2]
_HI_EDGE = 2.0 + 1e-12 * 2.0   # g_max + slack

# case -> (breakpoints, segments, g_min, g_max, expected message or None)
VALIDATION_CASES = {
    "swing-inside": ([-1.0, 1.0], [_SWING], 1.0, 3.0, None),
    "swing-escapes-at-probe": ([-1.0, 1.0], [_SWING], 1.9, 2.1,
                               "segment 0: values escape"),
    "linear-at-low-edge": ([-1.0, 0.0, 1.0], [
        hl.Linear(_LO_EDGE, 1.5), hl.Constant(2.0)], 1.0, 2.0, None),
    "linear-below-low-edge": ([-1.0, 0.0, 1.0], [
        hl.Linear(np.nextafter(_LO_EDGE, 0.0), 1.5), hl.Constant(2.0)], 1.0, 2.0,
        "segment 0: values escape"),
    "linear-at-high-edge": ([-1.0, 0.0, 1.0], [
        hl.Constant(1.0), hl.Linear(1.5, _HI_EDGE)], 1.0, 2.0, None),
    "linear-above-high-edge": ([-1.0, 0.0, 1.0], [
        hl.Constant(1.0), hl.Linear(1.5, np.nextafter(_HI_EDGE, 3.0))], 1.0, 2.0,
        "segment 1: values escape"),
    "constant-below": ([-1.0, 0.0, 1.0], [hl.Constant(1.5), hl.Constant(0.5)],
                       1.0, 2.0, "segment 1: values escape"),
    "mixed-inside": ([-1.0, -0.2, 0.4, 1.0], [
        hl.Linear(2.0, 1.2), hl.Smooth(lambda x: 2.0 + x, np.ones_like, "positive"),
        hl.Constant(1.1)], 1.1, 3.0, None),
    "wrong-tag": ([-1.0, 1.0], [hl.Smooth(lambda x: 2.0 + x, np.ones_like,
                                          "nonpositive")], 1.0, 3.0,
                  "segment 0: tagged nonpositive"),
    "zero-tag-sloped": ([-1.0, 1.0], [hl.Smooth(lambda x: 2.0 + x, np.ones_like,
                                                "zero")], 1.0, 3.0,
                        "segment 0: tagged zero"),
    "unknown-tag": ([-1.0, 1.0], [hl.Smooth(lambda x: 2.0 + x, np.ones_like,
                                            "up")], 1.0, 3.0, "unknown sign tag"),
}


class TestSharedProbes:
    @pytest.mark.parametrize("case", list(VALIDATION_CASES))
    def test_validation_verdict_matches_reference(self, case):
        bp, segs, g_min, g_max, expected = VALIDATION_CASES[case]
        new = _verdict(lambda: hl.PiecewiseCoefficient(np.asarray(bp), segs,
                                                       g_min, g_max))
        ref = _verdict(lambda: _validate_reference(np.asarray(bp), segs,
                                                   g_min, g_max))
        assert new == ref
        assert new is None if expected is None else new.startswith(expected)

    def test_probe_only_escape_is_caught(self):
        assert "escape" in _verdict(
            lambda: hl.from_segments([-1.0, 1.0], [_SWING], g_min=1.9, g_max=2.1))
        # derived bounds come from the Chebyshev probes, not the ends
        swing = hl.from_segments([-1.0, 1.0], [_SWING])
        assert swing.g_max > 2.8 and swing.g_min < 1.2

    def test_derived_bounds_match_reference(self, rng):
        for _ in range(200):
            coeff = random_mixed_coefficient(rng)
            assert (coeff.g_min, coeff.g_max) == _bounds_reference(
                coeff.breakpoints, coeff.segments)
        for case in ("swing-inside", "mixed-inside", "linear-at-low-edge"):
            bp, segs = VALIDATION_CASES[case][:2]
            coeff = hl.from_segments(bp, segs)
            assert (coeff.g_min, coeff.g_max) == _bounds_reference(bp, segs)

    def test_random_segments_valid_under_both(self, rng):
        for _ in range(200):
            coeff = random_mixed_coefficient(rng)
            _validate_reference(coeff.breakpoints, coeff.segments,
                                coeff.g_min, coeff.g_max)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("kind", ["constant", "linear", "smooth"])
    def test_non_finite_value_rejected(self, bad, kind):
        seg = {"constant": hl.Constant(bad), "linear": hl.Linear(1.0, bad),
               "smooth": hl.Smooth(lambda x: np.where(x > 0.5, bad, 2.0),
                                   np.zeros_like, "zero")}[kind]
        segs = [hl.Constant(1.0), seg]
        with pytest.raises(CoefficientError, match="segment 1: non-finite"):
            hl.from_segments([-1.0, 0.0, 1.0], segs)
        with pytest.raises(CoefficientError, match="segment 1: non-finite"):
            hl.PiecewiseCoefficient(np.array([-1.0, 0.0, 1.0]), segs, 1.0, 2.0)


class TestSharedVariation:
    def test_variations_match_reference(self, rng):
        coeffs = [random_mixed_coefficient(rng) for _ in range(200)]
        coeffs += [random_coefficient(rng) for _ in range(20)]
        coeffs += [sine_coefficient(m) for m in (2, 4)]
        coeffs += [family_c(m, r) for m in (2, 8) for r in (0.4, 0.6)]
        for coeff in coeffs:
            assert coeff.variation() == _variation_reference(coeff)
            assert hl.variation_of_square(coeff) == \
                _variation_of_square_reference(coeff)
