"""One owner for piecewise structure: `coeffs.segment_of` assigns points to
subintervals and `coeffs.segmentwise` evaluates segment by segment for every
module.  The per-module lookups, mask loops and the per-subinterval `refine`
they replaced are kept here as references; the owners must reproduce their
bits."""

import numpy as np
import pytest

import helmlab as hl
from helmlab.coeffs import _seg_deriv, _seg_values, segment_of, segmentwise
from helmlab.quadrature import G5_T
from helmlab.stability import _recip_integrals


def same_bits(x, y) -> bool:
    """Equal shapes and equal bit patterns (signed zeros included)."""
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and x.dtype == y.dtype and \
        np.array_equal(x.view(np.int64), y.view(np.int64))


# -- references: the copies the owners replaced -------------------------------

def lookup_coeffs_ref(coeff, x, side="right"):
    idx = np.searchsorted(coeff.breakpoints, x, side=side) - 1
    return np.clip(idx, 0, coeff.n_segments - 1)


def lookup_oracle_ref(amps, x):
    return np.clip(np.searchsorted(amps.partition, x, side="right") - 1,
                   0, len(amps.A) - 1)


def lookup_poly_ref(f, x):
    return np.clip(np.searchsorted(f.breakpoints, x) - 1,
                   0, len(f.coefficients) - 1)


def coeff_loop_ref(coeff, xs, seg_fn):
    """`PiecewiseCoefficient.values` (seg_fn=_seg_values), and `segmentwise`
    over any other per-segment evaluator, such as seg_fn=_seg_deriv."""
    xs = np.asarray(xs, dtype=float)
    idx = lookup_coeffs_ref(coeff, xs.ravel())
    out = np.empty(idx.shape, dtype=float)
    for j in np.unique(idx):
        mask = idx == j
        out[mask] = seg_fn(coeff.segments[j], coeff.breakpoints[j],
                           coeff.breakpoints[j + 1], xs.ravel()[mask])
    return out.reshape(xs.shape)


def q_values_ref(q, xs):
    xs = np.asarray(xs, dtype=float)
    idx = lookup_coeffs_ref(q.a, xs)
    out = np.empty(xs.shape, dtype=float)
    bp = q.partition
    for j in np.unique(idx):
        mask = idx == j
        pts = xs[mask]
        I = _recip_integrals(q.a_tilde.segments[j], q.c_tilde.segments[j],
                             bp[j], bp[j + 1], pts)
        at = _seg_values(q.a_tilde.segments[j], bp[j], bp[j + 1], pts)
        ct = _seg_values(q.c_tilde.segments[j], bp[j], bp[j + 1], pts)
        out[mask] = at * ct * ct * (I + q.A[j])
    return out


def waves_ref(amps, x):
    """(u, u') with the oracle's own lookup and two exponentials."""
    x = np.asarray(x, dtype=float)
    idx = lookup_oracle_ref(amps, x.ravel())
    s = x.ravel() - amps.partition[idx]
    k = amps.k[idx]
    fwd = amps.A[idx] * np.exp(1j * k * s)
    bwd = amps.B[idx] * np.exp(-1j * k * s)
    return (fwd + bwd).reshape(x.shape), (1j * k * (fwd - bwd)).reshape(x.shape)


def poly_ref(f, x):
    """The polynomial source with its own lookup (left piece at breakpoints)."""
    x = np.asarray(x, dtype=float)
    idx = lookup_poly_ref(f, x.ravel())
    out = np.empty(idx.shape, dtype=float)
    for j in np.unique(idx):
        mask = idx == j
        out[mask] = np.polyval(f.coefficients[j], x.ravel()[mask])
    return out.reshape(x.shape)


def refine_ref(coeff, breakpoints):
    """`refine` with one lookup per subinterval and no shortcut; a Linear
    end at an original breakpoint keeps its value."""
    bp = np.asarray(breakpoints, dtype=float)
    segs = []
    for j in range(len(bp) - 1):
        x0, x1 = bp[j], bp[j + 1]
        k = int(lookup_coeffs_ref(coeff, 0.5 * (x0 + x1)))
        seg = coeff.segments[k]
        if isinstance(seg, hl.Linear):
            y0, y1 = coeff.breakpoints[k], coeff.breakpoints[k + 1]
            t0 = (x0 - y0) / (y1 - y0)
            t1 = (x1 - y0) / (y1 - y0)
            left = seg.left + t0 * (seg.right - seg.left)
            right = seg.left + t1 * (seg.right - seg.left)
            segs.append(hl.Linear(seg.left if x0 == y0 else left,
                                  seg.right if x1 == y1 else right))
        else:
            segs.append(seg)
    return hl.PiecewiseCoefficient(bp, tuple(segs), coeff.g_min, coeff.g_max)


# -- inputs ---------------------------------------------------------------------

def mixed_pair():
    """a and c on different partitions, each mixing Constant, Linear and
    Smooth segments (increasing and decreasing)."""
    a = hl.from_segments([-1.0, -0.5, 0.0, 0.25, 1.0], [
        hl.Constant(2.0),
        hl.Linear(2.0, 3.0),
        hl.Smooth(lambda x: 3.0 + np.sin(x), np.cos, "positive"),
        hl.Linear(2.7, 1.3)])
    c = hl.from_segments([-1.0, -0.25, 0.5, 1.0], [
        hl.Linear(1.1, 0.7),
        hl.Smooth(lambda x: 1.2 - 0.25 * (x + 0.3) ** 2,
                  lambda x: -0.5 * (x + 0.3), "nonpositive"),
        hl.Constant(0.9)])
    return a, c


def scattered(rng, breakpoints, lo=-1.0, hi=1.0, shape=(41, 11)):
    """Unsorted 2-D points containing every breakpoint, both ends and
    `lo`/`hi`."""
    n = shape[0] * shape[1] - len(breakpoints) - 2
    pts = np.concatenate([breakpoints, [lo, hi], rng.uniform(-1.0, 1.0, n)])
    rng.shuffle(pts)
    return pts.reshape(shape)


# -- the lookup ---------------------------------------------------------------

def test_one_lookup_matches_the_three_it_replaced(rng):
    a, c = hl.on_common_partition(*mixed_pair())
    bp = a.breakpoints
    xs = scattered(rng, bp, -1.5, 1.5)
    for side in ("left", "right"):
        assert np.array_equal(a.segment_index(xs, side),
                              lookup_coeffs_ref(a, xs, side))
    amps = hl.solve_analytic(hl.family(hl.UnstableFamilySpec(8, 0.5)))
    x = scattered(rng, amps.partition).ravel()
    assert np.array_equal(segment_of(amps.partition, x), lookup_oracle_ref(amps, x))
    f = hl.PiecewisePolynomial(bp, tuple(np.array([1.0, j]) for j in range(len(bp) - 1)))
    inside = xs[~np.isin(xs, bp)]
    assert np.array_equal(segment_of(bp, inside), lookup_poly_ref(f, inside))


# -- the per-segment loop -------------------------------------------------------

def test_coefficient_values_and_derivatives_match_mask_loops(rng):
    a, c = mixed_pair()
    for coeff in (a, c, *hl.on_common_partition(a, c), a.tilde(), c.tilde()):
        xs = scattered(rng, coeff.breakpoints, -1.5, 1.5)
        assert same_bits(coeff.values(xs), coeff_loop_ref(coeff, xs, _seg_values))
        bp = coeff.breakpoints
        derivatives = segmentwise(bp, xs, lambda j, x: _seg_deriv(
            coeff.segments[j], bp[j], bp[j + 1], x))
        assert same_bits(derivatives, coeff_loop_ref(coeff, xs, _seg_deriv))
        for x in (0.3, xs[:, 0], xs[0]):
            assert same_bits(coeff.values(x), coeff_loop_ref(coeff, x, _seg_values))


def test_multiplier_values_match_mask_loop(rng):
    a, c = mixed_pair()
    q = hl.build_q(a, c)
    xs = scattered(rng, q.partition)
    assert same_bits(q.values(xs), q_values_ref(q, xs))
    xs = np.sort(xs.ravel())
    assert same_bits(q.values(xs), q_values_ref(q, xs))


@pytest.mark.parametrize("m, r", [(2, 0.4), (8, 0.5), (12, 0.6)])
def test_wave_evaluators_match_reference(rng, m, r):
    amps = hl.solve_analytic(hl.family(hl.UnstableFamilySpec(m, r)))
    x = scattered(rng, amps.partition)
    u_ref, du_ref = waves_ref(amps, x)
    assert same_bits(amps.eval(x), u_ref)
    assert same_bits(amps.deriv(x), du_ref)
    idx = lookup_oracle_ref(amps, x)
    for j in range(len(amps.a)):
        u, du = amps.eval_on_layer(j, x[idx == j], deriv=True)
        assert same_bits(u, u_ref[idx == j]) and same_bits(du, du_ref[idx == j])


def test_polynomial_source_matches_reference_off_breakpoints(rng):
    bp = np.array([-1.0, -0.3, 0.2, 1.0])
    f = hl.PiecewisePolynomial(bp, (np.array([2.0, -1.0, 0.5]), np.array([3.0]),
                                    np.array([-1.0, 4.0])))
    xs = rng.uniform(-1.0, 1.0, (17, 5))
    assert same_bits(f(xs), poly_ref(f, xs))


def test_polynomial_source_takes_right_piece_at_breakpoint():
    f = hl.PiecewisePolynomial(np.array([-1.0, 0.0, 1.0]),
                               (np.array([1.0]), np.array([2.0])))
    assert f(np.array([0.0]))[0] == 2.0
    assert poly_ref(f, np.array([0.0]))[0] == 1.0  # the left piece before


# -- alignment --------------------------------------------------------------------

def test_refine_matches_per_subinterval_reference(rng):
    a, c = mixed_pair()
    bp = hl.on_common_partition(a, c)[0].breakpoints
    extra = np.sort(np.concatenate([bp, rng.uniform(-1.0, 1.0, 9)]))
    for coeff in (a, c):
        for target in (bp, extra):
            new, ref = hl.refine(coeff, target), refine_ref(coeff, target)
            assert np.array_equal(new.breakpoints, ref.breakpoints)
            assert new.segments == ref.segments
            xs = scattered(rng, target)
            assert same_bits(new.values(xs), ref.values(xs))


def test_aligned_pair_is_returned_as_is():
    a, c = hl.on_common_partition(*mixed_pair())
    a2, c2 = hl.on_common_partition(a, c)
    assert a2 is a and c2 is c
    assert hl.refine(a, a.breakpoints.copy()) is a
    problem = hl.HelmholtzProblem(a=a, c=c, omega=2.0)
    assert problem.a is a and problem.c is c
    q = hl.build_q(problem.a, problem.c)
    assert q.a is a and q.c is c


def test_realignment_keeps_linear_ends():
    # left + 1.0 * (right - left) is not always right: interpolating the
    # end of a piece at the original breakpoint moved it by one ulp
    left, right = 4.707825907044957, 1.0061848270307963
    assert left + 1.0 * (right - left) != right
    a = hl.from_segments([-1.0, 1.0], [hl.Linear(left, right)])
    assert hl.refine(a, a.breakpoints).segments[0] == a.segments[0]
    split = hl.refine(a, np.array([-1.0, 0.3, 1.0])).segments
    assert split[0].left == left and split[1].right == right


def test_refinement_keeps_limits_at_original_breakpoints(rng):
    a, c = mixed_pair()
    ends = rng.uniform(0.5, 5.0, 41)
    bp = np.linspace(-1.0, 1.0, 41)
    linear = hl.from_segments(bp, [hl.Linear(*ends[j:j + 2])
                                   for j in range(40)])
    common = hl.on_common_partition(a, c)[0].breakpoints
    target = np.unique(np.concatenate([bp, common,
                                       rng.uniform(-1.0, 1.0, 60)]))
    for coeff in (a, c, linear):
        new = hl.refine(coeff, target)
        at = np.searchsorted(target, coeff.breakpoints)
        assert np.array_equal(target[at], coeff.breakpoints)
        for j, k in enumerate(at):
            if j > 0:
                assert same_bits(new.left_limit(k), coeff.left_limit(j))
            if j < coeff.n_segments:
                assert same_bits(new.right_limit(k), coeff.right_limit(j))


# -- one exponential per point ------------------------------------------------

def _bits_conj_equal_negated_exp(k, s) -> bool:
    return same_bits(np.conj(np.exp(1j * k * s)), np.exp(-1j * k * s))


def test_conjugate_phase_is_negated_exponent_on_random_phases(rng):
    k = rng.uniform(0.5, 18.0, 1 << 16)
    s = rng.uniform(0.0, 1.0, 1 << 16) * (18.0 / k)
    assert _bits_conj_equal_negated_exp(k, s)


@pytest.mark.parametrize("m, r", [(2, 0.4), (8, 0.5), (12, 0.6), (20, 0.5)])
def test_conjugate_phase_is_negated_exponent_on_probe_points(m, r):
    problem = hl.family(hl.UnstableFamilySpec(m, r))
    amps = hl.solve_analytic(problem)
    for level in range(4):
        nodes = hl.build_mesh(problem, 800 * 2**level).nodes
        h = np.diff(nodes)
        x = (nodes[:-1, None] + h[:, None] * G5_T[None, :]).ravel()
        idx = segment_of(amps.partition, x)
        assert _bits_conj_equal_negated_exp(amps.k[idx], x - amps.partition[idx])
