"""Conforming P1 finite elements for the 1D heterogeneous problem.

A mesh is a partition plus one element count per subinterval, so subinterval
j owns a known run of elements; its nodes are written into one array with
`np.linspace`'s arithmetic, subinterval by subinterval.  Element integrals
are exact for piecewise-constant and piecewise-linear coefficients (5-point
Gauss for smooth data and sources) and are computed one coefficient segment
at a time, on the elements of a run that the segment owns; a constant
segment's element data are four scalars, which the arithmetic broadcasts, so
no array is filled with a constant.  Assembly, the solve's residual, the
matrix 1-norm and the norms pass over the mesh in the leaf runs of
`quadrature._pairwise_tree` (at most `_SUM_LEAF` elements or rows each), so
their temporaries are run-sized, not mesh-sized, and every entry, maximum
and sum has the bits of the whole-mesh computation.  The
complex symmetric tridiagonal system stores its diagonal and a single
off-diagonal, which is real (float64): only the impedance corners of the
matrix are complex.  It is solved by banded LU with partial pivoting on
complex copies of its bands, so the stored matrix stays intact; LAPACK's
tridiagonal routines take every dimension n >= 1, so systems of every size
go through them.  Its 1-norm condition number is exact up to round-off: it
follows from the first and last columns of the inverse, which one two-column
solve on the factors gives, or a one-column solve when the caller hands in
the last column (the solution for a right-hand side that is exactly e_n).
A system that needs no factors, no residual and no norm but ||u_h'||
(`derivative_norm`) is solved by one in-place `zgtsv` pass
(`solve_in_place`), with the bits of the factorized solve; this module
alone chooses the LAPACK routines.  It calls `zgttrf`,
`zgttrs` and `zgtsv` of scipy's bundled LAPACK through their function
pointers in `scipy.linalg.cython_lapack`, with ctypes, which releases the
GIL for the length of each call (scipy's f2py wrappers of `zgtsv` and
`zgttrf` hold it), so the two threads of a refinement ladder solve at the
same time; every array is checked for the layout and length that LAPACK
assumes before its pointer is passed.  Condition numbers in
the instability studies reach 1e17, which is why plain pivot-free recursions
are not used here.  At that conditioning the finest ladder levels depend on
the last bit of the assembled entries, so reordering the element or assembly
arithmetic changes printed table cells.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.linalg import cython_lapack

from .coeffs import Constant, Linear, _seg_values
from .problem import HelmholtzProblem
from .quadrature import G5_T, G5_W, _leaf_runs, _pairwise_tree


class MeshAlignmentError(ValueError):
    """The mesh was built on another partition than the problem's."""


class SingularSystemError(RuntimeError):
    """LU factorization hit a numerically singular pivot."""

    def __init__(self, msg: str, pivot_index: int):
        super().__init__(msg)
        self.pivot_index = pivot_index


def _lapack_routine(name: str):
    """The LAPACK routine `name` that scipy ships, from the function pointer
    in `scipy.linalg.cython_lapack`'s C-API table, as a ctypes function of
    pointer arguments; ctypes releases the GIL for the length of a call."""
    pyapi = ctypes.pythonapi
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", pyapi))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object,
                                    ctypes.c_char_p)(("PyCapsule_GetPointer", pyapi))
    capsule = cython_lapack.__pyx_capi__[name]
    signature = get_name(capsule)  # "void (int *, int *, ...)": all pointers
    return ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * (signature.count(b",") + 1))(
        get_pointer(capsule, signature))


_ZGTSV, _ZGTTRF, _ZGTTRS = map(_lapack_routine, ("zgtsv", "zgttrf", "zgttrs"))


def _band(a, length: int, dtype=np.complex128):
    """A pointer to `a` once it is a writeable C-contiguous 1-D array of
    `length` entries of `dtype`; else ValueError, since LAPACK reads and
    writes `length` entries there, whatever the array holds."""
    if not (isinstance(a, np.ndarray) and a.dtype == dtype and a.ndim == 1
            and a.flags.c_contiguous and a.flags.writeable and len(a) == length):
        raise ValueError(f"LAPACK needs a contiguous {np.dtype(dtype)} band of "
                         f"{length} entries")
    return a.ctypes


def _block(b, n: int):
    """A pointer to `b` once it is a writeable F-contiguous complex128 vector
    or block of n rows (its leading dimension); else ValueError."""
    if not (isinstance(b, np.ndarray) and b.dtype == np.complex128
            and b.ndim in (1, 2) and b.flags.f_contiguous and b.flags.writeable
            and len(b) == n):
        raise ValueError(f"LAPACK needs an F-contiguous complex128 block of "
                         f"{n} rows")
    return b.ctypes


def _lapack(routine, *args) -> int:
    """Call `routine` with `args`, Python ints passed by reference, and
    return its `info`; an illegal argument (info < 0) raises ValueError."""
    if any(isinstance(a, int) and not 0 <= a < 2**31 for a in args):
        raise ValueError("LAPACK takes sizes from 0 to 2^31 - 1")
    info = ctypes.c_int()
    routine(*[ctypes.byref(ctypes.c_int(a)) if isinstance(a, int) else a
              for a in args], ctypes.byref(info))
    if info.value < 0:
        raise ValueError(f"LAPACK rejected argument {-info.value}")
    return info.value


@dataclass(frozen=True)
class Mesh1D:
    """`per_segment` = n uniform elements on every subinterval of a partition:
    the nodes of subinterval [x0, x1] are i * ((x1 - x0) / n) + x0, i = 0 ..
    n - 1, written into one array (the bits of `np.linspace(x0, x1, n + 1)`
    without its last node), then the last breakpoint, so every breakpoint is
    a node and subinterval j owns elements j*n .. (j+1)*n - 1.  Gaps too
    small for n elements give colliding nodes and are rejected."""

    partition: np.ndarray
    per_segment: int
    nodes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.per_segment < 1:
            raise ValueError("element count per subinterval must be >= 1")
        part = np.asarray(self.partition, dtype=float)
        n = self.per_segment
        nodes = np.empty((len(part) - 1) * n + 1)
        index = np.arange(n, dtype=float)
        for j in range(len(part) - 1):
            # linspace's arithmetic; where its step underflows to 0 (a
            # subnormal gap), its nodes collide too
            run = nodes[j * n:(j + 1) * n]
            np.multiply(index, (part[j + 1] - part[j]) / n, out=run)
            run += part[j]
        nodes[-1] = part[-1]
        del index  # so the check's temporaries do not add to the peak
        if not all(np.all(nodes[lo + 1:lo + n + 1] > nodes[lo:lo + n])
                   for lo in range(0, len(nodes) - 1, n)):
            raise ValueError("mesh nodes must be strictly increasing")
        object.__setattr__(self, "partition", part)
        object.__setattr__(self, "nodes", nodes)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.nodes)

    def elements_of(self, j: int) -> slice:
        """The elements of subinterval j."""
        return slice(j * self.per_segment, (j + 1) * self.per_segment)


def build_mesh(problem: HelmholtzProblem, elems_per_subinterval: int) -> Mesh1D:
    """Uniform subdivision of every coefficient subinterval."""
    return Mesh1D(problem.partition, elems_per_subinterval)


@dataclass
class BandedComplexSystem:
    """Complex symmetric tridiagonal system over the free (non-Dirichlet) nodes.

    The matrix is symmetric (not Hermitian), so one array `offdiag` holds
    both the sub- and the super-diagonal; `assemble` stores it as float64
    (a complex one is accepted too).  The factorization runs on complex
    copies of the bands, so `diag` and `offdiag` keep their values; its
    state is single-owner and cached after the first solve.
    """

    diag: np.ndarray
    offdiag: np.ndarray
    rhs: np.ndarray
    dirichlet_left: bool
    dirichlet_right: bool
    _factors: Optional[tuple] = field(default=None, repr=False)

    @property
    def dimension(self) -> int:
        if self.diag is None:
            raise ValueError("the system was consumed by solve_in_place")
        return len(self.diag)

    def factorize(self):
        if self._factors is None:
            # LAPACK overwrites complex copies of the bands
            n = self.dimension
            dl, du = self.offdiag.astype(complex), self.offdiag.astype(complex)
            d, ipiv = self.diag.astype(complex), np.empty(n, dtype=np.intc)
            du2 = np.empty(max(n - 2, 0), dtype=complex)
            info = _lapack(_ZGTTRF, n, _band(dl, n - 1), _band(d, n),
                           _band(du, n - 1), _band(du2, len(du2)),
                           _band(ipiv, n, np.intc))
            if info != 0:
                raise SingularSystemError(
                    f"zero pivot at row {info - 1} during banded LU", info - 1)
            self._factors = (dl, d, du, du2, ipiv)
        return self._factors

    def solve_vector(self, b: np.ndarray,
                     overwrite_b: bool = False) -> np.ndarray:
        """Solve A x = b for an (n,) vector or an (n, k) block `b`.

        With `overwrite_b` a contiguous complex `b` (F-ordered if a block)
        receives the solution and is returned, and any other `b` raises
        ValueError; otherwise `b` is untouched.
        """
        dl, d, du, du2, ipiv = self.factorize()
        n = len(d)
        x = b if overwrite_b else b.astype(complex, order="F")
        _lapack(_ZGTTRS, b"N", n, x.size // n, _band(dl, n - 1), _band(d, n),
                _band(du, n - 1), _band(du2, len(du2)), _band(ipiv, n, np.intc),
                _block(x, n), n)
        return x

    def matvec(self, x: np.ndarray, lo: int = 0,
               hi: Optional[int] = None) -> np.ndarray:
        """Rows [lo, hi) of A x (default: all rows).  Each row adds its
        super-diagonal term before its sub-diagonal one."""
        n = self.dimension
        hi = n if hi is None else hi
        y = self.diag[lo:hi] * x[lo:hi]
        top = min(hi, n - 1)  # the rows that have a super-diagonal
        y[:top - lo] += self.offdiag[lo:top] * x[lo + 1:top + 1]
        bottom = max(lo, 1)  # the first row that has a sub-diagonal
        y[bottom - lo:] += self.offdiag[bottom - 1:hi - 1] * x[bottom - 1:hi - 1]
        return y

    def norm1(self) -> float:
        """max_i |d_i| + |o_{i-1}| + |o_i| (added in that order), taken over
        the leaf runs of `_pairwise_tree`, so no temporary is mesh-sized."""
        n = self.dimension

        def run_max(lo, hi):
            col = np.abs(self.diag[lo:hi])
            below = self.offdiag[max(lo - 1, 0):hi - 1]  # o_{i-1}, from i = 1
            col[hi - lo - len(below):] += np.abs(below)
            above = self.offdiag[lo:min(hi, n - 1)]  # o_i, up to i = n - 2
            col[:len(above)] += np.abs(above)
            return col.max()

        return float(np.max([run_max(lo, lo + k) for lo, k in _leaf_runs(n)]))


@dataclass(frozen=True)
class FemSolution:
    """Complex nodal values on the full mesh plus the solver residual."""

    values: np.ndarray
    residual: float


def _element_data(problem: HelmholtzProblem, mesh: Mesh1D, lo: int = 0,
                  hi: Optional[int] = None) -> list:
    """The element data of the element run [lo, hi) (default: every
    element), one entry per coefficient segment that the run meets.

    Each entry is (sl, a_mean, p00, p01, p11): the segment's elements as a
    slice of the run, their averaged a and the three 1/c^2 mass integrals
    p_ij = int_0^1 phi_i phi_j / c^2 dt on the unit element.  A Constant
    segment gives Python floats, a Linear or Smooth one arrays over sl, so
    callers broadcast either kind alike.  Exact for constant/linear segments,
    5-point Gauss otherwise.  By the mesh's ownership rule the run covers
    subintervals lo // n through ceil(hi / n) - 1 (n elements each); each
    element's values are those of the whole-mesh call.
    """
    part = problem.partition
    if not np.array_equal(mesh.partition, part):
        raise MeshAlignmentError("mesh was built on another partition")
    hi = mesh.n_nodes - 1 if hi is None else hi
    n = mesh.per_segment
    pieces = []
    for j in range(lo // n, -(-hi // n)):
        aseg, cseg = problem.a.segments[j], problem.c.segments[j]
        own = mesh.elements_of(j)
        start, stop = max(own.start, lo), min(own.stop, hi)
        x = mesh.nodes[start:stop + 1]
        xl, xr = x[:-1], x[1:]
        x0, x1 = part[j], part[j + 1]

        if isinstance(aseg, Constant):
            a_mean = aseg.value
        elif isinstance(aseg, Linear):
            al = _seg_values(aseg, x0, x1, xl)
            ar = _seg_values(aseg, x0, x1, xr)
            a_mean = 0.5 * (al + ar)
        else:
            xg = xl[:, None] + (xr - xl)[:, None] * G5_T[None, :]
            a_mean = _seg_values(aseg, x0, x1, xg.ravel()).reshape(
                xg.shape) @ G5_W

        if isinstance(cseg, Constant):
            inv = 1.0 / cseg.value ** 2
            p00, p01, p11 = inv / 3.0, inv / 6.0, inv / 3.0
        elif isinstance(cseg, Linear):
            cl = _seg_values(cseg, x0, x1, xl)
            cr = _seg_values(cseg, x0, x1, xr)
            j0, j1, j2 = _linear_mass_integrals(cl, cr)
            p00, p01, p11 = j0 - 2.0 * j1 + j2, j1 - j2, j2
        else:
            xg = xl[:, None] + (xr - xl)[:, None] * G5_T[None, :]
            inv = 1.0 / _seg_values(cseg, x0, x1, xg.ravel()).reshape(xg.shape) ** 2
            p00 = (inv * (1.0 - G5_T) ** 2) @ G5_W
            p01 = (inv * G5_T * (1.0 - G5_T)) @ G5_W
            p11 = (inv * G5_T**2) @ G5_W
        pieces.append((slice(start - lo, stop - lo), a_mean, p00, p01, p11))
    return pieces


def _linear_mass_integrals(cl: np.ndarray, cr: np.ndarray):
    """J_k = int_0^1 t^k / (cl + (cr-cl) t)^2 dt, exactly, k = 0, 1, 2.

    Near-constant elements switch to the constant-value limit to avoid the
    cancellation in the log formulas.
    """
    d = cr - cl
    small = np.abs(d) <= 1e-8 * np.abs(cl)
    d_safe = np.where(small, 1.0, d)
    log_ratio = np.log(np.where(small, 1.0, cr / cl))
    j0 = 1.0 / (cl * cr)
    j1 = np.where(small, 1.0 / (2.0 * cl**2),
                  (log_ratio + cl / cr - 1.0) / d_safe**2)
    j2 = np.where(small, 1.0 / (3.0 * cl**2),
                  (d_safe - 2.0 * cl * log_ratio - cl**2 / cr + cl) / d_safe**3)
    return j0, j1, j2


def assemble(problem: HelmholtzProblem, mesh: Mesh1D) -> BandedComplexSystem:
    """Assemble stiffness, weighted mass, impedance and source terms.

    The matrix realizes  int a u' v' - omega^2 int u v / c^2
    - i omega (sqrt(a)/c) u v  at impedance endpoints; a Dirichlet endpoint
    is eliminated symmetrically (homogeneous data, so the load is untouched).
    The elements are taken in the leaf runs of `_pairwise_tree` (at most
    `_SUM_LEAF` each), each with its own widths and element data, so no
    temporary is mesh-sized.  A node shared
    by two runs gets its right element's term from one run and its left
    element's from the next; IEEE addition commutes, so every entry has the
    bits of the whole-mesh sums.
    """
    om = problem.omega
    n = mesh.n_nodes
    # summed into the real parts of complex zeros: adding complex numbers
    # with zero imaginary parts gives the same bits
    diag = np.zeros(n, dtype=complex)
    diag_re = diag.real
    offdiag = np.empty(n - 1)
    rhs = np.zeros(n, dtype=complex)
    for lo, k in _leaf_runs(n - 1):
        hi = lo + k
        x = mesh.nodes[lo:hi + 1]
        h = x[1:] - x[:-1]
        left, right, off = diag_re[lo:hi], diag_re[lo + 1:hi + 1], offdiag[lo:hi]
        for sl, a_mean, p00, p01, p11 in _element_data(problem, mesh, lo, hi):
            kdiag = a_mean / h[sl]
            om2h = om**2 * h[sl]
            end = kdiag - om2h * p00
            left[sl] += end
            # a Constant segment's p00 and p11 are one float: same term
            right[sl] += end if isinstance(p11, float) and p11 == p00 \
                else kdiag - om2h * p11
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
    return BandedComplexSystem(
        diag=diag[lo:hi], offdiag=offdiag[lo:hi - 1], rhs=rhs[lo:hi],
        dirichlet_left=not problem.bc.impedance_left,
        dirichlet_right=not problem.bc.impedance_right)


def solve(system: BandedComplexSystem, on_solved=None) -> FemSolution:
    """Banded LU solve; the relative max-norm residual is always reported.

    The solution is computed in place in the array returned, between its
    Dirichlet zeros.  `on_solved`, if given, is called once with the
    free-node part of that array (a view) as soon as LAPACK returns, before
    the residual.  The max norms of b and of A x - b are taken run by run
    over the leaf runs of `_pairwise_tree` (at most `_SUM_LEAF` rows each);
    a maximum has no rounding order, so both keep their bits.
    """
    pad_l = int(system.dirichlet_left)
    values = np.zeros(system.dimension + pad_l + int(system.dirichlet_right),
                      dtype=complex)
    x = values[pad_l:pad_l + system.dimension]
    x[...] = system.rhs
    system.solve_vector(x, overwrite_b=True)
    if on_solved is not None:
        on_solved(x)
    runs = [(lo, lo + k) for lo, k in _leaf_runs(system.dimension)]
    b_inf = np.max([np.abs(system.rhs[lo:hi]).max() for lo, hi in runs])
    if b_inf == 0.0:
        residual = 0.0
    else:
        r_inf = np.max([np.abs(system.matvec(x, lo, hi) - system.rhs[lo:hi]).max()
                        for lo, hi in runs])
        residual = float(r_inf / b_inf)
    return FemSolution(values=values, residual=residual)


def solve_in_place(system: BandedComplexSystem) -> np.ndarray:
    """The nodal values, Dirichlet zeros included, from one LAPACK `zgtsv`
    call: it overwrites the system's diagonal, its right-hand side (with the
    solution) and two complex copies of the off-diagonal; the float64 one
    is freed before the second copy, so the peak is that of one complex
    off-diagonal and its copy.  No factors are kept and no residual is
    computed; the values have the bits of `solve(system).values`, at every
    dimension from 1 up.  The call consumes the system: any later solve,
    estimate, `matvec` or `norm1` on it raises ValueError.
    """
    n = system.dimension
    dl = system.offdiag.astype(complex)
    system.offdiag = None
    du = dl.copy()
    x = system.rhs
    info = _lapack(_ZGTSV, n, 1, _band(dl, n - 1), _band(system.diag, n),
                   _band(du, n - 1), _block(x, n), n)
    if system.dirichlet_left or system.dirichlet_right:
        x = np.pad(x, (int(system.dirichlet_left), int(system.dirichlet_right)))
    system.diag = system.offdiag = system.rhs = system._factors = None
    if info != 0:
        raise SingularSystemError(
            f"zero pivot at row {info - 1} during banded LU", info - 1)
    return x


def _slope2(ul: np.ndarray, ur: np.ndarray, h: np.ndarray) -> np.ndarray:
    """|u_h'|^2 on elements of width h with end values ul and ur."""
    return np.abs(ur - ul) ** 2 / h


def derivative_norm(values: np.ndarray, mesh: Mesh1D) -> float:
    """||u_h'|| of nodal values, with the bits of `norms(...)[0]`."""
    nodes = mesh.nodes

    def leaf_sum(lo, k):
        hi = lo + k
        return np.sum(_slope2(values[lo:hi], values[lo + 1:hi + 1],
                              nodes[lo + 1:hi + 1] - nodes[lo:hi]))

    return float(np.sqrt(float(_pairwise_tree(leaf_sum, 0, mesh.n_nodes - 1))))


def norms(solution: FemSolution, problem: HelmholtzProblem, mesh: Mesh1D):
    """(||u_h'||, ||(omega/c) u_h||, energy) with exact element integration.

    The P1 derivative is piecewise constant, so ||u_h'|| is exact; the
    weighted L2 term reuses the exact (or Gauss) element mass integrals; the
    energy combines the a-weighted derivative with the weighted L2 part.
    The three sums over elements of |ur - ul|^2 / h,
    h (|ul|^2 p00 + 2 Re(ul conj(ur)) p01 + |ur|^2 p11) and a |ur - ul|^2 / h
    are taken along `_pairwise_tree`: each leaf builds the widths and the
    element data of its own run, so the sums have the bits of one `np.sum`
    over the whole mesh and no temporary is mesh-sized.
    """
    u = solution.values
    nodes = mesh.nodes

    def leaf_sums(lo, k):
        hi = lo + k
        h = nodes[lo + 1:hi + 1] - nodes[lo:hi]
        ul, ur = u[lo:hi], u[lo + 1:hi + 1]
        slope2 = _slope2(ul, ur, h)
        u2 = np.abs(u[lo:hi + 1]) ** 2  # once per node of the run
        ul2, ur2 = u2[:-1], u2[1:]
        cross = 2.0 * (ul * np.conj(ur)).real
        mass, a_slope2 = np.empty(k), np.empty(k)
        for sl, a_mean, p00, p01, p11 in _element_data(problem, mesh, lo, hi):
            mass[sl] = h[sl] * (ul2[sl] * p00 + cross[sl] * p01 + ur2[sl] * p11)
            a_slope2[sl] = a_mean * slope2[sl]
        return np.array([np.sum(slope2), np.sum(mass), np.sum(a_slope2)])

    du2, mass2, energy_du2 = _pairwise_tree(leaf_sums, 0, mesh.n_nodes - 1)
    wu2 = float(problem.omega**2 * mass2)
    energy2 = float(energy_du2) + wu2
    return np.sqrt(float(du2)), np.sqrt(wu2), np.sqrt(energy2)


def condition_estimate(system: BandedComplexSystem, last=None) -> float:
    """The 1-norm condition number ||A||_1 ||A^-1||_1, exact up to round-off.

    An irreducible tridiagonal symmetric matrix has a semiseparable inverse
    (Meurant 1992): with c_1 = A^-1 e_1 and c_n = A^-1 e_n,
    (A^-1)_ij = c_n[i] c_1[j] / c_1[n-1] for i <= j, and symmetrically.  So
    column j of A^-1 has 1-norm (|c_1[j]| P_j + |c_n[j]| S_{j+1}) / |c_1[n-1]|
    with P the prefix sums of |c_n| and S the suffix sums of |c_1|.  Both
    columns come from one two-column solve on the factors; or, given `last`,
    a Future of c_n (say, the solve of a right-hand side that is exactly
    e_n, which has its bits), only c_1 is solved and c_n is awaited from the
    Future.  A zero off-diagonal entry (a reducible matrix) raises
    ValueError; a corner c_1[n-1] that is zero or not finite, or a result
    that is not finite, raises SingularSystemError.
    """
    n = system.dimension
    if n == 1:
        return 1.0
    if not np.all(system.offdiag):
        raise ValueError("the condition number needs an irreducible matrix: "
                         "an off-diagonal entry is zero")
    norm = system.norm1()  # run-sized temporaries, gone before the columns
    cols = np.zeros((n, 2 if last is None else 1), dtype=complex, order="F")
    cols[0, 0] = 1.0
    if last is None:
        cols[-1, 1] = 1.0
    system.solve_vector(cols, overwrite_b=True)
    mags = np.abs(cols)  # F-ordered like cols, so each column is contiguous
    del cols
    first = mags[:, 0]
    last = mags[:, 1] if last is None else np.abs(last.result())
    corner = first[-1]
    if not (np.isfinite(corner) and corner > 0.0):
        raise SingularSystemError(
            f"condition number: the inverse's corner entry is {corner}", n - 1)
    with np.errstate(over="ignore"):  # a non-finite kappa raises below
        # first * cumsum(last), plus last * the suffix sums of first, each
        # product written over its cumsum
        col_norms = np.cumsum(last)
        np.multiply(first, col_norms, out=col_norms)
        suffix = np.cumsum(first[::-1])[-2::-1]
        np.multiply(last[:-1], suffix, out=suffix)
        col_norms[:-1] += suffix
        kappa = norm * float(col_norms.max() / corner)
    if not np.isfinite(kappa):
        raise SingularSystemError("condition number overflows", n - 1)
    return kappa


def solve_problem(problem: HelmholtzProblem, mesh: Mesh1D):
    """Assemble and solve; returns (solution, system) for further queries."""
    system = assemble(problem, mesh)
    return solve(system), system
