"""Conforming P1 finite elements for the 1D heterogeneous problem.

A mesh is a partition plus one element count per subinterval, so subinterval
j owns a known run of elements; it stores no nodes, but computes any run of
them with `np.linspace`'s arithmetic, subinterval by subinterval.  Element
integrals
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
The solver calls of a refinement ladder (`assemble`, `factorize`, `solve`,
`solve_in_place`, `condition_estimate`) take an optional `Workspace`: one
byte buffer that lends them their mesh-sized arrays, one layout at a time
from its first byte, level after level, so a ladder run again maps no
fresh page.  Each ladder thread has its own (`experiments._run_ladder`
gives the layouts): the calling thread's holds only the finest level's
right-hand side, bands, factors and solution, which the condition
estimate reads; the helper thread's holds one coarse level at a time,
then the estimate's column block.  The pool of workspaces keeps its memory for the life of the
process, as much as the largest ladder run needs.  Without a workspace
every array is fresh; only the ladder passes one, since a lent
`solution.values` is overwritten by the next level.  The leaf-run
temporaries (0.5-1 MiB an array at `_SUM_LEAF` = 2^16) come from the heap
without page faults only because glibc's dynamic mmap threshold has been
raised, and it is raised when a mapped chunk below 32 MiB is freed: the
workspaces do that as a side effect of freeing their smaller buffers while
they grow.  Buffers mapped outside malloc raise nothing: an in-process
table1 pass then took about 237,000 minor faults (2-core Xeon).
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
import functools
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


class Workspace:
    """One byte buffer that lends its bytes out as arrays, in the order they
    are asked for, from the first byte after each `rewind`: one layout at a
    time.

    Each function of this module that takes a `workspace` gets its
    mesh-sized arrays through `_empty`: the next bytes of the buffer (every
    array starts a multiple of 64 bytes into it), or fresh numpy arrays
    without one.  An array that does not fit replaces the buffer by one of
    the next power of two bytes that holds it; the arrays lent before stay
    valid in the old buffer, which is freed with the last of them, and no
    page of the new buffer is touched beyond the bytes lent.  Each buffer
    is at least twice the one it replaces, so a growing workspace maps few
    buffers, each larger than any it freed (glibc keeps freed heap memory
    resident, but serves such a request with a fresh mapping).  So the
    buffer grows to the largest layout asked of it, and a layout asked for
    again maps no fresh page.  The lent arrays are views: they hold their
    values only until the same bytes are lent again, so a workspace lends to
    one thread, and lends a new layout only once nobody reads the last one.
    A refinement ladder gives each of its two threads one workspace, and
    the calling thread's holds only the finest level, which the other
    thread's condition estimate reads.
    """

    _ALIGN = 64

    def __init__(self):
        self._buffer = np.empty(0, dtype=np.uint8)
        self._cursor = 0

    def rewind(self) -> None:
        """Lend from the first byte again."""
        self._cursor = 0

    def _take(self, nbytes: int) -> np.ndarray:
        """The next `nbytes` bytes."""
        start = -(-self._cursor // self._ALIGN) * self._ALIGN
        self._cursor = start + nbytes
        if self._cursor > len(self._buffer):
            self._buffer = None  # freed first if no array of it is alive
            self._buffer = np.empty(1 << (self._cursor - 1).bit_length(),
                                    dtype=np.uint8)
        return self._buffer[start:self._cursor]

    def _release(self, array: np.ndarray) -> None:
        """Lend the bytes of `array` again if it is the last array lent."""
        start = array.ctypes.data - self._buffer.ctypes.data
        if start >= 0 and start + array.nbytes == self._cursor:
            self._cursor = start


def _empty(workspace: Optional[Workspace], shape, dtype, zero: bool = False,
           order: str = "C") -> np.ndarray:
    """An array of `shape` and `dtype` (zeroed if `zero`): the next bytes of
    `workspace`, or a fresh array without one."""
    dtype = np.dtype(dtype)
    if workspace is None:
        return (np.zeros if zero else np.empty)(shape, dtype, order=order)
    lent = workspace._take(int(np.prod(shape)) * dtype.itemsize)
    array = lent.view(dtype).reshape(shape, order=order)
    if zero:
        array.fill(0)
    return array


def _complex_copy(workspace: Optional[Workspace], a) -> np.ndarray:
    """A complex copy of the 1-D array `a`, through `_empty`."""
    copy = _empty(workspace, len(a), complex)
    copy[...] = a
    return copy


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
    n - 1 (the bits of `np.linspace(x0, x1, n + 1)` without its last node),
    then the last breakpoint, so every breakpoint is a node and subinterval
    j owns elements j*n .. (j+1)*n - 1.  The nodes are computed, not
    stored: `node_run(lo, hi)` gives nodes lo .. hi - 1, and `nodes` all of
    them, computed on first use; the mesh keeps only the float indices
    0 .. n - 1 of one subinterval.  Gaps too small for n elements give
    colliding nodes and are rejected."""

    partition: np.ndarray
    per_segment: int

    def __post_init__(self):
        if self.per_segment < 1:
            raise ValueError("element count per subinterval must be >= 1")
        object.__setattr__(self, "partition", np.asarray(self.partition, dtype=float))
        n = self.per_segment
        for lo in range(0, self.n_nodes - 1, n):  # one subinterval at a time
            run = self.node_run(lo, lo + n + 1)
            if not np.all(run[1:] > run[:-1]):
                raise ValueError("mesh nodes must be strictly increasing")

    @property
    def n_nodes(self) -> int:
        return (len(self.partition) - 1) * self.per_segment + 1

    @functools.cached_property
    def nodes(self) -> np.ndarray:
        return self.node_run(0, self.n_nodes)

    @functools.cached_property
    def _index(self) -> np.ndarray:
        """i = 0 .. n - 1 as floats: one subinterval's node indices."""
        return np.arange(self.per_segment, dtype=float)

    def node_run(self, lo: int, hi: int) -> np.ndarray:
        """Nodes lo .. hi - 1, with the bits of `nodes[lo:hi]`: a view of
        `nodes` once they are computed, else a new array."""
        if "nodes" in self.__dict__:
            return self.nodes[lo:hi]
        part, n = self.partition, self.per_segment
        run = np.empty(hi - lo)
        for j in range(lo // n, min(-(-hi // n), len(part) - 1)):
            start, stop = max(j * n, lo), min((j + 1) * n, hi)
            piece = run[start - lo:stop - lo]
            # linspace's arithmetic; where its step underflows to 0 (a
            # subnormal gap), its nodes collide too
            np.multiply(self._index[start - j * n:stop - j * n],
                        (part[j + 1] - part[j]) / n, out=piece)
            piece += part[j]
        if hi == self.n_nodes > lo:
            run[-1] = part[-1]
        return run

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
    copies of the bands (from `workspace`, if given), so `diag` and
    `offdiag` keep their values; its state is single-owner and cached after
    the first solve.
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

    def factorize(self, workspace: Optional[Workspace] = None):
        if self._factors is None:
            # LAPACK overwrites complex copies of the bands
            n = self.dimension
            dl, d, du = (_complex_copy(workspace, band)
                         for band in (self.offdiag, self.diag, self.offdiag))
            du2 = _empty(workspace, max(n - 2, 0), complex)
            ipiv = _empty(workspace, n, np.intc)
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
        if not isinstance(aseg, Constant) or not isinstance(cseg, Constant):
            x = mesh.node_run(start, stop + 1)
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


def assemble(problem: HelmholtzProblem, mesh: Mesh1D,
             workspace: Optional[Workspace] = None) -> BandedComplexSystem:
    """Assemble stiffness, weighted mass, impedance and source terms.

    The matrix realizes  int a u' v' - omega^2 int u v / c^2
    - i omega (sqrt(a)/c) u v  at impedance endpoints; a Dirichlet endpoint
    is eliminated symmetrically (homogeneous data, so the load is untouched).
    The elements are taken in the leaf runs of `_pairwise_tree` (at most
    `_SUM_LEAF` each), each with its own widths and element data, so no
    temporary is mesh-sized.  A node shared
    by two runs gets its right element's term from one run and its left
    element's from the next; IEEE addition commutes, so every entry has the
    bits of the whole-mesh sums.  The right-hand side, the diagonal and the
    off-diagonal come from `workspace`, if given, in that order.
    """
    om = problem.omega
    n = mesh.n_nodes
    rhs = _empty(workspace, n, complex, zero=True)
    # summed into the real parts of complex zeros: adding complex numbers
    # with zero imaginary parts gives the same bits
    diag = _empty(workspace, n, complex, zero=True)
    diag_re = diag.real
    offdiag = _empty(workspace, n - 1, float)
    for lo, k in _leaf_runs(n - 1):
        hi = lo + k
        x = mesh.node_run(lo, hi + 1)
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


def solve(system: BandedComplexSystem, on_solved=None,
          workspace: Optional[Workspace] = None) -> FemSolution:
    """Banded LU solve; the relative max-norm residual is always reported.

    The solution is computed in place in the array returned (from
    `workspace`, if given), between its Dirichlet zeros.  `on_solved`, if
    given, is called once with the free-node part of that array (a view)
    as soon as LAPACK returns, before the residual.  The max norms of b and of A x - b are taken run by run
    over the leaf runs of `_pairwise_tree` (at most `_SUM_LEAF` rows each);
    a maximum has no rounding order, so both keep their bits.
    """
    pad_l = int(system.dirichlet_left)
    values = _empty(workspace, system.dimension + pad_l + int(system.dirichlet_right),
                    complex)
    x = values[pad_l:pad_l + system.dimension]
    values[:pad_l] = values[pad_l + system.dimension:] = 0.0
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


def solve_in_place(system: BandedComplexSystem,
                   workspace: Optional[Workspace] = None) -> np.ndarray:
    """The nodal values, Dirichlet zeros included, from one LAPACK `zgtsv`
    call: it overwrites the system's diagonal, its right-hand side (with the
    solution) and two complex copies of the off-diagonal (from `workspace`,
    if given); the float64 one is dropped before the second copy, so
    without a workspace the peak is that of one complex off-diagonal and
    its copy.  No factors are kept and no residual is
    computed; the values have the bits of `solve(system).values`, at every
    dimension from 1 up.  The call consumes the system: any later solve,
    estimate, `matvec` or `norm1` on it raises ValueError.
    """
    n = system.dimension
    offdiag, system.offdiag = system.offdiag, None
    if workspace is not None:  # the first copy may start on offdiag's bytes
        workspace._release(offdiag)
    dl = _empty(workspace, len(offdiag), complex)
    # last run first, each through a run-sized copy (numpy does not guard a
    # casting assignment against overlap): dl starts at or after offdiag's
    # first byte, so dl[i] overwrites only entries from 2i on, read by then
    for lo, k in reversed(_leaf_runs(len(offdiag))):
        dl[lo:lo + k] = offdiag[lo:lo + k].copy()
    del offdiag
    du = _complex_copy(workspace, dl)
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

    def leaf_sum(lo, k):
        hi = lo + k
        x = mesh.node_run(lo, hi + 1)
        return np.sum(_slope2(values[lo:hi], values[lo + 1:hi + 1], x[1:] - x[:-1]))

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

    def leaf_sums(lo, k):
        hi = lo + k
        x = mesh.node_run(lo, hi + 1)
        h = x[1:] - x[:-1]
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


def condition_estimate(system: BandedComplexSystem, last=None,
                       workspace: Optional[Workspace] = None) -> float:
    """The 1-norm condition number ||A||_1 ||A^-1||_1, exact up to round-off.

    An irreducible tridiagonal symmetric matrix has a semiseparable inverse
    (Meurant 1992): with c_1 = A^-1 e_1 and c_n = A^-1 e_n,
    (A^-1)_ij = c_n[i] c_1[j] / c_1[n-1] for i <= j, and symmetrically.  So
    column j of A^-1 has 1-norm (|c_1[j]| P_j + |c_n[j]| S_{j+1}) / |c_1[n-1]|
    with P the prefix sums of |c_n| and S the suffix sums of |c_1|.  Both
    columns come from one two-column solve on the factors; or, given `last`,
    a Future of c_n (say, the solve of a right-hand side that is exactly
    e_n, which has its bits), only c_1 is solved and c_n is awaited from the
    Future.  One block of two complex columns (from `workspace`, if given)
    holds all of it: the solved columns, then |c_1| in the first quarter of
    its bytes (written over c_1 run by run), |c_n| in the second, P in the
    third and S in the fourth.  A zero off-diagonal entry (a reducible
    matrix) raises ValueError; a corner c_1[n-1] that is zero or not finite,
    or a result that is not finite, raises SingularSystemError.
    """
    n = system.dimension
    if n == 1:
        return 1.0
    if not np.all(system.offdiag):
        raise ValueError("the condition number needs an irreducible matrix: "
                         "an off-diagonal entry is zero")
    norm = system.norm1()  # run-sized temporaries, gone before the columns
    block = _empty(workspace, (n, 2), complex, order="F")
    cols = block[:, :2 if last is None else 1]
    cols[...] = 0.0
    cols[0, 0] = 1.0
    if last is None:
        cols[-1, 1] = 1.0
    system.solve_vector(cols, overwrite_b=True)
    # |c_1|, |c_n|, P and S: the block's bytes as four float64 columns
    first, last_abs, col_norms, suffix = block.T.reshape(-1).view(float).reshape(4, n)
    for lo, k in _leaf_runs(n):  # over c_1's own bytes, behind its reads
        # through a run-sized temporary: np.abs into memory that overlaps
        # its input takes another loop, with other last bits
        first[lo:lo + k] = np.abs(block[lo:lo + k, 0])
    np.abs(block[:, 1] if last is None else last.result(), out=last_abs)
    corner = first[-1]
    if not (np.isfinite(corner) and corner > 0.0):
        raise SingularSystemError(
            f"condition number: the inverse's corner entry is {corner}", n - 1)
    with np.errstate(over="ignore"):  # a non-finite kappa raises below
        # first * cumsum(last), plus last * the suffix sums of first, each
        # product written over its cumsum
        np.cumsum(last_abs, out=col_norms)
        np.multiply(first, col_norms, out=col_norms)
        suffix = np.cumsum(first[::-1], out=suffix)[-2::-1]
        np.multiply(last_abs[:-1], suffix, out=suffix)
        col_norms[:-1] += suffix
        kappa = norm * float(col_norms.max() / corner)
    if not np.isfinite(kappa):
        raise SingularSystemError("condition number overflows", n - 1)
    return kappa


def solve_problem(problem: HelmholtzProblem, mesh: Mesh1D):
    """Assemble and solve; returns (solution, system) for further queries."""
    system = assemble(problem, mesh)
    return solve(system), system
