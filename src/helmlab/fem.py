"""Conforming P1 finite elements for the 1D heterogeneous problem.

A mesh is a partition plus one element count per subinterval, so subinterval
j owns a known run of elements.  Element integrals are exact for
piecewise-constant and piecewise-linear coefficients (5-point Gauss for smooth
data and sources) and are computed one coefficient segment at a time, on the
elements of a run that the segment owns; a constant segment's element data
are four scalars, which the arithmetic broadcasts, so no array is filled with
a constant.  Assembly, the solve's residual and the norms pass over the mesh
in the leaf runs of `quadrature._pairwise_tree` (at most `_SUM_LEAF` elements
or rows each), so their temporaries are run-sized, not mesh-sized, and every
entry, maximum and sum has the bits of the whole-mesh computation.  The
complex symmetric tridiagonal system stores its diagonal and a single
off-diagonal; it is solved by banded LU with partial pivoting, and its 1-norm
condition number is exact up to round-off: it follows from the first and
last columns of the inverse, which one two-column solve on the factors gives,
or a one-column solve when the caller hands in the last column (the solution
for a right-hand side that is exactly e_n).  A system that needs no factors, no
residual and no norm but ||u_h'|| (`derivative_norm`) is solved by one
in-place `zgtsv` pass (`solve_in_place`), with the bits of the factorized
solve; this module alone chooses the LAPACK routines.  Condition numbers in
the instability studies reach 1e17, which is why plain pivot-free recursions
are not used here.  At that conditioning the finest ladder levels depend on
the last bit of the assembled entries, so reordering the element or assembly
arithmetic changes printed table cells.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.linalg import lapack

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


@dataclass(frozen=True)
class Mesh1D:
    """`per_segment` = n uniform elements on every subinterval of a partition:
    one `linspace` per subinterval, then the last breakpoint, so every
    breakpoint is a node and subinterval j owns elements j*n .. (j+1)*n - 1.
    Gaps too small for n elements give colliding nodes and are rejected."""

    partition: np.ndarray
    per_segment: int
    nodes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.per_segment < 1:
            raise ValueError("element count per subinterval must be >= 1")
        part = np.asarray(self.partition, dtype=float)
        pieces = [np.linspace(part[i], part[i + 1], self.per_segment + 1)[:-1]
                  for i in range(len(part) - 1)]
        nodes = np.concatenate(pieces + [part[-1:]])
        if not np.all(nodes[1:] > nodes[:-1]):
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
    both the sub- and the super-diagonal.  Factorization state is
    single-owner and cached after the first solve.
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
            if self.dimension <= 2:
                # the tridiagonal LAPACK wrapper needs n >= 3; fall back to
                # a dense matrix for these degenerate sizes
                dense = np.diag(self.diag)
                if self.dimension == 2:
                    dense[1, 0] = dense[0, 1] = self.offdiag[0]
                if np.linalg.matrix_rank(dense) < self.dimension:
                    raise SingularSystemError("singular small system", 0)
                self._factors = ("dense", dense)
                return self._factors
            dl, d, du, du2, ipiv, info = lapack.zgttrf(self.offdiag, self.diag,
                                                       self.offdiag)
            if info != 0:
                raise SingularSystemError(
                    f"zero pivot at row {info - 1} during banded LU", info - 1)
            self._factors = (dl, d, du, du2, ipiv)
        return self._factors

    def solve_vector(self, b: np.ndarray,
                     overwrite_b: bool = False) -> np.ndarray:
        """Solve A x = b for an (n,) vector or an (n, k) block `b`.

        With `overwrite_b` a contiguous complex `b` (F-ordered if a block)
        receives the solution and is returned; otherwise `b` is untouched.
        """
        fact = self.factorize()
        if isinstance(fact[0], str):  # dense fallback for n <= 2
            x = np.linalg.solve(fact[1], b)
            if overwrite_b:
                b[...] = x
                return b
            return x
        dl, d, du, du2, ipiv = fact
        x, info = lapack.zgttrs(dl, d, du, du2, ipiv, b.reshape(len(b), -1),
                                overwrite_b=overwrite_b)
        if info != 0:
            raise SingularSystemError(f"banded solve failed (info={info})", info)
        return x.reshape(b.shape)

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
        n = self.dimension
        col = np.abs(self.diag)
        if n > 1:
            off = np.abs(self.offdiag)
            col[1:] += off
            col[:-1] += off
        return float(col.max())


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
    offdiag = np.empty(n - 1, dtype=complex)
    rhs = np.zeros(n, dtype=complex)
    for lo, k in _leaf_runs(n - 1):
        hi = lo + k
        x = mesh.nodes[lo:hi + 1]
        h = x[1:] - x[:-1]
        left, right, off = diag_re[lo:hi], diag_re[lo + 1:hi + 1], offdiag[lo:hi]
        for sl, a_mean, p00, p01, p11 in _element_data(problem, mesh, lo, hi):
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
    return BandedComplexSystem(
        diag=diag[lo:hi], offdiag=offdiag[lo:hi - 1], rhs=rhs[lo:hi],
        dirichlet_left=not problem.bc.impedance_left,
        dirichlet_right=not problem.bc.impedance_right)


def solve(system: BandedComplexSystem) -> FemSolution:
    """Banded LU solve; the relative max-norm residual is always reported.

    The solution is computed in place in the array returned, between its
    Dirichlet zeros.  The max norms of b and of A x - b are taken run by run
    over the leaf runs of `_pairwise_tree` (at most `_SUM_LEAF` rows each);
    a maximum has no rounding order, so both keep their bits.
    """
    pad_l = int(system.dirichlet_left)
    values = np.zeros(system.dimension + pad_l + int(system.dirichlet_right),
                      dtype=complex)
    x = values[pad_l:pad_l + system.dimension]
    x[...] = system.rhs
    system.solve_vector(x, overwrite_b=True)
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
    call: it overwrites the system's diagonal, off-diagonal and right-hand
    side (the last with the solution), and needs one copy of the stored
    off-diagonal for the sub-diagonal.  No factors are kept and no residual
    is computed; the values have the bits of `solve(system).values`, which
    systems of dimension <= 2 take (the dense fallback of `factorize`).
    Either way the call consumes the system: any later solve, estimate,
    `matvec` or `norm1` on it raises ValueError.
    """
    if system.dimension <= 2:
        x, info = solve(system).values, 0
    else:
        _, _, _, x, info = lapack.zgtsv(
            system.offdiag.copy(), system.diag, system.offdiag,
            system.rhs.reshape(-1, 1), overwrite_dl=1, overwrite_d=1,
            overwrite_du=1, overwrite_b=1)
        x = x.reshape(-1)
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
        ul2, ur2 = np.abs(ul) ** 2, np.abs(ur) ** 2
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
        col_norms = first * np.cumsum(last)
        col_norms[:-1] += last[:-1] * np.cumsum(first[::-1])[-2::-1]
        kappa = system.norm1() * float(col_norms.max() / corner)
    if not np.isfinite(kappa):
        raise SingularSystemError("condition number overflows", n - 1)
    return kappa


def solve_problem(problem: HelmholtzProblem, mesh: Mesh1D):
    """Assemble and solve; returns (solution, system) for further queries."""
    system = assemble(problem, mesh)
    return solve(system), system
