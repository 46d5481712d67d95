"""Direct solution of the FEM/Newton linear systems.

Backed by scipy.sparse compressed storage; problem sizes here (a few 1e4
unknowns) make a direct factorization the robust choice for the
nonsymmetric convection-dominated operators.  Every system of one pattern
shares an order computed once (``factorization_order``), and
``solve_linear`` factorizes systems already permuted into that order.

Two engines factorize, both with partial pivoting; which one takes a matrix
depends on its size alone.  A matrix whose entries lie within kl below and
ku above the diagonal is a band matrix, and LAPACK's band LU (``dgbtrf``,
``dgbtrs``) factorizes it in an array of (2 kl + ku + 1) n values with no
ordering search.  When that array fits ``_BAND_BYTES`` (16 MiB), the band
engine takes the matrix; above it, SuperLU takes it, in a fill-reducing
order (``fill_reducing_order``).  The cap is set by memory: on the coarse
Newton block (40,6,4,5) in its axial-column order (kl = ku = 67) the band
array takes 4.0 MB and factorizes about 3x faster than SuperLU; on the
default (80,12,8,10) block (kl = ku = 124) it would take 28.5 MB, where
SuperLU's factors hold 1.40M entries (11 MB of values).

The BLAS behind ``scipy.linalg``, which both engines call, is pinned to one
thread when this module is imported: on these block sizes OpenBLAS threads
only spin, taking twice the CPU time for no shorter wall time.

A ``Factorization`` also serves nearby matrices of the same order: a Newton
solve factorizes its first Jacobian and solves each later one by iterative
refinement on those factors, factorizing again only when refinement stalls
before it reaches the accuracy of a direct solve.  Given a relative
tolerance, refinement stops earlier, as soon as its corrections are that
small next to the distance it has moved from its start: an inexact Newton
step needs its error small only next to its own update.
"""

from __future__ import annotations

import ctypes

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import _flapack, lapack

from .exceptions import AssemblyError, SolverError

_ORDERING = "MMD_AT_PLUS_A"  # near-structurally-symmetric systems: ~2x less fill than COLAMD
# largest last correction, relative to the solution, of an accepted refinement:
# on the Newton systems refinement stalls at 2-7e-15 when it converges, and at
# 1e-3 or above when the factors are too far from the matrix
_REFINED_CORRECTION = 1e-13
# largest band array (float64) the band engine factorizes; see the module docstring
_BAND_BYTES = 16 * 2**20
_BLAS_SET_THREADS = ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
                     "openblas_set_num_threads64_", "openblas_set_num_threads")


def _pin_blas_to_one_thread():
    """Set the OpenBLAS behind ``scipy.linalg`` to one thread, if that
    library exports a way to; other BLAS libraries are left as they are."""
    lib = ctypes.CDLL(_flapack.__file__)  # its symbol lookup reaches the BLAS it links
    set_threads = next((getattr(lib, name) for name in _BLAS_SET_THREADS
                        if hasattr(lib, name)), None)
    if set_threads is not None:
        set_threads.argtypes = [ctypes.c_int]
        set_threads.restype = None
        set_threads(1)


_pin_blas_to_one_thread()


class SparseMatrix:
    """Square scipy sparse matrix (CSR or CSC; finalized: sorted, deduplicated),
    the input of ``solve_linear``, with its dimension ``n`` and ``nnz``.

    A CSC matrix is the form the factorization takes without conversion.
    ``lu`` is None or a ``Factorization`` for ``solve_linear`` to use: of
    this matrix, or of a nearby one in the same order to refine on, and
    stays when the values ``data`` are overwritten in place.
    """

    def __init__(self, mat):
        if mat.shape[0] != mat.shape[1]:
            raise AssemblyError(f"matrix must be square, got shape {mat.shape}")
        mat.sum_duplicates()
        mat.sort_indices()
        self._mat = mat
        self.n = mat.shape[0]
        self.lu = None

    @property
    def nnz(self):
        return self._mat.nnz

    @property
    def data(self):
        return self._mat.data

    def to_csc(self):
        return self._mat.tocsc()


def fill_reducing_order(A) -> np.ndarray:
    """Symmetric permutation ``q`` that SuperLU's MMD_AT_PLUS_A ordering picks
    for the pattern of the square matrix A (its values are ignored); factorize
    ``A[q][:, q]`` with ``solve_linear``.

    SuperLU orders from the pattern alone before it factorizes, so a cheap
    incomplete factorization that drops all fill, of a diagonally dominant
    matrix with that pattern, yields the same order as a full one.
    """
    pattern = sp.csc_matrix(A, dtype=float, copy=True)
    pattern.data[:] = 1.0
    n = pattern.shape[0]
    surrogate = (pattern + sp.identity(n, format="csc") * (n + 1.0)).tocsc()
    lu = spla.spilu(surrogate, drop_tol=1.0, fill_factor=1, permc_spec=_ORDERING)
    # SuperLU moves column j to position perm_c[j]; q lists columns by position
    return np.argsort(lu.perm_c).astype(np.int32)


def _bandwidths(rows, cols):
    """(kl, ku): how far the entries at (rows, cols) reach below and above
    the diagonal."""
    offset = rows - cols
    return int(np.max(offset, initial=0)), int(-np.min(offset, initial=0))


def _band_fits(n, kl, ku):
    return (2 * kl + ku + 1) * n * 8 <= _BAND_BYTES


def factorization_order(A, band_order) -> np.ndarray:
    """Symmetric permutation to factorize the square matrix A in (its values
    are ignored): ``band_order`` when A in that order is a band matrix small
    enough for the band engine, else ``fill_reducing_order(A)``."""
    coo = sp.coo_matrix(A)
    position = np.argsort(band_order)
    if _band_fits(A.shape[0], *_bandwidths(position[coo.row], position[coo.col])):
        return band_order
    return fill_reducing_order(A)


def _column_norms(r):
    # plain sums, not np.linalg.norm: OpenBLAS threads long dot products, and
    # its second thread then spins against SuperLU
    return np.sqrt(np.sum(r * r, axis=0))


def _column_max(v):
    return np.max(np.abs(v), axis=0)


class _BandLU:
    """LAPACK band LU factors (``dgbtrf``) of a CSC matrix whose entries lie
    within ``kl`` below and ``ku`` above the diagonal; ``cols`` lists each
    stored entry's column."""

    def __init__(self, csc, cols, kl, ku):
        # LAPACK band storage: entry (i, j) in row kl + ku + i - j of column
        # j; the first kl rows are room for the fill that row swaps make
        ab = np.zeros((2 * kl + ku + 1, csc.shape[0]), order="F")
        ab[kl + ku + csc.indices - cols, cols] = csc.data
        self._ab, self._piv, info = lapack.dgbtrf(ab, kl, ku, overwrite_ab=1)
        if info > 0:
            raise SolverError(f"sparse LU failed: band matrix is singular (pivot {info})")
        self._kl, self._ku = kl, ku

    def solve(self, b):
        return lapack.dgbtrs(self._ab, self._kl, self._ku, b, self._piv)[0]


class Factorization:
    """LU factors of one sparse matrix, taken in its given order: LAPACK's
    band LU when its band array fits ``_BAND_BYTES``, else SuperLU's.

    ``solve`` answers systems of that matrix; ``refine`` reuses the factors
    for a nearby matrix of the same order, such as a later Newton Jacobian.
    """

    def __init__(self, csc):
        n = csc.shape[0]
        cols = np.repeat(np.arange(n), np.diff(csc.indptr))
        kl, ku = _bandwidths(csc.indices, cols)
        if _band_fits(n, kl, ku):
            self._lu = _BandLU(csc, cols, kl, ku)
        else:
            try:
                self._lu = spla.splu(csc, permc_spec="NATURAL")
            except RuntimeError as exc:  # SuperLU signals singularity this way
                raise SolverError(f"sparse LU failed: {exc}") from exc

    def solve(self, csc, b) -> np.ndarray:
        """x with ``csc`` x = b, ``csc`` being the factorized matrix: one
        back-solve, then the finite and residual checks of ``solve_linear``."""
        try:
            x = self._lu.solve(b)
        except RuntimeError as exc:
            raise SolverError(f"sparse LU failed: {exc}") from exc
        if not np.all(np.isfinite(x)):
            raise SolverError("sparse LU produced non-finite solution", residual=np.inf)
        residual = _column_norms(csc @ x - b)
        limit = 1e-10 * (_column_norms(b) + 1.0)
        if np.any(residual > limit):
            k = np.argmax(residual / limit)
            residual, limit = np.ravel(residual)[k], np.ravel(limit)[k]
            raise SolverError(
                f"linear solve residual {residual:.3e} exceeds tolerance {limit:.3e}",
                residual=residual)
        return x

    def refine(self, csc, b, x0=None, rtol=None):
        """x with ``csc`` x = b for a matrix near the factorized one, by
        iterative refinement x <- x + LU^-1 (b - csc x) from the start
        ``x0`` (default 0); a start near x saves sweeps.

        Sweeps go on while the largest correction of every column at least
        halves, so they stop where roundoff stops them: there x is as
        accurate as a direct solve.  With ``rtol`` they stop sooner, once
        every column's last correction is at most ``rtol * max|x - x0|``;
        the error left is then about that size.  A stall with the last
        correction above ``_REFINED_CORRECTION`` of x means the factors are
        too far from ``csc``: returns None, and the caller factorizes
        ``csc`` instead.
        """
        if x0 is None:
            x0 = np.zeros_like(b)
        dx = self._lu.solve(b - csc @ x0)
        x, size = x0 + dx, _column_max(dx)
        while True:
            dx = self._lu.solve(b - csc @ x)
            size_next = _column_max(dx)
            if not np.all(size_next < 0.5 * size):
                break
            x, size = x + dx, size_next
            if rtol is not None and np.all(size <= rtol * _column_max(x - x0)):
                return x
        if not np.all(size_next <= _REFINED_CORRECTION * _column_max(x)):
            return None
        return x


def solve_linear(A: SparseMatrix, b, x0=None, rtol=None) -> np.ndarray:
    """Solve A x = b by sparse direct LU; deterministic for fixed inputs.

    ``b`` is a vector or an (n, k) array of k right-hand sides, which share
    one factorization.  A is factorized in its given order, which the
    caller has taken from ``factorization_order``.  When ``A.lu`` holds the
    factors of a nearby matrix, A is first solved by refinement on them,
    starting from ``x0`` if given and to ``rtol`` if given (see
    ``Factorization.refine``), and factorized only if that stalls;
    ``A.lu`` is left holding the factors used.  Raises SolverError
    (carrying the residual norm when available) on factorization breakdown
    or when the residual check of any column fails.
    """
    b = np.asarray(b, dtype=float)
    csc = A.to_csc()
    if csc.shape[0] != b.shape[0]:
        raise SolverError(f"dimension mismatch: matrix {csc.shape[0]}, rhs {b.shape[0]}")
    if A.lu is not None:
        x = A.lu.refine(csc, b, x0, rtol)
        if x is not None:
            return x
        A.lu = None  # release the stale factors before factorizing
    A.lu = Factorization(csc)
    return A.lu.solve(csc, b)
