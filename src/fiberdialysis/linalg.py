"""Direct solution of the FEM/Newton linear systems.

Backed by scipy.sparse compressed storage; problem sizes here (a few 1e4
unknowns) make a direct factorization the robust choice for the
nonsymmetric convection-dominated operators.  ``solve_linear`` factorizes a
system in its given order, which its caller makes a narrow band where it
can (``transport.NewtonPattern`` numbers the free dofs by axial column).

Two engines factorize, both with partial pivoting; which one takes a
matrix depends on its pattern alone (``BandLayout``, computed once per
pattern).  A matrix whose entries lie within kl below and ku above the
diagonal is a band matrix, and LAPACK's band LU (``sgbtrf``, ``sgbtrs``)
factorizes it in an array of (2 kl + ku + 1) n values with no ordering
search.  That array's size in float32 against ``_BAND_BYTES`` (16 MiB)
picks the engine:

- float32 band factors when the array fits, as on the Newton blocks of
  (40,6,4,5) (kl = ku = 67, 1.9 MiB) and (80,12,8,10) (kl = ku = 124,
  13.6 MiB; one LU takes 15 ms there, against 59-83 ms with SuperLU).  A
  direct solve on them refines in float64 to roundoff
  (``Factorization.refine``), in about 4 back-solves while cond * eps32 < 1
  (mixed-precision refinement).  The matrix and each right-hand side are
  divided by their largest entries before the cast, so none overflows;
- else SuperLU, which orders the matrix itself (MMD on A^T + A), as on
  (160,24,16,20): an LU of 0.57-0.65 s with 9.39M entries of fill.

Band factors give way to SuperLU on the same matrix when ``sgbtrf`` meets a
zero pivot or the refinement of a direct solve stalls short of roundoff, so
a solve fails only where SuperLU fails too; the band array is dropped
before SuperLU factorizes.

The BLAS behind ``scipy.linalg``, which every engine calls, is pinned to
one thread when this module is imported: on these block sizes OpenBLAS
threads only spin, taking twice the CPU time for no shorter wall time.

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
import scipy.sparse.linalg as spla
from scipy.linalg import _flapack, lapack

from .exceptions import AssemblyError, SolverError

# largest last correction, relative to the solution, of an accepted refinement:
# on the Newton systems refinement stalls at 2-7e-15 when it converges, and at
# 1e-3 or above when the factors are too far from the matrix
_REFINED_CORRECTION = 1e-13
# largest band array, in float32, the band engine factorizes: 1.9 MiB on
# (40,6,4,5), 13.6 MiB on (80,12,8,10); above it SuperLU factorizes.  See the
# module docstring
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
    ``layout`` is None or the ``BandLayout`` of its CSC pattern, which an
    owner of many matrices of one pattern computes once and hands to each.
    ``lu`` is None or a ``Factorization`` for ``solve_linear`` to use: of
    this matrix, or of a nearby one in the same order to refine on, and
    stays when the values ``data`` are overwritten in place.
    """

    def __init__(self, mat, layout=None):
        if mat.shape[0] != mat.shape[1]:
            raise AssemblyError(f"matrix must be square, got shape {mat.shape}")
        mat.sum_duplicates()
        mat.sort_indices()
        self._mat = mat
        self.n = mat.shape[0]
        self.layout = layout
        self.lu = None

    @property
    def nnz(self):
        return self._mat.nnz

    @property
    def data(self):
        return self._mat.data

    def to_csc(self):
        return self._mat.tocsc()


class BandLayout:
    """How the band engine stores a square CSC pattern (its values are
    ignored): the bandwidths ``kl`` and ``ku``, and ``position``, each
    stored entry's flat index in the Fortran-ordered float32 band array of
    ``rows`` x n values; ``position`` is None when that array exceeds
    ``_BAND_BYTES``: SuperLU factorizes."""

    def __init__(self, csc):
        n = csc.shape[0]
        # int32 holds every position: a band array within the cap has at
        # most _BAND_BYTES / 4 values
        cols = np.repeat(np.arange(n, dtype=np.int32), np.diff(csc.indptr))
        offset = csc.indices - cols
        self.kl, self.ku = int(np.max(offset, initial=0)), int(-np.min(offset, initial=0))
        self.rows = 2 * self.kl + self.ku + 1
        self.position = None
        if self.rows * n * 4 <= _BAND_BYTES:
            # LAPACK band storage: entry (i, j) in row kl + ku + i - j of
            # column j; the first kl rows are room for the fill of row swaps
            self.position = self.kl + self.ku + offset + self.rows * cols
            self.position.flags.writeable = False


def _scale(size):
    """``size`` where it is positive and finite, else 1: a divisor that
    neither divides by zero nor turns finite values into NaN."""
    return np.where((size > 0) & (size < np.inf), size, 1.0)


def _column_norms(v):
    """The Euclidean norm of each column of ``v``: inf where the column
    holds inf or its norm exceeds the float range, NaN where it holds NaN.
    Each column is scaled by its largest entry before it is squared, so
    that no square overflows."""
    # plain sums, not np.linalg.norm: OpenBLAS threads long dot products, and
    # its second thread then spins against SuperLU
    scale = _scale(_column_max(v))
    with np.errstate(over="ignore"):
        return scale * np.sqrt(np.sum((v / scale) ** 2, axis=0))


def _column_max(v):
    return np.max(np.abs(v), axis=0)


class _BandLU:
    """LAPACK float32 band LU factors (``sgbtrf``) of a CSC matrix with the
    pattern of ``layout``, taken of the matrix divided by its largest entry
    so that no entry overflows the cast; ``info`` > 0 is the 1-based column
    where elimination met a zero pivot.  ``solve`` takes and returns
    float64, and scales each column of its right-hand side the same way."""

    def __init__(self, csc, layout):
        self._scale = _scale(np.max(np.abs(csc.data), initial=0.0))
        ab = np.zeros(layout.rows * csc.shape[0], dtype=np.float32)
        ab[layout.position] = csc.data / self._scale
        self._ab, self._piv, self.info = lapack.sgbtrf(
            ab.reshape((layout.rows, -1), order="F"), layout.kl, layout.ku, overwrite_ab=1)
        self._kl, self._ku = layout.kl, layout.ku

    def solve(self, b):
        size = _scale(_column_max(b))
        x = lapack.sgbtrs(self._ab, self._kl, self._ku, (b / size).astype(np.float32),
                          self._piv)[0]
        with np.errstate(over="ignore"):  # a solution past the float range is inf
            return x.astype(float) * (size / self._scale)


class Factorization:
    """LU factors of one sparse matrix, taken in its given order by the
    engine its ``BandLayout`` picks (computed here when not given): float32
    band factors, or SuperLU's.

    ``solve`` answers systems of that matrix; ``refine`` reuses the factors
    for a nearby matrix of the same order, such as a later Newton Jacobian.
    Band factors that meet a zero pivot, or on which ``solve`` cannot
    refine to roundoff, are replaced by SuperLU's.
    """

    def __init__(self, csc, layout=None):
        layout = BandLayout(csc) if layout is None else layout
        self._lu = None if layout.position is None else _BandLU(csc, layout)
        # a zero pivot in float32 need not be one in float64
        if self._lu is None or self._lu.info > 0:
            self._superlu(csc)

    def _superlu(self, csc):
        self._lu = None  # the band array goes before SuperLU's factors come
        try:
            self._lu = spla.splu(csc, permc_spec="MMD_AT_PLUS_A")
        except RuntimeError as exc:  # SuperLU signals singularity this way
            raise SolverError(f"sparse LU failed: {exc}") from exc

    def solve(self, csc, b) -> np.ndarray:
        """x with ``csc`` x = b, ``csc`` being the factorized matrix: one
        back-solve on SuperLU's factors, or on band factors refinement to
        roundoff (SuperLU's back-solve if that stalls), then the finite and
        residual checks of ``solve_linear``; the residual check of a column
        fails unless its residual and its limit are finite and the residual
        is within the limit."""
        x = None
        if isinstance(self._lu, _BandLU):
            x = self.refine(csc, b)
            if x is None:  # the matrix is too ill-conditioned for float32 factors
                self._superlu(csc)
        try:
            if x is None:
                x = self._lu.solve(b)
        except RuntimeError as exc:
            raise SolverError(f"sparse LU failed: {exc}") from exc
        if not np.all(np.isfinite(x)):
            raise SolverError("sparse LU produced non-finite solution", residual=np.inf)
        residual = _column_norms(csc @ x - b)
        limit = 1e-10 * (_column_norms(b) + 1.0)
        # a NaN residual or an infinite limit fails too: inf <= inf would pass
        failed = ~((residual <= limit) & (limit < np.inf))
        if np.any(failed):
            k = np.argmax(failed)
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
    one factorization.  A is factorized in its given order, with the
    engine ``A.layout`` picks (see ``BandLayout``).  When ``A.lu`` holds the
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
    A.lu = Factorization(csc, A.layout)
    return A.lu.solve(csc, b)
