"""Direct solution of the FEM/Newton linear systems.

Backed by scipy.sparse compressed storage; problem sizes here (a few 1e4
unknowns) make a direct factorization the robust choice for the
nonsymmetric convection-dominated operators.  ``solve_linear`` factorizes a
system in its given order, which its caller makes a narrow band where it
can (``transport.NewtonPattern`` numbers the free dofs by axial column).

One band engine, in two precisions, and SuperLU factorize, all with
partial pivoting; which one takes a matrix depends on its pattern alone
(``BandLayout``, computed once per pattern).  A matrix whose entries lie
within kl below and ku above the diagonal is a band matrix, and LAPACK's
band LU (``gbtrf``, ``gbtrs``) factorizes it in an array of
(2 kl + ku + 1) n values with no ordering search.  That array's size
against ``_BAND_BYTES`` (16 MiB) picks the engine:

- float64 band factors when the array fits in float64, as on the coarse
  Newton block (40,6,4,5) (kl = ku = 67, 3.8 MiB) and every smaller one;
- else float32 band factors when it fits in float32, as on the default
  block (80,12,8,10) (kl = ku = 124, 13.6 MiB; 27.2 MiB in float64).  A
  direct solve on them refines in float64 to roundoff
  (``Factorization.refine``), in about 4 back-solves while
  cond * eps32 < 1 (mixed-precision refinement).  One LU takes 15 ms
  there, against 59-83 ms with SuperLU, whose factors hold 1.41M entries;
- else SuperLU, which orders the matrix itself (MMD on A^T + A), as on
  (160,24,16,20): an LU of 0.9 s with 9.14M entries of fill.

Float32 factors give way to SuperLU on the same matrix when ``sgbtrf``
meets a zero pivot or the refinement of a direct solve stalls short of
roundoff, so they fail no solve that float64 factors would have solved;
the band array is dropped before SuperLU factorizes.

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
# largest band array the band engine factorizes, in float64 if it fits, else
# in float32: 3.8 MiB (float64) on (40,6,4,5), 13.6 MiB (float32) on
# (80,12,8,10); above it SuperLU factorizes.  See the module docstring
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
    ignored): the bandwidths ``kl`` and ``ku``, the precision ``dtype`` of
    its band factors, and ``position``, each stored entry's flat index in
    the Fortran-ordered band array of ``rows`` x n values.  ``dtype`` is
    float64 when that array fits ``_BAND_BYTES`` in float64, else float32
    when it fits in float32, else None (and ``position`` None): SuperLU
    factorizes."""

    def __init__(self, csc):
        n = csc.shape[0]
        # int32 holds every position: a band array within the cap has at
        # most _BAND_BYTES / 4 values
        cols = np.repeat(np.arange(n, dtype=np.int32), np.diff(csc.indptr))
        offset = csc.indices - cols
        self.kl, self.ku = int(np.max(offset, initial=0)), int(-np.min(offset, initial=0))
        self.rows = 2 * self.kl + self.ku + 1
        self.dtype = next((dtype for dtype in (np.float64, np.float32)
                           if self.rows * n * np.dtype(dtype).itemsize <= _BAND_BYTES), None)
        self.position = None
        if self.dtype is not None:
            # LAPACK band storage: entry (i, j) in row kl + ku + i - j of
            # column j; the first kl rows are room for the fill of row swaps
            self.position = self.kl + self.ku + offset + self.rows * cols
            self.position.flags.writeable = False


def _column_norms(r):
    # plain sums, not np.linalg.norm: OpenBLAS threads long dot products, and
    # its second thread then spins against SuperLU
    return np.sqrt(np.sum(r * r, axis=0))


def _column_max(v):
    return np.max(np.abs(v), axis=0)


class _BandLU:
    """LAPACK band LU factors (``gbtrf``) of a CSC matrix with the pattern of
    ``layout``, in its precision; ``info`` > 0 is the 1-based column where
    elimination met a zero pivot.  ``solve`` takes and returns float64."""

    def __init__(self, csc, layout):
        ab = np.zeros(layout.rows * csc.shape[0], dtype=layout.dtype)
        ab[layout.position] = csc.data
        gbtrf, self._gbtrs = lapack.get_lapack_funcs(("gbtrf", "gbtrs"), dtype=layout.dtype)
        self._ab, self._piv, self.info = gbtrf(ab.reshape((layout.rows, -1), order="F"),
                                               layout.kl, layout.ku, overwrite_ab=1)
        self._kl, self._ku = layout.kl, layout.ku
        self.dtype = layout.dtype

    def solve(self, b):
        x = self._gbtrs(self._ab, self._kl, self._ku, b.astype(self.dtype, copy=False),
                        self._piv)[0]
        return x.astype(float, copy=False)


class Factorization:
    """LU factors of one sparse matrix, taken in its given order by the
    engine its ``BandLayout`` picks (computed here when not given): band
    factors in float64 or float32, or SuperLU's.

    ``solve`` answers systems of that matrix; ``refine`` reuses the factors
    for a nearby matrix of the same order, such as a later Newton Jacobian.
    Float32 band factors that meet a zero pivot, or on which ``solve``
    cannot refine to roundoff, are replaced by SuperLU's.
    """

    def __init__(self, csc, layout=None):
        layout = BandLayout(csc) if layout is None else layout
        self._lu = None if layout.dtype is None else _BandLU(csc, layout)
        if self._lu is None:
            self._superlu(csc)
        elif self._lu.info > 0:
            if self._lu.dtype == np.float64:
                raise SolverError(
                    f"sparse LU failed: band matrix is singular (pivot {self._lu.info})")
            self._superlu(csc)  # a zero pivot in float32 need not be one in float64

    def _superlu(self, csc):
        self._lu = None  # the band array goes before SuperLU's factors come
        try:
            self._lu = spla.splu(csc, permc_spec="MMD_AT_PLUS_A")
        except RuntimeError as exc:  # SuperLU signals singularity this way
            raise SolverError(f"sparse LU failed: {exc}") from exc

    def solve(self, csc, b) -> np.ndarray:
        """x with ``csc`` x = b, ``csc`` being the factorized matrix: one
        back-solve, or on float32 factors refinement to roundoff (SuperLU's
        back-solve if that stalls), then the finite and residual checks of
        ``solve_linear``."""
        x = None
        if isinstance(self._lu, _BandLU) and self._lu.dtype == np.float32:
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
