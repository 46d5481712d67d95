"""Direct solution of the FEM/Newton linear systems.

Backed by scipy.sparse compressed storage and SuperLU; problem sizes here (a
few 1e4 unknowns) make a direct factorization the robust choice for the
nonsymmetric convection-dominated operators.  Every system of one pattern
shares a fill-reducing ordering computed once (``fill_reducing_order``), and
``solve_linear`` factorizes systems already permuted into that order.

A ``Factorization`` also serves nearby matrices of the same order: a Newton
solve factorizes its first Jacobian and solves each later one by iterative
refinement on those factors, factorizing again only when refinement stalls
before it reaches the accuracy of a direct solve.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .exceptions import AssemblyError, SolverError

_ORDERING = "MMD_AT_PLUS_A"  # near-structurally-symmetric systems: ~2x less fill than COLAMD
# largest last correction, relative to the solution, of an accepted refinement:
# on the Newton systems refinement stalls at 2-7e-15 when it converges, and at
# 1e-3 or above when the factors are too far from the matrix
_REFINED_CORRECTION = 1e-13


class SparseMatrix:
    """Square scipy sparse matrix (CSR or CSC; finalized: sorted, deduplicated),
    the input of ``solve_linear``, with its dimension ``n`` and ``nnz``.

    A CSC matrix is the form the factorization takes without conversion.
    ``lu`` is None or a ``Factorization`` for ``solve_linear`` to use: of
    this matrix, or of a nearby one in the same order to refine on.
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


def _column_norms(r):
    # plain sums, not np.linalg.norm: OpenBLAS threads long dot products, and
    # its second thread then spins against SuperLU
    return np.sqrt(np.sum(r * r, axis=0))


def _column_max(v):
    return np.max(np.abs(v), axis=0)


class Factorization:
    """Sparse LU factors of one matrix, taken in its given order.

    ``solve`` answers systems of that matrix; ``refine`` reuses the factors
    for a nearby matrix of the same order, such as a later Newton Jacobian.
    """

    def __init__(self, csc):
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

    def refine(self, csc, b, x0=None):
        """x with ``csc`` x = b for a matrix near the factorized one, by
        iterative refinement x <- x + LU^-1 (b - csc x) from the start
        ``x0`` (default 0); a start near x saves sweeps.

        Sweeps go on while the largest correction of every column at least
        halves, so they stop where roundoff stops them: there x is as
        accurate as a direct solve.  A stall with the last correction above
        ``_REFINED_CORRECTION`` of x means the factors are too far from
        ``csc``: returns None, and the caller factorizes ``csc`` instead.
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
        if not np.all(size_next <= _REFINED_CORRECTION * _column_max(x)):
            return None
        return x


def solve_linear(A: SparseMatrix, b, x0=None) -> np.ndarray:
    """Solve A x = b by sparse direct LU; deterministic for fixed inputs.

    ``b`` is a vector or an (n, k) array of k right-hand sides, which share
    one factorization.  A is factorized in its given order, which the
    caller has taken from ``fill_reducing_order``.  When ``A.lu`` holds the
    factors of a nearby matrix, A is first solved by refinement on them,
    starting from ``x0`` if given, and factorized only if that stalls;
    ``A.lu`` is left holding the factors used.  Raises SolverError
    (carrying the residual norm when available) on factorization breakdown
    or when the residual check of any column fails.
    """
    b = np.asarray(b, dtype=float)
    csc = A.to_csc()
    if csc.shape[0] != b.shape[0]:
        raise SolverError(f"dimension mismatch: matrix {csc.shape[0]}, rhs {b.shape[0]}")
    if A.lu is not None:
        x = A.lu.refine(csc, b, x0)
        if x is not None:
            return x
        A.lu = None  # release the stale factors before factorizing
    A.lu = Factorization(csc)
    return A.lu.solve(csc, b)
