"""Direct solution of the FEM/Newton linear systems.

Backed by scipy.sparse compressed storage and SuperLU; problem sizes here (a
few 1e4 unknowns) make a direct factorization the robust choice for the
nonsymmetric convection-dominated operators.  Every system of one pattern
shares a fill-reducing ordering computed once (``fill_reducing_order``), and
``solve_linear`` factorizes systems already permuted into that order.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .exceptions import AssemblyError, SolverError

_ORDERING = "MMD_AT_PLUS_A"  # near-structurally-symmetric systems: ~2x less fill than COLAMD


class SparseMatrix:
    """Square scipy sparse matrix (CSR or CSC; finalized: sorted, deduplicated),
    the input of ``solve_linear``, with its dimension ``n`` and ``nnz``.

    A CSC matrix is the form the factorization takes without conversion.
    """

    def __init__(self, mat):
        if mat.shape[0] != mat.shape[1]:
            raise AssemblyError(f"matrix must be square, got shape {mat.shape}")
        mat.sum_duplicates()
        mat.sort_indices()
        self._mat = mat
        self.n = mat.shape[0]

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


def solve_linear(A: SparseMatrix, b) -> np.ndarray:
    """Solve A x = b by sparse direct LU; deterministic for fixed inputs.

    ``b`` is a vector or an (n, k) array of k right-hand sides, which share
    one factorization.  A is factorized in its given order, which the
    caller has taken from ``fill_reducing_order``.  Raises SolverError
    (carrying the residual norm when available) on factorization breakdown
    or when the residual check of any column fails.
    """
    b = np.asarray(b, dtype=float)
    csc = A.to_csc()
    if csc.shape[0] != b.shape[0]:
        raise SolverError(f"dimension mismatch: matrix {csc.shape[0]}, rhs {b.shape[0]}")
    try:
        lu = spla.splu(csc, permc_spec="NATURAL")
        x = lu.solve(b)
    except RuntimeError as exc:  # SuperLU signals singularity this way
        raise SolverError(f"sparse LU failed: {exc}") from exc
    if not np.all(np.isfinite(x)):
        raise SolverError("sparse LU produced non-finite solution", residual=np.inf)
    # plain sums, not np.linalg.norm: OpenBLAS threads long dot products, and
    # its second thread then spins against SuperLU
    r = csc @ x - b
    limit = 1e-10 * (np.sqrt(np.sum(b * b, axis=0)) + 1.0)
    residual = np.sqrt(np.sum(r * r, axis=0))
    if np.any(residual > limit):
        k = np.argmax(residual / limit)
        residual, limit = np.ravel(residual)[k], np.ravel(limit)[k]
        raise SolverError(
            f"linear solve residual {residual:.3e} exceeds tolerance {limit:.3e}",
            residual=residual)
    return x
