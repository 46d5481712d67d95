"""Sparse assembly and direct solution of the FEM/Newton linear systems.

Backed by scipy.sparse compressed storage and SuperLU with a fill-reducing
ordering; problem sizes here (a few 1e4 unknowns) make a direct factorization
the robust choice for the nonsymmetric convection-dominated operators.  A
caller that factorizes many systems of one pattern computes the ordering
once (``fill_reducing_order``) and passes the systems pre-ordered.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .exceptions import AssemblyError, SolverError

_ORDERING = "MMD_AT_PLUS_A"  # near-structurally-symmetric systems: ~2x less fill than COLAMD


class SparseMatrix:
    """Square sparse matrix in compressed form (finalized: sorted, deduplicated).

    Rows are compressed (CSR) unless it wraps a CSC matrix, the form the
    factorization takes without conversion.
    """

    def __init__(self, mat):
        if mat.shape[0] != mat.shape[1]:
            raise AssemblyError(f"matrix must be square, got shape {mat.shape}")
        mat.sum_duplicates()
        mat.sort_indices()
        self._mat = mat
        self.n = mat.shape[0]

    @property
    def row_offsets(self):
        return self.to_csr().indptr

    @property
    def col_indices(self):
        return self.to_csr().indices

    @property
    def values(self):
        return self.to_csr().data

    @property
    def nnz(self):
        return self._mat.nnz

    def matvec(self, x):
        return self._mat @ x

    def to_csr(self):
        return self._mat.tocsr()

    def to_csc(self):
        return self._mat.tocsc()

    def toarray(self):
        return self._mat.toarray()


def assemble_from_triplets(n, entries=None, rows=None, cols=None, values=None) -> SparseMatrix:
    """Assemble an n x n SparseMatrix from (row, col, value) triplets.

    Accepts either ``entries`` as a sequence of triples or three parallel
    arrays; duplicate (row, col) entries are summed.
    """
    if entries is not None:
        arr = np.asarray(entries, dtype=float)
        if arr.size == 0:
            rows = np.empty(0, dtype=np.int64)
            cols = np.empty(0, dtype=np.int64)
            values = np.empty(0, dtype=float)
        else:
            if arr.ndim != 2 or arr.shape[1] != 3:
                raise AssemblyError("entries must be a sequence of (row, col, value) triples")
            rows = arr[:, 0]
            cols = arr[:, 1]
            values = arr[:, 2]
    rows = np.asarray(rows)
    cols = np.asarray(cols)
    values = np.asarray(values, dtype=float)
    if rows.size and (rows.min() < 0 or rows.max() >= n or cols.min() < 0 or cols.max() >= n):
        raise AssemblyError(f"triplet index out of range for dimension {n}")
    coo = sp.coo_matrix((values, (rows.astype(np.int64), cols.astype(np.int64))), shape=(n, n))
    return SparseMatrix(coo.tocsr())


def fill_reducing_order(A) -> np.ndarray:
    """Symmetric permutation ``q`` that SuperLU's MMD_AT_PLUS_A ordering picks
    for the pattern of the square matrix A (its values are ignored); factorize
    ``A[q][:, q]`` with ``solve_linear(..., preordered=True)``.

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


def solve_linear(A: SparseMatrix, b, preordered=False) -> np.ndarray:
    """Solve A x = b by sparse direct LU; deterministic for fixed inputs.

    With ``preordered`` A is factorized in its given order, which the caller
    has taken from ``fill_reducing_order``; otherwise SuperLU orders it.
    Raises SolverError (carrying the residual norm when available) on
    factorization breakdown or when the residual check fails.
    """
    b = np.asarray(b, dtype=float)
    csc = A.to_csc() if isinstance(A, SparseMatrix) else sp.csc_matrix(A)
    if csc.shape[0] != b.shape[0]:
        raise SolverError(f"dimension mismatch: matrix {csc.shape[0]}, rhs {b.shape[0]}")
    try:
        lu = spla.splu(csc, permc_spec="NATURAL" if preordered else _ORDERING)
        x = lu.solve(b)
    except RuntimeError as exc:  # SuperLU signals singularity this way
        raise SolverError(f"sparse LU failed: {exc}") from exc
    if not np.all(np.isfinite(x)):
        raise SolverError("sparse LU produced non-finite solution", residual=np.inf)
    # plain sums, not np.linalg.norm: OpenBLAS threads long dot products, and
    # its second thread then spins against SuperLU
    r = csc @ x - b
    bnorm = np.sqrt(np.sum(b * b))
    residual = np.sqrt(np.sum(r * r))
    if residual > 1e-10 * (bnorm + 1.0):
        raise SolverError(
            f"linear solve residual {residual:.3e} exceeds tolerance "
            f"{1e-10 * (bnorm + 1.0):.3e}", residual=residual)
    return x
