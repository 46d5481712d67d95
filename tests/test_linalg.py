import numpy as np
import pytest

from fiberdialysis.exceptions import AssemblyError, SolverError
from fiberdialysis.linalg import (SparseMatrix, assemble_from_triplets, fill_reducing_order,
                                 solve_linear)


def test_duplicate_entries_are_summed():
    A = assemble_from_triplets(2, [(0, 0, 1.0), (0, 0, 1.0)])
    assert A.nnz == 1
    assert A.toarray()[0, 0] == 2.0


def test_empty_entries_give_zero_matrix():
    A = assemble_from_triplets(3, [])
    assert A.nnz == 0
    assert np.all(A.toarray() == 0.0)


def test_out_of_range_index_rejected():
    with pytest.raises(AssemblyError):
        assemble_from_triplets(2, [(0, 2, 1.0)])
    with pytest.raises(AssemblyError):
        assemble_from_triplets(2, [(-1, 0, 1.0)])


def test_rows_sorted_after_finalization():
    A = assemble_from_triplets(3, [(1, 2, 5.0), (1, 0, 3.0), (0, 1, 1.0)])
    start, stop = A.row_offsets[1], A.row_offsets[2]
    assert list(A.col_indices[start:stop]) == [0, 2]


def test_identity_solve():
    A = assemble_from_triplets(4, [(i, i, 1.0) for i in range(4)])
    b = np.array([1.0, 2.0, 3.0, 4.0])
    assert np.allclose(solve_linear(A, b), b)


def test_diagonal_solve():
    A = assemble_from_triplets(2, [(0, 0, 2.0), (1, 1, 4.0)])
    x = solve_linear(A, np.array([2.0, 8.0]))
    assert np.allclose(x, [1.0, 2.0])


def test_laplacian_matches_dense_lu_oracle():
    # independent oracle: dense elimination of the same tridiagonal system
    n = 50
    dense = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    b = np.ones(n)
    expected = np.linalg.solve(dense, b)

    entries = [(i, i, 2.0) for i in range(n)]
    entries += [(i, i + 1, -1.0) for i in range(n - 1)]
    entries += [(i + 1, i, -1.0) for i in range(n - 1)]
    x = solve_linear(assemble_from_triplets(n, entries), b)
    assert np.linalg.norm(x - expected) <= 1e-9 * np.linalg.norm(expected)


def test_recovers_known_solution_on_random_systems():
    rng = np.random.default_rng(11)
    for _ in range(5):
        n = 30
        dense = rng.standard_normal((n, n)) + n * np.eye(n)  # well conditioned
        rows, cols = np.nonzero(dense)
        A = assemble_from_triplets(n, rows=rows, cols=cols, values=dense[rows, cols])
        x0 = rng.standard_normal(n)
        x = solve_linear(A, A.matvec(x0))
        assert np.linalg.norm(x - x0) <= 1e-9 * np.linalg.norm(x0)


def test_residual_contract():
    A = assemble_from_triplets(3, [(i, i, 1.0 + i) for i in range(3)])
    b = np.array([1.0, 1.0, 1.0])
    x = solve_linear(A, b)
    assert np.linalg.norm(A.matvec(x) - b) <= 1e-10 * (np.linalg.norm(b) + 1.0)


def test_singular_matrix_raises_solver_error():
    A = assemble_from_triplets(2, [(0, 0, 1.0)])  # second row empty
    with pytest.raises(SolverError):
        solve_linear(A, np.array([1.0, 1.0]))


def test_dimension_mismatch():
    A = assemble_from_triplets(2, [(0, 0, 1.0), (1, 1, 1.0)])
    with pytest.raises(SolverError):
        solve_linear(A, np.ones(3))


def _convection_diffusion(m, rng):
    """Nonsymmetric five-point operator on an m x m grid, random coefficients."""
    import scipy.sparse as sp
    lap = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(m, m))
    adv = sp.diags([-1.0, 1.0], [-1, 1], shape=(m, m))
    eye = sp.identity(m)
    A = (sp.kron(lap, eye) + sp.kron(eye, lap) + 0.3 * sp.kron(adv, eye)).tocsr()
    A.data *= rng.uniform(0.5, 1.5, A.nnz)
    return A


def test_fill_reducing_order_depends_on_pattern_only():
    import scipy.sparse.linalg as spla
    rng = np.random.default_rng(13)
    A = _convection_diffusion(12, rng)
    q = fill_reducing_order(A)
    # the order SuperLU takes when it factorizes A itself
    perm_c = spla.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A").perm_c
    assert np.array_equal(q, np.argsort(perm_c))
    B = A.copy()
    B.data = rng.standard_normal(B.nnz)
    assert np.array_equal(fill_reducing_order(B), q)


def test_preordered_solve_matches_ordered_solve():
    rng = np.random.default_rng(14)
    A = _convection_diffusion(12, rng)
    b = rng.standard_normal(A.shape[0])
    q = fill_reducing_order(A)
    x = solve_linear(SparseMatrix(A), b)
    xq = solve_linear(SparseMatrix(A[q][:, q].tocsc()), b[q], preordered=True)
    assert np.linalg.norm(xq - x[q]) <= 1e-12 * np.linalg.norm(x)


def test_non_square_rejected():
    import scipy.sparse as sp
    with pytest.raises(AssemblyError):
        SparseMatrix(sp.csr_matrix((2, 3)))
