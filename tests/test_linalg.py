import numpy as np
import pytest
import scipy.sparse as sp

from fiberdialysis.exceptions import AssemblyError, SolverError
from fiberdialysis.linalg import Factorization, SparseMatrix, fill_reducing_order, solve_linear


def matrix(dense):
    return SparseMatrix(sp.csr_matrix(np.asarray(dense, dtype=float)))


def test_duplicate_entries_are_summed():
    # CSR with two stored entries at (0, 0)
    A = SparseMatrix(sp.csr_matrix(([1.0, 1.0, 1.0], [0, 0, 1], [0, 2, 3]), shape=(2, 2)))
    assert A.nnz == 2
    assert np.allclose(solve_linear(A, np.array([2.0, 1.0])), [1.0, 1.0])


def test_rows_sorted_after_finalization():
    # CSC stays CSC, so to_csc shows the wrapped matrix's own index order
    A = SparseMatrix(sp.csc_matrix(([5.0, 3.0, 1.0], [2, 0, 1], [0, 2, 3, 3]), shape=(3, 3)))
    csc = A.to_csc()
    assert list(csc.indices[csc.indptr[0]:csc.indptr[1]]) == [0, 2]


def test_identity_solve():
    A = matrix(np.eye(4))
    b = np.array([1.0, 2.0, 3.0, 4.0])
    assert np.allclose(solve_linear(A, b), b)


def test_diagonal_solve():
    A = matrix(np.diag([2.0, 4.0]))
    x = solve_linear(A, np.array([2.0, 8.0]))
    assert np.allclose(x, [1.0, 2.0])


def test_laplacian_matches_dense_lu_oracle():
    # independent oracle: dense elimination of the same tridiagonal system
    n = 50
    dense = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    b = np.ones(n)
    expected = np.linalg.solve(dense, b)

    A = SparseMatrix(sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n), format="csr"))
    x = solve_linear(A, b)
    assert np.linalg.norm(x - expected) <= 1e-9 * np.linalg.norm(expected)


def test_recovers_known_solution_on_random_systems():
    rng = np.random.default_rng(11)
    for _ in range(5):
        n = 30
        dense = rng.standard_normal((n, n)) + n * np.eye(n)  # well conditioned
        x0 = rng.standard_normal(n)
        x = solve_linear(matrix(dense), dense @ x0)
        assert np.linalg.norm(x - x0) <= 1e-9 * np.linalg.norm(x0)


def test_residual_contract():
    dense = np.diag([1.0, 2.0, 3.0])
    b = np.array([1.0, 1.0, 1.0])
    x = solve_linear(matrix(dense), b)
    assert np.linalg.norm(dense @ x - b) <= 1e-10 * (np.linalg.norm(b) + 1.0)


def test_singular_matrix_raises_solver_error():
    A = matrix([[1.0, 0.0], [0.0, 0.0]])  # second row empty
    with pytest.raises(SolverError):
        solve_linear(A, np.array([1.0, 1.0]))


def test_dimension_mismatch():
    A = matrix(np.eye(2))
    with pytest.raises(SolverError):
        solve_linear(A, np.ones(3))


def _convection_diffusion(m, rng):
    """Nonsymmetric five-point operator on an m x m grid, random coefficients."""
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
    import scipy.sparse.linalg as spla
    rng = np.random.default_rng(14)
    A = _convection_diffusion(12, rng)
    b = rng.standard_normal(A.shape[0])
    q = fill_reducing_order(A)
    x = spla.spsolve(A.tocsc(), b)
    xq = solve_linear(SparseMatrix(A[q][:, q].tocsc()), b[q])
    assert np.linalg.norm(xq - x[q]) <= 1e-12 * np.linalg.norm(x)


def test_multi_column_rhs_matches_single_column_solves():
    # one factorization, two back-solves
    rng = np.random.default_rng(15)
    A = SparseMatrix(_convection_diffusion(12, rng).tocsc())
    b = rng.standard_normal((A.n, 2))
    x = solve_linear(A, b)
    assert x.shape == (A.n, 2)
    for k in range(2):
        xk = solve_linear(A, b[:, k])
        assert np.linalg.norm(x[:, k] - xk) <= 1e-14 * np.linalg.norm(xk)


def test_refinement_on_nearby_factors_matches_direct_solve():
    # as between Newton steps: the same matrix but for a small change of its
    # diagonal blocks
    import scipy.sparse.linalg as spla
    rng = np.random.default_rng(16)
    A = _convection_diffusion(12, rng).tocsc()
    B = (A + sp.diags(0.005 * rng.uniform(-1.0, 1.0, A.shape[0]))).tocsc()
    b = rng.standard_normal((A.shape[0], 2))
    expected = spla.spsolve(B, b)
    factors = Factorization(A)
    x = factors.refine(B, b)
    assert np.linalg.norm(x - expected) <= 1e-12 * np.linalg.norm(expected)
    # solve_linear refines on the factors it is handed and keeps them
    M = SparseMatrix(B)
    M.lu = factors
    x = solve_linear(M, b[:, 0])
    assert M.lu is factors
    assert np.linalg.norm(x - expected[:, 0]) <= 1e-12 * np.linalg.norm(expected[:, 0])


def test_refinement_on_unrelated_factors_stalls_and_is_refactorized():
    import scipy.sparse.linalg as spla
    rng = np.random.default_rng(17)
    A = _convection_diffusion(12, rng).tocsc()
    unrelated = A.copy()
    unrelated.data = rng.uniform(0.5, 1.5, A.nnz)
    unrelated.setdiag(10.0)
    b = rng.standard_normal(A.shape[0])
    stale = Factorization(unrelated.tocsc())
    assert stale.refine(A, b) is None
    M = SparseMatrix(A)
    M.lu = stale
    x = solve_linear(M, b)
    assert isinstance(M.lu, Factorization) and M.lu is not stale
    expected = spla.spsolve(A, b)
    assert np.linalg.norm(x - expected) <= 1e-12 * np.linalg.norm(expected)


def test_non_square_rejected():
    with pytest.raises(AssemblyError):
        SparseMatrix(sp.csr_matrix((2, 3)))


def test_refinement_from_a_nearby_start_saves_sweeps(monkeypatch):
    # as in a Newton step: the start is the current iterate, the solution is
    # a small update of it; each sweep takes one _column_max of its correction
    import scipy.sparse.linalg as spla
    from fiberdialysis import linalg
    rng = np.random.default_rng(18)
    A = _convection_diffusion(12, rng).tocsc()
    B = (A + sp.diags(0.005 * rng.uniform(-1.0, 1.0, A.shape[0]))).tocsc()
    b = rng.standard_normal(A.shape[0])
    expected = spla.spsolve(B, b)
    start = expected + 1e-6 * rng.standard_normal(A.shape[0])
    factors = Factorization(A)
    calls = []
    plain_max = linalg._column_max
    monkeypatch.setattr(linalg, "_column_max", lambda v: calls.append(1) or plain_max(v))
    sweeps = []
    for x0 in (None, start):
        del calls[:]
        x = factors.refine(B, b, x0)
        sweeps.append(len(calls))
        assert np.linalg.norm(x - expected) <= 1e-12 * np.linalg.norm(expected)
    assert sweeps[1] < sweeps[0]
