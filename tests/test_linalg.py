import os

import numpy as np
import pytest
import scipy.sparse as sp

from fiberdialysis.exceptions import AssemblyError, SolverError
from fiberdialysis.linalg import BandLayout, Factorization, SparseMatrix, solve_linear


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


def test_band_layout_depends_on_pattern_only_and_places_every_entry():
    rng = np.random.default_rng(13)
    A = _convection_diffusion(12, rng).tocsc()
    layout = BandLayout(A)
    assert (layout.kl, layout.ku, layout.rows, layout.dtype) == (12, 12, 37, np.float64)
    B = A.copy()
    B.data = rng.standard_normal(B.nnz)
    assert np.array_equal(BandLayout(B).position, layout.position)
    # LAPACK band storage: entry (i, j) in row kl + ku + i - j of column j
    ab = np.zeros(layout.rows * A.shape[0])
    ab[layout.position] = A.data
    ab = ab.reshape((layout.rows, -1), order="F")
    coo = A.tocoo()
    assert np.array_equal(ab[layout.kl + layout.ku + coo.row - coo.col, coo.col], coo.data)
    assert np.count_nonzero(ab) == A.nnz


@pytest.mark.parametrize("cap, dtype", [(37 * 144 * 8, np.float64), (37 * 144 * 8 - 1, np.float32),
                                        (37 * 144 * 4, np.float32), (37 * 144 * 4 - 1, None)])
def test_band_layout_takes_the_widest_precision_that_fits_the_cap(monkeypatch, cap, dtype):
    # the band array of the 144 x 144 five-point operator has 37 x 144 values
    from fiberdialysis import linalg
    monkeypatch.setattr(linalg, "_BAND_BYTES", cap)
    layout = BandLayout(_convection_diffusion(12, np.random.default_rng(13)).tocsc())
    assert layout.dtype == dtype
    assert (layout.position is None) == (dtype is None)


def test_superlu_above_the_cap_orders_for_itself(monkeypatch):
    # a matrix whose band array fits the cap in no precision goes to
    # SuperLU, which takes its own fill-reducing order (MMD on A^T + A)
    import scipy.sparse.linalg as spla
    from fiberdialysis import linalg
    rng = np.random.default_rng(14)
    A = _convection_diffusion(12, rng).tocsc()
    b = rng.standard_normal(A.shape[0])
    monkeypatch.setattr(linalg, "_BAND_BYTES", 0)
    factors = Factorization(A)
    assert isinstance(factors._lu, spla.SuperLU)
    own = spla.splu(A, permc_spec="MMD_AT_PLUS_A").perm_c
    assert np.array_equal(factors._lu.perm_c, own)
    assert not np.array_equal(own, np.arange(A.shape[0]))
    x = factors.solve(A, b)
    expected = spla.spsolve(A, b)
    assert np.linalg.norm(x - expected) <= 1e-12 * np.linalg.norm(expected)


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


class _CountingLU:
    """Stand-in for SuperLU factors that counts back-solves."""

    def __init__(self, lu):
        self.lu, self.solves = lu, 0

    def solve(self, b):
        self.solves += 1
        return self.lu.solve(b)


def _refined_to_roundoff(factors, csc, b, x0):
    # the refinement loop without a tolerance, as an oracle
    dx = factors._lu.solve(b - csc @ x0)
    x, size = x0 + dx, np.max(np.abs(dx), axis=0)
    while True:
        dx = factors._lu.solve(b - csc @ x)
        size_next = np.max(np.abs(dx), axis=0)
        if not np.all(size_next < 0.5 * size):
            break
        x, size = x + dx, size_next
    return x if np.all(size_next <= 1e-13 * np.max(np.abs(x), axis=0)) else None


@pytest.mark.parametrize("columns", [1, 2])
def test_refinement_to_a_tolerance_stops_at_its_update(columns):
    # as in an inexact Newton step: the start is the current iterate, and the
    # solution needs an error small only next to the update from it
    import scipy.sparse.linalg as spla
    rng = np.random.default_rng(19)
    A = _convection_diffusion(12, rng).tocsc()
    B = (A + sp.diags(0.02 * rng.uniform(-1.0, 1.0, A.shape[0]))).tocsc()
    b = rng.standard_normal((A.shape[0], columns)).squeeze()
    expected = spla.spsolve(B, b)
    start = expected + 1e-3 * rng.standard_normal(expected.shape)
    factors = Factorization(A)
    factors._lu = counted = _CountingLU(factors._lu)
    full = factors.refine(B, b, start)
    full_solves = counted.solves
    rtol = 1e-6
    x = factors.refine(B, b, start, rtol)
    assert counted.solves - full_solves < full_solves
    update = np.max(np.abs(x - start), axis=0)
    assert np.all(np.max(np.abs(x - expected), axis=0) <= 2 * rtol * update)
    assert np.max(np.abs(x - full)) > 0   # it did stop short of roundoff


def test_refinement_without_a_tolerance_runs_to_roundoff():
    rng = np.random.default_rng(20)
    A = _convection_diffusion(12, rng).tocsc()
    B = (A + sp.diags(0.02 * rng.uniform(-1.0, 1.0, A.shape[0]))).tocsc()
    b = rng.standard_normal((A.shape[0], 2))
    factors = Factorization(A)
    for x0 in (np.zeros_like(b), 0.1 * rng.standard_normal(b.shape)):
        x = factors.refine(B, b, x0, rtol=None)
        assert np.array_equal(x, _refined_to_roundoff(factors, B, b, x0))


def test_refinement_to_a_tolerance_on_unrelated_factors_stalls():
    rng = np.random.default_rng(17)
    A = _convection_diffusion(12, rng).tocsc()
    unrelated = A.copy()
    unrelated.data = rng.uniform(0.5, 1.5, A.nnz)
    unrelated.setdiag(10.0)
    b = rng.standard_normal(A.shape[0])
    stale = Factorization(unrelated.tocsc())
    for rtol in (1e-6, 1e-3):
        assert stale.refine(A, b, 0.1 * b, rtol) is None


def test_band_engine_swaps_rows_for_a_tiny_leading_pivot():
    # partial pivoting: without the row swap the first pivot, 1e-14, would
    # blow the elimination up
    import scipy.sparse.linalg as spla
    from fiberdialysis import linalg
    rng = np.random.default_rng(21)
    n = 40
    A = sp.diags([rng.uniform(0.5, 1.5, n - 2), rng.uniform(0.5, 1.5, n - 1),
                  np.r_[1e-14, rng.uniform(2.0, 3.0, n - 1)],
                  rng.uniform(0.5, 1.5, n - 1)], [-2, -1, 0, 1], format="csc")
    b = rng.standard_normal(n)
    factors = Factorization(A)
    assert isinstance(factors._lu, linalg._BandLU)
    assert factors._lu._piv[0] != 1   # LAPACK's 1-based pivot row: swapped
    x = factors.solve(A, b)
    expected = spla.spsolve(A, b)
    assert np.linalg.norm(x - expected) <= 1e-12 * np.linalg.norm(expected)


def test_singular_band_matrix_raises_solver_error():
    A = sp.csc_matrix(np.array([[1.0, 2.0, 0.0], [1.0, 2.0, 0.0], [0.0, 1.0, 3.0]]))
    assert BandLayout(A).dtype == np.float64
    with pytest.raises(SolverError, match="singular"):
        solve_linear(SparseMatrix(A), np.ones(3))


# a 3 x 3 tridiagonal band array (4 x 3 values) fits 48 bytes only in float32
_FLOAT32_CAP_3 = 48


def test_singular_matrix_on_float32_band_factors_raises_solver_error(monkeypatch):
    # the float32 zero pivot hands the matrix to SuperLU, which finds it
    # singular too
    import scipy.sparse.linalg as spla
    from fiberdialysis import linalg
    A = sp.csc_matrix(np.array([[1.0, 2.0, 0.0], [1.0, 2.0, 0.0], [0.0, 1.0, 3.0]]))
    monkeypatch.setattr(linalg, "_BAND_BYTES", _FLOAT32_CAP_3)
    assert BandLayout(A).dtype == np.float32
    superlu, splu = [], spla.splu
    monkeypatch.setattr(spla, "splu", lambda *a, **k: superlu.append(1) or splu(*a, **k))
    with pytest.raises(SolverError, match="singular"):
        solve_linear(SparseMatrix(A), np.ones(3))
    assert superlu == [1]


def test_float32_zero_pivot_falls_back_to_superlu(monkeypatch):
    # 1 + 1e-10 rounds to 1 in float32, so sgbtrf meets an exact zero pivot
    # in float64 the matrix is regular
    import scipy.sparse.linalg as spla
    from fiberdialysis import linalg
    A = sp.csc_matrix(np.array([[1.0, 1.0, 0.0], [1.0, 1.0 + 1e-10, 0.0], [0.0, 1.0, 3.0]]))
    x_true = np.ones(3)
    monkeypatch.setattr(linalg, "_BAND_BYTES", _FLOAT32_CAP_3)
    assert linalg._BandLU(A, BandLayout(A)).info > 0
    factors = Factorization(A)
    assert isinstance(factors._lu, spla.SuperLU)
    x = factors.solve(A, A @ x_true)
    assert np.max(np.abs(x - x_true)) <= 1e-4


def test_stalled_refinement_on_float32_factors_falls_back_to_superlu(monkeypatch):
    # tridiag(-1, 2 - lambda_1 + 1e-6, -1), lambda_1 the least eigenvalue of
    # tridiag(-1, 2, -1): cond about 4e6, too large for float32 factors to
    # refine to roundoff, so the direct solve hands the matrix to SuperLU
    import scipy.sparse.linalg as spla
    from fiberdialysis import linalg
    n = 60
    shift = 2.0 - 2.0 * np.cos(np.pi / (n + 1)) - 1e-6
    A = sp.diags([-1.0, 2.0 - shift, -1.0], [-1, 0, 1], shape=(n, n), format="csc")
    b = np.random.default_rng(23).standard_normal(n)
    monkeypatch.setattr(linalg, "_BAND_BYTES", 4 * n * 4)
    factors = Factorization(A)
    assert isinstance(factors._lu, linalg._BandLU) and factors._lu.dtype == np.float32
    assert factors.refine(A, b) is None
    x = factors.solve(A, b)
    assert isinstance(factors._lu, spla.SuperLU)
    assert np.linalg.norm(A @ x - b) <= 1e-10 * np.linalg.norm(b)
    expected = spla.spsolve(A, b)
    assert np.linalg.norm(x - expected) <= 1e-8 * np.linalg.norm(expected)


def test_blas_behind_scipy_linalg_runs_one_thread():
    # asked in a fresh process that loads the BLAS, set to four threads (as
    # many as the machine has, at most), before the package is imported
    import ctypes
    import subprocess
    import sys
    from scipy.linalg import _flapack

    import fiberdialysis
    lib = ctypes.CDLL(_flapack.__file__)
    names = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
             "openblas_get_num_threads64_", "openblas_get_num_threads")
    name = next((n for n in names if hasattr(lib, n)), None)
    if name is None:
        pytest.skip("the BLAS behind scipy.linalg exports no OpenBLAS thread count")
    probe = (
        "import ctypes\n"
        "from scipy.linalg import _flapack\n"
        f"get = getattr(ctypes.CDLL(_flapack.__file__), {name!r})\n"
        "get.argtypes, get.restype = [], ctypes.c_int\n"
        "import fiberdialysis\n"
        "print(get())\n")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="4",
               PYTHONPATH=os.path.dirname(os.path.dirname(fiberdialysis.__file__)))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == ["1"]
