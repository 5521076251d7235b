"""Sparse construction and LU solve contracts."""

import numpy as np
import pytest
import scipy.sparse as sp

from phcbands.sparse import (
    PIVOT_RATIO_FLOOR,
    SingularMatrixError,
    factorize,
    from_triplet_arrays,
    frobenius_norm,
    solve,
)


def test_from_triplets_sums_duplicates():
    mat = from_triplet_arrays(1, 1, [0, 0], [0, 0], [2.0, 3.0])
    assert mat.toarray() == pytest.approx(np.array([[5.0]]))


def test_from_triplets_stores_complex_entry():
    mat = from_triplet_arrays(2, 2, [0], [1], [1j])
    assert mat.nnz == 1
    assert mat[0, 1] == 1j


def test_from_triplets_range_check():
    with pytest.raises(ValueError):
        from_triplet_arrays(2, 2, [2], [0], [1.0])
    with pytest.raises(ValueError):
        from_triplet_arrays(2, 2, [0], [5], [1.0])
    with pytest.raises(ValueError):
        from_triplet_arrays(2, 2, [-1], [0], [1.0])


def test_factorize_identity_and_diagonal():
    eye = sp.identity(3, dtype=np.complex128, format="csr")
    b = np.array([1.0, 2.0, 3.0], dtype=np.complex128)
    assert solve(factorize(eye), b) == pytest.approx(b)
    diag = sp.diags([2.0, 4.0j]).tocsr()
    x = solve(factorize(diag), np.array([2.0, 4.0j]))
    assert x == pytest.approx(np.array([1.0, 1.0]))
    csc = sp.csc_matrix(np.array([[1.0j, 2.0], [0.0, 3.0 - 1.0j]]))
    x = solve(factorize(csc), np.array([2.0 + 1.0j, 3.0 - 1.0j]))
    assert x == pytest.approx(np.array([1.0, 1.0]))


def test_solve_conjugate_transpose_with_same_factors():
    mat = sp.csc_matrix(np.array([[2.0 + 1.0j, 1.0, 0.0], [0.5j, 3.0, 1.0 - 1.0j], [0.0, 2.0, 4.0 + 0.5j]]))
    lu = factorize(mat)
    b = np.array([1.0, 2.0j, -1.0 + 1.0j])
    x = solve(lu, b, trans="H")
    assert np.abs(mat.toarray().conj().T @ x - b).max() <= 1e-14
    assert np.array_equal(solve(lu, b, trans="N"), solve(lu, b))
    with pytest.raises(ValueError):
        solve(lu, b, trans="T")
    with pytest.raises(ValueError):
        solve(lu, b[:2])


@pytest.mark.parametrize("trans", ["N", "H"])
def test_block_solve_equals_column_solves(trans):
    rng = np.random.default_rng(3)
    n, p = 40, 5
    dense = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    dense[np.abs(dense) < 1.0] = 0.0
    dense += 10.0 * np.eye(n)
    lu = factorize(sp.csc_matrix(dense))
    block = rng.standard_normal((n, p)) + 1j * rng.standard_normal((n, p))
    x = solve(lu, block, trans=trans)
    assert x.shape == (n, p)
    for j in range(p):
        assert np.array_equal(x[:, j], solve(lu, block[:, j], trans=trans))
    with pytest.raises(ValueError):
        solve(lu, block[:-1], trans=trans)
    with pytest.raises(ValueError):
        solve(lu, block.T, trans=trans)
    with pytest.raises(ValueError):
        solve(lu, block[:, :, None], trans=trans)


def test_factorize_singular_cases():
    with pytest.raises(SingularMatrixError):
        factorize(sp.csr_matrix((2, 2), dtype=np.complex128))
    # pivot ratio below the floor counts as singular even when the LU exists
    bad = sp.diags([1.0, 0.5 * PIVOT_RATIO_FLOOR]).tocsr()
    with pytest.raises(SingularMatrixError):
        factorize(bad)


def test_factorize_requires_square():
    with pytest.raises(ValueError):
        factorize(sp.csr_matrix((2, 3), dtype=np.complex128))


@pytest.mark.parametrize("seed", range(20))
def test_solve_residual_on_random_systems(seed):
    rng = np.random.default_rng(seed)
    n = 50
    dense = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    dense[np.abs(dense) < 1.0] = 0.0  # sparsify
    dense += 20.0 * np.eye(n)  # diagonally dominant, well conditioned
    mat = sp.csr_matrix(dense)
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x = solve(factorize(mat), b)
    assert np.linalg.norm(mat @ x - b) / np.linalg.norm(b) <= 1e-10


def test_solve_rejects_wrong_length():
    fact = factorize(sp.identity(2, dtype=np.complex128, format="csr"))
    with pytest.raises(ValueError):
        solve(fact, np.ones(3, dtype=np.complex128))


def test_frobenius_norm_matches_dense():
    mat = sp.diags([3.0, 4.0j]).tocsr()
    assert frobenius_norm(mat) == pytest.approx(5.0)
    assert frobenius_norm(sp.csr_matrix((3, 3), dtype=np.complex128)) == 0.0
