"""Sparse LU solve contracts.

Every matrix here is small enough for the dense LAPACK path, so each LU
test runs its body on both paths through the ``lu_paths`` fixture, which
patches ``sparse._DENSE_MAX_DOFS`` to send every matrix down one path.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import SuperLU

from conftest import X
from phcbands import sparse
from phcbands.materials import Constant, Drude
from phcbands.sim import SearchRegion, contour_nodes, random_probe
from phcbands.sparse import (
    PIVOT_RATIO_FLOOR,
    DenseLU,
    SingularMatrixError,
    factorize,
    frobenius_norm,
    solve,
)

# (_DENSE_MAX_DOFS, type factorize returns) sending every matrix of this
# file down the dense path, then down SuperLU
LU_PATHS = ((10**6, DenseLU), (0, SuperLU))


@pytest.fixture
def lu_paths(monkeypatch):
    """Call it to iterate over the LU paths; each step patches the constant
    and yields a factorize that checks it took that path."""

    def each():
        for limit, lu_type in LU_PATHS:
            monkeypatch.setattr(sparse, "_DENSE_MAX_DOFS", limit)

            def checked(mat, lu_type=lu_type):
                lu = factorize(mat)
                assert isinstance(lu, lu_type)
                return lu

            yield checked

    return each


def test_factorize_identity_and_diagonal(lu_paths):
    for factorize_on in lu_paths():
        eye = sp.identity(3, dtype=np.complex128, format="csr")
        b = np.array([1.0, 2.0, 3.0], dtype=np.complex128)
        assert solve(factorize_on(eye), b) == pytest.approx(b)
        diag = sp.diags([2.0, 4.0j]).tocsr()
        x = solve(factorize_on(diag), np.array([2.0, 4.0j]))
        assert x == pytest.approx(np.array([1.0, 1.0]))
        csc = sp.csc_matrix(np.array([[1.0j, 2.0], [0.0, 3.0 - 1.0j]]))
        x = solve(factorize_on(csc), np.array([2.0 + 1.0j, 3.0 - 1.0j]))
        assert x == pytest.approx(np.array([1.0, 1.0]))


def test_solve_conjugate_transpose_with_same_factors(lu_paths):
    dense = np.array([[2.0 + 1.0j, 1.0, 0.0], [0.5j, 3.0, 1.0 - 1.0j], [0.0, 2.0, 4.0 + 0.5j]])
    b = np.array([1.0, 2.0j, -1.0 + 1.0j])
    for factorize_on in lu_paths():
        # the reversed rows make partial pivoting swap rows
        for mat in (sp.csc_matrix(dense), sp.csc_matrix(dense[::-1])):
            lu = factorize_on(mat)
            x = solve(lu, b, trans="H")
            assert np.abs(mat.toarray().conj().T @ x - b).max() <= 1e-14
            x = solve(lu, b, trans="N")
            assert np.abs(mat @ x - b).max() <= 1e-14
            assert np.array_equal(x, solve(lu, b))
            with pytest.raises(ValueError):
                solve(lu, b, trans="T")
            with pytest.raises(ValueError):
                solve(lu, b[:2])


@pytest.mark.parametrize("trans", ["N", "H"])
def test_block_solve_equals_column_solves(trans, lu_paths):
    rng = np.random.default_rng(3)
    n, p = 40, 5
    dense = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    dense[np.abs(dense) < 1.0] = 0.0
    dense += 10.0 * np.eye(n)
    block = rng.standard_normal((n, p)) + 1j * rng.standard_normal((n, p))
    for factorize_on in lu_paths():
        lu = factorize_on(sp.csc_matrix(dense))
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


@pytest.mark.filterwarnings("error")
def test_factorize_singular_cases(lu_paths):
    for factorize_on in lu_paths():
        with pytest.raises(SingularMatrixError):
            factorize_on(sp.csr_matrix((2, 2), dtype=np.complex128))
        # exactly singular with nonzero entries: a zero pivot, and no warning
        with pytest.raises(SingularMatrixError):
            factorize_on(sp.csr_matrix(np.array([[1.0, 2.0j], [0.5, 1.0j]])))
        # pivot ratio below the floor counts as singular even when the LU exists
        bad = sp.diags([1.0, 0.5 * PIVOT_RATIO_FLOOR]).tocsr()
        with pytest.raises(SingularMatrixError):
            factorize_on(bad)


def test_factorize_requires_square(lu_paths):
    for _ in lu_paths():
        with pytest.raises(ValueError):
            factorize(sp.csr_matrix((2, 3), dtype=np.complex128))


@pytest.mark.parametrize("seed", range(20))
def test_solve_residual_on_random_systems(seed, lu_paths):
    rng = np.random.default_rng(seed)
    n = 50
    dense = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    dense[np.abs(dense) < 1.0] = 0.0  # sparsify
    dense += 20.0 * np.eye(n)  # diagonally dominant, well conditioned
    mat = sp.csr_matrix(dense)
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    for factorize_on in lu_paths():
        x = solve(factorize_on(mat), b)
        assert np.linalg.norm(mat @ x - b) / np.linalg.norm(b) <= 1e-10


def test_solve_rejects_wrong_length(lu_paths):
    for factorize_on in lu_paths():
        fact = factorize_on(sp.identity(2, dtype=np.complex128, format="csr"))
        with pytest.raises(ValueError):
            solve(fact, np.ones(3, dtype=np.complex128))


def test_dense_path_boundary():
    limit = sparse._DENSE_MAX_DOFS
    for n, lu_type in ((limit, DenseLU), (limit + 1, SuperLU)):
        mat = sp.diags(np.arange(1.0, n + 1.0)).tocsc() + sp.eye(n, k=1, format="csc")
        lu = factorize(mat)
        assert isinstance(lu, lu_type)
        assert lu.shape == (n, n)


def test_lu_paths_agree_on_disc_family(family_factory, lu_paths):
    # the n=8 Drude disc of drude-sweep-n8: T(nu) at four nodes of a
    # search circle, each solved against the search's 12-column probe block
    _, _, fam = family_factory(8, 0.3, X, "TE", {0: Constant(1.0), 1: Drude(1.0, 0.01)})
    assert fam.n_dofs <= sparse._DENSE_MAX_DOFS
    region = SearchRegion(center=0.5 + 0j, side=0.1)
    points = [z for _, z, _ in contour_nodes(region, region.radius)][::4]
    probe = random_probe(fam.n_dofs, seed=0, columns=12)
    for trans in ("N", "H"):
        solutions = [[solve(factorize_on(fam.t_matrix(z)), probe, trans=trans) for z in points] for factorize_on in lu_paths()]
        for dense_x, superlu_x in zip(*solutions):
            assert np.linalg.norm(dense_x - superlu_x) <= 1e-12 * np.linalg.norm(superlu_x)


def test_frobenius_norm_matches_dense():
    mat = sp.diags([3.0, 4.0j]).tocsr()
    assert frobenius_norm(mat) == pytest.approx(5.0)
    assert frobenius_norm(sp.csr_matrix((3, 3), dtype=np.complex128)) == 0.0
