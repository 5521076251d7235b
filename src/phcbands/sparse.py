"""Complex sparse matrices and direct LU solves.

Triplets are summed into canonical (sorted, duplicate-free) CSR matrices
with complex128 entries.  Factorizations go through SuperLU, which factors
CSC: ``factorize`` takes a complex128 CSC matrix as it is and converts
anything else.  This module is the only place the solver touches a sparse
backend, so everything downstream sees a fixed, deterministic contract: a
factorization whose smallest pivot falls below ``PIVOT_RATIO_FLOOR`` times
the largest is reported as singular instead of silently producing garbage.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import SuperLU, splu

PIVOT_RATIO_FLOOR = 1e-14


class SingularMatrixError(RuntimeError):
    """Matrix is exactly or numerically singular."""


def from_triplet_arrays(n_rows: int, n_cols: int, rows, cols, vals) -> sp.csr_matrix:
    """Build a canonical CSR matrix from (row, col, value) arrays, summing
    duplicates."""
    rows = np.asarray(rows, dtype=np.int64).ravel()
    cols = np.asarray(cols, dtype=np.int64).ravel()
    vals = np.asarray(vals, dtype=np.complex128).ravel()
    if rows.size and (rows.min() < 0 or rows.max() >= n_rows or cols.min() < 0 or cols.max() >= n_cols):
        raise ValueError(f"triplet index outside {n_rows} x {n_cols}")
    mat = sp.coo_matrix((vals, (rows, cols)), shape=(n_rows, n_cols)).tocsr()
    mat.sum_duplicates()
    mat.sort_indices()
    return mat


def factorize(mat: sp.spmatrix) -> SuperLU:
    """LU-factorize a square sparse matrix.

    Raises SingularMatrixError for exactly singular input and for pivots
    smaller than PIVOT_RATIO_FLOOR times the largest pivot.
    """
    n_rows, n_cols = mat.shape
    if n_rows != n_cols:
        raise ValueError(f"factorize needs a square matrix, got {mat.shape}")
    csc = sp.csc_matrix(mat, dtype=np.complex128)
    try:
        lu = splu(csc)
    except RuntimeError as exc:
        raise SingularMatrixError(f"sparse LU failed: {exc}") from exc
    pivots = np.abs(lu.U.diagonal())
    max_pivot = float(pivots.max()) if pivots.size else 0.0
    min_pivot = float(pivots.min()) if pivots.size else 0.0
    if max_pivot == 0.0 or min_pivot <= PIVOT_RATIO_FLOOR * max_pivot:
        raise SingularMatrixError(
            f"numerically singular matrix: pivot ratio {min_pivot:.3e} / {max_pivot:.3e}"
        )
    return lu


def solve(lu: SuperLU, b: np.ndarray) -> np.ndarray:
    """Solve A x = b for a previously factorized A."""
    b = np.asarray(b, dtype=np.complex128)
    if b.shape != (lu.shape[0],):
        raise ValueError(f"right-hand side has shape {b.shape}, expected ({lu.shape[0]},)")
    return lu.solve(b)


def frobenius_norm(mat: sp.spmatrix) -> float:
    """Frobenius norm, summed in row-major (CSR) entry order whatever the
    input format, so the residuals it scales are reproducible bit for bit."""
    data = sp.csr_matrix(mat).data
    return float(np.sqrt(np.sum(np.abs(data) ** 2))) if data.size else 0.0
