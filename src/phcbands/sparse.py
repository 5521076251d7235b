"""Direct LU solves of complex sparse matrices.

This module builds no matrix: ``assembly`` scatters the element entries of
each operator straight onto its CSC pattern, summed in triangle order, with
no CSR or triplet intermediate.  ``factorize`` owns every factorization and
takes one of two paths.  A square matrix of at most ``_DENSE_MAX_DOFS`` rows
is densified and factored by LAPACK ``zgetrf``: at that size SuperLU's
symbolic analysis and bookkeeping cost more than the arithmetic it saves.
Larger matrices go through SuperLU, which factors CSC, so a complex128 CSC
matrix is taken as it is and anything else is converted.  Both paths return
an object with SuperLU's ``shape`` and ``solve(b, trans)``, and ``solve`` is
the one place right-hand sides reach it.  This module is the only place the
solver touches a sparse or dense LU backend, so everything downstream sees a
fixed, deterministic contract: a factorization whose smallest pivot falls
below ``PIVOT_RATIO_FLOOR`` times the largest is reported as singular
instead of silently producing garbage.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.linalg.blas import ztrsv
from scipy.linalg.lapack import zgetrf
from scipy.sparse.linalg import SuperLU, splu

PIVOT_RATIO_FLOOR = 1e-14

# Largest order factored densely.  Per contour point (build, factorize, a
# 12-column solve) the dense path wins up to ~83 DOFs and loses at 104 under
# two OpenBLAS threads: OpenBLAS threads zgetrf once rows x columns reaches
# 10,000, and below that its result does not depend on the thread count.
_DENSE_MAX_DOFS = 96


class SingularMatrixError(RuntimeError):
    """Matrix is exactly or numerically singular."""


class DenseLU:
    """LAPACK LU factors (``zgetrf``) of a small dense matrix, with the
    ``shape`` and ``solve(b, trans)`` of SuperLU's factor object.

    ``solve`` applies the row interchanges and calls the two triangular
    solves itself rather than ``zgetrs``: OpenBLAS's ``zgetrs`` takes a
    different route with one thread than with several, so its last bits
    would depend on the BLAS thread count, and ``ztrsv`` does not.
    """

    __slots__ = ("lu", "perm", "shape")

    def __init__(self, lu: np.ndarray, piv: np.ndarray):
        # zgetrf's sequential row swaps as one permutation: P^T b = b[perm]
        perm = list(range(lu.shape[0]))
        for i, p in enumerate(piv.tolist()):
            perm[i], perm[p] = perm[p], perm[i]
        self.lu = lu
        self.perm = np.array(perm)
        self.shape = lu.shape

    def solve(self, b: np.ndarray, trans: str = "N") -> np.ndarray:
        """Solve A x = b, or A^H x = b with ``trans="H"``, for a vector b."""
        if trans == "N":  # L U x = P^T b
            y = ztrsv(self.lu, b[self.perm], overwrite_x=1, lower=1, diag=1)
            return ztrsv(self.lu, y, overwrite_x=1)
        if trans == "H":  # U^H L^H P^T x = b
            y = ztrsv(self.lu, b, trans=2)
            y = ztrsv(self.lu, y, overwrite_x=1, lower=1, trans=2, diag=1)
            x = np.empty_like(y)
            x[self.perm] = y
            return x
        raise ValueError(f"trans must be 'N' or 'H', got {trans!r}")


def factorize(mat: sp.spmatrix) -> SuperLU | DenseLU:
    """LU-factorize a square sparse matrix.

    A matrix of at most ``_DENSE_MAX_DOFS`` rows is densified and factored
    by LAPACK ``zgetrf`` into a ``DenseLU``; a larger one by SuperLU.
    Either way, raises SingularMatrixError for exactly singular input and
    for pivots (the diagonal of U) smaller than PIVOT_RATIO_FLOOR times the
    largest pivot.
    """
    n_rows, n_cols = mat.shape
    if n_rows != n_cols:
        raise ValueError(f"factorize needs a square matrix, got {mat.shape}")
    csc = sp.csc_matrix(mat, dtype=np.complex128)
    if 0 < n_rows <= _DENSE_MAX_DOFS:
        # an exactly zero pivot (info > 0) stays 0 on U's diagonal, which
        # the pivot check below rejects
        lu_data, piv, _ = zgetrf(csc.toarray(order="F"), overwrite_a=True)
        lu = DenseLU(lu_data, piv)
        pivots = np.abs(lu_data.diagonal())
    else:
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


def solve(lu: SuperLU | DenseLU, b: np.ndarray, trans: str = "N") -> np.ndarray:
    """Solve A x = b for a previously factorized A.

    ``b`` is a vector of length n or an (n, p) block of right-hand sides.
    A block is solved one column at a time on either kind of LU, so each
    column equals its own vector solve bit for bit.  A multi-column solve
    hands the block to the threaded BLAS: at 274 DOFs under two OpenBLAS
    threads SuperLU's 12-column solve was itself ~16 % faster than the
    column loop (0.84 against 1.00 ms per contour point), but the threads
    it woke slowed the Hankel SVDs that follow (median 1.6 to 2.9 ms) and
    about doubled a dielectric-m-n16 solve end to end.
    With ``trans="H"`` the same factors solve the conjugate-transpose system
    A^H x = b instead, which costs one more pair of triangular solves and no
    factorization.
    """
    if trans not in ("N", "H"):
        raise ValueError(f"trans must be 'N' or 'H', got {trans!r}")
    b = np.asarray(b, dtype=np.complex128)
    if b.ndim not in (1, 2) or b.shape[0] != lu.shape[0]:
        raise ValueError(f"right-hand side has shape {b.shape}, expected ({lu.shape[0]},) or ({lu.shape[0]}, p)")
    if b.ndim == 1:
        return lu.solve(b, trans=trans)
    return np.column_stack([lu.solve(column, trans=trans) for column in b.T])


def frobenius_norm(mat: sp.spmatrix) -> float:
    """Frobenius norm, summed in row-major (CSR) entry order whatever the
    input format, so the residuals it scales are reproducible bit for bit."""
    data = sp.csr_matrix(mat).data
    return float(np.sqrt(np.sum(np.abs(data) ** 2))) if data.size else 0.0
