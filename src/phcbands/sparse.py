"""Direct LU solves of complex sparse matrices.

``factorize`` owns every factorization, and there is one path, a banded LU.
A reverse Cuthill-McKee ordering (Cuthill and McKee, Proc. ACM 1969) packs
the pattern into a narrow band about the diagonal; LAPACK ``zgbtrf`` factors
the reordered matrix in band storage with partial pivoting, and ``zgbtrs``
solves a whole block of right-hand sides in one call, with the same bits
under any number of BLAS threads.  The ordering depends on the pattern
alone, and a family's operators share one, so its ``BandLayout`` is built
once; a factorization is then one scatter of ``data`` and one ``zgbtrf``.
Per contour point (build T(nu), factorize, a 12-column solve, one thread)
on the TM lossy disc this took 0.28 / 1.53 / 5.2 / 14.5 / 46.5 ms at
n = 8 / 16 / 24 / 32 / 48, against 0.44 / 3.66 / 9.0 / 16.8 / 46.0 ms for a
dense LU up to 96 unknowns and SuperLU above.  That is the measured range:
n = 48 (2,368 unknowns) is a tie, and larger meshes may favour a
fill-reducing sparse LU.  A factorization whose smallest pivot falls below
``PIVOT_RATIO_FLOOR`` times the largest is reported as singular.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import zgbtrf, zgbtrs
from scipy.sparse.csgraph import reverse_cuthill_mckee

PIVOT_RATIO_FLOOR = 1e-14


class SingularMatrixError(RuntimeError):
    """Matrix is exactly or numerically singular."""


class BandLayout(NamedTuple):
    """Band storage of the CSC pattern ``indptr``, ``indices``: row and
    column i of the reordered matrix are ``perm[i]`` of the original, with
    ``kl`` sub- and ``ku`` superdiagonals, and CSC entry p lands at
    ``flat[p]`` of the 2 kl + ku + 1 band rows raveled column by column."""

    indptr: np.ndarray
    indices: np.ndarray
    perm: np.ndarray
    kl: int
    ku: int
    flat: np.ndarray


class BandLU(NamedTuple):
    """``zgbtrf`` factors of the reordered matrix, in band storage."""

    layout: BandLayout
    band: np.ndarray
    ipiv: np.ndarray


def band_layout(csc: sp.csc_matrix) -> BandLayout:
    """Reverse Cuthill-McKee ordering of a square CSC pattern and the band
    storage place of each of its entries."""
    n = csc.shape[0]
    indptr, indices = csc.indptr.copy(), csc.indices.copy()
    pattern = sp.csc_matrix((np.ones(indices.size), indices, indptr), shape=csc.shape)
    perm = reverse_cuthill_mckee(pattern, symmetric_mode=False).astype(np.intp)
    position = np.empty(n, dtype=np.intp)
    position[perm] = np.arange(n)
    row = position[indices]
    col = position[np.repeat(np.arange(n), np.diff(indptr))]
    kl, ku = int(np.max(row - col, initial=0)), int(np.max(col - row, initial=0))
    # A(i, j) sits in band row kl + ku + i - j of column j
    flat = (kl + ku + row - col) + col * (2 * kl + ku + 1)
    return BandLayout(indptr, indices, perm, kl, ku, flat)


# the layout of the last pattern factorized; a family's operators share it
_last_layout: BandLayout | None = None


def factorize(mat: sp.spmatrix) -> BandLU:
    """LU-factorize a square sparse matrix.  Raises SingularMatrixError for
    exactly singular input and for pivots (the diagonal of U) smaller than
    PIVOT_RATIO_FLOOR times the largest pivot."""
    global _last_layout
    n_rows, n_cols = mat.shape
    if n_rows != n_cols:
        raise ValueError(f"factorize needs a square matrix, got {mat.shape}")
    if n_rows == 0:
        raise SingularMatrixError("empty matrix")
    csc = sp.csc_matrix(mat, dtype=np.complex128)
    if not csc.has_canonical_format:
        csc = csc.copy()
        csc.sum_duplicates()
    layout = _last_layout
    if layout is None or not (np.array_equal(layout.indptr, csc.indptr) and np.array_equal(layout.indices, csc.indices)):
        layout = _last_layout = band_layout(csc)
    rows = 2 * layout.kl + layout.ku + 1
    band = np.zeros(n_rows * rows, dtype=np.complex128)
    band[layout.flat] = csc.data
    # the transpose is LAPACK's (rows, n) band array; an exactly zero pivot
    # (info > 0) stays 0 on U's diagonal, band row kl + ku, and is rejected
    factors, ipiv, _ = zgbtrf(band.reshape(n_rows, rows).T, layout.kl, layout.ku, overwrite_ab=1)
    pivots = np.abs(factors[layout.kl + layout.ku])
    max_pivot, min_pivot = float(pivots.max()), float(pivots.min())
    if max_pivot == 0.0 or min_pivot <= PIVOT_RATIO_FLOOR * max_pivot:
        raise SingularMatrixError(
            f"numerically singular matrix: pivot ratio {min_pivot:.3e} / {max_pivot:.3e}"
        )
    return BandLU(layout, factors, ipiv)


def solve(lu: BandLU, b: np.ndarray, trans: str = "N") -> np.ndarray:
    """Solve A x = b, or A^H x = b with ``trans="H"``, for a factorized A.
    ``b`` is a vector of length n or an (n, p) block of right-hand sides,
    solved in one ``zgbtrs`` call; each column equals its own vector solve
    bit for bit."""
    if trans not in ("N", "H"):
        raise ValueError(f"trans must be 'N' or 'H', got {trans!r}")
    b = np.asarray(b, dtype=np.complex128)
    n, perm = lu.band.shape[1], lu.layout.perm
    if b.ndim not in (1, 2) or b.shape[0] != n:
        raise ValueError(f"right-hand side has shape {b.shape}, expected ({n},) or ({n}, p)")
    rhs = np.asfortranarray(b[perm].reshape(n, -1))
    y, _ = zgbtrs(lu.band, lu.layout.kl, lu.layout.ku, rhs, lu.ipiv, trans=2 if trans == "H" else 0, overwrite_b=1)
    x = np.empty_like(y)
    x[perm] = y
    return x.reshape(b.shape)


def frobenius_norm(mat: sp.spmatrix) -> float:
    """Frobenius norm, summed in row-major (CSR) entry order whatever the
    input format, so the residuals it scales are reproducible bit for bit."""
    data = sp.csr_matrix(mat).data
    return float(np.sqrt(np.sum(np.abs(data) ** 2))) if data.size else 0.0
