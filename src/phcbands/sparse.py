"""Direct LU solves of complex sparse matrices.

``factorize`` owns every factorization, and there is one path, a banded LU.
A reverse Cuthill-McKee ordering (Cuthill and McKee, Proc. ACM 1969) packs
the pattern into a narrow band about the diagonal; LAPACK ``zgbtrf`` factors
the reordered matrix in band storage with partial pivoting, and ``zgbtrs``
solves a whole block of right-hand sides in one call, with the same bits
under any number of BLAS threads.  The ordering depends on the pattern
alone, and a family's operators share one, so ``assembly.assemble_family``
builds the family's ``BandLayout`` once and keeps it on the family.  A
factorization takes that layout and the ``data`` of T(nu) on its pattern,
as ``assembly.build_T`` returns it: one scatter into band storage and one
``zgbtrf``, with no sparse matrix object built or checked per call.  Per
contour point (T(nu)'s data, factorize, a 12-column solve and its 12 x 12
projection; one thread, best of three 16-node circles on a shared two-core
Intel Xeon) on the TM lossy disc this takes 0.17 / 0.86 / 2.7 / 9.7 / 30 ms
at n = 8 / 16 / 24 / 32 / 48 (74 to 2,368 unknowns).  Measured the same
way, a dense LU up to 96 unknowns and SuperLU above took 0.44 / 3.66 /
9.0 / 16.8 / 46.0 ms against the banded LU's 0.28 / 1.53 / 5.2 / 14.5 /
46.5 ms at the time: n = 48 is a tie, and larger meshes may favour a
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
    """Band storage of a CSC pattern: row and column i of the reordered
    matrix are ``perm[i]`` of the original, with ``kl`` sub- and ``ku``
    superdiagonals, and CSC entry p lands at ``flat[p]`` of the
    2 kl + ku + 1 band rows raveled column by column."""

    perm: np.ndarray
    kl: int
    ku: int
    flat: np.ndarray


class BandLU(NamedTuple):
    """``zgbtrf`` factors of the reordered matrix, in band storage."""

    layout: BandLayout
    band: np.ndarray
    ipiv: np.ndarray


def band_layout(pattern: sp.spmatrix) -> BandLayout:
    """Reverse Cuthill-McKee ordering of a nonempty square canonical CSC
    pattern (sorted indices, no duplicates) and the band storage place of
    each of its entries."""
    n, n_cols = pattern.shape
    if n != n_cols or n == 0:
        raise ValueError(f"band layout needs a nonempty square pattern, got {pattern.shape}")
    csc = sp.csc_matrix(pattern)
    if not csc.has_canonical_format:
        raise ValueError("band layout needs a canonical CSC pattern (sorted indices, no duplicates)")
    indptr, indices = csc.indptr, csc.indices
    ones = sp.csc_matrix((np.ones(indices.size), indices, indptr), shape=csc.shape)
    perm = reverse_cuthill_mckee(ones, symmetric_mode=False).astype(np.intp)
    position = np.empty(n, dtype=np.intp)
    position[perm] = np.arange(n)
    row = position[indices]
    col = position[np.repeat(np.arange(n), np.diff(indptr))]
    kl, ku = int(np.max(row - col, initial=0)), int(np.max(col - row, initial=0))
    # A(i, j) sits in band row kl + ku + i - j of column j
    flat = (kl + ku + row - col) + col * (2 * kl + ku + 1)
    return BandLayout(perm, kl, ku, flat)


def factorize(layout: BandLayout, data: np.ndarray) -> BandLU:
    """LU-factorize the matrix with CSC entries ``data`` on ``layout``'s
    pattern.  Raises SingularMatrixError for exactly singular input and for
    pivots (the diagonal of U) smaller than PIVOT_RATIO_FLOOR times the
    largest pivot."""
    n = layout.perm.size
    if data.shape != layout.flat.shape:
        raise ValueError(f"data has shape {data.shape}, the pattern {layout.flat.shape}")
    rows = 2 * layout.kl + layout.ku + 1
    band = np.zeros(n * rows, dtype=np.complex128)
    band[layout.flat] = data
    # the transpose is LAPACK's (rows, n) band array; an exactly zero pivot
    # (info > 0) stays 0 on U's diagonal, band row kl + ku, and is rejected
    factors, ipiv, _ = zgbtrf(band.reshape(n, rows).T, layout.kl, layout.ku, overwrite_ab=1)
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

