"""Direct LU solves of complex sparse matrices.

``factorize`` owns every factorization, and there is one path, a banded LU.
A Cuthill-McKee ordering (Cuthill and McKee, Proc. ACM 1969) packs the
pattern into a narrow band about the diagonal; LAPACK ``zgbtrf`` factors
the reordered matrix in band storage with partial pivoting, and ``zgbtrs``
solves a whole block of right-hand sides in one call, with the same bits
under any number of BLAS threads.  The ordering starts from a set of nodes
the caller names.  ``assembly.assemble_family`` names grid row 0 of the
periodic cell, the DOFs 0 .. n - 1.  On the torus the breadth-first levels
from a whole row are then the row pairs {j, n - j}, not diamonds about one
vertex, and the band is about two rows wide: kl = ku = 22 / 42 / 58 at
n = 8 / 16 / 24 on the f = 0.2827 disc, against 27 / 52 / 76 from a reverse
Cuthill-McKee ordering started at one node.  The ordering depends on the
pattern alone, and a family's operators share one, so ``assemble_family``
builds the family's ``BandLayout`` once and keeps it on the family.  The
layout holds the pattern it is built from, its CSC ``indices`` and
``indptr``, so entries on it are the one form of an operator: ``csc_on``
makes them a CSC matrix for products, and a factorization takes the
layout and the ``data`` of T(nu) on its pattern, as ``assembly.build_T``
returns it: one scatter into band storage and one ``zgbtrf``, with no
sparse matrix object built or checked per call.  Per
contour point (T(nu)'s data, factorize, a 12-column solve and its 12 x 12
projection; one thread, best of five 16-node circles in four runs on a
shared two-core Intel Xeon) on the TM lossy disc this takes 0.11 / 0.66 /
2.2 / 6.1 / 19 ms at n = 8 / 16 / 24 / 32 / 48 (74 to 2,368 unknowns),
against 0.13 / 0.80 / 3.0 / 8.2 / 26 ms with the one-node ordering.  An
earlier comparison, with the one-node ordering, put a dense LU up to 96
unknowns and SuperLU above at 0.44 / 3.66 / 9.0 / 16.8 / 46.0 ms against
the banded LU's 0.28 / 1.53 / 5.2 / 14.5 / 46.5 ms: a tie at n = 48, so
larger meshes may favour a fill-reducing sparse LU.  A factorization whose
smallest pivot falls below ``PIVOT_RATIO_FLOOR`` times the largest is
reported as singular.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import zgbtrf, zgbtrs

PIVOT_RATIO_FLOOR = 1e-14


class SingularMatrixError(RuntimeError):
    """Matrix is exactly or numerically singular."""


class BandLayout(NamedTuple):
    """Band storage of the CSC pattern ``indices``, ``indptr``: row and
    column i of the reordered matrix are ``perm[i]`` of the original, with
    ``kl`` sub- and ``ku`` superdiagonals, and CSC entry p lands at
    ``flat[p]`` of the 2 kl + ku + 1 band rows raveled column by column.
    ``position`` is the inverse of ``perm``: row i of the original is row
    ``position[i]``."""

    perm: np.ndarray
    kl: int
    ku: int
    flat: np.ndarray
    position: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray


class BandLU(NamedTuple):
    """``zgbtrf`` factors of the reordered matrix, in band storage."""

    layout: BandLayout
    band: np.ndarray
    ipiv: np.ndarray


def _cuthill_mckee(pattern: sp.csc_matrix, start: Sequence[int] | np.ndarray) -> np.ndarray:
    """Cuthill-McKee order of the graph of ``pattern`` plus its transpose,
    breadth first from the nodes ``start``, which come first and in the
    order given.  Each level is the unvisited neighbours of the one before,
    ranked by the first node there that reaches them, then by degree and
    index.  When a level comes out empty before every node is ordered, the
    lowest unvisited node is the next level."""
    n = pattern.shape[0]
    level = np.asarray(start, dtype=np.intp).ravel()
    if level.size == 0 or np.unique(level).size != level.size or not np.all((level >= 0) & (level < n)):
        raise ValueError(f"the start set must be distinct nodes of 0 .. {n - 1}, got {start!r}")
    graph = (pattern + pattern.T).tocsc()
    graph.sort_indices()
    degree = np.diff(graph.indptr)
    visited = np.zeros(n, dtype=bool)
    order = []
    while True:
        visited[level] = True
        order.append(level)
        if visited.all():
            return np.concatenate(order)
        # every entry of the level's columns, tagged with its column's place
        counts = degree[level]
        place = np.repeat(np.arange(level.size), counts)
        entry = np.arange(counts.sum()) + np.repeat(graph.indptr[level] - (np.cumsum(counts) - counts), counts)
        neighbour = graph.indices[entry]
        fresh = ~visited[neighbour]
        place, neighbour = place[fresh], neighbour[fresh]
        ranked = neighbour[np.lexsort((neighbour, degree[neighbour], place))]
        _, first = np.unique(ranked, return_index=True)
        level = ranked[np.sort(first)] if first.size else np.flatnonzero(~visited)[:1]


def band_layout(pattern: sp.spmatrix, start: Sequence[int] | np.ndarray) -> BandLayout:
    """Band storage of a nonempty square canonical CSC pattern (sorted
    indices, no duplicates), ordered by ``_cuthill_mckee`` from the nodes
    ``start``, and the band storage place of each of its entries.  The
    layout keeps the pattern's ``indices`` and ``indptr``, which every
    ``csc_on`` matrix on it shares."""
    n, n_cols = pattern.shape
    if n != n_cols or n == 0:
        raise ValueError(f"band layout needs a nonempty square pattern, got {pattern.shape}")
    csc = sp.csc_matrix(pattern)
    if not csc.has_canonical_format:
        raise ValueError("band layout needs a canonical CSC pattern (sorted indices, no duplicates)")
    indptr, indices = csc.indptr, csc.indices
    ones = sp.csc_matrix((np.ones(indices.size), indices, indptr), shape=csc.shape)
    perm = _cuthill_mckee(ones, start)
    position = np.empty(n, dtype=np.intp)
    position[perm] = np.arange(n)
    row = position[indices]
    col = position[np.repeat(np.arange(n), np.diff(indptr))]
    kl, ku = int(np.max(row - col, initial=0)), int(np.max(col - row, initial=0))
    # A(i, j) sits in band row kl + ku + i - j of column j
    flat = (kl + ku + row - col) + col * (2 * kl + ku + 1)
    return BandLayout(perm, kl, ku, flat, position, indices, indptr)


def csc_on(layout: BandLayout, data: np.ndarray) -> sp.csc_matrix:
    """The CSC matrix with entries ``data`` on ``layout``'s pattern."""
    n = layout.perm.size
    return sp.csc_matrix((data, layout.indices, layout.indptr), shape=(n, n))


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


def solve(lu: BandLU, b: np.ndarray) -> np.ndarray:
    """Solve A x = b for a factorized A.  ``b`` is a vector of length n or
    an (n, p) block of right-hand sides, solved in one ``zgbtrs`` call;
    each column equals its own vector solve bit for bit."""
    b = np.asarray(b, dtype=np.complex128)
    n, layout = lu.band.shape[1], lu.layout
    if b.ndim not in (1, 2) or b.shape[0] != n:
        raise ValueError(f"right-hand side has shape {b.shape}, expected ({n},) or ({n}, p)")
    rhs = np.asfortranarray(b[layout.perm].reshape(n, -1))
    y, _ = zgbtrs(lu.band, layout.kl, layout.ku, rhs, lu.ipiv, overwrite_b=1)
    return y[layout.position].reshape(b.shape)
