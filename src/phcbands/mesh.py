"""Triangulations of the periodic unit cell fitted to a disc inclusion.

The computational domain is the unit cell (0, 1)^2 of a square lattice with
lattice constant 1.  A circular rod of radius r < 0.5 sits at the cell centre
(0.5, 0.5).  Meshes start from a structured grid: the cell is divided into an
n-by-n grid of squares and every square is split along its lower-left to
upper-right diagonal.  The grid is then fitted to the rod boundary, so the
disc region is a polygon inscribed in the circle:

1. every grid vertex within 0.3 h (h = 1/n) of the circle moves radially onto
   it, except the cell-boundary vertices and the centre vertex;
2. every grid edge that still runs from inside the circle to outside it is
   cut where it meets the circle;
3. every triangle crossed by the circle is split along the chord between its
   two circle points into two or three triangles; a quadrilateral piece takes
   the diagonal with the larger minimum angle.

A triangle belongs to the disc when none of its vertices lies outside the
circle.  Opposite edges of the cell are identified; the periodic DOFs are the
n*n grid DOFs followed by one DOF per cut point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import IO

import numpy as np

REGION_BACKGROUND = 0
REGION_DISC = 1

# Grid vertices closer than this many grid steps to the circle are moved onto
# it; the cut points of the remaining crossing edges then keep at least this
# distance from the grid vertices.
_SNAP_FRACTION = 0.3

_INSIDE, _ON, _OUTSIDE = -1, 0, 1


class GeometryError(ValueError):
    """Invalid geometry parameters or broken mesh topology."""


@dataclass(frozen=True)
class Mesh:
    """Triangle mesh of the closed unit cell [0, 1]^2.

    Attributes
    ----------
    vertices : (nv, 2) float array
        Vertex coordinates.  The first (n + 1)^2 rows are the grid vertices in
        row-major order (those near the circle moved onto it); the remaining
        rows are the points where grid edges cross the circle.  For r = 0
        nv = (n + 1)^2; for n = 24 and r = 0.3, nv = 625 + 20.
    triangles : (nt, 3) int array
        Vertex indices per triangle, counterclockwise.  Triangles off the
        circle keep the grid order; each crossed one is replaced in place by
        its pieces.  For r = 0 nt = 2 n^2; for n = 24 and r = 0.3,
        nt = 1152 + 40.
    region_of_triangle : (nt,) int array
        REGION_DISC where no vertex of the triangle lies outside the rod,
        REGION_BACKGROUND elsewhere.
    n : int
        Grid subdivisions per edge.
    r : float
        Rod radius: r = 0, or h <= r < 0.5.

    For n >= 8 and h <= r <= 0.45 no angle is below 9 degrees (a sweep of
    n = 8..64 in radius steps of 0.001 found 9.2 at worst).  A rod narrower
    than one grid step is rejected: it would give slivers, or no disc
    triangles at all when it fits between the grid vertices.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    region_of_triangle: np.ndarray
    n: int
    r: float

    def signed_areas(self) -> np.ndarray:
        p = self.vertices[self.triangles]
        d1 = p[:, 1] - p[:, 0]
        d2 = p[:, 2] - p[:, 0]
        return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])

    def tagged_area(self, region: int) -> float:
        """Total area of the triangles carrying the given region tag."""
        mask = self.region_of_triangle == region
        return float(self.signed_areas()[mask].sum())


@dataclass(frozen=True)
class PeriodicMap:
    """Identification of mesh vertices with periodic degrees of freedom.

    Vertices on the right edge map to the DOF of the matching vertex on the
    left edge, top maps to bottom, and all four corners share one DOF.  The
    grid vertices hold DOFs 0 .. n^2 - 1; each cut point on the circle gets
    its own DOF after them, so n_dofs = n^2 + nv - (n + 1)^2.
    """

    dof_of_vertex: np.ndarray
    n_dofs: int


def _grid(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row-major grid vertices and the 2 n^2 diagonal-split triangles."""
    ticks = np.arange(n + 1) / n
    gx, gy = np.meshgrid(ticks, ticks, indexing="xy")
    vertices = np.column_stack([gx.ravel(), gy.ravel()])

    # Cell (i, j) has corners ll, lr, ul, ur; the diagonal runs ll -> ur.
    ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="xy")
    ll = (jj * (n + 1) + ii).ravel()
    lr = ll + 1
    ul = ll + (n + 1)
    ur = ul + 1
    triangles = np.empty((2 * n * n, 3), dtype=np.int64)
    triangles[0::2] = np.column_stack([ll, lr, ur])
    triangles[1::2] = np.column_stack([ll, ur, ul])
    return vertices, triangles


def _on_cell_boundary(n: int) -> np.ndarray:
    idx = np.arange((n + 1) * (n + 1))
    i = idx % (n + 1)
    j = idx // (n + 1)
    return (i == 0) | (i == n) | (j == 0) | (j == n)


def _circle_point(inner: np.ndarray, outer: np.ndarray, r: float) -> np.ndarray:
    """Point where the segment from ``inner`` (inside) to ``outer`` (outside)
    meets the circle of radius r about the cell centre."""
    u = inner - 0.5
    w = outer - inner
    ww = w @ w
    uw = u @ w
    t = (-uw + math.sqrt(uw * uw - ww * (u @ u - r * r))) / ww
    p = u + t * w
    return 0.5 + r * p / math.hypot(p[0], p[1])


def _min_angle(pts: np.ndarray) -> float:
    """Smallest interior angle of the triangle with vertex rows ``pts``."""
    cosines = []
    for a in range(3):
        e1 = pts[(a + 1) % 3] - pts[a]
        e2 = pts[(a + 2) % 3] - pts[a]
        cosines.append((e1 @ e2) / math.sqrt((e1 @ e1) * (e2 @ e2)))
    return math.acos(min(1.0, max(cosines)))


def _triangulate(chain: list[int], vertices: list[np.ndarray]) -> list[tuple[int, int, int]]:
    """Split a convex counterclockwise triangle or quadrilateral."""
    if len(chain) == 3:
        return [tuple(chain)]
    p0, p1, p2, p3 = chain
    options = ([(p0, p1, p2), (p0, p2, p3)], [(p1, p2, p3), (p1, p3, p0)])
    quality = [min(_min_angle(np.array([vertices[v] for v in tri])) for tri in opt) for opt in options]
    return options[1] if quality[1] > quality[0] else options[0]


def build_unit_cell_mesh(n: int, r: float) -> Mesh:
    """Build the unit-cell mesh fitted to the rod boundary.

    Parameters
    ----------
    n : int
        Subdivisions per edge, n >= 1.
    r : float
        Rod radius; must satisfy 0 <= r < 0.5 so the rod stays strictly
        inside the cell, and r = 0 or r >= h = 1/n so the grid resolves the
        rod.  For r = 0 the mesh is the plain grid.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise GeometryError(f"grid subdivisions must be a positive integer, got {n!r}")
    if not (0.0 <= r < 0.5):
        raise GeometryError(f"rod radius must satisfy 0 <= r < 0.5, got {r!r}")
    if 0.0 < r < 1.0 / n:
        raise GeometryError(f"rod radius {r!r} is below the grid step 1/{n}; use r = 0 or a finer grid")

    vertices, triangles = _grid(n)
    offset = vertices - 0.5
    dist = np.hypot(offset[:, 0], offset[:, 1])
    side = np.sign(dist - r).astype(np.int64)
    snap = (np.abs(dist - r) < _SNAP_FRACTION / n) & ~_on_cell_boundary(n) & (dist > 0.0)
    vertices[snap] = 0.5 + r * offset[snap] / dist[snap, None]
    side[snap] = _ON

    corner_sides = side[triangles]
    crossed = (corner_sides.min(axis=1) == _INSIDE) & (corner_sides.max(axis=1) == _OUTSIDE)
    points = list(vertices)
    sides = list(side)
    cut_of_edge: dict[tuple[int, int], int] = {}
    pieces: dict[int, list[tuple[int, int, int]]] = {}
    for t in np.flatnonzero(crossed):
        # walk the triangle counterclockwise, inserting the cut points
        ring = []
        for a in range(3):
            va, vb = int(triangles[t, a]), int(triangles[t, (a + 1) % 3])
            ring.append(va)
            if side[va] * side[vb] < 0:
                edge = (min(va, vb), max(va, vb))
                if edge not in cut_of_edge:
                    inner, outer = (va, vb) if side[va] == _INSIDE else (vb, va)
                    cut_of_edge[edge] = len(points)
                    points.append(_circle_point(vertices[inner], vertices[outer], r))
                    sides.append(_ON)
                ring.append(cut_of_edge[edge])
        # the chord between the two circle points splits the ring in two
        first, second = (pos for pos, v in enumerate(ring) if sides[v] == _ON)
        pieces[int(t)] = _triangulate(ring[first : second + 1], points) + _triangulate(
            ring[second:] + ring[: first + 1], points
        )

    if pieces:
        rows = []
        for t, tri in enumerate(triangles):
            rows.extend(pieces.get(t, [tri]))
        triangles = np.array(rows, dtype=np.int64)
        vertices = np.array(points)
    outside = np.array(sides)[triangles].max(axis=1) == _OUTSIDE
    regions = np.where(outside, REGION_BACKGROUND, REGION_DISC).astype(np.int64)

    for arr in (vertices, triangles, regions):
        arr.setflags(write=False)
    return Mesh(vertices=vertices, triangles=triangles, region_of_triangle=regions, n=n, r=float(r))


def build_periodic_dof_map(mesh: Mesh) -> PeriodicMap:
    """Map mesh vertices onto the periodic degrees of freedom.

    The (n + 1)^2 grid vertices share the n^2 grid DOFs; every further vertex
    (a cut point inside the cell) gets its own DOF after them.  Only the
    cell-boundary vertices must sit exactly on the grid.
    """
    n = mesh.n
    n_grid = (n + 1) * (n + 1)
    nv = mesh.vertices.shape[0]
    if nv < n_grid:
        raise GeometryError("vertex count does not match the structured grid")

    expected, _ = _grid(n)
    boundary = _on_cell_boundary(n)
    if not np.array_equal(mesh.vertices[:n_grid][boundary], expected[boundary]):
        raise GeometryError("boundary vertex offsets do not match the periodic identification")
    extra = mesh.vertices[n_grid:]
    if not np.all((extra > 0.0) & (extra < 1.0)):
        raise GeometryError("vertices beyond the grid must lie strictly inside the cell")

    idx = np.arange(n_grid)
    i = idx % (n + 1)
    j = idx // (n + 1)
    dof = np.concatenate([(j % n) * n + (i % n), n * n + np.arange(nv - n_grid)])
    dof.setflags(write=False)
    return PeriodicMap(dof_of_vertex=dof, n_dofs=n * n + nv - n_grid)


def filling_fraction_to_radius(f: float) -> float:
    """Radius of a rod occupying area fraction ``f`` of the unit cell.

    Inverts f = pi r^2.  Requires 0 <= f < pi/4 so that r < 0.5.
    """
    if not (0.0 <= f < math.pi / 4.0):
        raise GeometryError(f"filling fraction must lie in [0, pi/4), got {f!r}")
    return math.sqrt(f / math.pi)


def write_mesh_dump(mesh: Mesh, target: str | Path | IO[str]) -> None:
    """Write a plain-text mesh dump: one 'v x y' line per vertex followed by
    one 't i j k region' line per triangle."""
    lines = []
    for x, y in mesh.vertices:
        lines.append(f"v {x:.17g} {y:.17g}")
    for (a, b, c), reg in zip(mesh.triangles, mesh.region_of_triangle):
        lines.append(f"t {a} {b} {c} {reg}")
    text = "\n".join(lines) + "\n"
    if hasattr(target, "write"):
        target.write(text)
    else:
        Path(target).write_text(text, encoding="utf-8")
