"""Mesh construction, region tagging, periodic identification, and dumps."""

import dataclasses
import io
import math
from collections import Counter

import numpy as np
import pytest

from phcbands.mesh import (
    REGION_BACKGROUND,
    REGION_DISC,
    GeometryError,
    build_periodic_dof_map,
    build_unit_cell_mesh,
    filling_fraction_to_radius,
    write_mesh_dump,
)


# the angle floor the Mesh docstring states for n >= 8 and h <= r <= 0.45
MIN_ANGLE_FLOOR = 9.0


def test_single_cell_mesh():
    mesh = build_unit_cell_mesh(1, 0.0)
    assert mesh.vertices.shape == (4, 2)
    assert mesh.triangles.shape == (2, 3)
    assert np.all(mesh.region_of_triangle == REGION_BACKGROUND)


def signed_areas(mesh):
    p = mesh.vertices[mesh.triangles]
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def tagged_area(mesh, region):
    """Total area of the triangles carrying the given region tag."""
    return float(signed_areas(mesh)[mesh.region_of_triangle == region].sum())


def min_angle_degrees(mesh):
    p = mesh.vertices[mesh.triangles]
    cosines = []
    for a in range(3):
        e1 = p[:, (a + 1) % 3] - p[:, a]
        e2 = p[:, (a + 2) % 3] - p[:, a]
        norms = np.sqrt(np.einsum("ti,ti->t", e1, e1) * np.einsum("ti,ti->t", e2, e2))
        cosines.append(np.einsum("ti,ti->t", e1, e2) / norms)
    return math.degrees(math.acos(min(1.0, float(np.max(cosines)))))


def inscribed_polygon_area(mesh):
    # the interface vertices are those shared by a disc and a background
    # triangle; they lie on the circle, so the disc polygon is a fan of
    # isosceles triangles about the centre with area r^2 sin(dtheta) / 2
    disc = mesh.region_of_triangle == REGION_DISC
    interface = np.intersect1d(mesh.triangles[disc], mesh.triangles[~disc])
    offset = mesh.vertices[interface] - 0.5
    assert np.abs(np.hypot(offset[:, 0], offset[:, 1]) - mesh.r).max() <= 1e-15
    theta = np.sort(np.arctan2(offset[:, 1], offset[:, 0]))
    dtheta = np.diff(np.append(theta, theta[0] + 2.0 * math.pi))
    return 0.5 * mesh.r**2 * float(np.sin(dtheta).sum())


@pytest.mark.parametrize("n,r", [(1, 0.0), (8, 0.3), (16, 0.45), (32, 0.2)])
def test_orientation_and_unit_area(n, r):
    mesh = build_unit_cell_mesh(n, r)
    areas = signed_areas(mesh)
    assert np.all(areas > 0)
    assert abs(areas.sum() - 1.0) <= 1e-12
    assert min_angle_degrees(mesh) >= MIN_ANGLE_FLOOR


@pytest.mark.parametrize("n", [8, 11, 16, 24])
def test_min_angle_floor_over_radii(n):
    for r in np.linspace(1.0 / n, 0.45, 37):
        mesh = build_unit_cell_mesh(n, float(r))
        assert signed_areas(mesh).min() > 0
        assert min_angle_degrees(mesh) >= MIN_ANGLE_FLOOR, r


def test_disc_area_n32_r02():
    mesh = build_unit_cell_mesh(32, 0.2)
    tagged = tagged_area(mesh, REGION_DISC)
    assert tagged == pytest.approx(inscribed_polygon_area(mesh), abs=1e-14)
    assert abs(tagged - 0.1256) / 0.1256 < 0.05


def test_disc_area_n8_r03():
    mesh = build_unit_cell_mesh(8, 0.3)
    tagged = tagged_area(mesh, REGION_DISC)
    assert tagged == pytest.approx(inscribed_polygon_area(mesh), abs=1e-14)
    assert abs(tagged - math.pi * 0.09) / (math.pi * 0.09) < 0.10
    assert tagged_area(mesh, REGION_BACKGROUND) == pytest.approx(1.0 - tagged, abs=1e-12)


def test_disc_area_converges():
    # Every interface chord joins two circle points of one grid cell, so it is
    # about h sqrt(2) long at most and subtends phi <= sqrt(2) h / r.  The
    # segment it cuts off has area r^2 (phi - sin phi) / 2 <= r^2 phi^3 / 12;
    # summed over angles totalling 2 pi that is at most pi h^2 / 3, which the
    # bound pi h^2 / 2 covers with room for the slack in "about".  The
    # staircase broke it at n=64 (8.0e-4 > 3.8e-4).  Measured for r=0.2:
    # n=8: 8.0e-3, n=16: 1.8e-3, n=32: 4.0e-4, n=64: 1.2e-4, n=128: 2.6e-5.
    exact = math.pi * 0.04
    errors = {}
    for n in (8, 16, 32, 64, 128):
        mesh = build_unit_cell_mesh(n, 0.2)
        errors[n] = abs(tagged_area(mesh, REGION_DISC) - exact)
        assert errors[n] <= math.pi / (2.0 * n * n)
    assert errors[128] < min(errors[n] for n in (8, 16, 32, 64))


@pytest.mark.parametrize("n,expected", [(1, 1), (4, 16), (32, 1024)])
def test_periodic_dof_count(n, expected):
    mesh = build_unit_cell_mesh(n, 0.0)
    pmap = build_periodic_dof_map(mesh)
    assert pmap.n_dofs == expected
    assert pmap.dof_of_vertex.shape == (mesh.vertices.shape[0],)
    assert set(pmap.dof_of_vertex) == set(range(expected))


def test_periodic_edge_identification():
    n = 4
    mesh = build_unit_cell_mesh(n, 0.0)
    pmap = build_periodic_dof_map(mesh)
    dof = pmap.dof_of_vertex
    # right edge joins left edge, top joins bottom
    for j in range(n + 1):
        assert dof[j * (n + 1) + n] == dof[j * (n + 1)]
    for i in range(n + 1):
        assert dof[n * (n + 1) + i] == dof[i]
    corners = [0, n, n * (n + 1), n * (n + 1) + n]
    assert len({dof[c] for c in corners}) == 1


@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_torus_edge_classes_closed(n):
    # On the torus every edge class belongs to exactly two triangles.  An
    # edge class is the pair (base grid point mod n, offset direction); dof
    # pairs alone are ambiguous for n <= 2.
    mesh = build_unit_cell_mesh(n, 0.0)
    counts = Counter()
    for tri in mesh.triangles:
        coords = [(int(v) % (n + 1), int(v) // (n + 1)) for v in tri]
        for a in range(3):
            (i1, j1), (i2, j2) = coords[a], coords[(a + 1) % 3]
            if (i2 - i1, j2 - j1) in ((-1, 0), (0, -1), (-1, -1)):
                (i1, j1), (i2, j2) = (i2, j2), (i1, j1)
            counts[((i1 % n, j1 % n), (i2 - i1, j2 - j1))] += 1
    assert len(counts) == 3 * n * n
    assert all(count == 2 for count in counts.values())


def test_mesh_determinism():
    a = build_unit_cell_mesh(8, 0.2)
    b = build_unit_cell_mesh(8, 0.2)
    assert np.array_equal(a.vertices, b.vertices)
    assert np.array_equal(a.triangles, b.triangles)
    assert np.array_equal(a.region_of_triangle, b.region_of_triangle)
    buf_a, buf_b = io.StringIO(), io.StringIO()
    write_mesh_dump(a, buf_a)
    write_mesh_dump(b, buf_b)
    assert buf_a.getvalue() == buf_b.getvalue()


def test_mesh_arrays_are_frozen():
    mesh = build_unit_cell_mesh(4, 0.3)
    with pytest.raises(ValueError):
        mesh.vertices[0, 0] = 7.0


@pytest.mark.parametrize(
    "n,r", [(0, 0.1), (-2, 0.1), (4, 0.5), (4, 0.7), (4, -0.01), (3, 0.1), (8, 0.001), (True, 0.0)]
)
def test_geometry_rejects_bad_parameters(n, r):
    with pytest.raises(GeometryError):
        build_unit_cell_mesh(n, r)


@pytest.mark.parametrize("n,expected", [(8, 74), (16, 274)])
def test_periodic_map_numbers_interface_vertices(n, expected):
    # interior grid vertices moved onto the circle keep their grid DOF; the
    # cut points follow the n^2 grid DOFs in vertex order
    mesh = build_unit_cell_mesh(n, filling_fraction_to_radius(0.2827))
    pmap = build_periodic_dof_map(mesh)
    n_grid = (n + 1) ** 2
    grid = build_unit_cell_mesh(n, 0.0)
    plain = build_periodic_dof_map(grid)
    assert not np.array_equal(mesh.vertices[:n_grid], grid.vertices)
    assert pmap.n_dofs == expected
    assert np.array_equal(pmap.dof_of_vertex[:n_grid], plain.dof_of_vertex)
    assert np.array_equal(pmap.dof_of_vertex[n_grid:], n * n + np.arange(expected - n * n))


def test_periodic_map_rejects_foreign_mesh():
    mesh = build_unit_cell_mesh(3, 0.0)
    shifted = mesh.vertices.copy()
    shifted[1, 0] += 1e-3
    broken = type(mesh)(
        vertices=shifted,
        triangles=mesh.triangles,
        region_of_triangle=mesh.region_of_triangle,
        n=mesh.n,
        r=mesh.r,
    )
    with pytest.raises(GeometryError):
        build_periodic_dof_map(broken)

    # every grid vertex must be present
    with pytest.raises(GeometryError, match="vertex count"):
        build_periodic_dof_map(dataclasses.replace(mesh, vertices=mesh.vertices[:-1]))

    # a vertex beyond the grid must lie strictly inside the cell
    disc = build_unit_cell_mesh(8, 0.3)
    moved = disc.vertices.copy()
    moved[-1] = (1.0, 0.5)
    with pytest.raises(GeometryError):
        build_periodic_dof_map(dataclasses.replace(disc, vertices=moved))


def test_filling_fraction_inversion():
    assert filling_fraction_to_radius(0.0) == 0.0
    r1 = filling_fraction_to_radius(0.1256)
    assert abs(math.pi * r1 * r1 - 0.1256) <= 1e-15
    assert abs(r1 - 0.2) < 1e-4
    r2 = filling_fraction_to_radius(0.2827)
    assert abs(math.pi * r2 * r2 - 0.2827) <= 1e-15
    assert abs(r2 - 0.3) < 1e-4


@pytest.mark.parametrize("f", [-1e-9, math.pi / 4.0, 1.0])
def test_filling_fraction_domain(f):
    with pytest.raises(GeometryError):
        filling_fraction_to_radius(f)


def test_mesh_dump_format(tmp_path):
    mesh = build_unit_cell_mesh(1, 0.0)
    expected = "v 0 0\nv 1 0\nv 0 1\nv 1 1\nt 0 1 3 0\nt 0 3 2 0\n"
    buf = io.StringIO()
    write_mesh_dump(mesh, buf)
    assert buf.getvalue() == expected
    path = tmp_path / "mesh.txt"
    write_mesh_dump(mesh, path)
    assert path.read_text(encoding="utf-8") == expected
