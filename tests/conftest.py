"""Shared fixtures: cached operator families, scalar test families, the
analytic empty-lattice reference spectrum, and an independent monolithic
assembly of the operator."""

import math

import numpy as np
import pytest
import scipy.sparse as sp

from phcbands.assembly import assemble_family
from phcbands.materials import Constant, PermittivityModel, eval_eps
from phcbands.mesh import Mesh, PeriodicMap, build_periodic_dof_map, build_unit_cell_mesh
from phcbands.sparse import from_triplet_arrays

GAMMA = (0.0, 0.0)
X = (math.pi, 0.0)
M = (math.pi, math.pi)


class DiagonalFamily:
    """Operator family with T(nu) = diag(nu - poles).

    The spectrum is exactly the pole list, which makes the search and
    refinement machinery testable against closed-form answers.
    """

    def __init__(self, poles):
        self.poles = [complex(p) for p in poles]
        self.n_dofs = len(self.poles)

    def t_matrix(self, nu):
        return sp.csr_matrix(np.diag([complex(nu) - p for p in self.poles]))


class SingularFamily:
    """Family whose matrix is singular at every frequency."""

    def __init__(self, n_dofs=2):
        self.n_dofs = n_dofs

    def t_matrix(self, nu):
        return sp.csr_matrix((self.n_dofs, self.n_dofs), dtype=np.complex128)


def plane_wave_values(k, lo, hi, mmax=3):
    """Empty-lattice frequencies nu = |k / (2 pi) + (m1, m2)| inside [lo, hi]."""
    kx, ky = k[0] / (2.0 * math.pi), k[1] / (2.0 * math.pi)
    values = []
    for m1 in range(-mmax, mmax + 1):
        for m2 in range(-mmax, mmax + 1):
            nu = math.hypot(kx + m1, ky + m2)
            if lo <= nu <= hi:
                values.append(nu)
    return sorted(values)


@pytest.fixture(scope="session")
def family_factory():
    """Cached (mesh, pmap, family) builder keyed by the full problem tuple."""
    cache = {}

    def build(n, r, k, polarization="TE", models=None):
        if models is None:
            models = {0: Constant(1.0)}
        key = (n, r, k, polarization, tuple(sorted(models.items())))
        if key not in cache:
            mesh = build_unit_cell_mesh(n, r)
            pmap = build_periodic_dof_map(mesh)
            cache[key] = (mesh, pmap, assemble_family(mesh, pmap, k, polarization, models))
        return cache[key]

    return build


def direct_assembly_check(
    mesh: Mesh,
    pmap: PeriodicMap,
    k: tuple[float, float],
    polarization: str,
    models: dict[int, PermittivityModel],
    nu: complex,
) -> sp.csr_matrix:
    """Monolithic reassembly of the operator at ``nu`` for cross-checking.

    Deliberately independent of the production path: basis coefficients come
    from solving the local Vandermonde system and all integrals use the
    edge-midpoint quadrature rule (exact for quadratics), with the
    permittivity baked in element by element.  Intended for tests.
    """
    if polarization not in ("TE", "TM"):
        raise ValueError(f"polarization must be 'TE' or 'TM', got {polarization!r}")
    k1, k2 = float(k[0]), float(k[1])
    kvec = np.array([k1, k2])
    ksq = k1 * k1 + k2 * k2
    scale = (2.0 * math.pi * complex(nu)) ** 2
    eps_of_region = {region: eval_eps(models[region], nu) for region in models}

    n_dofs = pmap.n_dofs
    rows, cols, vals = [], [], []
    for tri, region in zip(mesh.triangles, mesh.region_of_triangle):
        pts = mesh.vertices[tri]
        vander = np.column_stack([np.ones(3), pts[:, 0], pts[:, 1]])
        coefs = np.linalg.inv(vander)  # column i holds (a_i, b_i, c_i) of phi_i
        grads = coefs[1:, :].T  # (3, 2), row m = grad phi_m
        d1 = pts[1] - pts[0]
        d2 = pts[2] - pts[0]
        area = 0.5 * abs(d1[0] * d2[1] - d1[1] * d2[0])
        mids = 0.5 * (pts[[0, 1, 2]] + pts[[1, 2, 0]])
        w = area / 3.0
        phi = coefs[0][None, :] + mids @ coefs[1:, :]  # (quad point, basis)

        local = np.zeros((3, 3), dtype=np.complex128)
        eps = eps_of_region[int(region)]
        for m in range(3):
            for n in range(3):
                grad_term = grads[m] @ grads[n] * area
                mass_mn = w * float(phi[:, m] @ phi[:, n])
                g_mn = (kvec @ grads[m]) * w * float(phi[:, n].sum())
                g_nm = (kvec @ grads[n]) * w * float(phi[:, m].sum())
                bracket = grad_term + 1j * g_mn - 1j * g_nm + ksq * mass_mn
                if polarization == "TE":
                    local[m, n] = bracket - scale * eps * mass_mn
                else:
                    local[m, n] = bracket / eps - scale * mass_mn
        d = pmap.dof_of_vertex[tri]
        for m in range(3):
            for n in range(3):
                rows.append(d[m])
                cols.append(d[n])
                vals.append(local[m, n])
    return from_triplet_arrays(n_dofs, n_dofs, np.array(rows), np.array(cols), np.array(vals))
