"""Shared fixtures: cached operator families, scalar test families, the
analytic empty-lattice reference spectrum, and an independent element-by-
element assembly of the operator and of its region matrices."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import phcbands
from phcbands.assembly import assemble_family
from phcbands.materials import Constant, PermittivityModel, eval_eps
from phcbands.mesh import Mesh, PeriodicMap, build_periodic_dof_map, build_unit_cell_mesh
from phcbands.sparse import band_layout, csc_on

GAMMA = (0.0, 0.0)
X = (math.pi, 0.0)
M = (math.pi, math.pi)


def t_matrix(fam, nu):
    """T(nu) of an operator family as a CSC matrix: its entries on the
    family's layout, for tests that compare operators as matrices."""
    return csc_on(fam.layout, fam.t_data(nu))


class PatternFamily:
    """Operator family on a fixed CSC pattern, as the search and refinement
    read one: a subclass gives ``t_data(nu)``, the entries of T(nu) on the
    pattern, and the band layout, which holds the pattern, is built once,
    as ``assemble_family`` builds it."""

    def __init__(self, pattern):
        self.n_dofs = pattern.shape[0]
        self.layout = band_layout(pattern, [0])


class DiagonalFamily(PatternFamily):
    """Operator family with T(nu) = diag(nu - poles).

    The spectrum is exactly the pole list, which makes the search and
    refinement machinery testable against closed-form answers.
    """

    def __init__(self, poles):
        self.poles = np.array([complex(p) for p in poles])
        super().__init__(sp.identity(len(self.poles), format="csc"))

    def t_data(self, nu):
        return complex(nu) - self.poles


class SingularFamily(PatternFamily):
    """Family whose matrix is singular at every frequency: no entries."""

    def __init__(self, n_dofs=2):
        super().__init__(sp.csc_matrix((n_dofs, n_dofs)))

    def t_data(self, nu):
        return np.zeros(0, dtype=np.complex128)


def stdout_under_blas_threads(script: str) -> list[str]:
    """Standard output of ``python -c script`` under one and under two
    OpenBLAS threads, each in a fresh interpreter (the thread count is read
    once, when numpy and scipy load)."""
    src = str(Path(phcbands.__file__).resolve().parent.parent)
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
        outputs.append(proc.stdout.strip())
    return outputs


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


def _p1_element(pts):
    """Local P1 data of one triangle, independent of the production path:
    basis coefficients from the local Vandermonde system, and the
    edge-midpoint quadrature rule (exact for quadratics).

    Returns the basis gradients (row m = grad phi_m), the area, the basis
    values at the three edge midpoints (quadrature point, basis) and the
    quadrature weight.
    """
    vander = np.column_stack([np.ones(3), pts[:, 0], pts[:, 1]])
    coefs = np.linalg.inv(vander)  # column i holds (a_i, b_i, c_i) of phi_i
    grads = coefs[1:, :].T  # (3, 2), row m = grad phi_m
    d1 = pts[1] - pts[0]
    d2 = pts[2] - pts[0]
    area = 0.5 * abs(d1[0] * d2[1] - d1[1] * d2[0])
    mids = 0.5 * (pts[[0, 1, 2]] + pts[[1, 2, 0]])
    phi = coefs[0][None, :] + mids @ coefs[1:, :]  # (quad point, basis)
    return grads, area, phi, area / 3.0


def reference_region_matrices(mesh: Mesh, pmap: PeriodicMap) -> dict[int, tuple[np.ndarray, ...]]:
    """Dense (S, M, G1, G2) of every region tag in the mesh, assembled element
    by element with ``_p1_element``: S the stiffness, M the mass and
    G_j[m, n] = integral(phi_n d phi_m / dx_j).  Intended for tests."""
    n_dofs = pmap.n_dofs
    mats = {}
    for tri, region in zip(mesh.triangles, mesh.region_of_triangle):
        s, m, g1, g2 = mats.setdefault(int(region), tuple(np.zeros((n_dofs, n_dofs)) for _ in range(4)))
        grads, area, phi, w = _p1_element(mesh.vertices[tri])
        d = pmap.dof_of_vertex[tri]
        for a in range(3):
            for b in range(3):
                s[d[a], d[b]] += grads[a] @ grads[b] * area
                m[d[a], d[b]] += w * float(phi[:, a] @ phi[:, b])
                g1[d[a], d[b]] += grads[a][0] * w * float(phi[:, b].sum())
                g2[d[a], d[b]] += grads[a][1] * w * float(phi[:, b].sum())
    return mats


def direct_assembly_check(
    mesh: Mesh,
    pmap: PeriodicMap,
    k: tuple[float, float],
    polarization: str,
    models: dict[int, PermittivityModel],
    nu: complex,
) -> sp.csr_matrix:
    """Monolithic reassembly of the operator at ``nu`` for cross-checking.

    Deliberately independent of the production path: the element data come
    from ``_p1_element``, with the permittivity baked in element by element,
    and the element entries are summed by scipy.  Intended for tests.
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
        grads, area, phi, w = _p1_element(mesh.vertices[tri])
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
    return sp.coo_matrix((vals, (rows, cols)), shape=(n_dofs, n_dofs), dtype=np.complex128).tocsr()
