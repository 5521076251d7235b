"""P1 finite-element assembly of the Floquet-transformed wave operators.

For a quasimomentum k in the first Brillouin zone the shifted operator acting
on periodic functions over the unit cell reads, in weak form,

    TE:  (grad u, grad v) + i(k u, grad v) - i(grad u, k v) + |k|^2 (u, v)
         - (2 pi nu)^2 (eps u, v)
    TM:  same bracket weighted by 1/eps per region, minus (2 pi nu)^2 (u, v)

with eps evaluated region by region at the normalized frequency nu.  On P1
elements all integrals have closed forms, so assembly is exact up to
roundoff.  The k- and nu-independent pieces (stiffness S, mass M and the two
first-derivative matrices G1, G2 with entries integral(phi_n d phi_m / dx_j))
are assembled once per region on the periodic DOFs; frequency sweeps then
reduce to scalar linear combinations.

All matrices of one family share a single CSR sparsity pattern, the union of
the region patterns, so T(nu) is a linear combination of their ``data``
arrays and never a sum of sparse matrices.  Per-region entries are
summed from the element triplets by ``from_triplet_arrays`` and then
placed on the shared pattern; entries a region does not touch hold zero.
The combination adds one term at a time in the order ``build_T`` documents,
and that order is part of the contract: the operator, and with it every
factorization and every output file, is reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .materials import PermittivityModel, check_bounds, eval_eps
from .mesh import Mesh, PeriodicMap
from .sparse import from_triplet_arrays

_BZ_TOL = 1e-12


class PermittivityBoundsError(RuntimeError):
    """Permittivity left its admissible bounds at the requested frequency."""


@dataclass
class OperatorFamily:
    """Region-split FEM matrices for one polarization at one quasimomentum.

    ``stiffness``, ``mass``, ``grad1`` and ``grad2`` hold the k-independent
    matrices per region tag.  ``momentum_form`` caches, per region,

        K_rho(k) = S_rho + i k1 G1 + i k2 G2 - i k1 G1^T - i k2 G2^T + |k|^2 M_rho

    (G1, G2 of region rho), summed left to right.  ``momentum_form_total``
    and ``mass_total`` are the sums over regions in ascending tag order.
    Every matrix is canonical CSR on the family's one shared pattern (the
    same ``indices`` and ``indptr`` memory), so building the operator at a
    frequency costs one combination of ``data`` arrays.
    """

    polarization: str
    k: tuple[float, float]
    n_dofs: int
    stiffness: dict[int, sp.csr_matrix]
    mass: dict[int, sp.csr_matrix]
    grad1: dict[int, sp.csr_matrix]
    grad2: dict[int, sp.csr_matrix]
    models: dict[int, PermittivityModel]
    momentum_form: dict[int, sp.csr_matrix] = field(repr=False)
    momentum_form_total: sp.csr_matrix = field(repr=False)
    mass_total: sp.csr_matrix = field(repr=False)

    @property
    def regions(self) -> list[int]:
        return sorted(self.models)

    def t_matrix(self, nu: complex) -> sp.csr_matrix:
        return build_T(self, nu)


def _element_geometry(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edge coefficients b, c and areas for a batch of triangles.

    pts has shape (nt, 3, 2).  With vertices p0, p1, p2 the P1 gradients are
    grad phi_i = (b_i, c_i) / (2 A), where b_i = y_{i+1} - y_{i+2} and
    c_i = x_{i+2} - x_{i+1} (indices mod 3).
    """
    x = pts[:, :, 0]
    y = pts[:, :, 1]
    b = y[:, [1, 2, 0]] - y[:, [2, 0, 1]]
    c = x[:, [2, 0, 1]] - x[:, [1, 2, 0]]
    area = 0.5 * (b[:, 0] * c[:, 1] - b[:, 1] * c[:, 0])
    return b, c, area


_MASS_PATTERN = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0


def assemble_family(
    mesh: Mesh,
    pmap: PeriodicMap,
    k: tuple[float, float],
    polarization: str,
    models: dict[int, PermittivityModel],
) -> OperatorFamily:
    """Assemble the region-split operator matrices on the periodic DOFs.

    ``models`` maps every region tag present in the mesh to its permittivity
    model.  The quasimomentum components must lie in [-pi, pi].
    """
    if polarization not in ("TE", "TM"):
        raise ValueError(f"polarization must be 'TE' or 'TM', got {polarization!r}")
    k1, k2 = float(k[0]), float(k[1])
    if abs(k1) > math.pi + _BZ_TOL or abs(k2) > math.pi + _BZ_TOL:
        raise ValueError(f"quasimomentum {k!r} outside the first Brillouin zone")
    present = set(int(t) for t in np.unique(mesh.region_of_triangle))
    missing = present - set(models)
    if missing:
        raise ValueError(f"no permittivity model for region tags {sorted(missing)}")

    n_dofs = pmap.n_dofs
    dof = pmap.dof_of_vertex[mesh.triangles]  # (nt, 3)
    pts = mesh.vertices[mesh.triangles]
    b, c, area = _element_geometry(pts)

    # Exact P1 element matrices.  Row index m is the test function.
    stiff_el = (np.einsum("ti,tj->tij", b, b) + np.einsum("ti,tj->tij", c, c)) / (4.0 * area)[:, None, None]
    mass_el = area[:, None, None] * _MASS_PATTERN[None, :, :]
    grad1_el = np.broadcast_to((b / 6.0)[:, :, None], stiff_el.shape)
    grad2_el = np.broadcast_to((c / 6.0)[:, :, None], stiff_el.shape)

    rows = np.broadcast_to(dof[:, :, None], stiff_el.shape)
    cols = np.broadcast_to(dof[:, None, :], stiff_el.shape)

    # The union of the region patterns, symmetric because every element
    # couples all three of its vertices both ways.
    pattern = from_triplet_arrays(n_dofs, n_dofs, rows, cols, np.ones(rows.shape))
    row_of_entry = np.repeat(np.arange(n_dofs), np.diff(pattern.indptr))
    keys = row_of_entry * n_dofs + pattern.indices
    # entry p of a matrix's transpose is entry transpose[p] of the matrix
    transpose = np.searchsorted(keys, pattern.indices * n_dofs + row_of_entry)

    def on_pattern(mat: sp.csr_matrix) -> sp.csr_matrix:
        """A canonical CSR matrix re-expressed on the shared pattern."""
        data = np.zeros(pattern.nnz, dtype=np.complex128)
        mat_rows = np.repeat(np.arange(n_dofs), np.diff(mat.indptr))
        data[np.searchsorted(keys, mat_rows * n_dofs + mat.indices)] = mat.data
        return _with_pattern(pattern, data)

    regions = sorted(models)

    def region_sum(mats: dict[int, sp.csr_matrix]) -> sp.csr_matrix:
        return _with_pattern(pattern, _linear_combination([1.0] * len(regions), [mats[r].data for r in regions]))

    ksq = k1 * k1 + k2 * k2
    stiffness, mass, grad1, grad2, momentum_form = {}, {}, {}, {}, {}
    for region in regions:
        sel = mesh.region_of_triangle == region
        r, cc = rows[sel], cols[sel]
        s, m, g1, g2 = (
            on_pattern(from_triplet_arrays(n_dofs, n_dofs, r, cc, element[sel]))
            for element in (stiff_el, mass_el, grad1_el, grad2_el)
        )
        stiffness[region], mass[region], grad1[region], grad2[region] = s, m, g1, g2
        momentum_form[region] = _with_pattern(
            pattern,
            _linear_combination(
                [1.0, 1j * k1, 1j * k2, -1j * k1, -1j * k2, ksq],
                [s.data, g1.data, g2.data, g1.data[transpose], g2.data[transpose], m.data],
            ),
        )
    return OperatorFamily(
        polarization=polarization,
        k=(k1, k2),
        n_dofs=n_dofs,
        stiffness=stiffness,
        mass=mass,
        grad1=grad1,
        grad2=grad2,
        models=dict(models),
        momentum_form=momentum_form,
        momentum_form_total=region_sum(momentum_form),
        mass_total=region_sum(mass),
    )


def _with_pattern(pattern: sp.csr_matrix, data: np.ndarray) -> sp.csr_matrix:
    """CSR matrix sharing ``pattern``'s indices and indptr, holding ``data``."""
    return sp.csr_matrix((data, pattern.indices, pattern.indptr), shape=pattern.shape)


def _linear_combination(coeffs: list[complex], datas: list[np.ndarray]) -> np.ndarray:
    """sum_j coeffs[j] * datas[j], formed as ``data * complex(coeff)`` and
    added to the running sum one term at a time in list order."""
    acc = datas[0] * complex(coeffs[0])
    for coeff, data in zip(coeffs[1:], datas[1:]):
        acc += data * complex(coeff)
    return acc


def build_T(fam: OperatorFamily, nu: complex) -> sp.csr_matrix:
    """Operator matrix at normalized frequency ``nu``.

    TE:  K(k) - (2 pi nu)^2 sum_rho eps_rho(nu) M_rho
    TM:  sum_rho eps_rho(nu)^-1 K_rho(k) - (2 pi nu)^2 M

    The terms are summed in the order written, regions in ascending tag
    order, on the family's shared pattern.  For TM every region's
    permittivity must pass its admissibility bounds at ``nu``; a violation
    raises PermittivityBoundsError.
    """
    nu = complex(nu)
    scale = (2.0 * math.pi * nu) ** 2
    if fam.polarization == "TE":
        coeffs: list[complex] = [1.0]
        datas: list[np.ndarray] = [fam.momentum_form_total.data]
        for region in fam.regions:
            coeffs.append(-scale * eval_eps(fam.models[region], nu))
            datas.append(fam.mass[region].data)
    else:
        coeffs = []
        datas = []
        for region in fam.regions:
            model = fam.models[region]
            if not check_bounds(model, nu):
                raise PermittivityBoundsError(f"region {region} permittivity out of bounds at nu = {nu!r}")
            coeffs.append(1.0 / eval_eps(model, nu))
            datas.append(fam.momentum_form[region].data)
        coeffs.append(-scale)
        datas.append(fam.mass_total.data)
    return _with_pattern(fam.mass_total, _linear_combination(coeffs, datas))


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
