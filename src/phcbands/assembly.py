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

All matrices of one family share a single CSC sparsity pattern, the union of
the region patterns, so T(nu) is a linear combination of their ``data``
arrays and never a sum of sparse matrices.  The pattern is CSC because that
is what SuperLU factors, so T(nu) reaches the factorization without a
format conversion.  Per-region entries are still summed from the element
triplets in CSR by ``from_triplet_arrays`` and then placed on the shared
pattern; entries a region does not touch hold zero.  The combination adds
one term at a time in the order ``build_T`` documents, and that order is
part of the contract: the operator, and with it every factorization and
every output file, is reproducible bit for bit.
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
    Every matrix is canonical CSC on the family's one shared pattern (the
    same ``indices`` and ``indptr`` memory), so building the operator at a
    frequency costs one combination of ``data`` arrays, and the result is
    in the format SuperLU factors.
    """

    polarization: str
    k: tuple[float, float]
    n_dofs: int
    stiffness: dict[int, sp.csc_matrix]
    mass: dict[int, sp.csc_matrix]
    grad1: dict[int, sp.csc_matrix]
    grad2: dict[int, sp.csc_matrix]
    models: dict[int, PermittivityModel]
    momentum_form: dict[int, sp.csc_matrix] = field(repr=False)
    momentum_form_total: sp.csc_matrix = field(repr=False)
    mass_total: sp.csc_matrix = field(repr=False)

    @property
    def regions(self) -> list[int]:
        return sorted(self.models)

    def t_matrix(self, nu: complex) -> sp.csc_matrix:
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
    # couples all three of its vertices both ways, so its CSR indptr and
    # indices serve unchanged as the CSC structure.
    pattern = from_triplet_arrays(n_dofs, n_dofs, rows, cols, np.ones(rows.shape))
    col_of_entry = np.repeat(np.arange(n_dofs), np.diff(pattern.indptr))
    keys = col_of_entry * n_dofs + pattern.indices  # column-major, ascending
    # entry p of a matrix's transpose is entry transpose[p] of the matrix
    transpose = np.searchsorted(keys, pattern.indices * n_dofs + col_of_entry)

    def on_pattern(mat: sp.csr_matrix) -> sp.csc_matrix:
        """A canonical CSR matrix re-expressed on the shared pattern."""
        data = np.zeros(pattern.nnz, dtype=np.complex128)
        mat_rows = np.repeat(np.arange(n_dofs), np.diff(mat.indptr))
        data[np.searchsorted(keys, mat.indices * n_dofs + mat_rows)] = mat.data
        return _with_pattern(pattern, data)

    regions = sorted(models)

    def region_sum(mats: dict[int, sp.csc_matrix]) -> sp.csc_matrix:
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


def _with_pattern(pattern: sp.spmatrix, data: np.ndarray) -> sp.csc_matrix:
    """CSC matrix sharing ``pattern``'s indices and indptr, holding ``data``."""
    return sp.csc_matrix((data, pattern.indices, pattern.indptr), shape=pattern.shape)


def _linear_combination(coeffs: list[complex], datas: list[np.ndarray]) -> np.ndarray:
    """sum_j coeffs[j] * datas[j], formed as ``data * complex(coeff)`` and
    added to the running sum one term at a time in list order."""
    acc = datas[0] * complex(coeffs[0])
    for coeff, data in zip(coeffs[1:], datas[1:]):
        acc += data * complex(coeff)
    return acc


def build_T(fam: OperatorFamily, nu: complex) -> sp.csc_matrix:
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

