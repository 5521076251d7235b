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
are summed per region only long enough to form the region's momentum form;
frequency sweeps then reduce to scalar linear combinations.

All matrices of one family share a single CSC sparsity pattern, the set of
(row, col) pairs the elements touch, so T(nu) is a linear combination of
their ``data`` arrays and never a sum of sparse matrices.  ``build_T``
returns that ``data``, the one form of the operator; ``sparse.factorize``
scatters it straight into band storage along the family's ``BandLayout``,
which ``assemble_family`` builds first, from the pattern alone, and which
holds that pattern.  Every family matrix is ``sparse.csc_on`` of its
entries on the layout.  Each region matrix is one
scatter-add of its element entries into their slots of the pattern, in
triangle order, with no intermediate matrix; entries a region does not
touch hold zero.  So every sum is fixed by the mesh alone.  The combination
adds one term at a time in the order ``build_T`` documents, and that order
is part of the contract: the operator, and with it every factorization and
every output file, is reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .materials import ABS_CAP, ABS_FLOOR, PermittivityModel, PermittivityPoleError, eval_eps, is_conjugate_symmetric
from .mesh import Mesh, PeriodicMap
from .sparse import BandLayout, band_layout, csc_on

_BZ_TOL = 1e-12


@dataclass
class OperatorFamily:
    """Region-split FEM matrices for one polarization at one quasimomentum.

    ``mass`` holds the mass matrix M_rho of each region tag, and
    ``momentum_form`` holds, per region,

        K_rho(k) = S_rho + i k1 G1 + i k2 G2 - i k1 G1^T - i k2 G2^T + |k|^2 M_rho

    (S, G1, G2 of region rho), summed left to right.  ``momentum_form_total``
    and ``mass_total`` are the sums over regions in ascending tag order.
    These are the matrices ``build_T`` and the oracles read.  Every matrix
    is canonical complex128 CSC on the family's one shared pattern (the
    same ``indices`` and ``indptr`` memory, which ``layout`` holds), so
    building the operator at a frequency costs one combination of ``data``
    arrays.  ``layout`` is that pattern's band storage, built once with the
    family, and ``t_data`` gives T(nu)'s entries on it, for
    ``sparse.factorize`` and, as ``sparse.csc_on``, for products.
    """

    polarization: str
    n_dofs: int
    mass: dict[int, sp.csc_matrix]
    models: dict[int, PermittivityModel]
    momentum_form: dict[int, sp.csc_matrix] = field(repr=False)
    momentum_form_total: sp.csc_matrix = field(repr=False)
    mass_total: sp.csc_matrix = field(repr=False)
    layout: BandLayout = field(repr=False)

    @property
    def regions(self) -> list[int]:
        return sorted(self.models)

    @property
    def conjugate_symmetric(self) -> bool:
        """True when T(conj(nu)) = T(nu)^H: every region's permittivity is
        conjugate-symmetric, and the momentum forms are Hermitian for real k."""
        return all(is_conjugate_symmetric(model) for model in self.models.values())

    def t_data(self, nu: complex) -> np.ndarray:
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


def check_quasimomentum(k: tuple[float, float]) -> tuple[float, float]:
    """``k`` as two floats; ValueError unless both lie in [-pi, pi] (NaN fails)."""
    k1, k2 = float(k[0]), float(k[1])
    if not (abs(k1) <= math.pi + _BZ_TOL and abs(k2) <= math.pi + _BZ_TOL):
        raise ValueError(f"quasimomentum {k!r} outside the first Brillouin zone")
    return k1, k2


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
    k1, k2 = check_quasimomentum(k)
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

    # Every element entry's column-major key col * n_dofs + row.  The sorted
    # distinct keys are the shared CSC pattern, and slot[e] is the position
    # of entry e in it.  The pattern is symmetric, because every element
    # couples all three of its vertices both ways.
    keys = (dof[:, None, :] * n_dofs + dof[:, :, None]).ravel()
    pattern_keys, slot = np.unique(keys, return_inverse=True)
    entry_rows, entry_cols = pattern_keys % n_dofs, pattern_keys // n_dofs
    indptr = np.searchsorted(pattern_keys, np.arange(n_dofs + 1) * n_dofs)
    nnz = pattern_keys.size
    pattern = sp.csc_matrix((np.zeros(nnz, dtype=np.complex128), entry_rows, indptr), shape=(n_dofs, n_dofs))
    # the periodic map numbers grid row 0 first: DOFs 0 .. n - 1
    layout = band_layout(pattern, np.arange(mesh.n))
    # entry p of a matrix's transpose is entry transpose[p] of the matrix
    transpose = np.searchsorted(pattern_keys, entry_rows * n_dofs + entry_cols)

    regions = sorted(models)
    region_of_entry = np.repeat(mesh.region_of_triangle, 9)

    def region_sum(mats: dict[int, sp.csc_matrix]) -> sp.csc_matrix:
        return csc_on(layout, _linear_combination([1.0] * len(regions), [mats[r].data for r in regions]))

    ksq = k1 * k1 + k2 * k2
    mass, momentum_form = {}, {}
    for region in regions:
        sel = region_of_entry == region
        # one scatter-add per matrix, in triangle order
        s, m, g1, g2 = (
            np.bincount(slot[sel], weights=element.ravel()[sel], minlength=nnz).astype(np.complex128)
            for element in (stiff_el, mass_el, grad1_el, grad2_el)
        )
        mass[region] = csc_on(layout, m)
        momentum_form[region] = csc_on(
            layout,
            _linear_combination(
                [1.0, 1j * k1, 1j * k2, -1j * k1, -1j * k2, ksq],
                [s, g1, g2, g1[transpose], g2[transpose], m],
            ),
        )
    return OperatorFamily(
        polarization=polarization,
        n_dofs=n_dofs,
        mass=mass,
        models=dict(models),
        momentum_form=momentum_form,
        momentum_form_total=region_sum(momentum_form),
        mass_total=region_sum(mass),
        layout=layout,
    )


def _linear_combination(coeffs: list[complex], datas: list[np.ndarray]) -> np.ndarray:
    """sum_j coeffs[j] * datas[j], formed as ``data * complex(coeff)`` and
    added to the running sum one term at a time in list order."""
    acc = datas[0] * complex(coeffs[0])
    for coeff, data in zip(coeffs[1:], datas[1:]):
        acc += data * complex(coeff)
    return acc


def build_T(fam: OperatorFamily, nu: complex) -> np.ndarray:
    """Entries of the operator matrix at normalized frequency ``nu``, as
    the ``data`` of a CSC matrix on the family's shared pattern.

    TE:  K(k) - (2 pi nu)^2 sum_rho eps_rho(nu) M_rho
    TM:  sum_rho eps_rho(nu)^-1 K_rho(k) - (2 pi nu)^2 M

    The terms are summed in the order written, regions in ascending tag
    order, on the family's shared pattern.  Either form raises
    PermittivityPoleError at a pole of eps, and TM also where a region's
    |eps(nu)| leaves [ABS_FLOOR, ABS_CAP], next to a zero or a pole.
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
            eps = eval_eps(fam.models[region], nu)
            if not (ABS_FLOOR <= abs(eps) <= ABS_CAP):
                raise PermittivityPoleError(f"region {region} permittivity out of bounds at nu = {nu!r}")
            coeffs.append(1.0 / eps)
            datas.append(fam.momentum_form[region].data)
        coeffs.append(-scale)
        datas.append(fam.mass_total.data)
    return _linear_combination(coeffs, datas)

