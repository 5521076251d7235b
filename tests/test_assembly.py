"""Operator assembly: element identities, Hermitian structure, region
splitting, the triangle-order sums, and the independent element-by-element
cross-checks."""

import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg

from phcbands.assembly import assemble_family, build_T
from phcbands.materials import Constant, Drude, LossyDrude, PermittivityPoleError, eval_eps
from phcbands.mesh import build_periodic_dof_map, build_unit_cell_mesh

from conftest import GAMMA, X, direct_assembly_check, reference_region_matrices, t_matrix

TWO_REGION = {0: Constant(1.0), 1: Constant(8.9)}


def total(mats):
    return sum(mats[region].toarray() for region in sorted(mats))


def momentum_shift(fam, fam0, ksq):
    """Per region, K_rho(k) - K_rho(0) - |k|^2 M_rho: the first-order part
    i A - i A^T of the momentum form, from two families on one mesh."""
    return {
        region: fam.momentum_form[region].toarray()
        - fam0.momentum_form[region].toarray()
        - ksq * fam.mass[region].toarray()
        for region in fam.regions
    }


def test_mass_partition_of_unity(family_factory):
    for n in (1, 4):
        _, _, fam = family_factory(n, 0.0, GAMMA)
        assert fam.mass_total.toarray().sum() == pytest.approx(1.0, abs=1e-14)


def test_stiffness_annihilates_constants(family_factory):
    # at Gamma each region's momentum form is its stiffness matrix
    _, _, fam = family_factory(4, 0.3, GAMMA, models=TWO_REGION)
    ones = np.ones(fam.n_dofs)
    for region in fam.regions:
        assert np.abs(fam.momentum_form[region] @ ones).max() <= 1e-13


def test_grad_matrices_annihilate_constants(family_factory):
    # integral of d phi / dx_j over the torus vanishes, so the total G1, G2
    # have zero row and column sums, and K(k) 1 = |k|^2 M 1 on both sides
    k = (1.0, 0.5)
    _, _, fam = family_factory(2, 0.0, k)
    ksq = k[0] ** 2 + k[1] ** 2
    ones = np.ones(fam.n_dofs)
    kd = fam.momentum_form_total.toarray()
    md = fam.mass_total.toarray()
    assert np.abs(kd @ ones - ksq * (md @ ones)).max() <= 1e-14
    assert np.abs(ones @ kd - ksq * (ones @ md)).max() <= 1e-14


def test_grad_total_antisymmetric(family_factory):
    # periodic integration by parts: (phi_n, d phi_m) = -(phi_m, d phi_n)
    # summed over all elements, so the total first-order part of K(k) is
    # 2 i A; per region the boundary term survives
    k = (1.0, 0.5)
    mesh, pmap, fam = family_factory(4, 0.3, k, models=TWO_REGION)
    _, _, fam0 = family_factory(4, 0.3, GAMMA, models=TWO_REGION)
    reference = reference_region_matrices(mesh, pmap).values()
    g1 = sum(g1 for _, _, g1, _ in reference)
    g2 = sum(g2 for _, _, _, g2 in reference)
    for g in (g1, g2):
        assert np.abs(g + g.T).max() <= 1e-14
    a = k[0] * g1 + k[1] * g2
    shift = sum(momentum_shift(fam, fam0, k[0] ** 2 + k[1] ** 2).values())
    assert np.abs(shift - 2j * a).max() <= 1e-14


def test_momentum_shift_matrices_hermitian(family_factory):
    # i A1 - i A2 with A2 = A1^T is i times a real antisymmetric matrix
    k = (1.0, 0.5)
    _, _, fam = family_factory(4, 0.3, k, models=TWO_REGION)
    _, _, fam0 = family_factory(4, 0.3, GAMMA, models=TWO_REGION)
    for shift in momentum_shift(fam, fam0, k[0] ** 2 + k[1] ** 2).values():
        assert np.abs(shift - shift.conj().T).max() <= 1e-14
        assert np.abs(shift.real).max() <= 1e-14


def test_momentum_form_identity(family_factory):
    # K_rho(k) = S_rho + i A - i A^T + |k|^2 M_rho against the element-by-
    # element reference S and G of each region
    k = (1.0, 0.5)
    mesh, pmap, fam = family_factory(4, 0.3, k, models=TWO_REGION)
    ksq = k[0] ** 2 + k[1] ** 2
    for region, (s, m, g1, g2) in reference_region_matrices(mesh, pmap).items():
        a = k[0] * g1 + k[1] * g2
        expected = s + 1j * a - 1j * a.T + ksq * m
        assert np.abs(fam.momentum_form[region].toarray() - expected).max() <= 1e-13
        assert np.abs(fam.mass[region].toarray() - m).max() <= 1e-15
    total_form = sum(fam.momentum_form[region].toarray() for region in fam.regions)
    assert np.abs(fam.momentum_form_total.toarray() - total_form).max() <= 1e-14


def test_region_additivity(family_factory):
    # the same fitted mesh with every tag set to background has the same
    # triangles, so the region-split matrices must sum to its single-region
    # assembly
    k = (1.0, 0.5)
    mesh, pmap, fam_split = family_factory(4, 0.3, k, models=TWO_REGION)
    untagged = dataclasses.replace(mesh, region_of_triangle=np.zeros_like(mesh.region_of_triangle))
    fam_plain = assemble_family(untagged, pmap, k, "TE", {0: Constant(1.0)})
    for which in ("momentum_form", "mass"):
        split = total(getattr(fam_split, which))
        plain = getattr(fam_plain, which)[0].toarray()
        assert np.abs(split - plain).max() <= 1e-14


def test_operator_hermitian_for_real_eps(family_factory):
    _, _, te = family_factory(4, 0.3, (1.1, -0.7), "TE", TWO_REGION)
    _, _, tm = family_factory(4, 0.3, (1.1, -0.7), "TM", TWO_REGION)
    for fam in (te, tm):
        t = t_matrix(fam, 0.7).toarray()
        assert np.abs(t - t.conj().T).max() <= 1e-13


@pytest.mark.parametrize(
    "rod, symmetric",
    [
        (Constant(8.9), True),
        (Drude(1.0, 0.0), True),
        (LossyDrude(1.0, 0.0), True),
        (Drude(1.0, 0.01), False),
        (LossyDrude(1.0, 0.01), False),
        (Constant(8.9 + 0.1j), False),
    ],
)
def test_conjugate_symmetric_family(family_factory, rod, symmetric):
    # the flag the indicator's mirror solves rely on: T(conj nu) = T(nu)^H
    # exactly when every permittivity is conjugate-symmetric
    for pol in ("TE", "TM"):
        _, _, fam = family_factory(4, 0.3, (1.1, -0.7), pol, {0: Constant(1.0), 1: rod})
        assert fam.conjugate_symmetric is symmetric
        for nu in (0.41 + 0.03j, 0.8 - 0.02j):
            t = t_matrix(fam, nu).toarray()
            mirror = t_matrix(fam, nu.conjugate()).toarray()
            gap = np.abs(mirror - t.conj().T).max() / np.abs(t).max()
            assert bool(gap <= 1e-14) is symmetric


def test_momentum_form_psd_and_kernel(family_factory):
    _, _, fam = family_factory(4, 0.0, (1.0, 0.5))
    kd = fam.momentum_form_total.toarray()
    assert np.abs(kd - kd.conj().T).max() <= 1e-14
    assert scipy.linalg.eigvalsh(kd).min() >= -1e-10

    _, _, fam0 = family_factory(4, 0.0, GAMMA)
    k0 = fam0.momentum_form_total.toarray()
    eigs = np.sort(scipy.linalg.eigvalsh(k0))
    assert eigs[0] < 1e-10
    assert eigs[1] > 1e-6
    assert np.linalg.norm(k0 @ np.ones(fam0.n_dofs)) <= 1e-13


def test_te_at_zero_frequency_is_stiffness(family_factory):
    mesh, pmap, fam = family_factory(4, 0.0, GAMMA)
    t0 = t_matrix(fam, 0.0).toarray()
    stiffness = reference_region_matrices(mesh, pmap)[0][0]
    assert np.abs(t0 - stiffness).max() <= 1e-13
    assert np.abs(t0 @ np.ones(fam.n_dofs)).max() <= 1e-13


def test_te_equals_tm_for_unit_eps(family_factory):
    models = {0: Constant(1.0), 1: Constant(1.0)}
    _, _, te = family_factory(4, 0.3, X, "TE", models)
    _, _, tm = family_factory(4, 0.3, X, "TM", models)
    for nu in (0.3, 0.9 + 0.02j):
        diff = (t_matrix(te, nu) - t_matrix(tm, nu)).toarray()
        assert np.abs(diff).max() <= 1e-13


def test_tm_constant_eps_rescales_te(family_factory):
    # TM with eps = 4 everywhere is (1/4) K - (2 pi nu)^2 M, the eps = 1 TE
    # operator evaluated at 2 nu, up to the overall factor
    models4 = {0: Constant(4.0), 1: Constant(4.0)}
    _, _, tm = family_factory(4, 0.3, X, "TM", models4)
    _, _, te = family_factory(4, 0.3, X, "TE", {0: Constant(1.0), 1: Constant(1.0)})
    for nu in (0.2, 0.45):
        lhs = 4.0 * t_matrix(tm, nu).toarray()
        rhs = t_matrix(te, 2.0 * nu).toarray()
        assert np.abs(lhs - rhs).max() <= 1e-12


def test_conjugation_under_k_reversal(family_factory):
    # for real permittivity and real nu the operator at -k is the entrywise
    # conjugate of the operator at k
    for pol in ("TE", "TM"):
        _, _, plus = family_factory(4, 0.3, (1.0, 0.5), pol, TWO_REGION)
        _, _, minus = family_factory(4, 0.3, (-1.0, -0.5), pol, TWO_REGION)
        for nu in (0.3, 0.73, 1.1):
            diff = t_matrix(minus, nu) - t_matrix(plus, nu).conjugate()
            assert np.abs(diff.toarray()).max() <= 1e-14


@pytest.mark.parametrize("pol", ["TE", "TM"])
def test_build_T_matches_direct_assembly(pol):
    mesh = build_unit_cell_mesh(4, 0.3)
    pmap = build_periodic_dof_map(mesh)
    models = {0: Constant(1.0), 1: Drude(1.0, 0.01)}
    fam = assemble_family(mesh, pmap, (1.0, 0.5), pol, models)
    nu = 0.37 + 0.01j
    production = t_matrix(fam, nu).toarray()
    reference = direct_assembly_check(mesh, pmap, (1.0, 0.5), pol, models, nu).toarray()
    rel = np.linalg.norm(production - reference) / np.linalg.norm(production)
    assert rel <= 1e-12


def _ordered_sum(terms):
    """Dense sum of coeff * matrix, one term at a time in list order."""
    acc = terms[0][1] * complex(terms[0][0])
    for coeff, mat in terms[1:]:
        acc = acc + mat * complex(coeff)
    return acc


def test_region_data_summed_in_triangle_order():
    # each region's matrices add their element entries one at a time in
    # triangle order, so a plain loop over the triangles reproduces its mass
    # and (through the documented combination) its momentum form bit for bit
    k1, k2 = 1.1, -0.7
    mesh = build_unit_cell_mesh(8, 0.3)
    pmap = build_periodic_dof_map(mesh)
    fam = assemble_family(mesh, pmap, (k1, k2), "TE", TWO_REGION)
    n = fam.n_dofs
    sums = {region: tuple(np.zeros((n, n)) for _ in range(4)) for region in fam.regions}
    for tri, region in zip(mesh.triangles.tolist(), mesh.region_of_triangle.tolist()):
        (x0, y0), (x1, y1), (x2, y2) = mesh.vertices[tri].tolist()
        b = (y1 - y2, y2 - y0, y0 - y1)
        c = (x2 - x1, x0 - x2, x1 - x0)
        area = 0.5 * (b[0] * c[1] - b[1] * c[0])
        s, m, g1, g2 = sums[region]
        dofs = pmap.dof_of_vertex[tri].tolist()
        for i, row in enumerate(dofs):
            for j, col in enumerate(dofs):
                s[row, col] += (b[i] * b[j] + c[i] * c[j]) / (4.0 * area)
                m[row, col] += area * ((2.0 if i == j else 1.0) / 12.0)
                g1[row, col] += b[i] / 6.0
                g2[row, col] += c[i] / 6.0
    for region, (s, m, g1, g2) in sums.items():
        form = _ordered_sum(
            [(1.0, s), (1j * k1, g1), (1j * k2, g2), (-1j * k1, g1.T), (-1j * k2, g2.T), (k1 * k1 + k2 * k2, m)]
        )
        assert np.array_equal(fam.mass[region].toarray(), m)
        assert np.array_equal(fam.momentum_form[region].toarray(), form)


@pytest.mark.parametrize("pol", ["TE", "TM"])
@pytest.mark.parametrize("k", [GAMMA, (1.1, -0.7)])
def test_build_T_on_fixed_pattern(family_factory, pol, k):
    # every matrix of the family and every T(nu) is CSC on one shared pattern,
    # build_T gives exactly T(nu)'s entries on it, and T(nu) holds exactly
    # (not just to roundoff) the documented formula evaluated densely in its
    # documented term order
    models = {0: Constant(1.0), 1: Drude(1.0, 0.01)}
    _, _, fam = family_factory(4, 0.3, k, pol, models)
    pattern = fam.mass_total
    shared = [fam.momentum_form_total] + [
        getattr(fam, name)[region] for name in ("mass", "momentum_form") for region in fam.regions
    ]
    forms = {region: fam.momentum_form[region].toarray() for region in fam.regions}
    form_total = _ordered_sum([(1.0, forms[region]) for region in fam.regions])
    mass_total = _ordered_sum([(1.0, fam.mass[region].toarray()) for region in fam.regions])
    assert np.array_equal(fam.momentum_form_total.toarray(), form_total)
    assert np.array_equal(fam.mass_total.toarray(), mass_total)

    for nu in (0.37 + 0.01j, 0.05 - 0.02j, 0.61, 0.9 + 0.03j):
        t = t_matrix(fam, nu)
        assert np.array_equal(t.data, build_T(fam, nu))
        for mat in [pattern] + shared + [t]:
            assert mat.format == "csc"
            assert np.array_equal(mat.indptr, pattern.indptr)
            assert np.array_equal(mat.indices, pattern.indices)
            # one pattern in memory: the layout's, which every matrix views
            assert np.shares_memory(mat.indices, fam.layout.indices)
            assert np.shares_memory(mat.indptr, fam.layout.indptr)
        scale = (2.0 * math.pi * complex(nu)) ** 2
        if pol == "TE":
            terms = [(1.0, form_total)]
            terms += [(-scale * eval_eps(models[region], nu), fam.mass[region].toarray()) for region in fam.regions]
        else:
            terms = [(1.0 / eval_eps(models[region], nu), forms[region]) for region in fam.regions]
            terms += [(-scale, mass_total)]
        assert np.array_equal(t.toarray(), _ordered_sum(terms))


def test_direct_assembly_degenerate_split():
    mesh = build_unit_cell_mesh(3, 0.0)
    pmap = build_periodic_dof_map(mesh)
    models = {0: Constant(1.0)}
    fam = assemble_family(mesh, pmap, (0.5, 0.25), "TE", models)
    nu = 0.4
    expected = fam.momentum_form_total.toarray() - (2.0 * math.pi * nu) ** 2 * fam.mass_total.toarray()
    assert np.abs(t_matrix(fam, nu).toarray() - expected).max() <= 1e-13
    direct = direct_assembly_check(mesh, pmap, (0.5, 0.25), "TE", models, nu).toarray()
    assert np.abs(direct - expected).max() <= 1e-12


def test_tm_bounds_violation_raises(family_factory):
    # the lossless Drude permittivity vanishes at the plasma frequency,
    # where the TM form (division by eps) must refuse to assemble
    models = {0: Constant(1.0), 1: Drude(1.0, 0.0)}
    _, _, tm = family_factory(4, 0.3, X, "TM", models)
    with pytest.raises(PermittivityPoleError, match="out of bounds"):
        t_matrix(tm, 1.0)
    _, _, te = family_factory(4, 0.3, X, "TE", models)
    t_matrix(te, 1.0)  # TE multiplies by eps, so eps = 0 is allowed
    # at the pole nu = 0 both forms report the pole itself
    for fam in (tm, te):
        with pytest.raises(PermittivityPoleError):
            t_matrix(fam, 0.0)


def test_assembly_validation():
    mesh = build_unit_cell_mesh(4, 0.3)
    pmap = build_periodic_dof_map(mesh)
    with pytest.raises(ValueError):
        assemble_family(mesh, pmap, X, "TX", TWO_REGION)
    with pytest.raises(ValueError):
        assemble_family(mesh, pmap, (4.0, 0.0), "TE", TWO_REGION)
    with pytest.raises(ValueError):
        assemble_family(mesh, pmap, (math.nan, 0.0), "TE", TWO_REGION)  # NaN fails the zone check
    with pytest.raises(ValueError):
        assemble_family(mesh, pmap, X, "TE", {0: Constant(1.0)})  # missing disc model
    # the Brillouin zone boundary itself is admissible
    fam = assemble_family(mesh, pmap, (math.pi, -math.pi), "TE", TWO_REGION)
    assert fam.regions == [0, 1]
